"""Command-line front end: generate, evolve, invert, reconstruct, check.

Every command is deterministic for fixed flags; nothing reads the clock
or draws random numbers, so reruns produce identical files.  Exit codes:
0 success, 1 validation or check failure, 2 usage errors.

Each command imports the evolution, tomography and verify layers itself,
so a process loads only what its command uses; every layer needs numpy only.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .fields import (
    MarginalField,
    PotentialSpec,
    ReconstructionConfig,
    TomographyParams,
    uniform_grid,
)
from .io import read_field, write_field
from .states import (
    CATALOG,
    StateKind,
    StateSpec,
    marginal_slice,
    sample_marginal_field,
    sample_wigner_field,
)


POTENTIAL_HELP = 'free | harmonic | linear:<slope> | "c0,c1,c2"'


def _potential_arg(text: str) -> PotentialSpec:
    try:
        return PotentialSpec.from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _grids(path: str | None, **defaults) -> list[np.ndarray]:
    """The [lo, hi, n] grid under each key of the --config file, which is
    read once, or the key's default (lo, hi, n)."""
    cfg = {}
    if path is not None:
        with open(path) as fh:
            cfg = json.load(fh)
        if not isinstance(cfg, dict):
            raise ValueError(f"{path}: config must be a JSON object")
    grids = []
    for key, default in defaults.items():
        spec = cfg.get(key, list(default))
        numbers = isinstance(spec, list) and len(spec) == 3 and all(
            isinstance(v, (int, float)) and not isinstance(v, bool) for v in spec)
        if not (numbers and float(spec[2]).is_integer()):
            raise ValueError(f"{path}: {key} must be [lo, hi, n] with an "
                             f"integral n, got {json.dumps(spec)}")
        grids.append(uniform_grid(float(spec[0]), float(spec[1]), int(spec[2])))
    return grids


def _state(args) -> StateSpec:
    # bare --state means the catalog entry; explicit flags override it
    if args.q0 is None and args.p0 is None:
        return CATALOG[args.state]
    return StateSpec(StateKind(args.state),
                     q0=args.q0 or 0.0, p0=args.p0 or 0.0)


def _state_meta(args, state: StateSpec) -> dict:
    return {"command": args.command, "state": args.state, "q0": state.q0,
            "p0": state.p0, "t": args.t, "potential": args.dyn.coefficients}


def _require(field, cls, flag: str):
    if not isinstance(field, cls):
        raise ValueError(f"{flag} expects a {cls.__name__} file, got "
                         f"{type(field).__name__}")
    return field


def cmd_state_wigner(args) -> int:
    grid, = _grids(args.config, wigner_grid=(-4.0, 4.0, 129))
    state = _state(args)
    field = sample_wigner_field(state, grid, grid, args.t, args.dyn)
    write_field(field, args.out, meta=_state_meta(args, state))
    return 0


def cmd_marginal(args) -> int:
    x_grid, = _grids(args.config, slice_x_grid=(-10.0, 10.0, 1001))
    state = _state(args)
    params = TomographyParams(args.mu, args.nu, args.delta)
    field = marginal_slice(state, params, x_grid, args.t, args.dyn)
    write_field(field, args.out, meta=_state_meta(args, state))
    return 0


def cmd_sample_field(args) -> int:
    d, x_grid = _grids(args.config, direction_grid=(-1.5, 1.5, 65),
                       x_grid=(-8.0, 8.0, 257))
    state = _state(args)
    field = sample_marginal_field(state, d, d, x_grid, args.t, args.dyn)
    write_field(field, args.out, meta=_state_meta(args, state))
    return 0


def cmd_evolve(args) -> int:
    from .evolution import SolverConfig, evolve_pde, reduce_equation

    field = _require(read_field(args.infile), MarginalField, "--in")
    coeffs = reduce_equation(args.dyn)
    result, = evolve_pde(field, coeffs, SolverConfig(), [args.t])
    write_field(result, args.out,
                meta={"command": "evolve", "input": field.meta})
    return 0


def cmd_invert(args) -> int:
    from .tomography import (
        FieldMarginalSource,
        characteristic_from_marginal,
        wigner_from_characteristic,
    )

    grid, = _grids(args.config, wigner_grid=(-4.0, 4.0, 129))
    field = _require(read_field(args.infile), MarginalField, "--in")
    chi = characteristic_from_marginal(FieldMarginalSource(field))
    wigner = wigner_from_characteristic(chi, grid, grid)
    write_field(wigner, args.out, meta={"command": "invert", "input": field.meta})
    return 0


def cmd_density_matrix(args) -> int:
    from .tomography import FieldMarginalSource, density_matrix_from_marginal

    q_grid, = _grids(args.config, density_grid=(-5.0, 5.0, 65))
    field = _require(read_field(args.infile), MarginalField, "--in")
    source = FieldMarginalSource(field)
    config = ReconstructionConfig(s=args.s)
    dm = density_matrix_from_marginal(source, q_grid, config)
    write_field(dm, args.out, meta={"command": "density-matrix", "input": field.meta})
    return 0


def cmd_reduce(args) -> int:
    from .evolution import reduce_equation

    coeffs = reduce_equation(args.potential)
    print(coeffs.describe())
    return 0


def cmd_check(args) -> int:
    # --q0 and --p0 displace a --state; paper-examples takes no state flag
    fixed = args.suite == "paper-examples"
    for flag in ("state", "q0", "p0"):
        if getattr(args, flag) is not None and (fixed or args.state is None):
            print(f"error: --suite paper-examples takes no --{flag}" if fixed
                  else f"error: --{flag} needs --state", file=sys.stderr)
            return 2
    from .verify import SUITES

    states = (list(CATALOG.items()) if args.state is None
              else [(args.state, _state(args))])
    results = SUITES[args.suite](states)
    ok = all(r.passed for r in results)
    report = {"suite": args.suite, "all_passed": ok,
              "results": [r.as_dict() for r in results]}
    with open(args.report, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True, default=float)
        fh.write("\n")
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name} "
              f"measured={r.measured:.3e} threshold={r.threshold:.3e}")
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tomoflow",
        description="Quadrature-marginal tomography toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_state_flags(p, required=True):
        p.add_argument("--state", required=required, choices=sorted(
            k.value for k in StateKind))
        for flag in ("--q0", "--p0"):
            p.add_argument(flag, type=float, default=None, help="displacement: either"
                           " flag replaces the catalog's (q0, p0), the one left out is 0")

    def add_time_flags(p):
        p.add_argument("--t", type=float, default=0.0)
        p.add_argument("--dyn", type=_potential_arg, default="free",
                       help=POTENTIAL_HELP + "; the closed forms move free "
                       "and harmonic only")

    p = sub.add_parser("state-wigner", help="sample a catalog Wigner field")
    add_state_flags(p)
    add_time_flags(p)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_state_wigner)

    p = sub.add_parser("marginal", help="sample one quadrature distribution")
    add_state_flags(p)
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--nu", type=float, required=True)
    p.add_argument("--delta", type=float, default=0.0)
    add_time_flags(p)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_marginal)

    p = sub.add_parser("sample-field",
                       help="sample a full (mu, nu, X) marginal field")
    add_state_flags(p)
    add_time_flags(p)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_sample_field)

    p = sub.add_parser("evolve", help="advance a stored marginal field")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--dyn", type=_potential_arg, required=True,
                   help=POTENTIAL_HELP)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--solver", choices=["char", "pde"], default="char",
                   help="both run one backtrace and resample; not recorded")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evolve)

    p = sub.add_parser("invert",
                       help="reconstruct the Wigner field from marginals")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_invert)

    p = sub.add_parser("density-matrix",
                       help="reconstruct the position-basis density matrix")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--s", type=float, default=1.0,
                   help="scale parameter of the inversion kernel")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_density_matrix)

    p = sub.add_parser("reduce",
                       help="print the transport terms of a potential")
    p.add_argument("--potential", type=_potential_arg, required=True,
                   help=POTENTIAL_HELP)
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("--suite", required=True,
                   choices=["roundtrip", "evolution", "paper-examples"])
    add_state_flags(p, required=False)
    p.add_argument("--report", required=True)
    p.set_defaults(func=cmd_check)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
