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
import math
import sys
from typing import TYPE_CHECKING

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
    DynamicsKind,
    StateKind,
    StateSpec,
    cat_normalization,
    marginal_eval,
    marginal_evaluator,
    marginal_slice,
    sample_marginal_field,
    sample_wigner_field,
    wigner_eval,
)

if TYPE_CHECKING:
    from .verify import CheckResult

SQRT_PI = math.sqrt(math.pi)


def _potential_arg(text: str) -> PotentialSpec:
    try:
        return PotentialSpec.from_string(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _load_config(path: str | None) -> dict:
    if path is None:
        return {}
    with open(path) as fh:
        cfg = json.load(fh)
    if not isinstance(cfg, dict):
        raise ValueError(f"{path}: config must be a JSON object")
    return cfg


def _grid(path: str | None, key: str, lo: float, hi: float,
          n: int) -> np.ndarray:
    """The [lo, hi, n] grid under key in the --config file, or the default."""
    spec = _load_config(path).get(key, [lo, hi, n])
    numbers = isinstance(spec, list) and len(spec) == 3 and all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in spec)
    if not (numbers and float(spec[2]).is_integer()):
        raise ValueError(f"{path}: {key} must be [lo, hi, n] with an "
                         f"integral n, got {json.dumps(spec)}")
    return uniform_grid(float(spec[0]), float(spec[1]), int(spec[2]))


def _state(args) -> StateSpec:
    # bare --state means the catalog entry; explicit flags override it
    if args.q0 is None and args.p0 is None:
        return CATALOG[args.state]
    return StateSpec(StateKind(args.state),
                     q0=args.q0 or 0.0, p0=args.p0 or 0.0)


def _require(field, cls, flag: str):
    if not isinstance(field, cls):
        raise ValueError(f"{flag} expects a {cls.__name__} file, got "
                         f"{type(field).__name__}")
    return field


def cmd_state_wigner(args) -> int:
    grid = _grid(args.config, "wigner_grid", -4.0, 4.0, 129)
    state = _state(args)
    field = sample_wigner_field(state, grid, grid, t=args.t,
                                dyn=DynamicsKind(args.dyn))
    write_field(field, args.out, meta={
        "command": "state-wigner", "state": args.state, "q0": state.q0,
        "p0": state.p0, "t": args.t, "dyn": args.dyn})
    return 0


def cmd_marginal(args) -> int:
    x_grid = _grid(args.config, "slice_x_grid", -10.0, 10.0, 1001)
    state = _state(args)
    params = TomographyParams(args.mu, args.nu, args.delta)
    field = marginal_slice(state, params, x_grid, t=args.t,
                           dyn=DynamicsKind(args.dyn))
    write_field(field, args.out, meta={
        "command": "marginal", "state": args.state, "q0": state.q0,
        "p0": state.p0, "mu": args.mu, "nu": args.nu, "delta": args.delta,
        "t": args.t, "dyn": args.dyn})
    return 0


def cmd_sample_field(args) -> int:
    d = _grid(args.config, "direction_grid", -1.5, 1.5, 65)
    x_grid = _grid(args.config, "x_grid", -8.0, 8.0, 257)
    state = _state(args)
    field = sample_marginal_field(state, d, d, x_grid, t=args.t,
                                  dyn=DynamicsKind(args.dyn))
    write_field(field, args.out, meta={
        "command": "sample-field", "state": args.state, "q0": state.q0,
        "p0": state.p0, "t": args.t, "dyn": args.dyn})
    return 0


def cmd_evolve(args) -> int:
    from .evolution import SolverConfig, evolve_pde, reduce_equation

    field = _require(read_field(args.infile), MarginalField, "--in")
    coeffs = reduce_equation(args.dyn)
    if args.t == 0.0:
        result = field
    else:
        result, = evolve_pde(field, coeffs, SolverConfig(), [args.t])
    write_field(result, args.out, meta={
        "command": "evolve", "t": args.t,
        "potential": coeffs.potential.coefficients})
    return 0


def cmd_invert(args) -> int:
    from .tomography import (
        FieldMarginalSource,
        characteristic_from_marginal,
        wigner_from_characteristic,
    )

    grid = _grid(args.config, "wigner_grid", -4.0, 4.0, 129)
    field = _require(read_field(args.infile), MarginalField, "--in")
    source = FieldMarginalSource(field)
    chi = characteristic_from_marginal(source)
    wigner = wigner_from_characteristic(chi, grid, grid)
    write_field(wigner, args.out, meta={"command": "invert"})
    return 0


def cmd_density_matrix(args) -> int:
    from .tomography import FieldMarginalSource, density_matrix_from_marginal

    q_grid = _grid(args.config, "density_grid", -5.0, 5.0, 65)
    field = _require(read_field(args.infile), MarginalField, "--in")
    source = FieldMarginalSource(field)
    config = ReconstructionConfig(s=args.s)
    dm = density_matrix_from_marginal(source, q_grid, config)
    write_field(dm, args.out, meta={"command": "density-matrix",
                                    "s": args.s})
    return 0


def cmd_reduce(args) -> int:
    from .evolution import reduce_equation

    coeffs = reduce_equation(args.potential)
    print(coeffs.describe())
    return 0


def _exact(name: str, measured: float, tol: float, **context) -> CheckResult:
    from .verify import CheckResult

    return CheckResult(name, bool(abs(measured) <= tol), float(measured),
                       tol, context)


def _suite_roundtrip(states) -> list[CheckResult]:
    from .verify import DEFAULT_TOLERANCES, roundtrip_report

    results = []
    for label, state in states:
        for res in roundtrip_report(state, tolerances=DEFAULT_TOLERANCES):
            res.context.setdefault("state", label)
            results.append(res)
    return results


def _suite_evolution(states) -> list[CheckResult]:
    from .evolution import (
        DEFAULT_VALID_RADIUS,
        SolverConfig,
        evolve_characteristics,
        evolve_pde,
        reduce_equation,
        resolvable_mask,
    )
    from .verify import DEFAULT_TOLERANCES, CheckResult

    results = []
    free = reduce_equation(PotentialSpec.free())
    rot = reduce_equation(PotentialSpec.harmonic())
    kinetic = [(1.0, 1, 0, 0, 0, 1)]
    expected_free = kinetic
    expected_rot = kinetic + [(-1.0, 0, 1, 0, 1, 0)]
    as_tuples = lambda c: [(t.coeff, t.mu_pow, t.nu_pow, t.dx, t.dmu, t.dnu)
                           for t in c.terms]
    results.append(_exact("reduction-free-exact",
                          0.0 if as_tuples(free) == expected_free else 1.0,
                          0.0, terms=free.describe()))
    results.append(_exact("reduction-harmonic-exact",
                          0.0 if as_tuples(rot) == expected_rot else 1.0,
                          0.0, terms=rot.describe()))

    x = np.linspace(-5.0, 5.0, 41)
    probes = [(1.0, 0.0, 0.0), (0.6, -0.8, 0.3), (-0.4, 1.1, -1.0)]
    t = 0.7
    for label, state in states:
        for dyn in (DynamicsKind.FREE, DynamicsKind.HARMONIC):
            w = evolve_characteristics(marginal_evaluator(state), dyn, t)
            worst = 0.0
            for mu, nu, delta in probes:
                want = marginal_eval(state, TomographyParams(mu, nu, delta),
                                     x, t=t, dyn=dyn)
                worst = max(worst, float(np.abs(w(x, mu, nu, delta)
                                                - want).max()))
            results.append(CheckResult(
                f"characteristics-{dyn.value}-{label}",
                worst <= DEFAULT_TOLERANCES.characteristics, worst,
                DEFAULT_TOLERANCES.characteristics, {"t": t}))

    d = uniform_grid(-1.5, 1.5, 33)
    xg = uniform_grid(-8.0, 8.0, 129)
    state = CATALOG["ground"]
    f0 = sample_marginal_field(state, d, d, xg)
    t = 0.4
    snap, = evolve_pde(f0, free, SolverConfig(), [t])
    ref = sample_marginal_field(state, d, d, xg, t=t, dyn=DynamicsKind.FREE)
    mu, nu = np.meshgrid(d, d, indexing="ij")
    mask = ((np.hypot(mu, nu) >= DEFAULT_VALID_RADIUS)
            & resolvable_mask(f0, free, t))[:, :, None]
    err = float(np.where(mask, np.abs(snap.values - ref.values), 0.0).max())
    results.append(CheckResult("pde-free-ground", err <= DEFAULT_TOLERANCES.pde,
                               err, DEFAULT_TOLERANCES.pde,
                               {"t": t, "grid": "33x33x129"}))
    return results


def _suite_worked_values() -> list[CheckResult]:
    ground = CATALOG["ground"]
    excited = CATALOG["excited1"]
    cat = CATALOG["oddcat"]
    coherent = CATALOG["coherent"]
    slice_of = lambda st, x, mu, nu: float(
        marginal_eval(st, TomographyParams(mu, nu), np.array([x]))[0])
    results = [
        _exact("ground-wigner-origin",
               wigner_eval(ground, (0.0, 0.0)) - 2.0, 1e-12),
        _exact("excited1-wigner-origin",
               wigner_eval(excited, (0.0, 0.0)) + 2.0, 1e-12),
        _exact("oddcat-wigner-origin",
               wigner_eval(cat, (0.0, 0.0)) + 2.0, 1e-9),
        _exact("oddcat-tilted-wigner-origin",
               wigner_eval(StateSpec(StateKind.ODD_CAT, 1.1, 0.9),
                           (0.0, 0.0)) + 2.0, 1e-9),
        _exact("ground-slice-origin",
               slice_of(ground, 0.0, 1.0, 0.0) - 1.0 / SQRT_PI, 1e-12),
        _exact("excited1-slice-origin",
               slice_of(excited, 0.0, 1.0, 0.0), 1e-15),
        _exact("excited1-slice-peak",
               slice_of(excited, 1.0, 1.0, 0.0)
               - 2.0 / SQRT_PI * math.exp(-1.0), 1e-12),
        _exact("oddcat-norm-constant",
               cat_normalization(math.sqrt(2.0), 0.0)
               - math.sqrt(math.e / (4.0 * math.sinh(1.0))), 1e-12),
    ]
    x = np.linspace(-4.0, 4.0, 81)
    t = 0.9
    c, s = math.cos(t), math.sin(t)
    mu, nu = 0.7, -0.4
    rotated = TomographyParams(mu * c - nu * s, mu * s + nu * c)
    drift = float(np.abs(
        marginal_eval(coherent, TomographyParams(mu, nu), x, t=t,
                      dyn=DynamicsKind.HARMONIC)
        - marginal_eval(coherent, rotated, x)).max())
    results.append(_exact("coherent-harmonic-rotation", drift, 1e-12))
    still = float(np.abs(
        marginal_eval(excited, TomographyParams(mu, nu), x, t=1.1,
                      dyn=DynamicsKind.HARMONIC)
        - marginal_eval(excited, TomographyParams(mu, nu), x)).max())
    results.append(_exact("excited1-harmonic-stationary", still, 1e-12))
    return results


def cmd_check(args) -> int:
    if args.state is None:
        states = list(CATALOG.items())
    else:
        states = [(args.state, _state(args))]
    if args.suite == "roundtrip":
        results = _suite_roundtrip(states)
    elif args.suite == "evolution":
        results = _suite_evolution(states)
    else:
        results = _suite_worked_values()
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

    def add_state_flags(p):
        p.add_argument("--state", required=True, choices=sorted(
            k.value for k in StateKind))
        p.add_argument("--q0", type=float, default=None,
                       help="displacement, defaults to the catalog value")
        p.add_argument("--p0", type=float, default=None,
                       help="displacement, defaults to the catalog value")

    def add_time_flags(p):
        p.add_argument("--t", type=float, default=0.0)
        p.add_argument("--dyn", choices=[d.value for d in DynamicsKind],
                       default="static")

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
                   help='free | harmonic | linear:<slope> | "c0,c1,c2"')
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
                   help='free | harmonic | linear:<slope> | "c0,c1,c2"')
    p.set_defaults(func=cmd_reduce)

    p = sub.add_parser("check", help="run a verification suite")
    p.add_argument("--suite", required=True,
                   choices=["roundtrip", "evolution", "paper-examples"])
    p.add_argument("--state", default=None, choices=sorted(
        k.value for k in StateKind))
    p.add_argument("--q0", type=float, default=None,
                   help="displacement, defaults to the catalog value")
    p.add_argument("--p0", type=float, default=None,
                   help="displacement, defaults to the catalog value")
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
