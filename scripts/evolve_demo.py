"""Compare grid-solver evolution against exact characteristics.

Samples a catalog state's marginal family, advances it with the
semi-Lagrangian grid solver, and reports the deviation from the closed
form inside the solver's resolvable region at each snapshot.

    python3 scripts/evolve_demo.py --state oddcat --dyn free --times 0.5 1.0 2.0
"""

import argparse
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from tomoflow.evolution import (
    DEFAULT_VALID_RADIUS,
    PotentialSpec,
    SolverConfig,
    evolve_pde,
    reduce_equation,
    resolvable_mask,
)
from tomoflow.fields import uniform_grid
from tomoflow.io import write_field
from tomoflow.states import CATALOG, DynamicsKind, sample_marginal_field

POTENTIALS = {"free": PotentialSpec.free(), "harmonic": PotentialSpec.harmonic()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--state", choices=sorted(CATALOG), default="oddcat")
    ap.add_argument("--dyn", choices=sorted(POTENTIALS), default="free")
    ap.add_argument("--times", type=float, nargs="+", default=[0.5, 1.0, 2.0])
    ap.add_argument("--n-dir", type=int, default=65)
    ap.add_argument("--n-x", type=int, default=257)
    ap.add_argument("--out-dir", default=None,
                    help="write each snapshot as a CSV field here")
    args = ap.parse_args()

    state = CATALOG[args.state]
    coeffs = reduce_equation(POTENTIALS[args.dyn])
    d_grid = uniform_grid(-1.5, 1.5, args.n_dir)
    x_grid = uniform_grid(-8.0, 8.0, args.n_x)
    initial = sample_marginal_field(state, d_grid, d_grid, x_grid)
    config = SolverConfig()

    print(f"state={args.state} dyn={args.dyn} grid={args.n_dir}x{args.n_dir}"
          f"x{args.n_x}")
    print(f"{'t':>6}  {'max |solver - exact|':>22}  {'resolvable cells':>17}")

    snapshots = evolve_pde(initial, coeffs, config, sorted(args.times))
    mu, nu = np.meshgrid(d_grid, d_grid, indexing="ij")
    radius_ok = np.hypot(mu, nu) >= DEFAULT_VALID_RADIUS
    for t, snap in zip(sorted(args.times), snapshots):
        dyn = DynamicsKind.FREE if args.dyn == "free" else DynamicsKind.HARMONIC
        exact = sample_marginal_field(state, d_grid, d_grid, x_grid, t=t, dyn=dyn)
        mask = radius_ok & resolvable_mask(initial, coeffs, t)
        err = np.where(mask[:, :, None], np.abs(snap.values - exact.values), 0.0)
        print(f"{t:6.2f}  {err.max():22.3e}  {int(mask.sum()):10d}/{mask.size}")
        if snap.warnings:
            for warning in snap.warnings:
                print(f"        warning: {warning}")
        if args.out_dir:
            out = pathlib.Path(args.out_dir)
            out.mkdir(parents=True, exist_ok=True)
            write_field(snap, out / f"{args.state}_{args.dyn}_t{t:g}.csv")
    return 0


if __name__ == "__main__":
    sys.exit(main())
