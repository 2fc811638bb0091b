"""Run the full reconstruction loop for one catalog state.

Projects the state's Wigner function to quadrature marginals by line
integrals, rebuilds the characteristic function, inverts back to phase
space, and reconstructs the position-basis density matrix, printing the
headline numbers at each stage.

    python3 scripts/reconstruction_demo.py --state oddcat --out wigner.csv
"""

import argparse
import pathlib
import sys

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from tomoflow.fields import uniform_grid
from tomoflow.io import write_field
from tomoflow.states import CATALOG, sample_wigner_field, wigner_evaluator
from tomoflow.tomography import (
    RadonMarginalEvaluator,
    characteristic_from_marginal,
    density_matrix_from_marginal,
    wigner_from_characteristic,
)
from tomoflow.verify import compare_fields


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--state", choices=sorted(CATALOG), default="oddcat")
    ap.add_argument("--out", default=None,
                    help="write the reconstructed Wigner field here")
    args = ap.parse_args()
    state = CATALOG[args.state]

    source = RadonMarginalEvaluator(wigner_evaluator(state))
    x = uniform_grid(-10.0, 10.0, 1001)
    mass = float(np.trapezoid(np.asarray(source(x, 1.0, 0.0, 0.0)), x))
    print(f"projected (1, 0) marginal mass: {mass:.8f}")

    # chi and rho take the half-turn parity w(X; -mu, -nu) = w(-X; mu, nu)
    # for granted; only the source can break it.
    phis = np.linspace(0.0, np.pi, 4, endpoint=False)[:, None]
    mirrored = source(-x, np.cos(phis), np.sin(phis), 0.0)
    flipped = source(x, -np.cos(phis), -np.sin(phis), 0.0)
    parity = np.max(np.abs(flipped - mirrored)) / np.max(np.abs(mirrored))
    print(f"source parity defect: {parity:.3e}")

    chi = characteristic_from_marginal(source)

    grid = uniform_grid(-4.0, 4.0, 129)
    recovered = wigner_from_characteristic(chi, grid, grid)
    direct = sample_wigner_field(state, grid, grid)
    report = compare_fields(direct, recovered)
    i0 = np.argmin(np.abs(grid))
    print(f"Wigner origin: direct {direct.values[i0, i0]:+.6f}, "
          f"reconstructed {recovered.values[i0, i0]:+.6f}")
    print(f"roundtrip max |diff| {report.max_abs:.3e} "
          f"at (q, p) = {report.argmax_location}")

    rho = density_matrix_from_marginal(source)
    print(f"density matrix: trace {rho.trace():.6f}, "
          f"purity {rho.purity():.6f}, "
          f"hermiticity defect {rho.hermiticity_defect():.3e}")

    if args.out:
        write_field(recovered, args.out, meta={"state": args.state})
        print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
