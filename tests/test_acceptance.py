"""Acceptance gate: ten numbered criteria, one test and one line each.

Each test computes its measured quantities first, prints a single
``[criterion NN] PASS/FAIL`` line with the numbers and thresholds, then
asserts.  Tolerances are pinned here on purpose; loosening them is a
behavior change, not a test fix.
"""

import math

import numpy as np
import pytest

from tomoflow.evolution import (
    DEFAULT_VALID_RADIUS,
    PotentialSpec,
    SolverConfig,
    evolve_characteristics,
    evolve_pde,
    reduce_equation,
)
from tomoflow.fields import TomographyParams, uniform_grid
from tomoflow.states import (
    StateKind,
    StateSpec,
    marginal_evaluator,
    sample_marginal_field,
    sample_wigner_field,
    wigner_evaluator,
)
from tomoflow.tomography import (
    RadonMarginalEvaluator,
    characteristic_from_marginal,
    density_matrix_from_marginal,
    quadrature_moments,
    uncertainty_product,
    wigner_from_characteristic,
)
from tomoflow.verify import roundtrip_report

GROUND = StateSpec(StateKind.GROUND)
EXCITED = StateSpec(StateKind.EXCITED_FIRST)
COHERENT = StateSpec(StateKind.COHERENT, q0=1.2, p0=-0.7)
ODDCAT = StateSpec(StateKind.ODD_CAT, q0=math.sqrt(2.0), p0=0.0)
CATALOG = [("ground", GROUND), ("excited1", EXCITED),
           ("coherent", COHERENT), ("oddcat", ODDCAT)]

DYNAMICS = [PotentialSpec.free(), PotentialSpec.harmonic()]

PROBES = [TomographyParams(1.0, 0.0, 0.0),
          TomographyParams(0.6, -0.8, 0.3),
          TomographyParams(-0.4, 1.1, -1.0),
          TomographyParams(0.0, 1.0, 0.5)]


def _line(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {detail}")


def test_criterion_01_excited_wigner_origin_and_roundtrip():
    exact = float(wigner_evaluator(EXCITED)(0.0, 0.0))
    grid = uniform_grid(-4.0, 4.0, 129)
    chi = characteristic_from_marginal(
        RadonMarginalEvaluator(wigner_evaluator(EXCITED)))
    recovered = wigner_from_characteristic(chi, grid, grid)
    i0 = np.argmin(np.abs(grid))
    rt = float(recovered.values[i0, i0])
    ok = exact == -2.0 and abs(rt + 2.0) <= 1e-2
    _line(1, ok, f"closed form {exact:+.1f} (exact); projection+inversion "
          f"origin {rt:+.6f}, |err| {abs(rt + 2.0):.2e} <= 1e-2")
    assert exact == -2.0
    assert rt == pytest.approx(-2.0, abs=1e-2)


def test_criterion_02_projection_matches_closed_form():
    radon = RadonMarginalEvaluator(wigner_evaluator(EXCITED))
    x = uniform_grid(-6.0, 6.0, 241)
    rng = np.random.default_rng(20240911)
    worst = 0.0
    floor = math.inf
    for _ in range(10):
        angle = rng.uniform(0.0, 2.0 * math.pi)
        r = rng.uniform(0.4, 1.4)
        mu, nu = r * math.cos(angle), r * math.sin(angle)
        delta = rng.uniform(-1.0, 1.0)
        got = np.asarray(radon(x, mu, nu, delta))
        want = marginal_evaluator(EXCITED)(x, mu, nu, delta)
        worst = max(worst, float(np.abs(got - want).max()))
        floor = min(floor, float(got.min()))
    wig = sample_wigner_field(EXCITED, uniform_grid(-4.0, 4.0, 129),
                              uniform_grid(-4.0, 4.0, 129))
    wig_min = float(wig.values.min())
    ok = worst <= 1e-6 and floor >= -1e-9 and abs(wig_min + 2.0) <= 1e-12
    _line(2, ok, f"line-integral vs closed form worst {worst:.2e} <= 1e-6 "
          f"(10 random directions); marginal floor {floor:+.2e} >= -1e-9; "
          f"Wigner minimum {wig_min:+.3f}")
    assert worst <= 1e-6
    assert floor >= -1e-9
    assert wig_min == pytest.approx(-2.0, abs=1e-12)


def test_criterion_03_exact_transport_terms():
    as_tuples = lambda c: [(t.coeff, t.mu_pow, t.nu_pow, t.dx, t.dmu, t.dnu)
                           for t in c.terms]
    free = as_tuples(reduce_equation(PotentialSpec.free()))
    rot = as_tuples(reduce_equation(PotentialSpec.harmonic()))
    kinetic = (1.0, 1, 0, 0, 0, 1)
    ok = free == [kinetic] and rot == [kinetic, (-1.0, 0, 1, 0, 1, 0)]
    _line(3, ok, f"V=0 terms {free}; V=q^2/2 terms {rot} (exact match)")
    assert free == [kinetic]
    assert rot == [kinetic, (-1.0, 0, 1, 0, 1, 0)]


def test_criterion_04_commuting_square():
    """Evolving the state then projecting equals evolving the projections.

    The grid-solver comparison covers every direction cell of radius
    >= 0.5, where the default X grid represents a slice; the
    characteristics solver has no such restriction.
    """
    x = uniform_grid(-6.0, 6.0, 97)
    times = (0.3, 1.0, math.pi)
    d_grid = uniform_grid(-1.5, 1.5, 65)
    x_grid = uniform_grid(-8.0, 8.0, 257)
    mu_mesh, nu_mesh = np.meshgrid(d_grid, d_grid, indexing="ij")
    radius_ok = np.hypot(mu_mesh, nu_mesh) >= DEFAULT_VALID_RADIUS

    worst_char = 0.0
    worst_pde = 0.0
    for label, state in CATALOG:
        for potential in DYNAMICS:
            w0 = marginal_evaluator(state)
            for t in times:
                wt = evolve_characteristics(w0, potential, t)
                exact = marginal_evaluator(state, t, potential)
                for pr in PROBES:
                    want = exact(x, pr.mu, pr.nu, pr.delta)
                    got = wt(x, pr.mu, pr.nu, pr.delta)
                    worst_char = max(worst_char,
                                     float(np.abs(got - want).max()))
            coeffs = reduce_equation(potential)
            f0 = sample_marginal_field(state, d_grid, d_grid, x_grid)
            snaps = evolve_pde(f0, coeffs, SolverConfig(), list(times))
            for t, snap in zip(times, snaps):
                ref = sample_marginal_field(state, d_grid, d_grid, x_grid,
                                            t, potential)
                mask = radius_ok[:, :, None]
                err = float(np.where(mask, np.abs(snap.values - ref.values),
                                     0.0).max())
                worst_pde = max(worst_pde, err)
    ok = worst_char <= 1e-6 and worst_pde <= 1e-3
    _line(4, ok, "4 states x {free,harmonic} x t in {0.3, 1.0, pi}: "
          f"characteristics worst {worst_char:.2e} <= 1e-6; grid solver "
          f"worst {worst_pde:.2e} <= 1e-3 (65x65x257)")
    assert worst_char <= 1e-6
    assert worst_pde <= 1e-3


def test_criterion_05_free_motion_dispersion():
    """Measured dispersion of the free-motion gaussian marginal.

    The self-consistent dispersion is (1/2)[mu^2 (1+t^2) + nu^2
    + 2 mu nu t]: the t^2 growth rides on the position coefficient.  One
    published transcription of this formula attaches the (1+t^2) factor
    to nu^2 instead; that variant would make the pure-momentum slice
    (mu=0, nu=1) spread in time, contradicting conservation of the
    free-particle momentum distribution, and it disagrees with the
    integrals measured here.  The derivation notes record the source of
    the discrepant form.
    """
    x = uniform_grid(-16.0, 16.0, 3201)
    w0 = marginal_evaluator(GROUND)
    axis = TomographyParams(0.0, 1.0)
    worst_axis = 0.0
    worst_general = 0.0
    discrepant_gap = math.inf
    for t in (0.0, 1.0, 2.0):
        wt = evolve_characteristics(w0, PotentialSpec.free(), t)
        _, var_p = quadrature_moments(wt, axis, x)
        worst_axis = max(worst_axis, abs(var_p - 0.5))
        for mu, nu in ((1.0, 0.0), (0.7, 0.7), (-0.5, 1.2), (1.3, -0.4)):
            _, var = quadrature_moments(wt, TomographyParams(mu, nu), x)
            want = 0.5 * (mu * mu * (1.0 + t * t) + nu * nu
                          + 2.0 * mu * nu * t)
            printed = 0.5 * (mu * mu + nu * nu * (1.0 + t * t)
                             + 2.0 * mu * nu * t)
            worst_general = max(worst_general, abs(var - want))
            if abs(want - printed) > 1e-6:
                discrepant_gap = min(discrepant_gap, abs(var - printed))
    ok = worst_axis <= 1e-6 and worst_general <= 1e-6 and discrepant_gap > 1e-3
    _line(5, ok, f"(0,1) slice variance drift {worst_axis:.2e} <= 1e-6 over "
          f"t in {{0,1,2}}; general-direction worst {worst_general:.2e} "
          f"<= 1e-6; transcribed variant misses by >= {discrepant_gap:.2e}")
    assert worst_axis <= 1e-6
    assert worst_general <= 1e-6
    # adjudication teeth: the measured variance rejects the variant form
    assert discrepant_gap > 1e-3


def test_criterion_06_excited_state_stationarity():
    x = uniform_grid(-6.0, 6.0, 97)
    w0 = marginal_evaluator(EXCITED)
    worst_char = 0.0
    for t in (0.7, 2.0 * math.pi):
        wt = evolve_characteristics(w0, PotentialSpec.harmonic(), t)
        for pr in PROBES:
            drift = np.abs(wt(x, pr.mu, pr.nu, pr.delta)
                           - w0(x, pr.mu, pr.nu, pr.delta))
            worst_char = max(worst_char, float(drift.max()))

    d_grid = uniform_grid(-1.5, 1.5, 65)
    x_grid = uniform_grid(-8.0, 8.0, 257)
    f0 = sample_marginal_field(EXCITED, d_grid, d_grid, x_grid)
    period = 2.0 * math.pi
    snap, = evolve_pde(f0, reduce_equation(PotentialSpec.harmonic()),
                       SolverConfig(), [period])
    mu_mesh, nu_mesh = np.meshgrid(d_grid, d_grid, indexing="ij")
    mask = (np.hypot(mu_mesh, nu_mesh) >= DEFAULT_VALID_RADIUS)[:, :, None]
    pde_drift = float(np.where(mask, np.abs(snap.values - f0.values),
                               0.0).max())
    ok = worst_char <= 1e-12 and pde_drift <= 5e-3
    _line(6, ok, f"harmonic invariance: characteristics drift "
          f"{worst_char:.2e} <= 1e-12; grid solver after one period "
          f"{pde_drift:.2e} <= 5e-3")
    assert worst_char <= 1e-12
    assert pde_drift <= 5e-3


def test_criterion_07_density_matrix_reconstruction():
    rho = density_matrix_from_marginal(marginal_evaluator(GROUND))
    i0 = np.argmin(np.abs(rho.q_grid))
    rho00 = complex(rho.values[i0, i0])
    rho00_err = abs(rho00 - 1.0 / math.sqrt(math.pi))

    worst = {"trace": 0.0, "hermiticity": 0.0, "purity": 0.0,
             "s-invariance": 0.0}
    all_passed = True
    for label, state in CATALOG:
        results = roundtrip_report(state,
                                   marginal_source=marginal_evaluator(state))
        for res in results:
            all_passed = all_passed and res.passed
            if res.name == "density-trace":
                worst["trace"] = max(worst["trace"], abs(res.measured - 1.0))
            elif res.name == "density-hermiticity":
                worst["hermiticity"] = max(worst["hermiticity"], res.measured)
            elif res.name == "density-purity":
                worst["purity"] = max(worst["purity"], abs(res.measured - 1.0))
            elif res.name == "density-s-invariance":
                worst["s-invariance"] = max(worst["s-invariance"],
                                            res.measured)
    ok = (rho00_err <= 1e-3 and all_passed and worst["trace"] <= 1e-3
          and worst["hermiticity"] <= 1e-6 and worst["purity"] <= 5e-3
          and worst["s-invariance"] <= 1e-3)
    _line(7, ok, f"ground rho(0,0) err {rho00_err:.2e} <= 1e-3; all states: "
          f"trace err {worst['trace']:.2e} <= 1e-3, hermiticity "
          f"{worst['hermiticity']:.2e} <= 1e-6, purity err "
          f"{worst['purity']:.2e} <= 5e-3, s-invariance "
          f"{worst['s-invariance']:.2e} <= 1e-3")
    assert rho00_err <= 1e-3
    assert all_passed
    assert worst["purity"] <= 5e-3


def test_criterion_08_normalization_and_scaling():
    x = uniform_grid(-20.0, 20.0, 4001)
    mus = (-1.2, -0.6, 0.1, 0.7, 1.3)
    nus = (-1.1, -0.5, 0.2, 0.6, 1.2)
    deltas = (-0.8, 0.0, 0.9)
    worst_norm = 0.0
    for _, state in CATALOG:
        w = marginal_evaluator(state)
        for mu in mus:
            for nu in nus:
                for delta in deltas:
                    mass = float(np.trapezoid(w(x, mu, nu, delta), x))
                    worst_norm = max(worst_norm, abs(mass - 1.0))

    xs = uniform_grid(-6.0, 6.0, 161)
    worst_scale = 0.0
    for _, state in CATALOG:
        w = marginal_evaluator(state)
        for lam in (0.5, 2.0, -1.0):
            for pr in PROBES[:3]:
                lhs = abs(lam) * np.asarray(
                    w(lam * xs, lam * pr.mu, lam * pr.nu, lam * pr.delta))
                rhs = np.asarray(w(xs, pr.mu, pr.nu, pr.delta))
                worst_scale = max(worst_scale,
                                  float(np.abs(lhs - rhs).max()))
    ok = worst_norm <= 1e-6 and worst_scale <= 1e-8
    _line(8, ok, f"unit mass over 5x5x3 sweep, all states: worst "
          f"{worst_norm:.2e} <= 1e-6; |lambda|-scaling identity worst "
          f"{worst_scale:.2e} <= 1e-8 for lambda in {{0.5, 2, -1}}")
    assert worst_norm <= 1e-6
    assert worst_scale <= 1e-8


def test_criterion_09_uncertainty_floor():
    x = uniform_grid(-16.0, 16.0, 3201)
    products = {label: uncertainty_product(marginal_evaluator(state), x)
                for label, state in CATALOG}
    floor_ok = all(v >= 0.25 - 1e-6 for v in products.values())
    ground_err = abs(products["ground"] - 0.25)
    ok = floor_ok and ground_err <= 1e-6
    detail = ", ".join(f"{k} {v:.6f}" for k, v in products.items())
    _line(9, ok, f"Var(q)*Var(p): {detail}; all >= 0.25 - 1e-6, ground "
          f"within {ground_err:.2e} of equality")
    assert floor_ok
    assert ground_err <= 1e-6


def _convergence_error(n_dir: int, n_x: int, t: float) -> float:
    d_grid = uniform_grid(-1.5, 1.5, n_dir)
    x_grid = uniform_grid(-6.0, 6.0, n_x)
    coeffs = reduce_equation(PotentialSpec.free())
    f0 = sample_marginal_field(GROUND, d_grid, d_grid, x_grid)
    snap, = evolve_pde(f0, coeffs, SolverConfig(), [t])
    ref = sample_marginal_field(GROUND, d_grid, d_grid, x_grid, t,
                                coeffs.potential)
    mask = (f0.radius() >= 0.8)[:, :, None]
    return float(np.where(mask, np.abs(snap.values - ref.values), 0.0).max())


def test_criterion_10_solver_convergence():
    t = 0.4
    coarse = _convergence_error(33, 129, t)
    fine = _convergence_error(65, 257, t)
    ratio = coarse / fine
    _line(10, ratio >= 3.5, f"halving h: semi-Lagrangian error {coarse:.2e} "
          f"-> {fine:.2e}, ratio {ratio:.2f} >= 3.5")
    assert ratio >= 3.5
