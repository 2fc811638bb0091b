import dataclasses
import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm
from scipy.ndimage import map_coordinates, spline_filter

from oracles import (
    fock_coefficients,
    marginal_oracle_sampled,
    psi_from_fock,
    psi_harmonic_evolved,
    psi_free_evolved_sampled,
    psi_oddcat,
)
from tomoflow import evolution
from tomoflow.evolution import (
    DEFAULT_EVOLUTION_X_GRID,
    DEFAULT_MU_GRID,
    DEFAULT_NU_GRID,
    DEFAULT_VALID_RADIUS,
    NonlocalPotentialError,
    PotentialSpec,
    Scheme,
    SolverConfig,
    TransportTerm,
    evolve_characteristics,
    evolve_pde,
    evolve_wigner_reference,
    reduce_equation,
    resolvable_mask,
)
from tomoflow.fields import TomographyParams, grid_step, uniform_grid
from tomoflow.states import (
    EXCITED_FIRST,
    GROUND,
    DynamicsKind,
    StateKind,
    StateSpec,
    marginal_eval,
    marginal_evaluator,
    sample_marginal_field,
    wigner_eval,
)

COHERENT_A = StateSpec(StateKind.COHERENT, q0=1.2, p0=-0.7)
CAT_AXIS = StateSpec(StateKind.ODD_CAT, q0=math.sqrt(2.0), p0=0.0)


# ---------------------------------------------------------------------------
# reduction to transport terms


def test_free_reduction_is_single_shear_term():
    coeffs = reduce_equation(PotentialSpec.free())
    assert coeffs.terms == (TransportTerm(1.0, mu_pow=1, dnu=1),)


def test_harmonic_reduction_is_rotation_pair():
    coeffs = reduce_equation(PotentialSpec((0.0, 0.0, 0.5)))
    assert coeffs.terms == (
        TransportTerm(1.0, mu_pow=1, dnu=1),
        TransportTerm(-1.0, nu_pow=1, dmu=1),
    )


def test_constant_potential_reduces_like_free():
    coeffs = reduce_equation(PotentialSpec((7.5,)))
    assert coeffs.terms == reduce_equation(PotentialSpec.free()).terms


def test_linear_term_advects_x_with_plus_sign():
    c1 = 0.8
    coeffs = reduce_equation(PotentialSpec((0.0, c1)))
    assert coeffs.terms == (
        TransportTerm(1.0, mu_pow=1, dnu=1),
        TransportTerm(c1, nu_pow=1, dx=1),
    )


def test_general_quadratic_reduction():
    coeffs = reduce_equation(PotentialSpec((3.0, -1.5, 2.0)))
    assert coeffs.terms == (
        TransportTerm(1.0, mu_pow=1, dnu=1),
        TransportTerm(-1.5, nu_pow=1, dx=1),
        TransportTerm(-4.0, nu_pow=1, dmu=1),
    )


def test_describe_lists_terms():
    text = reduce_equation(PotentialSpec((0.0, 0.0, 0.5))).describe()
    assert "mu" in text and "d/dnu" in text and "d/dmu" in text


def test_cubic_potential_raises_nonlocal_error():
    with pytest.raises(NonlocalPotentialError, match="antiderivative"):
        reduce_equation(PotentialSpec((0.0, 0.0, 0.0, 1.0)))
    with pytest.raises(NonlocalPotentialError, match="degree 4"):
        reduce_equation(PotentialSpec((0.0, 0.0, 0.0, 0.0, 0.2)))


def test_generator_matrix_matches_terms():
    rot = reduce_equation(PotentialSpec((0.0, 0.0, 0.5))).generator_matrix()
    assert np.array_equal(rot, [[0, 0, 0], [0, 0, 1], [0, -1, 0]])
    c1 = 2.0
    lin = reduce_equation(PotentialSpec((0.0, c1))).generator_matrix()
    assert np.array_equal(lin, [[0, 0, -c1], [0, 0, 0], [0, -1, 0]])


def test_potential_spec_parsing_and_validation():
    parsed = PotentialSpec.from_string("0, 1.5, 0")
    assert parsed.coefficients == (0.0, 1.5, 0.0)
    assert parsed.degree == 1
    assert PotentialSpec.harmonic().degree == 2
    assert PotentialSpec.free().degree == 0
    with pytest.raises(ValueError):
        PotentialSpec.from_string("1, spam")
    with pytest.raises(ValueError):
        PotentialSpec((math.nan,))
    assert PotentialSpec.from_string("free") == PotentialSpec.free()
    assert PotentialSpec.from_string("harmonic") == PotentialSpec.harmonic()
    assert PotentialSpec.from_string("linear:-0.25") == PotentialSpec.linear(-0.25)
    with pytest.raises(ValueError, match="linear:<slope>"):
        PotentialSpec.from_string("linear:")
    with pytest.raises(ValueError, match="finite"):
        PotentialSpec.from_string("0,inf")


# ---------------------------------------------------------------------------
# exact (characteristics) evolution


def test_characteristics_free_is_a_shear_in_nu():
    # A generic smooth function pins the parameter map itself.
    f = lambda x, mu, nu, delta=0.0: np.sin(x + delta) + mu * mu + 0.3 * nu
    t = 0.7
    w = evolve_characteristics(f, DynamicsKind.FREE, t)
    x, mu, nu = 0.4, 1.1, -0.2
    assert w(x, mu, nu) == pytest.approx(f(x, mu, nu + t * mu), abs=1e-14)


def test_characteristics_linear_potential_shifts_x():
    c1 = 1.3
    f = lambda x, mu, nu, delta=0.0: np.exp(-((x - delta) ** 2)) * (1 + mu + nu)
    t = 0.9
    w = evolve_characteristics(f, PotentialSpec((0.0, c1)), t)
    x, mu, nu = -0.3, 0.8, 0.5
    expected = f(x + c1 * (nu * t + 0.5 * mu * t * t), mu, nu + t * mu)
    assert w(x, mu, nu) == pytest.approx(expected, abs=1e-14)


def test_characteristics_static_returns_initial():
    f = marginal_evaluator(GROUND)
    assert evolve_characteristics(f, DynamicsKind.STATIC, 5.0) is f
    assert evolve_characteristics(f, DynamicsKind.FREE, 0.0) is f


@pytest.mark.parametrize("state,dyn", [
    (GROUND, DynamicsKind.FREE),
    (COHERENT_A, DynamicsKind.FREE),
    (EXCITED_FIRST, DynamicsKind.HARMONIC),
    (CAT_AXIS, DynamicsKind.HARMONIC),
])
def test_characteristics_match_closed_form_evolution(state, dyn):
    t = 0.7
    w = evolve_characteristics(marginal_evaluator(state), dyn, t)
    x = np.linspace(-5.0, 5.0, 41)
    for mu, nu, delta in [(1.0, 0.0, 0.0), (0.6, -0.8, 0.3), (-0.4, 1.1, -1.0)]:
        want = marginal_eval(state, TomographyParams(mu, nu, delta), x,
                             t=t, dyn=dyn)
        got = w(x, mu, nu, delta)
        assert np.allclose(got, want, atol=1e-12)


def test_characteristics_free_matches_fft_wavefunction():
    t = 0.9
    w = evolve_characteristics(marginal_evaluator(CAT_AXIS),
                               DynamicsKind.FREE, t)
    grid, psi_t = psi_free_evolved_sampled(psi_oddcat(math.sqrt(2.0), 0.0), t)
    keep = np.abs(grid) <= 6.0
    # the (1, 0) slice is the position density of the evolved wavefunction
    got = w(grid[keep], 1.0, 0.0)
    assert np.allclose(got, np.abs(psi_t[keep]) ** 2, atol=1e-7)


def test_characteristics_harmonic_matches_fock_evolution():
    t = 1.3
    mu, nu = 0.6, -0.8
    w = evolve_characteristics(marginal_evaluator(CAT_AXIS),
                               DynamicsKind.HARMONIC, t)
    coeffs = fock_coefficients("oddcat", math.sqrt(2.0), 0.0)
    s = np.linspace(-25.0, 25.0, 6001)
    psi_t = psi_harmonic_evolved(coeffs, t)(s)
    x = np.linspace(-4.0, 4.0, 33)
    want = marginal_oracle_sampled(s, psi_t, x, mu, nu)
    assert np.allclose(w(x, mu, nu), want, atol=1e-7)


def test_uniformly_accelerated_packet_means():
    # V = c1 q: first moments obey d<q>/dt = <p>, d<p>/dt = -c1, so the
    # slice mean mu<q> + nu<p> + delta drifts with rate -c1 nu at t = 0.
    c1 = 1.5
    q0, p0 = -1.0, 2.0
    state = StateSpec(StateKind.COHERENT, q0, p0)
    mu, nu, delta = 0.3, 1.1, 0.4
    x = np.linspace(-24.0, 24.0, 4001)
    for t in (0.5, 1.2):
        w = evolve_characteristics(marginal_evaluator(state),
                                   PotentialSpec((0.0, c1)), t)
        values = w(x, mu, nu, delta)
        mean = np.trapezoid(x * values, x)
        q_t = q0 + p0 * t - 0.5 * c1 * t * t
        p_t = p0 - c1 * t
        assert mean == pytest.approx(mu * q_t + nu * p_t + delta, abs=1e-9)


def test_free_slice_variance_growth():
    x = np.linspace(-20.0, 20.0, 4001)
    for t in (0.0, 1.0, 2.0):
        w = evolve_characteristics(marginal_evaluator(GROUND),
                                   DynamicsKind.FREE, t)
        values = w(x, 1.0, 0.0)
        var = np.trapezoid(x * x * values, x)
        assert var == pytest.approx(0.5 * (1.0 + t * t), abs=1e-9)


@settings(max_examples=30, deadline=None)
@given(
    lam=st.floats(0.3, 3.0),
    sign=st.sampled_from([-1.0, 1.0]),
    phi=st.floats(0.0, 2.0 * math.pi),
    r=st.floats(0.5, 1.5),
    x=st.floats(-3.0, 3.0),
    delta=st.floats(-1.0, 1.0),
    t=st.floats(0.0, 1.5),
)
def test_evolved_tomogram_keeps_kinematic_identities(lam, sign, phi, r, x,
                                                     delta, t):
    lam *= sign
    mu, nu = r * math.cos(phi), r * math.sin(phi)
    w = evolve_characteristics(marginal_evaluator(CAT_AXIS),
                               DynamicsKind.HARMONIC, t)
    base = w(x, mu, nu, delta)
    assert w(x - delta, mu, nu, 0.0) == pytest.approx(base, rel=1e-9,
                                                      abs=1e-12)
    scaled = w(lam * x, lam * mu, lam * nu, lam * delta)
    assert scaled == pytest.approx(base / abs(lam), rel=1e-9, abs=1e-12)


def test_characteristics_rejects_nonfinite_time():
    f = marginal_evaluator(GROUND)
    with pytest.raises(ValueError):
        evolve_characteristics(f, DynamicsKind.FREE, math.inf)


# ---------------------------------------------------------------------------
# phase-space reference flow


def test_wigner_reference_free_ground():
    t = 1.1
    w = evolve_wigner_reference(GROUND, DynamicsKind.FREE, t)
    q, p = np.meshgrid(np.linspace(-3, 3, 31), np.linspace(-3, 3, 31))
    want = 2.0 * np.exp(-((q - p * t) ** 2) - p * p)
    assert np.allclose(w(q, p), want, atol=1e-12)


def test_wigner_reference_accepts_plain_callable():
    w0 = lambda q, p: np.exp(-(q ** 2) - p ** 2) * (1.0 + q)
    w = evolve_wigner_reference(w0, DynamicsKind.FREE, 0.5)
    assert w(1.0, 2.0) == pytest.approx(w0(1.0 - 0.5 * 2.0, 2.0), abs=1e-14)


def test_wigner_reference_harmonic_matches_closed_form():
    t = 0.8
    w = evolve_wigner_reference(COHERENT_A, DynamicsKind.HARMONIC, t)
    pts = [(0.0, 0.0), (1.0, -0.5), (-2.0, 0.3)]
    for q, p in pts:
        want = wigner_eval(COHERENT_A, (q, p), t=t, dyn=DynamicsKind.HARMONIC)
        assert w(q, p) == pytest.approx(want, abs=1e-12)
    full_period = evolve_wigner_reference(EXCITED_FIRST,
                                          DynamicsKind.HARMONIC,
                                          2.0 * math.pi)
    assert full_period(0.7, -0.4) == pytest.approx(
        wigner_eval(EXCITED_FIRST, (0.7, -0.4)), abs=1e-12)


def test_wigner_reference_linear_potential_shears_and_shifts():
    c1 = 0.9
    q0, p0 = 1.2, -0.7
    t = 1.4
    w = evolve_wigner_reference(COHERENT_A, PotentialSpec((0.0, c1)), t)
    q, p = np.meshgrid(np.linspace(-4, 4, 17), np.linspace(-4, 4, 17))
    q_b = q - p * t - 0.5 * c1 * t * t
    p_b = p + c1 * t
    want = 2.0 * np.exp(-((q_b - q0) ** 2) - (p_b - p0) ** 2)
    assert np.allclose(w(q, p), want, atol=1e-12)
    # peak sits at the classical trajectory of the packet center
    qc = q0 + p0 * t - 0.5 * c1 * t * t
    pc = p0 - c1 * t
    assert w(qc, pc) == pytest.approx(2.0, abs=1e-12)


def test_wigner_reference_rejects_cubic():
    with pytest.raises(NonlocalPotentialError):
        evolve_wigner_reference(GROUND, PotentialSpec((0, 0, 0, 1.0)), 0.5)


# ---------------------------------------------------------------------------
# grid solver

SHORT_GRIDS = dict(mu_grid=DEFAULT_MU_GRID, nu_grid=DEFAULT_NU_GRID,
                   x_grid=DEFAULT_EVOLUTION_X_GRID)


def masked_error(state, dyn, pot, snap, f0, t):
    ref = sample_marginal_field(state, snap.mu_grid, snap.nu_grid,
                                snap.x_grid, t=t, dyn=dyn)
    mu, nu = np.meshgrid(snap.mu_grid, snap.nu_grid, indexing="ij")
    r = np.hypot(mu, nu)
    mask = (r >= DEFAULT_VALID_RADIUS) & resolvable_mask(
        f0, reduce_equation(pot), t)
    return np.where(mask[:, :, None], snap.values - ref.values, 0.0), mask


def test_pde_time_zero_snapshot_is_identity():
    f0 = sample_marginal_field(GROUND, uniform_grid(-1.5, 1.5, 17),
                               uniform_grid(-1.5, 1.5, 17),
                               uniform_grid(-6.0, 6.0, 65))
    coeffs = reduce_equation(PotentialSpec.free())
    snap, = evolve_pde(f0, coeffs, SolverConfig(), [0.0])
    assert np.array_equal(snap.values, f0.values)


def test_pde_free_short_time_accuracy_and_invariants():
    state = GROUND
    t = 0.5
    f0 = sample_marginal_field(state, **SHORT_GRIDS)
    coeffs = reduce_equation(PotentialSpec.free())
    snap, = evolve_pde(f0, coeffs, SolverConfig(), [t])
    err, mask = masked_error(state, DynamicsKind.FREE, PotentialSpec.free(),
                             snap, f0, t)
    assert np.abs(err).max() <= 1e-3
    # X-normalization stays put where the slice still fits the box
    norms = np.trapezoid(snap.values, snap.x_grid, axis=2)
    drift = np.abs(norms - 1.0)[mask].max()
    assert drift <= 1e-4
    assert snap.values[mask].min() >= -1e-6


def test_pde_harmonic_quarter_period():
    state = EXCITED_FIRST
    t = 0.5 * math.pi
    f0 = sample_marginal_field(state, **SHORT_GRIDS)
    coeffs = reduce_equation(PotentialSpec.harmonic())
    snap, = evolve_pde(f0, coeffs, SolverConfig(), [t])
    err, mask = masked_error(state, DynamicsKind.HARMONIC,
                             PotentialSpec.harmonic(), snap, f0, t)
    assert np.abs(err).max() <= 1e-3
    norms = np.trapezoid(snap.values, snap.x_grid, axis=2)
    assert np.abs(norms - 1.0)[mask].max() <= 1e-4


def test_pde_cat_marginal_stays_nonnegative_on_fine_x():
    # interference nodes touch zero; cubic resampling may undershoot a hair
    state = CAT_AXIS
    t = 0.3
    f0 = sample_marginal_field(state, DEFAULT_MU_GRID, DEFAULT_NU_GRID,
                               uniform_grid(-8.0, 8.0, 513))
    coeffs = reduce_equation(PotentialSpec.free())
    snap, = evolve_pde(f0, coeffs, SolverConfig(), [t])
    err, mask = masked_error(state, DynamicsKind.FREE, PotentialSpec.free(),
                             snap, f0, t)
    assert np.abs(err).max() <= 1e-3
    assert snap.values[mask].min() >= -1e-6


def test_pde_snapshots_are_independent_resamples():
    f0 = sample_marginal_field(GROUND, uniform_grid(-1.5, 1.5, 33),
                               uniform_grid(-1.5, 1.5, 33),
                               uniform_grid(-6.0, 6.0, 129))
    cfg = SolverConfig()
    # each snapshot resamples the initial field, so an earlier snapshot
    # changes nothing in a later one, warnings included (under linear:0.5
    # the two snapshots report different outflows)
    for potential in (PotentialSpec.harmonic(), PotentialSpec.free(),
                      PotentialSpec.linear(0.5)):
        coeffs = reduce_equation(potential)
        pair = evolve_pde(f0, coeffs, cfg, [0.3, 0.6])
        assert [snap.meta["time"] for snap in pair] == [0.3, 0.6]
        one, = evolve_pde(f0, coeffs, cfg, [0.6])
        assert np.array_equal(pair[1].values, one.values)
        assert pair[1].warnings == one.warnings


# Long runs in which re-reading an evolved, edge-clamped field instead of
# the initial one leaves more than 1e-3 inside the resolvable region.
LONG_RUNS = {
    "oddcat-linear:0.5": (CAT_AXIS, PotentialSpec.linear(0.5),
                          [0.3, 1.0, math.pi]),
    "ground-free": (GROUND, PotentialSpec.free(), [5.0]),
}


@pytest.mark.parametrize("case", list(LONG_RUNS))
def test_pde_long_runs_stay_accurate_on_resolvable_cells(case):
    state, potential, times = LONG_RUNS[case]
    f0 = sample_marginal_field(state, **SHORT_GRIDS)
    coeffs = reduce_equation(potential)
    mu, nu = np.meshgrid(f0.mu_grid, f0.nu_grid, indexing="ij")
    radius_ok = np.hypot(mu, nu) >= DEFAULT_VALID_RADIUS
    snaps = evolve_pde(f0, coeffs, SolverConfig(), times)
    for t, snap in zip(times, snaps):
        mask = radius_ok & resolvable_mask(f0, coeffs, t)
        exact = evolve_characteristics(marginal_evaluator(state), potential, t)
        want = exact(f0.x_grid, mu[mask][:, None], nu[mask][:, None])
        assert np.abs(snap.values[mask] - want).max() <= 1e-3, t


def test_pde_warns_on_boundary_outflow():
    f0 = sample_marginal_field(GROUND, uniform_grid(-1.5, 1.5, 33),
                               uniform_grid(-1.5, 1.5, 33),
                               uniform_grid(-6.0, 6.0, 129))
    coeffs = reduce_equation(PotentialSpec.linear(1.0))
    # the linear potential's X shift carries lookups past the X box ends
    snap, = evolve_pde(f0, coeffs, SolverConfig(dt=0.25), [2.0])
    assert any("outflow" in w for w in snap.warnings)


def test_pde_rejects_bad_snapshot_lists():
    f0 = sample_marginal_field(GROUND, uniform_grid(-1.5, 1.5, 17),
                               uniform_grid(-1.5, 1.5, 17),
                               uniform_grid(-6.0, 6.0, 65))
    coeffs = reduce_equation(PotentialSpec.free())
    with pytest.raises(ValueError, match="nondecreasing"):
        evolve_pde(f0, coeffs, SolverConfig(), [0.5, 0.2])
    with pytest.raises(ValueError, match=">= 0"):
        evolve_pde(f0, coeffs, SolverConfig(), [-0.1, 0.2])
    for bad in ([math.nan], [0.2, math.inf], [-math.inf, 0.2]):
        with pytest.raises(ValueError, match="must be finite"):
            evolve_pde(f0, coeffs, SolverConfig(), bad)


def test_solver_config_validation():
    assert [f.name for f in dataclasses.fields(SolverConfig)] == [
        "scheme", "dt"]
    for dt in (0.0, -0.1, math.nan, math.inf):
        with pytest.raises(ValueError, match="dt must be positive"):
            SolverConfig(dt=dt)


def test_upwind_cfl_guard_raises():
    f0 = sample_marginal_field(GROUND, uniform_grid(-1.5, 1.5, 33),
                               uniform_grid(-1.5, 1.5, 33),
                               uniform_grid(-6.0, 6.0, 129))
    coeffs = reduce_equation(PotentialSpec.free())
    with pytest.raises(ValueError, match="CFL"):
        evolve_pde(f0, coeffs, SolverConfig(scheme=Scheme.UPWIND, dt=0.2),
                   [0.4])


def test_upwind_short_time_smoke():
    state = GROUND
    t = 0.2
    f0 = sample_marginal_field(state, uniform_grid(-1.5, 1.5, 33),
                               uniform_grid(-1.5, 1.5, 33),
                               uniform_grid(-6.0, 6.0, 129))
    coeffs = reduce_equation(PotentialSpec.free())
    snap, = evolve_pde(f0, coeffs, SolverConfig(scheme=Scheme.UPWIND,
                                                dt=0.025), [t])
    err, _ = masked_error(state, DynamicsKind.FREE, PotentialSpec.free(),
                          snap, f0, t)
    assert np.abs(err).max() <= 5e-2


def reference_upwind_rhs(values, field, gen):
    """The donor-cell right-hand side with edge padding and a full-size
    select of the upstream difference, cell by cell."""
    grids = (field.mu_grid, field.nu_grid, field.x_grid)
    mu = field.mu_grid[:, None, None]
    nu = field.nu_grid[None, :, None]
    velocities = (gen[1, 1] * mu + gen[1, 2] * nu,
                  gen[2, 1] * mu + gen[2, 2] * nu,
                  gen[0, 1] * mu + gen[0, 2] * nu)
    rhs = np.zeros_like(values)
    for axis, (grid, vel) in enumerate(zip(grids, velocities)):
        pad = [(0, 0)] * 3
        pad[axis] = (1, 1)
        ext = np.pad(values, pad, mode="edge")
        lo, hi = [slice(None)] * 3, [slice(None)] * 3
        lo[axis], hi[axis] = slice(0, -2), slice(2, None)
        backward = (values - ext[tuple(lo)]) / grid_step(grid)
        forward = (ext[tuple(hi)] - values) / grid_step(grid)
        rhs -= vel * np.where(vel > 0.0, backward, forward)
    return rhs


@pytest.mark.parametrize("potential", ["free", "harmonic", "linear:0.5",
                                       "0.1,-0.2,0.8"])
def test_upwind_rhs_matches_padded_reference(potential):
    # same differences and products, so the values must agree exactly
    f0 = sample_marginal_field(StateSpec(StateKind.ODD_CAT, q0=1.1, p0=0.9),
                               uniform_grid(-1.5, 1.5, 33),
                               uniform_grid(-1.5, 1.5, 31),
                               uniform_grid(-6.0, 8.0, 129))
    gen = reduce_equation(PotentialSpec.from_string(potential)).generator_matrix()
    assert np.array_equal(evolution._upwind_rhs(f0.values, f0, gen),
                          reference_upwind_rhs(f0.values, f0, gen))


def test_resolvable_mask_flags_cells_swept_below_radius():
    f0 = sample_marginal_field(GROUND, **SHORT_GRIDS)
    free = reduce_equation(PotentialSpec.free())
    rot = reduce_equation(PotentialSpec.harmonic())
    t = math.pi
    mask_free = resolvable_mask(f0, free, t)
    mask_rot = resolvable_mask(f0, rot, t)
    mu, nu = np.meshgrid(f0.mu_grid, f0.nu_grid, indexing="ij")
    r = np.hypot(mu, nu)
    # rotation preserves radius, so only the initial radius matters
    assert np.array_equal(mask_rot, r >= DEFAULT_VALID_RADIUS)
    # the free backtrace sweeps (mu, nu + s mu) through small radii
    assert mask_free.sum() < mask_rot.sum()
    i = int(np.argmin(np.abs(f0.mu_grid - 0.4)))
    j = int(np.argmin(np.abs(f0.nu_grid + 0.45)))
    assert mask_rot[i, j] and not mask_free[i, j]
    assert not mask_free[len(f0.mu_grid) // 2, len(f0.nu_grid) // 2]


def test_one_plan_per_positive_snapshot(monkeypatch):
    f0 = sample_marginal_field(GROUND, uniform_grid(-1.5, 1.5, 33),
                               uniform_grid(-1.5, 1.5, 33),
                               uniform_grid(-6.0, 6.0, 65))
    coeffs = reduce_equation(PotentialSpec.free())
    calls = []
    resample = evolution._resample

    def counted(*args, **kwargs):
        calls.append(args[3])
        return resample(*args, **kwargs)

    monkeypatch.setattr(evolution, "_resample", counted)
    for j in np.linspace(0.98, 1.02, 21):
        calls.clear()
        evolve_pde(f0, coeffs, SolverConfig(), [0.0, j, 2.0 * j])
        assert calls == [j, 2.0 * j], j


# ---------------------------------------------------------------------------
# separable resample against the tricubic 3-D gather


def reference_resample(field, gen, dt):
    """One resample as a 64-tap tricubic map_coordinates gather; returns
    the values, the lookups' index coordinates (3, ...) and their X reach
    inv |x_d| / x_edge where inv > 1 (0 elsewhere): the X-box cap moves the
    lookups whose reach exceeds 1."""
    back = expm(-gen * dt)
    x = field.x_grid[None, None, :]
    mu = field.mu_grid[:, None, None]
    nu = field.nu_grid[None, :, None]
    x_d = back[0, 0] * x + back[0, 1] * mu + back[0, 2] * nu
    mu_d = back[1, 1] * mu + back[1, 2] * nu + 0.0 * x
    nu_d = back[2, 1] * mu + back[2, 2] * nu + 0.0 * x
    r_d = np.hypot(mu_d, nu_d)
    r_ref = np.clip(r_d, *evolution._R_REF_RANGE)
    inv = np.where(r_d > 0.0, r_ref / np.where(r_d > 0.0, r_d, 1.0), 0.0)
    x_edge = min(-field.x_grid[0], field.x_grid[-1])
    with np.errstate(divide="ignore"):
        x_cap = np.where(np.abs(x_d) > 0.0, x_edge / np.abs(x_d), np.inf)
    reach = np.where(inv > 1.0, inv * np.abs(x_d) / x_edge, 0.0)
    inv = np.minimum(inv, np.maximum(1.0, x_cap))
    coords = np.stack([(v * inv - g[0]) / grid_step(g) for v, g in (
        (mu_d, field.mu_grid), (nu_d, field.nu_grid), (x_d, field.x_grid))])
    coeffs = spline_filter(field.values, order=3, mode="nearest")
    values = inv * map_coordinates(coeffs, coords, order=3, prefilter=False,
                                   mode="nearest")
    return values, coords, reach


RESAMPLE_CASES = {
    "free": (PotentialSpec.free(), 0.53, DEFAULT_EVOLUTION_X_GRID),
    "harmonic": (PotentialSpec.harmonic(), math.pi, DEFAULT_EVOLUTION_X_GRID),
    "linear:0.5": (PotentialSpec.linear(0.5), 0.53, DEFAULT_EVOLUTION_X_GRID),
    # +-x_edge = +-6 is not a grid end on the high side
    "asymmetric-x": (PotentialSpec.free(), 0.53, uniform_grid(-6.0, 8.0, 225)),
    # the X shift carries lookups past both ends of a narrow box
    "x-outflow": (PotentialSpec.linear(3.0), 1.0, uniform_grid(-5.0, 5.0, 161)),
}


@pytest.mark.parametrize("case", list(RESAMPLE_CASES))
def test_separable_resample_matches_tricubic_gather(case):
    potential, dt, x_grid = RESAMPLE_CASES[case]
    field = sample_marginal_field(CAT_AXIS, DEFAULT_MU_GRID,
                                  DEFAULT_NU_GRID, x_grid)
    gen = reduce_equation(potential).generator_matrix()
    want, coords, _ = reference_resample(field, gen, dt)
    got, out_frac = evolution._resample(
        spline_filter(field.values, order=3, mode="nearest"), field, gen, dt)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    last = np.array(field.values.shape)[:, None] - 1.0
    flat = coords.reshape(3, -1)
    outside = ((flat < 0.0) | (flat > last)).any(axis=0)
    # lookups within rounding of the box edge may count either way
    at_edge = ((np.abs(flat) < 1e-9) | (np.abs(flat - last) < 1e-9)).any(axis=0)
    assert out_frac == pytest.approx(outside.mean(), abs=at_edge.mean())
    if case == "x-outflow":
        assert (flat[2] < 0.0).any() and (flat[2] > last[2]).any()


@pytest.mark.parametrize("case", ["x-outflow", "asymmetric-x"])
def test_wrapped_kernel_names_see_every_capped_lookup(case, monkeypatch):
    # The benchmark's tracer times the resample by wrapping the module-level
    # names evolution.spline_filter and evolution.map_coordinates; the
    # prefilter runs once per call and the gathers read the capped lookups.
    # The wrappers call the module's own kernels, so the values stay
    # bit-identical.
    potential, t, x_grid = RESAMPLE_CASES[case]
    field = sample_marginal_field(CAT_AXIS, DEFAULT_MU_GRID,
                                  DEFAULT_NU_GRID, x_grid)
    coeffs = reduce_equation(potential)
    times = [0.5 * t, t]
    plain = evolve_pde(field, coeffs, SolverConfig(), times)
    prefilters, points = [], []
    own_filter, own_gather = evolution.spline_filter, evolution.map_coordinates

    def wrapped_filter(*args, **kwargs):
        prefilters.append(args[0].shape)
        return own_filter(*args, **kwargs)

    def wrapped_gather(*args, **kwargs):
        points.append(np.asarray(args[1])[0].size)
        return own_gather(*args, **kwargs)

    monkeypatch.setattr(evolution, "spline_filter", wrapped_filter)
    monkeypatch.setattr(evolution, "map_coordinates", wrapped_gather)
    traced = evolve_pde(field, coeffs, SolverConfig(), times)
    assert prefilters == [field.values.shape]
    reach = np.stack([reference_resample(field, coeffs.generator_matrix(), s)[2]
                      for s in times])
    # a reach within rounding of 1 is a tie that either side may take
    tied = np.count_nonzero(np.abs(reach - 1.0) <= 1e-12)
    capped = np.count_nonzero(reach > 1.0)
    assert capped > 0 and abs(sum(points) - capped) <= tied
    for a, b in zip(plain, traced):
        assert np.array_equal(a.values, b.values)
        assert a.warnings == b.warnings


# ---------------------------------------------------------------------------
# the numpy kernels against the scipy routines they replaced


@settings(max_examples=60, deadline=None)
@given(coefficients=st.lists(st.floats(-1.0, 1.0), min_size=1, max_size=3),
       t=st.floats(-10.0, 10.0))
def test_expm_matches_scipy(coefficients, t):
    # Worst measured over 20,000 random draws: 1.5e-12, where c2 < 0 makes
    # the entries grow like e^(sqrt(-2 c2) |t|).  Most of it is scipy's:
    # against a 40-digit mpmath expm on 300 draws scipy is off by 9.2e-13
    # and evolution.expm by 9.3e-15.
    gen = reduce_equation(PotentialSpec(tuple(coefficients))).generator_matrix()
    want = expm(-gen * t)
    got = evolution.expm(-gen * t)
    assert np.abs(got - want).max() <= 5e-12 * np.abs(want).max()


AXIS_SIZE = st.integers(2, 12)
SEED = st.integers(0, 2 ** 32 - 1)


@settings(max_examples=40, deadline=None)
@given(shape=st.tuples(AXIS_SIZE, AXIS_SIZE, AXIS_SIZE), seed=SEED,
       long_axes=st.booleans())
def test_prefilter_interpolates_and_matches_spline_filter(shape, seed,
                                                          long_axes):
    # scipy's spline_filter(mode="nearest") truncates the start of its
    # recursion on short axes and then misses its own samples (by 2e-4 at
    # n = 2, 1e-10 at n = 8); from n = 13 on it agrees to rounding.  So
    # every shape checks that the coefficients interpolate the samples
    # (worst measured over 1,500 draws: 1.5e-15 of the largest sample),
    # and shapes with all axes of 16 or more also compare with scipy
    # (worst 9.6e-16 of the largest coefficient).
    if long_axes:
        shape = tuple(n + 14 for n in shape)
    values = np.random.default_rng(seed).standard_normal(shape)
    coeffs = evolution.spline_filter(values)
    nodes = np.stack([g.ravel() for g in np.indices(shape, dtype=float)])
    back = map_coordinates(coeffs, nodes, order=3, prefilter=False,
                           mode="nearest").reshape(shape)
    scale = np.abs(values).max()
    assert np.abs(back - values).max() <= 4e-15 * scale
    if long_axes:
        want = spline_filter(values, order=3, mode="nearest")
        assert np.abs(coeffs - want).max() <= 4e-15 * np.abs(want).max()


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(AXIS_SIZE, min_size=2, max_size=3), seed=SEED)
def test_map_coordinates_matches_scipy(shape, seed):
    # Index coordinates up to 3 cells outside the box on either side, a
    # quarter of them on integer nodes; worst measured over 5,000 draws:
    # 1.2e-15 of the largest coefficient.
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(shape)
    coords = np.stack([rng.uniform(-3.0, n + 2.0, 64) for n in shape])
    coords[:, :16] = np.round(coords[:, :16])
    want = map_coordinates(coeffs, coords, order=3, prefilter=False,
                           mode="nearest")
    got = evolution.map_coordinates(coeffs, coords)
    assert np.abs(got - want).max() <= 4e-15 * np.abs(coeffs).max()


# ---------------------------------------------------------------------------
# scripts


def test_evolve_demo_prints_one_row_per_time():
    root = pathlib.Path(__file__).resolve().parent.parent
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / "evolve_demo.py"),
         "--n-dir", "17", "--n-x", "65", "--times", "0.3", "0.6"],
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()[2:]
            if not line.lstrip().startswith("warning:")]
    assert [row[0] for row in rows] == ["0.30", "0.60"]
    assert all(float(row[1]) <= 1e-2 for row in rows)
