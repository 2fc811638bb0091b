import dataclasses
import functools
import itertools
import math
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from tomoflow import evolution, fields
from tomoflow.evolution import (
    DEFAULT_EVOLUTION_X_GRID,
    DEFAULT_MU_GRID,
    DEFAULT_NU_GRID,
    DEFAULT_VALID_RADIUS,
    NonlocalPotentialError,
    PotentialSpec,
    SolverConfig,
    TransportTerm,
    evolve_characteristics,
    evolve_pde,
    evolve_wigner_reference,
    reduce_equation,
)
from tomoflow.fields import (
    TomographyParams,
    cubic_taps,
    grid_step,
    uniform_grid,
    warnings_of,
)
from tomoflow.states import (
    CATALOG,
    EXCITED_FIRST,
    GROUND,
    StateKind,
    StateSpec,
    marginal_evaluator,
    sample_marginal_field,
    wigner_evaluator,
)
from tomoflow.tomography import (
    RadonMarginalEvaluator,
    marginal_field_from_wigner,
    radon_marginal,
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
    w = evolve_characteristics(f, PotentialSpec.free(), t)
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
    # t = 0 is no motion under any potential; both flows return their input.
    f = marginal_evaluator(GROUND)
    w0 = wigner_evaluator(GROUND)
    for potential in (PotentialSpec.free(), PotentialSpec.harmonic(),
                      PotentialSpec.linear(0.5)):
        assert evolve_characteristics(f, potential, 0.0) is f
        assert evolve_wigner_reference(w0, potential, 0.0) is w0


@pytest.mark.parametrize("state,dyn", [
    (GROUND, "free"),
    (COHERENT_A, "free"),
    (EXCITED_FIRST, "harmonic"),
    (CAT_AXIS, "harmonic"),
])
def test_characteristics_match_closed_form_evolution(state, dyn):
    t = 0.7
    potential = PotentialSpec.from_string(dyn)
    w = evolve_characteristics(marginal_evaluator(state), potential, t)
    exact = marginal_evaluator(state, t, potential)
    x = np.linspace(-5.0, 5.0, 41)
    for mu, nu, delta in [(1.0, 0.0, 0.0), (0.6, -0.8, 0.3), (-0.4, 1.1, -1.0)]:
        want = exact(x, mu, nu, delta)
        got = w(x, mu, nu, delta)
        assert np.allclose(got, want, atol=1e-12)


def test_characteristics_free_matches_fft_wavefunction():
    t = 0.9
    w = evolve_characteristics(marginal_evaluator(CAT_AXIS),
                               PotentialSpec.free(), t)
    grid, psi_t = psi_free_evolved_sampled(psi_oddcat(math.sqrt(2.0), 0.0), t)
    keep = np.abs(grid) <= 6.0
    # the (1, 0) slice is the position density of the evolved wavefunction
    got = w(grid[keep], 1.0, 0.0)
    assert np.allclose(got, np.abs(psi_t[keep]) ** 2, atol=1e-7)


def test_characteristics_harmonic_matches_fock_evolution():
    t = 1.3
    mu, nu = 0.6, -0.8
    w = evolve_characteristics(marginal_evaluator(CAT_AXIS),
                               PotentialSpec.harmonic(), t)
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
                                   PotentialSpec.free(), t)
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
                               PotentialSpec.harmonic(), t)
    base = w(x, mu, nu, delta)
    assert w(x - delta, mu, nu, 0.0) == pytest.approx(base, rel=1e-9,
                                                      abs=1e-12)
    scaled = w(lam * x, lam * mu, lam * nu, lam * delta)
    assert scaled == pytest.approx(base / abs(lam), rel=1e-9, abs=1e-12)


def test_characteristics_rejects_nonfinite_time():
    f = marginal_evaluator(GROUND)
    with pytest.raises(ValueError):
        evolve_characteristics(f, PotentialSpec.free(), math.inf)


# ---------------------------------------------------------------------------
# phase-space reference flow


def test_wigner_reference_free_ground():
    t = 1.1
    w = evolve_wigner_reference(wigner_evaluator(GROUND),
                                PotentialSpec.free(), t)
    q, p = np.meshgrid(np.linspace(-3, 3, 31), np.linspace(-3, 3, 31))
    want = 2.0 * np.exp(-((q - p * t) ** 2) - p * p)
    assert np.allclose(w(q, p), want, atol=1e-12)


def test_wigner_reference_accepts_plain_callable():
    w0 = lambda q, p: np.exp(-(q ** 2) - p ** 2) * (1.0 + q)
    w = evolve_wigner_reference(w0, PotentialSpec.free(), 0.5)
    assert w(1.0, 2.0) == pytest.approx(w0(1.0 - 0.5 * 2.0, 2.0), abs=1e-14)


def test_wigner_reference_harmonic_matches_closed_form():
    t = 0.8
    w = evolve_wigner_reference(wigner_evaluator(COHERENT_A),
                                PotentialSpec.harmonic(), t)
    exact = wigner_evaluator(COHERENT_A, t, PotentialSpec.harmonic())
    pts = [(0.0, 0.0), (1.0, -0.5), (-2.0, 0.3)]
    for q, p in pts:
        want = exact(q, p)
        assert w(q, p) == pytest.approx(want, abs=1e-12)
    full_period = evolve_wigner_reference(wigner_evaluator(EXCITED_FIRST),
                                          PotentialSpec.harmonic(),
                                          2.0 * math.pi)
    assert full_period(0.7, -0.4) == pytest.approx(
        wigner_evaluator(EXCITED_FIRST)(0.7, -0.4), abs=1e-12)


def test_wigner_reference_linear_potential_shears_and_shifts():
    c1 = 0.9
    q0, p0 = 1.2, -0.7
    t = 1.4
    w = evolve_wigner_reference(wigner_evaluator(COHERENT_A),
                                PotentialSpec((0.0, c1)), t)
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
    # at t = 0 too, as the closed forms refuse what they do not cover
    cubic = PotentialSpec((0, 0, 0, 1.0))
    for t in (0.0, 0.5):
        with pytest.raises(NonlocalPotentialError):
            evolve_wigner_reference(wigner_evaluator(GROUND), cubic, t)
        with pytest.raises(NonlocalPotentialError):
            evolve_characteristics(marginal_evaluator(GROUND), cubic, t)


# ---------------------------------------------------------------------------
# grid solver

SHORT_GRIDS = dict(mu_grid=DEFAULT_MU_GRID, nu_grid=DEFAULT_NU_GRID,
                   x_grid=DEFAULT_EVOLUTION_X_GRID)


def masked_error(state, potential, snap, t):
    ref = sample_marginal_field(state, snap.mu_grid, snap.nu_grid,
                                snap.x_grid, t, potential)
    mask = snap.radius() >= DEFAULT_VALID_RADIUS
    return np.where(mask[:, :, None], snap.values - ref.values, 0.0), mask


def test_pde_time_zero_snapshot_is_identity():
    f0 = sample_marginal_field(GROUND, uniform_grid(-1.5, 1.5, 17),
                               uniform_grid(-1.5, 1.5, 17),
                               uniform_grid(-6.0, 6.0, 65))
    coeffs = reduce_equation(PotentialSpec.free())
    snap, = evolve_pde(f0, coeffs, SolverConfig(), [0.0])
    assert np.array_equal(snap.values, f0.values)
    assert snap.meta["outflow"] == snap.meta["mass_drift"] == 0.0


def test_pde_snapshot_meta_is_its_own():
    # a snapshot's meta holds what evolve_pde measured, none of the keys the
    # initial field's own transform recorded (the Radon line_edge here);
    # the initial field's warnings still carry over
    d = uniform_grid(-1.5, 1.5, 9)
    f0 = marginal_field_from_wigner(wigner_evaluator(GROUND), d, d,
                                    uniform_grid(-6.0, 6.0, 33))
    assert "line_edge" in f0.meta
    f0 = dataclasses.replace(f0, warnings=("from the initial field",))
    coeffs = reduce_equation(PotentialSpec.harmonic())
    for t, snap in zip([0.0, 0.7], evolve_pde(f0, coeffs, SolverConfig(),
                                              [0.0, 0.7])):
        assert set(snap.meta) == {"time", "potential", "outflow", "mass_drift"}
        assert snap.meta["time"] == t
        assert snap.meta["potential"] == (0.0, 0.0, 0.5)
        assert "from the initial field" in snap.warnings


def test_pde_free_short_time_accuracy_and_invariants():
    state = GROUND
    t = 0.5
    f0 = sample_marginal_field(state, **SHORT_GRIDS)
    coeffs = reduce_equation(PotentialSpec.free())
    snap, = evolve_pde(f0, coeffs, SolverConfig(), [t])
    err, mask = masked_error(state, PotentialSpec.free(), snap, t)
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
    err, mask = masked_error(state, PotentialSpec.harmonic(), snap, t)
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
    err, mask = masked_error(state, PotentialSpec.free(), snap, t)
    assert np.abs(err).max() <= 1e-3
    assert snap.values[mask].min() >= -1e-6


def test_pde_snapshots_are_independent_resamples():
    # each snapshot resamples the initial field, so no snapshot changes
    # another, warnings included, whatever the order and sign of the times.
    # The odd cat's slices are cut at the ends of X +-5: each of its
    # snapshots warns of 14.6-15.0% outflow.
    d = uniform_grid(-1.5, 1.5, 33)
    cases = [(GROUND, uniform_grid(-6.0, 6.0, 129), [0.3, 0.6]),
             (StateSpec(StateKind.ODD_CAT, q0=3.5, p0=0.0),
              uniform_grid(-5.0, 5.0, 129), [0.6, 0.3, -0.6])]
    cfg = SolverConfig()
    for state, x, times in cases:
        f0 = sample_marginal_field(state, d, d, x)
        for potential in (PotentialSpec.harmonic(), PotentialSpec.free(),
                          PotentialSpec.linear(0.5)):
            coeffs = reduce_equation(potential)
            snaps = evolve_pde(f0, coeffs, cfg, times)
            assert [snap.meta["time"] for snap in snaps] == times
            for t, snap in zip(times, snaps):
                one, = evolve_pde(f0, coeffs, cfg, [t])
                assert np.array_equal(snap.values, one.values)
                assert snap.warnings == one.warnings
                assert (state is GROUND
                        or snap.warnings[0].startswith("boundary outflow"))


SQUARE_MU = uniform_grid(-1.5, 1.5, 33)
SQUARE_X = uniform_grid(-8.0, 8.0, 129)


def backtrace_keeps_radius(coeffs, mu, nu, t, r_min=DEFAULT_VALID_RADIUS):
    """Cells whose backtraced direction keeps |(mu, nu)| >= r_min at 257
    times in [0, t]: the domain the property below was measured on."""
    gen = coeffs.generator_matrix()
    ok = np.ones(mu.shape, dtype=bool)
    for s in np.linspace(0.0, t, 257):
        back = evolution.expm(-gen * s)
        ok &= np.hypot(back[1, 1] * mu + back[1, 2] * nu,
                       back[2, 1] * mu + back[2, 2] * nu) >= r_min
    return ok


@settings(max_examples=40, deadline=None)
@given(c1=st.floats(-2.0, 2.0), c2=st.floats(-1.0, 1.0),
       kind=st.sampled_from([StateKind.COHERENT, StateKind.ODD_CAT]),
       radius=st.floats(0.25, 3.5), angle=st.floats(0.0, 2.0 * math.pi),
       t=st.floats(0.1, 6.3))
@example(c1=-2.0, c2=-1.0, kind=StateKind.COHERENT, radius=3.5,
         angle=math.pi / 2, t=6.3)
def test_pde_commutes_with_characteristics(c1, c2, kind, radius, angle, t):
    # The commuting square over random potentials (inverted oscillators
    # included), displaced states and times: evolve_pde against the exact
    # backward characteristics of the closed form, on the cells whose
    # backtraced radius stays >= 0.5.  Worst measured, in units of the
    # snapshot's max|w|: 3.1e-4 over 2,600 random draws, and 4.4e-4 over
    # 2,800 draws at the corners of the ranges (odd cat at |(q0, p0)| = 3.5,
    # |c1| = 2, |c2| = 1, t = 0.1); the bound leaves a margin of 2.3 over
    # that.  The path condition is this property's own: at the corner
    # coherent state (0, 3.5), V = -2q - q^2, t = 6.3, the snapshot has
    # left the box (max|w| 2.2e-5), and the cells on the inverted
    # oscillator's stable manifold, which it leaves out, read 2.05e-3 of
    # that max.  A draw whose mass has left the box compares leftovers, so
    # every snapshot must also carry the warnings its meta calls for: that
    # corner (the explicit example) warns of 100% mass drift.
    state = StateSpec(kind, q0=radius * math.cos(angle),
                      p0=radius * math.sin(angle))
    potential = PotentialSpec((0.0, c1, c2))
    f0 = sample_marginal_field(state, SQUARE_MU, SQUARE_MU, SQUARE_X)
    coeffs = reduce_equation(potential)
    snap, = evolve_pde(f0, coeffs, SolverConfig(), [t])
    mu, nu = np.meshgrid(SQUARE_MU, SQUARE_MU, indexing="ij")
    mask = ((np.hypot(mu, nu) >= DEFAULT_VALID_RADIUS)
            & backtrace_keeps_radius(coeffs, mu, nu, t))
    want = evolve_characteristics(marginal_evaluator(state), potential, t)(
        SQUARE_X, mu[mask][:, None], nu[mask][:, None])
    err = np.abs(snap.values[mask] - want).max(initial=0.0)
    assert err <= 1e-3 * np.abs(snap.values).max()
    assert snap.warnings == warnings_of(snap.meta)


@functools.cache
def coarse_radon_source(name):
    """A catalog state's Radon table on a coarse grid, 90 angles x 401 y,
    so that the property below stays fast."""
    return RadonMarginalEvaluator(wigner_evaluator(CATALOG[name]), n_phi=90,
                                  y_grid=uniform_grid(-12.0, 12.0, 401))


@settings(max_examples=40, deadline=None)
@given(name=st.sampled_from(sorted(CATALOG)), c1=st.floats(-0.5, 0.5),
       dyn=st.sampled_from(["free", "harmonic", "linear"]),
       t=st.floats(0.0, 1.5), radius=st.floats(0.5, 1.5),
       angle=st.floats(0.0, 2.0 * math.pi), delta=st.floats(-1.0, 1.0))
def test_projection_commutes_with_evolution(name, c1, dyn, t, radius, angle,
                                            delta):
    # The full commuting square at a random direction: the Radon projection
    # of the classically evolved Wigner function against the backward
    # characteristics of the initial Radon table; the two routes share no
    # code past the line integrals.  Worst measured, in units of max|w|:
    # 6.8e-6 over 2,000 random draws, and 1.5e-5 over 3,456 points at
    # t = 1.5 (c1 = +-0.5, free and harmonic, radius 0.5-1.5, delta -1-1,
    # every catalog state); the bound leaves a margin of 3.
    # Past t = 1.5 the shear carries the evolved Wigner function past
    # radon_marginal's fixed +-8 line window (ROADMAP item 2): 2.6e-4 at
    # t = 2, c1 = 0.25, and 1.9e-2 at t = 2, c1 = -1.
    potential = (PotentialSpec.linear(c1) if dyn == "linear"
                 else PotentialSpec.from_string(dyn))
    params = TomographyParams(radius * math.cos(angle), radius * math.sin(angle),
                              delta)
    x = np.linspace(-6.0, 6.0, 61)
    evolved = evolve_wigner_reference(wigner_evaluator(CATALOG[name]),
                                      potential, t)
    want = radon_marginal(evolved, params, x).values
    got = evolve_characteristics(coarse_radon_source(name), potential, t)(
        x, params.mu, params.nu, params.delta)
    assert np.abs(got - want).max() <= 5e-5 * np.abs(want).max()


# Long runs in which re-reading an evolved, edge-clamped field instead of
# the initial one leaves more than 1e-3 on the cells of radius >= 0.5.  The
# backward times read 4.0e-6 and 6.6e-6, as the forward ones do.
LONG_RUNS = {
    "oddcat-linear:0.5": (CAT_AXIS, PotentialSpec.linear(0.5),
                          [0.3, 1.0, math.pi, -1.0, -math.pi]),
    "ground-free": (GROUND, PotentialSpec.free(), [5.0]),
}


@pytest.mark.parametrize("case", list(LONG_RUNS))
def test_pde_long_runs_stay_accurate_on_resolvable_cells(case):
    state, potential, times = LONG_RUNS[case]
    f0 = sample_marginal_field(state, **SHORT_GRIDS)
    coeffs = reduce_equation(potential)
    mu, nu = np.meshgrid(f0.mu_grid, f0.nu_grid, indexing="ij")
    mask = f0.radius() >= DEFAULT_VALID_RADIUS
    snaps = evolve_pde(f0, coeffs, SolverConfig(), times)
    for t, snap in zip(times, snaps):
        exact = evolve_characteristics(marginal_evaluator(state), potential, t)
        want = exact(f0.x_grid, mu[mask][:, None], nu[mask][:, None])
        assert np.abs(snap.values[mask] - want).max() <= 1e-3, t


def test_pde_warns_on_boundary_outflow():
    f0 = sample_marginal_field(GROUND, uniform_grid(-1.5, 1.5, 33),
                               uniform_grid(-1.5, 1.5, 33),
                               uniform_grid(-6.0, 6.0, 129))
    coeffs = reduce_equation(PotentialSpec.linear(1.0))
    # the linear potential's X shift carries slices past the X box ends, so
    # the box loses mass; the lookups past the ends read rows that have
    # decayed there, so none of them counts as outflow
    snap, = evolve_pde(f0, coeffs, SolverConfig(), [2.0])
    assert [w.split()[0] for w in snap.warnings] == ["mass"]
    assert snap.meta["outflow"] == 0.0
    # meta records the drift the warning quotes
    mass = np.abs(f0.values).sum()
    drift = snap.meta["mass_drift"]
    assert drift == pytest.approx(abs(np.abs(snap.values).sum() - mass) / mass,
                                  rel=1e-12)
    assert snap.warnings[0].startswith(f"mass drift {drift:.2%} since t=0")


def test_pde_warns_where_the_circle_cannot_supply_a_lookup():
    # On X +-5 the circle's slices of this cat are cut at the X ends: the
    # free shear carries 14.6% of the lookups past an end where the row has
    # not decayed, they read 0, and the error on the cells of radius >= 0.5
    # is 0.48.  The snapshot's meta["outflow"], which the warning quotes,
    # counts exactly the lookups the 64-tap oracle counts.
    f0 = sample_marginal_field(StateSpec(StateKind.ODD_CAT, q0=3.5, p0=0.0),
                               SQUARE_MU, SQUARE_MU, uniform_grid(-5.0, 5.0, 129))
    coeffs = reduce_equation(PotentialSpec.free())
    snap, = evolve_pde(f0, coeffs, SolverConfig(), [1.0])
    assert [w.split()[0] for w in snap.warnings] == ["boundary", "mass"]
    out_frac = snap.meta["outflow"]
    assert out_frac == reference_resample(f0, coeffs.generator_matrix(),
                                          1.0)[2].mean()
    assert snap.warnings[0].startswith(f"boundary outflow: {out_frac:.2%}")


def test_pde_outflow_counts_only_what_the_circle_cannot_supply():
    # The coherent state's slices leave the X box, but every lookup past an
    # X end reads a row that has decayed there: the solver is accurate on
    # the cells of radius >= 0.5 (1.3e-5), and only the whole-box mass drift
    # (18%) warns.
    state, potential, t = CATALOG["coherent"], PotentialSpec.linear(0.5), 4.0
    f0 = sample_marginal_field(state, **SHORT_GRIDS)
    coeffs = reduce_equation(potential)
    snap, = evolve_pde(f0, coeffs, SolverConfig(), [t])
    assert [w.split()[0] for w in snap.warnings] == ["mass"]
    mu, nu = np.meshgrid(f0.mu_grid, f0.nu_grid, indexing="ij")
    mask = f0.radius() >= DEFAULT_VALID_RADIUS
    want = evolve_characteristics(marginal_evaluator(state), potential, t)(
        f0.x_grid, mu[mask][:, None], nu[mask][:, None])
    assert np.abs(snap.values[mask] - want).max() <= 1e-3


@pytest.mark.parametrize("dyn", ["free", "harmonic"])
def test_pde_is_accurate_on_a_narrow_direction_box(dyn):
    # The lookups' circle shrinks with the box's reach, to 0.83 on a +-1
    # box; a circle of the +-1.5 box's radius 1.245 leaves that box, and
    # such lookups gave errors of 0.28-0.38.  Worst measured: 6.2e-4
    # (odd cat).
    d = uniform_grid(-1.0, 1.0, 33)
    coeffs = reduce_equation(PotentialSpec.from_string(dyn))
    for state in (GROUND, CAT_AXIS):
        f0 = sample_marginal_field(state, d, d, SQUARE_X)
        snap, = evolve_pde(f0, coeffs, SolverConfig(), [0.5])
        ref = sample_marginal_field(state, d, d, SQUARE_X, 0.5,
                                    coeffs.potential)
        mask = f0.radius() >= 1.0 / 3.0
        assert np.abs(snap.values - ref.values)[mask].max() <= 1e-3
        assert snap.warnings == ()


def test_pde_refuses_a_box_that_does_not_surround_the_origin():
    f0 = sample_marginal_field(GROUND, uniform_grid(0.2, 1.5, 17),
                               uniform_grid(-1.5, 1.5, 17),
                               uniform_grid(-6.0, 6.0, 65))
    coeffs = reduce_equation(PotentialSpec.free())
    for times in ([0.5], [0.0]):
        with pytest.raises(ValueError, match="surround the origin"):
            evolve_pde(f0, coeffs, SolverConfig(), times)


def test_pde_refuses_a_field_that_is_not_finite():
    # One NaN cell makes the initial mass NaN, which would pass the drift
    # check silently; the field is refused next to its box check.
    f0 = sample_marginal_field(GROUND, uniform_grid(-1.5, 1.5, 17),
                               uniform_grid(-1.5, 1.5, 17),
                               uniform_grid(-6.0, 6.0, 65))
    f0.values[3, 4, 30] = np.nan
    coeffs = reduce_equation(PotentialSpec.free())
    for times in ([0.5], [0.0]):
        with pytest.raises(ValueError, match="non-finite"):
            evolve_pde(f0, coeffs, SolverConfig(), times)


def test_snapshots_share_no_memory_with_the_initial_field():
    # t = 0 returns a copy of the initial values, and a repeated time a
    # fresh resample: no snapshot shares memory with another.
    f0 = sample_marginal_field(GROUND, uniform_grid(-1.5, 1.5, 17),
                               uniform_grid(-1.5, 1.5, 17),
                               uniform_grid(-6.0, 6.0, 65))
    snaps = evolve_pde(f0, reduce_equation(PotentialSpec.free()),
                       SolverConfig(), [0.0, 0.0, 0.1, 0.1])
    assert np.array_equal(snaps[0].values, f0.values)
    for i, snap in enumerate(snaps):
        assert not np.shares_memory(snap.values, f0.values)
        assert not any(np.shares_memory(snap.values, s.values) for s in snaps[:i])


def test_kernels_leave_their_inputs_unchanged():
    rng = np.random.default_rng(7)
    values = rng.standard_normal((9, 8, 13))
    coords = rng.uniform(-3.0, 15.0, (3, 40))
    kept = values.tobytes(), coords.tobytes()
    for axis in range(3):  # axis 0 moves nothing: the input is contiguous
        fields._prefilter(values, axis)
    evolution.spline_filter(values)
    evolution.map_coordinates(values, coords)
    assert (values.tobytes(), coords.tobytes()) == kept
    f0 = sample_marginal_field(CAT_AXIS, uniform_grid(-1.5, 1.5, 17),
                               uniform_grid(-1.5, 1.5, 17),
                               uniform_grid(-6.0, 6.0, 65))
    kept = f0.values.tobytes()
    evolve_pde(f0, reduce_equation(PotentialSpec.linear(0.5)), SolverConfig(),
               [0.0, 0.3])
    assert f0.values.tobytes() == kept


def test_pde_rejects_bad_snapshot_lists():
    f0 = sample_marginal_field(GROUND, uniform_grid(-1.5, 1.5, 17),
                               uniform_grid(-1.5, 1.5, 17),
                               uniform_grid(-6.0, 6.0, 65))
    coeffs = reduce_equation(PotentialSpec.free())
    for bad in ([math.nan], [0.2, math.inf], [-math.inf, 0.2]):
        with pytest.raises(ValueError, match="must be finite"):
            evolve_pde(f0, coeffs, SolverConfig(), bad)


def test_solver_config_validation():
    # the exact backtrace has no settings; a new one must edit this test
    assert dataclasses.fields(SolverConfig) == ()


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
    """One resample as a 64-tap tricubic map_coordinates gather on the
    circle of radius 0.83 x reach, zero past the X ends; returns the values,
    the lookups' index coordinates (3, ...) and the outflow mask: the
    lookups past an X end where the circle's row, gathered at the X nodes,
    is above MU_EDGE_LIMIT of its largest |value|."""
    back = expm(-gen * dt)
    x = field.x_grid[None, None, :]
    mu = field.mu_grid[:, None, None]
    nu = field.nu_grid[None, :, None]
    x_d = back[0, 0] * x + back[0, 1] * mu + back[0, 2] * nu
    mu_d = back[1, 1] * mu + back[1, 2] * nu + 0.0 * x
    nu_d = back[2, 1] * mu + back[2, 2] * nu + 0.0 * x
    r_d = np.hypot(mu_d, nu_d)
    radius = 0.83 * field.reach()
    inv = np.where(r_d > 0.0, radius / np.where(r_d > 0.0, r_d, 1.0), 0.0)
    coords = np.stack([(v * inv - g[0]) / grid_step(g) for v, g in (
        (mu_d, field.mu_grid), (nu_d, field.nu_grid), (x_d, field.x_grid))])
    coeffs = spline_filter(field.values, order=3, mode="nearest")
    values = inv * map_coordinates(coeffs, coords, order=3, prefilter=False,
                                   mode="nearest")
    n_x = field.x_grid.size
    below, above = coords[2] < 0.0, coords[2] > n_x - 1.0
    values[below | above] = 0.0
    nodes = np.stack((coords[0], coords[1], np.indices(coords[2].shape)[2]))
    rows = np.abs(map_coordinates(coeffs, nodes, order=3, prefilter=False,
                                  mode="nearest"))
    limit = fields.MU_EDGE_LIMIT * rows.max(axis=2, keepdims=True)
    outflow = ((below & (rows[:, :, :1] > limit))
               | (above & (rows[:, :, -1:] > limit)))
    return values, coords, outflow


RESAMPLE_CASES = {
    "free": (PotentialSpec.free(), 0.53, DEFAULT_EVOLUTION_X_GRID),
    "harmonic": (PotentialSpec.harmonic(), math.pi, DEFAULT_EVOLUTION_X_GRID),
    "linear:0.5": (PotentialSpec.linear(0.5), 0.53, DEFAULT_EVOLUTION_X_GRID),
    # an X grid that is not symmetric about 0
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
    want, coords, outflow = reference_resample(field, gen, dt)
    got, out_frac = evolution._resample(
        padded(spline_filter(field.values, order=3, mode="nearest")), field, gen, dt)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    last = field.x_grid.size - 1.0
    # lookups within rounding of an X end may count either way
    at_edge = (np.abs(coords[2]) < 1e-9) | (np.abs(coords[2] - last) < 1e-9)
    assert out_frac == pytest.approx(outflow.mean(), abs=at_edge.mean())
    # About 18% of the lookups fall past an X end and read 0 in every case;
    # they count only where the circle's row has not decayed at that end.
    past = (coords[2] < 0.0) | (coords[2] > last)
    assert past.mean() > 0.1
    if case == "x-outflow":
        assert (coords[2] < 0.0).any() and (coords[2] > last).any()
        assert 0.0 < out_frac < past.mean()
    else:
        assert out_frac == 0.0


def padded(coeffs):
    """Spline coefficients padded by edge values, 2 before each axis and 3
    after: the layout the library reads every spline from."""
    return np.pad(coeffs, ((2, 3),) * coeffs.ndim, mode="edge")


def clamped_taps(coord, size):
    """The cubic B-spline taps with every tap index clamped into the axis
    and the coordinate left as it is: the rule the padded reads replace."""
    floor = np.floor(coord)
    t = coord - floor
    u = 1.0 - t
    weights = (u * u * u / 6.0, (4.0 + t * t * (3.0 * t - 6.0)) / 6.0,
               (4.0 + u * u * (3.0 * u - 6.0)) / 6.0, t * t * t / 6.0)
    first = floor.astype(np.intp) - 1
    return [(np.clip(first + k, 0, size - 1), w) for k, w in enumerate(weights)]


def clamped_read(coeffs, coords):
    """The spline at index coordinates by clamped taps, last axis innermost."""
    flat = coeffs.ravel()
    steps = np.cumprod((1,) + coeffs.shape[:0:-1])[::-1]
    taps = [clamped_taps(c, n) for c, n in zip(coords, coeffs.shape)]
    out = 0.0
    for outer in itertools.product(*taps[:-1]):
        base = sum(step * tap for step, (tap, _) in zip(steps, outer))
        inner = sum(w * flat.take(base + tap) for tap, w in taps[-1])
        out = out + math.prod(w for _, w in outer) * inner
    return out


def clamped_x_stage(coeffs, field, gen, t):
    """Every lookup on the circle of radius 0.83 x reach, read by the 16-tap
    direction stage and a 4-tap X read with clamped taps, zero past the X
    ends; also the mask of the lookups whose X coordinate lies in the box."""
    back = evolution.expm(-gen * t)
    mu, nu = field.mu_grid[:, None], field.nu_grid[None, :]
    mu_d = (back[1, 1] * mu + back[1, 2] * nu).ravel()
    nu_d = (back[2, 1] * mu + back[2, 2] * nu).ravel()
    shift = (back[0, 1] * mu + back[0, 2] * nu).ravel()
    r_d = np.hypot(mu_d, nu_d)
    radius = 0.83 * field.reach()
    inv = np.where(r_d > 0.0, radius / np.where(r_d > 0.0, r_d, 1.0), 0.0)
    a, b = ((v * inv - g[0]) / grid_step(g)
            for v, g in ((mu_d, field.mu_grid), (nu_d, field.nu_grid)))
    n_mu, n_nu, n_x = coeffs.shape
    taps = [(ia * n_nu + ib, wa * wb) for ia, wa in clamped_taps(a, n_mu)
            for ib, wb in clamped_taps(b, n_nu)]
    tap_rows, tap_weights = (np.stack(part, axis=1) for part in zip(*taps))
    # The 16-row sums run over rows of the padded X length, as the library's
    # do: the BLAS product rounds a row's last few columns by another
    # kernel, so a row of n_x columns would move its last one by an ulp.
    rows = np.pad(coeffs, ((0, 0), (0, 0), (2, 3)), mode="edge").reshape(-1, n_x + 5)
    along = np.empty((a.size, n_x + 5))
    for lo in range(0, a.size, 16):
        cells = slice(lo, lo + 16)
        along[cells] = (tap_weights[cells, None, :]
                        @ rows[tap_rows[cells]])[:, 0]
    along = np.ascontiguousarray(along[:, 2:-3])
    x_d = back[0, 0] * field.x_grid + shift[:, None]
    coord = (x_d * inv[:, None] - field.x_grid[0]) / grid_step(field.x_grid)
    row = n_x * np.arange(a.size)[:, None]
    values = inv[:, None] * sum(w * along.take(tap + row)
                                for tap, w in clamped_taps(coord, n_x))
    in_box = (coord >= 0.0) & (coord <= n_x - 1.0)
    values[~in_box] = 0.0
    return values.reshape(coeffs.shape), in_box.reshape(coeffs.shape)


@pytest.mark.parametrize("case", list(RESAMPLE_CASES))
def test_padded_x_stage_matches_clamped_taps(case):
    # Reading a clipped coordinate from edge-padded rows gives the clamped
    # taps themselves wherever the X coordinate lies in the box, so those
    # lookups keep their bits; the others read 0 on both sides.
    potential, t, x_grid = RESAMPLE_CASES[case]
    field = sample_marginal_field(CAT_AXIS, DEFAULT_MU_GRID,
                                  DEFAULT_NU_GRID, x_grid)
    gen = reduce_equation(potential).generator_matrix()
    coeffs = evolution.spline_filter(field.values)
    got, _ = evolution._resample(padded(coeffs), field, gen, t)
    want, in_box = clamped_x_stage(coeffs, field, gen, t)
    assert in_box.any()
    assert np.array_equal(got[in_box], want[in_box])
    assert not got[~in_box].any() and not want[~in_box].any()
    if case == "x-outflow":
        assert not in_box.all()


@pytest.mark.parametrize("potential,t", [("free", 1.0), ("harmonic", math.pi),
                                         ("linear:0.5", 1.0)])
def test_one_resample_stays_inside_its_memory_budget(potential, t):
    # The traced peak of one 65x65x257 resample, in units of the field's
    # own size: the padded rows on the circle and the output take about one
    # field each, and the chunk buffers little more.  Measured 2.19; the
    # bound leaves no room for one more array of the field's size.
    field = sample_marginal_field(CAT_AXIS, **SHORT_GRIDS)
    coeffs = padded(evolution.spline_filter(field.values))
    gen = reduce_equation(PotentialSpec.from_string(potential)).generator_matrix()
    tracemalloc.start()
    try:
        evolution._resample(coeffs, field, gen, t)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.75 * field.values.nbytes


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


AXIS_SIZE = st.integers(1, 12)
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
    got = evolution.map_coordinates(padded(coeffs), coords)
    assert np.abs(got - want).max() <= 4e-15 * np.abs(coeffs).max()


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(AXIS_SIZE, min_size=1, max_size=3), seed=SEED)
def test_padded_reads_match_clamped_taps(shape, seed):
    # In the box, a clipped coordinate on edge-padded coefficients reads the
    # clamped taps with the same weights in the same order: the same bits.
    # Up to 3 cells outside, clamped taps all read the edge where the
    # clipped coordinate reads it at t = 0: equal but for a few roundings
    # per axis. Worst measured over 80,000 draws, in units of the largest
    # coefficient: 6.0e-16 (1-D), 7.9e-16 (2-D), 9.3e-16 (3-D).
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(shape)
    inside = np.stack([rng.uniform(0.0, n - 1.0, 64) for n in shape])
    inside[:, :16] = np.round(inside[:, :16])
    assert np.array_equal(evolution.map_coordinates(padded(coeffs), inside),
                          clamped_read(coeffs, inside))
    if len(shape) == 1:
        for (tap, w), (want_tap, want_w) in zip(
                cubic_taps(inside[0], shape[0]), clamped_taps(inside[0], shape[0])):
            assert np.array_equal(padded(coeffs)[tap], coeffs[want_tap])
            assert np.array_equal(w, want_w)
    outside = np.stack([rng.uniform(-3.0, n + 2.0, 64) for n in shape])
    got = evolution.map_coordinates(padded(coeffs), outside)
    assert np.abs(got - clamped_read(coeffs, outside)).max() <= (
        2e-15 * np.abs(coeffs).max())


def test_map_coordinates_reads_its_coefficients_in_place():
    # A read allocates its taps and weights per point and never copies the
    # coefficients: 4,096 points, up to 3 cells outside the box, from padded
    # 65x65x257 coefficients (10.3 MB).  Measured 0.067 of the array's size;
    # a read that pads its own copy peaks at 1.24.
    rng = np.random.default_rng(5)
    coeffs = padded(rng.standard_normal((65, 65, 257)))
    coords = np.stack([rng.uniform(-3.0, n + 2.0, 4096) for n in (65, 65, 257)])
    tracemalloc.start()
    try:
        evolution.map_coordinates(coeffs, coords)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 0.1 * coeffs.nbytes


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
