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
from scipy.interpolate import CubicSpline
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
from tomoflow import cli, evolution, fields, tomography
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
    FieldMarginalSource,
    RadonMarginalEvaluator,
    UnitSliceSource,
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
    # snapshots warns of 10.8-11.2% outflow.
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
    # snapshot's max|w|: 3.8e-4 over 600 random draws, and 4.5e-4 over 128
    # draws at the corners of the ranges (odd cat at |(q0, p0)| = 3.5,
    # |c1| = 2, |c2| = 1, t = 0.1); the bound leaves a margin of 2.2 over
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
# backward times read 4.5e-6 and 5.2e-6, as the forward ones do.
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


def test_pde_warns_where_the_tomogram_cannot_supply_a_lookup():
    # On X +-5 the tomogram's rows of this cat are cut at the y-table ends:
    # the free shear carries 11.4% of the lookups past an end where the row
    # has not decayed, they read 0, and the error on the cells of radius
    # >= 0.5 is 0.24.  The snapshot's meta["outflow"], which the warning
    # quotes, counts the lookups the scipy oracle counts.
    f0 = sample_marginal_field(StateSpec(StateKind.ODD_CAT, q0=3.5, p0=0.0),
                               SQUARE_MU, SQUARE_MU, uniform_grid(-5.0, 5.0, 129))
    coeffs = reduce_equation(PotentialSpec.free())
    snap, = evolve_pde(f0, coeffs, SolverConfig(), [1.0])
    assert [w.split()[0] for w in snap.warnings] == ["boundary", "mass"]
    out_frac = snap.meta["outflow"]
    _, coord, outflow = snapshot_oracle(f0, coeffs.generator_matrix(), 1.0)
    assert out_frac == pytest.approx(outflow.mean(), abs=at_an_end(coord, f0).mean())
    assert out_frac > 0.1
    assert snap.warnings[0].startswith(f"boundary outflow: {out_frac:.2%}")


def test_pde_outflow_counts_only_what_the_circle_cannot_supply():
    # The coherent state's slices leave the X box, but every lookup past a
    # y end of the tomogram reads a row that has decayed there: the solver
    # is accurate on the cells of radius >= 0.5 (3.6e-6), and only the
    # whole-box mass drift (18%) warns.
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
    # The tomogram's circle shrinks with the box's reach, to 0.75 on a +-1
    # box; a circle of the +-1.5 box's radius 1.125 would leave that box.
    # Worst measured: 4.5e-4 (odd cat).
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
        fields.spline_filter(values, (axis,))
    fields.map_coordinates(values, coords)
    fields.map_coordinates(values, coords[:2])  # carries the last axis
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
    # Counted work: one tomogram is built per call, whatever the number of
    # snapshots; each snapshot at t != 0 reads one row per cell of the first
    # half of a mirrored box, ceil(cells / 2) (545 of 33 x 33 = 1089, the
    # middle cell read), and one per cell of any other box; the snapshot at
    # t = 0 reads none.
    d = uniform_grid(-1.5, 1.5, 33)
    coeffs = reduce_equation(PotentialSpec.free())
    built, rows = [], []
    init, read = FieldMarginalSource.__init__, UnitSliceSource._read_rows

    def counted_init(self, field):
        built.append(field)
        init(self, field)

    def counted_read(self, phis, y):
        rows.append(len(phis))
        return read(self, phis, y)

    monkeypatch.setattr(FieldMarginalSource, "__init__", counted_init)
    monkeypatch.setattr(UnitSliceSource, "_read_rows", counted_read)
    cells = d.size * d.size
    for x_grid, per_snapshot in ((uniform_grid(-6.0, 6.0, 65), -(-cells // 2)),
                                 (uniform_grid(-4.0, 6.0, 65), cells)):
        f0 = sample_marginal_field(GROUND, d, d, x_grid)
        for j in np.linspace(0.98, 1.02, 21):
            built.clear()
            rows.clear()
            evolve_pde(f0, coeffs, SolverConfig(), [0.0, j, 2.0 * j])
            assert len(built) == 1 and built[0] is f0, j
            assert rows == [per_snapshot, per_snapshot], j


@pytest.mark.parametrize("n", [32, 33])
def test_pde_mirrored_cells_are_exact_half_turns(n):
    # On a mirrored box a snapshot's cell (mu, nu) is its cell (-mu, -nu)
    # with X reversed, bit for bit, for a state with no symmetry of its own.
    d = uniform_grid(-1.5, 1.5, n)
    f0 = sample_marginal_field(COHERENT_A, d, d, SQUARE_X)
    for potential in ("free", "harmonic", "linear:0.5"):
        for snap in evolve_pde(f0, reduce_equation(PotentialSpec.from_string(
                potential)), SolverConfig(), [0.7, -1.3]):
            assert np.array_equal(snap.values, snap.values[::-1, ::-1, ::-1])


def test_pde_half_box_counts_the_outflow_of_every_lookup():
    # The cut case: the odd cat at (3.5, 0) on 33 x 33 directions and X +-5
    # (129 points).  Its outflow is the count over every lookup, the middle
    # cell's once and each mirrored pair's twice, and its warnings are
    # those the solver gave when it read every cell.
    f0 = sample_marginal_field(StateSpec(StateKind.ODD_CAT, q0=3.5, p0=0.0),
                               SQUARE_MU, SQUARE_MU, uniform_grid(-5.0, 5.0, 129))
    source = FieldMarginalSource(f0)
    mu, nu = np.meshgrid(SQUARE_MU, SQUARE_MU, indexing="ij")
    quoted = {"free": ((11.37, 2.26), (11.13, 1.16)),
              "harmonic": ((11.22, 1.97), (11.38, 1.47)),
              "linear:3": ((15.42, 16.87), (12.19, 4.07))}
    for potential, pairs in quoted.items():
        coeffs = reduce_equation(PotentialSpec.from_string(potential))
        for t, (outflow, drift), snap in zip([1.0, 0.4], pairs, evolve_pde(
                f0, coeffs, SolverConfig(), [1.0, 0.4])):
            # every cell's lookups, by the solver's own arithmetic
            x_d, mu_d, nu_d = evolution._backtrace(
                evolution.expm(-coeffs.generator_matrix() * t), f0.x_grid,
                mu.reshape(-1, 1), nu.reshape(-1, 1))
            r_d = np.hypot(mu_d, nu_d)
            x_d *= np.divide(1.0, r_d, out=np.zeros_like(r_d), where=r_d > 0.0)
            counts = source._read_rows(np.arctan2(nu_d, mu_d).ravel(), x_d)[1]
            assert snap.meta["outflow"] == counts.sum() / f0.values.size
            assert snap.warnings == (
                f"boundary outflow: {outflow:.2f}% of lookups fall past an X "
                "end where the field has not decayed",
                f"mass drift {drift:.2f}% since t=0 (boundary outflow or "
                "under-resolution)")


def test_default_grids_take_the_half_box():
    # A default grid that failed the mirror test would read every cell,
    # twice the work of evolve_pde and of its field's tomogram.
    for grid in (DEFAULT_MU_GRID, DEFAULT_NU_GRID, DEFAULT_EVOLUTION_X_GRID):
        assert tomography._mirrored(grid)
    seen = []

    def stop(state, mu_grid, nu_grid, x_grid, *rest):
        seen.extend([mu_grid, nu_grid, x_grid])
        raise ValueError("grids seen")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(cli, "sample_marginal_field", stop)
        assert cli.main(["sample-field", "--state", "ground", "--out", "-"]) == 1
    assert [g.size for g in seen] == [65, 65, 257]
    assert all(map(tomography._mirrored, seen))


# ---------------------------------------------------------------------------
# the one reader of a table source against scipy


def spline_oracle(source, phis, y):
    """Lookup (i, j) at (y[i, j]; phis[i]) of a table source by scipy: a
    periodic CubicSpline along phi through its table, then spline_filter
    and map_coordinates (order=3, mode="nearest") along y, 0 past a y end.
    Returns the values, the lookups' y index coordinates and the outflow
    mask: the lookups past a y end where the row's |value| is above
    MU_EDGE_LIMIT of its largest."""
    phi_ends = np.append(source.phi_grid, 2.0 * math.pi)
    table = source.unit_slices(source.phi_grid)  # the table, bit for bit
    rows = CubicSpline(phi_ends, np.vstack([table, table[:1]]),
                       bc_type="periodic")(np.mod(phis, 2.0 * math.pi))
    coord = (y - source.y_grid[0]) / grid_step(source.y_grid)
    values = np.array([map_coordinates(spline_filter(row, order=3, mode="nearest"),
                                       c[None], order=3, prefilter=False,
                                       mode="nearest")
                       for row, c in zip(rows, coord)])
    below, above = coord < 0.0, coord > source.y_grid.size - 1.0
    values[below | above] = 0.0
    limit = fields.MU_EDGE_LIMIT * np.abs(rows).max(axis=1, keepdims=True)
    outflow = ((below & (np.abs(rows[:, :1]) > limit))
               | (above & (np.abs(rows[:, -1:]) > limit)))
    return values, coord, outflow


def backtrace(field, gen, t):
    """Every cell's backtraced direction (mu_d, nu_d) and its lookups' X,
    x_d = back[0, 0] X + shift, one row per cell."""
    back = expm(-gen * t)
    mu, nu = field.mu_grid[:, None], field.nu_grid[None, :]
    mu_d = (back[1, 1] * mu + back[1, 2] * nu).ravel()
    nu_d = (back[2, 1] * mu + back[2, 2] * nu).ravel()
    shift = (back[0, 1] * mu + back[0, 2] * nu).ravel()
    return mu_d, nu_d, back[0, 0] * field.x_grid + shift[:, None]


def snapshot_oracle(field, gen, t):
    """The snapshot at t as the oracle reads the field's tomogram,
    w = u(x_d / r_d; phi_d) / r_d, 0 on a cell with r_d = 0; also the
    lookups' y index coordinates and the outflow mask."""
    mu_d, nu_d, x_d = backtrace(field, gen, t)
    r_d = np.hypot(mu_d, nu_d)
    inv = np.where(r_d > 0.0, 1.0 / np.where(r_d > 0.0, r_d, 1.0), 0.0)
    values, coord, outflow = spline_oracle(
        FieldMarginalSource(field), np.arctan2(nu_d, mu_d), x_d * inv[:, None])
    return inv[:, None] * values, coord, outflow


def at_an_end(coord, field):
    """Lookups within rounding of a y end, which may count either way."""
    last = field.x_grid.size - 1.0
    return (np.abs(coord) < 1e-9) | (np.abs(coord - last) < 1e-9)


RESAMPLE_CASES = {
    "free": (PotentialSpec.free(), 0.53, DEFAULT_EVOLUTION_X_GRID),
    "harmonic": (PotentialSpec.harmonic(), math.pi, DEFAULT_EVOLUTION_X_GRID),
    "linear:0.5": (PotentialSpec.linear(0.5), 0.53, DEFAULT_EVOLUTION_X_GRID),
    # an X grid that is not symmetric about 0
    "asymmetric-x": (PotentialSpec.free(), 0.53, uniform_grid(-6.0, 8.0, 225)),
    # the X shift carries lookups past both ends of a narrow box
    "x-outflow": (PotentialSpec.linear(3.0), 1.0, uniform_grid(-5.0, 5.0, 161)),
    # the same past an X box whose rows are cut at the low y end only
    "one-end-outflow": (PotentialSpec.linear(3.0), 1.0, uniform_grid(-4.0, 6.0, 161)),
}


@pytest.mark.parametrize("case", list(RESAMPLE_CASES))
def test_pde_snapshot_matches_the_spline_oracle(case):
    potential, dt, x_grid = RESAMPLE_CASES[case]
    field = sample_marginal_field(CAT_AXIS, DEFAULT_MU_GRID,
                                  DEFAULT_NU_GRID, x_grid)
    coeffs = reduce_equation(potential)
    want, coord, outflow = snapshot_oracle(field, coeffs.generator_matrix(), dt)
    snap, = evolve_pde(field, coeffs, SolverConfig(), [dt])
    got = snap.values.reshape(want.shape)
    # a lookup within rounding of a y end may read the end or 0
    end = at_an_end(coord, field)
    assert np.abs(got - want)[~end].max() <= 1e-12 * np.abs(want).max()
    out_frac = snap.meta["outflow"]
    assert out_frac == pytest.approx(outflow.mean(), abs=end.mean())
    # About 14% of the lookups fall past a y end and read 0 in every case
    # (22% in the outflow cases); they count only where the tomogram's row
    # has not decayed at that end.
    last = field.x_grid.size - 1.0
    past = (coord < 0.0) | (coord > last)
    assert past.mean() > 0.1
    if case.endswith("outflow"):
        assert (coord < 0.0).any() and (coord > last).any()
        assert 0.0 < out_frac < past.mean()
    else:
        assert out_frac == 0.0


@pytest.mark.parametrize("case", list(RESAMPLE_CASES))
def test_source_call_matches_the_spline_oracle(case):
    # The same lookups through __call__, with an offset delta, in both
    # layouts: one row per direction, and the directions along the last axis.
    potential, dt, x_grid = RESAMPLE_CASES[case]
    field = sample_marginal_field(CAT_AXIS, DEFAULT_MU_GRID,
                                  DEFAULT_NU_GRID, x_grid)
    source = FieldMarginalSource(field)
    gen = reduce_equation(potential).generator_matrix()
    mu_d, nu_d, x_d = backtrace(field, gen, dt)
    r_d = np.hypot(mu_d, nu_d)
    keep = r_d > 0.0
    mu_d, nu_d, x_d, r_d = mu_d[keep], nu_d[keep], x_d[keep], r_d[keep]
    want = spline_oracle(source, np.arctan2(nu_d, mu_d),
                         x_d / r_d[:, None])[0] / r_d[:, None]
    got = source(x_d + 0.3, mu_d[:, None], nu_d[:, None], 0.3)
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()
    rows = source(x_d, mu_d[:, None], nu_d[:, None])
    assert np.array_equal(source(x_d.T, mu_d, nu_d), rows.T)


def test_a_full_box_query_reads_rows_in_chunks():
    # A query at every cell of a 65x65x257 field reads one row per cell in
    # chunks, as evolve_pde does, and gives its values to rounding.  Its
    # traced peak, in units of the field's size, counts the query's own X
    # (built by evolve_characteristics) and the answer: measured 2.72.  A
    # read that builds every lookup's four taps at once peaks at 13.8.
    field = sample_marginal_field(CAT_AXIS, **SHORT_GRIDS)
    source = FieldMarginalSource(field)
    potential = PotentialSpec.free()
    mu, nu = np.meshgrid(field.mu_grid, field.nu_grid, indexing="ij")
    cells = field.radius() > 0.0
    query = evolve_characteristics(source, potential, 1.0)
    tracemalloc.start()
    try:
        got = query(field.x_grid, mu[cells][:, None], nu[cells][:, None])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.0 * field.values.nbytes
    snap, = evolve_pde(field, reduce_equation(potential), SolverConfig(), [1.0])
    want = snap.values[cells]
    assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


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


@pytest.mark.parametrize("potential,t", [("free", 1.0), ("harmonic", math.pi),
                                         ("linear:0.5", 1.0)])
def test_one_resample_stays_inside_its_memory_budget(potential, t):
    # The traced peak of one whole evolve_pde call with one snapshot on
    # 65x65x257, in units of the field's own size.  The peak is building the
    # tomogram: two prefilter sweeps of the direction plane and the padded
    # coefficients, about one field each.  The snapshot and the chunk
    # buffers come to less.  Measured 2.21; the bound leaves no room for
    # one more array of a tenth of the field's size.
    field = sample_marginal_field(CAT_AXIS, **SHORT_GRIDS)
    coeffs = reduce_equation(PotentialSpec.from_string(potential))
    tracemalloc.start()
    try:
        evolve_pde(field, coeffs, SolverConfig(), [t])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.3 * field.values.nbytes


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
    coeffs = fields.spline_filter(values, range(values.ndim))
    nodes = np.stack([g.ravel() for g in np.indices(shape, dtype=float)])
    back = map_coordinates(coeffs, nodes, order=3, prefilter=False,
                           mode="nearest").reshape(shape)
    scale = np.abs(values).max()
    assert np.abs(back - values).max() <= 4e-15 * scale
    if long_axes:
        want = spline_filter(values, order=3, mode="nearest")
        assert np.abs(coeffs - want).max() <= 4e-15 * np.abs(want).max()


@settings(max_examples=60, deadline=None)
@given(shape=st.lists(AXIS_SIZE, min_size=2, max_size=3),
       carried=st.lists(AXIS_SIZE, max_size=2), seed=SEED)
def test_map_coordinates_matches_scipy(shape, carried, seed):
    # Index coordinates up to 3 cells outside the box on either side, a
    # quarter of them on integer nodes, on the leading axes; each slice of
    # the carried trailing axes is compared with scipy's read of its own.
    # Worst measured over 5,000 draws, each with up to two carried axes:
    # 1.1e-15 of the largest coefficient.
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(shape + carried)
    coords = np.stack([rng.uniform(-3.0, n + 2.0, 64) for n in shape])
    coords[:, :16] = np.round(coords[:, :16])
    got = fields.map_coordinates(
        np.pad(coeffs, [(2, 3)] * len(shape) + [(0, 0)] * len(carried),
               mode="edge"), coords)
    assert got.shape == (64,) + tuple(carried)
    for index in np.ndindex(*carried):
        want = map_coordinates(coeffs[(...,) + index], coords, order=3,
                               prefilter=False, mode="nearest")
        assert (np.abs(got[(slice(None),) + index] - want).max()
                <= 4e-15 * np.abs(coeffs).max())


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
    assert np.array_equal(fields.map_coordinates(padded(coeffs), inside),
                          clamped_read(coeffs, inside))
    if len(shape) == 1:
        weights = np.empty((4, 64))
        first = fields.padded_taps(inside[0].copy(), shape[0],
                                   np.empty(64, np.intp), weights)
        for k, (want_tap, want_w) in enumerate(clamped_taps(inside[0], shape[0])):
            assert np.array_equal(padded(coeffs)[first + k], coeffs[want_tap])
            assert np.array_equal(weights[k], want_w)
    outside = np.stack([rng.uniform(-3.0, n + 2.0, 64) for n in shape])
    got = fields.map_coordinates(padded(coeffs), outside)
    assert np.abs(got - clamped_read(coeffs, outside)).max() <= (
        2e-15 * np.abs(coeffs).max())


def test_map_coordinates_reads_its_coefficients_in_place():
    # A read allocates its taps and weights per point, and its sums per
    # point and carried row, and never copies the coefficients: up to 3
    # cells outside the box, from padded 65x65x257 coefficients (10.3 MB),
    # read on every axis at 4,096 points or on (mu, nu) at 64 points that
    # carry X.  Measured 0.067 and 0.073 of the array's size; a read that
    # pads its own copy peaks at 1.24.
    rng = np.random.default_rng(5)
    coeffs = padded(rng.standard_normal((65, 65, 257)))
    for points, box in ((4096, (65, 65, 257)), (64, (65, 65))):
        coords = np.stack([rng.uniform(-3.0, n + 2.0, points) for n in box])
        tracemalloc.start()
        try:
            fields.map_coordinates(coeffs, coords)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.1 * coeffs.nbytes, box


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
