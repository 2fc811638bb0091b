import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    fock_coefficients,
    marginal_oracle,
    marginal_oracle_sampled,
    psi_coherent,
    psi_excited1,
    psi_free_evolved_sampled,
    psi_ground,
    psi_harmonic_evolved,
    psi_oddcat,
    wigner_oracle,
)
from tomoflow.fields import TomographyParams, uniform_grid
from tomoflow.states import (
    EXCITED_FIRST,
    GROUND,
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
    wigner_evaluator,
)

COHERENT_A = StateSpec(StateKind.COHERENT, q0=1.2, p0=-0.7)
CAT_AXIS = StateSpec(StateKind.ODD_CAT, q0=math.sqrt(2.0), p0=0.0)
CAT_TILTED = StateSpec(StateKind.ODD_CAT, q0=1.1, p0=0.9)

STATE_PSI_PAIRS = [
    (GROUND, psi_ground()),
    (EXCITED_FIRST, psi_excited1()),
    (COHERENT_A, psi_coherent(1.2, -0.7)),
    (CAT_AXIS, psi_oddcat(math.sqrt(2.0), 0.0)),
    (CAT_TILTED, psi_oddcat(1.1, 0.9)),
]

finite = dict(allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize("state,psi", STATE_PSI_PAIRS,
                         ids=[s.kind.value + str(i) for i, (s, _) in
                              enumerate(STATE_PSI_PAIRS)])
def test_wigner_matches_wavefunction_quadrature(state, psi):
    q = np.linspace(-3.0, 3.0, 7)
    p = np.linspace(-2.5, 2.5, 5)
    qq, pp = np.meshgrid(q, p, indexing="ij")
    got = wigner_eval(state, (qq, pp))
    want = wigner_oracle(psi, qq, pp)
    assert np.max(np.abs(got - want)) < 1e-7


@pytest.mark.parametrize("state,psi", STATE_PSI_PAIRS,
                         ids=[s.kind.value + str(i) for i, (s, _) in
                              enumerate(STATE_PSI_PAIRS)])
@pytest.mark.parametrize("mu,nu,delta", [
    (1.0, 0.0, 0.0),
    (0.0, 1.0, 0.0),
    (0.8, 0.6, 0.0),
    (-1.3, 0.4, 0.9),
    (0.5, -1.2, -2.0),
])
def test_marginal_matches_wavefunction_quadrature(state, psi, mu, nu, delta):
    x = np.linspace(-6.0, 6.0, 41)
    got = marginal_eval(state, TomographyParams(mu, nu, delta), x)
    want = marginal_oracle(psi, x, mu, nu, delta)
    assert np.max(np.abs(got - want)) < 1e-7


def test_excited_wigner_origin_is_minus_two():
    assert wigner_eval(EXCITED_FIRST, (0.0, 0.0)) == pytest.approx(-2.0, abs=1e-12)


def test_cat_wigner_origin_is_minus_two():
    # The interference dip of any odd superposition reaches the parity
    # bound -2 at the origin, independent of displacement.
    for state in (CAT_AXIS, CAT_TILTED, StateSpec(StateKind.ODD_CAT, 0.3, 0.0)):
        assert wigner_eval(state, (0.0, 0.0)) == pytest.approx(-2.0, abs=1e-12)


def test_cat_origin_against_independent_quadrature():
    got = wigner_oracle(psi_oddcat(math.sqrt(2.0), 0.0), 0.0, 0.0)
    assert got == pytest.approx(-2.0, abs=1e-9)


def test_cat_normalization_matches_wavefunction_norm():
    q0, p0 = 1.1, 0.9
    psi = psi_oddcat(q0, p0)
    x = np.linspace(-12.0, 12.0, 4001)
    norm_sq = np.trapezoid(np.abs(psi(x)) ** 2, x)
    assert norm_sq == pytest.approx(1.0, abs=1e-10)
    raw = psi_coherent(q0, p0)(x) - psi_coherent(-q0, -p0)(x)
    raw_norm = math.sqrt(np.trapezoid(np.abs(raw) ** 2, x))
    assert cat_normalization(q0, p0) == pytest.approx(1.0 / raw_norm, rel=1e-10)


@pytest.mark.parametrize("state", [GROUND, EXCITED_FIRST, COHERENT_A, CAT_TILTED])
def test_sampled_wigner_field_normalizes(state):
    field = sample_wigner_field(state)
    assert field.warnings == ()
    assert field.normalization() == pytest.approx(1.0, abs=1e-6)


def test_sampled_wigner_field_warns_on_truncation():
    grid = uniform_grid(-1.0, 1.0, 32)
    field = sample_wigner_field(COHERENT_A, grid, grid)
    assert field.warnings and "normalization" in field.warnings[0]


def test_sampled_wigner_field_rejects_small_grid():
    with pytest.raises(ValueError):
        sample_wigner_field(GROUND, uniform_grid(-6, 6, 8))


@pytest.mark.parametrize("state", [GROUND, EXCITED_FIRST, COHERENT_A, CAT_AXIS])
@pytest.mark.parametrize("mu,nu", [(1.0, 0.0), (0.6, -0.8), (2.0, 1.5)])
def test_marginal_slice_normalizes(state, mu, nu):
    r = math.hypot(mu, nu)
    x = uniform_grid(-16.0 * r, 16.0 * r, 2001)
    s = marginal_slice(state, TomographyParams(mu, nu), x)
    assert s.normalization() == pytest.approx(1.0, abs=1e-9)
    assert s.min_value() >= 0.0


@settings(max_examples=60, deadline=None)
@given(mu=st.floats(-3, 3, **finite), nu=st.floats(-3, 3, **finite),
       delta=st.floats(-4, 4, **finite), x=st.floats(-8, 8, **finite))
def test_shift_identity(mu, nu, delta, x):
    if mu * mu + nu * nu < 1e-6:
        return
    w = marginal_evaluator(CAT_TILTED)
    assert w(x, mu, nu, delta) == pytest.approx(w(x - delta, mu, nu, 0.0),
                                                rel=1e-12, abs=1e-300)


@settings(max_examples=60, deadline=None)
@given(lam=st.floats(0.05, 20, **finite), mu=st.floats(-3, 3, **finite),
       nu=st.floats(-3, 3, **finite), x=st.floats(-6, 6, **finite))
def test_scaling_identity(lam, mu, nu, x):
    if mu * mu + nu * nu < 1e-6:
        return
    for sign in (lam, -lam):
        w = marginal_evaluator(EXCITED_FIRST)
        lhs = w(sign * x, sign * mu, sign * nu, 0.0) * abs(sign)
        assert lhs == pytest.approx(w(x, mu, nu, 0.0), rel=1e-9, abs=1e-300)


@settings(max_examples=40, deadline=None)
@given(x=st.floats(-8, 8, **finite), mu=st.floats(-2, 2, **finite),
       nu=st.floats(-2, 2, **finite))
def test_marginal_nonnegative(x, mu, nu):
    if mu * mu + nu * nu < 1e-6:
        return
    for state in (GROUND, EXCITED_FIRST, COHERENT_A, CAT_TILTED):
        assert marginal_evaluator(state)(x, mu, nu) >= 0.0


def cat_marginal_with_cross_term(state, y, mu, nu):
    """The odd-cat marginal as plus + minus - 2 cross (the docstring form)."""
    r2 = mu * mu + nu * nu
    m0 = mu * state.q0 + nu * state.p0
    k0 = (nu * state.q0 - mu * state.p0) / r2
    plus = np.exp(-((y - m0) ** 2) / r2)
    minus = np.exp(-((y + m0) ** 2) / r2)
    cross = np.exp(-(y * y + m0 * m0) / r2) * np.cos(2.0 * y * k0)
    return (cat_normalization(state.q0, state.p0) ** 2
            * (plus + minus - 2.0 * cross) / np.sqrt(np.pi * r2))


def test_cat_marginal_nonnegative_at_its_node():
    # the cross-term form cancels to -2.05e-15 here
    x, mu, nu = 2.1e-18, 0.0, 0.01760004
    assert cat_marginal_with_cross_term(CAT_TILTED, x, mu, nu) < 0.0
    assert marginal_evaluator(CAT_TILTED)(x, mu, nu) >= 0.0


@pytest.mark.parametrize("state", [CAT_AXIS, CAT_TILTED])
def test_cat_marginal_matches_cross_term_form(state):
    x = uniform_grid(-8.0, 8.0, 321)[:, None, None]
    mu = uniform_grid(-2.0, 2.0, 9)[None, :, None]
    nu = uniform_grid(-1.5, 2.5, 7)[None, None, :]
    got = marginal_evaluator(state)(x, mu, nu)
    want = cat_marginal_with_cross_term(state, x, mu, nu)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


@settings(max_examples=40, deadline=None)
@given(q=st.floats(-4, 4, **finite), p=st.floats(-4, 4, **finite))
@example(q=0.5, p=0.5)
def test_wigner_parity_and_rotation_symmetries(q, p):
    assert wigner_eval(CAT_TILTED, (q, p)) == pytest.approx(
        wigner_eval(CAT_TILTED, (-q, -p)), rel=1e-12, abs=1e-300)
    r = math.hypot(q, p)
    # On the node ring q^2 + p^2 = 1/2, W is 0 at (0.5, 0.5) but a rounding
    # of 0 (2.7e-16) at (hypot, 0); the floor is ~5e-15 of max|W| = 2.
    assert wigner_eval(EXCITED_FIRST, (q, p)) == pytest.approx(
        wigner_eval(EXCITED_FIRST, (r, 0.0)), rel=1e-9, abs=1e-14)


@settings(max_examples=30, deadline=None)
@given(t=st.floats(-3, 3, **finite), mu=st.floats(-2, 2, **finite),
       nu=st.floats(-2, 2, **finite), x=st.floats(-5, 5, **finite))
def test_harmonic_flow_is_a_rotation_of_parameters(t, mu, nu, x):
    if mu * mu + nu * nu < 1e-6:
        return
    c, s = math.cos(t), math.sin(t)
    rotated = TomographyParams(mu * c - nu * s, mu * s + nu * c)
    lhs = marginal_eval(CAT_AXIS, TomographyParams(mu, nu), x, t=t,
                        dyn=DynamicsKind.HARMONIC)
    rhs = marginal_eval(CAT_AXIS, rotated, x)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


def test_free_evolution_marginal_matches_fft_wavefunction():
    t = 0.7
    x_grid, psi_t = psi_free_evolved_sampled(psi_excited1(), t)
    x = np.linspace(-5.0, 5.0, 31)
    for mu, nu in [(1.0, 0.4), (0.2, 1.0), (-0.9, 0.8)]:
        got = marginal_eval(EXCITED_FIRST, TomographyParams(mu, nu), x, t=t,
                            dyn=DynamicsKind.FREE)
        want = marginal_oracle_sampled(x_grid, psi_t, x, mu, nu)
        assert np.max(np.abs(got - want)) < 1e-6


def test_free_evolution_coherent_packet_drifts():
    t = 1.3
    x_grid, psi_t = psi_free_evolved_sampled(psi_coherent(1.2, -0.7), t)
    window = (x_grid > -8.0) & (x_grid < 8.0)
    x = x_grid[window]
    got = marginal_eval(COHERENT_A, TomographyParams(1.0, 0.0), x, t=t,
                        dyn=DynamicsKind.FREE)
    want = np.abs(psi_t[window]) ** 2
    assert np.max(np.abs(got - want)) < 1e-9
    # center moves ballistically: <q>(t) = q0 + p0 t
    mean = np.trapezoid(x * got, x) / np.trapezoid(got, x)
    assert mean == pytest.approx(1.2 - 0.7 * t, abs=1e-6)


def test_harmonic_evolution_matches_fock_expansion():
    t = 1.1
    coeffs = fock_coefficients("oddcat", 1.1, 0.9)
    psi_t = psi_harmonic_evolved(coeffs, t)
    x = np.linspace(-4.0, 4.0, 25)
    got = marginal_eval(CAT_TILTED, TomographyParams(0.7, -0.5), x, t=t,
                        dyn=DynamicsKind.HARMONIC)
    want = marginal_oracle(psi_t, x, 0.7, -0.5)
    assert np.max(np.abs(got - want)) < 1e-7
    q = np.linspace(-2.5, 2.5, 6)
    p = np.linspace(-2.0, 2.0, 5)
    qq, pp = np.meshgrid(q, p, indexing="ij")
    w_got = wigner_evaluator(CAT_TILTED, t, DynamicsKind.HARMONIC)(qq, pp)
    w_want = wigner_oracle(psi_t, qq, pp)
    assert np.max(np.abs(w_got - w_want)) < 1e-7


def test_sample_marginal_field_masks_degenerate_cell():
    mu = uniform_grid(-1.0, 1.0, 5)
    nu = uniform_grid(-1.0, 1.0, 5)
    x = uniform_grid(-8.0, 8.0, 129)
    field = sample_marginal_field(GROUND, mu, nu, x)
    assert field.values.shape == (5, 5, 129)
    assert np.all(field.values[2, 2] == 0.0)
    assert not field.valid_mask()[2, 2]
    assert field.valid_mask()[0, 0]
    norms = field.cell_normalizations()
    assert abs(norms[0, 0] - 1.0) < 1e-6


def test_validation_errors():
    with pytest.raises(ValueError):
        StateSpec(StateKind.ODD_CAT, 0.0, 0.0)
    with pytest.raises(ValueError):
        StateSpec(StateKind.GROUND, q0=1.0)
    with pytest.raises(ValueError):
        StateSpec(StateKind.EXCITED_FIRST, p0=0.5)
    with pytest.raises(ValueError):
        marginal_eval(GROUND, TomographyParams(0.0, 0.0), np.zeros(3))
    with pytest.raises(ValueError):
        marginal_eval(GROUND, TomographyParams(1.0, 0.0), np.array([np.nan]))
    with pytest.raises(ValueError):
        wigner_eval(GROUND, (np.inf, 0.0))
    with pytest.raises(ValueError):
        wigner_evaluator(GROUND, t=np.nan)
    with pytest.raises(ValueError):
        cat_normalization(0.0, 0.0)
