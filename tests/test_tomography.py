import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    chi_oracle,
    fock_coefficients,
    fock_moments,
    psi_coherent,
    psi_oddcat,
)
from tomoflow.fields import (
    DensityMatrixGrid,
    ReconstructionConfig,
    TomographyParams,
    trapezoid_weights,
    uniform_grid,
)
from tomoflow.states import (
    EXCITED_FIRST,
    GROUND,
    DynamicsKind,
    StateKind,
    StateSpec,
    marginal_eval,
    marginal_evaluator,
    sample_wigner_field,
    wigner_evaluator,
)
from tomoflow.tomography import (
    CALLABLE_Y_GRID,
    RadonMarginalEvaluator,
    _fourier_rows,
    wigner_field_sampler,
    characteristic_from_marginal,
    density_matrix_from_marginal,
    marginal_field_from_wigner,
    quadrature_moments,
    radon_marginal,
    uncertainty_product,
    wigner_from_characteristic,
)

COHERENT_A = StateSpec(StateKind.COHERENT, q0=1.2, p0=-0.7)
CAT_AXIS = StateSpec(StateKind.ODD_CAT, q0=math.sqrt(2.0), p0=0.0)
CAT_TILTED = StateSpec(StateKind.ODD_CAT, q0=1.1, p0=0.9)

PARAM_SET = [
    TomographyParams(1.0, 0.0),
    TomographyParams(0.0, -1.0),
    TomographyParams(0.6, 0.8, 1.1),
    TomographyParams(-1.5, 2.0, -0.4),
    TomographyParams(0.3, 0.1),
]

finite = dict(allow_nan=False, allow_infinity=False)


# ---------------------------------------------------------------------------
# forward projection


@pytest.mark.parametrize("state", [GROUND, EXCITED_FIRST, COHERENT_A, CAT_AXIS])
@pytest.mark.parametrize("params", PARAM_SET)
def test_radon_projection_matches_closed_form(state, params):
    x = uniform_grid(-8.0, 8.0, 201)
    got = radon_marginal(wigner_evaluator(state), params, x)
    want = marginal_eval(state, params, x)
    assert np.max(np.abs(got.values - want)) < 1e-8


@pytest.mark.parametrize("state", [GROUND, CAT_AXIS])
def test_radon_projection_from_sampled_field(state):
    field = sample_wigner_field(state)
    params = TomographyParams(0.6, 0.8)
    x = uniform_grid(-6.0, 6.0, 121)
    got = radon_marginal(field, params, x)
    want = marginal_eval(state, params, x)
    assert np.max(np.abs(got.values - want)) < 2e-3


def test_radon_projection_field_error_shrinks_with_grid():
    params = TomographyParams(0.8, -0.6, 0.3)
    x = uniform_grid(-6.0, 6.0, 121)
    want = marginal_eval(EXCITED_FIRST, params, x)
    errs = []
    for n in (121, 481):
        g = uniform_grid(-6.0, 6.0, n)
        field = sample_wigner_field(EXCITED_FIRST, g, g)
        got = radon_marginal(field, params, x)
        errs.append(np.max(np.abs(got.values - want)))
    assert errs[1] < errs[0] / 8.0


def test_radon_rejects_degenerate_direction():
    with pytest.raises(ValueError):
        radon_marginal(wigner_evaluator(GROUND), TomographyParams(0.0, 0.0))


def test_marginal_field_from_wigner_small_box():
    mu = uniform_grid(-1.0, 1.0, 5)
    nu = uniform_grid(-1.0, 1.0, 5)
    x = uniform_grid(-6.0, 6.0, 81)
    field = marginal_field_from_wigner(wigner_evaluator(COHERENT_A), mu, nu, x)
    assert np.all(field.values[2, 2] == 0.0)
    for i, j in np.ndindex(5, 5):
        if (i, j) != (2, 2):
            want = marginal_eval(COHERENT_A, TomographyParams(mu[i], nu[j]), x)
            assert np.max(np.abs(field.values[i, j] - want)) < 1e-8, (i, j)


# ---------------------------------------------------------------------------
# the line-integral kernel against the fixed-step trapezoid


def fixed_grid_line_integrals(sample, phis, y):
    """Unit-direction rows by np.trapezoid on 401 line points, step 0.04."""
    line = np.linspace(-8.0, 8.0, 401)
    y = np.broadcast_to(y, (len(phis), np.shape(y)[-1]))
    table = np.empty(y.shape)
    for k, phi in enumerate(phis):
        c, s = math.cos(phi), math.sin(phi)
        q = y[k][:, None] * c - line[None, :] * s
        p = y[k][:, None] * s + line[None, :] * c
        table[k] = np.trapezoid(sample(q, p), line, axis=1) / (2.0 * math.pi)
    return table


def radon_table(wigner, n_phi, y):
    source = RadonMarginalEvaluator(wigner, n_phi=n_phi, y_grid=y)
    return source, source.unit_slices(source.phi_grid)


@pytest.mark.parametrize("state", [GROUND, COHERENT_A, EXCITED_FIRST, CAT_AXIS,
                                   CAT_TILTED],
                         ids=["ground", "coherent", "excited1", "cat_axis",
                              "cat_tilted"])
def test_radon_table_matches_fixed_step_kernel(state):
    y = uniform_grid(-12.0, 12.0, 401)
    source, got = radon_table(wigner_evaluator(state), 90, y)
    want = fixed_grid_line_integrals(wigner_evaluator(state), source.phi_grid, y)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))
    # every row settles one halving below the coarsest step 0.32
    assert np.all(source.line_steps == 0.16)


def test_radon_table_of_a_wide_cat_ends_on_the_full_grid():
    # At radius 4 the line ends cut the cat wherever |sin phi| >= 1/2, so
    # those rows never settle; along the q axis W has decayed at the ends.
    wide = StateSpec(StateKind.ODD_CAT, q0=4.0, p0=0.0)
    y = uniform_grid(-12.0, 12.0, 161)
    source, got = radon_table(wigner_evaluator(wide), 8, y)
    want = fixed_grid_line_integrals(wigner_evaluator(wide), source.phi_grid, y)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    assert source.line_steps.tolist() == [0.16, 0.04, 0.04, 0.04,
                                          0.16, 0.04, 0.04, 0.04]


def test_radon_rows_that_never_settle_end_on_the_fixed_step_sum():
    # A Gaussian too wide for the line window: the trapezoid error is the
    # h^2 end term, so only the full grid with its half-weight ends agrees.
    def wide(q, p):
        return np.exp(-(q * q + p * p) / 50.0)

    y = uniform_grid(-3.0, 3.0, 31)
    source, got = radon_table(wide, 8, y)
    assert np.all(source.line_steps == 0.04)
    want = fixed_grid_line_integrals(wide, source.phi_grid, y)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    params = TomographyParams(0.6, 0.8)
    row = radon_marginal(wide, params, y)
    want = fixed_grid_line_integrals(wide, [math.atan2(0.8, 0.6)], y)[0]
    assert np.max(np.abs(row.values - want)) <= 1e-15 * np.max(np.abs(want))


def test_radon_table_of_a_sampled_field_keeps_the_fixed_step():
    grid = uniform_grid(-6.0, 6.0, 161)
    field = sample_wigner_field(CAT_TILTED, grid, grid)
    y = uniform_grid(-8.0, 8.0, 161)
    source, got = radon_table(field, 36, y)
    want = fixed_grid_line_integrals(wigner_field_sampler(field),
                                     source.phi_grid, y)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    assert np.all(source.line_steps == 0.04)


def test_radon_line_steps_are_read_only():
    source = RadonMarginalEvaluator(wigner_evaluator(GROUND), n_phi=8,
                                    y_grid=uniform_grid(-6.0, 6.0, 41))
    assert source.line_steps.shape == (8,)
    with pytest.raises(AttributeError):
        source.line_steps = np.zeros(8)
    with pytest.raises(ValueError):
        source.line_steps[0] = 1.0


@settings(max_examples=25, deadline=None)
@given(radius=st.floats(0.1, 2.0, **finite), angle=st.floats(-4.0, 4.0, **finite),
       phi=st.floats(-4.0, 4.0, **finite), r=st.floats(0.5, 2.0, **finite),
       kind=st.sampled_from([StateKind.COHERENT, StateKind.ODD_CAT]))
def test_radon_marginal_matches_fixed_step_kernel(radius, angle, phi, r, kind):
    w = wigner_evaluator(StateSpec(kind, q0=radius * math.cos(angle),
                                   p0=radius * math.sin(angle)))
    params = TomographyParams(r * math.cos(phi), r * math.sin(phi))
    x = uniform_grid(-7.0, 7.0, 141)
    got = radon_marginal(w, params, x)
    want = fixed_grid_line_integrals(
        w, [math.atan2(params.nu, params.mu)], x / params.r)[0] / params.r
    assert np.max(np.abs(got.values - want)) <= 1e-13


# ---------------------------------------------------------------------------
# interpolating marginal source


@pytest.fixture(scope="module")
def cat_radon_source():
    return RadonMarginalEvaluator(wigner_evaluator(CAT_AXIS))


def test_radon_evaluator_matches_closed_form(cat_radon_source):
    x = uniform_grid(-7.0, 7.0, 301)
    for params in PARAM_SET:
        got = cat_radon_source(x, params.mu, params.nu, params.delta)
        want = marginal_eval(CAT_AXIS, params, x)
        assert np.max(np.abs(got - want)) < 1e-4


def test_radon_evaluator_zero_outside_table(cat_radon_source):
    out = cat_radon_source(np.array([-25.0, 25.0]), 1.0, 0.0)
    assert np.all(out == 0.0)


def test_radon_evaluator_rejects_vector_direction(cat_radon_source):
    with pytest.raises(ValueError):
        cat_radon_source(np.zeros(3), np.array([1.0, 2.0]), 0.0)


def test_radon_evaluator_rejects_non_uniform_y_grid():
    y = np.concatenate([uniform_grid(-6.0, 0.0, 31), [0.1, 0.3, 0.6]])
    with pytest.raises(ValueError, match="y_grid"):
        RadonMarginalEvaluator(wigner_evaluator(GROUND), n_phi=8, y_grid=y)


def test_radon_evaluator_rejects_non_finite_table():
    def broken(q, p):
        return np.where(q > 1.0, np.nan, np.exp(-q * q - p * p))

    with pytest.raises(ValueError,
                       match="RadonMarginalEvaluator: non-finite"):
        RadonMarginalEvaluator(broken, n_phi=8,
                               y_grid=uniform_grid(-4.0, 4.0, 41))


# ---------------------------------------------------------------------------
# the Fourier-row kernel shared by chi and rho


@pytest.mark.parametrize("n", [9, 161, 401, 512, 1201])
def test_fourier_rows_matches_dense_trapezoid(n):
    rng = np.random.default_rng(n)
    y = uniform_grid(-12.0, 12.0, n)
    rows = rng.standard_normal((7, n)) * np.exp(-0.05 * y * y)
    freq = np.array([0.0, 1e-3, 0.7, -2.5, 9.3, -17.1, 30.0])
    want = np.trapezoid(rows * np.exp(1j * freq[:, None] * y[None, :]), y,
                        axis=1)
    got = _fourier_rows(rows, freq, y)
    scale = np.sum(np.abs(trapezoid_weights(y) * rows), axis=1)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


def oracle_y_grid(marginal):
    """A table source's own y grid, else 512 points on [-20, 20]."""
    if hasattr(marginal, "unit_slices"):
        return marginal.y_grid
    y = np.linspace(-20.0, 20.0, 512)
    assert np.array_equal(y, CALLABLE_Y_GRID)
    return y


def dense_chi(marginal, a_grid, b_grid):
    """chi by one dense complex kernel per a-row (the kernel's reference)."""
    y_grid = oracle_y_grid(marginal)
    values = np.empty((a_grid.size, b_grid.size), dtype=complex)
    for i, a in enumerate(a_grid):
        phi = np.arctan2(b_grid, a)
        r = np.hypot(a, b_grid)
        if hasattr(marginal, "unit_slices"):
            rows = marginal.unit_slices(phi)
        else:
            rows = marginal(y_grid[None, :], np.cos(phi)[:, None],
                            np.sin(phi)[:, None], 0.0)
        kernel = np.exp(1j * r[:, None] * y_grid[None, :])
        values[i] = np.trapezoid(rows * kernel, y_grid, axis=1)
    return values


def dense_rho(marginal, q_grid, config):
    """rho by the double integral (6) with dense kernels per mu-row, at the
    signed s, evaluating callables at radius r."""
    s, n = config.s, q_grid.size
    mu = np.linspace(*config.mu_range, config.mu_samples)
    table = hasattr(marginal, "unit_slices")
    y = oracle_y_grid(marginal)
    v = np.concatenate([q_grid - q_grid[-1], (q_grid - q_grid[0])[1:]])
    u = np.concatenate([q_grid + q_grid[0], (q_grid + q_grid[-1])[1:]])
    nu = v / s
    f_table = np.empty((mu.size, v.size), dtype=complex)
    for k in range(mu.size):
        r = np.sqrt(mu[k] ** 2 + nu ** 2)
        if table:
            rows = marginal.unit_slices(np.arctan2(nu, mu[k]))
        else:
            deg = (mu[k] == 0.0) & (nu == 0.0)
            r_eff = np.where(deg, 1.0, r)[:, None]
            rows = r_eff * marginal(r_eff * y[None, :],
                                    np.where(deg, 1.0, mu[k])[:, None],
                                    np.where(deg, 0.0, nu)[:, None], 0.0)
        kernel = np.exp(1j * s * np.outer(r, y)) * trapezoid_weights(y)
        f_table[k] = np.sum(rows * kernel, axis=1)
    phase = np.exp(-0.5j * s * np.outer(u, mu)) * trapezoid_weights(mu)
    rho_uv = phase @ f_table * (abs(s) / (2.0 * math.pi))
    i, j = np.indices((n, n))
    return rho_uv[i + j, i - j + (n - 1)]


@pytest.mark.parametrize("source", ["radon", "closed"])
def test_characteristic_matches_dense_kernel(source, cat_radon_source):
    marginal = (cat_radon_source if source == "radon"
                else marginal_evaluator(CAT_TILTED))
    a = uniform_grid(-10.0, 10.0, 21)
    b = uniform_grid(-9.0, 9.0, 19)
    chi = characteristic_from_marginal(marginal, a, b)
    assert np.max(np.abs(chi.values - dense_chi(marginal, a, b))) <= 1e-13


@pytest.mark.parametrize("source", ["radon", "closed"])
@pytest.mark.parametrize("s", [1.0, 2.0, -2.0, 1.7, -0.6])
def test_density_matrix_matches_dense_kernel(source, s, cat_radon_source):
    marginal = (cat_radon_source if source == "radon"
                else marginal_evaluator(CAT_TILTED))
    q = uniform_grid(-4.0, 4.0, 17)
    config = ReconstructionConfig(s=s, mu_samples=101)
    rho = density_matrix_from_marginal(marginal, q, config)
    assert np.max(np.abs(rho.values - dense_rho(marginal, q, config))) <= 1e-13


@settings(max_examples=25, deadline=None)
@given(s=st.floats(0.25, 4.0, **finite), negative=st.booleans(),
       n=st.integers(9, 33), radius=st.floats(0.0, 1.5, **finite),
       angle=st.floats(-4.0, 4.0, **finite))
def test_density_matrix_property(s, negative, n, radius, angle):
    state = StateSpec(StateKind.COHERENT, q0=radius * math.cos(angle),
                      p0=radius * math.sin(angle))
    marginal = marginal_evaluator(state)
    q = uniform_grid(-4.0, 4.0, n)
    config = ReconstructionConfig(s=-s if negative else s, mu_samples=101)
    rho = density_matrix_from_marginal(marginal, q, config)
    scale = np.max(np.abs(rho.values))
    assert np.max(np.abs(rho.values - dense_rho(marginal, q, config))) <= 1e-13
    assert rho.hermiticity_defect() <= 1e-12 * scale
    flipped = density_matrix_from_marginal(
        marginal, q, ReconstructionConfig(s=-config.s, mu_samples=101))
    assert np.max(np.abs(flipped.values - rho.values.conj().T)) <= 1e-15 * scale


def test_characteristic_of_freely_evolved_cat_matches_psi():
    # At t = 2 the flowed directions (mu, nu + 2 mu) widen the unit rows
    # past +-12, so a callable's y grid must reach further.
    t = 2.0
    marginal = marginal_evaluator(CAT_TILTED, t, DynamicsKind.FREE)
    a = uniform_grid(-4.0, 4.0, 17)
    b = uniform_grid(-4.0, 4.0, 17)
    chi = characteristic_from_marginal(marginal, a, b)
    aa, bb = np.meshgrid(a, b, indexing="ij")
    want = chi_oracle(psi_oddcat(1.1, 0.9), aa, bb + aa * t)
    assert np.max(np.abs(chi.values - want)) <= 1e-13


# ---------------------------------------------------------------------------
# characteristic function and Wigner inversion


def chi_ground(a, b):
    return np.exp(-(a * a + b * b) / 4.0)


def chi_excited1(a, b):
    rho2 = a * a + b * b
    return (1.0 - rho2 / 2.0) * np.exp(-rho2 / 4.0)


def chi_coherent(a, b, q0, p0):
    return np.exp(-(a * a + b * b) / 4.0) * np.exp(1j * (a * q0 + b * p0))


@pytest.mark.parametrize("state,chi_exact", [
    (GROUND, chi_ground),
    (EXCITED_FIRST, chi_excited1),
    (COHERENT_A, lambda a, b: chi_coherent(a, b, 1.2, -0.7)),
])
def test_characteristic_matches_analytic(state, chi_exact):
    chi = characteristic_from_marginal(marginal_evaluator(state))
    aa, bb = np.meshgrid(chi.a_grid, chi.b_grid, indexing="ij")
    assert np.max(np.abs(chi.values - chi_exact(aa, bb))) < 1e-8
    mid = (chi.a_grid.size // 2, chi.b_grid.size // 2)
    assert chi.values[mid] == pytest.approx(1.0, abs=1e-10)
    assert chi.hermitian_defect() < 1e-12


def test_characteristic_from_radon_table(cat_radon_source):
    chi = characteristic_from_marginal(cat_radon_source)
    direct = characteristic_from_marginal(marginal_evaluator(CAT_AXIS))
    assert np.max(np.abs(chi.values - direct.values)) < 2e-4


@pytest.mark.parametrize("state", [GROUND, EXCITED_FIRST, CAT_AXIS])
def test_wigner_inversion_roundtrip_closed_form(state):
    chi = characteristic_from_marginal(marginal_evaluator(state))
    grid = uniform_grid(-4.0, 4.0, 81)
    rebuilt = wigner_from_characteristic(chi, grid, grid)
    want = wigner_evaluator(state)(grid[:, None], grid[None, :])
    assert np.max(np.abs(rebuilt.values - want)) < 1e-6
    assert rebuilt.meta["max_imag"] < 1e-9


def test_wigner_inversion_normalization():
    chi = characteristic_from_marginal(marginal_evaluator(EXCITED_FIRST))
    grid = uniform_grid(-6.0, 6.0, 161)
    rebuilt = wigner_from_characteristic(chi, grid, grid)
    assert rebuilt.normalization() == pytest.approx(1.0, abs=1e-5)


# ---------------------------------------------------------------------------
# density matrix


def small_config(**kw):
    kw.setdefault("mu_samples", 401)
    return ReconstructionConfig(**kw)


def test_density_matrix_ground():
    q = uniform_grid(-4.0, 4.0, 41)
    rho = density_matrix_from_marginal(marginal_evaluator(GROUND), q,
                                       small_config())
    want = np.exp(-0.5 * (q[:, None] ** 2 + q[None, :] ** 2)) / math.sqrt(math.pi)
    assert np.max(np.abs(rho.values - want)) < 1e-6
    center = q.size // 2
    assert rho.values[center, center].real == pytest.approx(
        1.0 / math.sqrt(math.pi), abs=1e-8)
    assert rho.trace() == pytest.approx(1.0, abs=1e-6)
    assert rho.hermiticity_defect() < 1e-12
    assert rho.purity() == pytest.approx(1.0, abs=1e-4)


def test_density_matrix_excited_state():
    q = uniform_grid(-4.5, 4.5, 41)
    rho = density_matrix_from_marginal(marginal_evaluator(EXCITED_FIRST), q,
                                       small_config())
    want = (2.0 / math.sqrt(math.pi)) * np.outer(q, q) * np.exp(
        -0.5 * (q[:, None] ** 2 + q[None, :] ** 2))
    assert np.max(np.abs(rho.values - want)) < 1e-6


def test_density_matrix_coherent_carries_phase():
    q = uniform_grid(-4.0, 4.0, 41)
    psi = psi_coherent(1.2, -0.7)(q)
    want = np.outer(psi, np.conj(psi))
    rho = density_matrix_from_marginal(marginal_evaluator(COHERENT_A), q,
                                       small_config())
    assert np.max(np.abs(rho.values - want)) < 1e-6
    assert np.max(np.abs(rho.values.imag)) > 0.05  # genuinely complex


def test_density_matrix_cat():
    q = uniform_grid(-5.0, 5.0, 51)
    psi = psi_oddcat(1.1, 0.9)(q)
    want = np.outer(psi, np.conj(psi))
    # interference lobes sit near |a| ~ 2.2, so the direction scan needs
    # more headroom than the Gaussian default before its tail truncates
    rho = density_matrix_from_marginal(marginal_evaluator(CAT_TILTED), q,
                                       small_config(mu_range=(-10.0, 10.0),
                                                    mu_samples=501))
    assert np.max(np.abs(rho.values - want)) < 1e-6
    eigs = rho.eigenvalues()
    assert eigs[-1] == pytest.approx(1.0, abs=1e-3)
    assert np.all(eigs[:-1] < 1e-3)


def test_density_matrix_warns_when_mu_range_truncates():
    q = uniform_grid(-4.0, 4.0, 33)
    off_axis = StateSpec(StateKind.ODD_CAT, q0=1.6 * math.cos(-1.0),
                         p0=1.6 * math.sin(-1.0))
    rho = density_matrix_from_marginal(marginal_evaluator(off_axis), q,
                                       small_config())
    assert len(rho.warnings) == 1
    assert "0.000474" in rho.warnings[0] and "1e-05" in rho.warnings[0]
    on_axis = density_matrix_from_marginal(marginal_evaluator(CAT_AXIS), q,
                                           small_config())
    assert on_axis.warnings == ()


def test_density_matrix_scale_invariance():
    q = uniform_grid(-4.0, 4.0, 33)
    base = density_matrix_from_marginal(marginal_evaluator(CAT_AXIS), q,
                                        small_config())
    for s in (0.8, 1.6):
        other = density_matrix_from_marginal(marginal_evaluator(CAT_AXIS), q,
                                             small_config(s=s))
        assert np.max(np.abs(other.values - base.values)) < 1e-4


def thermal_marginal(nbar):
    """Marginal of the thermal state with mean occupation nbar."""
    var = 2.0 * nbar + 1.0

    def w(x, mu, nu, delta=0.0):
        r2 = var * (np.asarray(mu) ** 2 + np.asarray(nu) ** 2)
        return np.exp(-(np.asarray(x) - delta) ** 2 / r2) / np.sqrt(np.pi * r2)

    return w


@pytest.mark.parametrize("nbar", [0.5, 2.0])
def test_density_matrix_of_a_mixed_state(nbar):
    var = 2.0 * nbar + 1.0
    q = uniform_grid(-5.0, 5.0, 41)
    rho = density_matrix_from_marginal(thermal_marginal(nbar), q,
                                       small_config())
    qq, qp = q[:, None], q[None, :]
    want = np.exp(-(qq + qp) ** 2 / (4.0 * var) - var * (qq - qp) ** 2 / 4.0
                  ) / math.sqrt(math.pi * var)
    assert np.max(np.abs(rho.values - want)) <= 1e-13
    # purity 1 / var, up to the cut of the q box at +-5
    exact = DensityMatrixGrid(q, want.astype(complex))
    assert rho.purity() == pytest.approx(exact.purity(), abs=1e-13)
    assert rho.purity() == pytest.approx(1.0 / var, abs=1e-5)


@pytest.mark.parametrize("mu_range", [(8.0, -8.0), (-8.0, math.nan),
                                      (-8.0, 8.0, 3.0)])
def test_reconstruction_config_refuses_bad_mu_range(mu_range):
    with pytest.raises(ValueError, match="mu_range"):
        ReconstructionConfig(mu_range=mu_range)


def test_density_matrix_from_radon_table(cat_radon_source):
    q = uniform_grid(-4.0, 4.0, 33)
    psi = psi_oddcat(math.sqrt(2.0), 0.0)(q)
    want = np.outer(psi, np.conj(psi))
    rho = density_matrix_from_marginal(cat_radon_source, q, small_config())
    assert np.max(np.abs(rho.values - want)) < 1e-3
    assert rho.hermiticity_defect() < 1e-6


# ---------------------------------------------------------------------------
# moments


def test_moments_match_fock_oracle():
    x = uniform_grid(-18.0, 18.0, 2401)
    for state, kind in [(COHERENT_A, "coherent"), (CAT_TILTED, "oddcat")]:
        m = fock_moments(fock_coefficients(kind, state.q0, state.p0))
        cov = m["qp"] - m["q"] * m["p"]
        for params in PARAM_SET:
            mean, var = quadrature_moments(marginal_evaluator(state), params, x)
            want_mean = params.mu * m["q"] + params.nu * m["p"] + params.delta
            want_var = (params.mu ** 2 * (m["q2"] - m["q"] ** 2)
                        + params.nu ** 2 * (m["p2"] - m["p"] ** 2)
                        + 2.0 * params.mu * params.nu * cov)
            assert mean == pytest.approx(want_mean, abs=1e-8)
            assert var == pytest.approx(want_var, abs=1e-8)


def test_uncertainty_products():
    x = uniform_grid(-12.0, 12.0, 1501)
    assert uncertainty_product(marginal_evaluator(GROUND), x) == pytest.approx(
        0.25, abs=1e-9)
    assert uncertainty_product(marginal_evaluator(EXCITED_FIRST), x) == pytest.approx(
        2.25, abs=1e-8)
    assert uncertainty_product(marginal_evaluator(COHERENT_A), x) == pytest.approx(
        0.25, abs=1e-9)
    for state in (CAT_AXIS, CAT_TILTED):
        assert uncertainty_product(marginal_evaluator(state), x) > 0.25


@settings(max_examples=10, deadline=None)
@given(delta=st.floats(-2, 2, **finite), lam=st.floats(0.25, 4, **finite),
       flip=st.booleans())
def test_radon_slice_obeys_shift_identity(delta, lam, flip):
    x = uniform_grid(-6.0, 6.0, 61)
    w = wigner_evaluator(EXCITED_FIRST)
    shifted = radon_marginal(w, TomographyParams(0.8, 0.6, delta), x)
    base = radon_marginal(w, TomographyParams(0.8, 0.6), x - delta)
    assert np.max(np.abs(shifted.values - base.values)) < 1e-12
    # scaling law: w(lam X, lam mu, lam nu, lam delta) = w(X, mu, nu, delta) / |lam|
    lam, order = (-lam, slice(None, None, -1)) if flip else (lam, slice(None))
    scaled = radon_marginal(
        w, TomographyParams(0.8 * lam, 0.6 * lam, delta * lam), (x * lam)[order])
    assert np.max(np.abs(scaled.values[order] * abs(lam)
                         - shifted.values)) < 1e-12
