import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicSpline
from scipy.ndimage import map_coordinates, spline_filter

from oracles import (
    chi_oracle,
    fock_coefficients,
    fock_moments,
    psi_coherent,
    psi_oddcat,
)
from tomoflow.evolution import (
    PotentialSpec,
    SolverConfig,
    evolve_characteristics,
    evolve_pde,
    evolve_wigner_reference,
    reduce_equation,
)
from tomoflow.fields import (
    MU_EDGE_LIMIT,
    DensityMatrixGrid,
    ReconstructionConfig,
    TomographyParams,
    trapezoid_weights,
    uniform_grid,
)
from tomoflow.states import (
    CATALOG,
    EXCITED_FIRST,
    GROUND,
    StateKind,
    StateSpec,
    marginal_evaluator,
    sample_marginal_field,
    sample_wigner_field,
    wigner_evaluator,
)
from tomoflow.tomography import (
    CALLABLE_Y_GRID,
    FieldMarginalSource,
    RadonMarginalEvaluator,
    UnitSliceSource,
    _fourier_rows,
    _line_integrals,
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
    want = marginal_evaluator(state)(x, params.mu, params.nu, params.delta)
    assert np.max(np.abs(got.values - want)) < 1e-8


@pytest.mark.parametrize("state", [GROUND, CAT_AXIS])
def test_radon_projection_from_sampled_field(state):
    field = sample_wigner_field(state)
    params = TomographyParams(0.6, 0.8)
    x = uniform_grid(-6.0, 6.0, 121)
    got = radon_marginal(field, params, x)
    want = marginal_evaluator(state)(x, params.mu, params.nu, params.delta)
    assert np.max(np.abs(got.values - want)) < 2e-3


def test_radon_projection_field_error_shrinks_with_grid():
    params = TomographyParams(0.8, -0.6, 0.3)
    x = uniform_grid(-6.0, 6.0, 121)
    want = marginal_evaluator(EXCITED_FIRST)(x, params.mu, params.nu,
                                             params.delta)
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
            want = marginal_evaluator(COHERENT_A)(x, mu[i], nu[j])
            assert np.max(np.abs(field.values[i, j] - want)) < 1e-8, (i, j)


def test_marginal_field_from_wigner_reports_where_the_line_window_cuts():
    # The same cut as radon_marginal's below, over a whole box: its largest
    # line edge is 3.5e-2.  The catalog states have decayed at the line ends.
    d = uniform_grid(-1.5, 1.5, 7)
    x = uniform_grid(-6.0, 6.0, 61)
    evolved = evolve_wigner_reference(wigner_evaluator(EXCITED_FIRST),
                                      PotentialSpec.linear(-1.0), 2.0)
    cut = marginal_field_from_wigner(evolved, d, d, x)
    assert cut.meta["line_edge"] > 1e-2
    assert len(cut.warnings) == 1 and "line window" in cut.warnings[0]
    for state in CATALOG.values():
        field = marginal_field_from_wigner(wigner_evaluator(state), d, d, x)
        assert field.warnings == ()
        assert field.meta["line_edge"] <= MU_EDGE_LIMIT


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


def assert_mirrored_table(got, want):
    """The integrated first half of a table equals the fixed-step rows
    `want` to 1e-15 of their maximum, and the second half is the first
    reversed, bit for bit.  (Against the fixed-step kernel at phi + pi the
    mirrored rows differ by the rounding of the rotated line points: up to
    3.8e-14 of the maximum on a bilinearly sampled field.)"""
    half = len(want)
    assert len(got) == 2 * half
    assert np.max(np.abs(got[:half] - want)) <= 1e-15 * np.max(np.abs(want))
    assert np.array_equal(got[half:], got[:half, ::-1])


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
    # The grid is symmetric, so rows 4-7 are rows 0-3 reversed (half turn).
    wide = StateSpec(StateKind.ODD_CAT, q0=4.0, p0=0.0)
    y = uniform_grid(-12.0, 12.0, 161)
    source, got = radon_table(wigner_evaluator(wide), 8, y)
    want = fixed_grid_line_integrals(wigner_evaluator(wide), source.phi_grid[:4], y)
    assert_mirrored_table(got, want)
    assert source.line_steps.tolist() == [0.16, 0.04, 0.04, 0.04] * 2


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
                                     source.phi_grid[:18], y)
    assert_mirrored_table(got, want)
    assert np.all(source.line_steps == 0.04)


def counting_wigner(wigner):
    """W(q, p) that records how many points each call evaluates."""
    calls = []

    def counted(q, p):
        calls.append(np.broadcast(q, p).size)
        return wigner(q, p)

    return counted, calls


def test_radon_table_integrates_half_a_turn_on_a_symmetric_grid():
    # linspace(-12, 12, 161) is symmetric to 1 ulp, not exactly; the test
    # that admits it is the one chi applies to its a and b grids.
    y = np.linspace(-12.0, 12.0, 161)
    counted, calls = counting_wigner(wigner_evaluator(CAT_TILTED))
    phis = np.linspace(0.0, 2.0 * math.pi, 8, endpoint=False)
    full, steps, edges, _ = _line_integrals(counted, phis, y)
    full_points = sum(calls)
    calls.clear()
    source = RadonMarginalEvaluator(counted, n_phi=8, y_grid=y)
    assert 2 * sum(calls) == full_points
    got = source.unit_slices(source.phi_grid)
    assert np.array_equal(got[:4], full[:4])
    assert np.array_equal(got[4:], got[:4, ::-1])
    assert np.max(np.abs(got - full)) <= 1e-14 * np.max(np.abs(full))
    assert np.array_equal(source.line_steps, np.tile(steps[:4], 2))
    assert np.array_equal(source.line_edges, np.tile(edges[:4], 2))


@pytest.mark.parametrize("n_phi, y", [
    (9, uniform_grid(-3.0, 3.0, 31)),
    (8, uniform_grid(-3.0, 4.0, 36)),
], ids=["odd-n_phi", "asymmetric-y"])
def test_radon_table_integrates_every_angle_elsewhere(n_phi, y):
    # A Gaussian too wide for the line window: every row runs to the full
    # 401-point grid, so the count is exact and the fixed-step sum is the
    # reference at rounding.
    counted, calls = counting_wigner(lambda q, p: np.exp(-(q * q + p * p) / 50.0))
    source, got = radon_table(counted, n_phi, y)
    assert sum(calls) == n_phi * y.size * 401
    want = fixed_grid_line_integrals(counted, source.phi_grid, y)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))


def test_radon_marginal_reports_where_the_line_window_cuts():
    # Under linear:-1 to t = 2 the shear carries excited1 past the ends of
    # the +-8 line window at this direction (line edge 3.7e-2, and the
    # slice is 1.9e-2 of max|w| off the exact marginal).
    params = TomographyParams(1.5 * math.cos(2.27), 1.5 * math.sin(2.27))
    x = np.linspace(-6.0, 6.0, 61)
    evolved = evolve_wigner_reference(wigner_evaluator(EXCITED_FIRST),
                                      PotentialSpec.linear(-1.0), 2.0)
    cut = radon_marginal(evolved, params, x)
    assert cut.meta["line_edge"] > 1e-2
    assert cut.meta["line_step"] == 0.04
    assert len(cut.warnings) == 1 and "line window" in cut.warnings[0]
    for state in CATALOG.values():
        sl = radon_marginal(wigner_evaluator(state), params, x)
        assert sl.warnings == ()
        assert sl.meta["line_edge"] <= MU_EDGE_LIMIT


def test_radon_line_steps_are_read_only():
    source = RadonMarginalEvaluator(wigner_evaluator(GROUND), n_phi=8,
                                    y_grid=uniform_grid(-6.0, 6.0, 41))
    assert source.line_steps.shape == (8,)
    with pytest.raises(AttributeError):
        source.line_steps = np.zeros(8)
    with pytest.raises(ValueError):
        source.line_steps[0] = 1.0


def test_radon_line_edges_show_where_the_window_cuts():
    # The odd cat at (5, 0) has not decayed at the ends of l in [-8, 8]
    # along the angles that cross its components; the catalog states have.
    y = uniform_grid(-12.0, 12.0, 161)
    far = StateSpec(StateKind.ODD_CAT, q0=5.0, p0=0.0)
    source = RadonMarginalEvaluator(wigner_evaluator(far), n_phi=8, y_grid=y)
    assert np.max(source.line_edges) > 1e-6
    for state in CATALOG.values():
        source = RadonMarginalEvaluator(wigner_evaluator(state), n_phi=8,
                                        y_grid=y)
        assert np.max(source.line_edges) <= np.finfo(float).eps
    with pytest.raises(AttributeError):
        source.line_edges = np.zeros(8)
    with pytest.raises(ValueError):
        source.line_edges[0] = 1.0


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
        want = marginal_evaluator(CAT_AXIS)(x, params.mu, params.nu,
                                            params.delta)
        assert np.max(np.abs(got - want)) < 1e-4


def test_radon_evaluator_zero_outside_table(cat_radon_source):
    out = cat_radon_source(np.array([-25.0, 25.0, np.nan]), 1.0, 0.0)
    assert np.all(out == 0.0)


def test_unit_slice_source_broadcasts_over_directions(cat_radon_source):
    x = uniform_grid(-7.0, 7.0, 141)
    mu = np.array([1.0, -0.35, 0.2, 1.0, 0.0])[:, None]
    nu = np.array([0.0, 0.6, -1.3, 0.0, -0.4])[:, None]
    delta = np.array([0.0, 0.3, -0.8, 0.5, 0.0])[:, None]
    got = cat_radon_source(x, mu, nu, delta)
    want = np.array([cat_radon_source(x, m, n, d) for m, n, d
                     in zip(mu.ravel(), nu.ravel(), delta.ravel())])
    assert got.shape == (5, x.size)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    with pytest.raises(ValueError, match="degenerate direction"):
        cat_radon_source(x, np.array([1.0, 0.0]), np.array([0.0, 0.0]))
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


def ground_with_one_per_row(bad):
    """The ground-state marginal with its first value in every row set to bad."""
    ground = marginal_evaluator(GROUND)

    def broken(x, mu, nu, delta=0.0):
        values = np.array(np.broadcast_to(ground(x, mu, nu, delta),
                                          np.broadcast_shapes(np.shape(x), np.shape(mu))))
        values[..., 0] = bad
        return values

    return broken


def test_chi_and_rho_refuse_a_source_with_non_finite_values():
    # One NaN per unit-direction row of a callable: every row of chi and
    # rho would turn NaN, so the source is refused where it enters.
    broken = ground_with_one_per_row(np.nan)
    grid = uniform_grid(-2.0, 2.0, 9)
    with pytest.raises(ValueError, match="non-finite"):
        characteristic_from_marginal(broken, grid, grid)
    with pytest.raises(ValueError, match="non-finite"):
        density_matrix_from_marginal(broken, grid, ReconstructionConfig(mu_samples=21))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_moments_refuse_a_source_with_non_finite_values(bad):
    # The moments of such a slice would be NaN; it is refused as chi and
    # rho refuse it.
    broken = ground_with_one_per_row(bad)
    message = "marginal source gives non-finite values"
    with pytest.raises(ValueError, match=message):
        quadrature_moments(broken, TomographyParams(1.0, 0.0))
    with pytest.raises(ValueError, match=message):
        uncertainty_product(broken)


# ---------------------------------------------------------------------------
# the numpy interpolation kernels against the scipy routines they replace


class TableSource(UnitSliceSource):
    """A unit-slice source over a given (n_phi, n_y) table."""

    def __init__(self, table, y_grid):
        self.y_grid = y_grid
        self._build(np.linspace(0.0, 2.0 * math.pi, table.shape[0],
                                endpoint=False), table, (), {})


@pytest.fixture(scope="module")
def tilted_table_source():
    y = uniform_grid(-12.0, 12.0, 401)
    phis = np.linspace(0.0, 2.0 * math.pi, 90, endpoint=False)
    table = fixed_grid_line_integrals(wigner_evaluator(CAT_TILTED), phis, y)
    return TableSource(table, y), table


def test_phi_spline_matches_periodic_cubic_spline(tilted_table_source):
    source, table = tilted_table_source
    phi = source.phi_grid
    oracle = CubicSpline(np.append(phi, 2.0 * math.pi),
                         np.vstack([table, table[:1]]), axis=0,
                         bc_type="periodic")
    assert np.array_equal(source.unit_slices(phi), oracle(phi))
    step = phi[1]
    rng = np.random.default_rng(3)
    off = np.concatenate([phi + 0.37 * step, -phi - 0.61 * step,
                          phi + 2.0 * math.pi + 0.5 * step,
                          rng.uniform(-20.0, 20.0, 200)])
    want = oracle(np.mod(off, 2.0 * math.pi))
    assert (np.max(np.abs(source.unit_slices(off) - want))
            <= 1e-14 * np.max(np.abs(want)))
    # one angle gives one row
    assert source.unit_slices(phi[3] + 0.2 * step).shape == (table.shape[1],)


def index_coords(grid, values):
    """Index coordinates of values on a uniform grid, as map_coordinates reads them."""
    return (values - grid[0]) / ((grid[-1] - grid[0]) / (grid.size - 1))


def field_table_oracle(field):
    """FieldMarginalSource's table as scipy reads the clamped-end spline of
    the unpadded direction plane, one X at a time."""
    reach = min(field.mu_grid[-1], -field.mu_grid[0],
                field.nu_grid[-1], -field.nu_grid[0])
    radius = 0.75 * reach
    phi = np.linspace(0.0, 2.0 * math.pi, 360, endpoint=False)
    coords = np.stack([index_coords(field.mu_grid, radius * np.cos(phi)),
                       index_coords(field.nu_grid, radius * np.sin(phi))])
    table = np.empty((phi.size, field.x_grid.size))
    for k in range(field.x_grid.size):
        coeffs = spline_filter(field.values[:, :, k], order=3, mode="nearest")
        table[:, k] = map_coordinates(coeffs, coords, order=3, prefilter=False,
                                      mode="nearest")
    return table * radius


@pytest.mark.parametrize("mu_grid, nu_grid", [
    (uniform_grid(-1.5, 1.5, 41), uniform_grid(-1.5, 1.5, 41)),
    (uniform_grid(-1.5, 1.5, 33), uniform_grid(-1.2, 2.0, 57)),
], ids=["square", "asymmetric"])
def test_field_source_table_matches_map_coordinates(mu_grid, nu_grid):
    field = sample_marginal_field(CAT_TILTED, mu_grid, nu_grid,
                                  uniform_grid(-8.0, 8.0, 161))
    source = FieldMarginalSource(field)
    want = field_table_oracle(field)
    got = source.unit_slices(source.phi_grid)
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))


def test_bilinear_sampler_matches_map_coordinates():
    q_grid = uniform_grid(-6.0, 6.0, 161)
    p_grid = uniform_grid(-5.0, 7.0, 121)
    field = sample_wigner_field(CAT_TILTED, q_grid, p_grid)
    rng = np.random.default_rng(5)
    q = rng.uniform(-7.0, 7.0, 20000)
    p = rng.uniform(-6.0, 8.0, 20000)
    # points on each edge of the box, and just beyond it
    q[:40] = np.repeat([q_grid[0], q_grid[-1]], 20)
    p[:40] = rng.uniform(p_grid[0], p_grid[-1], 40)
    p[40:80] = np.repeat([p_grid[0], p_grid[-1]], 20)
    q[40:80] = rng.uniform(q_grid[0], q_grid[-1], 40)
    q[80:84] = [q_grid[0] - 1e-12, q_grid[-1] + 1e-12, q_grid[0], 0.1]
    p[80:84] = [0.1, 0.1, p_grid[-1] + 1e-12, p_grid[0] - 1e-12]
    got = wigner_field_sampler(field)(q, p)
    coords = np.stack([index_coords(q_grid, q), index_coords(p_grid, p)])
    want = map_coordinates(field.values, coords, order=1, mode="constant",
                           cval=0.0)
    assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want))
    # Summed in scipy's order, almost every value is bit-identical (0.8 of
    # them when the two weights are multiplied first).
    assert np.mean(got == want) >= 0.99
    outside = ((q < q_grid[0]) | (q > q_grid[-1])
               | (p < p_grid[0]) | (p > p_grid[-1]))
    assert outside[80:84].all() and not outside[:80].any()
    assert np.all(got[outside] == 0.0)


def test_y_spline_matches_not_a_knot_cubic_spline(tilted_table_source):
    source, _ = tilted_table_source
    x = uniform_grid(-6.0, 6.0, 301)
    for phi in np.linspace(0.1, 2.0 * math.pi + 0.1, 7, endpoint=False):
        for r in (1.0, 0.7, 0.3):
            mu, nu = r * math.cos(phi), r * math.sin(phi)
            row = source.unit_slices(math.atan2(nu, mu))
            # |x| / r <= 6 / 0.3 = 20 leaves the [-12, 12] table: those
            # queries are 0 on both sides
            want = np.nan_to_num(CubicSpline(source.y_grid, row,
                                             extrapolate=False)(x / r)) / r
            got = source(x, mu, nu)
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


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


@settings(max_examples=60, deadline=None)
@given(half=st.integers(8, 600), odd=st.booleans(),
       lo=st.floats(-20.0, -1.0), hi=st.floats(1.0, 20.0),
       symmetric=st.booleans(),
       freq=st.lists(st.floats(-30.0, 30.0), min_size=1, max_size=8),
       seed=st.integers(0, 2**32 - 1))
def test_fourier_rows_property(half, odd, lo, hi, symmetric, freq, seed):
    # The recurrence phases against a dense exp(i f y) kernel with the same
    # trapezoid weights, relative to each row's trapezoid L1 mass.  Worst
    # measured over 20,000 random draws of these ranges: 3.4e-14; the bound
    # leaves a margin of 4.
    n = 2 * half + odd
    y = uniform_grid(lo, -lo if symmetric else hi, n)
    freq = np.array(freq)
    rows = np.random.default_rng(seed).standard_normal((freq.size, n))
    weights = trapezoid_weights(y) * rows
    want = np.sum(weights * np.exp(1j * np.multiply.outer(freq, y)), axis=1)
    got = _fourier_rows(rows, freq, y)
    assert np.all(np.abs(got - want) <= 1.5e-13 * np.sum(np.abs(weights), axis=1))


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


# An "asymmetric" source runs on a grid with no mirrored pair of a-rows,
# where chi integrates every row instead of half of them.
SOURCES = ["radon", "closed", "radon-asymmetric", "closed-asymmetric"]


def dense_kernel_source(source, cat_radon_source):
    return (cat_radon_source if source.startswith("radon")
            else marginal_evaluator(CAT_TILTED))


@pytest.mark.parametrize("source", SOURCES)
def test_characteristic_matches_dense_kernel(source, cat_radon_source):
    marginal = dense_kernel_source(source, cat_radon_source)
    a = (uniform_grid(-7.0, 10.0, 18) if source.endswith("asymmetric")
         else uniform_grid(-10.0, 10.0, 21))
    b = uniform_grid(-9.0, 9.0, 19)
    chi = characteristic_from_marginal(marginal, a, b)
    assert np.max(np.abs(chi.values - dense_chi(marginal, a, b))) <= 1e-13


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("s", [1.0, 2.0, -2.0, 1.7, -0.6])
def test_density_matrix_matches_dense_kernel(source, s, cat_radon_source):
    marginal = dense_kernel_source(source, cat_radon_source)
    mu_range = (-6.0, 9.0) if source.endswith("asymmetric") else (-8.0, 8.0)
    q = uniform_grid(-4.0, 4.0, 17)
    config = ReconstructionConfig(mu_range=mu_range, s=s, mu_samples=101)
    rho = density_matrix_from_marginal(marginal, q, config)
    assert np.max(np.abs(rho.values - dense_rho(marginal, q, config))) <= 1e-13


def test_chi_evaluates_the_marginal_on_one_half_plane():
    base = marginal_evaluator(COHERENT_A)
    calls = []

    def counting(x, mu, nu, delta=0.0):
        calls.append(np.broadcast(x, mu, nu).size)
        return base(x, mu, nu, delta)

    chi = characteristic_from_marginal(counting)
    # the default grids are mirror-symmetric: ceil(n_a / 2) rows are read
    half = -(-chi.a_grid.size // 2)
    assert sum(calls) == half * chi.b_grid.size * CALLABLE_Y_GRID.size
    aa, bb = np.meshgrid(chi.a_grid, chi.b_grid, indexing="ij")
    assert np.max(np.abs(chi.values - chi_coherent(aa, bb, 1.2, -0.7))) < 1e-8
    calls.clear()
    # an a grid that is not mirrored reads every row
    chi = characteristic_from_marginal(counting, uniform_grid(-7.0, 10.0, 18))
    assert sum(calls) == (chi.a_grid.size * chi.b_grid.size
                          * CALLABLE_Y_GRID.size)


@functools.lru_cache(maxsize=None)
def parity_source(kind, name):
    """A marginal source of the catalog state `name`, built once."""
    state = CATALOG[name]
    if kind == "radon":
        return RadonMarginalEvaluator(wigner_evaluator(state), n_phi=90,
                                      y_grid=uniform_grid(-12.0, 12.0, 401))
    if kind == "closed":
        return marginal_evaluator(state)
    grid = uniform_grid(-1.5, 1.5, 33)
    field = sample_marginal_field(state, grid, grid, uniform_grid(-8.0, 8.0, 161))
    if kind == "evolved":
        field, = evolve_pde(field, reduce_equation(PotentialSpec.linear(0.5)),
                            SolverConfig(), [1.3])
    return FieldMarginalSource(field)


# chi and rho take the other half-plane from w(y; phi + pi) = w(-y; phi), so
# every source kind must keep it on its own symmetric y grid.
@settings(max_examples=12, deadline=None)
@given(name=st.sampled_from(sorted(CATALOG)), phi=st.floats(-7.0, 7.0, **finite))
@pytest.mark.parametrize("kind", ["radon", "sampled", "evolved", "closed"])
def test_sources_keep_the_parity_of_a_half_turn(kind, name, phi):
    source = parity_source(kind, name)
    phis = np.array([phi, phi + math.pi])
    if kind == "closed":
        y = CALLABLE_Y_GRID
        rows = source(y[None, :], np.cos(phis)[:, None], np.sin(phis)[:, None], 0.0)
    else:
        rows = source.unit_slices(phis)
    assert np.max(np.abs(rows[1] - rows[0, ::-1])) <= 1e-13 * np.max(np.abs(rows[0]))


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
    marginal = marginal_evaluator(CAT_TILTED, t, PotentialSpec.free())
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
    assert np.max(np.abs(chi.values[::-1, ::-1] - np.conj(chi.values))) < 1e-12


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
    config = small_config(mu_range=(-8.0, 8.0))
    rho = density_matrix_from_marginal(marginal_evaluator(off_axis), q, config)
    assert [w.split(":")[0] for w in rho.warnings] == ["chi truncated",
                                                       "rho truncated"]
    assert "0.000474" in rho.warnings[0] and "1e-05" in rho.warnings[0]
    # q in +-4 cuts both cats; only the off-axis one outruns the mu_range
    on_axis = density_matrix_from_marginal(marginal_evaluator(CAT_AXIS), q,
                                           config)
    assert [w.split(":")[0] for w in on_axis.warnings] == ["rho truncated"]


def test_density_matrix_warns_when_its_q_window_cuts_the_state():
    # The default q window, +-5, holds every catalog state at t = 0: the
    # largest diagonal end is 2.7e-6 of the maximum (odd cat).  Freely
    # evolved to t = 2 the odd cat spreads past it (trace 0.98754), and
    # the ends reach 4.9e-2.  A 21-node q grid has the default's ends.
    q = uniform_grid(-5.0, 5.0, 21)
    for name in CATALOG:
        rho = density_matrix_from_marginal(marginal_evaluator(CATALOG[name]), q)
        assert rho.meta["q_edge"] <= 3e-6 and rho.warnings == (), name
    spread = evolve_characteristics(marginal_evaluator(CATALOG["oddcat"]),
                                    PotentialSpec.free(), 2.0)
    rho = density_matrix_from_marginal(spread, q)
    diagonal = np.abs(np.diagonal(rho.values))
    assert rho.meta["q_edge"] == max(diagonal[[0, -1]]) / diagonal.max() > 4e-2
    assert rho.warnings == (
        f"rho truncated: |rho(q, q)| at the q_grid ends is "
        f"{rho.meta['q_edge']:.3g} of its maximum, above 1e-05",)


# A 41-point grid keeps the default window, a, b in [-10, 10], and its edges.
CHI_WINDOW = uniform_grid(-10.0, 10.0, 41)


@pytest.mark.parametrize("t", [1.0, 2.0])
def test_chi_warns_when_its_window_cuts_an_evolved_source(t):
    # Free motion shears chi along b = -a t, so the window cuts the evolved
    # odd cat: |chi| on its edges is 9.3e-4 (t = 1) and 4.4e-2 (t = 2) of
    # the maximum, and W from the default grid is off by 3.9e-4 and 2.5e-2.
    source = evolve_characteristics(marginal_evaluator(CATALOG["oddcat"]),
                                    PotentialSpec.free(), t)
    chi = characteristic_from_marginal(source, CHI_WINDOW, CHI_WINDOW)
    size = np.abs(chi.values)
    edge = max(size[[0, -1]].max(), size[:, [0, -1]].max()) / size.max()
    assert chi.meta["edge"] == edge > 5e-4
    assert len(chi.warnings) == 1
    assert f"{edge:.3g}" in chi.warnings[0] and "1e-05" in chi.warnings[0]
    assert chi.warnings[0] in wigner_from_characteristic(chi).warnings


@pytest.mark.parametrize("name", list(CATALOG))
def test_chi_of_a_static_catalog_state_stays_inside_its_window(name):
    # The largest edge ratio of the catalog is the odd cat's, 1.5e-6.
    chi = characteristic_from_marginal(marginal_evaluator(CATALOG[name]),
                                       CHI_WINDOW, CHI_WINDOW)
    assert chi.meta["edge"] <= 2e-6
    assert chi.warnings == ()
    assert wigner_from_characteristic(chi).warnings == ()


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


def test_thermal_state_through_rho_and_wigner():
    """The thermal state with mean occupation n = 0.5 (v = 2n + 1) on the
    default grids: rho is the Mehler kernel with purity 1/v and spectrum
    (1/(n+1)) (n/(n+1))^k, and chi -> W is the Gaussian (2/v) e^(-(q^2+p^2)/v).
    roundtrip_report's density-purity assumes a pure state, so it would
    fail this correct reconstruction; checks that hold for mixed states
    are ROADMAP item 20."""
    nbar, var = 0.5, 2.0
    a = 1.0 / var
    rho = density_matrix_from_marginal(thermal_marginal(nbar))
    qq, qp = rho.q_grid[:, None], rho.q_grid[None, :]
    mehler = math.sqrt(a / math.pi) * np.exp(-(qq + qp) ** 2 * a / 4.0
                                             - (qq - qp) ** 2 / (4.0 * a))
    assert np.max(np.abs(rho.values - mehler)) <= 1e-12
    assert rho.purity() == pytest.approx(0.5, abs=1e-8)
    largest = rho.eigenvalues()[::-1][:4]
    geometric = (nbar / (nbar + 1.0)) ** np.arange(4) / (nbar + 1.0)
    assert np.max(np.abs(largest - geometric)) <= 1e-8
    # the q window +-5 cuts 5.9e-7 of the mass, below the warning
    assert rho.trace() == pytest.approx(1.0, abs=1e-6)
    assert rho.warnings == ()
    wigner = wigner_from_characteristic(
        characteristic_from_marginal(thermal_marginal(nbar)))
    q, p = wigner.q_grid[:, None], wigner.p_grid[None, :]
    gaussian = 2.0 / var * np.exp(-(q * q + p * p) / var)
    assert np.max(np.abs(wigner.values - gaussian)) <= 1e-12
    # at n = 1 the diagonal's ends reach 2.4e-4 of its maximum
    hotter = density_matrix_from_marginal(thermal_marginal(1.0))
    assert [w.split(":")[0] for w in hotter.warnings] == ["rho truncated"]


@pytest.mark.parametrize("mu_range", [(8.0, -8.0), (-8.0, math.nan),
                                      (-8.0, 8.0, 3.0)])
def test_reconstruction_config_refuses_bad_mu_range(mu_range):
    with pytest.raises(ValueError, match="mu_range"):
        ReconstructionConfig(mu_range=mu_range)


@pytest.mark.parametrize("mu_samples", [50.5, math.nan, True, "801"])
def test_reconstruction_config_refuses_non_integral_mu_samples(mu_samples):
    with pytest.raises(ValueError, match="mu_samples must be an integer"):
        ReconstructionConfig(mu_samples=mu_samples)


def test_reconstruction_config_takes_integral_float_mu_samples():
    config = ReconstructionConfig(mu_samples=501.0)
    assert config.mu_samples == 501 and type(config.mu_samples) is int
    assert config == ReconstructionConfig(mu_samples=501)


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
