"""Transforms between Wigner functions, marginal families and density matrices.

Conventions (hbar = 1, phase-space measure dq dp / 2pi):

    w(X, mu, nu, delta) = (1/2pi) Int W(q, p) delta(X - mu q - nu p - delta) dq dp
    chi(a, b)           = Int w(X, a, b, 0) exp(i X) dX
    W(q, p)             = (1/2pi) Int chi(a, b) exp(-i a q - i b p) da db
    rho(q, q')          = (|s|/2pi) Int dmu Int dY w(Y, mu, (q - q')/s, 0)
                                    exp(i s Y) exp(-i s mu (q + q') / 2)

The density-matrix integral is independent of the scale s != 0; keeping s
explicit allows that invariance to be checked numerically.  Every inverse
here consumes a "marginal source": any callable w(x, mu, nu, delta) that
broadcasts over numpy arrays.  Closed-form evaluators from `states` and the
interpolating `RadonMarginalEvaluator` both qualify.

All scans of the direction plane use the exact scaling law
w(X, mu, nu, 0) = (1/r) w(X/r, mu/r, nu/r, 0), r = |(mu, nu)|, so only unit
directions are ever integrated and the r -> 0 region costs no accuracy.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.ndimage import map_coordinates

from .fields import (
    DEFAULT_PHASE_GRID,
    DEFAULT_X_GRID,
    CharacteristicGrid,
    DensityMatrixGrid,
    MarginalField,
    MarginalSlice,
    ReconstructionConfig,
    TomographyParams,
    WignerField,
    check_uniform,
    grid_step,
    trapezoid_weights,
    uniform_grid,
)

TWO_PI = 2.0 * math.pi
DEFAULT_Y_GRID = uniform_grid(-12.0, 12.0, 1201)
# Arc length l of every Radon line integral, in absolute phase-space units:
# wide enough for the catalog states' Wigner functions to vanish at its
# ends.  Its step 0.04 is the finest of the nested trapezoid levels, whose
# strides on this grid are 8, 4, 2, 1 (steps 0.32, 0.16, 0.08, 0.04).
_LINE_GRID = np.linspace(-8.0, 8.0, 401)
_LINE_STRIDE = 8
# A row settles when two successive levels agree to this fraction of its
# largest value.  On an analytic integrand with Gaussian decay the trapezoid
# error falls like exp(-c / h^2), so halving h raises it to about the fourth
# power: a change of 1e-12 leaves the finer level at rounding.  The bound is
# far enough above the rounding of a 401-point sum (~1e-16) that a settled
# row is not kept refining by noise.  The argument needs W to have decayed
# to rounding (machine epsilon of the row's largest value) at both line
# ends; where the window cuts W, the error is the Euler-Maclaurin end term
# ~h^2, a 1e-12 change can leave 3e-13, and only the full grid reproduces
# the 0.04 sum.
_SETTLE_RTOL = 1e-12
_EPS = np.finfo(float).eps
MU_EDGE_LIMIT = 1e-5  # largest |F| at the mu_range ends, relative to max |F|


def wigner_field_sampler(field: WignerField):
    """Bilinear sampler for a gridded Wigner function; zero outside the box."""
    q0, p0 = field.q_grid[0], field.p_grid[0]
    hq, hp = grid_step(field.q_grid), grid_step(field.p_grid)

    def sample(q, p):
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        coords = np.broadcast_arrays((q - q0) / hq, (p - p0) / hp)
        return map_coordinates(field.values, np.stack(coords), order=1,
                               mode="constant", cval=0.0)

    return sample


def _line_integrals(wigner, phis, y) -> tuple[np.ndarray, np.ndarray]:
    """Unit-direction marginal rows, one per angle in phis:

        (1/2pi) Int W(y cos phi - l sin phi, y sin phi + l cos phi) dl

    by nested trapezoid halving on _LINE_GRID.  Each row starts on the
    sub-grid of stride _LINE_STRIDE, adds only the new midpoints at each
    halving, and stops at the first level that agrees with the one before
    it to _SETTLE_RTOL of the row's maximum, provided W has decayed to
    rounding at both line ends; a row that never settles ends on the full
    grid.  A WignerField is sampled bilinearly, which the convergence
    argument does not cover, so its rows use the full grid.
    ``y`` is one abscissa row shared by all angles or one row per angle.
    Returns the (angle, y) table and the line step each row ended at.
    """
    field = isinstance(wigner, WignerField)
    sample = wigner_field_sampler(wigner) if field else wigner
    first = 1 if field else _LINE_STRIDE
    y = np.broadcast_to(y, (len(phis), np.shape(y)[-1]))
    table = np.empty(y.shape)
    steps = np.empty(len(phis))
    for k, phi in enumerate(phis):
        c, s = math.cos(phi), math.sin(phi)

        def line(l):
            return sample(y[k][:, None] * c - l[None, :] * s,
                          y[k][:, None] * s + l[None, :] * c)

        stride = first
        values = line(_LINE_GRID[::stride])
        h = stride * grid_step(_LINE_GRID)
        ends = values[:, [0, -1]]
        row = h * (values.sum(axis=1) - 0.5 * ends.sum(axis=1))
        decayed = np.max(np.abs(ends)) <= _EPS * np.max(np.abs(row))
        while stride > 1:
            stride //= 2
            h *= 0.5
            finer = 0.5 * row + h * line(_LINE_GRID[stride::2 * stride]).sum(axis=1)
            settled = (np.max(np.abs(finer - row))
                       <= _SETTLE_RTOL * np.max(np.abs(finer)))
            row = finer
            if decayed and settled:
                break
        table[k] = row / TWO_PI
        steps[k] = h
    return table, steps


def radon_marginal(wigner, params: TomographyParams,
                   x_grid: np.ndarray | None = None) -> MarginalSlice:
    """Project a Wigner function onto the marginal of mu q + nu p + delta.

    ``wigner`` is a callable W(q, p) or a WignerField (sampled bilinearly,
    zero outside its box).  The unit-direction row at y = (X - delta) / r
    is divided by r (scaling law).
    """
    x_grid = DEFAULT_X_GRID if x_grid is None else np.asarray(x_grid, dtype=float)
    r = params.r
    if r == 0.0:
        raise ValueError("degenerate direction: mu and nu both zero")
    table, _ = _line_integrals(wigner, [math.atan2(params.nu, params.mu)],
                               (x_grid - params.delta) / r)
    return MarginalSlice(params, x_grid, table[0] / r)


def marginal_field_from_wigner(wigner, mu_grid: np.ndarray, nu_grid: np.ndarray,
                               x_grid: np.ndarray) -> MarginalField:
    """Radon-project a Wigner function over a whole (mu, nu, X) box.

    Cost grows as n_mu * n_nu * n_x * n_line, with n_line the line points
    a cell's row needs: 101 for a callable whose rows settle at step 0.16
    (every catalog state), up to 401 for rows that do not and for a
    WignerField; intended for moderate grids.
    The degenerate (0, 0) cell, if present, is stored as zero.
    """
    mu_grid = np.asarray(mu_grid, dtype=float)
    nu_grid = np.asarray(nu_grid, dtype=float)
    x_grid = np.asarray(x_grid, dtype=float)
    r = np.hypot(mu_grid[:, None], nu_grid[None, :]).ravel()
    phis = np.arctan2(nu_grid[None, :], mu_grid[:, None]).ravel()
    cells = r > 0.0
    values = np.zeros((r.size, x_grid.size))
    table, _ = _line_integrals(wigner, phis[cells], x_grid / r[cells, None])
    values[cells] = table / r[cells, None]
    return MarginalField(mu_grid, nu_grid, x_grid,
                         values.reshape(mu_grid.size, nu_grid.size, -1))


class UnitSliceSource:
    """Marginal source reduced to a table of unit-direction slices.

    Subclasses fill a (n_phi, n_y) table of w(y, cos phi, sin phi, 0)
    rows; arbitrary (x, mu, nu, delta) queries reduce to it through the
    shift and scaling identities, interpolating with a periodic cubic
    spline in phi and a cubic spline in y.  Queries with |X - delta| / r
    outside the y table return 0.
    """

    def _build(self, phi_grid: np.ndarray, table: np.ndarray):
        if not np.all(np.isfinite(table)):
            raise ValueError(f"{type(self).__name__}: non-finite unit-slice table")
        phi_ext = np.concatenate([phi_grid, [TWO_PI]])
        table_ext = np.vstack([table, table[:1]])
        self.phi_grid = phi_grid
        self._phi_spline = CubicSpline(phi_ext, table_ext, axis=0,
                                       bc_type="periodic")

    def unit_slices(self, phis) -> np.ndarray:
        """Rows w(y, cos phi, sin phi, 0) on self.y_grid, one per angle."""
        return self._phi_spline(np.mod(np.asarray(phis, dtype=float), TWO_PI))

    def __call__(self, x, mu, nu, delta=0.0):
        x = np.asarray(x, dtype=float)
        mu_arr = np.atleast_1d(np.asarray(mu, dtype=float))
        if mu_arr.size > 1 or np.ndim(mu) > 0:
            raise ValueError("this source evaluates one direction per call")
        mu = float(mu_arr[0])
        nu = float(np.asarray(nu).reshape(()))
        r = math.hypot(mu, nu)
        if r == 0.0:
            raise ValueError("degenerate direction: mu and nu both zero")
        row = self.unit_slices(math.atan2(nu, mu))
        y = (x - delta) / r
        spline = CubicSpline(self.y_grid, row, extrapolate=False)
        vals = np.nan_to_num(spline(y), nan=0.0)
        return vals / r


class RadonMarginalEvaluator(UnitSliceSource):
    """Marginal source backed by Radon projections of a Wigner function."""

    def __init__(self, wigner, *, n_phi: int = 360,
                 y_grid: np.ndarray | None = None):
        self.y_grid = DEFAULT_Y_GRID if y_grid is None else np.asarray(y_grid, dtype=float)
        check_uniform(self.y_grid, "y_grid")
        if n_phi < 8:
            raise ValueError("n_phi too small for stable interpolation")
        phi_grid = np.linspace(0.0, TWO_PI, n_phi, endpoint=False)
        table, steps = _line_integrals(wigner, phi_grid, self.y_grid)
        steps.flags.writeable = False
        self._line_steps = steps
        self._build(phi_grid, table)

    @property
    def line_steps(self) -> np.ndarray:
        """Line step each angle's row settled at (read-only, one per angle)."""
        return self._line_steps


class FieldMarginalSource(UnitSliceSource):
    """Marginal source backed by a stored MarginalField grid.

    Unit slices at 360 angles are read off the field along the circle of
    radius 0.75 * reach, reach being the distance from the origin to the
    nearest box edge (bicubic in the direction plane, at the field's own
    X nodes, so no X interpolation enters), and rescaled to radius 1.
    """

    def __init__(self, field: MarginalField):
        reach = min(field.mu_grid[-1], -field.mu_grid[0],
                    field.nu_grid[-1], -field.nu_grid[0])
        if not reach > 0.0:
            raise ValueError("field box must surround the origin")
        radius = float(0.75 * reach)
        self.y_grid = field.x_grid / radius
        phi_grid = np.linspace(0.0, TWO_PI, 360, endpoint=False)
        mu0, nu0 = field.mu_grid[0], field.nu_grid[0]
        coords = np.stack([
            (radius * np.cos(phi_grid) - mu0) / grid_step(field.mu_grid),
            (radius * np.sin(phi_grid) - nu0) / grid_step(field.nu_grid)])
        table = np.empty((phi_grid.size, field.x_grid.size))
        for k in range(field.x_grid.size):
            table[:, k] = map_coordinates(field.values[:, :, k], coords,
                                          order=3, mode="nearest")
        table *= radius
        self._build(phi_grid, table)


def _unit_rows(source, phis, y):
    """Unit-direction rows w(y, cos phi, sin phi, 0), one per angle in phis.

    Table sources give their unit_slices rows, cubic-resampled (zero
    outside the table) when y is not their own grid; callables are
    evaluated at the unit directions.
    """
    if not hasattr(source, "unit_slices"):
        return source(y[None, :], np.cos(phis)[:, None],
                      np.sin(phis)[:, None], 0.0)
    rows = source.unit_slices(phis)
    if not np.array_equal(source.y_grid, y):
        rows = CubicSpline(source.y_grid, rows, axis=1, extrapolate=False)(y)
        rows = np.nan_to_num(rows, nan=0.0)
    return rows


def _fourier_rows(rows, freq, y):
    """Trapezoid sums sum_j w_j rows[c, j] exp(i freq[c] y_j) on a uniform y.

    With j = B b + m and B ~ sqrt(n), exp(i f y_j) = exp(i f y_{Bb})
    exp(i f m h): each row takes n/B + B exponentials instead of n, the sum
    over m is a real batched product against the cos and sin of the
    in-block phase, and the sum over b a short complex dot product.
    """
    n = y.size
    h = grid_step(y)
    block = math.isqrt(n - 1) + 1
    n_blocks = -(-n // block)  # the last block is padded with zeros
    weighted = np.zeros((rows.shape[0], n_blocks * block))
    weighted[:, :n] = rows * h
    weighted[:, [0, n - 1]] *= 0.5
    inner = np.multiply.outer(freq, h * np.arange(block))
    sums = weighted.reshape(-1, n_blocks, block) @ np.stack(
        [np.cos(inner), np.sin(inner)], axis=2)
    starts = np.exp(1j * np.multiply.outer(freq, y[::block]))
    return np.einsum("cb,cb->c", starts, sums[..., 0] + 1j * sums[..., 1])


def characteristic_from_marginal(marginal, a_grid: np.ndarray | None = None,
                                 b_grid: np.ndarray | None = None,
                                 y_grid: np.ndarray | None = None
                                 ) -> CharacteristicGrid:
    """chi(a, b) = Int w(X, a, b, 0) e^{iX} dX on a rectangular (a, b) grid.

    Integration uses the scaled abscissa X = r y, so the integrand is the
    unit-direction slice times exp(i r y) and the origin needs no special
    case (chi(0, 0) is the marginal normalization).  Each a-row of unit rows
    is summed by `_fourier_rows`; y_grid must be uniform.
    """
    a_grid = uniform_grid(-10.0, 10.0, 201) if a_grid is None else np.asarray(a_grid, dtype=float)
    b_grid = uniform_grid(-10.0, 10.0, 201) if b_grid is None else np.asarray(b_grid, dtype=float)
    if y_grid is None:
        y_grid = getattr(marginal, "y_grid", DEFAULT_Y_GRID)
    y_grid = np.asarray(y_grid, dtype=float)
    check_uniform(y_grid, "y_grid")

    values = np.empty((a_grid.size, b_grid.size), dtype=complex)
    for i, a in enumerate(a_grid):
        rows = _unit_rows(marginal, np.arctan2(b_grid, a), y_grid)
        values[i] = _fourier_rows(rows, np.hypot(a, b_grid), y_grid)
    return CharacteristicGrid(a_grid, b_grid, values)


def wigner_from_characteristic(chi: CharacteristicGrid,
                               q_grid: np.ndarray | None = None,
                               p_grid: np.ndarray | None = None) -> WignerField:
    """Invert chi to W(q, p) = (1/2pi) Int chi e^{-iaq - ibp} da db.

    The imaginary residue of the double integral (zero for an exact chi of
    a physical state) is recorded in meta["max_imag"] and raised as a
    warning when it exceeds 1e-6.
    """
    q_grid = DEFAULT_PHASE_GRID if q_grid is None else np.asarray(q_grid, dtype=float)
    p_grid = DEFAULT_PHASE_GRID if p_grid is None else np.asarray(p_grid, dtype=float)
    wa = trapezoid_weights(chi.a_grid)
    wb = trapezoid_weights(chi.b_grid)
    left = np.exp(-1j * np.outer(q_grid, chi.a_grid)) * wa[None, :]
    right = np.exp(-1j * np.outer(chi.b_grid, p_grid)) * wb[:, None]
    w_complex = left @ chi.values @ right / TWO_PI
    max_imag = float(np.max(np.abs(w_complex.imag)))
    warnings = ()
    if max_imag > 1e-6:
        warnings = (f"imaginary residue {max_imag:.3g} exceeds 1e-6",)
    return WignerField(q_grid, p_grid, np.ascontiguousarray(w_complex.real),
                       warnings, {"max_imag": max_imag})


def density_matrix_from_marginal(marginal, q_grid: np.ndarray | None = None,
                                 config: ReconstructionConfig | None = None
                                 ) -> DensityMatrixGrid:
    """Reconstruct rho(q, q') on q_grid x q_grid from a marginal source.

    The double integral is evaluated as an inner Fourier integral over the
    scaled abscissa Y = r y (per direction cell, window config.y_range in
    units of r, or a table source's own grid), summed one mu-row at a time
    by `_fourier_rows`, followed by an outer mu quadrature.  Both
    quadrature grids are symmetric, which makes the result hermitian to
    rounding error for any marginal with the physical parity
    w(X, -mu, -nu) = w(-X, mu, nu).  When the inner integral at the
    mu_range ends exceeds MU_EDGE_LIMIT of its maximum, chi is truncated
    there and the result carries a warning with the measured ratio.
    """
    q_grid = uniform_grid(-5.0, 5.0, 101) if q_grid is None else np.asarray(q_grid, dtype=float)
    config = ReconstructionConfig() if config is None else config
    s = config.s
    n = q_grid.size
    mu = np.linspace(config.mu_range[0], config.mu_range[1], config.mu_samples)
    # Table-backed sources already carry a scaled-abscissa grid; reuse it.
    y_unit = getattr(marginal, "y_grid", None)
    if y_unit is None:
        y_unit = np.linspace(*config.y_range, config.y_samples)

    # Distinct values of v = q - q' and u = q + q' on the product grid.
    v_vals = np.concatenate([q_grid - q_grid[-1], (q_grid - q_grid[0])[1:]])
    u_vals = np.concatenate([q_grid + q_grid[0], (q_grid + q_grid[-1])[1:]])
    nu = v_vals / s

    # Inner integral in scaled form: with Y = r y and the scaling law,
    # F(mu, v) = Int w(Y, mu, v/s) e^{isY} dY
    #          = Int w_unit(y, phi) e^{i s r y} dy,  phi = atan2(v/s, mu).
    # The integrand is continuous through r = 0, where F is the marginal
    # normalization for any approach angle (atan2(0, 0) = 0 picks phi = 0).
    f_table = np.empty((mu.size, v_vals.size), dtype=complex)
    for k in range(mu.size):
        rows = _unit_rows(marginal, np.arctan2(nu, mu[k]), y_unit)
        f_table[k] = _fourier_rows(rows, s * np.hypot(mu[k], nu), y_unit)
    edge = np.max(np.abs(f_table[[0, -1]])) / np.max(np.abs(f_table))
    warnings = ()
    if edge > MU_EDGE_LIMIT:
        warnings = (f"chi truncated: the inner integral at the mu_range ends is "
                    f"{edge:.3g} of its maximum, above {MU_EDGE_LIMIT:g}",)

    # Outer integral over mu, one u per column: rho_uv[u, v].
    mu_w = trapezoid_weights(mu)
    phase = np.exp(-0.5j * s * np.outer(u_vals, mu)) * mu_w[None, :]
    rho_uv = phase @ f_table * (abs(s) / TWO_PI)

    i_idx = np.arange(n)[:, None]
    j_idx = np.arange(n)[None, :]
    rho = rho_uv[i_idx + j_idx, i_idx - j_idx + (n - 1)]
    return DensityMatrixGrid(q_grid, rho, config, warnings)


def slice_moments(sl: MarginalSlice) -> tuple[float, float]:
    """(mean, variance) of one marginal slice by trapezoid quadrature.

    The slice is renormalized by its own quadrature mass so that grid
    truncation shifts both moments consistently instead of biasing them.
    """
    mass = sl.normalization()
    if mass <= 0.0:
        raise ValueError("slice has nonpositive mass")
    mean = float(np.trapezoid(sl.x_grid * sl.values, sl.x_grid) / mass)
    second = float(np.trapezoid(sl.x_grid ** 2 * sl.values, sl.x_grid) / mass)
    return mean, second - mean * mean


def quadrature_moments(marginal, params: TomographyParams,
                       x_grid: np.ndarray | None = None) -> tuple[float, float]:
    """(mean, variance) of mu q + nu p + delta from a marginal source."""
    x_grid = DEFAULT_X_GRID if x_grid is None else np.asarray(x_grid, dtype=float)
    values = np.asarray(marginal(x_grid, params.mu, params.nu, params.delta))
    return slice_moments(MarginalSlice(params, x_grid, values))


def uncertainty_product(marginal, x_grid: np.ndarray | None = None) -> float:
    """Var(q) * Var(p) from the two axis slices; >= 1/4 for physical input."""
    _, var_q = quadrature_moments(marginal, TomographyParams(1.0, 0.0), x_grid)
    _, var_p = quadrature_moments(marginal, TomographyParams(0.0, 1.0), x_grid)
    return var_q * var_p
