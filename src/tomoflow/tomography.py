"""Transforms between Wigner functions, marginal families and density matrices.

Conventions (hbar = 1, phase-space measure dq dp / 2pi):

    w(X, mu, nu, delta) = (1/2pi) Int W(q, p) delta(X - mu q - nu p - delta) dq dp
    chi(a, b)           = Int w(X, a, b, 0) exp(i X) dX
    W(q, p)             = (1/2pi) Int chi(a, b) exp(-i a q - i b p) da db
    rho(q, q')          = (1/2pi) Int chi(a, q - q') exp(-i a (q + q') / 2) da
                        = (|s|/2pi) Int dmu Int dY w(Y, mu, (q - q')/s, 0)
                                    exp(i s Y) exp(-i s mu (q + q') / 2)

The density-matrix integral is independent of the scale s != 0; keeping s
explicit allows that invariance to be checked numerically.  Every inverse
here consumes a "marginal source": a callable w(x, mu, nu, delta) that
broadcasts over numpy arrays (the closed-form evaluators from `states`),
or a table source, a `UnitSliceSource` with `y_grid`, `unit_slices`,
`warnings` and `meta`.  chi and rho list a table source's warnings first.

All scans of the direction plane use the exact scaling law
w(X, mu, nu, 0) = (1/r) w(X/r, mu/r, nu/r, 0), r = |(mu, nu)|, so only unit
directions are ever integrated and the r -> 0 region costs no accuracy.

The module needs numpy only; scipy is a test oracle.  Its interpolants are
uniform-grid: a periodic cubic spline in the direction angle, clamped-end
cubic B-splines along y and across a MarginalField's direction plane, read
from edge-padded coefficients (the evolution layer reads its fields through
them), and a bilinear sampler for WignerFields (docs/math.md section 8).
"""

from __future__ import annotations

import math

import numpy as np

from .fields import (
    DEFAULT_PHASE_GRID,
    DEFAULT_X_GRID,
    MU_EDGE_LIMIT,
    CharacteristicGrid,
    DensityMatrixGrid,
    MarginalField,
    MarginalSlice,
    ReconstructionConfig,
    TomographyParams,
    WignerField,
    _prefilter,
    bicubic_rows,
    check_uniform,
    grid_step,
    padded_taps,
    trapezoid_weights,
    uniform_grid,
    warnings_of,
)

TWO_PI = 2.0 * math.pi
DEFAULT_Y_GRID = uniform_grid(-12.0, 12.0, 1201)  # Radon table default
# Unit-direction abscissa of every callable source in chi and rho; the
# catalog integrands are spectrally converged on it (docs/math.md section 8).
CALLABLE_Y_GRID = np.linspace(-20.0, 20.0, 512)
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
# Lookups per chunk of a table source's rows: its buffers stay in the L2 cache.
_READ_POINTS = 1 << 14
_EPS = np.finfo(float).eps


def _mirrored(*grids: np.ndarray) -> bool:
    """Whether every grid is symmetric about 0 to 8 ulps of its largest
    |value|: the test of every half-turn shortcut (docs/math.md section 3)."""
    return all(np.abs(g + g[::-1]).max() <= 8 * _EPS * np.abs(g).max() for g in grids)


def wigner_field_sampler(field: WignerField):
    """Bilinear sampler for a gridded Wigner function; zero outside the box.

    The four products are summed in the order scipy's map_coordinates
    (order=1, mode="constant") sums them, which keeps Radon tables of a
    sampled field equal to that kernel's to rounding.
    """
    q0, p0 = field.q_grid[0], field.p_grid[0]
    hq, hp = grid_step(field.q_grid), grid_step(field.p_grid)
    nq, n_p = field.values.shape
    values = field.values

    def sample(q, p):
        cq, cp = np.broadcast_arrays((np.asarray(q, dtype=float) - q0) / hq,
                                     (np.asarray(p, dtype=float) - p0) / hp)
        inside = (cq >= 0.0) & (cq <= nq - 1) & (cp >= 0.0) & (cp <= n_p - 1)
        cq = np.where(inside, cq, 0.0)
        cp = np.where(inside, cp, 0.0)
        iq = np.minimum(cq.astype(np.intp), nq - 2)
        ip = np.minimum(cp.astype(np.intp), n_p - 2)
        wq1, wp1 = cq - iq, cp - ip
        wq0, wp0 = 1.0 - wq1, 1.0 - wp1
        out = (values[iq, ip] * wq0 * wp0 + values[iq, ip + 1] * wq0 * wp1
               + values[iq + 1, ip] * wq1 * wp0
               + values[iq + 1, ip + 1] * wq1 * wp1)
        return np.where(inside, out, 0.0)

    return sample


def _line_integrals(wigner, phis, y) -> tuple:
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
    Returns the (angle, y) table, each row's line step and largest line-end
    |W| over its largest value (a WignerField is 0 past its box, so its
    border counts as a line end), and a WignerField's warnings.
    """
    field = isinstance(wigner, WignerField)
    sample = wigner_field_sampler(wigner) if field else wigner
    first = 1 if field else _LINE_STRIDE
    border = max(np.abs(wigner.values[[0, -1]]).max(),
                 np.abs(wigner.values[:, [0, -1]]).max()) if field else 0.0
    y = np.broadcast_to(y, (len(phis), np.shape(y)[-1]))
    table = np.empty(y.shape)
    steps, edges = np.empty((2, len(phis)))
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
        edge, peak = max(np.max(np.abs(ends)), border), np.max(np.abs(row))
        decayed = edge <= _EPS * peak
        edges[k] = edge / peak if edge > 0.0 else 0.0
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
    return table, steps, edges, wigner.warnings if field else ()


def radon_marginal(wigner, params: TomographyParams,
                   x_grid: np.ndarray | None = None) -> MarginalSlice:
    """Project a Wigner function onto the marginal of mu q + nu p + delta.

    ``wigner`` is a callable W(q, p) or a WignerField (sampled bilinearly,
    zero outside its box).  The unit-direction row at y = (X - delta) / r
    is divided by r (scaling law).  The row's line step and its line-end
    |W| over its largest value (a WignerField's border is a line end) are
    in meta["line_step"] and meta["line_edge"], which warns past its
    `fields.LIMITS` entry: W is cut.  A WignerField's warnings come first.
    """
    x_grid = DEFAULT_X_GRID if x_grid is None else np.asarray(x_grid, dtype=float)
    r = params.r
    if r == 0.0:
        raise ValueError("degenerate direction: mu and nu both zero")
    table, steps, edges, given = _line_integrals(
        wigner, [math.atan2(params.nu, params.mu)], (x_grid - params.delta) / r)
    meta = {"line_step": float(steps[0]), "line_edge": float(edges[0])}
    return MarginalSlice(params, x_grid, table[0] / r, given + warnings_of(meta), meta)


def marginal_field_from_wigner(wigner, mu_grid: np.ndarray, nu_grid: np.ndarray,
                               x_grid: np.ndarray) -> MarginalField:
    """Radon-project a Wigner function over a whole (mu, nu, X) box.

    Cost grows as n_mu * n_nu * n_x * n_line, with n_line the line points
    a cell's row needs: 101 for a callable whose rows settle at step 0.16
    (every catalog state), up to 401 for rows that do not and for a
    WignerField; intended for moderate grids.
    The degenerate (0, 0) cell, if present, is stored as zero.  The largest
    line edge of the cells (as in `radon_marginal`) is recorded in
    meta["line_edge"], judged by `fields.LIMITS`, after a WignerField's.
    """
    mu_grid = np.asarray(mu_grid, dtype=float)
    nu_grid = np.asarray(nu_grid, dtype=float)
    x_grid = np.asarray(x_grid, dtype=float)
    r = np.hypot(mu_grid[:, None], nu_grid[None, :]).ravel()
    phis = np.arctan2(nu_grid[None, :], mu_grid[:, None]).ravel()
    cells = r > 0.0
    values = np.zeros((r.size, x_grid.size))
    table, _, edges, given = _line_integrals(wigner, phis[cells], x_grid / r[cells, None])
    values[cells] = table / r[cells, None]
    meta = {"line_edge": float(edges.max(initial=0.0))}
    return MarginalField(mu_grid, nu_grid, x_grid,
                         values.reshape(mu_grid.size, nu_grid.size, -1),
                         given + warnings_of(meta), meta)


class UnitSliceSource:
    """Table source: a marginal reduced to a table of unit-direction slices.

    Subclasses set y_grid and fill a (n_phi, n_y) table of
    w(y, cos phi, sin phi, 0) rows; `unit_slices` reads rows at any angle,
    and arbitrary (x, mu, nu, delta) queries reduce to them through the
    shift and scaling identities, interpolating with a periodic cubic
    spline in phi and a cubic B-spline in y with clamped ends
    (docs/math.md section 8).  Queries with |X - delta| / r outside the
    y table return 0.  As a field does, it carries ``meta`` and
    ``warnings``: its input's, then `fields.warnings_of(meta)`.
    """

    def _build(self, phi_grid: np.ndarray, table: np.ndarray, given, meta: dict):
        if not np.all(np.isfinite(table)):
            raise ValueError(f"{type(self).__name__}: non-finite unit-slice table")
        # Second differences m = h^2 d2w/dphi2 of the periodic spline solve
        # the circulant system m[k-1] + 4 m[k] + m[k+1] = 6 (w[k+1] - 2 w[k]
        # + w[k-1]), whose eigenvalues are 4 + 2 cos(2 pi j / n).
        n = phi_grid.size
        ahead = np.roll(table, -1, 0)
        rhs = 6.0 * (ahead - 2.0 * table + np.roll(table, 1, 0))
        eig = 4.0 + 2.0 * np.cos(TWO_PI / n * np.arange(n // 2 + 1))
        m = np.fft.irfft(np.fft.rfft(rhs, axis=0) / eig[:, None], n, axis=0)
        m_next = np.roll(m, -1, 0)
        self.phi_grid = phi_grid
        self.meta = meta
        self.warnings = tuple(given) + warnings_of(meta)
        self._phi_step = TWO_PI / n
        # Each interval's cubic in t = (phi - phi_k) / h, highest power first.
        self._phi_coeffs = np.stack(
            [(m_next - m) / 6.0, m / 2.0, ahead - table - (2.0 * m + m_next) / 6.0,
             table], axis=1)

    def _phi_weights(self, phis):
        """Each angle's interval k of phi_grid and powers (t^3, t^2, t, 1) of t."""
        phi = np.mod(np.asarray(phis, dtype=float), TWO_PI)
        k = np.searchsorted(self.phi_grid, phi, side="right") - 1
        t = (phi - self.phi_grid[k]) / self._phi_step
        return k, t[..., None, None] ** np.array([3.0, 2.0, 1.0, 0.0])

    def unit_slices(self, phis) -> np.ndarray:
        """Rows w(y, cos phi, sin phi, 0) on self.y_grid, one per angle."""
        k, powers = self._phi_weights(phis)
        return (powers @ self._phi_coeffs[k])[..., 0, :]

    def _read_rows(self, phis, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Lookup (i, j) reads the spline at (y[i, j]; phis[i]), 0 past a y end.

        Overwrites ``y`` (rows, lookups) by the values and returns it, with
        each row's outflow: its lookups past a y end where it is above
        MU_EDGE_LIMIT of its largest |value|.  Each chunk of rows interpolates
        coefficient rows in phi, and a 4-tap cubic along y reads their lookups.
        """
        k, powers = self._phi_weights(phis)
        # The phi cubics of the intervals read, prefiltered along y and edge-
        # padded: the two maps are linear, on different axes, so they commute.
        used, k = np.unique(k, return_inverse=True)
        coeffs = np.pad(_prefilter(self._phi_coeffs[used], axis=2),
                        ((0, 0), (0, 0), (2, 3)), mode="edge")
        (n_rows, n), n_y = y.shape, self.y_grid.size
        chunk = max(1, _READ_POINTS // max(n, n_y + 5))
        first, buffers = np.empty((chunk, n), np.intp), np.empty((5, chunk, n))
        n_out = np.empty(n_rows, np.intp)
        for lo in range(0, n_rows, chunk):
            cells = slice(lo, lo + chunk)
            rows = (powers[cells] @ coeffs[k[cells]])[:, 0]
            coord, m = y[cells], len(rows)
            # 6 x each row's values at the y nodes: c[k-1] + 4 c[k] + c[k+1].
            node = np.abs(rows[:, 1:-4] + 4.0 * rows[:, 2:-3] + rows[:, 3:-2])
            cut = node[:, [0, -1]] > MU_EDGE_LIMIT * node.max(axis=1, keepdims=True)
            coord -= self.y_grid[0]
            coord /= grid_step(self.y_grid)
            outside = ~((coord >= 0.0) & (coord <= n_y - 1.0))  # NaN included
            n_out[cells] = np.count_nonzero(outside & np.where(
                coord < 0.0, cut[:, :1], cut[:, 1:]), axis=1)
            coord[outside] = 0.0  # read as 0 below; a NaN has no tap index
            start = padded_taps(coord, n_y, first[:m], buffers[1:, :m])
            start += (n_y + 5) * np.arange(m)[:, None]
            coord[...] = 0.0
            for j, w in enumerate(buffers[1:, :m]):
                # The indices are in range; mode="clip" only spares take a buffer.
                tap = np.take(rows.ravel()[j:], start, out=buffers[0, :m], mode="clip")
                coord += np.multiply(w, tap, out=tap)
            coord[outside] = 0.0
        return y, n_out

    def __call__(self, x, mu, nu, delta=0.0):
        mu, nu = np.broadcast_arrays(np.asarray(mu, dtype=float),
                                     np.asarray(nu, dtype=float))
        r = np.hypot(mu, nu)
        if np.any(r == 0.0):
            raise ValueError("degenerate direction: mu and nu both zero")
        y = np.empty(np.broadcast_shapes(np.shape(x), np.shape(delta), r.shape))
        np.divide(np.subtract(x, delta, out=y), r, out=y)
        # One row per direction: the axes along which it varies go first.
        shape = (1,) * (y.ndim - r.ndim) + r.shape
        order = sorted(range(y.ndim), key=lambda ax: shape[ax] == 1)
        rows = np.ascontiguousarray(y.transpose(order)).reshape(
            r.size, y.size // max(r.size, 1))
        values = self._read_rows(np.arctan2(nu, mu).ravel(), rows)[0].reshape(
            [y.shape[ax] for ax in order]).transpose(np.argsort(order))
        values /= r
        return values


class RadonMarginalEvaluator(UnitSliceSource):
    """Marginal source backed by Radon projections of a Wigner function.

    The table holds n_phi unit-direction rows on y_grid, one per angle of
    [0, 2pi).  A half turn reverses a row, row(phi + pi)(y) = row(phi)(-y)
    (docs/math.md section 3), so when n_phi is even and y_grid is
    mirror-symmetric only the angles of [0, pi) are integrated and row
    k + n_phi / 2 is row k reversed, with row k's line step and line edge;
    on any other grid every angle is integrated.  meta holds the largest
    "line_step" and "line_edge" over the angles.
    """

    def __init__(self, wigner, *, n_phi: int = 360,
                 y_grid: np.ndarray | None = None):
        self.y_grid = DEFAULT_Y_GRID if y_grid is None else np.asarray(y_grid, dtype=float)
        check_uniform(self.y_grid, "y_grid")
        if n_phi < 8:
            raise ValueError("n_phi too small for stable interpolation")
        phi_grid = np.linspace(0.0, TWO_PI, n_phi, endpoint=False)
        half = n_phi // 2 if n_phi % 2 == 0 and _mirrored(self.y_grid) else n_phi
        table, steps, edges, given = _line_integrals(wigner, phi_grid[:half], self.y_grid)
        if half < n_phi:
            table = np.concatenate([table, table[:, ::-1]])
            steps, edges = np.tile(steps, 2), np.tile(edges, 2)
        steps.flags.writeable = edges.flags.writeable = False
        self._line_steps, self._line_edges = steps, edges
        self._build(phi_grid, table, given, {"line_step": float(steps.max()),
                                             "line_edge": float(edges.max())})

    @property
    def line_steps(self) -> np.ndarray:
        """Line step each angle's row settled at (read-only, one per angle)."""
        return self._line_steps

    @property
    def line_edges(self) -> np.ndarray:
        """Largest |W| at the line ends over the row's largest value
        (read-only, one per angle); above machine epsilon the window cuts W."""
        return self._line_edges


class FieldMarginalSource(UnitSliceSource):
    """Marginal source backed by a stored MarginalField grid.

    Unit slices at 360 angles are read off the field along the circle of
    radius 0.75 * reach, reach being the distance from the origin to the
    nearest box edge (bicubic in the direction plane, at the field's own
    X nodes, so no X interpolation enters), and rescaled to radius 1.  On
    mirrored grids 180 rows are read and 180 reversed (docs/math.md section 3).
    """

    def __init__(self, field: MarginalField):
        radius = 0.75 * field.reach()
        self.y_grid = field.x_grid / radius
        phi_grid = np.linspace(0.0, TWO_PI, 360, endpoint=False)
        read = 180 if _mirrored(field.mu_grid, field.nu_grid, field.x_grid) else 360
        coeffs = np.pad(_prefilter(_prefilter(field.values, axis=0), axis=1),
                        ((2, 3), (2, 3), (0, 0)), mode="edge")
        a, b = ((radius * trig(phi_grid[:read]) - grid[0]) / grid_step(grid)
                for trig, grid in ((np.cos, field.mu_grid), (np.sin, field.nu_grid)))
        table = radius * bicubic_rows(coeffs, a, b)
        if read < 360:  # before _build, so the half table is freed
            table = np.concatenate([table, table[:, ::-1]])
        self._build(phi_grid, table, field.warnings, {})


def _fourier_rows(rows, freq, y):
    """Trapezoid sums sum_j w_j rows[c, j] exp(i freq[c] y_j) on a uniform y.

    With j = B b + m and B ~ sqrt(n), exp(i f y_j) = exp(i f y_{Bb})
    exp(i f m h).  Each row takes three exponentials, exp(i f h),
    exp(i f B h) and exp(i f y_0), and builds the in-block phases
    exp(i f h)^m and the block starts exp(i f y_0) exp(i f B h)^b from them
    by cumulative products, whose rounding grows like B + n/B ulps.  The
    sum over m is a real batched product against the cos and sin of the
    in-block phase, and the sum over b a short complex dot product.
    """
    n = y.size
    h = grid_step(y)
    block = math.isqrt(n - 1) + 1
    n_blocks = -(-n // block)  # the last block is padded with zeros
    weighted = np.zeros((rows.shape[0], n_blocks * block))
    # Scaled in place: a rows * h temporary beside this buffer is a fresh
    # memory mapping, page-faulted in again on every call.
    np.multiply(rows, h, out=weighted[:, :n])
    weighted[:, [0, n - 1]] *= 0.5
    inner = _powers(1.0, np.exp(1j * h * freq), block)
    # A complex array viewed as float interleaves (cos, sin) on a last axis.
    sums = weighted.reshape(-1, n_blocks, block) @ inner.view(float).reshape(
        -1, block, 2)
    starts = _powers(np.exp(1j * y[0] * freq), np.exp(1j * (block * h) * freq),
                     n_blocks)
    return np.einsum("cb,cb->c", starts, sums.view(complex)[..., 0])


def _powers(first, ratio, count) -> np.ndarray:
    """first * ratio^m for m < count, one row per cell, by a cumulative product."""
    out = np.empty((ratio.size, count), dtype=complex)
    out[:, 0] = first
    out[:, 1:] = ratio[:, None]
    return np.cumprod(out, axis=1, out=out)


def _unit_rows(marginal):
    """(y, rows, warnings), rows(phis) giving w(y, cos phi, sin phi, 0) per angle:
    a table source's own, or a callable's on CALLABLE_Y_GRID with none."""
    if isinstance(marginal, UnitSliceSource):
        return marginal.y_grid, marginal.unit_slices, marginal.warnings
    return CALLABLE_Y_GRID, lambda phis: marginal(
        CALLABLE_Y_GRID[None, :], np.cos(phis)[:, None], np.sin(phis)[:, None], 0.0), ()


def _finite(values):
    if not np.all(np.isfinite(values)):
        raise ValueError("marginal source gives non-finite values")
    return values


def _chi_table(y, rows, a, b) -> np.ndarray:
    """chi(a_i, b_j) on the product grid from `_unit_rows`, one a-row at a time.

    At r = 0 atan2(0, 0) = 0 picks phi = 0, and chi is the marginal
    normalization.  When both grids are mirror-symmetric to a few ulps,
    only the first ceil(n / 2) a-rows are integrated and the rest are
    chi(-a, -b) = conj chi(a, b), the parity of every physical marginal
    (docs/math.md section 3); otherwise every row is integrated.  Refuses
    a source that gives a non-finite value.
    """
    n = a.size
    half = -(-n // 2) if _mirrored(a, b) else n
    values = np.empty((n, b.size), dtype=complex)
    for i, a_i in enumerate(a[:half]):
        # Bound to a name, one row's slices are freed after the next are built;
        # freed first, their pages go back and are faulted in again every row.
        slices = _finite(rows(np.arctan2(b, a_i)))
        values[i] = _fourier_rows(slices, np.hypot(a_i, b), y)
    np.conjugate(values[:n - half][::-1, ::-1], out=values[half:])
    return values


def _outer_kernel(x, g) -> np.ndarray:
    """exp(-i x_k g_j) times the trapezoid weight of g_j, shape (x, g)."""
    return np.exp(-1j * np.outer(x, g)) * trapezoid_weights(g)


def characteristic_from_marginal(marginal, a_grid: np.ndarray | None = None,
                                 b_grid: np.ndarray | None = None
                                 ) -> CharacteristicGrid:
    """chi(a, b) = Int w(X, a, b, 0) e^{iX} dX on a rectangular (a, b) grid.

    Integration uses the scaled abscissa X = r y, so the integrand is the
    unit-direction slice times exp(i r y) and the origin needs no special
    case (chi(0, 0) is the marginal normalization).  The largest |chi| on
    the window's edges over max |chi| is recorded in meta["edge"], which
    warns past its `fields.LIMITS` entry, after the source's warnings.
    """
    a_grid = uniform_grid(-10.0, 10.0, 201) if a_grid is None else np.asarray(a_grid, dtype=float)
    b_grid = uniform_grid(-10.0, 10.0, 201) if b_grid is None else np.asarray(b_grid, dtype=float)
    y, rows, given = _unit_rows(marginal)
    chi = _chi_table(y, rows, a_grid, b_grid)
    size = np.abs(chi)
    meta = {"edge": float(max(size[[0, -1]].max(), size[:, [0, -1]].max())
                          / size.max())}
    return CharacteristicGrid(a_grid, b_grid, chi, given + warnings_of(meta), meta)


def wigner_from_characteristic(chi: CharacteristicGrid,
                               q_grid: np.ndarray | None = None,
                               p_grid: np.ndarray | None = None) -> WignerField:
    """Invert chi to W(q, p) = (1/2pi) Int chi e^{-iaq - ibp} da db.

    The imaginary residue of the double integral (zero for an exact chi of
    a physical state) is recorded in meta["max_imag"], judged by
    `fields.LIMITS`; chi's own warnings come first.
    """
    q_grid = DEFAULT_PHASE_GRID if q_grid is None else np.asarray(q_grid, dtype=float)
    p_grid = DEFAULT_PHASE_GRID if p_grid is None else np.asarray(p_grid, dtype=float)
    left = _outer_kernel(q_grid, chi.a_grid)
    right = _outer_kernel(p_grid, chi.b_grid).T
    w_complex = left @ chi.values @ right / TWO_PI
    meta = {"max_imag": float(np.max(np.abs(w_complex.imag)))}
    return WignerField(q_grid, p_grid, np.ascontiguousarray(w_complex.real),
                       chi.warnings + warnings_of(meta), meta)


def density_matrix_from_marginal(marginal, q_grid: np.ndarray | None = None,
                                 config: ReconstructionConfig | None = None
                                 ) -> DensityMatrixGrid:
    """Reconstruct rho(q, q') on q_grid x q_grid from a marginal source.

    rho(q, q') = (1/2pi) Int chi(a, q - q') e^{-i a (q + q')/2} da, with
    chi from the core of `characteristic_from_marginal` on the a-grid
    |s| mu (config.mu_samples points of config.mu_range); for s < 0 the
    result is the conjugate transpose of the one for |s| (docs/math.md
    section 4).  Both quadrature grids are symmetric, so chi's mirrored
    half is its conjugate (section 3 there) and the result is hermitian
    to rounding error by construction, whatever the source's parity.  The
    largest |chi| at the mu_range ends over its maximum is recorded in
    meta["mu_edge"], and the larger |rho(q, q)| at the q_grid ends over the
    diagonal's maximum in meta["q_edge"]; each warns past its
    `fields.LIMITS` entry, after the source's warnings.
    """
    q_grid = uniform_grid(-5.0, 5.0, 101) if q_grid is None else np.asarray(q_grid, dtype=float)
    config = ReconstructionConfig() if config is None else config
    n = q_grid.size
    a = abs(config.s) * np.linspace(*config.mu_range, config.mu_samples)
    # Distinct values of v = q - q' and u = q + q' on the product grid.
    v_vals = np.concatenate([q_grid - q_grid[-1], (q_grid - q_grid[0])[1:]])
    u_vals = np.concatenate([q_grid + q_grid[0], (q_grid + q_grid[-1])[1:]])

    y, rows, given = _unit_rows(marginal)
    chi = _chi_table(y, rows, a, v_vals)
    mu_edge = float(np.max(np.abs(chi[[0, -1]])) / np.max(np.abs(chi)))

    # Outer integral over a, one u per row: rho_uv[u, v].
    rho_uv = _outer_kernel(u_vals / 2, a) @ chi * (1 / TWO_PI)
    i_idx, j_idx = np.indices((n, n))
    rho = rho_uv[i_idx + j_idx, i_idx - j_idx + (n - 1)]
    if config.s < 0:
        rho = rho.conj().T
    diagonal = np.abs(np.diagonal(rho))
    meta = {"mu_edge": mu_edge,
            "q_edge": float(max(diagonal[0], diagonal[-1]) / diagonal.max())}
    return DensityMatrixGrid(q_grid, rho, config, given + warnings_of(meta), meta)


def quadrature_moments(marginal, params: TomographyParams,
                       x_grid: np.ndarray | None = None) -> tuple[float, float]:
    """(mean, variance) of mu q + nu p + delta from a marginal source by
    trapezoid quadrature, renormalized by the slice's own mass so that grid
    truncation shifts both moments consistently instead of biasing them.
    Refuses a source that gives a non-finite value."""
    x_grid = DEFAULT_X_GRID if x_grid is None else np.asarray(x_grid, dtype=float)
    sl = MarginalSlice(params, x_grid, _finite(np.asarray(
        marginal(x_grid, params.mu, params.nu, params.delta))))
    mass = sl.normalization()
    if mass <= 0.0:
        raise ValueError("slice has nonpositive mass")
    mean = float(np.trapezoid(sl.x_grid * sl.values, sl.x_grid) / mass)
    second = float(np.trapezoid(sl.x_grid ** 2 * sl.values, sl.x_grid) / mass)
    return mean, second - mean * mean


def uncertainty_product(marginal, x_grid: np.ndarray | None = None) -> float:
    """Var(q) * Var(p) from the two axis slices; >= 1/4 for physical input."""
    _, var_q = quadrature_moments(marginal, TomographyParams(1.0, 0.0), x_grid)
    _, var_p = quadrature_moments(marginal, TomographyParams(0.0, 1.0), x_grid)
    return var_q * var_p
