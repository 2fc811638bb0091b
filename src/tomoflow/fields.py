"""Grid-backed containers shared by the tomography and evolution layers,
the cubic B-spline prefilter and the padded-coefficient reads of every
spline (`padded_taps`), and the polynomial potentials that drive evolution.

Conventions used throughout the package (hbar = 1):

* Wigner functions are normalized so that the double trapezoid integral
  over phase space equals 2*pi, i.e. integral W(q, p) dq dp / (2*pi) = 1.
* A homodyne-style marginal w(X, mu, nu, delta) is the probability density
  of the observable mu*q + nu*p + delta.  It obeys two exact identities:

      shift:    w(X, mu, nu, delta) = w(X - delta, mu, nu, 0)
      scaling:  w(l*X, l*mu, l*nu, l*delta) = w(X, mu, nu, delta) / |l|

All grids are uniform and ascending.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def uniform_grid(lo: float, hi: float, n: int) -> np.ndarray:
    if not (np.isfinite(lo) and np.isfinite(hi)) or hi <= lo:
        raise ValueError(f"bad grid range [{lo}, {hi}]")
    if n < 2:
        raise ValueError(f"grid needs at least 2 points, got {n}")
    return np.linspace(float(lo), float(hi), int(n))


def grid_step(grid: np.ndarray) -> float:
    """linspace's own step; grid[1] - grid[0] carries grid[0]'s rounding."""
    return float((grid[-1] - grid[0]) / (len(grid) - 1))


def check_uniform(grid: np.ndarray, name: str = "grid") -> None:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError(f"{name} must be 1-d with >= 2 points")
    steps = np.diff(grid)
    if steps[0] <= 0 or not np.allclose(steps, steps[0], rtol=1e-9, atol=0.0):
        raise ValueError(f"{name} must be uniform and ascending")


def check_time(t) -> float:
    """t as a float; refuses a time that is not finite."""
    t = float(t)
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    return t


def trapezoid_weights(grid: np.ndarray) -> np.ndarray:
    w = np.full(grid.shape, grid_step(grid))
    w[0] *= 0.5
    w[-1] *= 0.5
    return w


def cubic_taps(coord, size: int):
    """The four (tap index, cubic B-spline weight) pairs of index coordinates
    on an axis of size points, as indices into its padded coefficients
    (`padded_taps`)."""
    coord = np.array(coord, dtype=float)
    weights = np.empty((4,) + coord.shape)
    first = padded_taps(coord, size, np.empty(coord.shape, np.intp), weights)
    return [(first + k, w) for k, w in enumerate(weights)]


def padded_taps(coord, size: int, first, weights):
    """The clamped taps of index coordinates on an axis of size points whose
    coefficients are padded by edge values, 2 before and 3 after.  Clips
    coord in place into [-1, size], where every clamped tap reads the edge,
    and overwrites it with its fraction; writes the padded index floor + 1
    of the first tap into first (returned) and the four weights into weights.
    """
    np.clip(coord, -1.0, size, out=coord)
    t = np.subtract(coord, np.floor(coord, out=first, casting="unsafe"), out=coord)
    w0, w1, w2, w3 = (weights[k, ...] for k in range(4))
    # w0 = u^3/6, w1 = (4 + t^2 (3t - 6))/6, w2 likewise in u = 1 - t (held
    # in w1 until the pass over t), w3 = t^3/6.
    for s, cube, mid in ((np.subtract(1.0, t, out=w1), w0, w2), (t, w3, w1)):
        np.multiply(np.subtract(np.multiply(s, 3.0, out=mid), 6.0, out=mid),
                    np.multiply(s, s, out=cube), out=mid)
        np.divide(np.add(mid, 4.0, out=mid), 6.0, out=mid)
        np.divide(np.multiply(cube, s, out=cube), 6.0, out=cube)
    first += 1
    return first


def bicubic_rows(coeffs: np.ndarray, a, b) -> np.ndarray:
    """The spline of coefficients padded on their first two axes, read there
    at index coordinates (a, b): one row per point, carrying the trailing
    axes.  Each point sums its 16 gathered rows, 16 points at a time."""
    n_a, n_b = coeffs.shape[:2]
    taps = [(ia * n_b + ib, wa * wb) for ia, wa in cubic_taps(a, n_a - 5)
            for ib, wb in cubic_taps(b, n_b - 5)]
    tap_rows, tap_weights = (np.stack(part, axis=1) for part in zip(*taps))
    rows = coeffs.reshape(n_a * n_b, -1)
    out = np.empty((len(tap_rows), rows.shape[1]))
    for lo in range(0, len(out), 16):
        points = slice(lo, lo + 16)
        out[points] = (tap_weights[points, None, :] @ rows[tap_rows[points]])[:, 0]
    return out.reshape(out.shape[:1] + coeffs.shape[2:])


def _prefilter(values, axis: int = 0) -> np.ndarray:
    """Cubic B-spline coefficients of samples along one axis.

    Solves (c[k-1] + 4 c[k] + c[k+1]) / 6 = f[k] with clamped ends,
    c[-1] = c[0] and c[n] = c[n-1], as scipy.ndimage's spline_filter(
    mode="nearest") does on axes of 13 or more points (on shorter ones it
    misses its samples).  A Thomas sweep over a contiguous copy, moved
    axis first; its pivots depend on n only (one point: c[0] = f[0]).
    """
    c = np.multiply(6.0, np.moveaxis(np.asarray(values, dtype=float), axis, 0),
                    order="C")
    n = c.shape[0]
    pivots = np.empty(n)
    pivots[0] = 6.0 if n == 1 else 5.0
    for k in range(1, n):
        pivots[k] = (5.0 if k == n - 1 else 4.0) - 1.0 / pivots[k - 1]
    for k in range(1, n):
        c[k] -= c[k - 1] / pivots[k - 1]
    c[-1] /= pivots[-1]
    for k in range(n - 2, -1, -1):
        c[k] = (c[k] - c[k + 1]) / pivots[k]
    return np.moveaxis(c, 0, axis)


class NonlocalPotentialError(ValueError):
    """The reduced evolution operator is not a differential operator."""


@dataclass(frozen=True)
class PotentialSpec:
    """Polynomial potential V(q) = sum_k coefficients[k] * q**k."""

    coefficients: tuple[float, ...] = (0.0,)

    def __post_init__(self):
        if len(self.coefficients) == 0:
            object.__setattr__(self, "coefficients", (0.0,))
        if not all(np.isfinite(c) for c in self.coefficients):
            raise ValueError("potential coefficients must be finite")

    @classmethod
    def free(cls) -> "PotentialSpec":
        return cls((0.0,))

    @classmethod
    def linear(cls, c1: float) -> "PotentialSpec":
        return cls((0.0, float(c1)))

    @classmethod
    def harmonic(cls) -> "PotentialSpec":
        return cls((0.0, 0.0, 0.5))

    @classmethod
    def from_string(cls, text: str) -> "PotentialSpec":
        """Parse free, harmonic, linear:<slope> or "c0,c1,..." (constant
        term first)."""
        if text == "free":
            return cls.free()
        if text == "harmonic":
            return cls.harmonic()
        try:
            if text.startswith("linear:"):
                coeffs = (0.0, float(text[len("linear:"):]))
            else:
                coeffs = tuple(float(part) for part in text.split(","))
        except ValueError as exc:
            raise ValueError(
                f"cannot parse potential {text!r}: expected free, harmonic, "
                f"linear:<slope> or comma-separated coefficients") from exc
        return cls(coeffs)

    @property
    def degree(self) -> int:
        deg = 0
        for k, c in enumerate(self.coefficients):
            if c != 0.0:
                deg = k
        return deg


class _GridField:
    """Base of the gridded fields, with their one geometry check.

    Each subclass declares AXES: one (file axis name, grid attribute) pair
    per axis of values, in row-major order; rho(q, q') repeats q_grid.
    """

    def __post_init__(self):
        for _, attr in self.AXES:
            check_uniform(getattr(self, attr), attr)
        shape = tuple(getattr(self, attr).size for _, attr in self.AXES)
        if self.values.shape != shape:
            raise ValueError(f"values shape {self.values.shape} does not "
                             f"match grids {shape}")


def field_axes(field) -> list[tuple[str, np.ndarray]]:
    """(file axis name, grid) pairs of a gridded field, in row-major order."""
    if not isinstance(field, _GridField):
        raise TypeError(f"{type(field).__name__} carries no grid axes")
    return [(name, getattr(field, attr)) for name, attr in field.AXES]


# Default evaluation grids.
DEFAULT_X_GRID = uniform_grid(-10.0, 10.0, 1024)
DEFAULT_PHASE_GRID = uniform_grid(-6.0, 6.0, 241)
# Largest |chi| on a window's ends, line-end |W| of a Radon row, and end value
# of a row evolve_pde reads past, over the largest of each, before a warning.
MU_EDGE_LIMIT = 1e-5
_CUT = " is {measured:.3g} of its maximum, above {limit:g}"
# The one rule that turns a measurement into a warning: each meta key a
# transform records and is judged by, with (limit, target, warning text);
# the text is formatted with the measured value and the limit.
LIMITS = {
    "edge": (MU_EDGE_LIMIT, 0.0, "chi truncated: |chi| on the window edges" + _CUT),
    "mu_edge": (MU_EDGE_LIMIT, 0.0,
                "chi truncated: the inner integral at the mu_range ends" + _CUT),
    "q_edge": (MU_EDGE_LIMIT, 0.0, "rho truncated: |rho(q, q)| at the q_grid ends" + _CUT),
    "line_edge": (MU_EDGE_LIMIT, 0.0, "line window cuts W: |W| at the line ends" + _CUT),
    "max_imag": (1e-6, 0.0, "imaginary residue {measured:.3g} exceeds 1e-6"),
    "outflow": (1e-3, 0.0, "boundary outflow: {measured:.2%} of lookups fall "
                "past an X end where the field has not decayed"),
    "mass_drift": (1e-2, 0.0, "mass drift {measured:.2%} since t=0 "
                   "(boundary outflow or under-resolution)"),
    "normalization": (1e-3, 1.0, "normalization {measured:.6g} deviates from 1 beyond 1e-3"),
}


def within(measured, limit: float, target: float = 0.0) -> bool:
    """|measured - target| <= limit; a NaN is never within."""
    return bool(abs(measured - target) <= limit)


def warnings_of(meta: dict) -> tuple[str, ...]:
    """The warning of each LIMITS key in meta not within, in LIMITS order."""
    return tuple(text.format(measured=meta[key], limit=limit)
                 for key, (limit, target, text) in LIMITS.items()
                 if key in meta and not within(meta[key], limit, target))


@dataclass(frozen=True)
class TomographyParams:
    """Direction and offset (mu, nu, delta) of one measured quadrature.

    The pair (mu, nu) = (cos phi, sin phi) with delta = 0 recovers the
    rotated-quadrature (optical homodyne) family.  Line operations require
    mu**2 + nu**2 > 0; a zero direction is rejected at the call site.
    """

    mu: float
    nu: float
    delta: float = 0.0

    def __post_init__(self):
        vals = (self.mu, self.nu, self.delta)
        if not all(np.isfinite(v) and not isinstance(v, bool) for v in vals):
            raise ValueError("tomography parameters must be finite numbers")

    @property
    def r(self) -> float:
        return float(np.hypot(self.mu, self.nu))


@dataclass(frozen=True)
class WignerField(_GridField):
    """Wigner function samples on a rectangular (q, p) grid."""

    AXES = (("q", "q_grid"), ("p", "p_grid"))

    q_grid: np.ndarray
    p_grid: np.ndarray
    values: np.ndarray
    warnings: tuple[str, ...] = ()
    meta: dict = field(default_factory=dict)

    def normalization(self) -> float:
        """Trapezoid estimate of integral W dq dp / (2*pi)."""
        inner = np.trapezoid(self.values, self.p_grid, axis=1)
        return float(np.trapezoid(inner, self.q_grid) / (2.0 * np.pi))


@dataclass(frozen=True)
class MarginalSlice(_GridField):
    """One marginal w(X) at fixed (mu, nu, delta)."""

    AXES = (("x", "x_grid"),)

    params: TomographyParams
    x_grid: np.ndarray
    values: np.ndarray
    warnings: tuple[str, ...] = ()
    meta: dict = field(default_factory=dict)

    def normalization(self) -> float:
        return float(np.trapezoid(self.values, self.x_grid))


@dataclass(frozen=True)
class MarginalField(_GridField):
    """Marginal samples w(X; mu, nu) at delta = 0 on a rectangular grid.

    values has shape (len(mu_grid), len(nu_grid), len(x_grid)).  The cell
    at (mu, nu) = (0, 0), if present, carries no information (the marginal
    degenerates there) and is stored as zero.
    """

    AXES = (("mu", "mu_grid"), ("nu", "nu_grid"), ("x", "x_grid"))

    mu_grid: np.ndarray
    nu_grid: np.ndarray
    x_grid: np.ndarray
    values: np.ndarray
    warnings: tuple[str, ...] = ()
    meta: dict = field(default_factory=dict)

    def radius(self) -> np.ndarray:
        """|(mu, nu)| per cell, shape (n_mu, n_nu)."""
        return np.hypot(self.mu_grid[:, None], self.nu_grid[None, :])

    def reach(self) -> float:
        """Distance from the origin to the nearest edge of the direction box;
        refuses a box that does not surround the origin."""
        reach = float(min(self.mu_grid[-1], -self.mu_grid[0],
                          self.nu_grid[-1], -self.nu_grid[0]))
        if not reach > 0.0:
            raise ValueError("field box must surround the origin")
        return reach


@dataclass(frozen=True)
class CharacteristicGrid(_GridField):
    """Symmetric-ordered characteristic function chi(a, b) on a grid.

    chi(a, b) is the expectation of exp(i*(a*q + b*p)); chi(0, 0) = 1 and
    chi(-a, -b) = conj(chi(a, b)) for any physical input.
    """

    AXES = (("a", "a_grid"), ("b", "b_grid"))

    a_grid: np.ndarray
    b_grid: np.ndarray
    values: np.ndarray
    warnings: tuple[str, ...] = ()
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ReconstructionConfig:
    """Quadrature plan for the density matrix as the outer transform of chi.

    The a-integral runs over a = |s| mu, mu on mu_samples points of
    mu_range = (lo, hi), two finite numbers with lo < hi.  mu_samples must
    be integral; a float such as 501.0 is stored as the int.  s is a free
    rescaling of the kernel; any admissible input gives s-independent
    output, which is used as a consistency check.
    """

    s: float = 1.0
    mu_range: tuple[float, float] = (-8.0, 8.0)
    mu_samples: int = 801

    def __post_init__(self):
        if self.s == 0.0 or not np.isfinite(self.s):
            raise ValueError("s must be finite and nonzero")
        ends = np.asarray(self.mu_range, dtype=float)
        if ends.shape != (2,) or not (np.all(np.isfinite(ends)) and ends[0] < ends[1]):
            raise ValueError(f"mu_range must be two finite numbers lo < hi, "
                             f"got {self.mu_range!r}")
        n = self.mu_samples
        if (isinstance(n, bool) or not isinstance(n, (int, float, np.integer, np.floating))
                or not float(n).is_integer()):
            raise ValueError(f"mu_samples must be an integer, got {n!r}")
        object.__setattr__(self, "mu_samples", int(n))
        if self.mu_samples < 9:
            raise ValueError("sample counts too small")


@dataclass(frozen=True)
class DensityMatrixGrid(_GridField):
    """Position-representation density matrix rho(q, q') on a square grid."""

    AXES = (("q", "q_grid"), ("q_conj", "q_grid"))

    q_grid: np.ndarray
    values: np.ndarray
    config: ReconstructionConfig = field(default_factory=ReconstructionConfig)
    warnings: tuple[str, ...] = ()
    meta: dict = field(default_factory=dict)

    def trace(self) -> float:
        return float(np.real(np.trapezoid(np.diag(self.values), self.q_grid)))

    def purity(self) -> float:
        w = trapezoid_weights(self.q_grid)
        return float(np.real(np.sum(w[:, None] * w[None, :] * np.abs(self.values) ** 2)))

    def hermiticity_defect(self) -> float:
        return float(np.max(np.abs(self.values - self.values.conj().T)))

    def eigenvalues(self) -> np.ndarray:
        """Operator spectrum estimated with symmetric trapezoid weighting."""
        sw = np.sqrt(trapezoid_weights(self.q_grid))
        sym = sw[:, None] * self.values * sw[None, :]
        return np.linalg.eigvalsh(0.5 * (sym + sym.conj().T))
