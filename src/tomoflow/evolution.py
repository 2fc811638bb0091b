"""Time evolution of the marginal family for polynomial potentials.

For H = p^2/2 + V(q) the marginal w(X, mu, nu, t) obeys a transport
equation in the parameter space (X, mu, nu).  `reduce_equation` builds its
terms symbolically; for deg V <= 2 every term is first order,

    V = 0:           dw/dt = mu dw/dnu
    V = c1 q:        dw/dt = mu dw/dnu + c1 nu dw/dX
    V = c2 q^2:      dw/dt = mu dw/dnu - 2 c2 nu dw/dmu

so the exact solution is an affine reparametrization (method of
characteristics).  Degree >= 3 leaves antiderivatives in X in the reduced
operator; such potentials are rejected with the obstruction spelled out.
Every function here names the dynamics by its `fields.PotentialSpec`, and
nothing here reads `states`, whose closed forms stay an independent oracle.

Sign conventions are anchored on three exact facts that hold for any
admissible equation: d<p>/dt = -V'(<q>) for deg V <= 2 (Ehrenfest),
d<X>/dt = mu <p> - c1 nu for the slice mean, and rotation of (mu, nu) for
V = q^2/2.  The c1 term carries a plus sign; its characteristics shift
X by +c1 (nu t + mu t^2 / 2) going backwards, which reproduces uniformly
accelerated packets exactly.

The grid solver `evolve_pde` traces each snapshot's affine flow back to
t = 0 exactly and resamples the initial field there once by cubic spline
(one `_resample` call), reading every lookup on one circle of directions
through the exact scaling identity; this sidesteps both outflow from the
direction box (the flow may leave any finite (mu, nu) box) and the 1/r
sharpening of the marginal near the degenerate direction.  The module needs
numpy only; its splines are the tomography layer's: `fields._prefilter`
coefficients, padded by edge values once per call, read by `fields.padded_taps`.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    MU_EDGE_LIMIT,
    MarginalField,
    NonlocalPotentialError,
    PotentialSpec,
    _prefilter,
    bicubic_rows,
    check_time,
    grid_step,
    padded_taps,
    uniform_grid,
    warnings_of,
)

DEFAULT_MU_GRID = uniform_grid(-1.5, 1.5, 65)
DEFAULT_NU_GRID = uniform_grid(-1.5, 1.5, 65)
DEFAULT_EVOLUTION_X_GRID = uniform_grid(-8.0, 8.0, 257)

# A slice narrows like its direction radius r, w = (1/r) u(X/r), so below
# this radius the default X grid (0.5 spans eight X-cells) stops representing
# a sharp slice, and comparisons of grid fields leave those cells out.
DEFAULT_VALID_RADIUS = 0.5

# Radius of the circle every resample lookup is scaled onto, over the field's
# reach: high in the box, where the arc h / r between directions is short, and
# clear of the edge (1.245 on +-1.5, five cells of a 65-point grid inside it).
_CIRCLE = 0.83


def expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential: the Taylor series of b = a / 2^s to b^15 / 15!,
    with ||b||_1 <= 1/2 so the first term left out is below 1e-18, squared
    s times (Moler & Van Loan, SIAM Rev. 45, 3 (2003), method 3)."""
    s = max(0, math.frexp(np.abs(a).sum(axis=0).max())[1] + 1)
    term = out = np.eye(a.shape[0])
    for k in range(1, 16):
        term = term @ a / (k * 2.0 ** s)
        out = out + term
    for _ in range(s):
        out = out @ out
    return out


@dataclass(frozen=True)
class TransportTerm:
    """One right-hand-side term coeff * mu^mu_pow nu^nu_pow d^dx_X d^dmu_mu d^dnu_nu w.

    dx may be negative in intermediate algebra, marking an antiderivative
    in X; reduce_equation refuses to return such terms.
    """

    coeff: float
    mu_pow: int = 0
    nu_pow: int = 0
    dx: int = 0
    dmu: int = 0
    dnu: int = 0

    def describe(self) -> str:
        parts = [f"{self.coeff:+g}"]
        for sym, power in (("mu", self.mu_pow), ("nu", self.nu_pow)):
            if power:
                parts.append(sym if power == 1 else f"{sym}^{power}")
        for sym, order in (("X", self.dx), ("mu", self.dmu), ("nu", self.dnu)):
            if order:
                parts.append(f"d/d{sym}" if order == 1 else f"d^{order}/d{sym}^{order}")
        return "*".join(parts)


@dataclass(frozen=True)
class PDECoefficients:
    """Right-hand side of dw/dt = sum(terms) for one potential."""

    terms: tuple[TransportTerm, ...]
    potential: PotentialSpec

    def describe(self) -> str:
        return "dw/dt = " + " ".join(t.describe() for t in self.terms)

    def generator_matrix(self) -> np.ndarray:
        """Characteristic generator A with d/dt (X, mu, nu) = A (X, mu, nu).

        Only defined when every term is an advection monomial (one first
        derivative, one first power), which reduce_equation guarantees.
        """
        a = np.zeros((3, 3))
        for t in self.terms:
            derivs = (t.dx, t.dmu, t.dnu)
            powers = (0, t.mu_pow, t.nu_pow)
            if sum(derivs) != 1 or sum(powers) != 1 or min(derivs) < 0:
                raise NonlocalPotentialError(
                    f"term {t.describe()} is not advective")
            row = derivs.index(1)
            col = powers.index(1)
            # dw/dt = coeff var ddim w  means velocity_dim = -coeff var.
            a[row, col] -= t.coeff
        return a


def reduce_equation(potential: PotentialSpec) -> PDECoefficients:
    """Expand dw/dt for H = p^2/2 + V into explicit transport terms.

    The kinetic part always contributes +mu d/dnu.  A monomial c_n q^n
    contributes, for j = 0 .. floor((n-1)/2), the term

        c_n (-1)^j / (4^j (2j+1)!) * n!/(n-2j-1)! * (-1)^(n-2j-1)
            * nu^(2j+1) d^(n-2j-1)/dmu^(n-2j-1) d^(4j+2-n)/dX^(4j+2-n)

    For n >= 3 the j = 0 term has a negative X order (an antiderivative):
    the equation is integro-differential and is rejected.
    """
    terms = [TransportTerm(1.0, mu_pow=1, dnu=1)]
    obstructions = []
    for n, c_n in enumerate(potential.coefficients):
        if c_n == 0.0:
            continue
        for j in range((n - 1) // 2 + 1):
            coeff = c_n * ((-1.0) ** j / (4.0 ** j * math.factorial(2 * j + 1)))
            coeff *= math.factorial(n) / math.factorial(n - 2 * j - 1)
            coeff *= (-1.0) ** (n - 2 * j - 1)
            term = TransportTerm(coeff, nu_pow=2 * j + 1, dmu=n - 2 * j - 1,
                                 dx=4 * j + 2 - n)
            if term.dx < 0:
                obstructions.append(term)
            else:
                terms.append(term)
    if obstructions:
        listing = ", ".join(t.describe() + f" with {-t.dx} X-antiderivative(s)"
                            for t in obstructions)
        raise NonlocalPotentialError(
            f"potential of degree {potential.degree} reduces to an "
            f"integro-differential equation; nonlocal terms: {listing}")
    return PDECoefficients(tuple(terms), potential)


def evolve_characteristics(initial, potential: PotentialSpec, t: float):
    """Exact evolution of a marginal source by backward characteristics.

    ``initial`` is any callable w(x, mu, nu, delta); the result has the
    same signature.  ``potential`` is of degree <= 2, at any t; at t = 0
    the result is ``initial`` itself.
    """
    t = check_time(t)
    gen = reduce_equation(potential).generator_matrix()
    if t == 0.0:
        return initial
    back = expm(-gen * t)

    def evolved(x, mu, nu, delta=0.0):
        y = np.asarray(x, dtype=float) - delta
        mu = np.asarray(mu, dtype=float)
        nu = np.asarray(nu, dtype=float)
        # back[1,0] = back[2,0] = 0: the direction flow never involves X.
        x_b = back[0, 0] * y + back[0, 1] * mu + back[0, 2] * nu
        mu_b = back[1, 1] * mu + back[1, 2] * nu
        nu_b = back[2, 1] * mu + back[2, 2] * nu
        return initial(x_b, mu_b, nu_b, 0.0)

    return evolved


def evolve_wigner_reference(wigner, potential: PotentialSpec, t: float):
    """Wigner evaluator W(q, p) at time t via the classical backward flow.

    ``wigner`` is any callable W0(q, p), as ``evolve_characteristics``
    takes a marginal callable; at t = 0 the result is ``wigner`` itself.
    Exact for potentials of degree <= 2, where quantum and classical
    phase-space transport coincide; serves as the independent reference
    side of the marginal-evolution consistency checks.
    """
    t = check_time(t)
    reduce_equation(potential)  # rejects potentials without a local flow
    if t == 0.0:
        return wigner
    coeffs = list(potential.coefficients) + [0.0, 0.0]
    c1, c2 = coeffs[1], coeffs[2]
    gen = np.array([[0.0, 1.0, 0.0],
                    [-2.0 * c2, 0.0, -c1],
                    [0.0, 0.0, 0.0]])
    back = expm(-gen * t)

    def evolved(q, p):
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        q_b = back[0, 0] * q + back[0, 1] * p + back[0, 2]
        p_b = back[1, 0] * q + back[1, 1] * p + back[1, 2]
        return wigner(q_b, p_b)

    return evolved


@dataclass(frozen=True)
class SolverConfig:
    """Grid-solver plan for evolve_pde.  It takes no settings, since the
    exact backtrace leaves nothing to choose; callers still pass one."""


# Lookups per chunk of cells: the X stage's buffers stay in the L2 cache.
_X_STAGE_POINTS = 1 << 14


# The two spline kernels keep scipy.ndimage's names and (array, coordinates)
# arguments: perfbench/tracing.py wraps both, and times the prefilter.
def spline_filter(values: np.ndarray) -> np.ndarray:
    """Cubic B-spline coefficients along every axis, clamped ends."""
    for axis in range(values.ndim):
        values = _prefilter(values, axis)
    return values


# Nothing in the package calls this; perfbench/tracing.py wraps the name.
def map_coordinates(coeffs: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """The cubic B-spline of edge-padded coefficients ``coeffs`` at index
    coordinates ``coords`` (one row per axis) of the unpadded box, clamped
    ends (`fields.padded_taps`); sums the last axis innermost."""
    steps = np.cumprod((1,) + coeffs.shape[:0:-1])[::-1]
    first = np.empty(np.shape(coords), np.intp)
    weights = np.empty((coeffs.ndim, 4) + first.shape[1:])
    for axis, size in enumerate(coeffs.shape):
        padded_taps(np.array(coords[axis], dtype=float), size - 5, first[axis],
                    weights[axis])
    base, flat = steps @ first, coeffs.ravel()
    out = 0.0
    for outer in itertools.product(range(4), repeat=coeffs.ndim - 1):
        at = flat[sum(step * k for step, k in zip(steps, outer)):]
        inner = sum(w * at[k:].take(base) for k, w in enumerate(weights[-1]))
        out = out + math.prod(w[k] for w, k in zip(weights, outer)) * inner
    return out


def _resample(coeffs: np.ndarray, field: MarginalField, gen: np.ndarray,
              t: float) -> tuple[np.ndarray, float]:
    """One SemiLagrangian resample over span t, and its outflow fraction.

    Lookup (cell, k) reads the spline of edge-padded ``coeffs`` at inv *
    (mu_d, nu_d, x_d), weighted by inv: (mu_d, nu_d) is the cell's backtraced
    direction, x_d = x_back * x_k + shift[cell], and inv = R / |(mu_d, nu_d)|
    (0 at the origin) puts every direction on the circle R = _CIRCLE * reach.
    `fields.bicubic_rows` reads each cell's row on the circle once; a 4-tap
    cubic along X reads its lookups.  A lookup past an X end reads 0, and is
    outflow when the row's |value| at that end is above MU_EDGE_LIMIT of its
    largest: the circle cannot supply it.
    """
    back = expm(-gen * t)
    mu, nu = field.mu_grid[:, None], field.nu_grid[None, :]
    # back[1,0] = back[2,0] = 0: the direction flow never involves X.
    mu_d = (back[1, 1] * mu + back[1, 2] * nu).ravel()
    nu_d = (back[2, 1] * mu + back[2, 2] * nu).ravel()
    shift = (back[0, 1] * mu + back[0, 2] * nu).ravel()
    r_d = np.hypot(mu_d, nu_d)
    inv = np.divide(_CIRCLE * field.reach(), r_d, out=np.zeros_like(r_d),
                    where=r_d > 0.0)

    def index(value, grid):
        return (value - grid[0]) / grid_step(grid)

    along = bicubic_rows(coeffs, index(mu_d * inv, field.mu_grid),
                         index(nu_d * inv, field.nu_grid))
    n_x = field.x_grid.size
    out, n_out = np.empty((r_d.size, n_x)), 0
    chunk = max(1, _X_STAGE_POINTS // n_x)
    first, buffers = np.empty((chunk, n_x), np.intp), np.empty((5, chunk, n_x))
    for lo in range(0, r_d.size, chunk):
        cells = slice(lo, lo + chunk)
        rows, value = along[cells], out[cells]
        m, tap = len(rows), buffers[0, :len(rows)]
        # 6 x each row's values at the X nodes: c[k-1] + 4 c[k] + c[k+1].
        node = np.abs(rows[:, 1:-4] + 4.0 * rows[:, 2:-3] + rows[:, 3:-2])
        cut = node[:, [0, -1]] > MU_EDGE_LIMIT * node.max(axis=1, keepdims=True)
        coord = index((back[0, 0] * field.x_grid + shift[cells, None])
                      * inv[cells, None], field.x_grid)
        below, above = coord < 0.0, coord > n_x - 1.0
        n_out += np.count_nonzero(below & cut[:, :1] | above & cut[:, 1:])
        start = padded_taps(coord, n_x, first[:m], buffers[1:, :m])
        start += (n_x + 5) * np.arange(m)[:, None]
        value[...] = 0.0
        for k, w in enumerate(buffers[1:, :m]):
            # The indices are in range; mode="clip" only spares take a buffer.
            value += np.multiply(w, np.take(rows.ravel()[k:], start, out=tap,
                                            mode="clip"), out=tap)
        value *= inv[cells, None]
        value[below | above] = 0.0
    return out.reshape(field.values.shape), n_out / out.size


def evolve_pde(initial: MarginalField, coeffs: PDECoefficients,
               config: SolverConfig,
               times: list[float]) -> list[MarginalField]:
    """Advance a marginal field on its grid; exact affine backtracing.

    Returns the list of fields at ``times``: any finite times, in any
    order, a negative one evolving backwards.  Each snapshot at t != 0 is
    one resample of the initial field at its exact backtrace e^{-At} z, so
    snapshots do not depend on each other; a snapshot at t = 0 is a copy of
    the initial field.  Its meta is its own, none of the initial field's:
    "time", "potential" and two fractions (0.0 at t = 0), "outflow", the
    lookups past an X end that the circle of `_resample` cannot supply, and
    "mass_drift".  Its warnings are the initial field's, then those
    `fields.LIMITS` gives its meta.  Refuses a direction box that does not
    surround the origin and an initial field that is not finite.
    """
    gen = coeffs.generator_matrix()
    initial.reach()  # refuses a box that does not surround the origin
    if not np.all(np.isfinite(initial.values)):
        raise ValueError("initial field has non-finite values")
    snapshot_times = [check_time(t) for t in times]

    initial_mass = float(np.sum(np.abs(initial.values)))
    # Edge values repeat beyond the box, as the clamped taps read them.
    spline = np.pad(spline_filter(initial.values), ((2, 3),) * 3, mode="edge")
    out = []
    for target in snapshot_times:
        out_frac = drift = 0.0
        if target == 0.0:
            values = initial.values.astype(float)
        else:
            values, out_frac = _resample(spline, initial, gen, target)
        if initial_mass > 0.0:
            drift = abs(float(np.sum(np.abs(values))) - initial_mass) / initial_mass
        meta = {"time": target, "potential": coeffs.potential.coefficients,
                "outflow": out_frac, "mass_drift": drift}
        out.append(MarginalField(initial.mu_grid, initial.nu_grid, initial.x_grid,
                                 values, initial.warnings + warnings_of(meta), meta))
    return out
