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

Sign conventions are anchored on three exact facts that hold for any
admissible equation: d<p>/dt = -V'(<q>) for deg V <= 2 (Ehrenfest),
d<X>/dt = mu <p> - c1 nu for the slice mean, and rotation of (mu, nu) for
V = q^2/2.  The c1 term carries a plus sign; its characteristics shift
X by +c1 (nu t + mu t^2 / 2) going backwards, which reproduces uniformly
accelerated packets exactly.

The grid solver `evolve_pde` offers two schemes.  SemiLagrangian traces
each snapshot's affine flow back to t = 0 exactly and resamples the
initial field there once by cubic spline (one `_resample` call), scaling
every lookup to a fixed reference annulus of |(mu, nu)| through the
exact scaling identity; this sidesteps both box outflow (the flow may
leave any finite (mu, nu) box) and the 1/r sharpening of the marginal
near the degenerate direction.  Upwind is a plain first-order
directional-difference scheme with a CFL guard, kept as an independent
cross-check and for convergence studies.  The module needs numpy only; its
splines are the tomography layer's (`fields._prefilter`, `fields.cubic_taps`).
"""

from __future__ import annotations

import enum
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    MarginalField,
    NonlocalPotentialError,
    PotentialSpec,
    _prefilter,
    cubic_taps,
    grid_step,
    uniform_grid,
)
from .states import DynamicsKind, StateSpec, wigner_evaluator

DEFAULT_MU_GRID = uniform_grid(-1.5, 1.5, 65)
DEFAULT_NU_GRID = uniform_grid(-1.5, 1.5, 65)
DEFAULT_EVOLUTION_X_GRID = uniform_grid(-8.0, 8.0, 257)

# Cells closer than this to the degenerate direction are too sharp for the
# default X resolution (the slice narrows like r, and 0.5 spans eight
# X-cells); solver output there is excluded from comparisons.
DEFAULT_VALID_RADIUS = 0.5

# Times in [0, t] at which resolvable_mask checks the backtraced radius.
_MASK_SAMPLES = 257

# Reference annulus of the SemiLagrangian scaled-frame lookups.  A thin
# band high in the direction box minimizes the arc spacing h/r that sets
# the band's own error accumulation, but its top edge must stay several
# cells clear of the box edge or the cubic stencil picks up boundary
# flattening; (1.2, 1.3) balances the two on the default +-1.5 box.
_R_REF_RANGE = (1.2, 1.3)

# Largest CFL number the upwind scheme accepts; donor-cell differencing
# is stable up to 1.
_MAX_CFL = 0.9


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
        cols = {"x": 0, "mu": 1, "nu": 2}
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


def _as_potential(dyn) -> PotentialSpec | None:
    """Map a dynamics tag to its potential; None means no motion at all."""
    if isinstance(dyn, PotentialSpec):
        return dyn
    if dyn == DynamicsKind.STATIC:
        return None
    if dyn == DynamicsKind.FREE:
        return PotentialSpec.free()
    if dyn == DynamicsKind.HARMONIC:
        return PotentialSpec.harmonic()
    raise ValueError(f"unsupported dynamics {dyn!r}")


def evolve_characteristics(initial, dyn, t: float):
    """Exact evolution of a marginal source by backward characteristics.

    ``initial`` is any callable w(x, mu, nu, delta); the result has the
    same signature.  ``dyn`` is a DynamicsKind or a PotentialSpec of
    degree <= 2.
    """
    t = float(t)
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    potential = _as_potential(dyn)
    if potential is None or t == 0.0:
        return initial
    gen = reduce_equation(potential).generator_matrix()
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


def evolve_wigner_reference(state, dyn, t: float):
    """Wigner evaluator W(q, p) at time t via the classical backward flow.

    Exact for potentials of degree <= 2, where quantum and classical
    phase-space transport coincide; serves as the independent reference
    side of the marginal-evolution consistency checks.  ``state`` is a
    StateSpec or any callable W0(q, p).
    """
    t = float(t)
    if not np.isfinite(t):
        raise ValueError("time must be finite")
    wigner = wigner_evaluator(state) if isinstance(state, StateSpec) else state
    potential = _as_potential(dyn)
    if potential is None or t == 0.0:
        return wigner
    reduce_equation(potential)  # rejects potentials without a local flow
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


def resolvable_mask(field: MarginalField, coeffs: PDECoefficients, t: float,
                    r_min: float = DEFAULT_VALID_RADIUS) -> np.ndarray:
    """Cells whose backtraced direction stays resolvable up to time t.

    The slice at direction radius r has X-width proportional to r, so data
    carried from below r_min is unrepresentable on the grid no matter the
    scheme; a grid solver's output is only meaningful on cells whose
    characteristic kept |(mu, nu)| >= r_min for the whole run.  Returns a
    boolean (n_mu, n_nu) mask; combine with field.valid_mask for the
    current-radius condition.
    """
    t = float(t)
    if t < 0.0 or not np.isfinite(t):
        raise ValueError("time must be finite and >= 0")
    gen = coeffs.generator_matrix()
    mu = field.mu_grid[:, None]
    nu = field.nu_grid[None, :]
    ok = np.ones(np.broadcast_shapes(mu.shape, nu.shape), dtype=bool)
    for s in np.linspace(0.0, t, _MASK_SAMPLES):
        back = expm(-gen * s)
        r_s = np.hypot(back[1, 1] * mu + back[1, 2] * nu,
                       back[2, 1] * mu + back[2, 2] * nu)
        ok &= r_s >= r_min
    return ok


class Scheme(str, enum.Enum):
    SEMILAGRANGIAN = "semilagrangian"
    UPWIND = "upwind"


@dataclass(frozen=True)
class SolverConfig:
    """Grid-solver plan for evolve_pde: the scheme and its time step.

    The SemiLagrangian scheme resamples the initial field once per
    snapshot and does not use dt; the upwind scheme steps by dt under a
    CFL guard.
    """

    scheme: Scheme = Scheme.SEMILAGRANGIAN
    dt: float = 0.01

    def __post_init__(self):
        if self.dt <= 0.0 or not np.isfinite(self.dt):
            raise ValueError("dt must be positive and finite")


# Lookups per chunk of cells; bounds the transient per-lookup arrays.
_X_STAGE_POINTS = 1 << 16


# The two spline kernels keep scipy.ndimage's names and (array, coordinates)
# arguments and are looked up at call time: perfbench/tracing.py times the
# prefilter and the capped lookups by wrapping these module attributes.
def spline_filter(values: np.ndarray) -> np.ndarray:
    """Cubic B-spline coefficients along every axis, clamped ends."""
    for axis in range(values.ndim):
        values = _prefilter(values, axis)
    return np.ascontiguousarray(values)


def map_coordinates(coeffs: np.ndarray, coords: np.ndarray) -> np.ndarray:
    """The cubic B-spline of ``coeffs`` at index coordinates ``coords`` (one
    row per axis), taps clamped into the box; sums the last axis innermost."""
    flat = coeffs.ravel()
    steps = np.cumprod((1,) + coeffs.shape[:0:-1])[::-1]
    taps = [cubic_taps(coord, size) for coord, size in zip(coords, coeffs.shape)]
    out = 0.0
    for outer in itertools.product(*taps[:-1]):
        base = sum(step * tap for step, (tap, _) in zip(steps, outer))
        inner = sum(w * flat.take(base + tap) for tap, w in taps[-1])
        out = out + math.prod(w for _, w in outer) * inner
    return out


def _resample(coeffs: np.ndarray, field: MarginalField, gen: np.ndarray,
              t: float) -> tuple[np.ndarray, float]:
    """One SemiLagrangian resample over span t, and its outflow fraction.

    Lookup (cell, k) reads the cubic spline with prefiltered coefficients
    ``coeffs`` at inv * (mu_d, nu_d, x_d) and weights the value by inv,
    where (mu_d, nu_d) is the cell's backtraced direction, x_d = x_back *
    x_k + shift[cell], and inv the scaled-frame factor.  Where inv is the
    cell's own factor, the direction is fixed per cell: a 16-tap direction
    stage reads every cell's spline row once, and only a 4-tap cubic along
    X remains per lookup.  The X-box cap moves the other lookups either
    onto X = +-x_edge, a 2-D read of the spline's plane there, or to
    inv = 1, a plain 3-D read.
    """
    back = expm(-gen * t)
    grids = (field.mu_grid, field.nu_grid, field.x_grid)
    sizes = coeffs.shape

    def index(value, axis):
        return (value - grids[axis][0]) / grid_step(grids[axis])

    def outside(*coords):
        """Lookups whose index coordinates, one per axis, leave the box."""
        out = False
        for coord, size in zip(coords, sizes):
            out = out | (coord < 0.0) | (coord > size - 1.0)
        return out

    mu = field.mu_grid[:, None]
    nu = field.nu_grid[None, :]
    # back[1,0] = back[2,0] = 0: the direction flow never involves X.
    mu_d = (back[1, 1] * mu + back[1, 2] * nu).ravel()
    nu_d = (back[2, 1] * mu + back[2, 2] * nu).ravel()
    shift = (back[0, 1] * mu + back[0, 2] * nu).ravel()
    x_edge = min(-field.x_grid[0], field.x_grid[-1])
    r_d = np.hypot(mu_d, nu_d)
    r_ref = np.clip(r_d, *_R_REF_RANGE)
    inv = np.where(r_d > 0.0, r_ref / np.where(r_d > 0.0, r_d, 1.0), 0.0)

    a = index(mu_d * inv, 0)
    b = index(nu_d * inv, 1)
    taps = [(ia * sizes[1] + ib, wa * wb)
            for ia, wa in cubic_taps(a, sizes[0])
            for ib, wb in cubic_taps(b, sizes[1])]
    tap_rows, tap_weights = (np.stack(part, axis=1) for part in zip(*taps))
    n_x = sizes[2]
    rows = coeffs.reshape(-1, n_x)
    # 16-tap direction stage: each cell's spline row at its own direction,
    # 16 cells' 16 gathered rows at a time.
    along = np.empty_like(rows)
    for lo in range(0, a.size, 16):
        cells = slice(lo, lo + 16)
        along[cells] = (tap_weights[cells, None, :]
                        @ rows[tap_rows[cells]])[:, 0]
    out = np.empty_like(rows)
    n_out = 0
    picked = []
    chunk = max(1, _X_STAGE_POINTS // n_x)
    for lo in range(0, rows.shape[0], chunk):
        cells = slice(lo, lo + chunk)
        x_d = back[0, 0] * field.x_grid + shift[cells, None]
        # Inflating a lookup (inv > 1) also inflates its X coordinate; cap
        # the inflation so no lookup leaves the X box, falling back toward
        # a plain (unscaled) read rather than a boundary substitute.
        with np.errstate(divide="ignore"):
            cap = np.maximum(1.0, x_edge / np.abs(x_d))
        capped = inv[cells, None] > cap
        coord = index(x_d * inv[cells, None], 2)
        n_out += np.count_nonzero(~capped & outside(
            a[cells, None], b[cells, None], coord))
        row = n_x * np.arange(lo, lo + coord.shape[0])[:, None]
        out[cells] = inv[cells, None] * sum(w * along.take(tap + row)
                                            for tap, w in cubic_taps(coord, n_x))
        picked.append((np.flatnonzero(capped) + lo * n_x, cap[capped],
                       x_d[capped]))

    # Capped at x_edge / |x_d| > 1, a lookup lands on X = +-x_edge exactly
    # and only its direction varies; capped at 1 it is a plain read.
    lookups, scale, x_c = (np.concatenate(part) for part in zip(*picked))
    cell = lookups // n_x
    out = out.reshape(-1)
    for side in (-1.0, 1.0):
        on = (scale > 1.0) & (np.sign(x_c) == side)
        if on.any():
            coords = np.stack((index(mu_d[cell[on]] * scale[on], 0),
                               index(nu_d[cell[on]] * scale[on], 1)))
            n_out += np.count_nonzero(
                outside(*coords, index(x_c[on] * scale[on], 2)))
            plane = sum(w * coeffs[:, :, tap]
                        for tap, w in cubic_taps(index(side * x_edge, 2), n_x))
            out[lookups[on]] = scale[on] * map_coordinates(plane, coords)
    on = scale == 1.0
    coords = np.stack((index(mu_d[cell[on]], 0), index(nu_d[cell[on]], 1),
                       index(x_c[on], 2)))
    n_out += np.count_nonzero(outside(*coords))
    if on.any():
        out[lookups[on]] = map_coordinates(coeffs, coords)
    return out.reshape(coeffs.shape), n_out / out.size


def _upwind_rhs(values: np.ndarray, field: MarginalField, gen: np.ndarray):
    """-(V . grad w) with first-order directional differences, clamped edges.

    The velocity has one value per (mu, nu) cell, sliced on those axes,
    and its sign picks the upstream side: d[i] = w[i+1] - w[i] is the
    backward difference at i + 1 where it is positive and the forward one
    at i elsewhere; the clamped edge's own difference is zero.
    """
    grids = (field.mu_grid, field.nu_grid, field.x_grid)
    mu = field.mu_grid[:, None, None]
    nu = field.nu_grid[None, :, None]
    # velocity components in field-axis order (mu, nu, x)
    velocities = (gen[1, 1] * mu + gen[1, 2] * nu,
                  gen[2, 1] * mu + gen[2, 2] * nu,
                  gen[0, 1] * mu + gen[0, 2] * nu)
    rhs = np.zeros_like(values)
    for axis, (grid, vel) in enumerate(zip(grids, velocities)):
        if np.all(vel == 0.0):
            continue
        diff = np.diff(values, axis=axis)
        diff /= grid_step(grid)
        for side, part in ((slice(1, None), np.where(vel > 0.0, vel, 0.0)),
                           (slice(None, -1), np.where(vel > 0.0, 0.0, vel))):
            at = [slice(None)] * 3
            at[axis] = side
            rhs[tuple(at)] -= part[tuple(at[:2])] * diff
    return rhs


def _check_cfl(field: MarginalField, gen: np.ndarray, dt: float) -> float:
    mu_max = float(np.max(np.abs(field.mu_grid)))
    nu_max = float(np.max(np.abs(field.nu_grid)))
    bound = lambda row: abs(gen[row, 1]) * mu_max + abs(gen[row, 2]) * nu_max
    cfl = dt * (bound(1) / grid_step(field.mu_grid)
                + bound(2) / grid_step(field.nu_grid)
                + bound(0) / grid_step(field.x_grid))
    if cfl > _MAX_CFL:
        raise ValueError(f"CFL number {cfl:.3f} exceeds limit {_MAX_CFL}")
    return cfl


def _split_span(span: float, dt: float) -> tuple[int, float]:
    """Full dt steps and the partial last step (0.0 if none) covering span.

    A remainder within 1e-12 of 0 or of dt is rounding, not a step.
    """
    steps = math.floor(span / dt)
    partial = span - steps * dt
    if partial > dt - 1e-12:
        return steps + 1, 0.0
    if partial < 1e-12:
        return steps, 0.0
    return steps, partial


def evolve_pde(initial: MarginalField, coeffs: PDECoefficients,
               config: SolverConfig,
               times: list[float]) -> list[MarginalField]:
    """Advance a marginal field on its grid; exact affine backtracing.

    Returns the list of fields at ``times`` (finite, nondecreasing and
    >= 0).  The SemiLagrangian scheme computes each snapshot at t > 0 as
    one resample of the initial field at its exact backtrace e^{-At} z,
    so snapshots do not depend on each other; the upwind scheme steps by
    dt from snapshot to snapshot and hits each instant with a partial
    step.  A snapshot's warnings are the initial field's plus its own
    outflow and mass drift.
    """
    gen = coeffs.generator_matrix()
    snapshot_times = [float(t) for t in times]
    if not all(math.isfinite(t) for t in snapshot_times):
        raise ValueError(f"snapshot times must be finite, got {snapshot_times}")
    if any(t < 0 for t in snapshot_times) or any(
            b < a for a, b in zip(snapshot_times, snapshot_times[1:])):
        raise ValueError("snapshot times must be nondecreasing and >= 0")

    values = initial.values
    initial_mass = float(np.sum(np.abs(values)))
    if config.scheme == Scheme.UPWIND:
        _check_cfl(initial, gen, config.dt)
    else:
        # Edge values repeat beyond the box, as the clamped taps read them.
        spline = spline_filter(values)
    out = []
    t_now = 0.0
    for target in snapshot_times:
        warnings = set(initial.warnings)
        if config.scheme == Scheme.UPWIND:
            steps, partial = _split_span(target - t_now, config.dt)
            for step in [config.dt] * steps + ([partial] if partial else []):
                values = values + step * _upwind_rhs(values, initial, gen)
        elif target > 0.0:
            values, out_frac = _resample(spline, initial, gen, target)
            if out_frac > 1e-3:
                warnings.add(f"boundary outflow: {out_frac:.2%} of "
                             "backtraced points leave the box")
        t_now = target
        if initial_mass > 0.0:
            drift = abs(float(np.sum(np.abs(values))) - initial_mass) / initial_mass
            if drift > 1e-2:
                warnings.add(f"mass drift {drift:.2%} since t=0 "
                             "(boundary outflow or under-resolution)")
        meta = dict(initial.meta)
        meta.update({"time": t_now, "scheme": config.scheme.value,
                     "potential": coeffs.potential.coefficients})
        out.append(MarginalField(initial.mu_grid, initial.nu_grid,
                                 initial.x_grid, values.astype(float),
                                 tuple(sorted(warnings)), meta))
    return out
