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

The grid solver `evolve_pde` is the exact flow of its field's tomogram:
it reads the initial field once as a `tomography.FieldMarginalSource`, and
each snapshot traces every cell's affine flow back to t = 0 exactly and
reads the tomogram's unit-direction rows there through the scaling
identity.  This sidesteps both outflow from the direction box (the flow
may leave any finite (mu, nu) box) and the 1/r sharpening of the marginal
near the degenerate direction.  The module needs numpy only, and reads
no spline of its own.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    MarginalField,
    NonlocalPotentialError,
    PotentialSpec,
    _prefilter,
    check_time,
    padded_taps,
    uniform_grid,
    warnings_of,
)
from .tomography import FieldMarginalSource, _mirrored

DEFAULT_MU_GRID = uniform_grid(-1.5, 1.5, 65)
DEFAULT_NU_GRID = uniform_grid(-1.5, 1.5, 65)
DEFAULT_EVOLUTION_X_GRID = uniform_grid(-8.0, 8.0, 257)

# A slice narrows like its direction radius r, w = (1/r) u(X/r), so below
# this radius the default X grid (0.5 spans eight X-cells) stops representing
# a sharp slice, and comparisons of grid fields leave those cells out.
DEFAULT_VALID_RADIUS = 0.5


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
        return initial(*_backtrace(back, np.asarray(x, dtype=float) - delta,
                                   np.asarray(mu, dtype=float),
                                   np.asarray(nu, dtype=float)), 0.0)

    return evolved


def _backtrace(back: np.ndarray, x, mu, nu, out=None):
    """(X, mu, nu) carried back by back = e^{-At} (no X in its direction rows)."""
    x_d = np.add(back[0, 0] * x, back[0, 1] * mu, out=out)
    return (np.add(x_d, back[0, 2] * nu, out=out),
            back[1, 1] * mu + back[1, 2] * nu, back[2, 1] * mu + back[2, 2] * nu)


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


# Nothing in the package calls these two kernels; they keep scipy.ndimage's
# names and arguments because perfbench/tracing.py wraps both.
def spline_filter(values: np.ndarray) -> np.ndarray:
    """Cubic B-spline coefficients along every axis, clamped ends."""
    for axis in range(values.ndim):
        values = _prefilter(values, axis)
    return values


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


def _mass(values: np.ndarray) -> float:
    """sum |values|, slab by slab: no temporary of the field's size."""
    return float(sum(np.abs(slab).sum() for slab in values))


def evolve_pde(initial: MarginalField, coeffs: PDECoefficients,
               config: SolverConfig,
               times: list[float]) -> list[MarginalField]:
    """Advance a marginal field on its grid: the exact flow of its tomogram.

    Returns the list of fields at ``times``: any finite times, in any
    order, a negative one evolving backwards.  The field is read once as a
    `FieldMarginalSource` u(y; phi); a snapshot at t != 0 gives each cell
    u(x_d / r_d; phi_d) / r_d at its exact backtrace e^{-At} (X, mu, nu) =
    (x_d, r_d cos phi_d, r_d sin phi_d), 0 where r_d = 0, so snapshots do
    not depend on each other; a snapshot at t = 0 is a copy of the field.
    On mirrored mu, nu and X grids only the first ceil(cells / 2) cells are
    read, and cell cells - 1 - f is cell f with X reversed (the half turn).
    Its meta is its own, none of the field's: "time", "potential" and two
    fractions (0.0 at t = 0), "outflow", the lookups past a y-table end
    where the tomogram's row has not decayed, and "mass_drift".  Its
    warnings are the field's, then those `fields.LIMITS` gives its meta.
    Refuses a direction box that does not surround the origin and a field
    that is not finite.
    """
    gen = coeffs.generator_matrix()
    if not np.all(np.isfinite(initial.values)):
        raise ValueError("initial field has non-finite values")
    snapshot_times = [check_time(t) for t in times]
    source = FieldMarginalSource(initial)  # refuses a box not around the origin

    initial_mass = _mass(initial.values)
    cells = initial.mu_grid.size * initial.nu_grid.size
    half = -(-cells // 2) if _mirrored(initial.mu_grid, initial.nu_grid, initial.x_grid) else cells
    mu, nu = (g.ravel()[:half, None] for g in np.meshgrid(
        initial.mu_grid, initial.nu_grid, indexing="ij"))
    out = []
    for target in snapshot_times:
        out_frac = drift = 0.0
        if target == 0.0:
            values = initial.values.astype(float)
        else:
            values = np.empty((cells, initial.x_grid.size))
            y, mu_d, nu_d = _backtrace(expm(-gen * target), initial.x_grid, mu, nu,
                                       out=values[:half])
            r_d = np.hypot(mu_d, nu_d)
            inv = np.divide(1.0, r_d, out=np.zeros_like(r_d), where=r_d > 0.0)
            y *= inv
            n_out = source._read_rows(np.arctan2(nu_d, mu_d).ravel(), y)[1]
            y *= inv
            values[half:] = values[:cells - half][::-1, ::-1]
            out_frac = int(n_out.sum() + n_out[:cells - half].sum()) / values.size
            values = values.reshape(initial.values.shape)
        if initial_mass > 0.0:
            drift = abs(_mass(values) - initial_mass) / initial_mass
        meta = {"time": target, "potential": coeffs.potential.coefficients,
                "outflow": out_frac, "mass_drift": drift}
        out.append(MarginalField(initial.mu_grid, initial.nu_grid, initial.x_grid,
                                 values, initial.warnings + warnings_of(meta), meta))
    return out
