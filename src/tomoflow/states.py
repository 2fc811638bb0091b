"""Closed-form reference states for the oscillator (hbar = 1, unit frequency).

Each state is evaluated through two exact evaluators, the module's entry
points, each built once at a fixed (t, potential) and broadcasting over
its arguments:

* `wigner_evaluator`: W(q, p), normalized to integral W dq dp = 2*pi, and
* `marginal_evaluator`: the marginal w(X, mu, nu, delta) of the
  observable mu*q + nu*p + delta.

With r^2 = mu^2 + nu^2 and y = X - delta the t = 0 marginals are

    Ground / Coherent(q0, p0):
        w = exp(-(y - m0)^2 / r^2) / sqrt(pi r^2),  m0 = mu*q0 + nu*p0
    ExcitedFirst:
        w = (2 / sqrt(pi)) * y^2 * exp(-y^2 / r^2) / r^3
    OddCat(q0, p0), the normalized odd superposition of +-(q0, p0):
        w = Nm2 * [ g(y - m0) + g(y + m0)
                    - 2 exp(-(y^2 + m0^2)/r^2) cos(2 y k0) / sqrt(pi r^2) ],
        g(u) = exp(-u^2 / r^2) / sqrt(pi r^2),  k0 = (nu*q0 - mu*p0) / r^2

The dynamics is the potential V in H = p^2/2 + V, a `fields.PotentialSpec`
whose default V = 0 is free motion.  The closed forms cover free and
harmonic (V = q^2/2) motion, up to a constant term, and refuse any other V
when an evaluator is built.  Time enters only through a linear flow of the
arguments, written out here independently of `evolution`, which it tests:
Wigner points follow the classical motion backwards, and (mu, nu) follow
the conjugate (Heisenberg) flow

    Free:      (mu, nu) -> (mu, nu + mu*t)
    Harmonic:  (mu, nu) -> (mu cos t - nu sin t, mu sin t + nu cos t)

which keeps every identity (normalization, shift, scaling) exact at all t.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .fields import (
    DEFAULT_PHASE_GRID,
    DEFAULT_X_GRID,
    MarginalField,
    MarginalSlice,
    PotentialSpec,
    TomographyParams,
    WignerField,
    check_time,
    check_uniform,
    warnings_of,
)

SQRT_PI = math.sqrt(math.pi)


class StateKind(str, enum.Enum):
    GROUND = "ground"
    EXCITED_FIRST = "excited1"
    COHERENT = "coherent"
    ODD_CAT = "oddcat"


@dataclass(frozen=True)
class StateSpec:
    """A catalog state; (q0, p0) is the displacement where applicable."""

    kind: StateKind
    q0: float = 0.0
    p0: float = 0.0

    def __post_init__(self):
        if not (np.isfinite(self.q0) and np.isfinite(self.p0)):
            raise ValueError("displacement must be finite")
        if self.kind == StateKind.ODD_CAT and self.q0 == 0.0 and self.p0 == 0.0:
            raise ValueError("odd superposition is undefined at zero displacement")
        if self.kind in (StateKind.GROUND, StateKind.EXCITED_FIRST):
            if self.q0 != 0.0 or self.p0 != 0.0:
                raise ValueError(f"{self.kind.value} takes no displacement")


GROUND = StateSpec(StateKind.GROUND)
EXCITED_FIRST = StateSpec(StateKind.EXCITED_FIRST)

# The named states of the command line and the demo scripts.
CATALOG = {
    "ground": GROUND,
    "excited1": EXCITED_FIRST,
    "coherent": StateSpec(StateKind.COHERENT, q0=1.2, p0=-0.7),
    "oddcat": StateSpec(StateKind.ODD_CAT, q0=math.sqrt(2.0), p0=0.0),
}


def cat_normalization(q0: float, p0: float) -> float:
    """Normalization constant of the odd superposition of +-(q0, p0).

    Equals (2 * (1 - exp(-(q0^2 + p0^2))))**-0.5, which tends to 1/sqrt(2)
    for large displacement and diverges as the components merge.
    """
    if q0 == 0.0 and p0 == 0.0:
        raise ValueError("odd superposition is undefined at zero displacement")
    s2 = q0 * q0 + p0 * p0
    return 1.0 / math.sqrt(2.0 * -math.expm1(-s2))


def _is_harmonic(potential: PotentialSpec) -> bool:
    """Classify V by its coefficients: False for V = c0 (free motion), True
    for V = c0 + q^2/2 (harmonic motion); refuses every other potential."""
    c = tuple(potential.coefficients[1:]) + (0.0, 0.0)
    if c[0] != 0.0 or c[1] not in (0.0, 0.5) or any(c[2:]):
        raise ValueError("the closed forms cover free and harmonic motion "
                         f"only, got V coefficients {potential.coefficients}")
    return c[1] == 0.5


def _flow_params(mu, nu, t: float, harmonic: bool):
    """Conjugate flow of the direction (mu, nu); X picks up no shift here."""
    if t == 0.0:
        return mu, nu
    if harmonic:
        c, s = math.cos(t), math.sin(t)
        return mu * c - nu * s, mu * s + nu * c
    return mu, nu + mu * t


def _flow_phase_point(q, p, t: float, harmonic: bool):
    """Backward classical flow of a phase-space point."""
    if t == 0.0:
        return q, p
    if harmonic:
        c, s = math.cos(t), math.sin(t)
        return q * c - p * s, p * c + q * s
    return q - p * t, p


def _wigner_zero_t(state: StateSpec, q, p):
    q = np.asarray(q, dtype=float)
    p = np.asarray(p, dtype=float)
    if state.kind in (StateKind.GROUND, StateKind.COHERENT):
        return 2.0 * np.exp(-((q - state.q0) ** 2) - (p - state.p0) ** 2)
    if state.kind == StateKind.EXCITED_FIRST:
        r2 = q * q + p * p
        return 2.0 * (2.0 * r2 - 1.0) * np.exp(-r2)
    if state.kind == StateKind.ODD_CAT:
        q0, p0 = state.q0, state.p0
        nm2 = cat_normalization(q0, p0) ** 2
        plus = np.exp(-((q - q0) ** 2) - (p - p0) ** 2)
        minus = np.exp(-((q + q0) ** 2) - (p + p0) ** 2)
        cross = np.exp(-q * q - p * p) * np.cos(2.0 * (q * p0 - p * q0))
        return 2.0 * nm2 * (plus + minus - 2.0 * cross)
    raise ValueError(f"unknown state kind {state.kind!r}")


def _marginal_zero_t(state: StateSpec, y, mu, nu):
    y = np.asarray(y, dtype=float)
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    r2 = mu * mu + nu * nu
    if np.any(r2 == 0.0):
        raise ValueError("degenerate direction: mu and nu both zero")
    norm = 1.0 / np.sqrt(np.pi * r2)
    if state.kind in (StateKind.GROUND, StateKind.COHERENT):
        m0 = mu * state.q0 + nu * state.p0
        return norm * np.exp(-((y - m0) ** 2) / r2)
    if state.kind == StateKind.EXCITED_FIRST:
        return (2.0 / SQRT_PI) * y * y * np.exp(-y * y / r2) * r2 ** -1.5
    if state.kind == StateKind.ODD_CAT:
        q0, p0 = state.q0, state.p0
        nm2 = cat_normalization(q0, p0) ** 2
        m0 = mu * q0 + nu * p0
        k0 = (nu * q0 - mu * p0) / r2
        # plus + minus - 2 cross with plus = e_+^2, minus = e_-^2 and
        # cross = e_+ e_- cos(2 y k0): a sum of non-negative terms, which
        # does not cancel to a negative number at the nodes.
        e_plus = np.exp(-((y - m0) ** 2) / (2.0 * r2))
        e_minus = np.exp(-((y + m0) ** 2) / (2.0 * r2))
        return nm2 * norm * ((e_plus - e_minus) ** 2
                             + 4.0 * e_plus * e_minus * np.sin(y * k0) ** 2)
    raise ValueError(f"unknown state kind {state.kind!r}")


def wigner_evaluator(state: StateSpec, t: float = 0.0,
                     potential: PotentialSpec = PotentialSpec()):
    """Return W(q, p) as a broadcasting callable at fixed (t, potential)."""
    t, harmonic = check_time(t), _is_harmonic(potential)

    def evaluate(q, p):
        q0, p0 = _flow_phase_point(np.asarray(q, dtype=float),
                                   np.asarray(p, dtype=float), t, harmonic)
        return _wigner_zero_t(state, q0, p0)

    return evaluate


def marginal_evaluator(state: StateSpec, t: float = 0.0,
                       potential: PotentialSpec = PotentialSpec()):
    """Return w(x, mu, nu, delta=0) as a broadcasting callable."""
    t, harmonic = check_time(t), _is_harmonic(potential)

    def evaluate(x, mu, nu, delta=0.0):
        mu_t, nu_t = _flow_params(np.asarray(mu, dtype=float),
                                  np.asarray(nu, dtype=float), t, harmonic)
        y = np.asarray(x, dtype=float) - np.asarray(delta, dtype=float)
        return _marginal_zero_t(state, y, mu_t, nu_t)

    return evaluate


def marginal_slice(state: StateSpec, params: TomographyParams,
                   x_grid: np.ndarray | None = None, t: float = 0.0,
                   potential: PotentialSpec = PotentialSpec()) -> MarginalSlice:
    x_grid = DEFAULT_X_GRID if x_grid is None else np.asarray(x_grid, dtype=float)
    values = marginal_evaluator(state, t, potential)(x_grid, params.mu,
                                                    params.nu, params.delta)
    return MarginalSlice(params, x_grid, values)


def sample_wigner_field(state: StateSpec, q_grid: np.ndarray | None = None,
                        p_grid: np.ndarray | None = None, t: float = 0.0,
                        potential: PotentialSpec = PotentialSpec()) -> WignerField:
    """Sample W on a rectangular grid and record its normalization.

    Grids must be uniform, ascending and have at least 16 points per axis.
    A field whose trapezoid normalization, meta["normalization"], strays
    from 1 past its `fields.LIMITS` entry carries a warning rather than
    being rejected.
    """
    q_grid = DEFAULT_PHASE_GRID if q_grid is None else np.asarray(q_grid, dtype=float)
    p_grid = DEFAULT_PHASE_GRID if p_grid is None else np.asarray(p_grid, dtype=float)
    for name, g in (("q_grid", q_grid), ("p_grid", p_grid)):
        check_uniform(g, name)
        if g.size < 16:
            raise ValueError(f"{name} needs at least 16 points")
    values = wigner_evaluator(state, t, potential)(q_grid[:, None], p_grid[None, :])
    meta = {"normalization": WignerField(q_grid, p_grid, values).normalization()}
    return WignerField(q_grid, p_grid, values, warnings_of(meta), meta)


def sample_marginal_field(state: StateSpec, mu_grid: np.ndarray,
                          nu_grid: np.ndarray, x_grid: np.ndarray,
                          t: float = 0.0,
                          potential: PotentialSpec = PotentialSpec()) -> MarginalField:
    """Sample the marginal at delta = 0 over a (mu, nu, X) box.

    The degenerate (0, 0) cell, if the grids contain it, is stored as zero.
    """
    mu_grid = np.asarray(mu_grid, dtype=float)
    nu_grid = np.asarray(nu_grid, dtype=float)
    x_grid = np.asarray(x_grid, dtype=float)
    evaluate = marginal_evaluator(state, t, potential)
    mu = mu_grid[:, None, None]
    nu = nu_grid[None, :, None]
    ok = (mu * mu + nu * nu) > 0.0
    safe_mu = np.where(ok, mu, 1.0)
    values = np.where(ok, evaluate(x_grid[None, None, :], safe_mu, nu), 0.0)
    return MarginalField(mu_grid, nu_grid, x_grid, values)
