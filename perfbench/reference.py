"""Independent references for the benchmark checks.

Nothing here imports tomoflow.  Every expected value is written out from
docs/math.md (hbar = 1, W normalized to integral 2 pi) or computed from
the position-space wavefunction:

* wavefunctions psi of the first excited state and of the odd
  superposition of coherent states at +-(q0, p0);
* psi_t under free motion by an FFT propagator on a wide periodic grid;
* Wigner functions, unit-direction marginals and characteristic
  functions in closed form (section 2 and eq. (3) of the notes);
* evolved marginals from the classical flow of W, exact for potentials of
  degree <= 2, and the cells whose backtraced direction radius stays
  resolvable.
"""

from __future__ import annotations

import math

import numpy as np

PI_QUARTER = math.pi ** -0.25


class Excited1:
    """First excited oscillator state."""

    name = "excited1"

    def psi(self, x):
        x = np.asarray(x, dtype=float)
        return PI_QUARTER * math.sqrt(2.0) * x * np.exp(-0.5 * x * x) + 0j

    def wigner(self, q, p):
        r2 = np.asarray(q) ** 2 + np.asarray(p) ** 2
        return 2.0 * (2.0 * r2 - 1.0) * np.exp(-r2)

    def marginal(self, x, mu, nu):
        """w(X; mu, nu, 0): the unit-radius density (2/sqrt(pi)) y^2 e^-y^2
        rescaled to radius r."""
        r2 = np.asarray(mu) ** 2 + np.asarray(nu) ** 2
        x = np.asarray(x, dtype=float)
        return 2.0 / math.sqrt(math.pi) * x * x * np.exp(-x * x / r2) / r2 ** 1.5

    def chi(self, a, b):
        r2 = np.asarray(a) ** 2 + np.asarray(b) ** 2
        return (1.0 - 0.5 * r2) * np.exp(-0.25 * r2) + 0j


class OddCat:
    """Normalized odd superposition of the coherent states at +-(q0, p0)."""

    name = "oddcat"

    def __init__(self, q0: float, p0: float):
        self.q0, self.p0 = float(q0), float(p0)
        self.n2 = 1.0 / (2.0 * -math.expm1(-(q0 * q0 + p0 * p0)))

    def _coherent(self, x, q0, p0):
        return PI_QUARTER * np.exp(-0.5 * (x - q0) ** 2 + 1j * p0 * x
                                   - 0.5j * q0 * p0)

    def psi(self, x):
        x = np.asarray(x, dtype=float)
        return math.sqrt(self.n2) * (self._coherent(x, self.q0, self.p0)
                                     - self._coherent(x, -self.q0, -self.p0))

    def wigner(self, q, p):
        q = np.asarray(q, dtype=float)
        p = np.asarray(p, dtype=float)
        q0, p0 = self.q0, self.p0
        blobs = (np.exp(-(q - q0) ** 2 - (p - p0) ** 2)
                 + np.exp(-(q + q0) ** 2 - (p + p0) ** 2))
        fringe = np.exp(-q * q - p * p) * np.cos(2.0 * (q * p0 - p * q0))
        return 2.0 * self.n2 * (blobs - 2.0 * fringe)

    def marginal(self, x, mu, nu):
        """Marginal of the three Gaussian terms of W; the fringe term is a
        Gaussian with imaginary centre i(p0, -q0)."""
        x = np.asarray(x, dtype=float)
        mu = np.asarray(mu, dtype=float)
        nu = np.asarray(nu, dtype=float)
        r2 = mu * mu + nu * nu
        m0 = mu * self.q0 + nu * self.p0
        k0 = mu * self.p0 - nu * self.q0
        blobs = np.exp(-(x - m0) ** 2 / r2) + np.exp(-(x + m0) ** 2 / r2)
        fringe = np.exp(-(x * x + m0 * m0) / r2) * np.cos(2.0 * x * k0 / r2)
        return self.n2 * (blobs - 2.0 * fringe) / np.sqrt(math.pi * r2)

    def chi(self, a, b):
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        q0, p0 = self.q0, self.p0
        blobs = 2.0 * np.cos(a * q0 + b * p0) * np.exp(-0.25 * (a * a + b * b))
        fringe = (np.exp(-0.25 * ((a + 2 * p0) ** 2 + (b - 2 * q0) ** 2))
                  + np.exp(-0.25 * ((a - 2 * p0) ** 2 + (b + 2 * q0) ** 2)))
        return self.n2 * (blobs - fringe) + 0j


def psi_free(state, t: float, x, half_width: float = 40.0,
             n: int = 4096):
    """psi_t(x) under H = p^2/2: exact phase on the FFT modes of psi_0,
    summed directly at the requested points (no interpolation)."""
    grid = -half_width + 2.0 * half_width / n * np.arange(n)
    k = 2.0 * np.pi * np.fft.fftfreq(n, d=2.0 * half_width / n)
    amp = np.fft.fft(state.psi(grid)) * np.exp(-0.5j * k * k * t) / n
    x = np.asarray(x, dtype=float)
    phase = np.exp(1j * np.outer(x - grid[0], k))
    return phase @ amp


def rho_from_psi(psi_values):
    """rho(q_i, q_j) = psi(q_i) conj(psi(q_j))."""
    return np.outer(psi_values, np.conj(psi_values))


def wigner_free(state, t: float, q, p):
    """W_t(q, p) = W_0(q - p t, p): the backward free flow."""
    return state.wigner(np.asarray(q) - np.asarray(p) * t, p)


def flowed_direction(dyn: str, mu, nu, t: float):
    """Direction (mu, nu) at t = 0 whose data reach (mu, nu) at time t,
    and the X shift picked up on the way: w_t(X; mu, nu) =
    w_0(X + shift; mu_0, nu_0)."""
    mu = np.asarray(mu, dtype=float)
    nu = np.asarray(nu, dtype=float)
    if dyn == "harmonic":
        c, s = math.cos(t), math.sin(t)
        return mu * c - nu * s, mu * s + nu * c, 0.0 * mu
    if dyn == "free":
        return mu, nu + mu * t, 0.0 * mu
    if dyn.startswith("linear:"):
        c1 = float(dyn.split(":", 1)[1])
        return mu, nu + mu * t, c1 * (0.5 * mu * t * t + nu * t)
    raise ValueError(f"unknown dynamics {dyn!r}")


def evolved_marginal_field(state, dyn: str, t: float, mu_grid, nu_grid,
                           x_grid):
    """Exact w_t on a (mu, nu, X) box; cells with mu = nu = 0 hold 0."""
    mu = np.asarray(mu_grid, dtype=float)[:, None, None]
    nu = np.asarray(nu_grid, dtype=float)[None, :, None]
    x = np.asarray(x_grid, dtype=float)[None, None, :]
    mu0, nu0, shift = flowed_direction(dyn, mu, nu, t)
    ok = (mu * mu + nu * nu) > 0.0
    mu0 = np.where(ok, mu0, 1.0)
    return np.where(ok, state.marginal(x + shift, mu0, nu0), 0.0)


def resolvable_cells(dyn: str, mu_grid, nu_grid, t: float,
                     r_min: float = 0.5, samples: int = 257):
    """Cells of radius >= r_min whose backtraced direction keeps radius
    >= r_min at every sampled instant of [0, t]."""
    mu = np.asarray(mu_grid, dtype=float)[:, None]
    nu = np.asarray(nu_grid, dtype=float)[None, :]
    ok = np.hypot(mu, nu) >= r_min
    for s in np.linspace(0.0, t, samples):
        mu_s, nu_s, _ = flowed_direction(dyn, mu, nu, s)
        ok &= np.hypot(mu_s, nu_s) >= r_min
    return ok
