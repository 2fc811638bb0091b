"""Independent reference implementations used only by the test suite.

Everything here is computed from position-space wavefunctions by direct
quadrature, with no reliance on the closed forms shipped in the package:

* ``wigner_oracle``   integrates psi(q + y/2) conj(psi(q - y/2)) e^{-ipy} dy,
* ``chi_oracle``      integrates psi(m + b/2) conj(psi(m - b/2)) e^{iam} dm,
* ``marginal_oracle`` builds the amplitude of the rotated-and-squeezed
  quadrature mu*q + nu*p + delta via its integral kernel and squares it,
* Fock-space helpers expand the catalog states over number states, which
  gives exact harmonic-oscillator time evolution and exact moments,
* ``psi_free_evolved_sampled`` applies the free propagator by FFT.

Agreement between these routes and the package is the evidence the tests
rely on; tolerances reflect quadrature error only.
"""

from __future__ import annotations

import math

import numpy as np

SQRT_PI = math.sqrt(math.pi)


# ---------------------------------------------------------------------------
# wavefunctions


def psi_ground():
    return lambda x: np.pi ** -0.25 * np.exp(-0.5 * np.asarray(x) ** 2) + 0j


def psi_excited1():
    return lambda x: (np.pi ** -0.25 * math.sqrt(2.0) * np.asarray(x)
                      * np.exp(-0.5 * np.asarray(x) ** 2) + 0j)


def psi_coherent(q0: float, p0: float):
    def psi(x):
        x = np.asarray(x, dtype=float)
        return np.pi ** -0.25 * np.exp(-0.5 * (x - q0) ** 2
                                       + 1j * p0 * x - 0.5j * q0 * p0)
    return psi


def psi_oddcat(q0: float, p0: float):
    plus = psi_coherent(q0, p0)
    minus = psi_coherent(-q0, -p0)
    norm = 1.0 / math.sqrt(2.0 * -math.expm1(-(q0 * q0 + p0 * p0)))
    return lambda x: norm * (plus(x) - minus(x))


# ---------------------------------------------------------------------------
# quadrature oracles


def wigner_oracle(psi, q, p, half_width: float = 25.0, n: int = 4001):
    """W(q, p).  Normalized so the phase-space integral is 2*pi."""
    q = np.atleast_1d(np.asarray(q, dtype=float))
    p = np.atleast_1d(np.asarray(p, dtype=float))
    y = np.linspace(-half_width, half_width, n)
    out = np.empty(q.shape, dtype=float)
    for idx in np.ndindex(q.shape):
        integrand = (psi(q[idx] + 0.5 * y) * np.conj(psi(q[idx] - 0.5 * y))
                     * np.exp(-1j * p[idx] * y))
        out[idx] = np.trapezoid(integrand, y).real
    return out if out.size > 1 else float(out.reshape(-1)[0])


def chi_oracle(psi, a, b, half_width: float = 25.0, n: int = 4001):
    """chi(a, b) = Int psi(m + b/2) conj(psi(m - b/2)) e^{i a m} dm."""
    a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                               np.asarray(b, dtype=float))
    m = np.linspace(-half_width, half_width, n)
    out = np.empty(a.shape, dtype=complex)
    for idx in np.ndindex(a.shape):
        integrand = (psi(m + 0.5 * b[idx]) * np.conj(psi(m - 0.5 * b[idx]))
                     * np.exp(1j * a[idx] * m))
        out[idx] = np.trapezoid(integrand, m)
    return out


def marginal_oracle(psi, x_values, mu: float, nu: float, delta: float = 0.0,
                    half_width: float = 30.0, n: int = 8001):
    """Density of mu*q + nu*p + delta evaluated at ``x_values``."""
    x_values = np.atleast_1d(np.asarray(x_values, dtype=float))
    y = x_values - delta
    if nu == 0.0:
        if mu == 0.0:
            raise ValueError("degenerate direction")
        amp = psi(y / mu)
        return np.abs(amp) ** 2 / abs(mu)
    s = np.linspace(-half_width, half_width, n)
    quad = np.exp(1j * 0.5 * mu * s * s / nu)
    kernel = np.exp(-1j * np.outer(y, s) / nu) * quad
    amp = np.trapezoid(kernel * psi(s), s, axis=1) / math.sqrt(2.0 * math.pi * abs(nu))
    return np.abs(amp) ** 2


def marginal_oracle_sampled(x_grid, psi_values, x_values, mu: float, nu: float,
                            delta: float = 0.0):
    """Same quadrature for a wavefunction known only on ``x_grid`` samples."""
    x_values = np.atleast_1d(np.asarray(x_values, dtype=float))
    y = x_values - delta
    s = np.asarray(x_grid, dtype=float)
    if nu == 0.0:
        raise ValueError("sampled oracle needs nu != 0")
    quad = np.exp(1j * 0.5 * mu * s * s / nu)
    kernel = np.exp(-1j * np.outer(y, s) / nu) * quad
    amp = (np.trapezoid(kernel * np.asarray(psi_values), s, axis=1)
           / math.sqrt(2.0 * math.pi * abs(nu)))
    return np.abs(amp) ** 2


# ---------------------------------------------------------------------------
# Fock-space route


def hermite_functions(n_max: int, x):
    """Orthonormal oscillator eigenfunctions phi_0 .. phi_{n_max} on x."""
    x = np.asarray(x, dtype=float)
    out = np.empty((n_max + 1, x.size))
    out[0] = np.pi ** -0.25 * np.exp(-0.5 * x * x)
    if n_max >= 1:
        out[1] = math.sqrt(2.0) * x * out[0]
    for n in range(2, n_max + 1):
        out[n] = (math.sqrt(2.0 / n) * x * out[n - 1]
                  - math.sqrt((n - 1) / n) * out[n - 2])
    return out


def fock_coefficients(kind: str, q0: float = 0.0, p0: float = 0.0,
                      n_max: int = 80):
    """Number-basis coefficients of a catalog state."""
    c = np.zeros(n_max + 1, dtype=complex)
    if kind == "ground":
        c[0] = 1.0
        return c
    if kind == "excited1":
        c[1] = 1.0
        return c
    alpha = (q0 + 1j * p0) / math.sqrt(2.0)
    log_fact = np.concatenate([[0.0], np.cumsum(np.log(np.arange(1, n_max + 1)))])
    n = np.arange(n_max + 1)
    base = np.exp(-0.5 * abs(alpha) ** 2) * alpha ** n * np.exp(-0.5 * log_fact)
    if kind == "coherent":
        return base
    if kind == "oddcat":
        norm = 1.0 / math.sqrt(2.0 * -math.expm1(-(q0 * q0 + p0 * p0)))
        c = norm * (base - base * (-1.0) ** n)
        return c
    raise ValueError(kind)


def psi_from_fock(coeffs):
    coeffs = np.asarray(coeffs, dtype=complex)

    def psi(x):
        x = np.atleast_1d(np.asarray(x, dtype=float))
        basis = hermite_functions(coeffs.size - 1, x)
        return coeffs @ basis

    return psi


def psi_harmonic_evolved(coeffs, t: float):
    """Evolve under H = (p^2 + q^2)/2; the global phase is dropped."""
    coeffs = np.asarray(coeffs, dtype=complex)
    phases = np.exp(-1j * np.arange(coeffs.size) * t)
    return psi_from_fock(coeffs * phases)


def fock_moments(coeffs):
    """Exact first and second moments of q and p from Fock coefficients."""
    c = np.asarray(coeffs, dtype=complex)
    n = np.arange(c.size)
    a1 = np.sum(np.conj(c[:-1]) * c[1:] * np.sqrt(n[1:]))
    a2 = np.sum(np.conj(c[:-2]) * c[2:] * np.sqrt(n[1:-1] * (n[1:-1] + 1.0)))
    nbar = float(np.sum(n * np.abs(c) ** 2))
    q_mean = math.sqrt(2.0) * a1.real
    p_mean = math.sqrt(2.0) * a1.imag
    q2 = a2.real + nbar + 0.5
    p2 = -a2.real + nbar + 0.5
    qp_sym = a2.imag
    return {"q": q_mean, "p": p_mean, "q2": q2, "p2": p2, "qp": qp_sym}


# ---------------------------------------------------------------------------
# free evolution by FFT


def psi_free_evolved_sampled(psi, t: float, lo: float = -40.0, hi: float = 40.0,
                             n: int = 4096):
    """Sample exp(-i p^2 t / 2) psi on a uniform grid."""
    x = lo + (hi - lo) * np.arange(n) / n
    k = 2.0 * math.pi * np.fft.fftfreq(n, d=(hi - lo) / n)
    values = np.fft.ifft(np.fft.fft(psi(x)) * np.exp(-0.5j * k * k * t))
    return x, values
