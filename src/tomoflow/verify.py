"""Assertable numerical checks: normalization, positivity, comparisons,
and the suites that `tomoflow check` runs (`SUITES`).

Every check returns a CheckResult carrying the measured number next to
the threshold it was judged against, so reports stay auditable after the
fact.  Tolerances live in one record; the defaults here are the single
source of truth shared by the test suite and the command-line check
runner.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .evolution import (
    DEFAULT_VALID_RADIUS,
    SolverConfig,
    TransportTerm,
    evolve_characteristics,
    evolve_pde,
    reduce_equation,
)
from .fields import (
    MarginalSlice,
    PotentialSpec,
    ReconstructionConfig,
    TomographyParams,
    field_axes,
    uniform_grid,
    within,
)
from .states import (
    CATALOG,
    SQRT_PI,
    StateKind,
    StateSpec,
    cat_normalization,
    marginal_evaluator,
    sample_marginal_field,
    sample_wigner_field,
    wigner_evaluator,
)
from .tomography import (
    RadonMarginalEvaluator,
    characteristic_from_marginal,
    density_matrix_from_marginal,
    wigner_from_characteristic,
)


@dataclass(frozen=True)
class Tolerances:
    """Default thresholds used by checks and the bundled suites."""

    normalization: float = 1e-6
    positivity_floor: float = -1e-9
    roundtrip_max_abs: float = 1e-2
    hermiticity: float = 1e-6
    trace: float = 1e-3
    purity: float = 5e-3
    s_invariance: float = 1e-3
    characteristics: float = 1e-6
    pde: float = 1e-3


DEFAULT_TOLERANCES = Tolerances()


@dataclass(frozen=True)
class ComparisonReport:
    """Elementwise difference summary between two gridded fields."""

    max_abs: float
    argmax_location: tuple[float, ...]
    n_points: int


@dataclass(frozen=True)
class CheckResult:
    """One named pass/fail measurement."""

    name: str
    passed: bool
    measured: float
    threshold: float
    context: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": bool(self.passed),
                "measured": self.measured, "threshold": self.threshold,
                "context": dict(self.context)}


def _check(name: str, measured: float, tol: float, target: float = 0.0,
           **context) -> CheckResult:
    """measured judged by `fields.within`: |measured - target| <= tol."""
    return CheckResult(name, within(measured, tol, target), float(measured),
                       tol, context)


def check_normalization(slice_: MarginalSlice,
                        tol: float = DEFAULT_TOLERANCES.normalization
                        ) -> CheckResult:
    """|trapezoid integral - 1| <= tol for one marginal slice."""
    return _check("normalization", slice_.normalization(), tol, 1.0,
                  mu=slice_.params.mu, nu=slice_.params.nu,
                  delta=slice_.params.delta,
                  x_range=[float(slice_.x_grid[0]), float(slice_.x_grid[-1])],
                  n_points=int(slice_.x_grid.size))


def check_positivity(values, floor: float = DEFAULT_TOLERANCES.positivity_floor
                     ) -> CheckResult:
    """min(values) >= floor; an empty region passes vacuously."""
    arr = np.asarray(getattr(values, "values", values), dtype=float)
    if arr.size == 0:
        return CheckResult("positivity", True, math.inf, floor,
                           {"n_points": 0, "vacuous": True})
    measured = float(arr.min())
    return CheckResult("positivity", measured >= floor, measured, floor,
                       {"n_points": int(arr.size)})


def compare_fields(a, b) -> ComparisonReport:
    """Max-abs difference of two fields on identical grids, and where it is.

    Works for any pair of the gridded field types (Wigner, marginal,
    characteristic, density matrix); the argmax location is reported in
    grid coordinates, one per axis of values.
    """
    if type(a) is not type(b):
        raise ValueError(f"cannot compare {type(a).__name__} with {type(b).__name__}")
    axes = field_axes(a)
    for _, attr in a.AXES:
        if not np.array_equal(getattr(a, attr), getattr(b, attr)):
            raise ValueError(f"grid mismatch on {attr}")
    diff = np.abs(np.asarray(a.values) - np.asarray(b.values))
    idx = np.unravel_index(int(np.argmax(diff)), diff.shape)
    return ComparisonReport(
        max_abs=float(diff.max()),
        argmax_location=tuple(float(g[i]) for (_, g), i in zip(axes, idx)),
        n_points=int(diff.size),
    )


def roundtrip_report(state: StateSpec, *,
                     marginal_source=None) -> list[CheckResult]:
    """All reconstruction checks for one state, normalization first.

    Pipeline: the state's marginal family feeds the characteristic
    function, which is inverted back to a Wigner function and compared
    against the directly sampled one ("roundtrip"); its parity
    w(X; -mu, -nu) = w(-X; mu, nu), which chi and rho take for granted, is
    measured at four directions ("marginal-parity"); the same family feeds
    the density-matrix reconstruction, checked for hermiticity, trace,
    purity and invariance under the free scale parameter.

    ``marginal_source`` overrides the marginal family (any callable
    w(x, mu, nu, delta)); the default is the closed-form evaluator backed
    by a Radon table of the state's Wigner function, exercising the full
    projection+inversion path, whose meta (the table's largest "line_step"
    and "line_edge") goes into the wigner-roundtrip context.
    """
    tolerances, config, plan = DEFAULT_TOLERANCES, ReconstructionConfig(), {}
    if marginal_source is None:
        marginal_source = RadonMarginalEvaluator(wigner_evaluator(state))
        plan = marginal_source.meta

    results = []
    x_grid = uniform_grid(-10.0, 10.0, 1001)
    probe = TomographyParams(1.0, 0.0)
    sl = MarginalSlice(probe, x_grid,
                       np.asarray(marginal_source(x_grid, 1.0, 0.0, 0.0)))
    norm_check = check_normalization(sl, tolerances.normalization * 10)
    norm_check = dataclasses.replace(
        norm_check, name="marginal-normalization",
        context={**norm_check.context, "state": state.kind.value})
    results.append(norm_check)
    if not norm_check.passed:
        # A denormalized source poisons every transform downstream; stop
        # here so the report points at the root cause, not the fallout.
        return results

    inversion_grid = uniform_grid(-4.0, 4.0, 129)
    chi = characteristic_from_marginal(marginal_source)
    recovered = wigner_from_characteristic(chi, inversion_grid, inversion_grid)
    direct = sample_wigner_field(state, inversion_grid, inversion_grid)
    report = compare_fields(direct, recovered)
    label = state.kind.value
    results.append(_check(
        "wigner-roundtrip", report.max_abs, tolerances.roundtrip_max_abs,
        state=label, argmax_location=list(report.argmax_location), **plan))
    phis = np.linspace(0.0, math.pi, 4, endpoint=False)[:, None]
    mu, nu = np.cos(phis), np.sin(phis)
    mirrored = np.asarray(marginal_source(-x_grid, mu, nu, 0.0))
    parity = float(np.max(np.abs(marginal_source(x_grid, -mu, -nu, 0.0) - mirrored))
                   / np.max(np.abs(mirrored)))
    results.append(_check("marginal-parity", parity, tolerances.hermiticity,
                          state=label, directions=4))

    rho = density_matrix_from_marginal(marginal_source, config=config)
    results += [
        _check("density-hermiticity", rho.hermiticity_defect(),
               tolerances.hermiticity, state=label),
        _check("density-trace", rho.trace(), tolerances.trace, 1.0, state=label),
        _check("density-purity", rho.purity(), tolerances.purity, 1.0,
               state=label)]

    rho2 = density_matrix_from_marginal(
        marginal_source, config=dataclasses.replace(config, s=2.0 * config.s))
    s_diff = float(np.max(np.abs(rho.values - rho2.values)))
    results.append(_check("density-s-invariance", s_diff, tolerances.s_invariance,
                          state=label, s_values=[config.s, 2.0 * config.s]))
    return results


def roundtrip_suite(states) -> list[CheckResult]:
    """roundtrip_report of each (label, state) pair, in order."""
    return [res for _, state in states for res in roundtrip_report(state)]


def evolution_suite(states) -> list[CheckResult]:
    """The exact free and harmonic reductions, characteristics against the
    closed forms per state, and the grid solver on the ground state."""
    tol = DEFAULT_TOLERANCES
    free = reduce_equation(PotentialSpec.free())
    rot = reduce_equation(PotentialSpec.harmonic())
    kinetic = TransportTerm(1.0, mu_pow=1, dnu=1)
    results = [
        _check(f"reduction-{name}-exact", 0.0 if coeffs.terms == want else 1.0,
               0.0, terms=coeffs.describe())
        for name, coeffs, want in (
            ("free", free, (kinetic,)),
            ("harmonic", rot, (kinetic, TransportTerm(-1.0, nu_pow=1, dmu=1))))]

    x = np.linspace(-5.0, 5.0, 41)
    probes = [(1.0, 0.0, 0.0), (0.6, -0.8, 0.3), (-0.4, 1.1, -1.0)]
    t = 0.7
    for label, state in states:
        for name, coeffs in (("free", free), ("harmonic", rot)):
            potential = coeffs.potential
            w = evolve_characteristics(marginal_evaluator(state), potential, t)
            exact = marginal_evaluator(state, t, potential)
            worst = max(float(np.abs(
                w(x, mu, nu, delta) - exact(x, mu, nu, delta)).max())
                for mu, nu, delta in probes)
            results.append(_check(f"characteristics-{name}-{label}", worst,
                                  tol.characteristics, t=t))

    d = uniform_grid(-1.5, 1.5, 33)
    xg = uniform_grid(-8.0, 8.0, 129)
    state = CATALOG["ground"]
    f0 = sample_marginal_field(state, d, d, xg)
    t = 0.4
    snap, = evolve_pde(f0, free, SolverConfig(), [t])
    ref = sample_marginal_field(state, d, d, xg, t, free.potential)
    mask = (f0.radius() >= DEFAULT_VALID_RADIUS)[:, :, None]
    err = float(np.where(mask, np.abs(snap.values - ref.values), 0.0).max())
    results.append(_check("pde-free-ground", err, tol.pde, t=t,
                          grid="33x33x129"))
    return results


def paper_examples_suite(states=()) -> list[CheckResult]:
    """Worked values of the paper's fixed states; ``states`` is not read."""
    ground, excited, cat, coherent = (
        CATALOG[name] for name in ("ground", "excited1", "oddcat", "coherent"))
    origin = lambda st: float(wigner_evaluator(st)(0.0, 0.0))
    slice_of = lambda st, x, mu, nu: float(marginal_evaluator(st)(x, mu, nu))
    results = [
        _check("ground-wigner-origin", origin(ground) - 2.0, 1e-12),
        _check("excited1-wigner-origin", origin(excited) + 2.0, 1e-12),
        _check("oddcat-wigner-origin", origin(cat) + 2.0, 1e-9),
        _check("oddcat-tilted-wigner-origin",
               origin(StateSpec(StateKind.ODD_CAT, 1.1, 0.9)) + 2.0, 1e-9),
        _check("ground-slice-origin",
               slice_of(ground, 0.0, 1.0, 0.0) - 1.0 / SQRT_PI, 1e-12),
        _check("excited1-slice-origin",
               slice_of(excited, 0.0, 1.0, 0.0), 1e-15),
        _check("excited1-slice-peak",
               slice_of(excited, 1.0, 1.0, 0.0)
               - 2.0 / SQRT_PI * math.exp(-1.0), 1e-12),
        _check("oddcat-norm-constant",
               cat_normalization(math.sqrt(2.0), 0.0)
               - math.sqrt(math.e / (4.0 * math.sinh(1.0))), 1e-12),
    ]
    x = np.linspace(-4.0, 4.0, 81)
    t = 0.9
    c, s = math.cos(t), math.sin(t)
    mu, nu = 0.7, -0.4
    harmonic = PotentialSpec.harmonic()
    drift = float(np.abs(
        marginal_evaluator(coherent, t, harmonic)(x, mu, nu)
        - marginal_evaluator(coherent)(x, mu * c - nu * s, mu * s + nu * c)
    ).max())
    results.append(_check("coherent-harmonic-rotation", drift, 1e-12))
    still = float(np.abs(
        marginal_evaluator(excited, 1.1, harmonic)(x, mu, nu)
        - marginal_evaluator(excited)(x, mu, nu)).max())
    results.append(_check("excited1-harmonic-stationary", still, 1e-12))
    return results


# The suites of `tomoflow check`, by name; each takes (label, state) pairs.
SUITES = {"roundtrip": roundtrip_suite, "evolution": evolution_suite,
          "paper-examples": paper_examples_suite}
