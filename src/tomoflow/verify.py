"""Assertable numerical checks: normalization, positivity, comparisons.

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

from .fields import (
    MarginalSlice,
    ReconstructionConfig,
    TomographyParams,
    field_axes,
    uniform_grid,
)
from .states import StateSpec, marginal_slice, sample_wigner_field, wigner_evaluator
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
    l2: float
    argmax_location: tuple[float, ...]
    n_points: int

    def as_dict(self) -> dict:
        return {"max_abs": self.max_abs, "l2": self.l2,
                "argmax_location": list(self.argmax_location),
                "n_points": self.n_points}


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


def check_normalization(slice_: MarginalSlice,
                        tol: float = DEFAULT_TOLERANCES.normalization
                        ) -> CheckResult:
    """|trapezoid integral - 1| <= tol for one marginal slice."""
    if slice_.x_grid.size == 0:
        raise ValueError("cannot check normalization of an empty slice")
    measured = slice_.normalization()
    return CheckResult(
        name="normalization",
        passed=abs(measured - 1.0) <= tol,
        measured=measured,
        threshold=tol,
        context={"mu": slice_.params.mu, "nu": slice_.params.nu,
                 "delta": slice_.params.delta,
                 "x_range": [float(slice_.x_grid[0]), float(slice_.x_grid[-1])],
                 "n_points": int(slice_.x_grid.size)},
    )


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
    """Max-abs and Euclidean difference of two fields on identical grids.

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
        l2=float(np.sqrt(np.sum(diff * diff))),
        argmax_location=tuple(float(g[i]) for (_, g), i in zip(axes, idx)),
        n_points=int(diff.size),
    )


def roundtrip_report(state: StateSpec, *,
                     tolerances: Tolerances = DEFAULT_TOLERANCES,
                     config: ReconstructionConfig | None = None,
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
    projection+inversion path; the largest line step and line-end value
    of that table are reported as "line_step" and "line_edge" in the
    wigner-roundtrip context.
    """
    if config is None:
        config = ReconstructionConfig()
    plan = {}
    if marginal_source is None:
        marginal_source = RadonMarginalEvaluator(wigner_evaluator(state))
        plan["line_step"] = float(np.max(marginal_source.line_steps))
        plan["line_edge"] = float(np.max(marginal_source.line_edges))

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
    results.append(CheckResult(
        "wigner-roundtrip", report.max_abs <= tolerances.roundtrip_max_abs,
        report.max_abs, tolerances.roundtrip_max_abs,
        {"state": state.kind.value, "argmax_location": list(report.argmax_location), **plan}))
    phis = np.linspace(0.0, math.pi, 4, endpoint=False)[:, None]
    mu, nu = np.cos(phis), np.sin(phis)
    mirrored = np.asarray(marginal_source(-x_grid, mu, nu, 0.0))
    parity = float(np.max(np.abs(marginal_source(x_grid, -mu, -nu, 0.0) - mirrored))
                   / np.max(np.abs(mirrored)))
    results.append(CheckResult(
        "marginal-parity", parity <= tolerances.hermiticity, parity,
        tolerances.hermiticity, {"state": state.kind.value, "directions": 4}))

    rho = density_matrix_from_marginal(marginal_source, config=config)
    results.append(CheckResult(
        "density-hermiticity", rho.hermiticity_defect() <= tolerances.hermiticity,
        rho.hermiticity_defect(), tolerances.hermiticity,
        {"state": state.kind.value}))
    trace = rho.trace()
    results.append(CheckResult(
        "density-trace", abs(trace - 1.0) <= tolerances.trace, trace,
        tolerances.trace, {"state": state.kind.value}))
    purity = rho.purity()
    results.append(CheckResult(
        "density-purity", abs(purity - 1.0) <= tolerances.purity, purity,
        tolerances.purity, {"state": state.kind.value}))

    rho2 = density_matrix_from_marginal(
        marginal_source, config=dataclasses.replace(config, s=2.0 * config.s))
    s_diff = float(np.max(np.abs(rho.values - rho2.values)))
    results.append(CheckResult(
        "density-s-invariance", s_diff <= tolerances.s_invariance, s_diff,
        tolerances.s_invariance,
        {"state": state.kind.value, "s_values": [config.s, 2.0 * config.s]}))
    return results


def slice_checks(state: StateSpec, params: TomographyParams,
                 tolerances: Tolerances = DEFAULT_TOLERANCES
                 ) -> list[CheckResult]:
    """Normalization and positivity of one closed-form marginal slice."""
    sl = marginal_slice(state, params)
    norm = check_normalization(sl, tolerances.normalization)
    pos = check_positivity(sl.values, tolerances.positivity_floor)
    extra = {"state": state.kind.value, "mu": params.mu, "nu": params.nu,
             "delta": params.delta}
    return [dataclasses.replace(c, context={**c.context, **extra})
            for c in (norm, pos)]
