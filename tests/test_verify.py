"""Checks must both pass on healthy inputs and catch injected faults."""

import json
import math

import numpy as np
import pytest

from tomoflow.fields import (
    DensityMatrixGrid,
    MarginalSlice,
    TomographyParams,
    WignerField,
    uniform_grid,
)
from tomoflow.states import (
    StateKind,
    StateSpec,
    marginal_evaluator,
    marginal_slice,
    sample_wigner_field,
)
from tomoflow.verify import (
    DEFAULT_TOLERANCES,
    check_normalization,
    check_positivity,
    compare_fields,
    roundtrip_report,
)

GROUND = StateSpec(StateKind.GROUND)
EXCITED = StateSpec(StateKind.EXCITED_FIRST)


def test_normalization_passes_on_closed_form():
    res = check_normalization(marginal_slice(GROUND, TomographyParams(1.0, 0.0)))
    assert res.passed
    assert res.measured == pytest.approx(1.0, abs=1e-9)
    assert res.context["mu"] == 1.0


def test_normalization_catches_scaling_fault():
    sl = marginal_slice(GROUND, TomographyParams(0.6, -0.8))
    bad = MarginalSlice(sl.params, sl.x_grid, 1.02 * sl.values)
    res = check_normalization(bad)
    assert not res.passed
    assert res.measured == pytest.approx(1.02, abs=1e-6)


def test_positivity_pass_and_fail():
    sl = marginal_slice(EXCITED, TomographyParams(0.0, 1.0))
    assert check_positivity(sl.values).passed
    wig = sample_wigner_field(EXCITED)
    res = check_positivity(wig)
    assert not res.passed
    assert res.measured == pytest.approx(-2.0, abs=1e-12)


def test_positivity_vacuous_on_empty():
    res = check_positivity(np.array([]))
    assert res.passed
    assert res.context["vacuous"]


def test_compare_fields_rejects_type_mismatch():
    wig = sample_wigner_field(GROUND)
    sl = marginal_slice(GROUND, TomographyParams(1.0, 0.0))
    with pytest.raises(ValueError, match="cannot compare"):
        compare_fields(wig, sl)


def test_compare_fields_rejects_grid_mismatch():
    g1 = uniform_grid(-4.0, 4.0, 33)
    g2 = uniform_grid(-5.0, 5.0, 33)
    with pytest.raises(ValueError, match="grid mismatch on q_grid"):
        compare_fields(sample_wigner_field(GROUND, g1, g1),
                       sample_wigner_field(GROUND, g2, g2))


def test_compare_fields_ground_vs_excited():
    # the two Wigner functions differ most at the origin: +2 vs -2
    g = uniform_grid(-4.0, 4.0, 65)
    report = compare_fields(sample_wigner_field(GROUND, g, g),
                            sample_wigner_field(EXCITED, g, g))
    assert report.max_abs == pytest.approx(4.0, abs=1e-12)
    assert report.argmax_location == (0.0, 0.0)
    assert report.n_points == 65 * 65


def test_compare_fields_density_matrices():
    q = uniform_grid(-2.0, 2.0, 9)
    a = DensityMatrixGrid(q, np.eye(9, dtype=complex))
    b = DensityMatrixGrid(q, 0.5 * np.eye(9, dtype=complex))
    report = compare_fields(a, b)
    assert report.max_abs == pytest.approx(0.5)


def test_compare_fields_locates_an_off_diagonal_density_difference():
    q = uniform_grid(-2.0, 2.0, 9)
    values = np.eye(9, dtype=complex)
    other = values.copy()
    other[2, 7] += 0.25j
    report = compare_fields(DensityMatrixGrid(q, values),
                            DensityMatrixGrid(q, other))
    assert report.max_abs == pytest.approx(0.25)
    assert report.argmax_location == (q[2], q[7])


def test_check_result_serializes():
    res = check_normalization(marginal_slice(GROUND, TomographyParams(1.0, 0.0)))
    text = json.dumps(res.as_dict())
    assert "normalization" in text


def test_roundtrip_report_radon_path():
    # default source goes through the projection table, so this covers
    # Radon sampling -> characteristic -> Wigner/density reconstruction
    results = roundtrip_report(GROUND)
    names = [r.name for r in results]
    assert names[0] == "marginal-normalization"
    assert "wigner-roundtrip" in names and "density-purity" in names
    for res in results:
        assert res.passed, (res.name, res.measured, res.threshold)
    roundtrip = results[names.index("wigner-roundtrip")]
    assert roundtrip.context["line_step"] == 0.16
    assert roundtrip.context["line_edge"] <= np.finfo(float).eps


def test_roundtrip_report_analytic_source():
    results = roundtrip_report(
        EXCITED, marginal_source=marginal_evaluator(EXCITED))
    assert len(results) == 7
    for res in results:
        assert res.passed, (res.name, res.measured, res.threshold)
    assert results[1].name == "wigner-roundtrip"
    assert "line_step" not in results[1].context
    assert "line_edge" not in results[1].context


def test_roundtrip_report_flags_a_source_without_parity():
    base = marginal_evaluator(GROUND)

    def odd(x, mu, nu, delta=0.0):
        x = np.asarray(x, dtype=float)
        return base(x, mu, nu, delta) + 1e-4 * x * np.exp(-x * x)

    results = {r.name: r for r in roundtrip_report(GROUND, marginal_source=odd)}
    assert results["marginal-normalization"].passed
    parity = results["marginal-parity"]
    assert not parity.passed
    assert parity.threshold == DEFAULT_TOLERANCES.hermiticity
    # 2e-4 max(X e^{-X^2}) over max w = 1/sqrt(pi)
    assert parity.measured == pytest.approx(
        2e-4 / math.sqrt(2.0 * math.e) * math.sqrt(math.pi), rel=1e-3)


def test_roundtrip_report_stops_at_denormalized_source():
    base = marginal_evaluator(GROUND)

    def scaled(x, mu, nu, delta=0.0):
        return 1.05 * base(x, mu, nu, delta)

    results = roundtrip_report(GROUND, marginal_source=scaled)
    assert len(results) == 1
    assert results[0].name == "marginal-normalization"
    assert not results[0].passed
    assert results[0].measured == pytest.approx(1.05, abs=1e-6)


def test_tolerance_defaults_are_immutable():
    with pytest.raises(AttributeError):
        DEFAULT_TOLERANCES.pde = 1.0
