"""The one rule that turns a transform's measurements into warnings.

Every transform records its measurements in meta and returns its input's
warnings followed by `fields.warnings_of(meta)`.  Each case below drives a
`fields.LIMITS` key over its limit through the transform that measures it,
and spells out the warning text that transform has always written.  Every
marginal source kind carries its warnings into chi, W and rho by the same
rule, and a sampled WignerField carries its own through every Radon path.
"""

import dataclasses
import math

import numpy as np
import pytest

from tomoflow.evolution import SolverConfig, evolve_pde, reduce_equation
from tomoflow.fields import (
    LIMITS,
    CharacteristicGrid,
    PotentialSpec,
    ReconstructionConfig,
    TomographyParams,
    uniform_grid,
    warnings_of,
    within,
)
from tomoflow.states import (
    CATALOG,
    StateKind,
    StateSpec,
    marginal_evaluator,
    sample_marginal_field,
    sample_wigner_field,
)
from tomoflow.tomography import (
    FieldMarginalSource,
    RadonMarginalEvaluator,
    characteristic_from_marginal,
    density_matrix_from_marginal,
    marginal_field_from_wigner,
    radon_marginal,
    wigner_from_characteristic,
)

SHORT = uniform_grid(-2.0, 2.0, 9)
PHASE = uniform_grid(-2.0, 2.0, 16)
GROUND = marginal_evaluator(CATALOG["ground"])


def wide_wigner(q, p):
    """A Gaussian W too wide for the +-8 Radon line window."""
    return 2.0 * np.exp(-(q ** 2 + p ** 2) / 25.0)


def cut(where, measured):
    return f"{where} is {measured:.3g} of its maximum, above 1e-05"


def chi_edge():
    chi = characteristic_from_marginal(GROUND, SHORT, SHORT)
    return chi, (), [cut("chi truncated: |chi| on the window edges",
                         chi.meta["edge"])]


def rho_edges():
    config = ReconstructionConfig(mu_range=(-1.0, 1.0), mu_samples=21)
    rho = density_matrix_from_marginal(GROUND, uniform_grid(-1.0, 1.0, 9), config)
    return rho, (), [
        cut("chi truncated: the inner integral at the mu_range ends",
            rho.meta["mu_edge"]),
        cut("rho truncated: |rho(q, q)| at the q_grid ends", rho.meta["q_edge"])]


def radon_slice_edge():
    sl = radon_marginal(wide_wigner, TomographyParams(0.6, 0.8),
                        uniform_grid(-3.0, 3.0, 13))
    return sl, (), [cut("line window cuts W: |W| at the line ends",
                        sl.meta["line_edge"])]


def radon_box_edge():
    d = uniform_grid(-1.0, 1.0, 3)
    field = marginal_field_from_wigner(wide_wigner, d, d, uniform_grid(-3.0, 3.0, 13))
    return field, (), [cut("line window cuts W: |W| at the line ends",
                           field.meta["line_edge"])]


def wigner_imag():
    # A chi that is not hermitian leaves an imaginary part in W.
    values = (1.0 + 0.1j) * np.exp(-(SHORT[:, None] ** 2 + SHORT[None, :] ** 2) / 4)
    chi = CharacteristicGrid(SHORT, SHORT, values, ("input note",))
    w = wigner_from_characteristic(chi, PHASE, PHASE)
    return w, chi.warnings, [
        f"imaginary residue {w.meta['max_imag']:.3g} exceeds 1e-6"]


def evolve_outflow_and_drift():
    # The odd cat at (3.5, 0) on a +-5 X box: its slices leave the box.
    d = uniform_grid(-1.5, 1.5, 21)
    f0 = sample_marginal_field(StateSpec(StateKind.ODD_CAT, 3.5), d, d,
                               uniform_grid(-5.0, 5.0, 41))
    f0 = dataclasses.replace(f0, warnings=("input note",))
    snap, = evolve_pde(f0, reduce_equation(PotentialSpec.free()),
                       SolverConfig(), [1.0])
    return snap, f0.warnings, [
        f"boundary outflow: {snap.meta['outflow']:.2%} of lookups fall past "
        "an X end where the field has not decayed",
        f"mass drift {snap.meta['mass_drift']:.2%} since t=0 "
        "(boundary outflow or under-resolution)"]


def sampler_normalization():
    w = sample_wigner_field(CATALOG["ground"], uniform_grid(-1.0, 1.0, 16),
                            uniform_grid(-1.0, 1.0, 16))
    return w, (), [f"normalization {w.meta['normalization']:.6g} deviates "
                   "from 1 beyond 1e-3"]


# case -> (the LIMITS keys it drives over their limits, its builder)
CASES = {
    "chi": (("edge",), chi_edge),
    "rho": (("mu_edge", "q_edge"), rho_edges),
    "radon-slice": (("line_edge",), radon_slice_edge),
    "radon-box": (("line_edge",), radon_box_edge),
    "wigner": (("max_imag",), wigner_imag),
    "evolve": (("outflow", "mass_drift"), evolve_outflow_and_drift),
    "sampler": (("normalization",), sampler_normalization),
}


def test_the_cases_drive_every_limit():
    assert {key for keys, _ in CASES.values() for key in keys} == set(LIMITS)


@pytest.mark.parametrize("name", CASES)
def test_each_limit_warns_through_its_own_transform(name):
    keys, build = CASES[name]
    out, given, want = build()
    for key in keys:
        limit, target, _ = LIMITS[key]
        assert not within(out.meta[key], limit, target)
    assert warnings_of(out.meta) == tuple(want)
    assert out.warnings == given + warnings_of(out.meta)


def test_a_nan_measurement_warns():
    values = np.exp(-(SHORT[:, None] ** 2 + SHORT[None, :] ** 2) / 4).astype(complex)
    values[3, 4] = np.nan
    w = wigner_from_characteristic(CharacteristicGrid(SHORT, SHORT, values),
                                   PHASE, PHASE)
    assert math.isnan(w.meta["max_imag"])
    assert w.warnings == ("imaginary residue nan exceeds 1e-6",)


def test_within_is_two_sided_and_refuses_nan():
    assert within(1.0005, 1e-3, 1.0) and within(0.9995, 1e-3, 1.0)
    assert not within(1.002, 1e-3, 1.0) and not within(0.998, 1e-3, 1.0)
    assert within(0.0, 0.0)
    assert not within(math.nan, math.inf)


def field_source():
    field = evolve_outflow_and_drift()[0]
    source = FieldMarginalSource(field)
    assert source.warnings == field.warnings and len(field.warnings) == 3
    return source, source.warnings


def radon_source():
    source = RadonMarginalEvaluator(wide_wigner, n_phi=8,
                                    y_grid=uniform_grid(-3.0, 3.0, 13))
    assert source.meta["line_edge"] == np.max(source.line_edges)
    assert source.meta["line_step"] == np.max(source.line_steps)
    assert source.warnings == (cut("line window cuts W: |W| at the line ends",
                                   source.meta["line_edge"]),)
    return source, source.warnings


# source kind -> its builder: (source, the warnings it carries)
SOURCES = {
    "callable": lambda: (GROUND, ()),
    "field": field_source,
    "radon": radon_source,
}


@pytest.mark.parametrize("kind", SOURCES)
def test_every_source_carries_its_warnings_into_chi_w_and_rho(kind):
    source, given = SOURCES[kind]()
    chi = characteristic_from_marginal(source, SHORT, SHORT)
    assert chi.warnings == given + warnings_of(chi.meta)
    w = wigner_from_characteristic(chi, PHASE, PHASE)
    assert w.warnings == chi.warnings + warnings_of(w.meta)
    rho = density_matrix_from_marginal(
        source, uniform_grid(-1.0, 1.0, 9),
        ReconstructionConfig(mu_range=(-1.0, 1.0), mu_samples=21))
    assert rho.warnings == given + warnings_of(rho.meta)


def test_every_radon_path_carries_a_sampled_wigner_fields_warnings():
    w, _, (normalization,) = sampler_normalization()
    x, d = uniform_grid(-3.0, 3.0, 13), uniform_grid(-1.0, 1.0, 3)
    sl = radon_marginal(w, TomographyParams(0.6, 0.8), x)
    box = marginal_field_from_wigner(w, d, d, x)
    table = RadonMarginalEvaluator(w, n_phi=8, y_grid=x)
    for out in (sl, box, table):
        assert out.warnings == (normalization,) + warnings_of(out.meta)
    chi = characteristic_from_marginal(table, SHORT, SHORT)
    assert chi.warnings[0] == normalization
