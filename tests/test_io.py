"""File format: header + CSV body, lossless for finite float64 fields."""

import numpy as np
import pytest

from tomoflow.fields import (
    CharacteristicGrid,
    DensityMatrixGrid,
    MarginalField,
    MarginalSlice,
    ReconstructionConfig,
    TomographyParams,
    WignerField,
    uniform_grid,
)
from tomoflow.io import read_field, write_field

RNG = np.random.default_rng(20240817)


def small_wigner():
    q = uniform_grid(-2.0, 2.0, 17)
    p = uniform_grid(-1.5, 1.5, 13)
    values = RNG.standard_normal((17, 13))
    return WignerField(q, p, values, ("w1",), {"normalization": 0.997})


def small_slice():
    x = uniform_grid(-3.0, 3.0, 21)
    return MarginalSlice(TomographyParams(0.6, -0.8, 0.25), x,
                         RNG.standard_normal(21))


def small_marginal_field():
    mu = uniform_grid(-1.0, 1.0, 9)
    nu = uniform_grid(-1.0, 1.0, 7)
    x = uniform_grid(-4.0, 4.0, 11)
    return MarginalField(mu, nu, x, RNG.standard_normal((9, 7, 11)),
                         (), {"time": 0.5, "span": (1, 2)})


def small_density():
    q = uniform_grid(-2.0, 2.0, 9)
    a = RNG.standard_normal((9, 9)) + 1j * RNG.standard_normal((9, 9))
    h = 0.5 * (a + a.conj().T)
    return DensityMatrixGrid(q, h, ReconstructionConfig(s=-2.0))


def small_characteristic():
    a = uniform_grid(-1.0, 1.0, 9)
    b = uniform_grid(-1.0, 1.0, 9)
    vals = RNG.standard_normal((9, 9)) + 1j * RNG.standard_normal((9, 9))
    return CharacteristicGrid(a, b, vals, ("under-sampled tail",))


FIELDS = {
    "wigner": small_wigner,
    "slice": small_slice,
    "marginal_field": small_marginal_field,
    "density": small_density,
    "characteristic": small_characteristic,
}


@pytest.mark.parametrize("kind", sorted(FIELDS))
def test_roundtrip_bit_exact(kind, tmp_path):
    field = FIELDS[kind]()
    path = tmp_path / f"{kind}.csv"
    write_field(field, path)
    back = read_field(path)
    assert type(back) is type(field)
    assert np.array_equal(back.values, field.values)
    assert back.values.dtype == field.values.dtype
    assert back.warnings == tuple(field.warnings)


def test_roundtrip_slice_params(tmp_path):
    field = small_slice()
    write_field(field, tmp_path / "s.csv")
    back = read_field(tmp_path / "s.csv")
    assert back.params == TomographyParams(0.6, -0.8, 0.25)
    assert np.array_equal(back.x_grid, field.x_grid)


def test_roundtrip_density_config(tmp_path):
    field = small_density()
    write_field(field, tmp_path / "d.csv")
    back = read_field(tmp_path / "d.csv")
    assert back.config == field.config
    assert np.array_equal(back.q_grid, field.q_grid)


def test_meta_merge_and_tuplify(tmp_path):
    field = small_marginal_field()
    write_field(field, tmp_path / "f.csv", meta={"command": "evolve"})
    back = read_field(tmp_path / "f.csv")
    assert back.meta["command"] == "evolve"
    assert back.meta["time"] == 0.5
    # JSON has no tuples; lists come back as tuples so dataclass
    # comparisons against in-memory fields stay usable.
    assert back.meta["span"] == (1, 2)


def test_write_rejects_non_finite(tmp_path):
    field = small_wigner()
    bad = WignerField(field.q_grid, field.p_grid,
                      np.where(np.arange(17)[:, None] == 3, np.nan,
                               field.values))
    with pytest.raises(ValueError, match="non-finite"):
        write_field(bad, tmp_path / "bad.csv")


def test_write_rejects_unknown_type(tmp_path):
    with pytest.raises(TypeError, match="cannot serialize"):
        write_field(object(), tmp_path / "bad.csv")


def _lines(path):
    return path.read_text().splitlines()


def test_truncated_row_names_line(tmp_path):
    path = tmp_path / "w.csv"
    write_field(small_wigner(), path)
    lines = _lines(path)
    lines[30] = ",".join(lines[30].split(",")[:-1])
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"line 31: expected 3 "):
        read_field(path)


def test_non_numeric_field_names_line(tmp_path):
    path = tmp_path / "w.csv"
    write_field(small_wigner(), path)
    lines = _lines(path)
    parts = lines[10].split(",")
    parts[-1] = "oops"
    lines[10] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"line 11: non-numeric field 'oops'"):
        read_field(path)


@pytest.mark.parametrize("lineno,text", [(12, "nan"), (25, "-inf")])
def test_non_finite_field_names_line(tmp_path, lineno, text):
    path = tmp_path / "w.csv"
    write_field(small_wigner(), path)
    lines = _lines(path)
    parts = lines[lineno - 1].split(",")
    parts[-1] = text
    lines[lineno - 1] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError,
                       match=rf"line {lineno}: non-finite field '{text}'"):
        read_field(path)


def test_missing_row_count_mismatch(tmp_path):
    path = tmp_path / "w.csv"
    write_field(small_wigner(), path)
    lines = _lines(path)
    path.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(ValueError, match="data rows, header geometry needs"):
        read_field(path)


def test_missing_header(tmp_path):
    path = tmp_path / "plain.csv"
    path.write_text("a,b\n1,2\n")
    with pytest.raises(ValueError, match="missing #META header"):
        read_field(path)


def test_truncated_header_names_file(tmp_path):
    # a file cut off mid-header must not leak a bare JSONDecodeError
    path = tmp_path / "w.csv"
    write_field(small_wigner(), path)
    path.write_text(path.read_text()[:40])
    with pytest.raises(ValueError, match=r"line 1: malformed #META header"):
        read_field(path)


def test_schema_version_mismatch(tmp_path):
    path = tmp_path / "w.csv"
    write_field(small_wigner(), path)
    lines = _lines(path)
    lines[0] = lines[0].replace('"schema_version": 1', '"schema_version": 99')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="unsupported schema_version 99"):
        read_field(path)


def test_unknown_kind(tmp_path):
    path = tmp_path / "w.csv"
    write_field(small_wigner(), path)
    lines = _lines(path)
    lines[0] = lines[0].replace('"field_kind": "wigner"',
                                '"field_kind": "mystery"')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="unknown field_kind 'mystery'"):
        read_field(path)


def test_shortest_repr_floats_survive(tmp_path):
    # values with no short decimal form must still come back bit-exact
    q = uniform_grid(-1.0, 1.0, 16)
    vals = np.pi * RNG.standard_normal((16, 16)) * 10.0 ** RNG.integers(
        -12, 12, size=(16, 16))
    field = WignerField(q, q, vals)
    write_field(field, tmp_path / "w.csv")
    assert np.array_equal(read_field(tmp_path / "w.csv").values, vals)
