"""File format: header + CSV body, lossless for finite float64 fields."""

import json

import numpy as np
import pytest

from tomoflow import io
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
    header = json.loads(_lines(tmp_path / "d.csv")[0][len("#META "):])
    assert sorted(header["reconstruction"]) == ["mu_range", "mu_samples", "s"]


# A density matrix file as versions with a settable y grid wrote it: its
# reconstruction block also carries y_range and y_samples.
Y_GRID_ERA_DENSITY = """\
#META {"axes": ["q", "q_conj"], "complex": true, "field_kind": "density_matrix", \
"grids": {"q": [-1.0, 0.0, 1.0], "q_conj": [-1.0, 0.0, 1.0]}, "meta": {}, \
"reconstruction": {"mu_range": [-10.0, 10.0], "mu_samples": 501, "s": -2.0, \
"y_range": [-20.0, 20.0], "y_samples": 512}, "schema_version": 1, "warnings": []}
q,q_conj,re_value,im_value
-1.0,-1.0,1.0,0.0
-1.0,0.0,0.5,0.25
-1.0,1.0,0.0,0.0
0.0,-1.0,0.5,-0.25
0.0,0.0,2.0,0.0
0.0,1.0,0.0,0.0
1.0,-1.0,0.0,0.0
1.0,0.0,0.0,0.0
1.0,1.0,0.5,0.0
"""


def test_density_header_with_y_grid_keys_loads(tmp_path):
    path = tmp_path / "old.csv"
    path.write_text(Y_GRID_ERA_DENSITY)
    back = read_field(path)
    assert back.config == ReconstructionConfig(s=-2.0, mu_range=(-10.0, 10.0),
                                               mu_samples=501)
    assert back.values[0, 1] == 0.5 + 0.25j and back.values[1, 1] == 2.0


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


def _with_header(tmp_path, edit, make=small_wigner, name="w.csv"):
    """A small file (Wigner by default) whose #META header is replaced by
    edit(header)."""
    path = tmp_path / name
    write_field(make(), path)
    lines = _lines(path)
    header = json.loads(lines[0][len("#META "):])
    lines[0] = "#META " + json.dumps(edit(header))
    path.write_text("\n".join(lines) + "\n")
    return path


def test_header_not_an_object(tmp_path):
    path = _with_header(tmp_path, lambda h: [h])
    with pytest.raises(ValueError, match=r"w\.csv: line 1: #META header is "
                                         r"not a JSON object"):
        read_field(path)


def test_header_without_grids(tmp_path):
    path = _with_header(tmp_path, lambda h: {k: v for k, v in h.items()
                                             if k != "grids"})
    with pytest.raises(ValueError, match=r"w\.csv: header has no grids"):
        read_field(path)


@pytest.mark.parametrize("block", [
    {"mu_range": [8.0, -8.0]},
    {"mu_range": [-8.0, float("nan")]},
    {"mu_range": [-8.0, 8.0, 3.0]},
    {"mu_range": 8.0},
    {"s": 0.0},
    [],
])
def test_bad_reconstruction_header_names_file(tmp_path, block):
    def edit(h):
        if isinstance(block, dict):
            h["reconstruction"].update(block)
        else:
            h["reconstruction"] = block
        return h

    path = _with_header(tmp_path, edit, small_density, "d.csv")
    with pytest.raises(ValueError, match=r"d\.csv: bad reconstruction header"):
        read_field(path)


def test_axis_without_grid(tmp_path):
    def drop_p(h):
        del h["grids"]["p"]
        return h

    path = _with_header(tmp_path, drop_p)
    with pytest.raises(ValueError,
                       match=r"w\.csv: axes \['p'\] have no header grid"):
        read_field(path)


def test_shortest_repr_floats_survive(tmp_path):
    # values with no short decimal form must still come back bit-exact
    q = uniform_grid(-1.0, 1.0, 16)
    vals = np.pi * RNG.standard_normal((16, 16)) * 10.0 ** RNG.integers(
        -12, 12, size=(16, 16))
    field = WignerField(q, q, vals)
    write_field(field, tmp_path / "w.csv")
    assert np.array_equal(read_field(tmp_path / "w.csv").values, vals)


# -- the block writer against the row loop it replaced ---------------------

GRIDS = {
    WignerField: lambda f: [f.q_grid, f.p_grid],
    MarginalSlice: lambda f: [f.x_grid],
    MarginalField: lambda f: [f.mu_grid, f.nu_grid, f.x_grid],
    DensityMatrixGrid: lambda f: [f.q_grid, f.q_grid],
    CharacteristicGrid: lambda f: [f.a_grid, f.b_grid],
}


def row_loop_body(field) -> str:
    """The CSV body as a loop over meshgrid rows writes it."""
    mesh = np.meshgrid(*GRIDS[type(field)](field), indexing="ij")
    cols = [m.ravel() for m in mesh]
    values = np.asarray(field.values)
    if np.iscomplexobj(values):
        cols += [values.real.ravel(), values.imag.ravel()]
    else:
        cols += [values.ravel()]
    return "".join(",".join(repr(float(v)) for v in row) + "\n"
                   for row in zip(*cols))


def assert_body_matches_row_loop(field, path):
    write_field(field, path)
    header, _, body = path.read_text().split("\n", 2)
    assert header.startswith("#META ")
    assert body == row_loop_body(field)


def marginal_field_with_rows(n_x: int) -> MarginalField:
    mu = uniform_grid(-1.0, 1.0, 4)
    nu = uniform_grid(-1.5, 0.5, 8)
    x = uniform_grid(-4.0, 4.0, n_x)
    return MarginalField(mu, nu, x, RNG.standard_normal((4, 8, n_x)))


@pytest.mark.parametrize("kind", sorted(FIELDS))
def test_block_writer_matches_row_loop(kind, tmp_path):
    assert_body_matches_row_loop(FIELDS[kind](), tmp_path / f"{kind}.csv")


@pytest.mark.parametrize("extra", [0, 3])
def test_block_writer_spans_blocks(extra, tmp_path):
    # 32 rows per x point: exactly two blocks, then two and a part
    field = marginal_field_with_rows(io._BLOCK_ROWS // 16 + extra)
    assert (field.values.size % io._BLOCK_ROWS == 0) == (extra == 0)
    assert_body_matches_row_loop(field, tmp_path / "f.csv")


def test_block_writer_extreme_values(tmp_path):
    specials = np.array([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308,
                         2.2250738585072014e-308, 0.1, 1 / 3, 1e16, 123.0])
    q = uniform_grid(-1.0, 1.0, specials.size)
    values = np.add.outer(specials, np.zeros(3))
    values[:, 1] = specials[::-1]
    real = WignerField(q, uniform_grid(0.0, 2.0, 3), values)
    assert_body_matches_row_loop(real, tmp_path / "w.csv")
    assert "-0.0\n" in (tmp_path / "w.csv").read_text()
    assert np.array_equal(np.signbit(read_field(tmp_path / "w.csv").values),
                          np.signbit(values))
    chi = CharacteristicGrid(q, uniform_grid(0.0, 2.0, 3),
                             values + 1j * values[::-1])
    assert_body_matches_row_loop(chi, tmp_path / "c.csv")
    assert np.array_equal(read_field(tmp_path / "c.csv").values, chi.values)


def test_block_writer_long_slice(tmp_path):
    x = uniform_grid(-9.0, 9.0, 2 * io._BLOCK_ROWS + 5)
    field = MarginalSlice(TomographyParams(1.0, 0.0), x,
                          RNG.standard_normal(x.size))
    assert_body_matches_row_loop(field, tmp_path / "s.csv")


# -- the reader checks every row's coordinates ------------------------------

def rewrite_lines(path, edit):
    lines = _lines(path)
    edit(lines)
    path.write_text("\n".join(lines) + "\n")


def test_swapped_rows_name_line(tmp_path):
    path = tmp_path / "w.csv"
    write_field(small_wigner(), path)

    def swap(lines):
        lines[9], lines[10] = lines[10], lines[9]
    rewrite_lines(path, swap)
    with pytest.raises(ValueError, match=r"line 10: coordinates "):
        read_field(path)


def test_mismatch_line_counts_skipped_lines(tmp_path):
    path = tmp_path / "w.csv"
    write_field(small_wigner(), path)

    def swap_after_blank_and_comment(lines):
        lines[4:4] = ["", "# a note"]
        lines[12], lines[13] = lines[13], lines[12]
    rewrite_lines(path, swap_after_blank_and_comment)
    with pytest.raises(ValueError, match=r"line 13: coordinates "):
        read_field(path)


def test_coordinate_off_the_grid_names_line(tmp_path):
    path = tmp_path / "w.csv"
    write_field(small_wigner(), path)

    def move_q(lines):
        lines[19] = "9.0," + lines[19].split(",", 1)[1]
    rewrite_lines(path, move_q)
    with pytest.raises(ValueError,
                       match=r"line 20: coordinates 9\.0,\S+ are not"):
        read_field(path)


def test_reordered_block_names_line(tmp_path):
    path = tmp_path / "f.csv"
    write_field(small_marginal_field(), path)

    def move_block(lines):
        # lines 30-40 move behind line 60: every row keeps its values,
        # so only the coordinates can tell
        lines[29:60] = lines[40:60] + lines[29:40]
    rewrite_lines(path, move_block)
    with pytest.raises(ValueError, match=r"line 30: coordinates "):
        read_field(path)


def test_unmodified_coordinates_pass_bit_for_bit(tmp_path):
    # grids whose points have no short decimal form
    q = np.linspace(-np.pi, np.e, 23)
    p = np.linspace(-1 / 3, 2 / 7, 19)
    field = WignerField(q, p, RNG.standard_normal((23, 19)))
    write_field(field, tmp_path / "w.csv")
    back = read_field(tmp_path / "w.csv")
    assert np.array_equal(back.q_grid, q) and np.array_equal(back.p_grid, p)
