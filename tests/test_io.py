"""File format: header + CSV body, lossless for finite float64 fields."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from tomoflow import io
from tomoflow.fields import (
    CharacteristicGrid,
    DensityMatrixGrid,
    MarginalField,
    MarginalSlice,
    ReconstructionConfig,
    TomographyParams,
    WignerField,
    field_axes,
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


def test_density_header_with_integral_float_mu_samples_loads(tmp_path):
    path = tmp_path / "old.csv"
    path.write_text(Y_GRID_ERA_DENSITY.replace('"mu_samples": 501',
                                               '"mu_samples": 501.0'))
    back = read_field(path)
    assert back.config.mu_samples == 501
    assert type(back.config.mu_samples) is int


def test_density_config_with_numpy_integer_mu_samples_round_trips(tmp_path):
    # The config stores mu_samples as an int, so the header stays JSON.
    field = small_density()
    config = ReconstructionConfig(mu_samples=np.int64(501))
    write_field(DensityMatrixGrid(field.q_grid, field.values, config),
                tmp_path / "d.csv")
    assert read_field(tmp_path / "d.csv").config == config


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


@pytest.mark.parametrize("skipped,bad,match", [
    ("", "abc", r"line 8: expected 2 comma-separated fields, found 1"),
    ("# note", "0.5,inf", r"line 8: non-finite field 'inf'"),
], ids=["blank", "comment"])
def test_bad_row_after_a_skipped_line_names_its_own_line(tmp_path, skipped,
                                                         bad, match):
    # np.loadtxt skips blank and comment lines, and so does the line count.
    path = tmp_path / "m.csv"
    write_field(small_slice(), path)

    def skip_then_break(lines):
        lines.insert(3, skipped)
        lines[7] = bad
    rewrite_lines(path, skip_then_break)
    with pytest.raises(ValueError, match=match):
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
    {"mu_samples": 900.9},
    {"mu_samples": "801"},
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


def _drop(key):
    return lambda h: {k: v for k, v in h.items() if k != key}


def _set(key, value):
    return lambda h: {**h, key: value}


@pytest.mark.parametrize("edit, match", [
    (_set("params", []), "bad params header"),
    (_set("params", {"mu": "a", "nu": 0.0}), "bad params header"),
    (_set("params", {"mu": 1.0}), "bad params header"),
    (_set("params", {"mu": 1.0, "nu": 0.0, "phase": 2.0}), "bad params header"),
    (_set("params", {"mu": True, "nu": False}), "bad params header"),
    (_drop("params"), "bad params header"),
    (_set("grids", {"x": "abc"}), "bad header grid 'x'"),
    (_set("grids", {"x": [0.0, "a"]}), "bad header grid 'x'"),
], ids=["list", "string", "no-nu", "extra-key", "bool", "missing",
        "grid-string", "grid-entry"])
def test_bad_slice_header_names_file(tmp_path, edit, match):
    path = _with_header(tmp_path, edit, small_slice, "s.csv")
    with pytest.raises(ValueError, match=rf"s\.csv: {match}"):
        read_field(path)


def test_missing_reconstruction_header_names_file(tmp_path):
    path = _with_header(tmp_path, _drop("reconstruction"), small_density, "d.csv")
    with pytest.raises(ValueError, match=r"d\.csv: bad reconstruction header"):
        read_field(path)


def test_unserializable_meta_leaves_no_file(tmp_path):
    path = tmp_path / "m.csv"
    field = dataclasses.replace(small_slice(), meta={"a": {1, 2}})
    with pytest.raises(TypeError, match="set"):
        write_field(field, path)
    assert not path.exists()
    # nor does it truncate a file already there
    path.write_text("kept")
    with pytest.raises(TypeError):
        write_field(field, path)
    assert path.read_text() == "kept"


def test_write_refuses_non_string_warnings(tmp_path):
    path = tmp_path / "w.csv"
    with pytest.raises(ValueError, match="warnings must be strings"):
        write_field(dataclasses.replace(small_slice(), warnings=(1,)), path)
    assert not path.exists()


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


# -- each kind's axes are its own ------------------------------------------

def p_major_wigner_file(path, field):
    """field as a Wigner file laid out p-major: axes ["p", "q"] and
    p,q,value columns, every row's coordinates consistent."""
    write_field(WignerField(field.p_grid, field.q_grid, field.values.T), path)
    lines = _lines(path)
    header = json.loads(lines[0][len("#META "):])
    header["axes"] = ["p", "q"]
    header["grids"] = {"p": header["grids"]["q"], "q": header["grids"]["p"]}
    lines[0] = "#META " + json.dumps(header)
    lines[1] = "p,q,value"
    path.write_text("\n".join(lines) + "\n")


@pytest.mark.parametrize("n_p", [17, 13])
def test_wigner_file_with_foreign_axis_order_is_refused(tmp_path, n_p):
    # with equal grid sizes such a file used to load transposed
    q = uniform_grid(-2.0, 2.0, 17)
    p = uniform_grid(-1.5, 1.5, n_p)
    path = tmp_path / "w.csv"
    p_major_wigner_file(path, WignerField(q, p, RNG.standard_normal((17, n_p))))
    with pytest.raises(ValueError, match=r"w\.csv: header axes \['p', 'q'\] "
                                         r"are not wigner's \['q', 'p'\]"):
        read_field(path)


def test_density_file_whose_q_conj_differs_from_q_is_refused(tmp_path):
    path = tmp_path / "d.csv"
    write_field(small_density(), path)
    lines = _lines(path)
    header = json.loads(lines[0][len("#META "):])
    q_conj = [2.0 * v for v in header["grids"]["q_conj"]]
    header["grids"]["q_conj"] = q_conj
    lines[0] = "#META " + json.dumps(header)
    for row in range(len(q_conj) ** 2):
        parts = lines[2 + row].split(",")
        parts[1] = repr(q_conj[row % len(q_conj)])
        lines[2 + row] = ",".join(parts)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=r"d\.csv: header grid 'q_conj' "
                                         r"differs from the other axis on q_grid"):
        read_field(path)


@pytest.mark.parametrize("kind", sorted(FIELDS))
def test_meta_round_trips_for_every_kind(kind, tmp_path):
    field = FIELDS[kind]()
    write_field(field, tmp_path / "f.csv",
                meta={"command": "density-matrix", "s": -2.0})
    back = read_field(tmp_path / "f.csv")
    assert back.meta == {**field.meta, "command": "density-matrix", "s": -2.0}


@pytest.mark.parametrize("meta", [[1, 2], "abc", 3.0, None])
def test_header_meta_must_be_an_object(tmp_path, meta):
    path = _with_header(tmp_path, lambda h: {**h, "meta": meta})
    with pytest.raises(ValueError,
                       match=r"w\.csv: header meta is not a JSON object"):
        read_field(path)


@pytest.mark.parametrize("warnings", ["abc", ["ok", 3], {"a": "b"}, None])
def test_header_warnings_must_be_a_list_of_strings(tmp_path, warnings):
    path = _with_header(tmp_path, lambda h: {**h, "warnings": warnings})
    with pytest.raises(ValueError, match=r"w\.csv: header warnings are not "
                                         r"a list of strings"):
        read_field(path)


# -- properties over random fields and random edits -------------------------

SPECIAL_VALUES = [1e300, -1e300, 5e-324, -0.0]
VALUE = st.one_of(st.sampled_from(SPECIAL_VALUES),
                  st.floats(allow_nan=False, allow_infinity=False))
FINITE = st.floats(allow_nan=False, allow_infinity=False)
JSON_LEAF = st.one_of(st.none(), st.booleans(), st.integers(), FINITE,
                      st.text(max_size=6))
# JSON arrays come back as tuples, so the drawn meta holds tuples
JSON_VALUE = st.recursive(
    JSON_LEAF, lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6)


@st.composite
def random_fields(draw):
    """A field of any kind, 2-6 points per axis, random warnings and meta."""
    def grid():
        lo = draw(st.floats(-1e3, 1e3))
        width = draw(st.floats(1e-3, 1e3))
        return uniform_grid(lo, lo + width, draw(st.integers(2, 6)))

    def values(shape, complex_):
        real = draw(hnp.arrays(float, shape, elements=VALUE))
        if not complex_:
            return real
        return real + 1j * draw(hnp.arrays(float, shape, elements=VALUE))

    common = dict(warnings=tuple(draw(st.lists(st.text(max_size=8), max_size=3))),
                  meta=draw(st.dictionaries(st.text(max_size=6), JSON_VALUE,
                                            max_size=4)))
    kind = draw(st.sampled_from(sorted(io.FIELD_KINDS.values())))
    if kind == "wigner":
        q, p = grid(), grid()
        return WignerField(q, p, values((q.size, p.size), False), **common)
    if kind == "marginal_slice":
        x = grid()
        params = TomographyParams(draw(FINITE), draw(FINITE), draw(FINITE))
        return MarginalSlice(params, x, values(x.size, False), **common)
    if kind == "marginal_field":
        mu, nu, x = grid(), grid(), grid()
        return MarginalField(mu, nu, x, values((mu.size, nu.size, x.size), False),
                             **common)
    if kind == "characteristic":
        a, b = grid(), grid()
        return CharacteristicGrid(a, b, values((a.size, b.size), True), **common)
    q = grid()
    lo, hi = sorted(draw(st.lists(FINITE, min_size=2, max_size=2, unique=True)))
    config = ReconstructionConfig(
        s=draw(FINITE.filter(lambda v: v != 0.0)), mu_range=(lo, hi),
        mu_samples=draw(st.integers(9, 10 ** 6)))
    return DensityMatrixGrid(q, values((q.size, q.size), True), config, **common)


def bits(obj):
    """obj in a form whose == is bit-exact: floats by hex (so -0.0 is not
    0.0), containers by type, dict items sorted."""
    if isinstance(obj, float):
        return ("float", obj.hex())
    if isinstance(obj, dict):
        return ("dict", sorted((k, bits(v)) for k, v in obj.items()))
    if isinstance(obj, (list, tuple)):
        return (type(obj).__name__, [bits(v) for v in obj])
    return (type(obj).__name__, obj)


def array_bits(arr):
    arr = np.asarray(arr)
    return arr.dtype, arr.shape, arr.tobytes()


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=random_fields())
def test_write_read_round_trip_is_bit_exact(tmp_path, field):
    path = tmp_path / "f.csv"
    write_field(field, path)
    back = read_field(path)
    assert type(back) is type(field)
    assert array_bits(back.values) == array_bits(field.values)
    for (name, grid), (_, grid_back) in zip(field_axes(field), field_axes(back)):
        assert array_bits(grid_back) == array_bits(grid), name
    assert back.warnings == field.warnings
    assert bits(back.meta) == bits(field.meta)
    if isinstance(field, MarginalSlice):
        assert bits(dataclasses.astuple(back.params)) == \
            bits(dataclasses.astuple(field.params))
    if isinstance(field, DensityMatrixGrid):
        assert bits(dataclasses.astuple(back.config)) == \
            bits(dataclasses.astuple(field.config))


# One edit of a data row's fields; n_axes leading fields are coordinates.
def cut_field(parts, n_axes, data):
    k = data.draw(st.integers(0, len(parts) - 1))
    return parts[:k] + parts[k + 1:]


def bad_token(parts, n_axes, data):
    k = data.draw(st.integers(0, len(parts) - 1))
    return parts[:k] + [data.draw(st.sampled_from(["abc", "nan", "inf"]))] \
        + parts[k + 1:]


def nudge_coordinate(parts, n_axes, data):
    k = data.draw(st.integers(0, n_axes - 1))
    toward = data.draw(st.sampled_from([-np.inf, np.inf]))
    return parts[:k] + [repr(float(np.nextafter(float(parts[k]), toward)))] \
        + parts[k + 1:]


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(field=random_fields(),
       edit=st.sampled_from(["cut", "token", "swap", "ulp"]), data=st.data())
def test_every_single_row_edit_names_its_line(tmp_path, field, edit, data):
    path = tmp_path / "f.csv"
    write_field(field, path)
    lines = _lines(path)
    n_rows = len(lines) - 2
    row = data.draw(st.integers(0, n_rows - 1))
    line = row + 3
    if edit == "swap":
        other = data.draw(st.integers(0, n_rows - 1).filter(lambda r: r != row))
        lines[2 + row], lines[2 + other] = lines[2 + other], lines[2 + row]
        line = min(row, other) + 3
    else:
        edit_row = {"cut": cut_field, "token": bad_token,
                    "ulp": nudge_coordinate}[edit]
        lines[2 + row] = ",".join(edit_row(lines[2 + row].split(","),
                                           len(field.AXES), data))
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=rf"f\.csv: line {line}: "):
        read_field(path)
