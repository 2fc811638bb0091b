"""CSV field files with a one-line JSON header.

Layout: line 1 is ``#META {json}``, line 2 the CSV column names, then one
row per grid point with the first axis outermost.  Coordinates are written
next to the values so any plotting tool can consume the file directly,
but the header alone determines the geometry: the reader checks the row
count against it and every row's coordinates against its grid point.
Floats are written in repr's shortest round-trip form, so finite doubles
survive write/read bit-exactly; JSON arrays in the metadata come back as
tuples.
"""

from __future__ import annotations

import itertools
import json
import operator

import numpy as np

from .fields import (
    CharacteristicGrid,
    DensityMatrixGrid,
    MarginalField,
    MarginalSlice,
    ReconstructionConfig,
    TomographyParams,
    WignerField,
)

SCHEMA_VERSION = 1

FIELD_KINDS = {
    WignerField: "wigner",
    MarginalSlice: "marginal_slice",
    MarginalField: "marginal_field",
    DensityMatrixGrid: "density_matrix",
    CharacteristicGrid: "characteristic",
}

_META_PREFIX = "#META "

# Rows per write: the body is never held whole (about 60 bytes a row).
_BLOCK_ROWS = 4096


def _axes(field):
    """(column name, grid) pairs in row-major output order."""
    if isinstance(field, WignerField):
        return [("q", field.q_grid), ("p", field.p_grid)]
    if isinstance(field, MarginalSlice):
        return [("x", field.x_grid)]
    if isinstance(field, MarginalField):
        return [("mu", field.mu_grid), ("nu", field.nu_grid),
                ("x", field.x_grid)]
    if isinstance(field, DensityMatrixGrid):
        # square geometry; rows index q, columns its conjugate argument
        return [("q", field.q_grid), ("q_conj", field.q_grid)]
    if isinstance(field, CharacteristicGrid):
        return [("a", field.a_grid), ("b", field.b_grid)]
    raise TypeError(f"cannot serialize {type(field).__name__}")


def _tuplify(obj):
    if isinstance(obj, list):
        return tuple(_tuplify(v) for v in obj)
    if isinstance(obj, dict):
        return {k: _tuplify(v) for k, v in obj.items()}
    return obj


def _jsonable(obj):
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, np.generic):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj]
    return obj


def write_field(field, path, meta: dict | None = None) -> None:
    """Persist a field; ``meta`` is merged over the field's own metadata."""
    kind = FIELD_KINDS.get(type(field))
    if kind is None:
        raise TypeError(f"cannot serialize {type(field).__name__}")
    axes = _axes(field)
    values = np.asarray(field.values)
    if values.shape != tuple(g.size for _, g in axes):
        raise ValueError(f"values shape {values.shape} does not match grids")
    if not np.all(np.isfinite(values)):
        raise ValueError("field contains non-finite values")
    is_complex = bool(np.iscomplexobj(values))

    merged = dict(getattr(field, "meta", {}) or {})
    merged.update(meta or {})
    header = {
        "schema_version": SCHEMA_VERSION,
        "field_kind": kind,
        "axes": [name for name, _ in axes],
        "grids": {name: [float(v) for v in grid] for name, grid in axes},
        "complex": is_complex,
        "warnings": list(field.warnings),
        "meta": _jsonable(merged),
    }
    if isinstance(field, MarginalSlice):
        p = field.params
        header["params"] = {"mu": p.mu, "nu": p.nu, "delta": p.delta}
    if isinstance(field, DensityMatrixGrid):
        c = field.config
        header["reconstruction"] = {
            "s": c.s, "mu_range": list(c.mu_range), "mu_samples": c.mu_samples,
        }

    names = [n for n, _ in axes]
    names += ["re_value", "im_value"] if is_complex else ["value"]
    columns = ([values.real.ravel(), values.imag.ravel()] if is_complex
               else [values.ravel()])
    with open(path, "w") as fh:
        fh.write(_META_PREFIX + json.dumps(header, sort_keys=True) + "\n")
        fh.write(",".join(names) + "\n")
        for block in _body_blocks([g for _, g in axes], columns):
            fh.write(block)


def _body_blocks(grids, columns):
    """The CSV body, _BLOCK_ROWS rows at a time, as the row loop

        for row in zip(*meshgrid(*grids, indexing="ij"), *columns):
            ",".join(repr(float(v)) for v in row)

    would write it: every coordinate's repr is taken once per grid point,
    not once per row, and the values go through one tolist per block.
    """
    cells = [[repr(v) + "," for v in np.asarray(g, dtype=float).tolist()]
             for g in grids]
    outer = ["".join(t) for t in itertools.product(*cells[:-1])]
    prefixes = (o + c for o in outer for c in cells[-1])
    columns = [np.asarray(c, dtype=float) for c in columns]
    for start in range(0, columns[0].size, _BLOCK_ROWS):
        texts = [map(repr, c[start:start + _BLOCK_ROWS].tolist())
                 for c in columns]
        values = texts[0] if len(texts) == 1 else map("{},{}".format, *texts)
        rows = map(operator.add, itertools.islice(prefixes, _BLOCK_ROWS),
                   values)
        yield "\n".join(rows) + "\n"


def _scan_body(path, n_cols: int) -> None:
    """Raise at the first malformed or non-finite data row, naming its line."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno <= 2:
                continue
            parts = line.rstrip("\n").split(",")
            if len(parts) != n_cols:
                raise ValueError(
                    f"{path}: line {lineno}: expected {n_cols} "
                    f"comma-separated fields, found {len(parts)}")
            for part in parts:
                try:
                    bad = "" if np.isfinite(float(part)) else "non-finite"
                except ValueError:
                    bad = "non-numeric"
                if bad:
                    raise ValueError(f"{path}: line {lineno}: {bad} field {part!r}")


def _check_coordinates(path, data, grids) -> None:
    """Raise unless each row's coordinates are its own point of the header
    grids, bit for bit (shortest repr round-trips), naming the first line
    that is not."""
    shape = tuple(g.size for g in grids)
    wrong = np.zeros(shape, dtype=bool)
    for k, grid in enumerate(grids):
        along = [1] * len(grids)
        along[k] = grid.size
        wrong |= data[:, k].reshape(shape) != grid.reshape(along)
    if wrong.any():
        row = int(np.argmax(wrong.ravel()))
        point = np.unravel_index(row, shape)
        found = ",".join(repr(float(v)) for v in data[row, :len(grids)])
        want = ",".join(repr(float(g[i])) for g, i in zip(grids, point))
        raise ValueError(f"{path}: line {_body_line(path, row)}: coordinates "
                         f"{found} are not the header grids' point {want}")


def _body_line(path, row: int) -> int:
    """File line of data row `row`, counting the blank and comment lines
    np.loadtxt skips."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if lineno > 2 and line.split("#", 1)[0].strip():
                if row == 0:
                    return lineno
                row -= 1


def read_field(path):
    """Load a field written by write_field.

    Non-finite values are refused, and so are rows whose coordinates are
    not their point of the header grids (swapped, reordered or edited)."""
    with open(path) as fh:
        first = fh.readline()
        if not first.startswith(_META_PREFIX):
            raise ValueError(f"{path}: missing {_META_PREFIX.strip()} header")
        try:
            header = json.loads(first[len(_META_PREFIX):])
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: line 1: malformed {_META_PREFIX.strip()}"
                             f" header ({exc})") from None
        if not isinstance(header, dict):
            raise ValueError(f"{path}: line 1: {_META_PREFIX.strip()} header "
                             f"is not a JSON object")
        version = header.get("schema_version")
        if version != SCHEMA_VERSION:
            raise ValueError(f"{path}: unsupported schema_version {version!r}"
                             f" (this reader handles {SCHEMA_VERSION})")
        kind = header.get("field_kind")
        if kind not in FIELD_KINDS.values():
            raise ValueError(f"{path}: unknown field_kind {kind!r}")
        header_grids = header.get("grids")
        if not isinstance(header_grids, dict):
            raise ValueError(f"{path}: header has no grids")
        axis_names = header.get("axes", list(header_grids))
        missing = [name for name in axis_names if name not in header_grids]
        if missing:
            raise ValueError(f"{path}: axes {missing} have no header grid")
        grids = {name: np.asarray(header_grids[name], dtype=float)
                 for name in axis_names}
        is_complex = bool(header.get("complex"))
        names = fh.readline().rstrip("\n").split(",")
        expected = axis_names + (["re_value", "im_value"] if is_complex
                                 else ["value"])
        if names != expected:
            raise ValueError(f"{path}: column header {names} does not match "
                             f"geometry {expected}")
        try:
            data = np.loadtxt(fh, delimiter=",", ndmin=2)
            if not np.all(np.isfinite(data)):
                raise ValueError(f"{path}: non-finite values in the body")
        except ValueError:
            _scan_body(path, len(expected))
            raise

    shape = tuple(g.size for g in grids.values())
    n_rows = int(np.prod(shape))
    if data.shape[0] != n_rows:
        raise ValueError(f"{path}: {data.shape[0]} data rows, header "
                         f"geometry needs {n_rows}")
    if data.shape[1] != len(expected):
        raise ValueError(f"{path}: {data.shape[1]} columns, expected "
                         f"{len(expected)}")
    _check_coordinates(path, data, list(grids.values()))
    if is_complex:
        values = (data[:, -2] + 1j * data[:, -1]).reshape(shape)
    else:
        values = data[:, -1].reshape(shape)
    warnings = tuple(header.get("warnings", ()))
    meta = _tuplify(header.get("meta", {}))

    if kind == "wigner":
        return WignerField(grids["q"], grids["p"], values, warnings, meta)
    if kind == "marginal_slice":
        p = header.get("params", {})
        params = TomographyParams(float(p.get("mu", 1.0)),
                                  float(p.get("nu", 0.0)),
                                  float(p.get("delta", 0.0)))
        return MarginalSlice(params, grids["x"], values, warnings)
    if kind == "marginal_field":
        return MarginalField(grids["mu"], grids["nu"], grids["x"], values,
                             warnings, meta)
    if kind == "density_matrix":
        # Older files also carry y_range and y_samples, which no setting
        # reads any more; they are ignored.
        r = header.get("reconstruction", {})
        try:
            config = ReconstructionConfig(
                s=float(r.get("s", 1.0)),
                mu_range=tuple(r.get("mu_range", (-8.0, 8.0))),
                mu_samples=int(r.get("mu_samples", 801)))
        except (AttributeError, TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad reconstruction header: {exc}") from exc
        return DensityMatrixGrid(grids["q"], values, config, warnings)
    return CharacteristicGrid(grids["a"], grids["b"], values, warnings)
