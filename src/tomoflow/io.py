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

import dataclasses
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
    field_axes,
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

# Kinds whose header carries one more block: (key, field attribute, type).
_HEADER_BLOCKS = {
    MarginalSlice: ("params", "params", TomographyParams),
    DensityMatrixGrid: ("reconstruction", "config", ReconstructionConfig),
}

# Rows per write: the body is never held whole (about 60 bytes a row).
_BLOCK_ROWS = 4096


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
    """Persist a field; ``meta`` is merged over the field's own metadata.
    A field whose header cannot be serialized leaves no file behind."""
    kind = FIELD_KINDS.get(type(field))
    if kind is None:
        raise TypeError(f"cannot serialize {type(field).__name__}")
    if not all(isinstance(w, str) for w in field.warnings):
        raise ValueError(f"field warnings must be strings, got {field.warnings!r}")
    axes = field_axes(field)
    names = [name for name, _ in axes]
    values = np.asarray(field.values)
    if not np.all(np.isfinite(values)):
        raise ValueError("field contains non-finite values")
    is_complex = bool(np.iscomplexobj(values))

    header = {
        "schema_version": SCHEMA_VERSION,
        "field_kind": kind,
        "axes": names,
        "grids": {name: [float(v) for v in grid] for name, grid in axes},
        "complex": is_complex,
        "warnings": list(field.warnings),
        "meta": _jsonable({**field.meta, **(meta or {})}),
    }
    if type(field) in _HEADER_BLOCKS:
        key, attr, _ = _HEADER_BLOCKS[type(field)]
        header[key] = dataclasses.asdict(getattr(field, attr))

    columns = ([values.real.ravel(), values.imag.ravel()] if is_complex
               else [values.ravel()])
    first_line = _META_PREFIX + json.dumps(header, sort_keys=True) + "\n"
    with open(path, "w") as fh:
        fh.write(first_line)
        fh.write(",".join(names + (["re_value", "im_value"] if is_complex
                                   else ["value"])) + "\n")
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


def _data_lines(path):
    """(file line number, text) of each data line as np.loadtxt reads the
    body: after line 2, the text before any #, when it is not blank."""
    with open(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.split("#", 1)[0].strip()
            if lineno > 2 and text:
                yield lineno, text


def _scan_body(path, n_cols: int) -> None:
    """Raise at the first malformed or non-finite data row, naming its line."""
    for lineno, text in _data_lines(path):
        parts = text.split(",")
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
        lineno, _ = next(itertools.islice(_data_lines(path), row, None))
        raise ValueError(f"{path}: line {lineno}: coordinates "
                         f"{found} are not the header grids' point {want}")


def read_field(path):
    """Load a field written by write_field.

    Non-finite values are refused, and so are rows whose coordinates are
    not their point of the header grids (swapped, reordered or edited) and
    headers whose axes are not the kind's own AXES, in its order."""
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
        cls = next(c for c, k in FIELD_KINDS.items() if k == kind)
        warnings = header.get("warnings", [])
        if not (isinstance(warnings, list) and all(isinstance(w, str) for w in warnings)):
            raise ValueError(f"{path}: header warnings are not a list of strings")
        meta = header.get("meta", {})
        if not isinstance(meta, dict):
            raise ValueError(f"{path}: header meta is not a JSON object")
        header_grids = header.get("grids")
        if not isinstance(header_grids, dict):
            raise ValueError(f"{path}: header has no grids")
        axis_names = [name for name, _ in cls.AXES]
        if header.get("axes") != axis_names:
            raise ValueError(f"{path}: header axes {header.get('axes')!r} are "
                             f"not {kind}'s {axis_names}")
        grids = {}
        for name, attr in cls.AXES:
            if name not in header_grids:
                raise ValueError(f"{path}: axes {[name]} have no header grid")
            try:
                grid = np.asarray(header_grids[name], dtype=float)
            except (TypeError, ValueError) as exc:
                raise ValueError(f"{path}: bad header grid {name!r}: {exc}") from None
            if not np.array_equal(grids.setdefault(attr, grid), grid):
                raise ValueError(f"{path}: header grid {name!r} differs from "
                                 f"the other axis on {attr}")
        axis_grids = [grids[attr] for _, attr in cls.AXES]
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

    shape = tuple(g.size for g in axis_grids)
    n_rows = int(np.prod(shape))
    if data.shape[0] != n_rows:
        raise ValueError(f"{path}: {data.shape[0]} data rows, header "
                         f"geometry needs {n_rows}")
    if data.shape[1] != len(expected):
        raise ValueError(f"{path}: {data.shape[1]} columns, expected "
                         f"{len(expected)}")
    _check_coordinates(path, data, axis_grids)
    # a view of the value columns: re + 1j * im would turn a -0.0 real part
    # into 0.0
    values = np.ascontiguousarray(data[:, len(shape):]).view(
        complex if is_complex else float).reshape(shape)

    extras = {}
    if cls in _HEADER_BLOCKS:
        key, attr, build = _HEADER_BLOCKS[cls]
        block = header.get(key)
        try:
            if not isinstance(block, dict):
                raise TypeError("not a JSON object")
            # Older density files also carry y_range and y_samples, which
            # no setting reads any more; they are ignored.
            extras[attr] = build(**{k: v for k, v in _tuplify(block).items()
                                    if k not in ("y_range", "y_samples")})
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{path}: bad {key} header: {exc}") from None
    try:
        return cls(values=values, warnings=tuple(warnings),
                   meta=_tuplify(meta), **grids, **extras)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
