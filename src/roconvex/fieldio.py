"""Serialization: the shared field CSV format and JSON-compatible reports.

A field file is one JSON header line (the grid spec, prefixed by '# ') followed
by a CSV table with one row per node: coordinate columns, value, mask. Floats
are written with repr so re-reading and re-writing is byte-stable.

The field writer works column by column. Node rows run in the grid's C order,
so the coordinate cells of the rows are the product of the grid axes: each axis
value is formatted once, and a row's coordinate prefix is a join over that
product. The value and mask columns are formatted as whole lists, so the cost
follows the number of distinct coordinates plus one `repr` per value.
"""

from __future__ import annotations

import hashlib
import itertools
import json
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import GridSpec, SampledField, make_grid


def write_field(field: SampledField, path: str | Path) -> Path:
    """Write `field` as a field file, column by column (see the module docstring)."""
    spec = field.grid
    grid_line = "# " + json.dumps(spec.to_dict(), sort_keys=True)
    header = ",".join(spec.shape.coord_names() + ("value", "mask"))
    axes = [list(map(repr, spec.axis_values(k).tolist())) for k in range(spec.shape.dim)]
    coords = map(",".join, itertools.product(*axes))
    # Values are NaN off the mask, so the value column already reads 'nan' there.
    values = map(repr, field.values.tolist())
    mask = np.where(field.mask, "1", "0").tolist()
    return _write_lines(path, [grid_line, header, *map(",".join, zip(coords, values, mask))])


def read_field(path: str | Path) -> SampledField:
    """Parse a file written by `write_field`; a malformed file raises ValueError naming its line."""
    lines = Path(path).read_text().splitlines()
    if not lines or not lines[0].startswith("# "):
        raise ValueError(f"{path}:1: missing grid header line")
    spec = GridSpec.from_dict(json.loads(lines[0][2:]))
    dim = spec.shape.dim
    header = spec.shape.coord_names() + ("value", "mask")
    if lines[1:2] != [",".join(header)]:
        raise ValueError(f"{path}:2: column header must be {','.join(header)}")
    rows = lines[2:]
    n = spec.points_per_axis**dim
    if len(rows) != n:
        raise ValueError(f"{path}: expected {n} node rows, found {len(rows)}")
    widths = np.array([row.count(",") + 1 for row in rows])
    _reject_rows(path, widths != dim + 2, f"a node row needs {dim + 2} cells")
    # All rows have dim + 2 cells, so column k is every (dim + 2)-th cell from k.
    cells = ",".join(rows).split(",")
    try:
        numbers = np.array([cells[k :: dim + 2] for k in range(dim + 1)], dtype=float)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    coords_differ = np.any(numbers[:dim].T != make_grid(spec).coords, axis=1)
    _reject_rows(path, coords_differ, "node coordinates differ from the grid's")
    mask = np.array(cells[dim + 1 :: dim + 2])
    _reject_rows(path, (mask != "0") & (mask != "1"), "a mask cell must be 0 or 1")
    return SampledField(spec, numbers[dim], mask == "1")


def _reject_rows(path: str | Path, bad: np.ndarray, what: str) -> None:
    """Raise ValueError at the file line of the first flagged node row (rows start at line 3)."""
    if np.any(bad):
        raise ValueError(f"{path}:{int(np.argmax(bad)) + 3}: {what}")


def _write_lines(path: str | Path, lines: list[str]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")
    return path


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence[object]]) -> Path:
    """Plain CSV with deterministic float formatting: floats by `repr`, anything else by `str`."""
    lines = [",".join(header)]
    for row in rows:
        cells = (repr(float(c)) if isinstance(c, (float, np.floating)) else str(c) for c in row)
        lines.append(",".join(cells))
    return _write_lines(path, lines)


def _jsonable(obj: object) -> object:
    if isinstance(obj, np.ndarray):
        return [_jsonable(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):  # before int: bool is an int subclass
        return bool(obj)
    if isinstance(obj, (np.floating, float)):
        v = float(obj)
        return v if np.isfinite(v) else repr(v)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, dict):
        return {str(k): _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def write_json(obj: dict, path: str | Path) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(_jsonable(obj), sort_keys=True, indent=2) + "\n")
    return path


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    digest.update(Path(path).read_bytes())
    return digest.hexdigest()
