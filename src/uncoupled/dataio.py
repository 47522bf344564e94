"""CSV ingestion for benchmark datasets.

Rows containing a missing cell (empty, "?", "NA", "NaN" after whitespace
stripping), an unparseable or non-finite numeric cell, or the wrong number
of fields are dropped; the drop count is reported next to the dataset.
Categorical columns expand to one-hot blocks in place, category order being
first appearance among the kept rows.

`load_csv` reads the rows in one pass and keeps each surviving row's
stripped cells and the floats of its numeric cells, the target's included.
The features are then built in file order from one numeric matrix and the
kept categorical cells.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .core import Dataset, EmptyDataError, ParameterError, SchemaError

MISSING_TOKENS = frozenset({"", "?", "NA", "NaN"})


@dataclass(frozen=True)
class CsvSchema:
    """Column layout of a benchmark CSV file.

    Columns are addressed by integer position (negative counts from the
    end) or, when the file has a header row, by name.
    """

    target_column: int | str
    categorical_columns: tuple[int | str, ...] = ()
    has_header: bool = True
    delimiter: str = ","

    def __post_init__(self):
        if not isinstance(self.target_column, (int, str)):
            raise ParameterError("target_column must be an index or a name")
        object.__setattr__(
            self, "categorical_columns", tuple(self.categorical_columns)
        )
        for c in self.categorical_columns:
            if not isinstance(c, (int, str)):
                raise ParameterError("categorical columns must be indices or names")
        if len(self.delimiter) != 1:
            raise ParameterError(f"delimiter must be a single character, got {self.delimiter!r}")


def _resolve_column(col: int | str, header: list[str] | None, ncols: int) -> int:
    if isinstance(col, str):
        if header is None:
            raise SchemaError(
                f"column {col!r} addressed by name but the file has no header"
            )
        try:
            return header.index(col)
        except ValueError:
            raise SchemaError(f"column {col!r} not found in header {header}") from None
    idx = col + ncols if col < 0 else col
    if not (0 <= idx < ncols):
        raise SchemaError(f"column index {col} out of range for {ncols} columns")
    return idx


def load_csv(path, schema: CsvSchema):
    """Read a CSV file into a Dataset with targets.

    A UTF-8 byte-order mark at the start of the file is skipped.
    Returns (dataset, dropped_row_count).  Raises OSError for unreadable
    files, SchemaError for unresolvable columns or a file with no column
    besides the target, EmptyDataError when no row survives filtering.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        raw = list(csv.reader(fh, delimiter=schema.delimiter))
    if not raw:
        raise EmptyDataError(f"{path}: file is empty")

    header = [c.strip() for c in raw[0]] if schema.has_header else None
    body = raw[1:] if schema.has_header else raw
    ncols = len(header) if header is not None else len(raw[0])
    if ncols == 0:
        raise SchemaError(f"{path}: no columns")

    target_idx = _resolve_column(schema.target_column, header, ncols)
    if ncols < 2:
        raise SchemaError(f"{path}: no feature column besides the target")
    cat_idxs = sorted(
        {_resolve_column(c, header, ncols) for c in schema.categorical_columns}
    )
    if target_idx in cat_idxs:
        raise SchemaError(
            f"target column {schema.target_column!r} is also listed as categorical"
        )
    # the target is parsed with the numeric columns, in file order
    numeric_idxs = [i for i in range(ncols) if i not in cat_idxs]

    kept_cells: list[list[str]] = []
    kept_numbers: list[list[float]] = []
    for row in body:
        cells = [c.strip() for c in row]
        if len(cells) != ncols or not MISSING_TOKENS.isdisjoint(cells):
            continue
        try:
            numbers = [float(cells[i]) for i in numeric_idxs]
        except ValueError:
            continue
        # "inf", "nan", "1e999", ... parse but are dropped
        if all(map(math.isfinite, numbers)):
            kept_cells.append(cells)
            kept_numbers.append(numbers)
    dropped = len(body) - len(kept_cells)
    if not kept_cells:
        raise EmptyDataError(f"{path}: no rows survive missing-value filtering")

    numeric_columns = iter(np.array(kept_numbers, dtype=float).T)
    columns: list[np.ndarray] = []
    names: list[str] = []
    for i in range(ncols):
        name = header[i] if header is not None else f"col{i}"
        if i in cat_idxs:
            values = [cells[i] for cells in kept_cells]
            # one-hot block, categories in first-appearance order
            for cat in dict.fromkeys(values):
                columns.append(np.array([v == cat for v in values], dtype=float))
                names.append(f"{name}={cat}")
        elif i == target_idx:
            targets = next(numeric_columns)
        else:
            columns.append(next(numeric_columns))
            names.append(name)
    return Dataset(np.column_stack(columns), targets, tuple(names)), dropped

