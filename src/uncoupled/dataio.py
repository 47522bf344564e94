"""CSV ingestion for benchmark datasets.

Rows containing a missing cell (empty, "?", "NA", "NaN" after whitespace
stripping), an unparseable or non-finite numeric cell, or the wrong number
of fields are dropped; the drop count is reported next to the dataset.
Categorical columns expand to one-hot blocks in place, category order being
first appearance among the kept rows.
"""

from __future__ import annotations

import csv
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
            raise ParameterError("delimiter must be a single character")


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

    Returns (dataset, dropped_row_count).  Raises OSError for unreadable
    files, SchemaError for unresolvable columns or a file with no column
    besides the target, EmptyDataError when no row survives filtering.
    """
    with open(path, newline="", encoding="utf-8") as fh:
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
    numeric_idxs = [
        i for i in range(ncols) if i != target_idx and i not in cat_idxs
    ]

    parsed_numeric: list[list[float]] = []
    parsed_cats: list[list[str]] = []
    parsed_targets: list[float] = []
    dropped = 0
    for row in body:
        if len(row) != ncols:
            dropped += 1
            continue
        cells = [c.strip() for c in row]
        if any(c in MISSING_TOKENS for c in cells):
            dropped += 1
            continue
        try:
            target = float(cells[target_idx])
            numerics = [float(cells[i]) for i in numeric_idxs]
        except ValueError:
            dropped += 1
            continue
        parsed_numeric.append(numerics)
        parsed_cats.append([cells[i] for i in cat_idxs])
        parsed_targets.append(target)
    # one finite-row mask over the parsed cells: a row with an inf or nan
    # ("inf", "nan", "1e999", ...) is dropped
    targets = np.asarray(parsed_targets, dtype=float)
    numeric_matrix = np.asarray(parsed_numeric, dtype=float).reshape(
        targets.size, len(numeric_idxs)
    )
    finite = np.isfinite(targets) & np.isfinite(numeric_matrix).all(axis=1)
    dropped += targets.size - int(np.count_nonzero(finite))
    if not finite.any():
        raise EmptyDataError(f"{path}: no rows survive missing-value filtering")
    targets, numeric_matrix = targets[finite], numeric_matrix[finite]
    kept_cats = [cats for cats, keep in zip(parsed_cats, finite) if keep]

    categories: dict[int, list[str]] = {i: [] for i in cat_idxs}
    for row_cats in kept_cats:
        for pos, i in enumerate(cat_idxs):
            val = row_cats[pos]
            if val not in categories[i]:
                categories[i].append(val)

    def _name(i: int) -> str:
        return header[i] if header is not None else f"col{i}"

    n = targets.size
    columns: list[np.ndarray] = []
    names: list[str] = []
    numeric_pos = {i: p for p, i in enumerate(numeric_idxs)}
    cat_pos = {i: p for p, i in enumerate(cat_idxs)}
    for i in range(ncols):
        if i == target_idx:
            continue
        if i in cat_pos:
            cats = categories[i]
            col_values = [row[cat_pos[i]] for row in kept_cats]
            for cat in cats:
                onehot = np.fromiter(
                    (1.0 if v == cat else 0.0 for v in col_values), dtype=float, count=n
                )
                columns.append(onehot)
                names.append(f"{_name(i)}={cat}")
        else:
            columns.append(numeric_matrix[:, numeric_pos[i]])
            names.append(_name(i))
    features = np.column_stack(columns)
    dataset = Dataset(
        features=features,
        targets=targets,
        feature_names=tuple(names),
    )
    return dataset, dropped

