"""Reference CSV parser for the tests: Python float() on each cell.

This is the per-cell parser `io.read_csv` used before it parsed data rows with
one `np.loadtxt` call; the differential test in test_io.py holds the two to
the same features, names, labels and error messages. It shares no code with
io.py.
"""

import csv
import math
from pathlib import Path

import numpy as np

from iforest_dpg.forest import Dataset

_OUTLIER_TOKENS = {"o", "outlier", "1"}
_INLIER_TOKENS = {"n", "inlier", "0"}


def _parse_label(token: str, row_number: int) -> str:
    low = token.strip().lower()
    if low in _OUTLIER_TOKENS:
        return "Outlier"
    if low in _INLIER_TOKENS:
        return "Inlier"
    raise ValueError(f"unknown label token {token!r} at row {row_number}")


def read_csv(
    path: str | Path,
    has_header: bool = True,
    label_column: str | int | None = None,
) -> Dataset:
    """Load a numeric CSV, optionally peeling off one label column.

    Label tokens map case-insensitively: o/outlier/1 to Outlier and
    n/inlier/0 to Inlier. Row numbers in error messages are 1-based file
    rows, counting the header.
    """
    path = Path(path)
    with open(path, newline="", encoding="utf-8-sig") as fh:
        rows = [(i + 1, row) for i, row in enumerate(csv.reader(fh)) if row]
    if not rows:
        raise ValueError(f"empty CSV file: {path}")

    header: list[str] | None = None
    if has_header:
        header = [cell.strip() for cell in rows[0][1]]
        rows = rows[1:]
        if not rows:
            raise ValueError(f"no data rows in CSV file: {path}")

    width = len(rows[0][1])
    for row_number, row in rows:
        if len(row) != width:
            raise ValueError(
                f"ragged CSV row at row {row_number}: "
                f"expected {width} fields, got {len(row)}"
            )
    if header is not None and len(header) != width:
        raise ValueError(
            f"header has {len(header)} fields but data rows have {width}"
        )

    label_idx: int | None = None
    if label_column is not None:
        if isinstance(label_column, str):
            if header is None:
                raise ValueError(
                    "label_column by name requires has_header=True"
                )
            if label_column not in header:
                raise ValueError(
                    f"label column {label_column!r} not found in header {header}"
                )
            label_idx = header.index(label_column)
        else:
            label_idx = int(label_column)
            if not 0 <= label_idx < width:
                raise ValueError(
                    f"label column index {label_idx} out of range for {width} columns"
                )
    if width - (0 if label_idx is None else 1) == 0:
        raise ValueError(f"no numeric columns in CSV file: {path}")

    feature_cols = [j for j in range(width) if j != label_idx]
    if header is not None:
        names = [header[j] for j in feature_cols]
    else:
        names = [f"F{k}" for k in range(len(feature_cols))]

    features = np.empty((len(rows), len(feature_cols)), dtype=np.float64)
    labels: list[str] | None = [] if label_idx is not None else None
    for r, (row_number, row) in enumerate(rows):
        for k, j in enumerate(feature_cols):
            token = row[j].strip()
            try:
                value = float(token)
            except ValueError:
                raise ValueError(
                    f"non-numeric value {row[j]!r} at row {row_number}, "
                    f"column {names[k]!r}"
                ) from None
            if not math.isfinite(value):
                raise ValueError(
                    f"non-finite value {row[j]!r} at row {row_number}, "
                    f"column {names[k]!r}"
                )
            features[r, k] = value
        if labels is not None:
            labels.append(_parse_label(row[label_idx], row_number))

    label_array = np.asarray(labels, dtype="<U7") if labels is not None else None
    return Dataset(features=features, feature_names=names, labels=label_array)
