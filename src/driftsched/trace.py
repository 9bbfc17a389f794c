"""Per-step run records and their CSV form.

A RunTrace is a bag of equal-length columns plus free-form metadata.
Optimization runs emit the core columns (t, lambda, eta, alpha, proxy,
regret_inc, regret_cum); learner runs add eval_return and regret_rl_inc,
and the CLI adds pattern and seed. CSV output is deterministic: the
first line stamps the library version, the second carries the metadata
as sorted JSON, the third is the header. Each CSV_CHUNK-row slice is
formatted column by column (_format_column), quoted as csv's minimal
quoting would quote it, and written as one string of \r\n-ended rows,
so csv.reader reads the file back.
"""

from __future__ import annotations

import csv
import json
import math
import re
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__

CORE_COLUMNS = ("t", "lambda", "eta", "alpha", "proxy", "regret_inc", "regret_cum")
CSV_CHUNK = 1024  # rows formatted and written per column slice; keeps peak memory flat
_NEEDS_QUOTES = re.compile(r'[,"\r\n]')


def _format_cell(v) -> str:
    """A string as is, NaN empty, an int below 10^15 in magnitude by str, any other number
    by repr of its float."""
    if isinstance(v, str):
        return v
    f = float(v)
    if math.isnan(f):
        return ""
    if math.isfinite(f) and f == int(f) and abs(f) < 1e15:
        return repr(int(f)) if isinstance(v, (int, np.integer)) else repr(f)
    return repr(f)


def _format_column(col: np.ndarray) -> list:
    """_format_cell of each entry of a column slice; a broadcast or run of float bits once."""
    if col.strides == (0,) and len(col) > 1:
        return _format_column(col[:1]) * len(col)
    if col.dtype.kind == "f":
        bits = col.astype(np.float64, copy=False).view(np.int64)
        starts = np.flatnonzero(np.concatenate(([True], bits[1:] != bits[:-1])))
        if len(starts) < len(col):  # runs of equal bits: format each run's value once
            cells = np.array(_format_column(col[starts]), dtype=object)
            return np.repeat(cells, np.diff(np.append(starts, len(col)))).tolist()
        return ["" if v != v else repr(v) for v in col.tolist()]
    if col.dtype.kind in "iu":
        return [str(v) if -10**15 < v < 10**15 else repr(float(v)) for v in col.tolist()]
    return [_format_cell(v) for v in col]  # bool and object columns


def _quote(cell: str) -> str:
    """csv's minimal quoting: a cell holding , " \\r or \\n in quotes, its quotes doubled."""
    return '"' + cell.replace('"', '""') + '"' if _NEEDS_QUOTES.search(cell) else cell


def _csv_cells(col: np.ndarray) -> list:
    """_format_column of a column slice, its string and object cells quoted; a broadcast once."""
    if col.dtype.kind in "biuf":  # number text holds nothing to quote
        return _format_column(col)
    if col.strides == (0,) and len(col) > 1:
        return _csv_cells(col[:1]) * len(col)
    return list(map(_quote, _format_column(col)))


def _csv_rows(cells: list) -> str:
    """The rows zip(*cells) as CSV text, each ended by \\r\\n; csv writes a lone empty cell '""'."""
    if len(cells) == 1:
        cells = [['""' if c == "" else c for c in cells[0]]]
    return "\r\n".join(map(",".join, zip(*cells))) + "\r\n"


def _json_scalar(v):
    """json.dumps fallback: a numpy scalar as its Python value."""
    if isinstance(v, np.generic):
        return v.item()
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


@dataclass
class RunTrace:
    """Columnar per-step record of one run."""

    columns: dict
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        lengths = {name: len(col) for name, col in self.columns.items()}
        if len(set(lengths.values())) > 1:
            raise ValueError(f"ragged columns: {lengths}")
        self.columns = {
            name: np.asarray(col) for name, col in self.columns.items()
        }

    def __len__(self) -> int:
        if not self.columns:
            return 0
        return len(next(iter(self.columns.values())))

    def has(self, name: str) -> bool:
        return name in self.columns

    def column(self, name: str) -> np.ndarray:
        return self.columns[name]

    def to_csv(self, path) -> None:
        # serialized first, so a meta JSON cannot encode leaves no partial file
        meta = json.dumps(self.meta, sort_keys=True, default=_json_scalar)
        names = list(self.columns)
        with open(path, "w", newline="") as fh:
            fh.write(f"# driftsched={__version__}\n")
            fh.write(f"# meta={meta}\n")
            fh.write(_csv_rows([[_quote(n)] for n in names]))
            for i in range(0, len(self), CSV_CHUNK):
                fh.write(_csv_rows([_csv_cells(self.columns[n][i:i + CSV_CHUNK])
                                    for n in names]))

    @staticmethod
    def from_csv(path) -> "RunTrace":
        with open(path, newline="") as fh:
            first = fh.readline()
            if not first.startswith("# driftsched="):
                raise ValueError(f"{path} lacks a version stamp")
            meta_line = fh.readline()
            meta = json.loads(meta_line.split("=", 1)[1]) if meta_line.startswith("# meta=") else {}
            reader = csv.reader(fh)
            names = next(reader)
            rows = list(reader)
        cols: dict = {}
        for j, name in enumerate(names):
            vals = [row[j] for row in rows]
            if name in ("pattern", "method"):
                cols[name] = np.asarray(vals, dtype=object)
            else:
                cols[name] = np.asarray(
                    [float(v) if v != "" else math.nan for v in vals]
                )
        return RunTrace(columns=cols, meta=meta)
