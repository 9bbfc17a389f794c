"""Per-step run records and their CSV form.

A RunTrace is a bag of equal-length columns plus free-form metadata.
Optimization runs emit the core columns (t, lambda, eta, alpha, proxy,
regret_inc, regret_cum); learner runs add eval_return, regret_rl_inc,
pattern and seed. CSV output is deterministic: the first line stamps
the library version, the second carries the metadata as sorted JSON.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, field

import numpy as np

from ._version import __version__

CORE_COLUMNS = ("t", "lambda", "eta", "alpha", "proxy", "regret_inc", "regret_cum")
CSV_CHUNK = 1024  # rows formatted per column slice; keeps peak memory flat


def _format_cell(v) -> str:
    if isinstance(v, str):
        return v
    f = float(v)
    if math.isnan(f):
        return ""
    if math.isfinite(f) and f == int(f) and abs(f) < 1e15:
        return repr(int(f)) if isinstance(v, (int, np.integer)) else repr(f)
    return repr(f)


def _format_column(col: np.ndarray) -> list:
    """_format_cell of every entry of a column slice, via .tolist()."""
    if col.dtype.kind == "f":
        return ["" if v != v else repr(v) for v in col.tolist()]
    if col.dtype.kind in "iu":
        return [str(v) if -10**15 < v < 10**15 else repr(float(v)) for v in col.tolist()]
    return [_format_cell(v) for v in col]  # bool and object columns


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
    # side arrays, never serialized: planner policy snapshots, run_dynamic's
    # (T, K) iterates, and the planner's (T, S) surrogate gaps and per-state
    # comparator drifts
    policies: list | None = None
    iterates: np.ndarray | None = None
    oco_gaps: np.ndarray | None = None
    state_alphas: np.ndarray | None = None

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
            writer = csv.writer(fh)
            writer.writerow(names)
            for i in range(0, len(self), CSV_CHUNK):
                writer.writerows(zip(*(
                    _format_column(self.columns[n][i:i + CSV_CHUNK]) for n in names)))

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
