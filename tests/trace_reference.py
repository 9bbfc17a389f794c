"""The csv.writer form of RunTrace.to_csv, for test_trace.py.

The library joins each CSV_CHUNK-row slice into one string, quoting
string cells the way csv's minimal quoting does, and writes it in one
call. This is the writer it replaced: the same formatting, handed row by
row to csv.writer. to_csv must write exactly its bytes.
"""

from __future__ import annotations

import csv
import json

from driftsched._version import __version__
from driftsched.trace import CSV_CHUNK, _format_column, _json_scalar


def reference_to_csv(self, path) -> None:
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
