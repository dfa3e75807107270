"""Run records: JSON summaries plus CSV traces for each CLI invocation.

A record contains everything needed to reproduce the run (config echo,
seed, command line) and the results.  Determinism comparisons use
`reproducible_view`, which strips wall-clock fields.
"""

from __future__ import annotations

import csv
import itertools
import json
import os
import time
from dataclasses import dataclass, field, asdict

from . import __version__

TRACE_COLUMNS = ("iteration", "zeta", "gamma", "beta", "energy", "stderr")


@dataclass
class RunRecord:
    command: str
    config: dict
    seed: int
    results: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    status: str = "ok"          # "ok", or "partial" for an aborted search
    version: str = __version__
    timestamp: str = ""

    def finalize(self) -> "RunRecord":
        if not self.timestamp:
            self.timestamp = time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())
        return self

    def to_dict(self) -> dict:
        return asdict(self)

    def reproducible_view(self) -> dict:
        """Everything except wall-clock dependent fields."""
        data = self.to_dict()
        data.pop("timestamp", None)
        data.pop("timings", None)
        return data


def save_record(record: RunRecord, path: str):
    record.finalize()
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record.to_dict(), fh, indent=2, sort_keys=True)
        fh.write("\n")


def save_trace(rows, path: str):
    """Write optimizer.TraceEntry rows as CSV under the TRACE_COLUMNS header."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRACE_COLUMNS)
        for row in rows:
            writer.writerow([getattr(row, c) for c in TRACE_COLUMNS])


def run_directory(base: str | None, seed: int) -> str:
    """base when given, else a new runs/<stamp>-<seed>/, with -2, -3, ...
    appended when runs of the same seed start in the same second."""
    if base:
        os.makedirs(base, exist_ok=True)
        return base
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    path = os.path.join("runs", f"{stamp}-{seed}")
    os.makedirs("runs", exist_ok=True)
    for suffix in itertools.count(2):
        try:
            os.mkdir(path)
            return path
        except FileExistsError:
            path = os.path.join("runs", f"{stamp}-{seed}-{suffix}")
