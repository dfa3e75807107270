"""Run records: JSON summaries plus CSV traces for each CLI invocation.

A record contains everything needed to reproduce the run (config echo,
seed, prefactor mode, command line) and the results.  Determinism
comparisons use `reproducible_view`, which strips wall-clock fields.
"""

from __future__ import annotations

import csv
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
    prefactor: str
    results: dict = field(default_factory=dict)
    timings: dict = field(default_factory=dict)
    status: str = "ok"          # "ok" | "partial" | "failed"
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


def load_record(path: str) -> RunRecord:
    with open(path, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    return RunRecord(**data)


def save_trace(rows, path: str, columns=TRACE_COLUMNS):
    """Write trace entries (dataclasses or dicts) as CSV."""
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(columns)
        for row in rows:
            if hasattr(row, "__dataclass_fields__"):
                row = asdict(row)
            if isinstance(row, dict):
                writer.writerow([row[c] for c in columns])
            else:
                writer.writerow(list(row))


def load_trace(path: str) -> list[dict]:
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        return [dict(r) for r in reader]


def run_directory(base: str | None, seed: int) -> str:
    """Default output directory: runs/<timestamp>-<seed>/ unless overridden."""
    if base:
        os.makedirs(base, exist_ok=True)
        return base
    stamp = time.strftime("%Y%m%d-%H%M%S", time.gmtime())
    path = os.path.join("runs", f"{stamp}-{seed}")
    os.makedirs(path, exist_ok=True)
    return path
