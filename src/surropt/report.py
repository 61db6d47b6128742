"""Report and dataset persistence: CSV emission, dataset reload, manifests.

Every writer is deterministic for identical inputs; wall-clock timestamps
appear only in the run manifest, never inside data or report files.
"""

from __future__ import annotations

import csv
import datetime
import json

import numpy as np

from . import __version__
from .errors import InputError
from .learners.data import Dataset
from .pipeline import ComparisonResult
from .simulate import decision_length, trajectory_columns
from .util import config_digest

ARTIFACT_NAME = "surropt"


def read_dataset_csv(path, hospitals: int = 4, max_age: int = 11) -> Dataset:
    """Load the inventory and decision columns of a trajectory CSV."""
    expected = trajectory_columns(hospitals, max_age)
    n_in = hospitals * max_age
    n_out = decision_length(hospitals, max_age)
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != expected:
            raise InputError(
                f"{path}: header does not match the {hospitals}x{max_age} trajectory schema"
            )
        days, xs, ys = [], [], []
        for row in reader:
            where = f"{path}: line {reader.line_num}"
            if len(row) != len(expected):
                raise InputError(f"{where} has {len(row)} fields, expected {len(expected)}")
            try:
                days.append(int(row[0]))
                xs.append([float(v) for v in row[1 : 1 + n_in]])
                ys.append([float(v) for v in row[1 + n_in : 1 + n_in + n_out]])
            except ValueError as exc:
                raise InputError(f"{where}: {exc}") from None
    if not days:
        raise InputError(f"{path}: no data rows")
    return Dataset(np.asarray(xs), np.asarray(ys), np.asarray(days))


def write_comparison_csv(path, comparison: ComparisonResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(comparison.COLUMNS)
        for row in comparison.rows():
            writer.writerow([repr(v) if isinstance(v, float) else v for v in row.values()])


def write_comparison_text(path, comparison: ComparisonResult) -> None:
    with open(path, "w") as fh:
        fh.write(comparison.table() + "\n")


def write_violations_csv(path, comparison: ComparisonResult) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["policy", "day", "hospital", "age", "requested", "available"])
        for report in comparison.reports:
            for v in report.violation_records:
                writer.writerow([report.label, v.day, v.hospital, v.age, v.requested, v.available])


def write_inventory_csv(path, comparison: ComparisonResult) -> None:
    """Box-plot style five-number summaries, one row per policy and slot."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["policy", "hospital", "age", "min", "q1", "median", "q3", "max"])
        for report in comparison.reports:
            summary = report.inventory_summary
            h, m, _ = summary.shape
            for i in range(h):
                for a in range(m):
                    writer.writerow(
                        [report.label, i + 1, a + 1]
                        + [repr(float(x)) for x in summary[i, a]]
                    )


def write_manifest(path, config_dict: dict, outputs, extra: dict = None) -> None:
    manifest = {
        "artifact": {"name": ARTIFACT_NAME, "version": __version__},
        "config_digest": config_digest(config_dict),
        "seed": config_dict.get("seed"),
        "outputs": [str(p) for p in outputs],
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    if extra:
        manifest.update(extra)
    with open(path, "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
