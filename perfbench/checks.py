"""Output checks: per-point digests, the recorded reference, and readers
for the files `qcldpc simulate` writes.

A point is summarised by the fields a PointResult carries that fix the
Monte Carlo outcome: trial and frame-error counts, bit errors, decoder
iterations, the residual-weight histogram and the trial indices of the
logged failures.  The same summary is built from a PointResult, from
`sweep.csv` + `failures.jsonl`, and from replayed TrialRecords, so any
two of them can be compared, and its SHA-256 is what `reference.json`
records.
"""

from __future__ import annotations

import csv
import hashlib
import json
from collections import Counter
from pathlib import Path

REFERENCE_PATH = Path(__file__).with_name("reference.json")


def point_fields(p_d, trials, frame_errors, total_bit_errors, total_iterations,
                 histogram, failure_trials) -> dict:
    return {
        "p_d": float(p_d),
        "trials": int(trials),
        "frame_errors": int(frame_errors),
        "total_bit_errors": int(total_bit_errors),
        "total_iterations": int(total_iterations),
        "weight_histogram": sorted([int(w), int(c)] for w, c in histogram.items()),
        "failure_trials": [int(t) for t in failure_trials],
    }


def fields_from_result(res) -> dict:
    return point_fields(res.p_d, res.trials, res.frame_errors, res.total_bit_errors,
                        res.total_iterations, res.weight_histogram,
                        [rec.trial_index for rec in res.failures])


def fields_from_records(p_d, records) -> dict:
    """Aggregate replayed TrialRecords the way a point fold would."""
    failed = [rec for rec in records if not rec.success]
    return point_fields(p_d, len(records), len(failed),
                        sum(rec.bit_errors for rec in failed),
                        sum(rec.iterations for rec in records),
                        Counter(rec.bit_errors for rec in failed),
                        [rec.trial_index for rec in failed])


def digest(fields: dict) -> str:
    blob = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


def invariant_errors(fields: dict) -> list[str]:
    """Relations every point summary satisfies, at any seed.

    Assumes every failure was logged, which holds while frame errors
    stay below the CLI's default of 1000 logged failures per point.
    """
    hist = dict(map(tuple, fields["weight_histogram"]))
    errs = []
    if not 0 <= fields["frame_errors"] <= fields["trials"]:
        errs.append("frame_errors outside [0, trials]")
    if sum(hist.values()) != fields["frame_errors"]:
        errs.append("histogram does not sum to frame_errors")
    if sum(w * c for w, c in hist.items()) != fields["total_bit_errors"]:
        errs.append("histogram does not sum to total_bit_errors")
    if len(fields["failure_trials"]) != fields["frame_errors"]:
        errs.append("logged failures differ from frame_errors")
    if fields["failure_trials"] != sorted(set(fields["failure_trials"])):
        errs.append("failure trial indices not strictly increasing")
    if any(not 0 <= t < fields["trials"] for t in fields["failure_trials"]):
        errs.append("failure trial index outside the folded trials")
    return errs


def read_sweep_dir(out_dir: Path) -> list[dict]:
    """Point summaries from a `simulate` output directory.

    `sweep.csv` is read by header name and `failures.jsonl` by key, so
    columns or keys appended later are ignored rather than mismatched.
    """
    with open(out_dir / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(line for line in fh if not line.startswith("#")))
    logged: dict[float, list[dict]] = {}
    with open(out_dir / "failures.jsonl", encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                rec = json.loads(line)
                logged.setdefault(float(rec["p_d"]), []).append(rec)
    points = []
    for row in rows:
        p_d, trials = float(row["p_d"]), int(row["trials"])
        recs = logged.get(p_d, [])
        points.append(point_fields(
            p_d, trials, int(row["frame_errors"]), int(row["total_bit_errors"]),
            round(float(row["mean_iterations"]) * trials),
            Counter(rec["bit_errors"] for rec in recs),
            [rec["trial"] for rec in recs]))
    return points


def load_reference(workload: str) -> dict:
    """{"seed": int, "units": [[sha256 per point] per unit]} recorded for a workload."""
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)[workload]


class Tally:
    """Counts checks attempted and failed; keeps one message per failure."""

    def __init__(self):
        self.attempted = 0
        self.errors: list[str] = []

    @property
    def failed(self) -> int:
        return len(self.errors)

    def check(self, label: str, errors: list[str]) -> None:
        self.attempted += 1
        if errors:
            self.errors.append(f"{label}: {'; '.join(errors)}")

    def point(self, label: str, fields: dict, same_as: dict | None = None,
              reference: str | None = None) -> None:
        """One point result: invariants, equality with another run of the
        same trials, and the recorded digest where one applies."""
        errors = invariant_errors(fields)
        if same_as is not None and fields != same_as:
            errors.append(f"differs from another run of the same trials: {fields} != {same_as}")
        if reference is not None and digest(fields) != reference:
            errors.append(f"digest differs from the reference: {fields}")
        self.check(label, errors)
