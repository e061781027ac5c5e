#!/usr/bin/env python3
"""Compare two ``BENCH_e2e.json`` files: ``compare.py BASELINE CANDIDATE``.

One row per (workload, end-to-end metric).  Each metric's direction and
bound come from :mod:`e2e.metrics`:

* ``regression`` — the candidate's median is worse than the baseline's
  by more than the bound;
* ``unresolved`` — the repetitions' inter-quartile spread (either file)
  exceeds the bound, so a change of that size cannot be told from noise
  — unless every candidate repetition beats every baseline repetition;
* ``ok`` otherwise.

Exits 1 if any row is a regression.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from statistics import median, quantiles

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "benchmarks")]

from e2e import metrics  # noqa: E402
from schema import validate_record  # noqa: E402


def spread(values) -> float:
    """Inter-quartile distance as a share of the median."""
    if len(values) < 2 or min(values) == max(values):
        return 0.0
    q = quantiles(values, n=4)
    middle = median(values)
    return (q[2] - q[0]) / middle if middle else float("inf")


def judge(metric: metrics.Metric, base: dict, cand: dict, name: str):
    """``(worse_by, spread, verdict)`` for one metric of one workload."""
    a, b = base["end_to_end"][name], cand["end_to_end"][name]
    sign = 1 if metric.better == "lower" else -1
    worse_by = sign * (b - a) / a if a else float(b != a)
    reps_a = base["per_repetition"].get(name, [])
    reps_b = cand["per_repetition"].get(name, [])
    noise = max(spread(reps_a), spread(reps_b))
    if noise > metric.bound:
        clean_win = reps_a and reps_b and (
            max(reps_b) < min(reps_a) if sign > 0
            else min(reps_b) > max(reps_a)
        )
        verdict = "ok" if clean_win else "unresolved"
    else:
        verdict = "regression" if worse_by > metric.bound else "ok"
    return worse_by, noise, verdict


def compare(baseline: dict, candidate: dict) -> list[tuple]:
    rows = []
    for workload, base in baseline["workloads"].items():
        cand = candidate["workloads"].get(workload)
        if cand is None:
            continue
        for metric in metrics.END_TO_END + metrics.DETAIL:
            name = metric.name
            if name in base["end_to_end"] and name in cand["end_to_end"]:
                rows.append((
                    workload, name, base["end_to_end"][name],
                    cand["end_to_end"][name], metric.bound,
                    *judge(metric, base, cand, name),
                ))
    return rows


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__)
        return 2
    baseline, candidate = (
        validate_record(json.loads(Path(p).read_text())) for p in argv
    )
    rows = compare(baseline, candidate)
    print(f"{'workload':15s} {'metric':26s} {'baseline':>12s} "
          f"{'candidate':>12s} {'worse by':>9s} {'spread':>7s} "
          f"{'bound':>6s}  verdict")
    for workload, name, a, b, bound, worse_by, noise, verdict in rows:
        print(f"{workload:15s} {name:26s} {a:12.5g} {b:12.5g} "
              f"{worse_by:+9.2%} {noise:7.2%} {bound:6.0%}  {verdict}")
    verdicts = [row[-1] for row in rows]
    print(f"{len(rows)} rows: {verdicts.count('regression')} regression, "
          f"{verdicts.count('unresolved')} unresolved")
    return 1 if "regression" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main())
