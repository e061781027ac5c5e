#!/usr/bin/env python3
"""End-to-end load benchmark: four workloads through the full stack.

Driver contract (one workload, one JSON object on the last line)::

    python3 benchmarks/e2e/run.py --workload data_steady --seed 11 \\
        --seconds 25 --trace 0

Suite (all four workloads untraced and traced, every metric printed,
``results/BENCH_e2e.json`` and ``results/trace_<workload>.jsonl`` written)::

    python3 benchmarks/e2e/run.py --seed 11 [--quick]

A run repeats the workload's fixed-size repetition, each on a freshly
built stack seeded ``seed + repetition``, until ``--seconds`` are used,
and reports the **median over repetitions** of every metric.  Times are
speed-normalised (``speed.py``): an interleaved calibration kernel takes
the shared box's varying CPU speed out of them.  With ``--trace 1``
untraced and traced repetitions alternate; the traced ones give the
per-layer metrics and each adjacent pair the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
from concurrent.futures import ProcessPoolExecutor
from multiprocessing import get_context
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "benchmarks")]

try:
    from e2e import metrics, workloads  # noqa: E402  (needs the path above)
except ModuleNotFoundError as exc:
    sys.exit(f"run.py: the program under test is not in this checkout: {exc}")

QUICK_SCALE = 10
QUICK_SECONDS = 1


def environment() -> dict:
    from repro.crypto.provider import FastProvider

    return {
        "nproc": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "crypto.aes_backend": FastProvider().aes_backend,
        "transport.tcp": "host loopback (127.0.0.1)",
    }


def measure(workload, seed: int, seconds: float, traced: bool,
            scale: int = 1, trace_path=None) -> dict:
    """Repeat ``workload`` for ``seconds`` and summarise the repetitions.

    Repetitions are started while the budget has room for one more of
    average length, and at least once (twice with tracing: one untraced,
    one traced).
    """
    started = perf_counter()
    plain: list = []   # (values, samples) of untraced repetitions
    layered: list = []  # per-layer values of traced repetitions
    attempted = failed = 0
    problems: list[str] = []
    index = 0
    untraced = None
    while True:
        tracing = traced and index % 2 == 1
        rep = workloads.run(
            workload, seed + index, scale, tracing,
            trace_path if tracing and not layered else None,
        )
        index += 1
        attempted += len(rep.ops)
        failed += sum(not op.ok for op in rep.ops)
        problems += rep.problems
        if tracing:
            layered.append(metrics.per_layer(rep, untraced))
        else:
            untraced = rep
            plain.append(metrics.end_to_end(rep))
        elapsed = perf_counter() - started
        whole = tracing == traced  # a traced run ends on a traced repetition
        if whole and elapsed + elapsed / index > seconds:
            break
    per_rep = [values for values, _ in plain]
    values = metrics.medians(per_rep)
    values["failed_ops_ratio"] = failed / attempted
    values["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    )
    return {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "repetitions": len(plain),
        "values": values,
        "per_rep": {
            name: [rep[name] for rep in per_rep] for name in per_rep[0]
            if name in values
        },
        "samples": plain[0][1],
        "layers": metrics.medians(layered) if layered else {},
    }


def measure_isolated(*args) -> dict:
    """:func:`measure` in a fresh process, as the driver runs it: the
    suite's workloads then share no heap, and ``peak_rss_mb`` is each
    workload's own."""
    with ProcessPoolExecutor(1, mp_context=get_context("spawn")) as pool:
        return pool.submit(measure, *args).result()


def contract_metrics(result: dict, traced: bool) -> dict:
    source = result["layers"] if traced else result["values"]
    wanted = metrics.PER_LAYER if traced else metrics.END_TO_END
    return {
        m.name: {"value": source[m.name], "unit": m.unit} for m in wanted
    }


def report(name: str, result: dict) -> None:
    """Every metric by name with its unit (and sample counts)."""
    units = {m.name: m.unit for m in
             metrics.END_TO_END + metrics.DETAIL + metrics.PER_LAYER}
    print(f"== {name}: {result['repetitions']} untraced repetitions, "
          f"{result['attempted']} ops attempted, {result['failed']} failed")
    for group in ("values", "layers"):
        for metric, value in result[group].items():
            n = result["samples"].get(metric)
            note = f"  (n={n} per repetition)" if n else ""
            print(f"  {metric:34s} {value:14.6g} {units[metric]}{note}")
    for problem in result["problems"]:
        print(f"  GATE: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=metrics.RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="suite only: operation counts / 10, short runs")
    parser.add_argument("--out", type=Path, default=HERE / "results",
                        help="suite only: directory for BENCH_e2e.json")
    args = parser.parse_args(argv)
    env = environment()
    print("environment:", json.dumps(env))

    if args.workload:
        result = measure(workloads.WORKLOADS[args.workload], args.seed,
                         args.seconds, bool(args.trace))
        report(args.workload, result)
        print(json.dumps({
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": contract_metrics(result, bool(args.trace)),
        }))
        return 0 if result["correct"] else 1

    from schema import record  # benchmarks/schema.py, the shared envelope

    scale, seconds = (
        (QUICK_SCALE, QUICK_SECONDS) if args.quick else (1, args.seconds)
    )
    args.out.mkdir(parents=True, exist_ok=True)
    payload = {"environment": env, "seed": args.seed, "quick": args.quick,
               "seconds_per_run": seconds, "workloads": {}}
    correct = True
    for name, workload in workloads.WORKLOADS.items():
        result = measure_isolated(workload, args.seed, seconds, False, scale)
        traced = measure_isolated(workload, args.seed, seconds, True, scale,
                                  args.out / f"trace_{name}.jsonl")
        result["layers"] = traced["layers"]
        result["problems"] += traced["problems"]
        result["correct"] &= traced["correct"]
        report(name, result)
        correct &= result["correct"]
        payload["workloads"][name] = {
            "why": workload.why,
            "correct": result["correct"],
            "attempted": result["attempted"] + traced["attempted"],
            "failed": result["failed"] + traced["failed"],
            "repetitions": result["repetitions"],
            "end_to_end": result["values"],
            "per_repetition": result["per_rep"],
            "samples": result["samples"],
            "per_layer": result["layers"],
        }
    path = args.out / "BENCH_e2e.json"
    path.write_text(
        json.dumps(record("e2e", payload), indent=2, sort_keys=True) + "\n"
    )
    print(f"wrote {path}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
