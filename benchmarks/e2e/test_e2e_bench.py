"""Self-test of the end-to-end benchmark (not part of tier-1 ``testpaths``).

    PYTHONPATH=src python -m pytest benchmarks/e2e/test_e2e_bench.py -q
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

from e2e import compare, gate, metrics, run, workloads
from e2e.stack import Op, Pump, Stack, Topology, wire_size

ROOT = Path(__file__).resolve().parents[2]
RUN = [sys.executable, str(ROOT / "benchmarks/e2e/run.py")]
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
QUICK = run.QUICK_SCALE

#: Metrics that count frames and bytes: a pure function of the schedule's
#: shape, so identical for every seed.
EXACT = ("wire_frames_per_op", "wire_bytes_per_op", "wire_frames_per_msg",
         "rekey_frames_per_change", "rekey_bytes_per_change")


def test_names_and_benchmark_json():
    names = [m.name for m in
             metrics.END_TO_END + metrics.DETAIL + metrics.PER_LAYER]
    names += list(workloads.WORKLOADS)
    assert all(NAME.fullmatch(n) for n in names)
    assert len(set(names)) == len(names)
    assert len(metrics.PER_LAYER) <= 128
    assert all(0 <= m.bound <= 0.25 for m in metrics.END_TO_END)
    assert all(len(w.why) <= 200 for w in workloads.WORKLOADS.values())
    committed = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert committed == metrics.benchmark_json(workloads.WORKLOADS)


# -- the composition adapter: FabricMember ∘ DataMember ------------------------


def test_composition_adapter_on_a_2x3_fabric():
    stack = Stack(Topology(2, 3), seed=5)
    pump = Pump(stack)
    for uid in stack.members:
        pump.run(Op("join", uid))
    alice, bob = "g0.m0", "g0.m1"

    first = Op("data", alice, b"before the leave")
    pump.run(first)
    assert first.ok  # exactly once, payload-exact, to both peers
    assert stack.data_member(bob).inbox == [(alice, 0, b"before the leave")]
    assert stack.data_member("g1.m0").inbox == []  # other group untouched

    epoch = stack.leaders["g0"].group_epoch
    chain = stack.data_member(alice).channel.epoch
    frames_before = sum(pump.frames)
    leave, rejoin = Op("leave", bob), Op("join", bob)
    pump.run(leave)
    pump.run(rejoin)
    assert leave.ok and rejoin.ok
    assert stack.leaders["g0"].group_epoch == epoch + 2  # one rekey each
    assert stack.data_member(alice).channel.epoch == epoch + 2 != chain

    second = Op("data", alice, b"after the rejoin")
    pump.run(second)
    assert second.ok
    assert stack.data_member(bob).inbox[-1] == (alice, 0, b"after the rejoin")

    # The cached ReqClose resent ahead of the rejoin is rejected by the
    # leader: a wire frame, not a failed operation.
    assert stack.leaders["g0"].stats.rejected == stack.rejoins == 1
    assert sum(pump.frames) > frames_before
    assert gate.check(stack) == []


def test_wire_size_is_the_encoded_length():
    stack = Stack(Topology(2, 3), seed=6)
    for frame in stack.start(Op("join", "g1.m2")):
        assert wire_size(frame) == len(frame.to_bytes())


# -- every workload, one quick repetition per seed ---------------------------------


@pytest.fixture(scope="module")
def quick():
    """``{(workload, seed, run): (end-to-end values, repetition)}``."""
    return {
        (name, seed, again): (metrics.end_to_end(rep)[0], rep)
        for name, workload in workloads.WORKLOADS.items()
        for seed, again in ((11, 0), (11, 1), (12, 0))
        for rep in [workloads.run(workload, seed, QUICK)]
    }


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_gate_passes_and_counts_repeat(quick, name):
    values, rep = quick[name, 11, 0]
    assert rep.problems == []
    assert values["failed_ops_ratio"] == 0
    for metric in EXACT:
        if metric in values:
            assert values[metric] == quick[name, 11, 1][0][metric]
            assert values[metric] == quick[name, 12, 0][0][metric]
    assert quick[name, 12, 0][1].problems == []
    members = workloads.WORKLOADS[name].topology.members
    if name in ("data_steady", "data_reference"):
        assert values["wire_frames_per_msg"] == 3 * (members - 1) + 1


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_listed_metrics_and_layer_shares(name):
    workload = workloads.WORKLOADS[name]
    for traced, listed in ((False, metrics.END_TO_END),
                           (True, metrics.PER_LAYER)):
        result = run.measure(workload, 11, 0, traced, QUICK)
        assert result["correct"], result["problems"]
        emitted = run.contract_metrics(result, traced)
        assert list(emitted) == [m.name for m in listed]
        if not traced:  # the contract: an end-to-end metric is never 0
            assert all(v["value"] > 0 for v in emitted.values())
    layers = result["layers"]
    assert sum(layers[f"{l}.share"] for l in metrics.LAYERS) == \
        pytest.approx(1, abs=0.02)
    assert layers["driver.layer_sum_error"] < 0.02
    assert (layers["net.share"] > 0) == (workload.transport == "tcp")
    assert layers["crypto.open_many_calls"] == 0  # blind DATA_MSG relay
    kinds = {"data_msgs_per_s", "member_changes_per_s"} & set(result["values"])
    assert kinds == {
        "data_steady": {"data_msgs_per_s"},
        "data_reference": {"data_msgs_per_s"},
        "churn_rekey": {"member_changes_per_s"},
        "mixed_tcp": {"data_msgs_per_s", "member_changes_per_s"},
    }[name]


# -- the command line ----------------------------------------------------------------


def test_quick_suite_and_compare(tmp_path):
    started = time.perf_counter()
    done = subprocess.run(
        RUN + ["--seed", "11", "--quick", "--out", str(tmp_path)],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert time.perf_counter() - started < 30
    assert done.stderr == ""  # TCP shut down cleanly
    bench = tmp_path / "BENCH_e2e.json"
    payload = json.loads(bench.read_text())["payload"]
    assert set(payload["workloads"]) == set(workloads.WORKLOADS)
    assert payload["environment"]["nproc"] >= 1
    assert (tmp_path / "trace_mixed_tcp.jsonl").stat().st_size > 0

    assert compare.main([str(bench), str(bench)]) == 0
    slower = json.loads(bench.read_text())
    slower["payload"]["workloads"]["churn_rekey"]["end_to_end"][
        "rekey_frames_per_change"] += 1
    worse = tmp_path / "worse.json"
    worse.write_text(json.dumps(slower))
    assert compare.main([str(bench), str(worse)]) == 1


def test_contract_run_prints_one_json_result():
    done = subprocess.run(
        RUN + ["--workload", "data_steady", "--seed", "3",
               "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert list(result["metrics"]) == [m.name for m in metrics.END_TO_END]


def test_fails_without_the_program_under_test(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "benchmarks/e2e", tmp_path / "benchmarks/e2e",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "data_steady",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={"PATH": "/usr/bin:/bin"},
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
