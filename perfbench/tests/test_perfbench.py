"""The benchmark's own tests.

Run from the root of a checkout::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, BENCH)

import run  # noqa: E402
from tracing import LAYERS, Tracer  # noqa: E402
from workloads import Outcome  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Sizes small enough for a test, large enough to exercise every layer
#: (escalations and packet references on both fluid workloads, partial
#: results on the straggler workload, drops on the chain).
TINY = {
    "cache-fluid": 1500,
    "incast-fluid": 300,
    "allreduce-straggler": 24,
    "ddos-chain": 512,
}


def _one_rep(name: str, tracer: Tracer = None):
    workload = run.setup_workload(name, seed=3, size=TINY[name])
    if tracer is not None:
        tracer.reset()
        tracer.armed = True
    output = workload.run()
    if tracer is not None:
        tracer.armed = False
    return workload.check(output)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_passes_its_checks(name):
    outcome = _one_rep(name)
    assert outcome.attempted > 0
    assert outcome.failed == 0


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_digest_equals_untraced(name):
    untraced = _one_rep(name)
    with Tracer() as tracer:
        traced = _one_rep(name, tracer)
        assert tracer.span_name, "the traced repetition recorded no spans"
    assert traced.digest == untraced.digest
    assert traced.counters == untraced.counters


def test_packetref_counts_unchanged_under_tracing():
    untraced = _one_rep("incast-fluid")
    with Tracer() as tracer:
        traced = _one_rep("incast-fluid", tracer)
        spans = [tracer._names[i] for i in tracer.span_name]
        layers = tracer.layer_metrics(1.0)
    assert 0 < layers["packetref.s"] <= layers["escalate.pinned_rates_s"]
    assert untraced.counters["packetref.misses"] > 0
    assert untraced.counters["packetref.calls"] > \
        untraced.counters["packetref.misses"]
    for key in ("packetref.calls", "packetref.misses",
                "packetref.hit_ratio"):
        assert traced.counters[key] == untraced.counters[key]
    assert sum(name.startswith("packetref.") for name in spans) == \
        traced.counters["packetref.calls"]


def test_wrappers_restore_originals():
    from repro.flowsim import packetref
    from repro.flowsim.solver import PathClassSolver
    from repro.net.packet import Packet
    from repro.sim.core import Environment
    from repro.traffic import adapters

    owners = [(PathClassSolver, "resolve"), (Environment, "run"),
              (Packet, "udp"), (adapters, "packet_view"),
              (adapters, "packet_stream"), (packetref, "packet_fan_in")]

    def raw(owner, attr):
        return owner.__dict__[attr] if isinstance(owner, type) \
            else getattr(owner, attr)

    before = [raw(owner, attr) for owner, attr in owners]
    tracer = Tracer().install()
    try:
        assert all(raw(owner, attr) is not original
                   for (owner, attr), original in zip(owners, before))
        # The lru_cache interface survives the wrapper.
        packetref.packet_fan_in.cache_info()
        packetref.packet_fan_in.cache_clear()
        assert isinstance(Packet.__dict__["udp"], classmethod)
    finally:
        tracer.uninstall()
    assert all(raw(owner, attr) is original
               for (owner, attr), original in zip(owners, before))


def test_layer_split_accounts_for_the_repetition():
    with Tracer() as tracer:
        tracer.reset()
        tracer.armed = True
        workload = run.setup_workload("cache-fluid", 3, TINY["cache-fluid"])
        output = workload.run()
        tracer.armed = False
        wall = sum(end - start for end, start, parent in zip(
            tracer.span_end, tracer.span_start, tracer.span_parent)
            if parent < 0)
        metrics = tracer.layer_metrics(wall)
    assert len(output.records) == TINY["cache-fluid"]
    shares = sum(metrics[f"share.{layer}"] for layer in LAYERS)
    assert shares == pytest.approx(1.0)
    assert metrics["solver.resolve_calls"] > 0
    assert metrics["engine.run_self_s"] > 0
    assert metrics["traffic.flows_generated"] == TINY["cache-fluid"]


def test_digest_mismatch_fails_every_operation():
    def rep(index, digest, failed=0):
        return run.Rep(index, 1.0, 1.0, Outcome(10, failed, digest), None)

    good = [rep(0, "a"), rep(1, "b", failed=2), rep(0, "a")]
    assert run.score(good, None) == (30, 2)
    assert run.score(good, run.run_digest(good)) == (30, 2)
    assert run.score(good, "recorded elsewhere") == (30, 30)
    # A repetition disagreeing with its input's first one fails whole.
    assert run.score(good + [rep(1, "c")], None) == (40, 12)


def test_benchmark_json_names_every_metric():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def _main_json(tmp_path, *args):
    done = subprocess.run(
        [sys.executable, os.path.join(BENCH, "run.py"), *args],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", ["0", "1"])
def test_command_prints_the_result_line(tmp_path, trace):
    result = _main_json(tmp_path, "--workload", "ddos-chain", "--seed", "2",
                        "--seconds", "0", "--trace", trace, "--size", "128")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    names = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {k: v["unit"] for k, v in result["metrics"].items()} == names
    if trace == "1":
        trace_file = tmp_path / ".perfbench_out" / "trace-ddos-chain.json"
        doc = json.loads(trace_file.read_text())
        assert doc["traceEvents"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cache-fluid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
