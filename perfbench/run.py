"""The repository benchmark: one workload, measured for a fixed time.

Run from the root of a checkout::

    python3 perfbench/run.py --workload cache-fluid --seed 1 --seconds 25 --trace 0

The program is imported from the checkout's ``src`` directory.  The
runner sets up the workload, then cycles through the workload's inputs
(sub-seeds of ``--seed``) until ``--seconds`` have passed and every
input has run, checking every repetition's outputs.  The last line of
standard output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With
``--trace 1`` one untraced cycle over the inputs runs first, every later
repetition runs under :class:`tracing.Tracer`, and the metrics are the
per-layer ones plus the tracing overhead; the spans of the first traced
repetition are written as a Chrome ``trace_event`` file under
``.perfbench_out/``.

Machine-speed normalisation: on a shared host, single-thread speed can
drift by tens of percent for seconds at a time.  A fixed pure-Python
reference loop (:func:`reference_s`) is timed just before and just
after each repetition and each set-up, and every reported time is
scaled by ``REFERENCE_NOMINAL_S`` over the mean of the two: times read
as seconds on a host running the reference loop in
``REFERENCE_NOMINAL_S``.  The loop touches no program code, so no change
to the program can move it.

Correctness: a repetition fails all of its operations when its output
digest differs from the first repetition of the same input, and the
whole run fails when its digest over all inputs differs from the one
recorded for its seed in ``digests.json``.
"""

from __future__ import annotations

import heapq
from time import perf_counter


class _Item:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: float) -> None:
        self.key = key
        self.value = value


def reference_s() -> float:
    """Seconds the reference loop takes now.

    Three kinds of work the simulator's inner loops do: small-object
    and heap churn, bursts of allocation, and dict stores at scattered
    keys.  Together they track the host's speed for this program better
    than any one of them does.  The loop holds under a megabyte at a
    time, so it never sets the process's peak memory.
    """
    start = perf_counter()
    table = {}
    heap = []
    for i in range(10_000):
        item = _Item(i, i * 0.5)
        table[i % 997] = item
        heapq.heappush(heap, (item.value, i))
        if len(heap) > 64:
            heapq.heappop(heap)
    for _ in range(5):
        items = [_Item(i, i * 0.5) for i in range(5_000)]
        index = {item.key: item for item in items}
        del items, index
    scattered = {}
    for i in range(30_000):
        scattered[(i * 7919) % 4_999] = [i, float(i)]
    return perf_counter() - start


_REF0 = reference_s()
_T0 = perf_counter()

import argparse  # noqa: E402 - the set-up clock starts before any import
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from typing import Any, Optional  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
sys.path.insert(0, HERE)

from tracing import LAYERS  # noqa: E402

#: Reference-loop time that reported seconds are scaled to: about the
#: loop's fastest time on a 2-vCPU x86-64 VM under CPython 3.11.
REFERENCE_NOMINAL_S = 0.03
#: Set-ups measured per run: this process plus fresh interpreters.
SETUP_PROBES = 4
OUT_DIR = ".perfbench_out"
DIGESTS = os.path.join(HERE, "digests.json")

END_TO_END = {
    "ops_per_s": "1/s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

#: Every per-layer metric a traced run reports (0 where the workload
#: does not exercise the layer), with its unit.
PER_LAYER = {
    "solver.resolve_calls": "count",
    "solver.resolve_s": "s",
    "solver.resolve_us_p50": "us",
    "solver.resolve_us_p99": "us",
    "solver.live_classes_mean": "count",
    "solver.changed_classes_mean": "count",
    "solver.update_calls": "count",
    "solver.update_s": "s",
    "engine.start_flow_s": "s",
    "engine.path_classes_mean": "count",
    "engine.solves_per_flow": "count",
    "engine.run_self_s": "s",
    "escalate.classify_s": "s",
    "escalate.pinned_rates_calls": "count",
    "escalate.pinned_rates_s": "s",
    "escalate.escalated_frac": "ratio",
    "packetref.calls": "count",
    "packetref.misses": "count",
    "packetref.hit_ratio": "ratio",
    "packetref.s": "s",
    "traffic.generate_s": "s",
    "traffic.flows_generated": "count",
    "traffic.packet_stream_s": "s",
    "net.packet_build_s": "s",
    "nf.packet_view_s": "s",
    "nf.run_chain_s": "s",
    "nf.placements": "count",
    "nf.firewall.process_calls": "count",
    "nf.firewall.process_s": "s",
    "nf.telemetry.process_calls": "count",
    "nf.telemetry.process_s": "s",
    "nf.aggregate.process_calls": "count",
    "nf.aggregate.process_s": "s",
    "nf.packets_dropped": "count",
    "nf.packets_blocked": "count",
    "sim.scheduled_events": "count",
    "sim.cancelled_events": "count",
    "sim.events_per_unit": "count",
    "sim.run_s": "s",
    "trio.pfe_packets_in": "count",
    "trio.ppe_threads": "count",
    "trio.ppe_instructions": "count",
    "trio.ppe_busy_frac": "ratio",
    "trio.hash_ops": "count",
    "trio.rmw_ops": "count",
    "trio.memory_hit_ratio": "ratio",
    "trio.xtxn_count": "count",
    "trio.fabric_packets": "count",
    "trio.reorder_held_max": "count",
    "trio.host_us_per_pfe_packet": "us",
    "trioml.packets_aggregated": "count",
    "trioml.results_full": "count",
    "trioml.results_partial": "count",
    "trioml.blocks_mitigated": "count",
    "trioml.records_scanned": "count",
    "trioml.scan_useful_ratio": "ratio",
    "trioml.agg_latency_us_p50": "us",
    "trioml.agg_latency_us_p99": "us",
    "trace.overhead_frac": "ratio",
}


# Self time per layer, and its share of the repetition's wall time.
for _layer in LAYERS:
    PER_LAYER[f"self_s.{_layer}"] = "s"
    PER_LAYER[f"share.{_layer}"] = "ratio"


def _check_source() -> None:
    """Refuse to run against anything but this checkout's sources."""
    import repro

    found = os.path.abspath(repro.__file__)
    if not found.startswith(SRC + os.sep):
        raise SystemExit(f"repro imported from {found}, not from {SRC}")


def recorded_digest(workload):
    """The digest recorded for this run's seed, or None."""
    try:
        with open(DIGESTS, encoding="utf-8") as handle:
            table = json.load(handle)
    except FileNotFoundError:
        return None
    return table.get(digest_key(workload), {}).get(str(workload.seed))


def digest_key(workload) -> str:
    return f"{workload.name}@{workload.size}x{workload.inputs}"


def setup_workload(name: str, seed: int, size=None):
    """Set up workload ``name`` with its first input prepared."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, size)
    workload.setup()
    return workload


def _probe_setup(args: argparse.Namespace) -> float:
    """Normalised set-up time measured in a fresh interpreter."""
    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--setup-probe"]
    if args.size is not None:
        cmd += ["--size", str(args.size)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(done.stdout.strip().splitlines()[-1])


@dataclass
class Rep:
    """One repetition: its input, normalised time, outcome, layer table."""

    index: int
    #: REFERENCE_NOMINAL_S / reference-loop time around the repetition.
    scale: float
    #: Normalised wall time of the repetition.
    seconds: float
    outcome: Any
    layers: Optional[dict]


def measure(workload, seconds: float, tracer=None):
    """Cycle through the inputs for ``seconds``; return the repetitions.

    Every input runs at least once (traced: once untraced, then at
    least once traced).  Under a tracer the first cycle is untraced.
    """
    inputs = workload.inputs
    least = 2 * inputs if tracer is not None else inputs
    reps = []
    start = perf_counter()
    while len(reps) < least or perf_counter() - start < seconds:
        index = len(reps) % inputs
        if reps:
            workload.prepare(index)
        gc.collect()
        traced = tracer is not None and len(reps) >= inputs
        before = reference_s()
        if traced:
            tracer.reset()
            tracer.armed = True
        t0 = perf_counter()
        output = workload.run()
        wall = perf_counter() - t0
        layers = None
        if traced:
            tracer.armed = False
            layers = tracer.layer_metrics(wall)
            if tracer.kept is None:
                tracer.keep_chrome_trace()
        scale = 2 * REFERENCE_NOMINAL_S / (before + reference_s())
        outcome = workload.check(output)
        reps.append(Rep(index, scale, wall * scale, outcome, layers))
    return reps


def run_digest(reps) -> str:
    """One digest over every input's outputs, in input order."""
    first = {}
    for rep in reps:
        first.setdefault(rep.index, rep.outcome.digest)
    text = "\n".join(first[index] for index in sorted(first))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def score(reps, recorded):
    """``(attempted, failed)`` over all repetitions, digests included.

    A repetition whose digest differs from its input's first one fails
    all its operations; so does the whole run when the run digest
    differs from the one recorded for its seed.
    """
    attempted = failed = 0
    first = {}
    for rep in reps:
        digest = rep.outcome.digest
        attempted += rep.outcome.attempted
        if digest != first.setdefault(rep.index, digest):
            failed += rep.outcome.attempted
        else:
            failed += rep.outcome.failed
    if recorded is not None and run_digest(reps) != recorded:
        failed = attempted
    return attempted, failed


def _by_input(reps, traced=None):
    groups = {}
    for rep in reps:
        if traced is None or (rep.layers is not None) == traced:
            groups.setdefault(rep.index, []).append(rep)
    return [groups[index] for index in sorted(groups)]


def ops_per_s(reps, traced=None) -> float:
    """Operations of one cycle over the inputs, divided by the sum of
    each input's median normalised time."""
    ops = seconds = 0.0
    for group in _by_input(reps, traced):
        ops += group[0].outcome.attempted
        seconds += statistics.median(rep.seconds for rep in group)
    return ops / seconds


def per_layer(reps) -> dict:
    """Per-layer metrics: per input the median over its traced
    repetitions, then the mean over inputs (one repetition's worth)."""
    per_input = []
    for group in _by_input(reps, traced=True):
        rows = []
        for rep in group:
            merged = dict(rep.layers)
            merged.update(rep.outcome.counters)
            ops = rep.outcome.counters.get("sim.ops", 0)
            merged["sim.events_per_unit"] = (
                merged["sim.scheduled_events"] / ops if ops else 0.0)
            pfe_packets = merged.get("trio.pfe_packets_in", 0)
            merged["trio.host_us_per_pfe_packet"] = (
                rep.seconds * 1e6 / pfe_packets if pfe_packets else 0.0)
            for name, unit in PER_LAYER.items():
                if unit in ("s", "us") and name in rep.layers:
                    merged[name] *= rep.scale
            rows.append(merged)
        per_input.append({
            name: statistics.median(float(row.get(name, 0.0))
                                    for row in rows)
            for name in PER_LAYER})
    table = {name: statistics.fmean(row[name] for row in per_input)
             for name in PER_LAYER}
    table["trace.overhead_frac"] = (
        ops_per_s(reps, traced=False) / ops_per_s(reps, traced=True) - 1.0)
    return table


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", type=int, default=None,
                        help="override the workload size (tests)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    workload = setup_workload(args.workload, args.seed, args.size)
    setup_s = (perf_counter() - _T0) * 2 * REFERENCE_NOMINAL_S / (
        _REF0 + reference_s())
    _check_source()
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    setups = [setup_s] + [_probe_setup(args) for _ in range(SETUP_PROBES)]

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer().install()
    try:
        reps = measure(workload, args.seconds, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    attempted, failed = score(reps, recorded_digest(workload))

    if tracer is not None:
        os.makedirs(OUT_DIR, exist_ok=True)
        problems = tracer.write_chrome_trace(
            os.path.join(OUT_DIR, f"trace-{args.workload}.json"))
        if problems:
            raise SystemExit(f"invalid Chrome trace: {problems[:3]}")
        values = per_layer(reps)
        units = PER_LAYER
    else:
        values = {
            "ops_per_s": ops_per_s(reps),
            "setup_s": statistics.median(setups),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": 1.0 - failed / attempted,
        }
        units = END_TO_END
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
