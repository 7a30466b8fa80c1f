"""Kernel performance benchmark: measure, record, and regression-check.

Running ``python -m repro.harness.perfjson`` measures the simulation
kernel's hot paths and one figure-level sweep, then writes
``BENCH_kernel.json`` next to the repository root (or ``--output PATH``).
``--check`` re-measures and exits non-zero if kernel throughput has
regressed more than 30% against the committed numbers — the CI smoke
test.

Methodology
-----------
All timings use :func:`time.process_time` (CPU seconds — wall clock on a
shared box charges other tenants' noise to us), take the best of several
repetitions after a warmup run, and pause the cyclic GC during the timed
region.  The kernel microbenchmarks count *scheduled events* per CPU
second; the figure sweep reports CPU seconds end-to-end plus the kernel's
total event count, which doubles as the determinism fingerprint (a
bit-identical run schedules exactly the same number of events).
"""

from __future__ import annotations

import argparse
import gc
import json
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, Optional

from repro.sim import Environment

__all__ = [
    "DEFAULT_OUTPUT",
    "FLOWSIM_SPEEDUP_FLOOR",
    "REGRESSION_TOLERANCE",
    "SCHEMA",
    "bench_delay_path",
    "bench_timeout_path",
    "bench_packet_path",
    "bench_figure_sweep",
    "bench_flowsim",
    "bench_flowsim_scale",
    "bench_nf_chain",
    "bench_obs_overhead",
    "bench_solver",
    "bench_traffic",
    "bench_trainer_loop",
    "OBS_PROBE_NS_CEILING",
    "collect",
    "check",
    "main",
]

SCHEMA = "trio-repro/bench-kernel/v1"
DEFAULT_OUTPUT = "BENCH_kernel.json"

#: ``--check`` fails when a measured events/s figure drops below this
#: fraction of the committed number (i.e. a >30% regression).
REGRESSION_TOLERANCE = 0.70

#: Absolute ceiling on one *disabled* ``obs.probe`` call, in
#: nanoseconds.  The null-sink fast path is a global load plus a no-op
#: method call — tens of ns on any box — so an absolute bound is immune
#: to CI noise while still catching the failure it guards against: a
#: de-nulled dispatch path (recording when it shouldn't) jumps 10–100x.
OBS_PROBE_NS_CEILING = 2000.0

#: Hard floor on the hybrid flow-level advantage: simulated payload
#: bytes per CPU second through :func:`bench_flowsim` must be at least
#: this multiple of the packet-level macro path's.  This is the
#: headline claim of the two-level hybrid simulation, so ``--check``
#: enforces it as an absolute floor, not a drift ratio.  The
#: incremental path-class solver lands ~900-1000x on the reference box
#: (up from ~150-190x with the from-scratch per-flow solver); 400x
#: keeps >2x headroom while still failing fast if rate allocation ever
#: falls back to a per-flow rebuild.
FLOWSIM_SPEEDUP_FLOOR = 400.0

#: Seed-tree numbers, re-measured from the git seed tree (commit
#: ``8a6e343``, extracted via ``git archive``) on this box with the
#: same methodology as the live benchmarks: 200k events, warmup plus
#: best-of-5, GC paused; fig15 at full sizing (blocks=100), best-of-3.
#: The seed kernel had no pooled ``delay`` API — every pure wait went
#: through the timeout path — so both kernel baselines measure that
#: path, but as two *independent* runs (an earlier revision recorded a
#: single measurement under both keys, which made the two speedups
#: artificially identical).
SEED_BASELINE = {
    "delay_events_per_s": 691_620.0,
    "timeout_events_per_s": 712_364.0,
    "fig15_cpu_s": 0.7066,
}


def _best_of(fn: Callable[[], float], repeats: int) -> float:
    """Best (max) of ``repeats`` calls, with GC paused during each."""
    fn()  # warmup: bytecode caches, branch predictors, the delay pool
    best = 0.0
    for _ in range(repeats):
        enabled = gc.isenabled()
        gc.disable()
        try:
            best = max(best, fn())
        finally:
            if enabled:
                gc.enable()
    return best


def bench_delay_path(events: int = 200_000, repeats: int = 5) -> float:
    """Events/s of the pooled ``env.delay`` hot path (one waiter each)."""

    def once() -> float:
        env = Environment()

        def proc():
            delay = env.delay
            for _ in range(events):
                yield delay(1.0)

        env.process(proc())
        start = time.process_time()  # detlint: ok(benchmark harness)
        env.run()
        return events / (time.process_time() - start)  # detlint: ok(benchmark)

    return _best_of(once, repeats)


def bench_timeout_path(events: int = 200_000, repeats: int = 5) -> float:
    """Events/s of the general ``env.timeout`` path (fresh event each)."""

    def once() -> float:
        env = Environment()

        def proc():
            timeout = env.timeout
            for _ in range(events):
                yield timeout(1.0)

        env.process(proc())
        start = time.process_time()  # detlint: ok(benchmark harness)
        env.run()
        return events / (time.process_time() - start)  # detlint: ok(benchmark)

    return _best_of(once, repeats)


def bench_packet_path(blocks: int = 150, repeats: int = 3) -> Dict[str, float]:
    """Packets/s and events/s through one full single-PFE aggregation run.

    This exercises the whole stack: worker encode, NIC/link/fabric
    transport, PPE thread dispatch, hash lookup, RMW aggregation, and
    result multicast — the macro path every figure sweep is made of.
    """
    from repro.harness.testbed import build_single_pfe_testbed
    from repro.trioml.config import TrioMLJobConfig

    packets = 0
    events = 0
    sim_seconds = 0.0
    payload_bytes = 0.0

    def once() -> float:
        nonlocal packets, events, sim_seconds, payload_bytes
        env = Environment()
        config = TrioMLJobConfig(grads_per_packet=256, window=8)
        testbed = build_single_pfe_testbed(env, config, num_workers=4)
        vector = [1] * (256 * blocks)
        procs = testbed.run_allreduce([vector] * 4)
        start = time.process_time()  # detlint: ok(benchmark harness)
        env.run(until=env.all_of(procs))
        elapsed = time.process_time() - start  # detlint: ok(benchmark)
        packets = len(testbed.handle.aggregator.packet_latencies)
        events = env.scheduled_events
        sim_seconds = env.now
        # Gradient payload carried by the aggregation packets (4 B per
        # gradient) — the packet level's simulated-traffic currency,
        # comparable with the flow level's payload bytes.
        payload_bytes = float(packets * 256 * 4)
        return 1.0 / elapsed

    per_s = _best_of(once, repeats)
    cpu_s = 1.0 / per_s
    return {
        "packets": packets,
        "packets_per_s": packets * per_s,
        "scheduled_events": events,
        "events_per_s": events * per_s,
        "cpu_s": cpu_s,
        "sim_seconds": sim_seconds,
        "sim_seconds_per_cpu_s": sim_seconds * per_s,
        "simulated_bytes_per_cpu_s": payload_bytes * per_s,
    }


def bench_figure_sweep(blocks: int = 100,
                       repeats: int = 3) -> Dict[str, float]:
    """CPU seconds for the Figure 15 latency-vs-rate sweep.

    ``blocks=100`` is the figure's full sizing (what ``python -m
    repro.harness fig15`` runs and what the seed baseline was measured
    at).  The event count is the determinism fingerprint: serial,
    fast-path, and ``--parallel`` runs must all schedule exactly the
    same events.
    """
    from repro.harness.experiments import (
        FIG15_GRAD_COUNTS, _fig15_point,
    )

    events = 0

    def once() -> float:
        nonlocal events
        total = 0
        start = time.process_time()  # detlint: ok(benchmark harness)
        for grads in FIG15_GRAD_COUNTS:
            _, scheduled = _fig15_point((grads, blocks))
            total += scheduled
        elapsed = time.process_time() - start  # detlint: ok(benchmark)
        events = total
        return 1.0 / elapsed

    per_s = _best_of(once, repeats)
    return {"cpu_s": 1.0 / per_s, "scheduled_events": events,
            "blocks": blocks}


def bench_flowsim(num_flows: int = 10_000,
                  repeats: int = 2) -> Dict[str, float]:
    """Simulated traffic per CPU second through the hybrid flow level.

    Runs the canonical hybrid workload
    (:class:`repro.traffic.HybridScenario`) — incast bursts, a straggler
    host, and synchronised aggregation steps all escalating to
    packet-level references — and reports payload bytes carried to
    completion per CPU second.  Divided by the macro packet
    path's :func:`bench_packet_path` figure, this is the hybrid
    simulation's headline ratio, floored at
    :data:`FLOWSIM_SPEEDUP_FLOOR` by ``--check``.
    """
    from repro.traffic import HybridScenario, run_fluid

    scenario = HybridScenario()
    payload_bytes = 0.0
    sim_seconds = 0.0
    flows = 0
    escalated = 0
    events = 0
    wake_cancelled = 0
    wake_reused = 0

    def once() -> float:
        nonlocal payload_bytes, sim_seconds, flows, escalated
        nonlocal events, wake_cancelled, wake_reused
        start = time.process_time()  # detlint: ok(benchmark harness)
        result = run_fluid(scenario, num_flows)
        elapsed = time.process_time() - start  # detlint: ok(benchmark)
        payload_bytes = result.simulated_payload_bytes
        sim_seconds = result.sim_seconds
        flows = int(result.summary["flows"])
        escalated = sum(result.escalations.values())
        events = result.scheduled_events
        wake_cancelled = result.wake["cancelled"]
        wake_reused = result.wake["reused"]
        # Dead-wake-up guard: the engine keeps ONE live completion
        # wake-up, reusing or cancelling the pending one on every
        # re-solve.  The canonical scenario schedules ~3.0 events per
        # flow; abandoning a stale wake-up per re-solve (the old
        # behaviour) pushes it past 3.9, so this bound trips on a
        # regression while leaving ~15% headroom.
        if events > 3.5 * flows + 256:
            raise RuntimeError(
                f"flowsim scheduled {events} events for {flows} flows; "
                "dead wake-ups are leaking onto the heap")
        return 1.0 / elapsed

    per_s = _best_of(once, repeats)
    return {
        "num_flows": flows,
        "escalated_flows": escalated,
        "cpu_s": 1.0 / per_s,
        "sim_seconds": sim_seconds,
        "sim_seconds_per_cpu_s": sim_seconds * per_s,
        "simulated_gbytes": payload_bytes / 1e9,
        "simulated_bytes_per_cpu_s": payload_bytes * per_s,
        "scheduled_events": events,
        "scheduled_events_per_flow": events / flows if flows else 0.0,
        "wake_cancelled": wake_cancelled,
        "wake_reused": wake_reused,
    }


def bench_solver(num_flows: int = 10_000, window: int = 96,
                 repeats: int = 3) -> float:
    """Flow arrivals/departures per CPU second through the incremental
    path-class solver alone — no engine, no event loop.

    Replays a sliding window of ``window`` concurrent flows over a
    synthetic leaf/spine class structure (per-host access links plus
    per-leaf uplinks, all directed), re-solving after every add and
    every remove exactly as the engine does.  The live class count
    (~``window``) matches the canonical scenario's steady state, so
    this isolates the per-event allocation cost the hybrid level pays:
    an accidental from-scratch rebuild in the incremental path shows up
    here as an order-of-magnitude drop, with no scenario noise on top.
    """
    import random

    from repro.flowsim.solver import PathClassSolver

    leaves, hosts_per_leaf = 4, 12
    nhosts = leaves * hosts_per_leaf

    def path(src: int, dst: int):
        src_leaf, dst_leaf = src // hosts_per_leaf, dst // hosts_per_leaf
        up, down = 2 * src, 2 * dst + 1
        if src_leaf == dst_leaf:
            return (up, down)
        return (up, 10_000 + 2 * src_leaf, 10_001 + 2 * dst_leaf, down)

    capacity = {}
    for host in range(nhosts):
        capacity[2 * host] = capacity[2 * host + 1] = 100e9
    for leaf in range(leaves):
        capacity[10_000 + 2 * leaf] = capacity[10_001 + 2 * leaf] = 400e9

    # Pre-draw the flow paths so the timed loop is solver-only.
    rng = random.Random(0)
    sigs = []
    for _ in range(num_flows):
        src = rng.randrange(nhosts)
        dst = rng.randrange(nhosts - 1)
        if dst >= src:
            dst += 1
        sigs.append(path(src, dst))

    def once() -> float:
        solver = PathClassSolver(capacity)
        add, remove, resolve = solver.add, solver.remove, solver.resolve
        start = time.process_time()  # detlint: ok(benchmark harness)
        for index, sig in enumerate(sigs):
            add(sig)
            resolve()
            expired = index - window
            if expired >= 0:
                remove(sigs[expired])
                resolve()
        elapsed = time.process_time() - start  # detlint: ok(benchmark)
        return num_flows / elapsed

    return _best_of(once, repeats)


def bench_flowsim_scale(num_flows: int = 1_000_000) -> Dict[str, float]:
    """One million-flow cache-scenario run through the incremental path.

    A single timed run (no best-of — the run is minutes long) of the
    ``cache`` traffic scenario through :func:`repro.traffic.run_fluid`,
    GC paused, ``process_time``-clocked.  This is the scale point the
    path-class solver makes tractable at all: the pre-refactor per-flow
    rebuild extrapolates past 2,000 CPU-s here, and super-linearly so,
    because the cache workload's heavy-tailed sizes keep long-lived
    flows alive — the live set grows roughly with the square root of
    run length (avg ~26 live classes at 1e5 flows, ~48 at 3e5), so
    every per-flow term in the old solver compounded.  The incremental
    level pays O(live classes) per solve, which is what keeps the
    measured number in the low hundreds of CPU-seconds instead.

    Opt-in via ``--scale``; never part of ``--check`` (too slow for
    CI), so the committed figure is a recorded observation, not a gate.
    """
    from repro.traffic import get_scenario, run_fluid

    scenario = get_scenario("cache")
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()  # detlint: ok(benchmark harness)
        result = run_fluid(scenario, num_flows)
        elapsed = time.process_time() - start  # detlint: ok(benchmark)
    finally:
        if enabled:
            gc.enable()
    return {
        "num_flows": int(result.summary["flows"]),
        "cpu_s": elapsed,
        "flows_per_cpu_s": num_flows / elapsed,
        "sim_seconds": result.sim_seconds,
        "simulated_gbytes": result.simulated_payload_bytes / 1e9,
        "simulated_bytes_per_cpu_s": (
            result.simulated_payload_bytes / elapsed
        ),
        "solves": result.solves,
    }


def bench_nf_chain(packets: int = 20_000, repeats: int = 3) -> float:
    """Packets/s through the NF chain executor on the greedy placement.

    Compiles the canonical ``firewall -> telemetry -> aggregate`` chain,
    takes the cost-driven greedy placement, and times :func:`run_chain`
    alone (trace synthesis excluded) — the per-packet NF dispatch loop
    the ``chains`` sweep multiplies by 27 placements.  Guards the NF
    refactor: the three applications now run behind the
    :class:`repro.nf.base.NF` interface, and this is the budget that
    indirection must live within.
    """
    from repro.harness.experiments import DEFAULT_CHAIN
    from repro.nf import compile_chain, generate_trace, greedy_place, run_chain

    def once() -> float:
        compiled = compile_chain(DEFAULT_CHAIN)
        placement = greedy_place(compiled)
        trace = generate_trace(packets, seed=0)
        start = time.process_time()  # detlint: ok(benchmark harness)
        run_chain(compiled.spec, compiled.nfs, placement, trace)
        elapsed = time.process_time() - start  # detlint: ok(benchmark)
        return packets / elapsed

    return _best_of(once, repeats)


def bench_trainer_loop(iterations: int = 100_000,
                       repeats: int = 5) -> float:
    """Iterations/s of the data-parallel training hot loop.

    Runs :meth:`repro.ml.training.DataParallelTrainer.run` under the
    ``trioml`` collective backend with the Figure 13 worst-case straggle
    probability (p = 16%), so each iteration pays the full path: compute
    sampling, straggle-pattern draws, and the backend's
    ``iteration_duration`` dispatch.  Guards the registry refactor — the
    loop went from inlined if/else arms to a backend method call, and
    this number is the budget that dispatch must live within.
    """
    from repro.ml.models import MODEL_ZOO
    from repro.ml.training import DataParallelTrainer, TrainingConfig

    def once() -> float:
        config = TrainingConfig(
            model=MODEL_ZOO["resnet50"], system="trioml",
            straggle_probability=0.16, seed=0,
        )
        trainer = DataParallelTrainer(config)
        start = time.process_time()  # detlint: ok(benchmark harness)
        trainer.run(iterations)
        elapsed = time.process_time() - start  # detlint: ok(benchmark)
        return iterations / elapsed

    return _best_of(once, repeats)


def bench_obs_overhead(calls: int = 1_000_000,
                       repeats: int = 5) -> Dict[str, float]:
    """ns/call of a *disabled* ``obs.probe`` (the zero-overhead contract).

    Measures the bare counter probe and a probe carrying two label
    fields; both must stay a global load + no-op method call while no
    session is enabled.  Asserts observability is actually disabled
    first — timing the enabled path here would record a meaningless
    number and mask a leaked session.
    """
    from repro.obs import bus as obs

    if obs.enabled():
        raise RuntimeError("obs session active; overhead bench measures "
                           "the disabled path")

    def bare() -> float:
        probe = obs.probe
        start = time.process_time()  # detlint: ok(benchmark harness)
        for _ in range(calls):
            probe("bench.probe")
        elapsed = time.process_time() - start  # detlint: ok(benchmark)
        return calls / elapsed

    def with_fields() -> float:
        probe = obs.probe
        start = time.process_time()  # detlint: ok(benchmark harness)
        for _ in range(calls):
            probe("bench.probe", pfe="pfe1", action="fwd")
        elapsed = time.process_time() - start  # detlint: ok(benchmark)
        return calls / elapsed

    return {
        "null_probe_ns": 1e9 / _best_of(bare, repeats),
        "null_probe_fields_ns": 1e9 / _best_of(with_fields, repeats),
        "ceiling_ns": OBS_PROBE_NS_CEILING,
    }


def bench_traffic(num_flows: int = 100_000, repeats: int = 3) -> float:
    """Flow specs generated per CPU second by the traffic library.

    Times :meth:`TrafficScenario.generate` on the ``websearch`` family
    (empirical CDF sizes, Poisson arrivals — the cheapest draws, so
    this is the generator's ceiling, not a workload average).  Guards
    the 10^5–10^6-flow scale claim: a sweep's flow lists must stay a
    negligible fraction of its fluid-solve budget.
    """
    from repro.sim import Environment
    from repro.traffic import get_scenario

    scenario = get_scenario("websearch")

    def once() -> float:
        env = Environment()
        start = time.process_time()  # detlint: ok(benchmark harness)
        flows = scenario.generate(env, num_flows)
        elapsed = time.process_time() - start  # detlint: ok(benchmark)
        return len(flows) / elapsed

    return _best_of(once, repeats)


def collect(quick: bool = False, scale: bool = False) -> Dict:
    """Measure everything and return the BENCH_kernel.json document.

    ``scale=True`` additionally runs the (minutes-long) million-flow
    cache-scenario point and records it under ``"flowsim_scale"``.
    """
    shrink = 4 if quick else 1
    delay = bench_delay_path(events=200_000 // shrink,
                             repeats=3 if quick else 5)
    timeout = bench_timeout_path(events=200_000 // shrink,
                                 repeats=3 if quick else 5)
    packet = bench_packet_path(blocks=150 // shrink,
                               repeats=2 if quick else 3)
    trainer = bench_trainer_loop(iterations=25_000 if quick else 100_000,
                                 repeats=3 if quick else 5)
    fig15 = bench_figure_sweep(blocks=20 if quick else 100,
                               repeats=2 if quick else 3)
    flowsim = bench_flowsim(num_flows=1_000 if quick else 10_000,
                            repeats=2)
    solver = bench_solver(num_flows=2_000 if quick else 10_000,
                          repeats=2 if quick else 3)
    nf_chain = bench_nf_chain(packets=5_000 if quick else 20_000,
                              repeats=2 if quick else 3)
    traffic = bench_traffic(num_flows=20_000 if quick else 100_000,
                            repeats=2 if quick else 3)
    obs_overhead = bench_obs_overhead(calls=250_000 if quick else 1_000_000,
                                      repeats=3 if quick else 5)
    doc = {
        "schema": SCHEMA,
        "python": platform.python_version(),
        "kernel": {
            "delay_events_per_s": round(delay),
            "timeout_events_per_s": round(timeout),
        },
        "macro": {
            "packets_per_s": round(packet["packets_per_s"]),
            "events_per_s": round(packet["events_per_s"]),
            "packets": packet["packets"],
            "scheduled_events": packet["scheduled_events"],
            "sim_seconds_per_cpu_s": round(
                packet["sim_seconds_per_cpu_s"], 6
            ),
            "simulated_bytes_per_cpu_s": round(
                packet["simulated_bytes_per_cpu_s"]
            ),
        },
        "flowsim": {
            "num_flows": flowsim["num_flows"],
            "escalated_flows": flowsim["escalated_flows"],
            "simulated_gbytes": round(flowsim["simulated_gbytes"], 2),
            "cpu_s": round(flowsim["cpu_s"], 3),
            "sim_seconds_per_cpu_s": round(
                flowsim["sim_seconds_per_cpu_s"], 6
            ),
            "simulated_bytes_per_cpu_s": round(
                flowsim["simulated_bytes_per_cpu_s"]
            ),
            "scheduled_events": flowsim["scheduled_events"],
            "scheduled_events_per_flow": round(
                flowsim["scheduled_events_per_flow"], 2
            ),
            "solver_flows_per_s": round(solver),
        },
        "trainer": {
            "iterations_per_s": round(trainer),
        },
        "nf": {
            "chain_packets_per_s": round(nf_chain),
        },
        "traffic": {
            "flows_generated_per_s": round(traffic),
        },
        "obs": {
            "null_probe_ns": round(obs_overhead["null_probe_ns"], 1),
            "null_probe_fields_ns": round(
                obs_overhead["null_probe_fields_ns"], 1
            ),
            "ceiling_ns": obs_overhead["ceiling_ns"],
        },
        "fig15_sweep": {
            "cpu_s": round(fig15["cpu_s"], 4),
            "scheduled_events": fig15["scheduled_events"],
            "blocks": fig15["blocks"],
        },
        "seed_baseline": dict(SEED_BASELINE),
        "speedup": {
            "delay_path": round(delay / SEED_BASELINE["delay_events_per_s"], 2),
            "timeout_path": round(
                timeout / SEED_BASELINE["timeout_events_per_s"], 2
            ),
            "flowsim_bytes_vs_packet": round(
                flowsim["simulated_bytes_per_cpu_s"]
                / packet["simulated_bytes_per_cpu_s"], 1
            ),
            "flowsim_speedup_floor": FLOWSIM_SPEEDUP_FLOOR,
        },
    }
    if not quick:
        # The seed fig15 number was measured at full sizing only.
        doc["speedup"]["fig15_sweep"] = round(
            SEED_BASELINE["fig15_cpu_s"] / fig15["cpu_s"], 2
        )
    if scale:
        point = bench_flowsim_scale()
        doc["flowsim_scale"] = {
            "scenario": "cache",
            "num_flows": point["num_flows"],
            "cpu_s": round(point["cpu_s"], 1),
            "flows_per_cpu_s": round(point["flows_per_cpu_s"]),
            "sim_seconds": round(point["sim_seconds"], 4),
            "simulated_gbytes": round(point["simulated_gbytes"], 2),
            "simulated_bytes_per_cpu_s": round(
                point["simulated_bytes_per_cpu_s"]
            ),
            "solves": point["solves"],
        }
    return doc


def check(path: Path, quick: bool = True) -> int:
    """Re-measure and compare against the committed numbers.

    Returns a process exit code: 0 when every kernel events/s figure is
    within :data:`REGRESSION_TOLERANCE` of the committed value (or
    faster), 1 on regression.
    """
    committed = json.loads(path.read_text())
    current = collect(quick=quick)
    checks = [("kernel", "delay_events_per_s"),
              ("kernel", "timeout_events_per_s")]
    if "trainer" in committed:
        checks.append(("trainer", "iterations_per_s"))
    if "sim_seconds_per_cpu_s" in committed.get("macro", {}):
        checks.append(("macro", "sim_seconds_per_cpu_s"))
    if "flowsim" in committed:
        checks.append(("flowsim", "simulated_bytes_per_cpu_s"))
    if "solver_flows_per_s" in committed.get("flowsim", {}):
        checks.append(("flowsim", "solver_flows_per_s"))
    if "nf" in committed:
        checks.append(("nf", "chain_packets_per_s"))
    if "traffic" in committed:
        checks.append(("traffic", "flows_generated_per_s"))
    failures = []
    for section, key in checks:
        old = committed[section][key]
        new = current[section][key]
        ratio = new / old if old else float("inf")
        status = "ok" if ratio >= REGRESSION_TOLERANCE else "REGRESSION"
        fmt = ",.0f" if old >= 1.0 else ".6f"  # sim-s/cpu-s is fractional
        print(f"{section}.{key}: committed {old:{fmt}} measured {new:{fmt}} "
              f"({ratio:.2f}x) {status}")
        if ratio < REGRESSION_TOLERANCE:
            failures.append(f"{section}.{key}")
    # Absolute bound, not a ratio: the disabled probe is tens of ns, so
    # the ceiling is noise-immune yet still trips on a de-nulled path.
    for key in ("null_probe_ns", "null_probe_fields_ns"):
        measured = current["obs"][key]
        status = "ok" if measured <= OBS_PROBE_NS_CEILING else "REGRESSION"
        print(f"obs.{key}: measured {measured:.1f} ns "
              f"(ceiling {OBS_PROBE_NS_CEILING:.0f} ns) {status}")
        if measured > OBS_PROBE_NS_CEILING:
            failures.append(f"obs.{key}")
    # Absolute floor on the hybrid simulation's headline claim: flow
    # level >= FLOWSIM_SPEEDUP_FLOOR x the packet level in simulated
    # bytes per CPU second, measured fresh.  Gated on the committed doc
    # carrying a flowsim section so pre-hybrid records still check.
    if "flowsim" in committed:
        ratio = current["speedup"]["flowsim_bytes_vs_packet"]
        status = "ok" if ratio >= FLOWSIM_SPEEDUP_FLOOR else "REGRESSION"
        print(f"speedup.flowsim_bytes_vs_packet: measured {ratio:.1f}x "
              f"(floor {FLOWSIM_SPEEDUP_FLOOR:.0f}x) {status}")
        if ratio < FLOWSIM_SPEEDUP_FLOOR:
            failures.append("speedup.flowsim_bytes_vs_packet")
    if failures:
        print(f"FAIL: >{(1 - REGRESSION_TOLERANCE):.0%} regression in: "
              + ", ".join(failures))
        return 1
    print("PASS: kernel throughput within tolerance")
    return 0


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness.perfjson",
        description="Measure kernel performance; write or check "
                    f"{DEFAULT_OUTPUT}.",
    )
    parser.add_argument("--output", type=Path, default=Path(DEFAULT_OUTPUT),
                        help="where to write (or read, with --check) the "
                             "benchmark JSON")
    parser.add_argument("--check", action="store_true",
                        help="compare a fresh measurement against the "
                             "committed JSON; exit 1 on a "
                             f">{1 - REGRESSION_TOLERANCE:.0%} events/s "
                             "regression")
    parser.add_argument("--quick", action="store_true",
                        help="smaller workloads and fewer repeats "
                             "(CI smoke sizing)")
    parser.add_argument("--scale", action="store_true",
                        help="also measure the million-flow cache "
                             "scenario (minutes; recorded, never "
                             "checked)")
    args = parser.parse_args(argv)

    if args.check:
        if not args.output.exists():
            print(f"error: {args.output} not found — run "
                  "`python -m repro.harness.perfjson` first to record a "
                  "baseline", file=sys.stderr)
            return 2
        return check(args.output, quick=True)

    doc = collect(quick=args.quick, scale=args.scale)
    args.output.write_text(json.dumps(doc, indent=2) + "\n")
    print(json.dumps(doc, indent=2))
    print(f"\nwrote {args.output}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
