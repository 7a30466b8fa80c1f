"""The benchmark's workloads: set-up, one timed repetition, output checks.

Each workload drives the program through its public entry points only.
One run's seed expands into :attr:`Workload.inputs` sub-seeds
(``"<seed>:<k>"``), one input each; the runner cycles through them, so
a run's figure averages over that many independent inputs instead of
hanging on one draw.  A sub-seed reaches the program only through
``repro.sim.set_default_seed`` and, for the straggler workload, through
the straggle pattern drawn here and handed in via ``hook_factory``.

A repetition returns its raw output; :meth:`Workload.check` turns that
into an :class:`Outcome`: how many operations were attempted, how many
failed the output checks, a digest of the simulated outputs, and the
layer counters read from the models after the run.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional


@dataclass
class Outcome:
    """What one repetition produced, as the runner needs it."""

    attempted: int
    failed: int
    digest: str
    counters: Dict[str, float] = field(default_factory=dict)


def _digest(lines: List[str]) -> str:
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


class Workload:
    """Interface of one named workload."""

    name = ""
    #: Default size (flows, blocks, or packets) of one repetition.
    default_size = 0
    #: Independent inputs (sub-seeds) one run cycles through.
    inputs = 16

    def __init__(self, seed: int, size: Optional[int] = None) -> None:
        self.seed = seed
        self.size = size if size is not None else self.default_size
        self.current = 0

    def subseed(self, index: int) -> str:
        return f"{self.seed}:{index}"

    def setup(self) -> None:
        """Build what the first repetition needs (timed as set-up)."""
        self.prepare(0)

    def prepare(self, index: int) -> None:
        """Untimed: make input ``index`` the next repetition's input."""
        from repro.sim import set_default_seed

        self.current = index
        set_default_seed(self.subseed(index))

    def run(self) -> Any:
        """The timed repetition."""
        raise NotImplementedError

    def check(self, output: Any) -> Outcome:
        """Check the outputs of one repetition (untimed)."""
        raise NotImplementedError


class FluidWorkload(Workload):
    """``run_fluid(get_scenario(scenario), flows)``; an operation is a
    completed flow."""

    scenario_name = ""

    def setup(self) -> None:
        from repro.traffic import adapters, get_scenario

        self._adapters = adapters
        self.scenario = get_scenario(self.scenario_name)
        self._expected: Dict[int, Dict[int, float]] = {}
        super().setup()

    def run(self) -> Any:
        return self._adapters.run_fluid(self.scenario, self.size)

    def expected_sizes(self) -> Dict[int, float]:
        """flow id -> payload bytes of the current input's flows."""
        expected = self._expected.get(self.current)
        if expected is None:
            from repro.sim import Environment

            expected = self._expected[self.current] = {
                spec.flow_id: spec.size_bytes
                for spec in self.scenario.generate(Environment(), self.size)
            }
        return expected

    def check(self, output: Any) -> Outcome:
        from repro.flowsim import packetref

        expected = self.expected_sizes()
        done = {}
        # The engine sums payload in completion order: sum the generated
        # sizes in that order too, so equality is exact.
        generated_bytes = 0.0
        for record in output.records:
            fid = record.spec.flow_id
            generated_bytes += expected.get(fid, float("nan"))
            if 0.0 < record.fct_s < float("inf"):
                done[fid] = record
        failed = sum(1 for fid in expected if fid not in done)
        if output.simulated_payload_bytes != generated_bytes:
            failed = len(expected)
        lines = [f"{self.name} {self.size} {self.subseed(self.current)} "
                 f"{output.sim_seconds.hex()}"]
        for fid in sorted(done):
            record = done[fid]
            lines.append(f"{fid} {record.fct_s.hex()} {record.escalated}")

        hits = misses = 0
        for fn in (packetref.packet_fan_in, packetref.packet_pair,
                   packetref.packet_pfe_goodput):
            info = fn.cache_info()
            hits += info.hits
            misses += info.misses
        flows = len(output.records)
        escalated = sum(output.escalations.values())
        return Outcome(
            attempted=len(expected),
            failed=failed,
            digest=_digest(lines),
            counters={
                "engine.solves_per_flow": output.solves / flows,
                "escalate.escalated_frac": escalated / flows,
                "packetref.calls": hits + misses,
                "packetref.misses": misses,
                "packetref.hit_ratio": (hits / (hits + misses)
                                        if hits + misses else 0.0),
                "sim.ops": flows,
            },
        )


class CacheFluid(FluidWorkload):
    name = "cache-fluid"
    scenario_name = "cache"
    default_size = 2_500


class IncastFluid(FluidWorkload):
    name = "incast-fluid"
    scenario_name = "incast"
    default_size = 800


class AllreduceStraggler(Workload):
    """Figure 11(b) hierarchical aggregation with a straggling worker.

    Six workers (three on PFE1, three on PFE2) aggregate through PFE4
    with the timer-thread detector on.  One seed-drawn worker sleeps
    before a seed-drawn set of its blocks (one in twenty), longer than
    the detection timeout, so those blocks age out and complete with
    partial results.

    Worker ``i`` sends the gradient ``1 << i`` everywhere, so a result's
    value names exactly which workers contributed: its popcount must
    equal the ``src_cnt`` the result carries.  An operation is a block
    whose result, full or partial, reached every worker.
    """

    name = "allreduce-straggler"
    default_size = 96
    workers = 6
    grads_per_packet = 256
    window = 8
    timeout_s = 0.001
    detector_threads = 20
    straggle_s = 0.003
    straggle_every = 20

    def setup(self) -> None:
        from repro.harness.testbed import build_hierarchical_testbed
        from repro.sim import Environment
        from repro.trioml.config import TrioMLJobConfig

        self._build = build_hierarchical_testbed
        self._environment = Environment
        self.config = TrioMLJobConfig(
            grads_per_packet=self.grads_per_packet,
            window=self.window,
            timeout_s=self.timeout_s,
            detector_threads=self.detector_threads,
        )
        self.vectors = [[1 << i] * (self.grads_per_packet * self.size)
                        for i in range(self.workers)]
        super().setup()

    def prepare(self, index: int) -> None:
        super().prepare(index)
        rng = random.Random(f"perfbench/straggle/{self.subseed(index)}")
        straggler = rng.randrange(self.workers)
        slow = frozenset(rng.sample(range(self.size),
                                    max(1, self.size // self.straggle_every)))
        delay = self.straggle_s

        def hook_factory(worker: int) -> Any:
            if worker != straggler:
                return None
            return lambda block_id: delay if block_id in slow else 0.0

        self._testbed = self._build(
            self._environment(), self.config, with_detector=True,
            hook_factory=hook_factory)

    def run(self) -> Any:
        testbed = self._testbed
        env = testbed.env
        procs = testbed.run_allreduce(self.vectors)
        env.run(until=env.all_of(procs))
        return testbed, [proc.value for proc in procs]

    def check(self, output: Any) -> Outcome:
        testbed, results = output
        full_mask = (1 << self.workers) - 1
        failed = 0
        lines = [f"{self.name} {self.size} {self.subseed(self.current)} "
                 f"{testbed.env.now.hex()}"]
        full = partial = 0
        for block in range(self.size):
            seen = set()
            for worker in results:
                if len(worker) != self.size:
                    seen.add(None)
                    continue
                result = worker[block]
                values = set(result.values)
                value = result.values[0] if len(values) == 1 else -1
                seen.add((result.block_id, value, result.src_cnt,
                          result.degraded))
            ok = len(seen) == 1 and None not in seen
            if ok:
                block_id, value, src_cnt, degraded = next(iter(seen))
                ok = (block_id == block and value > 0
                      and value & ~full_mask == 0
                      and bin(value).count("1") == src_cnt
                      and degraded == (src_cnt < self.workers))
                if ok:
                    partial += degraded
                    full += not degraded
            failed += not ok
            lines.append(f"{block} {sorted(seen, key=repr)}")
        for worker in testbed.workers:
            for key in sorted(worker.result_times):
                lines.append(f"{worker.name} {key} "
                             f"{worker.result_times[key].hex()}")
        counters = _trio_counters(testbed)
        counters.update(_trioml_counters(testbed))
        counters["trioml.results_full"] = full
        counters["trioml.results_partial"] = partial
        counters["sim.ops"] = self.size
        return Outcome(attempted=self.size, failed=failed,
                       digest=_digest(lines), counters=counters)


def _trio_counters(testbed: Any) -> Dict[str, float]:
    """The Trio models' public counters after one run."""
    router = testbed.router
    sim_s = testbed.env.now
    pfes = [pfe for pfe in router.pfes.values() if pfe.packets_in]
    ppes = [ppe for pfe in pfes for ppe in pfe.ppes]
    hits = sum(pfe.memory.dram_cache_hits for pfe in pfes)
    misses = sum(pfe.memory.dram_cache_misses for pfe in pfes)
    return {
        "trio.pfe_packets_in": sum(pfe.packets_in for pfe in pfes),
        "trio.ppe_threads": sum(ppe.threads_spawned for ppe in ppes),
        "trio.ppe_instructions": sum(ppe.instructions_executed
                                     for ppe in ppes),
        "trio.ppe_busy_frac": (sum(ppe.busy_s for ppe in ppes)
                               / (len(ppes) * sim_s) if ppes else 0.0),
        "trio.hash_ops": sum(pfe.hash_table.lookups + pfe.hash_table.inserts
                             + pfe.hash_table.deletes for pfe in pfes),
        "trio.rmw_ops": sum(pfe.memory.rmw.total_ops for pfe in pfes),
        "trio.memory_hit_ratio": (hits / (hits + misses)
                                  if hits + misses else 0.0),
        "trio.xtxn_count": sum(pfe.crossbar.xtxn_count for pfe in pfes),
        "trio.fabric_packets": router.fabric.packets,
        "trio.reorder_held_max": max((pfe.reorder.held_max for pfe in pfes),
                                     default=0),
    }


def _trioml_counters(testbed: Any) -> Dict[str, float]:
    """Aggregation and mitigation counters, and simulated latencies."""
    aggregators = testbed.handle.aggregators.values()
    detectors = testbed.handle.detectors.values()
    mitigated = sum(len(d.mitigations) for d in detectors)
    scanned = sum(d.records_scanned for d in detectors)
    latencies_us = sorted(
        (worker.result_times[key] - sent) * 1e6
        for worker in testbed.workers
        for key, sent in worker.send_times.items()
        if key in worker.result_times)

    def pct(q: float) -> float:
        if not latencies_us:
            return 0.0
        return latencies_us[min(len(latencies_us) - 1,
                                int(q * len(latencies_us)))]

    return {
        "trioml.packets_aggregated": sum(a.packets_aggregated
                                         for a in aggregators),
        "trioml.blocks_mitigated": mitigated,
        "trioml.records_scanned": scanned,
        "trioml.scan_useful_ratio": mitigated / scanned if scanned else 0.0,
        "trioml.agg_latency_us_p50": pct(0.50),
        "trioml.agg_latency_us_p99": pct(0.99),
    }


class DdosChain(Workload):
    """The ddos family's packet stream through every legal placement of
    ``firewall -> telemetry -> aggregate``.

    Every placement must produce the same result fingerprint (NF
    semantics are placement-independent), and every packet must carry
    exactly one verdict.  An operation is one packet through one
    placement.
    """

    name = "ddos-chain"
    default_size = 2048
    chain = "firewall -> telemetry -> aggregate"

    def setup(self) -> None:
        from repro.nf import compile_chain, enumerate_placements
        from repro.nf import exec as nf_exec
        from repro.traffic import adapters, get_scenario

        self._adapters = adapters
        self._exec = nf_exec
        self.scenario = get_scenario("ddos")
        self.compiled = compile_chain(self.chain)
        self.placements = enumerate_placements(self.compiled)
        super().setup()

    def run(self) -> Any:
        trace = self._adapters.packet_stream(self.scenario, self.size)
        compiled = self.compiled
        return [
            self._exec.run_chain(compiled.spec, compiled.nfs,
                                 option.placement, trace,
                                 per_packet_s=option.per_packet_s)
            for option in self.placements
        ]

    def check(self, output: Any) -> Outcome:
        prints = [result.fingerprint() for result in output]
        majority = max(sorted(set(prints)), key=prints.count)
        failed = 0
        for result, fingerprint in zip(output, prints):
            if fingerprint != majority:
                failed += self.size
                continue
            verdicts = sum(sum(tally)
                           for tally in result.flow_verdicts.values())
            failed += min(self.size, abs(verdicts - self.size)
                          + abs(result.packets - self.size))
        first = output[0]
        dropped = sum(tally[1] for tally in first.flow_verdicts.values())
        return Outcome(
            attempted=self.size * len(output),
            failed=failed,
            digest=_digest([self.name, str(self.size),
                            self.subseed(self.current), majority]),
            counters={
                "nf.placements": len(output),
                "nf.packets_dropped": dropped,
                "nf.packets_blocked": first.nf_counters["firewall"].get(
                    "packets_blocked", 0),
                "sim.ops": self.size * len(output),
            },
        )


WORKLOADS = {cls.name: cls for cls in (CacheFluid, IncastFluid,
                                       AllreduceStraggler, DdosChain)}
