"""The fluid level's fabric and its one runner.

One fabric shape (a leaf/spine Clos, the topology of the paper's
testbed rack writ small) carries every fluid run: the traffic
scenarios of :mod:`repro.traffic`, the calibration bridge, and the
tests.  :func:`run_flows` is the one place a run is assembled — fresh
reference caches, the fabric, the escalation policy, the engine, the
flows scheduled at their start times — so a run is a pure function of
``(fabric, flows, escalation, seed)`` in any process layout.

Workloads live in :mod:`repro.traffic`; this module never imports it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.flowsim.engine import FluidEngine
from repro.flowsim.escalate import (
    EscalationConfig,
    EscalationPolicy,
    reset_reference_caches,
)
from repro.flowsim.flow import FlowRecord, FlowSpec
from repro.net import IPv4Address, MACAddress, Topology
from repro.net.host import Host
from repro.net.link import Port
from repro.sim import Environment

__all__ = [
    "FabricShape",
    "FluidRunResult",
    "build_leaf_spine",
    "host_name",
    "run_flows",
]


def host_name(leaf: int, index: int) -> str:
    return f"h{leaf:02d}-{index:02d}"


@dataclass(frozen=True)
class FabricShape:
    """A single-spine leaf/spine fabric; hosts are ``h<leaf>-<index>``."""

    leaves: int = 4
    hosts_per_leaf: int = 16
    host_bandwidth_bps: float = 100e9
    #: Leaf->spine uplink speed; at the default 800G a leaf of sixteen
    #: 100G hosts is 2:1 oversubscribed, so uplinks genuinely contend
    #: while the system stays stable — offered load must remain below
    #: every bottleneck or the active-flow set grows without bound.
    uplink_bandwidth_bps: float = 800e9
    propagation_s: float = 1e-6

    def __post_init__(self) -> None:
        if self.leaves < 1 or self.hosts_per_leaf < 1:
            raise ValueError(
                f"fabric needs >= 1 leaf and host: {self.leaves}, "
                f"{self.hosts_per_leaf}"
            )

    @property
    def num_hosts(self) -> int:
        return self.leaves * self.hosts_per_leaf

    @property
    def aggregate_access_bps(self) -> float:
        return self.num_hosts * self.host_bandwidth_bps

    def host_names(self) -> List[str]:
        return [host_name(leaf, index)
                for leaf in range(self.leaves)
                for index in range(self.hosts_per_leaf)]

    def host_address(self, host_index: int) -> Tuple[int, int]:
        """(leaf, index-within-leaf) of a flat host index."""
        return divmod(host_index, self.hosts_per_leaf)


def build_leaf_spine(env: Environment, fabric: FabricShape) -> Topology:
    """A single-spine leaf/spine Clos with oversubscribed uplinks."""
    topology = Topology(env)
    for leaf in range(fabric.leaves):
        for index in range(fabric.hosts_per_leaf):
            host = Host(
                env,
                host_name(leaf, index),
                MACAddress(0x0200_0000 + leaf * 256 + index),
                IPv4Address(f"10.{leaf}.0.{index + 1}"),
            )
            topology.add_host(host)
            down = Port(env, f"leaf{leaf}:down{index}")
            topology.register_port(down, f"leaf{leaf}")
            topology.connect(
                host.nic.port, down,
                bandwidth_bps=fabric.host_bandwidth_bps,
                propagation_delay_s=fabric.propagation_s,
            )
        up = Port(env, f"leaf{leaf}:up")
        topology.register_port(up, f"leaf{leaf}")
        spine_port = Port(env, f"spine:leaf{leaf}")
        topology.register_port(spine_port, "spine")
        topology.add_device(f"leaf{leaf}", up)
        topology.connect(
            up, spine_port,
            bandwidth_bps=fabric.uplink_bandwidth_bps,
            propagation_delay_s=fabric.propagation_s,
        )
    topology.add_device("spine", None)
    return topology


@dataclass
class FluidRunResult:
    """Outcome of one fluid-level run."""

    #: Name of the scenario the flows came from ("" for explicit flows).
    scenario: str
    records: List[FlowRecord]
    summary: Dict[str, float]
    escalations: Dict[str, int]
    #: Simulated time at which the last flow finished (seconds).
    sim_seconds: float
    #: Payload bytes carried to completion across all flows.
    simulated_payload_bytes: float
    solves: int
    #: Events actually pushed onto the simulator heap.  The engine
    #: keeps a single live completion wake-up (reusing or cancelling
    #: the pending one instead of abandoning epoch-stale events on the
    #: heap), so this stays near-linear in flows; the flowsim bench
    #: asserts the bound.
    scheduled_events: int
    #: Wake-up accounting: scheduled / cancelled / reused / stale.
    wake: Dict[str, int]


def run_flows(fabric: FabricShape,
              flows: Callable[[Environment], Iterable[FlowSpec]],
              escalation: Optional[EscalationConfig] = None,
              scenario: str = "") -> FluidRunResult:
    """Build the fabric, inject ``flows(env)``, run to completion.

    ``flows`` receives the run's :class:`Environment` (built from the
    process default seed) so a seeded workload draws from its seed tree.
    """
    # Fresh reference caches per run: identical cost and side effects
    # whether this run is serial, in a worker, or after another.
    reset_reference_caches()
    env = Environment()
    topology = build_leaf_spine(env, fabric)
    engine = FluidEngine(env, topology,
                         policy=EscalationPolicy(escalation))
    for spec in flows(env):
        env.call_at(spec.start_s, engine.start_flow, spec)
    env.run()
    return FluidRunResult(
        scenario=scenario,
        records=engine.records,
        summary=engine.summary(),
        escalations=engine.escalations,
        sim_seconds=env.now,
        simulated_payload_bytes=engine.completed_payload_bytes,
        solves=engine.solves,
        scheduled_events=env.scheduled_events,
        wake={
            "scheduled": engine.wake_scheduled,
            "cancelled": engine.wake_cancelled,
            "reused": engine.wake_reused,
            "stale": engine.wake_stale,
        },
    )
