"""Compile a traffic scenario into either simulation level.

:func:`run_fluid` drives a scenario end-to-end through the hybrid
fluid engine (:mod:`repro.flowsim`) on the scenario's own leaf/spine
fabric, with the escalation boundary active — including the
``"microburst"`` and ``"ddos"`` classes the traffic library adds.

:func:`packet_stream` compiles the *same* scenario into wire-format
packets parsed into :class:`~repro.nf.base.PacketView`\\ s for the
NF-chain executor: flows become deterministic per-flow packet trains,
and ``"ddos"`` flows are mapped onto a small spoofed source-IP pool on
``dst_port`` 443 so the firewall NF's per-source policers see the
flood the flow level only models as fan-in.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.flowsim.engine import FluidEngine
from repro.flowsim.escalate import EscalationPolicy, reset_reference_caches
from repro.flowsim.flow import (
    DEFAULT_MTU_PAYLOAD_BYTES,
    FlowRecord,
    FlowSpec,
)
from repro.flowsim.scenario import ScenarioConfig, build_leaf_spine
from repro.net import IPv4Address, MACAddress
from repro.net.packet import Packet
from repro.nf.base import PacketView
from repro.nf.exec import packet_view
from repro.sim import Environment
from repro.traffic.base import TrafficScenario
from repro.traffic.scenarios import DDoSScenario

__all__ = [
    "FluidRunResult",
    "packet_stream",
    "run_fluid",
]


@dataclass
class FluidRunResult:
    """Outcome of one fluid-level scenario run."""

    scenario: str
    records: List[FlowRecord]
    summary: Dict[str, float]
    escalations: Dict[str, int]
    sim_seconds: float
    simulated_payload_bytes: float
    solves: int


def run_fluid(scenario: TrafficScenario,
              num_flows: int) -> FluidRunResult:
    """Run ``num_flows`` of ``scenario`` through the fluid engine.

    The same shape as :func:`repro.flowsim.scenario.run_scenario`:
    fresh reference caches, an Environment built from the process
    default seed, the scenario's fabric, and the scenario's escalation
    thresholds — a pure function of ``(scenario, num_flows, seed)`` in
    any process layout.
    """
    if num_flows < 1:
        raise ValueError(f"run needs >= 1 flows: {num_flows}")
    reset_reference_caches()
    env = Environment()
    fabric = scenario.fabric
    topology = build_leaf_spine(env, ScenarioConfig(
        leaves=fabric.leaves,
        hosts_per_leaf=fabric.hosts_per_leaf,
        host_bandwidth_bps=fabric.host_bandwidth_bps,
        uplink_bandwidth_bps=fabric.uplink_bandwidth_bps,
        propagation_s=fabric.propagation_s,
    ))
    policy = EscalationPolicy(scenario.escalation())
    engine = FluidEngine(env, topology, policy=policy)
    for spec in scenario.generate(env, num_flows):
        env.call_at(spec.start_s, engine.start_flow, spec)
    env.run()
    return FluidRunResult(
        scenario=scenario.name,
        records=engine.records,
        summary=engine.summary(),
        escalations=engine.escalations,
        sim_seconds=env.now,
        simulated_payload_bytes=engine.completed_payload_bytes,
        solves=engine.solves,
    )


_SRC_MAC = MACAddress(0x02_00_00_00_00_01)
_DST_MAC = MACAddress(0x02_00_00_00_00_02)
_PAYLOAD = bytes(64)


def _fabric_ips(scenario: TrafficScenario) -> Dict[str, IPv4Address]:
    """The address :func:`build_leaf_spine` gives each fabric host."""
    fabric = scenario.fabric
    addresses: Dict[str, IPv4Address] = {}
    for host_index, host in enumerate(fabric.host_names()):
        leaf, index = fabric.host_address(host_index)
        addresses[host] = IPv4Address(f"10.{leaf}.0.{index + 1}")
    return addresses


def packet_stream(
    scenario: TrafficScenario,
    num_packets: int,
    num_flows: int = 0,
    max_packets_per_flow: int = 8,
) -> Tuple[PacketView, ...]:
    """The first ``num_packets`` wire packets of a scenario run.

    Each generated flow becomes a train of up to
    ``max_packets_per_flow`` MTU-paced packets starting at the flow's
    start time; trains from concurrent flows interleave in global time
    order, which is what exercises per-epoch NF state (policer budgets,
    heavy-hitter tables) the way real traffic does.  ``num_flows``
    defaults to ``num_packets`` — every flow contributes at least one
    packet, so the stream is always long enough.

    Deterministic end to end: the flow list comes from the scenario's
    seed-tree stream and the flow-to-packet expansion draws no
    randomness at all.
    """
    if num_packets < 1:
        raise ValueError(f"stream needs >= 1 packets: {num_packets}")
    if num_flows < 1:
        num_flows = num_packets
    env = Environment()
    flows = scenario.generate(env, num_flows)
    ip_of = _fabric_ips(scenario)
    spacing_s = (DEFAULT_MTU_PAYLOAD_BYTES * 8.0
                 / scenario.fabric.host_bandwidth_bps)
    spoofed = (scenario.spoofed_sources
               if isinstance(scenario, DDoSScenario) else 0)

    events: List[Tuple[float, int, int]] = []
    for seq, flow in enumerate(flows):
        train = min(
            max_packets_per_flow,
            max(1, math.ceil(flow.size_bytes / DEFAULT_MTU_PAYLOAD_BYTES)),
        )
        for k in range(train):
            events.append((flow.start_s + k * spacing_s, seq, k))
    events.sort()

    views: List[PacketView] = []
    attack_seq: Dict[int, int] = {}
    spoof_ips: Dict[int, IPv4Address] = {}
    # Frames repeat heavily (every packet of a train, and flood flows
    # sharing the spoofed pool), so each distinct frame is built and
    # parsed once per call and later packets reuse its parse under
    # their own index.  Invariant: the key must cover every input of
    # the frame.  The MACs and the payload are constants here; a new
    # per-packet input must join the key.
    parsed: Dict[Tuple[IPv4Address, IPv4Address, int, int], PacketView] = {}
    for index, (_, seq, _k) in enumerate(events[:num_packets]):
        flow = flows[seq]
        if flow.service == "ddos" and spoofed > 0:
            # One spoofed source IP per flood flow, cycling a small
            # pool: the per-source packet counts the firewall polices
            # concentrate on `spoofed` addresses however many flood
            # flows the scenario launched.
            spoof = attack_seq.setdefault(seq, len(attack_seq))
            pool = spoof % spoofed
            src_ip = spoof_ips.get(pool)
            if src_ip is None:
                src_ip = spoof_ips[pool] = IPv4Address(
                    f"10.99.{pool // 200}.{pool % 200 + 1}")
            src_port = 3000 + spoof % 64
            dst_port = 443
        else:
            src_ip = ip_of[flow.src]
            src_port = 1024 + flow.flow_id % 60_000
            dst_port = 2000 + flow.flow_id % 16
        dst_ip = ip_of[flow.dst]
        key = (src_ip, dst_ip, src_port, dst_port)
        first = parsed.get(key)
        if first is None:
            packet = Packet.udp(
                src_mac=_SRC_MAC,
                dst_mac=_DST_MAC,
                src_ip=src_ip,
                dst_ip=dst_ip,
                src_port=src_port,
                dst_port=dst_port,
                payload=_PAYLOAD,
            )
            view = parsed[key] = packet_view(index, packet)
        else:
            view = PacketView(index, first.flow, first.length,
                              first.payload_len, first.payload_word)
        views.append(view)
    return tuple(views)
