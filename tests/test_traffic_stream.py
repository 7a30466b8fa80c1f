"""Equivalence tests for :func:`repro.traffic.adapters.packet_stream`.

``packet_stream`` builds and parses each distinct wire frame once per
call and hands later packets with the same frame a view that reuses the
first parse.  :func:`_reference_packet_stream` below is the loop it
replaced, which builds and parses every packet's frame; the two must
return equal streams for every scenario, size and seed.
"""

import math
from typing import Dict, List

import pytest

from repro.flowsim.flow import DEFAULT_MTU_PAYLOAD_BYTES
from repro.net import IPv4Address, MACAddress
from repro.net.packet import Packet
from repro.nf.exec import packet_view
from repro.sim import Environment, default_seed, set_default_seed
from repro.traffic import adapters, available_scenarios, get_scenario
from repro.traffic.scenarios import DDoSScenario

SEEDS = (None, 1, 9973)


def _reference_packet_stream(scenario, num_packets, num_flows=0,
                             max_packets_per_flow=8):
    """Build and parse one frame per packet, with no reuse."""
    if num_flows < 1:
        num_flows = num_packets
    flows = scenario.generate(Environment(), num_flows)
    fabric = scenario.fabric
    ip_of = {}
    for host_index, host in enumerate(fabric.host_names()):
        leaf, index = fabric.host_address(host_index)
        ip_of[host] = IPv4Address(f"10.{leaf}.0.{index + 1}")
    spacing_s = DEFAULT_MTU_PAYLOAD_BYTES * 8.0 / fabric.host_bandwidth_bps
    spoofed = (scenario.spoofed_sources
               if isinstance(scenario, DDoSScenario) else 0)
    events = []
    for seq, flow in enumerate(flows):
        train = min(
            max_packets_per_flow,
            max(1, math.ceil(flow.size_bytes / DEFAULT_MTU_PAYLOAD_BYTES)),
        )
        for k in range(train):
            events.append((flow.start_s + k * spacing_s, seq, k))
    events.sort()

    src_mac = MACAddress(0x02_00_00_00_00_01)
    dst_mac = MACAddress(0x02_00_00_00_00_02)
    views = []
    attack_seq: Dict[int, int] = {}
    for index, (_, seq, _k) in enumerate(events[:num_packets]):
        flow = flows[seq]
        if flow.service == "ddos" and spoofed > 0:
            spoof = attack_seq.setdefault(seq, len(attack_seq))
            pool = spoof % spoofed
            packet = Packet.udp(
                src_mac=src_mac, dst_mac=dst_mac,
                src_ip=IPv4Address(f"10.99.{pool // 200}.{pool % 200 + 1}"),
                dst_ip=ip_of[flow.dst],
                src_port=3000 + spoof % 64, dst_port=443,
                payload=bytes(64),
            )
        else:
            packet = Packet.udp(
                src_mac=src_mac, dst_mac=dst_mac,
                src_ip=ip_of[flow.src], dst_ip=ip_of[flow.dst],
                src_port=1024 + flow.flow_id % 60_000,
                dst_port=2000 + flow.flow_id % 16,
                payload=bytes(64),
            )
        views.append(packet_view(index, packet))
    return tuple(views)


@pytest.fixture
def restore_seed():
    saved = default_seed()
    yield
    set_default_seed(saved)


@pytest.mark.parametrize("name", available_scenarios())
def test_stream_equals_reference(name, restore_seed):
    cases: List[dict] = [
        {"num_packets": size} for size in (1, 512, 2048, 4096)
    ] + [
        {"num_packets": 10_000, "num_flows": 256,
         "max_packets_per_flow": per_flow}
        for per_flow in (4, 32)
    ]
    for seed in SEEDS:
        set_default_seed(seed)
        for case in cases:
            scenario = get_scenario(name)
            got = adapters.packet_stream(scenario, **case)
            assert got == _reference_packet_stream(scenario, **case), (
                seed, case)


def test_each_distinct_frame_parsed_once(monkeypatch):
    calls = []
    parse = adapters.packet_view

    def counting(index, packet):
        calls.append(index)
        return parse(index, packet)

    monkeypatch.setattr(adapters, "packet_view", counting)
    stream = adapters.packet_stream(get_scenario("ddos"), 2048)
    distinct = {view.flow for view in stream}
    assert len(calls) == len(distinct) < len(stream)
    # The parse each frame got is its first packet's.
    first: Dict[tuple, int] = {}
    for view in stream:
        first.setdefault(view.flow, view.index)
    assert calls == sorted(first.values())
    assert [view.index for view in stream] == list(range(len(stream)))
