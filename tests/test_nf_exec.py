"""The chain executor against a plain per-packet reference loop.

:func:`run_chain` binds each stage once per run and groups NF slots by
epoch cadence.  :func:`reference_run_chain` below is the straightforward
loop it replaced (one modulo per NF per packet, a ``setdefault`` tally);
it lives here only as an oracle.  Every case must match it exactly:
per-flow verdicts (including first-seen order), counters, exports, and
the fingerprint.
"""

import dataclasses
from typing import Dict, List

import pytest

from repro.harness.experiments import DEFAULT_CHAIN
from repro.nf import (
    AggregateNF,
    FirewallNF,
    NF,
    NFState,
    TelemetryNF,
    VERDICT_CONSUME,
    VERDICT_DROP,
    VERDICT_FORWARD,
    compile_chain,
    generate_trace,
    run_chain,
)
from repro.nf.exec import ChainRunResult
from repro.traffic import get_scenario, packet_stream


def reference_run_chain(spec, nfs, placement, trace):
    """The executor as a direct transcription of its contract."""
    states = [NFState() for __ in nfs]
    flow_verdicts: Dict[tuple, List[int]] = {}
    epochs_done = [0] * len(nfs)
    for pkt in trace:
        verdict = VERDICT_FORWARD
        for nf, state in zip(nfs, states):
            verdict = nf.process(state, pkt)
            if verdict != VERDICT_FORWARD:
                break
        tally = flow_verdicts.setdefault(pkt.flow, [0, 0, 0])
        if verdict == VERDICT_FORWARD:
            tally[0] += 1
        elif verdict == VERDICT_DROP:
            tally[1] += 1
        elif verdict == VERDICT_CONSUME:
            tally[2] += 1
        else:
            raise ValueError(f"NF returned unknown verdict {verdict!r}")
        tick = pkt.index + 1
        for slot, (nf, state) in enumerate(zip(nfs, states)):
            if tick % nf.epoch_packets == 0:
                nf.on_epoch(state, epochs_done[slot])
                epochs_done[slot] += 1
    return ChainRunResult(
        spec=spec,
        placement=tuple(placement),
        packets=len(trace),
        flow_verdicts={flow: tuple(t) for flow, t in flow_verdicts.items()},
        nf_counters={nf.name: nf.counters(s) for nf, s in zip(nfs, states)},
        nf_exports={nf.name: nf.exports(s) for nf, s in zip(nfs, states)},
        per_packet_s=0.0,
    )


def _both(nfs_factory, trace, spec="chain"):
    """Run the executor and the reference on fresh NF instances each."""
    nfs = nfs_factory()
    placement = ("host",) * len(nfs)
    got = run_chain(spec, nfs, placement, trace)
    want = reference_run_chain(spec, nfs_factory(), placement, trace)
    return got, want


def _assert_identical(got, want):
    assert list(got.flow_verdicts.items()) == list(want.flow_verdicts.items())
    assert got.nf_counters == want.nf_counters
    assert got.nf_exports == want.nf_exports
    assert got.packets == want.packets
    assert got.fingerprint() == want.fingerprint()


def _default_nfs():
    return list(compile_chain(DEFAULT_CHAIN).nfs)


def _mixed_cadence_nfs():
    return [
        FirewallNF(allowed_packets_per_epoch=2, epoch_packets=7),
        TelemetryNF(heavy_hitter_packets_per_epoch=4, epoch_packets=64),
        AggregateNF(epoch_packets=256),
    ]


#: Fingerprints recorded with the ``NFState.count``-based handlers.  The
#: inline counter bumps must reproduce them bit for bit.
GOLDEN = {
    "default": "18fff3360aaf8c9337995afe2ac3b055"
               "6b44eccfc568a0ed57acef158602a8b8",
    "ddos": "886c9f88f78889346fe2d2ceacc6b2eb"
            "cb9e00fa0f4cf4fa3b5d10aed1658b1e",
}


@pytest.fixture(scope="module")
def trace():
    return generate_trace(2048, seed=3)


class TestMatchesReference:
    def test_default_chain(self, trace):
        got, want = _both(_default_nfs, trace, spec=DEFAULT_CHAIN)
        _assert_identical(got, want)
        assert got.fingerprint() == GOLDEN["default"]

    def test_ddos_packet_stream(self):
        stream = packet_stream(get_scenario("ddos"), 2048)
        got, want = _both(_default_nfs, stream, spec=DEFAULT_CHAIN)
        _assert_identical(got, want)
        assert got.fingerprint() == GOLDEN["ddos"]
        assert got.nf_counters["firewall"]["packets_blocked"] > 0

    def test_mixed_cadences(self, trace):
        got, want = _both(_mixed_cadence_nfs, trace)
        _assert_identical(got, want)
        counters = got.nf_counters
        assert counters["firewall"]["sources_blocked"] > 0
        assert counters["telemetry"]["reports_exported"] > 0
        assert counters["aggregate"]["blocks_completed"] > 0

    def test_gapped_and_unordered_indices(self, trace):
        # Indices skip ahead and sometimes step back: epochs fire on
        # whatever ticks the trace carries.
        gapped = tuple(
            dataclasses.replace(pkt, index=pkt.index * 3 + pkt.index % 5)
            for pkt in trace
        )
        for factory in (_default_nfs, _mixed_cadence_nfs):
            got, want = _both(factory, gapped)
            _assert_identical(got, want)

    def test_no_zero_valued_counter_keys(self, trace):
        for factory in (_default_nfs, _mixed_cadence_nfs):
            got, __ = _both(factory, trace)
            for name, counters in got.nf_counters.items():
                assert counters, name
                assert all(value > 0 for value in counters.values()), name


class _EpochLog(NF):
    """Forwards everything and logs each epoch it sees."""

    def __init__(self, name: str, epoch_packets: int, log: list) -> None:
        self.name = name
        self.epoch_packets = epoch_packets
        self.log = log

    def process(self, state, pkt):
        return VERDICT_FORWARD

    def on_epoch(self, state, epoch_index):
        self.log.append((self.name, epoch_index))


class TestEpochOrder:
    def test_coinciding_cadences_fire_in_slot_order(self, trace):
        logs: Dict[str, list] = {"got": [], "want": []}

        def chain(log):
            return [_EpochLog("a", 4, log), _EpochLog("b", 2, log),
                    _EpochLog("c", 4, log), _EpochLog("d", 3, log)]

        placement = ("host",) * 4
        run_chain("log", chain(logs["got"]), placement, trace[:12])
        reference_run_chain("log", chain(logs["want"]), placement,
                            trace[:12])
        assert logs["got"] == logs["want"]
        # The last tick, 12, is a multiple of every cadence: all four
        # fire, in slot order.
        assert logs["got"][-4:] == [("a", 2), ("b", 5), ("c", 2), ("d", 3)]


class _Bogus(NF):
    name = "bogus"

    def process(self, state, pkt):
        return "mangle"


def test_unknown_verdict_raises(trace):
    with pytest.raises(ValueError, match="unknown verdict 'mangle'"):
        run_chain("bogus", [_Bogus()], ("host",), trace[:4])
