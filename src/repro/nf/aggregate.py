"""The aggregation NF: the Trio-ML data path behind the NF interface.

:class:`AggregateNF` wraps the §4 aggregation workflow for the chain
compiler: packets destined to the aggregation port contribute one value
(their first payload word — the gradient proxy) to their group's
accumulator, every ``window`` contributions complete a block whose
aggregated Result travels onward, and blocks that stall for a full
epoch are flushed *degraded* — the timer-thread straggler mitigation of
§5 in packet-count time.

State and cost stay anchored to the real Trio-ML implementation:
resources are declared by
:meth:`repro.trioml.aggregator.TrioMLAggregator.nf_state_resources`,
the Trio parse front-end is the actual ``trio_ml_parse`` Microcode
program, and the per-packet instruction charge reuses the aggregator's
§6.3 constants (≈1.2 instructions per gradient plus the completion
check).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Tuple

from repro.nf.base import (
    NF,
    NFState,
    PacketView,
    StateSpec,
    VERDICT_CONSUME,
    VERDICT_FORWARD,
)
from repro.trioml.aggregator import (
    INSTRUCTIONS_PER_GRADIENT,
    TrioMLAggregator,
)
from repro.trioml.protocol import TRIO_ML_UDP_PORT

__all__ = ["AggregateNF"]


@dataclass
class _GroupEntry:
    """Semantic per-group block state (one in-flight block per group)."""

    acc: int = 0
    count: int = 0
    seq: int = 0
    #: ``count`` at the previous epoch, for straggler detection.
    last_count: int = 0


class AggregateNF(NF):
    """Backend-independent in-network aggregation in packet time."""

    name = "aggregate"
    microcode_program = "trio_ml_parse"
    #: Software aggregation on a host worker (the Figure 13 baseline:
    #: end-host reduction is the slowest of the three options).
    host_ns_per_packet = 400.0

    def __init__(
        self,
        window: int = 16,
        max_groups: int = 64,
        grads_per_packet: int = 16,
        agg_port: int = TRIO_ML_UDP_PORT,
        straggler_threads: int = 2,
        epoch_packets: int = 256,
    ) -> None:
        """``window`` contributions complete one block per group;
        ``grads_per_packet`` sizes the aggregation buffers and the
        per-packet instruction charge (16 = one 64-byte tail chunk)."""
        if window < 1:
            raise ValueError(f"window must be >= 1 packets: {window}")
        if grads_per_packet < 1:
            raise ValueError(
                f"grads per packet must be >= 1: {grads_per_packet}"
            )
        if epoch_packets < 1:
            raise ValueError(f"epoch must be >= 1 packets: {epoch_packets}")
        self.window = window
        self.max_groups = max_groups
        self.grads_per_packet = grads_per_packet
        self.agg_port = agg_port
        self.straggler_threads = straggler_threads
        self.epoch_packets = epoch_packets
        # §6.3 charge: ≈1.2 instructions per aggregated gradient plus the
        # block-completion check, beyond the trio_ml_parse front-end.
        self.trio_body_instructions = (
            math.ceil(grads_per_packet * INSTRUCTIONS_PER_GRADIENT)
            + TrioMLAggregator.COMPLETE_CHECK_INSTRUCTIONS
        )

    # -- declarations ---------------------------------------------------

    def state_resources(self) -> Tuple[StateSpec, ...]:
        return TrioMLAggregator.nf_state_resources(
            max_blocks=self.max_groups,
            grads_per_block=self.grads_per_packet,
            timer_threads=self.straggler_threads,
        )

    def trio_state_ops_per_packet(self) -> Tuple[int, int]:
        # Block lookup, then one bulk RMW add into the aggregation buffer
        # and one RMW increment of the received count.
        return 1, 2

    # -- semantics ------------------------------------------------------

    def process(self, state: NFState, pkt: PacketView) -> str:
        # NFState.count inlined on the plain dict: this runs per packet.
        counters = state.counters
        counters["packets_total"] = counters.get("packets_total", 0) + 1
        flow = pkt.flow
        if flow[3] != self.agg_port:
            # Not an aggregation packet: standard forwarding path.
            counters["packets_passthrough"] = (
                counters.get("packets_passthrough", 0) + 1)
            return VERDICT_FORWARD
        group = flow[1]
        table = state.table
        entry = table.get(group)
        if entry is None:
            if len(table) >= self.max_groups:
                counters["packets_no_group"] = (
                    counters.get("packets_no_group", 0) + 1)
                return VERDICT_FORWARD
            entry = table[group] = _GroupEntry()
        entry.acc = (entry.acc + pkt.payload_word) & 0xFFFFFFFF
        entry.count += 1
        counters["packets_aggregated"] = (
            counters.get("packets_aggregated", 0) + 1)
        if entry.count >= self.window:
            # Block complete: the Result packet departs in this packet's
            # place, so the verdict is forward.
            state.exports.append(
                ("agg", group, entry.seq, entry.count, entry.acc)
            )
            counters["blocks_completed"] = (
                counters.get("blocks_completed", 0) + 1)
            entry.seq += 1
            entry.acc = 0
            entry.count = 0
            entry.last_count = 0
            return VERDICT_FORWARD
        return VERDICT_CONSUME

    def on_epoch(self, state: NFState, epoch_index: int) -> None:
        # Straggler timeout (§5, in packet time): a block that received
        # nothing for a full epoch is flushed degraded rather than held
        # open forever.
        for group, entry in list(state.table.items()):
            if entry.count > 0 and entry.count == entry.last_count:
                state.exports.append(
                    ("agg-degraded", group, entry.seq, entry.count, entry.acc)
                )
                state.count("blocks_degraded")
                entry.seq += 1
                entry.acc = 0
                entry.count = 0
            entry.last_count = entry.count
