"""The interconnection fabric between PFEs (§2.1).

Larger routers connect multiple PFEs through an any-to-any fabric that
"expands the bandwidth of a device much farther than a single chip could
support".  We model each directed PFE pair as an independent channel with
a serialisation rate and fixed transit latency, preserving per-pair
ordering (cells of one packet stay together at this abstraction level).
Like a :class:`~repro.net.link.Link` direction, each channel is a
virtual-time FIFO with one scheduled delivery per packet.
"""

from __future__ import annotations

from typing import Callable, Dict, Tuple

from repro.net.packet import Packet
from repro.sim import Environment

__all__ = ["Fabric"]


class Fabric:
    """Any-to-any interconnect between named PFEs."""

    def __init__(
        self,
        env: Environment,
        bandwidth_bps: float = 400e9,
        latency_s: float = 500e-9,
    ):
        if bandwidth_bps <= 0:
            raise ValueError(f"fabric bandwidth must be positive: {bandwidth_bps}")
        self.env = env
        self.bandwidth_bps = float(bandwidth_bps)
        self.latency_s = float(latency_s)
        #: (src, dst) -> when the channel's last packet finishes serialising.
        self._busy_until: Dict[Tuple[str, str], float] = {}
        self._sinks: Dict[str, Callable[[Packet], None]] = {}
        self.packets = 0
        self.bytes = 0

    def attach(self, pfe_name: str, sink: Callable[[Packet], None]) -> None:
        """Register the delivery callback for one PFE."""
        self._sinks[pfe_name] = sink

    def send(self, src: str, dst: str, packet: Packet) -> None:
        """Serialise ``packet`` on the (src, dst) channel, then deliver it
        one fabric latency later."""
        sink = self._sinks.get(dst)
        if sink is None:
            raise KeyError(f"no PFE named {dst!r} attached to the fabric")
        self.packets += 1
        self.bytes += len(packet)
        env = self.env
        now = env._now
        key = (src, dst)
        start = self._busy_until.get(key, now)
        if now > start:
            start = now
        self._busy_until[key] = done = (
            start + packet.bits / self.bandwidth_bps
        )
        # Fabric latency elapses in parallel with the next packet's
        # serialisation: one scheduled delivery per packet.
        env.call_at(done + self.latency_s, sink, packet)
