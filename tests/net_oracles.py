"""Reference serialisers for the virtual-time link and fabric.

These are the process-based models :class:`repro.net.Link` and
:class:`repro.trio.fabric.Fabric` used before each direction or channel
became a virtual-time FIFO: one :class:`~repro.sim.Store` and one
serialiser process per direction or channel, which waits for the next
frame, then for its serialisation delay, draws its loss, and schedules
its delivery.  The tests check the virtual-time models against them.
"""

from __future__ import annotations

from repro.net.link import Link, Port
from repro.net.packet import Packet
from repro.sim import Environment, Store
from repro.trio.fabric import Fabric


class ReferenceLink(Link):
    """A :class:`Link` whose directions are Store-fed serialiser processes."""

    def __init__(self, env: Environment, a: Port, b: Port, **kwargs):
        super().__init__(env, a, b, **kwargs)
        self._queues = {a: Store(env), b: Store(env)}
        env.process(self._serialise(a, b), name=f"link:{a.name}->{b.name}")
        env.process(self._serialise(b, a), name=f"link:{b.name}->{a.name}")

    def transmit(self, src: Port, packet: Packet) -> None:
        self._queues[src].put_nowait(packet)

    def _serialise(self, src: Port, dst: Port):
        queue = self._queues[src]
        while True:
            packet = yield queue.get()
            yield self.env.delay(packet.bits / self.bandwidth_bps)
            if self.loss_rate and self._loss_rng.random() < self.loss_rate:
                self.frames_lost += 1
                continue
            self.env.call_later(self.propagation_delay_s, dst.deliver, packet)


class ReferenceFabric(Fabric):
    """A :class:`Fabric` whose channels are Store-fed serialiser processes."""

    def __init__(self, env: Environment, **kwargs):
        super().__init__(env, **kwargs)
        self._channels = {}

    def send(self, src: str, dst: str, packet: Packet) -> None:
        if dst not in self._sinks:
            raise KeyError(f"no PFE named {dst!r} attached to the fabric")
        key = (src, dst)
        channel = self._channels.get(key)
        if channel is None:
            channel = self._channels[key] = Store(self.env)
            self.env.process(self._channel_loop(channel, dst),
                             name=f"fabric:{src}->{dst}")
        self.packets += 1
        self.bytes += len(packet)
        channel.put_nowait(packet)

    def _channel_loop(self, channel: Store, dst: str):
        sinks = self._sinks
        while True:
            packet = yield channel.get()
            yield self.env.delay(packet.bits / self.bandwidth_bps)
            self.env.call_later(self.latency_s, sinks[dst], packet)
