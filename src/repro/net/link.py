"""Point-to-point links and device ports.

A :class:`Port` is a named attachment point on a device; a :class:`Link`
joins two ports and models serialisation delay (frame bits divided by link
bandwidth) plus fixed propagation delay.  Each direction of the link
serialises frames one at a time, so offered load beyond the link rate
queues up -- exactly the behaviour the window-sweep experiment (Fig. 16)
depends on.

Each direction of a lossless link is a virtual-time FIFO: a frame sent
at ``now`` finishes serialising at ``max(now, busy_until) + bits /
bandwidth`` and is delivered one propagation delay later, by one
scheduled call.  These are the same additions, so the same timestamps,
as a serialiser process waiting on a queue and then on a delay per frame.

A lossy link draws each frame's loss when the frame finishes
serialising, from one RNG shared by both directions, so the draw order
is the order those completion events pop, ties included.  Its directions
keep the serialiser process's events one for one, as plain callbacks: a
start, then per frame a pick-up at the instant the serialiser would take
the frame, a completion that draws the loss, and the delivery.
"""

from __future__ import annotations

import math
from collections import deque
from typing import Any, Callable, Deque, Optional

from repro.net.packet import Packet
from repro.sim import Environment

__all__ = ["Link", "Port"]

#: Callback type invoked when a frame arrives at a port.
RxHandler = Callable[[Packet, "Port"], Any]


class Port:
    """One attachment point: transmit via :meth:`send`, receive via handler.

    A port belongs to a device; the device registers an ``rx_handler`` that
    the link calls on frame delivery.  The handler may be a plain function
    or return a generator, in which case it is run as a simulation process.
    """

    def __init__(self, env: Environment, name: str,
                 rx_handler: Optional[RxHandler] = None):
        self.env = env
        self.name = name
        self.rx_handler = rx_handler
        self.link: Optional["Link"] = None
        self.tx_packets = 0
        self.tx_bytes = 0
        self.rx_packets = 0
        self.rx_bytes = 0

    @property
    def connected(self) -> bool:
        return self.link is not None

    def send(self, packet: Packet) -> None:
        """Enqueue ``packet`` for transmission on the attached link."""
        if self.link is None:
            raise RuntimeError(f"port {self.name!r} is not connected to a link")
        self.tx_packets += 1
        self.tx_bytes += len(packet)
        self.link.transmit(self, packet)

    def deliver(self, packet: Packet) -> None:
        """Called by the link when a frame arrives at this port."""
        self.rx_packets += 1
        self.rx_bytes += len(packet)
        if self.rx_handler is None:
            return
        result = self.rx_handler(packet, self)
        if result is not None and hasattr(result, "send"):
            self.env.process(result, name=f"rx@{self.name}")

    def __repr__(self) -> str:
        state = "up" if self.connected else "down"
        return f"<Port {self.name} {state}>"


class _Direction:
    """Transmit state of one direction of a link."""

    __slots__ = ("dst", "busy_until", "queue", "idle")

    def __init__(self, dst: "Port"):
        self.dst = dst
        #: Lossless links: when the frame last accepted finishes
        #: serialising.
        self.busy_until = -math.inf
        #: Lossy links: frames the serialiser has not picked up yet, and
        #: whether it is waiting for one (false until it has started).
        self.queue: Deque[Packet] = deque()
        self.idle = False


class Link:
    """Full-duplex point-to-point link between two ports.

    Each direction serialises its own frames, so the two directions
    never contend with each other (as on a real fibre pair).
    """

    def __init__(
        self,
        env: Environment,
        a: Port,
        b: Port,
        bandwidth_bps: float = 100e9,
        propagation_delay_s: float = 1e-6,
        loss_rate: float = 0.0,
        loss_seed: int = 0,
    ):
        """``loss_rate`` is the per-frame drop probability (transient
        congestion / corruption), applied independently per direction
        with a deterministic seeded RNG."""
        if bandwidth_bps <= 0:
            raise ValueError(f"bandwidth must be positive, got {bandwidth_bps}")
        if propagation_delay_s < 0:
            raise ValueError(f"negative propagation delay: {propagation_delay_s}")
        if not 0.0 <= loss_rate < 1.0:
            raise ValueError(f"loss rate must be in [0, 1): {loss_rate}")
        if a.connected or b.connected:
            raise RuntimeError("port already attached to a link")
        self.env = env
        self.bandwidth_bps = float(bandwidth_bps)
        self.propagation_delay_s = float(propagation_delay_s)
        self.loss_rate = float(loss_rate)
        # Stream keyed by loss_seed alone, so two links with the same
        # seed drop the same frame indices regardless of creation order.
        self._loss_rng = env.rng_stream(loss_seed)
        self.frames_lost = 0
        self.ports = (a, b)
        a.link = self
        b.link = self
        self._tx = {a: _Direction(b), b: _Direction(a)}
        # Flow-level (fluid) occupancy, per transmit direction: flow_id ->
        # allocated rate in bps, written back by the flow engine after
        # every max-min re-solve.  Purely observational bookkeeping for
        # the packet level — serialisation below never reads it — but it
        # lets rate hooks, figures, and the escalation policy ask "what
        # is this link carrying at flow level right now?".
        self.fluid_flows = {a: {}, b: {}}
        if self.loss_rate:
            for tx in self._tx.values():
                env.call_at(env.now, self._next_frame, tx)

    # -- flow-level rate hooks ------------------------------------------

    def fluid_attach(self, src_port: Port, flow_id: int,
                     rate_bps: float = 0.0) -> None:
        """Register fluid flow ``flow_id`` transmitting out of ``src_port``."""
        self.fluid_flows[src_port][flow_id] = rate_bps

    def fluid_detach(self, src_port: Port, flow_id: int) -> None:
        """Remove fluid flow ``flow_id`` from the ``src_port`` direction."""
        self.fluid_flows[src_port].pop(flow_id, None)

    def fluid_set_rate(self, src_port: Port, flow_id: int,
                       rate_bps: float) -> None:
        """Record ``flow_id``'s solved rate on the ``src_port`` direction."""
        self.fluid_flows[src_port][flow_id] = rate_bps

    def fluid_load_bps(self, src_port: Port) -> float:
        """Total solved fluid rate currently leaving ``src_port``."""
        return sum(self.fluid_flows[src_port].values())

    def fluid_utilisation(self, src_port: Port) -> float:
        """Fluid load on the ``src_port`` direction as a capacity fraction."""
        return self.fluid_load_bps(src_port) / self.bandwidth_bps

    def other_end(self, port: Port) -> Port:
        """The port on the far side of ``port``."""
        a, b = self.ports
        if port is a:
            return b
        if port is b:
            return a
        raise ValueError(f"{port!r} is not attached to this link")

    def transmit(self, src: Port, packet: Packet) -> None:
        """Serialise ``packet`` out of ``src`` after the frames before it."""
        tx = self._tx[src]
        if self.loss_rate:
            tx.queue.append(packet)
            if tx.idle:
                tx.idle = False
                self.env.call_at(self.env.now, self._pick_up, tx)
            return
        env = self.env
        now = env._now
        busy_until = tx.busy_until
        start = busy_until if busy_until > now else now
        tx.busy_until = done = start + packet.bits / self.bandwidth_bps
        env.call_at(done + self.propagation_delay_s, tx.dst.deliver, packet)

    # -- lossy links: the serialiser process's events, as callbacks --------

    def _next_frame(self, tx: _Direction) -> None:
        """The serialiser asks for the next frame."""
        if tx.queue:
            self.env.call_at(self.env.now, self._pick_up, tx)
        else:
            tx.idle = True

    def _pick_up(self, tx: _Direction) -> None:
        packet = tx.queue.popleft()
        self.env.call_later(packet.bits / self.bandwidth_bps,
                            self._serialised, tx, packet)

    def _serialised(self, tx: _Direction, packet: Packet) -> None:
        if self._loss_rng.random() < self.loss_rate:
            self.frames_lost += 1
        else:
            # Propagation happens in parallel with the next serialisation.
            self.env.call_later(self.propagation_delay_s, tx.dst.deliver,
                                packet)
        self._next_frame(tx)
