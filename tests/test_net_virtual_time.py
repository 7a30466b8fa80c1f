"""The virtual-time link and fabric against the serialiser-process oracles.

Each direction of a :class:`~repro.net.Link` and each channel of the
:class:`~repro.trio.fabric.Fabric` is a virtual-time FIFO with one
scheduled delivery per frame.  The properties drive it and the process
based reference (``tests/net_oracles.py``) with the same sends and
require the same result: every delivery at the same instant (compared
as float hex) in the same order at each receiver (per channel for the
fabric), the same frames lost, and the loss RNG in the same state.

Sends are drawn with exact ties (several frames at one instant, in both
directions), back-to-back sends (a frame sent at the exact instant the
previous one finished serialising) and ordinary gaps.  A send is either
scheduled before the run or issued from inside it, by the previous
send after some same-instant hops, so it can pop before or after the
serialisation events that previous send started.  The one order
not compared is that of two deliveries at the same instant to two
different receivers: the reference schedules a delivery when the frame
finishes serialising, the virtual-time model when it is sent, so such
ties may pop in a different order.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tests.net_oracles import ReferenceFabric, ReferenceLink
from repro.net import Link, Packet, Port
from repro.sim import Environment
from repro.trio.fabric import Fabric

#: (direction or channel, how the send time follows the previous send,
#: frame bytes, gap in ns for "gap", hops: None to schedule the send
#: before the run, else the number of same-instant callbacks between
#: the previous send and scheduling this one).
_SEND = st.tuples(
    st.integers(0, 5),
    st.sampled_from(["same", "b2b", "gap"]),
    # A few recurring sizes make frames finish at exactly the same instant.
    st.one_of(st.sampled_from([64, 200, 1500]), st.integers(64, 1518)),
    st.integers(1, 3000),
    st.sampled_from([None, 0, 1, 2]),
)


def _send_times(sends, bandwidth_bps):
    """Absolute send times: same instant, back-to-back, or after a gap."""
    times = []
    t = 0.0
    prev_bits = None
    for __, mode, size, gap_ns, __ in sends:
        if mode == "b2b" and prev_bits is not None:
            t = t + prev_bits / bandwidth_bps
        elif mode == "gap":
            t = t + gap_ns * 1e-9
        times.append(t)
        prev_bits = size * 8
    return times


def _schedule_sends(env, sends, bandwidth_bps, send_one):
    """Call ``send_one(index)`` for each send at its time.

    A send whose hops are None is scheduled before the run.  Otherwise
    the previous send schedules it once ``hops`` same-instant callbacks
    have popped, so with one or more hops it pops after the previous
    frame's serialiser has taken that frame.
    """
    times = _send_times(sends, bandwidth_bps)

    def fire(index):
        send_one(index)
        after = index + 1
        if after < len(sends) and sends[after][4] is not None:
            hop(sends[after][4], after)

    def hop(hops, index):
        if hops:
            env.call_at(env.now, hop, hops - 1, index)
        else:
            env.call_at(times[index], fire, index)

    for index, send in enumerate(sends):
        if index == 0 or send[4] is None:
            env.call_at(times[index], fire, index)


def _run_link(link_cls, sends, bandwidth_bps, propagation_s, loss_rate,
              loss_seed):
    env = Environment()
    received = {"a": [], "b": []}

    def receiver(name):
        return lambda packet, port: received[name].append(
            (env.now.hex(), packet.meta["index"]))

    a = Port(env, "a", rx_handler=receiver("a"))
    b = Port(env, "b", rx_handler=receiver("b"))
    link = link_cls(env, a, b, bandwidth_bps=bandwidth_bps,
                    propagation_delay_s=propagation_s, loss_rate=loss_rate,
                    loss_seed=loss_seed)

    def send_one(index):
        which, __, size, __, __ = sends[index]
        (a, b)[which % 2].send(Packet(bytes(size), meta={"index": index}))

    _schedule_sends(env, sends, bandwidth_bps, send_one)
    env.run()
    return received, link.frames_lost, link._loss_rng.getstate()


@settings(max_examples=300, deadline=None)
@given(
    sends=st.lists(_SEND, min_size=1, max_size=24),
    bandwidth_bps=st.sampled_from([1e9, 10e9, 100e9]),
    propagation_s=st.sampled_from([0.0, 1e-6, 3.3e-7]),
    loss_rate=st.sampled_from([0.0, 0.3, 0.7]),
    loss_seed=st.integers(0, 3),
)
def test_link_matches_serialiser_processes(sends, bandwidth_bps,
                                           propagation_s, loss_rate,
                                           loss_seed):
    args = (sends, bandwidth_bps, propagation_s, loss_rate, loss_seed)
    assert _run_link(Link, *args) == _run_link(ReferenceLink, *args)


@pytest.mark.parametrize("sends", [
    # A long frame sent first finishes after a short one sent later in
    # the other direction: the short frame takes the first loss draw.
    [(0, "same", 1500, 1, None), (1, "same", 64, 1, None),
     (1, "same", 64, 1, None)],
    # Both directions finish a frame at one instant twice; the second
    # pair waited behind the first, so it is drawn in the first pair's
    # draw order, not in send order.
    [(0, "same", 100, 1, None), (1, "same", 100, 1, None),
     (1, "same", 200, 1, None), (0, "same", 200, 1, None)],
    # Same start instant: a frame sent to an idle direction is drawn
    # before one that waited behind its predecessor.
    [(0, "same", 100, 1, None), (1, "b2b", 200, 1, None),
     (0, "same", 200, 1, None)],
    # A frame sent at the exact instant its direction's previous frame
    # finishes still waits behind it when the send pops first, even when
    # sent before the other direction's frame at that instant.
    [(0, "same", 100, 1, None), (0, "b2b", 200, 1, None),
     (1, "same", 200, 1, None)],
    # The same sends issued from inside the run pop after the first
    # frame has finished: the direction is idle again, so both frames
    # are drawn in send order.
    [(0, "same", 100, 1, None), (0, "b2b", 200, 1, 1),
     (1, "same", 200, 1, 0)],
    # Same finish instant: the frame that started serialising first is
    # drawn first, even though it waited and the other did not.
    [(0, "same", 100, 1, None), (0, "same", 200, 1, None),
     (1, "gap", 100, 1600, None)],
])
@pytest.mark.parametrize("loss_rate", [0.3, 0.5, 0.7])
def test_link_loss_draw_order_at_ties(sends, loss_rate):
    for seed in range(6):
        args = (sends, 1e9, 1e-6, loss_rate, seed)
        assert _run_link(Link, *args) == _run_link(ReferenceLink, *args)


_PFES = ("pfe1", "pfe2", "pfe3")
_CHANNELS = [(s, d) for s in _PFES for d in _PFES if s != d]


def _run_fabric(fabric_cls, sends, bandwidth_bps, latency_s):
    env = Environment()
    fabric = fabric_cls(env, bandwidth_bps=bandwidth_bps, latency_s=latency_s)
    received = {channel: [] for channel in _CHANNELS}
    for name in _PFES:
        fabric.attach(name, lambda packet, dst=name: received[
            (packet.meta["src"], dst)].append(
                (env.now.hex(), packet.meta["index"])))

    def send_one(index):
        which, __, size, __, __ = sends[index]
        src, dst = _CHANNELS[which]
        fabric.send(src, dst,
                    Packet(bytes(size), meta={"index": index, "src": src}))

    _schedule_sends(env, sends, bandwidth_bps, send_one)
    env.run()
    return received, fabric.packets, fabric.bytes


@settings(max_examples=200, deadline=None)
@given(
    sends=st.lists(_SEND, min_size=1, max_size=24),
    bandwidth_bps=st.sampled_from([10e9, 400e9]),
    latency_s=st.sampled_from([0.0, 500e-9, 1e-7]),
)
def test_fabric_matches_serialiser_processes(sends, bandwidth_bps,
                                             latency_s):
    args = (sends, bandwidth_bps, latency_s)
    assert _run_fabric(Fabric, *args) == _run_fabric(ReferenceFabric, *args)
