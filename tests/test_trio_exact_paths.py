"""Exactness of the lean Trio-ML packet path.

* An exception in a packet thread, which nothing waits on, still
  surfaces from ``env.run()``.
* The folded tail read (``read_tail(..., more_chunks=n)``) ends at
  exactly the time the former ``read_tail`` event followed by a lumped
  ``n``-chunk delay event would.
* ``bulk_add32`` adds the ``<u4`` view of a packet's gradient bytes to
  the same memory bytes as the plain-int list path, negatives and
  wraparound included.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.net import Packet
from repro.sim import Environment
from repro.trio import PFE, TrioApplication
from repro.trio.memory import SharedMemorySystem
from repro.trio.chipset import GENERATIONS
from repro.trioml.protocol import (
    TrioMLHeader,
    decode_trio_ml_words,
    encode_trio_ml,
)


class _Boom(Exception):
    pass


def test_failing_packet_thread_surfaces_from_run():
    env = Environment()
    pfe = PFE(env, "pfe1", num_ports=1)
    finished = []

    class Failing(TrioApplication):
        def handle_packet(self, tctx, pctx):
            yield from tctx.execute(3)
            yield from tctx.flush()
            if pctx.packet.meta.get("fail"):
                raise _Boom("thread failed")
            finished.append(env.now)
            pctx.drop()

    pfe.install_app(Failing())
    pfe.accept(Packet(bytes(64), flow_key="ok"))
    pfe.accept(Packet(bytes(64), flow_key="bad", meta={"fail": True}))
    with pytest.raises(_Boom, match="thread failed"):
        env.run()
    assert len(finished) == 1


@settings(max_examples=300, deadline=None)
@given(
    # Starts comparable to the read's length are where ``delay(t - now)``
    # would round differently from the chain of additions.
    start=st.floats(0.0, 2e-5, allow_nan=False),
    instructions=st.integers(0, 500),
    more_chunks=st.integers(0, 64),
    latency_s=st.sampled_from([300e-9, 1e-7, 3.3e-7, 7e-8]),
)
@example(start=7.857129947866725e-06, instructions=27, more_chunks=61,
         latency_s=300e-9)
@example(start=1.9621527213790425e-06, instructions=403, more_chunks=3,
         latency_s=300e-9)
def test_folded_tail_read_ends_when_the_two_events_would(
        start, instructions, more_chunks, latency_s):
    config = GENERATIONS[5].scaled(tail_read_latency_s=latency_s)
    env = Environment(initial_time=start)
    pfe = PFE(env, "pfe1", config=config, num_ports=1)
    seen = {}

    class TailReader(TrioApplication):
        def handle_packet(self, tctx, pctx):
            yield from tctx.execute(instructions)
            seen["now"], seen["pending"] = env.now, tctx.pending_s
            chunk = yield from tctx.read_tail(0, 64, more_chunks=more_chunks)
            seen["end"] = env.now
            seen["chunk"] = chunk
            pctx.drop()

    pfe.install_app(TailReader())
    tail = bytes(range(200))
    pfe.accept(Packet(bytes(config.head_size_bytes) + tail, flow_key="f"))
    env.run()
    # The former path: one delay for the first chunk read (with the
    # deferred charge), then one lumped delay for the other chunks.
    expected = seen["now"] + (seen["pending"] + latency_s)
    lumped = 0.0 + more_chunks * latency_s
    if lumped:
        expected = expected + lumped
    assert seen["end"].hex() == expected.hex()
    assert seen["chunk"] == tail[:64]


_GRADIENT = st.one_of(
    st.integers(-(2 ** 31), 2 ** 31 - 1),
    st.sampled_from([-1, -(2 ** 31), 2 ** 31 - 1, 0, 1]),
)


@settings(max_examples=60, deadline=None)
@given(
    initial=st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=40),
    rounds=st.lists(st.lists(_GRADIENT, min_size=40, max_size=40),
                    min_size=1, max_size=4),
)
def test_bulk_add32_word_view_equals_list_path(initial, rounds):
    n = len(initial)
    config = GENERATIONS[5]
    memories = []
    for __ in range(2):
        env = Environment()
        memory = SharedMemorySystem(env, config)
        addr = memory.alloc(4 * n, region="dram")
        memory.write_raw(addr, b"".join(v.to_bytes(4, "little")
                                        for v in initial))
        memories.append((env, memory, addr))

    def add_all(env, memory, addr, as_view):
        for values in rounds:
            values = values[:n]
            if as_view:
                header = TrioMLHeader(job_id=1, block_id=2, src_id=3,
                                      grad_cnt=n)
                __, values = decode_trio_ml_words(
                    encode_trio_ml(header, values))
            yield from memory.bulk_add32(addr, values)

    for (env, memory, addr), as_view in zip(memories, (False, True)):
        env.process(add_all(env, memory, addr, as_view))
        env.run()
    (__, list_mem, addr), (__, view_mem, __) = memories
    expected = list(initial)
    for values in rounds:
        for i, v in enumerate(values[:n]):
            expected[i] = (expected[i] + v) % 2 ** 32
    assert list_mem.read_raw(addr, 4 * n) == view_mem.read_raw(addr, 4 * n)
    assert list_mem.read_raw(addr, 4 * n) == b"".join(
        v.to_bytes(4, "little") for v in expected)
