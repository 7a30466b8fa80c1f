"""The Trio-ML packet format (Figures 7 and 8).

A Trio-ML aggregation packet is
``Ethernet | IPv4 | UDP | Trio-ML header | gradients``: UDP addressed to
the router with destination port 12000, a 12-byte Trio-ML header
describing the block of gradients, then up to 1024 gradients as 32-bit
integers (converted from floating point with ATP's scaling approach).
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np

from repro.microcode.layout import StructLayout

__all__ = [
    "MAX_GRADIENTS_PER_PACKET",
    "TRIO_ML_HEADER_LAYOUT",
    "TRIO_ML_UDP_PORT",
    "TrioMLHeader",
    "decode_trio_ml",
    "decode_trio_ml_words",
    "encode_trio_ml",
]

#: "Packets are addressed to the router with a pre-defined destination
#: port (e.g., 12000)" (§4).
TRIO_ML_UDP_PORT = 12000

#: "Up to 4096 bytes (1024 Gradients)" (Figure 7).
MAX_GRADIENTS_PER_PACKET = 1024

#: Figure 8, verbatim field widths — 12 bytes total.
TRIO_ML_HEADER_LAYOUT = StructLayout(
    "trio_ml_hdr_t",
    [
        ("job_id", 8),      # aggregation job id
        ("block_id", 32),   # aggregation block id
        ("age_op", 4),      # if the block has aged out
        ("final", 1),       # if the block is final block
        ("degraded", 1),    # aggregation is partial
        (None, 2),          # unused for byte alignment
        ("src_id", 8),      # source id of the packet
        ("src_cnt", 8),     # number of sources contributing
        ("gen_id", 16),     # generation id
        (None, 4),          # room to expand grad_cnt
        ("grad_cnt", 12),   # number of gradients
    ],
)

assert TRIO_ML_HEADER_LAYOUT.size_bytes == 12, "Figure 8 says 12 bytes"

#: (shift, mask) of each named field against the header read as one
#: big-endian integer, in :class:`TrioMLHeader` constructor order.
_FIELD_EXTRACT = tuple(
    (TRIO_ML_HEADER_LAYOUT.total_bits - f.bit_offset - f.width,
     (1 << f.width) - 1)
    for f in map(TRIO_ML_HEADER_LAYOUT.field,
                 ("job_id", "block_id", "src_id", "grad_cnt", "gen_id",
                  "age_op", "final", "degraded", "src_cnt"))
)

_GRADIENT_WORDS = np.dtype("<u4")


@dataclass
class TrioMLHeader:
    """Parsed Trio-ML header (Figure 8)."""

    job_id: int
    block_id: int
    src_id: int
    grad_cnt: int
    gen_id: int = 0
    age_op: int = 0
    final: bool = False
    degraded: bool = False
    src_cnt: int = 0

    SIZE = TRIO_ML_HEADER_LAYOUT.size_bytes

    def pack(self) -> bytes:
        return TRIO_ML_HEADER_LAYOUT.pack(
            job_id=self.job_id,
            block_id=self.block_id,
            age_op=self.age_op,
            final=int(self.final),
            degraded=int(self.degraded),
            src_id=self.src_id,
            src_cnt=self.src_cnt,
            gen_id=self.gen_id,
            grad_cnt=self.grad_cnt,
        )

    @classmethod
    def unpack(cls, data: Sequence[int]) -> "TrioMLHeader":
        """Parse the first 12 bytes of ``data`` (one integer, no dict)."""
        size = TRIO_ML_HEADER_LAYOUT.size_bytes
        chunk = data[:size]
        if not isinstance(chunk, (bytes, bytearray, memoryview)):
            chunk = bytes(chunk)
        if len(chunk) != size:
            raise ValueError(
                f"struct {TRIO_ML_HEADER_LAYOUT.name}: need {size} bytes at "
                f"offset 0, buffer has {len(chunk)}"
            )
        window = int.from_bytes(chunk, "big")
        (job_id, block_id, src_id, grad_cnt, gen_id, age_op, final, degraded,
         src_cnt) = [(window >> shift) & mask
                     for shift, mask in _FIELD_EXTRACT]
        return cls(job_id, block_id, src_id, grad_cnt, gen_id, age_op,
                   bool(final), bool(degraded), src_cnt)


def encode_trio_ml(header: TrioMLHeader, gradients: Sequence[int]) -> bytes:
    """Build the UDP payload: 12-byte header + little-endian int32 grads."""
    if len(gradients) != header.grad_cnt:
        raise ValueError(
            f"header says {header.grad_cnt} gradients, got {len(gradients)}"
        )
    if header.grad_cnt > MAX_GRADIENTS_PER_PACKET:
        raise ValueError(
            f"{header.grad_cnt} gradients exceeds the {MAX_GRADIENTS_PER_PACKET} "
            "per-packet maximum (Figure 7)"
        )
    # int64 -> uint32 cast truncates modulo 2^32, i.e. the & 0xFFFFFFFF.
    ticks = np.asarray(gradients, dtype=np.int64).astype("<u4")
    return header.pack() + ticks.tobytes()


def decode_trio_ml(payload: bytes) -> Tuple[TrioMLHeader, List[int]]:
    """Parse a Trio-ML UDP payload into (header, signed int32 gradients)."""
    header, words = decode_trio_ml_words(payload)
    return header, words.view("<i4").tolist()


def decode_trio_ml_words(payload: bytes) -> Tuple[TrioMLHeader, np.ndarray]:
    """Parse a Trio-ML UDP payload into (header, gradient words).

    The words are a read-only ``<u4`` view of ``payload``: the bytes the
    RMW engines add modulo 2^32, with no per-gradient Python object.
    """
    if len(payload) < TrioMLHeader.SIZE:
        raise ValueError(f"payload too short for Trio-ML header: {len(payload)}")
    header = TrioMLHeader.unpack(payload[: TrioMLHeader.SIZE])
    body = payload[TrioMLHeader.SIZE: TrioMLHeader.SIZE + 4 * header.grad_cnt]
    if len(body) != 4 * header.grad_cnt:
        raise ValueError(
            f"payload truncated: expected {4 * header.grad_cnt} gradient "
            f"bytes, got {len(body)}"
        )
    return header, np.frombuffer(body, dtype=_GRADIENT_WORDS)
