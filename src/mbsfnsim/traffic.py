"""Periodic awareness-message traffic and per-source transmit buffers.

Each car emits a fixed-size packet every `period` TTIs starting at a
random per-car offset.  A buffer holds a source's generation phase and
sequence counter.  The residual bits of a packet in flight live on the
delivery's job for it (one per message in multicast, one per copy in
unicast), which `consume` drains.  A fresh generation always replaces an
undelivered predecessor's jobs (receivers cannot splice halves of
different messages), so its residual starts at the full packet size.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class CamPacket:
    source_user_id: int
    sequence: int
    generation_tti: int
    size_bits: int


@dataclass
class UserBuffer:
    user_id: int
    offset: int                         # generation phase in [0, period)
    period: int
    packet_bits: int
    next_sequence: int = 0


def draw_offsets(n_sources: int, period: int, seed) -> np.ndarray:
    """Uniform generation offsets in [0, period), deterministic per seed."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x7AF]))
    return rng.integers(0, period, size=n_sources)


def maybe_generate(buffer: UserBuffer, tti: int) -> CamPacket | None:
    """Emit a new packet when the TTI hits the buffer's generation phase.

    The delivery replaces an undelivered predecessor outright: its partial
    progress is discarded.  Latency accounting for replaced packets
    continues in the metrics layer.
    """
    if tti < 0:
        raise ValueError("tti must be >= 0")
    if (tti - buffer.offset) % buffer.period != 0 or tti < buffer.offset:
        return None
    packet = CamPacket(
        source_user_id=buffer.user_id,
        sequence=buffer.next_sequence,
        generation_tti=tti,
        size_bits=buffer.packet_bits,
    )
    buffer.next_sequence += 1
    return packet


def consume(job, transmitted_bits: float) -> None:
    """Drain a delivery job's `residual` bits by a transmitted transport
    block, down to 0."""
    if transmitted_bits < 0:
        raise ValueError("transmitted bits must be >= 0")
    job.residual = max(job.residual - transmitted_bits, 0.0)
