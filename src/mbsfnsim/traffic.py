"""Periodic awareness-message traffic.

Each car emits a fixed-size message every `period` TTIs starting at a
random per-car offset in [0, period).  A message is its (source,
sequence, generation TTI): the source with offset o sends message s at
TTI o + s * period, so the sequence number is tti // period and no
per-source state is kept.  The residual bits of a message in flight live
on the delivery's job for it (one per message in multicast, one per copy
in unicast), which `consume` drains.  A fresh generation always replaces
an undelivered predecessor's jobs (receivers cannot splice halves of
different messages), so its residual starts at the full message size.
"""
import numpy as np


def draw_offsets(n_sources: int, period: int, seed) -> np.ndarray:
    """Uniform generation offsets in [0, period), deterministic per seed."""
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 0x7AF]))
    return rng.integers(0, period, size=n_sources)


def maybe_generate(by_phase: dict, period: int, tti: int) -> tuple:
    """The sources that generate at TTI `tti` >= 0, in the order
    `by_phase` (phase -> sources) lists them, and their messages'
    sequence number, tti // period.

    The delivery replaces an undelivered predecessor outright: its partial
    progress is discarded.  Latency accounting for replaced messages
    continues in the metrics layer.
    """
    return by_phase.get(tti % period, ()), tti // period


def consume(job, transmitted_bits: float) -> None:
    """Drain a delivery job's `residual` bits by a transmitted transport
    block, down to 0; every block carries a positive number of bits."""
    job.residual = max(job.residual - transmitted_bits, 0.0)
