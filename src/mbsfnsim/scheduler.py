"""Subframe reservation, multicast CQI selection and RB allocation.

Multicast traffic rides in subframes reserved out of each 10-subframe
radio frame (at most six: the remaining four carry sync/paging and stay
unicast).  Pending messages are served oldest-first; leftover RBs roll
to the next pending message, and a reserved subframe with nothing to
send can be handed back to ordinary unicast traffic.  The baseline mode
instead delivers every message separately to each recipient through the
recipient's own serving cell.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Subframes 0, 4, 5 and 9 carry synchronization and paging.
MBSFN_LEGAL_SUBFRAMES = (1, 2, 3, 6, 7, 8)
SUBFRAMES_PER_FRAME = 10


def reserved_subframes(n_reserved_per_frame: int) -> frozenset[int]:
    """The subframe numbers (tti % 10) reserved for multicast: the first
    `n_reserved_per_frame` (0..6) legal ones."""
    return frozenset(MBSFN_LEGAL_SUBFRAMES[:n_reserved_per_frame])


def select_mbsfn_cqi(reports, bound: int) -> int:
    """Adaptive transmission CQI: the worst of one or more reports,
    clamped below by the bound."""
    return max(int(np.min(reports)), bound)


def required_subframes(packet_bits: float, n_mbms_users: int,
                       n_rb_per_subframe: int, n_re_per_rb: int,
                       efficiency: float, period_ttis: int) -> int:
    """Minimum reserved subframes per radio frame so that one generation
    period's worth of messages fits the reservation, and at least one
    when there is a message to carry.  The need is not capped: above
    six (MBSFN_LEGAL_SUBFRAMES) the load cannot fit.  Every argument but
    `n_mbms_users` is positive: a `ScenarioConfig` field or an entry of
    its checked CQI table."""
    if n_mbms_users <= 0:
        return 0
    bits_per_subframe = n_rb_per_subframe * n_re_per_rb * efficiency
    subframes_per_period = packet_bits * n_mbms_users / bits_per_subframe
    frames_per_period = period_ttis / SUBFRAMES_PER_FRAME
    # The slack absorbs rounding above a whole count; it must not round a
    # load far below one subframe down to none.
    return max(math.ceil(subframes_per_period / frames_per_period
                         - 1e-12), 1)


@dataclass(frozen=True)
class Allocation:
    key: object                 # caller-defined identity of the queue item
    rb_start: int
    rb_count: int
    capacity_bits: float        # transport-block capacity of the allocation


def rb_demand(residual_bits: float, n_re_per_rb: int,
              efficiency: float) -> int:
    """RBs that carry `residual_bits` > 0 at `efficiency` bits per RE: at
    least one, however small the residual against an RB's capacity."""
    return max(math.ceil(residual_bits / (n_re_per_rb * efficiency) - 1e-12),
               1)


def allocate_fifo(items, n_rb: int, n_re_per_rb: int) -> tuple[list[Allocation], int]:
    """Serve (key, residual_bits, efficiency) items in order until RBs run out.

    Each item gets ceil(residual / per-RB capacity) RBs, capped by what is
    left; leftover RBs stay with the next pending item.  Every residual
    is positive: a delivery drops a job once it is drained.
    """
    allocations: list[Allocation] = []
    rb_next = 0
    for key, residual, efficiency in items:
        if rb_next >= n_rb:
            break
        per_rb = n_re_per_rb * efficiency
        want = rb_demand(residual, n_re_per_rb, efficiency)
        take = min(want, n_rb - rb_next)
        # A full grant carries the whole residual, which rb_demand's slack
        # can leave a rounding error above `take` RBs.
        capacity = max(take * per_rb, residual) if take == want else take * per_rb
        allocations.append(Allocation(key, rb_next, take, capacity))
        rb_next += take
    return allocations, rb_next


def schedule_multicast(pending, n_rb: int, n_re_per_rb: int,
                       efficiency: float) -> tuple[list[Allocation], int]:
    """Allocate one reserved subframe to pending messages, oldest first.

    `pending` is an ordered sequence of (key, residual_bits).  Returns the
    allocations and the RB count used.
    """
    items = [(key, residual, efficiency) for key, residual in pending]
    return allocate_fifo(items, n_rb, n_re_per_rb)


def schedule_unicast_cam_baseline(pending, n_rb: int,
                                  n_re_per_rb: int) -> tuple[list[Allocation], int]:
    """Per-cell baseline queue: (key, residual_bits, efficiency) per copy,
    served oldest first, ahead of any ordinary traffic."""
    return allocate_fifo(pending, n_rb, n_re_per_rb)


def schedule_unicast_ordinary(user_ids, n_rb: int, rr_offset: int = 0
                              ) -> list[tuple[int, int, int]]:
    """Even round-robin split of a cell's RBs over its one or more
    full-buffer users.

    Returns (user_id, rb_start, rb_count) triples, one per user that gets
    at least one RB; allocations differ by at most one RB, with the
    remainder rotating by `rr_offset`.
    """
    users = list(user_ids)
    n = len(users)
    base, rem = divmod(n_rb, n)
    order = [users[(rr_offset + k) % n] for k in range(n)]
    out = []
    start = 0
    for k, user in enumerate(order):
        count = base + (1 if k < rem else 0)
        if count:
            out.append((user, start, count))
        start += count
    return out
