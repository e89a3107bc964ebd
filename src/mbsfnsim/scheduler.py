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


class SchedulingError(RuntimeError):
    """Invalid scheduling state (e.g. no CQI reports in adaptive mode)."""


class CongestionInfeasibleError(ValueError):
    """The offered multicast load cannot fit the legal reservation."""


def reserved_subframes(n_reserved_per_frame: int) -> frozenset[int]:
    """The subframe numbers (tti % 10) reserved for multicast: the first
    `n_reserved_per_frame` legal ones."""
    if not 0 <= n_reserved_per_frame <= len(MBSFN_LEGAL_SUBFRAMES):
        raise SchedulingError(f"{n_reserved_per_frame} reserved subframes "
                              "per frame: more than six, or negative")
    return frozenset(MBSFN_LEGAL_SUBFRAMES[:n_reserved_per_frame])


def select_mbsfn_cqi(reports, bound: int) -> int:
    """Adaptive transmission CQI: the worst report, clamped below by the
    bound."""
    if len(reports) == 0:
        raise SchedulingError("adaptive CQI selection without reports")
    return max(int(np.min(reports)), bound)


def required_subframes(packet_bits: float, n_mbms_users: int,
                       n_rb_per_subframe: int, n_re_per_rb: int,
                       efficiency: float, period_ttis: int) -> int:
    """Minimum reserved subframes per radio frame so that one generation
    period's worth of messages fits the reservation."""
    if min(packet_bits, n_rb_per_subframe, n_re_per_rb, efficiency,
           period_ttis) <= 0:
        raise ValueError("all sizing arguments must be positive")
    if n_mbms_users <= 0:
        return 0
    bits_per_subframe = n_rb_per_subframe * n_re_per_rb * efficiency
    subframes_per_period = packet_bits * n_mbms_users / bits_per_subframe
    frames_per_period = period_ttis / SUBFRAMES_PER_FRAME
    per_frame = math.ceil(subframes_per_period / frames_per_period - 1e-12)
    if per_frame > len(MBSFN_LEGAL_SUBFRAMES):
        raise CongestionInfeasibleError(
            f"need {per_frame} subframes/frame, only "
            f"{len(MBSFN_LEGAL_SUBFRAMES)} are reservable")
    return per_frame


@dataclass(frozen=True)
class Allocation:
    key: object                 # caller-defined identity of the queue item
    rb_start: int
    rb_count: int
    capacity_bits: float        # transport-block capacity of the allocation


def rb_demand(residual_bits: float, n_re_per_rb: int,
              efficiency: float) -> int:
    """RBs that carry `residual_bits` at `efficiency` bits per RE."""
    return math.ceil(residual_bits / (n_re_per_rb * efficiency) - 1e-12)


def allocate_fifo(items, n_rb: int, n_re_per_rb: int) -> tuple[list[Allocation], int]:
    """Serve (key, residual_bits, efficiency) items in order until RBs run out.

    Each item gets ceil(residual / per-RB capacity) RBs, capped by what is
    left; leftover RBs stay with the next pending item.
    """
    allocations: list[Allocation] = []
    rb_next = 0
    for key, residual, efficiency in items:
        if rb_next >= n_rb:
            break
        if residual <= 0:
            continue
        per_rb = n_re_per_rb * efficiency
        want = rb_demand(residual, n_re_per_rb, efficiency)
        take = min(want, n_rb - rb_next)
        # A full grant carries the whole residual, which rb_demand's slack
        # can leave a rounding error above `take` RBs.
        capacity = max(take * per_rb, residual) if take == want else take * per_rb
        allocations.append(Allocation(key, rb_next, take, capacity))
        rb_next += take
    return allocations, rb_next


def price_until_full(pending, efficiency_of, n_rb: int,
                     n_re_per_rb: int) -> list[tuple[object, float, float]]:
    """(key, residual_bits, efficiency) items for `allocate_fifo`, pricing
    only the queue head it can serve.

    `pending` yields (key, residual_bits) in queue order and
    `efficiency_of(key)` prices one item.  Pricing stops once the priced
    items' RB demand fills `n_rb`: `allocate_fifo` stops at that same item,
    so its allocations equal those of the whole queue priced.
    """
    items = []
    demand = 0
    for key, residual in pending:
        if demand >= n_rb:
            break
        if residual <= 0:
            continue
        efficiency = efficiency_of(key)
        items.append((key, residual, efficiency))
        demand += rb_demand(residual, n_re_per_rb, efficiency)
    return items


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
    """Even round-robin split of a cell's RBs over its full-buffer users.

    Returns (user_id, rb_start, rb_count) triples; allocations differ by at
    most one RB, with the remainder rotating by `rr_offset`.
    """
    users = list(user_ids)
    if not users or n_rb <= 0:
        return [(u, 0, 0) for u in users]
    n = len(users)
    base, rem = divmod(n_rb, n)
    order = [users[(rr_offset + k) % n] for k in range(n)]
    out = []
    start = 0
    for k, user in enumerate(order):
        count = base + (1 if k < rem else 0)
        out.append((user, start, count))
        start += count
    return out
