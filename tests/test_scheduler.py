import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbsfnsim import scheduler
from mbsfnsim.engine import ScenarioConfig
from mbsfnsim.link import CQI_TABLE, CqiTable, cqi_efficiency
from mbsfnsim.scheduler import (required_subframes, reserved_subframes,
                                schedule_multicast,
                                schedule_unicast_cam_baseline,
                                schedule_unicast_ordinary, select_mbsfn_cqi)


class TestCqiSelection:
    def test_min_above_bound(self):
        assert select_mbsfn_cqi(np.array([5, 7, 9]), 3) == 5

    def test_bound_clamps(self):
        assert select_mbsfn_cqi(np.array([1, 2, 4]), 3) == 3

    def test_disabled_bound_takes_minimum(self):
        assert select_mbsfn_cqi(np.array([1, 2, 4]), 0) == 1


class TestRequiredSubframes:
    def test_5mhz_needs_six(self):
        assert required_subframes(2400, 21, 25, 100,
                                  cqi_efficiency(3, CQI_TABLE), 100) == 6

    def test_20mhz_needs_two(self):
        assert required_subframes(2400, 21, 100, 100,
                                  cqi_efficiency(3, CQI_TABLE), 100) == 2

    def test_no_users_no_reservation(self):
        assert required_subframes(2400, 0, 25, 100,
                                  cqi_efficiency(3, CQI_TABLE), 100) == 0

    def test_load_below_one_subframe_reserves_one(self):
        # At this RE count the 1e-12 slack exceeds the load in subframes.
        assert required_subframes(2400, 21, 25, 10**15,
                                  cqi_efficiency(3, CQI_TABLE), 100) == 1

    def test_infeasible_demand(self):
        """The need is not capped at the six legal subframes."""
        assert required_subframes(2400, 21, 25, 100,
                                  cqi_efficiency(1, CQI_TABLE), 100) == 14

    def test_bad_arguments(self):
        """`required_subframes` trusts its sizing arguments: a zero message
        size, RE count or period is rejected where the config is built,
        and a zero efficiency where the CQI table is."""
        for field in ("cam_size_bytes", "usable_re_per_rb", "cam_period_ms"):
            with pytest.raises(ValueError, match=field):
                ScenarioConfig(**{field: 0})
        entries = list(CQI_TABLE.entries)
        entries[0] = replace(entries[0], efficiency=0.0)
        with pytest.raises(ValueError, match="efficiencies must be positive"):
            CqiTable(tuple(entries))

    @given(st.integers(1, 40), st.integers(500, 4000), st.integers(1, 15))
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, n_users, bits, cqi):
        eff = cqi_efficiency(cqi, CQI_TABLE)
        base = required_subframes(bits, n_users, 25, 100, eff, 100)
        assert required_subframes(bits + 200, n_users, 25, 100, eff,
                                  100) >= base
        assert required_subframes(bits, n_users + 1, 25, 100, eff,
                                  100) >= base
        assert required_subframes(bits, n_users, 100, 100, eff, 100) <= base
        assert required_subframes(bits, n_users, 25, 120, eff, 100) <= base


class TestFramePlan:
    def test_reserved_pattern(self):
        reserved = reserved_subframes(6)
        assert [t for t in range(20) if t % 10 in reserved] == [
            1, 2, 3, 6, 7, 8, 11, 12, 13, 16, 17, 18]

    def test_no_reservation(self):
        assert reserved_subframes(0) == frozenset()


class TestScheduleMulticast:
    def test_rb_count_arithmetic(self):
        allocations, used = schedule_multicast(
            [("cam", 2400.0)], n_rb=60, n_re_per_rb=120, efficiency=0.377)
        assert used == 54  # independent check: ceil(2400 / (120 * 0.377))
        assert used == math.ceil(2400 / (120 * 0.377))
        assert allocations[0].rb_count == 54

    def test_empty_queue_reassignable(self):
        allocations, used = schedule_multicast(
            [], n_rb=25, n_re_per_rb=100, efficiency=0.377)
        assert allocations == [] and used == 0

    def test_fifo_with_partial_tail(self):
        allocations, used = schedule_multicast(
            [("a", 2400.0), ("b", 2400.0)], n_rb=96, n_re_per_rb=100,
            efficiency=0.377)
        # first fully served (64 RBs), second gets the 32 leftover RBs
        assert [a.key for a in allocations] == ["a", "b"]
        assert allocations[0].rb_count == 64
        assert allocations[1].rb_count == 32
        assert used == 96

    def test_no_double_allocation(self):
        allocations, used = schedule_multicast(
            [(k, 500.0) for k in range(10)], n_rb=25, n_re_per_rb=100,
            efficiency=1.4766)
        spans = [(a.rb_start, a.rb_start + a.rb_count) for a in allocations]
        assert used <= 25
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 == s2  # contiguous, non-overlapping
        assert spans[-1][1] <= 25

    @given(st.lists(st.floats(100.0, 5000.0), min_size=1, max_size=8),
           st.integers(4, 15))
    @settings(max_examples=50, deadline=None)
    def test_adaptive_never_uses_more_rbs(self, residuals, cqi):
        # efficiency at or above the bound can only shrink the allocation
        bound_eff = cqi_efficiency(3, CQI_TABLE)
        high_eff = cqi_efficiency(cqi, CQI_TABLE)
        items = list(enumerate(residuals))
        _, used_bound = schedule_multicast(items, 25, 100, bound_eff)
        _, used_high = schedule_multicast(items, 25, 100, high_eff)
        assert used_high <= used_bound


class TestScheduleOrdinary:
    def test_single_user_bit_arithmetic(self):
        out = schedule_unicast_ordinary([42], n_rb=25)
        assert out == [(42, 0, 25)]
        bits = 25 * 120 * cqi_efficiency(3, CQI_TABLE)
        assert bits == pytest.approx(1131.0)

    def test_starvation(self):
        assert schedule_unicast_ordinary([1, 2, 3], n_rb=0) == []
        # Fewer RBs than users: only the users given an RB get a slot.
        assert schedule_unicast_ordinary([1, 2, 3], n_rb=2, rr_offset=1) == [
            (2, 0, 1), (3, 1, 1)]

    def test_round_robin_fairness(self):
        out = schedule_unicast_ordinary([1, 2], n_rb=25, rr_offset=0)
        counts = {u: c for u, _, c in out}
        assert abs(counts[1] - counts[2]) <= 1
        # remainder rotates with the offset
        out2 = schedule_unicast_ordinary([1, 2], n_rb=25, rr_offset=1)
        counts2 = {u: c for u, _, c in out2}
        assert counts[1] + counts2[1] == counts[2] + counts2[2] == 25

    def test_slices_cover_without_overlap(self):
        out = schedule_unicast_ordinary([5, 6, 7], n_rb=25, rr_offset=2)
        spans = sorted((s, s + c) for _, s, c in out)
        assert spans[0][0] == 0 and spans[-1][1] == 25
        for (s1, e1), (s2, e2) in zip(spans, spans[1:]):
            assert e1 == s2


class TestBaselineQueue:
    def test_single_recipient_nothing_to_send(self):
        allocations, used = schedule_unicast_cam_baseline([], 25, 100)
        assert allocations == [] and used == 0

    def test_heterogeneous_efficiencies(self):
        items = [("good", 1000.0, cqi_efficiency(10, CQI_TABLE)),
                 ("bad", 1000.0, cqi_efficiency(1, CQI_TABLE))]
        allocations, used = schedule_unicast_cam_baseline(items, 100, 100)
        by_key = {a.key: a for a in allocations}
        assert by_key["good"].rb_count < by_key["bad"].rb_count

    def test_backlog_grows_when_capacity_short(self):
        # offered two packets per period, capacity for roughly one
        queue = []
        backlog = []
        for step in range(40):
            if step % 10 == 0:
                queue.append([f"p{step}a", 2400.0])
                queue.append([f"p{step}b", 2400.0])
            items = [(i, residual, 0.377) for i, (_, residual)
                     in enumerate(queue)]
            allocations, _ = schedule_unicast_cam_baseline(items, 6, 100)
            for alloc in allocations:
                queue[alloc.key][1] = max(
                    queue[alloc.key][1] - alloc.capacity_bits, 0.0)
            queue = [q for q in queue if q[1] > 0]
            backlog.append(sum(q[1] for q in queue))
        window = backlog[::10]
        assert all(b2 > b1 for b1, b2 in zip(window, window[1:]))

    def test_full_grant_carries_a_rounding_error_over_whole_rbs(self):
        # rb_demand's slack prices this residual at exactly 7 RBs; if the
        # grant carried only 7 RBs' worth, one ulp would be left over and
        # priced at 0 RBs in every later TTI.
        eff = cqi_efficiency(3, CQI_TABLE)
        per_rb = 100 * eff
        residual = float(np.nextafter(7 * per_rb, np.inf))
        assert scheduler.rb_demand(residual, 100, eff) == 7
        (alloc,), used = schedule_unicast_cam_baseline(
            [("k", residual, eff)], 25, 100)
        assert used == alloc.rb_count == 7
        assert residual - alloc.capacity_bits <= 0
        # A grant capped by the RBs left carries only those RBs.
        (alloc,), _ = schedule_unicast_cam_baseline(
            [("k", residual, eff)], 5, 100)
        assert alloc.capacity_bits == 5 * per_rb

    def test_residual_below_the_slack_gets_one_rb(self):
        (alloc,), used = scheduler.allocate_fifo([("k", 2400.0, 0.377)], 25,
                                                 10**16)
        assert alloc.rb_count == used == 1

    def test_demand_matches_allocation(self):
        for residual, eff in [(2400.0, 0.377), (1000.0, 5.5547),
                              (3770.0, 0.377), (1.0, 0.1523)]:
            allocs, used = scheduler.allocate_fifo([("k", residual, eff)],
                                                   1000, 100)
            assert used == scheduler.rb_demand(residual, 100, eff)
