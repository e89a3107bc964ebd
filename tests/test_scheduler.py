import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbsfnsim import scheduler
from mbsfnsim.link import cqi_efficiency
from mbsfnsim.scheduler import (CongestionInfeasibleError, SchedulingError,
                                required_subframes, reserved_subframes,
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

    def test_empty_reports_error(self):
        with pytest.raises(SchedulingError):
            select_mbsfn_cqi(np.array([], int), 3)


class TestRequiredSubframes:
    def test_5mhz_needs_six(self):
        assert required_subframes(2400, 21, 25, 100, cqi_efficiency(3),
                                  100) == 6

    def test_20mhz_needs_two(self):
        assert required_subframes(2400, 21, 100, 100, cqi_efficiency(3),
                                  100) == 2

    def test_no_users_no_reservation(self):
        assert required_subframes(2400, 0, 25, 100, cqi_efficiency(3),
                                  100) == 0

    def test_infeasible_demand(self):
        with pytest.raises(CongestionInfeasibleError):
            required_subframes(2400, 21, 25, 100, cqi_efficiency(1), 100)

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            required_subframes(0, 21, 25, 100, 0.377, 100)

    @given(st.integers(1, 40), st.integers(500, 4000), st.integers(1, 15))
    @settings(max_examples=60, deadline=None)
    def test_monotone(self, n_users, bits, cqi):
        eff = cqi_efficiency(cqi)
        def safe(b, n, rb, re_):
            try:
                return required_subframes(b, n, rb, re_, eff, 100)
            except CongestionInfeasibleError:
                return 7
        base = safe(bits, n_users, 25, 100)
        assert safe(bits + 200, n_users, 25, 100) >= base
        assert safe(bits, n_users + 1, 25, 100) >= base
        assert safe(bits, n_users, 100, 100) <= base
        assert safe(bits, n_users, 25, 120) <= base


class TestFramePlan:
    def test_reserved_pattern(self):
        reserved = reserved_subframes(6)
        assert [t for t in range(20) if t % 10 in reserved] == [
            1, 2, 3, 6, 7, 8, 11, 12, 13, 16, 17, 18]

    def test_no_reservation(self):
        assert reserved_subframes(0) == frozenset()

    def test_legal_set_enforced(self):
        with pytest.raises(SchedulingError, match="more than six"):
            reserved_subframes(7)
        with pytest.raises(SchedulingError):
            reserved_subframes(-1)


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
        bound_eff = cqi_efficiency(3)
        high_eff = cqi_efficiency(cqi)
        items = list(enumerate(residuals))
        _, used_bound = schedule_multicast(items, 25, 100, bound_eff)
        _, used_high = schedule_multicast(items, 25, 100, high_eff)
        assert used_high <= used_bound


class TestScheduleOrdinary:
    def test_single_user_bit_arithmetic(self):
        out = schedule_unicast_ordinary([42], n_rb=25)
        assert out == [(42, 0, 25)]
        bits = 25 * 120 * cqi_efficiency(3)
        assert bits == pytest.approx(1131.0)

    def test_starvation(self):
        out = schedule_unicast_ordinary([1, 2, 3], n_rb=0)
        assert all(count == 0 for _, _, count in out)

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
        items = [("good", 1000.0, cqi_efficiency(10)),
                 ("bad", 1000.0, cqi_efficiency(1))]
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
        eff = cqi_efficiency(3)
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


class TestPriceUntilFull:
    """Pricing only the queue head leaves the allocations unchanged."""

    @pytest.mark.parametrize("policy", ["fixed", "adaptive"])
    def test_same_allocations_as_whole_queue(self, policy):
        gen = np.random.default_rng(11)
        for _ in range(300):
            n = int(gen.integers(0, 40))
            residual = gen.choice([0.0, -1.0, 2400.0, 700.0, 37.7, 1.0e4],
                                  size=n)
            residual[gen.random(n) < 0.5] = gen.uniform(1.0, 5000.0)
            if policy == "fixed":
                cqi = np.full(n, int(gen.integers(1, 16)))
            else:
                cqi = gen.integers(1, 16, size=n)
            n_rb = int(gen.choice([6, 25, 100]))
            priced = []

            def efficiency_of(key):
                priced.append(key)
                return cqi_efficiency(int(cqi[key]))

            whole = [(k, residual[k], cqi_efficiency(int(cqi[k])))
                     for k in range(n)]
            head = scheduler.price_until_full(
                ((k, residual[k]) for k in range(n)), efficiency_of, n_rb, 100)
            assert priced == [k for k, _, _ in head]
            assert head == [w for w in whole if w[1] > 0][:len(head)]
            want = scheduler.allocate_fifo(whole, n_rb, 100)
            got = schedule_unicast_cam_baseline(head, n_rb, 100)
            assert got == want
            # Every priced copy is granted RBs.
            assert len(got[0]) == len(head)

    def test_demand_matches_allocation(self):
        for residual, eff in [(2400.0, 0.377), (1000.0, 5.5547),
                              (3770.0, 0.377), (1.0, 0.1523)]:
            allocs, used = scheduler.allocate_fifo([("k", residual, eff)],
                                                   1000, 100)
            assert used == scheduler.rb_demand(residual, 100, eff)
