import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbsfnsim import metrics
from mbsfnsim.metrics import (EcdfCurve, LatencyRecorder, close_packet, ecdf,
                              latency_curves, predicted_throughput_ratio,
                              utilization)


def assert_same_curve(a, b):
    if a is None or b is None:
        assert a is b
        return
    np.testing.assert_array_equal(a.values, b.values)
    np.testing.assert_array_equal(a.probs, b.probs)


def counting_cdf(samples, x) -> float:
    """Brute-force oracle: fraction of samples less than or equal to x."""
    return sum(1 for s in samples if s <= x) / len(samples)


class TestClosePacket:
    def test_plain_subtraction(self):
        entry = close_packet(0, 0, 107, 121, k_losses=0)
        assert entry.latency_ttis == 14

    def test_two_replacements(self):
        # replacement delivered 14 TTIs into its own period, two periods on
        entry = close_packet(0, 0, 107, 107 + 14 + 2 * 100, k_losses=2)
        assert entry.latency_ttis == 214
        assert entry.replacements == 2


class TestScriptedLossPatterns:
    def _trace(self, fail_periods: int, period=100, offset=7, within=14):
        """Hand-traced schedule: a single recipient fails every block for
        `fail_periods` whole periods, then receives cleanly."""
        rec = LatencyRecorder([0], period)
        delivered_at = None
        for k in range(fail_periods + 1):
            gen = offset + k * period
            rec.on_generation(0, k, gen, receivers={9})
            if k < fail_periods:
                rec.on_delivery(0, k, gen + within, satisfied_receivers=set())
            else:
                delivered_at = gen + within
                rec.on_delivery(0, k, delivered_at, satisfied_receivers={9})
        return rec, delivered_at

    @pytest.mark.parametrize("k", [0, 1, 2])
    def test_latency_accumulates_whole_periods(self, k):
        rec, _ = self._trace(k)
        first = [e for e in rec.entries if e.sequence == 0][0]
        assert first.latency_ttis == 14 + k * 100
        assert first.replacements == k

    def test_one_delivery_closes_all_superseded(self):
        rec, delivered_at = self._trace(2)
        assert len(rec.entries) == 3
        for e in rec.entries:
            assert e.delivery_tti == delivered_at
        assert rec.n_open == 0


class TestEcdf:
    def test_single_sample(self):
        curve = ecdf([5.0])
        assert curve.evaluate(5.0) == 1.0
        assert curve.evaluate(4.9) == 0.0

    def test_quartiles(self):
        curve = ecdf([1, 2, 3, 4])
        assert curve.evaluate(2.0) == pytest.approx(0.5)

    def test_against_counting_oracle(self):
        rng = np.random.default_rng(8)
        samples = rng.normal(size=1000)
        curve = ecdf(samples)
        queries = rng.uniform(-3, 3, size=100)
        for x in queries:
            assert curve.evaluate(x) == counting_cdf(samples, x)

    def test_probabilities_well_formed(self):
        curve = ecdf([3, 1, 2, 2, 5])
        assert np.all(np.diff(curve.probs) > 0)
        assert curve.probs[-1] == 1.0
        assert np.all(np.diff(curve.values) > 0)


class TestLatencyCdfs:
    """The latency views of a (packet x user) matrix: each user (column)
    is one source's latency list."""

    def test_combined_flatten(self):
        L = np.array([[10.0, 20.0], [10.0, 20.0]])
        curve = latency_curves(L.T).combined
        assert curve.evaluate(10.0) == 0.5
        assert curve.evaluate(20.0) == 1.0

    def test_combined_degenerate(self):
        curve = latency_curves(np.full((4, 3), 7.0).T).combined
        assert curve.values.tolist() == [7.0]
        assert curve.evaluate(6.99) == 0.0

    def test_combined_equals_ecdf_of_flat(self):
        rng = np.random.default_rng(12)
        L = rng.integers(1, 400, size=(50, 20)).astype(float)
        a = latency_curves(L.T).combined
        b = ecdf(L.ravel())
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.probs, b.probs)

    def test_mean_column_average(self):
        L = np.array([[10.0, 20.0], [30.0, 20.0]])
        curve = latency_curves(L.T).mean
        assert curve.values.tolist() == [20.0]

    def test_mean_collapses_for_single_packet(self):
        L = np.array([[13.0, 5.0, 99.0]])
        curves = latency_curves(L.T)
        a, b = curves.mean, curves.combined
        np.testing.assert_array_equal(a.values, b.values)
        np.testing.assert_array_equal(a.probs, b.probs)

    def test_grand_mean_identity(self):
        rng = np.random.default_rng(13)
        L = rng.uniform(1, 500, size=(50, 20))
        curves = latency_curves(L.T)
        assert curves.mean.mean() == pytest.approx(
            curves.combined.mean(), rel=1e-12)

    def test_individual_columns(self):
        L = np.array([[10.0, 30.0], [20.0, 40.0]])
        curves = latency_curves(L.T).individual
        assert len(curves) == 2
        assert curves[0].values.tolist() == [10.0, 20.0]
        assert curves[1].values.tolist() == [30.0, 40.0]

    def test_identical_columns_identical_curves(self):
        L = np.tile(np.array([[3.0], [9.0]]), (1, 4))
        curves = latency_curves(L.T).individual
        for c in curves[1:]:
            np.testing.assert_array_equal(c.values, curves[0].values)
            np.testing.assert_array_equal(c.probs, curves[0].probs)

    def test_partition_identity(self):
        rng = np.random.default_rng(14)
        L = rng.integers(1, 300, size=(50, 20)).astype(float)
        curves = latency_curves(L.T)
        pooled = np.sort(np.concatenate(
            [c.samples for c in curves.individual]))
        np.testing.assert_array_equal(pooled, curves.combined.samples)

    @given(st.integers(1, 30), st.integers(1, 10), st.integers(0, 2 ** 31),
           st.lists(st.lists(st.integers(1, 1000), max_size=30), max_size=10),
           st.integers(0, 10))
    @settings(max_examples=30, deadline=None)
    def test_identities_hold_on_random_matrices(self, n_pkt, n_ue, seed,
                                                ragged, empty_at):
        rng = np.random.default_rng(seed)
        L = rng.uniform(1, 1000, size=(n_pkt, n_ue))
        matrix = latency_curves(L.T)
        assert matrix.mean.mean() == pytest.approx(matrix.combined.mean())
        pooled = np.sort(np.concatenate(
            [c.samples for c in matrix.individual]))
        np.testing.assert_array_equal(pooled, matrix.combined.samples)
        # The matrix views are the per-source views of the columns.
        views = latency_curves(list(L.T))
        assert_same_curve(matrix.combined, views.combined)
        assert_same_curve(matrix.mean, views.mean)
        for a, b in zip(matrix.individual, views.individual, strict=True):
            assert_same_curve(a, b)
        # Ragged per-source lists with at least one source that closed
        # nothing, as under congestion.
        ragged.insert(min(empty_at, len(ragged)), [])
        curves = latency_curves(ragged)
        flat = [x for v in ragged for x in v]
        assert_same_curve(curves.combined, ecdf(flat) if flat else None)
        assert_same_curve(curves.mean, ecdf([np.mean(v) for v in ragged if v])
                          if flat else None)
        for v, curve in zip(ragged, curves.individual, strict=True):
            assert_same_curve(curve, ecdf(v) if v else None)


class TestUtilization:
    def test_boundary(self):
        assert utilization(1000, 10, 100, 100, 1.0) == pytest.approx(100.0)

    def test_inverse_in_efficiency(self):
        half = utilization(2400, 21, 2500, 100, 0.377)
        assert utilization(2400, 21, 2500, 100, 0.754) == pytest.approx(half / 2)

    def test_standard_scenario_calibration(self):
        # full 100 ms grid at 5 MHz, default usable REs, CQI 3
        value = utilization(2400, 21, 25 * 100, 100, 0.377)
        assert value == pytest.approx(52.0, abs=2.0)

    def test_overload_reported_not_clamped(self):
        assert utilization(2400, 21 * 20, 7 * 2500, 100, 0.377) > 100.0


class TestPredictedRatio:
    def test_reference_values(self):
        assert predicted_throughput_ratio(0.52, 25, 0.157, 100) == \
            pytest.approx(7.025)

    def test_identity(self):
        assert predicted_throughput_ratio(0.3, 50, 0.3, 50) == 1.0

    def test_pure_bandwidth_scaling(self):
        assert predicted_throughput_ratio(0.0, 25, 0.0, 100) == 4.0

    def test_infeasible_utilization(self):
        assert math.isnan(predicted_throughput_ratio(1.0, 25, 0.2, 100))
        assert math.isnan(predicted_throughput_ratio(0.2, 25, 1.2, 100))


class TestRecorderMembership:
    def test_exit_unblocks_entries(self):
        rec = LatencyRecorder([0], period=100)
        rec.on_generation(0, 0, 10, receivers={1, 2})
        rec.on_delivery(0, 0, 30, satisfied_receivers={1})
        assert rec.n_open == 1
        rec.on_receiver_exit(2, 250)
        assert rec.n_open == 0
        entry = rec.entries[-1]
        assert entry.latency_ttis == 240
        assert entry.replacements == 2

    def test_exit_does_not_close_unrelated(self):
        rec = LatencyRecorder([0], period=100)
        rec.on_generation(0, 0, 10, receivers=set())
        rec.on_receiver_exit(5, 50)
        assert rec.n_open == 1  # still waiting for transmit completion
        rec.on_delivery(0, 0, 25, satisfied_receivers=set())
        assert rec.n_open == 0
        assert rec.entries[-1].latency_ttis == 15
