import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from mbsfnsim import engine
from mbsfnsim.delivery import (MulticastDelivery, UnicastDelivery, _CopyJob,
                               _McastJob)
from mbsfnsim.traffic import consume, draw_offsets, maybe_generate


def _by_phase(offsets):
    """The phase table of sources 0, 1, ... with generation `offsets`."""
    table = {}
    for src, offset in enumerate(offsets):
        table.setdefault(offset, []).append(src)
    return table


def _jobs(bits=2400):
    """A multicast job and a unicast copy job of a fresh `bits` packet."""
    return (_McastJob(0, 0, frozenset({1}), float(bits)),
            _CopyJob(0, 0, 1, float(bits)))


def _deliveries():
    """A multicast and a unicast delivery of source 0 to receiver 1, both
    dropped in cell 0; they keep the jobs of the messages added."""
    cfg = engine.ScenarioConfig()
    return (MulticastDelivery(cfg, [0], None, 2, None, None, 1.0),
            UnicastDelivery(cfg, [0], [0, 0], None, None, 1.0))


def _job_of(delivery):
    """The one job a delivery keeps."""
    jobs = list(delivery.pending.values())
    if isinstance(delivery, UnicastDelivery):
        jobs = [job for queue in jobs for job in queue.values()]
    (job,) = jobs
    return job


class TestGeneration:
    def test_on_phase(self):
        sources, sequence = maybe_generate(_by_phase([7]), 100, 107)
        assert list(sources) == [0] and sequence == 1

    def test_off_phase(self):
        sources, _ = maybe_generate(_by_phase([7]), 100, 108)
        assert not sources

    def test_first_packet_at_offset(self):
        by_phase = _by_phase([90])
        assert not any(maybe_generate(by_phase, 100, t)[0]
                       for t in range(90))
        assert maybe_generate(by_phase, 100, 90) == ([0], 0)

    def test_replacement_discards_partial_progress(self):
        deliveries = _deliveries()
        for delivery in deliveries:
            delivery.add(0, 0, 7, {1})
            consume(_job_of(delivery), 1440)   # 60% delivered
            assert _job_of(delivery).residual == 960
        for delivery in deliveries:
            delivery.add(0, 1, 107, {1})
            job = _job_of(delivery)
            assert job.sequence == 1
            assert job.residual == 2400     # fresh packet, old progress gone

    def test_sequences_increment(self):
        by_phase = _by_phase([0])
        assert [maybe_generate(by_phase, 100, t)[1]
                for t in (0, 100, 200)] == [0, 1, 2]

    @given(st.integers(0, 99), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_exactly_k_packets_per_k_periods(self, offset, k):
        by_phase = _by_phase([offset])
        count = sum(len(maybe_generate(by_phase, 100, t)[0])
                    for t in range(k * 100))
        assert count == k

    @given(st.data(), st.integers(1, 120), st.integers(0, 6))
    @settings(max_examples=60, deadline=None)
    def test_matches_a_per_source_counter(self, data, period, n_sources):
        """Each TTI gives the sources in their phase, in drop order, and
        the sequence a counter per source, started at its offset and
        stepped at each of its messages, would give."""
        offsets = data.draw(st.lists(st.integers(0, period - 1),
                                     min_size=n_sources, max_size=n_sources))
        horizon = data.draw(st.integers(1, 5 * period))
        by_phase = _by_phase(offsets)
        counter = [0] * n_sources
        for tti in range(horizon):
            expected = []
            for src, offset in enumerate(offsets):
                if tti >= offset and (tti - offset) % period == 0:
                    expected.append((src, counter[src]))
                    counter[src] += 1
            sources, sequence = maybe_generate(by_phase, period, tti)
            assert [(src, sequence) for src in sources] == expected


class TestConsume:
    def test_partial_drain(self):
        for job in _jobs():
            consume(job, 1000)
            assert job.residual == 1400

    def test_clamp_at_zero(self):
        for job in _jobs():
            consume(job, 3000)
            assert job.residual == 0

    def test_non_increasing_between_generations(self):
        rng = np.random.default_rng(4)
        for job in _jobs():
            history = [job.residual]
            for _ in range(40):
                consume(job, float(rng.integers(0, 200)))
                history.append(job.residual)
            assert all(b >= a for a, b in zip(history[1:], history))


class TestOffsets:
    def test_deterministic_and_in_range(self):
        a = draw_offsets(21, 100, seed=9)
        b = draw_offsets(21, 100, seed=9)
        np.testing.assert_array_equal(a, b)
        assert np.all((0 <= a) & (a < 100))

    def test_spread_over_period(self):
        offsets = draw_offsets(2000, 100, seed=1)
        counts = np.bincount(offsets, minlength=100)
        assert counts.min() > 0  # uniform draw covers the whole period
