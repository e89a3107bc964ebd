import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbsfnsim import engine
from mbsfnsim.delivery import (MulticastDelivery, UnicastDelivery, _CopyJob,
                               _McastJob)
from mbsfnsim.traffic import (CamPacket, UserBuffer, consume, draw_offsets,
                              maybe_generate)


def _buffer(offset=7, period=100, bits=2400):
    return UserBuffer(user_id=0, offset=offset, period=period,
                      packet_bits=bits)


def _jobs(bits=2400):
    """A multicast job and a unicast copy job of a fresh `bits` packet."""
    return (_McastJob(0, 0, frozenset({1}), float(bits)),
            _CopyJob(0, 0, 1, float(bits)))


def _deliveries():
    """A multicast and a unicast delivery of source 0 to receiver 1, both
    dropped in cell 0; they keep the jobs of the messages added."""
    cfg = engine.ScenarioConfig()
    row_of = {0: 0, 1: 1}
    return (MulticastDelivery(cfg, [0], None, row_of, None, None, 1.0),
            UnicastDelivery(cfg, [0], {0: 0, 1: 0}, None, row_of, None, 1.0))


def _job_of(delivery):
    """The one job a delivery keeps."""
    jobs = list(delivery.pending.values())
    if isinstance(delivery, UnicastDelivery):
        jobs = [job for queue in jobs for job in queue.values()]
    (job,) = jobs
    return job


class TestGeneration:
    def test_on_phase(self):
        buf = _buffer()
        pkt = maybe_generate(buf, 107)
        assert isinstance(pkt, CamPacket)
        assert pkt.size_bits == 2400
        assert pkt.generation_tti == 107

    def test_off_phase(self):
        buf = _buffer()
        assert maybe_generate(buf, 108) is None

    def test_first_packet_at_offset(self):
        buf = _buffer(offset=90)
        assert all(maybe_generate(buf, t) is None for t in range(90))
        assert maybe_generate(buf, 90) is not None

    def test_replacement_discards_partial_progress(self):
        buf = _buffer()
        deliveries = _deliveries()
        pkt = maybe_generate(buf, 7)
        for delivery in deliveries:
            delivery.add(pkt, {1})
            consume(_job_of(delivery), 1440)   # 60% delivered
            assert _job_of(delivery).residual == 960
        pkt = maybe_generate(buf, 107)
        assert pkt.sequence == 1
        for delivery in deliveries:
            delivery.add(pkt, {1})
            job = _job_of(delivery)
            assert job.sequence == 1
            assert job.residual == 2400     # fresh packet, old progress gone

    def test_sequences_increment(self):
        buf = _buffer(offset=0)
        seqs = [maybe_generate(buf, t).sequence for t in (0, 100, 200)]
        assert seqs == [0, 1, 2]

    def test_negative_tti_rejected(self):
        with pytest.raises(ValueError):
            maybe_generate(_buffer(), -1)

    @given(st.integers(0, 99), st.integers(1, 5))
    @settings(max_examples=30, deadline=None)
    def test_exactly_k_packets_per_k_periods(self, offset, k):
        buf = _buffer(offset=offset)
        count = sum(maybe_generate(buf, t) is not None
                    for t in range(k * 100))
        assert count == k


class TestConsume:
    def test_partial_drain(self):
        for job in _jobs():
            consume(job, 1000)
            assert job.residual == 1400

    def test_clamp_at_zero(self):
        for job in _jobs():
            consume(job, 3000)
            assert job.residual == 0

    def test_negative_bits_rejected(self):
        for job in _jobs():
            with pytest.raises(ValueError):
                consume(job, -1.0)

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
