import functools
import gc
import logging
import math
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from scipy.special import j0

from mbsfnsim import channel, engine
from mbsfnsim.channel import (ChannelModel, FadingBank, draw_shadowing,
                              noise_variance_normalized, normalized_tap_powers)
from test_engine import reaped, recorded_forks


def direct_tap_gains(bank, t) -> np.ndarray:
    """The direct cosine sum of `bank`'s moving pairs at time(s) t seconds,
    (len(t), n_pairs, n_taps): the oracle that the bank's phasor recurrence
    must match."""
    t = np.atleast_1d(np.asarray(t, dtype=float))
    # Oscillator axis last, so each sum runs over contiguous cosines.
    w, phase = (np.ascontiguousarray(np.moveaxis(a, 0, -1))
                for a in (bank._w, bank._phase))
    g = np.cos(w[None] * t[:, None, None, None, None]
               + phase[None]).sum(axis=-1)
    return 1.0 / math.sqrt(channel.N_OSCILLATORS) * (g[:, 0] + 1j * g[:, 1])


def direct_coefficients(bank, t, freq_offsets_hz) -> np.ndarray:
    """Fading per pair and frequency from the direct sum: (len(t),
    n_pairs, n_freqs)."""
    return direct_tap_gains(bank, t) @ bank.steering(freq_offsets_hz)


def every_tti_model(*args, **kwargs):
    """A ChannelModel that may be read at any TTI below 4096; `engine.run`
    passes the mask of the TTIs it reads."""
    return ChannelModel(*args, evaluated_ttis=np.ones(4096, dtype=bool),
                        **kwargs)


def _amplitude(distances_m, shadowing_db):
    """ChannelModel.amplitude_gain of users at `distances_m` from one cell."""
    n = len(distances_m)
    pos = np.column_stack([distances_m, np.zeros(n)])
    shadow = np.asarray(shadowing_db, dtype=float).reshape(n, 1)
    model = every_tti_model(np.zeros((1, 2)), pos, np.zeros(n), shadow,
                            2.14e9, 1, seed=0)
    return model.amplitude_gain(pos, slice(None))[:, 0]


class TestMacroscopicGain:
    def test_reference_distance(self):
        assert channel.pathloss_db(1000.0) == pytest.approx(128.1)
        assert _amplitude([1000.0], [0.0])[0] == pytest.approx(
            10.0 ** (-128.1 / 20.0))

    def test_shadowing_is_additive_db_offset(self):
        base, shifted = _amplitude([1000.0, 1000.0], [0.0, 6.0])
        assert shifted / base == pytest.approx(10.0 ** (6.0 / 20.0))

    def test_distance_doubling_slope(self):
        near, far = channel.pathloss_db([700.0, 1400.0])
        assert far - near == pytest.approx(37.6 * math.log10(2.0))

    def test_clamp_and_warning(self, caplog):
        with caplog.at_level(logging.WARNING):
            g = _amplitude([0.0], [0.0])[0]
        assert "clamped" in caplog.text
        assert channel.pathloss_db(0.0) == pytest.approx(
            128.1 + 37.6 * math.log10(35.0 / 1000.0))
        assert _amplitude([10.0], [0.0])[0] == pytest.approx(g)

    def test_monotone_in_distance(self):
        d = np.linspace(50, 3000, 40)
        pl = channel.pathloss_db(d)
        assert np.all(np.diff(pl) > 0)


class TestFading:
    def test_tap_powers_normalized(self):
        p = normalized_tap_powers(channel.VEHA_TAP_POWERS_DB)
        assert p.sum() == pytest.approx(1.0, abs=1e-12)
        assert len(p) == 6

    def test_zero_doppler_is_static(self):
        bank = FadingBank(np.array([0.0]), channel.VEHA_TAP_DELAYS,
                          channel.VEHA_TAP_POWERS_DB, seed=3)
        values = direct_coefficients(bank, np.array([0.0, 0.5, 2.0]),
                                     np.array([0.0]))[:, 0, 0]
        assert values[0] == pytest.approx(values[1])
        assert values[0] == pytest.approx(values[2])

    def test_single_tap_unit_power(self):
        # Time average over many coherence times of a single Rayleigh tap.
        bank = FadingBank(np.array([200.0]), (0.0,), (0.0,), seed=11)
        t = np.arange(10_000) * 1e-3
        h = direct_coefficients(bank, t, np.array([0.0]))[:, 0, 0]
        mean_power = float(np.mean(np.abs(h) ** 2))
        assert mean_power == pytest.approx(1.0, abs=0.05)

    def test_rayleigh_envelope_moments(self):
        bank = FadingBank(np.full(500, 100.0), (0.0,), (0.0,), seed=5)
        g = direct_tap_gains(bank, np.array([0.0, 1.0]))[:, :, 0].ravel()
        assert np.mean(np.abs(g) ** 2) == pytest.approx(1.0, abs=0.05)
        assert np.mean(g.real) == pytest.approx(0.0, abs=0.05)
        assert np.mean(g.imag) == pytest.approx(0.0, abs=0.05)

    def test_autocorrelation_matches_bessel(self):
        # Ensemble autocorrelation of many independent single-tap processes
        # against the isotropic-scattering oracle J0(2 pi fd tau).
        fd = 150.0
        n_real = 800
        bank = FadingBank(np.full(n_real, fd), (0.0,), (0.0,), seed=7)
        dt = 2e-4
        n_lags = int(0.5 / fd / dt) + 1
        t = np.arange(n_lags) * dt
        g = direct_tap_gains(bank, t)[:, :, 0]
        corr = np.array([np.mean((g[k] * np.conj(g[0])).real)
                         for k in range(n_lags)])
        oracle = j0(2.0 * math.pi * fd * t)
        rms = float(np.sqrt(np.mean((corr - oracle) ** 2)))
        assert rms < 0.05

    def test_frequency_correlation_profile(self):
        # Nearby frequencies move together, far ones decorrelate; the far
        # point sits at the null of the two dominant taps (310 ns apart).
        bank = FadingBank(np.full(800, 50.0), channel.VEHA_TAP_DELAYS,
                          channel.VEHA_TAP_POWERS_DB, seed=9)
        freqs = np.array([0.0, 15e3, 1.6e6])
        h = direct_coefficients(bank, 0.0, freqs)[0]
        def corr(a, b):
            num = np.mean(a * np.conj(b))
            return abs(num) / math.sqrt(np.mean(np.abs(a) ** 2)
                                        * np.mean(np.abs(b) ** 2))
        assert corr(h[:, 0], h[:, 1]) > 0.9
        assert corr(h[:, 0], h[:, 2]) < 0.3

    @pytest.mark.parametrize("doppler, t0_tti, n, tol", [
        pytest.param((120.0, 80.0), 0, 32, {"atol": 1e-9}, id="t0_zero"),
        # Full blocks late in a run, at the default 100 km/h and 2.14 GHz,
        # walked from the anchor at TTI 0 on a one-chunk bank: the
        # recurrence's drift stays at rounding level.
        pytest.param((channel.doppler_frequency(100.0 / 3.6, 2.14e9),) * 2,
                     10_000, channel.BLOCK_LEN, {"rtol": 1e-9},
                     id="t0_late_full_block"),
        pytest.param((channel.doppler_frequency(100.0 / 3.6, 2.14e9),) * 2,
                     100_000, channel.BLOCK_LEN, {"rtol": 1e-9},
                     id="t0_late"),
    ])
    def test_block_path_matches_direct_evaluation(self, doppler, t0_tti, n,
                                                  tol):
        bank = FadingBank(np.array(doppler), channel.VEHA_TAP_DELAYS,
                          channel.VEHA_TAP_POWERS_DB, seed=13)
        direct = direct_tap_gains(bank, (t0_tti + np.arange(n))
                                  * channel.TTI_S)
        block = bank.block_tap_gains(t0_tti, range(n))
        np.testing.assert_allclose(block, direct, **tol)

    @pytest.mark.parametrize("steps", [
        [0], [channel.BLOCK_LEN - 1], [0, channel.BLOCK_LEN - 1],
        [1, 2, 6, 7, 11, 12, 16, 17, 61, 62], [5, 6, 40], [],
    ])
    def test_sparse_block_rows_equal_dense_rows(self, steps):
        """Rows at irregular steps are bitwise the dense block's rows."""
        bank = FadingBank(np.array([150.0, 0.0, 60.0]),
                          channel.VEHA_TAP_DELAYS,
                          channel.VEHA_TAP_POWERS_DB, seed=4)
        dense = bank.block_tap_gains(128, range(channel.BLOCK_LEN))
        sparse = bank.block_tap_gains(128, steps)
        assert sparse.shape == (len(steps), 3, bank.n_taps)
        np.testing.assert_array_equal(sparse, dense[steps])


def _two_pass_recurrence(bank, start, steps):
    """The phasor recurrence as one pass per quadrature over all pairs,
    oscillator axis last: anchored at TTI 0, `z *= r` per TTI up to the
    block's last step, `z.real.sum(axis=2)` at each TTI start + step."""
    out = np.empty((len(steps), bank.n_pairs, bank.n_taps), dtype=complex)
    for q, part in enumerate((out.real, out.imag)):
        w = np.ascontiguousarray(np.moveaxis(bank._w[:, q], 0, -1))
        phase = np.ascontiguousarray(np.moveaxis(bank._phase[:, q], 0, -1))
        z = np.exp(1j * phase)
        r = np.exp(1j * (w * channel.TTI_S))
        at = 0
        for k, step in enumerate(steps):
            for _ in range(start + step - at):
                z *= r
            at = start + step
            part[k] = z.real.sum(axis=2)
    out *= 1.0 / math.sqrt(channel.N_OSCILLATORS)
    return out


class TestChunkedRecurrence:
    """block_tap_gains steps the pairs in chunks of CHUNK_PAIRS; a bank of
    2 * CHUNK_PAIRS + 7 pairs ends in a ragged chunk."""

    N_PAIRS = 2 * channel.CHUNK_PAIRS + 7
    SPARSE = [1, 2, 6, 7, 61, 62]

    def _doppler(self):
        doppler = np.linspace(0.0, 240.0, self.N_PAIRS)
        doppler[::11] = 0.0
        return doppler

    def _bank(self, seed=9):
        return FadingBank(self._doppler(), channel.VEHA_TAP_DELAYS,
                          channel.VEHA_TAP_POWERS_DB, seed)

    @pytest.mark.parametrize("chunk", [7, channel.CHUNK_PAIRS])
    def test_draws_per_chunk_equal_full_size_draws(self, chunk, monkeypatch):
        """The frequencies, computed in place, and the phases, drawn a chunk
        of pairs at a time, are bitwise those of full-size draws: theta,
        then each quadrature's (pairs, taps, oscillators) phases."""
        monkeypatch.setattr(channel, "CHUNK_PAIRS", chunk)
        bank = self._bank()
        rng = np.random.default_rng(np.random.SeedSequence([9, 0xFAD, 0]))
        n = channel.N_OSCILLATORS
        shape = (self.N_PAIRS, bank.n_taps, n)
        m = np.arange(1, n + 1, dtype=float)
        theta = rng.uniform(-math.pi, math.pi, size=shape[:2])
        alpha = (2.0 * math.pi * m - math.pi + theta[..., None]) / (4.0 * n)
        wd = 2.0 * math.pi * self._doppler()
        for q, trig in enumerate((np.cos, np.sin)):
            np.testing.assert_array_equal(
                bank._w[:, q], np.moveaxis(wd[:, None, None] * trig(alpha),
                                           -1, 0))
            np.testing.assert_array_equal(
                bank._phase[:, q],
                np.moveaxis(rng.uniform(-math.pi, math.pi, size=shape), -1, 0))

    # A block a few blocks into the run.
    LATE = 3 * channel.BLOCK_LEN

    @pytest.mark.parametrize("t0_tti", [0, LATE])
    @pytest.mark.parametrize("steps", [range(channel.BLOCK_LEN), SPARSE, [0]],
                             ids=["dense", "sparse", "first"])
    def test_rows_independent_of_worker_count(self, steps, t0_tti):
        """Rows are bitwise the same with the chunks inline (no pool) and on
        pools of 1, 2 and 3 workers, in the bank's first block and in the
        same block asked for again after a later read, which anchors the
        phasors again; `shutdown` joins the workers."""
        rows = {}
        for n in (0, 1, 2, 3):
            pool = ThreadPoolExecutor(n) if n else None
            before = set(threading.enumerate())
            bank = self._bank()
            first = bank.block_tap_gains(t0_tti, steps, pool)
            bank.block_tap_gains(t0_tti, [1], pool)
            workers = set(threading.enumerate()) - before
            assert (len(workers) > 0) == (n > 0)
            assert len(workers) <= n
            rows[n] = first, bank.block_tap_gains(t0_tti, steps, pool)
            if pool is not None:
                pool.shutdown()
            assert not any(t.is_alive() for t in workers)
        for n in (1, 2, 3):
            for got, want in zip(rows[n], rows[0]):
                np.testing.assert_array_equal(got, want)
        np.testing.assert_array_equal(rows[0][0], rows[0][1])

    @pytest.mark.parametrize("t0_tti", [0, LATE])
    @pytest.mark.parametrize("steps", [range(channel.BLOCK_LEN), SPARSE, [0]],
                             ids=["dense", "sparse", "first"])
    def test_bitwise_equal_two_pass_recurrence(self, steps, t0_tti):
        """A bank's first block, anchored at TTI 0 and walked to its
        reads, and the bank's next block, stepped on from the first one's
        last read, are bitwise the two-pass recurrence."""
        bank = self._bank()
        for start in (t0_tti, t0_tti + channel.BLOCK_LEN):
            np.testing.assert_array_equal(
                bank.block_tap_gains(start, steps),
                _two_pass_recurrence(bank, start, steps))

    @pytest.mark.parametrize("chunk", [1, 7, N_PAIRS + 1])
    def test_rows_independent_of_chunk_size(self, chunk, monkeypatch):
        expected = self._bank().block_tap_gains(128, self.SPARSE)
        monkeypatch.setattr(channel, "CHUNK_PAIRS", chunk)
        np.testing.assert_array_equal(
            self._bank().block_tap_gains(128, self.SPARSE), expected)

    def test_pool_passes_one_phasor_buffer_per_worker(self, monkeypatch):
        """59 chunks of 7 pairs on 4 workers, more than the host's CPUs,
        with a short switch interval: each chunk steps phasors of its own,
        so two blocks' rows stay bitwise the inline ones, which phasors
        stepped by two chunks at once would break."""
        monkeypatch.setattr(channel, "CHUNK_PAIRS", 7)
        starts = [0, channel.BLOCK_LEN]
        inline = self._bank()
        expected = [inline.block_tap_gains(start, self.SPARSE)
                    for start in starts]
        bank = self._bank()
        pool = ThreadPoolExecutor(4)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = [bank.block_tap_gains(start, self.SPARSE, pool)
                   for start in starts]
        finally:
            sys.setswitchinterval(interval)
            pool.shutdown()
        for rows, want in zip(got, expected):
            np.testing.assert_array_equal(rows, want)

    def test_rotation_built_once_and_never_for_static_rows(self,
                                                           monkeypatch):
        """Each chunk of a bank takes one complex exp pass for its phasors,
        in the bank's first block, and one for its rotations, in its first
        block that steps; every later block in order takes none.  A block
        asked for before the phasors' TTI anchors them again, one pass per
        chunk, and a new bank builds its own."""
        passes = []
        exp = np.exp

        def counted_exp(x, *args, **kwargs):
            if np.iscomplexobj(x):
                passes.append(x.shape)
            return exp(x, *args, **kwargs)

        monkeypatch.setattr(np, "exp", counted_exp)
        bank, n = self._bank(), channel.BLOCK_LEN
        n_chunks = -(-bank.n_pairs // channel.CHUNK_PAIRS)
        assert n_chunks == 3

        def block_passes(bank, start, steps):
            passes.clear()
            bank.block_tap_gains(start, steps)
            return len(passes)

        assert block_passes(bank, 0, [0]) == n_chunks
        assert block_passes(bank, n, self.SPARSE) == n_chunks
        assert block_passes(bank, 2 * n, self.SPARSE) == 0
        assert block_passes(bank, 3 * n, [0]) == 0
        assert block_passes(bank, 4 * n, []) == 0
        assert block_passes(bank, n, self.SPARSE) == n_chunks
        assert block_passes(FadingBank(self._doppler()[:5],
                                       channel.VEHA_TAP_DELAYS,
                                       channel.VEHA_TAP_POWERS_DB, 9),
                            0, [0, 1]) == 2
        bank = self._bank()
        assert block_passes(bank, 2 * n, self.SPARSE) == 2 * n_chunks
        assert block_passes(bank, 3 * n, self.SPARSE) == 0

    def test_block_before_the_phasors_gives_in_order_rows(self):
        """Blocks asked for out of order, before the TTI the phasors stand
        at, give bitwise the rows of the same blocks asked for in order."""
        bank, n = self._bank(), channel.BLOCK_LEN
        in_order = [bank.block_tap_gains(start, self.SPARSE)
                    for start in (0, n, 2 * n)]
        for k in (1, 0, 2, 1):
            np.testing.assert_array_equal(
                bank.block_tap_gains(k * n, self.SPARSE), in_order[k])

    @pytest.mark.parametrize("chunk", [7, channel.CHUNK_PAIRS])
    def test_static_pairs_bitwise_first_row_of_held_ones(self, chunk,
                                                         monkeypatch):
        """A bank's `n_static` trailing zero-Doppler pairs, more than two
        chunks of them, hold only their tap gains: bitwise the t = 0 row of
        a bank that holds them.  The pairs it holds, zero-Doppler ones
        among them, keep the held bank's draws and rows."""
        monkeypatch.setattr(channel, "CHUNK_PAIRS", chunk)
        n_static = 2 * channel.CHUNK_PAIRS + 7
        split = FadingBank(self._doppler(), channel.VEHA_TAP_DELAYS,
                           channel.VEHA_TAP_POWERS_DB, 9, n_static=n_static)
        held = FadingBank(np.r_[self._doppler(), np.zeros(n_static)],
                          channel.VEHA_TAP_DELAYS, channel.VEHA_TAP_POWERS_DB,
                          9)
        moving, static = slice(0, self.N_PAIRS), slice(self.N_PAIRS, None)
        assert split.static.shape == (n_static, split.n_taps)
        np.testing.assert_array_equal(
            split.static, held.block_tap_gains(0, [0])[0, static])
        np.testing.assert_array_equal(split._w, held._w[:, :, moving])
        np.testing.assert_array_equal(split._phase, held._phase[:, :, moving])
        np.testing.assert_array_equal(
            split.block_tap_gains(0, self.SPARSE),
            held.block_tap_gains(0, self.SPARSE)[:, moving])


def _small_model(pos, doppler=(100.0, 0.0), n_rb=4, shadow_std=0.0,
                 seed=1):
    """Users at `pos` with the given Doppler shifts against three cells."""
    cells = np.array([[0.0, 0.0], [500.0, 0.0], [250.0, 433.0]])
    shadow = draw_shadowing(len(pos), len(cells), shadow_std, seed)
    return every_tti_model(cells, pos, np.asarray(doppler) * 3e8 / 2.14e9,
                           shadow, 2.14e9, n_rb, seed), cells


def _moving_gamma(model, pos):
    """The moving users' amplitude, as the engine passes it to snapshot."""
    m = model.n_moving
    return model.amplitude_gain(pos[:m], slice(0, m))


class TestChannelModel:
    def test_static_channel_repeats(self):
        """An all-static model has no snapshot rows; its `static` taps,
        fixed at construction, give the channel evaluated afresh at a later
        TTI."""
        pos = np.array([[100.0, 50.0], [300.0, 10.0]])
        model, cells = _small_model(pos, doppler=(0.0, 0.0))
        gamma = _moving_gamma(model, pos)
        n_taps = len(channel.VEHA_TAP_DELAYS)
        assert gamma.shape == (0, len(cells))
        assert model.snapshot(0, gamma).shape == (0, len(cells), n_taps)
        assert model.snapshot(5, gamma).shape == (0, len(cells), n_taps)
        bank = FadingBank(np.zeros(2 * len(cells)), channel.VEHA_TAP_DELAYS,
                          channel.VEHA_TAP_POWERS_DB, seed=1)
        fading_t5 = direct_coefficients(bank, 5e-3, model.rb_freqs)[0].reshape(
            2, len(cells), model.n_rb)
        np.testing.assert_allclose(
            model.static @ model.steer,
            model.amplitude_gain(pos, slice(None))[:, :, None] * fading_t5,
            atol=1e-9)

    def test_composition_identity(self):
        """One user, one cell: the steered snapshot equals macroscopic gain
        times fading."""
        cells = np.array([[0.0, 0.0]])
        shadow = np.array([[4.0]])
        pos = np.array([[840.0, 0.0]])
        model = every_tti_model(cells, pos, np.array([20.0]), shadow,
                                2.14e9, 1, seed=21)
        h = model.snapshot(3, _moving_gamma(model, pos)) @ model.steer
        bank = FadingBank(np.array([channel.doppler_frequency(20.0, 2.14e9)]),
                          channel.VEHA_TAP_DELAYS, channel.VEHA_TAP_POWERS_DB,
                          seed=21)
        fading = direct_coefficients(bank, 3e-3, model.rb_freqs[:1])[0, 0, 0]
        gamma = 10.0 ** ((-channel.pathloss_db(840.0) + 4.0) / 20.0)
        assert h[0, 0, 0] == pytest.approx(gamma * fading, rel=1e-6)

    def test_mean_power_tracks_macroscopic_gain(self):
        pos = np.array([[120.0, 40.0]])
        model, _ = _small_model(pos, n_rb=2, doppler=(150.0,))
        gamma = _moving_gamma(model, pos)
        powers = []
        for tti in range(4000):
            h = model.snapshot(tti, gamma) @ model.steer
            powers.append(np.abs(h[0, :, 0]) ** 2)
        mean_power = np.mean(powers, axis=0)
        gamma_sq = gamma[0] ** 2
        np.testing.assert_allclose(mean_power, gamma_sq, rtol=0.05)

    def test_same_seed_same_sequence(self):
        pos = np.array([[100.0, 50.0], [300.0, 10.0]])
        m1, _ = _small_model(pos, seed=33)
        m2, _ = _small_model(pos, seed=33)
        np.testing.assert_array_equal(m1.static, m2.static)
        for tti in (0, 17, 64):
            np.testing.assert_array_equal(
                m1.snapshot(tti, _moving_gamma(m1, pos)),
                m2.snapshot(tti, _moving_gamma(m2, pos)))


class TestStaticMovingSplit:
    """The split model against one unsplit FadingBank over all pairs."""

    CELLS = np.array([[0.0, 0.0], [500.0, 0.0], [250.0, 433.0],
                      [-250.0, 433.0]])

    def _oracle(self, model, speeds, pos, tti, seed):
        doppler = np.repeat([channel.doppler_frequency(s, 2.14e9)
                             for s in speeds], len(self.CELLS))
        full = FadingBank(doppler, channel.VEHA_TAP_DELAYS,
                          channel.VEHA_TAP_POWERS_DB, seed)
        start = (tti // channel.BLOCK_LEN) * channel.BLOCK_LEN
        gains = full.block_tap_gains(start, range(channel.BLOCK_LEN))[
            tti - start]
        np.testing.assert_array_equal(model.steer,
                                      full.steering(model.rb_freqs))
        return (model.amplitude_gain(pos, slice(None))[:, :, None]
                * gains.reshape(len(speeds), len(self.CELLS), full.n_taps))

    @pytest.mark.parametrize("speeds", [
        (27.8, 13.9, 0.0, 0.0, 0.0),   # moving sources, static ordinary
        (0.0, 0.0, 0.0),               # car_speed_kmh = 0: no moving pairs
        (27.8, 20.0, 5.0),             # no static pairs
    ])
    def test_snapshot_bitwise_equals_unsplit_bank(self, speeds):
        seed = 17
        n = len(speeds)
        shadow = draw_shadowing(n, len(self.CELLS), 8.0, seed)
        pos = np.column_stack([np.linspace(60.0, 700.0, n),
                               np.linspace(-40.0, 300.0, n)])
        model = every_tti_model(self.CELLS, pos, np.array(speeds), shadow,
                                2.14e9, 6, seed)
        assert model.n_moving == sum(s > 0 for s in speeds)
        for tti in (0, 63, 64, 130):
            moving = model.snapshot(tti, _moving_gamma(model, pos))
            assert moving.shape == (model.n_moving, len(self.CELLS),
                                    len(channel.VEHA_TAP_DELAYS))
            np.testing.assert_array_equal(
                np.concatenate((moving, model.static)),
                self._oracle(model, speeds, pos, tti, seed))

    def test_static_rows_take_no_phasor_and_no_frequency(self, monkeypatch):
        """Building a model with 3 moving and 120 static users (480 static
        pairs, three chunks) takes no complex exp pass but the steering's
        and no trig over the static pairs' frequencies: one cosine pass
        per chunk of their phases and quadrature.  Its `static` is bitwise
        the t = 0 row of a bank over all pairs."""
        calls = []

        def counted(f):
            def call(x, *args, **kwargs):
                calls.append((f.__name__, np.iscomplexobj(x), np.shape(x)))
                return f(x, *args, **kwargs)
            return call

        for name in ("exp", "cos", "sin"):
            monkeypatch.setattr(np, name, counted(getattr(np, name)))
        speeds = np.r_[27.8, 13.9, 20.0, np.zeros(120)]
        pos = np.column_stack([np.linspace(60.0, 700.0, 123),
                               np.linspace(-40.0, 300.0, 123)])
        shadow = draw_shadowing(123, len(self.CELLS), 8.0, 17)
        model = every_tti_model(self.CELLS, pos, speeds, shadow, 2.14e9, 6,
                                seed=17)
        monkeypatch.undo()
        n_taps, chunk = len(channel.VEHA_TAP_DELAYS), channel.CHUNK_PAIRS
        alpha = (channel.N_OSCILLATORS, 3 * len(self.CELLS), n_taps)
        static = [(channel.N_OSCILLATORS, n, n_taps)
                  for n in (chunk, chunk, 480 - 2 * chunk)]
        assert calls == ([("cos", False, alpha), ("sin", False, alpha)]
                         + [("cos", False, shape) for shape in 2 * static]
                         + [("exp", True, (n_taps, 6))])
        doppler = np.repeat([channel.doppler_frequency(s, 2.14e9)
                             for s in speeds], len(self.CELLS))
        full = FadingBank(doppler, channel.VEHA_TAP_DELAYS,
                          channel.VEHA_TAP_POWERS_DB, 17)
        gains = full.block_tap_gains(0, [0])[0, 3 * len(self.CELLS):]
        np.testing.assert_array_equal(
            model.static,
            model.amplitude_gain(pos[3:], slice(3, None))[:, :, None]
            * gains.reshape(120, len(self.CELLS), n_taps))

    def test_snapshots_do_not_share_memory(self):
        """A kept snapshot (e.g. a delayed report's) is not overwritten by
        a later one, even within one block of tap gains."""
        pos = np.array([[100.0, 50.0], [300.0, 10.0], [-80.0, 200.0]])
        model = every_tti_model(self.CELLS, pos, np.array([27.8, 13.9, 0.0]),
                                np.zeros((3, len(self.CELLS))), 2.14e9, 6,
                                seed=1)
        gamma = _moving_gamma(model, pos)
        a = model.snapshot(0, gamma)
        kept = a.copy()
        b = model.snapshot(1, gamma)
        assert not np.shares_memory(a, b)
        assert not np.shares_memory(a, model.static)
        np.testing.assert_array_equal(a, kept)
        assert not np.array_equal(a, b)

    def test_amplitude_rows_match_all_users(self):
        shadow = draw_shadowing(5, len(self.CELLS), 8.0, 3)
        pos = np.column_stack([np.linspace(10.0, 900.0, 5),
                               np.linspace(-300.0, 40.0, 5)])
        model = every_tti_model(self.CELLS, pos, np.zeros(5), shadow,
                                2.14e9, 6, seed=3)
        full = model.amplitude_gain(pos, slice(None))
        np.testing.assert_array_equal(
            model.amplitude_gain(pos[1:4], slice(1, 4)), full[1:4])

    def test_evaluated_ttis_bitwise_equal_unrestricted(self):
        """A model restricted to some subframes gives, at every TTI it
        reads, the unrestricted model's snapshot, over several blocks."""
        pos = np.array([[100.0, 50.0], [300.0, 10.0], [-80.0, 200.0]])
        speeds = np.array([27.8, 13.9, 0.0])
        shadow = draw_shadowing(3, len(self.CELLS), 8.0, 5)
        n_tti = 3 * channel.BLOCK_LEN + 10
        evaluated = np.isin(np.arange(n_tti) % 10, [1, 2, 6, 7, 9])
        full = every_tti_model(self.CELLS, pos, speeds, shadow, 2.14e9, 6, 5)
        part = ChannelModel(self.CELLS, pos, speeds, shadow, 2.14e9, 6, 5,
                            evaluated_ttis=evaluated)
        np.testing.assert_array_equal(part.static, full.static)
        gamma = _moving_gamma(full, pos)
        for tti in np.flatnonzero(evaluated).tolist():
            np.testing.assert_array_equal(part.snapshot(tti, gamma),
                                          full.snapshot(tti, gamma))

    def test_block_freed_after_its_last_read(self):
        """Handing out the row of a block's last read TTI frees the block's
        tap gains; the snapshots already handed out keep their values."""
        pos = np.array([[100.0, 50.0], [300.0, 10.0]])
        evaluated = np.isin(np.arange(2 * channel.BLOCK_LEN) % 10, [1, 6])
        model = ChannelModel(self.CELLS, pos, np.array([27.8, 0.0]),
                             np.zeros((2, len(self.CELLS))), 2.14e9, 6,
                             seed=1, evaluated_ttis=evaluated)
        gamma = _moving_gamma(model, pos)
        ttis = np.flatnonzero(evaluated[:channel.BLOCK_LEN]).tolist()
        kept = [model.snapshot(tti, gamma) for tti in ttis[:-1]]
        assert model._gains is not None
        kept.append(model.snapshot(ttis[-1], gamma))
        assert model._gains is None and model._rows == {}
        want = _two_pass_recurrence(model.bank, 0, ttis).reshape(
            len(ttis), 1, len(self.CELLS), -1)
        for got, rows in zip(kept, want):
            np.testing.assert_array_equal(got, gamma[:, :, None] * rows)

    @pytest.mark.parametrize("block_len", [16, 64, 100])
    def test_snapshots_independent_of_block_len(self, block_len,
                                                monkeypatch):
        """Over several blocks of any length, each snapshot is bitwise the
        two-pass recurrence, walked from TTI 0, times the amplitude."""
        monkeypatch.setattr(channel, "BLOCK_LEN", block_len)
        pos = np.array([[100.0, 50.0], [300.0, 10.0], [-80.0, 200.0]])
        evaluated = np.isin(np.arange(300) % 10, [1, 2, 6, 7, 9])
        model = ChannelModel(self.CELLS, pos, np.array([27.8, 13.9, 0.0]),
                             draw_shadowing(3, len(self.CELLS), 8.0, 5),
                             2.14e9, 6, 5, evaluated_ttis=evaluated)
        ttis = np.flatnonzero(evaluated).tolist()
        gains = _two_pass_recurrence(model.bank, 0, ttis).reshape(
            len(ttis), model.n_moving, len(self.CELLS), -1)
        gamma = _moving_gamma(model, pos)
        for tti, want in zip(ttis, gains):
            np.testing.assert_array_equal(model.snapshot(tti, gamma),
                                          gamma[:, :, None] * want)

    def test_forked_child_snapshots_bitwise_inline(self, monkeypatch):
        """A model whose blocks a forked child steps gives the inline
        model's snapshots bitwise, also when the caller reads no TTI of
        some blocks, which the child steps anyway; `close` reaps the
        child.  A mask that reads one block only forks nothing."""
        pos = np.array([[100.0, 50.0], [300.0, 10.0], [-80.0, 200.0]])
        args = (self.CELLS, pos, np.array([27.8, 13.9, 0.0]),
                draw_shadowing(3, len(self.CELLS), 8.0, 5), 2.14e9, 6, 5)
        evaluated = np.isin(np.arange(6 * channel.BLOCK_LEN) % 10,
                            [1, 2, 6, 7, 9])
        fork = functools.partial(engine.forked, 2)
        pids = recorded_forks(monkeypatch)
        inline = ChannelModel(*args, evaluated_ttis=evaluated)
        gamma = _moving_gamma(inline, pos)
        lone = ChannelModel(
            *args, evaluated_ttis=evaluated[:channel.BLOCK_LEN], fork=fork)
        np.testing.assert_array_equal(lone.snapshot(1, gamma),
                                      inline.snapshot(1, gamma))
        lone.close()
        assert pids == []
        child = ChannelModel(*args, evaluated_ttis=evaluated, fork=fork)
        try:
            for tti in np.flatnonzero(evaluated).tolist():
                if tti // channel.BLOCK_LEN in (0, 2, 5):
                    np.testing.assert_array_equal(child.snapshot(tti, gamma),
                                                  inline.snapshot(tti, gamma))
        finally:
            child.close()
        assert len(pids) == 1 and reaped(pids[0])

    def test_dropped_model_reaps_its_child(self, monkeypatch):
        """A model dropped mid-run without `close` still kills and reaps
        its fading child, when its blocks' generator is collected."""
        pos = np.array([[100.0, 50.0], [300.0, 10.0]])
        evaluated = np.isin(np.arange(4 * channel.BLOCK_LEN) % 10, [1, 6])
        pids = recorded_forks(monkeypatch)
        model = ChannelModel(self.CELLS, pos, np.array([27.8, 0.0]),
                             np.zeros((2, len(self.CELLS))), 2.14e9, 6,
                             seed=1, evaluated_ttis=evaluated,
                             fork=functools.partial(engine.forked, 2))
        model.snapshot(1, _moving_gamma(model, pos))
        assert len(pids) == 1
        del model
        gc.collect()
        assert reaped(pids[0])

    def test_unread_block_leaves_the_child_stepping(self, monkeypatch):
        """A snapshot in a block the mask does not read raises KeyError
        before the model asks its fading child for a block: the child
        still steps every later block, and this process steps none."""
        pos = np.array([[100.0, 50.0], [300.0, 10.0]])
        n = channel.BLOCK_LEN
        evaluated = np.zeros(4 * n, dtype=bool)
        evaluated[[1, 2 * n + 1, 3 * n + 1]] = True
        args = (self.CELLS, pos, np.array([27.8, 0.0]),
                np.zeros((2, len(self.CELLS))), 2.14e9, 6, 1, evaluated)
        inline = ChannelModel(*args)
        pids = recorded_forks(monkeypatch)
        model = ChannelModel(*args, fork=functools.partial(engine.forked, 2))
        gamma = _moving_gamma(model, pos)
        model.snapshot(1, gamma)
        stepped, chunk_rows = [], FadingBank._chunk_rows

        def counted(bank, *rest):
            stepped.append(rest)
            return chunk_rows(bank, *rest)

        monkeypatch.setattr(FadingBank, "_chunk_rows", counted)
        try:
            with pytest.raises(KeyError):
                model.snapshot(n + 1, gamma)
            got = [model.snapshot(t, gamma) for t in (2 * n + 1, 3 * n + 1)]
        finally:
            model.close()
        assert stepped == [] and len(pids) == 1 and reaped(pids[0])
        monkeypatch.undo()
        for t, rows in zip((2 * n + 1, 3 * n + 1), got):
            np.testing.assert_array_equal(rows, inline.snapshot(t, gamma))

    @pytest.mark.parametrize("tti", [0, 3, 64, 200])
    def test_snapshot_at_unread_tti_rejected(self, tti):
        """A TTI the mask does not read has no row of tap gains."""
        pos = np.array([[100.0, 50.0], [300.0, 10.0]])
        evaluated = np.isin(np.arange(100) % 10, [1, 2, 6])
        model = ChannelModel(self.CELLS, pos, np.array([27.8, 0.0]),
                             np.zeros((2, len(self.CELLS))), 2.14e9, 6,
                             seed=1, evaluated_ttis=evaluated)
        gamma = _moving_gamma(model, pos)
        model.snapshot(1, gamma)
        with pytest.raises(KeyError):
            model.snapshot(tti, gamma)


def test_noise_variance_arithmetic():
    # -174 dBm/Hz + 9 dB over 180 kHz against 43 dBm split over 25 RBs.
    noise_dbm = -174.0 + 9.0 + 10.0 * math.log10(180e3)
    tx_dbm = 43.0 - 10.0 * math.log10(25)
    expected = 10.0 ** ((noise_dbm - tx_dbm) / 10.0)
    assert noise_variance_normalized(25, 43.0, 9.0) == pytest.approx(expected)


def test_draw_shadowing_deterministic():
    a = draw_shadowing(4, 3, 8.0, seed=2)
    b = draw_shadowing(4, 3, 8.0, seed=2)
    np.testing.assert_array_equal(a, b)
    assert a.shape == (4, 3)
    assert np.std(draw_shadowing(200, 19, 8.0, seed=3)) == pytest.approx(
        8.0, rel=0.1)
