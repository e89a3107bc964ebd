import math
import pickle
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbsfnsim import channel, link
from mbsfnsim.channel import steering_products
from mbsfnsim.config import ScenarioConfig
from mbsfnsim.delivery import decoder
from mbsfnsim.link import CQI_TABLE, bler, cqi_efficiency


def cqi_threshold_db(cqi_index, table=link.CQI_TABLE) -> float:
    return float(table.thresholds_db[cqi_index - 1])


# Tables that are the standard one but for one value of one entry:
# (CQI index, changed column, value, the reason a CqiTable gives).  Each
# keeps both columns increasing, so only the finite and positive checks
# reject it.
BAD_TABLES = {
    "efficiency_negative": (1, "efficiency", -0.5,
                            "CQI efficiencies must be positive"),
    "efficiency_zero": (1, "efficiency", 0.0,
                        "CQI efficiencies must be positive"),
    "efficiency_nan": (7, "efficiency", math.nan,
                       "CQI efficiencies must be finite"),
    "threshold_nan": (7, "sinr_threshold_db", math.nan,
                      "CQI thresholds_db must be finite"),
    "threshold_inf": (15, "sinr_threshold_db", math.inf,
                      "CQI thresholds_db must be finite"),
}


def write_cqi_table(path, bad=None) -> str:
    """Write the standard CQI table as a `cqi_table_file` CSV, each value
    as its `repr`, so it reads back bitwise; `bad` names a BAD_TABLES
    change to make.  Returns the path."""
    index, column, value, _ = BAD_TABLES[bad] if bad else (None,) * 4
    with open(path, "w") as fh:
        fh.write("index,modulation,efficiency,sinr_threshold_db\n")
        for e in link.CQI_TABLE.entries:
            if e.index == index:
                e = replace(e, **{column: value})
            fh.write(f"{e.index},{e.modulation},{e.efficiency!r},"
                     f"{e.sinr_threshold_db!r}\n")
    return str(path)


def _cqi(sinr_per_rb) -> int:
    """CQI of one RB set through the production row path."""
    rows = np.array([sinr_per_rb], dtype=float)
    return int(link.cqi_from_sinr_rows(rows, link.CQI_TABLE)[0])


def _oracle_cqi(sinr_per_rb) -> int:
    """Explicit mutual-information average, then a linear table scan."""
    mi = np.mean([math.log2(1 + s) for s in sinr_per_rb])
    eff_db = 10 * math.log10(2 ** mi - 1)
    expected = 1
    for entry in link.CQI_TABLE.entries:
        if entry.sinr_threshold_db <= eff_db:
            expected = entry.index
    return expected


def _h(h_per_cell):
    """One user and one RB: h of shape (1, cells, 1)."""
    return np.asarray(h_per_cell, dtype=complex).reshape(1, -1, 1)


def _identity_steering(n_rb):
    """Steering under which taps are RBs: x @ steer is x itself, so a
    channel h (user, cell, rb) passes as scaled taps unchanged."""
    steer = np.eye(n_rb, dtype=complex)
    return steer, steering_products(steer)


def _mc_sinr(h, area, noise_variance) -> np.ndarray:
    """Multicast SINR (user, rb) of h (user, cell, rb) with cells `area`."""
    mask = np.isin(np.arange(h.shape[1]), list(area))
    return link.multicast_sinr_grid(h, mask, *_identity_steering(h.shape[2]),
                                    noise_variance)


def _uc_sinr(h, serving, noise_variance) -> np.ndarray:
    """Unicast SINR (user, rb) of h (user, cell, rb) from per-user cells
    `serving`."""
    return link.sinr_vs_cell(h, np.asarray(serving),
                             *_identity_steering(h.shape[2]), noise_variance)


class TestSinrFormulas:
    def test_multicast_unit_case(self):
        assert _mc_sinr(_h([1.0]), {0}, 1.0)[0, 0] == pytest.approx(1.0)

    def test_multicast_destructive_sum(self):
        assert _mc_sinr(_h([1.0, -1.0]), {0, 1}, 1.0)[0, 0] == \
            pytest.approx(0.0)

    def test_multicast_against_brute_force(self):
        rng = np.random.default_rng(5)
        h = rng.normal(size=19) + 1j * rng.normal(size=19)
        noise = 0.37
        area = set(range(7))
        got = _mc_sinr(_h(h), area, noise)[0, 0]
        # independent term-by-term evaluation
        sig = abs(sum(h[j] for j in range(19) if j in area)) ** 2
        intf = sum(abs(h[l]) ** 2 for l in range(19) if l not in area)
        assert got == pytest.approx(sig / (noise + intf))

    def test_unicast_direct_substitution(self):
        assert _uc_sinr(_h([1.0]), [0], 0.5)[0, 0] == pytest.approx(2.0)

    def test_unicast_symmetric_interference(self):
        g = 0.8
        assert _uc_sinr(_h([g] * 19), [4], 0.0)[0, 0] == \
            pytest.approx(1.0 / 18.0)

    def test_interference_shrinks_under_multicast(self):
        # For a user served by an area cell the multicast denominator can
        # only lose terms relative to the unicast one, per realization.
        rng = np.random.default_rng(11)
        area = set(range(7))
        for _ in range(200):
            h = rng.normal(size=19) + 1j * rng.normal(size=19)
            intf_mc = sum(abs(h[l]) ** 2 for l in range(19) if l not in area)
            serving = int(rng.integers(0, 7))
            intf_uc = sum(abs(h[l]) ** 2 for l in range(19) if l != serving)
            assert intf_mc <= intf_uc + 1e-12

    def test_multicast_beats_unicast_in_distribution(self):
        rng = np.random.default_rng(17)
        n = 1200
        h = rng.normal(size=(n, 19)) + 1j * rng.normal(size=(n, 19))
        # weaker outer ring, as geometry would give
        h[:, 7:] *= 0.6
        noise = 1e-3
        h = h[:, :, None]
        mc = _mc_sinr(h, set(range(7)), noise)[:, 0]
        uc = _uc_sinr(h, np.zeros(n, dtype=int), noise)[:, 0]
        assert np.median(mc) > np.median(uc)

    def test_grid_helpers_match_scalar_ops(self):
        rng = np.random.default_rng(23)
        h = rng.normal(size=(3, 19, 4)) + 1j * rng.normal(size=(3, 19, 4))
        noise = 0.21
        mc = _mc_sinr(h, range(7), noise)
        uc = _uc_sinr(h, [0, 3, 12], noise)
        # term-by-term oracles: area cells add in amplitude, every other
        # cell in power
        for u in range(3):
            for n in range(4):
                sig = abs(sum(h[u, j, n] for j in range(7))) ** 2
                intf = sum(abs(h[u, l, n]) ** 2 for l in range(7, 19))
                assert mc[u, n] == pytest.approx(sig / (noise + intf))
        for u, cell in enumerate((0, 3, 12)):
            for n in range(4):
                sig = abs(h[u, cell, n]) ** 2
                intf = sum(abs(h[u, l, n]) ** 2 for l in range(19)
                           if l != cell)
                assert uc[u, n] == pytest.approx(sig / (noise + intf))


def _h_domain_grids(x, mask, cells, steer, noise):
    """The multicast and unicast SINR grids from the per-RB channel
    h = x @ steer (user, cell, rb), term by term over cells."""
    h = x @ steer
    mc = np.abs(h[:, mask].sum(axis=1)) ** 2 / (
        noise + (np.abs(h[:, ~mask]) ** 2).sum(axis=1))
    uc = np.empty((len(x), steer.shape[1]))
    for u, cell in enumerate(cells):
        rest = np.delete(h[u], cell, axis=0)
        uc[u] = np.abs(h[u, cell]) ** 2 / (
            noise + (np.abs(rest) ** 2).sum(axis=0))
    return mc, uc


def _check_tap_domain(rng, n_users, n_cells, n_area, n_taps, n_rb,
                      amplitude, noise, steer=None):
    if steer is None:
        steer = rng.normal(size=(n_taps, n_rb)) \
            + 1j * rng.normal(size=(n_taps, n_rb))
    x = amplitude[:, :, None] * (
        rng.normal(size=(n_users, n_cells, n_taps))
        + 1j * rng.normal(size=(n_users, n_cells, n_taps)))
    mask = np.zeros(n_cells, dtype=bool)
    mask[rng.permutation(n_cells)[:n_area]] = True
    cells = rng.integers(0, n_cells, size=n_users)
    products = steering_products(steer)
    mc = link.multicast_sinr_grid(x, mask, steer, products, noise)
    uc = link.sinr_vs_cell(x, cells, steer, products, noise)
    want_mc, want_uc = _h_domain_grids(x, mask, cells, steer, noise)
    for got, want in ((mc, want_mc), (uc, want_uc)):
        assert got.shape == (n_users, n_rb)
        assert np.all(np.isfinite(got)) and np.all(got >= 0.0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def _veha_steering(n_rb):
    rb_freqs = (np.arange(n_rb) - (n_rb - 1) / 2.0) * channel.RB_BANDWIDTH_HZ
    bank = channel.FadingBank(np.zeros(1), channel.VEHA_TAP_DELAYS,
                              channel.VEHA_TAP_POWERS_DB, seed=1)
    return bank.steering(rb_freqs)


class TestTapDomainSinr:
    """SINR grids from scaled taps against the per-RB channel h = x @ steer
    they stand for."""

    @pytest.mark.parametrize("n_users, n_cells, n_area, n_taps, n_rb", [
        (0, 19, 7, 6, 25),     # no users (cars_per_cell = 0)
        (4, 19, 7, 1, 25),     # one tap
        (21, 19, 7, 6, 25),    # mc5 / uc5 sources
        (57, 37, 19, 6, 100),  # mc20_rings2 sources
    ])
    def test_benchmark_shapes(self, n_users, n_cells, n_area, n_taps, n_rb):
        rng = np.random.default_rng(n_users * 1000 + n_cells + n_taps)
        steer = _veha_steering(n_rb) if n_taps == 6 else None
        _check_tap_domain(rng, n_users, n_cells, n_area, n_taps, n_rb,
                          np.ones((n_users, n_cells)), 0.3, steer)

    def test_deep_fade(self):
        """Path gains spread over 80 dB around the 20 MHz noise level, so
        most interferers sit far below it and some far above."""
        rng = np.random.default_rng(99)
        amplitude = 10.0 ** -rng.uniform(4.0, 8.0, size=(57, 37))
        noise = channel.noise_variance_normalized(100, 46.0, 9.0)
        _check_tap_domain(rng, 57, 37, 19, 6, 100, amplitude, noise,
                          _veha_steering(100))

    @given(st.integers(0, 6), st.integers(1, 8), st.integers(1, 6),
           st.integers(1, 12), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_random_shapes(self, n_users, n_cells, n_taps, n_rb, seed):
        rng = np.random.default_rng(seed)
        _check_tap_domain(rng, n_users, n_cells,
                          int(rng.integers(0, n_cells + 1)), n_taps, n_rb,
                          np.ones((n_users, n_cells)), 0.05)


class TestCqiMapping:
    def test_floor_of_table(self):
        assert _cqi([10 ** (-1.0)] * 4) == 1

    def test_boundary_inclusive(self):
        thr = cqi_threshold_db(7)
        assert _cqi([10 ** (thr / 10.0)] * 6) == 7

    def test_mixed_rbs_against_oracle(self):
        sinrs = [10 ** 0.0, 10 ** 1.0]  # 0 dB and 10 dB
        assert _cqi(sinrs) == _oracle_cqi(sinrs) == 6

    @given(st.lists(st.floats(1e-4, 1e4), min_size=1, max_size=8),
           st.floats(1.0, 100.0))
    @settings(max_examples=60, deadline=None)
    def test_monotone_under_uniform_scaling(self, sinrs, scale):
        base = _cqi(sinrs)
        scaled = _cqi([s * scale for s in sinrs])
        assert scaled >= base

    def test_effective_sinr_of_equal_rbs(self):
        assert link.effective_sinr_db_rows(np.full((1, 3), 2.5))[0] == \
            pytest.approx(10.0 * math.log10(2.5))


class TestEfficiencyTable:
    def test_anchor_cqi3(self):
        assert cqi_efficiency(3, CQI_TABLE) == pytest.approx(0.377, abs=1e-4)

    def test_top_entry(self):
        assert cqi_efficiency(15, CQI_TABLE) == pytest.approx(6 * 948 / 1024,
                                                              abs=1e-4)

    def test_strictly_increasing(self):
        for k in range(1, 15):
            assert (cqi_efficiency(k + 1, CQI_TABLE)
                    > cqi_efficiency(k, CQI_TABLE))
            assert cqi_threshold_db(k + 1) > cqi_threshold_db(k)

    def test_replacement_table(self, tmp_path):
        path = tmp_path / "table.csv"
        with open(path, "w") as fh:
            fh.write("index,modulation,efficiency,sinr_threshold_db\n")
            for e in link.CQI_TABLE.entries:
                fh.write(f"{e.index},{e.modulation},{e.efficiency * 2},"
                         f"{e.sinr_threshold_db + 1.0}\n")
        table = link.load_cqi_table(path)
        assert cqi_efficiency(3, table) == pytest.approx(0.754, abs=1e-4)
        assert cqi_threshold_db(3, table) == pytest.approx(-1.3)
        assert cqi_efficiency(3, CQI_TABLE) == pytest.approx(0.377, abs=1e-4)
        assert not any(t.flags.writeable for t in (
            link.CQI_TABLE.thresholds_db, link.CQI_TABLE.efficiencies,
            table.thresholds_db, table.efficiencies))

    def test_invalid_replacement_rejected(self):
        entries = list(link.CQI_TABLE.entries)
        entries[5] = link.CqiEntry(6, "QPSK", entries[4].efficiency,
                                   entries[5].sinr_threshold_db)
        with pytest.raises(ValueError):
            link.CqiTable(tuple(entries))
        with pytest.raises(ValueError):
            link.CqiTable(tuple(entries[:-1]))

    @pytest.mark.parametrize("bad", sorted(BAD_TABLES))
    def test_nonfinite_or_nonpositive_value_rejected(self, tmp_path, bad):
        index, column, value, reason = BAD_TABLES[bad]
        entries = list(link.CQI_TABLE.entries)
        entries[index - 1] = replace(entries[index - 1], **{column: value})
        with pytest.raises(ValueError, match=f"^{reason}$"):
            link.CqiTable(tuple(entries))
        with pytest.raises(ValueError, match=f"^{reason}$"):
            link.load_cqi_table(write_cqi_table(tmp_path / "bad.csv", bad))

    def test_unpickled_table_is_read_only(self):
        table = pickle.loads(pickle.dumps(link.CQI_TABLE))
        assert table.entries == link.CQI_TABLE.entries
        assert not any(t.flags.writeable for t in (
            table.thresholds_db, table.efficiencies))


def _decode(seed):
    """The engine's decode path at the config's default BLER slope."""
    return decoder(ScenarioConfig(), np.random.default_rng(seed))


class TestDecoding:
    def test_far_above_threshold(self):
        thr = cqi_threshold_db(5)
        assert bler(thr + 30.0, 5, 1.0, CQI_TABLE) < 1e-3
        assert _decode(1)(np.full(1000, thr + 30.0), 5).all()

    def test_far_below_threshold(self):
        thr = cqi_threshold_db(5)
        assert bler(thr - 20.0, 5, 1.0, CQI_TABLE) > 0.999
        assert not _decode(2)(np.full(1000, thr - 20.0), 5).any()

    def test_error_rate_at_threshold(self):
        thr = cqi_threshold_db(8)
        n = 10_000
        errors = int((~_decode(3)(np.full(n, thr), 8)).sum())
        assert errors / n == pytest.approx(0.1, abs=0.02)

    def test_bler_monotone_decreasing(self):
        grid = np.linspace(-20.0, 30.0, 101)
        values = bler(grid, 6, 1.0, CQI_TABLE)
        assert np.all(np.diff(values) <= 0)
        # strictly decreasing where the curve is not saturated
        active = np.linspace(cqi_threshold_db(6) - 4.0,
                             cqi_threshold_db(6) + 4.0, 41)
        assert np.all(np.diff(bler(active, 6, 1.0, CQI_TABLE)) < 0)

    def test_bler_cqi_array_matches_scalar_calls(self):
        gen = np.random.default_rng(4)
        eff_db = gen.uniform(-15.0, 30.0, 200)
        cqi = gen.integers(1, 16, 200)
        batched = bler(eff_db, cqi, 1.5, CQI_TABLE)
        for x, c, p in zip(eff_db, cqi, batched):
            assert bler(np.array([x]), int(c), 1.5, CQI_TABLE)[0] == p

    def test_bler_exact_at_anchor(self):
        for cqi in (1, 7, 15):
            assert bler(cqi_threshold_db(cqi), cqi, 1.0,
                        CQI_TABLE) == pytest.approx(0.1)


class TestRowHelpers:
    def test_rows_independent_of_batch(self):
        gen = np.random.default_rng(9)
        rows = 10.0 ** (gen.uniform(-15.0, 30.0, (40, 25)) / 10.0)
        eff_db = link.effective_sinr_db_rows(rows)
        cqi = link.cqi_from_sinr_rows(rows, link.CQI_TABLE)
        for k in range(len(rows)):
            assert link.effective_sinr_db_rows(rows[k:k + 1])[0] == eff_db[k]
            assert link.cqi_from_sinr_rows(rows[k:k + 1],
                                           link.CQI_TABLE)[0] == cqi[k]
            assert cqi[k] == _oracle_cqi(rows[k])


def grouped_slices(sinr, rows, starts, counts):
    """`effective_sinr_db_slices` as one (n, length) gather per distinct
    slice length, each evaluated by `effective_sinr_db_rows`."""
    out = np.empty(len(counts))
    for length in np.unique(counts):
        group = np.flatnonzero(counts == length)
        out[group] = link.effective_sinr_db_rows(
            sinr[rows[group, None], starts[group, None] + np.arange(length)])
    return out


class TestSlices:
    @pytest.mark.parametrize("n_rb", [25, 100])
    def test_bitwise_as_grouped_rows(self, n_rb):
        """One log2 pass with whole-row and per-slice sums gives every
        slice bitwise the value of its per-length gather, for full-width
        and 1-RB slices and SINRs of exactly 0."""
        gen = np.random.default_rng(n_rb)
        for _ in range(1500):
            n_rows = int(gen.integers(1, 30))
            sinr = 10.0 ** gen.uniform(-3.0, 3.0, (n_rows, n_rb))
            sinr[gen.random(sinr.shape) < 0.1] = 0.0
            sinr[gen.integers(n_rows)] *= gen.integers(2)
            n = int(gen.integers(1, 25))
            counts = gen.integers(1, n_rb + 1, n)
            counts[gen.random(n) < 0.3] = n_rb
            counts[gen.random(n) < 0.2] = 1
            starts = gen.integers(0, n_rb - counts + 1)
            rows = gen.integers(0, n_rows, n)
            np.testing.assert_array_equal(
                link.effective_sinr_db_slices(sinr, rows, starts, counts),
                grouped_slices(sinr, rows, starts, counts))
