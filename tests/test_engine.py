import logging
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbsfnsim import channel, engine, link, scheduler, topology
from mbsfnsim.engine import ScenarioConfig, derived_seeds, replicate, run


def small_config(**overrides):
    defaults = dict(n_tti=400, seed=5)
    defaults.update(overrides)
    return ScenarioConfig(**defaults)


class TestConfig:
    def test_defaults_match_standard_setup(self):
        cfg = ScenarioConfig()
        assert cfg.bandwidth_mhz == 5 and cfg.n_rb == 25
        assert cfg.users_per_cell == 6 and cfg.cars_per_cell == 3
        assert cfg.cam_size_bits == 2400
        assert cfg.cam_period_ttis == 100
        assert cfg.car_speed_ms == pytest.approx(100 / 3.6)
        assert cfg.carrier_ghz == 2.14

    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioConfig(bandwidth_mhz=10).validate()
        with pytest.raises(ValueError):
            ScenarioConfig(mode="broadcast").validate()
        with pytest.raises(ValueError):
            ScenarioConfig(cqi_policy="fixed", cqi_value=0).validate()
        with pytest.raises(ValueError):
            ScenarioConfig(cars_per_cell=7).validate()
        ScenarioConfig(cqi_policy="adaptive", cqi_value=0).validate()
        # A float field takes an int.
        ScenarioConfig(car_speed_kmh=100, tx_power_dbm=43).validate()

    @pytest.mark.parametrize("field, value, others", [
        ("bler_slope_db_per_decade", 0.0, {}),
        ("bler_slope_db_per_decade", -1.0, {}),
        ("users_per_cell", 0, {"cars_per_cell": 0}),
        ("users_per_cell", -2, {}),
        ("car_speed_kmh", -30.0, {}),
        ("usable_re_per_rb", 0, {}),
        ("carrier_ghz", 0.0, {}),
        ("carrier_ghz", -2.14, {}),
        ("shadowing_std_db", -1.0, {}),
        ("cars_per_cell", -1, {}),
        ("seed", -1, {}),
        ("mbsfn_rings", -1, {}),
        ("interference_rings", 0, {}),
        ("car_speed_kmh", float("nan"), {}),
        ("bler_slope_db_per_decade", float("nan"), {}),
        ("tx_power_dbm", float("inf"), {}),
        ("noise_figure_db", float("-inf"), {}),
        ("inter_site_distance_m", float("inf"), {}),
        ("inter_site_distance_m", float("nan"), {}),
        # Declared types: a bool is neither an int nor a float.
        ("perfect_decode", "no", {}),
        ("cars_per_cell", 2.5, {}),
        ("n_tti", 10.5, {}),
        ("cqi_value", 3.7, {}),
        ("seed", True, {}),
        ("car_speed_kmh", False, {}),
        ("reassign_unused_subframes", 1, {}),
        ("mode", 1, {}),
        ("cqi_table_file", None, {}),
    ])
    def test_validation_names_field(self, field, value, others):
        cfg = ScenarioConfig(**{field: value, **others})
        with pytest.raises(ValueError, match=field):
            cfg.validate()
        short = {} if field == "n_tti" else {"n_tti": 1}
        with pytest.raises(ValueError, match=field):
            run(replace(cfg, **short))

    def test_hash_tracks_content(self):
        a = ScenarioConfig()
        b = ScenarioConfig(seed=2)
        assert a.content_hash() != b.content_hash()
        assert a.content_hash() == ScenarioConfig().content_hash()

    def test_roundtrip_dict(self):
        cfg = ScenarioConfig(mode="unicast_baseline", cqi_policy="adaptive",
                             cqi_value=5, n_tti=123)
        again = ScenarioConfig(**cfg.to_dict())
        again.validate()
        assert again == cfg


class TestRunBasics:
    def test_zero_ttis_valid_empty(self):
        rec = run(small_config(n_tti=0))
        assert rec.entries == []
        assert rec.n_open_entries == 0
        assert np.isnan(rec.mean_latency_tti())
        assert len(rec.sources) == 21

    def test_deterministic_records(self):
        a = run(small_config())
        b = run(small_config())
        assert a.entries == b.entries
        assert a.n_open_entries == b.n_open_entries
        assert a.ordinary_throughput_mbps == b.ordinary_throughput_mbps
        np.testing.assert_array_equal(a.multicast_rb_per_tti,
                                      b.multicast_rb_per_tti)

    def test_rb_conservation_and_reserved_pattern(self):
        rec = run(small_config())
        assert rec.reserved_per_frame == 6
        assert np.all(rec.multicast_rb_per_tti <= 25)
        for tti, used in enumerate(rec.multicast_rb_per_tti):
            if used:
                assert tti % 10 in (1, 2, 3, 6, 7, 8)

    def test_sources_are_area_cars(self):
        rec = run(small_config(n_tti=0))
        assert len(rec.sources) == 21

    def test_latencies_positive(self):
        rec = run(small_config())
        assert rec.entries
        assert all(e.latency_ttis >= 1 for e in rec.entries)


def test_one_pathloss_evaluation_per_tti(monkeypatch):
    """Handover and the channel snapshot share each TTI's macroscopic gain:
    one `pathloss_db` call per TTI, plus one for the static rows at set-up."""
    calls = []
    original = channel.pathloss_db

    def counted(distance_m):
        calls.append(np.shape(distance_m))
        return original(distance_m)

    monkeypatch.setattr(channel, "pathloss_db", counted)
    cfg = small_config(n_tti=64, shadowing_std_db=8.0)
    rec = run(cfg)
    assert cfg.car_speed_kmh > 0 and rec.sources
    assert len(calls) <= cfg.n_tti + 1, calls[:4]


def test_no_zero_rb_grants(monkeypatch):
    """Unicast at 20 MHz with an unbounded adaptive CQI: here some copies'
    residuals land a rounding error above whole RBs, and every such copy
    must still finish with the grant that priced it."""
    grants = []
    original = scheduler.allocate_fifo

    def recorded(*args):
        allocations, used = original(*args)
        grants.extend(a.rb_count for a in allocations)
        return allocations, used

    monkeypatch.setattr(scheduler, "allocate_fifo", recorded)
    run(ScenarioConfig(mode="unicast_baseline", bandwidth_mhz=20,
                       cqi_policy="adaptive", cqi_value=0, n_tti=400, seed=3))
    assert grants and min(grants) > 0, grants.count(0)


def test_one_unicast_sinr_grid_per_tti(monkeypatch):
    """Unicast CQI pricing and decoding both read the TTI's one (source, rb)
    SINR grid: one `sinr_vs_cell` call per TTI, plus one for the ordinary
    users at set-up."""
    calls = []
    original = link.sinr_vs_cell

    def counted(*args):
        calls.append(len(args[0]))
        return original(*args)

    monkeypatch.setattr(link, "sinr_vs_cell", counted)
    cfg = ScenarioConfig(mode="unicast_baseline", cqi_policy="adaptive",
                         n_tti=256, seed=1)
    rec = run(cfg)
    assert rec.cam_rb_per_tti.any()
    assert len(calls) <= cfg.n_tti + 1, calls[:4]


def test_multicast_grid_only_in_reserved_subframes(monkeypatch):
    """A fixed-CQI multicast run with no report delay reads link state only
    in reserved subframes with a message pending: one snapshot and one
    `multicast_sinr_grid` call in each TTI that sends and none in any
    other."""
    grid_calls, snapshot_ttis = [], []
    grid, snapshot = link.multicast_sinr_grid, channel.ChannelModel.snapshot

    def counted_grid(*args):
        grid_calls.append(args[0].shape)
        return grid(*args)

    def recorded_snapshot(model, tti, gamma):
        snapshot_ttis.append(tti)
        return snapshot(model, tti, gamma)

    monkeypatch.setattr(link, "multicast_sinr_grid", counted_grid)
    monkeypatch.setattr(channel.ChannelModel, "snapshot", recorded_snapshot)
    cfg = ScenarioConfig(n_tti=256, seed=1)
    rec = run(cfg)
    assert cfg.cqi_policy == engine.POLICY_FIXED and rec.sources
    reserved = scheduler.reserved_subframes(rec.reserved_per_frame)
    assert 0 < len(reserved) < scheduler.SUBFRAMES_PER_FRAME
    assert snapshot_ttis == np.flatnonzero(rec.multicast_rb_per_tti).tolist()
    assert all(t % scheduler.SUBFRAMES_PER_FRAME in reserved
               for t in snapshot_ttis)
    assert len(snapshot_ttis) == 133
    assert len(grid_calls) == len(snapshot_ttis)


def test_ordinary_stage_once_per_cell_state(monkeypatch):
    """Ordinary users are static, so a cell's slots, bits and error
    probabilities depend only on its state (cell, RBs left, round-robin
    offset): `ordinary_stage` runs only in TTIs with a state not seen
    before.  A multicast subframe leaves each area cell either all RBs or
    none, so the states that reach the stage number at most the area
    cells times their ordinary users per cell."""
    calls = []
    original = engine.ordinary_stage

    def counted(slots, *args):
        calls.append(len(slots))
        return original(slots, *args)

    monkeypatch.setattr(engine, "ordinary_stage", counted)
    cfg = ScenarioConfig(n_tti=256, seed=1)
    rec = run(cfg)
    n_area = len(topology.build_layout(
        cfg.mbsfn_rings, cfg.interference_rings,
        cfg.inter_site_distance_m).mbsfn_cells)
    n_states = n_area * (cfg.users_per_cell - cfg.cars_per_cell)
    assert rec.ordinary_throughput_mbps and calls
    assert len(calls) <= n_states, calls


def test_fixed_cqi_reads_no_delayed_report(monkeypatch):
    """A fixed CQI reads no report, so a report delay adds no snapshot:
    a fixed-CQI multicast run with a delay of 3 evaluates the channel only
    in the reserved subframes that send."""
    snapshot_ttis = []
    snapshot = channel.ChannelModel.snapshot

    def recorded_snapshot(model, tti, gamma):
        snapshot_ttis.append(tti)
        return snapshot(model, tti, gamma)

    monkeypatch.setattr(channel.ChannelModel, "snapshot", recorded_snapshot)
    cfg = ScenarioConfig(n_tti=256, seed=1, cqi_feedback_delay_tti=3)
    rec = run(cfg)
    assert snapshot_ttis == np.flatnonzero(rec.multicast_rb_per_tti).tolist()
    assert len(snapshot_ttis) == 133


def test_unicast_reads_link_state_only_where_copies_are_sent(monkeypatch):
    """A fixed-CQI unicast run evaluates the channel only in the TTIs in
    which some copy is granted RBs."""
    snapshot_ttis = []
    snapshot = channel.ChannelModel.snapshot

    def recorded_snapshot(model, tti, gamma):
        snapshot_ttis.append(tti)
        return snapshot(model, tti, gamma)

    monkeypatch.setattr(channel.ChannelModel, "snapshot", recorded_snapshot)
    rec = run(ScenarioConfig(mode="unicast_baseline", n_tti=256, seed=1))
    assert snapshot_ttis == np.flatnonzero(rec.cam_rb_per_tti).tolist()
    assert len(snapshot_ttis) == 253


@pytest.mark.parametrize("mode", [engine.MODE_MULTICAST,
                                  engine.MODE_UNICAST_BASELINE])
def test_outputs_independent_of_cpu_count(mode, monkeypatch):
    """A 5 MHz run's 399 moving fading pairs make two chunks: inline with
    one CPU, on a pool of two workers with two.  The record is the same."""
    asked = []

    def cpus(n):
        def usable():
            asked.append(n)
            return n
        return usable

    cfg = ScenarioConfig(mode=mode, n_tti=200, seed=1)
    records = []
    for n in (1, 2):
        monkeypatch.setattr(channel, "usable_cpus", cpus(n))
        records.append(run(cfg))
    assert asked == [1, 2]
    one, two = records
    assert one.summary() == two.summary()
    assert one.entries == two.entries
    np.testing.assert_array_equal(one.multicast_rb_per_tti,
                                  two.multicast_rb_per_tti)
    np.testing.assert_array_equal(one.cam_rb_per_tti, two.cam_rb_per_tti)


@pytest.mark.parametrize("mode", [engine.MODE_MULTICAST,
                                  engine.MODE_UNICAST_BASELINE])
def test_one_tti_run_starts_no_pool(mode, monkeypatch):
    """A 1-TTI run never steps the fading, so it never asks for a pool."""
    asked = []
    monkeypatch.setattr(channel, "usable_cpus", lambda: asked.append(2) or 2)
    run(ScenarioConfig(mode=mode, n_tti=1, seed=1))
    assert asked == []


@pytest.mark.parametrize("fail_at", [None, 150])
def test_no_thread_outlives_a_run(fail_at, monkeypatch):
    """The fading pool's threads end with the run, also when a delivery
    raises in the middle of the loop."""
    monkeypatch.setattr(channel, "usable_cpus", lambda: 2)
    during = []
    serve = engine.MulticastDelivery.serve

    def watched(delivery, tti, *args):
        during.append(threading.active_count())
        if tti == fail_at:
            raise RuntimeError("delivery failed")
        return serve(delivery, tti, *args)

    monkeypatch.setattr(engine.MulticastDelivery, "serve", watched)
    before = threading.enumerate()
    cfg = ScenarioConfig(n_tti=200, seed=1)
    if fail_at is None:
        run(cfg)
    else:
        with pytest.raises(RuntimeError, match="delivery failed"):
            run(cfg)
    assert threading.enumerate() == before
    assert max(during) > len(before)


short_configs = st.builds(
    ScenarioConfig,
    mode=st.sampled_from([engine.MODE_MULTICAST,
                          engine.MODE_UNICAST_BASELINE]),
    cqi_policy=st.sampled_from([engine.POLICY_FIXED, engine.POLICY_ADAPTIVE]),
    cqi_value=st.integers(1, 15),
    car_speed_kmh=st.sampled_from([0.0, 100.0]),
    cars_per_cell=st.integers(0, 3),
    # Delays up to 11 and runs up to 72 TTIs: some reports come from an
    # unreserved subframe or cross a 64-TTI fading block.
    cqi_feedback_delay_tti=st.integers(0, 11),
    mbsfn_rings=st.integers(0, 1),
    n_tti=st.integers(0, 72),
    seed=st.integers(0, 2**16),
)


@settings(max_examples=20, deadline=None)
@given(cfg=short_configs)
def test_short_run_properties(cfg):
    """Invariants of any short run, over the paths the TTI loop branches
    on: mode, policy, standing or moving cars, no cars, report delay."""
    rec = run(cfg)
    assert all(e.latency_ttis >= 1 for e in rec.entries)
    n_area = len(topology.build_layout(
        cfg.mbsfn_rings, cfg.interference_rings,
        cfg.inter_site_distance_m).mbsfn_cells)
    assert np.all(rec.multicast_rb_per_tti <= cfg.n_rb)
    assert np.all(rec.cam_rb_per_tti <= cfg.n_rb * n_area)
    other = (rec.cam_rb_per_tti if cfg.mode == engine.MODE_MULTICAST
             else rec.multicast_rb_per_tti)
    assert not other.any()
    again = run(cfg)
    for f in fields(rec):
        np.testing.assert_equal(getattr(again, f.name), getattr(rec, f.name))


class TestHandTracedSchedule:
    def test_single_car_perfect_channel(self):
        """One source, error-free decoding, top CQI: every delivery lands at
        the end of the first reserved subframe at or after generation."""
        cfg = small_config(
            mbsfn_rings=0, interference_rings=1, users_per_cell=1,
            cars_per_cell=1, car_speed_kmh=0.0, cqi_policy="fixed",
            cqi_value=15, perfect_decode=True, n_tti=350)
        rec = run(cfg)
        assert len(rec.sources) == 1
        assert rec.reserved_per_frame == 1  # 2400 bits fit one CQI-15 subframe
        assert rec.entries
        for e in rec.entries:
            g = e.generation_tti
            next_reserved = g if g % 10 == 1 else g + ((1 - g % 10) % 10)
            assert e.delivery_tti == next_reserved + 1
            assert e.latency_ttis == next_reserved + 1 - g
            assert e.replacements == 0
        # exactly 5 RBs per message at CQI 15 on every transmitting subframe
        used = rec.multicast_rb_per_tti[rec.multicast_rb_per_tti > 0]
        assert np.all(used == 5)

    def test_congestion_infeasible_clamps_with_warning(self, caplog):
        cfg = small_config(cqi_value=1, n_tti=0)
        with caplog.at_level(logging.WARNING):
            rec = run(cfg)
        assert rec.reserved_per_frame == 6
        assert rec.congested
        assert "infeasible" in caplog.text

    def test_unicast_offered_load_is_multicast_times_recipients(self):
        mc = run(small_config(n_tti=0))
        uc = run(small_config(n_tti=0, mode="unicast_baseline"))
        # 20 recipient copies per message, spread over the 7 area cells
        assert uc.analytic_utilization_pct == pytest.approx(
            mc.analytic_utilization_pct * 20 / 7)
        assert uc.congested


class TestModes:
    def test_unicast_uses_no_multicast_subframes(self):
        rec = run(small_config(mode="unicast_baseline", n_tti=300))
        assert rec.reserved_per_frame == 0
        assert np.all(rec.multicast_rb_per_tti == 0)
        assert rec.cam_rb_per_tti.sum() > 0

    def test_adaptive_never_uses_more_rbs_same_trace(self):
        fixed = run(small_config(n_tti=2000))
        adaptive = run(small_config(n_tti=2000, cqi_policy="adaptive"))
        assert np.all(adaptive.multicast_rb_per_tti
                      <= fixed.multicast_rb_per_tti)
        assert adaptive.multicast_rb_per_tti.sum() \
            < fixed.multicast_rb_per_tti.sum()

    def test_reassignment_switch(self):
        on = run(small_config(n_tti=600))
        off = run(small_config(n_tti=600, reassign_unused_subframes=False))
        on_tp = np.mean(list(on.ordinary_throughput_mbps.values()))
        off_tp = np.mean(list(off.ordinary_throughput_mbps.values()))
        assert on_tp >= off_tp

    def test_bandwidth_grows_ordinary_throughput(self):
        narrow = run(small_config(n_tti=600))
        wide = run(small_config(n_tti=600, bandwidth_mhz=20))
        assert wide.mean_throughput_mbps() > 2 * narrow.mean_throughput_mbps()


class TestReplicate:
    def test_single_seed_equals_run(self):
        cfg = small_config(n_tti=200)
        result = replicate(cfg, 1)
        direct = run(cfg)
        assert result["seeds"] == [cfg.seed]
        assert result["records"][0].summary() == direct.summary()

    def test_same_master_reproducible(self):
        cfg = small_config(n_tti=200)
        a = replicate(cfg, 2)
        b = replicate(cfg, 2)
        assert a["aggregate"] == b["aggregate"]

    def test_each_replicate_reproducible_from_its_seed(self):
        cfg = small_config(n_tti=200)
        result = replicate(cfg, 3)
        seeds = derived_seeds(cfg.seed, 3)
        child = run(replace(cfg, seed=seeds[2]))
        assert result["records"][2].summary() == child.summary()

    def test_spread_reported(self):
        agg = replicate(small_config(n_tti=200), 2)["aggregate"]
        for key in ("mean_latency_tti", "mean_throughput_mbps"):
            assert {"mean", "min", "max", "std"} <= set(agg[key])

    def test_invalid_count(self):
        with pytest.raises(ValueError):
            replicate(small_config(), 0)


def _mi_rows(sinr_rows):
    mi = np.log2(1.0 + sinr_rows).mean(axis=1)
    return 10.0 * np.log10(np.maximum(2.0 ** mi - 1.0, 1e-30))


def _per_slot_oracle(slots, sinr, n_re_per_rb, slope, perfect_decode, rng):
    """The ordinary stage as one (1, rb_count) evaluation, one BLER call
    and one size-1 draw per slot."""
    cqi, bits, ok = [], [], []
    for row, rb_start, rb_count in slots:
        rbs = slice(rb_start, rb_start + rb_count)
        eff_db = _mi_rows(sinr[row][None, rbs])
        idx = np.searchsorted(link.CQI_TABLE.thresholds_db, eff_db + 1e-12,
                              side="right")
        cq = max(int(np.maximum(idx, 1)[0]), 1)
        if perfect_decode:
            success = True
        else:
            p = link.bler(eff_db, cq, slope)
            success = bool((rng.random(1) >= p)[0])
        cqi.append(cq)
        bits.append(rb_count * n_re_per_rb * link.cqi_efficiency(cq))
        ok.append(success)
    return cqi, bits, ok


class TestOrdinaryStage:
    """The batched stage and one `draw_success` call against the per-slot
    loop, bit for bit."""

    @pytest.mark.parametrize("n_rb", [25, 100])
    @pytest.mark.parametrize("perfect_decode", [False, True])
    def test_matches_per_slot_loop(self, n_rb, perfect_decode):
        gen = np.random.default_rng(n_rb + perfect_decode)
        n_rows = 9
        for trial in range(5):
            # Down to far below CQI 1's threshold, so that some blocks fail
            # although CQI and decode read the same SINR.
            sinr = 10.0 ** (gen.uniform(-25.0, 30.0, (n_rows, n_rb)) / 10.0)
            # Several slots of every length, so each length group is
            # evaluated as a multi-row array.
            slots = []
            for length in range(1, n_rb + 1):
                for _ in range(3):
                    start = int(gen.integers(0, n_rb - length + 1))
                    slots.append((int(gen.integers(n_rows)), start, length))
            slots = [slots[k] for k in gen.permutation(len(slots))]
            rng_a = np.random.default_rng(trial)
            rng_b = np.random.default_rng(trial)
            bits, p = engine.ordinary_stage(slots, sinr, 100, 1.0)
            ok = engine.draw_success(p, perfect_decode, rng_a)
            _, want_bits, want_ok = _per_slot_oracle(
                slots, sinr, 100, 1.0, perfect_decode, rng_b)
            np.testing.assert_array_equal(bits, want_bits)
            assert bits.tolist() == want_bits
            np.testing.assert_array_equal(ok, want_ok)
            assert rng_a.bit_generator.state == rng_b.bit_generator.state
            if not perfect_decode:
                assert 0 < ok.sum() < len(ok)

    def test_round_robin_slots(self):
        """Two lengths per cell, as round robin hands them out."""
        gen = np.random.default_rng(3)
        sinr = 10.0 ** (gen.uniform(-5.0, 20.0, (6, 25)) / 10.0)
        slots = [(row, start, count) for row, (_, start, count) in
                 enumerate(scheduler.schedule_unicast_ordinary(
                     range(6), 25, rr_offset=4))]
        assert {c for _, _, c in slots} == {4, 5}
        rng_a, rng_b = np.random.default_rng(8), np.random.default_rng(8)
        bits, p = engine.ordinary_stage(slots, sinr, 100, 1.0)
        ok = engine.draw_success(p, False, rng_a)
        _, want_bits, want_ok = _per_slot_oracle(
            slots, sinr, 100, 1.0, False, rng_b)
        assert (bits.tolist(), ok.tolist()) == (want_bits, want_ok)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_no_slots(self):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        bits, p = engine.ordinary_stage([], np.ones((2, 25)), 100, 1.0)
        ok = engine.draw_success(p, False, rng)
        assert len(bits) == len(p) == len(ok) == 0
        assert rng.bit_generator.state == state


def _shifted_table_file(tmp_path):
    """The built-in CQI table with every threshold 3 dB higher."""
    path = tmp_path / "shifted.csv"
    with open(path, "w") as fh:
        fh.write("index,modulation,efficiency,sinr_threshold_db\n")
        for e in link.CQI_TABLE.entries:
            fh.write(f"{e.index},{e.modulation},{e.efficiency},"
                     f"{e.sinr_threshold_db + 3.0}\n")
    return str(path)


def test_cqi_table_file_changes_ordinary_rates_and_is_restored(tmp_path):
    """A replacement table reaches the ordinary users' rate adaptation
    and leaves the built-in table as it was."""
    table = link.CQI_TABLE
    cfg = small_config(n_tti=200)
    default = run(cfg).mean_throughput_mbps()
    shifted = run(replace(cfg, cqi_table_file=_shifted_table_file(tmp_path))
                  ).mean_throughput_mbps()
    assert link.CQI_TABLE is table
    assert shifted != default
    assert run(cfg).mean_throughput_mbps() == default


def test_runs_with_different_tables_share_a_process(tmp_path):
    """A default run and a replacement-table run made at the same time in
    two threads each give the record of their sequential run."""
    base = small_config(n_tti=200)
    cfgs = [base, replace(base, cqi_table_file=_shifted_table_file(tmp_path))]
    sequential = [run(cfg) for cfg in cfgs]
    assert sequential[0].summary() != sequential[1].summary()
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=2) as pool:
            futures = [pool.submit(run, cfg) for cfg in cfgs]
            concurrent = [f.result(timeout=300) for f in futures]
    finally:
        sys.setswitchinterval(interval)
    for got, want in zip(concurrent, sequential):
        assert got.summary() == want.summary()
        np.testing.assert_array_equal(got.multicast_rb_per_tti,
                                      want.multicast_rb_per_tti)
        np.testing.assert_array_equal(got.cam_rb_per_tti, want.cam_rb_per_tti)


def test_car_speed_bounded_by_layout():
    """A car may move at most the boundary disc's diameter per TTI, which
    the wrap needs to keep it inside: 1e7 km/h (2778 m per TTI) is too fast
    for the 1289 m disc of one area and one interference ring, 1e6 km/h
    runs, and a wider layout takes 1e7."""
    too_fast = small_config(car_speed_kmh=1e7, n_tti=100)
    with pytest.raises(ValueError, match="car_speed_kmh"):
        too_fast.validate()
    with pytest.raises(ValueError, match="car_speed_kmh"):
        run(too_fast)
    assert run(small_config(car_speed_kmh=1e6, n_tti=100)).sources
    replace(too_fast, interference_rings=2).validate()


def test_tracer_counts_one_mobility_step_per_tti(monkeypatch):
    """perfbench's tracer replaces module and class attributes with
    counting shims and marks the TTI loop's start at the first
    `advance_mobility` call: the model's construction takes one
    `amplitude_gain`, then each TTI one `advance_mobility` whose gain is
    one `amplitude_gain` with one `pathloss_db`."""
    events = []

    def shim(owner, attr, name):
        original = vars(owner)[attr]

        def counted(*args, **kwargs):
            events.append(name)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)

    shim(topology, "advance_mobility", "mobility")
    shim(channel.ChannelModel, "amplitude_gain", "gain")
    shim(channel, "pathloss_db", "pathloss")
    cfg = small_config(n_tti=50, shadowing_std_db=8.0)
    run(cfg)
    assert events == (["gain", "pathloss"]
                      + ["mobility", "gain", "pathloss"] * cfg.n_tti)
