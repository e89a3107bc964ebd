import logging
import math
import pickle
import re
import sys
import threading
import types
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mbsfnsim import (channel, config, engine, link, metrics, scheduler,
                      topology, traffic)
from mbsfnsim.delivery import MulticastDelivery, UnicastDelivery, draw_success
from mbsfnsim.engine import ScenarioConfig, derived_seeds, replicate, run
from test_link import BAD_TABLES, grouped_slices, write_cqi_table


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
            ScenarioConfig(bandwidth_mhz=10)
        with pytest.raises(ValueError):
            ScenarioConfig(mode="broadcast")
        with pytest.raises(ValueError):
            ScenarioConfig(cqi_policy="fixed", cqi_value=0)
        with pytest.raises(ValueError):
            ScenarioConfig(cars_per_cell=7)
        ScenarioConfig(cqi_policy="adaptive", cqi_value=0)
        # A float field takes an int.
        ScenarioConfig(car_speed_kmh=100, tx_power_dbm=43)

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
        ("cqi_table_file", "/nonexistent/cqi_table.csv", {}),
        ("noise_figure_db", -0.5, {}),
        ("tx_power_dbm", 1e6, {}),
        # Quantities derived from a value that overflow their type: the
        # carrier in Hz (inf, and a standing car's Doppler 0 * inf = nan),
        # the squared distance across the layout, the layout's radius
        # itself, and an RB grid's resource elements in int64.
        ("carrier_ghz", 1e300, {}),
        ("carrier_ghz", 1e300, {"car_speed_kmh": 0.0}),
        ("carrier_ghz", 1e297, {"n_tti": 10**12}),
        ("inter_site_distance_m", 1e200, {}),
        ("inter_site_distance_m", 1e308, {}),
        ("usable_re_per_rb", 2**62, {}),
        ("usable_re_per_rb", 2**63, {}),
        ("usable_re_per_rb", 2**61, {"bandwidth_mhz": 20}),
    ])
    def test_validation_names_field(self, field, value, others):
        """A bad value is rejected when the config is built, directly or
        by `replace` (as the CLI's overrides and `replicate` build it)."""
        with pytest.raises(ValueError, match=field):
            ScenarioConfig(**{field: value, **others})
        with pytest.raises(ValueError, match=field):
            replace(ScenarioConfig(n_tti=1), **{field: value, **others})

    @pytest.mark.parametrize("bad", sorted(BAD_TABLES))
    def test_bad_table_file_names_field(self, tmp_path, bad):
        """A table file whose values no CqiTable takes is rejected when
        the config is built, naming the field, the file and the reason."""
        path = write_cqi_table(tmp_path / "bad.csv", bad)
        message = re.escape(f"cqi_table_file: {path!r}: {BAD_TABLES[bad][3]}")
        with pytest.raises(ValueError, match=f"^{message}$"):
            ScenarioConfig(cqi_table_file=path)
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(ScenarioConfig(n_tti=1), cqi_table_file=path)

    def test_table_read_once_and_kept(self, tmp_path, monkeypatch):
        """Building a config reads its table file, once; a run and a
        pickled copy use the kept table and read no file."""
        loads = []
        load = link.load_cqi_table
        monkeypatch.setattr(link, "load_cqi_table",
                            lambda path: loads.append(path) or load(path))
        path = write_cqi_table(tmp_path / "table.csv")
        cfg = ScenarioConfig(n_tti=20, cqi_table_file=path)
        assert loads == [path]
        assert cfg.cqi_table.entries == link.CQI_TABLE.entries
        assert ScenarioConfig().cqi_table is link.CQI_TABLE
        copy = pickle.loads(pickle.dumps(cfg))
        assert copy == cfg and copy.cqi_table.entries == cfg.cqi_table.entries
        assert copy.to_dict() == cfg.to_dict()
        run(cfg)
        assert loads == [path]

    def test_hash_tracks_content(self):
        a = ScenarioConfig()
        b = ScenarioConfig(seed=2)
        assert a.content_hash() != b.content_hash()
        assert a.content_hash() == ScenarioConfig().content_hash()

    def test_roundtrip_dict(self):
        cfg = ScenarioConfig(mode="unicast_baseline", cqi_policy="adaptive",
                             cqi_value=5, n_tti=123)
        assert ScenarioConfig(**cfg.to_dict()) == cfg
        assert list(cfg.to_dict().items()) == list(asdict(cfg).items())

    @pytest.mark.parametrize("bandwidth_mhz", [5, 20])
    def test_re_limit_is_int64(self, bandwidth_mhz):
        """An RB grid's resource elements fit in int64 up to the limit
        and not one RE per RB beyond it."""
        n_rb = config.BANDWIDTH_TO_RB[bandwidth_mhz]
        limit = np.iinfo(np.int64).max // n_rb
        cfg = ScenarioConfig(bandwidth_mhz=bandwidth_mhz,
                             usable_re_per_rb=limit)
        assert np.int64(n_rb) * np.int64(cfg.usable_re_per_rb) > 0
        with pytest.raises(ValueError, match=f"at most {limit} at {n_rb}"):
            replace(cfg, usable_re_per_rb=limit + 1)


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


@pytest.mark.parametrize("overrides", [
    {}, {"mode": "unicast_baseline"}, {"n_tti": 7}, {"n_tti": 0},
    {"mbsfn_rings": 0}, {"mbsfn_rings": 2, "bandwidth_mhz": 20},
    {"cqi_policy": "adaptive", "cqi_feedback_delay_tti": 3},
    {"mode": "unicast_baseline", "cqi_policy": "adaptive",
     "cqi_feedback_delay_tti": 13},
])
def test_set_up_masks_are_those_of_isin(overrides):
    """The Runner's area-cell mask and the mask of the TTIs the channel
    evaluates are bitwise those of `np.isin` over the area cells and over
    the subframes the delivery reads, with the adaptive reports'."""
    cfg = small_config(**overrides)
    with ThreadPoolExecutor(1) as pool:
        runner = engine.Runner(cfg, pool)
    layout = topology.build_layout(cfg.mbsfn_rings, cfg.interference_rings,
                                   cfg.inter_site_distance_m)
    mask = runner.mobility.mbsfn_mask
    assert mask.dtype == bool and np.array_equal(mask, np.isin(
        np.arange(layout.n_cells), sorted(layout.mbsfn_cells)))
    reads = np.isin(np.arange(cfg.n_tti) % scheduler.SUBFRAMES_PER_FRAME,
                    sorted(runner.delivery.read_subframes))
    reported = np.zeros_like(reads)
    if cfg.cqi_policy == config.POLICY_ADAPTIVE:
        reported[np.maximum(np.flatnonzero(reads)
                            - cfg.cqi_feedback_delay_tti, 0)] = True
    evaluated = runner.links.model.evaluated_ttis
    assert evaluated.dtype == bool
    assert np.array_equal(evaluated, reads | reported)
    assert np.array_equal(runner.links.reported, reported)


def test_runner_steps_and_record():
    """`advance` runs no TTI for n <= 0 and stops at n_tti; `record`
    raises until every TTI has run."""
    cfg = small_config(n_tti=70)
    with ThreadPoolExecutor(1) as pool:
        runner = engine.Runner(cfg, pool)
        for n, tti in ((0, 0), (-5, 0), (3, 3), (-1, 3)):
            runner.advance(n)
            assert runner.tti == tti
        with pytest.raises(RuntimeError, match="67 TTIs left"):
            runner.record()
        runner.advance(100)
    assert runner.tti == 70
    assert runner.record().entries == run(cfg).entries


def test_one_pathloss_evaluation_per_block(monkeypatch):
    """Handover and the channel snapshot share each TTI's macroscopic gain,
    evaluated per block of BLOCK_LEN TTIs: one `pathloss_db` call per
    block, plus one for the static rows at set-up."""
    calls = []
    original = channel.pathloss_db

    def counted(distance_m):
        calls.append(np.shape(distance_m))
        return original(distance_m)

    monkeypatch.setattr(channel, "pathloss_db", counted)
    cfg = small_config(n_tti=64, shadowing_std_db=8.0)
    rec = run(cfg)
    assert cfg.car_speed_kmh > 0 and rec.sources
    assert len(calls) == 1 + math.ceil(cfg.n_tti / channel.BLOCK_LEN), calls
    assert calls[1] == (channel.BLOCK_LEN, len(rec.sources), 19)


def _rb_grants(cfg, monkeypatch):
    """The RB counts of every grant `allocate_fifo` makes in a run of
    `cfg`, where a numeric warning raises."""
    grants = []
    original = scheduler.allocate_fifo

    def recorded(*args):
        allocations, used = original(*args)
        grants.extend(a.rb_count for a in allocations)
        return allocations, used

    monkeypatch.setattr(scheduler, "allocate_fifo", recorded)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        run(cfg)
    return grants


def test_no_zero_rb_grants(monkeypatch):
    """Unicast at 20 MHz with an unbounded adaptive CQI: here some copies'
    residuals land a rounding error above whole RBs, and every such copy
    must still finish with the grant that priced it."""
    grants = _rb_grants(ScenarioConfig(
        mode="unicast_baseline", bandwidth_mhz=20, cqi_policy="adaptive",
        cqi_value=0, n_tti=400, seed=3), monkeypatch)
    assert grants and min(grants) > 0, grants.count(0)


def test_message_far_below_one_rb_gets_one(monkeypatch):
    """With RBs so large that a message is a tiny fraction of one, each
    copy still gets an RB, so no 0-RB slice reaches the effective SINR as
    a 0/0."""
    grants = _rb_grants(ScenarioConfig(
        mode="unicast_baseline", usable_re_per_rb=10**16, n_tti=130),
        monkeypatch)
    assert grants and min(grants) == 1, grants.count(0)


def test_tiny_multicast_load_reserves_a_subframe():
    """A message load far below one subframe's capacity still reserves
    one subframe per frame, so its messages are sent and entries close."""
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        rec = run(ScenarioConfig(usable_re_per_rb=10**15, n_tti=1000, seed=1))
    assert rec.reserved_per_frame == 1
    assert rec.entries and rec.multicast_rb_per_tti.sum() > 0


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
    assert cfg.cqi_policy == config.POLICY_FIXED and rec.sources
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


def test_ordinary_users_price_new_states_in_one_call(monkeypatch):
    """A TTI's unpriced cell states are priced by one `ordinary_stage`
    call, and each state gets the arrays that pricing it alone gives; a
    TTI with only priced states calls nothing."""
    calls = []
    original = engine.ordinary_stage

    def counted(slots, *args):
        calls.append(len(slots))
        return original(slots, *args)

    monkeypatch.setattr(engine, "ordinary_stage", counted)
    cfg = ScenarioConfig()
    gen = np.random.default_rng(4)
    # Down to far below CQI 1's threshold, so some blocks may fail.
    sinr = 10.0 ** (gen.uniform(-25.0, 30.0, (13, cfg.n_rb)) / 10.0)
    # A cell with no users, one with one user (a full-width slot) and
    # cells whose users get slots of two lengths.
    rows_by_cell = {0: [0, 1, 2], 3: [3, 4, 5, 6], 5: [], 8: [7, 8, 9, 10, 11],
                    9: [12]}
    users = engine.OrdinaryUsers(cfg, rows_by_cell, sinr,
                                 np.random.default_rng(1))
    all_rbs = dict.fromkeys(rows_by_cell, cfg.n_rb)
    users.serve(all_rbs)
    assert calls == [3 + 4 + 5 + 1]
    users.serve({**all_rbs, 3: 7, 8: 0})
    assert calls[1:] == [3 + 4]
    for _ in range(20):
        users.serve(all_rbs)
    # Every round-robin offset at all RBs, and cell 3's one state at 7.
    assert len(users.priced) == 3 + (4 + 1) + 5 + 1
    n_calls = len(calls)
    users.serve(all_rbs)
    assert len(calls) == n_calls
    for state, (rows, bits, p) in users.priced.items():
        slots = np.array(scheduler.schedule_unicast_ordinary(
            rows_by_cell[state[0]], *state[1:]))
        want_bits, want_p = original(slots, sinr, cfg.usable_re_per_rb,
                                     cfg.bler_slope_db_per_decade,
                                     cfg.cqi_table)
        np.testing.assert_array_equal(rows, slots[:, 0])
        np.testing.assert_array_equal(bits, want_bits)
        np.testing.assert_array_equal(p, want_p)

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


@pytest.mark.parametrize("mode", [config.MODE_MULTICAST,
                                  config.MODE_UNICAST_BASELINE])
def test_outputs_independent_of_cpu_count(mode, monkeypatch):
    """A 5 MHz run's 399 moving fading pairs make two chunks: on a pool
    of one worker with one CPU, of two workers with two.  The record is
    the same."""
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


@pytest.mark.parametrize("mode", [config.MODE_MULTICAST,
                                  config.MODE_UNICAST_BASELINE])
def test_one_tti_run_starts_no_pool(mode, monkeypatch):
    """A 1-TTI run never steps the fading, so its pool starts no thread."""
    monkeypatch.setattr(channel, "usable_cpus", lambda: 2)
    started = []
    start = threading.Thread.start

    def recorded_start(thread):
        started.append(thread.name)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recorded_start)
    run(ScenarioConfig(mode=mode, n_tti=1, seed=1))
    assert started == []


@pytest.mark.parametrize("fail_at", [None, 150])
def test_no_thread_outlives_a_run(fail_at, monkeypatch):
    """The fading pool's threads end with the run, also when a delivery
    raises in the middle of the loop."""
    monkeypatch.setattr(channel, "usable_cpus", lambda: 2)
    during = []
    serve = MulticastDelivery.serve

    def watched(delivery, tti, *args):
        during.append(threading.active_count())
        if tti == fail_at:
            raise RuntimeError("delivery failed")
        return serve(delivery, tti, *args)

    monkeypatch.setattr(MulticastDelivery, "serve", watched)
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
    mode=st.sampled_from([config.MODE_MULTICAST,
                          config.MODE_UNICAST_BASELINE]),
    cqi_policy=st.sampled_from([config.POLICY_FIXED, config.POLICY_ADAPTIVE]),
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
    # A delivery's k counts the periods up to the delivered packet, which
    # is served before its own replacement; an exit's k is latency // period.
    period = cfg.cam_period_ttis
    for e in rec.entries:
        assert (e.replacements * period <= e.latency_ttis
                <= (e.replacements + 1) * period), e
    n_area = len(topology.build_layout(
        cfg.mbsfn_rings, cfg.interference_rings,
        cfg.inter_site_distance_m).mbsfn_cells)
    assert np.all(rec.multicast_rb_per_tti <= cfg.n_rb)
    assert np.all(rec.cam_rb_per_tti <= cfg.n_rb * n_area)
    other = (rec.cam_rb_per_tti if cfg.mode == config.MODE_MULTICAST
             else rec.multicast_rb_per_tti)
    assert not other.any()
    again = run(cfg)
    for f in fields(rec):
        np.testing.assert_equal(getattr(again, f.name), getattr(rec, f.name))


@pytest.fixture(scope="module")
def table_files(tmp_path_factory):
    """A `cqi_table_file` value by name: none, the standard table read
    back from a file, and the standard table 3 dB harder."""
    directory = tmp_path_factory.mktemp("tables")
    return {"": "", "standard": write_cqi_table(directory / "standard.csv"),
            "shifted": _shifted_table_file(directory)}


policies = st.one_of(
    st.tuples(st.just(config.POLICY_FIXED), st.integers(1, 15)),
    st.tuples(st.just(config.POLICY_ADAPTIVE), st.integers(0, 15)))


@settings(max_examples=50, deadline=None)
@given(mode=st.sampled_from([config.MODE_MULTICAST,
                             config.MODE_UNICAST_BASELINE]),
       policy=policies, bandwidth_mhz=st.sampled_from([5, 20]),
       delay=st.integers(0, 3), reservation_cqi=st.integers(1, 15),
       perfect_decode=st.booleans(), shadowing=st.sampled_from([0.0, 8.0]),
       speed=st.sampled_from([0.0, 100.0]),
       table=st.sampled_from(["", "standard", "shifted"]),
       seed=st.integers(0, 2**16))
def test_values_below_the_config_stay_in_range(
        table_files, mode, policy, bandwidth_mhz, delay, reservation_cqi,
        perfect_decode, shadowing, speed, table, seed):
    """No check below the config is needed, because a valid config keeps
    every value the loop derives in range: `link.bler` and
    `link.cqi_efficiency` get CQIs in 1..15 only,
    `scheduler.reserved_subframes` gets 0..6 only, and no entry closes
    before its generation."""
    cfg = ScenarioConfig(
        mode=mode, cqi_policy=policy[0], cqi_value=policy[1],
        bandwidth_mhz=bandwidth_mhz, cqi_feedback_delay_tti=delay,
        reservation_cqi=reservation_cqi, perfect_decode=perfect_decode,
        shadowing_std_db=shadowing, car_speed_kmh=speed,
        cqi_table_file=table_files[table], n_tti=130, seed=seed)
    cqis, reserved = [], []
    with pytest.MonkeyPatch.context() as mp:
        def record(owner, name, log, value_of):
            original = getattr(owner, name)

            def recorded(*args):
                log.extend(np.ravel(value_of(*args)).tolist())
                return original(*args)
            mp.setattr(owner, name, recorded)

        record(link, "bler", cqis, lambda eff_db, cqi, slope, table: cqi)
        record(link, "cqi_efficiency", cqis, lambda cqi, table: cqi)
        record(scheduler, "reserved_subframes", reserved, lambda n: n)
        rec = run(cfg)
    assert cqis and set(cqis) <= set(range(1, 16))
    assert set(reserved) <= set(range(7))
    assert len(reserved) == (mode == config.MODE_MULTICAST)
    assert all(e.delivery_tti >= e.generation_tti for e in rec.entries)


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

    def test_unicast_message_with_no_recipient_closes(self):
        """A lone car's messages have no recipient: unicast sends no copy
        and closes each entry at the end of its generation TTI."""
        rec = run(ScenarioConfig(
            mode="unicast_baseline", mbsfn_rings=0, users_per_cell=1,
            cars_per_cell=1, n_tti=400, seed=1))
        assert len(rec.entries) == 4 and rec.n_open_entries == 0
        assert all(e.latency_ttis == 1 and e.replacements == 0
                   for e in rec.entries)
        assert not rec.cam_rb_per_tti.any()

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
            p = link.bler(eff_db, cq, slope, link.CQI_TABLE)
            success = bool((rng.random(1) >= p)[0])
        cqi.append(cq)
        bits.append(rb_count * n_re_per_rb
                    * link.cqi_efficiency(cq, link.CQI_TABLE))
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
            bits, p = engine.ordinary_stage(slots, sinr, 100, 1.0,
                                           link.CQI_TABLE)
            ok = draw_success(p, perfect_decode, rng_a)
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
        bits, p = engine.ordinary_stage(slots, sinr, 100, 1.0,
                                           link.CQI_TABLE)
        ok = draw_success(p, False, rng_a)
        _, want_bits, want_ok = _per_slot_oracle(
            slots, sinr, 100, 1.0, False, rng_b)
        assert (bits.tolist(), ok.tolist()) == (want_bits, want_ok)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_no_slots(self):
        rng = np.random.default_rng(1)
        state = rng.bit_generator.state
        bits, p = engine.ordinary_stage([], np.ones((2, 25)), 100, 1.0,
                                       link.CQI_TABLE)
        ok = draw_success(p, False, rng)
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
    with pytest.raises(ValueError, match="car_speed_kmh"):
        small_config(car_speed_kmh=1e7, n_tti=100)
    with pytest.raises(ValueError, match="car_speed_kmh"):
        replace(small_config(n_tti=100), car_speed_kmh=1e7)
    assert run(small_config(car_speed_kmh=1e6, n_tti=100)).sources
    small_config(car_speed_kmh=1e7, n_tti=100, interference_rings=2)


def test_tracer_counts_one_mobility_step_per_block(monkeypatch):
    """perfbench's tracer replaces module and class attributes with
    counting shims and marks the TTI loop's start at the first
    `advance_mobility` call: the model's construction takes one
    `amplitude_gain`, then each block of BLOCK_LEN TTIs, the last one cut
    at the run's end, one `advance_mobility` whose gain is one
    `amplitude_gain` with one `pathloss_db`."""
    events, steps = [], []

    def shim(owner, attr, name):
        original = vars(owner)[attr]

        def counted(*args, **kwargs):
            events.append(name)
            if name == "mobility":
                steps.append(args[5])
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, counted)

    shim(topology, "advance_mobility", "mobility")
    shim(channel.ChannelModel, "amplitude_gain", "gain")
    shim(channel, "pathloss_db", "pathloss")
    cfg = small_config(n_tti=150, shadowing_std_db=8.0)
    run(cfg)
    assert events == (["gain", "pathloss"]
                      + ["mobility", "gain", "pathloss"] * 3)
    assert steps == [64, 64, 22]


@pytest.mark.parametrize("mode", [config.MODE_MULTICAST,
                                  config.MODE_UNICAST_BASELINE])
def test_stages_run_in_order(mode, monkeypatch):
    """Each TTI runs its stages in one order: mobility, any receiver exits
    (each to the recorder, then the delivery), the link reads, any
    generation, the delivery's `serve`, then the ordinary users on the RBs
    it leaves.  The shims replace module and class attributes, as
    perfbench's tracer does."""
    events = []

    def shim(owner, attr, letter):
        original = vars(owner)[attr]

        def logged(*args, **kwargs):
            events.append(letter)
            return original(*args, **kwargs)
        monkeypatch.setattr(owner, attr, logged)

    shim(engine.Mobility, "step", "m")
    shim(metrics.LatencyRecorder, "on_receiver_exit", "x")
    shim(MulticastDelivery, "on_receiver_exit", "d")
    shim(UnicastDelivery, "on_receiver_exit", "d")
    shim(engine.LinkReads, "step", "r")
    shim(traffic, "maybe_generate", "g")
    shim(MulticastDelivery, "serve", "s")
    shim(UnicastDelivery, "serve", "s")
    shim(engine.OrdinaryUsers, "serve", "o")
    # With shadowing some cars hand over to a ring cell and leave the area.
    cfg = ScenarioConfig(mode=mode, shadowing_std_db=8.0, n_tti=300, seed=1)
    run(cfg)
    trace = "".join(events)
    assert re.fullmatch(r"(m(xd)*rg*so)*", trace), trace[:80]
    assert trace.count("m") == cfg.n_tti
    assert "x" in trace and "g" in trace


def test_run_leaves_the_drop_as_drawn(monkeypatch):
    """The mobility stage moves copies of the cars' positions: after a
    300-TTI multicast run the population `drop_users` returned equals a
    fresh draw at the same seed, also in its serving cells."""
    drops = []
    original = topology.drop_users

    def kept(*args, **kwargs):
        drops.append(original(*args, **kwargs))
        return drops[-1]

    monkeypatch.setattr(topology, "drop_users", kept)
    cfg = ScenarioConfig(shadowing_std_db=8.0, n_tti=300, seed=1)
    run(cfg)
    (pop,) = drops
    fresh = original(pop.layout, cfg.users_per_cell, cfg.cars_per_cell,
                     cfg.car_speed_ms, rng_seed=cfg.seed)
    for name in ("is_car", "serving_cell", "positions", "velocities"):
        np.testing.assert_array_equal(getattr(pop, name),
                                      getattr(fresh, name), err_msg=name)


@pytest.mark.parametrize("mode", [config.MODE_MULTICAST,
                                  config.MODE_UNICAST_BASELINE])
def test_stages_know_sources_by_row(mode, monkeypatch):
    """The delivery and the recorder are handed sources and receivers as
    rows 0..n_sources-1, every row among them; the record's entries name
    their sources by user id, from `record.sources`."""
    seen = []

    def shim(owner, attr, ids):
        original = vars(owner)[attr]

        def logged(self, *args):
            seen.extend(ids(*args))
            return original(self, *args)
        monkeypatch.setattr(owner, attr, logged)

    recorder = metrics.LatencyRecorder
    deliveries = (MulticastDelivery, UnicastDelivery)
    shim(recorder, "on_generation", lambda src, seq, tti, to: [src, *to])
    shim(recorder, "on_delivery", lambda src, seq, tti, to: [src, *to])
    shim(recorder, "on_receiver_exit", lambda gone, tti: [gone])
    for cls in deliveries:
        shim(cls, "add", lambda src, seq, tti, to: [src, *to])
        shim(cls, "on_receiver_exit", lambda gone: [gone])
    # At 400 km/h cars leave the area, and unicast entries close, within
    # 300 TTIs.
    record = run(ScenarioConfig(mode=mode, car_speed_kmh=400, n_tti=300,
                                seed=1))
    assert set(seen) == set(range(len(record.sources)))
    assert record.entries
    assert {e.source for e in record.entries} <= set(record.sources)
    assert record.sources != list(range(len(record.sources)))


def test_no_copy_granted_to_a_receiver_that_left(monkeypatch):
    """A car that leaves the area takes its queued unicast copies with it:
    at 400 km/h cars leave and come back within 300 TTIs, and no copy is
    granted RBs while its receiver is outside the area."""
    areas, absent = [], []
    step = engine.Mobility.step
    schedule = scheduler.schedule_unicast_cam_baseline

    def stepped(self, tti):
        out = step(self, tti)
        areas.append(out[1])
        return out

    def granted(items, n_rb, n_re):
        allocations, used = schedule(items, n_rb, n_re)
        absent.extend(a.rb_count for a in allocations
                      if a.key.receiver not in areas[-1])
        return allocations, used

    monkeypatch.setattr(engine.Mobility, "step", stepped)
    monkeypatch.setattr(scheduler, "schedule_unicast_cam_baseline", granted)
    record = run(ScenarioConfig(mode="unicast_baseline", car_speed_kmh=400,
                                n_tti=300, seed=1))
    assert min(map(len, areas)) < len(record.sources)
    assert absent == [], (len(absent), sum(absent))


def test_cars_served_outside_the_area_at_tti_0_exit_first(monkeypatch):
    """The area set starts as every source, and TTI 0's step removes the
    cars whose strongest cell is outside the area: with shadowing at seed
    1 some do, they exit to the recorder and the delivery before the
    first generation, and every recipient set holds only cars in the area
    at its TTI."""
    steps, events = [], []
    step = engine.Mobility.step

    def stepped(self, tti):
        out = step(self, tti)
        steps.append(out)
        return out

    def logged(owner, attr, tag):
        original = vars(owner)[attr]

        def wrapped(self, *args):
            events.append((tag, len(steps) - 1, *args))
            return original(self, *args)
        monkeypatch.setattr(owner, attr, wrapped)

    monkeypatch.setattr(engine.Mobility, "step", stepped)
    logged(metrics.LatencyRecorder, "on_receiver_exit", "recorder")
    logged(MulticastDelivery, "on_receiver_exit", "delivery")
    logged(metrics.LatencyRecorder, "on_generation", "generation")
    cfg = ScenarioConfig(shadowing_std_db=8.0, n_tti=100, seed=1)
    runner = engine.Runner(cfg, None)
    runner.advance(cfg.n_tti)
    gamma, _, exits = steps[0]
    outside = ~runner.mobility.mbsfn_mask[gamma.argmax(axis=1)]
    assert len(exits) > 0
    assert list(exits) == np.flatnonzero(outside).tolist()
    assert [e[:3] for e in events[:2 * len(exits)]] == [
        (tag, 0, row) for row in exits for tag in ("recorder", "delivery")]
    generations = [e for e in events if e[0] == "generation"]
    assert generations
    for _, tti, src, sequence, at, receivers in generations:
        assert tti == at and set(receivers) <= steps[tti][1] - {src}


@pytest.mark.parametrize("overrides", [
    {}, {"reassign_unused_subframes": False},
    {"mode": "unicast_baseline"},
    {"mode": "unicast_baseline", "bandwidth_mhz": 20},
], ids=["mc_fixed", "mc_no_reassign", "uc_5", "uc_20"])
def test_rb_conservation_at_the_ordinary_stage(overrides, monkeypatch):
    """In every TTI and area cell the message RBs plus the RBs left to the
    ordinary users are at most `n_rb`; in unicast the RBs not left are
    exactly the copies' RBs; and a cell with ordinary users gets slots
    that cover exactly the RBs left to it, each once."""
    slots_of, lefts = {}, []
    schedule, serve = (scheduler.schedule_unicast_ordinary,
                       engine.OrdinaryUsers.serve)

    def recorded_schedule(users, n_rb, rr_offset=0):
        slots = schedule(users, n_rb, rr_offset)
        slots_of[tuple(users), n_rb, rr_offset] = slots
        return slots

    def checked_serve(ordinary, left):
        offsets = dict(ordinary.rr_offset)
        serve(ordinary, left)
        lefts.append(dict(left))
        for cell, users in ordinary.rows_by_cell.items():
            if users and left[cell] > 0:
                slots = slots_of[tuple(users), left[cell], offsets[cell]]
                covered = [rb for _, start, count in slots
                           for rb in range(start, start + count)]
                assert sorted(covered) == list(range(left[cell]))

    monkeypatch.setattr(scheduler, "schedule_unicast_ordinary",
                        recorded_schedule)
    monkeypatch.setattr(engine.OrdinaryUsers, "serve", checked_serve)
    cfg = ScenarioConfig(n_tti=300, seed=1, **overrides)
    rec = run(cfg)
    area_cells = topology.build_layout(
        cfg.mbsfn_rings, cfg.interference_rings,
        cfg.inter_site_distance_m).mbsfn_cells
    assert len(lefts) == cfg.n_tti and slots_of
    for tti, left in enumerate(lefts):
        assert set(left) == set(area_cells)
        for cell in area_cells:
            assert 0 <= left[cell]
            assert rec.multicast_rb_per_tti[tti] + left[cell] <= cfg.n_rb
        if cfg.mode == config.MODE_UNICAST_BASELINE:
            assert (sum(cfg.n_rb - n for n in left.values())
                    == rec.cam_rb_per_tti[tti])
    assert (rec.multicast_rb_per_tti + rec.cam_rb_per_tti).any()


def _price_until_full(pending, efficiency_of, n_rb, n_re_per_rb):
    """(key, residual, efficiency) items of the queue head, each priced by
    `efficiency_of(key)`, until their RB demand fills `n_rb`."""
    items, demand = [], 0
    for key, residual in pending:
        if demand >= n_rb:
            break
        if residual <= 0:
            continue
        efficiency = efficiency_of(key)
        items.append((key, residual, efficiency))
        demand += scheduler.rb_demand(residual, n_re_per_rb, efficiency)
    return items


def _per_copy_serve(delivery, tti, area_sources, read_now, report):
    """`UnicastDelivery.serve` with each copy priced on its own: one
    `cqi_from_sinr_rows` call on its receiver's report row and one
    `cqi_efficiency` call per copy, and the per-length grouped slices."""
    cfg, table = delivery.cfg, delivery.cfg.cqi_table
    n_rb, n_re = cfg.n_rb, cfg.usable_re_per_rb
    cqi = {}

    def price(copy):
        if cfg.cqi_policy == config.POLICY_FIXED:
            cqi[copy] = cfg.cqi_value
        else:
            cqi[copy] = max(int(link.cqi_from_sinr_rows(
                report[copy.receiver, None], table)[0]), max(cfg.cqi_value, 1))
        return link.cqi_efficiency(cqi[copy], table)

    left, granted = {}, []
    for cell, queue in delivery.pending.items():
        items = _price_until_full(((c, c.residual) for c in queue.values()),
                                  price, n_rb, n_re)
        allocations, used = scheduler.schedule_unicast_cam_baseline(
            items, n_rb, n_re)
        delivery.cam_rb_per_tti[tti] += used
        granted += allocations
        left[cell] = n_rb - used
    if not granted:
        return left
    copies = [alloc.key for alloc in granted]
    eff_db = grouped_slices(
        read_now(), np.array([c.receiver for c in copies]),
        np.array([a.rb_start for a in granted]),
        np.array([a.rb_count for a in granted]))
    ok = delivery.decode(eff_db, np.array([cqi[c] for c in copies]))
    for copy, alloc, success in zip(copies, granted, ok.tolist()):
        if success:
            copy.residual = max(copy.residual - alloc.capacity_bits, 0.0)
        if copy.residual <= 0:
            del delivery.pending[delivery.drop_cell[copy.receiver]][
                copy.source, copy.receiver]
            delivery.recorder.on_delivery(copy.source, copy.sequence,
                                          tti + 1, {copy.receiver})
    return left


class _DeliveryLog:
    """Recorder and decoder stand-ins that keep what a delivery hands them."""

    def __init__(self, seed):
        self.rng = np.random.default_rng(seed)
        self.delivered, self.decoded = [], []

    def on_delivery(self, *args):
        self.delivered.append(args)

    def decode(self, eff_db, cqi):
        p = link.bler(eff_db, cqi, 1.0, link.CQI_TABLE)
        self.decoded.append((eff_db, cqi, p))
        return draw_success(p, False, self.rng)


def _unicast_delivery(gen, policy, bound, n_rb, n_sources, n_cells):
    """A `UnicastDelivery` of sources 0..n_sources-1 over `n_cells` area
    cells with random drop cells, and its log; `cfg` carries only the
    fields it reads, so any RB count can be set."""
    cfg = types.SimpleNamespace(
        n_rb=n_rb, usable_re_per_rb=100, cqi_policy=policy, cqi_value=bound,
        n_tti=8, cam_size_bits=2400, cam_period_ttis=100, sizing_cqi=3,
        cqi_table=link.CQI_TABLE)
    drop_cell = [int(gen.integers(n_cells)) for _ in range(n_sources)]
    log = _DeliveryLog(int(gen.integers(2 ** 31)))
    delivery = UnicastDelivery(cfg, list(range(n_cells)), drop_cell, log,
                               log.decode, 1.0)
    return delivery, log


def _random_unicast_case(seed, policy):
    """Two identical random unicast deliveries, their logs, and the
    (report, now) SINR grids of 8 TTIs, with messages added before each."""
    gen = np.random.default_rng(seed)
    n_rb = int(gen.choice([6, 25, 100]))
    bound = int(gen.integers(1, 16) if policy == config.POLICY_FIXED
                else gen.choice([0, int(gen.integers(1, 16))]))
    n_sources, n_cells = int(gen.integers(2, 14)), int(gen.integers(1, 5))
    state = gen.bit_generator.state
    pair = []
    for _ in range(2):
        gen.bit_generator.state = state
        pair.append(_unicast_delivery(gen, policy, bound, n_rb, n_sources,
                                      n_cells))
    sources = list(range(n_sources))
    ttis = []
    for tti in range(8):
        report, now = 10.0 ** (gen.uniform(-2.0, 2.5, (2, n_sources, n_rb)))
        packets = []
        for _ in range(int(gen.integers(0, 4))):
            src = sources[int(gen.integers(n_sources))]
            receivers = {r for r in sources
                         if r != src and gen.random() < 0.7}
            packets.append((src, receivers))
        # Residuals: partly served, a few bits, or a rounding error above
        # whole RBs at the receiver's reported CQI.
        cqi = (np.full(n_sources, bound) if policy == config.POLICY_FIXED
               else np.maximum(link.cqi_from_sinr_rows(report,
                                                       link.CQI_TABLE),
                               max(bound, 1)))
        per_rb = 100 * link.CQI_TABLE.efficiencies[cqi - 1]
        rb = gen.integers(1, 2 * n_rb, n_sources)
        residual = {
            "partial": gen.uniform(1.0, 2400.0, n_sources),
            "bits": gen.uniform(1e-3, 1.0, n_sources),
            "ulp_over": np.nextafter(rb * per_rb, np.inf)}
        kinds = gen.choice(["keep", *residual], size=64)
        ttis.append((report, now, packets, residual, kinds))
    return pair, ttis


def _drive(delivery, serve, ttis):
    """Run `serve` over the case's TTIs; returns each TTI's observables."""
    seen = []
    for tti, (report, now, packets, residual, kinds) in enumerate(ttis):
        for src, receivers in packets:
            delivery.add(src, tti, tti, receivers)
        copies = [c for q in delivery.pending.values() for c in q.values()]
        for copy, kind in zip(copies, kinds):
            if kind != "keep":
                copy.residual = float(residual[kind][copy.receiver])
        left = serve(delivery, tti, None, lambda: now, report)
        seen.append((left, int(delivery.cam_rb_per_tti[tti]),
                     {cell: [(k, c.residual) for k, c in q.items()]
                      for cell, q in delivery.pending.items()}))
    return seen


@pytest.mark.parametrize("policy", [config.POLICY_FIXED,
                                    config.POLICY_ADAPTIVE])
def test_serve_matches_per_copy_pricing(policy, monkeypatch):
    """Pricing each receiver once per TTI and summing the slices from one
    log2 pass gives the grants, CQIs, decode `p`, draws, residuals and
    deletions of pricing every copy on its own, at 6, 25 and 100 RBs and
    with a fixed CQI, an unbounded and a bounded adaptive one."""
    grants = []
    original = scheduler.schedule_unicast_cam_baseline

    def recorded(items, n_rb, n_re):
        allocations, used = original(items, n_rb, n_re)
        grants.append([(a.key.source, a.key.receiver, a.rb_start,
                        a.rb_count, a.capacity_bits) for a in allocations])
        return allocations, used

    monkeypatch.setattr(scheduler, "schedule_unicast_cam_baseline", recorded)
    n_decoded = 0
    for seed in range(60):
        ((new, new_log), (old, old_log)), ttis = _random_unicast_case(
            seed, policy)
        got = _drive(new, UnicastDelivery.serve, ttis)
        got_grants = grants.copy()
        grants.clear()
        want = _drive(old, _per_copy_serve, ttis)
        assert got == want and got_grants == grants
        grants.clear()
        assert new_log.delivered == old_log.delivered
        assert len(new_log.decoded) == len(old_log.decoded)
        for a, b in zip(new_log.decoded, old_log.decoded):
            for x, y in zip(a, b):
                np.testing.assert_array_equal(x, y)
        assert (new_log.rng.bit_generator.state
                == old_log.rng.bit_generator.state)
        n_decoded += len(new_log.decoded)
    assert n_decoded > 100


@pytest.mark.parametrize("policy", [config.POLICY_FIXED,
                                    config.POLICY_ADAPTIVE])
def test_serve_prices_only_the_granted_head(policy, monkeypatch):
    """Each cell's scheduler call gets the head of its queue, priced, up to
    the copy whose RB demand fills the cell: its grants equal those of the
    whole queue priced, and every priced copy is granted RBs."""
    calls = []
    original = scheduler.schedule_unicast_cam_baseline

    def recorded(items, n_rb, n_re):
        calls.append((list(items), original(items, n_rb, n_re), n_rb, n_re))
        return calls[-1][1]

    monkeypatch.setattr(scheduler, "schedule_unicast_cam_baseline", recorded)
    for seed in range(60):
        ((delivery, _), _), ttis = _random_unicast_case(seed, policy)
        cfg, table = delivery.cfg, delivery.cfg.cqi_table
        for tti, (report, now, packets, _, _) in enumerate(ttis):
            for src, receivers in packets:
                delivery.add(src, tti, tti, receivers)
            cqi = (np.full(len(report), cfg.cqi_value)
                   if policy == config.POLICY_FIXED
                   else np.maximum(link.cqi_from_sinr_rows(report, table),
                                   max(cfg.cqi_value, 1)))
            whole = [[(c, c.residual, link.cqi_efficiency(
                int(cqi[c.receiver]), table))
                for c in queue.values()] for queue in delivery.pending.values()]
            delivery.serve(tti, None, lambda: now, report)
            for queue, (head, got, n_rb, n_re) in zip(whole, calls):
                assert head == queue[:len(head)]
                assert got == scheduler.allocate_fifo(queue, n_rb, n_re)
                assert len(got[0]) == len(head)
            calls.clear()
