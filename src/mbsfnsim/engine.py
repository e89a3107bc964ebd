"""Run lifecycle: the 1 ms TTI loop and its deterministic state.

Per TTI: vehicles move, the channel advances, users report channel
quality, new messages are generated (replacing undelivered
predecessors), the scheduler fills the subframe, each transport block
is decoded per recipient, buffers drain, and the latency/throughput
logs are appended.  All randomness derives from the master seed through
purpose-keyed streams, so a (config, seed) pair reproduces bit-identical
results.
"""
from __future__ import annotations

import functools
import hashlib
import json
import logging
from collections import deque
from dataclasses import asdict, dataclass, replace

import numpy as np

from . import channel, link, metrics, scheduler, topology, traffic

log = logging.getLogger(__name__)

MODE_MULTICAST = "multicast"
MODE_UNICAST_BASELINE = "unicast_baseline"
POLICY_FIXED = "fixed"
POLICY_ADAPTIVE = "adaptive"

BANDWIDTH_TO_RB = {5: 25, 20: 100}
TTI_SECONDS = 1e-3


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete declarative description of one run."""
    mode: str = MODE_MULTICAST
    cqi_policy: str = POLICY_FIXED
    cqi_value: int = 3                  # fixed CQI, or bound when adaptive
    bandwidth_mhz: int = 5
    mbsfn_rings: int = 1
    interference_rings: int = 1
    inter_site_distance_m: float = 500.0
    users_per_cell: int = 6
    cars_per_cell: int = 3
    car_speed_kmh: float = 100.0
    cam_size_bytes: int = 300
    cam_period_ms: int = 100
    carrier_ghz: float = 2.14
    usable_re_per_rb: int = 100
    tx_power_dbm: float = 43.0
    noise_figure_db: float = 9.0
    shadowing_std_db: float = 0.0
    cqi_feedback_delay_tti: int = 0
    reassign_unused_subframes: bool = True
    bler_slope_db_per_decade: float = 1.0
    perfect_decode: bool = False
    reservation_cqi: int = 3            # sizing CQI when the bound is 0
    cqi_table_file: str = ""            # optional replacement CQI table
    n_tti: int = 10000
    seed: int = 1

    def validate(self) -> None:
        if self.mode not in (MODE_MULTICAST, MODE_UNICAST_BASELINE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.cqi_policy not in (POLICY_FIXED, POLICY_ADAPTIVE):
            raise ValueError(f"unknown cqi_policy {self.cqi_policy!r}")
        if self.bandwidth_mhz not in BANDWIDTH_TO_RB:
            raise ValueError("bandwidth_mhz must be 5 or 20")
        if self.cqi_policy == POLICY_FIXED and not 1 <= self.cqi_value <= 15:
            raise ValueError("fixed CQI must be in 1..15")
        if self.cqi_policy == POLICY_ADAPTIVE and not 0 <= self.cqi_value <= 15:
            raise ValueError("adaptive CQI bound must be in 0..15")
        if not 1 <= self.reservation_cqi <= 15:
            raise ValueError("reservation_cqi must be in 1..15")
        if self.users_per_cell < 1:
            raise ValueError("users_per_cell must be >= 1")
        if self.cars_per_cell > self.users_per_cell:
            raise ValueError("cars_per_cell exceeds users_per_cell")
        if self.n_tti < 0 or self.cam_period_ms <= 0 or self.cam_size_bytes <= 0:
            raise ValueError("run length and traffic sizes must be positive")
        if self.cqi_feedback_delay_tti < 0:
            raise ValueError("feedback delay must be >= 0")
        if self.inter_site_distance_m <= 0:
            raise ValueError("inter-site distance must be positive")
        if self.car_speed_kmh < 0:
            raise ValueError("car_speed_kmh must be >= 0")
        if self.usable_re_per_rb < 1:
            raise ValueError("usable_re_per_rb must be >= 1")
        if self.bler_slope_db_per_decade <= 0:
            raise ValueError("bler_slope_db_per_decade must be positive")

    @property
    def n_rb(self) -> int:
        return BANDWIDTH_TO_RB[self.bandwidth_mhz]

    @property
    def cam_size_bits(self) -> int:
        return self.cam_size_bytes * 8

    @property
    def cam_period_ttis(self) -> int:
        return self.cam_period_ms

    @property
    def car_speed_ms(self) -> float:
        return self.car_speed_kmh / 3.6

    @property
    def sizing_cqi(self) -> int:
        """CQI at which the subframe reservation is dimensioned."""
        if self.cqi_policy == POLICY_FIXED:
            return self.cqi_value
        return self.cqi_value if self.cqi_value >= 1 else self.reservation_cqi

    def cqi_policy_label(self) -> str:
        return f"{self.cqi_policy}:{self.cqi_value}"

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: dict) -> "ScenarioConfig":
        cfg = cls(**d)
        cfg.validate()
        return cfg

    def content_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


class _McastJob:
    __slots__ = ("source", "sequence", "generation_tti", "receivers",
                 "failed", "alive")

    def __init__(self, source, sequence, generation_tti, receivers):
        self.source = source
        self.sequence = sequence
        self.generation_tti = generation_tti
        self.receivers = frozenset(receivers)
        self.failed: set[int] = set()
        self.alive = True


class _CopyJob:
    __slots__ = ("source", "sequence", "receiver", "residual", "cqi", "alive")

    def __init__(self, source, sequence, receiver, residual):
        self.source = source
        self.sequence = sequence
        self.receiver = receiver
        self.residual = float(residual)
        self.cqi = 1
        self.alive = True


@dataclass
class RunRecord:
    config_dict: dict
    seed: int
    config_hash: str
    sources: list[int]
    n_mbms_users: int
    reserved_per_frame: int
    congested: bool
    entries: list[metrics.LatencyEntry]
    n_open_entries: int
    latency_matrix: np.ndarray
    ordinary_throughput_mbps: dict[int, float]
    multicast_rb_per_tti: np.ndarray
    cam_rb_per_tti: np.ndarray
    analytic_utilization_pct: float
    measured_utilization_pct: float

    def mean_latency_tti(self) -> float:
        """Mean over all closed entries (sources may close unequal counts
        under congestion, so the flat list is the robust aggregate)."""
        if not self.entries:
            return float("nan")
        return float(np.mean([e.latency_ttis for e in self.entries]))

    def mean_throughput_mbps(self) -> float:
        if not self.ordinary_throughput_mbps:
            return float("nan")
        return float(np.mean(list(self.ordinary_throughput_mbps.values())))

    def summary(self) -> dict:
        return {
            "mode": self.config_dict["mode"],
            "bandwidth": self.config_dict["bandwidth_mhz"],
            "cqi_policy": "{cqi_policy}:{cqi_value}".format(**self.config_dict),
            "mean_latency_tti": self.mean_latency_tti(),
            "mean_throughput_mbps": self.mean_throughput_mbps(),
            "utilization_pct": self.analytic_utilization_pct,
            "measured_utilization_pct": self.measured_utilization_pct,
            "congested": self.congested,
        }


def decoder(slope_db_per_decade: float, perfect_decode: bool,
            rng: np.random.Generator):
    """`decode(eff_db, cqi)`: success flags for a batch of transport blocks.

    Each block takes one uniform draw from `rng` in batch order, so one
    batch of n blocks leaves `rng` where n batches of one would; with
    `perfect_decode` every block succeeds and nothing is drawn.
    """
    def decode(eff_db: np.ndarray, cqi) -> np.ndarray:
        if perfect_decode:
            return np.ones(len(eff_db), dtype=bool)
        p = link.bler(eff_db, cqi, slope_db_per_decade)
        return rng.random(len(eff_db)) >= p
    return decode


def ordinary_stage(slots, report_sinr: np.ndarray, sinr: np.ndarray,
                   n_re_per_rb: int, decode):
    """Link stage of the ordinary full-buffer users' round-robin slots.

    `slots` lists (row, rb_start, rb_count) with rb_count > 0.  Each slot's
    CQI comes from `report_sinr` (the possibly delayed report) over its RB
    slice and its decode from `sinr` (this TTI's channel); slots of equal
    length are evaluated as one (n, rb_count) array.  Returns per-slot
    transport-block bits and decode flags, in slot order.
    """
    rows, starts, counts = np.array(slots, dtype=np.intp).reshape(-1, 3).T
    cqi = np.empty(len(counts), dtype=np.intp)
    eff_db = np.empty(len(counts))
    for length in np.unique(counts):
        group = np.flatnonzero(counts == length)
        r = rows[group, None]
        rbs = starts[group, None] + np.arange(length)
        cqi[group] = link.cqi_from_sinr_rows(report_sinr[r, rbs])
        eff_db[group] = link.effective_sinr_db_rows(sinr[r, rbs])
    bits = counts * n_re_per_rb * link.EFFICIENCIES[cqi - 1]
    return bits, decode(eff_db, cqi)


def run(config: ScenarioConfig) -> RunRecord:
    config.validate()
    if config.cqi_table_file:
        previous = link.apply_cqi_table(link.load_cqi_table(
            config.cqi_table_file))
        try:
            return _run(config)
        finally:
            link.apply_cqi_table(previous)
    return _run(config)


def _run(config: ScenarioConfig) -> RunRecord:
    cfg = config
    seed = cfg.seed
    rng_decode = np.random.default_rng(np.random.SeedSequence([seed, 0xDEC]))

    layout = topology.build_layout(cfg.mbsfn_rings, cfg.interference_rings,
                                   cfg.inter_site_distance_m)
    pop = topology.drop_users(layout, cfg.users_per_cell, cfg.cars_per_cell,
                              cfg.car_speed_ms, rng_seed=seed)
    mbsfn_cells = layout.mbsfn_cells
    shadow_full = channel.draw_shadowing(pop.n_users, layout.n_cells,
                                         cfg.shadowing_std_db, seed)

    # Sources and recipients are the cars dropped inside the multicast area;
    # ordinary throughput is tracked for that area's static users, since the
    # outer ring never carries message traffic or reservations.
    car_ids = pop.car_ids()
    sources = [int(u) for u in car_ids if int(pop.drop_cell[u]) in mbsfn_cells]
    ordinary_tracked = [int(u) for u in pop.ordinary_ids()
                        if int(pop.drop_cell[u]) in mbsfn_cells]
    tracked = sources + ordinary_tracked
    row_of = {u: i for i, u in enumerate(tracked)}
    n_sources = len(sources)

    speeds = [float(np.hypot(*pop.velocities[u])) for u in tracked]
    noise_var = channel.noise_variance_normalized(cfg.n_rb, cfg.tx_power_dbm,
                                                  cfg.noise_figure_db)
    model = channel.ChannelModel(
        cell_positions=layout.cell_positions,
        user_speeds_ms=np.asarray(speeds),
        shadowing_db=shadow_full[tracked],
        carrier_hz=cfg.carrier_ghz * 1e9,
        n_rb=cfg.n_rb,
        noise_variance=noise_var,
        seed=seed,
    )
    mbsfn_mask = np.zeros(layout.n_cells, dtype=bool)
    mbsfn_mask[list(mbsfn_cells)] = True

    def reselect_gain_db(user_ids, positions):
        d = np.linalg.norm(positions[:, None, :]
                           - layout.cell_positions[None, :, :], axis=2)
        return -channel.pathloss_db(d) + shadow_full[user_ids]

    # Subframe reservation, sized once regardless of rate adaptation.
    congested = False
    reserved_per_frame = 0
    if cfg.mode == MODE_MULTICAST and n_sources > 0:
        sizing_eff = link.cqi_efficiency(cfg.sizing_cqi)
        try:
            reserved_per_frame = scheduler.required_subframes(
                cfg.cam_size_bits, n_sources, cfg.n_rb, cfg.usable_re_per_rb,
                sizing_eff, cfg.cam_period_ttis)
        except scheduler.CongestionInfeasibleError as exc:
            log.warning("reservation infeasible (%s); using the maximum of "
                        "%d subframes per frame", exc,
                        len(scheduler.MBSFN_LEGAL_SUBFRAMES))
            reserved_per_frame = len(scheduler.MBSFN_LEGAL_SUBFRAMES)
            congested = True
    plan = scheduler.build_frame_plan(reserved_per_frame, cfg.n_rb,
                                      cfg.usable_re_per_rb)

    # Analytic utilization over one generation period of the full RB grid.
    rb_per_period = cfg.n_rb * cfg.cam_period_ttis
    if cfg.mode == MODE_MULTICAST:
        analytic_util = metrics.utilization(
            cfg.cam_size_bits, n_sources, rb_per_period, cfg.usable_re_per_rb,
            link.cqi_efficiency(cfg.sizing_cqi)) if n_sources else 0.0
    else:
        n_area_cells = max(len(mbsfn_cells), 1)
        analytic_util = metrics.utilization(
            cfg.cam_size_bits, n_sources * max(n_sources - 1, 0),
            n_area_cells * rb_per_period, cfg.usable_re_per_rb,
            link.cqi_efficiency(cfg.sizing_cqi)) if n_sources else 0.0
    if analytic_util > 100.0:
        congested = True
        log.warning("offered message load is %.1f%% of capacity; expect "
                    "unbounded latency growth", analytic_util)

    # Traffic state.
    offsets = traffic.draw_offsets(n_sources, cfg.cam_period_ttis, seed)
    buffers = {src: traffic.UserBuffer(
        user_id=src, offset=int(offsets[k]), period=cfg.cam_period_ttis,
        packet_bits=cfg.cam_size_bits) for k, src in enumerate(sources)}
    recorder = metrics.LatencyRecorder(sources, cfg.cam_period_ttis)

    def in_area_sources() -> set[int]:
        """Cars currently served by an area cell; only they are obliged to
        receive (and report CQI for) multicast messages."""
        return {s for s in sources if int(pop.serving_cell[s]) in mbsfn_cells}

    mcast_queue: deque[_McastJob] = deque()
    current_job: dict[int, _McastJob] = {}
    # One copy queue per area cell; recipients stay subscribed at their drop
    # cell, so ring cells never carry message copies.
    cell_queues: dict[int, deque[_CopyJob]] = {c: deque()
                                               for c in sorted(mbsfn_cells)}
    current_copies: dict[tuple[int, int], _CopyJob] = {}

    ordinary_by_cell = {c: [u for u in ordinary_tracked
                            if int(pop.drop_cell[u]) == c]
                        for c in sorted(mbsfn_cells)}
    ordinary_bits = {u: 0.0 for u in ordinary_tracked}
    rr_offset = {c: 0 for c in sorted(mbsfn_cells)}

    multicast_rb = np.zeros(cfg.n_tti, dtype=np.int64)
    cam_rb = np.zeros(cfg.n_tti, dtype=np.int64)

    delay = cfg.cqi_feedback_delay_tti
    report_cache: deque[tuple[np.ndarray, np.ndarray]] = deque(maxlen=delay + 1)

    decode_ok = decoder(cfg.bler_slope_db_per_decade, cfg.perfect_decode,
                        rng_decode)

    def price_copy(copy: _CopyJob, cell: int) -> float:
        """Set the copy's CQI from this TTI's channel report towards
        `cell`; returns its efficiency."""
        if cfg.cqi_policy == POLICY_FIXED:
            copy.cqi = cfg.cqi_value
        else:
            rep = link.sinr_vs_cell(pw_rep, tot_rep, [row_of[copy.receiver]],
                                    [cell], noise_var)
            copy.cqi = max(int(link.cqi_from_sinr_rows(rep)[0]),
                           max(cfg.cqi_value, 1))
        return link.cqi_efficiency(copy.cqi)

    area_now = in_area_sources()

    for tti in range(cfg.n_tti):
        pop = topology.advance_mobility(pop, TTI_SECONDS, reselect_gain_db)
        snap = model.snapshot(tti, pop.positions[tracked])
        h = snap.h

        # Membership follows the serving cell: a car that left the area stops
        # blocking open entries and is excluded from new recipient sets.
        area_prev, area_now = area_now, in_area_sources()
        for gone in sorted(area_prev - area_now):
            recorder.on_receiver_exit(gone, tti)

        mc_sinr = link.multicast_sinr_grid(h[:n_sources], mbsfn_mask,
                                           noise_var) if n_sources else \
            np.empty((0, cfg.n_rb))
        power, total_power = link.power_components(h)
        all_rows = np.arange(len(tracked))
        uc_sinr = link.sinr_vs_cell(power, total_power, all_rows,
                                    pop.serving_cell[tracked], noise_var)
        report_cache.append((mc_sinr, uc_sinr, power, total_power))
        mc_rep, uc_rep, pw_rep, tot_rep = report_cache[0]
        area_rows = np.array([row_of[s] for s in sorted(area_now)], dtype=int)
        car_cqi = (link.cqi_from_sinr_rows(mc_rep[area_rows])
                   if area_rows.size else np.array([], int))

        # --- generation (replacing any undelivered predecessor) ---
        for k, src in enumerate(sources):
            pkt = traffic.maybe_generate(buffers[src], tti)
            if pkt is None:
                continue
            receivers = area_now - {src}
            recorder.on_generation(src, pkt.sequence, tti, receivers)
            if cfg.mode == MODE_MULTICAST:
                old = current_job.get(src)
                if old is not None and old.alive:
                    old.alive = False
                job = _McastJob(src, pkt.sequence, tti, receivers)
                current_job[src] = job
                mcast_queue.append(job)
            else:
                # Each recipient is subscribed at the cell it was dropped in,
                # keeping every area cell's copy load at the same
                # recipients-per-cell multiplier.
                for recv in sorted(receivers):
                    old = current_copies.get((src, recv))
                    if old is not None and old.alive:
                        old.alive = False
                    copy = _CopyJob(src, pkt.sequence, recv, pkt.size_bits)
                    current_copies[(src, recv)] = copy
                    cell_queues[int(pop.drop_cell[recv])].append(copy)

        # --- scheduling, decoding, buffer update ---
        area_ordinary_rb = plan.n_rb_per_subframe  # RBs per area cell this TTI

        if cfg.mode == MODE_MULTICAST and plan.is_reserved(tti):
            pending = [j for j in mcast_queue
                       if j.alive and buffers[j.source].residual_bits > 0]
            if pending:
                if cfg.cqi_policy == POLICY_ADAPTIVE and len(car_cqi):
                    state = scheduler.CqiState(
                        mode=POLICY_ADAPTIVE, cqi_bound=cfg.cqi_value,
                        cqi_reports=car_cqi)
                    tx_cqi = scheduler.select_mbsfn_cqi(state)
                elif cfg.cqi_policy == POLICY_ADAPTIVE:
                    tx_cqi = cfg.sizing_cqi  # nobody left in the area to report
                else:
                    tx_cqi = scheduler.select_mbsfn_cqi(scheduler.CqiState(
                        mode=POLICY_FIXED, fixed_cqi=cfg.cqi_value))
                eff = link.cqi_efficiency(tx_cqi)
                allocations, used, _ = scheduler.schedule_multicast(
                    [(j, buffers[j.source].residual_bits) for j in pending],
                    plan.n_rb_per_subframe, plan.n_re_per_rb, eff)
                multicast_rb[tti] = used
                for alloc in allocations:
                    job: _McastJob = alloc.key
                    rbs = slice(alloc.rb_start, alloc.rb_start + alloc.rb_count)
                    recv_rows = np.array(
                        [row_of[r] for r in sorted(job.receivers)], dtype=int)
                    if recv_rows.size:
                        eff_db = link.effective_sinr_db_rows(
                            mc_sinr[recv_rows][:, rbs])
                        ok = decode_ok(eff_db, tx_cqi)
                        for r_row, r_ok in zip(recv_rows, ok):
                            if not r_ok:
                                job.failed.add(tracked[r_row])
                    buf = buffers[job.source]
                    traffic.consume(buf, alloc.capacity_bits, decode_ok=True)
                    if buf.residual_bits <= 0:
                        job.alive = False
                        satisfied = job.receivers - job.failed
                        recorder.on_delivery(job.source, job.sequence,
                                             tti + 1, satisfied)
                while mcast_queue and not mcast_queue[0].alive:
                    mcast_queue.popleft()
                area_ordinary_rb = 0
            else:
                # Fully unused reserved subframe: hand it back, if allowed.
                area_ordinary_rb = (plan.n_rb_per_subframe
                                    if cfg.reassign_unused_subframes else 0)

        if cfg.mode == MODE_UNICAST_BASELINE:
            cam_used_now = 0
            ordinary_left: dict[int, int] = {}
            for cell in sorted(mbsfn_cells):
                q = cell_queues[cell]
                while q and (not q[0].alive or q[0].residual <= 0):
                    q.popleft()
                # Only the copies that fit are priced; a copy's CQI is
                # read only after it is granted RBs in this subframe.
                items = scheduler.price_until_full(
                    ((c, c.residual) for c in q if c.alive),
                    functools.partial(price_copy, cell=cell),
                    plan.n_rb_per_subframe, plan.n_re_per_rb)
                allocations, used = scheduler.schedule_unicast_cam_baseline(
                    items, plan.n_rb_per_subframe, plan.n_re_per_rb)
                cam_used_now += used
                for alloc in allocations:
                    copy: _CopyJob = alloc.key
                    rbs = slice(alloc.rb_start, alloc.rb_start + alloc.rb_count)
                    cur = link.sinr_vs_cell(power, total_power,
                                            [row_of[copy.receiver]], [cell],
                                            noise_var)
                    eff_db = link.effective_sinr_db_rows(cur[:, rbs])
                    ok = bool(decode_ok(eff_db, copy.cqi)[0])
                    if ok:
                        copy.residual = max(copy.residual - alloc.capacity_bits,
                                            0.0)
                    if copy.residual <= 0:
                        copy.alive = False
                        recorder.on_delivery(copy.source, copy.sequence,
                                             tti + 1, {copy.receiver})
                ordinary_left[cell] = plan.n_rb_per_subframe - used
            cam_rb[tti] = cam_used_now

        # --- ordinary full-buffer users on whatever is left ---
        slots, slot_users = [], []
        for cell in sorted(mbsfn_cells):
            users = ordinary_by_cell[cell]
            if not users:
                continue
            avail = (ordinary_left[cell]
                     if cfg.mode == MODE_UNICAST_BASELINE else area_ordinary_rb)
            if avail <= 0:
                continue
            for user, rb_start, rb_count in scheduler.schedule_unicast_ordinary(
                    users, avail, rr_offset[cell]):
                if rb_count > 0:
                    slots.append((row_of[user], rb_start, rb_count))
                    slot_users.append(user)
            rr_offset[cell] += 1
        if slots:
            # Rate adaptation on the assigned slice, not the whole band.
            bits, ok = ordinary_stage(slots, uc_rep, uc_sinr,
                                      plan.n_re_per_rb, decode_ok)
            for user, b, success in zip(slot_users, bits.tolist(),
                                        ok.tolist()):
                if success:
                    ordinary_bits[user] += b

    # --- post-processing ---
    duration_s = cfg.n_tti * TTI_SECONDS
    throughput = {u: (ordinary_bits[u] / duration_s / 1e6 if duration_s else 0.0)
                  for u in ordinary_tracked}
    grid_rb = cfg.n_rb * max(cfg.n_tti, 1)
    if cfg.mode == MODE_MULTICAST:
        measured_util = 100.0 * float(multicast_rb.sum()) / grid_rb
    else:
        measured_util = (100.0 * float(cam_rb.sum())
                         / (grid_rb * max(len(mbsfn_cells), 1)))

    return RunRecord(
        config_dict=cfg.to_dict(),
        seed=seed,
        config_hash=cfg.content_hash(),
        sources=sources,
        n_mbms_users=n_sources,
        reserved_per_frame=reserved_per_frame,
        congested=congested,
        entries=recorder.entries,
        n_open_entries=recorder.n_open,
        latency_matrix=recorder.latency_matrix(),
        ordinary_throughput_mbps=throughput,
        multicast_rb_per_tti=multicast_rb,
        cam_rb_per_tti=cam_rb,
        analytic_utilization_pct=analytic_util,
        measured_utilization_pct=measured_util,
    )


def derived_seeds(master_seed: int, n_seeds: int) -> list[int]:
    """Replicate seeds: the master itself first, then scrambled children
    that remain individually usable as --seed overrides."""
    seeds = [int(master_seed)]
    for k in range(1, n_seeds):
        ss = np.random.SeedSequence([int(master_seed), k])
        seeds.append(int(ss.generate_state(1)[0]))
    return seeds


def replicate(config: ScenarioConfig, n_seeds: int) -> dict:
    """Independent replicates with derived seeds; mean and spread per metric."""
    if n_seeds < 1:
        raise ValueError("n_seeds must be >= 1")
    records = []
    for s in derived_seeds(config.seed, n_seeds):
        records.append(run(replace(config, seed=s)))
    keys = ("mean_latency_tti", "mean_throughput_mbps", "utilization_pct",
            "measured_utilization_pct")
    table = {k: np.array([r.summary()[k] for r in records], dtype=float)
             for k in keys}
    aggregate = {}
    for k, vals in table.items():
        aggregate[k] = {
            "mean": float(np.nanmean(vals)) if len(vals) else float("nan"),
            "min": float(np.nanmin(vals)),
            "max": float(np.nanmax(vals)),
            "std": float(np.nanstd(vals)),
        }
    return {
        "seeds": derived_seeds(config.seed, n_seeds),
        "records": records,
        "aggregate": aggregate,
    }
