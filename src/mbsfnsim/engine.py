"""Run lifecycle: the 1 ms TTI loop and its deterministic state.

Per TTI: vehicles move, the channel advances, users report channel
quality, new messages are generated (replacing undelivered
predecessors), the scheduler fills the subframe, each transport block
is decoded per recipient, buffers drain, and the latency/throughput
logs are appended.  All randomness derives from the master seed through
purpose-keyed streams, so a (config, seed) pair reproduces bit-identical
results.

The loop computes only what changes, and only where it is read.  The
channel model fixes the static users' scaled taps at construction, so
the ordinary users' SINR is computed once, before the loop, and so is
the sources' link state when the cars stand.  A cell's ordinary slots,
with their bits and error probabilities, are priced once per cell state
(RBs left, round-robin offset); each TTI only draws their decodes.  Only
the tracked cars move, and their macroscopic gain is evaluated once per
TTI: mobility hands each car over to its strongest cell with it, and the
snapshot scales the cars' tap gains by it.  The delivery then derives
one (source, rb) SINR grid from the sources' taps alone, through the
model's steering (see `link`): the MBSFN SINR in multicast mode, the
SINR against the drop cell in unicast mode.  No (user, cell, rb) channel
is formed.  The feedback-delay cache keeps that grid; CQI reports read
the cached one and decoding reads this TTI's.

A delivery reads link state only in its `read_subframes` (multicast: the
reserved ones; unicast: all ten); an adaptive CQI at TTI t also reads the
report of TTI max(t - delay, 0).  The snapshot and the grid are evaluated
at a report TTI or where `serve` reads them (multicast: a message is
pending; unicast: a copy is granted RBs); elsewhere the cache holds None.
Mobility and handover still run every TTI.
"""
# No `from __future__ import annotations`: the scenario parser and
# `validate` read ScenarioConfig's field types as classes at run time.
import functools
import hashlib
import itertools
import json
import logging
import math
from collections import deque
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from . import channel, link, metrics, scheduler, topology, traffic

log = logging.getLogger(__name__)

MODE_MULTICAST = "multicast"
MODE_UNICAST_BASELINE = "unicast_baseline"
POLICY_FIXED = "fixed"
POLICY_ADAPTIVE = "adaptive"

BANDWIDTH_TO_RB = {5: 25, 20: 100}


def _spec(default, section: str, *, at_least=None, above=None):
    """A config field with its scenario-file section and lower bound
    (`at_least` inclusive, `above` exclusive), checked by `validate`."""
    return field(default=default, metadata={
        "section": section, "at_least": at_least, "above": above})


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete declarative description of one run.

    Each field's annotation (int, float, bool or str), default, scenario
    file section and lower bound are the whole schema: the scenario parser
    and serializer and the per-field checks of `validate` derive from them.
    """
    mode: str = _spec(MODE_MULTICAST, "scenario")
    cqi_policy: str = _spec(POLICY_FIXED, "scenario")
    cqi_value: int = _spec(3, "scenario")  # fixed CQI, or bound when adaptive
    bandwidth_mhz: int = _spec(5, "scenario")
    mbsfn_rings: int = _spec(1, "layout", at_least=0)
    interference_rings: int = _spec(1, "layout", at_least=1)
    inter_site_distance_m: float = _spec(500.0, "layout", above=0)
    users_per_cell: int = _spec(6, "users", at_least=1)
    cars_per_cell: int = _spec(3, "users", at_least=0)
    car_speed_kmh: float = _spec(100.0, "users", at_least=0)
    cam_size_bytes: int = _spec(300, "traffic", at_least=1)
    cam_period_ms: int = _spec(100, "traffic", at_least=1)
    carrier_ghz: float = _spec(2.14, "radio", above=0)
    usable_re_per_rb: int = _spec(100, "radio", at_least=1)
    tx_power_dbm: float = _spec(43.0, "radio")
    noise_figure_db: float = _spec(9.0, "radio")
    shadowing_std_db: float = _spec(0.0, "radio", at_least=0)
    cqi_feedback_delay_tti: int = _spec(0, "radio", at_least=0)
    reassign_unused_subframes: bool = _spec(True, "radio")
    bler_slope_db_per_decade: float = _spec(1.0, "radio", above=0)
    perfect_decode: bool = _spec(False, "radio")
    reservation_cqi: int = _spec(3, "radio")  # sizing CQI when the bound is 0
    cqi_table_file: str = _spec("", "radio")  # optional replacement CQI table
    n_tti: int = _spec(10000, "run", at_least=0)
    seed: int = _spec(1, "run", at_least=0)

    def validate(self) -> None:
        for f in fields(self):
            value, low, above = (getattr(self, f.name), f.metadata["at_least"],
                                 f.metadata["above"])
            # An int is a float here; a bool is neither an int nor a float.
            accepted = (int, float) if f.type is float else f.type
            if (not isinstance(value, accepted)
                    or isinstance(value, bool) and f.type is not bool):
                raise ValueError(f"{f.name} must be {f.type.__name__}, "
                                 f"got {value!r}")
            if f.type is float and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")
            if low is not None and value < low:
                raise ValueError(f"{f.name} must be >= {low}")
            if above is not None and value <= above:
                raise ValueError(f"{f.name} must be > {above}")
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
        if self.cars_per_cell > self.users_per_cell:
            raise ValueError("cars_per_cell exceeds users_per_cell")
        # The wrap at the boundary disc keeps a car inside it only while one
        # TTI's step is at most the disc's diameter.
        radius = topology.build_layout(
            self.mbsfn_rings, self.interference_rings,
            self.inter_site_distance_m).boundary_radius
        if self.car_speed_ms * channel.TTI_S > 2.0 * radius:
            raise ValueError(
                f"car_speed_kmh must be at most "
                f"{2.0 * radius / channel.TTI_S * 3.6:.6g}: a car may move "
                f"at most the layout's diameter ({2.0 * radius:.0f} m) per TTI")

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

    def cqi_table(self) -> link.CqiTable:
        """The standard CQI table, or the one in `cqi_table_file`; a file
        that cannot be read as a table raises ValueError naming the field."""
        if not self.cqi_table_file:
            return link.CQI_TABLE
        try:
            return link.load_cqi_table(self.cqi_table_file)
        except (OSError, ValueError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise ValueError(f"cqi_table_file: {self.cqi_table_file!r}: "
                             f"{reason}") from exc

    def cqi_policy_label(self) -> str:
        return f"{self.cqi_policy}:{self.cqi_value}"

    def to_dict(self) -> dict:
        return asdict(self)

    def content_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(slots=True, eq=False)
class _McastJob:
    source: int
    sequence: int
    receivers: frozenset[int]
    failed: set[int] = field(default_factory=set)


@dataclass(slots=True, eq=False)
class _CopyJob:
    source: int
    sequence: int
    receiver: int
    residual: float
    cqi: int = 1


@dataclass
class RunRecord:
    config_dict: dict
    seed: int
    config_hash: str
    sources: list[int]
    reserved_per_frame: int
    congested: bool
    entries: list[metrics.LatencyEntry]
    n_open_entries: int
    ordinary_throughput_mbps: dict[int, float]
    multicast_rb_per_tti: np.ndarray
    cam_rb_per_tti: np.ndarray
    analytic_utilization_pct: float
    measured_utilization_pct: float

    def mean_latency_tti(self) -> float:
        """Mean over every closed entry, pooled across sources."""
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


def draw_success(p: np.ndarray, perfect_decode: bool,
                 rng: np.random.Generator) -> np.ndarray:
    """Success flags of transport blocks with error probabilities `p`: one
    uniform draw from `rng` per block in batch order, so one batch of n
    leaves `rng` where n batches of one would; with `perfect_decode` every
    block succeeds and nothing is drawn."""
    if perfect_decode:
        return np.ones(len(p), dtype=bool)
    return rng.random(len(p)) >= p


def decoder(slope_db_per_decade: float, perfect_decode: bool,
            rng: np.random.Generator, table: link.CqiTable = link.CQI_TABLE):
    """`decode(eff_db, cqi)`: `draw_success` at the blocks' BLER."""
    return lambda eff_db, cqi: draw_success(
        link.bler(eff_db, cqi, slope_db_per_decade, table), perfect_decode,
        rng)


def ordinary_stage(slots, sinr, n_re_per_rb: int, slope_db_per_decade: float,
                   table: link.CqiTable = link.CQI_TABLE):
    """Link stage of the ordinary full-buffer users' round-robin slots.

    `slots` lists (row, rb_start, rb_count) with rb_count > 0.  Each slot's
    CQI and block error probability come from its effective SINR over its
    RB slice of `sinr`: an ordinary user is static, so its reported channel
    is its current one.  Returns per-slot transport-block bits and block
    error probabilities, in slot order.
    """
    rows, starts, counts = np.array(slots, dtype=np.intp).reshape(-1, 3).T
    eff_db = link.effective_sinr_db_slices(sinr, rows, starts, counts)
    cqi = link.cqi_from_sinr_db(eff_db, table)
    bits = counts * n_re_per_rb * table.efficiencies[cqi - 1]
    return bits, link.bler(eff_db, cqi, slope_db_per_decade, table)


class MulticastDelivery:
    """MBSFN delivery: each message is sent once, in the subframes reserved
    for multicast, and decoded by every receiver in the area.

    The reservation is sized once from the sizing CQI, whatever the rate
    adaptation.  A reserved subframe carries no ordinary traffic unless it
    has nothing to send and `reassign_unused_subframes` hands it back.
    `pending` holds each source's undelivered message, oldest first.
    """

    def __init__(self, cfg: ScenarioConfig, table: link.CqiTable, area_cells,
                 buffers, recorder, row_of, decode, mbsfn_mask: np.ndarray,
                 noise_variance: float):
        self.cfg, self.table, self.area_cells = cfg, table, area_cells
        self.buffers, self.recorder = buffers, recorder
        self.row_of, self.decode = row_of, decode
        self.mbsfn_mask, self.noise_variance = mbsfn_mask, noise_variance
        sizing_eff = link.cqi_efficiency(cfg.sizing_cqi, table)
        self.congested = False
        try:
            reserved = scheduler.required_subframes(
                cfg.cam_size_bits, len(buffers), cfg.n_rb,
                cfg.usable_re_per_rb, sizing_eff, cfg.cam_period_ttis)
        except scheduler.CongestionInfeasibleError as exc:
            reserved = len(scheduler.MBSFN_LEGAL_SUBFRAMES)
            log.warning("reservation infeasible (%s); using the maximum of "
                        "%d subframes per frame", exc, reserved)
            self.congested = True
        self.reserved_per_frame = reserved
        self.reserved = scheduler.reserved_subframes(reserved)
        # One generation period's messages over the RB grid.
        self.analytic_utilization_pct = metrics.utilization(
            cfg.cam_size_bits, len(buffers), cfg.n_rb * cfg.cam_period_ttis,
            cfg.usable_re_per_rb, sizing_eff)
        self.multicast_rb_per_tti = np.zeros(cfg.n_tti, dtype=np.int64)
        self.cam_rb_per_tti = np.zeros(cfg.n_tti, dtype=np.int64)
        self.pending: dict[int, _McastJob] = {}

    @property
    def read_subframes(self) -> frozenset[int]:
        """`serve` reads link state in reserved subframes only."""
        return self.reserved

    def add(self, packet: traffic.CamPacket, receivers) -> None:
        """Queue a generated message at the back, replacing its source's
        undelivered predecessor."""
        src = packet.source_user_id
        self.pending.pop(src, None)
        self.pending[src] = _McastJob(src, packet.sequence,
                                      frozenset(receivers))

    def link_state(self, x: np.ndarray, steer: np.ndarray,
                   steer_products: np.ndarray) -> np.ndarray:
        """The sources' (source, rb) multicast SINR, from their scaled taps
        x and the channel's steering."""
        return link.multicast_sinr_grid(x, self.mbsfn_mask, steer,
                                        steer_products, self.noise_variance)

    def serve(self, tti: int, area_sources, read_now,
              report: np.ndarray) -> dict[int, int]:
        """Send and decode this TTI's messages with `read_now()`, this
        TTI's `link_state`, and the report's; returns the RBs each area
        cell leaves to ordinary users."""
        cfg, buffers = self.cfg, self.buffers
        if tti % scheduler.SUBFRAMES_PER_FRAME not in self.reserved:
            return dict.fromkeys(self.area_cells, cfg.n_rb)
        if not self.pending:
            # A fully unused reserved subframe goes back, if allowed.
            return dict.fromkeys(self.area_cells, cfg.n_rb
                                 if cfg.reassign_unused_subframes else 0)
        now = read_now()
        tx_cqi = self._tx_cqi(area_sources, report)
        allocations, used = scheduler.schedule_multicast(
            [(j, buffers[j.source].residual_bits)
             for j in self.pending.values()],
            cfg.n_rb, cfg.usable_re_per_rb,
            link.cqi_efficiency(tx_cqi, self.table))
        self.multicast_rb_per_tti[tti] = used
        for alloc in allocations:
            job: _McastJob = alloc.key
            rbs = slice(alloc.rb_start, alloc.rb_start + alloc.rb_count)
            receivers = sorted(job.receivers)
            if receivers:
                rows = np.array([self.row_of[r] for r in receivers], dtype=int)
                ok = self.decode(link.effective_sinr_db_rows(
                    now[rows][:, rbs]), tx_cqi)
                job.failed.update(r for r, r_ok in zip(receivers, ok)
                                  if not r_ok)
            buf = buffers[job.source]
            traffic.consume(buf, alloc.capacity_bits)
            if buf.residual_bits <= 0:
                del self.pending[job.source]
                self.recorder.on_delivery(job.source, job.sequence, tti + 1,
                                          job.receivers - job.failed)
        return dict.fromkeys(self.area_cells, 0)

    def _tx_cqi(self, area_sources, report: np.ndarray) -> int:
        cfg = self.cfg
        if cfg.cqi_policy == POLICY_FIXED:
            return cfg.cqi_value
        if not area_sources:
            return cfg.sizing_cqi  # nobody left in the area to report
        rows = np.array([self.row_of[s] for s in sorted(area_sources)])
        return scheduler.select_mbsfn_cqi(
            link.cqi_from_sinr_rows(report[rows], self.table),
            cfg.cqi_value)

    def measured_utilization_pct(self) -> float:
        grid_rb = self.cfg.n_rb * max(self.cfg.n_tti, 1)
        return 100.0 * float(self.multicast_rb_per_tti.sum()) / grid_rb


class UnicastDelivery:
    """Unicast baseline: each message is copied to every receiver and sent
    with the copy's own CQI through the area cell the receiver was dropped
    in, ahead of ordinary traffic.

    Recipients stay subscribed at their drop cell, so ring cells never carry
    copies and every area cell carries the same recipients-per-cell load.
    `pending[cell]` holds the cell's undelivered copies, oldest first, keyed
    by (source, receiver).
    """
    reserved_per_frame = 0
    congested = False
    # Copies are sent, so link state read, in every subframe.
    read_subframes = frozenset(range(scheduler.SUBFRAMES_PER_FRAME))

    def __init__(self, cfg: ScenarioConfig, table: link.CqiTable, area_cells,
                 drop_cell, recorder, row_of, decode, noise_variance: float):
        self.cfg, self.table, self.area_cells = cfg, table, area_cells
        self.drop_cell, self.recorder = drop_cell, recorder
        self.row_of, self.decode = row_of, decode
        self.noise_variance = noise_variance
        self.source_cells = np.array(list(drop_cell.values()), dtype=int)
        # One generation period's copies over the area cells' RB grids.
        n_sources = len(drop_cell)
        self.analytic_utilization_pct = metrics.utilization(
            cfg.cam_size_bits, n_sources * (n_sources - 1),
            len(area_cells) * cfg.n_rb * cfg.cam_period_ttis,
            cfg.usable_re_per_rb, link.cqi_efficiency(cfg.sizing_cqi, table))
        self.multicast_rb_per_tti = np.zeros(cfg.n_tti, dtype=np.int64)
        self.cam_rb_per_tti = np.zeros(cfg.n_tti, dtype=np.int64)
        self.pending: dict[int, dict[tuple[int, int], _CopyJob]] = {
            c: {} for c in area_cells}

    def add(self, packet: traffic.CamPacket, receivers) -> None:
        """Queue one copy per receiver at the back of its drop cell's
        queue, replacing the undelivered copy of the source's predecessor
        to that receiver."""
        src = packet.source_user_id
        for recv in sorted(receivers):
            queue = self.pending[self.drop_cell[recv]]
            queue.pop((src, recv), None)
            queue[(src, recv)] = _CopyJob(src, packet.sequence, recv,
                                          float(packet.size_bits))

    def link_state(self, x: np.ndarray, steer: np.ndarray,
                   steer_products: np.ndarray) -> np.ndarray:
        """The sources' (source, rb) SINR against their drop cells, from
        their scaled taps x and the channel's steering; every copy
        receiver is a source."""
        return link.sinr_vs_cell(x, self.source_cells, steer, steer_products,
                                 self.noise_variance)

    def serve(self, tti: int, area_sources, read_now,
              report) -> dict[int, int]:
        """Schedule every area cell's copies, then decode the granted ones
        as one batch with `read_now()`, this TTI's `link_state`, and the
        report's; returns the RBs each area cell leaves to ordinary users."""
        n_rb, n_re = self.cfg.n_rb, self.cfg.usable_re_per_rb
        price = functools.partial(self._price, report=report)
        left, granted = {}, []
        for cell, queue in self.pending.items():
            # Only the copies that fit are priced; a copy's CQI is read
            # only after it is granted RBs in this subframe.
            items = scheduler.price_until_full(
                ((c, c.residual) for c in queue.values()), price, n_rb, n_re)
            allocations, used = scheduler.schedule_unicast_cam_baseline(
                items, n_rb, n_re)
            self.cam_rb_per_tti[tti] += used
            granted += allocations
            left[cell] = n_rb - used
        if not granted:
            return left
        # One draw per copy, in cell-then-allocation order.
        copies = [alloc.key for alloc in granted]
        eff_db = link.effective_sinr_db_slices(
            read_now(), np.array([self.row_of[c.receiver] for c in copies]),
            np.array([a.rb_start for a in granted]),
            np.array([a.rb_count for a in granted]))
        ok = self.decode(eff_db, np.array([c.cqi for c in copies]))
        for copy, alloc, success in zip(copies, granted, ok.tolist()):
            if success:
                copy.residual = max(copy.residual - alloc.capacity_bits, 0.0)
            if copy.residual <= 0:
                del self.pending[self.drop_cell[copy.receiver]][
                    copy.source, copy.receiver]
                self.recorder.on_delivery(copy.source, copy.sequence,
                                          tti + 1, {copy.receiver})
        return left

    def _price(self, copy: _CopyJob, report) -> float:
        """Set the copy's CQI from its receiver's reported SINR towards
        the drop cell; returns its efficiency."""
        cfg = self.cfg
        if cfg.cqi_policy == POLICY_FIXED:
            copy.cqi = cfg.cqi_value
        else:
            row = self.row_of[copy.receiver]
            copy.cqi = max(int(link.cqi_from_sinr_rows(
                report[row, None], self.table)[0]), max(cfg.cqi_value, 1))
        return link.cqi_efficiency(copy.cqi, self.table)

    def measured_utilization_pct(self) -> float:
        grid_rb = self.cfg.n_rb * max(self.cfg.n_tti, 1)
        return (100.0 * float(self.cam_rb_per_tti.sum())
                / (grid_rb * len(self.area_cells)))


def run(config: ScenarioConfig) -> RunRecord:
    config.validate()
    cfg = config
    seed = cfg.seed
    table = cfg.cqi_table()
    rng_decode = np.random.default_rng(np.random.SeedSequence([seed, 0xDEC]))

    layout = topology.build_layout(cfg.mbsfn_rings, cfg.interference_rings,
                                   cfg.inter_site_distance_m)
    pop = topology.drop_users(layout, cfg.users_per_cell, cfg.cars_per_cell,
                              cfg.car_speed_ms, rng_seed=seed)
    mbsfn_cells = layout.mbsfn_cells
    area_cells = sorted(mbsfn_cells)
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
    row_of = {u: i for i, u in enumerate(sources)}
    n_sources = len(sources)

    noise_var = channel.noise_variance_normalized(cfg.n_rb, cfg.tx_power_dbm,
                                                  cfg.noise_figure_db)
    mbsfn_mask = np.isin(np.arange(layout.n_cells), area_cells)

    offsets = traffic.draw_offsets(n_sources, cfg.cam_period_ttis, seed)
    buffers = {src: traffic.UserBuffer(
        user_id=src, offset=int(offsets[k]), period=cfg.cam_period_ttis,
        packet_bits=cfg.cam_size_bits) for k, src in enumerate(sources)}
    recorder = metrics.LatencyRecorder(sources, cfg.cam_period_ttis)
    decode = decoder(cfg.bler_slope_db_per_decade, cfg.perfect_decode,
                     rng_decode, table)
    if cfg.mode == MODE_MULTICAST:
        delivery = MulticastDelivery(cfg, table, area_cells, buffers,
                                     recorder, row_of, decode, mbsfn_mask,
                                     noise_var)
    else:
        delivery = UnicastDelivery(
            cfg, table, area_cells,
            {src: int(pop.drop_cell[src]) for src in sources}, recorder,
            row_of, decode, noise_var)

    # The TTIs whose link state is read: this TTI's in the delivery's
    # subframes, and an adaptive CQI's report, from TTI max(t - delay, 0).
    reads = np.isin(np.arange(cfg.n_tti) % scheduler.SUBFRAMES_PER_FRAME,
                    sorted(delivery.read_subframes))
    reported = np.zeros_like(reads)
    if cfg.cqi_policy == POLICY_ADAPTIVE:
        reported[np.maximum(np.flatnonzero(reads)
                            - cfg.cqi_feedback_delay_tti, 0)] = True
    speeds = [float(np.hypot(*pop.velocities[u])) for u in tracked]
    model = channel.ChannelModel(
        cell_positions=layout.cell_positions,
        positions=pop.positions[tracked],
        user_speeds_ms=np.asarray(speeds),
        shadowing_db=shadow_full[tracked],
        carrier_hz=cfg.carrier_ghz * 1e9,
        n_rb=cfg.n_rb,
        seed=seed,
        evaluated_ttis=reads | reported,
    )
    # When the cars move, the sources are the model's rows 0..n_moving-1.
    moving_gain = functools.partial(model.amplitude_gain,
                                    rows=slice(0, model.n_moving))
    link_state = functools.partial(delivery.link_state, steer=model.steer,
                                   steer_products=model.steer_products)

    congested = delivery.congested
    if delivery.analytic_utilization_pct > 100.0:
        congested = True
        log.warning("offered message load is %.1f%% of capacity; expect "
                    "unbounded latency growth",
                    delivery.analytic_utilization_pct)

    # Ordinary users go by their row of ordinary_sinr and ordinary_bits.
    ordinary_by_cell = {c: [row for row, u in enumerate(ordinary_tracked)
                            if int(pop.drop_cell[u]) == c]
                        for c in area_cells}
    ordinary_bits = np.zeros(len(ordinary_tracked))
    # A static user's SINR, reported or current, never changes.
    ordinary_sinr = link.sinr_vs_cell(
        model.static[n_sources - model.n_moving:],
        pop.serving_cell[ordinary_tracked], model.steer,
        model.steer_products, noise_var)
    # Standing cars are static rows, so their link state never changes.
    static_now = (None if model.n_moving
                  else link_state(model.static[:n_sources]))
    # A cell's ordinary slots, bits and error probabilities depend only on
    # its state (cell, RBs left, round-robin offset): each is priced once.
    ordinary_cache = {}
    rr_offset = {c: 0 for c in area_cells}
    report_cache = deque(maxlen=cfg.cqi_feedback_delay_tti + 1)
    # Cars in the area, i.e. served by an area cell: only they are obliged
    # to receive (and report CQI for) messages.  Every car starts in its
    # drop cell.
    area_now = set(sources)
    source_arr = np.array(sources, dtype=np.intp)
    # The sources that generate at each phase of the period, in order.
    generating = {}
    for src in sources:
        generating.setdefault(buffers[src].offset, []).append(src)

    try:
        for tti in range(cfg.n_tti):
            gamma = topology.advance_mobility(pop, channel.TTI_S, moving_gain,
                                              source_arr)

            # Membership follows the serving cell: a car that left the area
            # stops blocking open entries and is excluded from new recipient
            # sets.
            area_prev = area_now
            area_now = set(source_arr[
                mbsfn_mask[pop.serving_cell[source_arr]]].tolist())
            for gone in sorted(area_prev - area_now):
                recorder.on_receiver_exit(gone, tti)

            if static_now is not None:
                now = static_now
            elif reported[tti]:
                now = link_state(model.snapshot(tti, gamma))
            else:
                now = None
            report_cache.append(now)
            report = report_cache[0]

            # Generation replaces any undelivered predecessor.
            for src in generating.get(tti % cfg.cam_period_ttis, ()):
                pkt = traffic.maybe_generate(buffers[src], tti)
                receivers = area_now - {src}
                recorder.on_generation(src, pkt.sequence, tti, receivers)
                delivery.add(pkt, receivers)

            # Messages first, then the ordinary users on what is left.
            left = delivery.serve(tti, area_now, lambda: (
                link_state(model.snapshot(tti, gamma))
                if now is None else now), report)
            states = []
            for cell, users in ordinary_by_cell.items():
                if users and left[cell] > 0:
                    states.append((cell, left[cell], rr_offset[cell]))
                    rr_offset[cell] = (rr_offset[cell] + 1) % len(users)
            if not states:
                continue
            if new := [state for state in states
                       if state not in ordinary_cache]:
                # The TTI's new states in one batch, split per state.
                slots = [[s for s in scheduler.schedule_unicast_ordinary(
                    ordinary_by_cell[c], n, k) if s[2] > 0] for c, n, k in new]
                flat = np.array(list(itertools.chain(*slots)), dtype=np.intp)
                bits, p = ordinary_stage(
                    flat, ordinary_sinr, cfg.usable_re_per_rb,
                    cfg.bler_slope_db_per_decade, table)
                ends = list(itertools.accumulate(map(len, slots), initial=0))
                for state, a, b in zip(new, ends, ends[1:]):
                    ordinary_cache[state] = flat[a:b, 0], bits[a:b], p[a:b]
            rows, bits, p = (np.concatenate(parts) for parts in zip(
                *[ordinary_cache[state] for state in states]))
            ok = draw_success(p, cfg.perfect_decode, rng_decode)
            # A user has at most one slot per TTI, so no row repeats.
            ordinary_bits[rows[ok]] += bits[ok]
    finally:
        # The fading pool's threads end with the loop that uses them.
        model.close()

    duration_s = cfg.n_tti * channel.TTI_S
    throughput = {u: (b / duration_s / 1e6 if duration_s else 0.0)
                  for u, b in zip(ordinary_tracked, ordinary_bits.tolist())}
    return RunRecord(
        config_dict=cfg.to_dict(),
        seed=seed,
        config_hash=cfg.content_hash(),
        sources=sources,
        reserved_per_frame=delivery.reserved_per_frame,
        congested=congested,
        entries=recorder.entries,
        n_open_entries=recorder.n_open,
        ordinary_throughput_mbps=throughput,
        multicast_rb_per_tti=delivery.multicast_rb_per_tti,
        cam_rb_per_tti=delivery.cam_rb_per_tti,
        analytic_utilization_pct=delivery.analytic_utilization_pct,
        measured_utilization_pct=delivery.measured_utilization_pct(),
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
    seeds = derived_seeds(config.seed, n_seeds)
    records = [run(replace(config, seed=s)) for s in seeds]
    aggregate = {}
    for k in ("mean_latency_tti", "mean_throughput_mbps", "utilization_pct",
              "measured_utilization_pct"):
        vals = np.array([r.summary()[k] for r in records], dtype=float)
        aggregate[k] = {stat: float(f(vals)) for stat, f in (
            ("mean", np.nanmean), ("min", np.nanmin), ("max", np.nanmax),
            ("std", np.nanstd))}
    return {"seeds": seeds, "records": records, "aggregate": aggregate}
