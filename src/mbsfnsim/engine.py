"""Run lifecycle: the 1 ms TTI loop and its deterministic state.

`run` sets a run up, then runs these stages in every TTI, in this order:

1. Mobility (`Mobility.step`): the tracked cars move, hand over and
   enter or leave the area per block of TTIs; a car that left the area
   exits as a receiver.  Their macroscopic gain is evaluated once per
   block: mobility hands each car over to its strongest cell with it, and
   the channel snapshot scales the cars' tap gains by each TTI's row.
2. Link reads (`LinkReads.step`): this TTI's link state, evaluated only
   where it is read, and the CQI report's.
3. Generation (`_generate`): the sources in their phase of the period
   generate messages, replacing undelivered predecessors.
4. Delivery (`MulticastDelivery.serve` or `UnicastDelivery.serve`): the
   scheduler fills the subframe with messages, each transport block is
   decoded per recipient, buffers drain and the latency log is appended.
5. Ordinary users (`OrdinaryUsers.serve`): the full-buffer users share
   the RBs the messages leave, round robin in each area cell.

A stage that keeps state from TTI to TTI is an object that owns it; the
others are functions of what the loop hands them.  All randomness
derives from the master seed through purpose-keyed streams, so a
(config, seed) pair reproduces bit-identical results.
"""
# No `from __future__ import annotations`: the scenario parser and
# ScenarioConfig's own check read its field types as classes at run time.
import functools
import hashlib
import json
import logging
import math
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from types import MappingProxyType

import numpy as np

from . import channel, link, metrics, scheduler, topology, traffic

log = logging.getLogger(__name__)

MODE_MULTICAST = "multicast"
MODE_UNICAST_BASELINE = "unicast_baseline"
POLICY_FIXED = "fixed"
POLICY_ADAPTIVE = "adaptive"

BANDWIDTH_TO_RB = MappingProxyType({5: 25, 20: 100})


def _spec(default, section: str, *, at_least=None, above=None):
    """A config field with its scenario-file section and lower bound
    (`at_least` inclusive, `above` exclusive), checked at construction."""
    return field(default=default, metadata={
        "section": section, "at_least": at_least, "above": above})


@dataclass(frozen=True)
class ScenarioConfig:
    """Complete declarative description of one run.

    Each field's annotation (int, float, bool or str), default, scenario
    file section and lower bound are the whole schema: the scenario parser
    and the per-field checks derive from them.  A config is checked when it
    is built, also by `dataclasses.replace`: a bad value raises ValueError
    naming its field, so every ScenarioConfig is valid.  Building it also
    reads `cqi_table_file`, once, and keeps the checked table as
    `cqi_table` (the standard table when the field is empty).  `cqi_table`
    is no field: `to_dict` and `content_hash` cover the fields alone.
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
    noise_figure_db: float = _spec(9.0, "radio", at_least=0)
    shadowing_std_db: float = _spec(0.0, "radio", at_least=0)
    cqi_feedback_delay_tti: int = _spec(0, "radio", at_least=0)
    reassign_unused_subframes: bool = _spec(True, "radio")
    bler_slope_db_per_decade: float = _spec(1.0, "radio", above=0)
    perfect_decode: bool = _spec(False, "radio")
    reservation_cqi: int = _spec(3, "radio")  # sizing CQI when the bound is 0
    cqi_table_file: str = _spec("", "radio")  # optional replacement CQI table
    n_tti: int = _spec(10000, "run", at_least=0)
    seed: int = _spec(1, "run", at_least=0)

    def __post_init__(self) -> None:
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
        try:
            noise = channel.noise_variance_normalized(
                self.n_rb, self.tx_power_dbm, self.noise_figure_db)
        except OverflowError:
            noise = math.inf
        if noise == math.inf:
            raise ValueError("noise_figure_db - tx_power_dbm is too large: "
                             "the noise to transmit power ratio overflows")
        if noise == 0.0:
            raise ValueError("noise_figure_db - tx_power_dbm is too small: "
                             "the noise to transmit power ratio underflows "
                             "to 0")
        table = link.CQI_TABLE
        if self.cqi_table_file:
            try:
                table = link.load_cqi_table(self.cqi_table_file)
            except (OSError, ValueError) as exc:
                reason = getattr(exc, "strerror", None) or exc
                raise ValueError(f"cqi_table_file: {self.cqi_table_file!r}: "
                                 f"{reason}") from exc
        object.__setattr__(self, "cqi_table", table)

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
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def content_hash(self) -> str:
        blob = json.dumps(self.to_dict(), sort_keys=True).encode()
        return hashlib.sha256(blob).hexdigest()[:16]


@dataclass(slots=True, eq=False)
class _McastJob:
    source: int
    sequence: int
    receivers: frozenset[int]
    residual: float
    failed: set[int] = field(default_factory=set)


@dataclass(slots=True, eq=False)
class _CopyJob:
    source: int
    sequence: int
    receiver: int
    residual: float


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


def decoder(cfg: ScenarioConfig, rng: np.random.Generator):
    """`decode(eff_db, cqi)`: `draw_success` at the blocks' BLER under the
    config's slope and CQI table."""
    return lambda eff_db, cqi: draw_success(
        link.bler(eff_db, cqi, cfg.bler_slope_db_per_decade, cfg.cqi_table),
        cfg.perfect_decode, rng)


def ordinary_stage(slots, sinr, n_re_per_rb: int, slope_db_per_decade: float,
                   table: link.CqiTable):
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
    `pending` holds each source's undelivered message, oldest first, with
    its residual bits.
    """

    def __init__(self, cfg: ScenarioConfig, area_cells, recorder, row_of,
                 decode, mbsfn_mask: np.ndarray, noise_variance: float):
        self.cfg, self.area_cells, self.recorder = cfg, area_cells, recorder
        self.row_of, self.decode = row_of, decode
        self.mbsfn_mask, self.noise_variance = mbsfn_mask, noise_variance
        sizing_eff = link.cqi_efficiency(cfg.sizing_cqi, cfg.cqi_table)
        self.congested = False
        try:
            reserved = scheduler.required_subframes(
                cfg.cam_size_bits, len(row_of), cfg.n_rb,
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
            cfg.cam_size_bits, len(row_of), cfg.n_rb * cfg.cam_period_ttis,
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
                                      frozenset(receivers),
                                      float(packet.size_bits))

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
        cfg = self.cfg
        if tti % scheduler.SUBFRAMES_PER_FRAME not in self.reserved:
            return dict.fromkeys(self.area_cells, cfg.n_rb)
        if not self.pending:
            # A fully unused reserved subframe goes back, if allowed.
            return dict.fromkeys(self.area_cells, cfg.n_rb
                                 if cfg.reassign_unused_subframes else 0)
        now = read_now()
        tx_cqi = self._tx_cqi(area_sources, report)
        allocations, used = scheduler.schedule_multicast(
            [(j, j.residual) for j in self.pending.values()],
            cfg.n_rb, cfg.usable_re_per_rb,
            link.cqi_efficiency(tx_cqi, cfg.cqi_table))
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
            traffic.consume(job, alloc.capacity_bits)
            if job.residual <= 0:
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
            link.cqi_from_sinr_rows(report[rows], cfg.cqi_table),
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
    by (source, receiver).  A copy's CQI is its receiver's, so `serve`
    prices each receiver once per TTI and each cell's queue only up to the
    copy whose RB demand fills the cell.
    """
    reserved_per_frame = 0
    congested = False
    # Copies are sent, so link state read, in every subframe.
    read_subframes = frozenset(range(scheduler.SUBFRAMES_PER_FRAME))

    def __init__(self, cfg: ScenarioConfig, area_cells, drop_cell, recorder,
                 row_of, decode, noise_variance: float):
        self.cfg, self.area_cells = cfg, area_cells
        self.drop_cell, self.recorder = drop_cell, recorder
        self.row_of, self.decode = row_of, decode
        self.noise_variance = noise_variance
        self.efficiency = cfg.cqi_table.efficiencies.tolist()
        self.source_cells = np.array(list(drop_cell.values()), dtype=int)
        # One generation period's copies over the area cells' RB grids.
        n_sources = len(drop_cell)
        self.analytic_utilization_pct = metrics.utilization(
            cfg.cam_size_bits, n_sources * (n_sources - 1),
            len(area_cells) * cfg.n_rb * cfg.cam_period_ttis,
            cfg.usable_re_per_rb,
            link.cqi_efficiency(cfg.sizing_cqi, cfg.cqi_table))
        self.multicast_rb_per_tti = np.zeros(cfg.n_tti, dtype=np.int64)
        self.cam_rb_per_tti = np.zeros(cfg.n_tti, dtype=np.int64)
        self.pending: dict[int, dict[tuple[int, int], _CopyJob]] = {
            c: {} for c in area_cells}

    def add(self, packet: traffic.CamPacket, receivers) -> None:
        """Queue one copy per receiver at the back of its drop cell's
        queue, replacing the undelivered copy of the source's predecessor
        to that receiver.  A message with no receiver needs no copy: its
        entry closes at the end of its generation TTI."""
        src = packet.source_user_id
        if not receivers:
            self.recorder.on_delivery(src, packet.sequence,
                                      packet.generation_tti + 1, ())
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
        cfg, row_of, efficiency = self.cfg, self.row_of, self.efficiency
        n_rb, n_re = cfg.n_rb, cfg.usable_re_per_rb
        # Rows are evaluated independently: each CQI is its row's alone.
        if cfg.cqi_policy == POLICY_FIXED:
            cqi_of_row = [cfg.cqi_value] * len(row_of)
        else:
            cqi_of_row = np.maximum(
                link.cqi_from_sinr_rows(report, cfg.cqi_table),
                max(cfg.cqi_value, 1)).tolist()
        left, granted = {}, []
        for cell, queue in self.pending.items():
            # Only the head whose RB demand fills the cell is priced: the
            # scheduler stops at that same copy and grants every one before.
            head, demand = [], 0
            for copy in queue.values():
                if demand >= n_rb:
                    break
                per_re = efficiency[cqi_of_row[row_of[copy.receiver]] - 1]
                head.append((copy, copy.residual, per_re))
                demand += scheduler.rb_demand(copy.residual, n_re, per_re)
            allocations, used = scheduler.schedule_unicast_cam_baseline(
                head, n_rb, n_re)
            self.cam_rb_per_tti[tti] += used
            granted += allocations
            left[cell] = n_rb - used
        if not granted:
            return left
        # One draw per copy, in cell-then-allocation order.
        copies = [alloc.key for alloc in granted]
        rows = [row_of[copy.receiver] for copy in copies]
        eff_db = link.effective_sinr_db_slices(
            read_now(), np.array(rows),
            np.array([a.rb_start for a in granted]),
            np.array([a.rb_count for a in granted]))
        ok = self.decode(eff_db, np.array([cqi_of_row[r] for r in rows]))
        for copy, alloc, success in zip(copies, granted, ok.tolist()):
            if success:
                traffic.consume(copy, alloc.capacity_bits)
            if copy.residual <= 0:
                del self.pending[self.drop_cell[copy.receiver]][
                    copy.source, copy.receiver]
                self.recorder.on_delivery(copy.source, copy.sequence,
                                          tti + 1, {copy.receiver})
        return left

    def measured_utilization_pct(self) -> float:
        grid_rb = self.cfg.n_rb * max(self.cfg.n_tti, 1)
        return (100.0 * float(self.cam_rb_per_tti.sum())
                / (grid_rb * len(self.area_cells)))


class Mobility:
    """The moving sources' positions, macroscopic gain, serving cells and
    area membership, advanced once per block of channel.BLOCK_LEN TTIs.

    The blocks line up with the fading blocks and end at the run's last
    TTI.  Each block makes one `topology.advance_mobility` call, which
    evaluates the block's gains in one `amplitude_gain` pass, and one pass
    over its serving cells for the in-area rows; every TTI's values are
    bitwise those of a step per TTI.  The cars in the area, i.e. served
    by an area cell, are the only ones obliged to receive (and report CQI
    for) messages.  A car that left the area stops blocking open entries
    and is excluded from new recipient sets: the area set is rebuilt, and
    exits recorded in sorted order, only at a TTI whose in-area row
    differs from the one before.  The sources share one speed: they all
    move or all stand in their drop cells, in the area.
    """

    def __init__(self, pop, sources, model, mbsfn_mask, recorder,
                 n_tti: int):
        m = model.n_moving
        # When the cars move, the sources are the model's rows 0..m-1.
        self.moving = np.array(sources[:m], dtype=np.intp)
        self.gain = functools.partial(model.amplitude_gain, rows=slice(0, m))
        self.pop, self.mbsfn_mask = pop, mbsfn_mask
        self.recorder, self.n_tti = recorder, n_tti
        # Every car starts in its drop cell, so in the area.
        self.area = set(sources)
        self.in_area = np.ones(m, dtype=bool)
        self.gains = None

    def step(self, tti: int):
        """This TTI's gains of the moving sources, a new (n_moving,
        n_cells) array, and the set of sources in the area."""
        k = tti % channel.BLOCK_LEN
        if k == 0:
            # Free the last block's gains before the next one is built; the
            # rows handed out are copies, so nothing else holds the block.
            self.gains = None
            self.gains, serving = topology.advance_mobility(
                self.pop, channel.TTI_S, self.gain, self.moving,
                min(channel.BLOCK_LEN, self.n_tti - tti))
            rows = self.mbsfn_mask[serving]
            before = np.concatenate((self.in_area[None], rows[:-1]))
            self.changed = (rows != before).any(axis=1).tolist()
            self.rows, self.in_area = rows, rows[-1]
        if self.changed[k]:
            area = set(self.moving[self.rows[k]].tolist())
            for gone in sorted(self.area - area):
                self.recorder.on_receiver_exit(gone, tti)
            self.area = area
        return self.gains[k].copy(), self.area


def _generate(tti, phase_sources, buffers, area_now, recorder, delivery):
    """Each source in its generation phase sends a message to the other
    cars in the area, which replaces its undelivered predecessor."""
    for src in phase_sources:
        pkt = traffic.maybe_generate(buffers[src], tti)
        receivers = area_now - {src}
        recorder.on_generation(src, pkt.sequence, tti, receivers)
        delivery.add(pkt, receivers)


class LinkReads:
    """This TTI's link state, evaluated lazily, and the report's.

    The delivery derives one (source, rb) SINR grid from the sources' taps
    alone, through the model's steering (see `link`): the MBSFN SINR in
    multicast mode, the SINR against the drop cell in unicast mode.  No
    (user, cell, rb) channel is formed.  A delivery reads that grid only in
    its `read_subframes` (multicast: the reserved ones; unicast: all ten);
    an adaptive CQI at TTI t also reads the report of TTI max(t - delay, 0),
    the TTIs `reported` marks.  The snapshot and the grid are evaluated at
    a report TTI or where `serve` reads them (multicast: a message is
    pending; unicast: a copy is granted RBs); elsewhere the feedback-delay
    cache holds None.  CQI reports read the cached grid and decoding reads
    this TTI's.  Standing cars are static rows, so their grid is evaluated
    once, here.
    """

    def __init__(self, cfg, delivery, model, reported, n_sources: int):
        self.model, self.reported = model, reported
        self.link_state = functools.partial(
            delivery.link_state, steer=model.steer,
            steer_products=model.steer_products)
        self.static_now = (None if model.n_moving
                           else self.link_state(model.static[:n_sources]))
        self.reports = deque(maxlen=cfg.cqi_feedback_delay_tti + 1)

    def step(self, tti: int, gamma: np.ndarray):
        """`read_now()`, this TTI's grid, and the report's grid or None."""
        now = self.static_now
        if now is None and self.reported[tti]:
            now = self.link_state(self.model.snapshot(tti, gamma))
        self.reports.append(now)
        return (lambda: self.link_state(self.model.snapshot(tti, gamma))
                if now is None else now), self.reports[0]


class OrdinaryUsers:
    """The area cells' ordinary full-buffer users, served round robin on
    the RBs the messages leave them.

    An ordinary user is static, so its SINR, reported or current, is fixed
    before the loop, and a cell's slots, with their bits and error
    probabilities, depend only on its state (cell, RBs left, round-robin
    offset): `ordinary_stage` prices each state once, and each TTI only
    draws the decodes.  A TTI's new states are priced in one call; its
    slots are priced independently, so each state's arrays are those it
    would get alone.  `bits` holds each user's decoded bits by its row of
    `sinr`.
    """

    def __init__(self, cfg: ScenarioConfig,
                 rows_by_cell: dict[int, list[int]], sinr, rng):
        self.cfg, self.rng = cfg, rng
        self.rows_by_cell, self.sinr = rows_by_cell, sinr
        self.rr_offset = dict.fromkeys(rows_by_cell, 0)
        self.priced = {}
        self.bits = np.zeros(len(sinr))

    def serve(self, left: dict[int, int]) -> None:
        """Serve each cell's users on the `left[cell]` RBs and advance its
        round robin; the TTI's blocks are decoded by one `draw_success`
        call, in cell order."""
        cfg, priced = self.cfg, self.priced
        served, new = [], {}
        for cell, users in self.rows_by_cell.items():
            if users and left[cell] > 0:
                state = (cell, left[cell], self.rr_offset[cell])
                if state not in priced:
                    new[state] = scheduler.schedule_unicast_ordinary(
                        users, *state[1:])
                served.append(state)
                self.rr_offset[cell] = (state[2] + 1) % len(users)
        if new:
            slots = np.array([s for part in new.values() for s in part],
                             dtype=np.intp)
            arrays = (slots[:, 0], *ordinary_stage(
                slots, self.sinr, cfg.usable_re_per_rb,
                cfg.bler_slope_db_per_decade, cfg.cqi_table))
            at = 0
            for state, part in new.items():
                priced[state] = tuple(a[at:at + len(part)] for a in arrays)
                at += len(part)
        if served:
            rows, bits, p = (np.concatenate(parts) for parts in
                             zip(*[priced[state] for state in served]))
            ok = draw_success(p, cfg.perfect_decode, self.rng)
            # A user has at most one slot per TTI, so no row repeats.
            self.bits[rows[ok]] += bits[ok]


def run(cfg: ScenarioConfig) -> RunRecord:
    seed = cfg.seed
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
    # `rows_by_cell` gives each area cell's ordinary users as indices into
    # `ordinary_tracked`.
    drop_cell = pop.drop_cell.tolist()
    sources, ordinary_tracked = [], []
    rows_by_cell = {c: [] for c in area_cells}
    for u, (cell, car) in enumerate(zip(drop_cell, pop.is_car.tolist())):
        if cell not in mbsfn_cells:
            continue
        if car:
            sources.append(u)
        else:
            rows_by_cell[cell].append(len(ordinary_tracked))
            ordinary_tracked.append(u)
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
    decode = decoder(cfg, rng_decode)
    if cfg.mode == MODE_MULTICAST:
        delivery = MulticastDelivery(cfg, area_cells, recorder, row_of, decode,
                                     mbsfn_mask, noise_var)
    else:
        delivery = UnicastDelivery(
            cfg, area_cells, {src: drop_cell[src] for src in sources},
            recorder, row_of, decode, noise_var)

    # The TTIs whose link state is read: this TTI's in the delivery's
    # subframes, and an adaptive CQI's report, from TTI max(t - delay, 0).
    reads = np.isin(np.arange(cfg.n_tti) % scheduler.SUBFRAMES_PER_FRAME,
                    sorted(delivery.read_subframes))
    reported = np.zeros_like(reads)
    if cfg.cqi_policy == POLICY_ADAPTIVE:
        reported[np.maximum(np.flatnonzero(reads)
                            - cfg.cqi_feedback_delay_tti, 0)] = True
    # One fading pool per run.  Its threads start at the first fading block
    # that maps chunks on it, inside the loop, so the `finally` below joins
    # every thread it starts.
    pool = ThreadPoolExecutor(channel.usable_cpus(),
                              thread_name_prefix="fading")
    model = channel.ChannelModel(
        cell_positions=layout.cell_positions,
        positions=pop.positions[tracked],
        user_speeds_ms=np.hypot(*pop.velocities[tracked].T),
        shadowing_db=shadow_full[tracked],
        carrier_hz=cfg.carrier_ghz * 1e9,
        n_rb=cfg.n_rb,
        seed=seed,
        evaluated_ttis=reads | reported,
        pool=pool,
    )
    congested = delivery.congested
    if delivery.analytic_utilization_pct > 100.0:
        congested = True
        log.warning("offered message load is %.1f%% of capacity; expect "
                    "unbounded latency growth",
                    delivery.analytic_utilization_pct)

    ordinary = OrdinaryUsers(cfg, rows_by_cell, link.sinr_vs_cell(
        model.static[n_sources - model.n_moving:],
        pop.serving_cell[ordinary_tracked], model.steer, model.steer_products,
        noise_var), rng_decode)
    links = LinkReads(cfg, delivery, model, reported, n_sources)
    mobility = Mobility(pop, sources, model, mbsfn_mask, recorder, cfg.n_tti)
    # The sources that generate at each phase of the period, in order.
    generating = {}
    for src in sources:
        generating.setdefault(buffers[src].offset, []).append(src)

    try:
        for tti in range(cfg.n_tti):
            gamma, area_now = mobility.step(tti)
            read_now, report = links.step(tti, gamma)
            _generate(tti, generating.get(tti % cfg.cam_period_ttis, ()),
                      buffers, area_now, recorder, delivery)
            left = delivery.serve(tti, area_now, read_now, report)
            ordinary.serve(left)
    finally:
        pool.shutdown(cancel_futures=True)

    duration_s = cfg.n_tti * channel.TTI_S
    throughput = {u: (b / duration_s / 1e6 if duration_s else 0.0)
                  for u, b in zip(ordinary_tracked, ordinary.bits.tolist())}
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
