"""Message delivery: the loop's fourth stage, multicast or unicast.

A delivery owns the messages not yet delivered and the per-TTI RB arrays
of its mode.  Each TTI the engine hands it the new messages (`add`) and
then calls `serve` once: the scheduler fills the TTI with messages, each
transport block is decoded per recipient through `decode`, the jobs'
residual bits drain (`traffic.consume`), and a finished message closes its
latency entry in the recorder.  `serve` returns the RBs each area cell
leaves to the ordinary users.  Link state is read through the `read_now`
the engine passes, and only in the delivery's `read_subframes`.  Sources
and receivers are rows 0..n_sources-1 of the link state's grids, as in
the recorder.  A receiver that leaves the area is handed to
`on_receiver_exit`.

The scheduler, `traffic.consume` and the recorder are called through
their module or class, never bound by name here, so code that wraps those
attributes (a tracer, a test shim) sees every call.
"""
import logging
from dataclasses import dataclass, field

import numpy as np

from . import link, metrics, scheduler, traffic
from .config import POLICY_FIXED, ScenarioConfig

log = logging.getLogger(__name__)


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


class MulticastDelivery:
    """MBSFN delivery: each message is sent once, in the subframes reserved
    for multicast, and decoded by every receiver in the area.

    The reservation is sized once from the sizing CQI, whatever the rate
    adaptation, and capped at the six legal subframes: a need above them
    makes the delivery `congested`.  A reserved subframe carries no
    ordinary traffic unless it has nothing to send and
    `reassign_unused_subframes` hands it back.  `pending` holds each
    source's undelivered message, oldest first, with its residual bits.
    """

    def __init__(self, cfg: ScenarioConfig, area_cells, recorder,
                 n_sources: int, decode, mbsfn_mask: np.ndarray,
                 noise_variance: float):
        self.cfg, self.area_cells, self.recorder = cfg, area_cells, recorder
        self.decode = decode
        self.mbsfn_mask, self.noise_variance = mbsfn_mask, noise_variance
        sizing_eff = link.cqi_efficiency(cfg.sizing_cqi, cfg.cqi_table)
        need = scheduler.required_subframes(
            cfg.cam_size_bits, n_sources, cfg.n_rb, cfg.usable_re_per_rb,
            sizing_eff, cfg.cam_period_ttis)
        reserved = min(need, len(scheduler.MBSFN_LEGAL_SUBFRAMES))
        self.congested = need > reserved
        if self.congested:
            log.warning("reservation infeasible (need %d subframes per "
                        "frame); using the maximum of %d", need, reserved)
        self.reserved_per_frame = reserved
        self.reserved = scheduler.reserved_subframes(reserved)
        self.read_subframes = self.reserved  # `serve` reads link state here
        # One generation period's messages over the RB grid.
        self.analytic_utilization_pct = metrics.utilization(
            cfg.cam_size_bits, n_sources, cfg.n_rb * cfg.cam_period_ttis,
            cfg.usable_re_per_rb, sizing_eff)
        self.multicast_rb_per_tti = np.zeros(cfg.n_tti, dtype=np.int64)
        self.cam_rb_per_tti = np.zeros(cfg.n_tti, dtype=np.int64)
        self.pending: dict[int, _McastJob] = {}

    def add(self, src: int, sequence: int, tti: int, receivers) -> None:
        """Queue message `sequence` of `src`, generated at `tti` and
        `cfg.cam_size_bits` long, at the back, replacing its source's
        undelivered predecessor."""
        self.pending.pop(src, None)
        self.pending[src] = _McastJob(src, sequence, frozenset(receivers),
                                      float(self.cfg.cam_size_bits))

    def on_receiver_exit(self, receiver: int) -> None:
        """Nothing is queued per receiver: a receiver that left the area
        still decodes the messages generated before it left, and the
        recorder no longer waits for it."""

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
                ok = self.decode(link.effective_sinr_db_rows(
                    now[receivers][:, rbs]), tx_cqi)
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
        return scheduler.select_mbsfn_cqi(
            link.cqi_from_sinr_rows(report[sorted(area_sources)],
                                    cfg.cqi_table),
            cfg.cqi_value)

    def measured_utilization_pct(self) -> float:
        grid_rb = self.cfg.n_rb * max(self.cfg.n_tti, 1)
        return 100.0 * float(self.multicast_rb_per_tti.sum()) / grid_rb


class UnicastDelivery:
    """Unicast baseline: each message is copied to every receiver and sent
    with the copy's own CQI through the area cell the receiver was dropped
    in, ahead of ordinary traffic.

    Recipients stay subscribed at their drop cell, `drop_cell[row]`, so
    ring cells never carry copies and every area cell carries the same
    recipients-per-cell load; a receiver's copies are dropped when it
    leaves the area.  `pending[cell]` holds the cell's undelivered copies,
    oldest first, keyed by (source, receiver).  A copy's CQI is its
    receiver's, so `serve` prices each receiver once per TTI and each
    cell's queue only up to the copy whose RB demand fills the cell.
    """
    reserved_per_frame = 0
    congested = False
    # Copies are sent, so link state read, in every subframe.
    read_subframes = frozenset(range(scheduler.SUBFRAMES_PER_FRAME))

    def __init__(self, cfg: ScenarioConfig, area_cells, drop_cell: list[int],
                 recorder, decode, noise_variance: float):
        self.cfg, self.area_cells = cfg, area_cells
        self.drop_cell, self.recorder = drop_cell, recorder
        self.decode, self.noise_variance = decode, noise_variance
        self.efficiency = cfg.cqi_table.efficiencies.tolist()
        self.source_cells = np.array(drop_cell, dtype=int)
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

    def add(self, src: int, sequence: int, tti: int, receivers) -> None:
        """Queue one `cfg.cam_size_bits` copy of message `sequence` of
        `src`, generated at `tti`, per receiver at the back of its drop
        cell's queue, replacing the undelivered copy of the source's
        predecessor to that receiver.  A message with no receiver needs no
        copy: its entry closes at the end of its generation TTI."""
        if not receivers:
            self.recorder.on_delivery(src, sequence, tti + 1, ())
        size = float(self.cfg.cam_size_bits)
        for recv in sorted(receivers):
            queue = self.pending[self.drop_cell[recv]]
            queue.pop((src, recv), None)
            queue[(src, recv)] = _CopyJob(src, sequence, recv, size)

    def on_receiver_exit(self, receiver: int) -> None:
        """Drop every copy queued for `receiver`, which left the area; the
        recorder closed the entries that waited for it."""
        queue = self.pending[self.drop_cell[receiver]]
        for key in [key for key in queue if key[1] == receiver]:
            del queue[key]

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
        cfg, efficiency = self.cfg, self.efficiency
        n_rb, n_re = cfg.n_rb, cfg.usable_re_per_rb
        # Rows are evaluated independently: each CQI is its row's alone.
        if cfg.cqi_policy == POLICY_FIXED:
            cqi_of_row = [cfg.cqi_value] * len(self.drop_cell)
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
                per_re = efficiency[cqi_of_row[copy.receiver] - 1]
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
        rows = [copy.receiver for copy in copies]
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

