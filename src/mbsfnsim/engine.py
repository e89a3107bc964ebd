"""Run lifecycle: the 1 ms TTI loop and its deterministic state.

`Runner(cfg, pool)` sets a run up; each `advance(n)` call then runs the
next min(n, TTIs left) TTIs, each through these stages, in this order:

1. Mobility (`Mobility.step`): the tracked cars move, hand over and
   enter or leave the area per block of TTIs; a car that left the area
   exits as a receiver, from the recorder and from the delivery.  Their
   macroscopic gain is evaluated once per block: mobility hands each car
   over to its strongest cell with it, and the channel snapshot scales the
   cars' tap gains by each TTI's row.
2. Link reads (`LinkReads.step`): this TTI's link state, evaluated only
   where it is read, and the CQI report's.
3. Generation (`Runner._generate`): `traffic.maybe_generate` names the
   sources in their phase of the period and the sequence number the
   clock gives their messages; each message replaces its source's
   undelivered predecessor in the delivery.
4. Delivery (`delivery.MulticastDelivery.serve` or
   `delivery.UnicastDelivery.serve`): the scheduler fills the subframe
   with messages, each transport block is decoded per recipient, the
   messages' residual bits drain and the latency log is appended.
5. Ordinary users (`OrdinaryUsers.serve`): the full-buffer users share
   the RBs the messages leave, round robin in each area cell.

Inside a run a source is its row, 0..n_sources-1 in ascending user id,
in every stage and in the recorder; user ids appear only in the drop and
in `record()`.  Each stage's state from TTI to TTI lives in an object
(generation keeps none: the Runner holds only the sources' phases), so a
run gives the same record however its TTIs are split into `advance`
calls; `record()` returns its `RunRecord` once every TTI has run.  The
caller that makes a Runner owns the fading pool it hands it.  `run(cfg)`
creates one pool, advances a Runner on it one `channel.BLOCK_LEN` block
at a time and shuts the pool down when the run ends or raises.  All
randomness derives from the master seed through purpose-keyed streams,
so a (config, seed) pair reproduces bit-identical results.  The schema is
`config`'s and the deliveries are `delivery`'s.
"""
import functools
import logging
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import (channel, config, delivery, link, metrics, scheduler, topology,
               traffic)
# BANDWIDTH_TO_RB is not used here: perfbench reads it as an engine name.
from .config import BANDWIDTH_TO_RB, ScenarioConfig

log = logging.getLogger(__name__)


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
            "cqi_policy": config.policy_label(self.config_dict["cqi_policy"],
                                              self.config_dict["cqi_value"]),
            "mean_latency_tti": self.mean_latency_tti(),
            "mean_throughput_mbps": self.mean_throughput_mbps(),
            "utilization_pct": self.analytic_utilization_pct,
            "measured_utilization_pct": self.measured_utilization_pct,
            "congested": self.congested,
        }


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


class Mobility:
    """The moving sources' positions, macroscopic gain, serving cells and
    area membership, advanced once per block of channel.BLOCK_LEN TTIs.

    The blocks line up with the fading blocks and end at the run's last TTI.
    Each block makes one `topology.advance_mobility` call, which evaluates its
    gains in one `amplitude_gain` pass, and one pass over its serving cells for
    the in-area rows; every TTI's values are bitwise those of a step per TTI.
    Only cars served by an area cell receive (and report CQI for) messages.  A
    car that left the area stops blocking open entries and is excluded from new
    recipient sets: the area set is rebuilt, and its exits listed in row order,
    only at a TTI whose in-area row differs from the one before.  The set
    starts as every source; TTI 0's step hands each moving car to its strongest
    cell, with shadowing maybe a ring cell, and the recorder and the delivery
    see those exits before the first generation.
    """

    def __init__(self, pop, sources, model, mbsfn_mask, n_tti: int):
        m = model.n_moving
        # When the cars move, the sources are the model's rows 0..m-1; the
        # stage moves copies of their positions, never the drop's.
        self.positions = pop.positions[sources[:m]]
        self.velocities = pop.velocities[sources[:m]]
        self.radius = pop.layout.boundary_radius
        self.gain = functools.partial(model.amplitude_gain, rows=slice(0, m))
        self.mbsfn_mask, self.n_tti = mbsfn_mask, n_tti
        # Every source; TTI 0's step removes those served outside the area.
        self.area = set(range(len(sources)))
        self.in_area = np.ones(m, dtype=bool)
        self.gains = None

    def step(self, tti: int):
        """This TTI's gains of the moving sources, a new (n_moving,
        n_cells) array, the set of sources in the area, and those that
        left it at this TTI, in row order."""
        k = tti % channel.BLOCK_LEN
        if k == 0:
            # Free the last block's gains before the next one is built; the
            # rows handed out are copies, so nothing else holds the block.
            self.gains = None
            self.gains, serving = topology.advance_mobility(
                self.positions, self.velocities, self.radius, channel.TTI_S,
                self.gain, min(channel.BLOCK_LEN, self.n_tti - tti))
            rows = self.mbsfn_mask[serving]
            before = np.concatenate((self.in_area[None], rows[:-1]))
            self.changed = (rows != before).any(axis=1).tolist()
            self.rows, self.in_area = rows, rows[-1]
        exits = ()
        if self.changed[k]:
            area = set(np.flatnonzero(self.rows[k]).tolist())
            exits = sorted(self.area - area)
            self.area = area
        return self.gains[k].copy(), self.area, exits


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
            ok = delivery.draw_success(p, cfg.perfect_decode, self.rng)
            # A user has at most one slot per TTI, so no row repeats.
            self.bits[rows[ok]] += bits[ok]


class Runner:
    """One run, set up by the constructor and stepped by its caller.

    The constructor draws the layout, the drop and the channel model, and
    builds the stages; the channel model maps its fading chunks on `pool`
    (None steps them inline).  `advance(n)` runs the next min(n, TTIs
    left) TTIs; `tti` is the next TTI to run.  `record()` returns the
    `RunRecord` once `tti` has reached `cfg.n_tti`.  The Runner never
    shuts `pool` down: its owner does, also when a call raises, after
    which the Runner cannot go on.
    """

    def __init__(self, cfg: ScenarioConfig, pool):
        seed = cfg.seed
        rng_decode = np.random.default_rng(
            np.random.SeedSequence([seed, 0xDEC]))

        layout = topology.build_layout(
            cfg.mbsfn_rings, cfg.interference_rings, cfg.inter_site_distance_m)
        pop = topology.drop_users(layout, cfg.users_per_cell, cfg.cars_per_cell,
                                  cfg.car_speed_ms, rng_seed=seed)
        mbsfn_cells = layout.mbsfn_cells
        area_cells = sorted(mbsfn_cells)
        shadow_full = channel.draw_shadowing(pop.n_users, layout.n_cells,
                                             cfg.shadowing_std_db, seed)

        # Sources and recipients are the cars dropped in the multicast area,
        # and its static users are the tracked ordinary ones: the outer ring
        # carries no message or reservation.  Both are rows from here on:
        # indices into `sources` and, in `rows_by_cell` (each area cell's
        # ordinary users), into `ordinary_tracked`.
        drop_cell = pop.serving_cell.tolist()
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
        n_sources = len(sources)

        noise_var = channel.noise_variance_normalized(
            cfg.n_rb, cfg.tx_power_dbm, cfg.noise_figure_db)
        mbsfn_mask = np.zeros(layout.n_cells, dtype=bool)
        mbsfn_mask[area_cells] = True

        recorder = metrics.LatencyRecorder(sources, cfg.cam_period_ttis)
        decode = delivery.decoder(cfg, rng_decode)
        if cfg.mode == config.MODE_MULTICAST:
            deliver = delivery.MulticastDelivery(
                cfg, area_cells, recorder, n_sources, decode, mbsfn_mask,
                noise_var)
        else:
            deliver = delivery.UnicastDelivery(
                cfg, area_cells, [drop_cell[src] for src in sources],
                recorder, decode, noise_var)
        if deliver.analytic_utilization_pct > 100.0:
            log.warning("offered message load is %.1f%% of capacity; expect "
                        "unbounded latency growth",
                        deliver.analytic_utilization_pct)

        # The TTIs whose link state is read: this TTI's in the delivery's
        # subframes, and an adaptive CQI's report, from TTI
        # max(t - delay, 0).
        reads = np.zeros(cfg.n_tti, dtype=bool)
        for subframe in deliver.read_subframes:
            reads[subframe::scheduler.SUBFRAMES_PER_FRAME] = True
        reported = np.zeros_like(reads)
        if cfg.cqi_policy == config.POLICY_ADAPTIVE:
            reported[np.maximum(np.flatnonzero(reads)
                                - cfg.cqi_feedback_delay_tti, 0)] = True
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

        self.ordinary = OrdinaryUsers(cfg, rows_by_cell, link.sinr_vs_cell(
            model.static[n_sources - model.n_moving:],
            pop.serving_cell[ordinary_tracked], model.steer,
            model.steer_products, noise_var), rng_decode)
        self.links = LinkReads(cfg, deliver, model, reported, n_sources)
        self.mobility = Mobility(pop, sources, model, mbsfn_mask, cfg.n_tti)
        # The sources that generate at each phase of the period, in order.
        self.by_phase = {}
        for src, offset in enumerate(traffic.draw_offsets(
                n_sources, cfg.cam_period_ttis, seed).tolist()):
            self.by_phase.setdefault(offset, []).append(src)
        self.cfg, self.tti, self.ordinary_tracked = cfg, 0, ordinary_tracked
        self.recorder, self.delivery = recorder, deliver

    def advance(self, n: int) -> None:
        """Run the next min(n, TTIs left) TTIs; none when n <= 0."""
        mobility, links, generate = self.mobility, self.links, self._generate
        deliver, ordinary = self.delivery, self.ordinary
        stop = min(self.tti + max(n, 0), self.cfg.n_tti)
        for tti in range(self.tti, stop):
            gamma, area_now, exits = mobility.step(tti)
            for gone in exits:
                self.recorder.on_receiver_exit(gone, tti)
                deliver.on_receiver_exit(gone)
            read_now, report = links.step(tti, gamma)
            generate(tti, area_now)
            left = deliver.serve(tti, area_now, read_now, report)
            ordinary.serve(left)
        self.tti = stop

    def _generate(self, tti: int, area_now) -> None:
        """Each source in its generation phase sends a message to the other
        cars in the area, which replaces its undelivered predecessor."""
        sources, sequence = traffic.maybe_generate(
            self.by_phase, self.cfg.cam_period_ttis, tti)
        for src in sources:
            receivers = area_now - {src}
            self.recorder.on_generation(src, sequence, tti, receivers)
            self.delivery.add(src, sequence, tti, receivers)

    def record(self) -> RunRecord:
        """The run's record, once every TTI has run."""
        cfg, deliver, recorder = self.cfg, self.delivery, self.recorder
        if self.tti < cfg.n_tti:
            raise RuntimeError(f"the run has {cfg.n_tti - self.tti} TTIs left")
        duration_s = cfg.n_tti * channel.TTI_S
        throughput = {u: (b / duration_s / 1e6 if duration_s else 0.0)
                      for u, b in zip(self.ordinary_tracked,
                                      self.ordinary.bits.tolist())}
        return RunRecord(
            config_dict=cfg.to_dict(),
            seed=cfg.seed,
            config_hash=cfg.content_hash(),
            sources=recorder.sources,
            reserved_per_frame=deliver.reserved_per_frame,
            congested=(deliver.congested
                       or deliver.analytic_utilization_pct > 100.0),
            entries=recorder.entries,
            n_open_entries=recorder.n_open,
            ordinary_throughput_mbps=throughput,
            multicast_rb_per_tti=deliver.multicast_rb_per_tti,
            cam_rb_per_tti=deliver.cam_rb_per_tti,
            analytic_utilization_pct=deliver.analytic_utilization_pct,
            measured_utilization_pct=deliver.measured_utilization_pct(),
        )


def run(cfg: ScenarioConfig) -> RunRecord:
    """One whole run on its own fading pool, stepped a block at a time."""
    # The pool's threads start at the first fading block that maps chunks
    # on it, so the `finally` below joins every thread it starts.
    pool = ThreadPoolExecutor(channel.usable_cpus(),
                              thread_name_prefix="fading")
    try:
        runner = Runner(cfg, pool)
        for _ in range(0, cfg.n_tti, channel.BLOCK_LEN):
            runner.advance(channel.BLOCK_LEN)
    finally:
        pool.shutdown(cancel_futures=True)
    return runner.record()


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
