"""Outside-in layer trace of one `engine.run` call.

`LayerTracer` replaces selected functions and methods of the mbsfnsim
modules with shims that count calls and record self time (duration minus
the time of wrapped calls made inside), runs the simulation, and puts
the originals back.  The program itself is not modified: the engine and
the modules look these names up as module or class attributes at call
time, so the shims see every call.

Spans nest on one stack.  Its bottom entry stands for the engine and
accumulates the time of top-level spans, so the engine's self time over
the TTI loop is the loop's wall time minus that accumulation.  The loop
starts at the first `advance_mobility` call and ends when `run` returns.
"""
from __future__ import annotations

import functools
import resource
import time


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# Metrics that are counts: they must repeat exactly between two traced
# runs of the same seed.
COUNT_METRICS = (
    "channel.block_tap_gains.calls",
    "channel.pathloss_db.calls_per_tti",
    "link.sinr_vs_cell.calls_per_tti",
    "link.bler.calls_per_tti",
    "link.cqi_efficiency.calls_per_tti",
    "scheduler.unicast_priced_per_granted",
    "scheduler.multicast_rb_fill",
)


class LayerTracer:
    def __init__(self):
        from mbsfnsim import channel, link, metrics, scheduler, topology, traffic
        recorder = metrics.LatencyRecorder
        # (owner, attribute, span name); owner is a module or a class.
        self.timed = (
            (topology, "advance_mobility", "topology.advance_mobility"),
            (channel.ChannelModel, "snapshot", "channel.snapshot"),
            (channel.ChannelModel, "amplitude_gain", "channel.amplitude_gain"),
            (channel.FadingBank, "block_tap_gains", "channel.block_tap_gains"),
            (link, "multicast_sinr_grid", "link.multicast_sinr_grid"),
            (link, "power_components", "link.power_components"),
            (link, "sinr_vs_cell", "link.sinr_vs_cell"),
            (link, "bler", "link.bler"),
            (scheduler, "schedule_multicast", "scheduler.schedule_multicast"),
            (scheduler, "schedule_unicast_cam_baseline",
             "scheduler.schedule_unicast_cam_baseline"),
            (scheduler, "schedule_unicast_ordinary",
             "scheduler.schedule_unicast_ordinary"),
            (scheduler, "select_mbsfn_cqi", "scheduler.select_mbsfn_cqi"),
            (traffic, "maybe_generate", "traffic.maybe_generate"),
            (traffic, "consume", "traffic.consume"),
            (recorder, "on_generation", "metrics.on_generation"),
            (recorder, "on_delivery", "metrics.on_delivery"),
            (recorder, "on_receiver_exit", "metrics.on_receiver_exit"),
            (metrics, "write_run_outputs", "metrics.write_run_outputs"),
        )
        # Cheap, frequently called functions: counted only, so their time
        # stays with the caller.
        self.counted = (
            (channel, "pathloss_db", "channel.pathloss_db"),
            (link, "cqi_efficiency", "link.cqi_efficiency"),
        )
        # span name -> (called before entry, called with (args, result)).
        self.hooks = {
            "topology.advance_mobility": (self._mark_loop_start, None),
            "channel.snapshot": (self._rss_before_snapshot,
                                 self._rss_after_snapshot),
            "scheduler.schedule_unicast_cam_baseline": (
                None, self._count_unicast_pricing),
            "scheduler.schedule_multicast": (None, self._count_multicast_fill),
        }
        self._saved: list[tuple[object, str, object]] = []
        self._reset()

    def _reset(self) -> None:
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self._stack = [0.0]
        self._loop_start: tuple[float, float] | None = None
        self.engine_self_s = 0.0
        self.run_s = 0.0
        self.rss_before_first_snapshot: float | None = None
        self.rss_after_first_snapshot: float | None = None
        self.unicast_priced = 0
        self.unicast_granted = 0
        self.multicast_rb_offered = 0
        self.multicast_rb_used = 0

    def run(self, engine, cfg, emit):
        """Run `cfg` traced, then call `emit(record)` (which writes the
        artifacts) while still traced; the originals are restored on every
        exit path.  Returns (record, emit's result); `run_s` holds the wall
        time of `engine.run` alone."""
        if self._saved:
            raise RuntimeError("tracer already installed")
        self._reset()
        try:
            for owner, attr, name in self.timed:
                self._replace(owner, attr, self._timed(name, vars(owner)[attr]))
            for owner, attr, name in self.counted:
                self._replace(owner, attr,
                              self._counted(name, vars(owner)[attr]))
            t_start = time.perf_counter()
            record = engine.run(cfg)
            t_end = time.perf_counter()
            self.run_s = t_end - t_start
            children_end = self._stack[0]
            emitted = emit(record)
        finally:
            while self._saved:
                owner, attr, original = self._saved.pop()
                setattr(owner, attr, original)
        if self._loop_start is not None:
            t0, children0 = self._loop_start
            self.engine_self_s = (t_end - t0) - (children_end - children0)
        return record, emitted

    def _replace(self, owner, attr, shim) -> None:
        self._saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, shim)

    def _counted(self, name, fn):
        calls = self.calls
        calls[name] = 0

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return shim

    def _timed(self, name, fn):
        calls, self_s, stack = self.calls, self.self_s, self._stack
        calls[name] = 0
        self_s[name] = 0.0
        enter, leave = self.hooks.get(name, (None, None))
        clock = time.perf_counter

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            if enter is not None:
                enter()
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                child = stack.pop()
                calls[name] += 1
                self_s[name] += dur - child
                stack[-1] += dur
            if leave is not None:
                leave(args, result)
            return result
        return shim

    def _mark_loop_start(self) -> None:
        if self._loop_start is None:
            self._loop_start = (time.perf_counter(), self._stack[0])

    def _rss_before_snapshot(self) -> None:
        if self.rss_before_first_snapshot is None:
            self.rss_before_first_snapshot = maxrss_mb()

    def _rss_after_snapshot(self, args, result) -> None:
        if self.rss_after_first_snapshot is None:
            self.rss_after_first_snapshot = maxrss_mb()

    def _count_unicast_pricing(self, args, result) -> None:
        self.unicast_priced += len(args[0])
        self.unicast_granted += len(result[0])

    def _count_multicast_fill(self, args, result) -> None:
        self.multicast_rb_offered += args[1]
        self.multicast_rb_used += result[1]

    def layer_metrics(self, n_tti: int, scale: float = 1.0) -> dict:
        """Per-layer metrics of the last traced run, keyed by metric name,
        with every time multiplied by `scale`.  A ratio whose path the
        workload never takes reads 0."""
        def ms(*names):
            return scale * 1000.0 * sum(self.self_s[n] for n in names) / n_tti

        def per_tti(name):
            return self.calls[name] / n_tti

        scheduler_spans = [n for n in self.self_s if n.startswith("scheduler.")]
        return {
            "engine.self_ms_per_tti":
                scale * 1000.0 * self.engine_self_s / n_tti,
            "topology.advance_mobility.ms_per_tti":
                ms("topology.advance_mobility"),
            "channel.snapshot.self_ms_per_tti": ms("channel.snapshot"),
            "channel.amplitude_gain.ms_per_tti": ms("channel.amplitude_gain"),
            "channel.block_tap_gains.ms_per_tti":
                ms("channel.block_tap_gains"),
            "channel.block_tap_gains.calls":
                self.calls["channel.block_tap_gains"],
            "channel.pathloss_db.calls_per_tti": per_tti("channel.pathloss_db"),
            "channel.first_block_rss_delta_mb":
                (self.rss_after_first_snapshot or 0.0)
                - (self.rss_before_first_snapshot or 0.0),
            "link.multicast_sinr_grid.ms_per_tti":
                ms("link.multicast_sinr_grid"),
            "link.power_components.ms_per_tti": ms("link.power_components"),
            "link.sinr_vs_cell.ms_per_tti": ms("link.sinr_vs_cell"),
            "link.sinr_vs_cell.calls_per_tti": per_tti("link.sinr_vs_cell"),
            "link.bler.ms_per_tti": ms("link.bler"),
            "link.bler.calls_per_tti": per_tti("link.bler"),
            "link.cqi_efficiency.calls_per_tti":
                per_tti("link.cqi_efficiency"),
            "scheduler.ms_per_tti": ms(*scheduler_spans),
            "scheduler.unicast_priced_per_granted": (
                self.unicast_priced / self.unicast_granted
                if self.unicast_granted else 0.0),
            "scheduler.multicast_rb_fill": (
                self.multicast_rb_used / self.multicast_rb_offered
                if self.multicast_rb_offered else 0.0),
            "traffic.ms_per_tti": ms("traffic.maybe_generate", "traffic.consume"),
            "metrics.recorder.ms_per_tti": ms(
                "metrics.on_generation", "metrics.on_delivery",
                "metrics.on_receiver_exit"),
            "metrics.write_run_outputs.ms":
                scale * 1000.0 * self.self_s["metrics.write_run_outputs"],
        }
