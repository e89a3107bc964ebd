"""Latency bookkeeping, distribution estimators and resource accounting.

A packet's latency runs from its generation to the instant every
intended recipient holds it.  A packet that did not make it before its
successor was generated is replaced; the open entry keeps accumulating
whole generation periods until some later packet from the same source
reaches the remaining recipients, so a k-times-replaced entry lands at
its within-period delivery time plus k periods.

`latency_curves` builds the three latency views: all closed entries, the
per-source means, and each source alone.  An entry still open at run end
is left out (`n_open_entries` counts it); a source with no closed entry
has no curve and no mean.  An entry whose last blocking receiver left the
area closes at that TTI and counts as delivered.
"""
from __future__ import annotations

import csv
import json
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class MetricsError(ValueError):
    pass


@dataclass(frozen=True)
class LatencyEntry:
    source: int
    sequence: int
    generation_tti: int
    delivery_tti: int
    latency_ttis: int
    replacements: int           # k: generation periods elapsed before delivery


def close_packet(source: int, sequence: int, generation_tti: int,
                 delivery_tti: int, k_losses: int) -> LatencyEntry:
    """Finalize one latency entry; latency is delivery minus generation."""
    if delivery_tti < generation_tti:
        raise MetricsError(
            f"delivery at {delivery_tti} precedes generation at {generation_tti}")
    return LatencyEntry(
        source=source,
        sequence=sequence,
        generation_tti=generation_tti,
        delivery_tti=delivery_tti,
        latency_ttis=delivery_tti - generation_tti,
        replacements=k_losses,
    )


@dataclass(frozen=True)
class EcdfCurve:
    """Right-continuous empirical distribution: F(x) = #{samples <= x} / N."""
    samples: np.ndarray         # sorted, duplicates kept
    values: np.ndarray          # sorted unique sample values
    probs: np.ndarray           # cumulative probability at each value

    def evaluate(self, x) -> np.ndarray:
        idx = np.searchsorted(self.values, np.asarray(x, dtype=float),
                              side="right")
        padded = np.concatenate([[0.0], self.probs])
        return padded[idx]

    def mean(self) -> float:
        return float(self.samples.mean())


def ecdf(samples) -> EcdfCurve:
    s = np.sort(np.asarray(samples, dtype=float).ravel())
    if s.size == 0:
        raise MetricsError("ECDF of an empty sample set")
    values, counts = np.unique(s, return_counts=True)
    probs = np.cumsum(counts) / s.size
    return EcdfCurve(samples=s, values=values, probs=probs)


class LatencyCurves(NamedTuple):
    """The three latency views; a view with no sample is None."""
    combined: EcdfCurve | None          # every closed entry
    mean: EcdfCurve | None              # one point per source with an entry
    individual: list[EcdfCurve | None]  # one curve per source


def latency_curves(per_source) -> LatencyCurves:
    """Latency views from one latency list per source (in source order,
    each list in sequence order).  Latencies are whole TTIs, so every
    per-source sum, and with it the mean, is exact in any order."""
    columns = [np.asarray(v, dtype=float) for v in per_source]
    closed = [v for v in columns if v.size]
    return LatencyCurves(
        ecdf(np.concatenate(closed)) if closed else None,
        ecdf([v.mean() for v in closed]) if closed else None,
        [ecdf(v) if v.size else None for v in columns])


def cdf_combined(matrix) -> EcdfCurve | None:
    """Distribution over every (packet, user) entry of the matrix."""
    return latency_curves(np.asarray(matrix, dtype=float).T).combined


def cdf_mean(matrix) -> EcdfCurve | None:
    """Distribution of each user's (column's) mean latency."""
    return latency_curves(np.asarray(matrix, dtype=float).T).mean


def cdf_individual(matrix) -> list[EcdfCurve | None]:
    """One latency distribution per user (column)."""
    return latency_curves(np.asarray(matrix, dtype=float).T).individual


def utilization(packet_bits: float, n_mbms_users: int, n_rb: float,
                n_re_per_rb: float, efficiency: float) -> float:
    """Share of the RB grid (percent) that carrying one packet from every
    source per accounting window consumes; above 100 means infeasible."""
    denominator = n_rb * n_re_per_rb * efficiency
    if denominator <= 0:
        raise MetricsError("utilization denominator must be positive")
    return 100.0 * packet_bits * n_mbms_users / denominator


def predicted_throughput_ratio(util_a: float, rb_a: float,
                               util_b: float, rb_b: float) -> float:
    """Expected ordinary-user throughput ratio between two bandwidth
    configurations, from their RB counts and multicast utilizations."""
    for u in (util_a, util_b):
        if not 0.0 <= u < 1.0:
            raise MetricsError(f"utilization {u} outside [0, 1)")
    return ((1.0 - util_b) * rb_b) / ((1.0 - util_a) * rb_a)


class LatencyRecorder:
    """Tracks open per-packet entries until every recipient is served.

    Each packet carries its own recipient set (membership can change between
    generations).  A recipient is 'satisfied through' sequence s once it
    fully receives any packet with sequence >= s from that source, so one
    successful delivery can close several superseded entries at once.
    """

    def __init__(self, sources, period: int):
        self.sources = list(sources)
        self.period = period
        self._open: dict[int, list[list]] = {s: [] for s in self.sources}
        self.entries: list[LatencyEntry] = []

    def on_generation(self, source: int, sequence: int, tti: int,
                      receivers) -> None:
        self._open[source].append([sequence, tti, set(receivers)])

    def on_delivery(self, source: int, sequence: int, delivery_tti: int,
                    satisfied_receivers) -> None:
        """Recipients in `satisfied_receivers` fully received packet
        `sequence`; close every open entry they were the last to block."""
        satisfied = set(satisfied_receivers)
        remaining = []
        for entry in self._open[source]:
            seq, gen, pending = entry
            if seq <= sequence:
                pending -= satisfied
            if seq <= sequence and not pending:
                self.entries.append(close_packet(
                    source, seq, gen, delivery_tti, k_losses=sequence - seq))
            else:
                remaining.append(entry)
        self._open[source] = remaining

    def on_receiver_exit(self, receiver: int, tti: int) -> None:
        """`receiver` stopped being an intended recipient (left the area);
        open entries no longer wait for it."""
        for source in self.sources:
            remaining = []
            for entry in self._open[source]:
                seq, gen, pending = entry
                was_blocking = receiver in pending
                pending.discard(receiver)
                if was_blocking and not pending:
                    self.entries.append(close_packet(
                        source, seq, gen, tti,
                        k_losses=max((tti - gen) // self.period, 0)))
                else:
                    remaining.append(entry)
            self._open[source] = remaining

    @property
    def n_open(self) -> int:
        return sum(len(v) for v in self._open.values())


# ---------------------------------------------------------------------------
# File emission


def write_csv(path, header, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def format_value(x) -> str:
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (float, np.floating)):
        return repr(float(x))
    return str(x)


def write_curve_csv(path, curve: EcdfCurve | None, value_name: str) -> None:
    """One (value, cum_prob) row per curve step; header only for None."""
    rows = [] if curve is None else [
        (format_value(v), format_value(p))
        for v, p in zip(curve.values, curve.probs)]
    write_csv(path, (value_name, "cum_prob"), rows)


SUMMARY_COLUMNS = ("mode", "bandwidth", "cqi_policy", "mean_latency_tti",
                   "mean_throughput_mbps", "utilization_pct",
                   "measured_utilization_pct", "congested")


def write_summary_csv(path, rows: list[dict]) -> None:
    out = [[format_value(r[c]) for c in SUMMARY_COLUMNS] for r in rows]
    write_csv(path, SUMMARY_COLUMNS, out)


def write_run_outputs(out_dir, record) -> LatencyCurves:
    """Emit one finished run's CSV artifacts and manifest; return its
    latency views."""
    os.makedirs(out_dir, exist_ok=True)
    per_source = {s: [] for s in record.sources}
    for e in sorted(record.entries, key=lambda e: e.sequence):
        per_source[e.source].append(e.latency_ttis)
    curves = latency_curves(per_source.values())
    files = [("latency_combined.csv", curves.combined, "latency_tti"),
             ("latency_mean.csv", curves.mean, "mean_latency_tti")]
    files += [(f"latency_user_{s}.csv", curve, "latency_tti")
              for s, curve in zip(record.sources, curves.individual)]
    for name, curve, value_name in files:
        write_curve_csv(os.path.join(out_dir, name), curve, value_name)
    tp = record.ordinary_throughput_mbps
    rows = sorted(((u, tp[u]) for u in tp), key=lambda kv: (kv[1], kv[0]))
    n = max(len(rows), 1)
    write_csv(os.path.join(out_dir, "throughput_ordinary.csv"),
              ("user_id", "mean_throughput_mbps", "cum_prob"),
              [(format_value(u), format_value(v), format_value((i + 1) / n))
               for i, (u, v) in enumerate(rows)])
    write_summary_csv(os.path.join(out_dir, "summary.csv"), [record.summary()])
    manifest = {
        "config": record.config_dict,
        "seed": record.seed,
        "config_hash": record.config_hash,
        "n_latency_entries": len(record.entries),
        "n_open_entries": record.n_open_entries,
    }
    with open(os.path.join(out_dir, "run_manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return curves
