"""Acceptance gate: every criterion at its stated tolerance.

Criteria 5 and 7 share one 16-run battery (four derived seeds times four
configurations at 10^4 TTIs) executed once per session; the rest are
quick arithmetic, oracle or statistical checks.  Each test prints one
pass/fail line.  The battery's records are also pinned by digest, so a
drift that only builds up over a long run moves them.
"""
import dataclasses
import hashlib
import math
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from scipy.special import j0

from mbsfnsim import channel, cli, engine, link, metrics, scheduler
from mbsfnsim.channel import FadingBank
from test_channel import direct_coefficients, direct_tap_gains

N_SEEDS = 4
N_TTI = 10_000
PREDICTED_RATIO = 7.025


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")


@pytest.fixture(scope="session")
def battery():
    """Four derived seeds x {multicast fixed/adaptive 5 MHz, unicast 5 MHz,
    multicast fixed 20 MHz}, standard-setup defaults."""
    base = engine.ScenarioConfig(n_tti=N_TTI)
    seeds = engine.derived_seeds(base.seed, N_SEEDS)
    cells = {
        "mc_fixed_5": [replace(base, seed=s) for s in seeds],
        "mc_adaptive_5": [replace(base, seed=s, cqi_policy="adaptive")
                          for s in seeds],
        "uc_fixed_5": [replace(base, seed=s, mode="unicast_baseline")
                       for s in seeds],
        "mc_fixed_20": [replace(base, seed=s, bandwidth_mhz=20)
                        for s in seeds],
    }
    flat = [cfg for group in cells.values() for cfg in group]
    workers = min(2, channel.usable_cpus())
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(engine.run, flat))
    else:
        records = [engine.run(cfg) for cfg in flat]
    out = {}
    it = iter(records)
    for name, group in cells.items():
        out[name] = [next(it) for _ in group]
    return out


def battery_digest(record) -> str:
    """SHA-256 of a battery record's closed entries, per-TTI RB arrays,
    ordinary throughputs and open count."""
    entries = np.array([dataclasses.astuple(e) for e in record.entries],
                       dtype=np.int64)
    throughput = np.array(sorted(record.ordinary_throughput_mbps.items()),
                          dtype=float)
    h = hashlib.sha256(f"open {record.n_open_entries}\n".encode())
    for name, arr in (("entries", entries), ("throughput", throughput),
                      ("multicast_rb", record.multicast_rb_per_tti),
                      ("cam_rb", record.cam_rb_per_tti)):
        arr = np.ascontiguousarray(arr)
        h.update(f"array {name} {arr.dtype.str} {arr.shape}\n".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


# Each battery run's `battery_digest`, in the fixture's seed order.
BATTERY_GOLDEN = {
    "mc_fixed_5": [
        ("9d5e7fdcc5a929d4cf5af93529dc25c3"
         "aaf5d0aa44401e0bea0a1664e1135616"),
        ("7d9425801d8b3afb7062572e4ec5c3b3"
         "afc2ebab2a295803bf740f9aac7ccd14"),
        ("c91c7436f797f35fd99be044b7793289"
         "74fe11a6cc5b245458683c046ab1963a"),
        ("598a3b7467f08ac4e6ee33805b1835bc"
         "93c21f1714620f06ec964de2f8d7b63c"),
    ],
    "mc_adaptive_5": [
        ("8df52a736e0a701de1469657c0862252"
         "43a1f9d43bdb70a97697ae05a7d8a8ea"),
        ("957cb89537e5a42b3bd2c053745b6770"
         "d75ac95f4ca244cff5f7c1f09014668a"),
        ("3381d656ad1e37dd397cc4e6649ccf95"
         "a7c52ffa036375becdd76890db80134e"),
        ("0e8e1a75e0e0551ced8aec3c61f2c499"
         "b134d820ce7365999253e44ca1ee979e"),
    ],
    "uc_fixed_5": [
        ("111e18ff8434406c87248b428b859f38"
         "c9e5740f64c2df6e784446d7f767349b"),
        ("2b9c527fa33fe02edce61e8aa06372e5"
         "c71fbd1c82d8d5228160d9d9f891eed8"),
        ("ff277286dd4c4c4b854b40225a5fd38e"
         "45d8fecd5ec89aaa46af0dbfb7bb316c"),
        ("6711a9f71359f60884b73cce7d03d5ee"
         "4e47c6d6b700adce757bc4e63411057c"),
    ],
    "mc_fixed_20": [
        ("4f225f5ecd4cdc641330232c143e4542"
         "130a5712d54fab352ad7b0d6dd3b437f"),
        ("dc2fbe43f2f7baf87a3e599ee9e4f21f"
         "449672ab1a766ea356880d3f9a585e8b"),
        ("4900e1349adea129136cee53a4d03ffa"
         "fc28bd97191a21b3a6baa66b5e02872b"),
        ("30d88b3a417b59d9cadda49369a59b64"
         "511e88f28fccf6a4d8746bc1e49c6f24"),
    ],
}


def test_battery_digests(battery):
    got = {name: [battery_digest(r) for r in records]
           for name, records in battery.items()}
    moved = [f"{name}[{i}]" for name, digests in got.items()
             for i, d in enumerate(digests)
             if d != BATTERY_GOLDEN.get(name, [None] * N_SEEDS)[i]]
    _report("battery digests", not moved,
            f"{sum(map(len, got.values())) - len(moved)} of 16 records "
            f"match their digest" + (f"; moved: {moved}" if moved else ""))
    assert got == BATTERY_GOLDEN


def _mean(records, key):
    return float(np.mean([r.summary()[key] for r in records]))


def test_criterion_1_predictor_arithmetic():
    value = metrics.predicted_throughput_ratio(0.52, 25, 0.157, 100)
    ok = math.isclose(value, PREDICTED_RATIO, abs_tol=1e-9) \
        and abs(value - 7.03) < 0.006
    _report("criterion 1 (predictor arithmetic)", ok,
            f"ratio={value:.6f}, expected 7.025 (reported as 7.03)")
    assert ok


def test_criterion_2_subframe_sizing():
    cfg = engine.ScenarioConfig()
    eff = link.cqi_efficiency(3, link.CQI_TABLE)
    five = scheduler.required_subframes(cfg.cam_size_bits, 21, 25,
                                        cfg.usable_re_per_rb, eff,
                                        cfg.cam_period_ttis)
    twenty = scheduler.required_subframes(cfg.cam_size_bits, 21, 100,
                                          cfg.usable_re_per_rb, eff,
                                          cfg.cam_period_ttis)
    ok = (five == 6 and twenty == 2)
    _report("criterion 2 (subframe sizing)", ok,
            f"5 MHz -> {five} subframes/frame, 20 MHz -> {twenty}")
    assert ok


def test_criterion_3_latency_semantics():
    period, offset, within = 100, 7, 14
    results = {}
    for k in (0, 1, 2):
        rec = metrics.LatencyRecorder([0], period)
        for s in range(k + 1):
            gen = offset + s * period
            rec.on_generation(0, s, gen, receivers={1})
            delivered = {1} if s == k else set()
            rec.on_delivery(0, s, gen + within, delivered)
        first = [e for e in rec.entries if e.sequence == 0][0]
        results[k] = first.latency_ttis
    ok = all(results[k] == within + k * period for k in (0, 1, 2))
    _report("criterion 3 (latency semantics)", ok,
            f"latencies for k=0,1,2: {results}")
    assert ok


def test_criterion_4_metric_oracles():
    rng = np.random.default_rng(2024)
    ok = True
    for _ in range(5):
        L = rng.integers(1, 500, size=(50, 20)).astype(float)
        flat = np.sort(L.ravel())
        # Each column is one user's latencies.
        combined, mean_curve, individual = metrics.latency_curves(L.T)
        queries = rng.uniform(0, 520, size=100)
        for x in queries:
            oracle = np.sum(flat <= x) / flat.size
            ok &= combined.evaluate(x) == oracle
        col_means = np.sort(L.mean(axis=0))
        for x in queries:
            oracle = np.sum(col_means <= x) / col_means.size
            ok &= mean_curve.evaluate(x) == oracle
        for i, curve in enumerate(individual):
            col = np.sort(L[:, i])
            for x in queries[:20]:
                ok &= curve.evaluate(x) == np.sum(col <= x) / col.size
        ok &= math.isclose(mean_curve.mean(), combined.mean(),
                           rel_tol=1e-12)
        pooled = np.sort(np.concatenate([c.samples for c in individual]))
        ok &= bool(np.array_equal(pooled, combined.samples))
    _report("criterion 4 (metric oracles)", ok,
            "ECDF estimators match counting oracles; identities exact")
    assert ok


def test_criterion_5_adaptive_dominance(battery):
    worst = 0
    ok = True
    for fixed, adaptive in zip(battery["mc_fixed_5"],
                               battery["mc_adaptive_5"]):
        diff = fixed.multicast_rb_per_tti - adaptive.multicast_rb_per_tti
        worst = min(worst, int(diff.min()))
        ok &= bool(np.all(diff >= 0))
    _report("criterion 5 (adaptive RB dominance)", ok,
            f"per-TTI consumption never higher under the bound "
            f"(worst margin {worst})")
    assert ok


def test_criterion_6_channel_statistics():
    bank = FadingBank(np.array([200.0]), (0.0,), (0.0,), seed=11)
    t = np.arange(10_000) * 1e-3
    h = direct_coefficients(bank, t, np.array([0.0]))[:, 0, 0]
    mean_power = float(np.mean(np.abs(h) ** 2))
    power_ok = abs(mean_power - 1.0) <= 0.05

    fd = 150.0
    ens = FadingBank(np.full(800, fd), (0.0,), (0.0,), seed=7)
    dt = 2e-4
    n_lags = int(0.5 / fd / dt) + 1
    lags = np.arange(n_lags) * dt
    g = direct_tap_gains(ens, lags)[:, :, 0]
    corr = np.array([np.mean((g[k] * np.conj(g[0])).real)
                     for k in range(n_lags)])
    rms = float(np.sqrt(np.mean((corr - j0(2 * math.pi * fd * lags)) ** 2)))
    autocorr_ok = rms < 0.05
    ok = power_ok and autocorr_ok
    _report("criterion 6 (channel statistics)", ok,
            f"mean power {mean_power:.4f} (1 +/- 0.05), "
            f"autocorr RMS vs Bessel {rms:.4f} (< 0.05)")
    assert ok


def test_criterion_7_desk_scale_reproduction(battery):
    lat_mc = _mean(battery["mc_fixed_5"], "mean_latency_tti")
    lat_uc = _mean(battery["uc_fixed_5"], "mean_latency_tti")
    a_ok = lat_mc < lat_uc

    consumption = _mean(battery["uc_fixed_5"], "measured_utilization_pct")
    analytic = _mean(battery["mc_fixed_5"], "utilization_pct")
    b_ok = consumption > 90.0 and abs(analytic - 52.0) <= 5.0

    tp5 = _mean(battery["mc_fixed_5"], "mean_throughput_mbps")
    tp20 = _mean(battery["mc_fixed_20"], "mean_throughput_mbps")
    ratio = tp20 / tp5
    c_ok = 0.8 * PREDICTED_RATIO <= ratio <= 1.2 * PREDICTED_RATIO

    lat_ad = _mean(battery["mc_adaptive_5"], "mean_latency_tti")
    meas_ad = _mean(battery["mc_adaptive_5"], "measured_utilization_pct")
    meas_fx = _mean(battery["mc_fixed_5"], "measured_utilization_pct")
    d_ok = lat_ad < lat_mc and meas_ad < meas_fx

    _report("criterion 7a (multicast beats unicast latency)", a_ok,
            f"multicast {lat_mc:.1f} TTI < unicast {lat_uc:.1f} TTI")
    _report("criterion 7b (resource pressure)", b_ok,
            f"unicast consumption {consumption:.1f}% (> 90), multicast "
            f"analytic {analytic:.1f}% (52 +/- 5)")
    _report("criterion 7c (bandwidth scaling)", c_ok,
            f"measured ratio {ratio:.2f} within +/-20% of "
            f"{PREDICTED_RATIO}")
    _report("criterion 7d (rate adaptation gains)", d_ok,
            f"latency {lat_ad:.1f} < {lat_mc:.1f}; measured utilization "
            f"{meas_ad:.1f}% < {meas_fx:.1f}%")
    assert a_ok and b_ok and c_ok and d_ok


def test_criterion_8_byte_identical_artifacts(tmp_path):
    scen = tmp_path / "repeat.scenario"
    scen.write_text("[scenario]\nmode = multicast\ncqi_policy = fixed:3\n"
                    "bandwidth_mhz = 5\n\n[run]\nn_tti = 2000\nseed = 6\n")
    rc1 = cli.main(["run", str(scen), "--out", str(tmp_path / "a")])
    rc2 = cli.main(["run", str(scen), "--out", str(tmp_path / "b")])
    contents = {}
    for side in ("a", "b"):
        root = tmp_path / side
        contents[side] = {
            name: (root / name).read_bytes()
            for name in sorted(os.listdir(root))
        }
    ok = rc1 == rc2 == 0 and contents["a"] == contents["b"]
    _report("criterion 8 (determinism)", ok,
            f"{len(contents['a'])} artifact files byte-identical on repeat")
    assert ok
