"""Command-line front end: single runs and comparison matrices.

Scenario files are plain key-value text in named sections, mapping 1:1
onto the run configuration; unknown sections or keys are rejected with
their line number.  `run` executes one scenario and writes the CSV
artifact set; `compare` runs a {mode} x {bandwidth} x {CQI policy}
matrix, overlays the distribution curves on a shared abscissa and, for
bandwidth pairs, reports the predicted next to the measured ordinary
throughput ratio.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import fields, replace
from importlib import resources

import numpy as np

from . import engine, metrics

WORKERS_ENV = "MBSFNSIM_WORKERS"


class ScenarioParseError(ValueError):
    pass


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "yes", "1", "on"):
        return True
    if s.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_policy(s: str) -> tuple[str, int]:
    kind, _, value = s.partition(":")
    try:
        if kind in (engine.POLICY_FIXED, engine.POLICY_ADAPTIVE):
            return kind, int(value)
    except ValueError:
        pass
    raise ValueError(f"expected fixed:<cqi> or adaptive:<bound>, got {s!r}")


# Parser and printer of each declared config field type.
_CODECS = {int: (int, str), float: (float, repr), str: (str, str),
           bool: (_parse_bool, lambda v: str(v).lower())}
# The one key that sets two fields: `cqi_policy = fixed:3` carries
# cqi_value, which has no key of its own.
_POLICY_KEY = "cqi_policy"


def _scenario_keys() -> dict[str, dict[str, type]]:
    """section -> key -> declared type, in ScenarioConfig field order."""
    sections: dict[str, dict[str, type]] = {}
    for f in fields(engine.ScenarioConfig):
        if f.name != "cqi_value":
            sections.setdefault(f.metadata["section"], {})[f.name] = f.type
    return sections


def parse_scenario_text(text: str) -> engine.ScenarioConfig:
    schema = _scenario_keys()
    values: dict[str, object] = {}
    section = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
            if section not in schema:
                raise ScenarioParseError(
                    f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ScenarioParseError(f"line {lineno}: expected key = value")
        if section is None:
            raise ScenarioParseError(f"line {lineno}: key outside any section")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in schema[section]:
            raise ScenarioParseError(
                f"line {lineno}: unknown key {key!r} in section [{section}]")
        if key in values:
            raise ScenarioParseError(f"line {lineno}: {key!r} given twice")
        parse = (_parse_policy if key == _POLICY_KEY
                 else _CODECS[schema[section][key]][0])
        try:
            parsed = parse(val)
        except ValueError as exc:
            raise ScenarioParseError(f"line {lineno}: bad value for "
                                     f"{key!r}: {exc}") from exc
        if key == _POLICY_KEY:
            values["cqi_policy"], values["cqi_value"] = parsed
        else:
            values[key] = parsed
    cfg = engine.ScenarioConfig(**values)
    cfg.validate()
    return cfg


def serialize_scenario(cfg: engine.ScenarioConfig) -> str:
    lines = []
    for section, keys in _scenario_keys().items():
        lines.append(f"[{section}]")
        for key, typ in keys.items():
            text = (cfg.cqi_policy_label() if key == _POLICY_KEY
                    else _CODECS[typ][1](getattr(cfg, key)))
            lines.append(f"{key} = {text}")
        lines.append("")
    return "\n".join(lines)


def load_scenario(path: str) -> engine.ScenarioConfig:
    resolved = resolve_scenario_path(path)
    with open(resolved, "r", encoding="utf-8") as fh:
        return parse_scenario_text(fh.read())


def resolve_scenario_path(path: str) -> str:
    """A real file path, or the name of a bundled scenario."""
    if os.path.exists(path):
        return path
    name = path if path.endswith(".scenario") else path + ".scenario"
    bundled = resources.files("mbsfnsim").joinpath("scenarios", name)
    if bundled.is_file():
        return str(bundled)
    raise FileNotFoundError(f"scenario file not found: {path}")


def cmd_run(scenario_path: str, out_dir: str, seed_override=None) -> int:
    try:
        cfg = load_scenario(scenario_path)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {scenario_path}: {exc}", file=sys.stderr)
        return 2
    if seed_override is not None:
        cfg = replace(cfg, seed=int(seed_override))
        try:
            cfg.validate()
        except ValueError as exc:
            print(f"error: --seed: {exc}", file=sys.stderr)
            return 2
    try:
        cfg.cqi_table()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    record = engine.run(cfg)
    metrics.write_run_outputs(out_dir, record)
    print(f"wrote {out_dir} (mode={cfg.mode}, bandwidth={cfg.bandwidth_mhz} MHz,"
          f" policy={cfg.cqi_policy_label()}, seed={cfg.seed})")
    return 0


def _cell_name(cfg: engine.ScenarioConfig) -> str:
    return (f"{cfg.mode}_{cfg.bandwidth_mhz}mhz_"
            f"{cfg.cqi_policy}{cfg.cqi_value}")


def _aligned_overlay(curves: dict[str, metrics.EcdfCurve]) -> tuple:
    grid = np.unique(np.concatenate([c.values for c in curves.values()]))
    cols = {name: c.evaluate(grid) for name, c in curves.items()}
    return grid, cols


def _write_overlay(path, value_name, curves: dict[str, metrics.EcdfCurve]):
    if not curves:
        metrics.write_csv(path, (value_name,), [])
        return
    grid, cols = _aligned_overlay(curves)
    names = sorted(cols)
    header = [value_name] + [f"cum_prob_{n}" for n in names]
    rows = []
    for i, v in enumerate(grid):
        rows.append([repr(float(v))] + [repr(float(cols[n][i])) for n in names])
    metrics.write_csv(path, header, rows)


def cmd_compare(base_cfg: engine.ScenarioConfig, modes, bandwidths, policies,
                out_dir: str) -> int:
    cells = []
    for mode in modes:
        for bw in bandwidths:
            for policy, value in policies:
                cells.append(replace(base_cfg, mode=mode, bandwidth_mhz=bw,
                                     cqi_policy=policy, cqi_value=value))
    raw_workers = os.environ.get(WORKERS_ENV, "1")
    try:
        workers = int(raw_workers)
    except ValueError:
        print(f"error: {WORKERS_ENV}: must be an integer, got "
              f"{raw_workers!r}", file=sys.stderr)
        return 2
    if workers < 1:
        print(f"error: {WORKERS_ENV}: must be >= 1, got {raw_workers!r}",
              file=sys.stderr)
        return 2
    if len(cells) < 2:
        print("error: compare needs at least two matrix cells",
              file=sys.stderr)
        return 2
    try:
        for cfg in cells:
            cfg.validate()
        base_cfg.cqi_table()
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    # No more processes than matrix cells.
    workers = min(workers, len(cells))
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            records = list(pool.map(engine.run, cells))
    else:
        records = [engine.run(cfg) for cfg in cells]

    os.makedirs(out_dir, exist_ok=True)
    summary_rows = []
    lat_mean_curves, lat_comb_curves, tp_curves = {}, {}, {}
    for cfg, record in zip(cells, records):
        name = _cell_name(cfg)
        curves = metrics.write_run_outputs(os.path.join(out_dir, name),
                                           record)
        summary_rows.append(record.summary())
        if curves.combined is not None:
            lat_comb_curves[name] = curves.combined
            lat_mean_curves[name] = curves.mean
        if record.ordinary_throughput_mbps:
            tp_curves[name] = metrics.ecdf(
                list(record.ordinary_throughput_mbps.values()))
    metrics.write_summary_csv(os.path.join(out_dir, "summary.csv"),
                              summary_rows)
    _write_overlay(os.path.join(out_dir, "overlay_latency_combined.csv"),
                   "latency_tti", lat_comb_curves)
    _write_overlay(os.path.join(out_dir, "overlay_latency_mean.csv"),
                   "mean_latency_tti", lat_mean_curves)
    _write_overlay(os.path.join(out_dir, "overlay_throughput.csv"),
                   "mean_throughput_mbps", tp_curves)

    ratio_rows = []
    by_key = {(c.mode, c.cqi_policy, c.cqi_value, c.bandwidth_mhz): r
              for c, r in zip(cells, records)}
    for (mode, policy, value, bw), rec in sorted(by_key.items()):
        for bw_hi in sorted(set(c.bandwidth_mhz for c in cells)):
            if bw_hi <= bw or (mode, policy, value, bw_hi) not in by_key:
                continue
            rec_hi = by_key[(mode, policy, value, bw_hi)]
            lo_util = rec.analytic_utilization_pct / 100.0
            hi_util = rec_hi.analytic_utilization_pct / 100.0
            try:
                predicted = metrics.predicted_throughput_ratio(
                    lo_util, engine.BANDWIDTH_TO_RB[bw],
                    hi_util, engine.BANDWIDTH_TO_RB[bw_hi])
            except metrics.MetricsError:
                predicted = float("nan")
            lo_tp = rec.mean_throughput_mbps()
            measured = (rec_hi.mean_throughput_mbps() / lo_tp
                        if lo_tp else float("nan"))
            ratio_rows.append({
                "mode": mode, "cqi_policy": f"{policy}:{value}",
                "bandwidth_low": bw, "bandwidth_high": bw_hi,
                "predicted_ratio": predicted, "measured_ratio": measured,
            })
    if ratio_rows:
        header = list(ratio_rows[0])
        metrics.write_csv(os.path.join(out_dir, "ratios.csv"), header,
                          [[metrics.format_value(r[k]) for k in header]
                           for r in ratio_rows])
    with open(os.path.join(out_dir, "compare_manifest.json"), "w",
              encoding="utf-8") as fh:
        json.dump({"cells": [c.to_dict() for c in cells]}, fh, indent=2,
                  sort_keys=True)
        fh.write("\n")
    print(f"wrote {out_dir} ({len(cells)} cells)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="mbsfnsim",
        description="Multicast vs unicast delivery of periodic vehicle "
                    "messages over a synchronized LTE cell cluster")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one scenario file")
    p_run.add_argument("scenario", help="scenario file path or bundled name")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None,
                       help="override the scenario seed")

    p_cmp = sub.add_parser("compare", help="run a comparison matrix")
    p_cmp.add_argument("--base", default=None,
                       help="base scenario file (defaults to the bundled "
                            "standard setup)")
    p_cmp.add_argument("--modes", default="multicast",
                       help="comma-separated transmission modes")
    p_cmp.add_argument("--bandwidths", default="5",
                       help="comma-separated bandwidths in MHz")
    p_cmp.add_argument("--cqi", default="fixed:3",
                       help="comma-separated CQI policies, e.g. "
                            "fixed:3,adaptive:3,adaptive:0")
    p_cmp.add_argument("--out", required=True)
    p_cmp.add_argument("--n-tti", type=int, default=None)
    p_cmp.add_argument("--seed", type=int, default=None)

    args = parser.parse_args(argv)
    if args.command == "run":
        return cmd_run(args.scenario, args.out, args.seed)

    if args.base is not None:
        try:
            base = load_scenario(args.base)
        except (FileNotFoundError, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        base = engine.ScenarioConfig()
    if args.n_tti is not None:
        base = replace(base, n_tti=args.n_tti)
    if args.seed is not None:
        base = replace(base, seed=args.seed)
    try:
        policies = [_parse_policy(p) for p in args.cqi.split(",") if p]
    except ValueError as exc:
        print(f"error: --cqi: {exc}", file=sys.stderr)
        return 2
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    try:
        bandwidths = [int(b) for b in args.bandwidths.split(",") if b.strip()]
    except ValueError:
        print(f"error: --bandwidths: bandwidth_mhz must be integers, got "
              f"{args.bandwidths!r}", file=sys.stderr)
        return 2
    return cmd_compare(base, modes, bandwidths, policies, args.out)


if __name__ == "__main__":
    sys.exit(main())
