"""Command-line front end: single runs and comparison matrices.

Scenario files are plain key-value text in named sections, mapping 1:1
onto the run configuration; unknown sections or keys are rejected with
their line number.  `run` executes one scenario and writes the CSV
artifact set; `compare` runs a {mode} x {bandwidth} x {CQI policy}
matrix, overlays the distribution curves on a shared abscissa and, for
bandwidth pairs, reports the predicted next to the measured ordinary
throughput ratio.  `compare` runs its cells with `engine.run_all`, on up
to one process per CPU this process may use; the outputs do not depend
on the number of processes.

`main` validates every input before any run and reports a bad one as a
single `error: ...` line with exit code 2; no output directory is made.
The inputs are the scenario (read, with its CQI table, when its config is
built), the overrides, the matrix lists and `--out`, which must be a
directory or a path that one can be made at.  An error raised during a
run is not a user error and propagates.
"""
from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
from dataclasses import fields, replace
from importlib import resources
from types import MappingProxyType

import numpy as np

from . import config, engine, metrics


def _parse_bool(s: str) -> bool:
    if s.lower() in ("true", "yes", "1", "on"):
        return True
    if s.lower() in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"not a boolean: {s!r}")


def _parse_policy(s: str) -> tuple[str, int]:
    kind, _, value = s.partition(":")
    try:
        if kind in (config.POLICY_FIXED, config.POLICY_ADAPTIVE):
            return kind, int(value)
    except ValueError:
        pass
    raise ValueError(f"expected fixed:<cqi> or adaptive:<bound>, got {s!r}")


# Parser of each declared config field type.
_PARSERS = MappingProxyType({int: int, float: float, str: str,
                             bool: _parse_bool})
# The one key that sets two fields: `cqi_policy = fixed:3` carries
# cqi_value, which has no key of its own.
_POLICY_KEY = "cqi_policy"


def _scenario_keys() -> dict[str, dict[str, type]]:
    """section -> key -> declared type, in ScenarioConfig field order."""
    sections: dict[str, dict[str, type]] = {}
    for f in fields(config.ScenarioConfig):
        if f.name != "cqi_value":
            sections.setdefault(f.metadata["section"], {})[f.name] = f.type
    return sections


def parse_scenario_text(text: str,
                        directory: str = "") -> config.ScenarioConfig:
    """The config of a scenario file's text; a relative `cqi_table_file`
    is taken from `directory`, that of the file."""
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
                raise ValueError(f"line {lineno}: unknown section [{section}]")
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key = value")
        if section is None:
            raise ValueError(f"line {lineno}: key outside any section")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in schema[section]:
            raise ValueError(
                f"line {lineno}: unknown key {key!r} in section [{section}]")
        if key in values:
            raise ValueError(f"line {lineno}: {key!r} given twice")
        parse = (_parse_policy if key == _POLICY_KEY
                 else _PARSERS[schema[section][key]])
        try:
            parsed = parse(val)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: bad value for {key!r}: "
                             f"{exc}") from exc
        if key == _POLICY_KEY:
            values["cqi_policy"], values["cqi_value"] = parsed
        else:
            values[key] = parsed
    if values.get("cqi_table_file"):
        values["cqi_table_file"] = os.path.join(directory,
                                                values["cqi_table_file"])
    return config.ScenarioConfig(**values)


def load_scenario(path: str) -> config.ScenarioConfig:
    resolved = resolve_scenario_path(path)
    with open(resolved, "r", encoding="utf-8") as fh:
        return parse_scenario_text(fh.read(), os.path.dirname(resolved))


def resolve_scenario_path(path: str) -> str:
    """A real file path, or the bare file name of a bundled scenario."""
    if os.path.isfile(path):
        return path
    if os.path.basename(path) == path:
        name = path if path.endswith(".scenario") else path + ".scenario"
        bundled = resources.files("mbsfnsim").joinpath("scenarios", name)
        if bundled.is_file():
            return str(bundled)
    raise FileNotFoundError(f"scenario file not found: {path}")


def _check_out(out_dir: str) -> None:
    """Raise ValueError if `out_dir`, or the nearest of its ancestors that
    exists, is not a directory: no output could be written there."""
    path = os.path.abspath(out_dir)
    while not os.path.lexists(path):
        path = os.path.dirname(path)
    if not os.path.isdir(path):
        raise ValueError(f"--out: {path} is not a directory")


def _configs(args) -> list[config.ScenarioConfig]:
    """The validated configs of a parsed command line: `[cfg]` for `run`,
    the matrix cells for `compare`.  Every user input is checked here,
    before any run; a bad one raises ValueError or FileNotFoundError with
    the message `main` prints."""
    _check_out(args.out)
    if args.command == "run":
        try:
            cfg = load_scenario(args.scenario)
        except ValueError as exc:
            raise ValueError(f"{args.scenario}: {exc}") from exc
        if args.seed is not None:
            try:
                cfg = replace(cfg, seed=args.seed)
            except ValueError as exc:
                raise ValueError(f"--seed: {exc}") from exc
        return [cfg]

    base = (config.ScenarioConfig() if args.base is None
            else load_scenario(args.base))
    # Each cell is built, and so checked, after the matrix checks, with the
    # --n-tti and --seed overrides among its fields.
    overrides = {k: v for k, v in (("n_tti", args.n_tti), ("seed", args.seed))
                 if v is not None}
    try:
        policies = [_parse_policy(p) for p in args.cqi.split(",") if p]
    except ValueError as exc:
        raise ValueError(f"--cqi: {exc}") from exc
    modes = [m.strip() for m in args.modes.split(",") if m.strip()]
    try:
        bandwidths = [int(b) for b in args.bandwidths.split(",") if b.strip()]
    except ValueError as exc:
        raise ValueError(f"--bandwidths: bandwidth_mhz must be integers, got "
                         f"{args.bandwidths!r}") from exc
    for flag, entries, text in (("--modes", modes, args.modes),
                                ("--bandwidths", bandwidths, args.bandwidths),
                                ("--cqi", policies, args.cqi)):
        if len(set(entries)) < len(entries):
            raise ValueError(f"{flag}: an entry is repeated in {text!r}")
    if len(modes) * len(bandwidths) * len(policies) < 2:
        raise ValueError("compare needs at least two matrix cells")
    return [replace(base, **overrides, mode=mode, bandwidth_mhz=bw,
                    cqi_policy=policy, cqi_value=value)
            for mode in modes for bw in bandwidths
            for policy, value in policies]


def cmd_run(cfg: config.ScenarioConfig, out_dir: str) -> int:
    metrics.write_run_outputs(out_dir, engine.run(cfg))
    print(f"wrote {out_dir} (mode={cfg.mode}, bandwidth={cfg.bandwidth_mhz} MHz,"
          f" policy={config.policy_label(cfg.cqi_policy, cfg.cqi_value)},"
          f" seed={cfg.seed})")
    return 0


def _cell_name(cfg: config.ScenarioConfig) -> str:
    return (f"{cfg.mode}_{cfg.bandwidth_mhz}mhz_"
            f"{cfg.cqi_policy}{cfg.cqi_value}")


def _write_overlay(path, value_name, curves: dict[str, metrics.EcdfCurve]):
    """One row per value at which any cell's curve steps, with each cell's
    cumulative probability there; header only when no cell has a curve."""
    names = sorted(curves)
    grid = np.unique(np.concatenate([[]] + [curves[n].values for n in names]))
    cols = [curves[n].evaluate(grid) for n in names]
    metrics.write_csv(path, [value_name] + [f"cum_prob_{n}" for n in names],
                      [[metrics.format_value(v) for v in row]
                       for row in zip(grid, *cols)])


RATIO_COLUMNS = ("mode", "cqi_policy", "bandwidth_low", "bandwidth_high",
                 "predicted_ratio", "measured_ratio")


def cmd_compare(cells: list[config.ScenarioConfig], out_dir: str) -> int:
    records = engine.run_all(cells)
    os.makedirs(out_dir, exist_ok=True)
    summary_rows, groups = [], {}
    lat_mean_curves, lat_comb_curves, tp_curves = {}, {}, {}
    for cfg, record in zip(cells, records):
        # Each (mode, policy) group's records by bandwidth.
        groups.setdefault((cfg.mode, cfg.cqi_policy, cfg.cqi_value),
                          {})[cfg.bandwidth_mhz] = record
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

    # Each (mode, policy) group's bandwidth pairs, low before high.
    ratio_rows = []
    for (mode, policy, value), by_bw in sorted(groups.items()):
        for bw, bw_hi in itertools.combinations(sorted(by_bw), 2):
            rec, rec_hi = by_bw[bw], by_bw[bw_hi]
            lo_util = rec.analytic_utilization_pct / 100.0
            hi_util = rec_hi.analytic_utilization_pct / 100.0
            predicted = metrics.predicted_throughput_ratio(
                lo_util, config.BANDWIDTH_TO_RB[bw],
                hi_util, config.BANDWIDTH_TO_RB[bw_hi])
            lo_tp = rec.mean_throughput_mbps()
            measured = (rec_hi.mean_throughput_mbps() / lo_tp
                        if lo_tp else float("nan"))
            ratio_rows.append([metrics.format_value(v) for v in (
                mode, config.policy_label(policy, value), bw, bw_hi,
                predicted, measured)])
    if ratio_rows:
        metrics.write_csv(os.path.join(out_dir, "ratios.csv"), RATIO_COLUMNS,
                          ratio_rows)
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
    try:
        configs = _configs(args)
    except (FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.command == "run":
        return cmd_run(configs[0], args.out)
    return cmd_compare(configs, args.out)


if __name__ == "__main__":
    sys.exit(main())
