import csv
import json
import os
import re
from dataclasses import fields, replace

import pytest

from mbsfnsim import channel, cli, config, engine
from mbsfnsim.cli import (load_scenario, main, parse_scenario_text,
                          resolve_scenario_path)
from test_link import BAD_TABLES, write_cqi_table

SMALL_SCENARIO = """
[scenario]
mode = multicast
cqi_policy = fixed:3
bandwidth_mhz = 5

[run]
n_tti = 150
seed = 4
"""


def read_all_bytes(root):
    out = {}
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                out[name] = fh.read()
    return out


class TestScenarioFormat:
    def test_parse_partial_file_uses_defaults(self):
        cfg = parse_scenario_text(SMALL_SCENARIO)
        assert cfg.n_tti == 150 and cfg.seed == 4
        assert cfg.users_per_cell == 6

    def test_roundtrip_identity(self):
        cfg = parse_scenario_text(SMALL_SCENARIO)
        assert cfg == engine.ScenarioConfig(n_tti=150, seed=4)

    def test_roundtrip_nondefault(self):
        cfg = engine.ScenarioConfig(
            mode="unicast_baseline", cqi_policy="adaptive", cqi_value=0,
            bandwidth_mhz=20, usable_re_per_rb=110, perfect_decode=True,
            car_speed_kmh=43.2, n_tti=7, seed=99)
        text = """
[scenario]
mode = unicast_baseline
cqi_policy = adaptive:0
bandwidth_mhz = 20
[users]
car_speed_kmh = 43.2
[radio]
usable_re_per_rb = 110
perfect_decode = true
[run]
n_tti = 7
seed = 99
"""
        assert parse_scenario_text(text) == cfg

    def test_roundtrip_every_field_changed(self, tmp_path):
        # every field of the spec gets a valid non-default value, so a field
        # added to ScenarioConfig is covered (or fails here) automatically
        enumerated = {"mode": "unicast_baseline", "cqi_policy": "adaptive",
                      "bandwidth_mhz": 20, "cqi_table_file": write_cqi_table(
                          tmp_path / "alt_table.csv")}
        bump = {int: lambda v: v + 1, float: lambda v: v + 0.1,
                bool: lambda v: not v}
        cfg = engine.ScenarioConfig(**{
            f.name: (enumerated[f.name] if f.name in enumerated
                     else bump[f.type](f.default))
            for f in fields(engine.ScenarioConfig)})
        lines = []
        for f in fields(cfg):
            value = getattr(cfg, f.name)
            assert value != f.default, f.name
            if f.name == "cqi_value":  # carried by the cqi_policy key
                continue
            if f.name == "cqi_policy":
                value = config.policy_label(cfg.cqi_policy, cfg.cqi_value)
            lines += [f"[{f.metadata['section']}]", f"{f.name} = "
                      f"{str(value).lower() if f.type is bool else value}"]
        assert parse_scenario_text("\n".join(lines)) == cfg

    @pytest.mark.parametrize("text, line, key", [
        ("[run]\nn_tti = 5\nn_tti = 7\n", 3, "n_tti"),
        ("[run]\nseed = 2\n[users]\ncars_per_cell = 1\n[run]\nseed = 3\n",
         6, "seed"),
        ("[scenario]\ncqi_policy = fixed:3\n\ncqi_policy = adaptive:2\n", 4,
         "cqi_policy"),
    ])
    def test_repeated_key_rejected_with_line(self, text, line, key):
        with pytest.raises(ValueError, match=f"line {line}.*{key}"):
            parse_scenario_text(text)

    def test_readme_block_is_the_default_schema(self):
        readme = os.path.join(os.path.dirname(__file__), "..", "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = fh.read()
        block = re.search(r"### Scenario files\n.*?```\n(.*?)```", text,
                          re.S).group(1)
        assert parse_scenario_text(block) == engine.ScenarioConfig()
        comments = {line.split("=", 1)[0].strip(): line.partition("#")[2]
                    for line in block.splitlines() if "=" in line}
        assert list(comments) == [
            key for keys in cli._scenario_keys().values() for key in keys]
        # each stated lower bound is the spec's
        for f in fields(engine.ScenarioConfig):
            for kind, op in (("at_least", ">="), ("above", ">")):
                if f.metadata.get(kind) is not None:
                    assert f"{op} {f.metadata[kind]}" in comments[f.name], f.name

    def test_unknown_key_rejected_with_line(self):
        bad = "[scenario]\nmode = multicast\nwibble = 3\n"
        with pytest.raises(ValueError, match="line 3.*wibble"):
            parse_scenario_text(bad)

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_scenario_text("[nonsense]\n")

    def test_bad_value_reports_line_and_key(self):
        bad = "[run]\nn_tti = soon\n"
        with pytest.raises(ValueError, match="line 2.*n_tti"):
            parse_scenario_text(bad)
        with pytest.raises(ValueError,
                           match="line 2.*cqi_policy.*'fixed:x'"):
            parse_scenario_text("[scenario]\ncqi_policy = fixed:x\n")

    def test_key_outside_section(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_scenario_text("mode = multicast\n")

    def test_bundled_scenarios_parse_to_standard_setup(self):
        cfg = load_scenario("table1_multicast_5mhz")
        assert cfg.mode == "multicast"
        assert cfg.bandwidth_mhz == 5
        assert cfg.cqi_policy == "fixed" and cfg.cqi_value == 3
        assert cfg.users_per_cell == 6 and cfg.cars_per_cell == 3
        assert cfg.cam_size_bytes == 300 and cfg.cam_period_ms == 100
        cfg20 = load_scenario("table1_multicast_20mhz")
        assert cfg20.bandwidth_mhz == 20
        uc = load_scenario("table1_unicast_5mhz")
        assert uc.mode == "unicast_baseline"

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            resolve_scenario_path("/nowhere/else.scenario")


class TestCmdRun:
    def test_writes_artifact_set(self, tmp_path, capsys):
        scen = tmp_path / "small.scenario"
        scen.write_text(SMALL_SCENARIO)
        out = tmp_path / "out"
        assert main(["run", str(scen), "--out", str(out)]) == 0
        names = set(os.listdir(out))
        assert {"summary.csv", "latency_combined.csv", "latency_mean.csv",
                "throughput_ordinary.csv", "run_manifest.json"} <= names
        assert any(n.startswith("latency_user_") for n in names)
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert rows[0]["mode"] == "multicast"
        assert rows[0]["bandwidth"] == "5"
        with open(out / "run_manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["seed"] == 4
        assert manifest["config"]["n_tti"] == 150

    def test_missing_file_diagnostic(self, tmp_path, capsys):
        rc = main(["run", str(tmp_path / "absent.scenario"),
                   "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "absent.scenario" in capsys.readouterr().err

    def test_parse_error_diagnostic(self, tmp_path, capsys):
        scen = tmp_path / "broken.scenario"
        scen.write_text("[run]\nn_tti = many\n")
        rc = main(["run", str(scen), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "line 2" in capsys.readouterr().err

    def test_invalid_value_diagnostic(self, tmp_path, capsys):
        scen = tmp_path / "wide.scenario"
        scen.write_text("[scenario]\nbandwidth_mhz = 10\n")
        rc = main(["run", str(scen), "--out", str(tmp_path / "o")])
        assert rc == 2
        assert "bandwidth_mhz" in capsys.readouterr().err

    @pytest.mark.parametrize("table_text, reason", [
        pytest.param(None, "No such file", id="missing"),
        pytest.param("index,modulation\n1,QPSK\n", "missing column",
                     id="no_column"),
        pytest.param("index,modulation,efficiency,sinr_threshold_db\n"
                     "1,QPSK,x,0\n", "line 2", id="bad_value"),
    ])
    def test_cqi_table_file_diagnostic(self, tmp_path, capsys, table_text,
                                       reason):
        table = tmp_path / "table.csv"
        if table_text is not None:
            table.write_text(table_text)
        scen = tmp_path / "table.scenario"
        scen.write_text(SMALL_SCENARIO
                        + f"\n[radio]\ncqi_table_file = {table}\n")
        for argv, prefix in ((["run", str(scen)], f"{scen}: "),
                             (["compare", "--base", str(scen),
                               "--cqi", "fixed:3,fixed:4"], "")):
            assert main(argv + ["--out", str(tmp_path / "o")]) == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {prefix}cqi_table_file: ")
            assert reason in err
            assert not (tmp_path / "o").exists()

    def test_invalid_seed_override_diagnostic(self, tmp_path, capsys):
        scen = tmp_path / "small.scenario"
        scen.write_text(SMALL_SCENARIO)
        rc = main(["run", str(scen), "--out", str(tmp_path / "o"),
                   "--seed", "-1"])
        assert rc == 2
        assert "seed" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_byte_identical_repeats(self, tmp_path):
        scen = tmp_path / "small.scenario"
        scen.write_text(SMALL_SCENARIO)
        main(["run", str(scen), "--out", str(tmp_path / "a")])
        main(["run", str(scen), "--out", str(tmp_path / "b")])
        assert read_all_bytes(tmp_path / "a") == read_all_bytes(tmp_path / "b")

    def test_seed_override_changes_hashless_fields(self, tmp_path):
        scen = tmp_path / "small.scenario"
        scen.write_text(SMALL_SCENARIO)
        main(["run", str(scen), "--out", str(tmp_path / "a"), "--seed", "11"])
        with open(tmp_path / "a" / "run_manifest.json") as fh:
            assert json.load(fh)["seed"] == 11


class TestCmdCompare:
    def test_matrix_outputs(self, tmp_path):
        out = tmp_path / "cmp"
        rc = main(["compare", "--modes", "multicast,unicast_baseline",
                   "--bandwidths", "5", "--cqi", "fixed:3",
                   "--out", str(out), "--n-tti", "300", "--seed", "2"])
        assert rc == 0
        with open(out / "summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        modes = {r["mode"] for r in rows}
        assert modes == {"multicast", "unicast_baseline"}
        uc_row = next(r for r in rows if r["mode"] == "unicast_baseline")
        assert uc_row["congested"] == "true"
        assert (out / "multicast_5mhz_fixed3" / "summary.csv").exists()
        assert (out / "overlay_latency_mean.csv").exists()

    def test_bandwidth_pair_emits_ratio(self, tmp_path):
        out = tmp_path / "cmp"
        rc = main(["compare", "--modes", "multicast",
                   "--bandwidths", "5,20", "--cqi", "fixed:3",
                   "--out", str(out), "--n-tti", "300", "--seed", "2"])
        assert rc == 0
        with open(out / "ratios.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        row = rows[0]
        assert row["bandwidth_low"] == "5" and row["bandwidth_high"] == "20"
        predicted = float(row["predicted_ratio"])
        assert predicted > 1.0
        assert float(row["measured_ratio"]) > 1.0

    def test_single_cell_rejected(self, tmp_path, capsys):
        rc = main(["compare", "--modes", "multicast", "--bandwidths", "5",
                   "--cqi", "fixed:3", "--out", str(tmp_path / "x"),
                   "--n-tti", "100"])
        assert rc == 2
        assert "two" in capsys.readouterr().err

    @pytest.mark.parametrize("option, value, field", [
        ("--bandwidths", "5,10", "bandwidth_mhz"),
        ("--bandwidths", "5,x", "bandwidth_mhz"),
        ("--modes", "multicast,broadcast", "mode"),
        pytest.param("--cqi", "fixed:x,fixed:3",
                     "--cqi: expected fixed:<cqi> or adaptive:<bound>, "
                     "got 'fixed:x'", id="--cqi-fixed:x"),
    ])
    def test_invalid_matrix_diagnostic(self, tmp_path, capsys, option, value,
                                       field):
        rc = main(["compare", option, value, "--out", str(tmp_path / "x"),
                   "--n-tti", "10"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and field in err
        assert not (tmp_path / "x").exists()

    def test_overlay_columns_aligned(self, tmp_path):
        out = tmp_path / "cmp"
        main(["compare", "--modes", "multicast",
              "--bandwidths", "5", "--cqi", "fixed:3,adaptive:3",
              "--out", str(out), "--n-tti", "300", "--seed", "2"])
        with open(out / "overlay_latency_combined.csv") as fh:
            header = fh.readline().strip().split(",")
        assert header[0] == "latency_tti"
        assert len(header) == 3  # one cum_prob column per matrix cell

    def test_base_scenario_flag(self, tmp_path):
        scen = tmp_path / "base.scenario"
        scen.write_text(SMALL_SCENARIO)
        out = tmp_path / "cmp"
        rc = main(["compare", "--base", str(scen), "--modes", "multicast",
                   "--bandwidths", "5", "--cqi", "fixed:3,fixed:5",
                   "--out", str(out)])
        assert rc == 0
        with open(out / "compare_manifest.json") as fh:
            cells = json.load(fh)["cells"]
        assert all(c["n_tti"] == 150 and c["seed"] == 4 for c in cells)

    def test_worker_count_capped_at_cells(self, tmp_path, monkeypatch):
        """A pool never gets more workers than there are matrix cells."""
        monkeypatch.setattr(channel, "usable_cpus", lambda: 64)
        assert self._pool_sizes(tmp_path, monkeypatch) == [2]

    def test_one_usable_cpu_runs_cells_in_this_process(self, tmp_path,
                                                       monkeypatch):
        monkeypatch.setattr(channel, "usable_cpus", lambda: 1)
        assert self._pool_sizes(tmp_path, monkeypatch) == []

    @staticmethod
    def _pool_sizes(tmp_path, monkeypatch):
        """The worker count of each pool a two-cell `compare` starts."""
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", InlinePool)
        rc = main(["compare", "--modes", "multicast", "--bandwidths", "5",
                   "--cqi", "fixed:3,fixed:4", "--out",
                   str(tmp_path / "cmp"), "--n-tti", "20"])
        assert rc == 0
        return sizes


# The ids of each BAD_TABLES entry's two rows (run, then compare) in
# `TestValidationBoundary.test_user_error_reported_before_any_run`.  Every
# row's id is written out, so an edit to a message renames no test.
_BAD_TABLE_ROW_IDS = (
    ("efficiency_nan",
     "argv30-{d}/efficiency_nan.scenario: cqi_table_file: "
     "'{d}/efficiency_nan.csv': CQI efficiencies must be finite",
     "argv31-cqi_table_file: '{d}/efficiency_nan.csv': CQI efficiencies "
     "must be finite"),
    ("efficiency_negative",
     "argv32-{d}/efficiency_negative.scenario: cqi_table_file: "
     "'{d}/efficiency_negative.csv': CQI efficiencies must be positive",
     "argv33-cqi_table_file: '{d}/efficiency_negative.csv': CQI "
     "efficiencies must be positive"),
    ("efficiency_zero",
     "argv34-{d}/efficiency_zero.scenario: cqi_table_file: "
     "'{d}/efficiency_zero.csv': CQI efficiencies must be positive",
     "argv35-cqi_table_file: '{d}/efficiency_zero.csv': CQI efficiencies "
     "must be positive"),
    ("threshold_inf",
     "argv36-{d}/threshold_inf.scenario: cqi_table_file: "
     "'{d}/threshold_inf.csv': CQI thresholds_db must be finite",
     "argv37-cqi_table_file: '{d}/threshold_inf.csv': CQI thresholds_db "
     "must be finite"),
    ("threshold_nan",
     "argv38-{d}/threshold_nan.scenario: cqi_table_file: "
     "'{d}/threshold_nan.csv': CQI thresholds_db must be finite",
     "argv39-cqi_table_file: '{d}/threshold_nan.csv': CQI thresholds_db "
     "must be finite"),
)


class TestValidationBoundary:
    """`main` checks every input before any run and reports a bad one as
    one `error:` line with exit code 2; errors raised by a run are not
    user errors and propagate."""

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["run", "{d}/absent.scenario"],
                     "scenario file not found: {d}/absent.scenario",
                     id="argv0-scenario file not found: {d}/absent.scenario"),
        pytest.param(["run", "{d}/broken.scenario"],
                     "{d}/broken.scenario: line 2: bad value for 'n_tti': "
                     "invalid literal for int() with base 10: 'many'",
                     id="argv1-{d}/broken.scenario: line 2: bad value for "
                        "'n_tti': invalid literal for int() with base 10: "
                        "'many'"),
        pytest.param(["run", "{d}/wide.scenario"],
                     "{d}/wide.scenario: bandwidth_mhz must be 5 or 20",
                     id="argv2-{d}/wide.scenario: bandwidth_mhz must be 5 "
                        "or 20"),
        pytest.param(["run", "{d}/small.scenario", "--seed", "-1"],
                     "--seed: seed must be >= 0",
                     id="argv3---seed: seed must be >= 0"),
        pytest.param(["run", "{d}/table.scenario"],
                     "{d}/table.scenario: cqi_table_file: '{d}/absent.csv': "
                     "No such file or directory",
                     id="argv4-{d}/table.scenario: cqi_table_file: "
                        "'{d}/absent.csv': No such file or directory"),
        pytest.param(["compare", "--base", "{d}/absent.scenario"],
                     "scenario file not found: {d}/absent.scenario",
                     id="argv5-scenario file not found: {d}/absent.scenario"),
        pytest.param(["compare", "--base", "{d}/broken.scenario"],
                     "line 2: bad value for 'n_tti': invalid literal for "
                     "int() with base 10: 'many'",
                     id="argv6-line 2: bad value for 'n_tti': invalid "
                        "literal for int() with base 10: 'many'"),
        pytest.param(["compare", "--base", "{d}/wide.scenario"],
                     "bandwidth_mhz must be 5 or 20",
                     id="argv7-bandwidth_mhz must be 5 or 20"),
        pytest.param(["compare", "--cqi", "fixed:x,fixed:3"],
                     "--cqi: expected fixed:<cqi> or adaptive:<bound>, got "
                     "'fixed:x'",
                     id="argv8---cqi: expected fixed:<cqi> or "
                        "adaptive:<bound>, got 'fixed:x'"),
        pytest.param(["compare", "--bandwidths", "5,x"],
                     "--bandwidths: bandwidth_mhz must be integers, got '5,x'",
                     id="argv9---bandwidths: bandwidth_mhz must be "
                        "integers, got '5,x'"),
        pytest.param(["compare"], "compare needs at least two matrix cells",
                     id="argv10-compare needs at least two matrix cells"),
        pytest.param(["compare", "--modes", "", "--cqi", "fixed:3,fixed:4"],
                     "compare needs at least two matrix cells",
                     id="argv11-compare needs at least two matrix cells"),
        pytest.param(["compare", "--bandwidths", "5,10"],
                     "bandwidth_mhz must be 5 or 20",
                     id="argv12-bandwidth_mhz must be 5 or 20"),
        pytest.param(["compare", "--modes", "multicast,broadcast"],
                     "unknown mode 'broadcast'",
                     id="argv13-unknown mode 'broadcast'"),
        pytest.param(["compare", "--cqi", "fixed:3,adaptive:16"],
                     "adaptive CQI bound must be in 0..15",
                     id="argv14-adaptive CQI bound must be in 0..15"),
        pytest.param(["compare", "--cqi", "fixed:3,fixed:4", "--n-tti", "-1"],
                     "n_tti must be >= 0",
                     id="argv15-n_tti must be >= 0"),
        pytest.param(["compare", "--cqi", "fixed:3,fixed:4", "--seed", "-1"],
                     "seed must be >= 0",
                     id="argv16-seed must be >= 0"),
        pytest.param(["compare", "--base", "{d}/table.scenario",
                      "--cqi", "fixed:3,fixed:4"],
                     "cqi_table_file: '{d}/absent.csv': No such file or "
                     "directory",
                     id="argv17-cqi_table_file: '{d}/absent.csv': No such "
                        "file or directory"),
        # A directory is no scenario file.
        pytest.param(["run", "{d}"], "scenario file not found: {d}",
                     id="argv18-scenario file not found: {d}"),
        pytest.param(["compare", "--base", "{d}"],
                     "scenario file not found: {d}",
                     id="argv19-scenario file not found: {d}"),
        # A repeated list entry is no new matrix cell.
        pytest.param(["compare", "--modes", "multicast,multicast"],
                     "--modes: an entry is repeated in 'multicast,multicast'",
                     id="argv20---modes: an entry is repeated in "
                        "'multicast,multicast'"),
        pytest.param(["compare", "--bandwidths", "5,5"],
                     "--bandwidths: an entry is repeated in '5,5'",
                     id="argv21---bandwidths: an entry is repeated in '5,5'"),
        pytest.param(["compare", "--cqi", "fixed:3,fixed:3"],
                     "--cqi: an entry is repeated in 'fixed:3,fixed:3'",
                     id="argv22---cqi: an entry is repeated in "
                        "'fixed:3,fixed:3'"),
        # The matrix is counted before any cell is built and checked.
        pytest.param(["compare", "--bandwidths", "10", "--n-tti", "-1"],
                     "compare needs at least two matrix cells",
                     id="argv23-compare needs at least two matrix cells"),
        # --out is no file and lies under none.
        pytest.param(["run", "{d}/small.scenario", "--out",
                      "{d}/small.scenario"],
                     "--out: {d}/small.scenario is not a directory",
                     id="argv24---out: {d}/small.scenario is not a "
                        "directory"),
        pytest.param(["run", "{d}/small.scenario", "--out",
                      "{d}/small.scenario/sub"],
                     "--out: {d}/small.scenario is not a directory",
                     id="argv25---out: {d}/small.scenario is not a "
                        "directory"),
        pytest.param(["compare", "--cqi", "fixed:3,fixed:4", "--out",
                      "{d}/small.scenario"],
                     "--out: {d}/small.scenario is not a directory",
                     id="argv26---out: {d}/small.scenario is not a "
                        "directory"),
        pytest.param(["compare", "--cqi", "fixed:3,fixed:4", "--out",
                      "{d}/small.scenario/sub"],
                     "--out: {d}/small.scenario is not a directory",
                     id="argv27---out: {d}/small.scenario is not a "
                        "directory"),
        # Only a bare name is looked up among the bundled scenarios.
        pytest.param(["run", "{d}/small"],
                     "scenario file not found: {d}/small",
                     id="argv28-scenario file not found: {d}/small"),
        pytest.param(["compare", "--base", "{d}/small"],
                     "scenario file not found: {d}/small",
                     id="argv29-scenario file not found: {d}/small"),
        # A noise to transmit power ratio no float holds.
        pytest.param(["run", "{d}/loud.scenario"],
                     "{d}/loud.scenario: noise_figure_db - tx_power_dbm is "
                     "too large: the noise to transmit power ratio overflows",
                     id="noise_figure_db_overflow"),
        pytest.param(["compare", "--base", "{d}/faint.scenario",
                      "--cqi", "fixed:3,fixed:4"],
                     "noise_figure_db - tx_power_dbm is too large: the noise "
                     "to transmit power ratio overflows",
                     id="tx_power_dbm_overflow"),
        pytest.param(["run", "{d}/extreme.scenario"],
                     "{d}/extreme.scenario: noise_figure_db - tx_power_dbm "
                     "is too large: the noise to transmit power ratio "
                     "overflows", id="noise_ratio_infinite"),
        # No receiver has a noise figure below 0 dB.
        pytest.param(["run", "{d}/quiet.scenario"],
                     "{d}/quiet.scenario: noise_figure_db must be >= 0",
                     id="noise_figure_db_negative"),
        # A noise to transmit power ratio that rounds to 0.
        pytest.param(["run", "{d}/strong.scenario"],
                     "{d}/strong.scenario: noise_figure_db - tx_power_dbm is "
                     "too small: the noise to transmit power ratio "
                     "underflows to 0", id="tx_power_dbm_underflow"),
        pytest.param(["compare", "--base", "{d}/strong.scenario",
                      "--cqi", "fixed:3,fixed:4"],
                     "noise_figure_db - tx_power_dbm is too small: the noise "
                     "to transmit power ratio underflows to 0",
                     id="tx_power_dbm_underflow_compare"),
    ] + [
        # A table with a value no CqiTable takes.
        row for bad, run_id, compare_id in _BAD_TABLE_ROW_IDS for row in (
            pytest.param(["run", f"{{d}}/{bad}.scenario"],
                         f"{{d}}/{bad}.scenario: cqi_table_file: "
                         f"'{{d}}/{bad}.csv': {BAD_TABLES[bad][3]}",
                         id=run_id),
            pytest.param(["compare", "--base", f"{{d}}/{bad}.scenario",
                          "--cqi", "fixed:3,fixed:4"],
                         f"cqi_table_file: '{{d}}/{bad}.csv': "
                         f"{BAD_TABLES[bad][3]}", id=compare_id))
    ] + [
        # A quantity derived from a value that overflows its type.
        pytest.param(["run", "{d}/carrier.scenario"],
                     "{d}/carrier.scenario: carrier_ghz is too large: the "
                     "carrier in Hz or the Doppler phase at car_speed_kmh "
                     "over the run overflows", id="carrier_ghz_overflow"),
        pytest.param(["run", "{d}/sparse.scenario"],
                     "{d}/sparse.scenario: inter_site_distance_m is too "
                     "large: the squared distance across the layout "
                     "overflows", id="inter_site_distance_m_overflow"),
        pytest.param(["run", "{d}/dense.scenario"],
                     "{d}/dense.scenario: usable_re_per_rb must be at most "
                     "368934881474191032 at 25 RBs: an RB grid's resource "
                     "elements must fit in int64",
                     id="usable_re_per_rb_overflow"),
    ])
    def test_user_error_reported_before_any_run(self, tmp_path, monkeypatch,
                                                capsys, argv, message):
        (tmp_path / "broken.scenario").write_text("[run]\nn_tti = many\n")
        (tmp_path / "wide.scenario").write_text(
            "[scenario]\nbandwidth_mhz = 10\n")
        (tmp_path / "small.scenario").write_text(SMALL_SCENARIO)
        (tmp_path / "table.scenario").write_text(
            SMALL_SCENARIO + f"\n[radio]\ncqi_table_file = "
                             f"{tmp_path}/absent.csv\n")
        for name, radio in (("loud", "noise_figure_db = 1e6"),
                            ("faint", "tx_power_dbm = -1e6"),
                            ("extreme", "noise_figure_db = 1e308\n"
                                        "tx_power_dbm = -1e308"),
                            ("quiet", "noise_figure_db = -1"),
                            ("strong", "tx_power_dbm = 1e6")):
            (tmp_path / f"{name}.scenario").write_text(
                SMALL_SCENARIO + f"\n[radio]\n{radio}\n")
        for name, text in (("carrier", "[radio]\ncarrier_ghz = 1e300"),
                           ("sparse",
                            "[layout]\ninter_site_distance_m = 1e200"),
                           ("dense", "[radio]\nusable_re_per_rb = "
                                     "9223372036854775808")):
            (tmp_path / f"{name}.scenario").write_text(
                SMALL_SCENARIO + f"\n{text}\n")
        for bad in BAD_TABLES:
            (tmp_path / f"{bad}.scenario").write_text(
                SMALL_SCENARIO + "\n[radio]\ncqi_table_file = "
                + write_cqi_table(tmp_path / f"{bad}.csv", bad) + "\n")

        def no_run(cfg):
            raise AssertionError("a run started")
        monkeypatch.setattr(engine, "run", no_run)
        out = tmp_path / "out"
        argv = [a.format(d=tmp_path) for a in argv]
        if "--out" not in argv:
            argv += ["--out", str(out)]
        assert main(argv) == 2
        assert capsys.readouterr().err == (
            f"error: {message.format(d=tmp_path)}\n")
        assert not out.exists()

    @pytest.mark.parametrize("command", [
        ["run", "{d}/small.scenario"],
        ["compare", "--cqi", "fixed:3,fixed:4"]])
    def test_error_inside_a_run_propagates(self, tmp_path, monkeypatch,
                                           capsys, command):
        (tmp_path / "small.scenario").write_text(SMALL_SCENARIO)

        def failing_run(cfg):
            raise ValueError("inside the run")
        monkeypatch.setattr(engine, "run", failing_run)
        # One process, so the failing run is this process's.
        monkeypatch.setattr(channel, "usable_cpus", lambda: 1)
        argv = [a.format(d=tmp_path) for a in command]
        with pytest.raises(ValueError, match="inside the run"):
            main(argv + ["--out", str(tmp_path / "out")])
        assert "error:" not in capsys.readouterr().err


class TestCqiTableOverride:
    def test_scenario_field_roundtrip_and_effect(self, tmp_path):
        table = tmp_path / "table.csv"
        with open(table, "w") as fh:
            fh.write("index,modulation,efficiency,sinr_threshold_db\n")
            for k in range(1, 16):
                fh.write(f"{k},QPSK,{0.2 * k},{k - 8.0}\n")
        text = SMALL_SCENARIO + f"\n[radio]\ncqi_table_file = {table}\n"
        cfg = parse_scenario_text(text)
        assert cfg.cqi_table_file == str(table)
        assert cfg == replace(parse_scenario_text(SMALL_SCENARIO),
                              cqi_table_file=str(table))
        rec = engine.run(cfg)
        # CQI 3 efficiency 0.6 instead of 0.377 -> four reserved subframes
        assert rec.reserved_per_frame == 4
        from mbsfnsim.link import CQI_TABLE, cqi_efficiency
        assert cqi_efficiency(3, CQI_TABLE) == pytest.approx(0.377, abs=1e-4)

    def test_relative_table_file_is_read_next_to_the_scenario(
            self, tmp_path, monkeypatch, capsys):
        """`d/s.scenario` names `t.csv`, which lies in `d`, and `run` starts
        from the parent of `d`: the table is read from `d`, and the
        manifest records the path opened.  An absolute path is kept."""
        (tmp_path / "d").mkdir()
        table = write_cqi_table(tmp_path / "d" / "t.csv")
        (tmp_path / "d" / "s.scenario").write_text(
            SMALL_SCENARIO + "\n[radio]\ncqi_table_file = t.csv\n")
        (tmp_path / "d" / "abs.scenario").write_text(
            SMALL_SCENARIO + f"\n[radio]\ncqi_table_file = {table}\n")
        monkeypatch.chdir(tmp_path)
        assert main(["run", "d/s.scenario", "--out", "o"]) == 0
        assert capsys.readouterr().err == ""
        with open(tmp_path / "o" / "run_manifest.json") as fh:
            manifest = json.load(fh)
        assert manifest["config"]["cqi_table_file"] == os.path.join("d",
                                                                   "t.csv")
        assert load_scenario("d/abs.scenario").cqi_table_file == table
