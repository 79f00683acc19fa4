import importlib.util
import json
import os
import pathlib
import subprocess
import sys
from dataclasses import replace

import pytest

import linkbound as lb
from linkbound import cli, service
from linkbound.cli import (
    Scenario,
    ScenarioError,
    main,
    rows_to_csv,
    rows_to_json,
    run_scenario,
    scenario_hash,
)

REPO = pathlib.Path(__file__).resolve().parents[1]
BUNDLED_DIR = REPO / "scenarios"


def base_doc(**overrides):
    doc = {
        "channel": {
            "mean_snr_db": 25.0,
            "sigma_db": 8.0,
            "bandwidth_hz": 5e8,
            "slot_seconds": 1.0,
        },
        "arrival": {"rate_gbps": 1.0, "burst_bits": 0.0},
        "discretization": {"delta": 0.01},
        "query": {"kind": "backlog", "epsilons": [1e-1, 1e-2]},
        "sweep": {"axis": "none", "grid": []},
        "sim": {"enabled": False, "replications": 100, "seed": 3, "horizon_slots": 100},
    }
    doc.update(overrides)
    return doc


def link_budget(**overrides):
    budget = {
        "transmit_power_dbm": 0.0,
        "antenna_gain_tx_db": 20.0,
        "antenna_gain_rx_db": 20.0,
        "noise_density_dbm_per_mhz": -114.0,
        "bandwidth_hz": 5e8,
        "distance_m": 100.0,
        "pathloss_intercept_db": 70.0,
        "pathloss_exponent": 2.45,
    }
    budget.update(overrides)
    return budget


class TestScenarioParsing:
    def test_round_trip(self):
        sc = Scenario.from_dict(base_doc())
        assert Scenario.from_dict(sc.to_dict()) == sc

    def test_hash_stable(self):
        sc = Scenario.from_dict(base_doc())
        assert scenario_hash(sc) == scenario_hash(Scenario.from_dict(sc.to_dict()))

    def test_link_budget_channel(self):
        doc = base_doc()
        doc["channel"] = {"link_budget": link_budget(), "sigma_db": 8.0, "slot_seconds": 1.0}
        sc = Scenario.from_dict(doc)
        assert sc.mean_snr_db == pytest.approx(8.0103, abs=1e-4)
        assert sc.bandwidth_hz == 5e8

    def test_to_dict_shape(self):
        # scenario_hash, and with it every golden CSV header, hashes this
        # exact shape; every field here is off its default.
        doc = {
            "channel": {"mean_snr_db": 12.5, "sigma_db": 3.0, "bandwidth_hz": 2e8,
                        "slot_seconds": 0.5},
            "arrival": {"rate_gbps": 0.25, "burst_bits": 1000.0},
            "discretization": {"delta": 0.05},
            "query": {"kind": "delay", "epsilons": [1e-3, 1e-4]},
            "sweep": {"axis": "rate", "grid": [0.25, 0.5]},
            "sim": {"enabled": True, "replications": 200, "seed": 9, "horizon_slots": 300},
        }
        sc = Scenario.from_dict(doc)
        assert sc.to_dict() == doc
        assert scenario_hash(sc) == "22365080de100bc6"

    def test_empty_epsilons_rejected(self):
        doc = base_doc(query={"kind": "backlog", "epsilons": []})
        with pytest.raises(ScenarioError):
            Scenario.from_dict(doc)

    def test_bad_axis_rejected(self):
        doc = base_doc(sweep={"axis": "snr", "grid": [1.0]})
        with pytest.raises(ScenarioError):
            Scenario.from_dict(doc)

    def test_non_monotone_grid_rejected(self):
        doc = base_doc(sweep={"axis": "rate", "grid": [2.0, 1.0]})
        with pytest.raises(ScenarioError):
            Scenario.from_dict(doc)

    def test_bad_delta_rejected(self):
        doc = base_doc(discretization={"delta": "tiny"})
        with pytest.raises(ScenarioError):
            Scenario.from_dict(doc)

    def test_missing_section(self):
        doc = base_doc()
        del doc["arrival"]
        with pytest.raises(ScenarioError):
            Scenario.from_dict(doc)


class TestRunScenario:
    def test_row_grid_shape(self):
        doc = base_doc(sweep={"axis": "rate", "grid": [1.0, 2.0]})
        rows = run_scenario(Scenario.from_dict(doc))
        assert len(rows) == 4  # 2 sweep points x 2 epsilons
        assert [r.sweep_value for r in rows] == [1.0, 1.0, 2.0, 2.0]
        assert all(r.stable for r in rows)
        assert rows[0].bound < rows[2].bound  # higher rate, bigger backlog

    def test_epsilon_axis(self):
        doc = base_doc(sweep={"axis": "epsilon", "grid": [1e-3, 1e-2, 1e-1]})
        rows = run_scenario(Scenario.from_dict(doc))
        assert [r.epsilon for r in rows] == [1e-3, 1e-2, 1e-1]
        assert rows[0].bound >= rows[-1].bound

    def test_delay_units_seconds(self):
        doc = base_doc(
            query={"kind": "delay", "epsilons": [1e-3]},
        )
        doc["channel"]["slot_seconds"] = 0.5
        rows = run_scenario(Scenario.from_dict(doc))
        # Delay bounds are whole slots internally; seconds at the boundary.
        assert rows[0].bound % 0.5 == 0.0

    def test_deterministic_output(self):
        doc = base_doc(sweep={"axis": "rate", "grid": [1.0, 2.0]})
        doc["sim"] = {"enabled": True, "replications": 300, "seed": 5, "horizon_slots": 80}
        sc = Scenario.from_dict(doc)
        a = rows_to_csv(run_scenario(sc), sc)
        b = rows_to_csv(run_scenario(sc), sc)
        assert a == b

    def test_simulated_violation_columns(self):
        doc = base_doc()
        doc["sim"] = {"enabled": True, "replications": 500, "seed": 1, "horizon_slots": 100}
        rows = run_scenario(Scenario.from_dict(doc))
        for row in rows:
            assert row.violation is not None
            assert 0.0 <= row.violation <= 1.0
            assert row.violation_halfwidth > 0.0

    @pytest.mark.parametrize("kind, axis, grid", [
        ("backlog", "rate", [2.0, 3.5, 3.9]),
        ("delay", "sigma", [2.0, 5.0, 8.0]),
        ("delay", "gain", [24.0, 26.0]),
    ])
    def test_sweep_point_equals_point_alone(self, kind, axis, grid):
        # Every point replays the sweep's replication streams, so its
        # simulated columns are those of the point run as its own scenario.
        doc = base_doc(query={"kind": kind, "epsilons": [0.5, 1e-1]},
                       sweep={"axis": axis, "grid": grid},
                       discretization={"delta": "limit"})
        doc["arrival"]["rate_gbps"] = 3.5
        doc["sim"].update(enabled=True, replications=400, horizon_slots=300)
        sweep = Scenario.from_dict(doc)
        rows = run_scenario(sweep)
        assert any(row.violation for row in rows)
        attr = cli._AXIS_FIELDS[axis]
        for value in grid:
            alone = replace(sweep, sweep_axis="none", sweep_grid=(), **{attr: value})
            expected = [(r.violation, r.violation_halfwidth) for r in run_scenario(alone)]
            point = [(r.violation, r.violation_halfwidth) for r in rows if r.sweep_value == value]
            assert point == expected

    @pytest.mark.parametrize(
        "axis, grid, tables",
        [("rate", [0.1, 0.2, 0.3, 0.4], 1), ("sigma", [1.0, 1.5, 2.0], 3)],
    )
    def test_one_table_build_per_channel(self, monkeypatch, axis, grid, tables):
        # A rate sweep shares one service, so its table is built once; a
        # sigma sweep builds one table per point.
        builds = []
        real = service.StieltjesTable

        def counting(*args, **kwargs):
            builds.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(service, "StieltjesTable", counting)
        doc = base_doc(sweep={"axis": axis, "grid": grid})
        doc["channel"]["mean_snr_db"] = 10.0
        doc["channel"]["sigma_db"] = 2.0
        rows = run_scenario(Scenario.from_dict(doc))
        assert all(r.stable for r in rows)
        assert len(builds) == tables

    def test_unstable_point_row(self):
        doc = base_doc()
        doc["channel"]["sigma_db"] = 0.0
        doc["arrival"]["rate_gbps"] = 5.0  # beyond the 4.15 Gbps fixed capacity
        rows = run_scenario(Scenario.from_dict(doc))
        assert all(not r.stable for r in rows)
        assert all(r.bound is None for r in rows)


class TestOutputFormats:
    def test_csv_header(self):
        sc = Scenario.from_dict(base_doc())
        text = rows_to_csv(run_scenario(sc), sc)
        lines = text.splitlines()
        assert lines[0].startswith("# linkbound ")
        assert scenario_hash(sc) in lines[0]
        assert lines[1].startswith("sweep_axis,sweep_value,epsilon")
        assert len(lines) == 2 + 2

    def test_json_payload(self):
        sc = Scenario.from_dict(base_doc())
        doc = json.loads(rows_to_json(run_scenario(sc), sc))
        assert doc["tool"] == "linkbound"
        assert doc["scenario"] == scenario_hash(sc)
        assert len(doc["rows"]) == 2
        assert doc["rows"][0]["kind"] == "backlog"


class TestMain:
    def write_scenario(self, tmp_path, doc):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def test_happy_path(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path, base_doc())
        out = tmp_path / "rows.csv"
        code = main(["--scenario", path, "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith("# linkbound ")

    def test_epsilon_and_delta_overrides(self, tmp_path):
        path = self.write_scenario(tmp_path, base_doc())
        out = tmp_path / "rows.csv"
        code = main(
            ["--scenario", path, "--epsilon", "1e-3", "--delta", "limit", "--out", str(out)]
        )
        assert code == 0
        body = out.read_text().splitlines()
        assert len(body) == 3  # header comment + column row + one cell

    def test_parse_error_exit_code(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["--scenario", str(path)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_invalid_scenario_exit_code(self, tmp_path, capsys):
        doc = base_doc(query={"kind": "backlog", "epsilons": []})
        path = self.write_scenario(tmp_path, doc)
        assert main(["--scenario", str(path)]) == 2
        assert "epsilons" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "axis, grid",
        [("epsilon", [1e-3, 1.5]), ("sigma", [-1.0, 2.0]), ("rate", [-1.0, 1.0])],
    )
    def test_bad_sweep_value_exit_code(self, tmp_path, capsys, axis, grid):
        # Each grid value is validated as its own point before any bound runs.
        path = self.write_scenario(tmp_path, base_doc(sweep={"axis": axis, "grid": grid}))
        assert main(["--scenario", path]) == 2
        assert "error: sweep.grid value" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "axis, grid, message",
        [("rate", [-1.0, 1.0],
          "sweep.grid value -1.0: arrival.rate_gbps must be non-negative"),
         ("sigma", [-1.0, 2.0],
          "sweep.grid value -1.0: channel.sigma_db must be non-negative"),
         ("epsilon", [1e-3, 1.5],
          "sweep.grid value 1.5: epsilons must lie strictly between 0 and 1"),
         ("epsilon", [0.0, 0.1],
          "sweep.grid value 0.0: epsilons must lie strictly between 0 and 1"),
         ("gain", [20.0, float("nan")], "scenario numbers must be finite")],
        ids=["rate", "sigma", "epsilon-above", "epsilon-zero", "gain-nan"],
    )
    def test_sweep_value_error_message(self, tmp_path, capsys, axis, grid, message):
        # The whole line: the grid value, then the swept field's own rule. A
        # non-finite value fails the scenario-wide check and names no value.
        path = self.write_scenario(tmp_path, base_doc(sweep={"axis": axis, "grid": grid}))
        assert main(["--scenario", path]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "section, field, value",
        [("arrival", "rate_gbps", "fast"), ("channel", "sigma_db", None),
         ("query", "epsilons", 0.1), ("discretization", "delta", [0.01]),
         ("sim", "enabled", "false"), ("sim", "enabled", 1),
         ("sim", "replications", 2.7), ("sim", "seed", True),
         ("sim", "horizon_slots", 1.5),
         ("channel", "sigma_db", True), ("channel", "mean_snr_db", "25"),
         ("channel", "bandwidth_hz", False), ("channel", "slot_seconds", "1.0"),
         ("arrival", "rate_gbps", "1.0"), ("arrival", "burst_bits", True),
         ("discretization", "delta", True), ("query", "epsilons", [True]),
         ("query", "epsilons", ["0.1"]), ("sweep", "grid", [False]),
         ("sweep", "grid", ["1.0"]),
         pytest.param("channel", "sigma_db", 10**400, id="channel-sigma_db-huge_int")],
    )
    def test_malformed_field_exit_code(self, tmp_path, capsys, section, field, value):
        doc = base_doc()
        doc[section][field] = value
        path = self.write_scenario(tmp_path, doc)
        assert main(["--scenario", path]) == 2
        assert f"error: invalid field '{section}.{field}'" in capsys.readouterr().err

    @pytest.mark.parametrize("delta", ["limit", 0.01])
    def test_overflowing_mean_snr_exit_code(self, tmp_path, capsys, delta):
        # 4000 dB is a linear SNR of 1e400, past any float: the bundled rate
        # sweep at that gain once died with a raw OverflowError.
        doc = json.loads((BUNDLED_DIR / "backlog_tail_vs_rate.json").read_text())
        doc["channel"]["mean_snr_db"] = 4000.0
        doc["discretization"]["delta"] = delta
        doc["sim"]["enabled"] = False
        assert main(["--scenario", self.write_scenario(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == "error: channel.mean_snr_db must be at most 3080 dB\n"

    def test_overflowing_gain_sweep_value(self, tmp_path, capsys):
        path = self.write_scenario(
            tmp_path, base_doc(sweep={"axis": "gain", "grid": [25.0, 4000.0]}))
        assert main(["--scenario", path]) == 2
        assert capsys.readouterr().err == (
            "error: sweep.grid value 4000.0: channel.mean_snr_db must be at most 3080 dB\n")

    @pytest.mark.parametrize("value", [True, "100.0"])
    def test_malformed_link_budget_exit_code(self, tmp_path, capsys, value):
        doc = base_doc()
        doc["channel"] = {"link_budget": link_budget(distance_m=value), "sigma_db": 8.0}
        assert main(["--scenario", self.write_scenario(tmp_path, doc)]) == 2
        assert "error: invalid channel.link_budget" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key",
        [("channel", "slot_second"), ("arrival", "burst_bit"),
         ("discretization", "step_delta"), ("query", "epsilon"), ("sweep", "values"),
         ("sim", "replication")],
    )
    def test_unknown_key_exit_code(self, tmp_path, capsys, section, key):
        # A misspelled optional key is not read as its field's default.
        doc = base_doc()
        doc[section][key] = 1.0
        assert main(["--scenario", self.write_scenario(tmp_path, doc)]) == 2
        assert f"error: unknown field '{section}.{key}'" in capsys.readouterr().err

    def test_unknown_section_exit_code(self, tmp_path, capsys):
        doc = base_doc(discretisation={"delta": 0.5})
        assert main(["--scenario", self.write_scenario(tmp_path, doc)]) == 2
        assert "error: unknown section 'discretisation'" in capsys.readouterr().err

    def test_unknown_link_budget_key_exit_code(self, tmp_path, capsys):
        doc = base_doc()
        doc["channel"] = {"link_budget": link_budget(distance=50.0), "sigma_db": 8.0}
        assert main(["--scenario", self.write_scenario(tmp_path, doc)]) == 2
        assert ("error: unknown field 'channel.link_budget.distance'"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("key, value", [("mean_snr_db", 40.0), ("bandwidth_hz", 1e9)])
    def test_link_budget_conflict_exit_code(self, tmp_path, capsys, key, value):
        # The budget used to win silently: mean_snr_db 40 ran at 8.01 dB.
        doc = base_doc()
        doc["channel"] = {"link_budget": link_budget(), "sigma_db": 8.0, key: value}
        assert main(["--scenario", self.write_scenario(tmp_path, doc)]) == 2
        assert (f"error: channel.link_budget conflicts with channel.{key}"
                in capsys.readouterr().err)

    def test_non_utf8_scenario_exit_code(self, tmp_path, capsys):
        path = tmp_path / "latin1.json"
        doc = base_doc()
        doc["query"]["kind"] = "d\u00e9lai"
        path.write_bytes(json.dumps(doc, ensure_ascii=False).encode("latin-1"))
        assert main(["--scenario", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot read scenario:") and err.count("\n") == 1

    def test_unwritable_out_exit_code(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path, base_doc())
        out = tmp_path / "missing" / "rows.csv"
        assert main(["--scenario", path, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: cannot write output:") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "delta, message",
        [("abc", "error: bad --delta"), ("nan", "error: scenario numbers must be finite")],
    )
    def test_malformed_delta_flag_exit_code(self, tmp_path, capsys, delta, message):
        path = self.write_scenario(tmp_path, base_doc())
        assert main(["--scenario", path, "--delta", delta]) == 2
        assert message in capsys.readouterr().err

    def test_repeated_epsilon_exit_code(self, tmp_path, capsys):
        # Rejected, not answered with the same row twice; 1e-3 and 0.001 are one value.
        path = self.write_scenario(tmp_path, base_doc())
        assert main(["--scenario", path, "--epsilon", "1e-3,0.001"]) == 2
        doc = base_doc(query={"kind": "backlog", "epsilons": [1e-1, 1e-2, 1e-1]})
        assert main(["--scenario", self.write_scenario(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert err.splitlines() == ["error: query.epsilons must not repeat a value"] * 2

    def test_negative_seed_exit_code(self, tmp_path, capsys):
        # Rejected before any bound runs, not by the simulator's seeding.
        path = self.write_scenario(tmp_path, base_doc())
        assert main(["--scenario", path, "--simulate", "--seed", "-1"]) == 2
        doc = base_doc()
        doc["sim"]["seed"] = -1
        assert main(["--scenario", self.write_scenario(tmp_path, doc)]) == 2
        assert capsys.readouterr().err.count("error: sim.seed must be non-negative") == 2

    @pytest.mark.parametrize(
        "field, value", [("seed", -1), ("replications", 0), ("horizon_slots", 0)]
    )
    def test_sim_error_names_no_sweep_point(self, tmp_path, capsys, field, value):
        # A scenario-wide sim field is not blamed on the first grid value.
        doc = base_doc(sweep={"axis": "rate", "grid": [1.0, 2.0]})
        doc["sim"][field] = value
        assert main(["--scenario", self.write_scenario(tmp_path, doc)]) == 2
        err = capsys.readouterr().err
        assert f"error: sim.{field} must be" in err
        assert "sweep.grid value" not in err

    @pytest.mark.parametrize("where", ["flag", "field"])
    def test_replications_beyond_spawn_word_exit_code(self, tmp_path, capsys, where):
        # 2^32 + 1 replications would need a second spawn word; rejected
        # before any bound runs.
        doc = base_doc()
        doc["sim"]["enabled"] = True
        flags = []
        if where == "flag":
            flags = ["--replications", str(2**32 + 1)]
        else:
            doc["sim"]["replications"] = 2**32 + 1
        assert main(["--scenario", self.write_scenario(tmp_path, doc), *flags]) == 2
        err = capsys.readouterr().err
        assert err == "error: sim.replications must be between 1 and 4294967296\n"

    def test_non_finite_and_non_object_scenarios_exit_code(self, tmp_path, capsys):
        doc = base_doc()
        doc["channel"]["sigma_db"] = float("nan")
        assert main(["--scenario", self.write_scenario(tmp_path, doc)]) == 2
        assert main(["--scenario", self.write_scenario(tmp_path, [base_doc()])]) == 2
        err = capsys.readouterr().err
        assert "error: scenario numbers must be finite" in err
        assert "error: a scenario must be a JSON object" in err

    def test_out_opened_before_run(self, tmp_path, capsys, monkeypatch):
        # An unwritable --out fails before any bound is computed.
        def unreachable(scenario):
            raise AssertionError("run_scenario was called")

        monkeypatch.setattr(cli, "run_scenario", unreachable)
        path = self.write_scenario(tmp_path, base_doc())
        out = tmp_path / "missing" / "rows.csv"
        assert main(["--scenario", path, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: cannot write output:")

    @pytest.mark.parametrize(
        "axis, grid, warning",
        [("rate", [1.0, 5.0], "warning: sweep point rate=5.0 is unstable"),
         ("none", [], "warning: the scenario is unstable")],
    )
    def test_one_warning_per_unstable_point(self, tmp_path, capsys, axis, grid, warning):
        doc = base_doc(sweep={"axis": axis, "grid": grid},
                       query={"kind": "backlog", "epsilons": [1e-1, 1e-2, 1e-3]})
        doc["channel"]["sigma_db"] = 0.0
        doc["arrival"]["rate_gbps"] = 5.0  # beyond the 4.15 Gbps fixed capacity
        out = tmp_path / "rows.csv"
        assert main(["--scenario", self.write_scenario(tmp_path, doc), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith(warning), lines

    def test_deterministic_link_oracle(self, tmp_path, capsys):
        # At 25 dB with no shadowing the link carries 4.15 Gbps in every
        # slot: 1 and 3 Gbps never queue, and 5 Gbps is unstable.
        doc = base_doc(sweep={"axis": "rate", "grid": [1.0, 3.0, 5.0]},
                       query={"kind": "backlog", "epsilons": [1e-3, 1e-6]})
        doc["channel"]["sigma_db"] = 0.0
        doc["sim"].update(enabled=True, replications=2000)
        path = self.write_scenario(tmp_path, doc)
        assert main(["--scenario", path, "--format", "json"]) == 1
        rows = json.loads(capsys.readouterr().out)["rows"]
        stable = [r for r in rows if r["sweep_value"] < 5.0]
        assert len(stable) == 4
        for row in stable:
            assert row["stable"] and row["theta_upper"] == 100.0
            assert 0.0 <= row["bound"] <= 1.0
            assert row["violation"] == 0.0
        assert [r["stable"] for r in rows if r["sweep_value"] == 5.0] == [False, False]

    def test_one_warning_per_capped_point(self, tmp_path, capsys, monkeypatch):
        # No row reaches the cap at first. A 6-slot cap then stops rows of
        # both 1 ms delay walks before their first passage; each point gets
        # one warning, the table is that of a run without warnings, and the
        # exit code stays 0.
        from linkbound import simulator

        doc = base_doc(sweep={"axis": "rate", "grid": [1.0, 3.6]},
                       query={"kind": "delay", "epsilons": [1e-1, 1e-3]},
                       discretization={"delta": "limit"})
        doc["channel"]["slot_seconds"] = 1e-3
        doc["sim"].update(enabled=True, replications=500)
        path, out = self.write_scenario(tmp_path, doc), tmp_path / "rows.csv"
        assert main(["--scenario", path, "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        monkeypatch.setattr(simulator, "DELAY_SEARCH_CAP", 6)
        monkeypatch.setattr(cli, "DELAY_SEARCH_CAP", 6)
        assert main(["--scenario", path, "--out", str(out)]) == 0
        lines = capsys.readouterr().err.splitlines()
        suffix = " of 500 replications reached the 6-slot cap; its violation estimates err high"
        assert len(lines) == 2, lines
        for line, rate in zip(lines, ("1.0", "3.6")):
            prefix = f"warning: sweep point rate={rate}: "
            assert line.startswith(prefix) and line.endswith(suffix)
            assert 0 < int(line[len(prefix):-len(suffix)]) <= 500
        sc = Scenario.from_dict(doc)
        assert out.read_text() == rows_to_csv(run_scenario(sc), sc)

    def test_fine_step(self, tmp_path, capsys):
        # With no term cap a step of 1e-9 still reaches the tail cut; 1e-12
        # needs more cells than float indices resolve, and fails at once.
        path = str(BUNDLED_DIR / "backlog_vs_rate_fine.json")
        out = tmp_path / "rows.csv"
        assert main(["--scenario", path, "--delta", "1e-9", "--out", str(out)]) == 0
        rows = out.read_text().splitlines()[2:]
        assert len(rows) == 6 and all(row.split(",")[4] == "1" for row in rows)
        assert capsys.readouterr().err == ""
        assert main(["--scenario", path, "--delta", "1e-12", "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: grid step 1e-12 is too fine") and err.count("\n") == 1

    def test_delay_past_the_slot_cap_exit_code(self, tmp_path, capsys):
        # A burst of 1e308 bits at 1 Gbps needs more than the delay
        # search's 2^40 slots: one error line, not a traceback.
        doc = base_doc(arrival={"rate_gbps": 1.0, "burst_bits": 1e308},
                       discretization={"delta": "limit"},
                       query={"kind": "delay", "epsilons": [0.01]})
        assert main(["--scenario", self.write_scenario(tmp_path, doc)]) == 2
        assert capsys.readouterr().err == (
            "error: delay search exceeded 2^40 slots; epsilon unreachable\n")

    @pytest.mark.parametrize("bandwidth_hz, slot_seconds", [(1e308, 1.0), (1e300, 1e10)])
    def test_exponent_overflow_names_its_fields(self, tmp_path, capsys, bandwidth_hz,
                                                slot_seconds):
        # theta * bits_per_nat overflows at the theta cap of 100, where
        # neither mode's factor is defined (the table's sum would pass
        # through a NaN); the error names the fields.
        for delta in ("limit", 0.01):
            doc = base_doc(discretization={"delta": delta})
            doc["channel"].update(bandwidth_hz=bandwidth_hz, slot_seconds=slot_seconds)
            assert main(["--scenario", self.write_scenario(tmp_path, doc)]) == 2
            assert capsys.readouterr().err == (
                "error: channel.bandwidth_hz * channel.slot_seconds is too large: "
                "the exponent at theta = 100 overflows\n"), delta
            doc["channel"].update(bandwidth_hz=1e306, slot_seconds=1.0)
            out = tmp_path / "rows.csv"
            assert main(["--scenario", self.write_scenario(tmp_path, doc), "--out", str(out)]) == 0
            assert capsys.readouterr().err == ""

    def test_unstable_exit_code(self, tmp_path, capsys):
        doc = base_doc()
        doc["channel"]["sigma_db"] = 0.0
        doc["arrival"]["rate_gbps"] = 5.0
        path = self.write_scenario(tmp_path, doc)
        out = tmp_path / "rows.csv"
        assert main(["--scenario", path, "--out", str(out)]) == 1
        assert "unstable" in capsys.readouterr().err

    def test_json_format_stdout(self, tmp_path, capsys):
        path = self.write_scenario(tmp_path, base_doc())
        assert main(["--scenario", path, "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tool"] == "linkbound"

    def test_json_is_strict_for_zero_rate(self, tmp_path, capsys):
        # A zero-rate backlog row has an infinite optimal theta and edge.
        doc = base_doc(arrival={"rate_gbps": 0.0, "burst_bits": 0.0},
                       discretization={"delta": "limit"})
        path = self.write_scenario(tmp_path, doc)
        assert main(["--scenario", path, "--format", "json"]) == 0

        def reject(token):
            raise ValueError(f"non-standard JSON constant {token}")

        out = json.loads(capsys.readouterr().out, parse_constant=reject)
        for row in out["rows"]:
            assert row["optimal_theta"] == row["theta_upper"] == "inf"


BUNDLED = sorted(BUNDLED_DIR.glob("*.json"))


def test_bundled_scenarios_parse():
    assert BUNDLED, "bundled scenario files missing"
    for f in BUNDLED:
        sc = Scenario.from_dict(json.loads(f.read_text()))
        assert Scenario.from_dict(sc.to_dict()) == sc


def _assert_discretized_dominates_limit(doc):
    """Every stable discretized bound is at least its exact-mode counterpart."""
    sc = replace(Scenario.from_dict(doc), simulate=False)
    if sc.delta == "limit":
        sc = replace(sc, delta=0.01)
    disc_rows = run_scenario(sc)
    limit_rows = run_scenario(replace(sc, delta="limit"))
    for disc, limit in zip(disc_rows, limit_rows, strict=True):
        if disc.stable:
            assert limit.stable and disc.bound >= limit.bound, (disc, limit)


@pytest.mark.parametrize("path", BUNDLED, ids=lambda p: p.stem)
def test_bundled_discretized_bounds_dominate_limit_mode(path):
    # Scenarios that ship in limit mode run at the default step instead.
    _assert_discretized_dominates_limit(json.loads(path.read_text()))


def test_bench_templates_discretized_bounds_dominate_limit_mode():
    # The first cycle of the benchmark plan holds one request of each bound
    # template; the benchmark itself checks dominance on two requests only.
    spec = importlib.util.spec_from_file_location("workloads", REPO / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    for doc in workloads.plan_for("bounds-discretized", 1)[:len(workloads.BOUND_TEMPLATES)]:
        _assert_discretized_dominates_limit(doc)


_SCIPY_PROBE = """\
import sys
import linkbound as lb
import linkbound.cli

def scipy_modules():
    return sorted(name for name in sys.modules if name.split(".")[0] == "scipy")

print("concurrent.futures" in sys.modules)
print(scipy_modules())
env = lb.AffineEnvelope(burst_bits=0.0, rate_bits_per_slot=1e9)
channel = lb.ShadowingChannel(25.0, 8.0, 5e8)
exact = lb.ServiceCharacterization(channel, exact=True)
lb.backlog_bound(env, exact, lb.BoundQuery(epsilon=1e-3, kind="backlog"))
lb.delay_bound(env, exact, lb.BoundQuery(epsilon=1e-3, kind="delay"))
lb.run_experiment(env, channel, lb.SimConfig(horizon_slots=100, replications=200))
lb.stationary_tails([(env, channel)], "delay", [[1.0]], 200, 0)
print(scipy_modules())
grid = lb.ServiceCharacterization(channel, lb.DiscretizationConfig(step_delta=0.01))
lb.backlog_bound(env, grid, lb.BoundQuery(epsilon=1e-3, kind="backlog"))
print("scipy.special" in sys.modules, "scipy.optimize" in sys.modules)
"""


def test_import_loads_no_scipy_optimize():
    # A fresh interpreter: importing the CLI loads no concurrent.futures,
    # which the simulator imports only when it first starts its block
    # pool. Importing the CLI, exact-mode bounds and both simulator entry
    # points load no scipy module; the first CDF evaluation, here a
    # delta = 0.01 bound, loads scipy.special and still not scipy.optimize.
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(pathlib.Path(lb.__file__).parents[1]), os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _SCIPY_PROBE], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.splitlines() == ["False", "[]", "[]", "True False"]
