import csv
import json
import math
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import capns.cli
from capns.cli import CAUSE_CODES, main
from capns.diagnostics import CSV_COLUMNS
from capns.errors import NumericBlowup
from capns.fields import Grid
from capns.model import PhysParams
from capns.solver import SolverConfig

README = Path(__file__).resolve().parents[1] / "README.md"

EXIT_OK = CAUSE_CODES["ok"]
EXIT_BAD_CONFIG = CAUSE_CODES["invalid_config"]
EXIT_VACUUM = CAUSE_CODES["vacuum_breach"]
EXIT_NO_CONTRACTION = CAUSE_CODES["non_contraction"]


def write_ini(path, sections):
    lines = []
    for name, kv in sections.items():
        lines.append(f"[{name}]")
        lines.extend(f"{k} = {v}" for k, v in kv.items())
        lines.append("")
    path.write_text("\n".join(lines))
    return str(path)


def base_sections(**overrides):
    sections = {
        "grid": {"dim": 1, "n": 64},
        "physics": {"mu": 0.15, "kappa": 0.0225},
        "solver": {"dt": 1e-3, "t_end": 0.02, "diag_stride": 5},
        "initial": {"preset": "smooth_bump", "amplitude": 0.1},
    }
    for key, kv in overrides.items():
        sections.setdefault(key, {}).update(kv)
    return sections


class TestRunCommand:
    def test_equilibrium_all_verdicts_pass(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini",
                        base_sections(initial={"preset": "equilibrium"}))
        csv_path = tmp_path / "out.csv"
        json_path = tmp_path / "out.json"
        code = main(["run", "--config", cfg, "--csv", str(csv_path),
                     "--json", str(json_path)])
        assert code == EXIT_OK
        summary = json.loads(json_path.read_text())
        assert summary["cause"] == "ok"
        assert summary["energy_check"]["ok"]
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["energy"]) == 0.0 for r in rows)

    def test_csv_schema_and_summary(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", base_sections())
        csv_path = tmp_path / "series.csv"
        json_path = tmp_path / "summary.json"
        code = main(["run", "--config", cfg, "--csv", str(csv_path),
                     "--json", str(json_path)])
        assert code == EXIT_OK
        with open(csv_path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_COLUMNS)
        # t = 0, strides at 5e-3 intervals, final
        assert len(rows) - 1 == 5
        summary = json.loads(json_path.read_text())
        assert summary["mass_drift"] < 1e-10
        assert summary["lp_gain"]["4"]["verdict"] is True
        assert summary["steps"] == 20

    @pytest.mark.parametrize("dim,n", [(1, 32), (2, 16)])
    def test_overflowing_records_warn_nothing(self, tmp_path, capsys, dim, n):
        # at rho_bar = 1e300 the records' squares overflow: the run ends on
        # the non-finite statistic, and numpy warns nothing, since the first
        # and the last records run inside the run's errstate too
        cfg = write_ini(tmp_path / "c.ini", base_sections(
            grid={"dim": dim, "n": n}, physics={"rho_bar": 1e300},
            solver={"dt": 1e-3, "t_end": 2e-3, "diag_stride": 1}))
        json_path = tmp_path / "o.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["run", "--config", cfg, "--csv", str(tmp_path / "s.csv"),
                         "--json", str(json_path)])
        summary = json.loads(json_path.read_text())
        assert code == CAUSE_CODES["check_failed"]
        assert summary["cause"] == "check_failed"
        assert summary["energy_check"]["detail"] == "non-finite statistic at t=0.001"
        assert capsys.readouterr().err == ""

    def test_byte_identical_reruns(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", base_sections(
            solver={"diag_stride": 1},
            initial={"preset": "random_bandlimited", "amplitude": 0.2,
                     "seed": 42}))
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["run", "--config", cfg, "--csv", str(a)]) == EXIT_OK
        assert main(["run", "--config", cfg, "--csv", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_dt_above_ceiling_rejected_before_running(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "c.ini", base_sections(
            solver={"dt": 0.1, "t_end": 0.2}))
        csv_path = tmp_path / "never.csv"
        code = main(["run", "--config", cfg, "--csv", str(csv_path)])
        assert code == EXIT_BAD_CONFIG
        assert not csv_path.exists()
        assert "solver.dt" in capsys.readouterr().out

    @pytest.mark.parametrize("t_end", [0.0, 0.005])
    def test_effective_below_quantum_rejected_before_running(self, tmp_path, capsys, t_end):
        # kappa < mu^2 has no effective formulation: a config error naming
        # its key, before any step and also when no step is taken
        cfg = write_ini(tmp_path / "c.ini", base_sections(
            physics={"kappa": 0.01}, solver={"formulation": "effective", "t_end": t_end}))
        csv_path, json_path = tmp_path / "never.csv", tmp_path / "out.json"
        code = main(["run", "--config", cfg, "--csv", str(csv_path),
                     "--json", str(json_path)])
        assert code == EXIT_BAD_CONFIG
        assert not csv_path.exists()
        assert json.loads(json_path.read_text())["errors"] == [
            "solver.formulation: effective formulation requires kappa >= mu^2, "
            "got kappa = 0.01, mu^2 = 0.0225"]
        assert "config error: solver.formulation: " in capsys.readouterr().out

    def test_negative_seed_rejected(self, tmp_path, capsys):
        # a negative seed used to end in a ValueError traceback from the
        # random generator, with exit 1 and no payload
        cfg = write_ini(tmp_path / "c.ini", base_sections(
            initial={"preset": "random_bandlimited", "amplitude": 0.05, "seed": -1}))
        json_path = tmp_path / "out.json"
        assert main(["run", "--config", cfg, "--json", str(json_path)]) == EXIT_BAD_CONFIG
        payload = json.loads(json_path.read_text())
        assert payload["cause"] == "invalid_config"
        assert payload["errors"] == ["initial: seed must be a non-negative integer, got -1"]
        assert "config error: initial: seed" in capsys.readouterr().out

    def test_infinite_c_stab_rejected(self, tmp_path, capsys):
        # an infinite c_stab would lift the stability ceiling altogether
        cfg = write_ini(tmp_path / "c.ini", base_sections(solver={"c_stab": "inf"}))
        json_path = tmp_path / "out.json"
        assert main(["run", "--config", cfg, "--json", str(json_path)]) == EXIT_BAD_CONFIG
        assert json.loads(json_path.read_text())["cause"] == "invalid_config"
        assert "c_stab must be positive and finite" in capsys.readouterr().out

    def test_field_level_errors(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "c.ini", {
            "grid": {"dim": 1, "n": "many"},
            "solver": {"dt": 1e-3, "t_end": "soon", "mystery": 1},
            "nonsense": {"a": 1},
            "initial": {"preset": "equilibrium"},
        })
        code = main(["run", "--config", cfg])
        assert code == EXIT_BAD_CONFIG
        out = capsys.readouterr().out
        for fragment in ("grid.n", "solver.t_end", "solver.mystery", "nonsense"):
            assert fragment in out

    def test_freeze_advection_not_a_config_key(self, tmp_path, capsys):
        # freeze_advection is a testing hook of the library (frozen transport
        # cannot conserve mass); dealias is no option, the 2/3 rule always holds
        for key in ("freeze_advection", "dealias"):
            cfg = write_ini(tmp_path / "c.ini", base_sections(
                solver={"formulation": "effective", key: "true"}))
            assert main(["run", "--config", cfg]) == EXIT_BAD_CONFIG
            assert f"solver.{key}: unknown key" in capsys.readouterr().out

    def test_missing_config_file(self, tmp_path):
        # a file that cannot be read is the one error: no key of the
        # [solver] section it never supplied is reported as missing
        cfg = tmp_path / "absent.ini"
        json_path = tmp_path / "out.json"
        assert main(["run", "--config", str(cfg), "--json", str(json_path)]) \
            == EXIT_BAD_CONFIG
        with pytest.raises(OSError) as ex:
            open(cfg)
        assert json.loads(json_path.read_text())["errors"] \
            == [f"config: cannot read {cfg}: {ex.value}"]

    @pytest.mark.parametrize("command", ["run", "lifespan", "picard", "besov"])
    def test_config_that_is_not_utf8_text(self, tmp_path, capsys, command):
        # bytes that do not decode are a config that cannot be read, as a
        # missing file is: exit 2 with its payload, not a traceback
        cfg = tmp_path / "bad.ini"
        cfg.write_bytes(b"\xff\xfe[grid]\nn = 64\n")
        json_path = tmp_path / "out.json"
        assert main([command, "--config", str(cfg), "--json", str(json_path)]) \
            == EXIT_BAD_CONFIG
        payload = json.loads(json_path.read_text())
        assert payload["cause"] == "invalid_config"
        with pytest.raises(UnicodeDecodeError) as ex:
            cfg.read_text(encoding="utf-8")
        assert payload["errors"] == [f"config: cannot read {cfg}: {ex.value}"]
        assert f"config error: config: cannot read {cfg}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", ["run", "lifespan", "picard", "besov"])
    def test_unparseable_config_is_the_one_error(self, tmp_path, command):
        cfg = tmp_path / "bad.ini"
        cfg.write_text("[grid]\nn = 64\n[[solver\n")
        json_path = tmp_path / "out.json"
        assert main([command, "--config", str(cfg), "--json", str(json_path)]) \
            == EXIT_BAD_CONFIG
        errors = json.loads(json_path.read_text())["errors"]
        assert len(errors) == 1 and errors[0].startswith("config: parse failure: ")

    def test_unreadable_config_stays_in_payload_without_json(self, tmp_path, capsys):
        # the JSON path cannot be opened either: the payload goes to stdout
        # and still names the config first
        cfg = tmp_path / "absent.ini"
        assert main(["run", "--config", str(cfg), "--json",
                     str(tmp_path / "absent" / "o.json")]) == EXIT_BAD_CONFIG
        out = capsys.readouterr().out
        errors = json.loads(out[out.index("{"):])["errors"]
        assert [e.split(":")[0] for e in errors] == ["config", "output.json"]
        assert errors[0].startswith(f"config: cannot read {cfg}: ")

    def test_vacuum_breach_cause(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", base_sections(
            solver={"vacuum_floor": 0.9, "t_end": 0.01},
            initial={"preset": "near_vacuum", "delta": 0.05}))
        json_path = tmp_path / "out.json"
        code = main(["run", "--config", cfg, "--json", str(json_path)])
        assert code == EXIT_VACUUM
        summary = json.loads(json_path.read_text())
        assert summary["cause"] == "vacuum_breach"
        assert summary["min_rho"] < 0.9
        assert CAUSE_CODES[summary["cause"]] == EXIT_VACUUM

    def test_effective_formulation_run(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", base_sections(
            solver={"formulation": "effective"}))
        json_path = tmp_path / "out.json"
        code = main(["run", "--config", cfg, "--csv",
                     str(tmp_path / "e.csv"), "--json", str(json_path)])
        assert code == EXIT_OK
        assert json.loads(json_path.read_text())["energy_check"]["ok"]

    @pytest.mark.parametrize("target", ["csv", "json"])
    def test_unwritable_output_is_invalid_config(self, tmp_path, capsys, target):
        cfg = write_ini(tmp_path / "c.ini", base_sections())
        paths = {"csv": tmp_path / "s.csv", "json": tmp_path / "out.json"}
        paths[target] = tmp_path / "absent" / f"x.{target}"
        assert main(["run", "--config", cfg, "--csv", str(paths["csv"]),
                     "--json", str(paths["json"])]) == EXIT_BAD_CONFIG
        out = capsys.readouterr().out
        assert f"config error: output.{target}: cannot write" in out
        # with no JSON file to take it, the payload goes to stdout
        text = paths["json"].read_text() if target == "csv" else out[out.index("{"):]
        payload = json.loads(text)
        assert payload["cause"] == "invalid_config"
        assert payload["errors"][0].startswith(f"output.{target}: cannot write")

    @pytest.mark.parametrize("source", ["flag", "ini"])
    def test_unwritable_json_is_found_before_the_run(self, tmp_path, capsys, source):
        # the JSON path is checked with the config: the run never starts,
        # so no CSV is written, and the payload goes to stdout
        json_path = str(tmp_path / "absent" / "o.json")
        csv_path = tmp_path / "series.csv"
        sections = base_sections(output={"csv": csv_path})
        argv = ["--json", json_path] if source == "flag" else []
        if source == "ini":
            sections["output"]["json"] = json_path
        cfg = write_ini(tmp_path / "c.ini", sections)
        assert main(["run", "--config", cfg, *argv]) == EXIT_BAD_CONFIG
        out = capsys.readouterr().out
        assert not csv_path.exists()
        assert "wrote" not in out
        assert out.count("config error: output.json: cannot write") == 1
        payload = json.loads(out[out.index("{"):])
        assert payload["cause"] == "invalid_config"
        assert payload["errors"] == [line[len("config error: "):]
                                     for line in out.splitlines()
                                     if line.startswith("config error: ")]

    @pytest.mark.parametrize("source", ["flag", "ini", "link"])
    def test_one_file_for_both_outputs(self, tmp_path, monkeypatch, capsys, source):
        # the paths are compared as resolved ones, so same.out, ./same.out
        # and link.out -> same.out are one file; the run never starts, and
        # that file holds the invalid_config payload instead of a CSV
        # overwritten
        monkeypatch.chdir(tmp_path)
        csv_path = "same.out"
        if source == "link":
            csv_path = "link.out"
            (tmp_path / "same.out").write_text("old\n")
            (tmp_path / "link.out").symlink_to("same.out")
        sections = base_sections()
        argv = ["--csv", csv_path, "--json", "./same.out"]
        if source == "ini":
            sections["output"], argv = {"csv": csv_path, "json": "./same.out"}, []
        assert main(["run", "--config", write_ini(tmp_path / "c.ini", sections),
                     *argv]) == EXIT_BAD_CONFIG
        assert f"wrote {csv_path} (" not in capsys.readouterr().out
        payload = json.loads((tmp_path / "same.out").read_text())
        assert payload["errors"] == [f"output: csv and json name one file: {csv_path}"]

    def test_all_output_and_config_errors_reported_at_once(self, tmp_path, capsys):
        absent = tmp_path / "absent"
        cfg = write_ini(tmp_path / "c.ini", base_sections(physics={"mu": -1}))
        assert main(["run", "--config", cfg, "--csv", str(absent / "s.csv"),
                     "--json", str(absent / "o.json")]) == EXIT_BAD_CONFIG
        out = capsys.readouterr().out
        errors = json.loads(out[out.index("{"):])["errors"]
        assert [e.split(":")[0] for e in errors] == ["physics", "output.json", "output.csv"]
        assert not absent.exists()

    def test_output_probe_leaves_no_file(self, tmp_path):
        # a config error stops the run after the probe; the probe's own
        # files are gone, and an existing file keeps its content
        csv_path = tmp_path / "series.csv"
        json_path = tmp_path / "o.json"
        csv_path.write_text("kept\n")
        cfg = write_ini(tmp_path / "c.ini", base_sections(physics={"mu": -1}))
        assert main(["run", "--config", cfg, "--csv", str(csv_path),
                     "--json", str(json_path)]) == EXIT_BAD_CONFIG
        assert csv_path.read_text() == "kept\n"
        assert json.loads(json_path.read_text())["cause"] == "invalid_config"
        json_path.unlink()
        csv_path.unlink()
        assert main(["run", "--config", cfg, "--csv", str(csv_path)]) == EXIT_BAD_CONFIG
        assert not csv_path.exists()

    @pytest.mark.parametrize("target", ["csv", "json"])
    def test_dangling_link_output_stays_a_link(self, tmp_path, target):
        # the probe of a link to a missing file removes the file it made,
        # the link's target, and a run writes through the link
        link, missing = tmp_path / f"link.{target}", tmp_path / f"missing.{target}"
        link.symlink_to(missing.name)
        paths = {"csv": tmp_path / "s.csv", "json": tmp_path / "o.json", target: link}
        argv = ["--csv", str(paths["csv"]), "--json", str(paths["json"])]
        bad = write_ini(tmp_path / "bad.ini", base_sections(physics={"mu": -1}))
        assert main(["run", "--config", bad, *argv]) == EXIT_BAD_CONFIG
        # only the invalid_config payload is written
        assert link.is_symlink() and missing.exists() == (target == "json")
        cfg = write_ini(tmp_path / "c.ini", base_sections())
        assert main(["run", "--config", cfg, *argv]) == EXIT_OK
        assert link.is_symlink() and link.readlink() == Path(missing.name)
        text = missing.read_text()
        if target == "csv":
            assert next(csv.reader([text.splitlines()[0]])) == list(CSV_COLUMNS)
        else:
            assert json.loads(text)["cause"] == "ok"


class TestVerifyCommand:
    def test_single_suite(self, tmp_path, capsys):
        json_path = tmp_path / "v.json"
        code = main(["verify", "--suite", "degiorgi", "--json", str(json_path)])
        assert code == EXIT_OK
        assert "[PASS] degiorgi:" in capsys.readouterr().out
        payload = json.loads(json_path.read_text())
        assert payload["cause"] == "ok"
        assert payload["suites"][0]["ok"] is True
        # its saturation cases compare numpy floats: the verdicts stay booleans
        assert all(c["passed"] is True for c in payload["suites"][0]["cases"])

    def test_bony_suite(self, capsys):
        assert main(["verify", "--suite", "bony"]) == EXIT_OK
        assert "FAIL" not in capsys.readouterr().out


class TestLifespanCommand:
    def test_equilibrium_window_branch(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", base_sections(
            initial={"preset": "equilibrium"}, lifespan={"C1": 0.8}))
        json_path = tmp_path / "l.json"
        assert main(["lifespan", "--config", cfg, "--json", str(json_path)]) \
            == EXIT_OK
        rep = json.loads(json_path.read_text())
        assert rep["active_branch"] == "iteration_window"
        assert rep["lower_bound"] == 0.2
        assert rep["preset"] == "equilibrium"

    def test_monotone_in_amplitude(self, tmp_path):
        bounds = {}
        for amp in (0.1, 0.2):
            cfg = write_ini(tmp_path / f"c{amp}.ini", base_sections(
                initial={"preset": "smooth_bump", "amplitude": amp}))
            json_path = tmp_path / f"l{amp}.json"
            assert main(["lifespan", "--config", cfg, "--json",
                         str(json_path)]) == EXIT_OK
            bounds[amp] = json.loads(json_path.read_text())["lower_bound"]
        assert bounds[0.1] >= bounds[0.2]

    def test_schedule_included(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", base_sections(
            initial={"preset": "equilibrium"},
            lifespan={"C1": 1.0, "horizon": 0.6}))
        json_path = tmp_path / "l.json"
        assert main(["lifespan", "--config", cfg, "--json", str(json_path)]) \
            == EXIT_OK
        sched = json.loads(json_path.read_text())["schedule"]
        times = [t for t, _ in sched]
        assert times == pytest.approx([0.0, 0.125, 0.25, 0.375, 0.5])

    @pytest.mark.parametrize("schedule,line", [
        ({"horizon": 0.01, "fraction": 2}, "lifespan: fraction must lie in (0, 1], got 2.0"),
        ({"horizon": -1}, "lifespan: horizon must be finite and >= 0, got -1.0"),
        # the schedule keys are checked without a horizon too
        ({"fraction": 2}, "lifespan: fraction must lie in (0, 1], got 2.0"),
    ], ids=["fraction", "horizon", "fraction-without-horizon"])
    def test_schedule_errors_carry_the_section_prefix(self, tmp_path, schedule, line):
        # the prefix names the section, as for its other errors, not a key
        # that may not be at fault
        cfg = write_ini(tmp_path / "c.ini", base_sections(
            initial={"preset": "equilibrium"}, lifespan=schedule))
        json_path = tmp_path / "l.json"
        assert main(["lifespan", "--config", cfg, "--json", str(json_path)]) \
            == EXIT_BAD_CONFIG
        payload = json.loads(json_path.read_text())
        assert payload["cause"] == "invalid_config"
        assert payload["errors"] == [line]


class TestPicardCommand:
    def test_auto_horizon_small_data(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", base_sections(
            initial={"preset": "smooth_bump", "amplitude": 0.01}))
        json_path = tmp_path / "p.json"
        code = main(["picard", "--config", cfg, "--json", str(json_path)])
        assert code == EXIT_OK
        rep = json.loads(json_path.read_text())
        assert rep["converged"]
        assert all(r < 1.0 for r in rep["contraction_ratios"][:3])
        assert rep["horizon"] > 0

    def test_large_data_non_contraction(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", base_sections(
            initial={"preset": "smooth_bump", "amplitude": 0.9},
            picard={"horizon": 20.0, "max_iters": 15}))
        json_path = tmp_path / "p.json"
        code = main(["picard", "--config", cfg, "--json", str(json_path)])
        assert code == EXIT_NO_CONTRACTION
        rep = json.loads(json_path.read_text())
        assert rep["cause"] == "non_contraction"
        assert len(rep["diff_norms"]) >= 2

    def test_wrong_regime_rejected(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", base_sections(
            physics={"mu": 0.15, "kappa": 0.09}))
        assert main(["picard", "--config", cfg]) == EXIT_BAD_CONFIG

    def test_infinite_tolerance_rejected(self, tmp_path, capsys):
        # tol = inf would pass the first difference, whatever its size
        cfg = write_ini(tmp_path / "c.ini", base_sections(
            grid={"dim": 2, "n": 32}, picard={"horizon": 1.0, "tol": "inf"}))
        json_path = tmp_path / "p.json"
        assert main(["picard", "--config", cfg, "--json", str(json_path)]) == EXIT_BAD_CONFIG
        assert json.loads(json_path.read_text())["errors"] == [
            "picard: tolerance must be positive and finite, got inf"]
        assert "converged" not in capsys.readouterr().out

    def test_bad_horizon_string(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", base_sections(
            picard={"horizon": "whenever"}))
        assert main(["picard", "--config", cfg]) == EXIT_BAD_CONFIG

    def test_all_config_errors_reported_at_once(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", base_sections(
            physics={"mu": -1}, picard={"horizon": "whenever", "max_iters": 0}))
        json_path = tmp_path / "p.json"
        assert main(["picard", "--config", cfg, "--json", str(json_path)]) \
            == EXIT_BAD_CONFIG
        assert json.loads(json_path.read_text())["errors"] == [
            "picard.horizon: not a number or 'auto': 'whenever'",
            "physics: invalid mu = -1.0",
            "picard: max_iters must be >= 1, got 0"]


class TestBesovCommand:
    def test_preset_report(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", base_sections(
            initial={"preset": "equilibrium"}))
        json_path = tmp_path / "b.json"
        assert main(["besov", "--config", cfg, "--json", str(json_path)]) \
            == EXIT_OK
        rep = json.loads(json_path.read_text())
        assert rep["log_density"]["norm"] == 0.0
        assert all(v["norm"] == 0.0 for v in rep["velocity"])

    def test_state_file_report(self, tmp_path):
        from capns.fields import Grid
        from capns.model import PhysParams
        from capns.presets import Preset, build
        from capns.solver import save_checkpoint

        g = Grid(dim=1, n=64)
        params = PhysParams(mu=0.15, kappa=0.0225)
        state = build(Preset("smooth_bump", amplitude=0.2), g, params)
        ckpt = tmp_path / "state.npz"
        save_checkpoint(ckpt, state, params, t=0.75)
        json_path = tmp_path / "b.json"
        assert main(["besov", "--state", str(ckpt), "--json",
                     str(json_path)]) == EXIT_OK
        rep = json.loads(json_path.read_text())
        assert rep["t"] == 0.75
        assert rep["log_density"]["norm"] > 0
        assert len(rep["log_density"]["blocks"]) >= 4

    def test_effective_state_file_reports_as_primitive(self, tmp_path):
        from capns.model import to_effective
        from capns.presets import Preset, build
        from capns.solver import save_checkpoint

        g = Grid(dim=2, n=16)
        params = PhysParams(mu=0.15, kappa=0.0225)
        state = build(Preset("smooth_bump", amplitude=0.2), g, params)
        reports = []
        for kind, s in (("p", state), ("e", to_effective(state, params))):
            ckpt, json_path = tmp_path / f"{kind}.npz", tmp_path / f"{kind}.json"
            save_checkpoint(ckpt, s, params, t=0.5)
            assert main(["besov", "--state", str(ckpt), "--json", str(json_path)]) == EXIT_OK
            reports.append(json.loads(json_path.read_text()))
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("p", ["150", "300"])
    def test_large_exponent_norms_positive(self, tmp_path, p):
        # |x|^p underflows at these p for this field: every block norm of the
        # log-density read 0.0 at p = 300 before the rows were rescaled
        cfg = write_ini(tmp_path / "c.ini", base_sections(
            grid={"dim": 2, "n": 16}, initial={"amplitude": 0.05}))
        json_path = tmp_path / "b.json"
        assert main(["besov", "--config", cfg, "--p", p, "--json", str(json_path)]) == EXIT_OK
        rep = json.loads(json_path.read_text())
        for report in (rep["log_density"], *rep["velocity"]):
            assert np.isfinite(report["norm"]) and report["norm"] > 0
        assert all(b["block_norm"] > 0 for b in rep["log_density"]["blocks"])

    def test_requires_exactly_one_source(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", base_sections())
        assert main(["besov"]) == EXIT_BAD_CONFIG
        assert main(["besov", "--config", cfg, "--state", "x.npz"]) \
            == EXIT_BAD_CONFIG

    @pytest.mark.parametrize("p", ["0", "0.5", "-1"])
    def test_exponent_below_one_rejected(self, tmp_path, capsys, p):
        cfg = write_ini(tmp_path / "c.ini", base_sections())
        json_path = tmp_path / "b.json"
        assert main(["besov", "--config", cfg, "--p", p, "--json", str(json_path)]) \
            == EXIT_BAD_CONFIG
        rep = json.loads(json_path.read_text())
        assert rep["cause"] == "invalid_config"
        assert "config error: besov:" in capsys.readouterr().out

    @pytest.mark.parametrize("corrupt", ["text", "truncated", "empty", "raw-member"])
    def test_corrupt_state_file_rejected(self, tmp_path, capsys, corrupt):
        import zipfile

        from capns.fields import Grid
        from capns.model import PhysParams
        from capns.presets import Preset, build
        from capns.solver import save_checkpoint

        ckpt = tmp_path / "state.npz"
        if corrupt == "text":
            ckpt.write_text("not a checkpoint\n")
        elif corrupt == "empty":
            ckpt.write_bytes(b"")
        else:
            params = PhysParams(mu=0.15, kappa=0.0225)
            save_checkpoint(ckpt, build(Preset("smooth_bump"), Grid(1, 64), params),
                            params, t=0.0)
            if corrupt == "truncated":
                data = ckpt.read_bytes()
                ckpt.write_bytes(data[: len(data) // 2])
            else:
                # a zip member that is not an .npy array reads back as raw bytes
                with zipfile.ZipFile(ckpt) as src:
                    members = {name: src.read(name) for name in src.namelist()}
                members["version.npy"] = b"garbage"
                with zipfile.ZipFile(ckpt, "w") as dst:
                    for name, raw in members.items():
                        dst.writestr(name, raw)
        json_path = tmp_path / "b.json"
        assert main(["besov", "--state", str(ckpt), "--json", str(json_path)]) \
            == EXIT_BAD_CONFIG
        assert json.loads(json_path.read_text())["cause"] == "invalid_config"
        assert "config error: besov.state:" in capsys.readouterr().out


class TestConfiguration:
    def test_defaults_of_a_minimal_config(self, tmp_path, monkeypatch):
        # only dt and t_end are required; the rest is the CLI's defaults
        # (grid, physics, preset) and the dataclasses' own
        seen = {}
        real_run = capns.cli.run

        def spy(initial, params, cfg, **kw):
            seen.update(grid=initial.grid, params=params, cfg=cfg)
            return real_run(initial, params, cfg, **kw)

        monkeypatch.setattr(capns.cli, "run", spy)
        cfg = write_ini(tmp_path / "c.ini", {"solver": {"dt": 1e-3, "t_end": 2e-3}})
        json_path = tmp_path / "out.json"
        assert main(["run", "--config", cfg, "--csv", str(tmp_path / "s.csv"),
                     "--json", str(json_path)]) == EXIT_OK
        assert seen["grid"] == Grid(1, 128)
        assert seen["params"] == PhysParams(0.15, 0.0225)
        assert seen["cfg"] == SolverConfig(dt=1e-3, t_end=2e-3)
        assert json.loads(json_path.read_text())["preset"] == "equilibrium"

    def test_missing_step_keys_are_named(self, tmp_path, capsys):
        cfg = write_ini(tmp_path / "c.ini", {"grid": {"n": 64}})
        json_path = tmp_path / "out.json"
        assert main(["run", "--config", cfg, "--json", str(json_path)]) == EXIT_BAD_CONFIG
        assert json.loads(json_path.read_text())["errors"] == [
            "solver.dt: required for this command", "solver.t_end: required for this command"]
        assert "config error: solver.dt: required for this command" in capsys.readouterr().out

    @pytest.mark.parametrize("command,overrides,message", [
        ("run", {"solver": {"t_end": 0.0205}}, "not a whole number of dt"),
        ("run", {"initial": {"preset": "random_bandlimited", "amplitude": 1.5}},
         "needs amplitude < 1"),
        ("lifespan", {"initial": {"preset": "random_bandlimited", "amplitude": 1.5}},
         "needs amplitude < 1"),
        ("picard", {"initial": {"preset": "random_bandlimited", "amplitude": 1.5}},
         "needs amplitude < 1"),
        ("besov", {"initial": {"preset": "random_bandlimited", "amplitude": 1.5}},
         "needs amplitude < 1"),
    ])
    def test_late_config_error_writes_payload(self, tmp_path, capsys, command,
                                              overrides, message):
        # errors found after the config checks leave through the same exit
        cfg = write_ini(tmp_path / "c.ini", base_sections(**overrides))
        json_path = tmp_path / "out.json"
        assert main([command, "--config", cfg, "--json", str(json_path)]) == EXIT_BAD_CONFIG
        payload = json.loads(json_path.read_text())
        assert payload["cause"] == "invalid_config"
        assert payload["exit_code"] == EXIT_BAD_CONFIG
        assert len(payload["errors"]) == 1 and message in payload["errors"][0]
        assert f"config error: {payload['errors'][0]}\n" in capsys.readouterr().out

    @pytest.mark.parametrize("solver", [{"dt": -1.0}, {"t_end": 0.0205}],
                             ids=["early", "late"])
    def test_config_json_path_takes_invalid_config(self, tmp_path, capsys, solver):
        # without --json, [output] json receives every payload of run
        json_path = tmp_path / "out_cfg.json"
        cfg = write_ini(tmp_path / "c.ini", base_sections(
            solver=solver, output={"json": str(json_path)}))
        assert main(["run", "--config", cfg]) == EXIT_BAD_CONFIG
        assert json.loads(json_path.read_text())["cause"] == "invalid_config"
        assert capsys.readouterr().out.endswith(f"wrote {json_path}\n")

    @pytest.mark.parametrize("preset", ["random_bandlimited", "manufactured"])
    def test_amplitude_bound_checked_with_the_config(self, tmp_path, preset):
        cfg = write_ini(tmp_path / "c.ini", base_sections(
            physics={"mu": -1}, initial={"preset": preset, "amplitude": 1.5}))
        json_path = tmp_path / "out.json"
        assert main(["run", "--config", cfg, "--json", str(json_path)]) == EXIT_BAD_CONFIG
        errors = json.loads(json_path.read_text())["errors"]
        assert [e.split(":")[0] for e in errors] == ["physics", "initial"]
        assert f"{preset} needs amplitude < 1" in errors[1]

    @pytest.mark.parametrize("command", ["run", "lifespan", "picard", "besov"])
    def test_bump_amplitude_bound_is_an_initial_error(self, tmp_path, command):
        # 1.6168 = peak/|min| of the centred 1-D bump; beyond it rho < 0
        cfg = write_ini(tmp_path / "c.ini", base_sections(
            initial={"preset": "smooth_bump", "amplitude": 3}))
        json_path = tmp_path / "out.json"
        assert main([command, "--config", cfg, "--json", str(json_path)]) == EXIT_BAD_CONFIG
        assert json.loads(json_path.read_text())["errors"] == [
            "initial: smooth_bump needs amplitude < 1.6168 for positivity on a "
            "dim-1 grid, got 3.0"]

    def test_readme_example_runs(self, tmp_path, capsys):
        ini = re.search(r"```ini\n(.*?)```", README.read_text(), re.S).group(1)
        path = tmp_path / "readme.ini"
        path.write_text(ini)
        assert capns.cli.load_config(path)[1] == []
        json_path = tmp_path / "out.json"
        assert main(["run", "--config", str(path), "--csv", str(tmp_path / "s.csv"),
                     "--json", str(json_path)]) == EXIT_OK
        assert "config error" not in capsys.readouterr().out


def test_cause_codes_are_distinct():
    assert len(set(CAUSE_CODES.values())) == len(CAUSE_CODES)


# cause -> (command, config overrides, payload keys that cause adds)
CAUSE_CASES = {
    "ok": ("run", {"initial": {"preset": "equilibrium"}}, {"steps", "energy_check"}),
    # with the auto horizon this config converges at once
    "check_failed": ("picard", {"picard": {"horizon": 1.0, "max_iters": 1}},
                     {"converged", "diff_norms"}),
    "invalid_config": ("run", {"solver": {"dt": -1.0}}, {"errors"}),
    "vacuum_breach": ("run", {"solver": {"vacuum_floor": 0.9, "t_end": 0.01},
                              "initial": {"preset": "near_vacuum", "delta": 0.05}},
                      {"t", "min_rho"}),
    "numeric_blowup": ("run", {}, {"t", "detail", "preset", "config"}),
    "non_contraction": ("picard", {"initial": {"amplitude": 0.9},
                                   "picard": {"horizon": 20.0, "max_iters": 15}},
                        {"diff_norms", "data_norms"}),
    "schedule_stall": ("lifespan", {"initial": {"preset": "equilibrium"},
                                    "lifespan": {"horizon": 1e9}},
                       {"stall_t", "stall_bound"}),
}


@pytest.mark.parametrize("cause", list(CAUSE_CODES))
def test_every_cause_through_main(tmp_path, monkeypatch, cause):
    command, overrides, keys = CAUSE_CASES[cause]
    if cause == "numeric_blowup":
        def blowup(*args, **kw):
            raise NumericBlowup(0.5, "non-finite rho")

        monkeypatch.setattr(capns.cli, "run", blowup)
    cfg = write_ini(tmp_path / "c.ini", base_sections(**overrides))
    json_path = tmp_path / "out.json"
    argv = [command, "--config", cfg, "--json", str(json_path)]
    if command == "run":
        argv += ["--csv", str(tmp_path / "s.csv")]
    code = main(argv)
    payload = json.loads(json_path.read_text())
    assert payload["cause"] == cause
    assert payload["exit_code"] == CAUSE_CODES[cause] == code
    assert keys <= payload.keys()
    if cause == "numeric_blowup":
        assert (payload["t"], payload["detail"]) == (0.5, "non-finite rho")
        assert payload["preset"] == "smooth_bump"
        assert payload["config"]["grid"] == {"dim": 1, "n": 64}


def test_numpy_scalars_keep_their_json_type(tmp_path, monkeypatch):
    # a payload value that is a numpy scalar is written as its Python value:
    # a numpy.bool_ as true, not 1.0, and a numpy.int64 as an integer
    def stub(args, report):
        report.update(flag=np.bool_(True), count=np.int64(3), value=np.float64(0.5))
        return "ok"

    monkeypatch.setitem(capns.cli.COMMANDS, "verify", stub)
    json_path = tmp_path / "out.json"
    assert main(["verify", "--json", str(json_path)]) == EXIT_OK
    text = json_path.read_text()
    assert '"flag": true' in text and '"count": 3,' in text and '"value": 0.5' in text
    payload = json.loads(text)
    assert payload["flag"] is True and type(payload["count"]) is int
    assert payload["value"] == 0.5


def _strict_load(text):
    """The payload, parsed as RFC 8259 JSON: NaN and Infinity are refused."""
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    return json.loads(text, parse_constant=refuse)


def test_non_finite_numbers_are_written_null(tmp_path, monkeypatch):
    # Python and numpy floats alike, at any depth of the payload
    def stub(args, report):
        report.update(big=math.inf, odd=np.float64("nan"), pair=[1.0, -math.inf],
                      nested={"t": (np.float64(0.5), np.float64(-np.inf))})
        return "ok"

    monkeypatch.setitem(capns.cli.COMMANDS, "verify", stub)
    json_path = tmp_path / "out.json"
    assert main(["verify", "--json", str(json_path)]) == EXIT_OK
    payload = _strict_load(json_path.read_text())
    assert payload["big"] is None and payload["odd"] is None
    assert payload["pair"] == [1.0, None]
    assert payload["nested"] == {"t": [0.5, None]}


def test_lifespan_of_a_minimal_config_is_strict_json(tmp_path):
    # the default preset, equilibrium, has zero data: the three branches
    # that divide by its size are infinite, and the window branch is active
    cfg = tmp_path / "c.ini"
    cfg.write_text("[grid]\nn = 32\n")
    json_path = tmp_path / "l.json"
    assert main(["lifespan", "--config", str(cfg), "--json", str(json_path)]) == EXIT_OK
    rep = _strict_load(json_path.read_text())
    assert rep["branches"] == {"data_size": None, "iteration_window": 0.25,
                               "q_regularity": None, "v_regularity": None}
    assert rep["lower_bound"] == 0.25


def test_readme_exit_code_table():
    rows = re.findall(r"^\| (\d+) +\| (\w+) +\|$", README.read_text(), re.M)
    assert {cause: int(code) for code, cause in rows} == CAUSE_CODES
