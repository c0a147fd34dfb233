import csv
import json
import re
from pathlib import Path

import numpy as np
import pytest

import capns.cli
from capns.cli import (
    CAUSE_CODES,
    EXIT_BAD_CONFIG,
    EXIT_CHECK_FAILED,
    EXIT_NO_CONTRACTION,
    EXIT_OK,
    EXIT_VACUUM,
    main,
)
from capns.diagnostics import CSV_COLUMNS
from capns.fields import Grid
from capns.model import PhysParams
from capns.solver import SolverConfig

README = Path(__file__).resolve().parents[1] / "README.md"


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
        assert main(["run", "--config", str(tmp_path / "absent.ini")]) \
            == EXIT_BAD_CONFIG

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


class TestVerifyCommand:
    def test_single_suite(self, tmp_path, capsys):
        json_path = tmp_path / "v.json"
        code = main(["verify", "--suite", "degiorgi", "--json", str(json_path)])
        assert code == EXIT_OK
        assert "[PASS] degiorgi:" in capsys.readouterr().out
        payload = json.loads(json_path.read_text())
        assert payload["cause"] == "ok"
        assert payload["suites"][0]["ok"] is True

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

    def test_bad_horizon_string(self, tmp_path):
        cfg = write_ini(tmp_path / "c.ini", base_sections(
            picard={"horizon": "whenever"}))
        assert main(["picard", "--config", cfg]) == EXIT_BAD_CONFIG


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
