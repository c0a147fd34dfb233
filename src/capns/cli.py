"""Command-line front end: INI configuration, runs with diagnostic series,
verification suites, existence-time reports, iteration mode, and block-norm
reports. Every failure path carries a distinct machine-readable cause."""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys

import numpy as np

from .diagnostics import (
    DiagnosticsAccumulator,
    check_energy_inequality,
    lp_gain_check,
    write_csv,
)
from .errors import (
    ConfigurationError,
    DomainError,
    NonContraction,
    NumericBlowup,
    ScheduleStall,
    VacuumBreach,
)
from .fields import Grid
from .lifespan import lifespan_report, norms_for_data, restart_schedule
from .lp_besov import BesovSpec, block_report, build_bumps
from .model import PhysParams, to_effective
from .presets import Preset, build
from .solver import PicardConfig, SolverConfig, load_checkpoint, picard_solve, run
from .verify import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_CONFIG = 2
EXIT_VACUUM = 3
EXIT_BLOWUP = 4
EXIT_NO_CONTRACTION = 5
EXIT_STALL = 6

CAUSE_CODES = {
    "ok": EXIT_OK,
    "check_failed": EXIT_CHECK_FAILED,
    "invalid_config": EXIT_BAD_CONFIG,
    "vacuum_breach": EXIT_VACUUM,
    "numeric_blowup": EXIT_BLOWUP,
    "non_contraction": EXIT_NO_CONTRACTION,
    "schedule_stall": EXIT_STALL,
}


def _to_bool(raw: str) -> bool:
    lowered = raw.strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


SCHEMA = {
    "grid": {"dim": int, "n": int, "length": float},
    "physics": {"mu": float, "kappa": float, "a": float, "gamma": float,
                "rho_bar": float},
    "solver": {"dt": float, "t_end": float, "formulation": str,
               "dealias": _to_bool, "vacuum_floor": float, "diag_stride": int,
               "c_stab": float, "freeze_advection": _to_bool},
    "initial": {"preset": str, "amplitude": float, "seed": int, "delta": float},
    "output": {"csv": str, "json": str},
    "lifespan": {"C": float, "C1": float, "c": float, "eps": float,
                 "eps_prime": float, "p": float, "horizon": float,
                 "fraction": float},
    "picard": {"horizon": str, "max_iters": int, "tol": float, "n_steps": int,
               "p": float},
}


def load_config(path) -> tuple:
    """Parse and type-check an INI file. Returns (values, errors) where
    values is {section: {key: parsed}} and errors is a list of
    'section.key: message' strings; any error means the config is unusable."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    # keys stay case-sensitive: [lifespan] has both C and c
    cp.optionxform = str
    errors = []
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except OSError as ex:
        return {}, [f"config: cannot read {path}: {ex}"]
    except configparser.Error as ex:
        return {}, [f"config: parse failure: {ex}"]
    values = {}
    for section in cp.sections():
        if section not in SCHEMA:
            errors.append(f"{section}: unknown section")
            continue
        values[section] = {}
        for key, raw in cp.items(section):
            conv = SCHEMA[section].get(key)
            if conv is None:
                errors.append(f"{section}.{key}: unknown key")
                continue
            if raw.strip() == "":
                continue  # blank means "use the default"
            try:
                values[section][key] = conv(raw)
            except ValueError as ex:
                errors.append(f"{section}.{key}: {ex}")
    return values, errors


def _build_grid(values, errors):
    kw = values.get("grid", {})
    try:
        return Grid(dim=kw.get("dim", 1), n=kw.get("n", 128),
                    length=kw.get("length", 2.0 * math.pi))
    except (ConfigurationError, TypeError) as ex:
        errors.append(f"grid: {ex}")
        return None


def _build_params(values, errors):
    kw = values.get("physics", {})
    try:
        return PhysParams(mu=kw.get("mu", 0.15), kappa=kw.get("kappa", 0.0225),
                          a=kw.get("a", 1.0), gamma=kw.get("gamma", 1.0),
                          rho_bar=kw.get("rho_bar", 1.0))
    except ConfigurationError as ex:
        errors.append(f"physics: {ex}")
        return None


def _build_preset(values, errors):
    kw = values.get("initial", {})
    try:
        return Preset(name=kw.get("preset", "equilibrium"),
                      amplitude=kw.get("amplitude", 0.1),
                      seed=kw.get("seed", 0), delta=kw.get("delta", 0.1))
    except ConfigurationError as ex:
        errors.append(f"initial: {ex}")
        return None


def _load_case(path) -> tuple:
    """(values, errors, grid, params, preset) of a config file."""
    values, errors = load_config(path)
    grid = _build_grid(values, errors)
    params = _build_params(values, errors)
    preset = _build_preset(values, errors)
    return values, errors, grid, params, preset


def _build_solver(values, errors):
    kw = values.get("solver", {})
    missing = [k for k in ("dt", "t_end") if k not in kw]
    if missing:
        for k in missing:
            errors.append(f"solver.{k}: required for this command")
        return None
    try:
        return SolverConfig(
            dt=kw["dt"], t_end=kw["t_end"],
            formulation=kw.get("formulation", "primitive"),
            dealias=kw.get("dealias", True),
            vacuum_floor=kw.get("vacuum_floor", 1e-8),
            diag_stride=kw.get("diag_stride", 1),
            c_stab=kw.get("c_stab", 1.0),
            freeze_advection=kw.get("freeze_advection", False))
    except ConfigurationError as ex:
        errors.append(f"solver: {ex}")
        return None


def _emit(report: dict, json_path, stream):
    text = json.dumps(report, indent=2, sort_keys=True, default=float)
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(text + "\n")
        print(f"wrote {json_path}", file=stream)
    else:
        print(text, file=stream)


def _fail_config(errors, json_path, stream):
    for e in errors:
        print(f"config error: {e}", file=stream)
    _emit({"cause": "invalid_config", "errors": errors,
           "exit_code": EXIT_BAD_CONFIG}, json_path, stream)
    return EXIT_BAD_CONFIG


def _effective_data(state, params):
    e = to_effective(state, params)
    return e.q, e.v


def _lifespan_inputs(values, q0, v0, params):
    """The data norms and constants of the [lifespan] section."""
    lkw = values.get("lifespan", {})
    return norms_for_data(
        q0, v0, p=lkw.get("p"), eps_prime=lkw.get("eps_prime", 0.25),
        C=lkw.get("C", 1.0), C1=lkw.get("C1", 1.0), c=lkw.get("c", 1.0),
        mu=params.mu, eps=lkw.get("eps"))


def cmd_run(args, stream) -> int:
    values, errors, grid, params, preset = _load_case(args.config)
    solver_cfg = _build_solver(values, errors)
    if not errors and solver_cfg is not None:
        try:
            solver_cfg.validate_for(grid, params)
        except ConfigurationError as ex:
            errors.append(f"solver.dt: {ex}")
    if errors:
        return _fail_config(errors, args.json, stream)

    out = values.get("output", {})
    csv_path = args.csv or out.get("csv", "series.csv")
    json_path = args.json or out.get("json")

    initial = build(preset, grid, params)
    if solver_cfg.formulation == "effective":
        initial = to_effective(initial, params)
    acc = DiagnosticsAccumulator(params)
    summary = {"preset": preset.name, "config": values}
    try:
        res = run(initial, params, solver_cfg, diag_fn=acc)
    except VacuumBreach as ex:
        summary.update(cause="vacuum_breach", t=ex.t, min_rho=ex.min_rho,
                       exit_code=EXIT_VACUUM)
        _emit(summary, json_path, stream)
        return EXIT_VACUUM
    except NumericBlowup as ex:
        summary.update(cause="numeric_blowup", t=ex.t, detail=ex.detail,
                       exit_code=EXIT_BLOWUP)
        _emit(summary, json_path, stream)
        return EXIT_BLOWUP

    records = res.records
    write_csv(records, csv_path)
    print(f"wrote {csv_path} ({len(records)} rows)", file=stream)

    masses = [r.mass for r in records]
    drift = max(abs(m - masses[0]) for m in masses) / abs(masses[0])
    energy_verdict = check_energy_inequality(records)
    gains = {}
    gains_ok = True
    if params.gamma == 1.0:
        for p_exp in (4, 8, 16):
            rep = lp_gain_check(records, p_exp, params, grid.dim)
            gains[str(p_exp)] = {"verdict": rep.verdict, "note": rep.note}
            gains_ok &= bool(rep.verdict)
    ok = energy_verdict.ok and gains_ok and drift < 1e-10
    summary.update(
        t_final=res.t_final, steps=res.steps, rows=len(records),
        mass_drift=drift,
        energy_check={"ok": energy_verdict.ok,
                      "first_violation_t": energy_verdict.first_violation_t,
                      "detail": energy_verdict.detail},
        lp_gain=gains,
        cause="ok" if ok else "check_failed",
        exit_code=EXIT_OK if ok else EXIT_CHECK_FAILED,
    )
    _emit(summary, json_path, stream)
    return summary["exit_code"]


def cmd_verify(args, stream) -> int:
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        try:
            rep = run_suite(name)
        except ConfigurationError as ex:
            print(f"config error: {ex}", file=stream)
            return EXIT_BAD_CONFIG
        reports.append(rep)
        for case in rep.cases:
            tag = "PASS" if case.passed else "FAIL"
            line = f"[{tag}] {name}:{case.name}"
            if case.measured is not None and case.threshold is not None:
                line += f" measured={case.measured:.3e} threshold={case.threshold:.3e}"
            print(line, file=stream)
    ok = all(rep.ok for rep in reports)
    payload = {
        "suites": [rep.to_dict() for rep in reports],
        "cause": "ok" if ok else "check_failed",
        "exit_code": EXIT_OK if ok else EXIT_CHECK_FAILED,
    }
    _emit(payload, args.json, stream)
    return payload["exit_code"]


def cmd_lifespan(args, stream) -> int:
    values, errors, grid, params, preset = _load_case(args.config)
    if errors:
        return _fail_config(errors, args.json, stream)
    lkw = values.get("lifespan", {})
    q0, v0 = _effective_data(build(preset, grid, params), params)
    try:
        inp = _lifespan_inputs(values, q0, v0, params)
    except ConfigurationError as ex:
        return _fail_config([f"lifespan: {ex}"], args.json, stream)
    report = lifespan_report(inp)
    report["preset"] = preset.name
    horizon = lkw.get("horizon")
    if horizon is not None:
        try:
            sched = restart_schedule(lambda t: inp, horizon,
                                     fraction=lkw.get("fraction", 0.5))
        except ScheduleStall as ex:
            report.update(cause="schedule_stall", stall_t=ex.t,
                          stall_bound=ex.bound, exit_code=EXIT_STALL)
            _emit(report, args.json, stream)
            return EXIT_STALL
        except ConfigurationError as ex:
            return _fail_config([f"lifespan.horizon: {ex}"], args.json, stream)
        report["schedule"] = sched
    report.update(cause="ok", exit_code=EXIT_OK)
    _emit(report, args.json, stream)
    return EXIT_OK


def cmd_picard(args, stream) -> int:
    values, errors, grid, params, preset = _load_case(args.config)
    if errors:
        return _fail_config(errors, args.json, stream)
    pkw = values.get("picard", {})
    q0, v0 = _effective_data(build(preset, grid, params), params)

    raw_horizon = pkw.get("horizon", "auto")
    if raw_horizon == "auto":
        try:
            inp = _lifespan_inputs(values, q0, v0, params)
        except ConfigurationError as ex:
            return _fail_config([f"lifespan: {ex}"], args.json, stream)
        horizon = lifespan_report(inp)["lower_bound"]
    else:
        try:
            horizon = float(raw_horizon)
        except ValueError:
            return _fail_config(
                [f"picard.horizon: not a number or 'auto': {raw_horizon!r}"],
                args.json, stream)
    try:
        pcfg = PicardConfig(max_iters=pkw.get("max_iters", 20),
                            tol=pkw.get("tol", 1e-10),
                            n_steps=pkw.get("n_steps", 64),
                            p=pkw.get("p", 2.0))
        result = picard_solve(q0, v0, params, horizon, pcfg)
    except ConfigurationError as ex:
        return _fail_config([f"picard: {ex}"], args.json, stream)
    except NonContraction as ex:
        report = {"horizon": horizon, "cause": "non_contraction",
                  "diff_norms": ex.diff_norms, "data_norms": ex.data_norms,
                  "exit_code": EXIT_NO_CONTRACTION}
        _emit(report, args.json, stream)
        return EXIT_NO_CONTRACTION

    ds = result.diff_norms
    ratios = [ds[i + 1] / ds[i] for i in range(len(ds) - 1) if ds[i] > 0]
    report = {
        "horizon": horizon,
        "iterations": result.iterations,
        "converged": result.converged,
        "diff_norms": ds,
        "contraction_ratios": ratios,
        "data_norms": result.data_norms,
        "cause": "ok" if result.converged else "check_failed",
        "exit_code": EXIT_OK if result.converged else EXIT_CHECK_FAILED,
    }
    _emit(report, args.json, stream)
    return report["exit_code"]


def cmd_besov(args, stream) -> int:
    if bool(args.state) == bool(args.config):
        return _fail_config(["besov: give exactly one of --state or --config"],
                            args.json, stream)
    if args.state:
        try:
            state, params, t = load_checkpoint(args.state)
        except (OSError, KeyError, ConfigurationError) as ex:
            return _fail_config([f"besov.state: {ex}"], args.json, stream)
    else:
        values, errors, grid, params, preset = _load_case(args.config)
        if errors:
            return _fail_config(errors, args.json, stream)
        state, t = build(preset, grid, params), 0.0
    q, v = _effective_data(state, params) if not hasattr(state, "q") \
        else (state.q, state.v)
    n = q.grid.dim
    p = args.p
    s = args.s if args.s is not None else n / p
    bumps = build_bumps()
    try:
        spec_q = BesovSpec(s=s, p=p, r=args.r)
        spec_v = BesovSpec(s=s - 1.0, p=p, r=args.r)
    except ConfigurationError as ex:
        return _fail_config([f"besov: {ex}"], args.json, stream)
    report = {
        "t": t,
        "dim": n,
        "log_density": block_report(q, spec_q, bumps),
        "velocity": [block_report(c, spec_v, bumps) for c in v],
        "cause": "ok",
        "exit_code": EXIT_OK,
    }
    _emit(report, args.json, stream)
    return EXIT_OK


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="capns",
        description="Pseudo-spectral capillary compressible flow toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="evolve a preset and emit diagnostics")
    p_run.add_argument("--config", required=True)
    p_run.add_argument("--csv", default=None, help="override CSV output path")
    p_run.add_argument("--json", default=None, help="write JSON summary here")

    p_ver = sub.add_parser("verify", help="run a property suite")
    p_ver.add_argument("--suite", default="all",
                       choices=("all",) + SUITE_NAMES)
    p_ver.add_argument("--json", default=None)

    p_life = sub.add_parser("lifespan", help="existence-time report for a preset")
    p_life.add_argument("--config", required=True)
    p_life.add_argument("--json", default=None)

    p_pic = sub.add_parser("picard", help="fixed-point iteration diagnostics")
    p_pic.add_argument("--config", required=True)
    p_pic.add_argument("--json", default=None)

    p_bes = sub.add_parser("besov", help="block-norm report for a state")
    p_bes.add_argument("--state", default=None, help="checkpoint file")
    p_bes.add_argument("--config", default=None, help="preset config instead")
    p_bes.add_argument("--p", type=float, default=2.0)
    p_bes.add_argument("--r", type=float, default=1.0)
    p_bes.add_argument("--s", type=float, default=None)
    p_bes.add_argument("--json", default=None)
    return parser


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    stream = sys.stdout
    handlers = {
        "run": cmd_run,
        "verify": cmd_verify,
        "lifespan": cmd_lifespan,
        "picard": cmd_picard,
        "besov": cmd_besov,
    }
    try:
        return handlers[args.command](args, stream)
    except (ConfigurationError, DomainError) as ex:
        print(f"config error: {ex}", file=stream)
        return EXIT_BAD_CONFIG


if __name__ == "__main__":
    sys.exit(main())
