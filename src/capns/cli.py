"""Command-line front end: INI configuration, runs with diagnostic series,
verification suites, existence-time reports, iteration mode, and block-norm
reports. Every failure path carries a distinct machine-readable cause."""

from __future__ import annotations

import argparse
import configparser
import contextlib
import json
import sys
from dataclasses import replace

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
from .lp_besov import BesovSpec, block_report
from .model import EffectiveState, PhysParams, to_effective
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


SCHEMA = {
    "grid": {"dim": int, "n": int, "length": float},
    "physics": {"mu": float, "kappa": float, "a": float, "gamma": float,
                "rho_bar": float},
    "solver": {"dt": float, "t_end": float, "formulation": str,
               "vacuum_floor": float, "diag_stride": int, "c_stab": float},
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


# The CLI's own defaults: for fields the dataclasses leave without one, and
# the picard tolerance, tighter than the library's. Every other default is
# the dataclass's own.
DEFAULTS = {
    "grid": {"dim": 1, "n": 128},
    "physics": {"mu": 0.15, "kappa": 0.0225},
    "initial": {"preset": "equilibrium"},
    "picard": {"tol": 1e-10},
}
FIELD_NAMES = {"initial": {"preset": "name"}}  # keys named apart from their field
SCHEDULE_KEYS = ("horizon", "fraction")  # [lifespan] keys not passed to norms_for_data


def _build(cls, section, values, errors, skip=()):
    """The section's dataclass from its parsed keys (all but ``skip``) over
    the CLI defaults; None, with a 'section: message' line appended to
    errors, when the dataclass rejects them."""
    names = FIELD_NAMES.get(section, {})
    kw = {**DEFAULTS.get(section, {}), **values.get(section, {})}
    try:
        return cls(**{names.get(k, k): v for k, v in kw.items() if k not in skip})
    except ConfigurationError as ex:
        errors.append(f"{section}: {ex}")
        return None


def _load_case(path) -> tuple:
    """(values, errors, params, preset, initial) of a config file, with the
    primitive initial state built once; None where errors names the cause."""
    values, errors = load_config(path)
    grid = _build(Grid, "grid", values, errors)
    params = _build(PhysParams, "physics", values, errors)
    preset = _build(Preset, "initial", values, errors)
    initial = None
    if not errors:
        try:
            initial = build(preset, grid, params)
        except ConfigurationError as ex:
            errors.append(f"initial: {ex}")
    return values, errors, params, preset, initial


@contextlib.contextmanager
def _prefixed(prefix):
    """Report a ConfigurationError raised inside as 'prefix: message'."""
    try:
        yield
    except ConfigurationError as ex:
        raise ConfigurationError(f"{prefix}: {ex}") from ex


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
    with _prefixed("lifespan"):
        return norms_for_data(q0, v0, mu=params.mu, **{
            k: val for k, val in lkw.items() if k not in SCHEDULE_KEYS})


def cmd_run(args, stream) -> int:
    values, errors, params, preset, initial = _load_case(args.config)
    out = values.get("output", {})
    # every payload of run goes to one path, main's late invalid_config included
    args.json = args.json or out.get("json")
    missing = [k for k in ("dt", "t_end") if k not in values.get("solver", {})]
    errors += [f"solver.{k}: required for this command" for k in missing]
    solver_cfg = None if missing else _build(SolverConfig, "solver", values, errors)
    if not errors:
        try:
            solver_cfg.validate_for(initial.grid, params)
        except ConfigurationError as ex:
            errors.append(f"solver.dt: {ex}")
    if errors:
        return _fail_config(errors, args.json, stream)

    csv_path = args.csv or out.get("csv", "series.csv")

    if solver_cfg.formulation == "effective":
        initial = to_effective(initial, params)
    acc = DiagnosticsAccumulator(params)
    summary = {"preset": preset.name, "config": values}
    try:
        res = run(initial, params, solver_cfg, diag_fn=acc)
    except VacuumBreach as ex:
        summary.update(cause="vacuum_breach", t=ex.t, min_rho=ex.min_rho,
                       exit_code=EXIT_VACUUM)
        _emit(summary, args.json, stream)
        return EXIT_VACUUM
    except NumericBlowup as ex:
        summary.update(cause="numeric_blowup", t=ex.t, detail=ex.detail,
                       exit_code=EXIT_BLOWUP)
        _emit(summary, args.json, stream)
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
            rep = lp_gain_check(records, p_exp, params, initial.grid.dim)
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
    _emit(summary, args.json, stream)
    return summary["exit_code"]


def cmd_verify(args, stream) -> int:
    names = list(SUITE_NAMES) if args.suite == "all" else [args.suite]
    reports = []
    for name in names:
        rep = run_suite(name)
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
    values, errors, params, preset, initial = _load_case(args.config)
    if errors:
        return _fail_config(errors, args.json, stream)
    q0, v0 = _effective_data(initial, params)
    inp = _lifespan_inputs(values, q0, v0, params)
    report = lifespan_report(inp)
    report["preset"] = preset.name
    schedule_kw = {k: v for k, v in values.get("lifespan", {}).items() if k in SCHEDULE_KEYS}
    if "horizon" in schedule_kw:
        try:
            with _prefixed("lifespan.horizon"):
                sched = restart_schedule(lambda t: inp, **schedule_kw)
        except ScheduleStall as ex:
            report.update(cause="schedule_stall", stall_t=ex.t,
                          stall_bound=ex.bound, exit_code=EXIT_STALL)
            _emit(report, args.json, stream)
            return EXIT_STALL
        report["schedule"] = sched
    report.update(cause="ok", exit_code=EXIT_OK)
    _emit(report, args.json, stream)
    return EXIT_OK


def cmd_picard(args, stream) -> int:
    values, errors, params, preset, initial = _load_case(args.config)
    if errors:
        return _fail_config(errors, args.json, stream)
    pkw = values.get("picard", {})
    q0, v0 = _effective_data(initial, params)

    raw_horizon = pkw.get("horizon", "auto")
    if raw_horizon == "auto":
        horizon = lifespan_report(_lifespan_inputs(values, q0, v0, params))["lower_bound"]
    else:
        try:
            horizon = float(raw_horizon)
        except ValueError:
            return _fail_config(
                [f"picard.horizon: not a number or 'auto': {raw_horizon!r}"],
                args.json, stream)
    errors = []
    pcfg = _build(PicardConfig, "picard", values, errors, skip=("horizon",))
    if errors:
        return _fail_config(errors, args.json, stream)
    try:
        with _prefixed("picard"):
            result = picard_solve(q0, v0, params, horizon, pcfg)
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
        except (OSError, ConfigurationError) as ex:
            return _fail_config([f"besov.state: {ex}"], args.json, stream)
    else:
        values, errors, params, preset, state = _load_case(args.config)
        if errors:
            return _fail_config(errors, args.json, stream)
        t = 0.0
    q, v = (state.q, state.v) if isinstance(state, EffectiveState) \
        else _effective_data(state, params)
    n = q.grid.dim
    with _prefixed("besov"):
        spec_q = BesovSpec(s=0.0 if args.s is None else args.s, p=args.p, r=args.r)
        if args.s is None:
            # the critical index n/p, formed once p has passed validation
            spec_q = replace(spec_q, s=n / spec_q.p)
        spec_v = replace(spec_q, s=spec_q.s - 1.0)
    report = {
        "t": t,
        "dim": n,
        "log_density": block_report(q, spec_q),
        "velocity": [block_report(c, spec_v) for c in v],
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
        # the one exit for errors found after a command's first checks
        return _fail_config([str(ex)], args.json, stream)


if __name__ == "__main__":
    sys.exit(main())
