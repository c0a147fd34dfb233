"""Command-line front end: INI configuration, runs with diagnostic series,
verification suites, existence-time reports, iteration mode, and block-norm
reports.

One outcome path: a command fills the report ``main`` hands it and returns a
cause. Only ``main`` catches: ``FAILURES`` gives each failure's cause and
payload keys, and config errors, collected ones raised together, are
``invalid_config``. ``main`` takes the exit code from ``CAUSE_CODES`` and
writes the payload once, to ``--json`` or else to stdout, as strict JSON:
a non-finite number is written null."""

from __future__ import annotations

import argparse
import configparser
import contextlib
import functools
import json
import math
import os
from dataclasses import replace

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
from .lp_besov import BesovSpec, block_report
from .model import EffectiveState, PhysParams, to_effective
from .presets import Preset, build
from .solver import PicardConfig, SolverConfig, load_checkpoint, picard_solve, run
from .verify import SUITE_NAMES, run_suite

# the external contract: every payload's cause and the exit code it carries
CAUSE_CODES = {
    "ok": 0,
    "check_failed": 1,
    "invalid_config": 2,
    "vacuum_breach": 3,
    "numeric_blowup": 4,
    "non_contraction": 5,
    "schedule_stall": 6,
}

# failure exception -> (cause, the payload keys it adds)
FAILURES = {
    VacuumBreach: ("vacuum_breach", lambda ex: {"t": ex.t, "min_rho": ex.min_rho}),
    NumericBlowup: ("numeric_blowup", lambda ex: {"t": ex.t, "detail": ex.detail}),
    NonContraction: ("non_contraction", lambda ex: {"diff_norms": ex.diff_norms,
                                                    "data_norms": ex.data_norms}),
    ScheduleStall: ("schedule_stall", lambda ex: {"stall_t": ex.t, "stall_bound": ex.bound}),
}


def _horizon(raw):
    """The [picard] horizon: 'auto' (the lifespan lower bound) or a number."""
    if raw == "auto":
        return raw
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"not a number or 'auto': {raw!r}") from None


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
    "picard": {"horizon": _horizon, "max_iters": int, "tol": float, "n_steps": int,
               "p": float},
}


def load_config(path) -> tuple:
    """Parse and type-check an INI file. Returns (values, errors) where
    values is {section: {key: parsed}} and errors is a list of
    'section.key: message' strings; any error means the config is unusable.
    A file that cannot be read or parsed raises ConfigurationError alone."""
    cp = configparser.ConfigParser(inline_comment_prefixes=(";", "#"))
    # keys stay case-sensitive: [lifespan] has both C and c
    cp.optionxform = str
    errors = []
    try:
        with open(path, encoding="utf-8") as fh:
            cp.read_file(fh)
    except (OSError, UnicodeDecodeError) as ex:  # missing, unreadable or not UTF-8 text
        raise ConfigurationError(f"config: cannot read {path}: {ex}") from ex
    except configparser.Error as ex:
        raise ConfigurationError(f"config: parse failure: {ex}") from ex
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


def _check(errors):
    """Raise the config errors a command collected, all in one exception."""
    if errors:
        raise ConfigurationError(*errors)


@contextlib.contextmanager
def _prefixed(prefix):
    """Report a ConfigurationError or OSError raised inside as a config
    error 'prefix: message'."""
    try:
        yield
    except (ConfigurationError, OSError) as ex:
        raise ConfigurationError(f"{prefix}: {ex}") from ex


def _invalid(errors):
    """The invalid_config cause and payload, with each error printed."""
    for e in errors:
        print(f"config error: {e}")
    return "invalid_config", {"errors": errors}


def _writable(key, path, errors) -> bool:
    """Whether ``path`` opens for writing; if not, an 'output.<key>: cannot
    write: ...' line goes to errors. A file the probe creates is removed:
    for a dangling symbolic link that is the link's target, and the link
    stays."""
    existed = os.path.exists(path)  # False for a dangling link, as for no file
    try:
        open(path, "a").close()
    except OSError as ex:
        errors.append(f"output.{key}: cannot write: {ex}")
        return False
    if not existed:
        os.remove(os.path.realpath(path))
    return True


def _effective_data(state, params):
    e = to_effective(state, params)
    return e.q, e.v


def _lifespan_inputs(values, q0, v0, params):
    """The data norms and constants of the [lifespan] section."""
    lkw = values.get("lifespan", {})
    with _prefixed("lifespan"):
        return norms_for_data(q0, v0, mu=params.mu, **{
            k: val for k, val in lkw.items() if k not in SCHEDULE_KEYS})


def cmd_run(args, report) -> str:
    values, errors, params, preset, initial = _load_case(args.config)
    out = values.get("output", {})
    # every payload of run goes to one path, invalid_config included
    args.json = args.json or out.get("json")
    missing = [k for k in ("dt", "t_end") if k not in values.get("solver", {})]
    errors += [f"solver.{k}: required for this command" for k in missing]
    solver_cfg = None if missing else _build(SolverConfig, "solver", values, errors)
    csv_path = args.csv or out.get("csv", "series.csv")
    # both outputs are checked with the config, before the run writes either;
    # both paths are resolved through symbolic links, whether or not the
    # files they name exist yet
    if args.json and os.path.realpath(args.json) == os.path.realpath(csv_path):
        errors.append(f"output: csv and json name one file: {csv_path}")
    if args.json and not _writable("json", args.json, errors):
        args.json = None  # the payload goes to stdout
    _writable("csv", csv_path, errors)
    _check(errors)
    with _prefixed("solver.formulation"):
        solver_cfg.check_formulation(params)
    with _prefixed("solver.dt"):
        solver_cfg.validate_for(initial.grid, params)

    if solver_cfg.formulation == "effective":
        initial = to_effective(initial, params)
    report.update(preset=preset.name, config=values)
    res = run(initial, params, solver_cfg, diag_fn=DiagnosticsAccumulator(params))
    records = res.records
    with _prefixed("output.csv: cannot write"):
        write_csv(records, csv_path)
    print(f"wrote {csv_path} ({len(records)} rows)")

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
    report.update(
        t_final=res.t_final, steps=res.steps, rows=len(records),
        mass_drift=drift,
        energy_check={"ok": energy_verdict.ok,
                      "first_violation_t": energy_verdict.first_violation_t,
                      "detail": energy_verdict.detail},
        lp_gain=gains,
    )
    return "ok" if energy_verdict.ok and gains_ok and drift < 1e-10 else "check_failed"


def cmd_verify(args, report) -> str:
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
            print(line)
    report["suites"] = [rep.to_dict() for rep in reports]
    return "ok" if all(rep.ok for rep in reports) else "check_failed"


def cmd_lifespan(args, report) -> str:
    values, errors, params, preset, initial = _load_case(args.config)
    _check(errors)
    q0, v0 = _effective_data(initial, params)
    inp = _lifespan_inputs(values, q0, v0, params)
    report.update(lifespan_report(inp), preset=preset.name)
    schedule_kw = {k: v for k, v in values.get("lifespan", {}).items() if k in SCHEDULE_KEYS}
    with _prefixed("lifespan"):
        # without a horizon the keys are still checked, and horizon 0 plans nothing
        schedule = restart_schedule(lambda t: inp, **{"horizon": 0.0, **schedule_kw})
    if "horizon" in schedule_kw:
        report["schedule"] = schedule
    return "ok"


def cmd_picard(args, report) -> str:
    values, errors, params, preset, initial = _load_case(args.config)
    pcfg = _build(PicardConfig, "picard", values, errors, skip=("horizon",))
    _check(errors)
    q0, v0 = _effective_data(initial, params)
    horizon = values.get("picard", {}).get("horizon", "auto")
    if horizon == "auto":
        horizon = lifespan_report(_lifespan_inputs(values, q0, v0, params))["lower_bound"]
    report["horizon"] = horizon
    with _prefixed("picard"):
        result = picard_solve(q0, v0, params, horizon, pcfg)

    ds = result.diff_norms
    report.update(
        iterations=result.iterations,
        converged=result.converged,
        diff_norms=ds,
        contraction_ratios=[ds[i + 1] / ds[i] for i in range(len(ds) - 1) if ds[i] > 0],
        data_norms=result.data_norms,
    )
    return "ok" if result.converged else "check_failed"


def cmd_besov(args, report) -> str:
    if bool(args.state) == bool(args.config):
        raise ConfigurationError("besov: give exactly one of --state or --config")
    if args.state:
        with _prefixed("besov.state"):
            state, params, t = load_checkpoint(args.state)
    else:
        values, errors, params, preset, state = _load_case(args.config)
        _check(errors)
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
    report.update(t=t, dim=n, log_density=block_report(q, spec_q),
                  velocity=[block_report(c, spec_v) for c in v])
    return "ok"


COMMANDS = {
    "run": cmd_run,
    "verify": cmd_verify,
    "lifespan": cmd_lifespan,
    "picard": cmd_picard,
    "besov": cmd_besov,
}


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process; parsing does not
    change it."""
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


def _strict(o):
    """``o`` as strict JSON (RFC 8259) can hold it: a numpy scalar as its
    Python value (a numpy.bool_ as a boolean), and a non-finite float as
    None, written null, since JSON has no NaN or infinity."""
    if isinstance(o, dict):
        return {k: _strict(v) for k, v in o.items()}
    if isinstance(o, (list, tuple)):
        return [_strict(v) for v in o]
    if isinstance(o, np.generic):
        o = o.item()
    return None if isinstance(o, float) and not math.isfinite(o) else o


def main(argv=None) -> int:
    """Run one command and write its payload; returns the payload's exit code."""
    args = make_parser().parse_args(argv)
    report = {}
    try:
        cause = COMMANDS[args.command](args, report)
    except tuple(FAILURES) as ex:
        cause, keys = FAILURES[type(ex)]
        report.update(keys(ex))
    except (ConfigurationError, DomainError) as ex:
        cause, report = _invalid([str(e) for e in ex.args])
    sink = None
    if args.json:
        try:
            sink = open(args.json, "w")
        except OSError as ex:
            kept = report["errors"] if cause == "invalid_config" else []
            cause, report = _invalid([f"output.json: cannot write: {ex}"])
            report["errors"][:0] = kept
    report.update(cause=cause, exit_code=CAUSE_CODES[cause])
    with sink or contextlib.nullcontext():  # file=None prints to stdout
        print(json.dumps(_strict(report), indent=2, sort_keys=True, allow_nan=False), file=sink)
    if sink is not None:
        print(f"wrote {args.json}")
    return report["exit_code"]


if __name__ == "__main__":
    raise SystemExit(main())
