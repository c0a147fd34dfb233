"""The benchmark's three workloads: job lists generated from a seed, the
in-process call that runs each job, and the checks on each job's output.

Nothing here imports capns at module level, so that ``setup_probe.py`` can
time the first ``import capns`` of a fresh interpreter.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import traceback
from dataclasses import dataclass, field
from pathlib import Path

WORKLOADS = ("sim2d", "budget1d", "dyadic")

# Jobs are kept short (0.05 to 0.8 s) so that a run holds many repetitions
# of each: see "Noise" in README.md.
# sim2d: 2-D n = 256 at dt = 2.5e-4 (about 1/16 of the primitive dt ceiling
# of 4.0e-3 at this n), with records only at the first and last instant.
SIM2D_STEPS = 2
SIM2D_DT = 2.5e-4
# budget1d: the acceptance gate's 1-D energy runs, stopped at this time.
BUDGET1D_T = 0.02
# dyadic: calibrate_c1 with 16 Picard steps per solve instead of its default
# 64 returns 11.0 (26.0 at the default) after 9 solves, three of them
# NonContraction.
CALIBRATE = {"mu": 0.15, "n_steps": 16}

# Reference comparisons: no looser than the acceptance gate's frozen-value
# tolerance (relative 1e-6).
REF_RTOL = 1e-6
MASS_DRIFT_MAX = 1e-10
# calibrate_c1 bisects the contraction edge to a relative width of 0.05.
C1_EXPECTED = 11.0
C1_WIDTH = 0.05


@dataclass
class Job:
    """One CLI invocation (or the calibrate_c1 call), with generated inputs."""

    name: str
    command: str              # run | picard | besov | lifespan | calibrate
    config: dict = field(default_factory=dict)   # calibrate: its keywords
    extra_args: tuple = ()
    seeded: bool = False      # inputs depend on the benchmark seed

    def paths(self, workdir: Path) -> dict:
        base = workdir / self.name.replace("/", "-")
        return {ext: base.with_suffix("." + ext) for ext in ("ini", "json", "csv")}

    def argv(self, workdir: Path) -> list:
        paths = self.paths(workdir)
        args = [self.command, "--config", str(paths["ini"]), "--json", str(paths["json"])]
        if self.command == "run":
            args += ["--csv", str(paths["csv"])]
        return args + list(self.extra_args)


def _physics(mu=0.15, kappa=0.0225, **extra):
    return {"mu": mu, "kappa": kappa, **extra}


def _run_job(name, dim, n, physics, preset, dt, steps, stride,
             formulation="primitive", seeded=False):
    return Job(name, "run", {
        "grid": {"dim": dim, "n": n},
        "physics": physics,
        "solver": {"dt": dt, "t_end": steps * dt, "formulation": formulation,
                   "diag_stride": stride},
        "initial": preset,
    }, seeded=seeded)


def jobs_for(workload: str, seed: int) -> list:
    """The fixed job list of a workload; only seeded inputs use ``seed``."""
    if workload == "sim2d":
        bump = {"preset": "smooth_bump", "amplitude": 0.05}
        return [
            _run_job(f"sim2d/{form}", 2, 256, _physics(), bump, SIM2D_DT,
                     SIM2D_STEPS, SIM2D_STEPS, formulation=form)
            for form in ("primitive", "effective")
        ]
    if workload == "budget1d":
        # the four 1-D energy-budget runs of the acceptance gate (c03) and the
        # isothermal bump in the effective formulation, with a record after
        # every step, cut from t = 1 to BUDGET1D_T
        bump = {"preset": "smooth_bump", "amplitude": 0.1}
        steps = round(BUDGET1D_T / 1e-3)
        return [
            _run_job("budget1d/isothermal", 1, 128, _physics(), bump, 1e-3, steps, 1),
            _run_job("budget1d/isothermal-effective", 1, 128, _physics(), bump,
                     1e-3, steps, 1, formulation="effective"),
            _run_job("budget1d/adiabatic", 1, 128, _physics(a=0.9, gamma=1.4),
                     bump, 1e-3, steps, 1),
            _run_job("budget1d/single-mode", 1, 128, _physics(0.2, 0.04, a=0.8),
                     {"preset": "manufactured", "amplitude": 0.15}, 1e-3, steps, 1),
            _run_job("budget1d/noise", 1, 64, _physics(),
                     {"preset": "random_bandlimited", "amplitude": 0.05,
                      "seed": seed}, 5e-4, 2 * steps, 1, seeded=True),
        ]
    if workload == "dyadic":
        noise = {
            "grid": {"dim": 2, "n": 256},
            "physics": _physics(),
            "initial": {"preset": "random_bandlimited", "amplitude": 0.05,
                        "seed": seed},
        }
        return [
            Job("dyadic/calibrate", "calibrate", CALIBRATE),
            Job("dyadic/picard", "picard", {
                "grid": {"dim": 2, "n": 32},
                "physics": _physics(),
                "initial": {"preset": "smooth_bump", "amplitude": 0.05},
                "picard": {"horizon": 1.0, "n_steps": 32, "tol": 1e-10,
                           "max_iters": 30},
            }),
            Job("dyadic/besov", "besov", noise, ("--p", "3"), seeded=True),
            Job("dyadic/lifespan", "lifespan", noise, seeded=True),
        ]
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


def write_inputs(jobs, workdir: Path):
    """Write each job's generated INI file; the only input capns receives."""
    for job in jobs:
        if job.command == "calibrate":
            continue
        lines = []
        for section, values in job.config.items():
            lines.append(f"[{section}]")
            lines += [f"{key} = {value!r}" if isinstance(value, float)
                      else f"{key} = {value}" for key, value in values.items()]
        job.paths(workdir)["ini"].write_text("\n".join(lines) + "\n")


# -- execution ---------------------------------------------------------------

@dataclass
class Outcome:
    wall_s: float
    exit_code: int = None
    crash: str = None         # the traceback of a job that raised
    payload: dict = None
    csv_header: list = None
    csv_rows: int = 0
    csv_last: dict = None
    value: float = None       # calibrate_c1 result


def invoke(job: Job, workdir: Path):
    """The job's call into capns: the CLI's exit code, or calibrate_c1's C1."""
    import capns.cli
    import capns.lifespan

    if job.command == "calibrate":
        return capns.lifespan.calibrate_c1(**job.config)
    with contextlib.redirect_stdout(io.StringIO()):
        return capns.cli.main(job.argv(workdir))


def execute(job: Job, workdir: Path, tracer) -> Outcome:
    """Run one job in-process. Only the capns call is timed, by a top-level
    ``job`` span of ``tracer``; reading the outputs back is not."""
    span = tracer.open("job", {"name": job.name, "cli": job.command != "calibrate"})
    try:
        result = invoke(job, workdir)
    except Exception:       # a job that raises is a failed job
        tracer.close(span)
        return Outcome(span.end - span.start, crash=traceback.format_exc(limit=-3))
    tracer.close(span)
    out = Outcome(span.end - span.start)
    if job.command == "calibrate":
        out.exit_code, out.value = 0, result
        return out
    out.exit_code = result
    paths = job.paths(workdir)
    if paths["json"].exists():
        out.payload = json.loads(paths["json"].read_text())
    if job.command == "run" and paths["csv"].exists():
        with open(paths["csv"], newline="") as fh:
            rows = list(csv.reader(fh))
        out.csv_header = rows[0]
        out.csv_rows = len(rows) - 1
        out.csv_last = dict(zip(rows[0], map(float, rows[-1])))
    return out


def steps_of(job: Job, out: Outcome) -> int:
    """Accepted time steps of a run job."""
    return out.payload.get("steps", 0) if job.command == "run" and out.payload else 0


# -- output checks -------------------------------------------------------------

def reference_values(job: Job, out: Outcome) -> dict:
    """The values of a job's output that are stored and compared."""
    if job.command == "run":
        last = out.csv_last or {}
        return {"steps": out.payload["steps"], "rows": out.csv_rows,
                **{k: last.get(k) for k in ("energy", "bd_entropy", "min_rho")}}
    if job.command == "picard":
        return {"iterations": out.payload["iterations"],
                "last_diff_norm": out.payload["diff_norms"][-1]}
    if job.command == "besov":
        return {"log_density_norm": out.payload["log_density"]["norm"],
                "velocity_norms": [c["norm"] for c in out.payload["velocity"]]}
    if job.command == "lifespan":
        return {"lower_bound": out.payload["lower_bound"],
                "active_branch": out.payload["active_branch"]}
    return {"c1": out.value}


def _close(a, b) -> bool:
    return abs(a - b) <= REF_RTOL * abs(b)


def _compare(got, want, key, problems):
    if isinstance(want, list):
        if len(got) != len(want):
            problems.append(f"{key}: {len(got)} values, reference has {len(want)}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{key}[{i}]", problems)
    elif isinstance(want, float):
        if got is None or not _close(got, want):
            problems.append(f"{key} = {got!r}, reference {want!r} (rtol {REF_RTOL})")
    elif got != want:
        problems.append(f"{key} = {got!r}, reference {want!r}")


def check(job: Job, out: Outcome, reference: dict, csv_columns: list) -> list:
    """Problems with one job's output; an empty list means it is correct.

    Physical verdicts are checked for every seed; ``reference`` (None when
    no value is stored for this seed) adds the frozen-value comparison.
    """
    if out.crash:
        return [f"raised {out.crash}"]
    problems = []
    if job.command == "calibrate":
        if abs(out.value - C1_EXPECTED) > C1_WIDTH * C1_EXPECTED:
            problems.append(f"calibrate_c1 = {out.value}, outside "
                            f"{C1_EXPECTED} +- {C1_WIDTH * C1_EXPECTED}")
    else:
        if out.exit_code != 0:
            problems.append(f"exit code {out.exit_code}")
        if not out.payload:
            return problems + ["no JSON summary"]
        if out.payload.get("cause") != "ok":
            problems.append(f"cause {out.payload.get('cause')!r}")
        if problems:
            return problems
        problems += _physical_checks(job, out, csv_columns)
    if reference is not None and not problems:
        got = reference_values(job, out)
        for key, want in reference.items():
            _compare(got.get(key), want, key, problems)
    return problems


def _physical_checks(job, out, csv_columns):
    p = out.payload
    problems = []
    if job.command == "run":
        if out.csv_header != csv_columns:
            problems.append(f"CSV header {out.csv_header} != {csv_columns}")
        if not p["energy_check"]["ok"]:
            problems.append(f"energy/entropy verdict: {p['energy_check']['detail']}")
        if not p["mass_drift"] < MASS_DRIFT_MAX:
            problems.append(f"mass drift {p['mass_drift']:.3e} >= {MASS_DRIFT_MAX}")
        stride = job.config["solver"]["diag_stride"]
        want_rows = math.ceil(p["steps"] / stride) + 1
        if out.csv_rows != want_rows or p["rows"] != want_rows:
            problems.append(f"{out.csv_rows} CSV rows, expected {want_rows}")
    elif job.command == "picard":
        tol = job.config["picard"]["tol"]
        if not (p["converged"] and p["diff_norms"][-1] < tol):
            problems.append(f"Picard iteration did not reach tol {tol}")
    elif job.command == "besov":
        # r = 1: the norm is the sum of the weighted block norms
        for label, rep in [("log_density", p["log_density"])] + [
                (f"velocity[{i}]", c) for i, c in enumerate(p["velocity"])]:
            total = sum(b["weighted"] for b in rep["blocks"])
            if not (math.isfinite(rep["norm"]) and rep["norm"] > 0
                    and abs(total - rep["norm"]) <= 1e-12 * rep["norm"]):
                problems.append(f"{label} Besov norm {rep['norm']} inconsistent "
                                f"with its blocks ({total})")
    elif job.command == "lifespan":
        bound = p["lower_bound"]
        if not (math.isfinite(bound) and bound > 0
                and bound == min(p["branches"].values())
                and p["branches"][p["active_branch"]] == bound):
            problems.append(f"lifespan bound {bound} is not the least branch")
    return problems
