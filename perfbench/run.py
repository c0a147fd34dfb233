"""capns benchmark: one workload, measured for a fixed time, outputs checked.

    python3 perfbench/run.py --workload sim2d --seed 0 --seconds 30 --trace 0

The workload's fixed job list (see workloads.py) is repeated for as long as
another repetition fits in ``--seconds``, and every job's output is checked.
With ``--trace 0`` the last line of standard output carries the end-to-end
metrics of BENCHMARK.json; with ``--trace 1`` repetitions alternate in pairs
between untraced and traced, and the last line carries the per-layer
metrics. The line before it is a report with every sample, per-job times,
throughput and the machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench"
SETUP_PROBES = 20
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def on_cpu(k, cpus):
    """Pin this process to the k-th CPU of ``cpus``, round robin.

    On a shared host one core can run far slower than the other for
    minutes; a process left where the scheduler put it may see only that
    core for a whole run.
    """
    os.sched_setaffinity(0, {cpus[k % len(cpus)]})


class SetupProbes:
    """Set-up seconds of fresh interpreters (setup_probe.py), each with the
    reference kernel's time right after it, spread over the run. The first
    probe, which fills the bytecode and file caches, is dropped."""

    def __init__(self, bench):
        self.cmd = [sys.executable, str(HERE / "setup_probe.py"),
                    bench.args.workload, str(bench.args.seed), str(bench.workdir)]
        self.period = bench.args.seconds / SETUP_PROBES
        self.probe()
        self.samples = []

    def probe(self) -> tuple:
        # the probe inherits this process's CPU affinity
        done = subprocess.run(self.cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=60, check=True)
        setup, kernel = map(float, done.stdout.split())
        return setup, kernel

    def due(self, elapsed):
        """Take the probes whose turn has come ``elapsed`` seconds in."""
        while (len(self.samples) < SETUP_PROBES
               and elapsed >= len(self.samples) * self.period):
            self.samples.append(self.probe())

    def finish(self) -> list:
        self.due(float("inf"))
        return self.samples


def _cache_sizes():
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = ((index / f).read_text().strip()
                                 for f in ("level", "type", "size"))
        except OSError:
            continue
        if kind in ("Unified", "Data"):
            sizes[f"L{level}"] = size
    return sizes


def machine_info(np) -> dict:
    model = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    deps = np.show_config(mode="dicts").get("Build Dependencies", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_used": sorted(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches_per_cpu0": _cache_sizes(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas_lapack": {k: {f: v.get(f) for f in ("name", "version")}
                              for k, v in deps.items() if k in ("blas", "lapack")},
        "numpy_fft": "pocketfft, bundled with numpy",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "roofline": "not reported: no peak compute rate or memory bandwidth is "
                    "measured, and the largest array (2-D n=256 complex, 1 MiB) "
                    "is far below 4x the last-level cache",
    }


class Bench:
    """The job list of one run, its repetitions and the outcome checks."""

    def __init__(self, args, workdir):
        from workloads import jobs_for, write_inputs

        self.args = args
        self.workdir = workdir
        self.cpus = sorted(os.sched_getaffinity(0))
        self.jobs = jobs_for(args.workload, args.seed)
        write_inputs(self.jobs, workdir)
        refs = json.loads((HERE / "references.json").read_text())
        self.csv_columns = refs["csv_columns"]
        self.references = {
            job.name: refs["jobs"].get(job.name, {}).get(
                str(args.seed) if job.seeded else "any")
            for job in self.jobs}
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def repetition(self, tracer, kernel=None):
        """Run the job list once; returns per-job walls (the capns calls
        only), accepted steps, and the times of ``kernel`` run before the
        first job and after each job (None without a kernel)."""
        from workloads import check, execute, steps_of

        walls, steps = {}, 0
        kernel_s = [kernel()] if kernel else None
        tracer.reset()
        for job in self.jobs:
            out = execute(job, self.workdir, tracer)
            if kernel:
                kernel_s.append(kernel())
            walls[job.name] = out.wall_s
            steps += steps_of(job, out)
            problems = check(job, out, self.references[job.name], self.csv_columns)
            self.attempted += 1
            self.failed += bool(problems)
            self.problems += [f"{job.name}: {p}" for p in problems]
        return walls, steps, kernel_s

    def repeat(self, run_once, min_reps=1, between=None):
        """Repeat, rotating over the CPUs, while the next repetition is
        expected to end within --seconds; ``between(elapsed)`` runs after
        each repetition, on the CPU of the one before."""
        start = time.perf_counter()
        results = []
        while True:
            on_cpu(len(results), self.cpus)
            t0 = time.perf_counter()
            results.append(run_once(len(results)))
            last = time.perf_counter() - t0
            if between:
                between(time.perf_counter() - start)
            if (len(results) >= min_reps
                    and time.perf_counter() - start + last > self.args.seconds):
                os.sched_setaffinity(0, self.cpus)
                return results


def untraced(bench):
    from kernel import NOMINAL_S, ReferenceKernel
    from spans import Tracer

    probes = SetupProbes(bench)
    kernel = ReferenceKernel()
    tracer = Tracer()       # holds only the job spans that time each job
    reps = bench.repeat(lambda _: bench.repetition(tracer, kernel),
                        between=probes.due)
    setup = probes.finish()
    job_walls = {job.name: [w[job.name] for w, _, _ in reps] for job in bench.jobs}
    # each job over the mean of the kernel times just before and after it
    job_refs = {job.name: [w[job.name] / (0.5 * (k[i] + k[i + 1]))
                           for w, _, k in reps]
                for i, job in enumerate(bench.jobs)}
    wall = sum(min(v) for v in job_walls.values())
    steps = reps[0][1]
    metrics = {
        "wall_ref": sum(statistics.median(v) for v in job_refs.values()),
        "setup_s": NOMINAL_S * statistics.median(s / k for s, k in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    report = {
        "samples": {"repetitions": len(reps), "setup_s": len(setup)},
        "wall_s_of_job_minima": wall,
        "wall_s_of_job_medians": sum(statistics.median(v) for v in job_walls.values()),
        "kernel_s_median": statistics.median(k for _, _, ks in reps for k in ks),
        "job_wall_s": job_walls,
        "job_wall_ref": job_refs,
        "setup_s_measured_median": statistics.median(s for s, _ in setup),
        "setup_s_samples": [s for s, _ in setup],
        "setup_kernel_s_samples": [k for _, k in setup],
        "steps_per_s": steps / wall,
        "steps_per_rep": steps,
    }
    return metrics, report


def traced(bench):
    from layers import RepView, layer_metrics
    from spans import Installation, Tracer, write_spans

    tracer = Tracer()
    inst = Installation(tracer)
    inst.install_leaves()
    import capns  # noqa: F401  (after the leaf wrappers, so none is bypassed)
    inst.install_spans()

    def once(k):
        # pairs of untraced then traced repetitions, each pair over both CPUs
        on = (k // 2) % 2 == 1
        (inst.enable if on else inst.disable)()
        walls, _, _ = bench.repetition(tracer)
        return on, sum(walls.values()), tracer.spans

    reps = bench.repeat(once, min_reps=4)
    inst.disable()
    views = [RepView(spans) for on, _, spans in reps if on]
    # summed job spans, as RepView.wall is for the traced repetitions
    plain = [wall for on, wall, _ in reps if not on]
    metrics, problems = layer_metrics(views, plain)
    bench.problems += problems
    if bench.args.workload in ("sim2d", "budget1d") and not (
            metrics["fft.calls_per_step.primitive"]
            or metrics["fft.calls_per_step.effective"]):
        bench.problems.append("traced run recorded no transforms in a stepping workload")
    trace_path = STATE_DIR / f"trace-{bench.args.workload}-seed{bench.args.seed}.jsonl"
    write_spans(trace_path, [spans for on, _, spans in reps if on])
    report = {"samples": {"traced": len(views), "untraced": len(plain)},
              "untraced_rep_s": plain, "traced_rep_s": [v.wall for v in views],
              # exact iteration count over the fastest untraced repetition
              "picard_iters_per_s": metrics["solver.picard_iters"] / min(plain),
              "spans_file": str(trace_path.relative_to(ROOT))}
    return metrics, report


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "capns" / "__init__.py").is_file():
        print(f"capns sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(HERE))
    sys.path.insert(0, str(ROOT / "src"))
    import numpy as np

    workdir = STATE_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args, workdir)
        metrics, report = (traced if args.trace else untraced)(bench)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report.update(workload=args.workload, seed=args.seed, trace=args.trace,
                  attempted=bench.attempted,
                  fail_ratio=bench.failed / bench.attempted,
                  problems=bench.problems[:20], machine=machine_info(np))
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": not bench.problems,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if not bench.problems else 1


if __name__ == "__main__":
    sys.exit(main())
