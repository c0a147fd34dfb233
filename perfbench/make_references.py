"""Regenerate references.json, the frozen output values each job is compared
with (final energy, BD entropy and min rho of every run; Picard iterations
and last difference norm; Besov norms; the lifespan bound; calibrate_c1).

    python3 perfbench/make_references.py --seeds 32

Seed-independent jobs are stored once, under "any"; seeded jobs once per
seed in 0 .. seeds-1. A job whose physical verdicts fail stops the script.
"""

import argparse
import json
import platform
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

from workloads import (WORKLOADS, check, execute, jobs_for,  # noqa: E402
                       reference_values, write_inputs)
from spans import Tracer  # noqa: E402


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=int, default=32)
    args = ap.parse_args(argv)

    import numpy as np
    import capns
    from capns.diagnostics import CSV_COLUMNS

    workdir = HERE.parent / ".perfbench" / "references"
    workdir.mkdir(parents=True, exist_ok=True)
    jobs = {}
    try:
        for workload in WORKLOADS:
            for seed in range(args.seeds):
                todo = [j for j in jobs_for(workload, seed)
                        if j.seeded or seed == 0]
                write_inputs(todo, workdir)
                for job in todo:
                    out = execute(job, workdir, Tracer())
                    problems = check(job, out, None, list(CSV_COLUMNS))
                    if problems:
                        raise SystemExit(f"{job.name} seed {seed}: {problems}")
                    key = str(seed) if job.seeded else "any"
                    jobs.setdefault(job.name, {})[key] = reference_values(job, out)
                    print(f"{job.name} [{key}] {out.wall_s:.2f}s", file=sys.stderr)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    refs = {
        "produced_with": {"capns": capns.__version__, "numpy": np.__version__,
                          "python": platform.python_version(),
                          "seeds": f"0..{args.seeds - 1} for seeded jobs"},
        "csv_columns": list(CSV_COLUMNS),
        "jobs": jobs,
    }
    (HERE / "references.json").write_text(json.dumps(refs, indent=1) + "\n")


if __name__ == "__main__":
    main()
