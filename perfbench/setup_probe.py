"""Time one fresh interpreter's set-up for a workload and print it in
seconds, followed by the median time of five runs of the reference kernel
right after it.

Set-up is ``import capns`` (numpy with it) plus, for each job of the
workload, the program's own path from ``capns.cli.main(argv)`` up to its
first timed call: config parse, grid, parameters and preset build,
``to_effective``, and whatever lazy caches that path fills. The first timed
call is ``solver.run``, ``solver.picard_solve``, ``lifespan.norms_for_data``
or ``lp_besov.block_report``; for the calibrate job it is
``lifespan.calibrate_c1`` itself. A wrapper on each of them records the time
and ends the job there.

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>
"""

import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import invoke, jobs_for  # noqa: E402  (stdlib only, imports no capns)

FIRST_TIMED_CALLS = ("solver.run", "solver.picard_solve",
                     "lifespan.norms_for_data", "lp_besov.block_report",
                     "lifespan.calibrate_c1")


def main(workload, seed, workdir):
    jobs = jobs_for(workload, int(seed))
    t0 = time.perf_counter()
    sys.path.insert(0, str(HERE.parent / "src"))
    import capns.cli  # noqa: F401
    total = time.perf_counter() - t0

    from kernel import ReferenceKernel  # numpy is loaded by now
    from spans import SetupDone, install_stops

    install_stops(FIRST_TIMED_CALLS)
    for job in jobs:
        t0 = time.perf_counter()
        try:
            invoke(job, Path(workdir))
        except SetupDone as done:
            total += done.at - t0
        else:
            raise SystemExit(f"{job.name} ended without a timed call")
    kernel = ReferenceKernel()
    kernel()                # the first call also plans the transforms
    print(repr(total), repr(statistics.median(kernel() for _ in range(5))))


if __name__ == "__main__":
    main(*sys.argv[1:4])
