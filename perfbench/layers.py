"""Per-layer metrics from the spans of the traced repetitions.

A layer the workload never calls reports 0: its counts are exactly 0 and
it has no busy time. Exact counts must repeat in every traced repetition.
BENCHMARK.json lists the metrics with their units.
"""

from __future__ import annotations

import statistics

EXACT = ("fft.calls_per_step.primitive", "fft.calls_per_step.effective",
         "fft.calls_per_record", "fft.calls_per_picard_iter",
         "solver.picard_iters", "lp_besov.interp_calls_per_solve",
         "lifespan.calibrate_solves")


class RepView:
    """Inclusive counts, self times and ancestry of one repetition's spans.
    A child span always comes after its parent in opening order."""

    def __init__(self, spans):
        self.spans = spans
        n = len(spans)
        self.dur = [s.end - s.start for s in spans]
        self.fft_n = [s.fft_n for s in spans]
        self.interp_n = [s.interp_n for s in spans]
        children_t = [0.0] * n
        for i in reversed(range(n)):
            p = spans[i].parent
            if p is not None:
                self.fft_n[p] += self.fft_n[i]
                self.interp_n[p] += self.interp_n[i]
                children_t[p] += self.dur[i]
        self.self_t = [self.dur[i] - children_t[i] - s.fft_t - s.interp_t
                       for i, s in enumerate(spans)]
        self.wall = sum(self.dur[i] for i, s in enumerate(spans) if s.parent is None)

    def where(self, name, **attrs):
        return [i for i, s in enumerate(self.spans) if s.name == name and all(
            (s.attrs or {}).get(k) == v for k, v in attrs.items())]

    def ancestors(self, i):
        p = self.spans[i].parent
        while p is not None:
            yield self.spans[p]
            p = self.spans[p].parent

    def outermost(self, prefix):
        """Spans named ``prefix...`` with no such span above them."""
        return [i for i, s in enumerate(self.spans) if s.name.startswith(prefix)
                and not any(a.name.startswith(prefix) for a in self.ancestors(i))]


def _ratio(num, den):
    return num / den if den else 0.0


def _pct(values, q):
    """Percentile q (0-100) by linear interpolation; 0 for no samples."""
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def exact_counts(v: RepView) -> dict:
    steps = {f: v.where("solver.step_imex", formulation=f)
             for f in ("primitive", "effective")}
    records = v.where("diagnostics.record")
    solves = v.where("solver.picard_solve")
    iters = sum(v.spans[i].attrs["iterations"] for i in solves)
    calib = v.where("lifespan.calibrate_c1")
    calib_solves = [i for i in solves if any(
        a.name == "lifespan.calibrate_c1" for a in v.ancestors(i))]
    out = {f"fft.calls_per_step.{f}": _ratio(sum(v.fft_n[i] for i in idx), len(idx))
           for f, idx in steps.items()}
    out.update({
        "fft.calls_per_record": _ratio(sum(v.fft_n[i] for i in records), len(records)),
        "fft.calls_per_picard_iter": _ratio(sum(v.fft_n[i] for i in solves), iters),
        "solver.picard_iters": iters,
        "lp_besov.interp_calls_per_solve":
            _ratio(sum(v.interp_n[i] for i in solves), len(solves)),
        "lifespan.calibrate_solves": _ratio(len(calib_solves), len(calib)),
    })
    return out


def layer_metrics(views, untraced_walls) -> tuple:
    """(metrics, problems): every per-layer metric, pooled over the traced
    repetitions, and the exact counts that did not repeat."""
    counts = [exact_counts(v) for v in views]
    problems = [f"{k} differs between traced repetitions: "
                f"{[c[k] for c in counts]}" for k in EXACT
                if len({c[k] for c in counts}) > 1]
    m = dict(counts[0])
    wall = sum(v.wall for v in views)

    def durations(name, **attrs):
        return [v.dur[i] for v in views for i in v.where(name, **attrs)]

    def median_ms(name, **attrs):
        d = durations(name, **attrs)
        return 1e3 * statistics.median(d) if d else 0.0

    def self_share(name):
        return sum(v.self_t[i] for v in views for i in v.where(name)) / wall

    fft_n = sum(s.fft_n for v in views for s in v.spans)
    fft_t = sum(s.fft_t for v in views for s in v.spans)
    fft_flops = sum(s.fft_flops for v in views for s in v.spans)
    m["fft.busy_share"] = fft_t / wall
    m["fft.us_per_call"] = 1e6 * _ratio(fft_t, fft_n)
    m["fft.gflops_computed"] = 1e-9 * _ratio(fft_flops, fft_t)

    for form in ("primitive", "effective"):
        m[f"model.rhs_ms.{form}"] = median_ms(f"model.rhs_{form}")
        steps = sorted(durations("solver.step_imex", formulation=form))
        for q in (50, 90):
            m[f"solver.step_ms.{form}.p{q}"] = 1e3 * _pct(steps, q)
    m["model.rhs_self_share"] = (self_share("model.rhs_primitive")
                                 + self_share("model.rhs_effective"))
    m["solver.step_self_share"] = self_share("solver.step_imex")

    for dim in (1, 2):
        solves = [(v.dur[i], v.spans[i].attrs["iterations"]) for v in views
                  for i in v.where("solver.picard_solve", dim=dim)]
        m[f"solver.picard_iter_ms.{dim}d"] = 1e3 * _ratio(
            sum(d for d, _ in solves), sum(n for _, n in solves))

    all_steps = durations("solver.step_imex")
    m["diagnostics.record_ms"] = median_ms("diagnostics.record")
    m["diagnostics.record_to_step_ratio"] = _ratio(
        m["diagnostics.record_ms"], 1e3 * statistics.median(all_steps) if all_steps else 0.0)
    m["diagnostics.share"] = (sum(durations("diagnostics.record"))
                              + sum(durations("diagnostics.write_csv"))) / wall
    m["diagnostics.write_csv_ms"] = median_ms("diagnostics.write_csv")

    m["lp_besov.share"] = sum(v.dur[i] for v in views
                              for i in v.outermost("lp_besov.")) / wall
    m["lp_besov.tilde_norm_ms"] = median_ms("lp_besov.tilde_norm")
    m["lp_besov.block_norms_ms.p2"] = median_ms("lp_besov.block_norms", p=2.0)
    m["lp_besov.block_norms_ms.p3"] = median_ms("lp_besov.block_norms", p=3.0)

    calib = durations("lifespan.calibrate_c1")
    m["lifespan.calibrate_c1_s"] = statistics.median(calib) if calib else 0.0
    m["lifespan.norms_for_data_ms"] = median_ms("lifespan.norms_for_data")
    m["presets.build_ms"] = median_ms("presets.build")

    # the CLI's own work: each CLI job's self time plus its CSV writes
    cli = sum(v.self_t[i] for v in views for i in v.where("job", cli=True))
    m["cli.self_share"] = (cli + sum(durations("diagnostics.write_csv"))) / wall
    # fastest traced repetition against the fastest untraced one
    m["trace.overhead_share"] = min(v.wall for v in views) / min(untraced_walls) - 1.0
    return m, problems
