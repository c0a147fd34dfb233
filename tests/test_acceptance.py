"""Acceptance gate: eleven checks, one printed verdict line each.

Run with `python3 -m pytest tests/test_acceptance.py -v -s` to see the
per-criterion lines. Budgets are wall-clock assertions where stated.
"""
import dataclasses
import math
import time

import numpy as np
import pytest

from capns.diagnostics import (
    DiagnosticsAccumulator,
    check_energy_inequality,
    level_set_report,
    lp_gain_check,
)
from capns.errors import NonContraction, VacuumBreach
from capns.fields import Grid, RealField
from capns.lifespan import (
    LifespanInputs,
    branch_values,
    calibrate_c1,
    lifespan_lower_bound,
    norms_for_data,
)
from capns.model import EffectiveState, PhysParams
from capns.presets import Preset, build
from capns.solver import PicardConfig, SolverConfig, picard_solve, run
from capns.verify import run_suite


def _line(num, name, ok, detail):
    tag = "PASS" if ok else "FAIL"
    print(f"\ncriterion {num:02d} [{tag}] {name}: {detail}")
    assert ok, f"criterion {num:02d} {name}: {detail}"


def _suite_stats(report):
    worst = max((c.measured / c.threshold for c in report.cases
                 if c.measured is not None and c.threshold), default=0.0)
    npass = sum(c.passed for c in report.cases)
    return npass, len(report.cases), worst


def test_c01_capillary_form_identity():
    t0 = time.perf_counter()
    rep = run_suite("divk")
    elapsed = time.perf_counter() - t0
    npass, total, worst = _suite_stats(rep)
    _line(1, "capillary form identity", rep.ok and elapsed < 10.0,
          f"{npass}/{total} comparisons < 1e-8 (worst {worst:.2e} of budget, "
          f"{elapsed:.1f}s)")


def test_c02_formulation_equivalence():
    t0 = time.perf_counter()
    rep = run_suite("equivalence")
    elapsed = time.perf_counter() - t0
    case = rep.cases[0]
    _line(2, "formulation equivalence", rep.ok and elapsed < 30.0,
          f"sup density gap {case.measured:.2e} < {case.threshold:.0e} "
          f"({elapsed:.1f}s)")


ENERGY_RUNS = (
    ("1d isothermal bump", 1, 128, PhysParams(mu=0.15, kappa=0.0225),
     Preset("smooth_bump", amplitude=0.1), 1e-3, 1),
    ("1d adiabatic bump", 1, 128,
     PhysParams(mu=0.15, kappa=0.0225, a=0.9, gamma=1.4),
     Preset("smooth_bump", amplitude=0.1), 1e-3, 1),
    ("1d single-mode root", 1, 128, PhysParams(mu=0.2, kappa=0.04, a=0.8),
     Preset("manufactured", amplitude=0.15), 1e-3, 1),
    ("2d bump", 2, 64, PhysParams(mu=0.15, kappa=0.0225),
     Preset("smooth_bump", amplitude=0.05), 1e-3, 2),
    ("1d bandlimited noise", 1, 64, PhysParams(mu=0.15, kappa=0.0225),
     Preset("random_bandlimited", amplitude=0.05, seed=7), 5e-4, 1),
)


def test_c03_energy_and_entropy_budgets():
    t0 = time.perf_counter()
    failures = []
    for label, dim, n, params, preset, dt, stride in ENERGY_RUNS:
        g = Grid(dim=dim, n=n)
        state = build(preset, g, params)
        acc = DiagnosticsAccumulator(params)
        res = run(state, params,
                  SolverConfig(dt=dt, t_end=1.0, diag_stride=stride),
                  diag_fn=acc)
        verdict = check_energy_inequality(res.records, tol=1e-4)
        if not verdict.ok:
            failures.append(f"{label}: {verdict.detail}")
    elapsed = time.perf_counter() - t0
    _line(3, "energy and entropy budgets",
          not failures and elapsed < 120.0,
          f"{len(ENERGY_RUNS) - len(failures)}/{len(ENERGY_RUNS)} runs to t=1 "
          f"within 1e-4 at every diagnostic time ({elapsed:.1f}s)"
          + ("; " + "; ".join(failures) if failures else ""))


def test_c04_mass_conservation():
    g = Grid(dim=1, n=128)
    params = PhysParams(mu=0.15, kappa=0.0225)
    state = build(Preset("smooth_bump", amplitude=0.1), g, params)
    acc = DiagnosticsAccumulator(params)
    res = run(state, params, SolverConfig(dt=1e-3, t_end=1.0, diag_stride=50),
              diag_fn=acc)
    masses = [r.mass for r in res.records]
    drift = max(abs(m - masses[0]) for m in masses) / masses[0]
    _line(4, "mass conservation", drift < 1e-10,
          f"relative drift {drift:.2e} over t in [0,1]")


def test_c05_weighted_velocity_gain():
    worst = 0.0
    all_ok = True
    for dim, n, amp, t_end in ((1, 128, 0.1, 1.0), (2, 64, 0.05, 0.5)):
        g = Grid(dim=dim, n=n)
        params = PhysParams(mu=0.15, kappa=0.0225)
        state = build(Preset("smooth_bump", amplitude=amp), g, params)
        acc = DiagnosticsAccumulator(params)
        res = run(state, params,
                  SolverConfig(dt=1e-3, t_end=t_end, diag_stride=10),
                  diag_fn=acc)
        for p in (4, 8, 16):
            rep = lp_gain_check(res.records, p, params, dim, tol=1e-3)
            all_ok = all_ok and rep.verdict
            worst = max(worst, max(l / r for l, r in zip(rep.lhs, rep.rhs)))
    _line(5, "weighted velocity gain", all_ok,
          f"p in (4, 8, 16), two runs, all recorded times; "
          f"max lhs/rhs {worst:.3f}")


def test_c06_heat_block_decay():
    rep = run_suite("heat")
    npass, total, _ = _suite_stats(rep)
    _line(6, "heat block decay", rep.ok,
          f"{npass}/{total} resolved blocks inside both decay envelopes "
          f"at t in (0.01, 0.1, 1)")


def test_c07_dyadic_analysis_suite():
    rep_b = run_suite("besov")
    rep_p = run_suite("bony")
    nb, tb, _ = _suite_stats(rep_b)
    np_, tp, _ = _suite_stats(rep_p)
    _line(7, "dyadic analysis suite", rep_b.ok and rep_p.ok,
          f"partition/reconstruction/derivative-ratio {nb}/{tb}, "
          f"product splitting {np_}/{tp}")


def test_c08_truncation_recursion():
    rep = run_suite("degiorgi")
    npass, total, _ = _suite_stats(rep)
    _line(8, "truncation recursion", rep.ok,
          f"{npass}/{total} cases: saturating sequences to 1e-12, "
          f"randomized vanishing verdicts exact")


def test_c09_existence_time_formula():
    unit = LifespanInputs(1.0, 1.0, 1.0, 1.0)
    t, branch = lifespan_lower_bound(unit)
    want = 1.0 / (32.0 * (1.0 + math.sqrt(2.0)) ** 2)
    value_ok = abs(t - want) < 1e-6 * want and branch == "data_size"

    # monotone response: bound moves the documented direction per argument
    rng = np.random.default_rng(2024)
    down = ("norm_q0_crit", "norm_v0_crit", "norm_q0_sur", "norm_v0_sur", "C")
    up = ("c", "mu", "eps")
    bad = 0
    for _ in range(1000):
        inp = LifespanInputs(
            *(rng.uniform(0.1, 3.0) for _ in range(4)),
            C=rng.uniform(0.5, 2.0), C1=rng.uniform(0.5, 2.0),
            c=rng.uniform(0.5, 2.0), mu=rng.uniform(0.05, 1.0),
            eps=rng.uniform(0.1, 1.0), eps_prime=rng.uniform(0.1, 1.0))
        t_base, _ = lifespan_lower_bound(inp)
        name = (down + up)[rng.integers(0, len(down) + len(up))]
        bigger = dataclasses.replace(
            inp, **{name: getattr(inp, name) * (1.0 + rng.uniform(0.0, 2.0))})
        t_new, _ = lifespan_lower_bound(bigger)
        if name in down:
            bad += t_new > t_base + 1e-15
        else:
            bad += t_new < t_base - 1e-15
    _line(9, "existence time formula", value_ok and bad == 0,
          f"unit inputs give {t:.6e} on branch {branch} "
          f"(reference {want:.6e}); {1000 - bad}/1000 monotone perturbations")


def test_c10_contraction_iteration():
    t0 = time.perf_counter()
    c1 = calibrate_c1(mu=0.15)
    g = Grid(dim=1, n=64)
    amp = 1e-3
    q0 = RealField(g, amp * np.cos(g.x[0]))
    v0 = (RealField(g, amp * np.sin(g.x[0])),)
    inp = norms_for_data(q0, v0, mu=0.15, C1=c1, eps=1.0)
    T, branch = lifespan_lower_bound(inp)
    params = PhysParams(mu=0.15, kappa=0.0225)
    result = picard_solve(q0, v0, params, T,
                          PicardConfig(max_iters=12, tol=1e-30, n_steps=64))
    diffs = result.diff_norms
    ratios = [b / a for a, b in zip(diffs, diffs[1:]) if a > 0]
    streak = best = 0
    for r in ratios:
        streak = streak + 1 if r < 1.0 else 0
        best = max(best, streak)

    big = EffectiveState(
        RealField(g, 5.0 * np.cos(g.x[0])),
        (RealField(g, 5.0 * np.sin(g.x[0])),))
    with pytest.raises(NonContraction):
        picard_solve(big.q, big.v, params, 2.0,
                     PicardConfig(max_iters=25, n_steps=64))
    elapsed = time.perf_counter() - t0
    _line(10, "contraction iteration", best >= 5 and elapsed < 60.0,
          f"calibrated C1={c1:.1f}, T={T:.4f} ({branch}); "
          f"{best} consecutive contracting ratios; large data at T=2 "
          f"raises NonContraction ({elapsed:.1f}s)")


def test_c11_vacuum_monitoring():
    g = Grid(dim=1, n=128)
    params = PhysParams(mu=0.15, kappa=0.0225)
    state = build(Preset("near_vacuum", delta=0.05), g, params)
    states, times = [state], [0.0]

    def collect(step, t, s):
        if step % 100 == 0:
            states.append(s)
            times.append(t)

    outcome = ""
    try:
        res = run(state, params,
                  SolverConfig(dt=5e-4, t_end=0.5, vacuum_floor=1e-3),
                  callbacks=(collect,))
        states.append(res.final_state)
        times.append(res.t_final)
        final_min = float(np.min(res.final_state.rho.values))
        outcome = f"completed with min rho {final_min:.3f} > 1e-3"
        run_ok = final_min > 1e-3
    except VacuumBreach as exc:
        outcome = f"aborted cleanly at t={exc.t:.3f} (min rho {exc.min_rho:.2e})"
        run_ok = True

    # measures equal independent cell counting, bit for bit
    exact = True
    levels = (1.0, 2.0, 4.0, 8.0, 16.0)
    for k in levels:
        rep = level_set_report(states, times, params,
                               alpha=1.0, k=k, r=4.0, q=3.0)
        for s, lam in zip(states, rep.measures):
            rho = s.rho.values
            count = int(np.sum(rho ** (-1.0) >= k))
            exact = exact and lam == g.cell_volume * count

    mus = [level_set_report(states, times, params,
                            alpha=1.0, k=k, r=4.0, q=3.0).mu_k
           for k in levels]
    monotone = all(a >= b for a, b in zip(mus, mus[1:]))
    _line(11, "vacuum monitoring", run_ok and exact and monotone,
          f"{outcome}; level-set measures match counting exactly at "
          f"{len(levels)} thresholds; mu(k) nonincreasing")
