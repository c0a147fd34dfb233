"""Guaranteed-existence-time arithmetic.

Evaluates the explicit lower bound on the horizon over which the fixed-point
construction is known to work, from dyadic-block norms of the initial data,
and drives the greedy restart schedule built on it. The harmonic-analysis
constants C, C1, c are not numeric in the underlying estimates; they default
to 1 and calibrate_c1 offers an operational fit against the iteration solver.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, NonContraction, ScheduleStall, finite_number
from .fields import Grid, RealField
from .lp_besov import BesovSpec, _weighted_lr, block_norms
from .model import PhysParams

BRANCH_NAMES = ("q_regularity", "v_regularity", "iteration_window", "data_size")


@dataclass(frozen=True)
class LifespanInputs:
    """Besov norms of the initial data plus the constants of the bound.

    crit norms live at the scaling-critical regularity (N/p for the log
    density, N/p - 1 for the velocity); sur norms at the same indices
    shifted up by eps_prime. The Lebesgue exponent p and dimension are
    recorded for bookkeeping when known.
    """

    norm_q0_crit: float
    norm_v0_crit: float
    norm_q0_sur: float
    norm_v0_sur: float
    C: float = 1.0
    C1: float = 1.0
    c: float = 1.0
    mu: float = 1.0
    eps: float = 1.0
    eps_prime: float = 1.0
    p: float = None
    dim: int = None

    def __post_init__(self):
        for name in ("norm_q0_crit", "norm_v0_crit", "norm_q0_sur", "norm_v0_sur"):
            val = getattr(self, name)
            if not (finite_number(val) and val >= 0):
                raise ConfigurationError(f"{name} must be finite and >= 0, got {val}")
        for name in ("C", "C1", "c", "mu", "eps"):
            val = getattr(self, name)
            if not (finite_number(val) and val > 0):
                raise ConfigurationError(f"{name} must be finite and > 0, got {val}")
        if not (finite_number(self.eps_prime) and 0.0 < self.eps_prime <= 1.0):
            raise ConfigurationError(
                f"eps_prime must lie in (0, 1], got {self.eps_prime}")
        if self.p is not None and self.dim is not None:
            lo = self.dim / (1.0 - self.eps_prime) if self.eps_prime < 1.0 else math.inf
            if not (lo < self.p < 2.0 * self.dim):
                raise ConfigurationError(
                    f"p = {self.p} outside the admissible window ({lo}, {2 * self.dim})")

    @property
    def a0(self) -> float:
        return self.norm_q0_crit + self.norm_v0_crit


def _surcritical_branch(inp: LifespanInputs, norm: float) -> float:
    if norm == 0.0:
        return math.inf
    e = 2.0 / inp.eps_prime
    return (2.0 * (inp.c * inp.mu) ** (e - 1.0) * inp.eps ** e
            / ((8.0 * inp.C) ** e * norm ** e))


def branch_values(inp: LifespanInputs) -> dict:
    """The four competing lower bounds, keyed by branch name."""
    a0 = inp.a0
    if a0 == 0.0:
        data_branch = math.inf
    else:
        data_branch = 1.0 / (16.0 * inp.C1 ** 2 * a0 * (1.0 + math.sqrt(a0)) ** 2)
    return {
        "q_regularity": _surcritical_branch(inp, inp.norm_q0_sur),
        "v_regularity": _surcritical_branch(inp, inp.norm_v0_sur),
        "iteration_window": inp.C1 / 4.0,
        "data_size": data_branch,
    }


def lifespan_lower_bound(inp: LifespanInputs) -> tuple:
    """Minimum of the four branches and the name of the active one."""
    values = branch_values(inp)
    active = min(BRANCH_NAMES, key=lambda name: values[name])
    return values[active], active


def epsilon_from_data(a0: float, c1: float) -> float:
    """Largest admissible square root of the smallness parameter,
    1 / (4 C1 (1 + 2 sqrt(A0) + A0))."""
    if a0 < 0 or not np.isfinite(a0):
        raise ConfigurationError(f"data size must be finite and >= 0, got {a0}")
    if c1 <= 0:
        raise ConfigurationError(f"C1 must be positive, got {c1}")
    return 1.0 / (4.0 * c1 * (1.0 + 2.0 * math.sqrt(a0) + a0))


def lifespan_report(inp: LifespanInputs) -> dict:
    """JSON-ready summary: inputs, per-branch values, active branch, bound."""
    values = branch_values(inp)
    t, active = lifespan_lower_bound(inp)
    inputs = {k: getattr(inp, k) for k in (
        "norm_q0_crit", "norm_v0_crit", "norm_q0_sur", "norm_v0_sur",
        "C", "C1", "c", "mu", "eps", "eps_prime", "p", "dim")}
    return {
        "inputs": inputs,
        "branches": values,
        "active_branch": active,
        "lower_bound": t,
    }


def restart_schedule(initial_norms_fn, horizon: float, fraction: float = 0.5,
                     floor: float = 1e-10, max_steps: int = 10000) -> list:
    """Greedy continuation plan: at each checkpoint time evaluate the bound
    on the current data and advance by `fraction` of it.

    Returns [(t_i, T_i)] with T_i the bound computed at t_i. A bound below
    `floor`, or a schedule that needs more than `max_steps` checkpoints to
    reach the horizon, stalls.
    """
    if not (np.isfinite(horizon) and horizon >= 0):
        raise ConfigurationError(f"horizon must be finite and >= 0, got {horizon}")
    if not (0.0 < fraction <= 1.0):
        raise ConfigurationError(f"fraction must lie in (0, 1], got {fraction}")
    if floor <= 0:
        raise ConfigurationError(f"floor must be positive, got {floor}")
    schedule = []
    t = 0.0
    while t < horizon * (1.0 - 1e-12):
        bound, _ = lifespan_lower_bound(initial_norms_fn(t))
        if bound < floor or len(schedule) >= max_steps:
            raise ScheduleStall(t, bound, floor)
        schedule.append((t, bound))
        t += fraction * bound
    return schedule


def norms_for_data(q0: RealField, v0, p: float = None, eps_prime: float = 0.25,
                   C: float = 1.0, C1: float = 1.0, c: float = 1.0,
                   mu: float = 1.0, eps: float = None) -> LifespanInputs:
    """Measure the four Besov norms of initial data and package them.

    Vector norms are summed over components. p defaults to the midpoint of
    its admissible window (N/(1-eps_prime), 2N); eps defaults to the square
    of the largest admissible value given the measured data size.
    """
    n = q0.grid.dim
    if not (0.0 < eps_prime < 1.0):
        raise ConfigurationError(
            f"eps_prime must lie in (0, 1) to leave room for p, got {eps_prime}")
    if p is None:
        p = 0.5 * (n / (1.0 - eps_prime) + 2.0 * n)
    s_crit = n / p
    BesovSpec(s=s_crit, p=p)  # validates p before any transform
    # p is the same at both indices: each field's block norms are taken
    # once and weighted at the critical and the surcritical index
    q_blocks = [block_norms(q0, p=p)[:2]]
    v_blocks = [block_norms(c, p=p)[:2] for c in v0]

    def vec_norm(blocks, s):
        return sum(_weighted_lr(ls, norms, s, 1.0) for ls, norms in blocks)

    q_crit = vec_norm(q_blocks, s_crit)
    v_crit = vec_norm(v_blocks, s_crit - 1.0)
    q_sur = vec_norm(q_blocks, s_crit + eps_prime)
    v_sur = vec_norm(v_blocks, s_crit - 1.0 + eps_prime)
    if eps is None:
        eps = epsilon_from_data(q_crit + v_crit, C1) ** 2
    return LifespanInputs(
        norm_q0_crit=q_crit, norm_v0_crit=v_crit, norm_q0_sur=q_sur,
        norm_v0_sur=v_sur, C=C, C1=C1, c=c, mu=mu, eps=eps,
        eps_prime=eps_prime, p=p, dim=n,
    )


def calibrate_c1(mu: float = 0.15, n_steps: int = 64) -> float:
    """Fit C1 so the iteration-window branch C1/4 matches the horizon up to
    which the fixed-point iteration actually contracts on a small reference
    data family: amplitude 1e-3 single modes on a 1-D n = 64 grid, quantum
    coupling, linear pressure.

    The contraction edge is bracketed in one loop of at most 24 probes
    from T = 0.25: T doubles while the iteration contracts and halves while
    it does not, up to the first change of verdict. The bracket is then
    bisected to a relative width of 5 %; the returned C1 uses the
    still-contracting endpoint, so the predicted window errs on the safe
    side. If every probe contracts, C1 is 4 T at the last one. No command
    calls it; the benchmark runs and traces it as a job of its own.
    """
    from .solver import PicardConfig, picard_solve

    g = Grid(dim=1, n=64)
    q0 = RealField(g, 1e-3 * np.cos(g.x[0]))
    v0 = (RealField(g, 1e-3 * np.sin(g.x[0])),)
    params = PhysParams(mu=mu, kappa=mu * mu, a=1.0, gamma=1.0)
    pcfg = PicardConfig(max_iters=25, tol=1e-9, n_steps=n_steps)

    def contracts(horizon: float) -> bool:
        try:
            return picard_solve(q0, v0, params, horizon, pcfg).converged
        except NonContraction:
            return False

    lo = hi = None
    t = 0.25
    for _ in range(24):
        if contracts(t):
            lo, t = t, 2.0 * t
        else:
            hi, t = t, 0.5 * t
        if lo is not None and hi is not None:
            break
    if lo is None:
        raise ConfigurationError("reference family never contracts; cannot calibrate")
    if hi is None:
        # contracted at every probed horizon; the cap is the estimate
        return 4.0 * lo
    while (hi - lo) > 0.05 * lo:
        mid = 0.5 * (lo + hi)
        if contracts(mid):
            lo = mid
        else:
            hi = mid
    return 4.0 * lo
