"""Time integration for both PDE formulations.

The stiff diffusion mu*Laplacian is advanced exactly by a Fourier
integrating factor; every remaining term is explicit through a two-stage
(Heun) Runge-Kutta. In the density-velocity formulation the factor acts on
the velocity only (the mass equation carries no Laplacian); in the
log-density formulation it acts on both unknowns. The explicitly treated
capillary operator imposes a step ceiling dt <= c_stab * h^2 / max(mu,
sqrt(kappa)) which is enforced before stepping.

Also here: the exact per-mode solution of the linearized system, and a
fixed-point iteration that mirrors the constructive existence scheme
(forced heat solves with sources frozen at the previous iterate, trapezoid
Duhamel quadrature, difference norms measured in time-sup Besov style).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from .errors import (
    ConfigurationError,
    NonContraction,
    NumericBlowup,
    VacuumBreach,
)
from .fields import Grid, RealField, dealias_values, fft_array, grad_arrays, ifft_array
from .lp_besov import BesovSpec, build_bumps, tilde_norm, besov_norm
from .model import (
    EffectiveState,
    PhysParams,
    PrimitiveState,
    rhs_effective,
    rhs_primitive,
)

CHECKPOINT_VERSION = 1

FORMULATIONS = ("primitive", "effective")


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    formulation: str = "primitive"
    dealias: bool = True
    vacuum_floor: float = 1e-8
    diag_stride: int = 1
    c_stab: float = 1.0
    freeze_advection: bool = False

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if not (self.t_end >= 0 and math.isfinite(self.t_end)):
            raise ConfigurationError(f"t_end must be nonnegative, got {self.t_end}")
        if self.formulation not in FORMULATIONS:
            raise ConfigurationError(f"unknown formulation {self.formulation!r}")
        if not (self.vacuum_floor > 0):
            raise ConfigurationError(f"vacuum_floor must be positive, got {self.vacuum_floor}")
        if not (isinstance(self.diag_stride, int) and self.diag_stride >= 1):
            raise ConfigurationError(f"diag_stride must be a positive integer, got {self.diag_stride}")
        if not (self.c_stab > 0):
            raise ConfigurationError(f"c_stab must be positive, got {self.c_stab}")
        if self.freeze_advection and self.formulation == "primitive":
            raise ConfigurationError("freeze_advection only applies to the effective formulation")

    def dt_ceiling(self, grid: Grid, params: PhysParams) -> float:
        """Explicit-capillarity stability ceiling c_stab*h^2/max(mu, sqrt(kappa))."""
        return self.c_stab * grid.dx ** 2 / max(params.mu, math.sqrt(params.kappa))

    def validate_for(self, grid: Grid, params: PhysParams):
        ceiling = self.dt_ceiling(grid, params)
        if self.dt > ceiling * (1 + 1e-12):
            raise ConfigurationError(
                f"dt = {self.dt:.3g} exceeds the stability ceiling {ceiling:.3g} "
                f"(grid h = {grid.dx:.3g})"
            )


def _guard_primitive(rho_vals, u_vals, floor, t):
    arrays = [rho_vals] + list(u_vals)
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise NumericBlowup(t, "density-velocity state")
    m = float(np.min(rho_vals))
    if m <= floor:
        raise VacuumBreach(t, m)


def _guard_effective(q_vals, v_vals, params, floor, t):
    arrays = [q_vals] + list(v_vals)
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise NumericBlowup(t, "log-density state")
    m = float(params.rho_bar * np.exp(np.min(q_vals)))
    if m <= floor:
        raise VacuumBreach(t, m)


def _identity(x):
    return x


class _Unknown(NamedTuple):
    """How a step carries one unknown: transform pair, integrating factor
    exp(-L dt) and linear part L."""

    fwd: Callable
    inv: Callable
    fac: np.ndarray | float
    lin: np.ndarray | float


def step_imex(state, params: PhysParams, cfg: SolverConfig, t: float = 0.0):
    """One integrating-factor Heun step; returns the state at t + dt.

    Each unknown w is carried by a transform W = fwd(w) with linear part L
    and factor exp(-L dt). With N = fwd(rhs) + L W the step is
    W* = exp(-L dt) (W + dt N), W_new = exp(-L dt) W + dt/2 (exp(-L dt) N + N*).
    """
    g = state.grid
    cfg.validate_for(g, params)
    e_fac = np.exp(-params.mu * g.k2 * cfg.dt)
    dt = cfg.dt
    diffusive = _Unknown(fft_array, ifft_array, e_fac, params.mu * g.k2)
    velocity = [diffusive] * g.dim

    if cfg.formulation == "primitive":
        if not isinstance(state, PrimitiveState):
            raise ConfigurationError("primitive stepping needs a PrimitiveState")
        # the mass equation has no Laplacian: the density stays on the grid
        # with factor 1.0 and linear part 0.0, which the scheme keeps exact
        parts = [_Unknown(_identity, _identity, 1.0, 0.0)] + velocity
        unknowns = [state.rho, *state.u]

        def rhs(s):
            return rhs_primitive(s, params, dealias=cfg.dealias)

        def guard(vals):
            _guard_primitive(vals[0], vals[1:], cfg.vacuum_floor, t + dt)
    else:
        if not isinstance(state, EffectiveState):
            raise ConfigurationError("effective stepping needs an EffectiveState")
        parts = [diffusive] + velocity
        unknowns = [state.q, *state.v]

        def rhs(s):
            return rhs_effective(s, params, dealias=cfg.dealias,
                                 freeze_advection=cfg.freeze_advection)

        def guard(vals):
            _guard_effective(vals[0], vals[1:], params, cfg.vacuum_floor, t + dt)

    def explicit(s, hats):
        d_scalar, d_vector = rhs(s)
        return [p.fwd(d.values) + p.lin * w
                for p, d, w in zip(parts, [d_scalar, *d_vector], hats)]

    def rebuild(vals):
        guard(vals)
        return type(state)(RealField(g, vals[0]), tuple(RealField(g, c) for c in vals[1:]))

    hat0 = [p.fwd(w.values) for p, w in zip(parts, unknowns)]
    n0 = explicit(state, hat0)
    hat_star = [p.fac * (w + dt * n) for p, w, n in zip(parts, hat0, n0)]
    s_star = rebuild([p.inv(w) for p, w in zip(parts, hat_star)])
    n1 = explicit(s_star, hat_star)
    return rebuild([p.inv(p.fac * w + 0.5 * dt * (p.fac * a + b))
                    for p, w, a, b in zip(parts, hat0, n0, n1)])


@dataclass
class RunResult:
    final_state: object
    t_final: float
    steps: int
    diag_times: list = field(default_factory=list)
    records: list = field(default_factory=list)


def run(initial, params: PhysParams, cfg: SolverConfig, diag_fn=None,
        callbacks=(), t0: float = 0.0) -> RunResult:
    """Integrate from t0 to cfg.t_end, recording diagnostics every
    cfg.diag_stride steps (plus the initial and final instants).

    diag_fn(state, t) -> record; callbacks are called (step, t, state) after
    every accepted step. The span must be a whole number of dt steps.
    """
    g = initial.grid
    cfg.validate_for(g, params)
    if cfg.formulation == "primitive" and not isinstance(initial, PrimitiveState):
        raise ConfigurationError("primitive run needs a PrimitiveState initial condition")
    if cfg.formulation == "effective" and not isinstance(initial, EffectiveState):
        raise ConfigurationError("effective run needs an EffectiveState initial condition")
    span = cfg.t_end - t0
    if span < -1e-12:
        raise ConfigurationError(f"t_end = {cfg.t_end} lies before the start time {t0}")
    n_steps = int(round(span / cfg.dt))
    if abs(n_steps * cfg.dt - span) > 1e-9 * max(1.0, abs(cfg.t_end)):
        raise ConfigurationError(
            f"time span {span:.6g} is not a whole number of dt = {cfg.dt:.6g} steps"
        )

    result = RunResult(final_state=initial, t_final=t0, steps=0)

    def emit(state, t):
        result.diag_times.append(t)
        result.records.append(diag_fn(state, t) if diag_fn is not None else None)

    emit(initial, t0)
    state = initial
    for m in range(n_steps):
        t_next = t0 + (m + 1) * cfg.dt
        state = step_imex(state, params, cfg, t=t0 + m * cfg.dt)
        for cb in callbacks:
            cb(m + 1, t_next, state)
        if (m + 1) % cfg.diag_stride == 0 or m + 1 == n_steps:
            emit(state, t_next)
    result.final_state = state
    result.t_final = t0 + n_steps * cfg.dt
    result.steps = n_steps
    return result


# -- checkpointing ------------------------------------------------------------

def save_checkpoint(path, state, params: PhysParams, t: float):
    """Versioned NPZ dump of grid, physical parameters, state, and time."""
    g = state.grid
    payload = {
        "version": np.int64(CHECKPOINT_VERSION),
        "dim": np.int64(g.dim),
        "n": np.int64(g.n),
        "length": np.float64(g.length),
        "t": np.float64(t),
        "mu": np.float64(params.mu),
        "kappa": np.float64(params.kappa),
        "a": np.float64(params.a),
        "gamma": np.float64(params.gamma),
        "rho_bar": np.float64(params.rho_bar),
    }
    if isinstance(state, PrimitiveState):
        payload["kind"] = "primitive"
        payload["rho"] = state.rho.values
        for i, c in enumerate(state.u):
            payload[f"u{i}"] = c.values
    elif isinstance(state, EffectiveState):
        payload["kind"] = "effective"
        payload["q"] = state.q.values
        for i, c in enumerate(state.v):
            payload[f"v{i}"] = c.values
    else:
        raise ConfigurationError(f"cannot checkpoint a {type(state).__name__}")
    np.savez(path, **payload)


def load_checkpoint(path):
    """Inverse of save_checkpoint; returns (state, params, t)."""
    with np.load(path, allow_pickle=False) as data:
        version = int(data["version"])
        if version != CHECKPOINT_VERSION:
            raise ConfigurationError(f"unsupported checkpoint version {version}")
        g = Grid(int(data["dim"]), int(data["n"]), float(data["length"]))
        params = PhysParams(
            mu=float(data["mu"]),
            kappa=float(data["kappa"]),
            a=float(data["a"]),
            gamma=float(data["gamma"]),
            rho_bar=float(data["rho_bar"]),
        )
        t = float(data["t"])
        kind = str(data["kind"])
        if kind == "primitive":
            state = PrimitiveState(
                RealField(g, data["rho"]),
                tuple(RealField(g, data[f"u{i}"]) for i in range(g.dim)),
            )
        elif kind == "effective":
            state = EffectiveState(
                RealField(g, data["q"]),
                tuple(RealField(g, data[f"v{i}"]) for i in range(g.dim)),
            )
        else:
            raise ConfigurationError(f"unknown checkpoint state kind {kind!r}")
    return state, params, t


# -- exact linear solution ----------------------------------------------------

def _linear_modes(g, mu, qhat0, vhat0, t):
    """Fourier coefficients of the linearized solution at time t."""
    decay = np.exp(-mu * g.k2 * t)
    div_v0 = sum(1j * g.k_deriv[i] * vhat0[i] for i in range(g.dim))
    return decay * (qhat0 - t * div_v0), [decay * c for c in vhat0]


def solve_linear_system(q0: RealField, v0, mu: float, t: float):
    """Closed-form solution of the linearized system at time t.

    The velocity part diffuses mode by mode; the log-density picks up the
    divergence source: qhat(t) = exp(-mu|k|^2 t) * (qhat0 - t * i k.vhat0).
    """
    if mu <= 0:
        raise ConfigurationError(f"diffusion coefficient must be positive, got {mu}")
    g = q0.grid
    qhat, vhats = _linear_modes(g, mu, fft_array(q0.values),
                                [fft_array(c.values) for c in v0], t)
    return RealField(g, ifft_array(qhat)), tuple(RealField(g, ifft_array(c)) for c in vhats)



# -- constructive fixed-point iteration ---------------------------------------

@dataclass(frozen=True)
class PicardConfig:
    max_iters: int = 20
    tol: float = 1e-8
    s: float = None  # None means the critical index N/p
    p: float = 2.0
    r: float = 1.0
    n_steps: int = 64
    dealias: bool = True
    bump_resolution: int = 256

    def __post_init__(self):
        if not (self.tol > 0):
            raise ConfigurationError(f"tolerance must be positive, got {self.tol}")
        if not (isinstance(self.max_iters, int) and self.max_iters >= 1):
            raise ConfigurationError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (isinstance(self.n_steps, int) and self.n_steps >= 2):
            raise ConfigurationError(f"n_steps must be >= 2, got {self.n_steps}")


@dataclass
class PicardResult:
    times: np.ndarray
    q_series: list
    v_series: list
    diff_norms: list
    iterations: int
    converged: bool
    data_norms: dict


def _picard_sources(g, params, qhat, vhats, dealias):
    """Frozen sources for the next iterate, from one time level."""
    def trunc(vals):
        return dealias_values(g, vals) if dealias else vals

    gq = grad_arrays(g, qhat)
    v = [ifft_array(c) for c in vhats]
    u = [v[i] - params.mu * gq[i] for i in range(g.dim)]
    f_src = trunc(-sum(v[i] * gq[i] for i in range(g.dim))
                  + params.mu * sum(c ** 2 for c in gq))
    g_src = []
    for i in range(g.dim):
        dv_i = grad_arrays(g, vhats[i])
        adv = sum(u[j] * dv_i[j] for j in range(g.dim))
        qdv = sum(gq[j] * dv_i[j] for j in range(g.dim))
        g_src.append(trunc(-adv + params.mu * qdv) - params.a * gq[i])
    return fft_array(f_src), [fft_array(c) for c in g_src]


def picard_solve(q0: RealField, v0, params: PhysParams, T: float,
                 pcfg: PicardConfig = PicardConfig()) -> PicardResult:
    """Iterate forced heat solves with sources frozen at the previous
    iterate, starting from the exact linear solution. Stops when the
    time-sup Besov norm of the iterate difference falls below pcfg.tol.

    Raises NonContraction when the difference norm grows three times in a
    row or stops being finite. Requires the linear pressure law and the
    capillarity-viscosity balance under which the reduced system closes.
    """
    if not (T > 0 and math.isfinite(T)):
        raise ConfigurationError(f"horizon must be positive, got {T}")
    if params.gamma != 1.0:
        raise ConfigurationError("the iteration is built for the linear pressure law (gamma = 1)")
    if not params.is_quantum():
        raise ConfigurationError(
            "the iteration requires the capillarity-viscosity balance kappa = mu^2"
        )
    g = q0.grid
    v0 = tuple(v0)
    bumps = build_bumps(pcfg.bump_resolution)
    s_q = (g.dim / pcfg.p) if pcfg.s is None else pcfg.s
    spec_q = BesovSpec(s_q, pcfg.p, pcfg.r)
    spec_v = BesovSpec(s_q - 1.0, pcfg.p, pcfg.r)

    m_steps = pcfg.n_steps
    dt = T / m_steps
    times = np.arange(m_steps + 1) * dt
    e_fac = np.exp(-params.mu * g.k2 * dt)

    qhat0 = fft_array(q0.values)
    vhat0 = [fft_array(c.values) for c in v0]

    # iterate 0: the exact linear solution, per mode
    q_lin, v_lin = [], []
    for t in times:
        qhat, vhats = _linear_modes(g, params.mu, qhat0, vhat0, t)
        q_lin.append(qhat)
        v_lin.append(vhats)

    data_norms = {
        "q": besov_norm(q0, spec_q, bumps),
        "v": sum(besov_norm(c, spec_v, bumps) for c in v0),
    }

    qs = list(q_lin)
    vs = [list(row) for row in v_lin]
    diff_norms = []
    growth_streak = 0
    converged = False
    iterations = 0

    for iterations in range(1, pcfg.max_iters + 1):
        with np.errstate(all="ignore"):
            f_hat, g_hat = [], []
            for m in range(m_steps + 1):
                fh, gh = _picard_sources(g, params, qs[m], vs[m], pcfg.dealias)
                f_hat.append(fh)
                g_hat.append(gh)

            vbar = [[np.zeros(g.shape, dtype=complex) for _ in range(g.dim)]]
            for m in range(m_steps):
                row = []
                for i in range(g.dim):
                    row.append(e_fac * (vbar[m][i] + 0.5 * dt * g_hat[m][i])
                               + 0.5 * dt * g_hat[m + 1][i])
                vbar.append(row)

            src = []
            for m in range(m_steps + 1):
                div_vbar = sum(1j * g.k_deriv[i] * vbar[m][i] for i in range(g.dim))
                src.append(f_hat[m] - div_vbar)
            qbar = [np.zeros(g.shape, dtype=complex)]
            for m in range(m_steps):
                qbar.append(e_fac * (qbar[m] + 0.5 * dt * src[m]) + 0.5 * dt * src[m + 1])

            q_new = [q_lin[m] + qbar[m] for m in range(m_steps + 1)]
            v_new = [[v_lin[m][i] + vbar[m][i] for i in range(g.dim)]
                     for m in range(m_steps + 1)]

        finite = all(np.all(np.isfinite(c)) for c in q_new) and all(
            np.all(np.isfinite(c)) for row in v_new for c in row
        )
        if not finite:
            raise NonContraction(T, data_norms, diff_norms + [float("inf")])

        dq_fields = [RealField(g, ifft_array(q_new[m] - qs[m])) for m in range(m_steps + 1)]
        delta = tilde_norm(dq_fields, times, math.inf, spec_q, bumps)
        for i in range(g.dim):
            dv_fields = [RealField(g, ifft_array(v_new[m][i] - vs[m][i])) for m in range(m_steps + 1)]
            delta += tilde_norm(dv_fields, times, math.inf, spec_v, bumps)

        qs, vs = q_new, v_new
        diff_norms.append(delta)
        if delta < pcfg.tol:
            converged = True
            break
        if len(diff_norms) >= 2 and delta > diff_norms[-2]:
            growth_streak += 1
            if growth_streak >= 3:
                raise NonContraction(T, data_norms, diff_norms)
        else:
            growth_streak = 0

    q_series = [RealField(g, ifft_array(c)) for c in qs]
    v_series = [tuple(RealField(g, ifft_array(c)) for c in row) for row in vs]
    return PicardResult(times, q_series, v_series, diff_norms, iterations,
                        converged, data_norms)
