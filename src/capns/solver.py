"""Time integration for both PDE formulations.

The stiff diffusion mu*Laplacian is advanced exactly by a Fourier
integrating factor; every remaining term is explicit through a two-stage
(Heun) Runge-Kutta. In the density-velocity formulation the factor acts on
the velocity only (the mass equation carries no Laplacian); in the
log-density formulation it acts on both unknowns. The explicitly treated
capillary operator imposes a step ceiling dt <= c_stab * h^2 / max(mu,
sqrt(kappa)) which is enforced before stepping. Every explicit product is
truncated by the 2/3 rule, in the step and in the fixed-point iteration
below; the truncation is part of the scheme and has no switch.

Also here: the exact per-mode solution of the linearized system, and a
fixed-point iteration that mirrors the constructive existence scheme
(forced heat solves with sources frozen at the previous iterate, trapezoid
Duhamel quadrature, difference norms measured in time-sup Besov style).
The iteration keeps every iterate as one stack of half spectra with a
leading time axis (and a component axis for the velocity), so each
transform of an iteration covers all time levels in one call.
"""

from __future__ import annotations

import functools
import itertools
import math
import zipfile
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    ConfigurationError,
    NonContraction,
    NumericBlowup,
    VacuumBreach,
)
from .fields import (Grid, RealField, dealias_values, fft_array, fft_stage, grad_arrays,
                     ifft_array, ifft_stage)
from .lp_besov import BesovSpec, besov_norm, spectral_tilde_norm
from .model import (
    EffectiveState,
    PhysParams,
    PrimitiveState,
    effective_tendencies,
    primitive_tendencies,
)

CHECKPOINT_VERSION = 1

# formulation name -> state class; the name is also a checkpoint's ``kind``
FORMULATIONS = {"primitive": PrimitiveState, "effective": EffectiveState}


@dataclass(frozen=True)
class SolverConfig:
    dt: float
    t_end: float
    formulation: str = "primitive"
    vacuum_floor: float = 1e-8
    diag_stride: int = 1
    c_stab: float = 1.0

    def __post_init__(self):
        if not (self.dt > 0 and math.isfinite(self.dt)):
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if not (self.t_end >= 0 and math.isfinite(self.t_end)):
            raise ConfigurationError(f"t_end must be nonnegative, got {self.t_end}")
        if self.formulation not in FORMULATIONS:
            raise ConfigurationError(f"unknown formulation {self.formulation!r}")
        if not (self.vacuum_floor > 0 and math.isfinite(self.vacuum_floor)):
            raise ConfigurationError(f"vacuum_floor must be positive and finite, got {self.vacuum_floor}")
        if not (isinstance(self.diag_stride, int) and self.diag_stride >= 1):
            raise ConfigurationError(f"diag_stride must be a positive integer, got {self.diag_stride}")
        if not (self.c_stab > 0 and math.isfinite(self.c_stab)):
            raise ConfigurationError(f"c_stab must be positive and finite, got {self.c_stab}")

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


def _unchecked(cls, *values):
    """An instance of the frozen dataclass ``cls`` holding ``values`` in
    field order, built without running its checks."""
    obj = object.__new__(cls)
    obj.__dict__.update(zip(cls.__dataclass_fields__, values))
    return obj


class _Scheme:
    """The integrating-factor Heun step of one formulation on raw arrays.

    Built once per (grid, params, cfg): the factor exp(-mu k^2 dt) is fixed
    here, and ``step`` neither validates the configuration nor rebuilds it.
    The unknowns are the scalar (rho or q) followed by the vector
    components (u or v); the first ``on_grid`` of them stay on the grid and
    the rest are carried as half spectra, all transformed in one stage.
    """

    def __init__(self, g: Grid, params: PhysParams, cfg: SolverConfig):
        self.grid, self.params, self.cfg = g, params, cfg
        fac = np.exp(-params.mu * g.half_k2 * cfg.dt)
        if cfg.formulation == "primitive":
            # the mass equation has no Laplacian: the density stays on the
            # grid with factor 1.0, which the scheme keeps exact
            self.on_grid, self.facs = 1, [1.0] + [fac] * g.dim
            self.kind, self.detail = PrimitiveState, "density-velocity state"
            self.min_rho = np.ndarray.min
        else:
            self.on_grid, self.facs = 0, [fac] * (1 + g.dim)
            self.kind, self.detail = EffectiveState, "log-density state"
            self.min_rho = lambda q: params.rho_bar * np.exp(q.min())

    def spectra(self, vals) -> list:
        """The carried form of every unknown from its samples."""
        k = self.on_grid
        return [*vals[:k], *fft_stage(self.grid, vals[k:])]

    def samples(self, carried) -> list:
        """Samples of every unknown from an iterable of their carried forms."""
        carried = iter(carried)
        return [*itertools.islice(carried, self.on_grid), *ifft_stage(self.grid, carried)]

    def tendencies(self, vals, hats):
        g, params = self.grid, self.params
        if self.kind is PrimitiveState:
            d_scalar, d_vector = primitive_tendencies(g, params, vals[0], vals[1:], hats[1:])
        else:
            d_scalar, d_vector = effective_tendencies(g, params, vals[0], hats[0],
                                                      vals[1:], hats[1:])
        return [d_scalar, *d_vector]

    def guard(self, vals, t):
        """Raise on a non-finite unknown, then on a density minimum at or
        below the vacuum floor."""
        if not all(np.isfinite(a).all() for a in vals):
            raise NumericBlowup(t, self.detail)
        m = float(self.min_rho(vals[0]))
        if m <= self.cfg.vacuum_floor:
            raise VacuumBreach(t, m)

    def values(self, state) -> list:
        if not isinstance(state, self.kind):
            article = "a" if self.kind is PrimitiveState else "an"
            raise ConfigurationError(
                f"{self.cfg.formulation} stepping needs {article} {self.kind.__name__}")
        scalar, vector = (state.rho, state.u) if self.kind is PrimitiveState \
            else (state.q, state.v)
        return [scalar.values] + [c.values for c in vector]

    def state(self, vals):
        """The state of guarded samples; neither the samples nor the density
        are checked again."""
        g = self.grid
        scalar, *vector = (_unchecked(RealField, g, a) for a in vals)
        return _unchecked(self.kind, scalar, tuple(vector))

    def step(self, vals, t: float) -> list:
        """Samples of every unknown at t + dt from those at t.

        Each unknown w is carried by W (its half spectrum, or w itself on
        the grid) with factor exp(-L dt); with N the tendency beyond -L W
        the step is
        W* = exp(-L dt) (W + dt N), W_new = exp(-L dt) W + dt/2 (exp(-L dt) N + N*).
        The guard after each Heun stage is the only check: a non-finite
        tendency reaches it as a non-finite unknown.
        """
        dt, facs = self.cfg.dt, self.facs
        hat0 = self.spectra(vals)
        n0 = self.tendencies(vals, hat0)
        hat_star = [f * (w + dt * n) for f, w, n in zip(facs, hat0, n0)]
        vals_star = self.samples(hat_star)
        self.guard(vals_star, t + dt)
        n1 = self.tendencies(vals_star, hat_star)
        out = self.samples(f * w + 0.5 * dt * (f * a + b)
                           for f, w, a, b in zip(facs, hat0, n0, n1))
        self.guard(out, t + dt)
        return out


@functools.lru_cache(maxsize=8)
def _scheme(g: Grid, params: PhysParams, cfg: SolverConfig) -> _Scheme:
    """The validated scheme of one (grid, params, cfg), built on first use.

    All three keys are frozen, so a configuration that validated once stays
    valid, and the steps of a run reuse one factor exp(-mu k^2 dt).
    """
    cfg.validate_for(g, params)
    return _Scheme(g, params, cfg)


def step_imex(state, params: PhysParams, cfg: SolverConfig, t: float = 0.0):
    """One integrating-factor Heun step; returns the state at t + dt."""
    scheme = _scheme(state.grid, params, cfg)
    return scheme.state(scheme.step(scheme.values(state), t))


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
    # validates once, and rejects a state of the other formulation even
    # when no step is taken; every step reuses the scheme
    _scheme(initial.grid, params, cfg).values(initial)
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
    """Versioned NPZ dump of grid, physical parameters, state, and time.

    Members, in order: version, dim, n, length, t, the fields of PhysParams,
    kind (the formulation name), then the state's two fields by name, the
    vector one per component (rho, u0, u1 or q, v0, v1).
    """
    kind = next((name for name, cls in FORMULATIONS.items() if isinstance(state, cls)), None)
    if kind is None:
        raise ConfigurationError(f"cannot checkpoint a {type(state).__name__}")
    g = state.grid
    scalar, vector = (f.name for f in fields(state))
    payload = {
        "version": np.int64(CHECKPOINT_VERSION),
        "dim": np.int64(g.dim),
        "n": np.int64(g.n),
        "length": np.float64(g.length),
        "t": np.float64(t),
        **{f.name: np.float64(getattr(params, f.name)) for f in fields(PhysParams)},
        "kind": kind,
        scalar: getattr(state, scalar).values,
        **{f"{vector}{i}": c.values for i, c in enumerate(getattr(state, vector))},
    }
    np.savez(path, **payload)


def _read_archive(path) -> dict:
    """Every array of an NPZ file; a file that is not one, or that was cut
    short or corrupted, raises ConfigurationError."""
    try:
        data = np.load(path, allow_pickle=False)
        if isinstance(data, np.lib.npyio.NpzFile):
            with data:
                return {name: data[name] for name in data.files}
    except (ValueError, EOFError, zipfile.BadZipFile) as ex:
        raise ConfigurationError(f"{path} is not a readable checkpoint: {ex}") from ex
    raise ConfigurationError(f"{path} holds a single array, not a checkpoint archive")


def load_checkpoint(path):
    """Inverse of save_checkpoint; returns (state, params, t).

    A missing or malformed member (a scalar that does not convert, an array
    of the wrong shape or with non-finite values) raises ConfigurationError.
    """
    data = _read_archive(path)
    try:
        return _state_from_archive(data)
    except ConfigurationError:
        raise
    except KeyError as ex:
        raise ConfigurationError(f"{path} has no checkpoint member {ex}") from ex
    except (ValueError, TypeError) as ex:
        raise ConfigurationError(f"{path} has a malformed checkpoint member: {ex}") from ex


def _state_from_archive(data: dict):
    version = int(data["version"])
    if version != CHECKPOINT_VERSION:
        raise ConfigurationError(f"unsupported checkpoint version {version}")
    g = Grid(int(data["dim"]), int(data["n"]), float(data["length"]))
    params = PhysParams(**{f.name: float(data[f.name]) for f in fields(PhysParams)})
    t = float(data["t"])
    kind = str(data["kind"])
    if kind not in FORMULATIONS:
        raise ConfigurationError(f"unknown checkpoint state kind {kind!r}")
    cls = FORMULATIONS[kind]
    scalar, vector = (f.name for f in fields(cls))
    state = cls(RealField(g, data[scalar]),
                tuple(RealField(g, data[f"{vector}{i}"]) for i in range(g.dim)))
    return state, params, t


# -- exact linear solution ----------------------------------------------------

def _linear_modes(g, mu, qhat0, vhat0, t):
    """Fourier coefficients of the linearized solution at time t; a t of
    shape [time, 1, ...] gives [time, ...] stacks."""
    decay = np.exp(-mu * g.half_k2 * t)
    div_v0 = sum(g.half_ik[i] * vhat0[i] for i in range(g.dim))
    return decay * (qhat0 - t * div_v0), [decay * c for c in vhat0]


def solve_linear_system(q0: RealField, v0, mu: float, t: float):
    """Closed-form solution of the linearized system at time t.

    The velocity part diffuses mode by mode; the log-density picks up the
    divergence source: qhat(t) = exp(-mu|k|^2 t) * (qhat0 - t * i k.vhat0).
    The reference the step and Picard tests compare against; no run calls it.
    """
    if mu <= 0:
        raise ConfigurationError(f"diffusion coefficient must be positive, got {mu}")
    g = q0.grid
    qhat, vhats = _linear_modes(g, mu, fft_array(g, q0.values),
                                [fft_array(g, c.values) for c in v0], t)
    return RealField(g, ifft_array(g, qhat)), tuple(RealField(g, ifft_array(g, c)) for c in vhats)


# -- constructive fixed-point iteration ---------------------------------------

@dataclass(frozen=True)
class PicardConfig:
    """Iteration controls; differences are measured in the critical space
    B^{N/p}_{p,1} (and B^{N/p-1}_{p,1} for the velocity)."""

    max_iters: int = 20
    tol: float = 1e-8
    p: float = 2.0
    n_steps: int = 64

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


def _picard_sources(g, params, qhat, vhats):
    """Frozen sources for the next iterate at every time level at once.

    ``qhat`` is a [time, ...] stack of half spectra and ``vhats`` a
    [component, time, ...] one; returns the source spectra in the same
    layouts. Each level sees the same operations as when sources were built
    one level at a time, so the stacks are bit-identical to that; the
    intermediates are updated in place and dropped per component to bound
    the memory of the stacks.
    """
    gq = grad_arrays(g, qhat)
    u = ifft_array(g, vhats)  # v for now
    f_hat = fft_array(g, dealias_values(g, -sum(u[i] * gq[i] for i in range(g.dim))
                                       + params.mu * sum(c ** 2 for c in gq)))
    for i in range(g.dim):
        u[i] -= params.mu * gq[i]  # u = v - mu grad q
    g_hat = np.empty_like(vhats)
    for i in range(g.dim):
        dv_i = grad_arrays(g, vhats[i])
        adv = sum(u[j] * dv_i[j] for j in range(g.dim))
        qdv = sum(gq[j] * dv_i[j] for j in range(g.dim))
        del dv_i
        g_hat[i] = fft_array(g, dealias_values(g, -adv + params.mu * qdv) - params.a * gq[i])
    return f_hat, g_hat


def _duhamel(g, e_fac, h_src):
    """Trapezoid Duhamel sums of the forced heat equation with zero data,
    bar[m+1] = e (bar[m] + h[m]) + h[m+1], from the half-step-weighted
    sources h; the time axis is the one just before the spectral axes."""
    bar = np.empty_like(h_src)
    b, h = (np.moveaxis(a, -1 - g.dim, 0) for a in (bar, h_src))
    b[0] = 0.0
    for m in range(len(h) - 1):
        b[m + 1] = e_fac * (b[m] + h[m]) + h[m + 1]
    return bar


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
    spec_q = BesovSpec(g.dim / pcfg.p, pcfg.p)
    spec_v = BesovSpec(g.dim / pcfg.p - 1.0, pcfg.p)

    m_steps = pcfg.n_steps
    dt = T / m_steps
    times = np.arange(m_steps + 1) * dt
    e_fac = np.exp(-params.mu * g.half_k2 * dt)

    # iterate 0: the exact linear solution, per mode, as [time, ...] stacks
    q_lin, v_lin = _linear_modes(g, params.mu, fft_array(g, q0.values),
                                 fft_array(g, np.stack([c.values for c in v0])),
                                 times.reshape((-1,) + (1,) * g.dim))
    v_lin = np.stack(v_lin)  # [component, time, ...]

    data_norms = {
        "q": besov_norm(q0, spec_q),
        "v": sum(besov_norm(c, spec_v) for c in v0),
    }

    qs, vs = q_lin, v_lin
    diff_norms = []
    growth_streak = 0
    converged = False
    iterations = 0
    h = 0.5 * dt

    for iterations in range(1, pcfg.max_iters + 1):
        with np.errstate(all="ignore"):
            f_hat, g_hat = _picard_sources(g, params, qs, vs)
            g_hat *= h
            v_new = _duhamel(g, e_fac, g_hat)  # vbar for now
            del g_hat
            f_hat -= sum(g.half_ik[i] * v_new[i] for i in range(g.dim))
            f_hat *= h
            q_new = _duhamel(g, e_fac, f_hat)  # qbar for now
            del f_hat
            q_new += q_lin
            v_new += v_lin

        if not (np.all(np.isfinite(q_new)) and np.all(np.isfinite(v_new))):
            raise NonContraction(T, data_norms, diff_norms + [float("inf")])

        delta = spectral_tilde_norm(g, q_new - qs, times, math.inf, spec_q)
        for i in range(g.dim):
            delta += spectral_tilde_norm(g, v_new[i] - vs[i], times, math.inf, spec_v)

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

    q_vals, v_vals = ifft_array(g, qs), ifft_array(g, vs)
    q_series = [RealField(g, c) for c in q_vals]
    v_series = [tuple(RealField(g, v_vals[i, m]) for i in range(g.dim))
                for m in range(m_steps + 1)]
    return PicardResult(times, q_series, v_series, diff_norms, iterations,
                        converged, data_norms)
