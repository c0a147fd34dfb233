"""Time integration for both PDE formulations.

The stiff diffusion mu*Laplacian is advanced exactly by a Fourier
integrating factor; every remaining term is explicit through a two-stage
(Heun) Runge-Kutta. In the density-velocity formulation the factor acts on
the velocity only (the mass equation carries no Laplacian); in the
log-density formulation it acts on both unknowns. The explicitly treated
capillary operator imposes a step ceiling dt <= c_stab * h^2 / max(mu,
sqrt(kappa)) which is enforced before stepping. Each Heun stage takes its
explicit terms from one call of ``rhs_primitive`` or ``rhs_effective``,
both made alike with what the step holds (``model``'s convention
``rhs_*(g, p, vals, hats) -> (on_grid, spectral)``): the formulations
differ only in how many unknowns stay on the grid. Each grid has one Heun
body and one guard (``_Scheme.guarded_samples``): on a 1-D grid
(``_LineScheme``) the half spectra of the carried unknowns are one stack,
so each Heun operation and each transform runs once for all of them, and
leading axes (a stack of members) pass through; on a 2-D grid (``_Scheme``)
the unknowns are taken one at a time, as the 2-D tendencies take them.
``run`` alone sets the float-error policy: one ``np.errstate`` for its
whole loop, and a step enters none of its own. Every explicit product is
truncated by the 2/3 rule, in the step and in the fixed-point iteration
below; the truncation is part of the scheme and has no switch.

Also here: the exact per-mode solution of the linearized system, and a
fixed-point iteration that mirrors the constructive existence scheme
(forced heat solves with sources frozen at the previous iterate, trapezoid
Duhamel quadrature, difference norms measured in time-sup Besov style).
The iteration keeps every iterate as one stack of half spectra with a
leading time axis (and a component axis for the velocity), so each
transform of an iteration covers all time levels in one call, and
``tilde_norm`` measures each difference on its stack: once for q and once
per velocity component. Its sources have one body per grid, as the
tendencies do (4 transform calls per iteration in 1-D, 10 transforms in
2-D, where each source is truncated by the mask on its spectrum, as the
2-D tendencies are). The result keeps the final iterate as those
spectra, without inverting them: no command reads the iterate's samples.
"""

from __future__ import annotations

import functools
import math
import zipfile
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import (
    ConfigurationError,
    NonContraction,
    NumericBlowup,
    VacuumBreach,
    finite_number,
)
from .fields import (Grid, RealField, dealias_values, fft_array, fft_stage, grad_arrays,
                     ifft_array, ifft_stage)
from .lp_besov import BesovSpec, besov_norm, tilde_norm
from .model import (
    EffectiveState,
    PhysParams,
    PrimitiveState,
    rhs_effective,
    rhs_primitive,
)

CHECKPOINT_VERSION = 1

# bounds of a chunk of recorded states on a 1-D grid (see _record_chunk)
RECORD_CHUNK = 64
RECORD_CHUNK_SAMPLES = 1 << 16

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
        if not (finite_number(self.dt) and self.dt > 0):
            raise ConfigurationError(f"dt must be positive, got {self.dt}")
        if not (finite_number(self.t_end) and self.t_end >= 0):
            raise ConfigurationError(f"t_end must be nonnegative, got {self.t_end}")
        if self.formulation not in FORMULATIONS:
            raise ConfigurationError(f"unknown formulation {self.formulation!r}")
        if not (finite_number(self.vacuum_floor) and self.vacuum_floor > 0):
            raise ConfigurationError(f"vacuum_floor must be positive and finite, got {self.vacuum_floor}")
        if not (type(self.diag_stride) is int and self.diag_stride >= 1):
            raise ConfigurationError(f"diag_stride must be a positive integer, got {self.diag_stride}")
        if not (finite_number(self.c_stab) and self.c_stab > 0):
            raise ConfigurationError(f"c_stab must be positive and finite, got {self.c_stab}")

    def dt_ceiling(self, grid: Grid, params: PhysParams) -> float:
        """Explicit-capillarity stability ceiling c_stab*h^2/max(mu, sqrt(kappa))."""
        return self.c_stab * grid.dx ** 2 / max(params.mu, math.sqrt(params.kappa))

    def check_formulation(self, params: PhysParams):
        """Reject the effective formulation below kappa = mu^2."""
        if self.formulation == "effective":
            params.check_effective()

    def validate_for(self, grid: Grid, params: PhysParams):
        """Reject what the scheme cannot step: the formulation at these
        params (``check_formulation``), then a dt above the ceiling."""
        self.check_formulation(params)
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
    the rest, the spectral unknowns, are carried as half spectra. This is
    the step of a 2-D grid: every stage takes its arrays one at a time, as
    they are reached (``_LineScheme`` is the step of a 1-D grid).
    """

    def __init__(self, g: Grid, params: PhysParams, cfg: SolverConfig):
        self.grid, self.params, self.cfg = g, params, cfg
        self.fac = np.exp(-params.mu * g.half_k2 * cfg.dt)
        # complex in 1-D, as model._Line's multipliers: numpy would cast a real
        # factor on each product, for the same bits (2-D: ROADMAP item 1)
        if g.dim == 1:
            self.fac = self.fac.astype(complex)
        # the Heun products take dt and dt/2 as 0-d arrays (see model._Line)
        self.dt, self.half_dt = np.array(cfg.dt, float), np.array(0.5 * cfg.dt, float)
        if cfg.formulation == "primitive":
            # the mass equation has no Laplacian: the density stays on the
            # grid, where its factor would be 1.0 (and 1.0 * x is x)
            self.on_grid = 1
            self.kind, self.detail = PrimitiveState, "density-velocity state"
            self.min_rho = np.ndarray.min
        else:
            self.on_grid = 0
            self.kind, self.detail = EffectiveState, "log-density state"
            self.min_rho = lambda q: params.rho_bar * np.exp(q.min())

    def guarded_samples(self, on_grid, samples, t):
        """Samples of every unknown: the on-grid ones, then ``samples``, those
        of the others, as the rows of one stack (1-D) or an iterable of
        arrays (2-D); raises on a non-finite unknown, then on a density
        minimum at or below the vacuum floor. A stack takes one check."""
        vals = on_grid + list(samples)
        checked = on_grid + [samples] if isinstance(samples, np.ndarray) else vals
        if not all(np.isfinite(a).all() for a in checked):
            raise NumericBlowup(t, self.detail)
        m = float(self.min_rho(vals[0]))
        if m <= self.cfg.vacuum_floor:
            raise VacuumBreach(t, m)
        return vals

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
        scalar, *vector = [_unchecked(RealField, g, a) for a in vals]
        return _unchecked(self.kind, scalar, tuple(vector))

    def step(self, vals, t: float) -> list:
        """Samples of every unknown at t + dt from those at t.

        Each spectral unknown W (a half spectrum) carries the factor
        e = exp(-L dt); with N the tendency beyond -L W the step is
        W* = e (W + dt N), W_new = e W + dt/2 (e N + N*).
        An on-grid unknown w has no linear part (e = 1):
        w* = w + dt n, w_new = w + dt/2 (n + n*).
        The guard after each Heun stage is the only check: a non-finite
        tendency reaches it as a non-finite unknown.
        """
        g, p, k, e = self.grid, self.params, self.on_grid, self.fac
        dt, half_dt, t_next = self.dt, self.half_dt, t + self.cfg.dt
        # looked up per call, so a rebound module name (a traced span) runs
        rhs = rhs_primitive if k else rhs_effective
        grid0, hat0 = vals[:k], list(fft_stage(g, vals[k:]))
        d0, n0 = rhs(g, p, vals, hat0)
        hat_star = [e * (w + dt * n) for w, n in zip(hat0, n0)]
        # stage 2 reads W* again, so its inverses leave it as it is; the
        # final spectra are built for theirs, which may overwrite them
        vals_star = self.guarded_samples([w + dt * n for w, n in zip(grid0, d0)],
                                         (ifft_array(g, w) for w in hat_star), t_next)
        d1, n1 = rhs(g, p, vals_star, hat_star)
        return self.guarded_samples(
            [w + half_dt * (a + b) for w, a, b in zip(grid0, d0, d1)],
            ifft_stage(g, (e * w + half_dt * (e * a + b) for w, a, b in zip(hat0, n0, n1))),
            t_next)


class _LineScheme(_Scheme):
    """The step of ``_Scheme`` on a 1-D grid, written for one axis.

    The spectral unknowns are the rows of one stack (the velocity alone, or
    q and v), so each transform and each Heun operation is one call for
    all of them, the guard's finiteness check included: it takes the
    inverse's stack, whose rows are the samples of those unknowns. Leading
    axes of the samples (a stack of members) pass through every operation.
    """

    def step(self, vals, t: float) -> list:
        """``_Scheme.step`` with the spectral unknowns as one stack."""
        g, p, k, e = self.grid, self.params, self.on_grid, self.fac
        dt, half_dt, t_next = self.dt, self.half_dt, t + self.cfg.dt
        rhs = rhs_primitive if k else rhs_effective
        grid0, hat = vals[:k], fft_stage(g, vals[k:])
        d0, n0 = rhs(g, p, vals, hat)
        hat_star = e * (hat + dt * n0)
        vals_star = self.guarded_samples([w + dt * n for w, n in zip(grid0, d0)],
                                         ifft_array(g, hat_star), t_next)
        d1, n1 = rhs(g, p, vals_star, hat_star)
        return self.guarded_samples([w + half_dt * (a + b) for w, a, b in zip(grid0, d0, d1)],
                                    ifft_array(g, e * hat + half_dt * (e * n0 + n1)), t_next)


@functools.lru_cache(maxsize=8)
def _scheme(g: Grid, params: PhysParams, cfg: SolverConfig) -> _Scheme:
    """The validated scheme of one (grid, params, cfg), built on first use.

    All three keys are frozen, so a configuration that validated once stays
    valid, and the steps of a run reuse one factor exp(-mu k^2 dt).
    """
    cfg.validate_for(g, params)
    return (_LineScheme if g.dim == 1 else _Scheme)(g, params, cfg)


def step_imex(state, params: PhysParams, cfg: SolverConfig, t: float = 0.0):
    """One integrating-factor Heun step; returns the state at t + dt.

    The step's guard reports a non-finite result as NumericBlowup. ``run``
    alone sets the float-error policy; a direct call keeps the caller's.
    """
    scheme = _scheme(state.grid, params, cfg)
    return scheme.state(scheme.step(scheme.values(state), t))


@dataclass
class RunResult:
    final_state: object
    t_final: float
    steps: int
    diag_times: list = field(default_factory=list)
    records: list = field(default_factory=list)


def _record_chunk(grid: Grid) -> int:
    """Recorded states per ``diag_fn`` call of a run on ``grid``.

    On a 1-D grid a record costs its calls more than its arithmetic, so up
    to RECORD_CHUNK states share one call, fewer where n is so large that a
    stacked field would pass RECORD_CHUNK_SAMPLES samples. On a 2-D grid a
    chunk is one state, whose record then uses the state's own arrays.
    """
    if grid.dim != 1:
        return 1
    return max(1, min(RECORD_CHUNK, RECORD_CHUNK_SAMPLES // grid.n))


def run(initial, params: PhysParams, cfg: SolverConfig, diag_fn=None,
        callbacks=(), t0: float = 0.0) -> RunResult:
    """Integrate from t0 to cfg.t_end, recording diagnostics every
    cfg.diag_stride steps (plus the initial and final instants).

    diag_fn(states, times) -> records, one record per state: the recorded
    states are kept until a chunk of them is full (see ``_record_chunk``)
    or the run ends, then handed over in time order, so a run's records
    come from one call per chunk. A run that raises records nothing more.
    callbacks are called (step, t, state) after every accepted step. The
    span must be a whole number of dt steps. ``run`` alone sets the
    float-error policy: the loop runs in one ``np.errstate``, which its
    steps and every ``diag_fn`` call share, so float errors print nothing,
    and a blow-up arrives as the step guard's NumericBlowup (a record's
    overflow as the non-finite values it holds).
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
    chunk = _record_chunk(initial.grid)
    pending = []  # (state, t) of the recorded instants not yet handed over

    def flush():
        if pending:
            states, times = map(list, zip(*pending))
            result.records.extend(diag_fn(states, times))
            pending.clear()

    def emit(state, t):
        result.diag_times.append(t)
        if diag_fn is None:
            result.records.append(None)
            return
        pending.append((state, t))
        if len(pending) == chunk:
            flush()

    state = initial
    with np.errstate(all="ignore"):
        emit(initial, t0)
        for m in range(n_steps):
            t_next = t0 + (m + 1) * cfg.dt
            state = step_imex(state, params, cfg, t=t0 + m * cfg.dt)
            for cb in callbacks:
                cb(m + 1, t_next, state)
            if (m + 1) % cfg.diag_stride == 0 or m + 1 == n_steps:
                emit(state, t_next)
        flush()
    result.final_state = state
    result.t_final = t0 + n_steps * cfg.dt
    result.steps = n_steps
    return result


# -- checkpointing ------------------------------------------------------------

def save_checkpoint(path, state, params: PhysParams, t: float):
    """Versioned NPZ dump of grid, physical parameters, state, and time,
    written at ``path`` as given (``np.savez`` would append ``.npz`` to a
    path without that suffix).

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
    with open(path, "wb") as fh:
        np.savez(fh, **payload)


def _read_archive(path) -> dict:
    """Every array of an NPZ file; a file that is not one, or that was cut
    short or corrupted, raises ConfigurationError; numpy gets an open file,
    which is closed also when it fails to read it."""
    with open(path, "rb") as fh:
        try:
            data = np.load(fh, allow_pickle=False)
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
        if not (finite_number(self.tol) and self.tol > 0):
            raise ConfigurationError(f"tolerance must be positive and finite, got {self.tol}")
        if not (type(self.max_iters) is int and self.max_iters >= 1):
            raise ConfigurationError(f"max_iters must be >= 1, got {self.max_iters}")
        if not (type(self.n_steps) is int and self.n_steps >= 2):
            raise ConfigurationError(f"n_steps must be >= 2, got {self.n_steps}")
        if not (finite_number(self.p) and self.p >= 1):
            raise ConfigurationError(f"p must be finite and >= 1, got {self.p}")


@dataclass
class PicardResult:
    """Outcome of :func:`picard_solve`. The final iterate is kept as its
    [time, ...] (log-density) and [component, time, ...] (velocity) stacks
    of half spectra, on the grid of the data; ``ifft_array`` of a stack
    gives its samples at every time level."""

    times: np.ndarray
    diff_norms: list
    iterations: int
    converged: bool
    data_norms: dict
    _qhat: np.ndarray = field(repr=False)
    _vhat: np.ndarray = field(repr=False)


def _picard_sources(g, params, qhat, vhats):
    """Frozen sources for the next iterate at every time level at once.

    ``qhat`` is a [time, ...] stack of half spectra and ``vhats`` a
    [component, time, ...] one; returns the source spectra in the same
    layouts. Each level sees the same operations as when sources were built
    one level at a time, so the stacks are bit-identical to that. The
    grid's dimension picks the body, as in ``model``: on a 1-D grid
    (``_picard_line``) each stage transforms the stack of its arrays, 4
    calls per iteration; on a 2-D grid the arrays are taken one at a time,
    10 transforms per iteration, and the intermediates are updated in place
    and dropped per component to bound the memory of the stacks.

    In 2-D each product is truncated as ``model``'s 2-D tendencies truncate
    theirs: the mask multiplies its spectrum, with no round trip through
    the grid, and the pressure term -a grad q enters each velocity source
    as the spectrum -a i k q-hat, which the mask leaves alone. So f-hat is
    exactly 0 on the modes the mask drops, and g-hat_i is -a i k_i q-hat
    there; the spectra agree with a round trip's to roundoff.
    """
    if g.dim == 1:
        return _picard_line(g, params, qhat, vhats)
    mask, ik = g.half_mask, g.half_ik
    gq = grad_arrays(g, qhat)
    u = ifft_array(g, vhats)  # v for now
    f_hat = fft_array(g, -sum(u[i] * gq[i] for i in range(g.dim))
                      + params.mu * sum(c ** 2 for c in gq))
    f_hat *= mask
    for i in range(g.dim):
        u[i] -= params.mu * gq[i]  # u = v - mu grad q
    g_hat = np.empty_like(vhats)
    for i in range(g.dim):
        dv_i = grad_arrays(g, vhats[i])
        adv = sum(u[j] * dv_i[j] for j in range(g.dim))
        qdv = sum(gq[j] * dv_i[j] for j in range(g.dim))
        del dv_i
        np.multiply(mask, fft_array(g, -adv + params.mu * qdv), out=g_hat[i])
        g_hat[i] -= params.a * ik[i] * qhat
    return f_hat, g_hat


def _picard_line(g, params, qhat, vhats):
    """``_picard_sources`` on a 1-D grid: the same products in three
    stages, each on the stack of its rows: the gradients of q and v with v
    (one inverse call); the two products, truncated together (a forward
    and an inverse call); their spectra (one forward call). The products
    keep the 0 + that the 2-D body's sums start from, so a -0.0 comes out
    as it does there. The truncation keeps its round trip through the grid
    (``dealias_values``): ``lifespan.calibrate_c1`` runs this body on data
    where the iteration amplifies roundoff, and sources assembled on the
    spectra, as in the 2-D body, converge at horizons 3.0-3.875 where the
    round trip ends in NonContraction, which moves C1 from 11.0 to 15.5."""
    (ik,) = g.half_ik
    gq, dv, v = ifft_array(g, np.array([ik * qhat, ik * vhats[0], vhats[0]]))
    u = v - params.mu * gq
    src = dealias_values(g, np.array([-(0 + v * gq) + params.mu * (0 + gq ** 2),
                                      -(0 + u * dv) + params.mu * (0 + gq * dv)]))
    src[1] -= params.a * gq
    hats = fft_array(g, src)
    return hats[0], hats[1:]


def _duhamel(g, e_fac, h_src):
    """Trapezoid Duhamel sums of the forced heat equation with zero data,
    bar[m+1] = e (bar[m] + h[m]) + h[m+1], from the half-step-weighted
    sources h; the time axis is the one just before the spectral axes.
    Each level is computed in its own slot, with no temporaries."""
    lead = h_src.ndim - 1 - g.dim
    bar = np.empty_like(h_src)
    b, h = (list(a.swapaxes(0, lead)) for a in (bar, h_src))
    b[0].fill(0.0)
    for m in range(len(h) - 1):
        nxt = b[m + 1]
        np.add(b[m], h[m], out=nxt)
        np.multiply(e_fac, nxt, out=nxt)
        np.add(nxt, h[m + 1], out=nxt)
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
    # complex, so the Duhamel sums' products cast nothing: the same bytes
    e_fac = np.exp(-params.mu * g.half_k2 * dt).astype(complex)

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

        delta = tilde_norm(g, q_new - qs, spec_q)
        for i in range(g.dim):
            delta += tilde_norm(g, v_new[i] - vs[i], spec_v)

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

    return PicardResult(times, diff_norms, iterations, converged, data_norms, qs, vs)
