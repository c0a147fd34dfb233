"""Monitors for every functional the analysis controls: energies, entropy
dissipations, the integrability-gain bound with its explicit constants,
level-set statistics of 1/rho, the geometric truncation recursion, and the
resulting a-priori vacuum bound.

Conventions: integrals are grid quadratures (spectrally accurate for smooth
periodic fields), time accumulations use the trapezoid rule on the recorded
diagnostic times, and the capillary part of the energy is 2*kappa*|grad
sqrt(rho)|^2 - the coefficient that makes dE/dt = -dissipation an identity
for this capillarity (see notes in check_energy_inequality).

Validation stays at the state boundary: a state's fields were checked when
it was built, and every quadrature here runs ``Grid.integrate`` on raw
samples, so a diagnostics record re-validates nothing. A record builds one
``_Fields`` set and calls the public functionals on it, so the record and
the API evaluate the same formulas. The set takes its derivatives in two
stages of independent transforms, ``fft_stage``/``ifft_stage`` each way:
first those of the fields the source holds, then those of the velocity it
does not hold.

A set may hold the samples of several states of one grid, stacked on a
leading axis. ``DiagnosticsAccumulator`` takes the recorded states in
chunks, and the records of a chunk share one set: on a 1-D grid that is four
transform calls per chunk, whatever its length, and each elementwise op and
each row sum runs once for the whole chunk. Every row is bit-identical to
the record of its state alone: row-wise transforms, elementwise ops,
last-axis sums and numpy's roots equal their per-state calls. A functional
called on one state returns a float (a numpy float64 where it takes a
root), on a stacked set an array with one value per state.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DomainError
from .fields import RealField, fft_array, fft_stage, grad_arrays, ifft_stage
from .model import EffectiveState, PhysParams, PrimitiveState

GAIN_EXPONENTS = (2, 4, 8, 16)

CSV_COLUMNS = (
    "t", "mass", "energy", "bd_entropy", "dissip_u", "dissip_v",
    "dissip_density", "jungel", "min_rho", "max_inv_rho", "h1_sqrt",
    "lp_gain_p4", "lp_gain_p8", "lp_gain_p16",
)


def _derivatives(grid, arrays, mults) -> list:
    """Samples of m * f-hat for each array f and each multiplier m of its
    list in ``mults``, one list per array: one forward and one inverse
    transform stage."""
    flat = iter(ifft_stage(grid, (m * h for h, ms in zip(fft_stage(grid, arrays), mults)
                                  for m in ms)))
    return [[next(flat) for _ in ms] for ms in mults]


class _Fields:
    """Derived fields of one state, or of a stack of states, each computed
    on first use and kept.

    The source is a primitive or effective state, a bare density field
    (params is then only read for rho_bar and the pressure law), or a list
    of states of one kind and grid. A set works on the source's samples:
    ``scalar`` (rho or q) and ``vector`` (the components of u or v) are a
    state's own arrays, and for a list of several states [state, ...]
    stacks of them; ``axes`` are the grid axes every reduction runs over.
    The derivatives of the fields the source holds are taken together in
    ``_held``; those of the velocity it does not hold (v of a primitive
    state, u of an effective one) in ``du`` or ``dv``.
    """

    def __init__(self, source, params: PhysParams = None):
        states = source if isinstance(source, list) else [source]
        kinds, scalars, vectors = zip(*map(_samples, states))
        self.grid, self.params, self.kind = states[0].grid, params, kinds[0]
        if len(states) == 1:
            self.scalar, self.vector = scalars[0], vectors[0]
        else:
            self.scalar = np.array(scalars)
            self.vector = [np.array(c) for c in zip(*vectors)]
        self.axes = tuple(range(-self.grid.dim, 0))

    @cached_property
    def rho(self) -> np.ndarray:
        """Density samples, checked to be strictly positive."""
        if self.kind is EffectiveState:
            r = self.params.rho_bar * np.exp(self.scalar)
        else:
            r = self.scalar
        m = float(r.min())
        if m <= 0:
            raise DomainError(f"density must stay positive, min = {m}")
        return r

    @cached_property
    def max_inv_rho(self):
        return (1.0 / self.rho).max(axis=self.axes)

    @cached_property
    def _held(self) -> list:
        """Derivatives of the fields the source holds, per field a list:
        grad rho; grad sqrt(rho) followed by lap sqrt(rho); then, for a
        state, grad ln(rho) (grad q in the effective form) and the gradient
        of each velocity component it holds."""
        g = self.grid
        arrays = [self.rho, self.sqrt_rho]
        if self.kind is PrimitiveState:
            arrays += [np.log(self.rho), *self.vector]
        elif self.kind is EffectiveState:
            arrays += [self.scalar, *self.vector]
        mults = [g.half_ik, (*g.half_ik, -g.half_k2)] + [g.half_ik] * (len(arrays) - 2)
        return _derivatives(g, arrays, mults)

    @cached_property
    def u(self) -> list:
        """Fluid velocity; v - mu grad q in the effective form."""
        if self.kind is PrimitiveState:
            return self.vector
        gq = self._held[2]
        return [self.vector[i] - self.params.mu * gq[i] for i in range(self.grid.dim)]

    @cached_property
    def v(self) -> list:
        """Drift-corrected velocity v = u + mu grad(ln rho)."""
        if self.kind is EffectiveState:
            return self.vector
        gl = self._held[2]
        return [self.vector[i] + self.params.mu * gl[i] for i in range(self.grid.dim)]

    @cached_property
    def du(self) -> list:
        """Velocity gradient, du[i][j] = d_j u_i."""
        if self.kind is PrimitiveState:
            return self._held[3:]
        return _derivatives(self.grid, self.u, [self.grid.half_ik] * self.grid.dim)

    @cached_property
    def dv(self) -> list:
        """Gradient of v, dv[i][j] = d_j v_i."""
        if self.kind is EffectiveState:
            return self._held[3:]
        return _derivatives(self.grid, self.v, [self.grid.half_ik] * self.grid.dim)

    @cached_property
    def v_speed2(self) -> np.ndarray:
        return sum(c ** 2 for c in self.v)

    @cached_property
    def pi(self) -> np.ndarray:
        """Pressure potential, normalized to vanish to second order at rho_bar.

        For the linear law it is a(rho ln(rho/rho_bar) + rho_bar - rho); for
        gamma > 1 the Lions construction gives
        a/(gamma-1) * (rho^g - rho_bar^g - g rho_bar^(g-1) (rho - rho_bar)).
        """
        r = self.rho
        a, g, rb = self.params.a, self.params.gamma, self.params.rho_bar
        if g == 1.0:
            return a * (r * np.log(r / rb) + rb - r)
        return (a / (g - 1.0)) * (r ** g - rb ** g - g * rb ** (g - 1.0) * (r - rb))

    @cached_property
    def sqrt_rho(self) -> np.ndarray:
        return np.sqrt(self.rho)

    @cached_property
    def grad_sqrt2(self) -> np.ndarray:
        """|grad sqrt(rho)|^2."""
        return sum(c ** 2 for c in self._held[1][:-1])


def _samples(source) -> tuple:
    """(kind, scalar, vector) of a state or a density field: its class and
    its own sample arrays."""
    if isinstance(source, RealField):
        return RealField, source.values, []
    scalar, vector = (source.rho, source.u) if isinstance(source, PrimitiveState) \
        else (source.q, source.v)
    return type(source), scalar.values, [c.values for c in vector]


def _fields(source, params: PhysParams = None) -> _Fields:
    """The derived-field set of ``source``; a set passes through unchanged."""
    return source if isinstance(source, _Fields) else _Fields(source, params)


def _rows(x) -> list:
    """A per-state result as a list of Python floats, one per state."""
    return np.reshape(x, -1).tolist()


def energy(state, params: PhysParams) -> float:
    """Total energy: kinetic + pressure potential + capillary.

    The capillary coefficient is 2*kappa: with kappa(rho) = kappa1/rho the
    work of the capillary stress against u is the exact time derivative of
    2*kappa1*int |grad sqrt(rho)|^2, so this is the functional that obeys
    dE/dt = -int 2 mu rho |Du|^2.
    """
    f = _fields(state, params)
    speed2 = sum(c ** 2 for c in f.u)
    return f.grid.integrate(0.5 * f.rho * speed2 + f.pi
                            + 2.0 * params.kappa * f.grad_sqrt2)


def bd_entropy(state, params: PhysParams) -> float:
    """Auxiliary entropy built on the drift-corrected velocity."""
    f = _fields(state, params)
    return f.grid.integrate(0.5 * f.rho * f.v_speed2 + f.pi)


def dissip_u_rate(state, params: PhysParams) -> float:
    """int 2 mu rho |Du|^2 with Du the symmetric velocity gradient."""
    f = _fields(state, params)
    g = f.grid
    du = f.du
    acc = np.zeros(f.rho.shape)
    for i in range(g.dim):
        for j in range(g.dim):
            acc += (0.5 * (du[i][j] + du[j][i])) ** 2
    return g.integrate(2.0 * params.mu * f.rho * acc)


def dissip_v_rate(state, params: PhysParams) -> float:
    """int mu rho |grad v|^2 over the full gradient."""
    f = _fields(state, params)
    acc = np.zeros(f.rho.shape)
    for dv_i in f.dv:
        acc += sum(c ** 2 for c in dv_i)
    return f.grid.integrate(params.mu * f.rho * acc)


def dissip_density_rate(state, params: PhysParams) -> float:
    """int mu P'(rho)/rho |grad rho|^2; a*mu/rho |grad rho|^2 when gamma=1."""
    f = _fields(state, params)
    r = f.rho
    grad2 = sum(c ** 2 for c in f._held[0])
    weight = params.a * params.gamma * params.mu * r ** (params.gamma - 2.0)
    return f.grid.integrate(weight * grad2)


def jungel_rate(state, params: PhysParams) -> float:
    """Squared L2 norm of the Laplacian of sqrt(rho)."""
    f = _fields(state, params)
    return f.grid.integrate(f._held[1][-1] ** 2)


def sqrt_h1_norm(rho: RealField, rho_bar: float) -> float:
    """L2 distance of sqrt(rho) from sqrt(rho_bar) plus the L2 gradient norm."""
    f = _fields(rho)
    l2 = np.sqrt(f.grid.integrate((f.sqrt_rho - math.sqrt(rho_bar)) ** 2))
    return l2 + np.sqrt(f.grid.integrate(f.grad_sqrt2))


def lp_gain_value(state, params: PhysParams, p: float) -> float:
    """Weighted velocity norm ||rho^(1/p) v||_{L^p} = (int rho |v|^p)^(1/p)."""
    if p < 1:
        raise DomainError(f"exponent must be >= 1, got {p}")
    f = _fields(state, params)
    return np.power(f.grid.integrate(f.rho * np.sqrt(f.v_speed2) ** p), 1.0 / p)


@dataclass
class DiagnosticsRecord:
    t: float
    mass: float
    energy: float
    bd_entropy: float
    dissip_u: float
    dissip_v: float
    dissip_density: float
    jungel: float
    lp_gain: dict
    min_rho: float
    max_inv_rho: float
    h1_sqrt: float


class DiagnosticsAccumulator:
    """Callable diagnostic recorder for solver.run.

    A call takes a chunk of states with their times and returns their
    records, in order; the records of a run come from calls on its chunks
    in time order. Instantaneous functionals are evaluated on one field set
    for the whole chunk; dissipation rates and the Laplacian functional are
    accumulated with the trapezoid rule, record by record, over the times,
    which must be nondecreasing across calls and within a chunk. An empty
    chunk has no records and leaves the integrals as they were.
    """

    def __init__(self, params: PhysParams):
        self.params = params
        self._prev_t = None
        self._prev_rates = None
        self._acc = np.zeros(4)

    def __call__(self, states, times) -> list:
        if len(states) != len(times):
            raise DomainError(f"{len(states)} states but {len(times)} times")
        for before, t in zip([self._prev_t, *times], times):
            if before is not None and t - before < -1e-12:
                raise DomainError(f"diagnostic times must be nondecreasing, got {t} after {before}")
        if not states:
            return []
        p = self.params
        f = _Fields(list(states), p)
        rates = np.reshape([dissip_u_rate(f, p), dissip_v_rate(f, p),
                            dissip_density_rate(f, p), jungel_rate(f, p)], (4, -1)).T
        mass, en, bd, min_rho, max_inv_rho, h1 = map(_rows, (
            f.grid.integrate(f.rho), energy(f, p), bd_entropy(f, p),
            f.rho.min(axis=f.axes), f.max_inv_rho, sqrt_h1_norm(f, p.rho_bar)))
        gains = {q: _rows(lp_gain_value(f, p, q)) for q in GAIN_EXPONENTS}

        records = []
        for j, t in enumerate(times):
            if self._prev_t is not None:
                self._acc += 0.5 * (t - self._prev_t) * (rates[j] + self._prev_rates)
            self._prev_t, self._prev_rates = t, rates[j]
            records.append(DiagnosticsRecord(
                t=t, mass=mass[j], energy=en[j], bd_entropy=bd[j],
                dissip_u=float(self._acc[0]), dissip_v=float(self._acc[1]),
                dissip_density=float(self._acc[2]), jungel=float(self._acc[3]),
                lp_gain={q: gains[q][j] for q in GAIN_EXPONENTS},
                min_rho=min_rho[j], max_inv_rho=max_inv_rho[j], h1_sqrt=h1[j],
            ))
        return records


def _csv_getter(column: str):
    """Reader of one CSV column from a record: the field of that name, or
    for lp_gain_p<k> the gain at k (NaN when the record has none)."""
    if column.startswith("lp_gain_p"):
        k = int(column[len("lp_gain_p"):])
        return lambda rec: rec.lp_gain.get(k, float("nan"))
    return operator.attrgetter(column)


def write_csv(records, path):
    """CSV series in CSV_COLUMNS order, one row per diagnostic time, %.17g
    floats; each row is one ``%`` format of all its values."""
    getters = [_csv_getter(c) for c in CSV_COLUMNS]
    row = ",".join(["%.17g"] * len(getters))
    lines = [",".join(CSV_COLUMNS)]
    lines += [row % tuple([get(rec) for get in getters]) for rec in records]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


@dataclass
class EnergyVerdict:
    ok: bool
    first_violation_t: float = None
    detail: str = ""


def check_energy_inequality(records, tol: float = 1e-4, atol: float = 1e-12) -> EnergyVerdict:
    """Verify the two dissipation inequalities along a recorded run.

    Checks, at every diagnostic time,
      energy(t)     + dissip_u(t)                      <= energy(0)     * (1+tol) + atol
      bd_entropy(t) + dissip_v(t) + dissip_density(t)  <= bd_entropy(0) * (1+tol) + atol
    and that each accumulated dissipation is nonnegative and nondecreasing
    (they are time integrals of nonnegative rates, so a decrease means the
    series was corrupted). atol absorbs roundoff on exactly-zero data. A
    non-finite statistic fails the check: records integrate raw samples, so
    an overflowing integrand reaches the series as inf or nan.
    """
    if not records:
        raise DomainError("empty record series")
    e0 = records[0].energy
    b0 = records[0].bd_entropy
    prev = (0.0, 0.0, 0.0)
    for rec in records:
        diss = (rec.dissip_u, rec.dissip_v, rec.dissip_density)
        if not all(map(math.isfinite, (rec.energy, rec.bd_entropy) + diss)):
            return EnergyVerdict(False, rec.t, f"non-finite statistic at t={rec.t}")
        for name, val, pv in zip(("dissip_u", "dissip_v", "dissip_density"), diss, prev):
            if val < -atol or val < pv - atol:
                return EnergyVerdict(False, rec.t, f"{name} not nondecreasing at t={rec.t}")
        prev = diss
        if rec.energy + rec.dissip_u > e0 * (1 + tol) + atol:
            return EnergyVerdict(False, rec.t, f"energy inequality violated at t={rec.t}")
        if rec.bd_entropy + rec.dissip_v + rec.dissip_density > b0 * (1 + tol) + atol:
            return EnergyVerdict(False, rec.t, f"entropy inequality violated at t={rec.t}")
    return EnergyVerdict(True)


@dataclass
class LpGainReport:
    p: float
    times: list
    lhs: list
    rhs: list
    verdict: bool
    note: str = ""


def lp_gain_check(records, p: float, params: PhysParams, dim: int,
                  tol: float = 1e-3) -> LpGainReport:
    """Compare the measured weighted velocity norm against the Gronwall
    bound with its explicit p-dependent constants.

    The bound holds for the linear pressure law only; otherwise the
    measured side is reported alone. A non-finite measured value fails. A
    factor of the bound that overflows (a power of a huge statistic, or the
    exponential) is inf, so the bound is inf after t = 0, and the note says
    so.
    """
    if p < 4:
        raise ConfigurationError(f"the bound needs p >= 4, got {p}")
    if not records:
        raise DomainError("empty record series")
    if any(p not in rec.lp_gain for rec in records):
        raise DomainError(f"records lack the p={p:g} statistic")
    times = [rec.t for rec in records]
    lhs = [rec.lp_gain[p] for rec in records]
    if params.gamma != 1.0:
        return LpGainReport(p, times, lhs, [], None,
                            note="inequality constants valid only for gamma=1")
    if 2 not in records[0].lp_gain:
        raise DomainError("records lack the p=2 statistic needed for the bound")
    big_t = times[-1]
    b_stat = max(rec.lp_gain[2] for rec in records)
    lp0 = records[0].lp_gain[p]
    a2 = _or_inf(pow, params.a, 2) / 2.0
    bracket = lp0 + _or_inf(pow, b_stat, 4.0 / (p * (p - 2))) * a2 ** (1.0 / p) * (
        dim ** 2 * 2 * p ** 2 / (p - 2) + 2 * p ** 2 * (p - 4)
    ) ** (1.0 / p) * big_t ** (1.0 / p)
    # without pressure (a = 0) the rate is 0, however large the statistic
    growth = 0.0 if a2 == 0 else \
        _or_inf(pow, b_stat, 4.0 / (p - 2)) * a2 * (dim ** 2 * (p - 4) / (p - 2) + 1.0)
    # exp(growth t) is 1 at t = 0, also when the rate overflowed to inf
    rhs = [2.0 ** (1.0 / p) * bracket * (_or_inf(math.exp, growth * t / p) if t else 1.0)
           for t in times]
    verdict = all(math.isfinite(l) and l <= r * (1 + tol) for l, r in zip(lhs, rhs))
    note = "" if all(map(math.isfinite, rhs)) else "the bound overflows to inf"
    return LpGainReport(p, times, lhs, rhs, verdict, note)


def _or_inf(op, *args) -> float:
    """op(*args) on floats (a power, an exponential), or inf where the
    result overflows."""
    try:
        return op(*args)
    except OverflowError:
        return math.inf


# -- level sets of 1/rho^alpha ------------------------------------------------

@dataclass
class LevelSetReport:
    alpha: float
    k: float
    times: list
    measures: np.ndarray
    mu_k: float
    q_norm: float
    r: float
    q: float
    r1: float
    q1: float
    kappa1: float
    kappa: float
    mu_exponent: float
    mu_exponent_hypothesis: float


def level_set_report(states, times, params: PhysParams, alpha: float, k: float,
                     r: float, q: float) -> LevelSetReport:
    """Level-set statistics of rho^(-alpha) over a trajectory.

    The sets A_k(t) = {rho^(-alpha) >= k} are measured by cell counting;
    mu_k integrates lambda(A_k)^(r1/q1) in time. The space-time norm is
    sup_t ||trunc||_L2 + (int ||grad trunc||_L2^2 dt)^(1/2) with
    trunc = max(rho^(-alpha) - k, 0). Both candidate mu-exponents from the
    source analysis are recorded; the definition one (r1/q1) is used.
    """
    if len(states) != len(times) or not states:
        raise DomainError("need a nonempty state series with matching times")
    if k < 1:
        raise ConfigurationError(f"level must satisfy k >= 1, got {k}")
    if alpha <= 0:
        raise ConfigurationError(f"alpha must be positive, got {alpha}")
    if r <= 1 or q <= 1:
        raise ConfigurationError("exponents r, q must exceed 1")
    g = states[0].grid
    n = g.dim
    kappa1 = 1.0 - 1.0 / r - n / (2.0 * q)
    if not (0.0 < kappa1 < 1.0):
        raise ConfigurationError(f"exponent relation 1/r + N/(2q) = 1 - kappa1 needs "
                                 f"kappa1 in (0,1), got {kappa1:.4g}")
    kappa = 2.0 * kappa1 / n
    q1 = 2.0 * q / (q - 1.0)
    r1 = 2.0 * r / (r - 1.0)

    measures = np.empty(len(states))
    sup_l2 = 0.0
    grad_sq = np.empty(len(states))
    for i, s in enumerate(states):
        inv = _Fields(s, params).rho ** (-alpha)
        trunc = np.maximum(inv - k, 0.0)
        measures[i] = g.cell_volume * int(np.count_nonzero(inv >= k))
        sup_l2 = max(sup_l2, math.sqrt(g.integrate(trunc ** 2)))
        grad_sq[i] = g.integrate(sum(c ** 2 for c in grad_arrays(g, fft_array(g, trunc))))
    mu_k = float(np.trapezoid(measures ** (r1 / q1), times)) if len(times) > 1 else 0.0
    q_norm = sup_l2 + math.sqrt(float(np.trapezoid(grad_sq, times))) if len(times) > 1 else sup_l2
    return LevelSetReport(
        alpha=alpha, k=k, times=list(times), measures=measures, mu_k=mu_k,
        q_norm=q_norm, r=r, q=q, r1=r1, q1=q1, kappa1=kappa1, kappa=kappa,
        mu_exponent=r1 / q1, mu_exponent_hypothesis=1.0 / r1,
    )


# -- geometric truncation recursion -------------------------------------------

@dataclass
class DeGiorgiReport:
    theta: float
    vanishes: bool
    log_bounds: np.ndarray
    bounds: np.ndarray
    decay_envelope: np.ndarray = None


def degiorgi_recursion(c: float, b: float, eps: float, y0: float, n_max: int) -> DeGiorgiReport:
    """Closed-form bound for sequences with y_{n+1} <= c b^n y_n^(1+eps).

    Returns ln-space and direct bounds
      y_n <= c^(((1+e)^n - 1)/e) * b^(((1+e)^n - 1)/e^2 - n/e) * y0^((1+e)^n),
    the threshold theta = c^(-1/e) b^(-1/e^2), and the vanishing verdict
    (y0 <= theta and b > 1), in which case y_n <= theta b^(-n/eps).
    """
    if not (c > 0 and eps > 0 and b >= 1 and y0 >= 0):
        raise ConfigurationError("need c > 0, eps > 0, b >= 1, y0 >= 0")
    ns = np.arange(n_max + 1, dtype=float)
    growth = (1.0 + eps) ** ns
    theta = c ** (-1.0 / eps) * b ** (-1.0 / eps ** 2)
    if y0 == 0.0:
        log_bounds = np.full(n_max + 1, -np.inf)
    else:
        log_bounds = ((growth - 1.0) / eps * math.log(c)
                      + ((growth - 1.0) / eps ** 2 - ns / eps) * math.log(b)
                      + growth * math.log(y0))
    with np.errstate(over="ignore", under="ignore"):
        bounds = np.exp(log_bounds)
    vanishes = (y0 <= theta) and (b > 1.0)
    envelope = theta * b ** (-ns / eps) if vanishes else None
    return DeGiorgiReport(theta, vanishes, log_bounds, bounds, envelope)


# -- a-priori bound on sup 1/rho^alpha ----------------------------------------

def dissipation_constant(alpha: float, mu: float) -> float:
    """Young-inequality constant (2/mu)(|alpha+1|^2 + 2 alpha^2)."""
    return (2.0 / mu) * (abs(alpha + 1.0) ** 2 + 2.0 * alpha ** 2)


@dataclass
class VacuumBoundReport:
    bound: float
    measured: float
    consistent: bool
    khat0: float
    gamma_dg: float
    t1: float
    q: float
    r: float
    q1: float
    r1: float
    kappa: float
    q3: float
    beta: float


def vacuum_bound_formula(khat0, gamma_dg, t1, kappa, r1, q1, q3, sqrt_norm,
                         rho_bar, beta=1.0) -> float:
    """Right side of the truncation-method sup bound on 1/rho^alpha:
    2 max(1,k0) (1 + 2^(2/k + 1/k^2) (beta*gamma)^(1+1/k) t1^(1/r1)
                 * (sqrt_norm/(sqrt(rho_bar)-1))^(q3/q1)).
    """
    if rho_bar <= 1.0:
        raise DomainError("the bound needs a reference density above 1")
    lead = 2.0 * max(1.0, khat0)
    amp = (2.0 ** (2.0 / kappa + 1.0 / kappa ** 2)
           * (beta * gamma_dg) ** (1.0 + 1.0 / kappa)
           * t1 ** (1.0 / r1)
           * (sqrt_norm / (math.sqrt(rho_bar) - 1.0)) ** (q3 / q1))
    return lead * (1.0 + amp)


def vacuum_bound_estimate(states, times, params: PhysParams, q_exp: float,
                          t1: float, alpha: float = 1.0, q3: float = 2.0,
                          beta: float = 1.0) -> VacuumBoundReport:
    """Evaluate the truncation-method bound from run statistics on [0, t1]
    and compare with the directly measured sup of 1/rho^alpha.

    Exponents follow 1/r + N/(2q) = 1/2 (so q_exp > N is required) with
    kappa = 1/N. The Gagliardo-Nirenberg factor beta is configuration
    (default 1; the analysis never fixes it numerically), so the comparison
    is a consistency check, not a sharpness test. No command reports it yet.
    """
    if len(states) != len(times) or not states:
        raise DomainError("need a nonempty state series with matching times")
    n = states[0].grid.dim
    if q_exp <= n:
        raise ConfigurationError(f"need q > N = {n} for the exponent relation, got {q_exp}")
    if not (0 < t1 <= times[-1] + 1e-12):
        raise DomainError(f"t1 = {t1} outside the recorded horizon {times[-1]}")
    r = 1.0 / (0.5 - n / (2.0 * q_exp))
    q1 = 2.0 * q_exp / (q_exp - 1.0)
    r1 = 2.0 * r / (r - 1.0)
    kappa = 1.0 / n

    sel = [i for i, t in enumerate(times) if t <= t1 + 1e-12]
    sup_inv = b_2q = sqrt_norm = 0.0
    g = states[0].grid
    f0 = _Fields(states[0], params)
    for i in sel:
        f = f0 if i == 0 else _Fields(states[i], params)
        sup_inv = max(sup_inv, float(f.max_inv_rho))
        b_2q = max(b_2q, float(lp_gain_value(f, params, 2.0 * q_exp)))
        sqrt_norm = max(sqrt_norm, g.integrate(
            np.abs(f.sqrt_rho - math.sqrt(params.rho_bar)) ** q3) ** (1.0 / q3))
    khat0 = float(f0.max_inv_rho) ** alpha
    measured = sup_inv ** alpha
    c_am = dissipation_constant(alpha, params.mu)
    gamma_dg = math.sqrt(c_am) * sup_inv ** (1.0 / (2.0 * q_exp)) * b_2q * t1 ** (1.0 / r)
    bound = vacuum_bound_formula(khat0, gamma_dg, t1, kappa, r1, q1, q3,
                                 sqrt_norm, params.rho_bar, beta)
    return VacuumBoundReport(
        bound=bound, measured=measured, consistent=bound >= measured,
        khat0=khat0, gamma_dg=gamma_dg, t1=t1, q=q_exp, r=r, q1=q1, r1=r1,
        kappa=kappa, q3=q3, beta=beta,
    )
