"""Model terms for viscous capillary compressible flow on the torus.

The system evolves density rho and velocity u with density-weighted shear
viscosity 2*mu*rho, zero bulk viscosity, capillarity coefficient kappa/rho
and pressure a*rho^gamma. The capillarity divergence div K is
kappa*div(rho*hess ln rho); ``rhs_primitive`` takes div K/rho in gradient
form, kappa*grad(lap ln rho + |grad ln rho|^2/2), and ``verify`` holds the
compact grouping as the reference, with two more that it checks.
The effective formulation evolves q = ln(rho/rho_bar) and
v = u + mu*grad(ln rho); it requires kappa >= mu^2. Its capillary
correction (kappa - mu^2) div(rho hess q)/rho is taken in the same gradient
form, (kappa - mu^2) grad(lap q + |grad q|^2/2), and drops out exactly at
kappa = mu^2.

All right-hand sides are evaluated pseudo-spectrally: derivatives in
Fourier space, products on the grid, every product truncated by the 2/3
rule (Orszag): the truncation is part of the scheme, not an option, and
the budgets, formulation equivalence and Picard contraction are all
checked on it. ln(rho) is taken pointwise and needs a positive density;
the vacuum floor of a run is the stepper's guard.

The stepper calls ``rhs_primitive`` and ``rhs_effective`` alike:
``rhs_*(g, p, vals, hats) -> (on_grid, spectral)``. ``vals`` are the samples
of the step's unknowns ([rho, *u] or [q, *v], with leading member axes on a
1-D grid) and ``hats`` the half spectra of the spectral ones (a stack on a
1-D grid, any sequence on a 2-D one). They return the on-grid tendencies
([d_t rho] or []) and the spectral ones laid out like ``hats``, without the
integrating factor's mu*Laplacian; each truncated product costs one forward
transform and a mask multiply. Their transforms are grouped into the
sequential stages of the formulas, and the grid's dimension picks the body
that runs them. The 1-D body is written for one axis: each stage is one
``fft_array``/``ifft_array`` call on the stack of its rows, and its
multipliers (i k mask, a*i*k and the primitive momentum's folded
linear terms) are made once per (grid, params) by ``_line``. The 2-D body
runs each stage through ``fft_stage``/``ifft_stage``, which take its
arrays one at a time, as they are reached, and forms its multipliers per
use, so that no more full arrays are live than the formulas need; its sums
over components are generator sums for that reason. They check nothing: the stepper's guard rejects a
non-finite result one stage later.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConfigurationError, DomainError, finite_number
from .fields import Grid, RealField, fft_array, fft_stage, grad_arrays, ifft_array, ifft_stage

QUANTUM_TOL = 1e-12


@dataclass(frozen=True)
class PhysParams:
    """Physical coefficients: viscosity, capillarity, pressure law, reference density."""

    mu: float
    kappa: float
    a: float = 1.0
    gamma: float = 1.0
    rho_bar: float = 1.0

    def __post_init__(self):
        checks = [
            ("mu", self.mu, self.mu > 0),
            ("kappa", self.kappa, self.kappa > 0),
            ("a", self.a, self.a >= 0),
            ("gamma", self.gamma, self.gamma >= 1),
            ("rho_bar", self.rho_bar, self.rho_bar > 0),
        ]
        for name, value, ok in checks:
            if not (ok and finite_number(value)):
                raise ConfigurationError(f"invalid {name} = {value}")

    def is_quantum(self) -> bool:
        """True when kappa equals mu^2 to within 1e-12."""
        return abs(self.kappa - self.mu ** 2) <= QUANTUM_TOL

    def check_effective(self):
        """Raise ConfigurationError when kappa < mu^2 beyond 1e-12, where
        the effective formulation does not apply."""
        if self.kappa - self.mu ** 2 < -QUANTUM_TOL:
            raise ConfigurationError(
                f"effective formulation requires kappa >= mu^2, got kappa = {self.kappa}, "
                f"mu^2 = {self.mu**2}")


def _vector(grid, comps, name):
    comps = tuple(comps)
    if len(comps) != grid.dim:
        raise ConfigurationError(f"{name} has {len(comps)} components on a dim-{grid.dim} grid")
    for c in comps:
        if c.grid != grid:
            raise ConfigurationError(f"{name} component lives on a different grid")
    return comps


@dataclass(frozen=True)
class PrimitiveState:
    """Density and velocity samples; density must be strictly positive."""

    rho: RealField
    u: tuple

    def __post_init__(self):
        object.__setattr__(self, "u", _vector(self.rho.grid, self.u, "u"))
        if np.min(self.rho.values) <= 0:
            raise DomainError(f"density must be positive, min = {np.min(self.rho.values):.6g}")

    @property
    def grid(self) -> Grid:
        return self.rho.grid


@dataclass(frozen=True)
class EffectiveState:
    """Log-density ratio q and effective velocity v."""

    q: RealField
    v: tuple

    def __post_init__(self):
        object.__setattr__(self, "v", _vector(self.q.grid, self.v, "v"))

    @property
    def grid(self) -> Grid:
        return self.q.grid


def _check_density(rho):
    """Samples of rho, which ln(rho) needs strictly positive."""
    rmin = float(np.min(rho.values))
    if rmin <= 0.0:
        raise DomainError(f"density must be positive for ln(rho), min rho = {rmin:.6g}")
    return rho.values


# -- change of variables ----------------------------------------------------

def to_effective(s: PrimitiveState, p: PhysParams) -> EffectiveState:
    """(rho, u) -> (q, v) with q = ln(rho/rho_bar), v = u + mu*grad(q)."""
    g = s.grid
    q_vals = np.log(_check_density(s.rho) / p.rho_bar)
    gq = grad_arrays(g, fft_array(g, q_vals))
    v = tuple(RealField(g, s.u[i].values + p.mu * gq[i]) for i in range(g.dim))
    return EffectiveState(RealField(g, q_vals), v)


# -- right-hand sides --------------------------------------------------------

class _Line(NamedTuple):
    """The multipliers of the 1-D tendencies at one (grid, params), all
    complex, and its coefficients as 0-d float64 arrays: a Python float
    operand costs a ufunc call about 0.5 µs more, and a real multiplier of
    a spectrum about 0.4 µs more (numpy casts it to complex first), each
    for the same product bit for bit."""

    mask: np.ndarray
    ik: np.ndarray
    ik_mask: np.ndarray  # i k mask: the derivative of a truncated spectrum
    a_ik: np.ndarray  # a i k: the gradient of the linear pressure
    visc: np.ndarray  # mu |k|^2 (1 - 2 mask): mu d_x div u inside the mask
    cap: np.ndarray  # mask (kappa i k (i k)^2 - a i k): kappa d_x lap ln r - a d_x ln r
    sq_ik: np.ndarray  # kappa/2 i k mask: the gradient of kappa/2 |d_x ln r|^2
    two_mu: np.ndarray
    mu: np.ndarray


@functools.lru_cache(maxsize=8)
def _line(g: Grid, p: PhysParams) -> _Line:
    """The 1-D multipliers at (g, p), made on first use and kept; each is a
    short vector. ``cap`` holds the linear pressure at gamma = 1 only: away
    from it the pressure force is a grid product."""
    (ik,) = g.half_ik
    mask = g.half_mask
    ik_mask = ik * mask
    a_ik = p.a * ik
    cap = p.kappa * ik * ik * ik - (a_ik if p.gamma == 1.0 else 0.0)
    visc = p.mu * g.half_k2 * (1.0 - 2.0 * mask)
    return _Line(mask.astype(complex), ik, ik_mask, a_ik, visc.astype(complex),
                 mask * cap, 0.5 * p.kappa * ik_mask,
                 *(np.array(c, float) for c in (2.0 * p.mu, p.mu)))


def rhs_primitive(g: Grid, p: PhysParams, vals, hats):
    """Tendencies of (rho, u) from ``vals`` = [r, *u] and ``hats``, the
    half spectra of u (see the module docstring).

    Returns ([d_t rho], spectral): the undiffused density stays on the
    grid; ``spectral``, laid out like ``hats``, holds per component of u the
    half spectrum of d_t u - mu*lap(u). The momentum equation is taken in
    gradient form, with l = ln r and w = a gamma r^(gamma - 1):

        d_t u = mu lap u + mu grad div u + 2 mu Du.grad l - (u.grad)u
                + kappa grad(lap l + |grad l|^2/2) - w grad l,

    from (1/r) div(2 mu r Du) = mu lap u + mu grad div u + 2 mu Du.grad l
    and (1/r) div K = kappa grad(lap l + |grad l|^2/2). Three transform
    stages: forward r u and l; inverse d_t rho, grad u and grad l; forward
    the grid products, 2 mu Du.grad l - (u.grad)u per component (less
    w grad l away from gamma = 1), and |grad l|^2. mu grad div u,
    kappa grad lap l and, at gamma = 1 (w = a), a grad l are multiplies on
    the spectra of u and l. The result is mask * (the spectrum of d_t u)
    + mu |k|^2 u-hat, so a mode the 2/3 rule drops has a zero net
    tendency; inside the mask mu lap u cancels and is not formed.
    """
    if g.dim == 1:
        return _primitive_line(g, p, vals, hats)
    r, *u = vals
    mask, ik, dim = g.half_mask, g.half_ik, g.dim
    # arrays no later stage reads are dropped as soon as they are used up,
    # which keeps the peak memory of a 2-D step where it was
    *flux, lhat = fft_stage(g, [*[r * c for c in u], np.log(r)])
    drho_hat = sum(k * mask * f for k, f in zip(ik, flux))
    del flux
    drho, *grads = ifft_stage(g, itertools.chain(
        (drho_hat,), (k * w for w in hats for k in ik), (k * lhat for k in ik)))
    del drho_hat
    drho = -drho
    # grads[i * dim + j] = d_j u_i, then gl[j] = d_j l
    gl = grads[dim * dim:]
    mgl = [p.mu * c for c in gl]
    drift = [m - c for m, c in zip(mgl, u)]  # mu grad l - u
    w = p.a * p.gamma * r ** (p.gamma - 1.0) if p.gamma != 1.0 else None

    def products():
        for i in range(dim):
            f = sum(drift[j] * grads[i * dim + j] + mgl[j] * grads[j * dim + i]
                    for j in range(dim))
            if w is not None:
                f -= w * gl[i]
            yield f
        yield sum(c * c for c in gl)

    *force, sq_hat = fft_stage(g, products())
    del grads, gl, mgl, drift, w
    # the potential of the gradient terms: kappa (|grad l|^2/2 + lap l),
    # mu div u and, at gamma = 1, -a l
    pot = 0.5 * p.kappa * sq_hat + p.mu * sum(k * h for k, h in zip(ik, hats))
    pot -= (p.kappa * g.half_k2 + (p.a if p.gamma == 1.0 else 0.0)) * lhat
    outside = (1.0 - mask) * (p.mu * g.half_k2)
    return [drho], [mask * (f + k * pot) + outside * h for f, k, h in zip(force, ik, hats)]


def _primitive_line(g, p, vals, hats):
    """``rhs_primitive`` on a 1-D grid: the same stages and products, each
    stage one transform call on the stack of its rows, and the spectral
    terms folded into ``_line``'s multipliers."""
    m = _line(g, p)
    r, u = vals
    # each stage's rows are written into its stack (np.array would copy
    # them there); the grid stack of stage 1 is reused by stage 3
    rows = np.empty((2, *r.shape))
    np.multiply(r, u, out=rows[0])
    np.log(r, out=rows[1])
    flux, lhat = fft_array(g, rows)
    spectra = np.empty((3, *flux.shape), complex)
    np.multiply(m.ik_mask, flux, out=spectra[0])
    np.multiply(m.ik, hats[0], out=spectra[1])
    np.multiply(m.ik, lhat, out=spectra[2])
    drho, du, dl = ifft_array(g, spectra)
    force = np.multiply(m.two_mu, dl, out=rows[0])  # (2 mu d_x l - u) d_x u
    force -= u
    force *= du
    if p.gamma != 1.0:
        force -= p.a * p.gamma * r ** (p.gamma - 1.0) * dl
    np.multiply(dl, dl, out=rows[1])
    force_hat, sq_hat = fft_array(g, rows)
    out = m.visc * hats
    out += m.mask * force_hat
    out += m.sq_ik * sq_hat
    out += m.cap * lhat
    return [-drho], out


def rhs_effective(g: Grid, p: PhysParams, vals, hats):
    """Tendencies of (q, v) from ``vals`` = [q, *v] and ``hats``, their
    half spectra (see the module docstring).

    Returns ([], spectral): ``spectral``, laid out like ``hats``, holds for
    q and per component of v the half spectrum of d_t w - mu*lap(w).
    Transport -(u.grad)v + mu*(grad q . grad)v is one product
    (mu grad q - u).grad v, truncated together with the pressure and
    capillary terms by one mask. Two transform stages: the gradients, then
    the products. Away from kappa = mu^2, |grad q|^2 joins the products,
    and the capillary correction (kappa - mu^2) grad(lap q + |grad q|^2/2)
    is a multiply on its spectrum and on q-hat, added before the mask.
    kappa < mu^2 is not checked here: the stepper's configuration check
    rejects it before the first step.
    """
    if g.dim == 1:
        return _effective_line(g, p, vals, hats)
    (q, *v), (qhat, *vhats) = vals, hats
    mask, ik, dim = g.half_mask, g.half_ik, g.dim
    quantum = p.is_quantum()
    grads = list(ifft_stage(g, (k * w for w in hats for k in ik)))
    gq = grads[:dim]
    dv = grads[dim:]  # dv[i * dim + j] = d_j v_i

    u = [v[j] - p.mu * gq[j] for j in range(dim)]
    transport = sum(u[j] * gq[j] for j in range(dim))
    drift = [p.mu * gq[j] - u[j] for j in range(dim)]
    terms = [sum(drift[j] * dv[i * dim + j] for j in range(dim)) for i in range(dim)]
    del u, drift  # as in rhs_primitive, for the peak memory of a 2-D step
    if p.gamma != 1.0:
        rho = p.rho_bar * np.exp(q)
        w = p.a * p.gamma * rho ** (p.gamma - 1.0)
        terms = [terms[i] - w * gq[i] for i in range(dim)]
    # |grad q|^2 is transformed before the terms, so that each term's
    # spectrum takes the correction as it is reached
    products = [transport, *terms] if quantum else [transport, sum(c * c for c in gq), *terms]
    out = iter(fft_stage(g, products))
    nq = -sum(k * w for k, w in zip(ik, vhats)) - mask * next(out)
    if quantum:
        out = [mask * h for h in out]
    else:
        pot = (p.kappa - p.mu ** 2) * (0.5 * next(out) - g.half_k2 * qhat)
        out = [mask * (h + k * pot) for h, k in zip(out, ik)]
    if p.gamma == 1.0:
        out = [h - p.a * k * qhat for h, k in zip(out, ik)]
    return [], [nq, *out]


def _effective_line(g, p, vals, hats):
    """``rhs_effective`` on a 1-D grid: the same stages and products, each
    stage one transform call on the stack of its rows."""
    m = _line(g, p)
    q, v, qhat, vhat = vals[0], vals[1], hats[0], hats[1]  # cheaper than unpacking
    gq, dv = ifft_array(g, np.array([m.ik * qhat, m.ik * vhat]))
    u = v - m.mu * gq
    transport = u * gq
    term = (m.mu * gq - u) * dv
    if p.gamma != 1.0:
        rho = p.rho_bar * np.exp(q)
        term -= p.a * p.gamma * rho ** (p.gamma - 1.0) * gq
    if p.is_quantum():
        out = fft_array(g, np.array([transport, term]))
    else:
        out = fft_array(g, np.array([transport, term, gq * gq]))
        out[1] += (p.kappa - p.mu ** 2) * m.ik * (0.5 * out[2] - g.half_k2 * qhat)
    out = m.mask * out[:2]
    out[0] = -(m.ik * vhat) - out[0]  # the tendency of q
    if p.gamma == 1.0:
        out[1] -= m.a_ik * qhat
    return [], out
