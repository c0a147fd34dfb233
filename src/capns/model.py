"""Model terms for viscous capillary compressible flow on the torus.

The system evolves density rho and velocity u with density-weighted shear
viscosity 2*mu*rho, zero bulk viscosity, capillarity coefficient kappa/rho
and pressure a*rho^gamma. The capillarity divergence is implemented in two
algebraically equal forms so each can cross-check the other. The effective
formulation evolves q = ln(rho/rho_bar) and v = u + mu*grad(ln rho); it
requires kappa >= mu^2, and the capillary correction drops out exactly at
kappa = mu^2.

All right-hand sides are evaluated pseudo-spectrally: derivatives in
Fourier space, products on the grid, every product truncated by the 2/3
rule (Orszag): the truncation is part of the scheme, not an option, and
the budgets, formulation equivalence and Picard contraction are all
checked on it. ln(rho) is taken pointwise and needs a positive density;
the vacuum floor of a run is the stepper's guard.

The stepper calls ``primitive_tendencies`` and ``effective_tendencies``,
which take grid samples with their half spectra and return each diffusive
unknown's tendency as a half spectrum, without the mu*Laplacian that the
integrating factor carries; each truncated product costs one forward
transform and a mask multiply. Their transforms are grouped into the
sequential stages of the formulas, one ``fft_stage``/``ifft_stage`` call
each, so a 1-D tendency makes one transform call per stage. They check
nothing: the stepper's guard rejects a non-finite result one stage later.
``rhs_primitive`` and ``rhs_effective`` are the grid-valued views of the
same routines and raise ``NumericBlowup`` on a non-finite tendency; no run
calls them, but the benchmark's tracer times them as spans and fails when a
span target is missing.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, NumericBlowup
from .fields import (Grid, RealField, dealias_values, div_array, fft_array, fft_stage,
                     grad_arrays, ifft_array, ifft_stage, lap_array)

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
            if not (ok and math.isfinite(value)):
                raise ConfigurationError(f"invalid {name} = {value}")

    def is_quantum(self) -> bool:
        """True when kappa equals mu^2 to within 1e-12."""
        return abs(self.kappa - self.mu ** 2) <= QUANTUM_TOL


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


def _finite_or_blowup(arrays, where):
    for arr in arrays:
        if not np.isfinite(arr).all():
            raise NumericBlowup(float("nan"), where)


# -- capillarity divergence -------------------------------------------------

def _pairs(dim):
    """Index pairs (i, j), i <= j, of a symmetric tensor, in the order every
    list of its entries here uses."""
    return [(i, j) for i in range(dim) for j in range(i, dim)]


def _hessian_hats(g, lhat):
    """Half spectra of the Hessian entries H_ij, i <= j, of l from its half
    spectrum, made one at a time."""
    ik = g.half_ik
    return (ik[i] * ik[j] * lhat for i, j in _pairs(g.dim))


def _div_sym_hat(g, hats):
    """Half spectra of div S, one per axis, for a symmetric tensor given by
    the half spectra of its entries S_ij, i <= j; each entry is truncated by
    one mask multiply."""
    hats = dict(zip(_pairs(g.dim), (g.half_mask * h for h in hats)))
    ik = g.half_ik
    return [sum(ik[j] * hats[min(i, j), max(i, j)] for j in range(g.dim))
            for i in range(g.dim)]


def div_k_form_a(rho: RealField, kappa1: float) -> tuple:
    """Capillarity divergence from the general gradient/tensor form.

    grad(rho*kap(rho)*lap(rho) + 0.5*(kap(rho) + rho*kap'(rho))*|grad rho|^2)
        - div(kap(rho) * grad(rho) (x) grad(rho))

    with kap(rho) = kappa1/rho. All three pieces are evaluated literally so
    this route stays independent of :func:`div_k_form_b`.
    """
    g = rho.grid
    r = _check_density(rho)
    rhat = fft_array(g, r)
    gr = grad_arrays(g, rhat)
    lap_r = lap_array(g, rhat)
    kap = kappa1 / r
    dkap = -kappa1 / r ** 2
    grad_sq = sum(c ** 2 for c in gr)
    scalar = r * kap * lap_r + 0.5 * (kap + r * dkap) * grad_sq
    scalar_hat = fft_array(g, dealias_values(g, scalar))
    out = []
    for i, ik in enumerate(g.half_ik):
        term1 = ifft_array(g, ik * scalar_hat)
        term2 = div_array(g, [dealias_values(g, kap * gr[i] * gr[j]) for j in range(g.dim)])
        out.append(RealField(g, term1 - term2))
    return tuple(out)


def div_k_form_b(rho: RealField, kappa1: float) -> tuple:
    """Capillarity divergence as kappa1 * div(rho * hess(ln rho))."""
    g = rho.grid
    r = _check_density(rho)
    hess = ifft_stage(g, _hessian_hats(g, fft_array(g, np.log(r))))
    comps = _div_sym_hat(g, fft_stage(g, (r * h for h in hess)))
    return tuple(RealField(g, kappa1 * c) for c in ifft_stage(g, comps))


def div_k_gradient_form(rho: RealField, kappa1: float) -> tuple:
    """Equivalent gradient expression kappa1*(rho*grad(lap ln rho)
    + (rho/2)*grad(|grad ln rho|^2)), kept for cross-checks."""
    g = rho.grid
    r = _check_density(rho)
    ln_hat = fft_array(g, np.log(r))
    lap_ln_hat = -g.half_k2 * ln_hat
    grad_ln = grad_arrays(g, ln_hat)
    sq_hat = fft_array(g, dealias_values(g, sum(c ** 2 for c in grad_ln)))
    out = []
    for ik in g.half_ik:
        comp = r * ifft_array(g, ik * lap_ln_hat) + 0.5 * r * ifft_array(g, ik * sq_hat)
        out.append(RealField(g, kappa1 * dealias_values(g, comp)))
    return tuple(out)


# -- change of variables ----------------------------------------------------

def to_effective(s: PrimitiveState, p: PhysParams) -> EffectiveState:
    """(rho, u) -> (q, v) with q = ln(rho/rho_bar), v = u + mu*grad(q)."""
    g = s.grid
    q_vals = np.log(_check_density(s.rho) / p.rho_bar)
    gq = grad_arrays(g, fft_array(g, q_vals))
    v = tuple(RealField(g, s.u[i].values + p.mu * gq[i]) for i in range(g.dim))
    return EffectiveState(RealField(g, q_vals), v)


# -- right-hand sides --------------------------------------------------------

def primitive_tendencies(g: Grid, p: PhysParams, r, u, uhats):
    """Tendencies of (rho, u) from density samples r, velocity samples u and
    the half spectra uhats of u.

    Returns d_t rho on the grid (the density carries no diffusion) and, per
    velocity component, the half spectrum of d_t u - mu*lap(u): the part of
    the momentum equation the integrating factor leaves to the explicit
    stage. The symmetric stress r*(2 mu Du + kappa hess ln r) - P*I is
    summed on the grid before its transforms, and advection and force are
    truncated together by one mask. Five transform stages: the mass flux and
    ln r; d_t rho, Du and the Hessian; the stress; the force; the momentum.
    """
    mask = g.half_mask
    ik = g.half_ik
    dim = g.dim
    # arrays no later stage reads are dropped as soon as they are used up,
    # which keeps the peak memory of a 2-D step where it was
    *flux, lhat = fft_stage(g, [*(r * c for c in u), np.log(r)])
    drho_hat = sum(ik[i] * mask * flux[i] for i in range(dim))
    del flux
    drho, *grads = ifft_stage(g, itertools.chain(
        [drho_hat], (k * w for w in uhats for k in ik), _hessian_hats(g, lhat)))
    del drho_hat, lhat
    drho = -drho
    du = [grads[i * dim:(i + 1) * dim] for i in range(dim)]  # du[i][j] = d_j u_i
    press = p.a * r ** p.gamma

    def stress():
        for (i, j), h in zip(_pairs(dim), grads[dim * dim:]):
            s = r * (p.mu * (du[i][j] + du[j][i]) + p.kappa * h)
            if i == j:
                s -= press
            yield s

    forces = ifft_stage(g, _div_sym_hat(g, fft_stage(g, stress())))
    momentum = fft_stage(g, (f / r - sum(u[j] * du[i][j] for j in range(dim))
                             for i, f in enumerate(forces)))
    return drho, [mask * h + p.mu * g.half_k2 * uhats[i] for i, h in enumerate(momentum)]


def effective_tendencies(g: Grid, p: PhysParams, q, qhat, v, vhats):
    """Tendencies of (q, v) from samples q, v and their half spectra.

    Returns, for q and per component of v, the half spectrum of
    d_t w - mu*lap(w): the mu*Laplacian belongs to the integrating factor
    and is left out. Transport -(u.grad)v + mu*(grad q . grad)v is one
    product (mu grad q - u).grad v, truncated together with the pressure
    and capillary terms by one mask. Two transform stages at kappa = mu^2
    (the gradients, then the products); away from it the Hessian of q joins
    the first, and the capillary correction adds an inverse and a forward
    stage.
    """
    excess = p.kappa - p.mu ** 2
    if excess < -QUANTUM_TOL:
        raise ConfigurationError(
            f"effective formulation requires kappa >= mu^2, got kappa = {p.kappa}, mu^2 = {p.mu**2}"
        )
    mask = g.half_mask
    ik = g.half_ik
    dim = g.dim
    quantum = p.is_quantum()
    grads = list(ifft_stage(g, itertools.chain(
        (k * qhat for k in ik), (k * w for w in vhats for k in ik),
        () if quantum else _hessian_hats(g, qhat))))
    gq = grads[:dim]
    dv = [grads[(i + 1) * dim:(i + 2) * dim] for i in range(dim)]  # dv[i][j] = d_j v_i

    u = [v[j] - p.mu * gq[j] for j in range(dim)]
    transport = sum(u[j] * gq[j] for j in range(dim))
    drift = [p.mu * gq[j] - u[j] for j in range(dim)]

    terms = [sum(drift[j] * dv[i][j] for j in range(dim)) for i in range(dim)]
    del u, drift  # as in primitive_tendencies, for the peak memory of a 2-D step
    if p.gamma != 1.0 or not quantum:
        rho = p.rho_bar * np.exp(q)
    if p.gamma != 1.0:
        w = p.a * p.gamma * rho ** (p.gamma - 1.0)
        terms = [terms[i] - w * gq[i] for i in range(dim)]
    if quantum:
        stage = fft_stage(g, [transport, *terms])
    else:
        transport_hat, *entries = fft_stage(
            g, [transport, *(rho * h for h in grads[dim * (dim + 1):])])
        corr = ifft_stage(g, _div_sym_hat(g, entries))
        stage = itertools.chain([transport_hat], fft_stage(
            g, [terms[i] + excess * c / rho for i, c in enumerate(corr)]))
    stage = iter(stage)
    nq = -sum(ik[i] * vhats[i] for i in range(dim)) - mask * next(stage)
    out = [mask * h for h in stage]
    if p.gamma == 1.0:
        out = [out[i] - p.a * ik[i] * qhat for i in range(dim)]
    return nq, out


def _grid_tendencies(g, p, nhats, hats):
    """Grid samples of d_t w = -mu*k^2*w + n from the half spectra n and w."""
    return [ifft_array(g, n - p.mu * g.half_k2 * w) for n, w in zip(nhats, hats)]


def rhs_primitive(s: PrimitiveState, p: PhysParams):
    """Time derivative of (rho, u).

    Mass: d_t rho = -div(rho u). Momentum is returned in velocity form,
    d_t u = -(u . grad)u + (div(2 mu rho Du) - grad P + div K)/rho, with
    Du the symmetric velocity gradient and div K from form B.
    """
    g = s.grid
    r = _check_density(s.rho)
    u = [c.values for c in s.u]
    uhats = [fft_array(g, c) for c in u]
    drho, nhats = primitive_tendencies(g, p, r, u, uhats)
    _finite_or_blowup([drho] + nhats, "rhs of the density-velocity form")
    return RealField(g, drho), tuple(RealField(g, c)
                                     for c in _grid_tendencies(g, p, nhats, uhats))


def rhs_effective(e: EffectiveState, p: PhysParams):
    """Time derivative of (q, v).

    d_t q = mu*lap(q) - u.grad(q) - div(v)
    d_t v = mu*lap(v) - (u.grad)v + mu*(grad q . grad)v
            - a*gamma*rho^(gamma-1)*grad(q) + capillary correction

    with u = v - mu*grad(q). The correction (kappa - mu^2)*div(rho*hess q)/rho
    vanishes identically at kappa = mu^2 and is skipped there; kappa < mu^2
    is rejected.
    """
    g = e.grid
    q = e.q.values
    v = [c.values for c in e.v]
    hats = [fft_array(g, q)] + [fft_array(g, c) for c in v]
    nq, nv = effective_tendencies(g, p, q, hats[0], v, hats[1:])
    _finite_or_blowup([nq] + nv, "rhs of the log-density form")
    dq, *dv = _grid_tendencies(g, p, [nq] + nv, hats)
    return RealField(g, dq), tuple(RealField(g, c) for c in dv)
