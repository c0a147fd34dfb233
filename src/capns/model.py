"""Model terms for viscous capillary compressible flow on the torus.

The system evolves density rho and velocity u with density-weighted shear
viscosity 2*mu*rho, zero bulk viscosity, capillarity coefficient kappa/rho
and pressure a*rho^gamma. The capillarity divergence is implemented in two
algebraically equal forms so each can cross-check the other. The effective
formulation evolves q = ln(rho/rho_bar) and v = u + mu*grad(ln rho); it
requires kappa >= mu^2, and the capillary correction drops out exactly at
kappa = mu^2.

All right-hand sides are evaluated pseudo-spectrally: derivatives in
Fourier space, products on the grid, products truncated by the 2/3 rule
when ``dealias`` is set. ln(rho) is taken pointwise and is only defined
above the vacuum floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError, NumericBlowup
from .fields import (Grid, RealField, dealias_values, div_array, fft_array, grad_arrays,
                     ifft_array, lap_array)

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

    def gamma_in_analysis_range(self, dim: int) -> bool:
        """Adiabatic exponents for which the global-regularity theory is
        recorded, by space dimension. Informational, never enforced."""
        if dim == 2:
            return self.gamma >= 1.0
        if dim == 3:
            return 1.0 <= self.gamma < 7.0 / 3.0
        if dim >= 4:
            return self.gamma == 1.0
        # one-dimensional runs sit outside the recorded ranges
        return True


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


def _maybe_dealias(grid, vals, flag):
    return dealias_values(grid, vals) if flag else vals


def _check_density(rho, vacuum_floor=0.0):
    rmin = float(np.min(rho.values))
    if rmin <= max(vacuum_floor, 0.0):
        raise DomainError(
            f"density reached the vacuum floor: min rho = {rmin:.6g}, floor = {vacuum_floor:.6g}"
        )
    return rho.values


def _finite_or_blowup(arrays, where):
    for arr in arrays:
        if not np.all(np.isfinite(arr)):
            raise NumericBlowup(float("nan"), where)


# -- capillarity divergence -------------------------------------------------

def _div_rho_hess(g, r, lhat, dealias):
    """Components of div(r * hess(l)) from the coefficients of l."""
    return [div_array(g, [_maybe_dealias(g, r * ifft_array(-(ki * kj) * lhat), dealias)
                          for kj in g.k_deriv])
            for ki in g.k_deriv]


def div_k_form_a(rho: RealField, kappa1: float, dealias: bool = True,
                 vacuum_floor: float = 0.0) -> tuple:
    """Capillarity divergence from the general gradient/tensor form.

    grad(rho*kap(rho)*lap(rho) + 0.5*(kap(rho) + rho*kap'(rho))*|grad rho|^2)
        - div(kap(rho) * grad(rho) (x) grad(rho))

    with kap(rho) = kappa1/rho. All three pieces are evaluated literally so
    this route stays independent of :func:`div_k_form_b`.
    """
    g = rho.grid
    r = _check_density(rho, vacuum_floor)
    rhat = fft_array(r)
    gr = grad_arrays(g, rhat)
    lap_r = lap_array(g, rhat)
    kap = kappa1 / r
    dkap = -kappa1 / r ** 2
    grad_sq = sum(c ** 2 for c in gr)
    scalar = r * kap * lap_r + 0.5 * (kap + r * dkap) * grad_sq
    scalar_hat = fft_array(_maybe_dealias(g, scalar, dealias))
    out = []
    for i, ki in enumerate(g.k_deriv):
        term1 = ifft_array(1j * ki * scalar_hat)
        term2 = div_array(g, [_maybe_dealias(g, kap * gr[i] * gr[j], dealias)
                              for j in range(g.dim)])
        out.append(RealField(g, term1 - term2))
    return tuple(out)


def div_k_form_b(rho: RealField, kappa1: float, dealias: bool = True,
                 vacuum_floor: float = 0.0) -> tuple:
    """Capillarity divergence as kappa1 * div(rho * hess(ln rho))."""
    g = rho.grid
    r = _check_density(rho, vacuum_floor)
    comps = _div_rho_hess(g, r, fft_array(np.log(r)), dealias)
    return tuple(RealField(g, kappa1 * comp) for comp in comps)


def div_k_gradient_form(rho: RealField, kappa1: float, dealias: bool = True,
                        vacuum_floor: float = 0.0) -> tuple:
    """Equivalent gradient expression kappa1*(rho*grad(lap ln rho)
    + (rho/2)*grad(|grad ln rho|^2)), kept for cross-checks."""
    g = rho.grid
    r = _check_density(rho, vacuum_floor)
    ln_hat = fft_array(np.log(r))
    lap_ln_hat = -g.k2 * ln_hat
    grad_ln = grad_arrays(g, ln_hat)
    sq_hat = fft_array(_maybe_dealias(g, sum(c ** 2 for c in grad_ln), dealias))
    out = []
    for ki in g.k_deriv:
        comp = r * ifft_array(1j * ki * lap_ln_hat) + 0.5 * r * ifft_array(1j * ki * sq_hat)
        out.append(RealField(g, kappa1 * _maybe_dealias(g, comp, dealias)))
    return tuple(out)


def pressure(rho: RealField, p: PhysParams) -> RealField:
    """Barotropic pressure a * rho^gamma."""
    return RealField(rho.grid, p.a * rho.values ** p.gamma)


# -- change of variables ----------------------------------------------------

def to_effective(s: PrimitiveState, p: PhysParams) -> EffectiveState:
    """(rho, u) -> (q, v) with q = ln(rho/rho_bar), v = u + mu*grad(q)."""
    g = s.grid
    q_vals = np.log(_check_density(s.rho) / p.rho_bar)
    gq = grad_arrays(g, fft_array(q_vals))
    v = tuple(RealField(g, s.u[i].values + p.mu * gq[i]) for i in range(g.dim))
    return EffectiveState(RealField(g, q_vals), v)


def from_effective(e: EffectiveState, p: PhysParams) -> PrimitiveState:
    """(q, v) -> (rho, u); exact inverse of :func:`to_effective`."""
    g = e.grid
    rho_vals = p.rho_bar * np.exp(e.q.values)
    gq = grad_arrays(g, fft_array(e.q.values))
    u = tuple(RealField(g, e.v[i].values - p.mu * gq[i]) for i in range(g.dim))
    return PrimitiveState(RealField(g, rho_vals), u)


# -- right-hand sides --------------------------------------------------------

def rhs_primitive(s: PrimitiveState, p: PhysParams, dealias: bool = True,
                  vacuum_floor: float = 0.0):
    """Time derivative of (rho, u).

    Mass: d_t rho = -div(rho u). Momentum is returned in velocity form,
    d_t u = -(u . grad)u + (div(2 mu rho Du) - grad P + div K)/rho, with
    Du the symmetric velocity gradient and div K from form B.
    """
    g = s.grid
    r = _check_density(s.rho, vacuum_floor)
    u = [c.values for c in s.u]
    uhats = [fft_array(c) for c in u]

    flux = [_maybe_dealias(g, r * u[i], dealias) for i in range(g.dim)]
    drho = RealField(g, -div_array(g, flux))

    # symmetric gradient Du_ij = (d_j u_i + d_i u_j)/2
    du = [grad_arrays(g, uhats[i]) for i in range(g.dim)]
    divk = div_k_form_b(s.rho, p.kappa, dealias, vacuum_floor)
    p_hat = fft_array(_maybe_dealias(g, p.a * r ** p.gamma, dealias))

    out = []
    for i, ki in enumerate(g.k_deriv):
        d_sym = [0.5 * (du[i][j] + du[j][i]) for j in range(g.dim)]
        visc = div_array(g, [_maybe_dealias(g, 2.0 * p.mu * r * d_sym[j], dealias)
                             for j in range(g.dim)])
        grad_p = ifft_array(1j * ki * p_hat)
        adv = _maybe_dealias(g, sum(u[j] * du[i][j] for j in range(g.dim)), dealias)
        force = _maybe_dealias(g, (visc - grad_p + divk[i].values) / r, dealias)
        out.append(-adv + force)
    _finite_or_blowup([drho.values] + out, "rhs of the density-velocity form")
    return drho, tuple(RealField(g, c) for c in out)


def rhs_effective(e: EffectiveState, p: PhysParams, dealias: bool = True,
                  freeze_advection: bool = False):
    """Time derivative of (q, v).

    d_t q = mu*lap(q) - u.grad(q) - div(v)
    d_t v = mu*lap(v) - (u.grad)v + mu*(grad q . grad)v
            - a*gamma*rho^(gamma-1)*grad(q) + capillary correction

    with u = v - mu*grad(q). The correction (kappa - mu^2)*div(rho*hess q)/rho
    vanishes identically at kappa = mu^2 and is skipped there; kappa < mu^2
    is rejected. ``freeze_advection`` pins the transport velocity u to zero
    (testing hook for the pure-diffusion limit).
    """
    g = e.grid
    excess = p.kappa - p.mu ** 2
    if excess < -QUANTUM_TOL:
        raise ConfigurationError(
            f"effective formulation requires kappa >= mu^2, got kappa = {p.kappa}, mu^2 = {p.mu**2}"
        )
    qv = e.q.values
    qhat = fft_array(qv)
    gq = grad_arrays(g, qhat)
    lap_q = lap_array(g, qhat)
    vhats = [fft_array(c.values) for c in e.v]
    v = [c.values for c in e.v]
    dv_mat = [grad_arrays(g, vhats[i]) for i in range(g.dim)]
    div_v = sum(dv_mat[i][i] for i in range(g.dim))
    lap_v = [lap_array(g, vhats[i]) for i in range(g.dim)]

    if freeze_advection:
        u = [np.zeros(g.shape) for _ in range(g.dim)]
    else:
        u = [v[i] - p.mu * gq[i] for i in range(g.dim)]

    dq = p.mu * lap_q - _maybe_dealias(g, sum(u[j] * gq[j] for j in range(g.dim)), dealias) - div_v

    if p.gamma == 1.0:
        press = [p.a * gq[i] for i in range(g.dim)]
    else:
        rho = p.rho_bar * np.exp(qv)
        w = p.a * p.gamma * rho ** (p.gamma - 1.0)
        press = [_maybe_dealias(g, w * gq[i], dealias) for i in range(g.dim)]

    extra = None
    if not p.is_quantum():
        rho = p.rho_bar * np.exp(qv)
        extra = [excess * _maybe_dealias(g, comp / rho, dealias)
                 for comp in _div_rho_hess(g, rho, qhat, dealias)]

    out = []
    for i in range(g.dim):
        adv = _maybe_dealias(g, sum(u[j] * dv_mat[i][j] for j in range(g.dim)), dealias)
        gqdv = _maybe_dealias(g, sum(gq[j] * dv_mat[i][j] for j in range(g.dim)), dealias)
        comp = p.mu * lap_v[i] - adv + p.mu * gqdv - press[i]
        if extra is not None:
            comp = comp + extra[i]
        out.append(comp)
    _finite_or_blowup([dq] + out, "rhs of the log-density form")
    return RealField(g, dq), tuple(RealField(g, c) for c in out)
