"""Deterministic property suites behind the command-line `verify` command.

Each suite runs a fixed, seeded battery of the package's mathematical
identities and returns per-case pass/fail with the measured quantity, so a
failure names the exact case and margin rather than a bare boolean. The
module also holds the oracles its suites compare against, which no other
module runs: three groupings of the capillary divergence, the compact one
as the reference and the tensor and gradient ones it checks (the step's
primitive tendency takes its own gradient grouping, which the tests check
against the compact one), and the exact heat-semigroup decay of dyadic
blocks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .fields import (Grid, RealField, dealias_values, fft_array, grad_arrays, hermitian_half,
                     ifft_array, lp_norms)
from .lp_besov import (
    ANNULUS_OUTER,
    PLATEAU,
    block_norm_table,
    block_range,
    bony_decompose,
    build_bumps,
    decompose,
)
from .model import PhysParams, _check_density, to_effective
from .presets import Preset, _bandlimited_noise, build
from .solver import SolverConfig, run
from .diagnostics import degiorgi_recursion


@dataclass
class CaseResult:
    name: str
    passed: bool
    measured: float = None
    threshold: float = None
    detail: str = ""


@dataclass
class SuiteReport:
    suite: str
    cases: list

    @property
    def ok(self) -> bool:
        return all(c.passed for c in self.cases)

    def to_dict(self) -> dict:
        return {
            "suite": self.suite,
            "ok": self.ok,
            "cases": [{
                "name": c.name, "passed": c.passed, "measured": c.measured,
                "threshold": c.threshold, "detail": c.detail,
            } for c in self.cases],
        }


def _rel_l2(diff_fields, ref_fields) -> float:
    num = math.sqrt(sum(lp_norms(f.grid, f.values, 2) ** 2 for f in diff_fields))
    den = math.sqrt(sum(lp_norms(f.grid, f.values, 2) ** 2 for f in ref_fields))
    return num / den if den > 0 else num


def div_k_compact(rho: RealField, kappa1: float) -> tuple:
    """The compact grouping kappa1*div(rho*hess ln rho), the reference of
    the ``divk`` suite: each entry rho*d_i d_j ln rho is a product on the
    grid, truncated on its spectrum, and its divergence is taken there."""
    g = rho.grid
    r = _check_density(rho)
    ln_hat = fft_array(g, np.log(r))
    ik = g.half_ik
    out = []
    for i in range(g.dim):
        div = sum(ik[j] * g.half_mask * fft_array(g, r * ifft_array(g, ik[i] * ik[j] * ln_hat))
                  for j in range(g.dim))
        out.append(RealField(g, kappa1 * ifft_array(g, div)))
    return tuple(out)


def div_k_form_a(rho: RealField, kappa1: float) -> tuple:
    """Capillarity divergence from the general gradient/tensor form.

    grad(rho*kap(rho)*lap(rho) + 0.5*(kap(rho) + rho*kap'(rho))*|grad rho|^2)
        - div(kap(rho) * grad(rho) (x) grad(rho))

    with kap(rho) = kappa1/rho. All three pieces are evaluated literally so
    this route stays independent of the step's compact form.
    """
    g = rho.grid
    r = _check_density(rho)
    rhat = fft_array(g, r)
    gr = grad_arrays(g, rhat)
    lap_r = ifft_array(g, -g.half_k2 * rhat)
    kap = kappa1 / r
    dkap = -kappa1 / r ** 2
    grad_sq = sum(c ** 2 for c in gr)
    scalar = r * kap * lap_r + 0.5 * (kap + r * dkap) * grad_sq
    scalar_hat = fft_array(g, dealias_values(g, scalar))
    out = []
    for i, ik in enumerate(g.half_ik):
        term1 = ifft_array(g, ik * scalar_hat)
        term2 = ifft_array(g, sum(ik_j * fft_array(g, dealias_values(g, kap * gr[i] * gr[j]))
                                  for j, ik_j in enumerate(g.half_ik)))
        out.append(RealField(g, term1 - term2))
    return tuple(out)


def div_k_gradient_form(rho: RealField, kappa1: float) -> tuple:
    """Equivalent gradient expression kappa1*(rho*grad(lap ln rho)
    + (rho/2)*grad(|grad ln rho|^2))."""
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


def suite_divk() -> SuiteReport:
    """The tensor and gradient groupings of the capillary stress divergence
    agree with the compact one on random smooth positive densities."""
    rng = np.random.default_rng(101)
    cases = []
    specs = [("1d", Grid(dim=1, n=256)) for _ in range(10)] \
        + [("2d", Grid(dim=2, n=128)) for _ in range(10)]
    for idx, (tag, g) in enumerate(specs):
        rho = RealField(g, 1.0 + 0.12 * _bandlimited_noise(g, rng, 4))
        ref = div_k_compact(rho, 0.125)
        for name, form in (("tensor", div_k_form_a), ("gradient", div_k_gradient_form)):
            got = form(rho, 0.125)
            err = _rel_l2([RealField(g, got[i].values - ref[i].values) for i in range(g.dim)],
                          ref)
            cases.append(CaseResult(f"{tag}_case{idx}_{name}_vs_compact", err < 1e-8, err, 1e-8))
    return SuiteReport("divk", cases)


def _broadband(grid: Grid, rng) -> RealField:
    # energy in every resolved block: flat random phases, mild k^-1 rolloff
    spectrum = hermitian_half(grid, rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape))
    spectrum /= 1.0 + grid.half_kmag
    spectrum.flat[0] = 0.0
    return RealField(grid, ifft_array(grid, spectrum))


def heat_block_decay_check(u0: RealField, mu: float, times) -> dict:
    """Evolve u0 by the exact diffusion semigroup and compare the decay of
    each block's L^2 norm against the annulus bounds
    exp(-mu*(8/3)^2*4^l*t) <= ratio <= exp(-mu*(3/4)^2*4^l*t). Also fits the
    effective rate c in ratio ~ exp(-c*mu*4^l*t) for each block.

    The norms are taken on the decayed spectra, so the per-mode decay is
    exact and the bounds hold even for blocks of roundoff content."""
    times = np.asarray(times, dtype=float)
    if times.size == 0 or times[0] != 0 or np.any(np.diff(times) <= 0):
        raise DomainError("need increasing sample times starting at 0")
    if mu <= 0:
        raise ConfigurationError(f"diffusion coefficient must be positive, got {mu}")
    g = u0.grid
    uhat0 = fft_array(g, u0.values)
    decay = np.exp(-mu * g.half_k2 * times.reshape((-1,) + (1,) * g.dim))
    ls, table = block_norm_table(g, decay * uhat0, 2)  # [time, block]

    blocks = []
    for j, l in enumerate(ls):
        n0 = table[0, j]
        if n0 == 0:
            blocks.append({"l": l, "initial_norm": float(n0), "ratios": [],
                           "lower_ok": True, "upper_ok": True, "c_fit": None,
                           "negligible": True})
            continue
        ratios = table[1:, j] / n0
        rate = 4.0 ** l
        lower = np.exp(-mu * ANNULUS_OUTER ** 2 * rate * times[1:])
        upper = np.exp(-mu * PLATEAU ** 2 * rate * times[1:])
        tol = 1.0 + 1e-12
        positive = ratios > 0
        cs = -np.log(ratios[positive]) / (mu * rate * times[1:][positive])
        blocks.append({
            "l": l,
            "initial_norm": float(n0),
            "ratios": [float(x) for x in ratios],
            "lower_ok": bool(np.all(ratios * tol >= lower)),
            "upper_ok": bool(np.all(ratios <= upper * tol)),
            "c_fit": float(np.mean(cs)) if cs.size else None,
            "negligible": False,
        })
    return {"mu": mu, "p": 2, "times": [float(t) for t in times], "blocks": blocks,
            "all_within": all(b["lower_ok"] and b["upper_ok"] for b in blocks)}


def suite_heat() -> SuiteReport:
    """Dyadic blocks of the diffusion semigroup decay inside the annulus
    envelope, and infinitesimal horizons leave every block unchanged."""
    rng = np.random.default_rng(202)
    g = Grid(dim=1, n=256)
    u0 = _broadband(g, rng)
    mu = 0.15
    rep = heat_block_decay_check(u0, mu, (0.0, 0.01, 0.1, 1.0))
    cases = []
    for blk in rep["blocks"]:
        if blk["negligible"]:
            continue
        cases.append(CaseResult(
            f"block_{blk['l']}_envelope", blk["lower_ok"] and blk["upper_ok"],
            detail=f"c_fit={blk['c_fit']:.4f}" if blk["c_fit"] else ""))
    tiny = heat_block_decay_check(u0, mu, (0.0, 1e-30))
    worst = max(abs(r - 1.0) for blk in tiny["blocks"] if not blk["negligible"]
                for r in blk["ratios"])
    cases.append(CaseResult("zero_horizon_ratios_one", worst < 1e-10, worst, 1e-10))
    return SuiteReport("heat", cases)


def suite_bony() -> SuiteReport:
    """Paraproduct + remainder reconstruct the pointwise product."""
    rng = np.random.default_rng(303)
    cases = []
    for dim, n in ((1, 256), (2, 64)):
        g = Grid(dim=dim, n=n)
        u = RealField(g, _bandlimited_noise(g, rng, n // 4) + 0.3)
        v = RealField(g, _bandlimited_noise(g, rng, n // 4) - 0.2)
        t_uv, t_vu, rem = bony_decompose(u, v)
        mean_u = float(np.mean(u.values))
        mean_v = float(np.mean(v.values))
        recon = t_uv.values + t_vu.values + rem.values + mean_u * mean_v
        err = _rel_l2([RealField(g, u.values * v.values - recon)],
                      [RealField(g, u.values * v.values)])
        cases.append(CaseResult(f"{dim}d_reconstruction", err < 1e-8, err, 1e-8))
    return SuiteReport("bony", cases)


def suite_besov() -> SuiteReport:
    """Partition of unity, block reconstruction, and the derivative-growth
    cap on each block."""
    rng = np.random.default_rng(404)
    bumps = build_bumps()
    g = Grid(dim=1, n=256)
    cases = []

    l_min, l_max = block_range(g)
    kmag = g.half_kmag.ravel()
    resolved = kmag[kmag > 0]
    total = bumps.chi(resolved / 2.0 ** l_min)
    for l in range(l_min, l_max + 1):
        total = total + bumps.phi(resolved / 2.0 ** l)
    err = float(np.max(np.abs(total - 1.0)))
    cases.append(CaseResult("partition_of_unity", err < 1e-12, err, 1e-12))

    f = _broadband(g, rng)
    dec = decompose(f)
    err = _rel_l2([RealField(g, dec.reconstruct().values - f.values)], [f])
    cases.append(CaseResult("reconstruction", err < 1e-10, err, 1e-10))

    worst = 0.0
    for l in dec.ls:
        blk = dec.blocks[l]
        nb = lp_norms(g, blk.values, 2)
        if nb < 1e-13:
            continue
        ng = lp_norms(g, grad_arrays(g, fft_array(g, blk.values))[0], 2)
        worst = max(worst, float(ng / (nb * ANNULUS_OUTER * 2.0 ** l)))
    cases.append(CaseResult("bernstein_ratio", worst <= 1.0 + 1e-12, worst,
                            1.0, detail="ratio of ||grad block|| to cap"))
    return SuiteReport("besov", cases)


def suite_degiorgi() -> SuiteReport:
    """Closed-form recursion bound: equality on saturating sequences and the
    vanishing verdict on a randomized parameter grid."""
    cases = []
    for c, b, eps, y0 in ((0.7, 2.0, 0.5, 0.3), (1.3, 3.0, 1.0, 0.05),
                          (0.9, 1.5, 2.0, 0.2)):
        rep = degiorgi_recursion(c, b, eps, y0, n_max=10)
        log_y = math.log(y0)
        worst = 0.0
        for n in range(11):
            dev = abs(rep.log_bounds[n] - log_y) / max(1.0, abs(log_y))
            worst = max(worst, dev)
            log_y = math.log(c) + n * math.log(b) + (1.0 + eps) * log_y
        cases.append(CaseResult(f"saturation_c{c}_b{b}_eps{eps}", worst < 1e-12,
                                worst, 1e-12, detail="relative log-space deviation"))

    rng = np.random.default_rng(505)
    bad = 0
    for i in range(100):
        c = rng.uniform(0.25, 4.0)
        b = rng.uniform(1.05, 8.0)
        eps = rng.uniform(0.25, 3.0)
        theta = c ** (-1.0 / eps) * b ** (-1.0 / eps ** 2)
        y0 = theta * 10.0 ** rng.uniform(-3.0, 1.0)
        rep = degiorgi_recursion(c, b, eps, y0, n_max=4)
        if rep.vanishes != (y0 <= theta):
            bad += 1
    cases.append(CaseResult("randomized_verdicts", bad == 0, float(bad), 0.0,
                            detail="verdict mismatches out of 100"))
    rep = degiorgi_recursion(1.0, 1.0, 1.0, 1e-9, n_max=4)
    cases.append(CaseResult("no_gain_withheld", not rep.vanishes))
    return SuiteReport("degiorgi", cases)


def suite_equivalence() -> SuiteReport:
    """Primitive and effective formulations agree at quantum coupling."""
    g = Grid(dim=1, n=256)
    params = PhysParams(mu=0.15, kappa=0.0225, a=1.0, gamma=1.0)
    s0 = build(Preset("smooth_bump", amplitude=0.1), g, params)
    cfg_p = SolverConfig(dt=1e-4, t_end=0.1, formulation="primitive")
    cfg_e = SolverConfig(dt=1e-4, t_end=0.1, formulation="effective")
    res_p = run(s0, params, cfg_p)
    res_e = run(to_effective(s0, params), params, cfg_e)
    rho_p = res_p.final_state.rho.values
    rho_e = params.rho_bar * np.exp(res_e.final_state.q.values)
    sup = float(np.max(np.abs(rho_p - rho_e)))
    case = CaseResult("density_sup_difference", sup < 1e-5, sup, 1e-5)
    return SuiteReport("equivalence", [case])


SUITES = {
    "divk": suite_divk,
    "heat": suite_heat,
    "bony": suite_bony,
    "besov": suite_besov,
    "degiorgi": suite_degiorgi,
    "equivalence": suite_equivalence,
}
SUITE_NAMES = tuple(SUITES)


def run_suite(name: str) -> SuiteReport:
    if name not in SUITES:
        raise ConfigurationError(
            f"unknown suite {name!r}; choose from {SUITE_NAMES}")
    return SUITES[name]()
