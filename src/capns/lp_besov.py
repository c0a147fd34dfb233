"""Dyadic frequency decomposition and Besov-type norms on the torus.

Frequencies are split by annular multipliers phi(|k| / 2^l) built from a
smooth cutoff chi (plateau up to 3/4, support up to 4/3, exponential-glue
transition), with phi(x) = chi(x/2) - chi(x) supported in [3/4, 8/3].
Because adjacent multipliers telescope, the partition of unity and the
reconstruction identity hold to machine precision even though chi is
evaluated from samples.

The torus has no frequencies below 2*pi/length except the mean, so the
block index runs over a finite window [l_min, l_max] chosen to cover every
resolved nonzero wavenumber; the mean is carried separately. Blocks whose
annulus pokes past the resolved band in either direction are flagged as
boundary blocks. Wavenumbers are physical (2*pi/length units), which makes
the critical-index norms invariant under the "same samples, halved box"
dilation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .fields import Grid, RealField, fft_array, ifft_array, lp_norm

PLATEAU = 0.75       # chi = 1 on [0, 3/4]
SUPPORT = 4.0 / 3.0  # chi = 0 beyond 4/3
ANNULUS_OUTER = 8.0 / 3.0


def _smooth_step(y):
    """1 at y >= 1, 0 at y <= 0, C^inf in between (exp(-1/y) glue)."""
    y = np.clip(y, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(y > 0, np.exp(-1.0 / np.maximum(y, 1e-300)), 0.0)
        b = np.where(y < 1, np.exp(-1.0 / np.maximum(1.0 - y, 1e-300)), 0.0)
    return a / (a + b)


@dataclass(frozen=True)
class BumpPair:
    """Sampled radial cutoff chi and annulus bump phi(x) = chi(x/2) - chi(x).

    Both are stored on the same uniform radial step so that piecewise-linear
    evaluation keeps the telescoping identities exact.
    """

    resolution: int
    r_chi: np.ndarray
    chi_samples: np.ndarray
    r_phi: np.ndarray
    phi_samples: np.ndarray

    def chi(self, r):
        return np.interp(r, self.r_chi, self.chi_samples)

    def phi(self, r):
        return np.interp(r, self.r_phi, self.phi_samples)


def build_bumps(resolution: int = 256) -> BumpPair:
    """Sample the cutoff pair at ``resolution`` points per unit radius."""
    if resolution < 64:
        raise ConfigurationError(f"bump resolution must be >= 64, got {resolution}")
    h = 1.0 / resolution
    n_chi = int(math.ceil(SUPPORT / h)) + 1
    r_chi = np.arange(n_chi + 1) * h
    chi = _smooth_step((SUPPORT - r_chi) / (SUPPORT - PLATEAU))
    chi[r_chi <= PLATEAU] = 1.0
    chi[r_chi >= SUPPORT] = 0.0
    # phi sampled on the same step: breakpoints of chi(r/2) fall on even
    # multiples of h, so linear interpolation reproduces chi(r/2) - chi(r)
    # exactly and the dyadic partition telescopes to machine precision
    n_phi = int(math.ceil(2.0 * SUPPORT / h)) + 1
    r_phi = np.arange(n_phi + 1) * h
    chi_half = np.interp(r_phi / 2.0, r_chi, chi)
    chi_full = np.interp(r_phi, r_chi, chi)
    phi = chi_half - chi_full
    return BumpPair(resolution, r_chi, chi, r_phi, phi)


def block_range(grid: Grid) -> tuple:
    """Smallest and largest block index needed to cover the resolved band."""
    kmin = 2.0 * math.pi / grid.length
    kmax = float(np.max(grid.kmag))
    l_min = int(math.floor(math.log2(PLATEAU * kmin)))
    l_max = int(math.ceil(math.log2(kmax / (2.0 * PLATEAU))))
    return l_min, l_max


def is_boundary_block(grid: Grid, l: int) -> bool:
    """True when the annulus of block l extends past the resolved band."""
    kmin = 2.0 * math.pi / grid.length
    kmax = float(np.max(grid.kmag))
    return PLATEAU * 2.0 ** l < kmin or ANNULUS_OUTER * 2.0 ** l > kmax


class DyadicDecomposition:
    """Blocks of one field, the mean mode, and boundary bookkeeping."""

    def __init__(self, grid, bumps, l_min, l_max, blocks, mean):
        self.grid = grid
        self.bumps = bumps
        self.l_min = l_min
        self.l_max = l_max
        self.blocks = blocks
        self.mean = mean

    @property
    def ls(self):
        return list(range(self.l_min, self.l_max + 1))

    def is_boundary(self, l: int) -> bool:
        """See :func:`is_boundary_block`."""
        return is_boundary_block(self.grid, l)

    def reconstruct(self) -> RealField:
        total = np.full(self.grid.shape, self.mean)
        for b in self.blocks.values():
            total = total + b.values
        return RealField(self.grid, total)


def _block_multiplier(grid, bumps, l):
    return bumps.phi(grid.kmag / 2.0 ** l)


def _parseval_block_norms(grid, bumps, ls, fhat):
    """Block L^2 norms from the coefficients, without inverse transforms."""
    scale = math.sqrt(grid.cell_volume / grid.n ** grid.dim)
    return [scale * float(np.linalg.norm(_block_multiplier(grid, bumps, l) * fhat))
            for l in ls]


def decompose(f: RealField, bumps: BumpPair) -> DyadicDecomposition:
    g = f.grid
    l_min, l_max = block_range(g)
    fhat = fft_array(f.values)
    mean = float(fhat.flat[0].real) / g.n ** g.dim
    blocks = {}
    for l in range(l_min, l_max + 1):
        mult = _block_multiplier(g, bumps, l)
        blocks[l] = RealField(g, ifft_array(mult * fhat))
    return DyadicDecomposition(g, bumps, l_min, l_max, blocks, mean)


@dataclass(frozen=True)
class BesovSpec:
    """Regularity index s, spatial exponent p, summation exponent r."""

    s: float
    p: float
    r: float = 1.0

    def __post_init__(self):
        if not (self.p >= 1 and self.r >= 1):
            raise ConfigurationError(f"exponents must satisfy p, r >= 1, got p={self.p}, r={self.r}")
        if not math.isfinite(self.s):
            raise ConfigurationError(f"regularity index must be finite, got {self.s}")


def block_norms(f: RealField, bumps: BumpPair, p: float):
    """Per-block L^p norms (and the mean mode), one FFT total.

    p = 2 goes through Parseval without inverse transforms.
    """
    g = f.grid
    l_min, l_max = block_range(g)
    fhat = fft_array(f.values)
    mean = float(fhat.flat[0].real) / g.n ** g.dim
    ls = list(range(l_min, l_max + 1))
    if p == 2:
        norms = _parseval_block_norms(g, bumps, ls, fhat)
    else:
        norms = []
        for l in ls:
            mult = _block_multiplier(g, bumps, l)
            norms.append(lp_norm(RealField(g, ifft_array(mult * fhat)), p))
    return ls, np.array(norms), mean


def _weighted_lr(ls, norms, s, r):
    weighted = np.array([2.0 ** (l * s) * v for l, v in zip(ls, norms)])
    if math.isinf(r):
        return float(np.max(weighted)) if weighted.size else 0.0
    return float(np.sum(weighted ** r) ** (1.0 / r))


def besov_norm(f: RealField, spec: BesovSpec, bumps: BumpPair) -> float:
    """l^r over blocks of 2^{ls} ||block||_{L^p}; the mean mode is excluded
    (constants have zero norm) and is available via decompose/block_norms."""
    ls, norms, _ = block_norms(f, bumps, spec.p)
    return _weighted_lr(ls, norms, spec.s, spec.r)


def tilde_norm(series, times, sigma: float, spec: BesovSpec, bumps: BumpPair) -> float:
    """Time-then-block norm: per block, L^sigma of t -> ||block(t)||_{L^p}
    over the time grid (trapezoid; sigma = inf takes the sup), then the
    weighted l^r across blocks. Time aggregation happens strictly before
    the block sum, which is what distinguishes this from L^sigma of the
    instantaneous norm."""
    series = list(series)
    times = np.asarray(times, dtype=float)
    if len(series) == 0:
        raise DomainError("empty time series")
    if len(series) != times.size:
        raise DomainError(f"{len(series)} fields vs {times.size} sample times")
    if times.size > 1 and np.any(np.diff(times) <= 0):
        raise DomainError("sample times must be strictly increasing")
    if not (sigma >= 1):
        raise ConfigurationError(f"time exponent must satisfy sigma >= 1, got {sigma}")
    if any(f.grid != series[0].grid for f in series):
        raise DomainError("time series mixes grids")

    per_time = [block_norms(f, bumps, spec.p) for f in series]
    ls = per_time[0][0]
    table = np.stack([norms for _, norms, _ in per_time])  # [time, block]
    if math.isinf(sigma):
        agg = np.max(table, axis=0)
    elif times.size == 1:
        raise DomainError("finite-sigma time norm needs at least two sample times")
    else:
        agg = np.trapezoid(table ** sigma, times, axis=0) ** (1.0 / sigma)
    return _weighted_lr(ls, agg, spec.s, spec.r)


def bony_decompose(u: RealField, v: RealField, bumps: BumpPair):
    """Paraproduct split of the pointwise product.

    Returns (Tuv, Tvu, R) with Tuv = sum_l S_{l-1}u * block_l v, where
    S_m is the chi(2^{-m}|k|) low-pass (mean included), and R the sum of
    block products with indices differing by at most 1. The identity
    u*v = Tuv + Tvu + R + mean(u)*mean(v) holds pointwise on the grid.
    """
    if u.grid != v.grid:
        raise ConfigurationError("paraproduct factors live on different grids")
    g = u.grid
    du = decompose(u, bumps)
    dv = decompose(v, bumps)
    uhat = fft_array(u.values)

    def low_pass(m):
        mult = bumps.chi(g.kmag / 2.0 ** m)
        return ifft_array(mult * uhat)

    t_uv = np.zeros(g.shape)
    for l in du.ls:
        t_uv += low_pass(l - 1) * dv.blocks[l].values

    vhat = fft_array(v.values)
    t_vu = np.zeros(g.shape)
    for l in du.ls:
        mult = bumps.chi(g.kmag / 2.0 ** (l - 1))
        t_vu += ifft_array(mult * vhat) * du.blocks[l].values

    remainder = np.zeros(g.shape)
    for l in du.ls:
        for m in (l - 1, l, l + 1):
            if du.l_min <= m <= du.l_max:
                remainder += du.blocks[l].values * dv.blocks[m].values
    return RealField(g, t_uv), RealField(g, t_vu), RealField(g, remainder)


def heat_block_decay_check(u0: RealField, mu: float, times, bumps: BumpPair,
                           p: float = 2) -> dict:
    """Evolve u0 by the exact diffusion semigroup and compare per-block decay
    against the annulus bounds exp(-mu*(8/3)^2*4^l*t) <= ratio <=
    exp(-mu*(3/4)^2*4^l*t). Also fits the effective rate c in
    ratio ~ exp(-c*mu*4^l*t) for each block."""
    times = np.asarray(times, dtype=float)
    if times.size == 0 or times[0] != 0 or np.any(np.diff(times) <= 0):
        raise DomainError("need increasing sample times starting at 0")
    if mu <= 0:
        raise ConfigurationError(f"diffusion coefficient must be positive, got {mu}")
    g = u0.grid
    ls, norms0, _ = block_norms(u0, bumps, p)
    uhat0 = fft_array(u0.values)
    table = [np.asarray(norms0)]
    for t in times[1:]:
        dhat = np.exp(-mu * g.k2 * t) * uhat0
        if p == 2:
            # spectral evaluation: per-mode decay is exact, so the annulus
            # bounds hold even for blocks holding only roundoff content
            row = _parseval_block_norms(g, bumps, ls, dhat)
        else:
            decayed = RealField(g, ifft_array(dhat))
            row = block_norms(decayed, bumps, p)[1]
        table.append(np.asarray(row))
    table = np.stack(table)  # [time, block]
    # p != 2 goes through a real-space round trip whose roundoff does not
    # decay, so blocks at the noise floor cannot be certified
    floor = 0.0 if p == 2 else 1e-12 * float(np.max(norms0, initial=0.0))

    blocks = []
    for j, l in enumerate(ls):
        n0 = table[0, j]
        if n0 <= floor or n0 == 0:
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
    return {"mu": mu, "p": p, "times": [float(t) for t in times], "blocks": blocks,
            "all_within": all(b["lower_ok"] and b["upper_ok"] for b in blocks)}


def block_report(f: RealField, spec: BesovSpec, bumps: BumpPair) -> dict:
    """JSON-ready per-block norm report."""
    ls, norms, mean = block_norms(f, bumps, spec.p)
    records = []
    for l, v in zip(ls, norms):
        records.append({
            "l": int(l),
            "block_norm": float(v),
            "weighted": float(2.0 ** (l * spec.s) * v),
            "boundary": is_boundary_block(f.grid, l),
        })
    return {
        "s": spec.s,
        "p": spec.p,
        "r": spec.r,
        "mean": mean,
        "norm": _weighted_lr(ls, norms, spec.s, spec.r),
        "blocks": records,
    }
