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

The pair (chi, phi) is fixed data of this module, sampled once at
RESOLUTION points per unit radius by :func:`build_bumps`: the Besov norms
of the paper are defined on one dyadic partition, and another partition
would only give an equivalent norm. No function here takes a partition.

Every block norm goes through one kernel, :func:`block_norm_table`, which
maps a stack of half spectra to a [stack, block] table. The block
multipliers of a grid are interpolated once and cached. At p = 2 the table
is one product of |fhat|^2 with the cached (blocks x modes) matrix of
Parseval weight x phi_l^2; other p take one inverse transform of the whole
stack per block. :func:`heat_block_decay_check` works in L^2 only, on
exactly decayed spectra.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, DomainError
from .fields import Grid, RealField, fft_array, ifft_array, lp_norms

PLATEAU = 0.75       # chi = 1 on [0, 3/4]
SUPPORT = 4.0 / 3.0  # chi = 0 beyond 4/3
ANNULUS_OUTER = 8.0 / 3.0
RESOLUTION = 256     # samples of chi and phi per unit radius


def _smooth_step(y):
    """1 at y >= 1, 0 at y <= 0, C^inf in between (exp(-1/y) glue)."""
    y = np.clip(y, 0.0, 1.0)
    with np.errstate(divide="ignore", over="ignore"):
        a = np.where(y > 0, np.exp(-1.0 / np.maximum(y, 1e-300)), 0.0)
        b = np.where(y < 1, np.exp(-1.0 / np.maximum(1.0 - y, 1e-300)), 0.0)
    return a / (a + b)


@dataclass(frozen=True, eq=False)
class BumpPair:
    """Sampled radial cutoff chi and annulus bump phi(x) = chi(x/2) - chi(x).

    Both are stored on the same uniform radial step so that piecewise-linear
    evaluation keeps the telescoping identities exact.
    """

    r_chi: np.ndarray
    chi_samples: np.ndarray
    r_phi: np.ndarray
    phi_samples: np.ndarray

    def chi(self, r):
        return np.interp(r, self.r_chi, self.chi_samples)

    def phi(self, r):
        return np.interp(r, self.r_phi, self.phi_samples)


@functools.cache
def build_bumps() -> BumpPair:
    """The cutoff pair sampled at RESOLUTION points per unit radius.

    One pair is built and shared; its samples are read-only.
    """
    h = 1.0 / RESOLUTION
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
    for arr in (r_chi, chi, r_phi, phi):
        arr.flags.writeable = False
    return BumpPair(r_chi, chi, r_phi, phi)


def block_range(grid: Grid) -> tuple:
    """Smallest and largest block index needed to cover the resolved band."""
    kmin = 2.0 * math.pi / grid.length
    kmax = float(np.max(grid.half_kmag))
    l_min = int(math.floor(math.log2(PLATEAU * kmin)))
    l_max = int(math.ceil(math.log2(kmax / (2.0 * PLATEAU))))
    return l_min, l_max


def is_boundary_block(grid: Grid, l: int) -> bool:
    """True when the annulus of block l extends past the resolved band."""
    kmin = 2.0 * math.pi / grid.length
    kmax = float(np.max(grid.half_kmag))
    return PLATEAU * 2.0 ** l < kmin or ANNULUS_OUTER * 2.0 ** l > kmax


class DyadicDecomposition:
    """Blocks of one field and its mean mode."""

    def __init__(self, grid, l_min, l_max, blocks, mean):
        self.grid = grid
        self.l_min = l_min
        self.l_max = l_max
        self.blocks = blocks
        self.mean = mean

    @property
    def ls(self):
        return list(range(self.l_min, self.l_max + 1))

    def reconstruct(self) -> RealField:
        total = np.full(self.grid.shape, self.mean)
        for b in self.blocks.values():
            total = total + b.values
        return RealField(self.grid, total)


@functools.lru_cache(maxsize=16)
def _radial_blocks(dim: int, n: int, length: float, low_pass: bool = False) -> tuple:
    """Block indices, phi(r / 2^l) on each distinct radius r = |k| of the
    half spectrum as a [block, radius] table, and each mode's radius index;
    with ``low_pass``, the table holds the low-passes chi(r / 2^(l-1)) of
    the blocks instead.

    One interpolation per grid and table; modes of equal |k| share
    their multiplier bit for bit. The key holds plain numbers, so the cache
    keeps no grid (and none of its cached arrays) alive.
    """
    grid = Grid(dim, n, length)
    l_min, l_max = block_range(grid)
    ls = list(range(l_min, l_max + 1))
    bumps = build_bumps()
    radii, index = np.unique(grid.half_kmag, return_inverse=True)
    if low_pass:
        table = bumps.chi(radii / np.array([2.0 ** (l - 1) for l in ls])[:, None])
    else:
        table = bumps.phi(radii / np.array([2.0 ** l for l in ls])[:, None])
    return ls, table, index.reshape(grid.half_kmag.shape)


def _block_multipliers(grid: Grid, low_pass: bool = False) -> tuple:
    """Block indices and the multipliers phi(|k| / 2^l) (with ``low_pass``,
    chi(|k| / 2^(l-1))), built one block at a time from the cached radial
    table."""
    ls, table, index = _radial_blocks(grid.dim, grid.n, grid.length, low_pass)
    return ls, (row[index] for row in table)


@functools.lru_cache(maxsize=8)
def _parseval_matrix(dim: int, n: int, length: float) -> np.ndarray:
    """(blocks x modes) matrix of Parseval weight x phi_l^2: the weights
    count each Hermitian pair of the half spectrum twice."""
    grid = Grid(dim, n, length)
    _, mults = _block_multipliers(grid)
    return np.stack([(grid.half_weight * mult ** 2).ravel() for mult in mults])


def block_norm_table(grid: Grid, fhat: np.ndarray, p: float) -> tuple:
    """Block indices and the per-block L^p norms of a stack of half spectra.

    ``fhat`` has any leading (stack) axes before the half-spectrum axes of
    ``grid``; the table has the same leading axes and one trailing block
    axis. p = 2 is one product of |fhat|^2 with the Parseval matrix, without
    inverse transforms; other p take one inverse transform of the whole
    stack per block.
    """
    ls, mults = _block_multipliers(grid)
    lead = fhat.shape[:fhat.ndim - grid.dim]
    if p == 2:
        parseval = _parseval_matrix(grid.dim, grid.n, grid.length)
        power = (np.abs(fhat) ** 2).reshape(-1, parseval.shape[1])
        scale = math.sqrt(grid.cell_volume / grid.n ** grid.dim)
        return ls, scale * np.sqrt(power @ parseval.T).reshape(lead + (len(ls),))
    table = np.empty(lead + (len(ls),))
    for j, mult in enumerate(mults):
        table[..., j] = lp_norms(grid, ifft_array(grid, mult * fhat), p)
    return ls, table


def decompose(f: RealField) -> DyadicDecomposition:
    g = f.grid
    ls, mults = _block_multipliers(g)
    fhat = fft_array(g, f.values)
    mean = float(fhat.flat[0].real) / g.n ** g.dim
    blocks = {l: RealField(g, ifft_array(g, mult * fhat)) for l, mult in zip(ls, mults)}
    return DyadicDecomposition(g, ls[0], ls[-1], blocks, mean)


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


def block_norms(f: RealField, *, p: float):
    """Per-block L^p norms (and the mean mode) from one forward transform;
    see :func:`block_norm_table`. ``p`` is keyword-only: perfbench's tracer
    reads it from the call's keywords."""
    g = f.grid
    fhat = fft_array(g, f.values)
    mean = float(fhat.flat[0].real) / g.n ** g.dim
    ls, norms = block_norm_table(g, fhat, p)
    return ls, norms, mean


def _weighted_lr(ls, norms, s, r):
    weighted = np.array([2.0 ** (l * s) * v for l, v in zip(ls, norms)])
    if math.isinf(r):
        return float(np.max(weighted)) if weighted.size else 0.0
    return float(np.sum(weighted ** r) ** (1.0 / r))


def besov_norm(f: RealField, spec: BesovSpec) -> float:
    """l^r over blocks of 2^{ls} ||block||_{L^p}; the mean mode is excluded
    (constants have zero norm) and is available via decompose/block_norms."""
    ls, norms, _ = block_norms(f, p=spec.p)
    return _weighted_lr(ls, norms, spec.s, spec.r)


def tilde_norm(series, times, sigma: float, spec: BesovSpec) -> float:
    """Time-then-block norm: per block, L^sigma of t -> ||block(t)||_{L^p}
    over the time grid (trapezoid; sigma = inf takes the sup), then the
    weighted l^r across blocks. Time aggregation happens strictly before
    the block sum, which is what distinguishes this from L^sigma of the
    instantaneous norm. A benchmark span target: runs take spectral_tilde_norm."""
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
    if not math.isinf(sigma) and times.size == 1:
        raise DomainError("finite-sigma time norm needs at least two sample times")
    g = series[0].grid
    fhat = fft_array(g, np.stack([f.values for f in series]))
    return spectral_tilde_norm(g, fhat, times, sigma, spec)


def spectral_tilde_norm(grid: Grid, fhat: np.ndarray, times, sigma: float,
                        spec: BesovSpec) -> float:
    """:func:`tilde_norm` of a series given as a [time, half spectrum] stack,
    for callers that already hold the spectra; the arguments are trusted."""
    ls, table = block_norm_table(grid, fhat, spec.p)  # [time, block]
    if math.isinf(sigma):
        agg = np.max(table, axis=0)
    else:
        agg = np.trapezoid(table ** sigma, times, axis=0) ** (1.0 / sigma)
    return _weighted_lr(ls, agg, spec.s, spec.r)


def bony_decompose(u: RealField, v: RealField):
    """Paraproduct split of the pointwise product.

    Returns (Tuv, Tvu, R) with Tuv = sum_l S_{l-1}u * block_l v, where
    S_m is the chi(2^{-m}|k|) low-pass (mean included), and R the sum of
    block products with indices differing by at most 1. The identity
    u*v = Tuv + Tvu + R + mean(u)*mean(v) holds pointwise on the grid.
    """
    if u.grid != v.grid:
        raise ConfigurationError("paraproduct factors live on different grids")
    g = u.grid
    ls, mults = _block_multipliers(g)
    _, lows = _block_multipliers(g, low_pass=True)
    uvhat = fft_array(g, np.stack([u.values, v.values]))
    # blocks[l] stacks block_l u and block_l v
    blocks = {l: ifft_array(g, mult * uvhat) for l, mult in zip(ls, mults)}

    t_uv = np.zeros(g.shape)
    t_vu = np.zeros(g.shape)
    remainder = np.zeros(g.shape)
    for l, low in zip(ls, lows):
        low_u, low_v = ifft_array(g, low * uvhat)
        t_uv += low_u * blocks[l][1]
        t_vu += low_v * blocks[l][0]
        for m in (l - 1, l, l + 1):
            if m in blocks:
                remainder += blocks[l][0] * blocks[m][1]
    return RealField(g, t_uv), RealField(g, t_vu), RealField(g, remainder)


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


def block_report(f: RealField, spec: BesovSpec) -> dict:
    """JSON-ready per-block norm report."""
    ls, norms, mean = block_norms(f, p=spec.p)
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
