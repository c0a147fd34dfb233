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

The low-pass S_{l-1} = chi(2^{1-l}|k|) is the mean plus the blocks below
l - 1 (the annuli telescope, and chi(2^{-l_min}|k|) is 0 at every nonzero
wavenumber), so :func:`bony_decompose` sums its low-passes from its blocks.

Every block norm goes through one kernel, :func:`block_norm_table`, which
maps a stack of half spectra to a [stack, block] table. The block
multipliers of a grid are interpolated once and cached, with each block's
column extent: the leading last-axis columns of the half spectrum outside
which its multiplier is exactly zero, derived from the multiplier itself
(2, 3, 6, 11, 22 and 43 of 129 for blocks -1..4 at n = 256). At p = 2 the
table is one product of |fhat|^2 with the cached (blocks x modes) matrix of
Parseval weight x phi_l^2; other p take one inverse transform of the whole
stack per block, which, like :func:`decompose` and
:func:`bony_decompose`, multiplies and inverts only the block's columns (a
narrowed spectrum, bit-identical to the full width). Each such block
product is built for its one inverse, which overwrites it
(``fields._ifft_owned``), so the spectra passed in are left as they were.
:func:`tilde_norm`, the time-sup norm of the Picard differences, takes
its series as such a stack with a leading time axis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, finite_number
from .fields import Grid, RealField, _ifft_owned, column_extent, fft_array, lp_norms

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
    l_min = int(math.floor(math.log2(PLATEAU * kmin)))
    l_max = int(math.ceil(math.log2(grid.kmax / (2.0 * PLATEAU))))
    return l_min, l_max


def is_boundary_block(grid: Grid, l: int) -> bool:
    """True when the annulus of block l extends past the resolved band."""
    kmin = 2.0 * math.pi / grid.length
    return PLATEAU * 2.0 ** l < kmin or ANNULUS_OUTER * 2.0 ** l > grid.kmax


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
def _radial_blocks(dim: int, n: int, length: float) -> tuple:
    """Block indices, phi(r / 2^l) on each distinct radius r = |k| of the
    half spectrum as a [block, radius] table, and each mode's radius index.

    One interpolation per grid; modes of equal |k| share
    their multiplier bit for bit. The key holds plain numbers, so the cache
    keeps no grid (and none of its cached arrays) alive.
    """
    grid = Grid(dim, n, length)
    l_min, l_max = block_range(grid)
    ls = list(range(l_min, l_max + 1))
    radii, index = np.unique(grid.half_kmag, return_inverse=True)
    table = build_bumps().phi(radii / np.array([2.0 ** l for l in ls])[:, None])
    index = index.reshape(grid.half_kmag.shape)
    return ls, table, index, [column_extent(row[index]) for row in table]


def _block_multipliers(grid: Grid) -> tuple:
    """Block indices and the multipliers phi(|k| / 2^l) narrowed to their
    column extents, built one block at a time from the cached radial table.
    A multiplier's last-axis length is the number of spectrum columns it
    takes."""
    ls, table, index, widths = _radial_blocks(grid.dim, grid.n, grid.length)
    return ls, (row[index[..., :m]] for row, m in zip(table, widths))


@functools.lru_cache(maxsize=8)
def _parseval_matrix(dim: int, n: int, length: float) -> np.ndarray:
    """(blocks x modes) matrix of Parseval weight x phi_l^2: the weights
    count each Hermitian pair of the half spectrum twice."""
    grid = Grid(dim, n, length)
    _, table, index, _ = _radial_blocks(dim, n, length)
    return np.stack([(grid.half_weight * row[index] ** 2).ravel() for row in table])


def block_norm_table(grid: Grid, fhat: np.ndarray, p: float) -> tuple:
    """Block indices and the per-block L^p norms of a stack of half spectra.

    ``fhat`` has any leading (stack) axes before the half-spectrum axes of
    ``grid``; the table has the same leading axes and one trailing block
    axis. p = 2 is one product of |fhat|^2 with the Parseval matrix, without
    inverse transforms; other p take one inverse transform of the whole
    stack per block, on the block's columns only.
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
        table[..., j] = lp_norms(grid, _ifft_owned(grid, mult * fhat[..., :mult.shape[-1]]), p)
    return ls, table


def decompose(f: RealField) -> DyadicDecomposition:
    g = f.grid
    ls, mults = _block_multipliers(g)
    fhat = fft_array(g, f.values)
    mean = float(fhat.flat[0].real) / g.n ** g.dim
    blocks = {l: RealField(g, _ifft_owned(g, mult * fhat[..., :mult.shape[-1]]))
              for l, mult in zip(ls, mults)}
    return DyadicDecomposition(g, ls[0], ls[-1], blocks, mean)


@dataclass(frozen=True)
class BesovSpec:
    """Regularity index s, spatial exponent p, summation exponent r."""

    s: float
    p: float
    r: float = 1.0

    def __post_init__(self):
        if bool in (type(self.p), type(self.r)) or not (self.p >= 1 and self.r >= 1):
            raise ConfigurationError(f"exponents must satisfy p, r >= 1, got p={self.p}, r={self.r}")
        if not finite_number(self.s):
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


def tilde_norm(grid: Grid, fhat: np.ndarray, spec: BesovSpec) -> float:
    """Time-sup Besov norm of a series given as a [time, half spectrum]
    stack: per block, the sup over the time levels of ||block(t)||_{L^p},
    then the weighted l^r across blocks. The sup is taken before the block
    sum, which is what distinguishes this from the sup of the instantaneous
    norm; it is the norm the Picard iteration measures its differences in."""
    ls, table = block_norm_table(grid, fhat, spec.p)  # [time, block]
    return _weighted_lr(ls, np.max(table, axis=0), spec.s, spec.r)


def bony_decompose(u: RealField, v: RealField):
    """Paraproduct split of the pointwise product.

    Returns (Tuv, Tvu, R) with Tuv = sum_l S_{l-1}u * block_l v, where
    the low-pass S_{l-1}u = mean(u) + sum_{m <= l-2} block_m u is the
    chi(2^{1-l}|k|) multiplier of u written as a partial sum of its blocks,
    and R the sum of block products with indices differing by at most 1.
    The identity u*v = Tuv + Tvu + R + mean(u)*mean(v) holds pointwise on
    the grid. One forward transform, then one inverse per block.
    """
    if u.grid != v.grid:
        raise ConfigurationError("paraproduct factors live on different grids")
    g = u.grid
    ls, mults = _block_multipliers(g)
    uvhat = fft_array(g, np.stack([u.values, v.values]))
    # blocks[l] stacks block_l u and block_l v, and low S_{l-1}u and S_{l-1}v
    blocks = {l: _ifft_owned(g, mult * uvhat[..., :mult.shape[-1]]) for l, mult in zip(ls, mults)}
    means = uvhat.reshape(2, -1)[:, 0].real / g.n ** g.dim
    low = np.stack([np.full(g.shape, m) for m in means])

    t_uv = np.zeros(g.shape)
    t_vu = np.zeros(g.shape)
    remainder = np.zeros(g.shape)
    for l in ls:
        if l - 2 in blocks:
            low += blocks[l - 2]
        t_uv += low[0] * blocks[l][1]
        t_vu += low[1] * blocks[l][0]
        for m in (l - 1, l, l + 1):
            if m in blocks:
                remainder += blocks[l][0] * blocks[m][1]
    return RealField(g, t_uv), RealField(g, t_vu), RealField(g, remainder)


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
