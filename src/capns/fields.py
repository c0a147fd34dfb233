"""Spectral fields and exact derivatives on uniform periodic grids.

This is the only module that calls ``numpy.fft``, and it uses one Fourier
layout: the half spectrum of real grid samples, from ``numpy.fft.rfft`` in
1-D and ``rfft2`` in 2-D. The last axis keeps modes 0..n/2 (shape
``Grid.half_shape``), a 2-D grid keeps every mode of its first axis, and the
inverse carries the 1/n^dim factor. The helpers ``fft_array``,
``ifft_array``, ``grad_arrays``, ``div_array``, ``lap_array`` and
``dealias_values`` work on raw arrays, with the per-grid multipliers
``Grid.half_ik``, ``half_k2``, ``half_kmag``, ``half_mask`` and
``half_weight`` cached on the grid. They transform the trailing
``grid.dim`` axes only, so a stack with leading axes (time levels, vector
components) goes through one transform call, slice by slice bit-identical
to transforming each slice alone. ``fft_stage`` and ``ifft_stage`` take
the independent arrays of one stage of a computation: on a 1-D grid, where
a transform costs its call more than its arithmetic, they are one call on
the row stack; on a 2-D grid they transform one array at a time, as it is
reached, so no more arrays are live than the caller holds.

Typed boundary: ``RealField`` holds grid samples and ``SpectralField`` a
half spectrum, both validated on construction; ``transform`` is
``fft_array`` on a ``RealField``. Derivatives, divergences, the 2/3
truncation and the quadrature ``Grid.integrate`` run on raw arrays only.
A spectrum drawn without Hermitian symmetry in the full ``fftn`` ordering
enters through ``hermitian_half``, which gives the half spectrum of the
real part of its inverse.

Nyquist rules: wavenumbers are integer mode indices scaled by
2*pi/length; odd-order derivative multipliers (``half_ik``) zero the
unpaired Nyquist mode of each axis, the Laplacian keeps it, and the 2/3
mask drops it. The last axis holds each Hermitian pair once, except its
k = 0 and Nyquist columns, so a sum of |coefficient|^2 over the full
spectrum is the ``half_weight``-weighted sum (1 on those two columns, 2
elsewhere). All functions are pure and never mutate their inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigurationError, DomainError

TAU = 2.0 * math.pi


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, length)^dim with n points per axis."""

    dim: int
    n: int
    length: float = TAU

    def __post_init__(self):
        if self.dim not in (1, 2):
            raise ConfigurationError(f"dim must be 1 or 2, got {self.dim}")
        if self.n < 8 or (self.n & (self.n - 1)) != 0:
            raise ConfigurationError(f"n must be a power of two >= 8, got {self.n}")
        if not (isinstance(self.length, (int, float)) and math.isfinite(self.length)
                and self.length > 0):
            raise ConfigurationError(f"length must be positive and finite, got {self.length}")

    @cached_property
    def shape(self) -> tuple:
        return (self.n,) * self.dim

    @cached_property
    def dx(self) -> float:
        return self.length / self.n

    @cached_property
    def cell_volume(self) -> float:
        return self.dx ** self.dim

    @cached_property
    def x(self) -> tuple:
        """Coordinate arrays broadcast to ``shape``, one per axis."""
        axis = np.arange(self.n) * self.dx
        if self.dim == 1:
            return (axis,)
        xx, yy = np.meshgrid(axis, axis, indexing="ij")
        return (xx, yy)

    @cached_property
    def half_shape(self) -> tuple:
        """Shape of a half spectrum: the last axis keeps modes 0..n/2."""
        return (self.n,) * (self.dim - 1) + (self.n // 2 + 1,)

    @cached_property
    def half_k(self) -> tuple:
        """Wavenumbers per axis on the half spectrum, broadcastable."""
        scale = TAU / self.length
        last = np.fft.rfftfreq(self.n, d=1.0 / self.n) * scale
        if self.dim == 1:
            return (last,)
        first = np.fft.fftfreq(self.n, d=1.0 / self.n) * scale
        return (first[:, None], last[None, :])

    @cached_property
    def half_ik(self) -> tuple:
        """i*k per axis on the half spectrum with the Nyquist entry zeroed."""
        out = []
        for kk in self.half_k:
            ik = 1j * kk
            ik[np.abs(kk) == np.max(np.abs(kk))] = 0.0  # Nyquist: the largest |k|
            out.append(ik)
        return tuple(out)

    @cached_property
    def half_k2(self) -> np.ndarray:
        """|k|^2 on the half spectrum (Nyquist included)."""
        return sum(kk ** 2 for kk in self.half_k)

    @cached_property
    def half_kmag(self) -> np.ndarray:
        return np.sqrt(self.half_k2)

    @cached_property
    def half_mask(self) -> np.ndarray:
        """1.0 on the half-spectrum modes kept by the 2/3 rule, 0.0 elsewhere."""
        cut = (2.0 / 3.0) * (self.n / 2.0) * (TAU / self.length)
        keep = 1.0
        for kk in self.half_k:
            keep = keep * (np.abs(kk) <= cut)
        return keep

    @cached_property
    def half_weight(self) -> np.ndarray:
        """Parseval weights: 1 on the last-axis k = 0 and Nyquist columns, 2 elsewhere."""
        w = np.full(self.n // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        return w

    def integrate(self, values: np.ndarray) -> float:
        """Grid quadrature of raw samples over the torus; no validation."""
        return float(values.sum()) * self.cell_volume


def _checked(values, shape, dtype, name):
    arr = np.asarray(values, dtype=dtype)
    if arr.shape != shape:
        raise DomainError(f"{name} shape {arr.shape} does not match {shape}")
    if not np.isfinite(arr).all():
        raise DomainError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True, eq=False)
class RealField:
    """Real-valued grid samples."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _checked(self.values, self.grid.shape, np.float64,
                                                     "values"))


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Unnormalized half spectrum of a real field, of shape ``grid.half_shape``."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _checked(self.coeffs, self.grid.half_shape,
                                                     np.complex128, "coeffs"))


def fft_array(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Unnormalized half spectrum of real grid samples over the last
    ``grid.dim`` axes; leading axes are a stack."""
    if grid.dim == 1:
        return np.fft.rfft(values)
    return np.fft.rfft2(values)


def ifft_array(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Real grid samples from a half spectrum, with the 1/n^dim factor;
    leading axes are a stack."""
    if grid.dim == 1:
        return np.fft.irfft(coeffs)
    return np.fft.irfft2(coeffs)


def fft_stage(grid: Grid, arrays):
    """Half spectra of the independent real arrays of one stage, in order.

    On a 1-D grid: one ``rfft`` call on their row stack, each row
    bit-identical to its own transform. On a 2-D grid: an iterator that
    transforms each array when it is reached, so ``arrays`` may be a
    generator and only the arrays in use are live.
    """
    if grid.dim == 1:
        return np.fft.rfft(np.array(list(arrays)))
    return (np.fft.rfft2(a) for a in arrays)


def ifft_stage(grid: Grid, coeffs):
    """Real samples of the independent half spectra of one stage, in order;
    one ``irfft`` call on a 1-D grid, one ``irfft2`` per spectrum as it is
    reached on a 2-D grid (see ``fft_stage``)."""
    if grid.dim == 1:
        return np.fft.irfft(np.array(list(coeffs)))
    return (np.fft.irfft2(c) for c in coeffs)


def grad_arrays(grid: Grid, fhat: np.ndarray) -> list:
    """Gradient samples, one per axis, from the half spectrum ``fhat``."""
    return [ifft_array(grid, ik * fhat) for ik in grid.half_ik]


def div_array(grid: Grid, comps) -> np.ndarray:
    """Divergence samples of a vector given as one array per axis."""
    return ifft_array(grid, sum(ik * fft_array(grid, comp)
                                for ik, comp in zip(grid.half_ik, comps)))


def lap_array(grid: Grid, fhat: np.ndarray) -> np.ndarray:
    """Laplacian samples from the half spectrum ``fhat``."""
    return ifft_array(grid, -grid.half_k2 * fhat)


def dealias_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Array-level 2/3 truncation: one mask multiply on the half spectrum."""
    return ifft_array(grid, grid.half_mask * fft_array(grid, values))


def hermitian_half(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Half spectrum of the real part of the inverse of a full spectrum in
    ``fftn`` ordering: (c(k) + conj(c(-k)))/2 on the half modes."""
    neg = -np.arange(grid.n) % grid.n
    half = grid.n // 2 + 1
    mirror = coeffs[np.ix_(*[neg] * (grid.dim - 1), neg[:half])]
    return 0.5 * (coeffs[..., :half] + np.conj(mirror))


def transform(f: RealField) -> SpectralField:
    """Unnormalized forward FFT onto the half spectrum; the one producer of
    the public ``SpectralField``, which no solver path builds."""
    return SpectralField(f.grid, fft_array(f.grid, f.values))


def lp_norm(f: RealField, p: float) -> float:
    """Discrete L^p norm via grid quadrature; p may be math.inf."""
    return float(lp_norms(f.grid, f.values, p))


def lp_norms(grid: Grid, samples: np.ndarray, p: float):
    """Discrete L^p norms over the last ``grid.dim`` axes of a stack of grid
    samples; leading axes are kept. p may be math.inf."""
    if p < 1:
        raise DomainError(f"L^p norm requires p >= 1, got {p}")
    axes = tuple(range(-grid.dim, 0))
    mags = np.abs(samples)
    if p == math.inf:
        return np.max(mags, axis=axes)
    np.power(mags, p, out=mags)
    return (np.sum(mags, axis=axes) * grid.cell_volume) ** (1.0 / p)
