"""Spectral fields and exact derivatives on uniform periodic grids.

This is the only module that calls ``numpy.fft``. Conventions: forward
transforms are plain unnormalized ``numpy.fft.fftn``, the inverse carries
the 1/n^dim factor and keeps the real part. Wavenumbers are integer mode
indices scaled by 2*pi/length. Odd-order derivative multipliers zero the
unpaired Nyquist mode of even-length transforms; the Laplacian keeps it.
All functions are pure and never mutate their inputs.

The solver, model and dyadic code work on raw arrays through the
array-level helpers ``fft_array``, ``ifft_array``, ``grad_arrays``,
``div_array``, ``lap_array`` and ``dealias_values``; the ``RealField``
functions below wrap the same helpers and validate their results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

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
    def k(self) -> tuple:
        """Physical wavenumbers per axis, broadcastable; Nyquist kept as -n/2."""
        scale = TAU / self.length
        k1 = np.fft.fftfreq(self.n, d=1.0 / self.n) * scale
        if self.dim == 1:
            return (k1,)
        return (k1[:, None], k1[None, :])

    @cached_property
    def k_deriv(self) -> tuple:
        """Like ``k`` with the Nyquist entry zeroed, for odd derivatives."""
        scale = TAU / self.length
        k1 = np.fft.fftfreq(self.n, d=1.0 / self.n) * scale
        k1[self.n // 2] = 0.0
        if self.dim == 1:
            return (k1,)
        return (k1[:, None], k1[None, :])

    @cached_property
    def k2(self) -> np.ndarray:
        """|k|^2 on the full grid shape (Nyquist included)."""
        out = sum(kk ** 2 for kk in self.k)
        return np.broadcast_to(out, self.shape) if self.dim > 1 else out

    @cached_property
    def kmag(self) -> np.ndarray:
        return np.sqrt(self.k2)

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """True on modes kept by the 2/3 rule, applied per axis."""
        cut = (2.0 / 3.0) * (self.n / 2.0) * (TAU / self.length)
        keep = None
        for kk in self.k:
            axis_keep = np.abs(kk) <= cut
            keep = axis_keep if keep is None else (keep & axis_keep)
        return np.broadcast_to(keep, self.shape)


def _checked(grid, values, dtype, name):
    arr = np.asarray(values, dtype=dtype)
    if arr.shape != grid.shape:
        raise DomainError(f"{name} shape {arr.shape} does not match grid shape {grid.shape}")
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{name} contains non-finite values")
    return arr


@dataclass(frozen=True, eq=False)
class RealField:
    """Real-valued grid samples."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "values", _checked(self.grid, self.values, np.float64, "values"))


@dataclass(frozen=True, eq=False)
class SpectralField:
    """Fourier coefficients in unnormalized fftn layout."""

    grid: Grid
    coeffs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _checked(self.grid, self.coeffs, np.complex128, "coeffs"))


def same_grid(*fields) -> Grid:
    grid = fields[0].grid
    for f in fields[1:]:
        if f.grid != grid:
            raise ConfigurationError(f"grid mismatch: {f.grid} vs {grid}")
    return grid


def fft_array(values: np.ndarray) -> np.ndarray:
    """Unnormalized forward FFT of grid samples."""
    return np.fft.fftn(values)


def ifft_array(coeffs: np.ndarray) -> np.ndarray:
    """Inverse FFT with the 1/n^dim factor; drops the imaginary residue."""
    return np.fft.ifftn(coeffs).real


def grad_arrays(grid: Grid, fhat: np.ndarray) -> list:
    """Gradient samples, one per axis, from the coefficients ``fhat``."""
    return [ifft_array(1j * kd * fhat) for kd in grid.k_deriv]


def div_array(grid: Grid, comps) -> np.ndarray:
    """Divergence samples of a vector given as one array per axis."""
    out = np.zeros(grid.shape)
    for kd, comp in zip(grid.k_deriv, comps):
        out += ifft_array(1j * kd * fft_array(comp))
    return out


def lap_array(grid: Grid, fhat: np.ndarray) -> np.ndarray:
    """Laplacian samples from the coefficients ``fhat``."""
    return ifft_array(-grid.k2 * fhat)


def dealias_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Array-level 2/3 truncation used in nonlinear term assembly."""
    return ifft_array(np.where(grid.dealias_mask, fft_array(values), 0.0))


def transform(f: RealField) -> SpectralField:
    """Unnormalized forward FFT."""
    return SpectralField(f.grid, fft_array(f.values))


def inverse_transform(F: SpectralField) -> RealField:
    """Inverse FFT with the 1/n^dim factor; drops the imaginary residue."""
    return RealField(F.grid, ifft_array(F.coeffs))


def grad(f: RealField) -> tuple:
    """Exact spectral gradient, one component per axis."""
    g = f.grid
    return tuple(RealField(g, c) for c in grad_arrays(g, fft_array(f.values)))


def div(vec: Sequence[RealField]) -> RealField:
    g = same_grid(*vec)
    if len(vec) != g.dim:
        raise ConfigurationError(f"vector has {len(vec)} components on a dim-{g.dim} grid")
    return RealField(g, div_array(g, [comp.values for comp in vec]))


def laplacian(f: RealField) -> RealField:
    g = f.grid
    return RealField(g, lap_array(g, fft_array(f.values)))


def hessian(f: RealField) -> tuple:
    """Symmetric matrix of second derivatives as nested tuples H[i][j]."""
    g = f.grid
    fhat = fft_array(f.values)
    rows = []
    for ki in g.k_deriv:
        rows.append(tuple(
            RealField(g, ifft_array(-(ki * kj) * fhat)) for kj in g.k_deriv
        ))
    return tuple(rows)


def dealias(obj):
    """Zero all modes with any |k_i| above the 2/3 cutoff. Idempotent."""
    if isinstance(obj, SpectralField):
        return SpectralField(obj.grid, np.where(obj.grid.dealias_mask, obj.coeffs, 0.0))
    return RealField(obj.grid, dealias_values(obj.grid, obj.values))


def integrate(f: RealField) -> float:
    """Grid quadrature of f over the torus."""
    return float(np.sum(f.values)) * f.grid.cell_volume


def lp_norm(f: RealField, p: float) -> float:
    """Discrete L^p norm via grid quadrature; p may be math.inf."""
    if p == math.inf:
        return float(np.max(np.abs(f.values)))
    if p < 1:
        raise DomainError(f"L^p norm requires p >= 1, got {p}")
    return float((np.sum(np.abs(f.values) ** p) * f.grid.cell_volume) ** (1.0 / p))
