"""Spectral fields and exact derivatives on uniform periodic grids.

This is the only module that calls ``numpy.fft``, and it uses one Fourier
layout: the half spectrum of real grid samples, from ``numpy.fft.rfft`` in
1-D and ``rfft2`` in 2-D. The last axis keeps modes 0..n/2 (shape
``Grid.half_shape``), a 2-D grid keeps every mode of its first axis, and the
inverse carries the 1/n^dim factor. A narrowed spectrum, with fewer
last-axis columns than ``half_shape``, is that layout zero beyond its
columns: ``ifft_array`` inverts it bit-identically to the zero-padded full
width, and in 2-D runs the first-axis transforms on its columns only. A
multiplier that is exactly zero beyond some column (``column_extent``)
needs only those columns of a spectrum. The helpers ``fft_array``,
``ifft_array``, ``grad_arrays`` and ``dealias_values`` work on raw arrays,
with the per-grid multipliers ``Grid.half_ik``, ``half_k2``, ``half_kmag``,
``half_mask`` and ``half_weight``, the mask's column extent
``half_mask_columns`` and the largest wavenumber ``kmax`` cached on the
grid; ``dealias_values`` multiplies and inverts the mask's columns only.
No product of multipliers is cached here: the 1-D tendencies keep
theirs, short vectors, in ``model``, and the 2-D ones form each per use.
The helpers transform the trailing ``grid.dim`` axes only, so a stack
with leading axes (time levels, vector components) goes through one
transform call, slice by slice bit-identical to transforming each slice
alone. ``fft_stage`` and ``ifft_stage`` take the independent arrays of
one stage of a computation as a sequence, for code written for both grids
(a record's derivatives, the 2-D bodies); a 1-D body builds its
stacks and calls ``fft_array``/``ifft_array``. On a 1-D grid, where a
transform costs its call more than its arithmetic, they are one call on
the row stack (a single row as a view); on a 2-D grid they transform one
array at a time, as it is reached, so no more arrays are live than the
caller holds.

Transforms make no hidden temporary where they can avoid one. Every 1-D
call, ``rfft`` or ``irfft``, writes into a fresh ``out=`` array, its result.
A forward ``rfft2`` writes both its passes into one such array. The 2-D
inverse of a spectrum built for it runs the two passes of ``irfft2``
itself: the first-axis ``ifft`` in place in that spectrum, then the
last-axis ``irfft``. Only ``ifft_array``, for a spectrum the caller reads
again, keeps the intermediate array of ``irfft2``. No buffer is kept, and
every result is bit-identical to numpy's. The ownership rule
(``_ifft_owned``): an inverse overwrites a spectrum only where it is a
product built for that inverse alone: each multiplier times a spectrum in
``grad_arrays`` and ``dealias_values``, each spectrum of a 2-D
``ifft_stage``, and the block products of ``lp_besov``.

The seam, ``_pfu``, is chosen once, at import. When numpy.fft binds
numpy's own ``rfft``, ``irfft``, ``fft`` and ``ifft`` and a probe on an
8x8 array gives ``rfft2``/``irfft2``'s bytes, it is the pocketfft gufuncs
of ``numpy.fft._pocketfft_umath``: a transform calls them with the
arguments numpy.fft's own functions pass them, pass by pass in the order
``rfft2``/``irfft2`` run theirs, and so returns the same bytes. That skips
numpy.fft's Python wrapper, whose dispatch, dtype resolution and axis
normalisation cost about 2-3 µs of a 5-6 µs 1-D call at n = 128, while a
1-D step is bound by its calls. Otherwise ``_pfu`` is ``_PUBLIC_FFT``,
which makes the same four calls through the numpy.fft functions bound at
call time, one call per pass: a program that wraps numpy.fft before it
imports capns (a tracer) sees every pass.

Typed boundary: ``RealField`` holds grid samples and ``SpectralField`` a
half spectrum, both validated on construction; ``transform`` is
``fft_array`` on a ``RealField``. Derivatives, divergences, the 2/3
truncation and the quadrature ``Grid.integrate`` run on raw arrays only,
stacks included. A spectrum drawn without Hermitian symmetry in the full
``fftn`` ordering enters through ``hermitian_half``, which gives the half
spectrum of the real part of its inverse.

Nyquist rules: wavenumbers are integer mode indices scaled by
2*pi/length; odd-order derivative multipliers (``half_ik``) zero the
unpaired Nyquist mode of each axis, the Laplacian keeps it, and the 2/3
mask drops it. The last axis holds each Hermitian pair once, except its
k = 0 and Nyquist columns, so a sum of |coefficient|^2 over the full
spectrum is the ``half_weight``-weighted sum (1 on those two columns, 2
elsewhere). Apart from the spectra of the ownership rule, no function
mutates its inputs.

``lp_norms`` takes the plain quadrature (sum |x|^p dV)^(1/p) and falls
back to the max-scaled form on a row where |x|^p under- or overflows, as it
does at large p.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property
from types import SimpleNamespace

import numpy as np
from numpy.fft import _pocketfft, _pocketfft_umath

from .errors import ConfigurationError, DomainError

TAU = 2.0 * math.pi
_TINY = sys.float_info.min  # smallest normal double
_FIRST_AXIS = [(-2,), (), (-2,)]  # gufunc axes of a 2-D pass along axis -2


# The seam's twin: the four gufunc calls of this module through numpy.fft's
# public functions, looked up on every call. fct is numpy's own
# normalisation, the only one passed here, and irfft's length is out's.
_PUBLIC_FFT = SimpleNamespace(
    rfft_n_even=lambda x, fct, out: np.fft.rfft(x, out=out),
    irfft=lambda x, fct, out: np.fft.irfft(x, out.shape[-1], out=out),
    fft=lambda x, fct, axes, out: np.fft.fft(x, axis=axes[0][0], out=out),
    ifft=lambda x, fct, axes, out: np.fft.ifft(x, axis=axes[0][0], out=out))


def _seam():
    """``_pocketfft_umath`` while numpy.fft binds numpy's own transforms and
    the gufuncs, called as below, give ``rfft2``/``irfft2``'s bytes on an
    8x8 array; ``_PUBLIC_FFT`` otherwise (a wrapped or another numpy.fft)."""
    if any(getattr(np.fft, f) is not getattr(_pocketfft, f)
           for f in ("rfft", "irfft", "fft", "ifft")):
        return _PUBLIC_FFT
    pfu, x = _pocketfft_umath, np.sin(np.arange(64.0)).reshape(8, 8)
    spec = np.empty((8, 5), complex)
    try:
        pfu.rfft_n_even(x, 1.0, out=spec)
        pfu.fft(spec, 1.0, axes=_FIRST_AXIS, out=spec)
        back = pfu.irfft(pfu.ifft(spec, 0.125, axes=_FIRST_AXIS, out=np.empty_like(spec)),
                         0.125, out=np.empty((8, 8)))
    except (TypeError, ValueError):  # not the signatures this module calls
        return _PUBLIC_FFT
    same = (spec.tobytes() == np.fft.rfft2(x).tobytes()
            and back.tobytes() == np.fft.irfft2(spec).tobytes())
    return pfu if same else _PUBLIC_FFT


_pfu = _seam()


@dataclass(frozen=True)
class Grid:
    """Uniform periodic grid on [0, length)^dim with n points per axis."""

    dim: int
    n: int
    length: float = TAU

    def __post_init__(self):
        # type(...) is int: a bool or a float of integral value is refused
        if not (type(self.dim) is int and self.dim in (1, 2)):
            raise ConfigurationError(f"dim must be 1 or 2, got {self.dim}")
        if not (type(self.n) is int and self.n >= 8 and (self.n & (self.n - 1)) == 0):
            raise ConfigurationError(f"n must be a power of two >= 8, got {self.n}")
        if not (isinstance(self.length, (int, float)) and not isinstance(self.length, bool)
                and math.isfinite(self.length) and self.length > 0):
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
    def half_mask_columns(self) -> int:
        """Last-axis columns of ``half_mask`` up to its last nonzero one."""
        return column_extent(self.half_mask)

    @cached_property
    def kmax(self) -> float:
        """Largest |k| of the half spectrum."""
        return float(np.max(self.half_kmag))

    @cached_property
    def half_weight(self) -> np.ndarray:
        """Parseval weights: 1 on the last-axis k = 0 and Nyquist columns, 2 elsewhere."""
        w = np.full(self.n // 2 + 1, 2.0)
        w[0] = w[-1] = 1.0
        return w

    def integrate(self, values: np.ndarray):
        """Grid quadrature of raw samples over the torus; no validation.

        The samples of one field give a float. Leading axes are a stack:
        the integral of each row comes back in an array of that leading
        shape, bit-identical to integrating the row alone.
        """
        if values.ndim == self.dim:
            return float(values.sum()) * self.cell_volume
        return values.sum(axis=tuple(range(-self.dim, 0))) * self.cell_volume


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
    ``grid.dim`` axes; leading axes are a stack. ``rfft``, or both passes
    of ``rfft2``, write into one fresh ``out=`` array, the result."""
    out = np.empty(values.shape[:-grid.dim] + grid.half_shape, complex)
    _pfu.rfft_n_even(values, 1.0, out=out)
    return out if grid.dim == 1 else _pfu.fft(out, 1.0, axes=_FIRST_AXIS, out=out)


def ifft_array(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """Real grid samples from a half spectrum, with the 1/n^dim factor;
    leading axes are a stack. ``coeffs`` is left as it was: this is the
    inverse of a spectrum the caller reads again (``_ifft_owned`` is the
    one of a spectrum built for the inverse).

    A spectrum with fewer last-axis columns than ``grid.half_shape`` is a
    narrowed one: zero beyond its columns. Its inverse is bit-identical to
    that of the zero-padded full width, and in 2-D the first-axis
    transforms run on its columns only.
    """
    if grid.dim == 1:
        return _pfu.irfft(coeffs, 1.0 / grid.n, out=np.empty(coeffs.shape[:-1] + grid.shape))
    return _irfft_last(grid, _pfu.ifft(coeffs, 1.0 / grid.n, axes=_FIRST_AXIS,
                                       out=np.empty_like(coeffs, dtype=complex)))


def _ifft_owned(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """``ifft_array`` of a spectrum built for this one inverse, which it
    overwrites: the ownership rule of the module docstring.

    On a 2-D grid the first-axis pass runs in place in ``coeffs`` and the
    last-axis ``irfft`` reads it from there: the two calls ``irfft2`` makes,
    bit for bit, without the intermediate array it allocates. A narrowed
    spectrum is taken as in ``ifft_array``. On a 1-D grid it is
    ``ifft_array``, and nothing is overwritten.
    """
    if grid.dim == 1:
        return ifft_array(grid, coeffs)
    return _irfft_last(grid, _pfu.ifft(coeffs, 1.0 / grid.n, axes=_FIRST_AXIS, out=coeffs))


def _irfft_last(grid: Grid, coeffs: np.ndarray) -> np.ndarray:
    """The last-axis pass of a 2-D inverse, into the array numpy's
    ``irfft`` would allocate (``empty_like``, so its memory order too)."""
    out = np.empty_like(coeffs, shape=coeffs.shape[:-1] + (grid.n,), dtype=float)
    return _pfu.irfft(coeffs, 1.0 / grid.n, out=out)


def fft_stage(grid: Grid, arrays):
    """Half spectra of the independent real arrays of one stage, in order.

    On a 1-D grid: one ``rfft`` call on their row stack, each row
    bit-identical to its own transform. On a 2-D grid: an iterator that
    transforms each array when it is reached, so ``arrays`` may be a
    generator and only the arrays in use are live.
    """
    if grid.dim == 1:
        return fft_array(grid, _rows(arrays))
    return (fft_array(grid, a) for a in arrays)


def ifft_stage(grid: Grid, coeffs):
    """Real samples of the independent half spectra of one stage, in order:
    one ``irfft`` call on a 1-D grid, which reads its stack only; on a 2-D
    grid one inverse per spectrum as it is reached (see ``fft_stage``),
    which overwrites it (``_ifft_owned``), since the spectra of a stage are
    built for it (a spectrum read again goes through ``ifft_array``)."""
    if grid.dim == 1:
        return ifft_array(grid, _rows(coeffs))
    return (_ifft_owned(grid, c) for c in coeffs)


def _rows(arrays) -> np.ndarray:
    """The row stack of 1-D arrays: a view of the array when there is one,
    else a stacked copy."""
    arrays = list(arrays)
    return arrays[0][None] if len(arrays) == 1 else np.array(arrays)


def grad_arrays(grid: Grid, fhat: np.ndarray) -> list:
    """Gradient samples, one per axis, from the half spectrum ``fhat``."""
    return [_ifft_owned(grid, ik * fhat) for ik in grid.half_ik]


def dealias_values(grid: Grid, values: np.ndarray) -> np.ndarray:
    """Array-level 2/3 truncation on the grid: one forward transform, then
    the mask multiply and the inverse on the mask's columns only (a
    narrowed spectrum, see ``ifft_array``). For a product whose spectrum is
    wanted, ``half_mask`` times its ``fft_array`` is the same truncation
    without the round trip (the 2-D tendencies and Picard sources)."""
    m = grid.half_mask_columns
    return _ifft_owned(grid, grid.half_mask[..., :m] * fft_array(grid, values)[..., :m])


def column_extent(mult: np.ndarray) -> int:
    """Number of leading last-axis columns of a half-spectrum multiplier
    outside which it is exactly zero; at least 1, so that the narrowed
    spectrum it leaves is never empty."""
    nonzero = np.flatnonzero(np.any(mult != 0, axis=tuple(range(mult.ndim - 1))))
    return int(nonzero[-1]) + 1 if nonzero.size else 1


def hermitian_half(grid: Grid, coeffs: np.ndarray, width: int | None = None) -> np.ndarray:
    """Half spectrum of the real part of the inverse of a full spectrum in
    ``fftn`` ordering: (c(k) + conj(c(-k)))/2 on the half modes, or on
    their first ``width`` last-axis columns only (a narrowed spectrum)."""
    neg = -np.arange(grid.n) % grid.n
    half = grid.n // 2 + 1 if width is None else width
    mirror = coeffs[np.ix_(*[neg] * (grid.dim - 1), neg[:half])]
    return 0.5 * (coeffs[..., :half] + np.conj(mirror))


def transform(f: RealField) -> SpectralField:
    """Unnormalized forward FFT onto the half spectrum; the one producer of
    the public ``SpectralField``, which no solver path builds."""
    return SpectralField(f.grid, fft_array(f.grid, f.values))


def lp_norms(grid: Grid, samples: np.ndarray, p: float):
    """Discrete L^p norms over the last ``grid.dim`` axes of a stack of grid
    samples; leading axes are kept. p may be math.inf.

    At large p, |x|^p underflows (max |x| < 1) or overflows (> 1). A row
    whose sum of |x|^p dV is 0, subnormal or not finite, and whose peak
    |x| is positive and finite, takes the max-scaled form
    peak * (sum (|x|/peak)^p dV)^(1/p); every other row keeps the plain
    form bit for bit.
    """
    if p < 1:
        raise DomainError(f"L^p norm requires p >= 1, got {p}")
    axes = tuple(range(-grid.dim, 0))
    mags = np.abs(samples)
    if p == math.inf:
        return np.max(mags, axis=axes)
    with np.errstate(over="ignore"):
        np.power(mags, p, out=mags)
        sums = np.sum(mags, axis=axes) * grid.cell_volume
    norms = sums ** (1.0 / p)
    redo = ~((sums >= _TINY) & (sums < math.inf))
    if not np.any(redo):
        return norms
    norms = np.array(norms)
    rows = np.abs(samples[redo])
    peak = np.max(rows, axis=axes, keepdims=True)
    with np.errstate(invalid="ignore", divide="ignore"):
        scaled = np.sum((rows / peak) ** p, axis=axes) * grid.cell_volume
        peak = peak.reshape(scaled.shape)
        norms[redo] = np.where((peak > 0) & (peak < math.inf),
                               peak * scaled ** (1.0 / p), norms[redo])
    return norms[()]
