"""Initial-condition families for runs and verification suites.

All presets build a primitive state (density, velocity) on the torus; the
caller converts to the effective formulation when needed. Every density is
validated strictly positive by construction of PrimitiveState.

The trigonometric presets are functions of the phase 2*pi*x/L, which is
2*pi*k/n at grid point k on a torus of any length L: they give the same
samples, periodic, on every length, and those of ``Grid.x`` at L = 2*pi.
Each factor is evaluated on one n-vector per axis, broadcast over the grid.

``random_bandlimited`` draws a full complex spectrum per field and keeps
its band: only the last-axis columns of the band are folded onto the half
spectrum and inverted (a narrowed spectrum), which gives the same field,
bit for bit, as the whole half spectrum with the rest zeroed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, finite_number
from .fields import TAU, Grid, RealField, column_extent, hermitian_half, ifft_array
from .model import PhysParams, PrimitiveState

PRESET_NAMES = ("equilibrium", "smooth_bump", "near_vacuum",
                "random_bandlimited", "manufactured")


@dataclass(frozen=True)
class Preset:
    name: str
    amplitude: float = 0.1
    seed: int = 0
    delta: float = 0.1

    def __post_init__(self):
        if self.name not in PRESET_NAMES:
            raise ConfigurationError(
                f"unknown preset {self.name!r}; choose from {PRESET_NAMES}")
        if not (finite_number(self.amplitude) and self.amplitude >= 0):
            raise ConfigurationError(
                f"amplitude must be finite and >= 0, got {self.amplitude}")
        # these densities reach zero or below somewhere at amplitude >= 1
        if self.name in ("random_bandlimited", "manufactured") and self.amplitude >= 1.0:
            raise ConfigurationError(
                f"{self.name} needs amplitude < 1 for positivity, got {self.amplitude}")
        if not (type(self.seed) is int and self.seed >= 0):
            raise ConfigurationError(
                f"seed must be a non-negative integer, got {self.seed}")
        if not (0.0 < self.delta < 1.0):
            raise ConfigurationError(
                f"delta must lie in (0, 1), got {self.delta}")


def _phases(grid: Grid) -> tuple:
    """The phase 2*pi*k/n of each axis, shaped to broadcast over the grid."""
    theta = np.arange(grid.n) * (TAU / grid.n)
    return (theta,) if grid.dim == 1 else (theta[:, None], theta[None, :])


def _mean_zero_bump(grid: Grid) -> np.ndarray:
    # smooth, sign-definite before centering; grid mean removed exactly
    profile = np.exp(sum(np.cos(th) for th in _phases(grid)) - grid.dim)
    return profile - profile.mean()


def _velocity_profile(grid: Grid, amplitude: float):
    phases = _phases(grid)
    comps = []
    for i in range(grid.dim):
        vals = amplitude * np.sin(phases[i])
        if grid.dim > 1:
            vals = vals * np.cos(phases[(i + 1) % grid.dim])
        comps.append(RealField(grid, vals))
    return tuple(comps)


def _bandlimited_noise(grid: Grid, rng, band: int) -> np.ndarray:
    """Mean-free random field with modes |k_i| <= band (in units of
    2*pi/length), dealiased and scaled to a peak of 1."""
    scale = 2.0 * np.pi / grid.length
    keep = grid.half_mask.astype(bool)
    for kk in grid.half_k:
        keep &= np.abs(kk) <= band * scale
    # the draw is not Hermitian: the field is the real part of its inverse,
    # and only the columns of the band are assembled and inverted
    m = column_extent(keep)
    coeffs = hermitian_half(grid, rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape),
                            width=m)
    coeffs[~keep[..., :m]] = 0.0
    coeffs[tuple([0] * grid.dim)] = 0.0
    vals = ifft_array(grid, coeffs)
    peak = np.max(np.abs(vals))
    return vals / peak if peak > 0 else vals


def build(preset: Preset, grid: Grid, params: PhysParams) -> PrimitiveState:
    """Construct the primitive initial state for a named scenario."""
    rb = params.rho_bar
    amp = preset.amplitude

    if preset.name == "equilibrium":
        zeros = tuple(RealField(grid, np.zeros(grid.shape)) for _ in range(grid.dim))
        return PrimitiveState(RealField(grid, np.full(grid.shape, rb)), zeros)

    if preset.name == "smooth_bump":
        bump = _mean_zero_bump(grid)
        peak = np.max(np.abs(bump))
        # rho > 0 needs amplitude < peak/|min| of the centred bump, which
        # depends on the grid (1.6168 in 1-D, 3.9426 in 2-D)
        bound = peak / -np.min(bump)
        if amp >= bound:
            raise ConfigurationError(
                f"smooth_bump needs amplitude < {bound:.5g} for positivity on a "
                f"dim-{grid.dim} grid, got {amp}")
        rho = rb * (1.0 + amp * bump / peak)
        return PrimitiveState(RealField(grid, rho), _velocity_profile(grid, amp))

    if preset.name == "near_vacuum":
        # min over the grid is exactly rho_bar * delta (cos hits -1 at phase pi)
        shape = 1.0
        for th in _phases(grid):
            shape = shape * (1.0 + np.cos(th)) / 2.0
        rho = rb * (preset.delta + (1.0 - preset.delta) * shape)
        return PrimitiveState(RealField(grid, rho), _velocity_profile(grid, amp))

    if preset.name == "random_bandlimited":
        rng = np.random.default_rng(preset.seed)
        band = max(2, grid.n // 6)
        noise = _bandlimited_noise(grid, rng, band)
        rho = rb * (1.0 + amp * noise)
        u = tuple(RealField(grid, amp * _bandlimited_noise(grid, rng, band))
                  for _ in range(grid.dim))
        return PrimitiveState(RealField(grid, rho), u)

    # manufactured: squared profile so sqrt(rho) is a single mode
    rho = rb * (1.0 + amp * np.cos(_phases(grid)[0])) ** 2
    rho = np.broadcast_to(rho, grid.shape).copy()
    return PrimitiveState(RealField(grid, rho), _velocity_profile(grid, amp))
