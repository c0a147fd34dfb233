"""Initial-condition families for runs and verification suites.

All presets build a primitive state (density, velocity) on the torus; the
caller converts to the effective formulation when needed. Every density is
validated strictly positive by construction of PrimitiveState.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .fields import Grid, RealField, dealias_values, ifft_array
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
        if not (np.isfinite(self.amplitude) and self.amplitude >= 0):
            raise ConfigurationError(
                f"amplitude must be finite and >= 0, got {self.amplitude}")
        if not (0.0 < self.delta < 1.0):
            raise ConfigurationError(
                f"delta must lie in (0, 1), got {self.delta}")


def _mean_zero_bump(grid: Grid) -> np.ndarray:
    # smooth, sign-definite before centering; grid mean removed exactly
    profile = np.exp(sum(np.cos(grid.x[i]) for i in range(grid.dim)) - grid.dim)
    return profile - profile.mean()


def _velocity_profile(grid: Grid, amplitude: float):
    comps = []
    for i in range(grid.dim):
        other = grid.x[(i + 1) % grid.dim]
        vals = amplitude * np.sin(grid.x[i])
        if grid.dim > 1:
            vals = vals * np.cos(other)
        comps.append(RealField(grid, vals))
    return tuple(comps)


def _bandlimited_noise(grid: Grid, rng, band: int) -> np.ndarray:
    """Mean-free random field with modes |k_i| <= band (in units of
    2*pi/length), dealiased and scaled to a peak of 1."""
    coeffs = np.zeros(grid.shape, dtype=complex)
    coeffs[tuple([0] * grid.dim)] = 0.0
    spectrum = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    scale = 2.0 * np.pi / grid.length
    keep = np.ones(grid.shape, dtype=bool)
    for i in range(grid.dim):
        keep &= np.abs(grid.k[i]) <= band * scale
    coeffs[keep] = spectrum[keep]
    coeffs[tuple([0] * grid.dim)] = 0.0
    vals = ifft_array(coeffs)
    vals = dealias_values(grid, vals)
    peak = np.max(np.abs(vals))
    return vals / peak if peak > 0 else vals


def build(preset: Preset, grid: Grid, params: PhysParams) -> PrimitiveState:
    """Construct the primitive initial state for a named scenario."""
    rb = params.rho_bar
    amp = preset.amplitude
    zeros = tuple(RealField(grid, np.zeros(grid.shape)) for _ in range(grid.dim))

    if preset.name == "equilibrium":
        return PrimitiveState(RealField(grid, np.full(grid.shape, rb)), zeros)

    if preset.name == "smooth_bump":
        bump = _mean_zero_bump(grid)
        peak = np.max(np.abs(bump))
        rho = rb * (1.0 + amp * bump / peak)
        return PrimitiveState(RealField(grid, rho), _velocity_profile(grid, amp))

    if preset.name == "near_vacuum":
        # min over the grid is exactly rho_bar * delta (cos hits -1 at x = pi)
        shape = np.ones(grid.shape)
        for i in range(grid.dim):
            shape = shape * (1.0 + np.cos(grid.x[i])) / 2.0
        rho = rb * (preset.delta + (1.0 - preset.delta) * shape)
        return PrimitiveState(RealField(grid, rho), _velocity_profile(grid, amp))

    if preset.name == "random_bandlimited":
        rng = np.random.default_rng(preset.seed)
        band = max(2, grid.n // 6)
        noise = _bandlimited_noise(grid, rng, band)
        if amp >= 1.0:
            raise ConfigurationError(
                f"random_bandlimited needs amplitude < 1 for positivity, got {amp}")
        rho = rb * (1.0 + amp * noise)
        u = tuple(RealField(grid, amp * _bandlimited_noise(grid, rng, band))
                  for _ in range(grid.dim))
        return PrimitiveState(RealField(grid, rho), u)

    # manufactured: squared profile so sqrt(rho) is a single mode
    rho = rb * (1.0 + amp * np.cos(grid.x[0])) ** 2
    if amp >= 1.0:
        raise ConfigurationError(
            f"manufactured needs amplitude < 1 for positivity, got {amp}")
    return PrimitiveState(RealField(grid, rho), _velocity_profile(grid, amp))
