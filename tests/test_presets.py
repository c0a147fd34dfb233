import math
import tracemalloc

import numpy as np
import pytest

from capns.errors import ConfigurationError
from capns.fields import Grid
from capns.model import PhysParams
from capns.presets import PRESET_NAMES, Preset, build

PARAMS = PhysParams(mu=0.15, kappa=0.0225, a=1.0, rho_bar=1.2)


class TestPresetValidation:
    def test_unknown_name(self):
        with pytest.raises(ConfigurationError):
            Preset("gaussian")

    @pytest.mark.parametrize("kw", [
        dict(amplitude=-0.1), dict(amplitude=math.inf),
        dict(delta=0.0), dict(delta=1.0), dict(amplitude=False),
    ])
    def test_invalid_numbers(self, kw):
        with pytest.raises(ConfigurationError):
            Preset("smooth_bump", **kw)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", True])
    def test_seed_must_be_non_negative_integer(self, seed):
        # numpy's default_rng raises a ValueError of its own at build time
        Preset("random_bandlimited", seed=0)
        with pytest.raises(ConfigurationError, match="seed must be a non-negative integer"):
            Preset("random_bandlimited", seed=seed)

    @pytest.mark.parametrize("name", ["random_bandlimited", "manufactured"])
    def test_amplitude_cap(self, name):
        Preset(name, amplitude=0.99)
        with pytest.raises(ConfigurationError, match=f"{name} needs amplitude < 1"):
            Preset(name, amplitude=1.0)


class TestBuild:
    @pytest.mark.parametrize("name", PRESET_NAMES)
    @pytest.mark.parametrize("dim", [1, 2])
    def test_all_presets_positive(self, name, dim):
        g = Grid(dim=dim, n=32)
        s = build(Preset(name, amplitude=0.2, delta=0.3), g, PARAMS)
        assert s.grid is g
        assert np.min(s.rho.values) > 0
        assert len(s.u) == dim

    def test_equilibrium(self):
        g = Grid(dim=1, n=64)
        s = build(Preset("equilibrium"), g, PARAMS)
        assert np.all(s.rho.values == 1.2)
        assert all(np.all(c.values == 0.0) for c in s.u)

    def test_smooth_bump_mass_exact(self):
        for dim in (1, 2):
            g = Grid(dim=dim, n=32)
            s = build(Preset("smooth_bump", amplitude=0.3), g, PARAMS)
            want = 1.2 * (2.0 * math.pi) ** dim
            assert abs(g.integrate(s.rho.values) - want) < 1e-12 * want

    @pytest.mark.parametrize("dim", [1, 2])
    def test_near_vacuum_floor_exact(self, dim):
        g = Grid(dim=dim, n=64)
        s = build(Preset("near_vacuum", delta=0.05), g, PARAMS)
        assert abs(np.min(s.rho.values) - 1.2 * 0.05) < 1e-14
        assert np.max(s.rho.values) <= 1.2 + 1e-12

    def test_random_bandlimited_deterministic(self):
        g = Grid(dim=1, n=128)
        a = build(Preset("random_bandlimited", amplitude=0.4, seed=9), g, PARAMS)
        b = build(Preset("random_bandlimited", amplitude=0.4, seed=9), g, PARAMS)
        c = build(Preset("random_bandlimited", amplitude=0.4, seed=10), g, PARAMS)
        assert np.array_equal(a.rho.values, b.rho.values)
        assert not np.array_equal(a.rho.values, c.rho.values)

    def test_random_bandlimited_spectrum_confined(self):
        g = Grid(dim=1, n=128)
        s = build(Preset("random_bandlimited", amplitude=0.4, seed=3), g, PARAMS)
        coeffs = np.fft.fft(s.rho.values - np.mean(s.rho.values))
        band = 128 // 6
        k_int = np.fft.fftfreq(128, d=1.0 / 128)
        outside = np.abs(coeffs[np.abs(k_int) > band])
        assert np.max(outside) < 1e-10 * np.max(np.abs(coeffs))

    def test_smooth_bump_amplitude_bound(self):
        # the bound peak/|min| of the centred bump is 1.6168 in 1-D, 3.9426 in 2-D
        with pytest.raises(ConfigurationError,
                           match=r"smooth_bump needs amplitude < 1\.6168 .* got 3"):
            build(Preset("smooth_bump", amplitude=3.0), Grid(dim=1, n=64), PARAMS)
        s = build(Preset("smooth_bump", amplitude=3.0), Grid(dim=2, n=32), PARAMS)
        assert np.min(s.rho.values) > 0
        with pytest.raises(ConfigurationError, match=r"amplitude < 3\.9426 "):
            build(Preset("smooth_bump", amplitude=4.0), Grid(dim=2, n=32), PARAMS)

    def test_random_bandlimited_amplitude_cap(self):
        g = Grid(dim=1, n=64)
        with pytest.raises(ConfigurationError):
            build(Preset("random_bandlimited", amplitude=1.0), g, PARAMS)

    def test_manufactured_closed_form(self):
        g = Grid(dim=1, n=64)
        s = build(Preset("manufactured", amplitude=0.2), g, PARAMS)
        x = g.x[0]
        assert np.allclose(s.rho.values, 1.2 * (1.0 + 0.2 * np.cos(x)) ** 2,
                           atol=1e-14)
        # sqrt(rho) is a single mode: spectrum beyond |k|=1 vanishes
        coeffs = np.fft.fft(np.sqrt(s.rho.values))
        k_int = np.fft.fftfreq(64, d=1.0 / 64)
        assert np.max(np.abs(coeffs[np.abs(k_int) > 1])) < 1e-10


TRIG_PRESETS = ("smooth_bump", "near_vacuum", "manufactured")


class TestTorusLength:
    """The trigonometric presets are functions of the phase 2 pi x / L, so
    every torus length gets the samples of L = 2 pi and periodic data; taken
    on the coordinates x, a length other than 2 pi cut them at the wrap."""

    @pytest.mark.parametrize("length", [math.pi, 1.0])
    @pytest.mark.parametrize("dim,n", [(1, 128), (2, 32)])
    @pytest.mark.parametrize("name", TRIG_PRESETS)
    def test_samples_of_two_pi_on_every_length(self, name, dim, n, length):
        preset = Preset(name, amplitude=0.3, delta=0.05)
        want = build(preset, Grid(dim, n), PARAMS)
        got = build(preset, Grid(dim, n, length), PARAMS)
        assert got.rho.values.tobytes() == want.rho.values.tobytes()
        assert len(got.u) == dim
        for a, b in zip(got.u, want.u):
            assert a.values.tobytes() == b.values.tobytes()

    @pytest.mark.parametrize("dim,n", [(1, 128), (2, 32)])
    def test_near_vacuum_floor_exact_on_unit_length(self, dim, n):
        # the phase pi is a grid point on every length, where cos is -1
        s = build(Preset("near_vacuum", delta=0.05), Grid(dim, n, 1.0), PARAMS)
        assert np.min(s.rho.values) == PARAMS.rho_bar * 0.05


class TestBuildWork:
    """A 2-D preset takes its sines and cosines on one phase vector per
    axis: the grid's coordinate meshgrid is never built."""

    @pytest.mark.parametrize("name", TRIG_PRESETS)
    def test_2d_build_leaves_no_meshgrid(self, name):
        g = Grid(2, 32)
        build(Preset(name, amplitude=0.3), g, PARAMS)
        assert "x" not in g.__dict__

    def test_2d_build_peak(self):
        # the traced peak of a 2-D n = 128 smooth_bump build, in grid arrays
        # of 128 KiB: 5.04; 8.01 when the factors were taken on the meshgrid
        g = Grid(2, 128)
        tracemalloc.start()
        try:
            s = build(Preset("smooth_bump", amplitude=0.3), g, PARAMS)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.min(s.rho.values) > 0
        assert peak <= 5.5 * 8 * g.n ** 2


def _full_width_noise(grid, rng, band):
    """Band-limited noise assembled and inverted over the whole half spectrum."""
    draw = rng.normal(size=grid.shape) + 1j * rng.normal(size=grid.shape)
    neg = -np.arange(grid.n) % grid.n
    half = grid.n // 2 + 1
    mirror = draw[np.ix_(*[neg] * (grid.dim - 1), neg[:half])]
    coeffs = 0.5 * (draw[..., :half] + np.conj(mirror))
    keep = grid.half_mask.astype(bool)
    for kk in grid.half_k:
        keep &= np.abs(kk) <= band * 2.0 * np.pi / grid.length
    coeffs[~keep] = 0.0
    coeffs[(0,) * grid.dim] = 0.0
    vals = np.fft.irfft(coeffs) if grid.dim == 1 else np.fft.irfft2(coeffs)
    return vals / np.max(np.abs(vals))


@pytest.mark.parametrize("dim,n", [(1, 64), (1, 128), (2, 32), (2, 256)])
def test_bandlimited_noise_equals_full_width_oracle(dim, n):
    # the preset assembles and inverts only its band's columns, bit for bit
    # the field of the whole half spectrum
    g = Grid(dim=dim, n=n)
    amp = 0.05
    for seed in range(5):
        s = build(Preset("random_bandlimited", amplitude=amp, seed=seed), g, PARAMS)
        rng = np.random.default_rng(seed)
        band = max(2, n // 6)
        rho = PARAMS.rho_bar * (1.0 + amp * _full_width_noise(g, rng, band))
        assert s.rho.values.tobytes() == rho.tobytes()
        for c in s.u:
            assert c.values.tobytes() == (amp * _full_width_noise(g, rng, band)).tobytes()
