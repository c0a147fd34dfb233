import math

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
        dict(delta=0.0), dict(delta=1.0),
    ])
    def test_invalid_numbers(self, kw):
        with pytest.raises(ConfigurationError):
            Preset("smooth_bump", **kw)

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
