import math
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import full_layout, seam_counter

import capns
from capns.diagnostics import DiagnosticsAccumulator
from capns.errors import ConfigurationError, DomainError
from capns.fields import (
    Grid,
    RealField,
    SpectralField,
    _ifft_owned,
    dealias_values,
    fft_array,
    fft_stage,
    grad_arrays,
    ifft_array,
    ifft_stage,
    lp_norms,
    transform,
)
from capns.lp_besov import _block_multipliers
from capns.model import PhysParams, _line, to_effective
from capns.presets import Preset, build
from capns.solver import PicardConfig, SolverConfig, picard_solve, run

TAU = 2.0 * math.pi


def random_field(grid, seed=0, bandlimit=None):
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(grid.shape)
    f = RealField(grid, vals)
    if bandlimit is not None:
        coeffs = np.fft.fftn(vals)
        coeffs[full_layout(grid)[2] > bandlimit] = 0.0
        f = RealField(grid, np.fft.ifftn(coeffs).real)
    return f


class TestGrid:
    def test_wavenumbers_are_scaled_integers(self):
        g = Grid(1, 16, length=TAU / 2)
        scale = TAU / g.length
        (k,) = g.half_k
        ints = np.round(k / scale)
        assert np.allclose(k, ints * scale, atol=0)
        assert k.shape == g.half_shape == (g.n // 2 + 1,)
        assert k[0] == 0.0
        assert k[1] == pytest.approx(scale)
        assert k[g.n // 2] == pytest.approx(8 * scale)

    def test_cell_volume(self):
        g = Grid(2, 8, length=1.0)
        assert g.cell_volume == pytest.approx((1.0 / 8) ** 2)

    @pytest.mark.parametrize("dim,n,length", [(3, 8, TAU), (1, 12, TAU), (1, 4, TAU), (1, 8, -1.0),
                                              (2.0, 8, TAU), (1, 16.0, TAU), (1, 8, True)])
    def test_invalid_grid_rejected(self, dim, n, length):
        with pytest.raises(ConfigurationError):
            Grid(dim, n, length)

    def test_grid_equality_on_parameters(self):
        assert Grid(1, 16) == Grid(1, 16)
        assert Grid(1, 16) != Grid(1, 32)

    @pytest.mark.parametrize("n,length", [(16, TAU), (64, 1.0)])
    def test_cached_multipliers_are_the_products(self, n, length):
        # the 1-D tendencies keep the mask, i k mask and a i k per
        # (grid, params), bit for bit the products the 2-D bodies form per
        # use, and the primitive momentum's folded multipliers: mu d_x div u,
        # then kappa d_x lap ln r - a d_x ln r (away from gamma = 1 the
        # pressure is a grid product) and the gradient of kappa/2 |d_x ln r|^2,
        # each truncated, with -mu |k|^2 inside the mask; all are complex, so
        # that no product with a spectrum casts
        g = Grid(1, n, length)
        (ik,) = g.half_ik
        mask, k2 = g.half_mask, g.half_k2
        for gamma in (1.0, 1.4):
            p = PhysParams(mu=0.15, kappa=0.04, a=0.9, gamma=gamma)
            m = _line(g, p)
            linear_pressure = p.a * ik if gamma == 1.0 else 0.0
            visc = np.where(mask == 1.0, -p.mu * k2, p.mu * k2)
            for cached, product in (
                    (m.mask, mask.astype(complex)), (m.ik_mask, ik * mask),
                    (m.a_ik, p.a * ik), (m.visc, visc.astype(complex)),
                    (m.cap, mask * (p.kappa * ik * ik * ik - linear_pressure)),
                    (m.sq_ik, 0.5 * p.kappa * (ik * mask))):
                assert cached.dtype == np.complex128
                assert np.array_equal(cached.view(np.int64), product.view(np.int64))
            # the coefficients are 0-d float64 arrays of the same values
            for coef, value in ((m.mu, p.mu), (m.two_mu, 2.0 * p.mu)):
                assert coef.shape == () and coef.dtype == np.float64 and coef == value
            assert _line(Grid(1, n, length), PhysParams(mu=0.15, kappa=0.04, a=0.9,
                                                        gamma=gamma)) is m


class TestTransforms:
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)])
    def test_round_trip(self, dim, n):
        f = random_field(Grid(dim, n), seed=3)
        back = ifft_array(f.grid, transform(f).coeffs)
        err = np.max(np.abs(back - f.values)) / np.max(np.abs(f.values))
        assert err < 1e-12

    def test_sine_single_conjugate_pair(self):
        g = Grid(1, 64)
        f = RealField(g, np.sin(g.x[0]))
        coeffs = transform(f).coeffs
        # unnormalized forward: sin(x) = (e^{ix} - e^{-ix})/2i, and the half
        # spectrum holds the pair once, as -i n/2 at k = 1
        assert coeffs[1] == pytest.approx(-32.0j, rel=1e-12)
        rest = np.delete(coeffs, 1)
        assert np.max(np.abs(rest)) < 1e-10

    def test_hermitian_symmetry_of_real_data(self):
        # the k = 0 and Nyquist columns of the last axis hold their own
        # conjugate pairs along the first axis
        g = Grid(2, 32)
        coeffs = transform(random_field(g, seed=1)).coeffs
        for col in (0, g.n // 2):
            for k in range(g.n):
                assert coeffs[-k, col] == pytest.approx(np.conj(coeffs[k, col]), rel=1e-12)

    def test_spectral_field_holds_half_spectrum(self):
        g = Grid(2, 16)
        assert SpectralField(g, np.zeros(g.half_shape)).coeffs.shape == (16, 9)
        with pytest.raises(DomainError):
            SpectralField(g, np.zeros(g.shape))

    def test_nonfinite_values_rejected(self):
        g = Grid(1, 8)
        vals = np.zeros(8)
        vals[3] = np.inf
        with pytest.raises(DomainError):
            RealField(g, vals)


class TestDerivatives:
    def test_grad_sine_exact(self):
        g = Grid(1, 64)
        (gx,) = grad_arrays(g, fft_array(g, np.sin(g.x[0])))
        assert np.max(np.abs(gx - np.cos(g.x[0]))) < 1e-12

    def test_grad_2d_product_harmonic(self):
        g = Grid(2, 32)
        x, y = g.x
        gx, gy = grad_arrays(g, fft_array(g, np.sin(x) * np.cos(y)))
        assert np.max(np.abs(gx - np.cos(x) * np.cos(y))) < 1e-12
        assert np.max(np.abs(gy + np.sin(x) * np.sin(y))) < 1e-12

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)])
    def test_div_grad_is_laplacian_on_bandlimited(self, dim, n):
        # the divergence multiplies by half_ik, whose Nyquist entries are
        # zero, and the Laplacian by -half_k2, which keeps them
        g = Grid(dim, n)
        f = dealias_values(g, random_field(g, seed=5).values)
        fhat = fft_array(g, f)
        grads = grad_arrays(g, fhat)
        lhs = ifft_array(g, sum(ik * fft_array(g, c) for ik, c in zip(g.half_ik, grads)))
        rhs = ifft_array(g, -g.half_k2 * fhat)
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-12

    def test_laplacian_of_analytic_nonpolynomial(self):
        sympy = pytest.importorskip("sympy")
        g = Grid(1, 128)
        xs = sympy.symbols("x")
        expr = sympy.exp(sympy.cos(xs))
        f = sympy.lambdify(xs, expr, "numpy")(g.x[0])
        oracle = sympy.lambdify(xs, sympy.diff(expr, xs, 2), "numpy")(g.x[0])
        assert np.max(np.abs(ifft_array(g, -g.half_k2 * fft_array(g, f)) - oracle)) < 1e-8

    def test_length_scaling_of_derivatives(self):
        g = Grid(1, 64, length=1.0)
        (gx,) = grad_arrays(g, fft_array(g, np.sin(TAU * g.x[0])))
        assert np.max(np.abs(gx - TAU * np.cos(TAU * g.x[0]))) < 1e-10


class TestDealias:
    def test_idempotent(self):
        g = Grid(1, 64)
        once = dealias_values(g, random_field(g, seed=9).values)
        # a second truncation only adds eps-level transform noise
        again = dealias_values(g, once)
        assert np.max(np.abs(once - again)) < 1e-14 * np.max(np.abs(once))

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
    def test_exact_mode_count_zeroed(self, dim, n):
        g = Grid(dim, n)
        f = random_field(g, seed=11)
        coeffs = np.fft.fftn(dealias_values(g, f.values))
        kept_per_axis = 2 * (n // 3) + 1
        expected_zeroed = n ** dim - kept_per_axis ** dim
        n_zeroed = int(np.sum(np.abs(coeffs) < 1e-9))
        assert n_zeroed == expected_zeroed

    def test_spectral_dealias_matches_mask(self):
        # the half spectrum of the truncation is the mask times the original
        g = Grid(1, 32)
        f = random_field(g, seed=2).values
        before = fft_array(g, f)
        after = fft_array(g, dealias_values(g, f))
        keep = g.half_mask == 1.0
        scale = np.max(np.abs(before))
        assert np.max(np.abs(after[~keep])) < 1e-14 * scale
        assert np.max(np.abs(after[keep] - before[keep])) < 1e-14 * scale


class TestNormsAndMismatch:
    def test_integrate_constant(self):
        g = Grid(2, 16, length=3.0)
        assert g.integrate(np.full(g.shape, 2.0)) == pytest.approx(2.0 * 9.0)

    def test_lp_norm_of_sine(self):
        g = Grid(1, 256)
        f = RealField(g, np.sin(g.x[0]))
        assert lp_norms(g, f.values, 2) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert lp_norms(g, f.values, math.inf) == pytest.approx(1.0, rel=1e-10)
        with pytest.raises(DomainError):
            lp_norms(g, f.values, 0.5)


def _plain_lp(grid, values, p):
    """The L^p norm as it reads without rescaling."""
    axes = tuple(range(-grid.dim, 0))
    return (np.sum(np.power(np.abs(values), p), axis=axes) * grid.cell_volume) ** (1.0 / p)


def _scaled_lp(grid, values, p):
    """The max-scaled form peak * (sum (|x|/peak)^p dV)^(1/p), row by row."""
    rows = np.abs(values).reshape((-1,) + grid.shape)
    out = [float(r.max()) * float(np.sum((r / r.max()) ** p) * grid.cell_volume) ** (1.0 / p)
           for r in rows]
    return np.array(out).reshape(values.shape[:values.ndim - grid.dim])


def _preset_fields(grid):
    params = PhysParams(mu=0.15, kappa=0.0225)
    states = [build(Preset("smooth_bump", amplitude=0.05), grid, params),
              build(Preset("random_bandlimited", amplitude=0.05, seed=4), grid, params)]
    return [f.values for s in states for f in (s.rho, *s.u)]


class TestLargeExponentNorms:
    @pytest.mark.parametrize("p", [150, 300, 1e3])
    @pytest.mark.parametrize("scale", [0.05, 1.0, 20.0, 1e3])
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 16), (2, 32)])
    def test_matches_scaled_reference(self, dim, n, scale, p):
        # |x|^p under- or overflows here unless the rows are rescaled
        g = Grid(dim, n)
        values = scale * (1.0 + 0.5 * random_field(g, seed=3).values)
        stack = np.stack([values, -values[::-1], np.full(g.shape, scale)])
        got = lp_norms(g, stack, p)
        want = _scaled_lp(g, stack, p)
        assert np.all(np.isfinite(got)) and np.all(got > 0)
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
        assert lp_norms(g, values, p) == pytest.approx(want[0], rel=1e-12, abs=0)

    def test_constant_field_at_large_p(self):
        # the true value is 20 * (2 pi)^(1/250) = 20.147...; the plain sum overflows
        g = Grid(1, 64)
        assert lp_norms(g, np.full(g.shape, 20.0), 250) \
            == pytest.approx(20.0 * TAU ** (1.0 / 250), rel=1e-12)

    def test_rescaled_rows_only(self):
        # a row the plain sum handles keeps its plain value; zeros stay 0,
        # and a non-finite sample keeps the plain, non-finite value
        g = Grid(1, 32)
        inf_row = np.ones(g.shape)
        inf_row[3] = math.inf
        nan_row = np.ones(g.shape)
        nan_row[5] = math.nan
        stack = np.stack([np.full(g.shape, 1.5), np.full(g.shape, 0.05), np.zeros(g.shape),
                          inf_row, nan_row])
        got = lp_norms(g, stack, 200)
        assert got[0] == _plain_lp(g, stack[0], 200)
        assert got[1] == pytest.approx(0.05 * TAU ** (1.0 / 200), rel=1e-12)
        assert got[2] == 0.0
        assert got[3] == math.inf
        assert math.isnan(got[4])

    @pytest.mark.parametrize("p", [1, 2, 3, 10.0 / 3.0, 4])
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)])
    def test_moderate_p_bit_identical(self, dim, n, p):
        g = Grid(dim, n)
        fields = _preset_fields(g)
        for values in fields:
            assert lp_norms(g, values, p) == _plain_lp(g, values, p)
        stack = np.stack(fields)
        assert lp_norms(g, stack, p).tobytes() == _plain_lp(g, stack, p).tobytes()


NARROW_GRIDS = [(dim, n, length) for dim in (1, 2) for n in (8, 16, 32, 64, 128, 256, 512)
                for length in (TAU, 1.0, 10.0)]


def _full_inverse(grid, coeffs):
    """numpy's inverse of a spectrum zero-padded to the full half width."""
    full = np.zeros(coeffs.shape[:-1] + grid.half_shape[-1:], dtype=complex)
    full[..., :coeffs.shape[-1]] = coeffs
    return np.fft.irfft(full) if grid.dim == 1 else np.fft.irfft2(full)


class TestNarrowedSpectra:
    @pytest.mark.parametrize("dim,n,length", NARROW_GRIDS)
    def test_mask_is_zero_beyond_its_columns(self, dim, n, length):
        g = Grid(dim, n, length)
        m = g.half_mask_columns
        assert np.all(g.half_mask[..., m:] == 0)
        assert np.any(g.half_mask[..., m - 1] != 0)

    @pytest.mark.parametrize("dim,n", [(1, 8), (1, 64), (2, 8), (2, 32)])
    def test_narrowed_inverse_equals_zero_padded(self, dim, n):
        g = Grid(dim, n)
        rng = np.random.default_rng(7)
        shape = (2, 3) + g.half_shape
        coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for m in sorted({1, 2, n // 4, g.half_shape[-1]}):
            narrowed = coeffs[..., :m]
            for c in (narrowed, narrowed[1, 2]):
                assert ifft_array(g, c).tobytes() == _full_inverse(g, c).tobytes()

    @pytest.mark.parametrize("dim,n", [(1, 8), (1, 64), (2, 8), (2, 32), (2, 64)])
    def test_dealias_equals_full_width_oracle(self, dim, n):
        g = Grid(dim, n)
        values = np.stack([random_field(g, seed=s).values for s in (1, 2)])
        rfft, irfft = (np.fft.rfft, np.fft.irfft) if dim == 1 else (np.fft.rfft2, np.fft.irfft2)
        for v in (values, values[0]):
            want = irfft(g.half_mask * rfft(v))
            assert dealias_values(g, v).tobytes() == want.tobytes()


def _column_extents(grid):
    """The full half width, the 2/3 mask's column extent and that of each
    block and low-pass multiplier of the dyadic engine."""
    mults = [*_block_multipliers(grid)[1], *_block_multipliers(grid, low_pass=True)[1]]
    return sorted({grid.half_shape[-1], grid.half_mask_columns, *(m.shape[-1] for m in mults)})


class TestTwoDimensionalTransforms:
    """2-D forwards write both passes into one ``out=`` array, and the
    inverse of a spectrum built for it runs the passes of ``irfft2`` in
    place in it: bit-identical to numpy's ``rfft2``/``irfft2`` on single
    arrays and stacks, at full width and narrowed, and so is the
    truncation, whose inverse is narrowed to the mask's columns."""

    @pytest.mark.parametrize("lead", [(), (33,), (2, 33)], ids=["single", "33", "2x33"])
    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
    def test_bit_identical_to_numpy(self, n, lead):
        g = Grid(2, n)
        values = np.random.default_rng(n).standard_normal(lead + g.shape)
        fhat = fft_array(g, values)
        assert fhat.tobytes() == np.fft.rfft2(values).tobytes()
        (staged,) = fft_stage(g, [values])
        assert staged.tobytes() == fhat.tobytes()
        del values, staged
        for m in _column_extents(g):
            kept = fhat[..., :m].copy()
            want = np.fft.irfft2(kept, s=g.shape).tobytes()
            assert ifft_array(g, kept).tobytes() == want
            assert kept.tobytes() == fhat[..., :m].tobytes()
            assert _ifft_owned(g, kept.copy()).tobytes() == want
            (staged,) = ifft_stage(g, [kept])
            assert staged.tobytes() == want

    @pytest.mark.parametrize("lead", [(), (33,)], ids=["single", "33"])
    @pytest.mark.parametrize("n", [16, 32, 64, 128, 256])
    def test_dealias_equals_full_width_forward(self, n, lead):
        # numpy's full-width round trip, rfft2 -> mask -> irfft2, gives the
        # truncation's bytes on the stacks of a Picard iterate too
        g = Grid(2, n)
        values = np.random.default_rng(n).standard_normal(lead + g.shape)
        want = np.fft.irfft2(g.half_mask * np.fft.rfft2(values))
        assert dealias_values(g, values).tobytes() == want.tobytes()


class TestLineTransforms:
    """Every 1-D ``rfft``/``irfft`` writes into an ``out=`` array of its
    result's shape, without numpy's own ``empty_like``: bit-identical to
    ``rfft``/``irfft(c, n)`` on single rows and stacks, at full width and
    narrowed."""

    @pytest.mark.parametrize("lead", [(), (1,), (3,), (8, 2)], ids=["single", "1", "3", "8x2"])
    @pytest.mark.parametrize("n", [8, 64, 128, 1024])
    def test_bit_identical_to_numpy(self, n, lead):
        g = Grid(1, n)
        values = np.random.default_rng(n).standard_normal(lead + g.shape)
        fhat = fft_array(g, values)
        assert fhat.tobytes() == np.fft.rfft(values).tobytes()
        assert fft_stage(g, values).tobytes() == fhat.tobytes()
        if not lead:
            (staged,) = fft_stage(g, [values])
            assert staged.tobytes() == fhat.tobytes()
        for m in _column_extents(g):
            kept = fhat[..., :m].copy()
            want = np.fft.irfft(kept, n).tobytes()
            for inverse in (ifft_array, _ifft_owned, ifft_stage):
                assert inverse(g, kept).tobytes() == want
                assert kept.tobytes() == fhat[..., :m].tobytes()

    def test_every_call_writes_into_out(self, monkeypatch):
        calls = seam_counter(monkeypatch)  # checks each call's out= as it comes
        g = Grid(1, 64)
        p = PhysParams(mu=0.15, kappa=0.0225)
        state = build(Preset("smooth_bump", amplitude=0.1), g, p)
        for form in ("primitive", "effective"):
            initial = state if form == "primitive" else to_effective(state, p)
            run(initial, p, SolverConfig(dt=1e-3, t_end=2e-3, formulation=form),
                diag_fn=DiagnosticsAccumulator(p) if form == "primitive" else None)
        eff = to_effective(state, p)
        picard_solve(eff.q, eff.v, p, 0.5, PicardConfig(n_steps=8, max_iters=2, tol=1e-30))
        f = random_field(g, seed=1)
        ifft_array(g, fft_array(g, f.values))
        grad_arrays(g, transform(f).coeffs)
        dealias_values(g, f.values)
        assert calls[0] > 0 and calls[2] is None


def test_only_fields_module_calls_numpy_fft():
    # one spectral layer: every transform goes through capns/fields.py
    pattern = re.compile(r"\bnp\.fft\b|\bnumpy\.fft\b|from\s+numpy\s+import\s+fft\b")
    src = Path(capns.__file__).parent
    offenders = [f"{path.name}:{i}"
                 for path in sorted(src.glob("*.py")) if path.name != "fields.py"
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if pattern.search(line)]
    assert offenders == []
