import math
import re
from pathlib import Path

import numpy as np
import pytest
from conftest import full_layout

import capns
from capns.errors import ConfigurationError, DomainError
from capns.fields import (
    Grid,
    RealField,
    SpectralField,
    dealias_values,
    div_array,
    fft_array,
    grad_arrays,
    ifft_array,
    lap_array,
    lp_norm,
    transform,
)
from capns.model import _hessian_hats, _pairs

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

    @pytest.mark.parametrize("dim,n,length", [(3, 8, TAU), (1, 12, TAU), (1, 4, TAU), (1, 8, -1.0)])
    def test_invalid_grid_rejected(self, dim, n, length):
        with pytest.raises(ConfigurationError):
            Grid(dim, n, length)

    def test_grid_equality_on_parameters(self):
        assert Grid(1, 16) == Grid(1, 16)
        assert Grid(1, 16) != Grid(1, 32)


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
        g = Grid(dim, n)
        f = dealias_values(g, random_field(g, seed=5).values)
        fhat = fft_array(g, f)
        lhs = div_array(g, grad_arrays(g, fhat))
        rhs = lap_array(g, fhat)
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) / scale < 1e-12

    def test_hessian_symmetric_and_matches_symbolic(self):
        # the step's Hessian: entries i <= j, each matching both orders of
        # the symbolic mixed derivative
        sympy = pytest.importorskip("sympy")
        g = Grid(2, 32)
        x, y = g.x
        assert _pairs(2) == [(0, 0), (0, 1), (1, 1)]
        H = dict(zip(_pairs(2), (ifft_array(g, h) for h in
                                 _hessian_hats(g, fft_array(g, np.sin(x) * np.cos(y))))))
        xs, ys = sympy.symbols("x y")
        expr = sympy.sin(xs) * sympy.cos(ys)
        for i, si in enumerate((xs, ys)):
            for j, sj in enumerate((xs, ys)):
                oracle = sympy.lambdify((xs, ys), sympy.diff(expr, si, sj), "numpy")(x, y)
                oracle = np.broadcast_to(oracle, g.shape)
                assert np.max(np.abs(H[min(i, j), max(i, j)] - oracle)) < 1e-12

    def test_laplacian_of_analytic_nonpolynomial(self):
        sympy = pytest.importorskip("sympy")
        g = Grid(1, 128)
        xs = sympy.symbols("x")
        expr = sympy.exp(sympy.cos(xs))
        f = sympy.lambdify(xs, expr, "numpy")(g.x[0])
        oracle = sympy.lambdify(xs, sympy.diff(expr, xs, 2), "numpy")(g.x[0])
        assert np.max(np.abs(lap_array(g, fft_array(g, f)) - oracle)) < 1e-8

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
        assert lp_norm(f, 2) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
        assert lp_norm(f, math.inf) == pytest.approx(1.0, rel=1e-10)
        with pytest.raises(DomainError):
            lp_norm(f, 0.5)


def test_only_fields_module_calls_numpy_fft():
    # one spectral layer: every transform goes through capns/fields.py
    pattern = re.compile(r"\bnp\.fft\b|\bnumpy\.fft\b|from\s+numpy\s+import\s+fft\b")
    src = Path(capns.__file__).parent
    offenders = [f"{path.name}:{i}"
                 for path in sorted(src.glob("*.py")) if path.name != "fields.py"
                 for i, line in enumerate(path.read_text().splitlines(), 1)
                 if pattern.search(line)]
    assert offenders == []
