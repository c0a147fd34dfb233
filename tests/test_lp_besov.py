"""Dyadic decomposition and Besov machinery: partition exactness,
reconstruction, norms, paraproduct, diffusion decay bounds."""

import json
import math

import numpy as np
import pytest
from conftest import full_layout

from capns.errors import ConfigurationError, DomainError
from capns.fields import Grid, RealField, fft_array, grad_arrays, lp_norms
from capns.lp_besov import (
    ANNULUS_OUTER,
    PLATEAU,
    BesovSpec,
    BumpPair,
    _block_multipliers,
    _radial_blocks,
    block_norm_table,
    block_norms,
    block_range,
    block_report,
    besov_norm,
    bony_decompose,
    build_bumps,
    decompose,
    is_boundary_block,
    tilde_norm,
)
from capns.verify import heat_block_decay_check


@pytest.fixture(scope="module")
def bumps():
    return build_bumps()


def white_noise_field(grid, rng, amplitude=1.0):
    return RealField(grid, amplitude * rng.standard_normal(grid.shape))


def band_field(grid, rng, bandlimit, amplitude=1.0):
    coeffs = np.zeros(grid.shape, dtype=complex)
    mag = np.sqrt(sum(m.astype(float) ** 2 for m in full_layout(grid)[0]))
    mask = (mag > 0) & (mag <= bandlimit)
    coeffs[mask] = rng.standard_normal(int(mask.sum())) + 1j * rng.standard_normal(int(mask.sum()))
    vals = np.fft.ifftn(coeffs).real
    return RealField(grid, amplitude * vals / max(np.max(np.abs(vals)), 1e-300))


class TestBumps:
    @pytest.mark.parametrize("r,want", [(0.0, 1.0), (0.5, 1.0), (0.74, 1.0), (4 / 3, 0.0), (1.5, 0.0), (3.0, 0.0)])
    def test_chi_plateau_and_support(self, bumps, r, want):
        assert bumps.chi(r) == pytest.approx(want, abs=1e-15)

    def test_chi_monotone(self, bumps):
        assert np.all(np.diff(bumps.chi_samples) <= 1e-15)

    @pytest.mark.parametrize("r", [0.0, 0.5, 0.74, 2.7, 3.5])
    def test_phi_vanishes_off_annulus(self, bumps, r):
        assert abs(bumps.phi(r)) < 1e-15

    @pytest.mark.parametrize("r", [1.0, 1.4, 2.0])
    def test_phi_positive_inside(self, bumps, r):
        assert bumps.phi(r) > 0.1

    def test_partition_of_unity(self, bumps):
        rng = np.random.default_rng(42)
        xi = 10.0 ** rng.uniform(-3, 3, 200)
        total = sum(bumps.phi(xi / 2.0 ** l) for l in range(-20, 25))
        assert np.max(np.abs(total - 1.0)) < 1e-12


class TestDecompose:
    def test_constant_field(self):
        g = Grid(1, 64)
        d = decompose(RealField(g, np.full(g.shape, 2.5)))
        assert d.mean == pytest.approx(2.5, rel=1e-14)
        for b in d.blocks.values():
            assert np.max(np.abs(b.values)) < 1e-13

    def test_power_of_two_harmonic_spans_two_blocks(self):
        g = Grid(1, 64)
        d = decompose(RealField(g, np.sin(4 * g.x[0])))
        active = [l for l, b in d.blocks.items() if lp_norms(g, b.values, 2) > 1e-12]
        assert len(active) <= 2
        assert active  # not all filtered out

    def test_single_block_harmonic(self):
        # |k| = 6 satisfies 4/3 <= 6/2^2 <= 3/2, inside exactly one annulus
        g = Grid(1, 64)
        d = decompose(RealField(g, np.sin(6 * g.x[0])))
        active = [l for l, b in d.blocks.items() if lp_norms(g, b.values, 2) > 1e-12]
        assert active == [2]

    @pytest.mark.parametrize("dim,n", [(1, 128), (2, 64)])
    def test_reconstruction(self, dim, n):
        rng = np.random.default_rng(dim)
        g = Grid(dim, n)
        f = white_noise_field(g, rng)
        d = decompose(f)
        err = np.max(np.abs(d.reconstruct().values - f.values))
        assert err < 1e-10

    def test_block_spectrum_in_annulus(self):
        rng = np.random.default_rng(9)
        g = Grid(1, 128)
        f = white_noise_field(g, rng)
        d = decompose(f)
        kmag = full_layout(g)[2]
        for l, b in d.blocks.items():
            bhat = np.abs(np.fft.fftn(b.values))
            outside = (kmag < PLATEAU * 2.0 ** l - 1e-9) | (kmag > ANNULUS_OUTER * 2.0 ** l + 1e-9)
            assert np.max(bhat[outside], initial=0.0) < 1e-9 * max(np.max(bhat), 1.0)

    def test_near_orthogonality(self):
        rng = np.random.default_rng(3)
        g = Grid(1, 128)
        f = white_noise_field(g, rng)
        d = decompose(f)
        mid = (d.l_min + d.l_max) // 2
        again = decompose(d.blocks[mid])
        for m, b in again.blocks.items():
            if abs(m - mid) >= 2:
                assert np.max(np.abs(b.values)) < 1e-13

    def test_boundary_flags(self):
        g = Grid(1, 128)
        d = decompose(RealField(g, np.sin(g.x[0])))
        assert is_boundary_block(g, d.l_min)
        assert is_boundary_block(g, d.l_max)
        assert not is_boundary_block(g, (d.l_min + d.l_max) // 2)


NARROW_GRIDS = [(dim, n, length) for dim in (1, 2) for n in (8, 16, 32, 64, 128, 256, 512)
                for length in (2 * math.pi, 1.0, 10.0)]


def _full_multipliers(grid):
    """The block multipliers over the whole half spectrum."""
    _, table, index, _ = _radial_blocks(grid.dim, grid.n, grid.length)
    return [row[index] for row in table]


class TestNarrowedBlocks:
    @pytest.mark.parametrize("dim,n,length", NARROW_GRIDS)
    def test_multipliers_zero_beyond_their_columns(self, dim, n, length):
        g = Grid(dim, n, length)
        for low_pass in (False, True):
            _, table, index, widths = _radial_blocks(dim, n, length, low_pass)
            _, narrowed = _block_multipliers(g, low_pass)
            for row, m, mult in zip(table, widths, narrowed):
                full = row[index]
                assert np.all(full[..., m:] == 0)
                assert m == 1 or np.any(full[..., m - 1] != 0)
                assert np.array_equal(mult, full[..., :m])

    def test_column_extents_at_256(self):
        # blocks -1..4 of a 2-D n = 256 grid reach 2, 3, 6, 11, 22 and 43 of
        # the 129 last-axis columns
        ls, _, _, widths = _radial_blocks(2, 256, 2 * math.pi)
        assert dict(zip(ls, widths)) == {-1: 2, 0: 3, 1: 6, 2: 11, 3: 22, 4: 43,
                                          5: 86, 6: 129, 7: 129}

    @pytest.mark.parametrize("p", [1, 3, 10.0 / 3.0, math.inf])
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 32), (2, 64)])
    def test_block_norm_table_equals_full_width_oracle(self, dim, n, p):
        g = Grid(dim, n)
        rng = np.random.default_rng(5)
        fhat = fft_array(g, np.stack([white_noise_field(g, rng).values for _ in range(3)]))
        irfft = np.fft.irfft if dim == 1 else np.fft.irfft2
        want = np.stack([lp_norms(g, irfft(mult * fhat), p) for mult in _full_multipliers(g)],
                        axis=-1)
        assert block_norm_table(g, fhat, p)[1].tobytes() == want.tobytes()
        assert block_norm_table(g, fhat[1], p)[1].tobytes() == want[1].tobytes()

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)])
    def test_decompose_equals_full_width_oracle(self, dim, n):
        g = Grid(dim, n)
        f = white_noise_field(g, np.random.default_rng(6))
        irfft = np.fft.irfft if dim == 1 else np.fft.irfft2
        fhat = fft_array(g, f.values)
        blocks = decompose(f).blocks
        for l, mult in zip(sorted(blocks), _full_multipliers(g)):
            assert blocks[l].values.tobytes() == irfft(mult * fhat).tobytes()


class TestBesovNorm:
    def test_zero_field(self):
        g = Grid(1, 64)
        spec = BesovSpec(1.5, 2, 1)
        assert besov_norm(RealField(g, np.zeros(g.shape)), spec) == 0.0

    @pytest.mark.parametrize("r", [1.0, 2.0, math.inf])
    def test_single_block_any_r(self, r):
        g = Grid(1, 64)
        f = RealField(g, 0.7 * np.sin(6 * g.x[0]))
        want = 2.0 ** (2 * 1.1) * 0.7 * math.sqrt(math.pi)
        got = besov_norm(f, BesovSpec(1.1, 2, r))
        assert got == pytest.approx(want, rel=1e-12)

    def test_invalid_exponents(self):
        with pytest.raises(ConfigurationError):
            BesovSpec(1.0, 0.5, 1)
        with pytest.raises(ConfigurationError):
            BesovSpec(1.0, 2, 0.0)
        with pytest.raises(ConfigurationError):
            BesovSpec(math.inf, 2, 1)
        for bools in ((True, 2, 1), (1.0, True, True)):  # a bool is not a number here
            with pytest.raises(ConfigurationError):
                BesovSpec(*bools)

    def test_embedding_with_counted_constant(self, bumps):
        # sup-norm of a block is at most sqrt(modes/volume) times its L2 norm,
        # so the block count gives a rigorous embedding constant
        g = Grid(1, 128)
        l_min, l_max = block_range(g)
        vol = g.length ** g.dim
        c_emb = 0.0
        kmag = full_layout(g)[2]
        for l in range(l_min, l_max + 1):
            n_modes = int(np.count_nonzero(bumps.phi(kmag / 2.0 ** l) > 0))
            c_emb = max(c_emb, math.sqrt(n_modes / vol) * 2.0 ** (-l / 2.0))
        rng = np.random.default_rng(123)
        s = 1.3
        for _ in range(50):
            f = white_noise_field(g, rng)
            lhs = besov_norm(f, BesovSpec(s - 0.5, math.inf, 1))
            rhs = besov_norm(f, BesovSpec(s, 2, 1))
            assert lhs <= c_emb * rhs * (1 + 1e-9)

    def test_l2_equivalence_window(self):
        rng = np.random.default_rng(7)
        for g in (Grid(1, 128), Grid(2, 32)):
            spec = BesovSpec(0.0, 2, 2)
            for _ in range(10):
                f = white_noise_field(g, rng)
                centered = RealField(g, f.values - np.mean(f.values))
                ratio = besov_norm(f, spec) / lp_norms(g, centered.values, 2)
                assert 1 / math.sqrt(2) - 1e-12 <= ratio <= math.sqrt(2) + 1e-12

    def test_dilation_invariance_of_critical_norm(self):
        # same samples on a half-size box represent f(2x); the critical-index
        # norm must not notice (exact here, spec-level bar is 10%)
        rng = np.random.default_rng(21)
        g1 = Grid(1, 128, length=2 * math.pi)
        g2 = Grid(1, 128, length=math.pi)
        f = band_field(g1, rng, 10)
        spec = BesovSpec(0.5, 2, 1)  # s = N/p with N=1, p=2
        n1 = besov_norm(f, spec)
        n2 = besov_norm(RealField(g2, f.values.copy()), spec)
        assert n1 > 0.1
        assert abs(n1 - n2) / n1 < 0.10
        assert abs(n1 - n2) / n1 < 1e-10


class TestBernstein:
    @pytest.mark.parametrize("length", [2 * math.pi, 1.0])
    def test_gradient_bound_l2(self, length):
        rng = np.random.default_rng(31)
        for g in (Grid(1, 128, length=length), Grid(2, 64, length=length)):
            f = white_noise_field(g, rng)
            d = decompose(f)
            for l, b in d.blocks.items():
                base = lp_norms(g, b.values, 2)
                if base < 1e-12:
                    continue
                mag = np.sqrt(sum(c ** 2 for c in grad_arrays(g, fft_array(g, b.values))))
                assert lp_norms(g, mag, 2) <= ANNULUS_OUTER * 2.0 ** l * base * (1 + 1e-12)

    @pytest.mark.parametrize("p", [1.0, math.inf])
    def test_gradient_bound_other_p(self, p):
        rng = np.random.default_rng(37)
        g = Grid(1, 128)
        f = band_field(g, rng, 32)
        d = decompose(f)
        for l, b in d.blocks.items():
            base = lp_norms(g, b.values, p)
            if base < 1e-12:
                continue
            for c in grad_arrays(g, fft_array(g, b.values)):
                assert lp_norms(g, c, p) <= ANNULUS_OUTER * 2.0 ** l * base * (1 + 1e-9)


class TestTildeNorm:
    def test_time_constant_single_block(self):
        g = Grid(1, 64)
        f = RealField(g, 0.7 * np.sin(6 * g.x[0]))
        spec = BesovSpec(1.1, 2, 1)
        got = tilde_norm(g, fft_array(g, np.stack([f.values] * 9)), spec)
        want = 2.0 ** 2.2 * 0.7 * math.sqrt(math.pi)
        assert got == pytest.approx(want, rel=1e-12)

    def test_sup_in_time(self):
        g = Grid(1, 64)
        base = 0.7 * np.sin(6 * g.x[0])
        series = fft_array(g, np.stack([c * base for c in (1.0, 0.5, 2.0)]))
        got = tilde_norm(g, series, BesovSpec(1.1, 2, 1))
        want = 2.0 * 2.0 ** 2.2 * 0.7 * math.sqrt(math.pi)
        assert got == pytest.approx(want, rel=1e-12)


class TestBony:
    @pytest.mark.parametrize("dim,n", [(1, 128), (2, 32)])
    def test_reconstruction(self, dim, n):
        rng = np.random.default_rng(dim + 40)
        g = Grid(dim, n)
        u = white_noise_field(g, rng)
        v = white_noise_field(g, rng)
        t_uv, t_vu, rem = bony_decompose(u, v)
        product = u.values * v.values
        recon = t_uv.values + t_vu.values + rem.values + np.mean(u.values) * np.mean(v.values)
        assert np.max(np.abs(product - recon)) < 1e-10 * max(1.0, np.max(np.abs(product)))

    def test_constant_factor(self):
        g = Grid(1, 64)
        u = RealField(g, np.full(g.shape, 3.0))
        v = RealField(g, 1.5 + np.sin(2 * g.x[0]) + 0.3 * np.cos(9 * g.x[0]))
        t_uv, t_vu, rem = bony_decompose(u, v)
        assert np.max(np.abs(t_vu.values)) < 1e-12
        assert np.max(np.abs(rem.values)) < 1e-12
        want = 3.0 * (v.values - np.mean(v.values))
        assert np.max(np.abs(t_uv.values - want)) < 1e-12

    def test_distant_harmonics_have_no_remainder(self):
        g = Grid(1, 256)
        u = RealField(g, np.sin(6 * g.x[0]))    # block 2
        v = RealField(g, np.cos(96 * g.x[0]))   # block 6
        _, _, rem = bony_decompose(u, v)
        assert np.max(np.abs(rem.values)) < 1e-10

    def test_self_product_is_remainder(self):
        g = Grid(1, 64)
        u = RealField(g, np.sin(6 * g.x[0]))
        t_uv, t_vu, rem = bony_decompose(u, u)
        assert np.max(np.abs(t_uv.values)) < 1e-12
        assert np.max(np.abs(t_vu.values)) < 1e-12
        assert np.max(np.abs(rem.values - u.values ** 2)) < 1e-12

    def test_grid_mismatch(self):
        u = RealField(Grid(1, 64), np.zeros(64))
        v = RealField(Grid(1, 128), np.zeros(128))
        with pytest.raises(ConfigurationError):
            bony_decompose(u, v)


class TestHeatDecay:
    def test_time_zero_only(self):
        g = Grid(1, 64)
        report = heat_block_decay_check(RealField(g, np.sin(3 * g.x[0])), 0.5, [0.0])
        assert report["all_within"]
        assert all(b["ratios"] == [] for b in report["blocks"])

    def test_single_mode_exact_rate(self):
        g = Grid(1, 64)
        mu, k0 = 0.3, 5
        times = [0.0, 0.1, 0.3]
        report = heat_block_decay_check(RealField(g, np.sin(k0 * g.x[0])), mu, times)
        assert report["all_within"]
        for b in report["blocks"]:
            if b["initial_norm"] < 1e-12:
                continue
            for t, ratio in zip(times[1:], b["ratios"]):
                assert ratio == pytest.approx(math.exp(-mu * k0 ** 2 * t), rel=1e-12)
            assert b["c_fit"] == pytest.approx(k0 ** 2 / 4.0 ** b["l"], rel=1e-9)

    @pytest.mark.parametrize("dim,n", [(1, 128), (2, 32)])
    def test_broadband_two_sided(self, dim, n):
        rng = np.random.default_rng(dim + 50)
        g = Grid(dim, n)
        f = white_noise_field(g, rng)
        report = heat_block_decay_check(f, 0.2, [0.0, 0.02, 0.05, 0.1])
        assert report["all_within"]
        for b in report["blocks"]:
            if b["c_fit"] is not None:
                assert PLATEAU ** 2 - 1e-9 <= b["c_fit"] <= ANNULUS_OUTER ** 2 + 1e-9

    def test_validation(self):
        g = Grid(1, 64)
        f = RealField(g, np.sin(g.x[0]))
        with pytest.raises(DomainError):
            heat_block_decay_check(f, 0.3, [0.1, 0.2])
        with pytest.raises(ConfigurationError):
            heat_block_decay_check(f, -0.3, [0.0, 0.2])


class TestBlockReport:
    def test_json_round_trip(self):
        g = Grid(1, 128)
        f = RealField(g, 2.0 + np.sin(3 * g.x[0]) + 0.2 * np.cos(17 * g.x[0]))
        report = block_report(f, BesovSpec(0.5, 2, 1))
        text = json.dumps(report)
        back = json.loads(text)
        assert back["mean"] == pytest.approx(2.0, rel=1e-12)
        assert back["norm"] == pytest.approx(besov_norm(f, BesovSpec(0.5, 2, 1)), rel=1e-12)
        assert {"l", "block_norm", "weighted", "boundary"} <= set(back["blocks"][0])
        assert any(rec["boundary"] for rec in back["blocks"])
        assert any(not rec["boundary"] for rec in back["blocks"])
