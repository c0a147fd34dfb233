"""Model layer: capillarity divergence vs symbolic oracles, parameters,
variable changes, and both right-hand sides (manufactured-solution checks)."""

import numpy as np
import pytest
import sympy as sp
from conftest import full_layout

from capns.diagnostics import _Fields
from capns.errors import ConfigurationError, DomainError, NumericBlowup
from capns.fields import Grid, RealField, fft_array, lp_norm
from capns.model import (
    EffectiveState,
    PhysParams,
    PrimitiveState,
    div_k_form_a,
    div_k_form_b,
    div_k_gradient_form,
    effective_tendencies,
    primitive_tendencies,
    rhs_effective,
    rhs_primitive,
    to_effective,
)
from capns.presets import Preset, build

X, Y = sp.symbols("x y", real=True)


def field_from_expr(grid, expr, syms=None):
    if syms is None:
        syms = (X, Y)[: grid.dim]
    fn = sp.lambdify(syms, expr, "numpy")
    vals = np.asarray(fn(*grid.x), dtype=float)
    return RealField(grid, np.broadcast_to(vals, grid.shape).copy())


def rel_err(got, want):
    scale = float(np.max(np.abs(want)))
    diff = float(np.max(np.abs(got - want)))
    return diff if scale == 0 else diff / scale


def random_band_field(grid, rng, amplitude, bandlimit):
    coeffs = np.zeros(grid.shape, dtype=complex)
    mask = np.ones(grid.shape, dtype=bool)
    for m in full_layout(grid)[0]:
        mask &= np.abs(m) <= bandlimit
    coeffs[mask] = rng.standard_normal(int(mask.sum())) + 1j * rng.standard_normal(int(mask.sum()))
    vals = np.fft.ifftn(coeffs).real
    vals *= amplitude / max(np.max(np.abs(vals)), 1e-300)
    return RealField(grid, vals)


class TestPhysParams:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mu=0.0, kappa=0.1),
            dict(mu=-0.2, kappa=0.1),
            dict(mu=0.2, kappa=0.0),
            dict(mu=0.2, kappa=0.1, a=-1.0),
            dict(mu=0.2, kappa=0.1, gamma=0.9),
            dict(mu=0.2, kappa=0.1, rho_bar=0.0),
            dict(mu=float("nan"), kappa=0.1),
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PhysParams(**kwargs)

    def test_zero_pressure_allowed(self):
        # a = 0 is a legitimate testing hook (pure-diffusion runs)
        PhysParams(mu=0.2, kappa=0.04, a=0.0)

    def test_is_quantum(self):
        assert PhysParams(mu=0.5, kappa=0.25).is_quantum()
        assert PhysParams(mu=0.5, kappa=0.25 + 5e-13).is_quantum()
        assert not PhysParams(mu=0.5, kappa=0.25 + 1e-11).is_quantum()
        assert not PhysParams(mu=0.5, kappa=0.3).is_quantum()


class TestStates:
    def test_positive_density_required(self):
        g = Grid(1, 32)
        rho = RealField(g, np.sin(g.x[0]))
        with pytest.raises(DomainError):
            PrimitiveState(rho, (RealField(g, np.zeros(g.shape)),))

    def test_component_count(self):
        g = Grid(2, 16)
        rho = RealField(g, np.ones(g.shape))
        u = RealField(g, np.zeros(g.shape))
        with pytest.raises(ConfigurationError):
            PrimitiveState(rho, (u,))

    def test_grid_mismatch(self):
        g1, g2 = Grid(1, 32), Grid(1, 64)
        q = RealField(g1, np.zeros(g1.shape))
        v = RealField(g2, np.zeros(g2.shape))
        with pytest.raises(ConfigurationError):
            EffectiveState(q, (v,))


class TestDivK:
    @pytest.mark.parametrize("form", [div_k_form_a, div_k_form_b, div_k_gradient_form])
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)])
    def test_constant_density(self, form, dim, n):
        g = Grid(dim, n)
        rho = RealField(g, np.full(g.shape, 1.7))
        out = form(rho, 0.3)
        for comp in out:
            assert np.max(np.abs(comp.values)) < 1e-11

    def test_form_a_symbolic_1d(self):
        k1 = 0.37
        rho_expr = 2 + sp.Rational(1, 10) * sp.sin(X)
        kap = k1 / rho_expr
        # derivative of kappa(rho) = k1/rho composed with rho(x)
        kap_prime = -k1 / rho_expr ** 2
        scalar = (
            rho_expr * kap * sp.diff(rho_expr, X, 2)
            + sp.Rational(1, 2) * (kap + rho_expr * kap_prime) * sp.diff(rho_expr, X) ** 2
        )
        oracle = sp.diff(scalar, X) - sp.diff(kap * sp.diff(rho_expr, X) ** 2, X)
        g = Grid(1, 256)
        rho = field_from_expr(g, rho_expr)
        want = field_from_expr(g, oracle)
        (got,) = div_k_form_a(rho, k1)
        assert rel_err(got.values, want.values) < 1e-8

    def test_form_b_symbolic_1d(self):
        k1 = 0.21
        rho_expr = sp.Rational(3, 2) + sp.Rational(3, 10) * sp.cos(X)
        oracle = k1 * sp.diff(rho_expr * sp.diff(sp.log(rho_expr), X, 2), X)
        g = Grid(1, 256)
        rho = field_from_expr(g, rho_expr)
        want = field_from_expr(g, oracle)
        (got,) = div_k_form_b(rho, k1)
        assert rel_err(got.values, want.values) < 1e-8

    def test_form_b_symbolic_2d(self):
        k1 = 0.15
        rho_expr = 2 + sp.Rational(1, 10) * sp.sin(X) * sp.cos(Y)
        ln = sp.log(rho_expr)
        g = Grid(2, 64)
        rho = field_from_expr(g, rho_expr)
        got = div_k_form_b(rho, k1)
        for i, xi in enumerate((X, Y)):
            oracle = k1 * sum(
                sp.diff(rho_expr * sp.diff(ln, xi, xj), xj) for xj in (X, Y)
            )
            want = field_from_expr(g, oracle)
            assert rel_err(got[i].values, want.values) < 1e-8

    @pytest.mark.parametrize("dim,n", [(1, 128), (2, 128)])
    def test_forms_agree(self, dim, n):
        rng = np.random.default_rng(7 + dim)
        g = Grid(dim, n)
        # low bandlimit keeps the analytic tails of 1/rho and ln(rho)
        # resolved, so the three groupings agree below 1e-8
        bump = random_band_field(g, rng, 0.12, 4)
        rho = RealField(g, 1.0 + bump.values)
        a_form = div_k_form_a(rho, 0.125)
        b_form = div_k_form_b(rho, 0.125)
        c_form = div_k_gradient_form(rho, 0.125)
        for i in range(dim):
            scale = lp_norm(b_form[i], 2)
            assert lp_norm(RealField(g, a_form[i].values - b_form[i].values), 2) / scale < 1e-8
            assert lp_norm(RealField(g, c_form[i].values - b_form[i].values), 2) / scale < 1e-8

    def test_vacuum_rejected(self):
        g = Grid(1, 64)
        rho = RealField(g, np.sin(g.x[0]))  # takes negative values
        for form in (div_k_form_a, div_k_form_b, div_k_gradient_form):
            with pytest.raises(DomainError):
                form(rho, 0.1)


class TestChangeOfVariables:
    def test_uniform_density(self):
        g = Grid(1, 64)
        p = PhysParams(mu=0.3, kappa=0.09, rho_bar=1.4)
        u = RealField(g, 0.2 * np.cos(g.x[0]))
        s = PrimitiveState(RealField(g, np.full(g.shape, 1.4)), (u,))
        e = to_effective(s, p)
        assert np.max(np.abs(e.q.values)) < 1e-13
        assert np.max(np.abs(e.v[0].values - u.values)) < 1e-13

    def test_log_density_gradient(self):
        g = Grid(1, 128)
        p = PhysParams(mu=0.3, kappa=0.09, rho_bar=2.0)
        rho = RealField(g, 2.0 * np.exp(np.sin(g.x[0])))
        s = PrimitiveState(rho, (RealField(g, np.zeros(g.shape)),))
        e = to_effective(s, p)
        assert np.max(np.abs(e.q.values - np.sin(g.x[0]))) < 1e-12
        assert np.max(np.abs(e.v[0].values - 0.3 * np.cos(g.x[0]))) < 1e-12

    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)])
    def test_round_trip(self, dim, n):
        rng = np.random.default_rng(11)
        g = Grid(dim, n)
        p = PhysParams(mu=0.25, kappa=0.1, rho_bar=1.1)
        rho = RealField(g, 1.0 + random_band_field(g, rng, 0.2, 6).values)
        u = tuple(random_band_field(g, rng, 0.3, 6) for _ in range(dim))
        s = PrimitiveState(rho, u)
        # the inverse is the one the energy diagnostics take
        back = _Fields(to_effective(s, p), p)
        assert np.max(np.abs(back.rho - rho.values)) < 1e-12
        for i in range(dim):
            assert np.max(np.abs(back.u[i] - u[i].values)) < 1e-12


def equilibrium_state(g, rho_bar):
    rho = RealField(g, np.full(g.shape, rho_bar))
    u = tuple(RealField(g, np.zeros(g.shape)) for _ in range(g.dim))
    return PrimitiveState(rho, u)


class TestRhsPrimitive:
    def test_equilibrium_fixed_point(self):
        g = Grid(2, 32)
        p = PhysParams(mu=0.2, kappa=0.04, a=1.0, gamma=1.4, rho_bar=1.3)
        drho, du = rhs_primitive(equilibrium_state(g, 1.3), p)
        assert np.max(np.abs(drho.values)) < 1e-11
        for comp in du:
            assert np.max(np.abs(comp.values)) < 1e-11

    def test_manufactured_1d(self):
        mu, kappa, a, gamma = 0.2, 0.05, 0.8, 1.4
        rho_expr = 1 + sp.Rational(1, 5) * sp.sin(X)
        u_expr = sp.Rational(1, 10) * sp.cos(X)
        divk = kappa * sp.diff(rho_expr * sp.diff(sp.log(rho_expr), X, 2), X)
        drho_expr = -sp.diff(rho_expr * u_expr, X)
        du_expr = -u_expr * sp.diff(u_expr, X) + (
            sp.diff(2 * mu * rho_expr * sp.diff(u_expr, X), X)
            - sp.diff(a * rho_expr ** sp.Rational(14, 10), X)
            + divk
        ) / rho_expr

        g = Grid(1, 256)
        p = PhysParams(mu=mu, kappa=kappa, a=a, gamma=gamma)
        s = PrimitiveState(field_from_expr(g, rho_expr), (field_from_expr(g, u_expr),))
        drho, du = rhs_primitive(s, p)
        assert rel_err(drho.values, field_from_expr(g, drho_expr).values) < 1e-6
        assert rel_err(du[0].values, field_from_expr(g, du_expr).values) < 1e-6

    @pytest.mark.parametrize("dim,n", [(1, 128), (2, 64)])
    def test_mass_mean_free(self, dim, n):
        rng = np.random.default_rng(3)
        g = Grid(dim, n)
        p = PhysParams(mu=0.2, kappa=0.04, gamma=1.0)
        rho = RealField(g, 1.0 + random_band_field(g, rng, 0.3, 10).values)
        u = tuple(random_band_field(g, rng, 0.4, 10) for _ in range(dim))
        drho, _ = rhs_primitive(PrimitiveState(rho, u), p)
        assert abs(g.integrate(drho.values)) < 1e-12

    def test_galilean_shift(self):
        rng = np.random.default_rng(5)
        g = Grid(2, 64)
        p = PhysParams(mu=0.15, kappa=0.03, a=0.6, gamma=1.0)
        rho = RealField(g, 1.0 + random_band_field(g, rng, 0.2, 8).values)
        u = tuple(random_band_field(g, rng, 0.3, 8) for _ in range(2))
        shift = (0.7, -0.4)
        u_shifted = tuple(RealField(g, u[i].values + shift[i]) for i in range(2))
        drho0, du0 = rhs_primitive(PrimitiveState(rho, u), p)
        drho1, du1 = rhs_primitive(PrimitiveState(rho, u_shifted), p)

        # odd-derivative multipliers with the unpaired Nyquist mode zeroed
        ik = [1j * np.where(np.abs(m) == g.n // 2, 0, m) for m in full_layout(g)[0]]
        rho_hat = np.fft.fftn(rho.values)
        transport_rho = sum(
            shift[j] * np.fft.ifftn(ik[j] * rho_hat).real for j in range(2)
        )
        assert rel_err(drho1.values - drho0.values, -transport_rho) < 1e-10
        for i in range(2):
            u_hat = np.fft.fftn(u[i].values)
            transport_u = sum(
                shift[j] * np.fft.ifftn(ik[j] * u_hat).real for j in range(2)
            )
            assert rel_err(du1[i].values - du0[i].values, -transport_u) < 1e-10

    def test_overflow_reported(self):
        g = Grid(1, 64)
        p = PhysParams(mu=0.2, kappa=0.04, gamma=2.0)
        s = PrimitiveState(
            RealField(g, np.full(g.shape, 1e300)),
            (RealField(g, np.zeros(g.shape)),),
        )
        with np.errstate(all="ignore"), pytest.raises(NumericBlowup):
            rhs_primitive(s, p)


class TestRhsEffective:
    def test_equilibrium_fixed_point(self):
        g = Grid(2, 32)
        p = PhysParams(mu=0.2, kappa=0.04)
        zero = RealField(g, np.zeros(g.shape))
        dq, dv = rhs_effective(EffectiveState(zero, (zero, zero)), p)
        assert np.max(np.abs(dq.values)) < 1e-13
        for comp in dv:
            assert np.max(np.abs(comp.values)) < 1e-13

    def _oracle_1d(self, mu, kappa, a, gamma, rho_bar, q_expr, v_expr):
        u_expr = v_expr - mu * sp.diff(q_expr, X)
        rho_expr = rho_bar * sp.exp(q_expr)
        dq = mu * sp.diff(q_expr, X, 2) - u_expr * sp.diff(q_expr, X) - sp.diff(v_expr, X)
        dv = (
            mu * sp.diff(v_expr, X, 2)
            - u_expr * sp.diff(v_expr, X)
            + mu * sp.diff(q_expr, X) * sp.diff(v_expr, X)
            - a * gamma * rho_expr ** (gamma - 1) * sp.diff(q_expr, X)
        )
        if abs(kappa - mu ** 2) > 1e-12:
            dv += (kappa - mu ** 2) * sp.diff(rho_expr * sp.diff(q_expr, X, 2), X) / rho_expr
        return dq, dv

    @pytest.mark.parametrize(
        "kappa,gamma",
        [(0.1, sp.Integer(1)), (0.04, sp.Rational(14, 10))],
    )
    def test_manufactured_1d(self, kappa, gamma):
        mu, a, rho_bar = 0.2, 0.8, 1.5
        q_expr = sp.Rational(3, 10) * sp.sin(X)
        v_expr = sp.Rational(1, 5) * sp.cos(X) + sp.Rational(1, 10) * sp.sin(2 * X)
        dq_expr, dv_expr = self._oracle_1d(mu, kappa, a, gamma, rho_bar, q_expr, v_expr)

        g = Grid(1, 256)
        p = PhysParams(mu=mu, kappa=kappa, a=a, gamma=float(gamma), rho_bar=rho_bar)
        e = EffectiveState(field_from_expr(g, q_expr), (field_from_expr(g, v_expr),))
        dq, dv = rhs_effective(e, p)
        assert rel_err(dq.values, field_from_expr(g, dq_expr).values) < 1e-6
        assert rel_err(dv[0].values, field_from_expr(g, dv_expr).values) < 1e-6

    def test_too_small_capillarity_rejected(self):
        g = Grid(1, 32)
        p = PhysParams(mu=0.3, kappa=0.05)  # kappa < mu^2 = 0.09
        zero = RealField(g, np.zeros(g.shape))
        with pytest.raises(ConfigurationError):
            rhs_effective(EffectiveState(zero, (zero,)), p)

    @pytest.mark.parametrize("kappa", [0.0225, 0.05])
    def test_matches_primitive_formulation(self, kappa):
        # chain rule: dq = drho/rho and dv = du + mu*grad(drho/rho)
        rng = np.random.default_rng(17)
        g = Grid(1, 256)
        p = PhysParams(mu=0.15, kappa=kappa, a=0.5, gamma=1.0, rho_bar=1.0)
        rho = RealField(g, 1.0 + random_band_field(g, rng, 0.25, 10).values)
        u = (random_band_field(g, rng, 0.2, 10),)
        s = PrimitiveState(rho, u)

        drho, du = rhs_primitive(s, p)
        dq, dv = rhs_effective(to_effective(s, p), p)

        dq_want = drho.values / rho.values
        assert rel_err(dq.values, dq_want) < 1e-7
        (m,) = full_layout(g)[0]
        ik = 1j * np.where(np.abs(m) == g.n // 2, 0, m)
        grad_dq = np.fft.ifftn(ik * np.fft.fftn(dq_want)).real
        assert rel_err(dv[0].values, du[0].values + p.mu * grad_dq) < 1e-7


class TestTwoThirdsRule:
    """Every product is truncated: outside Grid.half_mask a tendency
    spectrum holds its linear terms and nothing else, to the bit."""

    @pytest.mark.parametrize("gamma", [1.0, 1.4])
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)])
    def test_nonlinear_parts_vanish_outside_mask(self, dim, n, gamma):
        g = Grid(dim, n)
        p = PhysParams(mu=0.15, kappa=0.04, a=1.0, gamma=gamma, rho_bar=1.3)
        s = build(Preset("random_bandlimited", amplitude=0.2, seed=5), g, p)
        outside = g.half_mask == 0
        ik = g.half_ik

        u = [c.values for c in s.u]
        uhats = [fft_array(g, c) for c in u]
        _, du = primitive_tendencies(g, p, s.rho.values, u, uhats)
        for i in range(dim):
            nonlinear = du[i] - p.mu * g.half_k2 * uhats[i]
            assert np.all(nonlinear[outside] == 0)

        e = to_effective(s, p)
        q, v = e.q.values, [c.values for c in e.v]
        qhat, vhats = fft_array(g, q), [fft_array(g, c) for c in v]
        nq, nv = effective_tendencies(g, p, q, qhat, v, vhats)
        nonlinear = [nq + sum(ik[i] * vhats[i] for i in range(dim))]
        linear_v = [p.a * ik[i] * qhat if gamma == 1.0 else 0.0 for i in range(dim)]
        nonlinear += [nv[i] + linear_v[i] for i in range(dim)]
        for part in nonlinear:
            assert np.all(part[outside] == 0)
