"""Model layer: capillarity divergence vs symbolic oracles, parameters,
variable changes, and both right-hand sides (manufactured-solution checks)."""

import numpy as np
import pytest
import sympy as sp
from conftest import full_layout, grid_tendencies, step_hats

from capns.diagnostics import _Fields
from capns.errors import ConfigurationError, DomainError
from capns.fields import Grid, RealField, ifft_array, lp_norms
from capns.model import (
    EffectiveState,
    PhysParams,
    PrimitiveState,
    rhs_effective,
    rhs_primitive,
    to_effective,
)
from capns.presets import Preset, build
from capns.solver import SolverConfig, step_imex
from capns.verify import div_k_compact, div_k_form_a, div_k_gradient_form

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


def step_div_k(rho, kappa1):
    """The step's own capillary force div K: at u = 0 and a = 0 the momentum
    tendency of ``rhs_primitive`` is div K / rho, truncated."""
    g = rho.grid
    zero = np.zeros((g.dim, *g.shape))
    params = PhysParams(mu=1.0, kappa=kappa1, a=0.0)
    _, du = rhs_primitive(g, params, [rho.values, *zero], step_hats(g, zero))
    return [RealField(g, rho.values * ifft_array(g, c)) for c in du]


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
            dict(mu=True, kappa=True),
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
    """Form b, the compact kappa1*div(rho*hess ln rho), is the reference
    (``verify.div_k_compact``); the step's own capillary force, read off
    rhs_primitive at u = 0 and a = 0, is its gradient grouping."""

    @pytest.mark.parametrize("form", [div_k_form_a, div_k_gradient_form])
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
        for form in (div_k_compact, step_div_k):
            (got,) = form(rho, k1)
            assert rel_err(got.values, want.values) < 1e-8

    def test_form_b_symbolic_2d(self):
        k1 = 0.15
        rho_expr = 2 + sp.Rational(1, 10) * sp.sin(X) * sp.cos(Y)
        ln = sp.log(rho_expr)
        g = Grid(2, 64)
        rho = field_from_expr(g, rho_expr)
        for form in (div_k_compact, step_div_k):
            got = form(rho, k1)
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
        # resolved, so every grouping agrees with the compact one below 1e-8
        bump = random_band_field(g, rng, 0.12, 4)
        rho = RealField(g, 1.0 + bump.values)
        b_form = div_k_compact(rho, 0.125)
        for form in (div_k_form_a, div_k_gradient_form, step_div_k):
            got = form(rho, 0.125)
            for i in range(dim):
                scale = lp_norms(g, b_form[i].values, 2)
                assert lp_norms(g, got[i].values - b_form[i].values, 2) / scale < 1e-8

    def test_vacuum_rejected(self):
        g = Grid(1, 64)
        rho = RealField(g, np.sin(g.x[0]))  # takes negative values
        for form in (div_k_form_a, div_k_gradient_form):
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
        drho, du = grid_tendencies(equilibrium_state(g, 1.3), p)
        assert np.max(np.abs(drho)) < 1e-11
        for comp in du:
            assert np.max(np.abs(comp)) < 1e-11

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
        drho, du = grid_tendencies(s, p)
        assert rel_err(drho, field_from_expr(g, drho_expr).values) < 1e-6
        assert rel_err(du[0], field_from_expr(g, du_expr).values) < 1e-6

    @pytest.mark.parametrize("dim,n", [(1, 128), (2, 64)])
    def test_mass_mean_free(self, dim, n):
        rng = np.random.default_rng(3)
        g = Grid(dim, n)
        p = PhysParams(mu=0.2, kappa=0.04, gamma=1.0)
        rho = RealField(g, 1.0 + random_band_field(g, rng, 0.3, 10).values)
        u = tuple(random_band_field(g, rng, 0.4, 10) for _ in range(dim))
        drho, _ = grid_tendencies(PrimitiveState(rho, u), p)
        assert abs(g.integrate(drho)) < 1e-12

    def test_galilean_shift(self):
        rng = np.random.default_rng(5)
        g = Grid(2, 64)
        p = PhysParams(mu=0.15, kappa=0.03, a=0.6, gamma=1.0)
        rho = RealField(g, 1.0 + random_band_field(g, rng, 0.2, 8).values)
        u = tuple(random_band_field(g, rng, 0.3, 8) for _ in range(2))
        shift = (0.7, -0.4)
        u_shifted = tuple(RealField(g, u[i].values + shift[i]) for i in range(2))
        drho0, du0 = grid_tendencies(PrimitiveState(rho, u), p)
        drho1, du1 = grid_tendencies(PrimitiveState(rho, u_shifted), p)

        # odd-derivative multipliers with the unpaired Nyquist mode zeroed
        ik = [1j * np.where(np.abs(m) == g.n // 2, 0, m) for m in full_layout(g)[0]]
        rho_hat = np.fft.fftn(rho.values)
        transport_rho = sum(
            shift[j] * np.fft.ifftn(ik[j] * rho_hat).real for j in range(2)
        )
        assert rel_err(drho1 - drho0, -transport_rho) < 1e-10
        for i in range(2):
            u_hat = np.fft.fftn(u[i].values)
            transport_u = sum(
                shift[j] * np.fft.ifftn(ik[j] * u_hat).real for j in range(2)
            )
            assert rel_err(du1[i] - du0[i], -transport_u) < 1e-10


def _full_derivatives(g):
    """d_j and lap on numpy's full layout, for a grid of length 2 pi, with
    the unpaired Nyquist mode of d_j zeroed."""
    modes, k2, _ = full_layout(g)
    ik = [1j * np.where(np.abs(m) == g.n // 2, 0, m) for m in modes]

    def d(f, j):
        return np.fft.ifftn(ik[j] * np.fft.fftn(f)).real

    def lap(f):
        return np.fft.ifftn(-k2 * np.fft.fftn(f)).real

    return d, lap


class TestEnergyIdentity:
    """The paper's energy law on the semi-discrete flow of rhs_primitive and
    rhs_effective: dE/dt = -D_u on a resolved state, for E = int
    rho|u|^2/2 + Pi(rho) + 2 kappa |grad sqrt(rho)|^2 at kappa(rho) =
    kappa/rho and gamma = 1."""

    @staticmethod
    def _rate_and_dissipation(s, p, d_rho, d_u):
        # dE/dt = int dE/drho d_t rho + rho u . d_t u, with
        # dE/drho = |u|^2/2 + a ln(rho/rho_bar) - 2 kappa lap(sqrt rho)/sqrt rho,
        # and D_u = int 2 mu rho |Du|^2; derivatives in numpy's full layout
        g, dim = s.grid, s.grid.dim
        d, lap = _full_derivatives(g)
        rho, u = s.rho.values, [c.values for c in s.u]
        root = np.sqrt(rho)
        de_drho = 0.5 * sum(c * c for c in u) + p.a * np.log(rho / p.rho_bar) \
            - 2.0 * p.kappa * lap(root) / root
        rate = g.integrate(de_drho * d_rho + rho * sum(a * b for a, b in zip(u, d_u)))
        strain = [[0.5 * (d(u[i], j) + d(u[j], i)) for j in range(dim)] for i in range(dim)]
        dissipation = g.integrate(2.0 * p.mu * rho * sum(e * e for row in strain for e in row))
        assert dissipation > 0
        return rate, dissipation

    @pytest.mark.parametrize("dim,n", [(1, 128), (2, 32)])
    def test_energy_rate_is_minus_the_dissipation(self, dim, n):
        p = PhysParams(mu=0.15, kappa=0.15 ** 2, a=1.0)
        s = build(Preset("smooth_bump", amplitude=0.1), Grid(dim, n), p)
        rate, dissipation = self._rate_and_dissipation(s, p, *grid_tendencies(s, p))
        assert abs(rate + dissipation) <= 1e-12 * dissipation

    @pytest.mark.parametrize("kappa", [0.15 ** 2, 0.04])
    @pytest.mark.parametrize("dim,n", [(1, 128), (2, 32)])
    def test_effective_energy_rate_is_minus_the_dissipation(self, dim, n, kappa):
        # the effective tendencies in primitive variables, with q = ln(rho/rho_bar)
        # and v = u + mu grad q: d_t rho = rho d_t q, d_t u = d_t v - mu grad d_t q
        p = PhysParams(mu=0.15, kappa=kappa, a=1.0)
        s = build(Preset("smooth_bump", amplitude=0.1), Grid(dim, n), p)
        d, _ = _full_derivatives(s.grid)
        d_q, d_v = grid_tendencies(to_effective(s, p), p)
        d_u = [c - p.mu * d(d_q, i) for i, c in enumerate(d_v)]
        rate, dissipation = self._rate_and_dissipation(s, p, s.rho.values * d_q, d_u)
        assert abs(rate + dissipation) <= 1e-12 * dissipation


class TestRhsEffective:
    def test_equilibrium_fixed_point(self):
        g = Grid(2, 32)
        p = PhysParams(mu=0.2, kappa=0.04)
        zero = RealField(g, np.zeros(g.shape))
        dq, dv = grid_tendencies(EffectiveState(zero, (zero, zero)), p)
        assert np.max(np.abs(dq)) < 1e-13
        for comp in dv:
            assert np.max(np.abs(comp)) < 1e-13

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
        dq, dv = grid_tendencies(e, p)
        assert rel_err(dq, field_from_expr(g, dq_expr).values) < 1e-6
        assert rel_err(dv[0], field_from_expr(g, dv_expr).values) < 1e-6

    @pytest.mark.parametrize("kappa", [0.0225, 0.05])
    def test_matches_primitive_formulation(self, kappa):
        # chain rule: dq = drho/rho and dv = du + mu*grad(drho/rho)
        rng = np.random.default_rng(17)
        g = Grid(1, 256)
        p = PhysParams(mu=0.15, kappa=kappa, a=0.5, gamma=1.0, rho_bar=1.0)
        rho = RealField(g, 1.0 + random_band_field(g, rng, 0.25, 10).values)
        u = (random_band_field(g, rng, 0.2, 10),)
        s = PrimitiveState(rho, u)

        drho, du = grid_tendencies(s, p)
        dq, dv = grid_tendencies(to_effective(s, p), p)

        dq_want = drho / rho.values
        assert rel_err(dq, dq_want) < 1e-7
        (m,) = full_layout(g)[0]
        ik = 1j * np.where(np.abs(m) == g.n // 2, 0, m)
        grad_dq = np.fft.ifftn(ik * np.fft.fftn(dq_want)).real
        assert rel_err(dv[0], du[0] + p.mu * grad_dq) < 1e-7


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
        uhats = step_hats(g, u)
        _, du = rhs_primitive(g, p, [s.rho.values, *u], uhats)
        for i in range(dim):
            nonlinear = du[i] - p.mu * g.half_k2 * uhats[i]
            assert np.all(nonlinear[outside] == 0)

        e = to_effective(s, p)
        vals = [e.q.values, *(c.values for c in e.v)]
        qhat, *vhats = hats = step_hats(g, vals)
        _, (nq, *nv) = rhs_effective(g, p, vals, hats)
        nonlinear = [nq + sum(ik[i] * vhats[i] for i in range(dim))]
        linear_v = [p.a * ik[i] * qhat if gamma == 1.0 else 0.0 for i in range(dim)]
        nonlinear += [nv[i] + linear_v[i] for i in range(dim)]
        for part in nonlinear:
            assert np.all(part[outside] == 0)


def _bits(a):
    return np.ascontiguousarray(a).view(np.int64)


class TestTendencyConvention:
    """Both right-hand sides take the step's samples ``vals`` and half
    spectra ``hats`` and return (on_grid, spectral), with ``spectral`` laid
    out like ``hats``: one stack on a 1-D grid, a list on a 2-D one."""

    KAPPAS = [pytest.param(0.0225, id="quantum"), pytest.param(0.04, id="kappa-above-mu2")]

    @staticmethod
    def _case(g, formulation, kappa, amplitude=0.1):
        """The params, a state and its samples [rho, *u] or [q, *v]."""
        p = PhysParams(mu=0.15, kappa=kappa)
        s = build(Preset("smooth_bump", amplitude=amplitude), g, p)
        if formulation == "primitive":
            return p, s, [s.rho.values, *(c.values for c in s.u)]
        e = to_effective(s, p)
        return p, e, [e.q.values, *(c.values for c in e.v)]

    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize("formulation", ["primitive", "effective"])
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)])
    def test_layout_of_the_steps_calls(self, monkeypatch, dim, n, formulation, kappa):
        from capns import solver

        g = Grid(dim, n)
        p, state, _ = self._case(g, formulation, kappa)
        name = f"rhs_{formulation}"
        original, calls = getattr(solver, name), []

        def recorded(*args):
            calls.append((args[3], original(*args)))
            return calls[-1][1]

        monkeypatch.setattr(solver, name, recorded)
        step_imex(state, p, SolverConfig(dt=1e-4, t_end=1e-4, formulation=formulation))
        assert len(calls) == 2
        rows = dim + (formulation == "effective")  # u, or q and v
        for hats, (on_grid, spectral) in calls:
            assert isinstance(on_grid, list)
            assert [d.shape for d in on_grid] == [g.shape] * (formulation == "primitive")
            if dim == 1:
                assert hats.shape == (rows, *g.half_shape)
                assert isinstance(spectral, np.ndarray) and spectral.shape == hats.shape
            else:
                assert isinstance(hats, list) and len(hats) == rows
                assert isinstance(spectral, list) and len(spectral) == len(hats)
                assert all(s.shape == g.half_shape for s in spectral)

    @pytest.mark.parametrize("kappa", KAPPAS)
    @pytest.mark.parametrize("formulation", ["primitive", "effective"])
    def test_members_are_their_own_calls(self, formulation, kappa):
        # an 8-member [member, n] stack on a 1-D grid: each member of each
        # tendency is bit for bit the tendency of the member's own call
        g = Grid(1, 64)
        rhs, k = (rhs_primitive, 1) if formulation == "primitive" else (rhs_effective, 0)
        p = PhysParams(mu=0.15, kappa=kappa)
        solo = [self._case(g, formulation, kappa, a)[2] for a in np.linspace(0.02, 0.16, 8)]
        vals = [np.stack(rows) for rows in zip(*solo)]
        on_grid, spectral = rhs(g, p, vals, step_hats(g, vals[k:]))
        assert spectral.shape == (len(vals) - k, 8, *g.half_shape)
        for m, own in enumerate(solo):
            own_grid, own_spectral = rhs(g, p, own, step_hats(g, own[k:]))
            assert len(on_grid) == len(own_grid) == k
            for a, b in zip(on_grid, own_grid):
                assert np.array_equal(_bits(a[m]), _bits(b))
            assert np.array_equal(_bits(spectral[:, m]), _bits(own_spectral))
