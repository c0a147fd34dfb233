import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import quad
from test_model import _full_derivatives

from capns.diagnostics import (
    CSV_COLUMNS,
    DiagnosticsAccumulator,
    DiagnosticsRecord,
    _Fields,
    bd_entropy,
    check_energy_inequality,
    degiorgi_recursion,
    dissip_density_rate,
    dissip_u_rate,
    dissip_v_rate,
    dissipation_constant,
    energy,
    jungel_rate,
    level_set_report,
    lp_gain_check,
    lp_gain_value,
    sqrt_h1_norm,
    vacuum_bound_estimate,
    vacuum_bound_formula,
    write_csv,
)
from capns.errors import ConfigurationError, DomainError
from capns.fields import Grid, RealField
from capns.model import EffectiveState, PhysParams, PrimitiveState, to_effective
from capns.presets import Preset, build
from capns.solver import RECORD_CHUNK, SolverConfig, run

TAU = 2.0 * math.pi


def grid1(n=128):
    return Grid(dim=1, n=n)


def field(g, fn):
    return RealField(g, fn(g.x[0]))


def record(t, lp_gain, e=0.0, b=0.0, **kw):
    base = dict(t=t, mass=0.0, energy=e, bd_entropy=b, dissip_u=0.0,
                dissip_v=0.0, dissip_density=0.0, jungel=0.0,
                lp_gain=lp_gain, min_rho=1.0, max_inv_rho=1.0, h1_sqrt=0.0)
    base.update(kw)
    return DiagnosticsRecord(**base)


class TestPiPotential:
    @pytest.mark.parametrize("gamma", [1.0, 1.4, 2.0])
    def test_vanishes_at_reference(self, gamma):
        g = grid1(32)
        p = PhysParams(mu=0.1, kappa=0.01, a=0.7, gamma=gamma, rho_bar=1.3)
        pi = _Fields(field(g, lambda x: np.full_like(x, 1.3)), p).pi
        assert np.max(np.abs(pi)) < 1e-14

    def test_gamma_two_closed_form(self):
        g = grid1(64)
        p = PhysParams(mu=0.1, kappa=0.01, a=0.6, gamma=2.0, rho_bar=0.9)
        rho = field(g, lambda x: 1.1 + 0.4 * np.sin(x))
        pi = _Fields(rho, p).pi
        assert np.allclose(pi, 0.6 * (rho.values - 0.9) ** 2, atol=1e-13)

    @pytest.mark.parametrize("gamma", [1.0, 1.3, 2.0])
    @pytest.mark.parametrize("rho", [0.4, 0.9, 1.7])
    def test_matches_taylor_remainder_quadrature(self, gamma, rho):
        # Pi has second derivative a*gamma*s^(gamma-2) and vanishes with its
        # first derivative at rho_bar, so Pi(rho) = int (rho-s) Pi''(s) ds.
        a, rb = 0.7, 1.1
        p = PhysParams(mu=0.1, kappa=0.01, a=a, gamma=gamma, rho_bar=rb)
        g = grid1(8)
        pi = _Fields(field(g, lambda x: np.full_like(x, rho)), p).pi
        oracle, err = quad(lambda s: (rho - s) * a * gamma * s ** (gamma - 2.0),
                           rb, rho, epsabs=1e-13, epsrel=1e-13)
        assert abs(pi[0] - oracle) < 1e-10 + 1e-10 * abs(oracle)

    def test_second_derivative_identity_symbolic(self):
        import sympy as sp

        s, a, rb = sp.symbols("s a rb", positive=True)
        lin = a * (s * sp.log(s / rb) + rb - s)
        assert sp.simplify(sp.diff(lin, s, 2) - a / s) == 0
        gm = sp.Rational(7, 5)
        lions = a / (gm - 1) * (s ** gm - rb ** gm - gm * rb ** (gm - 1) * (s - rb))
        assert sp.simplify(sp.diff(lions, s, 2) - a * gm * s ** (gm - 2)) == 0

    @pytest.mark.parametrize("gamma", [1.0, 1.4])
    def test_nonnegative(self, gamma):
        g = grid1(64)
        rng = np.random.default_rng(5)
        rho = RealField(g, 0.3 + rng.random(g.shape))
        p = PhysParams(mu=0.1, kappa=0.01, a=1.0, gamma=gamma, rho_bar=0.8)
        assert np.min(_Fields(rho, p).pi) >= -1e-14

    def test_rejects_vacuum(self):
        g = grid1(32)
        p = PhysParams(mu=0.1, kappa=0.01)
        with pytest.raises(DomainError):
            _Fields(field(g, lambda x: np.cos(x)), p).pi


class TestEnergyFunctionals:
    @pytest.mark.parametrize("gamma", [1.0, 1.4])
    def test_equilibrium_zero(self, gamma):
        g = grid1(32)
        p = PhysParams(mu=0.2, kappa=0.04, a=1.0, gamma=gamma, rho_bar=1.3)
        s = PrimitiveState(field(g, lambda x: np.full_like(x, 1.3)),
                           (field(g, np.zeros_like),))
        assert abs(energy(s, p)) < 1e-14
        assert abs(bd_entropy(s, p)) < 1e-14

    def test_kinetic_only(self):
        # rho = 1, u = sin x: E = E1 = pi/2, capillary and potential vanish.
        g = grid1(64)
        p = PhysParams(mu=0.2, kappa=0.04)
        s = PrimitiveState(field(g, np.ones_like), (field(g, np.sin),))
        assert abs(energy(s, p) - math.pi / 2) < 1e-12
        assert abs(bd_entropy(s, p) - math.pi / 2) < 1e-12

    def test_capillary_coefficient_frozen(self):
        # rho = (1 + 0.2 cos x)^2 gives |grad sqrt(rho)|^2 = 0.04 sin^2 x,
        # so the capillary part must be exactly 2 * kappa * 0.04 * pi.
        g = grid1(128)
        kappa = 0.11
        p = PhysParams(mu=0.2, kappa=kappa, a=0.7)
        rho = field(g, lambda x: (1.0 + 0.2 * np.cos(x)) ** 2)
        s = PrimitiveState(rho, (field(g, np.zeros_like),))
        pot = g.integrate(_Fields(rho, p).pi)
        assert abs(energy(s, p) - pot - 2.0 * kappa * 0.04 * math.pi) < 1e-12

    def test_generic_state_against_quadrature(self):
        mu, kappa, a, gamma, rb = 0.15, 0.07, 0.9, 1.3, 1.1
        p = PhysParams(mu=mu, kappa=kappa, a=a, gamma=gamma, rho_bar=rb)
        g = grid1(256)
        s = PrimitiveState(field(g, lambda x: 1.2 + 0.3 * np.sin(x)),
                           (field(g, lambda x: 0.4 * np.cos(x)),))

        rho = lambda x: 1.2 + 0.3 * math.sin(x)
        drho = lambda x: 0.3 * math.cos(x)
        ddrho = lambda x: -0.3 * math.sin(x)
        u = lambda x: 0.4 * math.cos(x)
        du = lambda x: -0.4 * math.sin(x)
        v = lambda x: u(x) + mu * drho(x) / rho(x)
        dv = lambda x: du(x) + mu * (ddrho(x) * rho(x) - drho(x) ** 2) / rho(x) ** 2
        pot = lambda x: a / (gamma - 1) * (
            rho(x) ** gamma - rb ** gamma - gamma * rb ** (gamma - 1) * (rho(x) - rb))
        dsqrt = lambda x: drho(x) / (2.0 * math.sqrt(rho(x)))
        ddsqrt = lambda x: (ddrho(x) / (2.0 * math.sqrt(rho(x)))
                            - drho(x) ** 2 / (4.0 * rho(x) ** 1.5))

        def oracle(fn):
            val, _ = quad(fn, 0.0, TAU, epsabs=1e-12, epsrel=1e-12, limit=400)
            return val

        checks = [
            (energy(s, p),
             oracle(lambda x: 0.5 * rho(x) * u(x) ** 2 + pot(x) + 2 * kappa * dsqrt(x) ** 2)),
            (bd_entropy(s, p),
             oracle(lambda x: 0.5 * rho(x) * v(x) ** 2 + pot(x))),
            (dissip_u_rate(s, p), oracle(lambda x: 2 * mu * rho(x) * du(x) ** 2)),
            (dissip_v_rate(s, p), oracle(lambda x: mu * rho(x) * dv(x) ** 2)),
            (dissip_density_rate(s, p),
             oracle(lambda x: a * gamma * mu * rho(x) ** (gamma - 2) * drho(x) ** 2)),
            (jungel_rate(s, p), oracle(lambda x: ddsqrt(x) ** 2)),
            (lp_gain_value(s, p, 2), oracle(lambda x: rho(x) * abs(v(x)) ** 2) ** 0.5),
            (lp_gain_value(s, p, 4), oracle(lambda x: rho(x) * abs(v(x)) ** 4) ** 0.25),
        ]
        for got, want in checks:
            assert abs(got - want) < 1e-8 * max(1.0, abs(want))

    def test_bd_entropy_formulation_independent(self):
        g = grid1(128)
        p = PhysParams(mu=0.2, kappa=0.04, a=0.8)
        s = PrimitiveState(field(g, lambda x: 1.0 + 0.3 * np.cos(x)),
                           (field(g, lambda x: 0.2 * np.sin(x)),))
        e = to_effective(s, p)
        assert abs(bd_entropy(s, p) - bd_entropy(e, p)) < 1e-10

    def test_shear_flow_rates(self):
        # 2D: rho = 1, u = (sin y, 0). |Du|^2 = cos(y)^2 / 2 and
        # |grad u|^2 = cos(y)^2, integrating to 2 mu pi^2 either way.
        g = Grid(dim=2, n=32)
        p = PhysParams(mu=0.3, kappa=0.09)
        y = g.x[1]
        s = PrimitiveState(RealField(g, np.ones(g.shape)),
                           (RealField(g, np.sin(y) + 0.0 * g.x[0]),
                            RealField(g, np.zeros(g.shape))))
        assert abs(dissip_u_rate(s, p) - 2 * p.mu * math.pi ** 2) < 1e-12
        e = EffectiveState(RealField(g, np.zeros(g.shape)),
                           (RealField(g, np.sin(y) + 0.0 * g.x[0]),
                            RealField(g, np.zeros(g.shape))))
        assert abs(dissip_v_rate(e, p) - 2 * p.mu * math.pi ** 2) < 1e-12

    def test_lp_gain_rejects_bad_exponent(self):
        g = grid1(32)
        p = PhysParams(mu=0.2, kappa=0.04)
        s = PrimitiveState(field(g, np.ones_like), (field(g, np.zeros_like),))
        with pytest.raises(DomainError):
            lp_gain_value(s, p, 0.5)


class TestJungel:
    # the accumulated Laplacian functional is the jungel field of the
    # records of a DiagnosticsAccumulator
    def test_constant_density_zero(self):
        g = grid1(32)
        p = PhysParams(mu=0.2, kappa=0.04)
        acc = DiagnosticsAccumulator(p)
        s = PrimitiveState(field(g, lambda x: np.full_like(x, 2.0)), (field(g, np.zeros_like),))
        assert [acc([s], [t])[0].jungel for t in (0.0, 0.5, 1.0)] == [0.0, 0.0, 0.0]

    def test_heat_profile_matches_trapezoid_of_exact_rate(self):
        # rho(t) = (1 + 0.3 e^-t cos x)^2 has Lap sqrt(rho) = -0.3 e^-t cos x,
        # so the rate is 0.09 e^-2t pi exactly on the grid.
        g = grid1(64)
        p = PhysParams(mu=0.2, kappa=0.04)
        ts = np.linspace(0.0, 1.0, 9)
        acc = DiagnosticsAccumulator(p)
        records = [acc([PrimitiveState(
            field(g, lambda x, t=t: (1.0 + 0.3 * math.exp(-t) * np.cos(x)) ** 2),
            (field(g, np.zeros_like),))], [t])[0] for t in ts]
        exact_rates = 0.09 * np.exp(-2.0 * ts) * math.pi
        want = float(np.trapezoid(exact_rates, ts))
        assert abs(records[-1].jungel - want) < 1e-12 * want

    def test_fine_grid_approaches_closed_form(self):
        g = grid1(64)
        p = PhysParams(mu=0.2, kappa=0.04)
        ts = np.linspace(0.0, 1.0, 201)
        acc = DiagnosticsAccumulator(p)
        records = [acc([PrimitiveState(
            field(g, lambda x, t=t: (1.0 + 0.3 * math.exp(-t) * np.cos(x)) ** 2),
            (field(g, np.zeros_like),))], [t])[0] for t in ts]
        want = 0.09 * math.pi * (1.0 - math.exp(-2.0)) / 2.0
        assert abs(records[-1].jungel - want) < 1e-4 * want
        # prefixes are nondecreasing
        partial = [records[i].jungel for i in (0, 50, 100, 200)]
        assert all(b >= a for a, b in zip(partial, partial[1:]))


class TestSqrtH1:
    def test_equilibrium_zero(self):
        g = grid1(32)
        assert sqrt_h1_norm(field(g, lambda x: np.full_like(x, 1.3)), 1.3) < 1e-14

    def test_closed_form(self):
        # rho = rb (1 + 0.1 sin x)^2: both halves equal 0.1 sqrt(rb pi).
        g = grid1(128)
        rb = 1.3
        rho = field(g, lambda x: rb * (1.0 + 0.1 * np.sin(x)) ** 2)
        want = 0.2 * math.sqrt(rb) * math.sqrt(math.pi)
        assert abs(sqrt_h1_norm(rho, rb) - want) < 1e-12

    def test_rejects_vacuum(self):
        g = grid1(32)
        with pytest.raises(DomainError):
            sqrt_h1_norm(field(g, np.sin), 1.0)


class TestRecordOracle:
    """The record's derivative functionals against quadratures of
    derivatives taken with numpy.fft in the full layout: d_j with the
    unpaired Nyquist mode zeroed, the Laplacian with it kept. A record
    takes the functionals of sqrt(rho) as sums over its half spectrum and
    the gradient of the velocity the state does not hold from the Hessian
    of ln(rho) (of q)."""

    P = PhysParams(mu=0.15, kappa=0.05, a=0.9, rho_bar=1.3)

    @classmethod
    def _state(cls, dim, data, formulation):
        p, g = cls.P, Grid(dim, 32 if dim == 2 else 64)
        if data == "bandlimited":
            s = build(Preset("random_bandlimited", amplitude=0.2, seed=4), g, p)
        else:
            # an explicit Nyquist mode of the first axis in rho and in u
            x = g.x
            nyq = np.cos(g.n // 2 * x[0]) * (1.0 + 0.5 * np.cos(x[-1]))
            rho = p.rho_bar + 0.2 * np.sin(x[0] + 2.0 * x[-1]) + 0.05 * nyq
            u = [0.3 * np.cos(x[i] - x[0]) + 0.02 * nyq for i in range(dim)]
            s = PrimitiveState(RealField(g, rho), tuple(RealField(g, c) for c in u))
        return s if formulation == "primitive" else to_effective(s, p)

    @pytest.mark.parametrize("data", ["bandlimited", "nyquist"])
    @pytest.mark.parametrize("formulation", ["primitive", "effective"])
    @pytest.mark.parametrize("dim", [1, 2])
    def test_record_matches_full_layout_quadratures(self, dim, formulation, data):
        p, s = self.P, self._state(dim, data, formulation)
        g = s.grid
        d, lap = _full_derivatives(g)
        if formulation == "primitive":
            rho, u = s.rho.values, [c.values for c in s.u]
            log = np.log(rho)
            v = [c + p.mu * d(log, i) for i, c in enumerate(u)]
        else:
            q, v = s.q.values, [c.values for c in s.v]
            rho = p.rho_bar * np.exp(q)
            u = [c - p.mu * d(q, i) for i, c in enumerate(v)]
        root = np.sqrt(rho)
        grad_root2 = sum(d(root, j) ** 2 for j in range(dim))
        pot = p.a * (rho * np.log(rho / p.rho_bar) + p.rho_bar - rho)
        strain2 = sum((0.5 * (d(u[i], j) + d(u[j], i))) ** 2
                      for i in range(dim) for j in range(dim))
        want = {
            "energy": g.integrate(0.5 * rho * sum(c * c for c in u) + pot
                                  + 2.0 * p.kappa * grad_root2),
            "dissip_u": g.integrate(2.0 * p.mu * rho * strain2),
            "dissip_v": g.integrate(p.mu * rho * sum(d(c, j) ** 2 for c in v
                                                     for j in range(dim))),
            "jungel": g.integrate(lap(root) ** 2),
            "h1_sqrt": math.sqrt(g.integrate((root - math.sqrt(p.rho_bar)) ** 2))
            + math.sqrt(g.integrate(grad_root2)),
        }
        # two records of one state a unit apart: each accumulated rate is
        # the rate itself
        acc = DiagnosticsAccumulator(p)
        acc([s], [0.0])
        rec = acc([s], [1.0])[0]
        for name, value in want.items():
            assert value > 0
            assert abs(getattr(rec, name) - value) <= 1e-13 * value, name

    @pytest.mark.parametrize("dim", [1, 2])
    def test_level_set_gradient_matches_full_layout_quadrature(self, dim):
        # the truncation max(1/rho - k, 0) has kinks, so its spectrum
        # reaches the Nyquist modes
        p, g = PhysParams(mu=0.15, kappa=0.05, rho_bar=1.0), Grid(dim, 32 if dim == 2 else 64)
        d, _ = _full_derivatives(g)
        states = [build(Preset("random_bandlimited", amplitude=0.4, seed=k), g, p)
                  for k in range(3)]
        ts, k = [0.0, 0.4, 1.0], 1.0
        rep = level_set_report(states, ts, p, 1.0, k, r=4.0, q=3.0)
        truncs = [np.maximum(1.0 / s.rho.values - k, 0.0) for s in states]
        grad_sq = [g.integrate(sum(d(t, j) ** 2 for j in range(dim))) for t in truncs]
        sup_l2 = max(math.sqrt(g.integrate(t ** 2)) for t in truncs)
        want = sup_l2 + math.sqrt(float(np.trapezoid(grad_sq, ts)))
        assert min(grad_sq) > 0
        assert abs(rep.q_norm - want) <= 1e-13 * want


class TestAccumulator:
    def test_trapezoid_matches_exact_rates(self):
        g = grid1(64)
        p = PhysParams(mu=0.2, kappa=0.04)
        acc = DiagnosticsAccumulator(p)
        ts = np.linspace(0.0, 1.0, 9)
        recs = []
        for t in ts:
            s = PrimitiveState(
                field(g, lambda x, t=t: (1.0 + 0.3 * math.exp(-t) * np.cos(x)) ** 2),
                (field(g, np.zeros_like),))
            recs.append(acc([s], [float(t)])[0])
        exact_rates = 0.09 * np.exp(-2.0 * ts) * math.pi
        want = float(np.trapezoid(exact_rates, ts))
        assert abs(recs[-1].jungel - want) < 1e-12 * want
        assert recs[0].jungel == 0.0
        js = [r.jungel for r in recs]
        assert all(b >= a for a, b in zip(js, js[1:]))

    def test_instantaneous_fields(self):
        g = grid1(64)
        p = PhysParams(mu=0.2, kappa=0.04)
        s = PrimitiveState(field(g, lambda x: 1.0 + 0.5 * np.cos(x)),
                           (field(g, np.zeros_like),))
        rec = DiagnosticsAccumulator(p)([s], [0.0])[0]
        assert abs(rec.mass - TAU) < 1e-12
        assert abs(rec.min_rho - 0.5) < 1e-14
        assert abs(rec.max_inv_rho - 2.0) < 1e-13
        assert rec.dissip_u == rec.dissip_v == rec.dissip_density == 0.0
        assert set(rec.lp_gain) == {2, 4, 8, 16}

    def test_rejects_backwards_time(self):
        g = grid1(32)
        p = PhysParams(mu=0.2, kappa=0.04)
        s = PrimitiveState(field(g, np.ones_like), (field(g, np.zeros_like),))
        acc = DiagnosticsAccumulator(p)
        acc([s], [0.5])
        with pytest.raises(DomainError):
            acc([s], [0.4])

    @pytest.mark.parametrize("formulation,kappa", [
        pytest.param("primitive", 0.0225, id="primitive"),
        pytest.param("effective", 0.0225, id="effective"),
        pytest.param("effective", 0.04, id="effective-kappa-above-mu2"),
    ])
    @pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)])
    @pytest.mark.parametrize("gamma", [1.0, 1.4])
    def test_record_equals_public_functionals(self, formulation, kappa, dim, n, gamma):
        # The record shares one derived-field set and integrates raw
        # samples; the public (state, params) functionals build their own
        # set. Both must give the same bits.
        p = PhysParams(mu=0.15, kappa=kappa, gamma=gamma, rho_bar=1.3)
        s = build(Preset("random_bandlimited", amplitude=0.2, seed=7), Grid(dim, n), p)
        if formulation == "effective":
            s = to_effective(s, p)
        rec = DiagnosticsAccumulator(p)([s], [0.0])[0]
        rho = s.rho if formulation == "primitive" else RealField(
            s.grid, p.rho_bar * np.exp(s.q.values))
        assert rec.mass == s.grid.integrate(rho.values)
        assert rec.energy == energy(s, p)
        assert rec.bd_entropy == bd_entropy(s, p)
        assert rec.lp_gain == {q: lp_gain_value(s, p, q) for q in (2, 4, 8, 16)}
        assert rec.min_rho == float(np.min(rho.values))
        assert rec.max_inv_rho == float(np.max(1.0 / rho.values))
        assert rec.h1_sqrt == sqrt_h1_norm(rho, p.rho_bar)
        # the accumulated rates are a trapezoid over the public rates
        acc = DiagnosticsAccumulator(p)
        acc([s], [0.0])
        last = acc([s], [0.5])[0]
        assert last.dissip_u == 0.5 * dissip_u_rate(s, p)
        assert last.dissip_v == 0.5 * dissip_v_rate(s, p)
        assert last.dissip_density == 0.5 * dissip_density_rate(s, p)
        assert last.jungel == 0.5 * jungel_rate(s, p)


class TestChunkedRecords:
    # a run hands its recorded states to diag_fn in chunks; every record of
    # a chunk must equal, bit for bit, the record of its state taken alone
    QUANTUM = PhysParams(mu=0.15, kappa=0.0225)
    BUMP = Preset("smooth_bump", amplitude=0.1)

    @staticmethod
    def _records(state, p, cfg):
        """The records of a run, the length of each chunk, and the records
        of the same states and times taken one state at a time."""
        acc, chunks, recorded = DiagnosticsAccumulator(p), [], []

        def diag(states, times):
            chunks.append(len(states))
            recorded.extend(zip(states, times))
            return acc(states, times)

        res = run(state, p, cfg, diag_fn=diag)
        alone = DiagnosticsAccumulator(p)
        return res, chunks, [alone([s], [t])[0] for s, t in recorded]

    @pytest.mark.parametrize("formulation", ["primitive", "effective"])
    @pytest.mark.parametrize("p,preset,n", [
        pytest.param(QUANTUM, BUMP, 128, id="quantum"),
        pytest.param(PhysParams(mu=0.15, kappa=0.0225, a=0.9, gamma=1.4), BUMP, 128,
                     id="gamma-1.4"),
        pytest.param(PhysParams(mu=0.15, kappa=0.04), BUMP, 128, id="kappa-above-mu2"),
        pytest.param(QUANTUM, Preset("random_bandlimited", amplitude=0.05, seed=3), 64,
                     id="noise-64"),
    ])
    @pytest.mark.parametrize("steps,stride", [
        pytest.param(0, 1, id="1-record"),
        pytest.param(20, 1, id="21-records"),
        pytest.param(RECORD_CHUNK - 1, 1, id="bound"),
        pytest.param(RECORD_CHUNK, 1, id="bound+1"),
        pytest.param(10, 3, id="stride-3"),
    ])
    def test_1d_chunks_equal_records_alone(self, formulation, p, preset, n, steps, stride):
        s = build(preset, Grid(1, n), p)
        if formulation == "effective":
            s = to_effective(s, p)
        cfg = SolverConfig(dt=5e-4, t_end=steps * 5e-4, formulation=formulation,
                           diag_stride=stride)
        res, chunks, alone = self._records(s, p, cfg)
        want_rows = -(-steps // stride) + 1  # the final instant is always recorded
        want_chunks = [RECORD_CHUNK] * (want_rows // RECORD_CHUNK) \
            + [want_rows % RECORD_CHUNK] * (want_rows % RECORD_CHUNK > 0)
        assert chunks == want_chunks
        assert [vars(r) for r in res.records] == [vars(r) for r in alone]

    @pytest.mark.parametrize("formulation", ["primitive", "effective"])
    @pytest.mark.parametrize("p", [
        pytest.param(QUANTUM, id="quantum"),
        pytest.param(PhysParams(mu=0.15, kappa=0.0225, a=0.9, gamma=1.4), id="gamma-1.4"),
        pytest.param(PhysParams(mu=0.15, kappa=0.04), id="kappa-above-mu2"),
    ])
    def test_2d_chunks_are_single_states(self, formulation, p):
        s = build(Preset("smooth_bump", amplitude=0.05), Grid(2, 32), p)
        if formulation == "effective":
            s = to_effective(s, p)
        cfg = SolverConfig(dt=5e-4, t_end=3e-3, formulation=formulation, diag_stride=4)
        res, chunks, alone = self._records(s, p, cfg)
        assert chunks == [1, 1, 1]
        assert [vars(r) for r in res.records] == [vars(r) for r in alone]

    def test_chunk_equals_calls_one_state_at_a_time(self):
        # the accumulator itself, fed one chunk or one state per call
        p = PhysParams(mu=0.2, kappa=0.04, a=0.9, gamma=1.4)
        g = grid1(64)
        ts = [0.0, 0.1, 0.1, 0.35]
        states = [PrimitiveState(
            field(g, lambda x, t=t: (1.0 + 0.3 * math.exp(-t) * np.cos(x)) ** 2),
            (field(g, lambda x, t=t: 0.1 * np.sin(x + t)),)) for t in ts]
        chunked = DiagnosticsAccumulator(p)(states, ts)
        single = DiagnosticsAccumulator(p)
        assert [vars(r) for r in chunked] == [vars(single([s], [t])[0])
                                              for s, t in zip(states, ts)]

    def test_empty_chunk_records_nothing(self):
        # an empty call between two chunks has no records and leaves the
        # running integrals where they were
        p = PhysParams(mu=0.2, kappa=0.04, a=0.9, gamma=1.4)
        g = grid1(64)
        ts = [0.0, 0.1, 0.25, 0.35]
        states = [PrimitiveState(
            field(g, lambda x, t=t: 1.0 + 0.3 * math.exp(-t) * np.cos(x)),
            (field(g, lambda x, t=t: 0.1 * np.sin(x + t)),)) for t in ts]
        plain, gapped = DiagnosticsAccumulator(p), DiagnosticsAccumulator(p)
        want = plain(states[:2], ts[:2]) + plain(states[2:], ts[2:])
        got = gapped(states[:2], ts[:2])
        assert gapped([], []) == []
        got += gapped(states[2:], ts[2:])
        assert [vars(r) for r in got] == [vars(r) for r in want]

    def test_backwards_time_inside_a_chunk_rejected(self):
        g = grid1(32)
        p = PhysParams(mu=0.2, kappa=0.04)
        s = PrimitiveState(field(g, np.ones_like), (field(g, np.zeros_like),))
        with pytest.raises(DomainError):
            DiagnosticsAccumulator(p)([s, s, s], [0.0, 0.5, 0.4])

    def test_stacked_functionals_return_one_value_per_state(self):
        p = self.QUANTUM
        g = grid1(64)
        states = [build(Preset("random_bandlimited", amplitude=0.05, seed=k), g, p)
                  for k in range(3)]
        f = _Fields(states, p)
        for fn in (energy, bd_entropy, dissip_u_rate, dissip_v_rate,
                   dissip_density_rate, jungel_rate):
            got = fn(f, p)
            assert got.shape == (3,)
            assert got.tolist() == [fn(s, p) for s in states]
            assert all(type(fn(s, p)) is float for s in states)


@pytest.fixture(scope="module")
def quantum_run():
    # kappa = mu^2 small-data run; both dissipation inequalities are exact
    # identities for this coupling so the combined check must pass.
    g = grid1(128)
    p = PhysParams(mu=0.15, kappa=0.0225, a=1.0)
    s = PrimitiveState(field(g, lambda x: 1.0 + 0.2 * np.cos(x)),
                       (field(g, lambda x: 0.1 * np.sin(x)),))
    cfg = SolverConfig(dt=5e-4, t_end=0.5, formulation="primitive", diag_stride=25)
    res = run(s, p, cfg, diag_fn=DiagnosticsAccumulator(p))
    return p, res


class TestEnergyInequality:
    def test_quantum_run_passes(self, quantum_run):
        p, res = quantum_run
        verdict = check_energy_inequality(res.records, tol=1e-4)
        assert verdict.ok
        recs = res.records
        assert recs[-1].dissip_u > 1e-6
        assert recs[-1].energy + recs[-1].dissip_u <= recs[0].energy * (1 + 1e-4)

    def test_supercritical_capillarity_breaks_entropy_half(self):
        # With kappa > mu^2 the entropy-side budget has an extra unsigned
        # capillary term; the energy side still closes.
        g = grid1(128)
        p = PhysParams(mu=0.15, kappa=0.09, a=1.0)
        s = PrimitiveState(field(g, lambda x: 1.0 + 0.2 * np.cos(x)),
                           (field(g, np.zeros_like),))
        cfg = SolverConfig(dt=5e-4, t_end=1.0, formulation="primitive", diag_stride=50)
        res = run(s, p, cfg, diag_fn=DiagnosticsAccumulator(p))
        verdict = check_energy_inequality(res.records, tol=1e-4)
        assert not verdict.ok
        assert "entropy" in verdict.detail
        e0 = res.records[0].energy
        worst = max(r.energy + r.dissip_u for r in res.records)
        assert worst <= e0 * (1 + 1e-4)

    def test_detects_tampered_dissipation(self, quantum_run):
        p, res = quantum_run
        bad = [dataclasses.replace(r, dissip_u=-r.dissip_u) for r in res.records]
        verdict = check_energy_inequality(bad)
        assert not verdict.ok
        assert "dissip_u" in verdict.detail
        assert verdict.first_violation_t == res.records[1].t

    def test_detects_energy_injection(self, quantum_run):
        p, res = quantum_run
        bad = list(res.records[:-1])
        bad.append(dataclasses.replace(res.records[-1],
                                       energy=res.records[0].energy * 1.01))
        verdict = check_energy_inequality(bad)
        assert not verdict.ok
        assert "energy" in verdict.detail
        assert verdict.first_violation_t == bad[-1].t

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    @pytest.mark.parametrize("stat", ["energy", "bd_entropy", "dissip_v"])
    def test_non_finite_statistic_fails(self, quantum_run, stat, bad):
        # every record non-finite: no comparison with the first record holds
        p, res = quantum_run
        recs = [dataclasses.replace(r, **{stat: bad}) for r in res.records]
        verdict = check_energy_inequality(recs)
        assert not verdict.ok
        assert verdict.detail == f"non-finite statistic at t={recs[0].t}"

    def test_empty_series_rejected(self):
        with pytest.raises(DomainError):
            check_energy_inequality([])


class TestCsv:
    def test_schema_and_roundtrip(self, quantum_run, tmp_path):
        import csv

        p, res = quantum_run
        path = tmp_path / "series.csv"
        write_csv(res.records, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == list(CSV_COLUMNS)
        assert len(rows) == len(res.records) + 1
        for row, rec in zip(rows[1:], res.records):
            assert len(row) == len(CSV_COLUMNS)
            assert float(row[0]) == rec.t
            assert float(row[1]) == rec.mass
            assert float(row[11]) == rec.lp_gain[4]

    def test_row_format_equals_per_value_join(self, quantum_run, tmp_path):
        # one % format per row writes the bytes that one "%.17g" per value,
        # joined by commas, wrote: for the run's records and for nan (a
        # missing gain), +-inf, -0.0 and the smallest subnormal, as Python
        # floats and as numpy scalars
        _, res = quantum_run
        odd = [math.nan, math.inf, -math.inf, -0.0, 5e-324, np.float64(-0.0),
               np.float64(5e-324), np.float64(math.inf)]
        recs = list(res.records) + [
            record(0.5, {4: v, 16: -v}, e=v, b=-v, mass=np.float64(1.0), min_rho=v,
                   h1_sqrt=np.float64(-0.0))
            for v in odd]
        path = tmp_path / "series.csv"
        write_csv(recs, path)
        want = [",".join(CSV_COLUMNS)]
        for rec in recs:
            values = [getattr(rec, c) for c in CSV_COLUMNS if not c.startswith("lp_gain_p")]
            values += [rec.lp_gain.get(k, math.nan) for k in (4, 8, 16)]
            want.append(",".join("%.17g" % v for v in values))
        assert path.read_bytes() == ("\n".join(want) + "\n").encode()
        assert b"nan" in path.read_bytes() and b"-inf" in path.read_bytes()
        assert b"-0," in path.read_bytes() and b"4.9406564584124654e-324" in path.read_bytes()

    def test_deterministic_bytes(self, quantum_run, tmp_path):
        p, res = quantum_run
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_csv(res.records, a)
        write_csv(res.records, b)
        assert a.read_bytes() == b.read_bytes()


class TestLpGain:
    def test_initial_time_bound(self):
        recs = [record(0.0, {2: 0.4, 4: 0.3})]
        p = PhysParams(mu=0.2, kappa=0.04, a=0.8)
        rep = lp_gain_check(recs, 4, p, dim=1)
        assert rep.verdict
        assert abs(rep.rhs[0] - 2.0 ** 0.25 * 0.3) < 1e-14

    def test_p4_constants_simplify(self):
        # At p = 4 the additive bracket keeps only the 16 N^2 term and the
        # exponential keeps coefficient 1.
        a = 0.8
        p = PhysParams(mu=0.2, kappa=0.04, a=a)
        recs = [record(0.0, {2: 0.5, 4: 0.3}), record(0.5, {2: 0.7, 4: 0.31})]
        rep = lp_gain_check(recs, 4, p, dim=1)
        B, T, a2 = 0.7, 0.5, a * a / 2.0
        bracket = 0.3 + B ** 0.5 * a2 ** 0.25 * 16.0 ** 0.25 * T ** 0.25
        for t, r in zip((0.0, 0.5), rep.rhs):
            want = 2.0 ** 0.25 * bracket * math.exp(B ** 2 * a2 * t / 4.0)
            assert abs(r - want) < 1e-12
        assert rep.verdict

    def test_violation_detected(self):
        p = PhysParams(mu=0.2, kappa=0.04, a=0.8)
        recs = [record(0.0, {2: 0.5, 4: 0.3}), record(0.5, {2: 0.7, 4: 50.0})]
        assert not lp_gain_check(recs, 4, p, dim=1).verdict

    def test_overflowing_record_fails(self):
        # a finite state whose |v|^16 overflows: the record keeps the inf,
        # and an inf series must not meet its own inf bound
        g = grid1(64)
        p = PhysParams(mu=0.15, kappa=0.0225)
        s = PrimitiveState(field(g, lambda x: 1.0 + 0.1 * np.cos(x)),
                           (field(g, lambda x: 1e20 * np.sin(x)),))
        acc = DiagnosticsAccumulator(p)
        with np.errstate(over="ignore"):
            recs = [acc([s], [0.0])[0], acc([s], [0.01])[0]]
        assert recs[0].lp_gain[16] == math.inf
        assert lp_gain_check(recs, 16, p, dim=1).verdict is False

    def test_overflowing_bound_is_inf(self):
        # at p = 4 the Gronwall rate is about 3e40 on this state, so the
        # bound's exponential overflows at t = 0.01: inf, said in the note
        g = grid1(64)
        p = PhysParams(mu=0.15, kappa=0.0225)
        s = PrimitiveState(field(g, lambda x: 1.0 + 0.1 * np.cos(x)),
                           (field(g, lambda x: 1e20 * np.sin(x)),))
        acc = DiagnosticsAccumulator(p)
        with np.errstate(over="ignore"):
            recs = [acc([s], [0.0])[0], acc([s], [0.01])[0]]
        rep = lp_gain_check(recs, 4, p, dim=1)
        assert math.isfinite(rep.rhs[0]) and rep.rhs[1] == math.inf
        assert "overflows" in rep.note
        assert rep.verdict is True

    @pytest.mark.parametrize("a", [0.8, 1e200])
    def test_overflowing_power_is_inf(self, a):
        # (1e200)^(4/(p-2)) at p = 4, or a^2 for a huge a, overflows a float
        # power: each factor is inf, not an OverflowError, the bound at t = 0
        # is 2^(1/p) times the bracket, and after it the bound is inf
        p = PhysParams(mu=0.2, kappa=0.04, a=a)
        recs = [record(0.0, {2: 1e200, 4: 0.3}), record(0.5, {2: 1e200, 4: 0.31})]
        rep = lp_gain_check(recs, 4, p, dim=1)
        assert rep.rhs[1] == math.inf
        assert rep.note == "the bound overflows to inf"
        if a < 1:
            bracket = 0.3 + 1e100 * (a * a / 2.0) ** 0.25 * 16.0 ** 0.25 * 0.5 ** 0.25
            assert rep.rhs[0] == pytest.approx(2.0 ** 0.25 * bracket, rel=1e-14)
            assert rep.verdict is True
        else:
            assert rep.rhs[0] == math.inf

    def test_no_pressure_no_growth(self):
        # a = 0: the rate is 0 however large the statistic, and the bound is
        # 2^(1/p) times the initial value at every time
        p = PhysParams(mu=0.2, kappa=0.04, a=0.0)
        recs = [record(0.0, {2: 1e200, 4: 0.3}), record(0.5, {2: 1e200, 4: 0.31})]
        rep = lp_gain_check(recs, 4, p, dim=1)
        assert rep.rhs == [2.0 ** 0.25 * 0.3] * 2
        assert rep.note == ""
        assert rep.verdict is True

    @pytest.mark.parametrize("p_exp", [4, 8, 16])
    def test_small_data_run_obeys_bound(self, quantum_run, p_exp):
        params, res = quantum_run
        rep = lp_gain_check(res.records, p_exp, params, dim=1)
        assert rep.verdict
        assert len(rep.lhs) == len(rep.rhs) == len(res.records)

    def test_nonlinear_pressure_measured_only(self):
        p = PhysParams(mu=0.2, kappa=0.04, a=0.8, gamma=1.4)
        recs = [record(0.0, {2: 0.5, 4: 0.3})]
        rep = lp_gain_check(recs, 4, p, dim=1)
        assert rep.verdict is None
        assert rep.rhs == []
        assert "gamma" in rep.note

    def test_small_exponent_rejected(self):
        p = PhysParams(mu=0.2, kappa=0.04)
        with pytest.raises(ConfigurationError):
            lp_gain_check([record(0.0, {2: 0.5, 3: 0.3})], 3, p, dim=1)

    def test_missing_base_statistic(self):
        p = PhysParams(mu=0.2, kappa=0.04)
        with pytest.raises(DomainError):
            lp_gain_check([record(0.0, {4: 0.3})], 4, p, dim=1)

    @pytest.mark.parametrize("gamma", [1.0, 1.4])
    def test_missing_exponent(self, gamma):
        p = PhysParams(mu=0.2, kappa=0.04, gamma=gamma)
        recs = [record(0.0, {2: 0.5, 4: 0.3, 8: 0.3, 16: 0.3})]
        with pytest.raises(DomainError, match="p=32"):
            lp_gain_check(recs, 32, p, dim=1)


def make_states(g, rhos):
    return [PrimitiveState(RealField(g, r), (RealField(g, np.zeros(g.shape)),))
            for r in rhos]


class TestLevelSets:
    def test_constant_density_indicator(self):
        g = grid1(64)
        p = PhysParams(mu=0.2, kappa=0.04)
        ts = [0.0, 1.0]
        low = make_states(g, [np.full(g.shape, 0.5)] * 2)   # 1/rho = 2 >= 1.5
        high = make_states(g, [np.full(g.shape, 2.0)] * 2)  # 1/rho = 0.5 < 1.5
        rep = level_set_report(low, ts, p, alpha=1.0, k=1.5, r=4.0, q=3.0)
        assert np.allclose(rep.measures, TAU)
        rep2 = level_set_report(high, ts, p, alpha=1.0, k=1.5, r=4.0, q=3.0)
        assert np.all(rep2.measures == 0.0)
        assert rep2.mu_k == 0.0 and rep2.q_norm == 0.0

    def test_brute_force_measures(self):
        g = grid1(64)
        p = PhysParams(mu=0.2, kappa=0.04)
        rng = np.random.default_rng(11)
        rhos = [0.5 + rng.random(g.shape) for _ in range(4)]
        ts = [0.0, 0.1, 0.3, 0.6]
        alpha, k = 1.2, 1.3
        rep = level_set_report(make_states(g, rhos), ts, p, alpha, k, r=4.0, q=3.0)
        for i, r in enumerate(rhos):
            count = sum(1 for val in r if val ** (-alpha) >= k)
            assert rep.measures[i] == g.cell_volume * count
        want_mu = float(np.trapezoid(rep.measures ** (rep.r1 / rep.q1), ts))
        assert rep.mu_k == want_mu

    def test_exponent_bookkeeping(self):
        g = grid1(32)
        p = PhysParams(mu=0.2, kappa=0.04)
        states = make_states(g, [np.full(g.shape, 0.5)] * 2)
        rep = level_set_report(states, [0.0, 1.0], p, alpha=1.0, k=1.0, r=4.0, q=3.0)
        assert abs(rep.kappa1 - (1.0 - 0.25 - 1.0 / 6.0)) < 1e-15
        assert abs(rep.kappa - 2.0 * rep.kappa1) < 1e-15
        assert abs(rep.r1 - 8.0 / 3.0) < 1e-15
        assert abs(rep.q1 - 3.0) < 1e-15
        assert rep.mu_exponent == rep.r1 / rep.q1
        assert rep.mu_exponent_hypothesis == 1.0 / rep.r1

    def test_monotone_in_level(self):
        g = grid1(64)
        p = PhysParams(mu=0.2, kappa=0.04)
        rng = np.random.default_rng(3)
        rhos = [0.4 + rng.random(g.shape) for _ in range(3)]
        ts = [0.0, 0.5, 1.0]
        reps = [level_set_report(make_states(g, rhos), ts, p, 1.0, k, 4.0, 3.0)
                for k in (1.0, 1.2, 1.5, 2.0, 3.0)]
        for a, b in zip(reps, reps[1:]):
            assert np.all(b.measures <= a.measures)
            assert b.mu_k <= a.mu_k
            assert b.q_norm <= a.q_norm

    @pytest.mark.parametrize("kwargs", [
        dict(alpha=1.0, k=0.5, r=4.0, q=3.0),    # level below 1
        dict(alpha=0.0, k=1.5, r=4.0, q=3.0),    # alpha
        dict(alpha=1.0, k=1.5, r=1.0, q=3.0),    # r at 1
        dict(alpha=1.0, k=1.5, r=1.05, q=1.05),  # relation leaves (0,1)
    ])
    def test_invalid_configurations(self, kwargs):
        g = grid1(32)
        p = PhysParams(mu=0.2, kappa=0.04)
        states = make_states(g, [np.ones(g.shape)] * 2)
        with pytest.raises(ConfigurationError):
            level_set_report(states, [0.0, 1.0], p, **kwargs)


class TestDeGiorgi:
    def test_frozen_threshold_and_envelope(self):
        rep = degiorgi_recursion(c=1.0, b=2.0, eps=1.0, y0=0.4, n_max=6)
        assert rep.theta == 0.5
        assert rep.vanishes
        assert np.allclose(rep.decay_envelope, 0.5 * 2.0 ** -np.arange(7.0))
        assert np.all(rep.bounds[1:] <= rep.decay_envelope[1:] + 1e-15)

    def test_bound_saturates_exact_recursion(self):
        # For y_{n+1} = c b^n y_n^(1+eps) the closed form is an equality.
        c, b, eps, y0 = 0.7, 2.0, 0.5, 0.3
        rep = degiorgi_recursion(c, b, eps, y0, n_max=12)
        log_y = math.log(y0)
        for n in range(13):
            assert abs(rep.log_bounds[n] - log_y) < 1e-9
            log_y = math.log(c) + n * math.log(b) + (1.0 + eps) * log_y

    def test_zero_start(self):
        rep = degiorgi_recursion(1.0, 2.0, 1.0, 0.0, 4)
        assert rep.vanishes
        assert np.all(rep.bounds == 0.0)

    def test_no_geometric_gain_withholds_verdict(self):
        rep = degiorgi_recursion(1.0, 1.0, 1.0, 1e-6, 4)
        assert not rep.vanishes
        assert rep.decay_envelope is None

    def test_above_threshold(self):
        assert not degiorgi_recursion(1.0, 2.0, 1.0, 0.6, 4).vanishes

    @pytest.mark.parametrize("bad", [
        dict(c=0.0, b=2.0, eps=1.0, y0=0.1),
        dict(c=1.0, b=0.5, eps=1.0, y0=0.1),
        dict(c=1.0, b=2.0, eps=0.0, y0=0.1),
        dict(c=1.0, b=2.0, eps=1.0, y0=-0.1),
    ])
    def test_invalid(self, bad):
        with pytest.raises(ConfigurationError):
            degiorgi_recursion(n_max=4, **bad)


class TestVacuumBound:
    def test_dissipation_constant_values(self):
        assert dissipation_constant(1.0, 0.5) == 24.0
        assert abs(dissipation_constant(-0.5, 1.0) - 1.5) < 1e-15

    def test_formula_scales_with_initial_level(self):
        kw = dict(gamma_dg=0.8, t1=0.5, kappa=1.0, r1=8.0 / 3.0, q1=4.0,
                  q3=2.0, sqrt_norm=0.2, rho_bar=4.0)
        one = vacuum_bound_formula(khat0=1.5, **kw)
        two = vacuum_bound_formula(khat0=3.0, **kw)
        assert abs(two - 2.0 * one) < 1e-12 * one

    def test_formula_rejects_low_reference(self):
        with pytest.raises(DomainError):
            vacuum_bound_formula(1.0, 0.8, 0.5, 1.0, 8.0 / 3.0, 4.0, 2.0, 0.2, 1.0)

    def test_constant_density_trajectory(self):
        g = grid1(64)
        p = PhysParams(mu=0.2, kappa=0.04, rho_bar=4.0)
        states = make_states(g, [np.full(g.shape, 4.0)] * 3)
        rep = vacuum_bound_estimate(states, [0.0, 0.5, 1.0], p, q_exp=2.0, t1=1.0)
        assert abs(rep.measured - 0.25) < 1e-14
        assert abs(rep.bound - 2.0) < 1e-12  # sqrt_norm = 0 kills the tail
        assert rep.consistent
        assert abs(rep.r - 4.0) < 1e-14
        assert abs(rep.r1 - 8.0 / 3.0) < 1e-14
        assert abs(rep.q1 - 4.0) < 1e-14
        assert rep.kappa == 1.0

    def test_small_data_run_consistent(self):
        g = grid1(64)
        p = PhysParams(mu=0.15, kappa=0.0225, rho_bar=4.0)
        s = PrimitiveState(field(g, lambda x: 4.0 + 0.2 * np.cos(x)),
                           (field(g, lambda x: 0.1 * np.sin(x)),))
        cfg = SolverConfig(dt=1e-3, t_end=0.25, formulation="primitive",
                           diag_stride=25)
        res = run(s, p, cfg, diag_fn=lambda states, times: states)
        rep = vacuum_bound_estimate(res.records, res.diag_times, p,
                                    q_exp=2.0, t1=0.25)
        assert rep.consistent
        assert rep.measured < 0.27
        assert rep.gamma_dg > 0.0

    def test_exponent_below_dimension_rejected(self):
        g = grid1(32)
        p = PhysParams(mu=0.2, kappa=0.04, rho_bar=4.0)
        states = make_states(g, [np.full(g.shape, 4.0)] * 2)
        with pytest.raises(ConfigurationError):
            vacuum_bound_estimate(states, [0.0, 1.0], p, q_exp=1.0, t1=1.0)

    def test_horizon_violation_rejected(self):
        g = grid1(32)
        p = PhysParams(mu=0.2, kappa=0.04, rho_bar=4.0)
        states = make_states(g, [np.full(g.shape, 4.0)] * 2)
        with pytest.raises(DomainError):
            vacuum_bound_estimate(states, [0.0, 1.0], p, q_exp=2.0, t1=2.0)
