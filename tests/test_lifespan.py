import math

import numpy as np
import pytest

from capns.errors import ConfigurationError, ScheduleStall
from capns.fields import Grid, RealField
from capns.lifespan import (
    BRANCH_NAMES,
    LifespanInputs,
    branch_values,
    calibrate_c1,
    epsilon_from_data,
    lifespan_lower_bound,
    lifespan_report,
    norms_for_data,
    restart_schedule,
)

UNIT = LifespanInputs(1.0, 1.0, 1.0, 1.0)


def random_inputs(rng):
    return LifespanInputs(*(rng.uniform(0.1, 3.0) for _ in range(4)),
                          C=rng.uniform(0.5, 2.0), C1=rng.uniform(0.5, 2.0),
                          c=rng.uniform(0.5, 2.0), mu=rng.uniform(0.05, 1.0),
                          eps=rng.uniform(0.1, 1.0), eps_prime=rng.uniform(0.1, 1.0))


class TestLowerBound:
    def test_unit_reference_value(self):
        t, branch = lifespan_lower_bound(UNIT)
        want = 1.0 / (32.0 * (1.0 + math.sqrt(2.0)) ** 2)
        assert abs(t - want) < 1e-12 * want
        assert abs(t - 5.361652352e-3) < 1e-6 * t
        assert branch == "data_size"

    def test_unit_branch_values(self):
        vals = branch_values(UNIT)
        assert vals["q_regularity"] == vals["v_regularity"] == 2.0 / 64.0
        assert vals["iteration_window"] == 0.25
        assert set(vals) == set(BRANCH_NAMES)

    def test_zero_data_falls_back_to_window(self):
        t, branch = lifespan_lower_bound(LifespanInputs(0.0, 0.0, 0.0, 0.0, C1=0.8))
        assert t == 0.2
        assert branch == "iteration_window"

    def test_partial_zero_norms(self):
        vals = branch_values(LifespanInputs(0.0, 1.0, 0.0, 1.0))
        assert vals["q_regularity"] == math.inf
        assert np.isfinite(vals["v_regularity"])
        assert np.isfinite(vals["data_size"])

    def test_monotone_under_norm_growth(self):
        rng = np.random.default_rng(17)
        fields = ("norm_q0_crit", "norm_v0_crit", "norm_q0_sur", "norm_v0_sur")
        import dataclasses
        for _ in range(200):
            inp = random_inputs(rng)
            t0, _ = lifespan_lower_bound(inp)
            name = fields[rng.integers(0, 4)]
            bigger = dataclasses.replace(
                inp, **{name: getattr(inp, name) * (1.0 + rng.uniform(0.0, 2.0))})
            t1, _ = lifespan_lower_bound(bigger)
            assert t1 <= t0 + 1e-15

    def test_active_branch_is_the_minimum(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            inp = random_inputs(rng)
            t, active = lifespan_lower_bound(inp)
            vals = branch_values(inp)
            assert vals[active] == t
            rest = min(v for k, v in vals.items() if k != active)
            assert rest >= t

    def test_surcritical_scaling_in_c_mu(self):
        # q-regularity active: huge surcritical q norm, tiny everything else.
        base = dict(norm_q0_crit=1e-8, norm_v0_crit=1e-8, norm_q0_sur=50.0,
                    norm_v0_sur=1e-8, C1=100.0, eps_prime=0.5)
        t1, b1 = lifespan_lower_bound(LifespanInputs(c=1.0, mu=1.0, **base))
        t2, b2 = lifespan_lower_bound(LifespanInputs(c=2.0, mu=1.0, **base))
        assert b1 == b2 == "q_regularity"
        # exponent 2/eps_prime - 1 = 3
        assert abs(t2 / t1 - 8.0) < 1e-12

    @pytest.mark.parametrize("bad", [
        dict(norm_q0_crit=-1.0),
        dict(norm_v0_sur=math.nan),
        dict(C=0.0),
        dict(C1=-2.0),
        dict(mu=0.0),
        dict(eps=0.0),
        dict(eps_prime=0.0),
        dict(eps_prime=1.2),
        dict(C=True),
        dict(eps_prime=True),
    ])
    def test_invalid_inputs(self, bad):
        kw = dict(norm_q0_crit=1.0, norm_v0_crit=1.0, norm_q0_sur=1.0,
                  norm_v0_sur=1.0)
        kw.update(bad)
        with pytest.raises(ConfigurationError):
            LifespanInputs(**kw)

    def test_lebesgue_exponent_window(self):
        ok = LifespanInputs(1.0, 1.0, 1.0, 1.0, eps_prime=0.25, p=1.7, dim=1)
        assert ok.p == 1.7
        with pytest.raises(ConfigurationError):
            LifespanInputs(1.0, 1.0, 1.0, 1.0, eps_prime=0.25, p=2.5, dim=1)
        with pytest.raises(ConfigurationError):
            LifespanInputs(1.0, 1.0, 1.0, 1.0, eps_prime=0.25, p=1.2, dim=1)

    def test_report_structure(self):
        rep = lifespan_report(UNIT)
        assert set(rep) == {"inputs", "branches", "active_branch", "lower_bound"}
        assert set(rep["branches"]) == set(BRANCH_NAMES)
        assert rep["active_branch"] == "data_size"
        assert rep["lower_bound"] == min(rep["branches"].values())
        assert rep["inputs"]["norm_q0_crit"] == 1.0


class TestEpsilonFromData:
    def test_reference_values(self):
        assert epsilon_from_data(0.0, 1.0) == 0.25
        assert abs(epsilon_from_data(1.0, 1.0) - 1.0 / 16.0) < 1e-15

    def test_monotone_decreasing(self):
        vals = [epsilon_from_data(a, 1.0) for a in (0.0, 0.1, 0.5, 1.0, 4.0)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("a0,c1", [(-1.0, 1.0), (math.inf, 1.0), (1.0, 0.0)])
    def test_invalid(self, a0, c1):
        with pytest.raises(ConfigurationError):
            epsilon_from_data(a0, c1)


class TestRestartSchedule:
    def test_constant_norms_arithmetic_progression(self):
        sched = restart_schedule(lambda t: UNIT, horizon=0.05)
        t_ref, _ = lifespan_lower_bound(UNIT)
        times = [t for t, _ in sched]
        bounds = [b for _, b in sched]
        assert all(abs(b - t_ref) < 1e-15 for b in bounds)
        steps = np.diff(times)
        assert np.allclose(steps, 0.5 * t_ref, rtol=1e-12)
        assert times[-1] < 0.05 <= times[-1] + 0.5 * t_ref

    def test_growing_norms_shrink_steps(self):
        def fn(t):
            s = 1.0 + 5.0 * t
            return LifespanInputs(s, s, s, s)

        sched = restart_schedule(fn, horizon=0.02)
        steps = np.diff([t for t, _ in sched])
        assert len(steps) >= 2
        assert np.all(np.diff(steps) < 0)

    def test_zero_horizon(self):
        assert restart_schedule(lambda t: UNIT, horizon=0.0) == []

    def test_stall_below_floor(self):
        huge = LifespanInputs(1e12, 1e12, 1e12, 1e12)
        with pytest.raises(ScheduleStall) as exc:
            restart_schedule(lambda t: huge, horizon=1.0)
        assert exc.value.t == 0.0
        assert exc.value.bound < exc.value.floor == 1e-10

    @pytest.mark.parametrize("kw", [
        dict(horizon=-1.0), dict(horizon=math.inf),
        dict(horizon=1.0, fraction=0.0), dict(horizon=1.0, fraction=1.5),
        dict(horizon=1.0, floor=0.0),
    ])
    def test_invalid(self, kw):
        with pytest.raises(ConfigurationError):
            restart_schedule(lambda t: UNIT, **kw)


def wave_data(amplitude, n=64):
    g = Grid(dim=1, n=n)
    x = g.x[0]
    return (RealField(g, amplitude * np.cos(x)),
            (RealField(g, amplitude * np.sin(x)),))


class TestNormsForData:
    def test_zero_data(self):
        g = Grid(dim=1, n=32)
        zero = RealField(g, np.zeros(g.shape))
        inp = norms_for_data(zero, (zero,), C1=0.8)
        assert inp.a0 == 0.0
        t, branch = lifespan_lower_bound(inp)
        assert (t, branch) == (0.2, "iteration_window")

    def test_norms_are_homogeneous(self):
        q1, v1 = wave_data(1e-3)
        q2, v2 = wave_data(2e-3)
        a = norms_for_data(q1, v1, eps=1.0)
        b = norms_for_data(q2, v2, eps=1.0)
        for name in ("norm_q0_crit", "norm_v0_crit", "norm_q0_sur", "norm_v0_sur"):
            assert abs(getattr(b, name) - 2.0 * getattr(a, name)) \
                < 1e-12 * getattr(b, name)

    def test_default_exponent_in_window(self):
        q0, v0 = wave_data(1e-3)
        inp = norms_for_data(q0, v0, eps_prime=0.25)
        assert 1.0 / (1.0 - 0.25) < inp.p < 2.0
        assert inp.dim == 1

    def test_default_eps_from_measured_size(self):
        q0, v0 = wave_data(1e-3)
        inp = norms_for_data(q0, v0, C1=2.0)
        assert abs(inp.eps - epsilon_from_data(inp.a0, 2.0) ** 2) < 1e-15

    def test_no_room_for_exponent(self):
        q0, v0 = wave_data(1e-3)
        with pytest.raises(ConfigurationError):
            norms_for_data(q0, v0, eps_prime=0.6)


class TestCalibration:
    def test_calibrated_window_supports_contraction(self):
        from capns.model import PhysParams
        from capns.solver import PicardConfig, picard_solve

        c1 = calibrate_c1()
        assert np.isfinite(c1) and c1 > 0
        q0, v0 = wave_data(1e-3)
        inp = norms_for_data(q0, v0, mu=0.15, C1=c1, eps=1.0)
        t_pred, _ = lifespan_lower_bound(inp)
        assert 0 < t_pred < 1.0
        params = PhysParams(mu=0.15, kappa=0.0225, a=1.0, gamma=1.0)
        res = picard_solve(q0, v0, params, t_pred,
                           PicardConfig(max_iters=12, tol=1e-30, n_steps=64))
        ds = res.diff_norms
        ratios = [ds[i + 1] / ds[i] for i in range(len(ds) - 1) if ds[i] > 0]
        assert sum(1 for r in ratios[:8] if r < 1.0) >= 5

    @pytest.mark.parametrize("edge,probes,c1", [
        pytest.param(2.8, [0.25, 0.5, 1, 2, 4, 3, 2.5, 2.75, 2.875], 11.0, id="doubling"),
        pytest.param(0.05, [0.25, 0.125, 0.0625, 0.03125, 0.046875, 0.0546875,
                            0.05078125, 0.048828125], 0.1953125, id="halving"),
        pytest.param(math.inf, [0.25 * 2.0 ** k for k in range(24)], 8388608.0, id="cap"),
        pytest.param(0.0, [0.25 * 0.5 ** k for k in range(24)], None, id="never"),
    ])
    def test_bracketing(self, monkeypatch, edge, probes, c1):
        # one loop doubles T from 0.25 while the iteration contracts and
        # halves it while it does not, up to the first change of verdict,
        # then bisects; a stub iteration contracts below a given edge
        from types import SimpleNamespace

        from capns import solver

        seen = []

        def stub(q0, v0, params, T, pcfg):
            seen.append(T)
            return SimpleNamespace(converged=T < edge)

        monkeypatch.setattr(solver, "picard_solve", stub)
        if c1 is None:
            with pytest.raises(ConfigurationError, match="never contracts"):
                calibrate_c1()
        else:
            assert calibrate_c1() == c1
        assert seen == probes
