import io
import math
import os
import zipfile

import numpy as np
import pytest
from conftest import full_layout

from capns.errors import ConfigurationError, NonContraction, NumericBlowup, VacuumBreach
from capns.fields import Grid, RealField
from capns.lp_besov import BesovSpec, tilde_norm
from capns.model import (
    EffectiveState,
    PhysParams,
    PrimitiveState,
    rhs_effective,
    rhs_primitive,
    to_effective,
)
from capns.presets import Preset, build
from capns.solver import (
    PicardConfig,
    PicardResult,
    SolverConfig,
    load_checkpoint,
    picard_solve,
    run,
    save_checkpoint,
    solve_linear_system,
    step_imex,
)


def zero(grid):
    return RealField(grid, np.zeros(grid.shape))


def primitive_wave(grid, amp_rho=0.15, amp_u=0.1):
    rho = RealField(grid, 1.0 + amp_rho * np.sin(grid.x[0]))
    u = (RealField(grid, amp_u * np.cos(grid.x[0]) + 0.5 * amp_u * np.sin(2 * grid.x[0])),)
    return PrimitiveState(rho, u)


PARAMS = PhysParams(mu=0.2, kappa=0.04, a=0.8, gamma=1.0)


class TestSolverConfig:
    @pytest.mark.parametrize(
        "kw",
        [
            dict(dt=0.0, t_end=1.0),
            dict(dt=-1e-3, t_end=1.0),
            dict(dt=float("nan"), t_end=1.0),
            dict(dt=1e-3, t_end=-0.1),
            dict(dt=1e-3, t_end=float("inf")),
            dict(dt=1e-3, t_end=1.0, formulation="spectral"),
            dict(dt=1e-3, t_end=1.0, vacuum_floor=0.0),
            dict(dt=1e-3, t_end=1.0, diag_stride=0),
            dict(dt=1e-3, t_end=1.0, c_stab=0.0),
            dict(dt=1e-3, t_end=1.0, c_stab=float("inf")),
            dict(dt=1e-3, t_end=1.0, vacuum_floor=float("inf")),
        ],
    )
    def test_invalid(self, kw):
        with pytest.raises(ConfigurationError):
            SolverConfig(**kw)

    def test_dt_ceiling_enforced(self):
        g = Grid(1, 256)
        cfg = SolverConfig(dt=0.1, t_end=1.0)
        with pytest.raises(ConfigurationError):
            cfg.validate_for(g, PARAMS)

    def test_dt_ceiling_value(self):
        g = Grid(1, 256)
        cfg = SolverConfig(dt=1e-4, t_end=1.0)
        expected = g.dx ** 2 / max(PARAMS.mu, math.sqrt(PARAMS.kappa))
        assert cfg.dt_ceiling(g, PARAMS) == pytest.approx(expected, rel=1e-14)
        cfg.validate_for(g, PARAMS)

    def test_c_stab_scales_ceiling(self):
        g = Grid(1, 256)
        base = SolverConfig(dt=1e-4, t_end=1.0).dt_ceiling(g, PARAMS)
        half = SolverConfig(dt=1e-4, t_end=1.0, c_stab=0.5).dt_ceiling(g, PARAMS)
        assert half == pytest.approx(0.5 * base, rel=1e-14)


class TestStepImex:
    def test_equilibrium_fixed_point_primitive(self):
        g = Grid(1, 128)
        state = PrimitiveState(RealField(g, np.full(g.shape, 1.3)), (zero(g),))
        p = PhysParams(mu=0.2, kappa=0.04, a=0.8, gamma=1.4, rho_bar=1.3)
        out = step_imex(state, p, SolverConfig(dt=1e-3, t_end=1e-3))
        assert np.max(np.abs(out.rho.values - 1.3)) < 1e-14
        assert np.max(np.abs(out.u[0].values)) < 1e-14

    def test_equilibrium_fixed_point_effective(self):
        g = Grid(2, 32)
        state = EffectiveState(zero(g), (zero(g), zero(g)))
        out = step_imex(state, PARAMS, SolverConfig(dt=1e-3, t_end=1e-3, formulation="effective"))
        assert np.max(np.abs(out.q.values)) < 1e-14
        for c in out.v:
            assert np.max(np.abs(c.values)) < 1e-14

    def test_state_type_mismatch(self):
        g = Grid(1, 64)
        eff = EffectiveState(zero(g), (zero(g),))
        with pytest.raises(ConfigurationError):
            step_imex(eff, PARAMS, SolverConfig(dt=1e-3, t_end=1e-3))

    @pytest.mark.parametrize("formulation", ["primitive", "effective"])
    def test_shear_flow_exact_decay(self, formulation):
        # unidirectional shear at constant density kills every nonlinear term,
        # so both formulations must reproduce exp(-mu t) per step exactly
        g = Grid(2, 64)
        p = PhysParams(mu=0.3, kappa=0.09, a=0.8, gamma=1.0)
        shear = RealField(g, np.broadcast_to(np.sin(g.x[1]), g.shape).copy())
        cfg = SolverConfig(dt=2e-3, t_end=0.3, formulation=formulation, diag_stride=10 ** 6)
        if formulation == "primitive":
            state = PrimitiveState(RealField(g, np.ones(g.shape)), (shear, zero(g)))
        else:
            state = EffectiveState(zero(g), (shear, zero(g)))
        res = run(state, p, cfg)
        comp = res.final_state.u[0] if formulation == "primitive" else res.final_state.v[0]
        exact = math.exp(-p.mu * 0.3) * np.sin(g.x[1])
        assert np.max(np.abs(comp.values - exact)) < 1e-12

    def test_second_order_convergence(self):
        g = Grid(1, 256)
        state = primitive_wave(g)

        def final(dt):
            cfg = SolverConfig(dt=dt, t_end=0.02, diag_stride=10 ** 6)
            return run(state, PARAMS, cfg).final_state.rho.values

        ref = final(1.25e-5)
        errs = [np.max(np.abs(final(dt) - ref)) for dt in (4e-4, 2e-4, 1e-4)]
        ratios = [errs[i] / errs[i + 1] for i in range(len(errs) - 1)]
        for r in ratios:
            assert 3.0 < r < 5.0, ratios

    def test_matches_linear_solution_at_small_amplitude(self):
        g = Grid(1, 256)
        p = PhysParams(mu=0.2, kappa=0.04, a=0.0, gamma=1.0)
        amp = 1e-6
        q0 = RealField(g, amp * np.sin(3 * g.x[0]))
        v0 = (RealField(g, amp * np.cos(2 * g.x[0])),)
        cfg = SolverConfig(dt=1e-3, t_end=0.1, formulation="effective", diag_stride=10 ** 6)
        res = run(EffectiveState(q0, v0), p, cfg)
        q_lin, v_lin = solve_linear_system(q0, v0, p.mu, 0.1)
        assert np.max(np.abs(res.final_state.q.values - q_lin.values)) / amp < 1e-5
        assert np.max(np.abs(res.final_state.v[0].values - v_lin[0].values)) / amp < 1e-5


def _reference_step(state, params, cfg):
    """Integrating-factor Heun step over the grid-valued right-hand sides,
    with full-layout numpy.fft transforms. The primitive density stays on
    the grid (factor 1, no linear part); every other unknown W carries
    factor exp(-mu k^2 dt) and linear part mu k^2, N = fft(rhs) + mu k^2 W,
    W* = e (W + dt N), W_new = e W + dt/2 (e N + N*)."""
    g, dt = state.grid, cfg.dt
    lin = params.mu * full_layout(g)[1]
    if cfg.formulation == "primitive":
        spectral = [False] + [True] * g.dim
        vals0 = [state.rho.values] + [c.values for c in state.u]

        def rhs(vals):
            s = PrimitiveState(RealField(g, vals[0]), tuple(RealField(g, c) for c in vals[1:]))
            d, dv = rhs_primitive(s, params)
            return [d.values] + [c.values for c in dv]
    else:
        spectral = [True] * (1 + g.dim)
        vals0 = [state.q.values] + [c.values for c in state.v]

        def rhs(vals):
            s = EffectiveState(RealField(g, vals[0]), tuple(RealField(g, c) for c in vals[1:]))
            d, dv = rhs_effective(s, params)
            return [d.values] + [c.values for c in dv]

    fwd = [np.fft.fftn if sp else (lambda x: x) for sp in spectral]
    inv = [(lambda c: np.fft.ifftn(c).real) if sp else (lambda x: x) for sp in spectral]
    fac = [np.exp(-lin * dt) if sp else 1.0 for sp in spectral]
    lins = [lin if sp else 0.0 for sp in spectral]

    def explicit(vals, hats):
        return [f(d) + l * w for f, d, l, w in zip(fwd, rhs(vals), lins, hats)]

    hat0 = [f(v) for f, v in zip(fwd, vals0)]
    n0 = explicit(vals0, hat0)
    hat_star = [e * (w + dt * n) for e, w, n in zip(fac, hat0, n0)]
    n1 = explicit([i(w) for i, w in zip(inv, hat_star)], hat_star)
    return [i(e * w + 0.5 * dt * (e * a + b))
            for i, e, w, a, b in zip(inv, fac, hat0, n0, n1)]


ORACLE_CASES = [
    pytest.param(dim, form, gamma, 0.0225, id=f"{dim}d-{form}-dealias-g{gamma}")
    for dim in (1, 2) for form in ("primitive", "effective") for gamma in (1.0, 1.4)
] + [
    pytest.param(dim, "effective", 1.0, 0.04, id=f"{dim}d-effective-kappa-above")
    for dim in (1, 2)
]


class TestStepOracle:
    @pytest.mark.parametrize("dim,formulation,gamma,kappa", ORACLE_CASES)
    def test_matches_reference_step(self, dim, formulation, gamma, kappa):
        g = Grid(dim, 64 if dim == 1 else 32)
        params = PhysParams(mu=0.15, kappa=kappa, a=1.0, gamma=gamma, rho_bar=1.3)
        state = build(Preset("random_bandlimited", amplitude=0.2, seed=5), g, params)
        if formulation == "effective":
            state = to_effective(state, params)
        probe = SolverConfig(dt=1.0, t_end=1.0)
        cfg = SolverConfig(dt=0.25 * probe.dt_ceiling(g, params), t_end=1.0,
                           formulation=formulation)
        new = step_imex(state, params, cfg)
        got = ([new.rho] + list(new.u)) if formulation == "primitive" else ([new.q] + list(new.v))
        want = _reference_step(state, params, cfg)
        for f, ref in zip(got, want):
            assert np.max(np.abs(f.values - ref)) <= 1e-12 * np.max(np.abs(ref))


class TestRun:
    def test_zero_horizon_emits_initial_only(self):
        g = Grid(1, 64)
        state = primitive_wave(g)
        res = run(state, PARAMS, SolverConfig(dt=1e-3, t_end=0.0))
        assert res.steps == 0
        assert res.diag_times == [0.0]
        assert res.final_state is state

    def test_diag_cadence(self):
        g = Grid(1, 64)
        recorded = []
        res = run(
            primitive_wave(g, 0.05, 0.02),
            PARAMS,
            SolverConfig(dt=1e-3, t_end=0.01, diag_stride=3),
            diag_fn=lambda s, t: recorded.append(t) or t,
        )
        assert res.diag_times == pytest.approx([0.0, 0.003, 0.006, 0.009, 0.01])
        assert recorded == res.diag_times
        assert res.records == res.diag_times

    def test_callbacks_every_step(self):
        g = Grid(1, 64)
        seen = []
        run(
            primitive_wave(g, 0.05, 0.02),
            PARAMS,
            SolverConfig(dt=1e-3, t_end=0.005, diag_stride=100),
            callbacks=(lambda m, t, s: seen.append(m),),
        )
        assert seen == [1, 2, 3, 4, 5]

    def test_validates_once_per_run(self, monkeypatch):
        from capns import solver

        calls = []
        original = SolverConfig.validate_for

        def counted(self, grid, params):
            calls.append(self)
            return original(self, grid, params)

        monkeypatch.setattr(SolverConfig, "validate_for", counted)
        solver._scheme.cache_clear()
        g = Grid(1, 64)
        res = run(primitive_wave(g), PARAMS, SolverConfig(dt=1e-4, t_end=1e-3))
        assert res.steps == 10
        assert len(calls) == 1

    def test_step_imex_validates_direct_calls(self):
        g = Grid(1, 256)
        with pytest.raises(ConfigurationError):
            step_imex(primitive_wave(g), PARAMS, SolverConfig(dt=0.1, t_end=1.0))

    def test_non_integer_span_rejected(self):
        g = Grid(1, 64)
        with pytest.raises(ConfigurationError):
            run(primitive_wave(g), PARAMS, SolverConfig(dt=3e-4, t_end=1e-3))

    def test_formulation_state_mismatch(self):
        g = Grid(1, 64)
        with pytest.raises(ConfigurationError):
            run(primitive_wave(g), PARAMS,
                SolverConfig(dt=1e-3, t_end=1e-3, formulation="effective"))

    @pytest.mark.parametrize("formulation", ["primitive", "effective"])
    def test_state_mismatch_rejected_without_steps(self, formulation):
        # the state is checked against the formulation even at zero horizon
        state = primitive_wave(Grid(1, 64))
        if formulation == "primitive":
            state = to_effective(state, PARAMS)
        with pytest.raises(ConfigurationError):
            run(state, PARAMS, SolverConfig(dt=1e-3, t_end=0.0, formulation=formulation))

    def test_mass_conserved(self):
        g = Grid(1, 256)
        state = primitive_wave(g, 0.2, 0.1)
        m0 = g.integrate(state.rho.values)
        res = run(state, PARAMS, SolverConfig(dt=1e-3, t_end=1.0, diag_stride=250))
        m1 = g.integrate(res.final_state.rho.values)
        assert abs(m1 - m0) / abs(m0) < 1e-10

    def test_vacuum_breach_carries_time_and_min(self):
        g = Grid(1, 64)
        state = primitive_wave(g, 0.2, 0.0)
        cfg = SolverConfig(dt=1e-3, t_end=0.1, vacuum_floor=0.9)
        with pytest.raises(VacuumBreach) as exc:
            run(state, PARAMS, cfg)
        assert exc.value.t == pytest.approx(1e-3)
        assert exc.value.min_rho < 0.9

    def test_numeric_blowup_propagates(self):
        g = Grid(1, 64)
        state = PrimitiveState(
            RealField(g, np.full(g.shape, 1e280)),
            (RealField(g, 1e3 * np.cos(g.x[0])),),
        )
        p = PhysParams(mu=0.2, kappa=0.04, a=1.0, gamma=2.0)
        with np.errstate(all="ignore"):
            with pytest.raises(NumericBlowup) as exc:
                run(state, p, SolverConfig(dt=1e-4, t_end=1e-3))
        # the step guard reports the time of the step that blew up, which a
        # JSON payload can hold (NaN is not valid JSON)
        assert exc.value.t == pytest.approx(1e-4)

    def test_determinism_bitwise(self):
        g = Grid(1, 128)
        state = primitive_wave(g)
        cfg = SolverConfig(dt=1e-3, t_end=0.1, diag_stride=100)
        a = run(state, PARAMS, cfg).final_state
        b = run(state, PARAMS, cfg).final_state
        assert np.array_equal(a.rho.values, b.rho.values)
        assert np.array_equal(a.u[0].values, b.u[0].values)


class TestCheckpoint:
    def test_round_trip_primitive(self, tmp_path):
        g = Grid(1, 128)
        state = primitive_wave(g)
        path = tmp_path / "ck.npz"
        save_checkpoint(path, state, PARAMS, 0.25)
        loaded, params, t = load_checkpoint(path)
        assert params == PARAMS
        assert t == 0.25
        assert isinstance(loaded, PrimitiveState)
        assert np.array_equal(loaded.rho.values, state.rho.values)
        assert np.array_equal(loaded.u[0].values, state.u[0].values)
        assert loaded.grid == g

    def test_round_trip_effective(self, tmp_path):
        g = Grid(2, 16)
        state = EffectiveState(
            RealField(g, 0.1 * np.sin(g.x[0])),
            (RealField(g, 0.1 * np.cos(g.x[1])), zero(g)),
        )
        path = tmp_path / "ck.npz"
        save_checkpoint(path, state, PARAMS, 1.5)
        loaded, params, t = load_checkpoint(path)
        assert isinstance(loaded, EffectiveState)
        assert np.array_equal(loaded.q.values, state.q.values)
        assert np.array_equal(loaded.v[1].values, state.v[1].values)

    @pytest.mark.parametrize("content", [b"", b"plain text\n", b"PK\x03\x04 cut short"],
                             ids=["empty", "text", "cut-zip"])
    def test_unreadable_file_rejected(self, tmp_path, content):
        path = tmp_path / "bad.npz"
        path.write_bytes(content)
        with pytest.raises(ConfigurationError):
            load_checkpoint(path)

    def test_corrupted_member_rejected(self, tmp_path):
        g = Grid(1, 32)
        path = tmp_path / "ck.npz"
        save_checkpoint(path, primitive_wave(g), PARAMS, t=0.0)
        data = bytearray(path.read_bytes())
        i = data.index(b"rho.npy") + 200  # inside the density's payload
        data[i] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(ConfigurationError):
            load_checkpoint(path)

    def test_single_array_file_rejected(self, tmp_path):
        path = tmp_path / "arr.npy"
        np.save(path, np.zeros(4))
        with pytest.raises(ConfigurationError):
            load_checkpoint(path)

    @staticmethod
    def _npy(arr):
        buf = io.BytesIO()
        np.save(buf, arr)
        return buf.getvalue()

    @pytest.mark.parametrize("member,payload", [
        ("version.npy", b"garbage"),  # not an .npy: numpy hands back the raw bytes
        ("t.npy", "soon"),
        ("dim.npy", np.arange(2)),
        ("rho.npy", np.zeros(3)),
        ("rho.npy", np.full(32, np.nan)),
        ("u0.npy", None),
    ], ids=["raw-bytes-version", "text-time", "array-dim", "short-rho", "nan-rho",
            "missing-u0"])
    def test_malformed_member_rejected(self, tmp_path, member, payload):
        g = Grid(1, 32)
        good = tmp_path / "good.npz"
        save_checkpoint(good, primitive_wave(g), PARAMS, t=0.0)
        path = tmp_path / "bad.npz"
        with zipfile.ZipFile(good) as src, zipfile.ZipFile(path, "w") as dst:
            for name in src.namelist():
                if name != member:
                    dst.writestr(name, src.read(name))
            if payload is not None:
                raw = payload if isinstance(payload, bytes) else self._npy(np.asarray(payload))
                dst.writestr(member, raw)
        with pytest.raises(ConfigurationError):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, tmp_path):
        g = Grid(1, 64)
        state = primitive_wave(g)
        path = tmp_path / "ck.npz"
        save_checkpoint(path, state, PARAMS, 0.0)
        data = dict(np.load(path))
        data["version"] = np.int64(99)
        np.savez(path, **data)
        with pytest.raises(ConfigurationError):
            load_checkpoint(path)

    def test_unknown_kind_rejected(self, tmp_path):
        path = tmp_path / "ck.npz"
        save_checkpoint(path, primitive_wave(Grid(1, 32)), PARAMS, 0.0)
        data = dict(np.load(path))
        data["kind"] = np.str_("spectral")
        np.savez(path, **data)
        with pytest.raises(ConfigurationError, match="unknown checkpoint state kind 'spectral'"):
            load_checkpoint(path)

    def test_non_state_rejected(self, tmp_path):
        with pytest.raises(ConfigurationError, match="cannot checkpoint a RealField"):
            save_checkpoint(tmp_path / "ck.npz", zero(Grid(1, 32)), PARAMS, 0.0)

    @pytest.mark.parametrize("formulation,unknowns", [
        ("primitive", ["rho", "u0", "u1"]),
        ("effective", ["q", "v0", "v1"]),
    ])
    def test_format_v1_members(self, tmp_path, formulation, unknowns):
        # the archive layout of version 1, in order: files written by any
        # version of the package must keep loading
        g = Grid(2, 8)
        params = PhysParams(mu=0.15, kappa=0.0225, a=0.9, gamma=1.4, rho_bar=1.3)
        state = build(Preset("smooth_bump"), g, params)
        if formulation == "effective":
            state = to_effective(state, params)
        path = tmp_path / "ck.npz"
        save_checkpoint(path, state, params, 0.5)
        with zipfile.ZipFile(path) as z:
            names = z.namelist()
        with np.load(path) as data:
            dtypes = [str(data[name[:-len(".npy")]].dtype) for name in names]
            kind = str(data["kind"])
        scalars = ["version", "dim", "n", "length", "t", "mu", "kappa", "a", "gamma", "rho_bar"]
        assert names == [f"{m}.npy" for m in scalars + ["kind"] + unknowns]
        assert dtypes == ["int64"] * 3 + ["float64"] * 7 + ["<U9"] + ["float64"] * 3
        assert kind == formulation

    def test_restart_matches_uninterrupted(self, tmp_path):
        g = Grid(1, 128)
        state = primitive_wave(g)
        full = run(state, PARAMS, SolverConfig(dt=1e-3, t_end=0.2, diag_stride=10 ** 6))
        half = run(state, PARAMS, SolverConfig(dt=1e-3, t_end=0.1, diag_stride=10 ** 6))
        path = tmp_path / "ck.npz"
        save_checkpoint(path, half.final_state, PARAMS, half.t_final)
        loaded, params, t = load_checkpoint(path)
        rest = run(loaded, params, SolverConfig(dt=1e-3, t_end=0.2, diag_stride=10 ** 6), t0=t)
        # the state evolution is autonomous, so restart must be bitwise
        assert np.array_equal(rest.final_state.rho.values, full.final_state.rho.values)
        assert np.array_equal(rest.final_state.u[0].values, full.final_state.u[0].values)


class TestLinearSolution:
    def test_time_zero_identity(self):
        g = Grid(1, 128)
        q0 = RealField(g, np.sin(2 * g.x[0]))
        v0 = (RealField(g, np.cos(5 * g.x[0])),)
        q, v = solve_linear_system(q0, v0, 0.3, 0.0)
        assert np.max(np.abs(q.values - q0.values)) < 1e-13
        assert np.max(np.abs(v[0].values - v0[0].values)) < 1e-13

    def test_zero_velocity_reduces_to_heat(self):
        g = Grid(1, 128)
        q0 = RealField(g, np.sin(4 * g.x[0]))
        q, _ = solve_linear_system(q0, (zero(g),), 0.25, 0.1)
        exact = math.exp(-0.25 * 16 * 0.1) * np.sin(4 * g.x[0])
        assert np.max(np.abs(q.values - exact)) < 1e-13

    def test_single_mode_oracle(self):
        # q0 = cos 3x, v0 = sin 3x: div v0 = 3 cos 3x shares the q0 profile,
        # so q(t) = exp(-9 mu t) (1 - 3t) cos 3x in closed form
        g = Grid(1, 128)
        mu, t = 0.2, 0.3
        q0 = RealField(g, np.cos(3 * g.x[0]))
        v0 = (RealField(g, np.sin(3 * g.x[0])),)
        q, v = solve_linear_system(q0, v0, mu, t)
        decay = math.exp(-9 * mu * t)
        assert np.max(np.abs(q.values - decay * (1 - 3 * t) * np.cos(3 * g.x[0]))) < 1e-12
        assert np.max(np.abs(v[0].values - decay * np.sin(3 * g.x[0]))) < 1e-12

    def test_invalid_mu(self):
        g = Grid(1, 64)
        with pytest.raises(ConfigurationError):
            solve_linear_system(zero(g), (zero(g),), 0.0, 0.1)

    def test_2d_divergence_coupling(self):
        g = Grid(2, 32)
        rng = np.random.default_rng(7)
        q0 = RealField(g, 0.0 * g.x[0])
        v0 = (
            RealField(g, np.sin(g.x[0]) * np.cos(g.x[1])),
            RealField(g, np.cos(g.x[0]) * np.sin(g.x[1])),
        )
        mu, t = 0.3, 0.2
        q, v = solve_linear_system(q0, v0, mu, t)
        # div v0 = 2 cos x cos y lives on |k|^2 = 2
        exact_q = -t * math.exp(-mu * 2 * t) * 2 * np.cos(g.x[0]) * np.cos(g.x[1])
        assert np.max(np.abs(q.values - exact_q)) < 1e-12
        _ = rng  # deterministic fields above; rng kept for symmetry with other tests


class TestPicard:
    def test_zero_data_converges_immediately(self):
        g = Grid(1, 128)
        res = picard_solve(zero(g), (zero(g),), PARAMS, 0.5, PicardConfig(n_steps=16))
        assert isinstance(res, PicardResult)
        assert res.converged
        assert res.iterations == 1
        assert res.diff_norms == [0.0]
        assert np.max(np.abs(res.q_series[-1].values)) == 0.0

    def test_small_data_contracts_geometrically(self):
        g = Grid(1, 256)
        amp = 1e-3
        q0 = RealField(g, amp * np.sin(g.x[0]))
        v0 = (RealField(g, amp * np.cos(g.x[0])),)
        res = picard_solve(q0, v0, PARAMS, 0.5, PicardConfig(n_steps=32, tol=1e-11))
        assert res.converged
        assert res.iterations <= 6
        diffs = res.diff_norms
        for i in range(len(diffs) - 1):
            if diffs[i + 1] == 0.0:
                break
            assert diffs[i + 1] / diffs[i] < 0.5

    def test_large_data_raises_non_contraction(self):
        g = Grid(1, 128)
        q0 = RealField(g, 5.0 * np.sin(g.x[0]))
        v0 = (RealField(g, 5.0 * np.cos(g.x[0])),)
        with pytest.raises(NonContraction) as exc:
            picard_solve(q0, v0, PARAMS, 2.0, PicardConfig(n_steps=32, max_iters=40))
        assert exc.value.t_end == 2.0
        assert exc.value.data_norms["q"] > 0
        assert len(exc.value.diff_norms) >= 2

    def test_requires_linear_pressure(self):
        g = Grid(1, 64)
        p = PhysParams(mu=0.2, kappa=0.04, a=0.8, gamma=1.4)
        with pytest.raises(ConfigurationError):
            picard_solve(zero(g), (zero(g),), p, 0.5)

    def test_requires_coefficient_balance(self):
        g = Grid(1, 64)
        p = PhysParams(mu=0.2, kappa=0.05, a=0.8, gamma=1.0)
        with pytest.raises(ConfigurationError):
            picard_solve(zero(g), (zero(g),), p, 0.5)

    def test_invalid_horizon(self):
        g = Grid(1, 64)
        with pytest.raises(ConfigurationError):
            picard_solve(zero(g), (zero(g),), PARAMS, 0.0)

    @pytest.mark.parametrize(
        "kw",
        [dict(tol=0.0), dict(max_iters=0), dict(n_steps=1)],
    )
    def test_invalid_config(self, kw):
        with pytest.raises(ConfigurationError):
            PicardConfig(**kw)

    def test_agrees_with_time_stepper(self):
        # independent discretizations of the same mild solution: the
        # fixed point of the iteration and the IMEX trajectory must meet
        g = Grid(1, 256)
        amp = 1e-2
        q0 = RealField(g, amp * np.sin(g.x[0]))
        v0 = (RealField(g, amp * np.cos(g.x[0])),)
        pic = picard_solve(q0, v0, PARAMS, 0.25, PicardConfig(n_steps=128, tol=1e-12))
        cfg = SolverConfig(dt=2.5e-4, t_end=0.25, formulation="effective", diag_stride=10 ** 6)
        res = run(EffectiveState(q0, v0), PARAMS, cfg)
        dq = np.max(np.abs(pic.q_series[-1].values - res.final_state.q.values))
        dv = np.max(np.abs(pic.v_series[-1][0].values - res.final_state.v[0].values))
        assert dq < 1e-8
        assert dv < 1e-8

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_first_difference_is_tilde_norm_of_correction(self, p):
        # the iteration measures its differences on the spectra; the typed
        # tilde_norm of the grid differences from the linear solution (the
        # iterate 0) must give the same number, at p = 2 through Parseval
        # and at p = 3 through the per-block inverse transforms
        g = Grid(2, 16)
        x, y = g.x
        q0 = RealField(g, 0.05 * np.sin(x) * np.cos(2 * y))
        v0 = (RealField(g, 0.05 * np.cos(y)), RealField(g, 0.03 * np.sin(x + y)))
        pcfg = PicardConfig(n_steps=8, max_iters=1, tol=1e-30, p=p)
        res = picard_solve(q0, v0, PARAMS, 0.5, pcfg)
        lin = [solve_linear_system(q0, v0, PARAMS.mu, t) for t in res.times]
        dq = [RealField(g, q.values - ql.values) for q, (ql, _) in zip(res.q_series, lin)]
        want = tilde_norm(dq, res.times, math.inf, BesovSpec(g.dim / p, p))
        for i in range(g.dim):
            dv = [RealField(g, v[i].values - vl[i].values)
                  for v, (_, vl) in zip(res.v_series, lin)]
            want += tilde_norm(dv, res.times, math.inf, BesovSpec(g.dim / p - 1.0, p))
        assert want > 0
        assert res.diff_norms[0] == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_iterate_zero_is_linear_solution(self):
        # one-iteration cap: the returned series must still contain the
        # correction, but the recorded first difference measures it from
        # the linear solution seed
        g = Grid(1, 128)
        amp = 1e-3
        q0 = RealField(g, amp * np.sin(2 * g.x[0]))
        v0 = (RealField(g, amp * np.cos(3 * g.x[0])),)
        res = picard_solve(q0, v0, PARAMS, 0.3, PicardConfig(n_steps=16, max_iters=1, tol=1e-30))
        assert not res.converged
        assert len(res.diff_norms) == 1
        assert res.diff_norms[0] > 0
