"""Exact numbers of FFTs per call in the hot paths.

Transforms dominate the cost of a step, so these counts are the budget a
change to the spectral layer is held to: lower is better, and a change
that lowers a count should tighten the number here. On a 1-D grid a call
costs more than its arithmetic, so the independent transforms of a stage
are one call there: the counts are calls, not transformed arrays.

Every transform goes through one seam, ``fields._pfu``, chosen at import:
numpy's pocketfft gufuncs, or ``fields._PUBLIC_FFT``, which makes the same
calls through numpy.fft. ``conftest.seam_counter`` wraps the seam, so each
budget is counted as the code runs it; a 2-D transform is two seam calls,
a real one and its complex pass. Each budget is pinned once, on the
gufunc seam (``fft_calls``); the twin is held to the gufuncs' bytes and
counts by ``test_public_twin_gives_the_same_bytes``.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from conftest import seam_counter
from numpy.fft import _pocketfft, _pocketfft_umath

import capns
from capns import diagnostics, fields, lp_besov, model, solver
from capns.diagnostics import DiagnosticsAccumulator
from capns.fields import Grid, RealField, dealias_values, fft_array, ifft_array
from capns.lp_besov import BesovSpec, block_report, bony_decompose
from capns.model import PhysParams, to_effective
from capns.presets import PRESET_NAMES, Preset, build
from capns.solver import PicardConfig, SolverConfig, picard_solve, run, step_imex

PARAMS = PhysParams(mu=0.15, kappa=0.0225)


def _public_calls(monkeypatch):
    """The shapes of the calls into numpy.fft's public transforms, seen at
    ``_raw_fft``, the one function all of them run."""
    public = []
    raw = _pocketfft._raw_fft

    def spy(*args, **kwargs):
        public.append(args[0].shape)
        return raw(*args, **kwargs)

    monkeypatch.setattr(_pocketfft, "_raw_fft", spy)
    return public


@pytest.fixture
def fft_calls(monkeypatch):
    """``seam_counter`` on the seam: ``calls[0]`` counts the transforms,
    every 2-D first pass is read, and numpy.fft's public functions see no
    call, so no transform bypasses the seam."""
    public = _public_calls(monkeypatch)
    calls = seam_counter(monkeypatch)
    yield calls
    assert calls[2] is None
    assert not public


def _state(dim, n, formulation, params=PARAMS):
    s = build(Preset("smooth_bump", amplitude=0.1), Grid(dim, n), params)
    return s if formulation == "primitive" else to_effective(s, params)


@pytest.mark.parametrize("dim,n,formulation,kappa,step_fft,record_fft", [
    pytest.param(1, 128, "primitive", 0.0225, 9, 2, id="1-128-primitive"),
    pytest.param(1, 128, "effective", 0.0225, 7, 2, id="1-128-effective"),
    pytest.param(1, 128, "effective", 0.04, 7, 2, id="1-128-effective-kappa-above"),
    pytest.param(2, 64, "primitive", 0.0225, 32, 16, id="2-64-primitive"),
    pytest.param(2, 64, "effective", 0.0225, 27, 16, id="2-64-effective"),
    pytest.param(2, 64, "effective", 0.04, 29, 16, id="2-64-effective-kappa-above"),
])
def test_gufunc_step_and_record_counts(fft_calls, dim, n, formulation, kappa,
                                       step_fft, record_fft):
    # a 2-D forward's two passes and each inverse pair are one transform;
    # away from kappa = mu^2, |grad q|^2 adds one 2-D forward per tendency
    params = PhysParams(mu=0.15, kappa=kappa)
    state = _state(dim, n, formulation, params)
    cfg = SolverConfig(dt=1e-4, t_end=1e-4, formulation=formulation)
    fft_calls[0] = 0
    step_imex(state, params, cfg)
    assert fft_calls[0] == step_fft
    fft_calls[0] = 0
    DiagnosticsAccumulator(params)([state], [0.0])
    assert fft_calls[0] == record_fft


@pytest.fixture
def checked_calls(monkeypatch):
    """Counter of calls to the field validator ``fields._checked``."""
    calls = [0]
    original = fields._checked

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(fields, "_checked", counted)
    return calls


@pytest.mark.parametrize("formulation", ["primitive", "effective"])
@pytest.mark.parametrize("dim,n", [(1, 128), (2, 32)])
def test_record_validates_nothing(checked_calls, dim, n, formulation):
    # the state was validated when it was built; a record integrates raw
    # samples and builds no RealField or SpectralField
    state = _state(dim, n, formulation)
    checked_calls[0] = 0
    DiagnosticsAccumulator(PARAMS)([state], [0.0])
    assert checked_calls[0] == 0


@pytest.mark.parametrize("formulation", ["primitive", "effective"])
@pytest.mark.parametrize("dim,n", [(1, 128), (2, 32)])
def test_steps_validate_nothing(checked_calls, dim, n, formulation):
    # the step guard checks every stage; the stepped state is wrapped
    # without checking its samples or its density again
    state = _state(dim, n, formulation)
    checked_calls[0] = 0
    res = run(state, PARAMS, SolverConfig(dt=1e-4, t_end=5e-4, formulation=formulation))
    assert res.steps == 5
    assert checked_calls[0] == 0


def _chunked_run(state, cfg, *counters):
    """A run recorded by a DiagnosticsAccumulator; per chunk, its states
    and how far each counter moved while the chunk was recorded."""
    acc, chunks = DiagnosticsAccumulator(PARAMS), []

    def diag(states, times):
        before = [c[0] for c in counters]
        out = acc(states, times)
        chunks.append((states, [c[0] - b for c, b in zip(counters, before)]))
        return out

    return run(state, PARAMS, cfg, diag_fn=diag), chunks


@pytest.mark.parametrize("formulation", ["primitive", "effective"])
def test_1d_run_records_in_one_chunk(fft_calls, checked_calls, formulation):
    # the 21 records of a 1-D run are one chunk: 2 transform calls in all,
    # where a call per record made 42, and no validation
    cfg = SolverConfig(dt=1e-4, t_end=2e-3, formulation=formulation)
    res, chunks = _chunked_run(_state(1, 128, formulation), cfg, fft_calls, checked_calls)
    assert len(res.records) == 21
    assert [(len(states), moved) for states, moved in chunks] == [(21, [2, 0])]


@pytest.mark.parametrize("formulation", ["primitive", "effective"])
def test_2d_run_records_one_state_per_chunk(monkeypatch, fft_calls, checked_calls,
                                             formulation):
    # a 2-D chunk is one state, whose record works on the state's own
    # arrays, with no stacking copy: 16 transforms and no validation each
    made = []

    class Spy(diagnostics._Fields):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(diagnostics, "_Fields", Spy)
    cfg = SolverConfig(dt=1e-4, t_end=3e-4, formulation=formulation)
    res, chunks = _chunked_run(_state(2, 32, formulation), cfg, fft_calls, checked_calls)
    assert [(len(states), moved) for states, moved in chunks] == [(1, [16, 0])] * 4
    assert len(made) == 4
    for (states, _), f in zip(chunks, made):
        own = _unknowns(states[0])
        assert f.scalar is own[0] and all(a is b for a, b in zip(f.vector, own[1:]))
        if formulation == "primitive":
            assert np.shares_memory(f.rho, states[0].rho.values)


def _per_array(monkeypatch):
    """Make every stage transform its arrays one call each, and every stack
    the 1-D bodies transform or truncate themselves one row at a time;
    returns the row counts of the stacks the latter saw."""
    stacks = []

    def fft_stage(grid, arrays):
        return [fft_array(grid, a) for a in arrays]

    def ifft_stage(grid, coeffs):
        return [ifft_array(grid, c) for c in coeffs]

    def row_by_row(transform):
        def call(grid, x):
            lead = x.shape[:x.ndim - grid.dim]
            rows = [transform(grid, r) for r in x.reshape((-1,) + x.shape[len(lead):])]
            stacks.append(len(rows))
            return np.array(rows).reshape(lead + rows[0].shape)
        return call

    for module in (model, solver, diagnostics):
        monkeypatch.setattr(module, "fft_stage", fft_stage)
        monkeypatch.setattr(module, "ifft_stage", ifft_stage)
    for module in (model, solver):
        monkeypatch.setattr(module, "fft_array", row_by_row(fft_array))
        monkeypatch.setattr(module, "ifft_array", row_by_row(ifft_array))
    monkeypatch.setattr(solver, "dealias_values", row_by_row(dealias_values))
    return stacks


def _unknowns(state):
    return [f.values for f in (state.rho, *state.u)] if hasattr(state, "rho") \
        else [f.values for f in (state.q, *state.v)]


@pytest.mark.parametrize("formulation", ["primitive", "effective"])
@pytest.mark.parametrize("params", [
    pytest.param(PARAMS, id="quantum"),
    pytest.param(PhysParams(mu=0.15, kappa=0.0225, a=0.9, gamma=1.4), id="gamma-1.4"),
    pytest.param(PhysParams(mu=0.15, kappa=0.04), id="kappa-above-mu2"),
])
def test_stacked_stages_equal_per_array_transforms(monkeypatch, formulation, params):
    # each row of a stacked 1-D transform is bit-identical to transforming
    # it alone, so batching changes no step and no record
    s = build(Preset("random_bandlimited", amplitude=0.1, seed=3), Grid(1, 64), params)
    state = s if formulation == "primitive" else to_effective(s, params)
    cfg = SolverConfig(dt=5e-4, t_end=2e-3, formulation=formulation)

    def outputs():
        res = run(state, params, cfg, diag_fn=DiagnosticsAccumulator(params))
        return _unknowns(res.final_state), [vars(r) for r in res.records]

    stacked = outputs()
    stacks = _per_array(monkeypatch)
    alone = outputs()
    assert max(stacks) > 1  # the 1-D bodies' own stacks went row by row
    assert all(np.array_equal(a, b) for a, b in zip(stacked[0], alone[0]))
    assert stacked[1] == alone[1]


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("a", [1.0, 0.8])
def test_picard_line_equals_per_array_transforms(monkeypatch, a, p):
    # the 1-D Picard body transforms each of its three stages as one stack;
    # row by row, its iterates and their differences are the same bit for bit
    params = PhysParams(mu=0.15, kappa=0.0225, a=a)
    e = to_effective(build(Preset("random_bandlimited", amplitude=0.1, seed=3),
                           Grid(1, 64), params), params)
    pcfg = PicardConfig(n_steps=16, max_iters=4, tol=1e-30, p=p)

    def outputs():
        res = picard_solve(e.q, e.v, params, 0.5, pcfg)
        return res.diff_norms, res._qhat.tobytes(), res._vhat.tobytes()

    stacked = outputs()
    stacks = _per_array(monkeypatch)
    alone = outputs()
    assert max(stacks) == 3 * 17  # the gradients of q and v, and v, at 17 levels
    assert len(stacked[0]) == 4 and stacked == alone


def test_block_report_one_transform_per_block(fft_calls):
    f = build(Preset("random_bandlimited", amplitude=0.05), Grid(2, 64), PARAMS).rho
    fft_calls[0] = 0
    rep = block_report(f, BesovSpec(2.0 / 3.0, 3.0))
    # one forward transform, then one inverse per block for p != 2
    assert fft_calls[0] == 1 + len(rep["blocks"])


@pytest.mark.parametrize("dim,n,per_iter", [pytest.param(1, 64, 4, id="1-64"),
                                             pytest.param(2, 16, 10, id="2-16")])
def test_gufunc_picard_transforms_per_iteration(fft_calls, dim, n, per_iter):
    # every transform of an iteration covers all time levels at once, and
    # the differences are measured on the spectra, so neither an
    # iteration's count nor the set-up's grows with the number of steps;
    # the set-up is the data's two forward transforms and one per Besov
    # norm of the data (p = 2 takes no inverse)
    e = _state(dim, n, "effective")
    counts = {}
    for n_steps in (16, 32):
        for iters in (1, 2):
            fft_calls[0] = 0
            picard_solve(e.q, e.v, PARAMS, 0.5,
                         PicardConfig(n_steps=n_steps, max_iters=iters, tol=1e-30))
            counts[n_steps, iters] = fft_calls[0]
    assert counts[16, 1] == counts[32, 1] == (2 + 1 + dim) + per_iter
    assert counts[16, 2] - counts[16, 1] == counts[32, 2] - counts[32, 1] == per_iter


def _transform_outputs():
    """The bytes of what every transforming path returns, on a 1-D and a
    2-D grid: presets, steps and records in both formulations, a Picard
    solve, a block report, and a Bony decomposition."""
    out = []
    for dim, n in ((1, 64), (2, 32)):
        g = Grid(dim, n)
        for name in PRESET_NAMES:
            out += [a.tobytes() for a in _unknowns(build(Preset(name), g, PARAMS))]
        for formulation in ("primitive", "effective"):
            cfg = SolverConfig(dt=1e-4, t_end=3e-4, formulation=formulation)
            res = run(_state(dim, n, formulation), PARAMS, cfg,
                      diag_fn=DiagnosticsAccumulator(PARAMS))
            out += [a.tobytes() for a in _unknowns(res.final_state)]
            out.append(repr([vars(r) for r in res.records]))
        e = _state(dim, n, "effective")
        res = picard_solve(e.q, e.v, PARAMS, 0.5,
                           PicardConfig(n_steps=8, max_iters=2, tol=1e-30))
        out.append(repr(res.diff_norms))
        out += [ifft_array(g, res._qhat).tobytes(), ifft_array(g, res._vhat).tobytes()]
        f = build(Preset("random_bandlimited", amplitude=0.05), g, PARAMS).rho
        out.append(repr(block_report(f, BesovSpec(2.0 / 3.0, 3.0))))
    out += [f.values.tobytes() for f in bony_decompose(*_bony_factors())]
    return out


def test_seam_is_numpy_gufuncs():
    # numpy.fft binds numpy's own transforms in this process, and the
    # import-time probe found the gufuncs give numpy's bytes
    assert fields._pfu is _pocketfft_umath


def test_public_twin_gives_the_same_bytes(monkeypatch):
    # the twin makes the seam's calls through numpy.fft's public functions:
    # forced in, it counts the same transforms and gives every output of
    # the gufuncs byte for byte
    want = _transform_outputs()
    direct = seam_counter(monkeypatch)
    assert _transform_outputs() == want
    monkeypatch.setattr(fields, "_pfu", fields._PUBLIC_FFT)
    public = _public_calls(monkeypatch)
    twin = seam_counter(monkeypatch)
    assert _transform_outputs() == want
    assert twin[0] == direct[0] > 0 and twin[2] is None
    assert len(public) > twin[0]  # 2-D transforms are two public calls


WRAPPED_BEFORE_IMPORT = """
import numpy as np
calls = []
for name in ("rfft", "irfft", "fft", "ifft"):
    fn = getattr(np.fft, name)
    setattr(np.fft, name, lambda *a, _fn=fn, **k: calls.append(1) or _fn(*a, **k))
from capns import fields, model, presets, solver
p = model.PhysParams(mu=0.15, kappa=0.0225)
for dim, n in ((1, 128), (2, 64)):
    state = presets.build(presets.Preset("smooth_bump", amplitude=0.1), fields.Grid(dim, n), p)
    calls.clear()
    solver.step_imex(state, p, solver.SolverConfig(dt=1e-4, t_end=1e-4))
    print(fields._pfu is fields._PUBLIC_FFT, len(calls))
"""


def test_numpy_fft_wrapped_before_import_sees_every_call():
    # a program (the benchmark's tracer) that wraps numpy.fft before it
    # imports capns gets the public twin, and its wrappers see every call:
    # 9 in a 1-D primitive step, and one per pass of the 32 2-D transforms
    env = {**os.environ, "PYTHONPATH": str(Path(capns.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", WRAPPED_BEFORE_IMPORT], check=True,
                         capture_output=True, text=True, env=env).stdout
    assert out.split() == ["True", "9", "True", str(2 * 32)]


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 16)])
def test_span_targets_are_the_code_that_runs(monkeypatch, dim, n):
    # perfbench's model.rhs_* and lp_besov.tilde_norm spans wrap these
    # names, and its tracer rebinds every module attribute holding them: a
    # step calls its right-hand side once per Heun stage, and a Picard
    # iteration measures one difference for q and one per velocity component
    calls = {}
    for module, name in ((model, "rhs_primitive"), (model, "rhs_effective"),
                         (lp_besov, "tilde_norm")):
        original = getattr(module, name)
        assert getattr(solver, name) is original
        calls[name] = 0

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(solver, name, counted)
    for formulation in ("primitive", "effective"):
        cfg = SolverConfig(dt=1e-4, t_end=1e-4, formulation=formulation)
        step_imex(_state(dim, n, formulation), PARAMS, cfg)
        assert calls.pop(f"rhs_{formulation}") == 2
    e = _state(dim, n, "effective")
    res = picard_solve(e.q, e.v, PARAMS, 0.5,
                       PicardConfig(n_steps=16, max_iters=3, tol=1e-30))
    assert res.iterations == 3
    assert calls == {"tilde_norm": (1 + dim) * 3}


@pytest.fixture
def interp_calls(monkeypatch):
    """Counter of calls to numpy.interp."""
    calls = [0]
    original = np.interp

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(np, "interp", counted)
    return calls


def _bony_factors():
    g = Grid(2, 64)
    x, y = g.x
    return RealField(g, np.sin(x) * np.cos(3 * y)), RealField(g, np.cos(5 * x + y))


def test_bony_transforms_each_factor_once(fft_calls):
    # one stacked forward transform of u and v, then per block one stacked
    # inverse; the low-passes are sums of the inverted blocks
    u, v = _bony_factors()
    fft_calls[0] = 0
    bony_decompose(u, v)
    assert fft_calls[0] == 1 + 7  # 7 blocks at n = 64


def test_second_bony_decompose_interpolates_nothing(interp_calls):
    # the block multipliers of a grid are interpolated once
    u, v = _bony_factors()
    bony_decompose(u, v)
    interp_calls[0] = 0
    bony_decompose(u, v)
    assert interp_calls[0] == 0


def test_second_picard_solve_interpolates_nothing(interp_calls):
    # the bumps and the block multipliers of a grid are interpolated once
    e = _state(2, 16, "effective")
    pcfg = PicardConfig(n_steps=8, max_iters=3, tol=1e-30)
    picard_solve(e.q, e.v, PARAMS, 0.5, pcfg)
    interp_calls[0] = 0
    picard_solve(e.q, e.v, PARAMS, 0.5, pcfg)
    assert interp_calls[0] == 0


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)])
def test_no_complex_transform(fft_calls, dim, n):
    # one Fourier layout: the package transforms real fields to half spectra
    # only, random draws included; the complex calls are the passes of 2-D
    # transforms, which seam_counter checks and leaves out
    g = Grid(dim, n)
    for name in PRESET_NAMES:
        build(Preset(name), g, PARAMS)
    for formulation in ("primitive", "effective"):
        state = _state(dim, n, formulation)
        step_imex(state, PARAMS, SolverConfig(dt=1e-4, t_end=1e-4, formulation=formulation))
        DiagnosticsAccumulator(PARAMS)([state], [0.0])
    e = _state(dim, n, "effective")
    picard_solve(e.q, e.v, PARAMS, 0.5, PicardConfig(n_steps=8, max_iters=2, tol=1e-30))
    f = build(Preset("random_bandlimited", amplitude=0.05), g, PARAMS).rho
    block_report(f, BesovSpec(2.0 / 3.0, 3.0))
    assert fft_calls[0] > 0
