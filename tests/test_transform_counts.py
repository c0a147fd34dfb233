"""Exact numbers of FFTs per call in the hot paths.

Transforms dominate the cost of a step, so these counts are the budget a
change to the spectral layer is held to: lower is better, and a change
that lowers a count should tighten the number here. On a 1-D grid a call
costs more than its arithmetic, so the independent transforms of a stage
are one call there: the counts are calls, not transformed arrays.
"""

import numpy as np
import pytest

from capns import diagnostics, fields, model, solver
from capns.diagnostics import DiagnosticsAccumulator
from capns.fields import Grid, RealField, fft_array, ifft_array
from capns.lp_besov import BesovSpec, block_report, bony_decompose
from capns.model import PhysParams, to_effective
from capns.presets import PRESET_NAMES, Preset, build
from capns.solver import PicardConfig, SolverConfig, picard_solve, run, step_imex

PARAMS = PhysParams(mu=0.15, kappa=0.0225)


# every transform numpy.fft offers, complex and real
COMPLEX_FFT_NAMES = ("fft", "ifft", "fft2", "ifft2", "fftn", "ifftn")
FFT_NAMES = COMPLEX_FFT_NAMES + ("rfft", "irfft", "rfft2", "irfft2", "rfftn", "irfftn")


def _counter(monkeypatch, names):
    """Counter of calls to the named numpy.fft transforms."""
    calls = [0]
    for name in names:
        original = getattr(np.fft, name)

        def counted(*args, _original=original, **kwargs):
            calls[0] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


@pytest.fixture
def fft_calls(monkeypatch):
    """Counter of calls to any numpy.fft transform."""
    return _counter(monkeypatch, FFT_NAMES)


def _state(dim, n, formulation):
    s = build(Preset("smooth_bump", amplitude=0.1), Grid(dim, n), PARAMS)
    return s if formulation == "primitive" else to_effective(s, PARAMS)


@pytest.mark.parametrize("dim,n,formulation,step_fft,record_fft", [
    pytest.param(1, 128, "primitive", 13, 4, id="1-128-primitive"),
    pytest.param(1, 128, "effective", 7, 4, id="1-128-effective"),
    pytest.param(2, 64, "primitive", 42, 22, id="2-64-primitive"),
    pytest.param(2, 64, "effective", 27, 22, id="2-64-effective"),
])
def test_step_and_record_transform_counts(fft_calls, dim, n, formulation,
                                          step_fft, record_fft):
    state = _state(dim, n, formulation)
    cfg = SolverConfig(dt=1e-4, t_end=1e-4, formulation=formulation)
    fft_calls[0] = 0
    step_imex(state, PARAMS, cfg)
    assert fft_calls[0] == step_fft
    fft_calls[0] = 0
    DiagnosticsAccumulator(PARAMS)(state, 0.0)
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
    DiagnosticsAccumulator(PARAMS)(state, 0.0)
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


def _per_array(monkeypatch):
    """Make every stage transform its arrays one call each."""
    def fft_stage(grid, arrays):
        return [fft_array(grid, a) for a in arrays]

    def ifft_stage(grid, coeffs):
        return [ifft_array(grid, c) for c in coeffs]

    for module in (model, solver, diagnostics):
        monkeypatch.setattr(module, "fft_stage", fft_stage)
        monkeypatch.setattr(module, "ifft_stage", ifft_stage)


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
    _per_array(monkeypatch)
    alone = outputs()
    assert all(np.array_equal(a, b) for a, b in zip(stacked[0], alone[0]))
    assert stacked[1] == alone[1]


def test_block_report_one_transform_per_block(fft_calls):
    f = build(Preset("random_bandlimited", amplitude=0.05), Grid(2, 64), PARAMS).rho
    fft_calls[0] = 0
    rep = block_report(f, BesovSpec(2.0 / 3.0, 3.0))
    # one forward transform, then one inverse per block for p != 2
    assert fft_calls[0] == 1 + len(rep["blocks"])


@pytest.mark.parametrize("dim,n,per_iter", [
    pytest.param(1, 64, 9, id="1-64"),
    pytest.param(2, 16, 16, id="2-16"),
])
def test_picard_transforms_per_iteration(fft_calls, dim, n, per_iter):
    # every transform of an iteration covers all time levels at once, and
    # the differences are measured on the spectra, so the count of an
    # iteration does not grow with the number of time steps
    e = _state(dim, n, "effective")
    counts = {}
    for n_steps in (16, 32):
        for iters in (1, 2):
            fft_calls[0] = 0
            picard_solve(e.q, e.v, PARAMS, 0.5,
                         PicardConfig(n_steps=n_steps, max_iters=iters, tol=1e-30))
            counts[n_steps, iters] = fft_calls[0]
    assert counts[16, 2] - counts[16, 1] == per_iter
    assert counts[32, 2] - counts[32, 1] == per_iter
    assert counts[16, 1] == counts[32, 1]


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
    # inverse of the blocks and one of the low-passes
    u, v = _bony_factors()
    fft_calls[0] = 0
    bony_decompose(u, v)
    assert fft_calls[0] == 1 + 2 * 7  # 7 blocks at n = 64


def test_second_bony_decompose_interpolates_nothing(interp_calls):
    # the phi and chi multipliers of a grid are interpolated once
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
def test_no_complex_transform(monkeypatch, dim, n):
    # one Fourier layout: the package transforms real fields to half spectra
    # only, random draws included
    calls = _counter(monkeypatch, COMPLEX_FFT_NAMES)
    g = Grid(dim, n)
    for name in PRESET_NAMES:
        build(Preset(name), g, PARAMS)
    for formulation in ("primitive", "effective"):
        state = _state(dim, n, formulation)
        step_imex(state, PARAMS, SolverConfig(dt=1e-4, t_end=1e-4, formulation=formulation))
        DiagnosticsAccumulator(PARAMS)(state, 0.0)
    e = _state(dim, n, "effective")
    picard_solve(e.q, e.v, PARAMS, 0.5, PicardConfig(n_steps=8, max_iters=2, tol=1e-30))
    f = build(Preset("random_bandlimited", amplitude=0.05), g, PARAMS).rho
    block_report(f, BesovSpec(2.0 / 3.0, 3.0))
    assert calls[0] == 0
