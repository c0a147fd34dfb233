"""Exact numbers of FFTs per call in the hot paths.

Transforms dominate the cost of a step, so these counts are the budget a
change to the spectral layer is held to: lower is better, and a change
that lowers a count should tighten the number here.
"""

import numpy as np
import pytest

from capns.diagnostics import DiagnosticsAccumulator
from capns.fields import Grid
from capns.lp_besov import BesovSpec, block_report, build_bumps
from capns.model import PhysParams, to_effective
from capns.presets import Preset, build
from capns.solver import SolverConfig, step_imex

PARAMS = PhysParams(mu=0.15, kappa=0.0225)


@pytest.fixture
def fft_calls(monkeypatch):
    """Counter of numpy.fft.fftn and numpy.fft.ifftn calls."""
    calls = [0]
    for name in ("fftn", "ifftn"):
        original = getattr(np.fft, name)

        def counted(*args, _original=original, **kwargs):
            calls[0] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.fft, name, counted)
    return calls


def _state(dim, n, formulation):
    s = build(Preset("smooth_bump", amplitude=0.1), Grid(dim, n), PARAMS)
    return s if formulation == "primitive" else to_effective(s, PARAMS)


@pytest.mark.parametrize("dim,n,formulation,step_fft,record_fft", [
    (1, 128, "primitive", 53, 24),
    (1, 128, "effective", 34, 16),
    (2, 64, "primitive", 138, 41),
    (2, 64, "effective", 59, 29),
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


def test_block_report_one_transform_per_block(fft_calls):
    f = build(Preset("random_bandlimited", amplitude=0.05), Grid(2, 64), PARAMS).rho
    bumps = build_bumps()
    fft_calls[0] = 0
    rep = block_report(f, BesovSpec(2.0 / 3.0, 3.0), bumps)
    # one forward transform, then one inverse per block for p != 2
    assert fft_calls[0] == 1 + len(rep["blocks"])
