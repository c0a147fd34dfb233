"""The critical rescaling as an oracle on whole runs.

The system is invariant under (rho, u)(t, x) -> (rho, lam u)(lam^2 t, lam x)
when the pressure coefficient a becomes lam^2 a; mu, kappa and kappa/mu^2
do not change. At lam = 2 every multiplier of a grid of length pi is that
of length 2 pi times a power of two, so a preset run on length 2 pi and the
same preset on length pi, with u * 2, a * 4, dt / 4 and t_end / 4, agree
bit for bit once u is divided by lam. The presets give the same samples on
both lengths (they are functions of the phase 2 pi x / L).
"""

import math
from dataclasses import replace

import pytest

from capns.diagnostics import GAIN_EXPONENTS, DiagnosticsAccumulator
from capns.fields import TAU, Grid, RealField
from capns.lifespan import lifespan_lower_bound, norms_for_data
from capns.model import PhysParams, PrimitiveState, to_effective
from capns.presets import Preset, build
from capns.solver import PicardConfig, SolverConfig, picard_solve, run

LAM = 2.0
PRESET = Preset("smooth_bump", amplitude=0.3)
MU = 0.15


def _pair(dim, n, gamma, a):
    """The preset on length 2 pi and, rescaled, on length pi, with the
    params of each."""
    p = PhysParams(mu=MU, kappa=MU ** 2, a=a, gamma=gamma)
    s = build(PRESET, Grid(dim, n), p)
    small = build(PRESET, Grid(dim, n, TAU / LAM), p)
    small = PrimitiveState(small.rho, tuple(RealField(c.grid, LAM * c.values) for c in small.u))
    return (s, p), (small, replace(p, a=LAM ** 2 * a))


def _unknowns(state):
    """The scalar and the velocity samples of a state of either form."""
    if isinstance(state, PrimitiveState):
        return state.rho.values, [c.values for c in state.u]
    return state.q.values, [c.values for c in state.v]


@pytest.mark.parametrize("gamma,a", [(1.0, 1.0), (1.4, 0.9)])
@pytest.mark.parametrize("formulation", ["primitive", "effective"])
@pytest.mark.parametrize("dim,n,frac", [(1, 64, 0.25), (2, 32, 0.0625)])
def test_runs_rescale_bit_for_bit(dim, n, frac, formulation, gamma, a):
    (s, p), (small, p_small) = _pair(dim, n, gamma, a)
    dt = frac * SolverConfig(1.0, 0.0).dt_ceiling(s.grid, p)
    out = []
    for state, params, scale in ((s, p, 1.0), (small, p_small, LAM ** -2)):
        if formulation == "effective":
            state = to_effective(state, params)
        cfg = SolverConfig(dt * scale, 100 * dt * scale, formulation, diag_stride=100)
        out.append(run(state, params, cfg, diag_fn=DiagnosticsAccumulator(params)))
    big, rescaled = out
    assert big.steps == rescaled.steps == 100

    (scalar, vel), (scalar_s, vel_s) = map(_unknowns, (big.final_state, rescaled.final_state))
    assert scalar_s.tobytes() == scalar.tobytes()
    for c, c_s in zip(vel, vel_s):
        assert (c_s / LAM).tobytes() == c.tobytes()

    r, r_s = big.records[-1], rescaled.records[-1]
    assert r_s.mass == LAM ** -dim * r.mass
    assert r_s.energy == LAM ** (2 - dim) * r.energy
    assert r_s.dissip_u == LAM ** (2 - dim) * r.dissip_u
    assert r_s.min_rho == r.min_rho
    for q in GAIN_EXPONENTS:
        want = LAM ** (1 - dim / q) * r.lp_gain[q]
        assert r_s.lp_gain[q] == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("dim,n", [(1, 64), (2, 32)])
def test_picard_and_lifespan_rescale(dim, n):
    # the Picard iteration contracts in the critical norms, which the
    # rescaling keeps: on [0, 1/lam^2] it takes as many iterations as on
    # [0, 1] (18 in 1-D, 17 in 2-D). The critical norms are invariant,
    # the surcritical ones scale by lam^eps' to roundoff, and the bound,
    # their power -2/eps' = -8, by lam^-2 to 8 ulps (3-4 measured)
    pcfg = PicardConfig(n_steps=32, tol=1e-10)
    iterations, inputs = [], []
    for (state, params), horizon in zip(_pair(dim, n, 1.0, 1.0), (1.0, LAM ** -2)):
        e = to_effective(state, params)
        res = picard_solve(e.q, e.v, params, horizon, pcfg)
        assert res.converged
        iterations.append(res.iterations)
        inputs.append(norms_for_data(e.q, e.v, mu=params.mu))
    assert iterations[0] == iterations[1]
    big, small = inputs
    assert (small.norm_q0_crit, small.norm_v0_crit) == (big.norm_q0_crit, big.norm_v0_crit)
    for name in ("norm_q0_sur", "norm_v0_sur"):
        got, want = getattr(small, name), LAM ** big.eps_prime * getattr(big, name)
        assert abs(got - want) <= 2 * math.ulp(got)
    (bound, active), (bound_s, active_s) = map(lifespan_lower_bound, inputs)
    assert active == active_s == "v_regularity"
    assert abs(bound_s / bound - LAM ** -2) <= 8 * math.ulp(LAM ** -2)
