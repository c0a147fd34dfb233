"""A forced 2-D run converges to an exact solution of the PDE.

The effective system at kappa = mu^2, gamma = 1 is written here from the
PDE, not from ``capns.model``:

    d_t q = mu lap q - div v - u . grad q,
    d_t v = mu lap v + (mu grad q - u) . grad v - a grad q,   u = v - mu grad q.

For a chosen smooth w = (q, v), the forcing F = d_t w - RHS(w) is derived
by sympy, and the step is run with F's half spectra added to the
tendencies of ``rhs_effective`` at each Heun stage's time. The chosen w is
a trigonometric polynomial that the grid resolves, so what is left of the
error is the scheme's in time, which is second order.
"""

import numpy as np
import pytest

from capns import solver
from capns.fields import Grid, fft_array
from capns.model import PhysParams, rhs_effective
from capns.solver import SolverConfig

sympy = pytest.importorskip("sympy")

AMP, MU, A = 0.3, 0.15, 1.0
PARAMS = PhysParams(mu=MU, kappa=MU ** 2, a=A)
T_END = 0.5


def _exact_and_forcing():
    """Lambdified (x, y, t) -> [q, v0, v1] and -> [F_q, F_v0, F_v1]."""
    x, y, t = sympy.symbols("x y t")
    q = AMP * sympy.sin(x) * sympy.cos(y) * sympy.cos(t)
    v = [AMP / 2 * sympy.cos(x + t) * sympy.sin(2 * y),
         AMP / 2 * sympy.sin(x - y) * sympy.exp(-t)]
    xs = (x, y)

    def grad(f):
        return [sympy.diff(f, s) for s in xs]

    def lap(f):
        return sum(sympy.diff(f, s, 2) for s in xs)

    gq = grad(q)
    u = [v[i] - MU * gq[i] for i in range(2)]
    rhs_q = MU * lap(q) - sum(grad(v[i])[i] for i in range(2)) \
        - sum(u[j] * gq[j] for j in range(2))
    rhs_v = [MU * lap(v[i]) + sum((MU * gq[j] - u[j]) * grad(v[i])[j] for j in range(2))
             - A * gq[i] for i in range(2)]
    w = [q, *v]
    forcing = [sympy.diff(c, t) - r for c, r in zip(w, [rhs_q, *rhs_v])]
    return (sympy.lambdify((x, y, t), w, "numpy"),
            sympy.lambdify((x, y, t), forcing, "numpy"))


EXACT, FORCING = _exact_and_forcing()


def max_error(monkeypatch, dt):
    """Max over the unknowns and the grid of |numerical - exact| at T_END,
    2-D n = 32, with the forcing evaluated at t for stage 1 and t + dt for
    stage 2."""
    g = Grid(2, 32)
    x, y = g.x
    stage_times = []

    def forced(g, p, vals, hats):
        on_grid, spectral = rhs_effective(g, p, vals, hats)
        f_hat = fft_array(g, np.array(FORCING(x, y, stage_times.pop(0))))
        return on_grid, [s + f for s, f in zip(spectral, f_hat)]

    monkeypatch.setattr(solver, "rhs_effective", forced)
    scheme = solver._scheme(g, PARAMS, SolverConfig(dt=dt, t_end=T_END, formulation="effective"))
    vals = EXACT(x, y, 0.0)
    steps = round(T_END / dt)
    for m in range(steps):
        stage_times[:] = [m * dt, (m + 1) * dt]
        vals = scheme.step(vals, m * dt)
    assert not stage_times
    return max(np.max(np.abs(a - b)) for a, b in zip(vals, EXACT(x, y, steps * dt)))


def test_forced_run_converges_at_second_order(monkeypatch):
    errors = [max_error(monkeypatch, dt) for dt in (0.02, 0.01, 0.005)]
    assert errors[0] < 2e-5
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.6 < coarse / fine < 4.4, errors
