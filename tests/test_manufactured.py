"""A forced 2-D run converges to an exact solution of the PDE, in each
formulation, at kappa = mu^2 and gamma = 1, and in the effective one at
kappa = 0.05 > mu^2.

Both systems are written here from the PDE, not from ``capns.model``. The
effective one, for q = ln(rho/rho_bar) and v = u + mu grad q:

    d_t q = mu lap q - div v - u . grad q,
    d_t v = mu lap v + (mu grad q - u) . grad v - a grad q
            + (kappa - mu^2) div(rho hess q)/rho,   u = v - mu grad q,

the last term in its compact form, which drops out at kappa = mu^2.

The primitive one, for rho and u, in its stress form:

    d_t rho = -div(rho u),
    d_t u = -(u . grad)u + div(2 mu rho Du)/rho
            + kappa div(rho hess ln rho)/rho - a grad rho/rho.

For a chosen smooth solution the forcing F = d_t w - RHS(w) is derived by
sympy, once per module, and the step is run with F added to the
tendencies of ``rhs_effective`` or ``rhs_primitive`` at each Heun stage's
time: on the grid for rho, as half spectra for the rest. Both solutions
share s = A sin x cos y cos t and the velocity (A/2 cos(x + t) sin 2y,
A/2 sin(x - y) e^(-t)): q = s (rho = e^q), and rho = 1 + s with u that
velocity. They are smooth enough for the n = 32 grid to resolve, so what
is left of the error is the scheme's in time, which is second order.
"""

import numpy as np
import pytest

from capns import solver
from capns.fields import Grid, fft_array
from capns.model import PhysParams, rhs_effective, rhs_primitive
from capns.solver import SolverConfig

sympy = pytest.importorskip("sympy")

AMP, MU, A = 0.3, 0.15, 1.0
PARAMS = PhysParams(mu=MU, kappa=MU ** 2, a=A)
ABOVE = PhysParams(mu=MU, kappa=0.05, a=A)
T_END = 0.5


def _exact_and_forcing():
    """Per case, lambdified (x, y, t) -> the unknowns [scalar, *vector]
    and -> their forcings."""
    x, y, t = sympy.symbols("x y t")
    xs = (x, y)
    s = AMP * sympy.sin(x) * sympy.cos(y) * sympy.cos(t)
    vel = [AMP / 2 * sympy.cos(x + t) * sympy.sin(2 * y),
           AMP / 2 * sympy.sin(x - y) * sympy.exp(-t)]

    def grad(f):
        return [sympy.diff(f, c) for c in xs]

    def lap(f):
        return sum(sympy.diff(f, c, 2) for c in xs)

    def div(f):
        return sum(sympy.diff(f[j], xs[j]) for j in range(2))

    # effective: q = s, v = vel
    q, v = s, vel
    gq = grad(q)
    u = [v[i] - MU * gq[i] for i in range(2)]
    rhs_q = MU * lap(q) - div(v) - sum(u[j] * gq[j] for j in range(2))
    rhs_v = [MU * lap(v[i]) + sum((MU * gq[j] - u[j]) * grad(v[i])[j] for j in range(2))
             - A * gq[i] for i in range(2)]
    effective = [q, *v], [rhs_q, *rhs_v]

    # effective at kappa > mu^2: the correction in its compact form, rho = e^q
    rho = sympy.exp(q)
    hess = [grad(c) for c in grad(q)]
    corr = [(ABOVE.kappa - MU ** 2) * div([rho * c for c in hess[i]]) / rho for i in range(2)]
    above = [q, *v], [rhs_q, *(r + c for r, c in zip(rhs_v, corr))]

    # primitive: rho = 1 + s, u = vel
    rho, u = 1 + s, vel
    ln = sympy.log(rho)
    du = [grad(c) for c in u]  # du[i][j] = d_j u_i
    stress = [[MU * rho * (du[i][j] + du[j][i]) + PARAMS.kappa * rho * sympy.diff(ln, xs[i], xs[j])
               for j in range(2)] for i in range(2)]
    rhs_rho = -div([rho * c for c in u])
    rhs_u = [-sum(u[j] * du[i][j] for j in range(2)) + div(stress[i]) / rho
             - A * sympy.diff(rho, xs[i]) / rho for i in range(2)]
    primitive = [rho, *u], [rhs_rho, *rhs_u]

    out = {}
    for name, (w, rhs) in (("effective", effective), ("primitive", primitive),
                           ("effective-kappa-above", above)):
        forcing = [sympy.diff(c, t) - r for c, r in zip(w, rhs)]
        out[name] = (sympy.lambdify((x, y, t), w, "numpy", cse=True),
                     sympy.lambdify((x, y, t), forcing, "numpy", cse=True))
    return out


EXACT_AND_FORCING = _exact_and_forcing()


def max_error(monkeypatch, case, dt, params=PARAMS):
    """Max over the unknowns and the grid of |numerical - exact| at T_END,
    2-D n = 32, with the forcing evaluated at t for stage 1 and t + dt for
    stage 2."""
    g = Grid(2, 32)
    x, y = g.x
    exact, forcing = EXACT_AND_FORCING[case]
    formulation = case.split("-")[0]
    on_grid = formulation == "primitive"  # the primitive density stays on the grid
    rhs = rhs_primitive if on_grid else rhs_effective
    stage_times = []

    def forced(g, p, vals, hats):
        d, spectral = rhs(g, p, vals, hats)
        f = forcing(x, y, stage_times.pop(0))
        f_hat = fft_array(g, np.array(f[on_grid:]))
        return ([a + b for a, b in zip(d, f[:on_grid])],
                [s + b for s, b in zip(spectral, f_hat)])

    monkeypatch.setattr(solver, rhs.__name__, forced)
    scheme = solver._scheme(g, params, SolverConfig(dt=dt, t_end=T_END, formulation=formulation))
    vals = exact(x, y, 0.0)
    steps = round(T_END / dt)
    for m in range(steps):
        stage_times[:] = [m * dt, (m + 1) * dt]
        vals = scheme.step(vals, m * dt)
    assert not stage_times
    return max(np.max(np.abs(a - b)) for a, b in zip(vals, exact(x, y, steps * dt)))


def assert_second_order(monkeypatch, case, params=PARAMS):
    """Each halving of dt = 0.02, 0.01, 0.005 divides the error by 3.6-4.4."""
    errors = [max_error(monkeypatch, case, dt, params) for dt in (0.02, 0.01, 0.005)]
    assert errors[0] < 2e-5
    for coarse, fine in zip(errors, errors[1:]):
        assert 3.6 < coarse / fine < 4.4, errors


def test_forced_run_converges_at_second_order(monkeypatch):
    assert_second_order(monkeypatch, "effective")


def test_forced_primitive_run_converges_at_second_order(monkeypatch):
    assert_second_order(monkeypatch, "primitive")


def test_forced_effective_run_above_quantum_converges_at_second_order(monkeypatch):
    assert_second_order(monkeypatch, "effective-kappa-above", ABOVE)
