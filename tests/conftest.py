"""Helpers shared by the test modules."""

import numpy as np

from capns.fields import fft_array, ifft_array
from capns.model import PrimitiveState, rhs_effective, rhs_primitive


def full_layout(grid):
    """Reference wavenumbers of the full ``numpy.fft.fftn`` layout, built
    from ``numpy.fft.fftfreq`` and independent of the package's
    half-spectrum tables.

    Returns (modes, k2, kmag): the integer mode numbers of each axis,
    broadcast to ``grid.shape`` with the Nyquist mode as -n/2, and |k|^2
    and |k| in physical units.
    """
    axis = np.fft.fftfreq(grid.n, d=1.0 / grid.n).round().astype(int)
    modes = np.meshgrid(*[axis] * grid.dim, indexing="ij")
    k2 = sum((m * (2 * np.pi / grid.length)) ** 2 for m in modes)
    return modes, k2, np.sqrt(k2)


def step_hats(grid, arrays):
    """Half spectra of ``arrays`` in the step's layout: one stack on a 1-D
    grid, a list on a 2-D one."""
    hats = fft_array(grid, np.array(arrays))
    return hats if grid.dim == 1 else list(hats)


def grid_tendencies(state, params):
    """Grid samples of d_t of each unknown of ``state`` from the package's
    right-hand side: transform, call ``rhs_primitive`` or ``rhs_effective``,
    subtract mu*k^2*W from each diffusive unknown's spectrum W, inverse
    transform. Returns (d_t of the scalar, [d_t of each vector component])."""
    g = state.grid
    lin = params.mu * g.half_k2
    if isinstance(state, PrimitiveState):
        rhs, k, vals = rhs_primitive, 1, [state.rho.values, *(c.values for c in state.u)]
    else:
        rhs, k, vals = rhs_effective, 0, [state.q.values, *(c.values for c in state.v)]
    hats = step_hats(g, vals[k:])
    d_grid, spectral = rhs(g, params, vals, hats)
    d = d_grid + [ifft_array(g, n - lin * w) for n, w in zip(spectral, hats)]
    return d[0], d[1:]
