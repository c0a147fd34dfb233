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


def grid_tendencies(state, params):
    """Grid samples of d_t of each unknown of ``state`` from the package's
    right-hand side: transform, call ``rhs_primitive`` or ``rhs_effective``,
    subtract mu*k^2*W from each diffusive unknown's spectrum W, inverse
    transform. Returns (d_t of the scalar, [d_t of each vector component])."""
    g = state.grid
    lin = params.mu * g.half_k2
    if isinstance(state, PrimitiveState):
        u = [c.values for c in state.u]
        hats = [fft_array(g, c) for c in u]
        d_scalar, nhats = rhs_primitive(g, params, state.rho.values, u, hats)
    else:
        q, v = state.q.values, [c.values for c in state.v]
        qhat, hats = fft_array(g, q), [fft_array(g, c) for c in v]
        nq, nhats = rhs_effective(g, params, q, qhat, v, hats)
        d_scalar = ifft_array(g, nq - lin * qhat)
    return d_scalar, [ifft_array(g, n - lin * w) for n, w in zip(nhats, hats)]
