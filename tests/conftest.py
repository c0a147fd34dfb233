"""Helpers shared by the test modules."""

from types import SimpleNamespace

import numpy as np

from capns import fields
from capns.fields import fft_array, ifft_array
from capns.model import PrimitiveState, rhs_effective, rhs_primitive

FIRST_AXIS = [(-2,), (), (-2,)]  # the gufunc axes of a pass along axis -2


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


def seam_counter(monkeypatch):
    """Rebind the transform seam ``fields._pfu`` to one that makes its calls
    and counts and checks them as they come: [transforms, last forward,
    open first pass].

    Every call writes into its ``out=`` array, which it returns.
    ``rfft_n_even`` and ``irfft`` count one transform each. A complex pass
    is the other half of a 2-D transform: an ``fft`` is the second pass of
    a forward, along axis -2 in place in the output of the ``rfft_n_even``
    just before it (the second entry), and an ``ifft`` is the first pass
    of an inverse, along axis -2, whose output the next call, an
    ``irfft``, reads (the third entry until then, else None).
    """
    seam, calls = fields._pfu, [0, None, None]

    def counted(name):
        def call(*args, **kwargs):
            result = getattr(seam, name)(*args, **kwargs)
            assert kwargs["out"] is result, f"{name} returns its out= array"
            if calls[2] is not None:
                assert name == "irfft" and args[0] is calls[2], f"{name} follows a first pass"
                calls[2] = None
            if name == "fft":
                assert args[0] is calls[1] is result and kwargs["axes"] == FIRST_AXIS, \
                    "an fft that is not the in-place second pass of a forward"
            if name == "ifft":
                assert kwargs["axes"] == FIRST_AXIS, "an ifft that is not a first pass"
                calls[2] = result
            elif name != "fft":
                calls[0] += 1
            calls[1] = result if name == "rfft_n_even" else None
            return result
        return call

    names = ("rfft_n_even", "irfft", "fft", "ifft")
    monkeypatch.setattr(fields, "_pfu", SimpleNamespace(**{n: counted(n) for n in names}))
    return calls


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
