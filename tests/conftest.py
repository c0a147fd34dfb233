"""Helpers shared by the test modules."""

import numpy as np


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
