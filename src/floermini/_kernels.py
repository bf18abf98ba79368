"""Grid-scan kernel of the Morse/Cerf layer, vectorized with numpy.

The exact-arithmetic core of the package works on Python objects; only
the dense sample grids of a family slice are scanned here.
"""

from __future__ import annotations

import numpy as np


def _zero_as_crossing(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a with each exact zero replaced by -b: a grid point exactly critical
    is treated as a crossing."""
    a = a.copy()
    zero = a == 0.0
    a[zero] = -b[zero]
    return a


def crossings(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Mask of the cells from f' = a to f' = b (elementwise) where the
    derivative changes sign."""
    return _zero_as_crossing(a, b) * b < 0.0


def curvature_flags(a: np.ndarray, b: np.ndarray, margin: float) -> np.ndarray:
    """1 where the discrete curvature b - a of a cell clears `margin`."""
    return (np.abs(b - _zero_as_crossing(a, b)) >= margin).astype(np.int64)


def critical_cells(deriv: np.ndarray) -> np.ndarray:
    """Indices i where the periodic derivative changes sign on (i, i+1)."""
    deriv = np.asarray(deriv, dtype=np.float64)
    return np.nonzero(crossings(deriv, np.roll(deriv, -1)))[0].astype(np.int64)
