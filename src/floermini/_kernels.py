"""Grid-scan kernel of the Morse/Cerf layer, vectorized with numpy.

The exact-arithmetic core of the package works on Python objects; only
the dense sample grids of a family slice are scanned here.
"""

from __future__ import annotations

import numpy as np


def critical_cells(deriv: np.ndarray, margin: float):
    """Indices i where the periodic derivative changes sign on (i, i+1).

    Second array flags cells whose discrete curvature clears `margin`.
    """
    deriv = np.asarray(deriv, dtype=np.float64)
    a = deriv.copy()
    b = np.roll(deriv, -1)
    a[a == 0.0] = -b[a == 0.0]  # grid point exactly critical: treat as crossing
    mask = a * b < 0.0
    cells = np.nonzero(mask)[0]
    curv = b[cells] - a[cells]
    flags = (np.abs(curv) >= margin).astype(np.int64)
    return cells.astype(np.int64), flags
