import numpy as np

from _oracles import min_positive_combination
from floermini import _kernels


def _reference_critical_cells(deriv, margin):
    """Plain-Python copy of the periodic sign-change rule."""
    n = len(deriv)
    cells, flags = [], []
    for i in range(n):
        a = deriv[i]
        b = deriv[(i + 1) % n]
        if a == 0.0:
            a = -b  # grid point exactly critical: treat as crossing
        if a * b < 0.0:
            cells.append(i)
            flags.append(1 if abs(b - a) >= margin else 0)
    return cells, flags


def _kernel_cells_and_flags(deriv, margin):
    """`critical_cells`, then `curvature_flags` on f' at both ends of each
    cell, as `MorseFunction1D._scan` and `_check_cells` read them."""
    cells = _kernels.critical_cells(deriv)
    flags = _kernels.curvature_flags(deriv[cells], deriv[(cells + 1) % len(deriv)], margin)
    return [int(c) for c in cells], [int(f) for f in flags]


def test_critical_cells_matches_reference_on_smooth_grid():
    theta = np.arange(1 << 12) * (2 * np.pi / (1 << 12))
    deriv = -np.sin(theta) - 0.6 * np.sin(2 * theta + 0.5)
    expect = _reference_critical_cells(deriv.tolist(), 1e-4)
    assert expect[0]
    assert _kernel_cells_and_flags(deriv, 1e-4) == expect


def test_critical_cells_matches_reference_on_edge_cases():
    # an exact zero (cell 7), a flat crossing below the margin (cell 4),
    # curvature exactly at the margin (cell 9) and a crossing through the
    # wrap-around n-1 -> 0 (cell 11)
    deriv = np.array([-1.0, 1.0, 2.0, -1.0, -1e-9, 1e-9, 3.0, 0.0, -2.0, -0.25, 0.25, 2.0])
    expect = ([0, 2, 4, 7, 9, 11], [1, 1, 0, 1, 1, 1])
    assert _reference_critical_cells(deriv.tolist(), 0.5) == expect
    assert _kernel_cells_and_flags(deriv, 0.5) == expect


def test_dense_subgroup_search_value():
    # best |m + n sqrt2| for |m|,|n| <= 50 is 41 - 29 sqrt2
    best = min_positive_combination(1.0, np.sqrt(2.0), 50)
    assert abs(best - abs(41 - 29 * np.sqrt(2.0))) < 1e-9
