"""Times the grid kernels on the execution paths this machine has.

Run `PYTHONPATH=src python benchmarks/bench_kernels.py`.  Each table is
labelled by the path `_kernels` actually selected.  When numba is in use
the script forks itself with FLOERMINI_DISABLE_NUMBA=1 to time the numpy
fallback as well; without numba there is only the numpy table.  The
exact-arithmetic engine is deliberately absent here: rational arithmetic
gains nothing from jitting, only the dense grid scans of the Morse/Cerf
layer do.
"""

import os
import subprocess
import sys
import time

import numpy as np


def bench():
    from floermini import _kernels

    n = 1 << 14
    reps = 400
    theta = np.arange(n) * (2 * np.pi / n)
    rows = []

    deriv = -np.sin(theta) - 0.6 * np.sin(2 * theta + 0.5)
    _kernels.critical_cells(deriv, 1e-4)  # warm-up / jit compile
    t0 = time.perf_counter()
    for k in range(reps):
        _kernels.critical_cells(deriv + 1e-6 * k, 1e-4)
    rows.append(("critical_cells", n, reps, time.perf_counter() - t0))

    _kernels.min_positive_combination(1.0, 2 ** 0.5, 10)
    t0 = time.perf_counter()
    for _ in range(5):
        _kernels.min_positive_combination(1.0, 2 ** 0.5, 400)
    rows.append(("min_positive_combination", 801 ** 2, 5, time.perf_counter() - t0))

    print(f"# {'numba' if _kernels.USE_NUMBA else 'numpy'} path")
    for name, size, r, dt in rows:
        print(f"{name:28s} size={size:<9d} reps={r:<4d} total={dt * 1e3:8.1f} ms")
    return rows


def main():
    from floermini import _kernels

    bench()
    if _kernels.USE_NUMBA:
        env = dict(os.environ, FLOERMINI_DISABLE_NUMBA="1")
        subprocess.run([sys.executable, __file__], env=env, check=True)
    elif not os.environ.get("FLOERMINI_DISABLE_NUMBA"):
        print("# numba is not installed: no numba path to time")


if __name__ == "__main__":
    main()
