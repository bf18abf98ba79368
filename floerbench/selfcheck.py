#!/usr/bin/env python3
"""Self-check of the benchmark itself.

Runs every workload at a small size through the same op loop as run.py and
requires 0 failed ops; then corrupts one output of every op and requires
each corrupted op to be counted as failed.

    python3 floerbench/selfcheck.py
"""

from __future__ import annotations

import sys
from fractions import Fraction

import run


def _spectral(fm, item, out):
    """Shift one certified rho, or double one solved preimage."""
    X, classes, certs, const, solves = out
    if certs:
        certs[0].value = certs[0].value + fm.action.ActionValue(1)
        return out, True
    if solves:
        gamma, (beta, over) = solves[0]
        solves[0] = (gamma, (beta + beta, over))
        return out, True
    return out, False


def _cerf(fm, item, code):
    """Move one sample of the written rho curve off its critical value."""
    path = item.out / "rho_curve.csv"
    lines = path.read_text().splitlines()
    cells = lines[3].split(",")
    cells[1] = repr(float(cells[1]) + 1e-3)
    lines[3] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")
    return code, True


def _hofer(fm, item, out):
    """Raise rho_unit(f + g) by 1e-6."""
    f, g, rep_f, rep_g, r_sum, dist = out
    r_sum = r_sum + fm.action.ActionValue.rational(Fraction(1, 10**6))
    return (f, g, rep_f, rep_g, r_sum, dist), True


CORRUPT = {"spectral_corpus": _spectral, "cerf_cli": _cerf, "hofer_pairs": _hofer}


def corrupting(name, fm, wl, counter):
    clean = wl.op

    def op(item):
        out, applied = CORRUPT[name](fm, item, clean(item))
        counter[0] += applied
        return out

    return op


def main() -> int:
    ok = True
    for name in run.WORKLOADS:
        fm, wl, _ = run.setup(name, seed=3, small=True)
        clean = run.timed_pass(wl, 0)
        counter = [0]
        wl.op = corrupting(name, fm, wl, counter)
        bad = run.timed_pass(wl, 0)
        good = clean.failed == 0 and clean.attempted > 0
        caught = counter[0] > 0 and bad.failed == counter[0]
        print(f"{name}: clean {clean.attempted} ops, {clean.failed} failed; "
              f"corrupted {counter[0]} of {bad.attempted} ops, {bad.failed} failed"
              f" -> {'ok' if good and caught else 'FAILED'}")
        ok = ok and good and caught
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
