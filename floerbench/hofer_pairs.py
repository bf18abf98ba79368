"""hofer_pairs workload: spectral quantities of random trigonometric pairs.

An input is a pair (f, g) of trigonometric polynomials with at most three
harmonics and coefficients in (1/8)Z, drawn from the seed.  A pair is kept
only if f, g, f+g and f-g are Morse with a comfortable margin on the
4096-point grid, judged by the benchmark's own numpy scan of its own
coefficients, so no op fails on the program's degeneracy guards.

One op: `MorseFunction1D.closed_form` for f and g, `hofer.gamma` of each,
`rho_unit(f.added(g))` and `hofer_quantities(f.added(g.negated()))`.
"""

from __future__ import annotations

import functools
import math
import random
from fractions import Fraction

import numpy as np

import common
from common import require

GRID = 4096
HARMONICS = 3
TWO_PI = 2.0 * math.pi
EPS_CHOICES = (Fraction(1), Fraction(1, 2), Fraction(1, 3))
SLACK = Fraction(4, 10**12)  # the value quantum slack used by the CLI sweep


class Pair:
    __slots__ = ("key", "f", "g", "f_expr", "g_expr", "eps")

    def __init__(self, key, f, g, eps):
        self.key = key
        self.f, self.g, self.eps = f, g, eps
        self.f_expr, self.g_expr = expression(f), expression(g)

    def __repr__(self):
        return f"pair f={self.f_expr!r} g={self.g_expr!r} eps={self.eps}"


def expression(coeffs) -> str:
    """coeffs[k-1] = (a_k, b_k) -> 'a_1*cos(1*theta) + b_1*sin(1*theta) + ...'."""
    terms = []
    for k, (a, b) in enumerate(coeffs, start=1):
        if a:
            terms.append(f"({a})*cos({k}*theta)")
        if b:
            terms.append(f"({b})*sin({k}*theta)")
    return " + ".join(terms)


def values(coeffs, t):
    return sum(float(a) * np.cos(k * t) + float(b) * np.sin(k * t)
               for k, (a, b) in enumerate(coeffs, start=1))


def derivative(coeffs, t):
    return sum(-k * float(a) * np.sin(k * t) + k * float(b) * np.cos(k * t)
               for k, (a, b) in enumerate(coeffs, start=1))


def combine(f, g, sign=1):
    return [(a + sign * c, b + sign * d) for (a, b), (c, d) in zip(f, g)]


def _sign_changes(d):
    s = np.sign(d)
    return np.nonzero(s != np.roll(s, -1))[0]


class _Tables:
    """cos(k t), sin(k t) on the program's grid and on a 8x finer one."""

    def __init__(self):
        self.h = TWO_PI / GRID
        self.t = np.arange(GRID) * self.h
        fine = np.arange(8 * GRID) * (self.h / 8)
        self.grid = [(np.cos(k * self.t), np.sin(k * self.t)) for k in range(1, HARMONICS + 1)]
        self.fine = [(np.cos(k * fine), np.sin(k * fine)) for k in range(1, HARMONICS + 1)]

    @staticmethod
    def eval(table, coeffs, deriv):
        out = 0.0
        for k, ((c, s), (a, b)) in enumerate(zip(table, coeffs), start=1):
            if deriv:
                out = out + (-k * float(a)) * s + (k * float(b)) * c
            else:
                out = out + float(a) * c + float(b) * s
        return out


@functools.cache
def _tables() -> _Tables:
    return _Tables()


def comfortably_morse(coeffs) -> bool:
    """Crossings of f' on the program's grid are clean, well separated,
    curved well above the program's margin, none hides inside a cell, and
    f' has no near-zero dip that does not cross."""
    if not any(a or b for a, b in coeffs):
        return False
    tb = _tables()
    d = tb.eval(tb.grid, coeffs, True)
    if np.any(d == 0.0):
        return False
    cells = _sign_changes(d)
    if len(cells) < 2 or np.any(np.diff(cells) < 4) or cells[0] + GRID - cells[-1] < 4:
        return False
    curv = np.abs(np.roll(d, -1)[cells] - d[cells])
    if np.any(curv < 4 * (2.0 / GRID) * tb.h):
        return False
    fine = tb.eval(tb.fine, coeffs, True)
    if len(_sign_changes(fine)) != len(cells):
        return False
    # f' must not come close to zero without crossing it: a touching zero
    # (f' = f'' = 0) can round to a spurious sign change on the program's grid
    a = np.abs(fine)
    dips = (a <= np.roll(a, 1)) & (a <= np.roll(a, -1)) & (a < 1e-3)
    crossing = np.sign(fine) != np.sign(np.roll(fine, -1))
    if np.any(dips & ~(crossing | np.roll(crossing, 1))):
        return False
    vals = tb.eval(tb.grid, coeffs, False)[cells]
    return bool(np.all(np.abs(vals - np.roll(vals, 1)) > 1e-6))


def _random_trig(rng):
    return [(Fraction(rng.randint(-8, 8), 8), Fraction(rng.randint(-8, 8), 8))
            for _ in range(HARMONICS)]


def build(seed: str, count: int) -> list:
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        f, g = _random_trig(rng), _random_trig(rng)
        eps = rng.choice(EPS_CHOICES)
        if all(comfortably_morse(c) for c in (f, g, combine(f, g), combine(f, g, -1))):
            out.append(Pair(f"{seed}/{len(out)}", f, g, eps))
    return out


class Workload(common.FreshRounds):
    """Every round draws fresh pairs, so sympy's own caches never see a
    whole expression twice across ops."""

    name = "hofer_pairs"
    round_size = 48
    trace_ops = 48
    build = staticmethod(build)

    def __init__(self, fm, seed: int, small: bool = False):
        super().__init__(fm, seed, 4 if small else self.round_size)

    def trace_items(self, k: int) -> list:
        """Distinct pairs for each pass of the traced run."""
        return build(f"{self.seed}:trace{k}", self.trace_ops)

    def op(self, item):
        return op(self.fm, item)

    def digest(self, out) -> str:
        return digest(out)

    def check(self, item, out) -> None:
        check(self.fm, item, out)


def op(fm, pair: Pair):
    f = fm.morse.MorseFunction1D.closed_form(pair.f_expr, N=GRID)
    g = fm.morse.MorseFunction1D.closed_form(pair.g_expr, N=GRID)
    rep_f = fm.hofer.gamma(f, pair.eps)
    rep_g = fm.hofer.gamma(g, pair.eps)
    r_sum = fm.hofer.rho_unit(f.added(g), pair.eps)
    dist = fm.hofer.hofer_quantities(f.added(g.negated()), pair.eps)
    return f, g, rep_f, rep_g, r_sum, dist


def digest(out) -> str:
    _, _, rep_f, rep_g, r_sum, dist = out
    return repr((rep_f.to_json(), rep_g.to_json(), r_sum, dist))


def _extremes(coeffs):
    """(mean, min, max) of the function: a dense scan refined by bisection
    on the derivative at every local extremum."""
    n = 1 << 14
    t = (np.arange(n) + 0.5) * (TWO_PI / n)
    d = derivative(coeffs, t)
    idx = np.nonzero(np.sign(d) != np.sign(np.roll(d, -1)))[0]
    lo, hi = t[idx], t[idx] + TWO_PI / n
    rising = d[idx] < 0  # derivative goes - to +: a local minimum
    for _ in range(45):
        mid = 0.5 * (lo + hi)
        below = (derivative(coeffs, mid) < 0) == rising
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    crit = values(coeffs, 0.5 * (lo + hi))
    return float(np.mean(values(coeffs, t))), float(np.min(crit)), float(np.max(crit))


def check(fm, pair: Pair, out) -> None:
    f, g, rep_f, rep_g, r_sum, (_, _, dist) = out
    AV = fm.action.ActionValue
    zero, slack = AV.rational(0), AV.rational(SLACK)
    eps = float(pair.eps)
    for name, coeffs, rep in (("f", pair.f, rep_f), ("g", pair.g, rep_g)):
        mean, low, high = _extremes(coeffs)
        require(abs(float(rep.rho_unit) - eps * (mean - low)) < 1e-8,
                f"rho_unit({name}) = {float(rep.rho_unit)}, dense scan {eps * (mean - low)}")
        # rho_unit(-name) is E-(-name): it must equal E+(name) exactly
        require(abs(float(rep.rho_unit_inverse) - eps * (high - mean)) < 1e-8,
                f"rho_unit(-{name}) = {float(rep.rho_unit_inverse)}, dense scan {eps * (high - mean)}")
        require(rep.rho_unit_inverse == rep.e_plus, f"E-(-{name}) != E+({name})")
        require(zero <= rep.gamma and rep.gamma <= rep.norm,
                f"gamma({name}) outside [0, ||{name}||]")
    mean, low, _ = _extremes(combine(pair.f, pair.g))
    require(abs(float(r_sum) - eps * (mean - low)) < 1e-8,
            f"rho_unit(f+g) = {float(r_sum)}, dense scan {eps * (mean - low)}")
    require(r_sum <= rep_f.rho_unit + rep_g.rho_unit + slack, "rho(f+g) > rho(f) + rho(g)")
    gap = rep_f.rho_unit - rep_g.rho_unit
    mag = gap if gap >= zero else -gap
    require(mag <= dist + slack, "|rho(f) - rho(g)| > ||f - g||")
