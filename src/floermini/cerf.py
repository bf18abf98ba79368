"""One-parameter families and their bifurcation diagrams.

A Morse family is a closed-form Hamiltonian H(eta)(theta) swept over a
parameter grid; branches of the diagram track critical points through
parameter space in the (eta, action) plane, so a branch at the critical
point p carries the value -H(eta, p).  Events are localized by bisection:
birth/death shows up as a pairing refusal with a count change, a crossing
as a sign change of the value difference of two equal-index branches.

Closed forms polynomial in eta, like the paper's (1 - s)H0 + sH1, are
expanded once per family and theta grid: H = sum eta^k F_k(theta), with
the G_k = dF_k/dtheta and the means of the F_k sampled, so a slice gets
its mean by Horner's rule.  Away from the diagram's events the critical
points move smoothly, so between nearby parameters f' can change sign
only near them: the scan is certified per block of root etas
(`_Certificate`).  At the block's midpoint f' is evaluated on the whole
grid once; a sample whose value there clears the most f' can move
within the block is certain, its exact sign fixed for every slice of the
block.  A slice of the block, on the grid or off it, evaluates by
Horner's rule only the uncertain samples and their neighbours, finds
cells as sign changes among them plus the block's fixed cells between
two certain samples of opposite sign, and hands them to the checks that
every scan shares, `MorseFunction1D._check_cells`.  Guards keep every
artifact as exact evaluation writes it: evaluated samples near zero,
their neighbours and both ends of each cell are re-evaluated exactly,
and a mean near a half-quantum is recomputed by `periodic_mean()`; the
certificate's own margin is argued next to `_SCAN_GUARD`.  An eta-free
dH/deta is sampled once per family.  Other families (cos(theta + eta))
evaluate the closed form per slice.  The family detects every slice it
uses, `MorseCerfFamily.detect`: it scans each given slice and then
bisects the critical cells of all of them together, one call of the
exact f'(theta, eta) per round.  The grid slices are known before the
walker runs and go in one batch; the endpoints, event bisection, pairing
refinement, crossing search and branch slopes ask for their slices
through `detected_slice`, so every slice is bisected by `bisect_cells`
at `THETA_TOLERANCE`.  A branch is read off a slice as its critical point
of the branch's index nearest the tracked theta.

Between events a generic family only re-levels its complex, and the
family is carried that way (`MorseCerfFamily.complex_at`): over the
trivial group the boundary depends only on the slice's index sequence, so
the slices of one sequence share one boundary object and differ only in
their orbit levels (`FilteredComplex.relevelled`).  While each degree
orders its levels as the previous slice of the sequence did, ties
included, that slice's elimination carries over, and `rho` of the same
representative reads its cached residual off the new levels.  Where the
order changes, at a crossing or a cusp, the slice eliminates afresh; the
vineyard updates of Cohen-Steiner, Edelsbrunner and Morozov would replace
that by a transposition or a pair insertion.

Abstract families carry explicit complexes on the grid plus a declared
event list; genericity has no combinatorial substitute, so undeclared
ambiguity is a refusal, never a guess.
"""

from __future__ import annotations

import bisect
import math
from fractions import Fraction

import numpy as np
import sympy as sp

from . import _kernels
from .action import PeriodGroup, make_period_group
from .complexes import FilteredComplex
from .errors import EventError, MorseError, NonCerfError, PairingError
from .morse import (
    DEFAULT_GRID,
    TWO_PI,
    VALUE_QUANTUM,
    MorseFunction1D,
    _circle_complex,
    _circle_distance,
    bisect_cells,
    build_s1_morse,
    compile_expression,
    pair_critical_lists,
    parse_expression,
    validate_expression,
)

__all__ = [
    "MorseCerfFamily",
    "AbstractCerfFamily",
    "CerfDiagram",
    "Branch",
    "Cusp",
    "Crossing",
    "bifurcation_diagram",
    "classify_events",
    "branch_slope",
    "sub_family",
    "gamma_translate",
    "concat",
]

ETA_TOLERANCE = 1e-6
VALUE_TOLERANCE = 1e-9
SLOPE_TOLERANCE = 10 * VALUE_TOLERANCE  # crossing slopes closer than this are equal
DEFAULT_ETA_GRID = 257

_THETA = sp.Symbol("theta")
_ETA = sp.Symbol("eta")

_EPS = float(np.finfo(float).eps)
# Guards of the eta-expansion, in units of eps * sum_k |eta|^k max|c_k| over its
# coefficients c_k (G_k for f', F_k for the mean).  On the cerf_cli families the
# expansion is within 2 such units of the closed form for f', within 1 for the mean.
_SCAN_GUARD = 4096.0  # f' samples within this of zero are re-evaluated exactly
_MEAN_GUARD = 64.0  # times VALUE_QUANTUM: a mean this near a half-quantum falls back
_SCAN_FLOOR = math.sqrt(np.finfo(float).tiny)  # sample products above it never underflow
# The sign certificate of a block of root etas [lo, hi], anchored at its
# midpoint a, with half-width w and R = max |eta| over it.  The expansion's
# f' at sample j is the polynomial P_j(eta) = sum_k eta^k G_k(theta_j), so
# |P_j(eta) - P_j(a)| <= w * M_j with M_j = sum_k k |G_k(theta_j)| R^(k-1).
# Sample j is certain when its Horner value p_j(a) clears w * M_j + 3 * tol,
# tol the scan guard at R (the guard grows with |eta|, so it bounds the
# guard at every eta of the block): one tol covers the roundings of p_j(a),
# of w * M_j and of P_j(eta) against its Horner value, each a few units of
# the guard's 4096; one is the expansion's error at eta, as in the scan;
# one keeps |f'| above _SCAN_FLOOR.  So at every eta of the block the exact
# f' at a certain sample has p_j(a)'s sign and a magnitude whose products
# never underflow: a cell with two certain ends is critical exactly when
# their anchor signs differ.
_BLOCKS = 16  # blocks of the root-eta range [0, 1]; a power of two, so eta * _BLOCKS is exact


def _horner(coeffs, x):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


def _scan_tol(g_max, eta: float) -> float:
    """The scan guard at eta: the expansion's f' is within it of f'."""
    return max(_SCAN_GUARD * _EPS * _horner(g_max, abs(eta)), _SCAN_FLOOR)


class _Certificate:
    """What a block's anchor fixes for every slice of the block.

    `idx` are the samples a slice evaluates, in grid order: the uncertain
    ones and their neighbours; `G` the G_k there; `nxt` and `prv` the
    positions in idx of each one's grid neighbours, -1 outside idx;
    `pairs` the positions whose next sample is in idx too, so every cell
    with an uncertain end is a pair; `fixed` the cells outside the pairs
    whose two certain ends have opposite signs."""

    __slots__ = ("idx", "G", "nxt", "prv", "pairs", "fixed")

    def __init__(self, G, certain, positive):
        n = len(certain)
        unsure = ~certain
        sampled = unsure | np.roll(unsure, 1) | np.roll(unsure, -1)
        self.idx = np.nonzero(sampled)[0]
        pos = np.full(n, -1)
        pos[self.idx] = np.arange(self.idx.size)
        self.G = [g[self.idx] for g in G]
        self.nxt = pos[(self.idx + 1) % n]
        self.prv = pos[self.idx - 1]
        self.pairs = np.nonzero(self.nxt >= 0)[0]
        # a cell with an end outside idx has two certain ends
        outside = ~(sampled & np.roll(sampled, -1))
        self.fixed = np.nonzero(outside & (positive != np.roll(positive, -1)))[0]

    @classmethod
    def block(cls, G, g_max, lo: float, hi: float) -> "_Certificate":
        """The certificate of root etas [lo, hi], from the G_k grids."""
        a, w, R = 0.5 * (lo + hi), 0.5 * (hi - lo), max(abs(lo), abs(hi))
        anchor = _horner(G, a)
        bound = 3.0 * _scan_tol(g_max, R) + sum(
            (w * k * R ** (k - 1)) * np.abs(G[k]) for k in range(1, len(G)))
        return cls(G, np.abs(anchor) > bound, anchor > 0.0)

    def cells(self, vals, tol: float, fp, n: int):
        """The exact scan's critical cells at one slice of the block, from
        vals, its f' at idx within tol (updated in place), with the exact
        fp at both ends of each cell.  Samples within tol of zero and their
        neighbours in idx are re-evaluated exactly.  The other values have
        the exact sign and lie above _SCAN_FLOOR, so their products keep
        it: no critical pair is missed.  The exact ends then drop a cell
        whose exact product underflows, as the exact scan does."""
        near = np.zeros(vals.size + 1, dtype=bool)  # position -1: not in idx
        np.less_equal(np.abs(vals), tol, out=near[:-1])
        redo = np.nonzero(near[:-1] | near[self.prv] | near[self.nxt])[0]
        h = TWO_PI / n
        if redo.size:
            vals[redo] = fp(self.idx[redo] * h)
        k = self.pairs
        found = self.idx[k[_kernels.crossings(vals[k], vals[self.nxt[k]])]]
        cells = np.sort(np.concatenate([self.fixed, found]))
        ends = fp(np.concatenate([cells, (cells + 1) % n]) * h)
        flo, fhi = ends[:cells.size], ends[cells.size:]
        keep = _kernels.crossings(flo, fhi)
        return cells[keep], flo[keep], fhi[keep]


class _Root:
    """A family's closed form and partial derivatives, compiled once and
    shared with its sub-families, and, when H is polynomial in eta, its
    eta-expansion on the theta grid: (G_k grids, max|G_k|, mean F_k,
    max|F_k|), else None.  The F_k and the G_k each compile to one
    list-returning function.  An expansion's block certificates are built
    on first use."""

    def __init__(self, expr, theta_points: int):
        both = (_THETA, _ETA)
        self.f = compile_expression(expr, both)
        self.fp_theta = compile_expression(sp.diff(expr, _THETA), both)
        fp_eta = sp.diff(expr, _ETA)
        self.fp_eta = compile_expression(fp_eta, both)
        self.eta_free = _ETA not in fp_eta.free_symbols  # same floats at every eta
        poly = expr.as_poly(_ETA)  # None when H is not polynomial in eta
        self.expansion = None
        if poly is not None:
            F = poly.all_coeffs()[::-1]  # F_0, ..., F_d
            n = theta_points
            thetas = np.arange(n) * (TWO_PI / n)  # MorseFunction1D.grid()
            F, G = ([np.zeros(n) + c for c in compile_expression(cs, (_THETA,))(thetas)]
                    for cs in (F, [sp.diff(c, _THETA) for c in F]))
            self.expansion = (G, [float(np.max(np.abs(c))) for c in G],
                              [float(np.mean(c)) for c in F],
                              [float(np.max(np.abs(c))) for c in F])
        self.certificates: dict = {}  # block index -> _Certificate

    def certificate(self, eta: float) -> _Certificate:
        """The certificate of the block [j, j + 1] / _BLOCKS holding eta;
        eta = 1 closes the last block of [0, 1]."""
        j = _BLOCKS - 1 if eta == 1.0 else math.floor(eta * _BLOCKS)
        if j not in self.certificates:
            G, g_max = self.expansion[:2]
            self.certificates[j] = _Certificate.block(G, g_max, j / _BLOCKS, (j + 1) / _BLOCKS)
        return self.certificates[j]


def _slice_scan(f, root: _Root, eta: float):
    """`f._check_cells` of the slice f at eta.  Without an expansion its grid
    f' is scanned exactly; with one, the cells come from the certificate of
    eta's block, f' at its samples by Horner's rule, and the mean from the
    F_k means, unless the exact mean might round the other way: then f
    computes it."""
    if root.expansion is None:
        return f._scan(f._fp(f.grid()))
    _, g_max, means, f_max = root.expansion
    cert = root.certificate(eta)
    vals = np.array(_horner(cert.G, eta))  # a copy: cells() updates it
    cells, flo, fhi = cert.cells(vals, _scan_tol(g_max, eta), f._fp, f.N)
    x = _horner(means, eta) * VALUE_QUANTUM
    guard = _MEAN_GUARD * _EPS * VALUE_QUANTUM * _horner(f_max, abs(eta))
    near_half = abs(x - math.floor(x) - 0.5) <= guard
    return f._check_cells(vals, cells, flo, fhi,
                          None if near_half else Fraction(round(x), VALUE_QUANTUM))


class MorseCerfFamily:
    """Closed-form family eta -> Morse function, swept over [0, 1].

    `affine` identifies this family as the sub-homotopy of a root family:
    the slot s maps to root parameter a + s*(b - a); b < a is the time
    reversal, so one affine covers both orientations.
    """

    def __init__(self, expr, eta_points=DEFAULT_ETA_GRID, theta_points=DEFAULT_GRID,
                 affine=(0.0, 1.0), _root=None):
        if isinstance(expr, str):
            expr = parse_expression(expr, symbols=(_THETA, _ETA))
        else:
            validate_expression(expr, symbols=(_THETA, _ETA))
        self.expr = expr
        self.eta_points = int(eta_points)
        self.theta_points = int(theta_points)
        self.affine = (float(affine[0]), float(affine[1]))
        self._root = _Root(expr, self.theta_points) if _root is None else _root
        self.grid = np.linspace(0.0, 1.0, self.eta_points)
        self._diagram = None
        self._complexes: dict = {}
        self._shapes: dict = {}  # index sequence -> latest complex with it
        self._slices: dict = {}
        self._failed: dict = {}  # slot -> MorseError text of its detection
        self._grid_detected = False
        self._eta_stats = None

    # -- parameter bookkeeping ---------------------------------------------------

    def root_eta(self, s: float) -> float:
        a, b = self.affine
        return a + s * (b - a)

    @property
    def span(self):
        a, b = self.affine
        return min(a, b), max(a, b)

    @property
    def reversed_orientation(self) -> bool:
        return self.affine[1] < self.affine[0]

    # -- slices ------------------------------------------------------------

    def function_at(self, s: float) -> MorseFunction1D:
        """Slice at slot s (cached), not yet detected: `detect` fills in
        its critical points, and every reader takes it through
        `detected_slice`, so all of them share one slice per s.  A slice
        keeps its critical points and mean, never a sample grid.  Its f
        and f' take eta as an array of theta's shape, as `detect` does for
        a batch: numpy's eta**3 need not round as Python's does."""
        s = float(s)
        if s not in self._slices:
            eta = self.root_eta(s)
            root = self._root

            def f(t):
                t = np.asarray(t, dtype=float)
                return np.zeros_like(t) + root.f(t, np.full_like(t, eta))

            def fp(t):
                t = np.asarray(t, dtype=float)
                return np.zeros_like(t) + root.fp_theta(t, np.full_like(t, eta))

            self._slices[s] = MorseFunction1D(f, fp, N=self.theta_points)
        return self._slices[s]

    def detect(self, slots):
        """Detect the slices at `slots` not detected yet, bisecting the
        critical cells of all of them together: each round is one call of
        the exact f'(theta, eta), with eta per cell, so each cell takes the
        midpoints and stops its own slice's detection would.  Only per-cell
        arrays are kept, never a slice's sample grid.  A slice that raises
        MorseError keeps the text for `detected_slice`: no rescan."""
        slices, scans, etas = [], [], []
        for s in dict.fromkeys(map(float, slots)):
            f = self.function_at(s)
            if f._crit is not None or s in self._failed:
                continue
            eta = self.root_eta(s)
            try:
                scans.append(_slice_scan(f, self._root, eta))
            except MorseError as e:
                self._failed[s] = str(e)
                continue
            slices.append((s, f))
            etas.append(eta)
        if not slices:
            return
        lo, flo, falls, means = zip(*scans)
        sizes = [len(cells) for cells in lo]
        eta = np.repeat(etas, sizes)
        root = self._root
        thetas = bisect_cells(
            np.concatenate(lo), TWO_PI / self.theta_points, np.concatenate(flo),
            lambda mid, act: np.zeros_like(mid) + root.fp_theta(mid, eta[act]))
        raws = np.zeros_like(thetas) + root.f(thetas, eta)
        cuts = np.cumsum(sizes)[:-1]
        for (s, f), *found in zip(slices, np.split(thetas, cuts), np.split(raws, cuts),
                                  falls, means):
            try:
                f._crit = f._finish(*found)
            except MorseError as e:
                self._failed[s] = str(e)

    def detect_grid(self):
        """`detect` of every grid slice, once per family."""
        if not self._grid_detected:
            self._grid_detected = True
            self.detect(self.grid)

    def detected_slice(self, s: float) -> MorseFunction1D:
        """The slice at slot s with its critical points, detected by
        `detect`; MorseError, with the detection's text, if it has none."""
        s = float(s)
        self.detect([s])
        if s in self._failed:
            raise MorseError(self._failed[s])
        return self._slices[s]

    def complex_at(self, i: int):
        """Morse complex report at grid index i (cached).  The boundary
        depends only on the slice's index sequence: the first slice of a
        sequence is built by `build_s1_morse`, and each later one re-levels
        the latest of them (`FilteredComplex.relevelled`), which carries
        its decompositions over while the level order holds."""
        if i not in self._complexes:
            self.detect_grid()
            f = self.detected_slice(self.grid[i])
            crit = f.critical_points()
            shape = tuple(p.index for p in crit)
            like = self._shapes.get(shape)
            if like is None:
                report = build_s1_morse(f, 1)
            else:
                report = _circle_complex(f, crit, Fraction(1), like.group, like)
            self._shapes[shape] = report.complex
            self._complexes[i] = report
        return self._complexes[i]

    def diagram(self) -> "CerfDiagram":
        if self._diagram is None:
            self._diagram = bifurcation_diagram(self)
        return self._diagram

    # -- the Cerf-family contract (see `AbstractCerfFamily`) ---------------------

    def chain_complex(self, i: int) -> FilteredComplex:
        return self.complex_at(i).complex

    def step(self, i: int, reverse=False) -> dict:
        """The move across interval i, read off the diagram's tracks and cusps.

        Walking an interval backwards swaps its ends, and a cusp's birth
        becomes a death and vice versa.
        """
        d = self.diagram()
        src, dst = (i + 1, i) if reverse else (i, i + 1)
        lo_t, hi_t = d.tracks[src], d.tracks[dst]
        cusps = [c for c in d.cusps if self.grid[i] < c.eta < self.grid[i + 1]]
        if len(cusps) > 1:
            raise NonCerfError("refine the grid: two cusps in one interval")
        st, dying = {"type": "pairing"}, ()
        if cusps:
            c = cusps[0]
            plus_b, minus_b = c.branches if c.indices[0] == 1 else c.branches[::-1]
            if (c.kind == "birth") != reverse:
                st = {"type": "birth", "plus": hi_t[plus_b], "minus": hi_t[minus_b]}
            else:
                st = {"type": "death", "plus": lo_t[plus_b], "minus": lo_t[minus_b]}
                dying = c.branches
        st["table"] = {lo_t[b]: hi_t[b] for b in lo_t if b not in dying}
        return st

    def cusp_pairs(self, i: int) -> set:
        d = self.diagram()
        track = d.tracks[i]
        return {(track[p], track[m]) for p, m in (c.branches for c in d.cusps)
                if p in track and m in track}

    def class_at(self, i: int, cls):
        return self.complex_at(i).class_chain(cls)

    def _eta_derivative(self, thetas, eta: float):
        thetas = np.asarray(thetas, dtype=float)
        return np.zeros_like(thetas) + self._root.fp_eta(thetas, eta)

    def _eta_derivative_stats(self, eta: float):
        """Mean of dH/deta over the theta grid, and the min and max after
        subtracting it, as floats.  Sampled once per family when dH/deta
        has no eta: every eta then gives bitwise the same floats."""
        if self._eta_stats is not None:
            return self._eta_stats
        thetas = np.arange(self.theta_points) * (TWO_PI / self.theta_points)
        vals = self._eta_derivative(thetas, eta)
        mean = vals.mean()
        vals = vals - mean  # per-slice mean-zero normalization
        stats = (float(mean), float(vals.min()), float(vals.max()))
        if self._root.eta_free:
            self._eta_stats = stats
        return stats

    def eta_derivative_at(self, s: float, theta):
        """d/d(slot) of the normalized Hamiltonian at the root point.

        Normalization keeps every slice mean-zero, so the slice mean of
        the raw derivative is subtracted before the chain rule factor.
        """
        a, b = self.affine
        eta = self.root_eta(float(s))
        raw = self._eta_derivative(theta, eta)
        return (b - a) * (raw - self._eta_derivative_stats(eta)[0])

    def variation_contributions(self):
        """Per grid interval, in slot order: exact (negative, positive)
        variation contributions of the parameter derivative.

        The rule is an upper-biased Riemann sum: each interval contributes
        its worst sampled extremum padded by the sampled spread, so the
        continuation level bounds hold with the reported constants.  A
        derivative constant in the parameter gets zero pad, keeping the
        linear-homotopy values exact.  Sampling happens on the canonical
        ascending root interval, so the time-reversed family receives the
        same floats with the parts swapped: the reversal identity holds
        bitwise, and concatenations add per-interval lists exactly.
        """
        lo, hi = self.span
        m = self.eta_points - 1
        width = (Fraction(hi) - Fraction(lo)) / m

        def extrema(e):
            return self._eta_derivative_stats(e)[1:]

        # interval ends are shared: e1 of interval i is e0 of interval i + 1
        ends = [extrema(lo + (hi - lo) * (i / m)) for i in range(m + 1)]
        parts: dict = {}  # (start, mid, end) extrema -> (neg, pos), each computed once
        out = []
        for i in range(m):
            e0 = lo + (hi - lo) * (i / m)
            e1 = lo + (hi - lo) * ((i + 1) / m)
            key = (ends[i], extrema(0.5 * (e0 + e1)), ends[i + 1])
            part = parts.get(key)
            if part is None:  # exact from here on: a float's Fraction is its value
                mins, maxs = ([Fraction(x) for x in xs] for xs in zip(*key))
                part = parts[key] = ((-min(mins) + (max(mins) - min(mins))) * width,
                                     (max(maxs) + (max(maxs) - min(maxs))) * width)
            out.append(part)
        if self.reversed_orientation:
            out = [(pos, neg) for neg, pos in out[::-1]]
        return out

    def group(self) -> PeriodGroup:
        return make_period_group([], [])


class AbstractCerfFamily:
    """Grid of complexes with declared steps and events.

    steps[i] describes the move from grid point i to i+1:
      {"type": "pairing"}                                   identity pairing
      {"type": "crossing", "a": id, "b": id,
       "eta": e, "value": v}                                pairing; a, b swap levels
      {"type": "slide", "slide_from": x, "slide_over": y,
       "cap": [...], "coeff": "c", "eta": e, "value": v}    transvection
      {"type": "birth"/"death", "plus": id, "minus": id,
       "eta": e, "value": v}                                pair creation/cancel
    A declared event's eta lies strictly inside (0, 1) and in its own
    interval [grid[i], grid[i+1]].  Declared per-step variation bounds may
    accompany the steps as (e_minus, e_plus) pairs of rationals.

    Every family class, `ConcatFamily` included, gives `continuation` the
    same contract, so it never asks which kind it walks:
      grid                 the parameter grid, one point per index
      chain_complex(i)     the FilteredComplex at grid index i
      step(i, reverse)     the move across interval i in the direction it is
                           walked: a step dict of the schema above plus
                           "table", source orbit id -> target orbit id of the
                           paired survivors (a reversed step swaps birth and
                           death and inverts a slide)
      cusp_pairs(i)        the (plus, minus) orbit pairs of cusps at index i,
                           whose connections the dichotomy constant excludes
      class_at(i, cls)     what `rho` takes for a named class at index i
      variation_contributions()  per-interval (negative, positive) parts
      group()              the period group
    A declared step pairs equal orbit ids; a Morse family reads its steps off
    the diagram's tracks and cusps.
    """

    _STEP_KEYS = {"pairing": (), "crossing": ("a", "b", "eta"),
                  "slide": ("slide_from", "slide_over"),
                  "birth": ("plus", "minus"), "death": ("plus", "minus")}

    def __init__(self, group, complexes, steps=None, bounds=None, grid=None):
        self.period_group = group
        self.complexes = list(complexes)
        if len(self.complexes) < 1:
            raise NonCerfError("abstract family needs at least one complex")
        n = len(self.complexes)
        self.grid = np.asarray(
            grid if grid is not None else np.linspace(0.0, 1.0, max(n, 2))[:n]
        )
        if len(self.grid) != n:
            raise NonCerfError("need one grid point per complex")
        self.steps = list(steps or [{"type": "pairing"} for _ in range(n - 1)])
        if len(self.steps) != n - 1:
            raise NonCerfError("need one declared step per grid interval")
        for i, st in enumerate(self.steps):
            kind = st.get("type", "pairing")
            keys = self._STEP_KEYS.get(kind)
            if keys is None or not set(keys) <= st.keys():
                raise NonCerfError(f"declared step {st!r}: types and keys are {self._STEP_KEYS}")
            try:
                eta = float(st["eta"]) if "eta" in st else None
                float(st.get("value", 0.0))
            except (TypeError, ValueError):
                raise NonCerfError(
                    f"declared step {st!r}: eta and value must be numbers") from None
            if kind != "pairing" and eta is not None:
                if not 0.0 < eta < 1.0:
                    raise NonCerfError("declared events must lie strictly inside (0,1)")
                lo, hi = float(self.grid[i]), float(self.grid[i + 1])
                if not lo <= eta <= hi:  # a grid point may itself be the event
                    raise NonCerfError(
                        f"declared step {i} {st!r}: its eta lies outside its interval"
                        f" [{lo}, {hi}]")
            if kind == "crossing":
                for orbit in (st["a"], st["b"]):
                    if not all(orbit in X.orbit_ids() for X in self.complexes[i:i + 2]):
                        raise NonCerfError(
                            f"declared step {st!r}: crossing orbit {orbit!r} is not an orbit"
                            f" of complexes {i} and {i + 1}")
        self.bounds = [
            (Fraction(a), Fraction(b)) for a, b in (bounds or [(0, 0)] * (n - 1))
        ]
        if len(self.bounds) != n - 1:
            raise NonCerfError("need one bounds pair per grid interval")
        self._diagram = None

    def chain_complex(self, i: int) -> FilteredComplex:
        return self.complexes[i]

    def step(self, i: int, reverse=False) -> dict:
        st = _reverse_step(self.steps[i]) if reverse else dict(self.steps[i])
        dying = (st["plus"], st["minus"]) if st.get("type") == "death" else ()
        X = self.complexes[i + 1 if reverse else i]
        st["table"] = {o.id: o.id for o in X.orbits if o.id not in dying}
        return st

    def cusp_pairs(self, i: int) -> set:
        return {(st["plus"], st["minus"]) for st in self.steps
                if st.get("type") in ("birth", "death")}

    def class_at(self, i: int, cls):
        return cls

    def diagram(self) -> "CerfDiagram":
        if self._diagram is None:
            self._diagram = bifurcation_diagram(self)
        return self._diagram

    def group(self) -> PeriodGroup:
        return self.period_group

    def variation_contributions(self):
        """Declared per-step (negative, positive) variation contributions."""
        return list(self.bounds)


class Branch:
    __slots__ = ("id", "index", "etas", "thetas", "values")

    def __init__(self, id, index):
        self.id = id
        self.index = index
        self.etas: list = []
        self.thetas: list = []
        self.values: list = []

    def domain(self):
        return self.etas[0], self.etas[-1]

    def theta_near(self, eta: float) -> float:
        """The tracked theta at eta: a recorded sample's own theta, else
        linear on the circle, along the shorter arc, between the two
        samples around eta; the end sample's outside the domain."""
        i = bisect.bisect_left(self.etas, eta)
        if i == len(self.etas):
            return self.thetas[-1]
        if i == 0 or self.etas[i] == eta:
            return self.thetas[i]
        e0, e1 = self.etas[i - 1], self.etas[i]
        t0 = self.thetas[i - 1]
        arc = (self.thetas[i] - t0 + math.pi) % TWO_PI - math.pi
        return (t0 + arc * (eta - e0) / (e1 - e0)) % TWO_PI


class Cusp:
    __slots__ = ("eta", "value", "branches", "indices", "kind")

    def __init__(self, eta, value, branches, indices, kind):
        self.eta = eta
        self.value = value
        self.branches = branches
        self.indices = indices
        self.kind = kind  # birth | death

    def __repr__(self):
        return f"Cusp({self.kind}, eta={self.eta:.6f}, value={self.value:.6f})"


class Crossing:
    __slots__ = ("eta", "value", "branch_a", "branch_b")

    def __init__(self, eta, value, branch_a, branch_b):
        self.eta = eta
        self.value = value
        self.branch_a = branch_a
        self.branch_b = branch_b

    def __repr__(self):
        return f"Crossing(eta={self.eta:.6f}, value={self.value:.6f})"


class CerfDiagram:
    def __init__(self, branches, cusps, crossings, group, metadata, family=None,
                 tracks=None):
        self.branches = branches
        self.cusps = cusps
        self.crossings = crossings
        self.group = group
        self.metadata = metadata
        self.family = family
        # per grid index: branch id -> orbit id in the complex at that index
        self.tracks = tracks or []

    def branch(self, bid) -> Branch:
        for b in self.branches:
            if b.id == bid:
                return b
        raise EventError(f"unknown branch {bid!r}")

    def events_sorted(self):
        evs = [("cusp", c.eta, c) for c in self.cusps]
        evs += [("crossing", c.eta, c) for c in self.crossings]
        return sorted(evs, key=lambda t: t[1])


# ---------------------------------------------------------------------------
# diagram construction
# ---------------------------------------------------------------------------


def bifurcation_diagram(fam) -> CerfDiagram:
    if isinstance(fam, MorseCerfFamily):
        return _morse_diagram(fam)
    return _abstract_diagram(fam)


def _morse_diagram(fam: MorseCerfFamily) -> CerfDiagram:
    grid = fam.grid
    fam.detect_grid()
    try:
        for e in (grid[0], grid[-1]):
            fam.detected_slice(e)
    except MorseError as e:
        raise NonCerfError(f"endpoint is degenerate: {e}") from None

    cur = _critical_points(fam, grid[0])
    branches = [Branch(f"b{j}", p.index) for j, p in enumerate(cur)]
    alive = dict(enumerate(branches))  # position in current crit list -> Branch
    cusps: list[Cusp] = []
    tracks: list = []
    _record(alive, cur, grid[0])
    tracks.append({b.id: f"c{j}" for j, b in alive.items()})

    walker = _Walker(fam, branches, cusps)
    for i in range(len(grid) - 1):
        cur, alive = walker.advance(cur, alive, float(grid[i]), float(grid[i + 1]))
        _record(alive, cur, grid[i + 1])
        tracks.append({b.id: f"c{j}" for j, b in alive.items()})

    crossings = _detect_crossings(fam, branches, cusps)
    metadata = {
        "eta_points": len(grid),
        "theta_points": fam.theta_points,
        "eta_tolerance": ETA_TOLERANCE,
        "value_tolerance": VALUE_TOLERANCE,
        "events_statement": (
            f"no further events detected at resolution {len(grid)}x{fam.theta_points}"
        ),
    }
    return CerfDiagram(
        branches, cusps, crossings, fam.group(), metadata, fam, tracks
    )


def _critical_points(fam: MorseCerfFamily, s: float) -> list:
    """Critical points of the slice at slot s, read through `detected_slice`;
    a slice without them makes the family non-Cerf."""
    try:
        return fam.detected_slice(s).critical_points()
    except MorseError as e:
        raise NonCerfError(f"degenerate slice at eta={s}: {e}") from None


def _record(alive, crit, eta):
    for j, b in alive.items():
        p = crit[j]
        b.etas.append(float(eta))
        b.thetas.append(p.theta)
        b.values.append(-p.quanta / VALUE_QUANTUM)  # int / int rounds correctly: -float(p.value)


class _Walker:
    """Tracks critical lists across an interval, localizing count changes
    by bisection and refining pure-motion pairing failures adaptively."""

    def __init__(self, fam, branches, cusps):
        self.fam = fam
        self.branches = branches
        self.cusps = cusps

    def advance(self, cur, alive, lo, hi, depth=0):
        if depth > 48:
            raise NonCerfError(
                f"pairing ambiguity not resolvable by refinement near eta={lo}"
            )
        nxt = _critical_points(self.fam, hi)
        if len(nxt) == len(cur):
            try:
                pairs = pair_critical_lists(cur, nxt).pairs
            except PairingError:
                pairs = None
            if pairs is not None:
                return nxt, {bidx: alive[a] for a, bidx in pairs}
            mid = 0.5 * (lo + hi)
            cur, alive = self.advance(cur, alive, lo, mid, depth + 1)
            return self.advance(cur, alive, mid, hi, depth + 1)
        return self._event(cur, alive, lo, hi, len(nxt))

    def _count(self, eta):
        try:
            return len(_critical_points(self.fam, eta))
        except NonCerfError:
            return None

    def _event(self, cur, alive, lo, hi, n_hi):
        n_lo = len(cur)
        a, b = lo, hi
        while b - a > ETA_TOLERANCE:
            mid = 0.5 * (a + b)
            n_mid = self._count(mid)
            if n_mid is None:  # detection margin hit: nudge off the event
                mid = mid + 0.25 * (b - a)
                n_mid = self._count(mid)
                if n_mid is None:
                    break
            if n_mid == n_lo:
                a = mid
            else:
                b = mid
        eta_star = 0.5 * (a + b)
        cur, alive = self.advance(cur, alive, lo, a)  # pure motion below the event
        c_a, c_b = cur, _critical_points(self.fam, b)
        if len(c_b) == n_lo + 2:
            kind, rich, lean, rich_eta = "birth", c_b, c_a, b
        elif len(c_b) == n_lo - 2:
            kind, rich, lean, rich_eta = "death", c_a, c_b, a
        else:
            raise NonCerfError(
                f"count change {n_lo} -> {len(c_b)} at eta={eta_star}: non-Cerf"
            )
        pair_idx = _identify_new_pair(rich, lean)
        indices = tuple(rich[j].index for j in pair_idx)
        if sorted(indices) != [0, 1]:
            raise NonCerfError(f"cusp pair at eta={eta_star} has indices {indices}")
        value = -0.5 * (
            float(rich[pair_idx[0]].value) + float(rich[pair_idx[1]].value)
        )
        survivors = [j for j in range(len(rich)) if j not in pair_idx]

        if kind == "birth":
            pairs = pair_critical_lists(c_a, [rich[j] for j in survivors]).pairs
            remap = {survivors[bpos]: alive[i_a] for i_a, bpos in pairs}
            new_ids = []
            for j in pair_idx:
                br = Branch(f"b{len(self.branches)}", rich[j].index)
                self.branches.append(br)
                remap[j] = br
                new_ids.append(br.id)
            self.cusps.append(Cusp(eta_star, value, tuple(new_ids), indices, "birth"))
            _record(remap, rich, rich_eta)
            return self.advance(rich, remap, b, hi)
        dying = [alive[j].id for j in pair_idx if j in alive]
        # every branch alive just before the death gets a sample at a, so a
        # crossing between the last grid point and the death is seen
        _record({j: br for j, br in alive.items() if br.etas[-1] != a}, c_a, a)
        pairs = pair_critical_lists([rich[j] for j in survivors], c_b).pairs
        remap = {pos_b: alive[survivors[pos_s]] for pos_s, pos_b in pairs}
        self.cusps.append(Cusp(eta_star, value, tuple(dying), indices, "death"))
        _record(remap, c_b, b)
        return self.advance(c_b, remap, b, hi)


def _identify_new_pair(rich, lean):
    """Two entries of `rich` unexplained by `lean`: the bifurcating pair."""
    scores = []
    for j, p in enumerate(rich):
        ds = [_circle_distance(p.theta, q.theta) for q in lean if q.index == p.index]
        scores.append((min(ds) if ds else math.inf, j))
    scores.sort(reverse=True)
    pair = sorted(j for _, j in scores[:2])
    return tuple(pair)


def _branch_point(fam, branch: Branch, eta: float):
    """The critical point of the branch's index on the detected slice at
    eta nearest the branch's tracked theta, within TWO_PI / 64."""
    theta0 = branch.theta_near(eta)
    crit = [p for p in _critical_points(fam, eta) if p.index == branch.index]
    p = min(crit, key=lambda p: _circle_distance(p.theta, theta0), default=None)
    if p is None or _circle_distance(p.theta, theta0) > TWO_PI / 64:
        raise EventError(f"lost the critical point near theta={theta0}")
    return p


def branch_value_at(fam, branch: Branch, eta: float) -> float:
    """Action level of a tracked branch at an off-grid parameter."""
    p = _branch_point(fam, branch, eta)
    return -(p.raw_value - fam.detected_slice(eta).periodic_mean())


def _detect_crossings(fam, branches, cusps):
    crossings = []
    seen = set()
    for ia in range(len(branches)):
        for ib in range(ia + 1, len(branches)):
            a, b = branches[ia], branches[ib]
            if a.index != b.index:
                continue
            lo = max(a.etas[0], b.etas[0])
            hi = min(a.etas[-1], b.etas[-1])
            if hi <= lo:
                continue
            # every eta is recorded for all branches alive there, so b has a's
            b_values = dict(zip(b.etas, b.values))
            etas, diffs = [], []
            for e, va in zip(a.etas, a.values):
                if lo <= e <= hi:
                    etas.append(e)
                    diffs.append(va - b_values[e])
            for k in range(len(etas) - 1):
                if diffs[k] == 0.0:  # the branches meet at this sample
                    eta_star = etas[k]
                elif diffs[k] * diffs[k + 1] < 0:
                    elo, ehi = etas[k], etas[k + 1]
                    dlo = diffs[k]
                    while ehi - elo > ETA_TOLERANCE:
                        mid = 0.5 * (elo + ehi)
                        try:
                            dmid = branch_value_at(fam, a, mid) - branch_value_at(fam, b, mid)
                        except EventError as e:
                            raise NonCerfError(
                                f"crossing search of branches {a.id} and {b.id} at "
                                f"eta={mid}: {e}; refine the eta grid"
                            ) from None
                        if dmid == 0.0 or (dmid > 0) == (dlo > 0):
                            elo, dlo = mid, dmid
                        else:
                            ehi = mid
                    eta_star = 0.5 * (elo + ehi)
                else:
                    continue
                key = (a.id, b.id, round(eta_star / (10 * ETA_TOLERANCE)))
                if key in seen:
                    continue
                seen.add(key)
                value = branch_value_at(fam, a, eta_star)
                crossings.append(Crossing(eta_star, value, a.id, b.id))
    return crossings


def _abstract_diagram(fam: AbstractCerfFamily) -> CerfDiagram:
    branches_by_orbit: dict = {}
    branches = []
    cusps = []
    crossings = []
    tracks = []
    for i, X in enumerate(fam.complexes):
        eta = float(fam.grid[i])
        tracks.append({f"b_{o.id}": o.id for o in X.orbits})
        for o in X.orbits:
            b = branches_by_orbit.get(o.id)
            if b is None:
                b = Branch(f"b_{o.id}", o.index)
                branches_by_orbit[o.id] = b
                branches.append(b)
            b.etas.append(eta)
            b.thetas.append(0.0)
            b.values.append(float(o.level))
    for st in fam.steps:
        kind = st.get("type")
        if kind in ("birth", "death"):
            eta = float(st.get("eta", 0.5))
            value = float(st.get("value", 0.0))
            plus, minus = st["plus"], st["minus"]
            cusps.append(
                Cusp(eta, value, (f"b_{plus}", f"b_{minus}"), (1, 0), kind)
            )
        elif kind == "crossing":
            crossings.append(
                Crossing(
                    float(st["eta"]),
                    float(st.get("value", 0.0)),
                    f"b_{st['a']}",
                    f"b_{st['b']}",
                )
            )
    metadata = {
        "eta_points": len(fam.grid),
        "declared": True,
        "eta_tolerance": ETA_TOLERANCE,
        "value_tolerance": VALUE_TOLERANCE,
    }
    return CerfDiagram(
        branches, cusps, crossings, fam.group(), metadata, fam, tracks
    )


# ---------------------------------------------------------------------------
# validation, slopes, reparametrization, group action
# ---------------------------------------------------------------------------


class ValidationReport:
    def __init__(self, violations):
        self.violations = violations

    @property
    def ok(self):
        return not self.violations

    def __repr__(self):
        return f"ValidationReport(ok={self.ok}, violations={self.violations})"


def classify_events(d: CerfDiagram) -> ValidationReport:
    """Genericity checks: transverse crossings, events pairwise separated.
    Cusps have index step one by construction (`_Walker._event`, (1, 0) declared)."""
    violations = []
    for c in d.crossings:
        try:
            sa = branch_slope(d, c.branch_a, c.eta, side_hint=True)
            sb = branch_slope(d, c.branch_b, c.eta, side_hint=True)
            if abs(sa - sb) <= SLOPE_TOLERANCE:
                violations.append(
                    f"degenerate crossing at eta={c.eta:.6f}: equal slopes"
                )
        except EventError:
            violations.append(f"crossing at eta={c.eta:.6f} overlaps another event")
    events = d.events_sorted()
    for (ka, ea, _), (kb, eb, _) in zip(events, events[1:]):
        if abs(ea - eb) <= ETA_TOLERANCE:
            violations.append(
                f"events at eta={ea:.6f} and {eb:.6f} are not separated"
            )
    values = {}
    for c in d.crossings:
        key = round(c.eta / (10 * ETA_TOLERANCE))
        values.setdefault(key, []).append((c.branch_a, c.branch_b))
    for key, pairs in values.items():
        if len(pairs) > 1:
            violations.append(f"multiple crossing at eta bucket {key}")
    return ValidationReport(violations)


def branch_slope(d: CerfDiagram, branch_id, eta: float, side_hint=False) -> float:
    """Slope of a branch level: -dH/deta at the tracked critical point."""
    b = d.branch(branch_id)
    lo, hi = b.domain()
    if not (lo <= eta <= hi):
        raise EventError(f"eta={eta} outside branch domain [{lo}, {hi}]")
    for kind, e, _ in d.events_sorted():
        if abs(e - eta) <= 2 * ETA_TOLERANCE and not side_hint:
            raise EventError(f"eta={eta} is at a {kind} event")
    fam = d.family
    if not isinstance(fam, MorseCerfFamily):
        # sampled fallback: centered difference of the recorded track, or
        # the secant of a two-sample track
        n = len(b.etas)
        if n < 2:
            raise EventError(f"branch {branch_id} has one sample: no slope")
        i = min(range(n), key=lambda j: abs(b.etas[j] - eta))
        i = max(1, min(n - 2, i))
        lo, hi = i - 1, min(i + 1, n - 1)
        return (b.values[hi] - b.values[lo]) / (b.etas[hi] - b.etas[lo])
    return -float(fam.eta_derivative_at(eta, _branch_point(fam, b, eta).theta))


def sub_family(fam, eta1: float, eta2: float):
    """Affine reparametrization s -> H((1-s) eta1 + s eta2).

    eta1 > eta2 yields the time-reversed run; variation bounds computed
    from canonical ascending samples swap their signed parts exactly.
    """
    if isinstance(fam, MorseCerfFamily):
        for e in (eta1, eta2):
            if not (0.0 <= e <= 1.0):
                raise EventError(f"sub-family parameter {e} outside [0, 1]")
        a0, b0 = fam.affine
        na = a0 + eta1 * (b0 - a0)
        nb = a0 + eta2 * (b0 - a0)
        return MorseCerfFamily(
            fam.expr,
            eta_points=fam.eta_points,
            theta_points=fam.theta_points,
            affine=(na, nb),
            _root=fam._root,
        )
    n = len(fam.grid)
    i1 = int(round(eta1 * (n - 1)))
    i2 = int(round(eta2 * (n - 1)))
    if not (0 <= i1 < n and 0 <= i2 < n):
        raise EventError("sub-family parameters outside the grid")
    if i1 <= i2:
        sel = list(range(i1, i2 + 1))
        steps = fam.steps[i1:i2]
        bounds = fam.bounds[i1:i2]
    else:
        sel = list(range(i1, i2 - 1, -1))
        steps = [_reverse_step(s) for s in fam.steps[i2:i1][::-1]]
        bounds = [(b, a) for a, b in fam.bounds[i2:i1][::-1]]
    comps = [fam.complexes[i] for i in sel]
    if len(comps) == 1:
        comps = comps * 2
        steps = [{"type": "pairing"}]
        bounds = [(Fraction(0), Fraction(0))]
    else:  # each declared event moves with its interval onto the new grid
        new = np.linspace(0.0, 1.0, len(sel))
        steps = [_moved(st, fam.grid[[a, b]], new[j:j + 2])
                 for j, (st, a, b) in enumerate(zip(steps, sel, sel[1:]))]
    return AbstractCerfFamily(fam.period_group, comps, steps, bounds)


def _moved(st, src, dst):
    """A declared step whose interval, ends src in walk order, becomes dst."""
    if "eta" not in st:
        return st
    t = (float(st["eta"]) - src[0]) / (src[1] - src[0])
    return dict(st, eta=float(dst[0] + t * (dst[1] - dst[0])))


def _reverse_step(st):
    st = dict(st)
    kind = st.get("type")
    if kind == "birth":
        st["type"] = "death"
    elif kind == "death":
        st["type"] = "birth"
    elif kind == "slide":
        st["invert"] = not st.get("invert", False)
    return st


class ConcatFamily:
    """fam1 on [0, 1/2], then fam2 on [1/2, 1]: indices up to the junction
    (fam1's last) read fam1, later ones fam2.  The junction excludes the cusp
    pairs both parts exclude, so the dichotomy constant is the parts' minimum.
    """

    def __init__(self, fam1, fam2):
        self.parts = (fam1, fam2)
        self._junction = len(fam1.grid) - 1
        self.grid = np.concatenate([0.5 * fam1.grid, 0.5 + 0.5 * fam2.grid[1:]])

    def _at(self, i: int):
        j = i - self._junction
        return (self.parts[0], i) if j <= 0 else (self.parts[1], j)

    def chain_complex(self, i: int) -> FilteredComplex:
        fam, j = self._at(i)
        return fam.chain_complex(j)

    def step(self, i: int, reverse=False) -> dict:
        fam, j = self._at(i + 1)  # interval i ends inside one part
        return fam.step(j - 1, reverse)

    def cusp_pairs(self, i: int) -> set:
        if i == self._junction:
            return self.parts[0].cusp_pairs(i) & self.parts[1].cusp_pairs(0)
        fam, j = self._at(i)
        return fam.cusp_pairs(j)

    def class_at(self, i: int, cls):
        fam, j = self._at(i)
        return fam.class_at(j, cls)

    def variation_contributions(self):
        """The parts' lists joined: the variation is additive under concatenation."""
        return [c for fam in self.parts for c in fam.variation_contributions()]

    def group(self):
        return self.parts[0].group()


def concat(fam1, fam2):
    """Concatenation; endpoint complexes must agree at the junction."""
    if fam1.chain_complex(len(fam1.grid) - 1).dump() != fam2.chain_complex(0).dump():
        raise EventError("families do not share the junction complex")
    return ConcatFamily(fam1, fam2)


def gamma_translate(d: CerfDiagram, cap) -> CerfDiagram:
    """Shift the whole diagram by the deck action: values drop by omega(cap)."""
    shift = -float(d.group.omega(cap))
    branches = []
    for b in d.branches:
        nb = Branch(b.id, b.index)
        nb.etas = list(b.etas)
        nb.thetas = list(b.thetas)
        nb.values = [v + shift for v in b.values]
        branches.append(nb)
    cusps = [
        Cusp(c.eta, c.value + shift, c.branches, c.indices, c.kind) for c in d.cusps
    ]
    crossings = [
        Crossing(c.eta, c.value + shift, c.branch_a, c.branch_b) for c in d.crossings
    ]
    # the deck action shifts levels, not orbit ids: the tracks carry over
    return CerfDiagram(branches, cusps, crossings, d.group, dict(d.metadata), d.family,
                       d.tracks)
