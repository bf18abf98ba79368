"""One-dimensional Morse models on the circle.

Functions live on S^1 parameterized by theta in [0, 2pi).  A circle-valued
function carries a drift c: f(theta + 2pi) = f(theta) - c, modeling the
integer cover of the circle.  Critical points are detected as sign changes
of the sampled derivative with a nondegeneracy margin, refined by bisection,
and their values quantized to exact rationals; everything downstream of the
built complex is exact arithmetic.

Action convention: a critical point p becomes a generator at level
-eps * f(p), so maxima of f are the low generators and slope statements
flip sign accordingly.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import sympy as sp
from mpmath.libmp import prec_to_dps as mpf_prec_to_dps, to_str as mpf_to_str

from . import _kernels
from .action import ActionValue, NovikovScalar, PeriodGroup, make_period_group
from .complexes import FilteredComplex, NovikovChain, Orbit
from .errors import ComplexStructureError, FiltrationError, MorseError, PairingError
from .reduction import vec_axpy
from .spectral import rho as engine_rho

__all__ = [
    "MorseFunction1D",
    "CriticalPoint",
    "MorseComplexReport",
    "DecoratedClass",
    "SmallMorseResult",
    "Pairing",
    "build_s1_morse",
    "build_circle_valued",
    "rho_small_morse",
]

TWO_PI = 2.0 * math.pi
DEFAULT_GRID = 1 << 14
THETA_TOLERANCE = 1e-9
VALUE_QUANTUM = 10**12

_THETA = sp.Symbol("theta")


# -- the expression grammar, and its compiler -----------------------------------
# One table admits a node and emits it as Python source.  The text keeps the
# floating-point operations of sympy's NumPy printer in their order: Add terms
# in `as_ordered_terms()` order, a Mul as its coefficient then
# `as_ordered_factors()`, a Rational as (p/q), a Float as the printer writes it;
# parentheses only where a subtree would otherwise regroup.

def _emit_add(node, names):
    return " + ".join(_wrap(t, names, sp.Add) for t in node.as_ordered_terms())


def _emit_mul(node, names):
    c, rest = node.as_coeff_Mul()
    factors = [_wrap(f, names, (sp.Add, sp.Mul)) for f in rest.as_ordered_factors()]
    if c is sp.S.NegativeOne:
        return "-" + "*".join(factors)
    return "*".join(factors if c is sp.S.One else [_emit(c, names)] + factors)


def _emit_call(node, names):
    return f"{node.func.__name__}({_emit(node.args[0], names)})"  # sin or cos of _NUMPY


def _emit_float(node, names):
    dps = 0 if node._prec < 5 else mpf_prec_to_dps(node._prec)
    return f"({mpf_to_str(node._mpf_, dps)})"


_NODES = {
    sp.Add: _emit_add,
    sp.Mul: _emit_mul,
    sp.Pow: lambda node, names: (
        f"{_wrap(node.base, names, (sp.Add, sp.Mul, sp.Pow, sp.Number))}**{int(node.exp)}"),
    sp.Rational: lambda node, names: str(node.p) if node.q == 1 else f"({node.p}/{node.q})",
    sp.Float: _emit_float,
    type(sp.pi): lambda node, names: "pi",
    sp.Symbol: lambda node, names: names[node],
    sp.sin: _emit_call,
    sp.cos: _emit_call,
}
_NUMPY = {"__builtins__": {}, "sin": np.sin, "cos": np.cos, "pi": np.pi}


def _rule(node, symbols):
    """The emitter of an admitted node; MorseError for any other node."""
    for cls in type(node).__mro__:
        if cls in _NODES:
            break
    else:
        raise MorseError(f"unsupported expression node {node!r}")
    if cls is sp.Pow and not (node.exp.is_Integer and node.exp >= 0):
        raise MorseError(f"unsupported power {node}")
    if cls is sp.Symbol and node not in symbols:
        raise MorseError(f"unknown symbol {node}")
    return _NODES[cls]


def _emit(node, names):
    return _rule(node, names)(node, names)


def _wrap(node, names, grouped):
    text = _emit(node, names)
    return f"({text})" if isinstance(node, grouped) else text


def validate_expression(expr: sp.Expr, symbols=(_THETA,)):
    """Restrict to sums/products of sin, cos, polynomials, rational constants."""
    for node in sp.preorder_traversal(expr):
        _rule(node, symbols)


def compile_expression(expr, symbols=(_THETA,)):
    """A NumPy function of `symbols`, positionally, computing `expr` bit for
    bit as sympy's NumPy code printer would; a list compiles to one
    list-returning function.  Only admitted nodes are emitted, so this also
    validates `expr`."""
    names = {s: f"x{i}" for i, s in enumerate(symbols)}
    if isinstance(expr, list):
        body = "[" + ", ".join(_emit(e, names) for e in expr) + "]"
    else:
        body = _emit(expr, names)
    source = f"lambda {', '.join(names.values())}: {body}"
    return eval(compile(source, "<closed form>", "eval"), _NUMPY)


def parse_expression(text: str, symbols=(_THETA,)) -> sp.Expr:
    """The sympy tree of `text`.  Every parser failure is a MorseError: a
    very long expression makes sympy's parser raise RecursionError (or a
    ValueError around it), and its message quotes only the text's start."""
    local = {str(s): s for s in symbols}
    local.update({"sin": sp.sin, "cos": sp.cos, "pi": sp.pi})
    try:
        expr = sp.sympify(text, locals=local, rational=True)
    except (sp.SympifyError, SyntaxError, TypeError, ValueError, RecursionError) as e:
        shown = repr(text)
        if len(shown) > 200:
            shown = f"{shown[:80]}... ({len(shown)} characters)"
        raise MorseError(f"cannot parse expression {shown}: {e}") from None
    validate_expression(expr, symbols)
    return expr


def _quantize(v: float) -> Fraction:
    return Fraction(round(v * VALUE_QUANTUM), VALUE_QUANTUM)


def bisect_cells(lo: np.ndarray, h: float, flo: np.ndarray, fp) -> np.ndarray:
    """Bisect every cell [lo, lo + h] to a zero of the derivative at once.

    flo holds the derivative at lo, and fp(mid, act) gives it at the
    midpoints `mid` of the still active cells `act` (indices into lo), so
    cells of different functions can share a round.  Each cell stops on
    its own at an exact zero or once narrower than THETA_TOLERANCE, so
    every theta is the one a cell-by-cell bisection would return.
    """
    hi = lo + h
    lo = lo.copy()
    rising = flo > 0  # lo only moves to points where f' keeps this sign
    theta = lo.copy()  # an exact zero at lo stands as it is
    act = np.nonzero(flo != 0.0)[0]
    while True:
        wide = hi[act] - lo[act] > THETA_TOLERANCE
        done = act[~wide]
        theta[done] = 0.5 * (lo[done] + hi[done])
        act = act[wide]
        if not act.size:
            break
        mid = 0.5 * (lo[act] + hi[act])
        fmid = fp(mid, act)
        zero = fmid == 0.0
        theta[act[zero]] = mid[zero]
        act, mid, fmid = act[~zero], mid[~zero], fmid[~zero]
        same = (fmid > 0) == rising[act]
        lo[act[same]] = mid[same]
        hi[act[~same]] = mid[~same]
    return theta


class CriticalPoint:
    """Refined critical point.  Its value is mean-zeroed and quantized: a
    whole number `quanta` of 1/VALUE_QUANTUM, which `value` reads as a
    Fraction."""

    __slots__ = ("theta", "quanta", "index", "raw_value")

    def __init__(self, theta: float, quanta: int, index: int, raw_value: float):
        self.theta = theta
        self.quanta = quanta
        self.index = index  # Morse index of -f restricted to the circle: 0 or 1
        self.raw_value = raw_value

    @property
    def value(self) -> Fraction:
        return Fraction(self.quanta, VALUE_QUANTUM)

    def __repr__(self):
        return f"CriticalPoint(theta={self.theta:.6f}, value={self.value}, index={self.index})"


class MorseFunction1D:
    """Closed-form or sampled function on the circle, with optional drift."""

    def __init__(self, f, fp, N=DEFAULT_GRID, drift=Fraction(0), expr=None, samples=None):
        self._f = f
        self._fp = fp
        self.N = int(N)
        self.drift = Fraction(drift)
        self.expr = expr
        self.samples = samples
        self._crit = None
        self._mean = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def closed_form(cls, expr, N=DEFAULT_GRID, drift=0):
        """f and f' compiled from the expression (text, or a sympy tree that
        the compiler admits), minus the drift slope c * theta / 2pi."""
        if isinstance(expr, str):
            expr = parse_expression(expr)
        drift = Fraction(drift)
        f_p = compile_expression(expr)
        fp_p = compile_expression(sp.diff(expr, _THETA))
        slope = float(drift) / TWO_PI

        def f(t):
            t = np.asarray(t, dtype=float)
            return np.zeros_like(t) + f_p(t) - slope * t  # broadcast constants

        def fp(t):
            t = np.asarray(t, dtype=float)
            return np.zeros_like(t) + fp_p(t) - slope

        return cls(f, fp, N=N, drift=drift, expr=expr)

    @classmethod
    def from_samples(cls, values, drift=0):
        values = np.asarray(values, dtype=float)
        N = values.shape[0]
        if N < 8:
            raise MorseError("need at least 8 samples")
        drift = Fraction(drift)
        h = TWO_PI / N
        slope = float(drift) / TWO_PI
        deriv = (np.roll(values, -1) - np.roll(values, 1)) / (2 * h)

        def interpolate(table, t):
            x = np.mod(t, TWO_PI) / h
            i = np.floor(x).astype(int) % N
            frac = x - np.floor(x)
            return table[i] * (1 - frac) + table[(i + 1) % N] * frac

        def f(t):
            t = np.asarray(t, dtype=float)
            return interpolate(values, t) - slope * t

        def fp(t):
            t = np.asarray(t, dtype=float)
            return interpolate(deriv, t) - slope

        return cls(f, fp, N=N, drift=drift, samples=values)

    # -- algebra on closed forms ------------------------------------------------
    # negated() and added() reuse the parents' callables: no sympy diff and
    # no compile, while expr keeps the closed form for reports.

    def negated(self) -> "MorseFunction1D":
        if self.expr is None:
            return MorseFunction1D.from_samples(-self.samples, drift=-self.drift)
        f, fp = self._f, self._fp
        out = MorseFunction1D(
            lambda t: -f(t), lambda t: -fp(t), N=self.N, drift=-self.drift, expr=-self.expr
        )
        if self._crit is not None:
            # every step of _detect commutes with negation: the grid scan,
            # the a == 0 -> -b rule, bisection, the pairwise mean and
            # round-half-even quantization; maxima and minima swap
            out._crit = [
                CriticalPoint(p.theta, -p.quanta, 1 - p.index, -p.raw_value)
                for p in self._crit
            ]
        return out

    def added(self, other: "MorseFunction1D") -> "MorseFunction1D":
        if self.expr is None or other.expr is None:
            raise MorseError("sum requires closed forms")
        f1, fp1, f2, fp2 = self._f, self._fp, other._f, other._fp
        return MorseFunction1D(
            lambda t: f1(t) + f2(t), lambda t: fp1(t) + fp2(t),
            N=max(self.N, other.N), drift=self.drift + other.drift,
            expr=self.expr + other.expr,
        )

    # -- evaluation -------------------------------------------------------------

    def grid(self) -> np.ndarray:
        return np.arange(self.N) * (TWO_PI / self.N)

    def periodic_mean(self) -> float:
        if self._mean is None:
            g = self.grid()
            vals = self._f(g) + (float(self.drift) / TWO_PI) * g
            self._mean = float(np.mean(vals))
        return self._mean

    # -- critical points ---------------------------------------------------------

    def critical_points(self) -> list:
        if self._crit is None:
            self._crit = self._detect()
        return self._crit

    def _detect(self) -> list:
        lo, flo, falls, mean = self._scan(self._fp(self.grid()))
        thetas = bisect_cells(lo, TWO_PI / self.N, flo, lambda mid, act: self._fp(mid))
        return self._finish(thetas, self._f(thetas), falls, mean)

    def _scan(self, deriv: np.ndarray, mean: Fraction | None = None):
        """`_check_cells` of the critical cells of the whole grid f' in
        deriv, found by `_kernels.critical_cells`."""
        cells = _kernels.critical_cells(deriv)
        return self._check_cells(deriv, cells, deriv[cells], deriv[(cells + 1) % self.N], mean)

    def _check_cells(self, sampled, cells, flo, fhi, mean: Fraction | None = None):
        """The checks of a grid scan, given the f' values it sampled, its
        sorted critical cells, and f' at both ends of each: per cell its
        start lo, f'(lo) and whether f' falls across it, and the quantized
        mean, `mean` if given.  Only these per-cell arrays outlive the
        call, never the grid."""
        h = TWO_PI / self.N
        margin = (2.0 / self.N) * h
        if not (np.isfinite(sampled).all() and np.isfinite(flo).all()
                and np.isfinite(fhi).all()):
            raise MorseError("derivative evaluation failed")
        if len(cells) == 0:
            raise MorseError("no critical points detected after normalization")
        bad = cells[_kernels.curvature_flags(flo, fhi, margin) == 0]
        if bad.size:
            raise MorseError(f"degeneracy within margin at cells {bad.tolist()}")
        # two crossings through one grid point where f' barely leaves zero:
        # a degenerate critical point sampled as a max/min pair
        shared = (cells + 1) % self.N
        following = np.concatenate((cells[1:], cells[:1]))
        touching = shared[(following == shared) & (np.abs(fhi) < margin)]
        if touching.size:
            raise MorseError(
                f"degenerate critical point at theta={touching[0] * h:.9f}: "
                "f' touches zero on the grid"
            )
        mean = _quantize(self.periodic_mean()) if mean is None else mean
        return cells * h, flo, flo > fhi, mean

    def _finish(self, thetas, raws, falls, mean) -> list:
        """Critical points at the refined thetas, with f there in raws:
        index, raw and quantized value, then the alternation check.  The
        mean is a whole number of quanta (`_quantize`), so each value is
        one integer subtraction."""
        shift = mean.numerator * (VALUE_QUANTUM // mean.denominator)
        out = []
        for theta, raw, fall in zip(thetas, raws, falls):
            raw = float(raw)
            index = 0 if fall else 1  # f' falls through zero at a maximum of f
            out.append(CriticalPoint(theta, round(raw * VALUE_QUANTUM) - shift, index, raw))
        if self.drift == 0:
            zeros = sum(1 for p in out if p.index == 0)
            ones = len(out) - zeros
            if zeros != ones:
                raise MorseError("alternation violated: #maxima != #minima")
        return out

    def value_range(self):
        """(min, max) over critical values, exact after quantization."""
        crit = self.critical_points()
        vals = [p.value for p in crit]
        return min(vals), max(vals)


class MorseComplexReport:
    """Built complex plus provenance: critical points and group data."""

    def __init__(self, complex: FilteredComplex, critical_points, group):
        self.complex = complex
        self.critical_points = critical_points
        self.group = group

    def orbit_of(self, i: int) -> str:
        return f"c{i}"

    def point_class(self) -> NovikovChain:
        for i, p in enumerate(self.critical_points):
            if p.index == 0:
                return NovikovChain.unit(self.group, self.orbit_of(i))
        raise MorseError("no index-0 generator")

    def fundamental_class(self) -> NovikovChain:
        chain = NovikovChain(self.group)
        for i, p in enumerate(self.critical_points):
            if p.index == 1:
                chain = chain + NovikovChain.unit(self.group, self.orbit_of(i))
        if chain.is_zero():
            raise MorseError("no index-1 generator")
        return chain

    def class_chain(self, name) -> NovikovChain:
        if isinstance(name, NovikovChain):
            return name
        if name == "point":
            return self.point_class()
        if name == "fundamental":
            return self.fundamental_class()
        raise MorseError(f"unknown class {name!r}")


def _circle_boundary(crit, group) -> dict:
    """An index-1 generator sends +1 to its counterclockwise index-0
    neighbor and -1 to the clockwise one.  On a rank-1 group a step that
    wraps past the domain end (wrap = +-1) carries the deck cap (-wrap,):
    its level shifts by +-omega.  Only the index sequence of crit is read."""
    k = len(crit)
    boundary: dict = {}
    for i, p in enumerate(crit):
        if p.index != 1:
            continue
        row: dict = {}
        for j, wrap, coeff in ((i + 1, i + 1 == k, 1), (i - 1, -(i == 0), -1)):
            cap = (-int(wrap),) if group.rank else ()
            vec_axpy(row, None, {f"c{j % k}": NovikovScalar.monomial(group, cap, coeff)})
        boundary[f"c{i}"] = row  # FilteredComplex drops an empty row
    return boundary


def _circle_complex(f, crit, eps, group, like=None) -> MorseComplexReport:
    """Generators are the critical points at level -eps*f(p), with the
    boundary of `_circle_boundary`; `like`, a complex over `group` with
    crit's index sequence, lends its boundary, re-levelled.  An entry that
    does not lower the level means f's grid is too coarse.  A critical
    value is a whole number of quanta, so every level is an integer over
    the one scale eps.denominator * VALUE_QUANTUM (`Orbit.scaled`)."""
    scale = eps.denominator * VALUE_QUANTUM
    orbits = [Orbit.scaled(f"c{i}", -eps.numerator * p.quanta, scale, p.index)
              for i, p in enumerate(crit)]
    k = len(crit)
    try:
        if like is None:
            X = FilteredComplex(group, orbits, _circle_boundary(crit, group))
        else:
            X = like.relevelled(orbits)
    except FiltrationError:  # the entry's drop is eps * (value_j - value_i - wrap * drift)
        i, j = next((i, j % k) for i, p in enumerate(crit) if p.index == 1
                    for j, wrap in ((i + 1, i + 1 == k), (i - 1, -(i == 0)))
                    if crit[j % k].value - p.value <= wrap * f.drift)
        p, q = crit[i], crit[j]
        raise MorseError(
            f"critical points c{i} (theta={p.theta:.9f}, value {p.value}) and c{j} "
            f"(theta={q.theta:.9f}, value {q.value}) do not lower the level on a "
            f"{f.N}-point grid: the grid is too coarse") from None
    return MorseComplexReport(X, crit, group)


def build_s1_morse(f: MorseFunction1D, eps=1) -> MorseComplexReport:
    """Morse complex of -eps*f on the circle over the trivial period group."""
    eps = Fraction(eps)
    if eps <= 0:
        raise MorseError("eps must be positive")
    if f.drift != 0:
        raise MorseError("drift requires build_circle_valued")
    return _circle_complex(f, f.critical_points(), eps, make_period_group([], []))


def build_circle_valued(f: MorseFunction1D, eps=1) -> MorseComplexReport:
    """Morse complex on the integer cover for a drift function.

    Orbit basis is one fundamental domain; descending adjacencies that
    wrap the domain pick up the deck cap with omega = eps*drift.
    """
    eps = Fraction(eps)
    if f.drift == 0:
        return build_s1_morse(f, eps)
    if f.drift < 0:
        raise MorseError("drift must be nonnegative")
    group = make_period_group([ActionValue.rational(eps * f.drift)], [0])
    try:
        crit = f.critical_points()
    except MorseError as e:
        if "no critical points" not in str(e):
            raise
        crit = []
    return _circle_complex(f, crit, eps, group)


class Pairing:
    """Index-preserving bijection between critical point sets."""

    __slots__ = ("pairs", "max_distance")

    def __init__(self, pairs, max_distance):
        self.pairs = pairs
        self.max_distance = max_distance

    def __iter__(self):
        return iter(self.pairs)

    def __len__(self):
        return len(self.pairs)


def _circle_distance(a: float, b: float) -> float:
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def pair_critical_lists(c1, c2) -> Pairing:
    """Pair each critical point of c1 with its unique nearest same-index
    partner in c2.

    Refuses (PairingError) on count mismatch or ambiguity within the
    separation radius: both signal that the pair straddles a bifurcation.
    """
    if len(c1) != len(c2):
        raise PairingError(f"critical point counts differ: {len(c1)} vs {len(c2)}")
    # separation radius: half the nearest same-index neighbors' distance (a
    # freshly born max/min pair sits arbitrarily close but has distinct indices)
    gaps = []
    for idx in (0, 1):
        thetas = sorted(p.theta for p in c1 if p.index == idx)
        if len(thetas) > 1:
            gaps += [
                _circle_distance(thetas[i], thetas[(i + 1) % len(thetas)])
                for i in range(len(thetas))
            ]
    radius = min(gaps) / 2 if gaps else math.pi
    pairs = []
    used = set()
    worst = 0.0
    for i, p in enumerate(c1):
        cands = [
            (j, _circle_distance(p.theta, q.theta))
            for j, q in enumerate(c2)
            if q.index == p.index and _circle_distance(p.theta, q.theta) <= radius
        ]
        if len(cands) != 1:
            raise PairingError(
                f"pairing ambiguity at theta={p.theta:.6f}: {len(cands)} candidates"
            )
        j, dist = cands[0]
        if j in used:
            raise PairingError("pairing is not injective")
        used.add(j)
        pairs.append((i, j))
        worst = max(worst, dist)
    return Pairing(pairs, worst)


# ---------------------------------------------------------------------------
# Small-function mini-max formula
# ---------------------------------------------------------------------------


class DecoratedClass:
    """Cap decorations of a class: levels nu_j = -omega(A_j), coefficients c_j."""

    def __init__(self, group: PeriodGroup, caps, coeffs=None):
        self.group = group
        self.caps = [group.check_cap(c) for c in caps]
        if not self.caps:
            raise ComplexStructureError("decorations need at least one cap")
        self.coeffs = [Fraction(c) for c in (coeffs or [1] * len(self.caps))]
        self.levels = sorted((-(group.omega(c)) for c in self.caps), reverse=True)

    @property
    def top_gap(self):
        """nu_1 - nu_2; None when there is a single decoration level."""
        if len(self.levels) < 2:
            return None
        return self.levels[0] - self.levels[1]


class SmallMorseResult:
    __slots__ = ("value", "valid", "minimax", "shift", "condition")

    def __init__(self, value, valid, minimax, shift, condition):
        self.value = value
        self.valid = valid
        self.minimax = minimax
        self.shift = shift
        self.condition = condition

    def __repr__(self):
        return f"SmallMorseResult(value={self.value!r}, valid={self.valid})"


def rho_small_morse(f: MorseFunction1D, eps, cls, decorations: DecoratedClass | None = None):
    """Mini-max level of a decorated Morse class via the small-function formula.

    Valid when eps * (max f - min f) stays below the top decoration gap;
    the returned value is then the top decoration level plus the engine's
    rho of the class on the plain Morse complex of -eps*f.
    """
    eps = Fraction(eps)
    report = build_s1_morse(f, eps)
    rep = report.class_chain(cls)
    lo, hi = f.value_range()
    spread = eps * (hi - lo)
    if decorations is None:
        shift = ActionValue.rational(0)
        condition = None
        valid = True
    else:
        shift = decorations.levels[0]
        gap = decorations.top_gap
        condition = (ActionValue.rational(spread), gap)
        valid = gap is None or ActionValue.rational(spread) <= gap
    if not valid:
        return SmallMorseResult(None, False, None, shift, condition)
    minimax = engine_rho(report.complex, rep).value
    return SmallMorseResult(shift + minimax, True, minimax, shift, condition)
