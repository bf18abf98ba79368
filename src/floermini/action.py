"""Exact arithmetic for period groups, action values and Novikov scalars.

Values live in the quadratic field Q(sqrt(d)) for one declared non-square
d >= 2 (d = 0 means purely rational).  Ordering is decided by exact sign
computation in the field, never by floating point.  Caps are ordered by
omega without building values: a period group keeps its generators in
integer form, so comparing two caps is the sign of X + Y sqrt(d) for
integers X, Y.

Novikov scalars are stored as exact fractions num/den of finitely supported
group-ring elements over the period group, in lowest terms.  A product of
reduced a/b and c/d is cross-cancelled, gcd(ac, bd) = gcd(a, d) gcd(c, b),
so a monomial factor takes no gcd.  Any truncation window can be
materialized deterministically from the fraction, so "widening a window"
is recomputation, never mutation.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import Iterable, Mapping

from sympy.polys.domains import ZZ
from sympy.polys.rings import ring

from .errors import (
    BasisMismatchError,
    ConstantClassError,
    IndependenceError,
    RankMismatchError,
    ZeroScalarError,
)

__all__ = [
    "ActionValue",
    "PeriodGroup",
    "NovikovScalar",
    "NEG_INFINITY",
    "POS_INFINITY",
    "make_period_group",
    "omega_eval",
    "compare",
    "scalar_valuation",
    "leading_term",
    "invert",
]


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        return Fraction(x)
    # anything else is refused, floats included: Fraction(0.1) is the binary
    # float 3602879701896397/2**55, not 1/10
    raise ConstantClassError(f"not an exact rational: {x!r}")


_ONE = Fraction(1)


def _sign(x, y, d: int) -> int:
    """Exact sign of x + y*sqrt(d) for rationals (or integers) x, y and a
    non-square d: opposite signs are settled by comparing x^2 with y^2 d."""
    if not y:
        return (x > 0) - (x < 0)
    sy = 1 if y > 0 else -1
    if x * sy >= 0 or y * y * d > x * x:
        return sy
    return -sy


def _is_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


class _Infinity:
    """Signed infinity sentinel, comparable against ActionValue."""

    __slots__ = ("sign",)

    def __init__(self, sign: int):
        self.sign = sign

    def __repr__(self):
        return "+inf" if self.sign > 0 else "-inf"

    def __eq__(self, other):
        return isinstance(other, _Infinity) and other.sign == self.sign

    def __hash__(self):
        return hash(("infinity", self.sign))

    def __lt__(self, other):
        if isinstance(other, _Infinity):
            return self.sign < other.sign
        return self.sign < 0

    def __le__(self, other):
        return self == other or self < other

    def __gt__(self, other):
        if isinstance(other, _Infinity):
            return self.sign > other.sign
        return self.sign > 0

    def __ge__(self, other):
        return self == other or self > other

    def __neg__(self):
        return _Infinity(-self.sign)

    def __add__(self, other):
        if isinstance(other, _Infinity) and other.sign != self.sign:
            raise ArithmeticError("inf - inf")
        return self

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _Infinity) and other.sign == self.sign:
            raise ArithmeticError("inf - inf")
        return self

    def __rsub__(self, other):
        return -self


NEG_INFINITY = _Infinity(-1)
POS_INFINITY = _Infinity(+1)


class ActionValue:
    """Exact number q + r*sqrt(d); total order agrees with the real embedding."""

    __slots__ = ("q", "r", "d")

    def __init__(self, q=0, r=0, d: int = 0):
        q = _as_fraction(q)
        r = _as_fraction(r)
        if r == 0:
            d = 0
        else:
            if not isinstance(d, int) or d < 2 or _is_square(d):
                raise ConstantClassError(
                    f"irrational base must be a non-square integer >= 2, got {d}"
                )
        self.q = q
        self.r = r
        self.d = d

    @staticmethod
    def _make(q: Fraction, r: Fraction, d: int) -> "ActionValue":
        """Trusted constructor for internal arithmetic: q and r are Fractions
        and d is a checked base (or 0); d drops to 0 when r == 0."""
        out = object.__new__(ActionValue)
        out.q, out.r, out.d = q, r, (d if r else 0)
        return out

    @staticmethod
    def rational(x) -> "ActionValue":
        return ActionValue(_as_fraction(x))

    @staticmethod
    def sqrt(d: int, scale=1) -> "ActionValue":
        return ActionValue(0, _as_fraction(scale), d)

    @staticmethod
    def coerce(x) -> "ActionValue":
        if isinstance(x, ActionValue):
            return x
        return ActionValue.rational(x)

    # -- basis bookkeeping -------------------------------------------------

    def _common_d(self, other: "ActionValue") -> int:
        if self.d == 0:
            return other.d
        if other.d == 0 or other.d == self.d:
            return self.d
        raise BasisMismatchError(f"mixed irrational bases sqrt({self.d}) and sqrt({other.d})")

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        if isinstance(other, _Infinity):
            return other
        other = ActionValue.coerce(other)
        if not (self.d or other.d):  # both rational: r is 0 on both sides
            return ActionValue._make(self.q + other.q, self.r, 0)
        d = self._common_d(other)
        return ActionValue._make(self.q + other.q, self.r + other.r, d)

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, _Infinity):
            return -other
        other = ActionValue.coerce(other)
        if not (self.d or other.d):
            return ActionValue._make(self.q - other.q, self.r, 0)
        d = self._common_d(other)
        return ActionValue._make(self.q - other.q, self.r - other.r, d)

    def __rsub__(self, other):
        return ActionValue.coerce(other) - self

    def __neg__(self):
        return ActionValue._make(-self.q, -self.r, self.d)

    def __mul__(self, other):
        other = ActionValue.coerce(other)
        d = self._common_d(other)
        if self.r != 0 and other.r != 0:
            return ActionValue._make(
                self.q * other.q + self.r * other.r * d,
                self.q * other.r + self.r * other.q,
                d,
            )
        return ActionValue._make(self.q * other.q, self.q * other.r + self.r * other.q, d)

    __rmul__ = __mul__

    def scaled(self, c) -> "ActionValue":
        c = _as_fraction(c)
        return ActionValue._make(self.q * c, self.r * c, self.d)

    # -- ordering ----------------------------------------------------------

    def sign(self) -> int:
        """Exact sign of q + r*sqrt(d)."""
        return _sign(self.q, self.r, self.d)

    def is_zero(self) -> bool:
        return self.q == 0 and self.r == 0

    def __eq__(self, other):
        if isinstance(other, _Infinity):
            return False
        if not isinstance(other, (ActionValue, int, Fraction)):
            return NotImplemented
        other = ActionValue.coerce(other)
        if self.d and other.d and self.d != other.d:
            return False  # sqrt(d) and sqrt(d') are never rationally related
        return self.q == other.q and self.r == other.r

    def __hash__(self):
        # equal values hash equal: a rational value (r == 0, so d == 0)
        # equals its Fraction and must hash like it
        if not self.r:
            return hash(self.q)
        return hash((self.q, self.r, self.d))

    def _cmp(self, other: "ActionValue") -> int:
        """Exact sign of self - other."""
        if not (self.d or other.d):
            return (self.q > other.q) - (self.q < other.q)
        return (self - other).sign()

    def __lt__(self, other):
        if isinstance(other, _Infinity):
            return other.sign > 0
        return self._cmp(ActionValue.coerce(other)) < 0

    def __le__(self, other):
        if isinstance(other, _Infinity):
            return other.sign > 0
        return self._cmp(ActionValue.coerce(other)) <= 0

    def __gt__(self, other):
        if isinstance(other, _Infinity):
            return other.sign < 0
        return self._cmp(ActionValue.coerce(other)) > 0

    def __ge__(self, other):
        if isinstance(other, _Infinity):
            return other.sign < 0
        return self._cmp(ActionValue.coerce(other)) >= 0

    # -- presentation --------------------------------------------------------

    def __float__(self):
        v = float(self.q)
        if self.r != 0:
            v += float(self.r) * math.sqrt(self.d)
        return v

    def __repr__(self):
        if self.r == 0:
            return f"{self.q}"
        if self.q == 0:
            return f"{self.r}*sqrt({self.d})"
        return f"{self.q}{'+' if self.r > 0 else ''}{self.r}*sqrt({self.d})"

    def to_json(self) -> dict:
        return {"q": str(self.q), "irr": str(self.r), "approx": float(self)}

    @staticmethod
    def from_json(obj: Mapping, d: int = 0) -> "ActionValue":
        return ActionValue(Fraction(obj.get("q", "0")), Fraction(obj.get("irr", "0")), d)


class PeriodGroup:
    """Finitely generated subgroup of R with evaluation maps omega and c1.

    Generators are exact constants, each purely rational or a rational
    multiple of the one declared sqrt(d); they must be rationally
    independent, which makes omega injective on Z^rank and caps the rank
    at two.  Injectivity gives every nonzero scalar a unique leading term.
    """

    __slots__ = ("values", "c1_weights", "rank", "d", "zero_cap", "_ints", "_omega_memo")

    def __init__(self, values: Iterable[ActionValue], c1_weights: Iterable[int]):
        values = tuple(ActionValue.coerce(v) for v in values)
        c1_weights = tuple(int(w) for w in c1_weights)
        if len(values) != len(c1_weights):
            raise ConstantClassError("generator values and c1 weights differ in length")
        d = 0
        for v in values:
            if v.q != 0 and v.r != 0:
                raise ConstantClassError(
                    f"generator {v!r} mixes the rational and irrational basis"
                )
            if v.d:
                if d and v.d != d:
                    raise BasisMismatchError("more than one declared square root")
                d = v.d
        # rational independence over the basis {1, sqrt(d)}
        for v in values:
            if v.is_zero():
                raise IndependenceError("zero generator value")
        rationals = [v for v in values if v.r == 0]
        irrationals = [v for v in values if v.r != 0]
        if len(rationals) > 1 or len(irrationals) > 1:
            raise IndependenceError(
                "generator values are rationally dependent "
                "(at most one rational and one sqrt(d)-multiple are independent)"
            )
        self.values = values
        self.c1_weights = c1_weights
        self.rank = len(values)
        self.d = d
        self.zero_cap = (0,) * self.rank
        # integer form: L * values[i] == a_i + b_i sqrt(d) for one common
        # L > 0, so L * omega(cap) == X + Y sqrt(d) with X, Y integers
        scale = math.lcm(*(x.denominator for v in values for x in (v.q, v.r)))
        self._ints = tuple((int(v.q * scale), int(v.r * scale)) for v in values)
        self._omega_memo = {}

    def check_cap(self, cap) -> tuple:
        cap = tuple(int(c) for c in cap)
        if len(cap) != self.rank:
            raise RankMismatchError(f"cap {cap} has rank {len(cap)}, group has {self.rank}")
        return cap

    def omega(self, cap) -> ActionValue:
        try:
            return self._omega_memo[cap]
        except (KeyError, TypeError):  # a new cap, or an unhashable list
            pass
        cap = self.check_cap(cap)
        q = r = Fraction(0)
        for c, v in zip(cap, self.values):
            if c:
                q += v.q * c
                r += v.r * c
        out = self._omega_memo[cap] = ActionValue._make(q, r, self.d)
        return out

    def lowest(self, caps):
        """The cap of least omega among the nonempty `caps` (unique: omega is
        injective), by exact integer signs; no ActionValue is built."""
        if self.rank < 2:  # one generator or none: order by its sign
            return min(caps) if sum(map(sum, self._ints)) >= 0 else max(caps)
        (a0, b0), (a1, b1) = self._ints
        best = bx = by = None
        for cap in caps:
            x, y = cap[0] * a0 + cap[1] * a1, cap[0] * b0 + cap[1] * b1
            if best is None or _sign(x - bx, y - by, self.d) < 0:
                best, bx, by = cap, x, y
        return best

    def c1(self, cap) -> int:
        cap = self.check_cap(cap)
        return sum(c * w for c, w in zip(cap, self.c1_weights))

    @property
    def is_discrete(self) -> bool:
        """Discrete image iff at most one independent generator value."""
        return self.rank <= 1

    @property
    def is_dense(self) -> bool:
        return self.rank >= 2

    def cap_with_omega(self, target: ActionValue):
        """The unique cap with omega(cap) == target, or None.

        Uniqueness comes from independence: the rational generator solves
        for q, the sqrt(d) one for r; existence is an integrality check.
        """
        target = ActionValue.coerce(target)
        if target.d and self.d and target.d != self.d:
            raise BasisMismatchError("membership query over a different sqrt base")
        q, r, sol = target.q, target.r, []
        for v in self.values:  # each coordinate consumed by its one generator
            if v.q:
                sol.append(q / v.q)
                q = 0
            else:
                sol.append(r / v.r)
                r = 0
        if q or r or any(x.denominator != 1 for x in sol):
            return None
        return tuple(int(x) for x in sol)

    def __eq__(self, other):
        return (
            isinstance(other, PeriodGroup)
            and self.values == other.values
            and self.c1_weights == other.c1_weights
        )

    def __hash__(self):
        return hash((self.values, self.c1_weights))

    def __repr__(self):
        vals = ", ".join(repr(v) for v in self.values)
        return f"PeriodGroup([{vals}], c1={list(self.c1_weights)})"

    def to_json(self) -> dict:
        gens = []
        for v in self.values:
            if v.r == 0:
                gens.append({"rational": str(v.q)})
            else:
                gens.append({"sqrt": v.d, "scale": str(v.r)})
        return {"generators": gens, "c1": list(self.c1_weights)}

    @staticmethod
    def from_json(obj: Mapping) -> "PeriodGroup":
        values = []
        for g in obj.get("generators", []):
            if "rational" in g:
                values.append(ActionValue.rational(Fraction(g["rational"])))
            elif "sqrt" in g:
                values.append(ActionValue.sqrt(int(g["sqrt"]), Fraction(g.get("scale", "1"))))
            else:
                raise ConstantClassError(f"unsupported generator spec {g!r}")
        return PeriodGroup(values, obj.get("c1", [0] * len(values)))


def make_period_group(values, c1_weights) -> PeriodGroup:
    """Build a period group from exact constants; see PeriodGroup."""
    return PeriodGroup([ActionValue.coerce(v) for v in values], c1_weights)


def omega_eval(cap, group: PeriodGroup) -> ActionValue:
    return group.omega(cap)


def compare(a: ActionValue, b: ActionValue) -> int:
    """-1, 0, +1 per the real embedding; equality iff identical coefficients."""
    return (ActionValue.coerce(a) - ActionValue.coerce(b)).sign()


# ---------------------------------------------------------------------------
# Novikov scalars
# ---------------------------------------------------------------------------


def _terms_mul(a: dict, b: dict) -> dict:
    if len(a) == 1:
        a, b = b, a
    if len(b) == 1:  # a monomial factor shifts keys one to one: nothing to merge
        ((cb, vb),) = b.items()
        if not any(cb):
            return {ca: va * vb for ca, va in a.items()}
        return {tuple(x + y for x, y in zip(ca, cb)): va * vb for ca, va in a.items()}
    out: dict = {}
    for ca, va in a.items():
        for cb, vb in b.items():
            key = tuple(x + y for x, y in zip(ca, cb)) if ca else ca
            s = out.get(key)
            s = va * vb if s is None else s + va * vb
            if s:
                out[key] = s
            elif key in out:
                del out[key]
    return out


def _terms_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for c, v in b.items():
        s = out.get(c)
        s = v if s is None else s + v
        if s:
            out[c] = s
        elif c in out:
            del out[c]
    return out


@functools.cache
def _poly_ring(rank: int):
    return ring(",".join(f"x{i}" for i in range(rank)), ZZ)[0]


def _to_poly(R, terms: dict):
    """Integer polynomial of L * `terms` times the monomial clearing negative
    exponents, for the least L > 0 clearing the denominators; (poly, low, L)."""
    low = tuple(min(exps) for exps in zip(*terms))
    scale = math.lcm(*(v.denominator for v in terms.values()))
    poly = R.from_dict(
        {
            tuple(x - m for x, m in zip(cap, low)): v.numerator * (scale // v.denominator)
            for cap, v in terms.items()
        }
    )
    return poly, low, scale


def _from_poly(poly, low: tuple, scale: int) -> dict:
    return {tuple(x + m for x, m in zip(e, low)): Fraction(v * scale) for e, v in poly.items()}


def _terms_cancel(num: dict, den: dict, rank: int):
    """Divide the Laurent polynomials num and den by their gcd.

    Monomials are units, so the gcd is taken of the polynomials left after
    shifting every exponent to be non-negative.  A monomial on either side
    leaves nothing to cancel.  The result is num/den up to one rational
    factor shared by both sides, which the leading-term normalization fixes.
    """
    if rank == 0 or len(num) < 2 or len(den) < 2:
        return num, den
    R = _poly_ring(rank)
    p, p_low, p_scale = _to_poly(R, num)
    q, q_low, q_scale = _to_poly(R, den)
    g, p, q = p.cofactors(q)
    if g.is_ground:
        return num, den
    # num/den = (q_scale * p) / (p_scale * q)
    return _from_poly(p, p_low, q_scale), _from_poly(q, q_low, p_scale)


def _lead_to_one(group: PeriodGroup, num: dict, den: dict):
    """(num, den) times the unit c * q^A that makes the leading term of den
    1 * q^0; for coprime num and den this is the reduced form, with no gcd."""
    cap0 = group.lowest(den)
    inv = 1 / den[cap0]
    if any(cap0):
        return tuple(
            {tuple(x - y for x, y in zip(c, cap0)): v * inv for c, v in t.items()}
            for t in (num, den)
        )
    if inv == 1:
        return num, den
    return {c: v * inv for c, v in num.items()}, {c: v * inv for c, v in den.items()}


class NovikovScalar:
    """Element of the Novikov field presented as num/den of finite series.

    The presentation is reduced: num and den are coprime Laurent
    polynomials, and the leading (minimal-omega) term of den is 1 * q^0.
    Zero is 0/1.  Reduced fractions are unique, and they keep elimination
    over dense period groups from swelling through un-cancelled products.
    `*` and `/` cancel each side of one operand against the other operand
    (the inputs are reduced, so that is the whole gcd) and then only scale
    den's leading term, found by the group's integer cap order, to 1.

    The support map below any window level is materialized on demand with
    `terms_below`; the result is guaranteed complete below the requested
    window and recomputed deterministically when the window widens.
    """

    __slots__ = ("group", "num", "den")

    def __init__(self, group: PeriodGroup, num: dict, den: dict | None = None):
        self.group = group
        num = {k: v for k, v in num.items() if v}
        den = {group.zero_cap: _ONE} if den is None else {k: v for k, v in den.items() if v}
        if not den:
            raise ZeroScalarError("zero denominator")
        if num:
            num, den = _terms_cancel(num, den, group.rank)
            self.num, self.den = _lead_to_one(group, num, den)
        else:
            self.num, self.den = num, {group.zero_cap: _ONE}

    @classmethod
    def _reduced(cls, group: PeriodGroup, num: dict, den: dict) -> "NovikovScalar":
        """A scalar from a num/den pair already in reduced form, as is."""
        out = object.__new__(cls)
        out.group, out.num, out.den = group, num, den
        return out

    # -- constructors --------------------------------------------------------

    @staticmethod
    def zero(group: PeriodGroup) -> "NovikovScalar":
        return NovikovScalar(group, {})

    @staticmethod
    def one(group: PeriodGroup) -> "NovikovScalar":
        return NovikovScalar(group, {group.zero_cap: Fraction(1)})

    @staticmethod
    def monomial(group: PeriodGroup, cap, coeff=1) -> "NovikovScalar":
        cap = group.check_cap(cap)
        return NovikovScalar(group, {cap: _as_fraction(coeff)})

    @staticmethod
    def from_terms(group: PeriodGroup, terms: Mapping) -> "NovikovScalar":
        return NovikovScalar(
            group, {group.check_cap(c): _as_fraction(v) for c, v in terms.items()}
        )

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self):
        return bool(self.num)

    @property
    def is_finite(self) -> bool:
        # a one-term den is 1 * q^0: its leading term is normalized
        return len(self.den) == 1

    # -- field arithmetic ------------------------------------------------------

    def _check(self, other: "NovikovScalar"):
        if self.group is not other.group and self.group != other.group:
            raise BasisMismatchError("scalars over different period groups")

    def __add__(self, other: "NovikovScalar") -> "NovikovScalar":
        self._check(other)
        if self.den == other.den:
            return NovikovScalar(self.group, _terms_add(self.num, other.num), self.den)
        num = _terms_add(_terms_mul(self.num, other.den), _terms_mul(other.num, self.den))
        return NovikovScalar(self.group, num, _terms_mul(self.den, other.den))

    def __neg__(self):
        # -num/den is as reduced as num/den: same gcd, same leading den term
        return NovikovScalar._reduced(
            self.group, {c: -v for c, v in self.num.items()}, dict(self.den)
        )

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "NovikovScalar") -> "NovikovScalar":
        self._check(other)
        if not self.num or not other.num:
            return NovikovScalar.zero(self.group)
        # (a/b)(c/d), both reduced: gcd(ac, bd) = gcd(a, d) gcd(c, b)
        rank = self.group.rank
        a, d = _terms_cancel(self.num, other.den, rank)
        c, b = _terms_cancel(other.num, self.den, rank)
        num, den = _terms_mul(a, c), _terms_mul(b, d)
        if b is not self.den or d is not other.den:  # else lead(bd) is 1
            num, den = _lead_to_one(self.group, num, den)
        return NovikovScalar._reduced(self.group, num, den)

    def __truediv__(self, other: "NovikovScalar") -> "NovikovScalar":
        self._check(other)
        if other.is_zero():
            raise ZeroScalarError("division by the zero scalar")
        if not self.num:
            return NovikovScalar.zero(self.group)
        # (a/b)/(c/d) = ad/(bc), both reduced: gcd(ad, bc) = gcd(a, c) gcd(d, b)
        rank = self.group.rank
        a, c = _terms_cancel(self.num, other.num, rank)
        d, b = _terms_cancel(other.den, self.den, rank)
        num, den = _lead_to_one(self.group, _terms_mul(a, d), _terms_mul(b, c))
        return NovikovScalar._reduced(self.group, num, den)

    def scale(self, c) -> "NovikovScalar":
        c = _as_fraction(c)
        if not c:
            return NovikovScalar.zero(self.group)
        # a nonzero rational factor keeps num/den reduced
        return NovikovScalar._reduced(
            self.group, {cap: v * c for cap, v in self.num.items()}, dict(self.den)
        )

    def invert(self) -> "NovikovScalar":
        if self.is_zero():
            raise ZeroScalarError("the zero scalar has no inverse")
        # den/num is as coprime as num/den
        num, den = _lead_to_one(self.group, dict(self.den), dict(self.num))
        return NovikovScalar._reduced(self.group, num, den)

    def __eq__(self, other):
        if not isinstance(other, NovikovScalar):
            return NotImplemented
        self._check(other)
        return self.num == other.num and self.den == other.den  # both reduced

    def __hash__(self):
        raise TypeError("NovikovScalar is not hashable")

    # -- valuation ---------------------------------------------------------

    def valuation(self):
        """min omega over the support; +inf sentinel for the zero scalar."""
        if self.is_zero():
            return POS_INFINITY
        return self.group.omega(self.group.lowest(self.num))  # den has valuation 0

    def leading_term(self):
        """(cap, coefficient) of the minimal-omega support element."""
        if self.is_zero():
            raise ZeroScalarError("the zero scalar has no leading term")
        cap = self.group.lowest(self.num)
        return cap, self.num[cap]

    # -- windowed materialization ----------------------------------------------

    def terms_below(self, window) -> dict:
        """All support terms with omega(cap) <= window, guaranteed complete.

        For a genuine fraction this expands the geometric series of the
        denominator far enough that omitted terms sit strictly above the
        window.  Deterministic for every requested window.
        """
        if self.is_zero():
            return {}
        if self.is_finite:
            out = {c: v for c, v in self.num.items() if self.group.omega(c) <= window}
            return out
        # den = 1 + w with valuation(w) = delta > 0
        w = dict(self.den)
        del w[self.group.zero_cap]
        if not w:
            return {c: v for c, v in self.num.items() if self.group.omega(c) <= window}
        delta = self.group.omega(self.group.lowest(w))
        acc = dict(self.num)  # running num * (-w)^k
        out: dict = {}
        reach = self.valuation()
        while True:
            for c, v in acc.items():
                if self.group.omega(c) <= window:
                    s = out.get(c)
                    s = v if s is None else s + v
                    if s:
                        out[c] = s
                    elif c in out:
                        del out[c]
            reach = reach + delta
            if isinstance(window, _Infinity):
                raise ZeroScalarError("cannot materialize an infinite window")
            if reach > window:
                return out
            acc = _terms_mul(acc, {c: -v for c, v in w.items()})
            acc = {c: v for c, v in acc.items() if self.group.omega(c) <= window}
            if not acc:
                return out

    # -- presentation --------------------------------------------------------

    def _fmt_terms(self, terms: dict) -> str:
        if not terms:
            return "0"
        parts = []
        for cap in sorted(terms):
            v = terms[cap]
            if self.group.rank == 0 or all(c == 0 for c in cap):
                parts.append(f"{v}")
            else:
                parts.append(f"{v}*q^{list(cap)}")
        return " + ".join(parts)

    def __repr__(self):
        s = self._fmt_terms(self.num)
        if self.is_finite:
            return s
        return f"({s})/({self._fmt_terms(self.den)})"

    def to_json(self) -> list:
        if not self.is_finite:
            raise ZeroScalarError("only finite scalars serialize; truncate first")
        return [
            {"cap": list(cap), "coeff": str(v)} for cap, v in sorted(self.num.items())
        ]

    @staticmethod
    def from_json(group: PeriodGroup, obj) -> "NovikovScalar":
        return NovikovScalar.from_terms(
            group, {tuple(t["cap"]): Fraction(t["coeff"]) for t in obj}
        )


scalar_valuation = NovikovScalar.valuation
leading_term = NovikovScalar.leading_term
invert = NovikovScalar.invert
