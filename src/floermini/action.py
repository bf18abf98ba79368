"""Exact arithmetic for period groups, action values and Novikov scalars.

Values live in the quadratic field Q(sqrt(d)) for one declared non-square
d >= 2 (d = 0 means purely rational).  Ordering is decided by exact sign
computation in the field, never by floating point.  Caps are ordered by
omega without building values: a period group keeps its generators in
integer form, so comparing two caps is the sign of X + Y sqrt(d) for
integers X, Y.

Novikov scalars are stored as exact fractions num/den of finitely supported
group-ring elements over the period group: two integer Laurent polynomials
{cap: int}, coprime, with den's leading term at q^0 and positive, and with
no integer common to all their coefficients.  That form is unique, and all
arithmetic on it runs on Python ints.  The polynomial gcd is a native
heuristic gcd (GCDHEU: evaluate at a large integer, take the integer gcd,
read the polynomial back from its digits, accept it after exact trial
division) in at most two variables, the rank bound of a period group.  A
product of coprime a/b and c/d is cross-cancelled, gcd(ac, bd) =
gcd(a, d) gcd(c, b), so a monomial factor takes no gcd.  Any truncation
window can be materialized deterministically from the fraction, so
"widening a window" is recomputation, never mutation.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Mapping
from fractions import Fraction

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
    "LevelForm",
    "NovikovScalar",
    "NEG_INFINITY",
    "POS_INFINITY",
    "make_period_group",
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

    def parts(self) -> tuple:
        """(x, y, den, d): integers with self == (x + y*sqrt(d)) / den, den > 0."""
        q, r = self.q, self.r
        den = math.lcm(q.denominator, r.denominator)
        return q.numerator * (den // q.denominator), r.numerator * (den // r.denominator), \
            den, self.d

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

    __slots__ = ("values", "c1_weights", "rank", "d", "zero_cap", "_scale", "_ints",
                 "_omega_memo")

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
        scale = self._scale = math.lcm(*(x.denominator for v in values for x in (v.q, v.r)))
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


# ---------------------------------------------------------------------------
# Integer level forms
# ---------------------------------------------------------------------------


class _Surd:
    """x + y*sqrt(d) for integers x, y: a level key of an irrational form.
    Keys add, subtract and scale by integers and compare by the exact sign
    of their difference; an int is the key with y = 0."""

    __slots__ = ("x", "y", "d")

    def __init__(self, x: int, y: int, d: int):
        self.x, self.y, self.d = x, y, d

    def _pair(self, other):
        if isinstance(other, _Surd):
            return other.x, other.y
        if isinstance(other, int):
            return other, 0
        return None

    def __add__(self, other):
        p = self._pair(other)
        return NotImplemented if p is None else _Surd(self.x + p[0], self.y + p[1], self.d)

    __radd__ = __add__

    def __sub__(self, other):
        p = self._pair(other)
        return NotImplemented if p is None else _Surd(self.x - p[0], self.y - p[1], self.d)

    def __rsub__(self, other):
        return -self + other

    def __neg__(self):
        return _Surd(-self.x, -self.y, self.d)

    def __mul__(self, n):
        if not isinstance(n, int):
            return NotImplemented
        return _Surd(self.x * n, self.y * n, self.d)

    __rmul__ = __mul__

    def _cmp(self, other):
        """The sign of self - other; None against anything but a key."""
        p = self._pair(other)
        return None if p is None else _sign(self.x - p[0], self.y - p[1], self.d)

    def __eq__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c == 0

    def __hash__(self):
        return hash((self.x, self.y)) if self.y else hash(self.x)

    def __lt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c < 0

    def __le__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c <= 0

    def __gt__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c > 0

    def __ge__(self, other):
        c = self._cmp(other)
        return NotImplemented if c is None else c >= 0

    def __repr__(self):
        return f"_Surd({self.x}, {self.y}, {self.d})"


class LevelForm:
    """The integer form of levels over a period group.

    Its scale L is a positive integer that clears the denominators of the
    levels and of the group's generators (`PeriodGroup._ints`), so that
    L*level = x + y*sqrt(d) and L*omega(cap) = X + Y*sqrt(d) with integers.
    A level's key is the int x when d is 0, else the `_Surd` (x, y).  Keys
    compare, add and subtract exactly on integers; an ActionValue is built
    only when `value` reads a key back.  The key of the lifted generator
    (orbit z, cap A) is key(z) - cap(A).
    """

    __slots__ = ("group", "scale", "d", "_caps")

    def __init__(self, group: PeriodGroup, scale: int, d: int):
        self.group, self.scale, self.d = group, scale, d
        self._caps: dict = {}  # cap -> key of its omega

    @staticmethod
    def of(group: PeriodGroup, parts) -> "LevelForm":
        """The form of the levels with these `ActionValue.parts`, at the
        least common scale of theirs and the group's."""
        d = group.d
        for *_, e in parts:
            if e and e != d:
                if d:
                    raise BasisMismatchError(f"mixed irrational bases sqrt({d}) and sqrt({e})")
                d = e
        return LevelForm(group, math.lcm(group._scale, *(p[2] for p in parts)), d)

    def common(self, other: "LevelForm") -> tuple:
        """(form, f, g): a form of both level sets, f and g the integer
        factors that carry this form's and other's keys into it."""
        if other.scale == self.scale and other.d == self.d:
            return self, 1, 1
        if self.d and other.d:
            raise BasisMismatchError(f"mixed irrational bases sqrt({self.d}) and sqrt({other.d})")
        scale = math.lcm(self.scale, other.scale)
        return LevelForm(self.group, scale, self.d or other.d), scale // self.scale, \
            scale // other.scale

    def key(self, parts):
        """The key of the level with these parts; its denominator divides the scale."""
        x, y, den, _ = parts
        f = self.scale // den
        return x * f if not self.d else _Surd(x * f, y * f, self.d)

    def key_of(self, value):
        """The key of an exact value; None when scale*value has no integer form."""
        value = ActionValue.coerce(value)
        if value.d and self.d and value.d != self.d:
            raise BasisMismatchError(f"mixed irrational bases sqrt({self.d}) and sqrt({value.d})")
        x, y = value.q * self.scale, value.r * self.scale
        if x.denominator != 1 or y.denominator != 1 or (y and not self.d):
            return None
        return x.numerator if not self.d else _Surd(x.numerator, y.numerator, self.d)

    def value(self, key):
        """The ActionValue key / scale; an infinity stays as it is."""
        if isinstance(key, _Infinity):
            return key
        if not self.d:
            return ActionValue._make(Fraction(key, self.scale), _FRACTION_ZERO, 0)
        return ActionValue._make(Fraction(key.x, self.scale), Fraction(key.y, self.scale), self.d)

    def cap(self, cap):
        """The key of omega(cap)."""
        try:
            return self._caps[cap]
        except KeyError:
            pass
        f = self.scale // self.group._scale
        x = y = 0
        for c, (a, b) in zip(cap, self.group._ints):
            x += c * a
            y += c * b
        out = self._caps[cap] = x * f if not self.d else _Surd(x * f, y * f, self.d)
        return out

    def cap_of(self, key):
        """The cap whose omega has this key, or None.  It is unique, as
        omega is injective: the rational generator solves for x, the
        sqrt(d) one for y, and existence is a divisibility check."""
        x, y = (key, 0) if not self.d else (key.x, key.y)
        f = self.scale // self.group._scale
        sol = []
        for a, b in self.group._ints:  # each coordinate consumed by its one generator
            if a:
                c, rem = divmod(x, a * f)
                x = 0
            else:
                c, rem = divmod(y, b * f)
                y = 0
            if rem:
                return None
            sol.append(c)
        return None if x or y else tuple(sol)

    def bound(self, value) -> tuple:
        """(n, b): an integer n > 0 and a key b with sign(k / scale - value)
        == sign(n*k - b) for every key k, for a value whose denominators
        the scale need not clear; an infinity bounds as itself."""
        if isinstance(value, _Infinity):
            return 1, value
        v = ActionValue.coerce(value)
        if v.d and self.d and v.d != self.d:
            raise BasisMismatchError(f"mixed irrational bases sqrt({self.d}) and sqrt({v.d})")
        x, y, n, _ = v.parts()
        return n, (x * self.scale if not y else _Surd(x * self.scale, y * self.scale, v.d))


_FRACTION_ZERO = Fraction(0)


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


def _shift(terms: dict, by: tuple, sign: int) -> dict:
    return {tuple(x + sign * m for x, m in zip(cap, by)): v for cap, v in terms.items()}


# -- the heuristic gcd --------------------------------------------------------
#
# Polynomials here are {exponents: int} with non-negative exponents in one
# or two variables; {(): n} is the integer n once every variable is spent.


def _eval_last(p: dict, x: int) -> dict:
    """p with its last variable set to x."""
    powers = [1]
    for _ in range(max(e[-1] for e in p)):
        powers.append(powers[-1] * x)
    out: dict = {}
    for e, c in p.items():
        k = e[:-1]
        out[k] = out.get(k, 0) + c * powers[e[-1]]
    return {k: c for k, c in out.items() if c}


def _interp_last(p: dict, x: int) -> dict:
    """The polynomial in one more variable whose value at x is p, each
    coefficient spelled in symmetric x-adic digits."""
    out = {}
    half = x // 2
    for k, c in p.items():
        i = 0
        while c:
            d = c % x
            if d > half:
                d -= x
            if d:
                out[k + (i,)] = d
            c = (c - d) // x
            i += 1
    return out


def _balanced_digits(n: int, s: int) -> list:
    """Digits d_i in [-2**(s-1), 2**(s-1)) with n == sum d_i 2**(s*i), for
    s a multiple of 8: the bytes of n plus 2**(s-1) at every digit."""
    count = n.bit_length() // s + 2
    half = 1 << (s - 1)
    halves = half * (((1 << s * count) - 1) // ((1 << s) - 1))
    raw = (n + halves).to_bytes(count * s // 8, "little")
    step = s // 8
    return [int.from_bytes(raw[i:i + step], "little") - half for i in range(0, len(raw), step)]


def _exact_quotient(f: dict, h: dict):
    """f / h when h divides f, else None; one or two variables.

    f and h are packed into integers by x_last = 2**s and, with two
    variables, x_0 = 2**(s * width) for width past f's degree in x_last;
    the integer quotient is unpacked in balanced base-2**s digits.  Packing
    is evaluation, so a remainder means that h does not divide f.  A
    quotient q passes when h * q - f, which vanishes at the packing point,
    has every coefficient below 2**s and every exponent inside the box, so
    is zero.  s is sized first for quotient coefficients up to |f|, then
    for 2**deg(f) * |f|_2, which bounds every factor of f (Mignotte): a
    true quotient always passes there, so None means that h does not
    divide f.
    """
    degs = [max(col) for col in zip(*f)]
    hdegs = [max(col) for col in zip(*h)]
    if any(a > b for a, b in zip(hdegs, degs)):
        return None
    width = degs[-1] + 1 if len(degs) == 2 else 0
    f_max = max(map(abs, f.values()))
    h_sum = sum(map(abs, h.values()))
    mignotte = (math.isqrt(sum(c * c for c in f.values())) + 1) << sum(degs)
    for bound in (f_max, mignotte):
        s = -(-(f_max + (h_sum + 2) * bound).bit_length() // 8) * 8
        ph = sum(c << s * (e[0] * width + e[-1]) for e, c in h.items())
        if not ph:
            continue
        n, r = divmod(sum(c << s * (e[0] * width + e[-1]) for e, c in f.items()), ph)
        if r:
            return None
        digits = _balanced_digits(n, s)
        if width:
            q = {divmod(pos, width): d for pos, d in enumerate(digits) if d}
            if hdegs[1] + max(e[1] for e in q) > degs[1]:
                continue
        else:
            q = {(pos,): d for pos, d in enumerate(digits) if d}
        if f_max + h_sum * max(map(abs, q.values())) < 1 << s:
            return q
    return None


def _heu_xi(f: dict, g: dict) -> int:
    """The first evaluation point of `_heu_gcd`.  It exceeds twice the
    smaller coefficient norm, so a candidate that divides f and g is their
    gcd (Char, Geddes & Gonnet 1989)."""
    fn, gn = max(map(abs, f.values())), max(map(abs, g.values()))
    return max(2 * min(fn, gn) + 29, 2 * min(fn // abs(f[max(f)]), gn // abs(g[max(g)])) + 4)


def _heu_gcd(f: dict, g: dict):
    """(h, f/h, g/h) for h = gcd(f, g), nonzero f and g; GCDHEU (Char,
    Geddes & Gonnet 1989).

    The last variable is set to an integer xi and the gcd of the images is
    taken, an integer gcd once no variable is left.  Its symmetric xi-adic
    digits, made primitive, are the gcd as soon as they divide f and g;
    otherwise xi grows to about 2.73 xi**(5/4) and the round repeats.  A
    large enough xi always passes.
    """
    if not next(iter(f)):
        a, b = f[()], g[()]
        c = math.gcd(a, b)
        return {(): c}, {(): a // c}, {(): b // c}
    c = math.gcd(*f.values(), *g.values())
    if c != 1:
        f = {e: v // c for e, v in f.items()}
        g = {e: v // c for e, v in g.items()}
    xi = _heu_xi(f, g)
    while True:
        ff, gg = _eval_last(f, xi), _eval_last(g, xi)
        if ff and gg:
            h = _interp_last(_heu_gcd(ff, gg)[0], xi)
            if len(h) == 1 and not any(next(iter(h))):  # an integer: f and g are coprime
                return {next(iter(h)): c}, f, g
            k = math.gcd(*h.values())
            if h[max(h)] < 0:
                k = -k
            h = {e: v // k for e, v in h.items()}
            cff = _exact_quotient(f, h)
            cfg = None if cff is None else _exact_quotient(g, h)
            if cfg is not None:
                return {e: v * c for e, v in h.items()}, cff, cfg
        xi = 73794 * xi * math.isqrt(math.isqrt(xi)) // 27011


def _terms_cancel(num: dict, den: dict, rank: int):
    """Divide the integer Laurent polynomials num and den by their gcd.

    Monomials are units, so the gcd is taken of the polynomials left after
    shifting every exponent to be non-negative.  A monomial on either side
    leaves nothing to cancel, and a gcd that is an integer returns the pair
    as it came: the integer content is left to the normalization.
    """
    if rank == 0 or len(num) < 2 or len(den) < 2:
        return num, den
    num_low = tuple(map(min, zip(*num)))
    den_low = tuple(map(min, zip(*den)))
    h, p, q = _heu_gcd(_shift(num, num_low, -1), _shift(den, den_low, -1))
    if len(h) == 1:  # one term dividing polynomials with no monomial factor
        return num, den
    return _shift(p, num_low, 1), _shift(q, den_low, 1)


def _integral(terms: Mapping, scale: int) -> dict:
    """scale * terms, as ints, for rational terms whose denominators divide
    scale."""
    return {k: v.numerator * (scale // v.denominator) for k, v in terms.items()}


def _normalized(group: PeriodGroup, num: dict, den: dict, cap0: tuple):
    """(num, den) times the unit +-q^-cap0 / c, for c the integer content of
    the pair: with cap0 den's leading cap, the canonical form of coprime
    num and den."""
    c = math.gcd(*num.values(), *den.values())
    if den[cap0] < 0:
        c = -c
    if any(cap0):
        return tuple(
            {tuple(x - y for x, y in zip(k, cap0)): v // c for k, v in t.items()}
            for t in (num, den)
        )
    if c == 1:
        return num, den
    return {k: v // c for k, v in num.items()}, {k: v // c for k, v in den.items()}


class _TermsView(Mapping):
    """{cap: Fraction} view of integer terms over a positive integer."""

    __slots__ = ("_terms", "_over")

    def __init__(self, terms: dict, over: int):
        self._terms, self._over = terms, over

    def __getitem__(self, cap):
        return Fraction(self._terms[cap], self._over)

    def __iter__(self):
        return iter(self._terms)

    def __len__(self):
        return len(self._terms)

    def __repr__(self):
        return repr(dict(self.items()))


class NovikovScalar:
    """Element of the Novikov field presented as num/den of finite series.

    num and den are integer Laurent polynomials {cap: int} in canonical
    form: coprime, den's leading (minimal-omega) cap is q^0 with a positive
    coefficient, and the integer content of the pair is 1.  Zero is 0/1.
    Canonical pairs are unique, so `==` compares them, and they keep
    elimination over dense period groups from swelling through
    un-cancelled products.  `*` and `/` cancel each side of one operand
    against the other operand (the inputs are coprime, so that is the whole
    gcd) and then only shift den's leading term, found by the group's
    integer cap order, to q^0.  The gcd is `_heu_gcd`, on Python ints.

    `num` and `den` are read as {cap: Fraction}, scaled so that den's
    leading coefficient is 1.  The support map below any window level is
    materialized on demand with `terms_below`; the result is guaranteed
    complete below the requested window and recomputed deterministically
    when the window widens.
    """

    __slots__ = ("group", "_num", "_den")

    def __init__(self, group: PeriodGroup, num: Mapping, den: Mapping | None = None):
        self.group = group
        num = {k: v for k, v in num.items() if v}
        if den is not None:
            den = {k: v for k, v in den.items() if v}
            if not den:
                raise ZeroScalarError("zero denominator")
        if not num:
            self._num, self._den = num, {group.zero_cap: 1}
            return
        if den is None:  # a least common denominator leaves no common factor
            scale = math.lcm(*(v.denominator for v in num.values()))
            self._num, self._den = _integral(num, scale), {group.zero_cap: scale}
            return
        scale = math.lcm(*(v.denominator for t in (num, den) for v in t.values()))
        num, den = _terms_cancel(_integral(num, scale), _integral(den, scale), group.rank)
        self._num, self._den = _normalized(group, num, den, group.lowest(den))

    @classmethod
    def _make(cls, group: PeriodGroup, num: dict, den: dict) -> "NovikovScalar":
        """A scalar from a canonical integer pair, as is."""
        out = object.__new__(cls)
        out.group, out._num, out._den = group, num, den
        return out

    @property
    def num(self) -> Mapping:
        return _TermsView(self._num, self._den[self.group.zero_cap])

    @property
    def den(self) -> Mapping:
        return _TermsView(self._den, self._den[self.group.zero_cap])

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
        c = _as_fraction(coeff)
        if not c:
            return NovikovScalar.zero(group)
        # c q^cap over c's denominator is canonical: a monomial over a positive constant
        return NovikovScalar._make(group, {cap: c.numerator}, {group.zero_cap: c.denominator})

    @staticmethod
    def from_terms(group: PeriodGroup, terms: Mapping) -> "NovikovScalar":
        return NovikovScalar(
            group, {group.check_cap(c): _as_fraction(v) for c, v in terms.items()}
        )

    # -- predicates ----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self._num

    def __bool__(self):
        return bool(self._num)

    @property
    def is_finite(self) -> bool:
        # a one-term den is a constant: its leading cap is q^0
        return len(self._den) == 1

    # -- field arithmetic ------------------------------------------------------

    def _check(self, other: "NovikovScalar"):
        if self.group is not other.group and self.group != other.group:
            raise BasisMismatchError("scalars over different period groups")

    def __add__(self, other: "NovikovScalar") -> "NovikovScalar":
        self._check(other)
        if self._den == other._den:
            num, den = _terms_add(self._num, other._num), self._den
        else:
            num = _terms_add(_terms_mul(self._num, other._den), _terms_mul(other._num, self._den))
            den = _terms_mul(self._den, other._den)
        if not num:
            return NovikovScalar.zero(self.group)
        group = self.group
        num, den = _terms_cancel(num, den, group.rank)
        return NovikovScalar._make(group, *_normalized(group, num, den, group.lowest(den)))

    def __neg__(self):
        # -num/den is as canonical as num/den: same gcd, same den
        return NovikovScalar._make(self.group, {c: -v for c, v in self._num.items()}, self._den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other: "NovikovScalar") -> "NovikovScalar":
        self._check(other)
        if not self._num or not other._num:
            return NovikovScalar.zero(self.group)
        # (a/b)(c/d), both coprime: gcd(ac, bd) = gcd(a, d) gcd(c, b)
        group = self.group
        a, d = _terms_cancel(self._num, other._den, group.rank)
        c, b = _terms_cancel(other._num, self._den, group.rank)
        num, den = _terms_mul(a, c), _terms_mul(b, d)
        if b is self._den and d is other._den:  # lead(bd) = lead(b) lead(d) at q^0
            cap0 = group.zero_cap
        else:
            cap0 = group.lowest(den)
        return NovikovScalar._make(group, *_normalized(group, num, den, cap0))

    def __truediv__(self, other: "NovikovScalar") -> "NovikovScalar":
        self._check(other)
        if other.is_zero():
            raise ZeroScalarError("division by the zero scalar")
        if not self._num:
            return NovikovScalar.zero(self.group)
        # (a/b)/(c/d) = ad/(bc), both coprime: gcd(ad, bc) = gcd(a, c) gcd(d, b)
        group = self.group
        a, c = _terms_cancel(self._num, other._num, group.rank)
        d, b = _terms_cancel(other._den, self._den, group.rank)
        num, den = _terms_mul(a, d), _terms_mul(b, c)
        return NovikovScalar._make(group, *_normalized(group, num, den, group.lowest(den)))

    def scale(self, c) -> "NovikovScalar":
        c = _as_fraction(c)
        if not c:
            return NovikovScalar.zero(self.group)
        # a nonzero rational factor keeps num/den coprime and den's lead at q^0
        group = self.group
        num = {cap: v * c.numerator for cap, v in self._num.items()}
        den = {cap: v * c.denominator for cap, v in self._den.items()}
        return NovikovScalar._make(group, *_normalized(group, num, den, group.zero_cap))

    def invert(self) -> "NovikovScalar":
        if self.is_zero():
            raise ZeroScalarError("the zero scalar has no inverse")
        # den/num is as coprime as num/den
        group = self.group
        return NovikovScalar._make(
            group, *_normalized(group, self._den, self._num, group.lowest(self._num))
        )

    def __eq__(self, other):
        if not isinstance(other, NovikovScalar):
            return NotImplemented
        self._check(other)
        return self._num == other._num and self._den == other._den  # both canonical

    def __hash__(self):
        raise TypeError("NovikovScalar is not hashable")

    # -- valuation ---------------------------------------------------------

    def valuation(self):
        """min omega over the support; +inf sentinel for the zero scalar."""
        if self.is_zero():
            return POS_INFINITY
        return self.group.omega(self.leading_cap())  # den has valuation 0

    def leading_cap(self):
        """The cap of the minimal-omega support element of a nonzero scalar."""
        return self.group.lowest(self._num)

    def leading_term(self):
        """(cap, coefficient) of the minimal-omega support element."""
        if self.is_zero():
            raise ZeroScalarError("the zero scalar has no leading term")
        cap = self.leading_cap()
        return cap, Fraction(self._num[cap], self._den[self.group.zero_cap])

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
            return {c: v for c, v in self.num.items() if self.group.omega(c) <= window}
        # den = 1 + w with valuation(w) = delta > 0
        w = dict(self.den)
        del w[self.group.zero_cap]
        delta = self.group.omega(self.group.lowest(w))
        acc = dict(self.num)  # running num * (-w)^k
        out: dict = {}
        reach = self.valuation()
        while True:
            out = _terms_add(out, {c: v for c, v in acc.items() if self.group.omega(c) <= window})
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

