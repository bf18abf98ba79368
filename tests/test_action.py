import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floermini.action import (
    ActionValue,
    LevelForm,
    NEG_INFINITY,
    POS_INFINITY,
    NovikovScalar,
    PeriodGroup,
    make_period_group,
)
from floermini.complexes import Orbit
from floermini.errors import (
    ConstantClassError,
    IndependenceError,
    RankMismatchError,
    ZeroScalarError,
)
from _oracles import cap_with_omega, min_positive_combination


def _cap_of_value(G, value):
    """The cap with omega(cap) == value, or None, through the group's own
    integer level form."""
    form = LevelForm.of(G, [])
    key = form.key_of(value)
    return None if key is None else form.cap_of(key)


def sqrt2(scale=1):
    return ActionValue.sqrt(2, scale)


class TestActionValue:
    def test_exact_equality_on_coefficients(self):
        a = ActionValue(Fraction(1, 3), Fraction(2), 2)
        b = ActionValue(Fraction(1, 3), Fraction(2), 2)
        assert a == b
        assert a != ActionValue(Fraction(1, 3), Fraction(2), 3)

    def test_order_matches_real_embedding(self):
        # 2 - sqrt(2) vs 1/2: difference 3/2 - sqrt(2) > 0 since 9/4 > 2
        a = ActionValue(2) - sqrt2()
        assert (a - ActionValue(Fraction(1, 2))).sign() > 0
        # 3 - 2 sqrt(2) vs 17/100: sign of 283/100 - 2 sqrt(2), 2.83^2 > 8
        b = ActionValue(3) - sqrt2(2)
        assert (b - ActionValue(Fraction(17, 100))).sign() > 0
        assert (a - a).sign() == 0

    def test_order_is_total_and_antisymmetric(self, rng_values):
        for a, b, c in rng_values:
            assert (a < b) == (b > a)
            assert (a <= b and b <= a) == (a == b)
            if a <= b and b <= c:
                assert a <= c
            fa, fb = float(a), float(b)
            if abs(fa - fb) > 1e-9:
                assert (a < b) == (fa < fb)

    def test_infinities(self):
        v = ActionValue(7)
        assert NEG_INFINITY < v < POS_INFINITY
        assert NEG_INFINITY < POS_INFINITY
        assert -POS_INFINITY == NEG_INFINITY
        assert POS_INFINITY + v == POS_INFINITY
        assert v - POS_INFINITY == NEG_INFINITY


@pytest.fixture
def rng_values():
    import random

    r = random.Random(11)
    vals = []
    for _ in range(300):
        triple = tuple(
            ActionValue(Fraction(r.randint(-20, 20), r.randint(1, 9)),
                        Fraction(r.randint(-20, 20), r.randint(1, 9)), 2)
            for _ in range(3)
        )
        vals.append(triple)
    return vals


class TestPeriodGroup:
    def test_trivial_group(self):
        g = make_period_group([], [])
        assert g.rank == 0
        assert g.rank <= 1
        assert g.omega(()) == ActionValue(0)

    def test_integer_group_is_discrete(self):
        g = make_period_group([1], [0])
        assert g.rank <= 1
        assert g.omega((3,)) == ActionValue(3)

    def test_mixed_group_is_dense(self):
        g = make_period_group([ActionValue(1), sqrt2()], [0, 0])
        assert g.rank >= 2
        # oracle: best |m + n sqrt2| over |m|,|n| <= 50 dips below 0.03
        best = min_positive_combination(1.0, math.sqrt(2.0), 50)
        assert best < 0.03

    def test_omega_and_c1_are_exact_homomorphisms(self):
        g = make_period_group([ActionValue(1), sqrt2()], [0, 3])
        v = g.omega((2, -1))
        assert v == ActionValue(2) - sqrt2()
        assert g.c1((2, -1)) == -3
        import random

        r = random.Random(5)
        for _ in range(1000):
            a = (r.randint(-9, 9), r.randint(-9, 9))
            b = (r.randint(-9, 9), r.randint(-9, 9))
            ab = tuple(x + y for x, y in zip(a, b))
            assert g.omega(ab) == g.omega(a) + g.omega(b)
            assert g.c1(ab) == g.c1(a) + g.c1(b)

    def test_dependence_is_rejected(self):
        with pytest.raises(IndependenceError):
            make_period_group([1, 2], [0, 0])
        with pytest.raises(IndependenceError):
            make_period_group([sqrt2(), sqrt2(3)], [0, 0])
        with pytest.raises(IndependenceError):
            make_period_group([0], [1])

    def test_unsupported_constants_rejected(self):
        with pytest.raises(ConstantClassError):
            make_period_group([ActionValue(1, 1, 2)], [0])
        with pytest.raises(ConstantClassError):
            ActionValue.sqrt(4)

    def test_binary_floats_rejected(self):
        # Fraction(0.1) is the binary float 3602879701896397/2**55, not 1/10
        g = make_period_group([1], [0])
        with pytest.raises(ConstantClassError):
            NovikovScalar.monomial(g, (0,), 0.1)
        with pytest.raises(ConstantClassError):
            ActionValue(0.1)
        with pytest.raises(ConstantClassError):
            ActionValue(0, 0.5, 2)
        with pytest.raises(ConstantClassError):
            NovikovScalar.one(g).scale(0.5)

    def test_rank_mismatch(self):
        g = make_period_group([1], [0])
        with pytest.raises(RankMismatchError):
            g.omega((1, 2))

    def test_omega_membership(self):
        g = make_period_group([ActionValue(1), sqrt2()], [0, 0])
        t = make_period_group([Fraction(1, 2)], [0])
        for member in (cap_with_omega, _cap_of_value):
            assert member(g, ActionValue(2) - sqrt2()) == (2, -1)
            assert member(g, ActionValue(Fraction(1, 2))) is None
            assert member(t, ActionValue(Fraction(-5, 2))) == (-5,)

    def test_json_round_trip(self):
        g = make_period_group([ActionValue(1), sqrt2()], [0, 3])
        assert PeriodGroup.from_json(g.to_json()) == g


class TestNovikovScalar:
    @pytest.fixture
    def G(self):
        return make_period_group([ActionValue(1), sqrt2()], [0, 0])

    def test_valuation_and_leading_term(self, G):
        u = NovikovScalar.from_terms(G, {(1, 0): 1, (0, 1): 1})
        assert u.valuation() == ActionValue(1)  # min(1, sqrt 2) = 1
        assert u.leading_term() == ((1, 0), Fraction(1))
        v = NovikovScalar.from_terms(G, {(-1, 0): 3})
        assert v.valuation() == ActionValue(-1)
        one = NovikovScalar.one(G)
        assert one.valuation() == ActionValue(0)

    def test_zero_scalar_sentinels(self, G):
        z = NovikovScalar.zero(G)
        assert z.is_zero()
        assert z.valuation() == POS_INFINITY
        with pytest.raises(ZeroScalarError):
            z.leading_term()
        with pytest.raises(ZeroScalarError):
            z.invert()

    def test_valuation_is_additive(self, G):
        import random

        r = random.Random(7)

        def rand_scalar():
            terms = {}
            for _ in range(r.randint(1, 4)):
                terms[(r.randint(-3, 3), r.randint(-3, 3))] = Fraction(
                    r.randint(1, 5), r.randint(1, 5)
                )
            return NovikovScalar.from_terms(G, terms)

        for _ in range(200):
            u, v = rand_scalar(), rand_scalar()
            assert (u * v).valuation() == u.valuation() + v.valuation()

    def test_invert_monomial(self, G):
        u = NovikovScalar.monomial(G, (2, -1), Fraction(3, 2))
        w = u.invert()
        assert (u * w) == NovikovScalar.one(G)
        assert w.valuation() == -u.valuation()

    def test_invert_geometric_series(self, G):
        # 1 - q^g with omega(g) = sqrt 2 > 0
        u = NovikovScalar.from_terms(G, {(0, 0): 1, (0, 1): -1})
        w = u.invert()
        window = ActionValue(5)
        terms = w.terms_below(window)
        expect = {(0, k): Fraction(1) for k in range(4)}  # 3 sqrt2 < 5 < 4 sqrt2
        assert terms == expect
        prod = u * w
        assert prod == NovikovScalar.one(G)
        assert prod.terms_below(window) == {(0, 0): Fraction(1)}
        # two-sided inverse on every tested window
        assert (w * u).terms_below(ActionValue(9)) == {(0, 0): Fraction(1)}

    def test_window_widening_is_deterministic(self, G):
        u = NovikovScalar.from_terms(G, {(0, 0): 1, (1, 0): -2})
        w = u.invert()
        small = w.terms_below(ActionValue(3))
        big = w.terms_below(ActionValue(6))
        assert all(big[c] == v for c, v in small.items())
        assert len(big) > len(small)

    def test_field_identities(self, G):
        u = NovikovScalar.from_terms(G, {(0, 0): 2, (1, 1): -3})
        v = NovikovScalar.from_terms(G, {(1, 0): 1, (0, 2): Fraction(5, 7)})
        assert (u / v) * v == u
        assert u - u == NovikovScalar.zero(G)
        assert (u + v) * (u + v).invert() == NovikovScalar.one(G)

    def test_fractions_are_kept_reduced(self, G):
        # Laurent polynomials over the dense group <1, sqrt 2>, with
        # negative exponents so the gcd must see past monomial units
        p = NovikovScalar.from_terms(G, {(0, 0): 2, (1, -1): -3, (2, 1): 1})
        q = NovikovScalar.from_terms(G, {(0, 0): 1, (0, 1): Fraction(5, 7), (-1, 2): 4})
        r = NovikovScalar.from_terms(G, {(1, 0): 1, (0, 1): -1, (3, 3): Fraction(1, 2)})
        s = p / q
        assert len(s.den) == len(q.num)
        common = (p * r) / (q * r)
        assert common.num == s.num and common.den == s.den
        # a fraction that equals a finite series is presented as one
        assert ((p * q) / q).is_finite and ((p * q) / q).num == p.num
        assert (s - s).num == {} and (s - s).den == {G.zero_cap: Fraction(1)}
        # adding and removing other fractions returns s itself, term for term,
        # instead of accumulating the product of every denominator seen
        acc = s
        for k in range(1, 7):
            t = NovikovScalar.from_terms(G, {(0, 0): k, (k, -1): 1}) / r
            acc = acc + t
            assert len(acc.den) <= len(s.den) * len(r.num)
            acc = acc - t
            assert acc.num == s.num and acc.den == s.den

    def test_negation_and_scaling_keep_the_reduced_form(self, G, monkeypatch):
        """-u and u.scale(c) are built as they are, with no second gcd:
        their num/den equal the __init__ route term for term."""
        import random

        from floermini import action

        r = random.Random(11)

        def rand_terms():
            return {
                (r.randint(-2, 2), r.randint(-2, 2)): Fraction(r.choice([-3, -1, 1, 2]), r.randint(1, 3))
                for _ in range(r.randint(2, 3))
            }

        fractions = []
        while len(fractions) < 25:
            u = NovikovScalar.from_terms(G, rand_terms()) / NovikovScalar.from_terms(G, rand_terms())
            if not u.is_finite:
                fractions.append(u)
        fractions.append(NovikovScalar.zero(G))
        results = []
        cancels = []
        cancel = action._terms_cancel
        monkeypatch.setattr(action, "_terms_cancel", lambda *a: cancels.append(a) or cancel(*a))
        for u in fractions:
            results.append((u, -1, -u))
            for c in (Fraction(3, 7), -2, 5):
                results.append((u, c, u.scale(c)))
        assert cancels == []
        monkeypatch.setattr(action, "_terms_cancel", cancel)
        for u, c, got in results:
            ref = NovikovScalar(G, {k: v * c for k, v in u.num.items()}, dict(u.den))
            assert list(got.num.items()) == list(ref.num.items())
            assert list(got.den.items()) == list(ref.den.items())
            assert got.num is not u.num and got.den is not u.den
        zero = fractions[0].scale(0)
        assert zero.is_zero() and zero.den == {G.zero_cap: Fraction(1)}


class TestEqualityAndHash:
    def test_rational_values_hash_as_their_fraction(self):
        assert len({ActionValue(2), 2, Fraction(2)}) == 1
        assert hash(ActionValue(Fraction(-3, 4))) == hash(Fraction(-3, 4))
        # the sqrt part cancels: the difference is rational, with d == 0
        diff = ActionValue(Fraction(5, 2), 3, 2) - ActionValue(0, 3, 2)
        assert diff.d == 0 and diff == Fraction(5, 2)
        assert hash(diff) == hash(Fraction(5, 2))
        assert len({diff, Fraction(5, 2), ActionValue(Fraction(5, 2))}) == 1
        prod = sqrt2(3) * sqrt2()  # 3 sqrt 2 * sqrt 2 == 6
        assert prod.d == 0 and hash(prod) == hash(6)
        assert len({sqrt2(), ActionValue(0, 1, 2), ActionValue(1)}) == 2


# -- differential tests of the cross-cancelled product and quotient ----------

SCALAR_GROUPS = {
    "trivial": lambda: make_period_group([], []),
    "int": lambda: make_period_group([1], [0]),
    "sqrt": lambda: make_period_group([sqrt2(3)], [0]),
    "dense": lambda: make_period_group([ActionValue(1), sqrt2()], [0, 0]),
}
SHAPES = ("zero", "monomial", "finite", "fraction")


def _poly(rng, G, terms):
    out = {}
    for _ in range(terms):
        cap = tuple(rng.randint(-2, 2) for _ in range(G.rank))
        out[cap] = Fraction(rng.choice([-3, -1, 1, 2]), rng.randint(1, 3))
    return out


def _mul(a: dict, b: dict) -> dict:
    """Plain product of Laurent polynomials {cap: Fraction}."""
    out: dict = {}
    for ca, va in a.items():
        for cb, vb in b.items():
            key = tuple(x + y for x, y in zip(ca, cb))
            out[key] = out.get(key, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def _scalar(rng, G, shape, top, bottom):
    """A scalar of the given shape; a fraction carries the factors `top`
    and `bottom` in its num and den, so products and quotients cancel."""
    if shape == "zero":
        return NovikovScalar.zero(G)
    if shape == "monomial":
        return NovikovScalar.from_terms(G, _poly(rng, G, 1))
    if shape == "finite":
        return NovikovScalar.from_terms(G, _poly(rng, G, rng.randint(2, 3)))
    num = _mul(_poly(rng, G, rng.randint(1, 3)), top)
    den = _mul(_poly(rng, G, rng.randint(2, 3)), bottom)
    return NovikovScalar(G, num, den)


def _assert_same(got, ref):
    assert got.num == ref.num and got.den == ref.den


@settings(max_examples=200)
@given(
    seed=st.integers(0, 2**32 - 1),
    kind=st.sampled_from(sorted(SCALAR_GROUPS)),
    shapes=st.tuples(st.sampled_from(SHAPES), st.sampled_from(SHAPES)),
)
def test_product_and_quotient_match_the_full_gcd_route(seed, kind, shapes):
    """u * v and u / v equal NovikovScalar(G, num, den) on the un-cancelled
    num and den, which divides the whole product by its gcd."""
    rng = random.Random(seed)
    G = SCALAR_GROUPS[kind]()
    s, t = _poly(rng, G, 2), _poly(rng, G, 2)
    u = _scalar(rng, G, shapes[0], s, t)
    v = _scalar(rng, G, shapes[1], *rng.choice([(s, t), (t, s)]))
    _assert_same(u * v, NovikovScalar(G, _mul(u.num, v.num), _mul(u.den, v.den)))
    _assert_same(v * u, u * v)
    if v:
        _assert_same(u / v, NovikovScalar(G, _mul(u.num, v.den), _mul(u.den, v.num)))
        _assert_same((u / v) * v, u)
    if u:
        _assert_same(u.invert(), NovikovScalar(G, dict(u.den), dict(u.num)))


def test_a_monomial_factor_takes_no_gcd(monkeypatch):
    from floermini import action

    G = SCALAR_GROUPS["dense"]()
    p = NovikovScalar.from_terms(G, {(0, 0): 2, (1, -1): -3, (2, 1): 1})
    q = NovikovScalar.from_terms(G, {(0, 0): 1, (0, 1): Fraction(5, 7), (-1, 2): 4})
    fraction = p / q
    monomials = [NovikovScalar.monomial(G, (1, -2), Fraction(-3, 2)), NovikovScalar.one(G)]
    calls = []
    real = action._heu_gcd
    monkeypatch.setattr(action, "_heu_gcd", lambda f, g: calls.append(1) or real(f, g))
    fraction * fraction  # the spy sees the gcds of a genuine product
    assert calls
    calls.clear()
    results = []
    for m in monomials:
        results += [(fraction * m, "*"), (m * fraction, "*"), (m / fraction, "/")]
    assert calls == []
    monkeypatch.setattr(action, "_heu_gcd", real)
    for (got, op), m in zip(results, [x for x in monomials for _ in range(3)]):
        if op == "*":
            ref = NovikovScalar(G, _mul(fraction.num, m.num), _mul(fraction.den, m.den))
        else:
            ref = NovikovScalar(G, _mul(m.num, fraction.den), _mul(m.den, fraction.num))
        _assert_same(got, ref)


# -- the native gcd against sympy's ------------------------------------------


def _laurent(draw, rank, terms, low=-3, high=3):
    """A random integer Laurent polynomial {cap: int}; coefficients may be
    negative anywhere, the leading one included."""
    caps = st.tuples(*[st.integers(low, high)] * rank)
    coeffs = st.integers(-9, 9).filter(bool)
    return draw(st.dictionaries(caps, coeffs, min_size=terms, max_size=terms))


def _int_mul(a: dict, b: dict) -> dict:
    return {k: int(v) for k, v in _mul(a, b).items()}


def _sympy_cancel(num: dict, den: dict, rank: int):
    """_terms_cancel's contract computed with sympy's cofactors."""
    from sympy.polys.domains import ZZ
    from sympy.polys.rings import ring

    R = ring(",".join(f"x{i}" for i in range(rank)), ZZ)[0]
    lows = [tuple(map(min, zip(*t))) for t in (num, den)]
    f, g = (R.from_dict({tuple(x - m for x, m in zip(c, low)): v for c, v in t.items()})
            for t, low in zip((num, den), lows))
    _, p, q = f.cofactors(g)
    return tuple({tuple(x + m for x, m in zip(e, low)): int(v) for e, v in t.items()}
                 for t, low in zip((p, q), lows))


def _proportional(a: dict, b: dict) -> bool:
    """a == lam * b for one nonzero rational lam."""
    if a.keys() != b.keys():
        return False
    k = next(iter(a))
    return all(v * b[k] == b[c] * a[k] for c, v in a.items())


@settings(max_examples=300)
@given(data=st.data(), rank=st.sampled_from([1, 2]), content=st.sampled_from([1, 1, 6, -4]))
def test_native_gcd_matches_sympy_cofactors(data, rank, content):
    """num = c r p, den = c r q for a Laurent factor r of one to three terms
    and an integer c: _terms_cancel agrees with sympy's cofactors up to one
    rational factor, and the native gcd times each cofactor gives back its
    input exactly."""
    from floermini import action

    r = _laurent(data.draw, rank, data.draw(st.integers(1, 3)))
    num = _int_mul(_laurent(data.draw, rank, data.draw(st.integers(1, 4))), r)
    den = _int_mul(_laurent(data.draw, rank, data.draw(st.integers(1, 4))), r)
    num = {c: v * content for c, v in num.items()}
    den = {c: v * content for c, v in den.items()}
    if len(num) < 2 or len(den) < 2:
        return
    got = action._terms_cancel(num, den, rank)
    ref = _sympy_cancel(num, den, rank)
    lam = None
    for mine, theirs in zip(got, ref):
        assert _proportional(mine, theirs)
        k = next(iter(mine))
        ratio = Fraction(mine[k], theirs[k])
        assert lam is None or ratio == lam
        lam = ratio
    # the cofactors times the gcd are the shifted inputs, exactly
    lows = [tuple(map(min, zip(*t))) for t in (num, den)]
    f, g = (action._shift(t, low, -1) for t, low in zip((num, den), lows))
    h, cff, cfg = action._heu_gcd(f, g)
    assert _int_mul(h, cff) == f and _int_mul(h, cfg) == g
    assert action._exact_quotient(f, h) == cff


def test_an_unlucky_first_point_retries(monkeypatch):
    """At xi = 3 the digits of gcd(f(3), g(3)) = 8 spell x**2 - 1, which
    divides neither input; the next point finds the gcd x + 1."""
    from floermini import action

    f = {(0,): 5, (1,): 6, (2,): 1}  # (x + 1)(x + 5)
    g = {(0,): 3, (1,): 4, (2,): 1}  # (x + 1)(x + 3)
    points = []
    real = action._eval_last
    monkeypatch.setattr(action, "_heu_xi", lambda f, g: 3)
    monkeypatch.setattr(action, "_eval_last", lambda p, x: points.append(x) or real(p, x))
    h, cff, cfg = action._heu_gcd(f, g)
    assert points[0] == points[1] == 3 and len(points) > 2
    assert h == {(0,): 1, (1,): 1}
    assert cff == {(0,): 5, (1,): 1} and cfg == {(0,): 3, (1,): 1}


def test_a_non_divisor_has_no_exact_quotient():
    from floermini import action

    f = {(0, 0): 2, (1, 0): 1, (0, 1): -3, (2, 2): 4}
    assert action._exact_quotient(f, {(0, 0): 1, (1, 0): 1}) is None
    assert action._exact_quotient(f, {(0, 0): 3}) is None
    h = {(0, 0): -2, (1, 1): 1}
    assert action._exact_quotient(_int_mul(f, h), h) == f


def test_spectral_layer_imports_no_sympy():
    import os
    import subprocess
    import sys

    import floermini

    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(floermini.__file__))
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    code = (
        "import sys, floermini.spectral\n"
        "assert 'sympy' not in sys.modules, 'sympy loaded'\n"
        "import floermini\n"
        "assert floermini.MorseFunction1D.__module__ == 'floermini.morse'\n"
        "assert sorted(floermini.__all__) == sorted(set(floermini.__all__))\n"
        "assert all(hasattr(floermini, n) for n in floermini.__all__)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


# -- the integer cap order ----------------------------------------------------

ORDER_GROUPS = [
    make_period_group([Fraction(-1, 2), ActionValue.sqrt(3, 3)], [0, 0]),
    make_period_group([ActionValue.sqrt(5, Fraction(2, 3)), Fraction(7, 4)], [0, 0]),
    make_period_group([ActionValue(1), sqrt2()], [0, 0]),
    make_period_group([Fraction(5, 3)], [0]),
    make_period_group([ActionValue.sqrt(5, -1)], [0]),
    make_period_group([-2], [0]),
    make_period_group([], []),
]


def _reference_leading(G, terms):
    """Least omega over the support by ActionValue comparisons."""
    best = None
    for cap in terms:
        if best is None or G.omega(cap) < G.omega(best):
            best = cap
    return best


@pytest.mark.parametrize("G", ORDER_GROUPS, ids=repr)
def test_integer_cap_order_matches_action_values(G):
    import itertools

    box = [tuple(c) for c in itertools.product(range(-4, 5), repeat=G.rank)]
    supports = [box, box[::-1]]
    r = random.Random(3)
    supports += [r.sample(box, r.randint(1, min(6, len(box)))) for _ in range(300)]
    for support in supports:
        u = NovikovScalar.from_terms(G, {cap: i + 1 for i, cap in enumerate(support)})
        cap = _reference_leading(G, u.num)
        assert u.leading_term() == (cap, u.num[cap])
        assert u.valuation() == G.omega(cap)
        assert all(G.omega(cap) < G.omega(c) for c in u.num if c != cap)
    # the level form inverts omega on the box and refuses non-members
    for cap in box:
        assert _cap_of_value(G, G.omega(cap)) == cap
        assert _cap_of_value(G, G.omega(cap) + Fraction(1, 7)) is None
        assert _cap_of_value(G, G.omega(cap) + ActionValue.sqrt(G.d or 7, Fraction(1, 7))) is None


def test_omega_memo_keeps_the_cap_checks():
    G = make_period_group([Fraction(-1, 2), ActionValue.sqrt(3, 3)], [0, 0])
    first = G.omega((2, -1))
    assert G.omega((2, -1)) is first  # a memo hit
    assert G.omega([2, -1]) == first and G.omega([2, -1]).d == 3
    assert first == ActionValue(-1, -3, 3)
    for bad in ((2,), (2, -1, 0), [2, -1, 0]):
        with pytest.raises(RankMismatchError):
            G.omega(bad)
    H = make_period_group([5], [0])
    assert H.omega((1,)) == 5
    with pytest.raises(RankMismatchError):
        H.omega((1, 0))
    assert G.omega((0, 0)) == 0 and G.omega((0, 0)).d == 0


def _level_group(kind, s):
    """(group, sqrt base of the levels) of each kind of period group."""
    return {
        "trivial": (make_period_group([], []), 0),
        "trivial-sqrt2": (make_period_group([], []), 2),
        "one": (make_period_group([1], [0]), 0),
        "s-sqrt2": (make_period_group([sqrt2(s)], [0]), 2),
        "dense": (make_period_group([ActionValue(1), sqrt2()], [0, 0]), 2),
    }[kind]


@settings(max_examples=40)
@given(data=st.data(), kind=st.sampled_from(["trivial", "trivial-sqrt2", "one", "s-sqrt2",
                                             "dense"]), s=st.integers(1, 3))
def test_integer_level_keys_compare_as_action_values(data, kind, s):
    """A complex's level form against ActionValue arithmetic: the keys of
    lifted generators (orbit level minus omega of a cap) order, subtract
    and read back as their values do; `key_of`, `cap_of` and `bound` agree
    with the values, also for values whose denominators the scale does
    not clear."""
    G, d = _level_group(kind, s)
    fracs = st.fractions(min_value=-4, max_value=4, max_denominator=12)
    value = st.builds(lambda q, r: ActionValue(q, r if d else 0, d), fracs, fracs)
    levels = data.draw(st.lists(value, min_size=1, max_size=4))
    caps = data.draw(st.lists(st.tuples(*[st.integers(-3, 3)] * G.rank),
                              min_size=len(levels), max_size=len(levels)))
    orbits = [Orbit(f"o{i}", v, 0) for i, v in enumerate(levels)]
    form = LevelForm.of(G, [o.parts for o in orbits])
    lifts = [(form.key(o.parts) - form.cap(c), o.level - G.omega(c)) for o, c in zip(orbits, caps)]
    for ka, va in lifts:
        assert form.value(ka) == va
        assert form.key_of(va) == ka
        assert form.key_of(va + Fraction(1, 7 * form.scale)) is None
        assert form.cap_of(ka) == cap_with_omega(G, va)
        for kb, vb in lifts:
            assert (ka < kb, ka == kb, ka > kb) == (va < vb, va == vb, va > vb)
            assert form.value(ka - kb) == va - vb
        # values with a denominator the scale need not clear: near va, so
        # that each part of the value decides the sign, and anywhere
        e = Fraction(1, 11 * 13)
        near = [va, va + e, va - e] + ([va + ActionValue.sqrt(d, e), va - ActionValue.sqrt(d, e)]
                                       if d else [])
        for t in near + [t * Fraction(1, 11)
                         for t in data.draw(st.lists(value, min_size=1, max_size=3))]:
            n, b = form.bound(t)
            k = ka * n - b
            assert (k > 0, k == 0, k < 0) == (va > t, va == t, va < t)
    for c in caps:
        assert form.value(form.cap(c)) == G.omega(c)
        assert form.cap_of(form.cap(c)) == c
