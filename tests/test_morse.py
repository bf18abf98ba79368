import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from floermini import _kernels, hofer
from floermini.action import ActionValue, make_period_group
from floermini.cerf import MorseCerfFamily
from floermini.errors import MorseError, PairingError
from floermini.morse import (
    CriticalPoint,
    DecoratedClass,
    THETA_TOLERANCE,
    MorseFunction1D,
    build_circle_valued,
    build_s1_morse,
    pair_critical_lists,
    _circle_complex,
    rho_small_morse,
)
from floermini.spectral import rho

from _oracles import brute_force_rho, decorated_complex


class TestDetection:
    def test_cos_has_two_critical_points(self):
        f = MorseFunction1D.closed_form("cos(theta)")
        crit = f.critical_points()
        assert len(crit) == 2
        by_index = {p.index: p for p in crit}
        assert by_index[0].value == 1  # maximum of f
        assert by_index[1].value == -1

    def test_constant_errors(self):
        f = MorseFunction1D.closed_form("0*theta + 1/2")
        with pytest.raises(MorseError):
            f.critical_points()

    def test_mean_zero_normalization(self):
        f = MorseFunction1D.closed_form("cos(theta) + 1/3")
        crit = f.critical_points()
        assert {p.value for p in crit} == {Fraction(1), Fraction(-1)}

    def test_sampled_function(self):
        import numpy as np

        g = np.arange(4096) * (2 * np.pi / 4096)
        f = MorseFunction1D.from_samples(np.cos(g))
        crit = f.critical_points()
        assert len(crit) == 2
        assert abs(float(crit[0].value) - 1) < 1e-6

    def test_expression_grammar_is_fenced(self):
        for bad in ("exp(theta)", "tan(theta)", "theta**(-1)", "x + 1", "1/theta"):
            with pytest.raises(MorseError):
                MorseFunction1D.closed_form(bad)

    def test_degenerate_point_on_grid_raises_morse_error(self):
        # g' and g'' vanish at 3pi/2, grid index 3072 of 4096, where g'
        # evaluates to about +1.8e-16 between two negative neighbours
        expr = (
            "-5/8*cos(theta) + 3/8*sin(theta) + 3/4*cos(2*theta) + 5/8*sin(2*theta)"
            " - 5/8*cos(3*theta) + 3/8*sin(3*theta)"
        )
        f = MorseFunction1D.closed_form(expr, N=4096)
        with pytest.raises(MorseError, match=r"theta=4\.71238898"):
            f.critical_points()
        with pytest.raises(MorseError):
            build_s1_morse(f)


class TestBuildS1:
    def test_cos_complex(self):
        rep = build_s1_morse(MorseFunction1D.closed_form("cos(theta)"), 1)
        X = rep.complex
        assert [o.index for o in X.orbits] == [0, 1]
        # single pair: boundary of the index-1 point cancels
        assert X.boundary == {}
        degs = {c.degree for c in X.homology_basis()}
        assert degs == {0, 1}
        assert X.orbit("c0").level == ActionValue(-1)
        assert X.orbit("c1").level == ActionValue(1)

    def test_cos2_complex(self):
        rep = build_s1_morse(MorseFunction1D.closed_form("cos(2*theta)"), 1)
        X = rep.complex
        assert len(X.orbits) == 4
        ranks = {}
        for c in X.homology_basis():
            ranks[c.degree] = ranks.get(c.degree, 0) + 1
        assert ranks == {0: 1, 1: 1}
        # boundary rows: each minimum hits both maxima with opposite signs
        for src, row in X.boundary.items():
            coeffs = sorted(c.num[()] for c in row.values())
            assert coeffs == [Fraction(-1), Fraction(1)]

    def test_spectrum_equals_critical_levels(self):
        f = MorseFunction1D.closed_form("cos(theta) + 3/10*cos(2*theta)")
        rep = build_s1_morse(f, Fraction(1, 2))
        X = rep.complex
        spec = X.spectrum()
        for p in rep.critical_points:
            assert spec.witness(ActionValue.rational(Fraction(-1, 2) * p.value)) is not None
        assert spec.witness(ActionValue(1000)) is None

    def test_levels_negate_values_exactly(self):
        f = MorseFunction1D.closed_form("cos(theta) + 1/5*sin(3*theta)")
        eps = Fraction(2, 7)
        rep = build_s1_morse(f, eps)
        for i, p in enumerate(rep.critical_points):
            assert rep.complex.orbit(f"c{i}").level == ActionValue.rational(-eps * p.value)

    def test_relevelled_slice_refuses_with_the_fresh_text(self):
        # a complex lends its boundary to critical points of the same index
        # sequence; levels that do not lower it get the fresh build's MorseError
        f = MorseFunction1D.closed_form("cos(2*theta)", N=1024)
        crit = f.critical_points()
        G = make_period_group([], [])
        like = _circle_complex(f, crit, Fraction(1), G).complex
        swapped = [CriticalPoint(p.theta, -p.quanta, p.index, -p.raw_value) for p in crit]
        with pytest.raises(MorseError) as fresh:
            _circle_complex(f, swapped, Fraction(1), G)
        with pytest.raises(MorseError) as carried:
            _circle_complex(f, swapped, Fraction(1), G, like)
        assert str(carried.value) == str(fresh.value)
        assert "do not lower the level on a 1024-point grid" in str(fresh.value)


class TestCircleValued:
    def test_pure_drift_empty_complex(self):
        f = MorseFunction1D.closed_form("0*theta", drift=Fraction(1))
        rep = build_circle_valued(f)
        assert len(rep.complex.orbits) == 0
        assert rep.complex.homology_basis() == []

    def test_drift_with_oscillation(self):
        # periodic part sin(theta), drift small: one max and one min per period
        f = MorseFunction1D.closed_form("sin(theta)", drift=Fraction(1, 2))
        rep = build_circle_valued(f)
        X = rep.complex
        assert len(X.orbits) == 2
        assert X.group.rank <= 1
        assert X.group.omega((1,)) == ActionValue(Fraction(1, 2))
        # the unique index-1 row is (+-)(1 - q^cap) times the index-0 orbit
        (src, row), = X.boundary.items()
        assert len(row) == 1
        (tgt, scalar), = row.items()
        caps = sorted(scalar.num)
        assert len(caps) == 2
        assert sorted(abs(c) for c in scalar.num.values()) == [1, 1]
        # homology vanishes over the field
        assert X.homology_basis() == []

    def test_two_pairs_per_period(self):
        f = MorseFunction1D.closed_form("sin(2*theta)", drift=Fraction(1, 4))
        rep = build_circle_valued(f)
        X = rep.complex
        assert len(X.orbits) == 4
        assert X.homology_basis() == []
        assert X.filtration_gap() > ActionValue(0)
        # exactly one boundary row wraps the fundamental domain
        wrapping = sum(
            1
            for row in X.boundary.values()
            for s in row.values()
            for cap in s.num
            if any(c != 0 for c in cap)
        )
        assert wrapping == 1

    def test_zero_drift_reduces_to_plain_build(self):
        f0 = MorseFunction1D.closed_form("cos(theta)")
        a = build_circle_valued(MorseFunction1D.closed_form("cos(theta)", drift=0))
        b = build_s1_morse(f0)
        assert a.complex.dump() == b.complex.dump()


class TestPairing:
    def test_identity_pairing(self):
        f = MorseFunction1D.closed_form("cos(theta)")
        p = pair_critical_lists(f.critical_points(), f.critical_points())
        assert len(p) == 2
        assert p.max_distance == 0.0

    def test_small_perturbation(self):
        f1 = MorseFunction1D.closed_form("cos(theta)")
        f2 = MorseFunction1D.closed_form("cos(theta) + 1/100*sin(3*theta)")
        c1, c2 = f1.critical_points(), f2.critical_points()
        p = pair_critical_lists(c1, c2)
        for i, j in p:
            assert c1[i].index == c2[j].index
        assert p.max_distance < 0.05

    def test_birth_straddle_is_refused(self):
        f1 = MorseFunction1D.closed_form("cos(theta)")
        f2 = MorseFunction1D.closed_form("cos(theta) + 7/10*cos(2*theta + 1/2)")
        with pytest.raises(PairingError):
            pair_critical_lists(f1.critical_points(), f2.critical_points())


class TestSmallMorse:
    def test_point_class_formula(self):
        f = MorseFunction1D.closed_form("cos(theta)")
        res = rho_small_morse(f, 1, "point")
        assert res.valid
        # tight index-0 representative is a single maximum: level -max f
        assert res.value == ActionValue(-1)

    def test_fundamental_class_formula(self):
        f = MorseFunction1D.closed_form("cos(theta)")
        res = rho_small_morse(f, 1, "fundamental")
        assert res.valid
        assert res.value == ActionValue(1)

    def test_agrees_with_engine_on_crowded_circle(self):
        """The formula's value, the engine's rho, against the oracle."""
        f = MorseFunction1D.closed_form("cos(theta) + 2/5*cos(2*theta) + 1/10*sin(3*theta)")
        eps = Fraction(1, 3)
        for cls in ("point", "fundamental"):
            res = rho_small_morse(f, eps, cls)
            rep = build_s1_morse(f, eps)
            assert res.value == brute_force_rho(rep.complex, rep.class_chain(cls))

    def test_gap_condition_flags_invalid(self):
        G = make_period_group([Fraction(1, 10)], [0])
        # levels nu: 0 and -1/10: gap 1/10 < eps*(max-min) = 2
        dec = DecoratedClass(G, [(0,), (1,)])
        f = MorseFunction1D.closed_form("cos(theta)")
        res = rho_small_morse(f, 1, "point", dec)
        assert not res.valid
        assert res.value is None

    def test_decorated_value_shifts_by_top_level(self):
        G = make_period_group([1], [0])
        dec = DecoratedClass(G, [(0,), (1,)])  # levels 0 > -1, gap 1
        f = MorseFunction1D.closed_form("cos(theta)")
        eps = Fraction(1, 4)
        res = rho_small_morse(f, eps, "point", dec)
        assert res.valid
        assert res.value == ActionValue(Fraction(-1, 4))  # 0 + (-eps * max f)
        rep = build_s1_morse(f, eps)
        XG, chain = decorated_complex(rep, dec, rep.point_class())
        assert rho(XG, chain).value == res.value

    @pytest.mark.parametrize("seed", range(4))
    def test_decorated_formula_two_ways(self, seed):
        """The top decoration level plus the oracle's value on the plain
        complex, and the engine's rho on the decorated complex, over the
        dense group <1, sqrt 2> as well as a discrete one."""
        rng = random.Random(seed)
        _, f = hofer.random_trig_function(rng)
        G = [make_period_group([1], [0]),
             make_period_group([ActionValue(1), ActionValue.sqrt(2)], [0, 0])][seed % 2]
        caps = sorted({tuple(rng.randint(-2, 2) for _ in range(G.rank)) for _ in range(3)})
        dec = DecoratedClass(G, caps, [rng.randint(1, 3) for _ in caps])
        lo, hi = f.value_range()
        eps = Fraction(1, 10)
        while dec.top_gap is not None and ActionValue.rational(eps * (hi - lo)) > dec.top_gap:
            eps /= 2
        rep = build_s1_morse(f, eps)
        for cls in ("point", "fundamental"):
            res = rho_small_morse(f, eps, cls, dec)
            assert res.valid
            chain = rep.class_chain(cls)
            assert res.value == res.shift + brute_force_rho(rep.complex, chain)
            XG, dec_chain = decorated_complex(rep, dec, chain)
            assert rho(XG, dec_chain).value == res.value


def _reference_thetas(f):
    """Cell-by-cell scalar bisection, one 0-d derivative call per step."""
    g = f.grid()
    h = 2 * math.pi / f.N
    cells = _kernels.critical_cells(f._fp(g))
    out = []
    for c in cells:
        lo = g[c]
        hi = lo + h
        flo = float(f._fp(lo))
        theta = lo if flo == 0.0 else None
        while theta is None and hi - lo > THETA_TOLERANCE:
            mid = 0.5 * (lo + hi)
            fmid = float(f._fp(mid))
            if fmid == 0.0:
                theta = mid
            elif (fmid > 0) == (flo > 0):
                lo, flo = mid, fmid
            else:
                hi = mid
        out.append(0.5 * (lo + hi) if theta is None else theta)
    return out


def _shifted_sine(c, N=4096):
    """-cos(theta - c): f' = sin(theta - c) is exactly 0 at theta = c."""
    return MorseFunction1D(
        lambda t: -np.cos(np.asarray(t, dtype=float) - c),
        lambda t: np.sin(np.asarray(t, dtype=float) - c),
        N=N,
    )


_H = 2 * math.pi / 4096
_GRID_POINT = 1000 * _H
_MIDPOINT = 0.5 * (_GRID_POINT + (_GRID_POINT + _H))
_BD = "cos(theta) + eta*(3/5)*cos(2*theta + 1/2)"
_BD_CUSP = 0.670534  # birth cusp of _BD, from its diagram at 33 x 4096


@pytest.mark.parametrize(
    "make, exact",
    [
        (lambda: _shifted_sine(_GRID_POINT), _GRID_POINT),
        (lambda: _shifted_sine(_MIDPOINT), _MIDPOINT),  # first bisection step
        (lambda: MorseFunction1D.closed_form("cos(theta)", N=4096), 0.0),
        (lambda: MorseCerfFamily(_BD, theta_points=4096).function_at(_BD_CUSP + 1e-7), None),
        (lambda: MorseFunction1D.closed_form("cos(theta) + 1/4*sin(2*theta)",
                                            drift=Fraction(1, 2)), None),
        (lambda: MorseFunction1D.from_samples(np.cos(np.arange(512) * (2 * np.pi / 512) + 0.3)),
         None),
    ],
    ids=["grid-zero", "midpoint-zero", "cos", "near-cusp", "drift", "samples"],
)
def test_array_refinement_matches_scalar_bisection(make, exact):
    _assert_refinement_matches_bisection(make(), exact)


def _assert_refinement_matches_bisection(f, exact=None):
    crit = f.critical_points()
    ref = _reference_thetas(f)
    assert [p.theta for p in crit] == ref  # bitwise, not within a tolerance
    assert [p.raw_value for p in crit] == [float(f._f(t)) for t in ref]
    if exact is not None:  # the exact zero of f' is returned as it is
        assert exact in ref


_SEEDS = st.integers(0, 2**32 - 1)
_DRIFTS = st.sampled_from([Fraction(0), Fraction(1, 3)])


def _random_trig(seed, drift):
    """A hofer.random_trig_function closed form with the given drift, if Morse."""
    expr, _ = hofer.random_trig_function(random.Random(seed))
    f = MorseFunction1D.closed_form(expr, N=4096, drift=drift)
    assume(_crit_or_none(f) is not None)
    return f


@given(seed=_SEEDS, drift=_DRIFTS)
def test_array_refinement_matches_scalar_bisection_on_random_trig(seed, drift):
    _assert_refinement_matches_bisection(_random_trig(seed, drift))


# -- algebra on closed forms ---------------------------------------------------


def _trig(rng):
    terms = []
    for k in (1, 2, 3):
        a, b = Fraction(rng.randint(-8, 8), 8), Fraction(rng.randint(-8, 8), 8)
        terms.append(f"({a})*cos({k}*theta) + ({b})*sin({k}*theta)")
    return " + ".join(terms)


def _crit_or_none(f):
    try:
        return f.critical_points()
    except MorseError:
        return None


def _algebra_cases(drift, count=8, N=4096):
    """Seeded trig pairs (f, g, references) whose reference closed forms
    -f, f + g and f - g are all Morse on the grid."""
    rng = random.Random(f"algebra:{drift}")
    out = []
    while len(out) < count:
        f = MorseFunction1D.closed_form(_trig(rng), N=N, drift=drift)
        g = MorseFunction1D.closed_form(_trig(rng), N=N, drift=drift)
        refs = {
            "neg": MorseFunction1D.closed_form(-f.expr, N=N, drift=-drift),
            "sum": MorseFunction1D.closed_form(f.expr + g.expr, N=N, drift=2 * drift),
            "diff": MorseFunction1D.closed_form(f.expr - g.expr, N=N, drift=0),
        }
        if all(_crit_or_none(r) for r in [f, g, *refs.values()]):
            out.append((f, g, refs))
    return out


def _same_critical_points(got, ref):
    assert [(p.value, p.index) for p in got] == [(p.value, p.index) for p in ref]
    assert all(abs(p.theta - q.theta) <= 1e-9 for p, q in zip(got, ref))


@pytest.mark.parametrize("drift", [Fraction(0), Fraction(1, 3)], ids=["periodic", "drift"])
def test_algebra_matches_fresh_closed_forms(drift):
    for f, g, refs in _algebra_cases(drift):
        for got, ref in (
            (f.negated(), refs["neg"]),
            (f.added(g), refs["sum"]),
            (f.added(g.negated()), refs["diff"]),
        ):
            assert got.drift == ref.drift and got.N == ref.N
            assert got.expr == ref.expr
            _same_critical_points(got.critical_points(), ref.critical_points())


@pytest.mark.parametrize("drift", [Fraction(0), Fraction(1, 3)], ids=["periodic", "drift"])
def test_negation_copies_a_fresh_detection_bit_for_bit(drift):
    for f, _, _ in _algebra_cases(drift, count=4):
        fresh = MorseFunction1D.closed_form(f.expr, N=f.N, drift=drift).negated()
        copied = f.negated()  # f has detected its critical points already
        assert copied._crit is not None
        assert [(p.theta, p.value, p.index, p.raw_value) for p in copied.critical_points()] == [
            (p.theta, p.value, p.index, p.raw_value) for p in fresh.critical_points()
        ]


@given(seed=_SEEDS, drift=_DRIFTS)
def test_negation_copies_a_fresh_detection_of_the_negated_closed_form(seed, drift):
    f = _random_trig(seed, drift)
    fresh = MorseFunction1D.closed_form(-f.expr, N=f.N, drift=-drift)
    copied = f.negated()
    assert copied._crit is not None
    assert [(p.theta, p.value, p.index, p.raw_value) for p in copied.critical_points()] == [
        (p.theta, p.value, p.index, p.raw_value) for p in fresh.critical_points()
    ]


def test_negation_of_a_detected_function_does_not_detect(monkeypatch):
    f = MorseFunction1D.closed_form("cos(theta) + 2/5*sin(2*theta)", N=4096)
    undetected = MorseFunction1D.closed_form("cos(theta) + 2/5*sin(2*theta)", N=4096)
    crit = f.critical_points()
    calls = []
    real = MorseFunction1D._detect

    def spy(self):
        calls.append(self)
        return real(self)

    monkeypatch.setattr(MorseFunction1D, "_detect", spy)
    neg = f.negated().critical_points()
    assert calls == []
    assert [(p.theta, p.value, p.index) for p in neg] == [
        (p.theta, -p.value, 1 - p.index) for p in crit
    ]
    undetected.negated().critical_points()  # nothing to copy: detects once
    assert len(calls) == 1


def test_sampled_negation_and_sum():
    values = np.cos(np.arange(512) * (2 * np.pi / 512) + 0.3)
    f = MorseFunction1D.from_samples(values)
    neg = f.negated()
    assert neg.expr is None
    ref = MorseFunction1D.from_samples(-values).critical_points()
    assert [(p.theta, p.value, p.index) for p in neg.critical_points()] == [
        (p.theta, p.value, p.index) for p in ref
    ]
    closed = MorseFunction1D.closed_form("cos(theta)", N=512)
    for a, b in ((f, closed), (closed, f), (f, f)):
        with pytest.raises(MorseError, match="closed forms"):
            a.added(b)
