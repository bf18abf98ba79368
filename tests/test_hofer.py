import random
from fractions import Fraction

import pytest

from _oracles import rotated
from floermini import hofer
from floermini.action import ActionValue
from floermini.errors import MorseError
from floermini.hofer import PAIR_SLACK, gamma, hofer_quantities, pair_check, rho_unit
from floermini.morse import MorseFunction1D


def random_trig(rng, harmonics=3):
    terms = []
    for k in range(1, harmonics + 1):
        a = Fraction(rng.randint(-8, 8), 8)
        b = Fraction(rng.randint(-8, 8), 8)
        if a:
            terms.append(f"({a})*cos({k}*theta)")
        if b:
            terms.append(f"({b})*sin({k}*theta)")
    if not terms:
        terms = ["cos(theta)"]
    return MorseFunction1D.closed_form(" + ".join(terms), N=1 << 12)


class ConeReport:
    def __init__(self, checks, failures):
        self.checks = checks
        self.failures = failures

    @property
    def ok(self):
        return not self.failures


def cone_checks(pairs, eps=1, rotation=None) -> ConeReport:
    """Normal-cone axioms on the composition surrogate f (+) g := f + g.

    Verifies unit-class subadditivity and relabeling invariance of the
    circle coordinate (within the refinement tolerance), on mean-zero
    closed forms.
    """
    eps = Fraction(eps)
    checks = 0
    failures = []
    for f, g in pairs:
        rf = rho_unit(f, eps)
        rg = rho_unit(g, eps)
        try:
            rsum = rho_unit(f.added(g), eps)
        except MorseError:
            continue  # the sum degenerated below the Morse margin: skip pair
        checks += 1
        if not rsum <= rf + rg + PAIR_SLACK:
            failures.append(("subadditivity", repr(f.expr), repr(g.expr)))
        if rotation is not None:
            rot = rho_unit(rotated(f, rotation), eps)
            if abs(float(rot) - float(rf)) > 1e-9:
                failures.append(("relabeling", repr(f.expr)))
    return ConeReport(checks, failures)


class TestQuantities:
    def test_cos(self):
        f = MorseFunction1D.closed_form("cos(theta)")
        em, ep, norm = hofer_quantities(f, 1)
        assert em == ActionValue(1)
        assert ep == ActionValue(1)
        assert norm == ActionValue(2)

    def test_reversal_identity_exact(self):
        rng = random.Random(3)
        for _ in range(25):
            f = random_trig(rng)
            try:
                em_f, ep_f, _ = hofer_quantities(f, 1)
                em_n, ep_n, _ = hofer_quantities(f.negated(), 1)
            except Exception:
                continue
            assert em_n == ep_f
            assert ep_n == em_f


class TestGamma:
    def test_cos_small(self):
        f = MorseFunction1D.closed_form("cos(theta)")
        rep = gamma(f, Fraction(1, 10))
        assert rep.rho_unit == ActionValue(Fraction(1, 10))
        assert rep.gamma == rep.norm == ActionValue(Fraction(1, 5))
        assert ActionValue(0) <= rep.gamma <= rep.norm
        assert not rep.positive

    def test_unit_rho_bounded_by_e_minus(self):
        rng = random.Random(9)
        for _ in range(30):
            f = random_trig(rng)
            try:
                rep = gamma(f, Fraction(1, 3))
            except Exception:
                continue
            assert rep.rho_unit <= rep.e_minus
            assert ActionValue(0) <= rep.gamma <= rep.norm

    def test_c0_continuity_of_unit_rho(self):
        rng = random.Random(21)
        eps = Fraction(1, 2)
        count = 0
        for _ in range(40):
            f, g = random_trig(rng), random_trig(rng)
            try:
                rf, rg = rho_unit(f, eps), rho_unit(g, eps)
                diff = f.added(g.negated())
                _, _, norm = hofer_quantities(diff, eps)
            except Exception:
                continue
            count += 1
            gap = rf - rg
            mag = gap if gap >= ActionValue(0) else -gap
            assert mag <= norm
        assert count > 20


class TestPositivity:
    def test_zero_is_positive(self):
        # small-but-nonzero stand-in is not positive; exact zero limit is
        f = MorseFunction1D.closed_form("cos(theta)")
        assert not gamma(f, Fraction(1, 100)).positive
        # rho(0;1) = 0: the limit value of rho_unit as eps -> 0
        vals = [float(rho_unit(f, Fraction(1, 10 ** k))) for k in (1, 3, 5)]
        assert vals[0] > vals[1] > vals[2] > 0

    def test_cone_closure_on_random_pairs(self):
        rng = random.Random(5)
        pairs = []
        while len(pairs) < 25:
            f, g = random_trig(rng), random_trig(rng)
            try:
                f.critical_points(), g.critical_points()
            except Exception:
                continue
            pairs.append((f, g))
        rep = cone_checks(pairs, eps=Fraction(1, 4))
        assert rep.ok, rep.failures
        assert rep.checks >= 20

    def test_relabeling_invariance(self):
        f = MorseFunction1D.closed_form("cos(theta) + 1/4*sin(2*theta)")
        rep = cone_checks([(f, f)], eps=Fraction(1, 3), rotation=0.7)
        assert rep.ok, rep.failures


class TestPairCheck:
    def test_cos_against_its_double(self):
        # rho_unit(c cos) = c eps: equality in the triangle, and the
        # continuity bound |1/2 - 1| <= norm(-cos) = 1 holds strictly
        f = MorseFunction1D.closed_form("cos(theta)")
        g = MorseFunction1D.closed_form("2*cos(theta)")
        rf, rg, rsum, dist, subadditive, continuous = pair_check(f, g, Fraction(1, 2))
        assert (rf, rg, rsum, dist) == (ActionValue(Fraction(1, 2)), ActionValue(1),
                                        ActionValue(Fraction(3, 2)), ActionValue(1))
        assert subadditive and continuous

    def test_subadditivity_allows_the_slack_and_no_more(self, monkeypatch):
        f = MorseFunction1D.closed_form("cos(theta)")
        g = MorseFunction1D.closed_form("sin(theta)")
        zero = ActionValue(0)
        for rsum, verdict in ((PAIR_SLACK, True), (PAIR_SLACK + PAIR_SLACK, False)):
            values = iter([zero, zero, rsum])
            monkeypatch.setattr(hofer, "rho_unit", lambda h, eps: next(values))
            *_, subadditive, continuous = pair_check(f, g)
            assert (subadditive, continuous) == (verdict, True)
