import random
from fractions import Fraction

import pytest

from floermini.action import (
    ActionValue,
    NEG_INFINITY,
    POS_INFINITY,
    NovikovScalar,
    make_period_group,
)
from floermini.complexes import FilteredComplex, NovikovChain, Orbit
from floermini.errors import (
    BasisMismatchError,
    ComplexStructureError,
    DegreeError,
    FiltrationError,
    NotACycleError,
)
from floermini.spectral import rho


def sqrt2(scale=1):
    return ActionValue.sqrt(2, scale)


class TestLevel:
    def test_zero_chain_level_is_minus_infinity(self, c3, trivial_group):
        assert c3.level(NovikovChain(trivial_group)) == NEG_INFINITY

    def test_single_generator(self, c3, trivial_group):
        c = NovikovChain.unit(trivial_group, "x")
        assert c3.level(c) == ActionValue(3)
        assert c3.peaks(c) == [("x", ())]

    def test_cap_shifts_level_down(self, c_gamma):
        X, G = c_gamma
        # x2 + q^g x2 peaks at the uncapped copy: max(3/10, 3/10 - sqrt2)
        u = NovikovScalar.from_terms(G, {(0,): 1, (1,): 1})
        c = NovikovChain(G, {"x2": u})
        assert X.level(c) == ActionValue(Fraction(3, 10))
        assert X.peaks(c) == [("x2", (0,))]

    def test_mixed_degree_requires_declaration(self, c3, trivial_group):
        c = NovikovChain.unit(trivial_group, "x") + NovikovChain.unit(trivial_group, "w")
        with pytest.raises(DegreeError):
            c3.level(c)
        assert c3.level(c, degree=2) == ActionValue(6)

    def test_non_archimedean_inequality(self, c_gamma):
        X, G = c_gamma
        r = random.Random(3)
        ids = ["x1", "x2"]

        def rand_chain():
            coeffs = {}
            for i in r.sample(ids, r.randint(0, 2)):
                terms = {(r.randint(-3, 3),): Fraction(r.randint(-4, 4))}
                s = NovikovScalar.from_terms(G, terms)
                if not s.is_zero():
                    coeffs[i] = s
            return NovikovChain(G, coeffs)

        for _ in range(500):
            a, b = rand_chain(), rand_chain()
            la, lb, lab = X.level(a), X.level(b), X.level(a + b)
            top = max(la, lb)
            assert lab <= top
            if la != lb:
                assert lab == top

    def test_scaling_shifts_level_by_valuation(self, c_gamma):
        X, G = c_gamma
        c = NovikovChain.unit(G, "x1")
        u = NovikovScalar.monomial(G, (2,), Fraction(5, 3))
        assert X.level(c.scaled(u)) == X.level(c) - u.valuation()


class TestBoundary:
    def test_boundary_of_zero(self, c3, trivial_group):
        assert c3.boundary_of(NovikovChain(trivial_group)).is_zero()

    def test_c3_boundary(self, c3, trivial_group):
        w = NovikovChain.unit(trivial_group, "w")
        dw = c3.boundary_of(w)
        expected = NovikovChain.unit(trivial_group, "y") - NovikovChain.unit(
            trivial_group, "x"
        )
        assert dw == expected
        assert c3.level(dw) == ActionValue(5)
        assert c3.is_cycle(NovikovChain.unit(trivial_group, "x"))
        assert not c3.is_cycle(w)

    def test_gap(self, c3, c_gamma, trivial_group):
        assert c3.filtration_gap() == ActionValue(1)
        X, G = c_gamma
        # drops are 1 and 1 - 3/10 + sqrt2; min is 1
        assert X.filtration_gap() == ActionValue(1)
        no_boundary = FilteredComplex(trivial_group, [Orbit("a", 0, 0)], {})
        assert no_boundary.filtration_gap() == POS_INFINITY

    def test_nonpositive_gap_rejected(self, trivial_group):
        G = trivial_group
        orbits = [Orbit("a", 0, 1), Orbit("b", 0, 0)]
        with pytest.raises(FiltrationError):
            FilteredComplex(G, orbits, {"a": {"b": NovikovScalar.one(G)}})

    @pytest.mark.parametrize("group", [make_period_group([], []),
                                       make_period_group([ActionValue.sqrt(2)], [0])],
                             ids=["trivial", "sqrt2"])
    def test_levels_over_another_root_are_refused(self, group):
        """One level form has one square root: levels over sqrt(3) beside a
        sqrt(2) level or generator are refused when the complex is built."""
        orbits = [Orbit("a", ActionValue.sqrt(3), 1), Orbit("b", ActionValue.sqrt(2), 0)]
        with pytest.raises(BasisMismatchError, match="mixed irrational bases"):
            FilteredComplex(group, orbits, {})

    def test_nonzero_square_rejected(self, trivial_group):
        # a -> b -> c with unit entries: d(d a) = c
        one = NovikovScalar.one(trivial_group)
        orbits = [Orbit("a", 10, 2), Orbit("b", 5, 1), Orbit("c", 0, 0)]
        with pytest.raises(ComplexStructureError,
                           match="boundary does not square to zero at 'a'"):
            FilteredComplex(trivial_group, orbits, {"a": {"b": one}, "b": {"c": one}})

    def test_boundary_drop_respects_gap(self, c3):
        gap = c3.filtration_gap()
        w = NovikovChain.unit(c3.group, "w")
        assert c3.level(c3.boundary_of(w)) <= c3.level(w) - gap


class TestSpectrum:
    def test_trivial_group_membership(self, c3):
        spec = c3.spectrum()
        assert spec.witness(ActionValue(5)) is not None
        assert spec.witness(ActionValue(4)) is None

    def test_integer_translates(self):
        G = make_period_group([1], [0])
        X = FilteredComplex(G, [Orbit("z", Fraction(1, 2), 0)], {})
        spec = X.spectrum()
        assert spec.witness(ActionValue(Fraction(-5, 2))) is not None
        assert spec.witness(ActionValue(Fraction(-5, 2))) == ("z", (3,))
        assert spec.witness(ActionValue(Fraction(1, 3))) is None

    def test_dense_membership(self, c_gamma):
        X, _ = c_gamma
        spec = X.spectrum()
        v = ActionValue(Fraction(3, 10)) - sqrt2()
        assert spec.witness(v) is not None
        assert spec.witness(v) == ("x2", (1,))


class TestHomology:
    def test_zero_boundary_every_orbit_is_a_class(self, trivial_group):
        G = trivial_group
        X = FilteredComplex(
            G, [Orbit("a", 0, 0), Orbit("b", 1, 0), Orbit("c", 2, 1)], {}
        )
        classes = X.homology_basis()
        assert len(classes) == 3

    def test_c3_homology(self, c3):
        classes = c3.homology_basis()
        by_degree = {}
        for c in classes:
            by_degree.setdefault(c.degree, []).append(c)
        assert len(by_degree.get(1, [])) == 1
        assert 2 not in by_degree

    def test_invertible_entry_kills_homology(self, dense_group):
        G = dense_group
        # dy = (1 - q^g) x with omega(g) = sqrt 2: invertible over the field
        u = NovikovScalar.from_terms(G, {(0, 0): 1, (0, 1): -1})
        X = FilteredComplex(
            G,
            [Orbit("x", 0, 0), Orbit("y", 1, 1)],
            {"y": {"x": u}},
        )
        assert X.homology_basis() == []

    def test_homologous_with_witness(self, c3, trivial_group):
        G = trivial_group
        x = NovikovChain.unit(G, "x")
        y = NovikovChain.unit(G, "y")
        ok, delta = c3.homologous(x, x)
        assert ok and delta.is_zero()
        ok, delta = c3.homologous(x, y)
        assert ok
        assert c3.boundary_of(delta) == x - y
        ok, delta = c3.homologous(x, x.scaled(2))
        assert not ok and delta is None
        with pytest.raises(NotACycleError):
            c3.homologous(NovikovChain.unit(G, "w"), x)

    def test_lifted_generator_uniqueness(self, c_gamma):
        # two lifts of one orbit with equal level and index coincide
        X, G = c_gamma
        caps = [(0,), (1,), (-2,)]
        seen = {}
        for cap in caps:
            lvl = X.orbit("x2").level - G.omega(cap)
            idx = X.orbit("x2").index - 2 * G.c1(cap)
            key = (lvl.q, lvl.r, idx)
            assert key not in seen
            seen[key] = cap


class TestEquivariance:
    def test_c1_weighted_lifts(self):
        # omega = 1, c1 = 1: a cap shifts level by -omega and index by -2
        G = make_period_group([1], [1])
        orbits = [Orbit("a", 0, 0), Orbit("b", 5, 3)]
        # entry b -> a needs 2*c1(cap) = index(a) - index(b) + 1 = -2: cap (-1)
        X = FilteredComplex(
            G, orbits, {"b": {"a": NovikovScalar.monomial(G, (-1,), 1)}}
        )
        assert X.filtration_gap() == ActionValue(4)
        cap = (-1,)
        assert G.omega(cap) == ActionValue(-1)
        assert G.c1(cap) == -1
        # wrong cap degree is rejected
        with pytest.raises(Exception):
            FilteredComplex(
                G, orbits, {"b": {"a": NovikovScalar.monomial(G, (0,), 1)}}
            )


class TestSerialization:
    def test_json_round_trip(self, c_gamma):
        X, G = c_gamma
        X2 = FilteredComplex.from_json(G, X.to_json())
        assert X2.dump() == X.dump()


class TestRelevelled:
    """A re-levelled complex shares the boundary and, while each degree
    orders its levels as before, the elimination."""

    def test_same_order_carries_the_elimination(self, c3, trivial_group):
        y = NovikovChain.unit(trivial_group, "y")
        before = rho(c3, y)
        kernel_basis = c3.decomposition(1).kernel_basis
        X = c3.relevelled([Orbit("x", 4, 1), Orbit("y", 5, 1), Orbit("w", 7, 2)])
        assert X.boundary is c3.boundary
        assert X.decomposition(2).image is c3.decomposition(2).image
        assert X.decomposition(1).kernel_basis is kernel_basis
        assert X.decomposition(2).residual(y.coeffs) is c3.decomposition(2).residual(y.coeffs)
        # values are read off the new levels
        after = rho(X, y)
        assert (before.value, after.value) == (ActionValue(3), ActionValue(4))
        assert before.tight_cycle == after.tight_cycle
        assert before.witness == after.witness == ("x", ())
        assert c3.decomposition(2).largest_bar == ActionValue(1)
        assert X.decomposition(2).largest_bar == ActionValue(2)

    def test_changed_order_eliminates_afresh(self, c3):
        assert c3.decomposition(2).image[0].pivot == "y"
        # x and y now tie: the pivot falls to the smaller id, as in a fresh complex
        orbits = [Orbit("x", 5, 1), Orbit("y", 5, 1), Orbit("w", 6, 2)]
        X = c3.relevelled(orbits)
        fresh = FilteredComplex(c3.group, orbits, c3.boundary)
        assert X.decomposition(2).image is not c3.decomposition(2).image
        assert [r.pivot for r in X.decomposition(2).image] == ["x"]
        assert [r.pivot for r in fresh.decomposition(2).image] == ["x"]

    def test_nontrivial_group_eliminates_afresh(self, c_gamma):
        X, G = c_gamma
        X.decomposition(1)
        orbits = [Orbit("x1", 0, 0), Orbit("x2", Fraction(3, 10), 0), Orbit("y", 2, 1)]
        Y = X.relevelled(orbits)
        assert Y.decomposition(1).image is not X.decomposition(1).image
        fresh = FilteredComplex(G, orbits, X.boundary).decomposition(1).image
        assert [(r.pivot, r.vec) for r in Y.decomposition(1).image] == \
            [(r.pivot, r.vec) for r in fresh]

    def test_levels_that_do_not_lower_are_refused(self, c3):
        with pytest.raises(FiltrationError, match=r"entry w->y cap \(\) does not lower"):
            c3.relevelled([Orbit("x", 3, 1), Orbit("y", 7, 1), Orbit("w", 6, 2)])

    def test_ids_and_indices_are_kept(self, c3):
        with pytest.raises(ComplexStructureError, match="keeps the orbit ids and indices"):
            c3.relevelled([Orbit("x", 3, 1), Orbit("y", 5, 0), Orbit("w", 6, 2)])
        with pytest.raises(ComplexStructureError, match="keeps the orbit ids and indices"):
            c3.relevelled([Orbit("x", 3, 1), Orbit("w", 6, 2)])
