import math
import random
from fractions import Fraction

import numpy as np
import pytest
import sympy as sp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from floermini import cerf, hofer
from floermini.action import POS_INFINITY, ActionValue, NovikovScalar, make_period_group
from floermini.cerf import (
    ETA_TOLERANCE,
    AbstractCerfFamily,
    MorseCerfFamily,
    bifurcation_diagram,
    branch_slope,
    classify_events,
    concat,
    gamma_translate,
    sub_family,
)
from floermini.complexes import FilteredComplex, Orbit
from floermini.config import RunConfig
from floermini.continuation import (
    ChainMap,
    classify_entries,
    classify_steps,
    compose_step_maps,
    continuation_map,
    dichotomy_constant,
    rho_curve,
    solve_chain_homotopy,
    step_maps,
    variation_bounds,
)
from floermini.errors import EventError, MorseError, NonCerfError, RankMismatchError
from floermini.morse import MorseFunction1D, _quantize, build_s1_morse
from floermini.spectral import rho
from test_cli import swap_config
from test_morse import _GRID_POINT, _shifted_sine, _trig as _trig_text

BD_FAMILY = "cos(theta) + eta*(3/5)*cos(2*theta + 1/2)"
TWO_EVENT_FAMILY = (
    "(1-eta)*cos(theta) + eta*(3/2*cos(2*theta - 7/10) - 3/10*cos(3*theta))"
)
SLOPE_FAMILY = "cos(theta) + eta*(1/4*sin(2*theta) + 1/5*cos(3*theta))"


@pytest.fixture(scope="module")
def bd_diagram():
    return MorseCerfFamily(BD_FAMILY, eta_points=65).diagram()


@pytest.fixture(scope="module")
def two_event_diagram():
    return MorseCerfFamily(TWO_EVENT_FAMILY, eta_points=129).diagram()


class TestDiagram:
    def test_constant_family(self):
        d = MorseCerfFamily("cos(theta)", eta_points=17).diagram()
        assert len(d.branches) == 2
        assert not d.cusps and not d.crossings
        for b in d.branches:
            assert max(b.values) - min(b.values) < 1e-9
        assert sorted(round(b.values[0]) for b in d.branches) == [-1, 1]

    def test_birth_event_localized(self, bd_diagram):
        assert len(bd_diagram.cusps) == 1
        c = bd_diagram.cusps[0]
        assert c.kind == "birth"
        # reference location from an independent dense scan
        assert abs(c.eta - 0.6705) < 2e-3
        assert sorted(c.indices) == [0, 1]

    def test_birth_pairs_have_adjacent_indices(self, bd_diagram):
        c = bd_diagram.cusps[0]
        got = {bd_diagram.branch(b).index for b in c.branches}
        assert got == {0, 1}

    def test_two_event_family(self, two_event_diagram):
        d = two_event_diagram
        assert len(d.cusps) == 1
        assert len(d.crossings) == 1
        assert d.cusps[0].kind == "birth"
        assert abs(d.cusps[0].eta - 0.19209) < 2e-3
        assert abs(d.crossings[0].eta - 0.86934) < 2e-3
        ia, ib = d.branch(d.crossings[0].branch_a), d.branch(d.crossings[0].branch_b)
        assert ia.index == ib.index == 0

    def test_eta_localization_tolerance(self, two_event_diagram):
        # reference values computed with a 20001-point scan at higher theta grid
        assert abs(two_event_diagram.cusps[0].eta - 0.192088) < 1e-4
        assert abs(two_event_diagram.crossings[0].eta - 0.869341) < 1e-4

    def test_degenerate_family_flagged(self):
        fam = MorseCerfFamily("(1-eta)*cos(theta) + eta*cos(theta + pi)")
        with pytest.raises(NonCerfError):
            fam.diagram()


def _palindromic(h0, h1):
    """H0 + 4 eta (1 - eta) (H1 - H0) at 65x4096: on the dyadic eta grid the
    slices at eta and 1 - eta are bitwise the same function."""
    return MorseCerfFamily(f"({h0}) + 4*eta*(1 - eta)*(({h1}) - ({h0}))",
                           eta_points=65, theta_points=4096)


def _assert_mirror_symmetric(fam):
    """The mirror oracle of a palindromic family: its events mirror about
    1/2 with birth and death swapped, its rho curves read the same both
    ways, and its loop's continuation map is homotopic to the identity."""
    d = fam.diagram()
    tol = 2 * ETA_TOLERANCE  # one bisection error on each side

    def mirrored(etas, back):
        etas, back = sorted(etas), sorted(1.0 - e for e in back)
        return len(etas) == len(back) and all(abs(a - b) <= tol for a, b in zip(etas, back))

    births = [c.eta for c in d.cusps if c.kind == "birth"]
    deaths = [c.eta for c in d.cusps if c.kind == "death"]
    crossings = [c.eta for c in d.crossings]
    assert mirrored(births, deaths), (births, deaths)
    assert mirrored(crossings, crossings), crossings
    n = len(fam.grid)
    for cls in ("point", "fundamental"):
        values = [r.value for _, r in rho_curve(fam, cls)]
        assert all(values[i] == values[n - 1 - i] for i in range(n)), cls
    solve_chain_homotopy(continuation_map(fam), ChainMap.identity(fam.chain_complex(0)))


class TestMirror:
    H0 = ("(6/8)*cos(1*theta) + (-3/8)*sin(1*theta) + (-8/8)*cos(2*theta)"
          " + (-4/8)*sin(2*theta) + (-3/8)*cos(3*theta) + (-4/8)*sin(3*theta)")
    H1 = ("(7/8)*cos(1*theta) + (-5/8)*sin(1*theta) + (-7/8)*cos(2*theta)"
          " + (2/8)*sin(2*theta) + (8/8)*cos(3*theta) + (8/8)*sin(3*theta)")

    def test_crossing_next_to_a_death_is_found(self):
        # the mirror crossing lies between the last grid point and the death
        fam = _palindromic(self.H0, self.H1)
        d = fam.diagram()
        assert [(c.kind, round(c.eta, 6)) for c in d.cusps] == [
            ("birth", 0.146348), ("death", 0.853652)]
        assert [round(c.eta, 6) for c in d.crossings] == [0.151102, 0.848898]
        _assert_mirror_symmetric(fam)

    @settings(max_examples=12)
    @given(seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)))
    def test_palindromic_families_of_random_trig_pairs(self, seeds):
        h0, h1 = (hofer.random_trig_function(random.Random(seed))[0] for seed in seeds)
        fam = _palindromic(h0, h1)
        try:
            assume(classify_events(fam.diagram()).ok)  # a flagged diagram exits 2
            _assert_mirror_symmetric(fam)
        except NonCerfError:  # refused: not Cerf, or two cusps in one interval
            assume(False)

    def test_zero_sampled_difference_is_a_crossing_at_that_sample(self):
        # H1 is symmetric under theta -> pi - theta, so two pairs of branches
        # touch at eta = 1/2, a grid point of both grids: their sampled
        # difference is exactly 0.0 there and of one sign on both sides
        h0, h1 = (hofer.random_trig_function(random.Random(seed))[0] for seed in (0, 13524))
        for eta_points in (65, 129):
            fam = MorseCerfFamily(f"({h0}) + 4*eta*(1 - eta)*(({h1}) - ({h0}))",
                                  eta_points=eta_points, theta_points=4096)
            d = fam.diagram()
            assert sorted((c.eta, c.branch_a, c.branch_b) for c in d.crossings
                          if abs(c.eta - 0.5) < 0.1) == [(0.5, "b1", "b3"), (0.5, "b4", "b7")]
            violations = classify_events(d).violations
            assert violations.count("degenerate crossing at eta=0.500000: equal slopes") == 2


def _rows(reduced):
    return [(r.pivot, r.vec, r.companion) for r in reduced]


def _assert_carried_as_fresh(fam) -> int:
    """Each grid slice's complex, its decompositions and its rho of the
    point class, as the family carries them along the grid, equal those of
    a fresh `build_s1_morse` of the slice.  Returns the number of slices
    that share their predecessor's image basis."""
    curve = rho_curve(fam, "point")  # in grid order, as a run builds them
    carried = 0
    for i, (_, res) in enumerate(curve):
        X = fam.chain_complex(i)
        Y = build_s1_morse(fam.detected_slice(fam.grid[i]), 1).complex
        assert X.dump() == Y.dump()  # levels and boundary
        for k in Y.degrees():
            a, b = X.decomposition(k), Y.decomposition(k)
            assert _rows(a.image) == _rows(b.image)
            assert a.kernel == b.kernel
            assert _rows(a.kernel_basis) == _rows(b.kernel_basis)
            assert a.largest_bar == b.largest_bar
        fresh = rho(Y, fam.class_at(i, "point"))
        assert res.value == fresh.value
        assert res.tight_cycle == fresh.tight_cycle
        assert res.witness == fresh.witness
        if i and X.decomposition(1).image is fam.chain_complex(i - 1).decomposition(1).image:
            carried += 1
    return carried


def _shift_by_values(h, key):
    """One entry's level shift in ActionValue arithmetic: the level of the
    target lift minus the source's."""
    t, s = key
    u = h.columns[s][t]
    return (h.target.orbit(t).level - u.valuation()) - h.source.orbit(s).level


def _classify_by_values(h, a0, eps):
    """The thin-or-slide verdicts, entry by entry in ActionValue arithmetic."""
    thin, slides, violations = [], [], []
    for key in sorted(h.entries):
        shift = _shift_by_values(h, key)
        mag = shift if shift >= 0 else -shift
        tag = h.provenance.get(key, "")
        if mag <= eps:
            if tag in ("pairing", "birth", "death"):
                thin.append((key, shift))
            else:
                violations.append((key, shift, f"thin entry with provenance {tag!r}"))
        elif mag >= a0 - eps:
            slides.append((key, shift))
        else:
            violations.append((key, shift, "forbidden middle band"))
    return thin, slides, violations


def _gap_by_values(X, excluded):
    """The filtration gap in ActionValue arithmetic."""
    gap = POS_INFINITY
    for src, row in X.boundary.items():
        for tgt, scalar in row.items():
            if (src, tgt) not in excluded and (tgt, src) not in excluded:
                gap = min(gap, X.orbit(src).level - X.orbit(tgt).level + scalar.valuation())
    return gap


def _assert_carried_as_scalar(fam) -> int:
    """The continuation task as it carries `fam`, against the scalar route
    in ActionValue arithmetic, for every step in both directions:
    - the verdicts of `classify_entries` on each step, carried or not, and
      on the scalar `ChainMap` built from its entries equal the
      entry-by-entry classification of the built map, at the run's eps and
      at two eps that put entries in the middle band or among the slides;
      `classify_steps` equals them all;
    - `compose_step_maps` equals the step-by-step scalar composite of the
      built maps;
    - `dichotomy_constant` equals the minimum over the grid of each slice's
      gap.
    Returns the number of carried steps."""
    a0 = dichotomy_constant(fam)
    assert a0 == min(_gap_by_values(fam.chain_complex(i), fam.cusp_pairs(i))
                     for i in range(len(fam.grid)))
    contributions = variation_bounds(fam).contributions
    eps_run = ActionValue.rational(max((a + b for a, b in contributions), default=0))
    if a0 is POS_INFINITY:
        trials = [eps_run, ActionValue(Fraction(1, 3))]
    else:
        trials = [eps_run, a0 * Fraction(1, 3), a0 * Fraction(1, 100)]
    carried = 0
    for reverse in (False, True):
        steps = step_maps(fam, reverse)
        built = [ChainMap(h.source, h.target, h.entries, h.provenance) for h in steps]
        want = built[0]
        for m in built[1:]:
            want = m.compose_after(want)
        got = compose_step_maps(steps)
        assert got.to_json() == want.to_json()
        assert got.provenance == want.provenance
        for eps in trials:
            if not a0 > eps + eps:
                continue
            by_steps = classify_steps(steps, a0, eps)
            for h, m, cls in zip(steps, built, by_steps):
                want_cls = _classify_by_values(m, a0, eps)
                for c in (cls, classify_entries(h, a0, eps), classify_entries(m, a0, eps)):
                    assert (c.thin, c.slides, c.violations) == want_cls
        carried += sum(h.table is not None for h in steps)
    return carried


class TestCarriedFamily:
    """Between events a slice only re-levels its predecessor's complex: the
    boundary is shared, and the elimination carries while the level order
    holds.  The continuation task carries too: a step between events is its
    table, its shifts are the paired orbits' level changes, runs compose as
    tables, and the gap is read off one shared entry list.  Closed-form,
    palindromic, declared and concatenated families all give the scalar
    route's verdicts, composite and gap."""

    @pytest.mark.parametrize("expr", [TWO_EVENT_FAMILY, BD_FAMILY, SLOPE_FAMILY],
                             ids=["two_event", "birth_death", "slope"])
    def test_carried_slices_equal_fresh_builds(self, expr):
        fam = MorseCerfFamily(expr, eta_points=65, theta_points=4096)
        assert _assert_carried_as_fresh(fam) >= 60
        shared = sum(fam.chain_complex(i).boundary is fam.chain_complex(i - 1).boundary
                     for i in range(1, 65))
        assert shared >= 62

    @settings(max_examples=12)
    @given(seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)))
    def test_palindromic_families_carry_as_fresh_builds(self, seeds):
        h0, h1 = (hofer.random_trig_function(random.Random(seed))[0] for seed in seeds)
        fam = _palindromic(h0, h1)
        try:
            fam.detect_grid()
            carried = _assert_carried_as_fresh(fam)
        except MorseError:  # a slice without critical points: not a family to carry
            assume(False)
        assert carried > 0

    @pytest.mark.parametrize("expr", [
        TWO_EVENT_FAMILY, BD_FAMILY, SLOPE_FAMILY,
        f"({TestMirror.H0}) + 4*eta*(1 - eta)*(({TestMirror.H1}) - ({TestMirror.H0}))"],
        ids=["two_event", "birth_death", "slope", "mirror"])
    def test_rho_follows_one_branch_between_events(self, expr):
        """The structure theorem made visible: rho's witness orbit, read as a
        branch of the diagram, changes only across a grid interval that
        holds a cusp or a crossing."""
        fam = MorseCerfFamily(expr, eta_points=65, theta_points=4096)
        d = fam.diagram()
        events = [c.eta for c in d.cusps] + [c.eta for c in d.crossings]
        branch = []
        for i, (_, res) in enumerate(rho_curve(fam, "point")):
            by_orbit = {orbit: b for b, orbit in d.tracks[i].items()}
            branch.append(by_orbit[res.witness[0]])
        lo, hi = fam.grid[:-1], fam.grid[1:]
        changes = [i for i in range(64) if branch[i] != branch[i + 1]]
        for i in changes:
            assert any(lo[i] <= e <= hi[i] for e in events), (i, branch[i], branch[i + 1])
        if expr == TWO_EVENT_FAMILY:  # rho moves onto the other maximum at the crossing
            assert [(branch[i], branch[i + 1]) for i in changes] == [("b0", "b2")]

    @pytest.mark.parametrize("expr", [TWO_EVENT_FAMILY, BD_FAMILY, SLOPE_FAMILY],
                             ids=["two_event", "birth_death", "slope"])
    def test_continuation_carries_as_the_scalar_route(self, expr):
        fam = MorseCerfFamily(expr, eta_points=65, theta_points=4096)
        assert _assert_carried_as_scalar(fam) >= 2 * 60

    def test_rotation_loop_relabels_across_the_wrap(self):
        fam = MorseCerfFamily("cos(theta - 2*pi*eta) + 1/3*cos(2*theta - 4*pi*eta + 1/2)",
                              eta_points=65, theta_points=4096)
        assert _assert_carried_as_scalar(fam) == 2 * 64
        tables = [h.table for h in step_maps(fam)]
        assert any(any(s != t for s, t in tab.items()) for tab in tables)

    @settings(max_examples=4)
    @given(seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)))
    def test_palindromic_continuation_carries_as_the_scalar_route(self, seeds):
        h0, h1 = (hofer.random_trig_function(random.Random(seed))[0] for seed in seeds)
        try:
            _assert_carried_as_scalar(_palindromic(h0, h1))
        except (MorseError, NonCerfError):  # no slice complex, or not a Cerf family
            assume(False)

    @pytest.mark.parametrize("levels", [[(0, 1), (1, 0), (2, 0)], [(0, 1), (3, 1), (3, 2)]])
    def test_declared_family_continuation(self, levels):
        fam = RunConfig(swap_config(levels, bounds=[["1/8", "1/8"], ["1/8", "1/8"]])) \
            .build_family()
        assert _assert_carried_as_scalar(fam) == 2 * 2

    def test_declared_family_at_three_scales(self):
        """Slices whose levels have different denominators: each slice's gap
        is compared at its own scale."""
        G = make_period_group([], [])
        one = NovikovScalar.one(G)
        complexes = [FilteredComplex(G, [Orbit("x", x, 1), Orbit("y", y, 0)], {"x": {"y": one}})
                     for x, y in [(1, 0), (Fraction(5, 3), 1), (Fraction(7, 2), 3)]]
        fam = AbstractCerfFamily(G, complexes, steps=[{"type": "pairing"}] * 2)
        assert dichotomy_constant(fam) == ActionValue(Fraction(1, 2))
        assert _assert_carried_as_scalar(fam) == 2 * 2

    def test_concatenated_family_continuation(self):
        fam = MorseCerfFamily(BD_FAMILY, eta_points=33, theta_points=4096)
        cc = concat(sub_family(fam, 0.0, 0.5), sub_family(fam, 0.5, 1.0))
        assert _assert_carried_as_scalar(cc) >= 2 * 60


class TestClassify:
    def test_constant_family_valid(self):
        d = MorseCerfFamily("cos(theta)", eta_points=9).diagram()
        rep = classify_events(d)
        assert rep.ok

    def test_birth_death_valid(self, bd_diagram):
        assert classify_events(bd_diagram).ok

    def test_two_event_valid(self, two_event_diagram):
        rep = classify_events(two_event_diagram)
        assert rep.ok, rep.violations

    def test_crossing_slopes_differ(self, two_event_diagram):
        c = two_event_diagram.crossings[0]
        sa = branch_slope(two_event_diagram, c.branch_a, c.eta, side_hint=True)
        sb = branch_slope(two_event_diagram, c.branch_b, c.eta, side_hint=True)
        assert abs(sa - sb) > 1e-3


class TestSlope:
    def test_constant_family_zero_slope(self):
        d = MorseCerfFamily("cos(theta)", eta_points=9).diagram()
        for b in d.branches:
            assert abs(branch_slope(d, b.id, 0.5)) < 1e-12

    def test_envelope_formula_matches_finite_differences(self):
        fam = MorseCerfFamily(
            "cos(theta) + eta*(1/4*sin(2*theta))", eta_points=129
        )
        d = fam.diagram()
        h = 1.0 / 128
        tol = 10 * h * h
        for b in d.branches:
            for k in range(10, 119, 27):
                eta = b.etas[k]
                fd = (b.values[k + 1] - b.values[k - 1]) / (
                    b.etas[k + 1] - b.etas[k - 1]
                )
                sl = branch_slope(d, b.id, eta)
                assert abs(fd - sl) < tol

    def test_slope_errors_at_event(self, bd_diagram):
        c = bd_diagram.cusps[0]
        with pytest.raises(EventError):
            branch_slope(bd_diagram, c.branches[0], c.eta)


class TestSubFamily:
    def test_endpoint_identity(self):
        fam = MorseCerfFamily(BD_FAMILY, eta_points=17)
        sub = sub_family(fam, 0.0, 1.0)
        assert sub.affine == (0.0, 1.0)
        point = sub_family(fam, 0.3, 0.3)
        f = point.function_at(0.0)
        g = point.function_at(1.0)
        assert [p.value for p in f.critical_points()] == [
            p.value for p in g.critical_points()
        ]

    def test_reversal_composition(self):
        fam = MorseCerfFamily(BD_FAMILY, eta_points=17)
        rev = sub_family(fam, 0.7, 0.2)
        assert rev.reversed_orientation
        fwd = sub_family(fam, 0.2, 0.7)
        # same root slices at swapped slots
        a = rev.function_at(0.0).critical_points()
        b = fwd.function_at(1.0).critical_points()
        assert [p.value for p in a] == [p.value for p in b]

    def test_sub_events_restrict(self):
        fam = MorseCerfFamily(BD_FAMILY, eta_points=65)
        eta_star = fam.diagram().cusps[0].eta
        before = sub_family(fam, 0.0, eta_star - 0.05)
        before._diagram = None
        assert not before.diagram().cusps
        around = sub_family(fam, eta_star - 0.05, min(1.0, eta_star + 0.05))
        assert len(around.diagram().cusps) == 1

    def test_out_of_range(self):
        fam = MorseCerfFamily(BD_FAMILY, eta_points=9)
        with pytest.raises(EventError):
            sub_family(fam, -0.1, 0.5)


def test_declared_sub_family_moves_its_events_with_their_intervals():
    G = make_period_group([], [])
    A = FilteredComplex(G, [Orbit("a", 0, 0)], {})
    B = FilteredComplex(G, [Orbit("a", 0, 0), Orbit("p", 2, 1), Orbit("m", 1, 0)],
                        {"p": {"m": NovikovScalar.one(G)}})
    fam = AbstractCerfFamily(G, [A, B, A], [
        {"type": "birth", "plus": "p", "minus": "m", "eta": 0.25},
        {"type": "death", "plus": "p", "minus": "m", "eta": 0.75}])
    back = sub_family(fam, 1.0, 0.0)
    assert [(st["type"], st["eta"]) for st in back.steps] == [("birth", 0.25), ("death", 0.75)]
    assert [(st["type"], st["eta"]) for st in sub_family(fam, 0.5, 1.0).steps] == [
        ("death", 0.5)]
    with pytest.raises(NonCerfError, match="declared step 0 .* outside its interval"):
        AbstractCerfFamily(G, [A, B, A], back.steps[::-1])


def test_abstract_family_needs_one_grid_point_per_complex():
    G = make_period_group([], [])
    X = FilteredComplex(G, [Orbit("x", 0, 0)], {})
    assert len(AbstractCerfFamily(G, [X, X], grid=[0.0, 1.0]).grid) == 2
    for grid in ([0.0, 0.5, 1.0], [0.5]):
        with pytest.raises(NonCerfError):
            AbstractCerfFamily(G, [X, X], grid=grid)


def test_declared_crossing_names_orbits_of_both_adjacent_complexes():
    G = make_period_group([], [])
    X = FilteredComplex(G, [Orbit("x", 0, 0)], {})
    XY = FilteredComplex(G, [Orbit("x", 0, 0), Orbit("y", 1, 0)], {})
    YX = FilteredComplex(G, [Orbit("x", 1, 0), Orbit("y", 0, 0)], {})
    crossing = {"type": "crossing", "a": "x", "b": "y", "eta": 0.5}
    for comps in ([X, X], [X, XY], [XY, X]):
        with pytest.raises(NonCerfError, match="crossing orbit 'y'"):
            AbstractCerfFamily(G, comps, [crossing])
    fam = AbstractCerfFamily(G, [XY, YX], [crossing])
    assert classify_events(fam.diagram()).violations == []


class TestGammaTranslate:
    def _abstract(self):
        G = make_period_group([ActionValue(1)], [0])
        X = FilteredComplex(
            G,
            [Orbit("x", 0, 0), Orbit("y", 1, 1)],
            {"y": {"x": NovikovScalar.monomial(G, (0,), 1)}},
        )
        fam = AbstractCerfFamily(G, [X, X])
        return fam, G

    def test_identity_translation(self):
        fam, G = self._abstract()
        d = bifurcation_diagram(fam)
        d2 = gamma_translate(d, (0,))
        for a, b in zip(d.branches, d2.branches):
            assert a.values == b.values

    def test_shift_by_period(self):
        fam, G = self._abstract()
        d = bifurcation_diagram(fam)
        d2 = gamma_translate(d, (1,))
        for a, b in zip(d.branches, d2.branches):
            assert all(abs(x - 1.0 - y) < 1e-12 for x, y in zip(a.values, b.values))

    def test_classification_invariant(self):
        fam, G = self._abstract()
        d = bifurcation_diagram(fam)
        r1 = classify_events(d)
        r2 = classify_events(gamma_translate(d, (2,)))
        assert r1.violations == r2.violations

    def test_rank_mismatch(self):
        fam, G = self._abstract()
        d = bifurcation_diagram(fam)
        with pytest.raises(RankMismatchError):
            gamma_translate(d, (1, 2))

    def test_translate_commutes_with_build(self):
        # shifting every orbit level by -omega(g) then building equals
        # building then translating the diagram
        fam, G = self._abstract()
        cap = (2,)
        shift = G.omega(cap)
        shifted = [
            FilteredComplex(
                G,
                [Orbit(o.id, o.level - shift, o.index) for o in X.orbits],
                X.boundary,
            )
            for X in fam.complexes
        ]
        fam2 = AbstractCerfFamily(G, shifted)
        d_then_t = gamma_translate(bifurcation_diagram(fam), cap)
        t_then_d = bifurcation_diagram(fam2)
        for a, b in zip(
            sorted(d_then_t.branches, key=lambda b: b.id),
            sorted(t_then_d.branches, key=lambda b: b.id),
        ):
            assert a.id == b.id and a.values == b.values

    def test_translate_keeps_tracks(self):
        """The deck action shifts levels, not orbit ids: a translated
        diagram tracks its branches through the same orbits."""
        fam, G = self._abstract()
        d = bifurcation_diagram(fam)
        assert d.tracks == [{"b_x": "x", "b_y": "y"}] * 2
        assert gamma_translate(d, (1,)).tracks == d.tracks


# -- the eta-expansion against the exact callables ----------------------------


def _outcome(critical_points):
    """Critical points as bitwise-comparable tuples, or the MorseError text."""
    try:
        return [(p.theta, p.value, p.index, p.raw_value) for p in critical_points()]
    except MorseError as e:
        return str(e)


def _exact_outcome(sl):
    """What a plain exact detection of the slice's f and f' gives."""
    return _outcome(MorseFunction1D(sl._f, sl._fp, N=sl.N).critical_points)


def _assert_slice_exact(fam, s):
    """The family's detection of the slice at s equals a plain exact
    detection of the same callables, bit for bit."""
    sl = fam.function_at(s)
    assert _outcome(lambda: fam.detected_slice(s).critical_points()) == _exact_outcome(sl)
    return sl


_rationals = st.fractions(min_value=-2, max_value=2, max_denominator=7)


@st.composite
def _trig(draw):
    terms = []
    for k in range(1, draw(st.integers(1, 3)) + 1):
        a, b = draw(_rationals), draw(_rationals)
        terms.append(f"({a})*cos({k}*theta) + ({b})*sin({k}*theta + 1/3)")
    return " + ".join(terms)


class TestEtaExpansion:
    N = 2048

    @settings(max_examples=40)
    @given(a=_trig(), b=_trig(), c=_trig(), d=_trig(), k=st.tuples(_rationals, _rationals),
           degree=st.integers(1, 3), slots=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4),
           edges=st.lists(st.integers(0, 16), min_size=1, max_size=2))
    def test_fast_scan_matches_exact_scan(self, a, b, c, d, k, degree, slots, edges):
        """Families of degree 1 to 3 in eta, sliced anywhere, at the ends of
        blocks and one ulp off them: each slice is the exact detection, and
        the certificate of the first slot's block holds at three etas."""
        expr = f"({k[0]}) + cos(theta) + ({a})/2 + eta*({k[1]} + {b})"
        expr += "".join(f" + eta**{e}*({t})" for e, t in ((2, c), (3, d))[:degree - 1])
        fam = MorseCerfFamily(expr, eta_points=9, theta_points=self.N)
        assert fam._root.expansion is not None
        ulp = 2.0**-52
        slots += [e / 16 + u for e in edges for u in (-ulp, 0.0, ulp) if 0 <= e / 16 + u <= 1]
        for s in slots + [0.0, 0.5, 1.0]:
            _assert_slice_exact(fam, s)
        j = min(math.floor(slots[0] * cerf._BLOCKS), cerf._BLOCKS - 1)
        _assert_certificate_sound(fam, j, [j / cerf._BLOCKS, slots[0], (j + 1) / cerf._BLOCKS])

    def test_exact_zero_and_near_zero_on_the_grid(self, monkeypatch):
        cells, seen = cerf._Certificate.cells, []

        def spy(cert, vals, tol, fp, n):
            out = cells(cert, vals, tol, fp, n)
            seen.append((cert.idx, vals.copy(), tol))
            return out

        monkeypatch.setattr(cerf._Certificate, "cells", spy)
        fam = MorseCerfFamily(BD_FAMILY, eta_points=9, theta_points=self.N)
        sl = _assert_slice_exact(fam, 0.0)
        g = sl.grid()
        assert sl._fp(g[:1])[0] == 0.0  # f' = -sin(theta) vanishes at theta = 0
        assert 0.0 in [p.theta for p in sl.critical_points()]
        [(idx, vals, tol)] = seen
        half = self.N // 2  # theta = pi exactly: -sin(pi) is about -1.2e-16
        assert 0.0 < abs(sl._fp(g[half:half + 1])[0]) < 1e-15
        # both are uncertain samples of the block [0, 1/16], re-evaluated exactly
        assert vals[list(idx).index(0)] == 0.0
        assert abs(vals[list(idx).index(half)]) <= tol

    def test_mean_on_a_half_quantum_falls_back(self, monkeypatch):
        check, means = MorseFunction1D._check_cells, {}  # slice -> the mean given to its checks

        def spy(f, sampled, cells, flo, fhi, mean=None):
            means[f] = mean
            return check(f, sampled, cells, flo, fhi, mean)

        monkeypatch.setattr(MorseFunction1D, "_check_cells", spy)
        fam = MorseCerfFamily(
            "1/2000000000000 + cos(theta) + eta*sin(2*theta)", eta_points=9, theta_points=self.N
        )
        for s in (0.0, 0.25, 1.0):
            assert means[_assert_slice_exact(fam, s)] is None  # the slice computes it
        sl = _assert_slice_exact(MorseCerfFamily(BD_FAMILY, theta_points=self.N), 0.25)
        assert means[sl] == _quantize(sl.periodic_mean())

    def test_family_not_polynomial_in_eta_keeps_the_exact_path(self):
        fam = MorseCerfFamily("cos(theta + eta) + 1/4*cos(2*theta)", eta_points=9,
                              theta_points=self.N)
        assert not fam._root.eta_free
        assert fam._root.expansion is None
        for s in (0.0, 0.3, 1.0):
            _assert_slice_exact(fam, s)
        assert fam.variation_contributions() == _reference_contributions(fam)


# -- one batched refinement for every grid slice ----------------------------------

SLOPE_FAMILY = "cos(theta) + eta*(1/4*sin(2*theta) + 1/5*cos(3*theta))"


def _forbidden(*args):
    raise AssertionError("called")


def _assert_grid_matches_per_slice(fam):
    """`detect_grid()` gives every grid slice, bit for bit, what a plain
    exact detection of the same f and f' gives, and a slice whose detection
    raises keeps that MorseError without a second scan.  Returns how many
    slices it detected."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MorseFunction1D, "_detect", _forbidden)  # no per-slice path
        fam.detect_grid()
        mp.setattr(MorseFunction1D, "_check_cells", _forbidden)  # no slice twice
        got = [_outcome(lambda: fam.detected_slice(s).critical_points()) for s in fam.grid]
    detected = 0
    for s, outcome in zip(fam.grid, got):
        sl = fam.function_at(s)
        assert isinstance(outcome, str) == (sl._crit is None)
        detected += sl._crit is not None
        assert outcome == _exact_outcome(sl)
    return detected


class TestGridDetection:
    @pytest.mark.parametrize("expr", [TWO_EVENT_FAMILY, BD_FAMILY, SLOPE_FAMILY],
                             ids=["two_event", "birth_death", "slope"])
    def test_batch_matches_per_slice_detection(self, expr):
        fam = MorseCerfFamily(expr, theta_points=4096)
        assert _assert_grid_matches_per_slice(fam) == len(fam.grid) == 257

    def test_reversed_sub_family(self):
        fam = sub_family(MorseCerfFamily(TWO_EVENT_FAMILY, eta_points=65, theta_points=4096),
                         0.9, 0.1)
        assert fam.reversed_orientation
        assert _assert_grid_matches_per_slice(fam) == 65

    @pytest.mark.parametrize("expr", ["cos(theta + eta) + 1/3*cos(2*theta)",
                                      "cos(theta + 2*eta) + 2/5*sin(2*theta - eta)"])
    def test_family_not_polynomial_in_eta(self, expr):
        fam = MorseCerfFamily(expr, eta_points=65, theta_points=4096)
        assert fam._root.expansion is None
        assert _assert_grid_matches_per_slice(fam) == 65

    @settings(max_examples=30)
    @given(seeds=st.tuples(st.integers(0, 2**32 - 1), st.integers(0, 2**32 - 1)))
    def test_linear_homotopies_of_random_trig_pairs(self, seeds):
        f, g = (hofer.random_trig_function(random.Random(seed))[0] for seed in seeds)
        fam = MorseCerfFamily(f"(1 - eta)*({f}) + eta*({g})", eta_points=17, theta_points=4096)
        _assert_grid_matches_per_slice(fam)

    def test_cubic_in_eta(self):
        # numpy's eta**3 on an array is 1 ulp off Python's here: a slice's
        # own f and f' take eta as an array, as the batch does
        fam = MorseCerfFamily("cos(theta) + eta**3*(-3/4*cos(theta))", eta_points=9,
                              theta_points=1024)
        assert _assert_grid_matches_per_slice(fam) == 9
        fam.detect([0.44428681350285426])
        _assert_slice_exact(fam, 0.44428681350285426)

    def test_degenerate_interior_slice_is_left_to_the_walker(self):
        fam = MorseCerfFamily("(1 - 2*eta)*cos(theta)", eta_points=33, theta_points=4096)
        assert _assert_grid_matches_per_slice(fam) == 32
        assert fam.function_at(0.5)._crit is None
        with pytest.raises(NonCerfError) as err:
            fam.diagram()
        assert str(err.value) == (
            "degenerate slice at eta=0.5: no critical points detected after normalization")

    def test_runs_once_per_family(self, monkeypatch):
        fam = MorseCerfFamily(BD_FAMILY, eta_points=9, theta_points=4096)
        fam.complex_at(3)
        assert all(fam.function_at(s)._crit is not None for s in fam.grid)
        monkeypatch.setattr(MorseFunction1D, "_check_cells", _forbidden)
        fam.detect_grid()
        fam.complex_at(4)  # no second scan


# -- the block certificates of the certified scan ------------------------------------


def _assert_every_slice_exact(fam):
    """Every slice the family created, on the grid or off it, was scanned
    as a plain exact detection of the same f and f' scans, bit for bit or
    with the same MorseError text.  Returns the off-grid slots."""
    for s in fam._slices:
        _assert_slice_exact(fam, s)
    return sorted(set(fam._slices) - set(map(float, fam.grid)))


def _assert_certificate_sound(fam, j, etas):
    """At each root eta of block j, the exact grid f' has the anchor's sign
    and clears the scan guard at every sample the block's slices never
    evaluate, and each fixed cell changes sign."""
    root = fam._root
    G, g_max = root.expansion[:2]
    cert = root.certificates[j]
    anchor = cerf._horner(G, (j + 0.5) / cerf._BLOCKS)
    left_out = np.setdiff1d(np.arange(fam.theta_points), cert.idx)
    thetas = np.arange(fam.theta_points) * (2 * math.pi / fam.theta_points)
    for eta in etas:
        exact = np.zeros_like(thetas) + root.fp_theta(thetas, eta)
        tol = cerf._scan_tol(g_max, eta)
        assert np.all(np.sign(exact[left_out]) == np.sign(anchor[left_out]))
        assert np.all(np.abs(exact[left_out]) > tol)
        assert np.all(exact[cert.fixed] * exact[(cert.fixed + 1) % fam.theta_points] < 0)


class TestCertifiedScan:
    @pytest.mark.parametrize("expr", [TWO_EVENT_FAMILY, BD_FAMILY, SLOPE_FAMILY],
                             ids=["two_event", "birth_death", "slope"])
    def test_every_slice_of_a_diagram_scans_exactly(self, expr):
        fam = MorseCerfFamily(expr, theta_points=4096)
        d = fam.diagram()
        classify_events(d)  # branch slopes read their slices too
        off_grid = _assert_every_slice_exact(fam)
        assert len(off_grid) >= 10
        # the blocks holding a cusp: walker bisection slices, all certified
        for c in d.cusps:
            j = math.floor(c.eta * cerf._BLOCKS)
            inside = [s for s in off_grid if j <= s * cerf._BLOCKS < j + 1]
            assert len(inside) >= 10
            cert = fam._root.certificates[j]
            assert 0 < cert.idx.size < fam.theta_points // 4
            _assert_certificate_sound(fam, j, [j / cerf._BLOCKS, c.eta, (j + 1) / cerf._BLOCKS]
                                      + inside[::4])

    def test_reversed_sub_family(self):
        fam = sub_family(MorseCerfFamily(TWO_EVENT_FAMILY, eta_points=65, theta_points=4096),
                         0.9, 0.1)
        classify_events(fam.diagram())
        assert _assert_every_slice_exact(fam)
        # the root's blocks, shared with the parent family
        assert set(fam._root.certificates) == set(range(1, 15))

    def test_degenerate_slice_and_its_block(self):
        fam = MorseCerfFamily("(1 - 2*eta)*cos(theta)", eta_points=33, theta_points=4096)
        near = [0.5 - 2**-30, 0.5, 0.5 + 2**-30, 0.49, 0.51, 0.4375, 0.5625]
        fam.detect(near)
        _assert_every_slice_exact(fam)
        assert fam.function_at(0.5)._crit is None
        # f' = (2 eta - 1) sin(theta) vanishes at the end of block 7 and the
        # start of block 8: no sample is certain there
        for j in (7, 8):
            assert fam._root.certificates[j].idx.size == fam.theta_points

    @pytest.mark.parametrize("d,certain", [("1/100000000000", True), ("1/1000000000000", False),
                                           ("0", False)])
    def test_tight_bound(self, d, certain):
        """f'(0, eta) = eta - 9/16 - d: on the block [1/2, 9/16], w * M = 1/32
        at theta = 0, and its anchor value at 17/32 clears that by d alone,
        about 6.8 scan guards for d = 1e-11 and 0.68 for d = 1e-12.  The
        sample is certain only with the three guards the bound asks for;
        at d = 0 f' vanishes there at the block's end."""
        expr = f"(eta - 9/16 - {d})*sin(theta) - 1/4*(sin(theta) - 1/2*sin(2*theta))"
        fam = MorseCerfFamily(expr, eta_points=17, theta_points=1024)
        slots = [0.5, 0.53125, 0.5625 - 2**-40, 0.5625]
        fam.detect(slots)
        _assert_every_slice_exact(fam)
        assert (0 not in fam._root.certificates[8].idx) == certain
        if certain:
            _assert_certificate_sound(fam, 8, slots + [0.5625 - 2**-50])


def _reference_contributions(fam):
    """Per-interval variation contributions, sampling dH/deta at every eta
    from its own lambdified form."""
    theta, eta = sp.Symbol("theta"), sp.Symbol("eta")
    d_eta = sp.lambdify((theta, eta), sp.diff(fam.expr, eta), "numpy")
    thetas = np.arange(fam.theta_points) * (2 * math.pi / fam.theta_points)

    def extrema(e):
        vals = np.zeros_like(thetas) + d_eta(thetas, e)
        vals = vals - vals.mean()
        return Fraction(float(vals.min())), Fraction(float(vals.max()))

    lo, hi = fam.span
    m = fam.eta_points - 1
    width = (Fraction(hi) - Fraction(lo)) / m
    out = []
    for i in range(m):
        e0 = lo + (hi - lo) * (i / m)
        e1 = lo + (hi - lo) * ((i + 1) / m)
        mins, maxs = zip(extrema(e0), extrema(0.5 * (e0 + e1)), extrema(e1))
        out.append(((-min(mins) + (max(mins) - min(mins))) * width,
                    (max(maxs) + (max(maxs) - min(maxs))) * width))
    if fam.reversed_orientation:
        out = [(pos, neg) for neg, pos in out[::-1]]
    return out


class TestVariationContributions:
    def _counted(self, fam):
        """Count grid evaluations of dH/deta through the family's root."""
        calls = []
        fp_eta = fam._root.fp_eta

        def counted(thetas, eta):
            if np.ndim(thetas):
                calls.append(eta)
            return fp_eta(thetas, eta)

        fam._root.fp_eta = counted
        return calls

    def test_eta_free_derivative_sampled_once_per_family(self):
        fam = MorseCerfFamily(TWO_EVENT_FAMILY, eta_points=33, theta_points=4096)
        assert fam._root.eta_free
        calls = self._counted(fam)
        got = fam.variation_contributions()
        slopes = [fam.eta_derivative_at(s, 1.0) for s in (0.0, 0.4, 1.0)]
        assert len(calls) == 1
        assert got == _reference_contributions(fam)
        assert len({float(x) for x in slopes}) == 1
        fwd, rev = sub_family(fam, 0.2, 0.7), sub_family(fam, 0.7, 0.2)
        assert fwd._root is fam._root
        assert rev.variation_contributions() == [
            (pos, neg) for neg, pos in fwd.variation_contributions()[::-1]
        ]
        assert sub_family(fam, 0.0, 1.0).variation_contributions() == got
        assert len(calls) == 4  # one per family: fam, fwd, rev and the full sub-family
        assert fwd.variation_contributions() == _reference_contributions(fwd)

    def test_eta_dependent_derivative_matches_reference(self):
        fam = MorseCerfFamily("cos(theta) + eta**2*sin(2*theta)", eta_points=17,
                              theta_points=2048)
        assert not fam._root.eta_free
        assert fam.variation_contributions() == _reference_contributions(fam)
        rev = sub_family(fam, 0.9, 0.1)
        assert rev.variation_contributions() == _reference_contributions(rev)


# -- the guard of the expansion's grid f' ------------------------------------------


def _misleading(d, tol, mode):
    """The grid f' d off by up to tol at every sample.

    "toward" moves every sample toward zero by tol, so samples closer to
    zero than tol change sign; "away" moves them away from zero, so
    samples barely off zero look far from it.  Exact zeros become +tol or
    -tol, alternately.
    """
    push = np.sign(d) if mode == "away" else -np.sign(d)
    approx = d + push * tol
    zeros = np.nonzero(d == 0.0)[0]
    approx[zeros] = tol * (1 - 2 * (np.arange(zeros.size) % 2))
    assert np.all(np.abs(approx - d) <= tol + np.spacing(np.abs(approx) + np.abs(d)))
    return approx


def _subnormal_product(N=4096):
    """f' = sin(theta) from a table, except that the sample at pi is the
    smallest subnormal and the next one -(1/2 + 2^-50): the kernel's
    product on that cell rounds to -5e-324, a crossing, and moving the
    next sample toward zero by any tol rounds it to -0.0 instead."""
    g = np.arange(N) * (2 * math.pi / N)
    d = np.sin(g)
    d[N // 2], d[N // 2 + 1] = 5e-324, -(0.5 + 2.0**-50)
    return MorseFunction1D(
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        lambda t: np.interp(np.asarray(t, dtype=float), g, d, period=2 * math.pi),
        N=N,
    )


def _underflow_pair(N=4096):
    """f' = sin(theta) from a table, except that the samples around pi are
    1e-165 and -1e-165: their product underflows to -0.0, so the exact scan
    sees no crossing there, while moving them away from zero by the
    smallest guard, _SCAN_FLOOR, takes them past it and makes a crossing."""
    g = np.arange(N) * (2 * math.pi / N)
    d = np.sin(g)
    d[N // 2], d[N // 2 + 1] = 1e-165, -1e-165
    return MorseFunction1D(
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        lambda t: np.interp(np.asarray(t, dtype=float), g, d, period=2 * math.pi),
        N=N,
    )


def _misleading_cases():
    h = 2 * math.pi / 4096
    margin = (2.0 / 4096) * h
    degenerate_on_grid = (
        "-5/8*cos(theta) + 3/8*sin(theta) + 3/4*cos(2*theta) + 5/8*sin(2*theta)"
        " - 5/8*cos(3*theta) + 3/8*sin(3*theta)"
    )
    # f' = sin(theta - h/2)^3: a degenerate zero inside a cell, whose
    # ends sit about 4.5e-10 off zero, far below the curvature margin
    cubic = MorseFunction1D(
        lambda t: np.zeros_like(np.asarray(t, dtype=float)),
        lambda t: np.sin(np.asarray(t, dtype=float) - h / 2) ** 3,
        N=4096,
    )
    rng = random.Random(5)
    makes = [
        lambda: _shifted_sine(_GRID_POINT),
        lambda: MorseFunction1D.closed_form("cos(theta)", N=4096),
        lambda: MorseFunction1D.closed_form(degenerate_on_grid, N=4096),
        lambda: cubic,
        _subnormal_product,
        _underflow_pair,
    ] + [
        (lambda e: lambda: MorseFunction1D.closed_form(e, N=4096))(_trig_text(rng))
        for _ in range(4)
    ]
    return [(make, tol) for make in makes
            for tol in (cerf._SCAN_FLOOR, 1e-14, margin / 2, 2 * margin, 1e-2)]


def _scan_outcome(scan):
    """A scan's result as bitwise-comparable lists (cell starts, f' there,
    falls, mean), or the MorseError text.  Detection bisects from these
    alone, so equal scans give equal critical points."""
    try:
        return [x.tolist() if isinstance(x, np.ndarray) else x for x in scan()]
    except MorseError as e:
        return str(e)


def _certified_outcome(f, certain, approx, tol):
    """The certified scan of f from approx, f' within tol on the samples
    that `certain` leaves to the slice; a certain sample's sign is taken
    from the exact f'."""
    exact = f._fp(f.grid())
    cert = cerf._Certificate([exact], certain, exact > 0.0)
    vals = approx[cert.idx]
    return _scan_outcome(lambda: f._check_cells(vals, *cert.cells(vals, tol, f._fp, f.N)))


@pytest.mark.parametrize("mode", ["toward", "away"])
def test_misleading_approximation_gives_the_exact_scan(mode):
    """Whatever the approximation within its tol, the certified scan (or
    its MorseError) is the exact one's, bit for bit: with no sample
    certain, and with every sample certain whose exact f' clears tol."""
    for make, tol in _misleading_cases():
        f = make()
        exact = f._fp(f.grid())
        approx = _misleading(exact, tol, mode)
        want = _scan_outcome(lambda: f._scan(exact))
        for certain in (np.zeros(f.N, dtype=bool), np.abs(exact) > tol):
            assert _certified_outcome(f, certain, approx, tol) == want
