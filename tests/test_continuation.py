import random
from fractions import Fraction

import pytest

from floermini.action import POS_INFINITY, ActionValue, NovikovScalar
from floermini.cerf import AbstractCerfFamily, MorseCerfFamily, concat, sub_family
from floermini.complexes import FilteredComplex, NovikovChain, Orbit
from floermini.continuation import (
    ChainHomotopy,
    ChainMap,
    classify_entries,
    continuation_map,
    dichotomy_constant,
    glue_maps,
    rho_curve,
    solve_chain_homotopy,
    step_maps,
    tightness_transfer_check,
    transfer_level_curve,
    variation_bounds,
)
from floermini.errors import ChainMapError, EventError
from floermini.spectral import rho

from _oracles import check_lipschitz

BD_FAMILY = "cos(theta) + eta*(3/5)*cos(2*theta + 1/2)"
TWO_EVENT_FAMILY = (
    "(1-eta)*cos(theta) + eta*(3/2*cos(2*theta - 7/10) - 3/10*cos(3*theta))"
)


def c3_complex(G):
    orbits = [Orbit("x", 3, 1), Orbit("y", 5, 1), Orbit("w", 6, 2)]
    boundary = {
        "w": {"y": NovikovScalar.one(G), "x": NovikovScalar.monomial(G, (), -1)}
    }
    return FilteredComplex(G, orbits, boundary)


def c3_identity_variant(X):
    """The identity of c3 plus dG + Gd for a homotopy G of shift 1/2."""
    G = X.group
    one = NovikovScalar.one(G)
    t = NovikovScalar.from_terms(G, {(): Fraction(1, 2)})
    return ChainMap(
        X, X,
        {("x", "x"): one - t, ("y", "x"): t, ("y", "y"): one, ("w", "w"): one - t},
    )


def c3_slide_family(trivial_group, coeff=1):
    """C3 family with one declared slide of x over y."""
    G = trivial_group
    X = c3_complex(G)
    c = Fraction(coeff)
    u = NovikovScalar.monomial(G, (), c)
    one = NovikovScalar.one(G)
    Xp = FilteredComplex(
        G,
        [Orbit("x", 3, 1), Orbit("y", 5, 1), Orbit("w", 6, 2)],
        {"w": {"y": one - u, "x": NovikovScalar.monomial(G, (), -1)}},
    )
    step = {"type": "slide", "slide_from": "x", "slide_over": "y",
            "cap": (), "coeff": c, "eta": 0.5, "value": 4.0}
    fam = AbstractCerfFamily(G, [X, Xp], [step], [(Fraction(3), Fraction(3))])
    return fam, X, Xp


class TestVariationBounds:
    def test_constant_family_zero(self):
        vb = variation_bounds(MorseCerfFamily("cos(theta)", eta_points=9))
        assert vb.e_minus == ActionValue(0)
        assert vb.e_plus == ActionValue(0)
        assert vb.e_minus + vb.e_plus == ActionValue(0)

    def test_linear_family_hofer_difference(self):
        # H(eta) = (1-eta) f + eta g: bounds are those of g - f exactly
        fam = MorseCerfFamily(
            "(1-eta)*cos(theta) + eta*(cos(theta) + 1/2*sin(2*theta))",
            eta_points=9,
        )
        vb = variation_bounds(fam)
        assert vb.e_minus == ActionValue(Fraction(1, 2))
        assert vb.e_plus == ActionValue(Fraction(1, 2))
        assert vb.e_minus + vb.e_plus == ActionValue(1)

    def test_concat_additivity_exact(self):
        fam = MorseCerfFamily(BD_FAMILY, eta_points=17)
        a = sub_family(fam, 0.0, 0.5)
        b = sub_family(fam, 0.5, 1.0)
        cc = concat(a, b)
        va, vb_, vc = variation_bounds(a), variation_bounds(b), variation_bounds(cc)
        assert vc.e_minus == va.e_minus + vb_.e_minus
        assert vc.e_plus == va.e_plus + vb_.e_plus

    def test_reversal_swaps_exactly(self):
        fam = MorseCerfFamily(BD_FAMILY, eta_points=17)
        f = variation_bounds(sub_family(fam, 0.2, 0.7))
        r = variation_bounds(sub_family(fam, 0.7, 0.2))
        assert f.e_minus == r.e_plus
        assert f.e_plus == r.e_minus
        assert f.e_minus + f.e_plus == r.e_minus + r.e_plus


class TestContinuationMap:
    def test_constant_family_identity(self):
        fam = MorseCerfFamily("cos(theta)", eta_points=9)
        h = continuation_map(fam)
        assert set(h.entries) == {("c0", "c0"), ("c1", "c1")}
        for u in h.entries.values():
            assert u == NovikovScalar.one(h.source.group)

    def test_declared_slide_transvection(self, trivial_group):
        fam, X, Xp = c3_slide_family(trivial_group)
        h = continuation_map(fam)
        x = NovikovChain.unit(trivial_group, "x")
        y = NovikovChain.unit(trivial_group, "y")
        assert h.apply(x) == x + y
        assert h.apply(y) == y
        h.verify()
        assert h.provenance[("y", "x")] == "slide"

    def test_reversed_slide_inverts_the_transvection(self, trivial_group):
        fam, X, Xp = c3_slide_family(trivial_group)
        back = step_maps(fam, reverse=True)[0].compose_after(step_maps(fam)[0])
        assert back.entries == ChainMap.identity(X).entries
        (st,) = sub_family(fam, 1, 0).steps
        assert st["type"] == "slide" and st["invert"] is True

    def test_birth_death_endpoint_homology(self):
        fam = MorseCerfFamily(BD_FAMILY, eta_points=33)
        h = continuation_map(fam)
        h.verify()
        # old basis maps injectively: two nonzero columns
        cols = {s for (_, s) in h.entries}
        assert cols == {"c0", "c1"}
        ranks0 = sorted(c.degree for c in h.source.homology_basis())
        ranks1 = sorted(c.degree for c in h.target.homology_basis())
        assert ranks0 == ranks1 == [0, 1]

    def test_level_bound_on_random_chains(self):
        fam = MorseCerfFamily(BD_FAMILY, eta_points=33)
        h = continuation_map(fam)
        e_minus = variation_bounds(fam).e_minus
        rng = random.Random(11)
        G = h.source.group
        by_degree = {}
        for o in h.source.orbits:
            by_degree.setdefault(o.index, []).append(o.id)
        degrees = sorted(by_degree)
        for _ in range(1000):
            ids = by_degree[rng.choice(degrees)]
            coeffs = {}
            for oid in rng.sample(ids, rng.randint(1, len(ids))):
                c = rng.randint(-5, 5)
                if c:
                    coeffs[oid] = NovikovScalar.from_terms(G, {(): c})
            chain = NovikovChain(G, coeffs)
            if chain.is_zero():
                continue
            out = h.apply(chain)
            if out.is_zero():
                continue
            assert h.target.level(out) <= h.source.level(chain) + e_minus


def declared_birth_death_family(G):
    """[a] -> [a, p, m] with dp = m -> [a]: a declared birth, then a death."""
    A = FilteredComplex(G, [Orbit("a", 0, 0)], {})
    B = FilteredComplex(
        G, [Orbit("a", 0, 0), Orbit("p", 2, 1), Orbit("m", 1, 0)],
        {"p": {"m": NovikovScalar.one(G)}},
    )
    steps = [{"type": "birth", "plus": "p", "minus": "m", "eta": 0.25},
             {"type": "death", "plus": "p", "minus": "m", "eta": 0.75}]
    return AbstractCerfFamily(G, [A, B, A], steps)


class TestDeclaredBirthDeath:
    def test_steps_read_through_the_family(self, trivial_group):
        fam = declared_birth_death_family(trivial_group)
        assert fam.step(0) == {"type": "birth", "plus": "p", "minus": "m", "eta": 0.25,
                               "table": {"a": "a"}}
        assert fam.step(1) == {"type": "death", "plus": "p", "minus": "m", "eta": 0.75,
                               "table": {"a": "a"}}
        assert fam.step(1, reverse=True)["type"] == "birth"
        assert fam.step(0, reverse=True) == {"type": "death", "plus": "p", "minus": "m",
                                             "eta": 0.25, "table": {"a": "a"}}
        assert fam.cusp_pairs(1) == {("p", "m")}

    def test_maps_verify_and_compose_to_the_identity(self, trivial_group):
        G = trivial_group
        fam = declared_birth_death_family(G)
        for reverse in (False, True):
            maps = step_maps(fam, reverse)
            assert len(maps) == 2
            for h in maps:
                h.verify()
        h = continuation_map(fam)
        a = NovikovChain.unit(G, "a")
        assert h.entries == {("a", "a"): NovikovScalar.one(G)}
        assert h.apply(a) == a
        # the only connection, p -> m, is the cusp pair's: nothing is left
        assert dichotomy_constant(fam) == POS_INFINITY

    @pytest.mark.parametrize("expr", [
        None, BD_FAMILY, "cos(theta) + sin(3*eta)*(3/5)*cos(2*theta + 1/2)",
    ])
    def test_reverse_maps_are_those_of_the_reversed_family(self, trivial_group, expr):
        if expr is None:
            fam = declared_birth_death_family(trivial_group)
        else:
            fam = MorseCerfFamily(expr, eta_points=65, theta_points=4096)
            assert fam.diagram().cusps
        back = step_maps(sub_family(fam, 1.0, 0.0))
        assert [h.to_json() for h in step_maps(fam, reverse=True)] == \
            [h.to_json() for h in back]


class TestGlue:
    def test_identity_composition(self):
        fam = MorseCerfFamily("cos(theta)", eta_points=9)
        a = sub_family(fam, 0.0, 0.5)
        b = sub_family(fam, 0.5, 1.0)
        h1, h2 = continuation_map(a), continuation_map(b)
        composed, direct, H = glue_maps(h1, h2, a, b)
        assert H.is_zero()
        assert composed.entries == direct.entries

    def test_event_free_composition_exact(self, trivial_group):
        fam, X, Xp = c3_slide_family(trivial_group)
        h = continuation_map(fam)
        # split the same declared family in two around the slide
        G = trivial_group
        one_step_a = AbstractCerfFamily(G, [X, X], [{"type": "pairing"}],
                                        [(Fraction(0), Fraction(0))])
        one_step_b = fam
        ha, hb = continuation_map(one_step_a), continuation_map(one_step_b)
        composed, direct, H = glue_maps(ha, hb, one_step_a, one_step_b)
        assert H.is_zero()
        assert composed.entries == direct.entries

    def test_partition_variants_homotopy_bound(self, trivial_group):
        # a hand-built variant of the identity, differing by dG + Gd,
        # recovered by the solver with the total-variation bound
        G = trivial_group
        X = c3_complex(G)
        ident = ChainMap.identity(X)
        variant = c3_identity_variant(X)
        variant.verify()
        H = solve_chain_homotopy(variant, ident)
        assert not H.is_zero()
        H.verify_identity(variant, ident)
        # bound: level(H alpha) <= level(alpha) + E for cycles, E = 3 declared
        e_total = ActionValue(3)
        x = NovikovChain.unit(G, "x")
        assert X.level(H.apply(x)) <= X.level(x) + e_total

    def test_junction_mismatch(self, trivial_group):
        fam, X, Xp = c3_slide_family(trivial_group)
        h = continuation_map(fam)
        with pytest.raises(Exception):
            glue_maps(h, h, fam, fam)


class TestGuards:
    def test_chain_map_with_a_dropped_entry_is_refused(self, trivial_group):
        X = c3_complex(trivial_group)
        entries = dict(ChainMap.identity(X).entries)
        del entries[("y", "y")]  # d w = y - x now maps to -x, f w = w to y - x
        with pytest.raises(ChainMapError, match="chain-map identity fails at w"):
            ChainMap(X, X, entries).verify()

    def test_zero_homotopy_between_distinct_maps_is_refused(self, trivial_group):
        X = c3_complex(trivial_group)
        with pytest.raises(ChainMapError, match="homotopy identity fails"):
            ChainHomotopy(X, X, {}).verify_identity(c3_identity_variant(X),
                                                   ChainMap.identity(X))

    def test_composite_provenance_is_independent_of_path_order(self, trivial_group):
        # (a, a) of second o first is reached by a <- a <- a (pairing only)
        # and by a <- b <- a (through a slide): it is a slide either way
        G = trivial_group
        X = FilteredComplex(G, [Orbit("a", 0, 0), Orbit("b", 1, 0)], {})
        one = NovikovScalar.one(G)
        first = ChainMap(X, X, {("a", "a"): one, ("b", "a"): one},
                         {("a", "a"): "pairing", ("b", "a"): "slide"})
        keys = [("a", "a"), ("a", "b")]
        composites = []
        for order in (keys, keys[::-1]):
            second = ChainMap(X, X, {k: one for k in order}, {k: "pairing" for k in order})
            composites.append(second.compose_after(first))
        for h in composites:
            assert h.entries == {("a", "a"): one + one}
            assert h.provenance[("a", "a")] == "slide"
        assert composites[0].to_json() == composites[1].to_json()


class TestDichotomy:
    def test_identity_entries_thin(self):
        fam = MorseCerfFamily("cos(theta)", eta_points=9)
        h = continuation_map(fam)
        cls = classify_entries(h, ActionValue(2), ActionValue(Fraction(1, 100)))
        assert cls.ok
        assert len(cls.thin) == 2 and not cls.slides

    def test_slide_with_gap_shift(self, trivial_group):
        fam, X, Xp = c3_slide_family(trivial_group)
        h = continuation_map(fam)
        a0 = dichotomy_constant(fam)
        cls = classify_entries(h, a0, ActionValue(Fraction(1, 100)))
        assert cls.ok
        assert any(key == ("y", "x") for key, _ in cls.slides)

    def test_adversarial_mid_band_flagged(self, trivial_group):
        G = trivial_group
        X = c3_complex(G)
        # artificial map with an entry shifting by half the gap
        bad = ChainMap(
            X, X,
            {
                ("x", "x"): NovikovScalar.one(G),
                ("y", "y"): NovikovScalar.one(G),
                ("w", "w"): NovikovScalar.one(G),
                ("y", "x"): NovikovScalar.from_terms(G, {(): 1}),
            },
            {("y", "x"): "slide"},
        )
        a0 = ActionValue(4)
        eps = ActionValue(Fraction(1, 2))
        cls = classify_entries(bad, a0, eps)
        assert not cls.ok
        assert any("forbidden" in v[2] for v in cls.violations)

    def test_per_step_corpus_no_violations(self):
        fam = MorseCerfFamily(TWO_EVENT_FAMILY, eta_points=65)
        a0 = dichotomy_constant(fam)
        vb = variation_bounds(fam)
        eps = max(ActionValue.rational(a + b) for a, b in vb.contributions)
        assert a0 > eps + eps
        for h in step_maps(fam):
            assert classify_entries(h, a0, eps).ok


class TestTransfer:
    def test_constant_family_constant_mu(self):
        fam = MorseCerfFamily("cos(theta)", eta_points=17)
        X0 = fam.complex_at(0)
        curve = transfer_level_curve(X0.class_chain("point"), fam, 0)
        assert all(v == curve.values[0] for v in curve.values)
        ok, _ = check_lipschitz(curve)
        assert ok

    def test_slope_family_mu_matches_branch(self):
        fam = MorseCerfFamily("cos(theta) + eta*(1/4*sin(2*theta))", eta_points=65)
        X0 = fam.complex_at(0)
        curve = transfer_level_curve(X0.class_chain("point"), fam, 0)
        ok, info = check_lipschitz(curve)
        assert ok, info
        d = fam.diagram()
        # mu follows the tracked global maximum branch; compare FD to slope
        from floermini.cerf import branch_slope

        h = 1.0 / 64
        for k in range(5, 60, 13):
            fd = (float(curve.values[k + 1]) - float(curve.values[k - 1])) / (2 * h)
            orbit = curve.peaks[k][0][0]
            bid = next(b for b, o in d.tracks[k].items() if o == orbit)
            sl = branch_slope(d, bid, curve.etas[k])
            assert abs(fd - sl) < 10 * h * h

    def test_mu_lipschitz_across_birth(self):
        fam = MorseCerfFamily(BD_FAMILY, eta_points=33)
        X0 = fam.complex_at(0)
        curve = transfer_level_curve(X0.class_chain("fundamental"), fam, 0)
        ok, info = check_lipschitz(curve)
        assert ok, info

    def test_tightness_transfer_constant(self):
        fam = MorseCerfFamily("cos(theta)", eta_points=9)
        rep = tightness_transfer_check(fam, fam.complex_at(0).class_chain("point"), 0)
        assert rep.ok
        assert not rep.split

    def test_tightness_across_birth_death(self):
        fam = MorseCerfFamily(BD_FAMILY, eta_points=33)
        rep = tightness_transfer_check(
            fam, fam.complex_at(0).class_chain("point"), 0
        )
        assert rep.ok
        # the transferred tight cycle's peaks avoid the bifurcating pair
        d = fam.diagram()
        cusp = d.cusps[0]
        maps = step_maps(fam)
        cur = rep.alpha_plus
        for i, h in enumerate(maps):
            cur = h.apply(cur)
            track = d.tracks[i + 1]
            pair = {track[b] for b in cusp.branches if b in track}
            X = fam.complex_at(i + 1).complex
            assert all(oid not in pair for oid, _ in X.peaks(cur))

    def test_reverse_step_maps_build_only_reverse_maps(self, monkeypatch):
        fam = MorseCerfFamily(BD_FAMILY, eta_points=65, theta_points=4096)
        fam.diagram()
        verified = []
        real = ChainMap.verify

        def counting(h):
            verified.append(h)
            return real(h)

        monkeypatch.setattr(ChainMap, "verify", counting)
        maps = step_maps(fam, reverse=True)
        assert len(maps) == 64
        # the one event step is verified by scalar arithmetic; a pairing
        # step is a chain map because its table carries one boundary onto
        # the other, and it passes the scalar check too
        events = [h for h, i in zip(maps, range(63, -1, -1))
                  if fam.step(i, reverse=True)["type"] != "pairing"]
        assert len(events) == 1
        assert verified == events
        assert all(real(h) for h in maps)
        assert maps[0].source is fam.complex_at(64).complex
        assert maps[-1].target is fam.complex_at(0).complex

    def test_mu_curve_csv_rows(self):
        fam = MorseCerfFamily("cos(theta)", eta_points=5)
        curve = transfer_level_curve(fam.complex_at(0).class_chain("point"), fam, 0)
        rows = [
            (f"{eta:.12g}", f"{float(value):.12g}", peaks[0][0] if peaks else "")
            for eta, value, peaks in zip(curve.etas, curve.values, curve.peaks)
        ]
        assert len(rows) == 5
        assert rows[0][2] == "c0"

    def test_crossing_splits_tight_cycles(self, trivial_group):
        # abstract family: two same-index orbits whose levels cross
        G = trivial_group
        levels = [(-1, 1), (0, 0), (1, -1)]
        comps = []
        for la, lb in levels:
            comps.append(
                FilteredComplex(
                    G,
                    [
                        Orbit("a", la, 0),
                        Orbit("b", lb, 0),
                        Orbit("t", 5, 1),
                    ],
                    {"t": {"a": NovikovScalar.one(G),
                           "b": NovikovScalar.monomial(G, (), -1)}},
                )
            )
        fam = AbstractCerfFamily(
            G, comps,
            [{"type": "pairing"}, {"type": "pairing"}],
            [(Fraction(1), Fraction(1))] * 2,
        )
        rep = tightness_transfer_check(fam, "h0_0", 1)
        assert rep.ok
        assert rep.split  # one-sided tight cycles differ across the crossing

    def test_birth_then_death_family(self):
        # the oscillation amplitude rises and falls: one birth, one death
        fam = MorseCerfFamily(
            "cos(theta) + sin(3*eta)*(3/5)*cos(2*theta + 1/2)", eta_points=65
        )
        d = fam.diagram()
        kinds = sorted(c.kind for c in d.cusps)
        assert kinds == ["birth", "death"]
        assert d.cusps[0].eta < d.cusps[1].eta
        h = continuation_map(fam)
        h.verify()
        cols = {s for (_, s) in h.entries}
        assert cols == {"c0", "c1"}
        X0 = fam.complex_at(0)
        curve = transfer_level_curve(X0.class_chain("point"), fam, 0)
        ok, info = check_lipschitz(curve)
        assert ok, info

    def test_rho_curve_continuous_across_events(self):
        fam = MorseCerfFamily(TWO_EVENT_FAMILY, eta_points=129)
        curve = rho_curve(fam, "point")
        vals = [float(r.value) for _, r in curve]
        jumps = [abs(b - a) for a, b in zip(vals, vals[1:])]
        assert max(jumps) < 0.1  # continuous at grid scale


def _halves(kind, G):
    if kind == "morse":
        fam = MorseCerfFamily(BD_FAMILY, eta_points=33, theta_points=4096)
        return sub_family(fam, 0.0, 0.5), sub_family(fam, 0.5, 1.0), "point"
    fam = declared_birth_death_family(G)
    return sub_family(fam, 0.0, 0.5), sub_family(fam, 0.5, 1.0), "h0_0"


class TestConcatContract:
    """A concatenation is read through the same contract as its parts."""

    @pytest.mark.parametrize("kind", ["morse", "declared"])
    def test_rho_curve_is_the_halves_joined(self, trivial_group, kind):
        a, b, cls = _halves(kind, trivial_group)
        cc = concat(a, b)
        assert list(cc.grid) == [0.5 * e for e in a.grid] + [0.5 + 0.5 * e for e in b.grid[1:]]
        got = [(r.value, r.witness) for _, r in rho_curve(cc, cls)]
        ra = [(r.value, r.witness) for _, r in rho_curve(a, cls)]
        rb = [(r.value, r.witness) for _, r in rho_curve(b, cls)]
        assert got == ra + rb[1:]
        assert dichotomy_constant(cc) == min(dichotomy_constant(a), dichotomy_constant(b))

    @pytest.mark.parametrize("kind", ["morse", "declared"])
    def test_transfer_is_the_halves_chained(self, trivial_group, kind):
        a, b, cls = _halves(kind, trivial_group)
        cc = concat(a, b)
        alpha = rho(a.chain_complex(0), a.class_at(0, cls)).tight_cycle
        curve = transfer_level_curve(alpha, cc, 0)
        ca = transfer_level_curve(alpha, a, 0)
        cb = transfer_level_curve(continuation_map(a).apply(alpha), b, 0)
        assert curve.values == ca.values + cb.values[1:]
        assert curve.peaks == ca.peaks + cb.peaks[1:]
        assert check_lipschitz(curve)[0]
        for start in (0, len(a.grid) - 1, len(cc.grid) - 1):
            assert tightness_transfer_check(cc, cc.class_at(start, cls), start).ok

    def test_nested_concat_is_associative(self):
        fam = MorseCerfFamily(BD_FAMILY, eta_points=17, theta_points=4096)
        a, b, c = (sub_family(fam, s, t) for s, t in ((0.0, 0.3), (0.3, 0.6), (0.6, 1.0)))
        left, right = concat(concat(a, b), c), concat(a, concat(b, c))
        assert len(left.grid) == len(right.grid) == 3 * 16 + 1
        for reverse in (False, True):
            assert [h.to_json() for h in step_maps(left, reverse)] == \
                [h.to_json() for h in step_maps(right, reverse)]
        assert dichotomy_constant(left) == dichotomy_constant(right)
        assert variation_bounds(left).contributions == variation_bounds(right).contributions

    def test_morse_and_declared_junction_mismatch(self, trivial_group):
        morse = MorseCerfFamily("cos(theta)", eta_points=5)
        declared = declared_birth_death_family(trivial_group)
        for fam1, fam2 in ((morse, declared), (declared, morse)):
            with pytest.raises(EventError):
                concat(fam1, fam2)
