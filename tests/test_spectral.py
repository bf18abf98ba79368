import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from floermini.action import ActionValue, NEG_INFINITY, NovikovScalar, make_period_group
from floermini.complexes import FilteredComplex, NovikovChain, Orbit
from floermini import complexes, continuation, reduction, spectral
from floermini.errors import ComplexStructureError, NotABoundaryError, ZeroClassError
from floermini.spectral import (
    boundary_overhead_constant,
    bounded_boundary_solve,
    check_spectrality,
    peak_avoidance_check,
    rho,
)

import _oracles
from _random_complexes import random_complex


def sqrt2(scale=1):
    return ActionValue.sqrt(2, scale)


class TestRho:
    def test_single_orbit(self, trivial_group):
        G = trivial_group
        X = FilteredComplex(G, [Orbit("x", 2, 0)], {})
        res = rho(X, X.homology_basis()[0])
        assert res.value == ActionValue(2)
        assert res.tight_cycle == NovikovChain.unit(G, "x")
        assert res.witness == ("x", ())

    def test_c3_class_x(self, c3, trivial_group):
        res = rho(c3, NovikovChain.unit(trivial_group, "x"))
        assert res.value == ActionValue(3)
        assert res.tight_cycle == NovikovChain.unit(trivial_group, "x")

    def test_c3_class_y_reduces_to_x(self, c3, trivial_group):
        # y = x + dw, so the class of y tightens to level 3
        res = rho(c3, NovikovChain.unit(trivial_group, "y"))
        assert res.value == ActionValue(3)

    def test_irrational_instance(self, c_gamma):
        X, G = c_gamma
        res = rho(X, NovikovChain.unit(G, "x1"))
        assert res.value == ActionValue(Fraction(3, 10)) - sqrt2()
        assert res.tight_cycle == NovikovChain.unit(G, "x2", (1,))
        assert res.witness == ("x2", (1,))

    def test_zero_class_errors(self, c3, trivial_group):
        with pytest.raises(ZeroClassError):
            rho(c3, NovikovChain(trivial_group))
        with pytest.raises(ZeroClassError):
            rho(c3, c3.boundary_of(NovikovChain.unit(trivial_group, "w")))

    def test_projective_invariance(self, c_gamma):
        X, G = c_gamma
        base = NovikovChain.unit(G, "x1")
        r0 = rho(X, base)
        for lam in (2, Fraction(-7, 3), Fraction(1, 10)):
            assert rho(X, base.scaled(lam)).value == r0.value

    def test_matches_bruteforce_oracle(self, c_gamma, c3, trivial_group):
        X, G = c_gamma
        got = rho(X, NovikovChain.unit(G, "x1")).value
        want = _oracles.brute_force_rho(X, NovikovChain.unit(G, "x1"))
        assert got == want
        got = rho(c3, NovikovChain.unit(trivial_group, "x")).value
        assert got == _oracles.brute_force_rho(c3, NovikovChain.unit(trivial_group, "x"))


class TestSpectrality:
    def test_c3(self, c3, trivial_group):
        cert = check_spectrality(c3, NovikovChain.unit(trivial_group, "x"))
        assert cert.ok
        assert cert.value == ActionValue(3)

    def test_irrational(self, c_gamma):
        X, G = c_gamma
        cert = check_spectrality(X, NovikovChain.unit(G, "x1"))
        assert cert.ok
        assert cert.spectrum_witness == ("x2", (1,))

    def test_zero_boundary(self, trivial_group):
        G = trivial_group
        X = FilteredComplex(G, [Orbit("p", Fraction(7, 2), 0)], {})
        cert = check_spectrality(X, NovikovChain.unit(G, "p"))
        assert cert.ok and cert.value == ActionValue(Fraction(7, 2))


class TestBoundedSolve:
    def test_zero_chain(self, c3, trivial_group):
        beta, c = bounded_boundary_solve(c3, NovikovChain(trivial_group))
        assert beta.is_zero()
        assert c == NEG_INFINITY

    def test_c3_unique_preimage(self, c3, trivial_group):
        gamma = NovikovChain.unit(trivial_group, "y") - NovikovChain.unit(
            trivial_group, "x"
        )
        beta, c = bounded_boundary_solve(c3, gamma)
        assert beta == NovikovChain.unit(trivial_group, "w")
        assert c == ActionValue(1)

    def test_two_rung_preimages(self, trivial_group):
        # two preimages at levels 6 and 8 for one boundary at level 5
        G = trivial_group
        orbits = [
            Orbit("a", 5, 0),
            Orbit("b", Fraction(9, 2), 0),
            Orbit("u", 6, 1),
            Orbit("v", 8, 1),
        ]
        boundary = {
            "u": {"a": NovikovScalar.one(G)},
            "v": {"a": NovikovScalar.one(G), "b": NovikovScalar.one(G)},
        }
        X = FilteredComplex(G, orbits, boundary)
        gamma = NovikovChain.unit(G, "a")
        beta, c = bounded_boundary_solve(X, gamma)
        assert X.level(beta) == ActionValue(6)
        assert c == ActionValue(1)
        # brute check: the affine space is u + t(v - u); level 6 is minimal
        assert _oracles.brute_force_min_preimage_level(X, gamma) == ActionValue(6)

    def test_not_a_boundary(self, c3, trivial_group):
        with pytest.raises(NotABoundaryError):
            bounded_boundary_solve(c3, NovikovChain.unit(trivial_group, "x"))

    def test_overhead_constant_bounds_solves(self, c3, trivial_group):
        const = boundary_overhead_constant(c3)
        gamma = NovikovChain.unit(trivial_group, "y") - NovikovChain.unit(
            trivial_group, "x"
        )
        beta, c = bounded_boundary_solve(c3, gamma)
        assert c <= const
        # re-solve is idempotent
        beta2, c2 = bounded_boundary_solve(c3, gamma)
        assert beta2 == beta and c2 == c


class TestPeakAvoidance:
    def test_no_marked_orbits_vacuous(self, c3, trivial_group):
        ok, cycle = peak_avoidance_check(c3, NovikovChain.unit(trivial_group, "x"), [])
        assert ok

    def test_peak_elsewhere_unchanged(self, trivial_group):
        # dz+ = z- + b; the tight class peaks at unrelated orbit p
        G = trivial_group
        orbits = [
            Orbit("p", 4, 0),
            Orbit("b", 0, 0),
            Orbit("zminus", 1, 0),
            Orbit("zplus", 2, 1),
        ]
        boundary = {
            "zplus": {"zminus": NovikovScalar.one(G), "b": NovikovScalar.one(G)}
        }
        X = FilteredComplex(G, orbits, boundary)
        cls = NovikovChain.unit(G, "p")
        ok, cycle = peak_avoidance_check(X, cls, ["zplus", "zminus"])
        assert ok
        assert cycle == rho(X, cls).tight_cycle

    def test_cancel_z_minus_peak(self, trivial_group):
        # engineered so the minimal cycle peaks at z-: adding the normal-form
        # boundary moves the peak off the pair at equal level
        G = trivial_group
        orbits = [
            Orbit("zminus", 1, 0),
            Orbit("p", 1, 0),
            Orbit("q", Fraction(1, 2), 0),
            Orbit("zplus", 2, 1),
        ]
        boundary = {
            "zplus": {
                "zminus": NovikovScalar.one(G),
                "q": NovikovScalar.one(G),
            }
        }
        X = FilteredComplex(G, orbits, boundary)
        cls = NovikovChain.unit(G, "zminus") + NovikovChain.unit(G, "p")
        ok, cycle = peak_avoidance_check(X, cls, ["zplus", "zminus"])
        assert ok
        assert X.level(cycle) == ActionValue(1)
        peaks = dict(X.peaks(cycle))
        assert "zminus" not in peaks and "zplus" not in peaks
        assert "p" in peaks


def _adjusted_case(G):
    """dz+ = z- + p at equal levels: the tight cycle z- peaks at z-, and
    the equal-level correction moves it to -p."""
    orbits = [Orbit("zminus", 1, 0), Orbit("p", 1, 0), Orbit("zplus", 2, 1)]
    boundary = {
        "zplus": {"zminus": NovikovScalar.one(G), "p": NovikovScalar.one(G)}
    }
    X = FilteredComplex(G, orbits, boundary)
    cls = NovikovChain.unit(G, "zminus")
    assert rho(X, cls).tight_cycle == cls
    return X, cls


class TestPeakAvoidanceErrors:
    def test_adjusted_case_is_adjusted(self, trivial_group):
        X, cls = _adjusted_case(trivial_group)
        assert peak_avoidance_check(X, cls, ["zplus", "zminus"]) == (
            True, NovikovChain.unit(trivial_group, "p", coeff=-1)
        )

    def test_level_mismatch_raises_typed_error(self, trivial_group, monkeypatch):
        X, cls = _adjusted_case(trivial_group)
        real_rho = spectral.rho

        def rho_then_shift_levels(X, cls):
            res = real_rho(X, cls)
            monkeypatch.setattr(
                FilteredComplex, "level", lambda self, ch, degree=None: res.value + 1
            )
            return res

        monkeypatch.setattr(spectral, "rho", rho_then_shift_levels)
        with pytest.raises(ComplexStructureError, match=r"level 2, not at rho = 1"):
            peak_avoidance_check(X, cls, ["zplus", "zminus"])

    def test_marked_peak_raises_typed_error(self, trivial_group, monkeypatch):
        X, cls = _adjusted_case(trivial_group)
        # an empty solution applies no correction: the cycle still peaks at z-
        monkeypatch.setattr(reduction.Decomposition, "some_preimage", lambda self, target: {})
        with pytest.raises(ComplexStructureError, match=r"marked orbits \['zminus'\]"):
            peak_avoidance_check(X, cls, ["zplus", "zminus"])


def _tied_complex(rng, group):
    """Degree-0 orbits at levels 0, 1, 2 and degree-1 orbits at 3 and 4:
    levels tie, so the top slice of a class holds several orbits and
    boundaries reach it at equal level."""
    low = [Orbit(f"a{i}", rng.choice([0, 1, 2]), 0) for i in range(rng.randint(2, 5))]
    high = [Orbit(f"b{i}", rng.choice([3, 4]), 1) for i in range(rng.randint(1, 4))]
    caps = [(0,), (1,)] if group.rank else [()]

    def chain(orbits):
        return {o.id: NovikovScalar.monomial(group, rng.choice(caps), rng.choice([-2, -1, 1, 2]))
                for o in rng.sample(orbits, rng.randint(1, len(orbits)))}

    X = FilteredComplex(group, low + high, {o.id: chain(low) for o in high})
    return X, NovikovChain(group, chain(low))


def _reference_avoidance(X, res, marked):
    """The verdict of peak avoidance by Gauss-Jordan over Q: can the
    equal-level corrections clear the marked coordinates of the top slice?"""
    deg = X.degree_of(res.tight_cycle)
    coords = spectral._slice_coordinates(X, deg, res.value)
    marked_coords = [c for c in coords if c[0] in marked]
    target = spectral._slice_vector(X, res.tight_cycle.coeffs, coords)
    if not any(target.get(mc) for mc in marked_coords):
        return True
    columns = [
        [spectral._slice_vector(X, c, coords).get(mc, Fraction(0)) for mc in marked_coords]
        for c in spectral.equal_level_corrections(X, deg, res.value)
    ]
    rhs = [target.get(mc, Fraction(0)) for mc in marked_coords]
    return _oracles.solve_rational(columns, rhs) is not None


@settings(max_examples=150)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(["trivial", "int"]))
def test_peak_avoidance_matches_gauss_jordan(seed, kind):
    rng = random.Random(seed)
    X, cls = _tied_complex(rng, make_period_group(*{"trivial": ([], []), "int": ([1], [0])}[kind]))
    try:
        res = rho(X, cls)
    except ZeroClassError:
        return
    ids = [o.id for o in X.orbits]
    marked = rng.sample(ids, rng.randint(1, 2))
    if rng.random() < 0.8:  # mostly the peak's orbit, so the solve runs
        marked[0] = res.witness[0]
    ok, cycle = peak_avoidance_check(X, cls, marked)
    assert ok == _reference_avoidance(X, res, marked)
    if not ok:
        assert cycle == res.tight_cycle
        return
    beta, _ = bounded_boundary_solve(X, cycle - cls)
    assert X.boundary_of(beta) == cycle - cls
    assert X.level(cycle) == res.value
    assert not {oid for oid, _ in X.peaks(cycle)} & set(marked)


GROUP_KINDS = {
    "trivial": lambda: make_period_group([], []),
    "int": lambda: make_period_group([1], [0]),
    "sqrt": lambda: make_period_group([sqrt2(3)], [0]),
    "dense": lambda: make_period_group([ActionValue(1), sqrt2()], [0, 0]),
}


@settings(max_examples=40)
@given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(sorted(GROUP_KINDS)))
def test_each_class_representative_is_its_tight_cycle(seed, kind):
    # the kernel basis past the boundary basis is already reduced against
    # it, so each representative sits at its class's rho level
    X, _ = random_complex(random.Random(seed), group=GROUP_KINDS[kind]())
    for c in X.homology_basis():
        assert rho(X, c).tight_cycle == c.representative


class TestOneDecompositionPerBoundaryMap:
    @settings(max_examples=40)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_overhead_constant_is_the_boundary_depth(self, seed):
        # over the trivial group the finite-chain oracle is exact
        X, _ = random_complex(random.Random(seed), group=make_period_group([], []))
        const = boundary_overhead_constant(X)
        depth, attained = NEG_INFINITY, None
        for k in X.degrees():
            for r in X.boundary_basis(k):
                gamma = NovikovChain(X.group, r.vec)
                gap = _oracles.brute_force_min_preimage_level(X, gamma) - X.level(gamma)
                if gap > depth:
                    depth, attained = gap, gamma
        assert const == depth
        if attained is not None:
            _, overhead = bounded_boundary_solve(X, attained)
            assert overhead == const

    def test_each_kernel_basis_is_built_once(self, dense_group, monkeypatch):
        rng = random.Random(11)
        X, _ = random_complex(rng, group=dense_group)
        calls = []
        real = reduction.orthogonalize

        def spy(columns, weight, *args, **kwargs):
            calls.append(1)
            return real(columns, weight, *args, **kwargs)

        for mod in (reduction, complexes, spectral, continuation):
            if hasattr(mod, "orthogonalize"):
                monkeypatch.setattr(mod, "orthogonalize", spy)

        degrees = X.degrees()
        classes = X.homology_basis()
        for c in classes:
            rho(X, c)
        # the image of d out of each degree k and k + 1, and one kernel basis
        # per degree whose tail past the boundary basis is the class basis
        maps = {d for k in degrees for d in (k, k + 1)}
        assert len(calls) == len(maps) + len(degrees)
        assert classes and X.boundary_basis(0) and X.boundary_basis(1)

        # the constant and the solves reduce against the kernel bases that
        # the class basis was read off
        before = len(calls)
        boundary_overhead_constant(X)
        for k in (0, 1, 0):
            src = X.orbit_ids(k + 1)
            chain = NovikovChain(X.group, {o: NovikovScalar.one(X.group) for o in src})
            gamma = X.boundary_of(chain)
            beta, _ = bounded_boundary_solve(X, gamma)
            assert X.boundary_of(beta) == gamma
        assert len(calls) == before
