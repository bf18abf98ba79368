"""Cross-module consistency properties on random inputs.

These tie independent computation routes together: plain rational ranks
against the homology dimensions, representative-choice independence of
the mini-max, rho over the dense <1, sqrt 2> group and solver minimality
against the brute-force oracle.
"""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _oracles
from _random_complexes import random_complex

from floermini.action import ActionValue, NovikovScalar, make_period_group
from floermini.complexes import NovikovChain
from floermini.errors import ZeroClassError
from floermini.spectral import bounded_boundary_solve, rho


def _q_rank(columns):
    """Rank over Q of sparse Fraction columns (independent elimination)."""
    rows = sorted({k for col in columns for k in col})
    mat = [[col.get(r, Fraction(0)) for col in columns] for r in rows]
    rank = 0
    for c in range(len(columns)):
        sel = next((i for i in range(rank, len(mat)) if mat[i][c]), None)
        if sel is None:
            continue
        mat[rank], mat[sel] = mat[sel], mat[rank]
        pv = mat[rank][c]
        mat[rank] = [x / pv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][c]:
                f = mat[i][c]
                mat[i] = [x - f * y for x, y in zip(mat[i], mat[rank])]
        rank += 1
    return rank


def test_homology_dimensions_match_rational_ranks():
    rng = random.Random(314)
    G = make_period_group([], [])
    checked = 0
    for _ in range(60):
        X, _ = random_complex(rng, group=G, max_orbits=8)
        dims = {}
        for cls in X.homology_basis():
            dims[cls.degree] = dims.get(cls.degree, 0) + 1
        for k in X.degrees():
            cols_k = []
            for oid in X.orbit_ids(k):
                d = X.boundary_of(NovikovChain.unit(G, oid))
                cols_k.append({t: s.num.get((), Fraction(0))
                               for t, s in d.coeffs.items()})
            cols_k1 = []
            for oid in X.orbit_ids(k + 1):
                d = X.boundary_of(NovikovChain.unit(G, oid))
                cols_k1.append({t: s.num.get((), Fraction(0))
                                for t, s in d.coeffs.items()})
            expect = len(X.orbit_ids(k)) - _q_rank(cols_k) - _q_rank(cols_k1)
            assert dims.get(k, 0) == expect
            checked += 1
    assert checked > 100


@settings(max_examples=300)
@given(seed=st.integers(0, 2**32 - 1))
def test_rho_matches_oracle_on_dense_complexes(seed):
    """rho of every tracked representative over the dense <1, sqrt 2>
    equals the brute-force oracle's certified minimum."""
    G = make_period_group([ActionValue(1), ActionValue.sqrt(2)], [0, 0])
    X, reps = random_complex(random.Random(seed), group=G, max_orbits=5)
    for rep in reps:
        try:
            got = rho(X, rep).value
        except ZeroClassError:
            continue
        assert got == _oracles.brute_force_rho(X, rep)


def test_rho_independent_of_representative():
    rng = random.Random(271)
    compared = 0
    for _ in range(80):
        X, reps = random_complex(rng, max_orbits=6)
        ids_by_degree = {}
        for o in X.orbits:
            ids_by_degree.setdefault(o.index, []).append(o.id)
        for rep in reps:
            try:
                base = rho(X, rep).value
            except ZeroClassError:
                continue
            deg = X.degree_of(rep)
            src = ids_by_degree.get(deg + 1, [])
            perturb = {}
            for oid in src:
                cap = tuple(rng.randint(-2, 2) for _ in range(X.group.rank))
                c = rng.randint(-3, 3)
                if c:
                    perturb[oid] = NovikovScalar.monomial(X.group, cap, c)
            moved = rep + X.boundary_of(NovikovChain(X.group, perturb))
            assert rho(X, moved).value == base
            compared += 1
    assert compared > 60


def test_tight_cycle_is_a_local_minimum():
    rng = random.Random(161)
    for _ in range(40):
        X, reps = random_complex(rng, max_orbits=6)
        for rep in reps[:2]:
            try:
                res = rho(X, rep)
            except ZeroClassError:
                continue
            deg = X.degree_of(res.tight_cycle)
            for oid in X.orbit_ids(deg + 1):
                cap = tuple(rng.randint(-2, 2) for _ in range(X.group.rank))
                bump = X.boundary_of(
                    NovikovChain.unit(X.group, oid, cap, rng.choice([1, -1, 2]))
                )
                cand = res.tight_cycle + bump
                if cand.is_zero():
                    continue
                assert X.level(cand) >= res.value


def test_solver_minimality_matches_oracle():
    rng = random.Random(515)
    solved = 0
    while solved < 40:
        X, _ = random_complex(rng, max_orbits=5)
        ids_by_degree = {}
        for o in X.orbits:
            ids_by_degree.setdefault(o.index, []).append(o.id)
        for degree in sorted(ids_by_degree):
            src = ids_by_degree.get(degree + 1, [])
            if not src:
                continue
            coeffs = {}
            for oid in rng.sample(src, rng.randint(1, len(src))):
                cap = tuple(rng.randint(-1, 1) for _ in range(X.group.rank))
                c = rng.randint(-2, 2)
                if c:
                    coeffs[oid] = NovikovScalar.monomial(X.group, cap, c)
            gamma_chain = X.boundary_of(NovikovChain(X.group, coeffs))
            if gamma_chain.is_zero():
                continue
            beta, _ = bounded_boundary_solve(X, gamma_chain)
            assert X.boundary_of(beta) == gamma_chain
            # the oracle searches finite-cap solutions only, so it upper
            # bounds the field minimum; infinite-series minimizers (kernel
            # directions with fraction coefficients) can do strictly better
            want = _oracles.brute_force_min_preimage_level(X, gamma_chain, bound=2)
            assert X.level(beta) <= want
            solved += 1
    assert solved >= 40
