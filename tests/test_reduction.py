"""Differential tests of the sparse-vector toolkit.

`vec_axpy` is the one accumulate primitive; the boundary, chain maps and
homotopies apply through it, and elimination updates its private copies
with it in place.  Each is compared against a plain reference computed
here, over the trivial, the discrete <1> and the dense <1, sqrt 2> period
groups, with inputs that cancel exactly to zero.  The aliasing test pins
that no caller-owned dict is touched by an in-place update.  The last test
checks the level-minimal preimages of a boundary map's `Decomposition`.
"""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from _random_complexes import random_complex
from floermini.action import ActionValue, NovikovScalar, make_period_group
from floermini.complexes import NovikovChain
from floermini.continuation import ChainHomotopy, ChainMap
from floermini.reduction import (
    combination,
    orthogonalize,
    reduce_vector,
    vec_apply,
    vec_axpy,
    vec_level,
)

GROUPS = {
    "trivial": lambda: make_period_group([], []),
    "int": lambda: make_period_group([1], [0]),
    "dense": lambda: make_period_group([ActionValue(1), ActionValue.sqrt(2)], [0, 0]),
}

seeds = st.integers(0, 2**32 - 1)
groups = st.sampled_from(sorted(GROUPS))


def _scalar(rng, G, monomial=False):
    """A nonzero scalar: a monomial, a two-term sum, or a genuine fraction."""
    def mono():
        cap = tuple(rng.randint(-2, 2) for _ in range(G.rank))
        coeff = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2]))
        return NovikovScalar.monomial(G, cap, coeff)

    u = mono()
    if G.rank and not monomial and rng.random() < 0.5:
        v = u + mono()
        if not v.is_zero():
            u = v.invert() if rng.random() < 0.5 else v
    return u


def _vector(rng, G, keys, monomial=False):
    return {k: _scalar(rng, G, monomial) for k in keys if rng.random() < 0.6}


def _reference_axpy(out, coef, v, G):
    """out + coef * v, one key at a time from an explicit zero."""
    res = {}
    for k in sorted(set(out) | set(v)):
        t = out.get(k, NovikovScalar.zero(G))
        if k in v:
            t = t + (v[k] if coef is None else coef * v[k])
        if not t.is_zero():
            res[k] = t
    return res


def _reference_product(entries, coeffs, G):
    """sum over (tgt, src) of entries[tgt, src] * coeffs[src]."""
    res = {}
    for tgt in sorted({t for t, _ in entries}):
        acc = NovikovScalar.zero(G)
        for (t, s), u in entries.items():
            if t == tgt and s in coeffs:
                acc = acc + u * coeffs[s]
        if not acc.is_zero():
            res[tgt] = acc
    return res


def _boundary_entries(X):
    return {(t, s): u for s, row in X.boundary.items() for t, u in row.items()}


@settings(max_examples=60)
@given(seed=seeds, kind=groups, scaled=st.booleans(), cancel=st.booleans())
def test_vec_axpy_matches_reference(seed, kind, scaled, cancel):
    rng = random.Random(seed)
    G = GROUPS[kind]()
    keys = [f"k{i}" for i in range(6)]
    out = _vector(rng, G, keys)
    coef = _scalar(rng, G) if scaled else None
    v = _vector(rng, G, keys)
    if cancel:
        # v = -out / coef on a share of the keys: those cancel exactly
        for k in out:
            if rng.random() < 0.7:
                v[k] = -out[k] if coef is None else -(out[k] / coef)
    expect = _reference_axpy(out, coef, v, G)
    v_before = dict(v)
    got = vec_axpy(out, coef, v)
    assert got is out
    assert out == expect
    assert v == v_before


@settings(max_examples=40)
@given(seed=seeds, kind=groups)
def test_boundary_of_matches_reference_product(seed, kind):
    rng = random.Random(seed)
    G = GROUPS[kind]()
    X, _ = random_complex(rng, group=G)
    entries = _boundary_entries(X)
    chain = NovikovChain(G, _vector(rng, G, X.orbit_ids()))
    dchain = X.boundary_of(chain)
    assert dchain.coeffs == _reference_product(entries, chain.coeffs, G)
    # d o d = 0: every contribution cancels exactly
    assert X.boundary_of(dchain).coeffs == _reference_product(entries, dchain.coeffs, G) == {}


@settings(max_examples=40)
@given(seed=seeds, kind=groups, cancel=st.booleans())
def test_chain_map_and_homotopy_apply_match_reference_product(seed, kind, cancel):
    rng = random.Random(seed)
    G = GROUPS[kind]()
    X, _ = random_complex(rng, group=G)
    Y, _ = random_complex(rng, group=G)
    src, tgt = X.orbit_ids(), Y.orbit_ids()
    entries = {(t, s): _scalar(rng, G) for t in tgt for s in src if rng.random() < 0.5}
    coeffs = _vector(rng, G, src)
    if cancel and len(src) >= 2:
        # two sources meeting in one target with opposite contributions
        s1, s2 = src[:2]
        t = tgt[0]
        u1, u2 = _scalar(rng, G), _scalar(rng, G)
        entries[(t, s1)], entries[(t, s2)] = u1, u2
        coeffs[s1] = _scalar(rng, G)
        coeffs[s2] = -(coeffs[s1] * u1 / u2)
    chain = NovikovChain(G, coeffs)
    expect = _reference_product(entries, chain.coeffs, G)
    for m in (ChainMap(X, Y, entries), ChainHomotopy(X, Y, entries)):
        assert m.apply(chain).coeffs == expect
        assert m.entries == entries


def _snapshot(dicts):
    return [dict(d) for d in dicts]


@settings(max_examples=40)
@given(seed=seeds, kind=groups)
def test_updates_never_touch_caller_dicts(seed, kind):
    rng = random.Random(seed)
    G = GROUPS[kind]()
    keys = [f"k{i}" for i in range(5)]
    one = NovikovScalar.one(G)
    columns = []
    for i in range(4):
        columns.append((_vector(rng, G, keys, monomial=True), {f"c{i}": one}))
    # a dependent column forces elimination down to a kernel relation
    a, b = columns[0][0], columns[1][0]
    s = _scalar(rng, G, monomial=True)
    dep = vec_axpy(dict(a), s, b)
    columns.append((dep, {"c0": one, "c1": s, "c4": -one}))
    inputs = [d for col in columns for d in col]
    before = _snapshot(inputs)
    reduced, kernel = orthogonalize(columns, term=lambda k, s: 0)
    assert kernel
    assert _snapshot(inputs) == before

    stored = [d for r in reduced for d in (r.vec, r.companion)]
    stored_before = _snapshot(stored)
    for v in (a, b, dep, _vector(rng, G, keys, monomial=True)):
        v_before = dict(v)
        _, coeffs = reduce_vector(v, reduced)
        assert v == v_before
        combination(coeffs, reduced)
        vec_apply({i: r.vec for i, r in enumerate(reduced)},
                  {i: c for i, c in enumerate(coeffs) if c is not None})
    assert _snapshot(stored) == stored_before
    assert _snapshot(inputs) == before

    x = NovikovChain(G, _vector(rng, G, keys))
    y = NovikovChain(G, _vector(rng, G, keys))
    xs, ys = dict(x.coeffs), dict(y.coeffs)
    results = [x + y, x - y, y - x, x - x]
    assert x.coeffs == xs and y.coeffs == ys
    assert results[0] - results[1] == y.scaled(2)
    assert results[3].is_zero()


@settings(max_examples=40)
@given(seed=seeds, kind=groups)
def test_decomposition_preimage_is_exact_and_level_minimal(seed, kind):
    rng = random.Random(seed)
    G = GROUPS[kind]()
    X, _ = random_complex(rng, group=G)
    one = NovikovScalar.one(G)
    classes = X.homology_basis()
    for k in X.degrees():
        dec = X.decomposition(k)  # d out of degree k, into degree k - 1
        target = X.boundary_of(NovikovChain(G, _vector(rng, G, X.orbit_ids(k))))
        pre = dec.preimage(target.coeffs)
        assert X.boundary_of(NovikovChain(G, pre)) == target
        # no kernel vector lowers the level, not even one scaled to cancel
        # a coordinate of the preimage
        level = vec_level(pre, X.term)
        for z in dec.kernel_basis:
            scalars = [_scalar(rng, G)]
            scalars += [-(pre[i] / z.vec[i]) for i in z.vec if i in pre]
            for u in scalars:
                assert vec_level(vec_axpy(dict(pre), u, z.vec), X.term) >= level
        # off the image: a chain with a nonzero boundary, or a boundary
        # plus a homology class representative
        for oid in X.orbit_ids(k - 1):
            off = vec_axpy(dict(target.coeffs), _scalar(rng, G), {oid: one})
            if X.boundary_of(NovikovChain(G, off)):
                assert dec.preimage(off) is None
        for c in classes:
            if c.degree == k - 1:
                off = vec_axpy(dict(target.coeffs), None, c.representative.coeffs)
                assert dec.preimage(off) is None


@settings(max_examples=40)
@given(seed=seeds, kind=groups)
def test_kernel_basis_matches_one_elimination_of_boundaries_and_relations(seed, kind):
    """The kernel basis, seeded with the boundary basis, is the elimination
    of the boundary vectors followed by the raw kernel relations: the same
    pivots and vectors, the boundary basis leading it as it is."""
    X, _ = random_complex(random.Random(seed), group=GROUPS[kind]())
    for k in X.degrees():
        dec = X.decomposition(k)
        bounds = X.boundary_basis(k)
        cols = [(r.vec, {}) for r in bounds] + [(z, {}) for z in dec.kernel]
        want, _ = orthogonalize(cols, X.term)
        got = dec.kernel_basis
        assert [(r.pivot, r.vec) for r in got] == [(r.pivot, r.vec) for r in want]
        assert all(r.vec is b.vec and r.pivot == b.pivot for r, b in zip(got, bounds))
