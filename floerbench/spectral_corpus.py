"""spectral_corpus workload: seeded random filtered Novikov complexes.

Each complex is a transvected acyclic matching (up to 8 orbits) over one of
four period groups: trivial, <1>, <s*sqrt 2> and the dense <1, sqrt 2>.
The generator below does its own exact arithmetic (numbers q + r*sqrt 2 as
Fraction pairs, Laurent polynomials as {cap: Fraction} dicts), so the
inputs and the checks do not depend on the program or on the test helpers.

One op: build the complex from its JSON spec, compute the homology basis,
run `check_spectrality` on every class, and solve one generated boundary
per degree pair with `bounded_boundary_solve`, plus the complex's
`boundary_overhead_constant` that bounds those solves.
"""

from __future__ import annotations

import random
from fractions import Fraction

import common
from common import CheckFailure, require

KINDS = ("trivial", "int", "sqrt", "dense")
ZERO = (Fraction(0), Fraction(0))


# -- numbers q + r*sqrt(2) ----------------------------------------------------


def qs_sign(x) -> int:
    q, r = x
    sq, sr = (q > 0) - (q < 0), (r > 0) - (r < 0)
    if sr == 0 or sq == sr:
        return sq or sr
    if sq == 0:
        return sr
    return sq if q * q > 2 * r * r else sr


def qs_add(a, b):
    return (a[0] + b[0], a[1] + b[1])


def qs_sub(a, b):
    return (a[0] - b[0], a[1] - b[1])


def qs_less(a, b) -> bool:
    return qs_sign(qs_sub(b, a)) > 0


def omega(values, cap):
    out = ZERO
    for c, v in zip(cap, values):
        out = qs_add(out, (c * v[0], c * v[1]))
    return out


# -- Laurent polynomials {cap: Fraction} --------------------------------------


def poly_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for ca, va in a.items():
        for cb, vb in b.items():
            key = tuple(x + y for x, y in zip(ca, cb))
            out[key] = out.get(key, 0) + va * vb
    return {k: v for k, v in out.items() if v}


def poly_add(a: dict, b: dict, sign=1) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
    return {k: v for k, v in out.items() if v}


def poly_valuation(values, p: dict):
    """min omega over the support of a nonzero polynomial."""
    best = None
    for cap in p:
        w = omega(values, cap)
        if best is None or qs_less(w, best):
            best = w
    return best


# -- generator ----------------------------------------------------------------


class Spec:
    """One generated complex: JSON spec plus the generator's own data."""

    __slots__ = ("key", "index", "kind", "values", "json", "levels", "degrees",
                 "boundary", "solves")

    def __init__(self, **kw):
        for k, v in kw.items():
            setattr(self, k, v)

    def __repr__(self):
        return f"complex {self.key} ({self.kind})"


def _group(rng, kind):
    """(generator values as (q, r) pairs, JSON form of the group)."""
    if kind == "trivial":
        return [], []
    if kind == "int":
        return [(Fraction(1), Fraction(0))], [{"rational": "1"}]
    if kind == "sqrt":
        s = Fraction(rng.randint(1, 3))
        return [(Fraction(0), s)], [{"sqrt": 2, "scale": str(s)}]
    return ([(Fraction(1), Fraction(0)), (Fraction(0), Fraction(1))],
            [{"rational": "1"}, {"sqrt": 2, "scale": "1"}])


def _cap_above(rng, values, bound):
    """A cap with omega(cap) > bound, or None for the trivial group."""
    rank = len(values)
    if rank == 0:
        return () if qs_sign(bound) < 0 else None
    for _ in range(40):
        cap = tuple(rng.randint(-3, 3) for _ in range(rank))
        if qs_less(bound, omega(values, cap)):
            return cap
    step = [0] * rank
    for n in range(1, 4000):
        step[0] = n  # every first generator here is positive
        if qs_less(bound, omega(values, step)):
            return tuple(step)
    raise CheckFailure("generator: no cap above the bound")


def generate(rng: random.Random, key: str, index: int, max_orbits: int = 8) -> Spec:
    # stratified: every (group kind, orbit count) pair takes the same share
    kind = KINDS[index % len(KINDS)]
    values, gens = _group(rng, kind)
    rank = len(values)
    zero_cap = (0,) * rank
    n = 1 + (index // len(KINDS)) % max_orbits
    ids = [f"g{i}" for i in range(n)]
    levels, degrees = {}, {}
    for oid in ids:
        q = Fraction(rng.randint(-40, 40), rng.choice([1, 2, 5, 10]))
        r = Fraction(rng.randint(-3, 3)) if kind in ("sqrt", "dense") and rng.random() < 0.5 else Fraction(0)
        levels[oid] = (q, r)
        degrees[oid] = rng.choice([0, 1, 1, 2])
    by_degree: dict = {}
    for oid in ids:
        by_degree.setdefault(degrees[oid], []).append(oid)

    boundary: dict = {}  # source -> {target: poly}
    sources, targets = set(), set()

    def add_entry(src, tgt):
        cap = _cap_above(rng, values, qs_sub(levels[tgt], levels[src]))
        if cap is None:
            return
        coeff = Fraction(rng.choice([-3, -2, -1, 1, 2, 3]), rng.choice([1, 1, 2]))
        boundary.setdefault(src, {})[tgt] = {cap: coeff}
        sources.add(src)
        targets.add(tgt)

    deg1 = list(by_degree.get(1, []))
    rng.shuffle(deg1)
    half = len(deg1) // 2
    pool0 = list(by_degree.get(0, []))
    rng.shuffle(pool0)
    for src in deg1[:half]:
        if pool0 and rng.random() < 0.85:
            add_entry(src, pool0.pop())
    pool1 = deg1[half:]
    rng.shuffle(pool1)
    for src in by_degree.get(2, []):
        if pool1 and rng.random() < 0.85:
            add_entry(src, pool1.pop())

    # tracked coordinates of each original unit cycle
    cycles = {oid: {oid: {zero_cap: Fraction(1)}} for oid in ids}

    def transvect(x, y):
        """Basis change x -> x + u*y with level(u*y) < level(x)."""
        cap = _cap_above(rng, values, qs_sub(levels[y], levels[x]))
        if cap is None:
            return
        u = {cap: Fraction(rng.choice([-2, -1, 1, 2]))}
        ry = boundary.get(y)
        if ry:
            rx = boundary.setdefault(x, {})
            for tgt, c in ry.items():
                rx[tgt] = poly_add(rx.get(tgt, {}), poly_mul(u, c))
                if not rx[tgt]:
                    del rx[tgt]
            if not rx:
                del boundary[x]
        for table in list(boundary.values()) + list(cycles.values()):
            cx = table.get(x)
            if cx:
                table[y] = poly_add(table.get(y, {}), poly_mul(u, cx), -1)
                if not table[y]:
                    del table[y]

    for _ in range(rng.randint(0, 2 * n)):
        peers = by_degree[rng.choice(list(by_degree))]
        if len(peers) >= 2:
            x, y = rng.sample(peers, 2)
            transvect(x, y)

    # finite representatives of classes that survive: cycles of the
    # matching that are not boundaries of it
    reps = [cycles[o] for o in ids if o not in sources and o not in targets]

    # one boundary gamma = d(random chain) per degree pair (k, k+1)
    solves = []
    for k in sorted(by_degree):
        src_ids = [o for o in by_degree.get(k + 1, []) if o in boundary]
        if not src_ids:
            continue
        chain = {}
        for oid in rng.sample(src_ids, rng.randint(1, len(src_ids))):
            c = rng.choice([-3, -2, -1, 1, 2, 3])
            chain[oid] = {tuple(rng.randint(-1, 1) for _ in range(rank)): Fraction(c)}
        gamma = apply_boundary(boundary, chain)
        if gamma:
            solves.append(gamma)

    spec = {
        "group": {"generators": gens, "c1": [0] * rank},
        "orbits": [
            {"id": o, "level": {"q": str(levels[o][0]), "irr": str(levels[o][1])},
             "index": degrees[o]}
            for o in ids
        ],
        "boundary": [
            {"from": s, "to": t, "scalar": poly_json(p)}
            for s in sorted(boundary) for t, p in sorted(boundary[s].items())
        ],
        "reps": [chain_json(r) for r in reps],
        "solves": [chain_json(g) for g in solves],
    }
    return Spec(key=key, index=index, kind=kind, values=values, json=spec, levels=levels,
                degrees=degrees, boundary=boundary, solves=solves)


def apply_boundary(boundary, chain: dict) -> dict:
    """d(chain) for a chain {orbit: poly} of finite coefficients."""
    out: dict = {}
    for src, c in chain.items():
        for tgt, e in boundary.get(src, {}).items():
            out[tgt] = poly_add(out.get(tgt, {}), poly_mul(c, e))
    return {k: v for k, v in out.items() if v}


def poly_json(p: dict) -> list:
    return [{"cap": list(cap), "coeff": str(v)} for cap, v in sorted(p.items())]


def chain_json(chain: dict) -> list:
    return [{"orbit": o, "scalar": poly_json(p)} for o, p in sorted(chain.items())]


def build(seed: str, count: int) -> list:
    rng = random.Random(seed)
    return [generate(rng, f"{seed}/{i}", i) for i in range(count)]


class Workload(common.FreshRounds):
    """Every round is a fresh corpus, so a run averages its heavy tail over
    thousands of complexes.  The traced run repeats round 0."""

    name = "spectral_corpus"
    corpus = 500
    build = staticmethod(build)

    def __init__(self, fm, seed: int, small: bool = False):
        super().__init__(fm, seed, 60 if small else self.corpus)
        self._oracles = None

    def op(self, item):
        return op(self.fm, item)

    def digest(self, out) -> str:
        return digest(out)

    def check(self, item, out) -> None:
        if self._oracles is None:
            import _oracles  # tests/_oracles.py: plain rational algebra

            self._oracles = _oracles
        # the brute-force oracles cost several ops each: one complex in 9
        # (9 is prime to the 4 kinds and 8 sizes) gets the rho oracle, one
        # in 27 the preimage oracle
        check(self.fm, self._oracles, item, out,
              rho_oracle=item.index % 9 == 0, preimage_oracle=item.index % 27 == 0)


# -- the op -----------------------------------------------------------------


def op(fm, item: Spec):
    spec = item.json
    group = fm.action.PeriodGroup.from_json(spec["group"])
    X = fm.complexes.FilteredComplex.from_json(group, spec)
    classes = X.homology_basis()
    certs = [fm.spectral.check_spectrality(X, c) for c in classes]
    solves = []
    const = None
    if spec["solves"]:
        const = fm.spectral.boundary_overhead_constant(X)
        for g in spec["solves"]:
            gamma = fm.complexes.NovikovChain.from_json(group, g)
            solves.append((gamma, fm.spectral.bounded_boundary_solve(X, gamma)))
    return X, classes, certs, const, solves


def digest(out) -> str:
    X, classes, certs, const, solves = out
    parts = [repr(const)]
    for c, cert in zip(classes, certs):
        parts.append(f"{c.id}:{c.degree}:{c.representative!r}:{cert.value!r}:"
                     f"{cert.spectrum_witness}:{cert.in_spectrum}:{cert.peak_attains}")
    for _, (beta, over) in solves:
        parts.append(f"{beta!r}:{over!r}")
    return "\n".join(parts)


# -- independent checks -----------------------------------------------------


def _qs(av):
    """ActionValue of the program -> (q, r) pair (the groups use sqrt 2)."""
    return (Fraction(av.q), Fraction(av.r))


def _scalar_parts(s):
    return dict(s.num), dict(s.den)


def _level(item: Spec, chain_parts: dict):
    """max over orbits of level(o) - valuation(num/den); None for zero."""
    best = None
    for oid, (num, den) in chain_parts.items():
        val = qs_sub(poly_valuation(item.values, num), poly_valuation(item.values, den))
        lvl = qs_sub(item.levels[oid], val)
        if best is None or qs_less(best, lvl):
            best = lvl
    return best


def _boundary_equals(item: Spec, beta_parts: dict, gamma: dict) -> bool:
    """d(beta) == gamma with beta_s = num_s/den_s, by clearing denominators."""
    common = {(0,) * len(item.values): Fraction(1)}
    for num, den in beta_parts.values():
        common = poly_mul(common, den)
    lhs: dict = {}
    for src, (num, den) in beta_parts.items():
        others = {(0,) * len(item.values): Fraction(1)}
        for s2, (_, d2) in beta_parts.items():
            if s2 != src:
                others = poly_mul(others, d2)
        scaled = poly_mul(num, others)
        for tgt, e in item.boundary.get(src, {}).items():
            lhs[tgt] = poly_add(lhs.get(tgt, {}), poly_mul(scaled, e))
    lhs = {k: v for k, v in lhs.items() if v}
    rhs = {k: poly_mul(v, common) for k, v in gamma.items()}
    return lhs == rhs


def check(fm, oracles, item: Spec, out, rho_oracle: bool, preimage_oracle: bool) -> None:
    X, classes, certs, const, solves = out
    # Euler characteristic of homology equals that of the chain complex
    chi_chain = sum((-1) ** d for d in item.degrees.values())
    chi_hom = sum((-1) ** c.degree for c in classes)
    require(chi_chain == chi_hom, f"complex {item.key}: chi {chi_hom} != {chi_chain}")
    # every rho is level(orbit) - omega(cap) of the reported peak
    for c, cert in zip(classes, certs):
        require(cert.in_spectrum and cert.peak_attains,
                f"complex {item.key} class {c.id}: certificate not ok")
        oid, cap = cert.spectrum_witness
        want = qs_sub(item.levels[oid], omega(item.values, cap))
        require(want == _qs(cert.value),
                f"complex {item.key} class {c.id}: rho {cert.value!r} is not "
                f"level({oid}) - omega({cap})")
    # rho of each tracked finite representative equals the brute-force oracle
    for rep in item.json["reps"] if rho_oracle else ():
        chain = fm.complexes.NovikovChain.from_json(X.group, rep)
        got = fm.spectral.rho(X, chain).value
        want = oracles.brute_force_rho(X, chain)
        require(got == want, f"complex {item.key}: rho {got!r} != oracle {want!r}")
    # bounded solves: d(beta) == gamma exactly, and the level bound holds
    for (gamma, (beta, _)), gamma_poly in zip(solves, item.solves):
        parts = {o: _scalar_parts(s) for o, s in beta.coeffs.items()}
        require(_boundary_equals(item, parts, gamma_poly),
                f"complex {item.key}: d(beta) != gamma")
        lb = _level(item, parts)
        lg = _level(item, {o: (p, {(0,) * len(item.values): 1}) for o, p in gamma_poly.items()})
        require(not qs_less(qs_add(lg, _qs(const)), lb),
                f"complex {item.key}: level(beta) exceeds level(gamma) + C")
        if preimage_oracle and len(item.values) <= 1:
            bound = oracles.brute_force_min_preimage_level(X, gamma)
            require(not qs_less(_qs(bound), lb),
                    f"complex {item.key}: level(beta) above the finite-chain oracle")
