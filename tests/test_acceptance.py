"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here, not deferred: spectral statements are exact
(zero tolerance), event localization is 1e-6 in the parameter, slope
comparisons allow 10*(grid step)^2, and quantities derived from refined
critical values inherit the 1e-12 value quantum (reported bound 1e-8).
"""

import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

import _oracles
from _random_complexes import random_complex

from floermini.action import ActionValue, NovikovScalar, make_period_group
from floermini.cerf import MorseCerfFamily, sub_family
from floermini.cli import run as cli_run
from floermini.complexes import FilteredComplex, NovikovChain, Orbit
from floermini.continuation import (
    ChainMap,
    classify_entries,
    continuation_map,
    dichotomy_constant,
    glue_maps,
    rho_curve,
    solve_chain_homotopy,
    step_maps,
    transfer_level_curve,
    variation_bounds,
)
from floermini.errors import ZeroClassError
from floermini.hofer import gamma as hofer_gamma
from floermini.hofer import hofer_quantities
from floermini.morse import DecoratedClass, MorseFunction1D, build_s1_morse, rho_small_morse
from floermini.spectral import (
    boundary_overhead_constant,
    bounded_boundary_solve,
    check_spectrality,
    rho,
)

GOLDEN = Path(__file__).parent / "golden"
BD_FAMILY = "cos(theta) + eta*(3/5)*cos(2*theta + 1/2)"
TWO_EVENT_FAMILY = (
    "(1-eta)*cos(theta) + eta*(3/2*cos(2*theta - 7/10) - 3/10*cos(3*theta))"
)


def sqrt2(scale=1):
    return ActionValue.sqrt(2, scale)


def random_trig(rng, harmonics=3, scale=8):
    terms = []
    for k in range(1, harmonics + 1):
        a = Fraction(rng.randint(-scale, scale), scale)
        b = Fraction(rng.randint(-scale, scale), scale)
        if a:
            terms.append(f"({a})*cos({k}*theta)")
        if b:
            terms.append(f"({b})*sin({k}*theta)")
    if not terms:
        terms = ["cos(theta)"]
    return MorseFunction1D.closed_form(" + ".join(terms), N=1 << 12)


def morse_pool(seed, count, **kw):
    rng = random.Random(seed)
    pool = []
    while len(pool) < count:
        f = random_trig(rng, **kw)
        try:
            f.critical_points()
        except Exception:
            continue
        pool.append(f)
    return pool


def test_01_spectrality():
    start = time.time()
    rng = random.Random(20260809)
    groups = [
        make_period_group([], []),
        make_period_group([1], [0]),
        make_period_group([sqrt2()], [0]),
        make_period_group([ActionValue(1), sqrt2()], [0, 0]),  # dense
    ]
    n_classes = 0
    n_dense = 0
    for i in range(1000):
        group = groups[i % 4] if i % 2 == 0 else None
        X, _ = random_complex(rng, group=group, max_orbits=8)
        for cls in X.homology_basis():
            cert = check_spectrality(X, cls)
            assert cert.in_spectrum, f"complex {i} class {cls.id} escapes Spec"
            assert cert.peak_attains
            n_classes += 1
            if X.group.rank >= 2:
                n_dense += 1
    elapsed = time.time() - start
    assert elapsed < 60, f"runtime {elapsed:.1f}s exceeds 60s"
    assert n_dense > 100
    print(
        f"ACCEPTANCE 01 PASS spectrality: 1000 complexes, {n_classes} classes"
        f" ({n_dense} dense) exactly in Spec in {elapsed:.1f}s"
    )


def test_02_oracle_equivalence():
    start = time.time()
    rng = random.Random(977)
    checked = 0
    complexes = 0
    while complexes < 200:
        X, reps = random_complex(rng, max_orbits=6)
        complexes += 1
        for rep in reps:
            try:
                got = rho(X, rep).value
            except ZeroClassError:
                continue
            want = _oracles.brute_force_rho(X, rep)
            assert got == want, f"engine {got!r} vs oracle {want!r}"
            checked += 1
    elapsed = time.time() - start
    assert elapsed < 120, f"runtime {elapsed:.1f}s exceeds 120s"
    assert checked >= 200
    print(
        f"ACCEPTANCE 02 PASS oracle equivalence: {checked} classes on "
        f"{complexes} complexes, exact, in {elapsed:.1f}s"
    )


def test_03_worked_irrational_instance():
    G = make_period_group([sqrt2()], [0])
    X = FilteredComplex(
        G,
        [Orbit("x1", 0, 0), Orbit("x2", Fraction(3, 10), 0), Orbit("y", 1, 1)],
        {"y": {"x1": NovikovScalar.one(G),
               "x2": NovikovScalar.monomial(G, (1,), -1)}},
    )
    res = rho(X, NovikovChain.unit(G, "x1"))
    want = ActionValue(Fraction(3, 10)) - sqrt2()
    assert res.value == want
    assert res.tight_cycle == NovikovChain.unit(G, "x2", (1,))
    assert res.witness == ("x2", (1,))
    assert _oracles.brute_force_rho(X, NovikovChain.unit(G, "x1")) == want
    print("ACCEPTANCE 03 PASS worked instance: rho = 3/10 - sqrt(2), "
          "tight cycle q^g x2, witness (x2, g), oracle-certified")


def test_04_non_archimedean_suite():
    rng = random.Random(431)
    zero = ActionValue.rational(0)
    chains = 0
    while chains < 10**4:
        X, _ = random_complex(rng, max_orbits=6)
        gap = X.filtration_gap()
        ids_by_degree = {}
        for o in X.orbits:
            ids_by_degree.setdefault(o.index, []).append(o.id)
        for _ in range(25):
            degree = rng.choice(sorted(ids_by_degree))
            ids = ids_by_degree[degree]

            def rand_chain():
                coeffs = {}
                for oid in rng.sample(ids, rng.randint(1, len(ids))):
                    cap = tuple(rng.randint(-2, 2) for _ in range(X.group.rank))
                    c = rng.randint(-4, 4)
                    if c:
                        coeffs[oid] = NovikovScalar.monomial(X.group, cap, c)
                return NovikovChain(X.group, coeffs)

            a, b = rand_chain(), rand_chain()
            la, lb, lab = X.level(a), X.level(b), X.level(a + b)
            top = max(la, lb)
            assert lab <= top
            if la != lb:
                assert lab == top
            da = X.boundary_of(a)
            if not da.is_zero():
                assert X.level(da) <= la - gap
            assert X.boundary_of(da).is_zero()
            chains += 1
    print(f"ACCEPTANCE 04 PASS non-archimedean suite: {chains} chains,"
          " zero violations")


def test_05_small_morse_formula():
    rng = random.Random(55)
    pool = morse_pool(601, 50, harmonics=2, scale=4)
    dec_groups = [
        make_period_group([1], [0]),
        make_period_group([Fraction(1, 3)], [0]),
        make_period_group([ActionValue(1), sqrt2()], [0, 0]),
    ]
    valid = invalid = 0
    for f in pool:
        eps = Fraction(rng.randint(1, 4), 20)
        cls = rng.choice(["point", "fundamental"])
        if rng.random() < 0.3:
            dec = None
        else:
            G = rng.choice(dec_groups)
            caps = set()
            while len(caps) < rng.randint(1, 3):
                caps.add(tuple(rng.randint(-2, 2) for _ in range(G.rank)))
            dec = DecoratedClass(G, sorted(caps))
        res = rho_small_morse(f, eps, cls, dec)
        if not res.valid:
            invalid += 1
            assert res.value is None
            continue
        valid += 1
        # the formula two ways: the oracle on the plain complex plus the
        # shift, and the engine on the decorated complex
        rep = build_s1_morse(f, eps)
        chain = rep.class_chain(cls)
        assert res.value == res.shift + _oracles.brute_force_rho(rep.complex, chain)
        if dec is not None:
            XG, dec_chain = _oracles.decorated_complex(rep, dec, chain)
            assert rho(XG, dec_chain).value == res.value
    assert valid >= 20
    print(f"ACCEPTANCE 05 PASS small-Morse formula: {valid} valid instances"
          f" exact, {invalid} flagged by the gap predicate")


def test_06_c0_continuity():
    rng = random.Random(66)
    pool = morse_pool(707, 40)
    eps = Fraction(1, 2)
    slack = ActionValue.rational(Fraction(1, 10**8))  # reported refinement bound
    zero = ActionValue.rational(0)
    pairs = 0
    for _ in range(200):
        f, g = rng.choice(pool), rng.choice(pool)
        try:
            diff = f.added(g.negated())
            _, _, norm = hofer_quantities(diff, eps)
        except Exception:
            continue
        for cls in ("point", "fundamental"):
            rf = rho(build_s1_morse(f, eps).complex,
                     build_s1_morse(f, eps).class_chain(cls)).value
            rg = rho(build_s1_morse(g, eps).complex,
                     build_s1_morse(g, eps).class_chain(cls)).value
            d = rf - rg
            mag = d if d >= zero else -d
            assert mag <= norm + slack
        pairs += 1
    assert pairs >= 150
    print(f"ACCEPTANCE 06 PASS C0-continuity: {pairs} pairs x 2 classes,"
          " |drho| <= eps*||f-g|| + 1e-8")


@pytest.fixture(scope="module")
def two_event():
    fam = MorseCerfFamily(TWO_EVENT_FAMILY, eta_points=257)
    return fam, fam.diagram()


def test_07_cerf_tracking(two_event):
    fam, d = two_event
    assert len(d.cusps) == 1 and len(d.crossings) == 1
    # independent reference locations from a dense scan + bisection
    ref_cusp, ref_cross = _reference_events()
    assert abs(d.cusps[0].eta - ref_cusp) < 1e-6
    assert abs(d.crossings[0].eta - ref_cross) < 1e-6

    curve = rho_curve(fam, "point")
    vals = [float(r.value) for _, r in curve]
    h = 1.0 / 256
    # continuity: increments bounded by the slope scale
    assert max(abs(b - a) for a, b in zip(vals, vals[1:])) < 6 * h
    # kinks: second differences above the smooth scale
    kinks = [
        i for i in range(1, len(vals) - 1)
        if abs(vals[i + 1] - 2 * vals[i] + vals[i - 1]) > 50 * h * h
    ]
    cross_cell = round(d.crossings[0].eta / h)
    cusp_cell = round(d.cusps[0].eta / h)
    for i in kinks:
        assert abs(i - cross_cell) <= 1, f"kink at cell {i} away from crossing"
        assert abs(i - cusp_cell) > 1, "kink at the cusp"
    assert kinks, "crossing kink not detected"
    print(
        "ACCEPTANCE 07 PASS cerf tracking: rho-curve continuous, cusp at "
        f"{d.cusps[0].eta:.6f} smooth, kink only at crossing {d.crossings[0].eta:.6f}"
    )


def _reference_events():
    """Event locations recomputed by dense scanning, independent of the
    diagram machinery; bisected to 1e-8."""
    import numpy as np

    t = np.linspace(0, 2 * np.pi, 1 << 15, endpoint=False)

    def n_crit(eta):
        fp = -(1 - eta) * np.sin(t) + eta * (
            -3.0 * np.sin(2 * t - 0.7) + 0.9 * np.sin(3 * t)
        )
        s = np.sign(fp)
        return int(np.sum(s != np.roll(s, -1)))

    lo, hi = 0.05, 0.4
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        if n_crit(mid) == n_crit(0.05):
            lo = mid
        else:
            hi = mid
    cusp = 0.5 * (lo + hi)

    def max_diff(eta):
        f = (1 - eta) * np.cos(t) + eta * (
            1.5 * np.cos(2 * t - 0.7) - 0.3 * np.cos(3 * t)
        )
        fp = -(1 - eta) * np.sin(t) + eta * (
            -3.0 * np.sin(2 * t - 0.7) + 0.9 * np.sin(3 * t)
        )
        s = np.sign(fp)
        ch = np.nonzero(s != np.roll(s, -1))[0]
        maxima = sorted(
            (t[i], f[i]) for i in ch if fp[i] > fp[(i + 1) % len(t)]
        )
        return maxima[0][1] - maxima[1][1]

    lo, hi = 0.5, 0.99
    dlo = max_diff(lo)
    while hi - lo > 1e-8:
        mid = 0.5 * (lo + hi)
        dmid = max_diff(mid)
        if (dmid > 0) == (dlo > 0):
            lo, dlo = mid, dmid
        else:
            hi = mid
    cross = 0.5 * (lo + hi)
    return cusp, cross


def test_08_slope_formula(two_event):
    from floermini.cerf import branch_slope

    fam, d = two_event
    slope_fam = MorseCerfFamily(
        "cos(theta) + eta*(1/4*sin(2*theta) + 1/5*cos(3*theta))", eta_points=257
    )
    ds = slope_fam.diagram()
    h = 1.0 / 256
    tol = 10 * h * h
    checked = 0
    for family, diagram in ((fam, d), (slope_fam, ds)):
        curve = rho_curve(family, "point")
        vals = [float(r.value) for _, r in curve]
        events = [c.eta for c in diagram.cusps] + [c.eta for c in diagram.crossings]
        for k in range(2, len(vals) - 2, 4):
            eta = curve[k][0]
            if any(abs(eta - e) < 3 * h for e in events):
                continue
            if checked >= 100:
                break
            fd = (vals[k + 1] - vals[k - 1]) / (2 * h)
            orbit = curve[k][1].witness[0]
            bid = next(b for b, o in diagram.tracks[k].items() if o == orbit)
            sl = branch_slope(diagram, bid, eta)
            assert abs(fd - sl) < tol, (eta, fd, sl)
            checked += 1
    assert checked >= 100
    print(f"ACCEPTANCE 08 PASS slope formula: {checked} samples,"
          f" |fd - (-dH/deta at peak)| < 10*(grid step)^2")


def _map_corpus():
    fams = [
        MorseCerfFamily("cos(theta)", eta_points=17),
        MorseCerfFamily("cos(theta) + eta*(1/4*sin(2*theta))", eta_points=33),
        MorseCerfFamily(BD_FAMILY, eta_points=33),
    ]
    G = make_period_group([], [])
    X = FilteredComplex(
        G,
        [Orbit("x", 3, 1), Orbit("y", 5, 1), Orbit("w", 6, 2)],
        {"w": {"y": NovikovScalar.one(G),
               "x": NovikovScalar.monomial(G, (), -1)}},
    )
    from floermini.cerf import AbstractCerfFamily

    # the slide x -> x + y conjugates the boundary: d'w = -x
    Xp = FilteredComplex(
        G,
        [Orbit("x", 3, 1), Orbit("y", 5, 1), Orbit("w", 6, 2)],
        {"w": {"x": NovikovScalar.monomial(G, (), -1)}},
    )
    slide = AbstractCerfFamily(
        G, [X, Xp],
        [{"type": "slide", "slide_from": "x", "slide_over": "y",
          "cap": (), "coeff": 1, "eta": 0.5}],
        [(Fraction(3), Fraction(3))],
    )
    fams.append(slide)
    return fams


def test_09_continuation_algebra():
    rng = random.Random(99)
    fams = _map_corpus()
    total_chains = 0
    for fam in fams:
        maps = step_maps(fam)
        for h in maps:
            h.verify()
        h = continuation_map(fam)
        h.verify()
        e_minus = variation_bounds(fam).e_minus
        by_degree = {}
        for o in h.source.orbits:
            by_degree.setdefault(o.index, []).append(o.id)
        for _ in range(400):
            ids = by_degree[rng.choice(sorted(by_degree))]
            coeffs = {}
            for oid in rng.sample(ids, rng.randint(1, len(ids))):
                cap = tuple(
                    rng.randint(-1, 1) for _ in range(h.source.group.rank)
                )
                c = rng.randint(-4, 4)
                if c:
                    coeffs[oid] = NovikovScalar.monomial(h.source.group, cap, c)
            chain = NovikovChain(h.source.group, coeffs)
            out = h.apply(chain)
            if chain.is_zero() or out.is_zero():
                continue
            assert h.target.level(out) <= h.source.level(chain) + e_minus
            total_chains += 1

    # gluing identity, event-free
    fam = fams[1]
    a, b = sub_family(fam, 0.0, 0.5), sub_family(fam, 0.5, 1.0)
    h1, h2 = continuation_map(a), continuation_map(b)
    composed, direct, H = glue_maps(h1, h2, a, b)
    assert H.is_zero() and composed.entries == direct.entries

    # chain homotopy with the total-variation bound on a hand-built variant
    G = make_period_group([], [])
    X = _map_corpus()[3].complexes[0]
    ident = ChainMap.identity(X)
    t = NovikovScalar.from_terms(G, {(): Fraction(1, 3)})
    variant = ChainMap(
        X, X,
        {("x", "x"): NovikovScalar.one(G) - t, ("y", "x"): t,
         ("y", "y"): NovikovScalar.one(G), ("w", "w"): NovikovScalar.one(G) - t},
    )
    variant.verify()
    H = solve_chain_homotopy(variant, ident)
    H.verify_identity(variant, ident)
    e_total = ActionValue(6)  # declared slide family bound, both directions
    for oid in ("x", "y"):
        alpha = NovikovChain.unit(G, oid)
        out = H.apply(alpha)
        if not out.is_zero():
            assert X.level(out) <= X.level(alpha) + e_total

    # mu-curve Lipschitz bound on all sampled pairs
    for fam in fams[:3]:
        X0 = fam.complex_at(0)
        for cls in ("point", "fundamental"):
            curve = transfer_level_curve(X0.class_chain(cls), fam, 0)
            ok, info = _oracles.check_lipschitz(curve)
            assert ok, info
    assert total_chains >= 1000
    print(f"ACCEPTANCE 09 PASS continuation algebra: identities exact,"
          f" {total_chains} chain bounds, gluing and homotopy verified")


def test_10_handle_slide_dichotomy():
    checked = 0
    for fam in _map_corpus():
        a0 = dichotomy_constant(fam)
        vb = variation_bounds(fam)
        eps = ActionValue.rational(
            max((x + y for x, y in vb.contributions), default=Fraction(0))
        )
        if not a0 > eps + eps:
            continue
        for h in step_maps(fam):
            cls = classify_entries(h, a0, eps)
            assert cls.ok, cls.violations
            checked += len(cls.thin) + len(cls.slides)
    # adversarial mid-band entry is flagged
    G = make_period_group([], [])
    X = FilteredComplex(
        G,
        [Orbit("x", 3, 1), Orbit("y", 5, 1), Orbit("w", 6, 2)],
        {"w": {"y": NovikovScalar.one(G),
               "x": NovikovScalar.monomial(G, (), -1)}},
    )
    bad = ChainMap(
        X, X,
        {("x", "x"): NovikovScalar.one(G), ("y", "y"): NovikovScalar.one(G),
         ("w", "w"): NovikovScalar.one(G),
         ("y", "x"): NovikovScalar.one(G)},
        {("y", "x"): "slide"},
    )
    cls = classify_entries(bad, ActionValue(4), ActionValue(Fraction(1, 2)))
    assert not cls.ok
    print(f"ACCEPTANCE 10 PASS dichotomy: {checked} engine entries in band,"
          " adversarial mid-band entry flagged")


def test_11_bounded_solver():
    rng = random.Random(1111)
    solved = 0
    for _ in range(260):
        X, _ = random_complex(rng, max_orbits=7)
        const = boundary_overhead_constant(X)
        ids_by_degree = {}
        for o in X.orbits:
            ids_by_degree.setdefault(o.index, []).append(o.id)
        for degree in sorted(ids_by_degree):
            src_ids = ids_by_degree.get(degree + 1, [])
            if not src_ids:
                continue
            coeffs = {}
            for oid in rng.sample(src_ids, rng.randint(1, len(src_ids))):
                cap = tuple(rng.randint(-1, 1) for _ in range(X.group.rank))
                c = rng.randint(-3, 3)
                if c:
                    coeffs[oid] = NovikovScalar.monomial(X.group, cap, c)
            gamma_chain = X.boundary_of(NovikovChain(X.group, coeffs))
            if gamma_chain.is_zero():
                continue
            beta, c1 = bounded_boundary_solve(X, gamma_chain)
            assert X.boundary_of(beta) == gamma_chain
            assert X.level(beta) <= X.level(gamma_chain) + const
            beta2, c2 = bounded_boundary_solve(X, gamma_chain)
            assert beta2 == beta and c2 == c1
            solved += 1
    assert solved >= 100
    print(f"ACCEPTANCE 11 PASS bounded solver: {solved} boundaries within the"
          " reported overhead constant, idempotent re-solve")


def test_12_hofer_suite():
    pool = morse_pool(1212, 200, harmonics=3)
    zero = ActionValue.rational(0)
    eps = Fraction(1, 3)
    for f in pool:
        rep = hofer_gamma(f, eps)
        assert zero <= rep.gamma
        assert rep.gamma <= rep.norm
        assert rep.rho_unit <= rep.e_minus
        em_n, ep_n, _ = hofer_quantities(f.negated(), eps)
        assert em_n == rep.e_plus
        assert ep_n == rep.e_minus
    print("ACCEPTANCE 12 PASS hofer suite: 200 instances,"
          " 0 <= gamma <= norm, rho(1) <= E-, E-(-f) = E+(f) exact")


def test_13_cli_determinism(tmp_path):
    configs = [
        "cgamma_rho.json", "constant_diagram.json", "bd_diagram.json",
        "hofer_cos.json",
    ]
    for name in configs:
        a = tmp_path / (name + ".a")
        b = tmp_path / (name + ".b")
        ca = cli_run(GOLDEN / name, a)
        cb = cli_run(GOLDEN / name, b)
        assert ca == cb == 0
        fa = {p.name: p.read_bytes() for p in sorted(a.iterdir())}
        fb = {p.name: p.read_bytes() for p in sorted(b.iterdir())}
        assert fa == fb, f"{name} artifacts differ between runs"
    got = (tmp_path / "bd_diagram.json.a" / "diagram.svg").read_bytes()
    assert got == (GOLDEN / "bd_diagram.svg").read_bytes()
    print("ACCEPTANCE 13 PASS determinism: 4 configs byte-identical on re-run,"
          " golden SVG matched")
