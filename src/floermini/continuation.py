"""Continuation maps along families with energy bookkeeping.

Away from events a continuation step identifies paired generators; a
birth inserts the new pair with the normal-form correction, a death
cancels it by the inverse elementary operation, and a declared handle
slide contributes a transvection.  Every constructed map is checked
against the chain-map identity exactly, and its level shifts are bounded
by the negative variation of the family.
"""

from __future__ import annotations

from fractions import Fraction

from .action import ActionValue, NovikovScalar
from .cerf import AbstractCerfFamily, ConcatFamily, MorseCerfFamily, concat
from .complexes import FilteredComplex, NovikovChain
from .errors import ChainMapError, EventError, NotACycleError
from .reduction import Decomposition, vec_axpy
from .spectral import equal_level_corrections, rho

__all__ = [
    "VariationBounds",
    "ChainMap",
    "ChainHomotopy",
    "variation_bounds",
    "continuation_map",
    "compose_step_maps",
    "step_maps",
    "glue_maps",
    "classify_entries",
    "dichotomy_constant",
    "transfer_level_curve",
    "tightness_transfer_check",
    "rho_curve",
]


class VariationBounds:
    """Negative/positive variation with exact per-interval contributions."""

    __slots__ = ("contributions",)

    def __init__(self, contributions):
        self.contributions = [(Fraction(a), Fraction(b)) for a, b in contributions]

    @property
    def e_minus(self) -> ActionValue:
        return ActionValue.rational(sum((a for a, _ in self.contributions), Fraction(0)))

    @property
    def e_plus(self) -> ActionValue:
        return ActionValue.rational(sum((b for _, b in self.contributions), Fraction(0)))

    @property
    def e_total(self) -> ActionValue:
        return self.e_minus + self.e_plus

    def window(self, i: int, j: int) -> "VariationBounds":
        """Bounds of the sub-run between grid indices i <= j."""
        return VariationBounds(self.contributions[i:j])

    def __repr__(self):
        return (
            f"VariationBounds(e_minus={self.e_minus!r}, e_plus={self.e_plus!r})"
        )


def variation_bounds(fam) -> VariationBounds:
    return VariationBounds(fam.variation_contributions())


class _SparseMap:
    """Sparse scalar matrix (target id, source id) -> NovikovScalar.

    `entries` is fixed at construction; `apply` reads a per-source column
    view of it that is built once.
    """

    def __init__(self, source: FilteredComplex, target: FilteredComplex, entries=None):
        self.source = source
        self.target = target
        self.entries = {k: v for k, v in (entries or {}).items() if not v.is_zero()}
        self._columns: dict = {}
        for (tgt, src), u in self.entries.items():
            self._columns.setdefault(src, {})[tgt] = u

    def apply(self, chain: NovikovChain) -> NovikovChain:
        out: dict = {}
        for src, c in chain.coeffs.items():
            col = self._columns.get(src)
            if col:
                vec_axpy(out, c, col)
        return NovikovChain(self.target.group, out)


class ChainMap(_SparseMap):
    """Degree-zero map between complexes as a sparse scalar matrix."""

    def __init__(self, source: FilteredComplex, target: FilteredComplex,
                 entries=None, provenance=None):
        super().__init__(source, target, entries)
        self.provenance = provenance or {}

    @staticmethod
    def identity(X: FilteredComplex) -> "ChainMap":
        one = NovikovScalar.one(X.group)
        ent = {(o.id, o.id): one for o in X.orbits}
        return ChainMap(X, X, ent, {k: "pairing" for k in ent})

    def compose_after(self, first: "ChainMap") -> "ChainMap":
        """self o first."""
        by_src: dict = {}
        for (m, s), u in first.entries.items():
            by_src.setdefault(m, []).append((s, u))
        ent: dict = {}
        prov: dict = {}
        for (t, m), v in self.entries.items():
            for s, u in by_src.get(m, []):
                key = (t, s)
                add = v * u
                c = ent.get(key)
                c = add if c is None else c + add
                if c.is_zero():
                    ent.pop(key, None)
                    prov.pop(key, None)
                else:
                    ent[key] = c
                    tags = {self.provenance.get((t, m)), first.provenance.get((m, s))}
                    tags.discard(None)
                    tags.discard("pairing")
                    prov[key] = "+".join(sorted(tags)) if tags else "pairing"
        return ChainMap(first.source, self.target, ent, prov)

    def verify(self):
        """Exact chain-map identity; raises on failure (internal bug guard)."""
        for o in self.source.orbits:
            x = NovikovChain.unit(self.source.group, o.id)
            lhs = self.target.boundary_of(self.apply(x))
            rhs = self.apply(self.source.boundary_of(x))
            if not (lhs - rhs).is_zero():
                raise ChainMapError(f"chain-map identity fails at {o.id}")
        return True

    def entry_shift(self, key) -> ActionValue:
        """Level shift of one matrix entry: level(target lift) - level(source)."""
        tgt, src = key
        u = self.entries[key]
        return (self.target.weight(tgt) - u.valuation()) - self.source.weight(src)

    def to_json(self) -> list:
        out = []
        for (t, s) in sorted(self.entries):
            out.append({
                "from": s,
                "to": t,
                "scalar": self.entries[(t, s)].to_json(),
                "provenance": self.provenance.get((t, s), ""),
            })
        return out


class ChainHomotopy(_SparseMap):
    """Degree +1 correction with the total-variation level bound."""

    def is_zero(self) -> bool:
        return not self.entries

    def verify_identity(self, direct: ChainMap, composed: ChainMap):
        """direct - composed == boundary o H + H o boundary, exactly."""
        for o in self.source.orbits:
            x = NovikovChain.unit(self.source.group, o.id)
            lhs = direct.apply(x) - composed.apply(x)
            rhs = self.target.boundary_of(self.apply(x)) + self.apply(
                self.source.boundary_of(x)
            )
            if not (lhs - rhs).is_zero():
                raise ChainMapError(f"homotopy identity fails at {o.id}")
        return True


# ---------------------------------------------------------------------------
# step maps
# ---------------------------------------------------------------------------


def _pairing_map(X, Y, table) -> ChainMap:
    """table: source orbit id -> target orbit id."""
    one = NovikovScalar.one(X.group)
    ent = {}
    for s, t in table.items():
        ent[(t, s)] = one
    return ChainMap(X, Y, ent, {k: "pairing" for k in ent})


def _birth_map(X, Y, table, plus_id, minus_id) -> ChainMap:
    """Inclusion into the complex where (plus, minus) was just born.

    iota(x) = xbar - u^{-1} <d xbar, minus> plus, with u = <d plus, minus>
    computed in the target; this is the unique level-respecting chain map
    extending the pairing of survivors.
    """
    u = Y.boundary.get(plus_id, {}).get(minus_id)
    if u is None or u.is_zero():
        raise ChainMapError("birth pair is not connected in the target complex")
    ent = {}
    prov = {}
    one = NovikovScalar.one(X.group)
    for s, t in table.items():
        ent[(t, s)] = one
        prov[(t, s)] = "pairing"
        hit = Y.boundary.get(t, {}).get(minus_id)
        if hit is not None and not hit.is_zero():
            corr = -(hit / u)
            key = (plus_id, s)
            ent[key] = ent[key] + corr if key in ent else corr
            prov[key] = "birth"
    return ChainMap(X, Y, ent, prov)


def _death_map(X, Y, table, plus_id, minus_id) -> ChainMap:
    """Cancellation of the pair (plus, minus) living in the source.

    phi(plus) = 0, phi(minus) = -u^{-1} * (image of d plus minus u*minus),
    phi(x) = paired image otherwise.
    """
    u = X.boundary.get(plus_id, {}).get(minus_id)
    if u is None or u.is_zero():
        raise ChainMapError("death pair is not connected in the source complex")
    ent = {}
    prov = {}
    one = NovikovScalar.one(X.group)
    for s, t in table.items():
        if s in (plus_id, minus_id):
            continue
        ent[(t, s)] = one
        prov[(t, s)] = "pairing"
    for tgt, c in X.boundary.get(plus_id, {}).items():
        if tgt == minus_id:
            continue
        bar = table.get(tgt)
        if bar is None:
            raise ChainMapError("death remainder leaves the paired basis")
        corr = -(c / u)
        key = (bar, minus_id)
        ent[key] = ent[key] + corr if key in ent else corr
        prov[key] = "death"
    return ChainMap(X, Y, ent, prov)


def _slide_map(X, Y, frm, over, cap, coeff, invert=False) -> ChainMap:
    u = NovikovScalar.monomial(X.group, tuple(cap), Fraction(coeff))
    if invert:
        u = -u
    ent = {(o.id, o.id): NovikovScalar.one(X.group) for o in X.orbits}
    prov = {k: "pairing" for k in ent}
    key = (str(over), str(frm))
    ent[key] = ent[key] + u if key in ent else u
    prov[key] = "slide"
    return ChainMap(X, Y, ent, prov)


def step_maps(fam, reverse=False) -> list:
    """Per-interval chain maps in traversal order, each verified."""
    if isinstance(fam, ConcatFamily):
        a = step_maps(fam.parts[0], reverse)
        b = step_maps(fam.parts[1], reverse)
        return b + a if reverse else a + b
    if fam.is_morse:
        return _morse_step_maps(fam, reverse)
    return _abstract_step_maps(fam, reverse)


def _morse_step_maps(fam: MorseCerfFamily, reverse=False) -> list:
    """Step maps along the grid, or back along it when reverse is set.

    Walking an interval backwards swaps its ends, and a cusp's birth
    becomes a death and vice versa.
    """
    d = fam.diagram()
    grid = fam.grid
    order = range(len(grid) - 2, -1, -1) if reverse else range(len(grid) - 1)
    maps = []
    for i in order:
        src, dst = (i + 1, i) if reverse else (i, i + 1)
        X = fam.complex_at(src).complex
        Y = fam.complex_at(dst).complex
        lo_t, hi_t = d.tracks[src], d.tracks[dst]
        cusps = [c for c in d.cusps if grid[i] < c.eta < grid[i + 1]]
        if len(cusps) > 1:
            raise EventError("refine the grid: two cusps in one interval")
        if not cusps:
            table = {lo_t[b]: hi_t[b] for b in lo_t}
            h = _pairing_map(X, Y, table)
        else:
            c = cusps[0]
            plus_b, minus_b = c.branches
            if c.indices[0] != 1:
                plus_b, minus_b = minus_b, plus_b
            if (c.kind == "birth") != reverse:
                table = {lo_t[b]: hi_t[b] for b in lo_t}
                h = _birth_map(X, Y, table, hi_t[plus_b], hi_t[minus_b])
            else:
                table = {lo_t[b]: hi_t[b] for b in lo_t if b in hi_t}
                h = _death_map(X, Y, table, lo_t[plus_b], lo_t[minus_b])
        h.verify()
        maps.append(h)
    return maps


def _abstract_step_maps(fam: AbstractCerfFamily, reverse=False) -> list:
    n = len(fam.complexes)
    order = range(n - 2, -1, -1) if reverse else range(n - 1)
    maps = []
    for i in order:
        if reverse:
            X, Y = fam.complexes[i + 1], fam.complexes[i]
        else:
            X, Y = fam.complexes[i], fam.complexes[i + 1]
        st = dict(fam.steps[i])
        if reverse:
            from .cerf import _reverse_step

            st = _reverse_step(st)
        kind = st.get("type", "pairing")
        if kind == "pairing":
            table = {o.id: o.id for o in X.orbits}
            h = _pairing_map(X, Y, table)
        elif kind == "slide":
            h = _slide_map(
                X, Y, st["slide_from"], st["slide_over"],
                st.get("cap", X.group.zero_cap), st.get("coeff", 1),
                invert=st.get("invert", False),
            )
        elif kind == "birth":
            table = {o.id: o.id for o in X.orbits}
            h = _birth_map(X, Y, table, st["plus"], st["minus"])
        elif kind == "death":
            table = {
                o.id: o.id for o in X.orbits if o.id not in (st["plus"], st["minus"])
            }
            h = _death_map(X, Y, table, st["plus"], st["minus"])
        else:
            raise EventError(f"unknown declared step {kind!r}")
        h.verify()
        maps.append(h)
    return maps


def continuation_map(fam) -> ChainMap:
    """Composite continuation map of the whole family, left to right."""
    return compose_step_maps(step_maps(fam))


def compose_step_maps(maps) -> ChainMap:
    """Composite of per-interval maps in traversal order, verified."""
    if not maps:
        raise EventError("family has no intervals")
    h = maps[0]
    for m in maps[1:]:
        h = m.compose_after(h)
    h.verify()
    return h


# ---------------------------------------------------------------------------
# gluing and chain homotopies
# ---------------------------------------------------------------------------


def _hom_weight(X, Y):
    def weight(key):
        t, s = key
        return Y.weight(t) - X.weight(s)

    return weight


def solve_chain_homotopy(direct: ChainMap, composed: ChainMap) -> ChainHomotopy:
    """Smallest-shift H with direct - composed = dH + Hd, exact."""
    X, Y = direct.source, direct.target
    dvec: dict = {}
    for o in X.orbits:
        x = NovikovChain.unit(X.group, o.id)
        diff = direct.apply(x) - composed.apply(x)
        for t, u in diff.coeffs.items():
            dvec[(t, o.id)] = u
    if not dvec:
        return ChainHomotopy(X, Y, {})
    unknowns = [
        (t.id, s.id)
        for t in Y.orbits
        for s in X.orbits
        if t.index == s.index + 1
    ]
    columns = []
    for (t, s) in unknowns:
        # d_Y o E_{t,s}
        col = {(t2, s): c for t2, c in Y.boundary.get(t, {}).items()}
        # E_{t,s} o d_X: x contributes when d_X x hits s
        vec_axpy(col, None, {(t, src): row[s] for src, row in X.boundary.items() if s in row})
        unit = NovikovScalar.one(X.group)
        columns.append((col, {(t, s): unit}))
    hvec = Decomposition(columns, _hom_weight(X, Y)).preimage(dvec)
    if hvec is None:
        raise ChainMapError("maps are not chain homotopic")
    H = ChainHomotopy(X, Y, hvec)
    H.verify_identity(direct, composed)
    return H


def glue_maps(h1: ChainMap, h2: ChainMap, fam1, fam2):
    """(composed, direct, homotopy) for consecutive families.

    Event-free or identically partitioned runs compose to the direct map
    exactly; otherwise the returned homotopy witnesses the difference.
    """
    if h1.target.dump() != h2.source.dump():
        raise EventError("chain maps do not share the junction complex")
    composed = h2.compose_after(h1)
    direct = continuation_map(concat(fam1, fam2))
    H = solve_chain_homotopy(direct, composed)
    return composed, direct, H


# ---------------------------------------------------------------------------
# dichotomy classification
# ---------------------------------------------------------------------------


class EntryClassification:
    def __init__(self, thin, slides, violations, a0, eps):
        self.thin = thin
        self.slides = slides
        self.violations = violations
        self.a0 = a0
        self.eps = eps

    @property
    def ok(self):
        return not self.violations

    def __repr__(self):
        return (
            f"EntryClassification(thin={len(self.thin)}, slides={len(self.slides)},"
            f" violations={self.violations})"
        )


def _min_drop(X, excluded) -> ActionValue:
    from .action import POS_INFINITY

    best = POS_INFINITY
    for src, row in X.boundary.items():
        for tgt, scalar in row.items():
            if (src, tgt) in excluded or (tgt, src) in excluded:
                continue
            drop = X.weight(src) - X.weight(tgt) + scalar.valuation()
            if drop < best:
                best = drop
    return best


def dichotomy_constant(fam) -> ActionValue:
    """Minimal positive boundary drop over the family's grid complexes.

    Connections inside a tracked bifurcation pair are excluded: their
    drops vanish at the cusp by design, while the dichotomy constant
    measures the energy floor of all the other trajectories.  Sub-runs
    reuse the parent constant, so restriction never shrinks it.
    """
    from .action import POS_INFINITY

    best = POS_INFINITY
    if isinstance(fam, ConcatFamily):
        return min(dichotomy_constant(fam.parts[0]), dichotomy_constant(fam.parts[1]))
    if fam.is_morse:
        d = fam.diagram()
        for i in range(len(fam.grid)):
            track = d.tracks[i]
            excluded = set()
            for c in d.cusps:
                bp, bm = c.branches
                if bp in track and bm in track:
                    excluded.add((track[bp], track[bm]))
            g = _min_drop(fam.complex_at(i).complex, excluded)
            if g < best:
                best = g
    else:
        for i, X in enumerate(fam.complexes):
            excluded = set()
            for st in fam.steps:
                if st.get("type") in ("birth", "death"):
                    excluded.add((st["plus"], st["minus"]))
            g = _min_drop(X, excluded)
            if g < best:
                best = g
    return best


def classify_entries(h: ChainMap, a0: ActionValue, eps: ActionValue) -> EntryClassification:
    """Thin-or-slide dichotomy of the entry level shifts.

    Thin entries (|shift| <= eps) must connect paired orbits; slides need
    |shift| >= a0 - eps; anything in the middle band is a violation.
    """
    zero = ActionValue.rational(0)
    if not (a0 > eps + eps):
        raise EventError("dichotomy needs a0 > 2*eps")
    thin, slides, violations = [], [], []
    for key in sorted(h.entries):
        shift = h.entry_shift(key)
        mag = shift if shift >= zero else -shift
        tag = h.provenance.get(key, "")
        if mag <= eps:
            if tag not in ("pairing", "birth", "death"):
                violations.append((key, shift, f"thin entry with provenance {tag!r}"))
            else:
                thin.append((key, shift))
        elif mag >= a0 - eps:
            slides.append((key, shift))
        else:
            violations.append((key, shift, "forbidden middle band"))
    return EntryClassification(thin, slides, violations, a0, eps)


# ---------------------------------------------------------------------------
# transferred level curves and tightness
# ---------------------------------------------------------------------------


class MuCurve:
    def __init__(self, etas, values, peaks, bounds: VariationBounds, start_index):
        self.etas = etas
        self.values = values  # ActionValue or NEG_INFINITY per grid point
        self.peaks = peaks
        self.bounds = bounds
        self.start_index = start_index

    def to_csv_rows(self):
        rows = []
        for eta, value, peaks in zip(self.etas, self.values, self.peaks):
            orbit, cap = peaks[0] if peaks else ("", ())
            rows.append((
                f"{eta:.12g}",
                f"{float(value):.12g}",
                orbit,
                "[" + " ".join(str(c) for c in cap) + "]",
            ))
        return rows

    def check_lipschitz(self):
        """|mu(j) - mu(i)| <= E(i, j) pairwise on all sampled pairs."""
        n = len(self.etas)
        pref_n = [Fraction(0)]
        pref_p = [Fraction(0)]
        for a, b in self.bounds.contributions:
            pref_n.append(pref_n[-1] + a)
            pref_p.append(pref_p[-1] + b)
        for i in range(n):
            for j in range(i + 1, n):
                e = ActionValue.rational(
                    (pref_n[j] - pref_n[i]) + (pref_p[j] - pref_p[i])
                )
                diff = self.values[j] - self.values[i]
                if diff > e or -diff > e:
                    return False, (i, j, diff, e)
        return True, None


def transfer_level_curve(alpha0: NovikovChain, fam, start_index: int) -> MuCurve:
    """mu(eta) = level of the transferred cycle, sampled on the grid."""
    if fam.is_morse:
        X0 = fam.complex_at(start_index).complex
        n = len(fam.grid)
        etas = [float(e) for e in fam.grid]
    else:
        X0 = fam.complexes[start_index]
        n = len(fam.complexes)
        etas = [float(e) for e in fam.grid]
    if not X0.is_cycle(alpha0):
        raise NotACycleError("transfer needs a cycle at the start parameter")
    fwd = step_maps(fam)
    bwd = step_maps(fam, reverse=True)
    values = [None] * n
    peaks = [None] * n
    chains = [None] * n
    chains[start_index] = alpha0
    cur = alpha0
    for i in range(start_index, n - 1):
        cur = fwd[i].apply(cur)
        chains[i + 1] = cur
    cur = alpha0
    for i in range(start_index - 1, -1, -1):
        # bwd is ordered from the top interval downward
        cur = bwd[n - 2 - i].apply(cur)
        chains[i] = cur
    for i, ch in enumerate(chains):
        X = fam.complex_at(i).complex if fam.is_morse else fam.complexes[i]
        values[i] = X.level(ch)
        peaks[i] = X.peaks(ch) if ch else []
    return MuCurve(etas, values, peaks, variation_bounds(fam), start_index)


class TightnessReport:
    def __init__(self, start_index, alpha_minus, alpha_plus, tight_left, tight_right,
                 failures):
        self.start_index = start_index
        self.alpha_minus = alpha_minus
        self.alpha_plus = alpha_plus
        self.tight_left = tight_left
        self.tight_right = tight_right
        self.failures = failures

    @property
    def ok(self):
        return not self.failures

    @property
    def split(self):
        return not (self.alpha_minus == self.alpha_plus)


def _tight_cycles_at(X, cls):
    """Tight representatives: the reduced one, plus the one-sided variants
    obtained by moving the peak across an equal-level crossing."""
    res = rho(X, cls)
    out = [res.tight_cycle]
    deg = X.degree_of(res.tight_cycle)
    for shifted in equal_level_corrections(X, deg, res.value):
        cand = vec_axpy(dict(res.tight_cycle.coeffs), None, shifted)
        cand_chain = NovikovChain(X.group, cand)
        if not cand_chain.is_zero() and X.level(cand_chain) == res.value:
            out.append(cand_chain)
    return res, out


def tightness_transfer_check(fam, cls, start_index: int) -> TightnessReport:
    """Transferred tight cycles stay tight on one-sided neighborhoods.

    At a crossing the left and right tight cycles may differ; both are
    tried and the report records which transfer realizes the mini-max on
    each side of the start parameter.
    """
    n = len(fam.grid) if fam.is_morse else len(fam.complexes)

    def complex_at(i):
        return fam.complex_at(i).complex if fam.is_morse else fam.complexes[i]

    X0 = complex_at(start_index)
    _, candidates = _tight_cycles_at(X0, cls)
    failures = []
    # each direction's maps are built and verified once, for every candidate
    fwd = step_maps(fam) if start_index < n - 1 else []
    bwd = step_maps(fam, reverse=True) if start_index > 0 else []
    # bwd is ordered from the top interval downward
    right = (range(start_index, n), fwd[start_index:])
    left = (range(start_index, -1, -1), bwd[n - 1 - start_index:])

    def stays_tight(alpha, indices, maps):
        cur = alpha
        for k, i in enumerate(indices):
            if k:
                cur = maps[k - 1].apply(cur)
            X = complex_at(i)
            if X.level(cur) != rho(X, cur).value:
                return False
        return True

    alpha_plus = next((a for a in candidates if stays_tight(a, *right)), None)
    alpha_minus = next((a for a in candidates if stays_tight(a, *left)), None)
    if alpha_plus is None:
        failures.append("no candidate stays tight on the right")
    if alpha_minus is None:
        failures.append("no candidate stays tight on the left")
    return TightnessReport(
        start_index, alpha_minus, alpha_plus,
        alpha_minus is not None, alpha_plus is not None, failures,
    )


def rho_curve(fam, cls_name: str) -> list:
    """Exact mini-max values of a named class at every grid parameter."""
    out = []
    n = len(fam.grid) if fam.is_morse else len(fam.complexes)
    for i in range(n):
        if fam.is_morse:
            rep = fam.complex_at(i)
            chain = rep.class_chain(cls_name)
            res = rho(rep.complex, chain)
        else:
            X = fam.complexes[i]
            res = rho(X, cls_name)
        out.append((float(fam.grid[i]), res))
    return out
