"""Continuation maps along families with energy bookkeeping.

Away from events a continuation step identifies paired generators; a
birth inserts the new pair with the normal-form correction, a death
cancels it by the inverse elementary operation, and a declared handle
slide contributes a transvection.  Every constructed map is a chain map,
checked exactly, and its level shifts are bounded by the negative
variation of the family.  Every event step and every composite is
checked per column by `ChainMap.verify`.

Between events the task is carried, as the paper's structure theorem
says it may be: a pairing step only relabels generators.  When its table
is a bijection of the orbits that carries one boundary onto the other
(`_carries_boundary`), the step is a chain map by construction, and it is
kept as that table (`ChainMap.carried`), with no scalar entries.  Its
entry shifts are the level changes of paired orbits, so the thin-or-slide
verdict (`classify_entries`) reads them off the two slices' integer level
keys; a run of carried steps composes as tables, and scalar composition
(`compose_after`) runs only across the event steps.  The complexes that
share one boundary object share one entry list, so the dichotomy
constant is a minimum over that list at each slice's levels
(`FilteredComplex.gap_key`).  This is the carried decomposition of
Usher & Zhang, "Persistent homology and Floer-Novikov theory" (Geom.
Topol. 2016), read off a Cerf family.

Maps are stored, like a boundary, as columns {source: {target: scalar}}
and applied by `reduction.vec_apply`; identities are checked per column.
A composite entry's provenance joins the non-pairing tags of all its
paths, so it does not depend on the order in which they are summed.

A family is read only through the contract of `cerf.AbstractCerfFamily`,
which closed-form, declared and concatenated families all give: `grid`,
`chain_complex(i)`, `step(i, reverse)` (a declared-step dict with a
"table" of paired orbit ids), `cusp_pairs(i)` and `class_at(i, cls)`.  So
one `_step_map` builds every step, whether the walker found the event or
the family declared it, and a concatenation is walked like any family.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from .action import POS_INFINITY, ActionValue, NovikovScalar
from .cerf import concat
from .complexes import FilteredComplex, NovikovChain
from .errors import ChainMapError, EventError, NotACycleError
from .reduction import Decomposition, vec_apply, vec_axpy, vec_level
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
    "classify_steps",
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

    def __repr__(self):
        return (
            f"VariationBounds(e_minus={self.e_minus!r}, e_plus={self.e_plus!r})"
        )


def variation_bounds(fam) -> VariationBounds:
    return VariationBounds(fam.variation_contributions())


class _SparseMap:
    """Sparse scalar matrix, given as entries (target id, source id) ->
    NovikovScalar and stored as `columns`, {source id: {target id: scalar}},
    the form of `FilteredComplex.boundary`.  `entries` is the flat view.
    """

    def __init__(self, source: FilteredComplex, target: FilteredComplex, entries=None):
        self.source = source
        self.target = target
        self.columns: dict = {}
        for (tgt, src), u in (entries or {}).items():
            if not u.is_zero():
                self.columns.setdefault(src, {})[tgt] = u

    @property
    def entries(self) -> dict:
        return {(t, s): u for s, col in self.columns.items() for t, u in col.items()}

    def apply(self, chain: NovikovChain) -> NovikovChain:
        return NovikovChain(self.target.group, vec_apply(self.columns, chain.coeffs))


class ChainMap(_SparseMap):
    """Degree-zero map between complexes as a sparse scalar matrix.

    A carried map is given by its `table` alone (`carried`); every other
    map has table None."""

    def __init__(self, source: FilteredComplex, target: FilteredComplex,
                 entries=None, provenance=None):
        super().__init__(source, target, entries)
        self.provenance = provenance or {}
        self.table = None

    @classmethod
    def carried(cls, source: FilteredComplex, target: FilteredComplex, table: dict):
        """The map s -> table[s], each entry one with provenance "pairing",
        for a bijection of the orbits that carries source's boundary onto
        target's: a chain map by construction."""
        out = object.__new__(cls)
        out.source, out.target, out.table = source, target, table
        return out

    # A carried map builds its columns and provenance on first read; the
    # instance attributes that __init__ sets shadow these for every other map.
    @cached_property
    def columns(self) -> dict:
        one = NovikovScalar.one(self.source.group)
        return {s: {t: one} for s, t in self.table.items()}

    @cached_property
    def provenance(self) -> dict:
        return {(t, s): "pairing" for s, t in self.table.items()}

    @staticmethod
    def identity(X: FilteredComplex) -> "ChainMap":
        return ChainMap.carried(X, X, {o.id: o.id for o in X.orbits})

    def compose_after(self, first: "ChainMap") -> "ChainMap":
        """self o first.  An entry's provenance joins the non-pairing tags
        of every path t <- m <- s through it, "pairing" if there are none.
        Two carried maps compose as tables."""
        if self.table is not None and first.table is not None:
            return ChainMap.carried(first.source, self.target,
                                    {s: self.table[m] for s, m in first.table.items()})
        ent: dict = {}
        prov: dict = {}
        for s, col in first.columns.items():
            for t, c in vec_apply(self.columns, col).items():
                ent[(t, s)] = c
                tags = set()
                for m in col:
                    if t in self.columns.get(m, {}):
                        tags.update((self.provenance.get((t, m)), first.provenance.get((m, s))))
                tags -= {None, "pairing"}
                prov[(t, s)] = "+".join(sorted(tags)) if tags else "pairing"
        return ChainMap(first.source, self.target, ent, prov)

    def verify(self):
        """Exact chain-map identity d f = f d, one source column at a time;
        raises on failure (internal bug guard)."""
        for o in self.source.orbits:
            lhs = vec_apply(self.target.boundary, self.columns.get(o.id, {}))
            if lhs != vec_apply(self.columns, self.source.boundary.get(o.id, {})):
                raise ChainMapError(f"chain-map identity fails at {o.id}")
        return True

    def entry_shifts(self) -> tuple:
        """(form, shifts): `shifts` lists (entry key, shift, provenance) in
        key order, each shift level(target lift) - level(source) as a key
        of `form`, the level form common to source and target.  A carried
        map's shifts are the level changes of its paired orbits."""
        X, Y = self.source, self.target
        form, fx, fy = X.form.common(Y.form)
        xk = X.keys
        if self.table is not None:
            yk = Y.keys
            shifts = [((t, s), yk[t] * fy - xk[s] * fx, "pairing")
                      for s, t in self.table.items()]
        else:
            prov = self.provenance
            shifts = [((t, s), Y.term(t, u) * fy - xk[s] * fx, prov.get((t, s), ""))
                      for s, col in self.columns.items() for t, u in col.items()]
        shifts.sort(key=lambda e: e[0])
        return form, shifts

    def to_json(self) -> list:
        ent = self.entries
        return [
            {"from": s, "to": t, "scalar": ent[(t, s)].to_json(),
             "provenance": self.provenance.get((t, s), "")}
            for (t, s) in sorted(ent)
        ]


class ChainHomotopy(_SparseMap):
    """Degree +1 correction with the total-variation level bound."""

    def is_zero(self) -> bool:
        return not self.columns

    def verify_identity(self, direct: ChainMap, composed: ChainMap):
        """direct == composed + boundary o H + H o boundary, exactly, one
        source column at a time."""
        for o in self.source.orbits:
            rhs = vec_apply(self.target.boundary, self.columns.get(o.id, {}))
            vec_axpy(rhs, None, vec_apply(self.columns, self.source.boundary.get(o.id, {})))
            vec_axpy(rhs, None, composed.columns.get(o.id, {}))
            if rhs != direct.columns.get(o.id, {}):
                raise ChainMapError(f"homotopy identity fails at {o.id}")
        return True


# ---------------------------------------------------------------------------
# step maps
# ---------------------------------------------------------------------------


def _carries_boundary(table: dict, X, Y) -> bool:
    """Whether `table` is a bijection of X's orbits onto Y's under which
    the two boundaries agree, so that s -> table[s] is a chain map.  The
    identity table carries a boundary object that X and Y share."""
    if table.keys() != X.keys.keys() or len(Y.keys) != len(table) or \
            Y.keys.keys() != set(table.values()):
        return False
    if X.boundary is Y.boundary and all(s == t for s, t in table.items()):
        return True
    return Y.boundary == {table[s]: {table[t]: c for t, c in row.items()}
                          for s, row in X.boundary.items()}


def _step_map(X, Y, st) -> ChainMap:
    """The verified chain map of one step (see `AbstractCerfFamily`).

    Every source orbit in the step's table goes to its paired orbit.  A
    birth of (plus, minus) in Y corrects x -> xbar - u^{-1} <d xbar, minus>
    plus, with u = <d plus, minus> in Y: the unique level-respecting chain
    map extending the pairing.  A death of (plus, minus) in X cancels it:
    plus -> 0 and minus -> -u^{-1} * (image of d plus - u*minus), with u
    computed in X.  A slide adds the transvection c q^cap from slide_from
    to slide_over, negated when inverted.  A crossing is a pairing.

    A pairing or crossing step whose table carries X's boundary onto Y's
    (`_carries_boundary`) is a chain map by construction and is kept as
    its table (`ChainMap.carried`); every other step is checked by
    `ChainMap.verify`.
    """
    kind, table = st.get("type", "pairing"), st["table"]
    if kind in ("pairing", "crossing") and _carries_boundary(table, X, Y):
        return ChainMap.carried(X, Y, table)
    if kind in ("birth", "death"):
        plus, minus = st["plus"], st["minus"]
        u = (Y if kind == "birth" else X).boundary.get(plus, {}).get(minus)
        if u is None or u.is_zero():
            side = "target" if kind == "birth" else "source"
            raise ChainMapError(f"{kind} pair is not connected in the {side} complex")
    one = NovikovScalar.one(X.group)
    ent, prov = {}, {}

    def add(key, c, tag):
        vec_axpy(ent, None, {key: c})
        prov[key] = tag

    for s, t in table.items():
        add((t, s), one, "pairing")
        if kind == "birth":
            hit = Y.boundary.get(t, {}).get(minus)
            if hit is not None and not hit.is_zero():
                add((plus, s), -(hit / u), "birth")
    if kind == "death":
        for tgt, c in X.boundary.get(plus, {}).items():
            if tgt == minus:
                continue
            if tgt not in table:
                raise ChainMapError("death remainder leaves the paired basis")
            add((table[tgt], minus), -(c / u), "death")
    elif kind == "slide":
        c = NovikovScalar.monomial(X.group, tuple(st.get("cap", X.group.zero_cap)),
                                   Fraction(st.get("coeff", 1)))
        add((str(st["slide_over"]), str(st["slide_from"])),
            -c if st.get("invert", False) else c, "slide")
    h = ChainMap(X, Y, ent, prov)
    h.verify()
    return h


def step_maps(fam, reverse=False) -> list:
    """Per-interval chain maps in traversal order, each verified or carried
    (`_step_map`); with reverse set, the maps back along the grid from its
    top end."""
    n = len(fam.grid)
    maps = []
    for i in range(n - 2, -1, -1) if reverse else range(n - 1):
        st = fam.step(i, reverse)
        src, dst = (i + 1, i) if reverse else (i, i + 1)
        maps.append(_step_map(fam.chain_complex(src), fam.chain_complex(dst), st))
    return maps


def continuation_map(fam) -> ChainMap:
    """Composite continuation map of the whole family, left to right."""
    return compose_step_maps(step_maps(fam))


def compose_step_maps(maps) -> ChainMap:
    """Composite of per-interval maps in traversal order, verified.  Each
    run of carried maps composes as tables first, so scalar composition
    runs only across the other steps.  A carried map relabels entries one
    to one and keeps their tags, so the grouping leaves every entry and
    its provenance as the step-by-step composite has them."""
    if not maps:
        raise EventError("family has no intervals")
    runs = []
    for m in maps:
        if runs and m.table is not None and runs[-1].table is not None:
            runs[-1] = m.compose_after(runs[-1])
        else:
            runs.append(m)
    h = runs[0]
    for m in runs[1:]:
        h = m.compose_after(h)
    h.verify()
    return h


# ---------------------------------------------------------------------------
# gluing and chain homotopies
# ---------------------------------------------------------------------------


def _hom_term(X, Y):
    """Term levels of the Hom space from X to Y: the key of the entry u at
    (t, s) is level(t) - valuation(u) - level(s), in the form common to X
    and Y."""
    _, fx, fy = X.form.common(Y.form)

    def term(key, u):
        t, s = key
        return Y.term(t, u) * fy - X.keys[s] * fx

    return term


def solve_chain_homotopy(direct: ChainMap, composed: ChainMap) -> ChainHomotopy:
    """Smallest-shift H with direct - composed = dH + Hd, exact."""
    X, Y = direct.source, direct.target
    one = NovikovScalar.one(X.group)
    dvec: dict = {}
    for o in X.orbits:
        diff = vec_axpy(dict(direct.columns.get(o.id, {})), -one, composed.columns.get(o.id, {}))
        for t, u in diff.items():
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
        columns.append((col, {(t, s): one}))
    hvec = Decomposition(columns, _hom_term(X, Y)).preimage(dvec)
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


def dichotomy_constant(fam) -> ActionValue:
    """Minimal positive boundary drop over the family's grid complexes.

    Connections inside a tracked bifurcation pair are excluded: their
    drops vanish at the cusp by design, while the dichotomy constant
    measures the energy floor of all the other trajectories.  The minimum
    runs over this family's own grid only: a sub-family (`sub_family`)
    computes its constant on its own grid, and it can be smaller or
    larger than the parent's.  Each slice's gap is a key of its level
    form (`FilteredComplex.gap_key`); two keys k/L and k'/L' compare as
    k*L' and k'*L.
    """
    best = form = None
    for i in range(len(fam.grid)):
        X = fam.chain_complex(i)
        gap = X.gap_key(fam.cusp_pairs(i))
        if gap is not POS_INFINITY and (form is None or gap * form.scale < best * X.form.scale):
            best, form = gap, X.form
    return POS_INFINITY if form is None else form.value(best)


def classify_entries(h: ChainMap, a0: ActionValue, eps: ActionValue) -> EntryClassification:
    """Thin-or-slide dichotomy of the entry level shifts.

    Thin entries (|shift| <= eps) must connect paired orbits; slides need
    |shift| >= a0 - eps; anything in the middle band is a violation.
    """
    return classify_steps([h], a0, eps)[0]


def classify_steps(maps, a0: ActionValue, eps: ActionValue) -> list:
    """`classify_entries` of each map.  The shifts are keys of each map's
    level form (`ChainMap.entry_shifts`), and eps and a0 - eps become
    integer bounds once per scale (`LevelForm.bound`)."""
    if not (a0 > eps + eps):
        raise EventError("dichotomy needs a0 > 2*eps")
    slide_floor = a0 - eps
    bounds: dict = {}  # (scale, d) -> the bounds of eps and of the slide floor
    out = []
    for h in maps:
        form, shifts = h.entry_shifts()
        b = bounds.get((form.scale, form.d))
        if b is None:
            b = bounds[(form.scale, form.d)] = form.bound(eps) + form.bound(slide_floor)
        n_thin, thin_bound, n_slide, slide_bound = b
        thin, slides, violations = [], [], []
        for key, shift, tag in shifts:
            mag = shift if shift >= 0 else -shift
            if mag * n_thin <= thin_bound:
                if tag not in ("pairing", "birth", "death"):
                    violations.append((key, form.value(shift),
                                       f"thin entry with provenance {tag!r}"))
                else:
                    thin.append((key, form.value(shift)))
            elif mag * n_slide >= slide_bound:
                slides.append((key, form.value(shift)))
            else:
                violations.append((key, form.value(shift), "forbidden middle band"))
        out.append(EntryClassification(thin, slides, violations, a0, eps))
    return out


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


def _transport(fam, alpha, start: int, fwd, bwd) -> list:
    """alpha at index `start` carried to every grid index: up by `fwd`,
    down by `bwd`, both as `step_maps` orders them."""
    n = len(fam.grid)
    chains = [None] * n
    chains[start] = alpha
    for i in range(start, n - 1):
        chains[i + 1] = fwd[i].apply(chains[i])
    for i in range(start - 1, -1, -1):
        # bwd is ordered from the top interval downward
        chains[i] = bwd[n - 2 - i].apply(chains[i + 1])
    return chains


def transfer_level_curve(alpha0: NovikovChain, fam, start_index: int) -> MuCurve:
    """mu(eta) = level of the transferred cycle, sampled on the grid."""
    if not fam.chain_complex(start_index).is_cycle(alpha0):
        raise NotACycleError("transfer needs a cycle at the start parameter")
    chains = _transport(fam, alpha0, start_index, step_maps(fam), step_maps(fam, reverse=True))
    values, peaks = [], []
    for i, ch in enumerate(chains):
        X = fam.chain_complex(i)
        values.append(X.level(ch))
        peaks.append(X.peaks(ch) if ch else [])
    etas = [float(e) for e in fam.grid]
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
    key = vec_level(res.tight_cycle.coeffs, X.term)
    for shifted in equal_level_corrections(X, deg, res.value):
        cand = vec_axpy(dict(res.tight_cycle.coeffs), None, shifted)
        if cand and vec_level(cand, X.term) == key:
            out.append(NovikovChain(X.group, cand))
    return res, out


def tightness_transfer_check(fam, cls, start_index: int) -> TightnessReport:
    """Transferred tight cycles stay tight on one-sided neighborhoods.

    At a crossing the left and right tight cycles may differ; both are
    tried and the report records which transfer realizes the mini-max on
    each side of the start parameter.
    """
    n = len(fam.grid)
    _, candidates = _tight_cycles_at(fam.chain_complex(start_index), cls)
    failures = []
    # each direction's maps are built and verified once, for every candidate
    fwd = step_maps(fam) if start_index < n - 1 else []
    bwd = step_maps(fam, reverse=True) if start_index > 0 else []
    walks = [(a, _transport(fam, a, start_index, fwd, bwd)) for a in candidates]

    def stays_tight(chains, indices):
        for i in indices:
            X = fam.chain_complex(i)
            if X.level(chains[i]) != rho(X, chains[i]).value:
                return False
        return True

    alpha_plus = next((a for a, ch in walks if stays_tight(ch, range(start_index, n))), None)
    alpha_minus = next((a for a, ch in walks if stays_tight(ch, range(start_index, -1, -1))), None)
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
    return [(float(fam.grid[i]), rho(fam.chain_complex(i), fam.class_at(i, cls_name)))
            for i in range(len(fam.grid))]
