"""Filtered chain complexes over Novikov scalars.

A complex stores one row/column per orbit; the infinite equivariant lift
is presented through the scalar coefficients.  A lifted generator
(orbit z, cap A) sits at level(z) - omega(A) with index index(z) - 2 c1(A).
Validation enforces the two matrix axioms: every boundary contribution
strictly lowers the level, and the boundary squares to zero.

Levels are compared on integers.  Each complex has one `LevelForm`: a
scale L that clears the denominators of its orbit levels and its group's
generators, so L*level(z) is a key x_z (+ y_z sqrt(d)) and the lifted
generator (z, A) has the key key(z) - cap(A).  The filtration check, the
level order, the gap, the term levels of elimination (`term`), the peaks
and the spectrum's witnesses all read keys; an ActionValue is built only
for a result (`level`, `filtration_gap`, an orbit's `level` attribute).
An orbit given by integers (`Orbit.scaled`) builds its ActionValue only if
it is read.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Iterable, Mapping

from .action import (
    POS_INFINITY,
    ActionValue,
    LevelForm,
    NovikovScalar,
    PeriodGroup,
)
from .errors import (
    ComplexStructureError,
    DegreeError,
    FiltrationError,
    NotACycleError,
)
from . import reduction

__all__ = [
    "Orbit",
    "NovikovChain",
    "FilteredComplex",
    "SpecSet",
    "HomologyClass",
]


class Orbit:
    """An orbit id, its level and its index.  `parts` is the level in
    integers, (x, y, den, d) with level == (x + y*sqrt(d)) / den."""

    __slots__ = ("id", "index", "parts", "_level")

    def __init__(self, id: str, level, index: int):
        self.id = str(id)
        self._level = ActionValue.coerce(level)
        self.parts = self._level.parts()
        self.index = int(index)

    @classmethod
    def scaled(cls, id: str, x: int, den: int, index: int) -> "Orbit":
        """The orbit at the rational level x / den, for integers x and den > 0."""
        out = object.__new__(cls)
        out.id, out.index, out.parts, out._level = id, index, (x, 0, den, 0), None
        return out

    @property
    def level(self) -> ActionValue:
        if self._level is None:
            x, y, den, d = self.parts
            self._level = ActionValue(Fraction(x, den), Fraction(y, den), d)
        return self._level

    def __repr__(self):
        return f"Orbit({self.id!r}, level={self.level!r}, index={self.index})"


class NovikovChain:
    """Finite orbit support with Novikov scalar coefficients."""

    __slots__ = ("group", "coeffs")

    def __init__(self, group: PeriodGroup, coeffs: Mapping[str, NovikovScalar] | None = None):
        self.group = group
        self.coeffs = {}
        if coeffs:
            for k, s in coeffs.items():
                if not s.is_zero():
                    self.coeffs[str(k)] = s

    @staticmethod
    def unit(group: PeriodGroup, orbit_id: str, cap=None, coeff=1) -> "NovikovChain":
        cap = group.zero_cap if cap is None else cap
        return NovikovChain(group, {orbit_id: NovikovScalar.monomial(group, cap, coeff)})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __add__(self, other: "NovikovChain") -> "NovikovChain":
        out = reduction.vec_axpy(dict(self.coeffs), None, other.coeffs)
        return NovikovChain(self.group, out)

    def __sub__(self, other: "NovikovChain") -> "NovikovChain":
        return self + (-other)

    def __neg__(self):
        return NovikovChain(self.group, {k: -s for k, s in self.coeffs.items()})

    def scaled(self, u) -> "NovikovChain":
        if isinstance(u, NovikovScalar):
            if u.is_zero():
                return NovikovChain(self.group)
            return NovikovChain(self.group, {k: u * s for k, s in self.coeffs.items()})
        return NovikovChain(
            self.group, {k: s.scale(Fraction(u)) for k, s in self.coeffs.items()}
        )

    def __eq__(self, other):
        if not isinstance(other, NovikovChain):
            return NotImplemented
        return (self - other).is_zero()

    def __hash__(self):
        raise TypeError("NovikovChain is not hashable")

    def __repr__(self):
        if not self.coeffs:
            return "0"
        return " + ".join(f"({s!r})*{k}" for k, s in sorted(self.coeffs.items()))

    def to_json(self) -> list:
        return [
            {"orbit": k, "scalar": s.to_json()} for k, s in sorted(self.coeffs.items())
        ]

    @staticmethod
    def from_json(group: PeriodGroup, obj) -> "NovikovChain":
        return NovikovChain(
            group, {t["orbit"]: NovikovScalar.from_json(group, t["scalar"]) for t in obj}
        )


class SpecSet:
    """Action spectrum: orbit levels modulo translation by the period group."""

    __slots__ = ("group", "orbits", "_form", "_keys")

    def __init__(self, group: PeriodGroup, orbits: Iterable[Orbit], form: LevelForm, keys):
        """`form` and `keys` are the complex's level form and orbit keys."""
        self.group = group
        self.orbits = tuple(orbits)
        self._form, self._keys = form, keys

    @property
    def levels(self) -> tuple:
        """(orbit id, level) pairs."""
        return tuple((o.id, o.level) for o in self.orbits)

    def witness(self, value: ActionValue):
        """(orbit id, cap) with level(orbit) - omega(cap) == value, or None."""
        v = self._form.key_of(value)
        if v is None:  # L*(level - omega) is a key, so no such orbit and cap
            return None
        for o in self.orbits:
            cap = self._form.cap_of(self._keys[o.id] - v)
            if cap is not None:
                return o.id, cap
        return None

    def __repr__(self):
        return f"SpecSet({[(o, repr(l)) for o, l in self.levels]})"


class HomologyClass:
    __slots__ = ("id", "degree", "representative")

    def __init__(self, id: str, degree: int, representative: NovikovChain):
        self.id = id
        self.degree = degree
        self.representative = representative

    def __repr__(self):
        return f"HomologyClass({self.id!r}, degree={self.degree})"


class FilteredComplex:
    """Orbit basis plus a strictly level-lowering boundary matrix."""

    def __init__(self, group: PeriodGroup, orbits: Iterable[Orbit], boundary: Mapping):
        """boundary maps source orbit id -> {target orbit id -> NovikovScalar}."""
        self.group = group
        self.orbits = tuple(sorted(orbits, key=lambda o: o.id))
        self._by_id = {}
        for o in self.orbits:
            if o.id in self._by_id:
                raise ComplexStructureError(f"duplicate orbit id {o.id!r}")
            self._by_id[o.id] = o
        self.boundary = {}
        for src, row in boundary.items():
            entries = {}
            for tgt, scalar in row.items():
                if scalar.is_zero():
                    continue
                entries[str(tgt)] = scalar
            if entries:
                self.boundary[str(src)] = entries
        self._set_levels(LevelForm.of(group, [o.parts for o in self.orbits]))
        self._validate()
        self._decompositions: dict = {}
        self._homology_cache = None
        self._order = None

    def _set_levels(self, form: LevelForm):
        self.form = form
        self.keys = {o.id: form.key(o.parts) for o in self.orbits}

    # -- validation -------------------------------------------------------

    def _validate(self):
        """Checks each entry, cap by cap, and records the entries as
        (source, target, caps) for the drop checks and the gap."""
        entries = []
        for src, row in self.boundary.items():
            if src not in self._by_id:
                raise ComplexStructureError(f"boundary from unknown orbit {src!r}")
            s_orb = self._by_id[src]
            for tgt, scalar in row.items():
                if tgt not in self._by_id:
                    raise ComplexStructureError(f"boundary into unknown orbit {tgt!r}")
                if not scalar.is_finite:
                    raise ComplexStructureError(
                        f"boundary entry {src}->{tgt} must have finite support"
                    )
                t_orb = self._by_id[tgt]
                caps = tuple(scalar.num)
                for cap in caps:
                    if s_orb.index - 1 != t_orb.index - 2 * self.group.c1(cap):
                        raise ComplexStructureError(
                            f"entry {src}->{tgt} cap {cap} breaks the degree convention"
                        )
                    self._check_drop(src, tgt, cap)
                entries.append((src, tgt, caps))
        self._entries = tuple(entries)
        for src, row in self.boundary.items():
            if reduction.vec_apply(self.boundary, row):
                raise ComplexStructureError(f"boundary does not square to zero at {src!r}")

    def _check_drop(self, src, tgt, cap):
        """The filtration axiom at one lifted entry: it lowers the level."""
        drop = self.keys[src] - self.keys[tgt] + self.form.cap(cap)
        if drop <= 0:
            raise FiltrationError(f"entry {src}->{tgt} cap {cap} does not lower the level"
                                  f" (drop {self.form.value(drop)!r})")

    # -- re-levelling ----------------------------------------------------------

    def relevelled(self, orbits: Iterable[Orbit]) -> "FilteredComplex":
        """This complex with new orbit levels: the same orbit ids and indices,
        and the same boundary object.  Its entries, their degrees and its
        square, zero, do not depend on the levels, so only the filtration
        (drop) check runs again, over the shared entry list.  At an equal
        scale the level form, with its cap keys, is shared as well.

        Over the trivial group every term level is an orbit level, and the
        elimination of a map out of degree k compares only levels inside
        one degree.  So when each degree orders its orbit levels as this
        complex does, ties included, every cached decomposition carries
        over: image, kernel and kernel basis are shared, and the levels are
        read off the new orbits.  Otherwise the new complex eliminates
        lazily, as a fresh one would.
        """
        X = object.__new__(FilteredComplex)
        X.group, X.boundary, X._entries = self.group, self.boundary, self._entries
        X.orbits = tuple(sorted(orbits, key=lambda o: o.id))
        if [(o.id, o.index) for o in X.orbits] != [(o.id, o.index) for o in self.orbits]:
            raise ComplexStructureError("a relevelled complex keeps the orbit ids and indices")
        X._by_id = {o.id: o for o in X.orbits}
        form = LevelForm.of(self.group, [o.parts for o in X.orbits])
        same = form.scale == self.form.scale and form.d == self.form.d
        X._set_levels(self.form if same else form)  # a shared form shares its cap keys
        for src, tgt, caps in X._entries:
            for cap in caps:
                X._check_drop(src, tgt, cap)
        X._decompositions, X._homology_cache, X._order = {}, None, None
        if self._decompositions and self.group.rank == 0 and X._orders_as(self._level_order()):
            X._order = self._order
            X._decompositions = {
                k: dec.relevelled(X.term, partial(X.boundary_basis, k))
                for k, dec in self._decompositions.items()}
        return X

    def _level_order(self) -> list:
        """Each degree's orbits in level order, ties broken by id, as the
        consecutive pairs (a, b, tie): the preorder of the levels."""
        if self._order is None:
            self._order = []
            keys = self.keys
            for k in self.degrees():
                ids = sorted(self.orbit_ids(k), key=keys.__getitem__)  # stable: ids in id order
                self._order += [(a, b, keys[a] == keys[b]) for a, b in zip(ids, ids[1:])]
        return self._order

    def _orders_as(self, order) -> bool:
        """Whether these levels have the preorder `order` of `_level_order`."""
        keys = self.keys
        return all(keys[a] == keys[b] if tie else keys[a] < keys[b] for a, b, tie in order)

    # -- basic accessors -----------------------------------------------------

    def orbit(self, oid: str) -> Orbit:
        try:
            return self._by_id[oid]
        except KeyError:
            raise ComplexStructureError(f"unknown orbit {oid!r}") from None

    def orbit_ids(self, index: int | None = None) -> list:
        return [o.id for o in self.orbits if index is None or o.index == index]

    def degrees(self) -> list:
        return sorted({o.index for o in self.orbits})

    def term(self, oid: str, scalar: NovikovScalar):
        """The key of the term scalar*oid's level: key(oid) minus the key
        of omega at the scalar's leading cap."""
        if not self.group.rank:
            return self.keys[oid]
        return self.keys[oid] - self.form.cap(scalar.leading_cap())

    # -- chain operations ------------------------------------------------------

    def degree_of(self, chain: NovikovChain):
        idxs = {self._by_id[k].index for k in chain.coeffs}
        if not idxs:
            return None
        if len(idxs) > 1:
            return "mixed"
        return idxs.pop()

    def _pure(self, chain: NovikovChain, degree: int | None) -> NovikovChain:
        deg = self.degree_of(chain)
        if deg == "mixed":
            if degree is None:
                raise DegreeError(
                    "mixed-degree chain: declare the degree to filter by"
                )
            kept = {
                k: s for k, s in chain.coeffs.items() if self._by_id[k].index == degree
            }
            return NovikovChain(self.group, kept)
        return chain

    def level(self, chain: NovikovChain, degree: int | None = None):
        chain = self._pure(chain, degree)
        return self.form.value(reduction.vec_level(chain.coeffs, self.term))

    def peaks(self, chain: NovikovChain, degree: int | None = None) -> list:
        """Lifted generators (orbit id, cap) achieving the level."""
        chain = self._pure(chain, degree)
        return reduction.vec_peaks(chain.coeffs, self.term)

    def boundary_of(self, chain: NovikovChain) -> NovikovChain:
        return NovikovChain(self.group, reduction.vec_apply(self.boundary, chain.coeffs))

    def is_cycle(self, chain: NovikovChain) -> bool:
        return self.boundary_of(chain).is_zero()

    # -- global quantities ----------------------------------------------------

    def filtration_gap(self, excluded=()):
        """Minimal level drop over all boundary contributions; +inf if there
        are none.  A connection between the orbits of a pair in `excluded`,
        in either direction, does not count."""
        return self.form.value(self.gap_key(excluded))

    def gap_key(self, excluded=()):
        """The key of `filtration_gap`, or +inf: a minimum over the entry
        list, which every re-levelled complex shares, at these levels."""
        gap = POS_INFINITY
        keys, cap, lowest = self.keys, self.form.cap, self.group.lowest
        for src, tgt, caps in self._entries:
            if (src, tgt) in excluded or (tgt, src) in excluded:
                continue
            drop = keys[src] - keys[tgt] + cap(lowest(caps))
            if gap is POS_INFINITY or drop < gap:
                gap = drop
        return gap

    def spectrum(self) -> SpecSet:
        return SpecSet(self.group, self.orbits, self.form, self.keys)

    # -- the boundary maps ----------------------------------------------------

    def decomposition(self, degree: int) -> reduction.Decomposition:
        """The cached decomposition of d out of degree `degree`: its image
        basis lies in degree - 1, its kernel in degree."""
        if degree not in self._decompositions:
            one = NovikovScalar.one(self.group)
            # orthogonalize copies its inputs, so the rows are passed as they are
            cols = [(self.boundary.get(oid, {}), {oid: one}) for oid in self.orbit_ids(degree)]
            self._decompositions[degree] = reduction.Decomposition(
                cols, self.term, partial(self.boundary_basis, degree))
        return self._decompositions[degree]

    def boundary_basis(self, degree: int):
        """Level-orthogonal basis of the boundaries inside degree `degree`."""
        return self.decomposition(degree + 1).image

    # -- homology ------------------------------------------------------------

    def homology_basis(self) -> list:
        """Classes per degree with explicit representative cycles: the
        kernel basis of d out of each degree past its boundary basis."""
        if self._homology_cache is None:
            self._homology_cache = [
                HomologyClass(f"h{k}_{i}", k, NovikovChain(self.group, r.vec))
                for k in self.degrees()
                for i, r in enumerate(
                    self.decomposition(k).kernel_basis[len(self.boundary_basis(k)):])
            ]
        return self._homology_cache

    def homology_class(self, class_id: str) -> HomologyClass:
        for c in self.homology_basis():
            if c.id == class_id:
                return c
        raise ComplexStructureError(f"unknown homology class {class_id!r}")

    def homologous(self, a: NovikovChain, b: NovikovChain):
        """(True, witness) iff a - b bounds; the witness has that boundary."""
        for c in (a, b):
            if not self.is_cycle(c):
                raise NotACycleError("homologous() expects cycles")
        diff = a - b
        if diff.is_zero():
            return True, NovikovChain(self.group)
        deg = self.degree_of(diff)
        if deg == "mixed":
            raise DegreeError("homologous() expects equal pure degrees")
        delta = self.decomposition(deg + 1).some_preimage(diff.coeffs)
        if delta is None:
            return False, None
        return True, NovikovChain(self.group, delta)

    # -- presentation -----------------------------------------------------------

    def dump(self) -> str:
        """Canonical textual form for golden tests."""
        lines = []
        lines.append(f"group {self.group.to_json()}")
        for o in self.orbits:
            lines.append(f"orbit {o.id} level {o.level!r} index {o.index}")
        for src in sorted(self.boundary):
            for tgt in sorted(self.boundary[src]):
                lines.append(f"d {src} -> {tgt}: {self.boundary[src][tgt]!r}")
        return "\n".join(lines) + "\n"

    def to_json(self) -> dict:
        return {
            "orbits": [
                {"id": o.id, "level": o.level.to_json(), "index": o.index}
                for o in self.orbits
            ],
            "boundary": [
                {"from": src, "to": tgt, "scalar": self.boundary[src][tgt].to_json()}
                for src in sorted(self.boundary)
                for tgt in sorted(self.boundary[src])
            ],
        }

    @staticmethod
    def from_json(group: PeriodGroup, obj: Mapping) -> "FilteredComplex":
        orbits = [
            Orbit(
                spec["id"],
                ActionValue.from_json(spec["level"], group.d),
                spec["index"],
            )
            for spec in obj["orbits"]
        ]
        boundary: dict = {}
        for e in obj.get("boundary", []):
            reduction.vec_axpy(boundary.setdefault(e["from"], {}), None,
                               {e["to"]: NovikovScalar.from_json(group, e["scalar"])})
        return FilteredComplex(group, orbits, boundary)
