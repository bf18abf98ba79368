"""Filtered chain complexes over Novikov scalars.

A complex stores one row/column per orbit; the infinite equivariant lift
is presented through the scalar coefficients.  A lifted generator
(orbit z, cap A) sits at level(z) - omega(A) with index index(z) - 2 c1(A).
Validation enforces the two matrix axioms: every boundary contribution
strictly lowers the level, and the boundary squares to zero.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from typing import Iterable, Mapping

from .action import (
    POS_INFINITY,
    ActionValue,
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
    __slots__ = ("id", "level", "index")

    def __init__(self, id: str, level, index: int):
        self.id = str(id)
        self.level = ActionValue.coerce(level)
        self.index = int(index)

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

    __slots__ = ("group", "levels")

    def __init__(self, group: PeriodGroup, levels: Iterable[tuple]):
        self.group = group
        self.levels = tuple(levels)  # (orbit id, level)

    def witness(self, value: ActionValue):
        """(orbit id, cap) with level(orbit) - omega(cap) == value, or None."""
        value = ActionValue.coerce(value)
        for oid, lvl in self.levels:
            cap = self.group.cap_with_omega(lvl - value)
            if cap is not None:
                return oid, cap
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
        self._validate()
        self._decompositions: dict = {}
        self._homology_cache = None
        self._order = None

    # -- validation -------------------------------------------------------

    def _validate(self):
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
                for cap in scalar.num:
                    if s_orb.index - 1 != t_orb.index - 2 * self.group.c1(cap):
                        raise ComplexStructureError(
                            f"entry {src}->{tgt} cap {cap} breaks the degree convention"
                        )
                    self._check_drop(src, tgt, cap)
        for src, row in self.boundary.items():
            if reduction.vec_apply(self.boundary, row):
                raise ComplexStructureError(f"boundary does not square to zero at {src!r}")

    def _check_drop(self, src, tgt, cap):
        """The filtration axiom at one lifted entry: it lowers the level."""
        drop = self._by_id[src].level - self._by_id[tgt].level + self.group.omega(cap)
        if drop.sign() <= 0:
            raise FiltrationError(
                f"entry {src}->{tgt} cap {cap} does not lower the level (drop {drop!r})"
            )

    # -- re-levelling ----------------------------------------------------------

    def relevelled(self, orbits: Iterable[Orbit]) -> "FilteredComplex":
        """This complex with new orbit levels: the same orbit ids and indices,
        and the same boundary object.  Its entries, their degrees and its
        square, zero, do not depend on the levels, so only the filtration
        (drop) check runs again.

        Over the trivial group every term level is an orbit level, and the
        elimination of a map out of degree k compares only levels inside
        one degree.  So when each degree orders its orbit levels as this
        complex does, ties included, every cached decomposition carries
        over: image, kernel and kernel basis are shared, and the levels are
        read off the new orbits.  Otherwise the new complex eliminates
        lazily, as a fresh one would.
        """
        X = object.__new__(FilteredComplex)
        X.group, X.boundary = self.group, self.boundary
        X.orbits = tuple(sorted(orbits, key=lambda o: o.id))
        if [(o.id, o.index) for o in X.orbits] != [(o.id, o.index) for o in self.orbits]:
            raise ComplexStructureError("a relevelled complex keeps the orbit ids and indices")
        X._by_id = {o.id: o for o in X.orbits}
        for src, row in X.boundary.items():
            for tgt, scalar in row.items():
                for cap in scalar.num:
                    X._check_drop(src, tgt, cap)
        X._decompositions, X._homology_cache, X._order = {}, None, None
        if self._decompositions and self.group.rank == 0 and X._orders_as(self._level_order()):
            X._order = self._order
            X._decompositions = {
                k: dec.relevelled(X.weight, partial(X.boundary_basis, k))
                for k, dec in self._decompositions.items()}
        return X

    def _level_order(self) -> list:
        """Each degree's orbits in level order, ties broken by id, as the
        consecutive pairs (a, b, tie): the preorder of the levels."""
        if self._order is None:
            self._order = []
            for k in self.degrees():
                ids = sorted(self.orbit_ids(k), key=self.weight)  # stable: ids in id order
                self._order += [(a, b, self.weight(a) == self.weight(b))
                                for a, b in zip(ids, ids[1:])]
        return self._order

    def _orders_as(self, order) -> bool:
        """Whether these levels have the preorder `order` of `_level_order`."""
        w = self.weight
        return all(w(a) == w(b) if tie else w(a) < w(b) for a, b, tie in order)

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

    def weight(self, oid: str) -> ActionValue:
        return self._by_id[oid].level

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
        return reduction.vec_level(chain.coeffs, self.weight)

    def peaks(self, chain: NovikovChain, degree: int | None = None) -> list:
        """Lifted generators (orbit id, cap) achieving the level."""
        chain = self._pure(chain, degree)
        return reduction.vec_peaks(chain.coeffs, self.weight)

    def boundary_of(self, chain: NovikovChain) -> NovikovChain:
        return NovikovChain(self.group, reduction.vec_apply(self.boundary, chain.coeffs))

    def is_cycle(self, chain: NovikovChain) -> bool:
        return self.boundary_of(chain).is_zero()

    # -- global quantities ----------------------------------------------------

    def filtration_gap(self, excluded=()):
        """Minimal level drop over all boundary contributions; +inf if there
        are none.  A connection between the orbits of a pair in `excluded`,
        in either direction, does not count."""
        gap = POS_INFINITY
        for src, row in self.boundary.items():
            s_orb = self._by_id[src]
            for tgt, scalar in row.items():
                if (src, tgt) in excluded or (tgt, src) in excluded:
                    continue
                t_orb = self._by_id[tgt]
                drop = s_orb.level - t_orb.level + scalar.valuation()
                if drop < gap:
                    gap = drop
        return gap

    def spectrum(self) -> SpecSet:
        return SpecSet(self.group, [(o.id, o.level) for o in self.orbits])

    # -- the boundary maps ----------------------------------------------------

    def decomposition(self, degree: int) -> reduction.Decomposition:
        """The cached decomposition of d out of degree `degree`: its image
        basis lies in degree - 1, its kernel in degree."""
        if degree not in self._decompositions:
            one = NovikovScalar.one(self.group)
            # orthogonalize copies its inputs, so the rows are passed as they are
            cols = [(self.boundary.get(oid, {}), {oid: one}) for oid in self.orbit_ids(degree)]
            self._decompositions[degree] = reduction.Decomposition(
                cols, self.weight, partial(self.boundary_basis, degree))
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
