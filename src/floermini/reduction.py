"""Valuation-pivoted elimination over the Novikov field.

Vectors are sparse maps coordinate -> NovikovScalar.  The level of the
term s*k is given by a callable `term(k, s)`: the coordinate's action
level minus the scalar's valuation, as an integer key of the complex's
`LevelForm` (`FilteredComplex.term`), and the level of a vector is the
max of its terms' levels.  The reduction produces a
triangular family with pairwise distinct pivot coordinates, each pivot
realizing its vector's level.  Such a family is level-orthogonal:

    level(sum c_i t_i) = max_i level(c_i t_i)

so greedy pivot elimination against it computes exact distances to the
spanned subspace.  Pivot ties break toward the smaller coordinate, which
fixes the output for golden tests.

`vec_axpy` (out += coef * v in place, zeros dropped) is the one
accumulate primitive: chain sums and elimination steps go through it.
Every linear map (a boundary, a chain map, a chain homotopy) is stored in
one column form, {source: {target: NovikovScalar}}, and `vec_apply` is
the one sum over its columns.

A `Decomposition` is the one elimination product of a linear map (after
Usher-Zhang's singular value decomposition of Floer-Novikov complexes):
the image basis with the preimages the row operations tracked, and the
kernel basis.  Reducing a preimage against the kernel basis makes it
level-minimal; the worst level overhead of a minimal preimage over the
image basis is the largest finite bar, Usher's boundary depth.
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Hashable, Iterable

from .action import NEG_INFINITY, NovikovScalar

Vector = dict  # coordinate -> NovikovScalar


def vec_axpy(out: Vector, coef: NovikovScalar | None, v: Vector) -> Vector:
    """out += coef * v in place, dropping zeros; coef None adds v unscaled.

    Returns out.  v is only read.
    """
    for k, s in v.items():
        if coef is not None:
            s = coef * s
        t = out.get(k)
        if t is not None:
            s = t + s
        if s.is_zero():
            out.pop(k, None)
        else:
            out[k] = s
    return out


def vec_apply(columns: dict, v: Vector) -> Vector:
    """The map with these columns applied to v: sum of v[k] * columns[k].

    A missing column is zero.  Neither argument is modified.
    """
    out: Vector = {}
    for k, c in v.items():
        col = columns.get(k)
        if col:
            vec_axpy(out, c, col)
    return out


def vec_scale(a: Vector, coef: NovikovScalar) -> Vector:
    if coef.is_zero():
        return {}
    return {k: coef * s for k, s in a.items()}


def vec_level(v: Vector, term: Callable[[Hashable, NovikovScalar], object]):
    """max over support of term(k, coef), the level key; -inf for zero."""
    best = NEG_INFINITY
    for k, s in v.items():
        lvl = term(k, s)
        if best is NEG_INFINITY or lvl > best:
            best = lvl
    return best


def vec_peaks(v: Vector, term) -> list:
    """Coordinates (with leading caps) achieving the level, sorted."""
    lvl = vec_level(v, term)
    if lvl is NEG_INFINITY:
        return []
    out = [(k, s.leading_cap()) for k, s in v.items() if term(k, s) == lvl]
    out.sort(key=lambda t: t[0])
    return out


class Reduced:
    """One accepted column: pivot coordinate, vector, tracked companion."""

    __slots__ = ("pivot", "vec", "companion")

    def __init__(self, pivot, vec, companion):
        self.pivot = pivot
        self.vec = vec
        self.companion = companion


def _peak_pivot(v: Vector, term):
    lvl = None
    best = None
    for k, s in v.items():
        l = term(k, s)
        if lvl is None or l > lvl or (l == lvl and k < best):
            lvl, best = l, k
    return best


def orthogonalize(columns: Iterable[tuple], term, reduced: Iterable[Reduced] = ()):
    """Triangularize columns; returns (reduced list, kernel companions).

    `columns` yields (vector, companion) pairs; identical row operations
    are applied to companions, so a column that collapses to zero leaves
    its companion as an exact linear relation among the inputs.  The
    elimination starts from `reduced`, entries already triangular, which
    lead the returned list unchanged.
    """
    reduced: list[Reduced] = list(reduced)
    kernel: list = []
    for vec, comp in columns:
        # private copies, updated in place: callers' dicts stay untouched
        vec, comp = dict(vec), dict(comp)
        for r in reduced:
            s = vec.get(r.pivot)
            if s is not None:
                t = -(s / r.vec[r.pivot])
                vec_axpy(vec, t, r.vec)
                vec_axpy(comp, t, r.companion)
        if not vec:
            if comp:
                kernel.append(comp)
            continue
        reduced.append(Reduced(_peak_pivot(vec, term), vec, comp))
    return reduced, kernel


def reduce_vector(v: Vector, reduced: list):
    """Eliminate every pivot coordinate of `reduced` from v.

    Returns (residual, combination) with v = residual + sum coeff_i * vec_i.
    The residual's level is the exact distance from v to the span.
    """
    v = dict(v)
    coeffs = []
    for r in reduced:
        s = v.get(r.pivot)
        if s is None:
            coeffs.append(None)
            continue
        t = s / r.vec[r.pivot]
        vec_axpy(v, -t, r.vec)
        coeffs.append(t)
    return v, coeffs


def combination(coeffs: list, reduced: list) -> Vector:
    """sum coeff_i * companion_i over reduced, skipping None coefficients."""
    return vec_apply({i: r.companion for i, r in enumerate(reduced)},
                     {i: c for i, c in enumerate(coeffs) if c is not None})


class Decomposition:
    """The elimination product of one linear map d, given by its columns
    (image of a source unit, that unit).

    `image` is the level-orthogonal basis of the image, each vector with
    the preimage that the row operations tracked (its companion), and
    `kernel` holds the raw relations among the columns, in input order.
    `kernel_basis` is the elimination of `kernel` seeded with
    `boundaries()`, the image basis of the map into d's source, which is
    triangular already and leads the basis as it is: past the boundaries
    it holds the homology representatives.  It and the largest finite bar
    are computed on first use, and so is each vector's residual against
    the image basis (`residual`).
    """

    def __init__(self, columns: Iterable[tuple], term, boundaries=list):
        self.term = term
        self.image, self.kernel = orthogonalize(columns, term)
        self._boundaries = boundaries
        self._residuals: list = []  # (vector, residual) pairs

    def relevelled(self, term, boundaries) -> "Decomposition":
        """The same elimination read with new term levels that order every
        compared pair of coordinates as the old ones did, ties included:
        the pivot choices, hence image, kernel, kernel basis and residuals,
        are this decomposition's and are shared.  The largest bar reads
        the levels and is computed again on use."""
        out = object.__new__(Decomposition)
        out.term, out._boundaries = term, boundaries
        out.image, out.kernel, out._residuals = self.image, self.kernel, self._residuals
        if "kernel_basis" in self.__dict__:
            out.kernel_basis = self.kernel_basis
        return out

    def residual(self, v: Vector) -> Vector:
        """v reduced against the image basis, its level v's distance to the
        image; kept per v.  The caller must not modify it."""
        for u, r in self._residuals:
            if u == v:
                return r
        r, _ = reduce_vector(v, self.image)
        self._residuals.append((dict(v), r))
        return r

    @cached_property
    def kernel_basis(self) -> list:
        seed = [Reduced(r.pivot, r.vec, {}) for r in self._boundaries()]
        basis, _ = orthogonalize([(k, {}) for k in self.kernel], self.term, seed)
        return basis

    def some_preimage(self, target: Vector):
        """A preimage combined from the image companions; None off the image."""
        residual, coeffs = reduce_vector(target, self.image)
        if residual:
            return None
        return combination(coeffs, self.image)

    def minimal(self, source: Vector) -> Vector:
        """The level-minimal vector of source + ker d."""
        out, _ = reduce_vector(source, self.kernel_basis)
        return out

    def preimage(self, target: Vector):
        """Level-minimal preimage of target; None when target is off the image."""
        pre = self.some_preimage(target)
        return None if pre is None else self.minimal(pre)

    @cached_property
    def largest_bar(self):
        """max over the image basis of level(minimal preimage) - level(vec),
        a key, which bounds the overhead of every solve; -inf for a zero
        image."""
        return max((vec_level(self.minimal(r.companion), self.term)
                    - vec_level(r.vec, self.term) for r in self.image), default=NEG_INFINITY)
