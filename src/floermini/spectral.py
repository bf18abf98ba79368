"""Mini-max spectral values of filtered complexes.

rho(X, cls) is the infimum of the level over cycles representing cls.
With a finite orbit basis the infimum is attained; the engine realizes
it constructively by reducing any representative against a
level-orthogonal basis of the boundary subspace.  The residual is a
tight cycle: no boundary correction can push its level lower, even when
the period group is dense.

Every computation here reads the complex's cached decomposition of each
boundary map (`reduction.Decomposition`): the image basis with its
preimages for rho and the equal-level corrections, the level-minimal
preimage for the bounded solve, and the largest finite bar, the worst
overhead of a minimal preimage, for the overhead constant.  That constant
is the boundary depth of the complex.

Peak avoidance (the paper's spectrality argument: move a tight cycle's
peak off the bifurcation pair by equal-level boundary corrections) reads
the corrections from the image basis and finds their coefficients with
the same elimination, a `Decomposition` over the trivial group, where
the scalars are the rationals of the top level slice.
"""

from __future__ import annotations

from .action import NEG_INFINITY, NovikovScalar, make_period_group
from .complexes import FilteredComplex, HomologyClass, NovikovChain
from .errors import (
    ComplexStructureError,
    DegreeError,
    NotABoundaryError,
    NotACycleError,
    ZeroClassError,
)
from .reduction import Decomposition, vec_axpy, vec_level, vec_scale

__all__ = [
    "SpectralResult",
    "SpectralityCertificate",
    "rho",
    "check_spectrality",
    "spectrality_certificate",
    "bounded_boundary_solve",
    "boundary_overhead_constant",
    "equal_level_corrections",
    "peak_avoidance_check",
]

# peak avoidance's system is rational: over the trivial group a scalar is
# one rational coefficient
_RATIONALS = make_period_group([], [])


class SpectralResult:
    __slots__ = ("value", "tight_cycle", "witness", "class_id")

    def __init__(self, value, tight_cycle, witness, class_id=None):
        self.value = value
        self.tight_cycle = tight_cycle
        self.witness = witness  # (orbit id, cap)
        self.class_id = class_id

    def __repr__(self):
        return f"SpectralResult(value={self.value!r}, witness={self.witness})"

    def to_json(self) -> dict:
        return {
            "class": self.class_id,
            "rho": self.value.to_json(),
            "witness": {"orbit": self.witness[0], "cap": list(self.witness[1])},
            "tight_cycle": self.tight_cycle.to_json(),
        }


class SpectralityCertificate:
    __slots__ = ("value", "in_spectrum", "spectrum_witness", "peak_attains")

    def __init__(self, value, in_spectrum, spectrum_witness, peak_attains):
        self.value = value
        self.in_spectrum = in_spectrum
        self.spectrum_witness = spectrum_witness
        self.peak_attains = peak_attains

    @property
    def ok(self) -> bool:
        return self.in_spectrum and self.peak_attains


def _resolve_class(X: FilteredComplex, cls) -> tuple:
    if isinstance(cls, HomologyClass):
        return cls.representative, cls.id
    if isinstance(cls, str):
        c = X.homology_class(cls)
        return c.representative, c.id
    if isinstance(cls, NovikovChain):
        if not X.is_cycle(cls):
            raise NotACycleError("class representative must be a cycle")
        return cls, None
    raise ComplexStructureError(f"cannot interpret class {cls!r}")


def rho(X: FilteredComplex, cls) -> SpectralResult:
    """Mini-max level over representing cycles, with the tight cycle attained."""
    rep, class_id = _resolve_class(X, cls)
    if rep.is_zero():
        raise ZeroClassError("rho is undefined for the zero class")
    deg = X.degree_of(rep)
    if deg == "mixed":
        raise DegreeError("spectral values are per-degree; filter the class first")
    residual = X.decomposition(deg + 1).residual(rep.coeffs)
    if not residual:
        raise ZeroClassError("the class vanishes in homology")
    tight = NovikovChain(X.group, residual)
    return SpectralResult(X.level(tight), tight, X.peaks(tight)[0], class_id)


def check_spectrality(X: FilteredComplex, cls) -> SpectralityCertificate:
    """Exact membership of rho in the action spectrum plus a peak witness."""
    return spectrality_certificate(X, rho(X, cls))


def spectrality_certificate(X: FilteredComplex, res: SpectralResult) -> SpectralityCertificate:
    """Certificate for a rho value already computed on X."""
    witness = X.spectrum().witness(res.value)
    orbit, cap = res.witness
    attains = X.keys[orbit] - X.form.cap(cap) == X.form.key_of(res.value)
    return SpectralityCertificate(res.value, witness is not None, witness, attains)


def bounded_boundary_solve(X: FilteredComplex, gamma: NovikovChain):
    """Level-minimal beta with boundary(beta) == gamma, plus the overhead.

    The overhead is level(beta) - level(gamma); for the zero chain the
    solve costs nothing and the overhead reports -inf.
    """
    if gamma.is_zero():
        return NovikovChain(X.group), NEG_INFINITY
    deg = X.degree_of(gamma)
    if deg == "mixed":
        raise DegreeError("solve expects a pure-degree chain")
    beta_vec = X.decomposition(deg + 1).preimage(gamma.coeffs)
    if beta_vec is None:
        raise NotABoundaryError("chain is not a boundary")
    overhead = vec_level(beta_vec, X.term) - vec_level(gamma.coeffs, X.term)
    return NovikovChain(X.group, beta_vec), X.form.value(overhead)


def boundary_overhead_constant(X: FilteredComplex):
    """Upper bound for the solve overhead, uniform over the complex.

    This is the boundary depth: the largest finite bar over the boundary
    maps, each the worst overhead of a minimal preimage over its
    level-orthogonal image basis, which bounds every solve.
    """
    return X.form.value(max((X.decomposition(deg + 1).largest_bar for deg in X.degrees()),
                            default=NEG_INFINITY))


def _slice_coordinates(X: FilteredComplex, degree: int, value):
    """Lifted generators (orbit id, cap) of `degree` exactly at level `value`."""
    key = X.form.key_of(value)
    coords = []
    for oid in X.orbit_ids(degree) if key is not None else ():
        cap = X.form.cap_of(X.keys[oid] - key)
        if cap is not None:
            coords.append((oid, cap))
    return coords


def _slice_vector(X, vec: dict, coords) -> dict:
    """Rational coefficients of a chain at the lifted generators `coords`."""
    out = {}
    for oid, cap in coords:
        s = vec.get(oid)
        if s is None:
            continue
        terms = s.terms_below(X.group.omega(cap))
        c = terms.get(cap)
        if c:
            out[(oid, cap)] = c
    return out


def equal_level_corrections(X: FilteredComplex, degree: int, value):
    """Each image basis vector inside `degree`, in basis order, shifted by
    the unique monomial that raises it exactly to level `value`; vectors
    whose level differs from `value` by no period are skipped."""
    key = X.form.key_of(value)
    for r in X.boundary_basis(degree) if key is not None else ():
        cap = X.form.cap_of(vec_level(r.vec, X.term) - key)
        if cap is not None:
            yield vec_scale(r.vec, NovikovScalar.monomial(X.group, cap))


def peak_avoidance_check(X: FilteredComplex, cls, marked_orbits):
    """Seek a tight cycle whose peaks avoid the marked bifurcation pair.

    Returns (True, cycle) with an adjusted tight cycle when the peaks can
    be moved off both marked orbits by equal-level boundary corrections;
    (False, tight cycle) when the top slice pins a marked orbit.
    """
    marked = [str(m) for m in marked_orbits]
    for m in marked:
        X.orbit(m)
    res = rho(X, cls)
    if not marked:
        return True, res.tight_cycle
    deg = X.degree_of(res.tight_cycle)
    coords = _slice_coordinates(X, deg, res.value)
    marked_coords = [(oid, cap) for (oid, cap) in coords if oid in marked]

    def marked_slice(vec: dict) -> dict:
        sl = _slice_vector(X, vec, coords)
        return {mc: NovikovScalar.monomial(_RATIONALS, (), sl[mc])
                for mc in marked_coords if mc in sl}

    target = marked_slice(res.tight_cycle.coeffs)
    if not target:
        return True, res.tight_cycle
    # the equal-level corrections that cancel the marked slice coordinates,
    # found by elimination at one constant level
    corrections = list(equal_level_corrections(X, deg, res.value))
    one = NovikovScalar.one(_RATIONALS)
    sol = Decomposition(
        [(marked_slice(c), {j: one}) for j, c in enumerate(corrections)],
        lambda k, s: 0,
    ).some_preimage(target)
    if sol is None:
        return False, res.tight_cycle
    adjusted_vec = dict(res.tight_cycle.coeffs)
    for j, a in sol.items():
        _, c = a.leading_term()
        vec_axpy(adjusted_vec, None, {k: s.scale(-c) for k, s in corrections[j].items()})
    adjusted = NovikovChain(X.group, adjusted_vec)
    level = X.level(adjusted)
    if level != res.value:  # a certificate: the two results, as values
        raise ComplexStructureError(
            f"peak-avoiding cycle sits at level {level!r}, not at rho = {res.value!r}"
        )
    pinned = sorted({oid for oid, _ in X.peaks(adjusted)} & set(marked))
    if pinned:
        raise ComplexStructureError(
            f"peak-avoiding cycle still peaks at marked orbits {pinned}"
        )
    return True, adjusted
