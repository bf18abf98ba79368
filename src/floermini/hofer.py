"""Hofer-geometric quantities of autonomous circle Hamiltonians.

The inverse Hamiltonian is modeled as the negated function (time reversal
collapses for autonomous data), and the genuine triangle inequality needs
a product structure that is out of reach here; the unit-class surrogate
below is labeled as such in every report.  `pair_check` is the one test of
the spectral axioms on a pair f, g with the sum f + g as the composition:
subadditivity of rho_unit and its continuity in the Hofer norm.  The Hofer
sweep writes its rows; `random_trig_function` draws the pairs.
"""

from __future__ import annotations

from fractions import Fraction

from .action import ActionValue
from .errors import MorseError
from .morse import MorseFunction1D, build_s1_morse
from .spectral import rho

__all__ = [
    "HoferReport",
    "hofer_quantities",
    "rho_unit",
    "gamma",
    "pair_check",
    "random_trig_function",
]

_ZERO = ActionValue.rational(0)
# critical values are quantized to 1e-12: tight cases (equal minima) may
# flip a pair check by one quantum, which is refinement noise, not geometry
PAIR_SLACK = ActionValue.rational(Fraction(4, 10**12))


class HoferReport:
    __slots__ = (
        "e_minus", "e_plus", "norm", "rho_unit", "rho_unit_inverse", "gamma",
        "positive",
    )

    def __init__(self, e_minus, e_plus, norm, rho_u, rho_u_inv, gamma_value, positive):
        self.e_minus = e_minus
        self.e_plus = e_plus
        self.norm = norm
        self.rho_unit = rho_u
        self.rho_unit_inverse = rho_u_inv
        self.gamma = gamma_value
        self.positive = positive

    def to_json(self) -> dict:
        return {
            "e_minus": self.e_minus.to_json(),
            "e_plus": self.e_plus.to_json(),
            "norm": self.norm.to_json(),
            "rho_unit": self.rho_unit.to_json(),
            "rho_unit_inverse": self.rho_unit_inverse.to_json(),
            "gamma": self.gamma.to_json(),
            "positive": self.positive,
            "triangle_inequality": "unit-class surrogate only",
        }

    def __repr__(self):
        return (
            f"HoferReport(norm={self.norm!r}, gamma={self.gamma!r},"
            f" positive={self.positive})"
        )


def hofer_quantities(f: MorseFunction1D, eps=1):
    """(E-, E+, norm) of the mean-zeroed eps*f, exact from critical values."""
    eps = Fraction(eps)
    lo, hi = f.value_range()
    e_minus = ActionValue.rational(-eps * lo)
    e_plus = ActionValue.rational(eps * hi)
    return e_minus, e_plus, e_minus + e_plus


def rho_unit(f: MorseFunction1D, eps=1) -> ActionValue:
    """Mini-max level of the fundamental class of the built complex.

    The index-1 cycle representing the circle is unique up to scale, so
    its level equals E- of the function; the zero-function limit is the
    valuation normalization rho(0; 1) = 0.
    """
    report = build_s1_morse(f, eps)
    return rho(report.complex, report.fundamental_class()).value


def gamma(f: MorseFunction1D, eps=1) -> HoferReport:
    """Spectral pseudo-norm data with the inverse modeled as the negation."""
    eps = Fraction(eps)
    e_minus, e_plus, norm = hofer_quantities(f, eps)
    r_u = rho_unit(f, eps)
    r_inv = rho_unit(f.negated(), eps)
    g = r_u + r_inv
    if not (_ZERO <= g and g <= norm):
        raise MorseError("gamma bounds violated (internal inconsistency)")
    if not r_u <= e_minus:
        raise MorseError("rho(1) exceeds E- (internal inconsistency)")
    return HoferReport(e_minus, e_plus, norm, r_u, r_inv, g, r_u <= _ZERO)


def pair_check(f: MorseFunction1D, g: MorseFunction1D, eps=1) -> tuple:
    """The unit-class triangle and continuity checks on one pair:
    (rho_unit of f, of g and of f + g, the norm d of f - g, whether
    rho(f + g) <= rho(f) + rho(g), whether |rho(f) - rho(g)| <= d), both
    verdicts within PAIR_SLACK."""
    rf = rho_unit(f, eps)
    rg = rho_unit(g, eps)
    rsum = rho_unit(f.added(g), eps)
    _, _, dist = hofer_quantities(f.added(g.negated()), eps)
    gap = rf - rg
    mag = gap if gap >= _ZERO else -gap
    return rf, rg, rsum, dist, rsum <= rf + rg + PAIR_SLACK, mag <= dist + PAIR_SLACK


def random_trig_function(rng):
    """(expression, closed form) of a random trigonometric polynomial.

    The cos(k theta) and sin(k theta) coefficients, k = 1, 2, 3, are drawn
    from {-8/8, ..., 8/8} in that order and written as "(a/8)" terms;
    when all six are zero the function is cos(theta).  It is sampled on
    4096 points.  The Hofer sweep draws its pairs from this.
    """
    terms = []
    for k in (1, 2, 3):
        a = rng.randint(-8, 8)
        b = rng.randint(-8, 8)
        if a:
            terms.append(f"({a}/8)*cos({k}*theta)")
        if b:
            terms.append(f"({b}/8)*sin({k}*theta)")
    expr = " + ".join(terms) if terms else "cos(theta)"
    return expr, MorseFunction1D.closed_form(expr, N=1 << 12)
