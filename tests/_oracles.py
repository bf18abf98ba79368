"""Independent brute-force oracles for spectral values.

Everything here is plain rational linear algebra on lifted generators
with caps restricted to a finite box; no valuation-pivoted reduction is
used, so agreement with the engine is a genuine cross-check.  The box
bound is certified by recomputing with an enlarged box and demanding the
same answer.  `min_positive_combination` is the float-grid search that
shows a rank-2 period group is dense.

The small-function formula is checked two ways: `brute_force_rho` on the
plain Morse complex plus the top decoration level, and the engine's rho
on the complex that `decorated_complex` builds over the decorations'
group.  `check_lipschitz` tests a transferred level curve against its
variation bounds pair by pair.

`solve_rational` is plain Gauss-Jordan over Q, the reference for the
engine's solve of peak avoidance's marked-slice system, and `rotated`
relabels the circle coordinate of a closed form for the relabeling check.
`cap_with_omega` solves omega(cap) == value in ActionValue arithmetic, the
reference for the integer `LevelForm.cap_of`.
"""

from fractions import Fraction
from itertools import product

import numpy as np
import sympy as sp

from floermini.action import NEG_INFINITY, ActionValue, NovikovScalar
from floermini.complexes import FilteredComplex, NovikovChain, Orbit
from floermini.morse import MorseFunction1D


def cap_with_omega(group, target):
    """The unique cap with omega(cap) == target, or None: the rational
    generator solves for q, the sqrt(d) one for r, and existence is an
    integrality check."""
    target = ActionValue.coerce(target)
    q, r, sol = target.q, target.r, []
    for v in group.values:  # each coordinate consumed by its one generator
        if v.q:
            sol.append(q / v.q)
            q = 0
        else:
            sol.append(r / v.r)
            r = 0
    if q or r or any(x.denominator != 1 for x in sol):
        return None
    return tuple(int(x) for x in sol)


def min_positive_combination(v1: float, v2: float, bound: int) -> float:
    """min |m*v1 + n*v2| > 0 over integer m, n with |m|, |n| <= bound."""
    m = np.arange(-bound, bound + 1, dtype=np.float64)
    grid = np.abs(m[:, None] * v1 + m[None, :] * v2)
    grid = grid[grid > 0.0]
    return float(grid.min()) if grid.size else float("inf")


def _cap_box(rank, bound):
    if rank == 0:
        return [()]
    return [tuple(c) for c in product(range(-bound, bound + 1), repeat=rank)]


def _lift_chain(X, chain, window=None):
    """Finite chain -> {(orbit, cap): Fraction} over its exact support."""
    out = {}
    for oid, scalar in chain.coeffs.items():
        if not scalar.is_finite:
            raise ValueError("oracle needs finite representatives")
        for cap, c in scalar.num.items():
            out[(oid, cap)] = out.get((oid, cap), Fraction(0)) + c
    return {k: v for k, v in out.items() if v}


def _lifted_level(X, key):
    oid, cap = key
    return X.orbit(oid).level - X.group.omega(cap)


def _boundary_columns(X, degree, bound):
    """Columns: lifted boundaries q^A d(w) for w of degree+1, |A| <= bound."""
    cols = []
    for wid in X.orbit_ids(degree + 1):
        row = X.boundary.get(wid, {})
        if not row:
            continue
        base = {}
        for tgt, scalar in row.items():
            for cap, c in scalar.num.items():
                base[(tgt, cap)] = base.get((tgt, cap), Fraction(0)) + c
        for A in _cap_box(X.group.rank, bound):
            col = {
                (tgt, tuple(a + b for a, b in zip(A, cap)) if cap else cap): c
                for (tgt, cap), c in base.items()
            }
            cols.append(col)
    return cols


def _min_residual_level(X, rep_vec, columns):
    """min over coefficients of level(rep - sum c_j col_j), by descending
    incremental elimination: the first inconsistent level block is the
    exact minimum (feasibility is monotone in the threshold)."""
    rows = set(rep_vec)
    for col in columns:
        rows.update(col)
    by_level = {}
    for key in rows:
        by_level.setdefault(_lifted_level(X, key), []).append(key)
    blocks = sorted(by_level.items(), key=lambda kv: kv[0], reverse=True)

    pivots = {}  # unknown index -> (constraint dict, rhs)
    for level, keys in blocks:
        block_bad = False
        for key in sorted(keys):
            cons = {}
            for j, col in enumerate(columns):
                c = col.get(key)
                if c:
                    cons[j] = c
            rhs = rep_vec.get(key, Fraction(0))
            # substitute solved pivots c_j = b - sum a_k c_k until none remain
            while True:
                pj = min((j for j in cons if j in pivots), default=None)
                if pj is None:
                    break
                f = cons.pop(pj)
                pcons, prhs = pivots[pj]
                for k, v in pcons.items():
                    nv = cons.get(k, Fraction(0)) - f * v
                    if nv:
                        cons[k] = nv
                    else:
                        cons.pop(k, None)
                rhs -= f * prhs
            if cons:
                j = min(cons)
                f = cons.pop(j)
                pivots[j] = ({k: v / f for k, v in cons.items()}, rhs / f)
            elif rhs:
                block_bad = True
        if block_bad:
            return level
    return NEG_INFINITY


def brute_force_rho(X, rep, bound=2, certify=True):
    """Minimum level over rep + boundaries with caps in the box, certified
    stable when the box is enlarged by one."""
    rep_vec = _lift_chain(X, rep)
    deg = X.degree_of(rep)
    got = _min_residual_level(X, rep_vec, _boundary_columns(X, deg, bound))
    if certify:
        bigger = _min_residual_level(
            X, rep_vec, _boundary_columns(X, deg, bound + 1)
        )
        if bigger != got:
            raise AssertionError(
                f"oracle unstable under box enlargement: {got!r} vs {bigger!r}"
            )
    return got


def brute_force_min_preimage_level(X, gamma, bound=2):
    """min level of beta with d(beta) = gamma, beta caps inside the box."""
    deg = X.degree_of(gamma)
    target = _lift_chain(X, gamma)
    unknowns = []
    for wid in X.orbit_ids(deg + 1):
        for A in _cap_box(X.group.rank, bound):
            unknowns.append((wid, A))
    # column of each unknown: lifted boundary of q^A w
    cols = []
    for wid, A in unknowns:
        col = {}
        for tgt, scalar in X.boundary.get(wid, {}).items():
            for cap, c in scalar.num.items():
                key = (tgt, tuple(a + b for a, b in zip(A, cap)) if cap else cap)
                col[key] = col.get(key, Fraction(0)) + c
        cols.append(col)
    levels = sorted({_lifted_level(X, u) for u in unknowns})

    def feasible(threshold):
        keep = [j for j, u in enumerate(unknowns) if _lifted_level(X, u) <= threshold]
        rows = set(target)
        for j in keep:
            rows.update(cols[j])
        aug = []
        rows = sorted(rows)
        for key in rows:
            aug.append([cols[j].get(key, Fraction(0)) for j in keep]
                       + [target.get(key, Fraction(0))])
        n = len(keep)
        r = 0
        for c in range(n):
            sel = next((i for i in range(r, len(aug)) if aug[i][c]), None)
            if sel is None:
                continue
            aug[r], aug[sel] = aug[sel], aug[r]
            pv = aug[r][c]
            aug[r] = [x / pv for x in aug[r]]
            for i in range(len(aug)):
                if i != r and aug[i][c]:
                    f = aug[i][c]
                    aug[i] = [x - f * y for x, y in zip(aug[i], aug[r])]
            r += 1
        return all(row[-1] == 0 for row in aug[r:])

    for t in levels:
        if feasible(t):
            return t
    raise AssertionError("no preimage inside the oracle box")


def decorated_complex(report, decorations, rep):
    """The Morse complex of `report` over the decorations' period group, and
    `rep` times the decoration scalar sum_j c_j q^(A_j): (complex, chain).
    The engine's rho of that chain is the decorated class's value."""
    G = decorations.group
    orbits = [Orbit(o.id, o.level, o.index) for o in report.complex.orbits]
    boundary = {
        src: {tgt: NovikovScalar.from_terms(G, {G.zero_cap: s.num.get((), Fraction(0))})
              for tgt, s in row.items()}
        for src, row in report.complex.boundary.items()
    }
    terms = {}
    for cap, c in zip(decorations.caps, decorations.coeffs):
        terms[cap] = terms.get(cap, Fraction(0)) + c
    u = NovikovScalar.from_terms(G, terms)
    chain = NovikovChain(
        G, {oid: u.scale(s.num.get((), Fraction(0))) for oid, s in rep.coeffs.items()}
    )
    return FilteredComplex(G, orbits, boundary), chain


def check_lipschitz(curve):
    """|mu(j) - mu(i)| <= E(i, j) on every sampled pair of a MuCurve:
    (True, None), or (False, (i, j, diff, E)) at the first pair over."""
    n = len(curve.etas)
    pref_n = [Fraction(0)]
    pref_p = [Fraction(0)]
    for a, b in curve.bounds.contributions:
        pref_n.append(pref_n[-1] + a)
        pref_p.append(pref_p[-1] + b)
    for i in range(n):
        for j in range(i + 1, n):
            e = ActionValue.rational((pref_n[j] - pref_n[i]) + (pref_p[j] - pref_p[i]))
            diff = curve.values[j] - curve.values[i]
            if diff > e or -diff > e:
                return False, (i, j, diff, e)
    return True, None


def solve_rational(columns: list, target: list):
    """Solve sum a_j col_j = target over Q by Gauss-Jordan elimination; a
    list of the a_j, free ones 0, or None when inconsistent."""
    m = len(target)
    n = len(columns)
    aug = [[columns[j][i] for j in range(n)] + [target[i]] for i in range(m)]
    pivots = []
    row = 0
    for col in range(n):
        sel = None
        for r in range(row, m):
            if aug[r][col] != 0:
                sel = r
                break
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(m):
            if r != row and aug[r][col] != 0:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if aug[r][n] != 0:
            return None
    sol = [Fraction(0)] * n
    for r, col in enumerate(pivots):
        sol[col] = aug[r][n]
    return sol


def rotated(f: MorseFunction1D, phi: float) -> MorseFunction1D:
    """The closed form f(theta + phi), phi read as a rational, on f's grid."""
    theta = sp.Symbol("theta")
    return MorseFunction1D.closed_form(
        f.expr.subs(theta, theta + sp.nsimplify(phi, rational=True)), N=f.N
    )
