"""cerf_cli workload: in-process `floermini run` of closed-form families.

One op is `floermini.cli.main(["run", <config>, "--out", <dir>])` with the
tasks diagram, rho_curve and continuation at 257 eta x 16384 theta points.
The families are fixed (each with known events); the seed sets the order
in which a round visits them and the config's `seed` field.

The checks use the benchmark's own numpy forms of each family and its
theta-derivative, written out by hand, never the program's sympy parse.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

import common
from common import require

ETA_POINTS = 257
THETA_POINTS = 16384
TWO_PI = 2.0 * math.pi


def _two_event(t, e):
    return (1 - e) * np.cos(t) + e * (1.5 * np.cos(2 * t - 0.7) - 0.3 * np.cos(3 * t))


def _two_event_dt(t, e):
    return -(1 - e) * np.sin(t) + e * (-3.0 * np.sin(2 * t - 0.7) + 0.9 * np.sin(3 * t))


def _bd(t, e):
    return np.cos(t) + e * 0.6 * np.cos(2 * t + 0.5)


def _bd_dt(t, e):
    return -np.sin(t) - e * 1.2 * np.sin(2 * t + 0.5)


def _slope(t, e):
    return np.cos(t) + e * (0.25 * np.sin(2 * t) + 0.2 * np.cos(3 * t))


def _slope_dt(t, e):
    return -np.sin(t) + e * (0.5 * np.cos(2 * t) - 0.6 * np.sin(3 * t))


# name -> (expression given to the program, own F, own dF/dtheta)
FAMILIES = {
    # acceptance 07: one birth cusp, one crossing of two maxima
    "two_event": ("(1-eta)*cos(theta) + eta*(3/2*cos(2*theta - 7/10) - 3/10*cos(3*theta))",
                  _two_event, _two_event_dt),
    # the family of tests/golden/bd_diagram.json: one birth cusp
    "birth_death": ("cos(theta) + eta*(3/5)*cos(2*theta + 1/2)", _bd, _bd_dt),
    # acceptance 08's slope family
    "slope": ("cos(theta) + eta*(1/4*sin(2*theta) + 1/5*cos(3*theta))", _slope, _slope_dt),
}

ARTIFACTS = ("branches.csv", "events.csv", "diagram.svg", "rho_curve.csv",
             "rho_curve.svg", "report.json")


class Config:
    __slots__ = ("key", "name", "path", "out", "eta_points")

    def __init__(self, name, path, out, eta_points):
        self.key = self.name = name
        self.path, self.out = path, out
        self.eta_points = eta_points

    def __repr__(self):
        return f"config {self.name}"


def build(seed: int, workdir: Path, eta_points=ETA_POINTS, theta_points=THETA_POINTS) -> list:
    names = list(FAMILIES)
    k = seed % len(names)
    names = names[k:] + names[:k]
    cfg_dir = workdir / "configs"
    cfg_dir.mkdir(parents=True, exist_ok=True)
    items = []
    for name in names:
        cfg = {
            "family": {"kind": "closed_form", "expr": FAMILIES[name][0],
                       "eta_points": eta_points, "theta_points": theta_points},
            "tasks": ["diagram", "rho_curve", "continuation"],
            "classes": ["point"],
            "seed": seed,
        }
        path = cfg_dir / f"{name}.json"
        path.write_text(json.dumps(cfg, indent=2, sort_keys=True) + "\n")
        items.append(Config(name, path, workdir / "runs" / name, eta_points))
    return items


class Workload(common.Workload):
    """A round visits every family once; a run makes at least two rounds,
    so every config runs twice and its artifacts are compared byte for byte."""

    name = "cerf_cli"
    min_rounds = 2

    def __init__(self, fm, seed: int, small: bool = False, workdir: Path = None):
        self.fm = fm
        self.items = build(seed, workdir, eta_points=33 if small else ETA_POINTS)
        self.reference: dict = {}

    def op(self, item):
        return op(self.fm, item)

    def observe(self, item, code):
        return code, read_artifacts(item)

    def check(self, item, result) -> None:
        check(item, result[0], result[1], self.reference)


def op(fm, item: Config) -> int:
    return fm.cli.main(["run", str(item.path), "--out", str(item.out)])


def read_artifacts(item: Config) -> dict:
    return {n: (item.out / n).read_bytes() for n in ARTIFACTS}


# -- independent reference computations -------------------------------------


class Slices:
    """Critical points of theta -> F(theta, eta) by a dense numpy scan."""

    def __init__(self, F, Ft, n=1 << 15):
        self.F, self.Ft = F, Ft
        self.h = TWO_PI / n
        # half-cell offset: no grid point sits on a symmetric critical point
        self.t = (np.arange(n) + 0.5) * self.h

    def cells(self, eta):
        d = self.Ft(self.t, eta)
        nxt = np.roll(d, -1)
        s = np.sign(d)
        return np.nonzero(s != np.roll(s, -1))[0], d, nxt

    def count(self, eta) -> int:
        return len(self.cells(eta)[0])

    def points(self, eta):
        """(theta, mean-zero value, is_max) arrays, bisected to 1e-13."""
        idx, d, nxt = self.cells(eta)
        lo = self.t[idx]
        hi = lo + self.h
        flo = d[idx]
        is_max = flo > nxt[idx]
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            fmid = self.Ft(mid, eta)
            same = np.sign(fmid) == np.sign(flo)
            lo = np.where(same, mid, lo)
            flo = np.where(same, fmid, flo)
            hi = np.where(same, hi, mid)
        theta = 0.5 * (lo + hi)
        mean = float(np.mean(self.F(self.t, eta)))
        return theta, self.F(theta, eta) - mean, is_max


def _bisect(pred, lo, hi, tol=1e-9):
    """pred(lo) is True, pred(hi) is False; the switch point."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if pred(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _circ(a, b):
    d = abs(a - b) % TWO_PI
    return min(d, TWO_PI - d)


def _nearest(theta, is_max, target, want_max):
    best, bi = None, None
    for i in range(len(theta)):
        if bool(is_max[i]) != want_max:
            continue
        d = _circ(theta[i], target)
        if best is None or d < best:
            best, bi = d, i
    return bi


def reference_events(F, Ft, fine=129):
    """(cusp etas, crossing etas) from a dense scan plus bisection.

    Cusps are changes of the critical-point count; crossings are sign
    changes of the value difference of two same-index critical points,
    tracked by nearest theta between neighbouring parameters.
    """
    sl = Slices(F, Ft)
    etas = np.linspace(0.0, 1.0, fine)
    counts = [sl.count(e) for e in etas]
    cusps = []
    for i in range(fine - 1):
        if counts[i] != counts[i + 1]:
            c0 = counts[i]
            cusps.append(_bisect(lambda e: sl.count(e) == c0, etas[i], etas[i + 1]))
    crossings = []
    prev = None
    for i, e in enumerate(etas):
        pts = sl.points(e)
        if prev is not None and counts[i] == counts[i - 1]:
            th0, v0, m0 = prev
            th1, v1, m1 = pts
            match = [_nearest(th1, m1, th0[j], bool(m0[j])) for j in range(len(th0))]
            for a in range(len(th0)):
                for b in range(a + 1, len(th0)):
                    if bool(m0[a]) != bool(m0[b]):
                        continue
                    d0 = v0[a] - v0[b]
                    d1 = v1[match[a]] - v1[match[b]]
                    if d0 * d1 < 0:
                        crossings.append(_cross(sl, etas[i - 1], e, th0[a], th0[b], bool(m0[a])))
        prev = pts
    return sorted(cusps), sorted(crossings)


def _cross(sl, lo, hi, ta, tb, want_max):
    def diff(e):
        th, v, m = sl.points(e)
        return v[_nearest(th, m, ta, want_max)] - v[_nearest(th, m, tb, want_max)]

    s0 = diff(lo) > 0
    return _bisect(lambda e: (diff(e) > 0) == s0, lo, hi)


def _read_csv(data: bytes) -> list:
    return list(csv.DictReader(data.decode().splitlines()))


def check(item: Config, code: int, art: dict, reference: dict) -> None:
    """Full check of one op's artifacts against the own numpy family."""
    require(code == 0, f"{item.name}: exit code {code}")
    _, F, Ft = FAMILIES[item.name]
    if item.name not in reference:
        reference[item.name] = reference_events(F, Ft)
    ref_cusps, ref_cross = reference[item.name]
    events = _read_csv(art["events.csv"])
    cusps = sorted(float(r["eta"]) for r in events if r["type"].startswith("cusp"))
    cross = sorted(float(r["eta"]) for r in events if r["type"] == "crossing")
    for got, want, kind in ((cusps, ref_cusps, "cusp"), (cross, ref_cross, "crossing")):
        require(len(got) == len(want), f"{item.name}: {len(got)} {kind}s, reference {len(want)}")
        for g, w in zip(got, want):
            require(abs(g - w) < 1e-6, f"{item.name}: {kind} at {g}, reference {w}")
    # spectrality slice by slice: rho is minus a mean-zero critical value
    sl = Slices(F, Ft)
    rows = _read_csv(art["rho_curve.csv"])
    values = []
    for r in rows:
        eta, v = float(r["eta"]), float(r["value"])
        _, crit, _ = sl.points(eta)
        require(float(np.min(np.abs(v + crit))) < 1e-8,
                f"{item.name}: rho {v} at eta {eta} is no critical value")
        values.append(v)
    require(len(values) == item.eta_points,
            f"{item.name}: {len(values)} rho samples for {item.eta_points} grid points")
    h = 1.0 / (len(values) - 1)
    jumps = [abs(b - a) for a, b in zip(values, values[1:])]
    require(max(jumps) < 6 * h, f"{item.name}: rho increment {max(jumps)} >= 6h")
    res = json.loads(art["report.json"])["results"]
    require(res["diagram"]["valid"] and not res["diagram"]["violations"],
            f"{item.name}: diagram violations {res['diagram']['violations']}")
    dich = res["continuation"].get("dichotomy")
    require(dich is not None, f"{item.name}: no dichotomy section")
    require(not dich["violations"], f"{item.name}: dichotomy violations {dich['violations']}")
