"""Configuration-driven runner and artifact writer.

Exit codes: 0 success, 2 validation failure (non-generic family and the
like), 1 configuration, engine or output error; failures emit a
structured JSON object on standard error.  Re-running a config produces
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
from pathlib import Path

from . import __version__
from .action import ActionValue
from .cerf import ETA_TOLERANCE, SLOPE_TOLERANCE, classify_events
from .config import RunConfig
from .continuation import (
    classify_steps,
    compose_step_maps,
    dichotomy_constant,
    rho_curve,
    step_maps,
    variation_bounds,
)
from .errors import ConfigError, FloerminiError, NonCerfError
from .hofer import gamma as hofer_gamma, pair_check, random_trig_function
from .morse import THETA_TOLERANCE, VALUE_QUANTUM, build_circle_valued, build_s1_morse
from .render import render_curve_svg, render_diagram_svg
from .spectral import rho, spectrality_certificate


# the tolerances that results depend on, echoed in every report.json
TOLERANCES = {
    "eta_event": ETA_TOLERANCE,
    "theta_refine": THETA_TOLERANCE,
    "value_quantum": f"{1 / VALUE_QUANTUM:g}",
    "slope_check": SLOPE_TOLERANCE,
}


def _json_bytes(obj) -> bytes:
    return (json.dumps(obj, sort_keys=True, indent=2) + "\n").encode()


def _write(path: Path, data) -> None:
    if isinstance(data, str):
        data = data.encode()
    path.write_bytes(data)


def _csv(rows, header) -> str:
    out = [",".join(header)]
    for row in rows:
        out.append(",".join(str(c) for c in row))
    return "\n".join(out) + "\n"


def _fmt_float(x: float) -> str:
    return f"{x:.12g}"


class Runner:
    def __init__(self, cfg: RunConfig, out_dir: Path):
        self.cfg = cfg
        self.out = out_dir
        self.report: dict = {}
        self.exit_code = 0
        self._family = None
        self._function = None

    # -- shared inputs -------------------------------------------------------

    def family(self):
        if self._family is None:
            self._family = self.cfg.build_family()
        return self._family

    def function(self):
        if self._function is None:
            self._function = self.cfg.build_function()
        return self._function

    def eta_grid(self) -> int:
        """Eta points of the family the run used, else the configured grid."""
        if self._family is not None:
            return len(self._family.grid)
        return self.cfg.eta_grid

    def theta_grid(self) -> int:
        """Theta points of the family or function the run used, else the configured grid."""
        if self._function is not None:
            return self._function.N
        return getattr(self._family, "theta_points", self.cfg.theta_grid)

    def diagram(self):
        return self.family().diagram()  # cached by the family

    def source_complex(self):
        kind = self.cfg.source_kind
        if kind == "complex":
            return self.cfg.build_complex()
        if kind == "morse_function":
            f = self.function()
            if f.drift != 0:
                return build_circle_valued(f, self.cfg.eps).complex
            return build_s1_morse(f, self.cfg.eps).complex
        raise ConfigError("task needs a complex or morse_function input")

    # -- tasks ------------------------------------------------------------

    def task_rho(self):
        X = self.source_complex()
        wanted = self.cfg.classes
        classes = X.homology_basis()
        if wanted != "all":
            classes = [X.homology_class(c) for c in wanted]
        results = []
        for c in classes:
            res = rho(X, c)
            cert = spectrality_certificate(X, res)
            entry = res.to_json()
            entry["spectral"] = bool(cert.ok)
            results.append(entry)
        self.report["rho"] = results

    def task_spectrum(self):
        X = self.source_complex()
        self.report["spectrum"] = {
            "orbit_levels": [
                {"orbit": oid, "level": lvl.to_json()}
                for oid, lvl in X.spectrum().levels
            ],
            "gap": X.filtration_gap().__repr__(),
        }

    def task_diagram(self):
        d = self.diagram()
        rows = []
        for b in sorted(d.branches, key=lambda b: b.id):
            for eta, v in zip(b.etas, b.values):
                rows.append((b.id, _fmt_float(eta), _fmt_float(v), b.index))
        _write(self.out / "branches.csv", _csv(rows, ["branch_id", "eta", "value", "index"]))
        ev = []
        for c in sorted(d.cusps, key=lambda c: c.eta):
            ev.append(("cusp:" + c.kind, _fmt_float(c.eta), _fmt_float(c.value),
                       c.branches[0], c.branches[1]))
        for c in sorted(d.crossings, key=lambda c: c.eta):
            ev.append(("crossing", _fmt_float(c.eta), _fmt_float(c.value),
                       c.branch_a, c.branch_b))
        _write(self.out / "events.csv",
               _csv(ev, ["type", "eta", "value", "branch_a", "branch_b"]))
        _write(self.out / "diagram.svg",
               render_diagram_svg(d, self.cfg.ghost_translates))
        report = classify_events(d)
        self.report["diagram"] = {
            "branches": len(d.branches),
            "cusps": len(d.cusps),
            "crossings": len(d.crossings),
            "valid": report.ok,
            "violations": report.violations,
            "metadata": d.metadata,
        }
        if not report.ok:
            self.exit_code = 2

    def task_continuation(self):
        fam = self.family()
        steps = step_maps(fam)
        h = compose_step_maps(steps)
        vb = variation_bounds(fam)
        a0 = dichotomy_constant(fam)
        eps = ActionValue.rational(
            max((a + b for a, b in vb.contributions), default=0)
        )
        entry = {
            "map": h.to_json(),
            "e_minus": vb.e_minus.to_json(),
            "e_plus": vb.e_plus.to_json(),
            "dichotomy_constant": (
                a0.to_json() if isinstance(a0, ActionValue) else repr(a0)
            ),
        }
        # the thin-or-slide dichotomy is a short-run statement: classify the
        # per-interval step maps, never the accumulated composite
        if a0 > eps + eps:
            thin = slides = 0
            violations = []
            for cls in classify_steps(steps, a0, eps):
                thin += len(cls.thin)
                slides += len(cls.slides)
                violations += [
                    [list(k), repr(s), msg] for k, s, msg in cls.violations
                ]
            entry["dichotomy"] = {
                "thin": thin,
                "slides": slides,
                "violations": violations,
            }
            if violations:
                self.exit_code = 2
        self.report["continuation"] = entry

    def task_rho_curve(self):
        fam = self.family()
        cls = "point" if self.cfg.classes == "all" else self.cfg.classes[0]
        curve = rho_curve(fam, cls)
        rows = []
        etas, values = [], []
        for eta, res in curve:
            orbit, cap = res.witness
            rows.append((
                _fmt_float(eta),
                _fmt_float(float(res.value)),
                orbit,
                "[" + " ".join(str(c) for c in cap) + "]",
            ))
            etas.append(eta)
            values.append(res.value)
        _write(self.out / "rho_curve.csv",
               _csv(rows, ["eta", "value", "peak_orbit", "peak_cap"]))
        _write(self.out / "rho_curve.svg", render_curve_svg(etas, values))
        self.report["rho_curve"] = {
            "class": cls,
            "samples": len(rows),
            "first": values[0].to_json(),
            "last": values[-1].to_json(),
        }

    def task_hofer(self):
        rep = hofer_gamma(self.function(), self.cfg.eps)
        self.report["hofer"] = rep.to_json()
        if self.cfg.hofer_sweep:
            self._hofer_sweep(self.cfg.hofer_sweep)

    def _hofer_sweep(self, count: int):
        """Random-pair property table: unit-class values of f, g and f+g,
        the subadditivity verdict, and the continuity bound per row."""
        rng = random.Random(self.cfg.seed)
        rows = []
        while len(rows) < count:
            try:
                expr_f, f = random_trig_function(rng)
                expr_g, g = random_trig_function(rng)
                rf, rg, rsum, _, subadditive, continuous = pair_check(f, g, self.cfg.eps)
            except FloerminiError:
                continue
            rows.append((
                expr_f.replace(",", ";"),
                expr_g.replace(",", ";"),
                _fmt_float(float(rf)),
                _fmt_float(float(rg)),
                _fmt_float(float(rsum)),
                int(subadditive),
                int(continuous),
            ))
        _write(
            self.out / "hofer_sweep.csv",
            _csv(rows, ["f", "g", "rho_f", "rho_g", "rho_sum",
                        "subadditive", "continuity"]),
        )
        self.report["hofer_sweep"] = {
            "rows": len(rows),
            "all_subadditive": all(r[5] for r in rows),
            "all_continuous": all(r[6] for r in rows),
        }

    def task_validate(self):
        violations = []
        if self.cfg.source_kind == "family":
            try:
                report = classify_events(self.diagram())
                violations += report.violations
            except NonCerfError as e:
                violations.append(str(e))
        elif self.cfg.source_kind:
            self.source_complex()  # FilteredComplex refuses every nonpositive drop
        self.report["validate"] = {"violations": violations, "ok": not violations}
        if violations:
            self.exit_code = 2

    def run_tasks(self):
        for t in self.cfg.tasks:  # RunConfig admits only KNOWN_TASKS
            getattr(self, "task_" + t)()


def run(config_path, out_dir=None, seed=None, grid=None) -> int:
    """Execute a config; returns the exit code and writes artifacts."""
    path = Path(config_path)
    try:
        raw_bytes = path.read_bytes()
    except OSError as e:
        _error("missing-file", str(e))
        return 1
    try:
        raw = json.loads(raw_bytes)
    except json.JSONDecodeError as e:
        _error("bad-json", str(e))
        return 1
    if seed is not None and isinstance(raw, dict):  # RunConfig refuses any other root
        raw["seed"] = seed
    try:
        cfg = RunConfig(raw, eta_grid=grid)
    except ConfigError as e:
        _error("schema", str(e))
        return 1

    out = Path(out_dir or cfg.out or ".")
    runner = Runner(cfg, out)
    try:
        out.mkdir(parents=True, exist_ok=True)
        try:
            runner.run_tasks()
        except NonCerfError as e:
            _error("validation", str(e))
            runner.report["validation_error"] = str(e)
            runner.exit_code = 2
        report = {
            "engine_version": __version__,
            "config_hash": hashlib.sha256(raw_bytes).hexdigest(),
            "grid": {"theta": runner.theta_grid(), "eta": runner.eta_grid()},
            "seed": cfg.seed,
            "tolerances": TOLERANCES,
            "results": runner.report,
        }
        _write(out / "report.json", _json_bytes(report))
    except FloerminiError as e:  # a ConfigError here comes from a task's input
        _error("schema" if isinstance(e, ConfigError) else "engine", str(e))
        return 1
    except OSError as e:  # the output directory or an artifact cannot be written
        _error("output", str(e))
        return 1
    return runner.exit_code


def _error(kind: str, message: str):
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="floermini",
        description="Spectral invariants of filtered Novikov complexes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="execute a JSON config")
    runp.add_argument("config", help="path to the config file")
    runp.add_argument("--out", default=None, help="output directory")
    runp.add_argument("--seed", type=int, default=None, help="override the seed")
    runp.add_argument("--grid", type=int, default=None, help="override the eta grid")
    args = parser.parse_args(argv)
    if args.command == "run":
        return run(args.config, args.out, args.seed, args.grid)
    return 1


if __name__ == "__main__":
    sys.exit(main())
