import csv
import hashlib
import json
import os
import random
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest

from floermini import config, hofer
from floermini.cli import Runner, main, run
from floermini.config import MAX_ETA_POINTS, MAX_HOFER_SWEEP, MAX_THETA_POINTS, RunConfig

GOLDEN = Path(__file__).parent / "golden"

COS = {"kind": "closed_form", "expr": "cos(theta)", "grid": 256}
FUNCTION_CFG = {"tasks": ["rho"], "morse_function": COS}
FAMILY_CFG = {
    "tasks": ["rho_curve"],
    "family": {"kind": "closed_form", "expr": "cos(theta)", "eta_points": 3,
               "theta_points": 256},
}
POINT = {"orbits": [{"id": "x", "level": {"q": "0"}, "index": 0}], "boundary": []}
ABSTRACT_CFG = {
    "tasks": ["continuation"],
    "family": {"kind": "abstract", "complexes": [POINT, POINT]},
}


def swap_config(levels, bounds=None, tasks=("diagram",)):
    """Declared family whose orbits a and b take the given (a, b) levels,
    with one crossing step then pairings."""
    def point(la, lb):
        return {"orbits": [{"id": "a", "level": {"q": str(la)}, "index": 0},
                           {"id": "b", "level": {"q": str(lb)}, "index": 0}],
                "boundary": []}

    steps = [{"type": "crossing", "a": "a", "b": "b", "eta": 0.5, "value": 0.5}]
    family = {"kind": "abstract", "complexes": [point(*lv) for lv in levels],
              "steps": steps + [{"type": "pairing"}] * (len(levels) - 2)}
    if bounds is not None:
        family["bounds"] = bounds
    return {"tasks": list(tasks), "family": family}


def read_all(d: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(d.iterdir()) if p.is_file()}


# 2999 Fourier terms, about 80 KB: sympy's parser recurses too deep on it
LONG_EXPR = " + ".join(f"1/{k}^2*cos({k}*theta)" for k in range(1, 3000))


class TestRun:
    def test_cgamma_rho_exact(self, tmp_path):
        code = run(GOLDEN / "cgamma_rho.json", tmp_path)
        assert code == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        rho = rep["results"]["rho"]
        assert len(rho) == 1
        entry = rho[0]
        assert entry["rho"]["q"] == "3/10"
        assert entry["rho"]["irr"] == "-1"
        assert entry["witness"] == {"orbit": "x2", "cap": [1]}
        assert entry["tight_cycle"] == [
            {"orbit": "x2", "scalar": [{"cap": [1], "coeff": "1"}]}
        ]
        assert entry["spectral"] is True
        assert rep["results"]["validate"]["ok"]
        assert "config_hash" in rep and "engine_version" in rep
        assert rep["tolerances"] == {"eta_event": 1e-6, "theta_refine": 1e-9,
                                     "value_quantum": "1e-12", "slope_check": 1e-8}

    def test_config_tolerances_are_not_read(self, tmp_path, capsys):
        """The report gives the tolerances the engine applies; a config's
        `tolerances` field is refused as an unknown field."""
        from floermini import cerf

        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(dict(FUNCTION_CFG, tolerances={"eta_event": 0.5})))
        assert run(p, tmp_path / "out") == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "schema" and "'tolerances'" in err["message"]
        assert not (tmp_path / "out").exists()
        assert run(GOLDEN / "cgamma_rho.json", tmp_path / "out") == 0
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["tolerances"]["eta_event"] == cerf.ETA_TOLERANCE == 1e-6

    def test_unknown_field_is_schema_error(self, tmp_path, capsys):
        """A misspelt field fails the run instead of being ignored."""
        raw = json.loads((GOLDEN / "hofer_cos.json").read_text())
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(dict(raw, hofer_swep=5)))
        assert run(p, tmp_path / "out") == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "schema"
        assert "'hofer_swep'" in err["message"]
        assert not (tmp_path / "out").exists()

    def test_constant_family_diagram(self, tmp_path):
        code = run(GOLDEN / "constant_diagram.json", tmp_path)
        assert code == 0
        branches = (tmp_path / "branches.csv").read_text().splitlines()
        assert branches[0] == "branch_id,eta,value,index"
        ids = {line.split(",")[0] for line in branches[1:]}
        assert ids == {"b0", "b1"}
        events = (tmp_path / "events.csv").read_text().splitlines()
        assert events == ["type,eta,value,branch_a,branch_b"]

    def test_missing_tasks_is_schema_error(self, tmp_path, capsys):
        code = run(GOLDEN / "malformed.json", tmp_path)
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "schema"
        assert "tasks" in err["message"]

    def test_missing_file(self, tmp_path, capsys):
        code = run(tmp_path / "nope.json", tmp_path)
        assert code == 1
        err = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert err["error"] == "missing-file"

    def test_seed_flag_on_a_non_object_root_is_schema_error(self, tmp_path, capsys):
        """--seed leaves the root as it is, so an array root is refused as
        it is without the flag."""
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps([FUNCTION_CFG]))
        for flags in ([], ["--seed", "3"]):
            assert main(["run", str(p), "--out", str(tmp_path / "out")] + flags) == 1
            lines = capsys.readouterr().err.splitlines()
            assert len(lines) == 1  # one JSON line, no traceback
            assert json.loads(lines[0]) == {"error": "schema",
                                            "message": "config root must be a JSON object"}

    @pytest.mark.parametrize("blocked", ["out", "out/report.json"])
    def test_unwritable_output_is_an_output_error(self, tmp_path, capsys, blocked):
        """--out naming a regular file, or an artifact path taken by a
        directory, exits 1 with an "output" error."""
        out = tmp_path / "out"
        if blocked == "out":
            out.write_text("not a directory")
        else:
            (tmp_path / blocked).mkdir(parents=True)
        assert main(["run", str(GOLDEN / "cgamma_rho.json"), "--out", str(out)]) == 1
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "output"
        assert str(tmp_path / blocked) in err["message"]

    @pytest.mark.parametrize("config", [FUNCTION_CFG, FAMILY_CFG])
    def test_malformed_value_bases_run(self, tmp_path, config):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config))
        assert run(p, tmp_path / "out") == 0

    @pytest.mark.parametrize("config,flags,field", [
        pytest.param(dict(FUNCTION_CFG, seed="abc"), [], "seed", id="seed"),
        pytest.param(dict(FUNCTION_CFG, grid={"theta": "x"}), [], "grid.theta", id="grid-theta"),
        pytest.param(dict(FUNCTION_CFG, eps="abc"), [], "eps", id="eps"),
        pytest.param(dict(FUNCTION_CFG, ghost_translates="x"), [], "ghost_translates",
                     id="ghost-translates"),
        pytest.param(dict(FUNCTION_CFG, morse_function=dict(COS, drift="x")), [], "drift",
                     id="drift"),
        pytest.param(dict(FUNCTION_CFG, classes=5), [], "classes", id="classes-number"),
        pytest.param(dict(FUNCTION_CFG, classes="h0_0"), [], "classes", id="classes-string"),
        pytest.param(dict(FAMILY_CFG, classes=[]), [], "classes", id="classes-empty"),
        pytest.param(dict(FAMILY_CFG, family=[]), [], "family", id="family-list"),
        pytest.param(dict(FUNCTION_CFG, morse_function="cos(theta)"), [], "morse_function",
                     id="function-string"),
        pytest.param(dict(FUNCTION_CFG, morse_function={"kind": "samples", "values": ["a", "b"]}),
                     [], "values", id="sample-values"),
        pytest.param(dict(FUNCTION_CFG, morse_function=dict(COS, grid=0)), [], "grid",
                     id="function-grid"),
        pytest.param(dict(FAMILY_CFG, family=dict(FAMILY_CFG["family"], eta_points=0)), [],
                     "eta_points", id="eta-points-zero"),
        pytest.param(dict(FAMILY_CFG, family=dict(FAMILY_CFG["family"], eta_points=-3)), [],
                     "eta_points", id="eta-points-negative"),
        pytest.param(dict(FAMILY_CFG, family=dict(FAMILY_CFG["family"], theta_points=0)), [],
                     "theta_points", id="theta-points"),
        pytest.param(FAMILY_CFG, ["--grid", "0"], "grid.eta", id="grid-flag"),
        pytest.param(dict(FAMILY_CFG, family={"kind": "closed_form"}), [], "expr",
                     id="family-without-expr"),
        pytest.param(dict(FAMILY_CFG, family=dict(FAMILY_CFG["family"], eta_points="x")), [],
                     "eta_points", id="eta-points-string"),
        pytest.param({"tasks": ["rho"], "complex": 3}, [], "complex", id="complex-number"),
        pytest.param(dict(ABSTRACT_CFG, family=dict(ABSTRACT_CFG["family"], complexes=[3])), [],
                     "complexes", id="complexes-number"),
        pytest.param(dict(ABSTRACT_CFG, family=dict(ABSTRACT_CFG["family"], steps=5)), [],
                     "steps", id="steps-number"),
        pytest.param(dict(ABSTRACT_CFG, family=dict(ABSTRACT_CFG["family"], bounds=[[1]])), [],
                     "bounds", id="bounds-short"),
        pytest.param(dict(FUNCTION_CFG, tasks=["hofer"], hofer_sweep="x"), [], "hofer_sweep",
                     id="hofer-sweep-string"),
        pytest.param(dict(FUNCTION_CFG, tasks=["hofer"], hofer_sweep=-1), [], "hofer_sweep",
                     id="hofer-sweep-negative"),
        pytest.param(dict(FUNCTION_CFG, tasks=["hofer"], hofer_sweep=2.9), [], "hofer_sweep",
                     id="hofer-sweep-float"),
        pytest.param(dict(FAMILY_CFG, family=dict(FAMILY_CFG["family"], eta_points=16.5)), [],
                     "eta_points", id="eta-points-float"),
        pytest.param(dict(FUNCTION_CFG, seed=True), [], "seed", id="seed-bool"),
        pytest.param(dict(FUNCTION_CFG, out=5), [], "out", id="out-number"),
    ])
    def test_malformed_values_end_in_a_structured_error(self, tmp_path, capsys, config, flags,
                                                        field):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config))
        assert main(["run", str(p), "--out", str(tmp_path / "out")] + flags) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert set(err) == {"error", "message"}
        assert err["error"] == "schema"
        assert f"{field!r}" in err["message"]

    @pytest.mark.parametrize("config_,flags,field", [
        pytest.param(dict(FUNCTION_CFG, morse_function=dict(COS, grid=10**15)), [], "grid",
                     id="function-grid-huge"),
        pytest.param(dict(FUNCTION_CFG, morse_function=dict(COS, grid=MAX_THETA_POINTS + 1)),
                     [], "grid", id="function-grid"),
        pytest.param({"tasks": ["rho"], "morse_function": {"expr": "cos(theta)"},
                      "grid": {"theta": MAX_THETA_POINTS + 1}}, [], "grid.theta",
                     id="grid-theta"),
        pytest.param({"tasks": ["rho"], "complex": POINT, "grid": {"eta": MAX_ETA_POINTS + 1}},
                     [], "grid.eta", id="grid-eta"),
        pytest.param({"tasks": ["rho"], "complex": POINT}, ["--grid", str(MAX_ETA_POINTS + 1)],
                     "grid.eta", id="grid-flag"),
        pytest.param(dict(FAMILY_CFG, family=dict(FAMILY_CFG["family"], theta_points=10**15)),
                     [], "theta_points", id="theta-points"),
        pytest.param(dict(FAMILY_CFG, family=dict(FAMILY_CFG["family"], eta_points=10**15)),
                     [], "eta_points", id="eta-points"),
        pytest.param(dict(FUNCTION_CFG, hofer_sweep=MAX_HOFER_SWEEP + 1), [], "hofer_sweep",
                     id="hofer-sweep"),
        pytest.param(dict(FUNCTION_CFG, eps="-1/2"), [], "eps", id="eps-negative"),
        pytest.param(dict(FUNCTION_CFG, eps=0), [], "eps", id="eps-zero"),
    ])
    def test_sizes_above_the_caps_are_refused_before_any_build(self, tmp_path, capsys,
                                                                monkeypatch, config_, flags,
                                                                field):
        """Each size is capped and eps must be positive: a run asking for
        more exits 1 with a "schema" error, and no function or family is
        built, so nothing the size would allocate is."""
        def refuse(*args, **kwargs):
            raise AssertionError("built past the config check")

        monkeypatch.setattr(config, "MorseCerfFamily", refuse)
        monkeypatch.setattr(config.MorseFunction1D, "closed_form", refuse)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config_))
        assert main(["run", str(p), "--out", str(tmp_path / "out")] + flags) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = err.splitlines()
        err = json.loads(line)
        assert err["error"] == "schema"
        assert f"{field!r}" in err["message"]
        assert not (tmp_path / "out" / "report.json").exists()

    @pytest.mark.parametrize("config_", [
        pytest.param({"tasks": ["rho"], "morse_function": {"expr": LONG_EXPR}},
                     id="morse-function"),
        pytest.param({"tasks": ["diagram"], "family": {"kind": "closed_form", "eta_points": 9,
                                                       "expr": LONG_EXPR + " + eta*cos(theta)"}},
                     id="family"),
    ])
    def test_long_expression_is_one_structured_error(self, tmp_path, capsys, config_):
        """The parser's RecursionError on a very long expression is a
        MorseError: exit 1, one JSON line on stderr, no traceback."""
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(config_))
        assert main(["run", str(p), "--out", str(tmp_path / "out")]) == 1
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "engine"
        assert err["message"].startswith("cannot parse expression '1/1^2*cos(1*theta) + ")
        assert "characters): maximum recursion depth exceeded" in err["message"]
        assert len(err["message"]) < 300

    def test_sizes_at_the_caps_are_admitted(self):
        raw = {"tasks": ["rho"], "morse_function": dict(COS, grid=MAX_THETA_POINTS),
               "grid": {"theta": MAX_THETA_POINTS, "eta": MAX_ETA_POINTS},
               "hofer_sweep": MAX_HOFER_SWEEP}
        cfg = RunConfig(raw)
        assert (cfg.theta_grid, cfg.eta_grid, cfg.hofer_sweep) == (
            MAX_THETA_POINTS, MAX_ETA_POINTS, MAX_HOFER_SWEEP)
        assert RunConfig(raw, eta_grid=MAX_ETA_POINTS).eta_grid == MAX_ETA_POINTS
        # the caps sit well above every size the tests and the benchmark use
        assert MAX_THETA_POINTS >= 8 * (1 << 15) and MAX_ETA_POINTS >= 8 * 257

    @pytest.mark.parametrize("step, fragment", [
        pytest.param({"type": "slide"}, "types and keys", id="slide-without-its-keys"),
        pytest.param({"type": "swap"}, "types and keys", id="unknown-type"),
        pytest.param({"type": "crossing", "a": "x", "b": "x", "eta": 1.5}, "strictly inside",
                     id="crossing-eta"),
        pytest.param({"type": "slide", "slide_from": "x", "slide_over": "x", "eta": "x"},
                     "must be numbers", id="slide-eta-text"),
        pytest.param({"type": "birth", "plus": "x", "minus": "x", "eta": 0.5, "value": "v"},
                     "must be numbers", id="birth-value-text"),
        pytest.param({"type": "crossing", "a": "x", "b": "x", "eta": None},
                     "must be numbers", id="crossing-eta-null"),
        pytest.param({"type": "crossing", "a": "x", "b": "y", "eta": 0.5},
                     "crossing orbit 'y'", id="crossing-unknown-orbit"),
    ])
    def test_malformed_declared_step_is_a_validation_error(self, tmp_path, capsys, step,
                                                           fragment):
        cfg = dict(ABSTRACT_CFG, family=dict(ABSTRACT_CFG["family"], steps=[step]))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert run(p, tmp_path / "out") == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1  # one JSON line, no traceback
        err = json.loads(lines[0])
        assert err["error"] == "validation"
        assert fragment in err["message"]

    def test_declared_event_outside_its_interval_is_a_validation_error(self, tmp_path, capsys):
        cfg = swap_config([(0, 1), (1, 0), (1, 0)], tasks=("diagram", "validate"))
        cfg["family"]["steps"][0]["eta"] = 0.9  # step 0 spans [0, 0.5]
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert run(p, tmp_path / "out") == 2
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        err = json.loads(lines[0])
        assert err["error"] == "validation"
        assert err["message"].startswith("declared step 0 ")
        assert "outside its interval [0.0, 0.5]" in err["message"]

    def test_degenerate_interior_grid_slice(self, tmp_path, capsys):
        cfg = {"family": {"kind": "closed_form", "expr": "(1 - 2*eta)*cos(theta)",
                          "eta_points": 33, "theta_points": 4096},
               "tasks": ["diagram", "rho_curve", "continuation"], "classes": ["point"]}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert run(p, tmp_path / "out") == 2
        assert capsys.readouterr().err.splitlines() == [json.dumps({
            "error": "validation",
            "message": "degenerate slice at eta=0.5: no critical points detected after"
                       " normalization"})]

    def test_two_sample_crossing_is_a_valid_diagram(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(swap_config([(0, 1), (1, 0)])))
        assert run(p, tmp_path / "out") == 0
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["results"]["diagram"]["valid"] is True
        assert rep["results"]["diagram"]["crossings"] == 1

    @pytest.mark.parametrize("bounds,code", [([["1/2", "1/2"], ["1/2", "1/2"]], 0), (None, 2)])
    def test_declared_crossing_continues_as_a_pairing(self, tmp_path, bounds, code):
        cfg = swap_config([(0, 1), (Fraction(1, 2), Fraction(1, 2)), (1, 0)], bounds,
                          ("diagram", "continuation"))
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert run(p, tmp_path / "out") == code
        res = json.loads((tmp_path / "out" / "report.json").read_text())["results"]
        assert res["diagram"]["valid"] is True
        cont = res["continuation"]
        one = [{"cap": [], "coeff": "1"}]
        assert cont["map"] == [{"from": o, "to": o, "scalar": one, "provenance": "pairing"}
                               for o in ("a", "b")]
        if bounds is None:  # without declared bounds the level shifts sit in the middle band
            assert {v[2] for v in cont["dichotomy"]["violations"]} == {"forbidden middle band"}
        else:
            assert cont["dichotomy"]["violations"] == []

    def test_hofer_task(self, tmp_path):
        code = run(GOLDEN / "hofer_cos.json", tmp_path)
        assert code == 0
        rep = json.loads((tmp_path / "report.json").read_text())
        h = rep["results"]["hofer"]
        assert h["e_minus"]["q"] == "1/10"
        assert h["gamma"]["q"] == "1/5"
        assert h["positive"] is False

    def test_hofer_sweep(self, tmp_path):
        cfg = json.loads((GOLDEN / "hofer_cos.json").read_text())
        cfg.update(seed=7, hofer_sweep=5)
        path = tmp_path / "sweep.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / "out"
        assert run(path, out) == 0
        lines = (out / "hofer_sweep.csv").read_text().splitlines()
        assert lines[0] == "f,g,rho_f,rho_g,rho_sum,subadditive,continuity"
        assert len(lines) == 1 + 5
        # the seed fixes the drawn pairs, coefficients in eighths
        f, g = lines[1].split(",")[:2]
        assert f.startswith("(2/8)*cos(1*theta) + (-4/8)*sin(1*theta)")
        assert g.startswith("(3/8)*cos(1*theta) + (-7/8)*sin(1*theta)")
        sweep = json.loads((out / "report.json").read_text())["results"]["hofer_sweep"]
        assert sweep == {"rows": 5, "all_subadditive": True, "all_continuous": True}

    def test_abstract_family_round_trip(self, tmp_path):
        cfg = {
            "family": {
                "kind": "abstract",
                "complexes": [
                    {
                        "orbits": [
                            {"id": "x", "level": {"q": "3"}, "index": 1},
                            {"id": "y", "level": {"q": "5"}, "index": 1},
                            {"id": "w", "level": {"q": "6"}, "index": 2},
                        ],
                        "boundary": [
                            {"from": "w", "to": "y",
                             "scalar": [{"cap": [], "coeff": "1"}]},
                            {"from": "w", "to": "x",
                             "scalar": [{"cap": [], "coeff": "-1"}]},
                        ],
                    },
                    {
                        "orbits": [
                            {"id": "x", "level": {"q": "3"}, "index": 1},
                            {"id": "y", "level": {"q": "5"}, "index": 1},
                            {"id": "w", "level": {"q": "6"}, "index": 2},
                        ],
                        "boundary": [
                            {"from": "w", "to": "x",
                             "scalar": [{"cap": [], "coeff": "-1"}]}
                        ],
                    },
                ],
                "steps": [
                    {"type": "slide", "slide_from": "x", "slide_over": "y",
                     "cap": [], "coeff": "1", "eta": 0.5, "value": 4.0}
                ],
                "bounds": [["1/8", "1/8"]],
            },
            "tasks": ["diagram", "continuation"],
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code = run(p, tmp_path / "out")
        assert code == 0
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        cont = rep["results"]["continuation"]
        slide_entries = [
            e for e in cont["map"] if e["provenance"] == "slide"
        ]
        assert slide_entries == [
            {"from": "x", "to": "y", "scalar": [{"cap": [], "coeff": "1"}],
             "provenance": "slide"}
        ]
        assert cont["dichotomy"]["violations"] == []
        assert cont["dichotomy"]["slides"] == 1

    def test_non_cerf_family_exit_2(self, tmp_path):
        cfg = {
            "family": {
                "kind": "closed_form",
                "expr": "(1-eta)*cos(theta) + eta*cos(theta + pi)",
                "eta_points": 17,
            },
            "tasks": ["validate"],
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        code = run(p, tmp_path / "out")
        assert code == 2

    def test_cli_entry_point(self, tmp_path, capsys):
        code = main(["run", str(GOLDEN / "hofer_cos.json"), "--out", str(tmp_path)])
        assert code == 0

    def test_python_dash_m_entry_point(self, tmp_path):
        import floermini

        env = dict(os.environ)
        src = os.path.dirname(os.path.dirname(floermini.__file__))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        out = subprocess.run(
            [sys.executable, "-m", "floermini", "run", str(GOLDEN / "constant_diagram.json"),
             "--out", str(tmp_path)],
            env=env, capture_output=True, text=True,
        )
        assert out.returncode == 0, out.stderr
        assert (tmp_path / "diagram.svg").is_file()

    def test_grid_flag_overrides_family_eta_points(self, tmp_path):
        for flag, eta in ((None, 65), (129, 129)):  # bd_diagram.json says 65
            out = tmp_path / str(eta)
            argv = ["run", str(GOLDEN / "bd_diagram.json"), "--out", str(out)]
            assert main(argv + (["--grid", str(flag)] if flag else [])) == 0
            rep = json.loads((out / "report.json").read_text())
            assert rep["grid"]["eta"] == eta
            assert rep["results"]["rho_curve"]["samples"] == eta
            assert len((out / "rho_curve.csv").read_text().splitlines()) == eta + 1

    def test_one_scan_per_slice(self, tmp_path, monkeypatch):
        """One run builds the diagram and the step maps once, and scans each
        slice it creates exactly once, a slice that fails detection
        included: the crossing search and the slopes of the two-event
        family read the family's detected slices too."""
        import sys

        from floermini import cerf, continuation
        from floermini.morse import MorseFunction1D

        calls = {"diagram": 0, "step_maps": 0}
        slots = set()
        scans: dict = {}  # slice -> times it was scanned

        def counted(key, fn):
            def wrapper(*args, **kwargs):
                calls[key] += 1
                return fn(*args, **kwargs)
            return wrapper

        def count_everywhere(key, fn):
            """Count calls through every floermini module that holds fn."""
            wrapper = counted(key, fn)
            for name, mod in list(sys.modules.items()):
                if name.startswith("floermini"):
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            monkeypatch.setattr(mod, attr, wrapper)

        function_at, check = cerf.MorseCerfFamily.function_at, MorseFunction1D._check_cells

        def counted_scan(f, *args):
            scans[f] = scans.get(f, 0) + 1
            return check(f, *args)

        def recorded_function_at(fam, s):
            slots.add(float(s))
            return function_at(fam, s)

        count_everywhere("diagram", cerf.bifurcation_diagram)
        count_everywhere("step_maps", continuation.step_maps)
        monkeypatch.setattr(MorseFunction1D, "_check_cells", counted_scan)
        monkeypatch.setattr(cerf.MorseCerfFamily, "function_at", recorded_function_at)
        # a birth cusp; a birth cusp and a crossing (acceptance 07)
        for name, eta_points in (("birth_death", 17), ("two_event", 33)):
            calls.update(diagram=0, step_maps=0)
            slots.clear()
            scans.clear()
            cfg = {
                "family": {"kind": "closed_form", "expr": CERF_CLI_FAMILIES[name],
                           "eta_points": eta_points, "theta_points": 4096},
                "tasks": ["diagram", "rho_curve", "continuation"],
                "classes": ["point"],
            }
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps(cfg))
            assert run(p, tmp_path / name) == 0
            if name == "two_event":
                events = (tmp_path / name / "events.csv").read_text()
                assert events.count("crossing,") == 1
            assert calls == {"diagram": 1, "step_maps": 1}
            assert set(scans.values()) == {1}
            assert len(scans) == len(slots) >= eta_points

    def test_family_slices_never_detect_on_their_own(self, tmp_path, monkeypatch):
        """`floermini run` detects every slice of a closed-form family
        through the family, the walker's endpoints, event bisection and
        pairing refinement included: no slice reaches the per-slice
        `MorseFunction1D._detect`."""
        from floermini.morse import MorseFunction1D

        def forbidden(f):
            raise AssertionError("a family slice detected on its own")

        monkeypatch.setattr(MorseFunction1D, "_detect", forbidden)
        for name, expr in CERF_CLI_FAMILIES.items():
            p = tmp_path / f"{name}.json"
            p.write_text(json.dumps({
                "family": {"kind": "closed_form", "expr": expr,
                           "eta_points": 257, "theta_points": 16384},
                "tasks": ["diagram", "rho_curve", "continuation"],
                "classes": ["point"],
            }))
            assert main(["run", str(p), "--out", str(tmp_path / name)]) == 0

    @pytest.mark.parametrize("cfg,theta", [
        ({"family": {"kind": "closed_form", "expr": "cos(theta)", "eta_points": 3,
                     "theta_points": 4096}, "tasks": ["diagram"]}, 4096),
        ({"morse_function": dict(COS, grid=1024), "tasks": ["rho"]}, 1024),
    ], ids=["family-theta-points", "function-grid"])
    def test_report_records_the_theta_grid_used(self, tmp_path, cfg, theta):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert run(p, tmp_path / "out") == 0
        rep = json.loads((tmp_path / "out" / "report.json").read_text())
        assert rep["grid"]["theta"] == theta
        if "diagram" in rep["results"]:
            assert rep["results"]["diagram"]["metadata"]["theta_points"] == theta

    def test_undersampled_function_names_the_critical_points(self, tmp_path, capsys):
        cfg = {"morse_function": {"kind": "closed_form", "expr": "cos(1000*theta)",
                                  "grid": 1024}, "tasks": ["rho"]}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert run(p, tmp_path / "out") == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "engine"
        assert err["message"].startswith("critical points c0 (theta=0.000000000, value 1)"
                                         " and c1 (theta=")
        assert "value 1) do not lower the level on a 1024-point grid" in err["message"]

    def test_lost_crossing_branch_is_a_validation_error(self, tmp_path, capsys):
        # the branches turn at 8 eta rad per unit eta: between samples 1/4
        # apart they bend away from the line that the search follows
        family = {"kind": "closed_form", "expr": "cos(2*theta + 8*eta**2) + 1/5*cos(theta)",
                  "eta_points": 5, "theta_points": 2048}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"family": family, "tasks": ["diagram"]}))
        assert run(p, tmp_path / "out") == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "validation"
        assert err["message"].startswith("crossing search of branches b0 and b2 at eta=")
        assert "lost the critical point near theta=" in err["message"]
        assert err["message"].endswith("; refine the eta grid")

    def test_two_cusps_in_one_interval_is_a_validation_error(self, tmp_path, capsys):
        # the palindromic family of hofer.random_trig_function seeds 0 and
        # 69282: its two births, at eta 0.185091 and 0.185255, share an interval
        h0, h1 = (hofer.random_trig_function(random.Random(seed))[0] for seed in (0, 69282))
        family = {"kind": "closed_form", "eta_points": 65, "theta_points": 4096,
                  "expr": f"({h0}) + 4*eta*(1 - eta)*(({h1}) - ({h0}))"}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"family": family, "classes": ["point"],
                                 "tasks": ["diagram", "rho_curve", "continuation"]}))
        assert run(p, tmp_path / "out") == 2
        err = json.loads(capsys.readouterr().err)
        assert err == {"error": "validation",
                       "message": "refine the grid: two cusps in one interval"}
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["results"]["validation_error"] == err["message"]
        assert report["results"]["diagram"]["valid"]

    def test_crossing_search_follows_a_fast_branch(self, tmp_path):
        """The branches of cos(2 theta + 4 eta) turn 2 rad per unit eta: a
        crossing midpoint of a 9-point grid lies 0.125 rad from the nearest
        sample, beyond the search's reach, but on the line between the two
        samples around it.  The crossing is the one finer grids find."""
        rows = {}
        for eta_points in (9, 17):
            family = {"kind": "closed_form", "expr": "cos(2*theta + 4*eta) + 1/5*cos(theta)",
                      "eta_points": eta_points, "theta_points": 2048}
            p = tmp_path / f"cfg{eta_points}.json"
            p.write_text(json.dumps({"family": family, "tasks": ["diagram"]}))
            out = tmp_path / f"out{eta_points}"
            assert run(p, out) == 0
            rows[eta_points] = [r for r in (out / "events.csv").read_text().splitlines()
                                if r.endswith(",b0,b2")]
        assert rows[9] == rows[17] == ["crossing,0.785398006439,-1.0050000627,b0,b2"]

    def test_declared_birth_is_one_cusp_in_events_csv(self, tmp_path):
        x = {"id": "x", "level": {"q": "0"}, "index": 0}
        born = {"orbits": [x, {"id": "p", "level": {"q": "2"}, "index": 1},
                           {"id": "m", "level": {"q": "1"}, "index": 0}],
                "boundary": [{"from": "p", "to": "m", "scalar": [{"cap": [], "coeff": "1"}]}]}
        step = {"type": "birth", "plus": "p", "minus": "m", "eta": 0.5, "value": 1.5}
        cfg = {"family": {"kind": "abstract", "complexes": [{"orbits": [x]}, born],
                          "steps": [step]},
               "tasks": ["diagram"]}
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert run(p, tmp_path / "out") == 0
        diagram = json.loads((tmp_path / "out" / "report.json").read_text())["results"]["diagram"]
        assert (diagram["cusps"], diagram["valid"]) == (1, True)
        assert (tmp_path / "out" / "events.csv").read_text().splitlines() == [
            "type,eta,value,branch_a,branch_b",
            "cusp:birth,0.5,1.5,b_p,b_m",
        ]

    def test_ghost_translates_render_dashed(self, tmp_path):
        cfg = {
            "period_group": {"generators": [{"rational": "1/2"}], "c1": [0]},
            "family": {
                "kind": "abstract",
                "complexes": [
                    {"orbits": [{"id": "x", "level": {"q": "0"}, "index": 0}],
                     "boundary": []},
                    {"orbits": [{"id": "x", "level": {"q": "0"}, "index": 0}],
                     "boundary": []},
                ],
            },
            "tasks": ["diagram"],
            "ghost_translates": 1,
        }
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(cfg))
        assert run(p, tmp_path / "out") == 0
        svg = (tmp_path / "out" / "diagram.svg").read_text()
        assert "stroke-dasharray" in svg


# the closed-form families of the cerf_cli benchmark workload
CERF_CLI_FAMILIES = {
    "two_event": "(1-eta)*cos(theta) + eta*(3/2*cos(2*theta - 7/10) - 3/10*cos(3*theta))",
    "birth_death": "cos(theta) + eta*(3/5)*cos(2*theta + 1/2)",
    "slope": "cos(theta) + eta*(1/4*sin(2*theta) + 1/5*cos(3*theta))",
}

ARTIFACTS = ("branches.csv", "events.csv", "diagram.svg", "rho_curve.csv",
             "rho_curve.svg", "report.json")


class TestEtaExpansion:
    """The eta-expansion of closed-form families leaves every artifact as
    the exact per-slice evaluation writes it."""

    @pytest.mark.parametrize("config", ["bd_diagram", "acceptance_07"])
    def test_artifacts_byte_identical_without_expansion(self, tmp_path, monkeypatch, config):
        from floermini import cerf

        if config == "bd_diagram":
            path = GOLDEN / "bd_diagram.json"
        else:
            path = tmp_path / "acceptance_07.json"
            path.write_text(json.dumps({
                "family": {"kind": "closed_form",
                           "expr": "(1-eta)*cos(theta) + eta*(3/2*cos(2*theta - 7/10)"
                                   " - 3/10*cos(3*theta))",
                           "eta_points": 33, "theta_points": 4096},
                "tasks": ["diagram", "rho_curve", "continuation"],
                "classes": ["point"],
            }))
        scans = []
        certified = cerf._Certificate.cells
        monkeypatch.setattr(cerf._Certificate, "cells",
                            lambda *args: scans.append(args) or certified(*args))
        assert run(path, tmp_path / "on") == 0
        assert scans

        root_init = cerf._Root.__init__

        def exact_root(root, *args):
            root_init(root, *args)
            root.eta_free, root.expansion = False, None

        monkeypatch.setattr(cerf._Root, "__init__", exact_root)
        scans.clear()
        assert run(path, tmp_path / "off") == 0
        assert not scans
        on, off = read_all(tmp_path / "on"), read_all(tmp_path / "off")
        assert sorted(on) == sorted(off) == sorted(ARTIFACTS)
        for name in ARTIFACTS:
            assert on[name] == off[name], f"{config}:{name} differs without the expansion"


class TestRendering:
    def test_empty_diagram_axes_only(self):
        from floermini.cerf import CerfDiagram
        from floermini.render import render_diagram_svg

        from floermini.action import make_period_group

        d = CerfDiagram([], [], [], make_period_group([], []), {})
        svg = render_diagram_svg(d)
        assert svg.startswith("<svg")
        assert svg.rstrip().endswith("</svg>")
        assert "eta" in svg and "action" in svg
        assert "polyline" not in svg

    def test_ghost_translates_shift_only_the_original_values(self):
        from floermini.action import ActionValue, make_period_group
        from floermini.cerf import Branch, CerfDiagram
        from floermini.render import render_diagram_svg

        b = Branch("b0", 0)
        b.etas, b.values = [0.0, 1.0], [0.0, 0.5]
        d = CerfDiagram([b], [], [], make_period_group([ActionValue(1)], [0]), {})
        svg = render_diagram_svg(d, ghost_translates=2)
        # the drawing spans -2 .. 2.5; the axis adds 5% of that on each side
        ticks = [float(line.split(">")[1].split("<")[0]) for line in svg.splitlines()
                 if 'text-anchor="end"' in line]
        assert (min(ticks), max(ticks)) == (-2.225, 2.725)
        assert svg.count("<polyline") == 5

    def test_constant_diagram_two_polylines(self, tmp_path):
        run(GOLDEN / "constant_diagram.json", tmp_path)
        svg = (tmp_path / "diagram.svg").read_text()
        assert svg.count("<polyline") == 2


class TestGoldenDigests:
    """SHA-256 digests of every artifact, with stdout, stderr and the exit
    code, of the three `cerf_cli` families at 257 x 16384
    (golden/cerf_*.json) and of the rotation loop (golden/rotation_loop.json),
    recorded in golden/cerf_digests.json.  Two critical values of two_event
    lie within 4 ulp of a rounding boundary of the 1e-12 value quantum
    (ROADMAP item 7): under another libm they may round the other way, and
    its branches.csv digest with them."""

    DIGESTS = json.loads((GOLDEN / "cerf_digests.json").read_text())

    @pytest.mark.parametrize("name", sorted(DIGESTS))
    def test_artifacts_match_the_recorded_digests(self, tmp_path, capsys, name):
        code = main(["run", str(GOLDEN / f"{name}.json"), "--out", str(tmp_path)])
        out, err = capsys.readouterr()
        got = {
            "exit": code,
            "stdout": hashlib.sha256(out.encode()).hexdigest(),
            "stderr": hashlib.sha256(err.encode()).hexdigest(),
            "artifacts": {n: hashlib.sha256(b).hexdigest() for n, b in read_all(tmp_path).items()},
        }
        assert got == self.DIGESTS[name]


class TestRotationLoop:
    """The generic rotation loop cos(theta - 2 pi eta) + 1/3 cos(2 theta -
    4 pi eta + 1/2) at 65 x 4096: two branches and no events, so the
    continuation composite is the identity, all pairing, and rho is
    constant.  Orbit labels follow theta order, and a critical point wraps
    past theta = 0 along the loop, so rho's witness changes label while it
    stays on one branch of the diagram."""

    def test_loop_is_the_identity_with_constant_rho_on_one_branch(self, tmp_path):
        cfg = RunConfig(json.loads((GOLDEN / "rotation_loop.json").read_text()))
        runner = Runner(cfg, tmp_path)
        runner.run_tasks()
        assert runner.exit_code == 0
        res = runner.report
        assert (res["diagram"]["branches"], res["diagram"]["cusps"],
                res["diagram"]["crossings"]) == (2, 0, 0)
        assert res["continuation"]["map"] == [
            {"from": o, "to": o, "scalar": [{"cap": [], "coeff": "1"}], "provenance": "pairing"}
            for o in ("c0", "c1")]
        rows = list(csv.DictReader((tmp_path / "rho_curve.csv").read_text().splitlines()))
        assert len(rows) == 65
        assert {r["value"] for r in rows} == {"-1.31552285237"}
        assert Counter(r["peak_orbit"] for r in rows) == {"c0": 23, "c1": 42}
        tracks = runner.diagram().tracks
        branches = {next(b for b, o in tracks[i].items() if o == r["peak_orbit"])
                    for i, r in enumerate(rows)}
        assert len(branches) == 1


class TestDeterminism:
    @pytest.mark.parametrize(
        "config",
        ["cgamma_rho.json", "constant_diagram.json", "bd_diagram.json", "hofer_cos.json"],
    )
    def test_rerun_byte_identical(self, tmp_path, config):
        a, b = tmp_path / "a", tmp_path / "b"
        assert run(GOLDEN / config, a) == run(GOLDEN / config, b)
        fa, fb = read_all(a), read_all(b)
        assert fa.keys() == fb.keys()
        for name in fa:
            assert fa[name] == fb[name], f"{config}:{name} differs between runs"

    def test_birth_death_svg_matches_golden(self, tmp_path):
        run(GOLDEN / "bd_diagram.json", tmp_path)
        got = (tmp_path / "diagram.svg").read_bytes()
        assert got == (GOLDEN / "bd_diagram.svg").read_bytes()
