"""The closed-form compiler against sympy's own NumPy printer.

`sympy.lambdify` is kept here only as the oracle: every compiled function
must return bitwise what the lambdified one returns, on the theta grid and,
for functions of (theta, eta), at every point of an eta grid.
"""

import importlib
import json
import math
import random
from pathlib import Path

import numpy as np
import pytest
import sympy as sp

from _oracles import rotated
from floermini import cli, hofer
from floermini.cerf import MorseCerfFamily
from floermini.errors import MorseError
from floermini.morse import (
    MorseFunction1D,
    compile_expression,
    parse_expression,
    validate_expression,
)

GOLDEN = Path(__file__).parent / "golden"
THETA, ETA = sp.Symbol("theta"), sp.Symbol("eta")
THETAS = np.arange(4096) * (2 * math.pi / 4096)
ETAS = [float(e) for e in np.linspace(0.0, 1.0, 9)] + [-0.3, 1.7]

# the families of the cerf_cli benchmark workload
CERF_CLI_FAMILIES = {
    "two_event": "(1-eta)*cos(theta) + eta*(3/2*cos(2*theta - 7/10) - 3/10*cos(3*theta))",
    "birth_death": "cos(theta) + eta*(3/5)*cos(2*theta + 1/2)",
    "slope": "cos(theta) + eta*(1/4*sin(2*theta) + 1/5*cos(3*theta))",
}


def _bits(value):
    return (np.zeros_like(THETAS) + value).view(np.int64)


def _same(got, want):
    assert type(got) is type(want)
    if isinstance(want, list):
        assert len(got) == len(want)
        for g, w in zip(got, want):
            _same(g, w)
    else:
        assert np.array_equal(_bits(got), _bits(want))


def assert_bitwise(expr, symbols=(THETA,)):
    got = compile_expression(expr, symbols)
    want = sp.lambdify(symbols, expr, "numpy")
    if len(symbols) == 1:
        _same(got(THETAS), want(THETAS))
    else:
        for eta in ETAS:
            _same(got(THETAS, eta), want(THETAS, eta))


def assert_function_bitwise(expr):
    assert_bitwise(expr)
    assert_bitwise(sp.diff(expr, THETA))


def assert_family_bitwise(expr):
    """F, its two partials, and the F_k / G_k lists of the eta-expansion."""
    both = (THETA, ETA)
    for e in (expr, sp.diff(expr, THETA), sp.diff(expr, ETA)):
        assert_bitwise(e, both)
    poly = expr.as_poly(ETA)
    if poly is not None:
        F = poly.all_coeffs()[::-1]
        assert_bitwise(F)
        assert_bitwise([sp.diff(c, THETA) for c in F])


def test_random_trig_functions_and_derivatives():
    rng = random.Random(20261018)
    for _ in range(300):
        _, f = hofer.random_trig_function(rng)
        assert_function_bitwise(f.expr)


def _golden_expressions():
    """(expression, is a family) for every closed form in the golden configs."""
    out = []
    for path in sorted(GOLDEN.glob("*.json")):
        cfg = json.loads(path.read_text())
        for key, spec in cfg.items():
            if isinstance(spec, dict) and spec.get("kind") == "closed_form":
                out.append((spec["expr"], key == "family"))
    return out


def test_golden_expressions():
    cases = _golden_expressions()
    assert {family for _, family in cases} == {False, True}
    for text, family in cases:
        if family:
            assert_family_bitwise(parse_expression(text, symbols=(THETA, ETA)))
        else:
            assert_function_bitwise(parse_expression(text))


@pytest.mark.parametrize("name", CERF_CLI_FAMILIES)
def test_cerf_cli_families(name):
    assert_family_bitwise(parse_expression(CERF_CLI_FAMILIES[name], symbols=(THETA, ETA)))


@pytest.mark.parametrize("expr", [
    sp.Float("0.1") * sp.sin(THETA) - sp.Float("0.3"),
    sp.Float("0.123456789012345678", 20) * sp.cos(2 * THETA),
    sp.Float("0.3", 3) * THETA + sp.Float("-2.5e-30") * THETA**2,
    sp.Float("0.3", precision=4) * sp.sin(THETA),
    sp.pi * sp.cos(THETA + sp.pi / 3) - 2 * sp.pi,
    sp.sin(THETA) ** 3 + (1 + sp.cos(THETA)) ** 2 - THETA**4 / 7,
    -sp.cos(THETA) ** 2 * (THETA - sp.Rational(1, 3)),
    sp.Integer(3),
    sp.Rational(-5, 2),
    sp.Integer(0),
], ids=["float", "high-precision-float", "low-precision-float", "four-bit-float", "pi", "powers",
        "negated-product", "integer", "rational", "zero"])
def test_leaves_powers_and_constants(expr):
    assert_function_bitwise(expr)  # a constant's derivative is the integer zero


def test_zero_eta_derivative_and_two_argument_constants():
    assert_family_bitwise(parse_expression("cos(theta) + 1/4*sin(2*theta)",
                                           symbols=(THETA, ETA)))
    assert_family_bitwise(parse_expression("eta*pi - 1/2", symbols=(THETA, ETA)))


@pytest.mark.parametrize("expr", [
    sp.exp(THETA), sp.tan(THETA), THETA**-1, THETA**sp.Rational(1, 2), sp.Symbol("x") + 1,
    sp.sin(sp.Symbol("x")), sp.I * THETA, sp.oo,
], ids=["exp", "tan", "inverse", "root", "unknown-symbol", "nested-unknown", "imaginary",
        "infinity"])
def test_compiler_admits_what_validation_admits(expr):
    with pytest.raises(MorseError) as validated:
        validate_expression(expr)
    with pytest.raises(MorseError) as compiled:
        compile_expression(expr)
    assert str(compiled.value) == str(validated.value)


def test_no_build_path_calls_lambdify(monkeypatch, tmp_path):
    def refuse(*args, **kwargs):
        raise AssertionError("sympy.lambdify called on a build path")

    monkeypatch.setattr(sp, "lambdify", refuse)
    monkeypatch.setattr(importlib.import_module("sympy.utilities.lambdify"), "lambdify", refuse)
    f = MorseFunction1D.closed_form("cos(theta) + 2/5*sin(2*theta)", N=4096)
    g = MorseFunction1D.closed_form("sin(theta)", N=4096)
    for h in (f.negated(), f.added(g), rotated(f, 0.25)):
        assert h.critical_points()
    fam = MorseCerfFamily("cos(theta) + eta*(3/5)*cos(2*theta + 1/2)", eta_points=9,
                          theta_points=4096)
    assert fam._root.expansion is not None
    assert cli.main(["run", str(GOLDEN / "bd_diagram.json"), "--out", str(tmp_path)]) == 0
