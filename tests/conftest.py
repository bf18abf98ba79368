import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# fixed example order and no example database: every run draws the same inputs
settings.register_profile("floermini", derandomize=True, database=None, deadline=None)
settings.load_profile("floermini")

from fractions import Fraction

from floermini.action import ActionValue, NovikovScalar, make_period_group
from floermini.complexes import FilteredComplex, NovikovChain, Orbit


@pytest.fixture
def trivial_group():
    return make_period_group([], [])


@pytest.fixture
def dense_group():
    return make_period_group([ActionValue(1), ActionValue.sqrt(2)], [0, 0])


@pytest.fixture
def c3(trivial_group):
    """Three-orbit complex: x, y in degree 1 at levels 3, 5; w in degree 2
    at level 6 with dw = y - x."""
    G = trivial_group
    orbits = [Orbit("x", 3, 1), Orbit("y", 5, 1), Orbit("w", 6, 2)]
    boundary = {
        "w": {
            "y": NovikovScalar.one(G),
            "x": NovikovScalar.monomial(G, (), -1),
        }
    }
    return FilteredComplex(G, orbits, boundary)


@pytest.fixture
def c_gamma():
    """Irrational instance: orbits x1 (level 0), x2 (level 3/10) in degree 0,
    y (level 1) in degree 1, dy = x1 - q^g x2 with omega(g) = sqrt 2."""
    G = make_period_group([ActionValue.sqrt(2)], [0])
    orbits = [
        Orbit("x1", 0, 0),
        Orbit("x2", Fraction(3, 10), 0),
        Orbit("y", 1, 1),
    ]
    boundary = {
        "y": {
            "x1": NovikovScalar.one(G),
            "x2": NovikovScalar.monomial(G, (1,), -1),
        }
    }
    return FilteredComplex(G, orbits, boundary), G


def unit(G, oid, cap=None, coeff=1):
    return NovikovChain.unit(G, oid, cap, coeff)
