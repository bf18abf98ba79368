"""Exact spectral invariants of filtered Novikov complexes, desk scale.

The exports resolve on first use (PEP 562), so importing one module, say
`floermini.spectral`, loads neither sympy nor the Morse and Cerf layers.
"""

import importlib

__version__ = "0.1.0"

# export name -> (module, attribute in that module)
_EXPORTS = {
    "ActionValue": ("action", "ActionValue"),
    "NovikovScalar": ("action", "NovikovScalar"),
    "PeriodGroup": ("action", "PeriodGroup"),
    "NEG_INFINITY": ("action", "NEG_INFINITY"),
    "POS_INFINITY": ("action", "POS_INFINITY"),
    "make_period_group": ("action", "make_period_group"),
    "FilteredComplex": ("complexes", "FilteredComplex"),
    "NovikovChain": ("complexes", "NovikovChain"),
    "Orbit": ("complexes", "Orbit"),
    "rho": ("spectral", "rho"),
    "check_spectrality": ("spectral", "check_spectrality"),
    "bounded_boundary_solve": ("spectral", "bounded_boundary_solve"),
    "MorseFunction1D": ("morse", "MorseFunction1D"),
    "build_s1_morse": ("morse", "build_s1_morse"),
    "build_circle_valued": ("morse", "build_circle_valued"),
    "MorseCerfFamily": ("cerf", "MorseCerfFamily"),
    "AbstractCerfFamily": ("cerf", "AbstractCerfFamily"),
    "bifurcation_diagram": ("cerf", "bifurcation_diagram"),
    "continuation_map": ("continuation", "continuation_map"),
    "variation_bounds": ("continuation", "variation_bounds"),
    "hofer_gamma": ("hofer", "gamma"),
}

__all__ = [*_EXPORTS, "__version__"]


def __getattr__(name):
    try:
        module, attr = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
