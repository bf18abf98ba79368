"""Exception hierarchy shared across the package."""


class FloerminiError(Exception):
    """Base class for all engine errors."""


class ConstantClassError(FloerminiError):
    """A declared constant is outside the supported exact classes."""


class IndependenceError(FloerminiError):
    """Declared generator values are not rationally independent."""


class BasisMismatchError(FloerminiError):
    """Exact values over different irrational bases were combined."""


class RankMismatchError(FloerminiError):
    """A cap class has the wrong rank for its period group."""


class ZeroScalarError(FloerminiError):
    """Operation undefined on the zero Novikov scalar."""


class FiltrationError(FloerminiError):
    """Boundary data violates the strict level-lowering requirement."""


class ComplexStructureError(FloerminiError):
    """Orbit/boundary data is structurally inconsistent (ids, degrees, caps)."""


class NotACycleError(FloerminiError):
    """A chain expected to be closed is not."""


class NotABoundaryError(FloerminiError):
    """A chain expected to bound does not."""


class ZeroClassError(FloerminiError):
    """The mini-max value is undefined for the zero homology class."""


class DegreeError(FloerminiError):
    """Mixed-degree chain used where a pure degree is required."""


class MorseError(FloerminiError):
    """Critical point detection failed (degenerate or empty input)."""


class PairingError(FloerminiError):
    """Critical point pairing refused: ambiguity or count mismatch."""


class NonCerfError(FloerminiError):
    """A family failed the genericity checks and cannot be tracked."""


class EventError(FloerminiError):
    """Operation attempted at or across an unclassified event."""


class ChainMapError(FloerminiError):
    """A constructed map failed the chain-map identity check."""


class ConfigError(FloerminiError):
    """Run configuration is missing fields or malformed."""
