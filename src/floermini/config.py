"""Run configuration: schema validation and object construction."""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping

from .action import PeriodGroup, make_period_group
from .cerf import DEFAULT_ETA_GRID, AbstractCerfFamily, MorseCerfFamily
from .complexes import FilteredComplex
from .errors import ConfigError
from .morse import DEFAULT_GRID, MorseFunction1D

KNOWN_TASKS = ("rho", "spectrum", "diagram", "continuation", "rho_curve", "hofer", "validate")

# every top-level field a config may give; any other is a schema error
KNOWN_FIELDS = ("tasks", "period_group", "seed", "grid", "eps", "classes", "out",
                "ghost_translates", "hofer_sweep", "complex", "morse_function", "family")

# the largest sizes a config may ask for, checked before anything is
# allocated: a run then ends in bounded time and memory, or is refused
MAX_THETA_POINTS = 1 << 18
MAX_ETA_POINTS = 4097
MAX_HOFER_SWEEP = 1000


class RunConfig:
    """Validated run settings.  `eta_grid`, when given (the CLI's --grid),
    overrides both the config's grid.eta and a family's eta_points."""

    def __init__(self, raw: Mapping, eta_grid=None):
        if not isinstance(raw, Mapping):
            raise ConfigError("config root must be a JSON object")
        self.raw = raw
        for field in raw:
            if field not in KNOWN_FIELDS:
                raise ConfigError(f"unknown field {field!r}; known: {KNOWN_FIELDS}")
        if "tasks" not in raw:
            raise ConfigError("missing required field: tasks")
        tasks = raw["tasks"]
        if not isinstance(tasks, list) or not tasks:
            raise ConfigError("field 'tasks' must be a non-empty list")
        for t in tasks:
            if t not in KNOWN_TASKS:
                raise ConfigError(f"unknown task {t!r}; known: {KNOWN_TASKS}")
        self.tasks = list(tasks)
        self.group = self._group(raw.get("period_group"))
        self.seed = _integer("seed", raw.get("seed", 0))
        grid = raw.get("grid", {})
        if not isinstance(grid, Mapping):
            raise ConfigError("field 'grid' must be an object")
        self.theta_grid = _size("grid.theta", grid.get("theta", DEFAULT_GRID),
                                MAX_THETA_POINTS)
        self.eta_forced = eta_grid is not None
        self.eta_grid = _size("grid.eta", eta_grid if self.eta_forced
                              else grid.get("eta", DEFAULT_ETA_GRID), MAX_ETA_POINTS)
        self.eps = _fraction("eps", raw.get("eps", 1))
        if self.eps <= 0:
            raise ConfigError("field 'eps' must be positive")
        self.classes = raw.get("classes", "all")
        if self.classes != "all" and not (
            isinstance(self.classes, list) and self.classes
            and all(isinstance(c, str) for c in self.classes)
        ):
            raise ConfigError("field 'classes' must be \"all\" or a non-empty list of names")
        self.out = raw.get("out")
        if self.out is not None and not isinstance(self.out, str):
            raise ConfigError("field 'out' must be a directory path")
        self.ghost_translates = _integer("ghost_translates", raw.get("ghost_translates", 0))
        self.hofer_sweep = _size("hofer_sweep", raw.get("hofer_sweep", 0), MAX_HOFER_SWEEP,
                                 least=0)

        sources = [k for k in ("complex", "morse_function", "family") if k in raw]
        if len(sources) > 1:
            raise ConfigError(f"give exactly one of complex/morse_function/family")
        self.source_kind = sources[0] if sources else None
        needs_source = set(self.tasks) - {"validate"}
        if needs_source and not self.source_kind:
            raise ConfigError(
                "missing input: one of complex, morse_function or family"
            )

    def _group(self, spec) -> PeriodGroup:
        if spec is None:
            return make_period_group([], [])
        try:
            return PeriodGroup.from_json(spec)
        except Exception as e:
            raise ConfigError(f"bad period_group: {e}") from None

    # -- object construction -------------------------------------------------

    def build_complex(self) -> FilteredComplex:
        spec = self.raw.get("complex")
        if spec is None:
            raise ConfigError("task needs a 'complex' input")
        return self._complexes("complex", [spec])[0]

    def _complexes(self, field: str, specs) -> list:
        try:
            return [FilteredComplex.from_json(self.group, spec) for spec in specs]
        except ConfigError:
            raise
        except Exception as e:
            raise ConfigError(f"bad {field!r} spec: {e}") from None

    def build_function(self) -> MorseFunction1D:
        return _function_from_json(_spec(self.raw, "morse_function"), self.theta_grid)

    def build_family(self):
        spec = _spec(self.raw, "family")
        kind = spec.get("kind", "closed_form")
        if kind == "closed_form":
            if "expr" not in spec:
                raise ConfigError("closed_form family needs 'expr'")
            eta_points = _size("eta_points", spec.get("eta_points", self.eta_grid),
                               MAX_ETA_POINTS)
            return MorseCerfFamily(
                spec["expr"],
                eta_points=self.eta_grid if self.eta_forced else eta_points,
                theta_points=_size("theta_points", spec.get("theta_points", self.theta_grid),
                                   MAX_THETA_POINTS),
            )
        if kind == "abstract":
            steps, bounds = spec.get("steps", []), spec.get("bounds", [])
            if not isinstance(steps, list) or not all(isinstance(st, Mapping) for st in steps):
                raise ConfigError("field 'steps' must be a list of objects")
            if not isinstance(bounds, list) or not all(
                    isinstance(b, list) and len(b) == 2 for b in bounds):
                raise ConfigError("field 'bounds' must be a list of [e_minus, e_plus] pairs")
            return AbstractCerfFamily(
                self.group,
                self._complexes("complexes", spec.get("complexes", [])),
                steps,
                [(_fraction("bounds", a), _fraction("bounds", b)) for a, b in bounds] or None,
            )
        raise ConfigError(f"unknown family kind {kind!r}")


def _function_from_json(spec: Mapping, default_grid: int) -> MorseFunction1D:
    kind = spec.get("kind", "closed_form")
    drift = _fraction("drift", spec.get("drift", 0))
    if kind == "closed_form":
        if "expr" not in spec:
            raise ConfigError("closed_form function needs 'expr'")
        return MorseFunction1D.closed_form(
            spec["expr"], N=_size("grid", spec.get("grid", default_grid), MAX_THETA_POINTS),
            drift=drift
        )
    if kind == "samples":
        values = spec.get("values")
        if not values:
            raise ConfigError("samples function needs 'values'")
        try:
            values = [float(v) for v in values]
        except (TypeError, ValueError):
            raise ConfigError("samples function needs numeric 'values'") from None
        return MorseFunction1D.from_samples(values, drift=drift)
    raise ConfigError(f"unknown function kind {kind!r}")


def _spec(raw: Mapping, field: str) -> Mapping:
    spec = raw.get(field)
    if spec is None:
        raise ConfigError(f"task needs a {field!r} input")
    if not isinstance(spec, Mapping):
        raise ConfigError(f"field {field!r} must be an object")
    return spec


def _integer(field: str, value) -> int:
    # int(value) would truncate 2.9 to 2 and read true as 1
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"field {field!r} must be an integer")
    return value


def _size(field: str, value, most: int, least=1) -> int:
    n = _integer(field, value)
    if n < least:
        kind = "positive" if least == 1 else "non-negative"
        raise ConfigError(f"field {field!r} must be a {kind} integer")
    if n > most:
        raise ConfigError(f"field {field!r} is {n}, above the largest allowed, {most}")
    return n


def _fraction(field: str, value) -> Fraction:
    try:
        return Fraction(str(value))
    except (TypeError, ValueError):
        raise ConfigError(f"field {field!r} must be a number") from None
