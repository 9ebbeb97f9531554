"""Strict, versioned JSON run configuration.

Unknown keys are rejected with their dotted path; derived quantities (grid
spacing, time step) are computed at load time.  Every bad value is refused
with a ValidationError at its own key; a configuration that passes loads
without a warning.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .backward import levels_problem
from .errors import ParseError, ValidationError
from .forward import CRANK_NICOLSON, IMPLICIT, ProblemSpec
from .grid import DIRICHLET_ZERO, Field, build_grid
from .operators import OperatorSpec

SCHEMA_VERSION = 1
_INT_RANGE = range(-(2**63), 2**63)  # what a numpy int64 holds


@dataclass(frozen=True)
class BackwardConfig:
    levels: tuple[int, ...]


@dataclass(frozen=True)
class ControlConfig:
    max_rate: float


@dataclass(frozen=True)
class MonteCarloConfig:
    n_paths: int
    seed: int


@dataclass(frozen=True)
class OutputConfig:
    directory: str
    formats: tuple[str, ...]


@dataclass(frozen=True)
class RunConfig:
    problem: ProblemSpec
    backward: BackwardConfig
    control: ControlConfig
    mc: MonteCarloConfig
    outputs: OutputConfig
    raw: dict
    config_hash: str


def canonical_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


class _Checker:
    """Tracks the field path while walking the raw dictionary."""

    def __init__(self, data: dict, path: str = ""):
        if not isinstance(data, dict):
            raise ValidationError("expected an object", path or "<root>")
        self.data = data
        self.path = path
        self.seen: set[str] = set()

    def _at(self, key: str) -> str:
        return f"{self.path}.{key}" if self.path else key

    def get(self, key: str, kind, default=None, require=False, int64=True):
        self.seen.add(key)
        if key not in self.data:
            if require:
                raise ValidationError("missing required field", self._at(key))
            return default
        value = self.data[key]
        # JSON true and false are Python ints, but never numbers here
        bool_as_number = kind in (int, float) and isinstance(value, bool)
        if kind is float and isinstance(value, (int, float)) and not bool_as_number:
            value = _float(value, self._at(key))
        if int64 and kind is int and isinstance(value, int) and value not in _INT_RANGE:
            raise ValidationError("integer out of the 64-bit range", self._at(key))
        if kind is not None and (bool_as_number or not isinstance(value, kind)):
            raise ValidationError(
                f"expected {getattr(kind, '__name__', kind)}, got {type(value).__name__}",
                self._at(key),
            )
        return value

    def sub(self, key: str, require=False) -> "_Checker | None":
        self.seen.add(key)
        if key not in self.data:
            if require:
                raise ValidationError("missing required section", self._at(key))
            return None
        return _Checker(self.data[key], self._at(key))

    def reject_unknown(self):
        unknown = set(self.data) - self.seen
        if unknown:
            key = sorted(unknown)[0]
            raise ValidationError("unknown key", self._at(key))


def _float(value: int | float, path: str) -> float:
    """A JSON number as a finite float: no integer past the float range, NaN or Infinity."""
    try:
        number = float(value)
    except OverflowError:
        raise ValidationError("integer out of the float range", path) from None
    if not math.isfinite(number):
        raise ValidationError(f"must be finite, got {number}", path)
    return number


def _positive(value: float, path: str) -> float:
    if not value > 0:
        raise ValidationError(f"must be positive, got {value}", path)
    return value


def _build_shape(node: _Checker | None, grid, path: str) -> Field | None:
    """Initial condition: amplitude * sin(pi x) on the unit-scaled grid, or None (all ones)."""
    if node is None:
        return None
    kind = node.get("kind", str, require=True)
    if kind != "sine":
        raise ValidationError(f"unknown shape kind {kind!r}", f"{path}.kind")
    amp = _positive(node.get("amplitude", float, default=1.0), f"{path}.amplitude")
    node.reject_unknown()
    values = amp * np.sin(np.pi * ((grid.nodes - grid.x_min) / grid.width))
    values[0] = 0.0
    values[-1] = 0.0
    return Field(grid, values, DIRICHLET_ZERO)


def _build_price(node, path: str):
    """Price factory: a number, or an interior pocket as a function of x."""
    if node is None:
        return 1.0
    if isinstance(node, (int, float)) and not isinstance(node, bool):
        return _positive(_float(node, path), path)
    checker = _Checker(node, path)
    kind = checker.get("kind", str, require=True)
    if kind == "pocket":
        base = _positive(checker.get("base", float, require=True), f"{path}.base")
        amp = checker.get("amplitude", float, require=True)
        center = checker.get("center", float, require=True)
        width = _positive(checker.get("width", float, require=True), f"{path}.width")
        checker.reject_unknown()

        def price(x):
            # far from the center the exponent overflows to -inf, and exp(-inf) = 0 is exact
            with np.errstate(over="ignore"):
                return base + amp * np.exp(-(((x - center) / width) ** 2))

        return price
    raise ValidationError(f"unknown price kind {kind!r}", f"{path}.kind")


def parse_config(raw: dict) -> RunConfig:
    """Validate a raw configuration dictionary into a RunConfig."""
    root = _Checker(raw)
    version = root.get("schema_version", int, default=SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ValidationError(f"unsupported schema version {version}", "schema_version")
    problem = root.sub("problem", require=True)
    grid_node = problem.sub("grid", require=True)
    x_min = grid_node.get("x_min", float, default=0.0)
    x_max = grid_node.get("x_max", float, default=1.0)
    n_cells = grid_node.get("n_cells", int, require=True)
    grid_node.reject_unknown()
    if x_max <= x_min:
        raise ValidationError("x_max must exceed x_min", "problem.grid.x_max")
    if n_cells < 2:
        raise ValidationError("n_cells must be >= 2", "problem.grid.n_cells")
    grid = build_grid(x_min, x_max, n_cells)
    if not 0.0 < grid.h * grid.h < math.inf:  # h**2 would raise OverflowError
        raise ValidationError(f"grid spacing {grid.h} squares out of range", "problem.grid.x_max")

    op_node = problem.sub("operator", require=True)
    second = op_node.get("second_order", float, default=0.5)
    first = op_node.get("first_order", float, default=0.0)
    theta = op_node.get("theta", float, default=0.1)
    op_node.reject_unknown()
    if second < 0:
        raise ValidationError("second_order must be nonnegative", "problem.operator.second_order")
    if not 0 < theta < grid.width:
        raise ValidationError(
            f"theta must lie in (0, {grid.width}), got {theta}", "problem.operator.theta"
        )
    op = OperatorSpec(second, first, theta)

    time_node = problem.sub("time", require=True)
    horizon = _positive(time_node.get("horizon", float, require=True), "problem.time.horizon")
    n_steps = time_node.get("n_steps", int, require=True)
    time_node.reject_unknown()
    if n_steps < 1:
        raise ValidationError("n_steps must be >= 1", "problem.time.n_steps")
    # 2 max(dt, 1) |a| / h^2 and 2 max(dt, 1) |b| / (2h) bound every band of A and of dt A;
    # as Python floats an overflow is inf, not a numpy warning
    weight = 2.0 * max(horizon / n_steps, 1.0)
    bands = (("second_order", second, grid.h**2), ("first_order", first, 2.0 * grid.h))
    for key, value, scale in bands:
        if not math.isfinite(weight * abs(value) / scale):
            raise ValidationError(
                "overflows the step matrix on this grid and time step", f"problem.operator.{key}"
            )

    model_node = problem.sub("model", require=True)
    alpha = model_node.get("alpha", float, default=0.0)
    beta = model_node.get("beta", float, default=0.0)
    lambda0 = _positive(model_node.get("lambda0", float, default=1.0), "problem.model.lambda0")
    model_node.reject_unknown()

    modes = problem.sub("modes")
    stepping = IMPLICIT
    if modes is not None:
        stepping = modes.get("stepping", str, default=stepping)
        if stepping not in (IMPLICIT, CRANK_NICOLSON):
            raise ValidationError(f"unknown stepping mode {stepping!r}", "problem.modes.stepping")
        modes.reject_unknown()

    initial = _build_shape(problem.sub("initial"), grid, "problem.initial")

    boundary_node = problem.sub("boundary")
    boundary = None
    if boundary_node is not None:
        left = boundary_node.get("left", float, default=0.0)
        right = boundary_node.get("right", float, default=0.0)
        boundary_node.reject_unknown()
        if left < 0 or right < 0:
            raise ValidationError("boundary data must be nonnegative", "problem.boundary")
        boundary = (left, right)

    prices = problem.sub("prices")
    h10: Any = 1.0
    g0: Any = 1.0
    cost = 0.0
    if prices is not None:
        h10 = _build_price(prices.get("h10", None, default=None), "problem.prices.h10")
        g0 = _build_price(prices.get("g0", None, default=None), "problem.prices.g0")
        cost = prices.get("cost", float, default=0.0)
        prices.reject_unknown()
    problem.reject_unknown()

    try:
        spec = ProblemSpec(
            grid=grid,
            op=op,
            horizon=horizon,
            n_steps=n_steps,
            alpha=alpha,
            beta=beta,
            lambda0=lambda0,
            stepping=stepping,
            initial=initial,
            boundary=boundary,
            h10=h10,
            g0=g0,
            cost=cost,
        )
    except ValidationError:
        raise
    except Exception as exc:
        raise ValidationError(str(exc), "problem") from exc

    backward_node = root.sub("backward")
    levels = (4, 16, 64, 256)
    if backward_node is not None:
        raw_levels = backward_node.get("levels", list, default=list(levels))
        if problem := levels_problem(raw_levels):
            raise ValidationError(problem, "backward.levels")
        levels = tuple(raw_levels)
        backward_node.reject_unknown()

    control_node = root.sub("control")
    max_rate = 0.9
    if control_node is not None:
        max_rate = control_node.get("max_rate", float, default=max_rate)
        if not 0 < max_rate < 1:
            raise ValidationError("max_rate must lie in (0, 1)", "control.max_rate")
        control_node.reject_unknown()

    mc_node = root.sub("mc")
    n_paths, seed = 1000, 12345
    if mc_node is not None:
        n_paths = mc_node.get("n_paths", int, default=n_paths)
        seed = mc_node.get("seed", int, require=True, int64=False)  # path seeds are unbounded
        mc_node.reject_unknown()
        if n_paths < 1:
            raise ValidationError("n_paths must be >= 1", "mc.n_paths")
        if seed < 0:
            raise ValidationError("seed must be >= 0", "mc.seed")

    out_node = root.sub("outputs")
    directory, formats = "out", ("csv", "json")
    if out_node is not None:
        directory = out_node.get("directory", str, default=directory)
        fmts = out_node.get("formats", list, default=list(formats))
        for fmt in fmts:
            if fmt not in ("csv", "json"):
                raise ValidationError(f"unknown format {fmt!r}", "outputs.formats")
        formats = tuple(fmts)
        out_node.reject_unknown()

    root.reject_unknown()

    return RunConfig(
        problem=spec,
        backward=BackwardConfig(levels=levels),
        control=ControlConfig(max_rate=max_rate),
        mc=MonteCarloConfig(n_paths=n_paths, seed=seed),
        outputs=OutputConfig(directory=directory, formats=formats),
        raw=raw,
        config_hash=canonical_hash(raw),
    )


def load_config(path: str) -> RunConfig:
    """Read and validate a JSON run configuration file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except FileNotFoundError:
        raise ParseError(f"configuration file not found: {path}")
    # a directory, bytes that are not UTF-8, nesting past the recursion limit, an integer past
    # Python's digit limit, or invalid JSON
    except (OSError, ValueError, RecursionError) as exc:
        raise ParseError(f"cannot read {path} as JSON: {exc}")
    return parse_config(raw)
