"""Uniform 1D grid, nodal fields, and the discrete L2 geometry.

The domain D = (x_min, x_max) is discretized by ``n_cells`` interior nodes
plus the two boundary nodes, all uniformly spaced.  Fields store one value
per node, boundary nodes included.  The discrete inner product sums over
interior nodes only, matching homogeneous Dirichlet problems where boundary
values are data, not unknowns.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from typing import Callable

import numpy as np

from .errors import GridMismatchError, InvalidBoundsError, InvalidSizeError

DIRICHLET_ZERO = "dirichlet-zero"
DIRICHLET_DATA = "dirichlet-data"


@dataclass(frozen=True)
class Grid:
    """Uniform grid on [x_min, x_max] with ``n_cells`` interior nodes.

    Attributes
    ----------
    x_min, x_max : float
        Domain endpoints.
    n_cells : int
        Number of interior nodes.
    h : float
        Node spacing, (x_max - x_min) / (n_cells + 1).
    nodes : ndarray, shape (n_cells + 2,)
        Node positions including both boundary nodes.
    """

    x_min: float
    x_max: float
    n_cells: int
    h: float
    nodes: np.ndarray = dc_field(repr=False)

    @property
    def n_total(self) -> int:
        return self.n_cells + 2

    @property
    def interior(self) -> np.ndarray:
        """Positions of the interior nodes."""
        return self.nodes[1:-1]

    @property
    def width(self) -> float:
        return self.x_max - self.x_min

    def same_as(self, other: "Grid") -> bool:
        return (
            self.n_cells == other.n_cells
            and self.x_min == other.x_min
            and self.x_max == other.x_max
        )

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Grid) and self.same_as(other)

    def __hash__(self) -> int:
        return hash((self.x_min, self.x_max, self.n_cells))


def build_grid(x_min: float, x_max: float, n_cells: int) -> Grid:
    """Build a uniform grid with ``n_cells`` interior nodes.

    Raises
    ------
    InvalidBoundsError
        If ``x_max <= x_min``.
    InvalidSizeError
        If ``n_cells < 2``.
    """
    if not x_max > x_min:
        raise InvalidBoundsError(f"x_max ({x_max}) must exceed x_min ({x_min})")
    if int(n_cells) != n_cells or n_cells < 2:
        raise InvalidSizeError(f"n_cells must be an integer >= 2, got {n_cells}")
    n_cells = int(n_cells)
    h = (x_max - x_min) / (n_cells + 1)
    nodes = x_min + h * np.arange(n_cells + 2)
    nodes[-1] = x_max
    nodes.setflags(write=False)
    return Grid(x_min=x_min, x_max=x_max, n_cells=n_cells, h=h, nodes=nodes)


@dataclass(frozen=True)
class Field:
    """Nodal scalar field on a :class:`Grid`, boundary nodes included."""

    grid: Grid
    values: np.ndarray
    boundary_kind: str = DIRICHLET_ZERO

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        if values.shape != (self.grid.n_total,):
            raise GridMismatchError(
                f"field has {values.shape} values, grid has {self.grid.n_total} nodes"
            )
        if self.boundary_kind not in (DIRICHLET_ZERO, DIRICHLET_DATA):
            raise ValueError(f"unknown boundary kind {self.boundary_kind!r}")
        if self.boundary_kind == DIRICHLET_ZERO and (values[0] != 0.0 or values[-1] != 0.0):
            raise ValueError("dirichlet-zero field has nonzero boundary values")
        object.__setattr__(self, "values", values)

    @property
    def interior(self) -> np.ndarray:
        return self.values[1:-1]

    @classmethod
    def zeros(cls, grid: Grid) -> "Field":
        return cls(grid, np.zeros(grid.n_total))

    @classmethod
    def from_function(
        cls, grid: Grid, fn: Callable[[np.ndarray], np.ndarray], boundary_kind: str = DIRICHLET_DATA
    ) -> "Field":
        values = np.asarray(fn(grid.nodes), dtype=float)
        values = np.broadcast_to(values, (grid.n_total,)).copy()
        if boundary_kind == DIRICHLET_ZERO:
            values[0] = 0.0
            values[-1] = 0.0
        return cls(grid, values, boundary_kind)

    @classmethod
    def from_interior(cls, grid: Grid, interior: np.ndarray) -> "Field":
        values = np.zeros(grid.n_total)
        values[1:-1] = interior
        return cls(grid, values, DIRICHLET_ZERO)


def inner_product(f: Field, g: Field) -> float:
    """Discrete L2(D) pairing: h times the sum of f*g over interior nodes."""
    if not f.grid.same_as(g.grid):
        raise GridMismatchError("fields live on different grids")
    return float(f.grid.h * np.dot(f.interior, g.interior))


def norm_h(f: Field) -> float:
    """Discrete L2 norm, interior nodes only."""
    return float(np.sqrt(f.grid.h) * np.linalg.norm(f.interior))


@np.errstate(over="ignore", invalid="ignore")  # an overflowed norm is inf, for its caller to fail
def sup_norm_h(rows: np.ndarray, h: float) -> float:
    """sup_t ||v(t)||_H of a path's interior rows: the max over rows of sqrt(h sum v^2)."""
    return float(np.max(np.sqrt(h * np.sum(rows**2, axis=1))))


def grad_seminorm_sq(f: Field) -> float:
    """Squared forward-difference gradient seminorm over all n_cells+1 intervals."""
    d = np.diff(f.values) / f.grid.h
    return float(f.grid.h * np.dot(d, d))


def norm_w(f: Field) -> float:
    """Discrete first-order Sobolev norm: sqrt(||f||_H^2 + ||D+ f||_H^2)."""
    return float(np.sqrt(norm_h(f) ** 2 + grad_seminorm_sq(f)))


@dataclass(frozen=True)
class FieldPath:
    """A time-indexed family of fields on one grid.

    ``values[k, i]`` is the field value at time node ``times[k]`` and space
    node ``i`` (boundary nodes included).
    """

    grid: Grid
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        values = np.asarray(self.values, dtype=float)
        if values.shape != (times.size, self.grid.n_total):
            raise GridMismatchError(
                f"path values {values.shape} incompatible with "
                f"{times.size} times x {self.grid.n_total} nodes"
            )
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "values", values)

    @property
    def n_times(self) -> int:
        return self.times.size
