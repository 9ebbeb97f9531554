"""Reflected backward equations solved by penalization.

The target system, stated for the lower reflection side, is

    dY = -A Y dt - F(t, Y) dt + Z dB - eta(dt, x),
    Y(T) = phi,    Y >= L,    integral of (Y - L) against eta(dt, x) dx = 0,

with eta nonnegative and nondecreasing.  A space-mean term of the forward
equation reaches the adjoint's F through its dual weight w(x), pointwise in
Y (see :func:`smc.control.assemble_adjoint`).  The penalized approximation at
level n replaces the constraint by the drift n (Y - L)^- and is stepped
implicitly in both the generator and the penalty; the nonsmooth negative
part is handled by a semi-smooth active-set fixed point per step.  The
reflection measure is recovered from the top penalization level as the
running time integral of n (Y^n - L)^-.

F, phi and L are deterministic, so the solution is deterministic and Z is
identically zero (the martingale term vanishes).

Upper-side problems are solved by negation of the data and mapped back, so
the negation duality holds bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from numbers import Integral
from typing import Callable

import numpy as np

from .errors import (
    DegenerateFitError,
    GridMismatchError,
    NanDetectedError,
    NoConvergenceError,
    NonCauchyError,
    TerminalConsistencyError,
)
from .forward import CRANK_NICOLSON, SingularControl, map_ordered
from .grid import Field, FieldPath, Grid
from .operators import OperatorSpec, TridiagonalStepper, operator_tridiagonal

LOWER = "lower"
UPPER = "upper"
BACKWARD_EULER = "backward-euler"

_INACTIVE = -1e300  # obstacle stand-in when no barrier is given
_MAX_FIXED_POINT_ITERS = 100  # active-set iterations per step before NoConvergenceError


@dataclass(frozen=True)
class BackwardSpec:
    """Data of one reflected backward problem on the grid.

    ``driver`` has signature F(t, x_int, y) -> array over interior
    nodes and must be Lipschitz in y.  ``obstacle``
    is a callable L(t, nodes) -> values, or None for an unconstrained solve.
    ``singular`` optionally couples a nondecreasing control to the drift:
    the pair (control, coefficient) adds coefficient(t, x_int, y) * dxi_k to
    the backward step.  Homogeneous Dirichlet boundary throughout.
    """

    grid: Grid
    op: OperatorSpec
    horizon: float
    n_steps: int
    terminal: Field
    driver: Callable | None = None
    obstacle: Callable | None = None
    reflection_side: str = LOWER
    singular: tuple[SingularControl, Callable] | None = None
    use_adjoint_operator: bool = False
    allow_terminal_violation: bool = False
    time_scheme: str = BACKWARD_EULER

    def __post_init__(self):
        if self.horizon <= 0.0 or self.n_steps < 1:
            raise ValueError("horizon must be positive and n_steps >= 1")
        if self.reflection_side not in (LOWER, UPPER):
            raise ValueError(f"unknown reflection side {self.reflection_side!r}")
        if self.time_scheme not in (BACKWARD_EULER, CRANK_NICOLSON):
            raise ValueError(f"unknown time scheme {self.time_scheme!r}")
        if self.time_scheme == CRANK_NICOLSON and self.obstacle is not None:
            raise ValueError("crank-nicolson stepping supports unconstrained solves only")
        if not self.terminal.grid.same_as(self.grid):
            raise GridMismatchError("terminal field grid differs from problem grid")
        if self.singular is not None:
            control, _ = self.singular
            expected = (self.n_steps + 1, self.grid.n_cells)
            if control.cumulative.shape != expected:
                raise GridMismatchError(
                    f"singular control shape {control.cumulative.shape} != {expected}"
                )
        if self.obstacle is not None and not self.allow_terminal_violation:
            gap = self.terminal.interior - self.obstacle_interior(self.horizon)
            if self.reflection_side == UPPER:
                gap = -gap
            if np.min(gap) < -1e-12:
                raise TerminalConsistencyError(
                    f"terminal data violates the obstacle by {-float(np.min(gap)):.3e} "
                    f"on the {self.reflection_side} side"
                )

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def obstacle_interior(self, t: float) -> np.ndarray:
        if self.obstacle is None:
            return np.full(self.grid.n_cells, _INACTIVE)
        return np.asarray(self.obstacle(t, self.grid.nodes), dtype=float)[1:-1]


@dataclass(frozen=True)
class SolutionDiagnostics:
    skorokhod_residual: float
    skorokhod_scale: float
    min_gap: float
    penalization_level: int
    levels: tuple[int, ...]
    cauchy_gaps: tuple[float, ...]


@dataclass(frozen=True)
class BackwardSolution:
    """Pair (Y, eta) plus diagnostics from the reflected solve; Z is identically zero."""

    y: FieldPath
    eta: FieldPath
    diagnostics: SolutionDiagnostics


# ---------------------------------------------------------------------------
# Normalization to a lower-side problem
# ---------------------------------------------------------------------------


class _Normalized:
    """Lower-side view of the problem; sign = -1 flips an upper-side input."""

    def __init__(self, spec: BackwardSpec):
        self.spec = spec
        self.sign = 1.0 if spec.reflection_side == LOWER else -1.0

    def terminal_values(self) -> np.ndarray:
        return self.sign * self.spec.terminal.values

    def obstacle_interior(self, t: float) -> np.ndarray:
        barrier = self.spec.obstacle_interior(t)
        return barrier if self.spec.obstacle is None else self.sign * barrier

    def driver(self, t, x, y):
        if self.spec.driver is None:
            return None
        s = self.sign
        return s * np.asarray(self.spec.driver(t, x, s * y), dtype=float)

    def singular_term(self, t, x, y, dxi):
        if self.spec.singular is None:
            return None
        _, coefficient = self.spec.singular
        s = self.sign
        return s * np.asarray(coefficient(t, x, s * y), dtype=float) * dxi


# ---------------------------------------------------------------------------
# Penalized and reflected solves
# ---------------------------------------------------------------------------


def solve_penalized(spec: BackwardSpec, n: int) -> tuple[FieldPath, FieldPath]:
    """Solve the level-n penalized backward equation.

    Each step solves (I - dt A + dt n diag(active)) y = rhs with the active
    set {y < L} iterated until it stabilizes; the driver and the singular
    coefficient are evaluated at the current iterate.  Returns (Y^n, Z^n): Y
    is the one array the solve writes, and Z, identically zero, a read-only
    view that holds no path of its own.
    """
    if n < 1:
        raise ValueError("penalization level must be >= 1")
    norm = _Normalized(spec)
    grid = spec.grid
    dt = spec.dt
    times = spec.times
    x_int = grid.interior

    crank = spec.time_scheme == CRANK_NICOLSON
    implicit_weight = 0.5 if crank else 1.0
    lo_a, di_a, up_a = operator_tridiagonal(spec.op, grid, adjoint=spec.use_adjoint_operator)
    stepper = TridiagonalStepper(spec.op, grid, implicit_weight * dt, spec.use_adjoint_operator)

    def explicit_half(y_int: np.ndarray) -> np.ndarray:
        out = di_a * y_int
        out[1:] += lo_a[1:] * y_int[:-1]
        out[:-1] += up_a[:-1] * y_int[1:]
        return 0.5 * dt * out

    xi_inc = spec.singular[0].increments if spec.singular is not None else None
    depends_on_y = spec.driver is not None or spec.singular is not None
    barrier = norm.obstacle_interior(0.0)  # an unconstrained solve keeps this stand-in

    values = np.zeros((spec.n_steps + 1, grid.n_total))
    values[-1] = norm.terminal_values()
    for k in range(spec.n_steps - 1, -1, -1):
        t = times[k]
        if spec.obstacle is not None:
            barrier = norm.obstacle_interior(t)
        y = y_prev_int = values[k + 1, 1:-1]
        known = y_prev_int + explicit_half(y_prev_int) if crank else y_prev_int
        active = y < barrier
        for _ in range(_MAX_FIXED_POINT_ITERS):
            rhs = known.copy()
            forcing = norm.driver(t, x_int, y)
            if forcing is not None:
                rhs += dt * forcing
            sing = norm.singular_term(t, x_int, y, xi_inc[k]) if xi_inc is not None else None
            if sing is not None:
                rhs += sing
            if active.any():
                rhs += dt * n * np.where(active, barrier, 0.0)
                y_new = stepper.solve(rhs, dt * n * active)
            else:  # a zero penalty: the factored matrix gives gtsv's bits
                y_new = stepper.solve_in_place(rhs)
            if not np.all(np.isfinite(y_new)):
                raise NanDetectedError(f"non-finite solution at step {k} (level {n})", step=k)
            active_new = y_new < barrier
            stable = np.array_equal(active_new, active)
            close = not depends_on_y or np.max(np.abs(y_new - y)) <= 1e-12 * max(
                1.0, float(np.max(np.abs(y_new)))
            )
            y = y_new
            active = active_new
            if stable and close:
                break
        else:
            raise NoConvergenceError(
                f"semi-smooth iteration stalled at step {k} (level {n}, "
                f"cap {_MAX_FIXED_POINT_ITERS})"
            )
        values[k, 1:-1] = y

    values *= norm.sign
    y_path = FieldPath(grid, times, values)
    return y_path, _zero_path(y_path)


def _zero_path(y_path: FieldPath) -> FieldPath:
    """Z: Y's shape, all +0.0, a read-only view of one float."""
    return FieldPath(y_path.grid, y_path.times, np.broadcast_to(0.0, y_path.values.shape))


def _gap_field(y_path: FieldPath, obstacle: Callable | None, side: str) -> np.ndarray | None:
    """Side-signed gap Y - L per (time node, interior node); None without an obstacle.

    The constraint violation is its negative part: (Y - L)^- on the lower
    side, (Y - L)^+ on the upper side.
    """
    if obstacle is None:
        return None
    nodes = y_path.grid.nodes
    gap = np.empty((y_path.n_times, y_path.grid.n_cells))
    for row, t in zip(gap, y_path.times):
        row[:] = np.asarray(obstacle(t, nodes), dtype=float)[1:-1]
    np.subtract(y_path.values[:, 1:-1], gap, out=gap)
    return np.multiply(1.0 if side == LOWER else -1.0, gap, out=gap)


def _violation(gap: np.ndarray) -> np.ndarray:
    """The constraint violation max(-gap, 0) before the last time node, in a new array."""
    violation = np.negative(gap[:-1])
    return np.maximum(violation, 0.0, out=violation)


def levels_problem(levels) -> str | None:
    """Why ``levels`` is not a list of penalization levels, or None if it is."""
    if (
        not levels
        or not all(isinstance(n, Integral) and not isinstance(n, bool) and n >= 1 for n in levels)
        or any(b <= a for a, b in zip(levels, levels[1:]))
    ):
        return "levels must be a non-empty, strictly increasing list of positive integers"
    return None


def _solve_levels(
    spec: BackwardSpec, levels, problem: Callable, reduce: Callable
) -> tuple[list[int], list]:
    """Reject ``levels`` if ``problem`` names a fault, else ``reduce`` each Y on its worker."""
    if (why := problem(levels)) is not None:
        raise ValueError(why)
    levels = [int(n) for n in levels]
    return levels, map_ordered(lambda n: reduce(solve_penalized(spec, n)[0]), levels)


def solve_reflected(spec: BackwardSpec, levels: list[int]) -> BackwardSolution:
    """Solve penalized problems along ``levels`` and assemble the reflected triple.

    Y comes from the largest level; the reflection measure is the
    running time integral of n (Y^n - L)^- at that level.  Raises NonCauchyError when
    the inter-level gaps sup_t ||Y^n - Y^m||_H stop decreasing beyond a small
    floor.
    """
    levels, y_paths = _solve_levels(spec, levels, levels_problem, lambda y_path: y_path)
    h = spec.grid.h
    scale = max(1.0, float(np.max(np.abs(y_paths[-1].values))))
    gaps = []
    for y_a, y_b in zip(y_paths, y_paths[1:]):
        diff = y_a.values[:, 1:-1] - y_b.values[:, 1:-1]
        gaps.append(float(np.max(np.sqrt(h * np.sum(diff**2, axis=1)))))
    floor = 1e-12 * scale
    for g_prev, g_next in zip(gaps, gaps[1:]):
        if g_next > 1.01 * g_prev + floor:
            raise NonCauchyError(
                f"penalization gaps increased across levels: {gaps} (levels {levels})"
            )

    n_top = levels[-1]
    y_path = y_paths[-1]
    gap = _gap_field(y_path, spec.obstacle, spec.reflection_side)
    eta_values = np.zeros((spec.n_steps + 1, spec.grid.n_total))
    if gap is not None:
        integrand = _violation(gap)
        np.multiply(spec.dt * n_top, integrand, out=integrand)
        np.cumsum(integrand, axis=0, out=eta_values[1:, 1:-1])
    eta_path = FieldPath(spec.grid, spec.times, eta_values)

    residual, res_scale = _pairing(gap, y_path, eta_path, with_scale=True)
    diag = SolutionDiagnostics(
        skorokhod_residual=residual,
        skorokhod_scale=res_scale,
        min_gap=np.inf if gap is None else float(np.min(gap[:-1])),
        penalization_level=n_top,
        levels=tuple(levels),
        cauchy_gaps=tuple(gaps),
    )
    return BackwardSolution(y=y_path, eta=eta_path, diagnostics=diag)


def skorokhod_residual(
    y_path: FieldPath,
    obstacle: Callable | None,
    eta_path: FieldPath,
    side: str = LOWER,
    with_scale: bool = False,
):
    """Complementarity pairing sum_k sum_i (Y - L)(t_k, x_i) deta_k(x_i) h.

    Signed so that an exact solution gives 0: the gap is side-signed, and eta
    charges only where the penalized solution violates the constraint, so the
    value is <= 0 and its magnitude is the complementarity defect.  The gap is
    the field :func:`solve_reflected` builds for eta and ``min_gap``, summed
    one time step at a time, so the solver's diagnostic equals this value bit
    for bit; without an obstacle the value is exactly 0.0.  The scale
    sup_t ||Y||_H * ||eta(T)||_H is returned on request for relative checks.
    """
    if y_path.values.shape != eta_path.values.shape:
        raise GridMismatchError("Y and eta paths have different shapes")
    return _pairing(_gap_field(y_path, obstacle, side), y_path, eta_path, with_scale)


def _pairing(gap: np.ndarray | None, y_path: FieldPath, eta_path: FieldPath, with_scale: bool):
    """sum_k h gap_k . deta_k, one dot per step; exactly 0.0 without an obstacle."""
    h = y_path.grid.h
    total = 0.0
    if gap is not None:
        eta = eta_path.values[:, 1:-1]
        for k, gap_k in enumerate(gap[:-1]):
            total += float(np.dot(gap_k, eta[k + 1] - eta[k])) * h
    if not with_scale:
        return total
    y_norm = float(np.max(np.sqrt(h * np.sum(y_path.values[:, 1:-1] ** 2, axis=1))))
    eta_norm = float(np.sqrt(h * np.sum(eta_path.values[-1, 1:-1] ** 2)))
    return total, y_norm * eta_norm


@dataclass(frozen=True)
class RateStudy:
    levels: tuple[int, ...]
    energies: tuple[float, ...]
    slope: float


def rate_levels_problem(levels: list[int]) -> str | None:
    """Why ``levels`` cannot carry a penalization-rate study, or None if they can."""
    problem = levels_problem(levels)
    if problem is None and (len(levels) < 4 or levels[-1] < 4 * levels[0]):
        return "rate study needs >= 4 levels spanning at least two octaves"
    return problem


def penalization_rate(spec: BackwardSpec, levels: list[int]) -> RateStudy:
    """Squared-violation energies E_n per level and their log-log slope.

    E_n = sum_k sum_i dt h ((Y^n - L)^-)^2 over time steps (left rule) and
    interior nodes.  Needs at least 4 levels spanning two octaves.  Raises
    DegenerateFitError when every energy sits below the 1e-24 floor.
    """

    def energy(y_path: FieldPath) -> float:
        gap = _gap_field(y_path, spec.obstacle, spec.reflection_side)
        violation = 0.0 if gap is None else _violation(gap)
        return float(spec.dt * spec.grid.h * np.sum(violation**2))

    levels, energies = _solve_levels(spec, levels, rate_levels_problem, energy)
    if max(energies) < 1e-24:
        raise DegenerateFitError("all penalization energies below floor (obstacle inactive)")
    slope = float(np.polyfit(np.log(np.asarray(levels, float)), np.log(energies), 1)[0])
    return RateStudy(tuple(levels), tuple(energies), slope)
