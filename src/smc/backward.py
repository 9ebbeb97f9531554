"""Reflected backward equations solved by penalization.

The target system, stated for the lower reflection side, is

    dY = -A* Y dt - F(Y) dt + Z dB - eta(dt, x),
    Y(T) = phi,    Y >= L,    integral of (Y - L) against eta(dt, x) dx = 0,

with eta nonnegative and nondecreasing and A* the adjoint of the forward
generator.  A space-mean term of the forward equation reaches the adjoint's F
through its dual weight w(x), pointwise in Y (see
:func:`smc.control.assemble_adjoint`).  The penalized approximation at
level n replaces the constraint by the drift n (Y - L)^- and is stepped
implicitly in both the generator and the penalty; the nonsmooth negative
part is handled by a semi-smooth active-set fixed point per step.  The
reflection measure is recovered from the top penalization level as the
running time integral of n (Y^n - L)^-.

F, phi and L are deterministic, so the solution is deterministic and Z is
identically zero (the martingale term vanishes).

An upper-side problem is solved as the lower-side problem of its negated
data and mapped back, so the negation duality holds bit for bit.  Without an
obstacle no step is penalized.
"""

from __future__ import annotations

import math
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
)
from .forward import CRANK_NICOLSON, IMPLICIT, SingularControl
from .grid import Field, FieldPath, Grid, sup_norm_h
from .operators import OperatorSpec, TridiagonalStepper

LOWER = "lower"
UPPER = "upper"

_SIGNS = {LOWER: 1.0, UPPER: -1.0}  # reflection side -> the sign that makes it a lower side
_MAX_FIXED_POINT_ITERS = 100  # active-set iterations per step before NoConvergenceError


def _side_sign(side: str) -> float:
    """+1.0 for the lower reflection side, -1.0 for the upper one; any other side raises."""
    if side not in _SIGNS:
        raise ValueError(f"unknown reflection side {side!r}; choose {LOWER!r} or {UPPER!r}")
    return _SIGNS[side]


@dataclass(frozen=True)
class BackwardSpec:
    """Data of one reflected backward problem on the grid.

    ``driver`` has signature F(y) -> array over interior nodes, y being Y at
    the interior nodes, and must be Lipschitz in y; a driver that reads the
    nodes closes over ``grid.interior``.  ``obstacle`` is the barrier L at the
    interior nodes, one array for every time, or None for an unconstrained solve.
    ``singular`` optionally couples a nondecreasing control to the drift:
    the pair (control, coefficient) adds coefficient(y) * dxi_k to the
    backward step.  Every step solves with A*, the adjoint of ``op``'s generator; a
    terminal value past the obstacle is taken as given.  Homogeneous Dirichlet boundary.
    """

    grid: Grid
    op: OperatorSpec
    horizon: float
    n_steps: int
    terminal: Field
    driver: Callable | None = None
    obstacle: np.ndarray | None = None
    reflection_side: str = LOWER
    singular: tuple[SingularControl, Callable] | None = None
    time_scheme: str = IMPLICIT

    def __post_init__(self):
        if not np.isfinite(self.horizon):
            raise ValueError("horizon must be finite")
        if self.horizon <= 0.0 or self.n_steps < 1:
            raise ValueError("horizon must be positive and n_steps >= 1")
        _side_sign(self.reflection_side)  # an unknown side raises
        if self.time_scheme not in (IMPLICIT, CRANK_NICOLSON):
            raise ValueError(f"unknown time scheme {self.time_scheme!r}")
        if self.time_scheme == CRANK_NICOLSON and self.obstacle is not None:
            raise ValueError("crank-nicolson stepping supports unconstrained solves only")
        if not self.terminal.grid.same_as(self.grid):
            raise GridMismatchError("terminal field grid differs from problem grid")
        if not np.isfinite(self.terminal.values).all():
            raise ValueError("terminal values must be finite")
        if self.singular is not None:
            control, _ = self.singular
            expected = (self.n_steps + 1, self.grid.n_cells)
            if control.cumulative.shape != expected:
                raise GridMismatchError(
                    f"singular control shape {control.cumulative.shape} != {expected}"
                )
        if self.obstacle is not None:
            obstacle = np.asarray(self.obstacle, dtype=float)
            expected = (self.grid.n_cells,)
            if obstacle.shape != expected:
                raise GridMismatchError(f"obstacle shape {obstacle.shape} != {expected}")
            if not np.isfinite(obstacle).all():
                raise ValueError("obstacle must be finite")
            object.__setattr__(self, "obstacle", obstacle)

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)


@dataclass(frozen=True)
class SolutionDiagnostics:
    skorokhod_residual: float
    skorokhod_scale: float
    min_gap: float
    levels: tuple[int, ...]
    cauchy_gaps: tuple[float, ...]


@dataclass(frozen=True)
class BackwardSolution:
    """Pair (Y, eta) plus diagnostics from the reflected solve; Z is identically zero."""

    y: FieldPath
    eta: FieldPath
    diagnostics: SolutionDiagnostics


# ---------------------------------------------------------------------------
# Penalized and reflected solves
# ---------------------------------------------------------------------------


# a step that overflows warns nothing: the finite check below reports it, typed
@np.errstate(over="ignore", invalid="ignore")
def solve_penalized(spec: BackwardSpec, n: int) -> tuple[FieldPath, FieldPath]:
    """Solve the level-n penalized backward equation.

    Each step solves (I - dt A* + dt n diag(active)) y = rhs with the active
    set {y < L} iterated until it stabilizes; without an obstacle no node is
    active.  The data are multiplied by the side's sign, so the loop solves a
    lower-side problem.  The driver and the singular coefficient are evaluated
    at the current iterate, which alternates between Y's row and one spare
    vector.  Returns (Y^n, Z^n): Y is the one array the solve writes, and Z,
    identically zero, a read-only view that holds no path of its own.
    """
    if n < 1:
        raise ValueError("penalization level must be >= 1")
    sign = _side_sign(spec.reflection_side)
    grid, dt = spec.grid, spec.dt
    crank = spec.time_scheme == CRANK_NICOLSON
    stepper = TridiagonalStepper(spec.op, grid, (0.5 if crank else 1.0) * dt, adjoint=True)
    lo_a, di_a, up_a = stepper.bands
    known, spare, work = (np.empty(grid.n_cells) for _ in range(3))

    def explicit_half(y_int: np.ndarray) -> np.ndarray:  # y + 0.5 dt A* y, into ``known``
        np.multiply(di_a, y_int, known)
        np.add(known[1:], np.multiply(lo_a, y_int[:-1], work[1:]), known[1:])
        np.add(known[:-1], np.multiply(up_a, y_int[1:], work[:-1]), known[:-1])
        np.multiply(0.5 * dt, known, known)
        return np.add(y_int, known, known)

    xi_inc = spec.singular[0].increments if spec.singular is not None else None
    depends_on_y = spec.driver is not None or spec.singular is not None
    barrier = None if spec.obstacle is None else sign * spec.obstacle
    penalty = dt * n  # the penalized diagonal's weight, and its pull toward the barrier
    pull = None if barrier is None else penalty * barrier

    values = np.zeros((spec.n_steps + 1, grid.n_total))
    values[-1] = sign * spec.terminal.values
    for k in range(spec.n_steps - 1, -1, -1):
        y = y_prev_int = values[k + 1, 1:-1]
        active = None if barrier is None else y < barrier
        known_rhs = explicit_half(y_prev_int) if crank else y_prev_int
        targets = (values[k, 1:-1], spare)
        for i in range(_MAX_FIXED_POINT_ITERS):
            rhs = targets[i % 2]
            np.copyto(rhs, known_rhs)
            if spec.driver is not None:
                rhs += dt * (sign * np.asarray(spec.driver(sign * y), dtype=float))
            if xi_inc is not None:
                coefficient = np.asarray(spec.singular[1](sign * y), dtype=float)
                rhs += sign * coefficient * xi_inc[k]
            if active is not None and active.any():
                rhs += np.where(active, pull, 0.0)
                rhs[...] = stepper.solve(rhs, penalty * active)
            else:  # a zero penalty: the factored matrix gives gtsv's bits
                stepper.solve_in_place(rhs)
            low, high = rhs.min(), rhs.max()
            if not (math.isfinite(low) and math.isfinite(high)):
                raise NanDetectedError(f"non-finite solution at step {k} (level {n})", step=k)
            active_new = None if barrier is None else rhs < barrier
            stable = active_new is None or bool((active_new == active).all())
            close = not depends_on_y or np.abs(np.subtract(rhs, y, out=work), out=work).max() <= (
                1e-12 * max(1.0, float(high), -float(low))
            )
            y, active = rhs, active_new
            if stable and close:
                break
        else:
            raise NoConvergenceError(
                f"semi-smooth iteration stalled at step {k} (level {n}, "
                f"cap {_MAX_FIXED_POINT_ITERS})"
            )
        if y is not targets[0]:
            values[k, 1:-1] = y

    if sign < 0.0:  # map the upper side back; at +1.0 the pass would change no bit
        values *= sign
    y_path = FieldPath(grid, spec.times, values)
    return y_path, _zero_path(y_path)


def _zero_path(y_path: FieldPath) -> FieldPath:
    """Z: Y's shape, all +0.0, a read-only view of one float."""
    return FieldPath(y_path.grid, y_path.times, np.broadcast_to(0.0, y_path.values.shape))


def _gap_field(y_path: FieldPath, obstacle: np.ndarray | None, side: str) -> np.ndarray | None:
    """Side-signed gap Y - L per (time node, interior node); None without an obstacle.

    The constraint violation is its negative part: (Y - L)^- on the lower
    side, (Y - L)^+ on the upper side.
    """
    sign = _side_sign(side)
    if obstacle is None:
        return None
    gap = np.subtract(y_path.values[:, 1:-1], obstacle)
    return np.multiply(sign, gap, out=gap)


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


# gaps or diagnostics that overflow warn nothing: a non-finite gap raises NonCauchyError
@np.errstate(over="ignore", invalid="ignore")
def solve_reflected(spec: BackwardSpec, levels: list[int]) -> BackwardSolution:
    """Solve penalized problems along ``levels`` and assemble the reflected triple.

    Y comes from the largest level; the reflection measure is the
    running time integral of n (Y^n - L)^- at that level.  Raises NonCauchyError when
    the inter-level gaps sup_t ||Y^n - Y^m||_H are not finite or stop decreasing
    beyond a small floor.  The levels are solved in order in this process, and each
    gap is taken as soon as its upper level is solved, so two levels are held at most.
    """
    if (why := levels_problem(levels)) is not None:
        raise ValueError(why)
    levels = [int(n) for n in levels]
    h = spec.grid.h
    y_path = solve_penalized(spec, levels[0])[0]
    gaps = []
    for n in levels[1:]:
        y_next = solve_penalized(spec, n)[0]
        gaps.append(sup_norm_h(y_path.values[:, 1:-1] - y_next.values[:, 1:-1], h))
        y_path = y_next
    if not np.all(np.isfinite(gaps)):
        raise NonCauchyError(f"penalization gaps are not finite: {gaps} (levels {levels})")
    scale = max(1.0, float(np.max(np.abs(y_path.values))))
    floor = 1e-12 * scale
    for g_prev, g_next in zip(gaps, gaps[1:]):
        if g_next > 1.01 * g_prev + floor:
            raise NonCauchyError(
                f"penalization gaps increased across levels: {gaps} (levels {levels})"
            )

    gap = _gap_field(y_path, spec.obstacle, spec.reflection_side)
    eta_values = np.zeros((spec.n_steps + 1, spec.grid.n_total))
    if gap is not None:
        integrand = _violation(gap)
        np.multiply(spec.dt * levels[-1], integrand, out=integrand)
        np.cumsum(integrand, axis=0, out=eta_values[1:, 1:-1])
    eta_path = FieldPath(spec.grid, spec.times, eta_values)

    diag = SolutionDiagnostics(
        skorokhod_residual=_pairing(gap, y_path, eta_path),
        # sup_t ||Y||_H * ||eta(T)||_H, the scale of relative complementarity checks
        skorokhod_scale=sup_norm_h(y_path.values[:, 1:-1], h) * sup_norm_h(eta_values[-1:, 1:-1], h),
        min_gap=np.inf if gap is None else float(np.min(gap[:-1])),
        levels=tuple(levels),
        cauchy_gaps=tuple(gaps),
    )
    return BackwardSolution(y=y_path, eta=eta_path, diagnostics=diag)


def skorokhod_residual(
    y_path: FieldPath,
    obstacle: np.ndarray | None,
    eta_path: FieldPath,
    side: str = LOWER,
) -> float:
    """Complementarity pairing sum_k sum_i (Y - L)(t_k, x_i) deta_k(x_i) h.

    Signed so that an exact solution gives 0: the gap is side-signed, and eta
    charges only where the penalized solution violates the constraint, so the
    value is <= 0 and its magnitude is the complementarity defect.  The gap is
    the field :func:`solve_reflected` builds for eta and ``min_gap``, summed
    one time step at a time, so the solver's diagnostic equals this value bit
    for bit; without an obstacle the value is exactly 0.0.
    """
    if y_path.values.shape != eta_path.values.shape:
        raise GridMismatchError("Y and eta paths have different shapes")
    return _pairing(_gap_field(y_path, obstacle, side), y_path, eta_path)


def _pairing(gap: np.ndarray | None, y_path: FieldPath, eta_path: FieldPath) -> float:
    """sum_k h gap_k . deta_k, one dot per step; exactly 0.0 without an obstacle."""
    h = y_path.grid.h
    total = 0.0
    if gap is not None:
        eta = eta_path.values[:, 1:-1]
        for k, gap_k in enumerate(gap[:-1]):
            total += float(np.dot(gap_k, eta[k + 1] - eta[k])) * h
    return total


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

    if (why := rate_levels_problem(levels)) is not None:
        raise ValueError(why)
    levels = [int(n) for n in levels]
    energies = [energy(solve_penalized(spec, n)[0]) for n in levels]
    if max(energies) < 1e-24:
        raise DegenerateFitError("all penalization energies below floor (obstacle inactive)")
    slope = float(np.polyfit(np.log(np.asarray(levels, float)), np.log(energies), 1)[0])
    return RateStudy(tuple(levels), tuple(energies), slope)
