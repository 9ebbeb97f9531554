"""Projected SOR solver for the discrete obstacle problem.

Independent cross-check for the penalization solver: each backward step is
solved as a linear complementarity problem

    y >= L,   (M y - rhs) >= 0,   (y - L) . (M y - rhs) = 0,

with M = I - dt*A* on interior nodes (A*, as in every backward step), by
projected successive over-relaxation in red-black ordering.  Nothing here shares
solution machinery with the penalized path; only the grid and operator stencils
are common data.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NanDetectedError, NoConvergenceError
from .grid import Field, FieldPath, Grid
from .operators import OperatorSpec, operator_tridiagonal

LOWER = "lower"
UPPER = "upper"


def psor_lcp(
    lower: np.ndarray,
    diag: np.ndarray,
    upper: np.ndarray,
    rhs: np.ndarray,
    obstacle: np.ndarray,
    y0: np.ndarray,
) -> np.ndarray:
    """Solve the tridiagonal LCP y >= obstacle, My >= rhs, complementary.

    ``lower[i]`` couples row i to i-1 (lower[0] unused), ``upper[i]`` to i+1
    (upper[-1] unused).  Red-black sweeps with over-relaxation 1.5 and
    projection onto {y >= obstacle}, until no entry moves by more than 1e-13
    relative, for at most 100 000 sweeps.  A non-finite iterate raises
    NanDetectedError: it would stop the sweeps with a change read as zero.
    """
    n = diag.size
    y = np.maximum(y0.copy(), obstacle)
    colors = []  # per color: its rows, their neighbours and everything a sweep only reads
    for start in (0, 1):
        idx = np.arange(start, n, 2)
        left, right = np.maximum(idx - 1, 0), np.minimum(idx + 1, n - 1)
        constants = (lower[idx], upper[idx], rhs[idx], diag[idx], obstacle[idx])
        colors.append((slice(start, n, 2), left, idx > 0, right, idx < n - 1, *constants))

    for _ in range(100_000):
        delta = 0.0
        for rows, left, has_left, right, has_right, low, up, rhs_c, diag_c, obstacle_c in colors:
            y_c = y[rows]
            neighbors = np.where(has_left, low * y[left], 0.0)
            neighbors = neighbors + np.where(has_right, up * y[right], 0.0)
            resid = rhs_c - neighbors - diag_c * y_c
            y_new = np.maximum(obstacle_c, y_c + 1.5 * resid / diag_c)
            delta = max(delta, float(np.max(np.abs(y_new - y_c), initial=0.0)))
            y[rows] = y_new
        size = float(np.max(np.abs(y)))  # NaN if any entry is
        if not math.isfinite(size):
            raise NanDetectedError("non-finite projected-SOR iterate", step=None)
        if delta <= 1e-13 * max(1.0, size):
            return y
    raise NoConvergenceError("projected SOR did not converge in 100000 sweeps")


def solve_obstacle_psor(
    grid: Grid,
    op: OperatorSpec,
    terminal: Field,
    obstacle,
    horizon: float,
    n_steps: int,
    side: str = LOWER,
) -> FieldPath:
    """Backward obstacle solve, one projected-SOR LCP per implicit Euler step of A*.

    ``obstacle`` is the barrier L at the interior nodes, for every time.
    Upper-side problems are solved by negation; any other side raises
    ValueError.  A non-finite iterate raises NanDetectedError naming its step.
    """
    if side not in (LOWER, UPPER):
        raise ValueError(f"unknown side {side!r}; choose {LOWER!r} or {UPPER!r}")
    sign = 1.0 if side == LOWER else -1.0
    dt = horizon / n_steps
    times = np.linspace(0.0, horizon, n_steps + 1)

    lo_a, di_a, up_a = operator_tridiagonal(op, grid, adjoint=True)
    m_lower = -dt * lo_a
    m_diag = 1.0 - dt * di_a
    m_upper = -dt * up_a

    values = np.zeros((n_steps + 1, grid.n_total))
    values[-1] = sign * terminal.values
    barrier = sign * np.asarray(obstacle, dtype=float)
    for k in range(n_steps - 1, -1, -1):
        y_next = values[k + 1, 1:-1]
        try:
            values[k, 1:-1] = psor_lcp(m_lower, m_diag, m_upper, y_next, barrier, y_next)
        except NanDetectedError:
            raise NanDetectedError(f"non-finite solution at step {k}", step=k) from None
    return FieldPath(grid, times, sign * values)
