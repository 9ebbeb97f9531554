"""Spatial operators: second-order generator, its adjoint, and the space mean.

Three operator families live here.

* ``apply_a`` / ``apply_a_star``: the second-order generator
  A u = a(x) u'' + b(x) u' discretized with central differences at interior
  nodes, and its formal adjoint A* u = (a u)'' - (b u)'.  Boundary rows of
  both are zero; Dirichlet data is the time-steppers' business.
* The windowed space mean G u(x) = (1/2theta) * integral of u over
  (x - theta, x + theta), with u extended by zero outside the domain.  The
  window integral is exact for the piecewise-linear interpolant of the nodal
  values (trapezoid rule on whole cells, analytic integration of the
  fractional end cells).
* ``check_garding``: discrete coercivity constants of the assembled
  generator against the Sobolev norm of :func:`smc.grid.norm_w`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse
from scipy.linalg.lapack import dgtsv, dgttrf, dgttrs

from .errors import InvalidThetaError, SingularSystemError
from .grid import DIRICHLET_DATA, DIRICHLET_ZERO, Field, Grid

ArrayLike = float | np.ndarray


@dataclass(frozen=True)
class OperatorSpec:
    """Coefficients of the generator A u = a u'' + b u' plus averaging radius.

    ``second_order`` and ``first_order`` may be scalars or per-interior-node
    arrays.  ``theta`` is the space-mean window radius.
    """

    second_order: ArrayLike = 0.0
    first_order: ArrayLike = 0.0
    theta: float = 0.1

    def __post_init__(self):
        if np.any(np.asarray(self.second_order) < 0.0):
            raise ValueError("second-order coefficient must be nonnegative")
        if not self.theta > 0.0:
            raise InvalidThetaError(f"theta must be positive, got {self.theta}")

    def resolve(self, grid: Grid) -> tuple[np.ndarray, np.ndarray]:
        """Broadcast the coefficients to one value per interior node."""
        if not self.theta < grid.width:
            raise InvalidThetaError(
                f"theta ({self.theta}) must be smaller than the domain width ({grid.width})"
            )
        a = np.broadcast_to(np.asarray(self.second_order, dtype=float), (grid.n_cells,))
        b = np.broadcast_to(np.asarray(self.first_order, dtype=float), (grid.n_cells,))
        return a.copy(), b.copy()


# ---------------------------------------------------------------------------
# Second-order generator and adjoint
# ---------------------------------------------------------------------------


def operator_tridiagonal(
    op: OperatorSpec, grid: Grid, adjoint: bool = False
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Interior tridiagonal bands (lower, diag, upper) of A or A*.

    ``lower[i]`` couples interior node i to node i-1 (lower[0] is unused),
    ``upper[i]`` couples node i to node i+1 (upper[-1] is unused).  For the
    adjoint the bands are the exact transpose of the direct bands, so the
    discrete Green identity holds to rounding for zero-boundary fields.
    """
    a, b = op.resolve(grid)
    h = grid.h
    lower = a / h**2 - b / (2.0 * h)
    diag = -2.0 * a / h**2
    upper = a / h**2 + b / (2.0 * h)
    if adjoint:  # the transpose: A*[i, i - 1] = A[i - 1, i] and A*[i, i + 1] = A[i + 1, i]
        lower, upper = np.append(upper[:1], upper[:-1]), np.append(lower[1:], lower[-1:])
    return lower, diag, upper


class TridiagonalStepper:
    """Solver for the implicit step (I - c A) y = rhs on interior nodes (A* if ``adjoint``).

    It keeps what it is built from: the weight ``c``, the interior ``bands`` (lower, diag,
    upper) of A or A*, and the ``coupling`` entries that tie the first and last interior
    rows to the left and right boundary nodes.  The matrix is factored once with LAPACK
    ``gttrf``.  If no rows were interchanged, unpenalized solves reuse the factors: a numpy
    row sweep for bundles of ``SWEEP_MIN_PATHS`` columns or more, ``gttrs`` otherwise.  Both
    repeat ``gtsv``'s elimination step for step, so the bits equal the one ``gtsv`` call
    that :meth:`solve` makes.  Callers check for non-finite values.
    """

    # the sweep's few numpy calls per row cost more than gttrs below this
    # width (measured at 60 rows on a 2-core host)
    SWEEP_MIN_PATHS = 512

    def __init__(self, op: OperatorSpec, grid: Grid, c: float, adjoint: bool = False):
        lower, diag, upper = operator_tridiagonal(op, grid, adjoint)
        self.c = c
        self.coupling = float(lower[0]), float(upper[-1])
        self.bands = lower[1:], diag, upper[:-1]
        self.lower, self.diag, self.upper = -c * lower[1:], 1.0 - c * diag, -c * upper[:-1]
        self._factors = None
        if grid.n_cells < 3:  # scipy's gttrf wrapper rejects 2 rows; gtsv solves them
            return
        *factors, info = dgttrf(self.lower, self.diag, self.upper)
        pivoted = np.any(factors[4] != np.arange(1, grid.n_cells + 1)) or factors[3].any()
        self._factors = None if info or pivoted else factors
        # the sweep's scalar factors as Python floats: cheaper ufunc dispatch, same bits
        self._sweep_factors = [f.tolist() for f in factors[:3]]

    def solve(self, rhs: np.ndarray, penalty: float | np.ndarray) -> np.ndarray:
        """Solve for (n_cells,) or (n_cells, n_paths) ``rhs``, ``penalty`` added to the diagonal.

        ``penalty`` is a number or one value per interior node, shared by every column.
        """
        *_, solution, info = dgtsv(self.lower, self.diag + penalty, self.upper, rhs)
        if info > 0:
            raise SingularSystemError(f"implicit step matrix is singular (zero pivot {info})")
        return solution

    def solve_in_place(self, b: np.ndarray) -> np.ndarray:
        """Overwrite (n_cells,) or (n_cells, n_paths) ``b`` with the unpenalized solution."""
        if self._factors is None:
            b[...] = self.solve(b, 0.0)
        elif b.ndim == 1 or b.shape[1] < self.SWEEP_MIN_PATHS:
            x = dgttrs(*self._factors, b, overwrite_b=1)[0]
            if x is not b:  # a 1-D b is solved in place; a narrow bundle comes back F-ordered
                b[...] = x
        else:
            _substitute(b, *self._sweep_factors)
        return b


def _substitute(b: np.ndarray, multipliers, pivots, upper) -> np.ndarray:
    """Forward and back substitution on the rows of ``b`` in place, with scalar factors per row."""
    # dispatch holds the GIL that parallel chunks share: row views once, ``out`` positional
    rows = list(b)
    row = np.empty_like(rows[0])
    for m, prev, cur in zip(multipliers, rows, rows[1:]):
        np.subtract(cur, np.multiply(m, prev, row), cur)
    np.divide(rows[-1], pivots[-1], rows[-1])
    # rows n-2 .. 0, each with the row below it
    for up, pivot, cur, below in zip(upper[::-1], pivots[-2::-1], rows[-2::-1], rows[:0:-1]):
        np.subtract(cur, np.multiply(up, below, row), row)
        np.divide(row, pivot, cur)
    return b


def operator_matrix(op: OperatorSpec, grid: Grid, adjoint: bool = False) -> np.ndarray:
    """Dense interior matrix of A (or A*)."""
    lower, diag, upper = operator_tridiagonal(op, grid, adjoint)
    n = grid.n_cells
    mat = np.diag(diag)
    mat[np.arange(1, n), np.arange(n - 1)] = lower[1:]
    mat[np.arange(n - 1), np.arange(1, n)] = upper[:-1]
    return mat


def interior_generator(values: np.ndarray, a, b, h2: float, two_h: float, out, scratch):
    """Interior rows of A applied to nodal values, from resolved coefficients, h**2 and 2h.

    Writes into ``out``, with ``scratch`` of its shape as the one other buffer.  For a
    (n_total, n_paths) bundle, ``a`` and ``b`` are (n_cells, 1) columns.
    """
    up, down = values[2:], values[:-2]  # ``out`` positional: cheaper dispatch, same bits
    np.multiply(2.0, values[1:-1], out)
    np.subtract(up, out, out)
    np.add(out, down, out)
    np.multiply(a, out, out)
    np.divide(out, h2, out)
    np.subtract(up, down, scratch)
    np.multiply(b, scratch, scratch)
    np.divide(scratch, two_h, scratch)
    return np.add(out, scratch, out)


def apply_a(field: Field, op: OperatorSpec) -> Field:
    """Central-difference discretization of A u = a u'' + b u' (zero boundary rows)."""
    grid = field.grid
    a, b = op.resolve(grid)
    out = np.zeros_like(field.values)
    scratch = np.empty_like(out[1:-1])
    interior_generator(field.values, a, b, grid.h**2, 2.0 * grid.h, out[1:-1], scratch)
    return Field(grid, out, DIRICHLET_ZERO)


def apply_a_star(field: Field, op: OperatorSpec) -> Field:
    """Discrete adjoint A* u = (a u)'' - (b u)'.

    Coefficients are stored per interior node; boundary values are extended
    by edge replication, which only matters for fields with nonzero boundary
    data.  For zero-boundary fields the matrix is exactly the transpose of
    :func:`apply_a`'s matrix.
    """
    grid = field.grid
    a, b = op.resolve(grid)
    h = grid.h
    a_ext = np.concatenate(([a[0]], a, [a[-1]]))
    b_ext = np.concatenate(([b[0]], b, [b[-1]]))
    p = a_ext * field.values
    q = b_ext * field.values
    out = np.zeros_like(field.values)
    out[1:-1] = (p[2:] - 2.0 * p[1:-1] + p[:-2]) / h**2 - (q[2:] - q[:-2]) / (2.0 * h)
    return Field(grid, out, DIRICHLET_ZERO)


# ---------------------------------------------------------------------------
# Space mean
# ---------------------------------------------------------------------------


def _window_averages(grid: Grid, theta: float, values: np.ndarray) -> np.ndarray:
    """Window average of the piecewise-linear interpolant of each column of ``values``."""
    h = grid.h
    cell = 0.5 * h * (values[:-1] + values[1:])
    cum = np.concatenate([np.zeros((1, values.shape[1])), np.cumsum(cell, axis=0)], axis=0)

    def antiderivative(y: np.ndarray) -> np.ndarray:
        j = np.clip(np.floor((y - grid.x_min) / h).astype(int), 0, grid.n_total - 2)
        s = np.clip(y - grid.nodes[j], 0.0, h)[:, None]
        return cum[j] + s * values[j] + s**2 * (values[j + 1] - values[j]) / (2.0 * h)

    upper = antiderivative(np.minimum(grid.nodes + theta, grid.x_max))
    lower = antiderivative(np.maximum(grid.nodes - theta, grid.x_min))
    return (upper - lower) / (2.0 * theta)


class SpaceMeanOperator:
    """Windowed average over (x - theta, x + theta) with zero extension.

    The operator integrates the piecewise-linear interpolant of the nodal
    values over the window clipped to the domain and divides by the full
    window volume 2*theta, so partially covered windows are sub-averages.
    The weights' one stored form is a CSR matrix, built by :func:`_window_averages`
    on 256-column slabs of the identity.  Application is vectorized over a trailing
    path axis and sums each row's window weights in a fixed order, so a column's
    result does not depend on how many columns are averaged together.
    """

    def __init__(self, grid: Grid, theta: float):
        if not theta > 0.0:
            raise InvalidThetaError(f"theta must be positive, got {theta}")
        self.grid = grid
        self.theta = float(theta)
        n = grid.n_total  # column j of the slab at a is the image of the (a + j)-th hat value
        slabs = (np.eye(n, min(256, n - a), -a) for a in range(0, n, 256))
        blocks = [scipy.sparse.csr_array(_window_averages(grid, self.theta, s)) for s in slabs]
        self._csr = scipy.sparse.hstack(blocks, format="csr")
        for weights in (self._csr.data, self._csr.indices, self._csr.indptr):
            weights.setflags(write=False)

    def apply(self, values: np.ndarray) -> np.ndarray:
        """Average nodal values; works on (n_total,) or (n_total, n_paths) arrays."""
        return self._csr @ values

    def __call__(self, field: Field) -> Field:
        return Field(self.grid, self.apply(field.values), DIRICHLET_DATA)

    def apply_adjoint(self, values: np.ndarray) -> np.ndarray:
        """Exact adjoint under the interior h-weighted inner product.

        The spacing is uniform, so the adjoint of the interior block is its
        plain transpose; boundary rows of the result are zero.
        """
        out = np.zeros_like(values)
        out[1:-1] = self._csr[1:-1, 1:-1].T @ values[1:-1]
        return out


# one shared operator per (grid, theta); its weights are read-only after construction
_space_mean_operator = functools.lru_cache(maxsize=8)(SpaceMeanOperator)


def space_mean(field: Field, theta: float) -> Field:
    """Windowed spatial average of ``field`` (zero extension outside D)."""
    return _space_mean_operator(field.grid, theta)(field)


def space_mean_adjoint(field: Field, theta: float) -> Field:
    """Adjoint of :func:`space_mean` under the discrete inner product."""
    op = _space_mean_operator(field.grid, theta)
    return Field(field.grid, op.apply_adjoint(field.values), DIRICHLET_ZERO)


def space_mean_dual_weight(grid: Grid, theta: float) -> Field:
    """Closed-form weight |(x - theta, x + theta) ∩ D| / (2 theta) at every node."""
    if not theta > 0.0:
        raise InvalidThetaError(f"theta must be positive, got {theta}")
    lo = np.maximum(grid.nodes - theta, grid.x_min)
    hi = np.minimum(grid.nodes + theta, grid.x_max)
    w = np.maximum(hi - lo, 0.0) / (2.0 * theta)
    return Field(grid, w, DIRICHLET_DATA)


# ---------------------------------------------------------------------------
# Coercivity check
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CoercivityReport:
    """Constants certifying 2<(-A)u, u> + lam * ||u||_H^2 >= alpha * ||u||_W^2.

    ``gamma`` is the domination constant of the dissipation form over the
    pure gradient seminorm; the certificate requires ``gamma > 0``, which is
    the resolution-robust content of the inequality (a zero or sign-indefinite
    form cannot dominate the gradient norm at any resolution).
    """

    alpha: float
    lam: float
    satisfied: bool
    gamma: float


def check_garding(op: OperatorSpec, grid: Grid) -> CoercivityReport:
    """Compute discrete coercivity constants of the assembled generator.

    The quadratic form examined is Q(u) = 2 <(-A)u, u>_h over zero-boundary
    interior vectors.  The report carries (alpha, lam) with alpha > 0 when
    the form dominates the discrete Sobolev norm up to a zeroth-order shift;
    a constant at or below 1e-10 counts as zero.
    """
    n = grid.n_cells
    h = grid.h
    a_mat = operator_matrix(op, grid)
    q = -h * (a_mat + a_mat.T)
    lap = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
    grad_gram = lap / h
    m_h = h * np.eye(n)
    m_w = m_h + grad_gram

    gamma = float(scipy.linalg.eigvalsh(q, grad_gram)[0])
    if gamma <= 1e-10:
        return CoercivityReport(alpha=0.0, lam=0.0, satisfied=False, gamma=gamma)

    alpha0 = float(scipy.linalg.eigvalsh(q, m_w)[0])
    if alpha0 > 1e-10:
        return CoercivityReport(alpha=alpha0, lam=0.0, satisfied=True, gamma=gamma)

    mu = float(scipy.linalg.eigvalsh(q, m_h)[0])
    lam = 2.0 * abs(mu)
    alpha = float(scipy.linalg.eigvalsh(q + lam * m_h, m_w)[0])
    return CoercivityReport(alpha=alpha, lam=lam, satisfied=alpha > 1e-10, gamma=gamma)
