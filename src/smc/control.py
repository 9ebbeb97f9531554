"""Adjoint assembly, reward estimation, policy extraction, and the
optimality checks.

The Hamiltonian splits into an absolutely continuous part H0 multiplying dt
and a singular part H1 multiplying the control increment:

    H0 = drift * p + vol * q,        H1 = gain * p + h1,

with drift = alpha * ubar, vol = beta * u, gain = -lambda0 * u and the
singular reward density h1 = h10 * u - cost, as :class:`forward.ProblemSpec`
states them.  The adjoint is a backward equation whose driver collects the
state derivative of H0 plus the dual action of its space-mean argument,
realized through the closed-form dual weight w(x): the driver is
alpha * w(x) * p (its beta * q term vanishes, since q, the adjoint's Z, is
identically zero) and the terminal value is the terminal price field.  The
control couples only through dH1/du = h10 - lambda0 * p
(``ProblemSpec.singular_slope``): the adjoint differential carries
-(dH1/du) xi(dt, x), so each backward step adds (dH1/du) dxi.

Threshold side.  The first-order condition gain * p + h1 <= 0 evaluates, for
positive stock, to p >= h10/lambda0: the adjoint is reflected from below at
that price floor, and harvesting is profitable exactly where the marginal
future value of stock sits below the unit harvest revenue.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import ClassVar

import numpy as np

from .backward import BackwardSolution, BackwardSpec, solve_reflected
from .forward import (
    ControlPerturbation,
    ProblemSpec,
    SingularControl,
    _check_control,
    _monte_carlo,
    check_admissible_direction,
    perturbed_control,
)
from .errors import GridMismatchError
from .grid import Field, FieldPath
from .operators import space_mean_dual_weight

PRICE_FLOOR = "price-floor"  # the one threshold side: p >= h10/lambda0


# ---------------------------------------------------------------------------
# Adjoint assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdjointSpec:
    """Backward problem for the adjoint."""

    backward: BackwardSpec


def assemble_adjoint(spec: ProblemSpec, xi: SingularControl | None = None) -> AdjointSpec:
    """Assemble the unconstrained adjoint backward problem along a control.

    The model's coefficients are affine in the state, so the adjoint is
    linear.  The driver realizes the dual action of the space-mean argument
    through the closed-form dual weight.
    """
    grid = spec.grid
    weight = space_mean_dual_weight(grid, spec.op.theta).interior.copy()
    alpha = spec.alpha

    def driver(t, x, p):
        return alpha * weight * p

    terminal_values = np.zeros(grid.n_total)
    terminal_values[1:-1] = spec.g0[1:-1]
    terminal = Field(grid, terminal_values)

    singular = None if xi is None else (xi, lambda t, x, p: spec.singular_slope(p))

    backward = BackwardSpec(
        grid=grid,
        op=spec.op,
        horizon=spec.horizon,
        n_steps=spec.n_steps,
        terminal=terminal,
        driver=driver,
        singular=singular,
    )
    return AdjointSpec(backward=backward)


# ---------------------------------------------------------------------------
# Performance functional
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JEstimate:
    estimate: float
    stderr: float


# an overflowed mean or error is reported as inf or NaN, which a CheckResult fails, not warned
@np.errstate(over="ignore", invalid="ignore")
def _mean_stderr(values: np.ndarray) -> tuple[float, float]:
    """Monte Carlo mean of per-path values and its standard error (0 for one path)."""
    n = values.size
    err = float(np.std(values, ddof=1) / np.sqrt(n)) if n > 1 else 0.0
    return float(np.mean(values)), err


def _node_sum(values: np.ndarray) -> np.ndarray:
    """Per-path sum over the node axis, adding nodes in order at every bundle width.

    numpy reduces a wide bundle's axis 0 row by row but a one-column bundle
    pairwise; the running sum keeps a path's bits independent of its bundle.
    """
    if values.shape[1] == 1:
        return np.cumsum(values, axis=0)[-1]
    return values.sum(axis=0)


def _rewards_pass(
    spec: ProblemSpec,
    control: SingularControl,
    p: np.ndarray | None = None,
    dzeta: np.ndarray | None = None,
):
    """Engine pass reducing a bundle to the per-path value of J.

    Given adjoint values ``p`` and direction increments ``dzeta``, the same
    pass also sums the adjoint-formula derivative sum_k h (gain * p + h1)
    dzeta_k per path, returned as the second row after the rewards.

    The harvest reward h1 * dxi_k sums over the control's span of step k only:
    states are checked finite, so other rows would add +-0 to the node sum.
    """
    h = spec.grid.h
    increments, spans = control.increments, control.spans
    g0 = spec.g0[1:-1][:, None]

    def reduce(_first: int, states) -> np.ndarray:
        total = derivative = 0.0
        for k, u in states:
            if k == spec.n_steps:
                break
            u_int = u[1:-1]
            if k == 0:  # this call's buffers: chunks may reduce on parallel workers
                h1, term = np.empty_like(u_int), np.empty_like(u_int)
            span = spans[k]
            rows = slice(None) if p is not None else span  # the derivative needs every row
            spec.h1_values(u_int[rows], out=h1[rows], rows=rows)
            if span.start < span.stop:
                dxi = increments[k][span, None]
                total += h * _node_sum(np.multiply(h1[span], dxi, out=term[span]))
            if p is not None:
                spec.gain_values(u_int, out=term)
                np.multiply(term, p[k, 1:-1][:, None], out=term)
                np.add(term, h1, out=term)
                derivative += h * _node_sum(np.multiply(term, dzeta[k][:, None], out=term))
        total += h * _node_sum(g0 * u[1:-1])
        return total if p is None else np.stack([total, derivative])

    return control, reduce


def performance_Js(
    spec: ProblemSpec, controls: list[SingularControl], n_paths: int, seed: int
) -> list[JEstimate]:
    """:func:`performance_J` of every control on common paths, drawing their noise once."""
    passes = [_rewards_pass(spec, xi) for xi in controls]
    return [
        JEstimate(*_mean_stderr(np.concatenate(chunks)))
        for chunks in _monte_carlo(spec, passes, n_paths, seed)
    ]


def performance_J(spec: ProblemSpec, xi: SingularControl, n_paths: int, seed: int) -> JEstimate:
    """Monte Carlo estimate of the harvest-plus-terminal reward functional.

    The singular reward pairs each control increment with the pre-jump state
    at the step's left endpoint; the terminal reward prices the final state.
    """
    return performance_Js(spec, [xi], n_paths, seed)[0]


# ---------------------------------------------------------------------------
# Necessary-condition report
# ---------------------------------------------------------------------------


def _check_pair(spec: ProblemSpec, p: FieldPath, xi: SingularControl) -> None:
    """GridMismatchError unless the control and the adjoint path both fit ``spec``'s grids."""
    _check_control(spec, xi)
    expected = (spec.n_steps + 1, spec.grid.n_total)
    if p.values.shape != expected:
        raise GridMismatchError(f"adjoint path shape {p.values.shape} does not match {expected}")


@dataclass(frozen=True)
class MPReport:
    """Residuals of the first-order optimality system on (p, xi), with pass flags.

    ``threshold_violation_max`` is the largest violation of the threshold
    slack h10 - lambda0 p <= 0.  Each residual passes at or below
    ``TOLERANCE``.
    """

    TOLERANCE: ClassVar[float] = 1e-6

    threshold_violation_max: float
    complementarity_residual: float
    vi_residual: float

    @property
    def threshold_pass(self) -> bool:
        return self.threshold_violation_max <= self.TOLERANCE

    @property
    def complementarity_pass(self) -> bool:
        return self.complementarity_residual <= self.TOLERANCE

    @property
    def vi_pass(self) -> bool:
        return self.vi_residual <= self.TOLERANCE

    @property
    def all_pass(self) -> bool:
        return self.threshold_pass and self.complementarity_pass and self.vi_pass


# residuals of a non-finite adjoint are NaN or inf, reported in the MPReport, not warned
@np.errstate(over="ignore", invalid="ignore")
def check_necessary(p: FieldPath, xi: SingularControl, spec: ProblemSpec) -> MPReport:
    """Evaluate the threshold slack, complementarity, and the discrete
    variational inequality along an (adjoint, control) pair.

    Quantities are evaluated at time nodes t_k, k < n_steps, pairing each
    control increment with the adjoint at the step's left endpoint.
    """
    _check_pair(spec, p, xi)
    h = spec.grid.h
    inc = xi.increments
    slack = spec.h10[1:-1] - spec.lambda0 * p.values[:-1, 1:-1]  # > 0 where p is under the floor
    comp = 0.0
    for slack_k, inc_k in zip(slack, inc):
        comp += h * float(np.dot(slack_k, inc_k))
    # numpy's maxima keep a NaN wherever it sits; Python's max drops one that comes second
    return MPReport(
        threshold_violation_max=float(np.max(slack, initial=0.0)) + 0.0,
        complementarity_residual=abs(comp),
        vi_residual=float(np.max(np.abs(np.maximum(slack / spec.lambda0, -inc)))),
    )


# ---------------------------------------------------------------------------
# Policy extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicyResult:
    xi_hat: SingularControl
    p: FieldPath
    report: MPReport
    solution: BackwardSolution


def policy_adjoint(spec: ProblemSpec) -> AdjointSpec:
    """The adjoint reflected from below at h10/lambda0, from any terminal price."""
    backward = replace(assemble_adjoint(spec).backward, obstacle=spec.h10[1:-1] / spec.lambda0)
    return AdjointSpec(backward=backward)


# a non-finite adjoint gives NaN residuals, which the MPReport fails, not warnings
@np.errstate(over="ignore", invalid="ignore")
def extract_policy(
    spec: ProblemSpec,
    levels: list[int],
    convention: str = PRICE_FLOOR,
    *,
    max_rate: float,
) -> PolicyResult:
    """Extract the threshold harvest policy from the reflected adjoint.

    The adjoint is solved as a reflected backward problem with obstacle
    h10/lambda0 from below; ``convention`` names that one side and takes no
    other value.  The policy charges the admissibility cap, lambda0 * dxi =
    ``max_rate`` per step, on the contact set: every (step, node) where the
    top level's reflection increment is positive.  ``max_rate`` must lie in
    (0, 1), since the state stays positive only while lambda0 * dxi < 1.  The
    returned adjoint path is clipped up to the threshold for t < T, which
    enforces the discrete complementarity identity exactly.
    """
    if convention != PRICE_FLOOR:
        raise ValueError(f"unknown convention {convention!r}; the one side is {PRICE_FLOOR!r}")
    if not 0.0 < max_rate < 1.0:
        raise ValueError(f"max_rate must lie in (0, 1), got {max_rate!r}")
    reflected = policy_adjoint(spec).backward
    solution = solve_reflected(reflected, levels)

    p = solution.y.values.copy()
    p_int = p[:-1, 1:-1]  # (n_steps, n_cells): the left endpoint of every step
    deta = np.diff(solution.eta.values[:, 1:-1], axis=0)
    rate = np.where(deta > 0.0, max_rate / spec.lambda0, 0.0)
    np.maximum(p_int, reflected.obstacle, out=p_int)

    xi_hat = SingularControl.from_increments(rate)
    p_path = FieldPath(spec.grid, spec.times, p)
    return PolicyResult(
        xi_hat=xi_hat,
        p=p_path,
        report=check_necessary(p_path, xi_hat, spec),
        solution=solution,
    )


# ---------------------------------------------------------------------------
# Directional derivative of J
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DerivativeComparison:
    adjoint_formula: float
    adjoint_stderr: float
    finite_difference: dict[float, tuple[float, float]]  # eps -> (estimate, stderr)


def directional_derivative_J(
    spec: ProblemSpec,
    xi: SingularControl,
    zeta: ControlPerturbation,
    p: FieldPath,
    n_paths: int,
    seed: int,
    epsilons: tuple[float, ...] = (1e-1, 1e-2, 1e-3),
) -> DerivativeComparison:
    """Adjoint-formula directional derivative against common-noise differences.

    The adjoint formula averages sum over steps of (gain * p + h1) dzeta h
    along base paths; the finite differences reuse the identical Gaussian
    increments for base and perturbed controls.
    """
    _check_pair(spec, p, xi)
    check_admissible_direction(xi, zeta)
    passes = [_rewards_pass(spec, xi, p.values, zeta.increments)]
    passes += [_rewards_pass(spec, perturbed_control(xi, zeta, eps)) for eps in epsilons]
    base, *perturbed = _monte_carlo(spec, passes, n_paths, seed)
    base_rewards, per_path = np.concatenate(base, axis=1)
    adj, adj_err = _mean_stderr(per_path)
    fd = {
        eps: _mean_stderr((np.concatenate(chunks) - base_rewards) / eps)
        for eps, chunks in zip(epsilons, perturbed)
    }
    return DerivativeComparison(adjoint_formula=adj, adjoint_stderr=adj_err, finite_difference=fd)
