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

Threshold conventions.  The model's own worked optimality condition pins the
adjoint to the price cap p <= h10/lambda0 and harvests where p reaches the
cap from above ("price-cap").  The general first-order condition
gain * p + h1 <= 0 evaluates, for positive stock, to the opposite
inequality p >= h10/lambda0 ("price-floor"): harvesting is profitable
exactly where the marginal future value of stock sits below the unit
harvest revenue.  Both conventions are implemented and both slacks are
always reported; measured performance (see the verification suites) shows
the price-floor policy dominates its stress family while the price-cap
policy harvests value-destroying regions, so price-floor is the default.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .backward import LOWER, UPPER, BackwardSolution, BackwardSpec, solve_reflected
from .forward import (
    _DEFAULT_CHUNK,
    ControlPerturbation,
    ProblemSpec,
    SingularControl,
    _monte_carlo,
    check_admissible_direction,
    perturbed_control,
)
from .grid import Field, FieldPath
from .operators import space_mean_dual_weight

PRICE_FLOOR = "price-floor"  # admissible region p >= h10/lambda0, general condition
PRICE_CAP = "price-cap"  # admissible region p <= h10/lambda0, worked-example condition
CONVENTIONS = (PRICE_FLOOR, PRICE_CAP)

_RESIDUAL_TOLERANCE = 1e-6  # bound on each optimality residual of an MPReport
_COEFFICIENT_FLOOR = 1e-10  # |dH1/du| at or below this cannot convert reflection to control


def _check_convention(convention: str) -> None:
    if convention not in CONVENTIONS:
        raise ValueError(f"unknown convention {convention!r}; choose from {CONVENTIONS}")


# ---------------------------------------------------------------------------
# Adjoint assembly
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AdjointSpec:
    """Backward problem for the adjoint."""

    backward: BackwardSpec


def assemble_adjoint(
    spec: ProblemSpec,
    xi: SingularControl | None = None,
    obstacle: Callable | None = None,
    reflection_side: str = LOWER,
    allow_terminal_violation: bool = False,
) -> AdjointSpec:
    """Assemble the adjoint backward problem along a control.

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
    terminal_values[1:-1] = spec._g0_values()[1:-1]
    terminal = Field(grid, terminal_values)

    singular = None if xi is None else (xi, lambda t, x, p: spec.singular_slope(t, p))

    backward = BackwardSpec(
        grid=grid,
        op=spec.op,
        horizon=spec.horizon,
        n_steps=spec.n_steps,
        terminal=terminal,
        driver=driver,
        obstacle=obstacle,
        reflection_side=reflection_side,
        singular=singular,
        use_adjoint_operator=True,
        allow_terminal_violation=allow_terminal_violation,
    )
    return AdjointSpec(backward=backward)


# ---------------------------------------------------------------------------
# Performance functional
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class JEstimate:
    estimate: float
    stderr: float
    n_paths: int
    seed: int


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
    times = spec.times
    increments, spans = control.increments, control.spans
    g0 = spec._g0_values()[1:-1][:, None]

    def reduce(_first: int, states) -> np.ndarray:
        total = derivative = 0.0
        for k, u in states:
            if k == spec.n_steps:
                break
            t = times[k]
            u_int = u[1:-1]
            if k == 0:  # this call's buffers: chunks may reduce on parallel workers
                h1, term = np.empty_like(u_int), np.empty_like(u_int)
            span = spans[k]
            rows = slice(None) if p is not None else span  # the derivative needs every row
            spec.h1_values(t, u_int[rows], out=h1[rows], rows=rows)
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
    spec: ProblemSpec,
    controls: list[SingularControl],
    n_paths: int,
    seed: int,
    chunk_size: int = _DEFAULT_CHUNK,
) -> list[JEstimate]:
    """:func:`performance_J` of every control on common paths, drawing their noise once."""
    passes = [_rewards_pass(spec, xi) for xi in controls]
    return [
        JEstimate(*_mean_stderr(np.concatenate(chunks)), n_paths=n_paths, seed=seed)
        for chunks in _monte_carlo(spec, passes, n_paths, seed, chunk_size)
    ]


def performance_J(
    spec: ProblemSpec, xi: SingularControl, n_paths: int, seed: int, chunk_size=_DEFAULT_CHUNK
) -> JEstimate:
    """Monte Carlo estimate of the harvest-plus-terminal reward functional.

    The singular reward pairs each control increment with the pre-jump state
    at the step's left endpoint; the terminal reward prices the final state.
    """
    return performance_Js(spec, [xi], n_paths, seed, chunk_size)[0]


# ---------------------------------------------------------------------------
# Necessary-condition report
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MPReport:
    """Residuals of the first-order optimality system, with pass flags.

    ``threshold_violation_max`` is the largest violation of the side-signed
    threshold slack (price-floor: h10 - lambda0 p <= 0 off the harvest set;
    price-cap: lambda0 p - h10 <= 0).  ``general_slack_max`` logs the raw
    first-order slack gain * p + h1 regardless of convention.
    """

    convention: str
    threshold_violation_max: float
    complementarity_residual: float
    vi_residual: float
    general_slack_max: float
    threshold_tolerance: float
    complementarity_tolerance: float
    vi_tolerance: float

    @property
    def threshold_pass(self) -> bool:
        return self.threshold_violation_max <= self.threshold_tolerance

    @property
    def complementarity_pass(self) -> bool:
        return self.complementarity_residual <= self.complementarity_tolerance

    @property
    def vi_pass(self) -> bool:
        return self.vi_residual <= self.vi_tolerance

    @property
    def all_pass(self) -> bool:
        return self.threshold_pass and self.complementarity_pass and self.vi_pass


def check_necessary(
    p: FieldPath,
    u: FieldPath,
    xi: SingularControl,
    spec: ProblemSpec,
    convention: str = PRICE_FLOOR,
) -> MPReport:
    """Evaluate the threshold slack, complementarity, and the discrete
    variational inequality along a (state, adjoint, control) triple.

    Quantities are evaluated at time nodes t_k, k < n_steps, pairing each
    control increment with the pre-jump values at the step's left endpoint.
    Each residual passes at or below 1e-6.
    """
    _check_convention(convention)
    grid = spec.grid
    h = grid.h
    inc = xi.increments
    sign = -1.0 if convention == PRICE_FLOOR else 1.0
    worst_slack = -np.inf
    worst_general = -np.inf
    comp = 0.0
    vi = 0.0
    for k, t in enumerate(spec.times[:-1]):
        price = spec._h10_values(t)[1:-1]
        p_int = p.values[k, 1:-1]
        u_int = u.values[k, 1:-1]
        slack = sign * (spec.lambda0 * p_int - price)
        worst_slack = max(worst_slack, float(np.max(slack)))
        gain = spec.gain_values(u_int)
        h1 = spec.h1_values(t, u_int)
        worst_general = max(worst_general, float(np.max(gain * p_int + h1)))
        comp += h * float(np.dot(slack, inc[k]))
        vi = max(vi, float(np.max(np.abs(np.maximum(slack / spec.lambda0, -inc[k])))))
    return MPReport(
        convention=convention,
        threshold_violation_max=max(worst_slack, 0.0) + 0.0,
        complementarity_residual=abs(comp),
        vi_residual=vi,
        general_slack_max=worst_general,
        threshold_tolerance=_RESIDUAL_TOLERANCE,
        complementarity_tolerance=_RESIDUAL_TOLERANCE,
        vi_tolerance=_RESIDUAL_TOLERANCE,
    )


# ---------------------------------------------------------------------------
# Policy extraction
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PolicyResult:
    xi_hat: SingularControl
    p: FieldPath
    eta: FieldPath
    report: MPReport
    solution: BackwardSolution
    degenerate_coefficient: bool
    convention: str


def policy_adjoint(spec: ProblemSpec, convention: str) -> AdjointSpec:
    """The adjoint reflected at h10/lambda0 on the convention's side, from any terminal price."""
    _check_convention(convention)

    def obstacle(t, nodes):
        return np.asarray(spec._h10_values(t), dtype=float) / spec.lambda0

    return assemble_adjoint(
        spec,
        obstacle=obstacle,
        reflection_side=LOWER if convention == PRICE_FLOOR else UPPER,
        allow_terminal_violation=True,
    )


def extract_policy(
    spec: ProblemSpec,
    levels: list[int],
    convention: str = PRICE_FLOOR,
    max_rate: float | None = None,
) -> PolicyResult:
    """Extract the threshold harvest policy from the reflected adjoint.

    The adjoint is solved as a reflected backward problem with obstacle
    h10/lambda0 (reflection side set by the convention), the reflection
    measure is mapped to control increments by dividing by the singular
    coefficient magnitude |dH1/du| = |h10 - lambda0 p| of the raw penalized
    solution where that magnitude exceeds 1e-10; if the coefficient
    is degenerate on the charged set the raw reflection measure is returned
    and flagged.  The returned adjoint path is clipped to the admissible
    side of the threshold for t < T, which enforces the discrete
    complementarity identity exactly.

    ``max_rate`` optionally caps lambda0 * dxi per step (the state stays
    positive only while lambda0 * dxi < 1).
    """
    reflected = policy_adjoint(spec, convention).backward
    solution = solve_reflected(reflected, levels)

    grid = spec.grid
    n_steps = spec.n_steps
    p_raw = solution.y.values
    p_clipped = p_raw.copy()
    inc = np.zeros((n_steps, grid.n_cells))
    eta = solution.eta.values
    degenerate = False
    clip = np.maximum if convention == PRICE_FLOOR else np.minimum
    for k, t in enumerate(spec.times[:-1]):
        barrier = reflected.obstacle_interior(t)
        deta = eta[k + 1, 1:-1] - eta[k, 1:-1]
        charged = deta > 0.0
        coeff = np.abs(spec.singular_slope(t, p_raw[k, 1:-1]))
        usable = charged & (coeff > _COEFFICIENT_FLOOR)
        if np.any(charged & ~usable):
            degenerate = True
        rate = np.zeros(grid.n_cells)
        rate[usable] = deta[usable] / coeff[usable]
        rate[charged & ~usable] = deta[charged & ~usable]
        if max_rate is not None:
            rate = np.minimum(rate, max_rate / spec.lambda0)
        inc[k] = rate
        p_clipped[k, 1:-1] = clip(p_raw[k, 1:-1], barrier)

    xi_hat = SingularControl.from_increments(inc)
    p_path = FieldPath(grid, spec.times, p_clipped)
    # the report pairs the clipped adjoint with the extracted control; the
    # state path is not needed for the threshold and complementarity parts,
    # so the raw slack is logged against a unit state
    unit_state = FieldPath(grid, spec.times, np.ones_like(p_clipped))
    report = check_necessary(p_path, unit_state, xi_hat, spec, convention=convention)
    return PolicyResult(
        xi_hat=xi_hat,
        p=p_path,
        eta=solution.eta,
        report=report,
        solution=solution,
        degenerate_coefficient=degenerate,
        convention=convention,
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
