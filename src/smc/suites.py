"""Named verification suites.

Each acceptance-style check builds its own benchmark, runs it at fixed seeds,
and returns a :class:`smc.report.CheckResult`.  The ``all`` suite executes
every check; smaller suites group them by subsystem.  All benchmarks are
deterministic: rerunning a suite reproduces identical numbers.
"""

from __future__ import annotations

import time
from typing import Callable

import numpy as np

from .backward import BackwardSpec, penalization_rate, solve_penalized, solve_reflected
from .control import (
    assemble_adjoint,
    directional_derivative_J,
    extract_policy,
    performance_Js,
)
from .forward import (
    ControlPerturbation,
    NoisePath,
    ProblemSpec,
    SingularControl,
    derivative_process,
    simulate_ensemble,
    simulate_path,
)
from .grid import Field, build_grid, inner_product, norm_h, sup_norm_h
from .operators import (
    OperatorSpec,
    SpaceMeanOperator,
    apply_a,
    apply_a_star,
    check_garding,
    space_mean,
    space_mean_adjoint,
    space_mean_dual_weight,
)
from .psor import solve_obstacle_psor
from .report import CheckResult

HEAT_OP = OperatorSpec(second_order=0.5, first_order=0.0, theta=0.1)

# verdict bands, read by the checks here and by the CLI subcommands that repeat them
RATE_BAND = (-2.3, -1.7)  # criterion 01: log-log slope of the penalization energies
SKOROKHOD_BOUND = 1e-4  # criterion 02: |residual| over sup_t ||Y||_H * ||eta(T)||_H
RATIO_BAND = (5.0, 20.0)  # criterion 07: error ratio of the eps = 1e-2 and 1e-3 quotients
SIGMA_BOUND = 3.0  # criterion 08: |adjoint - difference| in combined standard errors


# ---------------------------------------------------------------------------
# Shared benchmarks
# ---------------------------------------------------------------------------


def active_obstacle_spec(n_cells: int = 100, n_steps: int = 400) -> BackwardSpec:
    """Reflected benchmark: terminal sine decaying onto the obstacle 0.6 sine."""
    grid = build_grid(0.0, 1.0, n_cells)
    return BackwardSpec(
        grid=grid,
        op=HEAT_OP,
        horizon=0.5,
        n_steps=n_steps,
        terminal=Field.from_function(grid, lambda x: np.sin(np.pi * x), "dirichlet-zero"),
        obstacle=0.6 * np.sin(np.pi * grid.interior),
        reflection_side="lower",
    )


def inactive_obstacle_spec() -> BackwardSpec:
    grid = build_grid(0.0, 1.0, 60)
    return BackwardSpec(
        grid=grid,
        op=HEAT_OP,
        horizon=0.2,
        n_steps=100,
        terminal=Field.from_function(grid, lambda x: np.sin(np.pi * x), "dirichlet-zero"),
        obstacle=np.full(grid.n_cells, -1e9),
        reflection_side="lower",
    )


def pocket_price(x):
    """Unit harvest price with an interior premium pocket."""
    return 0.05 + 3.0 * np.exp(-(((x - 0.5) / 0.1) ** 2))


def harvesting_benchmark() -> ProblemSpec:
    """Harvesting model used by the policy, positivity, and derivative checks.

    Interior price pocket, valuable terminal stock, absorbing shores; the
    profitable harvest region is the pocket, away from the walls.
    """
    grid = build_grid(0.0, 1.0, 60)
    return ProblemSpec(
        grid=grid,
        op=OperatorSpec(0.5, 0.0, 0.1),
        horizon=0.12,
        n_steps=96,
        alpha=0.4,
        beta=0.15,
        lambda0=1.0,
        stepping="implicit",
        initial=Field.from_function(grid, lambda x: np.sin(np.pi * x), "dirichlet-zero"),
        boundary=(0.0, 0.0),
        h10=pocket_price,
        g0=2.0,
    )


def linear_sensitivity_benchmark() -> ProblemSpec:
    """Linear model for the adjoint-formula versus finite-difference check."""
    grid = build_grid(0.0, 1.0, 60)
    return ProblemSpec(
        grid=grid,
        op=OperatorSpec(0.5, 0.0, 0.05),
        horizon=0.2,
        n_steps=200,
        alpha=0.5,
        beta=0.2,
        lambda0=1.0,
        stepping="implicit",
        initial=Field.from_function(grid, lambda x: 0.2 + np.sin(np.pi * x)),
        boundary=(0.2, 0.2),
        h10=1.0,
        g0=1.0,
    )


POLICY_LEVELS = [512, 1024, 2048, 4096]
POLICY_MAX_RATE = 0.9
POLICY_SEED = 20_250
POLICY_PATHS = 10_000


def stress_family(spec: ProblemSpec, xi_hat: SingularControl) -> dict[str, SingularControl]:
    """Fixed admissible comparison family for the optimality check.

    The scaled probe is 0.5x: the policy already harvests near the
    positive-state rate bound lambda0 * dxi < 1, so up-scaling would leave
    the admissible regime of the multiplicative model.
    """
    return {
        "scaled-half": xi_hat.scaled(0.5),
        "time-shifted": xi_hat.time_shifted(spec.n_steps // 4),
        "masked-right-half": xi_hat.masked(spec.grid.interior > 0.5),
        "zero": SingularControl.zeros(spec.n_steps + 1, spec.grid.n_cells),
        "constant-rate": SingularControl.constant_rate(1.0, spec.times, spec.grid.n_cells),
    }


def benchmark_policy():
    """The harvesting benchmark and its extracted policy (criteria 09 and 10)."""
    spec = harvesting_benchmark()
    policy = extract_policy(spec, POLICY_LEVELS, max_rate=POLICY_MAX_RATE)
    return spec, policy


def derivative_process_errors(spec, base, zeta, noise) -> dict[float, float]:
    """Criterion 07: sup_t L2 error of the eps-difference quotient against the tangent."""
    base_path = simulate_path(spec, base, noise)
    tangent = derivative_process(spec, base, zeta, noise)
    errors = {}
    for eps in (1e-2, 1e-3):
        bumped = simulate_path(spec, SingularControl(base.cumulative + eps * zeta.cumulative), noise)
        diff = (bumped.values - base_path.values) / eps - tangent.values
        errors[eps] = sup_norm_h(diff[:, 1:-1], spec.grid.h)
    return errors


def directional_derivative_gap(spec, base, zeta, n_paths, seed):
    """Criterion 08: the comparison, |adjoint - difference at eps=1e-3|, combined stderr."""
    p_path, _ = solve_penalized(assemble_adjoint(spec, xi=base).backward, 1)
    cmp = directional_derivative_J(spec, base, zeta, p_path, n_paths=n_paths, seed=seed)
    est, err = cmp.finite_difference[1e-3]
    return cmp, abs(cmp.adjoint_formula - est), float(np.sqrt(cmp.adjoint_stderr**2 + err**2))


# ---------------------------------------------------------------------------
# Criterion checks
# ---------------------------------------------------------------------------


def check_penalization_rate() -> CheckResult:
    """Log-log slope of the squared-violation energies over levels 4..256.

    The established band [-2.3, -1.7] reflects the asymptotic 1/n^2 decay,
    but on this benchmark the violation amplitude scales like 1/(n + mu)
    with mu about pi^2/2, so the preasymptotic slope over 4..256 sits near
    -1.5.  The check reports the faithful measurement (expected FAIL) with
    the asymptotic-window slope as supporting diagnostics.  The study must finish
    within 60 s; the digest-covered detail does not carry its wall time.
    """
    start = time.perf_counter()
    spec = active_obstacle_spec()
    study = penalization_rate(spec, [4, 8, 16, 32, 64, 128, 256])
    elapsed = time.perf_counter() - start
    asymptotic = penalization_rate(spec, [256, 512, 1024, 2048, 4096])
    low, high = RATE_BAND
    return CheckResult(
        name="penalization-rate-slope",
        value=study.slope,
        tolerance=high,
        passed=bool(low <= study.slope <= high and elapsed <= 60.0),
        detail=(
            f"band [{low}, {high}]; levels 4..256; "
            f"asymptotic window 256..4096 gives slope {asymptotic.slope:.3f}; "
            f"energies follow (n + pi^2/2)^-2, so the pinned window is preasymptotic"
        ),
    )


def check_skorokhod() -> CheckResult:
    spec = active_obstacle_spec()
    sol = solve_reflected(spec, [1024, 4096, 16384, 65536])
    rel = abs(sol.diagnostics.skorokhod_residual) / sol.diagnostics.skorokhod_scale
    inactive = solve_reflected(inactive_obstacle_spec(), [4, 16])
    exact_zero = inactive.diagnostics.skorokhod_residual == 0.0
    return CheckResult(
        name="skorokhod-complementarity",
        value=rel,
        tolerance=SKOROKHOD_BOUND,
        passed=bool(rel <= SKOROKHOD_BOUND and exact_zero),
        detail=(
            f"relative residual at level 65536; inactive-obstacle residual "
            f"{inactive.diagnostics.skorokhod_residual:.1e} (must be exactly 0)"
        ),
    )


def check_contraction() -> CheckResult:
    rng = np.random.default_rng(2024)
    worst = -np.inf
    theta = 0.1
    for n in (50, 100, 200):
        grid = build_grid(0.0, 1.0, n)
        op = SpaceMeanOperator(grid, theta)
        budget = 1.0 + 10.0 * grid.h
        for _ in range(350):
            values = np.zeros(grid.n_total)
            values[1:-1] = rng.standard_normal(n)
            averaged = op.apply(values)
            num = np.sqrt(grid.h * np.sum(averaged[1:-1] ** 2))
            den = np.sqrt(grid.h * np.sum(values[1:-1] ** 2))
            worst = max(worst, num / (den * budget))
    return CheckResult(
        name="space-mean-contraction",
        value=worst,
        tolerance=1.0,
        passed=bool(worst <= 1.0),
        detail="max of ||G phi|| / (||phi|| (1 + 10h)) over 1050 random fields, N in {50,100,200}",
    )


def check_dualities() -> CheckResult:
    rng = np.random.default_rng(7)
    grid = build_grid(0.0, 1.0, 120)
    theta = 0.09
    op = OperatorSpec(second_order=0.5, first_order=1.0, theta=theta)
    worst_mean = 0.0
    worst_green = 0.0
    for _ in range(100):
        f = Field.from_interior(grid, rng.standard_normal(grid.n_cells))
        g = Field.from_interior(grid, rng.standard_normal(grid.n_cells))
        lhs = inner_product(space_mean(f, theta), g)
        rhs = inner_product(f, space_mean_adjoint(g, theta))
        scale = max(norm_h(f) * norm_h(g), 1e-30)
        worst_mean = max(worst_mean, abs(lhs - rhs) / scale)
        lhs2 = inner_product(apply_a(f, op), g)
        rhs2 = inner_product(f, apply_a_star(g, op))
        scale2 = max(abs(lhs2), abs(rhs2), 1e-30)
        worst_green = max(worst_green, abs(lhs2 - rhs2) / scale2)
    # the space mean of the constant 1 is |window ∩ D| / (2 theta), the dual weight's closed form
    wgrid = build_grid(0.0, 1.0, 100)
    mean_of_one = SpaceMeanOperator(wgrid, 0.1).apply(np.ones(wgrid.n_total))
    w_err = float(np.max(np.abs(space_mean_dual_weight(wgrid, 0.1).values - mean_of_one)))
    value = max(worst_mean, worst_green)
    return CheckResult(
        name="operator-dualities",
        value=value,
        tolerance=1e-10,
        passed=bool(value <= 1e-10 and w_err <= 1e-12),
        detail=(
            f"space-mean adjoint {worst_mean:.2e}, generator adjoint {worst_green:.2e} "
            f"(100 random pairs); dual weight vs space mean of 1 {w_err:.2e} <= 1e-12"
        ),
    )


def _forward_heat_error(n_cells: int, n_steps: int) -> float:
    grid = build_grid(0.0, 1.0, n_cells)
    spec = ProblemSpec(
        grid=grid,
        op=HEAT_OP,
        horizon=0.1,
        n_steps=n_steps,
        stepping="crank-nicolson",
        initial=Field.from_function(grid, lambda x: np.sin(np.pi * x), "dirichlet-zero"),
        boundary=(0.0, 0.0),
    )
    control = SingularControl.zeros(n_steps + 1, n_cells)
    path = simulate_path(spec, control, NoisePath.generate(0, n_steps, spec.dt))
    expected = np.exp(-np.pi**2 * 0.1 / 2.0) * np.sin(np.pi * grid.nodes)
    return float(np.max(np.abs(path.values[-1] - expected)))


def _backward_heat_error(n_cells: int, n_steps: int) -> float:
    grid = build_grid(0.0, 1.0, n_cells)
    spec = BackwardSpec(
        grid=grid,
        op=HEAT_OP,
        horizon=0.1,
        n_steps=n_steps,
        terminal=Field.from_function(grid, lambda x: np.sin(np.pi * x), "dirichlet-zero"),
        time_scheme="crank-nicolson",
    )
    y, _ = solve_penalized(spec, 1)
    expected = np.exp(-np.pi**2 * 0.1 / 2.0) * np.sin(np.pi * grid.nodes)
    return float(np.max(np.abs(y.values[0] - expected)))


def check_analytic_oracle() -> CheckResult:
    f1 = _forward_heat_error(200, 4000)
    b1 = _backward_heat_error(200, 4000)
    f2 = _forward_heat_error(401, 8000)
    b2 = _backward_heat_error(401, 8000)
    value = max(f1, b1)
    ratio = min(f1 / f2, b1 / b2)
    return CheckResult(
        name="analytic-heat-oracle",
        value=value,
        tolerance=2e-3,
        passed=bool(value <= 2e-3 and ratio >= 3.0),
        detail=(
            f"forward {f1:.2e} -> {f2:.2e}, backward {b1:.2e} -> {b2:.2e} "
            f"under h,dt halving; min refinement ratio {ratio:.2f} (needs >= 3)"
        ),
    )


def check_psor_equivalence() -> CheckResult:
    spec = active_obstacle_spec(n_cells=50, n_steps=200)
    psor = solve_obstacle_psor(
        spec.grid, spec.op, spec.terminal, spec.obstacle, spec.horizon, spec.n_steps, side="lower"
    )
    sol = solve_reflected(spec, [256, 512, 1024, 2048])
    err = float(np.max(np.abs(sol.y.values - psor.values)))
    return CheckResult(
        name="psor-oracle-equivalence",
        value=err,
        tolerance=5e-3,
        passed=bool(err <= 5e-3),
        detail="50x200 grid, top penalization level 2048, independent projected-SOR solve",
    )


def check_derivative_process() -> CheckResult:
    grid = build_grid(0.0, 1.0, 30)
    spec = ProblemSpec(
        grid=grid,
        op=OperatorSpec(0.2, 0.0, 0.15),
        horizon=0.4,
        n_steps=80,
        alpha=0.4,
        beta=0.25,
        lambda0=1.0,
        stepping="implicit",
        initial=Field.from_function(grid, lambda x: np.ones_like(x)),
        boundary=(1.0, 1.0),
    )
    rng = np.random.default_rng(13)
    base = SingularControl.from_increments(rng.uniform(0.0, 0.02, (spec.n_steps, grid.n_cells)))
    zeta = ControlPerturbation.from_increments(
        rng.uniform(0.0, 0.5, (spec.n_steps, grid.n_cells))
    )
    noise = NoisePath.generate(1234, spec.n_steps, spec.dt)
    errors = derivative_process_errors(spec, base, zeta, noise)
    ratio = errors[1e-2] / errors[1e-3]
    low, high = RATIO_BAND
    return CheckResult(
        name="derivative-process-consistency",
        value=ratio,
        tolerance=high,
        passed=bool(low <= ratio <= high),
        detail=(
            f"error(1e-2)={errors[1e-2]:.3e}, error(1e-3)={errors[1e-3]:.3e}; "
            f"first-order ratio must land in [{low:g}, {high:g}]"
        ),
    )


def check_directional_derivative(n_paths: int = 10_000) -> CheckResult:
    spec = linear_sensitivity_benchmark()
    rng = np.random.default_rng(77)
    base = SingularControl.constant_rate(0.1, spec.times, spec.grid.n_cells)
    zeta = ControlPerturbation.from_increments(
        rng.uniform(0.0, 1.0, (spec.n_steps, spec.grid.n_cells)) * spec.dt * 5.0
    )
    cmp, gap, comb = directional_derivative_gap(spec, base, zeta, n_paths, 4242)
    sweep = ", ".join(
        f"eps={eps:g}: {fd:.6g}" for eps, (fd, _) in sorted(cmp.finite_difference.items())
    )
    return CheckResult(
        name="directional-derivative-duality",
        value=gap / comb if comb > 0 else 0.0,
        tolerance=SIGMA_BOUND,
        passed=bool(gap <= SIGMA_BOUND * comb),
        detail=(
            f"adjoint {cmp.adjoint_formula:.6g} vs common-noise difference at eps=1e-3 "
            f"{cmp.finite_difference[1e-3][0]:.6g} ({n_paths} paths); sweep {sweep}"
        ),
    )


def check_policy_optimality(n_paths: int = POLICY_PATHS) -> CheckResult:
    spec, policy = benchmark_policy()
    stress = stress_family(spec, policy.xi_hat)
    best, *others = performance_Js(spec, [policy.xi_hat, *stress.values()], n_paths, POLICY_SEED)
    details = []
    min_margin_sigma = np.inf
    for name, other in zip(stress, others):
        comb = float(np.sqrt(best.stderr**2 + other.stderr**2))
        margin = best.estimate - other.estimate
        margin_sigma = margin / comb if comb > 0 else np.inf
        min_margin_sigma = min(min_margin_sigma, margin_sigma)
        details.append(f"{name}: dJ={margin:+.5f} ({margin_sigma:+.0f} sigma)")
    rep = policy.report
    # all_pass fails a NaN residual, which Python's max drops unless it comes first
    passed = bool(min_margin_sigma >= -3.0 and rep.all_pass)
    residual = np.max([rep.threshold_violation_max, rep.complementarity_residual, rep.vi_residual])
    return CheckResult(
        name="policy-optimality",
        value=float(min_margin_sigma),
        tolerance=-3.0,
        passed=passed,
        detail=(
            f"J(policy)={best.estimate:.5f}+-{best.stderr:.5f}; "
            + "; ".join(details)
            + f"; optimality residuals <= {residual:.1e}"
        ),
    )


def check_positivity(n_paths: int = POLICY_PATHS) -> CheckResult:
    spec, policy = benchmark_policy()
    max_step = float(spec.lambda0 * policy.xi_hat.increments.max())
    summary = simulate_ensemble(spec, policy.xi_hat, n_paths, POLICY_SEED)
    seed, k, node = summary.min_location
    return CheckResult(
        name="state-positivity",
        value=summary.min_value,
        tolerance=0.0,
        passed=bool(summary.positivity and max_step < 1.0),
        detail=(
            f"min over {n_paths} paths of the harvested state; "
            f"attained at (seed {seed}, t index {k}, node {node}); "
            f"max lambda0*dxi per step {max_step:.3f} < 1"
        ),
    )


def check_coercivity() -> CheckResult:
    grid = build_grid(0.0, 1.0, 100)
    rep = check_garding(HEAT_OP, grid)
    zero = check_garding(OperatorSpec(0.0, 0.0, 0.1), grid)
    return CheckResult(
        name="coercivity-constants",
        value=rep.alpha,
        tolerance=0.0,
        passed=bool(rep.satisfied and rep.alpha > 0.0 and not zero.satisfied),
        detail=(
            f"benchmark operator: alpha={rep.alpha:.4f}, lambda={rep.lam:.4f}; "
            f"zero operator correctly fails (gamma={zero.gamma:.1e})"
        ),
    )


SUITES: dict[str, list[Callable[[], CheckResult]]] = {
    "operators": [check_contraction, check_dualities, check_coercivity],
    "forward": [check_analytic_oracle, check_derivative_process],
    "backward": [check_penalization_rate, check_skorokhod, check_psor_equivalence],
    "control": [check_directional_derivative, check_policy_optimality, check_positivity],
}
SUITES["all"] = [
    check_penalization_rate,
    check_skorokhod,
    check_contraction,
    check_dualities,
    check_analytic_oracle,
    check_psor_equivalence,
    check_derivative_process,
    check_directional_derivative,
    check_policy_optimality,
    check_positivity,
    check_coercivity,
]
