import dataclasses

import numpy as np
import pytest

from smc import suites
from smc.backward import solve_penalized
from smc.control import (
    PRICE_CAP,
    PRICE_FLOOR,
    assemble_adjoint,
    check_necessary,
    directional_derivative_J,
    extract_policy,
    performance_J,
    policy_adjoint,
)
from smc.forward import ControlPerturbation, ProblemSpec, SingularControl
from smc.grid import Field, FieldPath, build_grid
from smc.operators import OperatorSpec, space_mean_dual_weight


def harvest_spec(**kw):
    grid = kw.pop("grid", build_grid(0.0, 1.0, 40))
    defaults = dict(
        grid=grid,
        op=OperatorSpec(0.5, 0.0, 0.1),
        horizon=0.2,
        n_steps=80,
        alpha=1.0,
        beta=0.2,
        lambda0=1.0,
        stepping="implicit",
        initial=Field.from_function(grid, lambda x: np.sin(np.pi * x), "dirichlet-zero"),
        boundary=(0.0, 0.0),
        h10=1.0,
        g0=1.0,
    )
    defaults.update(kw)
    return ProblemSpec(**defaults)


# ---------------------------------------------------------------------------
# adjoint assembly
# ---------------------------------------------------------------------------


def test_adjoint_heat_terminal_one():
    grid = build_grid(0.0, 1.0, 60)
    spec = harvest_spec(
        grid=grid,
        alpha=0.0,
        beta=0.0,
        horizon=0.01,
        n_steps=50,
        initial=Field.from_function(grid, lambda x: np.sin(np.pi * x), "dirichlet-zero"),
    )
    adj = assemble_adjoint(spec)
    p, z = solve_penalized(adj.backward, 1)
    # far from the boundary and close to T the value barely moves off 1
    mid = grid.n_total // 2
    assert p.values[-1, mid] == 1.0
    assert p.values[spec.n_steps - 5, mid] == pytest.approx(1.0, abs=1e-3)
    assert np.all(z.values == 0.0)


def test_adjoint_driver_uses_dual_weight():
    spec = harvest_spec(alpha=1.0, beta=0.2)
    adj = assemble_adjoint(spec)
    grid = spec.grid
    w = space_mean_dual_weight(grid, spec.op.theta).interior
    p = np.linspace(0.5, 1.5, grid.n_cells)
    out = adj.backward.driver(0.0, grid.interior, p)
    np.testing.assert_allclose(out, 1.0 * w * p, rtol=1e-14)
    inner = np.abs(grid.interior - 0.5) < 0.5 - spec.op.theta - grid.h
    np.testing.assert_allclose(w[inner], 1.0, atol=1e-14)


def test_adjoint_singular_coefficient_signs():
    spec = harvest_spec(h10=2.0, lambda0=1.5)
    xi = SingularControl.constant_rate(0.1, spec.times, spec.grid.n_cells)
    adj = assemble_adjoint(spec, xi=xi)
    p = np.full(spec.grid.n_cells, 0.5)
    coeff = spec.singular_slope(0.0, p)
    np.testing.assert_allclose(coeff, 2.0 - 1.5 * 0.5, rtol=1e-14)
    _, fn = adj.backward.singular
    np.testing.assert_allclose(fn(0.0, spec.grid.interior, p), coeff, rtol=1e-14)


def test_singular_coefficient_is_the_solver_coefficient_and_dh1_du():
    spec = harvest_spec(h10=2.0, lambda0=1.5)
    xi = SingularControl.constant_rate(0.1, spec.times, spec.grid.n_cells)
    adj = assemble_adjoint(spec, xi=xi)
    x = spec.grid.interior
    p = np.linspace(0.25, 1.25, spec.grid.n_cells)
    p[0] = 0.5
    # H1 = gain(u) * p + h1(t, u) is affine in u, so its unit u-difference is dH1/du
    one, zero = np.ones_like(p), np.zeros_like(p)
    gain_step = spec.gain_values(one) - spec.gain_values(zero)
    h1_step = spec.h1_values(0.05, one) - spec.h1_values(0.05, zero)
    quotient = gain_step * p + h1_step
    np.testing.assert_array_equal(spec.singular_slope(0.05, p), quotient)
    _, fn = adj.backward.singular
    np.testing.assert_array_equal(fn(0.05, x, p), quotient)
    assert quotient[0] == 1.25  # h10 = 2, lambda0 = 1.5, p = 0.5


# ---------------------------------------------------------------------------
# performance functional
# ---------------------------------------------------------------------------


def test_performance_zero_control_terminal_only():
    spec = harvest_spec(beta=0.0, alpha=0.0)
    xi = SingularControl.zeros(spec.n_steps + 1, spec.grid.n_cells)
    j = performance_J(spec, xi, n_paths=1, seed=0)
    # deterministic: J equals the terminal sale value of the decayed stock
    grid = spec.grid
    from smc.forward import NoisePath, simulate_path

    path = simulate_path(spec, xi, NoisePath.generate(0, spec.n_steps, spec.dt))
    expected = grid.h * np.sum(path.values[-1, 1:-1])
    assert j.estimate == pytest.approx(expected, rel=1e-12)
    assert j.stderr == 0.0


def test_performance_deterministic_heat_value():
    grid = build_grid(0.0, 1.0, 100)
    spec = harvest_spec(
        grid=grid,
        alpha=0.0,
        beta=0.0,
        horizon=0.1,
        n_steps=1000,
        stepping="crank-nicolson",
        initial=Field.from_function(grid, lambda x: np.sin(np.pi * x), "dirichlet-zero"),
    )
    xi = SingularControl.zeros(spec.n_steps + 1, grid.n_cells)
    j = performance_J(spec, xi, n_paths=1, seed=0)
    assert j.estimate == pytest.approx(2.0 / np.pi * np.exp(-np.pi**2 * 0.1 / 2.0), abs=3e-3)


def test_performance_immediate_full_harvest():
    grid = build_grid(0.0, 1.0, 50)
    spec = harvest_spec(
        grid=grid,
        op=OperatorSpec(0.0, 0.0, 0.1),
        alpha=0.0,
        beta=0.0,
        initial=Field.from_function(grid, lambda x: np.ones_like(x)),
        boundary=(1.0, 1.0),
    )
    inc = np.zeros((spec.n_steps, grid.n_cells))
    inc[0, :] = 0.5
    xi = SingularControl.from_increments(inc)
    j = performance_J(spec, xi, n_paths=1, seed=0)
    measure = grid.h * grid.n_cells
    assert j.estimate == pytest.approx(1.0 * measure, rel=1e-12)


# ---------------------------------------------------------------------------
# necessary conditions
# ---------------------------------------------------------------------------


def _paths_of_constant(spec, value):
    vals = np.full((spec.n_steps + 1, spec.grid.n_total), value)
    return FieldPath(spec.grid, spec.times, vals)


def test_check_necessary_all_pass_inactive():
    spec = harvest_spec(h10=2.0)
    xi = SingularControl.zeros(spec.n_steps + 1, spec.grid.n_cells)
    p = _paths_of_constant(spec, 0.5)  # below cap threshold 2.0
    u = _paths_of_constant(spec, 1.0)
    rep = check_necessary(p, u, xi, spec, convention=PRICE_CAP)
    assert rep.threshold_violation_max == 0.0
    assert rep.complementarity_residual == 0.0
    assert rep.vi_residual == 0.0
    assert rep.all_pass


def test_check_necessary_constructed_violation():
    spec = harvest_spec(h10=1.0, lambda0=1.0)
    xi = SingularControl.zeros(spec.n_steps + 1, spec.grid.n_cells)
    vals = np.full((spec.n_steps + 1, spec.grid.n_total), 0.2)
    vals[5, 7] = 1.0 / 1.0 + 0.1  # one node above the cap threshold
    p = FieldPath(spec.grid, spec.times, vals)
    u = _paths_of_constant(spec, 1.0)
    rep = check_necessary(p, u, xi, spec, convention=PRICE_CAP)
    assert rep.threshold_violation_max == pytest.approx(0.1, rel=1e-12)
    assert rep.complementarity_residual == 0.0
    assert not rep.threshold_pass
    assert rep.complementarity_pass


def test_check_necessary_reports_general_slack():
    spec = harvest_spec(h10=1.0, lambda0=1.0)
    xi = SingularControl.zeros(spec.n_steps + 1, spec.grid.n_cells)
    p = _paths_of_constant(spec, 0.5)
    u = _paths_of_constant(spec, 2.0)
    rep = check_necessary(p, u, xi, spec, convention=PRICE_FLOOR)
    # price-floor slack h10 - lambda0 p = 0.5 > 0: violation under the floor sign
    assert rep.threshold_violation_max == pytest.approx(0.5, rel=1e-12)
    # raw first-order slack u (h10 - lambda0 p) = 1.0
    assert rep.general_slack_max == pytest.approx(1.0, rel=1e-12)


# ---------------------------------------------------------------------------
# policy extraction
# ---------------------------------------------------------------------------


def test_extract_policy_inactive_cap():
    spec = harvest_spec(alpha=0.0, beta=0.1, g0=0.05, h10=1.0, lambda0=1.0)
    pol = extract_policy(spec, [16, 64, 256], convention=PRICE_CAP)
    assert pol.xi_hat.total_mass() == 0.0
    adj = assemble_adjoint(spec)
    free, _ = solve_penalized(adj.backward, 256)
    np.testing.assert_allclose(pol.p.values, free.values, atol=1e-12)
    assert pol.report.all_pass


def test_extract_policy_active_cap_terminal_layer():
    # terminal value twice the cap threshold: the cap binds near T and the
    # policy charges the first backward steps
    spec = harvest_spec(alpha=0.0, beta=0.1, g0=2.0, h10=1.0, lambda0=1.0)
    pol = extract_policy(spec, [512, 1024, 2048, 4096], convention=PRICE_CAP, max_rate=0.5)
    inc = pol.xi_hat.increments
    assert inc[-1].max() > 0.0
    assert inc[: spec.n_steps // 2].max() == 0.0
    interior_band = np.abs(spec.grid.interior - 0.5) < 0.3
    last = pol.p.values[spec.n_steps - 1, 1:-1]
    np.testing.assert_allclose(last[interior_band], 1.0, atol=1e-6)
    assert pol.report.vi_residual <= 1e-6
    assert pol.report.threshold_violation_max <= 1e-12
    assert pol.report.complementarity_residual <= 1e-9


def test_extract_policy_floor_benchmark_report():
    grid = build_grid(0.0, 1.0, 60)
    spec = harvest_spec(
        grid=grid,
        alpha=0.4,
        beta=0.15,
        horizon=0.12,
        n_steps=96,
        h10=lambda t, x: 0.05 + 3.0 * np.exp(-(((x - 0.5) / 0.1) ** 2)),
        g0=2.0,
        initial=Field.from_function(grid, lambda x: np.sin(np.pi * x), "dirichlet-zero"),
    )
    pol = extract_policy(spec, [512, 1024, 2048, 4096], convention=PRICE_FLOOR, max_rate=0.9)
    assert pol.report.all_pass
    assert pol.xi_hat.total_mass() > 0.0
    assert spec.lambda0 * pol.xi_hat.increments.max() <= 0.9 + 1e-12
    # charges the interior price pocket, not the walls
    charged = np.nonzero(pol.xi_hat.increments.sum(axis=0))[0]
    assert charged.min() >= 20 and charged.max() <= 39


def test_policy_rate_divides_by_dh1_du_at_lambda0_off_one():
    # at lambda0 = 1.5, lambda0 * (h10 / lambda0) need not round back to h10:
    # the policy's coefficient must be the solver's dH1/du bit for bit
    spec = dataclasses.replace(suites.harvesting_benchmark(), lambda0=1.5)
    pol = extract_policy(spec, [512, 1024, 2048, 4096], convention=PRICE_FLOOR)
    deta = np.diff(pol.eta.values[:, 1:-1], axis=0)
    p_raw = pol.solution.y.values[:-1, 1:-1]
    coeff = np.abs([spec.singular_slope(t, p) for t, p in zip(spec.times, p_raw)])
    charged = deta > 0.0
    assert charged.any() and not pol.degenerate_coefficient
    rate = np.zeros_like(deta)
    rate[charged] = deta[charged] / coeff[charged]
    expected = SingularControl.from_increments(rate)  # the policy's cumulative sum, same order
    np.testing.assert_array_equal(pol.xi_hat.cumulative, expected.cumulative)


def test_unknown_convention_is_rejected():
    spec = harvest_spec()
    xi = SingularControl.zeros(spec.n_steps + 1, spec.grid.n_cells)
    p = _paths_of_constant(spec, 0.5)
    calls = [
        lambda: policy_adjoint(spec, "bogus"),
        lambda: extract_policy(spec, [16, 64], convention="bogus"),
        lambda: check_necessary(p, p, xi, spec, convention="bogus"),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="unknown convention 'bogus'"):
            call()


# ---------------------------------------------------------------------------
# directional derivative
# ---------------------------------------------------------------------------


def test_directional_derivative_zero_direction():
    spec = harvest_spec()
    xi = SingularControl.constant_rate(0.1, spec.times, spec.grid.n_cells)
    zeta = ControlPerturbation(np.zeros_like(xi.cumulative))
    adj = assemble_adjoint(spec, xi=xi)
    p, _ = solve_penalized(adj.backward, 1)
    cmp = directional_derivative_J(spec, xi, zeta, p, n_paths=50, seed=3)
    assert cmp.adjoint_formula == 0.0
    assert all(est == 0.0 for est, _ in cmp.finite_difference.values())


def test_directional_derivative_linear_in_direction():
    spec = harvest_spec(horizon=0.1, n_steps=40)
    rng = np.random.default_rng(5)
    xi = SingularControl.constant_rate(0.05, spec.times, spec.grid.n_cells)
    inc = rng.uniform(0.0, 0.01, (spec.n_steps, spec.grid.n_cells))
    zeta = ControlPerturbation.from_increments(inc)
    zeta2 = ControlPerturbation.from_increments(2.0 * inc)
    adj = assemble_adjoint(spec, xi=xi)
    p, _ = solve_penalized(adj.backward, 1)
    a1 = directional_derivative_J(spec, xi, zeta, p, n_paths=40, seed=9, epsilons=(1e-2,))
    a2 = directional_derivative_J(spec, xi, zeta2, p, n_paths=40, seed=9, epsilons=(1e-2,))
    assert a2.adjoint_formula == pytest.approx(2.0 * a1.adjoint_formula, rel=1e-12)


def test_directional_derivative_matches_finite_difference():
    grid = build_grid(0.0, 1.0, 60)
    spec = harvest_spec(
        grid=grid,
        op=OperatorSpec(0.5, 0.0, 0.05),
        alpha=0.5,
        beta=0.2,
        horizon=0.2,
        n_steps=200,
        initial=Field.from_function(grid, lambda x: 0.2 + np.sin(np.pi * x)),
        boundary=(0.2, 0.2),
    )
    rng = np.random.default_rng(77)
    xi = SingularControl.constant_rate(0.1, spec.times, grid.n_cells)
    zeta = ControlPerturbation.from_increments(
        rng.uniform(0.0, 1.0, (spec.n_steps, grid.n_cells)) * spec.dt * 5.0
    )
    adj = assemble_adjoint(spec, xi=xi)
    p, _ = solve_penalized(adj.backward, 1)
    cmp = directional_derivative_J(spec, xi, zeta, p, n_paths=2000, seed=4242, epsilons=(1e-3,))
    est, err = cmp.finite_difference[1e-3]
    comb = np.sqrt(cmp.adjoint_stderr**2 + err**2)
    assert abs(cmp.adjoint_formula - est) <= 3.0 * comb
