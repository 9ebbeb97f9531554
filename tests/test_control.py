import dataclasses
import warnings

import numpy as np
import pytest

from smc import suites
from smc.backward import solve_penalized, solve_reflected
from smc.control import (
    PRICE_FLOOR,
    assemble_adjoint,
    check_necessary,
    directional_derivative_J,
    extract_policy,
    performance_J,
    policy_adjoint,
)
from smc.errors import GridMismatchError, NanDetectedError, NonCauchyError
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
    out = adj.backward.driver(p)
    np.testing.assert_allclose(out, 1.0 * w * p, rtol=1e-14)
    inner = np.abs(grid.interior - 0.5) < 0.5 - spec.op.theta - grid.h
    np.testing.assert_allclose(w[inner], 1.0, atol=1e-14)


def test_adjoint_singular_coefficient_signs():
    spec = harvest_spec(h10=2.0, lambda0=1.5)
    xi = SingularControl.constant_rate(0.1, spec.times, spec.grid.n_cells)
    adj = assemble_adjoint(spec, xi=xi)
    p = np.full(spec.grid.n_cells, 0.5)
    coeff = spec.singular_slope(p)
    np.testing.assert_allclose(coeff, 2.0 - 1.5 * 0.5, rtol=1e-14)
    _, fn = adj.backward.singular
    np.testing.assert_allclose(fn(p), coeff, rtol=1e-14)


def test_singular_coefficient_is_the_solver_coefficient_and_dh1_du():
    spec = harvest_spec(h10=2.0, lambda0=1.5)
    xi = SingularControl.constant_rate(0.1, spec.times, spec.grid.n_cells)
    adj = assemble_adjoint(spec, xi=xi)
    p = np.linspace(0.25, 1.25, spec.grid.n_cells)
    p[0] = 0.5
    # H1 = gain(u) * p + h1(u) is affine in u, so its unit u-difference is dH1/du
    one, zero = np.ones_like(p), np.zeros_like(p)
    gain_step = spec.gain_values(one) - spec.gain_values(zero)
    h1_step = spec.h1_values(one) - spec.h1_values(zero)
    quotient = gain_step * p + h1_step
    np.testing.assert_array_equal(spec.singular_slope(p), quotient)
    _, fn = adj.backward.singular
    np.testing.assert_array_equal(fn(p), quotient)
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
    spec = harvest_spec(h10=0.5)
    xi = SingularControl.zeros(spec.n_steps + 1, spec.grid.n_cells)
    p = _paths_of_constant(spec, 2.0)  # above the floor threshold 0.5
    rep = check_necessary(p, xi, spec)
    assert rep.threshold_violation_max == 0.0
    assert rep.complementarity_residual == 0.0
    assert rep.vi_residual == 0.0
    assert rep.all_pass


def test_check_necessary_constructed_violation():
    spec = harvest_spec(h10=1.0, lambda0=1.0)
    xi = SingularControl.zeros(spec.n_steps + 1, spec.grid.n_cells)
    vals = np.full((spec.n_steps + 1, spec.grid.n_total), 2.0)
    vals[5, 7] = 1.0 / 1.0 - 0.1  # one node below the floor threshold
    p = FieldPath(spec.grid, spec.times, vals)
    rep = check_necessary(p, xi, spec)
    assert rep.threshold_violation_max == pytest.approx(0.1, rel=1e-12)
    assert rep.complementarity_residual == 0.0
    assert not rep.threshold_pass
    assert rep.complementarity_pass


def test_check_necessary_floor_slack_counts_an_adjoint_below_the_price():
    spec = harvest_spec(h10=1.0, lambda0=1.0)
    xi = SingularControl.zeros(spec.n_steps + 1, spec.grid.n_cells)
    p = _paths_of_constant(spec, 0.5)
    rep = check_necessary(p, xi, spec)
    # slack h10 - lambda0 p = 0.5 > 0: a violation of the floor
    assert rep.threshold_violation_max == pytest.approx(0.5, rel=1e-12)
    assert not rep.threshold_pass


def test_check_necessary_keeps_a_nan_at_a_later_step():
    # p on the threshold makes every slack 0, so only the NaN can fail the report; folded
    # step by step with Python's max, it fell out and the report passed
    spec = harvest_spec(h10=1.0, lambda0=1.0)
    xi = SingularControl.zeros(spec.n_steps + 1, spec.grid.n_cells)
    vals = np.full((spec.n_steps + 1, spec.grid.n_total), 1.0)
    vals[40, 7] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_necessary(FieldPath(spec.grid, spec.times, vals), xi, spec)
    assert np.isnan(rep.threshold_violation_max) and np.isnan(rep.vi_residual)
    assert not rep.threshold_pass and not rep.vi_pass and not rep.all_pass


def test_check_necessary_rejects_an_adjoint_path_of_another_time_grid():
    # a 48-row p against a 96-step control ended in a bare numpy broadcast ValueError
    spec = harvest_spec(n_steps=96)
    xi = SingularControl.zeros(spec.n_steps + 1, spec.grid.n_cells)
    short = harvest_spec(n_steps=47)
    with pytest.raises(GridMismatchError, match=r"adjoint path shape \(48, 42\)"):
        check_necessary(_paths_of_constant(short, 2.0), xi, spec)


def test_check_necessary_rejects_a_control_of_another_grid():
    spec = harvest_spec()
    xi = SingularControl.zeros(spec.n_steps + 1, spec.grid.n_cells - 1)
    with pytest.raises(GridMismatchError, match="control shape"):
        check_necessary(_paths_of_constant(spec, 2.0), xi, spec)


# ---------------------------------------------------------------------------
# policy extraction
# ---------------------------------------------------------------------------


def test_extract_policy_inactive_floor():
    # the heat flow from terminal 1 keeps p above 0.036 at every interior node before T
    spec = harvest_spec(alpha=0.0, beta=0.1, g0=1.0, h10=0.01, lambda0=1.0)
    pol = extract_policy(spec, [16, 64, 256], max_rate=0.9)
    assert pol.xi_hat.cumulative[-1].sum() == 0.0
    adj = assemble_adjoint(spec)
    free, _ = solve_penalized(adj.backward, 256)
    np.testing.assert_allclose(pol.p.values, free.values, atol=1e-12)
    assert pol.report.all_pass


def test_extract_policy_active_floor_terminal_layer():
    # terminal value below the floor on the price pocket: the floor binds near T, the term
    # alpha w p lifts the adjoint off it further back, and the policy charges the last steps
    spec = harvest_spec(alpha=10.0, beta=0.1, g0=0.5, lambda0=1.0,
                        h10=lambda x: 0.01 + np.exp(-(((x - 0.5) / 0.2) ** 2)))
    pol = extract_policy(spec, [512, 1024, 2048, 4096], max_rate=0.5)
    inc = pol.xi_hat.increments
    assert inc[-1].max() > 0.0
    assert inc[: spec.n_steps // 2].max() == 0.0
    interior_band = np.abs(spec.grid.interior - 0.5) < 0.15
    last = pol.p.values[spec.n_steps - 1, 1:-1]
    np.testing.assert_allclose(last[interior_band], spec.h10[1:-1][interior_band], atol=1e-6)
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
        h10=lambda x: 0.05 + 3.0 * np.exp(-(((x - 0.5) / 0.1) ** 2)),
        g0=2.0,
        initial=Field.from_function(grid, lambda x: np.sin(np.pi * x), "dirichlet-zero"),
    )
    pol = extract_policy(spec, [512, 1024, 2048, 4096], max_rate=0.9)
    assert pol.report.all_pass
    assert pol.xi_hat.cumulative[-1].sum() > 0.0
    assert spec.lambda0 * pol.xi_hat.increments.max() <= 0.9 + 1e-12
    # charges the interior price pocket, not the walls
    charged = np.nonzero(pol.xi_hat.increments.sum(axis=0))[0]
    assert charged.min() >= 20 and charged.max() <= 39


def test_policy_rate_divides_by_dh1_du_at_lambda0_off_one():
    # the oracle is the former rule, reflection increment over |dH1/du| capped at
    # max_rate / lambda0, step by step: on a charged cell the quotient is dt n_top / lambda0,
    # far above the cap at these levels, so charging the cap on the contact set keeps every bit
    spec = dataclasses.replace(suites.harvesting_benchmark(), lambda0=1.5)
    max_rate = 0.9
    pol = extract_policy(spec, [512, 1024, 2048, 4096], max_rate=max_rate)
    eta, p_raw = pol.solution.eta.values, pol.solution.y.values
    rates, p_clipped = [], p_raw.copy()
    for k in range(spec.n_steps):
        deta = eta[k + 1, 1:-1] - eta[k, 1:-1]
        coeff = np.abs(spec.singular_slope(p_raw[k, 1:-1]))
        charged = deta > 0.0
        rate = np.zeros_like(deta)
        rate[charged] = deta[charged] / coeff[charged]
        rates.append(np.minimum(rate, max_rate / spec.lambda0))
        p_clipped[k, 1:-1] = np.maximum(p_raw[k, 1:-1], spec.h10[1:-1] / spec.lambda0)
    expected = SingularControl.from_increments(np.array(rates))  # the same cumulative sum
    assert expected.cumulative[-1].sum() > 0.0
    np.testing.assert_array_equal(pol.xi_hat.cumulative, expected.cumulative)
    np.testing.assert_array_equal(pol.p.values, p_clipped)
    assert not np.array_equal(pol.p.values, p_raw)  # the clip binds somewhere


def test_extract_policy_charges_the_cap_on_the_contact_set_at_low_levels():
    # at levels [4, 8], dt n_top / lambda0 lies below the cap: the former quotient charged
    # less there, the contact-set rule charges max_rate / lambda0 wherever deta > 0
    spec = dataclasses.replace(suites.harvesting_benchmark(), lambda0=1.5)
    max_rate = 0.9
    pol = extract_policy(spec, [4, 8], max_rate=max_rate)
    deta = np.diff(pol.solution.eta.values[:, 1:-1], axis=0)
    contact = deta > 0.0
    assert 0 < contact.sum() < contact.size
    cap = max_rate / spec.lambda0
    expected = SingularControl.from_increments(np.where(contact, cap, 0.0))
    np.testing.assert_array_equal(pol.xi_hat.cumulative, expected.cumulative)
    assert spec.dt * 8 / spec.lambda0 < cap  # the regime where the two rules part


@pytest.mark.parametrize("max_rate", [0.0, 1.0, 1.5, float("nan")])
def test_extract_policy_rejects_a_rate_outside_the_unit_interval(max_rate):
    spec = harvest_spec()
    with pytest.raises(ValueError, match=r"max_rate must lie in \(0, 1\)"):
        extract_policy(spec, [16, 64], max_rate=max_rate)


def test_extract_policy_requires_max_rate():
    with pytest.raises(TypeError, match="max_rate"):
        extract_policy(harvest_spec(), [16, 64])


def test_overflowing_backward_solves_are_typed_and_warn_nothing():
    adjoint = assemble_adjoint(harvest_spec(alpha=1e308)).backward  # the driver overflows
    reflected = policy_adjoint(harvest_spec(h10=1e306)).backward  # finite levels
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NanDetectedError, match="non-finite solution at step"):
            solve_penalized(adjoint, 4)
        with pytest.raises(NonCauchyError, match=r"gaps are not finite: \[inf\]"):
            solve_reflected(reflected, [4, 8])


def test_necessary_conditions_of_an_overflowing_adjoint_fail_without_a_warning():
    spec = harvest_spec(lambda0=2.0)
    xi = SingularControl.constant_rate(0.1, spec.times, spec.grid.n_cells)
    p = _paths_of_constant(spec, -1e308)  # lambda0 * p overflows to -inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rep = check_necessary(p, xi, spec)
    assert rep.threshold_violation_max == np.inf and not rep.all_pass


def test_policy_optimality_fails_a_nan_residual_that_is_not_the_first(monkeypatch):
    # lambda0 = 1e308 on the benchmark: the complementarity residual is NaN, the others 0.0,
    # so Python's max over the three reads 0.0 while the report fails
    spec, policy = suites.benchmark_policy()
    report = extract_policy(dataclasses.replace(spec, lambda0=1e308), [4, 8], max_rate=0.9).report
    assert np.isnan(report.complementarity_residual) and not report.all_pass
    assert max(report.threshold_violation_max, report.complementarity_residual) == 0.0
    nan_policy = dataclasses.replace(policy, report=report)
    monkeypatch.setattr(suites, "benchmark_policy", lambda: (spec, nan_policy))
    result = suites.check_policy_optimality(n_paths=256)
    assert result.value > 3.0  # the Monte Carlo margins pass: the residuals alone fail it
    assert not result.passed and "residuals <= nan" in result.detail


def test_unknown_convention_is_rejected():
    # price-floor is the one threshold side; the keyword stays for callers that name it
    spec = harvest_spec()
    with pytest.raises(ValueError, match="unknown convention 'price-cap'"):
        extract_policy(spec, [16, 64], convention="price-cap", max_rate=0.9)
    assert extract_policy(spec, [16, 64], convention=PRICE_FLOOR, max_rate=0.9).report.all_pass


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


@pytest.mark.parametrize("rows", [21, 81])
def test_directional_derivative_rejects_an_adjoint_path_of_another_time_grid(rows):
    # a longer path was read row by row as if it were the spec's (a wrong value, no error);
    # a shorter one ended in an IndexError inside a Monte Carlo worker
    spec = harvest_spec(horizon=0.1, n_steps=40)
    xi = SingularControl.constant_rate(0.05, spec.times, spec.grid.n_cells)
    zeta = ControlPerturbation.from_increments(np.full((spec.n_steps, spec.grid.n_cells), 1e-3))
    p = _paths_of_constant(harvest_spec(horizon=0.1, n_steps=rows - 1), 1.0)
    with pytest.raises(GridMismatchError, match=rf"adjoint path shape \({rows}, 42\)"):
        directional_derivative_J(spec, xi, zeta, p, n_paths=4, seed=1, epsilons=(1e-2,))
