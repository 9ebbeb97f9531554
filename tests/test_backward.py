import dataclasses
import json
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smc import backward, psor, suites
from smc.backward import (
    BackwardSpec,
    penalization_rate,
    skorokhod_residual,
    solve_penalized,
    solve_reflected,
)
from smc import operators
from smc.cli import main
from smc.control import assemble_adjoint, policy_adjoint
from smc.errors import (
    DegenerateFitError,
    GridMismatchError,
    NanDetectedError,
    NoConvergenceError,
    SingularSystemError,
    ToolkitError,
)
from smc.forward import ProblemSpec, SingularControl
from smc.grid import Field, FieldPath, build_grid
from smc.operators import OperatorSpec
from smc.psor import solve_obstacle_psor

OP = OperatorSpec(second_order=0.5, first_order=0.0, theta=0.1)


def sine_terminal(grid):
    return Field.from_function(grid, lambda x: np.sin(np.pi * x), "dirichlet-zero")


def active_spec(n_cells=100, n_steps=400, horizon=0.5):
    grid = build_grid(0.0, 1.0, n_cells)
    return BackwardSpec(
        grid=grid,
        op=OP,
        horizon=horizon,
        n_steps=n_steps,
        terminal=sine_terminal(grid),
        obstacle=0.6 * np.sin(np.pi * grid.interior),
        reflection_side="lower",
    )


def inactive_spec(n_cells=60, n_steps=100, horizon=0.1):
    grid = build_grid(0.0, 1.0, n_cells)
    return BackwardSpec(
        grid=grid,
        op=OP,
        horizon=horizon,
        n_steps=n_steps,
        terminal=sine_terminal(grid),
        obstacle=np.full(grid.n_cells, -1e9),
        reflection_side="lower",
    )


def mode_decay_rate(grid):
    """Discrete eigenvalue of -(1/2) d2/dx2 on the first sine mode."""
    return (1.0 - np.cos(np.pi * grid.h)) / grid.h**2


def single_mode_vi_oracle(spec):
    """Exact discrete VI solution for terminal sin, obstacle 0.6 sin.

    Everything stays proportional to the sine mode, so the implicit-step
    complementarity problem reduces to c_k = max(0.6, c_{k+1}/(1 + dt mu)).
    """
    mu = mode_decay_rate(spec.grid)
    c = np.empty(spec.n_steps + 1)
    c[-1] = 1.0
    for k in range(spec.n_steps - 1, -1, -1):
        c[k] = max(0.6, c[k + 1] / (1.0 + spec.dt * mu))
    return c[:, None] * np.sin(np.pi * spec.grid.nodes)[None, :]


# ---------------------------------------------------------------------------
# unreflected and inactive-obstacle solves
# ---------------------------------------------------------------------------


def test_unreflected_heat_decay():
    grid = build_grid(0.0, 1.0, 200)
    spec = BackwardSpec(
        grid=grid,
        op=OP,
        horizon=0.1,
        n_steps=4000,
        terminal=sine_terminal(grid),
        time_scheme="crank-nicolson",
    )
    y, z = solve_penalized(spec, 1)
    expected = np.exp(-np.pi**2 * 0.1 / 2.0) * np.sin(np.pi * grid.nodes)
    assert np.max(np.abs(y.values[0] - expected)) <= 2e-3
    assert np.all(z.values == 0.0)


DRIFT_OP = OperatorSpec(second_order=0.5, first_order=1.0, theta=0.1)


def test_a_backward_step_solves_with_the_adjoint_generator():
    # with a drift, A* differs from A: one unconstrained step is the dense solve with A*
    grid = build_grid(0.0, 1.0, 40)
    terminal = Field.from_interior(grid, np.random.default_rng(3).standard_normal(grid.n_cells))
    spec = BackwardSpec(grid=grid, op=DRIFT_OP, horizon=0.01, n_steps=1, terminal=terminal)
    step = np.eye(grid.n_cells) - spec.dt * operators.operator_matrix(DRIFT_OP, grid, adjoint=True)
    expected = np.linalg.solve(step, terminal.interior)
    y, _ = solve_penalized(spec, 1)
    np.testing.assert_allclose(y.values[0, 1:-1], expected, rtol=1e-12, atol=0.0)


@settings(max_examples=30)
@given(second_order=st.floats(0.0, 1e3), n_cells=st.integers(2, 200), width=st.floats(0.1, 10.0))
def test_adjoint_bands_are_the_direct_bands_without_a_drift(second_order, n_cells, width):
    # constant a and b = 0: A* is A bit for bit, so on such an operator a backward solve,
    # PSOR too, gives the bits of stepping A
    grid = build_grid(0.0, width, n_cells)
    op = OperatorSpec(second_order=second_order, first_order=0.0, theta=0.05)
    direct = operators.operator_tridiagonal(op, grid)
    adjoint = operators.operator_tridiagonal(op, grid, adjoint=True)
    assert [band.tobytes() for band in adjoint] == [band.tobytes() for band in direct]


def test_backward_euler_is_not_a_time_scheme():
    # the implicit step has one name, the forward one
    grid = build_grid(0.0, 1.0, 10)
    kw = dict(grid=grid, op=OP, horizon=0.1, n_steps=4, terminal=sine_terminal(grid))
    assert BackwardSpec(**kw).time_scheme == "implicit"
    with pytest.raises(ValueError, match="unknown time scheme 'backward-euler'"):
        BackwardSpec(time_scheme="backward-euler", **kw)


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_penalized_solve_holds_one_path_and_z_is_a_read_only_zero_view(side):
    # Y is signed in place and Z is a view of one +0.0, so the traced peak is the one path
    # returned
    grid = build_grid(0.0, 1.0, 201)
    spec = BackwardSpec(
        grid=grid,
        op=OP,
        horizon=0.1,
        n_steps=2000,
        terminal=sine_terminal(grid),
        time_scheme="crank-nicolson",
        reflection_side=side,
    )
    path_bytes = (spec.n_steps + 1) * grid.n_total * 8
    tracemalloc.start()
    try:
        y, z = solve_penalized(spec, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * path_bytes, peak / path_bytes
    assert z.values.shape == y.values.shape
    assert not z.values.flags.writeable
    assert np.all(z.values == 0.0) and not np.signbit(z.values).any()


def test_zero_terminal_above_obstacle_stays_zero():
    grid = build_grid(0.0, 1.0, 40)
    spec = BackwardSpec(
        grid=grid,
        op=OP,
        horizon=0.2,
        n_steps=50,
        terminal=Field.zeros(grid),
        obstacle=np.full(grid.n_cells, -1.0),
    )
    y, _ = solve_penalized(spec, 64)
    assert np.max(np.abs(y.values)) == 0.0


def test_reflected_levels_same_bytes_on_two_workers(monkeypatch):
    spec = suites.active_obstacle_spec()
    runs, studies = [], []
    for workers in ("1", "2"):
        monkeypatch.setenv("SMC_WORKERS", workers)
        runs.append(solve_reflected(spec, [1024, 4096, 16384]))
        studies.append(penalization_rate(spec, [4, 8, 16, 32, 64, 128, 256]))  # criterion 01
    serial, parallel = runs
    assert parallel.y.values.tobytes() == serial.y.values.tobytes()
    assert parallel.eta.values.tobytes() == serial.eta.values.tobytes()
    assert parallel.diagnostics == serial.diagnostics
    assert repr(studies[1]) == repr(studies[0])


def test_stalled_level_error_crosses_from_workers_unchanged(monkeypatch):
    # levels run in the calling process, so the worker setting moves no message
    spec = suites.active_obstacle_spec(30, 40)
    monkeypatch.setattr(backward, "_MAX_FIXED_POINT_ITERS", 1)
    messages = []
    for workers in ("1", "2"):
        monkeypatch.setenv("SMC_WORKERS", workers)
        with pytest.raises(NoConvergenceError) as err:
            solve_reflected(spec, [16, 64])
        messages.append(str(err.value))
    assert messages[1] == messages[0]


def test_levels_are_solved_in_the_calling_process(monkeypatch):
    # a worker process would append to its own copy of the list, which the caller never sees
    pids = []

    def driver(t, x, y):
        pids.append(os.getpid())
        return np.zeros_like(y)

    spec = dataclasses.replace(active_spec(n_cells=20, n_steps=20), driver=driver)
    monkeypatch.setenv("SMC_WORKERS", "2")
    solve_reflected(spec, [4, 16, 64])
    penalization_rate(spec, [4, 8, 16, 32])
    assert pids and set(pids) == {os.getpid()}


def test_reflected_solve_holds_two_levels_at_most(monkeypatch):
    # each Cauchy gap is taken as soon as its upper level is solved (about 5 path sizes); a
    # sweep that kept all four levels peaked at 9.0, and up to 9.5 when workers sent them back
    spec = suites.active_obstacle_spec(200, 800)
    path_bytes = (spec.n_steps + 1) * spec.grid.n_total * 8
    monkeypatch.setenv("SMC_WORKERS", "2")
    tracemalloc.start()
    try:
        solve_reflected(spec, [64, 256, 1024, 4096])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 6 * path_bytes, peak / path_bytes


def test_terminal_stored_exactly():
    spec = active_spec(n_cells=30, n_steps=40)
    y, _ = solve_penalized(spec, 16)
    np.testing.assert_array_equal(y.values[-1], spec.terminal.values)


def test_inactive_obstacle_levels_identical_eta_zero():
    spec = inactive_spec()
    sol = solve_reflected(spec, [4, 16, 64])
    assert np.all(sol.eta.values == 0.0)
    assert sol.diagnostics.skorokhod_residual == 0.0
    y4, _ = solve_penalized(spec, 4)
    np.testing.assert_array_equal(sol.y.values, y4.values)


def test_reflected_deterministic_bitwise():
    spec = active_spec(n_cells=40, n_steps=80)
    a = solve_reflected(spec, [4, 8, 16])
    b = solve_reflected(spec, [4, 8, 16])
    np.testing.assert_array_equal(a.y.values, b.y.values)
    np.testing.assert_array_equal(a.eta.values, b.eta.values)
    assert a.diagnostics == b.diagnostics


def _singular_bands(monkeypatch, dt):
    """Make every implicit step matrix I - dt A the zero matrix (dt a power of two)."""

    def bands(op, grid, adjoint=False):
        zero = np.zeros(grid.n_cells)
        return zero, np.full(grid.n_cells, 1.0 / dt), zero

    monkeypatch.setattr(operators, "operator_tridiagonal", bands)


def test_singular_step_is_typed_error_and_exit_1(monkeypatch, tmp_path, capsys):
    spec = active_spec(n_cells=20, n_steps=4, horizon=0.5)
    _singular_bands(monkeypatch, spec.dt)
    with pytest.raises(ToolkitError) as err:
        solve_penalized(spec, 8)
    assert isinstance(err.value, SingularSystemError)
    assert not isinstance(err.value, (np.linalg.LinAlgError, ValueError))

    config = tmp_path / "run.json"
    config.write_text(json.dumps({
        "schema_version": 1,
        "problem": {
            "grid": {"x_min": 0.0, "x_max": 1.0, "n_cells": 20},
            "operator": {"second_order": 0.5, "first_order": 0.0, "theta": 0.1},
            "time": {"horizon": 0.5, "n_steps": 4},
            "model": {"alpha": 0.2, "beta": 0.1, "lambda0": 1.0},
            "modes": {"stepping": "implicit"},
            "prices": {"h10": 1.0, "g0": 1.0},
        },
        "backward": {"levels": [4, 8]},
        "outputs": {"directory": str(tmp_path / "out")},
    }))
    assert main(["adjoint", "--config", str(config)]) == 1
    assert capsys.readouterr().err == "error: implicit step matrix is singular (zero pivot 1)\n"


def test_non_finite_driver_is_typed_error():
    base = active_spec(n_cells=20, n_steps=10)
    spec = BackwardSpec(
        grid=base.grid,
        op=OP,
        horizon=base.horizon,
        n_steps=base.n_steps,
        terminal=base.terminal,
        obstacle=base.obstacle,
        driver=lambda t, x, y: np.full_like(y, np.nan),
    )
    with pytest.raises(NanDetectedError) as err:
        solve_penalized(spec, 8)
    assert err.value.step == spec.n_steps - 1


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_a_terminal_value_past_the_obstacle_is_taken_as_given(side):
    # the terminal sine sits 0.02 past the obstacle 1.02 sine: PSOR projects it at the first
    # step, the penalized ladder pulls it across, and the two agree at criterion 06's bound
    base = suites.active_obstacle_spec(n_cells=50, n_steps=200)
    sign = 1.0 if side == "lower" else -1.0
    spec = dataclasses.replace(
        base,
        terminal=Field(base.grid, sign * base.terminal.values, "dirichlet-zero"),
        obstacle=sign * 1.02 * np.sin(np.pi * base.grid.interior),
        reflection_side=side,
    )
    assert np.min(sign * (spec.terminal.interior - spec.obstacle)) < -0.019
    oracle = solve_obstacle_psor(spec.grid, spec.op, spec.terminal, spec.obstacle,
                                 spec.horizon, spec.n_steps, side=side)
    sol = solve_reflected(spec, [1024, 2048, 4096, 8192])
    assert np.max(np.abs(sol.y.values - oracle.values)) <= 5e-3


def test_obstacle_is_one_interior_array():
    grid = build_grid(0.0, 1.0, 30)
    kw = dict(grid=grid, op=OP, horizon=0.1, n_steps=10, terminal=sine_terminal(grid))
    spec = BackwardSpec(obstacle=[0.0] * grid.n_cells, **kw)
    assert spec.obstacle.dtype == float and spec.obstacle.shape == (grid.n_cells,)
    with pytest.raises(GridMismatchError, match=r"obstacle shape \(32,\) != \(30,\)"):
        BackwardSpec(obstacle=np.zeros(grid.n_total), **kw)  # every node, not the interior


# ---------------------------------------------------------------------------
# active obstacle: oracle agreement
# ---------------------------------------------------------------------------


def test_active_benchmark_against_psor_and_closed_form():
    spec = active_spec(n_cells=50, n_steps=200)
    psor = solve_obstacle_psor(
        spec.grid,
        spec.op,
        spec.terminal,
        spec.obstacle,
        spec.horizon,
        spec.n_steps,
        side="lower",
    )
    oracle = single_mode_vi_oracle(spec)
    assert np.max(np.abs(psor.values - oracle)) <= 1e-9

    sol = solve_reflected(spec, [256, 512, 1024, 2048])
    err = np.max(np.abs(sol.y.values - psor.values))
    assert err <= 5e-3
    # penalized solution sits below the constraint by about |A L| / n
    mu = mode_decay_rate(spec.grid)
    predicted = 0.6 * mu / (2048 + mu)
    assert err == pytest.approx(predicted, rel=0.15)


def test_penalized_error_against_psor_halves_per_level_doubling():
    # criterion 06's spec; the penalty method's O(1/n) rate (Forsyth and Vetzal, 2002)
    spec = suites.active_obstacle_spec(n_cells=50, n_steps=200)
    psor = solve_obstacle_psor(
        spec.grid, spec.op, spec.terminal, spec.obstacle, spec.horizon, spec.n_steps
    )
    gaps = [np.max(np.abs(solve_penalized(spec, n)[0].values - psor.values))
            for n in (1024, 2048, 4096)]
    ratios = [coarse / fine for coarse, fine in zip(gaps, gaps[1:])]
    assert all(1.9 <= ratio <= 2.1 for ratio in ratios), ratios


def test_psor_checks_a_drifted_adjoint_at_criterion_06_bound():
    # the policy adjoint on criterion 06's 50 x 200 grid, with a drift and alpha = 0 (so no
    # driver): PSOR and the penalized ladder step the same A*.  A PSOR that stepped A would
    # differ by 0.152 here, so the bound tells the two generators apart.
    grid = build_grid(0.0, 1.0, 50)
    problem = ProblemSpec(
        grid=grid, op=DRIFT_OP, horizon=0.5, n_steps=200, alpha=0.0,
        h10=lambda x: 1e-3 + 0.6 * np.sin(np.pi * x), g0=lambda x: 1e-3 + np.sin(np.pi * x),
    )
    spec = policy_adjoint(problem).backward
    oracle = solve_obstacle_psor(spec.grid, spec.op, spec.terminal, spec.obstacle,
                                 spec.horizon, spec.n_steps, side=spec.reflection_side)
    sol = solve_reflected(spec, [256, 512, 1024, 2048])
    assert np.max(np.abs(sol.y.values - oracle.values)) <= 5e-3


def test_penalized_violation_scales_inversely_with_level():
    spec = active_spec(n_cells=40, n_steps=100)
    mu = mode_decay_rate(spec.grid)
    for n in (32, 128):
        y, _ = solve_penalized(spec, n)
        barrier = 0.6 * np.sin(np.pi * spec.grid.nodes)[None, 1:-1]
        violation = np.maximum(barrier - y.values[:, 1:-1], 0.0)
        assert violation.max() == pytest.approx(0.6 * mu / (n + mu), rel=0.05)


def test_min_gap_diagnostic_matches_violation():
    spec = active_spec(n_cells=40, n_steps=100)
    sol = solve_reflected(spec, [64])
    assert sol.diagnostics.min_gap < 0.0
    mu = mode_decay_rate(spec.grid)
    assert -sol.diagnostics.min_gap == pytest.approx(0.6 * mu / (64 + mu), rel=0.05)


def test_cauchy_gap_decay_factor():
    spec = active_spec(n_cells=50, n_steps=200)
    sol = solve_reflected(spec, [16, 32, 64, 128, 256])
    gaps = sol.diagnostics.cauchy_gaps
    for g_prev, g_next in zip(gaps, gaps[1:]):
        assert g_prev / g_next >= 1.5


def test_eta_monotone_and_starts_at_zero():
    spec = active_spec(n_cells=40, n_steps=100)
    sol = solve_reflected(spec, [16, 64])
    eta = sol.eta.values
    assert np.all(eta[0] == 0.0)
    assert np.all(np.diff(eta, axis=0) >= 0.0)
    assert eta[-1, 1:-1].max() > 0.0


def test_negation_duality_bitwise():
    grid = build_grid(0.0, 1.0, 35)
    lower = BackwardSpec(
        grid=grid,
        op=OP,
        horizon=0.3,
        n_steps=60,
        terminal=sine_terminal(grid),
        obstacle=0.6 * np.sin(np.pi * grid.interior),
        reflection_side="lower",
    )
    neg_terminal = Field(grid, -sine_terminal(grid).values, "dirichlet-zero")
    upper = BackwardSpec(
        grid=grid,
        op=OP,
        horizon=0.3,
        n_steps=60,
        terminal=neg_terminal,
        obstacle=-0.6 * np.sin(np.pi * grid.interior),
        reflection_side="upper",
    )
    sol_lower = solve_reflected(lower, [8, 32])
    sol_upper = solve_reflected(upper, [8, 32])
    np.testing.assert_array_equal(sol_upper.y.values, -sol_lower.y.values)
    np.testing.assert_array_equal(sol_upper.eta.values, sol_lower.eta.values)


@np.errstate(over="ignore", invalid="ignore")
def _reference_penalized_values(spec, n):
    """solve_penalized's Y as first written: fresh vectors per iterate and a mask per test.

    The side's sign is applied to the data inline; no obstacle is a barrier at -inf.
    """
    sign = 1.0 if spec.reflection_side == "lower" else -1.0
    grid, dt, times, x_int = spec.grid, spec.dt, spec.times, spec.grid.interior
    crank = spec.time_scheme == "crank-nicolson"
    lo_a, di_a, up_a = operators.operator_tridiagonal(spec.op, grid, adjoint=True)
    implicit_dt = (0.5 if crank else 1.0) * dt
    stepper = operators.TridiagonalStepper(spec.op, grid, implicit_dt, adjoint=True)

    def explicit_half(y_int):
        out = di_a * y_int
        out[1:] += lo_a[1:] * y_int[:-1]
        out[:-1] += up_a[:-1] * y_int[1:]
        return 0.5 * dt * out

    xi_inc = spec.singular[0].increments if spec.singular is not None else None
    depends_on_y = spec.driver is not None or spec.singular is not None
    barrier = np.full(grid.n_cells, -np.inf) if spec.obstacle is None else sign * spec.obstacle
    values = np.zeros((spec.n_steps + 1, grid.n_total))
    values[-1] = sign * spec.terminal.values
    for k in range(spec.n_steps - 1, -1, -1):
        t = times[k]
        y = y_prev_int = values[k + 1, 1:-1]
        known = y_prev_int + explicit_half(y_prev_int) if crank else y_prev_int
        active = y < barrier
        for _ in range(backward._MAX_FIXED_POINT_ITERS):
            rhs = known.copy()
            if spec.driver is not None:
                rhs += dt * (sign * np.asarray(spec.driver(t, x_int, sign * y), dtype=float))
            if xi_inc is not None:
                coefficient = np.asarray(spec.singular[1](t, x_int, sign * y), dtype=float)
                rhs += sign * coefficient * xi_inc[k]
            if active.any():
                rhs += dt * n * np.where(active, barrier, 0.0)
                y_new = stepper.solve(rhs, dt * n * active)
            else:
                y_new = stepper.solve_in_place(rhs)
            assert np.all(np.isfinite(y_new))
            active_new = y_new < barrier
            stable = np.array_equal(active_new, active)
            close = not depends_on_y or np.max(np.abs(y_new - y)) <= 1e-12 * max(
                1.0, float(np.max(np.abs(y_new)))
            )
            y = y_new
            active = active_new
            if stable and close:
                break
        values[k, 1:-1] = y
    return values * sign


def _reference_cases():
    grid = build_grid(0.0, 1.0, 30)
    sine = sine_terminal(grid).values

    def spec(side, terminal=sine, **kw):
        sign = 1.0 if side == "lower" else -1.0
        if "obstacle" in kw:
            kw["obstacle"] = sign * kw["obstacle"]
        return BackwardSpec(grid=grid, op=OP, horizon=0.3, n_steps=40, reflection_side=side,
                            terminal=Field(grid, sign * terminal, "dirichlet-zero"), **kw)

    def driver(t, x, y):
        return 0.8 * np.sin(3.0 * y) + x

    floor = 0.6 * np.sin(np.pi * grid.interior)
    harvest = suites.harvesting_benchmark()
    return {
        "unconstrained": lambda side: (spec(side), 1),
        "crank-nicolson": lambda side: (spec(side, time_scheme="crank-nicolson"), 1),
        "driver": lambda side: (spec(side, driver=driver), 1),
        "obstacle-1": lambda side: (spec(side, obstacle=floor), 1),
        "obstacle-4096": lambda side: (spec(side, obstacle=floor), 4096),
        "obstacle-driver": lambda side: (spec(side, obstacle=floor, driver=driver), 64),
        "policy": lambda side: (
            dataclasses.replace(policy_adjoint(harvest).backward, reflection_side=side),
            512,
        ),
        "adjoint": lambda side: (
            dataclasses.replace(
                assemble_adjoint(harvest, SingularControl.constant_rate(
                    0.1, harvest.times, harvest.grid.n_cells)).backward,
                reflection_side=side,
            ),
            1,
        ),
    }


@pytest.mark.parametrize("side", ["lower", "upper"])
@pytest.mark.parametrize("case", list(_reference_cases()))
def test_penalized_solve_matches_reference_loop_bitwise(case, side):
    spec, n = _reference_cases()[case](side)
    assert spec.reflection_side == side
    y, _ = solve_penalized(spec, n)
    assert y.values.tobytes() == _reference_penalized_values(spec, n).tobytes()


def _reference_psor_lcp(lower, diag, upper, rhs, obstacle, y0):
    """psor_lcp as first written: every gather and neighbour index taken in the sweep."""
    n = diag.size
    y = np.maximum(y0.copy(), obstacle)
    red, black = np.arange(0, n, 2), np.arange(1, n, 2)

    def neighbor_sum(idx):
        left = np.where(idx > 0, lower[idx] * y[np.maximum(idx - 1, 0)], 0.0)
        right = np.where(idx < n - 1, upper[idx] * y[np.minimum(idx + 1, n - 1)], 0.0)
        return left + right

    for _ in range(100_000):
        delta = 0.0
        for idx in (red, black):
            resid = rhs[idx] - neighbor_sum(idx) - diag[idx] * y[idx]
            y_new = np.maximum(obstacle[idx], y[idx] + 1.5 * resid / diag[idx])
            delta = max(delta, float(np.max(np.abs(y_new - y[idx]), initial=0.0)))
            y[idx] = y_new
        if delta <= 1e-13 * max(1.0, float(np.max(np.abs(y)))):
            return y
    raise AssertionError("reference PSOR did not converge")


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_psor_matches_reference_sweep_bitwise(monkeypatch, side):
    spec = suites.active_obstacle_spec(n_cells=50, n_steps=200)  # criterion 06
    sign = 1.0 if side == "lower" else -1.0
    terminal = Field(spec.grid, sign * spec.terminal.values, "dirichlet-zero")
    args = (spec.grid, spec.op, terminal, sign * spec.obstacle,
            spec.horizon, spec.n_steps, side)
    got = solve_obstacle_psor(*args)
    monkeypatch.setattr(psor, "psor_lcp", _reference_psor_lcp)
    assert got.values.tobytes() == solve_obstacle_psor(*args).values.tobytes()


def test_psor_names_the_step_of_a_non_finite_iterate():
    # one NaN terminal node: the sweeps used to read its change as 0 and stop at once
    spec = suites.active_obstacle_spec(20, 5)
    values = spec.terminal.values.copy()
    values[10] = np.nan
    terminal = Field(spec.grid, values, "dirichlet-zero")
    args = (spec.grid, spec.op, terminal, spec.obstacle, spec.horizon, spec.n_steps)
    with pytest.raises(NanDetectedError, match="non-finite solution at step 4") as err:
        solve_obstacle_psor(*args)
    assert err.value.step == spec.n_steps - 1
    with pytest.raises(NanDetectedError, match="non-finite projected-SOR iterate"):
        psor.psor_lcp(*(np.ones(20),) * 3, values[1:-1], spec.obstacle, values[1:-1])


@pytest.mark.parametrize("side", ["lower", "upper"])
def test_unconstrained_solve_is_never_penalized(side):
    # a finite node at -1e301: the plain unpenalized steps of the lower-side data, signed back
    grid = build_grid(0.0, 1.0, 30)
    sign = 1.0 if side == "lower" else -1.0
    terminal = sine_terminal(grid).values
    terminal[7] = -1e301
    spec = BackwardSpec(grid=grid, op=OP, horizon=0.3, n_steps=40, reflection_side=side,
                        terminal=Field(grid, sign * terminal, "dirichlet-zero"))
    stepper = operators.TridiagonalStepper(spec.op, grid, spec.dt, adjoint=True)
    plain = np.zeros((spec.n_steps + 1, grid.n_total))
    plain[-1] = terminal
    for k in range(spec.n_steps - 1, -1, -1):
        plain[k, 1:-1] = stepper.solve_in_place(plain[k + 1, 1:-1].copy())
    y, _ = solve_penalized(spec, 8)
    assert np.all(np.isfinite(y.values)) and y.values.tobytes() == (sign * plain).tobytes()


def test_unknown_reflection_side_raises():
    # only the two exact spellings name a side
    spec = active_spec(n_cells=20, n_steps=10)
    sol = solve_reflected(spec, [4, 16])
    for side in ("Lower", "lowr", "UPPER"):
        with pytest.raises(ValueError, match="choose 'lower' or 'upper'"):
            skorokhod_residual(sol.y, spec.obstacle, sol.eta, side=side)
        with pytest.raises(ValueError, match="choose 'lower' or 'upper'"):
            dataclasses.replace(spec, reflection_side=side)


def test_psor_rejects_an_unknown_side():
    spec = suites.active_obstacle_spec(20, 5)
    args = (spec.grid, spec.op, spec.terminal, spec.obstacle, spec.horizon, spec.n_steps)
    with pytest.raises(ValueError, match="choose 'lower' or 'upper'"):
        solve_obstacle_psor(*args, side="lowr")


def _random_obstacle_spec(n_cells, n_steps, side, seed, terminal_shift=0.0):
    """A random terminal, obstacle and horizon on [0, 1]; the terminal may cross the obstacle."""
    rng = np.random.default_rng(seed)
    grid = build_grid(0.0, 1.0, n_cells)
    terminal = np.zeros(grid.n_total)
    terminal[1:-1] = rng.uniform(-1.0, 1.0, grid.n_cells) + terminal_shift
    return BackwardSpec(grid=grid, op=OP, horizon=rng.uniform(0.01, 0.5), n_steps=n_steps,
                        terminal=Field(grid, terminal, "dirichlet-zero"),
                        obstacle=rng.uniform(-1.0, 1.0, grid.n_cells), reflection_side=side)


@settings(max_examples=25)
@given(
    n_cells=st.integers(2, 40),
    n_steps=st.integers(1, 30),
    side=st.sampled_from(["lower", "upper"]),
    level=st.integers(1, 2048),
    factor=st.integers(2, 64),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_cells=30, n_steps=20, side="upper", level=16, factor=4, seed=3)
def test_penalized_solution_is_monotone_in_the_level(n_cells, n_steps, side, level, factor, seed):
    # a larger level pushes Y further onto the admissible side: up for lower, down for upper
    spec = _random_obstacle_spec(n_cells, n_steps, side, seed)
    sign = 1.0 if side == "lower" else -1.0
    low, _ = solve_penalized(spec, level)
    high, _ = solve_penalized(spec, factor * level)
    assert np.min(sign * (high.values - low.values)) >= -1e-13 * max(1.0, np.abs(low.values).max())


@settings(max_examples=25)
@given(
    n_cells=st.integers(2, 40),
    n_steps=st.integers(1, 30),
    side=st.sampled_from(["lower", "upper"]),
    level=st.integers(1, 4096),
    shift=st.floats(0.0, 1.0),
    seed=st.integers(0, 2**32 - 1),
)
@example(n_cells=30, n_steps=20, side="lower", level=64, shift=0.1, seed=5)
def test_penalized_solution_is_monotone_in_the_terminal_data(
    n_cells, n_steps, side, level, shift, seed
):
    # the comparison principle: a larger terminal value gives a larger Y on either side
    below, _ = solve_penalized(_random_obstacle_spec(n_cells, n_steps, side, seed), level)
    above, _ = solve_penalized(_random_obstacle_spec(n_cells, n_steps, side, seed, shift), level)
    assert np.min(above.values - below.values) >= -1e-13 * max(1.0, np.abs(below.values).max())


# ---------------------------------------------------------------------------
# complementarity and rate diagnostics
# ---------------------------------------------------------------------------


def test_skorokhod_zero_when_eta_zero():
    spec = inactive_spec()
    sol = solve_reflected(spec, [4, 16])
    val = skorokhod_residual(sol.y, spec.obstacle, sol.eta, side="lower")
    assert val == 0.0


def test_skorokhod_zero_when_y_equals_obstacle_on_support():
    grid = build_grid(0.0, 1.0, 20)
    times = np.linspace(0.0, 1.0, 5)
    vals = np.ones((5, grid.n_total))
    y = FieldPath(grid, times, vals)
    eta_vals = np.zeros((5, grid.n_total))
    eta_vals[2:, 5] = 1.0  # charges node 5 where Y == L
    eta = FieldPath(grid, times, eta_vals)
    val = skorokhod_residual(y, np.ones(grid.n_cells), eta, side="lower")
    assert val == 0.0


@settings(max_examples=15)
@given(
    amplitude=st.floats(-0.5, 1.2),
    tilt=st.floats(-1.0, 1.0),
    scale=st.floats(-2.0, 2.0),
    # at most two levels: one Cauchy gap cannot grow, while a random obstacle can make three
    levels=st.lists(st.sampled_from([2, 8, 32, 128]), min_size=1, max_size=2, unique=True),
)
@example(amplitude=0.8, tilt=0.0, scale=0.0, levels=[8, 128])  # Y decays onto L: eta charges
def test_reflected_diagnostics_are_the_public_gap_pairing(amplitude, tilt, scale, levels):
    levels = sorted(levels)
    grid = build_grid(0.0, 1.0, 12)
    obstacle = amplitude * np.sin(np.pi * grid.interior) + tilt * (grid.interior - 0.5)

    def driver(t, x, y):
        return scale * np.sin(3.0 * y) + x

    lower = BackwardSpec(
        grid=grid,
        op=OP,
        horizon=0.2,
        n_steps=16,
        terminal=sine_terminal(grid),
        driver=driver,
        obstacle=obstacle,
    )
    upper = dataclasses.replace(  # the negated problem: data, barrier and conjugate driver
        lower,
        terminal=Field(grid, -lower.terminal.values),
        driver=lambda t, x, y: -driver(t, x, -y),
        obstacle=-obstacle,
        reflection_side="upper",
    )
    solutions = {}
    for sign, spec in ((1.0, lower), (-1.0, upper)):
        sol = solutions[spec.reflection_side] = solve_reflected(spec, levels)
        diag = sol.diagnostics
        gap = sign * (sol.y.values[:, 1:-1] - sign * obstacle)
        assert diag.min_gap == np.min(gap[:-1])
        eta_inc = spec.dt * levels[-1] * np.maximum(-gap[:-1], 0.0)
        np.testing.assert_array_equal(sol.eta.values[1:, 1:-1], np.cumsum(eta_inc, axis=0))
        public = skorokhod_residual(sol.y, spec.obstacle, sol.eta, spec.reflection_side)
        assert public == diag.skorokhod_residual
        none = skorokhod_residual(sol.y, None, sol.eta)
        assert none == 0.0 and not np.signbit(none)
        # the scale sup_t ||Y||_H * ||eta(T)||_H, bit for bit
        y_norm = np.max(np.sqrt(grid.h * np.sum(sol.y.values[:, 1:-1] ** 2, axis=1)))
        eta_norm = np.sqrt(grid.h * np.sum(sol.eta.values[-1, 1:-1] ** 2))
        assert diag.skorokhod_scale == y_norm * eta_norm
    # the negation duality, byte for byte
    assert solutions["upper"].y.values.tobytes() == (-solutions["lower"].y.values).tobytes()
    assert solutions["upper"].eta.values.tobytes() == solutions["lower"].eta.values.tobytes()
    assert solutions["upper"].diagnostics == solutions["lower"].diagnostics


def test_unconstrained_reflected_solve_has_no_gap():
    spec = dataclasses.replace(inactive_spec(n_cells=12, n_steps=16), obstacle=None)
    diag = solve_reflected(spec, [4, 16]).diagnostics
    assert diag.skorokhod_residual == 0.0 and not np.signbit(diag.skorokhod_residual)
    assert diag.min_gap == np.inf


def test_skorokhod_residual_scales_inversely_with_level():
    spec = active_spec(n_cells=50, n_steps=200)
    res = []
    for levels in ([64], [256]):
        sol = solve_reflected(spec, levels)
        rel = abs(sol.diagnostics.skorokhod_residual) / sol.diagnostics.skorokhod_scale
        res.append(rel)
    assert res[1] < res[0]
    assert res[0] / res[1] == pytest.approx(256 / 64, rel=0.2)


def test_rate_study_inactive_degenerate():
    spec = inactive_spec()
    with pytest.raises(DegenerateFitError):
        penalization_rate(spec, [4, 8, 16, 32])


def test_rate_study_energies_monotone_and_match_theory():
    spec = active_spec(n_cells=50, n_steps=200)
    levels = [4, 8, 16, 32, 64, 128, 256]
    study = penalization_rate(spec, levels)
    energies = np.asarray(study.energies)
    assert np.all(np.diff(energies) < 0.0)
    # violation amplitude 0.6 mu / (n + mu) on the sine mode makes the
    # energy proportional to (n + mu)^(-2) with a transient correction;
    # check the raw levels against that prediction
    mu = mode_decay_rate(spec.grid)
    pred = (0.6 * mu / (np.asarray(levels) + mu)) ** 2
    ratio = energies / pred
    assert np.max(ratio) / np.min(ratio) < 2.0
    # the preasymptotic slope over {4..256} sits near -1.5, far from the
    # asymptotic -2; the asymptotic window must recover the true rate
    assert -1.7 < study.slope < -1.3
    high = penalization_rate(spec, [256, 512, 1024, 2048, 4096])
    assert -2.3 <= high.slope <= -1.7


def test_rate_study_validates_levels():
    spec = active_spec(n_cells=30, n_steps=50)
    with pytest.raises(ValueError):
        penalization_rate(spec, [4, 8])
    with pytest.raises(ValueError):
        penalization_rate(spec, [4, 8, 16, 12])
