import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smc import backward, suites
from smc.backward import (
    BackwardSpec,
    penalization_rate,
    skorokhod_residual,
    solve_penalized,
    solve_reflected,
)
from smc import operators
from smc.cli import main
from smc.errors import (
    DegenerateFitError,
    NanDetectedError,
    NoConvergenceError,
    SingularSystemError,
    TerminalConsistencyError,
    ToolkitError,
)
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
        obstacle=lambda t, x: 0.6 * np.sin(np.pi * x),
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
        obstacle=lambda t, x: -1e9 * np.ones_like(x),
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
        obstacle=lambda t, x: -np.ones_like(x),
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
    spec = suites.active_obstacle_spec(30, 40)
    monkeypatch.setattr(backward, "_MAX_FIXED_POINT_ITERS", 1)  # forked workers inherit it
    messages = []
    for workers in ("1", "2"):
        monkeypatch.setenv("SMC_WORKERS", workers)
        with pytest.raises(NoConvergenceError) as err:
            solve_reflected(spec, [16, 64])
        messages.append(str(err.value))
    assert messages[1] == messages[0]


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


def test_terminal_consistency_guard():
    grid = build_grid(0.0, 1.0, 30)
    with pytest.raises(TerminalConsistencyError):
        BackwardSpec(
            grid=grid,
            op=OP,
            horizon=0.1,
            n_steps=10,
            terminal=sine_terminal(grid),
            obstacle=lambda t, x: 2.0 * np.ones_like(x),
            reflection_side="lower",
        )
    BackwardSpec(
        grid=grid,
        op=OP,
        horizon=0.1,
        n_steps=10,
        terminal=sine_terminal(grid),
        obstacle=lambda t, x: 2.0 * np.ones_like(x),
        reflection_side="lower",
        allow_terminal_violation=True,
    )


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
        obstacle=lambda t, x: 0.6 * np.sin(np.pi * x),
        reflection_side="lower",
    )
    neg_terminal = Field(grid, -sine_terminal(grid).values, "dirichlet-zero")
    upper = BackwardSpec(
        grid=grid,
        op=OP,
        horizon=0.3,
        n_steps=60,
        terminal=neg_terminal,
        obstacle=lambda t, x: -0.6 * np.sin(np.pi * x),
        reflection_side="upper",
    )
    sol_lower = solve_reflected(lower, [8, 32])
    sol_upper = solve_reflected(upper, [8, 32])
    np.testing.assert_array_equal(sol_upper.y.values, -sol_lower.y.values)
    np.testing.assert_array_equal(sol_upper.eta.values, sol_lower.eta.values)


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
    val = skorokhod_residual(y, lambda t, x: np.ones_like(x), eta, side="lower")
    assert val == 0.0


@settings(max_examples=15)
@given(
    amplitude=st.floats(-0.5, 1.2),
    tilt=st.floats(-1.0, 1.0),
    drift=st.floats(-2.0, 2.0),
    # at most two levels: one Cauchy gap cannot grow, while a random obstacle can make three
    levels=st.lists(st.sampled_from([2, 8, 32, 128]), min_size=1, max_size=2, unique=True),
)
@example(amplitude=0.8, tilt=0.0, drift=0.0, levels=[8, 128])  # Y decays onto L: eta charges
def test_reflected_diagnostics_are_the_public_gap_pairing(amplitude, tilt, drift, levels):
    levels = sorted(levels)
    grid = build_grid(0.0, 1.0, 12)

    def obstacle(t, x):
        return amplitude * np.sin(np.pi * x) + tilt * (x - 0.5) * np.exp(drift * t)

    lower = BackwardSpec(
        grid=grid,
        op=OP,
        horizon=0.2,
        n_steps=16,
        terminal=sine_terminal(grid),
        obstacle=obstacle,
        allow_terminal_violation=True,
    )
    upper = dataclasses.replace(
        lower,
        terminal=Field(grid, -lower.terminal.values),
        obstacle=lambda t, x: -obstacle(t, x),
        reflection_side="upper",
    )
    solutions = {}
    for sign, spec in ((1.0, lower), (-1.0, upper)):
        sol = solutions[spec.reflection_side] = solve_reflected(spec, levels)
        diag = sol.diagnostics
        barrier = np.array([obstacle(t, grid.nodes)[1:-1] for t in spec.times])
        gap = sign * (sol.y.values[:, 1:-1] - sign * barrier)
        assert diag.min_gap == np.min(gap[:-1])
        eta_inc = spec.dt * levels[-1] * np.maximum(-gap[:-1], 0.0)
        np.testing.assert_array_equal(sol.eta.values[1:, 1:-1], np.cumsum(eta_inc, axis=0))
        public = skorokhod_residual(
            sol.y, spec.obstacle, sol.eta, side=spec.reflection_side, with_scale=True
        )
        assert public == (diag.skorokhod_residual, diag.skorokhod_scale)
        assert skorokhod_residual(sol.y, spec.obstacle, sol.eta, spec.reflection_side) == public[0]
        none = skorokhod_residual(sol.y, None, sol.eta, with_scale=True)
        assert none[0] == 0.0 and not np.signbit(none[0]) and none[1] == public[1]
    np.testing.assert_array_equal(solutions["upper"].y.values, -solutions["lower"].y.values)
    np.testing.assert_array_equal(solutions["upper"].eta.values, solutions["lower"].eta.values)
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
