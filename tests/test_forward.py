import dataclasses
import os
import tracemalloc
import warnings
from functools import partial
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smc import control as control_module
from smc import forward, suites
from smc.control import _rewards_pass, directional_derivative_J, performance_J, performance_Js
from smc.errors import InadmissiblePerturbationError, NanDetectedError
from smc.forward import (
    ControlPerturbation,
    NoisePath,
    ProblemSpec,
    SingularControl,
    _monte_carlo,
    derivative_process,
    iterate_states,
    simulate_ensemble,
    simulate_path,
)
from smc.grid import Field, FieldPath, build_grid
from smc.operators import OperatorSpec, TridiagonalStepper


def make_spec(**kw):
    grid = kw.pop("grid", build_grid(0.0, 1.0, 30))
    defaults = dict(
        grid=grid,
        op=OperatorSpec(second_order=0.0, first_order=0.0, theta=0.1),
        horizon=0.5,
        n_steps=50,
        alpha=0.0,
        beta=0.0,
        lambda0=1.0,
        initial=Field.from_function(grid, lambda x: np.ones_like(x)),
        boundary=(1.0, 1.0),
    )
    defaults.update(kw)
    return ProblemSpec(**defaults)


def zero_control(spec):
    return SingularControl.zeros(spec.n_steps + 1, spec.grid.n_cells)


def _exploding_spec(**kw):
    """A mean drift of rate 1e3 over horizon 10: without noise, every path overflows at step 226."""
    grid = build_grid(0.0, 1.0, 40)
    kw.setdefault("alpha", 1e3)
    return make_spec(
        grid=grid,
        op=OperatorSpec(second_order=0.5, first_order=0.0, theta=0.1),
        horizon=10.0,
        n_steps=400,
        initial=Field.from_function(grid, lambda x: 1.0 + np.sin(np.pi * x)),
        boundary=(1.0, 1.0),
        **kw,
    )


def test_frozen_dynamics_state_constant():
    spec = make_spec()
    noise = NoisePath.generate(1, spec.n_steps, spec.dt)
    path = simulate_path(spec, zero_control(spec), noise)
    np.testing.assert_array_equal(path.values, np.ones_like(path.values))


def test_heat_decay_matches_kernel():
    grid = build_grid(0.0, 1.0, 200)
    spec = make_spec(
        grid=grid,
        op=OperatorSpec(second_order=0.5, first_order=0.0, theta=0.1),
        horizon=0.1,
        n_steps=4000,
        stepping="crank-nicolson",
        initial=Field.from_function(grid, lambda x: np.sin(np.pi * x), "dirichlet-zero"),
        boundary=(0.0, 0.0),
    )
    noise = NoisePath.generate(0, spec.n_steps, spec.dt)
    path = simulate_path(spec, zero_control(spec), noise)
    expected = np.exp(-np.pi**2 * 0.1 / 2.0) * np.sin(np.pi * grid.nodes)
    assert np.max(np.abs(path.values[-1] - expected)) <= 2e-3


def test_single_jump_multiplicative():
    spec = make_spec(lambda0=2.0)
    inc = np.zeros((spec.n_steps, spec.grid.n_cells))
    inc[10, 7] = 0.25
    control = SingularControl.from_increments(inc)
    noise = NoisePath.generate(3, spec.n_steps, spec.dt)
    path = simulate_path(spec, control, noise)
    # state jumps to u * (1 - lambda0 * dxi) at that node, end of step 10
    assert path.values[10, 8] == 1.0
    assert path.values[11, 8] == pytest.approx(1.0 * (1.0 - 2.0 * 0.25), abs=1e-14)
    assert np.all(path.values[:, 1] == 1.0)


def test_jump_consistency_invariant():
    spec = make_spec(lambda0=0.7)
    rng = np.random.default_rng(12)
    inc = rng.uniform(0.0, 0.2, (spec.n_steps, spec.grid.n_cells))
    control = SingularControl.from_increments(inc)
    noise = NoisePath.generate(5, spec.n_steps, spec.dt)
    path = simulate_path(spec, control, noise)
    k = 17
    u_pre = path.values[k, 1:-1]
    expected_jump = -spec.lambda0 * u_pre * inc[k]
    np.testing.assert_allclose(
        path.values[k + 1, 1:-1] - u_pre, expected_jump, rtol=1e-12, atol=1e-15
    )


def test_boundary_pinning():
    grid = build_grid(0.0, 1.0, 20)
    spec = make_spec(
        grid=grid,
        op=OperatorSpec(second_order=0.3, first_order=0.0, theta=0.1),
        horizon=0.05,
        n_steps=100,
        beta=0.1,
        initial=Field.from_function(grid, lambda x: 1.0 + x * (1 - x)),
        boundary=lambda t: (1.0 + t, 2.0),
    )
    noise = NoisePath.generate(8, spec.n_steps, spec.dt)
    path = simulate_path(spec, zero_control(spec), noise)
    for k in range(1, spec.n_steps + 1):
        left, right = spec.boundary_at(spec.times[k])
        assert path.values[k, 0] == left
        assert path.values[k, -1] == right


@pytest.mark.filterwarnings("error")  # the overflow is reported once, typed, and not warned
def test_nan_detection_reports_step():
    spec = _exploding_spec()
    noise = NoisePath.generate(2, spec.n_steps, spec.dt)
    with pytest.raises(NanDetectedError) as err:
        simulate_path(spec, zero_control(spec), noise)
    assert err.value.step == 226


@pytest.mark.filterwarnings("error")
def test_overflowing_tangent_warns_nothing():
    # z overflows long before u: the run ends at the state's typed failure, with no warning
    spec = _exploding_spec()
    base = SingularControl.constant_rate(0.1, spec.times, spec.grid.n_cells)
    zeta = ControlPerturbation(1e300 * base.cumulative)
    noise = NoisePath.generate(0, spec.n_steps, spec.dt)
    with pytest.raises(NanDetectedError) as err:
        derivative_process(spec, base, zeta, noise)
    assert err.value.step == 226


def test_noise_path_reproducible():
    a = NoisePath.generate(42, 100, 0.01)
    b = NoisePath.generate(42, 100, 0.01)
    np.testing.assert_array_equal(a.increments, b.increments)
    assert np.var(NoisePath.generate(7, 20000, 0.25).increments) == pytest.approx(0.25, rel=0.05)


def test_determinism_bitwise():
    spec = make_spec(beta=0.2, alpha=0.5, op=OperatorSpec(0.2, 0.0, 0.15), stepping="implicit")
    control = SingularControl.constant_rate(0.1, spec.times, spec.grid.n_cells)
    noise = NoisePath.generate(99, spec.n_steps, spec.dt)
    p1 = simulate_path(spec, control, noise)
    p2 = simulate_path(spec, control, noise)
    np.testing.assert_array_equal(p1.values, p2.values)


def test_ensemble_single_path_matches_simulate_path():
    spec = make_spec(beta=0.3, alpha=0.4, op=OperatorSpec(0.1, 0.0, 0.2), stepping="implicit")
    control = SingularControl.constant_rate(0.05, spec.times, spec.grid.n_cells)
    summary = simulate_ensemble(spec, control, n_paths=1, seed=123)
    path = simulate_path(spec, control, NoisePath.generate(123, spec.n_steps, spec.dt))
    np.testing.assert_array_equal(summary.mean_path.values, path.values)


def test_ensemble_columns_match_per_path_runs():
    spec = make_spec(beta=0.25, alpha=0.3, op=OperatorSpec(0.1, 0.0, 0.2), stepping="implicit")
    control = zero_control(spec)
    summary = simulate_ensemble(spec, control, n_paths=5, seed=40)
    for p in range(5):
        path = simulate_path(spec, control, NoisePath.generate(40 + p, spec.n_steps, spec.dt))
        np.testing.assert_array_equal(summary.terminal_values[p], path.values[-1])


@pytest.mark.parametrize("n_paths", [None, 3, TridiagonalStepper.SWEEP_MIN_PATHS])
@pytest.mark.parametrize("stepping", ["implicit", "crank-nicolson"])
def test_iterate_states_yields_states_later_steps_leave_alone(stepping, n_paths):
    spec = make_spec(
        beta=0.25, alpha=0.3, op=OperatorSpec(0.1, 0.0, 0.2), stepping=stepping, n_steps=200
    )
    control = SingularControl.constant_rate(0.1, spec.times, spec.grid.n_cells)
    shape = (spec.n_steps,) if n_paths is None else (spec.n_steps, n_paths)
    dw = np.random.default_rng(2).standard_normal(shape) * np.sqrt(spec.dt)
    kept = [u for _, u in iterate_states(spec, control, dw)]
    copied = [u.copy() for _, u in iterate_states(spec, control, dw)]
    assert len(kept) == spec.n_steps + 1
    for k, (u, want) in enumerate(zip(kept, copied)):
        np.testing.assert_array_equal(u, want)
        if k:
            assert not np.shares_memory(u, kept[k - 1])


def test_ensemble_no_noise_identical_paths():
    spec = make_spec(alpha=0.2, op=OperatorSpec(0.1, 0.0, 0.2), stepping="implicit")
    summary = simulate_ensemble(spec, zero_control(spec), n_paths=4, seed=0)
    assert np.ptp(summary.terminal_values, axis=0).max() == 0.0


def test_ensemble_martingale_mean():
    grid = build_grid(0.0, 1.0, 10)
    spec = make_spec(
        grid=grid,
        horizon=1.0,
        n_steps=100,
        beta=0.2,
        initial=Field.from_function(grid, lambda x: np.ones_like(x)),
        boundary=(1.0, 1.0),
    )
    summary = simulate_ensemble(spec, zero_control(spec), n_paths=10_000, seed=314)
    terminal_interior = summary.terminal_values[:, 1:-1].mean(axis=1)
    est = terminal_interior.mean()
    stderr = terminal_interior.std(ddof=1) / np.sqrt(10_000)
    assert abs(est - 1.0) <= 3.0 * stderr


def _noise_factors(seed, n_paths, spec):
    """prod_j (1 + beta dB_j) over steps j < k, k = 0 .. n_steps: shape (n_times, n_paths)."""
    db = np.column_stack([
        np.random.default_rng(seed + p).standard_normal(spec.n_steps) * np.sqrt(spec.dt)
        for p in range(n_paths)
    ])
    return np.vstack([np.ones(n_paths), np.cumprod(1.0 + spec.beta * db, axis=0)])


def test_pointwise_noise_is_the_product_of_its_factors():
    # alpha = 0, zero control and zero boundary: an implicit step is M^-1 (1 + beta dB_k) u_k,
    # so a path is prod_j (1 + beta dB_j) times the beta = 0 path; the mean cannot show this
    grid = build_grid(0.0, 1.0, 30)
    quiet = make_spec(
        grid=grid,
        op=OperatorSpec(second_order=0.5, first_order=0.0, theta=0.1),
        horizon=0.12,
        n_steps=96,
        stepping="implicit",
        initial=Field.from_function(grid, lambda x: np.sin(np.pi * x), "dirichlet-zero"),
        boundary=(0.0, 0.0),
    )
    noisy = dataclasses.replace(quiet, beta=0.5)
    control = zero_control(quiet)
    base = simulate_path(quiet, control, NoisePath.generate(0, quiet.n_steps, quiet.dt)).values
    seed = 41
    path = simulate_path(noisy, control, NoisePath.generate(seed, noisy.n_steps, noisy.dt))
    factors = _noise_factors(seed, 1, noisy)
    np.testing.assert_allclose(path.values[:, 1:-1], factors * base[:, 1:-1], rtol=1e-13, atol=0)
    summary = simulate_ensemble(noisy, control, n_paths=64, seed=seed)
    terminal = _noise_factors(seed, 64, noisy)[-1][:, None] * base[-1]
    np.testing.assert_allclose(
        summary.terminal_values[:, 1:-1], terminal[:, 1:-1], rtol=1e-13, atol=0
    )


def test_positivity_flag_and_location():
    spec = make_spec(beta=0.2, stepping="implicit", horizon=0.2, n_steps=40)
    summary = simulate_ensemble(spec, zero_control(spec), n_paths=16, seed=7)
    assert summary.positivity
    assert summary.min_value > 0.0
    seed, k, node = summary.min_location
    assert 7 <= seed < 23 and 0 <= k <= 40 and 1 <= node <= 30


def _ensemble_outputs(spec, control, n_paths, chunk_size):
    summary = simulate_ensemble(spec, control, n_paths=n_paths, seed=11, chunk_size=chunk_size)
    return [summary.mean_path.values, summary.terminal_values, summary.min_location]


def _performance_outputs(spec, control, n_paths, chunk_size):
    chunking = {} if chunk_size is None else {"chunk_size": chunk_size}  # None: the default
    estimate = performance_J(spec, control, n_paths, seed=11, **chunking)
    return [estimate.estimate, estimate.stderr]


def _derivative_outputs(spec, control, n_paths, chunk_size):
    # directional_derivative_J has no chunk_size: a size other than None is given to its engine
    zeta = ControlPerturbation.from_control(control)
    p = FieldPath(spec.grid, spec.times, np.ones((spec.n_steps + 1, spec.grid.n_total)))
    engine = _monte_carlo if chunk_size is None else partial(_monte_carlo, chunk_size=chunk_size)
    with mock.patch.object(control_module, "_monte_carlo", engine):
        cmp = directional_derivative_J(spec, control, zeta, p, n_paths, seed=11, epsilons=(1e-2,))
    return [cmp.adjoint_formula, cmp.adjoint_stderr, *cmp.finite_difference[1e-2]]


def _engine_per_path_outputs(spec, control, n_paths, chunk_size):
    (chunks,) = _monte_carlo(spec, [_rewards_pass(spec, control)], n_paths, 11, chunk_size)
    return [np.concatenate(chunks)]


@pytest.mark.parametrize(
    "outputs, n_paths, chunk_sizes",
    [
        # 300 paths: three blocks, so one bundle per block at chunk sizes below 128
        (_ensemble_outputs, 300, (2, 4096)),
        (_performance_outputs, 300, (2, 4096)),
        # 4100 paths, 33 blocks: bundles of at most 16 blocks by default, or of 32
        (_performance_outputs, 4100, (None, 4096)),
        (_derivative_outputs, 4100, (None, 4096)),
        (_engine_per_path_outputs, 300, (1, 2, 4, 4096)),
    ],
    ids=[
        "simulate_ensemble",
        "performance_J",
        "performance_J-default-chunks",
        "directional_derivative_J",
        "engine",
    ],
)
def test_ensemble_worker_count_does_not_change_results(monkeypatch, outputs, n_paths, chunk_sizes):
    spec = make_spec(beta=0.2, alpha=0.3, op=OperatorSpec(0.1, 0.0, 0.2), stepping="implicit")
    control = SingularControl.constant_rate(0.1, spec.times, spec.grid.n_cells)
    runs = []
    for workers in ("1", "3", None):  # None: unset, one worker per allowed CPU
        if workers is None:
            monkeypatch.delenv("SMC_WORKERS")
        else:
            monkeypatch.setenv("SMC_WORKERS", workers)
        runs += [outputs(spec, control, n_paths, chunk) for chunk in chunk_sizes]
    for run in runs[1:]:
        for got, want in zip(run, runs[0]):
            np.testing.assert_array_equal(got, want)
    with pytest.raises(ValueError):
        outputs(spec, control, 0, chunk_sizes[0])


@pytest.mark.parametrize("chunk_size", [0, -5])
@pytest.mark.parametrize(
    "run",
    [
        lambda spec, xi, chunk: performance_J(spec, xi, 4, 11, chunk_size=chunk),
        lambda spec, xi, chunk: performance_Js(spec, [xi, xi], 4, 11, chunk_size=chunk),
        lambda spec, xi, chunk: simulate_ensemble(spec, xi, 4, 11, chunk_size=chunk),
    ],
    ids=["performance_J", "performance_Js", "simulate_ensemble"],
)
def test_nonpositive_chunk_size_is_rejected(run, chunk_size):
    spec = make_spec()
    with pytest.raises(ValueError, match="chunk_size must be >= 1"):
        run(spec, zero_control(spec), chunk_size)


def _reference_states(spec, control, dw):
    """iterate_states with the jump added on every interior row."""
    n_paths = dw.shape[1] if dw.ndim == 2 else None
    kernel, u = forward._Kernel(spec, n_paths), forward._initial_state(spec, n_paths)
    yield 0, u
    for k, inc in enumerate(control.increments):
        u = kernel.step(k, u, dw[k], inc[:, None] if u.ndim == 2 else inc, slice(None))
        yield k + 1, u


def _reference_rewards(spec, control, states):
    """Per-path J with h1 from full price and cost columns and its reward on every row."""
    h, total = spec.grid.h, 0.0
    for k, u in states:
        if k == spec.n_steps:
            break
        t, u_int = spec.times[k], u[1:-1]
        price, cost = (spec._price_values(f, t) for f in (spec.h10, spec.cost))
        h1 = price[1:-1, None] * u_int - cost[1:-1, None]
        total += h * control_module._node_sum(h1 * control.increments[k][:, None])
    return total + h * control_module._node_sum(spec._g0_values()[1:-1][:, None] * u[1:-1])


def _span_controls(spec):
    n, steps = spec.grid.n_cells, spec.n_steps
    cluster, first, last = (np.zeros((steps, n)) for _ in range(3))
    cluster[::3, [20, 22, 23, 27]] = [0.05, 0.02, 0.0, 0.04]  # a zero inside the span
    first[1::2, 0] = 0.03
    last[::2, -1] = 0.03
    return {
        "cluster": (SingularControl.from_increments(cluster), slice(20, 28)),
        "row-0": (SingularControl.from_increments(first), slice(0, 1)),
        "row-last": (SingularControl.from_increments(last), slice(n - 1, n)),
        "zero": (SingularControl.zeros(steps + 1, n), slice(0, 0)),
        "dense": (SingularControl.constant_rate(0.5, spec.times, n), slice(0, n)),
    }


@pytest.mark.parametrize("width", [None, 1, 2, 512])
@pytest.mark.parametrize("name", ["cluster", "row-0", "row-last", "zero", "dense"])
@pytest.mark.parametrize("problem", ["harvest", "constant-price"])
def test_charged_span_matches_every_row_bitwise(problem, name, width):
    # harvest: a price of (t, x) and a zero cost; constant-price: float price and cost
    spec = suites.harvesting_benchmark()
    changes = {"horizon": spec.horizon / 4, "n_steps": spec.n_steps // 4}
    if problem == "constant-price":
        changes.update(h10=1.5, cost=0.25, stepping="crank-nicolson")
    spec = ProblemSpec(**{**vars(spec), **changes})
    control, span = _span_controls(spec)[name]
    charged = control.increments.any(axis=1)
    assert all(s == (span if c else slice(0, 0)) for s, c in zip(control.spans, charged))
    rng = np.random.default_rng(5)
    shape = (spec.n_steps,) if width is None else (spec.n_steps, width)
    dw = rng.standard_normal(shape) * np.sqrt(spec.dt)
    states = [u for _, u in iterate_states(spec, control, dw)]
    want = [u for _, u in _reference_states(spec, control, dw)]
    np.testing.assert_array_equal(states, want)
    if width is not None:
        _, reduce = _rewards_pass(spec, control)
        rewards = reduce(0, enumerate(states))
        np.testing.assert_array_equal(rewards, _reference_rewards(spec, control, enumerate(want)))


def test_building_and_simulating_a_control_never_builds_its_increments():
    # the monotonicity check compares neighbouring rows and each step subtracts its own two,
    # so beyond the caller's cumulative array the peak is the path returned
    grid = build_grid(0.0, 1.0, 201)
    spec = make_spec(
        grid=grid,
        op=OperatorSpec(0.5, 0.0, 0.1),
        horizon=0.1,
        n_steps=2000,
        stepping="crank-nicolson",
        initial=Field.from_function(grid, lambda x: np.sin(np.pi * x), "dirichlet-zero"),
        boundary=(0.0, 0.0),
    )
    cumulative = 0.1 * np.tile(spec.times[:, None], (1, grid.n_cells))
    noise = NoisePath.generate(0, spec.n_steps, spec.dt)
    path_bytes = (spec.n_steps + 1) * grid.n_total * 8
    tracemalloc.start()
    try:
        control = SingularControl(cumulative)
        simulate_path(spec, control, noise)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.4 * path_bytes, peak / path_bytes
    assert "increments" not in vars(control)


def test_zero_control_holds_no_array_of_its_own():
    # criterion 05's forward oracle: its 8001 x 401 zero control charges no row
    tracemalloc.start()
    try:
        control = SingularControl.zeros(8001, 401)
        spans = control.spans
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8001 * 401 * 8, peak  # below one float array of the control's shape
    assert not control.cumulative.flags.writeable
    assert spans == [slice(0, 0)] * 8000


_CONTROL_LEVELS = [0.0, 0.1, 0.3, 1.0, 1.0 + 2.0**-52, 2.5, 5e-324]


@settings(max_examples=60)
@given(data=st.data(), n_steps=st.integers(1, 6), n_cells=st.integers(2, 6))
def test_engine_increments_and_spans_follow_the_cumulative_control(data, n_steps, n_cells):
    # running maxima of a few levels give exact ties; held steps give all-zero increments
    level = st.one_of(st.sampled_from(_CONTROL_LEVELS), st.floats(0.0, 10.0))
    draws = np.array(data.draw(st.lists(st.lists(level, min_size=n_cells, max_size=n_cells),
                                        min_size=n_steps, max_size=n_steps)))
    for k, hold in enumerate(data.draw(st.lists(st.booleans(), min_size=n_steps,
                                                max_size=n_steps))):
        if hold:
            draws[k] = draws[k - 1] if k else 0.0
    cumulative = np.zeros((n_steps + 1, n_cells))
    cumulative[1:] = np.maximum.accumulate(draws, axis=0)
    control = SingularControl(cumulative)

    spec = make_spec(grid=build_grid(0.0, 1.0, n_cells), n_steps=n_steps, horizon=0.1)
    seen = []
    step = forward._Kernel.step

    def recording_step(self, k, u, db, dxi, rows=slice(None)):
        seen.append((k, np.array(dxi).reshape(-1), rows))
        return step(self, k, u, db, dxi, rows)

    with mock.patch.object(forward._Kernel, "step", recording_step):
        for width in (None, 2):
            dw = np.zeros(n_steps if width is None else (n_steps, width))
            for _ in iterate_states(spec, control, dw):
                pass
    assert "increments" not in vars(control)
    increments = control.increments
    assert [k for k, _, _ in seen] == 2 * list(range(n_steps))
    for k, dxi, rows in seen:
        assert dxi.tobytes() == increments[k].tobytes()
        assert rows == control.spans[k]
    for row, span in zip(increments, control.spans):
        charged = np.flatnonzero(row)
        if charged.size:
            assert span == slice(charged[0], charged[-1] + 1)
        else:
            assert len(range(n_cells)[span]) == 0

    k, i = data.draw(st.integers(1, n_steps)), data.draw(st.integers(0, n_cells - 1))
    decreasing = cumulative.copy()
    decreasing[k, i] = np.nextafter(decreasing[k - 1, i], -np.inf)
    with pytest.raises(ValueError, match="nondecreasing"):
        SingularControl(decreasing)


def test_parallel_default_chunks_hold_no_more_memory_than_one_4096_path_chunk(monkeypatch, tmp_path):
    # mirrors the benchmark's peak-RSS bound: using every core must not cost memory.  The
    # parallel run has three default chunks, so two are in flight and a larger default
    # chunk (up to the whole run) would show.  Chunks run in forked workers, which inherit
    # this wrapper: each one traces its own peak into tmp_path, and the bound covers the
    # caller plus every worker.
    spec = suites.harvesting_benchmark()
    control = SingularControl.constant_rate(1.0, spec.times, spec.grid.n_cells)
    install = forward._install

    def install_traced(fn):
        tracemalloc.stop()  # in the worker: forget what the caller traced before the fork
        tracemalloc.start()

        def traced(item):
            try:
                return fn(item)
            finally:
                (tmp_path / str(os.getpid())).write_text(str(tracemalloc.get_traced_memory()[1]))

        install(traced)

    monkeypatch.setattr(forward, "_install", install_traced)

    def traced_peak(workers, n_paths, **chunking):
        monkeypatch.setenv("SMC_WORKERS", workers)
        tracemalloc.start()
        try:
            performance_J(spec, control, n_paths, seed=3, **chunking)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    serial = traced_peak("1", 4096, chunk_size=4096)
    caller = traced_peak("2", 3 * forward._DEFAULT_CHUNK)
    workers = [int(path.read_text()) for path in tmp_path.iterdir()]
    assert len(workers) == 2
    assert caller + sum(workers) <= 1.15 * serial, (caller, workers, serial)


def test_ensemble_nan_reports_offending_seed():
    spec = _exploding_spec()
    with pytest.raises(NanDetectedError) as err:
        simulate_ensemble(spec, zero_control(spec), n_paths=3, seed=100)
    assert err.value.seed in (100, 101, 102)


def test_ensemble_nan_error_crosses_from_workers_unchanged(monkeypatch):
    # all three one-block bundles fail at the same step; the lowest path seed wins
    spec = _exploding_spec()
    errors = []
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("SMC_WORKERS", workers)
        with pytest.raises(NanDetectedError) as err:
            simulate_ensemble(spec, zero_control(spec), n_paths=257, seed=100, chunk_size=1)
        errors.append((type(err.value), str(err.value), err.value.step, err.value.seed))
    assert errors[2] == errors[1] == errors[0]
    assert errors[0][3] == 100


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "initial, beta, n_steps, n_paths, step",
    [
        (1e307, 0.0, 3, 200, 0),  # two blocks of 1e307s: each sums past the float range
        (1e305, 1e3, 1, 1280, 1),  # paths of either sign: block sums of +inf and -inf
    ],
    ids=["same-sign", "either-sign"],
)
def test_ensemble_sum_overflow_is_a_typed_error(initial, beta, n_steps, n_paths, step):
    grid = build_grid(0.0, 1.0, 10)
    spec = make_spec(
        grid=grid,
        initial=Field(grid, np.full(grid.n_total, initial), "dirichlet-data"),
        boundary=None,
        beta=beta,
        horizon=0.01 * n_steps,
        n_steps=n_steps,
    )
    with pytest.raises(NanDetectedError) as err:
        simulate_ensemble(spec, zero_control(spec), n_paths, seed=0)
    assert str(err.value) == f"state sum over the paths overflows at step {step}"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("beta", [0.0, 0.5])
def test_exploding_explicit_ensemble_warns_only_cfl(monkeypatch, beta):
    # named for the explicit scheme, whose one warning was its stability bound; that scheme and
    # its warning are gone, so an exploding ensemble of many small bundles now warns nothing
    spec = _exploding_spec(beta=beta)
    errors = []
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("SMC_WORKERS", workers)
        with warnings.catch_warnings(record=True) as caught, pytest.raises(NanDetectedError) as err:
            warnings.simplefilter("always")
            simulate_ensemble(spec, zero_control(spec), n_paths=257, seed=100, chunk_size=2)
        assert not caught
        errors.append((type(err.value), str(err.value), err.value.step, err.value.seed))
    assert errors[2] == errors[1] == errors[0]


@pytest.mark.parametrize(
    "alpha, beta, n_paths, seed, offender",
    [
        # identical paths: all blow up together, the lowest seed wins
        pytest.param(1e3, 0.0, 900, 100, 100, id="0.0-900-100-100"),
        # 66 seeds, in every bundle, blow up first, at step 244, and seed 1000 a step later: the
        # lowest failing seed is named, not the chunk's first
        pytest.param(781.0, 0.5, 300, 1000, 1001, id="0.5-300-1000-1001"),
        # seeds 623 and 792 blow up first, at the same step, in different bundles: the lowest
        # failing seed is named, whichever bundle holds it
        pytest.param(1e3, 10.0, 300, 600, 623, id="10.0-300-600-623"),
    ],
)  # each id names beta, n_paths, seed and offender
def test_split_chunk_nan_error_is_the_serial_one(
    monkeypatch, alpha, beta, n_paths, seed, offender
):
    spec = _exploding_spec(alpha=alpha, beta=beta)
    errors = []
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("SMC_WORKERS", workers)
        with warnings.catch_warnings(record=True) as caught, pytest.raises(NanDetectedError) as err:
            warnings.simplefilter("always")
            simulate_ensemble(spec, zero_control(spec), n_paths, seed, chunk_size=300)
        assert not caught  # the overflow is reported once, typed, and not warned
        errors.append((type(err.value), str(err.value), err.value.step, err.value.seed))
    assert errors[2] == errors[1] == errors[0]
    assert errors[0][3] == offender


def test_worker_warning_reaches_the_caller(monkeypatch):
    # each of the three bundles warns in its worker, then blows up: the caller hears the
    # warning once, and the error is the serial one
    spec = _exploding_spec()

    def reduce(first, states):
        warnings.warn("bundle reduced", UserWarning)
        return sum(1 for _ in states)

    outcomes = []
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("SMC_WORKERS", workers)
        with warnings.catch_warnings(record=True) as caught, pytest.raises(NanDetectedError) as err:
            warnings.simplefilter("always")
            _monte_carlo(spec, [(zero_control(spec), reduce)], 257, 0, 1)
        outcomes.append((str(err.value), [str(w.message) for w in caught]))
    assert outcomes == [("non-finite state at step 226 (path seed 0)", ["bundle reduced"])] * 3


def test_split_run_error_keeps_the_warnings_before_it(monkeypatch):
    # a pass that fails after it warned: a parallel run warns as a serial run does
    spec = _exploding_spec()

    def reduce(first, states):
        warnings.warn(f"reducing from seed {first}", UserWarning)
        next(states)
        raise ArithmeticError(f"bundle from seed {first}")

    outcomes = []
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("SMC_WORKERS", workers)
        with warnings.catch_warnings(record=True) as caught, pytest.raises(ArithmeticError) as err:
            warnings.simplefilter("always")
            _monte_carlo(spec, [(zero_control(spec), reduce)], 300, 0, 300)
        outcomes.append((str(err.value), [str(w.message) for w in caught]))
    assert outcomes[2] == outcomes[1] == outcomes[0]
    assert outcomes[0] == ("bundle from seed 0", ["reducing from seed 0"])


def _record_bundles(monkeypatch) -> list:
    """Let map_ordered run as before, recording the (first seed, paths) bundles it is given."""
    seen, map_ordered = [], forward.map_ordered

    def recording(fn, items):
        seen.append(list(items))
        return map_ordered(fn, items)

    monkeypatch.setattr(forward, "map_ordered", recording)
    return seen


@pytest.mark.parametrize(
    "workers, n_paths, chunk_size, bundles",
    [
        ("1", 300, 300, [(0, 128), (128, 172)]),
        ("2", 300, 300, [(0, 128), (128, 172)]),
        ("2", 600, 300, [(0, 128), (128, 128), (256, 128), (384, 216)]),
        ("3", 600, 300, [(0, 128), (128, 256), (384, 216)]),
        ("2", 387, 129, [(0, 128), (128, 128), (256, 128), (384, 3)]),
        ("2", 384, 128, [(0, 128), (128, 128), (256, 128)]),  # three blocks: three bundles
        ("3", 400, 100, [(0, 128), (128, 128), (256, 128), (384, 16)]),
    ],
)
def test_bundles_are_whole_blocks_shared_among_the_workers(
    monkeypatch, workers, n_paths, chunk_size, bundles
):
    monkeypatch.setenv("SMC_WORKERS", workers)
    seen = _record_bundles(monkeypatch)
    spec = make_spec(n_steps=2)
    performance_J(spec, zero_control(spec), n_paths, seed=0, chunk_size=chunk_size)
    assert seen == [bundles]
    firsts = [first for first, _ in bundles]
    assert firsts == sorted(firsts) and all(first % 128 == 0 for first in firsts)
    assert sum(count for _, count in bundles) == n_paths
    assert all(count <= max(chunk_size, 128) for _, count in bundles)
    n_blocks = -(-n_paths // 128)
    assert len(bundles) % int(workers) == 0 or len(bundles) == n_blocks


@pytest.mark.parametrize(
    "beta, n_paths, chunking, bundle_counts",
    [
        (0.2, 900, {"chunk_size": 300}, [4, 4, 6]),
        (0.2, 2048, {}, [1, 2, 3]),  # one default chunk
        (0.0, 900, {"chunk_size": 300}, [4, 4, 6]),  # identical paths: the minimum ties
    ],
    ids=["900-by-300", "one-default-chunk", "no-noise"],
)
def test_split_chunks_keep_ensembles_byte_identical(
    monkeypatch, beta, n_paths, chunking, bundle_counts
):
    spec = make_spec(beta=beta, alpha=0.3, op=OperatorSpec(0.1, 0.0, 0.2), stepping="implicit")
    control = SingularControl.constant_rate(0.1, spec.times, spec.grid.n_cells)
    seen = _record_bundles(monkeypatch)
    runs = []
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("SMC_WORKERS", workers)
        summary = simulate_ensemble(spec, control, n_paths, seed=11, **chunking)
        arrays = (summary.mean_path.values, summary.terminal_values, summary.min_value)
        runs.append(([np.asarray(a).tobytes() for a in arrays], summary.min_location))
    assert [len(items) for items in seen] == bundle_counts
    assert runs[1] == runs[0] and runs[2] == runs[0]


@pytest.mark.parametrize(
    "lows, location",
    [
        ({(5, 2): 4, (200, 1): 9}, (200, 1, 9)),  # the second bundle reaches it a step earlier
        ({(5, 1): 9, (200, 1): 4}, (200, 1, 4)),  # the same step, at a lower node
        ({(5, 1): 4, (200, 1): 4}, (5, 1, 4)),  # the same step and node: the lower seed
    ],
)
def test_split_chunk_minimum_is_the_whole_chunks_choice(monkeypatch, lows, location):
    # two paths, in two bundles of a 300-path run at every worker count, reach the same
    # minimum 0.5 at (path seed, step) -> node; every other state is 1.  One bundle reports
    # the first step at its minimum, then the node-major argmin: so must the ensemble.
    spec = make_spec(n_steps=3)

    def states(spec, control, dw, first):
        for k in range(spec.n_steps + 1):
            u = np.ones((spec.grid.n_total, dw.shape[1]))
            for (path_seed, step), node in lows.items():
                if step == k and first <= path_seed < first + dw.shape[1]:
                    u[node, path_seed - first] = 0.5
            yield k, u

    monkeypatch.setattr(forward, "iterate_states", states)
    locations = []
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("SMC_WORKERS", workers)
        summary = simulate_ensemble(spec, zero_control(spec), 300, 0, chunk_size=300)
        locations.append((summary.min_value, summary.min_location))
    assert locations == [(0.5, location)] * 3


@pytest.mark.parametrize(
    "fails, offender",
    [
        ({(0, 5): 3, (0, 200): 1}, (1, 200)),  # the later bundle fails a step earlier
        ({(0, 5): 2, (0, 200): 2}, (2, 5)),  # the same step: the lower seed
        ({(1, 5): 1, (0, 200): 2}, (2, 200)),  # the first control fails first, if later
    ],
)
def test_nan_error_is_the_earliest_of_all_bundles(monkeypatch, fails, offender):
    # (control, path seed) -> step from which that path is NaN, in a 300-path run of two
    # controls that has two or three bundles at 1-3 workers; a single bundle would stop at
    # the first control that fails, at its first failing step and lowest seed there
    spec = make_spec(n_steps=3)
    controls = [zero_control(spec), zero_control(spec)]

    def states(spec, control, dw, first):
        index = next(i for i, c in enumerate(controls) if c is control)
        for k in range(spec.n_steps + 1):
            u = np.ones((spec.grid.n_total, dw.shape[1]))
            for (which, path_seed), step in fails.items():
                if which == index and k >= step and first <= path_seed < first + dw.shape[1]:
                    u[1, path_seed - first] = np.nan
            forward._check_finite(u, k, first)
            yield k, u

    monkeypatch.setattr(forward, "iterate_states", states)
    passes = [(control, lambda first, states: sum(1 for _ in states)) for control in controls]
    errors = []
    for workers in ("1", "2", "3"):
        monkeypatch.setenv("SMC_WORKERS", workers)
        with pytest.raises(NanDetectedError) as err:
            _monte_carlo(spec, passes, 300, 0, 300)
        errors.append((err.value.step, err.value.seed))
    assert errors == [offender] * 3


@settings(max_examples=12)
@given(
    n_paths=st.integers(1, 700),
    chunk_size=st.integers(1, 400),
    other_chunk_size=st.integers(1, 4096),
    workers=st.integers(1, 3),
)
@example(n_paths=700, chunk_size=300, other_chunk_size=128, workers=2)
@example(n_paths=700, chunk_size=240, other_chunk_size=1, workers=2)
@example(n_paths=400, chunk_size=400, other_chunk_size=129, workers=3)
def test_worker_count_never_moves_a_monte_carlo_bit(
    n_paths, chunk_size, other_chunk_size, workers
):
    grid = build_grid(0.0, 1.0, 8)
    spec = make_spec(
        grid=grid,
        beta=0.2,
        alpha=0.3,
        op=OperatorSpec(0.1, 0.0, 0.2),
        stepping="implicit",
        n_steps=4,
        initial=Field.from_function(grid, lambda x: 1.0 + x),
    )
    control = SingularControl.constant_rate(0.1, spec.times, spec.grid.n_cells)

    def outputs(chunk_size=forward._DEFAULT_CHUNK):
        (rewards,) = _monte_carlo(spec, [_rewards_pass(spec, control)], n_paths, 5, chunk_size)
        j = performance_J(spec, control, n_paths, 5, chunk_size)
        summary = simulate_ensemble(spec, control, n_paths, 5, chunk_size)
        path = summary.mean_path
        arrays = (np.concatenate(rewards), j.estimate, j.stderr, path.values, path.times)
        arrays += (summary.terminal_values, summary.positivity, summary.min_value)
        arrays += (summary.min_location, summary.n_paths, summary.seed)
        return [np.asarray(a).tobytes() for a in arrays]

    with mock.patch.dict(os.environ, {"SMC_WORKERS": "1"}):
        serial = outputs()
    with mock.patch.dict(os.environ, {"SMC_WORKERS": str(workers)}):
        assert outputs(chunk_size) == serial
        assert outputs(other_chunk_size) == serial


@pytest.mark.parametrize("width", [None, 3])
@pytest.mark.parametrize("stepping", ["implicit", "crank-nicolson"])
def test_unforced_step_matches_a_full_forcing_to_the_sign_of_zero(stepping, width):
    # alpha = beta = 0 and no charged row: the step skips its forcing, which is +0.0 on every
    # row, so a -0.0 state must still step to +0.0.  Beside -0.0 boundary data, an implicit
    # solve keeps the sign of an all -0.0 right-hand side: it shows a missing +0.0.
    op = OperatorSpec(0.5, 0.1, 0.1)
    spec = make_spec(op=op, horizon=0.01, stepping=stepping, boundary=(-0.0, -0.0))
    kernel = forward._Kernel(spec, width)
    u = np.full((spec.grid.n_total,) if width is None else (spec.grid.n_total, width), -0.0)
    if width is not None:
        u[20:24, 1] = 1.0  # one path with mass, solved beside two without
    db = -0.7 if width is None else -np.linspace(0.1, 0.3, width)
    dxi = np.zeros(spec.grid.n_cells) if width is None else np.zeros((spec.grid.n_cells, 1))
    unforced = slice(0, 0)
    gain = partial(spec.gain_values, u[1:-1][unforced])
    full = kernel._forcing(u, db, (gain, dxi, unforced))
    want = kernel._advance(u, full, spec.boundary_at(spec.times[1]))
    with mock.patch.object(kernel, "_forcing", side_effect=AssertionError("forcing built")):
        got = kernel.step(0, u, db, dxi, unforced)
    assert not np.signbit(full).any() and np.signbit(u).any()
    assert got.tobytes() == want.tobytes()


def test_monotone_harvest_damage():
    # adding control mass never increases the state under shared noise
    spec = make_spec(
        op=OperatorSpec(0.2, 0.0, 0.15),
        alpha=0.3,
        beta=0.2,
        lambda0=1.0,
        stepping="implicit",
    )
    rng = np.random.default_rng(6)
    base_inc = rng.uniform(0.0, 0.05, (spec.n_steps, spec.grid.n_cells))
    extra_inc = base_inc + rng.uniform(0.0, 0.05, base_inc.shape)
    noise = NoisePath.generate(55, spec.n_steps, spec.dt)
    lean = simulate_path(spec, SingularControl.from_increments(base_inc), noise)
    heavy = simulate_path(spec, SingularControl.from_increments(extra_inc), noise)
    assert np.all(heavy.values <= lean.values + 1e-12)


# ---------------------------------------------------------------------------
# derivative process
# ---------------------------------------------------------------------------


def test_derivative_zero_direction():
    spec = make_spec(beta=0.2, alpha=0.5, op=OperatorSpec(0.2, 0.0, 0.15), stepping="implicit")
    base = SingularControl.constant_rate(0.1, spec.times, spec.grid.n_cells)
    zeta = ControlPerturbation(np.zeros_like(base.cumulative))
    noise = NoisePath.generate(21, spec.n_steps, spec.dt)
    z = derivative_process(spec, base, zeta, noise)
    assert np.all(z.values == 0.0)


def test_derivative_admissibility_guard():
    spec = make_spec()
    base = zero_control(spec)
    inc = np.zeros((spec.n_steps, spec.grid.n_cells))
    inc[0, 0] = -1.0
    zeta = ControlPerturbation.from_increments(inc)
    noise = NoisePath.generate(1, spec.n_steps, spec.dt)
    with pytest.raises(InadmissiblePerturbationError):
        derivative_process(spec, base, zeta, noise)


def fd_error(spec, base, zeta, noise, eps):
    z = derivative_process(spec, base, zeta, noise)
    up = simulate_path(
        spec, SingularControl(base.cumulative + eps * zeta.cumulative), noise
    )
    lo = simulate_path(spec, base, noise)
    diff = (up.values - lo.values) / eps - z.values
    h = spec.grid.h
    return np.max(np.sqrt(h * np.sum(diff[:, 1:-1] ** 2, axis=1)))


def test_derivative_first_order_convergence():
    spec = make_spec(
        op=OperatorSpec(0.2, 0.0, 0.15),
        alpha=0.4,
        beta=0.25,
        lambda0=1.0,
        stepping="implicit",
        horizon=0.4,
        n_steps=80,
    )
    rng = np.random.default_rng(13)
    base = SingularControl.from_increments(
        rng.uniform(0.0, 0.02, (spec.n_steps, spec.grid.n_cells))
    )
    zeta = ControlPerturbation.from_increments(
        rng.uniform(0.0, 0.5, (spec.n_steps, spec.grid.n_cells))
    )
    noise = NoisePath.generate(1234, spec.n_steps, spec.dt)
    e2 = fd_error(spec, base, zeta, noise, 1e-2)
    e3 = fd_error(spec, base, zeta, noise, 1e-3)
    ratio = e2 / e3
    assert 5.0 <= ratio <= 20.0
