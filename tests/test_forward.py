import contextlib
import dataclasses
import errno
import itertools
import json
import os
import pickle
import random
import signal
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref
from functools import partial
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smc import control as control_module
from smc import forward, suites
from smc.cli import main
from smc.control import _rewards_pass, directional_derivative_J, performance_J, performance_Js
from smc.errors import (
    ConfigError,
    GridMismatchError,
    InadmissiblePerturbationError,
    NanDetectedError,
)
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
from smc.grid import DIRICHLET_DATA, Field, FieldPath, build_grid
from smc.operators import OperatorSpec, TridiagonalStepper, operator_tridiagonal


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


def _cpus_as_workers():
    """Let SMC_WORKERS, where set, name the allowed CPUs: a fork test forks on any host."""
    allowed = forward._allowed_cpus
    return mock.patch.object(
        forward, "_allowed_cpus", lambda: int(os.environ.get("SMC_WORKERS") or allowed())
    )


@pytest.fixture
def cpus_as_workers():
    with _cpus_as_workers():
        yield


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
        boundary=(1.25, 2.0),
    )
    noise = NoisePath.generate(8, spec.n_steps, spec.dt)
    path = simulate_path(spec, zero_control(spec), noise)
    assert spec.boundary == (1.25, 2.0)
    for k in range(1, spec.n_steps + 1):
        assert path.values[k, 0] == 1.25
        assert path.values[k, -1] == 2.0


def test_prices_are_node_arrays_evaluated_once():
    calls = []

    def price(x):
        calls.append(x)
        return 1.0 + x**2

    spec = make_spec(h10=price, g0=price, cost=1, boundary=None)
    x = spec.grid.nodes
    assert len(calls) == 2 and all(c is x for c in calls)
    np.testing.assert_array_equal(spec.h10, 1.0 + x**2)
    assert not spec.h10.flags.writeable and not spec.g0.flags.writeable
    assert spec.boundary == (1.0, 1.0) and spec.cost == 1.0 and type(spec.cost) is float
    xi = SingularControl.constant_rate(0.1, spec.times, spec.grid.n_cells)
    performance_J(spec, xi, 3, 0)
    assert len(calls) == 2  # no time node evaluates a price again
    # the arrays are the data: a spec rebuilt from its fields or replaced keeps their bits
    for again in (ProblemSpec(**vars(spec)), dataclasses.replace(spec, lambda0=2.0)):
        assert again.h10.tobytes() == spec.h10.tobytes()
        assert again.g0.tobytes() == spec.g0.tobytes() and again.boundary == spec.boundary
    assert make_spec(h10=2.5).h10.tolist() == [2.5] * spec.grid.n_total


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


def _generated(first, count, n_steps, dt):
    """The (n_steps, count) increments of NoisePath.generate, one path at a time."""
    paths = [NoisePath.generate(first + p, n_steps, dt).increments for p in range(count)]
    return np.stack(paths, axis=1)


_EDGE_SEEDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1, 2**100, 2**128 - 1, 2**128, 2**128 + 1, 2**200]
_RANDOM_SEEDS = [random.Random(31).getrandbits(bits) for bits in range(1, 129)]
_RANDOM_SEEDS += [random.Random(bits).getrandbits(128) for bits in range(72)]


@pytest.mark.parametrize("n_steps, dt", [(96, 1 / 96), (5, 0.3)])
def test_bundle_noise_is_default_rng_byte_for_byte(n_steps, dt):
    # one-path bundles at the word edges of SeedSequence, past 2**128, and at 200 random seeds
    # of 1-128 bits, then bundles that cross 2**32, 2**64, a 128-path block and 2**128
    for seed in _EDGE_SEEDS + _RANDOM_SEEDS:
        want = _generated(seed, 1, n_steps, dt)
        assert forward._draw_noise(seed, 1, n_steps, dt).tobytes() == want.tobytes(), seed
    for first, count in [(2**32 - 70, 140), (2**64 - 3, 6), (2**128 - 130, 260), (20250, 300)]:
        want = _generated(first, count, n_steps, dt)
        assert forward._draw_noise(first, count, n_steps, dt).tobytes() == want.tobytes(), first


def test_a_noise_path_owns_its_increments():
    path, drawn = NoisePath.generate(42, 6, 0.1), forward._draw_noise(40, 5, 6, 0.1)
    assert path.increments.tobytes() == drawn[:, 2].tobytes()
    assert path.increments.flags.writeable and path.increments.flags.owndata
    path.increments[:] = 0.0
    assert drawn[:, 2].tobytes() == NoisePath.generate(42, 6, 0.1).increments.tobytes()


def test_a_parallel_call_keeps_no_noise_in_the_caller(monkeypatch, cpus_as_workers):
    # the workers draw their own noise: the caller never holds n_steps * 8 bytes a path, during
    # the call or after it
    monkeypatch.setenv("SMC_WORKERS", "2")
    spec = make_spec(beta=0.3, alpha=0.2, grid=build_grid(0.0, 1.0, 8), n_steps=200)
    n_paths = 2000
    tracemalloc.start()
    try:
        performance_J(spec, zero_control(spec), n_paths, 11)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < n_paths * spec.n_steps * 8 / 4, peak
    assert kept < n_paths * 8, kept


def test_path_seeds_run_past_2_128():
    # default_rng takes any seed >= 0: an ensemble may start below 2**128 and end past it
    spec = make_spec(beta=0.3, n_steps=4)
    top = simulate_ensemble(spec, zero_control(spec), 5, 2**128 - 3)
    for p in (2, 3, 4):
        noise = NoisePath.generate(2**128 - 3 + p, 4, spec.dt)
        path = simulate_path(spec, zero_control(spec), noise)
        assert top.terminal_values[p].tobytes() == path.values[-1].tobytes(), p
    with pytest.raises(ConfigError, match="seed must be >= 0"):
        simulate_ensemble(spec, zero_control(spec), 1, -1)


@settings(max_examples=80)
@given(
    data=st.data(),
    n_cells=st.integers(2, 12),
    n_steps=st.integers(1, 12),
    horizon=st.floats(1e-3, 2.0),
    model=st.tuples(st.floats(0.0, 5.0), st.floats(-2.0, 2.0), st.floats(0.1, 3.0)),
    max_rate=st.floats(0.0, 0.99),
    boundary=st.tuples(st.floats(0.0, 2.0), st.floats(0.0, 2.0)),
)
def test_implicit_steps_keep_the_state_positive_under_the_certificate(
    data, n_cells, n_steps, horizon, model, max_rate, boundary
):
    """An implicit step keeps every interior state positive when the certificate holds.

    M = I - dt A is an M-matrix where |b| <= 2a/h, so M^-1 >= 0 with a positive diagonal; the
    space mean has no negative weight.  From a positive state with nonnegative boundary data
    and alpha >= 0, the right-hand side u_k (1 + beta dB_k - lambda0 dxi_k) + dt alpha G u_k
    + boundary terms is then positive whenever 1 + beta dB_k - lambda0 dxi_k > 0 at every node:
    here lambda0 dxi_k <= max_rate < 1 and |beta dB_k| <= 0.999 (1 - max_rate).
    Crank-Nicolson is outside the certificate: its explicit half step has a negative diagonal
    once dt a / h**2 > 1, so it is not drawn.
    """
    alpha, beta, lambda0 = model
    grid = build_grid(0.0, 1.0, n_cells)
    second_order = np.array(data.draw(st.lists(st.floats(0.0, 2.0), min_size=n_cells,
                                               max_size=n_cells)))
    transport = np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n_cells,
                                            max_size=n_cells)))
    initial = np.array(data.draw(st.lists(st.floats(1e-3, 2.0), min_size=n_cells + 2,
                                          max_size=n_cells + 2)))
    initial[[0, -1]] = boundary
    spec = make_spec(
        grid=grid,
        op=OperatorSpec(second_order, transport * 2.0 * second_order / grid.h, 0.2),
        horizon=horizon,
        n_steps=n_steps,
        alpha=alpha,
        beta=beta,
        lambda0=lambda0,
        stepping="implicit",
        initial=Field(grid, initial, DIRICHLET_DATA),
        boundary=boundary,
    )
    row = st.lists(st.floats(0.0, 1.0), min_size=n_cells, max_size=n_cells)
    charged = data.draw(st.lists(row, min_size=n_steps, max_size=n_steps))
    control = SingularControl.from_increments(np.array(charged) * max_rate / lambda0)
    bound = 0.999 * (1.0 - max_rate) / max(abs(beta), 1e-3)
    db = [bound * t for t in data.draw(st.lists(st.floats(-1.0, 1.0), min_size=n_steps,
                                                max_size=n_steps))]
    path = simulate_path(spec, control, NoisePath(np.array(db), spec.dt))
    assert (path.values[:, 1:-1] > 0.0).all()


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
    assert summary.terminal_values.shape[0] == 5  # one terminal row per path: the path count
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


def test_pointwise_noise_converges_at_strong_order_one_half():
    # the exact solution is exp(beta B_t - beta^2 t / 2) times the beta = 0 solution; the RMS
    # terminal error over 500 paths halves per 4x refinement, strong order 1/2 (Kloeden and
    # Platen 1992, "Numerical Solution of Stochastic Differential Equations").  Band from a
    # sweep over 60 disjoint 500-path sets: ratios 1.83..2.19, mean 2.007, sd 0.07
    grid = build_grid(0.0, 1.0, 30)
    beta, n_paths, seed = 0.5, 500, 0
    errors = []
    for n_steps in (96, 384, 1536):
        quiet = make_spec(
            grid=grid,
            op=OperatorSpec(second_order=0.5, first_order=0.0, theta=0.1),
            horizon=0.12,
            n_steps=n_steps,
            alpha=0.4,
            initial=Field.from_function(grid, lambda x: np.sin(np.pi * x), "dirichlet-zero"),
            boundary=(0.0, 0.0),
        )
        noisy = dataclasses.replace(quiet, beta=beta)
        control = zero_control(quiet)
        base = simulate_path(quiet, control, NoisePath.generate(0, n_steps, quiet.dt)).values[-1]
        terminal = simulate_ensemble(noisy, control, n_paths, seed).terminal_values
        b_end = np.sqrt(quiet.dt) * np.array([
            np.random.default_rng(seed + p).standard_normal(n_steps).sum() for p in range(n_paths)
        ])
        exact = np.exp(beta * b_end - 0.5 * beta**2 * quiet.horizon)[:, None] * base
        errors.append(np.sqrt(np.mean(grid.h * np.sum((terminal - exact)[:, 1:-1] ** 2, axis=1))))
    ratios = np.array(errors[:-1]) / np.array(errors[1:])
    assert np.all((1.6 <= ratios) & (ratios <= 2.4)), (errors, ratios)


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


def _chunked(chunk_size):
    """J's estimators take no chunk_size: a size other than None is given to their engine."""
    engine = _monte_carlo if chunk_size is None else partial(_monte_carlo, chunk_size=chunk_size)
    return mock.patch.object(control_module, "_monte_carlo", engine)


def _performance_outputs(spec, control, n_paths, chunk_size):
    with _chunked(chunk_size):
        estimate = performance_J(spec, control, n_paths, seed=11)
    return [estimate.estimate, estimate.stderr]


def _derivative_outputs(spec, control, n_paths, chunk_size):
    zeta = ControlPerturbation(control.cumulative.copy())
    p = FieldPath(spec.grid, spec.times, np.ones((spec.n_steps + 1, spec.grid.n_total)))
    with _chunked(chunk_size):
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
def test_ensemble_worker_count_does_not_change_results(
    monkeypatch, cpus_as_workers, outputs, n_paths, chunk_sizes
):
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
        lambda spec, xi, chunk: performance_J(spec, xi, 4, 11),  # chunk: given to the engine
        lambda spec, xi, chunk: performance_Js(spec, [xi, xi], 4, 11),
        lambda spec, xi, chunk: simulate_ensemble(spec, xi, 4, 11, chunk_size=chunk),
    ],
    ids=["performance_J", "performance_Js", "simulate_ensemble"],
)
def test_nonpositive_chunk_size_is_rejected(run, chunk_size):
    spec = make_spec()
    with pytest.raises(ValueError, match="chunk_size must be >= 1"), _chunked(chunk_size):
        run(spec, zero_control(spec), chunk_size)


def _problem_with(**kw):
    return lambda: make_spec(**kw)


def _backward_with(**kw):
    return lambda: dataclasses.replace(suites.active_obstacle_spec(20, 5), **kw)


def _nan_field(n_cells, kind):
    """A field on n_cells interior nodes, 1.0 inside and 0.0 on a zero boundary, NaN at one node."""
    grid = build_grid(0.0, 1.0, n_cells)
    values = np.ones(grid.n_total)
    if kind == "dirichlet-zero":
        values[[0, -1]] = 0.0
    values[5] = np.nan
    return Field(grid, values, kind)


@pytest.mark.parametrize(
    "build, name",
    [
        (_problem_with(horizon=np.nan), "horizon"),
        (_problem_with(alpha=np.nan), "alpha"),
        (_problem_with(beta=np.inf), "beta"),
        (_problem_with(lambda0=np.inf), "lambda0"),
        (_problem_with(cost=np.nan), "cost"),
        (_problem_with(boundary=(np.nan, 1.0)), "boundary data"),
        (_problem_with(h10=lambda x: np.where(x > 0.5, np.nan, 1.0)), "h10"),
        (_problem_with(g0=np.inf), "g0"),
        (_problem_with(initial=_nan_field(30, "dirichlet-data")), "initial state"),
        (_backward_with(horizon=np.inf), "horizon"),
        (_backward_with(terminal=_nan_field(20, "dirichlet-zero")), "terminal values"),
        (_backward_with(obstacle=np.where(np.arange(20) == 4, np.nan, 0.0)), "obstacle"),
    ],
    ids=["horizon", "alpha", "beta", "lambda0", "cost", "boundary", "h10", "g0", "initial",
         "backward-horizon", "backward-terminal", "backward-obstacle"],
)
def test_non_finite_problem_data_is_rejected(build, name):
    # a non-finite datum passes every positivity test; unchecked, it ends in a NaN estimate
    with pytest.raises(ValueError, match=f"^{name} must be finite$"):
        build()


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
        cost = np.full(spec.grid.n_cells, spec.cost)
        h1 = spec.h10[1:-1, None] * u[1:-1] - cost[:, None]
        total += h * control_module._node_sum(h1 * control.increments[k][:, None])
    return total + h * control_module._node_sum(spec.g0[1:-1][:, None] * u[1:-1])


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
    # harvest: a price of x and a zero cost; constant-price: constant price and cost
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
    assert peak <= 2**20, peak  # no mask of the control's shape: one would be 3.1 MiB
    assert not control.cumulative.flags.writeable
    assert spans == [slice(0, 0)] * 8000


@pytest.mark.parametrize("broadcast", [False, True])
def test_broadcast_controls_are_checked_and_spanned_as_their_copies(broadcast):
    # a row broadcast is checked on its one row; a column broadcast is an ordinary control
    def control(values, shape=(6, 4)):
        values = np.broadcast_to(values, shape)
        return SingularControl(values if broadcast else values.copy())

    assert control(0.0).spans == [slice(0, 0)] * 5
    ramp = control(np.linspace(0.0, 1.0, 6)[:, None])
    assert ramp.spans == [slice(0, 4)] * 5
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="control must be finite"):
            control(bad)
    with pytest.raises(ValueError, match="start at zero"):
        control(0.5)
    with pytest.raises(ValueError, match="nondecreasing"):
        control(np.linspace(0.0, -1.0, 6)[:, None])


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


def test_parallel_default_chunks_hold_no_more_memory_than_one_4096_path_chunk(
    monkeypatch, cpus_as_workers, tmp_path
):
    # mirrors the benchmark's peak-RSS bound: using every core must not cost memory.  The
    # parallel run has three default chunks, so two are in flight and a larger default
    # chunk (up to the whole run) would show.  Chunks run in forked workers, which inherit
    # the wrapped bundle function: each one traces its own peak into tmp_path, and the bound
    # covers the caller plus every worker.
    spec = suites.harvesting_benchmark()
    control = SingularControl.constant_rate(1.0, spec.times, spec.grid.n_cells)
    map_ordered, restarted = forward.map_ordered, set()

    def map_traced(fn, items):
        def traced(item):
            if os.getpid() not in restarted:  # a worker's first item: forget the caller's trace
                restarted.add(os.getpid())
                tracemalloc.stop()
                tracemalloc.start()
            try:
                return fn(item)
            finally:
                (tmp_path / str(os.getpid())).write_text(str(tracemalloc.get_traced_memory()[1]))

        return map_ordered(traced, items)

    def traced_peak(workers, n_paths, chunk_size=None):
        monkeypatch.setenv("SMC_WORKERS", workers)
        tracemalloc.start()
        try:
            with _chunked(chunk_size):
                performance_J(spec, control, n_paths, seed=3)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    serial = traced_peak("1", 4096, chunk_size=4096)
    restarted.add(os.getpid())  # the caller runs no bundle; if it did, its trace stays whole
    monkeypatch.setattr(forward, "map_ordered", map_traced)
    caller = traced_peak("2", 3 * forward._DEFAULT_CHUNK)
    workers = [int(path.read_text()) for path in tmp_path.iterdir()]
    assert len(workers) == 2
    assert caller + sum(workers) <= 1.15 * serial, (caller, workers, serial)


def test_ensemble_workers_send_back_no_per_path_arrays(monkeypatch, cpus_as_workers, tmp_path):
    # each bundle writes its block sums and terminal states into the caller's shared mappings,
    # so a worker pickles back its bundle's minimum alone, however many paths the bundle has.
    # Forked workers inherit the wrapped pickler: each writes its payload sizes into tmp_path.
    spec = suites.harvesting_benchmark()
    control = SingularControl.constant_rate(1.0, spec.times, spec.grid.n_cells)
    pickled, counter = forward._pickled, itertools.count()

    def recorded(outcome):
        payload = pickled(outcome)
        (tmp_path / f"{os.getpid()}-{next(counter)}").write_text(str(len(payload)))
        return payload

    monkeypatch.setenv("SMC_WORKERS", "2")
    monkeypatch.setattr(forward, "_pickled", recorded)
    n_paths = 3 * forward._DEFAULT_CHUNK
    summary = simulate_ensemble(spec, control, n_paths, seed=3)
    sizes = [int(path.read_text()) for path in tmp_path.iterdir()]
    assert len(sizes) == 4  # four 1536-path bundles, two per worker
    assert max(sizes) < 4096, sizes
    assert summary.terminal_values.shape == (n_paths, spec.grid.n_total)


def test_an_ensemble_beyond_physical_memory_is_refused_before_anything_is_mapped(monkeypatch):
    # 32 nodes and 9 states: n paths map 8 * (9 * 32 * ceil(n / 128) + 32 * n) bytes, against
    # a physical memory patched down to 64 pages of 4 KiB (262144 B)
    spec = make_spec(beta=0.3, n_steps=8)
    pages = {"SC_PHYS_PAGES": 64, "SC_PAGE_SIZE": 4096}
    monkeypatch.setattr(forward.os, "sysconf", pages.__getitem__)
    refused = mock.Mock(side_effect=AssertionError("nothing may be mapped or forked"))
    with mock.patch.object(forward.mmap, "mmap", refused), mock.patch.object(os, "fork", refused):
        with pytest.raises(ConfigError, match="274432 bytes of output") as err:
            simulate_ensemble(spec, zero_control(spec), 1000, seed=0)
    assert err.value.field == "n_paths" and refused.call_count == 0
    summary = simulate_ensemble(spec, zero_control(spec), 900, seed=0)  # 248832 B
    assert summary.terminal_values.shape[0] == 900
    # below the limit, a mapping the system refuses ends the same way
    with mock.patch.object(forward.mmap, "mmap", side_effect=OSError(12, "no memory")):
        with pytest.raises(ConfigError, match="cannot be mapped") as err:
            simulate_ensemble(spec, zero_control(spec), 900, seed=0)
    assert err.value.field == "n_paths"


def test_each_ensemble_call_owns_its_outputs(monkeypatch, cpus_as_workers):
    # the outputs live in mappings made per call: one kept across calls would let the next call
    # write over the results the last one handed out
    spec = make_spec(beta=0.3, n_steps=8)
    shared_floats, made = forward._shared_floats, []

    def recorded(shape, n_paths):
        array = shared_floats(shape, n_paths)
        made.append(weakref.ref(array))
        return array

    monkeypatch.setenv("SMC_WORKERS", "2")
    monkeypatch.setattr(forward, "_shared_floats", recorded)
    first = simulate_ensemble(spec, zero_control(spec), 300, seed=5)
    second = simulate_ensemble(spec, zero_control(spec), 300, seed=5)
    # per call, the block sums are released before it returns; the terminals are handed out
    assert [ref() is None for ref in made] == [True, False, True, False]
    assert made[1]() is first.terminal_values and made[3]() is second.terminal_values
    for a, b in [(first.terminal_values, second.terminal_values),
                 (first.mean_path.values, second.mean_path.values)]:
        assert not np.shares_memory(a, b)
        assert a.tobytes() == b.tobytes()
    kept = pickle.loads(pickle.dumps(second))
    assert kept.terminal_values.tobytes() == second.terminal_values.tobytes()
    assert kept.mean_path.values.tobytes() == second.mean_path.values.tobytes()
    assert (kept.min_value, kept.min_location) == (second.min_value, second.min_location)
    assert first.terminal_values.flags.writeable  # as a stacked array is
    first.terminal_values[0, 0] = -1.0
    assert second.terminal_values[0, 0] == kept.terminal_values[0, 0] != -1.0


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


@contextlib.contextmanager
def _deadline(seconds):
    """Raise TimeoutError in the block once it has run ``seconds``: a hang fails, not stalls."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)  # forked children do not inherit the timer
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize(
    "die, named, dying",
    [
        (partial(os._exit, 3), "exited with status 3", 1),
        (_kill_self, "was killed by SIGKILL", 1),
        # worker 1 runs items 1 and 3: item 3 ends it after it finished its first item
        (partial(os._exit, 4), "exited with status 4", 3),
        (_kill_self, "was killed by SIGKILL", 3),
        (partial(os._exit, 0), "exited with status 0", 3),  # before it sent its outcomes
    ],
    ids=["exit-3", "sigkill", "exit-4-second-item", "sigkill-second-item", "exit-0-second-item"],
)
def test_a_worker_that_dies_raises_in_the_caller_and_leaves_no_process(
    monkeypatch, cpus_as_workers, die, named, dying
):
    monkeypatch.setenv("SMC_WORKERS", "2")

    def bundle(item):
        if item == dying:
            die()
        return item

    with _deadline(1.0), pytest.raises(RuntimeError, match=named):
        forward.map_ordered(bundle, [0, 1, 2, 3])
    with pytest.raises(ChildProcessError):  # every worker is reaped
        os.waitpid(-1, os.WNOHANG)


def test_an_unpicklable_result_comes_back_as_an_error_with_the_worker_traceback(
    monkeypatch, cpus_as_workers
):
    monkeypatch.setenv("SMC_WORKERS", "2")
    with _deadline(5.0), pytest.raises(Exception, match="pickle") as err:
        forward.map_ordered(lambda item: (lambda: item), [0, 1])  # a local lambda: no pickle
    trace = str(err.value.__cause__)
    assert trace.startswith("in a worker process:\nTraceback") and "pickle" in trace
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_map_ordered_leaves_no_descriptor_open(monkeypatch, cpus_as_workers):
    # a success, a worker error and a dying worker each close every pipe end they opened
    monkeypatch.setenv("SMC_WORKERS", "2")

    def bundle(item):
        if item == "raise":
            raise ValueError("in the bundle")
        if item == "die":
            os._exit(3)
        return item

    def open_fds():
        return len(os.listdir("/proc/self/fd"))

    before = open_fds()
    with _deadline(5.0):
        assert forward.map_ordered(bundle, [0, 1, 2]) == [0, 1, 2]
        assert open_fds() == before
        with pytest.raises(ValueError, match="in the bundle"):
            forward.map_ordered(bundle, [0, "raise", 2])
        assert open_fds() == before
        with pytest.raises(RuntimeError, match="exited with status 3"):
            forward.map_ordered(bundle, [0, 1, 2, "die"])
        assert open_fds() == before
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_map_ordered_hands_out_more_indices_than_one_pipe_holds(monkeypatch, cpus_as_workers):
    # each worker sends 10 000 outcomes of about 35 bytes, five times what its 64 KiB result
    # pipe holds, so the caller must read while the workers write
    monkeypatch.setenv("SMC_WORKERS", "2")
    items = range(20_000)
    assert forward.map_ordered(lambda item: 3 * item, items) == [3 * item for item in items]


def test_a_parallel_estimate_forks_its_workers_and_starts_no_thread(monkeypatch, cpus_as_workers):
    spec = make_spec(beta=0.2, alpha=0.3, op=OperatorSpec(0.1, 0.0, 0.2), n_steps=4)
    control = SingularControl.constant_rate(0.1, spec.times, spec.grid.n_cells)
    serial = performance_J(spec, control, 300, seed=1)
    monkeypatch.setenv("SMC_WORKERS", "2")
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    no_thread = mock.patch.object(threading.Thread, "start", side_effect=AssertionError("thread"))
    with _deadline(10.0), no_thread:
        parallel = performance_J(spec, control, 300, seed=1)
    assert len(forks) == 2  # 300 paths: two bundles, one per worker
    assert (parallel.estimate, parallel.stderr) == (serial.estimate, serial.stderr)


def _refused_on_second_call(call: str, errno_: int):
    """``os.<call>`` as it is, but raising OSError(errno_) on its second call."""
    real, calls = getattr(os, call), []

    def refusing():
        calls.append(call)
        if len(calls) == 2:
            raise OSError(errno_, os.strerror(errno_))
        return real()

    return refusing


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="counts /proc/self/fd")
@pytest.mark.parametrize(
    "call, errno_", [("fork", errno.EAGAIN), ("pipe", errno.EMFILE)], ids=["fork", "pipe"]
)
def test_a_refused_fork_or_pipe_is_a_config_error_that_leaves_no_child(
    monkeypatch, cpus_as_workers, capsys, tmp_path, call, errno_
):
    # the second worker cannot be started: the first is killed and reaped, its pipe closed
    monkeypatch.setenv("SMC_WORKERS", "2")
    open_fds = len(os.listdir("/proc/self/fd"))
    monkeypatch.setattr(os, call, _refused_on_second_call(call, errno_))
    with _deadline(10.0), pytest.raises(ConfigError, match="cannot start worker 2 of 2") as err:
        forward.map_ordered(lambda item: item, range(4))
    assert err.value.field == "SMC_WORKERS"
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == open_fds
    monkeypatch.setattr(os, call, _refused_on_second_call(call, errno_))
    config = Path(__file__).parents[1] / "configs" / "harvest.json"
    argv = ["simulate", "--config", str(config), "--paths", "300", "--out", str(tmp_path)]
    assert main(argv) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(
        "configuration error: SMC_WORKERS: cannot start worker 2 of 2: "
    ), lines
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert len(os.listdir("/proc/self/fd")) == open_fds


def test_a_call_forks_no_more_children_than_allowed_cpus(monkeypatch):
    # 64 workers asked for: the workers, so the bundles and the children, follow the CPUs;
    # _fork_map is replaced by an in-process map, so no process starts here
    monkeypatch.setenv("SMC_WORKERS", "64")
    asked = []

    def in_process(fn, items, workers):
        asked.append((workers, len(items)))
        return [forward._apply(fn, item) for item in items]

    monkeypatch.setattr(forward, "_fork_map", in_process)
    spec = make_spec(beta=0.2, n_steps=2)
    performance_J(spec, zero_control(spec), 64 * 128, seed=0)  # four default 2048-path chunks
    allowed = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers = min(64, allowed)
    assert asked == ([(workers, min(64, -(-4 // workers) * workers))] if workers > 1 else [])


@pytest.mark.skipif(forward._allowed_cpus() < 2, reason="forks two workers: needs two CPUs")
def test_a_parallel_cli_run_imports_no_process_pool(tmp_path):
    # numpy.testing, which scipy imports, brings in the concurrent.futures package itself;
    # ProcessPoolExecutor lives in concurrent.futures.process, which imports multiprocessing
    root = Path(__file__).parents[1]
    script = f"""
import json, os, sys
from smc.cli import main
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
code = main(["simulate", "--config", {str(root / "configs" / "harvest.json")!r},
             "--paths", "300", "--out", {str(tmp_path)!r}])
pools = [m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules]
print(json.dumps([code, len(forks), pools]))
"""
    env = {**os.environ, "SMC_WORKERS": "2", "PYTHONPATH": str(root / "src")}
    run = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True,
                         timeout=120)
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == [0, 2, []]


def test_ensemble_nan_reports_offending_seed():
    spec = _exploding_spec()
    with pytest.raises(NanDetectedError) as err:
        simulate_ensemble(spec, zero_control(spec), n_paths=3, seed=100)
    assert err.value.seed in (100, 101, 102)


def test_ensemble_nan_error_crosses_from_workers_unchanged(monkeypatch, cpus_as_workers):
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
def test_exploding_explicit_ensemble_warns_only_cfl(monkeypatch, cpus_as_workers, beta):
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
    monkeypatch, cpus_as_workers, alpha, beta, n_paths, seed, offender
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


def test_worker_warning_reaches_the_caller(monkeypatch, cpus_as_workers):
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


def test_split_run_error_keeps_the_warnings_before_it(monkeypatch, cpus_as_workers):
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
    monkeypatch, cpus_as_workers, workers, n_paths, chunk_size, bundles
):
    monkeypatch.setenv("SMC_WORKERS", workers)
    seen = _record_bundles(monkeypatch)
    spec = make_spec(n_steps=2)
    with _chunked(chunk_size):
        performance_J(spec, zero_control(spec), n_paths, seed=0)
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
    monkeypatch, cpus_as_workers, beta, n_paths, chunking, bundle_counts
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
def test_split_chunk_minimum_is_the_whole_chunks_choice(
    monkeypatch, cpus_as_workers, lows, location
):
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
def test_nan_error_is_the_earliest_of_all_bundles(monkeypatch, cpus_as_workers, fails, offender):
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


def _stacked_states(first, states):
    """A bundle's states, (n_steps + 1, n_total, paths): its reduction in the property below."""
    return np.stack([u for _, u in states])


@settings(max_examples=100)
@given(
    width=st.integers(1, 600),
    n_cells=st.integers(2, 12),
    n_steps=st.integers(1, 5),
    coefficients=st.tuples(st.floats(0.0, 1.0), st.floats(-1.0, 1.0), st.floats(0.05, 0.4)),
    model=st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 0.5), st.floats(0.0, 2.0)),
    stepping=st.sampled_from(["implicit", "crank-nicolson"]),
    seed=st.integers(0, 2**64),
    workers=st.sampled_from(["1", "2"]),
)
@example(width=600, n_cells=6, n_steps=3, coefficients=(0.5, 0.2, 0.1), model=(0.3, 0.2, 1.0),
         stepping="implicit", seed=7, workers="1")  # one 600-path bundle: the sweep
def test_a_single_path_is_its_ensemble_column_bit_for_bit(
    width, n_cells, n_steps, coefficients, model, stepping, seed, workers
):
    # one worker runs a bundle of every path, which crosses SWEEP_MIN_PATHS from 512 on;
    # two cut the paths into narrower bundles
    second_order, first_order, theta = coefficients
    alpha, beta, rate = model
    grid = build_grid(0.0, 1.0, n_cells)
    spec = make_spec(
        grid=grid,
        op=OperatorSpec(second_order, first_order, theta),
        horizon=0.05 * n_steps,
        n_steps=n_steps,
        alpha=alpha,
        beta=beta,
        stepping=stepping,
        initial=Field.from_function(grid, lambda x: 1.0 + x * (1.0 - x)),
        boundary=(1.0, 0.5),
    )
    mask = np.arange(n_cells) % 3 != seed % 3  # a control that charges some rows only
    control = SingularControl.constant_rate(rate, spec.times, n_cells).masked(mask)
    with _cpus_as_workers(), mock.patch.dict(os.environ, {"SMC_WORKERS": workers}):
        (bundles,) = _monte_carlo(spec, [(control, _stacked_states)], width, seed)
    ensemble = np.concatenate(bundles, axis=2)
    for p in sorted({0, seed % width, width - 1}):  # the ends and one column the seed picks
        path = simulate_path(spec, control, NoisePath.generate(seed + p, n_steps, spec.dt))
        assert path.values.tobytes() == ensemble[:, :, p].tobytes(), p


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
@example(n_paths=384, chunk_size=128, other_chunk_size=256, workers=2)  # shares of 2 and 1
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
        with _chunked(chunk_size):
            j = performance_J(spec, control, n_paths, 5)
        summary = simulate_ensemble(spec, control, n_paths, 5, chunk_size)
        path = summary.mean_path
        arrays = (np.concatenate(rewards), j.estimate, j.stderr, path.values, path.times)
        arrays += (summary.terminal_values, summary.positivity, summary.min_value)
        arrays += (summary.min_location, summary.terminal_values.shape)
        return [np.asarray(a).tobytes() for a in arrays]

    with mock.patch.dict(os.environ, {"SMC_WORKERS": "1"}):
        serial = outputs()
    with _cpus_as_workers(), mock.patch.dict(os.environ, {"SMC_WORKERS": str(workers)}):
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
    want = kernel._advance(u, full, spec.boundary)
    with mock.patch.object(kernel, "_forcing", side_effect=AssertionError("forcing built")):
        got = kernel.step(0, u, db, dxi, unforced)
    assert not np.signbit(full).any() and np.signbit(u).any()
    assert got.tobytes() == want.tobytes()


def _reference_advance(kernel, x, forcing, boundary=None):
    """The step as first written: a fresh state and a half step of fresh temporaries."""
    out = np.empty_like(x)
    new = out[1:-1]
    np.add(x[1:-1], forcing, out=new)
    if kernel.spec.stepping == "crank-nicolson":
        a, b, h2, two_h = kernel.generator
        generator = a * (x[2:] - 2.0 * x[1:-1] + x[:-2]) / h2 + b * (x[2:] - x[:-2]) / two_h
        np.add(new, 0.5 * kernel.dt * generator, out=new)
    if boundary is not None:  # the weights from the bands themselves, not from the kernel
        lower, _, upper = operator_tridiagonal(kernel.spec.op, kernel.spec.grid)
        c = (0.5 if kernel.spec.stepping == "crank-nicolson" else 1.0) * kernel.dt
        new[0] += c * lower[0] * boundary[0]
        new[-1] += c * upper[-1] * boundary[1]
    kernel.stepper.solve_in_place(new)
    out[0], out[-1] = boundary or (0.0, 0.0)
    return out


@pytest.mark.parametrize("stepping", ["implicit", "crank-nicolson"])
def test_each_boundary_value_enters_through_its_own_band_entry(stepping):
    # a drift makes the left and right entries differ, so unequal data shows a swap; the
    # reference loop below pins the boundary at -0.0, where any weight gives a zero
    spec = make_spec(op=OperatorSpec(0.5, 3.0, 0.1), horizon=0.05, stepping=stepping,
                     boundary=(1.0, 2.0))
    kernel = forward._Kernel(spec)
    u = spec.initial.values
    want = _reference_advance(kernel, u, 0.0, spec.boundary)
    assert kernel._advance(u, 0.0, spec.boundary).tobytes() == want.tobytes()


@np.errstate(over="ignore", invalid="ignore")
def _reference_path_and_tangent(spec, control, zeta, dw):
    """simulate_path and derivative_process as first written: every state a fresh array."""
    kernel = forward._Kernel(spec)
    u, z = spec.initial.values.copy(), np.zeros(spec.grid.n_total)
    states, tangents = [u], [z]
    for k, (dxi, dzeta) in enumerate(zip(control.increments, zeta.increments)):
        every = slice(None)
        gain, jump = partial(spec.gain_values, u[1:-1]), partial(np.multiply, -spec.lambda0, z[1:-1])
        z_forcing = kernel._forcing(z, dw[k], (gain, dzeta, every), (jump, dxi, every))
        z = _reference_advance(kernel, z, z_forcing)
        rows = control.spans[k]
        if spec.alpha == 0.0 and spec.beta == 0.0 and rows == slice(0, 0):
            forcing = 0.0
        else:
            gain = partial(spec.gain_values, u[1:-1][rows])
            forcing = kernel._forcing(u, dw[k], (gain, dxi, rows))
        u = _reference_advance(kernel, u, forcing, spec.boundary)
        states.append(u)
        tangents.append(z)
    return np.array(states), np.array(tangents)


@pytest.mark.parametrize("forced", [False, True])
@pytest.mark.parametrize("n_cells", [2, 3, 401])
@pytest.mark.parametrize("stepping", ["implicit", "crank-nicolson"])
def test_single_path_in_place_matches_reference_loop_bitwise(stepping, n_cells, forced):
    # -0.0 boundary data and -0.0 initial nodes show a lost +0.0; the forced case charges
    # every third step, so uncharged steps skip their increments between charged ones
    grid = build_grid(0.0, 1.0, n_cells)
    initial = np.sin(np.pi * grid.nodes) + 0.5
    initial[0] = initial[-1] = -0.0
    spec = make_spec(
        grid=grid,
        op=OperatorSpec(0.5, 0.1, 0.2),
        horizon=0.05,
        n_steps=30,
        stepping=stepping,
        initial=Field(grid, initial, "dirichlet-data"),
        boundary=(-0.0, -0.0),
        **(dict(alpha=0.3, beta=0.4) if forced else {}),
    )
    increments = np.zeros((spec.n_steps, n_cells))
    increments[::3, n_cells // 2 :] = 0.01 if forced else 0.0
    control = SingularControl.from_increments(increments)
    zeta = ControlPerturbation.from_increments(np.full_like(increments, 0.02))
    noise = NoisePath.generate(3, spec.n_steps, spec.dt)
    states, tangents = _reference_path_and_tangent(spec, control, zeta, noise.increments)
    assert np.signbit(states[:, 0]).all()
    assert simulate_path(spec, control, noise).values.tobytes() == states.tobytes()
    assert derivative_process(spec, control, zeta, noise).values.tobytes() == tangents.tobytes()


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


@pytest.mark.parametrize("run", ["simulate_path", "derivative_process"])
@pytest.mark.parametrize("extra_steps, dt_factor", [(5, 1.0), (-5, 1.0), (0, 2.0)],
                         ids=["5 steps too long", "5 steps short", "twice the dt"])
def test_a_noise_path_off_the_time_grid_is_a_grid_mismatch(run, extra_steps, dt_factor):
    spec = suites.linear_sensitivity_benchmark()
    noise = NoisePath.generate(3, spec.n_steps + extra_steps, dt_factor * spec.dt)
    base = SingularControl.constant_rate(0.1, spec.times, spec.grid.n_cells)
    with pytest.raises(GridMismatchError, match="noise path .* does not match the time grid"):
        if run == "simulate_path":
            simulate_path(spec, base, noise)
        else:
            derivative_process(spec, base, ControlPerturbation(base.cumulative), noise)


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
