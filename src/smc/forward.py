"""Euler-Maruyama simulation of the controlled forward dynamics.

The state obeys, node by node,

    du = [A u + alpha * ubar] dt + beta * u dB - lambda0 * u * dxi

with ``ubar`` the windowed space mean, a single Brownian driver shared by
all nodes, and ``xi`` a nondecreasing cumulative harvest measure whose
increment over step k is applied at the end of the step (the recorded state
u(t_k) is always the pre-jump value).  Boundary nodes are pinned to the
prescribed Dirichlet data at every step.

Simulation is deterministic given (spec, control, seed): path p of an
ensemble uses the Gaussian increments of ``NoisePath.generate(seed + p)``,
and the vectorized ensemble kernel reproduces single-path runs bit for bit.
"""

from __future__ import annotations

import math
import os
import traceback
import warnings
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterator, Sequence

import numpy as np

from .errors import (
    ConfigError,
    GridMismatchError,
    InadmissiblePerturbationError,
    NanDetectedError,
)
from .grid import DIRICHLET_DATA, Field, FieldPath, Grid
from .operators import (
    OperatorSpec,
    TridiagonalStepper,
    _space_mean_operator,
    boundary_coupling,
    interior_generator,
)

IMPLICIT = "implicit"
CRANK_NICOLSON = "crank-nicolson"

ENV_WORKERS = "SMC_WORKERS"
# most paths per Monte Carlo bundle; two bundles in flight hold what one 4096-path bundle held
_DEFAULT_CHUNK = 2048
_BLOCK = 128  # paths per block: ensembles sum blocks, so no result shows how bundles cut paths


def worker_count() -> int:
    """Worker cap from SMC_WORKERS: the allowed CPUs if unset or empty, else a positive integer."""
    raw = os.environ.get(ENV_WORKERS, "").strip()
    if not raw:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if not raw.isdecimal() or int(raw) < 1:
        raise ConfigError(f"must be a positive integer, got {raw!r}", ENV_WORKERS)
    return int(raw)


_task: Callable | None = None  # in a forked pool worker, what ``_apply`` applies to an item


def _install(fn: Callable) -> None:
    globals()["_task"] = fn


def _apply(item) -> tuple:
    with warnings.catch_warnings(record=True) as caught:
        try:
            outcome = (_task(item), None, None)
        except Exception as exc:  # sent back, with its traceback, for the caller to raise
            outcome = (None, exc, traceback.format_exc())
    return (*outcome, [w.message for w in caught])


def map_ordered(fn: Callable, items: Sequence) -> list:
    """Apply ``fn`` to items on up to ``worker_count()`` forked processes, in input order."""
    workers = min(worker_count(), len(items))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    from concurrent.futures import ProcessPoolExecutor  # imports multiprocessing: not for serial
    from multiprocessing import get_context
    # forked per call: workers inherit fn as it is now, lambdas and all, which spawn cannot pickle
    with ProcessPoolExecutor(workers, get_context("fork"), _install, (fn,)) as pool:
        outcomes = list(pool.map(_apply, items))
    for _, error, trace, caught in outcomes:
        for message in caught:
            warnings.warn(message, stacklevel=2)
        if error is not None:
            raise error from RuntimeError(f"in a worker process:\n{trace}")
    return [result for result, *_ in outcomes]


# ---------------------------------------------------------------------------
# Problem data
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    """Full description of one harvesting control problem.

    ``h10`` is the unit harvest price, ``cost`` the unit harvesting cost and
    ``g0`` the terminal unit price, each a constant or a function of (t, x)
    (``g0`` is read at t = horizon).  The model is the harvesting model: the
    drift is alpha times the space mean, the volatility beta times the state,
    the control gain -lambda0 * u and the singular reward density
    h1 = h10*u - cost.  Gain and h1 are affine in u, so the one u-derivative
    the adjoint needs is stated here too: :meth:`singular_slope`.
    """

    grid: Grid
    op: OperatorSpec
    horizon: float
    n_steps: int
    alpha: float = 0.0
    beta: float = 0.0
    lambda0: float = 1.0
    stepping: str = IMPLICIT
    initial: Field | None = None
    boundary: object = None
    h10: object = 1.0
    g0: object = 1.0
    cost: object = 0.0

    def __post_init__(self):
        if self.horizon <= 0.0 or self.n_steps < 1:
            raise ValueError("horizon must be positive and n_steps >= 1")
        if self.lambda0 <= 0.0:
            raise ValueError("lambda0 must be positive")
        if self.stepping not in (IMPLICIT, CRANK_NICOLSON):
            raise ValueError(f"unknown stepping mode {self.stepping!r}")
        initial = self.initial
        if initial is None:
            initial = Field(self.grid, np.ones(self.grid.n_total), DIRICHLET_DATA)
            object.__setattr__(self, "initial", initial)
        if not initial.grid.same_as(self.grid):
            raise GridMismatchError("initial field grid differs from problem grid")
        if np.any(initial.interior <= 0.0):
            raise ValueError("initial state must be positive at interior nodes")
        if np.any(self._h10_values(0.0) <= 0.0) or np.any(self._h10_values(self.horizon) <= 0.0):
            raise ValueError("harvest price h10 must be positive")
        if np.any(self._g0_values() <= 0.0):
            raise ValueError("terminal price g0 must be positive")
        left, right = self.boundary_at(0.0)
        if left < 0.0 or right < 0.0:
            raise ValueError("boundary data must be nonnegative")

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def boundary_at(self, t: float) -> tuple[float, float]:
        if self.boundary is None:
            return float(self.initial.values[0]), float(self.initial.values[-1])
        if callable(self.boundary):
            left, right = self.boundary(t)
            return float(left), float(right)
        left, right = self.boundary
        return float(left), float(right)

    def _price_values(self, value, t: float) -> np.ndarray:
        """A price (a constant or a function of (t, x)) at every node, as a fresh array."""
        x = self.grid.nodes
        if callable(value):
            return np.broadcast_to(np.asarray(value(t, x), dtype=float), x.shape).copy()
        return np.full(x.shape, float(value))

    def _h10_values(self, t: float) -> np.ndarray:
        return self._price_values(self.h10, t)

    def _g0_values(self) -> np.ndarray:
        return self._price_values(self.g0, self.horizon)

    def _coefficient(self, value, t: float, rows: slice, u: np.ndarray):
        """A price of (t, x) at interior ``rows``: a float if constant, else shaped to meet u."""
        if not callable(value):
            return float(value)
        values = self._price_values(value, t)[1:-1][rows]
        return values[:, None] if u.ndim == 2 else values

    def h1_values(self, t: float, u_interior: np.ndarray, out=None, rows=slice(None)) -> np.ndarray:
        """Singular reward density h1 = h10*u - cost at the interior nodes ``rows``, over paths."""
        price, cost = (self._coefficient(c, t, rows, u_interior) for c in (self.h10, self.cost))
        return np.subtract(np.multiply(price, u_interior, out=out), cost, out=out)

    def gain_values(self, u_interior: np.ndarray, out=None) -> np.ndarray:
        """Control gain -lambda0 * u at interior nodes (state jump per unit of control)."""
        return np.multiply(-self.lambda0, u_interior, out=out)

    def singular_slope(self, t: float, p: np.ndarray) -> np.ndarray:
        """dH1/du = h10 - lambda0 * p on the interior nodes, for H1 = gain * p + h1."""
        return self._h10_values(t)[1:-1] - self.lambda0 * p


# ---------------------------------------------------------------------------
# Controls and noise
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SingularControl:
    """Cumulative harvest measure xi(t_k, x_i) at interior nodes.

    Nondecreasing in k at every node, with xi(t_0, .) = 0.  Increments over
    step k are xi(t_{k+1}) - xi(t_k).
    """

    cumulative: np.ndarray

    def __post_init__(self):
        cum = np.asarray(self.cumulative, dtype=float)
        if cum.ndim != 2:
            raise ValueError("cumulative control must be 2D (time nodes x interior nodes)")
        if not np.all(np.isfinite(cum)):
            raise ValueError("control must be finite")
        if np.any(cum[0] != 0.0):
            raise ValueError("control must start at zero")
        object.__setattr__(self, "cumulative", cum)
        if np.any(cum[1:] < cum[:-1]):  # finite: the test increments < 0, without increments
            raise ValueError("control must be nondecreasing in time")

    @property
    def n_times(self) -> int:
        return self.cumulative.shape[0]

    @cached_property
    def increments(self) -> np.ndarray:
        """Per step, xi(t_{k+1}) - xi(t_k); built on first read, read-only."""
        increments = np.diff(self.cumulative, axis=0)
        increments.flags.writeable = False
        return increments

    @cached_property
    def spans(self) -> list[slice]:
        """Per step, the interior rows [lo, hi) from its first to its last nonzero increment."""
        charged = self.cumulative[1:] != self.cumulative[:-1]  # finite: a - b == 0 iff a == b
        lo = np.argmax(charged, axis=1)
        hi = charged.shape[1] - np.argmax(charged[:, ::-1], axis=1)
        rows = zip(lo.tolist(), hi.tolist(), charged.any(axis=1).tolist())
        return [slice(a, b) if any_ else slice(0, 0) for a, b, any_ in rows]

    @classmethod
    def zeros(cls, n_times: int, n_interior: int) -> "SingularControl":
        """The zero control: its cumulative is a read-only view of one +0.0, holding no memory."""
        return cls(np.broadcast_to(0.0, (n_times, n_interior)))

    @classmethod
    def from_increments(cls, increments: np.ndarray) -> "SingularControl":
        increments = np.asarray(increments, dtype=float)
        cum = np.vstack([np.zeros((1, increments.shape[1])), np.cumsum(increments, axis=0)])
        return cls(cum)

    @classmethod
    def constant_rate(cls, rate: float, times: np.ndarray, n_interior: int) -> "SingularControl":
        times = np.asarray(times, dtype=float)
        return cls(rate * np.tile(times[:, None], (1, n_interior)))

    def scaled(self, factor: float) -> "SingularControl":
        if factor < 0.0:
            raise ValueError("scale factor must be nonnegative")
        return SingularControl(factor * self.cumulative)

    def time_shifted(self, shift_steps: int) -> "SingularControl":
        """Move all increments ``shift_steps`` steps later; mass shifted past T is dropped."""
        inc = self.increments
        out = np.zeros_like(inc)
        if shift_steps < inc.shape[0]:
            out[shift_steps:] = inc[: inc.shape[0] - shift_steps]
        return SingularControl.from_increments(out)

    def masked(self, mask: np.ndarray) -> "SingularControl":
        return SingularControl(self.cumulative * np.asarray(mask, dtype=float)[None, :])

    def total_mass(self) -> float:
        return float(np.sum(self.cumulative[-1]))


@dataclass(frozen=True)
class ControlPerturbation:
    """Signed finite-variation direction for control derivatives."""

    cumulative: np.ndarray

    def __post_init__(self):
        cum = np.asarray(self.cumulative, dtype=float)
        if cum.ndim != 2 or np.any(cum[0] != 0.0) or not np.all(np.isfinite(cum)):
            raise ValueError("perturbation must be finite, 2D, and start at zero")
        object.__setattr__(self, "cumulative", cum)

    @property
    def increments(self) -> np.ndarray:
        return np.diff(self.cumulative, axis=0)

    @classmethod
    def from_control(cls, control: SingularControl) -> "ControlPerturbation":
        return cls(control.cumulative.copy())

    @classmethod
    def from_increments(cls, increments: np.ndarray) -> "ControlPerturbation":
        increments = np.asarray(increments, dtype=float)
        cum = np.vstack([np.zeros((1, increments.shape[1])), np.cumsum(increments, axis=0)])
        return cls(cum)


def check_admissible_direction(base: SingularControl, zeta: ControlPerturbation) -> None:
    """Require base + eps*zeta to stay a valid control for machine-small eps."""
    if base.cumulative.shape != zeta.cumulative.shape:
        raise GridMismatchError("perturbation shape differs from base control")
    eps = 2.0**-45
    if np.any(base.increments + eps * zeta.increments < 0.0):
        raise InadmissiblePerturbationError(
            "perturbation decreases the control where the base has no mass"
        )


def perturbed_control(
    base: SingularControl, zeta: ControlPerturbation, eps: float
) -> SingularControl:
    return SingularControl(base.cumulative + eps * zeta.cumulative)


@dataclass(frozen=True)
class NoisePath:
    """Gaussian increments of one Brownian path, reproducible from the seed."""

    increments: np.ndarray
    seed: int
    dt: float

    @classmethod
    def generate(cls, seed: int, n_steps: int, dt: float) -> "NoisePath":
        return cls(_path_increments(seed, n_steps, dt), int(seed), float(dt))


def _path_increments(seed: int, n_steps: int, dt: float) -> np.ndarray:
    """The Brownian increments of the path with this seed: sqrt(dt) times standard normals."""
    return np.random.default_rng(seed).standard_normal(n_steps) * math.sqrt(dt)


# ---------------------------------------------------------------------------
# Stepping kernel
# ---------------------------------------------------------------------------


class _Kernel:
    """One problem's step operators and step buffers, on (n_total,) or (n_total, n_paths) states.

    A kernel serves one state sequence, so sequences on parallel workers share no buffer.
    """

    def __init__(self, spec: ProblemSpec, n_paths: int | None = None):
        self.spec = spec
        grid = spec.grid
        self.dt = spec.dt
        self.times = spec.times
        self.mean_op = _space_mean_operator(grid, spec.op.theta) if spec.alpha != 0.0 else None
        a, b = (c if n_paths is None else c[:, None] for c in spec.op.resolve(grid))
        self.generator = (a, b, grid.h**2, 2.0 * grid.h)
        shape = (grid.n_cells,) if n_paths is None else (grid.n_cells, n_paths)
        self.forcing, self.scratch = np.empty(shape), np.empty(shape)
        self.implicit_weight = 1.0 if spec.stepping == IMPLICIT else 0.5
        self.stepper = TridiagonalStepper(spec.op, grid, self.implicit_weight * self.dt)
        self.w_left, self.w_right = boundary_coupling(spec.op, grid)

    def _forcing(self, x: np.ndarray, db, *jumps) -> np.ndarray:
        """dt * drift(x) + vol(x) * db + factor * increment per jump, in the forcing buffer.

        A jump is (factor, increment, rows): it adds into the interior ``rows`` only, where
        ``factor(out)`` writes its values.
        """
        forcing, scratch = self.forcing, self.scratch
        xbar = self.mean_op.apply(x) if self.mean_op is not None else None
        for coef, source, out in ((self.spec.alpha, xbar, forcing), (self.spec.beta, x, scratch)):
            if coef == 0.0:  # +0.0 even where the source is -0.0 or not finite
                out.fill(0.0)
            else:
                np.multiply(coef, source[1:-1], out=out)
        np.multiply(self.dt, forcing, out=forcing)
        np.add(forcing, np.multiply(scratch, db, out=scratch), out=forcing)
        for factor, increment, rows in jumps:
            out, target = scratch[rows], forcing[rows]
            np.add(target, np.multiply(factor(out), increment[rows], out=out), out=target)
        return forcing

    def _advance(self, x: np.ndarray, forcing: np.ndarray, boundary=None) -> np.ndarray:
        """Fresh state one step after ``x`` under ``forcing``, an array or 0.0 (boundary 0 if None).

        The step builds its right-hand side in the new interior and solves it in place.
        """
        out = np.empty_like(x)
        new = out[1:-1]
        np.add(x[1:-1], forcing, out=new)
        if self.spec.stepping == CRANK_NICOLSON:
            half_step = 0.5 * self.dt * interior_generator(x, *self.generator)
            np.add(new, half_step, out=new)
        if boundary is not None:
            c = self.implicit_weight * self.dt
            new[0] += c * self.w_left * boundary[0]
            new[-1] += c * self.w_right * boundary[1]
        self.stepper.solve_in_place(new)
        out[0], out[-1] = boundary or (0.0, 0.0)
        return out

    # a step that overflows warns nothing: _check_finite reports it, typed, right after
    @np.errstate(over="ignore", invalid="ignore")
    def step(self, k: int, u: np.ndarray, db, dxi: np.ndarray, rows=slice(None)) -> np.ndarray:
        """Euler-Maruyama step from t_k; ``db`` is scalar or (n_paths,), ``dxi`` 0 off ``rows``."""
        if self.spec.alpha == 0.0 and self.spec.beta == 0.0 and rows == slice(0, 0):
            forcing = 0.0  # identically +0.0: adding it still turns a -0.0 state into +0.0
        else:
            gain = partial(self.spec.gain_values, u[1:-1][rows])
            forcing = self._forcing(u, db, (gain, dxi, rows))
        return self._advance(u, forcing, self.spec.boundary_at(self.times[k + 1]))

    @np.errstate(over="ignore", invalid="ignore")
    def tangent_step(self, k: int, u: np.ndarray, z: np.ndarray, db, dxi, dzeta) -> np.ndarray:
        """Exact linearization of :meth:`step` in the direction (z, dzeta)."""
        spec = self.spec
        gain = partial(spec.gain_values, u[1:-1])
        jump = partial(np.multiply, -spec.lambda0, z[1:-1])
        every = slice(None)  # z is not checked for finite values, so 0 * z may not vanish
        return self._advance(z, self._forcing(z, db, (gain, dzeta, every), (jump, dxi, every)))


def _initial_state(spec: ProblemSpec, n_paths: int | None) -> np.ndarray:
    u0 = spec.initial.values
    if n_paths is None:
        return u0.copy()
    return np.tile(u0[:, None], (1, n_paths))


def _check_control(spec: ProblemSpec, control: SingularControl) -> None:
    expected = (spec.n_steps + 1, spec.grid.n_cells)
    if control.cumulative.shape != expected:
        raise GridMismatchError(
            f"control shape {control.cumulative.shape} does not match {expected}"
        )


def _check_finite(u: np.ndarray, k: int, seed: int | None) -> None:
    # NaN propagates through both reductions and an infinity shows in one; neither allocates
    if np.isfinite(u.min()) and np.isfinite(u.max()):
        return
    if u.ndim == 2 and seed is not None:
        bad = int(np.argmax(~np.isfinite(u).all(axis=0)))  # the lowest failing path
        raise NanDetectedError(
            f"non-finite state at step {k} (path seed {seed + bad})", step=k, seed=seed + bad
        )
    raise NanDetectedError(f"non-finite state at step {k}", step=k)


def iterate_states(
    spec: ProblemSpec, control: SingularControl, dw: np.ndarray, seed: int | None = None
) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (k, state) at every time node, k = 0 .. n_steps.

    ``dw`` has shape (n_steps,) for one path or (n_steps, n_paths) for a
    vectorized bundle; each yielded state is a fresh array.
    """
    _check_control(spec, control)
    n_paths = dw.shape[1] if dw.ndim == 2 else None
    kernel = _Kernel(spec, n_paths)
    u = _initial_state(spec, n_paths)
    cumulative, spans = control.cumulative, control.spans
    yield 0, u
    for k in range(spec.n_steps):
        dxi = cumulative[k + 1] - cumulative[k]  # increments[k]'s bits, with no increments path
        u = kernel.step(k, u, dw[k], dxi[:, None] if u.ndim == 2 else dxi, spans[k])
        _check_finite(u, k + 1, seed)
        yield k + 1, u


def simulate_path(spec: ProblemSpec, control: SingularControl, noise: NoisePath) -> FieldPath:
    """Simulate one path driven by the given noise increments."""
    if noise.increments.shape != (spec.n_steps,):
        raise GridMismatchError("noise path length does not match the time grid")
    if not np.isclose(noise.dt, spec.dt, rtol=1e-12, atol=0.0):
        raise GridMismatchError("noise path dt does not match the time grid")
    values = np.empty((spec.n_steps + 1, spec.grid.n_total))
    for k, u in iterate_states(spec, control, noise.increments, seed=None):
        values[k] = u
    return FieldPath(spec.grid, spec.times, values)


@dataclass(frozen=True)
class EnsembleSummary:
    """Monte Carlo summary of a forward ensemble."""

    mean_path: FieldPath
    terminal_values: np.ndarray
    positivity: bool
    min_value: float
    min_location: tuple[int, int, int]  # (path seed, time index, node index)
    n_paths: int
    seed: int


def _monte_carlo(
    spec: ProblemSpec,
    passes: Sequence[tuple[SingularControl, Callable[[int, Iterator], object]]],
    n_paths: int,
    seed: int,
    chunk_size: int = _DEFAULT_CHUNK,
) -> list[tuple]:
    """Run every (control, reduce) pass over shared noise, one path bundle at a time.

    Path p is driven by the increments of ``NoisePath.generate(seed + p)``.  A bundle is a
    run of ``max(1, chunk_size // _BLOCK)`` or fewer whole ``_BLOCK``-path blocks counted from
    ``seed``, in the fewest bundles that allows, rounded up to a multiple of the workers but
    at most one per block.  A bundle draws its noise once, and each pass reduces ``iterate_states``
    over it to ``reduce(first_seed, states)``; bundles may run on parallel workers.  The
    result holds, per pass, its bundle reductions in seed order.  A non-finite state raises
    the error of the earliest (pass, step, path seed), and each distinct warning is issued once.
    """
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")

    def run(bundle: tuple[int, int]) -> list | tuple:
        first, count = bundle
        dw = np.empty((spec.n_steps, count))
        for p in range(count):
            dw[:, p] = _path_increments(first + p, spec.n_steps, spec.dt)
        reductions = []
        for xi, reduce in passes:
            try:
                reductions.append(reduce(first, iterate_states(spec, xi, dw, first)))
            except NanDetectedError as exc:  # each bundle runs to its own first failure
                return (len(reductions), exc.step, exc.seed), exc
        return reductions

    n_blocks = -(-n_paths // _BLOCK)
    workers = worker_count() if hasattr(os, "fork") else 1
    count = -(-n_blocks // max(1, chunk_size // _BLOCK))
    count = min(n_blocks, -(-count // workers) * workers)
    edges = [seed + min(n_paths, _BLOCK * (i * n_blocks // count)) for i in range(count + 1)]
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            results = map_ordered(run, [(a, b - a) for a, b in zip(edges, edges[1:])])
    finally:
        for message in {(w.category, str(w.message)): w.message for w in caught}.values():
            warnings.warn(message, stacklevel=2)
    failures = [result for result in results if isinstance(result, tuple)]
    if failures:
        raise min(failures, key=lambda failure: failure[0])[1]
    return list(zip(*results))


# a block sum of finite states may overflow to inf, or to NaN past inf - inf: simulate_ensemble
# reports it
@np.errstate(over="ignore", invalid="ignore")
def _summarize_bundle(first: int, states: Iterator) -> tuple:
    """Per-block state sums per step, terminal states, and the (value, step, node, seed) minimum."""
    sums, key = [], (np.inf, 0, 1, first)
    for k, u in states:
        sums.append(np.add.reduceat(u, np.arange(0, u.shape[1], _BLOCK), axis=1))
        interior = u[1:-1]
        m = float(interior.min())
        if m < key[0]:
            node, path = np.unravel_index(int(np.argmin(interior)), interior.shape)
            key = (m, k, int(node) + 1, first + int(path))
    return np.stack(sums), u.T.copy(), key


def simulate_ensemble(
    spec: ProblemSpec,
    control: SingularControl,
    n_paths: int,
    seed: int,
    chunk_size: int = _DEFAULT_CHUNK,
) -> EnsembleSummary:
    """Simulate paths with seeds seed, seed+1, ... and summarize them.

    The positivity flag records whether the state stayed strictly positive at
    every interior node of every path at every time; the minimum and its
    (seed, time, node) location, the first in step, node and seed order, are
    reported either way.  Bundles of paths may run on parallel workers; the
    mean adds fixed blocks of paths, so no output depends on chunks or workers.
    Finite states whose sum overflows raise NanDetectedError at the first such step.
    """
    passes = [(control, _summarize_bundle)]
    (bundles,) = _monte_carlo(spec, passes, n_paths, seed, chunk_size)
    block_sums, terminals, keys = zip(*bundles)
    min_value, step, node, path_seed = min(keys)
    with np.errstate(over="ignore", invalid="ignore"):
        state_sum = np.concatenate(block_sums, axis=2).sum(axis=2)
    if not np.isfinite(state_sum).all():
        k = int(np.argmax(~np.isfinite(state_sum).all(axis=1)))
        raise NanDetectedError(f"state sum over the paths overflows at step {k}", step=k)
    return EnsembleSummary(
        mean_path=FieldPath(spec.grid, spec.times, state_sum / n_paths),
        terminal_values=np.vstack(terminals),
        positivity=bool(min_value > 0.0),
        min_value=min_value,
        min_location=(path_seed, step, node),
        n_paths=n_paths,
        seed=seed,
    )


def derivative_process(
    spec: ProblemSpec,
    base_control: SingularControl,
    perturbation: ControlPerturbation,
    noise: NoisePath,
) -> FieldPath:
    """Pathwise derivative of the state with respect to the control direction.

    Solves the exact linearization of the simulation scheme along the base
    path driven by the same noise: zero initial data, zero boundary, sources
    gain(u) * dzeta plus the linearized jump term -lambda0 * z * dxi.
    """
    check_admissible_direction(base_control, perturbation)
    kernel = _Kernel(spec)
    z = np.zeros(spec.grid.n_total)
    values = np.empty((spec.n_steps + 1, spec.grid.n_total))
    xi_inc = base_control.increments
    zeta_inc = perturbation.increments
    dw = noise.increments
    for k, u in iterate_states(spec, base_control, dw):
        values[k] = z
        if k < spec.n_steps:
            z = kernel.tangent_step(k, u, z, dw[k], xi_inc[k], zeta_inc[k])
    return FieldPath(spec.grid, spec.times, values)
