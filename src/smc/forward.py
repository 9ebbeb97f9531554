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

import contextlib
import math
import mmap
import os
import pickle
import select
import signal
import sys
import traceback
import warnings
from dataclasses import dataclass
from functools import cached_property, partial
from typing import Callable, Iterator, NoReturn, Sequence

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


def _apply(fn: Callable, item) -> tuple:
    """(result, error, traceback, warning messages) of ``fn(item)``, in a worker."""
    with warnings.catch_warnings(record=True) as caught:
        try:
            outcome = (fn(item), None, None)
        except BaseException as exc:  # sent back, with its traceback, for the caller to raise
            outcome = (None, exc, traceback.format_exc())
    return (*outcome, [w.message for w in caught])


def _pickled(index: int, outcome: tuple) -> bytes:
    try:
        return pickle.dumps((index, outcome))
    except Exception as exc:  # an unpicklable result or error: its pickling error goes instead
        return pickle.dumps((index, (None, exc, traceback.format_exc(), [])))


def _read(fd: int, size: int) -> bytearray:
    """Exactly ``size`` bytes from ``fd``; EOFError if the writer ends first."""
    data = bytearray(size)
    view, got = memoryview(data), 0
    while got < size:
        n = os.readv(fd, [view[got:]])
        if not n:
            raise EOFError
        got += n
    return data


def _serve(fn: Callable, items: Sequence, share: range, results: int, inherited) -> NoReturn:
    """A forked worker: apply ``fn`` to the items its ``share`` of indices names, in order.

    Each outcome goes to ``results`` as an 8-byte length and a pickle of (index, outcome).
    The ``inherited`` descriptors, the caller's ends of this and the earlier children's result
    pipes, are closed first.
    """
    code = 1
    try:
        for fd in inherited:
            os.close(fd)
        for index in share:
            payload = _pickled(index, _apply(fn, items[index]))
            os.write(results, len(payload).to_bytes(8, "little"))
            view = memoryview(payload)
            while view:
                view = view[os.write(results, view):]
        code = 0
    finally:
        for stream in (sys.stdout, sys.stderr):  # what the worker printed: os._exit drops it
            with contextlib.suppress(Exception):
                stream.flush()
        os._exit(code)


def _fork_map(fn: Callable, items: Sequence, workers: int) -> list[tuple]:
    """Each item's ``_apply`` outcome, from ``workers`` children forked here, in input order.

    Child w's share is fixed when it is forked: items w, w + workers, w + 2 * workers, ...,
    run in order.  Each child sends its outcomes back on a pipe of its own and ends when its
    share is done; one that dies first raises RuntimeError here.  On every way out, each child
    left is killed if the call failed, and reaped.
    """
    children: dict[int, int] = {}  # each child's result pipe -> its pid
    outcomes: list = [None] * len(items)
    pending, finished = len(items), False
    for stream in (sys.stdout, sys.stderr):  # or the children print the buffers again
        stream.flush()
    try:
        for w in range(workers):
            reader, writer = os.pipe()
            try:
                if (pid := os.fork()) == 0:
                    _serve(fn, items, range(w, len(items), workers), writer, (reader, *children))
                children[reader] = pid
            except BaseException:
                os.close(reader)
                raise
            finally:
                os.close(writer)
        poller = select.poll()
        for reader in children:
            poller.register(reader, select.POLLIN)
        while pending:
            if not children:
                raise RuntimeError(f"worker processes ended with {pending} items unfinished")
            for reader, _ in poller.poll():
                try:
                    size = int.from_bytes(_read(reader, 8), "little")
                    index, outcome = pickle.loads(_read(reader, size))
                except EOFError:  # the child is gone: it finished its share, or died
                    pid = children[reader]
                    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
                    del children[reader]
                    poller.unregister(reader)
                    os.close(reader)
                    if code < 0:
                        death = f"was killed by {signal.Signals(-code).name}"
                    elif code > 0:
                        death = f"exited with status {code}"
                    else:
                        continue
                    raise RuntimeError(f"worker process {pid} {death}") from None
                outcomes[index] = outcome
                pending -= 1
        finished = True
    finally:
        for reader, pid in children.items():
            if not finished:
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(reader)
    return outcomes


def map_ordered(fn: Callable, items: Sequence) -> list:
    """Apply ``fn`` to items on up to ``worker_count()`` forked processes, in input order.

    Children are forked per call, so they inherit ``fn`` and the items, lambdas and all, and
    each runs a fixed share.  The caller runs no item: its peak memory stays the caller's own.
    """
    workers = min(worker_count(), len(items))
    if workers <= 1 or not hasattr(os, "fork"):
        return [fn(item) for item in items]
    outcomes = _fork_map(fn, items, workers)
    for _, error, trace, caught in outcomes:
        for message in caught:
            warnings.warn(message, stacklevel=2)
        if error is not None:
            raise error from RuntimeError(f"in a worker process:\n{trace}")
    return [result for result, *_ in outcomes]


# ---------------------------------------------------------------------------
# Problem data
# ---------------------------------------------------------------------------


def _require_finite(value, name: str) -> None:
    """ValueError naming ``name`` unless every entry of ``value`` is finite."""
    if not np.isfinite(value).all():
        raise ValueError(f"{name} must be finite")


@dataclass(frozen=True)
class ProblemSpec:
    """Full description of one harvesting control problem.

    ``h10`` is the unit harvest price and ``g0`` the terminal unit price, each
    a constant, a node array or a function of x, held as a read-only array over
    the grid nodes once built; ``cost`` is the unit harvesting cost and
    ``boundary`` the Dirichlet pair (None: the initial field's end values).  No
    datum depends on t.  The model is the harvesting model: the drift is alpha
    times the space mean, the volatility beta times the state, the control gain
    -lambda0 * u and the singular reward density h1 = h10*u - cost.  Gain and
    h1 are affine in u, so the one u-derivative the adjoint needs is stated
    here too: :meth:`singular_slope`.
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
    boundary: tuple[float, float] | None = None
    h10: object = 1.0
    g0: object = 1.0
    cost: float = 0.0

    def __post_init__(self):
        for name in ("horizon", "alpha", "beta", "lambda0", "cost"):
            _require_finite(getattr(self, name), name)
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
        _require_finite(initial.values, "initial state")
        if np.any(initial.interior <= 0.0):
            raise ValueError("initial state must be positive at interior nodes")
        x = self.grid.nodes
        for name in ("h10", "g0"):  # each price at the nodes, once
            price = getattr(self, name)
            price = np.broadcast_to(price(x) if callable(price) else price, x.shape)
            price = np.array(price, dtype=float)  # a copy: the caller's array stays the caller's
            _require_finite(price, name)
            if (price == price[0]).all():  # uniform: a view of one float, as h1_values reads it
                price = np.broadcast_to(price[0], x.shape)
            price.flags.writeable = False
            object.__setattr__(self, name, price)
        if np.any(self.h10 <= 0.0):
            raise ValueError("harvest price h10 must be positive")
        if np.any(self.g0 <= 0.0):
            raise ValueError("terminal price g0 must be positive")
        if self.boundary is None:
            left, right = map(float, initial.values[[0, -1]])
        else:
            left, right = map(float, self.boundary)
            _require_finite((left, right), "boundary data")
        if left < 0.0 or right < 0.0:
            raise ValueError("boundary data must be nonnegative")
        object.__setattr__(self, "boundary", (left, right))
        object.__setattr__(self, "cost", float(self.cost))

    @property
    def dt(self) -> float:
        return self.horizon / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.linspace(0.0, self.horizon, self.n_steps + 1)

    def h1_values(self, u_interior: np.ndarray, out=None, rows=slice(None)) -> np.ndarray:
        """Singular reward density h1 = h10*u - cost at the interior nodes ``rows``, over paths."""
        price = self.h10[1:-1][rows]
        if self.h10.strides[0] == 0:  # one float: numpy multiplies a bundle by a column row by row
            price = float(self.h10[0])
        elif u_interior.ndim == 2:
            price = price[:, None]
        return np.subtract(np.multiply(price, u_interior, out=out), self.cost, out=out)

    def gain_values(self, u_interior: np.ndarray, out=None) -> np.ndarray:
        """Control gain -lambda0 * u at interior nodes (state jump per unit of control)."""
        return np.multiply(-self.lambda0, u_interior, out=out)

    def singular_slope(self, p: np.ndarray) -> np.ndarray:
        """dH1/du = h10 - lambda0 * p on the interior nodes, for H1 = gain * p + h1."""
        return self.h10[1:-1] - self.lambda0 * p


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
        rows = cum[:1] if cum.strides[0] == 0 else cum  # a broadcast row: check it once
        if not np.all(np.isfinite(rows)):
            raise ValueError("control must be finite")
        if np.any(cum[0] != 0.0):
            raise ValueError("control must start at zero")
        object.__setattr__(self, "cumulative", cum)
        if np.any(rows[1:] < rows[:-1]):  # finite: the test increments < 0, without increments
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
        if self.cumulative.strides[0] == 0:  # one broadcast row at every time: no charge
            return [slice(0, 0)] * (self.n_times - 1)
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
        increments = np.random.default_rng(seed).standard_normal(n_steps) * math.sqrt(dt)
        return cls(increments, int(seed), float(dt))


def _draw_noise(seed: int, n_paths: int, n_steps: int, dt: float) -> np.ndarray:
    """The (n_steps, n_paths) increments whose column p is ``NoisePath.generate(seed + p)``'s.

    Each path's ``default_rng`` draws into a row of a _BLOCK-path buffer, which is scaled and
    written into its columns.
    """
    noise = np.empty((n_steps, n_paths))
    block = np.empty((min(_BLOCK, n_paths), n_steps))
    for lo in range(0, n_paths, _BLOCK):
        rows = block[: min(_BLOCK, n_paths - lo)]
        for i, row in enumerate(rows):
            np.random.default_rng(seed + lo + i).standard_normal(out=row)
        noise[:, lo : lo + len(rows)] = np.multiply(rows, math.sqrt(dt), out=rows).T
    return noise


# ---------------------------------------------------------------------------
# Stepping kernel
# ---------------------------------------------------------------------------


class _Kernel:
    """One problem's step operators and step buffers, on (n_total,) or (n_total, n_paths) states.

    A kernel serves one state sequence, so sequences on parallel workers share no buffer.
    Given a ``path``, step k writes its state into row k + 1, else into a fresh array.
    """

    def __init__(self, spec: ProblemSpec, n_paths: int | None = None, path=None):
        self.spec = spec
        self.outs = [None] * spec.n_steps if path is None else path[1:]
        grid = spec.grid
        self.dt = spec.dt
        self.mean_op = _space_mean_operator(grid, spec.op.theta) if spec.alpha != 0.0 else None
        a, b = (c if n_paths is None else c[:, None] for c in spec.op.resolve(grid))
        self.generator = (a, b, grid.h**2, 2.0 * grid.h)
        shape = (grid.n_cells,) if n_paths is None else (grid.n_cells, n_paths)
        self.forcing, self.scratch = np.empty(shape), np.empty(shape)
        self.implicit_weight = 1.0 if spec.stepping == IMPLICIT else 0.5
        self.half_step = np.empty(shape) if spec.stepping == CRANK_NICOLSON else None
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

    def _advance(self, x: np.ndarray, forcing, boundary=None, out=None) -> np.ndarray:
        """State one step after ``x`` under ``forcing``, an array or 0.0 (boundary 0 if None).

        The step builds its right-hand side in the interior of ``out`` (fresh if None, never
        ``x``) and solves it in place; ``forcing`` is left as it is."""
        out = np.empty_like(x) if out is None else out
        new = out[1:-1]
        np.add(x[1:-1], forcing, out=new)
        if self.half_step is not None:
            half_step = interior_generator(x, *self.generator, self.half_step, self.scratch)
            np.add(new, np.multiply(0.5 * self.dt, half_step, out=half_step), out=new)
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
        return self._advance(u, forcing, self.spec.boundary, self.outs[k])

    @np.errstate(over="ignore", invalid="ignore")
    def tangent_step(self, k: int, u: np.ndarray, z: np.ndarray, db, dxi, dzeta) -> np.ndarray:
        """Exact linearization of :meth:`step` in the direction (z, dzeta)."""
        spec = self.spec
        gain = partial(spec.gain_values, u[1:-1])
        jump = partial(np.multiply, -spec.lambda0, z[1:-1])
        every = slice(None)  # z is not checked for finite values, so 0 * z may not vanish
        forcing = self._forcing(z, db, (gain, dzeta, every), (jump, dxi, every))
        return self._advance(z, forcing, out=self.outs[k])


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
    if math.isfinite(u.min()) and math.isfinite(u.max()):
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
    vectorized bundle.  No later step writes a yielded state: a bundle's states
    are fresh arrays, and one path's states are the rows of one
    (n_steps + 1, n_total) array, their common ``base``, which each step writes
    in place.
    """
    _check_control(spec, control)
    n_paths = dw.shape[1] if dw.ndim == 2 else None
    u = _initial_state(spec, n_paths)
    path = None
    if n_paths is None:
        path = np.empty((spec.n_steps + 1, spec.grid.n_total))
        path[0] = u
        u = path[0]
    kernel = _Kernel(spec, n_paths, path)
    cumulative, spans = control.cumulative, control.spans
    held = np.zeros(spec.grid.n_cells)
    yield 0, u
    for k, rows in enumerate(spans):  # increments[k]'s bits: x - x is +0.0 where uncharged
        dxi = cumulative[k + 1] - cumulative[k] if rows.start < rows.stop else held
        u = kernel.step(k, u, dw[k], dxi[:, None] if u.ndim == 2 else dxi, rows)
        _check_finite(u, k + 1, seed)
        yield k + 1, u


def simulate_path(spec: ProblemSpec, control: SingularControl, noise: NoisePath) -> FieldPath:
    """Simulate one path driven by the given noise increments."""
    if noise.increments.shape != (spec.n_steps,):
        raise GridMismatchError("noise path length does not match the time grid")
    if not np.isclose(noise.dt, spec.dt, rtol=1e-12, atol=0.0):
        raise GridMismatchError("noise path dt does not match the time grid")
    for _, u in iterate_states(spec, control, noise.increments):
        pass
    return FieldPath(spec.grid, spec.times, u.base)  # the path whose rows were the states


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


def _check_run(n_paths: int, seed: int, chunk_size: int) -> None:
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    if seed < 0:
        raise ConfigError("seed must be >= 0", "seed")


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
    at most one per block.  A bundle draws its own columns (:func:`_draw_noise`) where it
    runs, so the calling process keeps no noise, and each pass reduces ``iterate_states`` over
    them to ``reduce(first_seed, states)``; bundles may run on parallel workers.  The result
    holds, per pass, its bundle reductions in seed order.  A non-finite state raises the error
    of the earliest (pass, step, path seed), and each distinct warning is issued once.
    """
    _check_run(n_paths, seed, chunk_size)

    def run(bundle: tuple[int, int]) -> list | tuple:
        first, count = bundle
        dw = _draw_noise(first, count, spec.n_steps, spec.dt)
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


def _shared_floats(shape: tuple[int, ...], n_paths: int) -> np.ndarray:
    """A zero float array in an anonymous shared mapping, so forked workers' writes reach here.

    The byte count is a Python int, so no size wraps; one the system refuses is a ConfigError
    naming ``n_paths``.
    """
    nbytes = 8 * math.prod(int(n) for n in shape)
    try:
        mapping = mmap.mmap(-1, nbytes)
    except (OSError, MemoryError, OverflowError) as exc:
        raise ConfigError(f"{n_paths} paths need {nbytes} bytes of output, which cannot be "
                          f"mapped: {exc}", "n_paths") from exc
    return np.frombuffer(mapping, dtype=float).reshape(shape)


# a block sum of finite states may overflow to inf, or to NaN past inf - inf: simulate_ensemble
# reports it
@np.errstate(over="ignore", invalid="ignore")
def _summarize_bundle(
    sums: np.ndarray, terminals: np.ndarray, seed: int, first: int, states: Iterator
) -> tuple:
    """The bundle's (value, step, node, seed) minimum; its block sums and terminals go in place.

    The bundle's paths start ``first - seed`` paths, a whole number of blocks, into the run:
    step k's per-block state sums go into their columns of ``sums[k]``, and the terminal
    states into their rows of ``terminals``.
    """
    offset, key = first - seed, (np.inf, 0, 1, first)
    for k, u in states:
        starts = np.arange(0, u.shape[1], _BLOCK)
        blocks = sums[k, :, offset // _BLOCK : offset // _BLOCK + len(starts)]
        np.add.reduceat(u, starts, axis=1, out=blocks)
        interior = u[1:-1]
        m = float(interior.min())
        if m < key[0]:
            node, path = np.unravel_index(int(np.argmin(interior)), interior.shape)
            key = (m, k, int(node) + 1, first + int(path))
    terminals[offset : offset + u.shape[1]] = u.T
    return key


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
    Each bundle writes its block sums and terminal states in place, into two
    shared mappings made here before any worker forks, and sends back only
    its minimum; the block-sum mapping is released once summed, and the
    terminal one is ``terminal_values``, this call's own.  Output beyond
    physical memory, or that cannot be mapped, raises ConfigError naming
    n_paths before anything is mapped or forked; finite states whose sum
    overflows raise NanDetectedError at the first such step.
    """
    _check_run(n_paths, seed, chunk_size)
    n_total = spec.grid.n_total
    shapes = [(spec.n_steps + 1, n_total, -(-n_paths // _BLOCK)), (n_paths, n_total)]
    nbytes = 8 * sum(math.prod(map(int, shape)) for shape in shapes)
    memory = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    if nbytes > memory:
        raise ConfigError(f"{n_paths} paths need {nbytes} bytes of output, more than the "
                          f"{memory} bytes of physical memory", "n_paths")
    sums, terminals = (_shared_floats(shape, n_paths) for shape in shapes)
    passes = [(control, partial(_summarize_bundle, sums, terminals, seed))]
    (keys,) = _monte_carlo(spec, passes, n_paths, seed, chunk_size)
    min_value, step, node, path_seed = min(keys)
    with np.errstate(over="ignore", invalid="ignore"):
        state_sum = sums.sum(axis=2)
    del passes, sums  # the sums mapping's last references: it is unmapped here
    if not np.isfinite(state_sum).all():
        k = int(np.argmax(~np.isfinite(state_sum).all(axis=1)))
        raise NanDetectedError(f"state sum over the paths overflows at step {k}", step=k)
    return EnsembleSummary(
        mean_path=FieldPath(spec.grid, spec.times, state_sum / n_paths),
        terminal_values=terminals,
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
    values = np.empty((spec.n_steps + 1, spec.grid.n_total))
    values[0] = 0.0
    kernel = _Kernel(spec, path=values)
    xi_inc = base_control.increments
    zeta_inc = perturbation.increments
    dw = noise.increments
    for k, u in iterate_states(spec, base_control, dw):
        if k < spec.n_steps:
            kernel.tangent_step(k, u, values[k], dw[k], xi_inc[k], zeta_inc[k])
    return FieldPath(spec.grid, spec.times, values)
