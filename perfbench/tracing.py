"""Spans around public ``smc`` calls, recorded from the benchmark's own code.

``Tracer.install()`` replaces each traced function or method, in every
``smc`` module that binds it, by a wrapper that records one span per call:
its name, wall duration, the time covered by child spans, and the minor
page faults of the calling thread.  ``uninstall()`` puts the originals back.
Spans are kept in memory and summarized once at the end of the run.
"""

from __future__ import annotations

import functools
import os
import resource
import sys
import threading
import time
from dataclasses import dataclass

import numpy as np

from smc import backward, cli, config, control, forward, operators, psor, report

_RUSAGE = getattr(resource, "RUSAGE_THREAD", resource.RUSAGE_SELF)

# span name -> (owner, attribute); the owner is a module or a class
TRACED = {
    "operators.space_mean": (operators.SpaceMeanOperator, "apply"),  # split by input rank
    "forward.noise": (forward.NoisePath, "generate"),
    "forward.step": (forward, "iterate_states"),  # one span per yielded step, split by rank
    "forward.ensemble": (forward, "simulate_ensemble"),
    "backward.solve_penalized": (backward, "solve_penalized"),
    "backward.solve_reflected": (backward, "solve_reflected"),
    "backward.rate": (backward, "penalization_rate"),
    "psor.solve": (psor, "solve_obstacle_psor"),
    "control.extract_policy": (control, "extract_policy"),
    "control.performance_J": (control, "performance_J"),
    "control.directional_derivative": (control, "directional_derivative_J"),
    "report.persist": (report, "persist"),
    "cli.policy": (cli, "main"),
    "config.load": (config, "load_config"),
}

# the names under which spans are reported; operators.space_mean and
# forward.step are split into their bundle (2-D) and vector (1-D) forms
SPAN_NAMES = (
    "operators.space_mean_bundle",
    "operators.space_mean_vec",
    "forward.noise",
    "forward.step_bundle",
    "forward.step_vec",
    "forward.ensemble",
    "backward.solve_penalized",
    "backward.solve_reflected",
    "backward.rate",
    "psor.solve",
    "control.extract_policy",
    "control.performance_J",
    "control.directional_derivative",
    "report.persist",
    "cli.policy",
    "config.load",
)

TAIL_SAMPLES = 10  # the tail percentile leaves at least this many samples above it
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)


@dataclass
class Span:
    name: str
    seconds: float
    child_seconds: float
    minflt: int


class _Open:
    __slots__ = ("start", "minflt", "child")

    def __init__(self):
        self.child = 0.0
        self.minflt = resource.getrusage(_RUSAGE).ru_minflt
        self.start = time.perf_counter()


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.extra: dict[str, float] = {}
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    # -- span recording ------------------------------------------------------

    def _stack(self) -> list[_Open]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def begin(self) -> _Open:
        frame = _Open()
        self._stack().append(frame)
        return frame

    def end(self, frame: _Open, name: str) -> float:
        seconds = time.perf_counter() - frame.start
        minflt = resource.getrusage(_RUSAGE).ru_minflt - frame.minflt
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1].child += seconds
        self.spans.append(Span(name, seconds, frame.child, minflt))
        return seconds

    def add(self, key: str, amount: float) -> None:
        self.extra[key] = self.extra.get(key, 0.0) + amount

    # -- wrappers ------------------------------------------------------------

    def _wrap_call(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer.begin()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(frame, name)
                tracer._after(name, args, kwargs)

        return traced

    def _after(self, name: str, args, kwargs) -> None:
        if name == "backward.solve_penalized":
            spec = args[0] if args else kwargs["spec"]
            self.add("backward.solve_penalized.steps", spec.n_steps)
        elif name == "report.persist":
            directory = args[2] if len(args) > 2 else kwargs["directory"]
            self.add("report.persist.bytes", _directory_bytes(directory))

    def _wrap_space_mean(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(op, values):
            frame = tracer.begin()
            try:
                return fn(op, values)
            finally:
                bundle = np.ndim(values) == 2
                tracer.end(frame, "operators.space_mean_bundle" if bundle else "operators.space_mean_vec")
                if bundle:
                    tracer.add("operators.space_mean_bundle.bytes_computed", np.asarray(values).nbytes)

        return traced

    def _wrap_noise(self, fn):
        tracer = self

        def traced(cls, *args, **kwargs):
            frame = tracer.begin()
            try:
                return fn(cls, *args, **kwargs)
            finally:
                tracer.end(frame, "forward.noise")

        return classmethod(traced)

    def _wrap_steps(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(spec, control, dw, seed=None):
            states = fn(spec, control, dw, seed)
            while True:
                frame = tracer.begin()
                try:
                    k, u = next(states)
                except StopIteration:
                    tracer._stack().pop()
                    return
                except BaseException:
                    tracer._stack().pop()
                    raise
                if k == 0:  # the initial state: kernel set-up, not a step
                    tracer._stack().pop()
                else:
                    bundle = u.ndim == 2
                    tracer.end(frame, "forward.step_bundle" if bundle else "forward.step_vec")
                    if bundle:
                        tracer.extra["forward.step_bundle.width"] = max(
                            tracer.extra.get("forward.step_bundle.width", 0.0), u.shape[1]
                        )
                yield k, u

        return traced

    def install(self) -> None:
        """Wrap every traced call in every ``smc`` module that binds it."""
        for name, (owner, attr) in TRACED.items():
            if isinstance(owner, type):
                original = owner.__dict__[attr]
                if name == "forward.noise":
                    wrapper = self._wrap_noise(original.__func__)
                else:
                    wrapper = self._wrap_space_mean(original)
                self._saved.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            original = getattr(owner, attr)
            if name == "forward.step":
                wrapper = self._wrap_steps(original)
            else:
                wrapper = self._wrap_call(name, original)
            for module in _smc_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._saved.append((module, key, value))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- summary -------------------------------------------------------------

    def summary(self) -> dict[str, tuple[float, str]]:
        """Per span name: calls, total, self, p50 and tail seconds, tail percentile, minflt."""
        by_name: dict[str, list[Span]] = {name: [] for name in SPAN_NAMES}
        for span in self.spans:
            by_name[span.name].append(span)
        out: dict[str, tuple[float, str]] = {}
        for name, spans in by_name.items():
            seconds = np.array([s.seconds for s in spans], dtype=float)
            pct, tail = tail_percentile(seconds)
            out[f"{name}.calls"] = (len(spans), "count")
            out[f"{name}.total_s"] = (float(seconds.sum()), "s")
            out[f"{name}.self_s"] = (float(sum(s.seconds - s.child_seconds for s in spans)), "s")
            out[f"{name}.p50_s"] = (float(np.median(seconds)) if spans else 0.0, "s")
            out[f"{name}.tail_s"] = (tail, "s")
            out[f"{name}.tail_pct"] = (pct, "%")
            out[f"{name}.minflt"] = (sum(s.minflt for s in spans), "count")
        return out


def tail_percentile(samples: np.ndarray) -> tuple[float, float]:
    """Highest ladder percentile with at least TAIL_SAMPLES samples above it.

    With too few samples for any rung the maximum is reported as the 100th
    percentile; with none, both are 0.
    """
    n = samples.size
    if n == 0:
        return 0.0, 0.0
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= TAIL_SAMPLES:
            return pct, float(np.percentile(samples, pct))
    return 100.0, float(samples.max())


def _directory_bytes(directory: str) -> int:
    return sum(entry.stat().st_size for entry in os.scandir(directory) if entry.is_file())


def _smc_modules():
    return [module for key, module in list(sys.modules.items())
            if module is not None and (key == "smc" or key.startswith("smc."))]


def span_cost(repeats: int = 20000) -> float:
    """Seconds one recorded span adds, measured on a wrapped no-op."""
    tracer = Tracer()
    noop = tracer._wrap_call("noop", lambda: None)
    start = time.perf_counter()
    for _ in range(repeats):
        noop()
    traced = time.perf_counter() - start
    plain = lambda: None  # noqa: E731
    start = time.perf_counter()
    for _ in range(repeats):
        plain()
    return max(traced - (time.perf_counter() - start), 0.0) / repeats
