"""Command-line entry point.

Subcommands:

* ``simulate``  forward Monte Carlo ensemble
* ``adjoint``   assemble and solve the reflected adjoint equation
* ``policy``    extract the threshold harvest policy and check optimality
* ``rate``      penalization-rate study
* ``derivcheck`` derivative-process and directional-derivative consistency
* ``verify``    run a named verification suite

A subcommand's handler only computes its checks, field paths and lines to
print; :func:`_run` times it, persists the report, prints and picks the exit code.

Exit codes: 0 success, 1 failed checks, 2 configuration errors (running out of memory
among them).
"""

from __future__ import annotations

import argparse
import contextlib
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .backward import levels_problem, penalization_rate, rate_levels_problem, solve_reflected
from .config import RunConfig, load_config
from .control import extract_policy, policy_adjoint
from .errors import ConfigError, ToolkitError
from .forward import (
    ControlPerturbation,
    NoisePath,
    SingularControl,
    simulate_ensemble,
    worker_count,
)
from .grid import FieldPath
from .report import CheckResult, PhaseTimer, RunReport, describe_version, persist
from . import suites
from .suites import SUITES, derivative_process_errors, directional_derivative_gap

_MAX_PER_PATH_CSV = 20


@dataclass(frozen=True)
class _Outcome:
    """What a handler computed: its checks, the field paths to write, the lines to print."""

    checks: list[CheckResult]
    paths: dict[str, FieldPath]
    lines: list[str]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smc",
        description="Singular-control toolkit for space-mean reaction-diffusion dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, handler, help_text in [
        ("simulate", _cmd_simulate, "run a forward ensemble"),
        ("adjoint", _cmd_adjoint, "solve the reflected adjoint"),
        ("policy", _cmd_policy, "extract and check the harvest policy"),
        ("rate", _cmd_rate, "penalization-rate study"),
        ("derivcheck", _cmd_derivcheck, "derivative consistency checks"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(handler=handler)
        p.add_argument("--config", required=True, help="JSON run configuration")
        p.add_argument("--out", default=None, help="override the output directory")
        if name in ("simulate", "derivcheck"):  # the subcommands that draw noise
            p.add_argument("--seed", type=int, default=None, help="override the configured seed")
            p.add_argument("--paths", type=int, default=None, help="override the path count")
        else:
            p.add_argument(
                "--levels",
                default=None,
                help="override penalization levels (comma-separated integers)",
            )
    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("--out", default=None, help="override the output directory")
    verify.add_argument(
        "suite",
        nargs="?",
        default="all",
        help=f"suite name ({', '.join(sorted(SUITES))})",
    )
    return parser


def _parse_levels(raw: str) -> list[int]:
    try:
        levels = [int(tok) for tok in raw.split(",") if tok.strip()]
    except ValueError:
        raise ConfigError("levels must be comma-separated integers", "--levels")
    if problem := levels_problem(levels):
        raise ConfigError(problem, "--levels")
    return levels


def _levels(config: RunConfig, args) -> list[int]:
    levels = list(config.backward.levels)
    if args.levels is not None:
        levels = _parse_levels(args.levels)
    if args.command == "rate" and (problem := rate_levels_problem(levels)):
        raise ConfigError(problem, "--levels" if args.levels is not None else "backward.levels")
    return levels


def _paths(config: RunConfig, args) -> int:
    n_paths = args.paths if args.paths is not None else config.mc.n_paths
    if n_paths < 1:
        raise ConfigError("path count must be >= 1", "--paths")
    return n_paths


def _control_path(spec, control: SingularControl) -> FieldPath:
    values = np.zeros((spec.n_steps + 1, spec.grid.n_total))
    values[:, 1:-1] = control.cumulative
    return FieldPath(spec.grid, spec.times, values)


def _cmd_simulate(config: RunConfig, args, out_dir: str) -> _Outcome:
    n_paths, seed = _paths(config, args), args.seed
    spec = config.problem
    control = SingularControl.zeros(spec.n_steps + 1, spec.grid.n_cells)
    summary = simulate_ensemble(spec, control, n_paths, seed)
    positivity = CheckResult(
        name="positivity",
        value=summary.min_value,
        tolerance=0.0,
        passed=summary.positivity,
        detail=f"min at (seed, t index, node) = {summary.min_location}",
    )
    paths = {"mean_path": summary.mean_path}
    for p in range(min(n_paths, _MAX_PER_PATH_CSV)):
        terminal = summary.terminal_values[p][None, :]
        paths[f"terminal_seed{seed + p}"] = FieldPath(spec.grid, [spec.horizon], terminal)
    line = f"simulated {n_paths} paths; positivity={summary.positivity}; outputs in {out_dir}"
    return _Outcome([positivity], paths, [line])


def _cmd_adjoint(config: RunConfig, args, out_dir: str) -> _Outcome:
    levels = _levels(config, args)
    adjoint = policy_adjoint(config.problem)
    solution = solve_reflected(adjoint.backward, levels)
    diag = solution.diagnostics
    bound = suites.SKOROKHOD_BOUND * max(diag.skorokhod_scale, 1e-30)
    residual = CheckResult(
        name="skorokhod-residual",
        value=abs(diag.skorokhod_residual),
        tolerance=bound,
        passed=abs(diag.skorokhod_residual) <= bound,
        detail=f"levels {tuple(levels)}, gaps {['%.2e' % g for g in diag.cauchy_gaps]}",
    )
    paths = {"adjoint_p": solution.y, "reflection_eta": solution.eta}
    return _Outcome([residual], paths, [f"adjoint solved at levels {levels}; outputs in {out_dir}"])


def _cmd_policy(config: RunConfig, args, out_dir: str) -> _Outcome:
    policy = extract_policy(config.problem, _levels(config, args), max_rate=config.control.max_rate)
    rep = policy.report
    tol = rep.TOLERANCE
    increments = policy.xi_hat.increments
    checks = [
        CheckResult("threshold-slack", rep.threshold_violation_max, tol, rep.threshold_pass),
        CheckResult("complementarity", rep.complementarity_residual, tol, rep.complementarity_pass),
        CheckResult(
            "variational-inequality", rep.vi_residual, tol, rep.vi_pass,
            f"contact set: {np.count_nonzero(increments)} of {increments.size} step-node cells",
        ),
    ]
    paths = {
        "policy_xi": _control_path(config.problem, policy.xi_hat),
        "adjoint_p": policy.p,
        "reflection_eta": policy.solution.eta,
    }
    return _Outcome(checks, paths, [check.line() for check in checks])


def _cmd_rate(config: RunConfig, args, out_dir: str) -> _Outcome:
    levels = _levels(config, args)
    adjoint = policy_adjoint(config.problem)
    study = penalization_rate(adjoint.backward, levels)
    low, high = suites.RATE_BAND
    slope = CheckResult(
        name="penalization-rate-slope",
        value=study.slope,
        tolerance=high,
        passed=bool(low <= study.slope <= high),
        detail="; ".join(f"E_{n}={e:.3e}" for n, e in zip(levels, study.energies)),
    )
    lines = [
        f"levels {levels}",
        f"energies {[f'{e:.4e}' for e in study.energies]}",
        f"log-log slope {study.slope:.4f}",
    ]
    return _Outcome([slope], {}, lines)


def _cmd_derivcheck(config: RunConfig, args, out_dir: str) -> _Outcome:
    n_paths, seed = _paths(config, args), args.seed
    spec = config.problem
    rng = np.random.default_rng(seed)
    base = SingularControl.constant_rate(0.05, spec.times, spec.grid.n_cells)
    zeta = ControlPerturbation.from_increments(
        rng.uniform(0.0, 1.0, (spec.n_steps, spec.grid.n_cells)) * spec.dt
    )
    noise = NoisePath.generate(seed, spec.n_steps, spec.dt)
    errors = derivative_process_errors(spec, base, zeta, noise)
    ratio = errors[1e-2] / max(errors[1e-3], 1e-300)
    cmp, gap, comb = directional_derivative_gap(spec, base, zeta, n_paths, seed)
    low, high = suites.RATIO_BAND
    checks = [
        CheckResult(
            "derivative-process-ratio", ratio, high, bool(low <= ratio <= high),
            f"errors {errors[1e-2]:.3e} / {errors[1e-3]:.3e}",
        ),
        CheckResult(
            "directional-derivative-gap",
            gap,
            suites.SIGMA_BOUND * comb,
            gap <= suites.SIGMA_BOUND * comb,
            f"adjoint {cmp.adjoint_formula:.6g}, "
            f"finite difference {cmp.finite_difference[1e-3][0]:.6g}",
        ),
    ]
    return _Outcome(checks, {}, [check.line() for check in checks])


def _cmd_verify(name: str, timer: PhaseTimer) -> _Outcome:
    if name not in SUITES:
        raise ConfigError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    checks = []
    for fn in SUITES[name]:
        with timer.time(fn.__name__):
            checks.append(fn())
    failed = [c.name for c in checks if not c.passed]
    if failed:
        last = f"FAILED checks: {', '.join(failed)}"
    else:
        last = f"suite {name!r}: all {len(checks)} checks passed"
    return _Outcome(checks, {}, [check.line() for check in checks] + [last])


def _make_directory(out_dir: str, field: str) -> list[Path]:
    """Make ``out_dir`` and its missing parents, and return those it made, deepest first.

    One that cannot be made is a ConfigError at ``field``, raised before any handler runs.
    """
    path = Path(out_dir)
    try:
        missing = [p for p in (path, *path.parents) if not p.exists()]
        path.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the name
        raise ConfigError(f"cannot make output directory {out_dir!r}: {exc}", field) from exc
    return missing


def _run(config: RunConfig | None, args) -> int:
    """Time the subcommand's handler, persist its report and fields, print, pick the exit code.

    ``verify`` reads no config: its report is the builtin one, and it times each check
    as a phase.  Any other subcommand is one phase named after it, and its report
    records a root seed only if it draws noise.
    The output directory is made before the handler runs, and removed again if the handler
    fails; a file that cannot be written there is a ConfigError.
    """
    if config is None:
        echo, config_hash = {"suite": args.suite}, "builtin"
        seeds = {"builtin-benchmarks": "fixed in smc.suites"}
        out_dir, formats = "out", ("csv", "json")
    else:
        echo, config_hash, seeds = config.raw, config.config_hash, {}
        if hasattr(args, "seed"):  # a subcommand that draws noise: its handler reads args.seed
            args.seed = config.mc.seed if args.seed is None else args.seed
            if args.seed < 0:
                raise ConfigError("seed must be >= 0", "--seed")
            seeds = {"root": args.seed}
        out_dir, formats = config.outputs.directory, config.outputs.formats
    out_dir = args.out if args.out is not None else out_dir
    field = "--out" if args.out is not None else "outputs.directory"
    made = _make_directory(out_dir, field)
    timer = PhaseTimer()
    try:
        if args.command == "verify":
            outcome = _cmd_verify(args.suite, timer)
        else:
            with timer.time(args.command):
                outcome = args.handler(config, args, out_dir)
    except BaseException:  # a run that ends in its handler leaves no directory it made
        for directory in made:
            with contextlib.suppress(OSError):
                directory.rmdir()
        raise
    report = RunReport(echo, config_hash, describe_version(), outcome.checks, seeds, timer.phases)
    try:
        persist(report, outcome.paths, out_dir, formats)
    except OSError as exc:  # say, a directory holds an output file's name
        raise ConfigError(f"cannot write to output directory {out_dir!r}: {exc}", field) from exc
    for line in outcome.lines:
        print(line)
    return 0 if report.all_passed else 1


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    config = None
    try:
        worker_count()  # a malformed SMC_WORKERS fails here, before any work
        config = None if args.command == "verify" else load_config(args.config)
        return _run(config, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:  # numpy's _ArrayMemoryError too
        sizes = "" if config is None else (
            f" at problem.grid.n_cells {config.problem.grid.n_cells}"
            f" and problem.time.n_steps {config.problem.n_steps}"
        )
        print(f"configuration error: out of memory{sizes}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
