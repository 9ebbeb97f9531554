"""Command-line entry point.

Subcommands:

* ``simulate``  forward Monte Carlo ensemble
* ``adjoint``   assemble and solve the reflected adjoint equation
* ``policy``    extract the threshold harvest policy and check optimality
* ``rate``      penalization-rate study
* ``derivcheck`` derivative-process and directional-derivative consistency
* ``verify``    run a named verification suite

Exit codes: 0 success, 1 failed checks, 2 configuration errors.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .backward import levels_problem, penalization_rate, rate_levels_problem
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="smc",
        description="Singular-control toolkit for space-mean reaction-diffusion dynamics",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str, config_required=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=config_required, help="JSON run configuration")
        p.add_argument("--out", default=None, help="override the output directory")
        return p

    for name, help_text in [
        ("simulate", "run a forward ensemble"),
        ("adjoint", "solve the reflected adjoint"),
        ("policy", "extract and check the harvest policy"),
        ("rate", "penalization-rate study"),
        ("derivcheck", "derivative consistency checks"),
    ]:
        p = add(name, help_text)
        p.add_argument("--seed", type=int, default=None, help="override the configured seed")
        if name in ("simulate", "derivcheck"):
            p.add_argument("--paths", type=int, default=None, help="override the path count")
        else:
            p.add_argument(
                "--levels",
                default=None,
                help="override penalization levels (comma-separated integers)",
            )
    verify = add("verify", "run a named verification suite", config_required=False)
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


def _seed_and_out(config: RunConfig, args) -> tuple[int, str]:
    seed = args.seed if args.seed is not None else config.mc.seed
    if seed < 0:
        raise ConfigError("seed must be >= 0", "--seed")
    return seed, args.out if args.out is not None else config.outputs.directory


def _paths(config: RunConfig, args) -> int:
    n_paths = args.paths if args.paths is not None else config.mc.n_paths
    if n_paths < 1:
        raise ConfigError("path count must be >= 1", "--paths")
    return n_paths


def _new_report(config: RunConfig, seed: int) -> RunReport:
    return RunReport(
        config_echo=config.raw,
        config_hash=config.config_hash,
        version=describe_version(),
        seeds={"root": seed},
    )


def _extract_policy(config: RunConfig, levels: list[int]):
    return extract_policy(
        config.problem,
        levels,
        convention=config.control.convention,
        max_rate=config.control.max_rate,
    )


def _control_path(spec, control: SingularControl) -> FieldPath:
    values = np.zeros((spec.n_steps + 1, spec.grid.n_total))
    values[:, 1:-1] = control.cumulative
    return FieldPath(spec.grid, spec.times, values)


def _cmd_simulate(config: RunConfig, args) -> int:
    seed, out_dir = _seed_and_out(config, args)
    n_paths = _paths(config, args)
    spec = config.problem
    control = SingularControl.zeros(spec.n_steps + 1, spec.grid.n_cells)
    timer = PhaseTimer()
    with timer.time("simulate"):
        summary = simulate_ensemble(spec, control, n_paths, seed)
    report = _new_report(config, seed)
    report.timings = timer.phases
    report.add(
        CheckResult(
            name="positivity",
            value=summary.min_value,
            tolerance=0.0,
            passed=summary.positivity,
            detail=f"min at (seed, t index, node) = {summary.min_location}",
        )
    )
    paths = {"mean_path": summary.mean_path}
    for p in range(min(n_paths, _MAX_PER_PATH_CSV)):
        terminal = FieldPath(
            spec.grid,
            np.asarray([spec.horizon]),
            summary.terminal_values[p][None, :],
        )
        paths[f"terminal_seed{seed + p}"] = terminal
    persist(report, paths, out_dir, config.outputs.formats)
    print(f"simulated {n_paths} paths; positivity={summary.positivity}; outputs in {out_dir}")
    return 0 if report.all_passed else 1


def _cmd_adjoint(config: RunConfig, args) -> int:
    levels = _levels(config, args)
    seed, out_dir = _seed_and_out(config, args)
    policy = _extract_policy(config, levels)
    diag = policy.solution.diagnostics
    bound = suites.SKOROKHOD_BOUND * max(diag.skorokhod_scale, 1e-30)
    report = _new_report(config, seed)
    report.add(
        CheckResult(
            name="skorokhod-residual",
            value=abs(diag.skorokhod_residual),
            tolerance=bound,
            passed=abs(diag.skorokhod_residual) <= bound,
            detail=f"levels {diag.levels}, gaps {['%.2e' % g for g in diag.cauchy_gaps]}",
        )
    )
    paths = {"adjoint_p": policy.p, "reflection_eta": policy.eta}
    persist(report, paths, out_dir, config.outputs.formats)
    print(f"adjoint solved at levels {levels}; outputs in {out_dir}")
    return 0 if report.all_passed else 1


def _cmd_policy(config: RunConfig, args) -> int:
    levels = _levels(config, args)
    seed, out_dir = _seed_and_out(config, args)
    policy = _extract_policy(config, levels)
    rep = policy.report
    report = _new_report(config, seed)
    report.add(
        CheckResult(
            "threshold-slack", rep.threshold_violation_max, rep.threshold_tolerance,
            rep.threshold_pass, f"convention {rep.convention}",
        )
    )
    report.add(
        CheckResult(
            "complementarity", rep.complementarity_residual, rep.complementarity_tolerance,
            rep.complementarity_pass,
        )
    )
    report.add(
        CheckResult(
            "variational-inequality", rep.vi_residual, rep.vi_tolerance, rep.vi_pass,
            f"degenerate coefficient fallback: {policy.degenerate_coefficient}",
        )
    )
    persist(
        report,
        {
            "policy_xi": _control_path(config.problem, policy.xi_hat),
            "adjoint_p": policy.p,
            "reflection_eta": policy.eta,
        },
        out_dir,
        config.outputs.formats,
    )
    for check in report.checks:
        print(check.line())
    return 0 if report.all_passed else 1


def _cmd_rate(config: RunConfig, args) -> int:
    levels = _levels(config, args)
    seed, out_dir = _seed_and_out(config, args)
    adjoint = policy_adjoint(config.problem, config.control.convention)
    study = penalization_rate(adjoint.backward, levels)
    low, high = suites.RATE_BAND
    report = _new_report(config, seed)
    report.add(
        CheckResult(
            name="penalization-rate-slope",
            value=study.slope,
            tolerance=high,
            passed=bool(low <= study.slope <= high),
            detail="; ".join(f"E_{n}={e:.3e}" for n, e in zip(study.levels, study.energies)),
        )
    )
    persist(report, {}, out_dir, config.outputs.formats)
    print(f"levels {list(study.levels)}")
    print(f"energies {[f'{e:.4e}' for e in study.energies]}")
    print(f"log-log slope {study.slope:.4f}")
    return 0 if report.all_passed else 1


def _cmd_derivcheck(config: RunConfig, args) -> int:
    seed, out_dir = _seed_and_out(config, args)
    n_paths = _paths(config, args)
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

    report = _new_report(config, seed)
    report.add(
        CheckResult(
            "derivative-process-ratio", ratio, high, bool(low <= ratio <= high),
            f"errors {errors[1e-2]:.3e} / {errors[1e-3]:.3e}",
        )
    )
    report.add(
        CheckResult(
            "directional-derivative-gap",
            gap,
            suites.SIGMA_BOUND * comb,
            gap <= suites.SIGMA_BOUND * comb,
            f"adjoint {cmp.adjoint_formula:.6f}, "
            f"finite difference {cmp.finite_difference[1e-3][0]:.6f}",
        )
    )
    persist(report, {}, out_dir, config.outputs.formats)
    for check in report.checks:
        print(check.line())
    return 0 if report.all_passed else 1


def _cmd_verify(config: RunConfig | None, args) -> int:
    name = args.suite
    if name not in SUITES:
        print(f"unknown suite {name!r}; choose from {sorted(SUITES)}", file=sys.stderr)
        return 2
    if config is not None:
        report = _new_report(config, config.mc.seed)
        out_dir = args.out if args.out is not None else config.outputs.directory
        formats = config.outputs.formats
    else:
        report = RunReport(
            config_echo={"suite": name},
            config_hash="builtin",
            version=describe_version(),
            seeds={"builtin-benchmarks": "fixed in smc.suites"},
        )
        out_dir = args.out or "out"
        formats = ("csv", "json")
    timer = PhaseTimer()
    for fn in SUITES[name]:
        with timer.time(fn.__name__):
            check = report.add(fn())
        print(check.line())
    report.timings = timer.phases
    persist(report, {}, out_dir, formats)
    failed = [c.name for c in report.checks if not c.passed]
    if failed:
        print(f"FAILED checks: {', '.join(failed)}")
        return 1
    print(f"suite {name!r}: all {len(report.checks)} checks passed")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        worker_count()  # a malformed SMC_WORKERS fails here, before any work
        config = load_config(args.config) if args.config is not None else None
        if args.command == "verify":
            return _cmd_verify(config, args)
        handler = {
            "simulate": _cmd_simulate,
            "adjoint": _cmd_adjoint,
            "policy": _cmd_policy,
            "rate": _cmd_rate,
            "derivcheck": _cmd_derivcheck,
        }[args.command]
        return handler(config, args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except ToolkitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
