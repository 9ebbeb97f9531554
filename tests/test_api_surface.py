"""Every public name and settable value of the API, pinned by name and default.

A public name is something callers may import; a parameter with a default, a
CLI flag, or a parsed configuration value is a knob someone may turn, and a
field of a result record is a fact someone may read.  Adding one, dropping
one, or changing what it defaults to must edit this file, where a reviewer
sees it.  perfbench calls
``performance_J``, ``directional_derivative_J(..., epsilons=)``,
``extract_policy(..., convention=, max_rate=)`` (``max_rate`` required) and
``solve_obstacle_psor(..., side=)``, so those entries also guard the
benchmark's calls.
"""

import argparse
import dataclasses
import inspect

import smc
from smc import backward, config, psor
from smc.cli import _build_parser

# ``smc.__all__``, sorted
PUBLIC_NAMES = [
    "AdjointSpec",
    "BackwardSolution",
    "BackwardSpec",
    "CoercivityReport",
    "ControlPerturbation",
    "DerivativeComparison",
    "EnsembleSummary",
    "Field",
    "FieldPath",
    "Grid",
    "JEstimate",
    "MPReport",
    "NoisePath",
    "OperatorSpec",
    "PolicyResult",
    "ProblemSpec",
    "RateStudy",
    "SingularControl",
    "SpaceMeanOperator",
    "apply_a",
    "apply_a_star",
    "assemble_adjoint",
    "backward",
    "build_grid",
    "check_garding",
    "check_necessary",
    "control",
    "derivative_process",
    "directional_derivative_J",
    "errors",
    "extract_policy",
    "forward",
    "grid",
    "inner_product",
    "norm_h",
    "norm_w",
    "operators",
    "penalization_rate",
    "performance_J",
    "performance_Js",
    "simulate_ensemble",
    "simulate_path",
    "skorokhod_residual",
    "solve_penalized",
    "solve_reflected",
    "space_mean",
    "space_mean_adjoint",
    "space_mean_dual_weight",
]


def test_public_names_are_pinned():
    assert sorted(smc.__all__) == PUBLIC_NAMES


DEFAULTS = {
    "BackwardSpec": {
        "driver": None,
        "obstacle": None,
        "reflection_side": "lower",
        "singular": None,
        "time_scheme": "implicit",
    },
    "Field": {"boundary_kind": "dirichlet-zero"},
    "OperatorSpec": {"second_order": 0.0, "first_order": 0.0, "theta": 0.1},
    "ProblemSpec": {
        "alpha": 0.0,
        "beta": 0.0,
        "lambda0": 1.0,
        "stepping": "implicit",
        "initial": None,
        "boundary": None,
        "h10": 1.0,
        "g0": 1.0,
        "cost": 0.0,
    },
    "assemble_adjoint": {"xi": None},
    "directional_derivative_J": {"epsilons": (0.1, 0.01, 0.001)},
    "extract_policy": {"convention": "price-floor"},
    "psor.solve_obstacle_psor": {"side": "lower"},
    "simulate_ensemble": {"chunk_size": 2048},
    "skorokhod_residual": {"side": "lower"},
}


def _public_callables() -> dict:
    found = {name: getattr(smc, name) for name in smc.__all__ if callable(getattr(smc, name))}
    found["psor.solve_obstacle_psor"] = psor.solve_obstacle_psor
    found["psor.psor_lcp"] = psor.psor_lcp
    return found


def test_defaulted_parameters_are_pinned():
    actual = {}
    for name, obj in _public_callables().items():
        params = inspect.signature(obj).parameters.values()
        defaults = {p.name: p.default for p in params if p.default is not inspect.Parameter.empty}
        if defaults:
            actual[name] = defaults
    assert actual == DEFAULTS


# the flags each subcommand's handler reads, help excluded
CLI_FLAGS = {
    "simulate": ["--config", "--out", "--paths", "--seed"],
    "adjoint": ["--config", "--levels", "--out", "--seed"],
    "policy": ["--config", "--levels", "--out", "--seed"],
    "rate": ["--config", "--levels", "--out", "--seed"],
    "derivcheck": ["--config", "--out", "--paths", "--seed"],
    "verify": ["--config", "--out"],
}


def test_cli_flags_are_pinned():
    parser = _build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        command: sorted(
            flag
            for a in sub._actions
            if not isinstance(a, argparse._HelpAction)
            for flag in a.option_strings
        )
        for command, sub in subparsers.choices.items()
    }
    assert flags == CLI_FLAGS


# the parsed configuration, walked through the config module's own dataclasses
RUN_CONFIG_FIELDS = {
    "problem": "ProblemSpec",
    "backward": {"levels": "tuple[int, ...]"},
    "control": {"max_rate": "float"},
    "mc": {"n_paths": "int", "seed": "int"},
    "outputs": {"directory": "str", "formats": "tuple[str, ...]"},
    "raw": "dict",
    "config_hash": "str",
}


def _field_tree(cls) -> dict:
    tree = {}
    for f in dataclasses.fields(cls):
        inner = getattr(config, f.type, None)  # annotations are strings in smc.config
        own = dataclasses.is_dataclass(inner) and inner.__module__ == config.__name__
        tree[f.name] = _field_tree(inner) if own else f.type
    return tree


def test_run_config_fields_are_pinned():
    assert _field_tree(config.RunConfig) == RUN_CONFIG_FIELDS


# the fields of every public result record, in declaration order, with their annotations
RESULT_FIELDS = {
    "MPReport": {
        "threshold_violation_max": "float",
        "complementarity_residual": "float",
        "vi_residual": "float",
    },
    "PolicyResult": {
        "xi_hat": "SingularControl",
        "p": "FieldPath",
        "report": "MPReport",
        "solution": "BackwardSolution",
    },
    "JEstimate": {"estimate": "float", "stderr": "float"},
    "DerivativeComparison": {
        "adjoint_formula": "float",
        "adjoint_stderr": "float",
        "finite_difference": "dict[float, tuple[float, float]]",
    },
    "EnsembleSummary": {
        "mean_path": "FieldPath",
        "terminal_values": "np.ndarray",
        "positivity": "bool",
        "min_value": "float",
        "min_location": "tuple[int, int, int]",
        "n_paths": "int",
        "seed": "int",
    },
    "BackwardSolution": {
        "y": "FieldPath",
        "eta": "FieldPath",
        "diagnostics": "SolutionDiagnostics",
    },
    "SolutionDiagnostics": {
        "skorokhod_residual": "float",
        "skorokhod_scale": "float",
        "min_gap": "float",
        "levels": "tuple[int, ...]",
        "cauchy_gaps": "tuple[float, ...]",
    },
    "RateStudy": {"levels": "tuple[int, ...]", "energies": "tuple[float, ...]", "slope": "float"},
    "CoercivityReport": {"alpha": "float", "lam": "float", "satisfied": "bool", "gamma": "float"},
}


def test_result_record_fields_are_pinned():
    records = {name: getattr(smc, name, None) for name in RESULT_FIELDS}
    records["SolutionDiagnostics"] = backward.SolutionDiagnostics
    actual = {name: [(f.name, f.type) for f in dataclasses.fields(c)] for name, c in records.items()}
    assert actual == {name: list(fields.items()) for name, fields in RESULT_FIELDS.items()}
    assert smc.MPReport.TOLERANCE == 1e-6  # the one bound on every optimality residual
