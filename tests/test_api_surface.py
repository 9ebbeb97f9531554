"""Every settable value of the public API, pinned by name and default.

A parameter with a default, or a CLI flag, is a knob someone may turn.
Adding one, dropping one, or changing what it defaults to must edit this
file, where a reviewer sees it.  perfbench calls ``performance_J``,
``directional_derivative_J(..., epsilons=)`` and ``solve_obstacle_psor(...,
side=)``, so those entries also guard the benchmark's calls.
"""

import argparse
import inspect

import smc
from smc import psor
from smc.cli import _build_parser
from smc.control import Tolerances

DEFAULTS = {
    "BackwardSpec": {
        "driver": None,
        "obstacle": None,
        "reflection_side": "lower",
        "singular": None,
        "use_adjoint_operator": False,
        "allow_terminal_violation": False,
        "time_scheme": "backward-euler",
        "max_fixed_point_iters": 100,
    },
    "Field": {"boundary_kind": "dirichlet-zero"},
    "OperatorSpec": {"second_order": 0.0, "first_order": 0.0, "theta": 0.1},
    "ProblemSpec": {
        "alpha": 0.0,
        "beta": 0.0,
        "lambda0": 1.0,
        "drift_mode": "mean-drift",
        "noise_mode": "pointwise-noise",
        "control_gain_mode": "multiplicative",
        "revenue_mode": None,
        "stepping": "explicit",
        "initial": None,
        "boundary": None,
        "h10": 1.0,
        "g0": 1.0,
        "cost": 0.0,
        "h0": None,
    },
    "Tolerances": {"threshold": 1e-06, "complementarity": 1e-06, "vi": 1e-06},
    "assemble_adjoint": {
        "xi": None,
        "obstacle": None,
        "reflection_side": "lower",
        "allow_terminal_violation": False,
    },
    "check_necessary": {"tolerances": Tolerances(), "convention": "price-floor"},
    "directional_derivative_J": {"epsilons": (0.1, 0.01, 0.001)},
    "extract_policy": {
        "convention": "price-floor",
        "tolerances": Tolerances(),
        "coefficient_floor": 1e-10,
        "max_rate": None,
    },
    "performance_J": {"chunk_size": 2048},
    "performance_Js": {"chunk_size": 2048},
    "psor.solve_obstacle_psor": {"side": "lower"},
    "simulate_ensemble": {"chunk_size": 2048},
    "skorokhod_residual": {"side": "lower", "with_scale": False},
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


def test_cli_flags_are_pinned():
    parser = _build_parser()
    (subparsers,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    flags = {
        command: sorted(flag for a in sub._actions for flag in a.option_strings)
        for command, sub in subparsers.choices.items()
    }
    common = ["--config", "--help", "--levels", "--out", "--paths", "--seed", "-h"]
    commands = ("simulate", "adjoint", "policy", "rate", "derivcheck", "verify")
    assert flags == {command: common for command in commands}
