"""Golden figures of the acceptance checks.

Every check's value is pinned.  Criteria 08-10 report one derived value
each, but they compute more: the adjoint-formula derivative and its three
finite differences, six J estimates, and the minimum state with its
location.  The acceptance tests record those figures from the library calls
each check makes and compare them, with the check's value, to
``golden_values.json`` at a relative 1e-12.  Criterion 08's value divides a
last-bit shift of its estimates by their 9e-5 gap, so a change that
reorders the forward arithmetic fails there even when every estimate stays
within 1e-12.

Regenerate the file only for a change that is meant to move the numbers,
and say so in CHANGES.md; the script prints the old and new value of every
figure that moved::

    PYTHONPATH=src python tests/golden.py
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path

import numpy as np

from smc import suites

GOLDEN_PATH = Path(__file__).with_name("golden_values.json")
RTOL = 1e-12
# controls of criterion 09, in the order the check estimates them
POLICY_CONTROLS = (
    "policy",
    "scaled-half",
    "time-shifted",
    "masked-right-half",
    "zero",
    "constant-rate",
)


@contextlib.contextmanager
def recording(name: str | None):
    """Collect the return value of every ``suites.<name>`` call made inside the block."""
    calls = []
    if name is None:
        yield calls
        return
    original = getattr(suites, name)

    def wrapper(*args, **kwargs):
        calls.append(original(*args, **kwargs))
        return calls[-1]

    setattr(suites, name, wrapper)
    try:
        yield calls
    finally:
        setattr(suites, name, original)


def derivative_figures(calls) -> dict:
    (cmp,) = calls
    figures = {"adjoint_formula": cmp.adjoint_formula}
    for eps, (estimate, _) in sorted(cmp.finite_difference.items(), reverse=True):
        figures[f"finite_difference[{eps!r}]"] = estimate
    return figures


def policy_figures(calls) -> dict:
    (estimates,) = calls
    assert len(estimates) == len(POLICY_CONTROLS)
    return {f"J[{name}]": est.estimate for name, est in zip(POLICY_CONTROLS, estimates)}


def positivity_figures(calls) -> dict:
    (summary,) = calls
    return {"min_value": summary.min_value, "min_location": list(summary.min_location)}


# criterion key -> (check, the suites call it records, the figures taken from its results);
# a check without a recorded call pins its value only
CHECKS = {
    "criterion_01": (suites.check_penalization_rate, None, None),
    "criterion_02": (suites.check_skorokhod, None, None),
    "criterion_03": (suites.check_contraction, None, None),
    "criterion_04": (suites.check_dualities, None, None),
    "criterion_05": (suites.check_analytic_oracle, None, None),
    "criterion_06": (suites.check_psor_equivalence, None, None),
    "criterion_07": (suites.check_derivative_process, None, None),
    "criterion_08": (
        suites.check_directional_derivative,
        "directional_derivative_J",
        derivative_figures,
    ),
    "criterion_09": (suites.check_policy_optimality, "performance_Js", policy_figures),
    "criterion_10": (suites.check_positivity, "simulate_ensemble", positivity_figures),
    "criterion_11": (suites.check_coercivity, None, None),
}


def figures(key: str, result, calls) -> dict:
    """The check's value and the figures taken from its recorded calls."""
    extra = CHECKS[key][2]
    return {"value": result.value, **(extra(calls) if extra else {})}


def ulps(a: float, b: float) -> int:
    """Number of doubles between ``a`` and ``b`` (for finite values of one sign)."""
    return abs(int(np.float64(a).view(np.int64)) - int(np.float64(b).view(np.int64)))


def mismatches(key: str, observed: dict) -> list[str]:
    """One line per figure of ``key`` that is not within RTOL of its golden value."""
    golden = json.loads(GOLDEN_PATH.read_text())[key]
    if sorted(golden) != sorted(observed):
        return [f"{key}: figures {sorted(observed)} != golden {sorted(golden)}"]
    lines = []
    for name, want in golden.items():
        got = observed[name]
        if isinstance(want, list):
            if list(got) != want:
                lines.append(f"{key}.{name}: {got} != golden {want}")
        elif abs(got - want) > RTOL * abs(want):
            lines.append(
                f"{key}.{name}: {got!r} != golden {want!r} "
                f"(relative {abs(got - want) / abs(want):.2e}, {ulps(got, want)} ulps)"
            )
    return lines


def regenerate() -> dict:
    """Rerun every check, rewrite the file, and print each figure that moved."""
    old = json.loads(GOLDEN_PATH.read_text()) if GOLDEN_PATH.exists() else {}
    values = {}
    for key, (check, call, _) in CHECKS.items():
        with recording(call) as calls:
            result = check()
        values[key] = figures(key, result, calls)
        for name, new in values[key].items():
            before = old.get(key, {}).get(name)
            if before != new:
                print(f"{key}.{name}: {json.dumps(before)} -> {json.dumps(new)}")
    GOLDEN_PATH.write_text(json.dumps(values, indent=2) + "\n")
    return values


if __name__ == "__main__":
    regenerate()
