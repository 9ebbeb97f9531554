"""Acceptance suite: one test per criterion, each printing its verdict line.

Run with ``pytest -s tests/test_acceptance.py`` to see every line, or via the
CLI as ``smc verify all``.

Criterion 1 is implemented faithfully and is expected to FAIL: the
penalized violation amplitude on the pinned benchmark scales like
1/(n + mu) with mu = pi^2/2, so the log-log slope measured over levels
4..256 sits near -1.5, outside the stated band [-2.3, -1.7].  The same
study over an asymptotic window (levels 256..4096) lands on the proven
1/n^2 rate; that diagnostic is included in the check detail.

Every check compares its value, and criteria 08-10 the figures behind
their values, with ``golden_values.json`` (see ``golden.py``) before the
check's own verdict is asserted, so criterion 1's value is pinned too.
"""

import golden


def _run(check):
    result = check()
    print()
    print(result.line())
    return result


def _run_golden(key):
    check, call, _ = golden.CHECKS[key]
    with golden.recording(call) as calls:
        result = _run(check)
    mismatches = golden.mismatches(key, golden.figures(key, result, calls))
    assert not mismatches, "\n".join(mismatches)
    assert result.passed, result.detail


def test_criterion_01_penalization_rate():
    _run_golden("criterion_01")


def test_criterion_02_skorokhod_complementarity():
    _run_golden("criterion_02")


def test_criterion_03_space_mean_contraction():
    _run_golden("criterion_03")


def test_criterion_04_operator_dualities():
    _run_golden("criterion_04")


def test_criterion_05_analytic_oracle():
    _run_golden("criterion_05")


def test_criterion_06_psor_equivalence():
    _run_golden("criterion_06")


def test_criterion_07_derivative_process():
    _run_golden("criterion_07")


def test_criterion_08_directional_derivative():
    _run_golden("criterion_08")


def test_criterion_09_policy_optimality():
    _run_golden("criterion_09")


def test_criterion_10_state_positivity():
    _run_golden("criterion_10")


def test_criterion_11_coercivity():
    _run_golden("criterion_11")
