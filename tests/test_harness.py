import contextlib
import copy
import hashlib
import io
import json
import math
import os
import pickle
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from smc import forward, suites
from smc.backward import penalization_rate, solve_reflected
from smc.cli import main
from smc.config import canonical_hash, load_config, parse_config
from smc.control import policy_adjoint
from smc import errors
from smc.errors import ConfigError, NanDetectedError, ParseError, ValidationError
from smc.forward import worker_count
from smc.grid import FieldPath, build_grid
from smc.report import CheckResult, PhaseTimer, RunReport, persist, write_field_path_csv


def minimal_config(**overrides):
    raw = {
        "schema_version": 1,
        "problem": {
            "grid": {"x_min": 0.0, "x_max": 1.0, "n_cells": 20},
            "operator": {"second_order": 0.5, "first_order": 0.0, "theta": 0.1},
            "time": {"horizon": 0.1, "n_steps": 50},
            "model": {"alpha": 0.2, "beta": 0.1, "lambda0": 1.0},
            "modes": {"stepping": "implicit"},
            "initial": {"kind": "sine", "amplitude": 1.0},
            "boundary": {"left": 0.0, "right": 0.0},
            "prices": {"h10": 1.0, "g0": 1.0},
        },
        "mc": {"n_paths": 8, "seed": 7},
        "outputs": {"directory": "out", "formats": ["csv", "json"]},
    }
    raw.update(overrides)
    return raw


def test_minimal_config_defaults():
    cfg = parse_config(minimal_config())
    assert cfg.problem.dt == pytest.approx(0.002)
    assert cfg.backward.levels == (4, 16, 64, 256)
    assert cfg.control.max_rate == 0.9
    assert cfg.mc.seed == 7


def test_config_without_modes_takes_the_engine_mode_constants():
    raw = minimal_config()
    del raw["problem"]["modes"]
    assert parse_config(raw).problem.stepping == forward.IMPLICIT


def test_config_without_initial_takes_the_problem_spec_default():
    raw = minimal_config()
    del raw["problem"]["initial"]
    initial = parse_config(raw).problem.initial
    np.testing.assert_array_equal(initial.values, 1.0)
    assert initial.boundary_kind == "dirichlet-data"


def test_unknown_key_rejected_with_path():
    raw = minimal_config()
    raw["modle"] = {}
    with pytest.raises(ValidationError) as err:
        parse_config(raw)
    assert "modle" in str(err.value)


def test_nested_unknown_key_named():
    raw = minimal_config()
    raw["problem"]["grid"]["n_cell"] = 10
    with pytest.raises(ValidationError) as err:
        parse_config(raw)
    assert "problem.grid.n_cell" in str(err.value)


def test_negative_theta_names_field():
    raw = minimal_config()
    raw["problem"]["operator"]["theta"] = -0.1
    with pytest.raises(ValidationError) as err:
        parse_config(raw)
    assert "problem.operator.theta" in str(err.value)


def test_pocket_terminal_price_loads_and_is_read_at_the_nodes():
    raw = minimal_config()
    pocket = {"kind": "pocket", "base": 0.5, "amplitude": 2.0, "center": 0.4, "width": 0.2}
    raw["problem"]["prices"]["g0"] = pocket
    problem = parse_config(raw).problem
    x = problem.grid.nodes
    expected = 0.5 + 2.0 * np.exp(-(((x - 0.4) / 0.2) ** 2))
    np.testing.assert_array_equal(problem.g0, expected)


_REAL = dict(allow_nan=False, allow_infinity=False)


def _price():
    """A price as a number or a pocket, positive at every node."""
    number = st.floats(0.01, 10.0, **_REAL)
    pocket = st.fixed_dictionaries({
        "kind": st.just("pocket"), "base": number, "amplitude": st.floats(0.0, 5.0, **_REAL),
        "center": st.floats(-2.0, 2.0, **_REAL), "width": st.floats(0.01, 1.0, **_REAL),
    })
    return st.one_of(number, pocket)


@st.composite
def _valid_configs(draw):
    """A configuration drawn over the documented leaves, valid by construction."""
    x_min = draw(st.floats(-5.0, 5.0, **_REAL))
    width = draw(st.floats(0.5, 10.0, **_REAL))
    x_max = x_min + width
    return {
        "schema_version": 1,
        "problem": {
            "grid": {"x_min": x_min, "x_max": x_max, "n_cells": draw(st.integers(2, 64))},
            "operator": {
                "second_order": draw(st.floats(0.0, 2.0, **_REAL)),
                "first_order": draw(st.floats(-2.0, 2.0, **_REAL)),
                "theta": draw(st.floats(0.01, 0.9, **_REAL)) * (x_max - x_min),
            },
            "time": {"horizon": draw(st.floats(0.01, 2.0, **_REAL)),
                     "n_steps": draw(st.integers(1, 200))},
            "model": {"alpha": draw(st.floats(-1.0, 1.0, **_REAL)),
                      "beta": draw(st.floats(-1.0, 1.0, **_REAL)),
                      "lambda0": draw(st.floats(0.1, 5.0, **_REAL))},
            "modes": {"stepping": draw(st.sampled_from([forward.IMPLICIT,
                                                        forward.CRANK_NICOLSON]))},
            "prices": {"h10": draw(_price()), "g0": draw(_price()),
                       "cost": draw(st.floats(-1.0, 1.0, **_REAL))},
        },
        "backward": {"levels": sorted(draw(st.sets(st.integers(1, 2**20), min_size=1,
                                                   max_size=5)))},
        "control": {"max_rate": draw(st.floats(0.01, 0.99, **_REAL))},
        "mc": {"n_paths": draw(st.integers(1, 10**6)), "seed": draw(st.integers(0, 2**200))},
    }


@settings(max_examples=40, deadline=None)
@given(raw=_valid_configs())
def test_a_config_and_its_report_echo_reproduce_the_problem(raw):
    # parse -> JSON -> parse keeps the hash and the problem data; the report's echo keeps both
    first = parse_config(raw)
    echo = RunReport(first.raw, first.config_hash, "v0").deterministic_payload()["config"]
    for text in (json.dumps(raw), json.dumps(echo, indent=2, sort_keys=True)):
        again = parse_config(json.loads(text))
        assert again.config_hash == first.config_hash == canonical_hash(json.loads(text))
        for name in ("h10", "g0"):
            assert getattr(again.problem, name).tobytes() == getattr(first.problem, name).tobytes()
        assert again.problem.grid.nodes.tobytes() == first.problem.grid.nodes.tobytes()
        assert again.problem.dt == first.problem.dt
        sections = ("backward", "control", "mc")
        assert [getattr(again, n) for n in sections] == [getattr(first, n) for n in sections]


def test_readme_example_is_the_shipped_config():
    root = Path(__file__).resolve().parents[1]
    readme = (root / "README.md").read_text(encoding="utf-8")
    intro = "An example configuration (also shipped as `configs/harvest.json`):"
    block = readme.split(intro, 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
    shipped = json.loads((root / "configs" / "harvest.json").read_text(encoding="utf-8"))
    assert json.loads(block) == shipped


def test_parse_error_on_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_config(str(path))


@pytest.mark.parametrize(
    "content",
    [
        None,
        b"\xff\xfe{}",
        b"[" * 100_000 + b"]" * 100_000,
        b'{"schema_version": ' + b"9" * 5000 + b"}",
    ],
    ids=["directory", "not-utf-8", "nested-past-the-recursion-limit", "integer-past-4300-digits"],
)
def test_cli_unreadable_config_exits_2_with_one_line(tmp_path, capsys, content):
    # a file that cannot be read as JSON is a ParseError; a permission-denied file is one too,
    # but cannot be made unreadable to root, so it is not tested here
    path = tmp_path / "run.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    assert main(["simulate", "--config", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot read {path} as JSON: ")
    assert err.count("\n") == 1


def test_levels_validation():
    raw = minimal_config(backward={"levels": [4, 4, 8]})
    with pytest.raises(ValidationError) as err:
        parse_config(raw)
    assert "backward.levels" in str(err.value)


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------


def _tiny_report():
    return RunReport(
        config_echo={"a": 1},
        config_hash="deadbeef",
        version="v0-test",
        checks=[CheckResult("demo", 0.5, 1.0, True, "ok")],
        seeds={"root": 1},
    )


@pytest.mark.parametrize(
    "value, tolerance, note",
    [(0.5, math.inf, "tolerance not finite"), (math.nan, 1.0, "value not finite"),
     (-math.inf, math.nan, "value and tolerance not finite")],
    ids=["inf-tolerance", "nan-value", "both"],
)
def test_a_check_on_a_non_finite_figure_fails_and_says_which(value, tolerance, note):
    check = CheckResult("gap", value, tolerance, True, "adjoint 1")
    assert not check.passed and check.detail == f"adjoint 1; {note}"
    assert check.line().startswith("[FAIL] gap: ")
    assert CheckResult("gap", value, tolerance, True).detail == note
    rebuilt = CheckResult(**json.loads(json.dumps(vars(check))))  # as from report.json
    assert (rebuilt.passed, rebuilt.detail) == (False, check.detail)


def _tiny_path():
    grid = build_grid(0.0, 1.0, 3)
    times = np.asarray([0.0, 0.5])
    values = np.asarray([[0.0, 1.0, 2.0, 3.0, 0.0], [0.0, 0.5, 1.0, 1.5, 0.0]])
    return FieldPath(grid, times, values)


def test_persist_deterministic_digests(tmp_path):
    out = tmp_path / "run"
    report = _tiny_report()
    paths = {"state": _tiny_path()}
    manifest_path = persist(report, paths, str(out))
    first = json.loads(manifest_path.read_text())
    persist(_tiny_report(), {"state": _tiny_path()}, str(out))
    second = json.loads(manifest_path.read_text())
    assert first == second
    names = {f["name"] for f in first["files"]}
    assert names == {"report.json", "state.csv"}
    for entry in first["files"]:
        assert len(entry["sha256"]) == 64


def test_persist_empty_paths_manifest_report_only(tmp_path):
    manifest_path = persist(_tiny_report(), {}, str(tmp_path / "o"))
    manifest = json.loads(manifest_path.read_text())
    assert [f["name"] for f in manifest["files"]] == ["report.json"]


def test_csv_roundtrip_full_precision(tmp_path):
    path = tmp_path / "field.csv"
    fp = _tiny_path()
    fp.values[0, 1] = 1.0 / 3.0
    write_field_path_csv(path, fp)
    rows = path.read_text().strip().splitlines()
    assert rows[0] == "t,x,value"
    value = float(rows[2].split(",")[2])
    assert value == 1.0 / 3.0


def test_csv_bytes_match_the_per_line_formatter(tmp_path):
    # each time and node is formatted once per file; the bytes are the per-line format's
    grid = build_grid(-1.0, 3.0, 3)
    times = np.array([-0.0, 5e-324, 0.1, 2.0, 1e308])
    row = np.array([-0.0, 5e-324, 1e308, 0.1, 3.0])
    values = row[None, :] * np.array([1.0, -1.0, 1.0, 0.5, 1.0])[:, None]
    fp = FieldPath(grid, times, values)
    want = ["t,x,value"]
    for k, t in enumerate(fp.times):
        for x, v in zip(fp.grid.nodes, fp.values[k]):
            want.append(f"{t:.17g},{x:.17g},{v:.17g}")
    path = tmp_path / "field.csv"
    write_field_path_csv(path, fp)
    assert path.read_bytes() == ("\n".join(want) + "\n").encode("utf-8")
    assert path.read_bytes().startswith(b"t,x,value\n-0,-1,-0\n")


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def _write_config(tmp_path, raw):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_cli_config_error_exit_2(tmp_path, capsys):
    raw = minimal_config()
    raw["problem"]["operator"]["theta"] = -1.0
    code = main(["simulate", "--config", _write_config(tmp_path, raw)])
    assert code == 2
    assert "problem.operator.theta" in capsys.readouterr().err


def _problem_with(section, key, value):
    """A ``problem`` section override: the minimal problem with one leaf replaced."""
    problem = minimal_config()["problem"]
    problem[section] = {**problem[section], key: value}
    return {"problem": problem}


@pytest.mark.parametrize(
    "argv, sections, field",
    [
        (["simulate", "--paths", "0"], {}, "--paths"),
        (["simulate", "--seed", "-1"], {}, "--seed"),
        (["rate", "--levels", "4,8"], {}, "--levels"),
        (["adjoint", "--levels", "0,4"], {}, "--levels"),
        (["simulate"], {"mc": {"n_paths": 8, "seed": -1}}, "mc.seed"),
        (["simulate"], {"mc": {"n_paths": 8, "seed": True}}, "mc.seed"),
        # a seed past 2**128 runs as a JSON integer, but its float form is refused, not rounded
        (["simulate"], {"mc": {"n_paths": 8, "seed": float(2**128 - 8)}}, "mc.seed"),
        (["policy"], {"backward": {"backend": "regression"}}, "backward.backend"),
        (["policy"], {"control": {"convention": "bogus"}}, "control.convention"),
        (["simulate"], _problem_with("time", "n_steps", True), "problem.time.n_steps"),
        (["simulate"], _problem_with("grid", "x_max", 1e308), "problem.grid.x_max"),
        (["simulate"], _problem_with("grid", "x_max", 10**400), "problem.grid.x_max"),
        (["simulate"], _problem_with("prices", "g0", 10**400), "problem.prices.g0"),
        (["simulate"], _problem_with("grid", "n_cells", 10**400), "problem.grid.n_cells"),
        (["simulate"], _problem_with("time", "horizon", math.inf), "problem.time.horizon"),
        (["simulate"], _problem_with("grid", "x_min", -math.inf), "problem.grid.x_min"),
        (["simulate"], _problem_with("model", "alpha", math.nan), "problem.model.alpha"),
        (["simulate"], _problem_with("operator", "second_order", 1e308),
         "problem.operator.second_order"),
        (["simulate"], _problem_with("operator", "first_order", 1e308),
         "problem.operator.first_order"),
        (["simulate"], _problem_with("modes", "stepping", "explicit"), "problem.modes.stepping"),
        (["simulate"], _problem_with("modes", "stepping", "bogus"), "problem.modes.stepping"),
        # an output directory that cannot be made ends the run before its handler
        (["policy", "--out", "/dev/null/x"], {}, "--out"),
        (["simulate"], {"outputs": {"directory": "/dev/null"}}, "outputs.directory"),
        (["simulate"], {"outputs": {"directory": "out\u0000x"}}, "outputs.directory"),
        # a name past NAME_MAX makes Path.exists raise, not return False
        (["simulate"], {"outputs": {"directory": "x" * 300}}, "outputs.directory"),
    ],
    ids=["paths-0", "seed-negative", "rate-two-levels", "level-0", "mc-seed-negative",
         "mc-seed-bool", "mc-seed-past-2-128", "backward-backend", "unknown-convention",
         "n-steps-bool", "x-max-huge", "x-max-past-float", "g0-past-float", "n-cells-past-int64",
         "horizon-infinite", "x-min-infinite", "alpha-nan", "second-order-huge",
         "first-order-huge", "stepping-explicit", "stepping-bogus", "out-under-a-file",
         "directory-is-a-file", "directory-with-nul", "directory-name-too-long"],
)
@pytest.mark.filterwarnings("error")  # a warning would be a second line on stderr
def test_cli_bad_input_exits_2_with_one_line(tmp_path, monkeypatch, capsys, argv, sections, field):
    monkeypatch.chdir(tmp_path)  # the relative output directory, made before the handler runs
    code = main([*argv, "--config", _write_config(tmp_path, minimal_config(**sections))])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("configuration error: ") and err.count("\n") == 1
    assert field in err
    assert os.listdir(tmp_path) == ["run.json"]  # a refused run leaves no directory behind


@pytest.mark.parametrize("blocked, use_flag", [("report.json", True), ("mean_path.csv", False)])
def test_an_output_file_that_cannot_be_written_exits_2_with_one_line(
    tmp_path, capsys, blocked, use_flag
):
    # a directory holds the file's name: the run computes, then its write fails
    out = tmp_path / "out"
    (out / blocked).mkdir(parents=True)
    raw = minimal_config()
    raw["outputs"]["directory"] = str(out)
    argv = ["simulate", "--paths", "2", "--config", _write_config(tmp_path, raw)]
    code = main([*argv, "--out", str(out)] if use_flag else argv)
    err = capsys.readouterr().err
    field = "--out" if use_flag else "outputs.directory"
    assert code == 2
    assert err.startswith(f"configuration error: {field}: cannot write to output directory ")
    assert err.count("\n") == 1


def test_a_failed_rerun_leaves_no_manifest_that_disagrees_with_its_files(tmp_path, capsys):
    # the rerun writes report.json, then fails at mean_path.csv: the old manifest, whose
    # report.json digest the new report would break, and the new report are both gone
    out = tmp_path / "out"
    argv = ["simulate", "--paths", "2", "--config", _write_config(tmp_path, minimal_config()),
            "--out", str(out)]
    assert main(argv) == 0
    before = set(os.listdir(out))
    (out / "mean_path.csv").unlink()
    (out / "mean_path.csv").mkdir()
    assert main([*argv, "--seed", "7"]) == 2
    assert set(os.listdir(out)) == before - {"manifest.json", "report.json"}
    (out / "mean_path.csv").rmdir()
    assert main([*argv, "--seed", "7"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    listed = {entry["name"] for entry in manifest["files"]}
    assert listed == before - {"manifest.json", "runmeta.json"}
    for entry in manifest["files"]:
        data = (out / entry["name"]).read_bytes()
        assert (hashlib.sha256(data).hexdigest(), len(data)) == (entry["sha256"], entry["bytes"])
    capsys.readouterr()


# harvest.json's terminal states alone, 62 nodes of 8 bytes a path, outgrow physical memory
_PAST_MEMORY = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE") // (8 * 62) + 1


@pytest.mark.parametrize("n_paths", [10**15, 10**20, pytest.param(_PAST_MEMORY, id="past-memory")])
def test_cli_huge_path_count_ends_typed_and_at_once(tmp_path, n_paths):
    # output beyond physical memory (10**7 paths on an 8.4 GB host; 10**20 is past ssize_t) is
    # refused before anything is mapped, as a config error, not run until killed
    root = Path(__file__).parents[1]
    argv = ["simulate", "--config", str(root / "configs" / "harvest.json"),
            "--paths", str(n_paths), "--out", str(tmp_path)]
    env = {**os.environ, "PYTHONPATH": str(root / "src")}
    run = subprocess.run([sys.executable, "-m", "smc.cli", *argv], env=env, capture_output=True,
                         text=True, timeout=20)
    assert run.returncode == 2, run.stderr
    assert run.stderr.startswith("configuration error: n_paths: ") and run.stderr.count("\n") == 1


_HARVEST = json.loads((Path(__file__).parents[1] / "configs" / "harvest.json").read_text())


def _leaves(node, path=()):
    """Key paths of a config's values that are not objects."""
    if not isinstance(node, dict):
        return [path]
    return [leaf for key, child in node.items() for leaf in _leaves(child, (*path, key))]


def _run(directory, raw, *argv) -> tuple[int, str, list]:
    """Exit code, stderr and warnings of ``smc <argv>`` on ``raw``, writing under directory."""
    config, out = _write_config(directory, raw), str(directory / "out")
    err = io.StringIO()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main([*argv, "--config", config, "--out", out])
    return code, err.getvalue(), [str(w.message) for w in caught]


def _simulate(directory, raw) -> tuple[int, str, list]:
    """Exit code, stderr and warnings of ``smc simulate`` on 8 paths."""
    return _run(directory, raw, "simulate", "--paths", "8")


@settings(max_examples=80)
@given(
    leaf=st.sampled_from(_leaves(_HARVEST)),
    value=st.sampled_from([0, -1, 1e308, math.nan, math.inf, 10**400, "x", None, [], 2, 1e-12,
                           True]),
)
@example(leaf=("problem", "time", "n_steps"), value=True)
@example(leaf=("problem", "grid", "x_max"), value=10**400)
def test_one_bad_config_leaf_never_ends_in_a_traceback(tmp_path_factory, leaf, value):
    raw = copy.deepcopy(_HARVEST)
    node = raw
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = value
    code, err, caught = _simulate(tmp_path_factory.mktemp("fuzz"), raw)
    lines = err.splitlines()
    assert not caught  # a warning would be one more line on stderr
    if code == 2:
        assert len(lines) == 1 and lines[0].startswith("configuration error: ")
    elif code == 1:
        assert len(lines) == 1 and lines[0].startswith("error: ")
    else:
        assert code == 0 and not lines


def test_shipped_config_simulates_with_an_empty_stderr(tmp_path):
    assert _simulate(tmp_path, _HARVEST) == (0, "", [])


def test_overflowing_state_is_one_error_line(tmp_path):
    raw = copy.deepcopy(_HARVEST)
    raw["problem"]["model"]["alpha"] = 1e308
    expected = "error: non-finite state at step 2 (path seed 20250)\n"
    assert _simulate(tmp_path, raw) == (1, expected, [])


_SOLVE_ERROR = "error: non-finite solution at step 95 (level 4)\n"
_GAP_ERROR = "error: penalization gaps are not finite: [inf] (levels [4, 8])\n"
_AMPLITUDE = ("prices", "h10", "amplitude")


@pytest.mark.parametrize(
    "leaf, command, code, err",
    [
        pytest.param(("model", "alpha"), "policy", 1, _SOLVE_ERROR, id="alpha-policy"),
        pytest.param(("model", "alpha"), "adjoint", 1, _SOLVE_ERROR, id="alpha-adjoint"),
        pytest.param(("model", "lambda0"), "policy", 1, "", id="lambda0-policy"),  # FAIL on stdout
        pytest.param(("model", "lambda0"), "adjoint", 0, "", id="lambda0-adjoint"),
        pytest.param(_AMPLITUDE, "policy", 1, _GAP_ERROR, id="amplitude-policy"),
        pytest.param(_AMPLITUDE, "adjoint", 1, _GAP_ERROR, id="amplitude-adjoint"),
    ],
)
def test_overflowing_policy_input_warns_nothing(tmp_path, leaf, command, code, err):
    # 8 paths, levels [4, 8]: the backward solve and the policy code overflow without a warning
    raw = copy.deepcopy(_HARVEST)
    raw["mc"]["n_paths"], raw["backward"]["levels"] = 8, [4, 8]
    node = raw["problem"]
    for key in leaf[:-1]:
        node = node[key]
    node[leaf[-1]] = 1e308
    assert _run(tmp_path, raw, command) == (code, err, [])


def test_derivcheck_fails_against_an_overflowed_bound(tmp_path):
    # cost 1e300 overflows the gap's standard error: the gap, 1.1e285, passed against inf
    raw = copy.deepcopy(_HARVEST)
    raw["problem"]["prices"]["cost"] = 1e300
    code, _, _ = _run(tmp_path, raw, "derivcheck", "--paths", "64")
    assert code == 1
    ratio, gap = json.loads((tmp_path / "out" / "report.json").read_text())["checks"]
    assert ratio["passed"] and not gap["passed"]
    assert gap["tolerance"] == math.inf and gap["detail"].endswith("; tolerance not finite")


def _cli(tmp_path, raw, *argv, address_space=None) -> subprocess.CompletedProcess:
    """``python -m smc.cli <argv>`` on ``raw`` in a child, its address space limited if given."""
    argv = [*argv, "--config", _write_config(tmp_path, raw), "--out", str(tmp_path / "out")]
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}

    def limit_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    return subprocess.run([sys.executable, "-m", "smc.cli", *argv], env=env, capture_output=True,
                          text=True, timeout=60,
                          preexec_fn=None if address_space is None else limit_address_space)


@pytest.mark.parametrize("leaf, value", [
    pytest.param(("prices", "cost"), 1e300, id="cost"),
    pytest.param(("initial", "amplitude"), 1e300, id="amplitude"),
    pytest.param(("boundary", "left"), 1e300, id="boundary-left"),
    pytest.param(("model", "alpha"), 1e6, id="alpha"),
])
def test_overflowing_derivcheck_writes_no_warning(tmp_path, leaf, value):
    # np.std's and sup_norm_h's overflow warnings wrote 2 to 5 stderr lines before the result
    raw = copy.deepcopy(_HARVEST)
    raw["problem"][leaf[0]][leaf[1]] = value
    run = _cli(tmp_path, raw, "derivcheck", "--paths", "64")
    assert run.returncode == 1
    assert len(run.stderr.splitlines()) <= 1 and "Warning" not in run.stderr


def test_eight_thousand_cells_simulate_within_the_address_space_limit(tmp_path):
    # the space mean is built in 256-column slabs: no dense 8001 x 8001 array under 2.5 GB,
    # where the dense build ended in the out-of-memory line, exit 2
    raw = copy.deepcopy(_HARVEST)
    raw["problem"]["grid"]["n_cells"], raw["problem"]["time"]["n_steps"] = 8000, 4
    run = _cli(tmp_path, raw, "simulate", "--paths", "8", address_space=2_500_000_000)
    assert (run.returncode, run.stderr) == (0, "")


def test_out_of_memory_is_one_configuration_error_line(tmp_path):
    # 10^8 steps of backward paths do not fit a 2.5 GB address-space limit set on the child
    # alone; the MemoryError is one configuration-error line, not a traceback
    raw = copy.deepcopy(_HARVEST)
    raw["problem"]["time"]["n_steps"] = 100_000_000
    run = _cli(tmp_path, raw, "adjoint", address_space=2_500_000_000)
    assert run.returncode == 2 and "Traceback" not in run.stderr
    assert run.stderr == (
        "configuration error: out of memory at problem.grid.n_cells 60 and "
        "problem.time.n_steps 100000000\n"
    )


def test_pocket_price_far_off_center_loads_without_a_warning(tmp_path):
    raw = copy.deepcopy(_HARVEST)
    raw["problem"]["prices"]["h10"]["center"] = 1e308  # the pocket's exponent overflows
    assert _simulate(tmp_path, raw) == (0, "", [])
    h10 = parse_config(raw).problem.h10
    np.testing.assert_array_equal(h10, raw["problem"]["prices"]["h10"]["base"])


@pytest.mark.parametrize("command", ["simulate", "policy"])
def test_cli_runs_on_two_interior_nodes(tmp_path, command):
    raw = minimal_config(**_problem_with("grid", "n_cells", 2), backward={"levels": [4, 8]})
    raw["outputs"]["directory"] = str(tmp_path / "out")
    assert main([command, "--config", _write_config(tmp_path, raw)]) == 0


_CONSTANT_PRICE = {"kind": "constant", "value": 2.0}


@pytest.mark.parametrize(
    "section, value, message",
    [
        ("initial", {"kind": "constant", "value": 2.0},
         "problem.initial.kind: unknown shape kind 'constant'"),
        ("initial", {"kind": "bump", "floor": 0.1, "amplitude": 1.0},
         "problem.initial.kind: unknown shape kind 'bump'"),
        ("initial", {"kind": "values", "values": [1.0] * 22},
         "problem.initial.kind: unknown shape kind 'values'"),
        ("prices", {"h10": _CONSTANT_PRICE},
         "problem.prices.h10.kind: unknown price kind 'constant'"),
        ("prices", {"g0": _CONSTANT_PRICE},
         "problem.prices.g0.kind: unknown price kind 'constant'"),
        ("backward", {"tolerances": {"threshold": 1e-6, "complementarity": 1e-6, "vi": 1e-6}},
         "backward.tolerances: unknown key"),
        ("control", {"coefficient_floor": 1e-10}, "control.coefficient_floor: unknown key"),
        ("control", {"convention": "price-floor"}, "control.convention: unknown key"),
        ("suite", "operators", "suite: unknown key"),
        ("modes", {"drift": "mean-drift"}, "problem.modes.drift: unknown key"),
        ("modes", {"noise": "pointwise-noise"}, "problem.modes.noise: unknown key"),
        ("modes", {"control_gain": "multiplicative"}, "problem.modes.control_gain: unknown key"),
        ("modes", {"revenue": "proportional"}, "problem.modes.revenue: unknown key"),
    ],
    ids=["initial-constant", "initial-bump", "initial-values", "h10-constant", "g0-constant",
         "backward-tolerances", "coefficient-floor", "convention", "suite", "modes-drift",
         "modes-noise", "modes-control-gain", "modes-revenue"],
)
def test_deleted_config_key_exits_2_naming_its_path(tmp_path, capsys, section, value, message):
    raw = minimal_config()
    if section in ("initial", "prices", "modes"):
        raw["problem"][section] = value
    else:
        raw[section] = value
    assert main(["simulate", "--config", _write_config(tmp_path, raw)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "operators", "--seed", "3"],
        ["verify", "operators", "--paths", "5"],
        ["verify", "operators", "--levels", "4,8"],
        ["simulate", "--levels", "4,8"],
        ["derivcheck", "--levels", "4,8"],
        ["adjoint", "--paths", "5"],
        ["policy", "--paths", "5"],
        ["rate", "--paths", "5"],
    ],
    ids=lambda argv: f"{argv[0]}{argv[-2]}",
)
def test_flag_a_subcommand_does_not_read_exits_2(tmp_path, capsys, argv):
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--config", _write_config(tmp_path, minimal_config())])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[-2:])}" in capsys.readouterr().err


@pytest.mark.parametrize(
    "levels", [[0, 4], [4, 4], [8, 4], []], ids=["zero", "repeat", "falling", "empty"]
)
def test_one_levels_rule_everywhere(tmp_path, capsys, levels):
    spec = suites.active_obstacle_spec(30, 40)
    with pytest.raises(ValueError) as solve_err:
        solve_reflected(spec, levels)
    message = str(solve_err.value)
    with pytest.raises(ValueError) as rate_err:
        penalization_rate(spec, levels)
    assert str(rate_err.value) == message

    with pytest.raises(ValidationError) as config_err:
        parse_config(minimal_config(backward={"levels": levels}))
    assert str(config_err.value) == f"backward.levels: {message}"

    raw = ",".join(map(str, levels))
    code = main(["adjoint", "--config", _write_config(tmp_path, minimal_config()), "--levels", raw])
    assert code == 2
    assert capsys.readouterr().err == f"configuration error: --levels: {message}\n"


@pytest.mark.parametrize("value", ["two", "1.5", "0", "-3"])
def test_malformed_smc_workers_is_config_error_exit_2(monkeypatch, capsys, value):
    monkeypatch.setenv("SMC_WORKERS", value)
    with pytest.raises(ConfigError, match="SMC_WORKERS"):
        worker_count()
    assert main(["verify", "operators"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: SMC_WORKERS") and err.count("\n") == 1


@pytest.mark.parametrize(
    "cls",
    [c for c in vars(errors).values() if isinstance(c, type) and issubclass(c, errors.ToolkitError)],
    ids=lambda c: c.__name__,
)
def test_toolkit_errors_survive_pickling(cls):
    # errors raised in worker processes reach the caller pickled
    if cls is NanDetectedError:
        args = ("non-finite state", 12, 104)
    elif issubclass(cls, ConfigError):
        args = ("must be positive", "mc.n_paths")
    else:
        args = ("failed",)
    error = cls(*args)
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is cls
    assert (str(copy), copy.args, vars(copy)) == (str(error), error.args, vars(error))


def test_smc_workers_default_and_parsed(monkeypatch):
    if hasattr(os, "sched_getaffinity"):
        allowed = len(os.sched_getaffinity(0))
    else:
        allowed = os.cpu_count() or 1
    monkeypatch.delenv("SMC_WORKERS", raising=False)
    assert worker_count() == allowed
    for value, expected in [("", allowed), ("3", 3), (" 2 ", 2)]:
        monkeypatch.setenv("SMC_WORKERS", value)
        assert worker_count() == expected


def test_cli_simulate_runs_path_seeds_up_to_2_128(tmp_path, capsys):
    config, out = _write_config(tmp_path, minimal_config()), tmp_path / "top"
    argv = ["simulate", "--config", config, "--seed", str(2**128 - 8), "--paths", "8"]
    assert main([*argv, "--out", str(out)]) == 0
    assert (out / f"terminal_seed{2**128 - 1}.csv").exists()
    assert capsys.readouterr().err == ""
    # a subcommand that draws no ensemble takes any seed >= 0: its checks run (exit 0 or 1)
    argv = ["rate", "--config", config, "--seed", str(2**128), "--out", str(tmp_path / "rate")]
    assert main(argv) in (0, 1)
    assert (tmp_path / "rate" / "report.json").exists()


def test_cli_simulate_runs_path_seeds_past_2_128(tmp_path, capsys):
    # default_rng takes any seed >= 0, so path seeds cross 2**128 from --seed and from mc.seed
    # alike, and both runs draw the same paths
    config = _write_config(tmp_path, minimal_config())
    flag = ["simulate", "--config", config, "--seed", str(2**128 - 8), "--paths", "16"]
    (tmp_path / "mc").mkdir()
    raw = minimal_config(mc={"n_paths": 16, "seed": 2**128 - 8})
    in_config = ["simulate", "--config", _write_config(tmp_path / "mc", raw)]
    terminals = []
    for name, argv in [("flag", flag), ("config", in_config)]:
        out = tmp_path / name
        assert main([*argv, "--out", str(out)]) == 0
        terminals.append((out / f"terminal_seed{2**128 + 7}.csv").read_bytes())
        assert capsys.readouterr().err == ""
    assert terminals[0] == terminals[1]
    # a subcommand that draws no ensemble takes such a seed too: its checks run (exit 0 or 1)
    argv = ["rate", "--config", config, "--seed", str(2**200), "--out", str(tmp_path / "rate")]
    assert main(argv) in (0, 1)
    assert (tmp_path / "rate" / "report.json").exists()


def test_cli_simulate_writes_outputs(tmp_path):
    raw = minimal_config()
    raw["outputs"]["directory"] = str(tmp_path / "runout")
    code = main(["simulate", "--config", _write_config(tmp_path, raw), "--paths", "3"])
    assert code == 0
    out = tmp_path / "runout"
    assert (out / "report.json").exists()
    assert (out / "mean_path.csv").exists()
    assert (out / "terminal_seed7.csv").exists()
    assert (out / "terminal_seed9.csv").exists()
    assert (out / "manifest.json").exists()


@pytest.mark.parametrize("formats", [["json"], ["csv"], []])
def test_cli_simulate_honours_output_formats(tmp_path, formats):
    raw = minimal_config()
    raw["outputs"] = {"directory": str(tmp_path / "runout"), "formats": formats}
    assert main(["simulate", "--config", _write_config(tmp_path, raw), "--paths", "2"]) == 0
    out = tmp_path / "runout"
    written = {p.name for p in out.iterdir()} - {"manifest.json", "runmeta.json"}
    assert bool(list(out.glob("*.csv"))) == ("csv" in formats)
    assert (out / "report.json").exists() == ("json" in formats)
    manifest = json.loads((out / "manifest.json").read_text())
    assert {f["name"] for f in manifest["files"]} == written


def test_phase_timer_accumulates_into_runmeta(tmp_path, monkeypatch):
    clock = iter([1.0, 2.0, 10.0, 14.0, 20.0, 21.5])
    monkeypatch.setattr("smc.report.time.perf_counter", lambda: next(clock))
    timer = PhaseTimer()
    for _ in range(2):
        with timer.time("solve"):
            pass
    with pytest.raises(RuntimeError), timer.time("fail"):
        raise RuntimeError("phase raised")
    monkeypatch.undo()
    assert timer.phases == {"solve": 5.0, "fail": 1.5}
    report = _tiny_report()
    report.timings = timer.phases
    persist(report, {}, str(tmp_path), ("json",))
    runmeta = json.loads((tmp_path / "runmeta.json").read_text())
    assert runmeta == {"timings": timer.phases}


def test_cli_determinism_two_runs_identical(tmp_path):
    raw = minimal_config()
    raw["outputs"]["directory"] = str(tmp_path / "o1")
    cfg = _write_config(tmp_path, raw)
    assert main(["simulate", "--config", cfg, "--paths", "2"]) == 0
    m1 = (tmp_path / "o1" / "manifest.json").read_text()
    assert main(["simulate", "--config", cfg, "--paths", "2"]) == 0
    m2 = (tmp_path / "o1" / "manifest.json").read_text()
    assert m1 == m2


def _harvest_config(tmp_path, n_paths=8):
    raw = minimal_config()
    raw["problem"]["grid"]["n_cells"] = 30
    raw["problem"]["time"] = {"horizon": 0.06, "n_steps": 48}
    raw["problem"]["model"] = {"alpha": 0.2, "beta": 0.1, "lambda0": 1.0}
    raw["problem"]["prices"] = {
        "h10": {"kind": "pocket", "base": 0.05, "amplitude": 3.0, "center": 0.5, "width": 0.1},
        "g0": 2.0,
    }
    raw["backward"] = {"levels": [256, 512, 1024, 2048]}
    raw["control"] = {"max_rate": 0.5}
    raw["mc"]["n_paths"] = n_paths
    raw["outputs"] = {"directory": str(tmp_path / "pol"), "formats": ["csv", "json"]}
    return _write_config(tmp_path, raw)


def test_cli_policy_and_rate(tmp_path):
    cfg = _harvest_config(tmp_path)
    assert main(["policy", "--config", cfg]) == 0
    assert (tmp_path / "pol" / "policy_xi.csv").exists()
    assert (tmp_path / "pol" / "adjoint_p.csv").exists()

    code = main(["rate", "--config", cfg, "--levels", "4,8,16,32,64", "--out", str(tmp_path / "rate")])
    assert code in (0, 1)  # slope verdict depends on the window; artifacts must exist
    assert (tmp_path / "rate" / "report.json").exists()


# report.json checks of the subcommands that run the suites' criterion code and
# the policy adjoint on a small harvesting problem: (exit code, checks)
CLI_PINNED_CHECKS = {
    "derivcheck": (0, [
        ("derivative-process-ratio", 9.99913513263839, 20.0, True,
         "errors 2.239e-06 / 2.239e-07"),
        ("directional-derivative-gap", 3.762852372483742e-05, 0.00012236246369383123, True,
         "adjoint -0.0138837, finite difference -0.0139213"),
    ]),
    "adjoint": (1, [
        ("skorokhod-residual", 0.03943919984691388, 0.0003211241866811209, False,
         "levels (256, 512, 1024, 2048), gaps ['5.94e-02', '5.11e-02', '4.46e-02']"),
    ]),
    "rate": (1, [
        ("penalization-rate-slope", -0.3414042553440733, -1.7, False,
         "E_4=4.374e-03; E_8=4.011e-03; E_16=3.413e-03; E_32=2.577e-03; E_64=1.671e-03"),
    ]),
}


@pytest.mark.parametrize("command", sorted(CLI_PINNED_CHECKS))
def test_cli_subcommand_checks_pinned(tmp_path, command):
    cfg = _harvest_config(tmp_path, n_paths=200)
    extra = ["--levels", "4,8,16,32,64"] if command == "rate" else []
    out = tmp_path / command
    code = main([command, "--config", cfg, "--out", str(out), *extra])
    expected_code, expected = CLI_PINNED_CHECKS[command]
    assert code == expected_code
    checks = json.loads((out / "report.json").read_text())["checks"]
    assert [c["name"] for c in checks] == [e[0] for e in expected]
    for check, (_, value, tolerance, passed, detail) in zip(checks, expected):
        assert check["value"] == pytest.approx(value, rel=1e-12)
        assert check["tolerance"] == pytest.approx(tolerance, rel=1e-12)
        assert (check["passed"], check["detail"]) == (passed, detail)


# stdout of each subcommand on _harvest_config(), "<out>" standing for its --out directory,
# and the phases its runmeta.json times
CLI_STDOUT = {
    "simulate": (0, ["simulate"], ["simulated 8 paths; positivity=True; outputs in <out>"]),
    "adjoint": (1, ["adjoint"], ["adjoint solved at levels [256, 512, 1024, 2048]; outputs in <out>"]),
    "policy": (0, ["policy"], [
        "[PASS] threshold-slack: value=0 tolerance=1e-06",
        "[PASS] complementarity: value=0 tolerance=1e-06",
        "[PASS] variational-inequality: value=0 tolerance=1e-06"
        "  (contact set: 100 of 1440 step-node cells)",
    ]),
    "rate": (1, ["rate"], [
        "levels [256, 512, 1024, 2048]",
        "energies ['4.3454e-04', '1.6945e-04', '5.9435e-05', '1.9257e-05']",
        "log-log slope -1.5000",
    ]),
    "derivcheck": (0, ["derivcheck"], [
        "[PASS] derivative-process-ratio: value=9.99914 tolerance=20"
        "  (errors 2.239e-06 / 2.239e-07)",
        "[PASS] directional-derivative-gap: value=0.000188305 tolerance=0.00063942"
        "  (adjoint -0.013804, finite difference -0.0136156)",
    ]),
}


@pytest.mark.parametrize("command", sorted(CLI_STDOUT))
def test_cli_subcommand_stdout_and_runmeta_pinned(tmp_path, capsys, command):
    out = tmp_path / "out"
    code = main([command, "--config", _harvest_config(tmp_path), "--out", str(out)])
    expected_code, phases, lines = CLI_STDOUT[command]
    assert code == expected_code
    assert capsys.readouterr().out == "".join(f"{line}\n" for line in lines).replace("<out>", str(out))
    assert sorted(json.loads((out / "runmeta.json").read_text())["timings"]) == phases


def test_cli_verify_prints_its_report_and_times_each_check(tmp_path, capsys):
    out = tmp_path / "out"
    assert main(["verify", "operators", "--config", _harvest_config(tmp_path), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    lines = [CheckResult(**check).line() for check in report["checks"]]
    lines.append("suite 'operators': all 3 checks passed")
    assert capsys.readouterr().out == "".join(f"{line}\n" for line in lines)
    timings = json.loads((out / "runmeta.json").read_text())["timings"]
    assert sorted(timings) == sorted(fn.__name__ for fn in suites.SUITES["operators"])


def test_cli_adjoint_writes_the_reflected_solve(tmp_path):
    cfg, out = _harvest_config(tmp_path), tmp_path / "adjoint"
    assert main(["adjoint", "--config", cfg, "--out", str(out)]) == 1  # the known Skorokhod FAIL
    config = load_config(cfg)
    adjoint = policy_adjoint(config.problem)
    solution = solve_reflected(adjoint.backward, list(config.backward.levels))
    for name, path in [("adjoint_p", solution.y), ("reflection_eta", solution.eta)]:
        values = np.loadtxt(out / f"{name}.csv", delimiter=",", skiprows=1, usecols=2)
        np.testing.assert_array_equal(values, path.values.ravel())


def test_cli_verify_operators_suite(tmp_path, capsys):
    code = main(["verify", "operators", "--out", str(tmp_path / "v")])
    assert code == 0
    text = capsys.readouterr().out
    assert "space-mean-contraction" in text
    assert "operator-dualities" in text
    assert "coercivity-constants" in text
    report = json.loads((tmp_path / "v" / "report.json").read_text())
    assert report["all_passed"] is True


def test_cli_verify_unknown_suite(tmp_path, capsys):
    assert main(["verify", "nope", "--out", str(tmp_path / "x")]) == 2
    err = capsys.readouterr().err
    assert err == f"configuration error: unknown suite 'nope'; choose from {sorted(suites.SUITES)}\n"
    assert not (tmp_path / "x").exists()


def test_all_suite_covers_every_check():
    from smc.suites import SUITES

    grouped = {fn for name, fns in SUITES.items() if name != "all" for fn in fns}
    assert set(SUITES["all"]) == grouped
    assert len(SUITES["all"]) == 11


def test_criterion_01_result_does_not_depend_on_its_wall_time(monkeypatch):
    # a host that takes 0.06 s, not 0.04 s, writes the same report.json bytes
    results = []
    for elapsed in (0.04, 0.06):
        clock = iter([100.0, 100.0 + elapsed])
        monkeypatch.setattr("smc.suites.time.perf_counter", lambda: next(clock))
        results.append(suites.check_penalization_rate())
    assert results[0] == results[1]
