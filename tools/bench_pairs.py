"""Alternating parent/change pairs of the benchmark, summarized per workload and metric.

Usage, from the root of a checkout:

    python3 tools/bench_pairs.py --label pr38 --pairs 10 --workload policy-mc \
        --workload derivative-mc --seed 0

The parent (``--parent``, default HEAD) is extracted with ``git archive`` into a
temporary directory; the change is this checkout's working tree.  Each pair runs
``python3 perfbench/run.py --workload W --seed S --seconds T`` once on each side,
in that side's directory, with T the ``run_seconds`` of BENCHMARK.json: odd pairs
parent first, even pairs change first.  The last line of each run's standard
output is its JSON result.  ``BENCH_<label>_pairs.json`` holds a note, a summary
per workload and seed (for each end-to-end metric of BENCHMARK.json: each side's
median, quartiles and range, the change's and the parent's wins, the parent's
quartile range, whether the change stays within the metric's bound, and whether a
claimed gain would count) and every run.  A gain counts (``gain_resolved``) when
every run is correct, the change fails no more operations than the parent, the
change wins at least 9 of every 10 pairs run (a tie, or a pair missing the
metric, counts for neither side), and its median beats the parent's in the
metric's ``better`` direction by more than the parent's quartile range.
Quartiles are linear, as numpy's default percentiles.  Standard library only.
"""

from __future__ import annotations

import argparse
import io
import json
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SIDES = ("parent", "change")


def git(*argv: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *argv], check=True,
                          capture_output=True).stdout


def extract(rev: str, directory: Path) -> Path:
    """The files of ``rev`` under ``directory``, by ``git archive``."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", rev))) as tar:
        tar.extractall(directory, filter="data")
    return directory


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``checkout``: its exit code, wall time and parsed result."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(seconds)]
    start = time.perf_counter()
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    record = {"exit": proc.returncode, "wall_s": round(time.perf_counter() - start, 3)}
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        return {**record, "correct": False, "stderr": proc.stderr[-2000:]}
    record.update(correct=result["correct"], attempted=result["attempted"],
                  failed=result["failed"])
    record.update({name: m["value"] for name, m in result["metrics"].items()})
    for line in lines:
        if line.startswith("detail "):
            detail = json.loads(line[len("detail "):])
            record["sequence_run_s"] = [round(s["run_s"], 3) for s in detail["sequences"]]
    return record


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3,
            "min": min(values), "max": max(values)}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's spread and wins over the pairs, the bound and gain checks."""
    pairs: dict[int, dict] = {}
    for run in runs:
        pairs.setdefault(run["pair"], {})[run["side"]] = run
    failed = {side: sum(run.get("failed", 0) for run in runs if run["side"] == side)
              for side in SIDES}
    summary = {
        "pairs": len(pairs),
        "correct": all(run["correct"] for run in runs),
        "failed_ops": sum(failed.values()),
        "attempted_ops": {side: sum(r.get("attempted", 0) for r in runs if r["side"] == side)
                          for side in SIDES},
    }
    claimable = summary["correct"] and failed["change"] <= failed["parent"]
    for metric in metrics:
        name, lower = metric["name"], metric["better"] == "lower"
        both = [p for p in pairs.values() if all(name in p.get(s, {}) for s in SIDES)]
        if not both:
            continue
        values = {side: [p[side][name] for p in both] for side in SIDES}
        gains = [(c - p) * (-1 if lower else 1) for p, c in zip(values["parent"], values["change"])]
        parent, change = spread(values["parent"]), spread(values["change"])
        diff = change["median"] - parent["median"]
        relative = diff / parent["median"] if parent["median"] else 0.0
        worse = relative if lower else -relative
        change_wins = sum(gain > 0 for gain in gains)
        summary[name] = {
            "parent": parent,
            "change": change,
            "change_wins": change_wins,
            "parent_wins": sum(gain < 0 for gain in gains),
            "median_diff": diff,
            "parent_iqr": parent["q3"] - parent["q1"],
            "relative_change": relative,
            "bound": metric["bound"],
            "within_bound": worse <= metric["bound"],
            "gain_resolved": (claimable and 10 * change_wins >= 9 * len(pairs)
                              and (-diff if lower else diff) > parent["q3"] - parent["q1"]),
        }
    return summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>_pairs.json")
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--parent", default="HEAD", help="git revision of the parent side")
    parser.add_argument("--note", default="", help="appended to the generated note")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("--pairs must be >= 2: quartiles need two runs a side")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]

    with tempfile.TemporaryDirectory() as scratch:
        checkouts = {"parent": extract(args.parent, Path(scratch, "parent")), "change": ROOT}
        runs = []
        for workload in args.workload:
            for pair in range(1, args.pairs + 1):
                order = SIDES if pair % 2 else SIDES[::-1]
                for side in order:
                    record = run_once(checkouts[side], workload, args.seed, seconds)
                    runs.append({"workload": workload, "seed": args.seed, "pair": pair,
                                 "side": side, **record})
                    print(f"{workload} pair {pair} {side}: run_s {record.get('run_s')} "
                          f"correct {record['correct']}", file=sys.stderr, flush=True)

    parent = git("rev-parse", "--short", args.parent).decode().strip()
    note = (f"alternating parent/change pairs of `python3 perfbench/run.py --workload W --seed "
            f"{args.seed} --seconds {seconds:g}` ({args.pairs} pairs a workload), each side run "
            f"in its own directory (parent: {parent}; change: the working tree), odd pairs parent first, "
            f"even pairs change first, on {platform.machine()} with Python "
            f"{platform.python_version()}. "
            f"Quartiles are linear, as numpy's default percentiles. {args.note}").strip()
    summary = {f"{w} seed {args.seed}": summarize([r for r in runs if r["workload"] == w],
                                                   benchmark["end_to_end"])
               for w in args.workload}
    out = ROOT / f"BENCH_{args.label}_pairs.json"
    out.write_text(json.dumps({"note": note, "summary": summary, "runs": runs}, indent=1) + "\n")
    print(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
