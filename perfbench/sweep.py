"""Run the benchmark over workloads and seeds and summarize it, one process per run.

From the root of a checkout:

    python3 perfbench/sweep.py                      # every workload at seed 0
    python3 perfbench/sweep.py --seeds 1-10         # steadiness: spread per metric
    python3 perfbench/sweep.py --trace 1            # per-layer metrics per workload

Every run prints a row with its end-to-end metrics (with units), its failure
ratio and the user, system and minor-fault usage of its op sequences, so a
run slowed by kernel time can be told apart.  With several seeds, each
metric gets its median, quartiles and spread (interquartile distance over
median) next to the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN_TIMEOUT_S = 900


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += list(range(int(low), int(high or low) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    command = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(command, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
                          cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    for line in lines:
        if line.startswith("FAILED"):
            print(f"  {workload} seed {seed}: {line}")
    detail = next(json.loads(line[len("detail "):]) for line in lines if line.startswith("detail "))
    return json.loads(lines[-1]), detail


def quartile_spread(values: list[float]) -> tuple[float, float, float, float]:
    median = statistics.median(values)
    if len(values) < 2:
        return median, median, median, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seeds", default="0", help="e.g. 0 or 1-10 or 3,5")
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--save", help="write every run's result and detail to this JSON file")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]

    runs: dict[str, list[tuple[dict, dict]]] = {}
    for workload in args.workloads.split(","):
        for seed in seeds:
            result, detail = run_one(workload, seed, args.seconds, args.trace)
            runs.setdefault(workload, []).append((result, detail))
            if args.trace:
                continue
            m = result["metrics"]
            seqs = detail["sequences"]
            print(f"{workload:<14} seed {seed:>3}  "
                  + "  ".join(f"{k} {v['value']:.4f} {v['unit']}" for k, v in m.items())
                  + f"  fail_ratio {result['failed']}/{result['attempted']}"
                  + f"  sequences {len(seqs)}: user {sum(s['user_s'] for s in seqs):.2f} s"
                  + f" sys {sum(s['sys_s'] for s in seqs):.2f} s"
                  + f" minflt {sum(s['minflt'] for s in seqs)}", flush=True)

    if args.trace:
        workloads = list(runs)
        print(f"{'per-layer metric':<46}{'unit':>7}" + "".join(f"{w:>16}" for w in workloads))
        for metric in metrics:
            cells = "".join(f"{runs[w][0][0]['metrics'][metric['name']]['value']:>16.6g}"
                            for w in workloads)
            print(f"{metric['name']:<46}{metric['unit']:>7}{cells}")
    else:
        print(f"\n{'workload':<14} {'metric':<12} {'unit':<5} {'median':>10} {'q1':>10} "
              f"{'q3':>10} {'spread':>7} {'bound':>6}  fail_ratio")
        for workload, results in runs.items():
            attempted = sum(r["attempted"] for r, _ in results)
            failed = sum(r["failed"] for r, _ in results)
            for metric in metrics:
                values = [r["metrics"][metric["name"]]["value"] for r, _ in results]
                median, q1, q3, spread = quartile_spread(values)
                flag = "" if spread < metric["bound"] / 3 else "  (spread >= bound/3)"
                print(f"{workload:<14} {metric['name']:<12} {metric['unit']:<5} {median:>10.4f} "
                      f"{q1:>10.4f} {q3:>10.4f} {spread:>7.3f} {metric['bound']:>6}  "
                      f"{failed}/{attempted}{flag}")
    if args.save:
        with open(args.save, "w", encoding="utf-8") as fh:
            json.dump(runs, fh, indent=1)
    all_correct = all(r["correct"] for results in runs.values() for r, _ in results)
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
