"""Benchmark of the spacemean-smc toolkit: one workload, one closed-loop client.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload policy-mc --seed 0 --seconds 10 --trace 0

The workload's ops run in order, each after the previous one finished, and
the whole sequence repeats until ``--seconds`` have passed (at least once).
Every op's output is checked against its acceptance-criterion invariants
and, at seed 0 (the suite's own seeds), against ``reference.json``.

``--trace 0`` reports the end-to-end metrics: ``setup_s`` (median cold start
of a fresh process up to its first op), ``run_s`` (median wall seconds of one
op sequence) and ``peak_rss_mb``.  ``--trace 1`` replays one sequence with a
span around every traced public call and reports the per-layer metrics.
The last line of standard output is the JSON result; the lines before it
describe the run for a human (environment, per-op times, resource usage).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback

import benchenv

SETUP_RUNS = 3  # cold starts before the ops and again after them
SETUP_TIMEOUT_S = 60.0
REFERENCE_RTOL = 1e-9
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")

# per-layer metrics beyond the per-span statistics of tracing.Tracer.summary
EXTRA_LAYER_METRICS = {
    "operators.space_mean_bundle.bytes_computed": "B",
    "forward.step_bundle.width": "paths",
    "forward.ensemble.speedup_2w": "ratio",
    "backward.solve_penalized.steps": "count",
    "report.persist.bytes": "B",
    "computed.path_steps": "count",
    "computed.tridiag_solves": "count",
    "trace.run_s": "s",
    "trace.overhead_est_s": "s",
    "trace.spans": "count",
}


def _usage() -> tuple[float, float, int]:
    r = resource.getrusage(resource.RUSAGE_SELF)
    return r.ru_utime, r.ru_stime, r.ru_minflt


def time_setup(workload: str, seed: int) -> list[float]:
    """Wall seconds from starting a fresh interpreter to its ``ready`` line, SETUP_RUNS times."""
    probe = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_probe.py")
    times = []
    for _ in range(SETUP_RUNS):
        start = time.perf_counter()
        with subprocess.Popen([sys.executable, probe, workload, str(seed)],
                              stdout=subprocess.PIPE, text=True) as proc:
            try:
                line = proc.stdout.readline()
                elapsed = time.perf_counter() - start
                proc.wait(timeout=SETUP_TIMEOUT_S)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
        if proc.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        times.append(elapsed)
    return times


def reference_failures(values: list[float], reference: list[float] | None) -> list[str]:
    """Entries differing from the reference by more than REFERENCE_RTOL relative."""
    if reference is None:
        return []
    if len(values) != len(reference):
        return [f"reference has {len(reference)} values, op gave {len(values)}"]
    return [
        f"value {i}: {v!r} != reference {r!r}"
        for i, (v, r) in enumerate(zip(values, reference))
        if abs(v - r) > REFERENCE_RTOL * abs(r) or v != v
    ]


def judge(op, output, ctx: dict, reference: list[float] | None) -> tuple[list[str], list[float]]:
    """Failed invariants and reference mismatches of one op's output, and its fingerprint."""
    failures = op.check(output, ctx)
    values = op.fingerprint(output, ctx)
    return failures + reference_failures(values, reference), values


def run_sequence(workload, references: dict | None, on_op_done=None) -> dict:
    """Run every op once, in order; an op that raises or fails its checks counts as failed."""
    ctx: dict = {}
    record = {"ops": {}, "failures": [], "fingerprints": {}, "outputs": {}, "ctx": ctx}
    failed_ops = set()
    user0, sys0, flt0 = _usage()
    run_s = 0.0
    for op in workload.ops:
        start = time.perf_counter()
        try:
            output = op.run(ctx)
        except Exception:
            run_s += time.perf_counter() - start
            record["failures"].append(f"{op.name}: raised\n{traceback.format_exc()}")
            failed_ops.add(op.name)
            continue
        elapsed = time.perf_counter() - start
        run_s += elapsed
        record["ops"][op.name] = elapsed
        if on_op_done is not None:
            on_op_done(op)
        try:
            reference = references.get(op.name) if references is not None else None
            failures, record["fingerprints"][op.name] = judge(op, output, ctx, reference)
            record["outputs"][op.name] = output
        except Exception:
            failures = [f"check raised\n{traceback.format_exc()}"]
        record["failures"] += [f"{op.name}: {message}" for message in failures]
        if failures:
            failed_ops.add(op.name)
    user1, sys1, flt1 = _usage()
    record.update(run_s=run_s, user_s=user1 - user0, sys_s=sys1 - sys0, minflt=flt1 - flt0,
                  attempted=len(workload.ops), failed=len(failed_ops))
    return record


def corrupted_reference_detected(workload, record: dict) -> bool:
    """The reference comparison passes a last-bit change and fails a 1e-6 one."""
    for op in workload.ops:
        if op.name not in record["outputs"]:
            continue
        values = record["fingerprints"][op.name]
        last_bit = [math.nextafter(values[0], math.inf)] + values[1:]
        corrupted = [values[0] * (1.0 + 1e-6) + 1e-300] + values[1:]
        output, ctx = record["outputs"][op.name], record["ctx"]
        return not reference_failures(values, last_bit) and bool(
            judge(op, output, ctx, corrupted)[0]
        )
    return False


def warm_up(seed: int) -> None:
    """The probe's tiny call, so the first timed op pays no lazy initialization."""
    from smc import forward, suites

    spec = suites.harvesting_benchmark()
    zero = forward.SingularControl.zeros(spec.n_steps + 1, spec.grid.n_cells)
    forward.simulate_ensemble(spec, zero, 2, seed)


def ensemble_speedup(workload, ctx: dict) -> float:
    """Time of the ensemble op at SMC_WORKERS=1 over its time at 2; 0 without one."""
    ops = [op for op in workload.ops if op.name == "simulate_ensemble"]
    if not ops:
        return 0.0
    saved = os.environ.get("SMC_WORKERS")
    seconds = {}
    try:
        for workers in (1, 2):
            os.environ["SMC_WORKERS"] = str(workers)
            start = time.perf_counter()
            ops[0].run(ctx)
            seconds[workers] = time.perf_counter() - start
    finally:
        if saved is None:
            os.environ.pop("SMC_WORKERS", None)
        else:
            os.environ["SMC_WORKERS"] = saved
    return seconds[1] / seconds[2]


def traced_run(workload, references: dict | None) -> tuple[dict, dict]:
    import tracing
    from smc import forward

    tracer = tracing.Tracer()

    def replay_noise(op):
        # the ensemble kernels draw noise privately; replay the same path
        # seeds through the public NoisePath.generate, outside the op's time
        if op.noise_seeds is None:
            return
        first, count = op.noise_seeds
        for path_seed in range(first, first + count):
            forward.NoisePath.generate(path_seed, workload.spec.n_steps, workload.spec.dt)

    tracer.install()
    try:
        record = run_sequence(workload, references, on_op_done=replay_noise)
    finally:
        tracer.uninstall()
    metrics = tracer.summary()
    metrics.update({name: (tracer.extra.get(name, 0.0), unit)
                    for name, unit in EXTRA_LAYER_METRICS.items()})
    metrics["forward.ensemble.speedup_2w"] = (ensemble_speedup(workload, record["ctx"]), "ratio")
    metrics["computed.path_steps"] = (sum(op.path_steps for op in workload.ops), "count")
    metrics["computed.tridiag_solves"] = (sum(op.tridiag_solves for op in workload.ops), "count")
    metrics["trace.run_s"] = (record["run_s"], "s")
    metrics["trace.spans"] = (len(tracer.spans), "count")
    metrics["trace.overhead_est_s"] = (len(tracer.spans) * tracing.span_cost(), "s")
    return record, metrics


def load_references(workload: str, seed: int) -> dict | None:
    if seed != 0:
        return None
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def write_references(workload: str, record: dict) -> None:
    data = {}
    if os.path.exists(REFERENCE_PATH):
        with open(REFERENCE_PATH, encoding="utf-8") as fh:
            data = json.load(fh)
    data[workload] = record["fingerprints"]
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0, help="0 runs the suite's own seeds")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-reference", action="store_true",
                        help="store this run's fingerprints as the seed-0 reference")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.write_reference and (args.seed != 0 or args.trace):
        parser.error("--write-reference needs --seed 0 --trace 0")
    try:
        benchenv.add_source_path()
    except benchenv.MissingProgram as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    env = benchenv.environment()
    print("env " + json.dumps(env, sort_keys=True))
    # cold starts are taken on both sides of the ops, so that the median
    # spans the run rather than one moment of a host whose speed drifts
    setup_times = [] if args.trace else time_setup(args.workload, args.seed)
    workload = workloads.build(args.workload, args.seed, benchenv.OUT_DIR)
    warm_up(args.seed)
    references = None if args.write_reference else load_references(args.workload, args.seed)

    try:
        if args.trace:
            record, layer_metrics = traced_run(workload, references)
            records = [record]
        else:
            records = []
            start = time.perf_counter()
            while not records or time.perf_counter() - start < args.seconds:
                if records:  # keep only the last sequence's outputs alive
                    records[-1].update(outputs={}, ctx={})
                records.append(run_sequence(workload, references))
        canary_ok = corrupted_reference_detected(workload, records[-1])
        if not args.trace:
            setup_times += time_setup(args.workload, args.seed)
    finally:
        shutil.rmtree(benchenv.OUT_DIR, ignore_errors=True)

    if args.write_reference:
        write_references(args.workload, records[0])
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    for i, r in enumerate(records, 1):
        print(f"sequence {i}: run_s {r['run_s']:.3f} s | user {r['user_s']:.2f} s "
              f"sys {r['sys_s']:.2f} s minflt {r['minflt']}")
    for op in workload.ops:
        times = [r["ops"][op.name] for r in records if op.name in r["ops"]]
        if times:
            print(f"  op {op.name:<24} median {statistics.median(times):.4f} s over {len(times)}")
    for r in records:
        for failure in r["failures"]:
            print(f"FAILED {failure}")
    if not canary_ok:
        print("FAILED the reference check did not reject a corrupted reference")
    if setup_times:
        print("setup probes s: " + " ".join(f"{t:.4f}" for t in setup_times))
    print(f"fail_ratio {failed}/{attempted} = {failed / attempted:.4f}")

    if args.trace:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in
                   layer_metrics.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "run_s": {"value": statistics.median(r["run_s"] for r in records), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
        "setup_probe_s": setup_times,
        "sequences": [{k: r[k] for k in ("run_s", "user_s", "sys_s", "minflt", "ops")}
                      for r in records],
        "fail_ratio": failed / attempted,
    }
    print("detail " + json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": failed == 0 and canary_ok, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
