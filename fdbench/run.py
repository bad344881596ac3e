"""formdec benchmark: one workload, one seed, one result line.

    python3 fdbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a formdec checkout; formdec is imported from ./src.
Each run starts fresh worker processes one at a time: a set-up worker, the
measuring worker, and a second set-up worker.  ``setup_s`` is the median of
the three set-up times.  With ``--trace 0`` the last output line holds the
end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics of a
separate traced op loop.  The line before it is a detail record (tail
percentile and sample count, failure names, environment, host drift).

``attempted`` and ``failed`` count the distinct inputs of the pool, not the
timed ops: the loop runs the pool in whole passes and their number follows
the host speed, while the inputs, and so the failure count, follow only the
seed.  Every op is checked on every pass; an input whose missed checks
differ between passes makes the run incorrect, as ops are deterministic
with one BLAS thread.
"""

import argparse
import collections
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# all three workers must be done within this many seconds of the start
DEADLINE_S = 170.0

# Every BLAS/OpenMP pool in the worker runs on one thread: on a 2-vCPU host a
# second OpenBLAS thread made the curved MINRES op about 3x slower in wall
# time, and parallel reductions may reorder sums and so move MINRES counts.
WORKER_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


def worker(args, mode, deadline, spans_out=None):
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--mode", mode,
        "--seconds", str(args.seconds),
    ]
    if spans_out:
        cmd += ["--spans-out", spans_out]
    env = dict(os.environ, **WORKER_ENV)
    env.pop("PYTHONPATH", None)
    try:
        proc = subprocess.run(
            cmd,
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=max(1.0, deadline - time.monotonic()),
        )
    except subprocess.TimeoutExpired:  # run() has killed and reaped the worker
        raise SystemExit(f"{mode} worker did not finish within {DEADLINE_S:.0f} s of the start")
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{mode} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(values):
    """Highest percentile with at least ten samples beyond it, and its rank."""
    ordered = sorted(values)
    n = len(ordered)
    if n < 11:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "formdec", "__init__.py")):
        raise SystemExit(f"no formdec sources under {ROOT}/src: run from a formdec checkout")

    deadline = time.monotonic() + DEADLINE_S
    spans_out = None
    if args.trace:
        os.makedirs(os.path.join(HERE, "out"), exist_ok=True)
        spans_out = os.path.join(HERE, "out", f"spans-{args.workload}-{args.seed}.jsonl")
    first = worker(args, "setup", deadline)
    main_run = worker(args, "trace" if args.trace else "measure", deadline, spans_out)
    last = worker(args, "setup", deadline)
    setups = [first["setup"], main_run["setup"], last["setup"]]

    samples = main_run["samples"]
    walls = [s["wall_s"] for s in samples]
    ops = samples + main_run.get("traced_samples", [])
    unexpected = first["unexpected"] + main_run["unexpected"] + last["unexpected"]
    unexpected += main_run["unexpected_ops"]
    outcomes = {}  # input -> names of the checks its first op missed
    for s in ops:
        if outcomes.setdefault(s["input"], s["failed"]) != s["failed"]:
            unexpected.append(f"input {s['input']}: missed checks differ between passes")
    blas = main_run["env"]["openblas_threads"]
    correct = not unexpected and all(n == 1 for n in blas.values())

    tail_s, tail_pct = tail(walls)
    if args.trace:
        traced = [s["wall_s"] for s in main_run["traced_samples"]]
        values = dict(main_run["layers"])
        values["setup.import_s"] = statistics.median(s["import_s"] for s in setups)
        values["setup.state_s"] = statistics.median(s["state_s"] for s in setups)
        values["setup.first_op_s"] = statistics.median(s["first_op_s"] for s in setups)
        values["process.minflt_per_op"] = statistics.fmean(s["minflt"] for s in samples)
        values["process.sys_s_per_op"] = statistics.fmean(s["sys_s"] for s in samples)
        values["trace.overhead"] = statistics.median(traced) / statistics.median(walls)
        wanted = bench["per_layer"]
    else:
        values = {
            "ops_per_s": len(walls) / sum(walls),
            "op_s_p50": statistics.median(walls),
            "op_s_tail": tail_s,
            "cpu_s_per_op": statistics.fmean(s["cpu_s"] for s in samples),
            "setup_s": statistics.median(s["total_s"] for s in setups),
            "peak_rss_mb": main_run["peak_rss_mb"],
        }
        wanted = bench["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    failures = collections.Counter(name for names in outcomes.values() for name in names)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "pool": main_run["pool"],
        "samples": len(walls),
        "op_s_tail_percentile": round(tail_pct, 2),
        "setup_total_s": [s["total_s"] for s in setups],
        "failed_checks": failures,
        "unexpected": sorted(set(unexpected))[:20],
        "env": main_run["env"],
        "steal_share": main_run["steal_share"],
        "reference_loop_ms": main_run["reference_loop_ms"],
    }
    if args.trace:
        detail["traced_samples"] = len(main_run["traced_samples"])
        detail["span_count"] = main_run["span_count"]
        detail["spans_file"] = os.path.relpath(spans_out, ROOT)
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": len(outcomes),
                "failed": sum(1 for names in outcomes.values() if names),
                "metrics": metrics,
            }
        )
    )


if __name__ == "__main__":
    main()
