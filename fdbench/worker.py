"""One fresh process: set up a workload, then optionally run its op loop.

    python3 fdbench/worker.py --workload NAME --seed N --mode setup|measure|trace --seconds S

``run.py`` starts it with every BLAS/OpenMP pool pinned to one thread and
reads the JSON object on its last line of output.  The set-up clock starts
before ``import formdec`` (and numpy), so import, state building and one
warm-up op are all inside ``setup``.  ``measure`` then runs the fixed input
pool in order, in whole passes, until ``--seconds`` have gone; ``trace``
does the same untraced for half the time and traced for the other half.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
sys.path[:0] = [SRC, HERE]


def run_op(op, state, i, known):
    """Time one op; returns (sample, unexpected failures)."""
    gc.collect()
    ru0 = resource.getrusage(resource.RUSAGE_SELF)
    t0 = time.perf_counter()
    try:
        failed = op(state, i)
    except Exception as exc:  # an op that raises is a failed op, not a dead run
        failed = [f"raised {type(exc).__name__}: {exc}"]
    t1 = time.perf_counter()
    ru1 = resource.getrusage(resource.RUSAGE_SELF)
    sample = {
        "input": i,
        "wall_s": t1 - t0,
        "cpu_s": (ru1.ru_utime - ru0.ru_utime) + (ru1.ru_stime - ru0.ru_stime),
        "sys_s": ru1.ru_stime - ru0.ru_stime,
        "minflt": ru1.ru_minflt - ru0.ru_minflt,
        "failed": sorted(failed),
    }
    return sample, [f for f in failed if f not in known]


def run_passes(op, state, pool, seconds, known):
    """Whole passes over the pool, in order, until `seconds` have gone."""
    samples, unexpected = [], []
    start = time.perf_counter()
    while True:
        for i in range(pool):
            sample, bad = run_op(op, state, i, known)
            samples.append(sample)
            unexpected.extend(bad)
        if time.perf_counter() - start >= seconds:
            return samples, unexpected


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", choices=["setup", "measure", "trace"], required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args()

    import formdec

    if not os.path.abspath(formdec.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"formdec imported from {formdec.__file__}, not from {SRC}")
    t_import = time.perf_counter()

    import workloads

    build, op, known = workloads.WORKLOADS[args.workload]
    state = build(args.seed)
    t_state = time.perf_counter()
    _, warm_bad = run_op(op, state, 0, known)
    t_first = time.perf_counter()
    result = {
        "setup": {
            "import_s": t_import - T_START,
            "state_s": t_state - t_import,
            "first_op_s": t_first - t_state,
            "total_s": t_first - T_START,
        },
        "pool": len(state["inputs"]),
        "unexpected": warm_bad,
    }
    if args.mode != "setup":
        result.update(measure(args, build, op, state, known))
    print(json.dumps(result))


def measure(args, build, op, state, known):
    import envinfo

    pool = len(state["inputs"])
    out = {"env": envinfo.snapshot()}
    ref_before = envinfo.reference_loop_ms()
    ticks0 = envinfo.cpu_ticks()
    if args.mode == "measure":
        samples, bad = run_passes(op, state, pool, args.seconds, known)
        out["samples"] = samples
    else:
        import tracer

        half = args.seconds / 2.0
        untraced, bad = run_passes(op, state, pool, half, known)
        tr = tracer.Tracer()
        tr.install()
        try:
            tr.record_spans = True
            _, bad_first = run_op(op, state, 0, known)
            tr.record_spans = False
            spans = tr.spans
            tr.reset()
            traced, bad_traced = run_passes(op, state, pool, half, known)
            layers = tracer.layer_metrics(tr, len(traced))
            # warm workloads build their basis and matrices only in set-up
            tr.reset()
            build(args.seed)
            for name in tracer.SETUP_LAYERS:
                layers[name] += tracer.layer_metrics(tr, 1)[name]
        finally:
            tr.uninstall()
        bad += bad_first + bad_traced
        out["samples"] = untraced
        out["traced_samples"] = traced
        out["layers"] = layers
        out["span_count"] = len(spans)
        if args.spans_out:
            t0 = spans[0][1] if spans else 0.0
            with open(args.spans_out, "w") as fh:
                for name, start, end, parent in spans:
                    fh.write(json.dumps([name, start - t0, end - t0, parent]) + "\n")
    out["steal_share"] = envinfo.steal_share(ticks0, envinfo.cpu_ticks())
    out["reference_loop_ms"] = [ref_before, envinfo.reference_loop_ms()]
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["unexpected_ops"] = sorted(set(bad))
    return out


if __name__ == "__main__":
    main()
