"""Self-test of the tracer and of the exact per-layer counts.

    python3 fdbench/selftest.py [--seed N] [--seconds S] [WORKLOAD ...]

Run from the root of a formdec checkout.  It checks that

* installing the tracer rebinds every public formdec function in every
  formdec namespace that holds it, and uninstalling restores each binding;
* two traced runs of each workload with the same seed report identical
  exact counts (the metrics marked with a dagger in the README) and an
  identical failure share;
* every per-layer metric named in BENCHMARK.json is reported;
* MINRES counts read 0 on flat-t2-decompose and minkowski-t4-em.

Exit code 0 when every check holds, 1 otherwise.
"""

import argparse
import importlib
import json
import os
import subprocess
import sys
import types

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
EXACT_SUFFIXES = (".calls", ".points", ".minres_iters", ".restarts", ".deflated_dims")
MINRES_FREE = ("flat-t2-decompose", "minkowski-t4-em")


def bindings():
    """Every attribute the tracer may rebind, by (owner name, attribute)."""
    import numpy.fft
    import scipy.sparse.linalg

    from formdec import mesh

    out = {}
    for name, module in sorted(sys.modules.items()):
        if name == "formdec" or name.startswith("formdec."):
            for attr, value in vars(module).items():
                out[(name, attr)] = value
    for cls in (mesh.DiscreteForm, mesh.PeriodicGrid):
        for attr, value in vars(cls).items():
            out[(cls.__name__, attr)] = value
    for attr in ("fftn", "ifftn"):
        out[("numpy.fft", attr)] = getattr(numpy.fft, attr)
    out[("scipy.sparse.linalg", "minres")] = scipy.sparse.linalg.minres
    return out


def check_restore():
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    for name in ("formdec", "formdec.cli", "formdec.fields"):
        importlib.import_module(name)
    import tracer

    from formdec import cohomology, decompose, em, mesh

    before = bindings()
    tr = tracer.Tracer()
    tr.install()
    try:
        during = bindings()
        shared = (em.integrate_cycle_mean, cohomology.integrate_cycle_mean, decompose.integrate_cycle_mean)
        problems = []
        if any(f is not mesh.integrate_cycle_mean for f in shared):
            problems.append("integrate_cycle_mean is not rebound in every namespace")
        unwrapped = [
            f"{owner}.{attr}"
            for (owner, attr), value in before.items()
            if owner.startswith("formdec")
            and not attr.startswith("_")
            and isinstance(value, types.FunctionType)
            and value.__module__.startswith("formdec.")
            and not value.__name__.startswith("_")
            and during[(owner, attr)] is value
        ]
        if unwrapped:
            problems.append(f"not wrapped: {unwrapped}")
    finally:
        tr.uninstall()
    after = bindings()
    changed = [f"{o}.{a}" for (o, a), v in before.items() if after.get((o, a)) is not v]
    if changed or set(after) != set(before):
        problems.append(f"not restored: {changed}")
    return problems


def traced_run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: traced run failed\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_workload(workload, seed, seconds, layer_names):
    a = traced_run(workload, seed, seconds)
    b = traced_run(workload, seed, seconds)
    problems = []
    for name in layer_names:
        if name not in a["metrics"] or name not in b["metrics"]:
            problems.append(f"{name} not reported")
    exact = sorted(k for k in a["metrics"] if k.endswith(EXACT_SUFFIXES))
    for name in exact:
        va, vb = a["metrics"][name]["value"], b["metrics"].get(name, {}).get("value")
        if va != vb:
            problems.append(f"{name}: {va} != {vb}")
    if a["failed"] / a["attempted"] != b["failed"] / b["attempted"]:
        problems.append(f"failure share {a['failed']}/{a['attempted']} != {b['failed']}/{b['attempted']}")
    if workload in MINRES_FREE:
        for name in ("calculus.green_solve.minres_iters", "calculus.green_solve.restarts"):
            if a["metrics"][name]["value"] != 0:
                problems.append(f"{name} is {a['metrics'][name]['value']}, expected 0")
    if not (a["correct"] and b["correct"]):
        problems.append("a traced run reported correct = false")
    summary = {k: a["metrics"][k]["value"] for k in exact}
    return problems, summary, f"{a['failed']}/{a['attempted']}"


def main():
    ap = argparse.ArgumentParser(description="tracer and exact-count self-test")
    ap.add_argument("workloads", nargs="*")
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=2.0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    names = args.workloads or [w["name"] for w in bench["workloads"]]
    layer_names = [m["name"] for m in bench["per_layer"]]

    ok = True
    problems = check_restore()
    print(f"tracer install/uninstall: {'ok' if not problems else problems}")
    ok &= not problems
    for workload in names:
        problems, counts, share = check_workload(workload, args.seed, args.seconds, layer_names)
        print(f"{workload}: {'ok' if not problems else 'FAIL'} failed {share}")
        for p in problems:
            print(f"  {p}")
        print("  " + json.dumps(counts))
        ok &= not problems
    print("self-test", "passed" if ok else "FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
