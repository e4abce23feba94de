"""The measured process: set up one workload, run it, check it, report.

Started by ``run.py`` with ``src`` on ``PYTHONPATH`` and the thread settings
in its environment; not meant to be run by hand.  Protocol on stdout: one
``READY <time.monotonic()>`` line once the inputs are built (``run.py``
measures set-up from its spawn time to this stamp; both read the
system-wide monotonic clock), then one JSON line with the run's record.
"""

from __future__ import annotations

import time

_t0 = time.perf_counter()
import xferopt as xo  # noqa: E402  (timed: the import is part of set-up)

IMPORT_S = time.perf_counter() - _t0

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import refs  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

THREAD_VARS = ("XFEROPT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def environment(seed):
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {k: os.environ.get(k) for k in THREAD_VARS},
        "seed": seed,
        "xferopt": os.path.dirname(xo.__file__),
    }


def run_round(wl, tr):
    """One timed round; an exception fails every operation of the round."""
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        out = wl.run_round(tr)
    except Exception:
        traceback.print_exc()
        out = None
    return out, time.perf_counter() - t0, time.process_time() - c0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    src = os.path.abspath(os.path.join("src", "xferopt"))
    if os.path.dirname(os.path.abspath(xo.__file__)) != src:
        print(f"error: imported xferopt from {xo.__file__}, not from {src}", file=sys.stderr)
        return 2
    wl = WORKLOADS[args.workload](xo, args.seed, args.out_dir)
    print(f"READY {time.monotonic()!r}", flush=True)
    if args.setup_only:
        print(json.dumps({"import_s": IMPORT_S}))
        return 0

    rounds = []  # (raw output, wall seconds, cpu seconds)
    record = {"env": environment(args.seed), "import_s": IMPORT_S}
    layer = {}
    if args.trace:
        rounds.append(run_round(wl, tracing.NullTracer()))
        tr = tracing.Tracer()
        import xferopt.optimizer

        with tr.counting_inner_solves(xferopt.optimizer):
            rounds.append(run_round(wl, tr))
        layer["trace.overhead_s"] = (rounds[1][1] - rounds[0][1], "s")
        tracing.micro_suite(xo, tr, args.out_dir, layer)
        tracing.span_metrics(tr, layer)
        tr.write(os.path.join(args.out_dir, "spans.jsonl"))
    else:
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < args.seconds:
            rounds.append(run_round(wl, tracing.NullTracer()))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    run_fails = refs.selfcheck()
    failed_ops, ratios = [], []
    for i, (out, _, _) in enumerate(rounds):
        if out is None:
            failed_ops += [(i, "round raised", ["exception"])] * wl.ops_per_round
            continue
        ops, fails, ratio = wl.check(out)
        if len(ops) != wl.ops_per_round:
            run_fails.append(f"round {i}: {len(ops)} operations checked, expected {wl.ops_per_round}")
        failed_ops += [(i, name, f) for name, f in ops if f]
        run_fails += [f"round {i}: {f}" for f in fails]
        ratios.append(ratio)
    if len(set(ratios)) > 1:
        run_fails.append(f"infidelity_vs_ramp differs between rounds of the same inputs: {ratios}")

    walls = [w for _, w, _ in rounds]
    record.update({
        "correct": not run_fails,
        "attempted": wl.ops_per_round * len(rounds),
        "failed": len(failed_ops),
        "run_failures": run_fails,
        "failed_operations": failed_ops,
        "round_wall_s": walls,
        "round_cpu_s": [c for _, _, c in rounds],
        "wall_s": walls[0] if args.trace else float(np.median(walls)),
        "peak_rss_mb": peak_rss_mb,
        "infidelity_vs_ramp": ratios[0] if ratios else None,
        "layer": layer,
    })
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
