"""Benchmark of xferopt's pulse design and Monte-Carlo verification.

Run from the repository root:

    python3 bench/run.py --workload sweep_memory --seed 1 --seconds 15 --trace 0

Workloads: ``sweep_memory``, ``design_leak``, ``verify`` (see README.md).
The program is built from ``src`` (byte-compiled in place) and measured in
fresh single-threaded processes: ``XFEROPT_THREADS=1`` and one BLAS thread.
Set-up is timed in ``SETUP_SAMPLES`` fresh processes and reported as their
median.  The last line of stdout is the result:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``
with the end-to-end metrics under ``--trace 0`` and the per-layer metrics
under ``--trace 1``.  A fuller record goes to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import math
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("sweep_memory", "design_leak", "verify")
SETUP_SAMPLES = 3
DEADLINE_S = 170.0
THREAD_VARS = ("XFEROPT_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


class BenchError(RuntimeError):
    pass


def child_env(root, threads):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src")
    for var in THREAD_VARS:
        if threads == "1":
            env[var] = "1"
        else:
            env.pop(var, None)
    return env


def launch(root, env, argv, deadline):
    """Run one worker; return (set-up seconds, its JSON record)."""
    cmd = [sys.executable, os.path.join(BENCH_DIR, "worker.py")] + argv
    spawned = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=env, stdout=subprocess.PIPE, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError(f"worker exceeded the {DEADLINE_S:.0f} s deadline: {' '.join(argv)}")
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2 or not lines[0].startswith("READY "):
        raise BenchError(f"worker exited with code {proc.returncode}: {' '.join(argv)}")
    return float(lines[0].split()[1]) - spawned, json.loads(lines[-1])


def finite(x):
    return x is not None and math.isfinite(x)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--threads", choices=("1", "default"), default="1",
                    help="'default' leaves worker and BLAS threads unset (for the thread comparison in README.md)")
    args = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S

    root = os.getcwd()
    pkg = os.path.join(root, "src", "xferopt")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        print(f"error: no xferopt sources under {pkg}; run from the repository root", file=sys.stderr)
        return 2
    if not compileall.compile_dir(pkg, quiet=1):
        print("error: xferopt sources failed to byte-compile", file=sys.stderr)
        return 2

    out_dir = os.path.join(BENCH_DIR, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    os.makedirs(out_dir, exist_ok=True)
    env = child_env(root, args.threads)
    argv = ["--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out-dir", out_dir]
    try:
        setups, imports = [], []
        for _ in range(SETUP_SAMPLES - 1):
            setup_s, probe = launch(root, env, argv + ["--setup-only"], deadline)
            setups.append(setup_s)
            imports.append(probe["import_s"])
        setup_s, rec = launch(root, env, argv, deadline)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    setups.append(setup_s)
    imports.append(rec["import_s"])

    correct = bool(rec["correct"])
    if args.trace:
        layer = dict(rec["layer"])
        layer["import.xferopt_s"] = (statistics.median(imports), "s")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in sorted(layer.items())}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "wall_s": {"value": rec["wall_s"], "unit": "s"},
            "peak_rss_mb": {"value": rec["peak_rss_mb"], "unit": "MB"},
            "infidelity_vs_ramp": {"value": rec["infidelity_vs_ramp"], "unit": "ratio"},
        }
    for name, m in metrics.items():
        if not finite(m["value"]):
            rec["run_failures"].append(f"metric {name} is not a finite number: {m['value']!r}")
            m["value"] = 0.0
            correct = False

    rec.update({"workload": args.workload, "seconds": args.seconds, "setup_samples_s": setups,
                "import_samples_s": imports, "metrics": metrics, "correct": correct})
    with open(os.path.join(out_dir, "result.json"), "w", encoding="utf-8") as fh:
        json.dump(rec, fh, indent=1)
    for line in rec["run_failures"]:
        print(f"check failed: {line}", file=sys.stderr)
    for i, name, fails in rec["failed_operations"]:
        print(f"operation failed (round {i}) {name}: {'; '.join(fails)}", file=sys.stderr)
    print("# env " + json.dumps(rec["env"], sort_keys=True))
    print("# rounds wall_s " + json.dumps(rec["round_wall_s"]) + " cpu_s " + json.dumps(rec["round_cpu_s"]))
    print(json.dumps({"correct": correct, "attempted": rec["attempted"], "failed": rec["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
