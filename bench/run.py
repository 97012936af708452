"""Benchmark entry point for signum.

    python3 bench/run.py --workload {catalog,ladder,trees} --seed N --seconds S --trace {0,1}
    python3 bench/run.py --workload all      # every workload, one table of every metric

Run it from any directory; it benchmarks the ``src/`` tree next to this
directory.  With ``--trace 0`` it reports the end-to-end metrics, with
``--trace 1`` the per-layer metrics of a traced pass (see README.md).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the line before it records the
environment and the run's details: the raw times ``wall_s``,
``analyze_ms.p50`` and ``analyze_ms.tail`` (with its percentile and sample
count), the probe time, ``fail_frac``, ``verify_s`` and the verify checks
passed, and the operations checked against a reference.

``setup_s`` is measured here, as the median wall time of fresh interpreters
importing ``signum.cli``.  Everything else runs in one fresh worker process
(``worker.py``) with the BLAS thread counts pinned to 1.  Per-operation logs
and trace spans are written to ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORKLOADS = ("catalog", "ladder", "trees")
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 20
WORKER_TIMEOUT_S = 150
PINNED_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for name in PINNED_THREADS:
        env[name] = "1"
    env["PYTHONPATH"] = str(SRC)
    return env


def measure_setup(env: dict[str, str]) -> float:
    """Median wall time of a fresh interpreter importing the CLI module."""
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import signum.cli"],
            env=env,
            cwd=ROOT,
            check=True,
            timeout=SETUP_TIMEOUT_S,
            stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def source_identity() -> dict[str, str]:
    """The git commit when ROOT is a checkout's top level, and a digest of src/signum."""
    commit = "unknown"
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and len(lines) == 2 and Path(lines[0]).resolve() == ROOT:
            commit = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha256()
    for path in sorted((SRC / "signum").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"git_commit": commit, "src_sha256": h.hexdigest()}


def run_worker(workload: str, seed: int, seconds: float, trace: int, record: bool, env) -> dict:
    cmd = [
        sys.executable,
        str(BENCH_DIR / "worker.py"),
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        str(trace),
    ]
    if record:
        cmd.append("--record")
    proc = subprocess.run(
        cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"error: {workload} worker exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_one(workload: str, seed: int, seconds: float, trace: int, record: bool) -> tuple[dict, dict]:
    env = worker_env()
    setup_s = None if trace else measure_setup(env)
    result = run_worker(workload, seed, seconds, trace, record, env)
    metrics = result["metrics"]
    if setup_s is not None:
        metrics = {"setup_s": {"value": setup_s, "unit": "s"}, **metrics}
    details = dict(result["info"], **source_identity(), nproc=os.cpu_count(),
                   python=platform.python_version(), trace=trace)
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    return details, line


def main() -> None:
    ap = argparse.ArgumentParser(description="signum benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument(
        "--record",
        action="store_true",
        help="write bench/reference.json from this run (use the default seed)",
    )
    args = ap.parse_args()
    if not (SRC / "signum" / "__init__.py").is_file():
        sys.exit(f"error: no signum sources at {SRC}")

    if args.workload != "all":
        details, line = run_one(args.workload, args.seed, args.seconds, args.trace, args.record)
        print(json.dumps(details))
        print(json.dumps(line))
        return

    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        details, line = run_one(workload, args.seed, args.seconds, args.trace, args.record)
        print(json.dumps(details))
        for name, m in line["metrics"].items():
            print(f"{workload:8s} {name:40s} {m['value']:14.6g} {m['unit']}")
        print(
            f"{workload:8s} {'fail_frac':40s} {details['fail_frac']:14.6g} ratio"
            f"  ({line['failed']}/{line['attempted']} operations failed)"
        )
        if details["verify_s"] is not None:
            print(f"{workload:8s} {'verify_s':40s} {details['verify_s']:14.6g} s")
        if details["verify_checks_passed"] is not None:
            print(f"{workload:8s} verify checks passed: {details['verify_checks_passed']}")
        if not args.trace:
            for name, unit in (("wall_s", "s"), ("analyze_ms.p50", "ms"), ("probe_ms", "ms")):
                print(f"{workload:8s} {name:40s} {details[name]:14.6g} {unit}")
            print(
                f"{workload:8s} {'analyze_ms.tail':40s} {details['analyze_ms.tail']:14.6g} ms"
                f"  (p{details['tail_percentile']:.4g} of {details['latency_samples']} samples)"
            )
        total["correct"] &= line["correct"]
        total["attempted"] += line["attempted"]
        total["failed"] += line["failed"]
        total["metrics"].update({f"{workload}.{k}": v for k, v in line["metrics"].items()})
    print(json.dumps(total))


if __name__ == "__main__":
    main()
