"""One benchmark run of one workload, in a fresh interpreter.

``run.py`` starts this with the BLAS thread counts pinned to 1 and ``src`` on
``PYTHONPATH``.  It is a closed loop with one client: each ``analyze`` starts
only after the previous one returned.  The run is

1. build the workload's patterns from the seed (untimed, guarded);
2. an untimed warm-up: the first operation, and (catalog) one fixture's
   checks, so that first-call costs, which ``setup_s`` already reports, stay
   out of the timings;
3. timed passes, each over every operation, until ``--seconds`` have passed
   and at least the workload's ``MIN_TIMED_PASSES`` are done; with
   ``--trace 1`` instead a single plain pass, the baseline for
   ``trace.overhead_frac``, then one pass under the layer tracer;
4. check every pass's outputs, write the per-operation log, and print one
   JSON result line.

An operation is ``analyze`` on one pattern with the CLI-default
``SampleConfig()`` followed by ``verdict_to_json``; each check of
``fixtures.verify`` is an operation too.  An operation fails if it raises,
if its overall verdict or its JSON digest differs from the reference, if its
JSON differs from the run's first pass, if its witness pair does not separate
inertias when re-profiled, or if a verify check fails or differs from the
reference.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
OUT_DIR = ROOT / ".bench_out"

# At least two passes, so that byte-identity between passes can be checked at
# seeds without a reference, and enough to average out host noise.
MIN_TIMED_PASSES = {"catalog": 3, "ladder": 4, "trees": 2}
TAIL_BEYOND = 10
PROBE_MATRIX = np.random.default_rng(0).standard_normal((8, 8))


def _check_program_source() -> None:
    try:
        import signum
    except ImportError as exc:
        sys.exit(f"error: cannot import signum from {SRC}: {exc}")
    where = Path(signum.__file__).resolve()
    if SRC.resolve() not in where.parents:
        sys.exit(f"error: signum imported from {where}, not from {SRC}")


_check_program_source()

from signum import fixtures, spectra, verdict  # noqa: E402

import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


class PassResult:
    """Outputs and timings of one pass; verdict objects are kept for checking."""

    def __init__(self) -> None:
        self.verdicts: list = []
        self.texts: list[str | None] = []
        self.errors: list[str | None] = []
        self.latency_s: list[float] = []
        # probe_s[k] is taken just before operation k, and one more after the last.
        self.probe_s: list[float] = []
        self.verify: list[tuple[str, bool]] | None = None
        self.verify_s: float | None = None
        self.wall_s = 0.0


def probe() -> float:
    """Time a fixed mix of interpreter work and small eigensolves, like analyze's.

    The host this benchmark was tuned on changes speed by about 30% every few
    seconds, and drifts over minutes.  Dividing by this probe, taken between
    operations, cancels much of that.
    """
    t0 = time.perf_counter()
    total = 0
    for i in range(150_000):
        total += i
    for _ in range(150):
        np.linalg.eigvals(PROBE_MATRIX)
    return time.perf_counter() - t0


def run_pass(ops, with_verify: bool, tracer: Tracer | None = None) -> PassResult:
    """One pass; untraced passes take a probe before every operation and after the last."""
    res = PassResult()
    start = time.perf_counter()
    for op in ops:
        if tracer is None:
            res.probe_s.append(probe())
        else:
            tracer.op = op.index
        t0 = time.perf_counter()
        try:
            # Looked up on the module at call time, so a tracer sees the call.
            v = verdict.analyze(op.pattern, cfg=spectra.SampleConfig())
            text = verdict.verdict_to_json(v)
            error = None
        except Exception as exc:  # a raising operation is a failed operation
            v, text, error = None, None, f"{type(exc).__name__}: {exc}"
        res.latency_s.append(time.perf_counter() - t0)
        res.verdicts.append(v)
        res.texts.append(text)
        res.errors.append(error)
    if tracer is None:
        res.probe_s.append(probe())
    if with_verify:
        if tracer is not None:
            tracer.op = len(ops)
        t0 = time.perf_counter()
        outcomes = fixtures.verify()
        res.verify_s = time.perf_counter() - t0
        res.verify = [(f"{o.fixture}.{o.check_id}", bool(o.passed)) for o in outcomes]
    res.wall_s = time.perf_counter() - start - sum(res.probe_s)
    return res


def relative_latencies(res: PassResult) -> list[float]:
    """Each latency divided by the mean of the probes taken around it."""
    p = res.probe_s
    return [lat / ((p[k] + p[k + 1]) / 2) for k, lat in enumerate(res.latency_s)]


def digest(text: str | None) -> str | None:
    return None if text is None else hashlib.sha256(text.encode()).hexdigest()


def witness_problem(v) -> str | None:
    """Re-profile the attached witness pair; None when it holds up."""
    pair = v.witness_pair()
    if pair is None:
        return None
    a = spectra.spectral_profile(pair.a).inertia
    b = spectra.spectral_profile(pair.b).inertia
    if a == b:
        return f"witness inertias coincide on re-profile: {a}"
    if (a, b) != pair.inertias():
        return f"witness re-profiles to {a}/{b}, claims {pair.inertias()}"
    return None


def load_reference(workload: str, seed: int) -> dict | None:
    """The workload's reference outputs, or None at a seed that has none."""
    entry = json.loads(REFERENCE.read_text())[workload]
    return entry if entry["seed"] in (None, seed) else None


def check(ops, passes: list[tuple[str, PassResult]], reference: dict | None) -> list[dict]:
    """Per-operation records of every checked pass, each with its failure (or None)."""
    first = passes[0][1]
    records = []
    for pass_name, res in passes:
        for k, op in enumerate(ops):
            v, text, sha = res.verdicts[k], res.texts[k], digest(res.texts[k])
            problem = res.errors[k]
            if problem is None and reference is not None:
                ref = reference["operations"][k]
                if ref["label"] != op.label:
                    problem = f"reference lists {ref['label']} at index {k}"
                elif v.overall.value != ref["overall"]:
                    problem = f"overall {v.overall.value}, reference {ref['overall']}"
                elif sha != ref["sha256"]:
                    problem = "verdict JSON differs from the reference digest"
            if problem is None and text != first.texts[k]:
                problem = "verdict JSON differs from the run's first pass"
            if problem is None:
                problem = witness_problem(v)
            pair = v.witness_pair() if v is not None else None
            records.append(
                {
                    "pass": pass_name,
                    "index": op.index,
                    "label": op.label,
                    "order": op.pattern.n,
                    "edges": op.edge_count,
                    "shape": v.shape.kind.value if v is not None and v.shape else None,
                    "overall": v.overall.value if v is not None else None,
                    "witness": pair.method if pair is not None else None,
                    "latency_ms": res.latency_s[k] * 1e3,
                    "sha256": sha,
                    "failure": problem,
                }
            )
        for t, (check_id, passed) in enumerate(res.verify or ()):
            problem = None if passed else "verify check failed"
            if problem is None and reference is not None and reference["verify"][t] != check_id:
                problem = f"reference lists {reference['verify'][t]} at check {t}"
            if problem is None and first.verify[t] != (check_id, passed):
                problem = "verify outcome differs from the run's first pass"
            records.append({"pass": pass_name, "verify": check_id, "failure": problem})
    return records


def tail(samples: list[float], min_samples: int) -> tuple[float, float]:
    """The highest percentile with TAIL_BEYOND samples beyond it, and that percentile.

    The percentile is fixed by the workload's minimum sample count, so it
    stays the same when a faster program fits more passes into a run.
    """
    if min_samples <= 2 * TAIL_BEYOND:
        raise ValueError(f"{min_samples} samples put the tail at or below the median")
    ordered = sorted(samples)
    rank = -(-(min_samples - TAIL_BEYOND) * len(ordered) // min_samples)  # nearest rank, exact
    return ordered[rank - 1], 100.0 * (min_samples - TAIL_BEYOND) / min_samples


def record_reference(workload: str, seed: int, ops, res: PassResult) -> None:
    table = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    table[workload] = {
        "seed": None if workload == "catalog" else seed,
        "operations": [
            {"label": op.label, "overall": v.overall.value, "sha256": digest(t)}
            for op, v, t in zip(ops, res.verdicts, res.texts)
        ],
        "verify": None if res.verify is None else [cid for cid, _ in res.verify],
    }
    REFERENCE.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def program_versions() -> dict[str, str]:
    import networkx
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "networkx": networkx.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true", help="write the reference outputs")
    args = ap.parse_args()

    ops = workloads.build(args.workload, args.seed)
    in_pass_verify = args.workload == "catalog"

    # Warm-up: first calls of the analysis path and of the fixture checks.
    run_pass(ops[:1], False)
    if in_pass_verify:
        fixtures.verify(fixtures.fixture_names()[:1])

    timed: list[PassResult] = []
    min_passes = 1 if args.trace else MIN_TIMED_PASSES[args.workload]
    t_start = time.perf_counter()
    while len(timed) < min_passes or (
        not args.trace and time.perf_counter() - t_start < args.seconds
    ):
        timed.append(run_pass(ops, in_pass_verify))
    checked = [(f"timed{k}", res) for k, res in enumerate(timed)]

    if args.record:
        first = timed[0]
        if any(e is not None for e in first.errors) or not all(p for _, p in first.verify or ()):
            sys.exit("error: refusing to record a reference from a failing pass")
        record_reference(args.workload, args.seed, ops, first)

    if args.trace:
        tracer = Tracer()
        with tracer:
            traced = run_pass(ops, in_pass_verify, tracer)
        checked.append(("traced", traced))

    reference = load_reference(args.workload, args.seed)
    records = check(ops, checked, reference)
    failed = sum(1 for r in records if r["failure"] is not None)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(OUT_DIR / f"{stem}-ops.jsonl", "w") as fh:
        for r in records:
            fh.write(json.dumps({"workload": args.workload, **r}) + "\n")

    latencies = [s for res in timed for s in res.latency_s]
    verify_runs = [res.verify for _, res in checked if res.verify is not None]
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "operations_per_pass": len(ops),
        "timed_passes": len(timed),
        "attempted": len(records),
        "failed": failed,
        "fail_frac": failed / len(records),
        "checked_against_reference": sum(
            1 for r in records if "index" in r and reference is not None
        ),
        "verify_checks_passed": (
            f"{sum(p for _, p in verify_runs[-1])}/{len(verify_runs[-1])}" if verify_runs else None
        ),
        "verify_s": (
            statistics.median(res.verify_s for res in timed) if in_pass_verify else None
        ),
        "latency_samples": len(latencies),
        **program_versions(),
    }

    if args.trace:
        metrics = tracer.metrics(traced.wall_s, timed[0].wall_s)
        with open(OUT_DIR / f"{stem}-spans.jsonl", "w") as fh:
            for span in tracer.span_records():
                fh.write(json.dumps(span) + "\n")
    else:
        # Reported, not gated: raw times follow the host's speed, and on catalog
        # the tail is the latency of one or two fixtures.
        tail_s, info["tail_percentile"] = tail(
            latencies, len(ops) * MIN_TIMED_PASSES[args.workload]
        )
        info["wall_s"] = statistics.median(res.wall_s for res in timed)
        info["analyze_ms.p50"] = statistics.median(latencies) * 1e3
        info["analyze_ms.tail"] = tail_s * 1e3
        info["probe_ms"] = statistics.median(p for res in timed for p in res.probe_s) * 1e3
        metrics = {
            "wall_rel": (
                statistics.median(res.wall_s / statistics.median(res.probe_s) for res in timed),
                "probes",
            ),
            "analyze_rel.p50": (
                statistics.median(r for res in timed for r in relative_latencies(res)),
                "probes",
            ),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    print(
        json.dumps(
            {
                "info": info,
                "attempted": len(records),
                "failed": failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )


if __name__ == "__main__":
    main()
