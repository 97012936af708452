"""Self-test of the layer tracer on one ladder pattern.

    python3 bench/selftest.py

Traces ``analyze`` plus ``verdict_to_json`` on the first ladder operation and
fails (exit 1) unless the census and composite-cycle spans are non-empty,
the generator steps were timed per ``next()`` (the enumeration is credited
to ``composite_cycles_of_length``, not to its consumer), the wrapped
top-level time covers at least 95% of the traced wall time, and every
patched binding is restored afterwards.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"
sys.path.insert(0, str(SRC))

import workloads  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

import signum.cli  # noqa: E402,F401  (the tracer wraps it too)
from signum import spectra, verdict  # noqa: E402

MIN_COVERAGE = 0.95


def bindings() -> dict[tuple[str, str], object]:
    out = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "signum" or name.startswith("signum.")):
            for attr, obj in vars(module).items():
                if callable(obj):
                    out[(name, attr)] = obj
    import numpy.linalg
    import scipy.optimize

    out[("numpy.linalg", "eigvals")] = numpy.linalg.eigvals
    out[("scipy.optimize", "linear_sum_assignment")] = scipy.optimize.linear_sum_assignment
    return out


def main() -> int:
    op = workloads.build("ladder", workloads.DEFAULT_SEED)[0]
    before = bindings()
    tracer = Tracer()
    with tracer:
        patched = len(tracer._patched)
        tracer.op = op.index
        t0 = time.perf_counter()
        verdict.verdict_to_json(verdict.analyze(op.pattern, cfg=spectra.SampleConfig()))
        wall = time.perf_counter() - t0
    after = bindings()

    census = tracer.stat("spectra.census")
    composite = tracer.stat("cycles.composite_cycles_of_length")
    simple = tracer.stat("cycles.simple_cycles")
    sign_set = tracer.stat("cycles.max_composite_sign_set")
    coverage = tracer.top_level_s / wall
    results = [
        (f"{patched} bindings patched, covering every layer", patched > len(LAYERS)),
        ("census spans are non-empty", census.calls > 0 and census.incl_s > 0),
        ("eigvals calls from spectra are wrapped", tracer.stat("spectra.eigvals").calls > 0),
        (
            f"composite steps timed: {composite.calls} steps, {composite.items} items",
            composite.items > 0 and composite.incl_s > 0,
        ),
        (f"simple-cycle steps timed: {simple.items} items", simple.items > 0),
        (
            "composite enumeration is credited to its steps, not to max_composite_sign_set:"
            f" {composite.incl_s:.3f} s of {sign_set.incl_s:.3f} s",
            composite.incl_s > 0.5 * sign_set.incl_s,
        ),
        (f"trace.coverage {coverage:.4f} >= {MIN_COVERAGE}", coverage >= MIN_COVERAGE),
        ("spans carry the operation id", all(span[5] == op.index for span in tracer.spans)),
        (
            "every binding restored",
            before.keys() == after.keys() and all(before[k] is after[k] for k in before),
        ),
    ]
    for label, ok in results:
        print(f"[{'ok' if ok else 'FAIL'}] {label}")
    return 0 if all(ok for _, ok in results) else 1


if __name__ == "__main__":
    sys.exit(main())
