"""Layer tracer that wraps signum's public functions from outside the program.

Nothing under ``src/`` knows about it.  ``Tracer.install`` replaces every
module attribute in the ``signum.*`` modules that *is* one of the wrapped
originals, because most callers import by name (``from .spectra import
census``), so patching only the defining module would miss nearly every
call.  ``numpy.linalg.eigvals`` and ``scipy.optimize.linear_sum_assignment``
are wrapped the same way; their time and counts go to the layer of the
signum function that called them.  ``uninstall`` puts every original back.

Generator functions (``simple_cycles``, ``composite_cycles_of_length``) are
timed per ``next()`` step, with the items they yield counted: a plain
wrapper would time only the creation of the generator and credit the
enumeration to whoever consumes it.

A span is (id, name, start, end, parent id, operation id).  Spans stay in
memory until the run ends.  The high-frequency leaves (``sample``,
``spectral_profile``, ``eigvals`` and the generator steps) are aggregated
per parent span instead of written one span each.  Self time is a call's
duration minus the time its wrapped children took.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time

LAYERS = ("patterns", "graphs", "cycles", "charpoly", "spectra", "verdict", "fixtures", "cli")

# (module, attribute, short name); the layer is that of the calling span.
EXTERNALS = (
    ("numpy.linalg", "eigvals", "eigvals"),
    ("scipy.optimize", "linear_sum_assignment", "assignment"),
)

AGGREGATED_LEAVES = frozenset(
    {"sample", "spectral_profile", "eigvals", "simple_cycles", "composite_cycles_of_length"}
)

ERROR_NAMES = ("NoStabilization", "DegenerateBase")


class Stat:
    """Totals for one traced name: calls (or generator steps), time, items."""

    __slots__ = ("calls", "incl_s", "self_s", "items", "errors", "active")

    def __init__(self) -> None:
        self.calls = 0
        self.incl_s = 0.0
        self.self_s = 0.0
        self.items = 0
        self.errors: dict[str, int] = {}
        self.active = 0


class Tracer:
    def __init__(self) -> None:
        self.op = -1
        self.spans: list[tuple] = []
        # (parent span id, name) -> [steps, seconds]
        self.leaf_aggregates: dict[tuple[int, str], list] = {}
        self.stats: dict[str, Stat] = {}
        self.layer_self_s: dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.top_level_s = 0.0
        self.counters = {
            "census_trials": 0,
            "census_failures": 0,
            "profiles": 0,
            "suspect": 0,
            "borderline": 0,
            "witness_found": 0,
        }
        self._stack: list[list] = []
        self._next_id = 0
        self._patched: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _enter(self, layer: str | None, short: str) -> list:
        stack = self._stack
        parent = stack[-1] if stack else None
        if layer is None:
            layer = parent[1] if parent is not None else "external"
        key = f"{layer}.{short}"
        stat = self.stats.get(key)
        if stat is None:
            stat = self.stats[key] = Stat()
        stat.active += 1
        if short in AGGREGATED_LEAVES:
            span_id = None
            anchor = parent[4] if parent is not None else -1
        else:
            span_id = self._next_id
            self._next_id += 1
            anchor = span_id
        # [stat, layer, start, child seconds, anchor span id, own span id, parent anchor, name]
        frame = [
            stat,
            layer,
            0.0,
            0.0,
            anchor,
            span_id,
            parent[4] if parent is not None else -1,
            key,
        ]
        stack.append(frame)
        frame[2] = time.perf_counter()
        return frame

    def _exit(self, frame: list, error: BaseException | None = None) -> None:
        end = time.perf_counter()
        stack = self._stack
        stack.pop()
        stat, layer, start, child = frame[0], frame[1], frame[2], frame[3]
        dur = end - start
        own = dur - child
        stat.calls += 1
        stat.self_s += own
        stat.active -= 1
        if stat.active == 0:
            stat.incl_s += dur
        if layer in self.layer_self_s:
            self.layer_self_s[layer] += own
        if error is not None:
            name = type(error).__name__
            stat.errors[name] = stat.errors.get(name, 0) + 1
        if stack:
            stack[-1][3] += dur
        else:
            self.top_level_s += dur
        if frame[5] is None:
            agg_key = (frame[6], frame[7])
            agg = self.leaf_aggregates.get(agg_key)
            if agg is None:
                self.leaf_aggregates[agg_key] = [1, dur]
            else:
                agg[0] += 1
                agg[1] += dur
        else:
            self.spans.append((frame[5], frame[7], start, end, frame[6], self.op))

    def _observe(self, short: str, result) -> None:
        c = self.counters
        if short == "spectral_profile":
            c["profiles"] += 1
            c["suspect"] += bool(result.suspect)
            c["borderline"] += bool(result.borderline)
        elif short == "census":
            c["census_trials"] += result.trials
            c["census_failures"] += result.failures
        elif short == "find_witness_pair":
            c["witness_found"] += result is not None

    # -- wrappers ----------------------------------------------------------

    def _wrap_function(self, layer: str | None, short: str, fn):
        tracer = self
        observed = short in ("spectral_profile", "census", "find_witness_pair")

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = tracer._enter(layer, short)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                tracer._exit(frame, exc)
                raise
            tracer._exit(frame)
            if observed:
                tracer._observe(short, result)
            return result

        return traced

    def _wrap_generator(self, layer: str, short: str, fn):
        tracer = self

        def steps(gen):
            while True:
                frame = tracer._enter(layer, short)
                try:
                    item = next(gen)
                except StopIteration:
                    tracer._exit(frame)
                    return
                except BaseException as exc:
                    tracer._exit(frame, exc)
                    raise
                tracer._exit(frame)
                frame[0].items += 1
                yield item

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return steps(fn(*args, **kwargs))

        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every public signum function and the two numeric externals."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        replacements: dict[int, tuple[object, object]] = {}
        for layer in LAYERS:
            module = importlib.import_module(f"signum.{layer}")
            for name, obj in vars(module).items():
                if (
                    name.startswith("_")
                    or not inspect.isfunction(obj)
                    or obj.__module__ != module.__name__
                ):
                    continue
                if inspect.isgeneratorfunction(obj):
                    wrapper = self._wrap_generator(layer, name, obj)
                else:
                    wrapper = self._wrap_function(layer, name, obj)
                replacements[id(obj)] = (obj, wrapper)
        homes = []
        for module_name, attr, short in EXTERNALS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr)
            replacements[id(original)] = (original, self._wrap_function(None, short, original))
            homes.append(module)
        targets = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == "signum" or name.startswith("signum."))
        ] + homes
        for module in targets:
            for name, obj in list(vars(module).items()):
                hit = replacements.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, name, hit[1])
                    self._patched.append((module, name, obj))

    def uninstall(self) -> None:
        """Restore every binding that install replaced."""
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading -----------------------------------------------------------

    def stat(self, key: str) -> Stat:
        return self.stats.get(key) or Stat()

    def external_calls(self, short: str) -> int:
        return sum(s.calls for k, s in self.stats.items() if k.rsplit(".", 1)[-1] == short)

    def metrics(self, traced_wall_s: float, untraced_wall_s: float) -> dict[str, tuple[float, str]]:
        """The per-layer metrics of one traced pass, as name -> (value, unit)."""
        st = self.stat
        c = self.counters
        census = st("spectra.census")
        fwp = st("spectra.find_witness_pair")
        stab = st("spectra.stabilize_epsilon")
        stab_failed = sum(stab.errors.get(name, 0) for name in ERROR_NAMES)
        composite = st("cycles.composite_cycles_of_length")
        simple = st("cycles.simple_cycles")
        sign_set = st("cycles.max_composite_sign_set")
        profiles = c["profiles"]
        out = {
            "spectra.census.s": (census.incl_s, "s"),
            "spectra.census.calls": (census.calls, "count"),
            "spectra.census.trials": (c["census_trials"], "count"),
            "spectra.sample.s": (st("spectra.sample").incl_s, "s"),
            "spectra.spectral_profile.self_s": (st("spectra.spectral_profile").self_s, "s"),
            "spectra.eigvals.s": (st("spectra.eigvals").incl_s, "s"),
            "spectra.eigvals.calls": (st("spectra.eigvals").calls, "count"),
            "spectra.suspect_frac": (c["suspect"] / profiles if profiles else 0.0, "ratio"),
            "spectra.borderline_frac": (c["borderline"] / profiles if profiles else 0.0, "ratio"),
            "spectra.eig_failures": (c["census_failures"], "count"),
            "spectra.find_witness_pair.s": (fwp.incl_s, "s"),
            "spectra.find_witness_pair.found_frac": (
                c["witness_found"] / fwp.calls if fwp.calls else 0.0,
                "ratio",
            ),
            "spectra.stabilize_epsilon.calls": (stab.calls, "count"),
            "spectra.stabilize_epsilon.fail_frac": (
                stab_failed / stab.calls if stab.calls else 0.0,
                "ratio",
            ),
            "cycles.composite_cycles_of_length.s": (composite.incl_s, "s"),
            "cycles.composites_emitted": (composite.items, "count"),
            "cycles.simple_cycles.s": (simple.incl_s, "s"),
            "cycles.simple_cycles_emitted": (simple.items, "count"),
            "cycles.max_composite_sign_set.calls": (sign_set.calls, "count"),
            "cycles.max_composite_sign_set.s": (sign_set.incl_s, "s"),
            "graphs.cycle_structure.s": (st("graphs.cycle_structure").incl_s, "s"),
            "graphs.classify_shape.s": (st("graphs.classify_shape").incl_s, "s"),
            "graphs.build_digraph.calls": (st("graphs.build_digraph").calls, "count"),
            "graphs.classify_shape.calls": (st("graphs.classify_shape").calls, "count"),
            "cycles.assignment.calls": (self.external_calls("assignment"), "count"),
            "cycles.cover_extension_exists.calls": (
                st("cycles.cover_extension_exists").calls,
                "count",
            ),
            "patterns.validate.calls": (st("patterns.validate").calls, "count"),
            "verdict.analyze.self_s": (st("verdict.analyze").self_s, "s"),
            "verdict.verdict_to_json.s": (st("verdict.verdict_to_json").incl_s, "s"),
            "charpoly.self_s": (self.layer_self_s["charpoly"], "s"),
            "patterns.self_s": (self.layer_self_s["patterns"], "s"),
            "fixtures.verify.s": (st("fixtures.verify").incl_s, "s"),
        }
        for layer in ("spectra", "cycles", "graphs", "verdict", "fixtures", "patterns", "charpoly"):
            out[f"layer.{layer}.share"] = (self.layer_self_s[layer] / traced_wall_s, "ratio")
        out["trace.wall_s"] = (traced_wall_s, "s")
        out["trace.coverage"] = (self.top_level_s / traced_wall_s, "ratio")
        out["trace.overhead_frac"] = (traced_wall_s / untraced_wall_s - 1.0, "ratio")
        out["trace.spans"] = (len(self.spans), "count")
        return out

    def span_records(self):
        """Every recorded span and leaf aggregate, as JSON-ready dicts."""
        for span_id, name, start, end, parent, op in self.spans:
            yield {"id": span_id, "name": name, "start": start, "end": end, "parent": parent, "op": op}
        for (parent, name), (steps, seconds) in sorted(self.leaf_aggregates.items()):
            yield {"aggregate": name, "parent": parent, "steps": steps, "s": seconds}
