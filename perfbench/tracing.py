"""Spans and counters for the traced run, installed from outside the program.

:meth:`Tracer.install` rebinds each public function listed in
:data:`TARGETS` to a wrapper, in every ``roughpart`` module that holds the
function under its name, so calls between modules are traced as well as
the benchmark's own calls. The measure factories are rebound to return
counting measures: same tag, parameters and ``describe()`` string, with an
evaluation function that counts each call and the distinct
(mask pair, universe size, measure) keys it sees.

Each span is (id, name, start, end, parent id, run id) and stays in memory
until :meth:`Tracer.write_spans`. Layer totals are kept as spans close:
a layer's ``time_s`` sums the spans with no enclosing span of the same
layer, and its ``self_s`` sums each span's duration minus that of its
direct child spans.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
from time import perf_counter

# layer -> functions wrapped in the layer's module
TARGETS = {
    "cli": ("main",),
    "verify": ("run_theorem_suite", "compare_with_expected"),
    "inclusion": ("check_axiom", "classify_rif", "check_prif_implications",
                  "eval_bgrif", "eval_cgrif"),
    "approx": ("classical_lower", "classical_upper", "bited_upper",
               "vprs_lower", "vprs_upper", "vprs_negative", "vprs_regions",
               "vprs_star_lower", "vprs_star_upper", "pointwise_lower",
               "pointwise_upper", "graded_upper", "graded_lower",
               "graded_lower_strict", "graded_regions"),
    "parthood": ("build_parthood", "analyze_properties", "build_pu",
                 "equalizers"),
    "rational": ("rational_lower", "rational_upper",
                 "check_rational_proposition"),
    "correspond": ("build_upper_correspondence", "build_lower_correspondence",
                   "check_nonrepresentability"),
    "core": ("build_neighborhood_granulation", "neighborhood_map",
             "check_ggs_axioms", "check_admissibility"),
}
MEASURE_FACTORIES = ("kappa_k0", "kappa_k1", "kappa_k2", "kappa_st")

SUITES = ("table-diff", "vprs-alpha", "vprs-star", "ri-cap", "grif",
          "rif-axioms", "prif", "parthood", "rational", "correspond", "ggs")

# name -> unit, in report order; "better" for each is in BENCHMARK.json.
LAYER_METRICS = {
    "cli.calls": "count", "cli.time_s": "s", "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "verify.time_s": "s", "verify.self_s": "s", "verify.checked": "count",
    "verify.compare_s": "s",
    **{f"verify.suite.{s}_s": "s" for s in SUITES},
    "inclusion.evals": "count", "inclusion.evals_distinct": "count",
    "inclusion.evals_useful_ratio": "ratio",
    "inclusion.check_axiom_calls": "count", "inclusion.check_axiom_s": "s",
    "inclusion.classify_s": "s", "inclusion.eval_bgrif_calls": "count",
    "inclusion.eval_bgrif_s": "s",
    "approx.calls": "count", "approx.time_s": "s",
    "parthood.build_calls": "count", "parthood.build_s": "s",
    "parthood.pairs": "count", "parthood.pair_density": "ratio",
    "parthood.analyze_calls": "count", "parthood.analyze_s": "s",
    "rational.calls": "count", "rational.time_s": "s",
    "correspond.calls": "count", "correspond.time_s": "s",
    "core.calls": "count", "core.time_s": "s",
    "trace.wall_s": "s", "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s", "trace.spans": "count",
}
# Counts that must repeat exactly between traced passes of one seed.
EXACT_COUNTS = ("inclusion.evals", "inclusion.evals_distinct",
                "verify.checked", "parthood.pairs")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.run_id = 0
        self._stack: list[list] = []      # [span id, child duration]
        self._depth: dict[str, int] = {}  # open spans per layer or name
        self.calls: dict[str, int] = {}   # per layer and per function
        self.time: dict[str, float] = {}  # outermost spans only
        self.self_time: dict[str, float] = {}
        self.evals = 0
        self.eval_keys: set[tuple] = set()
        self.checked = 0
        self.pairs = 0
        self.pairs_tested = 0
        self.out_bytes = 0
        self._measures: dict[int, object] = {}
        self._ids = itertools.count()

    # -- installation ------------------------------------------------------

    def install(self, package) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "roughpart" or name.startswith("roughpart.")]
        for layer, names in TARGETS.items():
            home = getattr(package, layer)
            for fname in names:
                self._rebind(modules, getattr(home, fname),
                             self._span(getattr(home, fname), layer, fname))
        for fname in MEASURE_FACTORIES:
            original = getattr(package.inclusion, fname)
            self._rebind(modules, original, self._factory(original))

    @staticmethod
    def _rebind(modules, original, replacement) -> None:
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    def _span(self, fn, layer: str, fname: str):
        tracer = self
        stack = self._stack
        depth = self._depth
        if fname == "run_theorem_suite":
            def on_result(args, kwargs, result, outermost):
                if outermost:
                    tracer.checked += sum(o.checked for o in result.outcomes)
        elif fname == "build_parthood":
            def on_result(args, kwargs, result, outermost):
                tracer.pairs += result.size
                tracer.pairs_tested += 4 ** result.universe.size
        else:
            on_result = None
        key = f"{layer}.{fname}"
        per_suite = fname == "run_theorem_suite"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = key
            if per_suite:
                name = "verify.suite." + (args[0] if args
                                          else kwargs["suite_id"])
            span_id = next(tracer._ids)
            parent = stack[-1][0] if stack else -1
            layer_outer = depth.get(layer, 0) == 0
            fn_outer = depth.get(key, 0) == 0
            depth[layer] = depth.get(layer, 0) + 1
            depth[key] = depth.get(key, 0) + 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                depth[layer] -= 1
                depth[key] -= 1
                dur = end - start
                if stack:
                    stack[-1][1] += dur
                tracer._close(layer, key, name, dur, dur - frame[1],
                              layer_outer, fn_outer)
                tracer.spans.append((span_id, name, start, end, parent,
                                     tracer.run_id))
            if on_result is not None:
                on_result(args, kwargs, result, fn_outer)
            return result

        return wrapper

    def _close(self, layer, key, name, dur, own, layer_outer, fn_outer):
        calls, time, self_time = self.calls, self.time, self.self_time
        calls[key] = calls.get(key, 0) + 1
        self_time[layer] = self_time.get(layer, 0.0) + own
        if layer_outer:
            calls[layer] = calls.get(layer, 0) + 1
            time[layer] = time.get(layer, 0.0) + dur
        if fn_outer:
            time[key] = time.get(key, 0.0) + dur
        if name != key:
            time[name] = time.get(name, 0.0) + dur

    def _factory(self, factory):
        tracer = self

        @functools.wraps(factory)
        def make(*args, **kwargs):
            original = factory(*args, **kwargs)
            counting = tracer._measures.get(id(original))
            if counting is None:
                counting = tracer.counting(original)
                # Factories may return one shared object; keep it shared.
                if not args and not kwargs:
                    tracer._measures[id(original)] = counting
            return counting

        return make

    def counting(self, measure):
        """A measure equal in name and values that counts its evaluations."""
        inner = measure.fn
        desc = measure.describe()
        keys = self.eval_keys
        tracer = self

        def fn(universe, am, bm):
            tracer.evals += 1
            keys.add((am, bm, universe.size, desc))
            return inner(universe, am, bm)

        counted = type(measure)(measure.tag, fn, measure.parameters)
        if counted.describe() != desc:
            raise RuntimeError(f"counting measure renamed {desc!r}")
        return counted

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        t, c = self.time, self.calls
        out = {
            "cli.calls": c.get("cli", 0), "cli.time_s": t.get("cli", 0.0),
            "cli.self_s": self.self_time.get("cli", 0.0),
            "cli.out_bytes": self.out_bytes,
            "verify.time_s": t.get("verify", 0.0),
            "verify.self_s": self.self_time.get("verify", 0.0),
            "verify.checked": self.checked,
            "verify.compare_s": t.get("verify.compare_with_expected", 0.0),
            "inclusion.evals": self.evals,
            "inclusion.evals_distinct": len(self.eval_keys),
            "inclusion.evals_useful_ratio":
                len(self.eval_keys) / self.evals if self.evals else 0.0,
            "inclusion.check_axiom_calls": c.get("inclusion.check_axiom", 0),
            "inclusion.check_axiom_s": t.get("inclusion.check_axiom", 0.0),
            "inclusion.classify_s": t.get("inclusion.classify_rif", 0.0),
            "inclusion.eval_bgrif_calls": c.get("inclusion.eval_bgrif", 0),
            "inclusion.eval_bgrif_s": t.get("inclusion.eval_bgrif", 0.0),
            "parthood.build_calls": c.get("parthood.build_parthood", 0),
            "parthood.build_s": t.get("parthood.build_parthood", 0.0),
            "parthood.pairs": self.pairs,
            "parthood.pair_density":
                self.pairs / self.pairs_tested if self.pairs_tested else 0.0,
            "parthood.analyze_calls":
                c.get("parthood.analyze_properties", 0),
            "parthood.analyze_s": t.get("parthood.analyze_properties", 0.0),
            "trace.spans": len(self.spans),
        }
        for suite in SUITES:
            out[f"verify.suite.{suite}_s"] = t.get(f"verify.suite.{suite}",
                                                   0.0)
        for layer in ("approx", "rational", "correspond", "core"):
            out[f"{layer}.calls"] = c.get(layer, 0)
            out[f"{layer}.time_s"] = t.get(layer, 0.0)
        return out

    def write_spans(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
