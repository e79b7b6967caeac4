"""Span tracing of bincyclic's public functions, for the traced run only.

``Tracer.install`` replaces each public function with a wrapper in every
``bincyclic`` module that holds it (``bincyclic.gf2.make_field`` and
``bincyclic.codecore.make_field`` alike), and wraps the public methods
listed in ``METHODS`` on their classes.  Each call records a span
``[name, start, end, parent, nested]`` in memory; ``nested`` marks a call
made inside another call of the same function, so inclusive totals count
each stretch of time once.  The field element operations
(``FieldContext.mul``, ``pow_beta``, ``inv``) are not wrapped: they run
millions of times per round and a wrapper would swamp them.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from collections import Counter, defaultdict

#: Module-level public functions, by layer (the layer is the module name).
FUNCTIONS = {
    "gf2": ("poly_degree", "poly_mul", "poly_divrem", "poly_mod", "poly_to_bitstring",
            "poly_from_bitstring", "poly_to_hex", "poly_from_hex", "poly_pretty",
            "make_field", "minimal_polynomial"),
    "cosets": ("coset_of", "build_table", "pi", "pi_inv", "rho", "is_union_of_cosets",
               "classify_by_size", "weight_classes"),
    "constructions": ("build_even_m", "build_two_prime", "build_odd_pq",
                      "build_sqrt_complement", "build_weight_class"),
    "codecore": ("assemble", "bch_run", "bch_lower_bound", "describe", "dual_defining_set"),
    "distance": ("exact_min_distance", "low_weight_search", "auto_distance"),
    "fixtures": ("run_fixture", "select_fixtures"),
    "cli": ("run_command",),
}
#: Public methods that do real work: (layer, class, method).
METHODS = (
    ("gf2", "FieldContext", "eval_poly"),
    ("codecore", "CyclicCode", "dual"),
    ("codecore", "CyclicCode", "verify_roots"),
    ("codecore", "CyclicCode", "encode"),
    ("codecore", "CyclicCode", "is_codeword"),
)

BUILDERS = tuple(f"constructions.{f}" for f in FUNCTIONS["constructions"])
#: Span name of the benchmark's reference ticks (see run.TickSampler).
TICK = "bench.tick"

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER = (
    ("gf2.make_field_s", "s"), ("gf2.make_field_calls", "count"),
    ("gf2.minimal_polynomial_s", "s"), ("gf2.minimal_polynomial_calls", "count"),
    ("gf2.poly_mul_s", "s"), ("gf2.poly_divrem_s", "s"),
    ("gf2.eval_poly_s", "s"), ("gf2.eval_poly_calls", "count"),
    ("cosets.build_table_s", "s"), ("cosets.build_table_calls", "count"),
    ("cosets.classify_s", "s"),
    ("constructions.build_self_s", "s"), ("constructions.build_calls", "count"),
    ("codecore.assemble_self_s", "s"), ("codecore.assemble_calls", "count"),
    ("codecore.dual_s", "s"), ("codecore.verify_roots_s", "s"),
    ("codecore.describe_self_s", "s"), ("codecore.bch_run_s", "s"),
    ("codecore.bch_run_calls", "count"),
    ("distance.exact_s", "s"), ("distance.exact_msgs", "count"),
    ("distance.exact_msgs_per_s", "1/s"),
    ("distance.search_s", "s"), ("distance.search_iters", "count"),
    ("distance.search_ms_per_iter", "ms"),
    ("fixtures.run_fixture_self_s", "s"),
    ("cli.run_command_self_s", "s"),
    ("trace.overhead_s", "s"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._active: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def span(self, name: str):
        """Context manager for a span opened by the benchmark itself."""
        tracer = self

        class _Span:
            def __enter__(self):
                self.idx = tracer._open(name)

            def __exit__(self, *exc):
                tracer._close(self.idx, name)

        return _Span()

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, 0.0, 0.0, parent, self._active[name] > 0])
        self._active[name] += 1
        self._stack.append(idx)
        self.spans[idx][1] = time.perf_counter()
        return idx

    def _close(self, idx: int, name: str) -> None:
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()
        self._active[name] -= 1

    def _wrap(self, name: str, fn):
        tracer = self
        on_result = _RESULT_HOOKS.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx, name)
            if on_result is not None:
                on_result(tracer.counts, result)
            return result

        return wrapper

    # -- patching ------------------------------------------------------------

    def install(self) -> None:
        modules = [mod for key, mod in sys.modules.items()
                   if key == "bincyclic" or key.startswith("bincyclic.")]
        for layer, names in FUNCTIONS.items():
            home = importlib.import_module(f"bincyclic.{layer}")
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", orig)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is orig:
                            self._undo.append((mod, attr, orig))
                            setattr(mod, attr, wrapped)
        for layer, cls_name, meth in METHODS:
            cls = getattr(importlib.import_module(f"bincyclic.{layer}"), cls_name)
            orig = cls.__dict__[meth]
            self._undo.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(f"{layer}.{meth}", orig))

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    # -- reporting -----------------------------------------------------------

    def totals(self) -> tuple[dict, dict, Counter]:
        """(inclusive seconds, self seconds, calls) per span name.

        The benchmark's own reference ticks (TICK spans) are taken out of
        every span that encloses them, as they are out of the op timings.
        """
        spans = self.spans
        ticks = defaultdict(float)
        for name, start, end, parent, _ in spans:
            while name == TICK and parent >= 0:
                ticks[parent] += end - start
                parent = spans[parent][3]
        child = defaultdict(float)
        for idx, (name, start, end, parent, _) in enumerate(spans):
            if name != TICK and parent >= 0:
                child[parent] += end - start - ticks[idx]
        incl, own, calls = defaultdict(float), defaultdict(float), Counter()
        for idx, (name, start, end, parent, nested) in enumerate(spans):
            if name == TICK:
                continue
            dur = end - start - ticks[idx]
            calls[name] += 1
            own[name] += dur - child[idx]
            if not nested:
                incl[name] += dur
        return incl, own, calls

    def per_layer(self, rounds: int, overhead_s: float) -> dict[str, float]:
        """Every PER_LAYER metric, per round (0 where the layer did not run)."""
        incl, own, calls = self.totals()
        msgs, iters = self.counts["distance.exact_msgs"], self.counts["distance.search_iters"]
        exact_s, search_s = incl["distance.exact_min_distance"], incl["distance.low_weight_search"]
        total = {
            "gf2.make_field_s": incl["gf2.make_field"],
            "gf2.make_field_calls": calls["gf2.make_field"],
            "gf2.minimal_polynomial_s": incl["gf2.minimal_polynomial"],
            "gf2.minimal_polynomial_calls": calls["gf2.minimal_polynomial"],
            "gf2.poly_mul_s": incl["gf2.poly_mul"],
            "gf2.poly_divrem_s": incl["gf2.poly_divrem"],
            "gf2.eval_poly_s": incl["gf2.eval_poly"],
            "gf2.eval_poly_calls": calls["gf2.eval_poly"],
            "cosets.build_table_s": incl["cosets.build_table"],
            "cosets.build_table_calls": calls["cosets.build_table"],
            "cosets.classify_s": incl["cosets.classify_by_size"],
            "constructions.build_self_s": sum(own[b] for b in BUILDERS),
            "constructions.build_calls": sum(calls[b] for b in BUILDERS),
            "codecore.assemble_self_s": own["codecore.assemble"],
            "codecore.assemble_calls": calls["codecore.assemble"],
            "codecore.dual_s": incl["codecore.dual"],
            "codecore.verify_roots_s": incl["codecore.verify_roots"],
            "codecore.describe_self_s": own["codecore.describe"],
            "codecore.bch_run_s": incl["codecore.bch_run"],
            "codecore.bch_run_calls": calls["codecore.bch_run"],
            "distance.exact_s": exact_s,
            "distance.exact_msgs": msgs,
            "distance.search_s": search_s,
            "distance.search_iters": iters,
            "fixtures.run_fixture_self_s": own["fixtures.run_fixture"],
            "cli.run_command_self_s": own["cli.run_command"],
        }
        out = {k: v / rounds for k, v in total.items()}
        out["distance.exact_msgs_per_s"] = msgs / exact_s if exact_s else 0.0
        out["distance.search_ms_per_iter"] = 1000 * search_s / iters if iters else 0.0
        out["trace.overhead_s"] = overhead_s
        return {name: out[name] for name, _ in PER_LAYER}

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "nested"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)


def _count_exact(counts: Counter, result) -> None:
    counts["distance.exact_msgs"] += result.iterations


def _count_search(counts: Counter, result) -> None:
    counts["distance.search_iters"] += result.iterations


_RESULT_HOOKS = {
    "distance.exact_min_distance": _count_exact,
    "distance.low_weight_search": _count_search,
}
