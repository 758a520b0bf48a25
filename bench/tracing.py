"""Span and counter recorder for the traced run.

The recorder times relfix's layers from outside: install() rebinds each
traced function, in every loaded relfix module that holds it, to a
wrapper, and restore() puts the originals back.  Because the modules
import these functions by name, rebinding the name in each importing
module catches calls across modules as well as calls within one.

Two kinds of wrapper share one call stack, so self time (duration minus
time spent in traced callees) is exact for both:

* span wrappers record (name, start, end, parent span, item) per call;
  they sit on coarse entry points (a suite, an engine, the chain build);
* counter wrappers only add calls, total and self time to an aggregate;
  they sit on hot leaves such as eval_rel, called thousands of times.

Totals count only the outermost call of a recursive function.  Everything
stays in memory until dump().
"""

from __future__ import annotations

import functools
import sys
import time

PACKAGE = "relfix"

# (module, function, kind, metric prefix); kind is "span" or "counter".
TARGETS = (
    ("dsl", "parse_spec", "span", "dsl.parse"),
    ("poset", "hom_poset", "counter", "poset.hom_poset"),
    ("ep", "verify_ep_pair", "counter", "ep.verify_ep_pair"),
    ("functor", "eval_obj", "counter", "functor.eval_obj"),
    ("functor", "eval_map", "counter", "functor.eval_map"),
    ("functor", "eval_rel", "counter", "functor.eval_rel"),
    ("functor", "check_functor_laws", "span", "functor.check_functor_laws"),
    ("chain", "build_chain", "span", "chain.build"),
    ("chain", "_verify_chain", "span", "chain.verify"),
    ("chain", "glue_family", "span", "chain.glue"),
    ("relations", "inverse_image", "counter", "relations.inverse_image"),
    ("relations", "direct_image", "counter", "relations.direct_image"),
    ("relations", "intersect", "counter", "relations.intersect"),
    ("relations", "total_rel", "counter", "relations.total_rel"),
    ("relations", "rel_morphism_witness", "counter", "relations.morphism_check"),
    ("engines", "psi_step", "counter", "engines.psi_step"),
    ("engines", "solve_knaster_tarski", "span", "engines.kt"),
    ("engines", "solve_kleene", "span", "engines.kleene"),
    ("engines", "solve_banach", "span", "engines.banach"),
    ("engines", "check_uniform", "span", "engines.check_uniform"),
    ("engines", "compare_methods", "span", "engines.compare"),
    ("cofe", "check_contractive", "span", "cofe.check_contractive"),
    ("suites", "lemma2_suite", "span", "suites.lemma2"),
    ("suites", "functor_laws_suite", "span", "suites.functor_laws"),
    ("suites", "adjunction_suite", "span", "suites.adjunction"),
    ("suites", "contractive_suite", "span", "suites.contractive"),
    ("suites", "karoubi_suite", "span", "suites.karoubi"),
    ("suites", "duality_suite", "span", "suites.duality"),
    ("karoubi", "enumerate_canonical_idempotents", "counter", "karoubi.enumerate_idempotents"),
    ("karoubi", "karoubi_homs", "counter", "karoubi.homs"),
    ("karoubi", "ed_cpo_check", "counter", "karoubi.ed_cpo"),
    ("karoubi", "ed_slice_equivalence", "counter", "karoubi.ed_slice"),
    ("karoubi", "karoubi_rel_fiber", "counter", "karoubi.rel_fiber"),
    ("report", "write_report", "span", "report.write"),
)

# Generators are counted by the items they yield; their time lands in the
# caller, which consumes them.
GENERATORS = (("poset", "enumerate_monotone_maps", "poset.monotone_maps_enumerated"),)


class Tracer:
    """Records spans and counters for one item execution."""

    def __init__(self, item: str):
        self.item = item
        self.spans: list[tuple] = []  # (name, start, end, parent index, item)
        self.agg: dict[str, list] = {}  # name -> [calls, total, self]
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [name, start, child time, span index]
        self._depth: dict[str, int] = {}
        self._seen: dict[str, set] = {}
        self._rebound: list[tuple] = []

    # -- recording ------------------------------------------------------

    def count(self, name: str, n: int = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def repeat(self, name: str, key) -> None:
        """Count a call whose key equals an earlier call's in this item."""
        seen = self._seen.setdefault(name, set())
        if key in seen:
            self.count(name + "_repeats")
        else:
            seen.add(key)

    def active(self, name: str) -> bool:
        return self._depth.get(name, 0) > 0

    def _enter(self, name: str, span: bool) -> list:
        index = None
        if span:
            parent = next((f[3] for f in reversed(self._stack) if f[3] is not None), None)
            index = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent, self.item))
        self._depth[name] = self._depth.get(name, 0) + 1
        frame = [name, time.perf_counter(), 0.0, index]
        self._stack.append(frame)
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        name, start, child, index = frame
        dur = end - start
        depth = self._depth[name] - 1
        self._depth[name] = depth
        agg = self.agg.setdefault(name, [0, 0.0, 0.0])
        agg[0] += 1
        agg[2] += dur - child
        if depth == 0:
            agg[1] += dur
        if self._stack:
            self._stack[-1][2] += dur
        if index is not None:
            self.spans[index] = (name, start, end, self.spans[index][3], self.item)

    def call(self, name: str, span: bool, fn, *args, **kwargs):
        frame = self._enter(name, span)
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(frame)

    # -- installation ---------------------------------------------------

    def _wrapper(self, name: str, kind: str, fn):
        hook = HOOKS.get(name)
        tracer = self
        span = kind == "span"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            out = tracer.call(name, span, fn, *args, **kwargs)
            if hook is not None:
                hook(tracer, args, kwargs, out)
            return out

        return traced

    def _gen_wrapper(self, name: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            for value in fn(*args, **kwargs):
                tracer.count(name)
                yield value

        return traced

    def _rebind(self, module: str, attr: str, make) -> None:
        original = getattr(sys.modules[f"{PACKAGE}.{module}"], attr)
        wrapper = make(original)
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == PACKAGE or modname.startswith(PACKAGE + ".")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._rebound.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def install(self) -> None:
        """Wrap every target in every loaded relfix module."""
        __import__(PACKAGE + ".cli")
        for module, attr, kind, name in TARGETS:
            self._rebind(module, attr, lambda fn, n=name, k=kind: self._wrapper(n, k, fn))
        for module, attr, name in GENERATORS:
            self._rebind(module, attr, lambda fn, n=name: self._gen_wrapper(n, fn))

    def restore(self) -> None:
        for mod, key, original in reversed(self._rebound):
            setattr(mod, key, original)
        self._rebound.clear()

    def dump(self) -> dict:
        return {
            "spans": self.spans,
            "agg": self.agg,
            "counts": self.counts,
        }


# -- per-target hooks: counts that need the call's arguments or result ---


def _rel_key(r):
    # A fingerprint rather than the relation: keeping every relation seen
    # would hold each iterate of a solve alive for the whole item.
    return None if r is None else (hash(r), len(r.pairs))


def _eval_rel_hook(t: Tracer, args, kwargs, out) -> None:
    f, rneg, spos = args[:3]
    t.repeat("functor.eval_rel", (hash(f), _rel_key(rneg), _rel_key(spos)))


def _glue_hook(t: Tracer, args, kwargs, out) -> None:
    t.repeat("chain.glue", tuple(_rel_key(r) for r in args[1].rels))


def _inverse_image_hook(t: Tracer, args, kwargs, out) -> None:
    t.count("relations.inverse_image_cells", args[0].dom.n ** 2)


def _total_rel_hook(t: Tracer, args, kwargs, out) -> None:
    t.count("relations.total_rel_pairs", len(out.pairs))


def _kt_hook(t: Tracer, args, kwargs, out) -> None:
    t.count("engines.kt_iterations", out[1])


def _psi_hook(t: Tracer, args, kwargs, out) -> None:
    if t.active("engines.banach"):
        t.count("engines.banach_iterations")


def _contractive_hook(t: Tracer, args, kwargs, out) -> None:
    t.count("cofe.masks_enumerated", out.get("enumerated", 0))


def _adjunction_hook(t: Tracer, args, kwargs, out) -> None:
    t.count("suites.adjunction_instances", out["instances"])


def _lemma2_hook(t: Tracer, args, kwargs, out) -> None:
    t.count(
        "suites.lemma2_instances",
        sum(p["instances"] for p in out["properties"].values()),
    )


HOOKS = {
    "functor.eval_rel": _eval_rel_hook,
    "chain.glue": _glue_hook,
    "relations.inverse_image": _inverse_image_hook,
    "relations.total_rel": _total_rel_hook,
    "engines.kt": _kt_hook,
    "engines.psi_step": _psi_hook,
    "cofe.check_contractive": _contractive_hook,
    "suites.adjunction": _adjunction_hook,
    "suites.lemma2": _lemma2_hook,
}


# -- turning dumps into per-layer metrics ---------------------------------

# (metric, unit, source): source is ("total"|"self"|"calls", recorder name),
# ("count", counter name) or ("frac", numerator counter, calls of name).
LAYER_METRICS = (
    ("dsl.parse_s", "s", ("total", "dsl.parse")),
    ("poset.hom_poset_s", "s", ("total", "poset.hom_poset")),
    ("poset.hom_poset_calls", "count", ("calls", "poset.hom_poset")),
    ("poset.monotone_maps_enumerated", "count", ("count", "poset.monotone_maps_enumerated")),
    ("ep.verify_ep_pair_s", "s", ("total", "ep.verify_ep_pair")),
    ("ep.verify_ep_pair_calls", "count", ("calls", "ep.verify_ep_pair")),
    ("functor.eval_obj_calls", "count", ("calls", "functor.eval_obj")),
    ("functor.eval_map_calls", "count", ("calls", "functor.eval_map")),
    ("functor.eval_rel_s", "s", ("total", "functor.eval_rel")),
    ("functor.eval_rel_calls", "count", ("calls", "functor.eval_rel")),
    ("functor.eval_rel_repeat_frac", "ratio", ("frac", "functor.eval_rel_repeats", "functor.eval_rel")),
    ("functor.check_functor_laws_s", "s", ("total", "functor.check_functor_laws")),
    ("chain.build_s", "s", ("total", "chain.build")),
    ("chain.verify_s", "s", ("total", "chain.verify")),
    ("chain.glue_s", "s", ("total", "chain.glue")),
    ("chain.glue_calls", "count", ("calls", "chain.glue")),
    ("chain.glue_repeat_frac", "ratio", ("frac", "chain.glue_repeats", "chain.glue")),
    ("relations.inverse_image_s", "s", ("total", "relations.inverse_image")),
    ("relations.inverse_image_calls", "count", ("calls", "relations.inverse_image")),
    ("relations.inverse_image_cells", "count", ("count", "relations.inverse_image_cells")),
    ("relations.direct_image_s", "s", ("total", "relations.direct_image")),
    ("relations.intersect_s", "s", ("total", "relations.intersect")),
    ("relations.total_rel_pairs", "count", ("count", "relations.total_rel_pairs")),
    ("relations.morphism_check_s", "s", ("total", "relations.morphism_check")),
    ("relations.morphism_check_calls", "count", ("calls", "relations.morphism_check")),
    ("engines.kt_s", "s", ("total", "engines.kt")),
    ("engines.kt_iterations", "count", ("count", "engines.kt_iterations")),
    ("engines.kleene_s", "s", ("total", "engines.kleene")),
    ("engines.banach_s", "s", ("total", "engines.banach")),
    ("engines.banach_self_s", "s", ("self", "engines.banach")),
    ("engines.banach_iterations", "count", ("count", "engines.banach_iterations")),
    ("engines.check_uniform_s", "s", ("total", "engines.check_uniform")),
    ("engines.compare_self_s", "s", ("self", "engines.compare")),
    ("cofe.check_contractive_s", "s", ("total", "cofe.check_contractive")),
    ("cofe.masks_enumerated", "count", ("count", "cofe.masks_enumerated")),
    ("suites.lemma2_s", "s", ("total", "suites.lemma2")),
    ("suites.functor_laws_s", "s", ("total", "suites.functor_laws")),
    ("suites.adjunction_s", "s", ("total", "suites.adjunction")),
    ("suites.contractive_s", "s", ("total", "suites.contractive")),
    ("suites.karoubi_s", "s", ("total", "suites.karoubi")),
    ("suites.duality_s", "s", ("total", "suites.duality")),
    ("suites.adjunction_instances", "count", ("count", "suites.adjunction_instances")),
    ("suites.lemma2_instances", "count", ("count", "suites.lemma2_instances")),
    ("karoubi.enumerate_idempotents_s", "s", ("total", "karoubi.enumerate_idempotents")),
    ("karoubi.homs_s", "s", ("total", "karoubi.homs")),
    ("karoubi.ed_cpo_s", "s", ("total", "karoubi.ed_cpo")),
    ("karoubi.ed_slice_s", "s", ("total", "karoubi.ed_slice")),
    ("karoubi.rel_fiber_s", "s", ("total", "karoubi.rel_fiber")),
    ("report.write_s", "s", ("total", "report.write")),
)


def layer_metrics(dumps: list[dict]) -> dict:
    """Sum the item dumps of one traced run into the per-layer metrics."""
    agg: dict[str, list] = {}
    counts: dict[str, int] = {}
    for d in dumps:
        for name, (calls, total, self_time) in d["agg"].items():
            a = agg.setdefault(name, [0, 0.0, 0.0])
            a[0] += calls
            a[1] += total
            a[2] += self_time
        for name, n in d["counts"].items():
            counts[name] = counts.get(name, 0) + n
    out = {}
    for metric, unit, source in LAYER_METRICS:
        kind, name = source[0], source[1]
        a = agg.get(name, [0, 0.0, 0.0])
        if kind == "total":
            value = a[1]
        elif kind == "self":
            value = a[2]
        elif kind == "calls":
            value = a[0]
        elif kind == "count":
            value = counts.get(name, 0)
        else:
            calls = agg.get(source[2], [0])[0]
            value = counts.get(name, 0) / calls if calls else 0.0
        out[metric] = {"value": value, "unit": unit}
    return out
