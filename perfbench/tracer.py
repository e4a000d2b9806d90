"""Span tracer that times calls into the public functions of each `vinberg`
module from outside the package.

`Tracer.install` rebinds every traced function on its module and on every
other module that imported it by name (`from .x import f`), and wraps the
`hits` methods of the two chart body classes.  Spans keep name, start, end,
parent span and item id in flat arrays until the run ends; `uninstall`
restores the original bindings.  Nothing under `src/` is modified.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

# (module, attribute, span name); a span name of None means "pick per call"
TARGETS = (
    ("linprog", "solve_lp", "linprog.solve_lp"),
    ("polytope", "face_witness", "polytope.face_witness"),
    ("polytope", "defines_face", "polytope.defines_face"),
    ("polytope", "enumerate_faces", "polytope.enumerate_faces"),
    ("polytope", "classify_face", "polytope.classify_face"),
    ("polytope", "build_polytope", "polytope.build_polytope"),
    ("polytope", "is_quasiperfect", "polytope.is_quasiperfect"),
    ("polytope", "decompose", "polytope.decompose"),
    ("cartan", "validate_cartan", "cartan.validate_cartan"),
    ("cartan", "classify_type", "cartan.classify_type"),
    ("cartan", "witness_vector", "cartan.witness_vector"),
    ("coxeter", "gram_matrix", "coxeter.gram_matrix"),
    ("coxeter", "classify_group", "coxeter.classify_group"),
    ("ratlin", "rank", "ratlin.rank"),
    ("ratlin", "kernel_basis", "ratlin.kernel_basis"),
    ("ratlin", "solve", "ratlin.solve"),
    ("decisions", "decide_finite_volume", "decisions.finite_volume"),
    ("decisions", "decide_unique_domain", "decisions.unique_domain"),
    ("decisions", "decide_min_domain_equals_vinberg", "decisions.min_domain_equals_vinberg"),
    ("decisions", "decide_limit_set_fills_boundary_necessary",
     "decisions.limit_set_fills_boundary_necessary"),
    ("orbits", "expand_orbit", "orbits.expand_orbit"),
    ("orbits", "domain_approx", "orbits.domain_approx"),
    ("orbits", "invariant_form", "orbits.invariant_form"),
    ("orbits", "supporting_covector", "orbits.supporting_covector"),
    ("hilbert", "busemann_densities", None),
    ("hilbert", "estimate_volume", "hilbert.estimate_volume"),
    ("hilbert", "paired_volumes", "hilbert.paired_volumes"),
    ("hilbert", "volume_sequence", "hilbert.volume_sequence"),
    ("hilbert", "inner_hull_body", "hilbert.cut_bodies"),
    ("hilbert", "outer_cut_body", "hilbert.cut_bodies"),
    ("hilbert", "conic_body", "hilbert.conic_body"),
    ("hilbert", "fundamental_target", "hilbert.fundamental_target"),
    ("hilbert", "witness_chart", "hilbert.witness_chart"),
    ("limits", "sample_limit_set", "limits.sample_limit_set"),
    ("limits", "detect_proximal", "limits.detect_proximal"),
    ("limits", "hull_of_limit_set", "limits.hull_of_limit_set"),
    ("limits", "hausdorff_gap", "limits.hausdorff_gap"),
    ("formats", "parse", "formats.parse"),
    ("formats", "build", "formats.build"),
    ("formats", "canonical_json", "formats.canonical_json"),
    ("svg", "render_tiling_svg", "svg.render"),
    ("svg", "render_points_svg", "svg.render"),
    ("svg", "conic_loop", "svg.conic_loop"),
)

METHODS = (("HalfspaceBody", "hits"), ("QuadricBody", "hits"))

VOLUME_CALLS = frozenset(
    ("hilbert.estimate_volume", "hilbert.paired_volumes", "hilbert.volume_sequence")
)


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.name_of = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.item_of = array("i")
        self.item = -1
        self.paused = False  # calls made while paused run unrecorded
        self.counters = {}
        self._stack = []
        self._volume_depth = 0
        self._restore = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, key, amount=1):
        self.counters[key] = self.counters.get(key, 0) + amount

    def _wrap(self, name, fn):
        tracer = self
        fixed = None if name is None else self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            span_name = name or _density_name(args)
            nid = fixed if fixed is not None else tracer._name_id(span_name)
            idx = len(tracer.start)
            tracer.name_of.append(nid)
            tracer.parent.append(tracer._stack[-1] if tracer._stack else -1)
            tracer.item_of.append(tracer.item)
            tracer.end.append(0.0)
            outer_volume = span_name in VOLUME_CALLS and tracer._volume_depth == 0
            if span_name in VOLUME_CALLS:
                tracer._volume_depth += 1
            tracer._stack.append(idx)
            tracer.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = perf_counter()
                tracer._stack.pop()
                if span_name in VOLUME_CALLS:
                    tracer._volume_depth -= 1
            tracer._observe(span_name, args, kwargs, result, outer_volume)
            return result

        return traced

    def _observe(self, name, args, kwargs, result, outer_volume):
        if name == "linprog.solve_lp":
            if kwargs.get("tol", args[5] if len(args) > 5 else None) is None:
                self.count("linprog.solve_lp.exact_calls")
        elif name == "polytope.face_witness":
            if result is not None:
                self.count("polytope.face_witness.found")
        elif name.startswith("hilbert.density."):
            self.count(name + ".points", len(args[1]))
        elif name == "orbits.expand_orbit":
            self.count("orbits.expand_orbit.elements", len(result))
        elif name == "limits.detect_proximal":
            if result is not None:
                self.count("limits.detect_proximal.proximal")
        elif outer_volume:
            estimates = _estimates(name, result)
            # each drawn point can reach a density once per domain estimated
            self.count("hilbert.drawn", estimates[0].samples * len(estimates))
            self.count("hilbert.outside", sum(e.outside for e in estimates))

    # -- installation ------------------------------------------------------

    def install(self, namespaces=()):
        """Wrap every target; also rebind it in `namespaces` (modules outside
        the package that imported the function by name)."""
        modules = {m: importlib.import_module("vinberg." + m) for m, _, _ in TARGETS}
        importlib.import_module("vinberg.cli")
        holders = [mod for key, mod in sorted(sys.modules.items())
                   if key == "vinberg" or key.startswith("vinberg.")]
        holders += list(namespaces)
        for module, attr, name in TARGETS:
            original = getattr(modules[module], attr)
            wrapper = self._wrap(name, original)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        setattr(holder, key, wrapper)
                        self._restore.append((holder, key, original))
        hilbert = modules["hilbert"]
        for cls_name, meth in METHODS:
            cls = getattr(hilbert, cls_name)
            original = cls.__dict__[meth]
            setattr(cls, meth, self._wrap("hilbert.hits", original))
            self._restore.append((cls, meth, original))

    def uninstall(self):
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    # -- summaries ---------------------------------------------------------

    def aggregate(self):
        """{span name: [calls, total seconds, self seconds]} plus counters.

        Self time is a span's duration minus the durations of its direct
        children (which nest inside it on a single thread)."""
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        spans = {}
        for i in range(n):
            entry = spans.setdefault(self.names[self.name_of[i]], [0, 0.0, 0.0])
            dur = self.end[i] - self.start[i]
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child[i]
        return {"spans": spans, "counters": dict(self.counters)}


def _density_name(args):
    body = type(args[0]).__name__
    return "hilbert.density.conic" if body == "QuadricBody" else "hilbert.density.polygon"


def _estimates(name, result):
    if name == "hilbert.volume_sequence":
        return list(result.estimates)
    if name == "hilbert.estimate_volume":
        return [result]
    return list(result)


def merge(into, other):
    for name, (calls, total, own) in other["spans"].items():
        entry = into["spans"].setdefault(name, [0, 0.0, 0.0])
        entry[0] += calls
        entry[1] += total
        entry[2] += own
    for key, value in other["counters"].items():
        into["counters"][key] = into["counters"].get(key, 0) + value
    return into


# name, unit, better -- the per-layer metrics of the traced run
PER_LAYER = (
    ("linprog.solve_lp.calls", "count", "lower"),
    ("linprog.solve_lp.exact_calls", "count", "lower"),
    ("linprog.solve_lp.self_s", "s", "lower"),
    ("polytope.face_witness.calls", "count", "lower"),
    ("polytope.face_witness.found_ratio", "ratio", "higher"),
    ("polytope.enumerate_faces.calls_per_item", "count", "lower"),
    ("polytope.classify_face.calls", "count", "lower"),
    ("polytope.build_polytope.self_s", "s", "lower"),
    ("cartan.classify_type.calls", "count", "lower"),
    ("cartan.classify_type.self_s", "s", "lower"),
    ("cartan.validate_cartan.self_s", "s", "lower"),
    ("coxeter.gram_matrix.self_s", "s", "lower"),
    ("ratlin.rank.self_s", "s", "lower"),
    ("ratlin.kernel_basis.self_s", "s", "lower"),
    ("ratlin.solve.self_s", "s", "lower"),
    ("decisions.finite_volume.self_s", "s", "lower"),
    ("decisions.unique_domain.self_s", "s", "lower"),
    ("decisions.min_domain_equals_vinberg.self_s", "s", "lower"),
    ("decisions.limit_set_fills_boundary_necessary.self_s", "s", "lower"),
    ("decisions.finite_volume.total_s", "s", "lower"),
    ("decisions.unique_domain.total_s", "s", "lower"),
    ("decisions.min_domain_equals_vinberg.total_s", "s", "lower"),
    ("decisions.limit_set_fills_boundary_necessary.total_s", "s", "lower"),
    ("orbits.expand_orbit.elements", "count", "lower"),
    ("orbits.expand_orbit.self_s", "s", "lower"),
    ("orbits.elements_per_s", "1/s", "higher"),
    ("orbits.domain_approx.self_s", "s", "lower"),
    ("orbits.invariant_form.self_s", "s", "lower"),
    ("hilbert.density.conic.points", "count", "lower"),
    ("hilbert.density.conic.self_s", "s", "lower"),
    ("hilbert.density.polygon.points", "count", "lower"),
    ("hilbert.density.polygon.self_s", "s", "lower"),
    ("hilbert.density_points_per_s", "1/s", "higher"),
    ("hilbert.hits.calls", "count", "lower"),
    ("hilbert.hits.self_s", "s", "lower"),
    ("hilbert.accept_ratio", "ratio", "higher"),
    ("hilbert.outside", "count", "lower"),
    ("hilbert.cut_bodies.self_s", "s", "lower"),
    ("limits.sample_limit_set.self_s", "s", "lower"),
    ("limits.detect_proximal.calls", "count", "lower"),
    ("limits.proximal_ratio", "ratio", "higher"),
    ("limits.near_tie_warnings", "count", "lower"),
    ("limits.hull_of_limit_set.self_s", "s", "lower"),
    ("limits.hausdorff_gap.self_s", "s", "lower"),
    ("cli.startup_ms", "ms", "lower"),
    ("cli.run_command_ms", "ms", "lower"),
    ("formats.parse.self_s", "s", "lower"),
    ("formats.canonical_json.self_s", "s", "lower"),
    ("svg.render.self_s", "s", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_frac", "ratio", "lower"),
)


def per_layer_metrics(agg, items, extra):
    """The PER_LAYER values from a merged aggregate.  `extra` supplies the
    values measured by the harness rather than by spans (warnings, CLI
    start-up, tracing overhead).  Ratios with nothing to divide read 0."""
    spans, counters = agg["spans"], agg["counters"]

    def calls(name):
        return spans.get(name, (0, 0.0, 0.0))[0]

    def own(name):
        return spans.get(name, (0, 0.0, 0.0))[2]

    def total(name):
        return spans.get(name, (0, 0.0, 0.0))[1]

    def ratio(a, b):
        return a / b if b else 0.0

    density_points = (counters.get("hilbert.density.conic.points", 0)
                      + counters.get("hilbert.density.polygon.points", 0))
    # the kernel's whole time, including the `hits` calls it makes
    density_s = total("hilbert.density.conic") + total("hilbert.density.polygon")
    values = {
        "linprog.solve_lp.calls": calls("linprog.solve_lp"),
        "linprog.solve_lp.exact_calls": counters.get("linprog.solve_lp.exact_calls", 0),
        "linprog.solve_lp.self_s": own("linprog.solve_lp"),
        "polytope.face_witness.calls": calls("polytope.face_witness"),
        "polytope.face_witness.found_ratio": ratio(
            counters.get("polytope.face_witness.found", 0), calls("polytope.face_witness")),
        "polytope.enumerate_faces.calls_per_item": ratio(
            calls("polytope.enumerate_faces"), items),
        "polytope.classify_face.calls": calls("polytope.classify_face"),
        "polytope.build_polytope.self_s": own("polytope.build_polytope"),
        "cartan.classify_type.calls": calls("cartan.classify_type"),
        "cartan.classify_type.self_s": own("cartan.classify_type"),
        "cartan.validate_cartan.self_s": own("cartan.validate_cartan"),
        "coxeter.gram_matrix.self_s": own("coxeter.gram_matrix"),
        "ratlin.rank.self_s": own("ratlin.rank"),
        "ratlin.kernel_basis.self_s": own("ratlin.kernel_basis"),
        "ratlin.solve.self_s": own("ratlin.solve"),
        "orbits.expand_orbit.elements": counters.get("orbits.expand_orbit.elements", 0),
        "orbits.expand_orbit.self_s": own("orbits.expand_orbit"),
        "orbits.elements_per_s": ratio(counters.get("orbits.expand_orbit.elements", 0),
                                       total("orbits.expand_orbit")),
        "orbits.domain_approx.self_s": own("orbits.domain_approx"),
        "orbits.invariant_form.self_s": own("orbits.invariant_form"),
        "hilbert.density.conic.points": counters.get("hilbert.density.conic.points", 0),
        "hilbert.density.conic.self_s": own("hilbert.density.conic"),
        "hilbert.density.polygon.points": counters.get("hilbert.density.polygon.points", 0),
        "hilbert.density.polygon.self_s": own("hilbert.density.polygon"),
        "hilbert.density_points_per_s": ratio(density_points, density_s),
        "hilbert.hits.calls": calls("hilbert.hits"),
        "hilbert.hits.self_s": own("hilbert.hits"),
        "hilbert.accept_ratio": ratio(density_points, counters.get("hilbert.drawn", 0)),
        "hilbert.outside": counters.get("hilbert.outside", 0),
        "hilbert.cut_bodies.self_s": own("hilbert.cut_bodies"),
        "limits.sample_limit_set.self_s": own("limits.sample_limit_set"),
        "limits.detect_proximal.calls": calls("limits.detect_proximal"),
        "limits.proximal_ratio": ratio(counters.get("limits.detect_proximal.proximal", 0),
                                       calls("limits.detect_proximal")),
        "limits.hull_of_limit_set.self_s": own("limits.hull_of_limit_set"),
        "limits.hausdorff_gap.self_s": own("limits.hausdorff_gap"),
        "formats.parse.self_s": own("formats.parse"),
        "formats.canonical_json.self_s": own("formats.canonical_json"),
        "svg.render.self_s": own("svg.render"),
        "trace.spans": sum(entry[0] for entry in spans.values()),
    }
    for q in ("finite_volume", "unique_domain", "min_domain_equals_vinberg",
              "limit_set_fills_boundary_necessary"):
        values["decisions.%s.self_s" % q] = own("decisions." + q)
        values["decisions.%s.total_s" % q] = total("decisions." + q)
    values.update(extra)
    return {name: {"value": values[name], "unit": unit} for name, unit, _ in PER_LAYER}
