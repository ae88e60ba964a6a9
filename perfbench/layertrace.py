"""Span tracer installed from outside around regtriang's functions.

`install(tracer, extra_modules)` replaces the package's layer entry points
with wrappers, in every module that binds them (a module that did
`from .triangulation import flip` holds its own reference), so no source
file of the program changes. Each wrapper records a span (name, start,
end, parent, outermost) in memory; hot helpers only bump counters, which
keeps the overhead of the traced run down. `layer_metrics` turns the spans
and counters into per-layer counts and seconds.

Pool workers are forked from the traced parent. A worker clears its copy
of the tracer when it starts, and every regularity decision it returns
carries the spans and counters recorded for it, so the parent can add the
workers' layer time to its own. Layer seconds on a pooled run are
therefore summed over the parent and its workers.
"""

import functools
import multiprocessing.pool
import os
import sys
import time
from collections import Counter

from regtriang import (
    checkpoint,
    enumeration,
    geometry,
    kenergy,
    lp,
    polytopes,
    prism,
    triangulation,
    weights,
)

# Spans in one family share an "outermost" flag, so the family's time is
# counted once when its members nest (a hull computed inside a polytope).
_FAMILY = {
    "geometry.LatticePolytope": "geometry.lattice_polytope",
    "geometry.hull": "geometry.lattice_polytope",
}


class Tracer:
    """Spans and counters of one process, kept in memory."""

    def __init__(self):
        self.pid = os.getpid()
        self.active = False
        self.clear()

    def clear(self):
        self.spans = []  # (name, start, end, parent index, outermost, process)
        self.stack = []
        self.depth = Counter()
        self.counts = Counter()

    def merge(self, spans, counts):
        """Add spans shipped from a worker; their roots get no parent here."""
        base = len(self.spans)
        for name, start, end, parent, outer, pid in spans:
            self.spans.append(
                (name, start, end, base + parent if parent >= 0 else -1, outer, pid)
            )
        self.counts.update(counts)

    def write(self, path):
        with open(path, "w") as fh:
            fh.write("name\tstart\tend\tparent\toutermost\tprocess\n")
            for span in self.spans:
                fh.write("\t".join(str(x) for x in span) + "\n")


class Decision:
    """A worker's regularity decision with the spans recorded for it.

    Truthiness is the decision itself, which is all the enumeration reads.
    """

    def __init__(self, ok, spans, counts):
        self.ok = ok
        self.spans = spans
        self.counts = counts

    def __bool__(self):
        return bool(self.ok)


def _span(tracer, name, fn, on_result=None):
    family = _FAMILY.get(name, name)
    perf = time.perf_counter

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        spans = tracer.spans
        stack = tracer.stack
        idx = len(spans)
        outer = tracer.depth[family] == 0
        parent = stack[-1] if stack else -1
        spans.append(None)
        stack.append(idx)
        tracer.depth[family] += 1
        start = perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = perf()
            tracer.depth[family] -= 1
            stack.pop()
            spans[idx] = (name, start, end, parent, outer, tracer.pid)
        if on_result is not None:
            on_result(tracer.counts, result)
        return result

    return wrapper


def _counted(tracer, key, fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.active:
            tracer.counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


def _rebind(modules, original, replacement):
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer, extra_modules=()):
    """Wrap the layer entry points; the tracer records while active."""
    modules = [m for n, m in sys.modules.items() if n.startswith("regtriang")]
    modules += list(extra_modules)

    def function(mod, attr, name, on_result=None, wrap=None):
        original = getattr(mod, attr)
        replacement = wrap(original) if wrap else _span(tracer, name, original, on_result)
        _rebind(modules, original, replacement)

    def method(cls, attr, name, on_result=None, wrap=None):
        original = cls.__dict__[attr]
        if isinstance(original, classmethod):
            inner = original.__func__
            setattr(cls, attr, classmethod(_span(tracer, name, inner, on_result)))
        elif isinstance(original, property):
            setattr(cls, attr, property(_span(tracer, name, original.fget, on_result)))
        else:
            setattr(cls, attr, wrap(original) if wrap else _span(tracer, name, original, on_result))

    def count_len(key):
        def on_result(counts, result):
            counts[key] += len(result)

        return on_result

    def count_true(counts, result):
        if result[0]:
            counts["regular_quick.true"] += 1

    # enumeration
    def wrap_enumerate(fn):
        traced = _span(tracer, "enumeration.enumerate_regular", fn)

        @functools.wraps(fn)
        def wrapper(config, *args, **kwargs):
            if tracer.active:
                if not isinstance(config, prism.PrismConfiguration):
                    tracer.counts["enumerate_regular.base"] += 1
                if kwargs.get("on_accept") is not None:
                    kwargs["on_accept"] = _span(
                        tracer, "enumeration.on_accept", kwargs["on_accept"]
                    )
            return traced(config, *args, **kwargs)

        return wrapper

    def wrap_init_worker(fn):
        @functools.wraps(fn)
        def wrapper(*args):
            tracer.pid = os.getpid()
            tracer.clear()
            return _span(tracer, "enumeration.init_worker", fn)(*args)

        return wrapper

    def wrap_decide(fn):
        traced = _span(tracer, "enumeration.decide", fn)

        @functools.wraps(fn)
        def wrapper(enc):
            ok = traced(enc)
            if not tracer.active:
                return ok
            shipped = Decision(ok, tracer.spans, dict(tracer.counts))
            tracer.spans = []
            tracer.counts = Counter()
            return shipped

        return wrapper

    def wrap_map(fn):
        traced = _span(tracer, "enumeration.pool_map", fn)

        @functools.wraps(fn)
        def wrapper(self, *args, **kwargs):
            results = traced(self, *args, **kwargs)
            for r in results:
                if isinstance(r, Decision):
                    tracer.merge(r.spans, r.counts)
                    r.spans = r.counts = None
            return results

        return wrapper

    function(enumeration, "enumerate_regular", None, wrap=wrap_enumerate)
    function(enumeration, "_init_worker", None, wrap=wrap_init_worker)
    function(enumeration, "_decide", None, wrap=wrap_decide)
    function(
        enumeration, "_neighbor_encodings", "enumeration.neighbors",
        on_result=count_len("neighbors"),
    )
    method(multiprocessing.pool.Pool, "map", None, wrap=wrap_map)

    # triangulation: neighbours, codec, regularity, subdivisions
    function(triangulation, "supported_flips", "triangulation.supported_flips")
    function(triangulation, "flip", "triangulation.flip")
    method(triangulation.Triangulation, "decode", "triangulation.decode")
    method(triangulation.Triangulation, "encode", "triangulation.encode")
    Engine = triangulation.Engine
    method(Engine, "regular_quick", "triangulation.regular_quick", on_result=count_true)
    method(Engine, "fold_rows", "triangulation.fold_rows")

    def wrap_circuit_of(fn):
        @functools.wraps(fn)
        def wrapper(self, smask):
            if tracer.active:
                tracer.counts["circuit_of.calls"] += 1
                if smask in self._dep:
                    tracer.counts["circuit_of.hits"] += 1
            return fn(self, smask)

        return wrapper

    method(Engine, "circuit_of", None, wrap=wrap_circuit_of)
    function(triangulation, "height_subdivision", "triangulation.height_subdivision")
    function(triangulation, "max_eq_lp", None, wrap=lambda f: _counted(tracer, "max_eq_lp", f))

    # lp
    function(lp, "strict_feasible", "lp.strict_feasible")
    function(lp, "eq_phase1", "lp.eq_phase1")
    method(lp._Tableau, "__init__", None, wrap=lambda f: _counted(tracer, "tableaux", f))
    method(lp._Tableau, "pivot", None, wrap=lambda f: _counted(tracer, "pivots", f))

    # checkpoint
    Writer = checkpoint.CheckpointWriter

    def wrap_writer_init(fn):
        @functools.wraps(fn)
        def wrapper(self, path, *args, **kwargs):
            fn(self, path, *args, **kwargs)
            self._bench_start = self.fh.tell() if kwargs.get("append") else 0

        return wrapper

    def wrap_writer_end(fn):
        @functools.wraps(fn)
        def wrapper(self, *args):
            was_open = not self.fh.closed
            result = fn(self, *args)
            if tracer.active and was_open:
                size = os.path.getsize(self.fh.name)
                tracer.counts["checkpoint.bytes"] += size - self._bench_start
            return result

        return wrapper

    method(Writer, "__init__", None, wrap=wrap_writer_init)
    method(Writer, "record", None, wrap=lambda f: _counted(tracer, "checkpoint.records", f))
    method(Writer, "commit", "checkpoint.commit")
    method(Writer, "done", None, wrap=wrap_writer_end)
    method(Writer, "close", None, wrap=wrap_writer_end)
    function(checkpoint, "read_checkpoint", "checkpoint.read")

    # weights, prism, polytopes, geometry
    function(prism, "nu_vector", "prism.nu_vector")
    function(weights, "eta_k", "weights.eta_k")
    function(polytopes, "check_conjecture", "polytopes.check_conjecture")
    method(polytopes.WeightPolytope, "__init__", "polytopes.WeightPolytope")
    method(polytopes.WeightPolytope, "vertices", "polytopes.WeightPolytope.vertices")
    method(geometry.LatticePolytope, "__init__", "geometry.LatticePolytope")
    method(geometry._Hull, "__init__", "geometry.hull")
    function(geometry, "normally_equivalent", "geometry.normally_equivalent")

    # kenergy
    function(kenergy, "k_energy_integral", "kenergy.integral")
    function(kenergy, "k_energy_pairing", "kenergy.pairing")
    function(kenergy, "_refine_heights", "kenergy.refine")
    method(kenergy.PLFunction, "dilation_order", "kenergy.dilation_order")
    method(kenergy.PLFunction, "dilate", "kenergy.dilate")


def engine_cache_entries(engines):
    """Entries held in the caches of the given triangulation engines."""
    return sum(
        len(e._vol) + len(e._dep) + len(e._circuits) + len(e._bary) for e in engines
    )


def layer_metrics(tracer, passes):
    """Per-layer counts and seconds, per traced pass."""
    incl = Counter()
    calls = Counter()
    own = Counter()
    child = [0.0] * len(tracer.spans)
    for name, start, end, parent, outer, _ in tracer.spans:
        calls[name] += 1
        if outer:
            incl[name] += end - start
        if parent >= 0:
            child[parent] += end - start
    for i, (name, start, end, *_rest) in enumerate(tracer.spans):
        own[name] += end - start - child[i]
    c = tracer.counts

    def ratio(a, b):
        return a / b if b else 0.0

    accepted = c["regular_quick.true"]
    decided = calls["triangulation.regular_quick"]
    m = {
        "enumeration.accepted": accepted,
        "enumeration.candidates": c["neighbors"],
        "enumeration.decided": decided,
        "enumeration.pool_map_s": incl["enumeration.pool_map"],
        "enumeration.serial_s": incl["enumeration.enumerate_regular"]
        - incl["enumeration.pool_map"]
        - incl["enumeration.on_accept"],
        "triangulation.supported_flips_s": incl["triangulation.supported_flips"],
        "triangulation.flip_s": incl["triangulation.flip"],
        "triangulation.flips": calls["triangulation.flip"],
        "triangulation.codec_s": incl["triangulation.decode"] + incl["triangulation.encode"],
        "triangulation.fold_rows_s": incl["triangulation.fold_rows"],
        "triangulation.regular_quick_calls": decided,
        "triangulation.height_subdivision_s": incl["triangulation.height_subdivision"],
        "triangulation.max_eq_lp_calls": c["max_eq_lp"],
        "lp.strict_feasible_s": incl["lp.strict_feasible"],
        "lp.strict_feasible_calls": calls["lp.strict_feasible"],
        "lp.eq_phase1_s": incl["lp.eq_phase1"],
        "lp.certificate_s": own["lp.strict_feasible"],
        "lp.pivots": c["pivots"],
        "checkpoint.records": c["checkpoint.records"],
        "checkpoint.commits": calls["checkpoint.commit"],
        "checkpoint.commit_s": incl["checkpoint.commit"],
        "checkpoint.read_s": incl["checkpoint.read"],
        "checkpoint.bytes": c["checkpoint.bytes"],
        "prism.nu_vector_s": incl["prism.nu_vector"],
        "prism.nu_vector_calls": calls["prism.nu_vector"],
        "weights.eta_k_s": incl["weights.eta_k"],
        "weights.eta_k_calls": calls["weights.eta_k"],
        "polytopes.weight_polytope_s": incl["polytopes.WeightPolytope"]
        + incl["polytopes.WeightPolytope.vertices"],
        "geometry.lattice_polytopes": calls["geometry.LatticePolytope"],
        "geometry.lattice_polytope_s": incl["geometry.LatticePolytope"] + incl["geometry.hull"],
        "geometry.normally_equivalent_s": incl["geometry.normally_equivalent"],
        "kenergy.refinements": calls["kenergy.refine"],
        "kenergy.dilations": calls["kenergy.dilate"],
        "kenergy.dilation_order_s": incl["kenergy.dilation_order"],
        "kenergy.integral_s": incl["kenergy.integral"],
        "kenergy.pairing_s": incl["kenergy.pairing"],
    }
    m = {k: v / passes for k, v in m.items()}
    # ratios are the same per pass and in total
    m["enumeration.decided_per_accepted"] = ratio(decided, accepted)
    m["triangulation.circuit_of_hit_ratio"] = ratio(c["circuit_of.hits"], c["circuit_of.calls"])
    m["lp.pivots_per_solve"] = ratio(c["pivots"], c["tableaux"])
    m["polytopes.base_enumerations"] = ratio(
        c["enumerate_regular.base"], calls["polytopes.check_conjecture"]
    )
    return m
