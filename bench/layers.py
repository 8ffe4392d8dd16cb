"""Per-layer tracing of the porous package, installed from outside it.

Nothing under ``src/`` changes: ``install`` swaps public functions and
methods for timing wrappers and ``Tracer.restore`` puts the originals
back.  Coarse boundaries (``build_family``, ``budget``, ...) become spans
that record name, start, end, parent span and operation id.  Hot leaf
calls (field evaluation, ball membership, substreams) would produce
millions of spans, so they only feed aggregate counters keyed by
(name, parent).  Every wrapped call, span or not, also takes part in the
self-time bookkeeping: a frame's self time is its inclusive time minus the
inclusive time of the wrapped frames directly inside it.  Times are
integer nanoseconds, so self times are exact and never negative.

The package binds names with ``from .x import y``, so a function wrapper
is patched into every ``porous`` module that binds the original object.
Smoothed fields are closures returned by ``mollify``, ``blend`` and
``make_cutoff``; their evaluation is traced by wrapping the ``fn`` and
``grad_fn`` of the fields those factories return.
"""
from __future__ import annotations

import dataclasses
import functools
import sys
from collections import defaultdict
from time import perf_counter_ns

# layer of each traced name; "cli" is the operation's own self time: argument
# parsing, config loading, family and report I/O, anything not wrapped
LAYERS = ("construction", "geometry", "sampling", "analysis", "surfaces",
          "verification", "cli")

OP = "cli.op"


class Tracer:
    """Spans, aggregate counters and self times for one traced run."""

    def __init__(self) -> None:
        self.spans: list[list] = []      # [name, start_ns, end_ns, parent, op]
        self.frames: list[list] = []     # [name, t0, child_ns, span index]
        self.active: dict[str, int] = defaultdict(int)
        self.calls: dict[str, int] = defaultdict(int)
        self.incl_ns: dict[str, int] = defaultdict(int)   # outermost only
        self.self_ns: dict[str, int] = defaultdict(int)
        self.pairs: dict[tuple, list] = defaultdict(lambda: [0, 0])
        self.counts: dict[str, int] = defaultdict(int)
        self.depth_max: dict[str, int] = defaultdict(int)
        self.op = None
        self._span = -1
        self._restore: list[tuple] = []

    # -- frames ------------------------------------------------------------
    def enter(self, name: str, span: bool) -> None:
        t0 = perf_counter_ns()
        index = -1
        if span:
            index = len(self.spans)
            self.spans.append([name, t0, None, self._span, self.op])
            self._span = index
        self.active[name] += 1
        if self.active[name] > self.depth_max[name]:
            self.depth_max[name] = self.active[name]
        self.frames.append([name, t0, 0, index])

    def exit(self) -> str:
        """Close the innermost frame; returns the name of its parent frame."""
        t1 = perf_counter_ns()
        name, t0, child_ns, index = self.frames.pop()
        incl = t1 - t0
        self.active[name] -= 1
        self.calls[name] += 1
        if self.active[name] == 0:
            self.incl_ns[name] += incl
        self.self_ns[name] += incl - child_ns
        parent = self.frames[-1][0] if self.frames else ""
        if self.frames:
            self.frames[-1][2] += incl
        if index >= 0:
            self.spans[index][2] = t1
            self._span = self.spans[index][3]
        else:
            pair = self.pairs[(name, parent)]
            pair[0] += 1
            pair[1] += incl
        return parent

    def operation(self, op_id: str, fn, *args):
        """Run ``fn(*args)`` as the root span of one benchmark operation."""
        self.op = op_id
        self.enter(OP, True)
        try:
            return fn(*args)
        finally:
            self.exit()
            self.op = None

    # -- wrapping ----------------------------------------------------------
    def wrap(self, name: str, fn, span: bool = False, count=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer.enter(name, span)
            try:
                out = fn(*args, **kwargs)
            finally:
                parent = tracer.exit()
            if count is not None:
                count(tracer.counts, parent, args, kwargs, out)
            return out
        return wrapper

    def patch_function(self, module, attr: str, wrapper_for) -> None:
        """Replace ``module.attr`` in every porous module that binds it."""
        original = getattr(module, attr)
        wrapper = wrapper_for(original)
        for mod in [m for k, m in sys.modules.items()
                    if (k == "porous" or k.startswith("porous."))
                    and m is not None]:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._restore.append((mod, key, value))
                    setattr(mod, key, wrapper)

    def patch_method(self, cls, attr: str, wrapper) -> None:
        self._restore.append((cls, attr, cls.__dict__[attr]))
        setattr(cls, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- results -----------------------------------------------------------
    def layer_self_s(self) -> dict[str, float]:
        out = {layer: 0 for layer in LAYERS}
        for name, ns in self.self_ns.items():
            out[name.split(".", 1)[0]] += ns
        return {layer: ns / 1e9 for layer, ns in out.items()}

    def span_self_ns(self) -> list[int]:
        """Self time of every span: duration minus its direct child spans."""
        child = [0] * len(self.spans)
        for name, start, end, parent, op in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - c
                for (_, start, end, _, _), c in zip(self.spans, child)]

    def dump(self) -> dict:
        return {"spans": self.spans,
                "aggregates": [[name, parent, calls, ns] for
                               (name, parent), (calls, ns)
                               in sorted(self.pairs.items())]}


# ---------------------------------------------------------------------------
# count hooks: (counts, parent, args, kwargs, result) -> None
# ---------------------------------------------------------------------------

def _arg(args, kwargs, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _rows(result) -> int:
    return int(result.shape[0])


def _count_values(prefix):
    def hook(counts, parent, args, kwargs, out):
        counts[prefix + ".points"] += _rows(out)
    return hook


def _count_contains_any(counts, parent, args, kwargs, out):
    counts["geometry.contains_any.pairs"] += \
        _rows(out) * _arg(args, kwargs, 1, "centers").shape[0]


def _count_boundary_distance(counts, parent, args, kwargs, out):
    counts["construction.StageSpace.boundary_distance.pairs"] += \
        _rows(out) * len(args[0].radii)


def _count_sample_uncovered(counts, parent, args, kwargs, out):
    counts["construction.StageSpace.sample_uncovered.points"] += len(out)


def _count_sample_shell(counts, parent, args, kwargs, out):
    counts["sampling.sample_shell.points"] += len(out)
    if parent == "construction.StageSpace.sample_uncovered":
        counts["construction.StageSpace.sample_uncovered.drawn"] += len(out)


def _count_stratified(counts, parent, args, kwargs, out):
    counts["sampling.stratified_ball_mean.points"] += out[2]


def _count_graph_measure(counts, parent, args, kwargs, out):
    counts["surfaces.graph_measure_in.points"] += out.sample_count


def _count_build_family(counts, parent, args, kwargs, out):
    family = out[0]
    counts["construction.holes"] += len(family)
    counts["construction.levels"] += len(
        set(zip(family.ks.tolist(), family.levels.tolist())))


def _count_hit_scan(counts, parent, args, kwargs, out):
    p = "verification.graph_hit_scan"
    counts[p + ".holes"] += len(out.ids)
    counts[p + ".prefiltered"] += int(out.prefiltered.sum())
    counts[p + ".hits"] += int(out.hit.sum())


def _count_classify(counts, parent, args, kwargs, out):
    p = "verification.classify_holes"
    counts[p + ".u"] += len(out.u_ids)
    counts[p + ".d"] += len(out.d_ids)
    counts[p + ".algebraic"] += sum(
        1 for est in out.residue_measures.values() if est is None)
    counts[p + ".escalated"] += len(out.escalated_ids)
    counts[p + ".indeterminate"] += len(out.indeterminate_ids)


def _count_selected(counts, parent, args, kwargs, out):
    counts["verification.smooth_over_subfamily.selected"] += \
        len(_arg(args, kwargs, 2, "selected"))


# ---------------------------------------------------------------------------
# smoothed fields: wrap the evaluation of what the factories return
# ---------------------------------------------------------------------------

def _traced_field(tracer: Tracer, field, name: str, count=None):
    return dataclasses.replace(
        field, fn=tracer.wrap(name, field.fn, count=count),
        grad_fn=tracer.wrap(name, field.grad_fn, count=count))


def _mollify_factory(tracer: Tracer, analysis):
    node_counts: dict[tuple, int] = {}

    def wrapper_for(original):
        factory = tracer.wrap("analysis.mollify", original)

        @functools.wraps(original)
        def mollify(g, eps, nodes_per_axis=analysis.DEFAULT_NODES_PER_AXIS,
                    label=None):
            field = factory(g, eps, nodes_per_axis, label)
            key = (g.domain.dim, nodes_per_axis)
            if key not in node_counts:
                node_counts[key] = len(
                    analysis.convolution_nodes(*key)[0])
            nodes = node_counts[key]

            def count(counts, parent, args, kwargs, out):
                counts["analysis.mollify.eval.points"] += _rows(out)
                counts["analysis.mollify.eval.nodes"] += nodes
            return _traced_field(tracer, field, "analysis.mollify.eval",
                                 count)
        return mollify
    return wrapper_for


def _blend_factory(tracer: Tracer):
    def wrapper_for(original):
        factory = tracer.wrap("analysis.blend", original)

        @functools.wraps(original)
        def blend(*args, **kwargs):
            return _traced_field(tracer, factory(*args, **kwargs),
                                 "analysis.blend.eval")
        return blend
    return wrapper_for


def _cutoff_factory(tracer: Tracer):
    def wrapper_for(original):
        factory = tracer.wrap("analysis.make_cutoff", original)

        @functools.wraps(original)
        def make_cutoff(*args, **kwargs):
            cut = factory(*args, **kwargs)
            return dataclasses.replace(cut, field=_traced_field(
                tracer, cut.field, "analysis.cutoff.eval"))
        return make_cutoff
    return wrapper_for


# ---------------------------------------------------------------------------
# installation
# ---------------------------------------------------------------------------

SPANS = {
    "construction": ("build_family", "choose_level_radius", "pack_level"),
    "sampling": ("stratified_ball_mean",),
    "surfaces": ("generate_from_spec", "graph_measure_in"),
    "verification": ("budget", "graph_hit_scan", "classify_holes",
                     "residue_energy", "disjointness_audit",
                     "smooth_over_subfamily", "hole_intersection_mass",
                     "family_invariant_audit", "coverage_deficit",
                     "porosity_witness", "analysis_suite"),
}
SPAN_COUNTS = {
    "build_family": _count_build_family,
    "stratified_ball_mean": _count_stratified,
    "graph_measure_in": _count_graph_measure,
    "graph_hit_scan": _count_hit_scan,
    "classify_holes": _count_classify,
    "smooth_over_subfamily": _count_selected,
}


def install(tracer: Tracer) -> None:
    """Patch every traced name of the loaded porous package."""
    from porous import (analysis, cli, construction, geometry,  # noqa: F401
                        sampling, surfaces, verification)

    modules = {"construction": construction, "sampling": sampling,
               "surfaces": surfaces, "verification": verification}
    for layer, names in SPANS.items():
        for name in names:
            tracer.patch_function(
                modules[layer], name,
                lambda fn, name=name, layer=layer: tracer.wrap(
                    f"{layer}.{name}", fn, span=True,
                    count=SPAN_COUNTS.get(name)))

    # hot leaves: aggregate counters only
    tracer.patch_function(geometry, "contains_any", lambda fn: tracer.wrap(
        "geometry.contains_any", fn, count=_count_contains_any))
    tracer.patch_function(sampling, "substream", lambda fn: tracer.wrap(
        "sampling.substream", fn))
    tracer.patch_function(sampling, "sample_shell", lambda fn: tracer.wrap(
        "sampling.sample_shell", fn, count=_count_sample_shell))
    tracer.patch_function(analysis, "mollify",
                          _mollify_factory(tracer, analysis))
    tracer.patch_function(analysis, "blend", _blend_factory(tracer))
    tracer.patch_function(analysis, "make_cutoff", _cutoff_factory(tracer))

    methods = (
        (geometry.ScalarField, "values", "geometry.ScalarField.values",
         _count_values("geometry.ScalarField.values")),
        (geometry.ScalarField, "gradients", "geometry.ScalarField.gradients",
         _count_values("geometry.ScalarField.gradients")),
        (geometry.AffinePlane, "heights", "geometry.AffinePlane.heights",
         None),
        (geometry.BallIndex, "__init__", "geometry.BallIndex.init", None),
        (construction.StageSpace, "sample_uncovered",
         "construction.StageSpace.sample_uncovered", _count_sample_uncovered),
        (construction.StageSpace, "boundary_distance",
         "construction.StageSpace.boundary_distance",
         _count_boundary_distance),
    )
    for cls, attr, name, count in methods:
        tracer.patch_method(cls, attr, tracer.wrap(
            name, cls.__dict__[attr], count=count))


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, tuple[float, str]]:
    """Every per-layer metric of the benchmark as name -> (value, unit)."""
    calls, counts, incl = tracer.calls, tracer.counts, tracer.incl_ns
    out: dict[str, tuple[float, str]] = {}

    def timed(name: str, with_calls: bool = True) -> None:
        if with_calls:
            out[name + ".calls"] = (calls[name], "count")
        out[name + ".s"] = (incl[name] / 1e9, "s")

    def count(name: str) -> None:
        out[name] = (counts[name], "count")

    out["construction.build_family.s"] = (
        incl["construction.build_family"] / 1e9, "s")
    timed("construction.choose_level_radius")
    timed("construction.pack_level")
    su = "construction.StageSpace.sample_uncovered"
    timed(su)
    count(su + ".points")
    out[su + ".accept_ratio"] = (
        _ratio(counts[su + ".points"], counts[su + ".drawn"]), "ratio")
    bd = "construction.StageSpace.boundary_distance"
    timed(bd)
    count(bd + ".pairs")
    count("construction.holes")
    count("construction.levels")

    timed("geometry.contains_any")
    count("geometry.contains_any.pairs")
    out["geometry.BallIndex.init.calls"] = (
        calls["geometry.BallIndex.init"], "count")
    out["geometry.BallIndex.init.s"] = (
        incl["geometry.BallIndex.init"] / 1e9, "s")
    for name in ("geometry.ScalarField.values",
                 "geometry.ScalarField.gradients"):
        timed(name)
        count(name + ".points")
    timed("geometry.AffinePlane.heights")

    timed("sampling.stratified_ball_mean")
    count("sampling.stratified_ball_mean.points")
    timed("sampling.substream")
    out["sampling.sample_shell.calls"] = (calls["sampling.sample_shell"],
                                          "count")
    count("sampling.sample_shell.points")

    out["analysis.mollify.calls"] = (calls["analysis.mollify"], "count")
    timed("analysis.mollify.eval")
    count("analysis.mollify.eval.points")
    count("analysis.mollify.eval.nodes")
    out["analysis.blend.calls"] = (calls["analysis.blend"], "count")
    timed("analysis.blend.eval")
    out["analysis.blend.chain_depth_max"] = (
        tracer.depth_max["analysis.blend.eval"], "count")
    out["analysis.make_cutoff.calls"] = (calls["analysis.make_cutoff"],
                                         "count")
    out["analysis.cutoff.eval.s"] = (incl["analysis.cutoff.eval"] / 1e9, "s")

    out["surfaces.generate_from_spec.s"] = (
        incl["surfaces.generate_from_spec"] / 1e9, "s")
    timed("surfaces.graph_measure_in")
    count("surfaces.graph_measure_in.points")

    timed("verification.budget")
    hs = "verification.graph_hit_scan"
    timed(hs)
    for part in ("holes", "prefiltered", "hits"):
        count(f"{hs}.{part}")
    out[hs + ".prefilter_ratio"] = (
        _ratio(counts[hs + ".prefiltered"], counts[hs + ".holes"]), "ratio")
    ch = "verification.classify_holes"
    timed(ch)
    for part in ("u", "d", "algebraic", "escalated", "indeterminate"):
        count(f"{ch}.{part}")
    for name in ("residue_energy", "disjointness_audit",
                 "smooth_over_subfamily", "hole_intersection_mass",
                 "porosity_witness"):
        timed("verification." + name)
    count("verification.smooth_over_subfamily.selected")
    for name in ("family_invariant_audit", "coverage_deficit",
                 "analysis_suite"):
        out[f"verification.{name}.s"] = (
            incl["verification." + name] / 1e9, "s")

    for layer, seconds in tracer.layer_self_s().items():
        out[f"{layer}.self_s"] = (seconds, "s")
    return out
