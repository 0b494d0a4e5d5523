"""Outside-in tracing of svtkit's public functions.

``Tracer.install`` replaces every public function of the layer modules
(``cli``, ``approx``, ``qsp``, ``svt``, ``blockenc``, ``apps``, ``poly``)
with a wrapper that records a span: name, layer, parent, request index,
start, end, and the type of an exception that left it.  The wrapper is
bound wherever svtkit holds the function: in its own module and under every
``from ... import`` name in other svtkit modules.  Private helpers are not
wrapped, so their time is self time of the public function that called
them.

Spans stay in memory; ``layer_metrics`` turns them into the per-layer
metrics when the run ends.
"""
from __future__ import annotations

import collections
import functools
import importlib
import inspect
import pkgutil
import time

import numpy as np

LAYERS = ("cli", "approx", "qsp", "svt", "blockenc", "apps", "poly")
APPS = ("markov_detect", "hamiltonian_simulate", "fractional_query",
        "fast_or", "threshold_projector", "pseudoinverse")
ALTSEQ_DIMS = (16, 32, 64, 128, 256)


class Span:
    __slots__ = ("name", "layer", "parent", "request", "start", "end",
                 "child_s", "error", "info")

    def __init__(self, name, layer, parent, request):
        self.name, self.layer, self.parent = name, layer, parent
        self.request = request
        self.child_s = 0.0
        self.error = None
        self.info = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    def ancestors(self):
        span = self.parent
        while span is not None:
            yield span
            span = span.parent


def _layer_of(module_name: str):
    parts = module_name.split(".")
    if len(parts) > 1 and parts[0] == "svtkit" and parts[1] in LAYERS:
        return parts[1]
    return None


def _freeze(value):
    """Hashable stand-in for an argument, equal for equal arguments."""
    if isinstance(value, np.ndarray):
        return ("array", value.dtype.str, value.shape, value.tobytes())
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if callable(value):
        return ("callable", getattr(value, "__qualname__", repr(value)))
    try:
        hash(value)
    except TypeError:
        return ("object", type(value).__name__, id(value))
    return value


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.request = 0

    def install(self, package) -> None:
        """Wrap the public functions of ``package``'s layer modules."""
        modules = [package] + [
            importlib.import_module(info.name)
            for info in pkgutil.walk_packages(package.__path__,
                                              package.__name__ + ".")]
        wrapped = {}
        for module in modules:
            layer = _layer_of(module.__name__)
            if layer is None:
                continue
            for name, obj in vars(module).items():
                if (inspect.isfunction(obj) and not name.startswith("_")
                        and obj.__module__ == module.__name__):
                    wrapped[obj] = self._wrap(f"{layer}.{name}", layer, obj)
        for module in modules:
            for name, obj in list(vars(module).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(module, name, wrapped[obj])

    def _wrap(self, name, layer, fn):
        probe = _PROBES.get(name) or (
            _probe_constructor if name.startswith("approx.approx_") else None)
        signature = inspect.signature(fn)
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(name, layer, stack[-1] if stack else None,
                        self.request)
            stack.append(span)
            result = None
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = time.perf_counter()
                stack.pop()
                if span.parent is not None:
                    span.parent.child_s += span.end - span.start
                spans.append(span)
                if probe is not None:
                    probe(span, signature.bind(*args, **kwargs).arguments,
                          result)

        return traced


# ----------------------------------------------------------------------
# probes: per-function details recorded after the call


def _probe_constructor(span, arguments, result):
    if span.parent is not None and span.parent.layer == "approx":
        return
    results = result if isinstance(result, tuple) else (result,)
    degrees = [r.degree for r in results if hasattr(r, "degree")]
    span.info = {"key": (span.name, _freeze(dict(arguments))),
                 "degree": max(degrees) if degrees else None}


def _extended(arguments) -> bool:
    precision = arguments.get("precision")
    return bool(precision is not None and precision.extended)


def _probe_phases(span, arguments, result):
    span.info = dict(span.info or {}, extended=_extended(arguments))


def _probe_complete(span, arguments, result):
    extended = _extended(arguments)
    span.info = {"extended": extended}
    for outer in span.ancestors():
        if outer.name == "qsp.phases_for_target":
            info = outer.info = outer.info or {}
            info["completes"] = info.get("completes", 0) + 1
            # a standard-precision request that reached mpmath escalated
            info["escalated"] = info.get("escalated", False) or extended
            break


def _probe_altseq(span, arguments, result):
    span.info = {"dim": arguments["pu"].dim,
                 "layers": len(arguments["phi"].phis)}


_PROBES = {
    "qsp.phases_for_target": _probe_phases,
    "qsp.complete": _probe_complete,
    "svt.alternating_sequence": _probe_altseq,
}


# ----------------------------------------------------------------------
# metrics


def _outermost_s(spans, names) -> float:
    """Inclusive time of spans named in ``names`` not nested in another."""
    names = set(names)
    return sum(s.duration for s in spans if s.name in names
               and not any(a.name in names for a in s.ancestors()))


def layer_metrics(spans, wall_s: float, requests: int):
    """Per-layer metrics as {name: (value, unit)}, plus exception counts
    by layer and type."""
    self_s = collections.Counter()
    calls = collections.Counter()
    failures = collections.Counter()
    by_type = collections.Counter()
    for s in spans:
        self_s[s.layer] += s.duration - s.child_s
        calls[s.name] += 1
        if s.error and (s.parent is None or s.parent.layer != s.layer):
            failures[s.layer] += 1
            by_type[(s.layer, s.error)] += 1

    def of(name):
        return [s for s in spans if s.name == name]

    def total(name):
        return sum(s.duration for s in of(name))

    out = {f"{layer}.self_s": (self_s[layer], "s")
           for layer in LAYERS if layer != "poly"}

    boundary = [s for s in spans if s.layer == "approx"
                and (s.parent is None or s.parent.layer != "approx")]
    built = [s for s in boundary if s.info is not None]
    seen, repeats = set(), 0
    for s in built:
        repeats += s.info["key"] in seen
        seen.add(s.info["key"])
    degrees = [s.info["degree"] for s in built if s.info["degree"]]
    out["approx.calls"] = (len(boundary), "count")
    out["approx.degree_mean"] = (float(np.mean(degrees)) if degrees else 0.0,
                                 "count")
    out["approx.repeat_share"] = (repeats / len(built) if built else 0.0,
                                  "ratio")

    phases = of("qsp.phases_for_target")
    completes = of("qsp.complete")
    extended = [s for s in completes if s.info and s.info["extended"]]
    reached = [s for s in phases if s.info and s.info.get("completes")]
    standard = [s for s in reached if not s.info["extended"]]
    out["qsp.phases_calls"] = (len(phases), "count")
    out["qsp.complete_calls"] = (len(completes), "count")
    out["qsp.complete_s"] = (total("qsp.complete"), "s")
    out["qsp.strip_s"] = (_outermost_s(spans, ["qsp.phases_from_pq"]), "s")
    out["qsp.reconstruct_s"] = (_outermost_s(spans, ["qsp.qsp_eval"]), "s")
    out["qsp.extended_calls"] = (len(extended), "count")
    out["qsp.extended_s"] = (sum(s.duration for s in extended), "s")
    out["qsp.escalation_ratio"] = (
        sum(s.info["escalated"] for s in standard) / len(standard)
        if standard else 0.0, "ratio")
    out["qsp.miss_ratio"] = (len(reached) / len(phases) if phases else 0.0,
                             "ratio")
    out["qsp.retries"] = (
        sum(s.info["completes"] - 1 for s in reached) / max(requests, 1),
        "count")

    altseq = of("svt.alternating_sequence")
    out["svt.altseq_calls"] = (len(altseq), "count")
    out["svt.altseq_s"] = (_outermost_s(spans, ["svt.alternating_sequence"]),
                           "s")
    for dim in ALTSEQ_DIMS:
        at = [s for s in altseq if s.info and s.info["dim"] == dim]
        layers = sum(s.info["layers"] for s in at)
        out[f"svt.altseq_us_per_layer.d{dim}"] = (
            1e6 * sum(s.duration for s in at) / layers if layers else 0.0,
            "us")
    out["svt.apply_self_s"] = (sum(s.duration - s.child_s
                                   for s in of("svt.svt_apply")), "s")
    out["svt.eig_self_s"] = (sum(s.duration - s.child_s
                                 for s in of("svt.eigenvalue_transform")), "s")
    out["svt.oracle_s"] = (_outermost_s(
        spans, ["svt.reference_svt", "svt.svd_bundle"]), "s")

    out["blockenc.norm_s"] = (_outermost_s(spans, ["blockenc.operator_norm"]),
                              "s")
    out["blockenc.unitary_check_s"] = (
        _outermost_s(spans, ["blockenc.is_unitary"]), "s")

    for app in APPS:
        name = f"apps.{app}"
        outer = [s for s in of(name)
                 if not any(a.name == name for a in s.ancestors())]
        out[f"{name}.calls"] = (len(outer), "count")
        out[f"{name}.total_s"] = (sum(s.duration for s in outer), "s")

    for layer in LAYERS:
        out[f"{layer}.failures"] = (failures[layer], "count")
    out["poly.calls"] = (sum(calls[n] for n in calls
                             if n.startswith("poly.")), "count")
    attributed = sum(s.duration for s in spans if s.parent is None)
    out["trace.attributed_share"] = (attributed / wall_s if wall_s else 0.0,
                                     "ratio")
    return out, {f"{layer}.{kind}": n for (layer, kind), n in by_type.items()}
