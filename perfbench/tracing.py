"""Outside-in span recording for the benchmark's traced runs.

The program has no spans of its own at the boundaries this benchmark
reports, so :func:`instrument` wraps each layer's public callable at the
attribute its caller looks it up through (``linprog`` as
``repro.flow.edge_lp`` and ``repro.flow.incremental`` bind it,
``make_topology`` as ``repro.pipeline.scenario`` binds it, ...) and
restores every attribute on exit. Nothing under ``src/`` changes.

Span names follow the ROADMAP taxonomy (``build.*``, ``fingerprint``,
``cache.get``/``cache.put``, ``lp.*``, ``estimate.*``) so spans emitted
later from inside the program can replace these one for one.
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field


@dataclass
class Span:
    name: str
    start: float
    end: float
    #: Index of the enclosing span in :attr:`Recorder.spans`; -1 at the root.
    parent: int
    #: Work item (one ``evaluate_batch`` / ``evaluate_window`` call) the
    #: span belongs to; -1 outside items.
    item: int
    attrs: dict = field(default_factory=dict)


class Recorder:
    """In-memory span store for one traced repetition.

    The grid scheduler runs items on its dispatcher thread while the
    calling thread blocks in ``run_grid``; a span opened on a thread with
    nothing open therefore nests under the innermost span open on the
    thread that created the recorder.
    """

    def __init__(self) -> None:
        self.spans: "list[Span]" = []
        #: ``ResultCache`` instances the repetition touched, by ``id``.
        self.caches: dict = {}
        self._stacks: "dict[int, list[int]]" = {}
        self._owner = threading.get_ident()
        self._items = 0

    def open(self, name: str, new_item: bool = False) -> int:
        stack = self._stacks.setdefault(threading.get_ident(), [])
        if stack:
            parent = stack[-1]
        else:
            owner = self._stacks.get(self._owner) or [-1]
            parent = owner[-1]
        item = self.spans[parent].item if parent >= 0 else -1
        if new_item:
            item, self._items = self._items, self._items + 1
        self.spans.append(Span(name, time.perf_counter(), 0.0, parent, item))
        stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index].end = time.perf_counter()
        self._stacks[threading.get_ident()].pop()

    @contextmanager
    def span(self, name: str, new_item: bool = False):
        index = self.open(name, new_item)
        try:
            yield self.spans[index]
        finally:
            self.close(index)


def write_spans(path, recorders: "list[Recorder]") -> None:
    """One JSON list per traced repetition, of its spans in start order."""
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(
            [[asdict(span) for span in rec.spans] for rec in recorders], handle
        )


def self_times(spans: "list[Span]") -> "list[float]":
    """Each span's duration minus the part of it its children cover."""
    children: "list[list[int]]" = [[] for _ in spans]
    for index, span in enumerate(spans):
        if span.parent >= 0:
            children[span.parent].append(index)
    out = []
    for index, span in enumerate(spans):
        covered = 0.0
        cursor = span.start
        for start, end in sorted(
            (spans[c].start, spans[c].end) for c in children[index]
        ):
            start, end = max(start, cursor), min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out.append(span.end - span.start - covered)
    return out


def _linprog_attrs(recorder: Recorder, span: Span, args, kwargs, result) -> None:
    span.attrs["nnz"] = sum(
        kwargs[key].nnz for key in ("A_eq", "A_ub") if kwargs.get(key) is not None
    )
    span.attrs["iterations"] = int(result.nit) + int(
        result.get("crossover_nit") or 0
    )


#: ``SolverConfig.solve`` span by backend; its self time excludes the
#: ``linprog`` / ``fiedler_pair`` spans inside it.
_SOLVER_SPANS = {
    "edge_lp": "lp.assemble_extract",
    "estimate_bound": "estimate.bound",
    "estimate_cut": "estimate.cut",
    "estimate_spectral": "estimate.spectral",
}


def _solver_span(args) -> str:
    return _SOLVER_SPANS[args[0].name]


def _note_cache(recorder: Recorder, span: Span, args, kwargs, result) -> None:
    recorder.caches[id(args[0])] = args[0]


def _boundaries() -> list:
    """``(owner, attribute, span name or namer, attrs hook, new item)``."""
    import repro.flow.edge_lp as edge_lp
    import repro.flow.incremental as incremental
    import repro.pipeline.engine as engine
    import repro.pipeline.replay as replay
    import repro.pipeline.scenario as scenario
    from repro.estimate.batch import SharedArtifacts
    from repro.flow.solvers import SolverConfig
    from repro.pipeline.cache import ResultCache
    from repro.traffic.timeline import DemandDelta

    return [
        (edge_lp, "linprog", "lp.solve", _linprog_attrs, False),
        (incremental, "linprog", "lp.solve", _linprog_attrs, False),
        (SolverConfig, "solve", _solver_span, None, False),
        (incremental.EdgeLPModel, "__init__", "lp.assemble", None, False),
        (incremental.EdgeLPModel, "solve_result", "lp.extract", None, False),
        (incremental.EdgeLPModel, "apply_demand_delta", "lp.delta", None, False),
        (scenario, "make_topology", "build.topology", None, False),
        (scenario, "make_traffic", "build.traffic", None, False),
        (DemandDelta, "apply", "build.traffic_delta", None, False),
        (engine, "topology_fingerprint", "fingerprint", None, False),
        (engine, "traffic_fingerprint", "fingerprint", None, False),
        (replay, "topology_fingerprint", "fingerprint", None, False),
        (ResultCache, "get", "cache.get", _note_cache, False),
        (ResultCache, "put", "cache.put", _note_cache, False),
        (SharedArtifacts, "fiedler_pair", "estimate.fiedler", None, False),
        (engine, "evaluate_batch", "pipeline.eval", None, True),
        (replay, "evaluate_window", "pipeline.eval", None, True),
    ]


def _wrap(recorder: Recorder, fn, name, hook, new_item: bool):
    def traced(*args, **kwargs):
        span_name = name(args) if callable(name) else name
        with recorder.span(span_name, new_item=new_item) as span:
            result = fn(*args, **kwargs)
            if hook is not None:
                hook(recorder, span, args, kwargs, result)
            return result

    return traced


@contextmanager
def instrument(recorder: Recorder):
    """Record spans around every layer boundary while the block runs."""
    saved = []
    try:
        for owner, attr, name, hook, new_item in _boundaries():
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, _wrap(recorder, original, name, hook, new_item))
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


#: Span name -> the layer its self time is reported under (``<layer>_s``).
LAYER_OF = {
    "lp.solve": "lp.solve",
    "lp.assemble": "lp.assemble_extract",
    "lp.extract": "lp.assemble_extract",
    "lp.assemble_extract": "lp.assemble_extract",
    "lp.delta": "lp.delta",
    "build.topology": "topology.build",
    "build.traffic": "traffic.build",
    "build.traffic_delta": "traffic.delta",
    "fingerprint": "fingerprint",
    "cache.get": "cache.get",
    "cache.put": "cache.put",
    "estimate.bound": "estimate.bound",
    "estimate.cut": "estimate.cut",
    "estimate.spectral": "estimate.spectral",
    "estimate.fiedler": "estimate.fiedler",
    "pipeline.eval": "pipeline.eval",
    "pipeline.run": "pipeline.overhead",
    "ref.kernel": "ref.kernel",
}

#: Layers that are no program boundary: the benchmark's own kernel, and
#: the pipeline's catch-all remainders (whatever no boundary inside
#: ``run_grid`` / ``run_replay`` or ``evaluate_*`` covers).
UNATTRIBUTED = ("ref.kernel", "pipeline.eval", "pipeline.overhead")


def attributed_frac(self_s: "dict[str, float]", wall: float) -> float:
    """Share of ``wall`` outside the kernel that the program's named
    boundaries cover: their self seconds over ``wall`` minus kernel time."""
    named = sum(s for layer, s in self_s.items() if layer not in UNATTRIBUTED)
    return named / (wall - self_s["ref.kernel"])


#: Count metrics and the span whose calls they count.
CALL_COUNTS = {
    "lp.solves": "lp.solve",
    "lp.deltas": "lp.delta",
    "topology.builds": "build.topology",
    "fingerprints": "fingerprint",
    "estimate.fiedler_calls": "estimate.fiedler",
}


def layer_summary(recorder: Recorder) -> dict:
    """Per-layer self seconds, call counts and LP work of one repetition.

    Returns ``{"self_s": {layer: s}, "counts": {metric: n},
    "solve_ms": [per-call linprog ms]}``.
    """
    selfs = self_times(recorder.spans)
    self_s = {layer: 0.0 for layer in set(LAYER_OF.values())}
    for span, seconds in zip(recorder.spans, selfs):
        self_s[LAYER_OF[span.name]] += seconds
    names = [span.name for span in recorder.spans]
    counts = {metric: names.count(name) for metric, name in CALL_COUNTS.items()}
    solves = [span for span in recorder.spans if span.name == "lp.solve"]
    counts["lp.iterations"] = sum(span.attrs["iterations"] for span in solves)
    counts["lp.nnz"] = sum(span.attrs["nnz"] for span in solves)
    stats = [cache.stats() for cache in recorder.caches.values()]
    # Drop the caches (and their parsed-entry memos) once counted.
    recorder.caches.clear()
    for key in ("hits", "misses", "disk_hits", "memo_hits"):
        counts["cache." + key] = sum(entry[key] for entry in stats)
    return {
        "self_s": self_s,
        "counts": counts,
        "solve_ms": [(span.end - span.start) * 1e3 for span in solves],
    }

