"""Spans recorded around calls into the program's public functions.

The benchmark never edits ``src/repro``.  A traced program process
(:mod:`child`) rebinds the public callables named in :func:`install`
to thin wrappers that record ``(name, start, end, parent)`` in memory;
the list is written out once, when the process ends, and the driver
reduces it to per-layer numbers with :func:`layer_totals` and
:func:`unexplained_s`.

Parents come from a per-thread stack of open spans, so a span on the
service's compute thread has no parent, and children never overlap
their parent except across threads; :func:`self_time` takes the union
of the children's intervals all the same.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

__all__ = [
    "SpanRecorder",
    "covered_s",
    "event_totals",
    "install",
    "layer_metrics",
    "layer_totals",
    "self_time",
    "unexplained_s",
]

class SpanRecorder:
    """In-memory spans ``[name, start_s, end_s, parent index or -1]`` and
    counter events ``[name, at_s, value]``, safe across threads."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.events: List[list] = []
        self._local = threading.local()
        self._lock = threading.Lock()

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> int:
        """Start a span now, under this thread's innermost open span."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, perf_counter(), 0.0, parent])
        stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][2] = perf_counter()
        self._stack().pop()

    def add(self, name: str, start_s: float, end_s: float) -> None:
        """A span timed elsewhere, parented under this thread's open span."""
        stack = self._stack()
        with self._lock:
            self.spans.append([name, start_s, end_s, stack[-1] if stack else -1])

    def count(self, name: str, value: float = 1.0) -> None:
        self.events.append([name, perf_counter(), value])

    def wrap(
        self,
        fn: Callable,
        name: Optional[str] = None,
        *,
        name_of: Optional[Callable] = None,
        on_call: Optional[Callable] = None,
    ) -> Callable:
        """A wrapper that records one span per call of ``fn``.

        ``name_of(args)`` names the span from the call's arguments;
        ``on_call(args, kwargs, result)`` updates counters afterwards.
        """
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = recorder.open(name_of(args) if name_of else name)
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder.close(index)
            if on_call is not None:
                on_call(args, kwargs, result)
            return result

        return wrapper

    def dump(self, path: str, **extra: object) -> None:
        doc = {"spans": self.spans, "events": self.events, **extra}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# -- rebinding -------------------------------------------------------------
def rebind_function(module_name: str, attr: str, wrapper: Callable) -> int:
    """Replace a module-level function everywhere it was imported.

    Every loaded ``repro`` module whose attribute *is* the original gets
    the wrapper, so ``from x import f`` bindings see it too; modules
    imported later pick it up from the source module.  Returns how many
    bindings were replaced.
    """
    original = getattr(sys.modules[module_name], attr)
    replaced = 0
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for key, value in list(vars(module).items()):
            if value is original:
                setattr(module, key, wrapper)
                replaced += 1
    return replaced


def _subclasses(cls: type) -> List[type]:
    out, todo = [], [cls]
    while todo:
        c = todo.pop()
        out.append(c)
        todo.extend(c.__subclasses__())
    return out


def rebind_method(cls: type, attr: str, make_wrapper: Callable[[Callable], Callable]) -> int:
    """Wrap ``attr`` on ``cls`` and on every subclass that defines its own."""
    replaced = 0
    for c in _subclasses(cls):
        fn = c.__dict__.get(attr)
        if fn is None or getattr(fn, "__isabstractmethod__", False):
            continue
        setattr(c, attr, make_wrapper(fn))
        replaced += 1
    return replaced


# -- the layer map ---------------------------------------------------------
def _jobs_of_schedule(recorder: SpanRecorder):
    def on_call(args, kwargs, result):
        recorder.count("scheduler.jobs", float(result.jobs_arrived))

    return on_call


def _jobs_of_mc(recorder: SpanRecorder):
    def on_call(args, kwargs, result):
        recorder.count("queueing.mc.jobs", float(result.n_jobs * result.n_reps))

    return on_call


def _configs_of_space(recorder: SpanRecorder):
    def on_call(args, kwargs, result):
        recorder.count("model.evaluate_space_arrays.configs", float(result.n_configs))

    return on_call


def _observe_serve(recorder: SpanRecorder) -> None:
    """Count the serve layer's cache, batcher and admission verdicts.

    The same counters ``/stats`` reports, taken in the process itself so
    they also cover services the program runs in-process (the
    ``serving-slo`` claim) and fall inside the span window.
    """
    from repro.serve import batching
    from repro.serve.admission import AdmissionController
    from repro.serve.cache import FrontierCache

    get = FrontierCache.get

    @functools.wraps(get)
    def get_observed(self, digest):
        entry = get(self, digest)
        recorder.count("serve.cache.misses" if entry is None else "serve.cache.hits")
        return entry

    put = FrontierCache.put

    @functools.wraps(put)
    def put_observed(self, entry):
        before = self.evictions
        put(self, entry)
        if self.evictions > before:
            recorder.count("serve.cache.evictions", float(self.evictions - before))

    decide = AdmissionController.decide

    @functools.wraps(decide)
    def decide_observed(self, depth):
        decision = decide(self, depth)
        if not decision.admitted:
            recorder.count("serve.admission.shed")
        return decision

    # The batcher opens one ``serve.batch`` tracing span per computed
    # batch; its own binding of ``span`` is the one observed.
    tracing_span = batching.span

    @contextlib.contextmanager
    def batch_span(name, **attrs):
        with tracing_span(name, **attrs) as handle:
            yield handle
        if name == "serve.batch":
            recorder.count("serve.batch.batches")
            recorder.count("serve.batch.queries", float(attrs["size"]))

    FrontierCache.get = get_observed
    FrontierCache.put = put_observed
    AdmissionController.decide = decide_observed
    batching.span = batch_span


def install(recorder: SpanRecorder) -> None:
    """Rebind every traced public callable.

    Imports the modules it wraps, so call it after ``import repro`` and
    before the program does any work.  Raises when a target is gone, so a
    renamed function fails the traced run instead of reading as zero.
    """
    from repro.cluster import pareto
    from repro.extensions import dynamic
    from repro.model import batched
    from repro.obs.monitors import ClaimMonitor
    from repro.obs.request import RequestContext, RequestRecorder
    from repro.queueing import mc, processes
    from repro.scheduler.autoscaler import Autoscaler
    from repro.scheduler.engine import ClusterScheduler
    from repro.scheduler.policies import DispatchPolicy

    bound: Dict[str, int] = {}
    functions = (
        (batched, "evaluate_space_arrays", "model.evaluate_space_arrays", _configs_of_space),
        (batched, "deadline_staircase", "model.deadline_staircase", None),
        (pareto, "pareto_indices", "cluster.pareto_indices", None),
        (dynamic, "simulate_adaptation", "dynamic.simulate_adaptation", None),
    )
    for module, attr, name, counter in functions:
        wrapper = recorder.wrap(
            getattr(module, attr), name, on_call=counter(recorder) if counter else None
        )
        bound[name] = rebind_function(module.__name__, attr, wrapper)

    def method(cls, attr, name, **kw):
        bound[name] = bound.get(name, 0) + rebind_method(
            cls, attr, lambda fn: recorder.wrap(fn, name, **kw)
        )

    method(ClusterScheduler, "run", "scheduler.run", on_call=_jobs_of_schedule(recorder))
    method(DispatchPolicy, "select", "scheduler.select")
    method(Autoscaler, "decide", "scheduler.autoscaler.decide")
    method(mc.MonteCarloQueue, "run", "queueing.mc.run", on_call=_jobs_of_mc(recorder))
    for base, attr in (
        (processes.ArrivalSpec, "sample_arrivals"),
        (processes.ServiceSpec, "__call__"),
        (processes.IntervalArrivals, "sample_interval"),
    ):
        method(base, attr, "queueing.processes.sample")
    bound["monitors"] = rebind_method(
        ClaimMonitor,
        "evaluate",
        lambda fn: recorder.wrap(fn, name_of=lambda args: f"monitors.{args[0].name}"),
    )

    # The service's own request accounting, observed from outside: each
    # finished request becomes a ``serve.request`` span, and the batch
    # queue/compute stages it records feed two counters.
    finish = RequestRecorder.finish_request

    @functools.wraps(finish)
    def finish_request(self, ctx, status, wall_s):
        start = ctx.origin_s + ctx.t0_s
        recorder.add("serve.request", start, start + wall_s)
        return finish(self, ctx, status, wall_s)

    RequestRecorder.finish_request = finish_request
    add_stage = RequestContext.add_stage

    @functools.wraps(add_stage)
    def add_stage_observed(self, name, *, start_s, wall_s, **attrs):
        before = len(self.stages)
        add_stage(self, name, start_s=start_s, wall_s=wall_s, **attrs)
        if name in ("batch.queue", "batch.compute") and len(self.stages) > before:
            recorder.count(f"serve.{name}.n")
            recorder.count(f"serve.{name}_s", wall_s)

    RequestContext.add_stage = add_stage_observed
    _observe_serve(recorder)
    missing = sorted(name for name, count in bound.items() if count == 0)
    if missing:
        raise RuntimeError(f"nothing to trace for {missing}")


# -- arithmetic ------------------------------------------------------------
def covered_s(intervals: Iterable[Tuple[float, float]]) -> float:
    """Length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def _clip(span: Sequence, lo: float, hi: float) -> Optional[Tuple[float, float]]:
    start, end = max(span[1], lo), min(span[2], hi)
    return (start, end) if end > start else None


def self_time(spans: Sequence[Sequence], window: Tuple[float, float] = (float("-inf"), float("inf"))) -> List[float]:
    """Each span's duration minus the part its children cover.

    Only the part inside ``window`` counts, for the span and its
    children alike.
    """
    lo, hi = window
    children: Dict[int, List[Tuple[float, float]]] = {}
    for span in spans:
        if span[3] >= 0:
            clipped = _clip(span, lo, hi)
            if clipped is not None:
                children.setdefault(span[3], []).append(clipped)
    out = []
    for index, span in enumerate(spans):
        clipped = _clip(span, lo, hi)
        if clipped is None:
            out.append(0.0)
            continue
        kids = [
            (max(a, clipped[0]), min(b, clipped[1]))
            for a, b in children.get(index, ())
            if min(b, clipped[1]) > max(a, clipped[0])
        ]
        out.append((clipped[1] - clipped[0]) - covered_s(kids))
    return out


def layer_totals(
    spans: Sequence[Sequence], window: Tuple[float, float] = (float("-inf"), float("inf"))
) -> Dict[str, Dict[str, float]]:
    """``{name: {"calls", "wall_s", "self_s"}}`` over spans that start in ``window``."""
    selfs = self_time(spans, window)
    lo, hi = window
    out: Dict[str, Dict[str, float]] = {}
    for span, own in zip(spans, selfs):
        if not lo <= span[1] < hi:
            continue
        row = out.setdefault(span[0], {"calls": 0.0, "wall_s": 0.0, "self_s": 0.0})
        row["calls"] += 1
        row["wall_s"] += span[2] - span[1]
        row["self_s"] += own
    return out


def event_totals(
    events: Sequence[Sequence], window: Tuple[float, float] = (float("-inf"), float("inf"))
) -> Dict[str, float]:
    """Counter totals over events inside ``window``."""
    out: Dict[str, float] = {}
    for name, at, value in events:
        if window[0] <= at < window[1]:
            out[name] = out.get(name, 0.0) + value
    return out


def unexplained_s(spans: Sequence[Sequence], window: Tuple[float, float]) -> float:
    """Window length not covered by any top-level span."""
    tops = [_clip(s, *window) for s in spans if s[3] < 0]
    return (window[1] - window[0]) - covered_s(t for t in tops if t is not None)


def layer_metrics(doc: Dict, window: Tuple[float, float]) -> Dict[str, float]:
    """The span-derived per-layer metrics of calls that start in ``window``.

    ``import.repro_s`` is the one exception: the import precedes any
    window.
    """
    totals = layer_totals(doc["spans"], window)
    events = event_totals(doc["events"], window)
    imports = layer_totals(doc["spans"]).get("import.repro", {})

    def row(name: str, field: str) -> float:
        return float(totals.get(name, {}).get(field, 0.0))

    def per_query(stage: str) -> float:
        n = events.get(f"serve.batch.{stage}.n", 0.0)
        return events.get(f"serve.batch.{stage}_s", 0.0) / n if n else 0.0

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    hits = events.get("serve.cache.hits", 0.0)
    misses = events.get("serve.cache.misses", 0.0)
    batches = events.get("serve.batch.batches", 0.0)

    return {
        "import.repro_s": float(imports.get("wall_s", 0.0)),
        "scheduler.select.calls": row("scheduler.select", "calls"),
        "scheduler.select.self_s": row("scheduler.select", "self_s"),
        "scheduler.run.self_s": row("scheduler.run", "self_s"),
        "scheduler.autoscaler.decide.self_s": row("scheduler.autoscaler.decide", "self_s"),
        "scheduler.jobs": events.get("scheduler.jobs", 0.0),
        "dynamic.simulate_adaptation.self_s": row("dynamic.simulate_adaptation", "self_s"),
        "queueing.mc.run.calls": row("queueing.mc.run", "calls"),
        "queueing.mc.run.self_s": row("queueing.mc.run", "self_s"),
        "queueing.mc.jobs": events.get("queueing.mc.jobs", 0.0),
        "queueing.processes.sample.self_s": row("queueing.processes.sample", "self_s"),
        "model.evaluate_space_arrays.calls": row("model.evaluate_space_arrays", "calls"),
        "model.evaluate_space_arrays.self_s": row("model.evaluate_space_arrays", "self_s"),
        "model.evaluate_space_arrays.configs": events.get("model.evaluate_space_arrays.configs", 0.0),
        "model.deadline_staircase.calls": row("model.deadline_staircase", "calls"),
        "model.deadline_staircase.self_s": row("model.deadline_staircase", "self_s"),
        "cluster.pareto_indices.calls": row("cluster.pareto_indices", "calls"),
        "cluster.pareto_indices.self_s": row("cluster.pareto_indices", "self_s"),
        "serve.cache.hits": hits,
        "serve.cache.misses": misses,
        "serve.cache.evictions": events.get("serve.cache.evictions", 0.0),
        "serve.cache.hit_frac": ratio(hits, hits + misses),
        "serve.batch.batches": batches,
        "serve.batch.mean_size": ratio(events.get("serve.batch.queries", 0.0), batches),
        "serve.admission.shed": events.get("serve.admission.shed", 0.0),
        "serve.batch.queue_wait_s": per_query("queue"),
        "serve.batch.compute_s": per_query("compute"),
        "bench.unexplained_s": unexplained_s(doc["spans"], window),
    }
