"""Span recorder for the traced run, installed from outside the program.

Spans are recorded around calls *into* each layer's public functions by
wrapping those functions for the duration of the traced run; ``src/`` knows
nothing about it.  Each span has a name, start, end, parent and the id of
the request it belongs to.  Spans stay in memory and are written out at the
end of the run.

Kernels called thousands of times per request (the distance kernels, top-k
selection, cache probes, shard snapshots and merges) are *leaf* calls: they
are counted and timed per name, and their time is added to the enclosing
span's covered time, but no span object is kept for each call.

Context crosses threads in two places, both by wrapping the callable handed
over: ``ServingFrontend.execute`` (the admission worker runs it) and
``QueryScheduler.run`` (its pool threads run it).  Across HTTP it rides in a
request header that the route handler's wrapper reads.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterable, Sequence

import driver

#: Header carrying ``<request id>.<parent span id>`` from client to server.
TRACE_HEADER = "X-Perfbench-Trace"


@dataclass(slots=True)
class Span:
    span_id: int
    name: str
    parent: int | None
    request_id: int | None
    start: float
    end: float = 0.0
    #: Time of leaf calls made directly inside this span.
    leaf_seconds: float = 0.0
    #: Distance-kernel calls made directly inside this span.
    kernel_calls: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class _Frame:
    """A pseudo-frame standing for a parent that runs on another thread."""

    __slots__ = ("span_id", "request_id", "leaf_seconds", "kernel_calls")

    def __init__(self, span_id: int | None, request_id: int | None) -> None:
        self.span_id = span_id
        self.request_id = request_id
        self.leaf_seconds = 0.0
        self.kernel_calls = 0


class Recorder:
    """In-memory span and counter store shared by every thread."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        #: name -> [calls, seconds] for leaf calls.
        self.leaf_totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        self.counters: dict[str, float] = defaultdict(float)

    # -- context ------------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> tuple[int | None, int | None]:
        """``(request_id, span_id)`` of the innermost open span on this thread."""
        stack = self._stack()
        if not stack:
            return None, None
        top = stack[-1]
        return top.request_id, top.span_id

    def adopt(self, request_id: int | None, parent: int | None) -> _Frame:
        """Make a parent from another thread the context of this thread."""
        frame = _Frame(parent, request_id)
        self._stack().append(frame)
        return frame

    def release(self, frame: _Frame) -> None:
        self._stack().remove(frame)

    # -- recording ----------------------------------------------------------------

    def open(self, name: str, request_id: int | None = None) -> Span:
        stack = self._stack()
        parent_request, parent = (None, None)
        if stack:
            parent_request, parent = stack[-1].request_id, stack[-1].span_id
        span = Span(
            span_id=next(self._ids),
            name=name,
            parent=parent,
            request_id=request_id if request_id is not None else parent_request,
            start=time.perf_counter(),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()  # wrappers close in the reverse order they open
        self.spans.append(span)

    def leaf(self, name: str, seconds: float, *, kernel: bool = False) -> None:
        stack = self._stack()
        if stack:
            stack[-1].leaf_seconds += seconds
            stack[-1].kernel_calls += kernel
        with self._lock:
            totals = self.leaf_totals[name]
            totals[0] += 1
            totals[1] += seconds

    def count(self, name: str, amount: float = 1.0) -> None:
        with self._lock:
            self.counters[name] += amount

    # -- output -------------------------------------------------------------------

    def dump(self, path: str) -> None:
        """Write every span, leaf total and counter as JSON."""
        payload = {
            "spans": [
                [s.span_id, s.name, s.parent, s.request_id, s.start, s.end, s.leaf_seconds,
                 s.kernel_calls]
                for s in self.spans
            ],
            "span_fields": [
                "id", "name", "parent", "request_id", "start", "end", "leaf_s", "kernel_calls",
            ],
            "leaf_totals": {name: list(v) for name, v in self.leaf_totals.items()},
            "counters": dict(self.counters),
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


# -- self time ----------------------------------------------------------------------


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by a set of intervals (overlaps counted once)."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Span id -> duration minus the part its children and leaf calls cover.

    Children may run on other threads and overlap each other; only the part
    of their union inside the parent's interval is subtracted.
    """
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    result = {}
    for span in spans:
        covered = union_length(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.span_id, ())
        )
        result[span.span_id] = max(0.0, span.duration - covered - span.leaf_seconds)
    return result


# -- wrapping -----------------------------------------------------------------------


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``module:qualname`` plus how to record it."""

    layer: str
    name: str
    where: str
    leaf: bool = False


class Tracer:
    """Installs wrappers for the traced run and removes them afterwards."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._patches: list[tuple[Any, str, Any]] = []

    def __enter__(self) -> "Tracer":
        for target in TARGETS:
            self._install(target)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner: Any, attr: str, replacement: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _install(self, target: Target) -> None:
        module_name, qualname = target.where.split(":")
        module = importlib.import_module(module_name)
        owner_path, _, attr = qualname.rpartition(".")
        owner = module
        for part in filter(None, owner_path.split(".")):
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapper = self._wrapper_for(target, original)
        if owner is module:
            # A function imported by name elsewhere is a separate binding in
            # the importing module; rebind it there too.
            for other in list(sys.modules.values()):
                if getattr(other, "__name__", "").startswith("repro") and other is not module:
                    if other.__dict__.get(attr) is original:
                        self._patch(other, attr, wrapper)
        self._patch(owner, attr, wrapper)

    def _wrapper_for(self, target: Target, original: Callable) -> Callable:
        recorder = self.recorder
        special = _SPECIAL.get(target.name)
        if special is not None:
            return special(recorder, target, original)
        if target.leaf:
            kernel = target.name in KERNELS

            @functools.wraps(original)
            def leaf(*args: Any, **kwargs: Any) -> Any:
                started = time.perf_counter()
                try:
                    return original(*args, **kwargs)
                finally:
                    recorder.leaf(target.name, time.perf_counter() - started, kernel=kernel)

            return leaf

        return spanned(recorder, target.name, original)


def spanned(recorder: Recorder, name: str, fn: Callable) -> Callable:
    """Wrap ``fn`` so each call is a span named ``name``."""

    @functools.wraps(fn)
    def call(*args: Any, **kwargs: Any) -> Any:
        span = recorder.open(name)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.close(span)

    return call


def carry(recorder: Recorder, fn: Callable) -> Callable:
    """Wrap ``fn`` so it runs under the calling thread's current span."""
    request_id, parent = recorder.current()

    @functools.wraps(fn)
    def carried(*args: Any, **kwargs: Any) -> Any:
        frame = recorder.adopt(request_id, parent)
        try:
            return fn(*args, **kwargs)
        finally:
            recorder.release(frame)

    return carried


def _execute(recorder: Recorder, target: Target, original: Callable) -> Callable:
    """``ServingFrontend.execute``: span it and the handed-over callable."""

    @functools.wraps(original)
    def execute(self, fn, *args: Any, **kwargs: Any) -> Any:
        span = recorder.open(target.name)
        backend_call = spanned(recorder, "serving.backend_call", fn)
        try:
            return original(self, carry(recorder, backend_call), *args, **kwargs)
        finally:
            recorder.close(span)

    return execute


def _scheduler_run(recorder: Recorder, target: Target, original: Callable) -> Callable:
    """``QueryScheduler.run``: its pool threads inherit the caller's span."""

    @functools.wraps(original)
    def run(self, search_fn, *args: Any, **kwargs: Any) -> Any:
        span = recorder.open(target.name)
        try:
            return original(self, carry(recorder, search_fn), *args, **kwargs)
        finally:
            recorder.close(span)

    return run


def _handler(recorder: Recorder, target: Target, original: Callable) -> Callable:
    """The HTTP route handler: adopt the client's request id and span."""

    @functools.wraps(original)
    def handle(self, *args: Any, **kwargs: Any) -> Any:
        request_id = parent = None
        header = self.headers.get(TRACE_HEADER) if self.headers is not None else None
        if header:
            rid, _, pid = header.partition(".")
            request_id, parent = int(rid), int(pid)
        frame = recorder.adopt(request_id, parent)
        span = recorder.open(target.name)
        try:
            return original(self, *args, **kwargs)
        finally:
            recorder.close(span)
            recorder.release(frame)

    return handle


def _cache_probe(recorder: Recorder, target: Target, original: Callable) -> Callable:
    """``TieredQueryCache.get_result``: a leaf call that also counts hits."""

    @functools.wraps(original)
    def get_result(*args: Any, **kwargs: Any) -> Any:
        started = time.perf_counter()
        hit = None
        try:
            hit = original(*args, **kwargs)
            return hit
        finally:
            recorder.leaf(target.name, time.perf_counter() - started)
            if hit is not None:
                recorder.count("cache.hits")

    return get_result


def _wal_append(recorder: Recorder, target: Target, original: Callable) -> Callable:
    """``WriteAheadLog.append``: a leaf call that also counts its fsyncs."""

    @functools.wraps(original)
    def append(self, *args: Any, **kwargs: Any) -> Any:
        before = self.synced_records
        started = time.perf_counter()
        try:
            return original(self, *args, **kwargs)
        finally:
            recorder.leaf(target.name, time.perf_counter() - started)
            if self.synced_records != before:
                recorder.count("durability.syncs")

    return append


def _maintenance(recorder: Recorder, target: Target, original: Callable) -> Callable:
    """``Collection.run_maintenance``: span it and sum the rows it rewrote."""

    @functools.wraps(original)
    def run_maintenance(*args: Any, **kwargs: Any) -> Any:
        span = recorder.open(target.name)
        try:
            report = original(*args, **kwargs)
        finally:
            recorder.close(span)
        recorder.count("maintenance.rows_rewritten", report.rows_rewritten)
        return report

    return run_maintenance


_SPECIAL: dict[str, Callable[[Recorder, Target, Callable], Callable]] = {
    "serving.execute": _execute,
    "serving.handler": _handler,
    "sharding.scheduler_run": _scheduler_run,
    "cache.get_result": _cache_probe,
    "durability.wal_append": _wal_append,
    "maintenance.run": _maintenance,
}

#: Every wrapped call, by layer (the module it lives in).
TARGETS: tuple[Target, ...] = (
    Target("serving.server", "serving.handler", "repro.serving.server:_Handler.do_POST"),
    Target("serving.admission", "serving.execute", "repro.serving.server:ServingFrontend.execute"),
    Target("vdms.collection", "vdms.server_search", "repro.vdms.server:VectorDBServer.search"),
    Target("vdms.collection", "vdms.search", "repro.vdms.collection:Collection.search"),
    Target("vdms.collection", "vdms.insert", "repro.vdms.collection:Collection.insert"),
    Target("vdms.collection", "vdms.flush", "repro.vdms.collection:Collection.flush"),
    Target("vdms.cache", "cache.get_result", "repro.vdms.cache:TieredQueryCache.get_result", leaf=True),
    Target("vdms.sharding", "sharding.snapshot", "repro.vdms.sharding:Shard.snapshot", leaf=True),
    Target("vdms.sharding", "sharding.merge", "repro.vdms.sharding:merge_topk", leaf=True),
    Target("vdms.sharding", "sharding.scheduler_run", "repro.vdms.sharding:QueryScheduler.run"),
    Target("vdms.index", "index.search", "repro.vdms.index.base:VectorIndex.search"),
    Target("vdms.index", "index.build", "repro.vdms.collection:Collection.create_index"),
    Target("vdms.distance", "distance.pairwise", "repro.vdms.distance:pairwise_distances", leaf=True),
    Target("vdms.distance", "distance.blocked", "repro.vdms.distance:pairwise_distances_blocked", leaf=True),
    Target("vdms.distance", "distance.topk", "repro.vdms.distance:top_k_select", leaf=True),
    Target("vdms.durability", "durability.wal_append", "repro.vdms.durability.wal:WriteAheadLog.append", leaf=True),
    Target("vdms.durability", "durability.wal_sync", "repro.vdms.durability.wal:WriteAheadLog.sync", leaf=True),
    Target("vdms.durability", "durability.checkpoint", "repro.vdms.durability.manager:DurabilityManager.checkpoint"),
    Target("vdms.maintenance", "maintenance.run", "repro.vdms.collection:Collection.run_maintenance"),
    Target("workloads.replay", "replay.replay", "repro.workloads.replay:WorkloadReplayer.replay"),
    Target("core", "core.suggest", "repro.core.tuner:VDTuner.suggest_batch"),
    Target("core", "core.surrogate_fit", "repro.core.surrogate:PollingSurrogate.fit"),
    Target("core", "core.recommend", "repro.core.acquisition:ConfigurationRecommender.recommend"),
    Target("bo", "bo.gp_fit", "repro.bo.gp:GaussianProcessRegressor.fit"),
    Target("bo", "bo.ehvi", "repro.bo.ehvi:monte_carlo_ehvi"),
)

#: The distance kernels proper (top-k selection is timed apart).
KERNELS = frozenset({"distance.pairwise", "distance.blocked"})

#: Layers in the order the per-layer table prints them.
LAYERS: tuple[str, ...] = tuple(dict.fromkeys(target.layer for target in TARGETS))

#: Spans that are not one of the wrapped targets, by layer.
EXTRA_LAYERS = {
    "client.request": "transport",
    "serving.backend_call": "serving.server",
}


LAYER_OF = {target.name: target.layer for target in TARGETS} | EXTRA_LAYERS

#: Per-layer metrics that count events; the rest are ``*_ms`` or ratios.
COUNTS = frozenset({
    "serving.shed", "durability.wal_appends", "durability.syncs",
    "maintenance.passes", "maintenance.rows_rewritten",
})


def unit_of(name: str) -> str:
    if name in COUNTS:
        return "count"
    return "ms" if name.endswith(("_ms", ".ms")) else "ratio"


def top_level_seconds(recorder: Recorder) -> dict[str, float]:
    """Wall seconds of spans without a parent, by layer: where a
    single-threaded caller's time went."""
    seconds: dict[str, float] = defaultdict(float)
    for span in recorder.spans:
        if span.parent is None:
            seconds[LAYER_OF[span.name]] += span.duration
    return dict(seconds)


def _mean_ms(values: Sequence[float]) -> float:
    return 1000.0 * sum(values) / len(values) if values else 0.0


def summarize(
    recorder: Recorder,
    ops: Sequence[Any],
    measured_wall: float,
    operations: int,
    overhead: float,
    extra: dict[str, float],
) -> tuple[dict[str, float], dict[str, float]]:
    """Every per-layer metric of a traced run, and the self time of each layer.

    ``ops`` are the client requests of a serving run (empty for ``tune``).
    ``*_ms`` metrics are mean milliseconds per call of the wrapped function;
    ``self.<layer>_ms`` are milliseconds of self time per operation (one
    HTTP request, or one tuner iteration).  ``overhead`` is the traced run's
    headline metric over the untraced run's; ``extra`` holds metrics the
    workload measured itself.
    """
    spans = recorder.spans
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
    leaf = recorder.leaf_totals
    counters = recorder.counters

    def mean_span_ms(name: str) -> float:
        return _mean_ms([span.duration for span in by_name.get(name, ())])

    def mean_leaf_ms(*names: str) -> float:
        calls = sum(leaf[name][0] for name in names if name in leaf)
        seconds = sum(leaf[name][1] for name in names if name in leaf)
        return 1000.0 * seconds / calls if calls else 0.0

    per_request: dict[int, dict[str, Span]] = defaultdict(dict)
    for name in ("client.request", "serving.execute", "serving.backend_call"):
        for span in by_name.get(name, ()):
            if span.request_id is not None:
                per_request[span.request_id][name] = span
    http, admission = [], []
    for found in per_request.values():
        if "client.request" in found and "serving.execute" in found:
            http.append(found["client.request"].duration - found["serving.execute"].duration)
        if "serving.execute" in found and "serving.backend_call" in found:
            admission.append(
                found["serving.execute"].duration - found["serving.backend_call"].duration
            )

    searches = len(by_name.get("vdms.search", ()))
    kernel_calls_in_search = sum(
        span.kernel_calls
        for name in ("vdms.search", "index.search")
        for span in by_name.get(name, ())
    )
    probes = leaf["cache.get_result"][0] if "cache.get_result" in leaf else 0
    metrics = {
        "serving.http_ms": _mean_ms(http),
        "serving.admission_wait_ms": _mean_ms(admission),
        "serving.shed": float(sum(1 for op in ops if op.status == 429)),
        "vdms.search_ms": mean_span_ms("vdms.server_search"),
        "vdms.index_calls_per_search": (
            len(by_name.get("index.search", ())) / searches if searches else 0.0
        ),
        "vdms.insert_ms": mean_span_ms("vdms.insert"),
        "vdms.flush_ms": mean_span_ms("vdms.flush"),
        "cache.hit_ratio": counters.get("cache.hits", 0.0) / probes if probes else 0.0,
        "sharding.snapshot_ms": mean_leaf_ms("sharding.snapshot"),
        "sharding.merge_ms": mean_leaf_ms("sharding.merge"),
        "index.search_ms": mean_span_ms("index.search"),
        "index.build_ms": mean_span_ms("index.build"),
        "distance.calls_per_search": kernel_calls_in_search / searches if searches else 0.0,
        "distance.ms": mean_leaf_ms(*sorted(KERNELS)),
        "distance.topk_ms": mean_leaf_ms("distance.topk"),
        "durability.wal_appends": float(
            leaf["durability.wal_append"][0] if "durability.wal_append" in leaf else 0
        ),
        "durability.wal_append_ms": mean_leaf_ms("durability.wal_append"),
        "durability.syncs": counters.get("durability.syncs", 0.0)
        + (leaf["durability.wal_sync"][0] if "durability.wal_sync" in leaf else 0),
        "durability.checkpoint_ms": mean_span_ms("durability.checkpoint"),
        "maintenance.passes": float(len(by_name.get("maintenance.run", ()))),
        "maintenance.ms": mean_span_ms("maintenance.run"),
        "maintenance.rows_rewritten": counters.get("maintenance.rows_rewritten", 0.0),
        "replay.ms": mean_span_ms("replay.replay"),
        "core.suggest_ms": mean_span_ms("core.suggest"),
        "core.surrogate_fit_ms": mean_span_ms("core.surrogate_fit"),
        "core.recommend_ms": mean_span_ms("core.recommend"),
        "bo.gp_fit_ms": mean_span_ms("bo.gp_fit"),
        "bo.ehvi_ms": mean_span_ms("bo.ehvi"),
    }

    own = self_times(spans)
    layer_seconds: dict[str, float] = defaultdict(float)
    for span in spans:
        layer_seconds[LAYER_OF[span.name]] += own[span.span_id]
    for name, (_, seconds) in leaf.items():
        layer_seconds[LAYER_OF[name]] += seconds
    per_op = max(1, operations)
    self_ms = {
        layer: 1000.0 * layer_seconds.get(layer, 0.0) / per_op
        for layer in ("transport", *LAYERS)
    }

    if ops:
        program = defaultdict(list)
        for span in spans:
            if span.request_id is not None and span.name != "client.request":
                program[span.request_id].append((span.start, span.end))
        observed = sum(op.done - op.due for op in ops)
        covered = sum(union_length(program.get(op.request_id, ())) for op in ops)
        metrics["trace.coverage"] = covered / observed if observed > 0 else 0.0
    else:
        covered = union_length((span.start, span.end) for span in spans)
        metrics["trace.coverage"] = covered / measured_wall if measured_wall > 0 else 0.0
    metrics["durability.bytes_per_user_byte"] = extra.get("durability.bytes_per_user_byte", 0.0)
    lateness = [op.lateness_ms for op in ops]
    metrics["driver.late_p90_ms"] = driver.percentile(lateness, 90) if lateness else 0.0
    metrics["trace.overhead"] = overhead
    for layer, value in self_ms.items():
        metrics[f"self.{layer}_ms"] = value
    return metrics, self_ms
