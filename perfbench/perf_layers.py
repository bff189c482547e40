"""Per-layer spans recorded from outside the program.

The benchmark times each layer by wrapping the layer's public functions and
methods at run time: nothing in ``src/`` changes.  Spans are kept in memory
(``SpanRecorder.spans``) and written out once, when the run ends.  A layer's
self time is the duration of its spans minus the part covered by their child
spans, so the layers of one traced run add up to its wall time.

Wrapping costs a Python call per wrapped call; the traced run measures that
cost itself (``bench.span_overhead_frac``).  To keep it small, a package-wide
wrapper whose caller is already inside the same layer calls straight through,
and a wrapper nested in a span of the same name (an override calling
``super()``) does too.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import json
import pkgutil
import sys
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterator

# Packages timed as a whole: every public function and method defined in
# them becomes a span of the layer named here.
PACKAGE_LAYERS = {
    "repro.atomistic": "atomistic",
    "repro.tcad": "tcad",
    "repro.core": "models",
    "repro.process": "models",
    "repro.thermal": "models",
    "repro.characterization": "models",
}

# Named calls: (module, qualified attribute, span name, layer).  These are
# the boundaries the per-layer metrics are computed from.
NAMED_CALLS = [
    ("repro.circuit.transient", "transient_analysis", "circuit.transient", "circuit"),
    ("repro.circuit.batched", "batched_transient_analysis", "circuit.transient", "circuit"),
    ("repro.circuit.dc", "dc_operating_point", "circuit.dc", "circuit"),
    ("repro.circuit.delay", "measure_inverter_line_delay", "circuit.delay", "circuit"),
    ("repro.circuit.delay", "measure_inverter_line_delay_batch", "circuit.delay", "circuit"),
    ("repro.circuit.crosstalk", "analyze_crosstalk", "circuit.delay", "circuit"),
    ("repro.api.experiment", "Experiment.run_with_inputs", "analysis.experiment", "analysis"),
    ("repro.api.experiment", "Experiment.run_batch", "analysis.experiment", "analysis"),
    ("repro.api.engine", "Engine.run", "api.run", "api"),
    ("repro.api.engine", "Engine.sweep", "api.sweep", "api"),
    ("repro.api.engine", "cache_key", "api.cache_key", "api"),
    ("repro.api.results", "ResultSet.content_hash", "api.content_hash", "api"),
    ("repro.dist.store", "ResultStore.load", "dist.load", "dist"),
    ("repro.dist.store", "ResultStore.publish", "dist.publish", "dist"),
    ("repro.dist.store", "SharedStore.publish", "dist.publish", "dist"),
    ("repro.dist.store", "ResultStore.claim_many", "dist.claim_many", "dist"),
    ("repro.dist.store", "SharedStore.claim_many", "dist.claim_many", "dist"),
    ("repro.dist.worker", "run_worker", "dist.worker", "dist"),
    ("repro.service.client", "ServiceClient.submit_sweep", "service.submit", "service"),
    ("repro.service.client", "ServiceClient.submit_campaign", "service.submit", "service"),
    ("repro.service.client", "ServiceClient.status", "service.status", "service"),
    ("repro.service.client", "ServiceClient.fetch_results", "service.fetch", "service"),
    ("repro.service.server", "ServiceHandler.do_GET", "service.http", "service"),
    ("repro.service.server", "ServiceHandler.do_POST", "service.http", "service"),
    ("repro.service.queue", "SpecQueue.claim_next", "service.claim", "service"),
    ("repro.service.queue", "SpecQueue.submit", "service.queue", "service"),
    ("repro.service.queue", "SpecQueue.complete", "service.queue", "service"),
    ("repro.service.queue", "SpecQueue.store_result", "service.queue", "service"),
    ("repro.service.daemon", "serve_queue", "service.daemon", "service"),
    ("repro.service.daemon", "execute_job", "service.execute", "service"),
    ("repro.campaign.runner", "Campaign.run", "campaign.run", "campaign"),
    ("repro.campaign.strategies", "Strategy.propose", "campaign.propose", "campaign"),
    ("repro.obs.metrics", "counter", "obs.metric", "obs"),
    ("repro.obs.metrics", "histogram", "obs.metric", "obs"),
    ("repro.obs.metrics", "gauge", "obs.metric", "obs"),
]


# The paper experiments whose per-pass time is reported on its own.
PAPER_EXPERIMENTS = ("fig12", "fig8c", "fig10_m1_m2", "fig8a", "crosstalk", "variability_delay")


def _experiment_attr(args: tuple, kwargs: dict, result: Any) -> Any:
    name = args[1] if len(args) > 1 else kwargs.get("name")
    return getattr(name, "name", name)


def _hit_attr(args: tuple, kwargs: dict, result: Any) -> Any:
    return result is not None


ATTRS: dict[str, Callable[[tuple, dict, Any], Any]] = {
    "api.run": _experiment_attr,
    "dist.load": _hit_attr,
}


class SpanRecorder:
    """In-memory spans: ``(id, parent, name, layer, start, end, attr)``.

    Each thread keeps its own stack of open spans.  A span opened on another
    thread with nothing open there (an HTTP handler thread serving the
    benchmark's client) takes the main thread's innermost open span as its
    parent: that caller is blocked on it, so its time is nested in the
    caller's span.
    """

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack: list[tuple] = []
        self._main = threading.main_thread()

    def _stack(self) -> list[tuple]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is self._main else []
            self._local.stack = stack
        return stack

    def wrap(
        self,
        fn: Callable,
        name: str,
        layer: str,
        generic: bool = False,
        attr: Callable[[tuple, dict, Any], Any] | None = None,
    ) -> Callable:
        """A wrapper of ``fn`` recording one span per call."""
        perf = time.perf_counter
        spans = self.spans
        ids = self._ids
        stack_of = self._stack
        main_stack = self._main_stack

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            if stack:
                top = stack[-1]
                if top[2] == name or (generic and top[1] == layer):
                    return fn(*args, **kwargs)
                parent = top[0]
            else:
                parent = main_stack[-1][0] if main_stack else None
            sid = next(ids)
            stack.append((sid, layer, name))
            result = None
            start = perf()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = perf()
                stack.pop()
                spans.append(
                    (sid, parent, name, layer, start, end,
                     attr(args, kwargs, result) if attr is not None else None)
                )

        return wrapper

    @contextlib.contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        """One span around a block (the benchmark's own ops)."""
        stack = self._stack()
        parent = stack[-1][0] if stack else None
        sid = next(self._ids)
        stack.append((sid, layer, name))
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, layer, start, end, None))

    def write_jsonl(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        keys = ("id", "parent", "name", "layer", "start", "end", "attr")
        with open(path, "w") as handle:
            for span in self.spans:
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")


class Instrumentation:
    """Installs the wrappers of one recorder and takes them out again."""

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._patches: list[tuple[Any, str, Any]] = []

    def _set(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, wrappers: dict[int, tuple[Callable, Callable]]) -> None:
        # Rebind every module-level name of each function (its home module
        # and every ``from x import f``), so calls through any of them are
        # seen.
        for module in list(sys.modules.values()):
            if not getattr(module, "__name__", "").startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                pair = wrappers.get(id(value))
                if pair is not None and pair[0] is value:
                    self._set(module, attr, pair[1])

    def _wrap_member(self, owner: type, attr: str, name: str, layer: str, generic: bool) -> None:
        raw = owner.__dict__[attr]
        wrap = functools.partial(
            self.recorder.wrap, name=name, layer=layer, generic=generic, attr=ATTRS.get(name)
        )
        if isinstance(raw, property):
            self._set(owner, attr, property(wrap(raw.fget), raw.fset, raw.fdel, raw.__doc__))
        elif isinstance(raw, staticmethod):
            self._set(owner, attr, staticmethod(wrap(raw.__func__)))
        elif isinstance(raw, classmethod):
            self._set(owner, attr, classmethod(wrap(raw.__func__)))
        elif inspect.isfunction(raw):
            self._set(owner, attr, wrap(raw))

    def install(self) -> None:
        wrappers: dict[int, tuple[Callable, Callable]] = {}
        for module_name, qualname, name, layer in NAMED_CALLS:
            module = importlib.import_module(module_name)
            if "." in qualname:
                cls_name, attr = qualname.split(".")
                self._wrap_member(getattr(module, cls_name), attr, name, layer, False)
            else:
                original = getattr(module, qualname)
                wrapper = self.recorder.wrap(original, name, layer, attr=ATTRS.get(name))
                wrappers[id(original)] = (original, wrapper)
        for package_name, layer in PACKAGE_LAYERS.items():
            for module in _package_modules(package_name):
                self._wrap_module(module, layer, wrappers)
        self._rebind(wrappers)

    def _wrap_module(
        self, module: Any, layer: str, wrappers: dict[int, tuple[Callable, Callable]]
    ) -> None:
        name = f"{layer}.call"
        for attr, value in list(vars(module).items()):
            if attr.startswith("_") or getattr(value, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(value):
                wrapper = self.recorder.wrap(value, name, layer, generic=True)
                wrappers.setdefault(id(value), (value, wrapper))
            elif inspect.isclass(value):
                for member, raw in list(vars(value).items()):
                    if not member.startswith("_") and not isinstance(raw, property):
                        self._wrap_member(value, member, name, layer, True)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Instrumentation":
        self.install()
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.uninstall()


def _package_modules(package_name: str) -> list[Any]:
    package = importlib.import_module(package_name)
    modules = [package]
    for info in pkgutil.iter_modules(package.__path__, package_name + "."):
        modules.append(importlib.import_module(info.name))
    return modules


def layer_metrics(spans: list[tuple]) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced run: name -> (value, unit).

    Means over calls are 0 when the workload makes no such call.
    """
    children: dict[int, list[tuple]] = defaultdict(list)
    by_id: dict[int, tuple] = {}
    for span in spans:
        by_id[span[0]] = span
        if span[1] is not None:
            children[span[1]].append(span)

    def duration(span: tuple) -> float:
        return span[5] - span[4]

    def self_time(span: tuple) -> float:
        return duration(span) - sum(duration(child) for child in children[span[0]])

    count: dict[str, int] = defaultdict(int)
    inclusive: dict[str, float] = defaultdict(float)
    self_by_name: dict[str, float] = defaultdict(float)
    self_by_layer: dict[str, float] = defaultdict(float)
    for span in spans:
        count[span[2]] += 1
        inclusive[span[2]] += duration(span)
        own = self_time(span)
        self_by_name[span[2]] += own
        self_by_layer[span[3]] += own

    def mean(name: str, scale: float) -> float:
        return inclusive[name] / count[name] * scale if count[name] else 0.0

    def under_api(span: tuple) -> bool:
        parent = by_id.get(span[1])
        while parent is not None:
            if parent[3] == "api":
                return True
            parent = by_id.get(parent[1])
        return False

    loads = [span for span in spans if span[2] == "dist.load"]
    engine_lookups = sum(1 for span in loads if under_api(span))
    api_self = self_by_name["api.run"] + self_by_name["api.sweep"]
    runs = [span for span in spans if span[2] == "api.run"]
    run_overhead = sum(
        duration(span) - sum(duration(c) for c in children[span[0]] if c[3] == "analysis")
        for span in runs
    )
    by_experiment: dict[str, float] = defaultdict(float)
    for span in runs:
        by_experiment[span[6]] += duration(span)
    bench_total = sum(duration(span) for span in spans if span[3] == "bench")

    metrics = {
        "circuit.transient_s": (self_by_name["circuit.transient"], "s"),
        "circuit.transient_calls": (count["circuit.transient"], "count"),
        "circuit.dc_s": (inclusive["circuit.dc"], "s"),
        "circuit.delay_self_s": (self_by_name["circuit.delay"], "s"),
        "atomistic.s": (self_by_layer["atomistic"], "s"),
        "tcad.s": (self_by_layer["tcad"], "s"),
        "models.s": (self_by_layer["models"], "s"),
        "analysis.s": (self_by_layer["analysis"], "s"),
    }
    for experiment in PAPER_EXPERIMENTS:
        metrics[f"paper.{experiment}_s"] = (by_experiment[experiment], "s")
    metrics.update({
        "api.run_overhead_s": (float(run_overhead), "s"),
        "api.dispatch_us_per_point": (
            api_self / engine_lookups * 1e6 if engine_lookups else 0.0, "us"
        ),
        "api.cache_key_us": (mean("api.cache_key", 1e6), "us"),
        "api.result_hash_us": (mean("api.content_hash", 1e6), "us"),
        "api.cache_hit_ratio": (
            sum(1 for span in loads if span[6]) / len(loads) if loads else 0.0, "ratio"
        ),
        "dist.store_load_us": (mean("dist.load", 1e6), "us"),
        "dist.store_load_calls": (count["dist.load"], "count"),
        "dist.store_publish_us": (mean("dist.publish", 1e6), "us"),
        "dist.store_publish_calls": (count["dist.publish"], "count"),
        "dist.claim_calls": (count["dist.claim_many"], "count"),
        "service.submit_ms": (mean("service.submit", 1e3), "ms"),
        "service.status_ms": (mean("service.status", 1e3), "ms"),
        "service.fetch_ms": (mean("service.fetch", 1e3), "ms"),
        "service.claim_ms": (mean("service.claim", 1e3), "ms"),
        "service.execute_ms": (mean("service.execute", 1e3), "ms"),
        "campaign.propose_ms": (mean("campaign.propose", 1e3), "ms"),
        "campaign.propose_calls": (count["campaign.propose"], "count"),
        "obs.s": (self_by_layer["obs"], "s"),
        "layer.coverage_frac": (
            1.0 - self_by_layer["bench"] / bench_total if bench_total else 0.0, "ratio"
        ),
    })
    return metrics
