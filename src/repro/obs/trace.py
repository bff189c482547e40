"""Zero-dependency distributed tracing: spans, JSONL sinks, carriers.

A *span* is one timed operation (``engine.sweep``, ``engine.point``,
``circuit.transient``).  Spans nest through a :mod:`contextvars` context,
so ``trace_span`` inside ``trace_span`` records the parent/child edge
automatically, and every span of one logical request shares a
``trace_id`` even when the work hops processes or machines.

Records are appended as one JSON line per span to the configured *sink*
file.  Appends go through a single ``os.write`` on an ``O_APPEND``
descriptor, which POSIX keeps atomic for small writes, so any number of
worker processes can share one sink on a common filesystem -- the same
assumption the ``SharedStore`` lease protocol already makes.

Crossing a process/host boundary uses a *carrier*: a small JSON-safe
dict ``{"trace_id", "span_id", "sink"}`` captured with
:func:`current_carrier` on the sending side and adopted with
:func:`activate_carrier` on the receiving side.  The stores persist it in
lease metadata and the HTTP service moves it in the ``X-Repro-Trace``
header; forked children need none, since they inherit the context.

Tracing is off by default and near-zero-cost when off: ``trace_span``
yields a shared no-op span without touching its attrs, so callable
(lazy) attribute values are never evaluated.  Nothing recorded here can
perturb results -- spans live outside ``params``, cache keys and content
hashes by construction.
"""

from __future__ import annotations

import contextvars
import json
import os
import threading
import time
import uuid
from contextlib import contextmanager
from typing import Any, Iterator, Mapping

__all__ = [
    "TRACE_HEADER",
    "activate_carrier",
    "carrier_from_header",
    "carrier_to_header",
    "configure_tracing",
    "current_carrier",
    "trace_sink",
    "trace_span",
    "tracing",
    "tracing_enabled",
]

TRACE_HEADER = "X-Repro-Trace"

# Sink state is deliberately module-global (not a contextvar): enabling
# tracing applies to the whole process, exactly like logging config.
_SINK_PATH: str | None = None
_SINK_FD: int | None = None
_SINK_PID: int | None = None

# Blocks inside activate_carrier that use a carrier's sink adopted because
# none was configured.  Threads of one process share that sink, so it is
# cleared when the last of them exits, not when the adopting one does.
_ADOPT_LOCK = threading.Lock()
_ADOPTED = 0

# (trace_id, span_id) of the innermost open span; context-local so
# concurrent threads (HTTP handler threads, worker heartbeats) each see
# their own ancestry.
_CONTEXT: contextvars.ContextVar[tuple[str, str] | None] = contextvars.ContextVar(
    "repro_trace_context", default=None
)


def _new_id() -> str:
    return uuid.uuid4().hex[:16]


def configure_tracing(path: str | None) -> str | None:
    """Set (or, with ``None``, clear) the span sink; returns the previous one."""
    global _SINK_PATH, _SINK_FD, _SINK_PID
    previous = _SINK_PATH
    if _SINK_FD is not None:
        try:
            os.close(_SINK_FD)
        except OSError:
            pass
    _SINK_FD = None
    _SINK_PID = None
    _SINK_PATH = os.path.abspath(path) if path else None
    return previous


def tracing_enabled() -> bool:
    """Whether spans are currently being recorded in this process."""
    return _SINK_PATH is not None


def trace_sink() -> str | None:
    """The active sink path (None when tracing is off)."""
    return _SINK_PATH


@contextmanager
def tracing(path: str | None) -> Iterator[None]:
    """Scoped :func:`configure_tracing`: restores the previous sink on exit."""
    previous = configure_tracing(path)
    try:
        yield
    finally:
        configure_tracing(previous)


def _write_line(text: str) -> None:
    global _SINK_FD, _SINK_PID
    path = _SINK_PATH
    if path is None:
        return
    try:
        pid = os.getpid()
        if _SINK_FD is None or _SINK_PID != pid:
            # Re-open after fork: an inherited descriptor would share the
            # file offset in surprising ways on some platforms.
            directory = os.path.dirname(path)
            if directory:
                os.makedirs(directory, exist_ok=True)
            _SINK_FD = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
            _SINK_PID = pid
        os.write(_SINK_FD, text.encode("utf-8"))
    except OSError:
        # Tracing must never take down the work it observes.
        pass


class Span:
    """Mutable handle yielded by :func:`trace_span` while recording."""

    __slots__ = ("name", "trace_id", "span_id", "parent_id", "attrs")

    def __init__(
        self,
        name: str,
        trace_id: str,
        span_id: str,
        parent_id: str | None,
        attrs: dict[str, Any],
    ) -> None:
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.attrs = attrs

    def set(self, key: str, value: Any) -> None:
        """Attach (or update) one attribute on the open span."""
        self.attrs[key] = value


class _NoopSpan:
    """Shared do-nothing span handed out while tracing is disabled."""

    __slots__ = ()
    name = ""
    trace_id = None
    span_id = None
    parent_id = None
    attrs: dict[str, Any] = {}

    def set(self, key: str, value: Any) -> None:
        pass


_NOOP_SPAN = _NoopSpan()


def _rendered_attrs(attrs: dict[str, Any]) -> dict[str, Any]:
    # Callables are lazy attrs: evaluated only here, i.e. only when a
    # real span is being recorded.
    rendered: dict[str, Any] = {}
    for key, value in attrs.items():
        if callable(value):
            try:
                value = value()
            except Exception:
                value = "<error>"
        rendered[key] = value
    return rendered


@contextmanager
def trace_span(name: str, **attrs: Any) -> Iterator[Span | _NoopSpan]:
    """Record one span around the enclosed block (no-op when disabled).

    Attribute values may be zero-argument callables; they are evaluated
    lazily at record time, so expensive attrs cost nothing while tracing
    is off.  The yielded span supports ``span.set(key, value)`` for
    results only known mid-block.
    """
    if _SINK_PATH is None:
        yield _NOOP_SPAN
        return
    parent = _CONTEXT.get()
    if parent is None:
        trace_id, parent_id = _new_id(), None
    else:
        trace_id, parent_id = parent
    span = Span(name, trace_id, _new_id(), parent_id, dict(attrs))
    token = _CONTEXT.set((trace_id, span.span_id))
    t_start = time.time()
    wall_start = time.perf_counter()
    cpu_start = time.process_time()
    error: str | None = None
    try:
        yield span
    except BaseException as exc:
        error = f"{type(exc).__name__}: {exc}"
        raise
    finally:
        _CONTEXT.reset(token)
        record = {
            "name": span.name,
            "trace_id": span.trace_id,
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "t_start": t_start,
            "wall_s": time.perf_counter() - wall_start,
            "cpu_s": time.process_time() - cpu_start,
            "pid": os.getpid(),
            "attrs": _rendered_attrs(span.attrs),
        }
        if error is not None:
            record["error"] = error
        try:
            line = json.dumps(record, default=str, separators=(",", ":"))
        except (TypeError, ValueError):
            line = json.dumps(
                {key: record[key] for key in record if key != "attrs"},
                default=str,
                separators=(",", ":"),
            )
        _write_line(line + "\n")


def current_carrier() -> dict[str, str] | None:
    """Serializable trace context for a process/host hop (None when off).

    The carrier names the open span (future children's parent) and the
    sink path, so a cooperating process can append to the same trace.
    """
    if _SINK_PATH is None:
        return None
    context = _CONTEXT.get()
    if context is None:
        return None
    return {"trace_id": context[0], "span_id": context[1], "sink": _SINK_PATH}


@contextmanager
def activate_carrier(carrier: Mapping[str, Any] | None) -> Iterator[None]:
    """Adopt a remote carrier: spans in the block join its trace.

    If this process has no sink configured, the carrier's sink is used
    for the duration of the block and cleared afterwards -- that is how
    daemon processes end up writing into the submitting
    client's trace file.  Concurrent blocks on several threads share the
    adopted sink until the last of them exits.  ``None`` or malformed
    carriers are ignored, so call sites never need to guard.
    """
    global _ADOPTED
    if (
        not isinstance(carrier, Mapping)
        or not carrier.get("trace_id")
        or not carrier.get("span_id")
    ):
        yield
        return
    adopted = False
    if carrier.get("sink"):
        with _ADOPT_LOCK:
            if _SINK_PATH is None:
                configure_tracing(str(carrier["sink"]))
                adopted = True
            elif _ADOPTED:
                adopted = True
            if adopted:
                _ADOPTED += 1
    token = _CONTEXT.set((str(carrier["trace_id"]), str(carrier["span_id"])))
    try:
        yield
    finally:
        _CONTEXT.reset(token)
        if adopted:
            with _ADOPT_LOCK:
                _ADOPTED -= 1
                if not _ADOPTED:
                    configure_tracing(None)


def carrier_to_header(carrier: Mapping[str, Any]) -> str:
    """Encode a carrier for the ``X-Repro-Trace`` HTTP header."""
    return json.dumps(dict(carrier), separators=(",", ":"))


def carrier_from_header(value: str | None) -> dict[str, Any] | None:
    """Decode ``X-Repro-Trace``; returns None on absent/malformed input."""
    if not value:
        return None
    try:
        payload = json.loads(value)
    except ValueError:
        return None
    if not isinstance(payload, dict):
        return None
    if not payload.get("trace_id") or not payload.get("span_id"):
        return None
    return payload
