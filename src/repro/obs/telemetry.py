"""Request-scoped telemetry: W3C trace contexts and per-request span trees.

:mod:`repro.obs.tracer` answers "where did *this process* spend its time";
this module answers the production question the serving layer raises:
"where did *this request's* latency go?".  A request entering
:mod:`repro.serve` loses its identity the moment it is coalesced into a
batch — the batch's forward pass serves N requests at once — so wall-clock
spans keyed by thread stack cannot attribute queue wait, pad-row waste or
transform/GEMM time back to one caller.  Trace contexts can:

* every request carries a :class:`TraceContext` — a W3C ``traceparent``
  compatible ``(trace_id, span_id)`` pair, accepted and emitted as the
  ``traceparent`` HTTP header by ``repro.serve.service``;
* the context propagates through the scheduler into the executing worker
  thread (:func:`activate` sets a :mod:`contextvars` context), where
  :func:`trace_span` records explicit parent/child spans into a bounded
  :class:`TraceStore` — no reliance on thread-stack nesting, so a span
  started on the event loop and finished on a worker still parents
  correctly;
* batch spans carry **fan-in links** to the N request spans they served
  (:meth:`TraceSpan.add_link`), exported as Chrome-trace flow events, so
  Perfetto draws an arrow from every request row to the shared batch slice;
* :meth:`TraceStore.chrome_trace` exports the store in the same Trace
  Event format as :mod:`repro.obs.chrometrace`, with **stable named
  pid/tid rows**: one row per request trace, one row per executing thread.

Like the tracer, everything is **off by default**: :func:`trace_span`
returns a shared no-op scope unless :func:`enable` was called *and* a
context is active, so un-traced hot paths pay one flag check.

Clock: all timestamps are ``time.monotonic()`` seconds (the serving
layer's deadline clock), so retroactive spans recorded from scheduler
bookkeeping line up exactly with live ``trace_span`` scopes.
"""

from __future__ import annotations

import contextvars
import os
import re
import threading
import time
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = [
    "TraceContext",
    "TraceSpan",
    "TraceStore",
    "NULL_TRACE_SPAN",
    "enable",
    "disable",
    "enabled",
    "get_store",
    "reset",
    "current",
    "activate",
    "start_trace",
    "parse_traceparent",
    "trace_span",
    "record_span",
    "queue_execute_split",
]

#: Module-level enable flag, mirroring :mod:`repro.obs.tracer`'s contract:
#: flipped only by :func:`enable` / :func:`disable`, read on every hot call.
_ENABLED = False


def enable() -> None:
    """Turn request-scoped trace recording on (process-wide)."""
    global _ENABLED
    _ENABLED = True


def disable() -> None:
    """Turn request-scoped trace recording off (the default)."""
    global _ENABLED
    _ENABLED = False


def enabled() -> bool:
    """Whether request-scoped tracing is currently recording."""
    return _ENABLED


# --------------------------------------------------------------------------
# W3C trace context
# --------------------------------------------------------------------------

#: ``version-trace_id-span_id-flags``, then ``-``-separated fields that
#: only a version above 00 may carry.
_TRACEPARENT_RE = re.compile(
    r"^([0-9a-f]{2})-([0-9a-f]{32})-([0-9a-f]{16})-([0-9a-f]{2})(-.*)?$"
)


def _new_trace_id() -> str:
    return os.urandom(16).hex()


def _new_span_id() -> str:
    return os.urandom(8).hex()


@dataclass(frozen=True)
class TraceContext:
    """One ``(trace_id, span_id)`` position in a distributed trace."""

    trace_id: str
    span_id: str
    sampled: bool = True

    def traceparent(self) -> str:
        """The W3C ``traceparent`` header value of this position."""
        return f"00-{self.trace_id}-{self.span_id}-{'01' if self.sampled else '00'}"

    def child(self) -> "TraceContext":
        """A fresh span position within the same trace."""
        return TraceContext(self.trace_id, _new_span_id(), self.sampled)


def parse_traceparent(header: str | None) -> TraceContext | None:
    """Parse a ``traceparent`` header; ``None`` for absent/malformed values.

    Malformed headers are dropped rather than raised — a bad client header
    must never fail the request, it just starts a fresh trace.  Per the W3C
    versioning rules, version ``ff`` is invalid, version ``00`` has exactly
    four fields, and a higher version is read from its first four.
    """
    if not header:
        return None
    m = _TRACEPARENT_RE.match(header.strip().lower())
    if m is None:
        return None
    version, trace_id, span_id, flags, extra = m.groups()
    if version == "ff" or (version == "00" and extra is not None):
        return None
    # All-zero ids are invalid per the spec.
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    try:
        sampled = bool(int(flags, 16) & 0x01)
    except ValueError:  # pragma: no cover - regex already constrains this
        return None
    return TraceContext(trace_id, span_id, sampled)


def start_trace(traceparent: str | None = None) -> TraceContext:
    """Continue the trace named by ``traceparent`` or start a fresh one."""
    ctx = parse_traceparent(traceparent)
    if ctx is not None:
        return ctx.child()
    return TraceContext(_new_trace_id(), _new_span_id())


# --------------------------------------------------------------------------
# Spans and the bounded store
# --------------------------------------------------------------------------


@dataclass
class TraceSpan:
    """One span of a request trace (explicit parent, explicit times)."""

    name: str
    trace_id: str
    span_id: str
    parent_id: str | None
    start_s: float
    end_s: float = 0.0
    attrs: dict[str, Any] = field(default_factory=dict)
    thread: str = ""
    #: Fan-in/fan-out links to spans in *other* traces as
    #: ``(trace_id, span_id)`` pairs — how a batch span names the N request
    #: spans it served.
    links: list[tuple[str, str]] = field(default_factory=list)

    @property
    def duration_ms(self) -> float:
        end = self.end_s if self.end_s else self.start_s
        return max(0.0, end - self.start_s) * 1e3

    def set(self, **attrs: Any) -> "TraceSpan":
        """Attach attributes after creation (results known only at exit)."""
        self.attrs.update(attrs)
        return self

    def add_link(self, trace_id: str, span_id: str) -> "TraceSpan":
        self.links.append((trace_id, span_id))
        return self

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_s": self.start_s,
            "duration_ms": self.duration_ms,
            "attrs": dict(self.attrs),
            "thread": self.thread,
            "links": [list(link) for link in self.links],
        }


class _NullTraceSpan:
    """Shared no-op scope returned while tracing is off or context-less."""

    __slots__ = ()

    def __enter__(self) -> "_NullTraceSpan":
        return self

    def __exit__(self, *exc: object) -> bool:
        return False

    def set(self, **attrs: Any) -> "_NullTraceSpan":
        return self

    def add_link(self, trace_id: str, span_id: str) -> "_NullTraceSpan":
        return self


NULL_TRACE_SPAN = _NullTraceSpan()


class TraceStore:
    """Bounded ring of recent request traces (oldest trace evicted first).

    The bound is on *traces*, not spans: a long-lived server records
    forever, so the store keeps the most recent ``max_traces`` trace IDs
    and drops whole traces as new ones arrive — the same shape as a
    fixed-size distributed-tracing buffer.
    """

    def __init__(self, max_traces: int = 512) -> None:
        if max_traces < 1:
            raise ValueError(f"max_traces must be >= 1, got {max_traces}")
        self.max_traces = max_traces
        self._traces: "OrderedDict[str, list[TraceSpan]]" = OrderedDict()
        self._lock = threading.Lock()

    def record(self, span: TraceSpan) -> TraceSpan:
        with self._lock:
            spans = self._traces.get(span.trace_id)
            if spans is None:
                spans = self._traces[span.trace_id] = []
                while len(self._traces) > self.max_traces:
                    self._traces.popitem(last=False)
            spans.append(span)
        return span

    def spans(self, trace_id: str) -> list[TraceSpan]:
        with self._lock:
            return list(self._traces.get(trace_id, ()))

    def trace_ids(self) -> list[str]:
        with self._lock:
            return list(self._traces)

    def span_count(self) -> int:
        with self._lock:
            return sum(len(s) for s in self._traces.values())

    def reset(self) -> None:
        with self._lock:
            self._traces.clear()

    # -- span tree -----------------------------------------------------------

    def tree(self, trace_id: str) -> list[dict[str, Any]]:
        """The trace's spans nested by parentage (roots first, by time).

        Spans whose parent is not in the store (the inbound client span,
        say) become roots — the tree never silently drops a span.
        """
        spans = sorted(self.spans(trace_id), key=lambda s: s.start_s)
        nodes = {s.span_id: {**s.as_dict(), "children": []} for s in spans}
        roots: list[dict[str, Any]] = []
        for s in spans:
            node = nodes[s.span_id]
            parent = nodes.get(s.parent_id) if s.parent_id else None
            (parent["children"] if parent is not None else roots).append(node)
        return roots

    # -- Chrome-trace export -------------------------------------------------

    def chrome_trace(self, trace_id: str | None = None) -> dict[str, Any]:
        """Export one trace (or the whole store) as Chrome-trace JSON.

        Row layout is stable and named: request traces (root span
        ``serve.request``) each get their own ``tid`` row labelled with the
        trace id, and every other span lands on a row named after its
        recording thread — so batch slices sit on the executor's row while
        the N requests they served sit on theirs.  Fan-in links become flow
        events (``ph`` ``s``/``f``), the arrows Perfetto draws from each
        request span to its shared batch span.
        """
        ids = [trace_id] if trace_id is not None else self.trace_ids()
        all_spans: list[tuple[TraceSpan, str]] = []  # (span, row key)
        for tid_ in ids:
            spans = self.spans(tid_)
            if not spans:
                continue
            span_ids = {s.span_id for s in spans}
            roots = [s for s in spans if not s.parent_id or s.parent_id not in span_ids]
            is_request = any(r.name == "serve.request" for r in roots)
            for s in spans:
                row = f"request {tid_[:8]}" if is_request else (s.thread or "main")
                all_spans.append((s, row))
        if not all_spans:
            return {"traceEvents": [], "displayTimeUnit": "ms"}
        origin = min(s.start_s for s, _ in all_spans)
        pid = os.getpid()
        # Stable row numbering: request rows first (in first-seen order),
        # executor/thread rows after.
        rows: dict[str, int] = {}
        for s, row in all_spans:
            rows.setdefault(row, len(rows))
        events: list[dict[str, Any]] = [
            {
                "name": "process_name",
                "ph": "M",
                "pid": pid,
                "args": {"name": "repro.serve (request telemetry)"},
            }
        ]
        for row, tid_no in rows.items():
            events.append(
                {
                    "name": "thread_name",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid_no,
                    "args": {"name": row},
                }
            )
            events.append(
                {
                    "name": "thread_sort_index",
                    "ph": "M",
                    "pid": pid,
                    "tid": tid_no,
                    "args": {"sort_index": tid_no},
                }
            )
        by_span: dict[tuple[str, str], tuple[TraceSpan, int]] = {}
        for s, row in all_spans:
            tid_no = rows[row]
            by_span[(s.trace_id, s.span_id)] = (s, tid_no)
            end = s.end_s if s.end_s else s.start_s
            events.append(
                {
                    "name": s.name,
                    "cat": "trace",
                    "ph": "X",
                    "ts": (s.start_s - origin) * 1e6,
                    "dur": max(0.0, end - s.start_s) * 1e6,
                    "pid": pid,
                    "tid": tid_no,
                    "args": {
                        "trace_id": s.trace_id,
                        "span_id": s.span_id,
                        **{k: _jsonable(v) for k, v in s.attrs.items()},
                    },
                }
            )
        # Fan-in flow events: one ``s`` (at the linked request span) and one
        # ``f`` (at the linking batch span) per link, sharing a flow id.
        for s, row in all_spans:
            for linked_trace, linked_span in s.links:
                target = by_span.get((linked_trace, linked_span))
                if target is None:
                    continue
                tgt_span, tgt_tid = target
                flow_id = int(linked_span[:15] or "0", 16)
                events.append(
                    {
                        "name": "serve.fanin",
                        "cat": "link",
                        "ph": "s",
                        "id": flow_id,
                        "ts": (tgt_span.start_s - origin) * 1e6,
                        "pid": pid,
                        "tid": tgt_tid,
                    }
                )
                events.append(
                    {
                        "name": "serve.fanin",
                        "cat": "link",
                        "ph": "f",
                        "bp": "e",
                        "id": flow_id,
                        "ts": (s.start_s - origin) * 1e6,
                        "pid": pid,
                        "tid": rows[row],
                    }
                )
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str | os.PathLike[str]) -> str:
        import json

        with open(path, "w") as fh:
            json.dump(self.chrome_trace(), fh, indent=1)
            fh.write("\n")
        return str(path)


def _jsonable(value: Any) -> Any:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


#: Process-wide store used by :func:`trace_span` / :func:`record_span`.
_STORE = TraceStore()


def get_store() -> TraceStore:
    """The process-wide trace store."""
    return _STORE


def reset() -> None:
    """Drop every recorded trace."""
    _STORE.reset()


# --------------------------------------------------------------------------
# Context propagation + recording helpers
# --------------------------------------------------------------------------

#: The active trace position.  A ``ContextVar`` propagates through awaits
#: on the event loop and is per-thread elsewhere, which is exactly the
#: propagation the scheduler needs (explicit :func:`activate` hops the
#: context into executor threads).
_CTX: contextvars.ContextVar[TraceContext | None] = contextvars.ContextVar(
    "repro_trace_ctx", default=None
)


def current() -> TraceContext | None:
    """The calling context's trace position, if any."""
    return _CTX.get()


@contextmanager
def activate(ctx: TraceContext | None) -> Iterator[TraceContext | None]:
    """Make ``ctx`` the active trace position for the ``with`` body."""
    token = _CTX.set(ctx)
    try:
        yield ctx
    finally:
        _CTX.reset(token)


class _SpanScope:
    """Live ``with`` scope of one :func:`trace_span` call."""

    __slots__ = ("span", "_token")

    def __init__(self, ctx: TraceContext, name: str, attrs: dict[str, Any]) -> None:
        child = ctx.child()
        self.span = TraceSpan(
            name=name,
            trace_id=ctx.trace_id,
            span_id=child.span_id,
            parent_id=ctx.span_id,
            start_s=time.monotonic(),
            attrs=attrs,
            thread=threading.current_thread().name,
        )
        self._token = _CTX.set(child)
        _STORE.record(self.span)

    def __enter__(self) -> TraceSpan:
        return self.span

    def __exit__(self, *exc: object) -> bool:
        self.span.end_s = time.monotonic()
        _CTX.reset(self._token)
        return False


def trace_span(name: str, **attrs: Any):
    """Record one child span of the active trace around the ``with`` body.

    No-op singleton when tracing is disabled or no trace is active, so
    instrumented hot paths (the runtime's compiled executables) pay one
    flag check plus one ``ContextVar`` read.
    """
    if not _ENABLED:
        return NULL_TRACE_SPAN
    ctx = _CTX.get()
    if ctx is None or not ctx.sampled:
        return NULL_TRACE_SPAN
    return _SpanScope(ctx, name, attrs)


def record_span(
    name: str,
    ctx: TraceContext | None,
    start_s: float,
    end_s: float,
    *,
    parent_id: str | None = None,
    root: bool = False,
    **attrs: Any,
) -> TraceSpan | None:
    """Record a span with explicit times (scheduler bookkeeping spans).

    ``root=True`` makes the span *be* ``ctx``'s position (``span_id =
    ctx.span_id``) — the request's server span, which children recorded
    under ``ctx`` and links from batch spans both reference.  Otherwise the
    span is a fresh child of ``ctx``.
    """
    if not _ENABLED or ctx is None or not ctx.sampled:
        return None
    span = TraceSpan(
        name=name,
        trace_id=ctx.trace_id,
        span_id=ctx.span_id if root else _new_span_id(),
        parent_id=parent_id if root else (parent_id or ctx.span_id),
        start_s=start_s,
        end_s=end_s,
        attrs=attrs,
        thread=threading.current_thread().name,
    )
    return _STORE.record(span)


# --------------------------------------------------------------------------
# Attribution queries
# --------------------------------------------------------------------------


def queue_execute_split(
    trace_ids: list[str], store: TraceStore | None = None
) -> dict[str, list[float]]:
    """Server-attributed latency split of the given request traces.

    Returns ``{"queued_ms": [...], "execute_ms": [...]}`` — one entry per
    trace that recorded the scheduler's ``serve.queued`` / ``serve.batched``
    spans.  The load generator reconciles these against its client-side
    percentiles: client latency ~= queue wait + execute + (loop scheduling).
    """
    st = store if store is not None else _STORE
    out: dict[str, list[float]] = {"queued_ms": [], "execute_ms": []}
    for tid in trace_ids:
        durations = {"serve.queued": 0.0, "serve.batched": 0.0}
        seen = False
        for span in st.spans(tid):
            if span.name in durations:
                durations[span.name] += span.duration_ms
                seen = True
        if seen:
            out["queued_ms"].append(durations["serve.queued"])
            out["execute_ms"].append(durations["serve.batched"])
    return out
