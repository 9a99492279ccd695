"""In-memory span recorder and the wrappers that feed it.

The traced run installs thin wrappers around public functions of each
layer of the stack (serve registry, dlframe layers and model, the runtime's
signature resolution, executable cache, weight hashing and filter-bundle
cache, the GEMM baseline and the conv gradients).  Each wrapper records a
span — name, start, end, parent span and the id of the root span of its
thread (a serve batch, a training step or a conv pass) — and stays out of
the program's own code: the untraced runs execute the program unmodified.

Spans stay in memory as tuples and are analysed once at the end; a layer's
self time is its duration minus the time its direct children cover.
Requests are not spans: the load generator keeps each one's due, sent and
done times (``loadgen.Outcome``).
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any, Callable, Iterator

#: (span id, parent id, name, start ns, end ns, root id)
Span = tuple[int, int, str, int, int, int]

_now = time.perf_counter_ns


class Recorder:
    """Collects spans from any thread; parents follow each thread's stack."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[tuple[int, int]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` with every call recorded as a span called ``name``."""
        spans, ids, stack_of = self.spans, self._ids, self._stack

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            sid = next(ids)
            parent, root = stack[-1] if stack else (0, sid)
            stack.append((sid, root))
            t0 = _now()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                spans.append((sid, parent, name, t0, t1, root))

        return traced

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[None]:
        """Record the enclosed block as a span (the benchmark's own loops)."""
        stack = self._stack()
        sid = next(self._ids)
        parent, root = stack[-1] if stack else (0, sid)
        stack.append((sid, root))
        t0 = _now()
        try:
            yield
        finally:
            t1 = _now()
            stack.pop()
            self.spans.append((sid, parent, name, t0, t1, root))


# -- installing the wrappers ---------------------------------------------------


@dataclass
class _Patch:
    owner: Any
    attr: str
    original: Any


def _layer_targets() -> list[tuple[Any, str, str]]:
    """(object, attribute, span name) for every wrapped public function."""
    import repro.runtime as runtime
    from repro.baselines import gemm
    from repro.dlframe import layers
    from repro.dlframe.models import resnet
    from repro.runtime import engine, executable
    from repro.serve import registry

    return [
        (registry.RegisteredModel, "infer_rows", "serve.infer_rows"),
        (resnet.ResNet, "forward", "model.forward"),
        (layers.Conv2D, "forward", "layer.conv2d"),
        (layers.BatchNorm2D, "forward", "layer.batchnorm"),
        (layers.LeakyReLU, "forward", "layer.relu"),
        (layers.MaxPool2D, "forward", "layer.pool"),
        (layers.GlobalAvgPool2D, "forward", "layer.pool"),
        (layers.Linear, "forward", "layer.linear"),
        # convolve is reached three ways: the package attribute (benchmark,
        # core.gradients' lazy import) and the name dlframe.layers bound.
        (runtime, "convolve", "runtime.convolve"),
        (layers, "runtime_convolve", "runtime.convolve"),
        (engine, "get_executable", "runtime.get_executable"),
        (executable.ConvExecutable, "weight_token", "runtime.weight_hash"),
        (executable.ConvExecutable, "filter_bundle", "runtime.filter_bundle"),
        (executable, "build_filter_bundle", "runtime.filter_build"),
        (gemm, "conv2d_gemm", "gemm.conv"),
        (layers, "conv2d_gemm", "gemm.conv"),
        (layers, "conv2d_input_grad", "grad.input"),
        (layers, "conv2d_filter_grad", "grad.filter"),
    ]


class Wrappers:
    """Install / remove the span wrappers; a no-op until :meth:`install`."""

    def __init__(self, recorder: Recorder) -> None:
        self.recorder = recorder
        self._patches: list[_Patch] = []

    def install(self) -> None:
        if self._patches:
            return
        from repro.runtime.signature import ConvSignature

        wrapped: dict[int, Callable[..., Any]] = {}
        for owner, attr, name in _layer_targets():
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            # One wrapper per original, so aliases of one function share it.
            fn = wrapped.get(id(original))
            if fn is None:
                fn = wrapped[id(original)] = self.recorder.wrap(name, original)
            self._patches.append(_Patch(owner, attr, original))
            setattr(owner, attr, fn)
        descriptor = ConvSignature.__dict__["for_operands"]
        self._patches.append(_Patch(ConvSignature, "for_operands", descriptor))
        ConvSignature.for_operands = classmethod(  # type: ignore[method-assign]
            self.recorder.wrap("runtime.signature", descriptor.__func__)
        )

    def remove(self) -> None:
        for patch in reversed(self._patches):
            setattr(patch.owner, patch.attr, patch.original)
        self._patches.clear()

    @contextlib.contextmanager
    def active(self) -> Iterator[None]:
        """Wrappers installed for the duration of the block."""
        self.install()
        try:
            yield
        finally:
            self.remove()


# -- analysis --------------------------------------------------------------------


@dataclass
class SpanStats:
    """Per-name totals over a set of spans."""

    calls: dict[str, int]
    total_ns: dict[str, int]
    self_ns: dict[str, int]

    def total_ms(self, name: str) -> float:
        return self.total_ns.get(name, 0) / 1e6

    def self_ms(self, name: str) -> float:
        return self.self_ns.get(name, 0) / 1e6


def span_stats(spans: list[Span]) -> SpanStats:
    """Calls, inclusive time and self time per span name."""
    child_ns: dict[int, int] = defaultdict(int)
    for _sid, parent, _name, t0, t1, _root in spans:
        if parent:
            child_ns[parent] += t1 - t0
    calls: dict[str, int] = defaultdict(int)
    total: dict[str, int] = defaultdict(int)
    self_ns: dict[str, int] = defaultdict(int)
    for sid, _parent, name, t0, t1, _root in spans:
        calls[name] += 1
        total[name] += t1 - t0
        self_ns[name] += t1 - t0 - child_ns.get(sid, 0)
    return SpanStats(dict(calls), dict(total), dict(self_ns))


def durations_ms(spans: list[Span], name: str) -> list[float]:
    """Duration of every span called ``name``, in call order."""
    return [(t1 - t0) / 1e6 for _s, _p, n, t0, t1, _r in spans if n == name]
