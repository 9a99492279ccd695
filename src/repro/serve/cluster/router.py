"""Cluster router: shard by model, lease a slab slot, fan out to workers.

The front end of the multi-process serving tier.  One
:class:`ClusterRouter` owns N spawned workers (:mod:`.worker`), and for
each request:

1. **shard** — the consistent-hash ring (:mod:`.hashring`) maps the model
   name to its replica set, filtered through :class:`~.membership.Membership`
   to workers that are actually ``ready`` (falling back to any ready
   worker when a whole shard is down: availability beats placement);
2. **balance** — within the shard, pick the worker with the fewest
   outstanding requests (least-outstanding beats round-robin under the
   heterogeneous service times dynamic batching produces);
3. **handoff** — lease a slot in that worker's shared-memory slab
   (:mod:`.shm`), copy the tensor in, and send only signature metadata
   over the control pipe; the worker answers into the *same slot* and the
   response is gated on the lease tag still being current.

Failure handling is the membership state machine: a worker's pipe
reaching EOF (crash) fails that worker's in-flight requests with
:class:`~repro.serve.errors.WorkerCrashed`, marks it ``dead``, and — when
restarts are enabled — respawns it under the **same name** (the ring
never changes, so placement is stable) with a bumped generation (a fresh
slab segment, so a stale incarnation can never be read).  A heartbeat
loop pings ready workers and terminates any that stop answering, which
funnels hung workers into the same crash path.

Threading model: all router state (handles, outstanding tables, stats)
is **event-loop-confined** — mutated only from coroutines on the router's
loop, the same discipline as ``Scheduler._inflight`` — so none of it
needs a lock.  The cross-thread structures (membership table, slab
free-lists, control-channel counters) carry their own documented
guards.  Blocking calls (``Connection.recv``, ``Process.join``) always go
through ``run_in_executor``.
"""

from __future__ import annotations

import asyncio
import itertools
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from multiprocessing.context import SpawnProcess
from typing import Any

import numpy as np

from ...obs import counter_add, gauge_set, telemetry
from ...obs.metrics import MetricsRegistry, get_registry
from ...obs.promexport import render_prometheus
from ...obs.telemetry import TraceContext, TraceSpan
from ...obs.promexport import CONTENT_TYPE as PROMETHEUS_CONTENT_TYPE
from ..errors import (
    BadRequest,
    DeadlineExceeded,
    ModelNotFound,
    QueueFull,
    ServeError,
    ServiceStopped,
    WorkerCrashed,
)
from ..httpfront import JsonHttpServer, handle_infer_request
from .hashring import HashRing
from .membership import Membership
from .messages import ControlChannel
from .shm import SlabLease, SlabRing
from .worker import ModelSpec, WorkerSpec, worker_main

__all__ = ["ClusterConfig", "ClusterRouter"]

#: Worker-reported error kinds mapped back to the typed error surface, so
#: a cluster client sees the same exception classes (and HTTP statuses) as
#: a single-process client.
_ERROR_KINDS: dict[str, type[ServeError]] = {
    "ModelNotFound": ModelNotFound,
    "BadRequest": BadRequest,
    "QueueFull": QueueFull,
    "DeadlineExceeded": DeadlineExceeded,
    "ServiceStopped": ServiceStopped,
    "WorkerCrashed": WorkerCrashed,
    "ServeError": ServeError,
}


@dataclass
class ClusterConfig:
    """Knobs of one cluster instance."""

    #: Worker process count (the fan-out width).
    workers: int = 2
    #: Virtual nodes per worker on the consistent-hash ring.
    vnodes: int = 32
    #: Shard width per model: how many distinct workers serve one model.
    #: ``None`` (default) means *all* ready workers — right for small
    #: clusters and for scaling a single hot model; set it to a small
    #: number to give each model a cache-warm home set instead.
    replication: int | None = None
    #: Slab geometry per worker: slot size bounds the largest request
    #: tensor; slot count bounds that worker's in-flight requests.
    slot_bytes: int = 1 << 20
    slots: int = 16
    #: Per-worker dynamic batching (forwarded into each worker's policy).
    max_batch_size: int = 8
    max_queue_delay_ms: float = 2.0
    default_timeout_ms: float | None = 5000.0
    execute_threads: int = 1
    #: Health checking: ping cadence and the silence that means "hung".
    heartbeat_interval_s: float = 0.5
    heartbeat_timeout_s: float = 10.0
    #: Worker startup budget (spawn + import + warmup).
    start_timeout_s: float = 180.0
    #: Crash handling: restart dead workers (same name, new generation)
    #: up to ``max_restarts`` times each.
    restart: bool = True
    max_restarts: int = 3
    #: Enable obs instrumentation / request telemetry inside workers.
    obs: bool = False
    telemetry: bool = False

    def __post_init__(self) -> None:
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        if self.replication is not None and self.replication < 1:
            raise ValueError(f"replication must be >= 1, got {self.replication}")


@dataclass
class _Handle:
    """Router-side view of one worker incarnation (event-loop-confined)."""

    name: str
    spec: WorkerSpec
    process: SpawnProcess
    chan: ControlChannel
    slab: SlabRing
    #: Resolved with the worker's ``ready`` frame (or a startup error).
    ready: asyncio.Future
    #: rid -> in-flight bookkeeping; completion pops exactly once, so a
    #: late duplicate frame (or crash fan-out racing a response) can never
    #: double-complete a future — the same pop-idempotency discipline as
    #: ``Scheduler._inflight``.
    outstanding: dict[str, dict[str, Any]] = field(default_factory=dict)
    probes: dict[str, asyncio.Future] = field(default_factory=dict)
    reader: asyncio.Task | None = None
    dispatched: int = 0


def _acquire_lease(slab: SlabRing) -> SlabLease | None:
    """Sync hop for the slab lease (its lock never blocks the loop long)."""
    return slab.acquire()


class ClusterRouter:
    """Multi-process sharded serving front end."""

    def __init__(
        self,
        models: list[ModelSpec] | tuple[ModelSpec, ...],
        config: ClusterConfig | None = None,
    ) -> None:
        if not models:
            raise ValueError("ClusterRouter needs at least one ModelSpec")
        self.models = tuple(models)
        self.config = config if config is not None else ClusterConfig()
        self.membership = Membership()
        self.ring = HashRing(vnodes=self.config.vnodes)
        self._handles: dict[str, _Handle] = {}
        self._ctx = multiprocessing.get_context("spawn")
        self._rid_seq = itertools.count(1)
        self._running = False
        self._stop_task: asyncio.Task | None = None
        self._heartbeat_task: asyncio.Task | None = None
        self._http = JsonHttpServer(self._http_dispatch)
        self._started_at = time.monotonic()
        #: Always-on router counters (event-loop-confined, like the
        #: handle tables; scraped into /v1/stats).
        self._stats: dict[str, int] = {
            "requests": 0,
            "completed": 0,
            "failed": 0,
            "rejected": 0,
            "crashes": 0,
            "restarts": 0,
            "stale_responses": 0,
        }

    # -- lifecycle -----------------------------------------------------------

    async def start(self) -> "ClusterRouter":
        if self._running:
            return self
        self._running = True
        self._stop_task = None
        self._started_at = time.monotonic()
        names = [f"w{i}" for i in range(self.config.workers)]
        for name in names:
            self.ring.add(name)
        spawned = [await self._spawn(name) for name in names]
        await asyncio.gather(*(self._wait_ready(h) for h in spawned))
        self._heartbeat_task = asyncio.create_task(
            self._heartbeat_loop(), name="repro-cluster-heartbeat"
        )
        return self

    async def __aenter__(self) -> "ClusterRouter":
        return await self.start()

    async def __aexit__(self, *exc: object) -> None:
        await self.stop()

    async def _spawn(self, name: str) -> _Handle:
        """Spawn one worker incarnation and start its reader task."""
        state = self.membership.register(name)
        slab_name = f"repro-{os.getpid()}-{name}-g{state.generation}"
        slab = SlabRing.create(slab_name, self.config.slot_bytes, self.config.slots)
        spec = WorkerSpec(
            name=name,
            generation=state.generation,
            slab_name=slab_name,
            slot_bytes=self.config.slot_bytes,
            slots=self.config.slots,
            models=self.models,
            max_batch_size=self.config.max_batch_size,
            max_queue_delay_ms=self.config.max_queue_delay_ms,
            default_timeout_ms=self.config.default_timeout_ms,
            execute_threads=self.config.execute_threads,
            telemetry=self.config.telemetry,
            obs=self.config.obs,
        )
        parent_conn, child_conn = self._ctx.Pipe(duplex=True)
        process = self._ctx.Process(
            target=worker_main,
            args=(child_conn, spec.as_dict()),
            name=f"repro-cluster-{name}-g{state.generation}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        handle = _Handle(
            name=name,
            spec=spec,
            process=process,
            chan=ControlChannel(parent_conn),
            slab=slab,
            ready=asyncio.get_running_loop().create_future(),
        )
        self._handles[name] = handle
        handle.reader = asyncio.create_task(
            self._read_loop(handle), name=f"repro-cluster-read-{name}"
        )
        return handle

    async def _wait_ready(self, handle: _Handle) -> None:
        try:
            info = await asyncio.wait_for(
                asyncio.shield(handle.ready), self.config.start_timeout_s
            )
        except (TimeoutError, asyncio.TimeoutError):
            handle.process.terminate()
            raise RuntimeError(
                f"worker {handle.name} failed to become ready within "
                f"{self.config.start_timeout_s:.0f}s"
            ) from None
        self.membership.mark_ready(
            handle.name,
            pid=int(info.get("pid", 0)),
            warmup_ms=float(info.get("warmup_ms", 0.0)),
        )
        counter_add("cluster.worker.ready", worker=handle.name)

    async def stop(self) -> None:
        """Graceful drain, single-flight: concurrent/repeated stops await
        the same teardown instead of racing it (the shutdown-idempotency
        contract the mid-batch-kill regression test pins down)."""
        if not self._running and self._stop_task is None:
            return
        if self._stop_task is None:
            self._stop_task = asyncio.ensure_future(self._stop_impl())
        await asyncio.shield(self._stop_task)

    async def _stop_impl(self) -> None:
        self._running = False  # stop admitting before anything else
        await self._http.stop()
        if self._heartbeat_task is not None:
            self._heartbeat_task.cancel()
            try:
                await self._heartbeat_task
            except asyncio.CancelledError:
                pass
            self._heartbeat_task = None
        loop = asyncio.get_running_loop()
        for handle in self._handles.values():
            self.membership.mark_draining(handle.name)
            try:
                handle.chan.send({"op": "drain"})
            except (OSError, BrokenPipeError):
                pass
        readers = [h.reader for h in self._handles.values() if h.reader is not None]
        if readers:
            # The drain flush answers in-flight requests through the
            # normal reader path; EOF then ends each reader.
            await asyncio.wait(readers, timeout=30.0)
        for handle in self._handles.values():
            await loop.run_in_executor(None, handle.process.join, 10.0)
            if handle.process.is_alive():
                handle.process.terminate()
                await loop.run_in_executor(None, handle.process.join, 10.0)
            self._fail_outstanding(handle, ServiceStopped("cluster stopped"))
            handle.chan.close()
            handle.slab.close()
            handle.slab.unlink()

    # -- request path --------------------------------------------------------

    async def infer(
        self,
        model: str,
        x: np.ndarray,
        *,
        timeout_ms: float | None | object = "default",
        trace: TraceContext | None = None,
    ) -> np.ndarray:
        """Route one request to its shard and await the slab-borne answer."""
        if not self._running:
            raise ServiceStopped("cluster router is not running")
        if trace is None and telemetry.enabled():
            cur = telemetry.current()
            trace = cur.child() if cur is not None else telemetry.start_trace()
        arr = np.ascontiguousarray(np.asarray(x, dtype=np.float32))
        if arr.nbytes > self.config.slot_bytes:
            raise BadRequest(
                f"request tensor of {arr.nbytes} bytes exceeds the cluster slab "
                f"slot size {self.config.slot_bytes}"
            )
        handle, lease = self._place(model)
        meta = handle.slab.write(lease.slot, arr)
        rid = f"r{next(self._rid_seq)}"
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        t0 = time.monotonic()
        handle.outstanding[rid] = {
            "future": future,
            "lease": lease,
            "trace": trace,
            "model": model,
            "t0": t0,
        }
        handle.dispatched += 1
        self._stats["requests"] += 1
        msg: dict[str, Any] = {
            "op": "req",
            "rid": rid,
            "model": model,
            "slot": lease.slot,
            "tag": lease.tag,
            "timeout_ms": timeout_ms,
            **meta,
        }
        if trace is not None:
            msg["traceparent"] = trace.traceparent()
        try:
            handle.chan.send(msg)
        except (OSError, BrokenPipeError) as exc:
            handle.outstanding.pop(rid, None)
            handle.slab.release(lease)
            raise WorkerCrashed(
                f"worker {handle.name} pipe is gone: {exc}"
            ) from exc
        counter_add("cluster.dispatched", model=model, worker=handle.name)
        # Safety net over the worker's own deadline enforcement: if the
        # response frame is lost (worker wedged mid-reply), fail the
        # request rather than hanging forever.
        cap = self._deadline_cap(timeout_ms)
        try:
            if cap is None:
                return await future
            return await asyncio.wait_for(asyncio.shield(future), cap)
        except (TimeoutError, asyncio.TimeoutError):
            pending = handle.outstanding.pop(rid, None)
            if pending is not None:
                handle.slab.release(lease)
                self._stats["failed"] += 1
            raise DeadlineExceeded(
                f"no response from worker {handle.name} within {cap:.1f}s"
            ) from None

    def _deadline_cap(self, timeout_ms: float | None | object) -> float | None:
        if timeout_ms == "default":
            timeout_ms = self.config.default_timeout_ms
        if timeout_ms is None:
            return None
        return float(timeout_ms) / 1e3 + 30.0  # type: ignore[arg-type]

    def _place(self, model: str) -> tuple[_Handle, SlabLease]:
        """Shard + least-outstanding pick + slab lease, in one pass.

        Candidates are tried in ascending outstanding order, so slab
        exhaustion on the least-loaded worker falls through to the next
        replica instead of rejecting outright.
        """
        ready = self.membership.ready_names()
        if not ready:
            raise ServiceStopped("no ready workers")
        width = self.config.replication or len(ready)
        shard = [
            name
            for name in self.ring.shard(model, min(width, len(self.ring)))
            if name in ready
        ]
        if not shard:
            shard = ready  # whole shard down: serve from anywhere
        shard.sort(key=lambda name: len(self._handles[name].outstanding))
        for name in shard:
            handle = self._handles[name]
            lease = _acquire_lease(handle.slab)
            if lease is not None:
                return handle, lease
        self._stats["rejected"] += 1
        counter_add("cluster.rejected", model=model)
        raise QueueFull(
            f"all {len(shard)} shard slabs exhausted "
            f"({self.config.slots} slots each); retry later"
        )

    # -- worker frames -------------------------------------------------------

    async def _read_loop(self, handle: _Handle) -> None:
        loop = asyncio.get_running_loop()
        while True:
            try:
                msg = await loop.run_in_executor(None, handle.chan.recv)
            except (EOFError, OSError):
                break
            try:
                self._on_frame(handle, msg)
            except Exception:  # noqa: B902 - a bad frame must not kill the reader
                counter_add("cluster.bad_frames", worker=handle.name)
        await self._reap(handle)

    def _on_frame(self, handle: _Handle, msg: dict[str, Any]) -> None:
        op = msg.get("op")
        if op == "res" or op == "err":
            self._on_response(handle, msg)
        elif op == "pong":
            if int(msg.get("generation", -1)) == handle.spec.generation:
                self.membership.heartbeat(handle.name)
        elif op == "ready":
            if not handle.ready.done():
                handle.ready.set_result(msg)
        elif op == "fatal":
            if not handle.ready.done():
                handle.ready.set_exception(
                    RuntimeError(
                        f"worker {handle.name} failed to start: {msg.get('error')}"
                    )
                )
        elif op in ("scrape_reply", "stats_reply"):
            fut = handle.probes.pop(op, None)
            if fut is not None and not fut.done():
                fut.set_result(msg)
        elif op == "bye":
            self.membership.mark_draining(handle.name)

    def _on_response(self, handle: _Handle, msg: dict[str, Any]) -> None:
        rid = str(msg.get("rid"))
        pending = handle.outstanding.pop(rid, None)
        if pending is None:
            # Already failed (crash fan-out, router timeout) — a late or
            # duplicate frame completes nothing.
            self._stats["stale_responses"] += 1
            return
        lease: SlabLease = pending["lease"]
        future: asyncio.Future = pending["future"]
        trace: TraceContext | None = pending["trace"]
        if not handle.slab.lease_valid(lease.slot, int(msg.get("tag", -1))):
            # The generation/tag gate: never read a slot this response does
            # not currently own.
            self._stats["stale_responses"] += 1
            counter_add("cluster.stale_responses", worker=handle.name)
            if not future.done():
                future.set_exception(
                    WorkerCrashed(f"stale slab lease on worker {handle.name}")
                )
            return
        now = time.monotonic()
        if trace is not None:
            self._record_worker_spans(trace, msg.get("spans", ()), handle.name)
            telemetry.record_span(
                "cluster.request", trace, pending["t0"], now, root=True,
                worker=handle.name, model=pending["model"], rid=rid,
            )
        if msg["op"] == "err":
            exc_cls = _ERROR_KINDS.get(str(msg.get("kind")), ServeError)
            handle.slab.release(lease)
            self._stats["failed"] += 1
            counter_add("cluster.errors", worker=handle.name, kind=str(msg.get("kind")))
            if not future.done():
                future.set_exception(exc_cls(str(msg.get("error", "worker error"))))
            return
        out = handle.slab.read(lease.slot, msg["shape"], msg["dtype"])
        handle.slab.release(lease)
        self._stats["completed"] += 1
        latency_ms = (now - pending["t0"]) * 1e3
        counter_add("cluster.completed", model=pending["model"], worker=handle.name)
        gauge_set("cluster.last_latency_ms", latency_ms, worker=handle.name)
        if not future.done():
            future.set_result(out)

    def _record_worker_spans(
        self, ctx: TraceContext, spans: Any, worker: str
    ) -> None:
        """Merge worker-recorded spans into the router's trace store.

        Worker roots (``parent_id`` None) are re-parented under the
        router's request span, so the merged tree reads router → worker →
        scheduler → runtime in one piece; Linux ``CLOCK_MONOTONIC`` is
        system-wide, so the shipped timestamps align without adjustment.
        """
        if not telemetry.enabled() or not isinstance(spans, list):
            return
        store = telemetry.get_store()
        for d in spans:
            try:
                start_s = float(d["start_s"])
                store.record(
                    TraceSpan(
                        name=str(d["name"]),
                        trace_id=str(d["trace_id"]),
                        span_id=str(d["span_id"]),
                        parent_id=d.get("parent_id") or ctx.span_id,
                        start_s=start_s,
                        end_s=start_s + float(d.get("duration_ms", 0.0)) / 1e3,
                        attrs=dict(d.get("attrs", ())),
                        thread=f"{worker}:{d.get('thread', '')}",
                        links=[tuple(link) for link in d.get("links", ())],
                    )
                )
            except (KeyError, TypeError, ValueError):
                continue

    # -- failure handling ----------------------------------------------------

    def _fail_outstanding(self, handle: _Handle, exc: ServeError) -> None:
        for rid, pending in list(handle.outstanding.items()):
            handle.outstanding.pop(rid, None)
            future: asyncio.Future = pending["future"]
            if not future.done():
                future.set_exception(exc)
        # Leases die with the slab; the segment is closed/unlinked by the
        # caller, so no per-lease release is needed here.

    async def _reap(self, handle: _Handle) -> None:
        """Reader hit EOF: worker exited.  Crash path unless stopping."""
        loop = asyncio.get_running_loop()
        await loop.run_in_executor(None, handle.process.join, 10.0)
        if not self._running:
            self._fail_outstanding(handle, ServiceStopped("cluster stopped"))
            return
        fresh = self.membership.mark_dead(handle.name)
        self._fail_outstanding(
            handle,
            WorkerCrashed(
                f"worker {handle.name} (gen {handle.spec.generation}) died "
                f"with exit code {handle.process.exitcode}"
            ),
        )
        handle.chan.close()
        handle.slab.close()
        handle.slab.unlink()
        if not fresh:
            return
        self._stats["crashes"] += 1
        counter_add("cluster.worker.crashes", worker=handle.name)
        if not self.config.restart:
            return
        if self.membership.generation_of(handle.name) > self.config.max_restarts:
            counter_add("cluster.worker.abandoned", worker=handle.name)
            return
        try:
            replacement = await self._spawn(handle.name)
            await self._wait_ready(replacement)
            self._stats["restarts"] += 1
            counter_add("cluster.worker.restarts", worker=handle.name)
        except Exception:  # noqa: B902 - a failed restart leaves the worker dead
            self.membership.mark_dead(handle.name)

    async def _heartbeat_loop(self) -> None:
        cfg = self.config
        while self._running:
            await asyncio.sleep(cfg.heartbeat_interval_s)
            now = time.monotonic()
            for name in self.membership.ready_names():
                handle = self._handles.get(name)
                if handle is None:
                    continue
                try:
                    handle.chan.send({"op": "ping", "t": now})
                except (OSError, BrokenPipeError):
                    pass  # EOF on the reader will reap it
            for name in self.membership.stale(cfg.heartbeat_timeout_s):
                # Hung (alive but silent): terminate, which funnels it into
                # the reader's EOF -> crash -> restart path.
                handle = self._handles.get(name)
                if handle is not None and handle.process.is_alive():
                    counter_add("cluster.worker.hung", worker=name)
                    handle.process.terminate()

    # -- test hooks ----------------------------------------------------------

    def crash_worker(self, name: str) -> None:
        """Test hook: make ``name`` die instantly (``os._exit`` in-process)."""
        handle = self._handles[name]
        try:
            handle.chan.send({"op": "crash"})
        except (OSError, BrokenPipeError):
            pass

    def kill_worker(self, name: str) -> None:
        """Test hook: SIGKILL ``name`` (mid-batch, no goodbye)."""
        self._handles[name].process.kill()

    def worker_for(self, model: str) -> str:
        """The worker a request for ``model`` routes to right now."""
        handle, lease = self._place(model)
        handle.slab.release(lease)
        return handle.name

    # -- observability -------------------------------------------------------

    async def _probe(
        self, handle: _Handle, op: str, reply_op: str, timeout_s: float = 10.0
    ) -> dict[str, Any] | None:
        fut: asyncio.Future = asyncio.get_running_loop().create_future()
        handle.probes[reply_op] = fut
        try:
            handle.chan.send({"op": op})
        except (OSError, BrokenPipeError):
            handle.probes.pop(reply_op, None)
            return None
        try:
            return await asyncio.wait_for(asyncio.shield(fut), timeout_s)
        except (TimeoutError, asyncio.TimeoutError):
            return None
        finally:
            if handle.probes.get(reply_op) is fut:
                handle.probes.pop(reply_op, None)

    async def stats(self) -> dict[str, Any]:
        """Aggregated ``/v1/stats``: router + membership + every worker."""
        ready = self.membership.ready_names()
        replies = await asyncio.gather(
            *(
                self._probe(self._handles[name], "stats", "stats_reply")
                for name in ready
            )
        )
        workers: dict[str, Any] = {}
        control: dict[str, Any] = {}
        for name, reply in zip(ready, replies):
            if reply is None:
                continue
            workers[name] = reply.get("stats", {})
            control[name] = reply.get("control", {})
            control[name]["router_side"] = self._handles[name].chan.stats.as_dict()
        return {
            "uptime_s": time.monotonic() - self._started_at,
            "router": dict(self._stats),
            "membership": self.membership.snapshot(),
            "ring": {"workers": self.ring.nodes(), "vnodes": self.config.vnodes},
            "outstanding": {
                name: len(h.outstanding) for name, h in self._handles.items()
            },
            "slabs": {
                name: {"free_slots": h.slab.free_slots(), "slots": h.slab.slots}
                for name, h in self._handles.items()
            },
            "workers": workers,
            "control": control,
        }

    async def render_metrics(self) -> str:
        """Aggregated ``/metrics``: every worker's scrape + the router's own
        registry, merged under a ``worker`` label into one exposition."""
        ready = self.membership.ready_names()
        replies = await asyncio.gather(
            *(
                self._probe(self._handles[name], "scrape", "scrape_reply")
                for name in ready
            )
        )
        merged = MetricsRegistry()
        sources: list[tuple[str, dict[str, Any]]] = [
            ("router", get_registry().as_dict())
        ]
        for name, reply in zip(ready, replies):
            if reply is not None:
                sources.append((name, reply.get("metrics", {})))
        for worker, metrics in sources:
            self._merge_worker_metrics(merged, worker, metrics)
        return render_prometheus(merged)

    @staticmethod
    def _merge_worker_metrics(
        merged: MetricsRegistry, worker: str, metrics: dict[str, Any]
    ) -> None:
        for name, m in sorted(metrics.items()):
            kind = m.get("kind")
            for entry in m.get("values", ()):
                labels = {**entry.get("labels", {}), "worker": worker}
                value = entry.get("value")
                try:
                    if kind == "counter":
                        merged.counter(name, m.get("help", "")).inc(
                            float(value), **labels
                        )
                    elif kind == "gauge":
                        merged.gauge(name, m.get("help", "")).set(
                            float(value), **labels
                        )
                    elif isinstance(value, dict):
                        # Histogram summaries flatten to stat gauges: the
                        # cross-process exposition keeps count/sum/min/max
                        # (quantile merging across processes would need the
                        # raw buckets, which scrape replies don't ship).
                        for stat in ("count", "sum", "min", "max"):
                            if stat in value:
                                merged.gauge(f"{name}.{stat}", m.get("help", "")).set(
                                    float(value[stat]), **labels
                                )
                except (TypeError, ValueError):
                    continue

    def describe_models(self) -> list[dict[str, Any]]:
        return [spec.as_dict() for spec in self.models]

    # -- HTTP front end ------------------------------------------------------

    async def serve_http(self, host: str = "127.0.0.1", port: int = 8707) -> tuple[str, int]:
        """Start the aggregated HTTP endpoint; returns the bound address.

        Same route surface as the single-process service, but ``/metrics``
        and ``/v1/stats`` merge every worker's scrape under a ``worker``
        label and ``POST /v1/infer`` routes through the shard fan-out.
        """
        return await self._http.start(host, port)

    async def _http_dispatch(
        self, method: str, path: str, headers: dict[str, str], body: bytes
    ) -> tuple[int, dict[str, Any] | str, dict[str, str]]:
        try:
            if method == "GET" and path == "/healthz":
                ready = self.membership.ready_names()
                status = 200 if ready else 503
                return status, {
                    "status": "ok" if ready else "degraded",
                    "ready_workers": ready,
                    "workers": len(self.membership),
                }, {}
            if method == "GET" and path == "/metrics":
                return 200, await self.render_metrics(), {
                    "content-type": PROMETHEUS_CONTENT_TYPE
                }
            if method == "GET" and path == "/v1/stats":
                return 200, await self.stats(), {}
            if method == "GET" and path == "/v1/models":
                return 200, {"models": self.describe_models()}, {}
            if method == "POST" and path == "/v1/infer":
                return await handle_infer_request(self.infer, headers, body)
            return 404, {"error": f"no route {method} {path}"}, {}
        except ServeError as exc:
            return exc.http_status, {"error": str(exc), "kind": type(exc).__name__}, {}
        except Exception as exc:  # noqa: B902 - last-resort 500, never a hang
            return 500, {"error": str(exc), "kind": type(exc).__name__}, {}
