"""Worker process: one warmed single-process serving stack behind a pipe.

Each worker is a *complete* PR-5 serving stack — its own warmed
:class:`~repro.serve.registry.ModelRegistry` feeding its own
:class:`~repro.serve.service.InferenceService` with dynamic batching —
wrapped in a control loop that speaks the cluster protocol:

* startup (in the spawned child, before the event loop): build + warm the
  registry for the worker's model specs, attach the generation-named slab
  (:mod:`.shm`), then report ``ready`` with the measured warmup cost;
* ``req`` frames: read the tensor out of the leased slab slot, submit it
  to the *local* batcher, write the response back into the **same slot**
  and echo the lease tag — each request runs as its own asyncio task so
  the worker's dynamic batching coalesces concurrent requests exactly as
  the single-process service does (bit-identity relies on the shared
  :data:`~repro.serve.registry.MIN_EXECUTE_ROWS` padding floor, which
  makes every row's arithmetic independent of batch composition);
* ``ping``/``scrape``/``stats``: health + observability probes;
* ``drain``: stop admitting, flush in-flight batches, answer ``bye``;
* ``crash``: test hook — die instantly (``os._exit``), the way a real
  segfault would, so lifecycle tests exercise the router's heartbeat
  detection and restart path without faking anything.

Telemetry survives the hop: a ``req`` frame may carry the router's
``traceparent``; the worker continues that trace through its scheduler and
ships the request's recorded spans back in the ``res`` frame (Linux
``CLOCK_MONOTONIC`` is system-wide, so worker span timestamps line up with
router spans in one merged tree).

Pipe discipline: the control connection is received blocking via
``run_in_executor`` (never on the event loop), and **all** sends happen on
the event-loop thread — request tasks and the control loop interleave
their frames there, so no send lock is needed.
"""

from __future__ import annotations

import asyncio
import os
import time
from dataclasses import dataclass, field
from multiprocessing.connection import Connection
from typing import Any

from ...obs import telemetry
from ...obs import tracer as obs_tracer
from ...obs.metrics import get_registry
from ..batching import BatchPolicy
from ..errors import ServeError
from ..registry import ModelRegistry
from ..scheduler import SchedulerConfig
from ..service import InferenceService
from .messages import ControlChannel
from .shm import SlabRing

__all__ = ["ModelSpec", "WorkerSpec", "worker_main"]

#: Exit code of the ``crash`` test hook — distinguishable from a clean 0
#: and from Python's generic 1 in lifecycle assertions.
CRASH_EXIT_CODE = 42


@dataclass(frozen=True)
class ModelSpec:
    """One model a worker must register at startup (JSON-able)."""

    name: str
    arch: str | None = None
    image: int = 32
    in_channels: int = 3
    classes: int = 10
    width_mult: float = 1.0
    engine: str = "winograd"
    seed: int = 0
    extra_images: tuple[int, ...] = ()

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "arch": self.arch,
            "image": self.image,
            "in_channels": self.in_channels,
            "classes": self.classes,
            "width_mult": self.width_mult,
            "engine": self.engine,
            "seed": self.seed,
            "extra_images": list(self.extra_images),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "ModelSpec":
        return cls(
            name=str(d["name"]),
            arch=d.get("arch"),
            image=int(d.get("image", 32)),
            in_channels=int(d.get("in_channels", 3)),
            classes=int(d.get("classes", 10)),
            width_mult=float(d.get("width_mult", 1.0)),
            engine=str(d.get("engine", "winograd")),
            seed=int(d.get("seed", 0)),
            extra_images=tuple(int(v) for v in d.get("extra_images", ())),
        )


@dataclass(frozen=True)
class WorkerSpec:
    """Everything a spawned worker needs to come up (JSON-able).

    The spec crosses the process boundary as a plain dict (spawn pickles
    only primitives + the Connection), so a restarted worker is a pure
    function of its spec — same models, same warmup, same dispatch —
    which is what makes post-restart bit-identity testable.
    """

    name: str
    generation: int
    slab_name: str
    slot_bytes: int
    slots: int
    models: tuple[ModelSpec, ...] = ()
    max_batch_size: int = 8
    max_queue_delay_ms: float = 2.0
    default_timeout_ms: float | None = 1000.0
    execute_threads: int = 1
    telemetry: bool = False
    obs: bool = False
    extra: dict[str, Any] = field(default_factory=dict)

    def as_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "generation": self.generation,
            "slab_name": self.slab_name,
            "slot_bytes": self.slot_bytes,
            "slots": self.slots,
            "models": [m.as_dict() for m in self.models],
            "max_batch_size": self.max_batch_size,
            "max_queue_delay_ms": self.max_queue_delay_ms,
            "default_timeout_ms": self.default_timeout_ms,
            "execute_threads": self.execute_threads,
            "telemetry": self.telemetry,
            "obs": self.obs,
            "extra": dict(self.extra),
        }

    @classmethod
    def from_dict(cls, d: dict[str, Any]) -> "WorkerSpec":
        timeout = d.get("default_timeout_ms", 1000.0)
        return cls(
            name=str(d["name"]),
            generation=int(d["generation"]),
            slab_name=str(d["slab_name"]),
            slot_bytes=int(d["slot_bytes"]),
            slots=int(d["slots"]),
            models=tuple(ModelSpec.from_dict(m) for m in d.get("models", ())),
            max_batch_size=int(d.get("max_batch_size", 8)),
            max_queue_delay_ms=float(d.get("max_queue_delay_ms", 2.0)),
            default_timeout_ms=None if timeout is None else float(timeout),
            execute_threads=int(d.get("execute_threads", 1)),
            telemetry=bool(d.get("telemetry", False)),
            obs=bool(d.get("obs", False)),
            extra=dict(d.get("extra", ())),
        )


def _span_payload(trace_id: str) -> list[dict[str, Any]]:
    """The request trace's spans, sanitised to strict-JSON values.

    Shipped back in ``res``/``err`` frames so the router can merge worker
    spans into its own store; attrs are coerced to primitives because the
    control channel's strict codec (correctly) refuses anything else.
    """
    out: list[dict[str, Any]] = []
    for span in telemetry.get_store().spans(trace_id):
        d = span.as_dict()
        d["attrs"] = {
            k: v if isinstance(v, (str, int, float, bool)) or v is None else str(v)
            for k, v in d["attrs"].items()
        }
        out.append(d)
    return out


def worker_main(conn: Connection, spec_dict: dict[str, Any]) -> None:
    """Spawn entrypoint: warm up, then serve the control loop until drain."""
    spec = WorkerSpec.from_dict(spec_dict)
    chan = ControlChannel(conn)
    if spec.obs:
        obs_tracer.enable()
    if spec.telemetry:
        telemetry.enable()
    try:
        registry = ModelRegistry()
        t0 = time.perf_counter()
        for model in spec.models:
            registry.register(
                model.name,
                arch=model.arch,
                image=model.image,
                in_channels=model.in_channels,
                classes=model.classes,
                width_mult=model.width_mult,
                engine=model.engine,
                seed=model.seed,
                extra_images=model.extra_images,
                warmup=True,
            )
        warmup_ms = (time.perf_counter() - t0) * 1e3
        slab = SlabRing.attach(spec.slab_name, spec.slot_bytes, spec.slots)
    except Exception as exc:  # noqa: B902 - report startup failure, then die
        try:
            chan.send(
                {"op": "fatal", "worker": spec.name, "error": str(exc),
                 "kind": type(exc).__name__},
                lenient=True,
            )
        except Exception:
            pass
        raise
    asyncio.run(_serve(chan, spec, registry, slab, warmup_ms))


async def _serve(
    chan: ControlChannel,
    spec: WorkerSpec,
    registry: ModelRegistry,
    slab: SlabRing,
    warmup_ms: float,
) -> None:
    service = InferenceService(
        registry,
        SchedulerConfig(
            policy=BatchPolicy(
                max_batch_size=spec.max_batch_size,
                max_queue_delay_ms=spec.max_queue_delay_ms,
            ),
            default_timeout_ms=spec.default_timeout_ms,
            execute_threads=spec.execute_threads,
        ),
    )
    await service.start()
    loop = asyncio.get_running_loop()
    tasks: set[asyncio.Task[None]] = set()
    chan.send(
        {
            "op": "ready",
            "worker": spec.name,
            "generation": spec.generation,
            "pid": os.getpid(),
            "warmup_ms": warmup_ms,
            "models": registry.names(),
        }
    )
    try:
        while True:
            try:
                msg = await loop.run_in_executor(None, chan.recv)
            except (EOFError, OSError):
                break  # router went away; nothing left to serve
            op = msg.get("op")
            if op == "req":
                task = asyncio.ensure_future(_serve_one(service, slab, chan, msg))
                tasks.add(task)
                task.add_done_callback(tasks.discard)
            elif op == "ping":
                chan.send(
                    {"op": "pong", "worker": spec.name,
                     "generation": spec.generation, "t": msg.get("t")}
                )
            elif op == "scrape":
                chan.send(
                    {"op": "scrape_reply", "worker": spec.name,
                     "metrics": get_registry().as_dict()},
                    lenient=True,
                )
            elif op == "stats":
                chan.send(
                    {"op": "stats_reply", "worker": spec.name,
                     "stats": service.stats(),
                     "control": chan.stats.as_dict()},
                    lenient=True,
                )
            elif op == "crash":
                os._exit(CRASH_EXIT_CODE)
            elif op == "drain":
                break
            # Unknown ops are ignored: protocol additions must not kill
            # older workers mid-rollout.
    finally:
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)
        await service.stop(drain=True)
        try:
            chan.send({"op": "bye", "worker": spec.name, "generation": spec.generation})
        except (OSError, BrokenPipeError):
            pass
        slab.close()
        chan.close()


async def _serve_one(
    service: InferenceService, slab: SlabRing, chan: ControlChannel, msg: dict[str, Any]
) -> None:
    """One request: slab in -> local dynamic batcher -> slab out, tag echoed."""
    rid = msg.get("rid")
    slot = int(msg["slot"])
    tag = int(msg["tag"])
    trace = (
        telemetry.start_trace(msg.get("traceparent"))
        if telemetry.enabled()
        else None
    )
    reply: dict[str, Any] = {"rid": rid, "slot": slot, "tag": tag}
    try:
        x = slab.read(slot, msg["shape"], msg["dtype"])
        timeout_ms = msg.get("timeout_ms", "default")
        out = await service.infer(
            str(msg["model"]), x, timeout_ms=timeout_ms, trace=trace
        )
        meta = slab.write(slot, out)
        reply.update(op="res", **meta)
    except ServeError as exc:
        reply.update(op="err", kind=type(exc).__name__, error=str(exc))
    except Exception as exc:  # noqa: B902 - a worker bug must not kill the loop
        reply.update(op="err", kind="ServeError", error=f"{type(exc).__name__}: {exc}")
    if trace is not None:
        reply["spans"] = _span_payload(trace.trace_id)
    try:
        chan.send(reply)
    except (OSError, BrokenPipeError):
        pass  # router is gone; the drain path will wind the loop down
