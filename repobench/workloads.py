"""The four workloads.  Each returns a :class:`Result` for ``run.py`` to print.

``serve-closed``
    resnet18 (w=0.125, 32x32x3) behind an ``InferenceService`` with the
    default ``SchedulerConfig``, driven in-process through
    ``InferenceService.infer`` by 16 closed-loop clients (2x max batch
    size).  Every batch fills by size, so model, runtime dispatch and
    non-conv layers set throughput and the batcher is bypassed.
``serve-open``
    The same service under seeded Poisson arrivals on a ladder of fixed
    rates; the ladder stops at the first rate that misses the p99 limit or
    whose backlog grows.  The batcher and queue do the work here.
``train-step``
    dlframe resnet18 (w=0.125, Winograd engine) trained with Adam on
    ``synthetic_cifar10`` at batch 32: weights change every step, so the
    filter-bundle cache misses and weight hashing is never amortised, and
    backward and the optimizer run.  No batcher.
``conv-layers``
    Direct ``runtime.convolve`` calls, as users make them, over a fixed
    interleaved set of shapes (``metrics.CONV_SHAPES``): the Gamma_alpha
    transforms and contraction dominate, no batching, no model.

Each workload takes its seed and derives every input from it; the program
only ever sees the generated inputs.  Timed phases run before any
reference is computed (see ``checks``).
"""

from __future__ import annotations

import asyncio
import contextlib
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import checks
import host
from loadgen import Outcome, closed_loop, open_loop, percentile
from metrics import CONV_SHAPES, conv_label
from tracing import Recorder, SpanStats, Wrappers, durations_ms, span_stats

MODEL = "resnet18"
WIDTH = 0.125
IMAGE = 32
#: Set-up is repeated (at least this often, and until ``SETUP_MIN_S`` has
#: passed) and its median reported, so one slow repetition (page faults,
#: a first lazy import) does not decide ``setup_s``.
SETUP_REPEATS = 7
SETUP_MIN_S = 1.0
#: Distinct request payloads; responses are checked against each row's
#: serial reference, computed once per row after the timed phase.
INPUT_ROWS = 128
#: Untimed closed-loop load before any serve measurement: lets the
#: allocator and BLAS buffers reach the state they keep for the run.
WARMUP_S = 2.0
#: Open-loop ladder (requests per second).  The first rung is the reference
#: rung whose latency is reported and lasts ``REF_SHARE`` x ``--seconds``;
#: every other rung lasts ``RUNG_SHARE`` of ``--seconds``.  At a tenth of
#: the one-row-batch capacity the reference latency is service time plus
#: flush delay, not a queue: queueing multiplies the host's speed drift,
#: which on a shared 2-core host reaches 1.5x for minutes.  There is no 100
#: rung: the open-loop capacity of one-row batches is about 90-100 req/s on
#: such a host, so a rung there passes or fails by chance.
OPEN_RATES = (10, 50, 150, 200, 250)
#: Contention episodes on a shared host raise light-load latency for 10 s
#: to minutes at a time.  A reference rung twice as long as the others'
#: unit (400 requests at 20 s) is more likely to hold a quiet stretch.
REF_SHARE = 2.0
RUNG_SHARE = 0.4
#: The reference rung's reported p50 and p90 are the lowest over this many
#: equal consecutive windows of its requests (50 each, about 5 s, at 20 s):
#: a contention episode only ever raises latency, so the quietest window
#: reads the program's own latency and an episode decides nothing unless it
#: covers the whole rung.
REF_WINDOWS = 8
#: p99 limit of a passing rung, about eight batch-8 forwards on a 2-core
#: host: wide enough that the 50 req/s rung passes whatever its bursts.
P99_LIMIT_MS = 250.0
#: Rows checked against the fp64 forward of the model.
REL_ERR_ROWS = 64
TRAIN_BATCH = 32
TRAIN_SAMPLES = 2048


@dataclass
class Result:
    """What one run reports: counts, correctness and named metric values."""

    attempted: int
    failed: int
    correct: bool
    metrics: dict[str, float] = field(default_factory=dict)


def _no_span(_name: str) -> contextlib.nullcontext[None]:
    """Stand-in for ``Recorder.span`` in untraced steps and passes."""
    return contextlib.nullcontext()


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, stream])


def _conv_flops(model: Any, image: int) -> int:
    """Direct-conv FLOPs of one image through ``model``'s convolutions."""
    from repro.dlframe.trainer import conv_layer_geometries

    return sum(
        2 * oh * ow * conv.oc * conv.kernel * conv.kernel * conv.ic
        for conv, _ih, _iw, oh, ow in conv_layer_geometries(model, (1, image, image, 3))
    )


def _median_setup(build: Callable[[], Any]) -> tuple[Any, float]:
    """Run ``build`` on an empty executable cache several times.

    Returns the last build's product and the median wall time.
    """
    from repro import runtime

    times: list[float] = []
    built = None
    while len(times) < SETUP_REPEATS or sum(times) < SETUP_MIN_S:
        built = None  # free the previous build before making the next
        runtime.clear_cache()
        t0 = time.perf_counter()
        built = build()
        times.append(time.perf_counter() - t0)
    log(f"setup_s: median of {len(times)}, first {times[0]:.4f}, max {max(times):.4f}")
    return built, statistics.median(times)


# -- layer metrics shared by the traced runs ----------------------------------------


def _layer_metrics(st: SpanStats, units: int) -> dict[str, float]:
    """Per-unit times of the dlframe layers, runtime and GEMM from span totals."""
    per = 1.0 / max(units, 1)
    forwards = max(st.calls.get("model.forward", 0), 1)
    out = {
        "model.forward_ms": st.total_ms("model.forward") / forwards,
        "layer.conv2d_ms": st.self_ms("layer.conv2d") / forwards,
        "layer.batchnorm_ms": st.self_ms("layer.batchnorm") / forwards,
        "layer.relu_ms": st.self_ms("layer.relu") / forwards,
        "layer.pool_ms": st.self_ms("layer.pool") / forwards,
        "layer.linear_ms": st.self_ms("layer.linear") / forwards,
        "layer.glue_ms": st.self_ms("model.forward") / forwards,
        "runtime.convolve_ms": st.total_ms("runtime.convolve") * per,
        "runtime.convolve_calls": st.calls.get("runtime.convolve", 0) * per,
        "runtime.resolve_ms": (
            st.total_ms("runtime.signature") + st.total_ms("runtime.get_executable")
        ) * per,
        "runtime.weight_hash_ms": st.total_ms("runtime.weight_hash") * per,
        "runtime.filter_bundle_ms": (
            st.total_ms("runtime.filter_bundle") - st.total_ms("runtime.weight_hash")
        ) * per,
        "runtime.body_ms": st.self_ms("runtime.convolve") * per,
        "gemm.conv_ms": st.total_ms("gemm.conv") * per,
        "gemm.conv_calls": st.calls.get("gemm.conv", 0) * per,
        "grad.input_ms": st.total_ms("grad.input") * per,
        "grad.filter_ms": st.total_ms("grad.filter") * per,
    }
    bundles = st.calls.get("runtime.filter_bundle", 0)
    if bundles:
        out["runtime.filter_hit_ratio"] = 1.0 - st.calls.get("runtime.filter_build", 0) / bundles
    from repro import runtime

    out["runtime.exec_cache_hit_ratio"] = runtime.cache_stats().hit_rate
    return out


def _coverage(st: SpanStats, root: str) -> float:
    """Share of the unit spans' time attributed to a named layer.

    Unattributed: the unit span's own self time and the model forward's
    self time (``layer.glue_ms``: block wiring, residual adds, Sequential).
    """
    total = st.total_ns.get(root, 0)
    if not total:
        return 0.0
    return 1.0 - (st.self_ns.get(root, 0) + st.self_ns.get("model.forward", 0)) / total


def _log_uncovered(st: SpanStats) -> None:
    top = sorted(st.self_ns.items(), key=lambda kv: -kv[1])[:10]
    log("self time by span (ms): " + ", ".join(f"{k}={v / 1e6:.1f}" for k, v in top))


# -- serve workloads ----------------------------------------------------------------


def _build_service() -> tuple[Any, Any]:
    from repro.serve import InferenceService

    service = InferenceService()
    entry = service.registry.register(MODEL, width_mult=WIDTH, image=IMAGE)
    return service, entry


class _Serve:
    """A warmed service, its inputs and the accounting shared by both serve workloads."""

    def __init__(self, seed: int, stream: int) -> None:
        (self.service, self.entry), self.setup_s = _median_setup(_build_service)
        self.rng = _rng(seed, stream)
        self.inputs = self.rng.standard_normal((INPUT_ROWS, IMAGE, IMAGE, 3)).astype(np.float32)
        self.max_batch = self.service.scheduler.config.policy.max_batch_size
        self.flops_per_request = _conv_flops(self.entry.model, IMAGE)

    async def infer(self, row: np.ndarray) -> np.ndarray:
        return await self.service.infer(MODEL, row)

    def orders(self, clients: int) -> list[np.ndarray]:
        return [self.rng.permutation(INPUT_ROWS) for _ in range(clients)]

    async def warm(self) -> None:
        await closed_loop(self.infer, self.inputs, self.orders(2 * self.max_batch), WARMUP_S)

    def stats(self) -> Any:
        return self.service.scheduler.stats()

    def check(self, outcomes: list[Outcome]) -> "_ServeCheck":
        """Check every response against its row's references, after timing.

        A response is wrong unless bit-equal to the serial ``infer_rows``
        reference of its row; a request failed if it raised or came back
        wrong.  ``rel_err`` compares served rows with the fp64 forward of
        the same model.
        """
        rows = sorted({o.row for o in outcomes})
        refs = {r: self.entry.infer_rows(self.inputs[r : r + 1])[0] for r in rows}
        wrong = [o.error is None and not checks.bit_equal(o.output, refs[o.row]) for o in outcomes]
        failed = [o.error is not None or w for o, w in zip(outcomes, wrong)]
        served: dict[int, np.ndarray] = {}
        for o, w in zip(outcomes, failed):
            if not w:
                served.setdefault(o.row, o.output)
        sample = [r for r in rows if r in served][:REL_ERR_ROWS]
        if not sample:
            return _ServeCheck(failed, sum(wrong), float("inf"), float("inf"))
        ys = np.stack([served[r] for r in sample])
        ref64 = checks.model_reference(self.entry.model, self.inputs[sample])
        return _ServeCheck(
            failed, sum(wrong), checks.rel_err(ys, ref64), checks.norm_rel_err(ys, ref64)
        )


@dataclass
class _ServeCheck:
    failed: list[bool]
    wrong: int
    #: Worst element against the fp64 model (the check) ...
    max_rel_err: float
    #: ... and the normwise error (the reported ``rel_err``).
    rel_err: float

    @property
    def correct(self) -> bool:
        return self.wrong == 0 and self.max_rel_err <= checks.MODEL_REL_ERR_LIMIT


def _latencies(outcomes: list[Outcome]) -> list[float]:
    """Request latencies; a failed request misses every limit (infinite)."""
    return [o.latency_ms if o.error is None else float("inf") for o in outcomes]


def _windowed_percentiles(outcomes: list[Outcome], qs: tuple[float, ...]) -> list[float]:
    """Each percentile in ``qs`` as the lowest over ``REF_WINDOWS`` windows.

    The windows are equal runs of consecutive requests in send order.
    """
    windows = np.array_split(np.array(_latencies(outcomes)), REF_WINDOWS)
    per = [[percentile(list(w), q) for w in windows] for q in qs]
    log("reference windows: " + "; ".join(
        f"p{q:g} " + " ".join(f"{v:.1f}" for v in vs) for q, vs in zip(qs, per)
    ))
    return [min(vs) for vs in per]


def _stats_delta(before: Any, after: Any) -> tuple[int, int, dict[str, int]]:
    """(batches, rows, trigger counts) dispatched between two stats snapshots."""
    rows = sum(k * v for k, v in after.batch_sizes.items()) - sum(
        k * v for k, v in before.batch_sizes.items()
    )
    triggers = {
        k: after.batch_triggers.get(k, 0) - before.batch_triggers.get(k, 0)
        for k in ("size", "delay", "deadline")
    }
    return after.batches - before.batches, rows, triggers


async def _traced_serve(
    serve: _Serve,
    load: Callable[[float], Any],
    seconds: float,
) -> Result:
    """Traced run of a serve workload: untraced and traced quarters alternate.

    ``load(duration_s)`` drives the service and returns (outcomes, wall
    seconds, cost); ``trace.overhead_frac`` is the traced quarters' mean
    cost over the untraced quarters' minus one.  Alternating lets host
    drift hit both sides alike.
    """
    rec = Recorder()
    wrappers = Wrappers(rec)
    cost: dict[bool, list[float]] = {False: [], True: []}
    traced_out: list[Outcome] = []
    batches = rows = 0
    triggers = {"size": 0, "delay": 0, "deadline": 0}
    wall = cpu_s = 0.0
    for phase in range(4):
        on = phase % 2 == 1
        before = serve.stats()
        cpu = host.CpuClock()
        with wrappers.active() if on else contextlib.nullcontext():
            outcomes, w, c = await load(seconds / 4)
        cost[on].append(c)
        if on:
            cpu_s += cpu.ratio() * w
            wall += w
            traced_out += outcomes
            b, r, t = _stats_delta(before, serve.stats())
            batches, rows = batches + b, rows + r
            triggers = {k: triggers[k] + t[k] for k in triggers}
    check = serve.check(traced_out)
    st = span_stats(rec.spans)
    metrics = _layer_metrics(st, st.calls.get("serve.infer_rows", 0))
    # Queue wait: latency minus the infer_rows span of the batch that
    # answered the request, the last batch to end before the answer.
    ends = sorted(
        (t1 / 1e9, (t1 - t0) / 1e9) for _s, _p, n, t0, t1, _r in rec.spans
        if n == "serve.infer_rows"
    )
    end_times = [e for e, _d in ends]
    waits = []
    for o in traced_out:
        i = int(np.searchsorted(end_times, o.done, side="right")) - 1
        if o.error is None and i >= 0:
            waits.append((o.done - o.due - ends[i][1]) * 1e3)
    rows_mean = rows / batches if batches else 0.0
    ok = sum(1 for o in traced_out if o.error is None)
    metrics.update(
        {
            "serve.batch_fill": rows_mean / serve.max_batch,
            "serve.batch_rows_mean": rows_mean,
            "serve.batches": float(batches),
            **{f"serve.trigger.{k}": n / batches if batches else 0.0 for k, n in triggers.items()},
            "serve.queue_wait_p50_ms": percentile(waits, 50),
            "serve.queue_wait_p99_ms": percentile(waits, 99),
            "serve.execute_busy_frac": st.total_ns.get("serve.infer_rows", 0) / 1e9 / wall,
            "client.sent": float(len(traced_out)),
            "client.ok": float(ok),
            "client.failed": float(len(traced_out) - ok),
            "client.latency_p99_ms": percentile(_latencies(traced_out), 99),
            "client.lag_p99_ms": percentile([o.lag_s * 1e3 for o in traced_out], 99),
            "proc.cpu_per_wall": cpu_s / wall,
            "trace.coverage": _coverage(st, "serve.infer_rows"),
            "trace.overhead_frac": statistics.mean(cost[True]) / statistics.mean(cost[False]) - 1,
        }
    )
    _log_uncovered(st)
    return Result(len(traced_out), sum(check.failed), check.correct, metrics)


def serve_closed(seed: int, seconds: float, trace: bool) -> Result:
    serve = _Serve(seed, 1)
    clients = 2 * serve.max_batch

    async def main() -> Result:
        async with serve.service:
            await serve.warm()
            if trace:

                async def load(duration_s: float) -> tuple[list[Outcome], float, float]:
                    outcomes, wall = await closed_loop(
                        serve.infer, serve.inputs, serve.orders(clients), duration_s
                    )
                    return outcomes, wall, wall / len(outcomes)

                return await _traced_serve(serve, load, seconds)
            cpu = host.CpuClock()
            outcomes, wall = await closed_loop(
                serve.infer, serve.inputs, serve.orders(clients), seconds
            )
            log(f"closed loop: {len(outcomes)} requests in {wall:.2f} s, cpu/wall {cpu.ratio():.2f}")
        rss = host.peak_rss_mb()
        check = serve.check(outcomes)
        ok = len(outcomes) - sum(check.failed)
        lat = _latencies(outcomes)
        rate = ok / wall
        return Result(
            attempted=len(outcomes),
            failed=sum(check.failed),
            correct=check.correct,
            metrics={
                "setup_s": serve.setup_s,
                "peak_rss_mb": rss,
                "throughput_per_s": rate,
                "gflops": rate * serve.flops_per_request / 1e9,
                "latency_p50_ms": percentile(lat, 50),
                "latency_p90_ms": percentile(lat, 90),
                "ok_rate": ok / len(outcomes),
                "rel_err": check.rel_err,
            },
        )

    return asyncio.run(main())


def serve_open(seed: int, seconds: float, trace: bool) -> Result:
    serve = _Serve(seed, 2)
    limit_s = P99_LIMIT_MS / 1e3

    async def rung(rate: float, duration_s: float) -> Any:
        rows = serve.rng.integers(0, INPUT_ROWS, max(1, int(round(rate * duration_s))))
        # By Little's law more than ``rate * limit`` outstanding requests
        # means latency beyond the limit: the rung has failed, and waiting
        # longer would only reach the request deadline and turn a slow rung
        # into failed requests.  Never abort below four full batches, which
        # an arrival burst at a passing rate can reach.
        return await open_loop(
            serve.infer, serve.inputs, rows, rate, serve.rng,
            abort_backlog=max(4 * serve.max_batch, int(rate * limit_s)),
        )

    def verdict(run: Any) -> tuple[bool, list[float]]:
        """(passed, [p50, p90, p99]) of one rung."""
        lat = _latencies(run.outcomes)
        ps = [percentile(lat, 50), percentile(lat, 90), percentile(lat, 99)]
        # Fewer outstanding requests than one full batch are drained by the
        # next dispatch: at 10 req/s, three requests left by a late burst
        # are not a growing backlog.
        grew = run.aborted or run.backlog_at_end > max(serve.max_batch, run.rate * limit_s)
        return (ps[2] <= P99_LIMIT_MS and not grew), ps

    async def main() -> Result:
        async with serve.service:
            await serve.warm()
            if trace:
                # The 50 req/s rung, where requests can meet in the batcher.
                async def load(duration_s: float) -> tuple[list[Outcome], float, float]:
                    t0 = time.perf_counter()
                    run = await rung(OPEN_RATES[1], duration_s)
                    return run.outcomes, time.perf_counter() - t0, percentile(
                        _latencies(run.outcomes), 50
                    )

                return await _traced_serve(serve, load, seconds)
            runs = []
            top = 0  # the highest rung that passed; the reference rung if none did
            for i, rate in enumerate(OPEN_RATES):
                before = serve.stats()
                run = await rung(rate, (REF_SHARE if i == 0 else RUNG_SHARE) * seconds)
                b, r, _t = _stats_delta(before, serve.stats())
                runs.append(run)
                passed, (p50, p90, p99) = verdict(run)
                log(
                    f"rung {rate} req/s: sent {len(run.outcomes)} p50 {p50:.1f} ms "
                    f"p90 {p90:.1f} ms p99 {p99:.1f} ms backlog {run.backlog_at_end} aborted {run.aborted} "
                    f"rows/batch {r / max(b, 1):.2f} -> {'pass' if passed else 'fail'}"
                )
                if not passed:
                    break
                top = i
        rss = host.peak_rss_mb()
        outcomes = [o for run in runs for o in run.outcomes]
        check = serve.check(outcomes)
        ends = np.cumsum([len(run.outcomes) for run in runs])
        ref = runs[0].outcomes
        ref_failed = sum(check.failed[: len(ref)])
        p50, p90 = _windowed_percentiles(runs[0].outcomes, (50, 90))
        # max_rate_rps as delivered: requests answered per second at the
        # highest rung that met the limit.
        held = runs[top].outcomes
        answered = len(held) - sum(check.failed[ends[top] - len(held) : ends[top]])
        best = answered / (max(o.done for o in held) - held[0].due)
        return Result(
            attempted=len(outcomes),
            failed=sum(check.failed),
            correct=check.correct,
            metrics={
                "setup_s": serve.setup_s,
                "peak_rss_mb": rss,
                "throughput_per_s": best,
                "gflops": best * serve.flops_per_request / 1e9,
                "latency_p50_ms": p50,
                "latency_p90_ms": p90,
                "ok_rate": (len(ref) - ref_failed) / len(ref),
                "rel_err": check.rel_err,
            },
        )

    return asyncio.run(main())


# -- train-step -------------------------------------------------------------------


def train_step(seed: int, seconds: float, trace: bool) -> Result:
    from repro.dlframe.autograd import Tensor, no_grad
    from repro.dlframe.data import synthetic_cifar10
    from repro.dlframe.losses import softmax_cross_entropy
    from repro.dlframe.models.resnet import resnet18
    from repro.dlframe.optim import Adam

    train, test = synthetic_cifar10(train=TRAIN_SAMPLES, test=64, seed=seed)
    order = _rng(seed, 3)

    def batches():
        while True:
            yield from train.batches(TRAIN_BATCH, rng=order)

    feed = batches()
    first = next(feed)
    rec = Recorder()

    def step(model, opt, xb, yb, traced: bool) -> float:
        span = rec.span if traced else _no_span
        model.train()
        with span("train.step"):
            with span("train.forward"):
                logits = model(Tensor(xb))
                loss = softmax_cross_entropy(logits, yb)
            opt.zero_grad()
            with span("train.backward"):
                loss.backward()
            with span("train.optimizer"):
                opt.step()
            return float(loss.data)

    def build():
        model = resnet18(width_mult=WIDTH, engine="winograd", seed=0)
        opt = Adam(model.parameters())
        step(model, opt, *first, traced=False)  # the warm step compiles every conv
        return model, opt

    (model, opt), setup_s = _median_setup(build)
    flops_per_image = 3 * _conv_flops(model, IMAGE)  # forward, input grad, filter grad
    wrappers = Wrappers(rec)
    losses: list[float] = []
    times: dict[bool, list[float]] = {False: [], True: []}
    cpu = host.CpuClock()
    start = time.perf_counter()
    k = 0
    while time.perf_counter() - start < seconds or k < 2:
        xb, yb = next(feed)
        on = trace and k % 2 == 1
        t0 = time.perf_counter()
        with wrappers.active() if on else contextlib.nullcontext():
            losses.append(step(model, opt, xb, yb, on))
        times[on].append((time.perf_counter() - t0) * 1e3)
        k += 1
    wall = time.perf_counter() - start
    cpu_per_wall = cpu.ratio()
    rss = host.peak_rss_mb()
    bad, fell = checks.losses_ok(losses)
    log(f"train: {k} steps in {wall:.2f} s, loss {losses[0]:.3f} -> {losses[-1]:.3f}")
    xt = test.x[:REL_ERR_ROWS]
    model.eval()
    with no_grad():
        y32 = model(Tensor(xt)).data
    ref64 = checks.model_reference(model, xt)
    err = checks.norm_rel_err(y32, ref64)
    correct = bad == 0 and fell and checks.rel_err(y32, ref64) <= checks.MODEL_REL_ERR_LIMIT
    if trace:
        st = span_stats(rec.spans)
        steps = len(times[True])
        metrics = _layer_metrics(st, steps)
        metrics.update(
            {
                "train.forward_ms": st.total_ms("train.forward") / steps,
                "train.backward_ms": st.total_ms("train.backward") / steps,
                "train.optimizer_ms": st.total_ms("train.optimizer") / steps,
                "proc.cpu_per_wall": cpu_per_wall,
                "trace.coverage": _coverage(st, "train.step"),
                "trace.overhead_frac": statistics.median(durations_ms(rec.spans, "train.step"))
                / statistics.median(times[False])
                - 1.0,
            }
        )
        _log_uncovered(st)
        return Result(k, bad, correct, metrics)
    step_ms = times[False]
    rate = TRAIN_BATCH * k / wall
    return Result(
        attempted=k,
        failed=bad,
        correct=correct,
        metrics={
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "throughput_per_s": rate,
            "gflops": rate * flops_per_image / 1e9,
            "latency_p50_ms": percentile(step_ms, 50),
            "latency_p90_ms": percentile(step_ms, 90),
            "ok_rate": (k - bad) / k,
            "rel_err": err,
        },
    )


# -- conv-layers ------------------------------------------------------------------


def conv_layers(seed: int, seconds: float, trace: bool) -> Result:
    from repro import runtime
    from repro.baselines.gemm import conv2d_gemm
    from repro.core.kernels import default_alpha_for_width

    rng = _rng(seed, 4)
    ops = []
    for n, hw, ic, oc, k in CONV_SHAPES:
        x = rng.standard_normal((n, hw, hw, ic)).astype(np.float32)
        w = (rng.standard_normal((oc, k, k, ic)) * np.sqrt(2.0 / (k * k * ic))).astype(np.float32)
        ops.append((x, w))
    pass_flops = sum(
        2 * n * hw * hw * oc * k * k * ic for n, hw, ic, oc, k in CONV_SHAPES
    )

    def first_calls() -> None:
        for x, w in ops:
            runtime.convolve(x, w)

    _, setup_s = _median_setup(first_calls)
    rec = Recorder()
    wrappers = Wrappers(rec)
    outputs: list[np.ndarray] = [np.empty(0)] * len(ops)
    pass_ms: dict[bool, list[float]] = {False: [], True: []}
    budget = seconds / 2 if trace else seconds
    cpu = host.CpuClock()
    start = time.perf_counter()
    p = 0
    while time.perf_counter() - start < budget or p < 2:
        on = trace and p % 2 == 1
        t0 = time.perf_counter()
        with wrappers.active() if on else contextlib.nullcontext():
            with (rec.span if on else _no_span)("conv.pass"):
                for i, (x, w) in enumerate(ops):
                    outputs[i] = runtime.convolve(x, w)
        pass_ms[on].append((time.perf_counter() - t0) * 1e3)
        p += 1
    wall = time.perf_counter() - start
    cpu_per_wall = cpu.ratio()
    rss = host.peak_rss_mb()

    pair_ms: list[tuple[list[float], list[float]]] = [([], []) for _ in ops]
    if trace:
        # Runtime vs the GEMM engine on the same operands, interleaved per shape.
        start = time.perf_counter()
        while time.perf_counter() - start < seconds / 2:
            for (x, w), (rt, gm), shape in zip(ops, pair_ms, CONV_SHAPES):
                k = shape[4]
                t0 = time.perf_counter()
                runtime.convolve(x, w)
                t1 = time.perf_counter()
                conv2d_gemm(x, w, ph=k // 2, pw=k // 2)
                t2 = time.perf_counter()
                rt.append((t1 - t0) * 1e3)
                gm.append((t2 - t1) * 1e3)

    norm_errs = []
    bad_shapes = 0
    for (x, w), y, shape in zip(ops, outputs, CONV_SHAPES):
        k = shape[4]
        ref = checks.conv_reference(x, w, ph=k // 2, pw=k // 2)
        err = checks.rel_err(y, ref)
        bound = checks.conv_error_bound(k, default_alpha_for_width(k))
        bad_shapes += not err <= bound
        norm_errs.append(checks.norm_rel_err(y, ref))
        log(f"{conv_label(shape)}: max rel err {err:.2e} (bound {bound:.2e})")
    calls = p * len(ops)
    failed = bad_shapes * p
    correct = bad_shapes == 0
    if trace:
        st = span_stats(rec.spans)
        passes = st.calls.get("conv.pass", 0)
        metrics = _layer_metrics(st, passes)
        for shape, (rt, gm) in zip(CONV_SHAPES, pair_ms):
            metrics[f"{conv_label(shape)}.runtime_ms"] = statistics.median(rt) if rt else 0.0
            metrics[f"{conv_label(shape)}.gemm_ms"] = statistics.median(gm) if gm else 0.0
        metrics.update(
            {
                "proc.cpu_per_wall": cpu_per_wall,
                "trace.coverage": _coverage(st, "conv.pass"),
                "trace.overhead_frac": statistics.median(durations_ms(rec.spans, "conv.pass"))
                / statistics.median(pass_ms[False])
                - 1.0,
            }
        )
        _log_uncovered(st)
        return Result(calls, failed, correct, metrics)
    times = pass_ms[False]
    median_ms = statistics.median(times)
    log(f"conv: {p} passes in {wall:.2f} s, median pass {median_ms:.2f} ms")
    return Result(
        attempted=calls,
        failed=failed,
        correct=correct,
        metrics={
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "throughput_per_s": calls / wall,
            "gflops": pass_flops / (median_ms / 1e3) / 1e9,
            "latency_p50_ms": median_ms,
            "latency_p90_ms": percentile(times, 90),
            "ok_rate": (calls - failed) / calls,
            "rel_err": statistics.mean(norm_errs),
        },
    )


WORKLOADS: dict[str, Callable[[int, float, bool], Result]] = {
    "serve-closed": serve_closed,
    "serve-open": serve_open,
    "train-step": train_step,
    "conv-layers": conv_layers,
}
