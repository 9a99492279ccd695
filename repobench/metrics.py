"""Metric names and units, one table for ``run.py`` and the tests.

Every run prints every metric of its mode: the end-to-end set untraced,
the per-layer set traced.  A per-layer metric that does not apply to a
workload (``train.*`` on a serve workload, say) reads 0.
"""

from __future__ import annotations

END_TO_END: dict[str, str] = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "gflops": "GFLOP/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_rate": "ratio",
    "rel_err": "ratio",
}

#: The ``conv-layers`` set: (batch, height = width, in channels, out channels,
#: filter edge).  3x3 layers at b1 run Gamma8(6,3); the 5x5 runs
#: Gamma8(4,5), the 7x7 Gamma16(10,7); the b8 rows are the four 3x3 shapes
#: of the served resnet18 (w=0.125, 32x32 input).
CONV_SHAPES: tuple[tuple[int, int, int, int, int], ...] = (
    (1, 64, 64, 64, 3),
    (1, 32, 128, 128, 3),
    (1, 16, 256, 256, 3),
    (1, 8, 512, 512, 3),
    (1, 32, 64, 64, 5),
    (1, 32, 64, 64, 7),
    (8, 32, 8, 8, 3),
    (8, 16, 16, 16, 3),
    (8, 8, 32, 32, 3),
    (8, 4, 64, 64, 3),
)


def conv_label(shape: tuple[int, int, int, int, int]) -> str:
    """Metric-name stem of one conv-layers shape, e.g. ``conv.b1.64x64x64-64.k3``."""
    n, hw, ic, oc, k = shape
    return f"conv.b{n}.{hw}x{hw}x{ic}-{oc}.k{k}"


_LAYER_METRICS: dict[str, str] = {
    "serve.batch_fill": "ratio",
    "serve.batch_rows_mean": "rows",
    "serve.batches": "count",
    "serve.trigger.size": "ratio",
    "serve.trigger.delay": "ratio",
    "serve.trigger.deadline": "ratio",
    "serve.queue_wait_p50_ms": "ms",
    "serve.queue_wait_p99_ms": "ms",
    "serve.execute_busy_frac": "ratio",
    "model.forward_ms": "ms",
    "layer.conv2d_ms": "ms",
    "layer.batchnorm_ms": "ms",
    "layer.relu_ms": "ms",
    "layer.pool_ms": "ms",
    "layer.linear_ms": "ms",
    "layer.glue_ms": "ms",
    "runtime.convolve_ms": "ms",
    "runtime.convolve_calls": "count",
    "runtime.resolve_ms": "ms",
    "runtime.weight_hash_ms": "ms",
    "runtime.filter_bundle_ms": "ms",
    "runtime.filter_hit_ratio": "ratio",
    "runtime.exec_cache_hit_ratio": "ratio",
    "runtime.body_ms": "ms",
    "gemm.conv_ms": "ms",
    "gemm.conv_calls": "count",
    "train.forward_ms": "ms",
    "train.backward_ms": "ms",
    "train.optimizer_ms": "ms",
    "grad.input_ms": "ms",
    "grad.filter_ms": "ms",
    "client.sent": "count",
    "client.ok": "count",
    "client.failed": "count",
    "client.latency_p99_ms": "ms",
    "client.lag_p99_ms": "ms",
    "proc.cpu_per_wall": "ratio",
    "trace.coverage": "ratio",
    "trace.overhead_frac": "ratio",
}

PER_LAYER: dict[str, str] = dict(_LAYER_METRICS)
for _shape in CONV_SHAPES:
    PER_LAYER[f"{conv_label(_shape)}.runtime_ms"] = "ms"
    PER_LAYER[f"{conv_label(_shape)}.gemm_ms"] = "ms"
