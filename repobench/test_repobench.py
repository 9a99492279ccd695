"""Tests of the benchmark itself: every output check fires on a corrupted output.

Run from the repository root with ``python3 -m pytest repobench -q``.
"""

from __future__ import annotations

import asyncio
import json
import re
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import loadgen  # noqa: E402
import metrics  # noqa: E402
import tracing  # noqa: E402


@pytest.fixture(scope="module")
def served():
    from repro.serve import ModelRegistry

    registry = ModelRegistry()
    entry = registry.register("resnet18", width_mult=0.125)
    x = np.random.default_rng(0).standard_normal((3, 32, 32, 3)).astype(np.float32)
    return entry, x


def _flip_last_bit(a: np.ndarray) -> np.ndarray:
    b = a.copy()
    b.view(np.uint32).flat[0] ^= 1
    return b


def test_serve_bit_check_accepts_batched_rows_and_fires_on_one_flipped_bit(served):
    entry, x = served
    batched = entry.infer_rows(x)
    for i in range(len(x)):
        ref = entry.infer_rows(x[i : i + 1])[0]
        assert checks.bit_equal(batched[i], ref)
        assert not checks.bit_equal(_flip_last_bit(batched[i]), ref)
    assert not checks.bit_equal(None, batched[0])


def test_model_reference_check_fires_on_a_corrupted_logit(served):
    entry, x = served
    y = entry.infer_rows(x)
    ref = checks.model_reference(entry.model, x)
    assert checks.rel_err(y, ref) <= checks.MODEL_REL_ERR_LIMIT
    bad = y.copy()
    bad[1, 3] += 1e-3 * np.abs(y).max()
    assert checks.rel_err(bad, ref) > checks.MODEL_REL_ERR_LIMIT


@pytest.mark.parametrize("k", [3, 5, 7])
def test_conv_bound_holds_and_fires_on_a_corrupted_tile(k):
    from repro import runtime
    from repro.core.kernels import default_alpha_for_width

    rng = np.random.default_rng(k)
    x = rng.standard_normal((1, 16, 16, 8)).astype(np.float32)
    w = rng.standard_normal((8, k, k, 8)).astype(np.float32)
    y = runtime.convolve(x, w)
    ref = checks.conv_reference(x, w, ph=k // 2, pw=k // 2)
    bound = checks.conv_error_bound(k, default_alpha_for_width(k))
    assert checks.rel_err(y, ref) <= bound
    bad = y.copy()
    bad[0, 4:6, 4:10, :] = 0.0  # one lost output tile
    assert checks.rel_err(bad, ref) > bound
    bad[0, 0, 0, 0] = np.nan
    assert checks.rel_err(bad, ref) == float("inf")


def test_loss_check_fires_on_nan_and_on_a_loss_that_does_not_fall():
    assert checks.losses_ok([2.3, 2.0, 1.5, 1.0]) == (0, True)
    assert checks.losses_ok([2.3, float("nan"), 1.5, 1.0]) == (1, False)
    assert checks.losses_ok([2.3, 2.4, 2.5, 2.6]) == (0, False)


def test_self_time_subtracts_direct_children():
    rec = tracing.Recorder()
    with rec.span("outer"):
        time.sleep(0.002)
        with rec.span("inner"):
            time.sleep(0.004)
    st = tracing.span_stats(rec.spans)
    assert st.calls == {"outer": 1, "inner": 1}
    assert st.self_ns["outer"] == st.total_ns["outer"] - st.total_ns["inner"]
    (inner,) = [s for s in rec.spans if s[2] == "inner"]
    (outer,) = [s for s in rec.spans if s[2] == "outer"]
    assert inner[1] == outer[0] and inner[5] == outer[0]  # parent and root


def test_wrappers_restore_every_original_function():
    targets = tracing._layer_targets()

    def current():
        from repro.runtime.signature import ConvSignature

        got = [o.__dict__[a] if isinstance(o, type) else getattr(o, a) for o, a, _ in targets]
        return got + [ConvSignature.__dict__["for_operands"]]

    before = current()
    wrappers = tracing.Wrappers(tracing.Recorder())
    with wrappers.active():
        during = current()
    assert all(a is not b for a, b in zip(before, during))
    assert all(a is b for a, b in zip(before, current()))


def test_wrapped_runtime_conv_records_the_runtime_layers():
    from repro import runtime

    rec = tracing.Recorder()
    x = np.ones((1, 8, 8, 4), np.float32)
    w = np.ones((4, 3, 3, 4), np.float32)
    with tracing.Wrappers(rec).active():
        y = runtime.convolve(x, w)
    np.testing.assert_array_equal(y, runtime.convolve(x, w))
    names = {s[2] for s in rec.spans}
    assert {"runtime.convolve", "runtime.signature", "runtime.get_executable",
            "runtime.filter_bundle", "runtime.weight_hash"} <= names


def test_open_loop_times_requests_from_when_they_were_due():
    """A stalled event loop delays later sends; their latency must show it."""

    async def stalling_infer(row):
        time.sleep(0.03)  # blocks the loop, as a stuck generator would
        return row

    rows = np.zeros(10, dtype=int)
    inputs = np.zeros((1, 1))
    run = asyncio.run(
        loadgen.open_loop(
            stalling_infer, inputs, rows, 100.0, np.random.default_rng(0), abort_backlog=100
        )
    )
    assert len(run.outcomes) == 10 and not run.aborted
    # The stalls make the generator send late; the lateness counts as latency.
    assert max(o.lag_s for o in run.outcomes) > 0.01
    assert all(o.latency_ms >= (o.done - o.sent) * 1e3 for o in run.outcomes)
    # Ten 30 ms stalls against a ~100 ms schedule: the last answers wait ~200 ms.
    assert max(o.latency_ms for o in run.outcomes) > 150


def test_reference_latency_reads_the_quietest_window():
    """A slow stretch of the reference rung must not decide its p50 and p90."""
    import workloads

    n = 50 * workloads.REF_WINDOWS
    outcomes = [
        loadgen.Outcome(row=0, due=0.0, sent=0.0, done=(20.0 + i % 50 / 10) / 1e3)
        for i in range(n)
    ]
    for o in outcomes[: n // 2]:  # an episode over the first half tripled latency
        o.done *= 3
    p50, p90 = workloads._windowed_percentiles(outcomes, (50, 90))
    quiet = [o.latency_ms for o in outcomes[n // 2 :]]
    assert p50 == pytest.approx(loadgen.percentile(quiet, 50))
    assert p90 == pytest.approx(loadgen.percentile(quiet, 90))
    # A failed request misses every limit, in every window.
    for o in outcomes[::5]:
        o.error = "Rejected"
    assert workloads._windowed_percentiles(outcomes, (90,)) == [float("inf")]


def test_metric_tables_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == metrics.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == metrics.PER_LAYER
    for name in list(metrics.END_TO_END) + list(metrics.PER_LAYER):
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name
