"""Runtime entry point and execution configuration.

:func:`convolve` is the compiled-execution twin of
:func:`repro.core.fused.conv2d_im2col_winograd`: same operands, same
defaults, same error surface, bit-identical results — but the signature is
resolved through the process-wide executable cache, so planning, transform
matrices, gather descriptors, einsum paths and (per weight content hash)
the filter transforms are all reused across calls.

:class:`ExecutionConfig` carries the execution knob ``workspace_bytes``,
which bounds the per-chunk intermediate footprint.  It only changes how a
batch is split, never the arithmetic — results stay bit-identical.

:func:`force_legacy` is the serving layer's graceful-degradation hatch: a
thread-local scope under which :func:`convolve` bypasses the compiled
executable entirely and runs the interpreted reference path
(``conv2d_im2col_winograd(..., legacy=True)``).  A server that catches an
exception out of a compiled executable can replay the batch under this
scope and still answer the request (bit-identical results, just slower).
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..obs import counter_add
from ..obs.perfledger import record_execution
from ..obs.tracer import enabled as _obs_enabled
from .cache import get_executable, global_cache
from .executable import FilterBundle
from .signature import ConvSignature

__all__ = [
    "ExecutionConfig",
    "configure",
    "convolve",
    "default_config",
    "force_legacy",
    "legacy_forced",
]

#: Default bound on per-chunk intermediates (gathered region + V + P).  Large
#: batches are split so the transform-domain workspace stays cache-friendly
#: instead of scaling with N.
DEFAULT_WORKSPACE_BYTES = 256 * 1024 * 1024


@dataclass
class ExecutionConfig:
    """Dispatch knobs for compiled execution (arithmetic-neutral)."""

    workspace_bytes: int = DEFAULT_WORKSPACE_BYTES


_DEFAULT = ExecutionConfig()

#: Thread-local degradation flag: set by :func:`force_legacy`, honoured by
#: :func:`convolve`.  Thread-local (not process-wide) so a server degrading
#: one batch does not slow the batches other workers are executing.
_DEGRADED = threading.local()


def default_config() -> ExecutionConfig:
    """The process-wide execution configuration."""
    return _DEFAULT


def legacy_forced() -> bool:
    """Whether the calling thread is inside a :func:`force_legacy` scope."""
    return getattr(_DEGRADED, "on", False)


@contextlib.contextmanager
def force_legacy() -> Iterator[None]:
    """Route this thread's :func:`convolve` calls through the legacy path.

    The interpreted reference implementation shares no compiled state with
    the runtime (no executable cache, no filter-transform cache), so it
    stays available even when a compiled executable is failing — the
    serving layer's graceful-degradation contract.  Nestable
    and exception-safe; counts ``runtime.degraded.calls`` per bypassed call.
    """
    prev = getattr(_DEGRADED, "on", False)
    _DEGRADED.on = True
    try:
        yield
    finally:
        _DEGRADED.on = prev


def configure(
    *,
    workspace_bytes: int | None = None,
    cache_capacity: int | None = None,
) -> ExecutionConfig:
    """Adjust the process-wide runtime configuration in place.

    ``workspace_bytes`` bounds the per-chunk intermediates a batch is split
    by; ``cache_capacity`` resizes the executable LRU.
    Returns the active config for inspection.
    """
    if workspace_bytes is not None:
        if workspace_bytes < 1:
            raise ValueError(f"workspace_bytes must be >= 1, got {workspace_bytes}")
        _DEFAULT.workspace_bytes = workspace_bytes
    if cache_capacity is not None:
        global_cache().resize(cache_capacity)
    return _DEFAULT


def _calibration_generation() -> int:
    from ..gpusim import calibrate  # lazy: keep gpusim below runtime at import

    return calibrate.generation()


@functools.lru_cache(maxsize=128)
def _legacy_coeffs(sig: ConvSignature, generation: int) -> tuple[float, float]:
    """(constant ns, per-row ns) prediction for a degraded (legacy) call.

    The legacy path deliberately shares no compiled state, so the affine
    coefficients the executable caches are recomputed here from the plan —
    memoized per signature and calibration generation.
    """
    from ..core.planner import plan_convolution
    from ..gpusim import calibrate
    from ..nhwc.tensor import ConvShape

    shape = ConvShape(
        batch=1, ih=sig.ih, iw=sig.iw, ic=sig.ic, oc=sig.oc,
        fh=sig.fh, fw=sig.fw, ph=sig.ph, pw=sig.pw, stride=1,
    )
    plan = plan_convolution(shape, alpha=sig.alpha, variant=sig.variant)
    model = calibrate.resolve_model()
    p1 = model.predict_ns(calibrate.conv_features(plan, 1))
    p2 = model.predict_ns(calibrate.conv_features(plan, 2))
    return 2.0 * p1 - p2, p2 - p1


def convolve(
    x: np.ndarray,
    w: np.ndarray,
    *,
    ph: int | None = None,
    pw: int | None = None,
    alpha: int | None = None,
    variant: str = "base",
    dtype: np.dtype | type | str = np.float32,
    bundle: FilterBundle | None = None,
) -> np.ndarray:
    """Unit-stride conv through the compiled-plan runtime.

    Drop-in equivalent of
    :func:`repro.core.fused.conv2d_im2col_winograd` (bit-identical outputs,
    identical validation errors).  ``bundle`` supplies pre-resolved filter
    operands (frozen layers); without it the filters are resolved through
    the executable's content-hashed filter cache.

    Inside a :func:`force_legacy` scope the call bypasses the compiled
    executable and runs the interpreted reference path instead (same bits,
    none of the cached state; ``bundle`` is ignored and ``w`` transformed
    afresh) — the degradation hatch the serving layer uses when a compiled
    executable raises, frozen models included.
    """
    if legacy_forced():
        from ..core.fused import conv2d_im2col_winograd  # lazy: import cycle

        counter_add("runtime.degraded.calls")
        if not _obs_enabled():
            return conv2d_im2col_winograd(
                x, w, ph=ph, pw=pw, alpha=alpha, variant=variant, dtype=dtype,
                legacy=True,
            )
        # Degraded calls are ledgered too (path="legacy"): the drift monitor
        # is most interesting exactly when the compiled path is failing.
        sig = ConvSignature.for_operands(
            x, w, ph=ph, pw=pw, alpha=alpha, variant=variant, dtype=dtype
        )
        t0 = time.perf_counter_ns()
        y = conv2d_im2col_winograd(
            x, w, ph=ph, pw=pw, alpha=alpha, variant=variant, dtype=dtype, legacy=True
        )
        measured = float(time.perf_counter_ns() - t0)
        const, per_row = _legacy_coeffs(sig, _calibration_generation())
        record_execution(
            signature=sig.label,
            variant=sig.variant,
            rows=x.shape[0],
            path="legacy",
            predicted_ns=const + per_row * x.shape[0],
            measured_ns=measured,
        )
        return y
    sig = ConvSignature.for_operands(
        x, w, ph=ph, pw=pw, alpha=alpha, variant=variant, dtype=dtype
    )
    exe = get_executable(sig)
    return exe(x, w, bundle=bundle)
