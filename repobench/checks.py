"""Output checks.  Every check here can fail; the tests corrupt outputs to prove it.

References are computed after the timed phase: one large BLAS or fp64 call
early in a process changes the speed of every later conv (allocator and
BLAS buffer state), so a reference computed first would change what the
timed phase measures.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Sequence

import numpy as np

#: Headroom over the a-priori Winograd error proxy.  The proxy bounds the
#: mean elementwise error; the check takes the worst element of a whole
#: output map, which sits a few times above the mean.
CONV_BOUND_FACTOR = 8.0

#: Ceiling on the conv bound.  The proxy of Gamma16 schemes exceeds 1 (the
#: transform-matrix magnitude disparity of §6.2.2), where it would accept
#: any output; a wrong tile or filter gives errors of order 1.
CONV_BOUND_CAP = 1e-2

#: Largest relative error of a whole-model fp32 forward against its fp64
#: reference that still counts as correct.  The served resnet18 stays near
#: 1e-6 (measured); a wrong tile or filter is orders above.
MODEL_REL_ERR_LIMIT = 1e-4


def rel_err(y: np.ndarray, ref: np.ndarray) -> float:
    """``max|y - ref| / max|ref|``; infinite when ``y`` is not finite."""
    y64 = np.asarray(y, dtype=np.float64)
    if y64.shape != ref.shape or not np.all(np.isfinite(y64)):
        return float("inf")
    scale = float(np.max(np.abs(ref)))
    return float(np.max(np.abs(y64 - ref))) / (scale if scale > 0 else 1.0)


def norm_rel_err(y: np.ndarray, ref: np.ndarray) -> float:
    """Normwise relative error ``||y - ref|| / ||ref||``; infinite if ``y`` is not finite.

    Unlike the worst-element :func:`rel_err` the checks use, it averages
    over every element, so it reads the same from seed to seed: the
    accuracy figure that is reported.
    """
    y64 = np.asarray(y, dtype=np.float64)
    if y64.shape != ref.shape or not np.all(np.isfinite(y64)):
        return float("inf")
    scale = float(np.linalg.norm(ref))
    return float(np.linalg.norm(y64 - ref)) / (scale if scale > 0 else 1.0)


def bit_equal(a: np.ndarray | None, b: np.ndarray) -> bool:
    """Same shape, dtype and bytes (NaN-safe, unlike ``==``).

    The serve registry promises the same bits whatever batch a row shares
    (the batch-composition contract), so every response must be bit-equal
    to ``RegisteredModel.infer_rows`` of its row alone.
    """
    return (
        a is not None
        and a.shape == b.shape
        and a.dtype == b.dtype
        and np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes()
    )


def conv_error_bound(fw: int, alpha: int) -> float:
    """Relative-error bound for a ``Gamma_alpha`` conv of filter width ``fw``.

    Derived from :func:`repro.core.erroranalysis.predicted_error_scale` of
    the scheme ``F(alpha - fw + 1, fw)`` the runtime runs.
    """
    from repro.core.erroranalysis import predicted_error_scale

    scale = predicted_error_scale(alpha - fw + 1, fw, dtype=np.float32)
    return min(CONV_BOUND_FACTOR * scale, CONV_BOUND_CAP)


def conv_reference(x: np.ndarray, w: np.ndarray, *, ph: int, pw: int, stride: int = 1) -> np.ndarray:
    """fp64 direct convolution, the accuracy ground truth."""
    from repro.baselines.direct import conv2d_direct

    return conv2d_direct(x, w, ph=ph, pw=pw, stride=stride, dtype=np.float64)


@contextlib.contextmanager
def _fp64_convs() -> Iterator[None]:
    """Route every dlframe conv through the fp64 direct reference."""
    from repro.dlframe import layers

    saved = layers.runtime_convolve, layers.conv2d_gemm

    def direct(x, w, *, ph=0, pw=0, stride=1, **_):
        return conv_reference(x, w, ph=ph, pw=pw, stride=stride)

    layers.runtime_convolve = direct
    layers.conv2d_gemm = direct
    try:
        yield
    finally:
        layers.runtime_convolve, layers.conv2d_gemm = saved


def model_reference(model, x: np.ndarray) -> np.ndarray:
    """fp64 forward of ``model`` in eval mode: direct convs, fp64 activations."""
    from repro.dlframe.autograd import Tensor, no_grad

    was_training = model.training
    model.eval()
    try:
        with no_grad(), _fp64_convs():
            return model(Tensor(np.asarray(x, dtype=np.float64))).data
    finally:
        model.train(was_training)


def losses_ok(losses: Sequence[float]) -> tuple[int, bool]:
    """(non-finite step count, whether the loss fell over the run).

    "Fell" compares the mean of the last tenth of the steps with the first
    tenth (at least one step each).
    """
    bad = sum(1 for v in losses if not np.isfinite(v))
    k = max(1, len(losses) // 10)
    finite = [v for v in losses if np.isfinite(v)]
    fell = len(finite) == len(losses) and len(losses) >= 2 and (
        float(np.mean(losses[-k:])) < float(np.mean(losses[:k]))
    )
    return bad, fell
