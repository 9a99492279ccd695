"""Differential test of the conv envelope: runtime vs legacy vs fp64 direct.

Hypothesis draws convolutions across the whole supported envelope — every
registered ``Gamma_alpha`` kernel, every width padding ``0 <= pw < FW``,
output widths below the tile width (GEMM-only plans), single-channel
problems, channel depths of 65-130 (so the last ``DEFAULT_BLOCK_IC``
channel block is ragged) and batches of 1-3 — and checks two contracts:

* the compiled runtime equals the interpreted legacy path bit for bit;
* both stay within the a-priori forward-error scale of
  :func:`repro.core.erroranalysis.predicted_error_scale` of the fp64 direct
  convolution, measured against the magnitude of the products
  (``|x| * |w|``), which is what that proxy bounds.  The proxy is loose by
  orders of magnitude for ``alpha = 16``; the bit-identity half is the
  sharp check there.
"""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import runtime
from repro.baselines import conv2d_direct
from repro.core.erroranalysis import predicted_error_scale
from repro.core.fused import conv2d_im2col_winograd
from repro.core.kernels import KernelId, registered_kernels

KERNELS = registered_kernels()


@st.composite
def conv_problems(draw):
    kernel: KernelId = draw(st.sampled_from(KERNELS))
    fw, n = kernel.r, kernel.spec.n
    fh = draw(st.integers(1, 3))
    pw = draw(st.integers(0, fw - 1))
    ph = draw(st.integers(0, fh - 1))
    # Output widths from below one tile (GEMM-only plan) to two tiles plus
    # a ragged tail; the input extent follows from the padding.
    ow = draw(st.integers(1, 2 * n + 2))
    iw = max(1, ow + fw - 1 - 2 * pw)
    ih = max(1, draw(st.integers(1, 3)) + fh - 1 - 2 * ph)
    ic = draw(st.one_of(st.just(1), st.integers(2, 8), st.integers(65, 130)))
    oc = draw(st.one_of(st.just(1), st.integers(2, 4)))
    batch = draw(st.integers(1, 3))
    seed = draw(st.integers(0, 2**32 - 1))
    return kernel, (batch, ih, iw, ic), (oc, fh, fw, ic), ph, pw, seed


def _run(problem):
    kernel, xshape, wshape, ph, pw, seed = problem
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(xshape).astype(np.float32)
    w = rng.standard_normal(wshape).astype(np.float32)
    kw = dict(ph=ph, pw=pw, alpha=kernel.spec.alpha, variant=kernel.variant)
    return x, w, runtime.convolve(x, w, **kw), conv2d_im2col_winograd(x, w, legacy=True, **kw)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(conv_problems())
# On the widest filter: IC = OC = 1, the deepest ragged channel block, and
# a GEMM-only plan (OW = 5 < n = 8).
@example((KERNELS[-1], (1, 9, 9, 1), (1, 3, 9, 1), 1, 4, 0))
@example((KERNELS[-1], (2, 3, 20, 130), (2, 3, 9, 130), 1, 0, 1))
@example((KERNELS[-1], (1, 2, 5, 3), (2, 1, 9, 3), 0, 4, 2))
def test_runtime_equals_legacy_and_fp64_within_predicted_scale(problem):
    kernel, _, _, ph, pw, _ = problem
    x, w, got, legacy = _run(problem)
    np.testing.assert_array_equal(got, legacy)

    want = conv2d_direct(x, w, ph=ph, pw=pw, dtype=np.float64)
    magnitude = conv2d_direct(np.abs(x), np.abs(w), ph=ph, pw=pw, dtype=np.float64)
    err = float(np.abs(got - want).max()) / float(magnitude.max())
    # The primary kernel has the largest scale in its plan: boundary
    # segments fall back to smaller alpha, and the GEMM tail to plain dots.
    assert err <= predicted_error_scale(kernel.spec.n, kernel.r), (kernel.name, err)
