"""The fused Im2col-Winograd convolution ``Gamma_alpha(n, r)``.

This is the paper's primary contribution (§4.1), expressed as vectorised
NumPy.  The two stages are:

Stage 1 (Im2col)
    A pure index mapping from the NHWC ifms to the GEMM operand layout; it is
    never materialised — the tile gather in :mod:`repro.nhwc.tiles` reads the
    ifms through the same index arithmetic the CUDA kernels encode in their
    load addresses, which is what makes the algorithm "fused": zero auxiliary
    global workspace.

Stage 2 (Winograd)
    For each ``n``-wide output tile, 1D Winograd ``F(n, r)`` is applied to
    every ``(fh, ic)`` 1D convolution and *accumulated in the transform
    domain*: because the output transform ``A^T`` is linear, the kernel keeps
    ``alpha`` running states per tile (the 64-element ``accumulator`` of
    Algorithms 1/2) and applies ``A^T`` exactly once at the end::

        acc[k] = sum_{fh, ic} (G w[oc, fh, :, ic])[k] * (D^T x_tile[fh, ic])[k]
        y[tile] = A^T acc

    The channel loop is blocked by ``BK`` columns (the cache-blocking of
    §5.1); on the GPU the block size is 8 — here it is
    :data:`DEFAULT_BLOCK_IC`, which bounds the float32 error growth with IC.

Boundary columns are handled by the §5.5 segmentation: the planner splits OW
into kernel-owned segments plus a GEMM tail, and this module runs each
segment independently (no masking, no redundant flops).

Only unit stride is supported, as in the paper; strided convolutions belong
to the GEMM path (see :mod:`repro.core.planner`).
"""

from __future__ import annotations

import numpy as np

from ..nhwc.tensor import im2col_nhwc
from ..nhwc.tiles import extract_width_tiles
from ..obs import counter_add, span
from .boundary import Segment, plan_width_segments
from .kernels import KernelId, get_kernel
from .transforms import TransformMatrices, winograd_matrices

__all__ = ["conv2d_im2col_winograd", "winograd_segment", "gemm_segment", "gemm_input_strip"]

#: Channel-block depth mirroring the kernels' BK-blocked IC loop, shared by
#: the interpreted path and the compiled runtime.  On the GPU BK=8 bounds
#: SMEM; here blocking bounds the float32 error growth with IC, which
#: accumulating the full depth at once would not (EXPERIMENTS.md, "Channel
#: blocking").
DEFAULT_BLOCK_IC = 64


def conv2d_im2col_winograd(
    x: np.ndarray,
    w: np.ndarray,
    *,
    ph: int | None = None,
    pw: int | None = None,
    alpha: int | None = None,
    variant: str = "base",
    dtype: np.dtype | type = np.float32,
    legacy: bool = False,
) -> np.ndarray:
    """Unit-stride 2D convolution via fused Im2col-Winograd.

    Parameters
    ----------
    x:
        ifms ``(N, IH, IW, IC)``, NHWC.
    w:
        Filters ``(OC, FH, FW, IC)``.
    ph, pw:
        Zero padding; defaults to the paper's standard ``⌊r/2⌋`` on each axis
        (``r`` the respective filter extent).  The kernels are specialised
        for ``pw <= ⌊FW/2⌋`` (§5.1) but remain correct for any ``pw < FW``
        thanks to the implicit-padding tile gather.
    alpha:
        Winograd state count (4, 8 or 16).  Defaults to the per-width choice
        of :func:`repro.core.kernels.default_alpha_for_width`.
    variant:
        ``"base"``, ``"ruse"`` or ``"c64"`` — numerically identical (§5.4/
        §5.6 change blocking, not arithmetic); accepted so callers can keep a
        single code path with the performance model.
    dtype:
        Computation dtype (``float32`` matches the paper's kernels).
    legacy:
        ``False`` (default) resolves the call through the compiled-plan
        runtime (:mod:`repro.runtime`): cached boundary plan, transform
        matrices, filter transforms and einsum paths, with the Winograd
        stage gathered and input-transformed once per segment.  ``True``
        forces the original interpreted path (re-planned per call, explicit
        per-``(fh, channel block)`` accumulation loop) — the reference the
        runtime is tested bit-identical against.

    Returns
    -------
    ofms ``(N, OH, OW, OC)`` in ``dtype``.
    """
    # Lazy: the runtime imports core at load.
    from ..runtime import ConvSignature, convolve

    if not legacy:
        return convolve(x, w, ph=ph, pw=pw, alpha=alpha, variant=variant, dtype=dtype)
    # The runtime's envelope checks (padding, fp16 at alpha=16, registered
    # kernel, non-empty output) and defaults, so both paths fail alike.
    sig = ConvSignature.for_operands(
        x, w, ph=ph, pw=pw, alpha=alpha, variant=variant, dtype=dtype
    )
    ph, pw, alpha = sig.ph, sig.pw, sig.alpha
    oc, fh, fw, ic = w.shape
    primary = get_kernel(alpha, fw, variant)

    x = np.asarray(x, dtype=dtype)
    w = np.asarray(w, dtype=dtype)
    n_, ih, iw = x.shape[:3]
    oh, ow = sig.oh, sig.ow

    y = np.empty((n_, oh, ow, oc), dtype=dtype)
    segments = plan_width_segments(ow, fw, primary=primary)
    with span(
        "conv2d",
        batch=n_,
        ih=ih,
        iw=iw,
        ic=ic,
        oc=oc,
        fh=fh,
        fw=fw,
        oh=oh,
        ow=ow,
        alpha=alpha,
        variant=variant,
        segments=len(segments),
    ):
        # Paper-metric numerator (§6.1.1): standard-convolution FLOPs.
        counter_add("conv.calls")
        counter_add("conv.flops", 2 * n_ * oc * oh * ow * fh * fw * ic)
        for seg in segments:
            if seg.is_gemm:
                with span("segment", kind="gemm", start=seg.start, width=seg.width):
                    y[:, :, seg.start : seg.start + seg.width, :] = gemm_segment(
                        x, w, seg, ph=ph, pw=pw, oh=oh
                    )
            else:
                with span(
                    "segment",
                    kind="winograd",
                    kernel=seg.name,
                    start=seg.start,
                    width=seg.width,
                ):
                    y[:, :, seg.start : seg.start + seg.width, :] = winograd_segment(
                        x, w, seg, ph=ph, pw=pw, oh=oh
                    )
    return y


def winograd_segment(
    x: np.ndarray,
    w: np.ndarray,
    seg: Segment,
    *,
    ph: int,
    pw: int,
    oh: int,
    mats: TransformMatrices | None = None,
) -> np.ndarray:
    """Compute one Winograd-owned output segment.

    Implements the accumulator workflow of Algorithms 1/2: filter-transform
    the weights, gather + input-transform the tiles of every filter row,
    then per filter row and channel block fuse the elementwise products
    into the ``alpha``-state accumulator; output-transform once at the end.

    Returns the segment's ofms slice ``(N, OH, seg.width, OC)``.
    """
    kernel: KernelId = seg.kernel  # type: ignore[assignment]
    spec = kernel.spec
    n_out, r, alpha = spec.n, spec.r, spec.alpha
    if seg.width % n_out != 0:
        raise ValueError(f"segment width {seg.width} not divisible by n={n_out}")
    num_tiles = seg.width // n_out
    batch = x.shape[0]
    oc, fh, fw, ic = w.shape
    if mats is None:
        mats = winograd_matrices(n_out, r, dtype=x.dtype.name)
    elif np.dtype(mats.AT.dtype) != x.dtype:
        # A float64 mats would silently upcast the whole accumulator (and
        # the output), masking the precision the caller asked for.
        raise ValueError(
            f"mats dtype {mats.AT.dtype} does not match input dtype {x.dtype}; "
            "pass mats.as_dtype(x.dtype) or omit mats"
        )

    counter_add("winograd.segments", kernel=kernel.name)
    counter_add("winograd.tiles", batch * oh * num_tiles, kernel=kernel.name)
    counter_add(
        "winograd.elem_mul_flops",
        2 * batch * oh * num_tiles * oc * alpha * fh * ic,
        kernel=kernel.name,
    )

    # Filter transform: U[fh, k, icb, oc] = sum_p G[k, p] * w[oc, fh, p, ic].
    # Computed once for the whole segment (the kernels re-derive it per
    # iteration from SMEM; the arithmetic is identical).
    with span("transform.filter", kernel=kernel.name):
        u_all = np.einsum("kp,ofpi->fkio", mats.G, w, optimize=True)
        u_all = np.ascontiguousarray(u_all)  # (FH, alpha, IC, OC)

    tiles = []
    for f in range(fh):
        with span("gather", fh_offset=f):
            tiles.append(
                extract_width_tiles(
                    x,
                    fh_offset=f,
                    ow_start=seg.start,
                    num_tiles=num_tiles,
                    n=n_out,
                    alpha=alpha,
                    ph=ph,
                    pw=pw,
                    oh=oh,
                )
            )  # (N, OH, T, alpha, IC) views
    with span("transform.input", kernel=kernel.name):
        # Input transform of every filter row at once, as in the runtime:
        # V[k, f, ...] = sum_a DT[k, a] * tiles[f][..., a, :], a BLAS dot
        # over ``a`` per element (one filter row of one column alone would
        # take gemv, whose bits differ).  Laid out (alpha, FH, M, IC), so
        # the channel blocks below are gemm operands of the runtime's
        # geometry, which BLAS bits depend on.
        v = np.tensordot(mats.DT, np.stack(tiles), axes=([1], [4]))
        v = v.reshape(alpha, fh, batch * oh * num_tiles, ic)

    # Accumulator: alpha states per (batch*oh*tile, oc) — the register file.
    m = np.zeros((alpha, batch * oh * num_tiles, oc), dtype=x.dtype)
    for f in range(fh):
        for c0 in range(0, ic, DEFAULT_BLOCK_IC):
            c1 = min(c0 + DEFAULT_BLOCK_IC, ic)
            # Elementwise product in the transform domain, summed over the
            # channel block: batched (per-state) GEMM, i.e. the 8x(8x8)
            # outer-product stage.
            with span("accumulate", fh_offset=f, ic0=c0, ic1=c1):
                m += v[:, f, :, c0:c1] @ u_all[f, :, c0:c1, :]
    # Output transform, once: y[j] = sum_k AT[j, k] m[k].
    with span("transform.output", kernel=kernel.name):
        y = np.einsum("jk,kmo->mjo", mats.AT, m, optimize=True)
    # (batch*oh*T, n, oc) -> (N, OH, T*n, OC)
    return y.reshape(batch, oh, num_tiles * n_out, oc)


def gemm_input_strip(x: np.ndarray, seg_start: int, width: int, *, pw: int, fw: int) -> np.ndarray:
    """The input column strip feeding ``width`` output columns at ``seg_start``.

    The strip spans ``[seg_start - pw, seg_start - pw + width + fw - 1)`` in
    unpadded coordinates.  When that range lies entirely inside the input —
    the common case for a mid-tensor GEMM tail — the returned strip is a
    zero-copy view of ``x``; only true edge segments materialise a
    zero-filled buffer for the implicit padding.
    """
    batch, ih, iw, ic = x.shape
    col_lo = seg_start - pw
    need = width + fw - 1
    if 0 <= col_lo and col_lo + need <= iw:
        return x[:, :, col_lo : col_lo + need, :]
    src_c0 = max(col_lo, 0)
    src_c1 = min(col_lo + need, iw)
    strip = np.zeros((batch, ih, need, ic), dtype=x.dtype)
    if src_c0 < src_c1:
        strip[:, :, src_c0 - col_lo : src_c1 - col_lo, :] = x[:, :, src_c0:src_c1, :]
    return strip


def gemm_segment(
    x: np.ndarray, w: np.ndarray, seg: Segment, *, ph: int, pw: int, oh: int
) -> np.ndarray:
    """Compute the GEMM tail segment (§5.5: "GEMM convolution processes the
    final remaining segment that Im2col-Winograd can not cover").

    Only the ``seg.width`` needed output columns are produced: the input
    slice feeding them is ``[seg.start - pw, seg.start - pw + width + fw - 1)``
    in unpadded coordinates, gathered with implicit zero padding (sliced
    zero-copy when the range is interior).
    """
    batch, ih, iw, ic = x.shape
    oc, fh, fw, _ = w.shape
    counter_add("gemm.tail_segments")
    counter_add("gemm.tail_columns", seg.width)
    strip = gemm_input_strip(x, seg.start, seg.width, pw=pw, fw=fw)
    cols = im2col_nhwc(strip, fh, fw, ph, 0)  # width already materialised
    a = np.ascontiguousarray(w.transpose(1, 2, 3, 0).reshape(fh * fw * ic, oc))
    y = cols @ a
    return y.reshape(batch, oh, seg.width, oc)
