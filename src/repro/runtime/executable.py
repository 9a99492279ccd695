"""Compiled conv executables: plan once, execute many.

A :class:`ConvExecutable` is the compiled form of one
:class:`~repro.runtime.signature.ConvSignature`.  Construction performs every
piece of work the interpreted path
(:func:`repro.core.fused.conv2d_im2col_winograd` with ``legacy=True``)
re-derives on each call:

* the §5.5 boundary segmentation (stored as a real
  :class:`~repro.core.planner.ConvPlan`, so the static sanitizer can audit
  cached plans directly),
* the exact Toom-Cook transform matrices per Winograd scheme in the plan,
* a *gather descriptor* per Winograd segment — the padded-region bounds and
  stride-trick geometry of the Stage-1 Im2col mapping, including whether the
  region is interior (pure zero-copy view) or needs one zero-filled edge
  buffer,
* memoized einsum contraction paths,
* a content-hash-keyed cache of the §6.1.2 filter transforms ``U = G w``
  (layout ``(alpha, FH, IC, OC)``) and of the folded GEMM-tail operand.

Execution gathers all ``FH`` filter rows as one strided view and runs the
input transform as one tensordot per segment.  The transform-domain
accumulation replays the legacy loop's (``fh``-major, channel-block-minor)
gemm sequence at :data:`~repro.core.fused.DEFAULT_BLOCK_IC` with identical
operand shapes, so the accumulation order — and hence every output bit —
matches the legacy path (asserted across the registry in
``tests/test_runtime.py``), with none of its per-call planning and filter
transforms, and each input row gathered and transformed once, not once
per filter row.

Large batches are processed in bounded workspace chunks (see
:class:`~repro.runtime.engine.ExecutionConfig`).  Chunk boundaries never
change the arithmetic, so chunked results stay bit-identical to unchunked
ones.
"""

from __future__ import annotations

import hashlib
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any, Iterable

import numpy as np

from ..core.boundary import Segment, plan_width_segments
from ..core.fused import DEFAULT_BLOCK_IC, gemm_input_strip
from ..core.kernels import get_kernel
from ..core.planner import ConvPlan
from ..core.transforms import TransformMatrices, winograd_matrices
from ..nhwc.tensor import ConvShape, im2col_nhwc
from ..nhwc.tiles import _gather_padded_region
from ..obs import counter_add, span
from ..obs import telemetry
from ..obs.perfledger import record_execution
from ..obs.tracer import enabled as _obs_enabled
from .signature import ConvSignature

__all__ = ["ConvExecutable", "FilterBundle", "build_filter_bundle"]

SchemeKey = tuple[int, int]  # (n, r)

#: Filter-transform cache entries kept per executable.  Inference holds one
#: entry; training alternates between at most a couple of weight
#: versions per step (forward + recomputed backward filters), so a handful
#: of slots bounds memory without thrashing.
FILTER_CACHE_SLOTS = 4


@dataclass(frozen=True)
class FilterBundle:
    """Pre-transformed filter operands for one weight version.

    ``u`` maps each Winograd scheme ``(n, r)`` in the plan to the transform
    ``U[k, f, ic, oc] = sum_p G[k, p] w[oc, f, p, ic]`` (C-contiguous, so
    each ``U[:, f]`` feeds a batched matmul); ``gemm_operand`` is the folded
    ``(FH*FW*IC, OC)`` matrix of the §5.5 GEMM tail.
    """

    token: object
    u: dict[SchemeKey, np.ndarray]
    gemm_operand: np.ndarray

    @property
    def transformed_filter_bytes(self) -> int:
        """Memory held by the pre-computed transforms (the §6.1.2 trade)."""
        return sum(arr.nbytes for arr in self.u.values())


def build_filter_bundle(
    w: np.ndarray,
    schemes: Iterable[SchemeKey],
    dtype: np.dtype,
    *,
    token: object = None,
) -> FilterBundle:
    """Compute the :class:`FilterBundle` of ``w`` for the given schemes.

    The one definition of the filter-transform arithmetic, behind
    :meth:`ConvExecutable.filter_bundle`.
    """
    w = np.asarray(w, dtype=dtype)
    oc, fh, fw, ic = w.shape
    u: dict[SchemeKey, np.ndarray] = {}
    for key in schemes:
        n, r = key
        if key in u:
            continue
        mats = winograd_matrices(n, r, dtype=dtype.name)
        # Same contraction as the legacy "kp,ofpi->fkio" (a dot over p per
        # element, hence bit-identical values), laid out (k, f, ic, oc) so
        # slices feed np.matmul's batch dims directly.
        u[key] = np.ascontiguousarray(np.einsum("kp,ofpi->kfio", mats.G, w, optimize=True))
    operand = np.ascontiguousarray(w.transpose(1, 2, 3, 0).reshape(fh * fw * ic, oc))
    return FilterBundle(token=token, u=u, gemm_operand=operand)


@dataclass(frozen=True)
class _WinogradSegment:
    """Compiled state of one Winograd-owned segment."""

    seg: Segment
    n: int
    r: int
    alpha: int
    num_tiles: int
    scheme: SchemeKey
    kernel_name: str
    # Gather descriptor: padded-region bounds covering all FH filter rows.
    row_lo: int
    nrows: int
    col_lo: int
    ncols: int
    interior: bool


@dataclass(frozen=True)
class _GemmSegment:
    """Compiled state of the §5.5 GEMM tail segment."""

    seg: Segment
    col_lo: int
    need: int
    interior: bool


@dataclass(frozen=True)
class _Task:
    """One unit of dispatch: a segment restricted to a batch chunk."""

    state: _WinogradSegment | _GemmSegment
    n0: int
    n1: int
    first_chunk: bool


class ConvExecutable:
    """The compiled, reusable form of one conv signature."""

    def __init__(self, sig: ConvSignature) -> None:
        self.sig = sig
        self.dtype = np.dtype(sig.dtype)
        self.oh, self.ow = sig.oh, sig.ow
        primary = get_kernel(sig.alpha, sig.fw, sig.variant)
        segments = plan_width_segments(self.ow, sig.fw, primary=primary)
        # A real ConvPlan (batch is irrelevant to the plan) so the static
        # sanitizer and the perf model audit exactly what the runtime runs.
        self.plan = ConvPlan(
            ConvShape(
                batch=1, ih=sig.ih, iw=sig.iw, ic=sig.ic, oc=sig.oc,
                fh=sig.fh, fw=sig.fw, ph=sig.ph, pw=sig.pw, stride=1,
            ),
            "im2col-winograd",
            primary=primary,
            segments=tuple(segments),
            reason=f"runtime-compiled unit-stride width-{sig.fw} convolution",
        )
        self.mats: dict[SchemeKey, TransformMatrices] = {}
        self._states: list[_WinogradSegment | _GemmSegment] = []
        for seg in segments:
            if seg.is_gemm:
                col_lo = seg.start - sig.pw
                need = seg.width + sig.fw - 1
                self._states.append(
                    _GemmSegment(
                        seg=seg,
                        col_lo=col_lo,
                        need=need,
                        interior=0 <= col_lo and col_lo + need <= sig.iw,
                    )
                )
                continue
            spec = seg.kernel.spec  # type: ignore[union-attr]
            key = (spec.n, spec.r)
            if key not in self.mats:
                self.mats[key] = winograd_matrices(spec.n, spec.r, dtype=self.dtype.name)
            num_tiles = seg.width // spec.n
            row_lo = -sig.ph
            nrows = self.oh + sig.fh - 1
            col_lo = seg.start - sig.pw
            ncols = (num_tiles - 1) * spec.n + spec.alpha
            self._states.append(
                _WinogradSegment(
                    seg=seg,
                    n=spec.n,
                    r=spec.r,
                    alpha=spec.alpha,
                    num_tiles=num_tiles,
                    scheme=key,
                    kernel_name=seg.name,
                    row_lo=row_lo,
                    nrows=nrows,
                    col_lo=col_lo,
                    ncols=ncols,
                    interior=(
                        0 <= row_lo
                        and row_lo + nrows <= sig.ih
                        and 0 <= col_lo
                        and col_lo + ncols <= sig.iw
                    ),
                )
            )
        self._schemes: tuple[SchemeKey, ...] = tuple(self.mats)
        self._filters: OrderedDict[object, FilterBundle] = OrderedDict()
        self._flock = threading.Lock()
        self._epaths: dict[tuple[str, tuple[tuple[int, ...], ...]], Any] = {}
        # (calibration generation, constant ns, per-row ns) — see predicted_ns.
        self._pred_cache: tuple[int, float, float] | None = None

    # -- filter-transform cache (content-hash keyed) -----------------------

    def weight_token(self, w: np.ndarray) -> object:
        """Content token of ``w``: exact, cheap relative to the transform.

        A real digest (not Python's salted, truncated ``hash``): collisions
        here would silently serve a stale filter transform, and the token
        must be stable across processes so it can be persisted or compared
        between runs.
        """
        w = np.asarray(w, dtype=self.dtype)
        return ("h", w.shape, hashlib.sha1(w.tobytes()).digest())

    def filter_bundle(self, w: np.ndarray) -> FilterBundle:
        """Pre-transformed operands for ``w``, cached by content hash.

        The token is an exact content hash, so in-place optimizer updates
        miss once per step and repeated calls on unchanged weights hit.
        Frozen layers call this once per input shape and pass the bundle
        to every later call.
        """
        w = np.asarray(w, dtype=self.dtype)
        if w.shape != (self.sig.oc, self.sig.fh, self.sig.fw, self.sig.ic):
            raise ValueError(
                f"filter shape {w.shape} does not match signature "
                f"{(self.sig.oc, self.sig.fh, self.sig.fw, self.sig.ic)}"
            )
        token = self.weight_token(w)
        with self._flock:
            bundle = self._filters.get(token)
            if bundle is not None:
                self._filters.move_to_end(token)
                counter_add("runtime.filter_cache.hits")
                return bundle
        counter_add("runtime.filter_cache.misses")
        bundle = build_filter_bundle(w, self._schemes, self.dtype, token=token)
        with self._flock:
            self._filters[token] = bundle
            while len(self._filters) > FILTER_CACHE_SLOTS:
                self._filters.popitem(last=False)
                counter_add("runtime.filter_cache.evictions")
        return bundle

    @property
    def cached_filter_versions(self) -> int:
        with self._flock:
            return len(self._filters)

    # -- predicted wallclock (timing-ledger / serve cost model) ------------

    def predicted_ns(self, batch: int) -> float:
        """Predicted wallclock ns of one call at ``batch`` rows.

        Priced by the machine cost model (:mod:`repro.gpusim.calibrate`:
        the activated calibration, else the hand-set default coefficients).
        Every fit term is affine in the batch, so two model evaluations at
        batch 1 and 2 yield ``(constant, per_row)`` and every later batch
        size is one multiply-add — cheap enough for the serve scheduler's
        flush decisions and the per-call ledger.  Cached against the
        calibration generation so activating a fit invalidates it.
        """
        from ..gpusim import calibrate

        cached = self._pred_cache
        gen = calibrate.generation()
        if cached is None or cached[0] != gen:
            model = calibrate.resolve_model()
            p1 = model.predict_ns(calibrate.conv_features(self.plan, 1))
            p2 = model.predict_ns(calibrate.conv_features(self.plan, 2))
            per_row = p2 - p1
            cached = (gen, p1 - per_row, per_row)
            self._pred_cache = cached
        return cached[1] + cached[2] * batch

    # -- memoized einsum contraction paths ---------------------------------

    def _einsum(self, subscripts: str, *ops: np.ndarray) -> np.ndarray:
        key = (subscripts, tuple(op.shape for op in ops))
        path = self._epaths.get(key)
        if path is None:
            path = np.einsum_path(subscripts, *ops, optimize=True)[0]
            self._epaths[key] = path
        return np.einsum(subscripts, *ops, optimize=path)

    # -- execution ---------------------------------------------------------

    def __call__(
        self,
        x: np.ndarray,
        w: np.ndarray | None = None,
        *,
        bundle: FilterBundle | None = None,
    ) -> np.ndarray:
        """Run the compiled convolution on ``x`` (any batch size).

        Either ``w`` (filters, resolved through the content-hashed filter
        cache) or a pre-resolved ``bundle`` must be provided.
        """
        sig = self.sig
        x = np.asarray(x, dtype=self.dtype)
        if x.ndim != 4:
            raise ValueError(f"expected 4D input, got ndim {x.ndim}")
        if x.shape[1:] != (sig.ih, sig.iw, sig.ic):
            raise ValueError(
                f"input shape {x.shape[1:]} does not match compiled signature "
                f"{(sig.ih, sig.iw, sig.ic)}"
            )
        if bundle is None:
            if w is None:
                raise ValueError("either w or a FilterBundle is required")
            bundle = self.filter_bundle(w)
        batch = x.shape[0]
        y = np.empty((batch, self.oh, self.ow, sig.oc), dtype=self.dtype)
        tasks = self._tasks(batch)
        # Predict-vs-measure ledger: with observability on, every call is
        # clocked and recorded next to its cost-model prediction (zero clock
        # reads when disabled — part of the telemetry-overhead gate).
        ledger = _obs_enabled()
        t0 = time.perf_counter_ns() if ledger else 0
        with span(
            "conv2d",
            engine="runtime",
            batch=batch,
            ih=sig.ih,
            iw=sig.iw,
            ic=sig.ic,
            oc=sig.oc,
            fh=sig.fh,
            fw=sig.fw,
            oh=self.oh,
            ow=self.ow,
            alpha=sig.alpha,
            variant=sig.variant,
            segments=len(tasks),
            plan_segments=len(self._states),
        ), telemetry.trace_span(
            "runtime.conv2d",
            batch=batch,
            ic=sig.ic,
            oc=sig.oc,
            alpha=sig.alpha,
            variant=sig.variant,
            segments=len(tasks),
        ):
            counter_add("conv.calls")
            counter_add(
                "conv.flops",
                2 * batch * sig.oc * self.oh * self.ow * sig.fh * sig.fw * sig.ic,
            )
            counter_add("runtime.exec.calls")
            for task in tasks:
                self._run_task(task, x, y, bundle)
        if ledger:
            record_execution(
                signature=sig.label,
                variant=sig.variant,
                rows=batch,
                path="compiled",
                predicted_ns=self.predicted_ns(batch),
                measured_ns=float(time.perf_counter_ns() - t0),
            )
        return y

    def per_row_workspace_bytes(self) -> int:
        """Peak per-batch-row intermediate footprint across segments.

        The same estimate :meth:`_tasks` uses to split a batch into
        workspace chunks (gathered region + V + P + m and the output slice
        of the widest Winograd segment), exposed so admission layers — the
        serving batcher's workspace-budget flush trigger — can reason about
        how many coalesced rows one dispatch of this executable costs.
        """
        return max((self._row_bytes(st) for st in self._states), default=0)

    def _row_bytes(self, st: _WinogradSegment | _GemmSegment) -> int:
        """Per-batch-row intermediate bytes of one segment."""
        sig = self.sig
        if isinstance(st, _GemmSegment):
            return self.dtype.itemsize * (
                sig.ih * st.need * sig.ic
                + self.oh * st.seg.width * (sig.fh * sig.fw * sig.ic + sig.oc)
            )
        # Gathered region + V + P (+ m, y slice).
        return self.dtype.itemsize * (
            st.nrows * st.ncols * sig.ic
            + st.alpha * sig.fh * self.oh * st.num_tiles * (sig.ic + sig.oc)
            + 2 * st.alpha * self.oh * st.num_tiles * sig.oc
        )

    def _tasks(self, batch: int) -> list[_Task]:
        """Split each segment into bounded-workspace batch chunks."""
        from .engine import default_config

        workspace = default_config().workspace_bytes
        tasks: list[_Task] = []
        for st in self._states:
            if isinstance(st, _GemmSegment):
                tasks.append(_Task(st, 0, batch, True))
                continue
            rows = min(max(1, workspace // max(self._row_bytes(st), 1)), batch)
            for i, n0 in enumerate(range(0, batch, rows)):
                tasks.append(_Task(st, n0, min(n0 + rows, batch), i == 0))
        return tasks

    def _run_task(
        self,
        task: _Task,
        x: np.ndarray,
        y: np.ndarray,
        bundle: FilterBundle,
    ) -> None:
        st = task.state
        if isinstance(st, _GemmSegment):
            self._run_gemm(st, x, y, bundle, task)
        else:
            self._run_winograd(st, x, y, bundle, task)

    def _run_winograd(
        self,
        st: _WinogradSegment,
        x: np.ndarray,
        y: np.ndarray,
        bundle: FilterBundle,
        task: _Task,
    ) -> None:
        sig = self.sig
        seg = st.seg
        n0, n1 = task.n0, task.n1
        nc = n1 - n0
        fh, ic, oc = sig.fh, sig.ic, sig.oc
        alpha, num_tiles = st.alpha, st.num_tiles
        mats = self.mats[st.scheme]
        with span(
            "segment",
            kind="winograd",
            kernel=seg.name,
            start=seg.start,
            width=seg.width,
            batch0=n0,
            batch1=n1,
        ), telemetry.trace_span(
            "runtime.segment",
            kind="winograd",
            kernel=seg.name,
            width=seg.width,
            batch0=n0,
            batch1=n1,
        ) as tseg:
            if task.first_chunk:
                batch = x.shape[0]
                counter_add("winograd.segments", kernel=st.kernel_name)
                counter_add(
                    "winograd.tiles", batch * self.oh * num_tiles, kernel=st.kernel_name
                )
                counter_add(
                    "winograd.elem_mul_flops",
                    2 * batch * self.oh * num_tiles * oc * alpha * fh * ic,
                    kernel=st.kernel_name,
                )
            u = bundle.u[st.scheme]  # (alpha, FH, IC, OC)
            with span("gather", rows=st.nrows, cols=st.ncols, interior=st.interior):
                xb = x[n0:n1]
                if st.interior:
                    region = xb[
                        :, st.row_lo : st.row_lo + st.nrows, st.col_lo : st.col_lo + st.ncols, :
                    ]
                else:
                    region = _gather_padded_region(xb, st.row_lo, st.nrows, st.col_lo, st.ncols)
                sn, sh, sw, sc = region.strides
                # Every gathered region row as width tiles, each row once:
                # (N, rows, T, alpha, IC).  Filter rows share input rows
                # (row h of offset f+1 is row h+1 of offset f), so the input
                # transform below touches ``OH + FH - 1`` rows instead of
                # the ``FH * OH`` the per-fh gather re-reads.
                row_tiles = np.lib.stride_tricks.as_strided(
                    region,
                    shape=(nc, st.nrows, num_tiles, alpha, ic),
                    strides=(sn, sh, sw * st.n, sw, sc),
                    writeable=False,
                )
                if task.first_chunk:
                    # Logical gather volume for the whole segment (all FH
                    # rows, full batch) — gated like the winograd.* counters
                    # so the totals match the legacy path and do not drift
                    # with workspace chunking.
                    counter_add("gather.calls", fh)
                    counter_add(
                        "gather.bytes",
                        fh
                        * x.shape[0]
                        * self.oh
                        * num_tiles
                        * alpha
                        * ic
                        * self.dtype.itemsize,
                    )
            with span("transform.input", kernel=st.kernel_name), telemetry.trace_span(
                "runtime.transform.input", kernel=st.kernel_name
            ):
                # VR[k, n, row, t, c] = sum_a DT[k, a] row_tiles[n, row, t, a, c]
                # — the legacy path's BLAS dot over ``a`` per element,
                # computed once per input row instead of once per fh.
                vr = np.tensordot(mats.DT, row_tiles, axes=([1], [3]))
                sk, svn, svh, svt, svc = vr.strides
                # Per-offset view: V[k, f, n, h, t, c] = VR[k, n, h + f, t, c],
                # materialised contiguous so the batched matmul below sees
                # the exact (M, IC) operand shape of the legacy path (BLAS
                # bit-reproducibility holds per gemm shape, so the operand
                # geometry is part of the bit-exactness contract).
                v = np.lib.stride_tricks.as_strided(
                    vr,
                    shape=(alpha, fh, nc, self.oh, num_tiles, ic),
                    strides=(sk, svh, svn, svh, svt, svc),
                    writeable=False,
                )
                m_rows = nc * self.oh * num_tiles
                v = np.ascontiguousarray(v).reshape(alpha, fh, m_rows, ic)
            block = min(DEFAULT_BLOCK_IC, ic)
            with span("accumulate", kernel=st.kernel_name, block=block), telemetry.trace_span(
                "runtime.accumulate", kernel=st.kernel_name, block=block
            ):
                # Channel-blocked accumulation replaying the legacy loop's
                # (fh-major, block-minor) gemm sequence with identical
                # per-gemm operand shapes, hence identical bits.  Blocking
                # bounds the float32 error growth with IC (EXPERIMENTS.md).
                m = np.zeros((alpha, m_rows, oc), dtype=self.dtype)
                for f in range(fh):
                    vf, uf = v[:, f], u[:, f]
                    for c0 in range(0, ic, block):
                        c1 = min(c0 + block, ic)
                        m += np.matmul(vf[:, :, c0:c1], uf[:, c0:c1, :])
            with span("transform.output", kernel=st.kernel_name), telemetry.trace_span(
                "runtime.transform.output", kernel=st.kernel_name
            ):
                out = self._einsum("jk,kmo->mjo", mats.AT, m)
            tseg.set(tiles=self.oh * num_tiles * nc)
            y[n0:n1, :, seg.start : seg.start + seg.width, :] = out.reshape(
                nc, self.oh, num_tiles * st.n, oc
            )

    def _run_gemm(
        self,
        st: _GemmSegment,
        x: np.ndarray,
        y: np.ndarray,
        bundle: FilterBundle,
        task: _Task,
    ) -> None:
        sig = self.sig
        seg = st.seg
        with span("segment", kind="gemm", start=seg.start, width=seg.width), telemetry.trace_span(
            "runtime.segment", kind="gemm", start=seg.start, width=seg.width
        ):
            counter_add("gemm.tail_segments")
            counter_add("gemm.tail_columns", seg.width)
            operand = bundle.gemm_operand
            strip = gemm_input_strip(x, seg.start, seg.width, pw=sig.pw, fw=sig.fw)
            cols = im2col_nhwc(strip, sig.fh, sig.fw, sig.ph, 0)
            out = cols @ operand
            y[:, :, seg.start : seg.start + seg.width, :] = out.reshape(
                x.shape[0], self.oh, seg.width, sig.oc
            )
