"""Conv signatures: the cache key of the compiled-plan runtime.

A :class:`ConvSignature` pins everything the compile step depends on —
geometry ``(IH, IW, IC, OC, FH, FW)``, padding, the ``Gamma_alpha`` kernel
selection ``(alpha, variant)`` and the computation dtype — and nothing it
does not: the batch size ``N`` only scales the gathered volume, so the same
executable serves every batch of a shape (exactly how cuDNN keys its
heuristic/plan caches on the conv descriptor, not the batch pointer).

Validation lives here, and only here, so the interpreted path
(:func:`repro.core.fused.conv2d_im2col_winograd` with ``legacy=True``) and
the runtime entry point (:func:`repro.runtime.convolve`) raise identical
errors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.kernels import default_alpha_for_width, get_kernel
from ..nhwc.tensor import conv_output_size

__all__ = ["ConvSignature"]


@dataclass(frozen=True)
class ConvSignature:
    """Batch-agnostic identity of one compiled convolution.

    ``dtype`` is the numpy dtype *name* (hashable); ``alpha``/``variant``
    are fully resolved (no ``None`` defaults survive construction via
    :meth:`resolve`).
    """

    ih: int
    iw: int
    ic: int
    oc: int
    fh: int
    fw: int
    ph: int
    pw: int
    alpha: int
    variant: str
    dtype: str

    @property
    def oh(self) -> int:
        return conv_output_size(self.ih, self.fh, self.ph)

    @property
    def ow(self) -> int:
        return conv_output_size(self.iw, self.fw, self.pw)

    @property
    def label(self) -> str:
        """Compact human-readable key for metrics/ledger labels."""
        return (
            f"{self.ih}x{self.iw}x{self.ic}-{self.oc}"
            f".f{self.fh}x{self.fw}.a{self.alpha}.{self.variant}"
        )

    @classmethod
    def resolve(
        cls,
        *,
        ih: int,
        iw: int,
        ic: int,
        oc: int,
        fh: int,
        fw: int,
        ph: int | None = None,
        pw: int | None = None,
        alpha: int | None = None,
        variant: str = "base",
        dtype: np.dtype | type | str = np.float32,
    ) -> "ConvSignature":
        """Apply the functional API's defaults and validate the envelope.

        The interpreted path validates through here too, so swapping the
        engine cannot change the error surface.
        """
        if ph is None:
            ph = fh // 2
        if pw is None:
            pw = fw // 2
        if not (0 <= pw < fw and 0 <= ph < fh) and (fh > 1 or fw > 1):
            # pw >= fw would create all-zero leading tiles; GEMM only.
            raise ValueError(f"padding (ph={ph}, pw={pw}) must satisfy 0 <= p < filter extent")
        if alpha is None:
            alpha = default_alpha_for_width(fw)
        dt = np.dtype(dtype)
        if dt == np.float16 and alpha == 16:
            # §6.2.2 taken to its limit: F(n, r) transform entries reach
            # 1.6e4 at alpha=16, past half precision's usable range (alpha
            # in {4, 8} stays within ~1e-2..1e-3 relative error).
            raise ValueError(
                "alpha=16 is not representable in float16 (transform-matrix "
                "magnitude disparity, see §6.2.2); use alpha<=8 or float32"
            )
        get_kernel(alpha, fw, variant)  # raises for unregistered combinations
        sig = cls(
            ih=ih, iw=iw, ic=ic, oc=oc, fh=fh, fw=fw,
            ph=ph, pw=pw, alpha=alpha, variant=variant, dtype=dt.name,
        )
        if sig.oh < 1 or sig.ow < 1:
            raise ValueError(f"empty output {sig.oh}x{sig.ow}")
        return sig

    @classmethod
    def for_operands(
        cls,
        x: np.ndarray,
        w: np.ndarray,
        *,
        ph: int | None = None,
        pw: int | None = None,
        alpha: int | None = None,
        variant: str = "base",
        dtype: np.dtype | type | str = np.float32,
    ) -> "ConvSignature":
        """Signature of ``conv(x, w)`` — the operand-shape front door."""
        if x.ndim != 4 or w.ndim != 4:
            raise ValueError(f"expected 4D x and w, got ndim {x.ndim} and {w.ndim}")
        if x.shape[3] != w.shape[3]:
            raise ValueError(
                f"channel mismatch: input IC={x.shape[3]}, filter IC={w.shape[3]}"
            )
        oc, fh, fw, ic = w.shape
        _, ih, iw, _ = x.shape
        return cls.resolve(
            ih=ih, iw=iw, ic=ic, oc=oc, fh=fh, fw=fw,
            ph=ph, pw=pw, alpha=alpha, variant=variant, dtype=dtype,
        )
