"""Tests for ND Im2col-Winograd (§4.2 extension: 1D and 3D convolutions)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ndim import conv1d_im2col_winograd, conv3d_im2col_winograd

from .conftest import TOL_BY_ALPHA, rel_err


def direct_conv1d(x, w, pw):
    n, iw, ic = x.shape
    oc, fw, _ = w.shape
    xp = np.pad(x.astype(np.float64), ((0, 0), (pw, pw), (0, 0)))
    ow = iw + 2 * pw - fw + 1
    y = np.zeros((n, ow, oc))
    for j in range(ow):
        y[:, j, :] = np.einsum("nac,oac->no", xp[:, j : j + fw, :], w.astype(np.float64))
    return y


def direct_conv3d(x, w, pd, ph, pw):
    xp = np.pad(
        x.astype(np.float64), ((0, 0), (pd, pd), (ph, ph), (pw, pw), (0, 0))
    )
    oc, fd, fh, fw, ic = w.shape
    win = np.lib.stride_tricks.sliding_window_view(xp, (fd, fh, fw), axis=(1, 2, 3))
    return np.einsum("ndhwjabc,oabcj->ndhwo", win, w.astype(np.float64))


class TestConv1D:
    @pytest.mark.parametrize("r", [2, 3, 5, 7, 9])
    def test_matches_direct(self, rng, r):
        x = rng.standard_normal((2, 29, 5)).astype(np.float32)
        w = rng.standard_normal((4, r, 5)).astype(np.float32)
        got = conv1d_im2col_winograd(x, w)
        want = direct_conv1d(x, w, r // 2)
        alpha = 8 if r <= 6 else 16
        assert rel_err(got, want) < TOL_BY_ALPHA[alpha]

    @given(length=st.integers(10, 40))
    @settings(max_examples=20, deadline=None)
    def test_all_lengths(self, length):
        rng = np.random.default_rng(length)
        x = rng.standard_normal((1, length, 3)).astype(np.float32)
        w = rng.standard_normal((2, 3, 3)).astype(np.float32)
        got = conv1d_im2col_winograd(x, w)
        assert rel_err(got, direct_conv1d(x, w, 1)) < TOL_BY_ALPHA[8]

    def test_no_padding(self, rng):
        x = rng.standard_normal((2, 20, 3)).astype(np.float32)
        w = rng.standard_normal((2, 5, 3)).astype(np.float32)
        got = conv1d_im2col_winograd(x, w, pw=0)
        assert got.shape == (2, 16, 2)
        assert rel_err(got, direct_conv1d(x, w, 0)) < TOL_BY_ALPHA[8]

    def test_validation(self, rng):
        with pytest.raises(ValueError, match="3D"):
            conv1d_im2col_winograd(
                rng.standard_normal((2, 2, 20, 3)).astype(np.float32),
                rng.standard_normal((2, 3, 3)).astype(np.float32),
            )


class TestConv3D:
    @pytest.mark.parametrize("r", [2, 3, 5])
    def test_cubic_filters(self, rng, r):
        x = rng.standard_normal((1, 6, 7, 11, 3)).astype(np.float32)
        w = rng.standard_normal((2, r, r, r, 3)).astype(np.float32)
        got = conv3d_im2col_winograd(x, w)
        want = direct_conv3d(x, w, r // 2, r // 2, r // 2)
        assert got.shape == want.shape
        assert rel_err(got, want) < TOL_BY_ALPHA[8]

    def test_anisotropic_filter(self, rng):
        """Only FW is Winograd-constrained; FD and FH are free (§4.2)."""
        x = rng.standard_normal((1, 8, 6, 12, 2)).astype(np.float32)
        w = rng.standard_normal((3, 2, 4, 3, 2)).astype(np.float32)
        got = conv3d_im2col_winograd(x, w, pd=0, ph=1, pw=1)
        want = direct_conv3d(x, w, 0, 1, 1)
        assert rel_err(got, want) < TOL_BY_ALPHA[8]

    def test_boundary_treatment_along_width(self, rng):
        """OW not a multiple of n exercises the GEMM tail in 3D too."""
        x = rng.standard_normal((1, 4, 4, 13, 2)).astype(np.float32)
        w = rng.standard_normal((2, 3, 3, 3, 2)).astype(np.float32)
        got = conv3d_im2col_winograd(x, w)
        want = direct_conv3d(x, w, 1, 1, 1)
        assert rel_err(got, want) < TOL_BY_ALPHA[8]

    def test_explicit_alpha(self, rng):
        x = rng.standard_normal((1, 4, 4, 16, 2)).astype(np.float32)
        w = rng.standard_normal((2, 3, 3, 3, 2)).astype(np.float32)
        a8 = conv3d_im2col_winograd(x, w, alpha=8)
        a16 = conv3d_im2col_winograd(x, w, alpha=16)
        want = direct_conv3d(x, w, 1, 1, 1)
        assert rel_err(a8, want) < TOL_BY_ALPHA[8]
        assert rel_err(a16, want) < TOL_BY_ALPHA[16]

    def test_channel_blocking(self, rng):
        """IC = 67: two DEFAULT_BLOCK_IC channel blocks, the last ragged."""
        x = rng.standard_normal((1, 4, 4, 12, 67)).astype(np.float32)
        w = rng.standard_normal((2, 3, 3, 3, 67)).astype(np.float32)
        got = conv3d_im2col_winograd(x, w)
        want = direct_conv3d(x, w, 1, 1, 1)
        assert rel_err(got, want) < TOL_BY_ALPHA[8]

    def test_validation(self, rng):
        x5 = rng.standard_normal((1, 4, 4, 12, 3)).astype(np.float32)
        with pytest.raises(ValueError, match="5D"):
            conv3d_im2col_winograd(x5[0], rng.standard_normal((2, 3, 3, 3, 3)).astype(np.float32))
        with pytest.raises(ValueError, match="channel mismatch"):
            conv3d_im2col_winograd(x5, rng.standard_normal((2, 3, 3, 3, 4)).astype(np.float32))
        with pytest.raises(ValueError, match="pw"):
            conv3d_im2col_winograd(
                x5, rng.standard_normal((2, 3, 3, 3, 3)).astype(np.float32), pw=5
            )
