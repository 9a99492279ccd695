"""Tests for frozen-inference mode (Module.freeze / Conv2D pre-transform)."""

import numpy as np
import pytest

from repro.core import conv2d_im2col_winograd
from repro.dlframe import Adam, Tensor, Trainer, synthetic_cifar10
from repro.dlframe.layers import Conv2D
from repro.dlframe.models import resnet18, vgg16
from repro.dlframe.serialization import load_weights, save_weights
from repro.runtime.executable import ConvExecutable


class TestConvFreeze:
    def test_frozen_forward_bit_identical(self, rng):
        conv = Conv2D(3, 4, 3, engine="winograd", rng=np.random.default_rng(0))
        x = rng.standard_normal((2, 9, 11, 3)).astype(np.float32)
        conv.eval()
        before = conv(Tensor(x)).data
        conv.freeze()
        np.testing.assert_array_equal(conv(Tensor(x)).data, before)

    @pytest.mark.parametrize("r,iw", [(3, 13), (5, 16), (2, 9), (9, 20), (7, 30)])
    def test_bitwise_identical_to_functional(self, rng, r, iw):
        """Frozen filters must not change a single bit: same matrices,
        same accumulation order as the functional API."""
        conv = Conv2D(5, 4, r, engine="winograd", bias=False, rng=rng).freeze()
        x = rng.standard_normal((2, 11, iw, 5)).astype(np.float32)
        want = conv2d_im2col_winograd(x, conv.weight.data)
        np.testing.assert_array_equal(conv(Tensor(x)).data, want)

    def test_cache_per_input_width(self, rng):
        conv = Conv2D(2, 2, 3, engine="winograd", rng=np.random.default_rng(0)).freeze()
        for iw in (8, 12, 8, 16):
            conv(Tensor(rng.standard_normal((1, 6, iw, 2)).astype(np.float32)))
        assert set(conv._bundles) == {(6, 8, 2), (6, 12, 2), (6, 16, 2)}

    def test_one_bundle_across_batches(self, rng):
        """The batch is not part of the key: one bundle serves every batch."""
        conv = Conv2D(4, 3, 3, engine="winograd", rng=np.random.default_rng(0)).freeze()
        for batch in (1, 3, 8):
            x = rng.standard_normal((batch, 8, 12, 4)).astype(np.float32)
            assert conv(Tensor(x)).data.shape == (batch, 8, 12, 3)
        assert list(conv._bundles) == [(8, 12, 4)]

    def test_heights_are_free(self, rng):
        """Any input height works; each distinct shape gets its own bundle."""
        conv = Conv2D(4, 3, 3, engine="winograd", rng=np.random.default_rng(0)).freeze()
        for ih in (5, 9, 17):
            x = rng.standard_normal((1, ih, 12, 4)).astype(np.float32)
            assert conv(Tensor(x)).data.shape[1] == ih
        assert len(conv._bundles) == 3

    def test_frozen_forward_hashes_weights_once(self, rng, monkeypatch):
        calls = []
        original = ConvExecutable.weight_token

        def counting(self, w):
            calls.append(1)
            return original(self, w)

        monkeypatch.setattr(ConvExecutable, "weight_token", counting)
        conv = Conv2D(4, 3, 3, engine="winograd", rng=np.random.default_rng(0)).freeze()
        x = rng.standard_normal((2, 8, 12, 4)).astype(np.float32)
        for _ in range(3):
            conv(Tensor(x))
        assert len(calls) == 1

    def test_transformed_bytes_accounting(self, rng):
        """U holds FH x alpha x IC x OC floats per distinct scheme."""
        conv = Conv2D(5, 4, 3, engine="winograd", rng=np.random.default_rng(0)).freeze()
        conv(Tensor(rng.standard_normal((1, 8, 12, 5)).astype(np.float32)))  # OW=12, n=6
        (ref,) = conv._bundles.values()
        assert ref().transformed_filter_bytes == 3 * 8 * 5 * 4 * 4

    def test_boundary_plan_with_multiple_schemes(self, rng):
        """An OW needing Gamma_8 + Gamma_4 segments pre-transforms both."""
        conv = Conv2D(3, 2, 3, engine="winograd", bias=False, rng=rng).freeze()
        x = rng.standard_normal((1, 6, 10, 3)).astype(np.float32)  # OW=10 = 6 + 4
        y = conv(Tensor(x)).data
        (ref,) = conv._bundles.values()
        assert len(ref().u) == 2
        np.testing.assert_array_equal(y, conv2d_im2col_winograd(x, conv.weight.data))

    def test_runtime_cache_owns_the_bundles(self, rng):
        """Frozen layers hold their bundles weakly: clearing the runtime's
        caches frees them, and the next forward resolves them again."""
        from repro import runtime

        conv = Conv2D(3, 2, 3, engine="winograd", rng=np.random.default_rng(0)).freeze()
        x = rng.standard_normal((1, 6, 10, 3)).astype(np.float32)
        want = conv(Tensor(x)).data
        (ref,) = conv._bundles.values()
        runtime.clear_cache()
        assert ref() is None
        np.testing.assert_array_equal(conv(Tensor(x)).data, want)
        (ref,) = conv._bundles.values()
        assert ref() is not None

    def test_wrong_channels_rejected(self, rng):
        conv = Conv2D(2, 2, 3, engine="winograd", rng=np.random.default_rng(0)).freeze()
        with pytest.raises(ValueError, match="channel"):
            conv(Tensor(rng.standard_normal((1, 8, 12, 3)).astype(np.float32)))

    def test_train_invalidates(self, rng):
        conv = Conv2D(2, 2, 3, engine="winograd", rng=np.random.default_rng(0)).freeze()
        conv(Tensor(rng.standard_normal((1, 6, 8, 2)).astype(np.float32)))
        assert conv._bundles
        conv.train()
        assert not conv._bundles and not conv._frozen

    def test_refreeze_replaces_bundles_instead_of_clearing(self, rng):
        """A forward in flight holds the old dict: freezing must not hand it
        back to the layer, or a bundle of old weights could be cached."""
        conv = Conv2D(2, 2, 3, engine="winograd", rng=np.random.default_rng(0)).freeze()
        conv(Tensor(rng.standard_normal((1, 6, 8, 2)).astype(np.float32)))
        old = conv._bundles
        conv.freeze()
        assert conv._bundles is not old and not conv._bundles
        assert old  # untouched: whatever lands there is discarded with it

    def test_weight_update_after_unfreeze_takes_effect(self, rng):
        conv = Conv2D(2, 2, 3, engine="winograd", rng=np.random.default_rng(0)).freeze()
        x = rng.standard_normal((1, 6, 8, 2)).astype(np.float32)
        y_old = conv(Tensor(x)).data.copy()
        conv.train()
        conv.weight.data += 0.5
        conv.freeze()
        y_new = conv(Tensor(x)).data
        assert not np.allclose(y_old, y_new)

    def test_gemm_engine_ignores_freeze(self, rng):
        conv = Conv2D(2, 2, 3, engine="gemm", rng=np.random.default_rng(0)).freeze()
        x = rng.standard_normal((1, 6, 8, 2)).astype(np.float32)
        conv(Tensor(x))
        assert not conv._bundles  # gemm path never resolves filter transforms


class TestModelFreeze:
    def test_tree_freeze_matches_eval(self, rng):
        m = vgg16(classes=4, image=8, width_mult=0.125, seed=1)
        x = rng.standard_normal((2, 8, 8, 3)).astype(np.float32)
        m.eval()
        want = m(Tensor(x)).data
        m.freeze()
        got = m(Tensor(x)).data
        np.testing.assert_array_equal(got, want)

    def test_resnet_freeze(self, rng):
        m = resnet18(classes=4, width_mult=0.0625, seed=1)
        x = rng.standard_normal((1, 16, 16, 3)).astype(np.float32)
        m.eval()
        want = m(Tensor(x)).data
        m.freeze()
        np.testing.assert_array_equal(m(Tensor(x)).data, want)

    def test_freeze_sets_eval_everywhere(self):
        m = vgg16(classes=4, image=8, width_mult=0.0625, seed=1).freeze()
        for layer in m:
            assert not layer.training
            if isinstance(layer, Conv2D):
                assert layer._frozen

    def test_load_weights_into_frozen_model_takes_effect(self, rng, tmp_path):
        """Loading weights drops the frozen filter transforms of the old ones."""
        path = tmp_path / "donor.npz"
        x = rng.standard_normal((2, 16, 16, 3)).astype(np.float32)
        donor = resnet18(classes=4, width_mult=0.0625, seed=2).eval()
        save_weights(donor, path)
        m = resnet18(classes=4, width_mult=0.0625, seed=1).freeze()
        m(Tensor(x))  # resolves every conv's bundle for the old weights
        load_weights(m, path)
        np.testing.assert_array_equal(m(Tensor(x)).data, donor(Tensor(x)).data)
        assert all(c._frozen for c in m.walk() if isinstance(c, Conv2D))

    def test_train_after_freeze_resumes_learning(self):
        """Freeze for eval, then resume training — the round trip must not
        poison the optimiser path."""
        train, _ = synthetic_cifar10(train=48, test=8, image=8, classes=4, noise=0.2)
        m = vgg16(classes=4, image=8, width_mult=0.125, seed=1)
        t = Trainer(m, Adam(m.parameters(), lr=2e-3), record_every=1)
        t.train_step(train.x[:24], train.y[:24])
        m.freeze()
        m(Tensor(train.x[:8]))
        m.train()
        first = t.train_step(train.x[:24], train.y[:24])
        for _ in range(6):
            last = t.train_step(train.x[:24], train.y[:24])
        assert last < first
