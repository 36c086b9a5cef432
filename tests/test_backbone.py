import numpy as np
import pytest

from turbfuse import tensor as T
from turbfuse.backbone import BackboneConfig, BackboneParams, embed, pretrain
from turbfuse.errors import ConfigError
from turbfuse.margin import MarginParams
from turbfuse.optim import FitConfig, finite_diff_check
from turbfuse.tensor import Tensor


def tiny_cfg(size=16, channels=(4, 8), dim=8):
    return BackboneConfig(image_size=size, channels=channels, embed_dim=dim)


class TestEmbed:
    def test_output_shape(self):
        rng = np.random.default_rng(0)
        cfg = tiny_cfg()
        p = BackboneParams.init(rng, cfg)
        out = embed(rng.random((5, 16, 16)).astype(np.float32), p)
        assert out.shape == (5, 8)

    def test_identical_images_identical_rows(self):
        rng = np.random.default_rng(1)
        cfg = tiny_cfg()
        p = BackboneParams.init(rng, cfg)
        img = rng.random((16, 16)).astype(np.float32)
        batch = np.stack([img, img, rng.random((16, 16)).astype(np.float32)])
        out = embed(batch, p).data
        np.testing.assert_array_equal(out[0], out[1])
        assert np.abs(out[0] - out[2]).max() > 0

    def test_dim_mismatch(self):
        rng = np.random.default_rng(2)
        p = BackboneParams.init(rng, tiny_cfg())
        with pytest.raises(ConfigError):
            embed(np.zeros((2, 8, 8), dtype=np.float32), p)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        cfg = BackboneConfig(image_size=8, channels=(3,), embed_dim=4)
        p = BackboneParams.init(rng, cfg, dtype=np.float64)
        imgs = rng.random((2, 8, 8))
        mask = Tensor(rng.standard_normal((2, 4)), dtype=np.float64)

        def f(params):
            return T.tensor_sum(T.mul(embed(imgs, p), mask))

        err = finite_diff_check(f, list(p.tensors().values()), eps=1e-5, samples_per_tensor=6, seed=0)
        assert err < 1e-6

    @pytest.mark.parametrize("bsz", [1, 7, 8, 9, 33])
    def test_no_grad_equals_taped_bitwise(self, bsz):
        rng = np.random.default_rng(4)
        p = BackboneParams.init(rng, BackboneConfig(image_size=32, channels=(8, 16, 32), embed_dim=16))
        imgs = rng.random((bsz, 32, 32)).astype(np.float32)
        taped = embed(imgs, p)
        assert taped.requires_grad
        with T.no_grad():
            plain = embed(imgs, p)
        assert not plain.requires_grad
        assert plain.data.dtype == taped.data.dtype
        assert plain.data.tobytes() == taped.data.tobytes()


class TestClone:
    def test_clone_outputs_bitwise_identical(self):
        rng = np.random.default_rng(4)
        p = BackboneParams.init(rng, tiny_cfg())
        q = p.clone(trainable=True)
        imgs = rng.random((3, 16, 16)).astype(np.float32)
        a = embed(imgs, p).data
        b = embed(imgs, q).data
        assert a.tobytes() == b.tobytes()

    def test_clone_is_independent(self):
        rng = np.random.default_rng(5)
        p = BackboneParams.init(rng, tiny_cfg())
        q = p.clone(trainable=True)
        before = p.state_bytes()
        q.dense_w.data += 1.0
        assert p.state_bytes() == before


class TestPretrain:
    def test_loss_decreases(self):
        rng = np.random.default_rng(6)
        # two well-separated identities, 20 images each
        base = [rng.random((16, 16)) for _ in range(2)]
        images, labels = [], []
        for lbl, b in enumerate(base):
            for _ in range(20):
                images.append(np.clip(b + 0.05 * rng.standard_normal((16, 16)), 0, 1))
                labels.append(lbl)
        images = np.array(images, dtype=np.float32)
        labels = np.array(labels)
        res = pretrain(
            images,
            labels,
            tiny_cfg(),
            MarginParams(1.0, 0.5, 0.0, 8.0),
            FitConfig(epochs=10, batch_size=8, lr_base=0.05),
            seed=0,
        )
        first = np.mean(res.loss_history[:5])
        last = np.mean(res.loss_history[-5:])
        assert last < first

    def test_requires_two_identities(self):
        imgs = np.random.default_rng(7).random((4, 16, 16)).astype(np.float32)
        with pytest.raises(ConfigError):
            pretrain(imgs, np.zeros(4, dtype=int), tiny_cfg(), MarginParams(), FitConfig())

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        images = rng.random((16, 16, 16)).astype(np.float32)
        labels = np.arange(16) % 4
        a = pretrain(images, labels, tiny_cfg(), MarginParams(s=8.0), FitConfig(epochs=1, batch_size=8), seed=3)
        b = pretrain(images, labels, tiny_cfg(), MarginParams(s=8.0), FitConfig(epochs=1, batch_size=8), seed=3)
        assert a.params.state_bytes() == b.params.state_bytes()
        assert a.loss_history == b.loss_history
