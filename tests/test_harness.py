import json
from pathlib import Path

import numpy as np
import pytest

from turbfuse import harness
from turbfuse.config import load_config
from turbfuse.errors import TrainingError
from turbfuse.harness import _turb_params, cmd_degrade, cmd_pretrain, cmd_restore, cmd_synth, cmd_train
from turbfuse.trainer import probe_embeddings


@pytest.fixture
def tiny_cfg(tmp_path):
    sets = [
        f"output_dir={json.dumps(str(tmp_path))}",
        "dataset.n_identities=4",
        "dataset.per_identity=2",
        "dataset.n_test_identities=2",
        "dataset.test_per_identity=2",
        "dataset.image_size=16",
        "backbone.channels=[4, 8]",
        "backbone.embed_dim=8",
        "fusion.ffn_hidden=16",
        "train.epochs=1",
        "train.batch_size=4",
    ]
    return load_config(sets=sets)


class TestDegradeProvenance:
    def test_records_derived_tilt_rms(self, tiny_cfg, tmp_path):
        cmd_synth(tiny_cfg)
        report = cmd_degrade(tiny_cfg)
        prov = json.loads((tmp_path / "degraded" / report["level"] / "provenance.json").read_text())
        assert prov["tilt_rms_px"] == pytest.approx(_turb_params(tiny_cfg).tilt_rms_px, rel=1e-12)


class TestFreezeContract:
    def test_mutated_frozen_branch_raises(self, tiny_cfg, monkeypatch):
        for cmd in (cmd_synth, cmd_degrade, cmd_restore, cmd_pretrain):
            cmd(tiny_cfg)
        real = harness.train_adapter

        def mutating(lq, restored, labels, frozen, *args):
            result = real(lq, restored, labels, frozen, *args)
            frozen.conv_w[0].data[0, 0, 0, 0] += 1.0
            return result

        monkeypatch.setattr(harness, "train_adapter", mutating)
        with pytest.raises(TrainingError, match="freeze contract"):
            cmd_train(tiny_cfg)


class TestCheckpointRoundTrip:
    def test_pretrain_writes_only_the_backbone_and_its_history(self, tiny_cfg, tmp_path):
        cmd_synth(tiny_cfg)
        cmd_pretrain(tiny_cfg)
        assert sorted(p.name for p in (tmp_path / "pretrain").iterdir()) == ["backbone", "history.json"]

    @pytest.mark.parametrize(
        "strategy, variant",
        [
            pytest.param("finetune_restored", "d", id="finetune_restored"),
            pytest.param("adapter_joint", "d", id="adapter_joint"),
            pytest.param("adapter_joint", "b", id="adapter_joint-variant_b"),
        ],
    )
    def test_loaded_checkpoint_embeds_probes_like_the_trained_state(self, tiny_cfg, tmp_path, strategy, variant, monkeypatch):
        tiny_cfg["train"]["strategy"] = strategy
        tiny_cfg["fusion"]["role_variant"] = variant
        for cmd in (cmd_synth, cmd_degrade, cmd_restore, cmd_pretrain):
            cmd(tiny_cfg)
        trained = []
        real = harness.train_adapter

        def keeping(*args):
            trained.append(real(*args))
            return trained[-1]

        monkeypatch.setattr(harness, "train_adapter", keeping)
        cmd_train(tiny_cfg)
        # variant b's fusion never reads the restored branch, so nothing trains or stores one
        names = json.loads((tmp_path / "train" / strategy / "checkpoint" / "index.json").read_text())
        assert any(k.startswith("hq.") for k in names) == (variant != "b")
        frozen = harness._load_backbone(tiny_cfg, None)
        loaded = harness._load_train_result(tiny_cfg, None, strategy, frozen)
        assert loaded.tensors().keys() == trained[0].tensors().keys()

        manifest, load_degraded = harness._image_set(tiny_cfg, None, "degraded")
        _, load_restored = harness._image_set(tiny_cfg, None, "restored")
        entries = manifest.split_images("test")
        lq, _ = load_degraded(entries)
        restored, _ = load_restored(entries)
        fcfg = harness._fusion_cfg(tiny_cfg)
        want = probe_embeddings(strategy, lq, restored, frozen, trained[0], fcfg)
        got = probe_embeddings(strategy, lq, restored, frozen, loaded, fcfg)
        assert got.tobytes() == want.tobytes()


class TestVersionString:
    def test_independent_of_cwd(self, tmp_path, monkeypatch):
        monkeypatch.chdir(Path(harness.__file__).resolve().parent)
        from_package = harness.version_string()
        monkeypatch.chdir(tmp_path)
        assert harness.version_string() == from_package


class TestPairScores:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_equals_the_per_pair_loop_bitwise(self, dtype):
        rng = np.random.default_rng(5)
        fn = rng.standard_normal((200, 64)).astype(dtype)
        pn = rng.standard_normal((200, 64)).astype(dtype)
        fn /= np.linalg.norm(fn, axis=1, keepdims=True)
        pn /= np.linalg.norm(pn, axis=1, keepdims=True)
        index_a = rng.integers(0, 200, 6000)
        index_b = rng.integers(0, 200, 6000)
        loop = np.array([float(fn[a] @ pn[b]) for a, b in zip(index_a, index_b)])
        got = harness.pair_scores(fn, pn, index_a, index_b)
        assert got.dtype == np.float64
        assert (got == loop).all()
