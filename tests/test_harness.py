import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from turbfuse import harness
from turbfuse.config import DEFAULTS, load_config
from turbfuse.datagen import GENERATOR_VERSION
from turbfuse.errors import TrainingError
from turbfuse.fusion import FusionConfig
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


class TestMadeUnder:
    # the artifacts each recording command reads
    READS = {
        "synth": (),
        "degrade": ("synth",),
        "restore": ("synth", "degrade"),
        "pretrain": ("synth",),
        "train": ("synth", "degrade", "restore", "pretrain"),
    }
    # nothing on the train side reads the test split: its identities are numbered after the train ones
    TEST_SPLIT = {"dataset.n_test_identities", "dataset.test_per_identity"}
    TRAIN_SIDE = ("pretrain", "train")

    def test_each_record_covers_the_records_of_what_its_command_reads(self):
        assert harness.MADE_UNDER.keys() == self.READS.keys()
        for cmd, reads in self.READS.items():
            record = set(harness._made_under(DEFAULTS, cmd))
            for upstream in reads:
                want = set(harness._made_under(DEFAULTS, upstream))
                if cmd in self.TRAIN_SIDE:
                    want -= self.TEST_SPLIT
                assert record >= want, (cmd, upstream)
            assert record.isdisjoint(self.TEST_SPLIT) == (cmd in self.TRAIN_SIDE), cmd

    @pytest.mark.parametrize("cmd", sorted(READS))
    def test_record_lists_every_leaf_key_of_its_entries(self, cmd):
        want = {"generator_version": GENERATOR_VERSION}
        for entry in harness.MADE_UNDER[cmd]:
            section, _, key = entry.partition(".")
            value = DEFAULTS[section][key] if key else DEFAULTS[entry]
            want.update({f"{entry}.{k}": v for k, v in value.items()} if isinstance(value, dict) else {entry: value})
        assert harness._made_under(DEFAULTS, cmd) == want


class TestLevelTag:
    @pytest.mark.parametrize(
        "meters, tag",
        [(10000.0, "10k"), (20000.0, "20k"), (20000, "20k"), (40000.0, "40k"), (20400.0, "20.4k"), (24500, "24.5k"), (400.0, "0.4k")],
    )
    def test_tag_of_each_intensity(self, meters, tag):
        assert harness.level_tag(meters) == tag

    def test_every_distinct_intensity_gets_its_own_tag(self):
        meters = [20000.0, 20400.0, 24000.0, 24500.0, 400.0, 123456.7, 123456.8, float(np.nextafter(20000.0, np.inf))]
        assert len({harness.level_tag(m) for m in meters}) == len(meters)


class TestDegradeProvenance:
    def test_records_derived_tilt_rms(self, tiny_cfg, tmp_path):
        cmd_synth(tiny_cfg)
        report = cmd_degrade(tiny_cfg)
        prov = json.loads((tmp_path / "degraded" / report["level"] / "provenance.json").read_text())
        params = _turb_params(tiny_cfg)
        assert prov["tilt_rms_px"] == pytest.approx(params.tilt_rms_px, rel=1e-12)
        assert prov["d_over_r0"] == pytest.approx(params.d_over_r0, rel=1e-12)
        # the seed and the turbulence config are in made_under.json
        assert set(prov) == {"level", "intensity_meters", "fried_r0", "d_over_r0", "tilt_rms_px"}


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

        manifest, load_degraded, load_restored = harness._image_sets(tiny_cfg, None, "degraded", "restored")
        entries = manifest.split_images("test")
        lq, _ = load_degraded(entries)
        restored, _ = load_restored(entries)
        want = probe_embeddings(strategy, lq, restored, frozen, trained[0])
        got = probe_embeddings(strategy, lq, restored, frozen, loaded)
        assert got.tobytes() == want.tobytes()


class TestEvaluateStrategy:
    def test_runs_the_architecture_its_state_was_built_with(self, tiny_cfg):
        # the test split of tests/test_cli.py, big enough for 4 folds of pairs
        tiny_cfg["dataset"].update(n_test_identities=3, test_per_identity=4)
        tiny_cfg["eval"].update(n_genuine_pairs=12, n_impostor_pairs=12, n_folds=4)
        for cmd in (cmd_synth, cmd_degrade, cmd_restore, cmd_pretrain):
            cmd(tiny_cfg)
        frozen = harness._load_backbone(tiny_cfg, None)
        manifest, load_clean, load_degraded, load_restored = harness._image_sets(
            tiny_cfg, None, "dataset", "degraded", "restored"
        )
        train, test = manifest.split_images("train"), manifest.split_images("test")
        deep_cfg = json.loads(json.dumps(tiny_cfg))
        deep_cfg["fusion"]["cascade_depth"] = 3
        lq, labels = load_degraded(train)
        restored, _ = load_restored(train)
        args = (frozen, harness._fusion_cfg(deep_cfg), harness._margin(tiny_cfg), harness._train_cfg(tiny_cfg))
        result = harness.train_adapter(lq, restored, labels, *args)

        clean_test, labels_test = load_clean(test)
        lq_test, _ = load_degraded(test)
        restored_test, _ = load_restored(test)
        gallery = harness.gallery_embeddings(clean_test, frozen)
        pairs = harness.verification_pairs(tiny_cfg, manifest)

        def scores(cfg, state):
            _, score_set = harness.evaluate_strategy(
                cfg, "adapter_joint", pairs, frozen, state, gallery, lq_test, restored_test, labels_test
            )
            return score_set.scores.tobytes()

        # the run config says cascade 1; the state was built, and is evaluated, at cascade 3
        assert scores(tiny_cfg, result) == scores(deep_cfg, result)
        assert result.fusion_params.cfg.cascade_depth == 3
        # the same weights run at cascade 1 score differently, so the check above can fail
        shallow = dataclasses.replace(result.fusion_params, cfg=harness._fusion_cfg(tiny_cfg))
        assert scores(tiny_cfg, dataclasses.replace(result, fusion_params=shallow)) != scores(deep_cfg, result)


# the fusion-grid rows of the default ablation lists, which the benchmark's
# `ablate` workload also uses
DEFAULT_GRID = [
    "residual=True",
    "residual=False",
    "cascade=3",
    "cascade=5",
    "order=self_first",
    "variant=a",
    "variant=b",
    "variant=c",
]


class TestFusionGrid:
    @pytest.mark.parametrize(
        "sets, names",
        [
            ([], DEFAULT_GRID),
            (["ablations.cascade=[1, 3, 5]"], DEFAULT_GRID),
            (
                ["ablations.residual=[false, true]", "ablations.cascade=[3, 1, 3]", "ablations.role_variants=[\"d\", \"b\"]"],
                ["residual=False", "residual=True", "cascade=3", "order=self_first", "variant=b"],
            ),
        ],
        ids=["defaults", "benchmark", "reordered"],
    )
    def test_variants_keep_their_names_and_order(self, sets, names):
        cfg = load_config(sets=sets)
        variants = harness._fusion_grid_variants(cfg)
        assert [name for name, _ in variants] == names
        base = harness._fusion_cfg(cfg)
        fields = {"residual": "use_residual", "cascade": "cascade_depth", "order": "attention_order", "variant": "role_variant"}
        for name, fcfg in variants:
            label, value = name.split("=")
            assert fcfg == dataclasses.replace(base, **{fields[label]: getattr(fcfg, fields[label])})
            assert str(getattr(fcfg, fields[label])) == value

    @pytest.mark.parametrize("variant, probes_hq", [("b", False), ("d", True)])
    def test_gradcheck_probes_the_hq_branch_only_when_the_fusion_reads_it(self, variant, probes_hq, monkeypatch):
        probed = []
        real = harness.finite_diff_check

        def recording(f, params, **kw):
            probed.extend(params)
            return real(f, params, **kw)

        monkeypatch.setattr(harness, "finite_diff_check", recording)
        fcfg = FusionConfig(d_model=16, ffn_hidden=32, role_variant=variant)
        err = harness.full_pipeline_gradcheck(fcfg, np.float64, eps=1e-5, samples_per_tensor=2)
        assert any(k.startswith("hq.") for k in probed) == probes_hq
        assert "head.weights" in probed and any(k.startswith("fusion.") for k in probed)
        assert err < harness.GRADCHECK_TOL_F64


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
