"""End-to-end CLI runs on a 16-px config: exit codes, byte-identical reruns,
artifacts and checkpoints checked against the config, and the work one
`ablate` shares between its parts."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import turbfuse
from turbfuse import datagen, harness, tensorio
from turbfuse.cli import main
from turbfuse.config import DEFAULTS
from turbfuse.datagen import DatasetManifest, load_images
from turbfuse.tensorio import load_bundle, save_bundle

PIPELINE = ("synth", "degrade", "restore", "pretrain", "train", "eval")

TINY = {
    "dataset": {"n_identities": 4, "per_identity": 4, "n_test_identities": 3, "test_per_identity": 4, "image_size": 16},
    "backbone": {"channels": [4, 8], "embed_dim": 8, "epochs": 2, "batch_size": 8},
    "fusion": {"ffn_hidden": 16},
    "train": {"epochs": 2, "batch_size": 8},
    "eval": {"n_genuine_pairs": 12, "n_impostor_pairs": 12, "n_folds": 4},
}


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "tiny.json"
    path.write_text(json.dumps(TINY))
    return path


def run_pipeline(config_path, out):
    codes = [main([cmd, "--config", str(config_path), "--out", str(out), "--format", "csv"]) for cmd in PIPELINE]
    assert codes == [0] * len(PIPELINE)
    return out / "reports" / "eval_adapter_joint_20k.json"


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """A full pipeline run at the tiny config's defaults (variant d, cross_first)."""
    root = tmp_path_factory.mktemp("trained")
    path = root / "tiny.json"
    path.write_text(json.dumps(TINY))
    run_pipeline(path, root / "out")
    return path, root / "out"


def tree(root):
    """Relative path -> bytes of every file under ``root``."""
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_pipeline_reruns_byte_identical(config_path, tmp_path, capsys):
    first = run_pipeline(config_path, tmp_path / "a")
    run_pipeline(config_path, tmp_path / "b")
    capsys.readouterr()
    report = json.loads(first.read_text())
    assert report["report"]["config"]["n_pairs"] == 24
    files = tree(tmp_path / "a")
    assert files == tree(tmp_path / "b")
    assert sorted(rel for rel in files if rel.endswith("made_under.json")) == [
        "dataset/made_under.json",
        "degraded/20k/made_under.json",
        "pretrain/backbone/made_under.json",
        "restored/20k/made_under.json",
        "train/adapter_joint/checkpoint/made_under.json",
    ]
    # the image sets hold the dataset's paths; the dataset's manifest is the only one
    assert [rel for rel in files if Path(rel).name == "manifest.json"] == ["dataset/manifest.json"]


def test_moving_every_artifact_table_entry_moves_every_artifact(config_path, tmp_path, monkeypatch, capsys):
    # harness.ARTIFACTS is the one place an artifact's directory is named: any path built elsewhere stays behind
    moved = {
        "synth": "faces",
        "degrade": "lq/{tag}",
        "restore": "hq/{tag}",
        "pretrain": "recognizer/weights",
        "train": "ckpt/{strategy}/weights",
    }
    for cmd, template in moved.items():
        monkeypatch.setitem(harness.ARTIFACTS, cmd, (template, harness.ARTIFACTS[cmd][1]))
    out = tmp_path / "out"
    run_pipeline(config_path, out)
    argv = ["ablate", "--config", str(config_path), "--out", str(out), "--set", 'ablations.parts=["intensity"]']
    assert main(argv) == 0
    capsys.readouterr()
    assert sorted(str(p.relative_to(out)) for p in out.rglob("made_under.json")) == [
        "ckpt/adapter_joint/weights/made_under.json",
        "faces/made_under.json",
        "hq/20k/made_under.json",
        "lq/20k/made_under.json",
        "recognizer/weights/made_under.json",
    ]
    # no default directory: the reports beside each artifact moved with it
    assert sorted(p.name for p in out.iterdir()) == ["ckpt", "faces", "hq", "lq", "recognizer", "reports"]
    assert (out / "recognizer" / "history.json").exists() and (out / "ckpt" / "adapter_joint" / "history.jsonl").exists()


def test_eval_on_empty_directory_exits_3(config_path, tmp_path, capsys):
    assert main(["eval", "--config", str(config_path), "--out", str(tmp_path / "empty")]) == 3
    assert "run the `synth` command first" in capsys.readouterr().err


@pytest.mark.parametrize(
    "override",
    [
        "fusion.block_norm=false",
        "fusion.role_variant=b",
        "fusion.attention_order=self_first",
        # these two change no tensor's shape: only the checkpoint's made_under.json tells them apart
        "fusion.cascade_depth=3",
        "fusion.use_residual=false",
    ],
)
def test_eval_of_a_checkpoint_from_another_fusion_config_exits_3(trained, override, capsys):
    path, out = trained
    assert main(["eval", "--config", str(path), "--out", str(out), "--set", override]) == 3
    assert "run the `train` command" in capsys.readouterr().err


def test_eval_of_a_checkpoint_without_its_fusion_config_exits_3(trained, tmp_path, capsys):
    # weights only, without the record of the config (its fusion section included) they were trained under
    path, out = trained
    for sub in ("dataset", "degraded", "restored", "pretrain", "train"):
        shutil.copytree(out / sub, tmp_path / sub)
    (tmp_path / "train" / "adapter_joint" / "checkpoint" / "made_under.json").unlink()
    assert main(["eval", "--config", str(path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "made_under.json not found" in err and "run the `train` command" in err


@pytest.mark.parametrize(
    "cmd, override, writer, done, inputs, then",
    [
        ("synth", "seed=5", datagen, 5, ("dataset",), "degrade"),
        ("degrade", "turbulence.cn2=1e-13", harness, 5, ("dataset", "degraded"), "restore"),
        ("restore", "restore.fidelity_w=0.9", harness, 5, ("dataset", "degraded", "restored", "pretrain"), "train"),
        ("pretrain", "backbone.lr=0.5", tensorio, 5, ("dataset", "degraded", "restored", "pretrain"), "train"),
        ("train", "train.lr_base=0.01", tensorio, 5, ("dataset", "degraded", "restored", "pretrain", "train"), "eval"),
        # dies inside a JSON write: the degraded provenance, the bundle index, and the record after it
        ("degrade", "turbulence.cn2=1e-13", json, 0, ("dataset", "degraded"), "restore"),
        ("pretrain", "backbone.lr=0.5", json, 0, ("dataset", "degraded", "restored", "pretrain"), "train"),
        ("pretrain", "backbone.lr=0.5", json, 1, ("dataset", "degraded", "restored", "pretrain"), "eval"),
    ],
)
def test_a_run_that_dies_partway_leaves_an_artifact_no_command_loads(
    trained, tmp_path, monkeypatch, cmd, override, writer, done, inputs, then, capsys
):
    # the first files of the new config overwrite the old set, whose record would otherwise still fit the rest
    path, out = trained
    for sub in inputs:
        shutil.copytree(out / sub, tmp_path / sub)
    name = "dump" if writer is json else "save_tensor"
    real, written = getattr(writer, name), []

    def dies_partway(*args, **kw):
        if len(written) == done:
            if writer is json:  # half of the text reaches the file
                args[1].write(json.dumps(args[0], **kw)[:40])
            raise OSError("disk full")
        written.append(real(*args, **kw))

    monkeypatch.setattr(writer, name, dies_partway)
    with pytest.raises(OSError):
        main([cmd, "--config", str(path), "--out", str(tmp_path), "--set", override])
    monkeypatch.undo()
    assert len(written) == done
    capsys.readouterr()
    assert main([then, "--config", str(path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "made_under.json not found" in err and f"run the `{cmd}` command again" in err


def test_finetune_restored_checkpoint_does_not_depend_on_the_fusion_config(trained, tmp_path, capsys):
    # finetune_restored trains no fusion weights, so the fusion section is no part of its record
    path, out = trained
    for sub in ("dataset", "degraded", "restored", "pretrain"):
        shutil.copytree(out / sub, tmp_path / sub)
    argv = ["--config", str(path), "--out", str(tmp_path), "--format", "csv", "--set", "train.strategy=finetune_restored"]
    assert main(["train"] + argv) == 0
    record = json.loads((tmp_path / "train" / "finetune_restored" / "checkpoint" / "made_under.json").read_text())
    assert "train.strategy" in record and not any(k.startswith("fusion.") for k in record)
    scores = tmp_path / "reports" / "eval_finetune_restored_20k.csv"
    assert main(["eval"] + argv) == 0
    before = scores.read_bytes()
    assert main(["eval"] + argv + ["--set", "fusion.cascade_depth=3"]) == 0
    assert scores.read_bytes() == before


@pytest.mark.parametrize(
    "cmd, override, made_by",
    [
        ("restore", "turbulence.cn2=1e-13", "degrade"),
        ("eval", "turbulence.cn2=1e-13", "degrade"),
        ("train", "restore.fidelity_w=0.9", "restore"),
        ("train", "backbone.lr=0.5", "pretrain"),
        ("eval", "loss.s=32.0", "pretrain"),
    ],
)
def test_a_command_on_artifacts_made_under_another_config_exits_3(trained, cmd, override, made_by, capsys):
    # each changes no manifest and no tensor's shape: only the artifacts' made_under.json tell the configs apart
    path, out = trained
    assert main([cmd, "--config", str(path), "--out", str(out), "--set", override]) == 3
    err = capsys.readouterr().err
    key = override.split("=")[0]
    assert f"made under another config ({key} differ)" in err and f"run the `{made_by}` command again" in err


@pytest.mark.parametrize("override", ["dataset.test_per_identity=5", "seed=5"])
def test_eval_on_a_dataset_from_another_config_exits_3(trained, override, capsys):
    path, out = trained
    assert main(["eval", "--config", str(path), "--out", str(out), "--set", override]) == 3
    err = capsys.readouterr().err
    key = override.split("=")[0]
    assert f"dataset was made under another config ({key} differ)" in err and "run the `synth` command again" in err


def test_degraded_set_from_another_dataset_exits_3(trained, tmp_path, capsys):
    # a fresh dataset under seed 5 beside the degraded set made from the seed-0 one
    path, out = trained
    shutil.copytree(out / "degraded", tmp_path / "degraded")
    argv = ["--config", str(path), "--out", str(tmp_path), "--set", "seed=5"]
    assert main(["synth"] + argv) == 0
    assert main(["restore"] + argv) == 3
    err = capsys.readouterr().err
    assert "degraded/20k was made under another config (seed differ)" in err
    assert "run the `degrade` command again" in err
    # the advice is the way out
    assert main(["degrade"] + argv) == 0
    assert main(["restore"] + argv) == 0


@pytest.mark.parametrize(
    "kind, made_by",
    [
        ("dataset", "synth"),
        ("degraded/20k", "degrade"),
        ("restored/20k", "restore"),
        ("pretrain/backbone", "pretrain"),
        ("train/adapter_joint/checkpoint", "train"),
    ],
)
def test_a_set_from_another_generator_version_exits_3(trained, tmp_path, kind, made_by, capsys):
    # every artifact descends from the generator's faces, so every record names the generator version
    path, out = trained
    for sub in ("dataset", "degraded", "restored", "pretrain", "train"):
        shutil.copytree(out / sub, tmp_path / sub)
    record_path = tmp_path / kind / "made_under.json"
    record = json.loads(record_path.read_text())
    assert record["generator_version"] == datagen.GENERATOR_VERSION
    record_path.write_text(json.dumps({**record, "generator_version": "g0"}))
    assert main(["eval", "--config", str(path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert f"{kind} was made under another config (generator_version differ)" in err
    assert f"run the `{made_by}` command again" in err


def test_eval_on_a_dataset_of_the_older_layout_exits_3(trained, tmp_path, capsys):
    # the older manifest held the generator, the image size and per-image seeds, and the record no generator:
    # the record is read first, so the manifest's extra fields are never parsed
    path, out = trained
    for sub in ("dataset", "degraded", "restored", "pretrain", "train"):
        shutil.copytree(out / sub, tmp_path / sub)
    manifest_path, record_path = tmp_path / "dataset" / "manifest.json", tmp_path / "dataset" / "made_under.json"
    manifest = json.loads(manifest_path.read_text())
    for k, entry in enumerate(manifest["images"]):
        entry["seed"] = k
    manifest.update(generator_version=datagen.GENERATOR_VERSION, image_size=16)
    manifest_path.write_text(json.dumps(manifest))
    record = json.loads(record_path.read_text())
    del record["generator_version"]
    record_path.write_text(json.dumps(record))
    assert main(["eval", "--config", str(path), "--out", str(tmp_path)]) == 3
    err = capsys.readouterr().err
    assert "dataset was made under another config (generator_version differ)" in err
    assert "run the `synth` command again" in err


def test_degrade_at_a_nearby_intensity_leaves_the_other_set_alone(trained, tmp_path, capsys):
    # 20,400 m has its own directory, not the 20,000 m set's
    path, out = trained
    for sub in ("dataset", "degraded"):
        shutil.copytree(out / sub, tmp_path / sub)
    argv = ["degrade", "--config", str(path), "--out", str(tmp_path), "--set", "turbulence.intensity_meters=20400"]
    assert main(argv) == 0
    assert json.loads(capsys.readouterr().out.splitlines()[-1])["level"] == "20.4k"
    assert sorted(p.name for p in (tmp_path / "degraded").iterdir()) == ["20.4k", "20k"]
    assert tree(tmp_path / "degraded" / "20k") == tree(out / "degraded" / "20k")


def test_a_larger_test_split_reuses_the_backbone_and_checkpoint(trained, tmp_path, capsys):
    # test identities are numbered after the train ones, so no train-side byte depends on the test split
    path, out = trained
    argv = ["--config", str(path), "--format", "csv", "--set", "dataset.n_test_identities=6"]
    grown, fresh = tmp_path / "grown", tmp_path / "fresh"
    checkpoints = ("pretrain/backbone", "train/adapter_joint/checkpoint")
    for sub in checkpoints:
        shutil.copytree(out / sub, grown / sub)
    for cmd in ("synth", "degrade", "restore", "eval"):
        assert main([cmd, "--out", str(grown)] + argv) == 0
    for cmd in PIPELINE:
        assert main([cmd, "--out", str(fresh)] + argv) == 0
    capsys.readouterr()
    for sub in checkpoints:
        assert tree(grown / sub) == tree(fresh / sub)
    assert tree(grown / "reports") == tree(fresh / "reports")


@pytest.mark.parametrize(
    "cmd, override",
    [
        ("eval", "backbone.channels=[8, 8]"),
        ("train", "backbone.channels=[8, 8]"),
        ("ablate", "backbone.channels=[8, 8]"),
        ("eval", "backbone.kernel=5"),
    ],
)
def test_pretrained_backbone_from_another_config_exits_3(trained, cmd, override, capsys):
    path, out = trained
    argv = [cmd, "--config", str(path), "--out", str(out), "--set", override]
    if cmd == "ablate":  # the restorer sweep's 23-px wiener PSF does not fit the 16-px images
        argv += ["--set", 'ablations.parts=["intensity"]']
    assert main(argv) == 3
    err = capsys.readouterr().err
    assert "conv0.w" in err and "run the `pretrain` command" in err


def test_train_checkpoint_from_another_backbone_config_exits_3(trained, tmp_path, capsys):
    # a matching pretrained backbone, but the train checkpoint's hq branch still has the old shapes
    path, out = trained
    copy = tmp_path / "out"
    for sub in ("dataset", "degraded", "restored", "train"):
        shutil.copytree(out / sub, copy / sub)
    argv = ["--config", str(path), "--out", str(copy), "--set", "backbone.channels=[8, 8]"]
    assert main(["pretrain"] + argv) == 0
    assert main(["eval"] + argv) == 3
    err = capsys.readouterr().err
    assert "hq.conv0.w" in err and "run the `train` command" in err


def test_variant_b_checkpoint_with_an_hq_branch_exits_3(trained, tmp_path, capsys):
    # a variant-b checkpoint as an older layout wrote it: the fusion plus an unused hq.* copy of the backbone
    path, out = trained
    copy = tmp_path / "out"
    for sub in ("dataset", "degraded", "restored", "pretrain"):
        shutil.copytree(out / sub, copy / sub)
    argv = ["--config", str(path), "--out", str(copy), "--set", "fusion.role_variant=b"]
    assert main(["train"] + argv) == 0
    checkpoint = copy / "train" / "adapter_joint" / "checkpoint"
    arrays = load_bundle(checkpoint)
    assert not any(k.startswith("hq.") for k in arrays)
    arrays.update({f"hq.{k}": a for k, a in load_bundle(copy / "pretrain" / "backbone").items()})
    save_bundle(checkpoint, arrays)
    capsys.readouterr()
    assert main(["eval"] + argv) == 3
    err = capsys.readouterr().err
    assert "hq.conv0.w" in err and "run the `train` command" in err


@pytest.mark.parametrize(
    "cmd, key",
    [("pretrain", "backbone.epochs"), ("pretrain", "backbone.batch_size"), ("train", "train.epochs"), ("train", "train.batch_size")],
)
def test_empty_training_config_exits_2_before_writing(config_path, tmp_path, cmd, key, capsys):
    for setup in PIPELINE[: PIPELINE.index(cmd)]:
        assert main([setup, "--config", str(config_path), "--out", str(tmp_path)]) == 0
    assert main([cmd, "--config", str(config_path), "--out", str(tmp_path), "--set", f"{key}=0"]) == 2
    assert key.split(".")[1] in capsys.readouterr().err
    assert not (tmp_path / cmd).exists()


@pytest.mark.parametrize(
    "cmd, inputs, sets",
    [
        ("pretrain", ("dataset",), ("backbone.epochs=1", "backbone.batch_size=16")),
        ("train", ("dataset", "degraded", "restored", "pretrain"), ("train.epochs=1", "train.batch_size=16")),
    ],
    ids=["pretrain", "train"],
)
def test_one_step_training_runs(trained, tmp_path, cmd, inputs, sets, capsys):
    # one batch of all 16 train images, and no warmup_steps the run could fit
    path, out = trained
    for sub in inputs:
        shutil.copytree(out / sub, tmp_path / sub)
    argv = [cmd, "--config", str(path), "--out", str(tmp_path)] + [a for s in sets for a in ("--set", s)]
    capsys.readouterr()
    assert main(argv) == 0
    summary = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert summary["optimizer_steps" if cmd == "train" else "steps"] == 1


def test_seed_comes_from_the_config_only(config_path, tmp_path, monkeypatch, capsys):
    hashes = []
    for env in (None, "5"):
        if env is not None:
            monkeypatch.setenv("TURBFUSE_SEED", env)
        assert main(["synth", "--config", str(config_path), "--out", str(tmp_path / str(env))]) == 0
        hashes.append(json.loads(capsys.readouterr().out.splitlines()[-1])["config_hash"])
    assert hashes[0] == hashes[1]


def test_importing_the_package_pins_blas_threads():
    names = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
    env = {k: v for k, v in os.environ.items() if k not in names}
    env["PYTHONPATH"] = str(Path(turbfuse.__file__).resolve().parents[1])
    code = f"import os, turbfuse; print([os.environ[k] for k in {names!r}])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "['1', '1', '1']"


def test_importing_the_cli_leaves_scipy_unloaded():
    # numpy is the one runtime dependency; scipy is only the tests' reference
    env = dict(os.environ, PYTHONPATH=str(Path(turbfuse.__file__).resolve().parents[1]))
    code = "import sys, turbfuse.cli, turbfuse.harness; print([m for m in sys.modules if m.startswith('scipy')])"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


NO_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is not installed")

sys.meta_path.insert(0, NoScipy())
from turbfuse.cli import main

config, out = sys.argv[1:]
argv = ["--config", config, "--out", out]
for cmd, sets in [("synth", []), ("degrade", []), ("restore", []), ("restore", ["--set", "restore.mode=wiener"])]:
    assert main([cmd] + argv + sets) == 0, cmd
"""


def test_the_image_commands_run_without_scipy_installed(tmp_path):
    # a PSF that fits the 16-px images, so wiener can deconvolve with it
    config = tmp_path / "tiny.json"
    config.write_text(json.dumps(dict(TINY, turbulence={"kernel_size": 15})))
    env = dict(os.environ, PYTHONPATH=str(Path(turbfuse.__file__).resolve().parents[1]))
    argv = [sys.executable, "-c", NO_SCIPY, str(config), str(tmp_path / "out")]
    run = subprocess.run(argv, env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    assert (tmp_path / "out" / "restored" / "20k" / "made_under.json").exists()


@pytest.mark.parametrize(
    "cmd, key, value",
    [
        ("degrade", "turbulence.outer_scale_m", "0"),
        ("degrade", "turbulence.pupil_px", "-3"),
        ("degrade", "turbulence.pupil_px", "97"),  # wider than the 96-px FFT grid
        ("pretrain", "backbone.kernel", "-1"),
        ("pretrain", "backbone.channels", "[]"),
        ("synth", "dataset.image_size", "-4"),
        ("synth", "dataset.image_size", "0"),
        ("restore", "restore.artifact_smooth_px", "-1"),  # would write unsmoothed white-noise artifacts
    ],
)
def test_meaningless_config_value_exits_2_before_writing(trained, tmp_path, cmd, key, value, capsys):
    # each would otherwise end in a traceback or in meaningless artifacts
    path, out = trained
    for sub in {"synth": (), "restore": ("dataset", "degraded")}.get(cmd, ("dataset",)):
        shutil.copytree(out / sub, tmp_path / sub)
    assert main([cmd, "--config", str(path), "--out", str(tmp_path), "--set", f"{key}={value}"]) == 2
    assert key.split(".")[1] in capsys.readouterr().err
    written = {"synth": "dataset", "degrade": "degraded", "restore": "restored", "pretrain": "pretrain"}[cmd]
    assert not (tmp_path / written).exists()


def test_a_rejected_synth_leaves_the_dataset_loadable(trained, tmp_path, capsys):
    path, out = trained
    shutil.copytree(out / "dataset", tmp_path / "dataset")
    before = tree(tmp_path / "dataset")
    assert main(["synth", "--config", str(path), "--out", str(tmp_path), "--set", "dataset.n_identities=3"]) == 2
    assert tree(tmp_path / "dataset") == before


@pytest.mark.parametrize("key", ["fusion.n_heads", "fusion.normalize_inputs", "train.reuse_pretrain_head"])
def test_retired_fusion_keys_exit_2(config_path, tmp_path, key, capsys):
    # false is a value the last key accepted while it existed
    assert main(["gradcheck", "--config", str(config_path), "--out", str(tmp_path), "--set", f"{key}=false"]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["restore", "ablate"])
def test_wiener_psf_larger_than_the_image_exits_2_before_restoring(config_path, tmp_path, cmd, capsys):
    # the default 23-px PSF does not fit in the 16-px images
    for setup in ("synth", "degrade", "pretrain"):
        assert main([setup, "--config", str(config_path), "--out", str(tmp_path)]) == 0
    argv = [cmd, "--config", str(config_path), "--out", str(tmp_path)]
    argv += ["--set", "restore.mode=wiener"] if cmd == "restore" else ["--set", 'ablations.parts=["restorer"]']
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "turbulence.kernel_size" in err and "dataset.image_size" in err
    assert not (tmp_path / "restored").exists()
    assert not (tmp_path / "reports").exists()


def test_gradcheck_passes(config_path, tmp_path, capsys):
    assert main(["gradcheck", "--config", str(config_path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "reports" / "gradcheck.json").read_text())["passed"] is True


def test_diverging_train_exits_4(trained, capsys):
    # the last good epoch goes to diverged/, which nothing loads; the checkpoint stays the last finished run's
    path, out = trained
    checkpoint = out / "train" / "adapter_joint" / "checkpoint"
    before = {p.name: p.read_bytes() for p in checkpoint.iterdir()}
    assert main(["train", "--config", str(path), "--out", str(out), "--set", "train.lr_base=1e6"]) == 4
    assert "diverged" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in checkpoint.iterdir()} == before
    diverged = out / "train" / "adapter_joint" / "diverged"
    assert json.loads((diverged / "index.json").read_text()).keys() == json.loads(before["index.json"]).keys()
    assert (diverged / "history.jsonl").exists()


def test_diverging_pretrain_exits_4_without_a_backbone(trained, tmp_path, capsys):
    path, out = trained
    shutil.copytree(out / "dataset", tmp_path / "dataset")
    assert main(["pretrain", "--config", str(path), "--out", str(tmp_path), "--set", "backbone.lr=1e6"]) == 4
    assert "diverged" in capsys.readouterr().err
    assert not (tmp_path / "pretrain" / "backbone").exists()
    names = json.loads((tmp_path / "pretrain" / "diverged" / "index.json").read_text())
    assert {"conv0.w", "dense.w", "head.weights"} <= names.keys()
    assert (tmp_path / "pretrain" / "diverged" / "history.jsonl").exists()


ABLATION_PARTS = ["table3", "fusion_grid", "restorer", "intensity"]


def run_ablate(path, out, parts):
    # wiener restoration needs a PSF no larger than the 16-px image
    sets = [f"ablations.parts={json.dumps(parts)}", "ablations.table3_seeds=[0, 1]", "turbulence.kernel_size=7"]
    argv = ["ablate", "--config", str(path), "--out", str(out), "--format", "csv"]
    assert main(argv + [a for s in sets for a in ("--set", s)]) == 0
    return json.loads((out / "reports" / "ablate.json").read_text())


@pytest.fixture(scope="module")
def ablations(trained):
    """One `ablate` with all four parts, counting the degraded stacks it makes,
    its embeddings of the clean gallery, its trainings and its evaluations,
    then one `ablate` per part alone."""
    path, out = trained
    manifest = DatasetManifest.load(out / "dataset" / "manifest.json")
    clean_test, _ = load_images(out / "dataset", manifest.split_images("test"))
    runs = {"degraded": [], "gallery": [], "pairs": 0, "trained": [], "evaluated": []}

    def counting_degrade(images, params, seed):
        runs["degraded"].append((len(images), params.intensity_meters))
        return real["degrade_stack"](images, params, seed)

    def counting_embed(images, params):
        if np.array_equal(getattr(images, "data", images), clean_test):
            runs["gallery"].append(len(images))
        return real["embed"](images, params)

    def counting_pairs(*args, **kw):
        runs["pairs"] += 1
        return real["make_pairs"](*args, **kw)

    # positional only, reading the train config and the strategy by position, as bench/worker.py does
    def counting_train(*args):
        runs["trained"].append(args[6].strategy)
        return real["train_adapter"](*args)

    def counting_evaluate(*args):
        runs["evaluated"].append(args[1])
        return real["evaluate_strategy"](*args)

    counting = {
        "degrade_stack": counting_degrade,
        "embed": counting_embed,
        "make_pairs": counting_pairs,
        "train_adapter": counting_train,
        "evaluate_strategy": counting_evaluate,
    }
    real = {name: getattr(harness, name) for name in counting}
    for name, fn in counting.items():
        setattr(harness, name, fn)
    try:
        runs["all"] = run_ablate(path, out, ABLATION_PARTS)
    finally:
        for name, fn in real.items():
            setattr(harness, name, fn)
    runs["csv"] = (out / "reports" / "ablate.csv").read_text()
    for part in ABLATION_PARTS:
        runs[part] = run_ablate(path, out, [part])
    return runs


def test_fusion_grid_rows_pass_gradcheck_and_flag_the_hq_branch(ablations):
    rows = ablations["fusion_grid"]["fusion_grid"]["rows"]
    assert len(rows) == 8
    assert all(r["gradcheck_passed"] for r in rows)
    live = {r["variant"]: r["hq_branch_live"] for r in rows}
    assert live.pop("variant=b") is False
    assert all(live.values())


def test_ablate_computes_each_distinct_input_once(ablations):
    ab, n_train, n_test = DEFAULTS["ablations"], 4 * 4, 3 * 4
    want = {(n_train, ab["table3_intensity"]), (n_test, ab["table3_intensity"])}
    want |= {(n_test, DEFAULTS["turbulence"]["intensity_meters"])}
    want |= {(n_test, m) for m in ab["intensity_levels"]}
    assert sorted(ablations["degraded"]) == sorted(want)
    assert ablations["gallery"] == [n_test]
    assert ablations["pairs"] == 1
    # each part alone gives the rows it gives next to the others: nothing shared leaks between parts
    for part in ABLATION_PARTS:
        assert ablations[part][part] == ablations["all"][part]


def test_ablate_trains_and_evaluates_each_cell_once(ablations):
    report = ablations["all"]
    seeds = len(report["table3"]["seeds"])
    grid, restorer, rungs = (len(report[part]["rows"]) for part in ("fusion_grid", "restorer", "intensity"))
    assert len(ablations["evaluated"]) == 4 * seeds + grid + restorer + rungs
    assert len(ablations["trained"]) == 2 * seeds + grid
    assert not {"baseline_lq", "eval_restored"} & set(ablations["trained"])


def test_ablate_csv_names_each_row_once(ablations):
    header, *lines = ablations["csv"].splitlines()
    assert header == "section,name,accuracy_pct"
    keys = [tuple(line.split(",")[:2]) for line in lines]
    assert len(keys) == len(set(keys)) == sum(len(ablations["all"][part]["rows"]) for part in ABLATION_PARTS)
    restorer = [name for section, name in keys if section == "restorer"]
    assert restorer == ["oracle_blend@0.0", "oracle_blend@0.5", "oracle_blend@1.0", "wiener"]


def test_unknown_ablation_part_exits_2_before_loading(config_path, tmp_path, capsys):
    # the output directory is empty: loading anything would exit 3 instead
    argv = ["ablate", "--config", str(config_path), "--out", str(tmp_path), "--set", 'ablations.parts=["tabel3"]']
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "tabel3" in err and "table3" in err
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize(
    "sets, named",
    [
        (['ablations.parts=["intensity"]', "ablations.intensity_levels=[0, 20000.0]"], "intensity_meters"),
        (['ablations.parts=["table3"]', "ablations.table3_intensity=0"], "intensity_meters"),
        (['ablations.parts=["table3"]', "ablations.table3_seeds=[]"], "table3_seeds"),
        # the bad rung is the last part's: it must exit before the first part trains (kernel 7 fits wiener)
        (
            [f"ablations.parts={json.dumps(ABLATION_PARTS)}", "ablations.intensity_levels=[0, 20000.0]"]
            + ["turbulence.kernel_size=7"],
            "intensity_meters",
        ),
        # the bad blend weight is the restorer part's, which runs after table3 and the fusion grid
        (
            [f"ablations.parts={json.dumps(ABLATION_PARTS)}", "ablations.restore_ws=[0.5, 1.5]"]
            + ["turbulence.kernel_size=7"],
            "fidelity_w",
        ),
    ],
    ids=["zero_rung", "zero_table3_intensity", "no_table3_seeds", "zero_rung_after_other_parts", "bad_restore_w"],
)
def test_ablate_with_a_zero_intensity_or_no_seeds_exits_2(trained, tmp_path, sets, named, monkeypatch, capsys):
    # a 0 m level used to run at the default 20 km, and no seeds wrote NaN means
    path, out = trained
    for sub in ("dataset", "pretrain"):
        shutil.copytree(out / sub, tmp_path / sub)
    trained_strategies = []
    real = harness.train_adapter

    def recording(*args):
        trained_strategies.append(args[6].strategy)
        return real(*args)

    monkeypatch.setattr(harness, "train_adapter", recording)
    argv = ["ablate", "--config", str(path), "--out", str(tmp_path)] + [a for s in sets for a in ("--set", s)]
    assert main(argv) == 2
    assert named in capsys.readouterr().err
    assert trained_strategies == []
    assert not (tmp_path / "reports" / "ablate.json").exists()
