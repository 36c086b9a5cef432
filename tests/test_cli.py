"""End-to-end CLI runs on a 16-px config: exit codes and byte-identical reruns."""

import json

import pytest

from turbfuse.cli import main

PIPELINE = ("synth", "degrade", "restore", "pretrain", "train", "eval")

TINY = {
    "dataset": {"n_identities": 4, "per_identity": 4, "n_test_identities": 3, "test_per_identity": 4, "image_size": 16},
    "backbone": {"channels": [4, 8], "embed_dim": 8, "epochs": 2, "batch_size": 8},
    "fusion": {"n_heads": 2, "ffn_hidden": 16},
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


def test_pipeline_reruns_byte_identical(config_path, tmp_path, capsys):
    first = run_pipeline(config_path, tmp_path / "a")
    second = run_pipeline(config_path, tmp_path / "b")
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()
    assert first.with_suffix(".csv").read_bytes() == second.with_suffix(".csv").read_bytes()
    report = json.loads(first.read_text())
    assert report["report"]["config"]["n_pairs"] == 24


def test_eval_on_empty_directory_exits_3(config_path, tmp_path, capsys):
    assert main(["eval", "--config", str(config_path), "--out", str(tmp_path / "empty")]) == 3
    assert "run the `synth` command first" in capsys.readouterr().err
