"""End-to-end CLI runs on a 16-px config: exit codes and byte-identical reruns."""

import json

import pytest

from turbfuse.cli import main

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


@pytest.mark.parametrize("override", ["fusion.block_norm=false", "fusion.role_variant=b", "fusion.attention_order=self_first"])
def test_eval_of_a_checkpoint_from_another_fusion_config_exits_3(trained, override, capsys):
    path, out = trained
    assert main(["eval", "--config", str(path), "--out", str(out), "--set", override]) == 3
    assert "run the `train` command" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["fusion.n_heads", "fusion.normalize_inputs"])
def test_retired_fusion_keys_exit_2(config_path, tmp_path, key, capsys):
    assert main(["gradcheck", "--config", str(config_path), "--out", str(tmp_path), "--set", f"{key}=2"]) == 2
    assert key in capsys.readouterr().err


def test_gradcheck_passes(config_path, tmp_path, capsys):
    assert main(["gradcheck", "--config", str(config_path), "--out", str(tmp_path)]) == 0
    capsys.readouterr()
    assert json.loads((tmp_path / "reports" / "gradcheck.json").read_text())["passed"] is True


def test_fusion_grid_rows_pass_gradcheck_and_flag_the_hq_branch(trained, capsys):
    path, out = trained
    args = ["ablate", "--config", str(path), "--out", str(out), "--set", 'ablations.parts=["fusion_grid"]']
    assert main(args) == 0
    capsys.readouterr()
    rows = json.loads((out / "reports" / "ablate.json").read_text())["fusion_grid"]["rows"]
    assert len(rows) == 8
    assert all(r["gradcheck_passed"] for r in rows)
    live = {r["variant"]: r["hq_branch_live"] for r in rows}
    assert live.pop("variant=b") is False
    assert all(live.values())
