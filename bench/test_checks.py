"""Fast tests of the benchmark's output checks and tracer.

Each check must pass on the program's own outputs and fail on an output
altered the way a fault would alter it.

    PYTHONPATH=src python -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import tracer  # noqa: E402
from worker import Calls, Runner  # noqa: E402

TINY = {
    "seed": 5,
    "dataset": {
        "n_identities": 4,
        "per_identity": 4,
        "n_test_identities": 4,
        "test_per_identity": 4,
        "image_size": 16,
    },
    "backbone": {"epochs": 1, "batch_size": 8},
    "train": {"epochs": 1, "batch_size": 8},
    "eval": {"n_genuine_pairs": 8, "n_impostor_pairs": 8, "n_folds": 2},
}
ORDER = ("synth", "degrade", "restore", "pretrain", "train", "eval")


@pytest.fixture(scope="module")
def tiny(tmp_path_factory):
    """Outputs of the six pipeline commands on a 16-px config."""
    from turbfuse import harness

    root = tmp_path_factory.mktemp("tiny")
    runner = Runner("pipeline", TINY, root)
    calls = Calls(harness)
    try:
        recs = {}
        for cmd in ORDER:
            rec = runner.op(cmd, (), root / "out")
            rec["calls"], rec["evals"] = calls.take()
            assert rec["rc"] == 0, cmd
            recs[cmd] = rec
    finally:
        calls.uninstall()
    return SimpleNamespace(root=root, out=root / "out", cfg_path=runner.cfg_path, recs=recs)


def _copy(tiny, tmp_path):
    """A writable copy of the tiny outputs and records that point at it."""
    out = tmp_path / "out"
    shutil.copytree(tiny.out, out)
    recs = {k: dict(r, out=str(out)) for k, r in tiny.recs.items()}
    return out, recs


def _rewrite_fat(path, fn):
    raw = Path(path).read_bytes()
    hlen = int.from_bytes(raw[4:8], "little")
    arr = checks.read_fat(path).copy()
    Path(path).write_bytes(raw[: 8 + hlen] + fn(arr).astype(arr.dtype).tobytes())


def _fails(tiny, rec):
    return checks.check_op(tiny.cfg_path, rec)


# -- references ------------------------------------------------------------------


def test_kfold_accuracy_matches_protocol_on_tied_scores():
    from turbfuse.metrics import ScoreSet, verification_accuracy

    rng = np.random.default_rng(0)
    for n_folds in (1, 3, 10):
        scores = np.round(rng.normal(size=200), 1)  # many ties
        labels = rng.random(200) < 0.5
        want = verification_accuracy(ScoreSet(scores, labels), n_folds=n_folds)
        assert checks.kfold_accuracy(scores, labels, n_folds) == want


def test_kfold_accuracy_lowest_threshold_wins_a_tie():
    acc, thresholds = checks.kfold_accuracy([0.0, 1.0], [True, False], 1)
    assert thresholds == [-1.0] and acc == 0.5


def test_check_evals_flags_a_wrong_accuracy():
    scores = np.linspace(-1, 1, 40)
    labels = scores > 0.1
    acc, _ = checks.kfold_accuracy(scores, labels, 10)
    ev = {"strategy": "s", "scores": scores, "labels": labels, "n_folds": 10}
    assert checks.check_evals([dict(ev, accuracy=acc)]) == []
    assert checks.check_evals([dict(ev, accuracy=acc - 1 / 40)])


def test_convolve_edge_is_nearest_mode_convolution():
    from scipy.ndimage import convolve, correlate

    rng = np.random.default_rng(1)
    img, kern = rng.random((12, 12)), rng.random((5, 5))
    ours = checks.convolve_edge(img, kern)
    np.testing.assert_allclose(ours, convolve(img, kern, mode="nearest"), rtol=0, atol=1e-12)
    assert np.abs(ours - correlate(img, kern, mode="nearest")).max() > 1e-3


def test_reference_degrade_matches_program():
    from turbfuse.turbsim import degrade, init_params

    params = init_params(30000.0, 24)
    img = np.random.default_rng(2).random((24, 24))
    got = degrade(img, params, np.random.SeedSequence([7, 30000, 3]))
    np.testing.assert_allclose(checks.reference_degrade(img, params, 7, 3), got, rtol=0, atol=1e-12)
    assert np.abs(checks.reference_degrade(img, params, 7, 4) - got).max() > 1e-3


def test_reference_tilt_rms_matches_noll_value():
    from turbfuse.config import DEFAULTS
    from turbfuse.turbsim import init_params

    turb = DEFAULTS["turbulence"]
    for meters in (10000.0, 40000.0):
        ref = checks.reference_tilt_rms(turb, meters)
        assert abs(init_params(meters, 64).tilt_rms_px - ref) <= checks.TILT_RTOL * ref


# -- per-command checks on real outputs --------------------------------------------


def test_program_outputs_pass_every_check(tiny):
    for cmd in ("synth", "degrade", "restore", "train", "eval"):
        assert _fails(tiny, tiny.recs[cmd]) == [], cmd


def test_check_synth_flags_range_and_shared_identities(tiny, tmp_path):
    out, recs = _copy(tiny, tmp_path)
    first = json.loads((out / "dataset" / "manifest.json").read_text())["images"][0]["path"]
    _rewrite_fat(out / "dataset" / first, lambda a: a + 2.0)
    assert _fails(tiny, recs["synth"])
    manifest = json.loads((tiny.out / "dataset" / "manifest.json").read_text())
    manifest["images"][-1]["label"] = manifest["images"][0]["label"]
    (out / "dataset" / "manifest.json").write_text(json.dumps(manifest))
    shutil.copy(tiny.out / "dataset" / first, out / "dataset" / first)
    assert any("share identities" in f for f in _fails(tiny, recs["synth"]))


def test_check_degrade_flags_pixels_and_provenance(tiny, tmp_path):
    out, recs = _copy(tiny, tmp_path)
    first = json.loads((out / "dataset" / "manifest.json").read_text())["images"][0]["path"]
    target = out / "degraded" / "20k" / first
    _rewrite_fat(target, lambda a: 0.9 * a + 0.1 * a.mean())  # stays in range, differs from reference
    assert any("reference" in f for f in _fails(tiny, recs["degrade"]))
    _rewrite_fat(target, lambda a: a + 1.0)
    assert any("clean range" in f for f in _fails(tiny, recs["degrade"]))
    shutil.copy(tiny.out / "degraded" / "20k" / first, target)
    prov_path = out / "degraded" / "20k" / "provenance.json"
    prov = json.loads(prov_path.read_text())
    prov["tilt_rms_px"] *= 1.2
    prov_path.write_text(json.dumps(prov))
    assert any("tilt_rms_px" in f for f in _fails(tiny, recs["degrade"]))


def test_check_restore_flags_an_unrestored_image(tiny, tmp_path):
    out, recs = _copy(tiny, tmp_path)
    first = json.loads((out / "dataset" / "manifest.json").read_text())["images"][0]["path"]
    shutil.copy(out / "degraded" / "20k" / first, out / "restored" / "20k" / first)  # no restoration at all
    assert _fails(tiny, recs["restore"])


def test_check_pretrain_flags_a_rising_loss(tiny, tmp_path):
    out, recs = _copy(tiny, tmp_path)
    path = out / "pretrain" / "history.json"
    path.write_text(json.dumps({"loss_first": 11.0, "loss_last": 3.0}))
    assert _fails(tiny, recs["pretrain"]) == []
    path.write_text(json.dumps({"loss_first": 11.0, "loss_last": 14.0}))
    assert _fails(tiny, recs["pretrain"])


def test_check_train_flags_frozen_change_and_step_count(tiny):
    rec = tiny.recs["train"]
    assert _fails(tiny, dict(rec, frozen_identical=False))
    summary = dict(rec["summary"], optimizer_steps=rec["summary"]["optimizer_steps"] + 1)
    assert _fails(tiny, dict(rec, summary=summary))


def test_check_eval_flags_tar_order_and_wrong_scores(tiny):
    rec = tiny.recs["eval"]
    report = json.loads(json.dumps(rec["report"]))
    report["report"]["tar_at_far"] = {"0.01": 0.9, "0.1": 0.5}
    assert any("TAR" in f for f in _fails(tiny, dict(rec, report=report)))
    ev = dict(rec["evals"][0], labels=~rec["evals"][0]["labels"])
    assert _fails(tiny, dict(rec, evals=[ev]))


def test_pair_failures_flags_duplicates_self_pairs_and_labels():
    P = SimpleNamespace
    labels = [0, 0, 1, 1]
    assert checks.pair_failures([P(index_a=0, index_b=1, genuine=True), P(index_a=0, index_b=2, genuine=False)], labels) == []
    assert checks.pair_failures([P(index_a=0, index_b=1, genuine=True), P(index_a=1, index_b=0, genuine=True)], labels)
    assert checks.pair_failures([P(index_a=2, index_b=2, genuine=True)], labels)
    assert checks.pair_failures([P(index_a=0, index_b=2, genuine=True)], labels)


def _ablate_rec():
    cfg = {"ablations": {"table3_seeds": [0, 1]}}
    report = {
        "intensity": {
            "rows": [
                {"level": f"{k}k", "intensity_meters": k * 1000.0, "mse": m, "accuracy": a}
                for k, m, a in ((10, 0.02, 0.9), (20, 0.05, 0.8), (30, 0.07, 0.7), (40, 0.08, 0.6))
            ]
        },
        "restorer": {
            "rows": [{"mode": "oracle_blend", "fidelity_w": w, "mse_to_clean": m} for w, m in ((0.0, 0.001), (0.5, 0.01), (1.0, 0.05))]
            + [{"mode": "wiener", "fidelity_w": None, "mse_to_clean": 0.07}]
        },
        "fusion_grid": {"rows": [{"variant": f"v{i}", "gradcheck_passed": True} for i in range(8)]},
    }
    scores = np.linspace(-1, 1, 20)
    labels = scores > 0
    acc, _ = checks.kfold_accuracy(scores, labels, 10)
    evals = [{"strategy": "s", "scores": scores, "labels": labels, "n_folds": 10, "accuracy": acc}] * 24
    return cfg, {"cmd": "ablate", "report": report, "evals": evals}


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda r: r["intensity"]["rows"][2].update(mse=0.09),
        lambda r: r["intensity"]["rows"][3].update(accuracy=0.95),
        lambda r: r["restorer"]["rows"][1].update(mse_to_clean=0.0001),
        lambda r: r["fusion_grid"]["rows"][5].update(gradcheck_passed=False),
    ],
)
def test_check_ablate_flags_each_property(corrupt):
    cfg, rec = _ablate_rec()
    assert checks.check_ablate(cfg, None, rec) == []
    corrupt(rec["report"])
    assert checks.check_ablate(cfg, None, rec)


# -- tracer and benchmark definition ----------------------------------------------


def test_tracer_spans_forward_backward_and_restores_names():
    from turbfuse import backbone, optim, tensor
    from turbfuse.backbone import BackboneConfig, BackboneParams

    before = (tensor.conv2d, tensor.backward, optim.backward, backbone.embed)
    tr = tracer.Tracer()
    tr.install()
    try:
        p = BackboneParams.init(np.random.default_rng(0), BackboneConfig(image_size=16))
        loss = tensor.tensor_sum(backbone.embed(np.random.default_rng(1).random((2, 16, 16)), p))
        tensor.backward(loss)
    finally:
        tr.uninstall()
    assert (tensor.conv2d, tensor.backward, optim.backward, backbone.embed) == before
    m = tr.metrics()
    assert m["tensor.conv2d.calls"] == 3 and m["tensor.conv2d.bwd_s"] > 0
    assert m["backbone.embed.images"] == 2 and m["backbone.embed.distinct_inputs"] == 1
    assert m["tensor.backward.calls"] == 1 and 0 < m["tensor.backward.self_s"]
    names = {s[0] for s in tr.spans}
    assert {"tensor.avg_pool2x2.bwd", "tensor.relu.bwd", "tensor.matmul.bwd"} <= names


def test_benchmark_json_lists_every_reported_metric():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == [n for n, _ in tracer.LAYER_METRICS]
    assert [m["unit"] for m in spec["per_layer"]] == [u for _, u in tracer.LAYER_METRICS]
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
