"""Output checks for every CLI command the benchmark runs.

Two kinds: references the benchmark computes with its own code (10-fold
accuracy, the degraded pixels of a sample of images, the tilt RMS in the
provenance), and properties any correct program has (ranges, orderings,
frozen bytes, step counts). None compares against a stored copy of an
earlier output. Each check returns a list of failure messages.
"""

from __future__ import annotations

import json
import math
import struct
from pathlib import Path

import numpy as np

TILT_CONST = 0.4265  # angle-of-arrival RMS per axis, in units of (lambda/D)(D/r0)^(5/6)
TILT_RTOL = 1e-3  # the constant above is rounded to 4 digits
DEGRADE_ATOL = 1e-5  # float32 storage of a float64 computation
DEGRADE_SAMPLE = 6


# -- references ------------------------------------------------------------------


def read_fat(path):
    """Read one FAT1 tensor file: magic, uint32 header length, JSON header, payload."""
    raw = Path(path).read_bytes()
    if raw[:4] != b"FAT1":
        raise ValueError(f"{path}: not a FAT1 file")
    (hlen,) = struct.unpack("<I", raw[4:8])
    header = json.loads(raw[8 : 8 + hlen])
    dtype = {"f32": "<f4", "f64": "<f8"}[header["dtype"]]
    return np.frombuffer(raw[8 + hlen :], dtype=dtype).reshape(header["shape"])


def kfold_accuracy(scores, labels, n_folds):
    """10-fold verification accuracy under the conventions of metrics.py.

    Contiguous folds; on each training side the candidates are the midpoints
    of consecutive unique scores plus one below and one above them all; a
    pair is accepted when score >= threshold; the lowest candidate wins a tie.
    Counts come from sorted scores, not from the program's per-candidate loop.
    """
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=bool)
    n = len(scores)
    accs, thresholds = [], []
    for held in np.array_split(np.arange(n), n_folds):
        train = np.ones(n, dtype=bool)
        if n_folds > 1:
            train[held] = False
        s, y = scores[train], labels[train]
        u = np.unique(s)
        if len(u) == 1:
            cands = np.array([u[0] - 1.0, u[0] + 1.0])
        else:
            cands = np.concatenate([[u[0] - 1.0], (u[:-1] + u[1:]) / 2.0, [u[-1] + 1.0]])
        gen, imp = np.sort(s[y]), np.sort(s[~y])
        correct = (len(gen) - np.searchsorted(gen, cands, "left")) + np.searchsorted(imp, cands, "left")
        best = cands[int(np.argmax(correct))]
        thresholds.append(float(best))
        accs.append(float(((scores[held] >= best) == labels[held]).mean()))
    return float(np.mean(accs)), thresholds


def convolve_edge(image, kernel):
    """Direct 2-D convolution (flipped kernel) with edge-replicated borders."""
    k = kernel.shape[0]
    h = k // 2
    padded = np.pad(image, h, mode="edge")
    n, m = image.shape
    out = np.zeros((n, m))
    for i in range(k):
        for j in range(k):
            out += kernel[i, j] * padded[k - 1 - i : k - 1 - i + n, k - 1 - j : k - 1 - j + m]
    return out


def reference_degrade(clean, params, cfg_seed, index):
    """Tilt, blur and clip one image on the per-image seed streams of the harness."""
    from turbfuse import turbsim

    ss = np.random.SeedSequence([int(cfg_seed), int(params.intensity_meters), int(index)])
    tilt_ss, psf_ss = ss.spawn(2)
    clean = np.asarray(clean, dtype=np.float64)
    tilted = turbsim.apply_tilt(clean, turbsim.tilt_field(params, np.random.default_rng(tilt_ss)))
    kernel = turbsim.zernike_psf(params, seed=np.random.default_rng(psf_ss))
    return np.clip(convolve_edge(tilted, kernel), clean.min(), clean.max())


def reference_tilt_rms(turb, meters):
    """0.4265 (lambda/D) (D/r0)^(5/6) L / pixel_pitch, r0 from the plane-wave formula."""
    lam, d = turb["wavelength"], turb["aperture_diameter"]
    k = 2.0 * math.pi / lam
    r0 = (0.423 * k * k * turb["cn2"] * meters) ** (-3.0 / 5.0)
    return TILT_CONST * (lam / d) * (d / r0) ** (5.0 / 6.0) * meters / turb["pixel_pitch_m"]


# -- per-command checks ------------------------------------------------------------


def _level(meters):
    return f"{int(round(meters / 1000))}k"


def _manifest(path):
    return json.loads((Path(path) / "manifest.json").read_text())


def _images(root, entries):
    return [read_fat(Path(root) / e["path"]).astype(np.float64) for e in entries]


def check_synth(cfg, out, rec):
    d = cfg["dataset"]
    entries = _manifest(out / "dataset")["images"]
    fails = []
    want = d["n_identities"] * d["per_identity"] + d["n_test_identities"] * d["test_per_identity"]
    if len(entries) != want:
        fails.append(f"{len(entries)} images, config asks for {want}")
    for e, img in zip(entries, _images(out / "dataset", entries)):
        if img.shape != (d["image_size"],) * 2 or not (np.all(img >= 0.0) and np.all(img <= 1.0)):
            fails.append(f"{e['path']}: pixels outside [0, 1] or wrong shape {img.shape}")
            break
    train = {e["label"] for e in entries if e["split"] == "train"}
    test = {e["label"] for e in entries if e["split"] == "test"}
    if train & test:
        fails.append(f"train and test share identities {sorted(train & test)[:5]}")
    return fails


def check_degrade(cfg, out, rec, sample=DEGRADE_SAMPLE):
    from turbfuse.turbsim import init_params

    t = cfg["turbulence"]
    meters = t["intensity_meters"]
    dest = out / "degraded" / _level(meters)
    entries = _manifest(out / "dataset")["images"]
    clean = _images(out / "dataset", entries)
    degraded = _images(dest, entries)
    fails = []
    for e, c, g in zip(entries, clean, degraded):
        if g.min() < c.min() or g.max() > c.max():
            fails.append(f"{e['path']}: degraded pixels leave the clean range [{c.min()}, {c.max()}]")
            break
    overrides = {k: v for k, v in t.items() if k != "intensity_meters"}
    params = init_params(meters, cfg["dataset"]["image_size"], overrides)
    for i in np.unique(np.linspace(0, len(entries) - 1, sample).round().astype(int)):
        ref = reference_degrade(clean[i], params, cfg["seed"], i)
        err = float(np.abs(ref - degraded[i]).max())
        if err > DEGRADE_ATOL:
            fails.append(f"{entries[i]['path']}: degraded differs from the reference by {err:.3g}")
    prov = json.loads((dest / "provenance.json").read_text())
    ref = reference_tilt_rms(t, meters)
    if not abs(prov["tilt_rms_px"] - ref) <= TILT_RTOL * ref:
        fails.append(f"provenance tilt_rms_px {prov['tilt_rms_px']} != reference {ref:.6g}")
    return fails


def check_restore(cfg, out, rec):
    r = cfg["restore"]
    tag = _level(cfg["turbulence"]["intensity_meters"])
    entries = _manifest(out / "dataset")["images"]
    clean = _images(out / "dataset", entries)
    degraded = _images(out / "degraded" / tag, entries)
    restored = _images(out / "restored" / tag, entries)
    fails = []
    for e, c, g, h in zip(entries, clean, degraded, restored):
        if h.min() < 0.0 or h.max() > 1.0:
            fails.append(f"{e['path']}: restored pixels outside [0, 1]")
            break
        if r["mode"] == "oracle_blend" and r["fidelity_w"] < 1.0:
            if not ((h - c) ** 2).mean() < ((g - c) ** 2).mean():
                fails.append(f"{e['path']}: oracle_blend at w={r['fidelity_w']} is not closer to clean than its input")
                break
    return fails


def check_pretrain(cfg, out, rec):
    hist = json.loads((out / "pretrain" / "history.json").read_text())
    if not hist["loss_last"] < hist["loss_first"]:
        return [f"pretrain loss did not drop: {hist['loss_first']} -> {hist['loss_last']}"]
    return []


def check_train(cfg, out, rec):
    fails = []
    if not rec.get("frozen_identical"):
        fails.append("frozen backbone files changed during train")
    d, t = cfg["dataset"], cfg["train"]
    want = t["epochs"] * ((d["n_identities"] * d["per_identity"]) // t["batch_size"])
    steps = rec["summary"].get("optimizer_steps")
    if steps != want:
        fails.append(f"optimizer_steps {steps} != epochs*floor(n/batch) = {want}")
    return fails


def pair_failures(pairs, labels):
    """No pair twice, no image with itself, genuine exactly when labels agree."""
    fails = []
    keys = [(min(p.index_a, p.index_b), max(p.index_a, p.index_b)) for p in pairs]
    if len(set(keys)) != len(keys):
        fails.append(f"{len(keys) - len(set(keys))} duplicate pairs")
    if any(a == b for a, b in keys):
        fails.append("a pair joins an image with itself")
    if any((labels[p.index_a] == labels[p.index_b]) != p.genuine for p in pairs):
        fails.append("a pair's genuine flag disagrees with its labels")
    return fails


def check_eval(cfg, out, rec):
    from turbfuse.datagen import DatasetManifest, make_pairs

    e = cfg["eval"]
    report = rec["report"]["report"]
    fails = []
    tars = report["tar_at_far"]
    if not tars["0.1"] >= tars["0.01"]:
        fails.append(f"TAR@0.1 {tars['0.1']} < TAR@0.01 {tars['0.01']}")
    manifest = DatasetManifest.load(out / "dataset" / "manifest.json")
    labels = [im.label for im in manifest.split_images("test")]
    pairs = make_pairs(manifest, "test", e["n_genuine_pairs"], e["n_impostor_pairs"], seed=cfg["seed"])
    fails += pair_failures(pairs, labels)
    evals = rec.get("evals", [])
    if len(evals) != 1:
        return fails + [f"expected one captured evaluation, got {len(evals)}"]
    if list(evals[0]["labels"]) != [p.genuine for p in pairs]:
        fails.append("scored pairs are not the eval pair set")
    if evals[0]["accuracy"] != report["accuracy"]:
        fails.append("report accuracy differs from the evaluated accuracy")
    return fails + check_evals(evals)


def check_evals(evals):
    """Each evaluation's 10-fold accuracy, recomputed from its full-precision scores."""
    fails = []
    for ev in evals:
        ref, _ = kfold_accuracy(ev["scores"], ev["labels"], ev["n_folds"])
        if abs(ref - ev["accuracy"]) > 1e-12:
            fails.append(f"{ev['strategy']}: accuracy {ev['accuracy']} != recomputed {ref}")
    return fails


def check_ablate(cfg, out, rec):
    rep = rec["report"]
    fails = []
    rows = sorted(rep["intensity"]["rows"], key=lambda r: r["intensity_meters"])
    mses = [r["mse"] for r in rows]
    if not all(a < b for a, b in zip(mses, mses[1:])):
        fails.append(f"intensity ladder MSE not strictly increasing: {mses}")
    acc = {r["level"]: r["accuracy"] for r in rows}
    if not acc["10k"] > acc["40k"]:
        fails.append(f"accuracy at 10k {acc['10k']} is not above 40k {acc['40k']}")
    blend = sorted((r for r in rep["restorer"]["rows"] if r["mode"] == "oracle_blend"), key=lambda r: r["fidelity_w"])
    bm = [r["mse_to_clean"] for r in blend]
    if len(bm) < 2 or not all(a < b for a, b in zip(bm, bm[1:])):
        fails.append(f"oracle_blend mse_to_clean not increasing with fidelity_w: {bm}")
    bad = [r["variant"] for r in rep["fusion_grid"]["rows"] if not r["gradcheck_passed"]]
    if bad:
        fails.append(f"fusion_grid gradcheck failed for {bad}")
    want = len(cfg["ablations"]["table3_seeds"]) * 4 + len(rep["fusion_grid"]["rows"]) + len(blend) + 1 + len(rows)
    if len(rec.get("evals", [])) != want:
        fails.append(f"expected {want} evaluations, captured {len(rec.get('evals', []))}")
    return fails + check_evals(rec.get("evals", []))


def check_op(cfg_path, rec):
    """Failures of one successful command, judged on its outputs."""
    from turbfuse.config import load_config

    cfg = load_config(cfg_path, sets=rec["sets"])
    out = Path(rec["out"])
    return CHECKS[rec["cmd"]](cfg, out, rec)


CHECKS = {
    "synth": check_synth,
    "degrade": check_degrade,
    "restore": check_restore,
    "pretrain": check_pretrain,
    "train": check_train,
    "eval": check_eval,
    "ablate": check_ablate,
}
