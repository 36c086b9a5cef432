"""Experiment orchestration behind the CLI.

Commands: synth, degrade, restore, pretrain, train, eval, ablate,
gradcheck. Every command is a pure function of (config, seed): re-running
with the same inputs rewrites byte-identical artifacts. The ablation
command loads the dataset once, degrades each (split, intensity) once,
embeds the clean gallery once, draws the test pairs once and restores in
memory. Each of its parts is a list of cells, ``(strategy, FusionConfig |
None)``, run under a named ``Condition`` (intensity, restorer, restore seed
salt) through ``_AblateInputs.run``, the one place where it trains and
evaluates.

Artifacts live under the config's output_dir. Each kind a command reads
has one loader, which raises DependencyError naming the command to (re-)run
when the artifact is missing or does not fit the config:

    dataset/  degraded/<tag>/  restored/<tag>/   _image_sets
    pretrain/backbone/                           _load_backbone -> _load_state
    train/<strategy>/checkpoint/                 _load_train_result -> _load_state

``<tag>`` is the ``level_tag`` of the intensity. Only ``dataset/`` holds a
``manifest.json``; the degraded and restored sets hold the same image paths.
Each artifact holds ``made_under.json``: the generator version and the
``MADE_UNDER`` entries of the config it was made under, which
``_check_made_under`` compares with the run's, the one place an artifact is
compared with the code and config. ``_image_sets`` checks the dataset's
record before each set's. A command writes an artifact inside
``_recording``, which deletes its record before the first write and swaps a
whole one in after the last, so one that dies partway leaves an artifact
that exits 3 before any of it is parsed. A checkpoint holds exactly the
name -> Tensor dict ``optim.fit`` trains; a diverged run's last good one goes
to ``diverged/``.
Reports (histories, provenance.json, reports/) are never read back.
A trained state's fusion weights carry the fusion config they were built
for, so ``evaluate_strategy`` runs that architecture, whatever the run config.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
import subprocess
from decimal import Decimal
from functools import partial
from pathlib import Path

import numpy as np

from . import __version__
from . import tensor as T
from .backbone import BackboneConfig, BackboneParams, embed, pretrain
from .config import config_hash
from .datagen import GENERATOR_VERSION, DatasetManifest, check_dataset, load_images, make_pairs, synth_dataset
from .errors import ConfigError, ContractError, DependencyError, EvaluationError, TrainingError
from .fusion import FusionConfig, FusionParams, fuse
from .margin import ClassifierHead, MarginParams, angular_margin_loss
from .metrics import ScoreSet, VerificationReport, tar_at_far, top_k_hits, verification_accuracy
from .optim import FitConfig, finite_diff_check
from .restore import RestoreConfig, restore
from .tensor import Tensor
from .tensorio import load_bundle, save_bundle, save_tensor
from .trainer import STRATEGIES, TRAINED, TrainConfig, init_state, probe_embeddings, train_adapter
from .turbsim import degradation_psf, degrade, init_params


def level_tag(meters):
    """Directory and report name of an intensity, one per distinct value:
    ``20k`` at 20,000 m, ``20.4k`` at 20,400 m."""
    return f"{Decimal(repr(float(meters))).scaleb(-3).normalize():f}k"


def pct(x):
    """Rates rendered as percentages with 3 decimals, table style."""
    return f"{100.0 * x:.3f}"


def version_string():
    """Package version plus ``git describe`` of the checkout the package
    lives in, whatever the process's working directory."""
    try:
        desc = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=5,
            cwd=Path(__file__).resolve().parent,
        )
        suffix = desc.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        suffix = ""
    return f"turbfuse {__version__}" + (f" ({suffix})" if suffix else "")


def emit_report(results, path, fmt="json", csv_rows=None):
    """Write a machine-readable report; JSON always, CSV on request."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if fmt == "csv":
        if csv_rows is None:
            raise ContractError("csv output requested but no rows provided")
        csv_path = path.with_suffix(".csv")
        with open(csv_path, "w", encoding="utf-8") as fh:
            for row in csv_rows:
                fh.write(",".join(str(c) for c in row) + "\n")
    return path


# -- artifact plumbing ---------------------------------------------------------


def _out(cfg, out_dir=None):
    return Path(out_dir or cfg["output_dir"])


# Test identities are numbered after the train ones: the train split is no function of the test split's keys
_TRAIN_SPLIT = ("dataset.n_identities", "dataset.per_identity", "dataset.image_size")
# The config sections and ``section.key``s each command's artifact is a function of, its inputs' included
MADE_UNDER = {
    "synth": ("seed", "dataset"),
    "degrade": ("seed", "dataset", "turbulence"),
    "restore": ("seed", "dataset", "turbulence", "restore"),
    "pretrain": ("seed", *_TRAIN_SPLIT, "backbone", "loss"),
    "train": ("seed", *_TRAIN_SPLIT, "turbulence", "restore", "backbone", "loss", "fusion", "train"),
}


def _made_under(cfg, command):
    """``MADE_UNDER[command]``'s entries of ``cfg`` as ``section.key -> value``,
    plus the ``generator_version`` of the faces every artifact comes from.
    A trained state without fusion weights (any strategy but ``adapter_joint``,
    as ``init_state`` builds them) is no function of the ``fusion`` section."""
    entries = MADE_UNDER[command]
    if command == "train" and cfg["train"]["strategy"] != "adapter_joint":
        entries = tuple(e for e in entries if e != "fusion")
    flat = {"generator_version": GENERATOR_VERSION}
    for e in entries:
        section, _, key = e.partition(".")
        value = cfg[section][key] if key else cfg[e]
        flat.update({f"{e}.{k}": v for k, v in value.items()} if isinstance(value, dict) else {e: value})
    return flat


@contextlib.contextmanager
def _recording(cfg, command, dest):
    """Write ``dest`` without its record: drop it before the first write, so a
    run that dies partway leaves an artifact that no loader accepts, and write
    ``cfg``'s ``command`` record after the last, through a temporary name, so
    it is whole or absent."""
    (dest / "made_under.json").unlink(missing_ok=True)
    yield
    tmp = emit_report(_made_under(cfg, command), dest / "made_under.json.tmp")
    os.replace(tmp, dest / "made_under.json")


def _read_record(dest, command):
    """``dest``'s record, read before any other file of a maybe half-written artifact."""
    path = dest / "made_under.json"
    if not dest.exists():
        raise DependencyError(f"{dest} not found; run the `{command}` command first")
    if not path.exists():
        raise DependencyError(f"{path} not found; run the `{command}` command again")
    return json.loads(path.read_text())


def _image_sets(cfg, out, *kinds):
    """The dataset's manifest, plus one loader of images by manifest entries
    per kind: the ``dataset``, or the ``degraded`` or ``restored`` set at the
    config's intensity. The dataset's record is checked first, then each
    set's, all before the manifest is parsed; a mismatch names the set's own
    command."""
    roots = {}
    for kind in dict.fromkeys(("dataset", *kinds)):
        name = kind if kind == "dataset" else f"{kind}/{level_tag(cfg['turbulence']['intensity_meters'])}"
        roots[kind] = _out(cfg, out) / name
        made_by = {"dataset": "synth", "degraded": "degrade", "restored": "restore"}[kind]
        _check_made_under(name, _made_under(cfg, made_by), _read_record(roots[kind], made_by), made_by)
    manifest = DatasetManifest.load(roots["dataset"] / "manifest.json")
    return (manifest, *(partial(load_images, roots[kind]) for kind in kinds))


def _load_state(cfg, dest, tensors, command):
    """Fill ``tensors`` (name -> Tensor) in place from the bundle at ``dest``,
    made under ``cfg``, which must hold exactly the same names and shapes
    (compared first, so the error names the tensors of another architecture)."""
    record = _read_record(dest, command)
    arrays = load_bundle(dest)
    _check_made_under(dest, {k: t.shape for k, t in tensors.items()}, {k: a.shape for k, a in arrays.items()}, command)
    _check_made_under(dest, _made_under(cfg, command), record, command)
    for k, t in tensors.items():
        t.data[...] = arrays[k]


def _check_made_under(dest, want, got, command):
    """Raise, naming the keys that differ, unless the two dicts are equal."""
    if got != want:
        differ = sorted(k for k in want.keys() | got.keys() if want.get(k) != got.get(k))
        raise DependencyError(
            f"{dest} was made under another config ({', '.join(differ)} differ); run the `{command}` command again"
        )


def _turb_params(cfg, meters=None):
    t = cfg["turbulence"]
    overrides = {k: v for k, v in t.items() if k != "intensity_meters"}
    return init_params(t["intensity_meters"] if meters is None else meters, cfg["dataset"]["image_size"], overrides)


def _restore_cfg(cfg, **overrides):
    r = dict(cfg["restore"])
    r.update(overrides)
    return RestoreConfig(**r)


def _check_wiener_psf(cfg):
    """Wiener deconvolves with the degradation PSF, which must fit in the image."""
    k, size = cfg["turbulence"]["kernel_size"], cfg["dataset"]["image_size"]
    if k > size:
        raise ConfigError(f"wiener restoration needs turbulence.kernel_size ({k}) <= dataset.image_size ({size})")


def _image_seed(cfg_seed, meters, index):
    return np.random.SeedSequence([int(cfg_seed), int(meters), int(index)])


def degrade_stack(images, params, cfg_seed):
    """Degrade a stack of images with per-image deterministic seed streams."""
    return np.stack(
        [degrade(img, params, _image_seed(cfg_seed, params.intensity_meters, i)) for i, img in enumerate(images)]
    ).astype(np.float32)


def restore_stack(degraded, clean, params, rcfg: RestoreConfig, cfg_seed, seed_salt=0):
    """Restore a degraded stack; wiener mode deconvolves each image with the
    PSF ``degrade_stack`` blurred it with."""
    out = []
    for i, img in enumerate(degraded):
        if rcfg.mode == "wiener":
            kern = degradation_psf(params, _image_seed(cfg_seed, params.intensity_meters, i))
            out.append(restore(img, rcfg, psf=kern))
        else:
            seed = np.random.SeedSequence([int(cfg_seed), int(seed_salt), i, 0xA27])
            out.append(restore(img, rcfg, clean=clean[i], seed=np.random.default_rng(seed)))
    return np.stack(out).astype(np.float32)


# -- commands ------------------------------------------------------------------


def cmd_synth(cfg, out_dir=None):
    dest, d = _out(cfg, out_dir) / "dataset", cfg["dataset"]
    check_dataset(d["n_identities"], d["per_identity"], d["image_size"])  # a rejected config keeps the old record
    with _recording(cfg, "synth", dest):
        manifest = synth_dataset(dest, **d, seed=cfg["seed"])
    return {"command": "synth", "images": len(manifest.images), "config_hash": config_hash(cfg)}


def cmd_degrade(cfg, out_dir=None):
    out = _out(cfg, out_dir)
    manifest, clean = _image_sets(cfg, out_dir, "dataset")
    params = _turb_params(cfg)
    tag = level_tag(params.intensity_meters)
    images, _ = clean(manifest.images)
    degraded = degrade_stack(images, params, cfg["seed"])
    dest = out / "degraded" / tag
    prov = {
        "level": tag,
        "intensity_meters": params.intensity_meters,
        "fried_r0": params.fried_r0,
        "d_over_r0": params.d_over_r0,
        "tilt_rms_px": params.tilt_rms_px,
    }
    with _recording(cfg, "degrade", dest):
        for entry, img in zip(manifest.images, degraded):
            save_tensor(dest / entry.path, img)
        emit_report(prov, dest / "provenance.json")
    return {"command": "degrade", "level": tag, "images": len(manifest.images)}


def cmd_restore(cfg, out_dir=None):
    rcfg = _restore_cfg(cfg)
    if rcfg.mode == "wiener":
        _check_wiener_psf(cfg)
    out = _out(cfg, out_dir)
    manifest, load_clean, load_degraded = _image_sets(cfg, out_dir, "dataset", "degraded")
    params = _turb_params(cfg)
    tag = level_tag(params.intensity_meters)
    clean, _ = load_clean(manifest.images)
    degraded, _ = load_degraded(manifest.images)
    restored = restore_stack(degraded, clean, params, rcfg, cfg["seed"])
    dest = out / "restored" / tag
    with _recording(cfg, "restore", dest):
        for entry, img in zip(manifest.images, restored):
            save_tensor(dest / entry.path, img)
    return {"command": "restore", "level": tag, "images": len(manifest.images)}


def _backbone_cfg(cfg):
    b = cfg["backbone"]
    return BackboneConfig(
        image_size=cfg["dataset"]["image_size"],
        channels=tuple(b["channels"]),
        kernel=b["kernel"],
        embed_dim=b["embed_dim"],
    )


def _margin(cfg):
    return MarginParams(**cfg["loss"])


@contextlib.contextmanager
def _keeping_diverged(dest):
    """Keep a diverged training's last good epoch and history in ``dest/diverged``, then re-raise (exit 4)."""
    try:
        yield
    except TrainingError as exc:
        save_bundle(dest / "diverged", exc.checkpoint)
        (dest / "diverged" / "history.jsonl").write_text(exc.history.to_jsonl() + "\n", encoding="utf-8")
        raise


def cmd_pretrain(cfg, out_dir=None):
    dest = _out(cfg, out_dir) / "pretrain"
    manifest, clean = _image_sets(cfg, out_dir, "dataset")
    images, labels = clean(manifest.split_images("train"))
    b = cfg["backbone"]
    fit_cfg = FitConfig(batch_size=b["batch_size"], epochs=b["epochs"], lr_base=b["lr"], warmup_steps=b["warmup_steps"])
    with _keeping_diverged(dest):
        result = pretrain(images, labels, _backbone_cfg(cfg), _margin(cfg), fit_cfg, seed=cfg["seed"])
    with _recording(cfg, "pretrain", dest / "backbone"):
        save_bundle(dest / "backbone", result.params.tensors())
    first, last = result.loss_history[0], result.loss_history[-1]
    drop = 1.0 - last / max(first, 1e-12)
    emit_report({"loss_first": first, "loss_last": last, "loss_drop": drop}, dest / "history.json")
    return {"command": "pretrain", "steps": len(result.loss_history), "loss_drop": drop}


def _load_backbone(cfg, out):
    """The pretrained backbone, frozen."""
    params = BackboneParams.init(np.random.default_rng(0), _backbone_cfg(cfg), trainable=False)
    _load_state(cfg, _out(cfg, out) / "pretrain" / "backbone", params.tensors(), "pretrain")
    return params


def _fusion_cfg(cfg):
    return FusionConfig(d_model=cfg["backbone"]["embed_dim"], **cfg["fusion"])


def _train_cfg(cfg, **overrides):
    return TrainConfig(**{**cfg["train"], "seed": cfg["seed"], **overrides})


def cmd_train(cfg, out_dir=None):
    tcfg = _train_cfg(cfg)
    dest = _out(cfg, out_dir) / "train" / tcfg.strategy
    manifest, load_degraded, load_restored = _image_sets(cfg, out_dir, "degraded", "restored")
    frozen = _load_backbone(cfg, out_dir)
    entries = manifest.split_images("train")
    lq, labels = load_degraded(entries)
    restored, _ = load_restored(entries)
    before = frozen.state_bytes()
    with _keeping_diverged(dest):
        result = train_adapter(lq, restored, labels, frozen, _fusion_cfg(cfg), _margin(cfg), tcfg)
    if frozen.state_bytes() != before:
        raise TrainingError(f"freeze contract broken: {tcfg.strategy} training changed the frozen backbone")
    dest.mkdir(parents=True, exist_ok=True)
    trained = result.tensors()
    if trained:
        with _recording(cfg, "train", dest / "checkpoint"):
            save_bundle(dest / "checkpoint", trained)
    (dest / "history.jsonl").write_text(result.history.to_jsonl() + "\n", encoding="utf-8")
    return {
        "command": "train",
        "strategy": tcfg.strategy,
        "level": level_tag(cfg["turbulence"]["intensity_meters"]),
        "optimizer_steps": result.optimizer_steps,
        "final_epoch_loss": result.history.epoch_loss[-1] if result.history.epoch_loss else None,
    }


def _load_train_result(cfg, out, strategy, frozen):
    """Trained state of ``finetune_restored`` or ``adapter_joint``."""
    state = init_state(strategy, frozen, _fusion_cfg(cfg), cfg["dataset"]["n_identities"], np.random.default_rng(0))
    _load_state(cfg, _out(cfg, out) / "train" / strategy / "checkpoint", state.tensors(), "train")
    return state


def gallery_embeddings(clean_test, frozen):
    """Frozen-baseline embeddings of the clean test images: the gallery side
    of every evaluation, whatever the strategy."""
    with T.no_grad():
        return embed(clean_test, frozen).data


def pair_scores(fn, pn, index_a, index_b):
    """Float64 scores ``fn[a] @ pn[b]`` of every pair, in one batched matmul.

    Each pair is a (1, d) by (d, 1) product; the scores equal the per-pair
    dot products bitwise in float32 and float64, which ``einsum`` and
    multiply-then-sum do not.
    """
    return (fn[index_a][:, None, :] @ pn[index_b][:, :, None])[:, 0, 0].astype(np.float64)


def verification_pairs(cfg, manifest):
    """The verification pairs of the test split that every evaluation scores."""
    e = cfg["eval"]
    return make_pairs(manifest, "test", e["n_genuine_pairs"], e["n_impostor_pairs"], seed=cfg["seed"])


def evaluate_strategy(cfg, strategy, pairs, frozen, result, gallery_embs, lq_test, restored_test, labels_test):
    """Verification report for one strategy on the test split.

    ``pairs`` come from ``verification_pairs``. ``gallery_embs`` are the
    clean test images embedded by the frozen baseline
    (``gallery_embeddings``); the probe side embeds degraded or restored
    images the way the strategy prescribes, under the architecture
    ``result`` was built with; ``cfg`` supplies only the eval settings and
    the seed.
    """
    probe_embs = probe_embeddings(strategy, lq_test, restored_test, frozen, result)

    e = cfg["eval"]
    fn = gallery_embs / np.linalg.norm(gallery_embs, axis=1, keepdims=True)
    pn = probe_embs / np.linalg.norm(probe_embs, axis=1, keepdims=True)
    index_a = np.array([p.index_a for p in pairs], dtype=np.intp)
    index_b = np.array([p.index_b for p in pairs], dtype=np.intp)
    scores = pair_scores(fn, pn, index_a, index_b)
    genuine = np.array([p.genuine for p in pairs])
    score_set = ScoreSet(scores, genuine)
    accuracy, thresholds = verification_accuracy(score_set, n_folds=e["n_folds"])
    tars = {far: tar_at_far(score_set, far) for far in e["far_points"]}

    # identification: first clean image per identity enrolls the gallery
    first_idx = {}
    for i, lbl in enumerate(labels_test):
        first_idx.setdefault(int(lbl), i)
    g_idx = sorted(first_idx.values())
    g_set = set(g_idx)
    p_idx = [i for i in range(len(labels_test)) if i not in g_set]
    ranks = {
        k: top_k_hits(probe_embs[p_idx], labels_test[p_idx], gallery_embs[g_idx], labels_test[g_idx], k)
        for k in e["top_ks"]
        if k <= len(g_idx)
    }

    report = VerificationReport(
        accuracy=accuracy,
        thresholds=thresholds,
        tar_at_far=tars,
        rank_k_hit_rate=ranks,
        config={"strategy": strategy, "n_pairs": len(pairs), "seed": cfg["seed"]},
    )
    return report, score_set


def cmd_eval(cfg, out_dir=None, fmt="json"):
    out = _out(cfg, out_dir)
    tag = level_tag(cfg["turbulence"]["intensity_meters"])
    manifest, load_clean, load_degraded, load_restored = _image_sets(cfg, out_dir, "dataset", "degraded", "restored")
    entries = manifest.split_images("test")
    clean_test, labels_test = load_clean(entries)
    lq_test, _ = load_degraded(entries)
    restored_test, _ = load_restored(entries)
    frozen = _load_backbone(cfg, out_dir)

    strategy = cfg["train"]["strategy"]
    result = _load_train_result(cfg, out_dir, strategy, frozen) if strategy in TRAINED else None
    gallery = gallery_embeddings(clean_test, frozen)
    report, score_set = evaluate_strategy(
        cfg, strategy, verification_pairs(cfg, manifest), frozen, result, gallery, lq_test, restored_test, labels_test
    )
    payload = {
        "command": "eval",
        "level": tag,
        "strategy": strategy,
        "report": report.to_dict(),
        "accuracy_pct": pct(report.accuracy),
        "config_hash": config_hash(cfg),
        "version": version_string(),
    }
    csv_rows = [("pair_id", "score", "label")] + [
        (i, f"{s:.6f}", int(l)) for i, (s, l) in enumerate(zip(score_set.scores, score_set.labels))
    ]
    emit_report(payload, out / "reports" / f"eval_{strategy}_{tag}.json", fmt=fmt, csv_rows=csv_rows)
    return payload


# -- gradcheck -----------------------------------------------------------------


def full_pipeline_gradcheck(fcfg: FusionConfig, dtype, eps, samples_per_tensor, batch=4, n_classes=8, seed=0):
    """Finite-difference check through embed -> fuse -> margin loss. The HQ
    branch is built and probed only when the fusion reads it, as in
    ``init_state``."""
    rng = np.random.default_rng(seed)
    bcfg = BackboneConfig(image_size=8, channels=(2, 4), embed_dim=fcfg.d_model)
    frozen = BackboneParams.init(rng, bcfg, dtype=dtype, trainable=False)
    hq = BackboneParams.init(rng, bcfg, dtype=dtype) if fcfg.hq_branch_live else None
    fp = FusionParams.init(rng, fcfg, dtype=dtype)
    head = ClassifierHead.init(rng, n_classes, fcfg.d_model, dtype=dtype)
    head.weights.data[...] = rng.standard_normal((n_classes, fcfg.d_model)) * 0.1
    margin = MarginParams(1.0, 0.5, 0.0, 16.0)
    lq = rng.random((batch, 8, 8))
    hq_imgs = rng.random((batch, 8, 8)).astype(dtype)
    labels = rng.integers(0, n_classes, batch)

    params = {} if hq is None else dict(hq.tensors("hq."))
    params.update(fp.tensors("fusion."))
    params["head.weights"] = head.weights
    # the frozen branch is a constant of the probed parameters: embed it once,
    # off-tape as forward_framework does, outside the function probed below
    with T.no_grad():
        f_lq = embed(lq.astype(dtype), frozen).data

    def f(ps):
        feats = fuse(Tensor(f_lq), None if hq is None else embed(hq_imgs, hq), fp)
        return angular_margin_loss(feats, labels, head, margin)

    return finite_diff_check(f, params, eps=eps, samples_per_tensor=samples_per_tensor, seed=seed)


GRADCHECK_TOL_F64, GRADCHECK_TOL_F32 = 1e-6, 1e-3


def gradcheck_fusion(fcfg: FusionConfig, samples_per_tensor):
    """The float64 and float32 pipeline checks of one fusion config, each at
    the eps its dtype resolves: (max rel error f64, f32, both within tolerance)."""
    err64 = full_pipeline_gradcheck(fcfg, np.float64, eps=1e-5, samples_per_tensor=samples_per_tensor)
    err32 = full_pipeline_gradcheck(fcfg, np.float32, eps=3e-3, samples_per_tensor=samples_per_tensor)
    return err64, err32, bool(err64 < GRADCHECK_TOL_F64 and err32 < GRADCHECK_TOL_F32)


def cmd_gradcheck(cfg, out_dir=None):
    import time

    t0 = time.time()
    err64, err32, ok = gradcheck_fusion(FusionConfig(d_model=16, ffn_hidden=32), samples_per_tensor=4)
    elapsed = time.time() - t0
    payload = {
        "command": "gradcheck",
        "max_rel_error_f64": err64,
        "max_rel_error_f32": err32,
        "tolerance_f64": GRADCHECK_TOL_F64,
        "tolerance_f32": GRADCHECK_TOL_F32,
        "elapsed_s": round(elapsed, 3),
        "passed": ok,
    }
    emit_report(payload, _out(cfg, out_dir) / "reports" / "gradcheck.json")
    print(f"gradcheck: f64 max rel err {err64:.3e} (tol {GRADCHECK_TOL_F64:g}), f32 {err32:.3e} (tol {GRADCHECK_TOL_F32:g})")
    if not ok:
        raise EvaluationError(f"gradient check failed: f64 {err64:.3e}, f32 {err32:.3e}")
    return payload


# -- ablation grid ---------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Condition:
    """What the images of one `ablate` run go through: turbulence at
    ``meters``, then ``restore`` on the restore seed stream ``salt``. With
    ``restore`` None the probes are the degraded images themselves."""

    meters: float
    restore: RestoreConfig | None
    salt: int


class _AblateInputs:
    """What the parts of one `ablate` call share: the test pairs, both clean
    splits, the frozen backbone with its gallery embedding, and each
    degraded stack, made on first use once per (split, intensity).

    ``run`` is the one path by which a part trains and evaluates. A part is a
    list of cells, each ``(strategy, FusionConfig | None)``, run under a
    ``Condition``, plus the rule that turns their reports into rows.
    Degrading, training and evaluating go through the module's
    ``degrade_stack``, ``train_adapter`` and ``evaluate_strategy``, looked up
    at call time, so a lookup in the degraded cache is never counted as work.
    """

    def __init__(self, cfg, out_dir, frozen):
        self.cfg = cfg
        self.frozen = frozen
        manifest, load_clean = _image_sets(cfg, out_dir, "dataset")
        self.pairs = verification_pairs(cfg, manifest)
        self.clean, self.labels = {}, {}
        for split in ("train", "test"):
            self.clean[split], self.labels[split] = load_clean(manifest.split_images(split))
        self.gallery = gallery_embeddings(self.clean["test"], frozen)
        self._degraded = {}

    def degraded(self, split, meters):
        key = (split, float(meters))
        if key not in self._degraded:
            params = _turb_params(self.cfg, meters=meters)
            self._degraded[key] = degrade_stack(self.clean[split], params, self.cfg["seed"])
        return self._degraded[key]

    def run(self, cond, cells, **train):
        """Reports of ``cells`` under ``cond``, in cell order, and the test
        split's (degraded, restored) stacks. The train split is degraded and
        restored only when a cell trains; ``train`` overrides the run's train
        config for every cell that does."""
        cfg = self.cfg
        params = _turb_params(cfg, meters=cond.meters)
        data = {}
        for split in ("train", "test") if any(s in TRAINED for s, _ in cells) else ("test",):
            lq = self.degraded(split, cond.meters)
            if cond.restore is None:
                data[split] = (lq, lq)
            else:
                data[split] = (lq, restore_stack(lq, self.clean[split], params, cond.restore, cfg["seed"], cond.salt))
        reports = []
        for strategy, fcfg in cells:
            result = None
            if strategy in TRAINED:
                tcfg = _train_cfg(cfg, strategy=strategy, **train)
                result = train_adapter(*data["train"], self.labels["train"], self.frozen, fcfg, _margin(cfg), tcfg)
            report, _ = evaluate_strategy(
                cfg, strategy, self.pairs, self.frozen, result, self.gallery, *data["test"], self.labels["test"]
            )
            reports.append(report)
        return reports, data["test"]


def _table3_condition(cfg, salt):
    ab = cfg["ablations"]
    return Condition(ab["table3_intensity"], _restore_cfg(cfg, artifact_sigma=ab["table3_artifact_sigma"]), salt)


def _table3(inputs):
    """Every strategy per seed, each seed salting restoration and seeding training."""
    cfg = inputs.cfg
    ab = cfg["ablations"]
    cells = [(s, _fusion_cfg(cfg)) for s in STRATEGIES]
    by_seed = [inputs.run(_table3_condition(cfg, seed), cells, seed=seed)[0] for seed in ab["table3_seeds"]]
    table = []
    for strategy, reports in zip(STRATEGIES, zip(*by_seed)):
        accs = [r.accuracy for r in reports]
        tars = [r.tar_at_far.get(0.01, float("nan")) for r in reports]
        table.append(
            {
                "strategy": strategy,
                "accuracy_mean": float(np.mean(accs)),
                "accuracy_pct": pct(float(np.mean(accs))),
                "accuracy_per_seed": accs,
                "tar_at_far_0.01_mean": float(np.mean(tars)),
            }
        )
    per_seed = [{s: r.accuracy for s, r in zip(STRATEGIES, reports)} for reports in by_seed]
    return {"level": level_tag(ab["table3_intensity"]), "seeds": ab["table3_seeds"], "rows": table, "per_seed": per_seed}


def _fusion_grid_variants(cfg):
    """(name, FusionConfig) of each fusion-grid row: the run's fusion config with
    one switch set from an ablation list, in list order, each distinct one once."""
    ab = cfg["ablations"]
    base = _fusion_cfg(cfg)
    variants = []
    for values, label, field in (
        (ab["residual"], "residual", "use_residual"),
        (ab["cascade"], "cascade", "cascade_depth"),
        (ab["attention_order"], "order", "attention_order"),
        (ab["role_variants"], "variant", "role_variant"),
    ):
        for value in values:
            fcfg = dataclasses.replace(base, **{field: value})
            if fcfg not in [v for _, v in variants]:
                variants.append((f"{label}={value}", fcfg))
    return variants


def _fusion_grid(inputs):
    cfg = inputs.cfg
    ab = cfg["ablations"]
    variants = _fusion_grid_variants(cfg)
    cells = [("adapter_joint", fcfg) for _, fcfg in variants]
    reports, _ = inputs.run(_table3_condition(cfg, 0), cells, epochs=ab["grid_epochs"])
    rows = []
    for (name, fcfg), report in zip(variants, reports):
        gc_cfg = dataclasses.replace(fcfg, d_model=16, ffn_hidden=32)
        err64, err32, passed = gradcheck_fusion(gc_cfg, samples_per_tensor=2)
        rows.append(
            {
                "variant": name,
                "accuracy": report.accuracy,
                "accuracy_pct": pct(report.accuracy),
                "gradcheck_f64": err64,
                "gradcheck_f32": err32,
                "gradcheck_passed": passed,
                "hq_branch_live": gc_cfg.hq_branch_live,
            }
        )
    return {"level": level_tag(ab["table3_intensity"]), "rows": rows}


def _restorer_sweep(inputs):
    """Frozen-baseline accuracy on restored probes per (mode, w)."""
    cfg = inputs.cfg
    meters = cfg["turbulence"]["intensity_meters"]
    rows = []
    for mode, w in [("oracle_blend", w) for w in cfg["ablations"]["restore_ws"]] + [("wiener", None)]:
        rcfg = _restore_cfg(cfg, mode=mode) if w is None else _restore_cfg(cfg, mode=mode, fidelity_w=w)
        (report,), (_, restored) = inputs.run(Condition(meters, rcfg, 0), [("eval_restored", None)])
        rows.append(
            {
                "mode": mode,
                "fidelity_w": w,
                "accuracy": report.accuracy,
                "accuracy_pct": pct(report.accuracy),
                "mse_to_clean": float(((restored - inputs.clean["test"]) ** 2).mean()),
            }
        )
    return {"level": level_tag(meters), "rows": rows}


def _intensity_ladder(inputs):
    """Degradation MSE and frozen-baseline accuracy across the ladder."""
    rows = []
    for meters in inputs.cfg["ablations"]["intensity_levels"]:
        (report,), (lq, _) = inputs.run(Condition(meters, None, 0), [("baseline_lq", None)])
        rows.append(
            {
                "level": level_tag(meters),
                "intensity_meters": meters,
                "mse": float(((lq - inputs.clean["test"]) ** 2).mean()),
                "accuracy": report.accuracy,
                "accuracy_pct": pct(report.accuracy),
            }
        )
    return {"rows": rows}


ABLATION_PARTS = {
    "table3": _table3,
    "fusion_grid": _fusion_grid,
    "restorer": _restorer_sweep,
    "intensity": _intensity_ladder,
}


def cmd_ablate(cfg, out_dir=None, fmt="json"):
    ab = cfg["ablations"]
    parts = ab["parts"]
    unknown = [p for p in parts if p not in ABLATION_PARTS]
    if unknown:
        raise ConfigError(f"ablations.parts: unknown {unknown}; choose from {list(ABLATION_PARTS)}")
    if "table3" in parts and not ab["table3_seeds"]:
        raise ConfigError("ablations.table3_seeds: the table3 part needs at least one seed")
    intensities = {
        "table3": [ab["table3_intensity"]],
        "fusion_grid": [ab["table3_intensity"]],
        "restorer": [cfg["turbulence"]["intensity_meters"]],
        "intensity": ab["intensity_levels"],
    }
    for part in parts:  # a bad intensity exits 2 before any part runs
        for meters in intensities[part]:
            _turb_params(cfg, meters=meters)
    if "restorer" in parts or cfg["restore"]["mode"] == "wiener":  # the restorer sweep has a wiener row
        _check_wiener_psf(cfg)
    out = _out(cfg, out_dir)
    inputs = _AblateInputs(cfg, out_dir, _load_backbone(cfg, out_dir))
    results = {"command": "ablate", "config_hash": config_hash(cfg), "version": version_string()}
    for section, part in ABLATION_PARTS.items():
        if section in parts:
            results[section] = part(inputs)

    csv_rows = [("section", "name", "accuracy_pct")]
    for section in ABLATION_PARTS:
        if section not in results:
            continue
        for row in results[section]["rows"]:
            name = row.get("strategy") or row.get("variant") or row.get("level") or row["mode"]
            if row.get("fidelity_w") is not None:  # one restorer row per blend weight
                name += f"@{row['fidelity_w']}"
            csv_rows.append((section, name, row.get("accuracy_pct", "")))
    emit_report(results, out / "reports" / "ablate.json", fmt=fmt, csv_rows=csv_rows)
    return results


COMMANDS = {
    "synth": cmd_synth,
    "degrade": cmd_degrade,
    "restore": cmd_restore,
    "pretrain": cmd_pretrain,
    "train": cmd_train,
    "eval": cmd_eval,
    "ablate": cmd_ablate,
    "gradcheck": cmd_gradcheck,
}


def run(command, cfg, out_dir=None, fmt="json"):
    if command not in COMMANDS:
        raise ContractError(f"unknown command {command!r}; choose from {sorted(COMMANDS)}")
    fn = COMMANDS[command]
    if command in ("eval", "ablate"):
        return fn(cfg, out_dir, fmt=fmt)
    return fn(cfg, out_dir)
