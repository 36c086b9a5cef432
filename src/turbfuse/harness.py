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

A command reads nothing but its config: the CLI's ``--out`` is written into
the config's ``output_dir`` before the command runs. Artifacts live under
that directory, each at the directory ``ARTIFACTS`` gives the command that
writes it. A command reads them through ``_image_sets``, which loads each
image set of one split as one stack, or ``_load_state``; both raise
DependencyError naming the command to (re-)run when the artifact is missing,
does not fit the config or holds a file that does not parse.
Only the dataset holds a ``manifest.json``; the degraded and restored sets
hold the same image paths. Each artifact holds ``made_under.json``: the
generator version and the ``ARTIFACTS`` entries of the config it was made
under, which ``_check_made_under`` compares with the run's, the one place an
artifact is compared with the code and config. ``_image_sets`` checks the
dataset's record before each set's. A command writes an artifact inside
``_recording``, which deletes its record before the first write and swaps a
whole one in after the last, so one that dies partway leaves an artifact
that exits 3 before any of it is parsed. A checkpoint holds exactly the
name -> Tensor dict ``optim.fit`` trains; a diverged run's last good one goes
to ``diverged/`` beside it. Reports (histories, provenance.json, reports/)
are never read back; ``eval`` and ``ablate`` write each of theirs as JSON
plus a CSV table beside it (eval's: the score and label of every pair, in
pair order). A trained state's fusion weights carry the fusion config they
were built for, so ``evaluate_strategy`` runs that architecture, whatever
the run config.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import subprocess
import time
from decimal import Decimal
from pathlib import Path

import numpy as np

from . import __version__
from . import tensor as T
from .backbone import BackboneConfig, BackboneParams, embed, pretrain
from .config import backbone_config, config_hash, fusion_config, margin_params, pretrain_config
from .config import restore_config, train_config, turbulence_params
from .datagen import GENERATOR_VERSION, DatasetManifest, check_dataset, load_images, make_pairs, synth_dataset
from .errors import ConfigError, DependencyError, EvaluationError, TrainingError
from .fusion import FusionConfig, FusionParams, fuse
from .margin import ClassifierHead, MarginParams, angular_margin_loss
from .metrics import ScoreSet, VerificationReport, tar_at_far, top_k_hits, verification_accuracy
from .optim import finite_diff_check
from .restore import RestoreConfig, restore
from .tensor import Tensor
from .tensorio import load_bundle, save_bundle, save_tensor
from .trainer import STRATEGIES, TRAINED, init_state, probe_embeddings, train_adapter
from .turbsim import degradation_psf, degrade


def level_tag(meters):
    """Directory and report name of an intensity, one per distinct value:
    ``20k`` at 20,000 m, ``20.4k`` at 20,400 m."""
    return f"{Decimal(repr(float(meters))).scaleb(-3).normalize():f}k"


def pct(x):
    """Rates rendered as percentages with 3 decimals, table style."""
    return f"{100.0 * x:.3f}"


@functools.cache
def version_string():
    """Package version plus ``git describe`` of the package's checkout,
    whatever the working directory; computed once per process."""
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


def emit_report(results, path, csv_lines=()):
    """Write ``results`` as JSON to ``path``, and any ``csv_lines`` (header first) as the CSV beside it."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(results, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if csv_lines:
        path.with_suffix(".csv").write_text("".join(f"{line}\n" for line in csv_lines), encoding="utf-8")
    return path


# -- artifact plumbing ---------------------------------------------------------


# Test identities are numbered after the train ones: the train split is no function of the test split's keys
_TRAIN_SPLIT = ("dataset.n_identities", "dataset.per_identity", "dataset.image_size")
# command -> (its artifact's directory under the output dir, ``{tag}`` the intensity's ``level_tag``, ``{strategy}``
# ``train.strategy``; the config sections and ``section.key``s the artifact is a function of, its inputs' included)
ARTIFACTS = {
    "synth": ("dataset", ("seed", "dataset")),
    "degrade": ("degraded/{tag}", ("seed", "dataset", "turbulence")),
    "restore": ("restored/{tag}", ("seed", "dataset", "turbulence", "restore")),
    "pretrain": ("pretrain/backbone", ("seed", *_TRAIN_SPLIT, "backbone", "loss")),
    "train": (
        "train/{strategy}/checkpoint",
        ("seed", *_TRAIN_SPLIT, "turbulence", "restore", "backbone", "loss", "fusion", "train"),
    ),
}


def _artifact(cfg, command):
    """The directory of ``command``'s artifact under ``cfg``: the one place a path to an artifact is built."""
    tag = level_tag(cfg["turbulence"]["intensity_meters"])
    return Path(cfg["output_dir"]) / ARTIFACTS[command][0].format(tag=tag, strategy=cfg["train"]["strategy"])


def _made_under(cfg, command):
    """``command``'s ``ARTIFACTS`` entries of ``cfg`` as ``section.key -> value``,
    plus the ``generator_version`` of the faces every artifact comes from.
    A trained state without fusion weights (any strategy but ``adapter_joint``,
    as ``init_state`` builds them) is no function of the ``fusion`` section."""
    entries = ARTIFACTS[command][1]
    if command == "train" and cfg["train"]["strategy"] != "adapter_joint":
        entries = tuple(e for e in entries if e != "fusion")
    flat = {"generator_version": GENERATOR_VERSION}
    for e in entries:
        section, _, key = e.partition(".")
        value = cfg[section][key] if key else cfg[e]
        flat.update({f"{e}.{k}": v for k, v in value.items()} if isinstance(value, dict) else {e: value})
    return flat


@contextlib.contextmanager
def _recording(cfg, command):
    """Yield the directory of ``command``'s artifact to write it without its
    record: drop it before the first write, so a run that dies partway leaves
    an artifact that no loader accepts, and write ``cfg``'s record after the
    last, through a temporary name, so it is whole or absent."""
    dest = _artifact(cfg, command)
    (dest / "made_under.json").unlink(missing_ok=True)
    yield dest
    tmp = emit_report(_made_under(cfg, command), dest / "made_under.json.tmp")
    os.replace(tmp, dest / "made_under.json")


def _parsed(dest, command, load, *args):
    """``load(*args)``, or DependencyError naming ``command`` if a file of ``dest`` is missing or does not parse."""
    try:
        return load(*args)
    except (ValueError, FileNotFoundError) as exc:
        raise DependencyError(f"{dest} is damaged ({exc}); run the `{command}` command again") from exc


def _read_record(dest, command):
    """``dest``'s record, read before any other file of a maybe half-written artifact."""
    path = dest / "made_under.json"
    if not dest.exists():
        raise DependencyError(f"{dest} not found; run the `{command}` command first")
    if not path.exists():
        raise DependencyError(f"{path} not found; run the `{command}` command again")
    return _parsed(dest, command, json.loads, path.read_bytes())


def _image_sets(cfg, split, *commands):
    """The dataset's manifest, the labels of ``split``'s images (every image
    with ``split`` None), and one (N, H, W) stack of those images per set,
    named by the command that writes it (``synth``, ``degrade`` or
    ``restore``). The dataset's record is checked first, then each set's, all
    before the manifest is parsed; a mismatch or damage names the set's own command."""
    roots = {}
    for command in dict.fromkeys(("synth", *commands)):
        roots[command] = _artifact(cfg, command)
        name = roots[command].relative_to(cfg["output_dir"])
        _check_made_under(name, _made_under(cfg, command), _read_record(roots[command], command), command)
    manifest = _parsed(roots["synth"], "synth", DatasetManifest.load, roots["synth"] / "manifest.json")
    entries = manifest.images if split is None else manifest.split_images(split)
    labels = np.array([im.label for im in entries])
    return (manifest, labels, *(_parsed(roots[c], c, load_images, roots[c], entries)[0] for c in commands))


def _load_state(cfg, command, tensors):
    """Fill ``tensors`` (name -> Tensor) in place from ``command``'s bundle,
    made under ``cfg``, which must hold exactly the same names and shapes
    (compared first, so the error names the tensors of another architecture)."""
    dest = _artifact(cfg, command)
    record = _read_record(dest, command)
    arrays = _parsed(dest, command, load_bundle, dest)
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


def cmd_synth(cfg):
    d = cfg["dataset"]
    check_dataset(**d)  # a rejected config keeps the old record
    with _recording(cfg, "synth") as dest:
        manifest = synth_dataset(dest, **d, seed=cfg["seed"])
    return {"command": "synth", "images": len(manifest.images), "config_hash": config_hash(cfg)}


def cmd_degrade(cfg):
    manifest, _, images = _image_sets(cfg, None, "synth")
    params = turbulence_params(cfg)
    tag = level_tag(params.intensity_meters)
    degraded = degrade_stack(images, params, cfg["seed"])
    prov = {
        "level": tag,
        "intensity_meters": params.intensity_meters,
        "fried_r0": params.fried_r0,
        "d_over_r0": params.d_over_r0,
        "tilt_rms_px": params.tilt_rms_px,
    }
    with _recording(cfg, "degrade") as dest:
        for entry, img in zip(manifest.images, degraded):
            save_tensor(dest / entry.path, img)
        emit_report(prov, dest / "provenance.json")
    return {"command": "degrade", "level": tag, "images": len(manifest.images)}


def cmd_restore(cfg):
    rcfg = restore_config(cfg)
    manifest, _, clean, degraded = _image_sets(cfg, None, "synth", "degrade")
    params = turbulence_params(cfg)
    restored = restore_stack(degraded, clean, params, rcfg, cfg["seed"])
    with _recording(cfg, "restore") as dest:
        for entry, img in zip(manifest.images, restored):
            save_tensor(dest / entry.path, img)
    return {"command": "restore", "level": level_tag(params.intensity_meters), "images": len(manifest.images)}


@contextlib.contextmanager
def _keeping_diverged(dest):
    """Keep a diverged training's last good epoch and history in ``dest/diverged``, then re-raise (exit 4)."""
    try:
        yield
    except TrainingError as exc:
        save_bundle(dest / "diverged", exc.checkpoint)
        (dest / "diverged" / "history.jsonl").write_text(exc.history.to_jsonl() + "\n", encoding="utf-8")
        raise


def cmd_pretrain(cfg):
    # a meaningless architecture, loss or schedule exits 2 before any artifact is read
    bcfg, margin, fit_cfg = backbone_config(cfg), margin_params(cfg), pretrain_config(cfg)
    parent = _artifact(cfg, "pretrain").parent
    _, labels, images = _image_sets(cfg, "train", "synth")
    with _keeping_diverged(parent):
        result = pretrain(images, labels, bcfg, margin, fit_cfg, seed=cfg["seed"])
    with _recording(cfg, "pretrain") as dest:
        save_bundle(dest, result.params.tensors())
    first, last = result.loss_history[0], result.loss_history[-1]
    drop = 1.0 - last / max(first, 1e-12)
    emit_report({"loss_first": first, "loss_last": last, "loss_drop": drop}, parent / "history.json")
    return {"command": "pretrain", "steps": len(result.loss_history), "loss_drop": drop}


def _load_backbone(cfg):
    """The pretrained backbone, frozen."""
    params = BackboneParams.init(np.random.default_rng(0), backbone_config(cfg), trainable=False)
    _load_state(cfg, "pretrain", params.tensors())
    return params


def cmd_train(cfg):
    # a strategy that trains nothing, or a meaningless schedule, fusion or loss, exits 2 before any artifact is read
    tcfg, fcfg, margin = train_config(cfg), fusion_config(cfg), margin_params(cfg)
    parent = _artifact(cfg, "train").parent
    _, labels, lq, restored = _image_sets(cfg, "train", "degrade", "restore")
    frozen = _load_backbone(cfg)
    before = frozen.state_bytes()
    with _keeping_diverged(parent):
        result = train_adapter(lq, restored, labels, frozen, fcfg, margin, tcfg)
    if frozen.state_bytes() != before:
        raise TrainingError(f"freeze contract broken: {tcfg.strategy} training changed the frozen backbone")
    with _recording(cfg, "train") as dest:
        save_bundle(dest, result.tensors())
    (parent / "history.jsonl").write_text(result.history.to_jsonl() + "\n", encoding="utf-8")
    return {
        "command": "train",
        "strategy": tcfg.strategy,
        "level": level_tag(cfg["turbulence"]["intensity_meters"]),
        "optimizer_steps": result.optimizer_steps,
        "final_epoch_loss": result.history.epoch_loss[-1],
    }


def _load_train_result(cfg, frozen):
    """Trained state of the run's strategy, ``finetune_restored`` or ``adapter_joint``."""
    strategy = cfg["train"]["strategy"]
    state = init_state(strategy, frozen, fusion_config(cfg), cfg["dataset"]["n_identities"], np.random.default_rng(0))
    _load_state(cfg, "train", state.tensors())
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


def _check_test_split(cfg):
    """Evaluation scores pairs of the test split: an empty one exits 2 before any artifact is read."""
    if (n := cfg["dataset"]["n_test_identities"]) < 1:
        raise ConfigError(f"dataset.n_test_identities must be at least 1 to evaluate, got {n}")


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


def cmd_eval(cfg):
    tag = level_tag(cfg["turbulence"]["intensity_meters"])
    strategy = cfg["train"]["strategy"]
    if strategy not in STRATEGIES:  # before any artifact is read
        raise ConfigError(f"train.strategy must be one of {STRATEGIES}, got {strategy!r}")
    _check_test_split(cfg)
    # baseline_lq reads no restored image; every strategy loads the degraded set, whose length is the probe count
    sets = ("synth", "degrade") if strategy == "baseline_lq" else ("synth", "degrade", "restore")
    manifest, labels_test, clean_test, lq_test, *restored = _image_sets(cfg, "test", *sets)
    restored_test = restored[0] if restored else None
    frozen = _load_backbone(cfg)

    result = _load_train_result(cfg, frozen) if strategy in TRAINED else None
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
    rows = enumerate(zip(score_set.scores.tolist(), score_set.labels.tolist()))
    csv_lines = ["pair_id,score,label", *(f"{i},{s:.6f},{l:d}" for i, (s, l) in rows)]
    emit_report(payload, Path(cfg["output_dir"], "reports", f"eval_{strategy}_{tag}.json"), csv_lines)
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
    margin = MarginParams()
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


def cmd_gradcheck(cfg):
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
    emit_report(payload, Path(cfg["output_dir"], "reports", "gradcheck.json"))
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

    def __init__(self, cfg, frozen):
        self.cfg = cfg
        self.frozen = frozen
        self.clean, self.labels = {}, {}
        for split in ("train", "test"):
            manifest, self.labels[split], self.clean[split] = _image_sets(cfg, split, "synth")
        self.pairs = verification_pairs(cfg, manifest)
        self.gallery = gallery_embeddings(self.clean["test"], frozen)
        self._degraded = {}

    def degraded(self, split, meters):
        key = (split, float(meters))
        if key not in self._degraded:
            params = turbulence_params(self.cfg, meters=meters)
            self._degraded[key] = degrade_stack(self.clean[split], params, self.cfg["seed"])
        return self._degraded[key]

    def run(self, cond, cells, **train):
        """Reports of ``cells`` under ``cond``, in cell order, and the test
        split's (degraded, restored) stacks. The train split is degraded and
        restored only when a cell trains; ``train`` overrides the run's train
        config for every cell that does."""
        cfg = self.cfg
        params = turbulence_params(cfg, meters=cond.meters)
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
                tcfg = train_config(cfg, strategy=strategy, **train)
                result = train_adapter(*data["train"], self.labels["train"], self.frozen, fcfg, margin_params(cfg), tcfg)
            report, _ = evaluate_strategy(
                cfg, strategy, self.pairs, self.frozen, result, self.gallery, *data["test"], self.labels["test"]
            )
            reports.append(report)
        return reports, data["test"]


def _table3_condition(cfg, salt):
    ab = cfg["ablations"]
    return Condition(ab["table3_intensity"], restore_config(cfg, artifact_sigma=ab["table3_artifact_sigma"]), salt)


def _table3(inputs, conds):
    """Every strategy per seed, each seed salting restoration and seeding training."""
    cfg = inputs.cfg
    ab = cfg["ablations"]
    cells = [(s, fusion_config(cfg)) for s in STRATEGIES]
    by_seed = [inputs.run(cond, cells, seed=cond.salt)[0] for cond in conds]
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
    base = fusion_config(cfg)
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


def _fusion_grid(inputs, conds):
    cfg = inputs.cfg
    ab = cfg["ablations"]
    variants = _fusion_grid_variants(cfg)
    cells = [("adapter_joint", fcfg) for _, fcfg in variants]
    (cond,) = conds
    reports, _ = inputs.run(cond, cells, epochs=ab["grid_epochs"])
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


def _restorer_conditions(cfg):
    """One oracle blend per ``ablations.restore_ws`` weight, then Wiener, at the run's intensity."""
    rcfgs = [restore_config(cfg, mode="oracle_blend", fidelity_w=w) for w in cfg["ablations"]["restore_ws"]]
    return [Condition(cfg["turbulence"]["intensity_meters"], r, 0) for r in rcfgs + [restore_config(cfg, mode="wiener")]]


def _restorer_sweep(inputs, conds):
    """Frozen-baseline accuracy on restored probes per (mode, w)."""
    rows = []
    for cond in conds:
        (report,), (_, restored) = inputs.run(cond, [("eval_restored", None)])
        rows.append(
            {
                "mode": cond.restore.mode,
                "fidelity_w": None if cond.restore.mode == "wiener" else cond.restore.fidelity_w,
                "accuracy": report.accuracy,
                "accuracy_pct": pct(report.accuracy),
                "mse_to_clean": float(((restored - inputs.clean["test"]) ** 2).mean()),
            }
        )
    return {"level": level_tag(inputs.cfg["turbulence"]["intensity_meters"]), "rows": rows}


def _intensity_ladder(inputs, conds):
    """Degradation MSE and frozen-baseline accuracy across the ladder."""
    rows = []
    for cond in conds:
        (report,), (lq, _) = inputs.run(cond, [("baseline_lq", None)])
        rows.append(
            {
                "level": level_tag(cond.meters),
                "intensity_meters": cond.meters,
                "mse": float(((lq - inputs.clean["test"]) ** 2).mean()),
                "accuracy": report.accuracy,
                "accuracy_pct": pct(report.accuracy),
            }
        )
    return {"rows": rows}


# part -> (the ``Condition``s it runs under, built from the config before any part runs; the part)
ABLATION_PARTS = {
    "table3": (lambda cfg: [_table3_condition(cfg, seed) for seed in cfg["ablations"]["table3_seeds"]], _table3),
    "fusion_grid": (lambda cfg: [_table3_condition(cfg, 0)], _fusion_grid),
    "restorer": (_restorer_conditions, _restorer_sweep),
    "intensity": (lambda cfg: [Condition(m, None, 0) for m in cfg["ablations"]["intensity_levels"]], _intensity_ladder),
}


def cmd_ablate(cfg):
    ab = cfg["ablations"]
    parts = ab["parts"]
    unknown = [p for p in parts if p not in ABLATION_PARTS]
    if unknown:
        raise ConfigError(f"ablations.parts: unknown {unknown}; choose from {list(ABLATION_PARTS)}")
    if "table3" in parts and not ab["table3_seeds"]:
        raise ConfigError("ablations.table3_seeds: the table3 part needs at least one seed")
    _check_test_split(cfg)
    # a bad restorer config (a Wiener PSF that does not fit included) or intensity exits 2 before any part runs
    conditions = {part: ABLATION_PARTS[part][0](cfg) for part in parts}
    for cond in (cond for conds in conditions.values() for cond in conds):
        turbulence_params(cfg, meters=cond.meters)
    if "fusion_grid" in parts:  # so does a bad grid switch or grid_epochs, built as the grid's cells build them
        _fusion_grid_variants(cfg)
        train_config(cfg, strategy="adapter_joint", epochs=ab["grid_epochs"])
    inputs = _AblateInputs(cfg, _load_backbone(cfg))
    results = {"command": "ablate", "config_hash": config_hash(cfg), "version": version_string()}
    for section, (_, part) in ABLATION_PARTS.items():
        if section in parts:
            results[section] = part(inputs, conditions[section])

    csv_lines = ["section,name,accuracy_pct"]
    for section in ABLATION_PARTS:
        if section not in results:
            continue
        for row in results[section]["rows"]:
            name = row.get("strategy") or row.get("variant") or row.get("level") or row["mode"]
            if row.get("fidelity_w") is not None:  # one restorer row per blend weight
                name += f"@{row['fidelity_w']}"
            csv_lines.append(f"{section},{name},{row.get('accuracy_pct', '')}")
    emit_report(results, Path(cfg["output_dir"], "reports", "ablate.json"), csv_lines)
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
