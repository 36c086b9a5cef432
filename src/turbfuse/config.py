"""Run configuration: one flat JSON file with nested sections.

Every experiment is fully described by (config, seed); commands take only
the config path plus ``--set section.key=value`` overrides (and ``--out``,
which sets ``output_dir``), so ablations stay reproducible. Unknown sections
or keys are rejected with the exact key path.

Six sections hold the fields of the dataclass that reads them, with its
field defaults, stated there only; each has a builder here, the one place
a run config becomes that dataclass:

    turbulence  turbsim.TurbulenceParams  turbulence_params
    restore     restore.RestoreConfig     restore_config
    backbone    backbone.BackboneConfig   backbone_config
                optim.FitConfig           pretrain_config (``lr`` sets ``lr_base``)
    fusion      fusion.FusionConfig       fusion_config
    loss        margin.MarginParams       margin_params
    train       trainer.TrainConfig       train_config

Their fields ``image_size``, ``d_model`` and ``seed`` are no keys: the
builders take them from ``dataset.image_size``, ``backbone.embed_dim``
(which sets the default ``fusion.ffn_hidden`` too) and ``seed``.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json

from .backbone import BackboneConfig
from .errors import ConfigError
from .fusion import FusionConfig
from .margin import MarginParams
from .optim import FitConfig
from .restore import RestoreConfig
from .trainer import TrainConfig
from .turbsim import INTENSITY_LEVELS, TurbulenceParams, init_params

# backbone-section key -> the field of pretraining's ``FitConfig`` it sets
_PRETRAIN_SCHEDULE = {"epochs": "epochs", "batch_size": "batch_size", "lr": "lr_base", "warmup_steps": "warmup_steps"}


def _section(obj, *drop):
    """The fields of dataclass ``obj`` but ``drop`` as a config section, tuples as lists."""
    values = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj) if f.name not in drop}
    return {k: list(v) if isinstance(v, tuple) else v for k, v in values.items()}


_DATASET = {"n_identities": 64, "per_identity": 50, "n_test_identities": 16, "test_per_identity": 20, "image_size": 64}
_BACKBONE = BackboneConfig(image_size=_DATASET["image_size"])

DEFAULTS = {
    "seed": 0,
    "output_dir": "runs/default",
    "dataset": _DATASET,
    "turbulence": _section(TurbulenceParams(image_size=_DATASET["image_size"]), "image_size"),
    "restore": _section(RestoreConfig()),
    "backbone": {
        **_section(_BACKBONE, "image_size"),
        **{key: getattr(FitConfig(), field) for key, field in _PRETRAIN_SCHEDULE.items()},
    },
    "fusion": _section(FusionConfig(d_model=_BACKBONE.embed_dim), "d_model"),
    "loss": _section(MarginParams()),
    "train": _section(TrainConfig(), "seed"),
    "eval": {
        "n_folds": 10,
        "far_points": [0.01, 0.1],
        "top_ks": [1, 5],
        "n_genuine_pairs": 300,
        "n_impostor_pairs": 300,
    },
    "ablations": {
        "parts": ["table3", "fusion_grid", "restorer", "intensity"],
        "table3_seeds": [0, 1, 2, 3, 4],
        "table3_intensity": 30000.0,
        "table3_artifact_sigma": 0.5,
        "residual": [True, False],
        "cascade": [1, 3, 5],
        "attention_order": ["cross_first", "self_first"],
        "role_variants": ["a", "b", "c", "d"],
        "restore_ws": [0.0, 0.5, 1.0],
        "intensity_levels": list(INTENSITY_LEVELS),
        "grid_epochs": 1,
    },
}


def _check_value(base, value, kpath):
    """Reject a value whose type differs from the default's; integers pass as numbers."""
    if isinstance(base, bool) != isinstance(value, bool) and isinstance(base, bool):
        raise ConfigError(f"{kpath}: expected a boolean")
    if isinstance(base, int) and not isinstance(base, bool):
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"{kpath}: expected an integer")
    elif isinstance(base, float):
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            raise ConfigError(f"{kpath}: expected a number")
    elif isinstance(base, str) and not isinstance(value, str):
        raise ConfigError(f"{kpath}: expected a string")
    elif isinstance(base, list):
        if not isinstance(value, list):
            raise ConfigError(f"{kpath}: expected a list")
        for i, item in enumerate(value):
            _check_value(base[0], item, f"{kpath}[{i}]")


def _merge_checked(current, override, schema, path=""):
    """Overlay ``override`` on ``current``, checking each value against ``schema`` (the defaults)."""
    if not isinstance(override, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    merged = copy.deepcopy(current)
    for key, value in override.items():
        kpath = f"{path}.{key}" if path else key
        if key not in schema:
            raise ConfigError(f"unknown config key: {kpath}")
        base = schema[key]
        if isinstance(base, dict):
            merged[key] = _merge_checked(current[key], value, base, kpath)
        else:
            _check_value(base, value, kpath)
            merged[key] = copy.deepcopy(value)
    return merged


def load_config(path=None, sets=()):
    """Load defaults, overlay a JSON file, then --set overrides.

    sets: iterable of "section.key=value" strings; values parse as JSON
    literals, falling back to bare strings.
    """
    override = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                override = json.load(fh)
        except FileNotFoundError:
            raise ConfigError(f"config file not found: {path}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}")
    cfg = _merge_checked(DEFAULTS, override, DEFAULTS)

    for item in sets:
        if "=" not in item:
            raise ConfigError(f"--set expects key=value, got {item!r}")
        key, _, raw = item.partition("=")
        try:
            value = json.loads(raw)
        except json.JSONDecodeError:
            value = raw
        node = {}
        leaf = node
        parts = key.split(".")
        for part in parts[:-1]:
            leaf[part] = {}
            leaf = leaf[part]
        leaf[parts[-1]] = value
        cfg = _merge_checked(cfg, node, DEFAULTS)
    return cfg


def config_hash(cfg):
    """Hash of what a run computes: every key but ``output_dir``, where it writes."""
    body = {k: v for k, v in cfg.items() if k != "output_dir"}
    return hashlib.sha256(json.dumps(body, sort_keys=True).encode("utf-8")).hexdigest()[:16]


# -- builders: each section's dataclass from a run config ----------------------


def turbulence_params(cfg, meters=None):
    """The run's turbulence at ``meters`` (its own intensity if None)."""
    t = cfg["turbulence"]
    overrides = {k: v for k, v in t.items() if k != "intensity_meters"}
    return init_params(t["intensity_meters"] if meters is None else meters, cfg["dataset"]["image_size"], overrides)


def restore_config(cfg, **overrides):
    """The run's restorer with ``overrides``; Wiener's deconvolution PSF must fit in the image."""
    rcfg = RestoreConfig(**{**cfg["restore"], **overrides})
    k, size = cfg["turbulence"]["kernel_size"], cfg["dataset"]["image_size"]
    if rcfg.mode == "wiener" and k > size:
        raise ConfigError(f"wiener restoration needs turbulence.kernel_size ({k}) <= dataset.image_size ({size})")
    return rcfg


def backbone_config(cfg):
    b = {k: v for k, v in cfg["backbone"].items() if k not in _PRETRAIN_SCHEDULE}
    return BackboneConfig(image_size=cfg["dataset"]["image_size"], **b)


def pretrain_config(cfg):
    """Pretraining's schedule, from the backbone section."""
    return FitConfig(**{field: cfg["backbone"][key] for key, field in _PRETRAIN_SCHEDULE.items()})


def fusion_config(cfg):
    return FusionConfig(d_model=cfg["backbone"]["embed_dim"], **cfg["fusion"])


def margin_params(cfg):
    return MarginParams(**cfg["loss"])


def train_config(cfg, **overrides):
    return TrainConfig(**{**cfg["train"], "seed": cfg["seed"], **overrides})
