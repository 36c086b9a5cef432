"""Run configuration: one flat JSON file with nested sections.

Every experiment is fully described by (config, seed); commands take only
the config path plus ``--set section.key=value`` overrides, so ablations
stay reproducible. Unknown sections or keys are rejected with the exact
key path.
"""

from __future__ import annotations

import copy
import hashlib
import json

from .errors import ConfigError
from .turbsim import DEFAULT_APERTURE, DEFAULT_CN2, DEFAULT_WAVELENGTH

DEFAULTS = {
    "seed": 0,
    "output_dir": "runs/default",
    "dataset": {
        "n_identities": 64,
        "per_identity": 50,
        "n_test_identities": 16,
        "test_per_identity": 20,
        "image_size": 64,
    },
    "turbulence": {
        "intensity_meters": 20000.0,
        "aperture_diameter": DEFAULT_APERTURE,
        "wavelength": DEFAULT_WAVELENGTH,
        "cn2": DEFAULT_CN2,
        "n_zernike": 33,
        "outer_scale_m": 10.0,
        "pixel_pitch_m": 0.05,
        "fft_size": 96,
        "pupil_px": 32,
        "kernel_size": 23,
    },
    "restore": {
        "mode": "oracle_blend",
        "fidelity_w": 0.5,
        "artifact_sigma": 0.02,
        "artifact_smooth_px": 3.0,
        "wiener_nsr": 0.01,
    },
    "backbone": {
        "channels": [8, 16, 32],
        "kernel": 3,
        "embed_dim": 64,
        "epochs": 5,
        "batch_size": 32,
        "lr": 0.02,
        "warmup_steps": 50,
    },
    "fusion": {
        "ffn_hidden": 256,
        "attention_order": "cross_first",
        "role_variant": "d",
        "cascade_depth": 1,
        "use_residual": True,
        "block_norm": True,
    },
    "loss": {"m1": 1.0, "m2": 0.5, "m3": 0.0, "s": 16.0},
    "train": {
        "batch_size": 32,
        "epochs": 5,
        "lr_base": 0.02,
        "momentum": 0.9,
        "weight_decay": 0.0005,
        "warmup_steps": 50,
        "poly_power": 0.9,
        "strategy": "adapter_joint",
    },
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
        "intensity_levels": [10000.0, 20000.0, 30000.0, 40000.0],
        "grid_epochs": 1,
    },
}


def _merge_checked(defaults, override, path=""):
    if not isinstance(override, dict):
        raise ConfigError(f"{path or 'config'}: expected an object")
    merged = copy.deepcopy(defaults)
    for key, value in override.items():
        kpath = f"{path}.{key}" if path else key
        if key not in defaults:
            raise ConfigError(f"unknown config key: {kpath}")
        base = defaults[key]
        if isinstance(base, dict):
            merged[key] = _merge_checked(base, value, kpath)
        else:
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
            elif isinstance(base, list) and not isinstance(value, list):
                raise ConfigError(f"{kpath}: expected a list")
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
    cfg = _merge_checked(DEFAULTS, override)

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
        cfg = _merge_checked(cfg, node)
    return cfg


def config_hash(cfg):
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode("utf-8")).hexdigest()[:16]

