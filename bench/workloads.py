"""The three workloads: the turbfuse config each one runs, and its operations.

An operation is one CLI command, ``(command, --set overrides)``. The program
sees only the config built here from the workload seed; every size below is
part of the benchmark and is listed in README.md.
"""

from __future__ import annotations

WORKLOADS = ("pipeline", "ablate", "verify")
STRATEGIES = ("baseline_lq", "eval_restored", "finetune_restored", "adapter_joint")

# How many times a run builds a workload's inputs; setup_s is their median.
SETUP_REPEATS = 3


def _dataset(n_train_ids, per_train, n_test_ids, per_test):
    return {
        "n_identities": n_train_ids,
        "per_identity": per_train,
        "n_test_identities": n_test_ids,
        "test_per_identity": per_test,
        "image_size": 64,
    }


def config(workload, seed):
    """turbfuse config overrides for one workload and workload seed."""
    seed = int(seed)
    # Pretraining needs about 60 steps to leave the loss plateau it starts
    # on, so every workload pretrains for 72 steps of 8 images.
    cfg = {
        "seed": seed,
        "turbulence": {"intensity_meters": 20000.0},
        "backbone": {"epochs": 9, "batch_size": 8},
        "train": {"epochs": 2, "batch_size": 32, "strategy": "adapter_joint"},
    }
    if workload == "pipeline":
        cfg["dataset"] = _dataset(8, 12, 8, 8)
        cfg["backbone"]["epochs"] = 6
        cfg["train"]["epochs"] = 3
        cfg["eval"] = {"n_genuine_pairs": 100, "n_impostor_pairs": 100}
    elif workload == "ablate":
        cfg["dataset"] = _dataset(8, 8, 8, 6)
        cfg["train"]["epochs"] = 1
        cfg["eval"] = {"n_genuine_pairs": 60, "n_impostor_pairs": 60}
        cfg["ablations"] = {
            "parts": ["table3", "fusion_grid", "restorer", "intensity"],
            "table3_seeds": [seed, seed + 1],
            "cascade": [1, 3, 5],
            "restore_ws": [0.0, 0.5, 1.0],
            "intensity_levels": [10000.0, 20000.0, 30000.0, 40000.0],
            "grid_epochs": 1,
        }
    elif workload == "verify":
        # 6,000 pairs in 10 folds, the size of the LFW protocol
        cfg["dataset"] = _dataset(8, 8, 6, 34)
        cfg["eval"] = {"n_genuine_pairs": 3000, "n_impostor_pairs": 3000, "n_folds": 10}
    else:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    return cfg


_TRAIN = ("train", ())
SETUP = {
    "pipeline": (),
    "ablate": (("synth", ()), ("pretrain", ())),
    "verify": (
        ("synth", ()),
        ("degrade", ()),
        ("restore", ()),
        ("pretrain", ()),
        ("train", ("train.strategy=finetune_restored",)),
        _TRAIN,
    ),
}

# One round of the timed part. pipeline starts each round from an empty
# output directory; ablate and verify read the inputs their setup built.
ROUND = {
    "pipeline": (("synth", ()), ("degrade", ()), ("restore", ()), ("pretrain", ()), _TRAIN, ("eval", ())),
    "ablate": (("ablate", ()),),
    "verify": tuple(("eval", (f"train.strategy={s}",)) for s in STRATEGIES),
}

# End-to-end rate -> the timed records it is computed from, in order of
# preference: a CLI command timed in the rounds, the call inside `ablate`
# that does the same work, or else the command as timed in setup.
RATES = {
    "synth_images_per_s": ("synth",),
    "degrade_images_per_s": ("degrade", "degrade_stack"),
    "pretrain_samples_per_s": ("pretrain",),
    "train_samples_per_s": ("train", "train_adapter"),
    "eval_probes_per_s": ("eval", "evaluate_strategy"),
}
