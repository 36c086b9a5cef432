"""Synthetic identity benchmark with disjoint train/test identities.

Each identity is a latent vector pushed through a fixed procedural decoder:
a bank of oriented cosine gratings spanning low to high spatial frequencies
whose amplitudes are a smooth function of the latent, plus per-sample pose
(shift/rotation) and illumination jitter. Identity detail deliberately
lives across the frequency spectrum so blur removes discriminative
information, which is what the degradation benchmark exploits.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ContractError
from .tensorio import load_tensor, save_tensor

GENERATOR_VERSION = "g1"
LATENT_DIM = 16
_DECODER_SEED = 771020  # fixed: the decoder is part of the generator version
_N_COMPONENTS = 48


@dataclass
class IdentitySpec:
    id: int
    latent: np.ndarray


@dataclass
class ManifestImage:
    path: str
    label: int
    split: str


@dataclass
class DatasetManifest:
    """The images of ``dataset/``, each with its label and split: what the
    image sets' loaders and ``make_pairs`` read. The degraded and restored
    sets hold the same paths and have no manifest of their own; the config
    and generator a set was made under are in its ``made_under.json``."""

    images: list

    def split_images(self, split):
        return [im for im in self.images if im.split == split]

    def save(self, path):
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"images": [vars(im) for im in self.images]}, fh, indent=2, sort_keys=True)
            fh.write("\n")

    @classmethod
    def load(cls, path):
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        return cls(images=[ManifestImage(**im) for im in payload["images"]])


@dataclass
class _Decoder:
    freqs: np.ndarray  # (M, 2) spatial frequency vectors
    phases: np.ndarray  # (M,)
    mix: np.ndarray  # (M, Z) latent-to-amplitude map
    grids: dict = field(default_factory=dict)


_decoder_cache = {}


def _decoder():
    if "d" not in _decoder_cache:
        rng = np.random.default_rng(_DECODER_SEED)
        angles = rng.uniform(0, np.pi, _N_COMPONENTS)
        # cycles per image spread log-uniformly; the band skews fine so
        # blur removes identity detail the way it does for real faces
        cycles = np.exp(rng.uniform(np.log(1.5), np.log(16.0), _N_COMPONENTS))
        freqs = np.pi * cycles[:, None] * np.stack([np.cos(angles), np.sin(angles)], axis=1)
        phases = rng.uniform(0, 2 * np.pi, _N_COMPONENTS)
        mix = rng.standard_normal((_N_COMPONENTS, LATENT_DIM)) / np.sqrt(LATENT_DIM)
        _decoder_cache["d"] = _Decoder(freqs, phases, mix)
    return _decoder_cache["d"]


def identity_latent(identity_id, dataset_seed):
    rng = np.random.default_rng(np.random.SeedSequence([int(dataset_seed), int(identity_id)]))
    return rng.standard_normal(LATENT_DIM)


def render(identity: IdentitySpec, jitter_seed, image_size):
    """Deterministic image in [0, 1] for one (identity, jitter) pair."""
    dec = _decoder()
    rng = np.random.default_rng(np.random.SeedSequence([int(identity.id), int(jitter_seed), 0xFACE]))
    du, dv = rng.uniform(-0.06, 0.06, 2)
    rot = rng.normal(0.0, 0.04)
    gu, gv = rng.normal(0.0, 0.08, 2)
    bias = rng.normal(0.0, 0.05)
    contrast = float(np.exp(rng.normal(0.0, 0.1)))

    if image_size not in dec.grids:
        ax = np.linspace(-1.0, 1.0, image_size)
        dec.grids[image_size] = np.meshgrid(ax, ax, indexing="ij")
    vv, uu = dec.grids[image_size]
    cr, sr = np.cos(rot), np.sin(rot)
    u = cr * (uu + du) - sr * (vv + dv)
    v = sr * (uu + du) + cr * (vv + dv)

    amps = np.tanh(dec.mix @ identity.latent)
    pattern = np.tensordot(
        amps, np.cos(dec.freqs[:, 0, None, None] * u + dec.freqs[:, 1, None, None] * v + dec.phases[:, None, None]), axes=1
    ) / np.sqrt(_N_COMPONENTS)
    raw = contrast * (2.2 * pattern + gu * uu + gv * vv + bias)
    return (0.5 + 0.45 * np.tanh(raw)).astype(np.float64)


def check_dataset(n_identities, per_identity, image_size):
    """Raise unless ``synth_dataset`` can render a dataset of this shape."""
    if n_identities < 4 or per_identity < 2:
        raise ContractError("need n_identities >= 4 and per_identity >= 2")
    if image_size < 1:
        raise ContractError(f"image_size must be positive, got {image_size}")


def synth_dataset(
    out_dir,
    n_identities,
    per_identity,
    image_size=64,
    seed=0,
    *,
    n_test_identities=0,
    test_per_identity=None,
):
    """Render a train split (plus optional disjoint test split) to disk.

    Train identities get ids [0, n_identities); test identities continue
    after them, so the zero-shot contract (disjoint identity sets) holds by
    construction. Returns the saved DatasetManifest.
    """
    check_dataset(n_identities, per_identity, image_size)
    if test_per_identity is None:
        test_per_identity = per_identity

    out_dir = Path(out_dir)
    (out_dir / "images").mkdir(parents=True, exist_ok=True)

    specs = {}
    plan = [("train", range(n_identities), per_identity)]
    if n_test_identities:
        plan.append(("test", range(n_identities, n_identities + n_test_identities), test_per_identity))

    images = []
    for split, id_range, count in plan:
        for ident in id_range:
            specs[ident] = IdentitySpec(ident, identity_latent(ident, seed))
            for k in range(count):
                jitter_seed = int(np.random.SeedSequence([seed, ident, k]).generate_state(1)[0])
                img = render(specs[ident], jitter_seed, image_size)
                rel = f"images/id{ident:04d}_{k:03d}.fat"
                save_tensor(out_dir / rel, img.astype(np.float32))
                images.append(ManifestImage(path=rel, label=ident, split=split))

    latents = np.stack([s.latent for s in specs.values()])
    dists = np.linalg.norm(latents[:, None] - latents[None, :], axis=-1)
    np.fill_diagonal(dists, np.inf)
    if dists.min() <= 0:
        raise ContractError("identity latents collided")

    manifest = DatasetManifest(images=images)
    manifest.save(out_dir / "manifest.json")
    return manifest


def load_images(root, entries):
    """Stack manifest entries into (N, H, W) float32 plus labels."""
    root = Path(root)
    arrs = [load_tensor(root / im.path) for im in entries]
    labels = np.array([im.label for im in entries])
    return np.stack(arrs).astype(np.float32, copy=False), labels


@dataclass
class Pair:
    index_a: int
    index_b: int
    genuine: bool


def make_pairs(manifest: DatasetManifest, split, n_genuine, n_impostor, seed=0):
    """Balanced genuine/impostor pairs over one split, no duplicates.

    Returned indices point into ``manifest.split_images(split)``, with
    ``index_a < index_b``. Every unordered pair of the split is a candidate,
    n(n-1)/2 of them (20,706 at 204 images, 51,040 at 320), split by kind
    into genuine and impostor. One draw without replacement per kind,
    genuine first, picks the requested number, so each kind is uniform over
    its distinct pairs. When every identity has the same number of images,
    as ``synth_dataset`` makes them, that is also the distribution of
    drawing the identities first and then their images.
    """
    labels = np.array([im.label for im in manifest.split_images(split)])
    a, b = np.triu_indices(len(labels), 1)
    same = labels[a] == labels[b]
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBEEF]))
    drawn = {}
    for kind, mask, want in (("genuine", same, n_genuine), ("impostor", ~same, n_impostor)):
        ka, kb = a[mask], b[mask]
        if len(ka) < want:
            raise ContractError(f"split {split!r} has {len(ka)} distinct {kind} pairs, {want} requested")
        pick = rng.choice(len(ka), want, replace=False)
        drawn[kind] = [Pair(i, j, kind == "genuine") for i, j in zip(ka[pick].tolist(), kb[pick].tolist())]
    genuine, impostor = drawn["genuine"], drawn["impostor"]

    # interleave so contiguous evaluation folds stay class-balanced
    pairs = []
    for g, i in zip(genuine, impostor):
        pairs.extend((g, i))
    pairs.extend(genuine[len(impostor) :])
    pairs.extend(impostor[len(genuine) :])
    return pairs
