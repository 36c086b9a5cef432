import hashlib
import json

import numpy as np
import pytest

from turbfuse import datagen as dg
from turbfuse.errors import ContractError
from turbfuse.tensorio import load_tensor


class TestRender:
    def test_deterministic(self):
        spec = dg.IdentitySpec(3, dg.identity_latent(3, 0))
        a = dg.render(spec, 42, 32)
        b = dg.render(spec, 42, 32)
        np.testing.assert_array_equal(a, b)

    def test_values_in_unit_interval(self):
        for ident in range(5):
            spec = dg.IdentitySpec(ident, dg.identity_latent(ident, 1))
            img = dg.render(spec, ident * 7, 32)
            assert img.min() >= 0.0 and img.max() <= 1.0

    def test_same_identity_more_similar_than_different(self):
        rng = np.random.default_rng(2)
        same, diff = [], []
        for _ in range(60):
            ia, ib = rng.integers(0, 30, 2)
            sa = dg.IdentitySpec(int(ia), dg.identity_latent(int(ia), 5))
            sb = dg.IdentitySpec(int(ib), dg.identity_latent(int(ib), 5))
            ja, jb = rng.integers(0, 10_000, 2)
            x = dg.render(sa, int(ja), 32).ravel()
            y = dg.render(sb, int(jb), 32).ravel()
            corr = np.corrcoef(x, y)[0, 1]
            (same if ia == ib else diff).append(corr)
            if ia != ib:
                xa = dg.render(sa, int(jb), 32).ravel()
                same.append(np.corrcoef(x, xa)[0, 1])
        assert np.mean(same) > np.mean(diff)


class TestSynthDataset:
    def test_counting_and_balance(self, tmp_path):
        m = dg.synth_dataset(tmp_path, 4, 2, image_size=16, seed=0)
        assert len(m.images) == 8
        labels = [im.label for im in m.images]
        assert all(labels.count(l) == 2 for l in set(labels))

    def test_deterministic_bytes(self, tmp_path):
        m1 = dg.synth_dataset(tmp_path / "a", 4, 2, image_size=16, seed=3, n_test_identities=2)
        m2 = dg.synth_dataset(tmp_path / "b", 4, 2, image_size=16, seed=3, n_test_identities=2)
        assert m1 == m2
        for ia, ib in zip(m1.images, m2.images):
            assert vars(ia) == vars(ib)
            ba = (tmp_path / "a" / ia.path).read_bytes()
            bb = (tmp_path / "b" / ib.path).read_bytes()
            assert ba == bb

    def test_split_identities_disjoint(self, tmp_path):
        m = dg.synth_dataset(tmp_path, 6, 3, image_size=16, seed=1, n_test_identities=4, test_per_identity=2)
        train = {im.label for im in m.split_images("train")}
        test = {im.label for im in m.split_images("test")}
        assert train.isdisjoint(test)
        assert len(train) == 6 and len(test) == 4

    def test_manifest_roundtrip_and_files_exist(self, tmp_path):
        m = dg.synth_dataset(tmp_path, 4, 2, image_size=16, seed=2)
        back = dg.DatasetManifest.load(tmp_path / "manifest.json")
        assert back == m
        # only what a reader reads: the config and generator are in the dataset's made_under.json
        payload = json.loads((tmp_path / "manifest.json").read_text())
        assert set(payload) == {"images"}
        assert all(set(entry) == {"label", "path", "split"} for entry in payload["images"])
        for im in back.images:
            arr = load_tensor(tmp_path / im.path)
            assert arr.shape == (16, 16)

    def test_intra_class_distance_below_inter_class(self, tmp_path):
        m = dg.synth_dataset(tmp_path, 8, 6, image_size=32, seed=4)
        imgs, labels = dg.load_images(tmp_path, m.images)
        rng = np.random.default_rng(0)
        intra, inter = [], []
        for _ in range(1000):
            i, j = rng.integers(0, len(labels), 2)
            if i == j:
                continue
            d = float(((imgs[i] - imgs[j]) ** 2).mean())
            (intra if labels[i] == labels[j] else inter).append(d)
        assert np.mean(intra) < np.mean(inter)

    def test_preconditions(self, tmp_path):
        with pytest.raises(ContractError):
            dg.synth_dataset(tmp_path, 3, 2)
        with pytest.raises(ContractError):
            dg.synth_dataset(tmp_path, 4, 1)


class TestMakePairs:
    @pytest.fixture
    def manifest(self, tmp_path):
        return dg.synth_dataset(tmp_path, 4, 4, image_size=16, seed=5, n_test_identities=4, test_per_identity=3)

    def test_counts_and_labels(self, manifest):
        pairs = dg.make_pairs(manifest, "test", 10, 10, seed=0)
        assert len(pairs) == 20
        assert sum(p.genuine for p in pairs) == 10
        entries = manifest.split_images("test")
        for p in pairs:
            same = entries[p.index_a].label == entries[p.index_b].label
            assert same == p.genuine

    def test_no_duplicate_unordered_pairs(self, manifest):
        pairs = dg.make_pairs(manifest, "test", 8, 8, seed=1)
        keys = {(p.index_a, p.index_b) for p in pairs}
        assert len(keys) == len(pairs)
        assert all(a < b for a, b in keys)

    def test_deterministic_in_seed(self, manifest):
        a = dg.make_pairs(manifest, "test", 6, 6, seed=2)
        b = dg.make_pairs(manifest, "test", 6, 6, seed=2)
        c = dg.make_pairs(manifest, "test", 6, 6, seed=3)
        assert [vars(p) for p in a] == [vars(p) for p in b]
        assert [vars(p) for p in a] != [vars(p) for p in c]

    def test_insufficient_data_rejected(self, tmp_path):
        m = dg.synth_dataset(tmp_path / "tiny", 4, 2, image_size=16, seed=6)
        with pytest.raises(ContractError):
            dg.make_pairs(m, "test", 4, 4, seed=0)

    def test_every_pair_of_a_split_can_be_drawn(self):
        images = [
            dg.ManifestImage(path=f"images/id{lbl:04d}_{k:03d}.fat", label=lbl, split="test")
            for lbl in range(4)
            for k in range(3)
        ]
        manifest = dg.DatasetManifest(images=images)
        pairs = dg.make_pairs(manifest, "test", 12, 54, seed=0)
        keys = sorted((p.index_a, p.index_b) for p in pairs)
        assert keys == [(i, j) for i in range(12) for j in range(i + 1, 12)]
        assert all(p.genuine == (p.index_a // 3 == p.index_b // 3) for p in pairs)
        with pytest.raises(ContractError, match="12 distinct genuine pairs, 13 requested"):
            dg.make_pairs(manifest, "test", 13, 54, seed=0)
        with pytest.raises(ContractError, match="54 distinct impostor pairs, 55 requested"):
            dg.make_pairs(manifest, "test", 12, 55, seed=0)

    def test_pair_stream_pinned(self):
        # any change to the RNG draws behind the pairs changes this digest
        images = [
            dg.ManifestImage(path=f"images/id{lbl:04d}_{k:03d}.fat", label=lbl, split="train" if lbl < 2 else "test")
            for lbl in range(8)
            for k in range(7)
        ]
        manifest = dg.DatasetManifest(images=images)
        pairs = dg.make_pairs(manifest, "test", 60, 300, seed=11)
        blob = json.dumps([[p.index_a, p.index_b, p.genuine] for p in pairs]).encode()
        assert len(pairs) == 360
        assert hashlib.sha256(blob).hexdigest() == "c2fd1946fbfedb48a1a8e5a2c7279de51b74effd693ad66e7013f94ed7c3ae7a"
