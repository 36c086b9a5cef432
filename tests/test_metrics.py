import numpy as np
import pytest

from turbfuse.errors import ContractError
from turbfuse.metrics import (
    ScoreSet,
    VerificationReport,
    tar_at_far,
    top_k_hits,
    verification_accuracy,
)


def brute_force_accuracy(scores, labels):
    """Oracle: exhaustive enumeration over all midpoint thresholds."""
    uniq = sorted(set(scores))
    cands = [uniq[0] - 1.0] + [(a + b) / 2 for a, b in zip(uniq, uniq[1:])] + [uniq[-1] + 1.0]
    best = -1.0
    for t in cands:
        acc = np.mean([(s >= t) == l for s, l in zip(scores, labels)])
        best = max(best, acc)
    return best


def brute_force_kfold(scores, labels, n_folds):
    """Oracle: per fold, the lowest midpoint threshold that scores best on
    the other folds by exhaustive enumeration, applied to the held fold."""
    scores, labels = np.asarray(scores), np.asarray(labels)
    accs, thresholds = [], []
    for held in np.array_split(np.arange(len(scores)), n_folds):
        train = np.setdiff1d(np.arange(len(scores)), held)
        uniq = sorted(set(scores[train].tolist()))
        cands = [uniq[0] - 1.0] + [(a + b) / 2 for a, b in zip(uniq, uniq[1:])] + [uniq[-1] + 1.0]
        train_accs = [np.mean((scores[train] >= t) == labels[train]) for t in cands]
        best = cands[train_accs.index(max(train_accs))]
        thresholds.append(best)
        accs.append(np.mean((scores[held] >= best) == labels[held]))
    return float(np.mean(accs)), thresholds


def tie_heavy_scores(rng, n):
    """Scores rounded to 1-2 decimals, with at least 10 of each class."""
    scores = np.round(rng.random(n), int(rng.integers(1, 3)))
    labels = rng.random(n) < rng.uniform(0.3, 0.7)
    labels[:10] = True
    labels[10:20] = False
    rng.shuffle(labels)
    return scores, labels


def brute_force_tar(genuine, impostor, far):
    """Oracle: scan impostor-score thresholds smallest-first."""
    for t in sorted(set(impostor)):
        if np.mean([s >= t for s in impostor]) <= far:
            return np.mean([s >= t for s in genuine])
    top = max(impostor)
    return np.mean([s > top for s in genuine])


class TestVerificationAccuracy:
    def test_perfect_separation(self):
        s = ScoreSet(np.array([0.9, 0.8, 0.7, 0.2, 0.1, 0.05]), np.array([1, 1, 1, 0, 0, 0], dtype=bool))
        acc, _ = verification_accuracy(s, n_folds=3)
        assert acc == 1.0

    def test_all_scores_identical(self):
        s = ScoreSet(np.full(8, 0.5), np.array([1, 1, 1, 1, 1, 0, 0, 0], dtype=bool))
        acc, _ = verification_accuracy(s, n_folds=1)
        assert acc == pytest.approx(5 / 8)

    def test_worked_example_single_fold(self):
        genuine = [0.9, 0.8, 0.4]
        impostor = [0.6, 0.3, 0.1]
        s = ScoreSet(np.array(genuine + impostor), np.array([1, 1, 1, 0, 0, 0], dtype=bool))
        acc, thresholds = verification_accuracy(s, n_folds=1)
        assert acc == pytest.approx(brute_force_accuracy(genuine + impostor, [1, 1, 1, 0, 0, 0]))
        assert acc == pytest.approx(5 / 6)
        assert len(thresholds) == 1

    def test_matches_brute_force_single_fold(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            n = int(rng.integers(4, 64))
            scores = np.round(rng.random(n), 3)
            labels = rng.random(n) < 0.5
            if labels.all() or not labels.any():
                continue
            s = ScoreSet(scores, labels)
            acc, _ = verification_accuracy(s, n_folds=1)
            assert acc == pytest.approx(brute_force_accuracy(list(scores), list(labels)))

    def test_invariant_under_monotone_transform(self):
        rng = np.random.default_rng(1)
        scores = rng.random(24)
        labels = rng.random(24) < 0.5
        labels[:3] = True
        labels[-3:] = False
        s1 = ScoreSet(scores, labels)
        s2 = ScoreSet(np.exp(3 * scores) + 1, labels)
        a1, _ = verification_accuracy(s1, n_folds=3)
        a2, _ = verification_accuracy(s2, n_folds=3)
        assert a1 == pytest.approx(a2)

    def test_equals_brute_force_ten_folds_tie_heavy(self):
        rng = np.random.default_rng(8)
        for _ in range(60):
            scores, labels = tie_heavy_scores(rng, int(rng.integers(20, 200)))
            acc, thresholds = verification_accuracy(ScoreSet(scores, labels), n_folds=10)
            ref_acc, ref_thresholds = brute_force_kfold(scores, labels, 10)
            assert acc == ref_acc
            assert thresholds == ref_thresholds

    def test_insufficient_scores_rejected(self):
        s = ScoreSet(np.array([0.5, 0.4, 0.3]), np.array([1, 0, 0], dtype=bool))
        with pytest.raises(ContractError):
            verification_accuracy(s, n_folds=2)


class TestTarAtFar:
    def test_worked_example(self):
        s = ScoreSet(np.array([0.9, 0.8, 0.6, 0.7, 0.5, 0.1]), np.array([1, 1, 1, 0, 0, 0], dtype=bool))
        assert tar_at_far(s, 1 / 3) == pytest.approx(2 / 3)

    def test_perfect_separation_any_far(self):
        s = ScoreSet(np.array([0.9, 0.8, 0.3, 0.2]), np.array([1, 1, 0, 0], dtype=bool))
        for far in (0.01, 0.5, 1.0):
            assert tar_at_far(s, far) == 1.0

    def test_far_one(self):
        rng = np.random.default_rng(2)
        scores = rng.random(20)
        labels = rng.random(20) < 0.5
        labels[0] = True
        labels[1] = False
        s = ScoreSet(scores, labels)
        # threshold <= min impostor accepts every genuine >= it
        t = s.impostor.min()
        assert tar_at_far(s, 1.0) == pytest.approx((s.genuine >= t).mean())

    def test_matches_brute_force(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(4, 64))
            scores = np.round(rng.random(n), 3)
            labels = rng.random(n) < 0.5
            if labels.all() or not labels.any():
                continue
            far = float(rng.choice([0.01, 0.1, 1 / 3, 0.5, 1.0]))
            s = ScoreSet(scores, labels)
            assert tar_at_far(s, far) == pytest.approx(brute_force_tar(list(s.genuine), list(s.impostor), far))

    def test_equals_brute_force_tie_heavy(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            scores, labels = tie_heavy_scores(rng, int(rng.integers(20, 200)))
            s = ScoreSet(scores, labels)
            for far in (0.001, 0.01, 0.1, 1 / 3, 0.5, 1.0):
                assert tar_at_far(s, far) == brute_force_tar(list(s.genuine), list(s.impostor), far)

    def test_monotone_in_far(self):
        rng = np.random.default_rng(4)
        scores = rng.random(40)
        labels = rng.random(40) < 0.5
        labels[0] = True
        labels[1] = False
        s = ScoreSet(scores, labels)
        tars = [tar_at_far(s, f) for f in (0.05, 0.1, 0.25, 0.5, 1.0)]
        assert all(a <= b + 1e-12 for a, b in zip(tars, tars[1:]))

    def test_empty_class_rejected(self):
        s = ScoreSet(np.array([0.5, 0.6]), np.array([1, 1], dtype=bool))
        with pytest.raises(ContractError):
            tar_at_far(s, 0.1)


class TestTopK:
    def test_probe_in_gallery_always_hits(self):
        rng = np.random.default_rng(5)
        gallery = rng.standard_normal((6, 8))
        labels = np.arange(6)
        for k in (1, 3, 6):
            assert top_k_hits(gallery[2:3], labels[2:3], gallery, labels, k) == 1.0

    def test_k_equals_gallery_size(self):
        rng = np.random.default_rng(6)
        gallery = rng.standard_normal((5, 4))
        probes = rng.standard_normal((3, 4))
        assert top_k_hits(probes, np.array([0, 1, 2]), gallery, np.arange(5), 5) == 1.0

    def test_matches_full_sort_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            g = int(rng.integers(2, 8))
            p = int(rng.integers(1, 5))
            d = int(rng.integers(2, 6))
            gallery = rng.standard_normal((g, d))
            probes = rng.standard_normal((p, d))
            glabels = rng.integers(0, 4, g)
            plabels = rng.integers(0, 4, p)
            k = int(rng.integers(1, g + 1))
            # oracle: explicit per-probe sort by cosine
            hits = 0
            for i in range(p):
                sims = [np.dot(probes[i], gallery[j]) / (np.linalg.norm(probes[i]) * np.linalg.norm(gallery[j])) for j in range(g)]
                order = sorted(range(g), key=lambda j: (-sims[j], j))
                hits += plabels[i] in {glabels[j] for j in order[:k]}
            assert top_k_hits(probes, plabels, gallery, glabels, k) == pytest.approx(hits / p)

    def test_k_out_of_range(self):
        with pytest.raises(ContractError):
            top_k_hits(np.ones((1, 2)), [0], np.ones((2, 2)), [0, 1], 3)


def test_report_serialization_roundtrip():
    import json

    rep = VerificationReport(accuracy=0.94, thresholds=[0.3, 0.31], tar_at_far={0.01: 0.5}, rank_k_hit_rate={1: 0.8})
    back = json.loads(json.dumps(rep.to_dict()))
    assert back["accuracy"] == 0.94
    assert back["tar_at_far"]["0.01"] == 0.5
