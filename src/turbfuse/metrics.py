"""Verification and identification metrics.

Conventions fixed here (the protocol names the metrics without tie rules):
a pair is accepted when score >= threshold; verification accuracy uses a
k-fold protocol with candidate thresholds at midpoints of consecutive
sorted unique scores (plus one candidate below and above everything);
tar_at_far picks the smallest impostor score whose acceptance fraction is
<= far; top-k ranks by cosine similarity with ties broken by gallery index.

Both threshold searches count rather than rescore. Each fold sorts its
training scores once; ``searchsorted`` gives how many scores fall below
every candidate, and a cumulative sum of the sorted labels how many of
those are genuine, so the correct count at threshold t is
``n_genuine + below(t) - 2 * genuine_below(t)``. That costs O(n log n) per
fold instead of O(n^2) for scoring every candidate against every score,
and since the counts are exact integers the chosen threshold (the first,
i.e. lowest, maximum) and the accuracy are the same floats as a direct
scan. tar_at_far counts impostor acceptances for every candidate the same
way.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError


@dataclass
class ScoreSet:
    """Similarity scores with genuine/impostor labels."""

    scores: np.ndarray
    labels: np.ndarray  # True = genuine

    def __post_init__(self):
        self.scores = np.asarray(self.scores, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=bool)
        if self.scores.shape != self.labels.shape or self.scores.ndim != 1:
            raise ContractError("scores and labels must be 1-D and equal length")
        if not np.isfinite(self.scores).all():
            raise ContractError("scores must be finite")

    @property
    def genuine(self):
        return self.scores[self.labels]

    @property
    def impostor(self):
        return self.scores[~self.labels]


@dataclass
class VerificationReport:
    accuracy: float
    thresholds: list
    tar_at_far: dict = field(default_factory=dict)
    rank_k_hit_rate: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "accuracy": self.accuracy,
            "thresholds": list(self.thresholds),
            "tar_at_far": {str(k): v for k, v in self.tar_at_far.items()},
            "rank_k_hit_rate": {str(k): v for k, v in self.rank_k_hit_rate.items()},
            "config": self.config,
        }



def cosine_matrix(a, b):
    """Row-wise cosine similarities between (P, D) and (G, D) stacks."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    na = np.linalg.norm(a, axis=1, keepdims=True)
    nb = np.linalg.norm(b, axis=1, keepdims=True)
    if np.any(na == 0) or np.any(nb == 0):
        raise ContractError("cosine_matrix got a zero vector")
    return (a / na) @ (b / nb).T


def _threshold_candidates(scores):
    uniq = np.unique(scores)
    if len(uniq) == 1:
        return np.array([uniq[0] - 1.0, uniq[0] + 1.0])
    mids = (uniq[:-1] + uniq[1:]) / 2.0
    return np.concatenate([[uniq[0] - 1.0], mids, [uniq[-1] + 1.0]])


def _accuracy_at(scores, labels, threshold):
    accept = scores >= threshold
    return float((accept == labels).mean())


def verification_accuracy(s: ScoreSet, n_folds=10):
    """k-fold accuracy: per fold, pick the best threshold on the other
    folds and score the held-out fold. n_folds=1 trains and tests on the
    full set. Returns (mean accuracy, per-fold thresholds)."""
    n = len(s.scores)
    if n_folds < 1:
        raise ContractError("n_folds must be >= 1")
    if len(s.genuine) < n_folds or len(s.impostor) < n_folds:
        raise ContractError(f"need >= {n_folds} genuine and impostor scores")

    folds = np.array_split(np.arange(n), n_folds)
    accs, thresholds = [], []
    for held in folds:
        if len(held) == 0:
            raise ContractError("degenerate empty fold")
        train_mask = np.ones(n, dtype=bool)
        if n_folds > 1:
            train_mask[held] = False
        tr_scores = s.scores[train_mask]
        tr_labels = s.labels[train_mask]
        if tr_labels.all() or not tr_labels.any():
            raise ContractError("degenerate fold: training side has one class")
        order = np.argsort(tr_scores)
        sorted_scores = tr_scores[order]
        genuine_cum = np.concatenate([[0], np.cumsum(tr_labels[order])])
        cands = _threshold_candidates(sorted_scores)
        below = np.searchsorted(sorted_scores, cands, side="left")
        correct = genuine_cum[-1] + below - 2 * genuine_cum[below]
        best = cands[int(np.argmax(correct))]
        thresholds.append(float(best))
        accs.append(_accuracy_at(s.scores[held], s.labels[held], best))
    return float(np.mean(accs)), thresholds


def tar_at_far(s: ScoreSet, far):
    """True-accept rate at the threshold where impostor acceptance <= far.

    Threshold candidates are the impostor scores themselves; the smallest
    qualifying score is chosen. If even the largest impostor score accepts
    more than far, the threshold moves just above it.
    """
    if not 0.0 < far <= 1.0:
        raise ContractError("far must lie in (0, 1]")
    imp = s.impostor
    gen = s.genuine
    if len(imp) == 0 or len(gen) == 0:
        raise ContractError("need at least one genuine and one impostor score")
    candidates = np.unique(imp)
    accepted = len(imp) - np.searchsorted(np.sort(imp), candidates, side="left")
    ok = accepted / len(imp) <= far
    if ok.any():
        return float((gen >= candidates[int(np.argmax(ok))]).mean())
    return float((gen > candidates[-1]).mean())


def top_k_hits(probe_embs, probe_labels, gallery_embs, gallery_labels, k):
    """Fraction of probes whose true label appears in the top-k gallery
    matches by cosine similarity (ties broken by gallery index)."""
    gallery_labels = np.asarray(gallery_labels)
    probe_labels = np.asarray(probe_labels)
    if len(gallery_labels) == 0:
        raise ContractError("gallery must be nonempty")
    if not 1 <= k <= len(gallery_labels):
        raise ContractError(f"k must lie in [1, {len(gallery_labels)}]")
    sims = cosine_matrix(probe_embs, gallery_embs)
    order = np.argsort(-sims, axis=1, kind="stable")
    hits = (gallery_labels[order[:, :k]] == probe_labels[:, None]).any(axis=1)
    return int(hits.sum()) / sims.shape[0]
