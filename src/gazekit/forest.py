"""Random-forest classifier built from first principles.

Trees are CART classifiers: Gini impurity, thresholds at midpoints between
consecutive sorted unique feature values, a uniformly sampled feature subset
per split, and growth until the depth cap, purity, or the leaf-size floor.
Every source of randomness derives from the configured seed (per-tree
generators seeded with (seed, tree_index)), and split ties resolve to the
lowest feature index then lowest threshold, so training is reproducible
bit-for-bit. Prediction averages the leaf class fractions across trees.

Setting the ``GZK_THREADS`` environment variable above 1 trains trees in a
process pool; results are identical to a serial run because each tree depends
only on its derived seed and trees are collected in index order.
"""

from __future__ import annotations

import math
import multiprocessing
import os
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .core import REGIONS, GazekitError, GazeRegion, region_index
from .features import FeatureVector

__all__ = [
    "EmptyTrainingSet",
    "DimensionMismatch",
    "EmptyClass",
    "ForestConfig",
    "LEAF",
    "ForestNodes",
    "TrainingDigest",
    "ForestModel",
    "train",
    "train_arrays",
    "predict_proba",
    "predict_proba_batch",
    "subsample_balance",
    "supersample_balance",
    "subsample_indices",
    "supersample_indices",
    "thread_count",
]

_SEED_MASK = (1 << 64) - 1


class EmptyTrainingSet(GazekitError):
    """No training samples, or fewer than two classes present."""


class DimensionMismatch(GazekitError):
    """Feature dimensions disagree between samples, model, and query."""


class EmptyClass(GazekitError):
    """A class required by a balancing operation has no samples."""


@dataclass(frozen=True)
class ForestConfig:
    n_trees: int = 2000
    max_depth: int = 25
    features_per_split: int | None = None  # None = floor(sqrt(feature_dim))
    min_samples_leaf: int = 1
    rng_seed: int = 0
    bootstrap: bool = True

    def __post_init__(self):
        if self.n_trees < 1:
            raise ValueError("n_trees must be >= 1")
        if self.max_depth < 1:
            raise ValueError("max_depth must be >= 1")
        if self.features_per_split is not None and self.features_per_split < 1:
            raise ValueError("features_per_split must be >= 1")
        if self.min_samples_leaf < 1:
            raise ValueError("min_samples_leaf must be >= 1")


LEAF = -1  # ``ForestNodes.feature`` value that marks a leaf


@dataclass(frozen=True, eq=False)
class ForestNodes:
    """Every tree of a forest as preorder node arrays, trees back to back.

    A split at node ``i`` sends ``x[feature[i]] <= threshold[i]`` to its left
    child ``i + 1`` and everything else, NaN included, to its right child,
    ``right[i]`` nodes after the tree's first node. Leaves carry the class
    counts of the training samples that reached them. ``fractions`` and
    ``right_node`` are derived, for prediction.
    """

    roots: np.ndarray        # (n_trees,) first node of each tree
    feature: np.ndarray      # (n_nodes,) int32, LEAF at leaves
    threshold: np.ndarray    # (n_nodes,) float64, 0 at leaves
    right: np.ndarray        # (n_nodes,) int32, within the tree; -1 at leaves
    leaf_counts: np.ndarray  # (n_leaves, n_classes) uint32, leaves in node order
    fractions: np.ndarray = field(init=False, repr=False)   # (n_nodes, n_classes)
    right_node: np.ndarray = field(init=False, repr=False)  # (n_nodes,) right child

    def __post_init__(self):
        roots = np.asarray(self.roots, dtype=np.intp)
        object.__setattr__(self, "roots", roots)
        is_leaf = self.feature == LEAF
        counts = self.leaf_counts
        fractions = np.zeros((self.feature.size, counts.shape[1]))
        fractions[is_leaf] = counts / counts.sum(axis=1, keepdims=True)
        object.__setattr__(self, "fractions", fractions)
        tree_root = np.repeat(roots, self.tree_sizes)
        right_node = np.where(is_leaf, -1, tree_root + self.right)
        object.__setattr__(self, "right_node", right_node)

    @property
    def n_trees(self) -> int:
        return int(self.roots.size)

    @property
    def tree_sizes(self) -> np.ndarray:
        return np.diff(self.roots, append=self.feature.size)


@dataclass(frozen=True)
class TrainingDigest:
    """Provenance of a training run."""

    class_counts: tuple[int, ...]
    rng_seed: int
    bootstrap_coverage: float  # fraction of samples seen by >= 1 bootstrap


@dataclass
class ForestModel:
    config: ForestConfig
    nodes: ForestNodes
    feature_dim: int
    class_order: tuple
    training_digest: TrainingDigest

    def __post_init__(self):
        if self.nodes.n_trees != self.config.n_trees:
            raise ValueError("tree count must match config.n_trees")

    @property
    def n_classes(self) -> int:
        return len(self.class_order)

    def packed(self) -> ForestNodes:
        """The node arrays that prediction walks."""
        return self.nodes


def thread_count() -> int:
    """Worker cap from GZK_THREADS (default 1; invalid values fall back to 1)."""
    raw = os.environ.get("GZK_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


# ---------------------------------------------------------------------------
# Tree growth
# ---------------------------------------------------------------------------

def _best_split(X, y, idx, feats, n_classes, min_leaf):
    """Best (feature, threshold) among ``feats`` for the node ``idx``.

    Candidate quality is ranked by sum(left_counts^2)/n_left +
    sum(right_counts^2)/n_right, which orders splits identically to weighted
    Gini impurity but stays exact in float64 for the integer counts involved.
    Returns None when no candidate threshold exists.
    """
    n = idx.size
    sub = X[np.ix_(idx, feats)]  # (n, k)
    # Unstable sort is fine: boundaries between equal values are never valid
    # split points, and counts below a strict boundary are order-invariant.
    order = np.argsort(sub, axis=0)
    sorted_vals = np.take_along_axis(sub, order, axis=0)

    labels_sorted = y[idx][order]  # (n, k)
    one_hot = labels_sorted[..., None] == np.arange(n_classes)  # (n, k, C)
    # int32 keeps counts and their squares exact up to n ~ 46k
    count_dtype = np.int32 if n < 40_000 else np.int64
    cum = np.cumsum(one_hot, axis=0, dtype=count_dtype)
    left = cum[:-1]  # counts left of each boundary, (n-1, k, C)
    right = cum[-1][None] - left

    n_left = np.arange(1, n, dtype=np.int64)[:, None]  # (n-1, 1)
    n_right = n - n_left
    sq_left = np.einsum("ijc,ijc->ij", left, left).astype(np.int64)
    sq_right = np.einsum("ijc,ijc->ij", right, right).astype(np.int64)
    quality = (sq_left * n_right + sq_right * n_left) / (n_left * n_right)

    valid = (
        (sorted_vals[1:] > sorted_vals[:-1])
        & (n_left >= min_leaf)
        & (n_right >= min_leaf)
    )
    if not valid.any():
        return None
    quality = np.where(valid, quality, -np.inf)
    best_quality = quality.max()
    positions, columns = np.nonzero(quality == best_quality)
    thresholds = (sorted_vals[positions, columns] + sorted_vals[positions + 1, columns]) * 0.5
    ranked = sorted(zip(feats[columns], thresholds))
    feature, threshold = ranked[0]
    return int(feature), float(threshold)


def _grow_tree(X, y, n_classes, cfg: ForestConfig, rng: np.random.Generator):
    """Grow one tree; returns its preorder node arrays, as ForestNodes holds them."""
    n, d = X.shape
    k = cfg.features_per_split or max(1, int(math.floor(math.sqrt(d))))
    k = min(k, d)
    feature: list[int] = []
    threshold: list[float] = []
    right: list[int] = []
    leaf_counts: list[np.ndarray] = []

    def leaf(counts: np.ndarray):
        feature.append(LEAF)
        threshold.append(0.0)
        right.append(-1)
        leaf_counts.append(counts)

    def build(idx: np.ndarray, depth: int):
        counts = np.bincount(y[idx], minlength=n_classes)
        n_node = idx.size
        if (
            depth >= cfg.max_depth
            or counts.max() == n_node
            or n_node < 2 * cfg.min_samples_leaf
        ):
            return leaf(counts)
        feats = np.sort(rng.choice(d, size=k, replace=False))
        found = _best_split(X, y, idx, feats, n_classes, cfg.min_samples_leaf)
        if found is None:
            return leaf(counts)
        split_feature, split_threshold = found
        at = len(feature)
        feature.append(split_feature)
        threshold.append(split_threshold)
        right.append(-1)
        go_left = X[idx, split_feature] <= split_threshold
        build(idx[go_left], depth + 1)
        right[at] = len(feature)
        build(idx[~go_left], depth + 1)

    build(np.arange(n), 0)
    # ``build`` refers to itself through its closure; breaking that cycle
    # frees this tree's bootstrap sample now instead of at the next
    # garbage collection.
    del build
    return (
        np.array(feature, dtype=np.int32),
        np.array(threshold, dtype=np.float64),
        np.array(right, dtype=np.int32),
        np.array(leaf_counts, dtype=np.uint32),
    )


def _tree_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed & _SEED_MASK, index))


_WORKER_STATE: dict = {}


def _train_one(index: int):
    X = _WORKER_STATE["X"]
    y = _WORKER_STATE["y"]
    n_classes = _WORKER_STATE["n_classes"]
    cfg: ForestConfig = _WORKER_STATE["cfg"]
    rng = _tree_rng(cfg.rng_seed, index)
    n = X.shape[0]
    if cfg.bootstrap:
        chosen = rng.integers(0, n, size=n)
        tree = _grow_tree(X[chosen], y[chosen], n_classes, cfg, rng)
        seen = np.unique(chosen)
    else:
        tree = _grow_tree(X, y, n_classes, cfg, rng)
        seen = np.arange(n)
    return tree, seen


def _fit_trees(X, y, n_classes, cfg: ForestConfig):
    global _WORKER_STATE
    _WORKER_STATE = {"X": X, "y": y, "n_classes": n_classes, "cfg": cfg}
    workers = min(thread_count(), cfg.n_trees)
    try:
        if workers > 1 and "fork" in multiprocessing.get_all_start_methods():
            ctx = multiprocessing.get_context("fork")
            with ctx.Pool(processes=workers) as pool:
                results = pool.map(_train_one, range(cfg.n_trees))
        else:
            results = [_train_one(i) for i in range(cfg.n_trees)]
    finally:
        _WORKER_STATE = {}
    feature, threshold, right, leaf_counts = (
        np.concatenate(parts) for parts in zip(*(tree for tree, _ in results))
    )
    sizes = [tree[0].size for tree, _ in results]
    nodes = ForestNodes(np.cumsum([0] + sizes[:-1]), feature, threshold, right, leaf_counts)
    seen = np.zeros(X.shape[0], dtype=bool)
    for _, chosen in results:
        seen[chosen] = True
    return nodes, float(seen.mean())


def train_arrays(X, y, class_order: Sequence, cfg: ForestConfig) -> ForestModel:
    """Train on a feature matrix and integer class codes (0..n_classes-1)."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyTrainingSet("training set is empty")
    if y.shape != (X.shape[0],):
        raise DimensionMismatch(f"labels shape {y.shape} does not match {X.shape[0]} samples")
    n_classes = len(class_order)
    if y.min() < 0 or y.max() >= n_classes:
        raise DimensionMismatch("label codes must index class_order")
    counts = np.bincount(y, minlength=n_classes)
    if (counts > 0).sum() < 2:
        raise EmptyTrainingSet("training needs samples from at least 2 classes")
    nodes, coverage = _fit_trees(X, y, n_classes, cfg)
    digest = TrainingDigest(
        class_counts=tuple(int(c) for c in counts),
        rng_seed=cfg.rng_seed,
        bootstrap_coverage=coverage,
    )
    return ForestModel(
        config=cfg,
        nodes=nodes,
        feature_dim=X.shape[1],
        class_order=tuple(class_order),
        training_digest=digest,
    )


def train(
    samples: Sequence[tuple[FeatureVector, GazeRegion]], cfg: ForestConfig
) -> ForestModel:
    """Train a six-region model from (feature vector, region) pairs."""
    if len(samples) == 0:
        raise EmptyTrainingSet("training set is empty")
    dims = {fv.dim for fv, _ in samples}
    if len(dims) != 1:
        raise DimensionMismatch(f"mixed feature dimensions in training set: {sorted(dims)}")
    X = np.stack([fv.as_array() for fv, _ in samples])
    y = np.array([region_index(label) for _, label in samples], dtype=np.int64)
    return train_arrays(X, y, REGIONS, cfg)


# ---------------------------------------------------------------------------
# Prediction
# ---------------------------------------------------------------------------

# (row, tree) pairs walked together: bounds the memory of one prediction
# chunk (about 70 bytes per pair at its peak), whatever the number of rows.
_PAIR_BUDGET = 1 << 18


def _leaf_nodes(nodes: ForestNodes, X: np.ndarray) -> np.ndarray:
    """Leaf that each (row, tree) pair reaches, shape (rows, trees).

    All pairs descend one level per step; a pair leaves the working set when
    it reaches a leaf, so each step costs only the pairs still walking.
    Pairs are ordered tree by tree, so neighbouring pairs read the same
    tree's nodes.
    """
    n_rows, dim = X.shape
    flat = X.ravel()
    node = np.repeat(nodes.roots, n_rows)  # pair p: tree p // n_rows, row p % n_rows
    row_start = np.tile(np.arange(0, n_rows * dim, dim), nodes.n_trees)
    pair = np.arange(node.size)
    leaf = np.empty(node.size, dtype=np.intp)
    while node.size:
        feat = nodes.feature[node]
        done = feat == LEAF
        if done.any():
            leaf[pair[done]] = node[done]
            walking = ~done
            node, feat, row_start, pair = (
                node[walking], feat[walking], row_start[walking], pair[walking]
            )
        go_left = flat[row_start + feat] <= nodes.threshold[node]
        node = np.where(go_left, node + 1, nodes.right_node[node])
    return np.ascontiguousarray(leaf.reshape(nodes.n_trees, n_rows).T)


def predict_proba_batch(model: ForestModel, X) -> np.ndarray:
    """Mean leaf class fractions across trees for each row of ``X``."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.feature_dim:
        raise DimensionMismatch(
            f"query shape {X.shape} does not match feature_dim {model.feature_dim}"
        )
    nodes = model.packed()
    step = max(1, _PAIR_BUDGET // nodes.n_trees)
    probs = np.empty((X.shape[0], nodes.fractions.shape[1]))
    for start in range(0, X.shape[0], step):
        leaves = _leaf_nodes(nodes, X[start : start + step])
        probs[start : start + step] = nodes.fractions[leaves].mean(axis=1)
    return probs


def predict_proba(model: ForestModel, x) -> np.ndarray:
    """Class probability vector for a single feature vector."""
    arr = np.asarray(x, dtype=np.float64).ravel()
    if arr.shape[0] != model.feature_dim:
        raise DimensionMismatch(
            f"query dim {arr.shape[0]} does not match feature_dim {model.feature_dim}"
        )
    return predict_proba_batch(model, arr[None, :])[0]


# ---------------------------------------------------------------------------
# Class balancing
# ---------------------------------------------------------------------------

def _grouped_indices(labels: np.ndarray, n_classes: int) -> list[np.ndarray]:
    groups = [np.nonzero(labels == c)[0] for c in range(n_classes)]
    for code, group in enumerate(groups):
        if group.size == 0:
            raise EmptyClass(f"class {code} has no samples to balance")
    return groups


def subsample_indices(labels, n_classes: int, rng: np.random.Generator) -> np.ndarray:
    """Indices reducing every class to the minority-class count."""
    labels = np.asarray(labels)
    groups = _grouped_indices(labels, n_classes)
    target = min(group.size for group in groups)
    return np.concatenate([rng.choice(g, size=target, replace=False) for g in groups])


def supersample_indices(labels, n_classes: int, rng: np.random.Generator) -> np.ndarray:
    """Indices raising every class to the majority-class count.

    Each class keeps all of its samples and tops up with uniform draws with
    replacement.
    """
    labels = np.asarray(labels)
    groups = _grouped_indices(labels, n_classes)
    target = max(group.size for group in groups)
    parts = []
    for group in groups:
        if group.size == target:
            parts.append(group)
        else:
            extra = rng.choice(group, size=target - group.size, replace=True)
            parts.append(np.concatenate([group, extra]))
    return np.concatenate(parts)


def _pairs_to_labels(samples) -> np.ndarray:
    return np.array([region_index(label) for _, label in samples], dtype=np.int64)


def subsample_balance(samples: Sequence, seed: int) -> list:
    """Balance (sample, region) pairs down to the minority-class count."""
    rng = np.random.default_rng(seed & _SEED_MASK)
    chosen = subsample_indices(_pairs_to_labels(samples), len(REGIONS), rng)
    return [samples[i] for i in chosen]


def supersample_balance(samples: Sequence, seed: int) -> list:
    """Balance (sample, region) pairs up to the majority-class count."""
    rng = np.random.default_rng(seed & _SEED_MASK)
    chosen = supersample_indices(_pairs_to_labels(samples), len(REGIONS), rng)
    return [samples[i] for i in chosen]


def derive_seed(*parts: int) -> int:
    """Mix integers into one 64-bit seed, stably across platforms."""
    state = np.random.SeedSequence([p & _SEED_MASK for p in parts]).generate_state(2)
    return int(state[0]) | (int(state[1]) << 32)


def reseeded(cfg: ForestConfig, *parts: int) -> ForestConfig:
    """Copy of ``cfg`` with a seed derived from ``parts``."""
    return replace(cfg, rng_seed=derive_seed(*parts))
