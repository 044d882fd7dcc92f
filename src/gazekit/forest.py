"""Random-forest classifier built from first principles.

Trees are CART classifiers: Gini impurity, thresholds at midpoints between
consecutive sorted unique feature values (the lower value where the float
midpoint is not below the upper one), a uniformly sampled feature subset
per split, and growth until the depth cap, purity, or the leaf-size floor.
Split ties resolve to the lowest feature index then lowest threshold.
Prediction averages the leaf class fractions across trees.

Trees grow breadth-first (the presorted, level-wise CART of SPRINT, Shafer
et al. 1996): feature ranks are computed once per forest, each level finds
the best split of all its candidate nodes in one vectorized pass, and the
nodes are put in preorder at the end. A bootstrap sample is held as row
multiplicities, which split exactly as duplicated rows would.

Tree ``i`` draws from its own generator, seeded with (seed, i): first the
bootstrap sample, then the feature subsets, level by level, for the level's
candidate nodes in breadth-first order. Training is reproducible bit for bit.

Setting the ``GZK_THREADS`` environment variable above 1 trains trees in a
process pool; results are identical to a serial run because each tree depends
only on its derived seed and trees are collected in index order.

The two hot loops, the level split search (``_level_splits``) and the tree
walk of prediction (``_leaf_nodes``), also exist as the C kernels
``gzk_level_splits`` and ``gzk_predict`` in ``_kernels.c``, which
:mod:`gazekit._native` builds into ``$XDG_CACHE_HOME/gazekit/`` and loads on
first use. The kernels give bit-identical trees and probabilities. When they
are unavailable (no compiler, no writable cache directory, or a failed build
or load, which prints one warning on stderr), the numpy functions run instead.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import os
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from . import _native
from .core import GazekitError

__all__ = [
    "EmptyTrainingSet",
    "DimensionMismatch",
    "EmptyClass",
    "ForestConfig",
    "LEAF",
    "ForestNodes",
    "TrainingDigest",
    "ForestModel",
    "train_arrays",
    "predict_proba",
    "predict_proba_batch",
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
    counts of the training samples that reached them.
    """

    roots: np.ndarray        # (n_trees,) first node of each tree
    feature: np.ndarray      # (n_nodes,) int32, LEAF at leaves
    threshold: np.ndarray    # (n_nodes,) float64, 0 at leaves
    right: np.ndarray        # (n_nodes,) int32, within the tree; -1 at leaves
    leaf_counts: np.ndarray  # (n_leaves, n_classes) uint32, leaves in node order

    def __post_init__(self):
        object.__setattr__(self, "roots", np.asarray(self.roots, dtype=np.intp))

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


@dataclass(frozen=True)
class ForestModel:
    """A forest that can be walked: the constructor refuses node arrays that
    fail ``node_problem`` with a ValueError that names the fault."""

    config: ForestConfig
    nodes: ForestNodes
    feature_dim: int
    class_order: tuple
    training_digest: TrainingDigest
    # (n_nodes, n_classes) class fractions of each leaf, 0 at splits; derived.
    fractions: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        nodes = self.nodes
        if nodes.n_trees != self.config.n_trees:
            raise ValueError("tree count must match config.n_trees")
        problem = node_problem(
            nodes.roots, nodes.feature, nodes.threshold, nodes.right, nodes.leaf_counts,
            self.feature_dim,
        )
        if problem is not None:
            raise ValueError(problem)
        if nodes.leaf_counts.shape[1] != len(self.class_order):
            raise ValueError("leaf class counts do not match the class order")
        counts = nodes.leaf_counts
        fractions = np.zeros((nodes.feature.size, counts.shape[1]))
        fractions[nodes.feature == LEAF] = counts / counts.sum(axis=1, keepdims=True)
        object.__setattr__(self, "fractions", fractions)

    @property
    def n_classes(self) -> int:
        return len(self.class_order)

    def packed(self) -> ForestNodes:
        """The node arrays that prediction walks."""
        return self.nodes


def node_problem(roots, feature, threshold, right, leaf_counts, feature_dim) -> str | None:
    """The first structural fault of preorder node arrays, or None.

    Arrays that pass can be walked from each root to a leaf with class mass
    in at most tree-size steps, reading only inside the arrays: every tag is
    a feature index below ``feature_dim`` or LEAF, every split threshold is
    finite, and every right child lies after its parent and inside its tree.
    """
    n_nodes = feature.size
    if not (feature.shape == threshold.shape == right.shape == (n_nodes,)):
        return "node arrays of different lengths"
    sizes = np.diff(roots, append=n_nodes)
    if roots.size == 0 or roots[0] != 0 or (sizes <= 0).any():
        return "empty tree"
    if (feature < LEAF).any():
        return f"unknown node tag {int(feature.min())}"
    if (feature >= feature_dim).any():
        return f"split feature index {int(feature.max())} outside feature_dim {feature_dim}"
    is_split = feature != LEAF
    if not np.isfinite(threshold[is_split]).all():
        return "non-finite split threshold"
    position = np.arange(n_nodes) - np.repeat(roots, sizes)
    split_right = right[is_split]
    tree_size = np.repeat(sizes, sizes)[is_split]
    if ((split_right <= position[is_split]) | (split_right >= tree_size)).any():
        return "right child outside its tree or not after its parent"
    if leaf_counts.ndim != 2 or leaf_counts.shape[0] != n_nodes - int(is_split.sum()):
        return "leaf class counts do not match the leaves"
    if (leaf_counts.sum(axis=1) == 0).any():
        return "leaf with no class mass"
    return None


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

def _dense_ranks(X):
    """Per-feature dense ranks of ``X``, one row per feature: equal values
    share a rank.

    NaN ranks ``n``, above every value, and no boundary is taken below it:
    it goes right of every threshold, as a ``<=`` test sends it. Ranked a
    feature at a time, so no (n, d) temporaries exist beside the result,
    and the ranks of one feature lie together for the split search.
    """
    ranks = np.empty(X.shape[::-1], dtype=np.int32)
    for f in range(X.shape[1]):
        ranks[f] = np.unique(X[:, f], return_inverse=True)[1]
    ranks[np.isnan(X).T] = X.shape[0]
    return ranks


def _run_starts(ids):
    """Positions where a run of equal values of ``ids`` begins."""
    return np.flatnonzero(np.concatenate(([True], ids[1:] != ids[:-1])))


def _running(v, group, group_totals):
    """Sums of ``v`` over the rows of each group up to and including each
    row, where the groups are consecutive and their totals are known."""
    return np.cumsum(v) - (np.cumsum(group_totals) - group_totals)[group]


def _level_splits(counts, feats, rows, slot, data, weight, min_leaf):
    """Best split of every candidate node of one level, in one pass.

    ``counts`` (m, C) are the candidates' weighted class counts, ``feats``
    (m, k) their drawn features in ascending order, and row ``rows[i]`` is
    in candidate ``slot[i]``; ``data`` is (X, y, _dense_ranks(X)) and
    ``weight`` the rows' multiplicities. One argsort orders the rows of every
    (candidate, feature) pair by rank; running sums over each pair then give
    n_left, sum(left_counts^2) and sum(right_counts^2) at every boundary
    between two ranks. The quality sum(left_counts^2)/n_left +
    sum(right_counts^2)/n_right orders splits as weighted Gini does and is
    one float64 division of exact integers. The first best boundary in
    (candidate, feature, rank) order wins: lowest feature, then lowest
    threshold.

    Returns the candidates that split, and their features and thresholds.
    """
    X, y, ranks = data
    k = feats.shape[1]
    n_classes = counts.shape[1]
    pair = (slot[:, None] * k + np.arange(k)).ravel()
    row = np.repeat(rows, k)
    rank = ranks.ravel()[feats.ravel()[pair] * X.shape[0] + row]
    n_ranks = X.shape[0] + 1  # NaN included
    order = np.argsort(pair * n_ranks + rank)
    pair, row, rank = pair[order], row[order], rank[order]
    label, w = y[row], weight[row]
    node = pair // k
    # Every pair holds all rows of its candidate, so its class counts are
    # the candidate's.
    pair_counts = np.repeat(counts, k, axis=0)
    pair_sq = np.repeat((counts * counts).sum(axis=1), k)

    # Weight of each row's class ahead of it in its pair: one running sum
    # over the rows taken class by class (a stable sort keeps rank order).
    by_class = np.argsort(label.astype(np.min_scalar_type(n_classes)), kind="stable")
    w_by_class = w[by_class]
    ahead = np.empty_like(w)
    ahead[by_class] = _running(
        w_by_class, (label * pair_counts.shape[0] + pair)[by_class], pair_counts.T.ravel()
    ) - w_by_class
    n_left = _running(w, pair, pair_counts.sum(axis=1))
    sq_left = _running(w * (2 * ahead + w), pair, pair_sq)
    cross = _running(w * pair_counts.ravel()[pair * n_classes + label], pair, pair_sq)
    n_right = counts.sum(axis=1)[node] - n_left
    sq_right = pair_sq[pair] - 2 * cross + sq_left

    # A boundary sits between positions i and i + 1 of one pair.
    upper = rank[1:]
    at = np.flatnonzero(
        (pair[1:] == pair[:-1]) & (upper > rank[:-1]) & (upper < n_ranks - 1)
        & (n_left[:-1] >= min_leaf) & (n_right[:-1] >= min_leaf)
    )
    if not at.size:
        return at, feats[:0, 0], X[:0, 0]
    node, n_left, n_right = node[at], n_left[at], n_right[at]
    quality = (sq_left[at] * n_right + sq_right[at] * n_left) / (n_left * n_right)
    seg = _run_starts(node)
    best = np.maximum.reduceat(quality, seg)
    tied = np.flatnonzero(quality == np.repeat(best, np.diff(seg, append=at.size)))
    win = tied[_run_starts(node[tied])]
    node, at = node[win], at[win]
    feature = feats[node, pair[at] % k]
    # Both rows hold numbers (NaN is never a boundary's upper side); equal
    # ranks mean equal values, and 0.0 and -0.0 give the same midpoint.
    low, high = X[row[at], feature], X[row[at + 1], feature]
    with np.errstate(over="ignore"):
        threshold = (low + high) * 0.5
    # Between adjacent doubles the midpoint can round up to the upper value,
    # and near the float64 limits it overflows; the lower value then
    # separates the two ranks as the split search counted them.
    threshold = np.where((low <= threshold) & (threshold < high), threshold, low)
    return node, feature, threshold


def _grow_tree(data, weight, n_classes, cfg: ForestConfig, rng: np.random.Generator):
    """Grow one tree breadth-first on the rows of positive ``weight``.

    Each level finds the best split of all its candidate nodes at once; the
    nodes are then laid out in preorder, as ForestNodes holds them.
    """
    X, y, _ = data
    kernel = _native.kernels()
    level_splits = _level_splits if kernel is None else kernel.level_splits
    d = X.shape[1]
    k = min(cfg.features_per_split or max(1, int(math.floor(math.sqrt(d)))), d)
    rows = np.flatnonzero(weight)
    node_of = np.zeros(rows.size, dtype=np.intp)  # node of each row within its level
    counts = np.bincount(y[rows], weight[rows], n_classes).astype(np.int64)[None]
    levels = []  # per level: (feature, threshold, counts) of its nodes
    for depth in itertools.count():
        m = counts.shape[0]
        n_node = counts.sum(axis=1)
        feature = np.full(m, LEAF, dtype=np.int32)
        threshold = np.zeros(m)
        candidate = (counts.max(axis=1) < n_node) & (n_node >= 2 * cfg.min_samples_leaf)
        if depth < cfg.max_depth and candidate.any():
            cand = np.flatnonzero(candidate)
            feats = np.sort(np.argsort(rng.random((cand.size, d)), axis=1)[:, :k], axis=1)
            in_cand = candidate[node_of]
            slot = (np.cumsum(candidate) - 1)[node_of[in_cand]]
            split, feature_at, threshold_at = level_splits(
                counts[cand], feats, rows[in_cand], slot, data, weight, cfg.min_samples_leaf
            )
            feature[cand[split]] = feature_at
            threshold[cand[split]] = threshold_at
        levels.append((feature, threshold, counts))
        is_split = feature != LEAF
        if not is_split.any():
            break
        keep = is_split[node_of]
        rows, node_of = rows[keep], node_of[keep]
        go_right = ~(X.ravel()[rows * d + feature[node_of]] <= threshold[node_of])
        node_of = 2 * (np.cumsum(is_split) - 1)[node_of] + go_right
        n_children = 2 * int(is_split.sum())
        counts = np.bincount(
            node_of * n_classes + y[rows], weight[rows], n_children * n_classes
        ).astype(np.int64).reshape(n_children, n_classes)
    return _preorder(levels)


def _preorder(levels):
    """Preorder node arrays of a tree given level by level, where the
    children of the i-th split node (breadth-first) are nodes 2i + 1 and
    2i + 2."""
    feature, threshold, counts = (np.concatenate(part) for part in zip(*levels))
    is_split = feature != LEAF
    left = np.full(feature.size, -1)
    left[is_split] = 1 + 2 * np.arange(np.count_nonzero(is_split))
    order, stack, left_of = [], [0], left.tolist()
    while stack:
        node = stack.pop()
        order.append(node)
        if left_of[node] >= 0:
            stack += (left_of[node] + 1, left_of[node])
    position = np.empty(feature.size, dtype=np.int32)
    position[order] = np.arange(feature.size)
    right = np.where(is_split, position[left + 1], -1)[order]
    return feature[order], threshold[order], right, counts[order][~is_split[order]].astype(np.uint32)


def _tree_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng((seed & _SEED_MASK, index))


_WORKER_STATE: dict = {}


def _train_one(index: int):
    data = _WORKER_STATE["data"]
    n_classes = _WORKER_STATE["n_classes"]
    cfg: ForestConfig = _WORKER_STATE["cfg"]
    rng = _tree_rng(cfg.rng_seed, index)
    n = data[0].shape[0]
    if cfg.bootstrap:
        # Row multiplicities: weighted counts split exactly as duplicated rows.
        weight = np.bincount(rng.integers(0, n, size=n), minlength=n)
    else:
        weight = np.ones(n, dtype=np.int64)
    return _grow_tree(data, weight, n_classes, cfg, rng), np.packbits(weight > 0)


def _fit_trees(X, y, n_classes, cfg: ForestConfig):
    global _WORKER_STATE
    _WORKER_STATE = {"data": (X, y, _dense_ranks(X)), "n_classes": n_classes, "cfg": cfg}
    _native.kernels()  # resolved once, before any worker forks
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
    seen = np.zeros_like(results[0][1])
    for _, chosen in results:
        seen |= chosen
    return nodes, float(np.unpackbits(seen, count=X.shape[0]).mean())


def train_arrays(X, y, class_order: Sequence, cfg: ForestConfig) -> ForestModel:
    """Train on a feature matrix and integer class codes (0..n_classes-1)."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.int64)
    if X.ndim != 2 or X.shape[0] == 0:
        raise EmptyTrainingSet("training set is empty")
    if y.shape != (X.shape[0],):
        raise DimensionMismatch(f"labels shape {y.shape} does not match {X.shape[0]} samples")
    if np.isinf(X).any():
        # A midpoint threshold next to an infinity sends every row one way.
        raise ValueError("training features must not be infinite")
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
    node = root = np.repeat(nodes.roots, n_rows)  # pair p: tree p // n_rows, row p % n_rows
    row_start = np.tile(np.arange(0, n_rows * dim, dim), nodes.n_trees)
    pair = np.arange(node.size)
    leaf = np.empty(node.size, dtype=np.intp)
    while node.size:
        feat = nodes.feature[node]
        done = feat == LEAF
        if done.any():
            leaf[pair[done]] = node[done]
            walking = ~done
            node, root, feat, row_start, pair = (
                node[walking], root[walking], feat[walking], row_start[walking], pair[walking]
            )
        go_left = flat[row_start + feat] <= nodes.threshold[node]
        node = np.where(go_left, node + 1, root + nodes.right[node])
    return np.ascontiguousarray(leaf.reshape(nodes.n_trees, n_rows).T)


def predict_proba_batch(model: ForestModel, X) -> np.ndarray:
    """Mean leaf class fractions across trees for each row of ``X``."""
    X = np.ascontiguousarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.feature_dim:
        raise DimensionMismatch(
            f"query shape {X.shape} does not match feature_dim {model.feature_dim}"
        )
    nodes, fractions = model.packed(), model.fractions
    kernel = _native.kernels()
    if kernel is not None:
        return kernel.predict(nodes, fractions, X)
    step = max(1, _PAIR_BUDGET // nodes.n_trees)
    probs = np.empty((X.shape[0], fractions.shape[1]))
    for start in range(0, X.shape[0], step):
        leaves = _leaf_nodes(nodes, X[start : start + step])
        probs[start : start + step] = fractions[leaves].mean(axis=1)
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


def derive_seed(*parts: int) -> int:
    """Mix integers into one 64-bit seed, stably across platforms."""
    state = np.random.SeedSequence([p & _SEED_MASK for p in parts]).generate_state(2)
    return int(state[0]) | (int(state[1]) << 32)


def reseeded(cfg: ForestConfig, *parts: int) -> ForestConfig:
    """Copy of ``cfg`` with a seed derived from ``parts``."""
    return replace(cfg, rng_seed=derive_seed(*parts))
