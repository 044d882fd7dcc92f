import dataclasses
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gazekit import forest
from gazekit.core import REGIONS
from gazekit.dataio import load_model, model_bytes
from gazekit.forest import (
    DimensionMismatch,
    EmptyClass,
    EmptyTrainingSet,
    LEAF,
    ForestConfig,
    ForestModel,
    ForestNodes,
    TrainingDigest,
    predict_proba,
    predict_proba_batch,
    subsample_indices,
    supersample_indices,
    train_arrays,
)

from oracles import cart_oracle, cart_oracle_predict, tree_predict_proba

pytestmark = pytest.mark.usefixtures("kernel")  # every test on both kernel paths


def _toy_classes(n_per=8, seed=0):
    rng = np.random.default_rng(seed)
    X = np.vstack(
        [
            rng.normal(0.0, 0.3, size=(n_per, 1)),
            rng.normal(10.5, 0.3, size=(n_per, 1)),
        ]
    )
    y = np.array([0] * n_per + [1] * n_per)
    return X, y


def test_separable_classes_train_to_perfect_accuracy():
    X, y = _toy_classes()
    model = train_arrays(X, y, REGIONS, ForestConfig(n_trees=20, max_depth=5, rng_seed=3))
    probs = predict_proba_batch(model, X)
    assert np.array_equal(probs.argmax(axis=1), y)


def test_single_unbagged_tree_matches_exhaustive_cart_oracle():
    rng = np.random.default_rng(17)
    X = rng.normal(size=(30, 3))
    y = rng.integers(0, 3, size=30)
    cfg = ForestConfig(
        n_trees=1, max_depth=10**6, features_per_split=3, bootstrap=False, rng_seed=5
    )
    model = train_arrays(X, y, ("a", "b", "c"), cfg)
    oracle = cart_oracle(X, y, n_classes=3, max_depth=10**6)
    queries = np.vstack([X, rng.normal(size=(40, 3))])
    for q in queries:
        assert predict_proba(model, q)[:3] == pytest.approx(cart_oracle_predict(oracle, q))


def _oracle_preorder(node, out):
    """(feature, threshold, leaf fractions) of an oracle tree, in preorder."""
    if node.fractions is not None:
        out.append((LEAF, 0.0, list(node.fractions)))
        return out
    out.append((node.feature, node.threshold, None))
    _oracle_preorder(node.left, out)
    return _oracle_preorder(node.right, out)


def _model_preorder(model, tree):
    nodes = model.nodes
    start = int(nodes.roots[tree])
    span = range(start, start + int(nodes.tree_sizes[tree]))
    return [
        (int(nodes.feature[i]), float(nodes.threshold[i]),
         model.fractions[i].tolist() if nodes.feature[i] == LEAF else None)
        for i in span
    ]


@st.composite
def _tie_heavy_problem(draw):
    n = draw(st.integers(2, 24))
    d = draw(st.integers(1, 3))
    n_classes = draw(st.integers(2, 4))
    values = st.sampled_from([-1.0, 0.0, 0.5, 1.0, 2.5])
    X = np.array(draw(st.lists(st.lists(values, min_size=d, max_size=d), min_size=n, max_size=n)))
    labels = st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)
    y = np.array(draw(labels.filter(lambda v: len(set(v)) >= 2)))
    return X, y, n_classes


def _split_problem(low, high):
    """Three rows at ``low`` of class 0, three at ``high`` of class 1."""
    return np.array([[low]] * 3 + [[high]] * 3), np.array([0, 0, 0, 1, 1, 1]), 2


@settings(max_examples=150, deadline=None)
@given(
    _tie_heavy_problem(),
    st.sampled_from([1, 2, 3, 4, 10**6]),
    st.sampled_from([1, 2, 3]),
    st.booleans(),
    st.integers(0, 2**31 - 1),
)
@example(  # the midpoint of two adjacent doubles rounds up to the upper one
    _split_problem(np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)),
    1, 1, False, 0,
)
@example(_split_problem(1.5e308, 1.7e308), 1, 1, False, 0)  # the midpoint overflows
@example(_split_problem(-1.7e308, -1.5e308), 1, 1, False, 0)
def test_level_wise_trees_equal_the_exhaustive_oracle(problem, max_depth, min_leaf, bootstrap, seed):
    """Unbagged trees equal the oracle on the data; bagged trees equal it on
    their own bootstrap sample, which the grower weighs instead of copying."""
    X, y, n_classes = problem
    n, d = X.shape
    cfg = ForestConfig(
        n_trees=3 if bootstrap else 1, max_depth=max_depth, features_per_split=d,
        min_samples_leaf=min_leaf, bootstrap=bootstrap, rng_seed=seed,
    )
    model = train_arrays(X, y, tuple(range(n_classes)), cfg)
    for tree in range(cfg.n_trees):
        rows = np.arange(n)
        if bootstrap:
            rows = forest._tree_rng(seed, tree).integers(0, n, size=n)
        oracle = cart_oracle(X[rows], y[rows], n_classes, max_depth, min_leaf)
        assert _model_preorder(model, tree) == _oracle_preorder(oracle, [])


def test_infinite_training_features_are_refused():
    X, y = _toy_classes()
    X[3, 0] = np.inf
    with pytest.raises(ValueError, match="infinite"):
        train_arrays(X, y, REGIONS, ForestConfig(n_trees=1))


@pytest.mark.parametrize(
    "low, high",
    [
        (np.nextafter(1.0, 2.0), np.nextafter(np.nextafter(1.0, 2.0), 2.0)),  # midpoint rounds up
        (-5e-324, -0.0),
        (1.5e308, 1.7e308),  # the midpoint overflows
        (-1.7e308, -1.5e308),
    ],
)
def test_split_between_adjacent_or_huge_values_separates_them(tmp_path, low, high):
    X = np.array([[low]] * 3 + [[high]] * 3)
    y = np.array([0, 0, 0, 1, 1, 1])
    model = train_arrays(X, y, ("a", "b"), ForestConfig(n_trees=1, bootstrap=False))
    threshold = model.nodes.threshold[0]
    assert model.nodes.feature[0] == 0 and low <= threshold < high
    assert np.array_equal(predict_proba_batch(model, X), np.eye(2)[y])
    path = tmp_path / "m.gzkf"
    path.write_bytes(model_bytes(model))
    assert model_bytes(load_model(path)) == model_bytes(model)


def test_training_is_deterministic_and_byte_identical():
    X, y = _toy_classes(n_per=12, seed=4)
    cfg = ForestConfig(n_trees=15, max_depth=6, rng_seed=99)
    first = train_arrays(X, y, REGIONS, cfg)
    second = train_arrays(X, y, REGIONS, cfg)
    assert model_bytes(first) == model_bytes(second)
    different = train_arrays(X, y, REGIONS, ForestConfig(n_trees=15, max_depth=6, rng_seed=100))
    assert model_bytes(different) != model_bytes(first)


def test_gzk_threads_does_not_change_the_model():
    if "fork" not in __import__("multiprocessing").get_all_start_methods():
        pytest.skip("fork start method unavailable")
    X, y = _toy_classes(n_per=10, seed=8)
    cfg = ForestConfig(n_trees=8, max_depth=5, rng_seed=12)
    serial = train_arrays(X, y, REGIONS, cfg)
    os.environ["GZK_THREADS"] = "2"
    try:
        parallel = train_arrays(X, y, REGIONS, cfg)
    finally:
        del os.environ["GZK_THREADS"]
    assert model_bytes(serial) == model_bytes(parallel)


def _manual_model(roots, feature, threshold, right, leaf_counts):
    cfg = ForestConfig(n_trees=len(roots), max_depth=5)
    nodes = ForestNodes(
        roots=np.array(roots),
        feature=np.array(feature, dtype=np.int32),
        threshold=np.array(threshold, dtype=np.float64),
        right=np.array(right, dtype=np.int32),
        leaf_counts=np.array(leaf_counts, dtype=np.uint32),
    )
    return ForestModel(
        config=cfg,
        nodes=nodes,
        feature_dim=2,
        class_order=REGIONS,
        training_digest=TrainingDigest((1,) * 6, 0, 1.0),
    )


def test_forest_model_is_frozen():
    model = _manual_model([0], [LEAF], [0.0], [-1], [[1, 0, 0, 0, 0, 0]])
    for field in dataclasses.fields(model):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, field.name, None)


def test_forest_model_refuses_leaf_counts_of_another_class_count():
    with pytest.raises(ValueError, match="leaf class counts do not match the class order"):
        _manual_model([0], [LEAF], [0.0], [-1], [[1, 2, 3]])


def test_predict_single_tree_passthrough():
    model = _manual_model([0], [LEAF], [0.0], [-1], [[1, 0, 0, 0, 0, 0]])
    assert predict_proba(model, [0.0, 0.0]) == pytest.approx([1, 0, 0, 0, 0, 0])


def test_predict_two_tree_mean():
    # tree a: split on x0 <= 0.5 into two leaves; tree b: a single leaf
    model = _manual_model(
        roots=[0, 3],
        feature=[0, LEAF, LEAF, LEAF],
        threshold=[0.5, 0.0, 0.0, 0.0],
        right=[2, -1, -1, -1],
        leaf_counts=[[1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1], [0, 1, 0, 0, 0, 0]],
    )
    assert predict_proba(model, [0.0, 0.0]) == pytest.approx([0.5, 0.5, 0, 0, 0, 0])
    assert predict_proba(model, [1.0, 0.0]) == pytest.approx([0, 0.5, 0, 0, 0, 0.5])


def test_nan_feature_goes_right():
    # NaN fails every <= comparison
    model = _manual_model([0], [0, LEAF, LEAF], [0.5, 0.0, 0.0], [2, -1, -1],
                          [[1, 0, 0, 0, 0, 0], [0, 0, 0, 0, 0, 1]])
    assert predict_proba(model, [np.nan, 0.0]) == pytest.approx([0, 0, 0, 0, 0, 1])


def test_packed_predictor_matches_tree_walk():
    rng = np.random.default_rng(2)
    X = rng.normal(size=(60, 4))
    y = rng.integers(0, 6, size=60)
    model = train_arrays(X, y, REGIONS, ForestConfig(n_trees=12, max_depth=7, rng_seed=1))
    queries = rng.normal(size=(25, 4))
    batched = predict_proba_batch(model, queries)
    for i, q in enumerate(queries):
        walked = np.mean(
            [tree_predict_proba(model.nodes, t, q) for t in range(model.config.n_trees)], axis=0
        )
        assert np.array_equal(batched[i], walked)


@pytest.mark.parametrize("budget", [1, 12, 30, 1000])
def test_prediction_chunks_do_not_change_results(monkeypatch, budget):
    rng = np.random.default_rng(6)
    X = rng.normal(size=(60, 4))
    y = rng.integers(0, 6, size=60)
    model = train_arrays(X, y, REGIONS, ForestConfig(n_trees=12, max_depth=7, rng_seed=3))
    queries = rng.normal(size=(41, 4))
    queries[3, 1] = np.nan
    whole = predict_proba_batch(model, queries)
    monkeypatch.setattr(forest, "_PAIR_BUDGET", budget)  # pairs per chunk
    assert np.array_equal(predict_proba_batch(model, queries), whole)
    assert np.array_equal(predict_proba(model, queries[3]), whole[3])


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**31 - 1))
def test_predictions_are_distributions(seed):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(20, 3))
    y = rng.integers(0, 4, size=20)
    model = train_arrays(X, y, REGIONS, ForestConfig(n_trees=5, max_depth=4, rng_seed=7))
    probs = predict_proba(model, rng.normal(size=3))
    assert np.all(probs >= 0.0)
    assert probs.sum() == pytest.approx(1.0, abs=1e-9)


def test_bootstrap_coverage_reported_and_high():
    rng = np.random.default_rng(5)
    X = rng.normal(size=(25, 2))
    y = rng.integers(0, 2, size=25)
    model = train_arrays(X, y, REGIONS, ForestConfig(n_trees=200, max_depth=3, rng_seed=0))
    assert model.training_digest.bootstrap_coverage >= 0.99
    few = train_arrays(X, y, REGIONS, ForestConfig(n_trees=1, max_depth=3, rng_seed=0))
    assert few.training_digest.bootstrap_coverage < 1.0


def test_training_memory_is_bounded_by_the_forest_not_the_bootstraps(monkeypatch):
    # Protocol-sized pool: 28,080 rows (40 subjects, one held out), 200 trees.
    monkeypatch.delenv("GZK_THREADS", raising=False)
    rng = np.random.default_rng(9)
    X = rng.normal(size=(28_080, 8))
    y = rng.integers(0, 6, size=28_080)
    tracemalloc.start()
    try:
        model = train_arrays(X, y, REGIONS, ForestConfig(n_trees=200, max_depth=2, rng_seed=4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert model.training_digest.bootstrap_coverage == 1.0
    assert peak < 16 * 2**20


def test_train_validations():
    with pytest.raises(EmptyTrainingSet):
        train_arrays(np.zeros((0, 2)), np.zeros(0, dtype=int), REGIONS, ForestConfig(n_trees=1))
    with pytest.raises(EmptyTrainingSet):
        train_arrays(np.zeros((5, 2)), np.zeros(5, dtype=int), REGIONS, ForestConfig(n_trees=1))
    with pytest.raises(DimensionMismatch):
        train_arrays(np.zeros((5, 2)), np.zeros(4, dtype=int), REGIONS, ForestConfig(n_trees=1))
    model = train_arrays(*_toy_classes(), REGIONS, ForestConfig(n_trees=2, rng_seed=0))
    with pytest.raises(DimensionMismatch):
        predict_proba(model, np.zeros(3))


def test_train_arrays_recovers_every_region():
    rng = np.random.default_rng(0)
    X = np.zeros((len(REGIONS) * 4, 136))
    y = np.repeat(np.arange(len(REGIONS)), 4)
    for row, code in enumerate(y):
        X[row, code] = 1.0 + rng.normal(0, 0.01)
    # Only 6 of the 136 features carry a signal and a split draws 11, so a
    # 30-tree forest learns every region for only some seeds; 100 trees
    # learn them for every seed tried (60 of 60).
    model = train_arrays(X, y, REGIONS, ForestConfig(n_trees=100, max_depth=8, rng_seed=2))
    assert model.feature_dim == 136
    assert model.class_order == REGIONS
    for i, region in enumerate(REGIONS):
        head = np.zeros(136)
        head[i] = 1.0
        assert REGIONS[int(np.argmax(predict_proba(model, head)))] is region


def test_subsample_balance_counts():
    rng = np.random.default_rng(1)
    labels = np.repeat(np.arange(6), [100, 20, 20, 20, 20, 20])
    chosen = subsample_indices(labels, 6, rng)
    assert chosen.size == 120
    assert np.all(np.bincount(labels[chosen], minlength=6) == 20)


def test_supersample_balance_counts():
    rng = np.random.default_rng(1)
    labels = np.repeat(np.arange(6), [100, 20, 20, 20, 20, 20])
    chosen = supersample_indices(labels, 6, rng)
    assert chosen.size == 600
    assert np.all(np.bincount(labels[chosen], minlength=6) == 100)
    # supersampling keeps every original sample
    for idx in np.nonzero(labels == 3)[0]:
        assert idx in chosen


def test_subsample_of_balanced_input_is_a_permutation():
    labels = np.repeat(np.arange(6), 5)
    chosen = subsample_indices(labels, 6, np.random.default_rng(42))
    assert sorted(chosen.tolist()) == list(range(labels.size))


def test_balance_is_seed_deterministic():
    labels = np.repeat(np.arange(6), [15, 5, 10, 10, 10, 10])
    for balance in (subsample_indices, supersample_indices):
        first = balance(labels, 6, np.random.default_rng(7))
        assert np.array_equal(first, balance(labels, 6, np.random.default_rng(7)))


def test_balance_empty_class():
    labels = np.array([0, 0, 1, 1])
    with pytest.raises(EmptyClass):
        subsample_indices(labels, 6, np.random.default_rng(0))
    with pytest.raises(EmptyClass):
        supersample_indices(labels, 6, np.random.default_rng(0))
