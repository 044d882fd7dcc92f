"""The compiled forest kernels against the numpy path, and the fallback to
numpy when the kernels cannot be built or loaded."""

import itertools
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gazekit
from gazekit import forest
from gazekit.dataio import model_bytes, write_dataset
from gazekit.forest import ForestConfig, predict_proba_batch, train_arrays
from gazekit.synth import SubjectProfile, iter_subject_frames

SRC = str(Path(gazekit.__file__).resolve().parents[1])
WARNING = "C kernels unavailable"


def _on_both_paths(compiled, X, y, n_classes, cfg, queries):
    """Model bytes and probabilities on the compiled path, then on numpy."""
    results = []
    for handle in (compiled, None):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(forest, "_kernel", handle)
            model = train_arrays(X, y, tuple(range(n_classes)), cfg)
            results.append((model_bytes(model), [predict_proba_batch(model, q) for q in queries]))
    return results


def _assert_identical(compiled, numpy_path):
    assert compiled[0] == numpy_path[0]
    for got, want in zip(compiled[1], numpy_path[1]):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


_VALUE = st.one_of(
    st.sampled_from([np.nan, -0.0, 0.0, 1.0, -1.5, 2.25, 1.7e308, -1.7e308]),  # ties, overflow
    st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False),
)


@st.composite
def _problem(draw):
    n = draw(st.integers(2, 80))
    d = draw(st.integers(1, 5))
    n_classes = draw(st.integers(2, 6))
    rows = st.lists(st.lists(_VALUE, min_size=d, max_size=d), min_size=n, max_size=n)
    X = np.array(draw(rows), dtype=np.float64).reshape(n, d)
    labels = st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)
    y = np.array(draw(labels.filter(lambda v: len(set(v)) >= 2)))
    cfg = ForestConfig(
        n_trees=draw(st.integers(1, 7)),
        max_depth=draw(st.sampled_from([1, 2, 3, 5, 25])),
        features_per_split=draw(st.integers(1, d)),
        min_samples_leaf=draw(st.integers(1, 4)),
        bootstrap=draw(st.booleans()),
        rng_seed=draw(st.integers(0, 2**64 - 1)),
    )
    query_rows = st.lists(
        st.lists(_VALUE | st.sampled_from([np.inf, -np.inf]), min_size=d, max_size=d),
        max_size=12,
    )
    queries = np.array(draw(query_rows), dtype=np.float64).reshape(-1, d)
    return X, y, n_classes, cfg, [np.empty((0, d)), queries, X]


@settings(max_examples=200, deadline=None)
@given(problem=_problem())
def test_compiled_and_numpy_paths_are_bit_identical(compiled, problem):
    X, y, n_classes, cfg, queries = problem
    _assert_identical(*_on_both_paths(compiled, X, y, n_classes, cfg, queries))


@pytest.mark.parametrize("bootstrap", [True, False])
def test_paths_agree_when_ranks_need_two_sort_passes(compiled, bootstrap):
    # More than 256 distinct values per feature, so the radix sort runs on
    # two bytes of the ranks, with NaN and heavy ties in some features.
    rng = np.random.default_rng(11)
    X = rng.normal(size=(700, 4))
    X[:, 1] = np.round(X[:, 1], 1)
    X[rng.random(X.shape) < 0.05] = np.nan
    y = rng.integers(0, 6, size=700)
    cfg = ForestConfig(
        n_trees=3, max_depth=25, features_per_split=2, bootstrap=bootstrap, rng_seed=4
    )
    queries = [rng.normal(size=(50, 4)), X]
    _assert_identical(*_on_both_paths(compiled, X, y, 6, cfg, queries))


def test_kernel_source_compiles_without_warnings():
    compiler = shutil.which(forest._COMPILER)
    if compiler is None:
        pytest.skip(f"no C compiler: {forest._COMPILER!r} is not on PATH")
    flags = ["-std=c99", "-Wall", "-Wextra", "-pedantic", "-Werror", "-fsyntax-only"]
    proc = subprocess.run(
        [compiler, *flags, str(forest._SOURCE)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


# ---------------------------------------------------------------------------
# Fallback
# ---------------------------------------------------------------------------

_CLI = "import sys; from gazekit.cli import main; sys.exit(main(sys.argv[1:]))"


def _run_cli(argv, env):
    """``gazekit argv`` in its own process group; returns (exit code, stderr)
    after checking that no process of the group is left running."""
    proc = subprocess.Popen(
        [sys.executable, "-c", _CLI, *map(str, argv)],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        _, err = proc.communicate(timeout=300)
    finally:
        proc.kill()
        proc.wait()
    with pytest.raises(ProcessLookupError):
        os.killpg(proc.pid, 0)
    return proc.returncode, err


@pytest.fixture(scope="module")
def population(tmp_path_factory):
    root = tmp_path_factory.mktemp("fallback")
    frames = itertools.chain.from_iterable(
        iter_subject_frames(SubjectProfile(f"s{i}", head_gain=gain), 10, np.random.default_rng(i))
        for i, gain in enumerate((0.3, 0.8))
    )
    write_dataset(root / "data", frames)
    return root


def _train_and_classify(root, name, **env_changes):
    """Model and decision bytes of ``train`` (on a 2-process pool) and
    ``classify``, and the stderr of each."""
    env = dict(os.environ, PYTHONPATH=SRC, GZK_THREADS="2", **env_changes)
    model, decisions = root / f"{name}.gzkf", root / f"{name}.jsonl"
    train = ["train", "--data", root / "data", "--out", model, "--mode", "head-only",
             "--trees", "7", "--depth", "6", "--min-frames", "5", "--seed", "3"]
    classify = ["classify", "--model", model, "--data", root / "data", "--out", decisions]
    code, train_err = _run_cli(train, env)
    assert code == 0, train_err
    code, classify_err = _run_cli(classify, env)
    assert code == 0, classify_err
    return model.read_bytes(), decisions.read_bytes(), [train_err, classify_err]


def test_train_and_classify_fall_back_to_numpy_with_identical_outputs(compiled, population):
    cache = population / "cache"
    *reference, errors = _train_and_classify(population, "compiled", XDG_CACHE_HOME=str(cache))
    assert not any(WARNING in err for err in errors)
    (library,) = (cache / "gazekit").glob("kernels-*.so")

    empty = population / "empty-path"
    empty.mkdir()
    *outputs, errors = _train_and_classify(population, "no-compiler", PATH=str(empty),
                                           XDG_CACHE_HOME=str(population / "cache-unused"))
    assert outputs == reference
    assert not any(WARNING in err for err in errors)
    assert not (population / "cache-unused").exists()

    blocker = population / "not-a-directory"
    blocker.write_text("")
    *outputs, errors = _train_and_classify(population, "unwritable", XDG_CACHE_HOME=str(blocker))
    assert outputs == reference
    assert not any(WARNING in err for err in errors)

    library.write_bytes(b"not a shared object")
    *outputs, errors = _train_and_classify(population, "corrupt", XDG_CACHE_HOME=str(cache))
    assert outputs == reference
    assert [err.count(WARNING) for err in errors] == [1, 1]
    assert str(library) in errors[0]
