"""The compiled kernels (the forest's split search and walk, and the pupil
search) against the numpy path, and the fallback to numpy when the kernels
cannot be built or loaded."""

import itertools
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import gazekit
from gazekit import _native
from gazekit.dataio import model_bytes, write_dataset
from gazekit.forest import ForestConfig, predict_proba_batch, train_arrays
from gazekit.pupil import DEFAULT_GRID, ParamGrid, detect_pupil
from gazekit.synth import SubjectProfile, iter_subject_frames

from test_pupil import _maze, _serpentine

SRC = str(Path(gazekit.__file__).resolve().parents[1])
WARNING = "C kernels unavailable"


def _on_both_paths(compiled, X, y, n_classes, cfg, queries):
    """Model bytes and probabilities on the compiled path, then on numpy."""
    results = []
    for handle in (compiled, None):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_native, "_kernel", handle)
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


# ---------------------------------------------------------------------------
# Pupil search
# ---------------------------------------------------------------------------

WHOLE_CROP = ((0.0, 0.0, 1.0, 1.0), (0.0, 0.5, 1.0))  # a hexagon around the crop
WIDE_GRID = ParamGrid((0.03, 0.05, 0.10), (1, 3, 31), (1, 31, 2**64 + 1))


def _eye_crop(kind, height, width, density, seed):
    """Dark pupil-like pixels (0-59) on bright ones (100-255): a density of
    random dark pixels, or a maze or serpentine of them from test_pupil; or
    two equal dark squares."""
    rng = np.random.default_rng(seed)
    if kind == "twins":  # two equal squares: the first in raster order must win
        dark = np.zeros((height, width), dtype=bool)
        dark[2:8, 20:26] = dark[6:12, 4:10] = True
        return np.where(dark, 0, 200).astype(np.uint8)
    if kind == "maze":
        dark = _maze(rng, height, width) == 1
    elif kind == "serpentine":
        dark = _serpentine(height, width, 2) == 1
    else:
        dark = rng.random((height, width)) < density
    shape = (height, width)
    pixels = np.where(dark, rng.integers(0, 60, shape), rng.integers(100, 256, shape))
    return pixels.astype(np.uint8)


def _eye_polygon(height, width, fractions):
    """Six points of an eye-shaped hexagon, placed by fractions of the span
    from one pixel before the crop to one pixel past it."""
    (x0, x1, x2, x3), (y0, yc, y1) = (
        [-1 + f * (side + 1) for f in values] for values, side in zip(fractions, (width, height))
    )
    return np.array([[x0, yc], [x1, y0], [x2, y0], [x3, yc], [x2, y1], [x1, y1]])


@st.composite
def _pupil_case(draw):
    height, width = draw(st.integers(1, 256)), draw(st.integers(1, 256))
    side = max(height, width)
    fractions = (
        tuple(sorted(draw(st.lists(st.floats(0, 1), min_size=4, max_size=4)))),
        tuple(sorted(draw(st.lists(st.floats(0, 1), min_size=3, max_size=3)))),
    )
    # The numpy path's cost grows with the window, so windows wider than the
    # crop come only on small crops.
    window = st.integers(0, 15)
    if side <= 40:
        window |= st.integers(side, side + 4) | st.just(2**62)
    windows = st.lists(window.map(lambda r: 2 * r + 1), min_size=3, max_size=3, unique=True)
    thresholds = st.lists(st.floats(0.001, 0.999), min_size=3, max_size=3, unique=True)
    grid = ParamGrid(*(tuple(sorted(draw(values))) for values in (thresholds, windows, windows)))
    density, seed = draw(st.floats(0, 1)), draw(st.integers(0, 2**32 - 1))
    return "noise", height, width, density, seed, fractions, grid


@settings(max_examples=150, deadline=None)
@given(case=_pupil_case())
@example(case=("noise", 24, 40, 1.0, 1, WHOLE_CROP, DEFAULT_GRID))  # all dark
@example(case=("noise", 24, 40, 0.0, 2, WHOLE_CROP, DEFAULT_GRID))  # all bright
@example(case=("noise", 1, 41, 0.3, 3, WHOLE_CROP, DEFAULT_GRID))  # one row
@example(case=("noise", 3, 3, 0.5, 4, WHOLE_CROP, WIDE_GRID))  # windows past the crop
@example(case=("twins", 20, 40, 0.0, 0, WHOLE_CROP, DEFAULT_GRID))
@example(case=("maze", 255, 255, 0.0, 0, WHOLE_CROP, DEFAULT_GRID))
@example(case=("serpentine", 255, 255, 0.0, 0, WHOLE_CROP, DEFAULT_GRID))
def test_pupil_search_is_identical_on_both_paths(compiled, case):
    kind, height, width, density, seed, fractions, grid = case
    crop = _eye_crop(kind, height, width, density, seed)
    polygon = _eye_polygon(height, width, fractions)
    results = []
    for handle in (compiled, None):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_native, "_kernel", handle)
            results.append(detect_pupil(crop, polygon, grid))
    assert results[0] == results[1]
    assert repr(results[0]) == repr(results[1])  # tells -0.0 from 0.0


def test_pupil_search_makes_one_kernel_call_per_crop(compiled):
    calls = []

    class Counting:
        def pupil_search(self, *args):
            calls.append(args)
            return compiled.pupil_search(*args)

    crop = _eye_crop("noise", 24, 40, 0.2, 5)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_native, "_kernel", Counting())
        result = detect_pupil(crop, _eye_polygon(24, 40, WHOLE_CROP))
    assert len(calls) == 1
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(_native, "_kernel", None)
        assert detect_pupil(crop, _eye_polygon(24, 40, WHOLE_CROP)) == result


# tracemalloc cannot see the kernel's malloc, so the child reads its peak RSS.
_PUPIL_RSS = """
import resource
import numpy as np
from gazekit import _native
from gazekit.pupil import ParamGrid, PupilStatus, detect_pupil, polygon_mask

assert _native.kernels() is not None
side = 256  # the largest crop a dataset may hold
poly = np.array([[0, 128], [64, 0], [192, 0], [255, 128], [192, 255], [64, 255]], dtype=float)
rng = np.random.default_rng(8)
dark = polygon_mask(side, side, poly) & (rng.random((side, side)) < 0.9)
crop = np.where(dark, 10, 200).astype(np.uint8)
grid = ParamGrid((0.03, 0.05, 0.10), (1, 15, 31), (1, 15, 31))
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
result = detect_pupil(crop, poly, grid)
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
assert result.status is PupilStatus.DETECTED
print((after - before) * 1024)
"""


def test_compiled_pupil_search_memory_is_bounded_on_the_largest_crop(compiled):
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run([sys.executable, "-c", _PUPIL_RSS], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.splitlines()[-1]) < 32 * 2**20


def test_kernel_source_compiles_without_warnings():
    compiler = shutil.which(_native.COMPILER)
    if compiler is None:
        pytest.skip(f"no C compiler: {_native.COMPILER!r} is not on PATH")
    flags = ["-std=c99", "-Wall", "-Wextra", "-pedantic", "-Werror", "-fsyntax-only"]
    proc = subprocess.run(
        [compiler, *flags, str(_native.SOURCE)], capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr


# Every kernel on edge inputs, built with AddressSanitizer and
# UndefinedBehaviorSanitizer: any out-of-bounds access, leak, overflow or
# bad shift ends the run with a report and a non-zero exit.
_SANITIZED_PROGRAM = r"""
#include "_kernels.c"
#include <math.h>
#include <stdio.h>

static uint32_t state = 12345;
static double uniform(void)
{
    state = state * 1103515245u + 12345u;
    return (state >> 8) / 16777216.0;
}

static int search(int64_t h, int64_t w, double dark, int64_t window)
{
    double *image = malloc((size_t)(h * w) * sizeof *image);
    const double thresholds[3] = {0.03, 0.05, 0.10};
    const int64_t openings[3] = {1, 3, window}, closings[3] = {1, 5, window};
    int64_t best[4];
    double centroid[2];
    for (int64_t i = 0; i < h * w; i++)
        image[i] = uniform() < dark ? 0.0 : uniform();
    int found = gzk_pupil_search(h, w, image, thresholds, openings, closings, 5, 0.5,
                                 best, centroid);
    free(image);
    if (found < 0 || (found && (best[0] < 0 || best[0] > 26 || best[1] < 5)))
        return 1;
    return 0;
}

static int forest(void)
{
    enum { N = 40, D = 2, C = 3 };
    double X[N * D];
    int64_t y[N], weight[N], rows[N], slot[N], counts[2 * C] = {0};
    int32_t ranks[D * N];
    for (int64_t i = 0; i < N; i++) {
        X[i * D] = (double)((i * 7) % 11);
        X[i * D + 1] = i % 9 == 0 ? NAN : (double)((i * 5) % 13) / 4.0;
        y[i] = i % C;
        weight[i] = 1 + i % 2;
        rows[i] = i;
        slot[i] = i % 2;  /* two candidate nodes */
        counts[slot[i] * C + y[i]] += weight[i];
    }
    for (int64_t f = 0; f < D; f++)  /* dense ranks; NaN ranks N */
        for (int64_t i = 0; i < N; i++) {
            double v = X[i * D + f];
            int32_t rank = 0;
            for (int64_t j = 0; j < N && !isnan(v); j++) {
                double u = X[j * D + f];
                int earlier = 0;
                for (int64_t k = 0; k < j; k++)
                    earlier |= X[k * D + f] == u;
                rank += !isnan(u) && u < v && !earlier;
            }
            ranks[f * N + i] = isnan(v) ? N : rank;
        }
    const int64_t feats[4] = {0, 1, 1, 0};
    int64_t node[2], feature[2];
    double threshold[2];
    int64_t found = gzk_level_splits(N, D, C, X, y, ranks, weight, 2, 2, counts, feats, N,
                                     rows, slot, 1, node, feature, threshold);
    if (found < 1)
        return 1;
    /* A stump on the first split, and a tree whose right child leaves it. */
    const int64_t roots[2] = {0, 3};
    const int32_t tags[4] = {(int32_t)feature[0], -1, -1, -1};
    const int32_t right[4] = {2, -1, -1, -1};
    const double cuts[4] = {threshold[0], 0, 0, 0};
    const double fractions[4 * C] = {0, 0, 0, 1, 0, 0, 0, 0.5, 0.5, 0, 1, 0};
    double out[N * C] = {0};
    if (gzk_predict(N, D, X, 2, roots, 4, tags, cuts, right, C, fractions, out) != 0)
        return 1;
    const int32_t away[4] = {9, -1, -1, -1};
    double unused[N * C] = {0};
    return gzk_predict(N, D, X, 2, roots, 4, tags, cuts, away, C, fractions, unused) != -1;
}

int main(void)
{
    int failed = search(1, 1, 0.5, 5) | search(1, 256, 0.3, 31) | search(256, 1, 0.3, 31)
                 | search(256, 256, 0.4, 31) | search(3, 3, 0.6, 31) | search(3, 3, 0.6, 9999)
                 | forest();
    puts(failed ? "failed" : "ok");
    return failed;
}
"""


def test_kernels_are_memory_safe_under_sanitizers(tmp_path):
    compiler = shutil.which(_native.COMPILER)
    if compiler is None:
        pytest.skip(f"no C compiler: {_native.COMPILER!r} is not on PATH")
    flags = ["-std=c99", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all"]
    probe = tmp_path / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    build = subprocess.run([compiler, *flags, "-o", tmp_path / "probe", probe],
                           capture_output=True, text=True, timeout=120)
    if build.returncode != 0:
        pytest.skip(f"{compiler} cannot link the sanitizers: {build.stderr.strip()}")
    program = tmp_path / "kernels_check.c"
    program.write_text(_SANITIZED_PROGRAM)
    binary = tmp_path / "kernels_check"
    build = subprocess.run(
        [compiler, *flags, "-I", _native.SOURCE.parent, "-o", binary, program, "-lm"],
        capture_output=True, text=True, timeout=120,
    )
    assert build.returncode == 0, build.stderr
    run = subprocess.run([binary], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stdout + run.stderr
    assert run.stdout.strip() == "ok"


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


def _cli_outputs(root, **env_changes):
    """The bytes of every file that ``train`` (on a 2-process pool) and
    ``classify`` write for a head-only and a head-eye model, and that
    ``evaluate --mode both`` writes, by path; and the stderr of each command."""
    env = dict(os.environ, PYTHONPATH=SRC, GZK_THREADS="2", **env_changes)
    data, out = root / "data", root / "out"
    shutil.rmtree(out, ignore_errors=True)  # every run writes the same paths
    out.mkdir()
    forest_args = ["--trees", "7", "--depth", "6", "--min-frames", "5", "--seed", "3"]
    commands = []
    for mode in ("head-only", "head-eye"):
        model = out / f"{mode}.gzkf"
        commands += [
            ["train", "--data", data, "--out", model, "--mode", mode, *forest_args],
            ["classify", "--model", model, "--data", data, "--out", out / f"{mode}.jsonl"],
        ]
    commands.append(["evaluate", "--data", data, "--out", out / "reports", "--mode", "both",
                     "--repetitions", "1", *forest_args])
    errors = []
    for argv in commands:
        code, err = _run_cli(argv, env)
        assert code == 0, err
        errors.append(err)
    files = {str(p.relative_to(out)): p.read_bytes() for p in out.rglob("*") if p.is_file()}
    return files, errors


def test_train_and_classify_fall_back_to_numpy_with_identical_outputs(compiled, population):
    cache = population / "cache"
    reference, errors = _cli_outputs(population, XDG_CACHE_HOME=str(cache))
    assert not any(WARNING in err for err in errors)
    assert {"head-only.gzkf", "head-eye.jsonl", "reports/per_user.csv"} <= set(reference)
    (library,) = (cache / "gazekit").glob("kernels-*.so")

    empty = population / "empty-path"
    empty.mkdir()
    outputs, errors = _cli_outputs(population, PATH=str(empty),
                                   XDG_CACHE_HOME=str(population / "cache-unused"))
    assert outputs == reference
    assert not any(WARNING in err for err in errors)
    assert not (population / "cache-unused").exists()

    blocker = population / "not-a-directory"
    blocker.write_text("")
    outputs, errors = _cli_outputs(population, XDG_CACHE_HOME=str(blocker))
    assert outputs == reference
    assert not any(WARNING in err for err in errors)

    library.write_bytes(b"not a shared object")
    outputs, errors = _cli_outputs(population, XDG_CACHE_HOME=str(cache))
    assert outputs == reference
    assert [err.count(WARNING) for err in errors] == [1] * 5
    assert str(library) in errors[0]
