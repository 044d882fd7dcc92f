"""Acceptance criteria for the full pipeline, one test per criterion.

Each test prints a single PASS/FAIL line (run with ``pytest -s`` to see them
live). The synthetic 20-subject population and the leave-one-subject-out
study are shared module fixtures because several criteria measure the same
world from different angles.
"""

import json
import math
import time

import numpy as np
import pytest

from gazekit import analysis, synth
from gazekit.cli import main as cli_main
from gazekit.core import NOSE_TIP_INDEX, REGIONS, GazeRegion, decide
from gazekit.features import FeatureMode, normalize_landmarks, normalize_pupil
from gazekit.forest import ForestConfig, predict_proba_batch, train_arrays
from gazekit.pipeline import PipelineConfig, classify_frame
from gazekit.pupil import PupilStatus, detect_pupil, morph_close, morph_open
from gazekit.synth import FACE_TEMPLATE, SubjectProfile, render_eye_crop

from oracles import cart_oracle, cart_oracle_predict, close_oracle, open_oracle, spearman_rho

ALPHAS = np.linspace(0.0, 1.0, 20)
POPULATION_SEED = 42
EVAL_FOREST = ForestConfig(n_trees=24, max_depth=10, min_samples_leaf=8)


def report(number: int, name: str, passed: bool, detail: str = ""):
    status = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[ACCEPTANCE] criterion {number:02d} {status} - {name}{suffix}", flush=True)
    assert passed, f"criterion {number} failed: {name}{suffix}"


@pytest.fixture(scope="module")
def population():
    """20 subjects spanning the owl-lizard spectrum, 120 frames per region."""
    t0 = time.perf_counter()
    frames = synth.population_frames(
        20, 120, seed=POPULATION_SEED, alphas=ALPHAS
    )
    ds = analysis.prepare_dataset(frames)
    return {"ds": ds, "seconds": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def study(population):
    """Leave-one-subject-out over the population, both modes.

    Threshold 1.0 scores accuracy over essentially all frames so the
    head-only degradation of lizards is visible; the pruning mechanism
    itself is criterion 7.
    """
    cfg = analysis.EvalConfig(
        repetitions=2,
        confidence_threshold=1.0,
        forest=EVAL_FOREST,
        seed=7,
        min_frames_per_region=120,
    )
    result = analysis.run_study(population["ds"], cfg)
    return {"study": result, "delta": analysis.accuracy_delta_report(result)}


def test_criterion_01_morphology_matches_bruteforce_oracle():
    rng = np.random.default_rng(101)
    t0 = time.perf_counter()
    checked = 0
    for i in range(200):
        h = int(rng.integers(8, 33))
        w = int(rng.integers(8, 33))
        img = (rng.random((h, w)) < rng.uniform(0.15, 0.7)).astype(np.uint8)
        window = 3 if i % 2 == 0 else 5
        assert np.array_equal(morph_open(img, window), open_oracle(img, window))
        assert np.array_equal(morph_close(img, window), close_oracle(img, window))
        checked += 1
    elapsed = time.perf_counter() - t0
    report(
        1,
        "morphology equals min/max-neighborhood oracle",
        checked == 200 and elapsed < 10.0,
        f"{checked} images, {elapsed:.1f}s",
    )


@pytest.mark.usefixtures("kernel")  # on both kernel paths
def test_criterion_02_single_tree_matches_exhaustive_cart():
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    instances = 0
    for i in range(50):
        n = int(rng.integers(8, 41))
        d = int(rng.integers(1, 5))
        n_classes = int(rng.integers(2, 5))
        if i % 3 == 0:
            X = rng.integers(0, 4, size=(n, d)).astype(float)  # heavy value ties
        else:
            X = np.round(rng.normal(size=(n, d)), int(rng.integers(0, 3)))
        y = rng.integers(0, n_classes, size=n)
        while len(np.unique(y)) < 2:
            y = rng.integers(0, n_classes, size=n)
        cfg = ForestConfig(
            n_trees=1,
            max_depth=10**6,
            features_per_split=d,
            min_samples_leaf=1,
            bootstrap=False,
            rng_seed=i,
        )
        model = train_arrays(X, y, tuple(range(n_classes)), cfg)
        oracle = cart_oracle(X, y, n_classes=n_classes, max_depth=10**6)
        probes = np.vstack([X, rng.normal(scale=2.0, size=(30, d))])
        got = predict_proba_batch(model, probes)
        for row, probe in zip(got, probes):
            assert row.tolist() == cart_oracle_predict(oracle, probe)
        instances += 1
    elapsed = time.perf_counter() - t0
    report(
        2,
        "unbagged tree equals exhaustive best-split oracle",
        instances == 50 and elapsed < 30.0,
        f"{instances} instances, {elapsed:.1f}s",
    )


def test_criterion_03_pupil_detection_accuracy():
    rng = np.random.default_rng(303)
    poly = np.array([[2, 16], [14, 3], [33, 3], [45, 16], [33, 29], [14, 29]], dtype=float)
    detected_close = 0
    detected = 0
    for _ in range(1000):
        radius = rng.uniform(3.0, 8.0)
        cx = rng.uniform(10 + radius, 37 - radius)
        cy = rng.uniform(4 + radius, 28 - radius)
        crop = render_eye_crop(
            48, 32, (cx, cy), radius, rng, noise_sigma=rng.uniform(0.0, 15.0)
        )
        result = detect_pupil(crop, poly)
        if result.status is PupilStatus.DETECTED:
            detected += 1
            if math.hypot(result.center[0] - cx, result.center[1] - cy) <= 2.0:
                detected_close += 1
    hit_rate = detected_close / detected if detected else 0.0

    closed_poly = np.array(
        [[2, 16], [14, 15.2], [33, 15.2], [45, 16], [33, 16.8], [14, 16.8]]
    )
    closed_ok = all(
        detect_pupil(
            render_eye_crop(48, 32, None, 0, rng, noise_sigma=10.0), closed_poly
        ).status
        is PupilStatus.EYE_CLOSED
        for _ in range(100)
    )
    # Blob-free means there is genuinely nothing dark to find: a uniform
    # bright crop. (Noise always creates a darkest-2% tail, and sufficiently
    # clustered noise is a real blob by the pipeline's own definition.)
    blank_ok = all(
        detect_pupil(render_eye_crop(48, 32, None, 0, rng), poly).status
        is PupilStatus.NO_BLOB
        for _ in range(100)
    )
    report(
        3,
        "rendered pupils localized within 2 px; closed/blank crops typed",
        detected >= 950 and hit_rate >= 0.95 and closed_ok and blank_ok,
        f"detected {detected}/1000, within 2px {hit_rate:.1%}",
    )


def _owlness_per_frame(heads, pupils_uv, backgrounds):
    """Owlness of each frame against its own background, through the
    prepared-array path (one subject per frame)."""
    ids = [f"f{i}" for i in range(len(heads))]
    subjects = {
        sid: analysis.PreparedSubject(
            sid, 1, np.zeros(1, dtype=np.int64), head[None], np.array([uv])
        )
        for sid, head, uv in zip(ids, heads, pupils_uv)
    }
    ds = analysis.PreparedDataset(subjects, total_records=len(ids))
    reports = analysis.owlness_from_prepared(ds, dict(zip(ids, backgrounds)))
    return [reports[sid].owlness for sid in ids]


def _head_with_nose(nose):
    head = np.zeros(136)
    head[2 * NOSE_TIP_INDEX : 2 * NOSE_TIP_INDEX + 2] = nose
    return head


def test_criterion_04_owlness_ranges_and_boundaries():
    rng = np.random.default_rng(404)
    root2 = math.sqrt(2.0)
    heads, pupils, backgrounds = [], [], []
    for _ in range(10_000):
        landmarks_pts = FACE_TEMPLATE + rng.uniform(-20, 20, size=(68, 2))
        head = normalize_landmarks(_as_landmarks(landmarks_pts))
        nose = analysis.nose_block(head[None])[0]
        width = rng.uniform(6, 40)
        height = rng.uniform(2, 20)
        poly = np.array(
            [
                [0, 0],
                [width * 0.3, -height / 2],
                [width * 0.7, -height / 2],
                [width, 0],
                [width * 0.7, height / 2],
                [width * 0.3, height / 2],
            ]
        )
        angle = rng.uniform(-math.pi, math.pi)
        rot = np.array(
            [[math.cos(angle), -math.sin(angle)], [math.sin(angle), math.cos(angle)]]
        )
        poly = poly @ rot.T + rng.uniform(-50, 50, size=2)
        pupil = normalize_pupil(rng.uniform(-60, 60, size=2), poly)
        mean_nose = tuple(rng.uniform(0, 1, size=2))
        mean_pupil = tuple(rng.uniform(0, 1, size=2))
        d_head = math.hypot(*(nose - mean_nose))
        d_pupil = math.hypot(*(pupil - mean_pupil))
        assert 0.0 <= d_head <= root2 + 1e-12
        assert 0.0 <= d_pupil <= root2 + 1e-12
        heads.append(head)
        pupils.append(pupil)
        backgrounds.append((mean_nose, mean_pupil))
    owlness = _owlness_per_frame(heads, pupils, backgrounds)
    assert all(0.0 <= m <= 1.0 for m in owlness)
    worst_m = (min(owlness), max(owlness))
    bg = ((0.25, 0.5), (0.75, 0.25))
    pure_lizard, pure_owl = _owlness_per_frame(
        [_head_with_nose((0.25, 0.5)), _head_with_nose((0.9, 0.1))],
        [(0.1, 0.9), (0.75, 0.25)],
        [bg, bg],
    )
    report(
        4,
        "owlness in [0,1], distances in [0,sqrt(2)], exact boundaries",
        pure_lizard == 0.0 and pure_owl == 1.0,
        f"10000 fuzzed frames, m range [{worst_m[0]:.3f}, {worst_m[1]:.3f}]",
    )


def _as_landmarks(points):
    from gazekit.core import Landmarks

    return Landmarks(points)


def test_criterion_05_owlness_tracks_head_gain(population):
    t0 = time.perf_counter()
    reports = analysis.owlness_from_prepared(population["ds"])
    measured = [reports[sid].owlness for sid in population["ds"].subject_ids()]
    rho = spearman_rho(ALPHAS, measured)
    elapsed = population["seconds"] + (time.perf_counter() - t0)
    report(
        5,
        "measured owlness monotone in head gain",
        rho > 0.9 and elapsed < 300.0,
        f"spearman rho {rho:.3f}, span [{min(measured):.2f}, {max(measured):.2f}], {elapsed:.0f}s",
    )


def test_criterion_06_eye_pose_gain_anticorrelates_with_owlness(study):
    delta = study["delta"]
    owlness = study["study"].owlness
    lizard = [d for sid, _, d in delta.per_user if owlness[sid].strategy is analysis.Strategy.LIZARD]
    owl = [d for sid, _, d in delta.per_user if owlness[sid].strategy is analysis.Strategy.OWL]
    lizard_mean = float(np.mean(lizard))
    owl_mean = float(np.mean(owl))
    ok = (
        delta.pearson_defined
        and delta.pearson_r < -0.6
        and len(lizard) > 0
        and lizard_mean > 0.0
        and len(owl) > 0
        and abs(owl_mean) <= 0.02
    )
    report(
        6,
        "lizards gain from eye pose, owls do not",
        ok,
        f"r {delta.pearson_r:.3f}, lizard mean {lizard_mean:+.3f} (n={len(lizard)}), "
        f"owl mean {owl_mean:+.3f} (n={len(owl)})",
    )


def test_criterion_07_pruning_monotonicity(population):
    ds = population["ds"]
    subject_ids = ds.subject_ids()
    train_ids = subject_ids[::2]
    test_ids = [sid for sid in subject_ids if sid not in train_ids]
    X, labels = ds.pupil_pool(FeatureMode.HEAD_AND_EYE, train_ids)
    model = train_arrays(
        X, labels, REGIONS, ForestConfig(n_trees=30, max_depth=10, min_samples_leaf=8, rng_seed=3)
    )
    queries, truth = ds.pupil_pool(FeatureMode.HEAD_AND_EYE, test_ids)
    probs = predict_proba_batch(model, queries)
    predicted, confidence, _ = decide(probs, 1.0)

    accepted_counts = []
    accuracies = []
    for threshold in (1.0, 2.0, 5.0, 10.0, 20.0):
        keep = confidence > threshold
        accepted_counts.append(int(keep.sum()))
        accuracies.append(
            float((predicted[keep] == truth[keep]).mean()) if keep.any() else math.nan
        )
    counts_monotone = all(a >= b for a, b in zip(accepted_counts, accepted_counts[1:]))
    defined = [a for a in accuracies if not math.isnan(a)]
    accuracy_monotone = all(a <= b + 1e-12 for a, b in zip(defined, defined[1:]))
    report(
        7,
        "raising the confidence threshold prunes more and scores better",
        counts_monotone and accuracy_monotone and accepted_counts[0] > 0,
        f"accepted {accepted_counts}, accuracy "
        + str([None if math.isnan(a) else round(a, 4) for a in accuracies]),
    )


def test_criterion_08_attrition_ledger_shape():
    frames = synth.population_frames(
        70,
        120,
        seed=808,
        p_face_fail=0.206,
        p_pupil_fail=0.224,
    )
    ds = analysis.prepare_dataset(frames)
    total = ds.total_records
    faces_frac = ds.faces / total
    pupils_frac = ds.pupils / total
    ok = (
        total >= 50_000
        and abs(faces_frac - 0.794) <= 0.01
        and abs(pupils_frac - 0.616) <= 0.01
    )
    report(
        8,
        "dropout rates reproduce the face/pupil attrition profile",
        ok,
        f"{total} frames: faces {faces_frac:.1%} (target 79.4%), "
        f"pupils {pupils_frac:.1%} (target 61.6%)",
    )


@pytest.mark.usefixtures("kernel")  # on both kernel paths
def test_criterion_09_throughput_with_full_size_forest():
    train_frames = list(
        synth.population_frames(2, 120, seed=909, alphas=[0.3, 0.7])
    )
    ds = analysis.prepare_dataset(train_frames)
    X, labels = ds.pupil_pool(FeatureMode.HEAD_AND_EYE)
    model = train_arrays(
        X, labels, REGIONS, ForestConfig(n_trees=2000, max_depth=25, rng_seed=11)
    )
    model.packed()  # one-time cost, not part of the per-frame budget

    profile = SubjectProfile("bench", head_gain=0.5, landmark_jitter=0.0, image_noise=0.0)
    rng = np.random.default_rng(12)
    bench_frames = [
        synth.generate_frame(profile, region, i, rng)
        for i, region in enumerate(list(GazeRegion) * 25)
    ]
    crop = bench_frames[0].record.eye_crop
    assert (crop.width, crop.height) == (40, 24)

    cfg = PipelineConfig(mode=FeatureMode.HEAD_AND_EYE, confidence_threshold=10.0)
    t0 = time.perf_counter()
    for frame in bench_frames:
        classify_frame(frame.record, model, cfg)
    elapsed = time.perf_counter() - t0
    fps = len(bench_frames) / elapsed
    report(
        9,
        "end-to-end classification sustains 30 fps single-threaded",
        fps >= 30.0,
        f"{fps:.0f} fps over {len(bench_frames)} frames, 2000 trees",
    )


def test_criterion_10_evaluate_is_byte_deterministic(tmp_path):
    data_dir = tmp_path / "data"
    assert (
        cli_main(
            [
                "synth",
                "--subjects", "2",
                "--frames-per-region", "120",
                "--seed", "31",
                "--alphas", "0.25,0.75",
                "--out", str(data_dir),
            ]
        )
        == 0
    )
    outputs = []
    for run in ("a", "b"):
        out_dir = tmp_path / run
        code = cli_main(
            [
                "evaluate",
                "--data", str(data_dir),
                "--out", str(out_dir),
                "--trees", "10",
                "--depth", "7",
                "--repetitions", "2",
                "--seed", "5",
                "--confidence-threshold", "2",
            ]
        )
        assert code == 0
        outputs.append(
            {
                p.relative_to(out_dir).as_posix(): p.read_bytes()
                for p in sorted(out_dir.rglob("*"))
                if p.is_file()
            }
        )
    # The provenance config embeds the output path, which differs between the
    # two runs by construction; every table must match byte for byte.
    configs = [json.loads(o.pop("resolved_config.json")) for o in outputs]
    for cfg in configs:
        cfg.pop("out")
    identical = outputs[0] == outputs[1] and configs[0] == configs[1]
    report(
        10,
        "identical seeds produce byte-identical report tables",
        identical and len(outputs[0]) >= 8,
        f"{len(outputs[0])} report files compared",
    )
    summary = json.loads(outputs[0]["summary.json"])
    assert "overall_delta" in summary
