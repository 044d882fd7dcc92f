import math

import numpy as np
import pytest

from gazekit.analysis import (
    EvalConfig,
    InsufficientData,
    ModeMismatch,
    OwlnessReport,
    PreparedDataset,
    PreparedSubject,
    Strategy,
    accuracy_delta_report,
    classify_strategy,
    evaluate_user,
    nose_block,
    overall_accuracy,
    owlness_from_prepared,
    pearson,
    prepare_dataset,
    row_percentages,
    run_study,
)
from gazekit.core import NOSE_TIP_INDEX, GazeRegion
from gazekit.features import FeatureMode, normalize_landmarks, normalize_pupil
from gazekit.forest import ForestConfig
from gazekit.synth import SubjectProfile, generate_frame, iter_subject_frames


def _frame_with(nose_offset, pupil_offset, alpha=0.5, seed=0):
    profile = SubjectProfile("s", head_gain=alpha, landmark_jitter=0.0, image_noise=0.0)
    return generate_frame(profile, GazeRegion.LEFT, 0, np.random.default_rng(seed))


def _subject(sid, heads, pupils_uv):
    """Prepared arrays of pupil-passing frames with these head blocks and
    normalized pupils."""
    n = len(heads)
    return PreparedSubject(
        sid, n, np.zeros(n, dtype=np.int64), np.array(heads), np.array(pupils_uv)
    )


def _owlness_of(nose, pupil_uv, background):
    """Owlness, head and pupil distance of one frame through the prepared path."""
    head = np.zeros(136)
    head[2 * NOSE_TIP_INDEX : 2 * NOSE_TIP_INDEX + 2] = nose
    ds = PreparedDataset({"s": _subject("s", [head], [pupil_uv])}, total_records=1)
    report = owlness_from_prepared(ds, {"s": background})["s"]
    return report.owlness, report.mean_head_dist, report.mean_pupil_dist


def test_owlness_boundary_cases():
    bg = ((0.5, 0.5), (0.5, 0.5))
    assert _owlness_of((0.5, 0.5), (0.7, 0.5), bg)[0] == 0.0  # pure lizard
    assert _owlness_of((0.9, 0.5), (0.5, 0.5), bg)[0] == 1.0  # pure owl
    m, dh, dp = _owlness_of((0.6, 0.5), (0.4, 0.5), bg)
    assert m == pytest.approx(0.5) and dh == pytest.approx(dp)
    assert _owlness_of((0.5, 0.5), (0.5, 0.5), bg)[0] == 0.5  # motionless


def test_owlness_frame_end_to_end():
    ds = prepare_dataset([_frame_with(0, 0, alpha=1.0)])
    assert ds.pupils == 1
    assert owlness_from_prepared(ds)["s"].owlness == 0.5  # frame vs its own mean
    with pytest.raises(KeyError):
        owlness_from_prepared(ds, {})


def test_owlness_subject_mean_and_strategy():
    profile = SubjectProfile("s", head_gain=0.0, landmark_jitter=0.0, image_noise=0.0)
    rng = np.random.default_rng(1)
    frames = list(iter_subject_frames(profile, 4, rng))
    ds = prepare_dataset(frames)
    report = owlness_from_prepared(ds)["s"]
    assert report.strategy is Strategy.LIZARD
    assert report.owlness < 0.1  # pure eye motion
    assert report.frame_count == len(frames)


def test_classify_strategy_thresholds():
    assert classify_strategy(0.2) is Strategy.LIZARD
    assert classify_strategy(0.5) is Strategy.MIXED
    assert classify_strategy(0.8) is Strategy.OWL
    assert classify_strategy(0.45) is Strategy.MIXED  # boundaries fall to mixed
    assert classify_strategy(0.55) is Strategy.MIXED
    assert classify_strategy(0.5, thresholds=(0.1, 0.2)) is Strategy.OWL


def _crafted_frame(target_m, scale=0.2):
    """Frame whose normalized nose/pupil sit at exact distances from (0.5, 0.5).

    The eyes-and-nose box spans [0, 100]^2 so normalization divides by 100;
    the eye polygon's derotated box is x [10, 90], y [30, 70].
    """
    from gazekit.core import FrameRecord, GrayImage, Landmarks
    from gazekit.pupil import PupilParams, PupilResult, PupilStatus

    pts = np.full((68, 2), 50.0)
    pts[27] = (0.0, 0.0)
    pts[47] = (100.0, 100.0)
    pts[30] = (50.0 + target_m * scale * 100.0, 50.0)
    polygon = np.array([[10, 50], [30, 30], [70, 30], [90, 50], [70, 70], [30, 70]], dtype=float)
    pupil_u = 0.5 + (1.0 - target_m) * scale
    record = FrameRecord(
        subject_id="crafted",
        frame_index=0,
        landmarks=Landmarks(pts),
        eye_crop=GrayImage(np.zeros((101, 101), dtype=np.uint8)),
        eye_polygon=polygon,
        label=GazeRegion.ROAD,
    )
    pupil = PupilResult(
        PupilStatus.DETECTED,
        center=(10.0 + pupil_u * 80.0, 50.0),
        blob_area=20,
        blob_bbox=(5, 5),
        chosen_params=PupilParams(0.05, 1, 1),
    )
    return record, pupil


def test_owlness_subject_is_mean_of_per_frame_values():
    targets = [0.2, 0.4, 0.6]
    frames = [_crafted_frame(m) for m in targets]
    heads = [normalize_landmarks(record.landmarks) for record, _ in frames]
    uvs = [normalize_pupil(pupil.center, record.eye_polygon) for record, pupil in frames]
    background = ((0.5, 0.5), (0.5, 0.5))
    one_per_frame = PreparedDataset(
        {f"f{i}": _subject(f"f{i}", [heads[i]], [uvs[i]]) for i in range(3)}, total_records=3
    )
    per_frame = owlness_from_prepared(
        one_per_frame, {sid: background for sid in one_per_frame.subjects}
    )
    for i, target in enumerate(targets):
        assert per_frame[f"f{i}"].owlness == pytest.approx(target, abs=1e-12)
    ds = PreparedDataset({"crafted": _subject("crafted", heads, uvs)}, total_records=3)
    report = owlness_from_prepared(ds, {"crafted": background})["crafted"]
    assert report.owlness == pytest.approx(0.4, abs=1e-12)
    assert report.strategy is Strategy.LIZARD  # 0.4 < 0.45


def test_confusion_matrix_properties():
    counts = np.zeros((6, 6), dtype=np.int64)
    np.add.at(counts, ([0, 0, 1, 2], [0, 1, 1, 2]), 1)
    assert counts.sum() == 4
    assert overall_accuracy(counts) == pytest.approx(0.75)
    pct = row_percentages(counts)
    sums = np.nansum(pct, axis=1)
    assert sums[0] == pytest.approx(100.0)
    assert math.isnan(pct[5, 5])  # empty row
    per_region = np.diagonal(pct) / 100.0
    assert per_region[0] == pytest.approx(0.5)
    assert per_region[1] == pytest.approx(1.0)


def test_pearson_behaviour():
    r, defined = pearson([1, 2, 3, 4], [2, 4, 6, 8.5])
    assert defined and r > 0.99
    r, defined = pearson([1, 1, 1], [2, 3, 4])
    assert not defined and math.isnan(r)
    r, defined = pearson([0.1, 0.5, 0.9], [math.nan, 0.2, 0.3])  # a subject without a delta
    assert not defined and math.isnan(r)


def _population(
    n_subjects=2,
    frames_per_region=20,
    alphas=(0.5, 0.5),
    seed=0,
    landmark_jitter=0.0,
    image_noise=0.0,
):
    frames = []
    for idx in range(n_subjects):
        profile = SubjectProfile(
            f"u{idx}",
            head_gain=alphas[idx],
            landmark_jitter=landmark_jitter,
            image_noise=image_noise,
        )
        rng = np.random.default_rng((seed, idx))
        frames.extend(iter_subject_frames(profile, frames_per_region, rng))
    return frames


def test_two_subject_separable_world_is_perfect():
    frames = _population()
    ds = prepare_dataset(frames)
    cfg = EvalConfig(
        repetitions=2,
        forest=ForestConfig(n_trees=12, max_depth=8),
        seed=3,
        min_frames_per_region=20,
        confidence_threshold=1.0,
    )
    study = run_study(ds, cfg)
    for subject in study.subjects:
        for mode in cfg.modes:
            assert subject.mean(mode) == pytest.approx(1.0)
    delta = accuracy_delta_report(study)
    assert delta.overall_head_only == pytest.approx(1.0)
    assert delta.overall_head_eye == pytest.approx(1.0)
    # identical, perfect predictions: no variance in deltas, r undefined
    assert not delta.pearson_defined and math.isnan(delta.pearson_r)
    assert all(d == pytest.approx(0.0) for _, _, d in delta.per_user)
    ledger = study.ledger
    assert ledger.total_frames >= ledger.faces_detected >= ledger.pupils_detected
    assert ledger.pupils_detected >= ledger.confident_decisions


def test_insufficient_data_names_subject_and_region():
    frames = [
        f
        for f in _population(frames_per_region=20)
        if not (f.subject_id == "u1" and f.label is GazeRegion.LEFT and f.frame_index % 2)
    ]
    ds = prepare_dataset(frames)
    with pytest.raises(InsufficientData) as err:
        run_study(ds, EvalConfig(repetitions=1, min_frames_per_region=20))
    assert "u1" in str(err.value) and "left" in str(err.value)


def test_evaluate_user_needs_two_subjects():
    frames = [f for f in _population() if f.subject_id == "u0"]
    ds = prepare_dataset(frames)
    cfg = EvalConfig(repetitions=1, min_frames_per_region=20)
    with pytest.raises(InsufficientData):
        evaluate_user("u0", ds, cfg)


def test_delta_report_needs_both_modes():
    frames = _population()
    ds = prepare_dataset(frames)
    cfg = EvalConfig(
        modes=(FeatureMode.HEAD_ONLY,),
        repetitions=1,
        forest=ForestConfig(n_trees=5, max_depth=5),
        min_frames_per_region=20,
    )
    study = run_study(ds, cfg)
    with pytest.raises(ModeMismatch):
        accuracy_delta_report(study)


def test_study_is_seed_deterministic():
    frames = _population(frames_per_region=20, alphas=(0.3, 0.7), image_noise=5.0)
    ds = prepare_dataset(frames)
    cfg = EvalConfig(
        repetitions=2,
        forest=ForestConfig(n_trees=8, max_depth=6),
        seed=11,
        min_frames_per_region=20,
    )
    a = run_study(ds, cfg)
    b = run_study(ds, cfg)
    for sa, sb in zip(a.subjects, b.subjects):
        for mode in cfg.modes:
            assert np.array_equal(sa.accuracies[mode], sb.accuracies[mode], equal_nan=True)
    assert a.ledger == b.ledger


def test_prepared_dataset_counts_face_failures():
    profile = SubjectProfile("u0", head_gain=0.5, p_face_fail=1.0)
    rng = np.random.default_rng(0)
    frames = list(iter_subject_frames(profile, 2, rng))
    ds = prepare_dataset(frames)
    assert ds.total_records == 12
    assert ds.faces == 0
    assert ds.pupils == 0


def test_label_recoverability_across_identical_strategy_subjects():
    # noise-free twins: a model trained on one subject must transfer perfectly
    from gazekit.forest import ForestConfig as FC, predict_proba_batch, train_arrays
    from gazekit.core import REGIONS

    frames = _population(frames_per_region=6, alphas=(0.6, 0.6), seed=4)
    ds = prepare_dataset(frames)
    train_id, test_id = ds.subject_ids()
    X, y = ds.pupil_pool(FeatureMode.HEAD_AND_EYE, [train_id])
    model = train_arrays(X, y, REGIONS, FC(n_trees=10, max_depth=6, rng_seed=1))
    queries, truth = ds.pupil_pool(FeatureMode.HEAD_AND_EYE, [test_id])
    probs = predict_proba_batch(model, queries)
    assert np.array_equal(probs.argmax(axis=1), truth)


def test_background_means_follow_pupil_passing_frames():
    frames = _population(n_subjects=1, alphas=(0.0,), frames_per_region=5)
    ds = prepare_dataset(frames)
    reports = owlness_from_prepared(ds)
    assert reports["u0"].frame_count == ds.pupils
    subject = ds.subjects["u0"]
    means = (nose_block(subject.head).mean(axis=0), subject.pupil_uv.mean(axis=0))
    assert owlness_from_prepared(ds, {"u0": means}) == reports
    assert set(reports) == {"u0"}
    assert 0.0 <= reports["u0"].owlness <= 1.0
