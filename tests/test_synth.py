import hashlib

import numpy as np
import pytest

from gazekit.analysis import owlness_from_prepared, prepare_dataset
from gazekit.core import REGIONS, GazeRegion, region_index
from gazekit.dataio import load_manifest
from gazekit.pupil import PupilStatus, detect_pupil
from gazekit.synth import (
    FACE_TEMPLATE,
    HEAD_MOTION_WEIGHTS,
    REGION_TARGETS,
    SubjectProfile,
    generate_frame,
    generate_population,
    iter_subject_frames,
    population_frames,
    population_profiles,
    render_eye_crop,
)


def _clean_profile(alpha, **kw):
    kw.setdefault("landmark_jitter", 0.0)
    kw.setdefault("image_noise", 0.0)
    return SubjectProfile("s0", head_gain=alpha, **kw)


def test_region_targets_validation():
    assert REGION_TARGETS.shape == (len(REGIONS), 2)
    assert REGION_TARGETS[region_index(GazeRegion.ROAD)] == pytest.approx((0.0, 0.0))
    assert len({tuple(row) for row in REGION_TARGETS.tolist()}) == len(REGIONS)
    assert not REGION_TARGETS.flags.writeable


def test_full_owl_keeps_pupil_centered():
    profile = _clean_profile(1.0)
    frame = generate_frame(profile, GazeRegion.LEFT, 0, np.random.default_rng(0))
    record = frame.record
    eye_center = (record.eye_polygon[0] + record.eye_polygon[3]) / 2.0
    assert frame.true_pupil == pytest.approx(tuple(eye_center))
    # landmarks displaced by exactly the weighted head shift
    g = REGION_TARGETS[region_index(GazeRegion.LEFT)]
    expected = FACE_TEMPLATE + HEAD_MOTION_WEIGHTS[:, None] * (profile.head_motion_px * g)
    assert np.allclose(record.landmarks.points, expected)


def test_full_lizard_keeps_landmarks_at_rest():
    profile = _clean_profile(0.0)
    road = generate_frame(profile, GazeRegion.ROAD, 0, np.random.default_rng(0))
    left = generate_frame(profile, GazeRegion.LEFT, 1, np.random.default_rng(1))
    assert np.array_equal(road.record.landmarks.points, left.record.landmarks.points)
    # pupil moved by the full displacement, in eye-gain units
    shift = np.asarray(left.true_pupil) - np.asarray(road.true_pupil)
    g = REGION_TARGETS[region_index(GazeRegion.LEFT)]
    assert shift[0] == pytest.approx(profile.head_motion_px * (30.0 / 94.0) * g[0])
    assert shift[1] == pytest.approx(profile.head_motion_px * (14.0 / 31.0) * g[1])


def test_mid_alpha_measures_mid_owlness():
    profile = _clean_profile(0.5)
    rng = np.random.default_rng(5)
    frames = list(iter_subject_frames(profile, 12, rng))
    reports = owlness_from_prepared(prepare_dataset(frames))
    assert reports["s0"].owlness == pytest.approx(0.5, abs=0.05)


def test_noise_free_crops_are_40_by_24():
    frame = generate_frame(_clean_profile(0.7), GazeRegion.RIGHT, 0, np.random.default_rng(2))
    crop = frame.record.eye_crop
    assert (crop.width, crop.height) == (40, 24)


def test_generated_polygon_is_inside_crop():
    profile = SubjectProfile("s0", head_gain=0.4, landmark_jitter=1.5, image_noise=10.0)
    rng = np.random.default_rng(9)
    for frame in iter_subject_frames(profile, 3, rng):
        record = frame.record
        assert record is not None  # constructor enforces polygon-in-bounds


def test_occlusion_flag_renders_closed_eye():
    profile = SubjectProfile("s0", head_gain=0.5, p_pupil_fail=1.0)
    frame = generate_frame(profile, GazeRegion.ROAD, 0, np.random.default_rng(4))
    assert frame.occluded and frame.true_pupil is None
    record = frame.record
    result = detect_pupil(record.eye_crop, record.eye_polygon)
    assert result.status is PupilStatus.EYE_CLOSED


def test_face_fail_emits_no_record():
    profile = SubjectProfile("s0", head_gain=0.5, p_face_fail=1.0)
    frame = generate_frame(profile, GazeRegion.ROAD, 0, np.random.default_rng(4))
    assert frame.face_failed and frame.record is None


def test_dropout_rates_are_roughly_honored():
    profile = SubjectProfile("s0", head_gain=0.5, p_face_fail=0.3, p_pupil_fail=0.2)
    rng = np.random.default_rng(10)
    frames = list(iter_subject_frames(profile, 80, rng))
    face_fail = np.mean([f.face_failed for f in frames])
    occluded = np.mean([f.occluded for f in frames if not f.face_failed])
    assert face_fail == pytest.approx(0.3, abs=0.05)
    assert occluded == pytest.approx(0.2, abs=0.05)


def test_iter_subject_frames_counts_and_labels():
    frames = list(iter_subject_frames(_clean_profile(0.5), 7, np.random.default_rng(0)))
    assert len(frames) == 42
    assert [f.frame_index for f in frames] == list(range(42))
    for i, region in enumerate(REGIONS):
        assert all(f.label is region for f in frames[i * 7 : (i + 1) * 7])


def test_population_frames_deterministic():
    a = list(population_frames(2, 3, seed=21, image_noise=6.0))
    b = list(population_frames(2, 3, seed=21, image_noise=6.0))
    assert len(a) == len(b) == 36
    for fa, fb in zip(a, b):
        assert fa.subject_id == fb.subject_id and fa.label is fb.label
        if fa.record is None:
            assert fb.record is None
            continue
        assert np.array_equal(fa.record.landmarks.points, fb.record.landmarks.points)
        assert np.array_equal(fa.record.eye_crop.pixels, fb.record.eye_crop.pixels)


def test_population_profiles_alpha_schedule():
    profiles = population_profiles(3, seed=0, alphas=[0.1, 0.5, 0.9])
    assert [p.head_gain for p in profiles] == [0.1, 0.5, 0.9]
    assert [p.subject_id for p in profiles] == ["s00", "s01", "s02"]
    drawn = population_profiles(4, seed=0)
    assert all(0.0 <= p.head_gain <= 1.0 for p in drawn)
    with pytest.raises(ValueError):
        population_profiles(3, seed=0, alphas=[0.5])


def test_render_eye_crop_noise_free_disk():
    crop = render_eye_crop(40, 24, (20.0, 12.0), 5.0, np.random.default_rng(0))
    pixels = crop.pixels
    assert pixels[12, 20] == 40
    assert pixels[0, 0] == 205
    ys, xs = np.nonzero(pixels < 100)
    assert xs.mean() == pytest.approx(20.0, abs=0.3)
    assert ys.mean() == pytest.approx(12.0, abs=0.3)


def test_uniform_alpha_schedule_spans_the_strategy_spectrum():
    alphas = np.linspace(0.0, 1.0, 20)
    frames = population_frames(20, 20, seed=6, alphas=alphas)
    ds = prepare_dataset(frames)
    reports = owlness_from_prepared(ds)
    measured = [reports[sid].owlness for sid in ds.subject_ids()]
    assert min(measured) <= 0.15
    assert max(measured) >= 0.85


def test_generate_population_writes_manifest(tmp_path):
    out = tmp_path / "data"
    manifest = generate_population(out, n_subjects=1, frames_per_region=120, seed=3)
    assert manifest["total_frames"] == 720
    assert (out / "frames.jsonl").exists()
    assert load_manifest(out) == manifest
    with pytest.raises(ValueError):
        generate_population(tmp_path / "x", n_subjects=1, frames_per_region=10, seed=3)


def test_generate_population_identical_digest_for_identical_seed(tmp_path):
    first = generate_population(tmp_path / "a", n_subjects=1, frames_per_region=120, seed=8)
    second = generate_population(tmp_path / "b", n_subjects=1, frames_per_region=120, seed=8)
    assert first["frames_sha256"] == second["frames_sha256"]
    assert first["crops_sha256"] == second["crops_sha256"]
    frames_bytes = (tmp_path / "a" / "frames.jsonl").read_bytes()
    assert first["frames_sha256"] == hashlib.sha256(frames_bytes).hexdigest()
    third = generate_population(tmp_path / "c", n_subjects=1, frames_per_region=120, seed=9)
    assert third["frames_sha256"] != first["frames_sha256"]
