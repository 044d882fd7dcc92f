import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gazekit.analysis import nose_block
from gazekit.core import GazeRegion, GrayImage, Landmarks, FrameRecord
from gazekit.features import (
    DegenerateBox,
    DegenerateEye,
    FeatureMode,
    FeatureVector,
    MissingPupil,
    build_feature,
    feature_dim,
    normalize_landmarks,
    normalize_pupil,
)
from gazekit.pupil import PupilParams, PupilResult, PupilStatus
from gazekit.synth import FACE_TEMPLATE

from oracles import normalize_pupil_oracle

EYE_POLY = np.array([[2, 10], [10, 4], [20, 4], [30, 10], [20, 16], [10, 16]], dtype=float)


def _landmarks_with_unit_box():
    """Landmark set whose eyes-and-nose bbox is exactly the unit square."""
    pts = np.full((68, 2), 0.5)
    pts[27] = (0.0, 0.0)
    pts[36] = (1.0, 1.0)
    pts[40] = (0.25, 0.75)
    pts[45] = (0.75, 0.25)
    return pts


def test_normalize_identity_on_unit_box():
    pts = _landmarks_with_unit_box()
    out = normalize_landmarks(Landmarks(pts))
    assert np.array_equal(out.reshape(68, 2), pts)


def test_normalize_translation_invariance_exact():
    pts = np.round(FACE_TEMPLATE)  # integer grid keeps the float arithmetic lossless
    base = normalize_landmarks(Landmarks(pts))
    moved = normalize_landmarks(Landmarks(pts + np.array([37.0, -12.0])))
    assert np.array_equal(base, moved)


def test_normalize_scale_invariance_exact():
    pts = np.round(FACE_TEMPLATE)
    base = normalize_landmarks(Landmarks(pts))
    scaled = normalize_landmarks(Landmarks(pts * 2.0))
    assert np.array_equal(base, scaled)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(-2000, 2000, allow_nan=False),
    st.floats(-2000, 2000, allow_nan=False),
    st.floats(0.01, 50.0, allow_nan=False),
)
def test_normalize_similarity_invariance_property(tx, ty, scale):
    pts = FACE_TEMPLATE
    base = normalize_landmarks(Landmarks(pts))
    other = normalize_landmarks(Landmarks(pts * scale + np.array([tx, ty])))
    assert np.allclose(base, other, atol=1e-9)


def test_normalized_box_lands_in_unit_square():
    out = normalize_landmarks(Landmarks(FACE_TEMPLATE)).reshape(68, 2)
    assert np.all(out[27:48] >= 0.0) and np.all(out[27:48] <= 1.0)


def test_normalize_degenerate_box():
    pts = np.zeros((68, 2))  # everything stacked on one point
    with pytest.raises(DegenerateBox):
        normalize_landmarks(Landmarks(pts))
    # A subnormal box: the other landmarks would land at infinity, silently.
    pts = FACE_TEMPLATE.copy()
    pts[27:48] *= 1e-312
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateBox):
            normalize_landmarks(Landmarks(pts))


def test_nose_tip_normalized_slices_index_30():
    out = normalize_landmarks(Landmarks(FACE_TEMPLATE))
    assert np.array_equal(nose_block(out[None])[0], out.reshape(68, 2)[30])


def test_normalize_pupil_symmetric_center():
    midpoint = (EYE_POLY[0] + EYE_POLY[3]) / 2.0
    assert normalize_pupil(midpoint, EYE_POLY) == pytest.approx((0.5, 0.5))


def _rotate(points, degrees, about=(0.0, 0.0)):
    rad = np.radians(degrees)
    rot = np.array([[np.cos(rad), -np.sin(rad)], [np.sin(rad), np.cos(rad)]])
    return (np.asarray(points) - about) @ rot.T + about


def test_normalize_pupil_rigid_rotation_invariance():
    pupil = np.array([18.0, 9.0])
    base = normalize_pupil(pupil, EYE_POLY)
    rotated = normalize_pupil(
        _rotate(pupil, 25.0, about=(5.0, 5.0)), _rotate(EYE_POLY, 25.0, about=(5.0, 5.0))
    )
    assert np.allclose(base, rotated, atol=1e-9)


def test_normalize_pupil_matches_geometry_oracle():
    rng = np.random.default_rng(88)
    for _ in range(100):
        width = rng.uniform(8, 40)
        height = rng.uniform(3, 20)
        jitter = rng.uniform(-1, 1, size=(6, 2))
        poly = np.array(
            [
                [0, 0],
                [width * 0.3, -height / 2],
                [width * 0.7, -height / 2],
                [width, 0],
                [width * 0.7, height / 2],
                [width * 0.3, height / 2],
            ]
        ) + jitter
        poly = _rotate(poly, rng.uniform(-40, 40)) + rng.uniform(-30, 30, size=2)
        pupil = poly.mean(axis=0) + rng.uniform(-2, 2, size=2)
        assert np.allclose(
            normalize_pupil(pupil, poly), normalize_pupil_oracle(pupil, poly), atol=1e-9
        )


def test_normalize_pupil_clamps_outside_points():
    out = normalize_pupil((1000.0, -1000.0), EYE_POLY)
    assert np.all(out >= 0.0) and np.all(out <= 1.0)


def test_normalize_pupil_degenerate_eye():
    poly = EYE_POLY.copy()
    poly[3] = poly[0]
    with pytest.raises(DegenerateEye):
        normalize_pupil((5.0, 5.0), poly)


def _record():
    pts = FACE_TEMPLATE + np.array([0.0, 0.0])
    eye = pts[36:42]
    origin = eye.min(axis=0) - 5
    return FrameRecord(
        subject_id="s",
        frame_index=0,
        landmarks=Landmarks(pts),
        eye_crop=GrayImage(np.full((24, 40), 200, dtype=np.uint8)),
        eye_polygon=eye - origin,
        label=GazeRegion.ROAD,
    )


def _detected_pupil():
    return PupilResult(
        PupilStatus.DETECTED,
        center=(20.0, 12.0),
        blob_area=20,
        blob_bbox=(5, 5),
        chosen_params=PupilParams(0.05, 1, 1),
    )


def test_build_feature_dimensions():
    record = _record()
    head_only = build_feature(record, None, FeatureMode.HEAD_ONLY)
    assert head_only.as_array().shape == (136,)
    assert head_only.dim == feature_dim(FeatureMode.HEAD_ONLY) == 136
    both = build_feature(record, _detected_pupil(), FeatureMode.HEAD_AND_EYE)
    assert both.as_array().shape == (138,)
    assert np.all(both.eye >= 0.0) and np.all(both.eye <= 1.0)


def test_build_feature_missing_pupil():
    record = _record()
    with pytest.raises(MissingPupil):
        build_feature(record, PupilResult(PupilStatus.EYE_CLOSED), FeatureMode.HEAD_AND_EYE)
    with pytest.raises(MissingPupil):
        build_feature(record, None, FeatureMode.HEAD_AND_EYE)


def test_feature_vector_mode_consistency():
    with pytest.raises(ValueError):
        FeatureVector(head=np.zeros(136), eye=np.zeros(2), mode=FeatureMode.HEAD_ONLY)
    with pytest.raises(ValueError):
        FeatureVector(head=np.zeros(136), eye=None, mode=FeatureMode.HEAD_AND_EYE)
