import math

import numpy as np
import pytest

from gazekit.core import (
    DataFormatError,
    Decision,
    FrameRecord,
    GazeRegion,
    GrayImage,
    Landmarks,
    N_REGIONS,
    REGIONS,
    decide,
    index_to_region,
    region_from_name,
    region_index,
)


def test_region_ordering_examples():
    assert region_index(GazeRegion.ROAD) == 0
    assert region_index(GazeRegion.CENTER_STACK) == 1
    assert region_index(GazeRegion.RIGHT) == 5


def test_region_index_roundtrip():
    assert N_REGIONS == 6
    for region in REGIONS:
        assert index_to_region(region_index(region)) is region


def test_region_from_name():
    assert region_from_name("rearview_mirror") is GazeRegion.REARVIEW_MIRROR
    with pytest.raises(DataFormatError):
        region_from_name("windshield")


def test_landmarks_validation():
    Landmarks(np.zeros((68, 2)))
    with pytest.raises(DataFormatError):
        Landmarks(np.zeros((67, 2)))
    bad = np.zeros((68, 2))
    bad[3, 1] = np.nan
    with pytest.raises(DataFormatError):
        Landmarks(bad)


def test_landmarks_are_immutable():
    lm = Landmarks(np.zeros((68, 2)))
    with pytest.raises(ValueError):
        lm.points[0, 0] = 1.0


def test_gray_image_validation():
    img = GrayImage(np.zeros((4, 6), dtype=np.uint8))
    assert (img.width, img.height) == (6, 4)
    with pytest.raises(DataFormatError):
        GrayImage(np.zeros((0, 6), dtype=np.uint8))
    with pytest.raises(DataFormatError):
        GrayImage.from_bytes(4, 4, b"\x00" * 15)


def _frame(polygon):
    return FrameRecord(
        subject_id="s00",
        frame_index=0,
        landmarks=Landmarks(np.ones((68, 2))),
        eye_crop=GrayImage(np.zeros((10, 20), dtype=np.uint8)),
        eye_polygon=polygon,
        label=GazeRegion.ROAD,
    )


def test_frame_record_polygon_bounds():
    _frame(np.array([[1, 1], [5, 0], [10, 1], [15, 5], [10, 8], [5, 8]], dtype=float))
    outside = np.array([[1, 1], [5, 0], [25, 1], [15, 5], [10, 8], [5, 8]], dtype=float)
    with pytest.raises(DataFormatError):
        _frame(outside)
    with pytest.raises(DataFormatError):
        _frame(np.zeros((5, 2)))


def _decide_one(probabilities, threshold):
    predicted, confidence, accepted = decide(np.array([probabilities]), threshold)
    return index_to_region(int(predicted[0])), float(confidence[0]), bool(accepted[0])


def test_decision_rule_basic():
    region, confidence, accepted = _decide_one([0.55, 0.05, 0.1, 0.1, 0.1, 0.1], 10.0)
    assert region is GazeRegion.ROAD
    assert confidence == pytest.approx(5.5)
    assert not accepted


def test_decision_tie_breaks_to_lowest_region_index():
    region, confidence, accepted = _decide_one([0.3, 0.3, 0.1, 0.1, 0.1, 0.1], 10.0)
    assert region is GazeRegion.ROAD
    assert confidence == 1.0
    assert not accepted  # strict inequality: a tie never clears 1
    assert not _decide_one([0.1, 0.1, 0.1, 0.1, 0.3, 0.3], 1.0)[2]


def test_decision_infinite_confidence():
    region, confidence, accepted = _decide_one([1.0, 0.0, 0.0, 0.0, 0.0, 0.0], 10.0)
    assert math.isinf(confidence)
    assert accepted


def test_decision_rule_is_row_wise():
    rows = np.array(
        [
            [0.55, 0.05, 0.1, 0.1, 0.1, 0.1],
            [0.0, 0.0, 0.0, 0.0, 1.0, 0.0],
            [0.1, 0.1, 0.4, 0.2, 0.1, 0.1],
        ]
    )
    predicted, confidence, accepted = decide(rows, 1.5)
    assert predicted.tolist() == [0, 4, 2]
    assert confidence[0] == pytest.approx(5.5) and math.isinf(confidence[1])
    assert confidence[2] == pytest.approx(2.0)
    assert accepted.tolist() == [True, True, True]
    assert decide(rows, 2.0)[2].tolist() == [True, True, False]


def test_decision_rejects_bad_distributions():
    with pytest.raises(DataFormatError):
        Decision(
            region=GazeRegion.ROAD,
            probabilities=np.array([0.5, 0.2, 0.1, 0.1, 0.05, 0.04]),
            confidence=2.0,
            accepted=False,
        )
    with pytest.raises(DataFormatError):
        Decision(
            region=GazeRegion.LEFT,  # not an argmax
            probabilities=np.array([0.5, 0.1, 0.1, 0.1, 0.1, 0.1]),
            confidence=5.0,
            accepted=False,
        )
