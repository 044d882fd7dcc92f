import dataclasses
import math

import numpy as np
import pytest

from gazekit.analysis import prepare_dataset
from gazekit.core import GazeRegion, Landmarks
from gazekit.features import FeatureMode
from gazekit.forest import (
    LEAF,
    DimensionMismatch,
    ForestConfig,
    ForestModel,
    ForestNodes,
    TrainingDigest,
)
from gazekit.core import REGIONS
from gazekit.pipeline import (
    AttritionLedger,
    DropReason,
    FrameOutcome,
    PipelineConfig,
    classify_batch,
    classify_frame,
    decision_rates,
)
from gazekit.synth import SubjectProfile, generate_frame, iter_subject_frames


def _leaf_model(counts, feature_dim=138):
    """One-tree model whose only node is a leaf with these class counts."""
    return ForestModel(
        config=ForestConfig(n_trees=1, max_depth=1),
        nodes=ForestNodes(
            roots=np.array([0]),
            feature=np.array([LEAF], dtype=np.int32),
            threshold=np.zeros(1),
            right=np.array([-1], dtype=np.int32),
            leaf_counts=np.array([counts], dtype=np.uint32),
        ),
        feature_dim=feature_dim,
        class_order=REGIONS,
        training_digest=TrainingDigest((1,) * 6, 0, 1.0),
    )


def _clean_frame(occluded=False):
    profile = SubjectProfile(
        "s0",
        head_gain=0.5,
        landmark_jitter=0.0,
        image_noise=0.0,
        p_pupil_fail=1.0 if occluded else 0.0,
    )
    return generate_frame(profile, GazeRegion.ROAD, 0, np.random.default_rng(3))


def _degenerate_box_closed_eye():
    record = _clean_frame(occluded=True).record
    points = np.array(record.landmarks.points)
    points[27:48, 0] = points[30, 0]  # the eyes-and-nose box has no width
    return dataclasses.replace(record, landmarks=Landmarks(points))


def _coincident_eye_corners():
    """A record whose eye corners 0 and 3 coincide; its pupil is still found."""
    record = _clean_frame().record
    polygon = np.array(record.eye_polygon)
    polygon[0] = polygon[3] = polygon.mean(axis=0)
    return dataclasses.replace(record, eye_polygon=polygon)


def test_no_face_drop():
    model = _leaf_model([1, 0, 0, 0, 0, 0])
    outcome = classify_frame(None, model, PipelineConfig())
    assert outcome.drop is DropReason.NO_FACE
    assert outcome.decision is None


def test_pupil_failed_drop_in_head_eye_mode():
    model = _leaf_model([1, 0, 0, 0, 0, 0])
    frame = _clean_frame(occluded=True)
    outcome = classify_frame(frame.record, model, PipelineConfig())
    assert outcome.drop is DropReason.PUPIL_FAILED
    assert outcome.pupil.status.value == "eye_closed"


def test_degenerate_geometry_drops():
    model = _leaf_model([1, 0, 0, 0, 0, 0])
    outcome = classify_frame(_degenerate_box_closed_eye(), model, PipelineConfig())
    assert outcome.drop is DropReason.NO_FACE and outcome.pupil is None  # no pupil search
    outcome = classify_frame(_coincident_eye_corners(), model, PipelineConfig())
    assert outcome.drop is DropReason.PUPIL_FAILED
    assert outcome.pupil.status.value == "detected"


def test_classify_and_prepared_dataset_count_frames_alike():
    profile = SubjectProfile("s0", head_gain=0.5, p_face_fail=0.2, p_pupil_fail=0.2)
    clean = [f.record for f in iter_subject_frames(profile, 3, np.random.default_rng(8))]
    stream = [*clean, None, _degenerate_box_closed_eye(), _coincident_eye_corners(), None]
    model = _leaf_model([1, 0, 0, 0, 0, 0])
    drops = [outcome.drop for outcome in classify_batch(stream, model, PipelineConfig())]
    assert {DropReason.NO_FACE, DropReason.PUPIL_FAILED, None} <= set(drops)
    prepared = prepare_dataset(stream)
    assert prepared.total_records == len(stream)
    assert prepared.faces == sum(drop is not DropReason.NO_FACE for drop in drops)
    assert prepared.pupils == drops.count(None)


def test_low_confidence_drop():
    model = _leaf_model([11, 1, 2, 2, 2, 2])
    frame = _clean_frame()
    outcome = classify_frame(frame.record, model, PipelineConfig(confidence_threshold=10.0))
    assert outcome.drop is DropReason.LOW_CONFIDENCE
    assert outcome.decision is not None
    assert outcome.decision.confidence == pytest.approx(5.5)
    assert not outcome.accepted


def test_accepted_decision_with_fixture_forest():
    # leaf fractions (11/12, 1/60 x5): confidence ratio 55
    model = _leaf_model([55, 1, 1, 1, 1, 1])
    frame = _clean_frame()
    outcome = classify_frame(frame.record, model, PipelineConfig(confidence_threshold=10.0))
    assert outcome.accepted
    assert outcome.decision.region is GazeRegion.ROAD
    assert outcome.decision.confidence == pytest.approx(55.0)


def test_infinite_confidence_always_accepted():
    model = _leaf_model([1, 0, 0, 0, 0, 0])
    frame = _clean_frame()
    outcome = classify_frame(frame.record, model, PipelineConfig(confidence_threshold=10.0))
    assert outcome.accepted
    assert math.isinf(outcome.decision.confidence)


def test_head_only_mode_skips_pupil_stage():
    model = _leaf_model([1, 0, 0, 0, 0, 0], feature_dim=136)
    frame = _clean_frame(occluded=True)  # closed eye must not matter
    cfg = PipelineConfig(mode=FeatureMode.HEAD_ONLY, confidence_threshold=10.0)
    outcome = classify_frame(frame.record, model, cfg)
    assert outcome.accepted


def test_mode_model_mismatch():
    model = _leaf_model([1, 0, 0, 0, 0, 0], feature_dim=136)
    with pytest.raises(DimensionMismatch):
        classify_frame(_clean_frame().record, model, PipelineConfig())


def test_threshold_monotonicity_of_acceptance():
    frame = _clean_frame()
    model = _leaf_model([14, 2, 1, 1, 1, 1])  # confidence 7
    accepted = []
    for threshold in (1.0, 2.0, 5.0, 10.0, 20.0):
        outcome = classify_frame(frame.record, model, PipelineConfig(confidence_threshold=threshold))
        accepted.append(outcome.accepted)
    assert accepted == [True, True, True, False, False]


def test_ledger_observe():
    ledger = AttritionLedger()
    model_hi = _leaf_model([55, 1, 1, 1, 1, 1])
    cfg = PipelineConfig(confidence_threshold=10.0)
    ledger.observe(classify_frame(None, model_hi, cfg))
    ledger.observe(classify_frame(_clean_frame(occluded=True).record, model_hi, cfg))
    ledger.observe(classify_frame(_clean_frame().record, model_hi, cfg))
    assert (
        ledger.total_frames,
        ledger.faces_detected,
        ledger.pupils_detected,
        ledger.confident_decisions,
    ) == (3, 2, 1, 1)
    ledger.validate()


def test_ledger_replay_is_exact():
    model = _leaf_model([24, 12, 1, 1, 1, 1])
    cfg = PipelineConfig(confidence_threshold=1.5)
    frames = [None, _clean_frame().record, _clean_frame(occluded=True).record]

    def run():
        ledger = AttritionLedger()
        for f in frames:
            ledger.observe(classify_frame(f, model, cfg))
        return ledger

    assert run() == run()


def test_ledger_invariant_enforced():
    with pytest.raises(Exception):
        AttritionLedger(total_frames=1, faces_detected=2, pupils_detected=0, confident_decisions=0)


def test_decision_rates_reference_scale():
    # 833,049 pupil-passing frames of 1,351,864 total; 7.1% confident at 30 fps
    pupils = 833_049
    confident = int(0.071 * pupils)
    ledger = AttritionLedger(
        total_frames=1_351_864,
        faces_detected=1_073_380,
        pupils_detected=pupils,
        confident_decisions=confident,
    )
    confident_hz, effective_hz = decision_rates(ledger, fps=30.0)
    assert 2.1 <= confident_hz <= 2.3
    assert 1.2 <= effective_hz <= 1.4
    assert effective_hz < confident_hz


def test_decision_rates_no_attrition():
    ledger = AttritionLedger(100, 100, 100, 100)
    assert decision_rates(ledger, fps=30.0) == (30.0, 30.0)


def test_decision_rates_zero_confident():
    ledger = AttritionLedger(100, 80, 60, 0)
    assert decision_rates(ledger, fps=30.0) == (0.0, 0.0)


def test_decision_rates_errors():
    with pytest.raises(ZeroDivisionError):
        decision_rates(AttritionLedger(10, 5, 0, 0), fps=30.0)
    with pytest.raises(ZeroDivisionError):
        decision_rates(AttritionLedger(), fps=30.0)
    with pytest.raises(ValueError):
        decision_rates(AttritionLedger(10, 10, 10, 1), fps=0.0)


def test_frame_outcome_consistency():
    with pytest.raises(ValueError):
        FrameOutcome(decision=None, drop=None)
    with pytest.raises(ValueError):
        FrameOutcome(decision=None, drop=DropReason.LOW_CONFIDENCE)
