"""End-to-end frame classification with confidence pruning and attrition
accounting.

A frame either produces a :class:`~gazekit.core.Decision` or drops out with a
typed reason: no parseable face record, a failed pupil stage (closed eye or
no blob, head-and-eye mode only), or a decision whose confidence ratio did
not clear the pruning threshold. The ledger counts survivors of each stage.

``classify_frame`` takes one frame; ``classify_batch`` takes a micro-batch
and predicts all of its frames in one call. Both run the same pupil, feature
and decision stages, so they give the same outcome for the same frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .core import REGIONS, DataFormatError, Decision, FrameRecord, GazekitError
from .features import DegenerateBox, FeatureMode, MissingPupil, build_feature, feature_dim
from .forest import (
    DimensionMismatch,
    ForestConfig,
    ForestModel,
    predict_proba,
    predict_proba_batch,
)
from .pupil import DEFAULT_GRID, ParamGrid, PupilResult, PupilStatus, detect_pupil

__all__ = [
    "PipelineConfig",
    "DropReason",
    "FrameOutcome",
    "AttritionLedger",
    "classify_frame",
    "classify_batch",
    "decision_rates",
]


@dataclass(frozen=True)
class PipelineConfig:
    mode: FeatureMode = FeatureMode.HEAD_AND_EYE
    confidence_threshold: float = 10.0
    grid: ParamGrid = DEFAULT_GRID
    forest: ForestConfig = ForestConfig()

    def __post_init__(self):
        if not self.confidence_threshold >= 1.0:
            raise ValueError("confidence_threshold must be >= 1")


class DropReason(Enum):
    NO_FACE = "no_face"
    PUPIL_FAILED = "pupil_failed"
    LOW_CONFIDENCE = "low_confidence"


@dataclass(frozen=True)
class FrameOutcome:
    """Result of pushing one frame through the pipeline.

    ``decision`` is present whenever classification ran, including rejected
    low-confidence decisions (then ``drop`` is LOW_CONFIDENCE). Exactly one of
    "accepted decision" and "drop reason" holds.
    """

    decision: Decision | None
    drop: DropReason | None
    pupil: PupilResult | None = None

    def __post_init__(self):
        accepted = self.decision is not None and self.decision.accepted
        if accepted == (self.drop is not None):
            raise ValueError("outcome must be either accepted or carry a drop reason")
        if self.drop is DropReason.LOW_CONFIDENCE and self.decision is None:
            raise ValueError("low-confidence drops must carry the rejected decision")

    @property
    def accepted(self) -> bool:
        return self.decision is not None and self.decision.accepted


def _check_model(model: ForestModel, cfg: PipelineConfig) -> np.ndarray:
    """Check that the model fits the configured mode and that its classes
    are the six regions; returns the column of each region, in ``REGIONS``
    order, of the model's probability rows."""
    expected = feature_dim(cfg.mode)
    if model.feature_dim != expected:
        raise DimensionMismatch(
            f"model feature_dim {model.feature_dim} incompatible with mode "
            f"{cfg.mode.value} (expected {expected})"
        )
    order = model.class_order
    if len(order) != len(REGIONS) or set(order) != set(REGIONS):
        raise DataFormatError(
            f"model classes {[str(c) for c in order]} are not the six gaze regions"
        )
    return np.array([order.index(region) for region in REGIONS])


def _stage(record: FrameRecord | None, cfg: PipelineConfig, pupil: PupilResult | None):
    """Pupil and feature stages of one frame: a drop outcome, or the
    feature row and the pupil result it was built from."""
    if record is None:
        return FrameOutcome(decision=None, drop=DropReason.NO_FACE)
    if cfg.mode is FeatureMode.HEAD_AND_EYE:
        if pupil is None:
            pupil = detect_pupil(record.eye_crop, record.eye_polygon, cfg.grid)
        if pupil.status is not PupilStatus.DETECTED:
            return FrameOutcome(decision=None, drop=DropReason.PUPIL_FAILED, pupil=pupil)
    try:
        features = build_feature(record, pupil, cfg.mode)
    except (DegenerateBox, MissingPupil):
        # Unusable geometry means the upstream alignment failed.
        return FrameOutcome(decision=None, drop=DropReason.NO_FACE, pupil=pupil)
    return features.as_array(), pupil


def _decide(probs, cfg: PipelineConfig, pupil: PupilResult | None) -> FrameOutcome:
    decision = Decision.from_probabilities(probs, cfg.confidence_threshold)
    drop = None if decision.accepted else DropReason.LOW_CONFIDENCE
    return FrameOutcome(decision=decision, drop=drop, pupil=pupil)


def classify_frame(
    record: FrameRecord | None,
    model: ForestModel,
    cfg: PipelineConfig,
    pupil: PupilResult | None = None,
) -> FrameOutcome:
    """Classify one frame, or drop it with a typed reason.

    ``record`` of None stands for a frame whose landmark record was absent or
    unparseable (a face-detection failure). A precomputed ``pupil`` may be
    passed to skip re-detection; in head-only mode the pupil stage is a
    pass-through. Raises DimensionMismatch when the model does not fit the
    configured mode, and DataFormatError when its classes are not the six
    regions; the decision reads the model's columns in its class order.
    """
    columns = _check_model(model, cfg)
    staged = _stage(record, cfg, pupil)
    if isinstance(staged, FrameOutcome):
        return staged
    row, pupil = staged
    return _decide(predict_proba(model, row)[columns], cfg, pupil)


def classify_batch(
    records: Sequence[FrameRecord | None], model: ForestModel, cfg: PipelineConfig
) -> list[FrameOutcome]:
    """``classify_frame`` over a micro-batch, with one batched prediction."""
    columns = _check_model(model, cfg)
    staged = [_stage(record, cfg, None) for record in records]
    ready = [i for i, item in enumerate(staged) if not isinstance(item, FrameOutcome)]
    outcomes = list(staged)
    if ready:
        probs = predict_proba_batch(model, np.stack([staged[i][0] for i in ready]))[:, columns]
        for i, row_probs in zip(ready, probs):
            outcomes[i] = _decide(row_probs, cfg, staged[i][1])
    return outcomes


@dataclass
class AttritionLedger:
    """Frame counts surviving each pipeline stage.

    Invariant: total >= faces >= pupils >= confident. In head-only mode the
    pupil stage does not reject anything, so pupil survivors equal face
    survivors there.
    """

    total_frames: int = 0
    faces_detected: int = 0
    pupils_detected: int = 0
    confident_decisions: int = 0

    def __post_init__(self):
        self.validate()

    def validate(self):
        ok = (
            self.total_frames >= self.faces_detected >= self.pupils_detected
            >= self.confident_decisions >= 0
        )
        if not ok:
            raise GazekitError(f"ledger stages must be non-increasing: {self}")

    def observe(self, outcome: FrameOutcome):
        self.total_frames += 1
        if outcome.drop is DropReason.NO_FACE:
            return
        self.faces_detected += 1
        if outcome.drop is DropReason.PUPIL_FAILED:
            return
        self.pupils_detected += 1
        if outcome.accepted:
            self.confident_decisions += 1

    def merge(self, other: "AttritionLedger") -> "AttritionLedger":
        return AttritionLedger(
            total_frames=self.total_frames + other.total_frames,
            faces_detected=self.faces_detected + other.faces_detected,
            pupils_detected=self.pupils_detected + other.pupils_detected,
            confident_decisions=self.confident_decisions + other.confident_decisions,
        )


def decision_rates(ledger: AttritionLedger, fps: float) -> tuple[float, float]:
    """Confident decision rates in Hz.

    The first rate is relative to frames that passed the pupil stage, the
    second relative to all raw frames; the two differ exactly by the
    face/pupil attrition, so both views of throughput are available.
    """
    if not fps > 0:
        raise ValueError("fps must be positive")
    ledger.validate()
    if ledger.pupils_detected == 0 or ledger.total_frames == 0:
        raise ZeroDivisionError("decision rates need pupil-passing and total frames")
    confident_rate = fps * ledger.confident_decisions / ledger.pupils_detected
    effective_rate = fps * ledger.confident_decisions / ledger.total_frames
    return confident_rate, effective_rate
