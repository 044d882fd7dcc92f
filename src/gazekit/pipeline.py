"""End-to-end frame classification with confidence pruning and attrition
accounting.

Every frame goes through :func:`stage_frame`, for ``gazekit classify`` and
for the study's prepared dataset alike. A frame with no parseable face
record or a degenerate eyes-and-nose box is ``no_face``; a face whose pupil
search fails, or whose eye polygon cannot frame the pupil, is
``pupil_failed`` (in head-only classification no pupil search runs). A usable
frame becomes a :class:`~gazekit.core.Decision`, dropped as low-confidence
when it does not clear the pruning threshold. The ledger counts survivors
of each stage.

``classify_batch`` predicts all frames of a micro-batch in one call;
``classify_frame`` is ``classify_batch`` of one frame.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .core import REGIONS, DataFormatError, Decision, FrameRecord, GazekitError, decide
from .features import (  # build_feature stays bound here for perfbench's tracer
    DegenerateBox,
    DegenerateEye,
    FeatureMode,
    build_feature,
    feature_dim,
    normalize_landmarks,
    normalize_pupil,
)
from .forest import (  # predict_proba stays bound here for perfbench's tracer
    DimensionMismatch,
    ForestModel,
    predict_proba,
    predict_proba_batch,
)
from .pupil import DEFAULT_GRID, ParamGrid, PupilResult, PupilStatus, detect_pupil

__all__ = [
    "PipelineConfig",
    "DropReason",
    "StagedFrame",
    "stage_frame",
    "mode_matrix",
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

    def __post_init__(self):
        if not self.confidence_threshold >= 1.0:
            raise ValueError("confidence_threshold must be >= 1")


class DropReason(Enum):
    NO_FACE = "no_face"
    PUPIL_FAILED = "pupil_failed"
    LOW_CONFIDENCE = "low_confidence"


@dataclass(frozen=True)
class StagedFrame:
    """What the frame stages made of one frame.

    ``drop`` is NO_FACE, PUPIL_FAILED or None (usable). ``head`` is the
    136-value head block of every face, ``pupil`` the search result when a
    search ran, and ``pupil_uv`` the normalized pupil of a usable frame whose
    pupil was searched.
    """

    drop: DropReason | None
    head: np.ndarray | None = None
    pupil: PupilResult | None = None
    pupil_uv: np.ndarray | None = None


def stage_frame(
    record: FrameRecord | None, grid: ParamGrid, search_pupil: bool
) -> StagedFrame:
    """Decide what happens to one frame, and compute its features.

    ``record`` of None stands for a frame whose landmark record was absent or
    unparseable (a face-detection failure). The eyes-and-nose box is checked
    first: a degenerate box means the upstream alignment failed, so the frame
    is ``no_face`` and no pupil search runs. With ``search_pupil``, a pupil
    that is not detected, or an eye polygon that cannot frame it (coincident
    corners, no extent), makes the frame ``pupil_failed``.
    """
    if record is None:
        return StagedFrame(DropReason.NO_FACE)
    try:
        head = normalize_landmarks(record.landmarks)
    except DegenerateBox:
        return StagedFrame(DropReason.NO_FACE)
    if not search_pupil:
        return StagedFrame(None, head)
    pupil = detect_pupil(record.eye_crop, record.eye_polygon, grid)
    if pupil.status is not PupilStatus.DETECTED:
        return StagedFrame(DropReason.PUPIL_FAILED, head, pupil)
    try:
        uv = normalize_pupil(pupil.center, record.eye_polygon)
    except DegenerateEye:
        return StagedFrame(DropReason.PUPIL_FAILED, head, pupil)
    return StagedFrame(None, head, pupil, uv)


def mode_matrix(head: np.ndarray, pupil_uv: np.ndarray | None, mode: FeatureMode) -> np.ndarray:
    """Forest rows of ``mode`` from stacked head blocks and pupil uvs: the
    head block, followed in head-and-eye mode by the pupil uv."""
    if mode is FeatureMode.HEAD_ONLY:
        return head
    return np.hstack([head, pupil_uv])


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


def classify_batch(
    records: Sequence[FrameRecord | None], model: ForestModel, cfg: PipelineConfig
) -> list[FrameOutcome]:
    """Classify each frame of a micro-batch, or drop it with a typed reason;
    the usable frames are predicted in one batched call.

    Raises DimensionMismatch when the model does not fit the configured
    mode, and DataFormatError when its classes are not the six regions; the
    decisions read the model's columns in its class order.
    """
    columns = _check_model(model, cfg)
    search = cfg.mode is FeatureMode.HEAD_AND_EYE
    staged = [stage_frame(record, cfg.grid, search) for record in records]
    ready = [i for i, s in enumerate(staged) if s.drop is None]
    outcomes = [None if s.drop is None else FrameOutcome(None, s.drop, s.pupil) for s in staged]
    if ready:
        X = mode_matrix(
            np.array([staged[i].head for i in ready]),
            np.array([staged[i].pupil_uv for i in ready]) if search else None,
            cfg.mode,
        )
        probs = predict_proba_batch(model, X)[:, columns]
        predicted, confidence, accepted = decide(probs, cfg.confidence_threshold)
        for i, row, code, ratio, keep in zip(ready, probs, predicted, confidence, accepted):
            decision = Decision(REGIONS[code], row, float(ratio), bool(keep))
            drop = None if keep else DropReason.LOW_CONFIDENCE
            outcomes[i] = FrameOutcome(decision, drop, staged[i].pupil)
    return outcomes


def classify_frame(
    record: FrameRecord | None, model: ForestModel, cfg: PipelineConfig
) -> FrameOutcome:
    """``classify_batch`` of one frame."""
    return classify_batch([record], model, cfg)[0]


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
