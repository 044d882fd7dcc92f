"""Calibration-free feature extraction from landmarks and pupil position.

Head features are the 68 landmarks after the eyes-and-nose bounding box is
mapped to the unit square, so they are invariant to where the face sits in
the frame and how large it appears. The eye feature is the pupil center
expressed in the eye's own de-rotated bounding box.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .core import (
    NORMALIZING_SLICE,
    FrameRecord,
    GazekitError,
    Landmarks,
    readonly_array,
)
from .pupil import PupilResult, PupilStatus

__all__ = [
    "FeatureMode",
    "FeatureVector",
    "HEAD_DIM",
    "EYE_DIM",
    "DegenerateBox",
    "DegenerateEye",
    "MissingPupil",
    "feature_dim",
    "normalize_landmarks",
    "normalize_pupil",
    "build_feature",
]

HEAD_DIM = 136
EYE_DIM = 2


class FeatureMode(Enum):
    HEAD_ONLY = "head-only"
    HEAD_AND_EYE = "head-eye"


class DegenerateBox(GazekitError):
    """The eyes-and-nose bounding box is too small (zero or subnormal) to normalize by."""


class DegenerateEye(GazekitError):
    """The eye polygon cannot define a frame (coincident corners or no extent)."""


class MissingPupil(GazekitError):
    """Head-and-eye features requested without a detected pupil."""


def feature_dim(mode: FeatureMode) -> int:
    return HEAD_DIM + EYE_DIM if mode is FeatureMode.HEAD_AND_EYE else HEAD_DIM


@dataclass(frozen=True)
class FeatureVector:
    """Classifier input: 136 head values plus an optional 2-value eye block."""

    head: np.ndarray  # (136,) interleaved x0, y0, x1, y1, ...
    eye: np.ndarray | None
    mode: FeatureMode

    def __post_init__(self):
        head = readonly_array(self.head)
        if head.shape != (HEAD_DIM,):
            raise ValueError(f"head block must have {HEAD_DIM} values, got {head.shape}")
        object.__setattr__(self, "head", head)
        if self.mode is FeatureMode.HEAD_AND_EYE:
            if self.eye is None:
                raise ValueError("head-and-eye mode requires an eye block")
            eye = readonly_array(self.eye)
            if eye.shape != (EYE_DIM,):
                raise ValueError(f"eye block must have {EYE_DIM} values, got {eye.shape}")
            object.__setattr__(self, "eye", eye)
        elif self.eye is not None:
            raise ValueError("head-only mode must not carry an eye block")

    @property
    def dim(self) -> int:
        return feature_dim(self.mode)

    def as_array(self) -> np.ndarray:
        if self.eye is None:
            return np.array(self.head)
        return np.concatenate([self.head, self.eye])


def normalize_landmarks(landmarks: Landmarks) -> np.ndarray:
    """Map all 68 landmarks through the transform sending the eyes-and-nose
    bounding box (landmark indices 27-47) to the unit square.

    The map is a translation plus independent per-axis scaling, so it cancels
    global translation and per-axis scaling of the input exactly. Landmarks
    outside the box (jaw, brows, mouth) may map outside [0, 1]; they are not
    clamped. Returns the flat 136-value head block.
    """
    pts = landmarks.points
    box = pts[NORMALIZING_SLICE]
    mins = box.min(axis=0)
    size = box.max(axis=0) - mins
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        head = ((pts - mins) / size).reshape(-1)
    if not np.isfinite(head).all():  # a zero or subnormal extent
        raise DegenerateBox(f"eyes-and-nose box too small to normalize: {size}")
    return head


def normalize_pupil(pupil_center, eye_polygon) -> np.ndarray:
    """Express the pupil center in the eye's de-rotated unit box.

    The eye frame rotates about polygon point 0 (outer corner) until the
    vector to point 3 (inner corner) is horizontal; the rotated polygon's
    bounding box then maps to [0, 1]^2 and the pupil is clamped into it.
    The construction undoes any rigid rotation+translation of the whole eye.
    """
    poly = np.asarray(eye_polygon, dtype=np.float64)
    if poly.shape != (6, 2):
        raise ValueError(f"eye polygon must have shape (6, 2), got {poly.shape}")
    outer = poly[0]
    inner = poly[3]
    span = inner - outer
    if span[0] == 0.0 and span[1] == 0.0:
        raise DegenerateEye("eye corners coincide")
    angle = np.arctan2(span[1], span[0])
    c, s = np.cos(-angle), np.sin(-angle)
    rotation = np.array([[c, -s], [s, c]])
    rotated_poly = (poly - outer) @ rotation.T
    rotated_pupil = (np.asarray(pupil_center, dtype=np.float64) - outer) @ rotation.T
    mins = rotated_poly.min(axis=0)
    size = rotated_poly.max(axis=0) - mins
    if size[0] == 0.0 or size[1] == 0.0:
        raise DegenerateEye(f"rotated eye polygon has zero extent: {size}")
    return np.clip((rotated_pupil - mins) / size, 0.0, 1.0)


def build_feature(
    record: FrameRecord, pupil: PupilResult | None, mode: FeatureMode
) -> FeatureVector:
    """Assemble the classifier feature vector for one frame."""
    head = normalize_landmarks(record.landmarks)
    if mode is FeatureMode.HEAD_ONLY:
        return FeatureVector(head=head, eye=None, mode=mode)
    if pupil is None or pupil.status is not PupilStatus.DETECTED:
        status = "absent" if pupil is None else pupil.status.value
        raise MissingPupil(f"head-and-eye features need a detected pupil ({status})")
    eye = normalize_pupil(pupil.center, record.eye_polygon)
    return FeatureVector(head=head, eye=eye, mode=mode)
