"""Core domain types for driver gaze-region classification.

Coordinate convention throughout the package: image pixels, origin at the
top-left corner, x to the right, y down. All types here are immutable after
construction and safe to share between threads.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "GazekitError",
    "DataFormatError",
    "GazeRegion",
    "REGIONS",
    "N_REGIONS",
    "NOSE_TIP_INDEX",
    "NORMALIZING_SLICE",
    "region_index",
    "index_to_region",
    "region_from_name",
    "Landmarks",
    "GrayImage",
    "FrameRecord",
    "Decision",
    "decide",
    "readonly_array",
]


class GazekitError(Exception):
    """Base class for every error raised by this package."""


class DataFormatError(GazekitError):
    """An input record or file violates the documented format."""


class GazeRegion(Enum):
    """The six in-vehicle glance targets, in fixed classifier order."""

    ROAD = "road"
    CENTER_STACK = "center_stack"
    INSTRUMENT_CLUSTER = "instrument_cluster"
    REARVIEW_MIRROR = "rearview_mirror"
    LEFT = "left"
    RIGHT = "right"


REGIONS: tuple[GazeRegion, ...] = tuple(GazeRegion)
N_REGIONS = len(REGIONS)
_INDEX_BY_REGION = {region: index for index, region in enumerate(REGIONS)}
_REGION_BY_NAME = {region.value: region for region in REGIONS}

# 68-point landmark layout: jawline 0-16, eyebrows 17-26, nose 27-35 with the
# tip at 30, image-right eye 36-41, image-left eye 42-47, mouth 48-67.
# Whether the image-right eye is the driver's anatomical right depends on the
# camera mirroring of the dataset producer; the pipeline itself only assumes
# the eye crop it is handed corresponds to landmarks 36-41.
NOSE_TIP_INDEX = 30
NORMALIZING_SLICE = slice(27, 48)  # nose plus both eyes


def region_index(region: GazeRegion) -> int:
    """Index of ``region`` in the fixed ordering (0..5)."""
    return _INDEX_BY_REGION[region]


def index_to_region(index: int) -> GazeRegion:
    """Inverse of :func:`region_index`."""
    return REGIONS[index]


def region_from_name(name: str) -> GazeRegion:
    """Look up a region by its wire name (e.g. ``"center_stack"``)."""
    try:
        return _REGION_BY_NAME[name]
    except KeyError:
        raise DataFormatError(f"unknown gaze region name: {name!r}") from None


def readonly_array(values, dtype=np.float64) -> np.ndarray:
    """Copy ``values`` into a fresh read-only array."""
    arr = np.array(values, dtype=dtype)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class Landmarks:
    """68 facial landmark positions in image pixels."""

    points: np.ndarray  # (68, 2) float64

    def __post_init__(self):
        pts = np.array(self.points, dtype=np.float64)
        if pts.shape != (68, 2):
            raise DataFormatError(f"landmarks must have shape (68, 2), got {pts.shape}")
        if not np.all(np.isfinite(pts)):
            raise DataFormatError("landmark coordinates must be finite")
        pts.flags.writeable = False
        object.__setattr__(self, "points", pts)


@dataclass(frozen=True)
class GrayImage:
    """A row-major 8-bit grayscale image."""

    pixels: np.ndarray  # (height, width) uint8

    def __post_init__(self):
        px = np.array(self.pixels, dtype=np.uint8)
        if px.ndim != 2 or px.shape[0] < 1 or px.shape[1] < 1:
            raise DataFormatError(f"image must be 2-D and non-empty, got shape {px.shape}")
        px.flags.writeable = False
        object.__setattr__(self, "pixels", px)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @classmethod
    def from_bytes(cls, width: int, height: int, data: bytes) -> "GrayImage":
        if len(data) != width * height:
            raise DataFormatError(
                f"image data length {len(data)} != width*height {width * height}"
            )
        return cls(np.frombuffer(data, dtype=np.uint8).reshape(height, width).copy())


@dataclass(frozen=True)
class FrameRecord:
    """One annotated video frame after face detection and alignment.

    ``eye_polygon`` holds the six eye landmarks re-expressed in ``eye_crop``
    coordinates; all six points must fall inside the crop bounds.
    """

    subject_id: str
    frame_index: int
    landmarks: Landmarks
    eye_crop: GrayImage
    eye_polygon: np.ndarray  # (6, 2) float64, eye-crop coordinates
    label: GazeRegion

    def __post_init__(self):
        if self.frame_index < 0:
            raise DataFormatError("frame_index must be >= 0")
        poly = np.array(self.eye_polygon, dtype=np.float64)
        if poly.shape != (6, 2):
            raise DataFormatError(f"eye_polygon must have shape (6, 2), got {poly.shape}")
        if not np.all(np.isfinite(poly)):
            raise DataFormatError("eye_polygon coordinates must be finite")
        w, h = self.eye_crop.width, self.eye_crop.height
        if (
            poly[:, 0].min() < 0
            or poly[:, 1].min() < 0
            or poly[:, 0].max() > w - 1
            or poly[:, 1].max() > h - 1
        ):
            raise DataFormatError("eye_polygon points must lie inside the eye crop")
        if not isinstance(self.label, GazeRegion):
            raise DataFormatError(f"label must be a GazeRegion, got {self.label!r}")
        poly.flags.writeable = False
        object.__setattr__(self, "eye_polygon", poly)


@dataclass(frozen=True)
class Decision:
    """A gaze-region classification with its confidence bookkeeping.

    ``confidence`` is the ratio of the highest class probability to the
    second highest (+inf when the second highest is zero); ``accepted`` is
    True iff the confidence strictly exceeds the pruning threshold the
    decision was made under.
    """

    region: GazeRegion
    probabilities: np.ndarray  # (6,) non-negative, sums to 1
    confidence: float
    accepted: bool

    def __post_init__(self):
        probs = np.array(self.probabilities, dtype=np.float64)
        if probs.shape != (N_REGIONS,):
            raise DataFormatError(f"expected {N_REGIONS} probabilities, got {probs.shape}")
        if probs.min() < 0:
            raise DataFormatError("probabilities must be non-negative")
        if abs(probs.sum() - 1.0) > 1e-9:
            raise DataFormatError(f"probabilities must sum to 1, got {probs.sum()!r}")
        if probs[region_index(self.region)] != probs.max():
            raise DataFormatError("decision region must be an argmax of the probabilities")
        if not (self.confidence >= 1.0):
            raise DataFormatError("confidence must be >= 1 (or +inf)")
        probs.flags.writeable = False
        object.__setattr__(self, "probabilities", probs)


def decide(probabilities, threshold: float):
    """The pruning rule, over rows of class probabilities.

    Returns each row's predicted class index, its confidence and whether it
    is accepted. Argmax ties break toward the lowest index. The confidence
    is the highest probability over the second highest (+inf when the
    second highest is zero), and a row is accepted iff its confidence
    strictly exceeds ``threshold``, so a two-way tie at the top (confidence
    exactly 1) never clears a threshold of 1.
    """
    probs = np.asarray(probabilities, dtype=np.float64)
    predicted = probs.argmax(axis=1)
    top_two = np.partition(probs, probs.shape[1] - 2, axis=1)[:, -2:]
    p2, p1 = top_two[:, 0], top_two[:, 1]
    with np.errstate(divide="ignore"):
        confidence = np.where(p2 == 0.0, np.inf, p1 / np.where(p2 == 0.0, 1.0, p2))
    return predicted, confidence, confidence > threshold
