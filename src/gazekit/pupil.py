"""Pupil extraction from an eye crop by CDF thresholding and morphology.

The detector rescales the masked eye region so its 2nd/98th intensity
percentiles map to 0/1, binarizes the darkest fraction of pixels, cleans the
result with a morphological opening and closing, and keeps the largest
roughly-circular blob. The three parameters (CDF threshold, opening window,
closing window) are searched exhaustively over a 3x3x3 grid per image to
maximize the area of that blob.

That search runs as one call of the C kernel ``gzk_pupil_search`` in
``_kernels.c`` per eye crop, built and loaded by :mod:`gazekit._native`.
When the kernels are unavailable, the numpy loop over ``binarize``,
``morph_open``, ``morph_close`` and ``largest_circular_blob`` runs instead;
both give bit-identical :class:`PupilResult` values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import _native
from .core import GazekitError, GrayImage

__all__ = [
    "DegenerateIntensity",
    "PupilParams",
    "ParamGrid",
    "DEFAULT_GRID",
    "PupilStatus",
    "PupilResult",
    "BlobStats",
    "polygon_mask",
    "nearest_rank_percentile",
    "rescale_intensity",
    "binarize",
    "erode",
    "dilate",
    "morph_open",
    "morph_close",
    "largest_circular_blob",
    "detect_pupil",
]

MIN_BLOB_AREA = 5          # blobs smaller than this are face-alignment noise
MIN_ASPECT = 0.5           # min(w,h)/max(w,h) for a blob to count as circular
CLOSED_EYE_RATIO = 0.10    # eye height below this fraction of width = closed


class DegenerateIntensity(GazekitError):
    """The masked region has no intensity spread (2nd == 98th percentile)."""


@dataclass(frozen=True)
class PupilParams:
    """One candidate parameter triple for the pupil search."""

    cdf_threshold: float
    opening_window: int
    closing_window: int

    def __post_init__(self):
        if not 0.0 < self.cdf_threshold < 1.0:
            raise ValueError("cdf_threshold must be in (0, 1)")
        for name in ("opening_window", "closing_window"):
            w = getattr(self, name)
            if w < 1 or w % 2 == 0:
                raise ValueError(f"{name} must be an odd integer >= 1")


@dataclass(frozen=True)
class ParamGrid:
    """Three values per parameter, giving 27 candidate triples."""

    cdf_thresholds: tuple[float, float, float] = (0.03, 0.05, 0.10)
    opening_windows: tuple[int, int, int] = (1, 3, 5)
    closing_windows: tuple[int, int, int] = (1, 3, 5)

    def __post_init__(self):
        for name in ("cdf_thresholds", "opening_windows", "closing_windows"):
            values = tuple(getattr(self, name))
            if len(values) != 3 or len(set(values)) != 3:
                raise ValueError(f"{name} must hold exactly 3 distinct values")
            if tuple(sorted(values)) != values:
                raise ValueError(f"{name} must be sorted ascending")
            object.__setattr__(self, name, values)
        for params in self.triples():
            params  # PupilParams validates ranges on construction

    def triples(self) -> tuple[PupilParams, ...]:
        """All 27 triples in ascending lexicographic order."""
        return tuple(
            PupilParams(t, wo, wc)
            for t, wo, wc in itertools.product(
                self.cdf_thresholds, self.opening_windows, self.closing_windows
            )
        )


DEFAULT_GRID = ParamGrid()


class PupilStatus(Enum):
    DETECTED = "detected"
    EYE_CLOSED = "eye_closed"
    NO_BLOB = "no_blob"


@dataclass(frozen=True)
class BlobStats:
    """Measurements of one connected component."""

    area: int
    bbox: tuple[int, int]  # (width, height)
    centroid: tuple[float, float]  # (x, y)


@dataclass(frozen=True)
class PupilResult:
    """Outcome of pupil detection on one eye crop."""

    status: PupilStatus
    center: tuple[float, float] | None = None
    blob_area: int | None = None
    blob_bbox: tuple[int, int] | None = None
    chosen_params: PupilParams | None = None

    def __post_init__(self):
        detected = self.status is PupilStatus.DETECTED
        have_all = (
            self.center is not None
            and self.blob_area is not None
            and self.blob_bbox is not None
            and self.chosen_params is not None
        )
        if detected != have_all:
            raise ValueError("center/blob fields must be present iff status is DETECTED")
        if detected and self.blob_area < MIN_BLOB_AREA:
            raise ValueError(f"detected blob area must be >= {MIN_BLOB_AREA}")


def polygon_mask(height: int, width: int, polygon) -> np.ndarray:
    """Boolean mask of pixels whose center (x=col, y=row) lies in ``polygon``.

    Uses the even-odd ray casting rule; points exactly on an edge may fall on
    either side, which is irrelevant at the pixel scale this is used at.
    """
    pts = np.asarray(polygon, dtype=np.float64)
    cols, rows = np.meshgrid(np.arange(width, dtype=np.float64),
                             np.arange(height, dtype=np.float64))
    inside = np.zeros((height, width), dtype=bool)
    n = len(pts)
    for i in range(n):
        x0, y0 = pts[i]
        x1, y1 = pts[(i + 1) % n]
        crosses = (y0 <= rows) != (y1 <= rows)
        if not crosses.any():
            continue
        with np.errstate(divide="ignore", invalid="ignore"):
            x_at_row = x0 + (rows - y0) * (x1 - x0) / (y1 - y0)
        inside ^= crosses & (cols < x_at_row)
    return inside


def nearest_rank_percentile(values: np.ndarray, pct: float) -> float:
    """Nearest-rank percentile over the multiset ``values``."""
    ordered = np.sort(np.asarray(values).ravel())
    if ordered.size == 0:
        raise ValueError("percentile of an empty set")
    rank = int(np.ceil(pct / 100.0 * ordered.size))
    return float(ordered[max(rank, 1) - 1])


def rescale_intensity(image: GrayImage | np.ndarray, polygon) -> np.ndarray:
    """Rescale so the masked 2nd/98th percentiles map to 0.0/1.0.

    Values are clamped to [0, 1]; pixels outside the polygon are set to 1.0.
    Raises :class:`DegenerateIntensity` when the masked region is constant.
    """
    pixels = image.pixels if isinstance(image, GrayImage) else np.asarray(image)
    mask = polygon_mask(pixels.shape[0], pixels.shape[1], polygon)
    masked = pixels[mask]
    if masked.size == 0:
        raise DegenerateIntensity("mask selects no pixels")
    lo = nearest_rank_percentile(masked, 2.0)
    hi = nearest_rank_percentile(masked, 98.0)
    if hi == lo:
        raise DegenerateIntensity(f"constant masked region (percentiles both {lo})")
    out = (pixels.astype(np.float64) - lo) / (hi - lo)
    np.clip(out, 0.0, 1.0, out=out)
    out[~mask] = 1.0  # outside the eye polygon counts as bright / non-pupil
    return out


def binarize(image: np.ndarray, threshold: float) -> np.ndarray:
    """Mark pupil candidates: 1 where rescaled intensity is below ``threshold``."""
    return (np.asarray(image) < threshold).astype(np.uint8)


def _window_extreme(image: np.ndarray, window: int, reduce) -> np.ndarray:
    """``np.minimum`` or ``np.maximum`` over a square window, out-of-bounds pixels
    as background: the window's shifted views of a zero-padded copy, folded in
    place by rows, then by columns. A radius past the image is clamped (same result)."""
    if window < 1 or window % 2 == 0:
        raise ValueError("structuring element side must be an odd integer >= 1")
    img = np.asarray(image, dtype=np.uint8)
    height, width = img.shape
    radius = min(window // 2, max(height, width))
    padded = np.zeros((height + 2 * radius, width + 2 * radius), dtype=np.uint8)
    padded[radius : radius + height, radius : radius + width] = img
    rows = padded[:height].copy()
    for shift in range(1, 2 * radius + 1):
        reduce(rows, padded[shift : shift + height], out=rows)
    out = rows[:, :width].copy()
    for shift in range(1, 2 * radius + 1):
        reduce(out, rows[:, shift : shift + width], out=out)
    return out


def erode(image: np.ndarray, window: int) -> np.ndarray:
    """Min over a square window; out-of-bounds neighbors count as background."""
    return _window_extreme(image, window, np.minimum)


def dilate(image: np.ndarray, window: int) -> np.ndarray:
    """Max over a square window; out-of-bounds neighbors count as background."""
    return _window_extreme(image, window, np.maximum)


def morph_open(image: np.ndarray, window: int) -> np.ndarray:
    """Erosion then dilation; removes specks smaller than the window."""
    return dilate(erode(image, window), window)


def morph_close(image: np.ndarray, window: int) -> np.ndarray:
    """Dilation then erosion; fills small holes and smooths blob outlines."""
    return erode(dilate(image, window), window)


def _component_roots(foreground: np.ndarray, stride: int) -> np.ndarray:
    """Each pixel's 8-connected component as the flat index of its root.

    ``foreground`` is a flattened image whose rows are ``stride`` pixels long
    and end in a background pixel, so no flat neighbor offset wraps a row.
    Hook and shortcut (Shiloach & Vishkin, 1982): every root joined by an edge
    to a smaller root hooks to the least such root, then every pixel points at
    its root, until no edge joins two roots. A root only ever hooks to a
    smaller index, so each component's root is its first pixel in raster order.
    """
    steps = (1, stride - 1, stride, stride + 1)  # right, down-left, down, down-right
    low = [(foreground[:-step] & foreground[step:]).nonzero()[0] for step in steps]
    high = np.concatenate([tails + step for tails, step in zip(low, steps)])
    low = np.concatenate(low)
    root = np.arange(foreground.size)
    while low.size:
        np.minimum.at(root, high, low)
        hop = root[root]
        while (hop != root).any():
            root, hop = hop, hop[hop]
        low, high = root[low], root[high]
        apart = low != high
        low, high = np.minimum(low[apart], high[apart]), np.maximum(low[apart], high[apart])
    return root


def largest_circular_blob(image: np.ndarray) -> BlobStats | None:
    """Largest 8-connected component whose bounding box is roughly square.

    Components with bbox aspect min(w,h)/max(w,h) below ``MIN_ASPECT`` are
    skipped. Returns None when no component qualifies or the largest
    qualifying one has fewer than ``MIN_BLOB_AREA`` pixels. Area ties break
    toward the component whose first pixel comes earliest in raster order.
    """
    img = np.asarray(image)
    height, width = img.shape
    foreground = np.zeros((height, width + 1), dtype=bool)
    foreground[:, :width] = img != 0
    foreground = foreground.ravel()
    pixels = foreground.nonzero()[0]
    if pixels.size < MIN_BLOB_AREA:
        return None
    roots = _component_roots(foreground, width + 1)[pixels]
    # A stable sort keeps each component's pixels in raster order and puts the
    # components in the order of their roots, i.e. of their first pixels.
    order = np.argsort(roots, kind="stable")
    roots, pixels = roots[order], pixels[order]
    starts = (pixels == roots).nonzero()[0]
    rows, cols = np.divmod(pixels, width + 1)
    areas = np.append(starts[1:], pixels.size) - starts
    heights = np.maximum.reduceat(rows, starts) - rows[starts] + 1
    lefts = np.minimum.reduceat(cols, starts)
    widths = np.maximum.reduceat(cols, starts) - lefts + 1
    circular = np.minimum(widths, heights) / np.maximum(widths, heights) >= MIN_ASPECT
    best = int(np.argmax(np.where(circular, areas, 0)))  # the first of equal areas
    if not circular[best] or areas[best] < MIN_BLOB_AREA:
        return None
    blob = slice(starts[best], starts[best] + areas[best])
    top, left = rows[starts[best]], lefts[best]
    cy = float((rows[blob] - top).mean() + top)
    cx = float((cols[blob] - left).mean() + left)
    return BlobStats(int(areas[best]), (int(widths[best]), int(heights[best])), (cx, cy))


def _search(rescaled: np.ndarray, grid: ParamGrid):
    """The numpy search: (index of the winning triple in ``grid.triples()``
    order, area, bbox, centroid) of the largest blob, or None."""
    best = None
    index = 0
    for threshold in grid.cdf_thresholds:
        binary = binarize(rescaled, threshold)
        for opening in grid.opening_windows:
            opened = morph_open(binary, opening)
            for closing in grid.closing_windows:
                blob = largest_circular_blob(morph_close(opened, closing))
                if blob is not None and (best is None or blob.area > best[1]):
                    best = (index, blob.area, blob.bbox, blob.centroid)
                index += 1
    return best


def detect_pupil(
    eye_crop: GrayImage | np.ndarray,
    eye_polygon,
    grid: ParamGrid = DEFAULT_GRID,
) -> PupilResult:
    """Run the full pupil extraction with an exhaustive 27-triple search.

    Returns EYE_CLOSED when the polygon's bounding-box height is under 10% of
    its width, NO_BLOB when no parameter triple produces a qualifying blob
    (taken as a face-alignment failure), and DETECTED otherwise with the
    winning blob's centroid. Equal-area triples resolve to the
    lexicographically smallest (threshold, opening, closing).
    """
    poly = np.asarray(eye_polygon, dtype=np.float64)
    x_min, y_min = poly.min(axis=0)
    x_max, y_max = poly.max(axis=0)
    if (y_max - y_min) < CLOSED_EYE_RATIO * (x_max - x_min):
        return PupilResult(PupilStatus.EYE_CLOSED)

    try:
        rescaled = rescale_intensity(eye_crop, poly)
    except DegenerateIntensity:
        return PupilResult(PupilStatus.NO_BLOB)

    kernel = _native.kernels()
    if kernel is None:
        found = _search(rescaled, grid)
    else:
        found = kernel.pupil_search(
            rescaled, grid.cdf_thresholds, grid.opening_windows, grid.closing_windows,
            MIN_BLOB_AREA, MIN_ASPECT,
        )
    if found is None:
        return PupilResult(PupilStatus.NO_BLOB)
    index, area, bbox, (cx, cy) = found

    # Closing can bleed a blob slightly past the polygon; the reported center
    # is pinned to the polygon's bounding box.
    cx = min(max(cx, x_min), x_max)
    cy = min(max(cy, y_min), y_max)
    params = PupilParams(
        grid.cdf_thresholds[index // 9],
        grid.opening_windows[index // 3 % 3],
        grid.closing_windows[index % 3],
    )
    return PupilResult(
        PupilStatus.DETECTED, center=(cx, cy), blob_area=area, blob_bbox=bbox,
        chosen_params=params,
    )
