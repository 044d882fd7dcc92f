"""Synthetic driver populations with known gaze strategies.

Each subject has a head gain in [0, 1]: the fraction of every gaze shift
expressed as head motion (1 = pure "owl"), with the remainder expressed as
pupil motion inside the eye ("lizard"). Head motion is modeled as a weighted
displacement of the nose, jaw, brow, and mouth landmarks against static eyes,
which changes the relative landmark geometry the way an out-of-plane head
rotation does while keeping the eyes-and-nose normalizing box fixed. The
per-axis pupil gains are matched to the head gains in normalized feature
units, so the measured owlness of a noise-free subject equals its head gain
by construction.

Landmark jitter is scaled per face region: eye corners are the most stable
alignment outputs in practice, the jawline, brows, and mouth the noisiest.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from .core import REGIONS, FrameRecord, GazeRegion, GrayImage, Landmarks, region_index

__all__ = [
    "SubjectProfile",
    "REGION_TARGETS",
    "GeneratedFrame",
    "FACE_TEMPLATE",
    "HEAD_MOTION_WEIGHTS",
    "JITTER_SCALE",
    "render_eye_crop",
    "generate_frame",
    "iter_subject_frames",
    "population_profiles",
    "population_frames",
    "generate_population",
]

_SEED_MASK = (1 << 64) - 1


def _build_template() -> np.ndarray:
    pts = np.zeros((68, 2))
    # jawline: 17 points on a lower semi-ellipse, temple to temple
    theta = np.linspace(np.pi, 0.0, 17)
    pts[0:17, 0] = 100 + 55 * np.cos(theta)
    pts[0:17, 1] = 95 + 50 * np.sin(theta)
    # eyebrows
    pts[17:22, 0] = np.linspace(56, 88, 5)
    pts[17:22, 1] = [88, 85, 84, 85, 87]
    pts[22:27, 0] = np.linspace(112, 144, 5)
    pts[22:27, 1] = [87, 85, 84, 85, 88]
    # nose bridge and base
    pts[27:31] = [(100, 98), (100, 104), (100, 109), (100, 114)]
    pts[31:36] = [(94, 122), (97, 123), (100, 124), (103, 123), (106, 122)]
    # image-right eye, point 0 = outer corner, point 3 = inner corner
    pts[36:42] = [(147, 100), (137, 93), (127, 93), (117, 100), (127, 107), (137, 107)]
    # image-left eye, mirrored
    pts[42:48] = [(53, 100), (63, 93), (73, 93), (83, 100), (73, 107), (63, 107)]
    # mouth: outer ring of 12, inner ring of 8
    t_outer = np.linspace(0, 2 * np.pi, 12, endpoint=False) + np.pi
    pts[48:60, 0] = 100 + 16 * np.cos(t_outer)
    pts[48:60, 1] = 133 + 7 * np.sin(t_outer)
    t_inner = np.linspace(0, 2 * np.pi, 8, endpoint=False) + np.pi
    pts[60:68, 0] = 100 + 9 * np.cos(t_inner)
    pts[60:68, 1] = 133 + 3 * np.sin(t_inner)
    pts.flags.writeable = False
    return pts


def _build_weights() -> np.ndarray:
    w = np.zeros(68)
    w[0:17] = 0.35                                # jaw swings with the head
    w[17:27] = 0.30                               # brows
    w[27:31] = [0.20, 0.55, 0.85, 1.00]           # nose tapers toward the tip
    w[31:36] = 0.0                                # nose base anchors the box
    w[36:48] = 0.0                                # eyes anchor the box
    w[48:68] = 0.25                               # mouth
    w.flags.writeable = False
    return w


def _build_jitter_scale() -> np.ndarray:
    s = np.ones(68)
    s[0:17] = 1.6   # jawline: the noisiest alignment outputs
    s[17:27] = 1.6  # brows
    s[27:36] = 0.7  # nose
    s[36:48] = 0.3  # eye outlines: most stable
    s[48:68] = 1.6  # mouth
    s.flags.writeable = False
    return s


FACE_TEMPLATE = _build_template()
HEAD_MOTION_WEIGHTS = _build_weights()
JITTER_SCALE = _build_jitter_scale()

_EYE = FACE_TEMPLATE[36:42]
_EYE_CENTER = (_EYE[0] + _EYE[3]) / 2.0
_EYE_W = _EYE[:, 0].max() - _EYE[:, 0].min()
_EYE_H = _EYE[:, 1].max() - _EYE[:, 1].min()
_BOX = FACE_TEMPLATE[27:48]
_BOX_W = _BOX[:, 0].max() - _BOX[:, 0].min()
_BOX_H = _BOX[:, 1].max() - _BOX[:, 1].min()
# Pupil pixels per head-motion pixel, per axis: equal displacement in
# normalized feature units once the head box and eye box rescale their own
# coordinates.
_PUPIL_GAIN = np.array([_EYE_W / _BOX_W, _EYE_H / _BOX_H])

_OCCLUSION_SQUASH = 0.08  # eye height factor for "closed" frames


# Per-region 2D gaze displacement in normalized units, rows in REGIONS order,
# road at the origin. Center stack and instrument cluster sit deliberately
# close to road so that low-head-motion subjects confuse them, as real drivers
# do.
REGION_TARGETS = np.array(
    [
        [0.00, 0.00],   # road
        [0.35, 0.50],   # center stack
        [0.00, 0.45],   # instrument cluster
        [0.45, -0.35],  # rearview mirror
        [-1.00, 0.05],  # left
        [1.00, 0.10],   # right
    ]
)
REGION_TARGETS.flags.writeable = False

PUPIL_RADIUS = 3.0         # px, on the eye crop
CROP_MARGIN = 5            # px of crop around the eye landmarks
BACKGROUND_INTENSITY = 205
PUPIL_INTENSITY = 40


@dataclass(frozen=True)
class SubjectProfile:
    """Generator knobs for one synthetic driver."""

    subject_id: str
    head_gain: float                 # alpha: 1 = owl, 0 = lizard
    head_motion_px: float = 14.0     # landmark pixels per unit gaze displacement
    landmark_jitter: float = 1.0     # px, scaled per face region
    image_noise: float = 8.0         # grayscale sigma on the eye crop
    p_face_fail: float = 0.0
    p_pupil_fail: float = 0.0

    def __post_init__(self):
        if not 0.0 <= self.head_gain <= 1.0:
            raise ValueError("head_gain must be in [0, 1]")
        if self.landmark_jitter < 0 or self.image_noise < 0:
            raise ValueError("noise levels must be >= 0")
        for name in ("p_face_fail", "p_pupil_fail"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")


@dataclass(frozen=True)
class GeneratedFrame:
    """One synthetic frame plus its generator ground truth."""

    subject_id: str
    frame_index: int
    label: GazeRegion
    record: FrameRecord | None        # None = simulated face-detection failure
    true_pupil: tuple[float, float] | None  # eye-crop coordinates
    occluded: bool

    @property
    def face_failed(self) -> bool:
        return self.record is None


def render_eye_crop(
    width: int,
    height: int,
    pupil_center: tuple[float, float] | None,
    radius: float,
    rng: np.random.Generator,
    noise_sigma: float = 0.0,
) -> GrayImage:
    """Bright crop with an optional dark pupil disk and Gaussian noise."""
    img = np.full((height, width), float(BACKGROUND_INTENSITY))
    if pupil_center is not None:
        cols, rows = np.meshgrid(np.arange(width, dtype=float), np.arange(height, dtype=float))
        disk = (cols - pupil_center[0]) ** 2 + (rows - pupil_center[1]) ** 2 <= radius**2
        img[disk] = float(PUPIL_INTENSITY)
    if noise_sigma > 0:
        img += rng.normal(0.0, noise_sigma, size=img.shape)
    return GrayImage(np.rint(np.clip(img, 0, 255)).astype(np.uint8))


def generate_frame(
    profile: SubjectProfile,
    region: GazeRegion,
    frame_index: int,
    rng: np.random.Generator,
) -> GeneratedFrame:
    """Render one frame for ``region`` under the subject's gaze strategy."""
    if rng.uniform() < profile.p_face_fail:
        return GeneratedFrame(profile.subject_id, frame_index, region, None, None, False)
    occluded = rng.uniform() < profile.p_pupil_fail

    g = REGION_TARGETS[region_index(region)]
    head_shift = profile.head_gain * profile.head_motion_px * g
    points = FACE_TEMPLATE + HEAD_MOTION_WEIGHTS[:, None] * head_shift
    pupil_face = _EYE_CENTER + (1.0 - profile.head_gain) * profile.head_motion_px * _PUPIL_GAIN * g

    if profile.landmark_jitter > 0:
        points = points + rng.normal(0.0, 1.0, (68, 2)) * (
            profile.landmark_jitter * JITTER_SCALE[:, None]
        )

    if occluded:
        eye_y = points[36:42, 1]
        points = points.copy()
        points[36:42, 1] = eye_y.mean() + (eye_y - eye_y.mean()) * _OCCLUSION_SQUASH

    eye_pts = points[36:42]
    x0 = int(np.floor(eye_pts[:, 0].min())) - CROP_MARGIN
    y0 = int(np.floor(eye_pts[:, 1].min())) - CROP_MARGIN
    x1 = int(np.ceil(eye_pts[:, 0].max())) + CROP_MARGIN
    y1 = int(np.ceil(eye_pts[:, 1].max())) + CROP_MARGIN
    width, height = x1 - x0, y1 - y0

    pupil_crop = None if occluded else (pupil_face[0] - x0, pupil_face[1] - y0)
    crop = render_eye_crop(
        width, height, pupil_crop, PUPIL_RADIUS, rng, noise_sigma=profile.image_noise
    )
    record = FrameRecord(
        subject_id=profile.subject_id,
        frame_index=frame_index,
        landmarks=Landmarks(points),
        eye_crop=crop,
        eye_polygon=eye_pts - (x0, y0),
        label=region,
    )
    return GeneratedFrame(profile.subject_id, frame_index, region, record, pupil_crop, occluded)


def iter_subject_frames(
    profile: SubjectProfile,
    frames_per_region: int,
    rng: np.random.Generator,
) -> Iterator[GeneratedFrame]:
    """All frames for one subject: ``frames_per_region`` per region, in region order."""
    index = 0
    for region in REGIONS:
        for _ in range(frames_per_region):
            yield generate_frame(profile, region, index, rng)
            index += 1


def population_profiles(
    n_subjects: int,
    seed: int,
    alphas: Sequence[float] | None = None,
    **profile_overrides,
) -> list[SubjectProfile]:
    """Profiles for a population; head gains drawn uniformly unless given."""
    if n_subjects < 1:
        raise ValueError("n_subjects must be >= 1")
    if alphas is None:
        alpha_rng = np.random.default_rng((seed & _SEED_MASK, 0xA1FA))
        alphas = alpha_rng.uniform(0.0, 1.0, size=n_subjects)
    elif len(alphas) != n_subjects:
        raise ValueError(f"need {n_subjects} head gains, got {len(alphas)}")
    width = max(2, len(str(n_subjects - 1)))
    return [
        SubjectProfile(
            subject_id=f"s{i:0{width}d}", head_gain=float(alphas[i]), **profile_overrides
        )
        for i in range(n_subjects)
    ]


def population_frames(
    n_subjects: int,
    frames_per_region: int,
    seed: int,
    alphas: Sequence[float] | None = None,
    **profile_overrides,
) -> Iterator[GeneratedFrame]:
    """Stream every frame of a deterministic synthetic population."""
    profiles = population_profiles(n_subjects, seed, alphas, **profile_overrides)
    for index, profile in enumerate(profiles):
        rng = np.random.default_rng((seed & _SEED_MASK, index))
        yield from iter_subject_frames(profile, frames_per_region, rng)


def generate_population(
    out_dir,
    n_subjects: int,
    frames_per_region: int,
    seed: int,
    alphas: Sequence[float] | None = None,
    **profile_overrides,
) -> dict:
    """Write a population dataset to disk and return its manifest.

    Requires at least 120 frames per region so every subject satisfies the
    evaluation protocol's sufficiency rule.
    """
    from . import dataio

    if frames_per_region < 120:
        raise ValueError("frames_per_region must be >= 120")
    # An unusable out_dir fails here, before a large population is drawn.
    Path(out_dir).mkdir(parents=True, exist_ok=True)
    profiles = population_profiles(n_subjects, seed, alphas, **profile_overrides)
    frames = population_frames(
        n_subjects,
        frames_per_region,
        seed,
        alphas=[p.head_gain for p in profiles],
        **profile_overrides,
    )
    meta = {
        "n_subjects": n_subjects,
        "frames_per_region": frames_per_region,
        "seed": seed,
        "head_gains": {p.subject_id: p.head_gain for p in profiles},
    }
    return dataio.write_dataset(out_dir, frames, meta)
