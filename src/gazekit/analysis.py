"""Owlness metric, gaze-strategy partitioning, and the evaluation protocol.

The owlness of a frame is d_h / (d_h + d_p), where d_h and d_p are the
Euclidean distances of the normalized nose tip and normalized pupil from
their per-subject mean positions (the background model). Both distances live
in [0, sqrt(2)] because the normalizations map into the unit square; owlness
is therefore in [0, 1], with 1 meaning gaze shifts ride entirely on head
motion ("owl") and 0 entirely on eye motion ("lizard").

The evaluation protocol holds one subject out, trains on the rest with the
training pool subsample-balanced per class, supersample-balances the held-out
frames, classifies with confidence pruning, and repeats; accuracy is scored
over accepted decisions only. Head-only and head-and-eye modes run on
identical frame draws so their accuracies are directly comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np

from .core import (
    N_REGIONS,
    NOSE_TIP_INDEX,
    REGIONS,
    GazekitError,
    decide,
    region_index,
)
from .features import (  # normalize_* stay bound here for perfbench's tracer
    EYE_DIM,
    HEAD_DIM,
    FeatureMode,
    normalize_landmarks,
    normalize_pupil,
)
from .forest import (
    ForestConfig,
    predict_proba_batch,
    reseeded,
    subsample_indices,
    supersample_indices,
    train_arrays,
)
from .pipeline import AttritionLedger, DropReason, mode_matrix, stage_frame
from .pupil import (  # detect_pupil stays bound here for perfbench's tracer
    DEFAULT_GRID,
    ParamGrid,
    detect_pupil,
)

__all__ = [
    "InsufficientData",
    "ModeMismatch",
    "Strategy",
    "OwlnessReport",
    "row_percentages",
    "overall_accuracy",
    "classify_strategy",
    "PreparedSubject",
    "PreparedDataset",
    "prepare_dataset",
    "owlness_from_prepared",
    "EvalConfig",
    "SubjectResult",
    "StudyResult",
    "evaluate_user",
    "run_study",
    "DeltaReport",
    "accuracy_delta_report",
    "pearson",
]

DEFAULT_OWL_THRESHOLDS = (0.45, 0.55)


class InsufficientData(GazekitError):
    """A subject lacks the required pupil-passing frames for some region."""


class ModeMismatch(GazekitError):
    """A comparison requires both feature modes on identical frame sets."""


class Strategy(Enum):
    LIZARD = "lizard"
    MIXED = "mixed"
    OWL = "owl"


@dataclass(frozen=True)
class OwlnessReport:
    subject_id: str
    owlness: float        # mean per-frame owlness, in [0, 1]
    mean_head_dist: float
    mean_pupil_dist: float
    strategy: Strategy
    frame_count: int


def classify_strategy(owlness: float, thresholds=DEFAULT_OWL_THRESHOLDS) -> Strategy:
    low, high = thresholds
    if not low <= high:
        raise ValueError("owl thresholds must satisfy low <= high")
    if owlness < low:
        return Strategy.LIZARD
    if owlness > high:
        return Strategy.OWL
    return Strategy.MIXED


# A confusion matrix is a (6, 6) int64 array: rows ground truth, columns
# prediction.

def overall_accuracy(counts: np.ndarray) -> float:
    total = int(counts.sum())
    return math.nan if total == 0 else float(np.trace(counts)) / total


def row_percentages(counts: np.ndarray) -> np.ndarray:
    """Rows normalized to percent; all-zero rows become NaN."""
    sums = counts.sum(axis=1, keepdims=True).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(sums > 0, 100.0 * counts / sums, np.nan)


# ---------------------------------------------------------------------------
# Prepared datasets: pupil detection and feature extraction run once
# ---------------------------------------------------------------------------

@dataclass
class PreparedSubject:
    subject_id: str
    n_faces: int            # frames with a face, whether or not a pupil was found
    labels: np.ndarray      # (n,) region codes of the pupil-passing frames
    head: np.ndarray        # (n, 136)
    pupil_uv: np.ndarray    # (n, 2)

    def region_counts(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=N_REGIONS)


@dataclass
class PreparedDataset:
    subjects: dict[str, PreparedSubject]
    total_records: int

    @property
    def faces(self) -> int:
        return sum(s.n_faces for s in self.subjects.values())

    @property
    def pupils(self) -> int:
        return sum(s.labels.size for s in self.subjects.values())

    def subject_ids(self) -> list[str]:
        return list(self.subjects)

    def pupil_pool(self, mode: FeatureMode, subject_ids=None) -> tuple[np.ndarray, np.ndarray]:
        """Forest rows in ``mode`` and region codes of the pupil-passing
        frames of ``subject_ids`` (every subject by default), subject by
        subject in the order given."""
        ids = self.subjects if subject_ids is None else subject_ids
        chosen = [self.subjects[sid] for sid in ids]
        if not chosen:
            raise InsufficientData("no subject has a frame with a face")
        head = np.concatenate([s.head for s in chosen])
        uv = np.concatenate([s.pupil_uv for s in chosen])
        labels = np.concatenate([s.labels for s in chosen])
        return mode_matrix(head, uv, mode), labels


def prepare_dataset(
    entries: Iterable, grid: ParamGrid = DEFAULT_GRID
) -> PreparedDataset:
    """Stage every frame of a stream once, keeping what the study needs.

    Accepts anything yielding objects with a ``record`` attribute
    (:class:`~gazekit.dataio.ParsedLine`, :class:`~gazekit.synth.GeneratedFrame`)
    or bare FrameRecords / None, and consumes it lazily. Each frame goes
    through :func:`~gazekit.pipeline.stage_frame` with the pupil search on,
    so a frame counts as a face, and as passing the pupil stage, exactly
    when ``gazekit classify`` in head-and-eye mode would say so.
    """
    acc: dict[str, dict[str, list]] = {}
    total = 0
    for entry in entries:
        total += 1
        record = getattr(entry, "record", entry)
        staged = stage_frame(record, grid, search_pupil=True)
        sid = getattr(entry, "subject_id", None) if record is None else record.subject_id
        if sid is None:
            continue
        # A subject whose frames are all face failures still gets an entry.
        slot = acc.setdefault(sid, {"faces": 0, "labels": [], "head": [], "uv": []})
        if staged.drop is DropReason.NO_FACE:
            continue
        slot["faces"] += 1
        if staged.drop is None:
            slot["labels"].append(region_index(record.label))
            slot["head"].append(staged.head)
            slot["uv"].append(staged.pupil_uv)

    subjects = {
        sid: PreparedSubject(
            subject_id=sid,
            n_faces=slot["faces"],
            labels=np.array(slot["labels"], dtype=np.int64),
            head=np.array(slot["head"], dtype=np.float64).reshape(-1, HEAD_DIM),
            pupil_uv=np.array(slot["uv"], dtype=np.float64).reshape(-1, EYE_DIM),
        )
        for sid, slot in acc.items()
    }
    return PreparedDataset(subjects=subjects, total_records=total)


def nose_block(head: np.ndarray) -> np.ndarray:
    """Normalized nose-tip columns of a stacked head-feature matrix."""
    return head[:, 2 * NOSE_TIP_INDEX : 2 * NOSE_TIP_INDEX + 2]


def owlness_from_prepared(
    ds: PreparedDataset,
    backgrounds: dict | None = None,
    thresholds=DEFAULT_OWL_THRESHOLDS,
) -> dict[str, OwlnessReport]:
    """Owlness report per subject, averaged over pupil-passing frames.

    A subject's background is the pair (mean normalized nose tip, mean
    normalized pupil), by default over its own pupil-passing frames;
    ``backgrounds`` maps a subject id to another pair.
    """
    reports = {}
    for sid, subject in ds.subjects.items():
        if not subject.labels.size:
            continue
        nose = nose_block(subject.head)
        if backgrounds is None:
            mean_nose, mean_pupil = nose.mean(axis=0), subject.pupil_uv.mean(axis=0)
        else:
            mean_nose, mean_pupil = backgrounds[sid]
        d_head = np.linalg.norm(nose - mean_nose, axis=1)
        d_pupil = np.linalg.norm(subject.pupil_uv - mean_pupil, axis=1)
        total = d_head + d_pupil
        with np.errstate(invalid="ignore"):
            per_frame = np.where(total == 0.0, 0.5, d_head / total)
        owlness = float(per_frame.mean())
        reports[sid] = OwlnessReport(
            subject_id=sid,
            owlness=owlness,
            mean_head_dist=float(d_head.mean()),
            mean_pupil_dist=float(d_pupil.mean()),
            strategy=classify_strategy(owlness, thresholds),
            frame_count=subject.labels.size,
        )
    return reports


# ---------------------------------------------------------------------------
# Leave-one-subject-out evaluation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EvalConfig:
    modes: tuple[FeatureMode, ...] = (FeatureMode.HEAD_ONLY, FeatureMode.HEAD_AND_EYE)
    repetitions: int = 100
    confidence_threshold: float = 10.0
    forest: ForestConfig = ForestConfig()
    seed: int = 0
    min_frames_per_region: int = 120
    owl_thresholds: tuple[float, float] = DEFAULT_OWL_THRESHOLDS

    def __post_init__(self):
        if not self.modes:
            raise ValueError("at least one feature mode required")
        if self.repetitions < 1:
            raise ValueError("repetitions must be >= 1")
        if not self.confidence_threshold >= 1.0:
            raise ValueError("confidence_threshold must be >= 1")


@dataclass
class SubjectResult:
    """One held-out subject's scores; each dict is keyed by mode."""

    subject_id: str
    accuracies: dict[FeatureMode, np.ndarray]  # per repetition, NaN when nothing was accepted
    accepted: dict[FeatureMode, np.ndarray]    # accepted decisions per repetition
    confusions: dict[FeatureMode, np.ndarray]  # (6, 6) counts summed over repetitions
    unbalanced_accepted: int   # accepted decisions in one plain pass (ledger row)

    def mean(self, mode: FeatureMode) -> float:
        acc = self.accuracies[mode]
        return float(np.nanmean(acc)) if np.any(~np.isnan(acc)) else math.nan

    def std(self, mode: FeatureMode) -> float:
        acc = self.accuracies[mode]
        return float(np.nanstd(acc)) if np.any(~np.isnan(acc)) else math.nan


@dataclass
class StudyResult:
    config: EvalConfig
    subjects: list[SubjectResult]
    confusions: dict[FeatureMode, np.ndarray]  # (6, 6) counts summed over subjects
    owlness: dict[str, OwlnessReport]
    ledger: AttritionLedger


def check_sufficiency(ds: PreparedDataset, min_frames_per_region: int):
    for sid, subject in ds.subjects.items():
        counts = subject.region_counts()
        for code, count in enumerate(counts):
            if count < min_frames_per_region:
                raise InsufficientData(
                    f"subject {sid!r} has {int(count)} pupil-passing frames for "
                    f"region {REGIONS[code].value!r}, fewer than the required "
                    f"{min_frames_per_region}"
                )


def _check_study(ds: PreparedDataset, cfg: EvalConfig):
    if len(ds.subjects) < 2:
        raise InsufficientData("leave-one-out evaluation needs at least 2 subjects")
    check_sufficiency(ds, cfg.min_frames_per_region)


def evaluate_user(
    subject_id: str,
    ds: PreparedDataset,
    cfg: EvalConfig,
) -> SubjectResult:
    """Hold one subject out, train on the rest, score with pruning.

    Each repetition redraws the balanced training subsample, the balanced
    test supersample, and the forest seed; both modes see identical draws.
    """
    _check_study(ds, cfg)
    user_index = ds.subject_ids().index(subject_id)
    others = [sid for sid in ds.subject_ids() if sid != subject_id]
    pool = {mode: ds.pupil_pool(mode, others) for mode in cfg.modes}
    held = {mode: ds.pupil_pool(mode, [subject_id]) for mode in cfg.modes}
    pool_labels = pool[cfg.modes[0]][1]
    held_labels = held[cfg.modes[0]][1]

    accuracies = {mode: np.full(cfg.repetitions, math.nan) for mode in cfg.modes}
    accepted = {mode: np.zeros(cfg.repetitions, dtype=np.int64) for mode in cfg.modes}
    confusions = {mode: np.zeros((N_REGIONS, N_REGIONS), dtype=np.int64) for mode in cfg.modes}
    unbalanced_accepted = 0
    primary = (
        FeatureMode.HEAD_AND_EYE if FeatureMode.HEAD_AND_EYE in cfg.modes else cfg.modes[0]
    )

    for rep in range(cfg.repetitions):
        rng = np.random.default_rng((cfg.seed & ((1 << 64) - 1), user_index, rep))
        train_sel = subsample_indices(pool_labels, N_REGIONS, rng)
        test_sel = supersample_indices(held_labels, N_REGIONS, rng)
        truth = held_labels[test_sel]
        for mode_idx, mode in enumerate(cfg.modes):
            forest_cfg = reseeded(cfg.forest, cfg.seed, user_index, rep, mode_idx)
            model = train_arrays(
                pool[mode][0][train_sel], pool_labels[train_sel], REGIONS, forest_cfg
            )
            probs = predict_proba_batch(model, held[mode][0])  # each held-out frame once
            predicted, _, keep = decide(probs, cfg.confidence_threshold)
            if rep == 0 and mode is primary:
                unbalanced_accepted = int(keep.sum())
            predicted, keep = predicted[test_sel], keep[test_sel]
            accepted[mode][rep] = int(keep.sum())
            if keep.any():
                accuracies[mode][rep] = float((predicted[keep] == truth[keep]).mean())
                np.add.at(confusions[mode], (truth[keep], predicted[keep]), 1)
    return SubjectResult(subject_id, accuracies, accepted, confusions, unbalanced_accepted)


def run_study(ds: PreparedDataset, cfg: EvalConfig) -> StudyResult:
    """Leave-one-subject-out over every subject, both modes, plus owlness.

    The ledger's confident row counts accepted decisions from one plain
    (unbalanced, single-repetition) pass per held-out subject, so it stays
    comparable with the raw face/pupil attrition counts.
    """
    _check_study(ds, cfg)
    owlness = owlness_from_prepared(ds, thresholds=cfg.owl_thresholds)
    subjects = [evaluate_user(sid, ds, cfg) for sid in ds.subject_ids()]
    ledger = AttritionLedger(
        total_frames=ds.total_records,
        faces_detected=ds.faces,
        pupils_detected=ds.pupils,
        confident_decisions=sum(s.unbalanced_accepted for s in subjects),
    )
    return StudyResult(
        config=cfg,
        subjects=subjects,
        confusions={mode: sum(s.confusions[mode] for s in subjects) for mode in cfg.modes},
        owlness=owlness,
        ledger=ledger,
    )


# ---------------------------------------------------------------------------
# Accuracy deltas and the owlness correlation
# ---------------------------------------------------------------------------

def pearson(xs, ys) -> tuple[float, bool]:
    """Pearson r and whether it is defined (every value finite, variance on
    both sides, n >= 2)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size != ys.size:
        raise ValueError("paired samples required")
    finite = np.isfinite(xs).all() and np.isfinite(ys).all()
    if not finite or xs.size < 2 or np.std(xs) == 0.0 or np.std(ys) == 0.0:
        return math.nan, False
    return float(np.corrcoef(xs, ys)[0, 1]), True


@dataclass
class DeltaReport:
    """Head-and-eye minus head-only accuracy, per region and per user."""

    per_region: list[tuple[str, float, float, float]]  # region, head, head+eye, delta
    per_user: list[tuple[str, float, float]]           # subject, owlness, delta
    pearson_r: float
    pearson_defined: bool
    overall_head_only: float
    overall_head_eye: float

    @property
    def overall_delta(self) -> float:
        return self.overall_head_eye - self.overall_head_only


def accuracy_delta_report(study: StudyResult) -> DeltaReport:
    if (
        FeatureMode.HEAD_ONLY not in study.confusions
        or FeatureMode.HEAD_AND_EYE not in study.confusions
    ):
        raise ModeMismatch("delta report needs both head-only and head-and-eye results")
    cm_head = study.confusions[FeatureMode.HEAD_ONLY]
    cm_both = study.confusions[FeatureMode.HEAD_AND_EYE]
    acc_head = np.diagonal(row_percentages(cm_head)) / 100.0
    acc_both = np.diagonal(row_percentages(cm_both)) / 100.0
    per_region = [
        (
            region.value,
            float(acc_head[i]),
            float(acc_both[i]),
            float(acc_both[i] - acc_head[i]),
        )
        for i, region in enumerate(REGIONS)
    ]
    per_user = []
    for subject in study.subjects:
        delta = subject.mean(FeatureMode.HEAD_AND_EYE) - subject.mean(FeatureMode.HEAD_ONLY)
        owl = study.owlness[subject.subject_id].owlness
        per_user.append((subject.subject_id, owl, float(delta)))
    r, defined = pearson([m for _, m, _ in per_user], [d for _, _, d in per_user])
    return DeltaReport(
        per_region=per_region,
        per_user=per_user,
        pearson_r=r,
        pearson_defined=defined,
        overall_head_only=overall_accuracy(cm_head),
        overall_head_eye=overall_accuracy(cm_both),
    )
