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
    "MissingBackground",
    "InsufficientData",
    "ModeMismatch",
    "Strategy",
    "SubjectBackground",
    "BackgroundModel",
    "OwlnessReport",
    "ConfusionMatrix",
    "classify_strategy",
    "PreparedSubject",
    "PreparedDataset",
    "prepare_dataset",
    "background_from_prepared",
    "owlness_from_prepared",
    "EvalConfig",
    "ModeStats",
    "UserEvaluation",
    "StudyResult",
    "evaluate_user",
    "run_study",
    "DeltaReport",
    "accuracy_delta_report",
    "pearson",
]

DEFAULT_OWL_THRESHOLDS = (0.45, 0.55)


class MissingBackground(GazekitError):
    """No background model exists for the requested subject."""


class InsufficientData(GazekitError):
    """A subject lacks the required pupil-passing frames for some region."""


class ModeMismatch(GazekitError):
    """A comparison requires both feature modes on identical frame sets."""


class Strategy(Enum):
    LIZARD = "lizard"
    MIXED = "mixed"
    OWL = "owl"


@dataclass(frozen=True)
class SubjectBackground:
    """Per-subject mean normalized nose-tip and pupil positions."""

    mean_nose: tuple[float, float]
    mean_pupil: tuple[float, float]
    frame_count: int

    def __post_init__(self):
        if self.frame_count < 1:
            raise ValueError("background model needs at least one frame")


@dataclass(frozen=True)
class BackgroundModel:
    subjects: dict[str, SubjectBackground]

    def for_subject(self, subject_id: str) -> SubjectBackground:
        try:
            return self.subjects[subject_id]
        except KeyError:
            raise MissingBackground(f"no background model for subject {subject_id!r}") from None


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


class ConfusionMatrix:
    """6x6 counts, rows = ground truth, columns = prediction."""

    def __init__(self, counts=None):
        self.counts = (
            np.zeros((N_REGIONS, N_REGIONS), dtype=np.int64)
            if counts is None
            else np.array(counts, dtype=np.int64)
        )
        if self.counts.shape != (N_REGIONS, N_REGIONS):
            raise ValueError("confusion matrix must be 6x6")

    def add(self, truth_codes, predicted_codes):
        np.add.at(self.counts, (np.asarray(truth_codes), np.asarray(predicted_codes)), 1)

    def merge(self, other: "ConfusionMatrix"):
        self.counts += other.counts

    def total(self) -> int:
        return int(self.counts.sum())

    def overall_accuracy(self) -> float:
        total = self.total()
        return math.nan if total == 0 else float(np.trace(self.counts)) / total

    def row_percentages(self) -> np.ndarray:
        """Rows normalized to percent; all-zero rows become NaN."""
        sums = self.counts.sum(axis=1, keepdims=True).astype(np.float64)
        with np.errstate(invalid="ignore", divide="ignore"):
            return np.where(sums > 0, 100.0 * self.counts / sums, np.nan)

    def per_region_accuracy(self) -> np.ndarray:
        return np.diagonal(self.row_percentages()) / 100.0


# ---------------------------------------------------------------------------
# Prepared datasets: pupil detection and feature extraction run once
# ---------------------------------------------------------------------------

@dataclass
class PreparedSubject:
    subject_id: str
    labels: np.ndarray      # (n,) region codes of the frames with a face
    head: np.ndarray        # (n, 136)
    pupil_uv: np.ndarray    # (n, 2); NaN where the pupil stage failed
    pupil_ok: np.ndarray    # (n,) bool

    @property
    def n_faces(self) -> int:
        return int(self.labels.size)

    @property
    def n_pupils(self) -> int:
        return int(self.pupil_ok.sum())

    def region_counts(self) -> np.ndarray:
        return np.bincount(self.labels[self.pupil_ok], minlength=N_REGIONS)


@dataclass
class PreparedDataset:
    subjects: dict[str, PreparedSubject]
    total_records: int

    @property
    def faces(self) -> int:
        return sum(s.n_faces for s in self.subjects.values())

    @property
    def pupils(self) -> int:
        return sum(s.n_pupils for s in self.subjects.values())

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
        head = np.concatenate([s.head[s.pupil_ok] for s in chosen])
        uv = np.concatenate([s.pupil_uv[s.pupil_ok] for s in chosen])
        labels = np.concatenate([s.labels[s.pupil_ok] for s in chosen])
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
        slot = acc.setdefault(sid, {"labels": [], "head": [], "uv": [], "ok": []})
        if staged.drop is DropReason.NO_FACE:
            continue
        ok = staged.drop is None
        slot["labels"].append(region_index(record.label))
        slot["head"].append(staged.head)
        slot["uv"].append(staged.pupil_uv if ok else (math.nan, math.nan))
        slot["ok"].append(ok)

    subjects = {
        sid: PreparedSubject(
            subject_id=sid,
            labels=np.array(slot["labels"], dtype=np.int64),
            head=np.array(slot["head"], dtype=np.float64).reshape(-1, HEAD_DIM),
            pupil_uv=np.array(slot["uv"], dtype=np.float64).reshape(-1, EYE_DIM),
            pupil_ok=np.array(slot["ok"], dtype=bool),
        )
        for sid, slot in acc.items()
    }
    return PreparedDataset(subjects=subjects, total_records=total)


def background_from_prepared(ds: PreparedDataset) -> BackgroundModel:
    subjects = {}
    for sid, subject in ds.subjects.items():
        ok = subject.pupil_ok
        if not ok.any():
            continue
        noses = nose_block(subject.head[ok])
        subjects[sid] = SubjectBackground(
            mean_nose=tuple(noses.mean(axis=0)),
            mean_pupil=tuple(subject.pupil_uv[ok].mean(axis=0)),
            frame_count=int(ok.sum()),
        )
    return BackgroundModel(subjects=subjects)


def nose_block(head: np.ndarray) -> np.ndarray:
    """Normalized nose-tip columns of a stacked head-feature matrix."""
    return head[:, 2 * NOSE_TIP_INDEX : 2 * NOSE_TIP_INDEX + 2]


def owlness_from_prepared(
    ds: PreparedDataset,
    bg: BackgroundModel | None = None,
    thresholds=DEFAULT_OWL_THRESHOLDS,
) -> dict[str, OwlnessReport]:
    """Owlness report per subject, averaged over pupil-passing frames."""
    bg = bg or background_from_prepared(ds)
    reports = {}
    for sid, subject in ds.subjects.items():
        ok = subject.pupil_ok
        if not ok.any():
            continue
        background = bg.for_subject(sid)
        noses = nose_block(subject.head[ok])
        d_head = np.linalg.norm(noses - background.mean_nose, axis=1)
        d_pupil = np.linalg.norm(subject.pupil_uv[ok] - background.mean_pupil, axis=1)
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
            frame_count=int(ok.sum()),
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
class ModeStats:
    """Accuracy distribution for one (subject, mode) over repetitions."""

    mode: FeatureMode
    accuracies: np.ndarray     # (repetitions,), NaN when nothing was accepted
    accepted_counts: np.ndarray
    evaluated_counts: np.ndarray

    @property
    def mean(self) -> float:
        return float(np.nanmean(self.accuracies)) if np.any(~np.isnan(self.accuracies)) else math.nan

    @property
    def std(self) -> float:
        return float(np.nanstd(self.accuracies)) if np.any(~np.isnan(self.accuracies)) else math.nan


@dataclass
class UserEvaluation:
    subject_id: str
    stats: dict[FeatureMode, ModeStats]
    unbalanced_accepted: int   # accepted decisions in one plain pass (ledger row)


@dataclass
class StudyResult:
    config: EvalConfig
    users: list[UserEvaluation]
    confusions: dict[FeatureMode, ConfusionMatrix]
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
) -> tuple[UserEvaluation, dict[FeatureMode, ConfusionMatrix]]:
    """Hold one subject out, train on the rest, score with pruning.

    Each repetition redraws the balanced training subsample, the balanced
    test supersample, and the forest seed; both modes see identical draws.
    Returns the per-user stats and that user's confusion contributions.
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
    evaluated = {mode: np.zeros(cfg.repetitions, dtype=np.int64) for mode in cfg.modes}
    confusions = {mode: ConfusionMatrix() for mode in cfg.modes}
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
            evaluated[mode][rep] = truth.size
            accepted[mode][rep] = int(keep.sum())
            if keep.any():
                accuracies[mode][rep] = float((predicted[keep] == truth[keep]).mean())
                confusions[mode].add(truth[keep], predicted[keep])

    stats = {
        mode: ModeStats(
            mode=mode,
            accuracies=accuracies[mode],
            accepted_counts=accepted[mode],
            evaluated_counts=evaluated[mode],
        )
        for mode in cfg.modes
    }
    return (
        UserEvaluation(
            subject_id=subject_id, stats=stats, unbalanced_accepted=unbalanced_accepted
        ),
        confusions,
    )


def run_study(ds: PreparedDataset, cfg: EvalConfig) -> StudyResult:
    """Leave-one-subject-out over every subject, both modes, plus owlness.

    The ledger's confident row counts accepted decisions from one plain
    (unbalanced, single-repetition) pass per held-out subject, so it stays
    comparable with the raw face/pupil attrition counts.
    """
    _check_study(ds, cfg)
    owlness = owlness_from_prepared(ds, thresholds=cfg.owl_thresholds)
    users = []
    confusions = {mode: ConfusionMatrix() for mode in cfg.modes}
    confident = 0
    for sid in ds.subject_ids():
        evaluation, contributions = evaluate_user(sid, ds, cfg)
        users.append(evaluation)
        for mode in cfg.modes:
            confusions[mode].merge(contributions[mode])
        confident += evaluation.unbalanced_accepted
    ledger = AttritionLedger(
        total_frames=ds.total_records,
        faces_detected=ds.faces,
        pupils_detected=ds.pupils,
        confident_decisions=confident,
    )
    return StudyResult(
        config=cfg,
        users=users,
        confusions=confusions,
        owlness=owlness,
        ledger=ledger,
    )


# ---------------------------------------------------------------------------
# Accuracy deltas and the owlness correlation
# ---------------------------------------------------------------------------

def pearson(xs, ys) -> tuple[float, bool]:
    """Pearson r and whether it is defined (variance on both sides, n >= 2)."""
    xs = np.asarray(xs, dtype=np.float64)
    ys = np.asarray(ys, dtype=np.float64)
    if xs.size != ys.size:
        raise ValueError("paired samples required")
    if xs.size < 2 or np.std(xs) == 0.0 or np.std(ys) == 0.0:
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
    acc_head = cm_head.per_region_accuracy()
    acc_both = cm_both.per_region_accuracy()
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
    for user in study.users:
        delta = user.stats[FeatureMode.HEAD_AND_EYE].mean - user.stats[FeatureMode.HEAD_ONLY].mean
        owl = study.owlness[user.subject_id].owlness
        per_user.append((user.subject_id, owl, float(delta)))
    r, defined = pearson([m for _, m, _ in per_user], [d for _, _, d in per_user])
    return DeltaReport(
        per_region=per_region,
        per_user=per_user,
        pearson_r=r,
        pearson_defined=defined,
        overall_head_only=cm_head.overall_accuracy(),
        overall_head_eye=cm_both.overall_accuracy(),
    )
