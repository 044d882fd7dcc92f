"""Command-line interface: synth, train, evaluate, classify.

Exit codes: 0 success, 2 usage or configuration error, 3 data error,
4 internal invariant violation. Every command is deterministic given its
flags and seed. An optional JSON config file supplies defaults for any long
flag (underscored key names); explicit flags win.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, dataio, reports, synth
from .core import DataFormatError, GazekitError, REGIONS
from .features import EYE_DIM, HEAD_DIM, FeatureMode
from .forest import (
    EmptyClass,
    EmptyTrainingSet,
    ForestConfig,
    derive_seed,
    subsample_indices,
    train_arrays,
)
from .pipeline import (  # classify_frame stays bound here for perfbench's tracer
    AttritionLedger,
    DropReason,
    PipelineConfig,
    classify_batch,
    classify_frame,
)
from .pupil import DEFAULT_GRID, ParamGrid

__all__ = ["main", "build_parser"]


class UsageError(GazekitError):
    """Bad flag/config combination; maps to exit code 2."""


_DATA_ERRORS = (
    DataFormatError,
    analysis.InsufficientData,
    analysis.MissingBackground,
    analysis.ModeMismatch,
    EmptyClass,
    EmptyTrainingSet,
    OSError,
)


def _parse_owl_thresholds(raw: str) -> tuple[float, float]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise UsageError("--owl-thresholds expects two comma-separated values")
    try:
        low, high = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"--owl-thresholds: {exc}") from None
    if not low <= high:
        raise UsageError("--owl-thresholds must satisfy low <= high")
    return low, high


def _parse_pupil_grid(raw: str) -> ParamGrid:
    parts = raw.split(",")
    if len(parts) != 9:
        raise UsageError("--pupil-grid expects 9 comma-separated values")
    try:
        thresholds = tuple(float(p) for p in parts[:3])
        openings = tuple(int(p) for p in parts[3:6])
        closings = tuple(int(p) for p in parts[6:9])
        return ParamGrid(thresholds, openings, closings)
    except ValueError as exc:
        raise UsageError(f"--pupil-grid: {exc}") from None


def _parse_alphas(raw: str) -> list[float]:
    try:
        return [float(p) for p in raw.split(",")]
    except ValueError as exc:
        raise UsageError(f"--alphas: {exc}") from None


_COMMON_DEFAULTS = {
    "seed": 0,
    "pupil_grid": None,
    "config": None,
}

_DEFAULTS = {
    "synth": {
        **_COMMON_DEFAULTS,
        "subjects": 40,
        "frames_per_region": 120,
        "alphas": None,
        "head_motion": 7.0,
        "landmark_jitter": 1.0,
        "image_noise": 8.0,
        "p_face_fail": 0.0,
        "p_pupil_fail": 0.0,
        "out": None,
    },
    "train": {
        **_COMMON_DEFAULTS,
        "data": None,
        "out": None,
        "mode": "head-eye",
        "trees": 2000,
        "depth": 25,
        "min_leaf": 1,
        "min_frames": 120,
    },
    "evaluate": {
        **_COMMON_DEFAULTS,
        "data": None,
        "out": None,
        "mode": "both",
        "trees": 2000,
        "depth": 25,
        "min_leaf": 1,
        "min_frames": 120,
        "repetitions": 100,
        "confidence_threshold": 10.0,
        "owl_thresholds": "0.45,0.55",
        "fps": 30.0,
        "plots": False,
    },
    "classify": {
        **_COMMON_DEFAULTS,
        "model": None,
        "data": None,
        "out": None,
        "confidence_threshold": 10.0,
    },
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gazekit", description="Driver gaze-region classification toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser):
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--config", type=Path, default=None, help="JSON config file")
        p.add_argument(
            "--pupil-grid",
            default=None,
            help="9 comma-separated values: 3 CDF thresholds, 3 opening windows, 3 closing windows",
        )

    p = sub.add_parser("synth", help="generate a synthetic driver population")
    common(p)
    p.add_argument("--subjects", type=int, default=None)
    p.add_argument("--frames-per-region", type=int, default=None)
    p.add_argument("--alphas", default=None, help="comma-separated head gains, one per subject")
    p.add_argument("--head-motion", type=float, default=None)
    p.add_argument("--landmark-jitter", type=float, default=None)
    p.add_argument("--image-noise", type=float, default=None)
    p.add_argument("--p-face-fail", type=float, default=None)
    p.add_argument("--p-pupil-fail", type=float, default=None)
    p.add_argument("--out", type=Path, required=True, help="output dataset directory")

    p = sub.add_parser("train", help="train a gaze-region model on a dataset")
    common(p)
    p.add_argument("--data", type=Path, required=True, help="dataset directory or frames.jsonl")
    p.add_argument("--out", type=Path, required=True, help="model file to write")
    p.add_argument("--mode", choices=["head-only", "head-eye"], default=None)
    p.add_argument("--trees", type=int, default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--min-leaf", type=int, default=None)
    p.add_argument("--min-frames", type=int, default=None)

    p = sub.add_parser("evaluate", help="leave-one-subject-out evaluation with reports")
    common(p)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="report directory")
    p.add_argument("--mode", choices=["head-only", "head-eye", "both"], default=None)
    p.add_argument("--trees", type=int, default=None)
    p.add_argument("--depth", type=int, default=None)
    p.add_argument("--min-leaf", type=int, default=None)
    p.add_argument("--min-frames", type=int, default=None)
    p.add_argument("--repetitions", type=int, default=None)
    p.add_argument("--confidence-threshold", type=float, default=None)
    p.add_argument("--owl-thresholds", default=None, help="low,high partition values")
    p.add_argument("--fps", type=float, default=None)
    p.add_argument("--plots", action="store_const", const=True, default=None)

    p = sub.add_parser("classify", help="stream per-frame decisions for a dataset")
    common(p)
    p.add_argument("--model", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, required=True, help="decisions JSONL to write")
    p.add_argument("--confidence-threshold", type=float, default=None)

    return parser


# Range of each numeric setting: lowest value, whether that value itself is
# allowed, and highest value (inclusive) if any. The population generator,
# the forest, the study, the pruning rule and the rate report refuse
# anything outside, and some would only do so after the pupil stage.
_RANGES = {
    "subjects": (1, True, None),
    "frames_per_region": (120, True, None),
    "p_face_fail": (0.0, True, 1.0),
    "p_pupil_fail": (0.0, True, 1.0),
    "landmark_jitter": (0.0, True, None),
    "image_noise": (0.0, True, None),
    "trees": (1, True, None),
    "depth": (1, True, None),
    "min_leaf": (1, True, None),
    "repetitions": (1, True, None),
    "confidence_threshold": (1.0, True, None),
    "fps": (0.0, False, None),
}


def _check_range(key: str, value):
    low, inclusive, high = _RANGES[key]
    above = value >= low if inclusive else value > low
    if not (above and (high is None or value <= high)):  # NaN fails too
        if high is None:
            wanted = f"{'>=' if inclusive else '>'} {low}"
        else:
            wanted = f"in [{low}, {high}]"
        raise UsageError(f"--{key.replace('_', '-')} must be {wanted}, got {value}")


def _check_config_type(key: str, value, default):
    """A config-file value must have its default's type; an int may stand
    for a float. Keys whose default is None take any value."""
    if default is None:
        return
    if isinstance(default, bool) or isinstance(value, bool):
        ok = type(value) is type(default)
    elif isinstance(default, float):
        ok = isinstance(value, (int, float))
    else:
        ok = isinstance(value, type(default))
    if not ok:
        raise UsageError(
            f"config key {key!r} must be of type {type(default).__name__}, "
            f"got {json.dumps(value)}"
        )


def _resolve(args: argparse.Namespace) -> dict:
    """Merge CLI flags over config-file values over defaults."""
    defaults = _DEFAULTS[args.command]
    from_file = {}
    if args.config is not None:
        try:
            from_file = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config file: {exc}") from None
        if not isinstance(from_file, dict):
            raise UsageError("config file must hold a JSON object")
        for key, value in from_file.items():
            if key not in defaults:
                raise UsageError(f"unknown config key for {args.command!r}: {key!r}")
            _check_config_type(key, value, defaults[key])
    resolved = {}
    for key, default in defaults.items():
        flag_value = getattr(args, key, None)
        if flag_value is not None:
            resolved[key] = flag_value
        elif key in from_file:
            resolved[key] = from_file[key]
        else:
            resolved[key] = default
        if key in _RANGES:
            _check_range(key, resolved[key])
    resolved["command"] = args.command
    return resolved


def _grid_from(resolved: dict) -> ParamGrid:
    raw = resolved.get("pupil_grid")
    return DEFAULT_GRID if raw is None else _parse_pupil_grid(str(raw))


def _dataset_path(data: Path) -> Path:
    data = Path(data)
    return data / "frames.jsonl" if data.is_dir() else data


def _jsonable_config(resolved: dict) -> dict:
    out = {}
    for key, value in resolved.items():
        if isinstance(value, Path):
            value = str(value)
        out[key] = value
    return out


def cmd_synth(resolved: dict) -> int:
    alphas = resolved["alphas"]
    if isinstance(alphas, str):
        alphas = _parse_alphas(alphas)
    manifest = synth.generate_population(
        resolved["out"],
        n_subjects=resolved["subjects"],
        frames_per_region=resolved["frames_per_region"],
        seed=resolved["seed"],
        alphas=alphas,
        head_motion_px=resolved["head_motion"],
        landmark_jitter=resolved["landmark_jitter"],
        image_noise=resolved["image_noise"],
        p_face_fail=resolved["p_face_fail"],
        p_pupil_fail=resolved["p_pupil_fail"],
    )
    print(json.dumps({"dataset": str(resolved["out"]), "total_frames": manifest["total_frames"],
                      "frames_sha256": manifest["frames_sha256"]}, sort_keys=True))
    return 0


def _prepare(resolved: dict) -> analysis.PreparedDataset:
    path = _dataset_path(resolved["data"])
    if not path.exists():
        raise DataFormatError(f"dataset not found: {path}")
    return analysis.prepare_dataset(dataio.iter_dataset(path), _grid_from(resolved))


def cmd_train(resolved: dict) -> int:
    mode = FeatureMode(resolved["mode"])
    prepared = _prepare(resolved)
    analysis.check_sufficiency(prepared, resolved["min_frames"])
    X, labels = prepared.pupil_pool(mode)
    rng = np.random.default_rng(resolved["seed"] & ((1 << 64) - 1))
    balanced = subsample_indices(labels, len(REGIONS), rng)
    cfg = ForestConfig(
        n_trees=resolved["trees"],
        max_depth=resolved["depth"],
        min_samples_leaf=resolved["min_leaf"],
        rng_seed=derive_seed(resolved["seed"], 0xF02E57),
    )
    model = train_arrays(X[balanced], labels[balanced], REGIONS, cfg)
    dataio.save_model(model, resolved["out"])
    print(
        json.dumps(
            {
                "model": str(resolved["out"]),
                "mode": mode.value,
                "feature_dim": model.feature_dim,
                "trees": cfg.n_trees,
                "trained_per_class": model.training_digest.class_counts,
            },
            sort_keys=True,
        )
    )
    return 0


def cmd_evaluate(resolved: dict) -> int:
    mode_arg = resolved["mode"]
    if mode_arg == "both":
        modes = (FeatureMode.HEAD_ONLY, FeatureMode.HEAD_AND_EYE)
    else:
        modes = (FeatureMode(mode_arg),)
    owl_thresholds = _parse_owl_thresholds(resolved["owl_thresholds"])
    prepared = _prepare(resolved)
    cfg = analysis.EvalConfig(
        modes=modes,
        repetitions=resolved["repetitions"],
        confidence_threshold=resolved["confidence_threshold"],
        forest=ForestConfig(
            n_trees=resolved["trees"],
            max_depth=resolved["depth"],
            min_samples_leaf=resolved["min_leaf"],
            rng_seed=resolved["seed"],
        ),
        seed=resolved["seed"],
        min_frames_per_region=resolved["min_frames"],
        owl_thresholds=owl_thresholds,
    )
    study = analysis.run_study(prepared, cfg)
    delta = analysis.accuracy_delta_report(study) if len(modes) > 1 else None
    written = reports.write_study_reports(
        resolved["out"],
        study,
        delta,
        _jsonable_config(resolved),
        fps=resolved["fps"],
        plots=bool(resolved["plots"]),
    )
    print(json.dumps({"reports": [str(p) for p in written]}, sort_keys=True))
    return 0


def _decision_obj(line_number: int, entry, outcome) -> dict:
    obj: dict = {"line": line_number}
    if entry.record is not None:
        obj["subject_id"] = entry.record.subject_id
        obj["frame_index"] = entry.record.frame_index
    if outcome.drop is DropReason.NO_FACE:
        obj["status"] = "no_face"
        return obj
    if outcome.drop is DropReason.PUPIL_FAILED:
        obj["status"] = "pupil_failed"
        obj["pupil_status"] = outcome.pupil.status.value
        return obj
    decision = outcome.decision
    obj["status"] = "accepted" if decision.accepted else "low_confidence"
    obj["region"] = decision.region.value
    obj["probabilities"] = [float(p) for p in decision.probabilities]
    # +inf confidence serializes as null; accepted stays true.
    obj["confidence"] = None if math.isinf(decision.confidence) else decision.confidence
    return obj


# Frames staged and predicted together by ``classify``. Prediction walks a
# micro-batch's (row, tree) pairs in one pass; 256 rows of a 2000-tree model
# fill about two of its memory-bounded chunks.
CLASSIFY_BATCH = 256


def cmd_classify(resolved: dict) -> int:
    model = dataio.load_model(resolved["model"])
    if model.feature_dim == HEAD_DIM + EYE_DIM:
        mode = FeatureMode.HEAD_AND_EYE
    elif model.feature_dim == HEAD_DIM:
        mode = FeatureMode.HEAD_ONLY
    else:
        raise DataFormatError(
            f"model feature_dim {model.feature_dim} is not a gaze pipeline dimension"
        )
    cfg = PipelineConfig(
        mode=mode,
        confidence_threshold=resolved["confidence_threshold"],
        grid=_grid_from(resolved),
    )
    ledger = AttritionLedger()
    path = _dataset_path(resolved["data"])
    if not path.exists():
        raise DataFormatError(f"dataset not found: {path}")
    out_path = Path(resolved["out"])
    entries = dataio.iter_dataset(path)
    with out_path.open("w", encoding="utf-8") as out:
        while batch := list(itertools.islice(entries, CLASSIFY_BATCH)):
            outcomes = classify_batch([entry.record for entry in batch], model, cfg)
            for entry, outcome in zip(batch, outcomes):
                ledger.observe(outcome)
                out.write(json.dumps(_decision_obj(entry.line_number, entry, outcome)) + "\n")
    print(
        json.dumps(
            {
                "decisions": str(out_path),
                "total_frames": ledger.total_frames,
                "faces_detected": ledger.faces_detected,
                "pupils_detected": ledger.pupils_detected,
                "confident_decisions": ledger.confident_decisions,
            },
            sort_keys=True,
        )
    )
    return 0


_COMMANDS = {
    "synth": cmd_synth,
    "train": cmd_train,
    "evaluate": cmd_evaluate,
    "classify": cmd_classify,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        resolved = _resolve(args)
        return _COMMANDS[args.command](resolved)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except _DATA_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # noqa: BLE001 - anything else is an internal invariant breach
        print(f"internal error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
