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
from typing import Callable, NamedTuple

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
    analysis.ModeMismatch,
    EmptyClass,
    EmptyTrainingSet,
    OSError,
)


def _parse_numbers(raw: str) -> tuple[float, ...]:
    return tuple(float(p) for p in raw.split(","))


def _parse_owl_thresholds(raw: str) -> tuple[float, float]:
    thresholds = _parse_numbers(raw)
    if len(thresholds) != 2:
        raise ValueError("expects two comma-separated values")
    if not thresholds[0] <= thresholds[1]:
        raise ValueError("must satisfy low <= high")
    return thresholds


def _parse_pupil_grid(raw: str) -> ParamGrid:
    parts = raw.split(",")
    if len(parts) != 9:
        raise ValueError("expects 9 comma-separated values")
    thresholds = tuple(float(p) for p in parts[:3])
    openings = tuple(int(p) for p in parts[3:6])
    closings = tuple(int(p) for p in parts[6:9])
    # The morphology costs O(window) per pixel; the default grid's widest window is 5.
    if max(openings + closings) > 31:
        raise ValueError("windows must be in [1, 31]")
    return ParamGrid(thresholds, openings, closings)


class _Setting(NamedTuple):
    """One setting: a ``--flag`` of each subcommand in ``commands`` and a key
    of their config files. ``default`` and ``choices`` may map a subcommand
    to its own value. ``interval`` holds the allowed values (of each element,
    for a list) in interval notation; a square bracket includes its end.
    ``parse`` turns the text of a list-valued setting into its value."""

    name: str
    commands: tuple[str, ...]
    kind: type = str
    default: object = None
    choices: object = None
    interval: str | None = None
    parse: Callable | None = None
    required: bool = False
    help: str | None = None


_ALL = ("synth", "train", "evaluate", "classify")
_FOREST = ("train", "evaluate")

# The population generator, the forest, the study, the pruning rule and the
# rate report refuse values outside these intervals, some of them only after
# the pupil stage; the CLI refuses them before any work. The upper bounds of
# the population keep its profiles and every eye crop small in memory: the
# crop spans the jittered eye landmarks, and a jitter of 20 px is already
# a fifth of the face's width.
_SETTINGS = (
    _Setting("seed", _ALL, int, 0),
    _Setting("config", _ALL, Path, help="JSON config file"),
    _Setting(
        "pupil_grid", _ALL, parse=_parse_pupil_grid,
        help="9 comma-separated values: 3 CDF thresholds, 3 opening windows, 3 closing windows",
    ),
    _Setting("subjects", ("synth",), int, 40, interval="[1, 1000]"),
    _Setting("frames_per_region", ("synth",), int, 120, interval="[120, 10000]"),
    _Setting(
        "alphas", ("synth",), interval="[0, 1]", parse=_parse_numbers,
        help="comma-separated head gains, one per subject",
    ),
    _Setting("head_motion", ("synth",), float, 7.0, interval="(-inf, inf)"),
    _Setting("landmark_jitter", ("synth",), float, 1.0, interval="[0, 20]"),
    _Setting("image_noise", ("synth",), float, 8.0, interval="[0, inf]"),
    _Setting("p_face_fail", ("synth",), float, 0.0, interval="[0, 1]"),
    _Setting("p_pupil_fail", ("synth",), float, 0.0, interval="[0, 1]"),
    _Setting("model", ("classify",), Path, required=True),
    _Setting(
        "data", ("train", "evaluate", "classify"), Path, required=True,
        help="dataset directory or frames.jsonl",
    ),
    _Setting(
        "out", _ALL, Path, required=True,
        help="dataset directory (synth), model file (train), report directory (evaluate) "
        "or decisions JSONL (classify) to write",
    ),
    _Setting(
        "mode", _FOREST,
        default={"train": "head-eye", "evaluate": "both"},
        choices={"train": ("head-only", "head-eye"), "evaluate": ("head-only", "head-eye", "both")},
    ),
    _Setting("trees", _FOREST, int, 2000, interval="[1, inf)"),
    _Setting("depth", _FOREST, int, 25, interval="[1, inf)"),
    _Setting("min_leaf", _FOREST, int, 1, interval="[1, inf)"),
    _Setting("min_frames", _FOREST, int, 120, interval="[0, inf)"),
    _Setting("repetitions", ("evaluate",), int, 100, interval="[1, inf)"),
    _Setting("confidence_threshold", ("evaluate", "classify"), float, 10.0, interval="[1, inf)"),
    _Setting(
        "owl_thresholds", ("evaluate",), default="0.45,0.55", parse=_parse_owl_thresholds,
        help="low,high partition values",
    ),
    _Setting("fps", ("evaluate",), float, 30.0, interval="(0, 1000]"),
    _Setting("plots", ("evaluate",), bool, False),
)


def _for_command(command: str, value):
    """The value of a row field for ``command``."""
    return value[command] if isinstance(value, dict) else value


def _flag(name: str) -> str:
    return "--" + name.replace("_", "-")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gazekit", description="Driver gaze-region classification toolkit"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, help_) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        for row in _SETTINGS:
            if command not in row.commands:
                continue
            if row.kind is bool:
                p.add_argument(_flag(row.name), action="store_const", const=True, help=row.help)
            else:
                p.add_argument(
                    _flag(row.name),
                    type=row.kind,
                    choices=_for_command(command, row.choices),
                    required=row.required,
                    help=row.help,
                )
    return parser


def _config_type_ok(kind: type, value) -> bool:
    """A bool must be a bool; an int refuses a float, a string or a bool; a
    float accepts an int; text and paths are strings."""
    if kind is bool or isinstance(value, bool):
        return type(value) is kind
    if kind is float:
        return isinstance(value, (int, float))
    return isinstance(value, int if kind is int else str)


def _in_interval(interval: str, value) -> bool:
    low, high = (float(end) for end in interval[1:-1].split(","))
    above = value >= low if interval[0] == "[" else value > low
    below = value <= high if interval[-1] == "]" else value < high
    return above and below  # NaN is in no interval


def _check(row: _Setting, command: str, value, label: str):
    """``value`` checked against its row, and parsed if the row says how."""
    choices = _for_command(command, row.choices)
    if choices is not None and value not in choices:
        raise UsageError(f"{label} must be one of {', '.join(choices)}, got {value!r}")
    if value is None:
        return None
    if row.parse is not None:
        try:
            value = row.parse(value)
        except ValueError as exc:
            raise UsageError(f"{label}: {exc}") from None
    if row.interval is not None:
        for element in value if isinstance(value, tuple) else (value,):
            if not _in_interval(row.interval, element):
                raise UsageError(f"{label} must be in {row.interval}, got {element}")
    return value


def _read_config(path: Path, command: str, rows: dict) -> dict:
    try:
        from_file = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError, RecursionError) as exc:
        raise UsageError(f"cannot read config file: {exc}") from None
    if not isinstance(from_file, dict):
        raise UsageError("config file must hold a JSON object")
    for key, value in from_file.items():
        if key not in rows:
            raise UsageError(f"unknown config key for {command!r}: {key!r}")
        row = rows[key]
        if value is None and _for_command(command, row.default) is None:
            continue
        if not _config_type_ok(row.kind, value):
            kind = "str" if row.kind is Path else row.kind.__name__
            raise UsageError(
                f"config key {key!r} ({_flag(key)}) must be of type {kind}, "
                f"got {json.dumps(value)}"
            )
    return from_file


def _resolve(args: argparse.Namespace) -> dict:
    """Merge CLI flags over config-file values over defaults, and check and
    parse every setting before any input is opened or output written. The
    values as given, for ``resolved_config.json``, are under ``"recorded"``."""
    command = args.command
    rows = {row.name: row for row in _SETTINGS if command in row.commands}
    from_file = {} if args.config is None else _read_config(args.config, command, rows)
    settings, recorded = {}, {}
    for name, row in rows.items():
        value, label = getattr(args, name), _flag(name)
        if value is None and name in from_file:
            value, label = from_file[name], f"config key {name!r} ({label})"
        if value is None:
            value = _for_command(command, row.default)
        recorded[name] = str(value) if isinstance(value, Path) else value
        settings[name] = _check(row, command, value, label)
    alphas = settings.get("alphas")
    if alphas is not None and len(alphas) != settings["subjects"]:
        raise UsageError(
            f"--alphas needs one head gain per subject ({settings['subjects']}), got {len(alphas)}"
        )
    recorded["command"] = command
    settings["recorded"] = recorded
    return settings


def _dataset_path(data: Path) -> Path:
    data = Path(data)
    path = data / "frames.jsonl" if data.is_dir() else data
    if not path.exists():
        raise DataFormatError(f"dataset not found: {path}")
    return path


def cmd_synth(resolved: dict) -> int:
    manifest = synth.generate_population(
        resolved["out"],
        n_subjects=resolved["subjects"],
        frames_per_region=resolved["frames_per_region"],
        seed=resolved["seed"],
        alphas=resolved["alphas"],
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
    return analysis.prepare_dataset(
        dataio.iter_dataset(_dataset_path(resolved["data"])),
        resolved["pupil_grid"] or DEFAULT_GRID,
    )


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
        owl_thresholds=resolved["owl_thresholds"],
    )
    study = analysis.run_study(prepared, cfg)
    delta = analysis.accuracy_delta_report(study) if len(modes) > 1 else None
    written = reports.write_study_reports(
        resolved["out"],
        study,
        delta,
        resolved["recorded"],
        fps=resolved["fps"],
        plots=resolved["plots"],
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
        grid=resolved["pupil_grid"] or DEFAULT_GRID,
    )
    ledger = AttritionLedger()
    entries = dataio.iter_dataset(_dataset_path(resolved["data"]))
    out_path = Path(resolved["out"])
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
    "synth": (cmd_synth, "generate a synthetic driver population"),
    "train": (cmd_train, "train a gaze-region model on a dataset"),
    "evaluate": (cmd_evaluate, "leave-one-subject-out evaluation with reports"),
    "classify": (cmd_classify, "stream per-frame decisions for a dataset"),
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exit_:
        return int(exit_.code or 0)
    try:
        resolved = _resolve(args)
        return _COMMANDS[args.command][0](resolved)
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
