"""Inputs of the benchmark.

The model fixtures are trained by the gazekit under test (``gazekit synth``
plus ``gazekit train``), outside any timed region, because a later version
may change the model format. They depend only on the sources and the sizes,
so they are built once per checkout, on its first run, and cached under
``.perfbench/fixtures/<key>``. The per-run inputs (the LOSO dataset and the
streamed population) come from the workload seed.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

from common import (
    DROPOUT,
    ROOT,
    WORK,
    BenchError,
    gazekit_cmd,
    run_proc,
    source_digest,
)

# Seed of the fixed 2-subject population the models are trained on (head
# gains 0.64 and 0.91). Streamed populations use seeds derived from the
# workload seed (``stream_seed``).
TRAIN_SEED = 7


# Sizes every run uses, the self-test's too.
FRAMES_PER_REGION = 120  # the least ``gazekit synth`` accepts
TREE_DEPTH = 25
MIN_FRAMES = 80


@dataclass(frozen=True)
class Sizes:
    """The sizes the self-test shrinks; ``TINY`` is the self-test's."""

    loso_subjects: int = 4
    loso_trees: int = 25
    loso_repetitions: int = 2
    model_trees: int = 2000
    stream_frames_per_region: int = 60
    stream_min_frames: int = 1000
    setup_samples: int = 3


FULL = Sizes()
TINY = Sizes(
    loso_subjects=3,
    loso_trees=10,
    loso_repetitions=1,
    model_trees=10,
    stream_frames_per_region=10,
    stream_min_frames=100,
    setup_samples=2,
)

MODEL_FILES = {"head-eye": "head_eye.gzkf", "head-only": "head_only.gzkf"}


def stream_seed(seed: int) -> int:
    """Seed of the streamed population; never the training population's."""
    digest = hashlib.sha256(f"stream:{seed}".encode()).digest()
    value = int.from_bytes(digest[:8], "little") >> 1
    return value if value != TRAIN_SEED else value + 1


def head_gains(subjects: int) -> list[float]:
    """Fixed head gains, the midpoints of ``subjects`` equal bins of [0, 1].

    The forest's work depends on how owl- or lizard-like the subjects are, so
    the gains are fixed and a workload seed changes only the per-frame draws
    (jitter, image noise, dropout), not the difficulty of the population.
    """
    return [(i + 0.5) / subjects for i in range(subjects)]


def synth_args(out: Path, seed: int, subjects: int, frames_per_region: int,
               gains: list[float] | None = None) -> list[str]:
    alphas = [] if gains is None else ["--alphas", ",".join(map(str, gains))]
    return gazekit_cmd(
        "synth",
        "--subjects", subjects,
        "--frames-per-region", frames_per_region,
        *alphas,
        *DROPOUT,
        "--seed", seed,
        "--out", out,
    )


def ensure_models(sizes: Sizes) -> dict:
    """Build (or reuse) the head-eye and head-only model files.

    Returns the fixture description: model paths and sizes plus the
    training population's ``frames_sha256``.
    """
    spec = {
        "subjects": 2,
        "frames_per_region": FRAMES_PER_REGION,
        "dropout": list(DROPOUT),
        "seed": TRAIN_SEED,
        "trees": sizes.model_trees,
        "depth": TREE_DEPTH,
        "min_leaf": 1,
        "min_frames": MIN_FRAMES,
    }
    key = hashlib.sha256(
        (source_digest() + json.dumps(spec, sort_keys=True)).encode()
    ).hexdigest()[:16]
    cache = WORK / "fixtures"
    final = cache / key
    info_path = final / "fixture.json"
    if not info_path.is_file():
        _build(cache, final, spec)
    info = json.loads(info_path.read_text())
    for entry in info["models"].values():
        entry["path"] = str(ROOT / entry["path"])
    return info


def _build(cache: Path, final: Path, spec: dict):
    tmp = cache / f"{final.name}.tmp{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    logs = tmp / "logs"
    data = tmp / "train"
    steps = [synth_args(data, spec["seed"], spec["subjects"], spec["frames_per_region"])]
    for mode, name in MODEL_FILES.items():
        steps.append(
            gazekit_cmd(
                "train",
                "--data", data,
                "--out", tmp / name,
                "--mode", mode,
                "--trees", spec["trees"],
                "--depth", spec["depth"],
                "--min-leaf", spec["min_leaf"],
                "--min-frames", spec["min_frames"],
                "--seed", spec["seed"],
            )
        )
    for argv in steps:
        proc = run_proc(argv, logs)
        if proc.code != 0:
            raise BenchError(
                f"fixture step failed with exit {proc.code}: {' '.join(argv[2:4])}\n"
                f"{proc.stderr.strip()[-800:]}"
            )
    manifest = json.loads((data / "manifest.json").read_text())
    info = {
        "spec": spec,
        "train_frames_sha256": manifest["frames_sha256"],
        "models": {
            mode: {
                "path": (final / name).relative_to(ROOT).as_posix(),
                "bytes": (tmp / name).stat().st_size,
            }
            for mode, name in MODEL_FILES.items()
        },
    }
    shutil.rmtree(data)
    shutil.rmtree(logs, ignore_errors=True)
    (tmp / "fixture.json").write_text(json.dumps(info, indent=2, sort_keys=True))
    shutil.rmtree(final, ignore_errors=True)
    os.replace(tmp, final)
