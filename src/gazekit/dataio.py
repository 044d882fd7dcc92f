"""On-disk formats: frame datasets, eye crops, and trained models.

Dataset layout::

    <dir>/frames.jsonl        one JSON object per frame
    <dir>/crops/<subject>/<frame_index>.pgm   8-bit binary (P5) eye crops
    <dir>/manifest.json       counts, seed, content digests

A frame object carries ``subject_id`` (string), ``frame_index`` (int),
``label`` (one of the six region names), ``landmarks`` (flat array of 136
numbers, x0, y0, x1, y1, ...), ``eye_crop`` (path relative to the JSONL
file, inside its directory), and ``eye_polygon`` (flat array of 12 numbers).
A line that is missing, malformed (not UTF-8, not JSON, nested too deeply),
or fails validation is reported as a face-detection failure rather than
aborting the stream; frame invariants are enforced here, at parse time.

Model files are little-endian throughout: magic ``GZKF``, a u16 format
version, a fixed header (forest configuration, class order, feature
dimension, training digest), then the forest's preorder node arrays as raw
blocks (see ``model_bytes``).
"""

from __future__ import annotations

import hashlib
import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

import numpy as np

from .core import (
    DataFormatError,
    FrameRecord,
    GazeRegion,
    GrayImage,
    Landmarks,
    region_from_name,
)
from .forest import LEAF, ForestConfig, ForestModel, ForestNodes, TrainingDigest

__all__ = [
    "write_pgm",
    "read_pgm",
    "frame_to_obj",
    "parse_frame_obj",
    "ParsedLine",
    "iter_dataset",
    "write_dataset",
    "load_manifest",
    "MODEL_MAGIC",
    "MODEL_VERSION",
    "save_model",
    "load_model",
    "model_bytes",
]

MODEL_MAGIC = b"GZKF"
MODEL_VERSION = 2
# Caps the pupil search's memory per frame; synth's largest crop is 70x60.
MAX_CROP_SIDE = 256


# ---------------------------------------------------------------------------
# PGM (P5) eye crops
# ---------------------------------------------------------------------------

def write_pgm(path, image: GrayImage) -> bytes:
    """Write ``image`` as a binary PGM; returns the bytes written."""
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    data = header + image.pixels.tobytes()
    Path(path).write_bytes(data)
    return data


def read_pgm(path) -> GrayImage:
    data = Path(path).read_bytes()
    if not data.startswith(b"P5"):
        raise DataFormatError(f"{path}: not a binary PGM (P5) file")
    # Header = magic, width, height, maxval as whitespace-separated tokens;
    # '#' starts a comment running to end of line.
    tokens: list[int] = []
    pos = 2
    while len(tokens) < 3:
        if pos >= len(data):
            raise DataFormatError(f"{path}: truncated PGM header")
        ch = data[pos : pos + 1]
        if ch.isspace():
            pos += 1
        elif ch == b"#":
            end = data.find(b"\n", pos)
            pos = len(data) if end < 0 else end + 1
        elif ch.isdigit():
            end = pos
            while end < len(data) and data[end : end + 1].isdigit():
                end += 1
            tokens.append(int(data[pos:end]))
            pos = end
        else:
            raise DataFormatError(f"{path}: unexpected byte in PGM header: {ch!r}")
    width, height, maxval = tokens
    if maxval != 255:
        raise DataFormatError(f"{path}: only 8-bit PGM supported, maxval={maxval}")
    if max(width, height) > MAX_CROP_SIDE:
        raise DataFormatError(f"{path}: crop larger than {MAX_CROP_SIDE} px on a side")
    pos += 1  # single whitespace byte after maxval
    pixels = data[pos : pos + width * height]
    if len(pixels) != width * height:
        raise DataFormatError(f"{path}: PGM payload truncated")
    return GrayImage.from_bytes(width, height, pixels)


# ---------------------------------------------------------------------------
# Frame records (JSONL)
# ---------------------------------------------------------------------------

def frame_to_obj(record: FrameRecord, crop_relpath: str) -> dict:
    return {
        "subject_id": record.subject_id,
        "frame_index": record.frame_index,
        "label": record.label.value,
        "landmarks": [float(v) for v in record.landmarks.points.reshape(-1)],
        "eye_crop": crop_relpath,
        "eye_polygon": [float(v) for v in record.eye_polygon.reshape(-1)],
    }


def parse_frame_obj(obj: dict, base_dir: Path) -> FrameRecord:
    """Build a validated FrameRecord from one JSON object.

    Raises DataFormatError on any structural problem; type invariants are
    checked by the record constructors themselves.
    """
    if not isinstance(obj, dict):
        raise DataFormatError("frame record must be a JSON object")
    try:
        subject_id = obj["subject_id"]
        frame_index = obj["frame_index"]
        label_name = obj["label"]
        landmarks_flat = obj["landmarks"]
        crop_rel = obj["eye_crop"]
        polygon_flat = obj["eye_polygon"]
    except KeyError as missing:
        raise DataFormatError(f"frame record missing field {missing}") from None
    if (
        not isinstance(subject_id, str)
        or not isinstance(frame_index, int)
        or isinstance(frame_index, bool)
        or not isinstance(label_name, str)
    ):
        raise DataFormatError(
            "subject_id and label must be strings and frame_index an integer"
        )
    if not isinstance(landmarks_flat, list) or len(landmarks_flat) != 136:
        raise DataFormatError("landmarks must be a flat array of 136 numbers")
    if not isinstance(polygon_flat, list) or len(polygon_flat) != 12:
        raise DataFormatError("eye_polygon must be a flat array of 12 numbers")
    try:
        points = np.array(landmarks_flat, dtype=np.float64).reshape(68, 2)
        polygon = np.array(polygon_flat, dtype=np.float64).reshape(6, 2)
    except (TypeError, ValueError, OverflowError) as exc:  # OverflowError: ints past float64
        raise DataFormatError(f"non-numeric landmark data: {exc}") from None
    crop = read_pgm(base_dir / _relative_crop_path(crop_rel))
    return FrameRecord(
        subject_id=subject_id,
        frame_index=frame_index,
        landmarks=Landmarks(points),
        eye_crop=crop,
        eye_polygon=polygon,
        label=region_from_name(label_name),
    )


def _relative_crop_path(crop_rel) -> str:
    """``eye_crop`` checked to name a file under the dataset directory.

    The check is on the path text: ``..`` components may not climb out of
    the directory, and absolute paths are refused.
    """
    if not isinstance(crop_rel, str) or "\0" in crop_rel:
        raise DataFormatError("eye_crop must be a path string")
    normal = os.path.normpath(crop_rel)
    if os.path.isabs(normal) or normal.split(os.sep)[0] == os.pardir:
        raise DataFormatError(f"eye_crop {crop_rel!r} is outside the dataset directory")
    return normal


@dataclass(frozen=True)
class ParsedLine:
    """One dataset line: a valid record, or a face-detection failure."""

    line_number: int
    record: FrameRecord | None
    error: str | None = None


def iter_dataset(jsonl_path) -> Iterator[ParsedLine]:
    """Stream a dataset, turning unusable lines into NoFace entries."""
    jsonl_path = Path(jsonl_path)
    base_dir = jsonl_path.parent
    with jsonl_path.open("rb") as stream:
        for line_number, raw in enumerate(stream, start=1):
            try:
                line = raw.decode("utf-8")  # one bad line must not end the stream
                if not line.strip():
                    continue
                record = parse_frame_obj(json.loads(line), base_dir)
            # ValueError: not UTF-8, not JSON, or an integer past Python's digit limit
            except (DataFormatError, OSError, ValueError, RecursionError) as exc:
                yield ParsedLine(line_number, None, error=str(exc))
                continue
            yield ParsedLine(line_number, record)


def write_dataset(out_dir, frames: Iterable, meta: dict | None = None) -> dict:
    """Write generated frames as a dataset directory; returns the manifest.

    ``frames`` yields :class:`gazekit.synth.GeneratedFrame` objects. Frames
    whose face detection failed become deliberately unparseable lines
    (``landmarks: null``) so downstream attrition accounting sees them.
    """
    out_dir = Path(out_dir)
    crops_dir = out_dir / "crops"
    out_dir.mkdir(parents=True, exist_ok=True)
    crops_dir.mkdir(exist_ok=True)

    jsonl_path = out_dir / "frames.jsonl"
    frames_hash = hashlib.sha256()
    crop_hash = hashlib.sha256()
    total = 0
    face_failures = 0
    subjects: dict[str, int] = {}
    with jsonl_path.open("w", encoding="utf-8", newline="\n") as stream:
        for frame in frames:
            total += 1
            subjects[frame.subject_id] = subjects.get(frame.subject_id, 0) + 1
            if frame.record is None:
                face_failures += 1
                obj = {
                    "subject_id": frame.subject_id,
                    "frame_index": frame.frame_index,
                    "label": frame.label.value,
                    "landmarks": None,
                }
            else:
                subject_dir = crops_dir / frame.subject_id
                subject_dir.mkdir(exist_ok=True)
                rel = f"crops/{frame.subject_id}/{frame.frame_index:06d}.pgm"
                crop_hash.update(rel.encode("utf-8"))
                crop_hash.update(write_pgm(out_dir / rel, frame.record.eye_crop))
                obj = frame_to_obj(frame.record, rel)
            line = json.dumps(obj) + "\n"
            frames_hash.update(line.encode("utf-8"))
            stream.write(line)

    manifest = {
        "format": "gazekit-dataset",
        "version": 1,
        "total_frames": total,
        "face_failures": face_failures,
        "subjects": subjects,
        "frames_sha256": frames_hash.hexdigest(),
        "crops_sha256": crop_hash.hexdigest(),
    }
    if meta:
        manifest["meta"] = meta
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    return manifest


def load_manifest(dataset_dir) -> dict:
    return json.loads((Path(dataset_dir) / "manifest.json").read_text(encoding="utf-8"))


# ---------------------------------------------------------------------------
# Model files
# ---------------------------------------------------------------------------

_HEADER = struct.Struct("<IIIIQBIHQd")
# n_trees, max_depth, features_per_split (0 = auto), min_samples_leaf,
# rng_seed, bootstrap, feature_dim, n_classes, digest_seed, coverage


def model_bytes(model: ForestModel) -> bytes:
    """Serialize a model to the portable little-endian format.

    After the header and class block come five raw blocks: the node count
    of each tree (u32), the split feature of every node (i32, -1 at leaves),
    then for the splits in node order their thresholds (f64) and their right
    children as indices within the tree (u32), and last the class counts of
    every leaf in node order (u32, one per class).
    """
    cfg = model.config
    digest = model.training_digest
    nodes = model.nodes
    is_split = nodes.feature != LEAF
    parts: list[bytes] = [
        MODEL_MAGIC,
        struct.pack("<H", MODEL_VERSION),
        _HEADER.pack(
            cfg.n_trees,
            cfg.max_depth,
            cfg.features_per_split or 0,
            cfg.min_samples_leaf,
            cfg.rng_seed & ((1 << 64) - 1),
            1 if cfg.bootstrap else 0,
            model.feature_dim,
            len(model.class_order),
            digest.rng_seed & ((1 << 64) - 1),
            digest.bootstrap_coverage,
        ),
    ]
    for label in model.class_order:
        name = label.value if isinstance(label, GazeRegion) else str(label)
        raw = name.encode("utf-8")
        parts.append(struct.pack("<H", len(raw)))
        parts.append(raw)
    parts.append(struct.pack(f"<{len(model.class_order)}Q", *digest.class_counts))
    parts += [
        nodes.tree_sizes.astype("<u4").tobytes(),
        nodes.feature.astype("<i4").tobytes(),
        nodes.threshold[is_split].astype("<f8").tobytes(),
        nodes.right[is_split].astype("<u4").tobytes(),
        nodes.leaf_counts.astype("<u4").tobytes(),
    ]
    return b"".join(parts)


def save_model(model: ForestModel, path):
    Path(path).write_bytes(model_bytes(model))


def load_model(path) -> ForestModel:
    data = Path(path).read_bytes()
    if data[:4] != MODEL_MAGIC:
        raise DataFormatError(f"{path}: not a gazekit model file")
    try:
        return _parse_model(path, data)
    except (struct.error, ValueError) as exc:
        raise DataFormatError(f"{path}: corrupt model file ({exc})") from exc


def _block(path, data: bytes, offset: int, dtype: str, count: int):
    """``count`` items of ``dtype`` at ``offset``, and the offset after them."""
    end = offset + np.dtype(dtype).itemsize * count
    if end > len(data):
        raise DataFormatError(f"{path}: model payload truncated")
    return np.frombuffer(data, dtype=dtype, count=count, offset=offset), end


def _parse_model(path, data: bytes) -> ForestModel:
    (version,) = struct.unpack_from("<H", data, 4)
    if version != MODEL_VERSION:
        raise DataFormatError(f"{path}: unsupported model version {version}")
    offset = 6
    (
        n_trees,
        max_depth,
        features_per_split,
        min_samples_leaf,
        rng_seed,
        bootstrap,
        feature_dim,
        n_classes,
        digest_seed,
        coverage,
    ) = _HEADER.unpack_from(data, offset)
    offset += _HEADER.size

    names = []
    for _ in range(n_classes):
        (length,) = struct.unpack_from("<H", data, offset)
        offset += 2
        names.append(data[offset : offset + length].decode("utf-8"))
        offset += length
    counts = struct.unpack_from(f"<{n_classes}Q", data, offset)
    offset += 8 * n_classes

    sizes, offset = _block(path, data, offset, "<u4", n_trees)
    n_nodes = int(sizes.sum(dtype=np.int64))
    feature, offset = _block(path, data, offset, "<i4", n_nodes)
    is_split = feature != LEAF
    n_splits = int(is_split.sum())
    split_threshold, offset = _block(path, data, offset, "<f8", n_splits)
    split_right, offset = _block(path, data, offset, "<u4", n_splits)
    leaf_counts, offset = _block(path, data, offset, "<u4", (n_nodes - n_splits) * n_classes)
    leaf_counts = leaf_counts.reshape(-1, n_classes)
    if offset != len(data):
        raise DataFormatError(f"{path}: trailing bytes after model payload")

    roots = np.cumsum(sizes, dtype=np.int64) - sizes
    threshold = np.zeros(n_nodes)
    threshold[is_split] = split_threshold
    right = np.full(n_nodes, -1, dtype=np.int32)
    right[is_split] = split_right  # u32 above 2^31 - 1 wraps negative and fails the check
    try:
        class_order: tuple = tuple(region_from_name(name) for name in names)
    except DataFormatError:
        class_order = tuple(names)
    cfg = ForestConfig(
        n_trees=n_trees,
        max_depth=max_depth,
        features_per_split=features_per_split or None,
        min_samples_leaf=min_samples_leaf,
        rng_seed=rng_seed,
        bootstrap=bool(bootstrap),
    )
    digest = TrainingDigest(
        class_counts=tuple(int(c) for c in counts),
        rng_seed=digest_seed,
        bootstrap_coverage=float(coverage),
    )
    # ForestModel refuses nodes that fail node_problem with a ValueError.
    return ForestModel(
        config=cfg,
        nodes=ForestNodes(
            roots, feature.astype(np.int32, copy=False), threshold, right, leaf_counts
        ),
        feature_dim=feature_dim,
        class_order=class_order,
        training_digest=digest,
    )
