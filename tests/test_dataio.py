import dataclasses
import json
import os
import struct
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gazekit
from gazekit.cli import main
from gazekit.core import DataFormatError, GrayImage, REGIONS
from gazekit.dataio import (
    MODEL_MAGIC,
    ParsedLine,
    frame_to_obj,
    iter_dataset,
    load_model,
    model_bytes,
    parse_frame_obj,
    read_pgm,
    save_model,
    write_dataset,
    write_pgm,
)
from gazekit.forest import (
    ForestConfig, ForestModel, ForestNodes, predict_proba_batch, train_arrays,
)
from gazekit.synth import SubjectProfile, iter_subject_frames

SRC = str(Path(gazekit.__file__).resolve().parents[1])


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    img = GrayImage(rng.integers(0, 256, size=(11, 17)).astype(np.uint8))
    path = tmp_path / "crop.pgm"
    write_pgm(path, img)
    back = read_pgm(path)
    assert np.array_equal(back.pixels, img.pixels)
    assert path.read_bytes().startswith(b"P5\n17 11\n255\n")


def test_pgm_rejects_garbage(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P6\n2 2\n255\n....")
    with pytest.raises(DataFormatError):
        read_pgm(path)
    path.write_bytes(b"P5\n2 2\n255\n\x00")
    with pytest.raises(DataFormatError):
        read_pgm(path)


def _dataset(tmp_path, **profile_kw):
    profile_kw.setdefault("landmark_jitter", 0.5)
    profile_kw.setdefault("image_noise", 5.0)
    profile = SubjectProfile("subj", head_gain=0.4, **profile_kw)
    frames = list(iter_subject_frames(profile, 2, np.random.default_rng(0)))
    out = tmp_path / "data"
    manifest = write_dataset(out, frames)
    return out, frames, manifest


def test_frame_record_round_trip(tmp_path):
    out, frames, manifest = _dataset(tmp_path)
    parsed = list(iter_dataset(out / "frames.jsonl"))
    assert manifest["total_frames"] == len(frames) == len(parsed)
    for original, line in zip(frames, parsed):
        assert line.error is None
        record = line.record
        assert record.subject_id == original.record.subject_id
        assert record.frame_index == original.record.frame_index
        assert record.label is original.record.label
        assert np.array_equal(record.landmarks.points, original.record.landmarks.points)
        assert np.array_equal(record.eye_polygon, original.record.eye_polygon)
        assert np.array_equal(record.eye_crop.pixels, original.record.eye_crop.pixels)


def test_face_failures_round_trip_as_unparseable(tmp_path):
    profile = SubjectProfile("subj", head_gain=0.4, p_face_fail=1.0)
    frames = list(iter_subject_frames(profile, 1, np.random.default_rng(0)))
    out = tmp_path / "data"
    manifest = write_dataset(out, frames)
    assert manifest["face_failures"] == 6
    parsed = list(iter_dataset(out / "frames.jsonl"))
    assert all(line.record is None and line.error for line in parsed)


def test_corrupted_lines_become_no_face_entries(tmp_path):
    out, frames, _ = _dataset(tmp_path)
    jsonl = out / "frames.jsonl"
    lines = jsonl.read_text().splitlines()
    lines[1] = "{ not json"
    lines[3] = json.dumps({"subject_id": "subj", "frame_index": 1})
    obj = json.loads(lines[5])
    obj["landmarks"] = obj["landmarks"][:10]
    lines[5] = json.dumps(obj)
    obj = json.loads(lines[7])
    obj["eye_polygon"][0] = 1e9  # polygon outside crop bounds
    lines[7] = json.dumps(obj)
    obj = json.loads(lines[9])
    obj["label"] = "windshield"
    lines[9] = json.dumps(obj)
    obj = json.loads(lines[11])
    obj["eye_crop"] = "crops/missing.pgm"
    lines[11] = json.dumps(obj)
    jsonl.write_text("\n".join(lines) + "\n")

    parsed = list(iter_dataset(jsonl))
    assert len(parsed) == len(frames)
    bad = [line for line in parsed if line.record is None]
    assert len(bad) == 6
    assert all(line.error for line in bad)
    # every successfully parsed record satisfies the type invariants
    for line in parsed:
        if line.record is None:
            continue
        record = line.record
        assert record.landmarks.points.shape == (68, 2)
        assert np.isfinite(record.landmarks.points).all()
        assert record.eye_polygon[:, 0].max() <= record.eye_crop.width - 1
        assert record.eye_polygon[:, 1].max() <= record.eye_crop.height - 1


def test_parse_frame_obj_validates_fields(tmp_path):
    out, frames, _ = _dataset(tmp_path)
    obj = frame_to_obj(frames[0].record, "crops/subj/000000.pgm")
    parse_frame_obj(obj, out)
    for key in ("subject_id", "landmarks", "eye_polygon", "label"):
        broken = dict(obj)
        del broken[key]
        with pytest.raises(DataFormatError):
            parse_frame_obj(broken, out)
    broken = dict(obj)
    broken["frame_index"] = "zero"
    with pytest.raises(DataFormatError):
        parse_frame_obj(broken, out)


def test_hostile_frame_fields_become_no_face_lines(tmp_path):
    out, frames, _ = _dataset(tmp_path)
    crop = "crops/subj/000000.pgm"
    outside = tmp_path / "outside.pgm"  # readable, but not in the dataset directory
    outside.write_bytes((out / crop).read_bytes())
    (out / "crops" / "wide.pgm").write_bytes(b"P5\n257 10\n255\n" + bytes(2570))
    hostile = [
        ("frame_index", True),
        ("label", ["road"]),
        ("eye_crop", str(outside)),
        ("eye_crop", "crops/../../outside.pgm"),
        ("eye_crop", 7),
        ("eye_crop", "crops/wide.pgm"),
    ]
    obj = frame_to_obj(frames[0].record, crop)
    for key, value in hostile:
        with pytest.raises(DataFormatError):
            parse_frame_obj({**obj, key: value}, out)

    jsonl = out / "frames.jsonl"
    lines = jsonl.read_text().splitlines()
    for i, (key, value) in enumerate(hostile):
        lines[i] = json.dumps({**json.loads(lines[i]), key: value})
    jsonl.write_text("\n".join(lines) + "\n")
    parsed = list(iter_dataset(jsonl))
    dropped = [line.record is None for line in parsed]
    assert dropped == [i < len(hostile) for i in range(len(frames))]
    assert all(line.error for line in parsed[: len(hostile)])
    assert "larger than 256 px" in parsed[len(hostile) - 1].error


def test_undecodable_lines_become_no_face_lines(tmp_path):
    out, frames, _ = _dataset(tmp_path)
    jsonl = out / "frames.jsonl"
    lines = jsonl.read_bytes().splitlines()
    hostile = {
        1: b"\xff",                           # not UTF-8
        3: b"[" * 200_000 + b"]" * 200_000,  # nested past the recursion limit
        5: b"1" * 5000,                       # an integer past Python's digit limit
    }
    for i, raw in hostile.items():
        lines[i] = raw
    jsonl.write_bytes(b"\n".join(lines) + b"\n")
    parsed = list(iter_dataset(jsonl))
    assert [line.line_number for line in parsed] == list(range(1, len(frames) + 1))
    for i, line in enumerate(parsed):
        assert (line.record is None) == (i in hostile)
        assert (line.error is not None) == (i in hostile)
    assert "utf-8" in parsed[1].error and "recursion" in parsed[3].error


def _trained_model(n_classes=6, seed=0, trees=9):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(40, 5))
    y = rng.integers(0, n_classes, size=40)
    cfg = ForestConfig(n_trees=trees, max_depth=6, min_samples_leaf=2, rng_seed=seed)
    return train_arrays(X, y, REGIONS[:n_classes], cfg), rng.normal(size=(15, 5))


@pytest.mark.usefixtures("kernel")
def test_model_round_trip(tmp_path):
    model, queries = _trained_model()
    path = tmp_path / "model.gzkf"
    save_model(model, path)
    assert path.read_bytes()[:4] == MODEL_MAGIC
    loaded = load_model(path)
    assert loaded.config == model.config
    assert loaded.feature_dim == model.feature_dim
    assert loaded.class_order == model.class_order
    assert loaded.training_digest == model.training_digest
    assert np.array_equal(
        predict_proba_batch(loaded, queries), predict_proba_batch(model, queries)
    )
    # re-serialization is byte-identical
    assert model_bytes(loaded) == model_bytes(model)


@pytest.mark.usefixtures("kernel")
def test_model_round_trip_generic_labels(tmp_path):
    rng = np.random.default_rng(3)
    X = rng.normal(size=(20, 2))
    y = rng.integers(0, 3, size=20)
    model = train_arrays(X, y, ("alpha", "beta", "gamma"), ForestConfig(n_trees=3, max_depth=4))
    path = tmp_path / "m.gzkf"
    save_model(model, path)
    assert load_model(path).class_order == ("alpha", "beta", "gamma")


def test_model_rejects_corruption(tmp_path):
    model, _ = _trained_model()
    raw = bytearray(model_bytes(model))
    path = tmp_path / "m.gzkf"
    path.write_bytes(b"XXXX" + raw[4:])
    with pytest.raises(DataFormatError):
        load_model(path)
    path.write_bytes(bytes(raw) + b"\x00")
    with pytest.raises(DataFormatError):
        load_model(path)
    path.write_bytes(bytes(raw[: len(raw) // 2]))  # truncated payload
    with pytest.raises(DataFormatError):
        load_model(path)


def _model_with(model, name, index, value):
    """The fields of ``model`` with one entry of one node array replaced, or,
    for ``name`` "self_loop", a one-split forest whose node 0 is its own right
    child. Unchecked: a namespace that ``model_bytes`` writes as it would a
    model, since no ForestModel holds malformed nodes."""
    if name == "self_loop":
        nodes = ForestNodes(
            roots=np.array([0]), feature=np.array([0, -1, -1], dtype=np.int32),
            threshold=np.array([0.5, 0.0, 0.0]), right=np.array([0, -1, -1], dtype=np.int32),
            leaf_counts=np.array([[1, 0, 0, 0, 0, 0], [0, 1, 0, 0, 0, 0]], dtype=np.uint32),
        )
    else:
        arrays = {
            field: getattr(model.nodes, field).copy()
            for field in ("roots", "feature", "threshold", "right", "leaf_counts")
        }
        arrays[name][index] = value
        nodes = ForestNodes(**arrays)
    fields = {f.name: getattr(model, f.name) for f in dataclasses.fields(model) if f.init}
    config = dataclasses.replace(model.config, n_trees=nodes.n_trees)
    return SimpleNamespace(**{**fields, "config": config, "nodes": nodes})


MALFORMED_NODES = [
    ("feature", 0, 500, "split feature index 500"),
    ("feature", 0, -2, "unknown node tag"),
    ("threshold", 0, np.nan, "non-finite"),
    ("threshold", 0, -np.inf, "non-finite"),
    ("right", 0, 0, "right child"),  # not after its parent
    ("right", 0, 10**6, "right child"),  # outside its tree
    ("leaf_counts", 0, 0, "no class mass"),
]
MALFORMED_FORESTS = [*MALFORMED_NODES, ("self_loop", None, None, "right child")]


@pytest.mark.parametrize("name, index, value, message", MALFORMED_FORESTS)
def test_forest_model_refuses_malformed_nodes(name, index, value, message):
    model, _ = _trained_model()
    assert model.nodes.feature[0] >= 0  # node 0 is a split
    with pytest.raises(ValueError, match=message):
        ForestModel(**vars(_model_with(model, name, index, value)))


@pytest.mark.parametrize("name, index, value, message", MALFORMED_FORESTS)
def test_model_rejects_malformed_nodes(
    head_only_inputs, tmp_path, capsys, name, index, value, message
):
    model, _ = _trained_model()
    assert model.nodes.feature[0] >= 0  # node 0 is a split
    path = tmp_path / "m.gzkf"
    path.write_bytes(model_bytes(_model_with(model, name, index, value)))
    with pytest.raises(DataFormatError, match=message):
        load_model(path)
    root, _ = head_only_inputs
    code = main(["classify", "--model", str(path), "--data", str(root / "data"),
                 "--out", str(tmp_path / "decisions.jsonl")])
    assert code == 3
    assert message in capsys.readouterr().err


# The compiled walk checks every step itself, because its arrays can be
# changed in place after a ForestModel checked them. Each malformed forest
# that would lead it out of its tree goes to the walk directly, in a child
# process, so that a walk that is not stopped shows as a hang or a signal.
_WALK_MALFORMED = """
import json
import numpy as np
from gazekit import forest
import test_dataio as t

model, queries = t._trained_model()
queries = np.vstack([queries, np.full(5, np.nan)])  # NaN goes right at every split
compiled = forest._kernels()
assert compiled is not None
outcomes = {}
for i in (0, 1, 4, 5, 7):  # bad tags and right children, and the self-loop
    nodes = t._model_with(model, *t.MALFORMED_FORESTS[i][:3]).nodes
    fractions = np.zeros((nodes.feature.size, 6))
    fractions[nodes.feature == forest.LEAF] = 1.0 / 6
    try:
        compiled.predict(nodes, fractions, queries)
        outcomes[f"walk {i}"] = "returned"
    except ValueError:
        outcomes[f"walk {i}"] = "raised"
print(json.dumps(outcomes))
"""


def test_compiled_walk_refuses_nodes_outside_their_tree(compiled, tmp_path):
    tests_dir = Path(__file__).resolve().parent
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([SRC, str(tests_dir)]))
    proc = subprocess.run(
        [sys.executable, "-c", _WALK_MALFORMED], env=env, cwd=tmp_path,
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr  # neither a hang nor a signal
    outcomes = json.loads(proc.stdout.splitlines()[-1])
    assert len(outcomes) == 5
    assert set(outcomes.values()) == {"raised"}, outcomes


@pytest.mark.parametrize("first_tree_delta", [1, -1])
def test_model_rejects_node_counts_that_miss_the_payload(tmp_path, first_tree_delta):
    model, _ = _trained_model()
    raw = bytearray(model_bytes(model))
    sizes = model.nodes.tree_sizes
    at = raw.index(sizes.astype("<u4").tobytes())
    raw[at : at + 4] = struct.pack("<I", int(sizes[0]) + first_tree_delta)
    path = tmp_path / "m.gzkf"
    path.write_bytes(bytes(raw))
    with pytest.raises(DataFormatError):
        load_model(path)


def test_model_rejects_other_versions(tmp_path):
    model, _ = _trained_model()
    raw = model_bytes(model)
    path = tmp_path / "m.gzkf"
    path.write_bytes(raw[:4] + struct.pack("<H", 1) + raw[6:])
    with pytest.raises(DataFormatError, match="unsupported model version 1"):
        load_model(path)


@pytest.fixture(scope="module")
def head_only_inputs(tmp_path_factory):
    """A 12-frame dataset and a small valid head-only model."""
    root = tmp_path_factory.mktemp("fuzz")
    profile = SubjectProfile("subj", head_gain=0.4, landmark_jitter=0.5, image_noise=5.0)
    write_dataset(root / "data", iter_subject_frames(profile, 2, np.random.default_rng(0)))
    rng = np.random.default_rng(1)
    X = rng.normal(size=(60, 136))
    y = np.arange(60) % 6
    model = train_arrays(X, y, REGIONS, ForestConfig(n_trees=3, max_depth=4, rng_seed=2))
    return root, model


def test_classify_rejects_out_of_range_feature_with_exit_3(head_only_inputs, capsys):
    root, model = head_only_inputs
    path = root / "feature500.gzkf"
    path.write_bytes(model_bytes(_model_with(model, "feature", 0, 500)))
    code = main(["classify", "--model", str(path), "--data", str(root / "data"),
                 "--out", str(root / "d500.jsonl")])
    assert code == 3
    assert "split feature index 500" in capsys.readouterr().err


_mutation = st.one_of(
    st.tuples(st.just("flip"), st.lists(st.tuples(st.integers(0), st.integers(1, 255)),
                                         min_size=1, max_size=4)),
    st.tuples(st.just("truncate"), st.integers(0)),
    st.tuples(st.just("extend"), st.binary(min_size=1, max_size=24)),
)


def _mutate(raw: bytes, mutation) -> bytes:
    kind, arg = mutation
    if kind == "truncate":
        return raw[: arg % len(raw)]
    if kind == "extend":
        return raw + arg
    out = bytearray(raw)
    for position, mask in arg:
        out[position % len(out)] ^= mask
    return bytes(out)


@pytest.mark.usefixtures("kernel")
@settings(max_examples=150, deadline=None)
@given(_mutation)
def test_mutated_model_bytes_load_cleanly_or_fail_as_data_errors(head_only_inputs, mutation):
    root, model = head_only_inputs
    path = root / "mutated.gzkf"
    path.write_bytes(_mutate(model_bytes(model), mutation))
    try:
        model = load_model(path)
    except DataFormatError:
        pass
    else:
        if model.feature_dim <= 4096:  # a flipped header can ask for any width
            queries = np.random.default_rng(3).normal(size=(4, model.feature_dim))
            queries[0] = np.nan
            probs = predict_proba_batch(model, queries)
            assert np.all(probs >= 0.0)
            assert np.allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-9)
    code = main(["classify", "--model", str(path), "--data", str(root / "data"),
                 "--out", str(root / "decisions.jsonl")])
    assert code in (0, 3)


def test_parsed_line_is_plain_data():
    line = ParsedLine(3, None, error="boom")
    assert line.line_number == 3 and line.record is None
