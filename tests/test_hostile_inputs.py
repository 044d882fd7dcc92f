"""Hostile frame data never reaches exit 4: ``train``, ``evaluate`` and
``classify`` exit 0, 2 or 3 whatever a JSONL line or an eye crop holds."""

import copy
import json
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gazekit.cli import main

FIELDS = ("subject_id", "frame_index", "label", "landmarks", "eye_crop", "eye_polygon")
ARRAYS = ("landmarks", "eye_polygon")
FOREST = ["--trees", "3", "--min-frames", "1"]
MUTATED_CROP = "crops/mutated.pgm"
# Landmarks 27-47, the eyes-and-nose box, as flat x, y indices.
BOX = (54, 96)
NOT_UTF8 = b"\xff"
TOO_DEEP = b"[" * 200_000 + b"]" * 200_000  # past the JSON decoder's recursion limit


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    """24 frame objects, 2 per region and subject, cut from a 2-subject synth
    population; their crops under ``data``; and a model trained on them."""
    root = tmp_path_factory.mktemp("hostile")
    population = root / "population"
    argv = ["synth", "--subjects", "2", "--frames-per-region", "120", "--seed", "1"]
    assert main([*argv, "--out", str(population)]) == 0
    data = root / "data"
    objs, seen = [], Counter()
    for line in (population / "frames.jsonl").read_text().splitlines():
        obj = json.loads(line)
        key = (obj["subject_id"], obj["label"])
        if seen[key] < 2:
            seen[key] += 1
            objs.append(obj)
            crop = data / obj["eye_crop"]
            crop.parent.mkdir(parents=True, exist_ok=True)
            crop.write_bytes((population / obj["eye_crop"]).read_bytes())
    assert len(objs) == 24
    _write_frames(data, objs)
    model = root / "model.gzkf"
    assert main(["train", "--data", str(data), "--out", str(model), *FOREST]) == 0
    return root, data, model, objs


def _write_frames(data, objs, replaced=None):
    """Write ``objs`` as JSONL; ``replaced`` maps a line index to the bytes
    written in place of that line."""
    lines = [json.dumps(obj).encode() for obj in objs]
    for index, raw in (replaced or {}).items():
        lines[index] = raw
    (data / "frames.jsonl").write_bytes(b"".join(line + b"\n" for line in lines))


_NUMBERS = st.sampled_from(
    [1e308, -1e308, 1e300, 1e-300, 1e-312, 5e-324, -5e-324, 0.0, -0.0,
     float("nan"), float("inf"), float("-inf"), 10**400, 2**63, -(2**63), True]
)
# st.text() draws no surrogates, but a JSON escape such as "\ud800" decodes to one.
_TEXT = st.text(st.characters() | st.characters(categories=["Cs"]), max_size=8)
_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(), _NUMBERS, st.floats(), _TEXT,
    st.lists(_NUMBERS | st.floats(), max_size=3),
    st.lists(_NUMBERS, min_size=12, max_size=12), st.lists(_NUMBERS, min_size=136, max_size=136),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)
_FIELD_MUTATION = st.one_of(
    st.tuples(st.just("drop"), st.sampled_from(FIELDS)),
    st.tuples(st.just("set"), st.sampled_from(FIELDS), _VALUES),
    st.tuples(st.just("element"), st.sampled_from(ARRAYS), st.integers(0, 135), _NUMBERS),
    st.tuples(
        st.just("scale"), st.sampled_from(ARRAYS), st.integers(0, 135), st.integers(1, 136),
        st.sampled_from([1e-312, 5e-324, 1e-300, 0.0, -1.0, 1e300, 1e308]),
    ),
)
_LINE_MUTATION = st.tuples(st.just("line"), st.binary(max_size=32))
_SUBJECT_MUTATION = st.tuples(st.just("subject"), _TEXT)  # renames every line of one subject
_PART = st.sampled_from(["header", "payload"])
_CROP_MUTATION = st.one_of(
    st.tuples(st.just("flip"), _PART, st.lists(
        st.tuples(st.integers(0), st.integers(1, 255)), min_size=1, max_size=4)),
    st.tuples(st.just("truncate"), _PART, st.integers(0)),
    st.tuples(st.just("extend"), _PART, st.binary(min_size=1, max_size=24)),
)


def _mutate_frame(obj, mutation):
    kind, name, *args = mutation
    if kind == "drop":
        del obj[name]
    elif kind == "set":
        obj[name] = args[0]
    elif kind == "element":
        index, value = args
        obj[name][index % len(obj[name])] = value
    else:  # scale a slice of the array
        start, stop, factor = args
        obj[name][start:stop] = [v * factor for v in obj[name][start:stop]]


def _mutate_crop(raw: bytes, mutation) -> bytes:
    kind, part, arg = mutation
    split = raw.index(b"255\n") + 4  # synth writes "P5\n<w> <h>\n255\n"
    head, payload = raw[:split], raw[split:]
    if kind == "truncate":
        return head[: arg % len(head)] if part == "header" else head + payload[: arg % len(payload)]
    if kind == "extend":
        return head + arg + payload if part == "header" else raw + arg
    out = bytearray(raw)
    offset, size = (0, len(head)) if part == "header" else (len(head), len(payload))
    for position, mask in arg:
        out[offset + position % size] ^= mask
    return bytes(out)


def _run_all(root, data, model):
    out = root / "out"
    out.mkdir(exist_ok=True)
    return [
        main(["train", "--data", str(data), "--out", str(out / "model.gzkf"), *FOREST]),
        main(["evaluate", "--data", str(data), "--out", str(out / "reports"), *FOREST,
              "--repetitions", "1"]),
        main(["classify", "--model", str(model), "--data", str(data),
              "--out", str(out / "decisions.jsonl")]),
    ]


@settings(max_examples=200, deadline=None)
@given(
    line=st.integers(0, 23),
    mutation=_FIELD_MUTATION | _CROP_MUTATION | _LINE_MUTATION | _SUBJECT_MUTATION,
)
@example(line=7, mutation=("scale", "landmarks", *BOX, 1e-312))  # a subnormal box
@example(line=3, mutation=("element", "eye_polygon", 5, 10**400))  # an int past float64
@example(line=5, mutation=("line", NOT_UTF8))
@example(line=5, mutation=("line", TOO_DEEP))
@example(line=13, mutation=("subject", "s\ud80001"))  # a lone surrogate
def test_hostile_frames_never_exit_4(base, line, mutation):
    root, data, model, objs = base
    objs = copy.deepcopy(objs)
    replaced = {}
    if mutation[0] in ("flip", "truncate", "extend"):
        raw = (data / objs[line]["eye_crop"]).read_bytes()
        (data / MUTATED_CROP).write_bytes(_mutate_crop(raw, mutation))
        objs[line]["eye_crop"] = MUTATED_CROP
    elif mutation[0] == "line":
        replaced[line] = mutation[1]
    elif mutation[0] == "subject":
        subject = objs[line]["subject_id"]
        for obj in objs:
            if obj["subject_id"] == subject:
                obj["subject_id"] = mutation[1]
    else:
        _mutate_frame(objs[line], mutation)
    _write_frames(data, objs, replaced)
    codes = _run_all(root, data, model)
    assert set(codes) <= {0, 2, 3}, codes


def _assert_line_7_is_no_face(base, tmp_path, objs, replaced=None):
    """``train``, ``evaluate`` and ``classify`` succeed on the hostile frames,
    and count line 8 (index 7) as a frame without a face."""
    root, _, model, _ = base
    data = tmp_path / "data"
    data.mkdir()
    (data / "crops").symlink_to(root / "data" / "crops")
    _write_frames(data, objs, replaced)
    assert _run_all(tmp_path, data, model) == [0, 0, 0]
    ledger = json.loads((tmp_path / "out" / "reports" / "ledger.json").read_text())
    assert ledger["faces_detected"] == 23
    decisions = (tmp_path / "out" / "decisions.jsonl").read_text().splitlines()
    assert json.loads(decisions[7])["status"] == "no_face"


def test_subnormal_box_frame_is_no_face(base, tmp_path):
    objs = copy.deepcopy(base[3])
    _mutate_frame(objs[7], ("scale", "landmarks", *BOX, 1e-312))
    _assert_line_7_is_no_face(base, tmp_path, objs)


@pytest.mark.parametrize("raw", [NOT_UTF8, TOO_DEEP], ids=["not_utf8", "too_deep"])
def test_undecodable_line_is_no_face(base, tmp_path, raw):
    _assert_line_7_is_no_face(base, tmp_path, base[3], {7: raw})
