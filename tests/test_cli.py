import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gazekit
from gazekit.cli import _SETTINGS, CLASSIFY_BATCH, _decision_obj, main
from gazekit.core import REGIONS
from gazekit.dataio import iter_dataset, load_manifest, load_model, save_model
from gazekit.features import FeatureMode, build_feature
from gazekit.forest import ForestConfig, train_arrays
from gazekit.pipeline import PipelineConfig, classify_frame
from gazekit.pupil import DEFAULT_GRID

SRC = str(Path(gazekit.__file__).resolve().parents[1])


def test_cli_import_loads_no_package_but_numpy():
    code = (
        "import sys, numpy\n"
        "from importlib.metadata import packages_distributions\n"
        "before = set(sys.modules)\n"
        "import gazekit.cli\n"
        "installed = packages_distributions()\n"
        "loaded = {name.split('.')[0] for name in set(sys.modules) - before}\n"
        "print(sorted({d for name in loaded - {'gazekit'} for d in installed.get(name, [])}))\n"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_synthetic_study_script_runs(tmp_path):
    """The script reads ``summary.json`` keys by name; a renamed key breaks it."""
    script = Path(__file__).resolve().parents[1] / "scripts" / "run_synthetic_study.py"
    argv = ["--out", str(tmp_path), "--subjects", "2", "--trees", "3", "--depth", "4",
            "--repetitions", "1"]
    proc = subprocess.run(
        [sys.executable, str(script), *argv], env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "head-and-eye accuracy:" in proc.stdout


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "data"
    code = main(
        [
            "synth",
            "--subjects", "2",
            "--frames-per-region", "120",
            "--seed", "7",
            "--alphas", "0.2,0.8",
            "--out", str(out),
        ]
    )
    assert code == 0
    return out


def test_synth_requires_out(capsys):
    assert main(["synth", "--subjects", "2"]) == 2
    capsys.readouterr()


def test_synth_manifest_and_determinism(dataset, tmp_path, capsys):
    manifest = load_manifest(dataset)
    assert manifest["total_frames"] == 2 * 6 * 120
    again = tmp_path / "again"
    assert (
        main(
            [
                "synth",
                "--subjects", "2",
                "--frames-per-region", "120",
                "--seed", "7",
                "--alphas", "0.2,0.8",
                "--out", str(again),
            ]
        )
        == 0
    )
    capsys.readouterr()
    assert load_manifest(again)["frames_sha256"] == manifest["frames_sha256"]


def test_synth_rejects_small_populations(tmp_path, capsys):
    code = main(
        ["synth", "--subjects", "1", "--frames-per-region", "10", "--out", str(tmp_path / "x")]
    )
    assert code == 2
    capsys.readouterr()


def _train(dataset, tmp_path, mode, capsys, extra=()):
    model_path = tmp_path / f"model_{mode}.gzkf"
    code = main(
        [
            "train",
            "--data", str(dataset),
            "--out", str(model_path),
            "--mode", mode,
            "--trees", "12",
            "--depth", "8",
            "--seed", "5",
            *extra,
        ]
    )
    out = capsys.readouterr().out
    return code, model_path, out


def test_train_both_modes(dataset, tmp_path, capsys):
    code, path, out = _train(dataset, tmp_path, "head-eye", capsys)
    assert code == 0
    summary = json.loads(out)
    assert summary["feature_dim"] == 138
    assert load_model(path).feature_dim == 138

    code, path, _ = _train(dataset, tmp_path, "head-only", capsys)
    assert code == 0
    assert load_model(path).feature_dim == 136


def test_train_insufficient_data(dataset, tmp_path, capsys):
    code = main(
        [
            "train",
            "--data", str(dataset),
            "--out", str(tmp_path / "m.gzkf"),
            "--min-frames", "500",
        ]
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "s00" in err and "road" in err


def test_train_without_any_face_is_a_data_error(tmp_path, capsys):
    (tmp_path / "frames.jsonl").write_text("{ broken\n")
    assert main(["train", "--data", str(tmp_path), "--out", str(tmp_path / "m.gzkf")]) == 3
    assert "no subject" in capsys.readouterr().err


def test_evaluate_without_two_subjects_is_a_data_error_before_any_report(tmp_path, capsys):
    (tmp_path / "frames.jsonl").write_text("{ broken\n")
    out = tmp_path / "reports"
    assert main(["evaluate", "--data", str(tmp_path), "--out", str(out)]) == 3
    assert "at least 2 subjects" in capsys.readouterr().err
    assert not out.exists()


def test_classify_stream(dataset, tmp_path, capsys):
    code, model_path, _ = _train(dataset, tmp_path, "head-eye", capsys)
    assert code == 0
    decisions = tmp_path / "decisions.jsonl"
    code = main(
        [
            "classify",
            "--model", str(model_path),
            "--data", str(dataset),
            "--out", str(decisions),
            "--confidence-threshold", "1",
        ]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    lines = [json.loads(l) for l in decisions.read_text().splitlines()]
    assert len(lines) == 2 * 6 * 120  # one output record per input frame
    accepted = [l for l in lines if l["status"] == "accepted"]
    assert summary["confident_decisions"] == len(accepted)
    assert summary["pupils_detected"] >= len(accepted)
    statuses = {l["status"] for l in lines}
    assert statuses <= {"accepted", "low_confidence", "pupil_failed", "no_face"}
    for line in accepted:
        assert line["region"] in {
            "road", "center_stack", "instrument_cluster", "rearview_mirror", "left", "right"
        }
        assert line["confidence"] is None or line["confidence"] > 1.0


def test_classify_handles_corrupt_lines(dataset, tmp_path, capsys):
    code, model_path, _ = _train(dataset, tmp_path, "head-eye", capsys)
    jsonl = dataset / "frames.jsonl"
    corrupt = tmp_path / "corrupt"
    corrupt.mkdir()
    lines = jsonl.read_text().splitlines()[:20]
    lines[4] = "{ broken"
    (corrupt / "frames.jsonl").write_text("\n".join(lines) + "\n")
    (corrupt / "crops").symlink_to(dataset / "crops")

    decisions = tmp_path / "d.jsonl"
    code = main(
        [
            "classify",
            "--model", str(model_path),
            "--data", str(corrupt),
            "--out", str(decisions),
        ]
    )
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    out_lines = [json.loads(l) for l in decisions.read_text().splitlines()]
    assert len(out_lines) == 20
    assert out_lines[4]["status"] == "no_face"
    assert summary["total_frames"] == 20 and summary["faces_detected"] == 19


def test_classify_writes_pupil_failed_for_coincident_eye_corners(dataset, tmp_path, capsys):
    code, model_path, _ = _train(dataset, tmp_path, "head-eye", capsys)
    assert code == 0
    obj = json.loads((dataset / "frames.jsonl").read_text().splitlines()[0])
    polygon = np.array(obj["eye_polygon"]).reshape(6, 2)
    polygon[0] = polygon[3] = polygon.mean(axis=0)
    obj["eye_polygon"] = polygon.ravel().tolist()
    hostile = tmp_path / "hostile"
    hostile.mkdir()
    (hostile / "frames.jsonl").write_text(json.dumps(obj) + "\n")
    (hostile / "crops").symlink_to(dataset / "crops")
    decisions = tmp_path / "d.jsonl"
    argv = ["classify", "--model", str(model_path), "--data", str(hostile)]
    assert main([*argv, "--out", str(decisions)]) == 0
    summary = json.loads(capsys.readouterr().out)
    assert json.loads(decisions.read_text())["status"] == "pupil_failed"
    assert (summary["faces_detected"], summary["pupils_detected"]) == (1, 0)


def test_classify_with_the_default_pupil_grid_spelled_out_is_unchanged(dataset, tmp_path, capsys):
    code, model_path, _ = _train(dataset, tmp_path, "head-eye", capsys)
    assert code == 0
    grid = ",".join(
        map(str, (*DEFAULT_GRID.cdf_thresholds, *DEFAULT_GRID.opening_windows,
                  *DEFAULT_GRID.closing_windows))
    )
    argv = ["classify", "--model", str(model_path), "--data", str(dataset)]
    assert main([*argv, "--out", str(tmp_path / "implicit.jsonl")]) == 0
    assert main([*argv, "--out", str(tmp_path / "explicit.jsonl"), "--pupil-grid", grid]) == 0
    capsys.readouterr()
    implicit = (tmp_path / "implicit.jsonl").read_bytes()
    assert implicit.count(b"\n") == 2 * 6 * 120
    assert (tmp_path / "explicit.jsonl").read_bytes() == implicit


@pytest.mark.parametrize("mode", ["head-only", "head-eye"])
def test_classify_batches_match_frame_by_frame(dataset, tmp_path, capsys, mode):
    code, model_path, _ = _train(dataset, tmp_path, mode, capsys)
    assert code == 0
    data = tmp_path / "dropouts"
    assert (
        main(
            [
                "synth",
                "--subjects", "1",
                "--frames-per-region", "120",
                "--seed", "11",
                "--p-face-fail", "0.1",
                "--p-pupil-fail", "0.2",
                "--out", str(data),
            ]
        )
        == 0
    )
    decisions = tmp_path / "batched.jsonl"
    code = main(
        [
            "classify",
            "--model", str(model_path),
            "--data", str(data),
            "--out", str(decisions),
            "--confidence-threshold", "3",
        ]
    )
    assert code == 0
    capsys.readouterr()

    model = load_model(model_path)
    cfg = PipelineConfig(mode=FeatureMode(mode), confidence_threshold=3.0)
    entries = list(iter_dataset(data / "frames.jsonl"))
    assert len(entries) > CLASSIFY_BATCH and len(entries) % CLASSIFY_BATCH != 0
    expected = "".join(
        json.dumps(_decision_obj(e.line_number, e, classify_frame(e.record, model, cfg))) + "\n"
        for e in entries
    )
    assert decisions.read_text() == expected
    statuses = {json.loads(line)["status"] for line in expected.splitlines()}
    assert {"accepted", "low_confidence", "no_face"} <= statuses
    assert ("pupil_failed" in statuses) == (mode == "head-eye")


def _evaluate(dataset, out_dir, extra=()):
    return main(
        [
            "evaluate",
            "--data", str(dataset),
            "--out", str(out_dir),
            "--trees", "10",
            "--depth", "7",
            "--repetitions", "2",
            "--seed", "3",
            "--confidence-threshold", "2",
            *extra,
        ]
    )


def test_evaluate_reports(dataset, tmp_path, capsys):
    out_dir = tmp_path / "reports"
    assert _evaluate(dataset, out_dir) == 0
    capsys.readouterr()
    assert json.loads((out_dir / "status.json").read_text())["complete"] is True
    ledger = json.loads((out_dir / "ledger.json").read_text())
    assert (
        ledger["total_frames"]
        >= ledger["faces_detected"]
        >= ledger["pupils_detected"]
        >= ledger["confident_decisions"]
    )
    deltas = (out_dir / "region_deltas.csv").read_text().splitlines()
    assert len(deltas) == 7  # header + six regions
    per_user = (out_dir / "per_user.csv").read_text().splitlines()
    assert len(per_user) == 3
    config = json.loads((out_dir / "resolved_config.json").read_text())
    assert config["seed"] == 3 and config["command"] == "evaluate"
    summary = json.loads((out_dir / "summary.json").read_text())
    assert set(summary["modes"]) == {"head-only", "head-eye"}
    assert summary["pearson_defined"] == (summary["owlness_delta_pearson_r"] is not None)


def _refuse_constant(name):
    raise ValueError(f"not strict JSON: {name}")


def test_evaluate_writes_only_strict_json(dataset, tmp_path, capsys):
    out_dir = tmp_path / "strict"
    assert _evaluate(dataset, out_dir) == 0
    capsys.readouterr()
    written = sorted(out_dir.rglob("*.json"))
    assert {p.name for p in written} >= {"ledger.json", "resolved_config.json", "status.json"}
    for path in written:
        json.loads(path.read_text(), parse_constant=_refuse_constant)


def test_evaluate_without_accepted_decisions_leaves_r_undefined(dataset, tmp_path, capsys):
    # One-split trees never vote 1000:1, so no decision is accepted and every
    # subject's delta is NaN.
    out_dir = tmp_path / "none"
    assert _evaluate(dataset, out_dir, extra=("--depth", "1", "--confidence-threshold", "1000")) == 0
    capsys.readouterr()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["owlness_delta_pearson_r"] is None
    assert summary["pearson_defined"] is False


def test_evaluate_threshold_one_accepts_nearly_everything(dataset, tmp_path, capsys):
    out_dir = tmp_path / "t1"
    assert (
        main(
            [
                "evaluate",
                "--data", str(dataset),
                "--out", str(out_dir),
                "--mode", "head-eye",
                "--trees", "10",
                "--depth", "7",
                "--repetitions", "1",
                "--seed", "3",
                "--confidence-threshold", "1",
            ]
        )
        == 0
    )
    capsys.readouterr()
    ledger = json.loads((out_dir / "ledger.json").read_text())
    # strict > 1 rejects only exact top-two probability ties
    assert ledger["confident_decisions"] <= ledger["pupils_detected"]
    assert ledger["confident_decisions"] >= 0.95 * ledger["pupils_detected"]


def test_evaluate_single_mode_and_plots(dataset, tmp_path, capsys):
    out_dir = tmp_path / "single"
    assert _evaluate(dataset, out_dir, extra=("--mode", "head-eye")) == 0
    capsys.readouterr()
    summary = json.loads((out_dir / "summary.json").read_text())
    assert summary["modes"] == ["head-eye"]
    assert not (out_dir / "region_deltas.csv").exists()

    plot_dir = tmp_path / "plots"
    assert _evaluate(dataset, plot_dir, extra=("--plots",)) == 0
    capsys.readouterr()
    assert (plot_dir / "plots" / "region_deltas.svg").exists()
    assert (plot_dir / "plots" / "owlness_vs_delta.svg").exists()


def test_config_file_merging(dataset, tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"trees": 6, "depth": 5, "repetitions": 1, "seed": 2,
                                  "confidence_threshold": 2.0}))
    out_dir = tmp_path / "cfg_reports"
    code = main(
        [
            "evaluate",
            "--data", str(dataset),
            "--out", str(out_dir),
            "--config", str(config),
            "--trees", "8",  # flag overrides file
        ]
    )
    assert code == 0
    capsys.readouterr()
    resolved = json.loads((out_dir / "resolved_config.json").read_text())
    assert resolved["trees"] == 8
    assert resolved["depth"] == 5
    assert resolved["repetitions"] == 1


def test_config_file_unknown_key(dataset, tmp_path, capsys):
    config = tmp_path / "bad.json"
    config.write_text(json.dumps({"tress": 6}))
    code = main(
        ["evaluate", "--data", str(dataset), "--out", str(tmp_path / "r"), "--config", str(config)]
    )
    assert code == 2
    assert "tress" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, values, code",
    [
        ("train", {"trees": "5"}, 2),
        ("evaluate", {"repetitions": 2.5}, 2),
        ("train", {"depth": True}, 2),
        ("evaluate", {"fps": "30"}, 2),
        ("evaluate", {"plots": 1}, 2),
        ("evaluate", {"mode": 3}, 2),
        # an int stands for a float; the missing dataset then fails the run
        ("evaluate", {"fps": 30, "confidence_threshold": 2}, 3),
        ("train", {"mode": "both"}, 2),
        ("evaluate", {"mode": "bogus"}, 2),
    ],
)
def test_config_file_value_types(tmp_path, capsys, command, values, code):
    config = tmp_path / "typed.json"
    config.write_text(json.dumps(values))
    argv = [command, "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]
    assert main([*argv, "--config", str(config)]) == code
    err = capsys.readouterr().err
    if code == 2:
        assert repr(next(iter(values))) in err


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100_000 + b"]" * 100_000])
def test_unreadable_config_file_exits_2(tmp_path, capsys, content):
    config = tmp_path / "config.json"
    config.write_bytes(content)
    argv = ["train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]
    assert main([*argv, "--config", str(config)]) == 2
    assert "cannot read config file" in capsys.readouterr().err


def test_unreadable_dataset_is_a_data_error(tmp_path, capsys):
    code = main(
        ["train", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "m.gzkf")]
    )
    assert code == 3
    capsys.readouterr()


def test_missing_dataset_exits_3_before_any_output(dataset, tmp_path, capsys):
    model = tmp_path / "m.gzkf"
    assert main(["train", "--data", str(dataset), "--out", str(model), "--trees", "2",
                 "--min-frames", "1"]) == 0
    capsys.readouterr()
    missing = tmp_path / "nope"
    outs = {"train": tmp_path / "m2.gzkf", "evaluate": tmp_path / "r", "classify": tmp_path / "d"}
    for command, out in outs.items():
        extra = ["--model", str(model)] if command == "classify" else []
        assert main([command, "--data", str(missing), "--out", str(out), *extra]) == 3
        assert f"dataset not found: {missing}" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "command, key, value",
    [
        ("train", "trees", 0),
        ("train", "depth", 0),
        ("train", "min_leaf", 0),
        ("evaluate", "trees", 0),
        ("evaluate", "repetitions", 0),
        ("evaluate", "confidence_threshold", 0.5),
        ("evaluate", "fps", 0.0),
        ("evaluate", "fps", float("inf")),
        ("evaluate", "fps", 1001),
        ("evaluate", "fps", 1e308),  # its rates would not be finite
        ("evaluate", "confidence_threshold", float("inf")),
        ("train", "min_frames", -5),
        ("evaluate", "min_frames", -5),
        ("classify", "confidence_threshold", 0.5),
        ("classify", "confidence_threshold", float("nan")),
        ("classify", "confidence_threshold", float("inf")),
        *(
            (command, "pupil_grid", grid)
            for command in ("train", "evaluate", "classify")
            for grid in (
                "0.03,0.05,0.1,1,3,5,1,3",  # eight values
                "0.03,0.05,low,1,3,5,1,3,5",
                "0.03,0.05,0.1,1,3,5,1,4,5",  # an even window
                "0.05,0.03,0.1,1,3,5,1,3,5",  # unsorted
                "0.03,0.05,0.1,1,3,5,1,3,33",  # a window past 31
            )
        ),
    ],
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_out_of_range_settings_exit_2_before_any_work(tmp_path, capsys, command, key, value, source):
    # The dataset and model do not exist: reading either would exit 3.
    argv = [command, "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]
    if command == "classify":
        argv += ["--model", str(tmp_path / "nope.gzkf")]
    flag = "--" + key.replace("_", "-")
    if source == "flag":
        argv += [flag, str(value)]
    else:
        config = tmp_path / "range.json"
        config.write_text(json.dumps({key: value}))
        argv += ["--config", str(config)]
    assert main(argv) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize(
    "key, value",
    [
        ("subjects", 0),
        ("subjects", 1001),
        ("subjects", 10**20),
        ("frames_per_region", 119),
        ("frames_per_region", 10001),
        ("p_face_fail", 1.5),
        ("p_face_fail", -0.1),
        ("p_pupil_fail", -0.1),
        ("p_pupil_fail", 1.5),
        ("landmark_jitter", -1.0),
        ("landmark_jitter", 20.5),
        ("landmark_jitter", 1000.0),
        ("landmark_jitter", 1e308),
        ("image_noise", -1.0),
        ("alphas", "0.5"),  # one gain for 40 subjects
        ("alphas", ",".join(["0.5"] * 39 + ["1.5"])),
        ("alphas", ",".join(["0.5"] * 39 + ["-0.1"])),
        ("alphas", "0.5,x"),
        ("alphas", 5),
        ("alphas", [0.5, "x"]),
        ("head_motion", float("nan")),
        ("head_motion", float("inf")),
        ("head_motion", float("-inf")),
    ],
)
@pytest.mark.parametrize("source", ["flag", "config"])
def test_synth_settings_out_of_range_exit_2_before_any_work(tmp_path, capsys, key, value, source):
    out = tmp_path / "population"
    argv = ["synth", "--out", str(out)]
    flag = "--" + key.replace("_", "-")
    if source == "flag":
        argv += [flag, str(value)]
    else:
        config = tmp_path / "range.json"
        config.write_text(json.dumps({key: value}))
        argv += ["--config", str(config)]
    assert main(argv) == 2
    assert flag in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("source", ["flag", "config"])
def test_owl_thresholds_must_be_numbers(tmp_path, capsys, source):
    argv = ["evaluate", "--data", str(tmp_path / "nope"), "--out", str(tmp_path / "o")]
    if source == "flag":
        argv += ["--owl-thresholds", "a,b"]
    else:
        config = tmp_path / "owl.json"
        config.write_text(json.dumps({"owl_thresholds": "0.4,high"}))
        argv += ["--config", str(config)]
    assert main(argv) == 2
    assert "--owl-thresholds" in capsys.readouterr().err


_JSON_VALUES = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.sampled_from([2**64, -(2**64), 10**40]),
        st.floats(allow_nan=True, allow_infinity=True),
        st.text(max_size=12),
        st.sampled_from(
            ["head-only", "both", "0.45,0.55", "0.55,0.45", "0.03,0.05,0.1,1,3,5,1,3,5", "1e999"]
        ),
    ),
    lambda children: st.lists(children, max_size=3),
    max_leaves=6,
)


@pytest.mark.parametrize("command", ["synth", "train", "evaluate", "classify"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_config_fuzz_never_exits_4(tmp_path_factory, command, data):
    keys = [row.name for row in _SETTINGS if command in row.commands]
    values = data.draw(
        st.dictionaries(st.sampled_from(keys), _JSON_VALUES, max_size=3), label="config"
    )
    root = tmp_path_factory.getbasetemp() / f"fuzz_{command}"
    root.mkdir(exist_ok=True)
    config = root / "config.json"
    config.write_text(json.dumps(values))
    if command == "synth":
        # Under a regular file, a valid config fails at mkdir, before any work.
        (root / "file").write_text("")
        argv = ["synth", "--out", str(root / "file" / "population")]
    else:
        argv = [command, "--data", str(root / "nope"), "--out", str(root / "out")]
        if command == "classify":
            argv += ["--model", str(root / "nope.gzkf")]
    assert main([*argv, "--config", str(config)]) in (2, 3)


def _head_only_rows(dataset):
    entries = [e for e in iter_dataset(dataset / "frames.jsonl") if e.record is not None]
    X = np.stack(
        [build_feature(e.record, None, FeatureMode.HEAD_ONLY).as_array() for e in entries]
    )
    return entries, X


def test_classify_reads_probabilities_in_the_model_class_order(dataset, tmp_path, capsys):
    entries, X = _head_only_rows(dataset)
    reversed_regions = REGIONS[::-1]
    y = np.array([reversed_regions.index(e.record.label) for e in entries])
    model = train_arrays(X, y, reversed_regions, ForestConfig(n_trees=20, rng_seed=1))
    model_path = tmp_path / "reversed.gzkf"
    save_model(model, model_path)
    decisions = tmp_path / "decisions.jsonl"
    argv = ["classify", "--model", str(model_path), "--data", str(dataset)]
    assert main([*argv, "--out", str(decisions), "--confidence-threshold", "1"]) == 0
    capsys.readouterr()
    truth = {e.line_number: e.record.label.value for e in entries}
    accepted = [
        line for line in map(json.loads, decisions.read_text().splitlines())
        if line["status"] == "accepted"
    ]
    assert len(accepted) > 0.9 * len(entries)
    correct = sum(line["region"] == truth[line["line"]] for line in accepted)
    assert correct > 0.95 * len(accepted)


def test_classify_refuses_a_model_without_the_six_regions(dataset, tmp_path, capsys):
    entries, X = _head_only_rows(dataset)
    y = np.arange(len(entries)) % 3
    model = train_arrays(X, y, ("alpha", "beta", "gamma"), ForestConfig(n_trees=2, max_depth=3))
    model_path = tmp_path / "generic.gzkf"
    save_model(model, model_path)
    argv = ["classify", "--model", str(model_path), "--data", str(dataset)]
    assert main([*argv, "--out", str(tmp_path / "d.jsonl")]) == 3
    assert "six gaze regions" in capsys.readouterr().err
