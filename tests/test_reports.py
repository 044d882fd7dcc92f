"""The bytes of the report tables, pinned on a hand-built study.

No forest is trained: the study's numbers are written out below. It has two
modes, a subject without an owlness report, a repetition with no accepted
decision (NaN accuracy) and a region with no frames (an empty confusion row).
The tables are the report contract, so a change of the study's data
structures that changes one byte of them fails here.
"""

import csv
import dataclasses
import json
import math

import numpy as np

from gazekit.analysis import (
    DeltaReport,
    EvalConfig,
    OwlnessReport,
    Strategy,
    StudyResult,
    SubjectResult,
)
from gazekit.features import FeatureMode
from gazekit.pipeline import AttritionLedger
from gazekit.reports import write_study_reports

HO, HE = FeatureMode.HEAD_ONLY, FeatureMode.HEAD_AND_EYE
NAN = math.nan

ACCURACIES = {
    "a": {HO: [0.5, 0.75], HE: [0.75, 1.0]},
    "b": {HO: [NAN, 0.5], HE: [0.25, 0.75]},
    "c": {HO: [1.0, 0.5], HE: [0.5, 0.5]},
}
ACCEPTED = {
    "a": {HO: [4, 8], HE: [8, 4]},
    "b": {HO: [0, 2], HE: [4, 4]},
    "c": {HO: [2, 2], HE: [2, 4]},
}
CONFUSIONS = {
    HO: [
        [5, 1, 0, 0, 0, 0],
        [2, 3, 0, 1, 0, 0],
        [0, 0, 4, 0, 0, 0],
        [0, 0, 1, 2, 0, 0],
        [1, 0, 0, 0, 0, 0],
        [0, 0, 0, 0, 0, 0],
    ],
    HE: [
        [6, 0, 0, 0, 0, 0],
        [0, 5, 1, 0, 0, 0],
        [0, 0, 4, 0, 0, 0],
        [0, 1, 0, 2, 0, 0],
        [0, 0, 0, 0, 3, 0],
        [0, 0, 0, 0, 0, 0],
    ],
}
OWLNESS = {  # "c" has none: its strategy is "unknown"
    "a": OwlnessReport("a", 0.7, 0.2, 0.1, Strategy.OWL, 48),
    "b": OwlnessReport("b", 0.3, 0.05, 0.15, Strategy.LIZARD, 40),
}
LEDGER = AttritionLedger(
    total_frames=160, faces_detected=150, pupils_detected=130, confident_decisions=41
)
DELTA = DeltaReport(
    per_region=[
        ("road", 5 / 6, 1.0, 1 / 6),
        ("center_stack", 0.5, 5 / 6, 1 / 3),
        ("instrument_cluster", 1.0, 1.0, 0.0),
        ("rearview_mirror", 2 / 3, 2 / 3, 0.0),
        ("left", 0.0, 1.0, 1.0),
        ("right", NAN, NAN, NAN),
    ],
    per_user=[("a", 0.7, 0.25), ("b", 0.3, 0.0), ("c", NAN, -0.25)],
    pearson_r=NAN,  # "c" has no owlness
    pearson_defined=False,
    overall_head_only=14 / 20,
    overall_head_eye=20 / 22,
)

EXPECTED = {
    "confusion_head_only.csv": """\
truth\\prediction,road,center_stack,instrument_cluster,rearview_mirror,left,right
road,5,1,0,0,0,0
center_stack,2,3,0,1,0,0
instrument_cluster,0,0,4,0,0,0
rearview_mirror,0,0,1,2,0,0
left,1,0,0,0,0,0
right,0,0,0,0,0,0
""",
    "confusion_head_only_pct.csv": """\
truth\\prediction,road,center_stack,instrument_cluster,rearview_mirror,left,right
road,83.333333,16.666667,0.000000,0.000000,0.000000,0.000000
center_stack,33.333333,50.000000,0.000000,16.666667,0.000000,0.000000
instrument_cluster,0.000000,0.000000,100.000000,0.000000,0.000000,0.000000
rearview_mirror,0.000000,0.000000,33.333333,66.666667,0.000000,0.000000
left,100.000000,0.000000,0.000000,0.000000,0.000000,0.000000
right,nan,nan,nan,nan,nan,nan
""",
    "confusion_head_eye.csv": """\
truth\\prediction,road,center_stack,instrument_cluster,rearview_mirror,left,right
road,6,0,0,0,0,0
center_stack,0,5,1,0,0,0
instrument_cluster,0,0,4,0,0,0
rearview_mirror,0,1,0,2,0,0
left,0,0,0,0,3,0
right,0,0,0,0,0,0
""",
    "confusion_head_eye_pct.csv": """\
truth\\prediction,road,center_stack,instrument_cluster,rearview_mirror,left,right
road,100.000000,0.000000,0.000000,0.000000,0.000000,0.000000
center_stack,0.000000,83.333333,16.666667,0.000000,0.000000,0.000000
instrument_cluster,0.000000,0.000000,100.000000,0.000000,0.000000,0.000000
rearview_mirror,0.000000,33.333333,0.000000,66.666667,0.000000,0.000000
left,0.000000,0.000000,0.000000,0.000000,100.000000,0.000000
right,nan,nan,nan,nan,nan,nan
""",
    "per_user.csv": """\
subject,owlness,strategy,head_only_mean,head_only_std,head_only_accepted,head_eye_mean,head_eye_std,head_eye_accepted,delta
a,0.700000,owl,0.625000,0.125000,12,0.875000,0.125000,12,0.250000
b,0.300000,lizard,0.500000,0.000000,2,0.500000,0.250000,8,0.000000
c,nan,unknown,0.750000,0.250000,4,0.500000,0.000000,6,-0.250000
""",
    "owlness.csv": """\
subject,owlness,mean_head_dist,mean_pupil_dist,strategy,frames
a,0.700000,0.200000,0.100000,owl,48
b,0.300000,0.050000,0.150000,lizard,40
""",
    "region_deltas.csv": """\
region,head_only_accuracy,head_eye_accuracy,delta
road,0.833333,1.000000,0.166667
center_stack,0.500000,0.833333,0.333333
instrument_cluster,1.000000,1.000000,0.000000
rearview_mirror,0.666667,0.666667,0.000000
left,0.000000,1.000000,1.000000
right,nan,nan,nan
""",
    "ledger.json": """\
{
  "confident_decisions": 41,
  "confident_rate_hz": 9.461538,
  "effective_rate_hz": 7.6875,
  "faces_detected": 150,
  "faces_fraction": 0.9375,
  "fps": 30.0,
  "pupils_detected": 130,
  "pupils_fraction": 0.8125,
  "total_frames": 160
}
""",
}
EXPECTED_HEAD_EYE_PER_USER = """\
subject,owlness,strategy,head_eye_mean,head_eye_std,head_eye_accepted
a,0.700000,owl,0.875000,0.125000,12
b,0.300000,lizard,0.500000,0.250000,8
c,nan,unknown,0.500000,0.000000,6
"""


def _study(modes):
    # The reports read only the study's summed confusions, not a subject's.
    subjects = [
        SubjectResult(
            sid,
            {m: np.array(ACCURACIES[sid][m]) for m in modes},
            {m: np.array(ACCEPTED[sid][m], dtype=np.int64) for m in modes},
            {m: np.zeros((6, 6), dtype=np.int64) for m in modes},
            unbalanced_accepted=7 + i,
        )
        for i, sid in enumerate(ACCURACIES)
    ]
    confusions = {m: np.array(CONFUSIONS[m], dtype=np.int64) for m in modes}
    config = EvalConfig(modes=modes, repetitions=2)
    return StudyResult(config, subjects, confusions, OWLNESS, LEDGER)


def _read_json(path):
    return json.loads(path.read_text(encoding="utf-8"))


def test_report_bytes_of_a_two_mode_study(tmp_path):
    written = write_study_reports(
        tmp_path, _study((HO, HE)), DELTA, {"mode": "both"}, fps=30.0, plots=False
    )
    names = {"status.json", "resolved_config.json", "summary.json", *EXPECTED}
    assert sorted(p.name for p in written) == sorted(names)
    for name, text in EXPECTED.items():
        assert (tmp_path / name).read_bytes() == text.encode("utf-8"), name
    assert _read_json(tmp_path / "summary.json") == {
        "modes": ["head-only", "head-eye"],
        "overall_delta": 20 / 22 - 14 / 20,
        "overall_head_eye": 20 / 22,
        "overall_head_only": 0.7,
        "owlness_delta_pearson_r": None,
        "pearson_defined": False,
    }
    assert _read_json(tmp_path / "status.json") == {"complete": True}


def test_report_bytes_of_a_one_mode_study(tmp_path):
    written = write_study_reports(
        tmp_path, _study((HE,)), None, {"mode": "head-eye"}, fps=30.0, plots=False
    )
    same = ["confusion_head_eye.csv", "confusion_head_eye_pct.csv", "owlness.csv", "ledger.json"]
    names = {"status.json", "resolved_config.json", "summary.json", "per_user.csv", *same}
    assert sorted(p.name for p in written) == sorted(names)
    for name in same:
        assert (tmp_path / name).read_bytes() == EXPECTED[name].encode("utf-8"), name
    assert (tmp_path / "per_user.csv").read_bytes() == EXPECTED_HEAD_EYE_PER_USER.encode()
    assert _read_json(tmp_path / "summary.json") == {
        "modes": ["head-eye"],
        "overall_accuracy": 20 / 22,
    }


def test_report_cells_with_commas_quotes_and_line_breaks_read_back(tmp_path):
    ids = ["a,b", 'q"x', "n\nl", "c\rr"]
    study = _study((HO, HE))
    study.subjects.append(dataclasses.replace(study.subjects[2]))
    for subject, sid in zip(study.subjects, ids):
        subject.subject_id = sid
    study.owlness = {
        sid: dataclasses.replace(OWLNESS[old], subject_id=sid) for old, sid in zip("ab", ids)
    }
    delta = dataclasses.replace(DELTA, per_user=[(sid, NAN, 0.0) for sid in ids])
    write_study_reports(tmp_path, study, delta, {}, plots=False)
    for name, expected_ids in (("per_user.csv", ids), ("owlness.csv", ids[:2])):
        with open(tmp_path / name, newline="", encoding="utf-8") as stream:
            header, *rows = csv.reader(stream)
        assert [row[0] for row in rows] == expected_ids, name
        assert {len(row) for row in rows} == {len(header)}, name
