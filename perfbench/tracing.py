"""In-memory spans around gazekit's public functions, and the per-layer
metrics derived from them.

Wrappers are installed at the binding each caller looks up (for example
``gazekit.pipeline.predict_proba`` for the per-frame path and
``gazekit.analysis.predict_proba_batch`` for the study), so a single-row
prediction is never also counted as a batched one. A binding that a later
version of gazekit no longer has is listed in ``Tracer.missing`` and fails
the traced run, so a layer whose probe is gone cannot read as a 0-cost layer.

A span is ``(name, start, end, parent, run)``; ``parent`` is the index of the
enclosing span or -1. Self time is a span's duration minus the durations of
its child spans.
"""

from __future__ import annotations

import functools
import json
import statistics
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.run = 0
        self._stack: list[int] = []
        self._patched: list = []
        self.missing: set[str] = set()  # "module.attr" bindings not found

    def count(self, key: str, n: int = 1):
        self.counts[self.run][key] += n

    def _open(self) -> tuple[int, int]:
        index = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        return index, parent

    def _close(self, index: int, parent: int, name: str, start: float):
        end = perf_counter()
        self._stack.pop()
        self.spans[index] = (name, start, end, parent, self.run)

    def wrap(self, fn, name: str, after=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index, parent = tracer._open()
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(index, parent, name, start)
            if after is not None:
                after(tracer, args, result)
            return result

        return traced

    def wrap_iter(self, fn, name: str, each=None):
        """Wrap a generator function: one span per item it produces."""
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = iter(fn(*args, **kwargs))
            while True:
                index, parent = tracer._open()
                start = perf_counter()
                try:
                    item = next(inner)
                except StopIteration:
                    tracer._stack.pop()  # no item, so no span: the slot stays None
                    return
                except BaseException:
                    tracer._close(index, parent, name, start)
                    raise
                tracer._close(index, parent, name, start)
                if each is not None:
                    each(tracer, item)
                yield item

        return traced

    def patch(self, owner, attr: str, wrapper_factory):
        original = getattr(owner, attr, None)
        if original is None:
            self.missing.add(f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}")
            return
        self._patched.append((owner, attr, original))
        setattr(owner, attr, wrapper_factory(original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def write(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            for span in filter(None, self.spans):
                name, start, end, parent, run = span
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "run": run}) + "\n")


# ---------------------------------------------------------------------------
# What is wrapped, and what each wrapper counts
# ---------------------------------------------------------------------------

def _pupil_status(tracer, args, result):
    status = getattr(getattr(result, "status", None), "value", "unknown")
    tracer.count(f"pupil.{status}")


def _fit(tracer, args, result):
    X, cfg = args[0], args[3]
    tracer.count("forest.forests")
    tracer.count("forest.trees_fit", int(cfg.n_trees))
    tracer.count("forest.fit_rows", int(len(X)))


def _batch_rows(tracer, args, result):
    tracer.count("forest.predict_batch_rows", int(len(args[1])))


def _single_row(tracer, args, result):
    tracer.count("forest.predict_single_rows")


def _model_bytes(tracer, args, result):
    tracer.count("dataio.model_bytes", Path(args[0]).stat().st_size)


def _parsed_line(tracer, item):
    tracer.count("dataio.lines")
    if getattr(item, "record", None) is None:
        tracer.count("dataio.parse_errors")


def _frame_outcome(tracer, args, result):
    tracer.count("pipeline.frames")
    drop = getattr(result, "drop", None)
    tracer.count("pipeline.accepted" if drop is None else f"pipeline.{drop.value}")


def _reports(tracer, args, result):
    paths = list(result)
    tracer.count("reports.files", len(paths))
    tracer.count("reports.bytes", sum(Path(p).stat().st_size for p in paths))


def install(tracer: Tracer):
    """Wrap the public functions of every gazekit module at their call sites."""
    from gazekit import analysis, cli, dataio, forest, pipeline, pupil, reports

    def simple(name, after=None):
        return lambda fn: tracer.wrap(fn, name, after)

    for owner in (analysis, pipeline):
        tracer.patch(owner, "detect_pupil", simple("pupil.detect_pupil", _pupil_status))
    tracer.patch(pupil, "largest_circular_blob", simple("pupil.largest_circular_blob"))
    tracer.patch(analysis, "normalize_landmarks", simple("features.build"))
    tracer.patch(analysis, "normalize_pupil", simple("features.build"))
    tracer.patch(pipeline, "build_feature", simple("features.build"))
    for owner in (analysis, cli):
        tracer.patch(owner, "train_arrays", simple("forest.train_arrays", _fit))
    tracer.patch(analysis, "predict_proba_batch", simple("forest.predict_batch", _batch_rows))
    tracer.patch(pipeline, "predict_proba", simple("forest.predict_single", _single_row))
    tracer.patch(dataio, "load_model", simple("dataio.load_model", _model_bytes))
    tracer.patch(
        dataio, "iter_dataset",
        lambda fn: tracer.wrap_iter(fn, "dataio.parse_line", _parsed_line),
    )
    for owner in (cli, pipeline):
        tracer.patch(owner, "classify_frame", simple("pipeline.classify_frame", _frame_outcome))
    tracer.patch(analysis, "prepare_dataset", simple("analysis.prepare_dataset"))
    tracer.patch(analysis, "run_study", simple("analysis.run_study"))
    tracer.patch(reports, "write_study_reports", simple("reports.write_study_reports", _reports))

    def pack_factory(original):
        traced = tracer.wrap(original, "forest.pack")

        @functools.wraps(original)
        def packed(self):
            # Only the call that builds the packed arrays is a pack.
            if getattr(self, "_packed", None) is not None:
                return original(self)
            return traced(self)

        return packed

    tracer.patch(forest.ForestModel, "packed", pack_factory)


# ---------------------------------------------------------------------------
# Per-layer metrics
# ---------------------------------------------------------------------------

# The counts that must repeat exactly between two traced repetitions.
DETERMINISTIC_COUNTS = (
    "dataio.lines",
    "dataio.parse_errors",
    "pupil.calls",
    "pupil.detected",
    "pupil.eye_closed",
    "pupil.no_blob",
    "pupil.blob_searches",
    "features.calls",
    "forest.forests",
    "forest.trees_fit",
    "forest.fit_rows",
    "forest.predict_single_rows",
    "forest.predict_batch_rows",
    "pipeline.frames",
    "pipeline.accepted",
    "pipeline.no_face",
    "pipeline.pupil_failed",
    "pipeline.low_confidence",
    "reports.files",
    "reports.bytes",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, run: int) -> dict:
    """Per-layer metrics of one traced repetition: name -> (value, unit)."""
    total: dict[str, float] = defaultdict(float)
    child: dict[int, float] = defaultdict(float)
    calls: Counter = Counter()
    pupil_ms = []
    spans = [(i, s) for i, s in enumerate(tracer.spans) if s is not None and s[4] == run]
    for _, (name, start, end, parent, _) in spans:
        total[name] += end - start
        calls[name] += 1
        if parent >= 0:
            child[parent] += end - start
        if name == "pupil.detect_pupil":
            pupil_ms.append((end - start) * 1e3)
    self_time: dict[str, float] = defaultdict(float)
    for index, (name, start, end, _, _) in spans:
        self_time[name] += end - start - child[index]

    c = tracer.counts[run]
    lines = c["dataio.lines"]
    frames = c["pipeline.frames"]
    trees = c["forest.trees_fit"]
    single = c["forest.predict_single_rows"]
    batch = c["forest.predict_batch_rows"]
    detected = c["pupil.detected"]
    searches = calls["pupil.largest_circular_blob"]
    return {
        "dataio.lines": (lines, "count"),
        "dataio.parse_errors": (c["dataio.parse_errors"], "count"),
        "dataio.parse_ms_per_line": (_ratio(total["dataio.parse_line"] * 1e3, lines), "ms"),
        "dataio.load_model_s": (total["dataio.load_model"], "s"),
        "dataio.model_mb": (c["dataio.model_bytes"] / 1e6, "MB"),
        "pupil.calls": (calls["pupil.detect_pupil"], "count"),
        "pupil.detect_s": (total["pupil.detect_pupil"], "s"),
        "pupil.detect_ms_p50": (statistics.median(pupil_ms) if pupil_ms else 0.0, "ms"),
        "pupil.detected": (detected, "count"),
        "pupil.eye_closed": (c["pupil.eye_closed"], "count"),
        "pupil.no_blob": (c["pupil.no_blob"], "count"),
        "pupil.blob_searches": (searches, "count"),
        "pupil.detected_per_search": (_ratio(detected, searches), "ratio"),
        "features.calls": (calls["features.build"], "count"),
        "features.build_s": (total["features.build"], "s"),
        "forest.forests": (c["forest.forests"], "count"),
        "forest.trees_fit": (trees, "count"),
        "forest.fit_rows": (c["forest.fit_rows"], "count"),
        "forest.fit_s": (total["forest.train_arrays"], "s"),
        "forest.fit_ms_per_tree": (_ratio(total["forest.train_arrays"] * 1e3, trees), "ms"),
        "forest.pack_s": (total["forest.pack"], "s"),
        "forest.predict_single_rows": (single, "count"),
        # Self time: a first prediction that packs the model leaves the
        # packing to forest.pack_s.
        "forest.predict_single_us_per_row": (
            _ratio(self_time["forest.predict_single"] * 1e6, single), "us"),
        "forest.predict_batch_rows": (batch, "count"),
        "forest.predict_batch_us_per_row": (
            _ratio(self_time["forest.predict_batch"] * 1e6, batch), "us"),
        "pipeline.frames": (frames, "count"),
        "pipeline.accepted": (c["pipeline.accepted"], "count"),
        "pipeline.no_face": (c["pipeline.no_face"], "count"),
        "pipeline.pupil_failed": (c["pipeline.pupil_failed"], "count"),
        "pipeline.low_confidence": (c["pipeline.low_confidence"], "count"),
        "pipeline.accepted_ratio": (_ratio(c["pipeline.accepted"], frames), "ratio"),
        "pipeline.frame_self_ms": (
            _ratio(self_time["pipeline.classify_frame"] * 1e3, frames), "ms"),
        "analysis.prepare_s": (total["analysis.prepare_dataset"], "s"),
        "analysis.prepare_ms_per_frame": (
            _ratio(total["analysis.prepare_dataset"] * 1e3, lines), "ms"),
        "analysis.study_self_s": (self_time["analysis.run_study"], "s"),
        "reports.write_s": (total["reports.write_study_reports"], "s"),
        "reports.files": (c["reports.files"], "count"),
        "reports.bytes": (c["reports.bytes"], "count"),
    }


def count_mismatches(a: dict, b: dict) -> list[str]:
    return [
        f"{name} {a[name][0]} != {b[name][0]}"
        for name in DETERMINISTIC_COUNTS
        if a[name][0] != b[name][0]
    ]
