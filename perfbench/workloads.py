"""The three workloads, each with its untimed output checks.

All three are closed loops with one caller.

* ``loso``: ``gazekit evaluate`` on a 4-subject population from ``gazekit
  synth`` (the researcher's leave-one-subject-out study).
* ``stream``: a 2000-tree head-and-eye model serving a 2-subject population
  one frame at a time through ``classify_frame`` (the in-vehicle deployment).
* ``classify``: ``gazekit classify`` with a 2000-tree head-only model over
  the ``loso`` dataset file (the analyst).

With tracing off, each run times the public entry points from outside
(separate processes for the CLI, a serving process for ``stream``). With
tracing on, the workload runs in this process three times, the middle
repetition untraced, and the per-layer metrics come from the traced ones.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import stream_child
import tracing
from common import (
    BENCH_DIR,
    CONFIDENCE_THRESHOLD,
    THREADS,
    WORK,
    Outcome,
    Proc,
    describe,
    fresh_dir,
    gazekit_cmd,
    last_json,
    percentile,
    run_proc,
)
from fixtures import (
    FRAMES_PER_REGION,
    MIN_FRAMES,
    TREE_DEPTH,
    Sizes,
    head_gains,
    stream_seed,
    synth_args,
)

# Accepted decisions must be at least this accurate against the generated
# labels. The seed code scores 1.0 on every workload.
ACCURACY_FLOOR = 0.9
MIN_REPORT_FILES = 8
IMPORT_CLI = "import gazekit.cli; print('ready', flush=True)"


@dataclass
class Run:
    workload: str
    seed: int
    seconds: float
    trace: bool
    sizes: Sizes
    fixtures: dict
    tamper: object = None  # self-test hook: corrupts an output before its check
    res: Outcome = field(default_factory=Outcome)

    def __post_init__(self):
        self.work = fresh_dir(WORK / "work" / f"{self.workload}-{self.seed}-{os.getpid()}")
        self.logs = self.work / "logs"

    def proc(self, argv, wait_ready=False) -> Proc:
        return run_proc([str(a) for a in argv], self.logs, wait_ready)

    def corrupt(self, path: Path):
        if self.tamper is not None:
            self.tamper(path)


# ---------------------------------------------------------------------------
# Shared steps
# ---------------------------------------------------------------------------

def measure_setup(run: Run, argv: list[str], samples: int) -> list[float]:
    """Fresh-interpreter set-up times, after one untimed import that fills
    the bytecode cache as an installed package would have it."""
    run.res.proc("warm-up import", run.proc([sys.executable, "-c", IMPORT_CLI]))
    values = []
    for _ in range(samples):
        proc = run.proc(argv, wait_ready=True)
        if run.res.proc("set-up", proc):
            values.append(proc.ready_s)
    return values


def make_dataset(run: Run) -> tuple[Path, list[str]] | None:
    """The ``loso`` population for this seed, on disk, with its labels."""
    data = run.work / "data"
    sizes = run.sizes
    proc = run.proc(synth_args(data, run.seed, sizes.loso_subjects, FRAMES_PER_REGION,
                               head_gains(sizes.loso_subjects)))
    if not run.res.proc("synth", proc):
        return None
    manifest = json.loads((data / "manifest.json").read_text())
    run.res.record["dataset_frames_sha256"] = manifest["frames_sha256"]
    labels = [
        json.loads(line)["label"]
        for line in (data / "frames.jsonl").read_text().splitlines()
        if line.strip()
    ]
    return data, labels


def cli_in_process(argv: list) -> tuple[int, str]:
    """``gazekit.cli.main`` in this process; returns exit code and stdout."""
    from gazekit import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return code, out.getvalue() + err.getvalue()[-400:]


def _accuracy_problem(what: str, correct: int, total: int) -> list[str]:
    if total == 0:
        return [f"{what}: no accepted decisions"]
    if correct / total < ACCURACY_FLOOR:
        return [f"{what}: accuracy {correct / total:.3f} below {ACCURACY_FLOOR}"]
    return []


def import_gazekit() -> float:
    """Import ``gazekit.cli`` for the first time in this process; its time."""
    start = time.perf_counter()
    import gazekit.cli  # noqa: F401

    return time.perf_counter() - start


def traced(run: Run, op, import_s: float) -> dict:
    """Two traced repetitions of ``op`` around an untraced one, in this process.

    ``op(rep)`` runs the workload once, checks its output, and returns a
    value that must be identical across repetitions. Returns per-layer
    metrics: counts from the first traced repetition (they must repeat
    exactly in the second), times as the mean of the two.
    """
    os.environ["GZK_THREADS"] = THREADS

    def timed(rep):
        t0 = time.perf_counter()
        value = op(rep)
        return time.perf_counter() - t0, value

    tracer = tracing.Tracer()
    walls, values = {}, {}
    # Traced, untraced, traced: a steady drift in machine speed cancels out
    # of the overhead estimate.
    for rep in (1, 0, 2):
        if rep:
            tracer.run = rep
            tracing.install(tracer)
        try:
            walls[rep], values[rep] = timed(rep)
        finally:
            tracer.uninstall()
    for rep in (0, 2):
        run.res.op(f"determinism of repetition {rep}", [] if values[rep] == values[1] else [
            "output differs from the first repetition"
        ])
    run.res.op("trace install", [f"no binding {name}" for name in sorted(tracer.missing)])
    layers = [tracing.layer_metrics(tracer, rep) for rep in (1, 2)]
    run.res.op("per-layer counts repeat", tracing.count_mismatches(*layers))
    tracer.write(WORK / "traces" / f"{run.workload}-seed{run.seed}.jsonl")

    metrics = {"cli.import_s": (import_s, "s")}
    for name, (value, unit) in layers[0].items():
        if unit != "count":
            value = (value + layers[1][name][0]) / 2
        metrics[name] = (value, unit)
    metrics["trace.overhead_s"] = ((walls[1] + walls[2]) / 2 - walls[0], "s")
    return metrics


# ---------------------------------------------------------------------------
# loso
# ---------------------------------------------------------------------------

def _evaluate_args(run: Run, data: Path, out: Path) -> list:
    s = run.sizes
    return [
        "evaluate",
        "--data", data,
        "--out", out,
        "--mode", "both",
        "--trees", s.loso_trees,
        "--depth", TREE_DEPTH,
        "--repetitions", s.loso_repetitions,
        "--min-frames", MIN_FRAMES,
        "--seed", run.seed,
    ]


def check_reports(out: Path, lines: int) -> list[str]:
    problems = []
    try:
        if json.loads((out / "status.json").read_text()).get("complete") is not True:
            problems.append("status.json is not complete")
        files = [p for p in out.rglob("*") if p.is_file()]
        if len(files) < MIN_REPORT_FILES:
            problems.append(f"{len(files)} report files, expected >= {MIN_REPORT_FILES}")
        ledger = json.loads((out / "ledger.json").read_text())
        stages = [ledger[k] for k in (
            "total_frames", "faces_detected", "pupils_detected", "confident_decisions"
        )]
        if stages != sorted(stages, reverse=True) or stages[-1] < 0:
            problems.append(f"ledger stages not non-increasing: {stages}")
        if stages[0] != lines:
            problems.append(f"ledger counts {stages[0]} frames, dataset has {lines}")
        for mode in ("head_only", "head_eye"):
            rows = (out / f"confusion_{mode}.csv").read_text().strip().splitlines()[1:]
            counts = [[int(v) for v in row.split(",")[1:]] for row in rows]
            correct = sum(counts[i][i] for i in range(len(counts)))
            problems += _accuracy_problem(mode, correct, sum(map(sum, counts)))
    except (OSError, ValueError, KeyError, IndexError) as exc:
        problems.append(f"unreadable reports: {exc!r}")
    return problems


def report_tables(out: Path) -> dict:
    """Every report file's bytes; the config without its ``out`` path."""
    tables = {}
    for path in sorted(out.rglob("*")):
        if path.is_file():
            tables[path.relative_to(out).as_posix()] = path.read_bytes()
    config = tables.pop("resolved_config.json", None)
    if config is not None:
        try:
            parsed = json.loads(config)
            parsed.pop("out", None)
            tables["resolved_config.json"] = parsed
        except json.JSONDecodeError:
            tables["resolved_config.json"] = config
    return tables


def loso(run: Run):
    batch_workload(
        run, "evaluate", _evaluate_args, "reports{}",
        check=lambda out, labels, stdout: check_reports(out, len(labels)),
        snapshot=report_tables,
    )


def batch_workload(run: Run, command: str, args_for, out_name: str, check, snapshot):
    """``loso`` and ``classify``: one gazekit command over the seed's dataset.

    Untraced, the command runs as a process, repeatedly until ``seconds``
    have passed; ``check(out, labels, stdout)`` lists output problems and
    ``snapshot(out)`` must not change between repetitions.
    """
    res = run.res
    import_s = import_gazekit() if run.trace else None
    setup = [] if run.trace else measure_setup(
        run, [sys.executable, "-c", IMPORT_CLI], run.sizes.setup_samples
    )
    made = make_dataset(run)
    if made is None:
        return
    data, labels = made

    if run.trace:
        def op(rep):
            out = run.work / out_name.format(rep)
            code, text = cli_in_process(args_for(run, data, out))
            res.op(command, ([] if code == 0 else [f"exit {code}: {text}"])
                   + check(out, labels, text))
            return snapshot(out)

        res.metrics = traced(run, op, import_s)
        return

    walls, rss, first = [], [], None
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < run.seconds:
        out = run.work / out_name.format(len(walls))
        proc = run.proc(gazekit_cmd(*args_for(run, data, out)))
        res.proc(command, proc)
        walls.append(proc.wall_s)
        rss.append(proc.rss_mb)
        run.corrupt(out)
        res.op(f"{command} output", check(out, labels, proc.stdout))
        value = snapshot(out)
        if first is None:
            first = value
        else:
            res.op(f"{command} determinism", [] if value == first else [
                "output differs between repetitions with the same seed"
            ])
    res.timing("setup_s", setup, "s")
    res.timing("wall_s", walls, "s")
    res.timing("frames_per_s", [len(labels) / w for w in walls], "1/s")
    res.metrics["peak_rss_mb"] = (max(rss), "MB")


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------

def _classify_args(run: Run, data: Path, out: Path) -> list:
    return [
        "classify",
        "--model", run.fixtures["models"]["head-only"]["path"],
        "--data", data,
        "--out", out,
        "--confidence-threshold", CONFIDENCE_THRESHOLD,
    ]


def check_decisions(path: Path, labels: list[str], ledger: dict | None) -> list[str]:
    problems = []
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
        decisions = [json.loads(line) for line in lines]
    except (OSError, ValueError) as exc:
        return [f"unreadable decisions: {exc!r}"]
    if len(decisions) != len(labels):
        problems.append(f"{len(decisions)} decisions for {len(labels)} input lines")
    statuses = [d.get("status") for d in decisions]
    counted = {
        "total_frames": len(decisions),
        "faces_detected": sum(s != "no_face" for s in statuses),
        "pupils_detected": sum(s not in ("no_face", "pupil_failed") for s in statuses),
        "confident_decisions": statuses.count("accepted"),
    }
    if ledger is None or any(ledger.get(k) != v for k, v in counted.items()):
        problems.append(f"printed ledger {ledger} does not match the file {counted}")
    correct = total = 0
    for d in decisions:
        if d.get("status") == "accepted":
            line = d.get("line")
            total += 1
            correct += isinstance(line, int) and 0 < line <= len(labels) and (
                d.get("region") == labels[line - 1]
            )
    return problems + _accuracy_problem("accepted decisions", correct, total)


def classify(run: Run):
    batch_workload(
        run, "classify", _classify_args, "decisions{}.jsonl",
        check=lambda out, labels, stdout: check_decisions(out, labels, last_json(stdout)),
        snapshot=lambda out: out.read_bytes() if out.exists() else None,
    )


# ---------------------------------------------------------------------------
# stream
# ---------------------------------------------------------------------------

def check_stream(signatures: list, frames: int) -> list[str]:
    problems = []
    if len(signatures) != frames:
        problems.append(f"{len(signatures)} outcomes for {frames} frames")
    failed = sum(s[0] in stream_child.NO_OUTCOME for s in signatures)
    if failed:
        problems.append(f"{failed} frames returned no FrameOutcome")
    accepted = [s for s in signatures if s[0] == "accepted"]
    correct = sum(s[1] == s[2] for s in accepted)
    return problems + _accuracy_problem("accepted decisions", correct, len(accepted))


def stream(run: Run):
    res = run.res
    sizes = run.sizes
    seed = stream_seed(run.seed)
    res.record["stream_population_seed"] = seed
    model = run.fixtures["models"]["head-eye"]["path"]

    if run.trace:
        import_s = import_gazekit()
        frames = stream_child.population(seed, sizes.stream_frames_per_region)

        def op(rep):
            errors = []
            signatures = stream_child.classify_pass(frames, stream_child.load(model), [], errors)
            res.op("stream pass", check_stream(signatures, len(frames)) + errors[:1])
            return signatures

        res.metrics = traced(run, op, import_s)
        return

    out = run.work / "stream.json"
    argv = [
        sys.executable, BENCH_DIR / "stream_child.py",
        "--model", model,
        "--seed", seed,
        "--frames-per-region", sizes.stream_frames_per_region,
        "--min-frames", sizes.stream_min_frames,
        "--seconds", run.seconds,
        "--out", out,
    ]
    setup = measure_setup(run, argv + ["--probe"], sizes.setup_samples - 1)
    proc = run.proc(argv, wait_ready=True)
    if not res.proc("stream serving process", proc):
        return
    setup.append(proc.ready_s)
    run.corrupt(out)
    try:
        result = json.loads(out.read_text())
    except (OSError, ValueError) as exc:
        res.op("stream result", [repr(exc)])
        return
    frames = 2 * 6 * sizes.stream_frames_per_region
    latencies = result["latencies_ms"]
    # Every frame handed to classify_frame is one operation; the checks of
    # the run's outputs count as one more.
    res.attempted += len(latencies)
    res.failed += result["no_outcome"]
    failures = check_stream(result["outcomes"], frames) + result["errors"][:1]
    if result["pass_mismatches"]:
        failures.append(f"{result['pass_mismatches']} outcomes changed between passes")
    res.op("stream outcomes", failures)

    res.timing("setup_s", setup, "s")
    res.timing("wall_s", result["pass_walls_s"], "s")
    res.metrics["frames_per_s"] = (len(latencies) / result["loop_s"], "1/s")
    res.metrics["peak_rss_mb"] = (proc.rss_mb, "MB")
    res.details["frame_ms"] = describe(latencies)
    res.extra["frame_p50_ms"] = (statistics.median(latencies), "ms")
    res.extra["frame_p99_ms"] = (percentile(latencies, 99), "ms")


WORKLOADS = {"loso": loso, "stream": stream, "classify": classify}
