"""Shared pieces of the benchmark: checkout layout, child processes,
timing statistics and the run record.

Nothing here imports gazekit or numpy, so the benchmark process can time the
first import of the package itself.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

# GZK_THREADS for every gazekit process the benchmark starts: the number of
# forest-training processes, on the 2-core machine the baselines come from.
THREADS = "2"

# Synthetic dropout shared by every generated population.
DROPOUT = ("--p-face-fail", "0.05", "--p-pupil-fail", "0.10")
P_FACE_FAIL, P_PUPIL_FAIL = 0.05, 0.10
CONFIDENCE_THRESHOLD = "10"


class BenchError(Exception):
    """The benchmark cannot run here (missing sources, failed fixture)."""


def check_checkout():
    if not (SRC / "gazekit" / "__init__.py").is_file():
        raise BenchError(f"no gazekit sources under {SRC}; run from a full checkout")


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["GZK_THREADS"] = THREADS
    return env


def gazekit_cmd(*args) -> list[str]:
    return [sys.executable, "-m", "gazekit.cli", *map(str, args)]


@dataclass
class Proc:
    """A finished child process: exit code, wall time, peak RSS, output."""

    code: int
    wall_s: float
    rss_mb: float
    stdout: str
    stderr: str
    ready_s: float = math.nan  # spawn until the child's first stdout line


def last_json(text: str) -> dict | None:
    """The JSON object on the last line of ``text``, if there is one."""
    lines = text.strip().splitlines()
    try:
        return json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None


def run_proc(argv: list[str], log_dir: Path, wait_ready: bool = False) -> Proc:
    """Run ``argv`` from the checkout root and wait for it to end.

    Peak RSS is ``ru_maxrss`` from ``wait4``, which covers the child and the
    descendants it reaped (the training pool). With ``wait_ready`` the time
    until the child prints its first line is kept as ``ready_s``.
    """
    log_dir.mkdir(parents=True, exist_ok=True)
    err_path = log_dir / f"stderr-{time.monotonic_ns()}.txt"
    with err_path.open("w+b") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, stderr=err
        )
        ready = math.nan
        if wait_ready:
            first = proc.stdout.readline()
            ready = time.perf_counter() - start
            out = first + proc.stdout.read()
        else:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        proc.stdout.close()
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    err_path.unlink()
    return Proc(
        code=proc.returncode,
        wall_s=wall,
        rss_mb=usage.ru_maxrss * 1024 / 1e6,
        stdout=out.decode("utf-8", "replace"),
        stderr=stderr,
        ready_s=ready,
    )


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values, q: float) -> float:
    """Nearest-rank percentile, ``q`` in [0, 100]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def describe(values) -> dict:
    """Median, the highest percentile with at least ten samples beyond it
    (the maximum when there are too few samples), and the sample count."""
    n = len(values)
    out = {"n": n, "p50": statistics.median(values)}
    for q in (99.9, 99, 90, 50):
        if n * (100 - q) / 100 >= 10:
            out[f"p{q:g}"] = percentile(values, q)
            return out
    out["max"] = max(values)
    return out


# ---------------------------------------------------------------------------
# Outcome of one benchmark run
# ---------------------------------------------------------------------------

@dataclass
class Outcome:
    """Metrics, operation counts and problems collected during one run.

    An operation is a gazekit process, a library call, or an output check;
    it fails on a nonzero exit, an escaping exception or a failed check.
    """

    metrics: dict = field(default_factory=dict)   # name -> (value, unit)
    details: dict = field(default_factory=dict)   # name -> describe() output
    extra: dict = field(default_factory=dict)     # printed-only metrics
    record: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def op(self, what: str, problems=()) -> bool:
        """Count one operation; ``problems`` lists why it failed, if it did."""
        self.attempted += 1
        problems = list(problems)
        if problems:
            self.failed += 1
            self.problems.extend(f"{what}: {p}" for p in problems)
        return not problems

    def proc(self, what: str, proc: Proc) -> bool:
        problems = [] if proc.code == 0 else [
            f"exit code {proc.code}: {proc.stderr.strip()[-400:]}"
        ]
        return self.op(what, problems)

    def timing(self, name: str, values, unit: str):
        if not values:
            return  # every attempt failed; the failures are counted already
        self.details[name] = describe(values)
        self.metrics[name] = (self.details[name]["p50"], unit)


# ---------------------------------------------------------------------------
# Run record
# ---------------------------------------------------------------------------

def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    """HEAD of the checkout's own repository; None outside one."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _version(dist: str) -> str | None:
    try:
        return metadata.version(dist)
    except metadata.PackageNotFoundError:
        return None


def machine_record() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": _version("numpy"),
        "scipy": _version("scipy"),
        "git_commit": _git_commit(),
        "source_sha256": source_digest(),
        "gzk_threads": THREADS,
    }


def fresh_dir(path: Path) -> Path:
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path
