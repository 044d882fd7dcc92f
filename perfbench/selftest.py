"""Self-test of the benchmark, at tiny sizes (a few minutes on two cores).

    python3 perfbench/selftest.py

For every workload it checks that an untraced run prints every end-to-end
metric of ``BENCHMARK.json`` with its unit (plus ``error_rate`` and, for
``stream``, the frame latencies), that a traced run prints every per-layer
metric and that its counts repeat, and that a corrupted output makes
``error_rate`` greater than 0. It also checks that ``layer_map.json`` covers
the per-layer metrics, that a trace probe whose binding is gone is reported,
and that ``run.py`` exits nonzero without a result in a directory that holds
only the benchmark.
"""

from __future__ import annotations

import contextlib
import io
import json
import re
import shutil
import subprocess
import sys

import common
import fixtures
import run as bench
import tracing


def _set_incomplete(out):
    (out / "status.json").write_text('{"complete": false}\n')


def _drop_last_line(path):
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(lines[:-1]))


def _drop_last_outcome(path):
    result = json.loads(path.read_text())
    result["outcomes"].pop()
    path.write_text(json.dumps(result))


TAMPER = {"loso": _set_incomplete, "classify": _drop_last_line, "stream": _drop_last_outcome}


def run_tiny(workload: str, trace: int, tamper=None) -> tuple[dict, str]:
    args = bench.parse_args(
        ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    )
    res = bench.execute(args, sizes=fixtures.TINY, tamper=tamper)
    printed = io.StringIO()
    with contextlib.redirect_stdout(printed), contextlib.redirect_stderr(io.StringIO()):
        final = bench.report(res)
    return final, printed.getvalue()


def printed_error_rate(text: str) -> float:
    return float(re.search(r"^metric error_rate = (\S+) ratio", text, re.M).group(1))


def check_metrics(final: dict, expected: list[dict], what: str):
    units = {name: m["unit"] for name, m in final["metrics"].items()}
    want = {m["name"]: m["unit"] for m in expected}
    assert units == want, f"{what}: printed {units}, expected {want}"
    for name, m in final["metrics"].items():
        assert isinstance(m["value"], (int, float)), f"{what}: {name} is not a number"


def check_bare_directory():
    """Only BENCHMARK.json and perfbench/: exit nonzero, print no result."""
    bare = common.fresh_dir(common.WORK / "selftest-bare")
    shutil.copy(common.ROOT / "BENCHMARK.json", bare)
    shutil.copytree(common.BENCH_DIR, bare / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "loso", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=180,
    )
    shutil.rmtree(bare)
    assert proc.returncode != 0, "run.py succeeded without gazekit sources"
    assert "{" not in proc.stdout, f"run.py printed a result: {proc.stdout!r}"


def check_missing_binding():
    """A probe whose binding is gone is listed, not silently skipped."""
    tracer = tracing.Tracer()
    tracer.patch(common, "no_such_function", lambda fn: fn)
    assert tracer.missing == {"common.no_such_function"}, tracer.missing


def main() -> int:
    spec = json.loads((common.ROOT / "BENCHMARK.json").read_text())
    layer_map = json.loads((common.BENCH_DIR / "layer_map.json").read_text())
    mapped = {name for name in layer_map if not name.startswith("_")}
    assert mapped == {m["name"] for m in spec["per_layer"]}, "layer_map.json is stale"
    check_bare_directory()
    print("ok   bare directory exits nonzero")
    check_missing_binding()
    print("ok   a missing trace binding is reported")
    for workload in sorted(TAMPER):
        final, text = run_tiny(workload, 0)
        assert final["correct"] and final["failed"] == 0, f"{workload}: {text}"
        check_metrics(final, spec["end_to_end"], workload)
        assert printed_error_rate(text) == 0.0
        if workload == "stream":
            for name in ("frame_p50_ms", "frame_p99_ms"):
                assert re.search(rf"^metric {name} = \S+ ms", text, re.M), name
        print(f"ok   {workload}: end-to-end metrics printed with units")

        final, text = run_tiny(workload, 1)
        assert final["correct"] and final["failed"] == 0, f"{workload} traced: {text}"
        check_metrics(final, spec["per_layer"], f"{workload} traced")
        print(f"ok   {workload}: per-layer metrics printed, counts repeat")

        final, text = run_tiny(workload, 0, tamper=TAMPER[workload])
        assert not final["correct"] and final["failed"] > 0, f"{workload} tampered: {text}"
        assert printed_error_rate(text) > 0
        print(f"ok   {workload}: a corrupted output gives error_rate > 0")
    return 0


if __name__ == "__main__":
    sys.exit(main())
