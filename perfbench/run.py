"""gazekit benchmark.

    python3 perfbench/run.py --workload {loso,stream,classify} --seed N \
        --seconds S --trace {0,1}

Run from any directory of a checkout; gazekit is imported from ``src/``.
The first run in a checkout trains the model fixtures (about 100 s on two
cores) and caches them under ``.perfbench/``.

With ``--trace 0`` the last stdout line carries the end-to-end metrics of
``BENCHMARK.json``; with ``--trace 1`` it carries the per-layer metrics. The
lines before it give every metric with its sample count and highest
supported percentile, the workload-only metrics (``frame_p50_ms``,
``frame_p99_ms``, ``error_rate``) and the run record (machine, library
versions, commit, fixture digests). Problems found by the output checks go
to stderr.

``BENCHMARK.json`` lists ``loso`` and ``classify``. ``stream`` measures the
per-frame view and runs the same way, but its run-to-run spread on a
2-core host with a drifting CPU speed exceeded the bounds, so it is not one
of the listed workloads. ``perfbench/layer_map.json`` says which per-layer
metric should move which end-to-end metric on which workload.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import common
import fixtures
import workloads


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="gazekit benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    return parser.parse_args(argv)


def execute(args, sizes=fixtures.FULL, tamper=None) -> common.Outcome:
    """Build the fixtures if needed, then run one workload."""
    common.check_checkout()
    sys.path.insert(0, str(common.SRC))
    built = fixtures.ensure_models(sizes)
    run = workloads.Run(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        sizes=sizes,
        fixtures=built,
        tamper=tamper,
    )
    try:
        workloads.WORKLOADS[args.workload](run)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    res = run.res
    res.record.update(
        common.machine_record(),
        workload=args.workload,
        seed=args.seed,
        trace=args.trace,
        train_frames_sha256=built["train_frames_sha256"],
        model_bytes={mode: m["bytes"] for mode, m in built["models"].items()},
    )
    return res


def report(res: common.Outcome) -> dict:
    """Print the readable lines and return the final result object."""
    for name, (value, unit) in {**res.metrics, **res.extra}.items():
        line = f"metric {name} = {value:.6g} {unit}"
        detail = res.details.get(name) or (
            res.details.get("frame_ms") if name.startswith("frame_") else None
        )
        if detail:
            line += "  " + json.dumps({k: round(v, 6) for k, v in detail.items()})
        print(line)
    error_rate = res.failed / res.attempted if res.attempted else 1.0
    print(f"metric error_rate = {error_rate:.6g} ratio  "
          f"({res.failed} failed of {res.attempted} attempted)")
    print("record " + json.dumps(res.record, sort_keys=True))
    for problem in res.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {
        "correct": res.failed == 0 and res.attempted > 0,
        "attempted": max(res.attempted, 1),
        "failed": res.failed if res.attempted else 1,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in res.metrics.items()
        },
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    try:
        res = execute(args)
    except common.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(report(res)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
