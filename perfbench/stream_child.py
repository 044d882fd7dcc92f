"""The serving process of the ``stream`` workload.

It sets up as an in-vehicle deployment would (import gazekit, load the
model, pack it), prints ``ready``, and then hands a synthetic population to
``classify_frame`` one frame at a time, in whole passes, until both
``--seconds`` and ``--min-frames`` are reached. Every later pass must repeat
the first pass's outcomes. The per-frame latencies and the first pass's
outcomes go to ``--out`` as JSON; the parent process checks them.

The traced run imports the same functions and runs them in-process.
"""

from __future__ import annotations

import argparse
import json
import os
import time
import traceback

from common import CONFIDENCE_THRESHOLD, P_FACE_FAIL, P_PUPIL_FAIL
from fixtures import head_gains

NO_OUTCOME = ("exception", "not_an_outcome")


def load(model_path):
    """Load the model and build its packed form, as a serving process does."""
    from gazekit import dataio

    model = dataio.load_model(model_path)
    packed = getattr(model, "packed", None)
    if callable(packed):
        packed()
    return model


def population(seed: int, frames_per_region: int) -> list:
    from gazekit import synth

    return list(
        synth.population_frames(
            2,
            frames_per_region,
            seed=seed,
            alphas=head_gains(2),
            p_face_fail=P_FACE_FAIL,
            p_pupil_fail=P_PUPIL_FAIL,
        )
    )


def classify_pass(frames, model, latencies: list, errors: list) -> list:
    """Classify every frame once; returns ``[status, region, label]`` per frame.

    The status is the outcome's drop reason or ``accepted``, and
    ``exception`` or ``not_an_outcome`` when no FrameOutcome came back.
    """
    from gazekit import FeatureMode, pipeline

    cfg = pipeline.PipelineConfig(
        mode=FeatureMode.HEAD_AND_EYE,
        confidence_threshold=float(CONFIDENCE_THRESHOLD),
    )
    classify = pipeline.classify_frame  # looked up here so a traced run sees its wrapper
    outcome_type = pipeline.FrameOutcome
    signatures = []
    for frame in frames:
        t0 = time.perf_counter()
        try:
            outcome = classify(frame.record, model, cfg)
        except Exception:  # noqa: BLE001 - an escaping exception is a failed operation
            outcome = None
            if len(errors) < 5:
                errors.append(traceback.format_exc(limit=3))
        latencies.append((time.perf_counter() - t0) * 1e3)
        if isinstance(outcome, outcome_type):
            drop = outcome.drop
            region = outcome.decision.region.value if outcome.decision else None
            status = "accepted" if drop is None else drop.value
        else:
            status = NO_OUTCOME[outcome is not None]
            region = None
        signatures.append([status, region, frame.label.value])
    return signatures


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--model", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--frames-per-region", type=int, required=True)
    parser.add_argument("--min-frames", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--probe", action="store_true", help="exit once set up")
    args = parser.parse_args()

    import gazekit  # noqa: F401 - part of the timed set-up

    model = load(args.model)
    print("ready", flush=True)
    if args.probe:
        os._exit(0)  # the probe times set-up only; skip freeing the model

    frames = population(args.seed, args.frames_per_region)
    latencies, pass_walls, errors = [], [], []
    first = None
    mismatches = no_outcome = 0
    loop_start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        signatures = classify_pass(frames, model, latencies, errors)
        pass_walls.append(time.perf_counter() - pass_start)
        no_outcome += sum(sig[0] in NO_OUTCOME for sig in signatures)
        if first is None:
            first = signatures
        else:
            mismatches += sum(a != b for a, b in zip(first, signatures))
        elapsed = time.perf_counter() - loop_start
        if elapsed >= args.seconds and len(latencies) >= args.min_frames:
            break

    with open(args.out, "w", encoding="utf-8") as out:
        json.dump(
            {
                "latencies_ms": latencies,
                "pass_walls_s": pass_walls,
                "loop_s": elapsed,
                "outcomes": first,
                "pass_mismatches": mismatches,
                "no_outcome": no_outcome,
                "errors": errors,
            },
            out,
        )


if __name__ == "__main__":
    main()
