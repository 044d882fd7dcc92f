"""Machine-readable report tables and optional SVG plots.

The tables are the contract: byte-identical for identical inputs (fixed float
formatting, sorted JSON keys, no timestamps). Plots are rendered from the
same numbers as a convenience.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

from .analysis import DeltaReport, StudyResult, overall_accuracy, row_percentages
from .core import REGIONS
from .pipeline import AttritionLedger, decision_rates

__all__ = ["fmt", "write_csv", "write_study_reports"]


def fmt(value) -> str:
    """Canonical cell formatting: fixed 6 decimals, nan/inf spelled out, and
    text that holds a comma, a quote, CR or LF quoted RFC 4180 style."""
    if isinstance(value, float):
        if math.isnan(value):
            return "nan"
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:.6f}"
    text = str(value)
    if any(c in text for c in ',"\r\n'):
        return '"' + text.replace('"', '""') + '"'
    return text


def write_csv(path: Path, header: list[str], rows: list[tuple]):
    lines = (",".join(fmt(cell) for cell in row) for row in [header, *rows])
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def _write_json(path: Path, payload: dict):
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _ledger_payload(ledger: AttritionLedger, fps: float) -> dict:
    payload = {
        "total_frames": ledger.total_frames,
        "faces_detected": ledger.faces_detected,
        "pupils_detected": ledger.pupils_detected,
        "confident_decisions": ledger.confident_decisions,
        "fps": fps,
    }
    if ledger.total_frames > 0:
        payload["faces_fraction"] = round(ledger.faces_detected / ledger.total_frames, 6)
        payload["pupils_fraction"] = round(ledger.pupils_detected / ledger.total_frames, 6)
    if ledger.pupils_detected > 0 and ledger.total_frames > 0:
        confident_hz, effective_hz = decision_rates(ledger, fps)
        payload["confident_rate_hz"] = round(confident_hz, 6)
        payload["effective_rate_hz"] = round(effective_hz, 6)
    return payload


def _confusion_files(out_dir: Path, study: StudyResult) -> list[Path]:
    written = []
    names = [region.value for region in REGIONS]
    for mode, counts in study.confusions.items():
        suffix = mode.value.replace("-", "_")
        counts_path = out_dir / f"confusion_{suffix}.csv"
        write_csv(
            counts_path,
            ["truth\\prediction"] + names,
            [(names[i], *counts[i].tolist()) for i in range(len(names))],
        )
        pct = row_percentages(counts)
        pct_path = out_dir / f"confusion_{suffix}_pct.csv"
        write_csv(
            pct_path,
            ["truth\\prediction"] + names,
            [(names[i], *[float(v) for v in pct[i]]) for i in range(len(names))],
        )
        written.extend([counts_path, pct_path])
    return written


def write_study_reports(
    out_dir,
    study: StudyResult,
    delta: DeltaReport | None,
    resolved_config: dict,
    fps: float = 30.0,
    plots: bool = False,
) -> list[Path]:
    """Emit every table for one evaluation run; returns the written paths.

    ``status.json`` is written last with ``complete: true``; an interrupted
    run leaves it absent or marked incomplete.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    status_path = out_dir / "status.json"
    _write_json(status_path, {"complete": False})
    written = [status_path]

    config_path = out_dir / "resolved_config.json"
    _write_json(config_path, resolved_config)
    written.append(config_path)

    ledger_path = out_dir / "ledger.json"
    _write_json(ledger_path, _ledger_payload(study.ledger, fps))
    written.append(ledger_path)

    written.extend(_confusion_files(out_dir, study))

    per_user_rows = []
    for i, subject in enumerate(study.subjects):
        owl = study.owlness.get(subject.subject_id)
        row = [subject.subject_id]
        row.append(owl.owlness if owl else math.nan)
        row.append(owl.strategy.value if owl else "unknown")
        for mode in study.config.modes:
            row.extend(
                [subject.mean(mode), subject.std(mode), int(subject.accepted[mode].sum())]
            )
        if delta is not None:
            row.append(delta.per_user[i][2])
        per_user_rows.append(tuple(row))
    header = ["subject", "owlness", "strategy"]
    for mode in study.config.modes:
        tag = mode.value.replace("-", "_")
        header.extend([f"{tag}_mean", f"{tag}_std", f"{tag}_accepted"])
    if delta is not None:
        header.append("delta")
    per_user_path = out_dir / "per_user.csv"
    write_csv(per_user_path, header, per_user_rows)
    written.append(per_user_path)

    owl_path = out_dir / "owlness.csv"
    write_csv(
        owl_path,
        ["subject", "owlness", "mean_head_dist", "mean_pupil_dist", "strategy", "frames"],
        [
            (
                r.subject_id,
                r.owlness,
                r.mean_head_dist,
                r.mean_pupil_dist,
                r.strategy.value,
                r.frame_count,
            )
            for r in study.owlness.values()
        ],
    )
    written.append(owl_path)

    summary = {"modes": [m.value for m in study.config.modes]}
    if delta is not None:
        deltas_path = out_dir / "region_deltas.csv"
        write_csv(
            deltas_path,
            ["region", "head_only_accuracy", "head_eye_accuracy", "delta"],
            delta.per_region,
        )
        written.append(deltas_path)
        summary.update(
            {
                "overall_head_only": delta.overall_head_only,
                "overall_head_eye": delta.overall_head_eye,
                "overall_delta": delta.overall_delta,
                "owlness_delta_pearson_r": None if not delta.pearson_defined else delta.pearson_r,
                "pearson_defined": delta.pearson_defined,
            }
        )
    else:
        only = study.config.modes[0]
        summary["overall_accuracy"] = overall_accuracy(study.confusions[only])
    summary_path = out_dir / "summary.json"
    _write_json(summary_path, _jsonable(summary))
    written.append(summary_path)

    if plots and delta is not None:
        plot_dir = out_dir / "plots"
        plot_dir.mkdir(exist_ok=True)
        bars = [(name, d) for name, _, _, d in delta.per_region]
        bar_path = plot_dir / "region_deltas.svg"
        bar_path.write_text(_bar_svg(bars, "accuracy delta by region"), encoding="utf-8")
        scatter = [(m, d) for _, m, d in delta.per_user]
        scatter_path = plot_dir / "owlness_vs_delta.svg"
        scatter_path.write_text(
            _scatter_svg(scatter, "owlness", "accuracy delta"), encoding="utf-8"
        )
        written.extend([bar_path, scatter_path])

    _write_json(status_path, {"complete": True})
    return written


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, float) and (math.isnan(obj) or math.isinf(obj)):
        return None
    return obj


# ---------------------------------------------------------------------------
# Tiny dependency-free SVG renderers
# ---------------------------------------------------------------------------

_SVG_W, _SVG_H, _PAD = 480, 300, 45


def _svg_header(title: str) -> str:
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_W}" height="{_SVG_H}">'
        f'<text x="{_SVG_W / 2}" y="18" text-anchor="middle" font-size="13">{title}</text>'
    )


def _bar_svg(bars: list[tuple[str, float]], title: str) -> str:
    values = [v for _, v in bars if not math.isnan(v)]
    lo = min(0.0, *values) if values else 0.0
    hi = max(0.0, *values) if values else 1.0
    span = (hi - lo) or 1.0
    usable_h = _SVG_H - 2 * _PAD
    slot = (_SVG_W - 2 * _PAD) / max(len(bars), 1)
    parts = [_svg_header(title)]
    zero_y = _PAD + usable_h * (hi / span)
    parts.append(
        f'<line x1="{_PAD}" y1="{zero_y:.1f}" x2="{_SVG_W - _PAD}" y2="{zero_y:.1f}" stroke="#888"/>'
    )
    for i, (name, value) in enumerate(bars):
        if math.isnan(value):
            continue
        x = _PAD + i * slot + slot * 0.15
        top = _PAD + usable_h * ((hi - max(value, 0.0)) / span)
        height = usable_h * abs(value) / span
        parts.append(
            f'<rect x="{x:.1f}" y="{top:.1f}" width="{slot * 0.7:.1f}" '
            f'height="{height:.1f}" fill="#4878a8"/>'
        )
        parts.append(
            f'<text x="{x + slot * 0.35:.1f}" y="{_SVG_H - _PAD + 14}" '
            f'text-anchor="middle" font-size="9">{name}</text>'
        )
    parts.append("</svg>")
    return "".join(parts)


def _scatter_svg(points: list[tuple[float, float]], x_label: str, y_label: str) -> str:
    clean = [(x, y) for x, y in points if not (math.isnan(x) or math.isnan(y))]
    parts = [_svg_header(f"{y_label} vs {x_label}")]
    if clean:
        xs = [p[0] for p in clean]
        ys = [p[1] for p in clean]
        x_lo, x_hi = min(xs), max(xs)
        y_lo, y_hi = min(ys), max(ys)
        x_span = (x_hi - x_lo) or 1.0
        y_span = (y_hi - y_lo) or 1.0
        for x, y in clean:
            px = _PAD + (_SVG_W - 2 * _PAD) * (x - x_lo) / x_span
            py = _SVG_H - _PAD - (_SVG_H - 2 * _PAD) * (y - y_lo) / y_span
            parts.append(f'<circle cx="{px:.1f}" cy="{py:.1f}" r="3" fill="#a85048"/>')
    parts.append(
        f'<text x="{_SVG_W / 2}" y="{_SVG_H - 8}" text-anchor="middle" font-size="11">{x_label}</text>'
    )
    parts.append("</svg>")
    return "".join(parts)
