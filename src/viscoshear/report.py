"""Deterministic CSV / JSON / SVG emitters.

Floats print with 17 significant digits ('%.17g'), which round-trips IEEE
doubles exactly, so identical inputs always produce byte-identical files;
absent values render as NA in CSV and null in JSON.  JSON has no literal
for infinities, so every non-finite float is null there too.  The JSON
writer is a small recursive formatter rather than the stdlib encoder so the
float format is uniform everywhere.
"""

from __future__ import annotations

import json as _json
import math
from typing import Sequence

import numpy as np

__all__ = ["fmt_float", "csv_text", "json_text", "svg_line_plot", "check_dict", "curve_dict",
           "kstar_svg", "scenario_report_dict"]

SVG_WIDTH, SVG_HEIGHT = 800, 500
N_TICKS = 5  # per axis


def fmt_float(x: float) -> str:
    if x is None or (isinstance(x, float) and math.isnan(x)):
        return "NA"
    return "%.17g" % float(x)


def _cell(x) -> str:
    if x is None:
        return "NA"
    if isinstance(x, (bool, np.bool_)):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    if isinstance(x, (float, np.floating)):
        return fmt_float(float(x))
    return str(x)


def csv_text(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_cell(x) for x in row))
    return "\n".join(lines) + "\n"


def _jwrite(obj, out: list) -> None:
    if obj is None:
        out.append("null")
    elif isinstance(obj, (bool, np.bool_)):
        out.append("true" if obj else "false")
    elif isinstance(obj, (int, np.integer)):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        x = float(obj)
        out.append(fmt_float(x) if math.isfinite(x) else "null")
    elif isinstance(obj, str):
        out.append(_json.dumps(obj))
    elif isinstance(obj, dict):
        out.append("{")
        for i, (k, v) in enumerate(obj.items()):
            if i:
                out.append(", ")
            out.append(_json.dumps(str(k)))
            out.append(": ")
            _jwrite(v, out)
        out.append("}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        out.append("[")
        for i, v in enumerate(list(obj)):
            if i:
                out.append(", ")
            _jwrite(v, out)
        out.append("]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")


def json_text(obj) -> str:
    out: list = []
    _jwrite(obj, out)
    out.append("\n")
    return "".join(out)


def check_dict(c) -> dict:
    """The JSON form of one check."""
    band = None if c.band is None else list(c.band)
    return {"name": c.name, "passed": c.passed, "measured": c.measured, "band": band,
            "note": c.note}


def curve_dict(curve) -> dict:
    """The JSON form of a k*(t) sweep (a ``KstarCurve``): its samples."""
    return {"t": list(curve.times), "kstar": list(curve.kstars), "lambda1": list(curve.lambda1s),
            "lambda2": list(curve.lambda2s)}


def kstar_svg(curve) -> str:
    """The k*(t) plot of a sweep, over the samples where k* is resolved."""
    pts = [(t, k) for t, k in zip(curve.times, curve.kstars) if k is not None]
    return svg_line_plot([("k*(t)", [t for t, _ in pts], [k for _, k in pts])], "t", "k*",
                         "critical wave number vs time")


def scenario_report_dict(rep) -> dict:
    """Flatten a ScenarioReport into the JSON report schema."""
    d = {
        "kind": rep.kind,
        "params": {
            "M": rep.M,
            "gamma0": rep.params.gamma0,
            "gamma1": rep.params.gamma1,
            "gamma2": rep.params.gamma2,
            "nu": rep.params.nu,
        },
        "T": rep.T,
        "Ttilde": rep.Ttilde,
        "kstar0": rep.kstar0,
        "kstarT": rep.kstarT,
        "ci_at_k1": rep.ci_at_k1,
        "slope_at_k1": rep.slope_at_k1,
        "all_passed": rep.all_passed,
        "checks": [check_dict(c) for c in rep.checks],
    }
    if rep.curve is not None:
        d["kstar_curve"] = curve_dict(rep.curve)
    return d


def _ticks(lo: float, hi: float):
    if hi <= lo:
        hi = lo + 1.0
    return [lo + (hi - lo) * i / (N_TICKS - 1) for i in range(N_TICKS)]


def svg_line_plot(
    series: Sequence[tuple],
    xlabel: str,
    ylabel: str,
    title: str,
) -> str:
    """Minimal static SVG line plot; purely a function of its inputs.

    ``series`` is a sequence of (name, xs, ys) triples.
    """
    width, height = SVG_WIDTH, SVG_HEIGHT
    ml, mr, mt, mb = 70, 20, 40, 55
    pw, ph = width - ml - mr, height - mt - mb
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if y is not None]
    if not xs_all or not ys_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x0, x1 = min(xs_all), max(xs_all)
    y0, y1 = min(ys_all), max(ys_all)
    if x1 == x0:
        x1 = x0 + 1.0
    if y1 == y0:
        y1 = y0 + 1.0
    pad = 0.05 * (y1 - y0)
    y0, y1 = y0 - pad, y1 + pad

    def px(x):
        return ml + pw * (x - x0) / (x1 - x0)

    def py(y):
        return mt + ph * (1.0 - (y - y0) / (y1 - y0))

    colors = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd"]
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.1f}" y="24" text-anchor="middle" font-size="16" '
        f'font-family="sans-serif">{title}</text>',
        f'<rect x="{ml}" y="{mt}" width="{pw}" height="{ph}" fill="none" stroke="#444"/>',
    ]
    for tx in _ticks(x0, x1):
        parts.append(
            f'<line x1="{px(tx):.2f}" y1="{mt + ph}" x2="{px(tx):.2f}" y2="{mt + ph + 5}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{px(tx):.2f}" y="{mt + ph + 20}" text-anchor="middle" font-size="11" '
            f'font-family="sans-serif">{tx:.4g}</text>'
        )
    for ty in _ticks(y0, y1):
        parts.append(
            f'<line x1="{ml - 5}" y1="{py(ty):.2f}" x2="{ml}" y2="{py(ty):.2f}" stroke="#444"/>'
        )
        parts.append(
            f'<text x="{ml - 8}" y="{py(ty) + 4:.2f}" text-anchor="end" font-size="11" '
            f'font-family="sans-serif">{ty:.4g}</text>'
        )
    parts.append(
        f'<text x="{ml + pw / 2:.1f}" y="{height - 12}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif">{xlabel}</text>'
    )
    parts.append(
        f'<text x="18" y="{mt + ph / 2:.1f}" text-anchor="middle" font-size="13" '
        f'font-family="sans-serif" transform="rotate(-90 18 {mt + ph / 2:.1f})">{ylabel}</text>'
    )
    for i, (name, xs, ys) in enumerate(series):
        pts = [
            f"{px(x):.2f},{py(y):.2f}"
            for x, y in zip(xs, ys)
            if y is not None
        ]
        if pts:
            parts.append(
                f'<polyline fill="none" stroke="{colors[i % len(colors)]}" stroke-width="1.5" '
                f'points="{" ".join(pts)}"/>'
            )
            parts.append(
                f'<text x="{width - mr - 5}" y="{mt + 16 + 16 * i}" text-anchor="end" '
                f'font-size="12" font-family="sans-serif" fill="{colors[i % len(colors)]}">{name}</text>'
            )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
