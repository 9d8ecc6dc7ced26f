"""Command-line front end.

    viscoshear <subcommand> --config <path> [--out <dir>] [--format csv,json,svg]

Subcommands: calibrate, kstar-sweep, eigencurve, verify, torus, line.
Exit codes: 0 success, 1 a failed check, or ``eigencurve`` with
``k_grid = auto`` finding no bound state at t = T (nothing to trace), 2
usage/config error or an OS error on a path (an unreadable config, an
output path that is a file), 3 any other numerical failure of the package
(non-convergence, bad bracket, ...).
Every subcommand creates the output directory before it computes anything,
so an unusable --out exits 2 at once.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import rayleigh as ray, spectrum
from .calibrate import kstar_time_sweep, tune_M_for_kstar
from .config import Config, load_config, parse_formats
from .errors import ConfigError, NonConvergence, ViscoshearError
from .flow import FlowState
from .report import csv_text, curve_dict, json_text, kstar_svg, scenario_report_dict, svg_line_plot
from .scenario import run_line_scenario, run_torus_scenario


def _write(path: Path, text: str) -> None:
    path.write_text(text, encoding="utf-8", newline="")
    print(f"wrote {path}")


def _resolve_M(cfg: Config) -> float:
    if cfg.M is not None:
        return cfg.M
    cal = tune_M_for_kstar(cfg.params(), 0.0, 1.0 - cfg.delta)
    print(f"tuned M = {cal.M:.17g} (k* = {cal.achieved:.17g})")
    return cal.M


def _cmd_calibrate(cfg: Config, out_dir: Path, formats) -> int:
    cal = tune_M_for_kstar(cfg.params(), 0.0, 1.0 - cfg.delta)
    print(f"M = {cal.M:.17g}")
    print(f"achieved k* = {cal.achieved:.17g} in {cal.iterations} finishing iterations "
          "(located on the base grid, finished on converged eigensolves)")
    return 0


def _cmd_kstar_sweep(cfg: Config, out_dir: Path, formats) -> int:
    M = _resolve_M(cfg)
    curve = kstar_time_sweep(M, cfg.params(), cfg.n_times)
    rows = [
        (t, k, l1, l2)
        for t, k, l1, l2 in zip(curve.times, curve.kstars, curve.lambda1s, curve.lambda2s)
    ]
    if "csv" in formats:
        _write(out_dir / "kstar_curve.csv", csv_text(("t", "kstar", "lambda1", "lambda2"), rows))
    if "json" in formats:
        payload = {"M": M, "T": curve.T, "Ttilde": curve.Ttilde, **curve_dict(curve)}
        _write(out_dir / "kstar_curve.json", json_text(payload))
    if "svg" in formats:
        _write(out_dir / "kstar_vs_t.svg", kstar_svg(curve))
    return 0


def _cmd_eigencurve(cfg: Config, out_dir: Path, formats) -> int:
    M = _resolve_M(cfg)
    params = cfg.params(M)
    state = FlowState(params, params.horizon)
    auto = cfg.k_grid == "auto"
    try:  # one eigensolve gives the auto grid's k* and the law's seed
        eig = spectrum.lowest_eigenpair(state)
    except NonConvergence:
        if auto:
            raise
        eig = None  # every row of an explicit grid gets the full scan
    if auto and eig.kstar is None:
        print("no bound state at t = T; nothing to trace", file=sys.stderr)
        return 1
    curve = ray.eigencurve(state, cfg.k_grid_values(eig.kstar if auto else 0.0), eig)
    slope_by_k = {k: s for k, s in curve.slope_samples}
    rows = [(k, c, r, slope_by_k.get(k)) for k, c, r in curve.points]
    if "csv" in formats:
        _write(out_dir / "eigencurve.csv", csv_text(("k", "c_i", "residual", "slope"), rows))
    if "json" in formats:
        payload = {
            "M": M,
            "t": state.t,
            "k_zero": curve.k_zero,
            "points": [{"k": k, "c_i": c, "residual": r} for k, c, r in curve.points],
            "slopes": [{"k": k, "dci_dk": s} for k, s in curve.slope_samples],
        }
        _write(out_dir / "eigencurve.json", json_text(payload))
    if "svg" in formats:
        series = [("c_i(k)", [k for k, _, _ in curve.points], [c for _, c, _ in curve.points])]
        _write(out_dir / "ci_vs_k.svg",
               svg_line_plot(series, "k", "c_i", "unstable eigenvalue vs wave number"))
    return 0


def _cmd_verify(cfg: Config, out_dir: Path, formats) -> int:
    from .acceptance import run_verify  # loads scipy.integrate; only verify needs it

    report, ok = run_verify(cfg)
    if "json" in formats:
        _write(out_dir / "verify_report.json", json_text(report))
    if "csv" in formats:
        rows = [
            (c["criterion"], c["name"], c["passed"],
             c["measured"],
             None if c["band"] is None else c["band"][0],
             None if c["band"] is None else c["band"][1])
            for c in report["checks"]
        ]
        _write(out_dir / "verify_report.csv",
               csv_text(("criterion", "name", "passed", "measured", "band_lo", "band_hi"), rows))
    failed = [c for c in report["checks"] if not c["passed"]]
    for c in failed:
        print(f"FAILED check: criterion {c['criterion']} {c['name']} "
              f"(measured {c['measured']}, band {c['band']}) {c['note']}")
    return 0 if ok else 1


def _cmd_scenario(run):
    """A scenario subcommand: ``run(cfg)``, then its outputs and checks."""

    def command(cfg: Config, out_dir: Path, formats) -> int:
        rep = run(cfg)
        if "json" in formats:
            _write(out_dir / "report.json", json_text(scenario_report_dict(rep)))
        if "svg" in formats and rep.curve is not None:
            _write(out_dir / "kstar_vs_t.svg", kstar_svg(rep.curve))
        if "svg" in formats and rep.scan_cs is not None:
            _write(out_dir / "wronskian_scan.svg",
                   svg_line_plot([("Re W(ic, 1)", list(rep.scan_cs), list(rep.scan_W))],
                                 "c_i", "Re W", "Wronskian scan at k = 1, t = T"))
        for c in rep.checks:
            status = "pass" if c.passed else "FAIL"
            print(f"  [{status}] {c.name}: measured={c.measured} band={c.band} {c.note}")
        return 0 if rep.all_passed else 1

    return command


_COMMANDS = {
    "calibrate": _cmd_calibrate,
    "kstar-sweep": _cmd_kstar_sweep,
    "eigencurve": _cmd_eigencurve,
    "verify": _cmd_verify,
    "torus": _cmd_scenario(lambda cfg: run_torus_scenario(cfg.params(), cfg.delta, cfg.n_times)),
    "line": _cmd_scenario(lambda cfg: run_line_scenario(cfg.params())),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="viscoshear",
        description="Spectral stability of diffusing shear flows",
    )
    parser.add_argument("subcommand", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to a key = value config file")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", default="csv,json", help="comma-separated subset of csv,json,svg")
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        cfg = load_config(args.config)
        formats = parse_formats(args.format)
    except (OSError, ConfigError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)  # an unusable --out fails before any work
        return _COMMANDS[args.subcommand](cfg, out_dir, formats)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except ViscoshearError as exc:
        print(f"numerical failure: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
