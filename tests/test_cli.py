"""Config parsing and the command-line surface."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import viscoshear
from viscoshear import calibrate
from viscoshear.cli import main
from viscoshear.config import Config, parse_config, parse_formats
from viscoshear.errors import ConfigError, ParseError, ValidationError
from viscoshear.report import (csv_text, fmt_float, json_text, kstar_svg, scenario_report_dict,
                               svg_line_plot)


def test_parse_smoke_defaults():
    cfg = parse_config("gamma0 = 0.15\ngamma1 = 0.06\ngamma2 = 0.45\nnu = 1e-3")
    assert cfg.gamma0 == 0.15
    assert cfg.n_times == 9
    # where and what to write are the CLI's --out and --format alone
    assert len(Config.__dataclass_fields__) == 8


def test_parse_comments_and_blank_lines():
    cfg = parse_config("# header\n\ngamma1 = 0.02  # inline\nM = 0.5\n")
    assert cfg.gamma1 == 0.02
    assert cfg.M == 0.5


def test_parse_rejects_gamma2_out_of_range():
    with pytest.raises(ValidationError, match=r"gamma2 must lie in \(0,1\)"):
        parse_config("gamma2 = 1.5")


def test_parse_rejects_unknown_and_duplicate_keys():
    with pytest.raises(ParseError, match="line 2.*unknown key"):
        parse_config("gamma0 = 0.1\nbogus = 3\n")
    with pytest.raises(ParseError, match="line 2.*duplicate"):
        parse_config("gamma0 = 0.1\ngamma0 = 0.2\n")
    with pytest.raises(ParseError, match="line 1"):
        parse_config("gamma0 0.1")
    # the tolerances, the gamma ratio limit, the eigensolver's box and its
    # base rung are module constants, so no config can widen a check's band
    # or move the numbers; the output directory and formats are --out and
    # --format only
    for key in ("tol_eig", "tol_cal", "gamma_ratio_max", "half_width", "n_points",
                "out_dir", "formats"):
        with pytest.raises(ParseError, match=f"line 1.*unknown key '{key}'"):
            parse_config(f"{key} = 0.5\n")


def test_parse_gamma_ratio_knob():
    with pytest.raises(ValidationError, match="gamma1/gamma2 = 0.4 exceeds 0.2"):
        parse_config("gamma1 = 0.2\ngamma2 = 0.5\n")


_VALUES = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.integers(-10 ** 6, 10 ** 6).map(str),
    st.sampled_from(["auto", "csv,svg", "yaml", "0.9:1:3", "1:2", "0.5:inf:2", "-nan", "1e999"]),
    st.text(max_size=12),
)
_KEYS = st.one_of(
    st.sampled_from(sorted(Config.__dataclass_fields__)),
    st.sampled_from(["tol_eig", "tol_cal", "gamma_ratio_max", "half_width", "n_points",
                     "out_dir", "formats"]),
    st.text(max_size=8),
)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(_KEYS, _VALUES), max_size=6))
def test_config_text_parses_or_raises_config_error(pairs):
    # any text of key = value lines gives a Config or a ConfigError, never
    # another exception
    text = "".join(f"{key} = {value}\n" for key, value in pairs)
    try:
        assert isinstance(parse_config(text), Config)
    except ConfigError:
        pass


def test_parse_formats_and_k_grid():
    # formats are parsed from --format only (test_cli_format_option)
    assert parse_formats("csv , svg") == ("csv", "svg")
    with pytest.raises(ValidationError, match="--format"):
        parse_formats("yaml")
    cfg = parse_config("k_grid = 0.9:1.0:5\n")
    assert list(cfg.k_grid_values(0.0)) == pytest.approx([0.9, 0.925, 0.95, 0.975, 1.0])
    with pytest.raises(ValidationError, match="k_grid"):
        parse_config("k_grid = 1:2\n")


def test_auto_k_grid_stays_inside_zero_kstar():
    # from k* = 1.004 up (the fixture's k*(T) is 1.0052) the grid is [0.9,
    # k* - 0.004] bit for bit; below, it shrinks with k* and never reaches it
    cfg = Config()
    for k_upper in (1.004, 1.0052, 2.0):
        assert np.array_equal(cfg.k_grid_values(k_upper), np.linspace(0.9, k_upper - 0.004, 8))
    for k_upper in (1e-3, 0.01, 0.3, 0.71085, 0.9, 0.904, 0.95, 1.0, 1.004, 1.2, 3.0):
        ks = cfg.k_grid_values(k_upper)
        assert len(ks) == 8 and np.all(np.diff(ks) > 0.0) and ks[0] > 0.0 and ks[-1] < k_upper


def test_cli_format_option(tmp_path, capsys):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(COUETTE_CFG)
    out = tmp_path / "out"
    assert main(["kstar-sweep", "--config", str(cfg), "--out", str(out), "--format", "csv , svg"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["kstar_curve.csv", "kstar_vs_t.svg"]
    capsys.readouterr()
    assert main(["kstar-sweep", "--config", str(cfg), "--out", str(out), "--format", "yaml"]) == 2
    assert "--format must be a subset of {csv, json, svg}, got 'yaml'" in capsys.readouterr().err


def test_fmt_float_roundtrip():
    for x in (0.1, -1.9801980198019802, 5.451168525449677e-4, 1e-300):
        assert float(fmt_float(x)) == x
    assert fmt_float(float("nan")) == "NA"


def test_csv_and_json_writers():
    text = csv_text(("a", "b"), [(1.0, None), (0.5, "x")])
    assert text == "a,b\n1,NA\n0.5,x\n"
    payload = {"v": [1.5, None], "ok": True, "name": "r"}
    assert json_text(payload) == '{"v": [1.5, null], "ok": true, "name": "r"}\n'
    assert json.loads(json_text({"x": math.inf, "y": -math.inf})) == {"x": None, "y": None}


def test_svg_is_deterministic():
    series = [("c", [0.0, 1.0, 2.0], [0.1, 0.4, 0.2])]
    a = svg_line_plot(series, "x", "y", "t")
    b = svg_line_plot(series, "x", "y", "t")
    assert a == b and a.startswith("<svg")


COUETTE_CFG = "gamma0 = 0.15\ngamma1 = 0.03\ngamma2 = 0.8\nnu = 1e-3\nM = 0\nn_times = 8\n"


def test_cli_kstar_sweep_couette(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(COUETTE_CFG)
    out = tmp_path / "out"
    rc = main(["kstar-sweep", "--config", str(cfg), "--out", str(out), "--format", "csv,json"])
    assert rc == 0
    lines = (out / "kstar_curve.csv").read_text().splitlines()
    assert lines[0] == "t,kstar,lambda1,lambda2"
    assert all(line.split(",")[1] == "NA" for line in lines[1:])
    payload = json.loads((out / "kstar_curve.json").read_text())
    assert payload["Ttilde"] is None


def test_cli_rerun_is_byte_identical(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text(COUETTE_CFG)
    outs = []
    for sub in ("a", "b"):
        calibrate._lambda_pair.cache_clear()  # each run solves afresh
        out = tmp_path / sub
        assert main(["kstar-sweep", "--config", str(cfg), "--out", str(out)]) == 0
        outs.append((out / "kstar_curve.csv").read_bytes())
    assert outs[0] == outs[1]


def test_cli_config_errors(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("gamma2 = 1.5\n")
    assert main(["kstar-sweep", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert main(["kstar-sweep", "--config", str(tmp_path / "missing.cfg")]) == 2
    ok = tmp_path / "ok.cfg"
    ok.write_text(COUETTE_CFG)
    assert main(["kstar-sweep", "--config", str(ok), "--format", "yaml"]) == 2
    assert main(["bogus-subcommand", "--config", str(ok)]) == 2


@pytest.mark.parametrize(
    "line, message",
    [
        ("gamma1 = 0.6", "gamma1 must lie in (0, 0.5]"),
        ("gamma2 = 1.5", "gamma2 must lie in (0,1)"),
        ("nu = 0", "nu must be positive"),
        ("M = -1", "M must be nonnegative"),
        ("gamma0 = 1e-300", "gamma0 * gamma1 must be at least 1e-10"),
        ("gamma1 = 1e-300", "gamma0 * gamma1 must be at least 1e-10"),
        ("M = 1e300", "M must be nonnegative and at most 1e50"),
        ("nu = 5e-324", "config error: nu must keep the horizon"),
        # T = gamma0^2 gamma1^2 / nu underflows to 0
        ("gamma0 = 1e-5\ngamma1 = 1e-5\ngamma2 = 0.4\nnu = 1e308",
         "config error: nu must keep the horizon gamma0**2 * gamma1**2 / nu positive"),
        # a count numpy cannot allocate is rejected before any work
        ("n_times = 100000000000000000000", "n_times must be at least 8 and at most 1000"),
        ("n_times = 8.5", "n_times must be an integer"),
        ("delta = 1.5", "delta must lie in (0,1)"),
        ("delta = 0", "delta must lie in (0,1)"),
    ],
)
def test_cli_flow_parameter_errors(tmp_path, capsys, line, message):
    bad = tmp_path / "bad.cfg"
    bad.write_text(line + "\n")
    assert main(["kstar-sweep", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "spec, message",
    [
        ("0:0.5:2", "k_grid wave numbers must be positive"),
        ("-1:0.5:3", "k_grid wave numbers must be positive"),
        ("0.5:-1:3", "k_grid wave numbers must be positive"),
        ("-1:2:1", "k_grid wave numbers must be positive"),
        ("nan:1:3", "k_grid wave numbers must be positive"),
        ("0.5:1:-2", "k_grid count must be nonnegative"),
        ("0.5:0.9:100000000000000000000", "k_grid count must be nonnegative and at most 1000"),
    ],
)
def test_cli_rejects_nonpositive_wave_numbers(tmp_path, capsys, spec, message):
    bad = tmp_path / "bad.cfg"
    bad.write_text(COUETTE_CFG + f"k_grid = {spec}\n")
    assert main(["eigencurve", "--config", str(bad), "--out", str(tmp_path)]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "line, key",
    [
        ("gamma1 = inf", "gamma1"),
        ("M = inf", "M"),
        ("delta = nan", "delta"),
        ("gamma0 = inf", "gamma0"),
        ("nu = -inf", "nu"),
        ("k_grid = 0.95:inf:2", "k_grid"),
        ("k_grid = 0.95:nan:1", "k_grid"),
        ("k_grid = inf:1:0", "k_grid"),
    ],
)
def test_cli_rejects_nonfinite_numbers(tmp_path, capsys, line, key):
    # the key's own line leaves the base config, so the error is the value's,
    # not a duplicate key's
    base = "".join(f"{kv}\n" for kv in COUETTE_CFG.splitlines() if kv.split(" =")[0] != key)
    bad = tmp_path / "bad.cfg"
    bad.write_text(base + line + "\n")
    assert main(["eigencurve", "--config", str(bad), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error") and key in err and len(err.splitlines()) == 1
    assert "must be finite" in err


def test_cli_os_errors_on_paths_exit_2(tmp_path, capsys):
    # a config path that is a directory, and an output path that is a file
    assert main(["kstar-sweep", "--config", str(tmp_path)]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    cfg = tmp_path / "c.cfg"
    cfg.write_text(COUETTE_CFG)
    assert main(["kstar-sweep", "--config", str(cfg), "--out", str(cfg)]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


@pytest.mark.parametrize("command", ["kstar-sweep", "calibrate"])
def test_cli_unusable_out_fails_before_any_work(tmp_path, capsys, monkeypatch, command):
    from viscoshear import cli

    tuned = []
    monkeypatch.setattr(cli, "tune_M_for_kstar", lambda *a, **kw: tuned.append(a))
    cfg = tmp_path / "c.cfg"
    cfg.write_text("gamma0 = 0.15\ngamma1 = 0.03\ngamma2 = 0.8\nnu = 1e-3\n")  # M is tuned
    assert main([command, "--config", str(cfg), "--out", str(cfg)]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1
    assert tuned == []


def test_k_grid_of_positive_or_no_wave_numbers_parses():
    assert list(parse_config("k_grid = 2:0.5:4\n").k_grid_values(0.0)) == [2.0, 1.5, 1.0, 0.5]
    assert list(parse_config("k_grid = 0.5:-1:1\n").k_grid_values(0.0)) == [0.5]
    assert len(parse_config("k_grid = -1:0:0\n").k_grid_values(0.0)) == 0


def test_cli_eigencurve_solves_a_repeated_wave_number_once(tmp_path):
    # k_grid = 0.95:0.95:3 names k = 0.95 three times: one curve point, no
    # slope, no zero estimate
    cfg = tmp_path / "c.cfg"
    cfg.write_text("gamma0 = 0.15\ngamma1 = 0.03\ngamma2 = 0.8\nnu = 1e-3\n"
                   "M = 0.7016905534975553\nk_grid = 0.95:0.95:3\n")
    assert main(["eigencurve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "eigencurve.json").read_text())
    assert [p["k"] for p in payload["points"]] == [0.95] and payload["points"][0]["c_i"] > 0.0
    assert payload["slopes"] == [] and payload["k_zero"] is None


@pytest.mark.parametrize("k_grid, why", [
    ("1e-9:1e-8:2", "no root at k=1e-09; Re W > 0 up to c_i=0.5, so any root lies above the scan"),
    ("0.95:1.2:2", "no root at k=1.2; grid extends past k*"),
])
def test_cli_eigencurve_names_the_side_a_missing_root_lies_on(tmp_path, capsys, k_grid, why):
    # k* is about 1.005: at k = 1e-9 Re W > 0 over the whole scan, so its
    # root lies above the scan's ceiling, not past k*; at k = 1.2 Re W < 0
    # throughout.  Both exit 3
    cfg = tmp_path / "c.cfg"
    cfg.write_text("gamma0 = 0.15\ngamma1 = 0.03\ngamma2 = 0.8\nnu = 1e-3\n"
                   f"M = 0.7016905534975553\nk_grid = {k_grid}\n")
    assert main(["eigencurve", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == f"numerical failure: NonConvergence: {why}\n"


@pytest.mark.parametrize("k_grid", ["auto", "0.95:1:2"])
def test_cli_eigencurve_solves_t_T_once(tmp_path, monkeypatch, k_grid):
    # one eigensolve with its mode gives the auto grid's k* and the law's
    # seed; with M given nothing is tuned, so every climb is at t = T
    from viscoshear import spectrum

    climbs, solve = [], spectrum._solve_potential

    def counted(vfunc, want_mode):
        climbs.append(want_mode)
        return solve(vfunc, want_mode)

    monkeypatch.setattr(spectrum, "_solve_potential", counted)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(FIXTURE_CFG + f"M = 0.7016905534975553\nk_grid = {k_grid}\n")
    assert main(["eigencurve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    assert climbs == [True]


@pytest.mark.parametrize("k_grid, rc", [("0.95:1:2", 0), ("auto", 3)])
def test_cli_eigencurve_without_its_eigensolve(tmp_path, monkeypatch, capsys, k_grid, rc):
    # an explicit grid whose t = T eigensolve does not converge still gets
    # every root, from the full scan; the auto grid needs that solve's k*
    from viscoshear import rayleigh as ray, spectrum
    from viscoshear.errors import NonConvergence
    from viscoshear.flow import FlowParams, FlowState

    def fails(vfunc, want_mode):
        raise NonConvergence("eigenvalue refinements did not stabilize")

    monkeypatch.setattr(spectrum, "_solve_potential", fails)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(FIXTURE_CFG + f"M = 0.7016905534975553\nk_grid = {k_grid}\n")
    assert main(["eigencurve", "--config", str(cfg), "--out", str(tmp_path)]) == rc
    if rc:
        assert capsys.readouterr().err == ("numerical failure: NonConvergence: eigenvalue "
                                           "refinements did not stabilize\n")
        return
    params = FlowParams(0.7016905534975553, 0.15, 0.03, 0.8, 1e-3)
    want, _, _ = ray.eigenvalues_for_ks(FlowState(params, params.horizon), [0.95, 1.0])
    payload = json.loads((tmp_path / "eigencurve.json").read_text())
    assert [p["c_i"] for p in payload["points"]] == [c for c, _ in want]


def test_cli_auto_k_grid_below_k_one(tmp_path):
    # delta = 0.3 puts k*(T) at 0.711, below the 0.9 where a fixture-like
    # grid starts: the auto grid still lies inside (0, k*), so every point
    # has a root
    cfg = tmp_path / "c.cfg"
    cfg.write_text("delta = 0.3\n")
    assert main(["eigencurve", "--config", str(cfg), "--out", str(tmp_path)]) == 0
    payload = json.loads((tmp_path / "eigencurve.json").read_text())
    ks = [p["k"] for p in payload["points"]]
    assert len(ks) == 8 and ks == sorted(ks) and ks[-1] < payload["k_zero"] < 0.72
    assert all(p["c_i"] > 0.0 for p in payload["points"])


def test_cli_calibrate_prints_M(tmp_path, capsys):
    cfg = tmp_path / "ref.cfg"
    cfg.write_text("gamma0 = 0.15\ngamma1 = 0.03\ngamma2 = 0.8\nnu = 1e-3\n")
    rc = main(["calibrate", "--config", str(cfg), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert rc == 0
    m_line = [l for l in out.splitlines() if l.startswith("M = ")][0]
    assert 0.700 <= float(m_line.split("=")[1]) <= 0.704


@pytest.mark.parametrize(
    "error, rc",
    [("MultipleRoots", 3), ("TailDominance", 3), ("BracketFailure", 3), ("NonConvergence", 3),
     ("ValidationError", 2)],
)
def test_package_errors_reach_their_exit_code(tmp_path, monkeypatch, error, rc):
    from viscoshear import cli, errors

    def fail(cfg, out_dir, formats):
        raise getattr(errors, error)("raised inside a command")

    monkeypatch.setitem(cli._COMMANDS, "calibrate", fail)
    cfg = tmp_path / "c.cfg"
    cfg.write_text(COUETTE_CFG)
    assert main(["calibrate", "--config", str(cfg)]) == rc


def test_cli_import_leaves_verify_and_quadrature_unloaded():
    # only `verify` needs the acceptance suite and its scipy.integrate
    # quadrature; the package's own Chandrupatla is its bracketed root finder
    # and erf is math.erf, and spectrum loads scipy's compiled LAPACK and
    # Brent extensions, and _ode its DOP853 tableau, by path, so no scipy
    # package loads at all (not scipy, scipy.linalg, scipy.optimize,
    # scipy.integrate or scipy.special), not even once a weak
    # (Brent-closed) uniform rung and a W pass have run; I(c)'s panels carry
    # their Gauss-Legendre rule as literals, so numpy.polynomial stays out too
    code = (
        "import sys, viscoshear.cli\n"
        "unwanted = ('viscoshear.acceptance', 'scipy', 'numpy.polynomial')\n"
        "def loaded():\n"
        "    return [m for m in sys.modules if m.startswith(unwanted)]\n"
        "print(loaded())\n"
        "from viscoshear import rayleigh, spectrum\n"
        "from viscoshear.flow import FlowParams, FlowState\n"
        "state = FlowState(FlowParams(4.127983142029252e-05, 0.15, 0.03, 0.8, 1e-3), 0.0)\n"
        "print(spectrum._level(spectrum._potential(state), 0)[3] > 0.0)\n"
        "print(rayleigh.wronskian_many(state, [1.0], [1e-3])[0].size)\n"
        "print(loaded())\n"
    )
    src = str(Path(viscoshear.__file__).resolve().parent.parent)
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert res.stdout.split("\n") == ["[]", "True", "1", "[]", ""]


FIXTURE_CFG = "gamma0 = 0.15\ngamma1 = 0.03\ngamma2 = 0.8\nnu = 1e-3\n"


def test_kstar_sweep_writes_the_torus_report_curve(tmp_path, ctx):
    # kstar-sweep and torus write k*(t) through the same two functions: on
    # the fixture the sweep's curve is the torus report's, bit for bit
    cfg = tmp_path / "c.cfg"
    cfg.write_text(FIXTURE_CFG)
    assert main(["kstar-sweep", "--config", str(cfg), "--out", str(tmp_path),
                 "--format", "json,svg"]) == 0
    sweep = json.loads((tmp_path / "kstar_curve.json").read_text())
    report = json.loads(json_text(scenario_report_dict(ctx.torus)))
    assert list(sweep) == ["M", "T", "Ttilde", "t", "kstar", "lambda1", "lambda2"]
    assert {key: sweep[key] for key in list(sweep)[3:]} == report["kstar_curve"]
    assert (tmp_path / "kstar_vs_t.svg").read_text() == kstar_svg(ctx.torus.curve)


def test_cli_lapack_failure_exits_3(tmp_path, monkeypatch, capsys):
    from viscoshear import spectrum

    dstebz = spectrum._dstebz
    monkeypatch.setattr(spectrum, "_dstebz", lambda *args: dstebz(*args)[:-1] + (1,))
    cfg = tmp_path / "c.cfg"
    cfg.write_text(FIXTURE_CFG)
    assert main(["kstar-sweep", "--config", str(cfg), "--out", str(tmp_path)]) == 3
    assert capsys.readouterr().err == (
        "numerical failure: NonConvergence: LAPACK dstebz failed (info=1)\n")


@pytest.mark.parametrize("command, extra", [("eigencurve", "k_grid = 0.95:1:2\n"),
                                            ("kstar-sweep", "")])
def test_cli_request_imports_no_numpy_or_scipy_module(tmp_path, command, extra):
    # everything of numpy's and scipy's that a request uses loads with
    # viscoshear.cli, so none of it is paid inside a request
    code = (
        "import sys, viscoshear.cli\n"
        "before = set(sys.modules)\n"
        "rc = viscoshear.cli.main(sys.argv[1:])\n"
        "print(rc, sorted(m for m in set(sys.modules) - before\n"
        "                 if m.startswith(('numpy', 'scipy'))))\n"
    )
    cfg = tmp_path / "c.cfg"
    cfg.write_text(FIXTURE_CFG + extra)
    src = str(Path(viscoshear.__file__).resolve().parent.parent)
    res = subprocess.run([sys.executable, "-c", code, command, "--config", str(cfg),
                          "--out", str(tmp_path)], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=src), check=True)
    assert res.stdout.splitlines()[-1] == "0 []"
