"""The harness of ``tools/bench.py``, driven by fake runs: no process is spawned."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


@pytest.fixture
def no_spawn(monkeypatch):
    def spawn(*args):
        raise AssertionError("spawned a process")

    monkeypatch.setattr(bench, "spawn", spawn)


@pytest.mark.parametrize("argv", [
    [],
    ["nope"],
    ["polish", "no-equals-sign"],
    ["polish", "=."],
    ["startup", f"a={ROOT / 'tests'}"],
    ["spectrum", f"a={ROOT}", f"a={ROOT}"],
])
def test_bad_case_or_root_exits_2_before_spawning(argv, no_spawn, capsys):
    assert bench.main(argv) == 2
    assert capsys.readouterr().err


def test_roots_alternate_after_one_warm_up_each():
    calls = []

    def run(src):
        calls.append(src)
        return {"call": len(calls)}

    samples = bench.rounds({"parent": "P", "change": "C"}, run, runs=4)
    assert calls == ["P", "C"] + ["P", "C", "C", "P"] * 2
    # the warm-up calls 1 and 2 are not kept
    assert samples == {"parent": [{"call": n} for n in (3, 6, 7, 10)],
                       "change": [{"call": n} for n in (4, 5, 8, 9)]}


def test_summary_keeps_every_sample():
    values = [0.5, 0.1, 0.3, 0.9, 0.2]
    assert bench.summary(values) == {"median": 0.3, "q1": 0.2, "q3": 0.5, "min": 0.1,
                                     "max": 0.9, "samples": values}


def test_merge_summarizes_measures_and_keeps_equal_counts():
    runs = [{"seconds": s, "root_stage_s": s / 2, "w_passes": 2, "c_i": [1e-3],
             "rungs": [{"n": 129, "s": s, "index_calls": 3}]} for s in (1.0, 3.0, 2.0)]
    merged = bench.merge(runs, "this:")
    assert merged["seconds"]["samples"] == [1.0, 3.0, 2.0]
    assert merged["seconds"]["median"] == 2.0
    assert merged["root_stage_s"]["median"] == 1.0
    assert merged["w_passes"] == 2 and merged["c_i"] == [1e-3]
    assert merged["rungs"][0]["n"] == 129 and merged["rungs"][0]["s"]["max"] == 3.0


@pytest.mark.parametrize("second", [
    {"seconds": 1.0, "w_passes": 3},
    {"seconds": 1.0, "w_passes": 2, "roots": 1},
])
def test_merge_refuses_counts_that_differ(second):
    with pytest.raises(bench.Refused, match="differs between runs"):
        bench.merge([{"seconds": 1.0, "w_passes": 2}, second], "this:")


def test_main_writes_one_summary_per_root(monkeypatch, tmp_path, capsys):
    times = iter(range(1, 100))

    def spawn(child, src, config):
        assert child is bench.STARTUP and config.read_text() == bench.FIXTURE
        return {"modules": 232, "scipy_subpackages": [], "scipy_modules": ["_flapack"],
                "setup_s": float(next(times)), "import_s": 0.2, "peak_rss_mb": 34.0}

    monkeypatch.setattr(bench, "spawn", spawn)
    monkeypatch.chdir(tmp_path)
    assert bench.main(["startup", f"parent={ROOT}", f"change={ROOT}"]) == 0
    out = json.loads((tmp_path / "BENCH_startup.json").read_text())
    assert out["runs"] == bench.RUNS and out["config"] == bench.FIXTURE
    for entry in out["roots"].values():
        assert entry["scipy_subpackages"] == [] and entry["scipy_modules"] == ["_flapack"]
        assert len(entry["setup_s"]["samples"]) == bench.RUNS
    assert "232 modules, 1 of scipy's; scipy subpackages: none" in capsys.readouterr().out


def test_main_refuses_runs_whose_counts_differ(monkeypatch, tmp_path, capsys):
    passes = iter(range(100))
    monkeypatch.setattr(bench, "spawn", lambda child, src, config: {
        "eigencurve": {"seconds": 1.0, "w_passes": next(passes)}})
    monkeypatch.chdir(tmp_path)
    assert bench.main(["polish", f"this={ROOT}"]) == 1
    assert "differs between runs" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_polish.json").exists()


def test_polish_shows_the_ode_cost_of_each_case(capsys):
    stat = {"median": 0.2, "q1": 0.19, "q3": 0.21}
    bench.show_polish("change", {"eigencurve": {
        "seconds": stat, "w_passes": 2, "seeded_rows": 2, "fallback_rows": 0,
        "polish_passes_per_root": {"mean": 1.0, "max": 1},
        "ode_passes": 2, "ode_steps": 113, "rhs_calls": 1358, "eigensolves": 1}})
    out = capsys.readouterr().out
    assert "2 W passes, 2 seeded and 0 full-scan rows" in out
    assert "2 ODE passes, 113 steps, 1358 RHS calls, 1 eigensolves" in out


def _threshold_record(seconds, M0="4.127983142029252e-05"):
    return {"eigensolves": 13, "ruled_steps": 5, "iterations": 19, "M0": M0,
            "bracket": ["4.127729338082987e-05", M0], "achieved": "-5.475237175776104e-09",
            "seconds": seconds}


def test_threshold_writes_counts_and_the_repr_of_M0(monkeypatch, tmp_path, capsys):
    times = iter(range(1, 100))

    def spawn(child, src, config):
        assert child is bench.THRESHOLD and config.read_text() == bench.FIXTURE
        return _threshold_record(float(next(times)))

    monkeypatch.setattr(bench, "spawn", spawn)
    monkeypatch.chdir(tmp_path)
    assert bench.main(["threshold", f"parent={ROOT}", f"change={ROOT}"]) == 0
    out = json.loads((tmp_path / "BENCH_threshold.json").read_text())
    for entry in out["roots"].values():
        assert entry["M0"] == "4.127983142029252e-05" and entry["iterations"] == 19
        assert len(entry["seconds"]["samples"]) == bench.RUNS
    out = capsys.readouterr().out
    assert ("13 eigensolves, 5 ruled steps, 19 iterations; M0 = 4.127983142029252e-05 in "
            "(4.127729338082987e-05, 4.127983142029252e-05)") in out
    assert "M0, bracket and lambda1 reprs equal parent's on every root" in out


def test_threshold_names_the_roots_whose_M0_differs(monkeypatch, tmp_path, capsys):
    other = tmp_path / "other"
    (other / "src" / "viscoshear").mkdir(parents=True)
    (other / "src" / "viscoshear" / "cli.py").touch()

    def spawn(child, src, config):
        if src == other / "src":
            return dict(_threshold_record(1.0, "4.08758e-05"), achieved="-5.1e-09")
        return _threshold_record(1.0)

    monkeypatch.setattr(bench, "spawn", spawn)
    monkeypatch.chdir(tmp_path)
    assert bench.main(["threshold", f"parent={ROOT}", f"change={ROOT}", f"other={other}"]) == 0
    assert capsys.readouterr().out.splitlines()[-2] == (
        "M0, bracket and lambda1 reprs differ from parent's: other (M0, bracket, achieved)")


def test_threshold_refuses_a_root_whose_M0_moves(monkeypatch, tmp_path, capsys):
    M0s = iter(["4.127983142029252e-05", "4.1279831420292526e-05"] * 50)
    monkeypatch.setattr(bench, "spawn", lambda child, src, config: _threshold_record(1.0, next(M0s)))
    monkeypatch.chdir(tmp_path)
    assert bench.main(["threshold", f"this={ROOT}"]) == 1
    assert "differs between runs" in capsys.readouterr().err
    assert not (tmp_path / "BENCH_threshold.json").exists()


def test_every_traced_name_resolves(monkeypatch):
    # a traced perfbench run rebinds each (module, attribute) of
    # perfbench/spans.py's BINDINGS; a renamed attribute would break it
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    for module, attr, _ in spans.BINDINGS:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"


def test_traced_ode_pass_counts_steps_and_rhs_calls(monkeypatch, couette_state):
    # perfbench's tracer wraps rayleigh.integrate as (rhs, t0, t1, y0, ...)
    # and reads the step count from the result; DOP853 makes 11 RHS calls per
    # attempted step, one FSAL call per accepted step and one seed call
    from viscoshear import rayleigh as ray

    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    spans = importlib.import_module("spans")
    for module, attr, _ in spans.BINDINGS:  # restored when the test ends
        module = importlib.import_module(module)
        monkeypatch.setattr(module, attr, getattr(module, attr))
    tracer = spans.Tracer()
    tracer.install()
    ray.wronskian_many(couette_state, [1.0, 1.0], [0.1, 1e-3])
    (ode,) = [s for s in tracer.spans if s[0] == "ode.pass"]
    assert tracer.spans[ode[1]][0] == "rayleigh.wpass"
    steps, calls = ode[4]["steps"], ode[4]["rhs_calls"]
    attempts, rest = divmod(calls - 1 - steps, 11)
    assert steps > 0 and rest == 0 and attempts >= steps
    assert ode[4]["channels"] == 2
