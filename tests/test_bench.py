"""The harnesses of ``tools/bench.py`` and ``tools/mutate.py``, driven by fake runs:
no process is spawned and no mutant runs."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)
_spec = importlib.util.spec_from_file_location("mutate", ROOT / "tools" / "mutate.py")
mutate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutate)


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


def test_spectrum_shows_each_rungs_calls_and_the_mode(capsys):
    stat = {"median": 1e-3, "q1": 9e-4, "q3": 1.1e-3}
    kinds = ("index", "window", "dpttrf", "vector")
    counts = dict({f"{k}_calls": 0 for k in kinds}, **{f"{k}_rows": 0 for k in kinds})
    rung = dict(counts, ladder="mapped", n=257, s=stat, index_calls=1, index_rows=129)
    mode = dict(counts, s=stat, window_calls=1, window_rows=513, dpttrf_calls=1,
                dpttrf_rows=513, vector_calls=1, vector_rows=513)
    bench.show_spectrum("change", {"cases": {"tuned_T_mode": {
        "eigensolve_s": stat, "total_s": stat, "rungs": [rung], "mode": mode,
        "potential": {"calls": 2, "points": 642}}}})
    out = capsys.readouterr().out
    assert "mapped 257: 1.0 ms (1 index/129 rows, 0 window/0 rows," in out
    assert ("mode: 1.00 ms (0 index/0 rows, 1 window/513 rows, 1 dpttrf/513 rows, "
            "1 vector/513 rows)") in out


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


def test_every_mutant_applies_once_to_the_repo():
    # the list follows src/: each mutant's old text occurs exactly once in
    # its file and differs from its new text, and the names are unique
    names = [m.name for m in mutate.MUTANTS]
    assert len(set(names)) == len(names)
    for m in mutate.MUTANTS:
        assert (ROOT / m.file).read_text(encoding="utf-8").count(m.old) == 1, m.name
        assert m.old != m.new and m.guard


def test_mutants_are_chosen_by_name(capsys):
    assert mutate.selected([]) == list(mutate.MUTANTS)
    assert [m.name for m in mutate.selected(["map_tol", "w_parity"])] == ["map_tol", "w_parity"]
    for names in (["nope"], ["map_tol", "map_tol"]):
        with pytest.raises(ValueError, match="unknown or repeated"):
            mutate.selected(names)
    assert mutate.main(["map_tol", "nope"]) == 2
    assert "unknown or repeated" in capsys.readouterr().err


@pytest.mark.parametrize("times", [0, 2])
def test_a_mutant_not_found_exactly_once_is_refused(tmp_path, times):
    (tmp_path / "f.py").write_text("x = 1\n" * times)
    with pytest.raises(mutate.Refused, match=f"occurs {times} times in f.py"):
        mutate.apply(mutate.Mutant("m", "f.py", "x = 1", "x = 2", "a guard"), tmp_path)
    assert (tmp_path / "f.py").read_text() == "x = 1\n" * times


def test_a_mutant_changes_only_its_copy(tmp_path):
    (tmp_path / "f.py").write_text("x = 1\ny = 1\n")
    mutate.apply(mutate.Mutant("m", "f.py", "x = 1", "x = 2", "a guard"), tmp_path)
    assert (tmp_path / "f.py").read_text() == "x = 2\ny = 1\n"


def test_mutation_run_prints_each_outcome(monkeypatch, capsys):
    # a fake run per mutant: no copy is made and no suite runs
    outcomes = {"map_tol": ("killed", "tests/test_spectrum.py::test_x", 2.0),
                "order_band": ("survived", "", 30.0)}

    refused = "w_parity: its old text occurs 0 times in src/viscoshear/rayleigh.py"

    def run(mutant):
        if mutant.name == "w_parity":
            raise mutate.Refused(refused)
        return outcomes[mutant.name]

    monkeypatch.setattr(mutate, "run", run)
    assert mutate.main(["map_tol"]) == 0
    assert mutate.main(["map_tol", "order_band", "w_parity"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].startswith("map_tol: killed in 2.0 s, by tests/test_spectrum.py::test_x (")
    assert lines[2].startswith("order_band: survived in 30.0 s (src/viscoshear/spectrum.py; ")
    assert lines[3] == f"refused: {refused}"
