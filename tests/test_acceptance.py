"""The acceptance gate: one test per criterion, at the stated tolerances.

Each test prints its criterion's pass/fail line and asserts every check.
Criterion 9's threshold-amplitude sub-checks are expected to fail at desk
scale (see the ``_lowest_two`` FOUND entry in CHANGES.md and ROADMAP item
4): the eigenvalue at the threshold amplitude is quadratically small in M,
so the diffusion-induced shift sits below the spectral resolution and the
stated band is out of reach; the test states the criterion faithfully and
reports the measured values.
"""

from viscoshear import acceptance as acc


def _run(ctx, criterion, number):
    results = criterion(ctx)
    ok = all(r.passed for r in results)
    print(f"criterion {number:2d} [{'PASS' if ok else 'FAIL'}]")
    for r in results:
        mark = "pass" if r.passed else "FAIL"
        print(f"    [{mark}] {r.name}: measured={r.measured} band={r.band} {r.note}")
    failed = [r.name for r in results if not r.passed]
    assert not failed, f"criterion {number} failed checks: {failed}"


def test_criterion_01_closed_form_fidelity(ctx):
    _run(ctx, acc.criterion_1, 1)


def test_criterion_02_couette_oracle(ctx):
    _run(ctx, acc.criterion_2, 2)


def test_criterion_03_h1_identity(ctx):
    _run(ctx, acc.criterion_3, 3)


def test_criterion_04_spectral_structure(ctx):
    _run(ctx, acc.criterion_4, 4)


def test_criterion_05_transition(ctx):
    _run(ctx, acc.criterion_5, 5)


def test_criterion_06_unstable_eigenvalue(ctx):
    _run(ctx, acc.criterion_6, 6)


def test_criterion_07_implicit_curve(ctx):
    _run(ctx, acc.criterion_7, 7)


def test_criterion_08_cross_solver_consistency(ctx):
    _run(ctx, acc.criterion_8, 8)


def test_criterion_09_whole_line_scenario(ctx):
    _run(ctx, acc.criterion_9, 9)


def test_criterion_10_bound_suites(ctx):
    _run(ctx, acc.criterion_10, 10)


def test_criterion_10_makes_one_pass_per_state(ctx, monkeypatch):
    # phi1 and phi2 share one sampled pass, so two states take two passes
    from viscoshear import rayleigh as ray

    ctx.torus  # the root the suites are built at, computed outside the count
    calls = []
    real = ray.integrate

    def spy(*args, **kwargs):
        calls.append(kwargs["samples"])
        return real(*args, **kwargs)

    monkeypatch.setattr(ray, "integrate", spy)
    acc.criterion_10(ctx)
    assert len(calls) == len(ctx.suite_states) == 2 and all(s for s in calls)


def test_criterion_11_determinism(ctx):
    _run(ctx, acc.criterion_11, 11)


def test_criterion_11_without_pythonpath(ctx, monkeypatch):
    # the CLI child process must find the package by itself
    monkeypatch.delenv("PYTHONPATH", raising=False)
    _run(ctx, acc.criterion_11, 11)
