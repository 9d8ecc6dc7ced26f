"""The root iterations: the package's Chandrupatla over many brackets
(ends, limits), and ``spectrum.brentq``, scipy's compiled Brent over one,
checked iterate for iterate against ``scipy.optimize.brentq``."""

import math

import numpy as np
import pytest
import scipy.optimize

from viscoshear import spectrum
from viscoshear._roots import chandrupatla
from viscoshear.errors import BracketFailure, NonConvergence
from viscoshear.flow import FlowParams, FlowState, eval_potential
from viscoshear.spectrum import brentq


def _cubic(roots):
    """f(x, idx) = (x - r)^3 + (x - r) per bracket, recording each call's brackets."""
    calls = []

    def f(x, idx):
        calls.append(idx.tolist())
        d = x - roots[idx]
        return d ** 3 + d

    return f, calls


def test_brackets_converge_together_to_their_own_tolerances():
    roots = np.array([0.3, 1.7, -2.2])
    tol = np.array([1e-12, 1e-6, 1e-9])
    lo, hi = np.array([-1.0, 1.0, -4.0]), np.array([2.0, 5.0, 0.0])
    f, calls = _cubic(roots)
    x, fx, b_lo, b_hi = chandrupatla(f, lo, hi, f(lo, np.arange(3)), f(hi, np.arange(3)),
                                     tol, 80, "test")
    iterations = calls[2:]
    assert len(iterations) <= 12  # superlinear: bisection would take about 40
    assert 1 not in iterations[-1]  # the loosest tolerance stops first
    assert np.all(np.abs(fx) <= tol)
    assert np.array_equal(fx, f(x, np.arange(3)))  # f as evaluated at the returned x
    assert np.all((b_lo <= x) & (x <= b_hi))
    assert np.all(f(b_lo, np.arange(3)) * f(b_hi, np.arange(3)) <= 0.0)  # still straddles


def test_end_within_tolerance_is_taken_without_an_evaluation():
    roots = np.array([0.5, 1.0 + 1e-13])
    f, calls = _cubic(roots)
    lo, hi = np.array([0.0, 1.0]), np.array([1.0, 2.0])
    f_lo, f_hi = f(lo, np.arange(2)), f(hi, np.arange(2))
    calls.clear()
    x, fx, b_lo, b_hi = chandrupatla(f, lo, hi, f_lo, f_hi, 1e-10, 80, "test")
    assert x[1] == 1.0 and fx[1] == f_lo[1]  # the lower end of bracket 1 meets tol
    assert (b_lo[1], b_hi[1]) == (1.0, 2.0)
    assert calls and all(idx == [0] for idx in calls)  # bracket 1 is never evaluated
    x, _, _, _ = chandrupatla(f, lo[1:], hi[1:], f_lo[1:], f_hi[1:], 1e-10, 0, "test")
    assert x[0] == 1.0  # no iteration is needed, so none is allowed


def test_gives_up_after_max_iter_with_the_callers_label():
    f, calls = _cubic(np.array([0.3]))
    lo, hi = np.array([-1.0]), np.array([2.0])
    with pytest.raises(NonConvergence, match="my search: 1 of 1 brackets"):
        chandrupatla(f, lo, hi, f(lo, np.arange(1)), f(hi, np.arange(1)), 1e-12, 2,
                     "my search")
    assert len(calls) == 2 + 2  # the two ends, then max_iter iterations


# every abscissa of the three-bracket cubic above, one list per iteration, as
# the midpoint-first iteration evaluated them before ``first`` existed
MIDPOINT_TRACE = [
    [0.5, 3.0, -2.0],
    [0.42806826132802944, 2.0, -2.04555226362697],
    [-0.28596586933598533, 1.7924503034625454, -3.022776131813485],
    [0.07105119599602205, 1.7139026221113105, -2.5341641977202274],
    [0.2923018739023344, 1.7004943315550478, -2.2081724980495374],
    [0.29978536174543485, 1.7000022354200537, -2.200377110430287],
    [0.29999979456751497, 1.7000000003488027, -2.20000045581233],
    [0.2999999999945333, -2.20000000002533],
    [0.3],
]


def test_default_first_point_keeps_the_midpoint_iterates_bit_for_bit():
    roots, idx = np.array([0.3, 1.7, -2.2]), np.arange(3)
    lo, hi = np.array([-1.0, 1.0, -4.0]), np.array([2.0, 5.0, 0.0])
    tol = np.array([1e-12, 1e-6, 1e-9])
    for first in ({}, {"first": 0.5}, {"first": np.full(3, 0.5)}):
        f, _ = _cubic(roots)
        f_lo, f_hi = f(lo, idx), f(hi, idx)
        xs = []
        x, _, _, _ = chandrupatla(lambda x, i: xs.append(x.tolist()) or f(x, i), lo, hi, f_lo,
                                  f_hi, tol, 80, "test", **first)
        assert xs == MIDPOINT_TRACE
        assert x.tolist() == [0.3, 1.7000000003488027, -2.20000000002533]


def test_a_first_point_at_the_root_finishes_after_one_evaluation():
    roots = np.array([0.375, -1.25])
    f, calls = _cubic(roots)
    lo, hi = np.array([0.0, -2.0]), np.array([1.0, 2.0])
    f_lo, f_hi = f(lo, np.arange(2)), f(hi, np.arange(2))
    calls.clear()
    x, fx, _, _ = chandrupatla(f, lo, hi, f_lo, f_hi, 1e-12, 80, "test",
                               np.array([0.375, 0.1875]))
    assert calls == [[0, 1]]
    assert x.tolist() == [0.375, -1.25] and fx.tolist() == [0.0, 0.0]


@pytest.mark.parametrize("first", [0.0, 1.0, -3.0, 7.0, -np.inf])
def test_a_first_fraction_at_or_beyond_an_end_is_clipped_into_the_bracket(first):
    roots = np.array([0.3, 1.7])
    xs = []
    f, _ = _cubic(roots)
    lo, hi = np.array([-1.0, 5.0]), np.array([2.0, 1.0])  # the second runs downward
    f_lo, f_hi = f(lo, np.arange(2)), f(hi, np.arange(2))
    _, fx, _, _ = chandrupatla(lambda x, i: xs.append(x.copy()) or f(x, i), lo, hi, f_lo, f_hi,
                               1e-12, 80, "test", first)
    assert np.all((np.minimum(lo, hi) < xs[0]) & (xs[0] < np.maximum(lo, hi)))
    assert np.all(np.abs(fx) <= 1e-12)


def _recorded(solver, f, a, b, **tols):
    """``solver(f, a, b, **tols)`` and every abscissa it evaluated f at; a
    failure is returned as its exception type."""
    xs = []

    def g(x):
        xs.append(x)
        return f(x)

    try:
        root = solver(g, a, b, **tols)
    except Exception as exc:  # compared, not hidden: each failure is matched below
        root = type(exc)
    return root, xs


def _family(rng):
    """One seeded test function, bracket and tolerances: smooth, noisy or step-like."""
    r0, s = rng.uniform(-2.0, 2.0), rng.uniform(0.1, 5.0)
    p, noise = int(rng.integers(1, 6)), 10.0 ** rng.uniform(-16.0, -6.0)
    f = rng.choice([
        lambda x: s * (x - r0) ** p + (x - r0),
        lambda x: math.tanh(s * (x - r0)) + noise * math.sin(1e7 * x),
        lambda x: -1.0 if x < r0 else (0.5 if x > r0 else 0.0),
        lambda x: math.exp(s * (x - r0)) - 1.0,
        lambda x: s * math.atan(x - r0) - 1e-3 * (x - r0) ** 3,
    ])
    a, b = r0 - rng.uniform(0.01, 3.0), r0 + rng.uniform(0.01, 3.0)
    if rng.random() < 0.5:
        a, b = b, a
    tols = dict(xtol=10.0 ** rng.uniform(-14.0, -2.0),
                rtol=8.9e-16 * 10.0 ** rng.uniform(0.0, 6.0), maxiter=int(rng.integers(1, 100)))
    return f, a, b, tols


def test_brentq_matches_scipy_iterate_for_iterate_on_a_seeded_family():
    rng = np.random.default_rng(18)
    as_ours = {RuntimeError: NonConvergence, ValueError: BracketFailure}  # scipy's failures
    outcomes = set()
    for _ in range(600):
        f, a, b, tols = _family(rng)
        theirs, their_xs = _recorded(scipy.optimize.brentq, f, a, b, **tols)
        ours, our_xs = _recorded(brentq, f, a, b, **tols)
        assert our_xs == their_xs
        assert ours == as_ours.get(theirs, theirs)
        outcomes.add(ours if ours in as_ours.values() else float)
    assert outcomes == {float, NonConvergence, BracketFailure}  # every path is compared


def test_brentq_matches_scipy_on_the_weak_closure_at_the_line_threshold(monkeypatch):
    # the whole-line threshold state (line report.json's M0) on uniform rung 0
    # (8193 points): the uniform ladder's closure, run once with each solver
    ys = np.linspace(-spectrum.HALF_WIDTH, spectrum.HALF_WIDTH, spectrum.UNIFORM_ROWS)
    state = FlowState(FlowParams(4.127983142029252e-05, 0.15, 0.03, 0.8, 1e-3), 0.0)
    v = np.asarray(eval_potential(state, ys), dtype=float)
    runs = []
    for solver in (scipy.optimize.brentq, brentq):
        xs = []

        def recording(f, a, b, solver=solver, xs=xs, **tols):
            return solver(lambda x: xs.append(x) or f(x), a, b, **tols)

        monkeypatch.setattr(spectrum, "brentq", recording)
        runs.append((spectrum._selfconsistent_box(v, ys[1] - ys[0]), xs))
    (theirs, their_xs), (ours, our_xs) = runs
    assert len(our_xs) > 5 and our_xs == their_xs
    assert ours == theirs


def test_brentq_returns_a_zero_end_without_iterating():
    calls = []
    for a, b in ((1.0, 3.0), (3.0, 1.0)):
        assert brentq(lambda x: calls.append(x) or x - 1.0, a, b, 1e-12, 8.9e-16, 0) == 1.0
    assert calls == [1.0, 3.0, 3.0, 1.0]  # both ends, then the zero is returned


def test_brentq_rejects_ends_of_the_same_sign():
    with pytest.raises(BracketFailure, match="different signs"):
        brentq(lambda x: x * x + 1.0, -1.0, 2.0, 1e-12, 8.9e-16, 100)
    with pytest.raises(BracketFailure):  # by sign bit: the product 1e-400 would underflow
        brentq(lambda x: 1e-200, 0.0, 1.0, 1e-12, 8.9e-16, 100)


def test_brentq_stops_after_maxiter_evaluations():
    calls = []
    with pytest.raises(NonConvergence, match="after 3 iterations"):
        brentq(lambda x: calls.append(x) or math.exp(x) - 2.0, 0.0, 5.0, 1e-14, 8.9e-16, 3)
    assert len(calls) == 2 + 3  # the two ends, then one point per iteration
    assert brentq(lambda x: math.exp(x) - 2.0, 0.0, 5.0, 1e-14, 8.9e-16, 100) == pytest.approx(
        math.log(2.0), abs=1e-14)


def test_brentq_rejects_nan():
    with pytest.raises(NonConvergence, match=r"f\(0\.0\) is NaN"):
        brentq(lambda x: math.nan, 0.0, 1.0, 1e-12, 8.9e-16, 100)
    with pytest.raises(NonConvergence, match=r"f\(0\.5\) is NaN"):  # met inside the bracket
        brentq(lambda x: math.nan if 0.0 < x < 1.0 else x - 0.5, 0.0, 1.0, 1e-12, 8.9e-16, 100)


@pytest.mark.parametrize("error", [ValueError, RuntimeError, KeyError])
def test_brentq_passes_on_what_f_raises(error):
    # scipy's iteration reports its own failures as ValueError and
    # RuntimeError; the same types raised by f are not mistaken for them
    def f(x):
        if 0.0 < x < 1.0:
            raise error("raised by f")
        return x - 0.5

    with pytest.raises(error, match="raised by f") as err:
        brentq(f, 0.0, 1.0, 1e-12, 8.9e-16, 100)
    assert type(err.value) is error
