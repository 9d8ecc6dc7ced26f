"""The shared Chandrupatla iteration: many brackets, complex f, ends, limits."""

import numpy as np
import pytest

from viscoshear._roots import chandrupatla
from viscoshear.errors import NonConvergence


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


def test_complex_f_brackets_on_real_part_and_stops_on_modulus():
    root, tol = 0.4, 1e-10

    def f(x, idx):
        return (x - root) * (1.0 + 1.0j)  # |f| = sqrt(2) |Re f|

    ends = np.array([0.0]), np.array([1.0])
    x, fx, lo, hi = chandrupatla(f, *ends, f(ends[0], None), f(ends[1], None), tol, 80, "test")
    assert np.iscomplexobj(fx)
    assert abs(fx[0]) <= tol
    assert lo[0] <= x[0] <= hi[0]


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
