"""The neutral-limit law that seeds ``eigencurve``'s windows, and the oracles
for the scan the windows replace: the law against the shooting, the dense
vorticity operator's count of unstable modes, and the fallback to the full
scan where a window misses."""

import dataclasses
import functools
import math

import numpy as np
import pytest

import oracles
from viscoshear import rayleigh as ray
from viscoshear.calibrate import tune_M_for_kstar
from viscoshear.config import Config
from viscoshear.errors import NonConvergence
from viscoshear.flow import FlowState, eval_b_derivs
from viscoshear.spectrum import lowest_eigenpair


@functools.lru_cache(maxsize=None)
def tuned(gamma1: float, gamma2: float):
    """The config's parameters at the amplitude tuned for k*(0) = 1 - delta."""
    cfg = Config(gamma1=gamma1, gamma2=gamma2)
    params = cfg.params()
    return params.with_M(tune_M_for_kstar(params, 0.0, 1.0 - cfg.delta).M)


def law(state: FlowState):
    """k* and A of the law c_i = (k*^2 - k^2) A, with A = ||phi0||^2 b'(0)^2 /
    (pi |b'''(0)| phi0(0)^2) read off the eigensolver's neutral mode."""
    res = lowest_eigenpair(state, want_mode=True)
    _, b1, _, b3 = eval_b_derivs(state, 0.0)
    phi0 = res.mode[len(res.mode) // 2]
    norm2 = np.sum(res.mode ** 2 * res.weights)
    return res.kstar, norm2 * b1 ** 2 / (math.pi * abs(b3) * phi0 ** 2)


# The remainder's c_i^2 coefficient depends on the state: (c_i - law) / c_i^2
# reads 3.5 and -12.2 on the fixture at T and T/2, but -2.7 and -30.3 on
# gamma1 = 0.01, gamma2 = 0.5, where at T the small c_i^2 term leaves the c_i^3
# term to tilt the fitted order to 1.87 over these d.
@pytest.mark.parametrize("gammas, t_over_T, coefficient, order_tol", [
    ((0.03, 0.8), 1.0, 20.0, 0.1),
    ((0.03, 0.8), 0.5, 20.0, 0.1),
    ((0.01, 0.5), 1.0, 40.0, 0.15),
    ((0.01, 0.5), 0.5, 40.0, 0.15),
])
def test_law_is_the_first_order_of_the_shooting(gammas, t_over_T, coefficient, order_tol):
    params = tuned(*gammas)
    state = FlowState(params, t_over_T * params.horizon)
    kstar, a = law(state)
    ks = kstar - np.array([5e-4, 1e-3, 1.5e-3, 2e-3])
    roots, _, _ = ray.eigenvalues_for_ks(state, ks)  # the full scan: no law inside
    ci = np.array([root[0] for root in roots])
    err = np.abs(ci - (kstar ** 2 - ks ** 2) * a)
    assert np.all(err <= coefficient * ci ** 2)
    assert abs(np.polyfit(np.log(ci), np.log(err), 1)[0] - 2.0) <= order_tol


def test_law_slope_is_the_torus_slope_at_k1(ctx):
    # dc_i/dk at k* is -2 k* A; the torus differences the shooting at k = 1,
    # 0.005 below k*(T), which the curvature of c_i(k) moves by 8.5e-4
    kstar, a = law(ctx.state_T)
    slope = ctx.torus.slope_at_k1
    assert abs(-2.0 * kstar * a - slope) <= 2e-3 * abs(slope)


def test_dense_vorticity_operator_counts_one_unstable_mode_below_kstar(ctx):
    # -k^2 lies above exactly one eigenvalue for 0 < k < k*(T) = 1.0052 and
    # above none at k = 1.5 and 2 at T, or at k = 1 at t = 0 (k*(0) = 0.99);
    # the fixture's grids, 0.95:1:2 and auto, are inside (0, k*(T))
    ci_095 = ray.eigencurve(ctx.state_T, [0.95], ctx.torus.eig_T).points[0][1]
    grid = [0.95, 1.0, *ctx.cfg.k_grid_values(ctx.torus.kstarT)]
    cases = [(ctx.state_T, k, 1) for k in grid]
    for state, k, pairs in cases + [(ctx.state_T, 1.5, 0), (ctx.state_T, 2.0, 0),
                                    (ctx.state_0, 1.0, 0)]:
        # near k*(T) the rung's own discrete k* decides the count: 513 nodes
        # put it between 1 and 1.0012, the auto grid's last k; 1025 above it
        c = oracles.vorticity_spectrum(state, k, level=2 if 1.0 < k < 1.5 else 1)
        unstable = np.sort(c[np.abs(c.imag) > 1e-12].imag)
        assert len(unstable) == 2 * pairs, (state.t, k)
        if pairs:
            assert unstable[0] == -unstable[1]
        if k == 0.95:  # 513 nodes resolve the root to 8e-5
            assert abs(unstable[1] - ci_095) <= 1e-3 * ci_095


def _spied_scans(monkeypatch) -> list:
    """The wave numbers of every full scan from now on, one list per scan."""
    scans, real = [], ray.scan_wronskian

    def spy(state, k):
        scans.append(np.atleast_1d(k).tolist())
        return real(state, k)

    monkeypatch.setattr(ray, "scan_wronskian", spy)
    return scans


def test_eigencurve_seeds_the_fixture_grids_without_a_full_scan(ctx, monkeypatch):
    state, auto = ctx.state_T, ctx.cfg.k_grid_values(ctx.torus.kstarT)  # the torus scans first
    scans = _spied_scans(monkeypatch)
    ray.eigencurve(state, [0.95, 1.0], ctx.torus.eig_T)
    ray.eigencurve(state, auto, ctx.torus.eig_T)
    assert scans == []


def test_a_missed_window_falls_back_to_the_full_scan(ctx, monkeypatch):
    # at k = 0.5 the law is off by more than the window's six nodes
    state = ctx.state_T
    scans = _spied_scans(monkeypatch)
    curve = ray.eigencurve(state, [0.5, 0.95, 1.0], ctx.torus.eig_T)
    assert scans == [[0.5]]
    monkeypatch.undo()
    alone = ray.eigenvalue_for_k(state, 0.5)
    assert abs(curve.points[0][1] - alone[0]) <= 1e-9 * alone[0]


def test_a_wave_number_past_kstar_gets_the_full_scan_and_its_message(ctx, monkeypatch):
    state, passes, many = ctx.state_T, [], ray.wronskian_many
    scans = _spied_scans(monkeypatch)
    monkeypatch.setattr(ray, "wronskian_many", lambda st, ks, cs: passes.append(set(ks))
                        or many(st, ks, cs))
    with pytest.raises(NonConvergence, match=r"no root at k=1\.1; grid extends past k\*"):
        ray.eigencurve(state, [0.95, 1.1], ctx.torus.eig_T)
    assert scans == [[1.1]] and passes[0] == {0.95}  # k > k* gets no window


@pytest.mark.parametrize("change", [
    # ||phi0||^2, and so the law, times 10: every window misses
    lambda res: dataclasses.replace(res, weights=10.0 * res.weights),
    # a second bound state below -k^2 on the whole grid: no row is seeded
    lambda res: dataclasses.replace(res, lambda2=-2.0),
], ids=["tenfold_law", "second_bound_state"])
def test_a_bad_seed_falls_back_to_the_scanned_value(ctx, monkeypatch, change):
    ks, state = [0.95, 1.0], ctx.state_T
    want, _, _ = ray.eigenvalues_for_ks(state, ks)
    scans = _spied_scans(monkeypatch)
    curve = ray.eigencurve(state, ks, change(ctx.torus.eig_T))
    assert scans == [ks]
    assert [c for _, c, _ in curve.points] == [c for c, _ in want]


def test_no_row_is_seeded_without_a_converged_bound_state(ctx, couette_state, monkeypatch):
    # Couette has no bound state, so its eigensolve holds no mode; a caller
    # whose eigensolve failed passes None, and every row gets the full scan,
    # as eigenvalues_for_ks gives it
    state, ks = ctx.state_T, [0.95, 1.0]
    scans = _spied_scans(monkeypatch)
    with pytest.raises(NonConvergence, match="grid extends past k"):
        ray.eigencurve(couette_state, [1.0], lowest_eigenpair(couette_state))
    assert scans == [[1.0]]
    curve = ray.eigencurve(state, ks, None)
    assert scans[1:] == [ks]
    monkeypatch.undo()
    want, _, _ = ray.eigenvalues_for_ks(state, ks)
    assert [c for _, c, _ in curve.points] == [c for c, _ in want]
