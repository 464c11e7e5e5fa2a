import copy
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vibrosync as vs
from vibrosync import kuramoto_dynamics, linalg
from vibrosync.linalg import (HorizonTooShort, NotHurwitz, SinusoidSum, StepTooCoarse,
                             TooManySteps)

from test_acceptance import _random_design_case


def test_is_hurwitz():
    assert vs.is_hurwitz(-np.eye(3))
    assert not vs.is_hurwitz(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert not vs.is_hurwitz(np.array([[1.0]]))


def test_solve_lyapunov_residual_and_symmetry():
    rng = np.random.default_rng(5)
    for _ in range(20):
        n = int(rng.integers(2, 6))
        a = rng.normal(size=(n, n)) - 3.0 * np.eye(n)
        if not vs.is_hurwitz(a):
            continue
        x = vs.solve_lyapunov(a)
        assert np.abs(a.T @ x + x @ a + np.eye(n)).max() < 1e-9
        assert np.abs(x - x.T).max() < 1e-10
        assert np.linalg.eigvalsh(x).min() > 0


def test_solve_lyapunov_rejects_unstable():
    with pytest.raises(NotHurwitz):
        vs.solve_lyapunov(np.array([[1.0]]))


def test_robustness_scaling_and_scalar_value():
    a = np.array([[-2.0, 0.5], [0.0, -1.0]])
    r1 = vs.robustness(a)
    r2 = vs.robustness(2.0 * a)
    assert r2 == pytest.approx(2.0 * r1, rel=1e-12)
    # for -mu I the value is exactly 2 mu
    assert vs.robustness(-1.5 * np.eye(3)) == pytest.approx(3.0, rel=1e-12)


def test_is_m_matrix_basics():
    assert vs.is_m_matrix(np.array([[1.0, -0.5], [-0.5, 1.0]]))
    assert not vs.is_m_matrix(np.array([[1.0, 0.5], [-0.5, 1.0]]))  # positive off-diag
    assert not vs.is_m_matrix(np.array([[-1.0, 0.0], [0.0, 1.0]]))  # bad minor
    assert not vs.is_m_matrix(np.array([[1.0, -2.0], [-2.0, 1.0]]))  # det < 0


def slot_vibration(u=1.0, beta=1.0):
    """P(t) = u sin(beta t) on the slot (1, 0) of a 2 x 2 matrix."""
    return SinusoidSum([u], [beta], [0.0], [[[0.0, 0.0], [1.0, 0.0]]])


def test_state_transition_closed_form_and_cocycle():
    u, beta = 0.8, 2.0
    p = slot_vibration(u, beta)
    period = 2 * math.pi / beta
    phi = vs.state_transition(p, 0.0, 1.3, dt=period / 2000)
    assert phi[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert phi[1, 0] == pytest.approx(u / beta * (1 - math.cos(beta * 1.3)), abs=1e-9)

    a = vs.state_transition(p, 0.0, 0.7, dt=period / 2000)
    b = vs.state_transition(p, 0.7, 1.3, dt=period / 2000)
    assert np.abs(b @ a - phi).max() < 1e-7


def test_state_transition_determinant_matches_trace_integral():
    # P(t) = cos(t) [[1, 1], [0, 0]] + 0.5 sin(3 t + 0.4) [[0, 0], [0.3, -1]]:
    # by Liouville's formula det Phi is exp of the integral of the trace
    # cos(t) - 0.5 sin(3 t + 0.4)
    p = SinusoidSum([1.0, 0.5], [1.0, 3.0], [math.pi / 2, 0.4],
                    [[[1.0, 1.0], [0.0, 0.0]], [[0.0, 0.0], [0.3, -1.0]]])
    phi = vs.state_transition(p, 0.0, 2.0, dt=1e-3)
    expected = math.exp(math.sin(2.0) - 0.5 * (math.cos(0.4) - math.cos(6.4)) / 3.0)
    assert np.linalg.det(phi) == pytest.approx(expected, rel=1e-7)


def test_state_transition_step_too_coarse():
    p = SinusoidSum([1.0], [50.0], [0.0], [[[0.0, 1.0], [0.0, 0.0]]])
    with pytest.raises(StepTooCoarse):
        vs.state_transition(p, 0.0, 1.0, dt=0.1)


def test_averaged_jacobians_copy_unvibrated_blocks(flip_lin, flip_design):
    # the flagship's designed schedule vibrates one of its two clusters
    vibrated = [p is not None
                for p in vs.cluster_vibration_matrices(flip_lin.inc, flip_design.schedule)]
    assert sorted(vibrated) == [False, True]
    for schedule, unvibrated in ((None, [True, True]),
                                 (flip_design.schedule, np.logical_not(vibrated))):
        blocks, _ = vs.averaged_jacobians(flip_lin, schedule)
        for blk, jac, copy in zip(blocks, flip_lin.J_blocks, unvibrated, strict=True):
            if copy:
                assert np.array_equal(blk, jac) and blk is not jac
            else:
                assert not np.array_equal(blk, jac)


def test_conjugated_average_matches_exact_shift():
    # one line u sin(beta t) on slot (1,0): averaged (1,0) entry moves by
    # -a01 u^2/(2 beta^2); all other entries stay put
    a = np.array([[-1.0, 1.0], [-1.0, -1.0]])
    u, beta = 1.0, 1.0
    avg = vs.conjugated_average(a, slot_vibration(u, beta))
    expected = a + np.array([[0.0, 0.0], [-u ** 2 / (2 * beta ** 2), 0.0]])
    # exact closed form carries weight a01 = 1
    assert avg == pytest.approx(expected, abs=2e-3)


def test_conjugated_average_horizon_guard():
    a = np.array([[-1.0, 1.0], [-1.0, -1.0]])
    # a horizon cut mid-period leaves an O(1/T) bias that doubling exposes
    with pytest.raises(HorizonTooShort):
        vs.conjugated_average(a, slot_vibration(), T=0.718 * 2 * math.pi, rel_tol=1e-6)


def test_conjugated_average_window_without_weight():
    # one step per horizon: the [0, T] window sees only its zero-weight end
    # point, so no estimate exists to check the average against
    for T in (0.05, 0.07):  # the weightless window is not cached as weights
        with pytest.raises(HorizonTooShort, match=f"horizon {T:g} leaves an averaging "
                                                  "window without weight"):
            vs.conjugated_average(np.eye(2), slot_vibration(), T=T, dt=T)


def test_window_weights_are_cached_per_step_count_and_read_only():
    w = linalg._window_weights(10)
    assert linalg._window_weights(10) is w
    idx = np.arange(1, 21, dtype=float)
    want = np.stack([linalg._bump(idx / 10), linalg._bump(idx / 20)])
    want /= want.sum(axis=1, keepdims=True)
    assert np.array_equal(w, want.T) and w.flags.c_contiguous
    with pytest.raises(ValueError, match="read-only"):
        w[0, 0] = 1.0


def test_derived_horizon_doubles_before_giving_up(monkeypatch):
    tried = []

    def always_short(j, p, T, *args):
        tried.append(T)
        raise HorizonTooShort(f"horizon {T:g}")

    monkeypatch.setattr(linalg, "_windowed_average", always_short)
    p = slot_vibration(beta=math.pi / 4)  # a base period of exactly 8
    with pytest.raises(HorizonTooShort, match="horizon 1280"):
        vs.conjugated_average(np.eye(2), p)
    assert tried == [160.0, 320.0, 640.0, 1280.0]
    tried.clear()
    with pytest.raises(HorizonTooShort):  # an explicit horizon is not doubled
        vs.conjugated_average(np.eye(2), p, T=200.0)
    assert tried == [200.0]


def test_conjugated_average_matches_exact_engine():
    # seeded designs of sizes 2-6 with 1-3 slots, chained and chain-free in
    # turn, averaged as the designer verifies them; the weighted mean over
    # 40 base periods lands on the exact symbolic average.  A chained design
    # whose carriers combine to a near-resonant slow frequency (case 29) fails
    # the doubling check at 20 base periods and passes once the derived
    # horizon has been doubled twice
    rng = np.random.default_rng(0)
    checked = 0
    for case in range(50):
        n = 2 + case % 5
        a, spec = _random_design_case(rng, n, int(rng.integers(1, 4)),
                                      chain_free=case % 2 == 0)
        design = vs.design_linear(a, spec, verify=False)
        if not design.slots:
            continue
        freqs = [s.frequency for s in design.slots]
        numeric = vs.conjugated_average(
            a, design.vibration_matrix(),
            dt=2.0 * math.pi / max(freqs) / linalg.default_oversampling)
        checked += 1
        scale = max(np.abs(design.predicted).max(), 1e-9)
        rel = np.abs(numeric - design.predicted).max() / scale
        assert rel <= 2e-5, f"case {case}: numeric/exact disagree by {rel:.3e}"
    assert checked == 50


def test_averaged_jacobians_flagship_match_exact_engine(flip_lin, flip_design):
    avg, _ = vs.averaged_jacobians(flip_lin, flip_design.schedule)
    exact = flip_design.designs[0].predicted
    assert_rel_close(avg[0], exact, rel=1e-6)


@pytest.mark.parametrize("call", [
    lambda: vs.conjugated_average(np.eye(2), slot_vibration(), T=float("nan"), dt=0.01),
    # a frequency whose base period overflows
    lambda: vs.conjugated_average(np.eye(2), slot_vibration(beta=1e-320), dt=0.01),
    lambda: vs.state_transition(slot_vibration(), 0.0, float("inf"), dt=0.01),
    lambda: vs.state_transition(slot_vibration(), float("nan"), 1.0, dt=0.01),
], ids=["average-T", "average-base_period", "transition-t1", "transition-t0"])
def test_nonfinite_span_is_rejected(call):
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="t_span must be finite"):
        call()


@pytest.mark.parametrize("name, kwargs", [
    ("dt", {"dt": float("nan")}),
    ("dt", {"dt": float("inf")}),
    ("min_period", {"p": slot_vibration(beta=1e-320)}),  # its period overflows
])
def test_bad_step_is_rejected(name, kwargs):
    kwargs = {"p": slot_vibration(), **kwargs}
    with np.errstate(over="ignore"):
        with pytest.raises(ValueError, match=f"{name} must be"):
            vs.conjugated_average(np.eye(2), T=10.0, **kwargs)
        with pytest.raises(ValueError, match=f"{name} must be"):
            vs.state_transition(t0=0.0, t1=1.0, **kwargs)


def test_step_count_covers_the_span_within_what_a_run_may_take():
    count = linalg._step_count
    assert count(0.0, 0.1) == 0
    assert count(1e-9, 0.1) == 1
    assert count(1.0, 0.25) == 4 and count(1.0, 0.3) == 4
    assert count(1.0, 1.0 / 3.0) == 3  # a ratio of 3.0000000000000004
    assert count(float(linalg.max_steps), 1.0) == linalg.max_steps == 2 ** 60
    for span, dt, steps in ((2.0 ** 61, 1.0, "2.31e+18"), (4.0, 2.6e-21, "1.54e+21"),
                            (1e300, 1e-300, "inf")):
        with pytest.raises(TooManySteps, match=rf"needs {re.escape(steps)} RK4 steps, "
                                               rf"more than the {2 ** 60} a run may take$"):
            count(span, dt)


@pytest.mark.parametrize("call", [
    lambda: vs.state_transition(slot_vibration(), 0.0, 1e300),
    lambda: vs.conjugated_average(np.eye(2), slot_vibration(), T=1e300),
], ids=["transition", "average"])
def test_flow_of_more_steps_than_a_run_may_take_is_rejected(call, monkeypatch):
    def no_kernel():
        raise AssertionError("the kernel was loaded")

    monkeypatch.setattr(linalg._phase_kernel, "load", no_kernel)
    with pytest.raises(TooManySteps, match="RK4 steps, more than"):
        call()


def test_flow_of_another_size_than_p_is_rejected(monkeypatch):
    def no_kernel():
        raise AssertionError("the kernel was loaded")

    monkeypatch.setattr(linalg._phase_kernel, "load", no_kernel)
    for j in (np.eye(3), np.eye(1)):
        size = f"{len(j)} x {len(j)}"
        with pytest.raises(ValueError, match=f"^P is 2 x 2, but Psi and J are {size}$"):
            vs.conjugated_average(j, slot_vibration(), T=10.0)


# ---------------------------------------------------------------------------
# parity of the compiled linear-flow engine with the per-step RK4 loop it
# replaced (kept verbatim below as the reference)


def reference_state_transition(p, t0, t1, dt):
    n = np.asarray(p(t0)).shape[0]
    phi = np.eye(n)
    steps = max(1, int(np.ceil((t1 - t0) / dt - 1e-12)))
    h = (t1 - t0) / steps
    t = t0
    for _ in range(steps):
        k1 = p(t) @ phi
        k2 = p(t + 0.5 * h) @ (phi + 0.5 * h * k1)
        k3 = p(t + 0.5 * h) @ (phi + 0.5 * h * k2)
        k4 = p(t + h) @ (phi + h * k3)
        phi = phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
    return phi


def reference_conjugated_average(j, p, T, dt):
    n = j.shape[0]
    psi = np.eye(n)
    steps = max(1, int(np.ceil(T / dt - 1e-12)))
    h = T / steps

    def bump(s):
        return math.exp(-1.0 / (s * (1.0 - s))) if 0.0 < s < 1.0 else 0.0

    def average_until(total_steps, psi0, t_start, acc_w, acc_psi, acc_m, done):
        psi_c = psi0
        t = t_start
        for i in range(done + 1, total_steps + 1):
            k1 = p(t) @ psi_c
            k2 = p(t + 0.5 * h) @ (psi_c + 0.5 * h * k1)
            k3 = p(t + 0.5 * h) @ (psi_c + 0.5 * h * k2)
            k4 = p(t + h) @ (psi_c + h * k3)
            psi_next = psi_c + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            m_n = np.linalg.solve(psi_next, j @ psi_next)
            # grid point i (time i h) of the window [0, 2T]
            w = bump(i / (2 * steps))
            acc_w += w
            acc_psi += w * psi_next
            acc_m += w * m_n
            psi_c = psi_next
            t += h
        return psi_c, t, acc_w, acc_psi, acc_m

    acc_w = 0.0
    acc_psi = np.zeros((n, n))
    acc_m = np.zeros((n, n))
    psi, t, acc_w, acc_psi, acc_m = average_until(steps, psi, 0.0, acc_w, acc_psi, acc_m, 0)
    psi, t, acc_w, acc_psi, acc_m = average_until(2 * steps, psi, t, acc_w, acc_psi, acc_m,
                                                  steps)
    mean_psi = acc_psi / acc_w
    mean_m = acc_m / acc_w
    return mean_psi @ mean_m @ np.linalg.inv(mean_psi)


def reference_growth(p, d, t_max, dt):
    """The largest Frobenius norms of Psi and of the inverse flow
    dY/dt = -Y P(t), Y(0) = I, after each RK4 step on [0, t_max]."""
    phi, inv = np.eye(d), np.eye(d)
    sup_fwd, sup_inv = 1.0, 1.0
    steps = max(1, int(np.ceil(t_max / dt - 1e-12)))
    h = t_max / steps
    t = 0.0
    for _ in range(steps):
        k1 = p(t) @ phi
        k2 = p(t + 0.5 * h) @ (phi + 0.5 * h * k1)
        k3 = p(t + 0.5 * h) @ (phi + 0.5 * h * k2)
        k4 = p(t + h) @ (phi + h * k3)
        phi = phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        k1 = -inv @ p(t)
        k2 = -(inv + 0.5 * h * k1) @ p(t + 0.5 * h)
        k3 = -(inv + 0.5 * h * k2) @ p(t + 0.5 * h)
        k4 = -(inv + h * k3) @ p(t + h)
        inv = inv + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        sup_fwd = max(sup_fwd, float(np.linalg.norm(phi)))
        sup_inv = max(sup_inv, float(np.linalg.norm(inv)))
    return sup_fwd, sup_inv


def assert_rel_close(actual, expected, rel=1e-10):
    assert np.abs(actual - expected).max() <= rel * np.abs(expected).max()


def three_slot_vibration():
    mats = np.zeros((3, 3, 3))
    mats[0, 1, 0] = mats[1, 2, 1] = mats[2, 2, 0] = 1.0
    return SinusoidSum([1.3, 0.9, 0.4], [1.0, math.sqrt(2.0), math.sqrt(3.0)],
                       [0.0, 0.3, -1.1], mats)


def test_sinusoid_sum_broadcasts_exactly():
    p = three_slot_vibration()
    ts = np.linspace(-40.0, 2500.0, 1001)
    stack = p(ts)
    assert stack.shape == (1001, 3, 3)
    for i, t in enumerate(ts):
        assert np.array_equal(stack[i], p(t))
        assert np.array_equal(stack[i], p(float(t)))
        direct = sum(a * math.sin(f * t + ph) * m
                     for a, f, ph, m in zip(p.amps, p.freqs, p.phases, p.mats))
        assert np.abs(stack[i] - direct).max() < 1e-12


def test_conjugated_average_matches_per_step_loop():
    a = np.array([[-1.0, 1.0, 0.5], [-1.0, -1.0, 0.8], [0.3, -0.6, -2.0]])
    p = three_slot_vibration()
    T = 10 * 2 * math.pi
    steps = 3109
    dt = T / steps
    assert max(1, int(np.ceil(T / dt - 1e-12))) == steps
    got = vs.conjugated_average(a, p, T=T, dt=dt, rel_tol=1.0)
    assert_rel_close(got, reference_conjugated_average(a, p, T, dt))
    # a J in Fortran order is the same J
    assert np.array_equal(vs.conjugated_average(np.asfortranarray(a), p, T=T, dt=dt, rel_tol=1.0),
                          got)


def test_state_transition_matches_per_step_loop():
    p = slot_vibration(0.8, 2.0)
    dt = math.pi / 2000
    assert_rel_close(vs.state_transition(p, 0.7, 4.0, dt=dt),
                     reference_state_transition(p, 0.7, 4.0, dt))
    vib = three_slot_vibration()
    assert_rel_close(vs.state_transition(vib, 0.7, 9.0, dt=0.01),
                     reference_state_transition(vib, 0.7, 9.0, 0.01))


def test_perturbation_bounds_growth_matches_per_step_loop(flip_inc, flip_lin, flip_design):
    # the growth the averaging pass samples, over its first window of 20
    # base periods, against the Frobenius norms after every step of a
    # separate loop
    schedule = flip_design.schedule
    growth, shrink = np.ones(flip_inc.partition.r), np.ones(flip_inc.partition.r)
    for k, p in enumerate(vs.cluster_vibration_matrices(flip_inc, schedule)):
        if p is None:
            continue
        growth[k], shrink[k] = reference_growth(
            p, p.mats.shape[1], 20.0 * 2.0 * np.pi / p.freqs.min(),
            2.0 * np.pi / p.freqs.max() / linalg.default_oversampling)
    assert growth.max() > 1.0
    _, sampled = vs.averaged_jacobians(flip_lin, schedule)
    assert_rel_close(sampled, np.column_stack([growth, shrink]))
    expected = (np.outer(shrink, growth) * kuramoto_dynamics.envelope_safety
                * vs.perturbation_bounds(flip_lin))
    assert_rel_close(vs.perturbation_bounds(flip_lin, sampled), expected)
    # the flagship's gamma_bar
    assert_rel_close(vs.perturbation_bounds(flip_lin, sampled),
                     np.array([[212.27502602715205, 19.920235881902403],
                               [59.72533224074949, 4.7250000000000005]]), rel=1e-12)
    assert vs.averaged_jacobians(flip_lin, None)[1] is None


def test_perturbation_bounds_of_an_overflowing_flow_raise(flip_lin, flip_design):
    # the flagship's designed schedule at amplitude 1e3 and phase 1: the
    # vibration flow overflows to a Psi that is not finite, which the
    # averaging pass reports; its growth sampling ends there without an
    # error of its own
    schedule = kuramoto_dynamics.VibrationSchedule(
        {e: kuramoto_dynamics.VibrationEntry(1e3, entry.frequency, 1.0)
         for e, entry in flip_design.schedule.entries.items()},
        epsilon=flip_design.schedule.epsilon)
    with pytest.raises(np.linalg.LinAlgError, match=r"the flow overflowed on \[0, 251.327\]"):
        vs.averaged_jacobians(flip_lin, schedule)
    p = vs.cluster_vibration_matrices(flip_lin.inc, schedule)[0]
    growth = np.ones(2)
    with pytest.raises(np.linalg.LinAlgError, match="overflowed"):
        vs.conjugated_average(flip_lin.J_blocks[0], p, growth=growth)
    assert 1e300 < growth[0] < np.inf  # the last finite Psi's


@pytest.mark.parametrize("design_like", [False, True], ids=["dense", "design_like"])
def test_averaging_pass_growth_matches_per_step_loop(design_like):
    # the growth over the first window [0, T] of the averaging pass, against
    # the Frobenius norms after every step of a separate loop over [0, T];
    # with a base period every doubled horizon fails here, and the growth
    # stays the first pass's
    rng = np.random.default_rng(7)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        p = (design_like_sinusoid_sum if design_like else random_sinusoid_sum)(rng, n, 2)
        j = rng.normal(size=(n, n))
        T, dt = float(rng.uniform(1.0, 8.0)), 2 * np.pi / p.freqs.max() / 48
        growth = np.ones(2)
        vs.conjugated_average(j, p, T=T, dt=dt, rel_tol=np.inf, growth=growth)
        assert_rel_close(growth, reference_growth(p, n, T, dt))
    base, fastest = 2 * np.pi / p.freqs.min(), 2 * np.pi / p.freqs.max()
    growth = np.ones(2)
    with pytest.raises(HorizonTooShort):
        vs.conjugated_average(j, p, rel_tol=0.0, growth=growth)
    assert_rel_close(growth, reference_growth(p, n, linalg.horizon_periods * base,
                                              fastest / linalg.default_oversampling))


# ---------------------------------------------------------------------------
# the compiled stepper: patterns, carriers and failures


def random_sinusoid_sum(rng, n, terms):
    """Terms of amplitude 0.2-2 and frequency 0.5-3 on dense matrices of
    norm about 0.3: Psi stays well conditioned over a few periods."""
    return SinusoidSum(rng.uniform(0.2, 2.0, terms), rng.uniform(0.5, 3.0, terms),
                       rng.uniform(-math.pi, math.pi, terms),
                       rng.normal(size=(terms, n, n)) * 0.3 / math.sqrt(n))


def design_like_sinusoid_sum(rng, n, terms):
    """Terms as the designers place them: each of amplitude 0.2-2 and
    frequency 0.5-3 on one off-diagonal slot of an n x n matrix, n >= 2."""
    mats = np.zeros((terms, n, n))
    for e in range(terms):
        row, col = rng.choice(n, 2, replace=False)
        mats[e, row, col] = 1.0
    return SinusoidSum(rng.uniform(0.2, 2.0, terms), rng.uniform(0.5, 3.0, terms),
                       rng.uniform(-math.pi, math.pi, terms), mats)


def sparse_sinusoid_sum(rng, n, terms):
    """Terms on matrices with about a third of their entries nonzero (some
    may be all zero)."""
    mats = rng.normal(size=(terms, n, n)) * (rng.random((terms, n, n)) < 0.3)
    return SinusoidSum(rng.uniform(0.2, 2.0, terms), rng.uniform(0.5, 3.0, terms),
                       rng.uniform(-math.pi, math.pi, terms), mats * 0.5)


def dense_twin(p):
    """``p`` bound to every entry: the full pattern, with the carriers'
    dense term matrices, for the stepper's full product."""
    n = p.mats.shape[1]
    twin = copy.copy(p)
    twin.pattern = np.argwhere(np.ones((n, n), dtype=bool)).astype(np.intc)
    twin._pattern_mats = np.ascontiguousarray(p.mats.reshape(len(p.mats), n * n))
    return twin


def flow_results(p, j, T, dt, t0=0.3):
    """state_transition from t0, the average (or the error of an overflowing
    flow), both windows' raw sums of Psi and of Psi^-1 J Psi, and the
    conjugation growth the same pass samples for perturbation_bounds."""
    n = j.shape[0]
    steps = max(1, int(np.ceil(T / dt - 1e-12)))
    out = [vs.state_transition(p, t0, t0 + T, dt=dt)]
    try:
        out.append(vs.conjugated_average(j, p, T=T, dt=dt, rel_tol=np.inf))
    except np.linalg.LinAlgError as exc:
        out.append(str(exc))
    sums, growth = np.zeros((2, 2, n, n)), np.ones(2)
    linalg._phase_kernel.linear_flow(p, 0.0, T / steps, 2 * steps, np.eye(n), j,
                                     np.full((2 * steps, 2), 0.5), sums, growth, steps)
    return out + [sums, growth]


def assert_same_results(a, b):
    for x, y in zip(a, b, strict=True):
        if isinstance(x, str):
            assert x == y
        else:
            assert np.array_equal(x, y, equal_nan=True)


@settings(max_examples=60, deadline=None, database=None)
@given(n=st.integers(1, 6), terms=st.integers(1, 3),
       kind=st.sampled_from(["sparse", "design_like", "dense"]),
       seed=st.integers(0, 2**32 - 1), t0=st.floats(-1e3, 1e3))
def test_pattern_flow_equals_the_full_flow_bit_for_bit(n, terms, kind, seed, t0):
    # the stepper on P's pattern against the same carriers on every entry,
    # also at large arguments of sin; dense terms overlap on every entry, so
    # their sum's order shows
    rng = np.random.default_rng(seed)
    if kind == "design_like" and n >= 2:
        p = design_like_sinusoid_sum(rng, n, terms)
        assert len(p.pattern) <= terms
    elif kind == "dense":
        p = random_sinusoid_sum(rng, n, terms)
    else:
        p = sparse_sinusoid_sum(rng, n, terms)
    j = rng.normal(size=(n, n))
    T, dt = 2.0 * math.pi, 2.0 * math.pi / 3.0 / 48
    assert np.array_equal(p.pattern, np.argwhere(np.abs(p.mats).sum(axis=0) > 0.0))
    assert_same_results(flow_results(p, j, T, dt, t0), flow_results(dense_twin(p), j, T, dt, t0))


def test_overflowing_pattern_flow_has_the_full_flows_nans():
    # Psi(t) grows as exp(1e3 sin t) on the diagonal until it overflows; the
    # off-diagonal slots outside the pattern turn NaN only through 0 inf
    mats = np.zeros((2, 3, 3))
    mats[0, 0, 0] = mats[0, 1, 1] = 1.0
    mats[1, 2, 0] = 1.0
    p = SinusoidSum([1e3, 0.5], [1.0, math.sqrt(2.0)], [math.pi / 2, 0.0], mats)
    j = np.arange(9.0).reshape(3, 3)
    with np.errstate(all="ignore"):
        sparse = flow_results(p, j, 6.0, 0.01)
        full = flow_results(dense_twin(p), j, 6.0, 0.01)
    phi = sparse[0]
    assert np.isnan(phi).any() and not np.isnan(phi).all()
    # the sampled growth keeps the norms of the last finite Psi and Psi^-1
    assert not np.isnan(sparse[-1]).any()
    assert_same_results(sparse, full)


@pytest.mark.parametrize("args, match", [
    (([1.0, 5.0], [1.0, 2.0], [0.0, 0.0], [np.eye(2)]), "mats"),  # a term without matrix
    (([1.0], [1.0, 2.0], [0.0], [np.eye(2)]), "one length"),
    (([[1.0]], [1.0], [0.0], [np.eye(2)]), "one length"),
    (([], [], [], np.zeros((0, 2, 2))), "one length"),
    (([1.0], [1.0], [0.0], np.eye(2)), "mats"),
    (([1.0], [1.0], [0.0], np.zeros((1, 2, 3))), "mats"),
    (([1.0], [np.nan], [0.0], [np.eye(2)]), "finite"),
    (([np.inf], [1.0], [0.0], [np.eye(2)]), "finite"),
    (([1.0], [1.0], [0.0], [np.diag([1.0, np.nan])]), "finite"),
    (([1.0], [0.0], [0.0], [np.eye(2)]), "positive"),
    (([1.0, 1.0], [1.0, -1.0], [0.0, 0.0], [np.eye(2)] * 2), "positive"),
])
def test_sinusoid_sum_rejects_inconsistent_terms(args, match):
    with pytest.raises(ValueError, match=match):
        SinusoidSum(*args)


def test_overflowing_flow_raises_after_one_pass(monkeypatch):
    # Psi = exp(1e3 sin t) overflows near t = 0.8, then inf - inf makes it
    # NaN: the first windowed pass names the overflow, and no doubled horizon
    # follows
    passes = []
    windowed = linalg._windowed_average

    def counted(*args):
        passes.append(args[2])
        return windowed(*args)

    monkeypatch.setattr(linalg, "_windowed_average", counted)
    grow = SinusoidSum([1e3], [1.0], [math.pi / 2], [np.eye(2)])
    with np.errstate(all="ignore"):
        with pytest.raises(np.linalg.LinAlgError, match=r"overflowed on \[0, 40\]"):
            vs.conjugated_average(np.eye(2), grow, T=20.0, dt=0.01)
        with pytest.raises(np.linalg.LinAlgError, match="overflowed"):
            vs.conjugated_average(np.eye(2), grow)
        assert passes == [20.0, linalg.horizon_periods * 2 * math.pi]
        assert np.isnan(vs.state_transition(grow, 0.0, 40.0, dt=0.01)).all()


def test_singular_flow_raises_linalg_error():
    # P = 0 keeps the singular Psi(0) = diag(0, 1): the average stops at the
    # first step's Psi, and a flow without J steps through it
    p = SinusoidSum([0.0], [0.1], [0.0], [np.eye(2)])
    with pytest.raises(np.linalg.LinAlgError, match="singular to working precision at t = 1$"):
        linalg._phase_kernel.linear_flow(p, 0.0, 1.0, 4, np.diag([0.0, 1.0]), np.eye(2),
                                         np.ones((4, 2)), np.zeros((2, 2, 2, 2)))
    psi = np.diag([0.0, 1.0])
    linalg._phase_kernel.linear_flow(p, 0.0, 1.0, 4, psi)
    assert np.array_equal(psi, np.diag([0.0, 1.0]))
