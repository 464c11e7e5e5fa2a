import math

import numpy as np
import pytest

import vibrosync as vs
from vibrosync import kuramoto_dynamics, linalg
from vibrosync.linalg import HorizonTooShort, NotHurwitz, SinusoidSum, StepTooCoarse

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
    r1 = vs.robustness(a).value
    r2 = vs.robustness(2.0 * a).value
    assert r2 == pytest.approx(2.0 * r1, rel=1e-12)
    # for -mu I the value is exactly 2 mu
    assert vs.robustness(-1.5 * np.eye(3)).value == pytest.approx(3.0, rel=1e-12)


def test_is_m_matrix_basics():
    assert vs.is_m_matrix(np.array([[1.0, -0.5], [-0.5, 1.0]]))
    assert not vs.is_m_matrix(np.array([[1.0, 0.5], [-0.5, 1.0]]))  # positive off-diag
    assert not vs.is_m_matrix(np.array([[-1.0, 0.0], [0.0, 1.0]]))  # bad minor
    assert not vs.is_m_matrix(np.array([[1.0, -2.0], [-2.0, 1.0]]))  # det < 0


def test_state_transition_closed_form_and_cocycle():
    u, beta = 0.8, 2.0

    def p(t):
        return np.array([[0.0, 0.0], [u * math.sin(beta * t), 0.0]])

    period = 2 * math.pi / beta
    phi = vs.state_transition(p, 0.0, 1.3, dt=period / 2000, min_period=period)
    assert phi[0, 0] == pytest.approx(1.0, abs=1e-9)
    assert phi[1, 0] == pytest.approx(u / beta * (1 - math.cos(beta * 1.3)), abs=1e-9)

    a = vs.state_transition(p, 0.0, 0.7, dt=period / 2000, min_period=period)
    b = vs.state_transition(p, 0.7, 1.3, dt=period / 2000, min_period=period)
    assert np.abs(b @ a - phi).max() < 1e-7


def test_state_transition_determinant_matches_trace_integral():
    def p(t):
        return np.array([[math.cos(t), 1.0], [0.3, -0.5]])

    phi = vs.state_transition(p, 0.0, 2.0, dt=1e-3, min_period=2 * math.pi)
    expected = math.exp(math.sin(2.0) - 0.5 * 2.0)
    assert np.linalg.det(phi) == pytest.approx(expected, rel=1e-7)


def test_state_transition_step_too_coarse():
    def p(t):
        return np.array([[0.0, math.sin(50.0 * t)], [0.0, 0.0]])

    with pytest.raises(StepTooCoarse):
        vs.state_transition(p, 0.0, 1.0, dt=0.1, min_period=2 * math.pi / 50.0)


def test_conjugated_average_no_vibration_returns_input():
    j = np.array([[-1.0, 2.0], [0.5, -3.0]])
    out = vs.conjugated_average(j, None)
    assert out == pytest.approx(j)
    assert out is not j


def test_conjugated_average_matches_exact_shift():
    # one line u sin(beta t) on slot (1,0): averaged (1,0) entry moves by
    # -a01 u^2/(2 beta^2); all other entries stay put
    a = np.array([[-1.0, 1.0], [-1.0, -1.0]])
    u, beta = 1.0, 1.0

    def p(t):
        return np.array([[0.0, 0.0], [u * math.sin(beta * t), 0.0]])

    avg = vs.conjugated_average(a, p, base_period=2 * math.pi)
    expected = a + np.array([[0.0, 0.0], [-u ** 2 / (2 * beta ** 2), 0.0]])
    # exact closed form carries weight a01 = 1
    assert avg == pytest.approx(expected, abs=2e-3)


def test_conjugated_average_horizon_guard():
    a = np.array([[-1.0, 1.0], [-1.0, -1.0]])

    def p(t):
        return np.array([[0.0, 0.0], [math.sin(t), 0.0]])

    # a horizon cut mid-period leaves an O(1/T) bias that doubling exposes
    with pytest.raises(HorizonTooShort):
        vs.conjugated_average(a, p, T=0.718 * 2 * math.pi,
                              base_period=2 * math.pi, rel_tol=1e-6)


def test_conjugated_average_window_without_weight():
    # one step per horizon: the [0, T] window sees only its zero-weight end
    # point, so no estimate exists to check the average against
    def p(t):
        return np.array([[0.0, 0.0], [math.sin(t), 0.0]])

    with pytest.raises(HorizonTooShort, match="without weight"):
        vs.conjugated_average(np.eye(2), p, T=0.05, dt=0.05)


def test_derived_horizon_doubles_before_giving_up(monkeypatch):
    tried = []

    def always_short(j, p, T, *args):
        tried.append(T)
        raise HorizonTooShort(f"horizon {T:g}")

    monkeypatch.setattr(linalg, "_windowed_average", always_short)
    p = lambda t: np.zeros((2, 2))  # never called: the window is replaced
    with pytest.raises(HorizonTooShort, match="horizon 1600"):
        vs.conjugated_average(np.eye(2), p, base_period=10.0)
    assert tried == [200.0, 400.0, 800.0, 1600.0]
    tried.clear()
    with pytest.raises(HorizonTooShort):  # an explicit horizon is not doubled
        vs.conjugated_average(np.eye(2), p, T=200.0, base_period=10.0)
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
            base_period=2.0 * math.pi / min(freqs),
            dt=2.0 * math.pi / max(freqs) / linalg.default_oversampling)
        checked += 1
        scale = max(np.abs(design.predicted).max(), 1e-9)
        rel = np.abs(numeric - design.predicted).max() / scale
        assert rel <= 2e-5, f"case {case}: numeric/exact disagree by {rel:.3e}"
    assert checked == 50


def test_averaged_jacobians_flagship_match_exact_engine(flip_lin, flip_inc, flip_design):
    avg = vs.averaged_jacobians(flip_lin.J_blocks, flip_design.schedule, flip_inc)
    exact = flip_design.designs[0].predicted
    assert_rel_close(avg[0], exact, rel=1e-6)


@pytest.mark.parametrize("call", [
    lambda p: vs.conjugated_average(np.eye(2), p, T=float("nan"), dt=0.01),
    lambda p: vs.conjugated_average(np.eye(2), p, base_period=float("inf"), dt=0.01),
    lambda p: vs.state_transition(p, 0.0, float("inf"), dt=0.01),
    lambda p: vs.state_transition(p, float("nan"), 1.0, dt=0.01),
], ids=["average-T", "average-base_period", "transition-t1", "transition-t0"])
def test_nonfinite_span_is_rejected(call):
    with pytest.raises(ValueError, match="t_span must be finite"):
        call(lambda t: np.array([[0.0, 0.0], [math.sin(t), 0.0]]))


@pytest.mark.parametrize("name, kwargs", [
    ("dt", {"dt": float("nan")}),
    ("dt", {"dt": float("inf"), "min_period": 1.0}),
    ("min_period", {"min_period": float("nan")}),
    ("min_period", {"dt": 0.01, "min_period": -1.0}),
])
def test_bad_step_is_rejected(name, kwargs):
    def p(t):
        return np.array([[0.0, 0.0], [math.sin(t), 0.0]])

    with pytest.raises(ValueError, match=f"{name} must be"):
        vs.conjugated_average(np.eye(2), p, T=10.0, **kwargs)
    with pytest.raises(ValueError, match=f"{name} must be"):
        vs.state_transition(p, 0.0, 1.0, **kwargs)


# ---------------------------------------------------------------------------
# parity of the chunked linear-flow engine with the per-step RK4 loop it
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
    phi = np.eye(d)
    sup_fwd, sup_inv = 1.0, 1.0
    steps = int(np.ceil(t_max / dt))
    h = t_max / steps
    t = 0.0
    for _ in range(steps):
        k1 = p(t) @ phi
        k2 = p(t + 0.5 * h) @ (phi + 0.5 * h * k1)
        k3 = p(t + 0.5 * h) @ (phi + 0.5 * h * k2)
        k4 = p(t + h) @ (phi + h * k3)
        phi = phi + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        s = np.linalg.svd(phi, compute_uv=False)
        sup_fwd = max(sup_fwd, float(s[0]))
        sup_inv = max(sup_inv, float(1.0 / s[-1]))
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


@pytest.mark.parametrize("tabulated", [True, False], ids=["broadcast", "pointwise"])
def test_conjugated_average_matches_per_step_loop(tabulated):
    a = np.array([[-1.0, 1.0, 0.5], [-1.0, -1.0, 0.8], [0.3, -0.6, -2.0]])
    vib = three_slot_vibration()
    p = vib if tabulated else (lambda t: vib(t))
    T = 10 * 2 * math.pi
    steps = 3 * linalg._chunk_steps + 37  # several chunks, the last one partial
    dt = T / steps
    assert max(1, int(np.ceil(T / dt - 1e-12))) == steps
    got = vs.conjugated_average(a, p, T=T, dt=dt, rel_tol=1.0)
    assert_rel_close(got, reference_conjugated_average(a, p, T, dt))


def test_state_transition_matches_per_step_loop():
    u, beta = 0.8, 2.0

    def p(t):
        return np.array([[0.0, 0.0], [u * math.sin(beta * t), 0.0]])

    period = 2 * math.pi / beta
    dt = period / 2000
    assert_rel_close(vs.state_transition(p, 0.7, 4.0, dt=dt, min_period=period),
                     reference_state_transition(p, 0.7, 4.0, dt))
    vib = three_slot_vibration()
    assert_rel_close(vs.state_transition(vib, 0.7, 9.0, dt=0.01, min_period=2.0),
                     reference_state_transition(vib, 0.7, 9.0, 0.01))


def test_perturbation_bounds_growth_matches_per_step_loop(flip_inc, flip_lin, flip_design):
    schedule = flip_design.schedule
    growth, shrink = np.ones(flip_inc.partition.r), np.ones(flip_inc.partition.r)
    for k, terms in enumerate(vs.schedule_slot_matrices(flip_inc, schedule)):
        if not terms:
            continue
        freqs = [f for _, f, _, _ in terms]
        growth[k], shrink[k] = reference_growth(
            vs.cluster_vibration_matrix(terms), terms[0][3].shape[0],
            20.0 * 2.0 * np.pi / min(freqs),
            2.0 * np.pi / max(freqs) / linalg.default_oversampling)
    assert growth.max() > 1.0
    expected = (np.outer(shrink, growth) * kuramoto_dynamics.envelope_safety
                * vs.perturbation_bounds(flip_lin))
    assert_rel_close(vs.perturbation_bounds(flip_lin, schedule), expected)
