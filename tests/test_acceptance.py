"""Acceptance suite: one test per acceptance criterion, each asserting the
published tolerance.  Run with ``pytest -v tests/test_acceptance.py`` to get
one pass/fail line per criterion."""

import itertools
import math
import time

import numpy as np
import pytest

import vibrosync as vs
from conftest import random_clustered_network

SQ2 = math.sqrt(2.0)

DELTA1 = np.array([[0.0, 0.05, 0.0],
                   [0.0, 0.0, 0.0],
                   [-0.05, 0.0, 0.0]])


# ---------------------------------------------------------------------------
# criterion 1: robustness margins of the flagship Jacobian blocks


def test_criterion_1_robustness_margins(flip_kn, flip_inc):
    t0 = time.perf_counter()
    lin = vs.linearize(flip_kn, flip_inc)
    r1 = vs.robustness(lin.J_blocks[0])
    r2 = vs.robustness(lin.J_blocks[1])
    r1_shifted = vs.robustness(lin.J_blocks[0] + DELTA1)
    elapsed = time.perf_counter() - t0
    assert abs(r1 - 0.30588) <= 0.005
    assert abs(r2 - 3.61584) <= 0.01
    assert abs(r1_shifted - 0.33218) <= 0.005
    assert elapsed < 1.0, f"robustness computation took {elapsed:.2f}s"


# ---------------------------------------------------------------------------
# criterion 2: the designed schedule stabilizes the kicked first cluster


def test_criterion_2_designed_schedule_stabilizes(flip_scenario, flip_kn, flip_inc):
    t0 = time.perf_counter()
    design = vs.design_cluster(flip_kn, flip_inc,
                               flip_scenario.modification_specs(), epsilon=0.01)
    theta0 = vs.perturbed_initial_states(
        flip_inc, 1, 0.1, seed=flip_scenario.seed, clusters=(0,))[0]
    controlled = vs.simulate(flip_kn, design.schedule, theta0,
                             flip_scenario.t_end, inc=flip_inc)
    uncontrolled = vs.simulate(flip_kn, None, theta0,
                               flip_scenario.t_end, inc=flip_inc)
    elapsed = time.perf_counter() - t0

    err_c = vs.sync_error(controlled.theta, flip_kn.partition)
    err_u = vs.sync_error(uncontrolled.theta, flip_kn.partition)
    assert err_c.min() < 0.01, f"controlled error only reached {err_c.min():.3e}"
    assert err_u.min() >= 0.5 * err_u[0], (
        f"uncontrolled error dropped to {err_u.min() / err_u[0]:.3f} of initial")
    assert elapsed < 120.0, f"stabilization run took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# criterion 3: normalized gains and frequency ratio of the designed slots


def test_criterion_3_gains_and_frequency_ratio(flip_design):
    slots = flip_design.designs[0].slots
    assert len(slots) == 2
    assert abs(slots[0].normalized_gain - 1.0) <= 1e-6
    assert abs(slots[1].normalized_gain - 1.0) <= 1e-6
    ratio = slots[1].frequency / slots[0].frequency
    assert abs(ratio - SQ2) <= 1e-6


# ---------------------------------------------------------------------------
# criterion 4: numeric averaging agrees with the exact engine


def _random_design_case(rng, n, n_slots, chain_free):
    """Random matrix with all carriers nonzero plus a sign-consistent
    strictly-lower change pattern."""
    a = rng.uniform(0.3, 1.5, (n, n)) * rng.choice([-1.0, 1.0], (n, n))
    np.fill_diagonal(a, -(1.5 + rng.uniform(0.0, 1.0, n)))
    pool = [(p, q) for p in range(1, n) for q in range(p)]
    order = [pool[i] for i in rng.permutation(len(pool))]
    chosen = []
    for p, q in order:
        if len(chosen) == n_slots:
            break
        if chain_free and any(q == p2 or q2 == p for p2, q2 in chosen):
            continue
        chosen.append((p, q))
    delta = np.zeros((n, n))
    for p, q in chosen:
        carrier = a[q, p]
        delta[p, q] = -np.sign(carrier) * rng.uniform(0.05, 0.4) * abs(carrier)
    return a, vs.ModificationSpec(delta=delta)


def test_criterion_4_numeric_matches_exact_average():
    rng = np.random.default_rng(42)
    singles = 0
    for case in range(50):
        n = int(rng.integers(2, 5))
        n_slots = 1 if case % 2 == 0 else int(rng.integers(1, 4))
        a, spec = _random_design_case(rng, n, n_slots, chain_free=False)
        design = vs.design_linear(a, spec, verify=False)
        if not design.slots:
            continue
        freqs = [s.frequency for s in design.slots]
        numeric = vs.conjugated_average(a, design.vibration_matrix(),
                                        dt=2.0 * math.pi / max(freqs) / 48.0)
        scale = max(np.abs(design.predicted).max(), 1e-9)
        rel = np.abs(numeric - design.predicted).max() / scale
        assert rel <= 1e-2, f"case {case}: numeric/exact disagree by {rel:.3e}"
        if len(design.slots) == 1:
            singles += 1
            s = design.slots[0]
            shift = -a[s.col, s.row] * s.amplitude**2 / (2.0 * s.frequency**2)
            achieved = design.predicted[s.row, s.col] - a[s.row, s.col]
            assert abs(achieved - shift) <= 1e-3, (
                f"case {case}: closed-form slot shift off by "
                f"{abs(achieved - shift):.3e}")
    assert singles >= 10  # the closed-form check ran on a healthy sample


# ---------------------------------------------------------------------------
# criterion 5: designer soundness on a feasible corpus


def test_criterion_5_designer_soundness():
    rng = np.random.default_rng(7)
    failures = 0
    produced = 0
    while produced < 100:
        n = 2 + produced % 5  # sizes 2..6 round-robin
        max_slots = max(1, min(3, n * (n - 1) // 2))
        n_slots = int(rng.integers(1, max_slots + 1))
        a, spec = _random_design_case(rng, n, n_slots, chain_free=True)
        if not np.any(np.abs(spec.delta) > 0):
            continue  # regenerate: no realizable request was drawn
        try:
            design = vs.design_linear(a, spec)
        except vs.NotRealizable:
            continue  # regenerate the case
        except vs.VerificationFailed:
            failures += 1
            produced += 1
            continue
        produced += 1
        assert design.verified
    assert failures == 0, f"{failures} designs failed their closing verification"


# ---------------------------------------------------------------------------
# criterion 6: the incidence reduction identity on random networks


def test_criterion_6_reduction_identity():
    rng = np.random.default_rng(2024)
    for trial in range(100):
        net, part = random_clustered_network(rng, n_max=12, r_max=3)
        for strategy in ("min_depth", "first_found"):
            tree = vs.select_spanning_tree(net, part, strategy=strategy)
            inc = vs.build_incidence(net, part, tree)
            residual = np.abs(inc.B.T - inc.R @ inc.Bhat.T).max()
            assert residual < 1e-9, (
                f"trial {trial} ({strategy}): identity residual {residual:.3e}")


# ---------------------------------------------------------------------------
# criterion 7: Lyapunov solver accuracy and the M-matrix test


def _minor_expansion_m_matrix(stack: np.ndarray) -> np.ndarray:
    """Vectorized independent oracle: Z-sign pattern plus positive leading
    principal minors, evaluated by explicit cofactor expansion."""
    a = stack.astype(float)
    off_ok = np.ones(len(a), dtype=bool)
    for i in range(3):
        for j in range(3):
            if i != j:
                off_ok &= a[:, i, j] <= 0.0
    m1 = a[:, 0, 0]
    m2 = a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0]
    m3 = (a[:, 0, 0] * (a[:, 1, 1] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 1])
          - a[:, 0, 1] * (a[:, 1, 0] * a[:, 2, 2] - a[:, 1, 2] * a[:, 2, 0])
          + a[:, 0, 2] * (a[:, 1, 0] * a[:, 2, 1] - a[:, 1, 1] * a[:, 2, 0]))
    return off_ok & (m1 > 0.0) & (m2 > 0.0) & (m3 > 0.0)


def test_criterion_7_lyapunov_and_m_matrix():
    rng = np.random.default_rng(11)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        m = rng.standard_normal((n, n))
        shift = max(np.linalg.eigvals(m).real.max(), 0.0) + rng.uniform(0.5, 2.0)
        a = m - shift * np.eye(n)
        x = vs.solve_lyapunov(a)
        residual = np.abs(a.T @ x + x @ a + np.eye(n)).max()
        assert residual < 1e-9

    values = np.array([-1.0, 0.0, 1.0, 2.0])
    grids = np.meshgrid(*([values] * 9), indexing="ij")
    stack = np.stack([g.reshape(-1) for g in grids], axis=1).reshape(-1, 3, 3)
    oracle = _minor_expansion_m_matrix(stack)
    got = np.fromiter((vs.is_m_matrix(mat) for mat in stack),
                      dtype=bool, count=len(stack))
    mismatches = int(np.count_nonzero(got != oracle))
    assert mismatches == 0, f"{mismatches} disagreements out of {len(stack)}"


# ---------------------------------------------------------------------------
# criterion 8: the synchronization manifold stays invariant under vibration


def test_criterion_8_manifold_invariance(flip_kn, flip_inc, flip_design):
    theta0 = np.zeros(8)
    traj = vs.simulate(flip_kn, flip_design.schedule, theta0, 100.0, inc=flip_inc)
    drift = np.abs(traj.x).max()
    assert drift < 1e-6, f"intra-cluster coordinates drifted to {drift:.3e}"


# ---------------------------------------------------------------------------
# criterion 9: honest reporting when the certificate is not granted


def test_criterion_9_uncertified_but_stable(flip_scenario, flip_lin, flip_design):
    report = vs.certify(flip_lin, flip_design.schedule, flip_design.averaged,
                        flip_design.growth, empirical=True, kick=0.1, seed=flip_scenario.seed)
    assert not report.certified
    assert report.label == "stable_uncertified"
    assert report.empirical is not None and report.empirical.stable
    assert report.sweep is not None and len(report.sweep) == 3
    assert report.sweep_monotone or len(report.sweep_deviations) > 0
