import dataclasses
import math
import re
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, note, settings, strategies as st

import vibrosync as vs
from vibrosync import _phase_kernel as pk
from vibrosync import kuramoto_dynamics as kd
from vibrosync import linalg, stability_cert
from vibrosync.kuramoto_dynamics import (InvarianceViolated, NonFiniteState,
                                         Trajectory, classification_horizon)
from vibrosync.linalg import StepTooCoarse, default_oversampling

from conftest import incidence, random_clustered_network


def two_node_kn():
    net = vs.DirectedNetwork.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)])
    part = vs.ClusterPartition(net, ((0, 1),))
    return vs.KuramotoNetwork(net=net, omega=np.array([2.0, 2.0]), partition=part)


def test_geodesic_distance():
    assert vs.geodesic_distance(0.0, math.pi / 2) == pytest.approx(math.pi / 2)
    assert vs.geodesic_distance(0.1, 2 * math.pi - 0.1) == pytest.approx(0.2)
    assert vs.geodesic_distance(1.3, 1.3) == 0.0


def test_sync_error_uses_wrapped_distances():
    theta = np.array([[0.0, 2 * math.pi - 0.1, 0.05, 6.0]])
    net = vs.DirectedNetwork.from_edges(
        4, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0),
            (0, 2, 1.0), (2, 0, 1.0)])
    part = vs.ClusterPartition(net, ((0, 1), (2, 3)))
    err = vs.sync_error(theta, part)
    assert err[0] == pytest.approx(max(0.1, abs(6.0 - 2 * math.pi - 0.05)))


def pairwise_sync_error(theta, clusters):
    """sync_error pair by pair: the reference it must equal bit for bit."""
    theta = np.asarray(theta, dtype=float)
    worst = np.zeros(theta.shape[:-1])
    for idx in clusters:
        for a in range(len(idx)):
            for b in range(a + 1, len(idx)):
                d = vs.geodesic_distance(theta[..., idx[a]], theta[..., idx[b]])
                worst = np.maximum(worst, d)
    return worst if worst.shape else float(worst)


@settings(max_examples=80, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
       lead=st.lists(st.integers(0, 6), max_size=2))
def test_sync_error_equals_the_pairwise_loop(seed, sizes, lead):
    rng = np.random.default_rng(seed)
    nodes = rng.permutation(sum(sizes)).tolist()
    cuts = np.cumsum([0, *sizes]).tolist()
    clusters = tuple(tuple(nodes[a:b]) for a, b in zip(cuts, cuts[1:]))
    theta = rng.normal(size=(*lead, len(nodes))) * 10.0 ** rng.integers(-8, 4, len(nodes))
    got = vs.sync_error(theta, SimpleNamespace(clusters=clusters))
    want = pairwise_sync_error(theta, clusters)
    if lead:
        assert isinstance(got, np.ndarray) and np.array_equal(got, want)
    else:
        assert type(got) is float and got == want


def test_sync_error_of_one_node_clusters_and_one_state():
    one_node = SimpleNamespace(clusters=((0,), (1,), (2,)))
    assert np.array_equal(vs.sync_error(np.ones((5, 3)), one_node), np.zeros(5))
    mixed = SimpleNamespace(clusters=((1,), (0, 2)))
    got = vs.sync_error(np.array([0.3, 5.0, 2 * math.pi - 0.2]), mixed)
    assert type(got) is float and got == pairwise_sync_error([0.3, 5.0, 2 * math.pi - 0.2],
                                                             mixed.clusters)
    assert got == pytest.approx(0.5)


def test_sync_error_of_a_large_cluster():
    rng = np.random.default_rng(7)
    theta = rng.uniform(-10.0, 10.0, (300, 64))
    clusters = (tuple(rng.permutation(64)[:60].tolist()),)
    got = vs.sync_error(theta, SimpleNamespace(clusters=clusters))
    assert np.array_equal(got, pairwise_sync_error(theta, clusters))


def test_two_node_synchronization():
    kn = two_node_kn()
    traj = vs.simulate(kn, None, np.array([0.0, 0.1]), 12.0, inc=incidence(kn))
    gap = np.abs(traj.theta[:, 1] - traj.theta[:, 0])
    assert gap[-1] < 1e-3
    assert np.all(np.diff(gap) <= 1e-12)


def test_single_directed_edge_sign_convention():
    # dtheta0/dt = omega0 + w01 sin(theta1 - theta0) exactly at t=0
    net = vs.DirectedNetwork.from_edges(2, [(0, 1, 0.5), (1, 0, 0.5)])
    part = vs.ClusterPartition(net, ((0, 1),))
    kn = vs.KuramotoNetwork(net=net, omega=np.array([0.3, 0.3]), partition=part)
    th0 = np.array([0.2, 1.1])
    h = 1e-6
    traj = vs.simulate(kn, None, th0, h, inc=incidence(kn), dt=h)
    rate = (traj.theta[-1] - th0) / h
    # w[0,1] is the weight node 0 receives from node 1 (edge (1, 0))
    expected0 = 0.3 + 0.5 * math.sin(th0[1] - th0[0])
    assert rate[0] == pytest.approx(expected0, abs=1e-6)


def test_omega_shift_equivariance():
    kn = two_node_kn()
    th0 = np.array([0.0, 0.4])
    base = vs.simulate(kn, None, th0, 5.0, inc=incidence(kn), dt=1e-3)
    shifted_kn = vs.KuramotoNetwork(net=kn.net, omega=kn.omega + 3.0,
                                    partition=kn.partition)
    shifted = vs.simulate(shifted_kn, None, th0, 5.0, inc=incidence(shifted_kn), dt=1e-3)
    drift = shifted.theta - base.theta - 3.0 * base.times[:, None]
    assert np.abs(drift).max() < 1e-8


def test_dt_refinement_agrees():
    kn = two_node_kn()
    th0 = np.array([0.0, 0.7])
    a = vs.simulate(kn, None, th0, 8.0, inc=incidence(kn), dt=2e-3)
    b = vs.simulate(kn, None, th0, 8.0, inc=incidence(kn), dt=1e-3)
    assert np.abs(a.theta[-1] - b.theta[-1]).max() < 1e-6


def test_simulate_zero_horizon_and_coarse_dt():
    kn = two_node_kn()
    traj = vs.simulate(kn, None, np.array([0.0, 0.1]), 0.0, inc=incidence(kn))
    assert traj.theta.shape == (1, 2)
    with pytest.raises(StepTooCoarse):
        vs.simulate(kn, None, np.array([0.0, 0.1]), 1.0, inc=incidence(kn), dt=0.5)


# the phase network's step is the coarsest that keeps every quantity the
# sweep's verdicts read within this relative error of a run at 4x the steps
refinement_tolerance = 1e-3


def sweep_schedules(schedule):
    """The flagship's sweep cases: uncontrolled, then ``schedule`` at each
    sweep epsilon, as (label, schedule) pairs."""
    yield "uncontrolled", None
    for eps in stability_cert.default_sweep_epsilons:
        yield f"eps={eps:g}", dataclasses.replace(schedule, epsilon=eps)


def refinement_error(kn, inc, schedule, oversampling):
    """The largest relative error, and which quantity has it, of the
    classifier slopes, final ratios and end-of-run intra-cluster sync errors
    of the sweep's own ensemble (3 samples, kick 0.1, seed 3, horizon 60)
    when the phase network takes ``oversampling`` steps per fastest period,
    against the same ensemble at four times the steps."""
    def quantities(per_period):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(kd, "phase_oversampling", per_period)
            trajs = vs.sample_perturbed_trajectories(
                kn, inc, schedule, n_samples=stability_cert.sweep_samples, kick=0.1, seed=3,
                t_end=stability_cert.sweep_horizon)
        assert trajs[0].dt == kd._fastest_period(kn, schedule) / per_period
        cls = vs.classify_partial_stability(trajs)
        return {"slope": np.array(cls.slopes),
                "ratio": np.array(cls.final_norms) / np.array(cls.initial_norms),
                "sync error": np.array([vs.sync_error(t.theta[-1], kn.partition)
                                        for t in trajs])}

    got, ref = quantities(oversampling), quantities(4 * oversampling)
    errors = {name: float(np.max(np.abs(got[name] - ref[name]) / np.abs(ref[name])))
              for name in got}
    worst = max(errors, key=errors.get)
    return errors[worst], worst


def test_phase_step_meets_the_refinement_tolerance(flip_kn, flip_inc, flip_design):
    # at its default step the phase network's sweep verdicts move by less
    # than the tolerance when the step is refined fourfold; that 16 steps per
    # period misses it is checked in CI, which prints the whole table
    for label, schedule in sweep_schedules(flip_design.schedule):
        error, worst = refinement_error(flip_kn, flip_inc, schedule, kd.phase_oversampling)
        assert error < refinement_tolerance, (label, worst, error)


def test_linear_flows_keep_48_steps_per_period(flip_lin, flip_design, monkeypatch):
    p = kd.cluster_vibration_matrices(flip_lin.inc, flip_design.schedule)[0]
    min_period = 2.0 * math.pi / p.freqs.max()
    real, per_period = linalg._linear_flow, []

    def recording(p_, t0, h, steps, *args, **kwargs):
        per_period.append(round(min_period / h))
        return real(p_, t0, h, steps, *args, **kwargs)

    monkeypatch.setattr(linalg, "_linear_flow", recording)
    vs.state_transition(p, 0.0, 10.0)
    # one pass averages the vibrated cluster and samples its growth
    vs.averaged_jacobians(flip_lin, flip_design.schedule)
    assert per_period == [48, 48]


@pytest.mark.parametrize("flow, floor", [("phase_network", 20), ("linear", 40)])
def test_explicit_step_floor(flip_kn, flip_inc, flip_design, flow, floor):
    # an explicit dt may take 40 steps for every 48 of the flow's default
    schedule = flip_design.schedule
    if flow == "phase_network":
        period = kd._fastest_period(flip_kn, schedule)

        def run(dt):
            return vs.simulate(flip_kn, schedule, np.zeros(flip_kn.net.n), 2 * period,
                               inc=flip_inc, dt=dt)
    else:
        p = kd.cluster_vibration_matrices(flip_inc, schedule)[0]
        period = 2.0 * math.pi / p.freqs.max()

        def run(dt):
            return vs.state_transition(p, 0.0, 2 * period, dt=dt)
    run(period / floor)
    with pytest.raises(StepTooCoarse, match=f"fewer than {floor} steps"):
        run(period / floor * (1 + 1e-9))


def test_long_run_is_decimated():
    kn = two_node_kn()
    traj = vs.simulate(kn, None, np.array([0.0, 0.1]), 300.0, inc=incidence(kn), dt=1e-3)
    assert len(traj.times) <= 100_001
    assert traj.times[-1] == pytest.approx(300.0, abs=1e-6)


def test_schedule_validation():
    entry = vs.VibrationEntry(amplitude=1.0, frequency=1.0)
    vs.VibrationSchedule(entries={(0, 1): entry}, epsilon=0.01)
    with pytest.raises(ValueError):
        vs.VibrationSchedule(entries={(0, 1): vs.VibrationEntry(1.0, -2.0)})
    with pytest.raises(ValueError):
        vs.VibrationSchedule(entries={(0, 1): vs.VibrationEntry(1.0, 1.0),
                                      (1, 0): vs.VibrationEntry(1.0, 2.0)})
    # equal carriers and irrational ratios are both fine
    vs.VibrationSchedule(entries={(0, 1): vs.VibrationEntry(1.0, 1.0),
                                  (1, 0): vs.VibrationEntry(-1.0, 1.0)})
    vs.VibrationSchedule(entries={(0, 1): vs.VibrationEntry(1.0, 1.0),
                                  (1, 0): vs.VibrationEntry(1.0, math.sqrt(2))})
    with pytest.raises(ValueError):
        vs.VibrationSchedule(entries={(0, 1): vs.VibrationEntry(0.0, 1.0)})


def test_schedule_check_edges(flip_kn):
    sched = vs.VibrationSchedule(
        entries={(0, 4): vs.VibrationEntry(1.0, 1.0)}, epsilon=0.01)
    with pytest.raises(ValueError):
        sched.check_edges(flip_kn.net, flip_kn.partition)  # inter edge
    missing = vs.VibrationSchedule(
        entries={(1, 3): vs.VibrationEntry(1.0, 1.0)}, epsilon=0.01)
    with pytest.raises(ValueError):
        missing.check_edges(flip_kn.net, flip_kn.partition)


def test_nonfinite_guard():
    net = vs.DirectedNetwork.from_edges(2, [(0, 1, 1.0), (1, 0, 1.0)])
    part = vs.ClusterPartition(net, ((0, 1),))
    kn = vs.KuramotoNetwork(net=net, omega=np.array([1.0, 1.0]), partition=part)
    with pytest.raises(NonFiniteState):
        vs.simulate(kn, None, np.array([np.nan, 0.0]), 1.0, inc=incidence(kn))


def test_nonfinite_construction_rejected():
    net = two_node_kn().net
    part = vs.ClusterPartition(net, ((0, 1),))
    for omega in ([np.nan, 1.0], [1.0, np.inf]):
        with pytest.raises(vs.GraphError):
            vs.KuramotoNetwork(net=net, omega=np.array(omega), partition=part)
    for bad in ((np.nan, 1.0, 0.0), (np.inf, 1.0, 0.0), (1.0, np.nan, 0.0),
                (1.0, np.inf, 0.0), (1.0, 1.0, np.nan), (1.0, 1.0, -np.inf)):
        with pytest.raises(ValueError, match="finite"):
            vs.VibrationEntry(*bad)
    entries = {(0, 1): vs.VibrationEntry(1.0, 1.0)}
    for eps in (np.nan, np.inf, 0.0, -0.1):
        with pytest.raises(ValueError, match="epsilon"):
            vs.VibrationSchedule(entries=entries, epsilon=eps)


def test_sample_perturbed_trajectories_horizon(flip_kn, flip_inc):
    with pytest.raises(ValueError, match="nonnegative span"):
        vs.sample_perturbed_trajectories(flip_kn, flip_inc, None, n_samples=2,
                                         t_end=-1.0)
    for dt in (0.0, -0.1, np.nan):
        with pytest.raises(ValueError, match="dt"):
            vs.simulate(flip_kn, None, np.zeros(8), 1.0, dt=dt, inc=flip_inc)
    trajs = vs.sample_perturbed_trajectories(flip_kn, flip_inc, None, n_samples=2,
                                             t_end=0.0)
    for tr in trajs:
        assert tr.theta.shape == (1, 8)
        assert tr.dt == 0.0
    assert vs.simulate(flip_kn, None, trajs[0].theta[0], 0.0, inc=flip_inc).dt == 0.0


def test_linearize_flagship_blocks(flip_kn, flip_inc, flip_lin):
    j1 = 0.05 * np.array([[-8, 0, 2], [-1, -4, -1], [1, -1, -5]], dtype=float)
    j2 = np.array([[-3, 0, 1], [-1, -2, 1], [1, 0, -3]], dtype=float)
    assert np.abs(flip_lin.J_blocks[0] - j1).max() < 1e-9
    assert np.abs(flip_lin.J_blocks[1] - j2).max() < 1e-9


def test_linearize_rejects_invariance_violations():
    net = vs.DirectedNetwork.from_edges(
        4, [(0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0),
            (0, 2, 1.0), (2, 0, 1.0)])
    part = vs.ClusterPartition(net, ((0, 1), (2, 3)))
    kn = vs.KuramotoNetwork(net=net, omega=np.array([1.0, 2.0, 3.0, 3.0]),
                            partition=part)
    with pytest.raises(InvarianceViolated):
        vs.linearize(kn, incidence(kn))


def test_linearize_matches_finite_differences():
    # single cluster: the reduced field is exactly x' = J x + O(x^2)
    net = vs.DirectedNetwork.from_edges(
        3, [(0, 1, 0.4), (1, 0, 0.7), (1, 2, 0.3), (2, 1, 0.5), (0, 2, 0.2),
            (2, 0, 0.9)])
    part = vs.ClusterPartition(net, ((0, 1, 2),))
    kn = vs.KuramotoNetwork(net=net, omega=np.array([1.1, 1.1, 1.1]),
                            partition=part)
    tree = vs.select_spanning_tree(net, part)
    inc = vs.build_incidence(net, part, tree)
    lin = vs.linearize(kn, inc)

    w = net.weight_matrix()

    def xdot(x):
        # lift tree-coordinate offsets to phases (root pinned at zero)
        theta = np.zeros(3)
        for p, (parent, child) in enumerate(inc.tree_edges):
            theta[child] = theta[parent] + x[p]
        diff = theta[None, :] - theta[:, None]
        td = kn.omega + (w * np.sin(diff)).sum(axis=1)
        return td @ inc.Bhat_intra

    h = 1e-7
    for p in range(2):
        col = (xdot(h * np.eye(2)[p]) - xdot(-h * np.eye(2)[p])) / (2 * h)
        assert col == pytest.approx(lin.J_blocks[0][:, p], abs=1e-6)


def test_perturbation_bounds_envelope(flip_kn, flip_inc, flip_lin):
    gamma = vs.perturbation_bounds(flip_lin)
    assert gamma.shape == (2, 2)
    m1 = flip_lin.M1
    r2 = flip_inc.R[flip_inc.m_intra:, : flip_inc.n_intra_coords]
    rng = np.random.default_rng(0)
    for _ in range(1000):
        d = np.diag(rng.uniform(-1.0, 1.0, size=m1.shape[1]))
        coupling = m1 @ d @ r2
        for k, sk in enumerate(flip_inc.coord_slices):
            for l, sl in enumerate(flip_inc.coord_slices):
                block = coupling[sk, sl]
                sigma = np.linalg.svd(block, compute_uv=False)[0]
                assert sigma <= gamma[k, l] + 1e-9


def test_perturbed_initial_states_structure(flip_inc):
    states = vs.perturbed_initial_states(flip_inc, 5, 0.2, seed=1, clusters=(0,))
    assert states.shape == (5, 8)
    assert np.abs(states[:, 4:]).max() == 0.0  # cluster 1 untouched
    for row in states:
        # the kick is normalized in tree coordinates, off the manifold
        assert np.linalg.norm(row @ flip_inc.Bhat_intra) == pytest.approx(0.2)
        assert np.abs(row @ flip_inc.Bhat[:, flip_inc.n_intra_coords:]).max() < 1e-12
    again = vs.perturbed_initial_states(flip_inc, 5, 0.2, seed=1, clusters=(0,))
    assert np.array_equal(states, again)
    with pytest.raises(ValueError):  # a kick of norm 0.2 spread over nothing
        vs.perturbed_initial_states(flip_inc, 1, 0.2, seed=1, clusters=())
    for n_samples in (0, -1):  # no ensemble at all
        with pytest.raises(ValueError, match="at least one sample"):
            vs.perturbed_initial_states(flip_inc, n_samples, 0.2, seed=1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for kick in (-0.2, np.nan, np.inf, -np.inf):  # no kick of that norm exists
            with pytest.raises(ValueError, match="kick must be non-negative and finite"):
                vs.perturbed_initial_states(flip_inc, 2, kick, seed=1)


def test_classifier_on_synthetic_trajectories():
    times = np.linspace(0.0, 20.0, 400)

    def fake(rate):
        x = np.exp(rate * times)[:, None] * np.array([[0.1, 0.05]])
        theta = np.zeros((len(times), 3))
        return Trajectory(times=times, theta=theta, x=x, dt=times[1] - times[0])

    stable = vs.classify_partial_stability([fake(-1.0), fake(-0.8)])
    assert stable.stable
    assert stable.slopes == pytest.approx((-1.0, -0.8), abs=1e-6)
    mixed = vs.classify_partial_stability([fake(-1.0), fake(0.3)])
    assert not mixed.stable
    with pytest.raises(ValueError, match="empty ensemble"):  # no runs show nothing
        vs.classify_partial_stability([])


def test_classifier_slope_ignores_noise_after_the_floor():
    # decay at rate -0.5 down to 1e-12, then round-off noise of any size
    # below the floor: the slope is fitted before the noise starts
    times = np.linspace(0.0, 80.0, 801)
    decay = 0.1 * np.exp(-0.5 * times)
    reached = decay < 1e-12
    rng = np.random.default_rng(4)
    for level in (1e-13, 1e-11, 1e-10):
        norms = np.where(reached, level * (1.0 + rng.uniform(0.0, 9.0, times.size)), decay)
        result = vs.classify_partial_stability([synthetic_run(times, norms)])
        assert result.slopes[0] == pytest.approx(-0.5, abs=1e-6)
        assert result.final_norms[0] == norms[-1]
        assert result.stable


def synthetic_run(times, norms):
    x = np.column_stack([norms, np.zeros_like(norms)])
    return Trajectory(times=times, theta=np.zeros((len(times), 3)), x=x,
                      dt=times[1] - times[0])


def test_classifier_run_regrowing_after_the_floor_stays_unstable():
    # decay at rate -0.5 to 1e-12, then growth at rate +0.5 to 1e-3 at the
    # horizon: the run ends above the floor, so the whole second half is fitted
    times = np.linspace(0.0, 92.0, 921)
    turn = 2.0 * np.log(0.1 / 1e-12)
    log_norms = np.where(times < turn, np.log(0.1) - 0.5 * times,
                         np.log(1e-12) + 0.5 * (times - turn))
    norms = np.exp(log_norms)
    assert 5e-4 < norms[-1] < 2e-3 and norms.min() < 1e-11
    result = vs.classify_partial_stability([synthetic_run(times, norms)])
    assert not result.stable
    tail = np.polyfit(times[460:], log_norms[460:], 1)[0]
    assert result.slopes[0] > 0.1
    assert result.slopes[0] == pytest.approx(tail, rel=1e-9)


def test_classifier_run_starting_below_the_floor_fits_two_samples():
    times = np.linspace(0.0, 10.0, 101)
    for norms in (np.zeros_like(times), np.full_like(times, 1e-14)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = vs.classify_partial_stability([synthetic_run(times, norms)])
        assert result.stable
        assert result.slopes[0] == pytest.approx(0.0, abs=1e-9)


def test_classifier_fits_short_runs_over_their_last_two_records():
    # runs of two and three records are fitted through their last two, with
    # no warning; a single record has no slope to fit
    for count in (2, 3):
        times = 0.5 * np.arange(count)
        norms = 0.1 * np.exp(-0.4 * times)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = vs.classify_partial_stability([synthetic_run(times, norms)])
        assert result.slopes[0] == pytest.approx(-0.4, rel=1e-12)
    single = Trajectory(times=np.zeros(1), theta=np.zeros((1, 3)), x=np.full((1, 2), 0.1),
                        dt=0.1)
    with pytest.raises(ValueError, match="at least two records"):
        vs.classify_partial_stability([single])


def test_classifier_on_the_shortest_flagship_runs(flip_kn, flip_inc):
    # a horizon shorter than one step records two samples per run, which
    # fit a finite slope; a zero horizon records one, which raises
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        runs = vs.sample_perturbed_trajectories(flip_kn, flip_inc, None, n_samples=2,
                                                t_end=1e-4)
        assert {len(run.times) for run in runs} == {2}
        assert np.isfinite(vs.classify_partial_stability(runs).slopes).all()
    runs = vs.sample_perturbed_trajectories(flip_kn, flip_inc, None, n_samples=2, t_end=0.0)
    with pytest.raises(ValueError, match="at least two records"):
        vs.classify_partial_stability(runs)


@settings(max_examples=300, deadline=None, database=None)
@given(end=st.integers(2, 5000), dt=st.floats(1e-3, 1.0), rate=st.floats(-5.0, 5.0),
       offset=st.floats(-700.0, 10.0), noise=st.sampled_from([0.0, 1e-12, 1e-3, 1.0, 30.0]),
       seed=st.integers(0, 2**32 - 1))
def test_classifier_slope_agrees_with_polyfit(end, dt, rate, offset, noise, seed):
    """The closed-form slope is np.polyfit's degree-1 coefficient to round-off
    on what the classifier fits: the later half of a time grid from 0 (at
    least two samples) against log-norms.  The absolute floor is 1e-12 while
    the log-norms stay within the time span; beyond it, it grows with their
    size over the span, the scale of either fit's round-off (a constant
    -690.8 over two samples 0.001 apart has slope 0, which np.polyfit
    misses by about 1e-10)."""
    half = min(end // 2, end - 2)
    times = dt * np.arange(end)[half:]
    rng = np.random.default_rng(seed)
    y = offset + rate * times + noise * rng.standard_normal(len(times))
    expect = np.polyfit(times, y, 1)[0]
    floor = 1e-12 * max(1.0, np.abs(y).max() / (times[-1] - times[0]))
    assert abs(kd._slope(times, y) - expect) <= 1e-10 * abs(expect) + floor


def test_classification_horizon_caps():
    fast = [np.array([[-1.0]])]
    assert classification_horizon(fast) == pytest.approx(200.0)
    slow = [np.array([[-0.01]])]
    assert classification_horizon(slow) == pytest.approx(500.0)


def test_sample_perturbed_trajectories_shapes(flip_kn, flip_inc):
    trajs = vs.sample_perturbed_trajectories(flip_kn, flip_inc, None,
                                             n_samples=3, kick=0.05, seed=2,
                                             t_end=1.0)
    assert len(trajs) == 3
    for tr in trajs:
        assert tr.theta.shape[1] == 8
        assert tr.x.shape[1] == flip_inc.n_intra_coords
    with pytest.raises(ValueError, match="at least one sample"):
        vs.sample_perturbed_trajectories(flip_kn, flip_inc, None, n_samples=0,
                                         kick=0.05, seed=2, t_end=1.0)


def test_batch_member_equals_single_run(flip_kn, flip_inc, flip_design):
    # every sample runs the same compiled stage code, so batching changes
    # nothing, bit for bit; 9 samples fill a lockstep block on either thread
    # count and leave samples over
    trajs = vs.sample_perturbed_trajectories(flip_kn, flip_inc, flip_design.schedule,
                                             n_samples=9, kick=0.1, seed=7, t_end=1.0)
    for tr in trajs:
        one = vs.simulate(flip_kn, flip_design.schedule, tr.theta[0], 1.0, inc=flip_inc)
        assert one.dt == tr.dt
        for name in ("times", "theta", "x"):
            assert np.array_equal(getattr(one, name), getattr(tr, name)), name


# ---------------------------------------------------------------------------
# parity of the compiled integrator with the dense-field numpy RK4 loop (kept
# verbatim below as the reference; only the decimation limit is read from
# the module, so monkeypatching it reaches both)


def reference_schedule_arrays(schedule):
    if schedule is None or not schedule.entries:
        return None
    rows, cols, amps, freqs, phases = [], [], [], [], []
    for (s, t), entry in schedule.sorted_items():
        rows.append(t)
        cols.append(s)
        amps.append(entry.amplitude / schedule.epsilon)
        freqs.append(entry.frequency / schedule.epsilon)
        phases.append(entry.phase)
    return (np.array(rows), np.array(cols), np.array(amps),
            np.array(freqs), np.array(phases))


def reference_integrate_batch(w, omega, sched, th0, t_end, dt):
    ns, n = th0.shape
    steps = max(1, int(np.ceil(t_end / dt - 1e-12))) if t_end > 0 else 0
    h = t_end / steps if steps else 0.0
    stride = max(1, math.ceil(steps / (kd.max_recorded_samples - 1)))
    n_rec = math.ceil(steps / stride) + 1
    times = np.empty(n_rec)
    recs = np.empty((ns, n_rec, n))
    times[0] = 0.0
    recs[:, 0, :] = th0

    if sched is None:
        w_static = w

        def field(t, th):
            diff = th[:, None, :] - th[:, :, None]  # (ns, i, j) -> th_j - th_i
            return omega + np.einsum("ij,sij->si", w_static, np.sin(diff))
    else:
        rows, cols, amps, freqs, phases = sched

        def field(t, th):
            wt = w.copy()
            wt[rows, cols] += amps * np.sin(freqs * t + phases)
            diff = th[:, None, :] - th[:, :, None]
            return omega + np.einsum("ij,sij->si", wt, np.sin(diff))

    th = th0.copy()
    t = 0.0
    rec_i = 1
    for step in range(1, steps + 1):
        k1 = field(t, th)
        k2 = field(t + 0.5 * h, th + 0.5 * h * k1)
        k3 = field(t + 0.5 * h, th + 0.5 * h * k2)
        k4 = field(t + h, th + h * k3)
        th = th + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        t += h
        if step % stride == 0 or step == steps:
            if not np.all(np.isfinite(th)):
                raise NonFiniteState(f"state became non-finite near t={t:g}")
            times[rec_i] = t
            recs[:, rec_i, :] = th
            rec_i += 1
    if not np.all(np.isfinite(th)):
        raise NonFiniteState("state became non-finite")
    return times[:rec_i], recs[:, :rec_i, :]


def phased(schedule):
    """The schedule with a distinct nonzero phase on every entry."""
    entries = {e: vs.VibrationEntry(entry.amplitude, entry.frequency, 0.3 + 0.7 * i)
               for i, (e, entry) in enumerate(schedule.sorted_items())}
    return vs.VibrationSchedule(entries=entries, epsilon=schedule.epsilon)


def assert_matches_reference(kn, inc, schedule, th0, t_end, dt, rel=1e-10):
    got = kd._run(kn, inc, schedule, th0, t_end, dt)
    times, recs = reference_integrate_batch(kn.net.weight_matrix(), kn.omega,
                                            reference_schedule_arrays(schedule),
                                            th0, t_end, dt)
    assert len(got) == len(th0)
    for tr, ref in zip(got, recs):
        assert tr.times.shape == times.shape
        assert np.abs(tr.times - times).max() <= rel * times.max()
        assert np.abs(tr.theta - ref).max() <= rel * np.abs(ref).max()
    return got


def count_kernel_calls(monkeypatch):
    """The step count of every kernel call from here on."""
    calls = []
    integrate = pk.integrate

    def counting(*args):
        calls.append(args[10])  # steps
        return integrate(*args)

    monkeypatch.setattr(pk, "integrate", counting)
    return calls


@pytest.mark.parametrize("batch", [3, 1])
@pytest.mark.parametrize("vibrated", [True, False], ids=["phased_schedule", "static"])
def test_integrator_matches_dense_loop(flip_kn, flip_inc, flip_design, batch, vibrated,
                                       monkeypatch):
    schedule = phased(flip_design.schedule) if vibrated else None
    if vibrated:
        assert all(entry.phase != 0.0 for entry in schedule.entries.values())
    calls = count_kernel_calls(monkeypatch)
    dt = kd._fastest_period(flip_kn, schedule) / default_oversampling
    steps = 549
    th0 = vs.perturbed_initial_states(flip_inc, batch, 0.2, seed=5)
    got = assert_matches_reference(flip_kn, flip_inc, schedule, th0, steps * dt, dt)
    assert len(got[0].times) == steps + 1
    assert calls == [steps]  # the whole run is one kernel call


def test_integrator_decimation_matches_dense_loop(flip_kn, flip_inc, flip_design,
                                                  monkeypatch):
    monkeypatch.setattr(kd, "max_recorded_samples", 7)
    schedule = phased(flip_design.schedule)
    calls = count_kernel_calls(monkeypatch)
    dt = kd._fastest_period(flip_kn, schedule) / default_oversampling
    steps = 549
    th0 = vs.perturbed_initial_states(flip_inc, 2, 0.2, seed=6)
    got = assert_matches_reference(flip_kn, flip_inc, schedule, th0, steps * dt, dt)
    assert calls == [steps]
    stride = math.ceil(steps / 6)  # records at steps 92, 184, ..., 460 and 549
    assert len(got[0].times) == math.ceil(steps / stride) + 1 == 7
    assert got[0].times[1:-1] == pytest.approx(stride * dt * np.arange(1, 6), rel=1e-12)
    assert got[0].times[-1] == steps * dt


def test_decimated_run_records_the_end_state(flip_kn, flip_inc, flip_design, monkeypatch):
    """A strided vibrated run whose step count is not a multiple of the
    stride keeps every stride-th state of the undecimated run and its final
    state, recorded at t_end, bit for bit."""
    schedule = phased(flip_design.schedule)
    dt = kd._fastest_period(flip_kn, schedule) / default_oversampling
    th0 = vs.perturbed_initial_states(flip_inc, 2, 0.2, seed=6)
    t_end = 549 * dt
    full = kd._run(flip_kn, flip_inc, schedule, th0, t_end, dt)
    monkeypatch.setattr(kd, "max_recorded_samples", 7)
    strided = kd._run(flip_kn, flip_inc, schedule, th0, t_end, dt)
    for tr, ref in zip(strided, full):
        assert len(tr.times) == 7 and tr.times[-1] == t_end
        assert np.array_equal(tr.times[:-1], ref.times[::92])
        assert np.array_equal(tr.theta[:-1], ref.theta[::92])
        assert np.array_equal(tr.theta[-1], ref.theta[-1])
        assert np.array_equal(tr.x[-1], ref.x[-1])


def assert_pair_table_reproduces_edges(edges, pair, ends, sign):
    """Every edge (s, t) reads sin(x_t - x_s) as sign * sin(x_a - x_b)."""
    assert pair.shape == sign.shape == (len(edges),)
    assert ends.shape == (len(ends), 2) and set(pair) == set(range(len(ends)))
    for (s, t), p, sg in zip(edges, pair, sign):
        assert (tuple(ends[p]), sg) in {((t, s), 1.0), ((s, t), -1.0)}


def test_flagship_pair_table_has_one_pair_per_reciprocal_edge_pair(flip_inc):
    pair, ends, sign = kd._edge_pairs(flip_inc.edges)
    assert len(flip_inc.edges) == 30 and len(ends) == 15
    assert_pair_table_reproduces_edges(flip_inc.edges, pair, ends, sign)
    assert np.all(np.bincount(pair) == 2) and sign.sum() == 0.0


def test_one_way_edges_get_one_pair_each():
    net = vs.DirectedNetwork.from_edges(4, [(0, 1, 1.0), (1, 2, 0.5), (2, 3, 2.0),
                                            (3, 0, 1.5), (0, 2, 0.7)])
    inc = incidence(vs.KuramotoNetwork(
        net=net, omega=np.zeros(4), partition=vs.ClusterPartition(net, ((0, 1, 2, 3),))))
    pair, ends, sign = kd._edge_pairs(inc.edges)
    assert len(ends) == len(inc.edges) == 5 and np.all(sign == 1.0)
    assert_pair_table_reproduces_edges(inc.edges, pair, ends, sign)


def mixed_kn():
    """Reciprocal pairs of unequal weights inside and across clusters next to
    one-way edges of both kinds."""
    net = vs.DirectedNetwork.from_edges(5, [
        (0, 1, 1.0), (1, 0, 0.4), (1, 2, 0.8), (2, 0, 0.6),  # cluster (0, 1, 2)
        (3, 4, 1.2), (4, 3, 0.7),                            # cluster (3, 4)
        (2, 4, 0.5), (4, 1, 0.3), (0, 3, 0.9), (3, 0, 0.2)])
    return vs.KuramotoNetwork(net=net, omega=np.array([1.0, 1.2, 0.9, 2.0, 2.1]),
                              partition=vs.ClusterPartition(net, ((0, 1, 2), (3, 4))))


def test_mixed_network_pair_table():
    inc = incidence(mixed_kn())
    pair, ends, sign = kd._edge_pairs(inc.edges)
    assert len(inc.edges) == 10 and len(ends) == 7 and (sign == -1.0).sum() == 3
    assert_pair_table_reproduces_edges(inc.edges, pair, ends, sign)


@pytest.mark.parametrize("batch", [3, 1])
@pytest.mark.parametrize("vibrated", [True, False], ids=["vibrated", "static"])
def test_mixed_network_matches_dense_loop(batch, vibrated, monkeypatch):
    # (0, 1) and (4, 3) are vibrated and their reverses are not, so the two
    # edges of those pairs carry different weights on every grid point; one
    # of them runs against its pair, so its carrier is negated too
    kn = mixed_kn()
    inc = incidence(kn)
    schedule = vs.VibrationSchedule({(0, 1): vs.VibrationEntry(0.02, 1.0, 0.3),
                                     (4, 3): vs.VibrationEntry(-0.03, math.sqrt(2), 1.1),
                                     (1, 2): vs.VibrationEntry(0.01, 1.0, 2.0)},
                                    epsilon=0.05) if vibrated else None
    if vibrated:
        _, _, sign = kd._edge_pairs(inc.edges)
        assert {sign[inc.edges.index(e)] for e in schedule.entries} == {1.0, -1.0}
    calls = count_kernel_calls(monkeypatch)
    dt = kd._fastest_period(kn, schedule) / default_oversampling
    steps = 293
    th0 = np.random.default_rng(7).normal(0.0, 1.0, (batch, 5))
    got = assert_matches_reference(kn, inc, schedule, th0, steps * dt, dt)
    assert len(got[0].times) == steps + 1
    assert calls == [steps]


def test_vibrated_run_going_non_finite_names_the_break(monkeypatch):
    # a carrier of amplitude 1e308 overflows the RK4 update only once it has
    # grown, partway through the run; power-of-two steps make the shorter
    # reruns below repeat the same grid exactly
    net = two_node_kn().net
    kn = vs.KuramotoNetwork(net=net, omega=np.zeros(2),
                            partition=vs.ClusterPartition(net, ((0, 1),)))
    sched = vs.VibrationSchedule({(0, 1): vs.VibrationEntry(1e308, 0.01)}, epsilon=1.0)
    dt = 2.0 ** -4
    th0 = np.array([0.0, 0.5])
    calls = count_kernel_calls(monkeypatch)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(NonFiniteState) as info:
            vs.simulate(kn, sched, th0, 4096 * dt, inc=incidence(kn), dt=dt)
        t_bad = float(re.search(r"near t=(\S+)", str(info.value)).group(1))
        step = round(t_bad / dt)
        assert step * dt == pytest.approx(t_bad, abs=1e-3)  # "%g" keeps 6 digits
        assert calls == [4096]
        assert 512 < step < 4096  # partway
        before = vs.simulate(kn, sched, th0, (step - 1) * dt, inc=incidence(kn), dt=dt)
        assert np.all(np.isfinite(before.theta))
        with pytest.raises(NonFiniteState, match=f"near t={t_bad:g}"):
            vs.simulate(kn, sched, th0, step * dt, inc=incidence(kn), dt=dt)


def test_incidence_of_another_network_rejected(flip_kn, flip_inc):
    kn = two_node_kn()
    with pytest.raises(vs.GraphError, match="different network"):
        vs.simulate(kn, None, np.zeros(2), 1.0, inc=flip_inc)
    heavier = vs.DirectedNetwork.from_edges(
        flip_kn.net.n, [(s, t, 2.0 * w) for (s, t), w in flip_kn.net.weights.items()])
    heavy_kn = vs.KuramotoNetwork(net=heavier, omega=flip_kn.omega,
                                  partition=vs.ClusterPartition(heavier, flip_kn.partition.clusters))
    with pytest.raises(vs.GraphError, match="different network"):
        vs.simulate(heavy_kn, None, np.zeros(8), 1.0, inc=flip_inc)


def test_run_is_set_up_once(flip_kn, flip_inc, flip_design, monkeypatch):
    """A run, vibrated or not, is one kernel call, which checks the index
    ranges once."""
    bounds = []
    within = pk._within

    def counting_within(index, bound):
        bounds.append(bound)
        return within(index, bound)

    monkeypatch.setattr(pk, "_within", counting_within)
    calls = count_kernel_calls(monkeypatch)
    n, m = flip_kn.net.n, len(flip_inc.edges)
    for schedule, t_end in ((flip_design.schedule, 0.5), (None, 5.0)):
        trajs = vs.sample_perturbed_trajectories(flip_kn, flip_inc, schedule, n_samples=3,
                                                 kick=0.1, seed=1, t_end=t_end)
        # dst, pair, ends and the vibrated columns, each checked once
        assert calls == [len(trajs[0].times) - 1] and bounds == [n, m // 2, n, m]
        calls.clear()
        bounds.clear()


@settings(max_examples=40, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 9), steps=st.integers(1, 80),
       data=st.data())
def test_random_vibrated_networks_match_dense_loop(seed, batch, steps, data):
    """Random networks of reciprocal and one-way edges, vibrated on a random
    subset of edges (possibly none, possibly edges running against their
    pair), against the dense-field loop."""
    rng = np.random.default_rng(seed)
    net, part = random_clustered_network(rng, n_max=7)
    kn = vs.KuramotoNetwork(net=net, omega=rng.normal(size=net.n), partition=part)
    inc = incidence(kn)
    vibrated = data.draw(st.lists(st.sampled_from(inc.edges), unique=True, max_size=5))
    schedule = vs.VibrationSchedule(
        {e: vs.VibrationEntry(float(rng.uniform(0.1, 1.0)), math.sqrt(2 + i),
                              float(rng.uniform(0.0, 2 * math.pi)))
         for i, e in enumerate(vibrated)}, epsilon=0.1)
    _, _, sign = kd._edge_pairs(inc.edges)
    note(f"vibrated {vibrated}, against their pair: "
         f"{[e for e in vibrated if sign[inc.edges.index(e)] < 0]}")
    dt = kd._fastest_period(kn, schedule) / default_oversampling
    th0 = rng.normal(size=(batch, net.n))
    times, recs = kd._integrate_batch(inc, kn.omega, schedule, th0, steps * dt, dt)
    ref_times, ref = reference_integrate_batch(kn.net.weight_matrix(), kn.omega,
                                               reference_schedule_arrays(schedule),
                                               th0, steps * dt, dt)
    assert times.shape == ref_times.shape
    assert np.abs(times - ref_times).max() <= 1e-10 * ref_times.max()
    assert np.abs(recs - ref).max() <= 1e-10 * np.abs(ref).max()
