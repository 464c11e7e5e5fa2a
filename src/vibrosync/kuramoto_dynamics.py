"""Phase-oscillator networks: simulation, synchronization errors,
linearization around cluster-synchronized motion and perturbation bounds."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import _phase_kernel
from .graph_core import (ClusterPartition, DirectedNetwork, GraphError,
                         IncidenceSet, check_invariance, Edge)
from .linalg import SinusoidSum, _resolve_step, _step_count, conjugated_average

# RK4 steps per fastest period of the phase network: the coarsest count whose
# classifier slopes, final ratios and end-of-run sync errors on the flagship's
# sweep ensembles stay within 1e-3 relative of a run at four times the steps
# (16 misses it); the linear flows keep linalg.default_oversampling
phase_oversampling = 24
max_recorded_samples = 100_000
rational_ratio_tolerance = 1e-9
max_rational_denominator = 32
classification_slope_threshold = -1e-3
classification_decay_factor = 10.0
classification_converged_floor = 1e-9
classification_horizon_cap = 500.0
classification_horizon_rates = 200.0
envelope_safety = 1.05


class NonFiniteState(RuntimeError):
    pass


class InvarianceViolated(ValueError):
    def __init__(self, message: str, violations):
        super().__init__(message)
        self.violations = violations


@dataclass(frozen=True)
class KuramotoNetwork:
    """A coupled phase-oscillator network with a cluster partition."""

    net: DirectedNetwork
    omega: np.ndarray
    partition: ClusterPartition

    def __post_init__(self):
        omega = np.asarray(self.omega, dtype=float)
        if omega.shape != (self.net.n,):
            raise GraphError("omega must have one entry per node")
        if not np.all(np.isfinite(omega)):
            raise GraphError("omega must be finite")
        object.__setattr__(self, "omega", omega)
        if self.partition.net != self.net:
            raise GraphError("partition belongs to a different network")


@dataclass(frozen=True)
class VibrationEntry:
    amplitude: float
    frequency: float
    phase: float = 0.0

    def __post_init__(self):
        if not all(map(math.isfinite, (self.amplitude, self.frequency, self.phase))):
            raise ValueError("vibration amplitude, frequency and phase must be finite")


@dataclass(frozen=True)
class VibrationSchedule:
    """Open-loop sinusoidal weight modulations on existing edges.

    Edge ``(s, t)`` receives the additive weight
    ``amplitude / epsilon * sin(frequency * t / epsilon + phase)``.
    Distinct frequencies must not be in an (approximately) rational ratio;
    several edges may share one frequency, which is how a single carrier
    wave is split across an edge pair.
    """

    entries: Dict[Edge, VibrationEntry] = field(compare=False)
    epsilon: float = 0.01

    def __post_init__(self):
        if not 0 < self.epsilon < math.inf:
            raise ValueError("epsilon must be positive and finite")
        freqs: List[float] = []
        for e, entry in self.entries.items():
            if entry.frequency <= 0:
                raise ValueError(f"vibration frequency on edge {e} must be positive")
            if entry.amplitude == 0.0:
                raise ValueError(f"vibration amplitude on edge {e} must be nonzero")
            freqs.append(entry.frequency)
        distinct: List[float] = []
        for f in freqs:
            if not any(abs(f - g) <= 1e-12 * max(f, g) for g in distinct):
                distinct.append(f)
        for i in range(len(distinct)):
            for jj in range(i + 1, len(distinct)):
                ratio = distinct[i] / distinct[jj]
                for q in range(1, max_rational_denominator + 1):
                    p = round(ratio * q)
                    if p > 0 and abs(ratio - p / q) < rational_ratio_tolerance:
                        raise ValueError(
                            f"frequencies {distinct[i]:g} and {distinct[jj]:g} are in a "
                            f"rational ratio {p}/{q}; they must be incommensurable"
                        )

    @property
    def max_frequency(self) -> float:
        return max((e.frequency for e in self.entries.values()), default=0.0)

    def check_edges(self, net: DirectedNetwork, partition: ClusterPartition) -> None:
        label = partition.node_to_cluster()
        for (s, t) in self.entries:
            if not net.has_edge(s, t):
                raise GraphError(f"vibrated edge ({s},{t}) does not exist in the network")
            if label[s] != label[t]:
                raise GraphError(f"vibrated edge ({s},{t}) crosses clusters")

    def sorted_items(self) -> List[Tuple[Edge, VibrationEntry]]:
        return sorted(self.entries.items(), key=lambda kv: kv[0])


@dataclass(frozen=True)
class Trajectory:
    """Recorded phases and tree coordinates of one simulation run.

    ``theta`` is unwrapped (continuous); use :meth:`wrapped_theta` for
    phases folded into [0, 2pi).  ``x`` holds the intra-cluster tree
    coordinates of the unwrapped phases.
    """

    times: np.ndarray
    theta: np.ndarray
    x: np.ndarray
    dt: float

    def wrapped_theta(self) -> np.ndarray:
        return np.mod(self.theta, 2.0 * np.pi)


def geodesic_distance(a, b):
    """Shortest angular distance on the circle, elementwise."""
    d = np.asarray(a, dtype=float) - np.asarray(b, dtype=float)
    return np.abs(np.mod(d + np.pi, 2.0 * np.pi) - np.pi)


def sync_error(theta, partition: ClusterPartition):
    """Largest intra-cluster pairwise geodesic distance.

    Works on a single phase vector or on an array of them (time along the
    leading axes).
    """
    theta = np.asarray(theta, dtype=float)
    worst = np.zeros(theta.shape[:-1])
    for cluster in partition.clusters:
        idx = list(cluster)
        for a in range(len(idx) - 1):  # node a against every later node at once
            d = geodesic_distance(theta[..., idx[a]:idx[a] + 1], theta[..., idx[a + 1:]])
            worst = np.maximum(worst, d.max(axis=-1))
    return worst if worst.shape else float(worst)


# ---------------------------------------------------------------------------
# simulation


def _characteristic_period(kn: KuramotoNetwork) -> float:
    w = kn.net.weight_matrix()
    rate = float(np.max(np.abs(kn.omega) + np.abs(w).sum(axis=1)))
    return 2.0 * np.pi / max(rate, 1.0)


def _fastest_period(kn: KuramotoNetwork, schedule: Optional[VibrationSchedule]) -> float:
    """The fastest period present: natural drift, coupling or vibration carrier."""
    period = _characteristic_period(kn)
    if schedule is not None and schedule.entries:
        vib_period = schedule.epsilon * 2.0 * np.pi / schedule.max_frequency
        period = min(period, vib_period)
    return period


def _edge_pairs(edges: Sequence[Edge]) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The unordered coupled pairs {s, t} of ``edges``: each edge's pair
    index, the pairs' ends (t, s) taken from their first edge (s, t), and
    each edge's sign, -1 for an edge running the other way, so that
    ``sin(theta_t - theta_s) = sign_e sin(theta_a - theta_b)`` for pair ends
    (a, b)."""
    first: Dict[Edge, int] = {}
    pair, sign = [], []
    for s, t in edges:
        if (t, s) in first:
            pair.append(first[(t, s)])
            sign.append(-1.0)
        else:
            pair.append(first.setdefault((s, t), len(first)))
            sign.append(1.0)
    ends = np.array([(t, s) for s, t in first], dtype=np.intc).reshape(-1, 2)
    return np.array(pair, dtype=np.intc), ends, np.array(sign)


def _integrate_batch(inc: IncidenceSet, omega: np.ndarray,
                     schedule: Optional[VibrationSchedule], th0: np.ndarray,
                     t_end: float, dt: float) -> Tuple[np.ndarray, np.ndarray]:
    """Fixed-step RK4 for a batch of phase vectors; returns the record times
    and the records: the initial state, every ``stride``-th state and the
    final state at ``t_end``, with the stride chosen so that there are at
    most ``max_recorded_samples`` of them.

    The whole run is one call of the compiled kernel
    (:func:`._phase_kernel.integrate`), which steps the field
    ``omega_t - sum over edges (s, t) of w_e sin(theta_t - theta_s)`` for
    every sample, evaluates the vibrated edges' distinct carriers on the
    half-step grid itself, each once per half-step on each of its threads,
    and returns the first step whose state is not finite, raised here as
    NonFiniteState.  The kernel takes one sine per coupled pair
    (``_edge_pairs``): an edge running against its pair's first edge gets
    its base weight and carrier amplitude negated, so reciprocal edges
    share one sine.  The two edges across which a slot's carrier is split
    share that carrier's sine as well.
    """
    ns, n = th0.shape
    steps = _step_count(t_end, dt)
    h = t_end / steps if steps else 0.0
    # every stride-th state and the last: at most max_recorded_samples
    stride = max(1, -(-steps // (max_recorded_samples - 1)))
    n_rec = -(-steps // stride) + 1
    recs = np.empty((ns, n_rec, n))
    recs[:, 0, :] = th0
    if not np.all(np.isfinite(th0)):
        raise NonFiniteState("state became non-finite near t=0")

    pair, ends, sign = _edge_pairs(inc.edges)
    items = schedule.sorted_items() if schedule is not None else []
    cols = np.array([inc.edge_column(e) for e, _ in items], dtype=np.intc)
    vib = np.array([(v.amplitude, v.frequency, v.phase) for _, v in items]).reshape(-1, 3)
    epsilon = schedule.epsilon if items else 1.0
    dst = np.array([t for _, t in inc.edges], dtype=np.intc)
    step = _phase_kernel.integrate(dst, pair, ends, np.asarray(omega, dtype=float),
                                   sign * inc.W_diag, cols, sign[cols] * (vib[:, 0] / epsilon),
                                   vib[:, 1] / epsilon, vib[:, 2], h, steps, stride, recs)
    if step:
        raise NonFiniteState(f"state became non-finite near t={step * h:g}")
    times = (np.arange(n_rec) * stride) * h
    if steps % stride:
        times[-1] = t_end
    return times, recs


def _run(kn: KuramotoNetwork, inc: IncidenceSet, schedule: Optional[VibrationSchedule],
         th0: np.ndarray, t_end: float, dt: Optional[float]) -> List[Trajectory]:
    """Check the schedule, horizon and step, then integrate a batch of
    initial phase vectors into one Trajectory each; a zero horizon records
    the initial state alone, with ``dt = 0``."""
    if inc.net != kn.net or inc.net.weights != kn.net.weights:
        raise GraphError("incidence set was built for a different network")
    if schedule is not None:
        schedule.check_edges(kn.net, kn.partition)
    dt = _resolve_step(t_end, dt, _fastest_period(kn, schedule), phase_oversampling)
    times, recs = _integrate_batch(inc, kn.omega, schedule, th0, t_end, dt)
    used_dt = dt if t_end > 0 else 0.0
    return [Trajectory(times=times, theta=theta, x=theta @ inc.Bhat_intra, dt=used_dt)
            for theta in recs]


def simulate(kn: KuramotoNetwork, schedule: Optional[VibrationSchedule],
             theta0: Sequence[float], t_end: float, *, inc: IncidenceSet,
             dt: Optional[float] = None) -> Trajectory:
    """Integrate the (optionally vibrated) network from ``theta0``.

    The default step takes ``phase_oversampling`` (24) steps per fastest
    period present (natural drift, coupling, or vibration carrier); an
    explicit ``dt`` coarser than 1/20 of that period raises StepTooCoarse, a
    non-positive ``dt`` or a negative ``t_end`` ValueError.
    """
    theta0 = np.asarray(theta0, dtype=float)
    if theta0.shape != (kn.net.n,):
        raise ValueError("theta0 must have one phase per node")
    return _run(kn, inc, schedule, theta0[None, :], t_end, dt)[0]


# ---------------------------------------------------------------------------
# linearization around cluster-synchronized motion


@dataclass(frozen=True)
class Linearization:
    """Reduced Jacobian blocks of the intra-cluster error dynamics of
    ``kn`` in the coordinates of ``inc``.

    The intra Jacobian is block diagonal over clusters; ``J_blocks`` holds
    its diagonal blocks in cluster order.  ``M1`` collects the rows through
    which inter-cluster edges force the intra coordinates, so the inter
    forcing is ``M1 @ diag(sin(R2 x + R3 y)-terms)``.
    """

    kn: KuramotoNetwork
    inc: IncidenceSet
    J_blocks: Tuple[np.ndarray, ...]
    M1: np.ndarray


def linearize(kn: KuramotoNetwork, inc: IncidenceSet) -> Linearization:
    res = check_invariance(kn.net, kn.partition, kn.omega)
    if not res.ok:
        raise InvarianceViolated(
            "cluster-synchronized states are not invariant for this network",
            res.violations,
        )
    m_i = inc.m_intra
    bhat_i = inc.Bhat_intra
    weighted_pos_intra = inc.Bpos[:, :m_i] * inc.W_intra
    j = -(bhat_i.T @ weighted_pos_intra @ inc.R1)
    blocks = tuple(j[sl, sl].copy() for sl in inc.coord_slices)
    weighted_pos_inter = inc.Bpos[:, m_i:] * inc.W_inter
    m1 = -(bhat_i.T @ weighted_pos_inter)
    return Linearization(kn=kn, inc=inc, J_blocks=blocks, M1=m1)


# ---------------------------------------------------------------------------
# slot matrices of a schedule (reduced-coordinate vibration influence)


def edge_influence(inc: IncidenceSet, e: Edge) -> np.ndarray:
    """Influence of a unit vibration on edge ``e`` on the reduced Jacobian.

    Rank-one: (tree coordinates of the target node) times (the tree-path
    row of the edge).
    """
    col = inc.edge_column(e)
    left = -inc.Bhat_intra.T @ inc.Bpos[:, col]
    right = inc.R[col, : inc.n_intra_coords]
    return np.outer(left, right)


def cluster_vibration_matrices(inc: IncidenceSet, schedule: Optional[VibrationSchedule]
                               ) -> Tuple[Optional[SinusoidSum], ...]:
    """Per-cluster vibration matrix P(t) of ``schedule`` in reduced
    coordinates (fast time).

    Cluster k gets the sinusoid sum of its vibrated edges, in the order of
    ``schedule.sorted_items()``, each term carrying the edge's reduced
    influence restricted to the cluster's coordinate block; a cluster
    without vibrated edges (every cluster when ``schedule`` is None) gets
    None.  A vibrated edge missing from the network, or crossing clusters,
    raises GraphError.
    """
    label = inc.partition.node_to_cluster()
    terms: List[list] = [[] for _ in inc.partition.clusters]
    if schedule is not None:
        schedule.check_edges(inc.net, inc.partition)
        for (s, t), entry in schedule.sorted_items():
            sl = inc.coord_slices[label[t]]
            terms[label[t]].append((entry.amplitude, entry.frequency, entry.phase,
                                    edge_influence(inc, (s, t))[sl, sl]))
    return tuple(SinusoidSum(*zip(*tk)) if tk else None for tk in terms)


# ---------------------------------------------------------------------------
# averaged Jacobians and perturbation bounds


def averaged_jacobians(lin: Linearization, schedule: Optional[VibrationSchedule]
                       ) -> Tuple[Tuple[np.ndarray, ...], Optional[np.ndarray]]:
    """Per-cluster averaged Jacobians under a vibration schedule, and the
    sampled conjugation growth of their vibration flows.

    Each block is conjugate-averaged along the flow dPsi/dt = P_k(t) Psi,
    Psi(0) = I, of its cluster's vibration matrix, whose pass also samples
    row k of ``growth`` (r, 2), ``(sup |Psi|_F, sup |Psi^-1|_F)`` over the
    first window (see ``conjugated_average``).  A cluster without vibration
    keeps a copy of its Jacobian and growth (1, 1); ``growth`` is None when
    no cluster vibrates.
    """
    ps = cluster_vibration_matrices(lin.inc, schedule)
    growth = np.ones((len(ps), 2))
    blocks = []
    for k, (blk, p) in enumerate(zip(lin.J_blocks, ps)):
        if p is None:
            blocks.append(blk.copy())
            continue
        blocks.append(conjugated_average(blk, p, growth=growth[k]))
    return tuple(blocks), growth if any(p is not None for p in ps) else None


def perturbation_bounds(lin: Linearization,
                        growth: Optional[np.ndarray] = None) -> np.ndarray:
    """Entrywise bound gamma[k, l] on the inter-cluster forcing gains.

    Combines the static envelope of the inter-edge rows (the largest
    singular value of each cluster block of ``|M1| |R2|``) with the worst
    sampled conjugation growth ``sup |Psi^-1|_k sup |Psi|_l`` of the
    per-cluster vibration flows, times ``envelope_safety``: ``growth`` is
    the growth ``averaged_jacobians`` returns, None (the envelope alone)
    when no cluster vibrates.  Each growth is the largest Frobenius norm
    sampled after a step of the flow, an upper bound on the spectral norm
    at every sample.
    """
    inc = lin.inc
    r = inc.partition.r
    envelope = np.abs(lin.M1) @ np.abs(inc.R2)
    gains = np.zeros((r, r))
    for k, sk in enumerate(inc.coord_slices):
        for l, sl_ in enumerate(inc.coord_slices):
            block = envelope[sk, sl_]
            if block.size:
                gains[k, l] = np.linalg.svd(block, compute_uv=False)[0]
    if growth is None:
        return gains
    return np.outer(growth[:, 1], growth[:, 0]) * envelope_safety * gains


# ---------------------------------------------------------------------------
# empirical classification


@dataclass(frozen=True)
class Classification:
    stable: bool
    slopes: Tuple[float, ...]
    initial_norms: Tuple[float, ...]
    final_norms: Tuple[float, ...]


def classification_horizon(j_blocks: Sequence[np.ndarray]) -> float:
    """Suggested ensemble horizon from the slowest predicted decay rate."""
    rates = []
    for blk in j_blocks:
        rates.extend(np.abs(np.linalg.eigvals(blk).real))
    slowest = min((r for r in rates if r > 1e-12), default=1.0)
    return float(min(classification_horizon_cap,
                     classification_horizon_rates / slowest))


def perturbed_initial_states(inc: IncidenceSet, n_samples: int, kick: float,
                             seed: int,
                             clusters: Optional[Sequence[int]] = None) -> np.ndarray:
    """Random phase vectors whose intra-cluster coordinates have norm ``kick``.

    ``clusters`` restricts the kick to the tree coordinates of the listed
    clusters (all clusters by default); an empty selection, fewer than one
    sample, or a kick that is negative or not finite raises ValueError.
    """
    if n_samples < 1:
        raise ValueError(f"an ensemble needs at least one sample, got n_samples={n_samples}")
    if not 0 <= kick < math.inf:
        raise ValueError(f"the kick must be non-negative and finite, got {kick!r}")
    if clusters is not None and len(clusters) == 0:
        raise ValueError("perturbed clusters must name at least one cluster")
    n = inc.net.n
    rng = np.random.default_rng(seed)
    gram = inc.Bhat_intra.T @ inc.Bhat_intra
    lift = inc.Bhat_intra @ np.linalg.inv(gram)
    mask = np.ones(inc.n_intra_coords)
    if clusters is not None:
        mask = np.zeros(inc.n_intra_coords)
        for k in clusters:
            mask[inc.coord_slices[k]] = 1.0

    # per-cluster constants cancel the lift's spill into the inter
    # coordinates, so the kick leaves the inter coordinates at zero;
    # the free global constant is pinned so the lowest-indexed
    # unkicked cluster stays exactly at zero
    label = inc.partition.node_to_cluster()
    inter_tree = inc.tree_edges[inc.n_intra_coords:]
    kicked = set(range(inc.partition.r)) if clusters is None else set(clusters)
    unkicked = sorted(set(range(inc.partition.r)) - kicked)

    def level(theta: np.ndarray) -> np.ndarray:
        offsets = {0: 0.0}
        pending = list(inter_tree)
        while pending:
            for e in list(pending):
                s, t = e
                ks, kt = label[s], label[t]
                if ks in offsets and kt not in offsets:
                    offsets[kt] = offsets[ks] + theta[s] - theta[t]
                elif kt in offsets and ks not in offsets:
                    offsets[ks] = offsets[kt] + theta[t] - theta[s]
                elif ks not in offsets:
                    continue
                pending.remove(e)
        gauge = offsets[unkicked[0]] if unkicked else 0.0
        return theta + np.array([offsets[label[i]] - gauge for i in range(n)])

    th0 = np.empty((n_samples, n))
    for s in range(n_samples):
        v = rng.standard_normal(inc.n_intra_coords) * mask
        v *= kick / np.linalg.norm(v)
        th0[s] = level(lift @ v)
    return th0


def sample_perturbed_trajectories(kn: KuramotoNetwork, inc: IncidenceSet,
                                  schedule: Optional[VibrationSchedule],
                                  n_samples: int = 10, kick: float = 0.1,
                                  seed: int = 0, t_end: float = 240.0,
                                  clusters: Optional[Sequence[int]] = None) -> List[Trajectory]:
    """Ensemble of runs from random intra-cluster kicks of fixed norm."""
    th0 = perturbed_initial_states(inc, n_samples, kick, seed, clusters=clusters)
    return _run(kn, inc, schedule, th0, t_end, None)


def _slope(t: np.ndarray, y: np.ndarray) -> float:
    """Least-squares slope of the line through the points (t, y), in closed
    form about the means: sum (t - t_bar)(y - y_bar) / sum (t - t_bar)^2.
    The sums are numpy's own pairwise reductions, not BLAS dot products,
    whose bits depend on how many threads OpenBLAS splits them over."""
    tc = t - t.mean()
    return float(np.add.reduce(tc * (y - y.mean())) / np.add.reduce(tc * tc))


def classify_partial_stability(trajectories: Sequence[Trajectory]) -> Classification:
    """Empirical verdict from the tail behaviour of intra-cluster errors.

    Stable means every run either ends below an absolute convergence floor
    or shows a fitted log-norm slope below the threshold over the second
    half of the horizon while ending at least a factor
    ``classification_decay_factor`` below its initial error.  A run that ends below the floor is cut at its
    first sample below it before the slope is fitted over the second half
    of what is left (at least two samples), so its reported slope measures
    the decay and not the round-off noise after it; such a run needs no
    slope test, so the cut never changes the verdict.  Every slope is fitted
    over at least two samples, so a run of fewer than four records is fitted
    over its last two; an empty ensemble, or a run of a single record, shows
    nothing and raises ValueError.
    """
    if len(trajectories) == 0:
        raise ValueError("cannot classify an empty ensemble: no trajectories given")
    slopes, initials, finals = [], [], []
    stable = True
    for traj in trajectories:
        norms = np.linalg.norm(traj.x, axis=1)
        norms = np.maximum(norms, 1e-300)
        if len(norms) < 2:
            raise ValueError("a run needs at least two records to fit a slope")
        end = len(norms)
        if norms[-1] < classification_converged_floor:
            end = max(int(np.argmax(norms < classification_converged_floor)) + 1, 2)
        half = min(end // 2, end - 2)
        slope = _slope(traj.times[half:end], np.log(norms[half:end]))
        slopes.append(slope)
        initials.append(float(norms[0]))
        finals.append(float(norms[-1]))
        if finals[-1] < classification_converged_floor:
            continue
        if not (slope < classification_slope_threshold
                and finals[-1] < initials[-1] / classification_decay_factor):
            stable = False
    return Classification(stable=stable, slopes=tuple(slopes),
                          initial_norms=tuple(initials), final_norms=tuple(finals))
