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
from .linalg import (SinusoidSum, _linear_flow, _resolve_step, conjugated_average,
                     horizon_periods)

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
    every sample, evaluates the vibrated edges' carriers on the half-step
    grid itself, and returns the first step whose state is not finite,
    raised here as NonFiniteState.  The kernel takes one sine per coupled
    pair (``_edge_pairs``): an edge running against its pair's first edge
    gets its base weight and carrier amplitude negated, so reciprocal edges
    share one sine.
    """
    ns, n = th0.shape
    steps = max(1, int(np.ceil(t_end / dt - 1e-12))) if t_end > 0 else 0
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
    dt = _resolve_step(t_end, dt, _fastest_period(kn, schedule))
    times, recs = _integrate_batch(inc, kn.omega, schedule, th0, t_end, dt)
    used_dt = dt if t_end > 0 else 0.0
    return [Trajectory(times=times, theta=theta, x=theta @ inc.Bhat_intra, dt=used_dt)
            for theta in recs]


def simulate(kn: KuramotoNetwork, schedule: Optional[VibrationSchedule],
             theta0: Sequence[float], t_end: float, *, inc: IncidenceSet,
             dt: Optional[float] = None) -> Trajectory:
    """Integrate the (optionally vibrated) network from ``theta0``.

    The default step keeps at least 48 steps per fastest period present
    (natural drift, coupling, or vibration carrier); an explicit ``dt``
    coarser than 1/40 of that period raises StepTooCoarse, a non-positive
    ``dt`` or a negative ``t_end`` ValueError.
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
    None.
    """
    label = inc.partition.node_to_cluster()
    terms: List[list] = [[] for _ in inc.partition.clusters]
    for (s, t), entry in schedule.sorted_items() if schedule is not None else ():
        k = int(label[t])
        if label[s] != k:
            raise GraphError(f"vibrated edge ({s},{t}) crosses clusters")
        sl = inc.coord_slices[k]
        terms[k].append((entry.amplitude, entry.frequency, entry.phase,
                         edge_influence(inc, (s, t))[sl, sl]))
    return tuple(SinusoidSum(*zip(*tk)) if tk else None for tk in terms)


# ---------------------------------------------------------------------------
# averaged Jacobians and perturbation bounds


def averaged_jacobians(lin: Linearization,
                       schedule: Optional[VibrationSchedule]) -> Tuple[np.ndarray, ...]:
    """Per-cluster averaged Jacobians under a vibration schedule.

    Each block is conjugate-averaged along the flow of its cluster's
    vibration matrix; a cluster without one keeps (a copy of) its Jacobian.
    """
    out: List[np.ndarray] = []
    for blk, p in zip(lin.J_blocks, cluster_vibration_matrices(lin.inc, schedule)):
        base_period = min_period = None
        if p is not None:
            base_period = 2.0 * math.pi / p.freqs.min()
            min_period = 2.0 * math.pi / p.freqs.max()
        out.append(conjugated_average(blk, p, base_period=base_period,
                                      min_period=min_period))
    return tuple(out)


def _conjugation_growth(p: SinusoidSum) -> Tuple[float, float]:
    """The sampled conjugation growth of the flow dPsi/dt = P(t) Psi from
    Psi(0) = I: ``(sup |Psi|, sup |Psi^-1|)`` in the spectral norm, each at
    least 1, over Psi after every RK4 step of ``horizon_periods`` base
    periods, at the step ``_resolve_step`` gives the fastest period.  The
    compiled kernel takes the extreme singular values of each chunk's Psi
    stack (``_phase_kernel.singular_extremes``); a Psi that is not all
    finite raises ``numpy.linalg.LinAlgError``."""
    t_max = horizon_periods * 2.0 * np.pi / p.freqs.min()
    dt = _resolve_step(t_max, None, 2.0 * np.pi / p.freqs.max())
    steps = max(1, int(np.ceil(t_max / dt - 1e-12)))
    ext = np.ones(2)
    for phis in _linear_flow(p, 0.0, t_max / steps, steps, np.eye(p.mats.shape[1])):
        _phase_kernel.singular_extremes(phis, ext)
    return float(ext[0]), float(ext[1])


def perturbation_bounds(lin: Linearization,
                        schedule: Optional[VibrationSchedule] = None) -> np.ndarray:
    """Entrywise bound gamma[k, l] on the inter-cluster forcing gains.

    Combines the static envelope of the inter-edge rows (the largest
    singular value of each cluster block of ``|M1| |R2|``) with the worst
    sampled conjugation growth ``sup |Psi^-1|_k sup |Psi|_l`` of the
    per-cluster vibration flows (``_conjugation_growth``, 1 for a cluster
    without vibration), times ``envelope_safety``.  A vibration flow that
    overflows raises ``numpy.linalg.LinAlgError``.
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

    if schedule is None or not schedule.entries:
        return gains
    growth = np.ones(r)
    shrink = np.ones(r)
    for k, p in enumerate(cluster_vibration_matrices(inc, schedule)):
        if p is not None:
            growth[k], shrink[k] = _conjugation_growth(p)
    return np.outer(shrink, growth) * envelope_safety * gains


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
    clusters (all clusters by default); an empty selection, or fewer than one
    sample, raises ValueError.
    """
    if n_samples < 1:
        raise ValueError(f"an ensemble needs at least one sample, got n_samples={n_samples}")
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
    slope test, so the cut never changes the verdict.  An empty ensemble
    shows nothing and raises ValueError.
    """
    if len(trajectories) == 0:
        raise ValueError("cannot classify an empty ensemble: no trajectories given")
    slopes, initials, finals = [], [], []
    stable = True
    for traj in trajectories:
        norms = np.linalg.norm(traj.x, axis=1)
        norms = np.maximum(norms, 1e-300)
        end, half = len(norms), len(norms) // 2
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
