"""Stability certificates for cluster synchronization under vibration.

Combines averaged per-cluster Jacobians, Lyapunov robustness margins and
inter-cluster perturbation bounds into a comparison matrix whose M-matrix
property certifies partial synchronization; an empirical classifier and an
epsilon sweep accompany the certificate so uncertified-but-stable regimes
are reported as such rather than lost.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .kuramoto_dynamics import (Classification, Linearization,
                                VibrationSchedule, classification_horizon,
                                classify_partial_stability,
                                cluster_vibration_matrix, perturbation_bounds,
                                sample_perturbed_trajectories,
                                schedule_slot_matrices)
from .linalg import conjugated_average, is_hurwitz, is_m_matrix, robustness

default_sweep_epsilons = (0.1, 0.01, 0.001)
certify_samples = 10
sweep_samples = 3
sweep_horizon = 60.0
sweep_slack = 0.1


def averaged_jacobians(lin: Linearization,
                       schedule: Optional[VibrationSchedule]) -> Tuple[np.ndarray, ...]:
    """Per-cluster averaged Jacobians under a vibration schedule.

    Clusters without vibrated edges keep their Jacobian; the others are
    conjugate-averaged along the flow of their reduced vibration matrix.
    """
    if schedule is None or not schedule.entries:
        return tuple(np.array(b, dtype=float, copy=True) for b in lin.J_blocks)
    terms = schedule_slot_matrices(lin.inc, schedule)
    out: List[np.ndarray] = []
    for k, blk in enumerate(lin.J_blocks):
        p = cluster_vibration_matrix(terms[k])
        if p is None:
            out.append(np.array(blk, dtype=float, copy=True))
            continue
        freqs = [f for _, f, _, _ in terms[k]]
        out.append(conjugated_average(
            blk, p,
            base_period=2.0 * math.pi / min(freqs),
            min_period=2.0 * math.pi / max(freqs),
        ))
    return tuple(out)


def build_S(r_values: Sequence[float], gamma_bar: np.ndarray) -> np.ndarray:
    """Comparison matrix: robustness margins on the diagonal against the
    inter-cluster gains; its M-matrix property is the certificate."""
    gamma = np.asarray(gamma_bar, dtype=float)
    r = len(r_values)
    if gamma.shape != (r, r):
        raise ValueError("gamma_bar shape does not match the number of clusters")
    s = -gamma.copy()
    for k in range(r):
        s[k, k] = r_values[k] - gamma[k, k]
    return s


def comparison(blocks: Sequence[np.ndarray], gamma_bar: np.ndarray
               ) -> Tuple[Tuple[Optional[float], ...], Optional[np.ndarray], bool]:
    """Robustness margins, comparison matrix and its M-matrix verdict; a
    block that is not Hurwitz has no margin (None), hence no matrix."""
    # robustness raises NotHurwitz exactly when is_hurwitz is false
    r_values = tuple(float(robustness(b).value) if is_hurwitz(b) else None
                     for b in blocks)
    if any(v is None for v in r_values):
        return r_values, None, False
    s_matrix = build_S(r_values, gamma_bar)
    return r_values, s_matrix, bool(is_m_matrix(s_matrix))


@dataclass(frozen=True)
class SweepPoint:
    epsilon: float
    stable: bool
    worst_slope: float
    worst_final_ratio: float


@dataclass(frozen=True)
class StabilityReport:
    """Everything the certification pipeline produced for one scenario."""

    n: int
    clusters: Tuple[Tuple[int, ...], ...]
    tree_edges: Tuple[Tuple[int, int], ...]
    epsilon: Optional[float]
    j_blocks: Tuple[np.ndarray, ...]
    averaged_blocks: Tuple[np.ndarray, ...]
    r_values: Tuple[Optional[float], ...]
    gamma_bar: np.ndarray
    s_matrix: Optional[np.ndarray]
    certified: bool
    empirical: Optional[Classification] = None
    sweep: Optional[Tuple[SweepPoint, ...]] = None
    sweep_monotone: Optional[bool] = None
    sweep_deviations: Tuple[str, ...] = ()

    @property
    def hurwitz_flags(self) -> Tuple[bool, ...]:
        return tuple(r is not None for r in self.r_values)

    @property
    def s_is_m_matrix(self) -> bool:
        return self.certified

    @property
    def label(self) -> str:
        if self.certified:
            return "certified"
        if self.empirical is None:
            return "uncertified"
        return "stable_uncertified" if self.empirical.stable else "not_stabilized"

    def to_dict(self) -> dict:
        def arr(a):
            return None if a is None else np.asarray(a).tolist()

        emp = None
        if self.empirical is not None:
            emp = {
                "stable": self.empirical.stable,
                "slopes": list(self.empirical.slopes),
                "initial_norms": list(self.empirical.initial_norms),
                "final_norms": list(self.empirical.final_norms),
            }
        sweep = None
        if self.sweep is not None:
            sweep = [dataclasses.asdict(pt) for pt in self.sweep]
        return {
            "n": self.n,
            "clusters": [list(c) for c in self.clusters],
            "tree_edges": [list(e) for e in self.tree_edges],
            "epsilon": self.epsilon,
            "j_blocks": [arr(b) for b in self.j_blocks],
            "averaged_blocks": [arr(b) for b in self.averaged_blocks],
            "hurwitz_flags": list(self.hurwitz_flags),
            "r_values": list(self.r_values),
            "gamma_bar": arr(self.gamma_bar),
            "s_matrix": arr(self.s_matrix),
            "s_is_m_matrix": self.s_is_m_matrix,
            "certified": self.certified,
            "label": self.label,
            "empirical": emp,
            "sweep": sweep,
            "sweep_monotone": self.sweep_monotone,
            "sweep_deviations": list(self.sweep_deviations),
        }


def _sweep(lin: Linearization, schedule: VibrationSchedule,
           seed: int, kick: float) -> Tuple[Tuple[SweepPoint, ...], bool, Tuple[str, ...]]:
    points: List[SweepPoint] = []
    for eps in default_sweep_epsilons:
        sched_eps = dataclasses.replace(schedule, epsilon=eps)
        trajs = sample_perturbed_trajectories(lin.kn, lin.inc, sched_eps,
                                              n_samples=sweep_samples, kick=kick,
                                              seed=seed, t_end=sweep_horizon)
        cls = classify_partial_stability(trajs)
        ratios = [f / max(i, 1e-300) for i, f in
                  zip(cls.initial_norms, cls.final_norms)]
        points.append(SweepPoint(epsilon=eps, stable=cls.stable,
                                 worst_slope=float(max(cls.slopes)),
                                 worst_final_ratio=float(max(ratios))))
    deviations: List[str] = []
    for prev, cur in zip(points, points[1:]):
        if cur.worst_final_ratio > prev.worst_final_ratio * (1.0 + sweep_slack):
            deviations.append(
                f"final error ratio grew from {prev.worst_final_ratio:.3e} at "
                f"eps={prev.epsilon:g} to {cur.worst_final_ratio:.3e} at eps={cur.epsilon:g}"
            )
        if prev.stable and not cur.stable:
            deviations.append(
                f"stability lost when refining eps={prev.epsilon:g} -> {cur.epsilon:g}"
            )
    return tuple(points), not deviations, tuple(deviations)


def certify(lin: Linearization, schedule: Optional[VibrationSchedule] = None, *,
            empirical: bool = True, kick: float = 0.1,
            seed: int = 0) -> StabilityReport:
    """Run the full certification pipeline on a (possibly vibrated) network,
    linearized as ``lin``.

    The certificate (M-matrix test on the comparison matrix) and the
    empirical classification are reported independently: a schedule can be
    empirically stabilizing while remaining uncertified.  The empirical
    evidence for a schedule with entries includes the epsilon sweep.
    """
    averaged = averaged_jacobians(lin, schedule)
    gamma = perturbation_bounds(lin, schedule)
    r_values, s_matrix, certified = comparison(averaged, gamma)

    classification: Optional[Classification] = None
    sweep_points, sweep_monotone, sweep_dev = None, None, ()
    if empirical:
        horizon = classification_horizon(averaged)
        trajs = sample_perturbed_trajectories(lin.kn, lin.inc, schedule,
                                              n_samples=certify_samples,
                                              kick=kick, seed=seed, t_end=horizon)
        classification = classify_partial_stability(trajs)
        if schedule is not None and schedule.entries:
            sweep_points, sweep_monotone, sweep_dev = _sweep(lin, schedule, seed, kick)

    return StabilityReport(
        n=lin.kn.net.n,
        clusters=lin.kn.partition.clusters,
        tree_edges=tuple(lin.inc.tree_edges),
        epsilon=None if schedule is None else schedule.epsilon,
        j_blocks=lin.J_blocks,
        averaged_blocks=averaged,
        r_values=r_values,
        gamma_bar=gamma,
        s_matrix=s_matrix,
        certified=certified,
        empirical=classification,
        sweep=sweep_points,
        sweep_monotone=sweep_monotone,
        sweep_deviations=sweep_dev,
    )
