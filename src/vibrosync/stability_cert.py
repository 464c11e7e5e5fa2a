"""Stability certificates for cluster synchronization under vibration.

Combines averaged per-cluster Jacobians, Lyapunov robustness margins and
inter-cluster perturbation bounds into a comparison matrix whose M-matrix
property certifies partial synchronization; an empirical classifier and an
epsilon sweep accompany the certificate so uncertified-but-stable regimes
are reported as such rather than lost.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .kuramoto_dynamics import (Classification, Linearization,
                                VibrationSchedule, averaged_jacobians,
                                classification_horizon,
                                classify_partial_stability, perturbation_bounds,
                                sample_perturbed_trajectories)
from .linalg import NotHurwitz, is_m_matrix, robustness

# averaged_jacobians lives in kuramoto_dynamics; it stays importable from here
# because the benchmark's tracer resolves it as stability_cert.averaged_jacobians

default_sweep_epsilons = (0.1, 0.01, 0.001)
certify_samples = 10
sweep_samples = 3
sweep_horizon = 60.0
sweep_slack = 0.1


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
    def margin(block):
        try:
            return robustness(block)
        except NotHurwitz:
            return None

    r_values = tuple(map(margin, blocks))
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


def _plain(value):
    """``value`` as JSON data: a dataclass as the dict of its fields, an
    array or a tuple as a list, each item converted in turn."""
    if dataclasses.is_dataclass(value):
        return {f.name: _plain(getattr(value, f.name)) for f in dataclasses.fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, tuple):
        return [_plain(v) for v in value]
    return value


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
    sweep_deviations: Tuple[str, ...] = ()

    @property
    def hurwitz_flags(self) -> Tuple[bool, ...]:
        return tuple(r is not None for r in self.r_values)

    @property
    def label(self) -> str:
        if self.certified:
            return "certified"
        if self.empirical is None:
            return "uncertified"
        return "stable_uncertified" if self.empirical.stable else "not_stabilized"

    @property
    def sweep_monotone(self) -> Optional[bool]:
        return None if self.sweep is None else not self.sweep_deviations

    def to_dict(self) -> dict:
        """Every field as JSON data, and the derived ``hurwitz_flags``,
        ``s_is_m_matrix`` (the certificate), ``label`` and ``sweep_monotone``."""
        return {**_plain(self), "hurwitz_flags": list(self.hurwitz_flags),
                "s_is_m_matrix": self.certified, "label": self.label,
                "sweep_monotone": self.sweep_monotone}


def _ensemble(lin: Linearization, schedule: Optional[VibrationSchedule], n_samples: int,
              kick: float, seed: int, t_end: float) -> Classification:
    """The classifier's verdict on ``n_samples`` runs of ``lin``'s network
    under ``schedule`` over ``t_end``, each from a seeded kick of norm ``kick``."""
    return classify_partial_stability(sample_perturbed_trajectories(
        lin.kn, lin.inc, schedule, n_samples=n_samples, kick=kick, seed=seed, t_end=t_end))


def _sweep(lin: Linearization, schedule: VibrationSchedule,
           seed: int, kick: float) -> Tuple[Tuple[SweepPoint, ...], Tuple[str, ...]]:
    points: List[SweepPoint] = []
    for eps in default_sweep_epsilons:
        cls = _ensemble(lin, dataclasses.replace(schedule, epsilon=eps), sweep_samples, kick,
                        seed, sweep_horizon)
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
    return tuple(points), tuple(deviations)


def certify(lin: Linearization, schedule: Optional[VibrationSchedule],
            averaged: Sequence[np.ndarray], growth: Optional[np.ndarray] = None, *,
            empirical: bool = True, kick: float = 0.1, seed: int = 0) -> StabilityReport:
    """Run the full certification pipeline on a (possibly vibrated) network,
    linearized as ``lin``, whose per-cluster averaged Jacobians under
    ``schedule`` and their flows' conjugation growth are ``averaged`` and
    ``growth`` (both from ``averaged_jacobians(lin, schedule)``; without a
    schedule ``lin.J_blocks`` and None).  A schedule with entries needs its
    growth (ValueError).

    The certificate (M-matrix test on the comparison matrix) and the
    empirical classification are reported independently: a schedule can be
    empirically stabilizing while remaining uncertified.  The empirical
    evidence for a schedule with entries includes the epsilon sweep.
    """
    if growth is None and schedule is not None and schedule.entries:
        raise ValueError("a vibrated schedule needs the growth averaged_jacobians returns")
    averaged = tuple(averaged)
    gamma = perturbation_bounds(lin, growth)
    r_values, s_matrix, certified = comparison(averaged, gamma)

    classification, sweep_points, sweep_dev = None, None, ()
    if empirical:
        classification = _ensemble(lin, schedule, certify_samples, kick, seed,
                                   classification_horizon(averaged))
        if schedule is not None and schedule.entries:
            sweep_points, sweep_dev = _sweep(lin, schedule, seed, kick)

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
        sweep_deviations=sweep_dev,
    )
