"""Cluster synchronization analysis and vibrational control design for
networks of phase oscillators.

The package is organized in layers:

* :mod:`vibrosync.graph_core` — directed weighted networks, cluster
  partitions, spanning trees and incidence/reduction matrices.
* :mod:`vibrosync.linalg` — Lyapunov-based robustness values, M-matrix
  tests and time-averaging of periodically forced linear systems.
* :mod:`vibrosync.kuramoto_dynamics` — the oscillator model, numerical
  integration, linearization about a cluster state and empirical
  stability classification.
* :mod:`vibrosync.vib_design` — synthesis of sinusoidal gain
  modulations that shift averaged Jacobians to a requested target,
  with numeric verification of each design.
* :mod:`vibrosync.stability_cert` — assembling per-cluster robustness
  and cross-cluster interaction bounds into a network-level stability
  certificate.
* :mod:`vibrosync.cli` — the ``vibrosync`` command-line tool.
"""

from .graph_core import (ClusterPartition, CycleDetected, DirectedNetwork,
                         DisconnectedCluster, DisconnectedNetwork, GraphError,
                         NotSpanningTree, build_incidence, check_invariance,
                         permutation_to_qlt, select_spanning_tree,
                         topological_order)
from .kuramoto_dynamics import (Classification, InvarianceViolated,
                                KuramotoNetwork, NonFiniteState,
                                VibrationEntry, VibrationSchedule,
                                classify_partial_stability,
                                cluster_vibration_matrix, edge_influence,
                                geodesic_distance, linearize,
                                perturbation_bounds, perturbed_initial_states,
                                sample_perturbed_trajectories,
                                schedule_slot_matrices, simulate, sync_error)
from .linalg import (HorizonTooShort, NotHurwitz, StepTooCoarse,
                     conjugated_average, is_hurwitz, is_m_matrix, robustness,
                     solve_lyapunov, state_transition)
from .stability_cert import (StabilityReport, SweepPoint, averaged_jacobians,
                             build_S, certify, comparison)
from .vib_design import (ModificationSpec, NoRealizableEdges, NotRealizable,
                         VerificationFailed, design_cluster, design_linear,
                         kuramoto_modifiable, modifiable_graph,
                         validate_modification)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # graph_core
    "GraphError", "NotSpanningTree", "DisconnectedCluster",
    "DisconnectedNetwork", "CycleDetected", "DirectedNetwork",
    "ClusterPartition", "select_spanning_tree", "build_incidence",
    "check_invariance", "topological_order", "permutation_to_qlt",
    # linalg
    "NotHurwitz", "StepTooCoarse", "HorizonTooShort", "is_hurwitz",
    "solve_lyapunov", "robustness", "is_m_matrix", "state_transition",
    "conjugated_average",
    # kuramoto_dynamics
    "NonFiniteState", "InvarianceViolated", "KuramotoNetwork",
    "VibrationEntry", "VibrationSchedule", "Classification",
    "geodesic_distance", "sync_error", "simulate", "linearize",
    "edge_influence", "schedule_slot_matrices", "cluster_vibration_matrix",
    "perturbation_bounds", "perturbed_initial_states",
    "sample_perturbed_trajectories", "classify_partial_stability",
    # vib_design
    "NotRealizable", "NoRealizableEdges", "VerificationFailed",
    "ModificationSpec", "modifiable_graph", "validate_modification",
    "design_linear", "kuramoto_modifiable", "design_cluster",
    # stability_cert
    "SweepPoint", "StabilityReport", "averaged_jacobians", "build_S",
    "comparison", "certify",
]
