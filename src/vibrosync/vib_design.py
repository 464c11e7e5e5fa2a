"""Synthesis of sinusoidal vibration schedules.

Two layers: a generic designer for linear systems whose state matrix has a
directed-acyclic modification pattern, and the oscillator-network layer that
maps designed reduced-coordinate vibrations onto actual network edges
through exact edge recipes.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from . import _trig
from .graph_core import Edge, IncidenceSet, permutation_to_qlt
from .kuramoto_dynamics import (KuramotoNetwork, Linearization, VibrationEntry,
                                VibrationSchedule, averaged_jacobians,
                                edge_influence, linearize)
from .linalg import SinusoidSum, conjugated_average

pattern_tolerance = 1e-12
relative_residual_tolerance = 1e-2
residual_floor = 0.01
feasibility_tolerance = 1e-12


class NotRealizable(ValueError):
    pass


class NoRealizableEdges(NotRealizable):
    pass


class VerificationFailed(RuntimeError):
    def __init__(self, message: str, design: "LinearDesign"):
        super().__init__(message)
        self.design = design


@dataclass(frozen=True)
class ModificationSpec:
    """Desired additive change of a state matrix.

    ``delta`` must have zero diagonal and an acyclic off-diagonal pattern.
    """

    delta: np.ndarray

    def __post_init__(self):
        delta = np.asarray(self.delta, dtype=float)
        object.__setattr__(self, "delta", delta)
        if delta.ndim != 2 or delta.shape[0] != delta.shape[1]:
            raise ValueError("delta must be square")
        if not np.all(np.isfinite(delta)):
            raise ValueError("delta must be finite")
        if np.any(np.abs(np.diag(delta)) > pattern_tolerance):
            raise ValueError("delta must have zero diagonal")
        # raises CycleDetected when the pattern cannot be made triangular
        permutation_to_qlt(delta)

    @property
    def tolerance(self) -> float:
        """How far an achieved average may miss ``a + delta`` and still verify."""
        return relative_residual_tolerance * max(float(np.abs(self.delta).max()),
                                                 residual_floor)


def modifiable_graph(a: np.ndarray) -> Dict[Edge, int]:
    """Which entries of a state matrix sinusoidal vibrations can shift,
    each mapped to the sign of its achievable shift.

    Entry (i, j) qualifies when its transpose entry — the carrier through
    which the averaged shift appears — is nonzero; the entry itself may be
    zero.  The achievable shift always opposes the carrier's sign: a
    negative reverse weight lets the entry increase, a positive one lets
    it decrease.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    return {(i, j): -int(np.sign(a[j, i])) for i in range(n) for j in range(n)
            if i != j and abs(a[j, i]) > pattern_tolerance}


def validate_modification(a: np.ndarray, spec: ModificationSpec) -> List[str]:
    """Check a desired change against the modifiable pattern of ``a``.

    Returns a list of human-readable violations (empty when valid).
    """
    a = np.asarray(a, dtype=float)
    delta = spec.delta
    if delta.shape != a.shape:
        return [f"delta shape {delta.shape} does not match matrix shape {a.shape}"]
    signs = modifiable_graph(a)
    violations: List[str] = []
    n = a.shape[0]
    for i in range(n):
        for j in range(n):
            d = delta[i, j]
            if i == j or abs(d) <= pattern_tolerance:
                continue
            if (i, j) not in signs:
                violations.append(
                    f"entry ({i},{j}) is not modifiable (zero reverse weight a[{j},{i}])"
                )
            elif int(np.sign(d)) != signs[(i, j)]:
                violations.append(
                    f"entry ({i},{j}) can only be shifted in direction {signs[(i, j)]:+d}"
                )
    return violations


# ---------------------------------------------------------------------------
# linear-system designer


@dataclass(frozen=True)
class SlotVibration:
    """One sinusoidal term injected at a matrix slot (row, col)."""

    row: int
    col: int
    amplitude: float
    frequency: float
    radicand: Optional[int] = None

    @property
    def normalized_gain(self) -> float:
        """Amplitude in carrier-wave units (sqrt(2) of amplitude per unit
        frequency ratio); equals 1 for a shift that exactly consumes the
        carrier entry."""
        return self.amplitude / math.sqrt(2.0)


@dataclass(frozen=True)
class LinearDesign:
    """Result of the triangular vibration synthesis for one state matrix."""

    a: np.ndarray
    slots: Tuple[SlotVibration, ...]
    predicted: np.ndarray
    residual: float
    verified: bool
    infeasible_slots: Tuple[Tuple[int, int, float], ...] = field(default_factory=tuple)

    def vibration_matrix(self) -> Optional[SinusoidSum]:
        """The sum of all designed sinusoids, None without slots."""
        if not self.slots:
            return None
        n = self.a.shape[0]
        mats = np.zeros((len(self.slots), n, n))
        for e, s in enumerate(self.slots):
            mats[e, s.row, s.col] = 1.0
        return SinusoidSum([s.amplitude for s in self.slots],
                           [s.frequency for s in self.slots],
                           np.zeros(len(self.slots)), mats)


def design_linear(a: np.ndarray, spec: ModificationSpec,
                  freq_iter: Optional[Iterator[int]] = None,
                  verify: bool = True) -> LinearDesign:
    """Design sinusoidal slot vibrations realizing ``a -> a + delta`` on average.

    The permuted change pattern is walked diagonal by diagonal.  At each slot
    with a nonzero transpose carrier the exact averaged contribution of the
    already-fixed shallower slots is computed symbolically and the remaining
    shift is produced by choosing the slot amplitude; frequencies are square
    roots of distinct squarefree integers, so all carrier waves are mutually
    incommensurable.  Slots whose required amplitude would be imaginary are
    left silent and reported; the closing numerical verification then raises
    VerificationFailed (carrying the partial design) when the achieved
    average misses ``a + delta``.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    violations = validate_modification(a, spec)
    if violations:
        raise NotRealizable("; ".join(violations))
    if freq_iter is None:
        freq_iter = _trig.squarefree_radicands()

    q_perm = permutation_to_qlt(spec.delta)
    a_p = q_perm @ a @ q_perm.T
    d_p = q_perm @ spec.delta @ q_perm.T

    u_sym = _trig.zeros_matrix(n)
    # Phi and Phi^-1 of u_sym, rebuilt at the first carrier slot of a gap
    # when a slot was placed since the last build: entry (p, q) of either
    # sums products along paths whose gaps add up to p - q, so a slot of
    # gap g leaves every other entry of gap <= g as it was
    flow = None
    placed = True  # ``flow`` misses a placed slot, or was never built
    slots_p: List[Tuple[int, int, float, int]] = []  # row, col, amplitude, radicand
    infeasible: List[Tuple[int, int, float]] = []

    for gap in range(1, n):
        phi = None  # the flow every slot of this gap reads
        for p in range(gap, n):
            q = p - gap
            carrier = a_p[q, p]
            want = d_p[p, q]
            if abs(carrier) <= pattern_tolerance:
                continue
            if phi is None:
                if placed:
                    flow, placed = _trig.flow(u_sym), False
                phi, phi_inv = flow
            c0 = phi_inv[p][q].mean_product(phi[p][q])  # exact DC of the shallower slots
            needed = c0 - want / carrier
            if abs(needed) <= feasibility_tolerance:
                continue
            if needed < 0.0:
                # the slot would need an imaginary amplitude; leave it silent
                infeasible.append((p, q, float(carrier * c0 - want)))
                continue
            radicand = next(freq_iter)
            beta = math.sqrt(radicand)
            amplitude = beta * math.sqrt(2.0 * needed)
            u_sym[p][q] = u_sym[p][q] + _trig.TrigPoly.sin_line(
                ((radicand, 1),), amplitude)
            slots_p.append((p, q, amplitude, radicand))
            placed = True

    # exact averaged matrix of the final design (permuted frame)
    if placed:
        flow = _trig.flow(u_sym)
    predicted_p = _trig.mean_from_flow(a_p, *flow)
    predicted = q_perm.T @ predicted_p @ q_perm

    # translate slots back to the original frame and physical frequencies
    order = np.argmax(q_perm, axis=1)  # order[new] = old index
    slots = tuple(
        SlotVibration(row=int(order[p]), col=int(order[q]),
                      amplitude=amplitude, frequency=math.sqrt(radicand),
                      radicand=radicand)
        for p, q, amplitude, radicand in slots_p
    )
    infeasible_orig = tuple((int(order[p]), int(order[q]), miss)
                            for p, q, miss in infeasible)

    design = LinearDesign(a=a, slots=slots, predicted=predicted,
                          residual=float(np.abs(predicted - (a + spec.delta)).max()),
                          verified=False, infeasible_slots=infeasible_orig)

    if not verify:
        return design

    tol = spec.tolerance
    if slots:
        averaged = conjugated_average(a, design.vibration_matrix())
    else:
        averaged = a.copy()
    residual = float(np.abs(averaged - (a + spec.delta)).max())
    design = dataclasses.replace(design, residual=residual, verified=residual <= tol)
    if residual > tol:
        raise VerificationFailed(
            f"averaged matrix misses the target by {residual:.3e} (tolerance {tol:.3e})",
            design)
    return design


# ---------------------------------------------------------------------------
# oscillator-network layer


# A slot's cancellation recipes: tuples of (edge, coefficient) whose weighted
# reduced influences (``edge_influence``) sum exactly to the slot's
# elementary matrix.
Recipes = Tuple[Tuple[Tuple[Edge, float], ...], ...]


def _cluster_recipes(mats: Dict[Edge, np.ndarray]) -> Dict[Tuple[int, int], Recipes]:
    """Cancellation recipes of one cluster's slots from its edges' reduced
    influences, given in edge order.

    A recipe is one edge, or one edge plus the partner that cancels its
    diagonal entry; unpaired recipes come first, then paired ones, each in
    edge order.  Each influence is an integer rank-one matrix.  One whose
    only off-diagonal entry is (p, q) has its support in rows and columns
    {p, q}, so besides (p, q) it has at most one diagonal entry (d, d).
    Without one it realizes slot (p, q) alone with coefficient 1 / m[p, q];
    with one it is paired with the first edge whose only entry is (d, d).
    The entries are -1, 0 or 1, so every coefficient is exactly +-1.
    """
    diagonal: Dict[int, Edge] = {}  # d -> first edge whose only entry is (d, d)
    primaries = []
    for e, m in mats.items():
        support = [(int(i), int(j)) for i, j in np.argwhere(m)]
        off = [(i, j) for i, j in support if i != j]
        if not off and support:
            diagonal.setdefault(support[0][0], e)
        elif len(off) == 1:
            primaries.append((e, off[0], [i for i, j in support if i == j]))
    alone: Dict[Tuple[int, int], list] = {}
    paired: Dict[Tuple[int, int], list] = {}
    for e, (p, q), diag in primaries:
        c = float(1.0 / mats[e][p, q])
        if not diag:
            alone.setdefault((p, q), []).append(((e, c),))
        elif diag[0] in diagonal:
            d = diag[0]
            f = diagonal[d]
            paired.setdefault((p, q), []).append(
                ((e, c), (f, float(-c * mats[e][d, d] / mats[f][d, d]))))
    return {slot: tuple(alone.get(slot, []) + paired.get(slot, []))
            for slot in sorted(alone.keys() | paired.keys())}


def kuramoto_modifiable(lin: Linearization) -> Tuple[Dict[Tuple[int, int], Recipes], ...]:
    """Per cluster, each slot's cancellation recipes (``_cluster_recipes``),
    in one pass over each cluster's edge influences.

    Raises NoRealizableEdges when no cluster has a slot (p, q) with a recipe
    and a nonzero carrier J_k[q, p] in its reduced Jacobian.
    """
    inc = lin.inc
    label = inc.partition.node_to_cluster()
    recipes = tuple(_cluster_recipes({e: edge_influence(inc, e)[sl, sl]
                                      for e in inc.edges[: inc.m_intra] if label[e[0]] == k})
                    for k, sl in enumerate(inc.coord_slices))
    if not any(abs(jk[q, p]) > pattern_tolerance
               for jk, combos in zip(lin.J_blocks, recipes) for p, q in combos):
        raise NoRealizableEdges("no cluster has a realizable modification slot")
    return recipes


@dataclass(frozen=True)
class ClusterDesign:
    """A designed schedule with its per-cluster symbolic designs, target
    blocks, the averaged Jacobians and growth ``averaged_jacobians`` gives
    for it, and the linearization they were designed against.
    ``designs[k]`` carries how far the realized average of cluster k misses
    its target (``residual``) and whether that is within its spec's
    tolerance (``verified``)."""

    lin: Linearization
    schedule: VibrationSchedule
    designs: Dict[int, LinearDesign] = field(compare=False)
    targets: Tuple[np.ndarray, ...]
    averaged: Tuple[np.ndarray, ...]
    growth: Optional[np.ndarray]

    @property
    def residuals(self) -> Dict[int, float]:
        return {k: d.residual for k, d in self.designs.items()}

    @property
    def all_verified(self) -> bool:
        return all(d.verified for d in self.designs.values())


def design_cluster(kn: KuramotoNetwork, inc: IncidenceSet,
                   specs: Dict[int, ModificationSpec],
                   epsilon: float = 0.01) -> ClusterDesign:
    """Design edge vibrations shifting each cluster's reduced Jacobian.

    Reduced-coordinate slots are realized by exact edge recipes (one edge,
    or an edge plus its diagonal partner) sharing one carrier wave;
    frequencies are drawn from a single pool so the merged schedule stays
    incommensurable across clusters.  The closing verification averages the realized schedule
    once, so it also checks that the edge recipes realize the designed
    slots; a cluster whose average misses its target by more than its
    spec's tolerance is still emitted, its design flagged unverified (the
    achieved average is then reported rather than silently assumed).  A
    spec keyed by anything but an existing cluster raises ValueError.
    """
    for k in specs:
        if not 0 <= k < kn.partition.r:
            raise ValueError(f"spec for cluster {k}: the network has "
                             f"{kn.partition.r} clusters")
    lin = linearize(kn, inc)
    recipes_by_cluster = kuramoto_modifiable(lin)
    freq_iter = _trig.squarefree_radicands()

    entries: Dict[Edge, VibrationEntry] = {}
    designs: Dict[int, LinearDesign] = {}
    targets: List[np.ndarray] = []

    for k, jk in enumerate(lin.J_blocks):
        spec = specs.get(k)
        if spec is None:
            targets.append(jk.copy())
            continue
        if spec.delta.shape != jk.shape:
            raise NotRealizable(
                f"cluster {k} delta has shape {spec.delta.shape}, expected {jk.shape}")
        # the change must live on slots this cluster can actually realize
        combos = recipes_by_cluster[k]
        for i, j in np.argwhere(np.abs(spec.delta) > pattern_tolerance):
            if (int(i), int(j)) not in combos:
                raise NotRealizable(
                    f"cluster {k}: no edge recipe can isolate slot ({i},{j})")
        design = design_linear(jk, spec, freq_iter=freq_iter, verify=False)
        designs[k] = design
        targets.append(jk + spec.delta)

        used_edges = set(entries)
        for slot in design.slots:
            recipes = combos.get((slot.row, slot.col))
            if not recipes:
                raise NotRealizable(
                    f"cluster {k}: designed slot ({slot.row},{slot.col}) has no recipe")
            chosen = None
            for recipe in recipes:
                if not any(e in used_edges for e, _ in recipe):
                    chosen = recipe
                    break
            if chosen is None:
                raise NotRealizable(
                    f"cluster {k}: every recipe for slot ({slot.row},{slot.col}) "
                    "collides with an already vibrated edge")
            for e, coeff in chosen:
                entries[e] = VibrationEntry(amplitude=slot.amplitude * coeff,
                                            frequency=slot.frequency, phase=0.0)
                used_edges.add(e)

    schedule = VibrationSchedule(entries=entries, epsilon=epsilon)
    averaged, growth = averaged_jacobians(lin, schedule)
    for k, design in designs.items():
        residual = float(np.abs(averaged[k] - targets[k]).max())
        designs[k] = dataclasses.replace(design, residual=residual,
                                         verified=residual <= specs[k].tolerance)
    return ClusterDesign(lin=lin, schedule=schedule, designs=designs,
                         targets=tuple(targets), averaged=averaged, growth=growth)
