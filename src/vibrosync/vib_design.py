"""Synthesis of sinusoidal vibration schedules.

Two layers: a generic designer for linear systems whose state matrix has a
directed-acyclic modification pattern, and the oscillator-network layer that
maps designed reduced-coordinate vibrations onto actual network edges
through exact cancellation pairs.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from . import _trig
from .graph_core import Edge, IncidenceSet, SignedGraph, permutation_to_qlt
from .kuramoto_dynamics import (KuramotoNetwork, Linearization, VibrationEntry,
                                VibrationSchedule, edge_influence, linearize,
                                perturbation_bounds)
from .linalg import SinusoidSum, conjugated_average, is_m_matrix, robustness
from .stability_cert import build_S

pattern_tolerance = 1e-12
relative_residual_tolerance = 1e-2
residual_floor = 0.01
combo_residual_tolerance = 1e-10
feasibility_tolerance = 1e-12


class NotRealizable(ValueError):
    pass


class NoRealizableEdges(NotRealizable):
    pass


class VerificationFailed(RuntimeError):
    def __init__(self, message: str, residual: float, design: "LinearDesign"):
        super().__init__(message)
        self.residual = residual
        self.design = design


@dataclass(frozen=True)
class ModificationSpec:
    """Desired additive change of a state matrix.

    ``delta`` must have zero diagonal and an acyclic off-diagonal pattern;
    ``target`` names the cluster the change applies to (0 for plain linear
    systems).
    """

    delta: np.ndarray
    target: int = 0

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


def modifiable_graph(a: np.ndarray) -> SignedGraph:
    """Which entries of a state matrix sinusoidal vibrations can shift.

    Entry (i, j) qualifies when its transpose entry — the carrier through
    which the averaged shift appears — is nonzero; the entry itself may be
    zero.  The achievable shift always opposes the carrier's sign: a
    negative reverse weight lets the entry increase, a positive one lets
    it decrease.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    signs: Dict[Edge, int] = {}
    for i in range(n):
        for j in range(n):
            if i != j and abs(a[j, i]) > pattern_tolerance:
                signs[(i, j)] = -int(np.sign(a[j, i]))
    return SignedGraph(n=n, signs=signs)


def validate_modification(a: np.ndarray, spec: ModificationSpec,
                          graph: Optional[SignedGraph] = None) -> List[str]:
    """Check a desired change against the modifiable pattern of ``a``.

    Returns a list of human-readable violations (empty when valid).
    """
    a = np.asarray(a, dtype=float)
    delta = spec.delta
    if delta.shape != a.shape:
        return [f"delta shape {delta.shape} does not match matrix shape {a.shape}"]
    if graph is None:
        graph = modifiable_graph(a)
    violations: List[str] = []
    n = a.shape[0]
    for i in range(n):
        for j in range(n):
            d = delta[i, j]
            if i == j or abs(d) <= pattern_tolerance:
                continue
            if (i, j) not in graph.signs:
                violations.append(
                    f"entry ({i},{j}) is not modifiable (zero reverse weight a[{j},{i}])"
                )
            elif int(np.sign(d)) != graph.signs[(i, j)]:
                violations.append(
                    f"entry ({i},{j}) can only be shifted in direction {graph.signs[(i, j)]:+d}"
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
        """Callable t -> additive matrix of all designed sinusoids."""
        if not self.slots:
            return None
        n = self.a.shape[0]
        mats = np.zeros((len(self.slots), n, n))
        for e, s in enumerate(self.slots):
            mats[e, s.row, s.col] = 1.0
        return SinusoidSum([s.amplitude for s in self.slots],
                           [s.frequency for s in self.slots],
                           np.zeros(len(self.slots)), mats)


def _slot_dc_coefficient(u_sym: list, p: int, q: int) -> float:
    """Exact DC of (Phi^-1)[p,q] * Phi[p,q] for the current slot matrix."""
    phi = _trig.transition_series(u_sym)
    phi_inv = _trig.inverse_of_unitriangular(phi)
    prod = phi_inv[p][q] * phi[p][q]
    return prod.mean()


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
    slots_p: List[Tuple[int, int, float, int]] = []  # row, col, amplitude, radicand
    infeasible: List[Tuple[int, int, float]] = []

    for gap in range(1, n):
        for p in range(gap, n):
            q = p - gap
            carrier = a_p[q, p]
            want = d_p[p, q]
            if abs(carrier) <= pattern_tolerance:
                if abs(want) > pattern_tolerance:
                    raise NotRealizable(
                        f"no carrier for requested change at permuted slot ({p},{q})"
                    )
                continue
            c0 = _slot_dc_coefficient(u_sym, p, q)
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

    # exact averaged matrix of the final design (permuted frame)
    predicted_p = _trig.conjugated_mean(a_p, u_sym)
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

    tol = relative_residual_tolerance * max(float(np.abs(spec.delta).max()), residual_floor)
    if slots:
        freqs = [s.frequency for s in design.slots]
        p_func = design.vibration_matrix()
        averaged = conjugated_average(
            a, p_func,
            base_period=2.0 * math.pi / min(freqs),
            min_period=2.0 * math.pi / max(freqs),
        )
    else:
        averaged = a.copy()
    residual = float(np.abs(averaged - (a + spec.delta)).max())
    design = dataclasses.replace(design, residual=residual, verified=residual <= tol)
    if residual > tol:
        raise VerificationFailed(
            f"averaged matrix misses the target by {residual:.3e} (tolerance {tol:.3e})",
            residual, design)
    return design


# ---------------------------------------------------------------------------
# oscillator-network layer


@dataclass(frozen=True)
class InfluenceMap:
    """How intra-cluster edge vibrations act on one cluster's coordinates.

    ``matrices[e]`` is the reduced influence of a unit vibration on edge
    ``e``; ``combos[(p, q)]`` lists exact cancellation recipes — tuples of
    (edge, coefficient) whose weighted influence sum equals the elementary
    matrix at slot (p, q).  ``realizable`` is the signed graph of slots
    that both have a recipe and a nonzero carrier in the reduced Jacobian.
    """

    cluster: int
    edges: Tuple[Edge, ...]
    matrices: Dict[Edge, np.ndarray] = field(compare=False)
    combos: Dict[Tuple[int, int], Tuple[Tuple[Tuple[Edge, float], ...], ...]] = field(
        compare=False, default=None)
    realizable: SignedGraph = None


def _match_elementary(mats: Sequence[np.ndarray], coeff_target: np.ndarray):
    """Solve sum_i c_i mats_i = coeff_target exactly (least squares + check)."""
    stack = np.stack([m.reshape(-1) for m in mats], axis=1)
    sol, *_ = np.linalg.lstsq(stack, coeff_target.reshape(-1), rcond=None)
    residual = np.abs(stack @ sol - coeff_target.reshape(-1)).max()
    return (sol, residual)


def _slot_combos(edges: Sequence[Edge], mats: Dict[Edge, np.ndarray],
                 p: int, q: int):
    """Enumerate cancellation recipes for slot (p, q), preferred first.

    Preference order: fewest edges, diagonal-only partners before others,
    smaller total coefficient magnitude.
    """
    d = next(iter(mats.values())).shape[0]
    target = np.zeros((d, d))
    target[p, q] = 1.0

    def offdiag_support(m: np.ndarray):
        fills = np.argwhere(np.abs(m) > pattern_tolerance)
        return {(int(i), int(j)) for i, j in fills if i != j}

    primaries = [e for e in edges if abs(mats[e][p, q]) > pattern_tolerance]
    primaries.sort(key=lambda e: (len(offdiag_support(mats[e])), -abs(mats[e][p, q]), e))
    diag_only = [e for e in edges if not offdiag_support(mats[e])
                 and np.abs(mats[e]).max() > pattern_tolerance]

    found = []
    for e in primaries:
        # alone
        sol, res = _match_elementary([mats[e]], target)
        if res <= combo_residual_tolerance:
            found.append(((0, abs(float(sol[0]))), ((e, float(sol[0])),)))
            continue
        # with diagonal-only partners
        for n_partners in (1, 2):
            done = False
            for partners in itertools.combinations([f for f in diag_only if f != e],
                                                   n_partners):
                group = [e, *partners]
                sol, res = _match_elementary([mats[f] for f in group], target)
                if res <= combo_residual_tolerance:
                    cost = float(np.abs(sol).sum())
                    found.append(((n_partners, cost),
                                  tuple((f, float(c)) for f, c in zip(group, sol))))
                    done = True
                    break
            if done:
                break
    found.sort(key=lambda item: item[0])
    return tuple(recipe for _, recipe in found)


def kuramoto_modifiable(lin: Linearization) -> Tuple[InfluenceMap, ...]:
    """Influence maps and realizable modification graphs, cluster by cluster.

    Raises NoRealizableEdges when no cluster offers any realizable slot.
    """
    inc = lin.inc
    label = inc.partition.node_to_cluster()
    maps: List[InfluenceMap] = []
    any_realizable = False
    for k, sl in enumerate(inc.coord_slices):
        edges_k = tuple(e for e in inc.edges[: inc.m_intra]
                        if label[e[0]] == k)
        mats = {e: edge_influence(inc, e)[sl, sl].copy() for e in edges_k}
        d = sl.stop - sl.start
        combos: Dict[Tuple[int, int], tuple] = {}
        jk = lin.J_blocks[k]
        signs: Dict[Edge, int] = {}
        for p in range(d):
            for q in range(d):
                if p == q:
                    continue
                recipes = _slot_combos(edges_k, mats, p, q)
                if recipes:
                    combos[(p, q)] = recipes
                    if abs(jk[q, p]) > pattern_tolerance:
                        signs[(p, q)] = -int(np.sign(jk[q, p]))
        realizable = SignedGraph(n=d, signs=signs)
        if signs:
            any_realizable = True
        maps.append(InfluenceMap(cluster=k, edges=edges_k, matrices=mats,
                                 combos=combos, realizable=realizable))
    if not any_realizable:
        raise NoRealizableEdges("no cluster has a realizable modification slot")
    return tuple(maps)


@dataclass(frozen=True)
class ClusterDesign:
    """A designed schedule together with its certificate ingredients."""

    schedule: VibrationSchedule
    designs: Dict[int, LinearDesign] = field(compare=False)
    targets: Tuple[np.ndarray, ...] = ()
    target_robustness: Tuple[float, ...] = ()
    residuals: Dict[int, float] = field(compare=False, default=None)
    all_verified: bool = True
    gamma_bar: np.ndarray = None
    s_matrix: np.ndarray = None
    certified: bool = False


def design_cluster(kn: KuramotoNetwork, inc: IncidenceSet,
                   specs: Dict[int, ModificationSpec] | Sequence[ModificationSpec],
                   epsilon: float = 0.01) -> ClusterDesign:
    """Design edge vibrations shifting each cluster's reduced Jacobian.

    Reduced-coordinate slots are realized by exact cancellation pairs of
    network edges sharing one carrier wave; frequencies are drawn from a
    single pool so the merged schedule stays incommensurable across
    clusters.  Designs that fail their closing verification are still
    emitted, flagged through ``residuals`` and ``all_verified`` (the
    achieved average is then reported rather than silently assumed).
    """
    if not isinstance(specs, dict):
        specs = {spec.target: spec for spec in specs}
    lin = linearize(kn, inc)
    maps = kuramoto_modifiable(lin)
    freq_iter = _trig.squarefree_radicands()

    entries: Dict[Edge, VibrationEntry] = {}
    designs: Dict[int, LinearDesign] = {}
    residuals: Dict[int, float] = {}
    all_verified = True
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
        imap = maps[k]
        for i, j in np.argwhere(np.abs(spec.delta) > pattern_tolerance):
            if (int(i), int(j)) not in imap.combos:
                raise NotRealizable(
                    f"cluster {k}: no edge recipe can isolate slot ({i},{j})")
        try:
            design = design_linear(jk, spec, freq_iter=freq_iter)
        except VerificationFailed as fail:
            design = fail.design
            all_verified = False
        designs[k] = design
        residuals[k] = design.residual
        targets.append(jk + spec.delta)

        used_edges = set(entries)
        for slot in design.slots:
            recipes = imap.combos.get((slot.row, slot.col))
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

    # certificate ingredients
    gamma = perturbation_bounds(lin, schedule)
    r_values = tuple(float(robustness(t).value) for t in targets)
    s = build_S(r_values, gamma)
    certified = bool(is_m_matrix(s)) and all_verified

    return ClusterDesign(schedule=schedule, designs=designs,
                         targets=tuple(targets), target_robustness=r_values,
                         residuals=residuals,
                         all_verified=all_verified, gamma_bar=gamma,
                         s_matrix=s, certified=certified)
