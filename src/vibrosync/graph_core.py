"""Directed weighted networks, cluster partitions and incidence algebra.

Conventions used throughout the package:

* nodes are integers ``0 .. n-1``;
* a directed edge ``(s, t)`` points from source ``s`` to target ``t`` and
  carries the coupling weight felt by the target, stored as ``W[t, s]``;
* the oriented incidence matrix ``B`` has one column per edge with ``-1`` at
  the source and ``+1`` at the target;
* the canonical edge order groups intra-cluster edges by cluster (ascending
  cluster index) followed by all inter-cluster edges, each group sorted by
  ``(source, target)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Sequence, Tuple

import numpy as np

weight_tolerance = 1e-12
invariance_tolerance = 1e-9

Edge = Tuple[int, int]


class GraphError(ValueError):
    """Base class for structural graph errors."""


class NotSpanningTree(GraphError):
    pass


class DisconnectedCluster(GraphError):
    pass


class DisconnectedNetwork(GraphError):
    pass


class CycleDetected(GraphError):
    def __init__(self, message: str, cycle: List[int]):
        super().__init__(message)
        self.cycle = cycle


def _node_index(value, what: str) -> int:
    """``value``, a node index or count, as an int: a Python or numpy
    integer, not a bool (GraphError otherwise)."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise GraphError(f"{what} must be an integer, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class DirectedNetwork:
    """A weighted digraph without self-loops.

    ``edges`` is kept sorted by ``(source, target)``; ``weights[e]`` is the
    coupling strength the target of ``e`` receives from its source.
    """

    n: int
    edges: Tuple[Edge, ...]
    weights: Dict[Edge, float] = field(compare=False)

    def __post_init__(self):
        if _node_index(self.n, "the node count") <= 0:
            raise GraphError("network needs at least one node")
        seen = set()
        for s, t in self.edges:
            _node_index(s, "a node index")
            _node_index(t, "a node index")
            if s == t:
                raise GraphError(f"self-loop ({s},{t}) not allowed")
            if not (0 <= s < self.n and 0 <= t < self.n):
                raise GraphError(f"edge ({s},{t}) out of range for n={self.n}")
            if (s, t) in seen:
                raise GraphError(f"duplicate edge ({s},{t})")
            seen.add((s, t))
        if list(self.edges) != sorted(self.edges):
            raise GraphError("edges must be sorted by (source, target)")
        for e in self.edges:
            w = self.weights.get(e, 0.0)
            if not (math.isfinite(w) and w > weight_tolerance):
                raise GraphError(f"edge {e} must have a finite positive weight")

    @staticmethod
    def from_edges(n: int, weighted_edges: Iterable[Tuple[int, int, float]]) -> "DirectedNetwork":
        weights: Dict[Edge, float] = {}
        for s, t, w in weighted_edges:
            e = (_node_index(s, "a node index"), _node_index(t, "a node index"))
            if e in weights:
                raise GraphError(f"duplicate edge {e}")
            weights[e] = float(w)
        return DirectedNetwork(n, tuple(sorted(weights)), weights)

    def weight_matrix(self) -> np.ndarray:
        w = np.zeros((self.n, self.n))
        for (s, t), v in self.weights.items():
            w[t, s] = v
        return w

    def has_edge(self, s: int, t: int) -> bool:
        return (s, t) in self.weights

    def weight(self, s: int, t: int) -> float:
        return self.weights[(s, t)]

    def undirected_neighbors(self, i: int) -> List[int]:
        nbrs = {t for (s, t) in self.edges if s == i}
        nbrs |= {s for (s, t) in self.edges if t == i}
        return sorted(nbrs)


def _reachable(start: int, adj: Dict[int, List[int]]) -> set:
    """Nodes reachable from ``start`` along the adjacency lists."""
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for v in adj[u]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return seen


def _strongly_connected(nodes: Sequence[int], edges: Iterable[Edge]) -> bool:
    node_set = set(nodes)
    fwd: Dict[int, List[int]] = {i: [] for i in nodes}
    rev: Dict[int, List[int]] = {i: [] for i in nodes}
    for s, t in edges:
        if s in node_set and t in node_set:
            fwd[s].append(t)
            rev[t].append(s)
    return (_reachable(nodes[0], fwd) == node_set
            and _reachable(nodes[0], rev) == node_set)


@dataclass(frozen=True)
class ClusterPartition:
    """A partition of the node set into clusters of at least two nodes.

    Validated eagerly against a network: clusters must be disjoint, cover
    all nodes, and each induced intra-cluster subgraph must be strongly
    connected.
    """

    net: DirectedNetwork
    clusters: Tuple[Tuple[int, ...], ...]

    def __post_init__(self):
        n = self.net.n
        flat = [i for c in self.clusters for i in c]
        if sorted(flat) != list(range(n)):
            raise GraphError("clusters must partition the node set exactly")
        for k, c in enumerate(self.clusters):
            if len(c) < 2:
                raise GraphError(f"cluster {k} has fewer than two nodes")
            if list(c) != sorted(c):
                raise GraphError(f"cluster {k} must list nodes in ascending order")
            if not _strongly_connected(list(c), self.net.edges):
                raise DisconnectedCluster(
                    f"cluster {k} is not strongly connected through intra-cluster edges"
                )

    @property
    def r(self) -> int:
        return len(self.clusters)

    def node_to_cluster(self) -> np.ndarray:
        out = np.empty(self.net.n, dtype=int)
        for k, c in enumerate(self.clusters):
            for i in c:
                out[i] = k
        return out


# ---------------------------------------------------------------------------
# spanning trees


def _union_find(size: int) -> Callable[[int, int], bool]:
    """Union-find over ``0 .. size-1``: the returned ``union(a, b)`` merges
    the components of a and b, and returns False when they were already one."""
    parent = list(range(size))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: int, b: int) -> bool:
        ra, rb = find(a), find(b)
        if ra == rb:
            return False
        parent[ra] = rb
        return True

    return union


def _cluster_root(net: DirectedNetwork, cluster: Sequence[int]) -> int:
    """Root choice for the shallow-tree strategy.

    Maximum undirected intra-cluster degree, ties broken by the smallest
    total incoming intra-cluster weight, then by the smallest node index.
    """
    cset = set(cluster)
    w = net.weight_matrix()

    def degree(i: int) -> int:
        return sum(1 for j in net.undirected_neighbors(i) if j in cset)

    def in_strength(i: int) -> float:
        return float(sum(w[i, j] for j in cluster if j != i))

    return min(cluster, key=lambda i: (-degree(i), in_strength(i), i))


def _tree_edges_from(net: DirectedNetwork, cluster: Sequence[int], root: int) -> List[Edge]:
    """Traverse the undirected intra-cluster graph breadth-first, orienting
    edges outward."""
    cset = set(cluster)
    visited = {root}
    frontier = [root]
    out: List[Edge] = []
    while frontier:
        u = frontier.pop(0)
        for v in net.undirected_neighbors(u):
            if v in cset and v not in visited:
                visited.add(v)
                frontier.append(v)
                if net.has_edge(u, v):
                    out.append((u, v))
                else:
                    out.append((v, u))
    if visited != cset:
        raise DisconnectedCluster(f"cluster containing {root} is not connected")
    return out


def select_spanning_tree(net: DirectedNetwork, partition: ClusterPartition,
                         strategy: str = "min_depth") -> Tuple[Edge, ...]:
    """Pick a spanning tree compatible with the partition.

    Returns ``n - r`` intra-cluster edges (a spanning tree per cluster) plus
    ``r - 1`` inter-cluster edges joining the clusters into a tree.

    ``min_depth`` roots each cluster at a maximum-degree node and grows
    breadth-first (shallow trees); ``first_found`` roots at the smallest
    node index of each cluster.
    """
    if strategy not in ("min_depth", "first_found"):
        raise ValueError(f"unknown tree strategy {strategy!r}")
    edges: List[Edge] = []
    for cluster in partition.clusters:
        if strategy == "min_depth":
            root = _cluster_root(net, cluster)
        else:
            root = cluster[0]
        edges.extend(_tree_edges_from(net, cluster, root))

    # join clusters with the lexicographically smallest available edges
    label = partition.node_to_cluster()
    union = _union_find(partition.r)
    joined = 0
    for s, t in net.edges:
        if label[s] != label[t] and union(label[s], label[t]):
            edges.append((s, t))
            joined += 1
            if joined == partition.r - 1:
                break
    if joined != partition.r - 1:
        raise DisconnectedNetwork("clusters cannot be joined into a single tree")
    return tuple(edges)


# ---------------------------------------------------------------------------
# incidence structures


@dataclass(frozen=True)
class IncidenceSet:
    """Incidence matrices of a network, its partition and a spanning tree.

    ``edges`` lists columns of ``B`` in canonical order and ``tree_edges``
    the columns of ``Bhat`` (intra tree edges grouped by cluster, then the
    inter tree edges).  ``R`` is the exact transfer matrix with
    ``B.T == R @ Bhat.T``; its blocks ``R1`` (intra edges on intra
    coordinates) and ``R2`` (inter edges on intra coordinates) follow the
    intra/inter split.
    """

    net: DirectedNetwork
    partition: ClusterPartition
    edges: Tuple[Edge, ...]
    tree_edges: Tuple[Edge, ...]
    m_intra: int
    B: np.ndarray
    Bpos: np.ndarray
    Bhat: np.ndarray
    n_intra_coords: int
    coord_slices: Tuple[slice, ...]
    W_diag: np.ndarray
    R: np.ndarray
    R1: np.ndarray
    R2: np.ndarray

    # convenience views ----------------------------------------------------
    @property
    def Bhat_intra(self) -> np.ndarray:
        return self.Bhat[:, : self.n_intra_coords]

    @property
    def W_intra(self) -> np.ndarray:
        return self.W_diag[: self.m_intra]

    @property
    def W_inter(self) -> np.ndarray:
        return self.W_diag[self.m_intra:]

    def edge_column(self, e: Edge) -> int:
        return self.edges.index(e)


def _incidence_columns(n: int, edges: Sequence[Edge]) -> np.ndarray:
    b = np.zeros((n, len(edges)))
    for c, (s, t) in enumerate(edges):
        b[s, c] = -1.0
        b[t, c] = 1.0
    return b


def canonical_edge_order(net: DirectedNetwork,
                         partition: ClusterPartition) -> Tuple[List[Edge], int, List[slice]]:
    """Intra edges grouped by cluster then inter edges, each sorted."""
    label = partition.node_to_cluster()
    intra: List[Edge] = []
    slices: List[slice] = []
    for k in range(partition.r):
        block = sorted((s, t) for (s, t) in net.edges
                       if label[s] == k and label[t] == k)
        slices.append(slice(len(intra), len(intra) + len(block)))
        intra.extend(block)
    inter = sorted((s, t) for (s, t) in net.edges if label[s] != label[t])
    return tuple(intra + inter), len(intra), slices


def _validate_tree(net: DirectedNetwork, partition: ClusterPartition,
                   tree: Sequence[Edge]) -> Tuple[List[Edge], List[Edge], List[slice]]:
    label = partition.node_to_cluster()
    for e in tree:
        if not net.has_edge(*e):
            raise NotSpanningTree(f"tree edge {e} is not an edge of the network")
    intra = [e for e in tree if label[e[0]] == label[e[1]]]
    inter = [e for e in tree if label[e[0]] != label[e[1]]]
    if len(tree) != net.n - 1 or len(set(tree)) != len(tree):
        raise NotSpanningTree("a spanning tree needs exactly n-1 distinct edges")
    # per-cluster spanning trees
    slices: List[slice] = []
    ordered_intra: List[Edge] = []
    for k, cluster in enumerate(partition.clusters):
        block = sorted(e for e in intra if label[e[0]] == k)
        if len(block) != len(cluster) - 1:
            raise NotSpanningTree(f"cluster {k} needs {len(cluster) - 1} intra tree edges")
        # connectivity of the undirected tree edges over the cluster
        adj: Dict[int, List[int]] = {i: [] for i in cluster}
        for s, t in block:
            adj[s].append(t)
            adj[t].append(s)
        if _reachable(cluster[0], adj) != set(cluster):
            raise NotSpanningTree(f"intra tree edges do not span cluster {k}")
        slices.append(slice(len(ordered_intra), len(ordered_intra) + len(block)))
        ordered_intra.extend(block)
    # inter edges form a tree over clusters; the n-1 total and the
    # per-cluster counts above leave exactly r-1 of them
    union = _union_find(partition.r)
    for s, t in inter:
        if not union(label[s], label[t]):
            raise NotSpanningTree("inter-cluster tree edges contain a cycle")
    return ordered_intra, sorted(inter), slices


def build_incidence(net: DirectedNetwork, partition: ClusterPartition,
                    tree: Sequence[Edge]) -> IncidenceSet:
    """Assemble all incidence matrices and transfer blocks for a tree."""
    if partition.net is not net and partition.net != net:
        raise GraphError("partition was built for a different network")
    edges, m_intra, _ = canonical_edge_order(net, partition)
    tree_intra, tree_inter, coord_slices = _validate_tree(net, partition, tree)
    tree_edges = tree_intra + tree_inter

    n = net.n
    B = _incidence_columns(n, edges)
    Bhat = _incidence_columns(n, tree_edges)
    Bpos = np.maximum(B, 0.0)
    W_diag = np.array([net.weight(*e) for e in edges])
    n_intra = len(tree_intra)

    # exact transfer matrix: the unique R with B.T = R Bhat.T, whose entries
    # are the -1, 0, 1 of the tree paths; rounding removes the solve's
    # round-off (+ 0.0 its negative zeros), and both identities hold exactly
    gram = Bhat.T @ Bhat
    R = np.rint(np.linalg.solve(gram, Bhat.T @ B).T) + 0.0
    if not np.array_equal(R @ Bhat.T, B.T):
        raise NotSpanningTree("edge differences are not expressible through the tree")
    if R[:m_intra, n_intra:].any():
        raise NotSpanningTree("intra-cluster differences leaked into inter coordinates")

    return IncidenceSet(
        net=net, partition=partition,
        edges=tuple(edges), tree_edges=tuple(tree_edges),
        m_intra=m_intra, B=B, Bpos=Bpos, Bhat=Bhat,
        n_intra_coords=n_intra, coord_slices=tuple(coord_slices),
        W_diag=W_diag, R=R, R1=R[:m_intra, :n_intra], R2=R[m_intra:, :n_intra],
    )


# ---------------------------------------------------------------------------
# invariance of the cluster-synchronization subspace


@dataclass(frozen=True)
class InvarianceResult:
    ok: bool
    violations: Tuple[Tuple[int, int, int, int, float], ...]


def check_invariance(net: DirectedNetwork, partition: ClusterPartition,
                     omega: Sequence[float]) -> InvarianceResult:
    """Check that cluster-synchronized states are dynamically invariant.

    Two ingredients: nodes of one cluster share the natural frequency, and
    for every ordered cluster pair (k, l), k != l, all nodes of cluster k
    receive the same total weight from cluster l.  Violations are reported
    as (k, l, i, j, residual) comparing node i against node j; frequency
    mismatches use l == k.
    """
    w = net.weight_matrix()
    omega = np.asarray(omega, dtype=float)
    if omega.shape != (net.n,):
        raise GraphError("omega must have one entry per node")
    violations: List[Tuple[int, int, int, int, float]] = []
    for k, ck in enumerate(partition.clusters):
        base = ck[0]
        for i in ck[1:]:
            res = abs(omega[i] - omega[base])
            if not res <= invariance_tolerance:  # a NaN residual is a violation too
                violations.append((k, k, base, i, float(res)))
        for l, cl in enumerate(partition.clusters):
            if l == k:
                continue
            sums = [float(w[i, list(cl)].sum()) for i in ck]
            for idx, i in enumerate(ck[1:], start=1):
                res = abs(sums[idx] - sums[0])
                if not res <= invariance_tolerance:
                    violations.append((k, l, base, i, float(res)))
    return InvarianceResult(ok=not violations, violations=tuple(violations))


# ---------------------------------------------------------------------------
# directed acyclic structure of square matrices

# Entry (i, j) != 0 of a square matrix is read as the influence j -> i.


def _influence_adjacency(a: np.ndarray) -> List[List[int]]:
    n = a.shape[0]
    adj: List[List[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and abs(a[i, j]) > 0.0:
                adj[j].append(i)  # j influences i
    return adj


def topological_order(a: np.ndarray) -> List[int]:
    """Topological order of the off-diagonal influence pattern.

    Raises CycleDetected with a witness cycle when the pattern is cyclic.
    """
    a = np.asarray(a)
    n = a.shape[0]
    adj = _influence_adjacency(a)
    state = [0] * n  # 0 unvisited, 1 on stack, 2 done
    order: List[int] = []
    stack_trace: List[int] = []

    def visit(u: int) -> None:
        state[u] = 1
        stack_trace.append(u)
        for v in adj[u]:
            if state[v] == 1:
                cycle = stack_trace[stack_trace.index(v):] + [v]
                raise CycleDetected(f"influence pattern contains a cycle {cycle}", cycle)
            if state[v] == 0:
                visit(v)
        stack_trace.pop()
        state[u] = 2
        order.append(u)

    for u in range(n):
        if state[u] == 0:
            visit(u)
    order.reverse()
    return order


def permutation_to_qlt(a: np.ndarray) -> np.ndarray:
    """Permutation Q with Q A Q^T strictly lower triangular off the diagonal.

    Sources of influence get small indices, so every nonzero off-diagonal
    entry of the permuted matrix sits below the diagonal.
    """
    a = np.asarray(a)
    order = topological_order(a)
    n = a.shape[0]
    q = np.zeros((n, n))
    for new, old in enumerate(order):
        q[new, old] = 1.0
    return q
