import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vibrosync as vs
from vibrosync.graph_core import (CycleDetected, DisconnectedCluster,
                                  DisconnectedNetwork, GraphError,
                                  NotSpanningTree, canonical_edge_order)

from conftest import random_clustered_network


def two_cluster_net():
    # 0-1 and 2-3, all two-way, one inter edge each way
    edges = [(0, 1, 1.0), (1, 0, 2.0), (2, 3, 0.5), (3, 2, 0.5),
             (0, 2, 0.3), (2, 0, 0.7)]
    net = vs.DirectedNetwork.from_edges(4, edges)
    part = vs.ClusterPartition(net, ((0, 1), (2, 3)))
    return net, part


def test_network_validation():
    with pytest.raises(GraphError):
        vs.DirectedNetwork.from_edges(2, [(0, 0, 1.0)])  # self loop
    with pytest.raises(GraphError):
        vs.DirectedNetwork.from_edges(2, [(0, 1, 1.0), (0, 1, 2.0)])  # dup
    with pytest.raises(GraphError):
        vs.DirectedNetwork.from_edges(2, [(0, 1, -1.0)])  # nonpositive
    with pytest.raises(GraphError):
        vs.DirectedNetwork.from_edges(2, [(0, 5, 1.0)])  # out of range


@pytest.mark.parametrize("n, edge", [
    (3, (0.7, 1)), (3, (0, 1.0)), (3, (True, 2)), (3, (0, False)), (3, ("0", 1)),
    (2.5, (0, 1)), (2.0, (0, 1)), (True, (0, 1)), (np.float64(3.0), (0, 1)),
], ids=["fractional_source", "float_target", "boolean_source", "boolean_target",
        "text_source", "fractional_count", "float_count", "boolean_count", "numpy_float_count"])
def test_node_indices_and_counts_must_be_integers(n, edge):
    # int() would truncate 0.7 to node 0 and True to node 1
    with pytest.raises(GraphError, match="must be an integer"):
        vs.DirectedNetwork.from_edges(n, [(*edge, 1.0), (1, 0, 1.0)])
    with pytest.raises(GraphError, match="must be an integer"):
        vs.DirectedNetwork(n, ((0, 1), (1, 0), edge), {})


def test_numpy_integer_nodes_are_plain_ints():
    net = vs.DirectedNetwork.from_edges(np.int64(3), [(np.int32(0), np.int64(1), 1.0),
                                                      (np.intc(1), 2, 0.5)])
    assert net.edges == ((0, 1), (1, 2))
    assert all(type(v) is int for e in net.edges for v in e)


def test_weight_matrix_round_trip():
    net, _ = two_cluster_net()
    w = net.weight_matrix()
    # convention: w[target, source]
    assert w[1, 0] == 1.0 and w[0, 1] == 2.0
    # the nonzero entries are exactly the weighted edges
    assert {(s, t): w[t, s] for t, s in zip(*np.nonzero(w))} == net.weights


def test_partition_validation():
    net, _ = two_cluster_net()
    with pytest.raises(GraphError):
        vs.ClusterPartition(net, ((0, 1), (2,)))  # singleton cluster
    with pytest.raises(GraphError):
        vs.ClusterPartition(net, ((1, 0), (2, 3)))  # not ascending
    with pytest.raises(GraphError):
        vs.ClusterPartition(net, ((0, 1),))  # not a partition of all nodes
    # one-way intra edge only -> not strongly connected
    bad = vs.DirectedNetwork.from_edges(4, [(0, 1, 1.0), (2, 3, 1.0),
                                            (3, 2, 1.0), (0, 2, 1.0)])
    with pytest.raises(DisconnectedCluster):
        vs.ClusterPartition(bad, ((0, 1), (2, 3)))


def test_partition_lookup():
    net, part = two_cluster_net()
    assert part.r == 2
    assert part.node_to_cluster().tolist() == [0, 0, 1, 1]


def test_spanning_tree_strategies_and_inter_join(flip_inc):
    # highest-degree root with in-strength tie-breaks on the bundled net
    assert flip_inc.tree_edges == ((2, 0), (2, 1), (2, 3),
                                   (4, 5), (4, 6), (4, 7), (0, 4))

    net, part = two_cluster_net()
    tree_ff = vs.select_spanning_tree(net, part, "first_found")
    assert tree_ff == ((0, 1), (2, 3), (0, 2))
    with pytest.raises(ValueError):
        vs.select_spanning_tree(net, part, "bogus")


def test_disconnected_network_missing_inter():
    edges = [(0, 1, 1.0), (1, 0, 2.0), (2, 3, 0.5), (3, 2, 0.5)]
    net = vs.DirectedNetwork.from_edges(4, edges)
    part = vs.ClusterPartition(net, ((0, 1), (2, 3)))
    with pytest.raises(DisconnectedNetwork):
        vs.select_spanning_tree(net, part)


def test_canonical_edge_order():
    net, part = two_cluster_net()
    edges, m_intra, slices = canonical_edge_order(net, part)
    assert m_intra == 4
    assert edges == ((0, 1), (1, 0), (2, 3), (3, 2), (0, 2), (2, 0))


def test_incidence_matrices():
    net, part = two_cluster_net()
    tree = vs.select_spanning_tree(net, part)
    inc = vs.build_incidence(net, part, tree)
    # column of edge (s, t): -1 at s, +1 at t
    for col, (s, t) in enumerate(inc.edges):
        expect = np.zeros(net.n)
        expect[s] = -1.0
        expect[t] = 1.0
        assert inc.B[:, col] == pytest.approx(expect)
    # exact reduction identity and its block structure
    assert np.array_equal(inc.R @ inc.Bhat.T, inc.B.T)
    n_x = inc.n_intra_coords
    assert not inc.R[: inc.m_intra, n_x:].any()
    # intra tree coordinates are the tree-edge differences
    theta = np.array([0.0, 0.3, 1.0, -0.2])
    x = theta @ inc.Bhat_intra
    for p, (parent, child) in enumerate(inc.tree_edges[: n_x]):
        assert x[p] == pytest.approx(theta[child] - theta[parent])


def test_incidence_rejects_bad_tree():
    net, part = two_cluster_net()
    with pytest.raises(GraphError):
        vs.build_incidence(net, part, ((0, 1), (2, 3)))  # no inter edge
    with pytest.raises(GraphError):
        vs.build_incidence(net, part, ((0, 1), (0, 1), (0, 2)))


def three_cluster_net():
    # clusters {0,1,2}, {3,4}, {5,6} with two-way intra edges; inter edges
    # join cluster 0 to 1 twice and cluster 1 to 2
    edges = [(0, 1, 1.0), (1, 0, 1.0), (1, 2, 1.0), (2, 1, 1.0),
             (3, 4, 1.0), (4, 3, 1.0), (5, 6, 1.0), (6, 5, 1.0),
             (0, 3, 0.5), (3, 0, 0.5), (1, 4, 0.5), (3, 5, 0.5), (5, 3, 0.5)]
    net = vs.DirectedNetwork.from_edges(7, edges)
    return net, vs.ClusterPartition(net, ((0, 1, 2), (3, 4), (5, 6)))


@pytest.mark.parametrize("tree, message", [
    (((0, 1), (1, 2), (3, 4), (5, 6), (0, 3), (4, 5)), "not an edge of the network"),
    (((0, 1), (1, 0), (1, 2), (5, 6), (0, 3), (3, 5)), "cluster 0 needs 2 intra"),
    (((0, 1), (1, 0), (3, 4), (5, 6), (0, 3), (3, 5)), "do not span cluster 0"),
    (((0, 1), (1, 2), (3, 4), (5, 6), (0, 3), (1, 4)), "contain a cycle"),
], ids=["missing_edge", "intra_count", "intra_not_spanning", "inter_cycle"])
def test_incidence_rejects_each_bad_tree_shape(tree, message):
    net, part = three_cluster_net()
    vs.build_incidence(net, part, ((0, 1), (1, 2), (3, 4), (5, 6), (0, 3), (3, 5)))
    with pytest.raises(NotSpanningTree, match=message):
        vs.build_incidence(net, part, tree)


def _rank(n, edges):
    b = np.zeros((n, len(edges)))
    for c, (s, t) in enumerate(edges):
        b[s, c], b[t, c] = -1.0, 1.0
    return np.linalg.matrix_rank(b) if edges else 0


def _is_compatible_spanning_tree(n, part, tree):
    """Rank oracle: n-1 edges of full rank, |c|-1 full-rank intra edges per cluster."""
    if len(tree) != n - 1 or _rank(n, tree) != n - 1:
        return False
    for c in part.clusters:
        intra = [e for e in tree if e[0] in c and e[1] in c]
        if len(intra) != len(c) - 1 or _rank(n, intra) != len(c) - 1:
            return False
    return True


@settings(max_examples=80, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1), random_subset=st.booleans(), data=st.data())
def test_build_incidence_accepts_exactly_the_spanning_trees(seed, random_subset, data):
    net, part = random_clustered_network(np.random.default_rng(seed))
    edges = list(net.edges)
    if random_subset:
        tree = data.draw(st.permutations(edges))[: net.n - 1]
    else:
        # a valid tree with up to two edges swapped out, so both verdicts occur
        tree = list(vs.select_spanning_tree(net, part))
        for _ in range(data.draw(st.integers(0, 2))):
            i = data.draw(st.integers(0, net.n - 2))
            tree[i] = data.draw(st.sampled_from([e for e in edges if e not in tree]))
    if _is_compatible_spanning_tree(net.n, part, tree):
        inc = vs.build_incidence(net, part, tree)
        assert np.array_equal(inc.R @ inc.Bhat.T, inc.B.T)
    else:
        with pytest.raises(NotSpanningTree):
            vs.build_incidence(net, part, tree)


def test_reduction_identity_random_networks(flip_inc):
    # the flagship's float solve carries 2.2e-16 of round-off into R
    incs = [flip_inc]
    rng = np.random.default_rng(11)
    for _ in range(10):
        net, part = random_clustered_network(rng)
        for strategy in ("min_depth", "first_found"):
            incs.append(vs.build_incidence(net, part, vs.select_spanning_tree(net, part, strategy)))
    for inc in incs:
        assert np.isin(inc.R, (-1.0, 0.0, 1.0)).all()
        assert np.array_equal(inc.R @ inc.Bhat.T, inc.B.T)


def test_invariance_flagship_and_violations(flip_kn):
    res = vs.check_invariance(flip_kn.net, flip_kn.partition, flip_kn.omega)
    assert res.ok and res.violations == ()

    net, part = two_cluster_net()
    bad_omega = np.array([1.0, 2.0, 5.0, 5.0])  # cluster 0 frequencies differ
    res = vs.check_invariance(net, part, bad_omega)
    assert not res.ok
    assert any(v[0] == v[1] == 0 for v in res.violations)

    # unequal inter-cluster row sums into cluster 0 break invariance
    edges = [(0, 1, 1.0), (1, 0, 2.0), (2, 3, 0.5), (3, 2, 0.5),
             (0, 2, 0.3), (2, 0, 0.7), (1, 2, 0.9)]
    net2 = vs.DirectedNetwork.from_edges(4, edges)
    part2 = vs.ClusterPartition(net2, ((0, 1), (2, 3)))
    res2 = vs.check_invariance(net2, part2, np.array([1.0, 1.0, 3.0, 3.0]))
    assert not res2.ok


def test_nonfinite_weights_rejected():
    for w in (np.nan, np.inf):
        with pytest.raises(GraphError, match="finite"):
            vs.DirectedNetwork.from_edges(2, [(0, 1, w), (1, 0, 1.0)])
    # a NaN frequency residual is a violation, not a pass
    net, part = two_cluster_net()
    res = vs.check_invariance(net, part, np.array([1.0, np.nan, 5.0, 5.0]))
    assert not res.ok
    assert any(v[0] == v[1] == 0 for v in res.violations)


def test_topological_order_and_qlt():
    a = np.array([[0.0, 0.0, 0.0],
                  [2.0, 0.0, 0.0],
                  [0.0, -1.0, 0.0]])  # influences 0 -> 1 -> 2
    order = vs.topological_order(a)
    assert list(order) == [0, 1, 2]
    q = vs.permutation_to_qlt(a)
    ap = q @ a @ q.T
    assert np.abs(np.triu(ap)).max() == 0.0

    # a matrix needing an actual reorder
    b = np.array([[0.0, 3.0], [0.0, 0.0]])  # influence 1 -> 0
    qb = vs.permutation_to_qlt(b)
    bp = qb @ b @ qb.T
    assert np.abs(np.triu(bp)).max() == 0.0

    cyc = np.array([[0.0, 1.0], [1.0, 0.0]])
    with pytest.raises(CycleDetected) as err:
        vs.topological_order(cyc)
    assert len(err.value.cycle) >= 2
