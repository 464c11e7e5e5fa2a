import numpy as np
import pytest

import vibrosync as vs
from vibrosync.cli import load_scenario


@pytest.fixture(scope="session")
def flip_scenario():
    return load_scenario("cluster_flip")


@pytest.fixture(scope="session")
def flip_kn(flip_scenario):
    return flip_scenario.kuramoto()


@pytest.fixture(scope="session")
def flip_inc(flip_scenario, flip_kn):
    return flip_scenario.incidence(flip_kn)


@pytest.fixture(scope="session")
def flip_lin(flip_kn, flip_inc):
    return vs.linearize(flip_kn, flip_inc)


@pytest.fixture(scope="session")
def flip_design(flip_scenario, flip_kn, flip_inc):
    return vs.design_cluster(flip_kn, flip_inc, flip_scenario.modification_specs(),
                             epsilon=0.01)


def incidence(kn):
    """The min-depth incidence set of ``kn``, the CLI's default."""
    tree = vs.select_spanning_tree(kn.net, kn.partition, "min_depth")
    return vs.build_incidence(kn.net, kn.partition, tree)


def random_clustered_network(rng, n_max=12, r_max=3):
    """A random strongly-connected clustered network for structural tests."""
    r = int(rng.integers(2, r_max + 1))
    sizes = [2] * r
    budget = int(rng.integers(0, max(1, n_max - 2 * r + 1)))
    for _ in range(budget):
        sizes[int(rng.integers(0, r))] += 1
    nodes = np.arange(sum(sizes))
    clusters, start = [], 0
    for s in sizes:
        clusters.append(tuple(int(i) for i in nodes[start:start + s]))
        start += s

    edges = {}

    def add(s, t):
        if s != t and (s, t) not in edges:
            edges[(s, t)] = float(rng.uniform(0.2, 2.0))

    for c in clusters:
        for a, b in zip(c, c[1:] + c[:1]):  # two-way ring: strongly connected
            if len(c) == 2 and (a, b) in edges:
                continue
            add(a, b)
            add(b, a)
        for _ in range(len(c)):
            i, j = rng.choice(c, 2, replace=False)
            add(int(i), int(j))
    for k in range(r - 1):  # inter chain plus extras
        add(clusters[k][0], clusters[k + 1][0])
        add(clusters[k + 1][0], clusters[k][0])
    for _ in range(r):
        a, b = rng.integers(0, r, 2)
        if a != b:
            add(int(rng.choice(clusters[a])), int(rng.choice(clusters[b])))

    net = vs.DirectedNetwork.from_edges(len(nodes),
                                        [(s, t, w) for (s, t), w in edges.items()])
    part = vs.ClusterPartition(net, tuple(clusters))
    return net, part
