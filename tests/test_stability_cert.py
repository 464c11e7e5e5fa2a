"""Tests for the certification pipeline: averaged Jacobians, the comparison
matrix, report round-trips, and certificate soundness on a weakly coupled
network."""

import json
import math
import importlib.resources as ir

import numpy as np
import pytest

import vibrosync as vs

SQ2 = math.sqrt(2.0)

J1 = 0.05 * np.array([[-8.0, 0.0, 2.0],
                      [-1.0, -4.0, -1.0],
                      [1.0, -1.0, -5.0]])
DELTA1 = np.array([[0.0, 0.05, 0.0],
                   [0.0, 0.0, 0.0],
                   [-0.05, 0.0, 0.0]])
J2 = np.array([[-3.0, 0.0, 1.0],
               [-1.0, -2.0, 1.0],
               [1.0, 0.0, -3.0]])


@pytest.fixture(scope="module")
def flip_report(flip_lin, flip_design):
    return vs.certify(flip_lin, flip_design.schedule, empirical=False)


@pytest.fixture(scope="module")
def weak_pair():
    """Flagship network with inter-cluster weights scaled down 100x."""
    data = json.loads(ir.files("vibrosync")
                      .joinpath("scenarios/cluster_flip.json").read_text())
    edges = []
    for s, t, w in data["edges"]:
        inter = (s < 4) != (t < 4)
        edges.append((s, t, w * 0.01 if inter else w))
    net = vs.DirectedNetwork.from_edges(8, edges)
    part = vs.ClusterPartition(net, ((0, 1, 2, 3), (4, 5, 6, 7)))
    kn = vs.KuramotoNetwork(net=net, omega=np.array(data["omega"], float),
                            partition=part)
    inc = vs.build_incidence(net, part, vs.select_spanning_tree(net, part))
    return kn, inc


# ---------------------------------------------------------------------------
# averaged Jacobians


def test_averaged_jacobians_without_schedule(flip_lin):
    out = vs.averaged_jacobians(flip_lin, None)
    for got, blk in zip(out, flip_lin.J_blocks):
        assert np.abs(got - blk).max() == 0.0
        assert got is not blk  # defensive copies


def test_averaged_jacobians_flagship(flip_report):
    avg1, avg2 = flip_report.averaged_blocks
    # the two designed slots land on target
    target = J1 + DELTA1
    assert abs(avg1[0, 1] - target[0, 1]) < 1e-2
    assert abs(avg1[2, 0] - target[2, 0]) < 1e-2
    # the infeasible third slot pollutes (2, 1) by about +0.1
    assert avg1[2, 1] - J1[2, 1] == pytest.approx(0.1, abs=5e-3)
    # no second-cluster edge vibrates, so its block is untouched
    assert np.abs(avg2 - J2).max() < 1e-9


# ---------------------------------------------------------------------------
# comparison matrix


def test_build_s_arithmetic():
    r_values = [0.332, 3.62]
    gamma = np.array([[0.1, 0.05], [0.05, 0.1]])
    s = vs.build_S(r_values, gamma)
    expected = np.array([[0.232, -0.05], [-0.05, 3.52]])
    assert np.abs(s - expected).max() < 1e-12


def test_build_s_shape_error():
    with pytest.raises(ValueError, match="shape"):
        vs.build_S([1.0, 2.0, 3.0], np.eye(2))


# ---------------------------------------------------------------------------
# certification pipeline on the flagship scenario


def test_certify_flagship_uncertified(flip_report):
    rep = flip_report
    assert rep.n == 8
    assert rep.epsilon == 0.01
    assert rep.hurwitz_flags == (True, True)
    assert rep.r_values[0] == pytest.approx(0.4028, abs=1e-2)
    assert rep.r_values[1] == pytest.approx(3.6158, abs=1e-2)
    assert rep.gamma_bar.shape == (2, 2)
    assert rep.s_matrix is not None
    assert not rep.s_is_m_matrix
    assert not rep.certified
    assert rep.label == "uncertified"  # no empirical evidence requested
    assert rep.empirical is None and rep.sweep is None


def test_certify_flagship_baseline(flip_lin):
    rep = vs.certify(flip_lin, None, empirical=False)
    assert rep.hurwitz_flags == (True, True)
    assert rep.r_values[0] == pytest.approx(0.3059, abs=1e-3)
    assert rep.r_values[1] == pytest.approx(3.6158, abs=1e-3)
    assert not rep.certified
    assert rep.epsilon is None


# ---------------------------------------------------------------------------
# report serialization


def test_report_round_trip(flip_report):
    # the JSON of to_dict carries every array exactly
    data = json.loads(json.dumps(flip_report.to_dict()))
    assert data["n"] == 8
    assert data["clusters"] == [[0, 1, 2, 3], [4, 5, 6, 7]]
    assert data["tree_edges"] == [list(e) for e in flip_report.tree_edges]
    assert data["label"] == "uncertified"
    assert data["certified"] is False and data["s_is_m_matrix"] is False
    assert data["j_blocks"] == [b.tolist() for b in flip_report.j_blocks]
    assert data["averaged_blocks"] == [b.tolist() for b in flip_report.averaged_blocks]
    assert data["gamma_bar"] == flip_report.gamma_bar.tolist()
    assert data["s_matrix"] == flip_report.s_matrix.tolist()
    assert data["r_values"] == list(flip_report.r_values)


def test_report_round_trip_with_empirical_and_sweep():
    rep = vs.StabilityReport(
        n=4,
        clusters=((0, 1), (2, 3)),
        tree_edges=((0, 1), (2, 3), (0, 2)),
        epsilon=0.05,
        j_blocks=(np.array([[-1.0]]), np.array([[-2.0]])),
        averaged_blocks=(np.array([[-1.5]]), np.array([[-2.0]])),
        r_values=(3.0, None),
        gamma_bar=np.array([[0.1, 0.2], [0.3, 0.4]]),
        s_matrix=None,
        certified=False,
        empirical=vs.Classification(stable=False, slopes=(0.1, -0.2),
                                    initial_norms=(0.1, 0.1),
                                    final_norms=(0.5, 0.01)),
        sweep=(vs.SweepPoint(epsilon=0.1, stable=False, worst_slope=0.1,
                             worst_final_ratio=5.0),
               vs.SweepPoint(epsilon=0.01, stable=True, worst_slope=-0.5,
                             worst_final_ratio=0.01)),
        sweep_monotone=True,
        sweep_deviations=(),
    )
    data = json.loads(json.dumps(rep.to_dict()))
    assert data["r_values"] == [3.0, None]
    assert data["hurwitz_flags"] == [True, False]
    assert data["s_matrix"] is None
    assert data["empirical"] == {"stable": False, "slopes": [0.1, -0.2],
                                 "initial_norms": [0.1, 0.1],
                                 "final_norms": [0.5, 0.01]}
    assert data["sweep"] == [
        {"epsilon": 0.1, "stable": False, "worst_slope": 0.1, "worst_final_ratio": 5.0},
        {"epsilon": 0.01, "stable": True, "worst_slope": -0.5, "worst_final_ratio": 0.01}]
    assert data["sweep_monotone"] is True
    assert data["sweep_deviations"] == []
    assert data["label"] == "not_stabilized"


# ---------------------------------------------------------------------------
# certificate soundness


def test_weak_coupling_certifies_and_is_stable(weak_pair):
    kn, inc = weak_pair
    rep = vs.certify(vs.linearize(kn, inc), None, empirical=True, seed=0)
    # the M-matrix certificate holds at weak inter-cluster coupling
    assert rep.s_is_m_matrix and rep.certified
    assert rep.label == "certified"
    # soundness: the certified network is empirically stable as well
    assert rep.empirical is not None and rep.empirical.stable


def test_weak_coupling_report_fields(weak_pair):
    kn, inc = weak_pair
    rep = vs.certify(vs.linearize(kn, inc), None, empirical=False)
    # intra-cluster blocks are unchanged by inter-cluster scaling
    assert rep.r_values[0] == pytest.approx(0.3059, abs=1e-3)
    assert rep.r_values[1] == pytest.approx(3.6158, abs=1e-3)
    # all comparison-matrix off-diagonal entries are small now
    off = rep.gamma_bar - np.diag(np.diag(rep.gamma_bar))
    assert np.abs(off).max() < 0.1
