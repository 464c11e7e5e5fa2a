"""Tests for the vibration designers: modifiable patterns, the triangular
linear-system synthesis, and the oscillator-network layer on top of it."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import vibrosync as vs
from conftest import random_clustered_network
from test_acceptance import _random_design_case
from vibrosync import vib_design

SQ2 = math.sqrt(2.0)

# reduced intra-cluster Jacobian blocks of the flagship network and the
# requested change for its first cluster (frozen reference values)
J1 = 0.05 * np.array([[-8.0, 0.0, 2.0],
                      [-1.0, -4.0, -1.0],
                      [1.0, -1.0, -5.0]])
DELTA1 = np.array([[0.0, 0.05, 0.0],
                   [0.0, 0.0, 0.0],
                   [-0.05, 0.0, 0.0]])


# ---------------------------------------------------------------------------
# modifiable pattern


def test_modifiable_graph_mirror_rule():
    # entry (i, j) is modifiable iff the transpose entry (the carrier) is
    # nonzero; the entry itself may be zero, and the achievable direction
    # opposes the carrier's sign
    a = np.array([[-1.0, 1.0, 0.0],
                  [0.0, -1.0, 2.0],
                  [0.0, 0.0, -1.0]])
    assert vs.modifiable_graph(a) == {(1, 0): -1, (2, 1): -1}
    assert a[1, 0] == 0.0  # modifiable despite being zero itself

    b = np.array([[-1.0, -1.0], [0.0, -1.0]])
    assert vs.modifiable_graph(b) == {(1, 0): 1}


def test_modifiable_graph_flagship_block():
    signs = vs.modifiable_graph(J1)
    # every off-diagonal carrier of J1 is nonzero except J1[0,1]
    assert signs[(0, 1)] == 1   # carrier -0.05
    assert signs[(2, 0)] == -1  # carrier +0.10
    assert (1, 0) not in signs  # carrier J1[0,1] == 0


def test_validate_modification():
    ok = vs.validate_modification(J1, vs.ModificationSpec(delta=DELTA1))
    assert ok == []

    wrong_sign = DELTA1.copy()
    wrong_sign[2, 0] = +0.05
    msgs = vs.validate_modification(J1, vs.ModificationSpec(delta=wrong_sign))
    assert len(msgs) == 1 and "direction -1" in msgs[0]

    no_carrier = np.zeros((3, 3))
    no_carrier[1, 0] = 0.05
    msgs = vs.validate_modification(J1, vs.ModificationSpec(delta=no_carrier))
    assert len(msgs) == 1 and "zero reverse weight" in msgs[0]

    msgs = vs.validate_modification(J1, vs.ModificationSpec(delta=np.zeros((2, 2))))
    assert len(msgs) == 1 and "shape" in msgs[0]


def test_modification_spec_validation():
    with pytest.raises(ValueError, match="zero diagonal"):
        vs.ModificationSpec(delta=np.array([[1.0, 0.0], [0.0, 0.0]]))
    with pytest.raises(ValueError, match="square"):
        vs.ModificationSpec(delta=np.zeros((2, 3)))
    cyclic = np.array([[0.0, 1.0, 0.0],
                       [0.0, 0.0, 1.0],
                       [1.0, 0.0, 0.0]])
    with pytest.raises(vs.CycleDetected):
        vs.ModificationSpec(delta=cyclic)


def test_modification_spec_rejects_nonfinite_delta():
    for bad in (np.nan, np.inf, -np.inf):
        delta = np.zeros((3, 3))
        delta[1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            vs.ModificationSpec(delta=delta)


# ---------------------------------------------------------------------------
# linear-system designer


def test_design_linear_two_by_two():
    a = np.array([[-1.0, 1.0], [-1.0, -1.0]])
    spec = vs.ModificationSpec(delta=np.array([[0.0, 0.0], [-0.5, 0.0]]))
    d = vs.design_linear(a, spec)
    assert d.verified and d.residual < 1e-5
    assert len(d.slots) == 1
    slot = d.slots[0]
    assert (slot.row, slot.col) == (1, 0)
    assert slot.amplitude == pytest.approx(1.0, abs=1e-12)
    assert slot.frequency == pytest.approx(1.0, abs=1e-12)
    assert slot.radicand == 1
    # single-slot closed form: averaged shift is -carrier * u^2 / (2 beta^2)
    shift = -a[0, 1] * slot.amplitude**2 / (2.0 * slot.frequency**2)
    assert shift == pytest.approx(-0.5, abs=1e-12)
    # the exact averaged matrix hits the target exactly
    assert np.abs(d.predicted - (a + spec.delta)).max() < 1e-12
    assert slot.normalized_gain == pytest.approx(1.0 / SQ2, abs=1e-12)


def test_design_linear_zero_change_is_trivial():
    a = np.array([[-1.0, 1.0], [-1.0, -1.0]])
    d = vs.design_linear(a, vs.ModificationSpec(delta=np.zeros((2, 2))))
    assert d.slots == ()
    assert d.verified and d.residual == 0.0
    assert d.vibration_matrix() is None


def test_design_linear_rejects_zero_carrier():
    a = np.array([[-1.0, 0.0], [-1.0, -1.0]])
    spec = vs.ModificationSpec(delta=np.array([[0.0, 0.0], [-0.5, 0.0]]))
    with pytest.raises(vs.NotRealizable, match="zero reverse weight"):
        vs.design_linear(a, spec)


def test_design_linear_infeasible_slot_reports_partial_design():
    # the flagship first-cluster change needs a third slot whose exact DC
    # coefficient is negative, so it stays silent and verification misses
    with pytest.raises(vs.VerificationFailed) as info:
        vs.design_linear(J1, vs.ModificationSpec(delta=DELTA1))
    d = info.value.design
    assert not d.verified
    assert 0.08 < d.residual < 0.12
    assert len(d.slots) == 2
    by_slot = {(s.row, s.col): s for s in d.slots}
    assert set(by_slot) == {(0, 1), (2, 0)}
    assert by_slot[(0, 1)].amplitude == pytest.approx(SQ2, abs=1e-12)
    assert by_slot[(0, 1)].frequency == pytest.approx(1.0, abs=1e-12)
    assert by_slot[(2, 0)].amplitude == pytest.approx(SQ2, abs=1e-12)
    assert by_slot[(2, 0)].frequency == pytest.approx(SQ2, abs=1e-12)
    assert len(d.infeasible_slots) == 1
    row, col, miss = d.infeasible_slots[0]
    assert (row, col) == (2, 1)
    assert miss == pytest.approx(0.1, abs=1e-12)


def test_design_linear_three_by_three_feasible():
    # a change the designer can realize completely, checked end to end
    a = np.array([[-2.0, 1.0, 0.5],
                  [-1.0, -2.0, 0.0],
                  [0.5, 0.0, -2.0]])
    delta = np.zeros((3, 3))
    delta[1, 0] = -0.4  # carrier a[0,1] = +1   -> direction -1
    delta[2, 0] = -0.3  # carrier a[0,2] = +0.5 -> direction -1
    d = vs.design_linear(a, vs.ModificationSpec(delta=delta))
    assert d.verified
    assert np.abs(d.predicted - (a + delta)).max() < 1e-10
    freqs = sorted(s.frequency for s in d.slots)
    assert len(set(freqs)) == len(freqs)  # one fresh carrier wave per slot


def pinned_cases():
    """Seeded criterion-5 cases for the exact-engine pin: 24 with chain-free
    strictly lower change patterns and 8 with chains, sizes 2-6, 1-3 slots."""
    rng = np.random.default_rng(5)
    cases = []
    for i in range(32):
        n = 2 + i % 5
        n_slots = int(rng.integers(1, min(3, n * (n - 1) // 2) + 1))
        cases.append(_random_design_case(rng, n, n_slots, chain_free=i < 24))
    return cases


def design_pin(design):
    """A design's slots, infeasible slots and exact average, floats as
    ``float.hex``, so that a pin compares them bit for bit."""
    return {"slots": [[s.row, s.col, s.radicand, s.amplitude.hex()] for s in design.slots],
            "infeasible": [[p, q, miss.hex()] for p, q, miss in design.infeasible_slots],
            "predicted": [v.hex() for v in design.predicted.ravel().tolist()]}


PIN_PATH = Path(__file__).with_name("design_pin.json")


def test_exact_engine_outputs_are_pinned(flip_design):
    # the symbolic designer's slots and exact averages, bit for bit, on the
    # seeded cases and the flagship's cluster-0 design (recorded values)
    pins = json.loads(PIN_PATH.read_text())
    got = [design_pin(vs.design_linear(a, spec, verify=False)) for a, spec in pinned_cases()]
    got.append(design_pin(flip_design.designs[0]))
    assert len(got) == len(pins)
    for case, (g, want) in enumerate(zip(got, pins)):
        assert g == want, f"case {case} moved"


def test_designs_repeat_when_interleaved():
    # designs share the exact engine's ZERO and ONE: each case designed
    # again after the others, in reverse order, gives the same slots,
    # exact average and verification residual bit for bit
    cases = pinned_cases()[:10]

    def fingerprint(a, spec):
        design = vs.design_linear(a, spec)
        return design_pin(design), design.residual.hex()

    first = [fingerprint(a, spec) for a, spec in cases]
    again = [fingerprint(a, spec) for a, spec in reversed(cases)]
    assert again[::-1] == first


# ---------------------------------------------------------------------------
# oscillator-network layer


def test_edge_influence_flagship(flip_inc):
    sl = flip_inc.coord_slices[0]
    m10 = vs.edge_influence(flip_inc, (1, 0))[sl, sl]
    m20 = vs.edge_influence(flip_inc, (2, 0))[sl, sl]
    e = np.zeros((3, 3))
    e[0, 1], e[0, 0] = 1.0, -1.0
    assert np.abs(m10 - e).max() < 1e-12
    e = np.zeros((3, 3))
    e[0, 0] = -1.0
    assert np.abs(m20 - e).max() < 1e-12


def test_kuramoto_modifiable_flagship(flip_lin):
    recipes = vs.kuramoto_modifiable(flip_lin)
    assert len(recipes) == 2
    m0 = recipes[0]
    assert sorted(m0) == [(0, 1), (0, 2), (1, 0), (2, 0)]
    # the realizable slots: those with a recipe and a nonzero carrier
    signs = vs.modifiable_graph(flip_lin.J_blocks[0])
    assert {slot: signs[slot] for slot in m0 if slot in signs} == {
        (0, 1): 1, (0, 2): -1, (2, 0): -1}

    def recipe_dict(recipe):
        return {e: c for e, c in recipe}

    assert recipe_dict(m0[(0, 1)][0]) == {(1, 0): 1.0, (2, 0): -1.0}
    assert recipe_dict(m0[(2, 0)][0]) == {(0, 3): 1.0, (2, 3): -1.0}

    # the complete second cluster realizes more slots
    m1 = recipes[1]
    assert set(m1) & set(vs.modifiable_graph(flip_lin.J_blocks[1])) >= {(0, 1), (2, 0)}
    # every recipe reproduces its elementary matrix exactly
    sl = flip_lin.inc.coord_slices[1]
    for (p, q), slot_recipes in m1.items():
        for recipe in slot_recipes:
            acc = sum(c * vs.edge_influence(flip_lin.inc, e)[sl, sl] for e, c in recipe)
            target = np.zeros_like(acc)
            target[p, q] = 1.0
            assert np.array_equal(acc, target)


def cluster_influences(inc):
    """Per cluster, its intra edges in edge order mapped to their reduced
    influences on the cluster's coordinates."""
    label = inc.partition.node_to_cluster()
    return [{e: vs.edge_influence(inc, e)[sl, sl] for e in inc.edges[: inc.m_intra]
             if label[e[0]] == k} for k, sl in enumerate(inc.coord_slices)]


def lstsq_recipes(mats, p, q):
    """Brute-force oracle for slot (p, q): each edge whose influence alone,
    or with the first diagonal-only partner that works, matches the
    elementary matrix by least squares, as {edges: coefficients}."""
    target = np.zeros_like(next(iter(mats.values())))
    target[p, q] = 1.0
    diag_only = [f for f, m in mats.items() if m.any() and not (m - np.diag(np.diag(m))).any()]
    found = {}
    for e in mats:
        for group in [(e,)] + [(e, f) for f in diag_only if f != e]:
            stack = np.stack([mats[f].ravel() for f in group], axis=1)
            sol = np.linalg.lstsq(stack, target.ravel(), rcond=None)[0]
            if np.abs(stack @ sol - target.ravel()).max() <= 1e-10:
                found[group] = sol
                break
    return found


def check_exact_recipes(inc):
    """Every recipe of every cluster of ``inc`` sums exactly to its
    elementary matrix with coefficients +-1, and each slot's recipes are
    the oracle's; returns the number of slots checked."""
    slots = 0
    for mats in cluster_influences(inc):
        combos = vib_design._cluster_recipes(mats)
        d = next(iter(mats.values())).shape[0] if mats else 0
        assert set(combos) <= {(p, q) for p in range(d) for q in range(d) if p != q}
        for p in range(d):
            for q in range(d):
                if p == q:
                    continue
                slots += 1
                oracle = lstsq_recipes(mats, p, q)
                recipes = combos.get((p, q), ())
                assert {tuple(e for e, _ in r) for r in recipes} == set(oracle)
                for recipe in recipes:
                    coeffs = np.array([c for _, c in recipe])
                    assert np.isin(coeffs, (-1.0, 1.0)).all()
                    assert np.allclose(coeffs, oracle[tuple(e for e, _ in recipe)],
                                       rtol=0.0, atol=1e-9)
                    target = np.zeros((d, d))
                    target[p, q] = 1.0
                    assert np.array_equal(sum(c * mats[e] for e, c in recipe), target)
    return slots


@settings(max_examples=15, deadline=None, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_recipes_are_exact_and_match_the_lstsq_oracle(seed):
    net, part = random_clustered_network(np.random.default_rng(seed))
    for strategy in ("min_depth", "first_found"):
        check_exact_recipes(
            vs.build_incidence(net, part, vs.select_spanning_tree(net, part, strategy)))


def test_flagship_recipes_realize_the_designed_vibration(flip_inc, flip_design):
    # coefficients of exactly +-1: each partner's amplitude is the exact
    # negation of its primary's, the diagonal terms cancel to zero, and the
    # realized P(t) of the first cluster is the designed slot P(t)
    entries = flip_design.schedule.entries
    assert entries[(2, 0)].amplitude == -entries[(1, 0)].amplitude
    assert entries[(2, 3)].amplitude == -entries[(0, 3)].amplitude
    ts = np.linspace(0.0, 100.0, 4001)
    realized = vs.cluster_vibration_matrices(flip_inc, flip_design.schedule)[0]
    assert np.array_equal(realized(ts), flip_design.designs[0].vibration_matrix()(ts))


def test_no_realizable_edges():
    # two-node clusters have one reduced coordinate each: no off-diagonal
    # slots exist anywhere, so the designer has nothing to work with
    net = vs.DirectedNetwork.from_edges(4, [
        (0, 1, 1.0), (1, 0, 1.0), (2, 3, 1.0), (3, 2, 1.0),
        (0, 2, 0.5), (1, 3, 0.5), (2, 0, 0.5), (3, 1, 0.5)])
    part = vs.ClusterPartition(net, ((0, 1), (2, 3)))
    kn = vs.KuramotoNetwork(net=net, omega=np.array([1.0, 1.0, 2.0, 2.0]),
                            partition=part)
    inc = vs.build_incidence(net, part, vs.select_spanning_tree(net, part))
    with pytest.raises(vs.NoRealizableEdges):
        vs.kuramoto_modifiable(vs.linearize(kn, inc))


def test_design_cluster_flagship_schedule(flip_design, flip_lin):
    sched = flip_design.schedule
    assert sched.epsilon == 0.01
    expected = {
        (1, 0): (SQ2, 1.0),
        (2, 0): (-SQ2, 1.0),
        (0, 3): (SQ2, SQ2),
        (2, 3): (-SQ2, SQ2),
    }
    assert set(sched.entries) == set(expected)
    for e, (amp, freq) in expected.items():
        entry = sched.entries[e]
        assert entry.amplitude == pytest.approx(amp, abs=1e-9)
        assert entry.frequency == pytest.approx(freq, abs=1e-12)
        assert entry.phase == 0.0

    # the infeasible third slot leaves the first cluster's design unverified,
    # and the design carries the realized residual
    assert not flip_design.all_verified
    assert set(flip_design.designs) == {0}
    assert flip_design.designs[0].verified is False
    assert flip_design.designs[0].residual == pytest.approx(0.1, abs=2e-3)
    assert flip_design.residuals == {0: flip_design.designs[0].residual}

    # targets: first cluster shifted, second untouched
    assert np.abs(flip_design.targets[0] - (J1 + DELTA1)).max() < 1e-9
    j2 = np.array([[-3.0, 0.0, 1.0],
                   [-1.0, -2.0, 1.0],
                   [1.0, 0.0, -3.0]])
    assert np.abs(flip_design.targets[1] - j2).max() < 1e-9

    # the certificate of the targets: ingredients have the right shapes
    gamma_bar = vs.perturbation_bounds(flip_lin, flip_design.growth)
    target_robustness, s_matrix, s_is_m = vs.comparison(flip_design.targets,
                                                        gamma_bar)
    assert not (s_is_m and flip_design.all_verified)
    assert gamma_bar.shape == (2, 2)
    assert s_matrix.shape == (2, 2)
    assert target_robustness == tuple(vs.robustness(t) for t in flip_design.targets)
    assert np.allclose(np.diag(s_matrix),
                       np.array(target_robustness) - np.diag(gamma_bar))


def test_design_cluster_slot_matrices_merge(flip_kn, flip_inc, flip_design):
    # summing the per-edge vibrations through their influence matrices gives
    # pure elementary slot drives on the first cluster's coordinates
    sl = flip_inc.coord_slices[0]
    by_freq = {}
    for e, entry in flip_design.schedule.entries.items():
        m = vs.edge_influence(flip_inc, e)[sl, sl]
        key = round(entry.frequency, 12)
        by_freq[key] = by_freq.get(key, 0.0) + entry.amplitude * m
    slots = {(s.row, s.col): s for s in flip_design.designs[0].slots}
    assert set(slots) == {(0, 1), (2, 0)}
    for (row, col), slot in slots.items():
        drive = np.zeros((3, 3))
        drive[row, col] = slot.amplitude
        assert np.array_equal(by_freq[round(slot.frequency, 12)], drive)


def test_design_cluster_verifies_the_realized_schedule(flip_kn, flip_inc, monkeypatch):
    # a one-slot change the first cluster's edges realize on target; with the
    # last coefficient of every cancellation recipe off by 10 % the symbolic
    # design is unchanged, and only the average of the realized schedule
    # shows that its edges no longer drive the designed slot alone
    delta = np.zeros((3, 3))
    delta[0, 1] = 0.05
    specs = {0: vs.ModificationSpec(delta=delta)}
    good = vs.design_cluster(flip_kn, flip_inc, specs)
    assert good.all_verified and good.designs[0].verified is True
    assert good.residuals[0] <= specs[0].tolerance

    cluster_recipes = vib_design._cluster_recipes

    def corrupted(mats):
        return {slot: tuple(recipe[:-1] + ((recipe[-1][0], 1.1 * recipe[-1][1]),)
                            for recipe in recipes)
                for slot, recipes in cluster_recipes(mats).items()}

    monkeypatch.setattr(vib_design, "_cluster_recipes", corrupted)
    bad = vs.design_cluster(flip_kn, flip_inc, specs)
    assert bad.designs[0].slots == good.designs[0].slots
    assert bad.schedule.entries != good.schedule.entries
    assert not bad.all_verified and bad.designs[0].verified is False
    assert bad.residuals[0] > 10 * specs[0].tolerance


def test_design_cluster_shape_mismatch(flip_kn, flip_inc):
    bad = {0: vs.ModificationSpec(delta=np.array([[0.0, 0.1], [0.0, 0.0]]))}
    with pytest.raises(vs.NotRealizable, match="shape"):
        vs.design_cluster(flip_kn, flip_inc, bad)


def test_design_cluster_slot_without_recipe(flip_kn, flip_inc):
    # slot (2, 1) of the first cluster has a carrier but no cancellation
    # recipe from this cluster's edges
    delta = np.zeros((3, 3))
    delta[2, 1] = 0.05  # carrier J1[1,2] = -0.05 -> direction +1 is fine
    bad = {0: vs.ModificationSpec(delta=delta)}
    with pytest.raises(vs.NotRealizable, match="no edge recipe"):
        vs.design_cluster(flip_kn, flip_inc, bad)


@pytest.mark.parametrize("key", [7, -1], ids=["key_out_of_range", "negative_key"])
def test_design_cluster_rejects_spec_for_another_cluster(flip_kn, flip_inc, key):
    with pytest.raises(ValueError, match=rf"^spec for cluster {key}\b"):
        vs.design_cluster(flip_kn, flip_inc, {key: vs.ModificationSpec(delta=DELTA1)})
