"""The benchmark's workloads.

Each workload is a closed loop with one caller: operation ``i + 1`` starts
only after operation ``i`` has returned and been checked.  A workload builds
its inputs in ``setup`` from the seed, runs operation ``i`` in ``op`` (the
only timed call) and validates the result in ``check``, which returns a
fingerprint of the outputs for the run-to-run determinism check plus any
work counters the result carries.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import shutil
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

import vibrosync as vs
from vibrosync import cli

FLAGSHIP = "cluster_flip"
FLAGSHIP_EPSILON = 0.01
# the designer's default closing tolerance at the time the benchmark was
# written: |avg - (a + delta)| <= rel_tol * max(|delta|, floor); fixed here so
# the check cannot move with the program
DESIGN_REL_TOL = 1e-2
DESIGN_FLOOR = 0.01


class CheckFailed(AssertionError):
    pass


def _require(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=float).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def load_flagship():
    """Scenario load, network and incidence build: every workload's set-up."""
    scenario = cli.load_scenario(FLAGSHIP)
    kn = scenario.kuramoto()
    return scenario, kn, scenario.incidence(kn)


def op_seed(seed: int, i: int) -> int:
    """Kick seed of operation ``i``: distinct per operation, fixed per seed."""
    return seed * 100_003 + i


class Workload:
    name = ""
    why = ""
    op_group = 1   # a timed run stops only after a whole group of operations
    trace_ops = 1  # operations in each half of a traced run

    def __init__(self, seed: int, tmp: Path):
        self.seed = seed
        self.tmp = tmp
        tmp.mkdir(parents=True, exist_ok=True)

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out) -> Tuple[str, Dict[str, int]]:
        raise NotImplementedError


# ---------------------------------------------------------------------------


def _design_case(rng, n: int, n_slots: int):
    """Criterion-5 generator: a random matrix with every carrier nonzero and a
    sign-consistent, chain-free, strictly lower change pattern."""
    a = rng.uniform(0.3, 1.5, (n, n)) * rng.choice([-1.0, 1.0], (n, n))
    np.fill_diagonal(a, -(1.5 + rng.uniform(0.0, 1.0, n)))
    pool = [(p, q) for p in range(1, n) for q in range(p)]
    chosen: List[Tuple[int, int]] = []
    for k in rng.permutation(len(pool)):
        p, q = pool[k]
        if len(chosen) == n_slots:
            break
        if any(q == p2 or q2 == p for p2, q2 in chosen):
            continue
        chosen.append((p, q))
    delta = np.zeros((n, n))
    for p, q in chosen:
        carrier = a[q, p]
        delta[p, q] = -np.sign(carrier) * rng.uniform(0.05, 0.4) * abs(carrier)
    return a, delta, len(chosen)


class DesignCorpus(Workload):
    name = "design_corpus"
    why = ("seeded criterion-5 linear design problems, one design_linear with "
           "verification per op: loads averaging (conjugated_average) and _trig, "
           "never the phase-network integrator")
    corpus_size = 60
    slot_cycle = (1, 2, 3, 2)
    op_group = len(slot_cycle)
    trace_ops = 8
    sizes = {1: (2, 3, 4, 5, 6), 2: (3, 4, 5, 6), 3: (4, 5, 6)}

    @classmethod
    def plan(cls, i: int) -> Tuple[int, int]:
        """(size, slots) of case i.  The slot count sets a design's cost
        through the ratio of its frequencies; it follows ``slot_cycle`` and
        timed runs are whole cycles, so every run and seed holds the same mix
        of costs, with the median inside the two-slot cases.  Sizes 2-6
        cycle within each slot count."""
        k = cls.slot_cycle[i % len(cls.slot_cycle)]
        return cls.sizes[k][(i // len(cls.slot_cycle)) % len(cls.sizes[k])], k

    def setup(self) -> None:
        self.flagship = load_flagship()
        rng = np.random.default_rng(self.seed)
        self.cases = []
        for i in range(self.corpus_size):
            n, k = self.plan(i)
            while True:
                a, delta, got = _design_case(rng, n, k)
                if got == k:
                    break
            self.cases.append((a, vs.ModificationSpec(delta=delta), k))

    def op(self, i: int):
        a, spec, _ = self.cases[i % self.corpus_size]
        return vs.design_linear(a, spec)

    def check(self, i, design):
        a, spec, k = self.cases[i % self.corpus_size]
        _require(design.verified, "design not verified")
        _require(len(design.slots) == k, f"expected {k} slots, got {len(design.slots)}")
        tol = DESIGN_REL_TOL * max(float(np.abs(spec.delta).max()), DESIGN_FLOOR)
        miss = float(np.abs(design.predicted - (a + spec.delta)).max())
        _require(miss <= tol, f"exact prediction misses a + delta by {miss:.3e}")
        slots = [(s.row, s.col, s.amplitude, s.frequency) for s in design.slots]
        return _digest(design.predicted, slots, design.residual), {}


# ---------------------------------------------------------------------------


class Ensemble(Workload):
    name = "ensemble"
    why = ("flagship at eps=0.01, schedule designed in set-up; per op a 10-sample "
           "perturbed batch + classifier and a single simulate: phase-network RK4 "
           "at batch 10 and 1, no averaging")
    batch = 10
    horizon = 2.0
    op_group = 2  # both orders of batch and single run equally often
    trace_ops = 10

    def setup(self) -> None:
        self.scenario, self.kn, self.inc = load_flagship()
        design = vs.design_cluster(self.kn, self.inc,
                                   self.scenario.modification_specs(),
                                   epsilon=FLAGSHIP_EPSILON)
        self.schedule = design.schedule

    def _initial_states(self, i: int) -> np.ndarray:
        return vs.perturbed_initial_states(
            self.inc, self.batch, self.scenario.perturbation, op_seed(self.seed, i),
            clusters=self.scenario.perturb_clusters)

    def op(self, i: int):
        # which shape runs first alternates, so neither always finds warm caches
        def batch():
            trajs = vs.sample_perturbed_trajectories(
                self.kn, self.inc, self.schedule, n_samples=self.batch,
                kick=self.scenario.perturbation, seed=op_seed(self.seed, i),
                t_end=self.horizon, clusters=self.scenario.perturb_clusters)
            return trajs, vs.classify_partial_stability(trajs)

        def single():
            theta0 = self._initial_states(i)[0]
            return vs.simulate(self.kn, self.schedule, theta0, self.horizon,
                               inc=self.inc)

        if i % 2 == 0:
            (trajs, cls), one = batch(), single()
        else:
            one = single()
            trajs, cls = batch()
        return trajs, cls, one

    def check(self, i, out):
        trajs, cls, one = out
        theta0 = self._initial_states(i)
        _require(len(trajs) == self.batch, "wrong batch size")
        for s, tr in enumerate(trajs):
            _require(bool(np.all(np.isfinite(tr.theta))), f"sample {s} not finite")
            _require(bool(np.array_equal(tr.theta[0], theta0[s])),
                     f"sample {s} did not start from its kick")
        _require(bool(np.all(np.isfinite(one.theta))), "single run not finite")
        _require(one.theta.shape == trajs[0].theta.shape, "single/batch length differ")
        gap = float(np.abs(one.theta - trajs[0].theta).max())
        _require(gap <= 1e-9, f"single run differs from batch member 0 by {gap:.3e}")
        return _digest(cls.stable, cls.slopes, cls.final_norms), {}


# ---------------------------------------------------------------------------


class Cli(Workload):
    name = "cli"
    why = ("vibrosync analyze + simulate through cli.main on the flagship with its "
           "designed schedule: certify, averaged Jacobians, perturbation bounds, "
           "CSV artifacts")
    horizon = 4.0
    trace_ops = 5
    artifacts = ("report.json", "trajectory.csv", "err.csv", "plot.gp")

    def setup(self) -> None:
        self.scenario, kn, self.inc = load_flagship()
        design_dir = self.tmp / "design"
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["design", "--scenario", FLAGSHIP, "--out", str(design_dir)])
        # 4: emitted but missed the closing verification, which the flagship
        # design does today (the exact average misses the target by 0.1)
        _require(rc in (0, 4), f"vibrosync design exited {rc}")
        schedule = json.loads((design_dir / "schedule.json").read_text())
        doc = json.loads((Path(cli.__file__).parent / "scenarios"
                          / f"{FLAGSHIP}.json").read_text())
        for key in ("modifications", "references"):
            doc.pop(key, None)
        doc["schedule"] = {"epsilon": schedule["epsilon"],
                           "entries": schedule["entries"]}
        doc["simulation"]["t_end"] = self.horizon
        self.path = self.tmp / "scenario.json"
        self.path.write_text(json.dumps(doc))
        j0 = vs.linearize(kn, self.inc).J_blocks[0]
        spec = self.scenario.modification_specs()[0]
        self.exact = vs.design_linear(j0, spec, verify=False).predicted
        self.out = self.tmp / "out"

    def op(self, i: int):
        shutil.rmtree(self.out, ignore_errors=True)
        with contextlib.redirect_stdout(io.StringIO()):
            rc_analyze = cli.main(["analyze", "--scenario", str(self.path),
                                   "--out", str(self.out)])
            rc_simulate = cli.main(["simulate", "--scenario", str(self.path),
                                    "--out", str(self.out),
                                    "--seed", str(op_seed(self.seed, i))])
        return rc_analyze, rc_simulate

    def check(self, i, out):
        _require(out == (0, 0), f"exit codes {out}")
        blobs = [(self.out / name).read_bytes() for name in self.artifacts]
        report = json.loads(blobs[0])
        _require(report["invariance"]["ok"], "invariance check failed")
        _require(all(r is not None for r in report["r_values"]),
                 "an averaged block is not Hurwitz")
        # numeric average against the exact engine, criterion 4's tolerance
        gap = float(np.abs(np.array(report["averaged_blocks"][0]) - self.exact).max())
        _require(gap <= 1e-2 * float(np.abs(self.exact).max()),
                 f"averaged cluster-1 block differs from the exact average by {gap:.3e}")
        rows = list(csv.reader(io.StringIO(blobs[1].decode())))
        values = np.array(rows[1:], dtype=float)
        _require(bool(np.all(np.isfinite(values))), "trajectory not finite")
        _require(abs(values[-1, 0] - self.horizon) <= 1e-9, "trajectory ends early")
        return _digest(*blobs), {"cli.artifact_bytes": sum(map(len, blobs))}


WORKLOADS = {w.name: w for w in (DesignCorpus, Ensemble, Cli)}
