"""Command-line interface: analyze, design, simulate and reproduce.

Scenarios are JSON documents; unknown fields are rejected so typos fail
loudly.  All outputs are written atomically (temp file + rename) and are
byte-identical across reruns with the same inputs.

``reproduce`` ends in a summary with one pass/fail row per check; its rows
against the scenario's ``references`` come from one table,
``_reference_checks``, which also names the references a scenario must hold.

Exit codes: 0 success, 2 scenario/validation problem (including non-finite
numbers, integers too large for a float, a non-positive epsilon or sync
tolerance, a negative seed, perturbation or reference tolerance, missing
references or modifications that a command needs, a simulation dt too
coarse for the fastest period, a vibrated edge missing from the network or
crossing clusters, and cluster-synchronized states that are not invariant
where a command needs them), 3 design not realizable (including a cyclic
change pattern), 4 a verification or reproduction check failed (artifacts
are still written), or an average did not settle within the longest
averaging horizon (the command stops there).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from . import _phase_kernel
from .graph_core import (ClusterPartition, CycleDetected, DirectedNetwork,
                         GraphError, IncidenceSet, build_incidence,
                         select_spanning_tree)
from .kuramoto_dynamics import (InvarianceViolated, KuramotoNetwork, Trajectory,
                                VibrationEntry, VibrationSchedule,
                                averaged_jacobians, linearize,
                                perturbation_bounds, perturbed_initial_states,
                                simulate, sync_error)
from .linalg import HorizonTooShort, StepTooCoarse
from .stability_cert import StabilityReport, certify, comparison
from .vib_design import (ClusterDesign, ModificationSpec, NotRealizable,
                         design_cluster)


class ScenarioError(ValueError):
    pass


def _require_keys(obj: dict, allowed: set, required: set, where: str) -> None:
    if not isinstance(obj, dict):
        raise ScenarioError(f"{where} must be an object")
    unknown = set(obj) - allowed
    if unknown:
        raise ScenarioError(f"unknown field(s) {sorted(unknown)} in {where}")
    missing = required - set(obj)
    if missing:
        raise ScenarioError(f"missing field(s) {sorted(missing)} in {where}")


def _require_list(value, where: str) -> list:
    if not isinstance(value, list):
        raise ScenarioError(f"{where} must be a list")
    return value


def _require_finite(values: Sequence[float], where: str) -> None:
    """Every value a number but not a bool, neither NaN nor beyond the floats."""
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool)
               and abs(v) <= sys.float_info.max for v in values):
        raise ScenarioError(f"{where} must be finite numbers")


def _require_positive(value: float, where: str) -> None:
    if not 0 < value < math.inf:
        raise ScenarioError(f"{where} must be positive and finite, got {value!r}")


def _require_int(value, where: str) -> int:
    """``value`` itself if it is an integer; a bool or a float is an error."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ScenarioError(f"{where} must be an integer, got {value!r}")
    return value


def _require_seed(value: int, where: str) -> None:
    if value < 0:
        raise ScenarioError(f"{where} must be a non-negative integer, got {value!r}")


@dataclass(frozen=True)
class Scenario:
    """A fully validated scenario document."""

    name: str
    n: int
    edges: Tuple[Tuple[int, int, float], ...]
    clusters: Tuple[Tuple[int, ...], ...]
    omega: Tuple[float, ...]
    schedule: Optional[dict]
    modifications: Tuple[dict, ...]
    theta0: Optional[Tuple[float, ...]]
    seed: int
    perturbation: float
    perturb_clusters: Optional[Tuple[int, ...]]
    t_end: float
    dt: Optional[float]
    epsilon: float
    sync_tolerance: float
    references: dict

    def kuramoto(self) -> KuramotoNetwork:
        net = DirectedNetwork.from_edges(self.n, self.edges)
        part = ClusterPartition(net, self.clusters)
        return KuramotoNetwork(net=net, omega=np.array(self.omega), partition=part)

    def incidence(self, kn: KuramotoNetwork) -> IncidenceSet:
        tree = select_spanning_tree(kn.net, kn.partition)
        return build_incidence(kn.net, kn.partition, tree)

    def vibration_schedule(self, epsilon: Optional[float] = None) -> Optional[VibrationSchedule]:
        if self.schedule is None:
            return None
        entries: Dict[Tuple[int, int], VibrationEntry] = {}
        for item in self.schedule["entries"]:
            s, t = (_require_int(v, "schedule entry edge end") for v in item["edge"])
            if (s, t) in entries:
                raise ScenarioError(f"duplicate edge ({s},{t})")
            entries[(s, t)] = VibrationEntry(
                amplitude=float(item["amplitude"]),
                frequency=float(item["frequency"]),
                phase=float(item.get("phase", 0.0)),
            )
        eps = float(self.schedule["epsilon"]) if epsilon is None else epsilon
        return VibrationSchedule(entries=entries, epsilon=eps)

    def modification_specs(self) -> Dict[int, ModificationSpec]:
        if not self.modifications:
            raise ScenarioError("scenario has no modifications to design for")
        specs: Dict[int, ModificationSpec] = {}
        for item in self.modifications:
            k = item["cluster"]
            try:
                specs[k] = ModificationSpec(delta=np.array(item["delta"], dtype=float))
            except CycleDetected:
                raise
            except (ValueError, OverflowError) as exc:
                raise ScenarioError(f"modification for cluster {k}: {exc}") from exc
        return specs


def load_scenario(source: str) -> Scenario:
    """Load a scenario from a file path or a bundled scenario name."""
    path = Path(source)
    try:
        if path.exists():
            text = path.read_text(encoding="utf-8")
        else:
            bundle = resources.files("vibrosync") / "scenarios" / f"{source}.json"
            if not bundle.is_file():
                raise ScenarioError(f"scenario {source!r} is neither a file nor a bundled name")
            text = bundle.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ScenarioError(f"cannot read scenario {source!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"scenario is not valid JSON: {exc}") from exc
    return parse_scenario(data)


def parse_scenario(data: dict) -> Scenario:
    _require_keys(data, allowed={"name", "description", "n", "edges", "clusters",
                                 "omega", "schedule", "modifications", "simulation",
                                 "tolerances", "references"},
                  required={"name", "n", "edges", "clusters", "omega"},
                  where="scenario")
    modifications = tuple(_require_list(data.get("modifications", []), "modifications"))
    for item in modifications:
        _require_keys(item, {"cluster", "delta"}, {"cluster", "delta"},
                      "modification")
    sim = data.get("simulation", {})
    _require_keys(sim, {"theta0", "seed", "perturbation", "perturb_clusters",
                        "t_end", "dt", "epsilon"}, set(), "simulation")
    tolerances = data.get("tolerances", {})
    _require_keys(tolerances, {"sync"}, set(), "tolerances")

    try:
        n = _require_int(data["n"], "n")
        edges = tuple((_require_int(s, "edge end"), _require_int(t, "edge end"),
                       float(w)) for s, t, w in data["edges"])
        clusters = tuple(tuple(_require_int(i, "cluster member") for i in c)
                         for c in data["clusters"])
        omega = tuple(float(x) for x in data["omega"])
        mod_clusters = [_require_int(m["cluster"], "modification cluster") for m in modifications]
        deltas = [np.array(item["delta"], dtype=float) for item in modifications]
        theta0 = sim.get("theta0")
        if theta0 is not None:
            theta0 = tuple(float(x) for x in theta0)
        perturb_clusters = sim.get("perturb_clusters")
        if perturb_clusters is not None:
            perturb_clusters = tuple(_require_int(k, "simulation perturb_clusters entry")
                                     for k in perturb_clusters)
        seed = _require_int(sim.get("seed", 0), "simulation seed")
        perturbation = float(sim.get("perturbation", 0.1))
        t_end = float(sim.get("t_end", 100.0))
        dt = None if sim.get("dt") is None else float(sim["dt"])
        epsilon = float(sim.get("epsilon", 0.01))
        sync_tolerance = float(tolerances.get("sync", 0.01))
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"malformed scenario data: {exc}") from exc
    if len(omega) != n:
        raise ScenarioError(f"omega has {len(omega)} entries for {n} nodes")
    _require_finite([w for _, _, w in edges], "edge weights")
    _require_finite(omega, "omega")

    schedule = data.get("schedule")
    if schedule is not None:
        _require_keys(schedule, {"epsilon", "entries"}, {"epsilon", "entries"},
                      "schedule")
        for item in _require_list(schedule["entries"], "schedule entries"):
            _require_keys(item, {"edge", "amplitude", "frequency", "phase"},
                          {"edge", "amplitude", "frequency"}, "schedule entry")

    for k in mod_clusters + list(perturb_clusters or ()):
        if not 0 <= k < len(clusters):
            raise ScenarioError(f"cluster index {k} out of range for {len(clusters)} clusters")
    if perturb_clusters == ():
        raise ScenarioError("simulation perturb_clusters must name at least one cluster")
    _require_seed(seed, "simulation seed")
    for delta in deltas:
        _require_finite(delta.ravel(), "modification delta")
    if theta0 is not None:
        if len(theta0) != n:
            raise ScenarioError("theta0 length does not match the node count")
        _require_finite(theta0, "theta0")

    references = data.get("references", {})
    if not isinstance(references, dict):
        raise ScenarioError("references must be an object")

    scenario = Scenario(
        name=str(data["name"]),
        n=n, edges=edges, clusters=clusters, omega=omega,
        schedule=schedule, modifications=modifications,
        theta0=theta0, seed=seed, perturbation=perturbation,
        perturb_clusters=perturb_clusters, t_end=t_end, dt=dt, epsilon=epsilon,
        sync_tolerance=sync_tolerance, references=references,
    )
    _require_finite([scenario.perturbation, scenario.t_end], "simulation settings")
    if scenario.perturbation < 0:
        raise ScenarioError(f"simulation perturbation must be non-negative, "
                            f"got {scenario.perturbation!r}")
    _require_positive(scenario.sync_tolerance, "tolerances sync")
    if scenario.t_end < 0 or not (scenario.dt is None or 0 < scenario.dt < math.inf):
        raise ScenarioError("simulation t_end must be nonnegative and dt positive and finite")
    _require_positive(scenario.epsilon, "simulation epsilon")
    try:
        scenario.vibration_schedule()
    except (TypeError, ValueError, OverflowError) as exc:
        raise ScenarioError(f"malformed schedule: {exc}") from exc
    return scenario


# ---------------------------------------------------------------------------
# deterministic, atomic output helpers


def atomic_write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def dump_json(path: Path, obj) -> None:
    atomic_write_text(path, json.dumps(obj, indent=2, sort_keys=True) + "\n")


def trajectory_csv(traj: Trajectory, err: np.ndarray) -> Tuple[str, str]:
    """Full trajectory CSV (wrapped phases + the run's sync error ``err``)
    and the error-only CSV, every number as ``"%.10g"``."""
    n = traj.theta.shape[1]
    body, err_body = _phase_kernel.format_csv(
        np.column_stack([traj.times, traj.wrapped_theta(), err]))
    header = "t," + ",".join(f"theta_{i + 1}" for i in range(n)) + ",err\n"
    return header + body, "t,err\n" + err_body


def plot_script(err_files: Sequence[Tuple[str, str]]) -> str:
    plots = ", ".join(
        f'"{fname}" using 1:2 with lines lw 2 title "{label}"'
        for fname, label in err_files
    )
    return (
        "# Plot the synchronization error; run:  gnuplot -persist plot.gp\n"
        "set datafile separator \",\"\n"
        "set key autotitle columnhead\n"
        "set xlabel \"t\"\n"
        "set ylabel \"max intra-cluster error [rad]\"\n"
        "set logscale y\n"
        f"plot {plots}\n"
    )


def _schedule_dict(design: ClusterDesign) -> dict:
    sched = design.schedule
    entries = [
        {"edge": [s, t], "amplitude": e.amplitude, "frequency": e.frequency,
         "phase": e.phase}
        for (s, t), e in sched.sorted_items()
    ]
    gains = {}
    frequencies = {}
    for k, d in design.designs.items():
        gains[str(k)] = [slot.normalized_gain for slot in d.slots]
        frequencies[str(k)] = [slot.frequency for slot in d.slots]
    return {
        "epsilon": sched.epsilon,
        "entries": entries,
        "normalized_gains": gains,
        "slot_frequencies": frequencies,
        "verified": design.all_verified,
        "residuals": {str(k): v for k, v in design.residuals.items()},
    }


def _certificate_dict(design: ClusterDesign, gamma_bar: np.ndarray) -> dict:
    """The design targets compared against ``gamma_bar``, the schedule's bound."""
    r_values, s_matrix, s_is_m = comparison(design.targets, gamma_bar)
    return {
        "targets": [t.tolist() for t in design.targets],
        "target_robustness": list(r_values),
        "gamma_bar": gamma_bar.tolist(),
        "comparison_matrix": None if s_matrix is None else s_matrix.tolist(),
        "certified": s_is_m and design.all_verified,
        "all_designs_verified": design.all_verified,
        "residuals": {str(k): v for k, v in design.residuals.items()},
    }


# ---------------------------------------------------------------------------
# commands


# the keys an analysis report takes from StabilityReport.to_dict
_analysis_keys = ("tree_edges", "j_blocks", "averaged_blocks", "r_values",
                  "gamma_bar", "s_matrix", "certified", "label")


def _analysis(scenario: Scenario, kn: KuramotoNetwork, cert: Optional[StabilityReport],
              violations: Sequence = ()) -> dict:
    """The analysis report: the invariance check and, when the cluster states
    are invariant, the certificate ``cert``."""
    report: dict = {
        "scenario": scenario.name,
        "n": kn.net.n,
        "clusters": [list(c) for c in kn.partition.clusters],
        "invariance": {"ok": cert is not None, "violations": [list(v) for v in violations]},
    }
    if cert is not None:
        full = cert.to_dict()
        report.update({key: full[key] for key in _analysis_keys})
    return report


def cmd_analyze(scenario: Scenario, out: Path) -> int:
    kn = scenario.kuramoto()
    try:
        lin = linearize(kn, scenario.incidence(kn))
    except InvarianceViolated as exc:
        report = _analysis(scenario, kn, None, exc.violations)
    else:
        schedule = scenario.vibration_schedule()
        cert = certify(lin, schedule, *averaged_jacobians(lin, schedule), empirical=False)
        report = _analysis(scenario, kn, cert)
    dump_json(out / "report.json", report)
    print(f"wrote {out / 'report.json'}")
    return 0


def cmd_design(scenario: Scenario, out: Path, epsilon: Optional[float]) -> int:
    kn = scenario.kuramoto()
    inc = scenario.incidence(kn)
    eps = scenario.epsilon if epsilon is None else epsilon
    design = design_cluster(kn, inc, scenario.modification_specs(), epsilon=eps)
    gamma_bar = perturbation_bounds(design.lin, design.growth)
    dump_json(out / "schedule.json", _schedule_dict(design))
    dump_json(out / "certificate.json", _certificate_dict(design, gamma_bar))
    print(f"wrote {out / 'schedule.json'} and {out / 'certificate.json'}")
    if not design.all_verified:
        worst = max(design.residuals.values()) if design.residuals else float("nan")
        print(f"design verification missed the target (worst residual {worst:.3e}); "
              "the emitted schedule is best-effort", file=sys.stderr)
        return 4
    return 0


def _initial_state(scenario: Scenario, inc: IncidenceSet,
                   seed: Optional[int]) -> np.ndarray:
    if scenario.theta0 is not None:
        return np.array(scenario.theta0, dtype=float)
    use_seed = scenario.seed if seed is None else seed
    return perturbed_initial_states(inc, 1, scenario.perturbation, use_seed,
                                    clusters=scenario.perturb_clusters)[0]


def _scenario_schedule(scenario: Scenario, kn: KuramotoNetwork, inc: IncidenceSet,
                       epsilon: Optional[float]) -> Optional[VibrationSchedule]:
    eps = epsilon if epsilon is not None else scenario.epsilon
    if scenario.schedule is not None:
        return scenario.vibration_schedule(epsilon=epsilon)
    if scenario.modifications:
        design = design_cluster(kn, inc, scenario.modification_specs(), epsilon=eps)
        return design.schedule
    return None


def cmd_simulate(scenario: Scenario, out: Path, epsilon: Optional[float],
                 seed: Optional[int], uncontrolled: bool) -> int:
    kn = scenario.kuramoto()
    inc = scenario.incidence(kn)
    schedule = None if uncontrolled else _scenario_schedule(scenario, kn, inc, epsilon)
    theta0 = _initial_state(scenario, inc, seed)
    traj = simulate(kn, schedule, theta0, scenario.t_end, dt=scenario.dt, inc=inc)
    csv, err_csv = trajectory_csv(traj, sync_error(traj.theta, kn.partition))
    atomic_write_text(out / "trajectory.csv", csv)
    atomic_write_text(out / "err.csv", err_csv)
    atomic_write_text(out / "plot.gp", plot_script([("err.csv", "sync error")]))
    print(f"wrote {out / 'trajectory.csv'}, {out / 'err.csv'}, {out / 'plot.gp'}")
    return 0


@dataclass
class SummaryRow:
    name: str
    computed: str
    reference: str
    ok: bool


def _fmt_table(rows: List[SummaryRow]) -> str:
    cells = [(r.name, r.computed, r.reference, "pass" if r.ok else "FAIL") for r in rows]
    # the first three columns as wide as their widest row, the header aside
    widths = [max(len(row[i]) for row in cells) for i in range(3)] + [0]
    lines = ["  ".join(c.ljust(w) for c, w in zip(row, widths))
             for row in [("check", "computed", "reference", "result")] + cells]
    return "\n".join([lines[0], "-" * len(lines[0])] + lines[1:]) + "\n"


class _Run(NamedTuple):
    """What ``reproduce`` measured, as its reference checks read it."""
    baseline: StabilityReport  # the uncontrolled network's certificate
    shifted_margins: Sequence[Optional[float]]  # cluster 1's target's, if designed
    slots: Sequence  # of the cluster-1 design


def _nth(values: Sequence, k: int):
    """``values[k]``: "missing" past the end, "not Hurwitz" for a margin of None."""
    if k >= len(values):
        return "missing"
    return "not Hurwitz" if values[k] is None else values[k]


def _matrix(got, expected) -> Tuple[str, str, bool]:
    """Entry for entry within 1e-9 of the reference, in its shape."""
    ok = (not isinstance(got, str) and got.shape == np.shape(expected)
          and bool(np.abs(got - np.array(expected)).max() <= 1e-9))
    return got if isinstance(got, str) else "matrix", "matrix (exact)", ok


def _within(shown: str, ref_shown: str, value, ref, tol) -> Tuple[str, str, bool]:
    """Within the reference's tolerance: the value in format ``shown``, the
    reference in ``ref_shown`` ("" writes it as the scenario does)."""
    reference = f"{ref:{ref_shown}} +/- {tol}"
    if isinstance(value, str):
        return value, reference, False
    return f"{value:{shown}}", reference, bool(abs(value - ref) <= tol)


def _reference_checks(scenario: Scenario) -> List[tuple]:
    """The summary rows against the scenario's references, in row order.
    Each is (name, the references it reads: value, then tolerance, how the
    value is taken from a ``_Run``, comparator); a comparator maps the value
    and references to computed text, reference text and verdict, and a str
    value (why the run has none) fails.  Jacobian and robustness rows cover
    every cluster, and every further one a per-cluster reference names."""
    named = {int(m[1]) - 1 for m in (re.fullmatch(r"(?:j|robust)_cluster([1-9][0-9]{0,8})", key)
                                     for key in scenario.references) if m}
    clusters = sorted(named.union(range(len(scenario.clusters))))
    margin, number = (functools.partial(_within, shown, "") for shown in (".5f", ".8f"))
    return [
        *((f"jacobian_cluster{k + 1}", (f"j_cluster{k + 1}",),
           lambda run, k=k: _nth(run.baseline.j_blocks, k), _matrix) for k in clusters),
        *((f"robustness_cluster{k + 1}", (f"robust_cluster{k + 1}", f"robust_cluster{k + 1}_tol"),
           lambda run, k=k: _nth(run.baseline.r_values, k), margin) for k in clusters),
        ("robustness_cluster1_shifted", ("robust_cluster1_shifted", "robust_cluster1_shifted_tol"),
         lambda run: _nth(run.shifted_margins, 0), margin),
        ("normalized_gain_1", ("normalized_gain_1", "gain_tol"),
         lambda run: _nth([slot.normalized_gain for slot in run.slots], 0), number),
        ("normalized_gain_2", ("normalized_gain_2", "gain_tol"),
         lambda run: _nth([slot.normalized_gain for slot in run.slots], 1), number),
        ("frequency_ratio", ("frequency_ratio", "frequency_ratio_tol"),
         lambda run: (run.slots[1].frequency / run.slots[0].frequency
                      if len(run.slots) > 1 else "missing"),
         functools.partial(_within, ".8f", ".8f")),
    ]


def _require_references(ref: dict, checks: Sequence) -> None:
    """Check that ``ref`` holds every reference ``checks`` read: each exact
    matrix as a rectangular array of finite numbers, every other reference
    as a finite number, and every tolerance as a non-negative one."""
    missing = [key for key in dict.fromkeys(key for _, keys, _, _ in checks for key in keys)
               if key not in ref]
    if missing:
        raise ScenarioError(f"references lack {', '.join(missing)}")
    for _, keys, _, compare in checks:
        for key in keys:
            cells = ref[key] if compare is _matrix else [[ref[key]]]
            if not (isinstance(cells, list) and cells and all(
                    isinstance(row, list) and row and len(row) == len(cells[0])
                    for row in cells)):
                raise ScenarioError(f"reference {key} must be a rectangular array")
            _require_finite([x for row in cells for x in row], f"reference {key}")
        if len(keys) == 2 and ref[keys[1]] < 0:
            raise ScenarioError(f"reference {keys[1]} must be non-negative, got {ref[keys[1]]!r}")


def cmd_reproduce(scenario: Scenario, out: Path, epsilon: Optional[float],
                  seed: Optional[int]) -> int:
    checks = _reference_checks(scenario)
    _require_references(scenario.references, checks)
    kn = scenario.kuramoto()
    inc = scenario.incidence(kn)
    eps = scenario.epsilon if epsilon is None else epsilon
    use_seed = scenario.seed if seed is None else seed

    # --- design: the one linearization every later stage works on ---------
    try:
        design = design_cluster(kn, inc, scenario.modification_specs(), epsilon=eps)
    except InvarianceViolated as exc:
        dump_json(out / "analysis.json", _analysis(scenario, kn, None, exc.violations))
        print(f"wrote {out / 'analysis.json'}")
        raise ScenarioError(
            "cluster-synchronized states are not invariant for this scenario") from exc

    # --- analysis: the uncontrolled network -------------------------------
    baseline = certify(design.lin, None, design.lin.J_blocks,
                       kick=scenario.perturbation, seed=use_seed)
    dump_json(out / "analysis.json",
              _analysis(scenario, kn, dataclasses.replace(baseline, empirical=None)))
    print(f"wrote {out / 'analysis.json'}")

    # --- the controlled certificate -------------------------------------
    report = certify(design.lin, design.schedule, design.averaged, design.growth,
                     kick=scenario.perturbation, seed=use_seed)
    certificate = _certificate_dict(design, report.gamma_bar)
    dump_json(out / "schedule.json", _schedule_dict(design))
    dump_json(out / "certificate.json", certificate)
    designed = 0 in design.designs
    run = _Run(baseline, certificate["target_robustness"][:1] if designed else (),
               design.designs[0].slots if designed else ())
    rows = [SummaryRow(name, *compare(value(run), *(scenario.references[k] for k in keys)))
            for name, keys, value, compare in checks]

    # --- the documented perturbation run --------------------------------
    theta0 = _initial_state(scenario, inc, seed)
    controlled = simulate(kn, design.schedule, theta0, scenario.t_end, inc=inc)
    uncontrolled = simulate(kn, None, theta0, scenario.t_end, inc=inc)
    err_c = sync_error(controlled.theta, kn.partition)
    err_u = sync_error(uncontrolled.theta, kn.partition)
    for name, traj, err in (("controlled", controlled, err_c),
                            ("uncontrolled", uncontrolled, err_u)):
        csv, err_csv = trajectory_csv(traj, err)
        atomic_write_text(out / f"{name}.csv", csv)
        atomic_write_text(out / f"err_{name}.csv", err_csv)
    atomic_write_text(out / "plot.gp", plot_script([
        ("err_controlled.csv", "with vibrations"),
        ("err_uncontrolled.csv", "uncontrolled"),
    ]))

    tol = scenario.sync_tolerance
    # a run that starts below tol shows no drop, one that starts synchronized
    # has no error to keep large: each fails its row
    started_above = not err_c[0] < tol
    started_off = bool(err_u[0] > 0)
    rows.append(SummaryRow("controlled_error_drops_below_tol",
                           f"min {err_c.min():.2e}" if started_above else "starts below tol",
                           f"< {tol:g}", started_above and bool(err_c.min() < tol)))
    rows.append(SummaryRow("uncontrolled_error_stays_large",
                           f"min ratio {err_u.min() / err_u[0]:.3f}" if started_off
                           else "starts synchronized", ">= 0.5",
                           started_off and bool(err_u.min() >= 0.5 * err_u[0])))

    # --- certification and classification --------------------------------
    dump_json(out / "report.json", report.to_dict())
    dump_json(out / "baseline_report.json", baseline.to_dict())
    rows.append(SummaryRow("certificate_not_granted", str(not report.certified),
                           "True (bounds too conservative here)",
                           not report.certified))
    rows.append(SummaryRow("classifier_controlled", report.label,
                           "stable_uncertified",
                           report.label == "stable_uncertified"))
    rows.append(SummaryRow("classifier_uncontrolled",
                           "stable" if baseline.empirical.stable else "unstable",
                           "unstable", not baseline.empirical.stable))
    sweep_desc = "not run" if report.sweep is None else "monotone" \
        if report.sweep_monotone else f"{len(report.sweep_deviations)} deviation(s) reported"
    rows.append(SummaryRow("epsilon_sweep", sweep_desc,
                           "monotone or deviations reported", report.sweep is not None))

    table = _fmt_table(rows)
    atomic_write_text(out / "summary.txt", table)
    dump_json(out / "summary.json",
              [dataclasses.asdict(r) for r in rows])
    print(table, end="")
    return 0 if all(r.ok for r in rows) else 4


@functools.lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: parsing does not
    change it."""
    parser = argparse.ArgumentParser(
        prog="vibrosync",
        description="Cluster-synchronization analysis and vibration design "
                    "for phase-oscillator networks.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, scenario_default=None):
        p.add_argument("--scenario", required=scenario_default is None,
                       default=scenario_default,
                       help="path to a scenario JSON or a bundled name")
        p.add_argument("--out", type=Path, default=Path("out"),
                       help="output directory (default: ./out)")

    p_an = sub.add_parser("analyze", help="invariance, Jacobians and certificates")
    add_common(p_an)

    p_de = sub.add_parser("design", help="design a vibration schedule")
    add_common(p_de)
    p_de.add_argument("--epsilon", type=float, default=None,
                      help="override the schedule time-scale separation")

    p_si = sub.add_parser("simulate", help="integrate one trajectory")
    add_common(p_si)
    p_si.add_argument("--epsilon", type=float, default=None)
    p_si.add_argument("--seed", type=int, default=None,
                      help="override the scenario perturbation seed")
    p_si.add_argument("--uncontrolled", action="store_true",
                      help="ignore any schedule/modifications")

    p_re = sub.add_parser("reproduce",
                          help="run the bundled flagship scenario end to end")
    add_common(p_re, scenario_default="cluster_flip")
    p_re.add_argument("--epsilon", type=float, default=None)
    p_re.add_argument("--seed", type=int, default=None)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "epsilon", None) is not None:
            _require_positive(args.epsilon, "--epsilon")
        if getattr(args, "seed", None) is not None:
            _require_seed(args.seed, "--seed")
        scenario = load_scenario(args.scenario)
        if args.command == "analyze":
            return cmd_analyze(scenario, args.out)
        if args.command == "design":
            return cmd_design(scenario, args.out, args.epsilon)
        if args.command == "simulate":
            return cmd_simulate(scenario, args.out, args.epsilon, args.seed,
                                args.uncontrolled)
        if args.command == "reproduce":
            return cmd_reproduce(scenario, args.out, args.epsilon, args.seed)
        raise AssertionError(args.command)
    except (ScenarioError, StepTooCoarse) as exc:
        # the step floor follows the schedule's epsilon, which --epsilon can change
        print(f"scenario error: {exc}", file=sys.stderr)
        return 2
    except (NotRealizable, CycleDetected) as exc:
        print(f"design not realizable: {exc}", file=sys.stderr)
        return 3
    except (GraphError, InvarianceViolated) as exc:
        print(f"invalid network: {exc}", file=sys.stderr)
        return 2
    except (HorizonTooShort, np.linalg.LinAlgError) as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
