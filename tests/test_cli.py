"""End-to-end tests of the command-line interface: happy paths, artifact
layout, determinism of outputs, and exit-code conventions."""

import json
import math
import importlib.resources as ir
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import vibrosync.cli as cli
from vibrosync import _phase_kernel, graph_core, kuramoto_dynamics, linalg, stability_cert
from vibrosync.kuramoto_dynamics import Trajectory, sync_error
from vibrosync.linalg import HorizonTooShort

TINY = {
    "name": "tiny",
    "n": 4,
    "edges": [[0, 1, 1.0], [1, 0, 1.0], [2, 3, 1.0], [3, 2, 1.0],
              [0, 2, 0.5], [1, 3, 0.5], [2, 0, 0.5], [3, 1, 0.5]],
    "clusters": [[0, 1], [2, 3]],
    "omega": [1.0, 1.0, 2.0, 2.0],
    "simulation": {"theta0": [0.1, 0.0, 0.0, 0.0], "t_end": 5.0},
}


def write_scenario(directory, data, name="scenario.json"):
    path = directory / name
    path.write_text(json.dumps(data))
    return str(path)


@pytest.fixture(scope="module")
def tiny_path(tmp_path_factory):
    return write_scenario(tmp_path_factory.mktemp("tiny"), TINY)


def count_stage_calls(monkeypatch) -> Counter:
    """Count the calls of the pipeline stages, of the linear-flow passes
    (``_linear_flow``), of the linear-flow kernel (``linear_flow``) and of
    the phase-network kernel from every vibrosync module that binds them."""
    counts: Counter = Counter()
    stages = (kuramoto_dynamics.linearize, graph_core.check_invariance,
              stability_cert.certify, kuramoto_dynamics.perturbation_bounds,
              linalg.conjugated_average, linalg._linear_flow, _phase_kernel.linear_flow,
              _phase_kernel.integrate)
    modules = [module for name, module in sys.modules.items()
               if name == "vibrosync" or name.startswith("vibrosync.")]
    for stage in stages:
        def counted(*args, _stage=stage, **kwargs):
            counts[_stage.__name__] += 1
            return _stage(*args, **kwargs)

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is stage:
                    monkeypatch.setattr(module, attr, counted)
    return counts


# ---------------------------------------------------------------------------
# analyze


def test_analyze_tiny(tiny_path, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["analyze", "--scenario", tiny_path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["scenario"] == "tiny"
    assert report["invariance"]["ok"] is True
    assert len(report["j_blocks"]) == 2
    assert len(report["r_values"]) == 2
    assert isinstance(report["certified"], bool)
    assert report["label"] in {"certified", "uncertified"}


def test_analyze_is_deterministic(tiny_path, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["analyze", "--scenario", tiny_path, "--out", str(out)]) == 0
    first = (out / "report.json").read_bytes()
    assert cli.main(["analyze", "--scenario", tiny_path, "--out", str(out)]) == 0
    assert (out / "report.json").read_bytes() == first


def test_analyze_reports_invariance_violation(tmp_path):
    broken = dict(TINY, omega=[1.0, 3.0, 2.0, 2.0])  # unequal inside cluster 0
    path = write_scenario(tmp_path, broken)
    out = tmp_path / "out"
    assert cli.main(["analyze", "--scenario", path, "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["invariance"]["ok"] is False
    assert report["invariance"]["violations"]
    assert "j_blocks" not in report  # analysis stops at the broken manifold


# ---------------------------------------------------------------------------
# simulate


def test_simulate_tiny(tiny_path, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["simulate", "--scenario", tiny_path, "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,theta_1,theta_2,theta_3,theta_4,err"
    assert len(lines) > 10
    row = lines[1].split(",")
    assert float(row[0]) == 0.0
    # wrapped phases stay within one turn
    for v in row[1:-1]:
        assert abs(float(v)) <= math.pi + 1e-12
    err_lines = (out / "err.csv").read_text().splitlines()
    assert err_lines[0] == "t,err"
    assert len(err_lines) == len(lines)
    gp = (out / "plot.gp").read_text()
    assert "err.csv" in gp and "logscale y" in gp


def test_simulate_is_deterministic(tiny_path, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["simulate", "--scenario", tiny_path, "--out", str(out)]) == 0
    first = (out / "trajectory.csv").read_bytes()
    assert cli.main(["simulate", "--scenario", tiny_path, "--out", str(out)]) == 0
    assert (out / "trajectory.csv").read_bytes() == first


def test_simulate_zero_horizon_single_row(tmp_path):
    data = dict(TINY, simulation={"theta0": [0.1, 0.0, 0.0, 0.0], "t_end": 0.0})
    path = write_scenario(tmp_path, data)
    out = tmp_path / "out"
    assert cli.main(["simulate", "--scenario", path, "--out", str(out)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert len(lines) == 2  # header + the initial state


def test_failed_write_or_rename_leaves_no_temporary_file(tiny_path, tmp_path, monkeypatch):
    # a directory where the artifact goes: os.replace fails after the write
    out = tmp_path / "out"
    (out / "trajectory.csv").mkdir(parents=True)
    with pytest.raises(IsADirectoryError):
        cli.main(["simulate", "--scenario", tiny_path, "--out", str(out)])
    assert list(out.iterdir()) == [out / "trajectory.csv"]

    # a full disk: the write fails after part of the text is on disk
    def partial_write(self, text):
        with open(self, "w") as fh:
            fh.write(text[:100])
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(Path, "write_text", partial_write)
    full = tmp_path / "full"
    with pytest.raises(OSError, match="No space left"):
        cli.main(["simulate", "--scenario", tiny_path, "--out", str(full)])
    assert list(full.iterdir()) == []


def test_simulate_uncontrolled_flag(tmp_path):
    data = dict(TINY)
    data["schedule"] = {
        "epsilon": 0.05,
        "entries": [{"edge": [0, 1], "amplitude": 0.5, "frequency": 1.0}],
    }
    path = write_scenario(tmp_path, data)
    out_c = tmp_path / "ctl"
    out_u = tmp_path / "unc"
    assert cli.main(["simulate", "--scenario", path, "--out", str(out_c)]) == 0
    assert cli.main(["simulate", "--scenario", path, "--out", str(out_u),
                     "--uncontrolled"]) == 0
    # the vibration changes the trajectory
    assert (out_c / "trajectory.csv").read_text() != (out_u / "trajectory.csv").read_text()


def test_simulate_random_kick_uses_seed(tmp_path):
    data = dict(TINY, simulation={"seed": 5, "perturbation": 0.1, "t_end": 1.0})
    path = write_scenario(tmp_path, data)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert cli.main(["simulate", "--scenario", path, "--out", str(out_a)]) == 0
    assert cli.main(["simulate", "--scenario", path, "--out", str(out_b),
                     "--seed", "6"]) == 0
    assert (out_a / "trajectory.csv").read_text() != (out_b / "trajectory.csv").read_text()


# ---------------------------------------------------------------------------
# design


def test_design_flagship_best_effort(tmp_path):
    out = tmp_path / "out"
    code = cli.main(["design", "--scenario", "cluster_flip", "--out", str(out)])
    assert code == 4  # emitted, but the closing verification missed
    sched = json.loads((out / "schedule.json").read_text())
    assert sched["verified"] is False
    assert len(sched["entries"]) == 4
    amps = sorted(e["amplitude"] for e in sched["entries"])
    assert amps[0] == pytest.approx(-math.sqrt(2), abs=1e-9)
    assert amps[-1] == pytest.approx(math.sqrt(2), abs=1e-9)
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["certified"] is False
    assert cert["all_designs_verified"] is False
    assert np.array(cert["gamma_bar"]).shape == (2, 2)


def test_non_hurwitz_design_target(tmp_path, capsys):
    # the flagship's change scaled 25-fold: the target block is not Hurwitz
    data = json.loads(ir.files("vibrosync")
                      .joinpath("scenarios/cluster_flip.json").read_text())
    data["modifications"][0]["delta"] = [[0.0, 1.25, 0.0], [0.0, 0.0, 0.0],
                                         [-1.25, 0.0, 0.0]]
    data["simulation"]["t_end"] = 1.0
    path = write_scenario(tmp_path, data)

    out = tmp_path / "design"
    assert cli.main(["design", "--scenario", path, "--out", str(out)]) == 4
    cert = json.loads((out / "certificate.json").read_text())
    assert cert["target_robustness"][0] is None
    assert cert["comparison_matrix"] is None
    assert cert["certified"] is False

    assert cli.main(["simulate", "--scenario", path,
                     "--out", str(tmp_path / "simulate")]) == 0

    out = tmp_path / "repro"
    assert cli.main(["reproduce", "--scenario", path, "--out", str(out)]) == 4
    for name in ("analysis.json", "schedule.json", "certificate.json",
                 "report.json", "baseline_report.json", "summary.json"):
        assert (out / name).is_file(), name
    rows = {row["name"]: row
            for row in json.loads((out / "summary.json").read_text())}
    assert rows["robustness_cluster1_shifted"]["computed"] == "not Hurwitz"
    assert rows["robustness_cluster1_shifted"]["ok"] is False
    assert "Traceback" not in capsys.readouterr().err


def test_design_with_unsettled_average_exits_4(tmp_path, monkeypatch, capsys):
    message = "average moved by 4.87e-02 (rel) when doubling the horizon 1005.31"

    def unsettled(*args, **kwargs):
        raise HorizonTooShort(message)

    # the binding the designer's closing average goes through
    monkeypatch.setattr(kuramoto_dynamics, "conjugated_average", unsettled)
    code = cli.main(["design", "--scenario", "cluster_flip", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 4
    assert err.splitlines() == [f"verification failed: {message}"]
    assert "Traceback" not in err


def vibrated_flagship(directory, schedule, amplitude):
    """The flagship scenario without modifications or references, vibrated
    on ``schedule``'s edges and frequencies at ``amplitude`` and phase 1."""
    data = json.loads(ir.files("vibrosync")
                      .joinpath("scenarios/cluster_flip.json").read_text())
    for key in ("modifications", "references"):
        del data[key]
    data["schedule"] = {"epsilon": schedule.epsilon, "entries": [
        {"edge": list(e), "amplitude": amplitude, "frequency": entry.frequency, "phase": 1.0}
        for e, entry in schedule.sorted_items()]}
    return write_scenario(directory, data)


def test_analyze_of_an_overflowing_flow_exits_4(tmp_path, flip_design, monkeypatch, capsys):
    # the flagship's designed schedule at amplitude 1e3 and phase 1 on every
    # entry: the diagonal terms no longer cancel, Psi overflows, and the
    # first averaging pass reports it
    path = vibrated_flagship(tmp_path, flip_design.schedule, 1e3)
    code = cli.main(["analyze", "--scenario", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 4
    assert err.splitlines() == ["verification failed: the flow overflowed on [0, 251.327]"]

    # a singular Psi in the averaging stepper exits 4 the same way
    def singular(*args, **kwargs):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(kuramoto_dynamics, "conjugated_average", singular)
    code = cli.main(["analyze", "--scenario", path, "--out", str(tmp_path / "out")])
    assert code == 4
    assert capsys.readouterr().err.splitlines() == ["verification failed: Singular matrix"]


def test_analyze_with_an_inaccurate_lyapunov_solve_exits_4(tmp_path, flip_design, capsys):
    # at amplitude 3 the averaged first block is so ill-conditioned that its
    # Lyapunov solve misses the equation: a numerical failure, not a crash
    path = vibrated_flagship(tmp_path, flip_design.schedule, 3.0)
    code = cli.main(["analyze", "--scenario", path, "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 4
    assert len(err.splitlines()) == 1
    assert err.startswith("verification failed: Lyapunov solve left residual ")


def test_analyze_and_design_linearize_once(tmp_path, monkeypatch):
    counts = count_stage_calls(monkeypatch)
    assert cli.main(["analyze", "--scenario", "cluster_flip",
                     "--out", str(tmp_path / "analyze")]) == 0
    # the flagship scenario carries no schedule: nothing to average
    assert counts == {"linearize": 1, "check_invariance": 1, "certify": 1,
                      "perturbation_bounds": 1}
    assert counts["conjugated_average"] == 0
    counts.clear()
    assert cli.main(["design", "--scenario", "cluster_flip",
                     "--out", str(tmp_path / "design")]) == 4
    # one average of the vibrated cluster, of the realized schedule, whose
    # linear-flow pass, one kernel call, also samples the growth
    # perturbation_bounds reads
    assert counts == {"linearize": 1, "check_invariance": 1, "perturbation_bounds": 1,
                      "conjugated_average": 1, "_linear_flow": 1, "linear_flow": 1}


def test_analyze_of_a_vibrated_network_makes_one_flow_pass_per_vibrated_cluster(
        tmp_path, flip_design, monkeypatch):
    # the flagship with its designed schedule, as the cli benchmark runs it:
    # one vibrated cluster, one linear-flow pass, one kernel call, for its
    # average and growth
    data = flagship_data()
    for key in ("modifications", "references"):
        del data[key]
    data["schedule"] = {"epsilon": flip_design.schedule.epsilon, "entries": [
        {"edge": list(e), "amplitude": entry.amplitude, "frequency": entry.frequency}
        for e, entry in flip_design.schedule.sorted_items()]}
    path = write_scenario(tmp_path, data)
    counts = count_stage_calls(monkeypatch)
    assert cli.main(["analyze", "--scenario", path, "--out", str(tmp_path / "out")]) == 0
    assert counts == {"linearize": 1, "check_invariance": 1, "certify": 1,
                      "perturbation_bounds": 1, "conjugated_average": 1, "_linear_flow": 1,
                      "linear_flow": 1}
    report = json.loads((tmp_path / "out" / "report.json").read_text())
    assert np.array(report["gamma_bar"]) == pytest.approx(np.array(
        [[212.27502602715205, 19.920235881902403], [59.72533224074949, 4.7250000000000005]]),
        rel=1e-12)


def test_design_requires_modifications(tiny_path, tmp_path):
    code = cli.main(["design", "--scenario", tiny_path,
                     "--out", str(tmp_path / "out")])
    assert code == 2


# ---------------------------------------------------------------------------
# exit codes and validation


def test_unknown_field_rejected(tmp_path):
    data = dict(TINY, extra_field=1)
    path = write_scenario(tmp_path, data)
    assert cli.main(["analyze", "--scenario", path,
                     "--out", str(tmp_path / "out")]) == 2


def test_unknown_simulation_key_rejected(tmp_path):
    data = dict(TINY, simulation={"theta0": [0.0] * 4, "horizon": 10.0})
    path = write_scenario(tmp_path, data)
    assert cli.main(["analyze", "--scenario", path,
                     "--out", str(tmp_path / "out")]) == 2


def test_missing_scenario(tmp_path):
    assert cli.main(["analyze", "--scenario", "no_such_scenario",
                     "--out", str(tmp_path / "out")]) == 2


def test_malformed_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert cli.main(["analyze", "--scenario", str(path),
                     "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_unreadable_scenario_exits_2(tmp_path, capsys, kind):
    path = tmp_path / "scenario.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(json.dumps(TINY).encode().replace(b"tiny", b"t\xefny"))
    assert cli.main(["analyze", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "cannot read scenario" in err and "Traceback" not in err


def test_duplicate_edge_rejected(tmp_path):
    data = dict(TINY, edges=TINY["edges"] + [[0, 1, 2.0]])
    path = write_scenario(tmp_path, data)
    assert cli.main(["analyze", "--scenario", path,
                     "--out", str(tmp_path / "out")]) == 2


def test_duplicate_schedule_edge_exits_2(tmp_path, capsys):
    # a second entry for edge (1, 0) is refused, not silently kept over the first
    data = flagship_data()
    data["schedule"] = {"epsilon": 0.01, "entries": [
        {"edge": [1, 0], "amplitude": a, "frequency": 1.0} for a in (5.0, 1.0)]}
    path = write_scenario(tmp_path, data)
    for command in ("analyze", "design", "simulate"):
        code = cli.main([command, "--scenario", path, "--out", str(tmp_path / command)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            "scenario error: malformed schedule: duplicate edge (1,0)"]
        assert not (tmp_path / command).exists()


@pytest.mark.parametrize("edge, message", [
    ((1, 3), "vibrated edge (1,3) does not exist in the network"),
    ((0, 99), "vibrated edge (0,99) does not exist in the network"),
    ((0, 4), "vibrated edge (0,4) crosses clusters"),
], ids=["non_edge", "out_of_range", "crossing"])
def test_bad_schedule_edge_exits_2(tmp_path, capsys, edge, message):
    # every command that reads the schedule checks its edges the same way
    data = flagship_data()
    data["schedule"] = {"epsilon": 0.01, "entries": [
        {"edge": list(edge), "amplitude": 1.0, "frequency": 1.0}]}
    path = write_scenario(tmp_path, data)
    for command in ("analyze", "simulate"):
        code = cli.main([command, "--scenario", path, "--out", str(tmp_path / command)])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [f"invalid network: {message}"]


def test_cyclic_modification_exits_3(tmp_path):
    data = json.loads(ir.files("vibrosync")
                      .joinpath("scenarios/cluster_flip.json").read_text())
    data["modifications"] = [{
        "cluster": 0,
        "delta": [[0.0, 0.05, 0.0], [-0.05, 0.0, 0.0], [0.0, 0.0, 0.0]],
    }]
    path = write_scenario(tmp_path, data)
    assert cli.main(["design", "--scenario", path,
                     "--out", str(tmp_path / "out")]) == 3


@pytest.mark.parametrize("override", [
    {"schedule": {"epsilon": 0, "entries": [
        {"edge": [0, 1], "amplitude": 0.5, "frequency": 1.0}]}},
    {"schedule": {"epsilon": 0.05, "entries": [
        {"edge": [0], "amplitude": "abc", "frequency": 1.0}]}},
    {"edges": [[0, 1, float("nan")]] + TINY["edges"][1:]},
    {"simulation": {"theta0": [0.1, 0.0, 0.0, 0.0], "t_end": 1.0, "dt": 0.0}},
    {"simulation": {"t_end": "abc"}},
    {"simulation": {"theta0": ["x", 0.0, 0.0, 0.0]}},
    {"simulation": {"perturb_clusters": [5]}},
    {"modifications": [{"cluster": 0, "delta": [[0.0, float("nan")], [0.0, 0.0]]}]},
    {"simulation": 5},
    {"modifications": 5},
    {"schedule": {"epsilon": 0.05, "entries": 5}},
    {"simulation": {"perturb_clusters": []}},
    {"simulation": {"seed": -1}},
    {"simulation": {"perturbation": -0.1}},
    {"simulation": {"seed": 3.9}},
    {"simulation": {"seed": True}},
    {"simulation": {"perturb_clusters": [0.7]}},
    {"edges": [[0, 1.5, 1.0]] + TINY["edges"][1:]},
    # integers too large for a float
    {"omega": [10**400, 1.0, 2.0, 2.0]},
    {"edges": [[0, 1, 10**400]] + TINY["edges"][1:]},
    {"simulation": {"t_end": 10**400}},
    {"modifications": [{"cluster": 0, "delta": [[0.0, 10**400], [0.0, 0.0]]}]},
    {"schedule": {"epsilon": 0.05, "entries": [
        {"edge": [0, 1], "amplitude": 10**400, "frequency": 1.0}]}},
], ids=["zero_epsilon", "malformed_entry", "nan_weight", "zero_dt", "text_t_end",
        "text_theta0", "cluster_out_of_range", "nan_delta", "simulation_not_object",
        "modifications_not_list", "entries_not_list", "empty_perturb_clusters",
        "negative_seed", "negative_perturbation", "fractional_seed", "boolean_seed",
        "fractional_perturb_cluster", "fractional_edge_end", "huge_omega",
        "huge_weight", "huge_t_end", "huge_delta", "huge_amplitude"])
def test_bad_scenario_values_exit_2(tmp_path, override):
    path = write_scenario(tmp_path, dict(TINY, **override))
    with pytest.raises(cli.ScenarioError):
        cli.load_scenario(path)
    for command in ("analyze", "simulate"):
        assert cli.main([command, "--scenario", path,
                         "--out", str(tmp_path / "out")]) == 2


@pytest.mark.parametrize("delta", [
    [[0.0, 0.05, 0.0], [float("nan"), 0.0, 0.0], [-0.05, 0.0, 0.0]],
    [[0.0, 0.05, 0.0], [0.0, 0.0, 0.0], [-0.05, 0.0, 0.0], [0.0, 0.0, 0.0]],
    [[0.1, 0.05, 0.0], [0.0, 0.0, 0.0], [-0.05, 0.0, 0.0]],
    [[0.0, 10**400, 0.0], [0.0, 0.0, 0.0], [-0.05, 0.0, 0.0]],
], ids=["nan_entry", "not_square", "nonzero_diagonal", "huge_entry"])
def test_bad_modification_exits_2(tmp_path, delta):
    data = json.loads(ir.files("vibrosync")
                      .joinpath("scenarios/cluster_flip.json").read_text())
    data["modifications"][0]["delta"] = delta
    path = write_scenario(tmp_path, data)
    assert cli.main(["design", "--scenario", path,
                     "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


def test_nonpositive_epsilon_override_exits_2(tmp_path):
    assert cli.main(["design", "--scenario", "cluster_flip", "--epsilon", "-1",
                     "--out", str(tmp_path / "out")]) == 2
    for command in ("simulate", "reproduce"):
        args = ["--scenario", "cluster_flip"] if command == "simulate" else []
        assert cli.main([command, *args, "--seed", "-3",
                         "--out", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("dt, args", [(0.5, []), (0.01, []), (0.002, ["--epsilon", "0.001"])],
                         ids=["dt_0.5", "dt_0.01", "fine_until_epsilon_override"])
def test_too_coarse_simulation_dt_exits_2(tmp_path, capsys, dt, args):
    # the floor is 20 steps per fastest period, and the carrier's period
    # scales with epsilon: dt 0.002 meets it at the scenario's 0.01 only
    data = json.loads(ir.files("vibrosync")
                      .joinpath("scenarios/cluster_flip.json").read_text())
    data["simulation"].update(dt=dt, t_end=0.1)
    path = write_scenario(tmp_path, data)
    assert cli.main(["simulate", "--scenario", path, *args,
                     "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"scenario error: dt={dt:g} gives fewer than 20 steps per period")
    assert "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_parser_is_built_once_and_reused(tiny_path, tmp_path):
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        for command in ("analyze", "simulate"):
            assert cli.main([command, "--scenario", tiny_path, "--out", str(out)]) == 0
        with pytest.raises(SystemExit) as exc:
            cli.main(["analyze", "--out", str(out)])
        assert exc.value.code == 2
    assert cli._parser() is cli._parser()
    for name in ("report.json", "trajectory.csv", "err.csv", "plot.gp"):
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_non_invariant_scenario_exits_2(tmp_path, capsys):
    data = json.loads(ir.files("vibrosync")
                      .joinpath("scenarios/cluster_flip.json").read_text())
    data["omega"][1] += 0.5
    path = write_scenario(tmp_path, data)
    for command in ("design", "simulate"):
        assert cli.main([command, "--scenario", path,
                         "--out", str(tmp_path / "out")]) == 2
        assert "Traceback" not in capsys.readouterr().err


def per_value_csv(traj, partition):
    """The per-value f-string formatting trajectory_csv must reproduce."""
    n = traj.theta.shape[1]
    err = sync_error(traj.theta, partition)
    wrapped = traj.wrapped_theta()
    lines = ["t," + ",".join(f"theta_{i + 1}" for i in range(n)) + ",err"]
    err_lines = ["t,err"]
    for row in range(len(traj.times)):
        t = traj.times[row]
        fields = [f"{t:.10g}"] + [f"{v:.10g}" for v in wrapped[row]] + [f"{err[row]:.10g}"]
        lines.append(",".join(fields))
        err_lines.append(f"{t:.10g},{err[row]:.10g}")
    return "\n".join(lines) + "\n", "\n".join(err_lines) + "\n"


def test_trajectory_csv_matches_per_value_formatting():
    partition = cli.parse_scenario(TINY).kuramoto().partition
    times = np.array([-0.0, 1e-310, 2.5, 1.2345678901234e22])
    theta = np.array([[-0.0, 1e-12, 3.0, -3.0],
                      [1e20, -2.5e-8, 0.1, 6.283185307179586],
                      [-1e-300, 12.5, -7.25, 1e15],
                      [0.5, 0.5, 2.0, 2.0 + 1e-13]])
    traj = Trajectory(times=times, theta=theta, x=theta[:, :2], dt=0.1)
    err = sync_error(theta, partition)
    assert cli.trajectory_csv(traj, err) == per_value_csv(traj, partition)
    assert cli.trajectory_csv(traj, err)[1].splitlines()[1].startswith("-0,")


def test_flagship_simulate_csv_matches_per_value_formatting(flagship_reproduce, tmp_path):
    """A 4-unit controlled flagship run with the reproduced schedule: the
    CSVs equal the per-value formatting, also as ``vibrosync simulate``
    writes them."""
    schedule = json.loads((flagship_reproduce[0] / "schedule.json").read_text())
    data = json.loads(ir.files("vibrosync")
                      .joinpath("scenarios/cluster_flip.json").read_text())
    for key in ("modifications", "references"):
        del data[key]
    data["schedule"] = {"epsilon": schedule["epsilon"], "entries": schedule["entries"]}
    data["simulation"]["t_end"] = 4.0
    scenario = cli.parse_scenario(data)
    kn = scenario.kuramoto()
    inc = scenario.incidence(kn)
    theta0 = cli._initial_state(scenario, inc, None)
    traj = kuramoto_dynamics.simulate(kn, scenario.vibration_schedule(), theta0, 4.0,
                                      inc=inc)
    csv, err_csv = cli.trajectory_csv(traj, sync_error(traj.theta, kn.partition))
    assert (csv, err_csv) == per_value_csv(traj, kn.partition)
    assert len(traj.times) > 1000
    out = tmp_path / "out"
    assert cli.main(["simulate", "--scenario", write_scenario(tmp_path, data),
                     "--out", str(out)]) == 0
    assert (out / "trajectory.csv").read_text() == csv
    assert (out / "err.csv").read_text() == err_csv


def test_theta0_length_validation():
    data = dict(TINY, simulation={"theta0": [0.0, 0.0]})
    with pytest.raises(cli.ScenarioError, match="theta0 length"):
        cli.parse_scenario(data)


def test_references_type_validation():
    data = dict(TINY, references=[1, 2, 3])
    with pytest.raises(cli.ScenarioError, match="references"):
        cli.parse_scenario(data)


def test_scenario_must_be_object():
    with pytest.raises(cli.ScenarioError, match="object"):
        cli.parse_scenario([1, 2])


# ---------------------------------------------------------------------------
# the full reproduction run


def test_reproduce_without_references_is_scenario_error(tmp_path, capsys):
    # missing or malformed references stop reproduce before any work
    flagship = (ir.files("vibrosync") / "scenarios" / "cluster_flip.json").read_text()
    for case, (key, value) in enumerate([
            ("references", None),
            ("robust_cluster1_tol", "abc"),
            ("j_cluster1", [[-0.4, 0.0, 0.1], [-0.05, -0.2]]),
            ("frequency_ratio", "x"),
            ("gain_tol", 10 ** 400)]):
        data = json.loads(flagship)
        if value is None:
            del data[key]
        else:
            data["references"][key] = value
        data["simulation"]["t_end"] = 1.0
        out = tmp_path / f"repro{case}"
        out.mkdir()
        code = cli.main(["reproduce", "--scenario", write_scenario(tmp_path, data),
                         "--out", str(out)])
        assert code == 2, key
        err = capsys.readouterr().err
        assert ("j_cluster1" if value is None else key) in err
        assert "Traceback" not in err
        assert list(out.iterdir()) == []


@pytest.fixture(scope="module")
def flagship_reproduce(tmp_path_factory):
    """One ``vibrosync reproduce`` of the flagship: its output directory,
    exit code and pipeline stage counts."""
    out = tmp_path_factory.mktemp("repro") / "out"
    with pytest.MonkeyPatch.context() as mp:
        counts = count_stage_calls(mp)
        code = cli.main(["reproduce", "--out", str(out)])
    return out, code, counts


def test_reproduce_flagship(flagship_reproduce):
    out, code, counts = flagship_reproduce
    assert code == 0
    # one linearization; one certificate each for the uncontrolled and the
    # controlled network; one average of the vibrated cluster, which the
    # design verifies and the controlled certificate reuses, in one
    # linear-flow pass, one kernel call, that also samples its growth; one
    # kernel call for each of the seven phase-network runs: the two
    # certificates' ensembles, the sweep's three and the two documented
    # trajectories
    assert counts == {"linearize": 1, "check_invariance": 1, "certify": 2,
                      "perturbation_bounds": 2, "conjugated_average": 1, "_linear_flow": 1,
                      "linear_flow": 1, "integrate": 7}
    for name in ("analysis.json", "schedule.json", "certificate.json",
                 "controlled.csv", "err_controlled.csv", "uncontrolled.csv",
                 "err_uncontrolled.csv", "plot.gp", "report.json",
                 "baseline_report.json", "summary.txt", "summary.json"):
        assert (out / name).is_file(), name
    table = (out / "summary.txt").read_text().splitlines()
    data_rows = table[2:]
    assert len(data_rows) == 14
    assert all(row.endswith("pass") for row in data_rows)
    # every row's name, reference and verdict, in order; the computed
    # column's last digits depend on the platform's libm
    summary = json.loads((out / "summary.json").read_text())
    assert [(row["name"], row["reference"], row["ok"]) for row in summary] == [
        ("jacobian_cluster1", "matrix (exact)", True),
        ("jacobian_cluster2", "matrix (exact)", True),
        ("robustness_cluster1", "0.305 +/- 0.005", True),
        ("robustness_cluster2", "3.62 +/- 0.01", True),
        ("robustness_cluster1_shifted", "0.332 +/- 0.005", True),
        ("normalized_gain_1", "1.0 +/- 1e-06", True),
        ("normalized_gain_2", "1.0 +/- 1e-06", True),
        ("frequency_ratio", "1.41421356 +/- 1e-06", True),
        ("controlled_error_drops_below_tol", "< 0.01", True),
        ("uncontrolled_error_stays_large", ">= 0.5", True),
        ("certificate_not_granted", "True (bounds too conservative here)", True),
        ("classifier_controlled", "stable_uncertified", True),
        ("classifier_uncontrolled", "unstable", True),
        ("epsilon_sweep", "monotone or deviations reported", True),
    ]
    report = json.loads((out / "report.json").read_text())
    assert report["label"] == "stable_uncertified"
    assert report["certified"] is False
    baseline = json.loads((out / "baseline_report.json").read_text())
    assert baseline["label"] == "not_stabilized"


def test_reproduce_residual_is_the_certified_average(flagship_reproduce):
    # the design's residual and the certificate's averaged block come from
    # the same average, digit for digit
    out = flagship_reproduce[0]
    certificate = json.loads((out / "certificate.json").read_text())
    schedule = json.loads((out / "schedule.json").read_text())
    report = json.loads((out / "report.json").read_text())
    miss = float(np.abs(np.array(report["averaged_blocks"][0])
                        - np.array(certificate["targets"][0])).max())
    assert certificate["residuals"] == schedule["residuals"] == {"0": miss}
    assert certificate["all_designs_verified"] is False


def test_reproduce_synchronized_start_fails_uncontrolled_row(tmp_path, capsys):
    # an uncontrolled run that starts on the cluster states has no error to
    # keep large: its row fails instead of passing on 0/0
    data = json.loads(ir.files("vibrosync")
                      .joinpath("scenarios/cluster_flip.json").read_text())
    data["simulation"].update(theta0=[0.0] * 4 + [0.5] * 4, t_end=2.0)
    out = tmp_path / "repro"
    assert cli.main(["reproduce", "--scenario", write_scenario(tmp_path, data),
                     "--out", str(out)]) == 4
    rows = {row["name"]: row
            for row in json.loads((out / "summary.json").read_text())}
    row = rows["uncontrolled_error_stays_large"]
    assert row["ok"] is False
    assert row["computed"] == "starts synchronized"
    assert "nan" not in json.dumps(row).lower()
    assert "Traceback" not in capsys.readouterr().err


def test_reproduce_one_cluster_scenario_fails_its_cluster_2_rows(tmp_path, capsys):
    # the flagship cut to its first cluster: nodes 0-3, their intra edges and
    # the same modification; cluster 2 has no Jacobian and no margin
    data = json.loads(ir.files("vibrosync")
                      .joinpath("scenarios/cluster_flip.json").read_text())
    data.update(n=4, clusters=[[0, 1, 2, 3]], omega=data["omega"][:4],
                edges=[e for e in data["edges"] if e[0] < 4 and e[1] < 4])
    out = tmp_path / "repro"
    assert cli.main(["reproduce", "--scenario", write_scenario(tmp_path, data),
                     "--out", str(out)]) in (0, 4)
    assert sorted(p.name for p in out.iterdir()) == sorted([
        "analysis.json", "schedule.json", "certificate.json", "controlled.csv",
        "err_controlled.csv", "uncontrolled.csv", "err_uncontrolled.csv", "plot.gp",
        "report.json", "baseline_report.json", "summary.txt", "summary.json"])
    rows = {row["name"]: row
            for row in json.loads((out / "summary.json").read_text())}
    assert rows["jacobian_cluster1"]["ok"] is True
    assert rows["robustness_cluster1"]["ok"] is True
    for name in ("jacobian_cluster2", "robustness_cluster2"):
        assert rows[name]["computed"] == "missing"
        assert rows[name]["ok"] is False
    assert "Traceback" not in capsys.readouterr().err


def test_reproduce_one_slot_design_fails_its_rows(tmp_path, capsys):
    # a cluster-1 change with a single slot: the second gain and the
    # frequency ratio have nothing to report; and a cluster-2 Jacobian
    # reference of another shape, which fails its row
    data = json.loads(ir.files("vibrosync")
                      .joinpath("scenarios/cluster_flip.json").read_text())
    data["modifications"][0]["delta"] = [[0.0, 0.05, 0.0], [0.0, 0.0, 0.0],
                                         [0.0, 0.0, 0.0]]
    data["references"]["j_cluster2"] = [[-3.0, 0.0], [-1.0, -2.0]]
    data["simulation"]["t_end"] = 1.0
    out = tmp_path / "repro"
    assert cli.main(["reproduce", "--scenario", write_scenario(tmp_path, data),
                     "--out", str(out)]) == 4
    for name in ("analysis.json", "schedule.json", "certificate.json",
                 "controlled.csv", "uncontrolled.csv", "report.json",
                 "baseline_report.json", "summary.txt", "summary.json"):
        assert (out / name).is_file(), name
    rows = {row["name"]: row
            for row in json.loads((out / "summary.json").read_text())}
    assert rows["normalized_gain_1"]["ok"] is True
    assert rows["jacobian_cluster1"]["ok"] is True
    assert rows["jacobian_cluster2"]["computed"] == "matrix"
    assert rows["jacobian_cluster2"]["ok"] is False
    for name in ("normalized_gain_2", "frequency_ratio"):
        assert rows[name]["computed"] == "missing"
        assert rows[name]["ok"] is False
    assert "Traceback" not in capsys.readouterr().err


def flagship_data() -> dict:
    return json.loads(ir.files("vibrosync")
                      .joinpath("scenarios/cluster_flip.json").read_text())


def three_cluster_flagship() -> dict:
    """The flagship with a third cluster: nodes 8-10 at natural frequency 20,
    coupled among themselves, whose node 8 gives every node of cluster 2 the
    same in-weight 0.5; with frozen references for its Jacobian and margin."""
    data = flagship_data()
    data.update(name="cluster_flip_three", n=11, clusters=data["clusters"] + [[8, 9, 10]],
                omega=data["omega"] + [20.0] * 3)
    data["edges"] += [[8, 9, 1.0], [9, 10, 1.0], [10, 8, 1.0],
                      [9, 8, 0.5], [10, 9, 0.5], [8, 10, 0.5]]
    data["edges"] += [[8, t, 0.5] for t in (4, 5, 6, 7)]
    data["references"].update(j_cluster3=[[-2.0, -0.5], [0.5, -2.5]],
                              robust_cluster3=4.01, robust_cluster3_tol=0.01)
    return data


def reproduce_rows(out) -> dict:
    return {row["name"]: row for row in json.loads((out / "summary.json").read_text())}


def assert_stopped_before_writing(data, tmp_path, capsys, *named) -> None:
    """``reproduce`` of ``data`` exits 2 with a message naming ``named``,
    and writes nothing."""
    out = tmp_path / "repro"
    out.mkdir()
    assert cli.main(["reproduce", "--scenario", write_scenario(tmp_path, data),
                     "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert all(name in err for name in named), err
    assert "Traceback" not in err
    assert list(out.iterdir()) == []


def test_reproduce_checks_every_cluster(tmp_path):
    # one Jacobian and one robustness row per cluster, then today's rows
    out = tmp_path / "repro"
    code = cli.main(["reproduce", "--scenario",
                     write_scenario(tmp_path, three_cluster_flagship()), "--out", str(out)])
    rows = json.loads((out / "summary.json").read_text())
    assert code == (0 if all(row["ok"] for row in rows) else 4)
    assert [row["name"] for row in rows] == [
        "jacobian_cluster1", "jacobian_cluster2", "jacobian_cluster3",
        "robustness_cluster1", "robustness_cluster2", "robustness_cluster3",
        "robustness_cluster1_shifted", "normalized_gain_1", "normalized_gain_2",
        "frequency_ratio", "controlled_error_drops_below_tol",
        "uncontrolled_error_stays_large", "certificate_not_granted",
        "classifier_controlled", "classifier_uncontrolled", "epsilon_sweep"]
    assert all(row["ok"] for row in rows[:7])
    assert rows[5]["reference"] == "4.01 +/- 0.01"
    assert (out / "summary.txt").read_text().count("\n") == 2 + len(rows)


def test_reproduce_requires_the_references_of_every_cluster(tmp_path, capsys):
    data = three_cluster_flagship()
    del data["references"]["j_cluster3"]
    assert_stopped_before_writing(data, tmp_path, capsys, "j_cluster3")


def test_reproduce_reference_of_a_further_cluster_needs_its_margin(tmp_path, capsys):
    # a Jacobian reference for a cluster the flagship lacks adds that
    # cluster's rows, whose margin references are then required too
    data = flagship_data()
    data["references"]["j_cluster3"] = [[-1.0]]
    assert_stopped_before_writing(data, tmp_path, capsys,
                                  "robust_cluster3", "robust_cluster3_tol")


def test_reproduce_requires_modifications(tmp_path, capsys):
    data = flagship_data()
    del data["modifications"]
    assert_stopped_before_writing(data, tmp_path, capsys, "no modifications")


@pytest.mark.parametrize("key, value", [
    ("robust_cluster1_tol", -0.005), ("robust_cluster2_tol", -1),
    ("robust_cluster1_shifted_tol", -0.005), ("gain_tol", -1e-6),
    ("frequency_ratio_tol", -1e-6), ("sync", 0.0), ("sync", -0.01)])
def test_reproduce_rejects_tolerances_that_cannot_pass(tmp_path, capsys, key, value):
    data = flagship_data()
    if key == "sync":
        data["tolerances"]["sync"] = value
    else:
        data["references"][key] = value
    assert_stopped_before_writing(data, tmp_path, capsys, key)


def test_reproduce_start_below_tol_fails_controlled_row(tmp_path, capsys):
    # a controlled run that starts below the sync tolerance shows no drop:
    # its row fails instead of passing on the starting error
    data = flagship_data()
    data["simulation"].update(perturbation=0.002, t_end=2.0)
    out = tmp_path / "repro"
    assert cli.main(["reproduce", "--scenario", write_scenario(tmp_path, data),
                     "--out", str(out)]) == 4
    row = reproduce_rows(out)["controlled_error_drops_below_tol"]
    assert (row["computed"], row["ok"]) == ("starts below tol", False)
    assert "Traceback" not in capsys.readouterr().err


def test_reproduce_shifted_margin_is_missing_without_a_cluster_1_design(tmp_path, capsys):
    # the flagship's change moved to cluster 2: cluster 1 keeps its Jacobian,
    # whose unshifted margin 0.30588 must not be compared with the shifted
    # reference, so the row reads missing, as the gain and ratio rows do
    data = flagship_data()
    data["modifications"][0]["cluster"] = 1
    data["simulation"]["t_end"] = 1.0
    out = tmp_path / "repro"
    assert cli.main(["reproduce", "--scenario", write_scenario(tmp_path, data),
                     "--out", str(out)]) == 4
    rows = reproduce_rows(out)
    for name in ("robustness_cluster1_shifted", "normalized_gain_1", "normalized_gain_2",
                 "frequency_ratio"):
        assert (rows[name]["computed"], rows[name]["ok"]) == ("missing", False), name
    assert "Traceback" not in capsys.readouterr().err


def test_reproduce_without_a_sweep_fails_its_row(tmp_path, capsys):
    # an all-zero change designs no slots, so no sweep runs
    data = flagship_data()
    data["modifications"][0]["delta"] = [[0.0] * 3] * 3
    data["simulation"]["t_end"] = 1.0
    out = tmp_path / "repro"
    assert cli.main(["reproduce", "--scenario", write_scenario(tmp_path, data),
                     "--out", str(out)]) == 4
    assert json.loads((out / "report.json").read_text())["sweep"] is None
    row = reproduce_rows(out)["epsilon_sweep"]
    assert (row["computed"], row["ok"]) == ("not run", False)
    assert "Traceback" not in capsys.readouterr().err
