"""vibrosync benchmark.

    python3 perfbench/run.py --workload {design_corpus,ensemble,cli} \\
        --seed N --seconds S --trace {0,1}

Run from a checkout of the repository; the program is imported from its
``src`` directory.  With ``--trace 0`` the workload's operations run in a
closed loop for ``--seconds`` seconds (at least MIN_OPS of them) and the
end-to-end metrics are printed; operation latency is reported in units of a
reference kernel timed around each operation.  With ``--trace 1`` a fixed
number of operations runs twice, once plain and once with every layer
wrapped in a span recorder, and the per-layer metrics are printed.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.

Run-time state (output fingerprints of earlier runs, span dumps, result
records) goes to ``.perfbench/`` at the root of the checkout.
"""

from __future__ import annotations

import os

# before numpy is imported anywhere: one BLAS thread, no thread pools
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # op tail: highest percentile with this many ops beyond it
MIN_OPS = 2 * TAIL_BEYOND + 1  # so the tail percentile is at least the median

END_TO_END = {
    "setup_s": "s",
    "op_p50_ref": "ref",
    "op_tail_ref": "ref",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}


def code_hash() -> str:
    """Digest of the program and the benchmark sources: 'the same code'."""
    h = hashlib.sha256()
    files = [*(SRC / "vibrosync").rglob("*.py"), *(SRC / "vibrosync").rglob("*.json"),
             *HERE.glob("*.py")]
    for path in sorted(files):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def environment() -> dict:
    import numpy as np

    blas = "unknown"
    try:
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{cfg.get('name')} {cfg.get('version')}"
    except (TypeError, KeyError):
        pass
    tasks = Path("/proc/self/task")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": len(list(tasks.iterdir())) if tasks.is_dir() else None,
        "blas_threads": {v: os.environ[v] for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def run_op(workload, i: int, rec=None):
    """Run and check operation ``i``; returns its latency and the fingerprint
    of its output, or None when it raised or failed its check."""
    from workloads import CheckFailed

    t0 = time.perf_counter()
    try:
        out = rec.call("bench.op", workload.op, i) if rec else workload.op(i)
    except Exception:
        print(f"op {i} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return time.perf_counter() - t0, None
    latency = time.perf_counter() - t0
    try:
        fingerprint, counters = workload.check(i, out)
    except CheckFailed as exc:
        print(f"op {i} failed its check: {exc}", file=sys.stderr)
        return latency, None
    if rec:
        rec.counters.update(counters)
    return latency, fingerprint


def reference_kernel() -> float:
    """Seconds taken by a fixed loop of small numpy calls (about 80 ms), the
    instruction mix of the program's integrators; it runs no vibrosync code.

    Timed around every operation, it measures how fast the machine is at
    that moment: on a shared 2-core host that speed drifts by +-25 % over
    minutes, and it slows CPU time as much as wall time.
    """
    import numpy as np

    a = np.array([[3.0, 0.5, -0.2], [0.1, 2.5, 0.3], [-0.4, 0.2, 3.5]])
    b = np.array([[0.2, -0.1, 0.0], [0.3, 0.1, -0.2], [0.0, 0.4, 0.1]])
    x = np.eye(3)
    t0 = time.perf_counter()
    for _ in range(8000):
        x = 0.5 * np.linalg.solve(a, b @ x) + np.sin(x)
    return time.perf_counter() - t0


def timed_run(workload, seconds: float):
    """Closed loop over operations 0, 1, ... until ``seconds`` have passed,
    at least MIN_OPS ran and the last group of ``op_group`` is complete.

    Returns the latencies, the latencies in reference-kernel units (each op
    divided by the mean of the kernel timings just before and after it) and
    the fingerprints."""
    latencies, refs, fingerprints = [], [reference_kernel()], {}
    start = time.perf_counter()
    while (len(latencies) < MIN_OPS or len(latencies) % workload.op_group
           or time.perf_counter() - start < seconds):
        i = len(latencies)
        latency, fingerprints[i] = run_op(workload, i)
        latencies.append(latency)
        refs.append(reference_kernel())
    ratios = [lat / (0.5 * (before + after))
              for lat, before, after in zip(latencies, refs, refs[1:])]
    return latencies, ratios, refs, fingerprints


def traced_run(cls, seed: int, tmp: Path, tracing):
    """Operations 0 .. trace_ops-1 twice, interleaved: plain, then under the
    span recorder, so drift in machine speed hits both sides alike."""
    plain = cls(seed, tmp / "plain")
    plain.setup()
    rec = tracing.Recorder()
    traced = cls(seed, tmp / "traced")
    with tracing.installed(rec):
        rec.call("bench.setup", traced.setup)
    plain_lat, traced_lat, refs, fingerprints, traced_failed = [], [], [], {}, 0
    for i in range(cls.trace_ops):
        refs.append(reference_kernel())
        latency, fingerprints[i] = run_op(plain, i)
        plain_lat.append(latency)
        with tracing.installed(rec):
            latency, fingerprint = run_op(traced, i, rec)
        traced_lat.append(latency)
        # a traced op fails when it fails alone or its output differs
        if fingerprint is None or fingerprint != (fingerprints[i] or fingerprint):
            traced_failed += 1
            print(f"op {i}: traced output differs or failed", file=sys.stderr)
    return rec, plain_lat, traced_lat, statistics.mean(refs), fingerprints, traced_failed


def compare_with_earlier(name: str, seed: int, fingerprints: dict) -> set:
    """Ops whose outputs differ from an earlier run of the same code and seed;
    the stored record is then extended with this run's ops."""
    path = STATE / "fingerprints" / code_hash() / f"{name}-{seed}.json"
    earlier = json.loads(path.read_text()) if path.exists() else {}
    current = {str(i): fp for i, fp in fingerprints.items() if fp is not None}
    differ = {int(i) for i, fp in current.items() if earlier.get(i, fp) != fp}
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + f".tmp{os.getpid()}")
    tmp.write_text(json.dumps({**current, **earlier}, sort_keys=True))
    os.replace(tmp, path)
    return differ


def tail(latencies):
    """Highest percentile with at least TAIL_BEYOND ops beyond it."""
    ordered = sorted(latencies)
    k = max(len(ordered) - TAIL_BEYOND - 1, 0)
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("design_corpus", "ensemble", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "vibrosync" / "__init__.py").is_file():
        print(f"no vibrosync sources under {SRC}", file=sys.stderr)
        return 2

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import vibrosync.cli  # noqa: F401  (numpy comes with it)
    import_s = time.perf_counter() - t0
    import tracing
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    tmp = STATE / f"tmp-{os.getpid()}"
    try:
        if args.trace:
            rec, plain_lat, lat, ref, fps, traced_failed = traced_run(
                cls, args.seed, tmp, tracing)
            rec.dump(STATE / "traces" / f"{args.workload}-{args.seed}.json")
            metrics = tracing.per_layer_metrics(rec, sum(plain_lat), sum(lat), ref)
            units = {k: u for k, (u, _) in tracing.PER_LAYER.items()}
            attempted = 2 * len(lat)
            samples = {"plain_latencies": plain_lat, "latencies": lat}
        else:
            setups = []
            for _ in range(SETUP_REPEATS):
                workload = cls(args.seed, tmp)
                t_setup = time.perf_counter()
                workload.setup()
                setups.append(time.perf_counter() - t_setup)
            lat, ratios, refs, fps = timed_run(workload, args.seconds)
            attempted, traced_failed = len(lat), 0
            samples = {"latencies": lat, "ratios": ratios, "reference_s": refs}
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    broken = {i for i, fp in fps.items() if fp is None}
    differ = compare_with_earlier(args.workload, args.seed, fps) - broken
    failed = len(broken) + len(differ) + traced_failed
    if not args.trace:
        tail_s, tail_pct = tail(lat)
        print(f"op tail is p{tail_pct:.1f} of {len(lat)} ops; in seconds: "
              f"op_p50 {statistics.median(lat):.4g} s, op_tail {tail_s:.4g} s, "
              f"{len(lat) / sum(lat):.4g} ops/s; reference kernel "
              f"{1e3 * statistics.median(refs):.4g} ms")
        metrics = {
            "setup_s": import_s + statistics.median(setups),
            "op_p50_ref": statistics.median(ratios),
            "op_tail_ref": tail(ratios)[0],
            "ok_frac": (attempted - failed) / attempted,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END

    for i in sorted(differ):
        print(f"op {i}: output differs from an earlier run of the same code",
              file=sys.stderr)
    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    for key, value in metrics.items():
        print(f"{key} = {value:.6g} {units[key]}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    record = STATE / "results" / f"{args.workload}-{args.seed}-trace{args.trace}.json"
    record.parent.mkdir(parents=True, exist_ok=True)
    record.write_text(json.dumps({"env": env, "code": code_hash(), **samples,
                                  **result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
