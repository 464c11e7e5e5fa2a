import ctypes
import locale
import math
import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vibrosync import _phase_kernel as pk
from vibrosync.linalg import SinusoidSum


@pytest.fixture
def fresh_cache(tmp_path, monkeypatch):
    """An empty library cache and no library loaded yet."""
    monkeypatch.setattr(pk, "_cache_dir", tmp_path)
    monkeypatch.setattr(pk, "_kernel", None)
    return tmp_path


def count_compiler_runs(monkeypatch):
    calls = []
    run = subprocess.run

    def counting(cmd, *args, **kwargs):
        calls.append(cmd)
        return run(cmd, *args, **kwargs)

    monkeypatch.setattr(subprocess, "run", counting)
    return calls


def libraries(directory):
    return sorted(p.name for p in directory.iterdir())


def test_first_load_compiles_once_then_reuses_the_library(fresh_cache, monkeypatch):
    calls = count_compiler_runs(monkeypatch)
    first = pk.load()
    assert pk.load() is first
    assert len(calls) == 1 and calls[0][0] == "cc"
    assert libraries(fresh_cache) == [pk._library_name()]  # no temporary left

    def no_compiler(*args, **kwargs):
        raise AssertionError("the compiler ran again")

    monkeypatch.setattr(subprocess, "run", no_compiler)
    monkeypatch.setattr(pk, "_kernel", None)
    assert pk.load() is not None


def test_changed_source_gets_another_library(fresh_cache, monkeypatch):
    pk.load()
    before = libraries(fresh_cache)
    monkeypatch.setattr(pk, "_SOURCE", pk._SOURCE + "\n/* changed */\n")
    monkeypatch.setattr(pk, "_kernel", None)
    pk.load()
    after = libraries(fresh_cache)
    # the new library replaces the stale one
    assert len(before) == 1 and after == [pk._library_name()]
    assert pk._library_name() not in before


def test_pruning_keeps_temporaries_and_other_files(fresh_cache, monkeypatch):
    # a concurrent build's mkstemp names and unrelated files stay; libraries
    # of other sources, flags or platforms go
    kept = ["phase_kernel-k2j4x_8q.c", "phase_kernel-k2j4x_8q.so", "notes.txt",
            f"phase_kernel-{'0' * 63}.so", f"phase_kernel-{'0' * 64}.so.bak"]
    for name in kept + [f"phase_kernel-{'0' * 64}.so", f"phase_kernel-{'ab' * 32}.so"]:
        (fresh_cache / name).write_text("")
    pk.load()
    assert libraries(fresh_cache) == sorted(kept + [pk._library_name()])


def test_library_name_carries_the_platform(monkeypatch):
    name = pk._library_name()
    monkeypatch.setattr(pk.platform, "machine", lambda: "some-other-machine")
    assert pk._library_name() != name


def test_start_up_loads_neither_subprocess_nor_hashlib():
    # only a kernel build runs the compiler and only the library's cache
    # name hashes: importing the CLI in a fresh interpreter needs neither
    src = str(Path(pk.__file__).resolve().parents[1])

    def loaded_after(module):
        probe = (f"import sys, {module}; "
                 "print(*(m for m in ('subprocess', 'hashlib') if m in sys.modules))")
        out = subprocess.run([sys.executable, "-c", probe], capture_output=True, text=True,
                             check=True, env=dict(os.environ, PYTHONPATH=src))
        return out.stdout.split()

    if loaded_after("numpy"):
        pytest.skip("numpy alone loads subprocess or hashlib here")
    assert loaded_after("vibrosync.cli") == []


def test_unloadable_cached_library_is_rebuilt(fresh_cache, monkeypatch):
    (fresh_cache / pk._library_name()).write_bytes(b"\x7fELF truncated")
    calls = count_compiler_runs(monkeypatch)
    assert pk.load() is not None
    assert len(calls) == 1
    assert libraries(fresh_cache) == [pk._library_name()]


def test_unwritable_cache_builds_in_a_private_temporary_directory(tmp_path, monkeypatch):
    blocker = tmp_path / "blocker"
    blocker.write_text("")
    monkeypatch.setattr(pk, "_cache_dir", blocker / "__pycache__")  # cannot exist
    monkeypatch.setattr(pk, "_kernel", None)
    made = []
    mkdtemp = pk.tempfile.mkdtemp

    def recording(*args, **kwargs):
        made.append(mkdtemp(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(pk.tempfile, "mkdtemp", recording)
    calls = count_compiler_runs(monkeypatch)
    assert pk.load() is not None
    assert len(calls) == 1 and len(made) == 1
    assert not os.path.exists(made[0])  # removed once the library is loaded


def test_compiler_failure_shows_its_stderr(fresh_cache, monkeypatch):
    monkeypatch.setattr(pk, "_SOURCE", "this is not C")
    with pytest.raises(pk.KernelBuildError, match="error"):
        pk.load()
    assert libraries(fresh_cache) == []
    monkeypatch.setattr(pk, "_compiler", "no-such-compiler-vibrosync")
    with pytest.raises(pk.KernelBuildError, match="no-such-compiler-vibrosync"):
        pk.load()


def test_integrate_rejects_inconsistent_arrays():
    args = dict(dst=np.array([1, 0], dtype=np.intc),
                pair=np.array([0, 0], dtype=np.intc),  # two reciprocal edges, one pair
                ends=np.array([[1, 0]], dtype=np.intc), omega=np.zeros(2),
                base=np.array([1.0, -1.0]), vcol=np.array([1], dtype=np.intc),
                amp=np.ones(1), freq=np.ones(1), phase=np.zeros(1), h=0.1, steps=2,
                stride=1, recs=np.zeros((1, 3, 2)))

    def integrate(**changes):
        return pk.integrate(**{**args, **changes})

    assert integrate() == 0
    assert integrate(vcol=np.zeros(0, dtype=np.intc), amp=np.zeros(0), freq=np.zeros(0),
                     phase=np.zeros(0)) == 0
    assert integrate(steps=3, stride=2) == 0  # records at step 2 and the last, 3
    for bad in (dict(dst=np.array([1, 2], dtype=np.intc)),
                dict(ends=np.array([[1, 2]], dtype=np.intc)),  # a pair end outside the network
                dict(pair=np.array([0, 1], dtype=np.intc)),  # a pair index past the pair table
                dict(pair=np.array([0, -1], dtype=np.intc)),
                dict(pair=np.array([0], dtype=np.intc)),  # one pair index for two edges
                dict(ends=np.array([[1, 0, 1]], dtype=np.intc)),  # pair ends not (a, b) rows
                dict(stride=-1), dict(stride=0), dict(steps=-1),
                dict(steps=3),  # records past the end of recs
                dict(steps=1),  # records left over at the end of recs
                dict(base=np.ones(1)),  # one base weight for two edges
                dict(vcol=np.array([2], dtype=np.intc)),  # a vibrated column past the edges
                dict(vcol=np.array([-1], dtype=np.intc)),
                dict(vcol=np.array([1, 1], dtype=np.intc), amp=np.ones(2), freq=np.ones(2),
                     phase=np.ones(2)),  # one edge vibrated twice
                dict(amp=np.ones(2)), dict(freq=np.ones(0)),  # a carrier per vibrated edge
                dict(phase=np.ones((1, 1))),
                dict(recs=np.zeros((1, 3, 3))), dict(recs=np.zeros((3, 2)))):
        with pytest.raises(ValueError):
            integrate(**bad)
    for name in ("dst", "ends", "vcol"):
        with pytest.raises(ctypes.ArgumentError, match="data type"):
            integrate(**{name: args[name].astype(np.int64)})
    frozen = np.zeros((1, 3, 2))
    frozen.flags.writeable = False
    with pytest.raises(ctypes.ArgumentError, match="WRITEABLE"):
        integrate(recs=frozen)
    with pytest.raises(ctypes.ArgumentError):  # not in C order
        integrate(recs=np.zeros((1, 2, 3)).transpose(0, 2, 1))


def random_run(ns, rng):
    """A run's arrays on a 5-node network with two reciprocal pairs and two
    one-way edges, three of its edges vibrated (edge 1 runs against its
    pair): every argument of ``integrate`` apart from the step, step count,
    stride and records, then the initial states."""
    dst = np.array([1, 0, 3, 2, 4, 0], dtype=np.intc)
    pair = np.array([0, 0, 1, 1, 2, 3], dtype=np.intc)
    ends = np.array([[1, 0], [3, 2], [4, 1], [0, 4]], dtype=np.intc)
    vcol = np.array([5, 1, 4], dtype=np.intc)
    arrays = dict(dst=dst, pair=pair, ends=ends, omega=rng.normal(size=5),
                  base=rng.normal(size=6), vcol=vcol, amp=rng.normal(size=3),
                  freq=rng.uniform(1.0, 3.0, 3), phase=rng.uniform(0.0, 6.0, 3))
    return arrays, rng.normal(size=(ns, 5))


def run(arrays, th0, steps, stride, h=0.05):
    """The run of ``arrays`` from ``th0``: its records and the step the
    kernel returned."""
    recs = np.zeros((len(th0), -(-steps // stride) + 1, th0.shape[1]))
    recs[:, 0] = th0
    bad = pk.integrate(**arrays, h=h, steps=steps, stride=stride, recs=recs)
    return recs, bad


@pytest.mark.parametrize("ns", [1, 2, 3, 4, 5, 7, 8, 9, 10])
def test_split_batch_matches_single_sample_calls(ns, monkeypatch):
    """Every batch member equals its own run, on one thread and split in two
    (even on one CPU), across whole lockstep blocks and the samples left
    over."""
    rng = np.random.default_rng(ns)
    steps, stride = 205, 3  # records at steps 3, 6, ..., 204 and 205
    arrays, th0 = random_run(ns, rng)
    singles = [run(arrays, th0[s:s + 1], steps, stride) for s in range(ns)]
    for cpus in (1, 2):
        monkeypatch.setattr(pk, "_cpus", lambda: cpus)
        recs, bad = run(arrays, th0, steps, stride)
        assert bad == 0
        for s, (recs1, bad1) in enumerate(singles):
            assert bad1 == 0 and np.array_equal(recs[s], recs1[0])
        assert np.all(recs[:, 1:] != 0.0)


def test_carriers_add_to_the_base_weights():
    """A vibrated edge reads its base weight plus its carrier, the same IEEE
    sum as a base weight that already holds it: zero amplitudes give the
    unvibrated run, zero frequencies the run on weights shifted by
    sin(phase) amp."""
    rng = np.random.default_rng(12)
    arrays, th0 = random_run(5, rng)
    still = {**arrays, **{key: arrays[key][:0] for key in ("vcol", "amp", "freq", "phase")}}
    for changes in (dict(amp=np.zeros(3)), dict(freq=np.zeros(3))):
        vibrated = {**arrays, **changes}
        shifted = arrays["base"].copy()
        shifted[arrays["vcol"]] += np.sin(vibrated["phase"]) * vibrated["amp"]
        expect = run({**still, "base": shifted}, th0, 40, 2)
        got = run(vibrated, th0, 40, 2)
        assert np.array_equal(got[0], expect[0]) and got[1] == expect[1] == 0


@pytest.mark.parametrize("cpus", [1, 2])
def test_integrate_returns_the_first_non_finite_step(cpus, monkeypatch):
    """Samples that overflow at different steps, one in each thread's part:
    the kernel names the earliest.  A lockstep block stops at its first
    non-finite step, and a sample alone in its block runs to the end."""
    monkeypatch.setattr(pk, "_cpus", lambda: cpus)
    big = np.finfo(float).max
    arrays = dict(dst=np.array([1, 0], dtype=np.intc), pair=np.array([0, 0], dtype=np.intc),
                  ends=np.array([[1, 0]], dtype=np.intc), omega=np.full(2, 1e300),
                  base=np.ones(2), vcol=np.zeros(0, dtype=np.intc), amp=np.zeros(0),
                  freq=np.zeros(0), phase=np.zeros(0))
    # both nodes of a sample move by 1e300 a step: a sample starting k + 1/2
    # steps below the largest double overflows at step k + 1
    starts = np.array([0.0, big - 9.5e300, 0.0, 0.0, big - 4.5e300, 0.0])
    recs, bad = run(arrays, np.repeat(starts[:, None], 2, axis=1), 20, 1, h=1.0)
    assert bad == 5
    assert np.all(np.isfinite(recs[5])) and recs[5, -1, 0] == pytest.approx(2e301)
    for s in (0, 2, 3):  # finite samples, recorded at least up to the break
        assert np.array_equal(recs[s, :5], recs[5, :5])


CHUNK = int(re.search(r"#define K (\d+)", pk._SOURCE).group(1))  # steps of one carrier table


def oracle(arrays, x, h, steps, stride):
    """The records of one sample's run from ``x``, in pure Python in the
    kernel's operation order: one ``math.sin`` (the C library's sine) per
    pair; per node, ``omega`` minus the edge terms in edge order; at
    half-step g each vibrated edge weighs ``base + sin(t * freq + phase) *
    amp`` with ``t = h * (0.5 * g)``."""
    dst, pair, ends, omega, base, vcol, amp, freq, phase = (
        np.asarray(arrays[name]).tolist()
        for name in ("dst", "pair", "ends", "omega", "base", "vcol", "amp", "freq", "phase"))
    w = list(base)

    def weigh(g):
        t = h * (0.5 * g)
        for j, e in enumerate(vcol):
            w[e] = base[e] + math.sin(t * freq[j] + phase[j]) * amp[j]

    def field(x):
        sp = [math.sin(x[a] - x[b]) for a, b in ends]
        dx = list(omega)
        for e, t in enumerate(dst):
            dx[t] -= w[e] * sp[pair[e]]
        return dx

    x = list(x)
    recs = [x]
    weigh(0)
    for step in range(1, steps + 1):
        k1 = field(x)
        weigh(2 * step - 1)
        k2 = field([a + 0.5 * h * b for a, b in zip(x, k1)])
        k3 = field([a + 0.5 * h * b for a, b in zip(x, k2)])
        weigh(2 * step)
        k4 = field([a + h * b for a, b in zip(x, k3)])
        x = [a + h / 6.0 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
        if step % stride == 0 or step == steps:
            recs.append(x)
    return np.array(recs)


def assert_kernel_matches_oracle(arrays, th0, h, steps, stride):
    """The kernel's run of the samples ``th0`` (a finite one), on one CPU
    and split across two, equals the oracle's bit for bit."""
    want = [oracle(arrays, x, h, steps, stride) for x in th0]
    cpus = pk._cpus
    try:
        for n_cpus in (1, 2):
            pk._cpus = lambda: n_cpus
            recs, bad = run(arrays, th0, steps, stride, h)
            assert bad == 0 and all(map(np.array_equal, recs, want)), n_cpus
    finally:
        pk._cpus = cpus


def random_network_run(rng):
    """A random run in the layout of ``random_run``: 2-7 nodes, each pair of
    them coupled one way, both ways (through one pair sine) or not at all,
    base weights of either sign, and vibrated edges whose carriers come from
    a pool of at most their number, so that some may share one; 1-10
    samples and a step count at and around the carrier table's chunk.  The
    arguments of ``assert_kernel_matches_oracle``."""
    n = int(rng.integers(2, 8))
    dst, pair, ends = [], [], []
    for a in range(n):
        for b in range(a):
            targets = ([], [a], [b], [a, b])[int(rng.integers(0, 4))]
            if targets:
                ends.append((a, b))
            for t in targets:
                dst.append(t)
                pair.append(len(ends) - 1)
    m = len(dst)
    nv = int(rng.integers(0, m + 1))
    pool = int(rng.integers(1, nv + 1)) if nv else 0
    freqs = rng.uniform(1.0, 40.0, pool)
    phases = np.where(rng.random(pool) < 0.5, 0.0, rng.uniform(0.0, 6.0, pool))
    carrier = rng.integers(0, max(pool, 1), nv)
    arrays = dict(dst=np.array(dst, dtype=np.intc), pair=np.array(pair, dtype=np.intc),
                  ends=np.array(ends, dtype=np.intc).reshape(-1, 2), omega=rng.normal(size=n),
                  base=rng.normal(size=m), vcol=rng.permutation(m)[:nv].astype(np.intc),
                  amp=rng.normal(size=nv) * 10.0, freq=freqs[carrier], phase=phases[carrier])
    steps = int(rng.choice([0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3,
                            rng.integers(2, 3 * CHUNK)]))
    th0 = rng.normal(size=(int(rng.integers(1, 11)), n))
    return arrays, th0, float(rng.uniform(0.005, 0.05)), steps, int(rng.integers(1, 5))


@pytest.mark.parametrize("steps", [0, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
@pytest.mark.parametrize("carriers", ["shared", "same_frequency", "distinct", "none"])
def test_kernel_matches_the_pure_python_oracle(steps, carriers):
    """Nine samples, two lockstep blocks and a sample left over on one CPU,
    a block and a block plus one sample on two, across the ends of the
    carrier table's chunks; two vibrated edges share a carrier, or only its
    frequency, or all carriers differ, or no edge is vibrated."""
    arrays, th0 = random_run(9, np.random.default_rng(steps))
    if carriers != "distinct":  # edges 5 and 4
        arrays["freq"][2] = arrays["freq"][0]
    if carriers == "shared":
        arrays["phase"][2] = arrays["phase"][0]
    elif carriers == "none":
        arrays.update({key: arrays[key][:0] for key in ("vcol", "amp", "freq", "phase")})
    assert_kernel_matches_oracle(arrays, th0, 0.05, steps, 3)


@pytest.mark.parametrize("seed", range(3))
def test_kernel_matches_the_oracle_on_random_networks(seed):
    # CI runs the same check on 50 seeds
    assert_kernel_matches_oracle(*random_network_run(np.random.default_rng(seed)))


@pytest.mark.parametrize("cpus", [1, 64])
@pytest.mark.parametrize("ns", [1, 10])
def test_thread_count_is_bounded_by_samples_cpus_and_max_threads(ns, cpus, monkeypatch):
    monkeypatch.setattr(pk, "_cpus", lambda: cpus)
    assert pk.max_threads == 2
    assert pk.thread_count(ns) == min(ns, cpus, pk.max_threads) <= 2


def test_cpus_follow_the_affinity_mask():
    if hasattr(os, "sched_getaffinity"):
        assert pk._cpus() == len(os.sched_getaffinity(0))
    else:
        assert pk._cpus() == (os.cpu_count() or 1)


# ---------------------------------------------------------------------------
# the linear-flow stepper


def full_pattern(n):
    return np.argwhere(np.ones((n, n), dtype=bool)).astype(np.intc)


def carriers(terms=2, nz=4, amp=1.0):
    """The carriers of ``terms`` sinusoids of amplitude ``amp`` on ``nz``
    pattern entries."""
    return (np.full(terms, amp), np.ones(terms), np.zeros(terms), np.ones((terms, nz)))


def run_flow(n=2, steps=8, pattern=None, p=None, **changes):
    """One linear_flow call of ``steps`` steps on n x n matrices with the
    weights of every step and a growth window of 4 steps; ``changes``
    replace its arguments.  P is a SinusoidSum of order n whose ``pattern``
    (a full one by default) and carriers ``p`` (by default P = 0, one
    carrier of amplitude zero), ``(amps, freqs, phases, mats)`` with mats on
    the pattern's entries, are overwritten as given, unchecked: what the
    kernel reads."""
    sinusoids = SinusoidSum([0.0], [1.0], [0.0], np.ones((1, n, n)))
    sinusoids.pattern = full_pattern(n) if pattern is None else pattern
    (sinusoids.amps, sinusoids.freqs, sinusoids.phases,
     sinusoids._pattern_mats) = carriers(1, n * n, 0.0) if p is None else p
    args = dict(t0=0.0, h=0.1, steps=steps, psi=np.eye(n), j=-np.eye(n),
                weights=np.ones((steps, 2)), sums=np.zeros((2, 2, n, n)), growth=np.ones(2),
                growth_steps=4)
    return pk.linear_flow(sinusoids, **{**args, **changes})


def test_flow_rejects_inconsistent_arrays_before_the_call(monkeypatch):
    def no_kernel():
        raise AssertionError("the kernel was loaded")

    amps, freqs, phases, mats = carriers()
    with monkeypatch.context() as m:
        m.setattr(pk, "load", no_kernel)
        for changes in (dict(psi=np.eye(2)[:, :1].copy()),  # Psi is not square
                        dict(psi=np.ones(4)),
                        dict(growth=np.ones(3)),  # a growth of three values
                        dict(j=np.eye(3)),  # J of another size
                        dict(weights=np.ones((8, 3))),  # three weights per step
                        dict(weights=np.ones((7, 2))),  # a step without weights
                        dict(sums=np.zeros((2, 2, 2, 2))[:, :, :, :1]),
                        dict(j=-np.eye(2), weights=None),
                        dict(steps=-1, p=carriers(), j=None),
                        dict(p=(amps, freqs, phases, mats[:1])),  # a term without entries
                        dict(p=(amps[:1], freqs, phases, mats)),
                        dict(p=(amps, freqs, phases[:, None], mats)),
                        dict(p=(amps[:0], freqs[:0], phases[:0], mats[:0])),  # no term
                        dict(p=(amps, freqs, phases, np.ones((2, 2, 2))))):  # full matrices
            with pytest.raises(ValueError):
                run_flow(**changes)
    # dtype, C order and writeability: ctypes checks them at the call
    frozen = np.eye(2)
    frozen.flags.writeable = False
    for changes in (dict(psi=np.eye(2, dtype=np.float32)), dict(psi=frozen),
                    dict(psi=np.eye(4)[::2, ::2]), dict(growth=np.ones(2, dtype=np.float32)),
                    dict(sums=np.zeros((2, 2, 2, 4))[..., ::2]),
                    dict(p=(amps.astype(np.float32), freqs, phases, mats)),
                    dict(p=(amps, freqs, phases, np.ones((2, 8))[:, ::2]))):
        psi = changes.get("psi", np.eye(2))
        with pytest.raises(ctypes.ArgumentError):
            run_flow(**{"psi": psi, **changes})
        assert np.array_equal(psi, np.eye(2))


def test_flow_rejects_a_bad_pattern_or_table_width(monkeypatch):
    def no_kernel():
        raise AssertionError("the kernel was loaded")

    with monkeypatch.context() as m:
        m.setattr(pk, "load", no_kernel)
        for bad in ([[0, 0], [2, 1]],  # row out of range
                    [[0, -1]],  # negative column
                    [[1, 0], [0, 1]],  # not in row-major order
                    [[0, 1], [0, 1]],  # an entry twice
                    [0, 1]):  # not (nz, 2)
            with pytest.raises(ValueError, match="pattern"):
                run_flow(pattern=np.array(bad, dtype=np.intc))
        with pytest.raises(ValueError, match="pattern"):
            run_flow(pattern=np.array([[0, 0]], dtype=np.int64))
        with pytest.raises(ValueError, match="pattern"):
            run_flow(pattern=[[0, 0]])
        # term matrices of another width than the pattern's two entries
        pattern = np.array([[0, 1], [1, 0]], dtype=np.intc)
        for width in (1, 3, 4):
            with pytest.raises(ValueError, match="shapes"):
                run_flow(pattern=pattern, p=carriers(nz=width))


def test_flow_steps_in_sequence_and_stops_at_a_singular_psi():
    # a constant P = -I, one carrier -sin(0 t + pi / 2) on the diagonal:
    # every step multiplies Psi by r = R(-h), the RK4 polynomial of exp(-h),
    # and the inverse flow dY/dt = Y by R(h)
    r = 1.0 - 0.1 + 0.1 ** 2 / 2 - 0.1 ** 3 / 6 + 0.1 ** 4 / 24
    big_r = 1.0 + 0.1 + 0.1 ** 2 / 2 + 0.1 ** 3 / 6 + 0.1 ** 4 / 24
    diagonal = np.array([[0, 0], [1, 1]], dtype=np.intc)
    p = tuple(np.array(a) for a in ([-1.0], [0.0], [np.pi / 2], [[1.0, 1.0]]))
    psi, sums, growth = np.eye(2), np.zeros((2, 2, 2, 2)), np.ones(2)
    run_flow(steps=6, psi=psi, sums=sums, growth=growth, pattern=diagonal, p=p,
             weights=np.ones((6, 2)))
    assert psi == pytest.approx(r ** 6 * np.eye(2), rel=1e-14)
    # the growth window of 4 steps: Psi shrinks, so sup |Psi|_F is that of
    # Psi after step 1, and sup |Psi^-1|_F that of the inverse flow after
    # step 4
    assert growth == pytest.approx([np.sqrt(2.0) * r, np.sqrt(2.0) * big_r ** 4], rel=1e-14)
    # Psi^-1 J Psi = -I whatever Psi is; the weights are all one
    assert sums[0, 0] == pytest.approx(sum(r ** np.arange(1, 7)) * np.eye(2), rel=1e-14)
    assert np.array_equal(sums[1], np.tile(-6.0 * np.eye(2), (2, 1, 1)))
    # P = 0 from the singular Psi = diag(0, 1): the pass stops after its
    # first step, before that step's sums
    sums = np.zeros((2, 2, 2, 2))
    with pytest.raises(np.linalg.LinAlgError,
                       match=r"^Psi is singular to working precision at t = 2.1$"):
        run_flow(t0=2.0, steps=5, psi=np.diag([0.0, 1.0]), weights=np.ones((5, 2)), sums=sums)
    assert not sums.any()


# ---------------------------------------------------------------------------
# the CSV formatter


def per_value_bodies(a):
    """The bodies format_csv must write: each value as ``"%.10g" % v``."""
    rows = a.tolist()
    body = "".join(",".join("%.10g" % v for v in row) + "\n" for row in rows)
    return body, "".join("%.10g,%.10g\n" % (row[0], row[-1]) for row in rows)


def from_bits(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# every exponent, subnormals and both zeros; hypothesis' own floats; and the
# formatter's exact range, with its boundaries on both sides
doubles = st.one_of(
    st.integers(0, 2**64 - 1).map(from_bits),
    st.floats(),
    st.floats(5e-14, 2e10).flatmap(lambda x: st.sampled_from([x, -x])),
)


@settings(max_examples=300, deadline=None, database=None)
@given(shape=st.tuples(st.integers(0, 8), st.integers(1, 8)), data=st.data())
def test_format_csv_writes_what_percent_g_writes(shape, data):
    values = data.draw(st.lists(doubles, min_size=shape[0] * shape[1],
                                max_size=shape[0] * shape[1]))
    a = np.array(values, dtype=np.float64).reshape(shape)
    assert pk.format_csv(a) == per_value_bodies(a)


def neighbours(x):
    return [np.nextafter(x, 0.0), x, np.nextafter(x, np.inf)]


FORMAT_EDGE_CASES = [
    # the ends of the exact range and the switches to exponent notation
    *neighbours(1e-13), *neighbours(1e-4), *neighbours(1e-5), *neighbours(1e10),
    # rounding up a decade, also out of exponent notation and out of the range
    9.9999999995, 9.99999999951, 9999999999.5, 999999999.95, 99999.999995,
    0.00099999999995, 0.0000999999999951, 9.99999999995e-14,
    # exact ties: half-even
    12345678.125, 0.5, 2.5, 1234567890.5, 1234567891.5, 0.0001220703125,
    # outside the range: snprintf
    0.0, -0.0, 5e-324, 1e-310, np.finfo(float).tiny, np.finfo(float).max, 1e22,
    np.inf, -np.inf, np.nan, np.copysign(np.nan, -1.0),
]


def test_format_csv_edge_cases():
    values = np.array(FORMAT_EDGE_CASES)
    for a in (values.reshape(-1, 1), values.reshape(1, -1), -values.reshape(1, -1)):
        assert pk.format_csv(a) == per_value_bodies(a)
    body, two = pk.format_csv(np.array([[9999999999.5, np.copysign(np.nan, -1.0)]]))
    assert body == "1e+10,nan\n" and two == "1e+10,nan\n"  # glibc would write -nan
    assert pk.format_csv(np.array([[12345678.125, 0.5, -1e-5]]))[0] == \
        "12345678.12,0.5,-1e-05\n"


# every power of two and of ten in the exact range [1e-13, 1e10), with both
# neighbours: where the decimal exponent estimated from the binary one is one
# too low, and where the formatter moves it
EXPONENT_BOUNDARIES = [
    v for x in [2.0 ** e for e in range(-43, 34)] + [float(f"1e{j}") for j in range(-13, 10)]
    for v in neighbours(x)
]


def test_format_csv_at_powers_of_two_and_ten():
    values = np.array(EXPONENT_BOUNDARIES)
    a = np.concatenate([values, -values]).reshape(2, -1)
    assert pk.format_csv(a) == per_value_bodies(a)


def test_format_csv_shapes():
    assert pk.format_csv(np.zeros((0, 3))) == ("", "")
    assert pk.format_csv(np.array([[1.5], [-2.0]])) == ("1.5\n-2\n", "1.5,1.5\n-2,-2\n")
    wide = np.arange(12.0).reshape(3, 4)
    assert pk.format_csv(wide[:, ::2]) == per_value_bodies(wide[:, ::2])  # not C order
    for bad in (np.zeros(3), np.zeros((3, 0)), np.zeros((2, 2, 2))):
        with pytest.raises(ValueError, match="cols >= 1"):
            pk.format_csv(bad)


def test_format_csv_without_128_bit_integers_uses_snprintf(fresh_cache, monkeypatch):
    # a compiler without __int128 (a 32-bit target) builds the library with
    # snprintf for every value; the bytes are the same
    monkeypatch.setattr(pk, "_FLAGS", (*pk._FLAGS, "-U__SIZEOF_INT128__"))
    values = np.array(FORMAT_EDGE_CASES + [3.25, 1e-7, 123456.789, 2 * np.pi])
    a = np.concatenate([values, -values]).reshape(2, -1)
    assert pk.format_csv(a) == per_value_bodies(a)


def comma_locale():
    """Set LC_NUMERIC to an installed locale with a decimal comma, if any."""
    for name in ("de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8", "fr_FR.utf8", "nl_NL.UTF-8"):
        try:
            locale.setlocale(locale.LC_NUMERIC, name)
        except locale.Error:
            continue
        if locale.localeconv()["decimal_point"] == ",":
            return name
    return None


def test_format_csv_ignores_the_numeric_locale():
    # Python's "%.10g" ignores LC_NUMERIC; snprintf would follow it
    saved = locale.setlocale(locale.LC_NUMERIC)
    try:
        if comma_locale() is None:
            pytest.skip("no locale with a decimal comma is installed")
        a = np.array([[1.234e-14, 1.5e22, 0.5], [-2.5e-300, 6.02e23, np.inf]])
        assert pk.format_csv(a) == per_value_bodies(a)
        assert pk.format_csv(a[:1])[0] == "1.234e-14,1.5e+22,0.5\n"
    finally:
        locale.setlocale(locale.LC_NUMERIC, saved)
