import ctypes
import os
import subprocess

import numpy as np
import pytest

from vibrosync import _phase_kernel as pk


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
    assert len(before) == 1 and len(after) == 2
    assert pk._library_name() in after and pk._library_name() not in before


def test_library_name_carries_the_platform(monkeypatch):
    name = pk._library_name()
    monkeypatch.setattr(pk.platform, "machine", lambda: "some-other-machine")
    assert pk._library_name() != name


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


def test_chunk_rejects_inconsistent_arrays():
    dst = np.array([1, 0], dtype=np.intc)
    pair = np.array([0, 0], dtype=np.intc)  # two reciprocal edges, one pair
    ends = np.array([[1, 0]], dtype=np.intc)
    omega, wt = np.zeros(2), np.ones((5, 2))
    th, recs = np.zeros((1, 2)), np.zeros((1, 3, 2))
    scratch = pk.alloc_scratch(1, 2, len(ends))

    def run(dst=dst, pair=pair, ends=ends, start=0, stride=1, scratch=scratch):
        return pk.rk4_chunk(dst, pair, ends, omega, wt, start, 0.1, stride, th, recs,
                            scratch)

    assert run() == 3
    with pytest.raises(ValueError):
        run(dst=np.array([1, 2], dtype=np.intc))
    with pytest.raises(ValueError):  # a pair end outside the network
        run(ends=np.array([[1, 2]], dtype=np.intc))
    with pytest.raises(ValueError):  # a pair index past the pair table
        run(pair=np.array([0, 1], dtype=np.intc))
    with pytest.raises(ValueError):  # a negative pair index
        run(pair=np.array([0, -1], dtype=np.intc))
    with pytest.raises(ValueError):  # one pair index for two edges
        run(pair=np.array([0], dtype=np.intc))
    with pytest.raises(ValueError):  # pair ends that are not (a, b) rows
        run(ends=np.array([[1, 0, 1]], dtype=np.intc))
    with pytest.raises(ValueError):  # records past the end of recs
        run(start=1)
    with pytest.raises(ValueError):  # records before the start of recs
        run(stride=-1)
    with pytest.raises(ValueError):
        run(start=-2)
    with pytest.raises(ValueError):  # one double short
        run(scratch=np.zeros(len(scratch) - 1))
    with pytest.raises(ctypes.ArgumentError, match="data type"):
        run(dst=dst.astype(np.int64))
    with pytest.raises(ctypes.ArgumentError, match="data type"):
        run(ends=ends.astype(np.int64))


def random_chunk(ns, k, rng):
    """A chunk on a 5-node network with two reciprocal pairs and two one-way
    edges: the kernel's arguments apart from the start, stride and records."""
    dst = np.array([1, 0, 3, 2, 4, 0], dtype=np.intc)
    pair = np.array([0, 0, 1, 1, 2, 3], dtype=np.intc)
    ends = np.array([[1, 0], [3, 2], [4, 1], [0, 4]], dtype=np.intc)
    omega = rng.normal(size=5)
    wt = rng.normal(size=(2 * k + 1, 6))
    return dst, pair, ends, omega, wt, rng.normal(size=(ns, 5))


@pytest.mark.parametrize("ns", [1, 2, 3, 4, 5, 7, 8, 9, 10])
def test_split_batch_matches_single_sample_calls(ns, monkeypatch):
    """Every batch member equals its own run, on one thread and split in two
    (even on one CPU), across whole lockstep blocks and the samples left
    over."""
    rng = np.random.default_rng(ns)
    k, start, stride = 200, 5, 3  # records at steps 6, 9, ..., 204
    dst, pair, ends, omega, wt, th0 = random_chunk(ns, k, rng)
    n_rec = (start + k) // stride + 1
    singles = []
    for s in range(ns):
        th1, recs1 = th0[s:s + 1].copy(), np.zeros((1, n_rec, 5))
        assert pk.rk4_chunk(dst, pair, ends, omega, wt, start, 0.05, stride, th1, recs1,
                            pk.alloc_scratch(1, 5, len(ends))) == n_rec
        singles.append((th1[0], recs1[0]))
    for cpus in (1, 2):
        monkeypatch.setattr(pk, "_cpus", lambda: cpus)
        th, recs = th0.copy(), np.zeros((ns, n_rec, 5))
        assert pk.rk4_chunk(dst, pair, ends, omega, wt, start, 0.05, stride, th, recs,
                            pk.alloc_scratch(ns, 5, len(ends))) == n_rec
        for s, (th1, recs1) in enumerate(singles):
            assert np.array_equal(th[s], th1)
            assert np.array_equal(recs[s], recs1)
        assert np.all(recs[:, 2:] != 0.0) and np.all(recs[:, :2] == 0.0)


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


def test_scratch_too_short_for_the_threads_is_rejected_before_the_call(monkeypatch):
    rng = np.random.default_rng(0)
    dst, pair, ends, omega, wt, th = random_chunk(10, 2, rng)
    recs, per_thread = np.zeros((10, 3, 5)), len(pk.alloc_scratch(1, 5, len(ends)))
    scratch = pk.alloc_scratch(10, 5, len(ends))
    assert len(scratch) == 2 * per_thread
    # each thread's slice starts on its own 64-byte line
    assert per_thread % 8 == 0 and scratch.ctypes.data % 64 == 0
    assert f"#define W {pk._block_width} " in pk._SOURCE

    def run(scratch):
        return pk.rk4_chunk(dst, pair, ends, omega, wt, 0, 0.05, 1, th, recs, scratch)

    def no_kernel():
        raise AssertionError("the kernel was called")

    monkeypatch.setattr(pk, "_cpus", lambda: 2)
    monkeypatch.setattr(pk, "load", no_kernel)
    with pytest.raises(ValueError):  # room for one thread's slice only
        run(np.zeros(2 * per_thread - 1))
    with pytest.raises(ValueError):
        run(np.zeros((2, per_thread)))
    monkeypatch.undo()
    monkeypatch.setattr(pk, "_cpus", lambda: 1)
    assert run(np.zeros(per_thread)) == 3  # one thread needs one slice
