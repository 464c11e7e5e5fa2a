import ctypes
import locale
import os
import struct
import subprocess

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


def bind_flow(n=2, kmax=4, steps=8, **changes):
    """A LinearFlow of n x n matrices with a full pattern, a stack of kmax and
    the weights of steps steps; ``changes`` replace its arguments."""
    args = dict(h=0.1, psi=np.eye(n), scratch=np.zeros(pk.flow_scratch_len(n)),
                stack=np.zeros((kmax, n, n)), pattern=full_pattern(n), j=-np.eye(n),
                weights=np.ones((steps, 2)), sums=np.zeros((2, 2, n, n)))
    return pk.LinearFlow(**{**args, **changes})


def test_flow_rejects_inconsistent_arrays_before_the_call(monkeypatch):
    def no_kernel():
        raise AssertionError("the kernel was loaded")

    with monkeypatch.context() as m:
        m.setattr(pk, "load", no_kernel)
        with pytest.raises(ValueError, match="scratch"):  # one double short
            bind_flow(scratch=np.zeros(pk.flow_scratch_len(2) - 1))
        with pytest.raises(ValueError):
            bind_flow(scratch=np.zeros((2, pk.flow_scratch_len(2))))
        with pytest.raises(ValueError):  # Psi is not square
            bind_flow(psi=np.eye(2)[:, :1].copy())
        with pytest.raises(ValueError):
            bind_flow(psi=np.eye(2, dtype=np.float32))
        frozen = np.eye(2)
        frozen.flags.writeable = False
        with pytest.raises(ValueError):
            bind_flow(psi=frozen)
        with pytest.raises(ValueError):  # a stack of 3 x 3 matrices
            bind_flow(stack=np.zeros((4, 3, 3)))
        with pytest.raises(ValueError):  # J of another size
            bind_flow(j=np.eye(3))
        with pytest.raises(ValueError):  # three weights per step
            bind_flow(weights=np.ones((8, 3)))
        with pytest.raises(ValueError):
            bind_flow(sums=np.zeros((2, 2, 2, 2))[:, :, :, :1])

    flow = bind_flow()

    def no_call(*args):
        raise AssertionError("the kernel was called")

    monkeypatch.setattr(flow, "_call", no_call)
    table = np.ones((5, 4))  # the four entries of the full 2 x 2 pattern
    with pytest.raises(ValueError):  # two rows short for two steps
        flow.chunk(0, 2, table[:3])
    with pytest.raises(ValueError):  # full matrices instead of pattern entries
        flow.chunk(0, 2, np.ones((5, 2, 2)))
    with pytest.raises(ValueError):  # a table wider than the pattern
        flow.chunk(0, 2, np.ones((5, 9)))
    with pytest.raises(ValueError):
        flow.chunk(0, 2, table.astype(np.float32))
    with pytest.raises(ValueError):  # not in C order
        flow.chunk(0, 2, np.ones((5, 8))[:, ::2])
    with pytest.raises(ValueError):  # past the stack
        flow.chunk(0, 5, np.ones((11, 4)))
    with pytest.raises(ValueError):  # past the weights
        flow.chunk(7, 2, table)
    with pytest.raises(ValueError):
        flow.chunk(-1, 2, table)


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
                bind_flow(pattern=np.array(bad, dtype=np.intc))
        with pytest.raises(ValueError, match="pattern"):
            bind_flow(pattern=np.array([[0, 0]], dtype=np.int64))
        with pytest.raises(ValueError, match="pattern"):
            bind_flow(pattern=[[0, 0]])

    flow = bind_flow(pattern=np.array([[0, 1], [1, 0]], dtype=np.intc))

    def no_call(*args):
        raise AssertionError("the kernel was called")

    monkeypatch.setattr(flow, "_call", no_call)
    for width in (1, 3, 4):
        with pytest.raises(ValueError):
            flow.chunk(0, 2, np.ones((5, width)))


def test_flow_steps_chunks_in_sequence_and_stops_at_a_singular_psi():
    # a constant P = -I: every step multiplies Psi by R(-h), the RK4
    # polynomial of exp(-h)
    h, r = 0.1, 1.0 - 0.1 + 0.1 ** 2 / 2 - 0.1 ** 3 / 6 + 0.1 ** 4 / 24
    psi, stack, sums = np.eye(2), np.zeros((4, 2, 2)), np.zeros((2, 2, 2, 2))
    flow = bind_flow(psi=psi, stack=stack, sums=sums,
                     pattern=np.array([[0, 0], [1, 1]], dtype=np.intc))
    for start in (0, 3):
        flow.chunk(start, 3, np.full((7, 2), -1.0))
    assert psi == pytest.approx(r ** 6 * np.eye(2), rel=1e-14)
    assert stack[:3] == pytest.approx(r ** np.arange(4, 7)[:, None, None] * np.eye(2),
                                      rel=1e-14)
    # Psi^-1 J Psi = -I whatever Psi is; the weights are all one
    assert sums[0, 0] == pytest.approx(sum(r ** np.arange(1, 7)) * np.eye(2), rel=1e-14)
    assert np.array_equal(sums[1], np.tile(-6.0 * np.eye(2), (2, 1, 1)))
    # P(h) = -(6/h) e0 e0^T zeroes the first row of the next step's Psi
    table = np.zeros((3, 1))
    table[2, 0] = -6.0 / h
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        bind_flow(pattern=np.array([[0, 0]], dtype=np.intc)).chunk(0, 1, table)


# ---------------------------------------------------------------------------
# extreme singular values


def lapack_extremes(stack, ext):
    """The running maxima singular_extremes raises, from numpy's SVD."""
    s = np.linalg.svd(stack, compute_uv=False)
    return np.array([max(ext[0], s[:, 0].max()), max(ext[1], (1.0 / s[:, -1]).max())])


def conditioned_matrix(rng, n, cond):
    """U diag(s) V^T with orthogonal U, V and singular values from 1 to cond."""
    u, _ = np.linalg.qr(rng.normal(size=(n, n)))
    v, _ = np.linalg.qr(rng.normal(size=(n, n)))
    s = np.exp(rng.uniform(0.0, np.log(cond), n))
    s[0], s[-1] = 1.0, cond
    return (u * s) @ v.T


@settings(max_examples=300, deadline=None, database=None)
@given(n=st.integers(1, 6), k=st.integers(1, 5), psi_like=st.booleans(),
       cond=st.floats(1.0, 1e4), scale=st.floats(-200.0, 200.0),
       start=st.sampled_from([0.0, 1.0]), seed=st.integers(0, 2**32 - 1))
def test_singular_extremes_match_lapack(n, k, psi_like, cond, scale, start, seed):
    rng = np.random.default_rng(seed)
    if psi_like:  # a flow's Psi: the identity plus a drift of norm below 1
        stack = np.eye(n) + rng.normal(size=(k, n, n)) * rng.uniform(0.0, 0.3) / np.sqrt(n)
    else:
        stack = np.stack([conditioned_matrix(rng, n, cond) for _ in range(k)])
        stack *= 10.0 ** scale
    ext = np.full(2, start)
    expected = lapack_extremes(stack, ext)
    pk.singular_extremes(stack, ext)
    assert np.all(np.abs(ext - expected) <= 1e-10 * expected)


@pytest.mark.parametrize("n", [1, 2, 3, 6])
def test_singular_extremes_of_a_singular_matrix_is_inf(n, recwarn):
    rng = np.random.default_rng(n)
    rank_deficient = rng.normal(size=(n, n))
    rank_deficient[:, n // 2] = 0.0
    stack = np.stack([np.eye(n), rank_deficient, np.zeros((n, n))])
    for cut in (1, 2, 3):
        ext = np.ones(2)
        pk.singular_extremes(stack[:cut], ext)
        if cut == 1:
            assert np.array_equal(ext, [1.0, 1.0])
        else:
            assert ext[1] == np.inf
            expected = np.linalg.svd(rank_deficient, compute_uv=False)[0]
            assert ext[0] == pytest.approx(max(1.0, expected), rel=1e-12)
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_singular_extremes_refuse_a_non_finite_stack(bad):
    stack = np.stack([2.0 * np.eye(3), np.eye(3)])
    stack[1, 2, 0] = bad
    ext = np.array([1.5, 0.25])
    with pytest.raises(np.linalg.LinAlgError, match="SVD did not converge"):
        pk.singular_extremes(stack, ext)
    assert np.array_equal(ext, [1.5, 0.25])  # not even the finite first matrix


def test_singular_extremes_check_their_arrays():
    ext = np.ones(2)
    for bad in (np.eye(2), np.zeros((1, 2, 3)), np.zeros((1, 0, 0)), np.zeros(4)):
        with pytest.raises(ValueError, match="stack"):
            pk.singular_extremes(bad, ext)
    with pytest.raises(ctypes.ArgumentError):
        pk.singular_extremes(np.eye(2, dtype=np.float32)[None], ext)
    with pytest.raises(ctypes.ArgumentError):  # not in C order
        pk.singular_extremes(np.zeros((1, 2, 4))[:, :, ::2], ext)
    for bad_ext in (np.ones(3), np.ones(2, dtype=np.float32), np.ones((2, 1))):
        with pytest.raises(ctypes.ArgumentError):
            pk.singular_extremes(np.eye(2)[None], bad_ext)
    frozen = np.ones(2)
    frozen.flags.writeable = False
    with pytest.raises(ctypes.ArgumentError):
        pk.singular_extremes(np.eye(2)[None], frozen)
    empty = np.ones(2)
    pk.singular_extremes(np.zeros((0, 2, 2)), empty)
    assert np.array_equal(empty, [1.0, 1.0])


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
