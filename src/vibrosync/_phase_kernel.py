"""Compiled RK4 chunk for the phase network, built with the C compiler ``cc``.

The C source below is compiled on first use into a shared library cached
in this package's ``__pycache__/`` (or, when that directory is not
writable, in a fresh private temporary directory) under a name carrying
the SHA-256 of the source, the flags and the platform, and loaded with
:mod:`ctypes`; a cached file that does not load is rebuilt once.
``-ffp-contract=off`` keeps the compiler from fusing multiply-adds, so the
results do not depend on whether the host has FMA.

The field takes one sine per coupled pair {s, t}, not one per directed
edge: the reciprocal edges (s, t) and (t, s) share sin(x_t - x_s) up to
its sign, which the caller folds into the edge weights.  Negation is exact
in IEEE arithmetic and the C library's ``sin`` is odd (glibc 2.36: no
mismatch in 5e7 random arguments), so the field matches one sine per edge
value for value; only the sign of an exact zero may differ.  A network
without reciprocal edges has one pair per edge.

A chunk splits its samples into contiguous parts across at most
``max_threads`` (2) POSIX threads, one part each, and never more threads
than samples or than CPUs the process may run on.  A thread advances its
part in lockstep blocks of W = 4 samples (``_block_width``), stored
node-major (node j of block sample s at ``j*W + s``), so each pair sine,
edge scatter and RK4 update loops over the block's samples and each edge
weight and index is loaded once per block; the samples left over, fewer
than W, run one at a time through the same inlined code at width 1.  Every
call site has a constant width, so neither path pays for run-time loop
bounds.  Each thread's scratch slice is padded to whole 64-byte lines and
starts on one, so the threads never write to a shared cache line.  The
samples are independent and each runs the same arithmetic in the same
order in any block and on any thread, so the results are bit-identical to
one sample on one thread.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np

_SOURCE = r"""
#include <math.h>
#include <pthread.h>
#include <stdint.h>

#define W 4  /* samples per lockstep block */

/* dx_t = omega_t - sum over edges e = (s, t) of w_e sin(x_t - x_s) for the
   `width` samples of a block, stored node-major: node j of block sample s
   at j * width + s.  One sine per coupled pair: sp[p] = sin(x_a - x_b) for
   the pair's ends (a, b) = ends[2p], ends[2p+1], and edge e reads sp[pair[e]].
   An edge with (t, s) = (b, a) needs -sp[p]; the caller stores -w_e for it,
   which is exact, as are x_a - x_b = -(x_b - x_a) and sin(-u) = -sin(u).
   Each sample sees the same operations in the same order at any width;
   every call site passes a constant width, so the sample loops compile
   without run-time bounds. */
static inline __attribute__((always_inline)) void
field(int width, int n, int m, int npair, const int *restrict dst,
      const int *restrict pair, const int *restrict ends,
      const double *restrict omega, const double *restrict w,
      const double *restrict x, double *restrict sp, double *restrict dx)
{
    for (int p = 0; p < npair; p++) {
        const double *xa = x + ends[2 * p] * width, *xb = x + ends[2 * p + 1] * width;
        for (int s = 0; s < width; s++)
            sp[p * width + s] = sin(xa[s] - xb[s]);
    }
    for (int i = 0; i < n; i++)
        for (int s = 0; s < width; s++)
            dx[i * width + s] = omega[i];
    for (int e = 0; e < m; e++) {
        double we = w[e];
        double *d = dx + dst[e] * width;
        const double *q = sp + pair[e] * width;
        for (int s = 0; s < width; s++)
            d[s] -= we * q[s];
    }
}

/* The samples [s0, s1) of a batch and the scratch of the thread that
   runs them: (6n + npair) W doubles, padded to whole 64-byte lines. */
struct part {
    int s0, s1, n, m, npair;
    const int *dst, *pair, *ends;
    const double *omega, *w;
    int64_t start, stride, n_rec;
    int k;
    double h;
    double *th, *recs, *scratch;
};

/* All k steps of the `width` samples from row s0 of th, in lockstep. */
static inline __attribute__((always_inline)) void
advance(int width, const struct part *p, int s0)
{
    int n = p->n, m = p->m, npair = p->npair, k = p->k, nw = p->n * width;
    const int *dst = p->dst, *pair = p->pair, *ends = p->ends;
    const double *omega = p->omega;
    double h = p->h;
    double *x = p->scratch, *y = x + nw, *k1 = y + nw, *k2 = k1 + nw, *k3 = k2 + nw;
    double *k4 = k3 + nw, *sp = k4 + nw;
    for (int s = 0; s < width; s++)
        for (int j = 0; j < n; j++)
            x[j * width + s] = p->th[(int64_t)(s0 + s) * n + j];
    for (int i = 0; i < k; i++) {
        const double *w0 = p->w + 2 * (int64_t)i * m, *wm = w0 + m, *w1 = wm + m;
        field(width, n, m, npair, dst, pair, ends, omega, w0, x, sp, k1);
        for (int j = 0; j < nw; j++)
            y[j] = x[j] + 0.5 * h * k1[j];
        field(width, n, m, npair, dst, pair, ends, omega, wm, y, sp, k2);
        for (int j = 0; j < nw; j++)
            y[j] = x[j] + 0.5 * h * k2[j];
        field(width, n, m, npair, dst, pair, ends, omega, wm, y, sp, k3);
        for (int j = 0; j < nw; j++)
            y[j] = x[j] + h * k3[j];
        field(width, n, m, npair, dst, pair, ends, omega, w1, y, sp, k4);
        for (int j = 0; j < nw; j++)
            x[j] = x[j] + h / 6.0 * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j]);
        int64_t step = p->start + i + 1;
        if (step % p->stride == 0)
            for (int s = 0; s < width; s++) {
                double *r = p->recs + ((int64_t)(s0 + s) * p->n_rec + step / p->stride) * n;
                for (int j = 0; j < n; j++)
                    r[j] = x[j * width + s];
            }
    }
    for (int s = 0; s < width; s++)
        for (int j = 0; j < n; j++)
            p->th[(int64_t)(s0 + s) * n + j] = x[j * width + s];
}

/* A part runs in blocks of W samples; the last samples, fewer than W, run
   one at a time. */
static void *run_part(void *arg)
{
    const struct part *p = arg;
    int s = p->s0;
    for (; s + W <= p->s1; s += W)
        advance(W, p, s);
    for (; s < p->s1; s++)
        advance(1, p, s);
    return NULL;
}

/* RK4 steps start+1 .. start+k of every sample in th (ns rows of n);
   w holds the edge weights on the half-step grid (2k+1 rows of m).  The
   state after every stride-th step goes to recs (ns, n_rec, n) at record
   index step / stride.  The samples are split into nthreads contiguous
   parts; the calling thread runs the first and one POSIX thread each of
   the others, and a part whose thread does not start runs on the calling
   thread after its own.  Part t uses the `slice` doubles of scratch from
   t slice on.  Returns the record index after the chunk. */
int64_t rk4_chunk(int ns, int n, int m, int npair, const int *dst,
                  const int *pair, const int *ends, const double *omega,
                  const double *w, int64_t start, int k, double h,
                  int64_t stride, double *th, double *recs, int64_t n_rec,
                  double *scratch, int nthreads)
{
    int64_t next = (start + k) / stride + 1;
    if (nthreads < 1)  /* no samples */
        return next;
    int64_t slice = ((int64_t)(6 * n + npair) * W + 7) / 8 * 8;
    struct part parts[nthreads];
    pthread_t tid[nthreads];
    int started[nthreads];
    for (int t = 0; t < nthreads; t++) {
        struct part p = {(int)((int64_t)ns * t / nthreads),
                         (int)((int64_t)ns * (t + 1) / nthreads), n, m, npair, dst,
                         pair, ends, omega, w, start, stride, n_rec, k, h, th, recs,
                         scratch + t * slice};
        parts[t] = p;
    }
    for (int t = 1; t < nthreads; t++)
        started[t] = pthread_create(&tid[t], NULL, run_part, &parts[t]) == 0;
    run_part(&parts[0]);
    for (int t = 1; t < nthreads; t++) {
        if (started[t])
            pthread_join(tid[t], NULL);
        else
            run_part(&parts[t]);
    }
    return next;
}
"""

_FLAGS = ("-O2", "-shared", "-fPIC", "-pthread", "-ffp-contract=off")
_compiler = "cc"
max_threads = 2  # the most threads one chunk runs on
_cache_dir = Path(__file__).resolve().parent / "__pycache__"
_kernel = None  # the loaded ctypes function, once built
_lock = threading.Lock()


class KernelBuildError(RuntimeError):
    pass


def _library_name() -> str:
    key = (_SOURCE, *_FLAGS, sys.platform, platform.machine())
    digest = hashlib.sha256("\0".join(key).encode()).hexdigest()
    return f"phase_kernel-{digest}.so"


def _writable_dir() -> Path:
    try:
        _cache_dir.mkdir(exist_ok=True)
    except OSError:
        pass
    else:
        if os.access(_cache_dir, os.W_OK | os.X_OK):
            return _cache_dir
    return Path(tempfile.mkdtemp(prefix="vibrosync-kernel-"))


def _build(path: Path) -> None:
    """Compile the source into ``path``: build to a temporary name in the
    same directory and publish with ``os.replace``, so concurrent builds
    never expose a partly written library."""
    fd, c_file = tempfile.mkstemp(suffix=".c", prefix="phase_kernel-", dir=path.parent)
    so_file = c_file[:-2] + ".so"
    try:
        with os.fdopen(fd, "w") as f:
            f.write(_SOURCE)
        cmd = [_compiler, *_FLAGS, "-o", so_file, c_file, "-lm"]
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True)
        except OSError as exc:
            raise KernelBuildError(
                f"the phase-network kernel needs the C compiler {_compiler!r}: {exc}") from exc
        if proc.returncode != 0:
            raise KernelBuildError(
                f"building the phase-network kernel failed ({' '.join(cmd)}):\n{proc.stderr}")
        os.replace(so_file, path)
    finally:
        for leftover in (c_file, so_file):
            try:
                os.unlink(leftover)
            except FileNotFoundError:
                pass


def load():
    """The ``rk4_chunk`` C function, built and loaded on first use."""
    global _kernel
    with _lock:
        if _kernel is None:
            _kernel = _load_library()
    return _kernel


def _load_library():
    path = _cache_dir / _library_name()
    fn = None
    if path.is_file():
        try:
            fn = ctypes.CDLL(str(path)).rk4_chunk
        except OSError:  # a truncated or foreign file: build over it
            pass
    if fn is None:
        directory = _writable_dir()
        try:
            _build(directory / path.name)
            try:
                fn = ctypes.CDLL(str(directory / path.name)).rk4_chunk
            except OSError as exc:
                raise KernelBuildError(
                    f"the freshly built phase-network kernel does not load: {exc}") from exc
        finally:
            if directory != _cache_dir:  # a loaded library needs no file
                shutil.rmtree(directory, ignore_errors=True)
    doubles = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    ints = np.ctypeslib.ndpointer(np.intc, flags="C_CONTIGUOUS")
    fn.argtypes = [ctypes.c_int, ctypes.c_int, ctypes.c_int, ctypes.c_int, ints, ints,
                   ints, doubles, doubles, ctypes.c_int64, ctypes.c_int, ctypes.c_double,
                   ctypes.c_int64, doubles, doubles, ctypes.c_int64, doubles, ctypes.c_int]
    fn.restype = ctypes.c_int64
    return fn


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (it follows ``taskset`` and cpusets), else the count
    of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def thread_count(ns: int) -> int:
    """Threads a chunk of ``ns`` samples runs on."""
    return min(ns, _cpus(), max_threads)


_block_width = 4  # the W of the C source: samples one thread advances in lockstep


def _slice_len(n: int, npair: int) -> int:
    """Doubles of scratch one thread uses: ``(6 n + npair) W``, rounded up
    to whole 64-byte lines."""
    return -(-(6 * n + npair) * _block_width // 8) * 8


def alloc_scratch(ns: int, n: int, npair: int) -> np.ndarray:
    """Scratch memory for ``rk4_chunk`` on ``ns`` samples of ``n`` nodes and
    ``npair`` coupled pairs: one slice of ``_slice_len(n, npair)`` doubles
    for each thread a chunk can run on, starting on a 64-byte line, so no
    two threads write to one cache line."""
    size = min(ns, max_threads) * _slice_len(n, npair)
    buf = np.empty(size + 8)
    skip = -buf.ctypes.data % 64 // 8
    return buf[skip:skip + size]


def _within(index: np.ndarray, bound: int) -> bool:
    return not index.size or 0 <= index.min() <= index.max() < bound


def rk4_chunk(dst: np.ndarray, pair: np.ndarray, ends: np.ndarray, omega: np.ndarray,
              wt: np.ndarray, start: int, h: float, stride: int, th: np.ndarray,
              recs: np.ndarray, scratch: np.ndarray) -> int:
    """Advance ``th`` (ns, n) in place by ``len(wt) // 2`` RK4 steps from
    step ``start``, writing every ``stride``-th state into ``recs``
    (ns, n_rec, n) at index ``step // stride``; returns the record index
    after the chunk.  Edge ``e`` ends at node ``dst[e]`` and reads the sine
    ``sin(x_a - x_b)`` of its pair ``pair[e]``, whose ends ``(a, b)`` are a
    row of ``ends`` (npair, 2); ``wt`` holds the edge weights on the chunk's
    half-step grid, negated for an edge whose sine is ``sin(x_b - x_a)``.
    The samples are split into ``thread_count(ns)`` contiguous parts, one
    per thread, each with its own ``_slice_len(n, npair)`` doubles of
    ``scratch``; a thread advances its part in lockstep blocks of
    ``_block_width`` samples and the rest one at a time, and every sample
    runs the same arithmetic whatever the split or block."""
    ns, n = th.shape
    m, npair = len(dst), len(ends)
    k = (len(wt) - 1) // 2
    n_rec = recs.shape[1]
    threads = thread_count(ns)
    if (pair.shape != (m,) or ends.shape != (npair, 2) or omega.shape != (n,)
            or wt.shape != (2 * k + 1, m) or recs.shape != (ns, n_rec, n)
            or start < 0 or stride < 1 or (start + k) // stride >= n_rec
            or scratch.ndim != 1 or len(scratch) < threads * _slice_len(n, npair)
            or not (_within(dst, n) and _within(pair, npair) and _within(ends, n))):
        raise ValueError("inconsistent phase-kernel array shapes or indices")
    return load()(ns, n, m, npair, dst, pair, ends, omega, wt, start, k, h, stride,
                  th, recs, n_rec, scratch, threads)
