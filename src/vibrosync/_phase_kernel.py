"""Compiled RK4 for the phase network, compiled RK4 for linear flows and
the CSV number formatter, built with the C compiler ``cc`` into one library.

The C source below is compiled on first use into a shared library cached
in this package's ``__pycache__/`` (or, when that directory is not
writable, in a fresh private temporary directory) under a name carrying
the SHA-256 of the source, the flags and the platform, and loaded with
:mod:`ctypes`; a cached file that does not load is rebuilt once.
``-ffp-contract=off`` keeps the compiler from fusing multiply-adds, so the
results do not depend on whether the host has FMA.

An integration run is one kernel call (:func:`integrate`): its edge and
pair tables, natural frequencies, base edge weights and the amplitude,
frequency and phase of each vibrated edge are checked and handed to the C
side with the records, whose first row holds the initial states.  The
kernel evaluates each vibrated edge's carrier itself on the half-step grid,
``base + sin(h (g/2) freq + phase) amp`` at half-step g, in the operation
order of the numpy expression it replaced, and every other edge keeps its
base weight.  It checks the state for finiteness after every step and
returns the first step that is not finite.

The field takes one sine per coupled pair {s, t}, not one per directed
edge: the reciprocal edges (s, t) and (t, s) share sin(x_t - x_s) up to
its sign, which the caller folds into the edge weights.  Negation is exact
in IEEE arithmetic and the C library's ``sin`` is odd (glibc 2.36: no
mismatch in 5e7 random arguments), so the field matches one sine per edge
value for value; only the sign of an exact zero may differ.  A network
without reciprocal edges has one pair per edge.

A run splits its samples into contiguous parts across at most
``max_threads`` (2) POSIX threads, one part each, started once per run, and
never more threads than samples or than CPUs the process may run on.  A
thread advances its part in lockstep blocks of W = 4 samples, stored
node-major (node j of block sample s at ``j*W + s``), so each pair sine,
edge scatter and RK4 update loops over the block's samples and each edge
weight and index is loaded once per block; the samples left over, fewer
than W, run one at a time through the same inlined code at width 1.  Every
call site has a constant width, so neither path pays for run-time loop
bounds.  The kernel allocates the threads' scratch in one 64-byte-aligned
block and pads each thread's slice to whole 64-byte lines, so the threads
never write to a shared cache line.  A block stops at its first non-finite
step.  The samples are independent and each runs the same arithmetic in
the same order in any block and on any thread, so the results are
bit-identical to one sample on one thread.

The same library steps the linear flows dPsi/dt = P(t) Psi of
:mod:`vibrosync.linalg` (:class:`LinearFlow`).  A flow is bound once to
P's structural pattern, the row-major list of entries where P may be
nonzero (every entry for a dense P); the caller tabulates only those
entries on a chunk's half-step grid, and the kernel takes the chunk's RK4
steps one after the other on the calling thread, carrying Psi from chunk
to chunk.  It multiplies P by Psi and by each stage argument through the
pattern: for finite values a skipped product is an exact zero that leaves
its sum unchanged, so the result is the full product bit for bit, and a
multiplicand that is not all finite takes the full product, so that
0 inf stays NaN.  It writes Psi after every step to a stack.  For an average it also
solves M = Psi^-1 J Psi after every step, by Gaussian elimination with
partial pivoting on [Psi | J Psi] as LAPACK's ``gesv`` does, and adds the
two window-weighted sums of Psi and of M in step order.  So neither Psi
nor the sums depend on where the chunks end.

The same library takes the extreme singular values of such a Psi stack
(:func:`singular_extremes`), for the sampled conjugation growth of the
perturbation bounds.  Cyclic one-sided Jacobi (Hestenes 1958) rotates the
pairs of columns of a copy of each matrix, scaled by a power of two, to
orthogonality while their cosine exceeds n eps (Demmel and Veselic, SIAM
J. Matrix Anal. Appl. 13(4), 1992), and stops after a sweep that rotates
no pair; the singular values are then the column norms, with high
relative accuracy.  The call raises a running maximum of the largest
singular value and of the reciprocal of the smallest, which for a
singular matrix is 1/0 = inf; a stack that is not all finite is refused
before the maximum changes.  The results do not depend on where the
chunks end.

The same library writes CSV numbers (:func:`format_csv`) exactly as
Python's ``"%.10g" % v`` does.  A value with 1e-13 <= |v| < 1e10 takes the
exact path: its ten significant digits are the product of the 53-bit
significand and 10^j, 0 <= j <= 22, in 128-bit integers, rounded half-even
at the binary point, then laid out by the ``%g`` rules.  Every other value
(zeros, subnormals, large values, infinities) goes through the C library's
``snprintf("%.10g")``, except NaN, which is written ``nan`` whatever its
sign, as Python writes it (glibc writes ``-nan``).  A compiler without
128-bit integers (``__SIZEOF_INT128__``, missing on 32-bit targets) builds
the library without the exact path, and every value goes through
``snprintf``: the same bytes, about three times slower.  The formatter
switches its thread to the C locale for the call, so a comma-decimal
``LC_NUMERIC`` set by the program does not reach ``snprintf``.
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
from typing import Optional, Tuple

import numpy as np

_field_bytes = 24  # bytes one "%.10g" value and its separator fit in: FIELD

_SOURCE = r"""
#define _POSIX_C_SOURCE 200809L  /* newlocale and uselocale, also under -std=c99 */
#include <float.h>
#include <locale.h>
#include <math.h>
#include <pthread.h>
#include <stddef.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
""" + f"""
#define W 4  /* samples one thread advances in lockstep */
#define FIELD {_field_bytes}  /* bytes one "%.10g" value and its separator fit in */
""" + r"""

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

/* One integration run: n nodes, m edges in npair coupled pairs with base
   weights base, and nv vibrated edges vcol; steps RK4 steps of size h from
   the initial states recs[s, 0] of each sample s, the state after every
   stride-th step and after the last going to recs (ns, n_rec, n) at record
   index ceil(step / stride). */
struct run {
    int n, m, npair, nv;
    const int *dst, *pair, *ends, *vcol;
    const double *omega, *base, *amp, *freq, *phase;
    double h;
    int64_t steps, stride, n_rec;
    double *recs;
};

/* Doubles of scratch one thread uses: block state, stage vector, k1-k4 and
   pair sines, (6n + npair) W, then the current edge weights, m; rounded up
   to whole 64-byte lines. */
static int64_t slice_len(const struct run *r)
{
    return ((int64_t)(6 * r->n + r->npair) * W + r->m + 7) / 8 * 8;
}

/* The samples [s0, s1) of a run, the scratch of the thread that runs them,
   and the first step after which one of them is not finite, 0 for none. */
struct part {
    const struct run *r;
    int s0, s1;
    double *scratch;
    int64_t bad;
};

/* The first of two steps, where 0 stands for none. */
static int64_t first_step(int64_t a, int64_t b)
{
    return !a || (b && b < a) ? b : a;
}

/* The weights at half-step index g: each vibrated edge j gets its base
   weight plus amp_j sin(h (g / 2) freq_j + phase_j), in this operation
   order; every other edge keeps the base weight already in w. */
static inline __attribute__((always_inline)) void
set_weights(const struct run *r, int64_t g, double *w)
{
    double t = r->h * (0.5 * (double)g);
    for (int j = 0; j < r->nv; j++)
        w[r->vcol[j]] = r->base[r->vcol[j]] + sin(t * r->freq[j] + r->phase[j]) * r->amp[j];
}

/* All steps of the `width` samples from s0, in lockstep.  Returns 0, or the
   first step after which the block is not finite; the block stops there. */
static inline __attribute__((always_inline)) int64_t
advance(int width, const struct part *p, int s0)
{
    const struct run *r = p->r;
    int n = r->n, m = r->m, npair = r->npair, nv = r->nv, nw = r->n * width;
    const int *dst = r->dst, *pair = r->pair, *ends = r->ends;
    const double *omega = r->omega;
    double h = r->h;
    double *x = p->scratch, *y = x + nw, *k1 = y + nw, *k2 = k1 + nw, *k3 = k2 + nw;
    double *k4 = k3 + nw, *sp = k4 + nw, *w = sp + npair * width;
    memcpy(w, r->base, (size_t)m * sizeof(double));
    if (nv)
        set_weights(r, 0, w);
    for (int s = 0; s < width; s++)
        for (int j = 0; j < n; j++)
            x[j * width + s] = r->recs[(int64_t)(s0 + s) * r->n_rec * n + j];
    for (int64_t step = 1; step <= r->steps; step++) {
        field(width, n, m, npair, dst, pair, ends, omega, w, x, sp, k1);
        for (int j = 0; j < nw; j++)
            y[j] = x[j] + 0.5 * h * k1[j];
        if (nv)
            set_weights(r, 2 * step - 1, w);
        field(width, n, m, npair, dst, pair, ends, omega, w, y, sp, k2);
        for (int j = 0; j < nw; j++)
            y[j] = x[j] + 0.5 * h * k2[j];
        field(width, n, m, npair, dst, pair, ends, omega, w, y, sp, k3);
        for (int j = 0; j < nw; j++)
            y[j] = x[j] + h * k3[j];
        if (nv)
            set_weights(r, 2 * step, w);
        field(width, n, m, npair, dst, pair, ends, omega, w, y, sp, k4);
        for (int j = 0; j < nw; j++)
            x[j] = x[j] + h / 6.0 * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j]);
        for (int j = 0; j < nw; j++)
            if (!isfinite(x[j]))
                return step;
        if (step % r->stride == 0 || step == r->steps) {
            int64_t i = (step + r->stride - 1) / r->stride;
            for (int s = 0; s < width; s++) {
                double *rec = r->recs + ((int64_t)(s0 + s) * r->n_rec + i) * n;
                for (int j = 0; j < n; j++)
                    rec[j] = x[j * width + s];
            }
        }
    }
    return 0;
}

/* A part runs in blocks of W samples; the last samples, fewer than W, run
   one at a time. */
static void *run_part(void *arg)
{
    struct part *p = arg;
    int s = p->s0;
    for (; s + W <= p->s1; s += W)
        p->bad = first_step(p->bad, advance(W, p, s));
    for (; s < p->s1; s++)
        p->bad = first_step(p->bad, advance(1, p, s));
    return NULL;
}

/* Every RK4 step of one integration run (struct run).  The samples are
   split into nthreads contiguous parts, each with its own slice of scratch
   from one 64-byte-aligned allocation; the calling thread runs the first
   part and one POSIX thread each of the others, and a part whose thread
   does not start runs on the calling thread after its own.  Returns 0, the
   first step after which some sample is not finite, or -1 when the scratch
   cannot be allocated. */
int64_t integrate(int ns, int n, int m, int npair, int nv, const int *dst, const int *pair,
                  const int *ends, const double *omega, const double *base, const int *vcol,
                  const double *amp, const double *freq, const double *phase, double h,
                  int64_t steps, int64_t stride, double *recs, int64_t n_rec, int nthreads)
{
    if (nthreads < 1)  /* no samples */
        return 0;
    struct run r = {n, m, npair, nv, dst, pair, ends, vcol, omega, base, amp, freq, phase,
                    h, steps, stride, n_rec, recs};
    int64_t len = slice_len(&r);
    void *scratch;
    if (posix_memalign(&scratch, 64, (size_t)(nthreads * len) * sizeof(double)))
        return -1;
    struct part parts[nthreads];
    pthread_t tid[nthreads];
    int started[nthreads];
    for (int t = 0; t < nthreads; t++) {
        struct part p = {&r, (int)((int64_t)ns * t / nthreads),
                         (int)((int64_t)ns * (t + 1) / nthreads),
                         (double *)scratch + t * len, 0};
        parts[t] = p;
    }
    for (int t = 1; t < nthreads; t++)
        started[t] = pthread_create(&tid[t], NULL, run_part, &parts[t]) == 0;
    run_part(&parts[0]);
    int64_t bad = parts[0].bad;
    for (int t = 1; t < nthreads; t++) {
        if (started[t])
            pthread_join(tid[t], NULL);
        else
            run_part(&parts[t]);
        bad = first_step(bad, parts[t].bad);
    }
    free(scratch);
    return bad;
}

/* ---- linear flows --------------------------------------------------------- */

/* c = a b for row-major n x n matrices, each entry summed in index order */
static void matmul(int n, const double *restrict a, const double *restrict b,
                   double *restrict c)
{
    for (int i = 0; i < n; i++) {
        double *ci = c + i * n;
        for (int q = 0; q < n; q++)
            ci[q] = 0.0;
        for (int l = 0; l < n; l++) {
            double ail = a[i * n + l];
            const double *bl = b + l * n;
            for (int q = 0; q < n; q++)
                ci[q] += ail * bl[q];
        }
    }
}

/* b = a^-1 b for row-major n x n matrices by Gaussian elimination with
   partial pivoting, as LAPACK's gesv, overwriting a with its U factor.
   Returns 0, or 1 when a pivot is exactly zero (a is singular). */
static int lu_solve(int n, double *restrict a, double *restrict b)
{
    for (int c = 0; c < n; c++) {
        int r = c;
        for (int i = c + 1; i < n; i++)
            if (fabs(a[i * n + c]) > fabs(a[r * n + c]))
                r = i;
        if (a[r * n + c] == 0.0)
            return 1;
        if (r != c)
            for (int q = 0; q < n; q++) {
                double t = a[r * n + q];
                a[r * n + q] = a[c * n + q];
                a[c * n + q] = t;
                t = b[r * n + q];
                b[r * n + q] = b[c * n + q];
                b[c * n + q] = t;
            }
        for (int i = c + 1; i < n; i++) {
            double f = a[i * n + c] / a[c * n + c];
            for (int q = c + 1; q < n; q++)
                a[i * n + q] -= f * a[c * n + q];
            for (int q = 0; q < n; q++)
                b[i * n + q] -= f * b[c * n + q];
        }
    }
    for (int c = n - 1; c >= 0; c--)
        for (int q = 0; q < n; q++) {
            double s = b[c * n + q];
            for (int i = c + 1; i < n; i++)
                s -= a[c * n + i] * b[i * n + q];
            b[c * n + q] = s / a[c * n + c];
        }
    return 0;
}

/* c = P y for the row-major n x n y, P given by its nz values v at the
   row-major pattern pat of (row, col) pairs and zero elsewhere.  Each
   entry of c adds its products in column order, as matmul does, but only
   those of the pattern: for a finite y the others are exact zeros, which
   leave a sum that starts at +0 unchanged.  A y that is not all finite
   takes the full product instead, through full (n n doubles), so that
   0 inf still gives NaN. */
static void pattern_mul(int n, int nz, const int *restrict pat, const double *restrict v,
                        const double *restrict y, double *restrict full,
                        double *restrict c)
{
    int nn = n * n;
    for (int e = 0; e < nn; e++)
        if (!isfinite(y[e])) {
            memset(full, 0, (size_t)nn * sizeof(double));
            for (int p = 0; p < nz; p++)
                full[pat[2 * p] * n + pat[2 * p + 1]] = v[p];
            matmul(n, full, y, c);
            return;
        }
    memset(c, 0, (size_t)nn * sizeof(double));
    for (int p = 0; p < nz; p++) {
        double a = v[p];
        const double *yl = y + pat[2 * p + 1] * n;
        double *ci = c + pat[2 * p] * n;
        for (int q = 0; q < n; q++)
            ci[q] += a * yl[q];
    }
}

/* k RK4 steps of dPsi/dt = P(t) Psi for the row-major n x n Psi in psi,
   advanced in place; P has the nz entries of the row-major pattern pat
   ((row, col) pairs) and is zero elsewhere, and table holds those entries
   on the chunk's half-step grid, 2k+1 rows of nz.  Psi after step i goes
   to stack + i n n.  Unless j is NULL, M = Psi^-1 J Psi is formed after
   every step from J Psi by lu_solve, and with the step's row (w0, w1) of
   w (k rows of 2) the products w0 Psi, w1 Psi, w0 M, w1 M are added to the
   four n x n blocks of sums.  scratch holds 8 n n doubles.  Returns 0, or
   i + 1 when Psi after step i is singular; the sums then stop before that
   step. */
int64_t flow_chunk(int n, int nz, const int *pat, int64_t k, double h, const double *table,
                   double *psi, double *stack, const double *j, const double *w,
                   double *sums, double *scratch)
{
    int nn = n * n;
    double *k1 = scratch, *k2 = k1 + nn, *k3 = k2 + nn, *k4 = k3 + nn, *y = k4 + nn;
    double *lu = y + nn, *m = lu + nn, *full = m + nn;
    for (int64_t i = 0; i < k; i++) {
        const double *p0 = table + 2 * i * nz, *pm = p0 + nz, *p1 = pm + nz;
        pattern_mul(n, nz, pat, p0, psi, full, k1);
        for (int e = 0; e < nn; e++)
            y[e] = psi[e] + 0.5 * h * k1[e];
        pattern_mul(n, nz, pat, pm, y, full, k2);
        for (int e = 0; e < nn; e++)
            y[e] = psi[e] + 0.5 * h * k2[e];
        pattern_mul(n, nz, pat, pm, y, full, k3);
        for (int e = 0; e < nn; e++)
            y[e] = psi[e] + h * k3[e];
        pattern_mul(n, nz, pat, p1, y, full, k4);
        for (int e = 0; e < nn; e++)
            psi[e] = psi[e] + h / 6.0 * (k1[e] + 2.0 * k2[e] + 2.0 * k3[e] + k4[e]);
        memcpy(stack + i * nn, psi, (size_t)nn * sizeof(double));
        if (!j)
            continue;
        matmul(n, j, psi, m);
        memcpy(lu, psi, (size_t)nn * sizeof(double));
        if (lu_solve(n, lu, m))
            return i + 1;
        double w0 = w[2 * i], w1 = w[2 * i + 1];
        for (int e = 0; e < nn; e++) {
            sums[e] += w0 * psi[e];
            sums[nn + e] += w1 * psi[e];
            sums[2 * nn + e] += w0 * m[e];
            sums[3 * nn + e] += w1 * m[e];
        }
    }
    return 0;
}

/* ---- extreme singular values ---------------------------------------------- */

#define SWEEPS 60  /* Jacobi sweeps after which a matrix counts as not converging */

/* ext[0] = max(ext[0], s_max) and ext[1] = max(ext[1], 1 / s_min) over the
   k row-major n x n matrices of a, with s_max and s_min the largest and
   smallest singular values of each.  Cyclic one-sided Jacobi (Hestenes):
   the columns of a copy, scaled by the power of two that brings the
   largest entry into [1/2, 1) (exact, so the squared norms neither
   overflow nor underflow), are stored as the rows of g (n n doubles), and
   each pair (p, q) in turn is rotated to orthogonality while
   |g_p . g_q| > n eps |g_p| |g_q| (Demmel and Veselic 1992).  When a sweep
   rotates no pair, the singular values are the norms of the rows.  A
   singular matrix gives 1 / 0 = inf.  Returns 0, or 1, with ext
   unchanged, when a matrix is not all finite or not orthogonalized after
   SWEEPS sweeps. */
int sv_extremes(int n, int64_t k, const double *a, double *ext, double *g)
{
    int nn = n * n;
    double tol = n * DBL_EPSILON, top = ext[0], inv = ext[1];
    for (int64_t m = 0; m < k; m++) {
        const double *am = a + m * nn;
        double amax = 0.0;
        for (int e = 0; e < nn; e++) {
            if (!isfinite(am[e]))
                return 1;
            amax = fmax(amax, fabs(am[e]));
        }
        int ex;
        frexp(amax, &ex);
        if (ex < -1021)  /* 2^-ex stays finite */
            ex = -1021;
        double scale = ldexp(1.0, -ex);
        for (int i = 0; i < n; i++)
            for (int r = 0; r < n; r++)
                g[i * n + r] = am[r * n + i] * scale;
        for (int sweep = 0;; sweep++) {
            if (sweep == SWEEPS)
                return 1;
            int rotated = 0;
            for (int p = 0; p < n - 1; p++)
                for (int q = p + 1; q < n; q++) {
                    double *gp = g + p * n, *gq = g + q * n;
                    double alpha = 0.0, beta = 0.0, gamma = 0.0;
                    for (int r = 0; r < n; r++) {
                        alpha += gp[r] * gp[r];
                        beta += gq[r] * gq[r];
                        gamma += gp[r] * gq[r];
                    }
                    if (!(fabs(gamma) > tol * sqrt(alpha) * sqrt(beta)))
                        continue;
                    rotated = 1;
                    /* t = tan of the angle that zeroes the pair's dot product,
                       the smaller root of t^2 + 2 zeta t - 1 */
                    double zeta = (beta - alpha) / (2.0 * gamma), az = fabs(zeta);
                    double t = 1.0 / (az + (az < 1e150 ? sqrt(1.0 + az * az) : az));
                    if (zeta < 0.0)
                        t = -t;
                    double c = 1.0 / sqrt(1.0 + t * t), s = c * t;
                    for (int r = 0; r < n; r++) {
                        double x = gp[r], y = gq[r];
                        gp[r] = c * x - s * y;
                        gq[r] = s * x + c * y;
                    }
                }
            if (!rotated)
                break;
        }
        double hi = 0.0, lo = INFINITY;
        for (int i = 0; i < n; i++) {
            double ss = 0.0;
            for (int r = 0; r < n; r++)
                ss += g[i * n + r] * g[i * n + r];
            hi = fmax(hi, ss);
            lo = fmin(lo, ss);
        }
        top = fmax(top, ldexp(sqrt(hi), ex));
        inv = fmax(inv, 1.0 / ldexp(sqrt(lo), ex));
    }
    ext[0] = top;
    ext[1] = inv;
    return 0;
}

/* ---- CSV numbers ---------------------------------------------------------- */

#ifdef __SIZEOF_INT128__  /* the exact path needs 128-bit integers */
typedef unsigned __int128 u128;

/* 10^j for j in [0, 22]; 10^22 < 2^74 */
static const u128 P10[23] = {
    1u, 10u, 100u, 1000u, 10000u, 100000u, 1000000u, 10000000u, 100000000u,
    1000000000u, 10000000000u, 100000000000u, 1000000000000u, 10000000000000u,
    100000000000000u, 1000000000000000u, 10000000000000000u, 100000000000000000u,
    1000000000000000000u, 10000000000000000000u, (u128)10000000000000000000u * 10,
    (u128)10000000000000000000u * 100, (u128)10000000000000000000u * 1000};

/* x, 1e-13 <= |x| < 1e10, as "%.10g" writes it into s; returns the length.
   x = f / 2^sh with f the 53-bit significand and 19 <= sh <= 97, and the
   ten significant digits of x 10^-k are the exact f 10^j / 2^sh, j = 9 - k,
   rounded half-even; f 10^j < 2^127 for j <= 22.  The decimal exponent k
   starts at floor(log10 |x|) and moves by one while the mantissa falls
   outside [10^9, 10^10), always within [-13, 9], which the range allows. */
static int fmt_exact(double x, char *s)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    uint64_t f = (bits & ((UINT64_C(1) << 52) - 1)) | UINT64_C(1) << 52;
    int sh = 1075 - (int)(bits >> 52 & 0x7ff);
    u128 half = (u128)1 << (sh - 1);
    int k = (int)floor(log10(fabs(x)));
    k = k < -13 ? -13 : k > 9 ? 9 : k;
    u128 q;
    for (;;) {  /* move k until the mantissa has ten digits */
        u128 p = (u128)f * P10[9 - k];
        u128 rem = p & ((half << 1) - 1);
        q = p >> sh;
        if (rem > half || (rem == half && (q & 1)))
            q++;
        if (q < 1000000000u && k > -13)
            k--;
        else if (q > 10000000000u && k < 9)
            k++;
        else
            break;
    }
    if (q == 10000000000u) {  /* rounded up a decade */
        q = 1000000000u;
        k++;
    }
    char d[10];
    uint64_t m = (uint64_t)q;
    for (int i = 9; i >= 0; i--, m /= 10)
        d[i] = (char)('0' + m % 10);
    int nd = 10;  /* digits up to the last nonzero one */
    while (nd > 1 && d[nd - 1] == '0')
        nd--;
    char *o = s;
    if (x < 0)
        *o++ = '-';
    if (k >= 10 || k < -4) {  /* d.ddde+XX */
        *o++ = d[0];
        if (nd > 1) {
            *o++ = '.';
            memcpy(o, d + 1, nd - 1);
            o += nd - 1;
        }
        int e = k < 0 ? -k : k;  /* 5 .. 13 */
        *o++ = 'e';
        *o++ = k < 0 ? '-' : '+';
        *o++ = (char)('0' + e / 10);
        *o++ = (char)('0' + e % 10);
    } else if (k >= 0) {  /* ddd.ddd */
        memcpy(o, d, k + 1);
        o += k + 1;
        if (nd > k + 1) {
            *o++ = '.';
            memcpy(o, d + k + 1, nd - k - 1);
            o += nd - k - 1;
        }
    } else {  /* 0.000ddd */
        *o++ = '0';
        *o++ = '.';
        for (int i = 1; i < -k; i++)
            *o++ = '0';
        memcpy(o, d, nd);
        o += nd;
    }
    return (int)(o - s);
}
#endif

/* x as Python's "%.10g" % x writes it into s; returns the length.  Values
   with 1e-13 <= |x| < 1e10 take the exact path where the compiler has
   128-bit integers; every other value goes through snprintf, except NaN,
   which Python writes as "nan" whatever its sign. */
static int fmt_g10(double x, char *s)
{
#ifdef __SIZEOF_INT128__
    double a = fabs(x);
    if (a >= 1e-13 && a < 1e10)
        return fmt_exact(x, s);
#endif
    if (isnan(x)) {
        memcpy(s, "nan", 3);
        return 3;
    }
    return snprintf(s, FIELD, "%.10g", x);
}

/* The CSV body of the C-ordered (rows, cols) array a, cols >= 1: each value
   as "%.10g", comma-separated, one newline-terminated line per row, into
   out (rows cols FIELD bytes); and, copied from the same fields, the body
   of the first and last columns into outer (rows 2 FIELD bytes).  The bytes
   written go to len[0] and len[1].  The numbers are written in the C locale,
   as Python writes them, whatever the process's LC_NUMERIC: this thread
   switches to it for the call.  Returns 0, or -1 when the C locale cannot
   be had. */
int format_csv(const double *a, int64_t rows, int64_t cols, char *out, char *outer,
               int64_t *len)
{
    locale_t c = newlocale(LC_NUMERIC_MASK, "C", (locale_t)0);
    if (c == (locale_t)0)
        return -1;
    locale_t prev = uselocale(c);
    char *o = out, *t = outer;
    for (int64_t i = 0; i < rows; i++)
        for (int64_t j = 0; j < cols; j++) {
            int n = fmt_g10(a[i * cols + j], o);
            if (j == 0) {
                memcpy(t, o, n);
                t += n;
                *t++ = ',';
            }
            if (j == cols - 1) {
                memcpy(t, o, n);
                t += n;
                *t++ = '\n';
            }
            o += n;
            *o++ = j == cols - 1 ? '\n' : ',';
        }
    len[0] = o - out;
    len[1] = t - outer;
    uselocale(prev);
    freelocale(c);
    return 0;
}
"""

_FLAGS = ("-O2", "-shared", "-fPIC", "-pthread", "-ffp-contract=off")
_compiler = "cc"
max_threads = 2  # the most threads one run runs on
_cache_dir = Path(__file__).resolve().parent / "__pycache__"
_kernel = None  # the loaded ctypes library, once built
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
                f"the vibrosync kernel needs the C compiler {_compiler!r}: {exc}") from exc
        if proc.returncode != 0:
            raise KernelBuildError(
                f"building the vibrosync kernel failed ({' '.join(cmd)}):\n{proc.stderr}")
        os.replace(so_file, path)
    finally:
        for leftover in (c_file, so_file):
            try:
                os.unlink(leftover)
            except FileNotFoundError:
                pass


def load():
    """The kernel library, built and loaded on first use."""
    global _kernel
    with _lock:
        if _kernel is None:
            _kernel = _load_library()
    return _kernel


def _load_library():
    path = _cache_dir / _library_name()
    lib = None
    if path.is_file():
        try:
            lib = ctypes.CDLL(str(path))
        except OSError:  # a truncated or foreign file: build over it
            pass
    if lib is None:
        directory = _writable_dir()
        try:
            _build(directory / path.name)
            try:
                lib = ctypes.CDLL(str(directory / path.name))
            except OSError as exc:
                raise KernelBuildError(
                    f"the freshly built vibrosync kernel does not load: {exc}") from exc
        finally:
            if directory != _cache_dir:  # a loaded library needs no file
                shutil.rmtree(directory, ignore_errors=True)
    ints = np.ctypeslib.ndpointer(np.intc, flags="C_CONTIGUOUS")
    doubles = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    out = np.ctypeslib.ndpointer(np.float64, flags=("C_CONTIGUOUS", "WRITEABLE"))
    lib.integrate.argtypes = [*[ctypes.c_int] * 5, ints, ints, ints, doubles, doubles, ints,
                              doubles, doubles, doubles, ctypes.c_double, ctypes.c_int64,
                              ctypes.c_int64, out, ctypes.c_int64, ctypes.c_int]
    lib.integrate.restype = ctypes.c_int64
    lib.flow_chunk.argtypes = [ctypes.c_int, ctypes.c_int, ctypes.c_void_p, ctypes.c_int64,
                               ctypes.c_double, *[ctypes.c_void_p] * 7]
    lib.flow_chunk.restype = ctypes.c_int64
    lib.sv_extremes.argtypes = [ctypes.c_int, ctypes.c_int64, doubles,
                                np.ctypeslib.ndpointer(np.float64, shape=(2,),
                                                       flags=("C_CONTIGUOUS", "WRITEABLE")),
                                out]
    lib.sv_extremes.restype = ctypes.c_int
    chars = np.ctypeslib.ndpointer(np.uint8, flags=("C_CONTIGUOUS", "WRITEABLE"))
    lens = np.ctypeslib.ndpointer(np.int64, shape=(2,), flags=("C_CONTIGUOUS", "WRITEABLE"))
    lib.format_csv.argtypes = [doubles, ctypes.c_int64, ctypes.c_int64, chars, chars, lens]
    lib.format_csv.restype = ctypes.c_int
    return lib


def format_csv(a: np.ndarray) -> Tuple[str, str]:
    """The CSV body of the (rows, cols) array ``a``, cols >= 1, and the body
    of its first and last columns: every value as Python's ``"%.10g" % v``
    writes it, comma-separated, one newline-terminated line per row."""
    a = np.ascontiguousarray(a, dtype=np.float64)
    if a.ndim != 2 or a.shape[1] < 1:
        raise ValueError("format_csv takes a (rows, cols) array with cols >= 1")
    rows, cols = a.shape
    out = np.empty(rows * cols * _field_bytes, np.uint8)
    outer = np.empty(rows * 2 * _field_bytes, np.uint8)
    lens = np.zeros(2, np.int64)
    if load().format_csv(a, rows, cols, out, outer, lens):
        raise MemoryError("format_csv cannot switch to the C locale")
    return str(out[:lens[0]].data, "ascii"), str(outer[:lens[1]].data, "ascii")


def singular_extremes(stack: np.ndarray, ext: np.ndarray) -> None:
    """Raise ``ext`` (2,) in place to the running maxima of the largest
    singular value and of the reciprocal of the smallest singular value of
    the C-ordered float64 (k, n, n) ``stack``, n >= 1, by one-sided Jacobi
    in the kernel; a singular matrix gives ``inf``.  A stack that is not all
    finite raises ``numpy.linalg.LinAlgError`` and leaves ``ext`` unchanged;
    so does a matrix Jacobi does not orthogonalize within its sweep limit.
    A wrong dtype, order or ``ext`` shape raises ``ctypes.ArgumentError``."""
    if stack.ndim != 3 or stack.shape[1] != stack.shape[2] or stack.shape[1] < 1:
        raise ValueError("singular_extremes takes a (k, n, n) stack with n >= 1")
    k, n, _ = stack.shape
    if load().sv_extremes(n, k, stack, ext, np.empty(n * n)):
        raise np.linalg.LinAlgError("SVD did not converge")


def flow_scratch_len(n: int) -> int:
    """Doubles of scratch a :class:`LinearFlow` of n x n matrices uses: the
    four RK4 stages, the stage argument, the LU factor, M and the expanded
    P of a non-finite product, ``8 n n``."""
    return 8 * n * n


def _address(a: np.ndarray, shape: Tuple[int, ...]) -> int:
    """The address of ``a``, which must be a writeable C-ordered float64
    array of shape ``shape`` (ValueError otherwise)."""
    if not (isinstance(a, np.ndarray) and a.dtype == np.float64 and a.shape == shape
            and a.flags.c_contiguous and a.flags.writeable):
        raise ValueError(f"a linear flow needs a writeable C-ordered float64 array of "
                         f"shape {shape}")
    return a.ctypes.data


def _check_pattern(pattern: np.ndarray, n: int) -> np.ndarray:
    """A copy of ``pattern``, which must be an (nz, 2) ``intc`` array of
    (row, col) entries of an n x n matrix in strictly increasing row-major
    order (ValueError otherwise)."""
    if not (isinstance(pattern, np.ndarray) and pattern.dtype == np.intc
            and pattern.ndim == 2 and pattern.shape[1] == 2):
        raise ValueError("a linear-flow pattern is an (nz, 2) intc array of (row, col)")
    flat = pattern[:, 0].astype(np.int64) * n + pattern[:, 1]
    if (pattern < 0).any() or (pattern >= n).any() or (np.diff(flat) <= 0).any():
        raise ValueError("a linear-flow pattern needs distinct in-range entries in "
                         "row-major order")
    return np.array(pattern, order="C")


class LinearFlow:
    """RK4 for dPsi/dt = P(t) Psi with step ``h``, bound to the kernel once:
    ``psi`` (n, n) is advanced in place chunk by chunk (:meth:`chunk`), one
    step after the other, on one thread.

    ``pattern`` (nz, 2), ``intc``, lists the (row, col) entries where P may
    be nonzero, in row-major order; P is zero elsewhere, and a chunk's table
    holds only those entries.  The kernel multiplies P by Psi and by each
    stage argument through the pattern, which for finite values gives the
    full product bit for bit; a multiplicand that is not all finite takes
    the full product, so 0 inf stays NaN.  A dense P is the full pattern.

    A chunk of k <= kmax steps writes Psi after its i-th step to
    ``stack[i]`` of ``stack`` (kmax, n, n).  Unless ``j`` (n, n) is None,
    ``weights`` (steps, 2) holds two window weights for each step of the
    whole flow, and after each step M = Psi^-1 J Psi is solved by LU with
    partial pivoting in the kernel and ``sums`` (2, 2, n, n) gains
    ``w0 Psi, w1 Psi`` in ``sums[0]`` and ``w0 M, w1 M`` in ``sums[1]``; a
    singular Psi raises ``numpy.linalg.LinAlgError``.  Each sum is added to
    in step order, so it does not depend on how the steps are chunked.

    Every array is checked here, once: float64, C order, shape, writeable,
    the pattern's type, range and order, and the ``flow_scratch_len(n)``
    doubles of ``scratch`` (ValueError).  ``pattern``, ``j`` and ``weights``
    are copied; ``psi``, ``stack``, ``sums`` and ``scratch`` are written in
    place and kept alive with the flow."""

    def __init__(self, h: float, psi: np.ndarray, stack: np.ndarray, scratch: np.ndarray,
                 pattern: np.ndarray, j: Optional[np.ndarray] = None,
                 weights: Optional[np.ndarray] = None, sums: Optional[np.ndarray] = None):
        n = psi.shape[0] if psi.ndim == 2 else 0
        self._psi = _address(psi, (n, n))
        self._kmax = len(stack) if stack.ndim else 0
        self._stack = _address(stack, (self._kmax, n, n))
        if scratch.ndim != 1 or len(scratch) < flow_scratch_len(n):
            raise ValueError("linear-flow scratch too short")
        self._scratch = _address(scratch, scratch.shape)
        pattern = _check_pattern(pattern, n)
        self._steps, self._j, self._w, self._sums = 0, None, None, None
        if j is not None:
            j, weights = (np.array(a, dtype=np.float64, order="C") for a in (j, weights))
            self._steps = len(weights)
            self._j = _address(j, (n, n))
            self._w = _address(weights, (self._steps, 2))
            self._sums = _address(sums, (2, 2, n, n))
        self._call = load().flow_chunk
        self._n, self._nz, self._h = n, len(pattern), h
        self._pattern = pattern.ctypes.data
        # the flow passes their addresses on every chunk
        self._arrays = (psi, stack, pattern, j, weights, sums, scratch)

    def chunk(self, start: int, k: int, table: np.ndarray) -> None:
        """RK4 steps ``start + 1 .. start + k``; ``table`` (2k + 1, nz)
        holds P's pattern entries on the chunk's half-step grid."""
        n, nz = self._n, self._nz
        if not (table.shape == (2 * k + 1, nz) and table.dtype == np.float64
                and table.flags.c_contiguous) or start < 0 or k < 0:
            raise ValueError("inconsistent linear-flow chunk: table shape, start or k")
        if k > self._kmax or (self._j is not None and start + k > self._steps):
            raise ValueError("linear-flow chunk past its stack or weights")
        w = None if self._w is None else self._w + 16 * start  # two doubles a step
        if self._call(n, nz, self._pattern, k, self._h, table.ctypes.data, self._psi,
                      self._stack, self._j, w, self._sums, self._scratch):
            raise np.linalg.LinAlgError("Singular matrix")


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the
    platform has one (it follows ``taskset`` and cpusets), else the count
    of the machine."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def thread_count(ns: int) -> int:
    """Threads a run of ``ns`` samples runs on."""
    return min(ns, _cpus(), max_threads)


def _within(index: np.ndarray, bound: int) -> bool:
    return not index.size or 0 <= index.min() <= index.max() < bound


def integrate(dst: np.ndarray, pair: np.ndarray, ends: np.ndarray, omega: np.ndarray,
              base: np.ndarray, vcol: np.ndarray, amp: np.ndarray, freq: np.ndarray,
              phase: np.ndarray, h: float, steps: int, stride: int, recs: np.ndarray) -> int:
    """RK4 steps ``1 .. steps`` of size ``h`` of the samples whose initial
    states are ``recs[:, 0]``, in one kernel call; the state after every
    ``stride``-th step and after the last goes into ``recs``
    (ns, ceil(steps / stride) + 1, n) at index ``ceil(step / stride)``.
    Returns 0, or the first step after which some sample is not finite;
    records from that step on may be left unwritten.

    Edge ``e`` ends at node ``dst[e]`` and reads the sine ``sin(x_a - x_b)``
    of its pair ``pair[e]``, whose ends ``(a, b)`` are a row of ``ends``
    (npair, 2); its weight is ``base[e]``, negated by the caller for an edge
    whose sine is ``sin(x_b - x_a)``.  The edges ``vcol`` (distinct) are
    vibrated: at half-step ``g`` edge ``vcol[j]`` weighs
    ``base + sin(h * (0.5 * g) * freq[j] + phase[j]) * amp[j]``, evaluated
    in that order.  The samples are split into ``thread_count(ns)``
    contiguous parts, one per thread.

    Every array is checked before the call: dtype and C order (through
    ctypes, which raises ``ctypes.ArgumentError``), shapes and index ranges
    (``ValueError``).  The network arrays are copied, so the kernel never
    reads an index the check did not see.  A failed allocation of the
    threads' scratch raises ``MemoryError``."""
    dst, pair, ends, omega, base, vcol, amp, freq, phase = (
        np.array(a, order="C") for a in (dst, pair, ends, omega, base, vcol, amp, freq, phase))
    if recs.ndim != 3:
        raise ValueError("inconsistent phase-kernel array shapes or indices")
    ns, n_rec, n = recs.shape
    m, npair, nv = len(dst), len(ends), len(vcol)
    if (dst.shape != (m,) or pair.shape != (m,) or ends.shape != (npair, 2)
            or omega.shape != (n,) or base.shape != (m,) or vcol.shape != (nv,)
            or {amp.shape, freq.shape, phase.shape} != {(nv,)}
            or steps < 0 or stride < 1 or n_rec != -(-steps // stride) + 1
            or not (_within(dst, n) and _within(pair, npair) and _within(ends, n)
                    and _within(vcol, m)) or len(set(vcol.tolist())) != nv):
        raise ValueError("inconsistent phase-kernel array shapes or indices")
    bad = load().integrate(ns, n, m, npair, nv, dst, pair, ends, omega, base, vcol, amp, freq,
                           phase, h, steps, stride, recs, n_rec, thread_count(ns))
    if bad < 0:
        raise MemoryError("the phase kernel cannot allocate its scratch")
    return bad
