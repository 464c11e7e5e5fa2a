"""Compiled RK4 for the phase network, compiled RK4 for linear flows and
the CSV number formatter, built with the C compiler ``cc`` into one library.

The C source below is compiled on first use into a shared library cached
in this package's ``__pycache__/`` (or, when that directory is not
writable, in a fresh private temporary directory) under a name carrying
the SHA-256 of the source, the flags and the platform, and loaded with
:mod:`ctypes`; a cached file that does not load is rebuilt once.  A build
into the package's cache removes the libraries of every other source,
flags and platform from it.
``-ffp-contract=off`` keeps the compiler from fusing multiply-adds, so the
results do not depend on whether the host has FMA.

An integration run is one kernel call (:func:`integrate`): its edge and
pair tables, natural frequencies, base edge weights and the amplitude,
frequency and phase of each vibrated edge are checked and handed to the C
side with the records, whose first row holds the initial states.  At
half-step g a vibrated edge weighs ``base + sin(h (g/2) freq + phase) amp``,
in the operation order of the numpy expression the kernel replaced, and
every other edge keeps its base weight.  Vibrated edges whose frequency and phase have
the same bits share one carrier (a designed slot's two edges do: the
flagship's 4 vibrated edges carry 2), and the kernel evaluates each carrier
once per half-step on each thread, in a table of its sines that the thread
fills for K = 512 steps at a time, 2K + 1 half-steps, so the table's size is
bounded by K and not by the run's length.  The kernel checks the state for
finiteness after every step and returns the first step that is not finite.

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
bounds.  The thread runs its part a chunk of K steps at a time: it fills
the chunk's carrier table, then takes every block and every sample left
over through the chunk, each reading the table; their states stay in the
thread's scratch between chunks.  The kernel allocates the threads'
scratch in one 64-byte-aligned block and pads each thread's slice to whole
64-byte lines, so the threads never write to a shared cache line.  A block
stops at its first non-finite step; its state stays non-finite, so in each
later chunk it stops again after one step, writing no record.  The samples
are independent and each runs the same arithmetic in the same order in any
block, chunk and thread, so the results are bit-identical to one sample on
one thread.

The same library steps the linear flows dPsi/dt = P(t) Psi of
:mod:`vibrosync.linalg`, one kernel call per pass (:func:`linear_flow`).
A flow is bound to P's structural pattern, the row-major list of entries
where P may be nonzero (every entry for a dense P), and the kernel takes
the pass's RK4 steps one after the other on the calling thread.  P is a
sum of sinusoids, whose carriers the kernel evaluates itself on the
half-step grid, two new rows of pattern entries per step, in the operation
order of ``linalg.SinusoidSum``'s numpy call (``amp * sin(t * freq +
phase)`` per term, the terms summed in order): the same values bit for bit
where numpy's float64 ``sin`` is the C library's (numpy 2.4 on glibc 2.36:
no mismatch in 2e5 arguments up to 1e4).  It multiplies P by Psi and by
each stage argument through the pattern: for finite values a skipped
product is an exact zero that leaves its sum unchanged, so the result is
the full product bit for bit, and a multiplicand that is not all finite
takes the full product, so that 0 inf stays NaN.  For an average it also
solves M = Psi^-1 J Psi after every step, by Gaussian elimination with
partial pivoting on [Psi | J Psi] as LAPACK's ``gesv`` does, and adds the
two window-weighted sums of Psi and of M in step order.  For the sampled conjugation growth of the
perturbation bounds it also steps the inverse flow dPsi^-1/dt = -Psi^-1 P
over a flow's first g steps, with the same rows of P and the same RK4: it
carries the transpose, which it multiplies by P^T through the swapped
pattern, so each entry sums in the order of the product Psi^-1 P.  It
raises a running maximum of the Frobenius norms of Psi and of Psi^-1, each
an upper bound on the spectral norm, with no Psi stored.  The sum of
squares is taken after a power-of-two scaling of the largest entry, so a
finite Psi reads a finite norm up to the float range.  A Psi or Psi^-1
that is not all finite leaves its maximum unchanged, which ends its
sampling without an error of its own.

The same library writes CSV numbers (:func:`format_csv`) exactly as Python's
``"%.10g" % v`` does.  A value with 1e-13 <= |v| < 1e10 takes the exact path:
its ten significant digits are the product of the 53-bit significand and 10^j,
0 <= j <= 22, in 128-bit integers, rounded half-even at the binary point, then
laid out by the ``%g`` rules, with the decimal exponent taken from the binary
one by a multiply and shift.  Every other value (zeros, subnormals, large
values, infinities) goes through the C library's ``snprintf("%.10g")``, except
NaN, which is written ``nan`` whatever its sign, as Python writes it (glibc
writes ``-nan``).  A compiler without 128-bit integers (``__SIZEOF_INT128__``,
missing on 32-bit targets) builds the library without the exact path, and
every value goes through ``snprintf``: the same bytes, about three times
slower.  The formatter switches its thread to the C locale for the call, so a
comma-decimal ``LC_NUMERIC`` set by the program does not reach ``snprintf``.
"""

from __future__ import annotations

import ctypes
import os
import platform
import re
import sys
import tempfile
import threading
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

_field_bytes = 24  # bytes one "%.10g" value and its separator fit in: FIELD

_SOURCE = r"""
#define _POSIX_C_SOURCE 200809L  /* newlocale and uselocale, also under -std=c99 */
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
#define K 512  /* steps of one carrier table */
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
   weights base, and nv vibrated edges vcol, whose carriers are nc distinct
   (freq, phase) pairs; steps RK4 steps of size h from the initial states
   recs[s, 0] of each sample s, the state after every stride-th step and
   after the last going to recs (ns, n_rec, n) at record index
   ceil(step / stride).  Vibrated edge j reads carrier car[j], numbered in
   order of first appearance, so carrier c is first read by the first j
   with car[j] == c. */
struct run {
    int n, m, npair, nv, nc;
    const int *dst, *pair, *ends, *vcol, *car;
    const double *omega, *base, *amp, *freq, *phase;
    double h;
    int64_t steps, stride, n_rec;
    double *recs;
};

/* Doubles of scratch one thread uses for a part of at most `most` samples:
   the current edge weights, m; the carrier table, (2K + 1) nc; a block's
   stage vector, k1-k4 and pair sines, (5n + npair) W; and the states of the
   part's samples, n most; rounded up to whole 64-byte lines. */
static int64_t slice_len(const struct run *r, int most)
{
    return (r->m + (int64_t)(2 * K + 1) * r->nc + (int64_t)(5 * r->n + r->npair) * W
            + (int64_t)r->n * most + 7) / 8 * 8;
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

/* Rows 0 .. 2k of the carrier table from half-step g0: row i holds, for
   g = g0 + i, each carrier's sin(h (g / 2) freq + phase), in this
   operation order. */
static void fill_carriers(const struct run *r, int64_t g0, int64_t k, double *tab)
{
    for (int64_t i = 0; i <= 2 * k; i++) {
        double t = r->h * (0.5 * (double)(g0 + i));
        for (int j = 0, c = 0; j < r->nv; j++)
            if (r->car[j] == c)
                tab[i * r->nc + c++] = sin(t * r->freq[j] + r->phase[j]);
    }
}

/* The weights at a row of the carrier table: each vibrated edge j gets its
   base weight plus its carrier's sine times amp_j, in this operation order;
   every other edge keeps the base weight already in w. */
static inline __attribute__((always_inline)) void
set_weights(const struct run *r, const double *row, double *w)
{
    for (int j = 0; j < r->nv; j++)
        w[r->vcol[j]] = r->base[r->vcol[j]] + row[r->car[j]] * r->amp[j];
}

/* Steps c0 + 1 .. c0 + k of the `width` samples from s0, in lockstep, with
   the chunk's carrier table in the thread's scratch; the block's state stays in the part's states between chunks, and the first
   chunk, c0 = 0, loads it from recs.  Returns 0, or the first step after
   which the block is not finite; the block stops there.  A stopped block
   keeps its non-finite state, which x + (anything) leaves non-finite, so
   in every later chunk it stops again after the first step, writing no
   record. */
static inline __attribute__((always_inline)) int64_t
advance(int width, const struct part *p, int s0, int64_t c0, int64_t k)
{
    const struct run *r = p->r;
    int n = r->n, m = r->m, npair = r->npair, nv = r->nv, nc = r->nc, nw = r->n * width;
    const int *dst = r->dst, *pair = r->pair, *ends = r->ends;
    const double *omega = r->omega;
    double h = r->h;
    double *w = p->scratch, *tab = w + m, *y = tab + (2 * K + 1) * nc, *k1 = y + n * W;
    double *k2 = k1 + n * W, *k3 = k2 + n * W, *k4 = k3 + n * W, *sp = k4 + n * W;
    double *x = sp + npair * W + (int64_t)(s0 - p->s0) * n;
    if (!c0)
        for (int s = 0; s < width; s++)
            for (int j = 0; j < n; j++)
                x[j * width + s] = r->recs[(int64_t)(s0 + s) * r->n_rec * n + j];
    if (nv)
        set_weights(r, tab, w);
    for (int64_t i = 1; i <= k; i++) {
        int64_t step = c0 + i;
        field(width, n, m, npair, dst, pair, ends, omega, w, x, sp, k1);
        for (int j = 0; j < nw; j++)
            y[j] = x[j] + 0.5 * h * k1[j];
        if (nv)
            set_weights(r, tab + (2 * i - 1) * nc, w);
        field(width, n, m, npair, dst, pair, ends, omega, w, y, sp, k2);
        for (int j = 0; j < nw; j++)
            y[j] = x[j] + 0.5 * h * k2[j];
        field(width, n, m, npair, dst, pair, ends, omega, w, y, sp, k3);
        for (int j = 0; j < nw; j++)
            y[j] = x[j] + h * k3[j];
        if (nv)
            set_weights(r, tab + 2 * i * nc, w);
        field(width, n, m, npair, dst, pair, ends, omega, w, y, sp, k4);
        for (int j = 0; j < nw; j++)
            x[j] = x[j] + h / 6.0 * (k1[j] + 2.0 * k2[j] + 2.0 * k3[j] + k4[j]);
        for (int j = 0; j < nw; j++)
            if (!isfinite(x[j]))
                return step;
        if (step % r->stride == 0 || step == r->steps) {
            int64_t at = (step + r->stride - 1) / r->stride;
            for (int s = 0; s < width; s++) {
                double *rec = r->recs + ((int64_t)(s0 + s) * r->n_rec + at) * n;
                for (int j = 0; j < n; j++)
                    rec[j] = x[j * width + s];
            }
        }
    }
    return 0;
}

/* A part starts from the base weights and runs in chunks of K steps: the
   thread fills the chunk's carrier table, then takes each of its blocks of
   W samples, and one at a time the last samples, fewer than W, through the
   chunk. */
static void *run_part(void *arg)
{
    struct part *p = arg;
    const struct run *r = p->r;
    memcpy(p->scratch, r->base, (size_t)r->m * sizeof(double));
    for (int64_t c0 = 0; c0 < r->steps; c0 += K) {
        int64_t k = r->steps - c0 < K ? r->steps - c0 : K;
        fill_carriers(r, 2 * c0, k, p->scratch + r->m);
        int s = p->s0;
        for (; s + W <= p->s1; s += W)
            p->bad = first_step(p->bad, advance(W, p, s, c0, k));
        for (; s < p->s1; s++)
            p->bad = first_step(p->bad, advance(1, p, s, c0, k));
    }
    return NULL;
}

/* Every RK4 step of one integration run (struct run).  The vibrated edges'
   carriers are numbered first: edges whose (freq, phase) have the same bits
   share one, so equal carriers give equal sines.  The samples are split
   into nthreads contiguous parts, each with its own slice of scratch from
   one 64-byte-aligned allocation; the calling thread runs the first part
   and one POSIX thread each of the others, and a part whose thread does not
   start runs on the calling thread after its own.  Returns 0, the first
   step after which some sample is not finite, or -1 when the scratch
   cannot be allocated. */
int64_t integrate(int ns, int n, int m, int npair, int nv, const int *dst, const int *pair,
                  const int *ends, const double *omega, const double *base, const int *vcol,
                  const double *amp, const double *freq, const double *phase, double h,
                  int64_t steps, int64_t stride, double *recs, int64_t n_rec, int nthreads)
{
    if (nthreads < 1)  /* no samples */
        return 0;
    int most = (int)(((int64_t)ns + nthreads - 1) / nthreads);
    int *car = malloc((size_t)nv * sizeof(int) + 1);  /* not empty for nv = 0 */
    if (!car)
        return -1;
    int nc = 0;
    for (int j = 0; j < nv; j++) {
        int i = 0;
        while (i < j && (memcmp(&freq[i], &freq[j], sizeof(double))
                         || memcmp(&phase[i], &phase[j], sizeof(double))))
            i++;
        car[j] = i < j ? car[i] : nc++;
    }
    struct run r = {n, m, npair, nv, nc, dst, pair, ends, vcol, car, omega, base, amp, freq,
                    phase, h, steps, stride, n_rec, recs};
    int64_t len = slice_len(&r, most);
    void *scratch;
    if (posix_memalign(&scratch, 64, (size_t)(nthreads * len) * sizeof(double))) {
        free(car);
        return -1;
    }
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
    free(car);
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
   pattern pat of (row, col) pairs, each row's in increasing column order
   (a row-major pattern or its pairs swapped), and zero elsewhere.  Each
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

/* One RK4 step of dX/dt = P(t) X for the row-major n x n x, advanced in
   place, with P's nz entries at pat: p0 holds them at the step's start,
   p0 + nz at its midpoint and p0 + 2 nz at its end.  k holds the four
   stages (4 n n doubles), y the stage argument (n n). */
static void rk4_step(int n, int nz, const int *restrict pat, const double *restrict p0,
                     double h, double *restrict x, double *restrict k,
                     double *restrict y, double *restrict full)
{
    int nn = n * n;
    const double *pm = p0 + nz, *p1 = pm + nz;
    double *k1 = k, *k2 = k1 + nn, *k3 = k2 + nn, *k4 = k3 + nn;
    pattern_mul(n, nz, pat, p0, x, full, k1);
    for (int e = 0; e < nn; e++)
        y[e] = x[e] + 0.5 * h * k1[e];
    pattern_mul(n, nz, pat, pm, y, full, k2);
    for (int e = 0; e < nn; e++)
        y[e] = x[e] + 0.5 * h * k2[e];
    pattern_mul(n, nz, pat, pm, y, full, k3);
    for (int e = 0; e < nn; e++)
        y[e] = x[e] + h * k3[e];
    pattern_mul(n, nz, pat, p1, y, full, k4);
    for (int e = 0; e < nn; e++)
        x[e] = x[e] + h / 6.0 * (k1[e] + 2.0 * k2[e] + 2.0 * k3[e] + k4[e]);
}

/* *m = max(*m, |a|_F) for the nn entries of a, summed in squares after
   scaling by the power of two that brings the largest entry into
   [1/2, 1) (exact, so the squares neither overflow nor underflow early);
   an a that is not all finite leaves *m unchanged. */
static void raise_frobenius(int nn, const double *a, double *m)
{
    double amax = 0.0;
    for (int e = 0; e < nn; e++) {
        if (!isfinite(a[e]))
            return;
        amax = fmax(amax, fabs(a[e]));
    }
    int ex;
    frexp(amax, &ex);
    if (ex < -1021)  /* 2^-ex stays finite */
        ex = -1021;
    double scale = ldexp(1.0, -ex), ss = 0.0;
    for (int e = 0; e < nn; e++) {
        double s = a[e] * scale;
        ss += s * s;
    }
    *m = fmax(*m, ldexp(sqrt(ss), ex));
}

/* P's nz pattern entries at half-step g of a flow from t0 with step h,
   from nterm carriers with term matrices pm (nterm rows of nz): at
   t = t0 + h (g / 2), w_e = amp_e sin(t freq_e + phase_e) and the row is
   w_0 pm_0 + w_1 pm_1 + ..., summed in term order. */
static void carrier_row(int nterm, int nz, const double *amp, const double *freq,
                        const double *phase, const double *pm, double t0, double h,
                        int64_t g, double *restrict row)
{
    double t = t0 + h * (0.5 * (double)g);
    for (int e = 0; e < nterm; e++) {
        double we = amp[e] * sin(t * freq[e] + phase[e]);
        const double *pe = pm + (int64_t)e * nz;
        for (int q = 0; q < nz; q++)
            row[q] = e ? row[q] + we * pe[q] : we * pe[q];
    }
}

/* steps RK4 steps of size h of dPsi/dt = P(t) Psi from t0 for the row-major
   n x n Psi in psi, advanced in place.  P has the nz entries of the
   row-major pattern pat ((row, col) pairs) and is zero elsewhere; pat + 2 nz
   holds the same pairs swapped, the pattern of P^T.  Its half-step rows
   come from nterm >= 1 carriers (carrier_row), two new ones per step after
   the last step's end row.
   In each of the first g steps the transposed inverse flow
   Z = (Psi^-1)^T, dZ/dt = -P(t)^T Z, started at I, takes the same step
   through P^T with -h: negating h negates each stage's increment exactly,
   and each entry of P^T Z adds its products in the order matmul(Psi^-1, P)
   would, so Z is RK4 on dPsi^-1/dt = -Psi^-1 P transposed, bit for bit.
   Then ext[0] and ext[1] are raised to the Frobenius norms of Psi and of Z.
   Unless j is NULL, M = Psi^-1 J Psi is formed after every step from J Psi
   by lu_solve, and with the step's row (w0, w1) of w (steps rows of 2) the
   products w0 Psi, w1 Psi, w0 M, w1 M are added to the four n x n blocks of
   sums.  Returns 0, i + 1 when Psi after step i is singular (the sums then
   stop before that step), or -1 when the scratch cannot be allocated. */
int64_t linear_flow(int n, int nz, const int *pat, int64_t steps, double t0, double h,
                    int nterm, const double *amp, const double *freq, const double *phase,
                    const double *pm, double *psi, const double *j, const double *w,
                    double *sums, int64_t g, double *ext)
{
    int nn = n * n;
    /* stages, stage argument, LU factor, M, the expanded P of a non-finite
       product, Z, three carrier rows, and a double so that none is empty */
    double *scratch = malloc((size_t)(9 * nn + 3 * nz + 1) * sizeof(double));
    if (!scratch)
        return -1;
    double *stages = scratch, *y = stages + 4 * nn, *lu = y + nn, *m = lu + nn;
    double *full = m + nn, *z = full + nn, *rows = z + nn;
    for (int e = 0; e < nn; e++)
        z[e] = e % (n + 1) ? 0.0 : 1.0;
    carrier_row(nterm, nz, amp, freq, phase, pm, t0, h, 0, rows + 2 * nz);
    int64_t bad = 0;
    for (int64_t i = 0; i < steps; i++) {
        memcpy(rows, rows + 2 * nz, (size_t)nz * sizeof(double));
        carrier_row(nterm, nz, amp, freq, phase, pm, t0, h, 2 * i + 1, rows + nz);
        carrier_row(nterm, nz, amp, freq, phase, pm, t0, h, 2 * i + 2, rows + 2 * nz);
        rk4_step(n, nz, pat, rows, h, psi, stages, y, full);
        if (i < g) {
            rk4_step(n, nz, pat + 2 * nz, rows, -h, z, stages, y, full);
            raise_frobenius(nn, psi, ext);
            raise_frobenius(nn, z, ext + 1);
        }
        if (!j)
            continue;
        matmul(n, j, psi, m);
        memcpy(lu, psi, (size_t)nn * sizeof(double));
        if (lu_solve(n, lu, m)) {
            bad = i + 1;
            break;
        }
        double w0 = w[2 * i], w1 = w[2 * i + 1];
        for (int e = 0; e < nn; e++) {
            sums[e] += w0 * psi[e];
            sums[nn + e] += w1 * psi[e];
            sums[2 * nn + e] += w0 * m[e];
            sums[3 * nn + e] += w1 * m[e];
        }
    }
    free(scratch);
    return bad;
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
   starts at floor(e2 log10 2) = ((e2 78913 + 2^24) >> 18) - 64 for the binary
   exponent e2 = 52 - sh, floor(log10 |x|) or one less; clamped to [-13, 9], as
   the range allows, it moves by one while the mantissa is outside [10^9, 10^10). */
static int fmt_exact(double x, char *s)
{
    uint64_t bits;
    memcpy(&bits, &x, sizeof bits);
    uint64_t f = (bits & ((UINT64_C(1) << 52) - 1)) | UINT64_C(1) << 52;
    int sh = 1075 - (int)(bits >> 52 & 0x7ff);
    u128 half = (u128)1 << (sh - 1);
    int k = (((52 - sh) * 78913 + (1 << 24)) >> 18) - 64;  /* shifts no negative */
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
    import hashlib  # here, not at import: a start-up that loads no kernel needs none

    key = (_SOURCE, *_FLAGS, sys.platform, platform.machine())
    digest = hashlib.sha256("\0".join(key).encode()).hexdigest()
    return f"phase_kernel-{digest}.so"


def _prune_stale_libraries(keep: str) -> None:
    """Remove from the cache every library but ``keep``: the names
    ``phase_kernel-<64 hex digits>.so`` only, never a build's temporaries."""
    for stale in _cache_dir.iterdir():
        if stale.name != keep and re.fullmatch(r"phase_kernel-[0-9a-f]{64}\.so", stale.name):
            stale.unlink(missing_ok=True)


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
    import subprocess  # only a build needs it, not a cached library

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
                import shutil

                shutil.rmtree(directory, ignore_errors=True)
        if directory == _cache_dir:
            _prune_stale_libraries(path.name)
    ints = np.ctypeslib.ndpointer(np.intc, flags="C_CONTIGUOUS")
    doubles = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    out = np.ctypeslib.ndpointer(np.float64, flags=("C_CONTIGUOUS", "WRITEABLE"))
    lib.integrate.argtypes = [*[ctypes.c_int] * 5, ints, ints, ints, doubles, doubles, ints,
                              doubles, doubles, doubles, ctypes.c_double, ctypes.c_int64,
                              ctypes.c_int64, out, ctypes.c_int64, ctypes.c_int]
    lib.integrate.restype = ctypes.c_int64
    doubles_or_null, out_or_null = _or_null(doubles), _or_null(out)
    lib.linear_flow.argtypes = [ctypes.c_int, ctypes.c_int, ints, ctypes.c_int64, ctypes.c_double,
                                ctypes.c_double, ctypes.c_int, *[doubles] * 4, out,
                                doubles_or_null, doubles_or_null, out_or_null, ctypes.c_int64,
                                out_or_null]
    lib.linear_flow.restype = ctypes.c_int64
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


def _or_null(ptr):
    """The ``ndpointer`` type ``ptr``, which also passes None, as NULL."""
    return type(ptr.__name__, (ptr,), {
        "from_param": classmethod(lambda cls, a: None if a is None else ptr.from_param(a))})


def _bound_pattern(pattern: np.ndarray, n: int) -> np.ndarray:
    """``pattern``, which must be an (nz, 2) ``intc`` array of (row, col)
    entries of an n x n matrix in strictly increasing row-major order
    (ValueError otherwise), followed by the same pairs swapped, the pattern
    of P^T the inverse flow multiplies through: a new (2 nz, 2) array."""
    if not (isinstance(pattern, np.ndarray) and pattern.dtype == np.intc
            and pattern.ndim == 2 and pattern.shape[1] == 2):
        raise ValueError("a linear-flow pattern is an (nz, 2) intc array of (row, col)")
    flat = pattern[:, 0].astype(np.int64) * n + pattern[:, 1]
    if (pattern < 0).any() or (pattern >= n).any() or (np.diff(flat) <= 0).any():
        raise ValueError("a linear-flow pattern needs distinct in-range entries in "
                         "row-major order")
    return np.ascontiguousarray(np.concatenate([pattern, pattern[:, ::-1]]))


def linear_flow(t0: float, h: float, steps: int, psi: np.ndarray, pattern: np.ndarray, p,
                j: Optional[np.ndarray] = None, weights: Optional[np.ndarray] = None,
                sums: Optional[np.ndarray] = None, growth: Optional[np.ndarray] = None,
                growth_steps: int = 0) -> None:
    """RK4 steps ``1 .. steps`` of dPsi/dt = P(t) Psi from ``t0`` with step
    ``h``, ``psi`` (n, n) advanced in place in one kernel call, as the
    module docstring describes.

    P is zero outside ``pattern`` (nz, 2), ``intc``, the (row, col) entries
    where it may be nonzero in row-major order; a dense P is the full
    pattern.  ``p`` gives those entries as the carriers ``(amps, freqs,
    phases, mats)`` of a sum of sinusoids, amps, freqs and phases (E,),
    E >= 1, and mats (E, nz): at half-step g the sum over e of
    ``amps[e] * sin(t * freqs[e] + phases[e])`` times ``mats[e]``, with
    ``t = t0 + h * (0.5 * g)``.

    Given ``j`` (n, n), ``weights`` (steps, 2) and ``sums`` (2, 2, n, n),
    the kernel adds ``w0 Psi, w1 Psi`` to ``sums[0]`` and ``w0 M, w1 M``,
    M = Psi^-1 J Psi, to ``sums[1]`` after every step; a singular Psi
    raises ``numpy.linalg.LinAlgError``, which names its time.  Given
    ``growth`` (2,), it raises ``growth`` to the Frobenius norms of Psi and
    of the inverse flow, started at I, after each of the first
    ``growth_steps`` steps.

    Shapes and the pattern are checked before the call (``ValueError``);
    dtype, C order and the writeability of ``psi``, ``sums`` and ``growth``
    by ctypes (``ctypes.ArgumentError``).  A failed allocation of the
    kernel's scratch raises ``MemoryError``."""
    n = len(psi) if np.ndim(psi) == 2 else 0
    pattern = _bound_pattern(pattern, n)
    nz = len(pattern) // 2
    amps, freqs, phases, mats = p
    nterm = len(amps) if np.ndim(amps) == 1 else 0
    shapes = ({np.shape(amps), np.shape(freqs), np.shape(phases)} == {(nterm,)}
              and nterm >= 1 and np.shape(mats) == (nterm, nz))
    if j is not None:
        shapes &= (np.shape(j) == (n, n) and np.shape(weights) == (steps, 2)
                   and np.shape(sums) == (2, 2, n, n))
    if growth is not None:
        shapes &= np.shape(growth) == (2,)
    if not shapes or np.shape(psi) != (n, n) or steps < 0:
        raise ValueError("inconsistent linear-flow array shapes")
    bad = load().linear_flow(n, nz, pattern, steps, t0, h, nterm, amps, freqs, phases, mats, psi,
                             j, weights, sums, 0 if growth is None else growth_steps, growth)
    if bad < 0:
        raise MemoryError("the linear-flow kernel cannot allocate its scratch")
    if bad:
        raise np.linalg.LinAlgError(
            f"Psi is singular to working precision at t = {t0 + h * bad:g}")


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
    in that order; edges whose ``freq`` and ``phase`` have the same bits
    share that sine, which each thread evaluates once per half-step for all
    its samples.  The samples are split into ``thread_count(ns)``
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
