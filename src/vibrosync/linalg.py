"""Dense linear-algebra helpers: Lyapunov certificates, robustness margins,
M-matrix tests and transition matrices of time-varying linear systems."""

from __future__ import annotations

import functools
import math
from typing import Optional, Tuple

import numpy as np

from . import _phase_kernel

hurwitz_margin = 1e-12
lyapunov_residual_tolerance = 1e-9
# RK4 steps per fastest period of the linear flows (state_transition and
# the averaging, which also samples the conjugation growth): at 24 the
# averaged Jacobians miss the exact engine.  The phase network takes its own
# count, kuramoto_dynamics.phase_oversampling.
default_oversampling = 48
# fewest steps per period an explicit dt may give a flow at
# default_oversampling; every flow's floor keeps this ratio to its own count
steps_per_period = 40
horizon_periods = 20
horizon_doublings = 3
horizon_rel_tolerance = 1e-3
# the most RK4 steps one run may take: the kernels count steps, half-steps
# (two per step, and a window pass takes twice a window's steps) and record
# strides in int64_t, and numpy takes the record times from int64 products
max_steps = 2 ** 60


class NotHurwitz(ValueError):
    pass


class StepTooCoarse(ValueError):
    pass


class HorizonTooShort(ValueError):
    pass


class TooManySteps(ValueError):
    pass


def is_hurwitz(a: np.ndarray) -> bool:
    """True when every eigenvalue has real part strictly below ``-hurwitz_margin``."""
    return bool(np.all(np.linalg.eigvals(np.asarray(a, dtype=float)).real < -hurwitz_margin))


def solve_lyapunov(a: np.ndarray) -> np.ndarray:
    """Solve A^T X + X A = -I for symmetric positive definite X.

    Solved densely through the Kronecker-vectorized linear system; raises
    NotHurwitz when A has an eigenvalue with real part >= -1e-12 (no
    solution exists then), and ``numpy.linalg.LinAlgError`` when the
    solution misses the equation by more than ``lyapunov_residual_tolerance``.
    """
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    if a.shape != (n, n):
        raise ValueError("matrix must be square")
    if not is_hurwitz(a):
        raise NotHurwitz("matrix has an eigenvalue with nonnegative real part")
    ident = np.eye(n)
    # vec(A^T X) = (I kron A^T) vec X, vec(X A) = (A^T kron I) vec X
    k = np.kron(ident, a.T) + np.kron(a.T, ident)
    x = np.linalg.solve(k, -ident.reshape(-1)).reshape(n, n)
    x = 0.5 * (x + x.T)
    residual = np.abs(a.T @ x + x @ a + ident).max()
    if residual > lyapunov_residual_tolerance:
        raise np.linalg.LinAlgError(f"Lyapunov solve left residual {residual:.2e}")
    return x


def robustness(a: np.ndarray) -> float:
    """Stability robustness of a Hurwitz matrix: the reciprocal of the
    largest eigenvalue of its Lyapunov certificate.

    Scales linearly with the matrix: R(c A) = c R(A) for c > 0, and for
    a matrix -mu*I it evaluates to 2*mu.
    """
    return 1.0 / float(np.linalg.eigvalsh(solve_lyapunov(a)).max())


def is_m_matrix(a: np.ndarray) -> bool:
    """Nonsingular M-matrix test: off-diagonal entries <= 0 and every
    leading principal minor strictly positive."""
    a = np.asarray(a, dtype=float)
    n = a.shape[0]
    off = a - np.diag(np.diag(a))
    if np.any(off > 0.0):
        return False
    for k in range(1, n + 1):
        if np.linalg.det(a[:k, :k]) <= 0.0:
            return False
    return True


# ---------------------------------------------------------------------------
# transition matrices and averaged conjugations


class SinusoidSum:
    """P(t) = sum_e amps[e] * sin(freqs[e] * t + phases[e]) * mats[e].

    Calling it with a scalar time returns an (n, n) matrix; with an array of
    times of shape (N,) it returns the (N, n, n) stack, entry for entry equal
    to the scalar calls.  ``pattern`` (nz, 2), ``intc``, lists in row-major
    order the (row, col) entries where some term matrix is nonzero: P is
    exactly zero elsewhere, and the linear-flow kernel evaluates only those
    entries, from the carriers and the term matrices' pattern entries, in
    the operation order of :meth:`__call__`.  amps, freqs and phases must be
    1-D of one length E >= 1, mats (E, n, n), every value finite and every
    frequency positive (ValueError otherwise): the carriers' periods set the
    linear flows' step and averaging horizon (``_periods``).
    """

    def __init__(self, amps, freqs, phases, mats):
        self.amps = np.asarray(amps, dtype=float, order="C")
        self.freqs = np.asarray(freqs, dtype=float, order="C")
        self.phases = np.asarray(phases, dtype=float, order="C")
        self.mats = np.asarray(mats, dtype=float)
        terms = len(self.amps) if self.amps.ndim == 1 else 0
        if not (terms >= 1 and self.freqs.shape == self.phases.shape == (terms,)):
            raise ValueError("a SinusoidSum needs amps, freqs and phases of one length E >= 1")
        if not (self.mats.ndim == 3 and self.mats.shape[0] == terms
                and self.mats.shape[1] == self.mats.shape[2]):
            raise ValueError(f"a SinusoidSum of {terms} terms needs mats of shape ({terms}, n, n)")
        if not all(np.isfinite(a).all() for a in (self.amps, self.freqs, self.phases, self.mats)):
            raise ValueError("a SinusoidSum needs finite amps, freqs, phases and mats")
        if not (self.freqs > 0.0).all():
            raise ValueError("a SinusoidSum needs positive freqs")
        self.pattern = np.argwhere((self.mats != 0.0).any(axis=0)).astype(np.intc)
        rows, cols = self.pattern.T
        self._pattern_mats = np.ascontiguousarray(self.mats[:, rows, cols])

    def __call__(self, t) -> np.ndarray:
        w = self.amps * np.sin(np.multiply.outer(np.asarray(t, dtype=float), self.freqs)
                               + self.phases)
        # elementwise sum in a fixed term order, so every time gets the same
        # rounding whatever the batch shape
        out = w[..., 0, None, None] * self.mats[0]
        for e in range(1, len(self.mats)):
            out += w[..., e, None, None] * self.mats[e]
        return out


def _periods(p: SinusoidSum) -> Tuple[float, float]:
    """The slowest and the fastest carrier period of ``p``."""
    return 2.0 * math.pi / p.freqs.min(), 2.0 * math.pi / p.freqs.max()


def _resolve_step(t_span: float, dt: Optional[float], min_period: float,
                  oversampling: int) -> float:
    """The RK4 step of a flow over ``t_span`` whose fastest period is
    ``min_period``: ``dt`` if given, else ``oversampling`` steps per period.
    An explicit ``dt`` that gives fewer than ``oversampling * steps_per_period
    / default_oversampling`` steps per period (40 for the linear flows, 20
    for the phase network) raises StepTooCoarse."""
    for name, value in (("t_span", t_span), ("dt", dt), ("min_period", min_period)):
        if value is not None and not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if min_period <= 0:
        raise ValueError(f"min_period must be positive, got {min_period!r}")
    if dt is None:
        dt = min_period / oversampling
    floor = oversampling * steps_per_period / default_oversampling
    if dt > min_period / floor * (1 + 1e-12):
        raise StepTooCoarse(
            f"dt={dt:g} gives fewer than {floor:g} steps per period {min_period:g}"
        )
    if dt <= 0 or t_span < 0:
        raise ValueError("need positive dt and nonnegative span")
    return dt


def _step_count(span: float, dt: float) -> int:
    """The RK4 steps of at most ``dt`` (> 0) over ``span`` (>= 0): none for
    a zero span, else at least one.  A count above ``max_steps`` raises
    TooManySteps, which names it."""
    ratio = span / dt
    if not ratio - 1e-12 <= max_steps:
        raise TooManySteps(f"a span of {span:g} at dt={dt:g} needs {ratio:.3g} RK4 steps, "
                           f"more than the {max_steps} a run may take")
    return max(1, int(np.ceil(ratio - 1e-12))) if span > 0 else 0


def state_transition(p: SinusoidSum, t0: float, t1: float,
                     dt: Optional[float] = None) -> np.ndarray:
    """Transition matrix of dv/dt = P(t) v from t0 to t1 (fixed-step RK4),
    by default at ``default_oversampling`` steps per fastest carrier period;
    an explicit ``dt`` too coarse for that period raises StepTooCoarse."""
    dt = _resolve_step(t1 - t0, dt, _periods(p)[1], default_oversampling)
    phi = np.eye(p.mats.shape[1])
    if t1 == t0:
        return phi
    steps = _step_count(t1 - t0, dt)
    _phase_kernel.linear_flow(p, t0, (t1 - t0) / steps, steps, phi)
    return phi


def _bump(s: np.ndarray) -> np.ndarray:
    """Smooth window w(s) = exp(-1 / (s (1 - s))) on (0, 1), zero elsewhere."""
    out = np.zeros_like(s)
    inside = (s > 0.0) & (s < 1.0)
    out[inside] = np.exp(-1.0 / (s[inside] * (1.0 - s[inside])))
    return out


@functools.lru_cache(maxsize=8)
def _window_weights(steps: int) -> Optional[np.ndarray]:
    """The normalized bump weights of the 2 * steps grid points after t = 0,
    (2 * steps, 2) read-only, one column per window ([0, T] over ``steps``
    steps, [0, 2T] over all); None when a window has no weight.  The point
    t = 0 has weight zero in both."""
    idx = np.arange(1, 2 * steps + 1, dtype=float)
    weights = np.stack([_bump(idx / steps), _bump(idx / (2 * steps))])
    totals = weights.sum(axis=1, keepdims=True)
    if not np.all(totals > 0.0):
        return None
    weights = np.ascontiguousarray((weights / totals).T)
    weights.flags.writeable = False
    return weights


def conjugated_average(j: np.ndarray, p: SinusoidSum,
                       T: Optional[float] = None, dt: Optional[float] = None,
                       rel_tol: float = horizon_rel_tolerance,
                       growth: Optional[np.ndarray] = None) -> np.ndarray:
    """Time average of Phi(t)^-1 J Phi(t) for the flow of dPhi/dt = P(t) Phi.

    The average uses the mean-one normalization of the raw fundamental
    solution (started at the identity), which coincides with choosing the
    zero-mean primitive at every order.  Both means are weighted Birkhoff
    sums over the RK4 grid of a window [0, W]: the sample at time t gets the
    bump weight w(t / W) of ``_bump``, normalized to sum 1.  For quasi-periodic
    Phi this converges faster than any power of W (Das & Yorke, Nonlinearity
    31, 2018).  One RK4 pass over [0, 2T] gives the estimates for W = T and
    W = 2T; a drift between them above ``rel_tol`` (relative), or a window
    without weight, raises HorizonTooShort.  The pass is one call of the
    compiled stepper ``_phase_kernel.linear_flow``, which solves Phi^-1 J Phi
    after every step by LU with partial pivoting and adds both weighted sums; a
    Phi singular to working precision (the error names the time), or one
    that overflows (non-finite sums), raises ``numpy.linalg.LinAlgError`` at
    once.  The step defaults to ``default_oversampling`` steps per fastest
    carrier period, and an explicit ``dt`` too coarse for that period
    raises StepTooCoarse.  Without ``T`` the horizon starts at
    ``horizon_periods`` slowest carrier periods and is doubled up to
    ``horizon_doublings`` times before HorizonTooShort is raised: carriers
    can combine to frequencies far below the slowest one.
    Given ``growth`` (2,), the first pass raises it in place to the sampled
    conjugation growth ``(sup |Phi|_F, sup |Phi^-1|_F)``, Frobenius norms of
    Phi and of an inverse flow stepped alongside it, after every step of its
    window [0, T], even when a longer horizon follows (see ``_phase_kernel``).
    """
    j = np.asarray(j, dtype=float, order="C")
    base_period, min_period = _periods(p)
    if T is not None:
        return _windowed_average(j, p, T, dt, min_period, rel_tol, growth)
    for doubling in range(horizon_doublings + 1):
        try:
            return _windowed_average(j, p, horizon_periods * 2 ** doubling * base_period,
                                     dt, min_period, rel_tol, None if doubling else growth)
        except HorizonTooShort:
            if doubling == horizon_doublings:
                raise


def _windowed_average(j: np.ndarray, p: SinusoidSum, T: float,
                      dt: Optional[float], min_period: float,
                      rel_tol: float, growth: Optional[np.ndarray]) -> np.ndarray:
    """The weighted estimate over [0, 2T], checked against the one over
    [0, T] (see ``conjugated_average``).  The window weights depend on the
    step count alone and are cached (``_window_weights``); the compiled
    stepper solves Psi^-1 J Psi after each step and adds the weighted sums
    of Psi and of Psi^-1 J Psi for both windows (and the growth over
    [0, T]); only the closing conjugation uses numpy."""
    dt = _resolve_step(T, dt, min_period, default_oversampling)

    n = j.shape[0]
    steps = _step_count(T, dt)
    weights = _window_weights(steps)
    if weights is None:
        raise HorizonTooShort(f"horizon {T:g} leaves an averaging window without weight")

    sums = np.zeros((2, 2, n, n))
    _phase_kernel.linear_flow(p, 0.0, T / steps, 2 * steps, np.eye(n), j, weights, sums, growth,
                              steps)
    if not np.isfinite(sums).all():
        raise np.linalg.LinAlgError(f"the flow overflowed on [0, {2 * T:g}]")
    mean_psi, mean_m = sums
    jbar_1, jbar_2 = mean_psi @ mean_m @ np.linalg.inv(mean_psi)

    scale = max(float(np.abs(jbar_2).max()), 1e-30)
    drift = float(np.abs(jbar_2 - jbar_1).max()) / scale
    if not drift <= rel_tol:
        raise HorizonTooShort(
            f"average moved by {drift:.2e} (rel) when doubling the horizon {T:g}"
        )
    return jbar_2
