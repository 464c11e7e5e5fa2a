"""Dense linear-algebra helpers: Lyapunov certificates, robustness margins,
M-matrix tests and transition matrices of time-varying linear systems."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

hurwitz_margin = 1e-12
lyapunov_residual_tolerance = 1e-9
symmetry_tolerance = 1e-10
steps_per_period = 40
default_oversampling = 48
horizon_periods = 20
horizon_doublings = 3
horizon_rel_tolerance = 1e-3


class NotHurwitz(ValueError):
    pass


class StepTooCoarse(ValueError):
    pass


class HorizonTooShort(ValueError):
    pass


def is_hurwitz(a: np.ndarray) -> bool:
    """True when every eigenvalue has real part strictly below ``-hurwitz_margin``."""
    return bool(np.all(np.linalg.eigvals(np.asarray(a, dtype=float)).real < -hurwitz_margin))


def solve_lyapunov(a: np.ndarray) -> np.ndarray:
    """Solve A^T X + X A = -I for symmetric positive definite X.

    Solved densely through the Kronecker-vectorized linear system; raises
    NotHurwitz when A has an eigenvalue with real part >= -1e-12 (no
    solution exists then).
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
        raise ValueError(f"Lyapunov solve left residual {residual:.2e}")
    return x


@dataclass(frozen=True)
class RobustnessValue:
    """Reciprocal of the largest eigenvalue of the Lyapunov certificate.

    Scales linearly with the matrix: R(c A) = c R(A) for c > 0, and for
    a matrix -mu*I it evaluates to 2*mu.
    """

    value: float
    certificate: np.ndarray
    residual: float
    asymmetry: float

    def __post_init__(self):
        if self.residual > lyapunov_residual_tolerance:
            raise ValueError("certificate residual too large")
        if self.asymmetry > symmetry_tolerance:
            raise ValueError("certificate is not symmetric")


def robustness(a: np.ndarray) -> RobustnessValue:
    """Stability robustness of a Hurwitz matrix via its Lyapunov certificate."""
    a = np.asarray(a, dtype=float)
    x = solve_lyapunov(a)
    residual = float(np.abs(a.T @ x + x @ a + np.eye(a.shape[0])).max())
    asymmetry = float(np.abs(x - x.T).max())
    lam = float(np.linalg.eigvalsh(x).max())
    return RobustnessValue(value=1.0 / lam, certificate=x,
                           residual=residual, asymmetry=asymmetry)


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

# RK4 steps per chunk of the linear-flow engine: bounds the tabulated P(t)
# and propagator stacks (memory grows linearly with it) while keeping the
# per-chunk numpy calls few.
_chunk_steps = 256


class SinusoidSum:
    """P(t) = sum_e amps[e] * sin(freqs[e] * t + phases[e]) * mats[e].

    Calling it with a scalar time returns an (n, n) matrix; with an array of
    times of shape (N,) it returns the (N, n, n) stack, entry for entry equal
    to the scalar calls.
    """

    def __init__(self, amps, freqs, phases, mats):
        self.amps = np.asarray(amps, dtype=float)
        self.freqs = np.asarray(freqs, dtype=float)
        self.phases = np.asarray(phases, dtype=float)
        self.mats = np.asarray(mats, dtype=float)

    def __call__(self, t) -> np.ndarray:
        w = self.amps * np.sin(np.multiply.outer(np.asarray(t, dtype=float), self.freqs)
                               + self.phases)
        # elementwise sum in a fixed term order, so every time gets the same
        # rounding whatever the batch shape
        out = w[..., 0, None, None] * self.mats[0]
        for e in range(1, len(self.mats)):
            out += w[..., e, None, None] * self.mats[e]
        return out


def _linear_flow(p: Callable, t0: float, h: float, steps: int, psi: np.ndarray):
    """Fixed-step RK4 for dPsi/dt = P(t) Psi from Psi(t0) = psi.

    Yields, one chunk of at most ``_chunk_steps`` steps at a time, the stack
    of Psi after each step of the chunk.  Per chunk, P is tabulated on the
    half-step grid (one broadcast call for a SinusoidSum, one call per grid
    time for any other callable), every step propagator
    S_i = I + h/6 (K1 + 2 K2 + 2 K3 + K4) is built with batched products, and
    the propagators are composed with a log-depth doubling scan seeded by
    the carried Psi.
    """
    eye = np.eye(psi.shape[0])
    for start in range(0, steps, _chunk_steps):
        k = min(_chunk_steps, steps - start)
        ts = t0 + h * (start + 0.5 * np.arange(2 * k + 1))
        if isinstance(p, SinusoidSum):
            pt = p(ts)
        else:
            pt = np.array([p(float(t)) for t in ts], dtype=float)
        # RK4 stages of the linear field applied to the identity: K1 = P(t)
        p0, pm, p1 = pt[0:-1:2], pt[1::2], pt[2::2]
        k2 = pm + (0.5 * h) * (pm @ p0)
        k3 = pm + (0.5 * h) * (pm @ k2)
        k4 = p1 + h * (p1 @ k3)
        acc = eye + (h / 6.0) * (p0 + 2.0 * k2 + 2.0 * k3 + k4)
        acc[0] = acc[0] @ psi
        # inclusive prefix product acc[i] = S_i ... S_0 psi (Blelloch 1990)
        shift = 1
        while shift < k:
            acc[shift:] = acc[shift:] @ acc[:-shift]
            shift *= 2
        psi = acc[-1]
        yield acc


def _resolve_step(t_span: float, dt: Optional[float], min_period: Optional[float]) -> float:
    for name, value in (("t_span", t_span), ("dt", dt), ("min_period", min_period)):
        if value is not None and not np.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value!r}")
    if min_period is not None and min_period <= 0:
        raise ValueError(f"min_period must be positive, got {min_period!r}")
    if dt is None:
        if min_period is None:
            raise ValueError("need dt or min_period to choose a step size")
        dt = min_period / default_oversampling
    if min_period is not None and dt > min_period / steps_per_period * (1 + 1e-12):
        raise StepTooCoarse(
            f"dt={dt:g} gives fewer than {steps_per_period} steps per period {min_period:g}"
        )
    if dt <= 0 or t_span < 0:
        raise ValueError("need positive dt and nonnegative span")
    return dt


def state_transition(p: Callable[[float], np.ndarray], t0: float, t1: float,
                     dt: Optional[float] = None,
                     min_period: Optional[float] = None) -> np.ndarray:
    """Transition matrix of dv/dt = P(t) v from t0 to t1 (fixed-step RK4)."""
    dt = _resolve_step(t1 - t0, dt, min_period)
    n = np.asarray(p(t0)).shape[0]
    phi = np.eye(n)
    if t1 == t0:
        return phi
    steps = max(1, int(np.ceil((t1 - t0) / dt - 1e-12)))
    for stack in _linear_flow(p, t0, (t1 - t0) / steps, steps, phi):
        phi = stack[-1]
    return phi


def _bump(s: np.ndarray) -> np.ndarray:
    """Smooth window w(s) = exp(-1 / (s (1 - s))) on (0, 1), zero elsewhere."""
    out = np.zeros_like(s)
    inside = (s > 0.0) & (s < 1.0)
    out[inside] = np.exp(-1.0 / (s[inside] * (1.0 - s[inside])))
    return out


def conjugated_average(j: np.ndarray, p: Optional[Callable[[float], np.ndarray]],
                       T: Optional[float] = None, dt: Optional[float] = None,
                       base_period: Optional[float] = None,
                       min_period: Optional[float] = None,
                       rel_tol: float = horizon_rel_tolerance) -> np.ndarray:
    """Time average of Phi(t)^-1 J Phi(t) for the flow of dPhi/dt = P(t) Phi.

    The average uses the mean-one normalization of the raw fundamental
    solution (started at the identity), which coincides with choosing the
    zero-mean primitive at every order.  Both means are weighted Birkhoff
    sums over the RK4 grid of a window [0, W]: the sample at time t gets the
    bump weight w(t / W) of ``_bump``, normalized to sum 1.  For quasi-periodic
    Phi this converges faster than any power of W (Das & Yorke, Nonlinearity
    31, 2018).  One RK4 pass over [0, 2T] gives the estimates for W = T and
    W = 2T; a drift between them above ``rel_tol`` (relative), or a window
    without weight, raises HorizonTooShort.  A horizon derived from
    ``base_period`` (``T=None``) starts at ``horizon_periods`` base periods
    and is doubled up to ``horizon_doublings`` times before that error is
    raised: carriers can combine to frequencies far below the slowest one.
    With ``p=None`` the input is returned unchanged.
    """
    j = np.asarray(j, dtype=float)
    if p is None:
        return j.copy()
    if dt is None and min_period is None:
        # single-frequency convenience: the base period also bounds the step
        min_period = base_period
    if T is not None:
        return _windowed_average(j, p, T, dt, min_period, rel_tol)
    if base_period is None:
        raise ValueError("need T or base_period for the averaging horizon")
    for doubling in range(horizon_doublings + 1):
        try:
            return _windowed_average(j, p, horizon_periods * 2 ** doubling * base_period,
                                     dt, min_period, rel_tol)
        except HorizonTooShort:
            if doubling == horizon_doublings:
                raise


def _windowed_average(j: np.ndarray, p: Callable[[float], np.ndarray], T: float,
                      dt: Optional[float], min_period: Optional[float],
                      rel_tol: float) -> np.ndarray:
    """The weighted estimate over [0, 2T], checked against the one over
    [0, T] (see ``conjugated_average``)."""
    dt = _resolve_step(T, dt, min_period)

    n = j.shape[0]
    steps = max(1, int(np.ceil(T / dt - 1e-12)))
    # normalized window weights of the grid points after t = 0, one row per
    # window; the point t = 0 has weight zero in both
    idx = np.arange(1, 2 * steps + 1, dtype=float)
    weights = np.stack([_bump(idx / steps), _bump(idx / (2 * steps))])
    totals = weights.sum(axis=1, keepdims=True)
    if not np.all(totals > 0.0):
        raise HorizonTooShort(f"horizon {T:g} leaves an averaging window without weight")
    weights /= totals

    mean_psi, mean_m = np.zeros((2, 2, n, n))
    done = 0
    for stack in _linear_flow(p, 0.0, T / steps, 2 * steps, np.eye(n)):
        w = weights[:, done:done + len(stack)]
        done += len(stack)
        mean_psi += np.tensordot(w, stack, axes=1)
        mean_m += np.tensordot(w, np.linalg.solve(stack, j @ stack), axes=1)
    jbar_1, jbar_2 = mean_psi @ mean_m @ np.linalg.inv(mean_psi)

    scale = max(float(np.abs(jbar_2).max()), 1e-30)
    drift = float(np.abs(jbar_2 - jbar_1).max()) / scale
    if not drift <= rel_tol:
        raise HorizonTooShort(
            f"average moved by {drift:.2e} (rel) when doubling the horizon {T:g}"
        )
    return jbar_2
