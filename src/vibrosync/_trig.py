"""Exact finite trigonometric polynomials with square-root frequencies.

Internal engine used by the vibration design routines.  A polynomial is a
finite sum of terms ``c * cos(phi * t)`` and ``c * sin(phi * t)`` where each
angular frequency ``phi`` is an integer combination of square roots of
distinct squarefree integers, e.g. ``2*sqrt(1) - 3*sqrt(2)``.  Such
frequencies are linearly independent over the rationals, so two terms share a
frequency only when their integer representations coincide.  That makes the
DC (time-average) component of any product exactly computable: it is the
coefficient attached to the empty frequency, never a numerically cancelled
residue.

Products are expanded via the product-to-sum identities and antiderivatives
are taken with the zero-mean convention (the constant of integration is
chosen so the primitive has zero time average).

A polynomial is never changed once an operation has returned it: only a
polynomial still being built, fresh from its constructor, is accumulated
into.  So results may share operands: ``ZERO`` and ``ONE`` fill every zero
and identity entry of the dense matrices, ``a + ZERO`` is ``a`` itself, and
scaling or integrating ``ZERO`` gives ``ZERO``.  The two shared constants hold
read-only terms, so a breach of the contract raises instead of spreading.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, Iterator, Tuple

secular_tolerance = 1e-12

# A frequency is stored as a sorted tuple of (radicand, integer coefficient)
# pairs with nonzero coefficients; () is the zero frequency (DC).
Freq = Tuple[Tuple[int, int], ...]
# kind is "cos" or "sin"
Term = Tuple[str, Freq]


def squarefree_radicands() -> Iterator[int]:
    """Yield 1, 2, 3, 5, 6, 7, 10, ... (squarefree integers in order)."""
    d = 0
    while True:
        d += 1
        n, p = d, 2
        square_free = True
        while p * p <= n:
            if n % (p * p) == 0:
                square_free = False
                break
            if n % p == 0:
                n //= p
            p += 1
        if square_free:
            yield d


def freq_value(freq: Freq) -> float:
    return sum(c * r ** 0.5 for r, c in freq)


def _freq_add(a: Freq, b: Freq) -> Freq:
    acc: Dict[int, int] = dict(a)
    for r, c in b:
        acc[r] = acc.get(r, 0) + c
        if acc[r] == 0:
            del acc[r]
    return tuple(sorted(acc.items()))


def _freq_neg(a: Freq) -> Freq:
    return tuple((r, -c) for r, c in a)


def _canon(kind: str, freq: Freq, coeff: float) -> Tuple[str, Freq, float]:
    """Normalize so the leading integer coefficient of the frequency is > 0."""
    if not freq:
        # sin(0) == 0, cos(0) == 1 (a pure DC term)
        if kind == "sin":
            return "cos", (), 0.0
        return "cos", (), coeff
    if freq[0][1] < 0:
        freq = _freq_neg(freq)
        if kind == "sin":
            coeff = -coeff
    return kind, freq, coeff


class TrigPoly:
    """A finite sum of sin/cos lines with exact integer-vector frequencies."""

    __slots__ = ("terms",)

    def __init__(self, terms: Dict[Term, float] | None = None):
        self.terms: Dict[Term, float] = {}
        if terms:
            for (kind, freq), coeff in terms.items():
                self._accumulate(kind, freq, coeff)

    def _accumulate(self, kind: str, freq: Freq, coeff: float) -> None:
        kind, freq, coeff = _canon(kind, freq, coeff)
        key = (kind, freq)
        new = self.terms.get(key, 0.0) + coeff
        if new == 0.0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = new

    # ---- constructors -------------------------------------------------
    @staticmethod
    def constant(c: float) -> "TrigPoly":
        p = TrigPoly()
        if c != 0.0:
            p.terms[("cos", ())] = float(c)
        return p

    @staticmethod
    def sin_line(freq: Freq, coeff: float = 1.0) -> "TrigPoly":
        p = TrigPoly()
        p._accumulate("sin", freq, coeff)
        return p

    # ---- algebra -------------------------------------------------------
    def copy(self) -> "TrigPoly":
        p = TrigPoly()
        p.terms = dict(self.terms)
        return p

    def __add__(self, other: "TrigPoly") -> "TrigPoly":
        if not other.terms:
            return self
        if not self.terms:
            return other
        p = self.copy()
        for (kind, freq), coeff in other.terms.items():
            p._accumulate(kind, freq, coeff)
        return p

    def __sub__(self, other: "TrigPoly") -> "TrigPoly":
        if not other.terms:
            return self
        if not self.terms:
            return other.scaled(-1.0)
        p = self.copy()
        for (kind, freq), coeff in other.terms.items():
            p._accumulate(kind, freq, -coeff)
        return p

    def scaled(self, s: float) -> "TrigPoly":
        if s == 0.0 or not self.terms:
            return ZERO
        p = TrigPoly()
        p.terms = {k: v * s for k, v in self.terms.items()}
        return p

    def __mul__(self, other: "TrigPoly") -> "TrigPoly":
        out = TrigPoly()
        for (k1, f1), c1 in self.terms.items():
            for (k2, f2), c2 in other.terms.items():
                c = 0.5 * c1 * c2
                fsum = _freq_add(f1, f2)
                fdif = _freq_add(f1, _freq_neg(f2))
                if k1 == "cos" and k2 == "cos":
                    # cos a cos b = (cos(a-b) + cos(a+b)) / 2
                    out._accumulate("cos", fdif, c)
                    out._accumulate("cos", fsum, c)
                elif k1 == "sin" and k2 == "sin":
                    # sin a sin b = (cos(a-b) - cos(a+b)) / 2
                    out._accumulate("cos", fdif, c)
                    out._accumulate("cos", fsum, -c)
                elif k1 == "sin" and k2 == "cos":
                    # sin a cos b = (sin(a+b) + sin(a-b)) / 2
                    out._accumulate("sin", fsum, c)
                    out._accumulate("sin", fdif, c)
                else:
                    # cos a sin b = (sin(a+b) - sin(a-b)) / 2
                    out._accumulate("sin", fsum, c)
                    out._accumulate("sin", fdif, -c)
        return out

    # ---- analysis -------------------------------------------------------
    def mean(self) -> float:
        """Exact time average (the DC coefficient)."""
        return self.terms.get(("cos", ()), 0.0)

    def mean_product(self, other: "TrigPoly") -> float:
        """Exact time average of ``self * other`` without expanding it.

        Only equal lines meet at DC: a cos/cos or sin/sin pair of one
        frequency contributes half the product of its coefficients, and the
        DC pair contributes it twice (cos 0 cos 0 = 1), in the order and
        with the rounding ``__mul__`` uses, so the value equals
        ``(self * other).mean()`` bit for bit."""
        total = 0.0
        for key, c1 in self.terms.items():
            c2 = other.terms.get(key)
            if c2 is None:
                continue
            c = 0.5 * c1 * c2
            total += c
            if not key[1]:
                total += c
        return total

    def antiderivative_zero_mean(self) -> "TrigPoly":
        """Primitive with zero time average.

        Raises ValueError when the integrand has a non-negligible DC
        component (a secular term would appear).
        """
        if not self.terms:
            return ZERO
        out = TrigPoly()
        for (kind, freq), coeff in self.terms.items():
            if not freq:
                if abs(coeff) > secular_tolerance:
                    raise ValueError(
                        "integrand has DC component %g; primitive would be secular"
                        % coeff
                    )
                continue
            w = freq_value(freq)
            if kind == "sin":
                # int sin(wt) = -cos(wt)/w   (zero mean)
                out._accumulate("cos", freq, -coeff / w)
            else:
                # int cos(wt) = sin(wt)/w    (zero mean)
                out._accumulate("sin", freq, coeff / w)
        return out

    def __call__(self, t: float) -> float:
        import math

        total = 0.0
        for (kind, freq), coeff in self.terms.items():
            w = freq_value(freq)
            total += coeff * (math.sin(w * t) if kind == "sin" else math.cos(w * t))
        return total

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        if not self.terms:
            return "TrigPoly(0)"
        bits = []
        for (kind, freq), coeff in sorted(self.terms.items()):
            if not freq:
                bits.append("%g" % coeff)
            else:
                parts = "+".join("%d*sqrt(%d)" % (c, r) for r, c in freq)
                bits.append("%g*%s((%s)t)" % (coeff, kind, parts))
        return "TrigPoly(" + " + ".join(bits) + ")"


ZERO = TrigPoly()
ZERO.terms = MappingProxyType({})
ONE = TrigPoly()
ONE.terms = MappingProxyType({("cos", ()): 1.0})


# ---- matrices of TrigPoly --------------------------------------------------

TrigMatrix = list  # list[list[TrigPoly]]


def zeros_matrix(n: int) -> TrigMatrix:
    return [[ZERO] * n for _ in range(n)]


def identity_matrix(n: int) -> TrigMatrix:
    m = zeros_matrix(n)
    for i in range(n):
        m[i][i] = ONE
    return m


def mat_add(a: TrigMatrix, b: TrigMatrix) -> TrigMatrix:
    n = len(a)
    return [[a[i][j] + b[i][j] for j in range(n)] for i in range(n)]


def mat_mul(a: TrigMatrix, b: TrigMatrix) -> TrigMatrix:
    n = len(a)
    out = zeros_matrix(n)
    for i in range(n):
        for k in range(n):
            aik = a[i][k]
            if not aik.terms:
                continue
            for j in range(n):
                if b[k][j].terms:
                    out[i][j] = out[i][j] + aik * b[k][j]
    return out


def mat_is_zero(a: TrigMatrix) -> bool:
    return not any(e.terms for row in a for e in row)


def mat_antiderivative(a: TrigMatrix) -> TrigMatrix:
    return [[e.antiderivative_zero_mean() for e in row] for row in a]


def transition_series(p: TrigMatrix) -> TrigMatrix:
    """Fundamental solution of dPhi/dt = P(t) Phi built term by term.

    Each Picard term uses the zero-mean primitive, so the whole series has
    time average equal to the identity.  For a strictly lower triangular
    P the series terminates after at most n-1 terms; after n + 1 terms
    non-nilpotent input raises ValueError.
    """
    n = len(p)
    phi = identity_matrix(n)
    term = identity_matrix(n)
    for _ in range(n + 1):
        term = mat_antiderivative(mat_mul(p, term))
        if mat_is_zero(term):
            return phi
        phi = mat_add(phi, term)
    if not mat_is_zero(mat_mul(p, term)):
        raise ValueError("transition series did not terminate; input not nilpotent")
    return phi


def inverse_of_unitriangular(phi: TrigMatrix) -> TrigMatrix:
    """Inverse of Phi = I + T with T nilpotent, via the alternating series."""
    n = len(phi)
    ident = identity_matrix(n)
    t = [[phi[i][j] - ident[i][j] for j in range(n)] for i in range(n)]
    inv = identity_matrix(n)
    power = ident
    sign = -1.0
    for _ in range(n + 1):
        power = mat_mul(power, t)
        if mat_is_zero(power):
            break
        inv = mat_add(inv, [[e.scaled(sign) for e in row] for row in power])
        sign = -sign
    return inv


def flow(p: TrigMatrix) -> Tuple[TrigMatrix, TrigMatrix]:
    """Phi of ``transition_series(p)`` and its inverse."""
    phi = transition_series(p)
    return phi, inverse_of_unitriangular(phi)


def conjugated_mean(a, p: TrigMatrix):
    """Exact time average of Phi(t)^-1 A Phi(t) for nilpotent periodic P.

    ``a`` is a plain numeric matrix; returns a numeric matrix (see
    ``mean_from_flow``).
    """
    return mean_from_flow(a, *flow(p))


def mean_from_flow(a, phi: TrigMatrix, phi_inv: TrigMatrix):
    """Exact time average of Phi(t)^-1 A Phi(t) given ``flow(p)``.

    A Phi is formed by scaled sums of the entries of Phi, and of Phi^-1
    (A Phi) only the DC of each entry is read (``TrigPoly.mean_product``),
    summed over the inner index in the order ``mat_mul`` adds its products,
    so the result equals the mean of the fully expanded product bit for bit.
    """
    import numpy as np

    n = len(phi)
    a_phi = zeros_matrix(n)
    for i in range(n):
        for k in range(n):
            aik = float(a[i][k])
            if aik == 0.0:
                continue
            for j in range(n):
                if phi[k][j].terms:
                    a_phi[i][j] = a_phi[i][j] + phi[k][j].scaled(aik)
    out = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            total = 0.0
            for k in range(n):
                total += phi_inv[i][k].mean_product(a_phi[k][j])
            out[i, j] = total
    return out
