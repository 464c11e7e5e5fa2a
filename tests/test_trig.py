import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from vibrosync import _trig


def sin_line(coeff, radicand=1, mult=1):
    return _trig.TrigPoly.sin_line(((radicand, mult),), coeff)


def cos_line(coeff, radicand=1, mult=1):
    return _trig.TrigPoly({("cos", ((radicand, mult),)): coeff})


def test_constant_and_eval():
    p = _trig.TrigPoly.constant(2.5)
    assert p.mean() == 2.5
    assert p(0.7) == 2.5
    assert not _trig.ZERO.terms


def test_sin_cos_product_to_sum():
    s = sin_line(1.0, radicand=2)  # sin(sqrt2 t)
    c = cos_line(1.0, radicand=2)
    prod = s * c  # = 0.5 sin(2 sqrt2 t), mean zero
    assert prod.mean() == pytest.approx(0.0, abs=1e-15)
    for t in (0.0, 0.3, 1.7):
        assert prod(t) == pytest.approx(0.5 * math.sin(2 * math.sqrt(2) * t))


def test_square_has_dc():
    s = sin_line(3.0)
    sq = s * s  # 9 sin^2 t = 4.5 - 4.5 cos 2t
    assert sq.mean() == pytest.approx(4.5)
    assert sq(0.25) == pytest.approx(9 * math.sin(0.25) ** 2)


def test_incommensurable_products_have_no_dc():
    # frequencies 1 and sqrt2 are rationally independent: no DC appears
    assert (sin_line(1.0, radicand=1) * sin_line(1.0, radicand=2)).mean() == 0.0
    # identical irrational frequencies do interfere
    assert (sin_line(1.0, radicand=2) * sin_line(1.0, radicand=2)).mean() == \
        pytest.approx(0.5)


def test_antiderivative_zero_mean():
    s = sin_line(2.0, radicand=2)
    F = s.antiderivative_zero_mean()
    assert F.mean() == pytest.approx(0.0, abs=1e-15)
    beta = math.sqrt(2)
    for t in (0.1, 0.9):  # F = -(2/beta) cos(beta t)
        assert F(t) == pytest.approx(-2 / beta * math.cos(beta * t))
    with pytest.raises(ValueError):
        _trig.TrigPoly.constant(1.0).antiderivative_zero_mean()


def test_zero_and_one_are_shared_and_read_only():
    # results share operands: a sum with ZERO, and ZERO scaled or integrated,
    # allocate nothing, and the shared constants refuse the accumulation
    # only a fresh polynomial may take
    a = sin_line(2.0, radicand=2)
    zero = _trig.ZERO
    assert a + zero is a and zero + a is a and a - zero is a
    assert (zero - a).terms == {("sin", ((2, 1),)): -2.0}
    assert zero.scaled(3.0) is zero and a.scaled(0.0) is zero
    assert zero.antiderivative_zero_mean() is zero
    assert all(e is zero for row in _trig.zeros_matrix(3) for e in row)
    ident = _trig.identity_matrix(2)
    assert ident[0][0] is ident[1][1] is _trig.ONE and ident[0][1] is zero
    for shared in (zero, _trig.ONE):
        with pytest.raises(TypeError):
            shared._accumulate("cos", (), 1.0)
    assert zero.terms == {} and _trig.ONE.terms == {("cos", ()): 1.0}


def test_squarefree_radicands_sequence():
    gen = _trig.squarefree_radicands()
    got = [next(gen) for _ in range(8)]
    assert got == [1, 2, 3, 5, 6, 7, 10, 11]


def test_transition_series_single_line_and_conjugated_mean():
    # one vibration line u sin(beta t) on slot (1, 0)
    u, beta = 1.0, 1.0
    p = _trig.zeros_matrix(2)
    p[1][0] = sin_line(u, radicand=1)
    phi = _trig.transition_series(p)
    # zero-mean primitive convention: phi[1][0] = -(u/beta) cos(beta t)
    t = 0.6
    assert phi[0][0](t) == pytest.approx(1.0)
    assert phi[1][1](t) == pytest.approx(1.0)
    assert phi[0][1](t) == pytest.approx(0.0)
    assert phi[1][0](t) == pytest.approx(-(u / beta) * math.cos(beta * t))

    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    mean = _trig.conjugated_mean(a, p)
    # closed form: averaged (1,0) entry is -a01 u^2 / (2 beta^2) = -0.5
    assert mean[1, 0] == pytest.approx(-0.5, abs=1e-12)
    assert mean[0, 1] == pytest.approx(1.0)
    assert mean[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert mean[1, 1] == pytest.approx(0.0, abs=1e-12)


def test_conjugated_mean_amplitude_and_frequency_scaling():
    a = np.array([[0.0, -2.0], [0.0, 0.0]])
    for u, rad in ((1.5, 1), (0.7, 2)):
        p = _trig.zeros_matrix(2)
        p[1][0] = sin_line(u, radicand=rad)
        mean = _trig.conjugated_mean(a, p)
        assert mean[1, 0] == pytest.approx(2.0 * u ** 2 / (2 * rad), abs=1e-12)


def test_transition_series_raises_on_non_nilpotent():
    p = _trig.zeros_matrix(2)
    p[1][0] = sin_line(1.0, radicand=1)
    p[0][1] = sin_line(1.0, radicand=1)
    with pytest.raises(ValueError):
        _trig.transition_series(p)


def test_inverse_of_unitriangular():
    p = _trig.zeros_matrix(3)
    p[1][0] = sin_line(0.8, radicand=2)
    p[2][1] = sin_line(1.3, radicand=3)
    phi = _trig.transition_series(p)
    inv = _trig.inverse_of_unitriangular(phi)
    prod = _trig.mat_mul(inv, phi)
    ident = _trig.identity_matrix(3)
    for i in range(3):
        for j in range(3):
            diff = prod[i][j] - ident[i][j]
            for t in (0.0, 0.4, 2.2):
                assert abs(diff(t)) < 1e-10


# frequencies the random polynomials share: single radicands, multiples and
# mixed combinations; () is the DC line
freqs = st.sampled_from([(), ((1, 1),), ((1, 2),), ((2, 1),), ((1, 1), (2, -1)),
                         ((2, 1), (3, 1)), ((5, 3),)])
lines = st.tuples(st.sampled_from(["cos", "sin"]), freqs,
                  st.floats(-10.0, 10.0, allow_nan=False).filter(lambda c: c != 0.0))


def trig_poly(terms):
    p = _trig.ZERO
    for kind, freq, coeff in terms:
        p = p + _trig.TrigPoly({(kind, freq): coeff})
    return p


@settings(max_examples=300, deadline=None, database=None)
@given(f=st.lists(lines, max_size=6), g=st.lists(lines, max_size=6))
def test_mean_product_is_the_mean_of_the_expanded_product(f, g):
    f, g = trig_poly(f), trig_poly(g)
    want = (f * g).mean()
    assert f.mean_product(g) == pytest.approx(want, rel=1e-14, abs=1e-15)
    assert f.mean_product(g) == want  # the same sums in the same order


@settings(max_examples=40, deadline=None, database=None)
@given(n=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_conjugated_mean_equals_the_mean_of_the_expanded_product(n, seed):
    rng = np.random.default_rng(seed)
    p = _trig.zeros_matrix(n)
    radicands = _trig.squarefree_radicands()
    for _ in range(int(rng.integers(1, 4))):
        row = int(rng.integers(1, n))
        col = int(rng.integers(0, row))
        p[row][col] = p[row][col] + sin_line(float(rng.uniform(0.2, 2.0)), next(radicands))
    a = rng.normal(size=(n, n)) * (rng.random((n, n)) < 0.7)
    phi = _trig.transition_series(p)
    phi_inv = _trig.inverse_of_unitriangular(phi)
    a_sym = [[_trig.TrigPoly.constant(float(a[i, j])) for j in range(n)] for i in range(n)]
    full = _trig.mat_mul(phi_inv, _trig.mat_mul(a_sym, phi))
    expanded = np.array([[e.mean() for e in row] for row in full])
    assert np.array_equal(_trig.conjugated_mean(a, p), expanded)
