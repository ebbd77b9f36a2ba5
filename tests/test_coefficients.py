from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from cedga.coefficients import NotAUnitError, gf2, laurent, rationals

Q = rationals()
F2 = gf2()
L = laurent("lam", "mu")


def test_gf2_characteristic_two():
    assert F2.add(F2.one(), F2.one()) == F2.zero()


def test_laurent_cancellation():
    lam, mu = L.parameter("lam"), L.parameter("mu")
    mu_lam = L.mul(mu, lam)
    assert L.add(L.sub(mu, mu_lam), mu_lam) == mu


def test_rational_product():
    assert Q.mul(Fraction(1, 2), Fraction(2, 3)) == Fraction(1, 3)


def test_inverse_laurent_monomial():
    lam = L.parameter("lam")
    inv = L.inverse(lam)
    assert L.mul(lam, inv) == L.one()
    assert inv == {(-1, 0): Fraction(1)}


def test_inverse_two_term_laurent_is_not_a_unit():
    lam = L.parameter("lam")
    with pytest.raises(NotAUnitError):
        L.inverse(L.add(L.one(), lam))


def test_inverse_rational():
    assert Q.inverse(Fraction(3, 4)) == Fraction(4, 3)


@pytest.mark.parametrize("ring", [Q, F2, L])
def test_inverse_of_zero_raises(ring):
    with pytest.raises(ZeroDivisionError):
        ring.inverse(ring.zero())


def test_parameters_must_be_distinct_identifiers():
    with pytest.raises(ValueError):
        laurent("lam", "lam")
    with pytest.raises(ValueError):
        laurent("2bad")
    with pytest.raises(ValueError):
        rationals().__class__("Q", ("lam",))


def test_ring_arith_methods():
    assert F2.add(1, 1) == 0
    assert Q.mul(Fraction(2), Fraction(3)) == Fraction(6)
    assert Q.neg(Fraction(2)) == Fraction(-2)


# -- ring laws, property-tested on small random values -----------------------

rational_values = st.fractions(min_value=-20, max_value=20, max_denominator=7)
gf2_values = st.integers(min_value=0, max_value=1)


@st.composite
def laurent_values(draw):
    n = draw(st.integers(min_value=0, max_value=3))
    out = L.zero()
    for _ in range(n):
        e = (draw(st.integers(-2, 2)), draw(st.integers(-2, 2)))
        c = draw(st.fractions(min_value=-9, max_value=9, max_denominator=4))
        out = L.add(out, L.monomial(e, c))
    return out


@pytest.mark.parametrize("ring,values", [
    (Q, rational_values),
    (F2, gf2_values),
    (L, laurent_values()),
], ids=["Q", "GF2", "laurent"])
def test_ring_laws(ring, values):
    @given(values, values, values)
    def laws(a, b, c):
        assert ring.add(a, b) == ring.add(b, a)
        assert ring.mul(a, b) == ring.mul(b, a)
        assert ring.add(ring.add(a, b), c) == ring.add(a, ring.add(b, c))
        assert ring.mul(ring.mul(a, b), c) == ring.mul(a, ring.mul(b, c))
        assert ring.mul(a, ring.add(b, c)) == \
            ring.add(ring.mul(a, b), ring.mul(a, c))
        assert ring.add(a, ring.neg(a)) == ring.zero()

    laws()


@given(laurent_values())
def test_laurent_inverse_law(a):
    if L.is_zero(a):
        return
    try:
        inv = L.inverse(a)
    except NotAUnitError:
        assert len(a) > 1
        return
    assert L.mul(a, inv) == L.one()


def test_laurent_format_is_exponent_sorted():
    lam, mu = L.parameter("lam"), L.parameter("mu")
    el = L.add(L.mul(mu, mu), L.sub(L.inverse(lam), L.one()))
    # lexicographic on exponent vectors: (-1,0) < (0,0) < (0,2)
    assert L.format(el) == "lam^-1 - 1 + mu^2"
