from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

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


# -- the value form: an int exactly when integral ------------------------------

# n/d with n in -9..9 and d in 1..12, also as Fraction(n, 1) and plain int
q_inputs = st.one_of(
    st.builds(Fraction, st.integers(-9, 9), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-9, 9)),
    st.integers(-9, 9))
l_inputs = st.dictionaries(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                           q_inputs.filter(bool), max_size=3)


def _canonical_q(v):
    return type(v) is (int if Fraction(v).denominator == 1 else Fraction)


def _canonical(ring, v):
    if ring is L:
        return all(c and _canonical_q(c) for c in v.values())
    return _canonical_q(v)


def _ref(ring, v):
    """v with every rational a Fraction, zero Laurent terms dropped."""
    if ring is L:
        return {e: Fraction(c) for e, c in v.items() if c}
    return Fraction(v)


def _ref_add(ring, a, b):
    if ring is Q:
        return Fraction(a) + Fraction(b)
    out = _ref(L, a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + Fraction(c)
    return {e: c for e, c in out.items() if c}


def _ref_mul(ring, a, b):
    if ring is Q:
        return Fraction(a) * Fraction(b)
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = (ea[0] + eb[0], ea[1] + eb[1])
            out[e] = out.get(e, 0) + Fraction(ca) * Fraction(cb)
    return {e: c for e, c in out.items() if c}


def _ref_add_into(ring, out, x, f):
    for k, c in x:
        s = _ref_add(ring, out.get(k, ring.zero()),
                     c if f is None else _ref_mul(ring, f, c))
        if s:
            out[k] = s
        else:
            out.pop(k, None)
    return out


@pytest.mark.parametrize("ring,values", [(Q, q_inputs), (L, l_inputs)],
                         ids=["Q", "laurent"])
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_values_are_canonical_and_equal_fraction_arithmetic(ring, values,
                                                            data):
    a, b, f = data.draw(values), data.draw(values), data.draw(values)
    n = data.draw(st.integers(-9, 9))
    minus, const_n = (-1, n) if ring is Q else ({(0, 0): -1}, {(0, 0): n})
    results = [(ring.add(a, b), _ref_add(ring, a, b)),
               (ring.mul(a, b), _ref_mul(ring, a, b)),
               (ring.neg(a), _ref_mul(ring, minus, a)),
               (ring.from_int(n), _ref(ring, const_n))]
    if ring is Q:
        results.append((ring.from_fraction(a), Fraction(a)))
        if a:
            results.append((ring.inverse(a), 1 / Fraction(a)))
    else:
        c = data.draw(q_inputs)
        results.append((ring.monomial((1, -1), c), _ref(L, {(1, -1): c})))
        results.append((ring.from_fraction(Fraction(c)),
                        _ref(L, {(0, 0): c})))
        if len(a) == 1:
            ((e, c),) = a.items()
            results.append((ring.inverse(a),
                            {(-e[0], -e[1]): 1 / Fraction(c)}))
    # sparse sums over a few keys, so terms meet, cancel and come back
    x = data.draw(st.lists(st.tuples(st.integers(0, 3), values), max_size=8))
    start = {k: ring.add(ring.zero(), v) for k, v in
             data.draw(st.dictionaries(st.integers(0, 3), values)).items()
             if v}
    for scale in (None, f):
        got = ring.add_into(dict(start), x, scale)
        want = _ref_add_into(ring, {k: _ref(ring, v) for k, v in
                                    start.items()}, x, scale)
        assert list(got.items()) == list(want.items())
        results += [(v, want[k]) for k, v in got.items()]
    for got, want in results:
        assert _canonical(ring, got)
        assert got == want


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 1)), max_size=8),
       st.dictionaries(st.integers(0, 3), st.just(1)),
       st.sampled_from((None, 0, 1)))
def test_gf2_add_into_is_the_mod_two_sum(x, start, f):
    want = dict(start)
    for k, c in x:
        if (want.get(k, 0) + (c if f is None else f * c)) % 2:
            want[k] = 1
        else:
            want.pop(k, None)
    got = F2.add_into(dict(start), x, f)
    assert list(got.items()) == list(want.items())
