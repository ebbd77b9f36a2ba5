"""Sparse sums against the inline loops they replaced.

Presentation.mul goes through CoeffRing.add_into, and d_word and
apply_differential through one Leibniz loop; the references below are
the inline accumulate loops they replaced, and the new code must agree
with them term for term and in the same key order, so that nothing that
iterates over a sum can tell the two apart.  LinearSolver eliminates on
one integer dict per column, its row on keys >= 0 and its combination of
the columns on keys < 0; its reference is the Fraction elimination it
replaced, which keeps (row, combination) pairs.  Split into pairs, the
two must store the same pairs up to a rational factor and return the
same solutions, whatever order the items of a column come in.
"""
import copy
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cedga import Presentation, gf2, laurent, rationals
from cedga.analysis import LinearSolver

RINGS = (rationals(), gf2(), laurent("t"))


def _ref_accumulate(ring, out, w, c):
    s = ring.add(out.get(w, ring.zero()), c)
    if ring.is_zero(s):
        out.pop(w, None)
    else:
        out[w] = s


def _ref_mul(P, x, y):
    out = {}
    for wx, cx in x.items():
        for wy, cy in y.items():
            w = P.concat(wx, wy)
            if w is not None:
                _ref_accumulate(P.ring, out, w, P.ring.mul(cx, cy))
    return out


def _ref_d_word(P, w):
    if isinstance(w, int):
        return {}
    out = {}
    sign_exp = 0
    for t in range(len(w)):
        dg = P.d_gen(w[t])
        if dg:
            sign = P.ring.sign_pow(sign_exp)
            prefix, suffix = w[:t], w[t + 1:]
            for dw, dc in dg.items():
                mid = () if isinstance(dw, int) else dw
                nw = prefix + mid + suffix
                if not nw:
                    nw = dw
                _ref_accumulate(P.ring, out, nw, P.ring.mul(sign, dc))
        sign_exp += P.generators[w[t]].degree
    return out


def _ref_apply_differential(P, x):
    out = {}
    for w, c in x.items():
        for dw, dc in _ref_d_word(P, w).items():
            _ref_accumulate(P.ring, out, dw, P.ring.mul(c, dc))
    return out


class _RefSolver:
    """The Fraction column echelon that LinearSolver's integer rows
    replaced, in full: every step is ring arithmetic on Fraction or GF(2)
    values."""

    def __init__(self, ring):
        self.ring = ring
        self._row_ids = {}
        self._basis = {}  # lead row id -> (vec, combo)

    def _intern(self, raw):
        vec = {}
        for key, c in raw.items():
            if not self.ring.is_zero(c):
                vec[self._row_ids.setdefault(key, len(self._row_ids))] = c
        return vec

    def _reduce(self, vec, combo):
        ring = self.ring
        while vec:
            lead = max(vec)
            hit = self._basis.get(lead)
            if hit is None:
                return vec, combo, lead
            bvec, bcombo = hit
            f = ring.div(vec[lead], bvec[lead])
            for k, c in bvec.items():
                s = ring.sub(vec.get(k, ring.zero()), ring.mul(f, c))
                if ring.is_zero(s):
                    vec.pop(k, None)
                else:
                    vec[k] = s
            for k, c in bcombo.items():
                s = ring.sub(combo.get(k, ring.zero()), ring.mul(f, c))
                if ring.is_zero(s):
                    combo.pop(k, None)
                else:
                    combo[k] = s
        return vec, combo, None

    def add_column(self, tag, raw_vec):
        vec, combo, lead = self._reduce(self._intern(raw_vec),
                                        {tag: self.ring.one()})
        if lead is not None:
            self._basis[lead] = (vec, combo)

    def solve(self, raw_rhs):
        vec, combo, lead = self._reduce(self._intern(raw_rhs), {})
        if lead is not None:
            return None
        return {tag: self.ring.neg(c) for tag, c in combo.items()}


def _pairs(solver):
    """lead row label -> (row by label, combination): the one place that
    reads a solver's stored columns.  LinearSolver keeps each as one dict,
    its row on keys >= 0 and its combination on keys ~n < 0 for tag
    `_tags[n]`; _RefSolver keeps (vec, combo) pairs."""
    label = {rid: key for key, rid in solver._row_ids.items()}
    if isinstance(solver, _RefSolver):
        return {label[lead]: ({label[r]: c for r, c in vec.items()}, combo)
                for lead, (vec, combo) in solver._basis.items()}
    return {label[lead]: ({label[k]: c for k, c in row.items() if k >= 0},
                          {solver._tags[~k]: c for k, c in row.items()
                           if k < 0})
            for lead, row in solver._basis.items()}


def _assert_same_echelon(ring, new, ref):
    """Same lead labels; over Q each pair a nonzero rational multiple of
    the reference pair, in primitive integers; over GF(2) equal pairs."""
    got, want = _pairs(new), _pairs(ref)
    assert got.keys() == want.keys()
    for lead, (vec, combo) in want.items():
        nvec, ncombo = got[lead]
        if ring == gf2():
            assert (nvec, ncombo) == (vec, combo)
            continue
        assert nvec.keys() == vec.keys() and ncombo.keys() == combo.keys()
        r = Fraction(nvec[lead]) / vec[lead]
        assert all(nvec[k] == r * c for k, c in vec.items())
        assert all(ncombo[k] == r * c for k, c in combo.items())
        values = [*nvec.values(), *ncombo.values()]
        assert all(type(c) is int for c in values)
        assert math.gcd(*values) == 1


def _canonical(x):
    """Every rational of x, a value or a Laurent value's coefficient, is
    an int when integral: no Fraction(n, 1)."""
    return all(_canonical(c) if type(c) is dict
               else type(c) is int or c.denominator != 1
               for c in x.values())


def _coeff(draw, ring):
    """A coefficient, zero with fair probability; a Laurent one sums
    monomials whose coefficients are halves."""
    if ring == gf2():
        return draw(st.integers(0, 1))
    if ring == rationals():
        return Fraction(draw(st.integers(-2, 2)),
                        draw(st.sampled_from((1, 2))))
    c = ring.zero()
    for _ in range(draw(st.integers(0, 2))):
        c = ring.add(c, ring.monomial((draw(st.integers(-1, 1)),),
                                      Fraction(draw(st.integers(-4, 4)), 2)))
    return c


@st.composite
def presentations(draw):
    """A random presentation with a pool of composable words: 1-3
    idempotents, 2-6 letters, differentials drawn from the pool."""
    P = Presentation(draw(st.sampled_from(RINGS)))
    n = draw(st.integers(1, 3))
    for i in range(n):
        P.add_idempotent(f"e{i}")
    for k in range(draw(st.integers(2, 6))):
        P.add_generator(f"g{k}", draw(st.integers(-1, 1)),
                        draw(st.integers(0, n - 1)),
                        draw(st.integers(0, n - 1)))
    pool = list(range(n))
    for _ in range(12):
        w, cur = (), draw(st.integers(0, n - 1))
        for _ in range(draw(st.integers(1, 3))):
            options = [g.index for g in P.generators if g.target == cur]
            if not options:
                break
            w += (draw(st.sampled_from(options)),)
            cur = P.generators[w[-1]].source
        if w and w not in pool:
            pool.append(w)

    def element():
        # few words from a small pool, so sums cancel; raw zero
        # coefficients are kept in the inputs on purpose
        return {draw(st.sampled_from(pool)): _coeff(draw, P.ring)
                for _ in range(draw(st.integers(0, 4)))}

    for g in P.generators:
        P.differential[g.index] = element()
    return P, pool, element


@pytest.mark.parametrize("scaled", [False, True])
@pytest.mark.parametrize("ring", RINGS, ids=["Q", "GF2", "laurent"])
def test_add_into_key_order_is_that_of_the_inline_loop(ring, scaled):
    """A zero addend leaves its key in place (a), a repeated key whose sum
    stays nonzero keeps its place (d), and a key that cancels and comes
    back goes last (b).  Scaled, the addends are negated and f = -1.  No
    coefficient that was given, in `out` or in the addends, changes."""
    if ring == gf2():
        x = [("a", 0), ("d", 1), ("d", 0), ("b", 1), ("b", 1), ("e", 1)]
        want = [("a", 1), ("c", 1), ("d", 1), ("b", 1), ("e", 1)]
    else:
        x = [("a", 0), ("d", 1), ("d", Fraction(-1, 2)), ("b", -1),
             ("b", Fraction(1, 2)), ("e", Fraction(3, 1))]
        want = [("a", 1), ("c", 1), ("d", Fraction(1, 2)),
                ("b", Fraction(1, 2)), ("e", 3)]
    start = [("a", 1), ("b", 1), ("c", 1)]
    if ring == laurent("t"):
        # rational constants, and a t-term on d that every addend leaves
        constant = ring.from_fraction
        x = [(k, constant(c)) for k, c in x]
        want = [(k, constant(c)) for k, c in want]
        start = [(k, constant(c)) for k, c in start]
        t = ring.parameter("t")
        x[1] = ("d", ring.add(x[1][1], t))
        want[2] = ("d", ring.add(want[2][1], t))
    f = None
    if scaled:
        f = ring.from_int(-1)
        x = [(k, ring.mul(f, c)) for k, c in x]
    given = [copy.deepcopy(c) for _, c in start + x]
    out = dict(start)
    ring.add_into(out, x, f)
    assert list(out.items()) == want
    assert [type(c) for c in out.values()] == [type(c) for _, c in want]
    if ring == laurent("t"):
        assert [[type(a) for a in c.values()] for c in out.values()] == [
            [type(a) for a in c.values()] for _, c in want]
    assert [c for _, c in start + x] == given


def test_a_word_whose_leibniz_terms_repeat_adds_its_differential_whole():
    """d(a*a*b) = -2 a*a*b - a*a*a holds a*a*b in two Leibniz terms.  Added
    to d(a*b*b) one term at a time, the first would cancel the a*a*b of
    d(a*b*b) and the second would bring it back after a*b*a; added as d(w)
    whole, a*a*b keeps its place."""
    P = Presentation(rationals())
    P.add_idempotent("e1")
    for name in ("a", "b"):
        P.add_generator(name, 0, "e1", "e1")
    a = (0,)
    P.set_differential("a", {a: -1})
    P.set_differential("b", {a: -1})
    x = {(0, 1, 1): 1, (0, 0, 1): -1}
    got = list(P.apply_differential(x).items())
    assert got == list(_ref_apply_differential(P, x).items())
    assert got == [((0, 1, 1), -1), ((0, 0, 1), 1), ((0, 1, 0), -1),
                   ((0, 0, 0), 1)]


def _staging_case(ring, case):
    """(P, el) for one case of the staging lemma.  In the first three,
    el's first word y leaves a word K in the sum, then d of its second
    word holds K in two Leibniz terms that bring it to 0 and back one at
    a time (over GF(2) they cancel), so adding them straight into the sum
    would move K last.  Differentials are constants; el's coefficients
    are multiples of t over the Laurent ring."""
    def const(n):
        return ring.from_int(n)

    def coeff(n):
        return ring.monomial((1,), n) if ring == laurent("t") else const(n)

    P = Presentation(ring)
    e1 = P.add_idempotent("e1").index
    e2 = P.add_idempotent("e2").index
    names = ("a", "b", "x", "y", "z")
    a, b, x, y, z = ((P.add_generator(name, 1 if name == "b" else 0,
                                      "e1", "e1").index,)
                     for name in names)
    d = {name: {} for name in names}
    if case == "idempotent":
        # d(b*a*a) = x*x*a*a - 2 b*a: b has degree 1, and d a = e1 twice
        d["a"], d["b"] = {e1: const(1)}, {x + x: const(1)}
        d["y"] = {b + a: const(1), x: const(1)}
        el = {y: coeff(1), b + a + a: coeff(1)}
    elif case == "self-leading":
        # d(a*b) = 2 a*x*b, the first from d a = a*x, which starts with a
        d["a"], d["b"] = {a + x: const(1)}, {x + b: const(1)}
        d["y"] = {a + x + b: const(-1), x: const(1)}
        el = {y: coeff(1), a + b: coeff(1)}
    elif case == "two idempotents":
        # d a = e1 + e2 fails validation: d(a*b) = 2 b
        d["a"] = {e1: const(1), e2: const(1)}
        d["y"] = {b: const(-1), x: const(1)}
        el = {y: coeff(1), a + b: coeff(1)}
    else:
        # raw zeros: z's coefficient in x, and the idempotent term that
        # starts the apart sum of d(a*b)
        d["a"], d["b"] = {e1: const(0), x: const(1)}, {x: const(0)}
        d["y"] = {x + b: const(-1), b: const(1)}
        d["z"] = {x + b: const(1), b: const(1)}
        el = {y: coeff(1), z: coeff(0), a + b: coeff(1)}
    for name, value in d.items():
        P.differential[P.gen(name).index] = value
    return P, el


@pytest.mark.parametrize("case", ["idempotent", "self-leading",
                                  "two idempotents", "raw zeros"])
@pytest.mark.parametrize("ring", RINGS, ids=["Q", "GF2", "laurent"])
def test_the_terms_that_may_repeat_are_summed_apart(ring, case):
    """Only a term that is idempotent or whose dw starts with its own
    letter can share its word with a later term of d(w); from the first
    such term on, d(w) is summed apart, and the sum keeps the order that
    adding each d(w) whole gives."""
    P, x = _staging_case(ring, case)
    got = list(P.apply_differential(x).items())
    assert got == list(_ref_apply_differential(P, x).items())
    assert _canonical(dict(got))


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_products_and_differentials_match_the_inline_loops(data):
    P, pool, element = data.draw(presentations())
    x, y = element(), element()
    xy = P.mul(x, y)
    assert list(xy.items()) == list(_ref_mul(P, x, y).items())
    assert _canonical(xy)
    for w in pool:
        dw = P.d_word(w)
        assert list(dw.items()) == list(_ref_d_word(P, w).items())
        assert _canonical(dw)
    dx = P.apply_differential(x)
    assert list(dx.items()) == list(_ref_apply_differential(P, x).items())
    assert _canonical(dx)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_the_differential_of_one_word_is_its_d_word_scaled(data):
    """apply_differential({w: c}) is scale(c, d_word(w)), keys in the
    same order: one word added into an empty sum is added whole."""
    P, pool, _ = data.draw(presentations())
    w = data.draw(st.sampled_from(pool))
    c = _coeff(data.draw, P.ring)
    got = P.apply_differential({w: c})
    assert list(got.items()) == list(P.scale(c, P.d_word(w)).items())


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_solver_matches_the_inline_elimination(data):
    P, pool, element = data.draw(presentations().filter(
        lambda case: case[0].ring.is_field()))
    new, ref = LinearSolver(P.ring), _RefSolver(P.ring)
    for k in range(data.draw(st.integers(0, 8))):
        w = data.draw(st.sampled_from(pool))
        col = P.d_word(w) if data.draw(st.booleans()) else element()
        new.add_column((k, w), col)
        ref.add_column((k, w), col)
    _assert_same_echelon(P.ring, new, ref)
    for rhs in (element(), P.apply_differential(element())):
        x = new.solve(rhs)
        assert x == ref.solve(rhs)
        assert x is None or _canonical(x)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_solver_solves_wide_rational_and_gf2_systems_exactly(data):
    """Up to 30 columns over at most 14 rows, coefficients n/d with
    n in -9..9 and d in 1..12 over Q; half the right hand sides lie in
    the span.  A solution must satisfy A x = b exactly."""
    draw = data.draw
    ring = draw(st.sampled_from((rationals(), gf2())))
    rows = draw(st.integers(1, 14))

    def coeff():
        if ring == gf2():
            return draw(st.integers(0, 1))
        return Fraction(draw(st.integers(-9, 9)), draw(st.integers(1, 12)))

    def vector():
        return {("r", draw(st.integers(0, rows - 1))): coeff()
                for _ in range(draw(st.integers(0, 6)))}

    cols = [vector() for _ in range(draw(st.integers(0, 30)))]
    new, ref = LinearSolver(ring), _RefSolver(ring)
    for k, col in enumerate(cols):
        new.add_column(k, col)
        ref.add_column(k, col)
    _assert_same_echelon(ring, new, ref)
    for _ in range(3):
        in_span = bool(cols) and draw(st.booleans())
        if in_span:
            rhs = {}
            for col in cols:
                ring.add_into(rhs, col.items(), coeff())
        else:
            rhs = vector()
        x = new.solve(rhs)
        assert x == ref.solve(rhs)
        assert x is not None or not in_span
        assert x is None or _canonical(x)
        if x is not None:
            ax = {}
            for k, c in x.items():
                ring.add_into(ax, cols[k].items(), c)
            assert ax == {r: c for r, c in rhs.items() if not ring.is_zero(c)}


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_row_numbering_does_not_change_the_solution(data):
    """Rows are numbered in the order their labels are first seen, so
    shuffling the items of every column and of the right hand side numbers
    them differently.  The pivot columns are still the greedy basis (each
    column independent of those before it), so every solve gives the same
    answer."""
    draw = data.draw
    ring = draw(st.sampled_from((rationals(), gf2())))
    rows = draw(st.integers(1, 10))

    def coeff():
        if ring == gf2():
            return draw(st.integers(0, 1))
        return Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))

    def vector():
        return {("r", draw(st.integers(0, rows - 1))): coeff()
                for _ in range(draw(st.integers(0, 5)))}

    def shuffled(x):
        return dict(draw(st.permutations(list(x.items()))))

    cols = [vector() for _ in range(draw(st.integers(0, 20)))]
    rhss = []
    for _ in range(3):
        rhs = vector()
        if cols and draw(st.booleans()):
            for col in cols:
                ring.add_into(rhs, col.items(), coeff())
        rhss.append(rhs)
    plain, mixed = LinearSolver(ring), LinearSolver(ring)
    for k, col in enumerate(cols):
        plain.add_column(k, col)
        mixed.add_column(k, shuffled(col))
    for rhs in rhss:
        assert mixed.solve(shuffled(rhs)) == plain.solve(rhs)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_a_followed_right_side_resolves_at_the_shortest_spanning_prefix(data):
    """A solver that follows the right hand side reports it resolved after
    exactly the columns whose span first holds it (the reference solves
    it on every prefix), and stopping there or adding every column, it
    solves to what the full solve that never followed it gives.  Items
    come shuffled, so the rows are numbered in another order."""
    draw = data.draw
    ring = draw(st.sampled_from((rationals(), gf2())))
    rows = draw(st.integers(1, 8))

    def coeff():
        if ring == gf2():
            return draw(st.integers(0, 1))
        return Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))

    def vector():
        return {("r", draw(st.integers(0, rows - 1))): coeff()
                for _ in range(draw(st.integers(0, 4)))}

    def shuffled(x):
        return dict(draw(st.permutations(list(x.items()))))

    cols = [vector() for _ in range(draw(st.integers(0, 16)))]
    rhs = vector()
    if cols and draw(st.booleans()):
        for col in cols[:draw(st.integers(1, len(cols)))]:
            ring.add_into(rhs, col.items(), coeff())
    ref = _RefSolver(ring)
    in_span = [ref.solve(rhs) is not None]
    for k, col in enumerate(cols):
        ref.add_column(k, col)
        in_span.append(ref.solve(rhs) is not None)
    full, followed, stopped = (LinearSolver(ring) for _ in range(3))
    resolved = [followed.follow(shuffled(rhs))]
    done = stopped.follow(rhs)
    for k, col in enumerate(cols):
        full.add_column(k, col)
        resolved.append(followed.add_column(k, shuffled(col)))
        if not done:
            done = stopped.add_column(k, col)
    assert resolved == in_span
    want = full.solve(rhs)
    assert (want is None) == (not in_span[-1])
    assert followed.solve(shuffled(rhs)) == want
    assert stopped.solve(rhs) == want
    assert want is None or _canonical(want)


@pytest.mark.parametrize("ring", [rationals(), gf2()])
def test_a_side_with_a_label_no_column_numbered_is_outside_the_span(ring):
    """No column can cancel an entry on a label that none of them has, so
    such a right side solves to None, and the solve numbers no row id;
    followed first or not, and whether or not later columns number some
    of its other labels."""
    solver = LinearSolver(ring)
    solver.add_column("c0", {"r0": ring.one(), "r1": ring.one()})
    ids = dict(solver._row_ids)
    assert solver.solve({"r0": ring.one(), "new": ring.one()}) is None
    assert solver._row_ids == ids
    assert not solver.follow({"r2": ring.one(), "new": ring.one()})
    assert not solver.add_column("c1", {"r2": ring.one()})
    ids = dict(solver._row_ids)
    assert solver.solve({"r2": ring.one(), "new": ring.one()}) is None
    assert solver._row_ids == ids
    assert solver.solve({"r2": ring.one()}) == {"c1": 1}
