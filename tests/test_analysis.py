import functools
import itertools
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings, strategies as st

from cedga import (Bounds, GenMap, NonHomogeneousTargetError, Presentation,
                   PresentationError, UnsupportedPresentationError,
                   check_d_squared, check_degree, check_parity_flip,
                   composable_words, example, exactness_search, gf2, h0,
                   is_trivial, laurent, make_point_algebra, rationals,
                   verify_chain_map)
from cedga import analysis
from cedga.analysis import (ExactnessResult, LinearSolver, RewriteSystem,
                            count_words, letter_weights, word_weight)
from cedga.dsl import parse_element

F2 = gf2()
BOUNDS5 = Bounds(max_word_length=5, max_level=2)


def _simple(ring=None):
    P = Presentation(ring or rationals())
    P.add_idempotent("e1")
    return P


def _canonical_witness(res):
    """Every witness coefficient is an int when integral: no Fraction(n, 1)."""
    return all(type(c) is int or c.denominator != 1
               for c in res.witness.values())


def test_d_squared_pass_i3():
    assert check_d_squared(make_point_algebra(3, (0, 0, 0), 2, F2)).ok


def test_d_squared_counterexample():
    P = _simple()
    b = P.add_generator("b", 1, "e1", "e1")
    a = P.add_generator("a", 0, "e1", "e1")
    P.set_differential(b, P.el_word([b, b]))  # degrees: 2 = 1 + 1
    P.set_differential(a, P.el_gen(b))
    rep = check_d_squared(P)
    assert not rep.ok
    assert rep.counterexamples[0][0] == "a"


def test_d_squared_all_zero_differential():
    P = _simple()
    a = P.add_generator("a", 0, "e1", "e1")
    P.set_differential(a, P.zero())
    assert check_d_squared(P).ok


def test_d_squared_closed_under_truncation():
    # differential-closed truncation: passing at p_max 2 passes at p_max 1
    for p_max in (1, 2):
        assert check_d_squared(make_point_algebra(3, (0, 0, 0), p_max, F2)).ok


def test_parity_flip_seeded_violation():
    P = _simple(F2)
    b = P.add_generator("b", 0, "e1", "e1")
    c = P.add_generator("c", 1, "e1", "e1")
    d = P.add_generator("d", 1, "e1", "e1")
    a = P.add_generator("a", 0, "e1", "e1")
    for g in (b, c, d):
        P.set_differential(g, P.zero())
    P.set_differential(a, P.add(P.el_word([b, c]), P.el_gen(d)))
    rep = check_parity_flip(P)
    assert not rep.ok
    assert rep.witness == ("a", "d")


def test_parity_flip_refuses_a_presentation_that_fails_validation():
    # x has no differential and x*x has degree 0, not deg(a) + 1 = 6
    P = _simple()
    x = P.add_generator("x", 0, "e1", "e1")
    a = P.add_generator("a", 5, "e1", "e1")
    P.set_differential(a, P.el_word([x, x]))
    with pytest.raises(PresentationError,
                       match="missing-differential at x: no diff statement; "
                             "degree at a: word x\\*x has degree 0, "
                             "expected 6"):
        check_parity_flip(P)


def test_check_degree_reports_misgrading():
    P = _simple()
    t = P.add_generator("t", 0, "e1", "e1")
    a = P.add_generator("a", 1, "e1", "e1")
    P.set_differential(t, P.zero())
    P.differential[a.index] = {(t.index, t.index): P.ring.one()}  # degree 0, not 2
    rep = check_degree(P)
    assert not rep.ok and "a" in rep.violations[0]


def test_exactness_trivial_target():
    P = _simple()
    a = P.add_generator("a", -1, "e1", "e1")
    P.set_differential(a, P.el_idem("e1"))
    res = exactness_search(P, P.one(), BOUNDS5)
    assert res.status == "witness" and res.witness == P.el_gen("a")
    assert _canonical_witness(res)


def test_exactness_i3_idempotent_not_bounded_exact():
    P = make_point_algebra(3, (0, 0, 0), p_max=2, ring=F2)
    res = exactness_search(P, P.el_idem("e1"), BOUNDS5)
    assert res.status == "none_within_bounds"
    assert res.candidates > 0


def test_exactness_unknot_witness():
    P = example("unknot_one_handle").main
    target = P.sub(P.el_idem("e1"), P.el_word(["t1_21", "t0_12"]))
    # d t1_11 = e - t1_21*t0_12, so t1_11 is a witness by construction
    assert P.apply_differential(P.el_word(["t1_11"])) == target
    res = exactness_search(P, target, BOUNDS5)
    assert res.status == "witness"
    assert P.apply_differential(res.witness) == target
    assert res.witness == P.el_word(["t1_11"])
    assert _canonical_witness(res)


def test_exactness_rejects_inhomogeneous_target():
    P = example("unknot_one_handle").main
    bad = P.add(P.el_idem("e1"), P.el_word(["t1_11"]))
    with pytest.raises(NonHomogeneousTargetError):
        exactness_search(P, bad, BOUNDS5)


def test_zero_coefficients_are_dropped_from_the_target():
    """A target whose coefficients are all zero is the zero target, and a
    zero term of another degree does not make a target inhomogeneous."""
    P = example("unknot_one_handle").main
    (t0_12,), (t1_11,) = P.el_word(["t0_12"]), P.el_word(["t1_11"])
    with pytest.raises(NonHomogeneousTargetError, match="target is zero"):
        exactness_search(P, {t0_12: 0}, BOUNDS5)
    target = P.sub(P.el_idem("e1"), P.el_word(["t1_21", "t0_12"]))
    res = exactness_search(P, {**target, t1_11: 0}, BOUNDS5)
    assert res.status == "witness" and res.target == target
    assert res.witness == P.el_word(["t1_11"])


@pytest.mark.parametrize("enter,match", [
    (lambda P: Bounds(max_level=1.5), "bound max_level must be an int"),
    (lambda P: Bounds(max_word_length=True),
     "bound max_word_length must be an int"),
    (lambda P: Bounds(max_word_length=2.5),
     "bound max_word_length must be an int"),
    (lambda P: Bounds(degree_bound="8"), "bound degree_bound must be an int"),
    (lambda P: Bounds(max_level=-1), "bounds must be nonnegative"),
    (lambda P: h0(P, -1), "bounds must be nonnegative"),
    (lambda P: h0(P, True), "bound degree_bound must be an int, not True"),
    (lambda P: h0(P, 2.5), "bound degree_bound must be an int, not 2.5"),
    (lambda P: exactness_search(P, P.one(), BOUNDS5, parity="bogus"),
     "parity must be None, 'even' or 'odd', not 'bogus'"),
    (lambda P: is_trivial(P, BOUNDS5, parity=1),
     "parity must be None, 'even' or 'odd', not 1"),
], ids=["float-level", "bool-length", "float-length", "str-degree-bound",
        "negative-level", "h0-negative-bound", "h0-bool-bound",
        "h0-float-bound", "exact-parity", "trivial-parity"])
def test_bounds_and_parity_are_checked_where_they_enter(enter, match):
    with pytest.raises(ValueError, match=match):
        enter(example("unknot_one_handle").main)


def test_parity_filter_restricts_search_space():
    P = make_point_algebra(3, (0, 0, 0), p_max=2, ring=F2)
    ends = {(0, 0)}
    odd = composable_words(P, degree=-1, ends=ends, max_len=5, max_level=2,
                           parity=1)
    assert odd and all(len(w) % 2 == 1 for w in odd)
    even = composable_words(P, degree=-1, ends=ends, max_len=5, max_level=2,
                            parity=0)
    assert all(len(w) % 2 == 0 for w in even)
    both = composable_words(P, degree=-1, ends=ends, max_len=5, max_level=2)
    assert len(both) == len(odd) + len(even)


def test_is_trivial_certifies_and_refuses():
    P = _simple()
    a = P.add_generator("a", -1, "e1", "e1")
    P.set_differential(a, P.el_idem("e1"))
    res = is_trivial(P, BOUNDS5)
    assert res.certified_trivial
    assert P.apply_differential(res.search.witness) == P.one()
    assert _canonical_witness(res.search)

    assert not is_trivial(make_point_algebra(3, (0, 0, 0), 2, F2),
                          BOUNDS5).certified_trivial
    assert not is_trivial(example("unknot_one_handle").main,
                          BOUNDS5).certified_trivial


def test_an_unsound_witness_is_refused(monkeypatch):
    """A solver combination that is not a witness never becomes one: the
    search re-checks d(witness) = target and raises instead."""
    P = example("unknot_one_handle").main
    target = P.sub(P.el_idem("e1"), P.el_word(["t0_12"]))
    solve = LinearSolver.solve

    def doubled(self, raw_rhs):
        combo = solve(self, raw_rhs)
        return combo and {t: 2 * c for t, c in combo.items()}
    assert exactness_search(P, target, BOUNDS5).status == "witness"
    monkeypatch.setattr(LinearSolver, "solve", doubled)
    with pytest.raises(AssertionError,
                       match="solver returned an unsound witness"):
        exactness_search(P, target, BOUNDS5)


def test_witness_soundness_is_rechecked():
    # every returned witness satisfies d(witness) = target exactly
    P = example("unknot_one_handle").main
    target = P.sub(P.el_idem("e1"), P.el_word(["t0_12"]))
    res = exactness_search(P, target, BOUNDS5)
    assert res.status == "witness"
    assert P.apply_differential(res.witness) == target
    assert _canonical_witness(res)


# -- h0 ----------------------------------------------------------------------

def test_h0_unknot_one_handle():
    rep = h0(example("unknot_one_handle").main, degree_bound=8)
    assert rep.is_ground_ring and rep.dimension == 1
    assert rep.basis == ["e1"]
    assert not rep.truncated


def test_h0_unknot_two_handles():
    rep = h0(example("unknot_two_handles").main, degree_bound=8)
    assert not rep.is_ground_ring
    assert rep.dimension == 4
    assert set(rep.basis) == {"e1", "e2", "t1_0_12", "t1_1_21"}
    assert "t1_1_21*t1_0_12 -> e1" in rep.rules
    assert "t1_0_12*t1_1_21 -> e2" in rep.rules


def test_h0_truncated_completion_does_not_claim_the_ground_ring():
    # at bound 0 no overlap is resolved and no letter enters the basis, so
    # only the idempotents remain; at bound 8 the algebra has dimension 4
    rep = h0(example("unknot_two_handles").main, degree_bound=0)
    assert rep.truncated and rep.basis == ["e1", "e2"]
    assert not rep.is_ground_ring


def test_h0_free_degree_zero_algebra(monkeypatch):
    P = Presentation(rationals())
    e1, e2 = P.add_idempotent("e1"), P.add_idempotent("e2")
    x = P.add_generator("x", 0, e1, e2)
    y = P.add_generator("y", 0, e2, e1)
    P.set_differential(x, P.zero())
    P.set_differential(y, P.zero())
    rep = h0(P, degree_bound=4)
    # words alternate x and y: two of each length
    assert not rep.is_ground_ring
    assert rep.dimension == 2 + 2 + 2 + 2 + 2  # lengths 0..4
    assert rep.relations == []
    # a basis cut at the idempotents is not evidence of the ground ring
    assert rep.verdict == "basis"
    monkeypatch.setattr(analysis, "BASIS_CAP", 2)
    capped = h0(P, degree_bound=4)
    assert capped.basis == ["e1", "e2"] and not capped.is_ground_ring
    assert capped.verdict == "inconclusive"


def test_h0_rejects_mixed_degree_relations():
    # a valid presentation whose degree -1 relation mixes letters of
    # degree 1 and -1
    P = _simple()
    t = P.add_generator("t", 0, "e1", "e1")
    p = P.add_generator("p", 1, "e1", "e1")
    m = P.add_generator("m", -1, "e1", "e1")
    g = P.add_generator("g", -1, "e1", "e1")
    for x in (t, p, m):
        P.set_differential(x, P.zero())
    P.set_differential(g, P.el_word([t, p, m]))
    assert P.validate().ok
    with pytest.raises(UnsupportedPresentationError):
        h0(P)


def test_normal_form_is_idempotent_and_kills_relations():
    P = example("unknot_two_handles").main
    rep = h0(P, degree_bound=8)
    rs = RewriteSystem(P)
    relations = []
    for g in P.generators:
        if g.degree == -1 and P.differential[g.index]:
            relations.append(P.differential[g.index])
    assert not rs.complete(relations, 8)
    assert _rule_lines(P, rs) == rep.rules
    for rel in relations:
        assert rs.normal_form(rel) == {}
    for w in list(P.differential[P.gen("a").index]):
        nf1 = rs.normal_form({w: P.ring.one()})
        nf2 = rs.normal_form(nf1)
        assert nf1 == nf2


def test_h0_monotone_in_the_bound():
    for name in ("unknot_one_handle", "unknot_two_handles"):
        low = h0(example(name).main, degree_bound=8)
        high = h0(example(name).main, degree_bound=12)
        assert low.is_ground_ring == high.is_ground_ring
        assert low.rules == high.rules


def test_h0_keeps_a_collapse_found_during_interreduction():
    # d r1 = a*b - 1, d r2 = a, d r3 = b: the relation a*b - 1 reduces to
    # -1 once a -> 0 is a rule, so H0 = 0 (d x = 1 is certified at L=3)
    P = _simple()
    for name in ("a", "b"):
        P.add_generator(name, 0, "e1", "e1")
        P.set_differential(name, P.zero())
    for name in ("r1", "r2", "r3"):
        P.add_generator(name, -1, "e1", "e1")
    P.set_differential("r1", P.sub(P.el_word(["a", "b"]), P.one()))
    P.set_differential("r2", P.el_gen("a"))
    P.set_differential("r3", P.el_gen("b"))
    assert is_trivial(P, Bounds(max_word_length=3)).certified_trivial
    rep = h0(P)
    assert not rep.is_ground_ring
    assert rep.degenerate


def test_h0_at_bound_0_does_not_claim_the_ground_ring():
    # k[x]: at bound 0 the basis walk never reaches x, and no rule
    # rewrites x away, so the basis e1 is not the ground ring
    P = _simple()
    P.set_differential(P.add_generator("x", 0, "e1", "e1"), P.zero())
    rep = h0(P, degree_bound=0)
    assert rep.basis == ["e1"] and rep.rules == [] and not rep.truncated
    assert not rep.is_ground_ring


def test_collapses_are_monic_distinct_and_sorted():
    # over Q, d s2 = b - 3*e2 and d r3 = a - e1 collapse to -3*e2 and -e1
    # once b -> 0 and a -> 0; d r2 = a + 2*e1 gives 2*e1, a repeat of e1
    P = Presentation(rationals())
    P.add_idempotent("e1")
    P.add_idempotent("e2")
    for name, e in (("a", "e1"), ("b", "e2")):
        P.set_differential(P.add_generator(name, 0, e, e), P.zero())
    for name, e, text in (("s1", "e2", "b"), ("s2", "e2", "b - 3*e2"),
                          ("r1", "e1", "a"), ("r2", "e1", "a + 2*e1"),
                          ("r3", "e1", "a - e1")):
        P.add_generator(name, -1, e, e)
        P.set_differential(name, parse_element(text, P))
    rep = h0(P, degree_bound=4)
    assert rep.degenerate == ["e1", "e2"]
    assert rep.rules == ["a -> 0", "b -> 0"] and not rep.is_ground_ring


def test_truncation_is_read_off_the_final_rules():
    # the restart loop met an overlap longer than 8 between rules it later
    # replaced; no two final rules overlap in more than 5 letters
    P = _binomials(1, [(0, 0)] * 3, [((1, 1), (2, 0), -1), ((0, 1), (2, 0), 1),
                                     ((0, 1), (1, 1), 1), ((0, 1), (2, 1), 1)])
    rep = h0(P, degree_bound=8)
    assert _reference_h0(P, 8).truncated and not rep.truncated
    assert rep.rules == ["a1*a1 -> - a0*a1", "a2*a0 -> - a0*a1",
                         "a2*a1 -> - a0*a1", "a0*a0*a1 -> 0",
                         "a1*a0*a1 -> 0"]
    assert max(_overlap_lengths(rep.rules)) == 5


def test_truncation_ignores_overlaps_of_a_retired_rule():
    # a1*a0*a1 overlaps itself beyond the bound (a1*a0*a1*a0*a1, length 5)
    # before the rule a1 -> a0 retires it; no two final rules overlap
    P = _binomials(1, [(0, 0)] * 2, [((1, 0, 1), (0, 0, 1), -1),
                                     ((1,), (0,), -1)])
    rep = h0(P, degree_bound=2)
    assert rep.rules == ["a1 -> a0"] and not rep.truncated
    assert rep.verdict == "basis"
    assert rep.basis == ["e1", "a0", "a0*a0"]


def _rule_lines(P, rs):
    return [f"{P.format_word(lhs)} -> {P.format_element(rhs)}"
            for lhs, rhs in rs.rules.items()]


def _overlap_lengths(rules):
    lhs = [r.split(" -> ")[0].split("*") for r in rules]
    return [len(u) + len(v) - k for u in lhs for v in lhs
            for k in range(1, min(len(u), len(v))) if u[-k:] == v[:k]]


def _reference_interreduce(rs):
    """The fixed-point interreduction the pair queue replaced."""
    P = rs.P

    def signature():
        return tuple(sorted(
            (lhs, tuple(sorted((P.sort_key(w), P.ring.format(c))
                               for w, c in rhs.items())))
            for lhs, rhs in rs.rules.items()))

    for _ in range(200):
        before = signature()
        rels = [P.sub({lhs: P.ring.one()}, rhs)
                for lhs, rhs in rs.rules.items()]
        rels.sort(key=lambda el: max(P.sort_key(w) for w in el))
        rs.rules = {}
        for el in rels:
            rs.orient(el)
        if signature() == before:
            break
    rs.rules = dict(sorted(rs.rules.items(),
                           key=lambda rule: P.sort_key(rule[0])))


def _reference_h0(P, degree_bound):
    """The restart-on-first-new-rule completion the pair queue replaced,
    kept as the reference for its rules, truncation and basis."""
    relations = [P.differential[g.index] for g in P.generators
                 if g.degree == -1 and P.differential.get(g.index)]
    rs = RewriteSystem(P)
    for rel in relations:
        rs.orient(rel)
    _reference_interreduce(rs)
    truncated = False
    pending = True
    while pending:
        pending = False
        snapshot = list(rs.rules.items())
        for l1, rhs1 in snapshot:
            for l2, rhs2 in snapshot:
                for k in range(1, min(len(l1), len(l2))):
                    if l1[len(l1) - k:] != l2[:k]:
                        continue
                    word = l1 + l2[k:]
                    if len(word) > degree_bound:
                        truncated = True
                        continue
                    x1 = P.mul(rs.normal_form(rhs1), {l2[k:]: P.ring.one()})
                    x2 = P.mul({l1[:len(l1) - k]: P.ring.one()},
                               rs.normal_form(rhs2))
                    if rs.orient(P.sub(x1, x2)) == "added":
                        pending = True
            if pending:
                break
        if pending:
            _reference_interreduce(rs)

    def irreducible(word):
        return not any(len(l) <= len(word) and word[-len(l):] == l
                       for l in rs.rules)

    letters = [g for g in P.generators if g.degree == 0]

    def walk(word, cur):
        """The irreducible words that extend `word`, of source cur, by
        letters whose target is cur, each before its own extensions."""
        if len(word) == degree_bound:
            return
        for g in letters:
            if g.target == cur and irreducible(w := word + (g.index,)):
                yield w
                yield from walk(w, g.source)

    basis = [e.index for e in P.idempotents] + [
        w for t in sorted({g.target for g in letters}) for w in walk((), t)]
    return SimpleNamespace(rules=_rule_lines(P, rs), truncated=truncated,
                           collapsed=bool(rs.collapses),
                           basis=[P.format_word(w) for w in basis])


def _binomials(n_idem, ends, relations, ring=None):
    """Degree-0 letters a0, a1, ... with the given (source, target) ends
    and degree -1 generators r0, r1, ... with d r_k = w1 + c*w2 for each
    (w1, w2, c); a word is a tuple of letter indices or an idempotent."""
    P = Presentation(ring or rationals())
    for i in range(n_idem):
        P.add_idempotent(f"e{i + 1}")
    for k, (s, t) in enumerate(ends):
        P.set_differential(P.add_generator(f"a{k}", 0, s, t), P.zero())
    for k, (w1, w2, c) in enumerate(relations):
        P.add_generator(f"r{k}", -1, P.word_source(w1), P.word_target(w1))
        P.set_differential(f"r{k}", P.add({w1: P.ring.one()},
                                          {w2: P.ring.from_int(c)}))
    return P


@st.composite
def binomial_presentations(draw):
    n = draw(st.integers(1, 2))
    ends = [(draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
            for _ in range(draw(st.integers(2, 4)))]

    def word(target, length):
        # a word and its source, grown from the target end: each letter's
        # target is the source of the word so far (length 0: an idempotent)
        w, cur = (), target
        for _ in range(length):
            options = [k for k, (s, t) in enumerate(ends) if t == cur]
            if not options:
                return None, None
            w += (draw(st.sampled_from(options)),)
            cur = ends[w[-1]][0]
        return w or cur, cur

    relations = []
    for _ in range(draw(st.integers(1, 4))):
        w1, src = word(draw(st.integers(0, n - 1)), draw(st.integers(1, 3)))
        if w1 is None:
            continue
        w2, w2_src = word(ends[w1[0]][1], draw(st.integers(0, 3)))
        if w2_src == src and w2 != w1:
            relations.append((w1, w2, draw(st.sampled_from((1, -1)))))
    assume(relations)
    ring = draw(st.sampled_from((rationals(), F2)))
    return _binomials(n, ends, relations, ring), draw(st.integers(3, 6))


@settings(max_examples=200, deadline=None)
@given(binomial_presentations())
def test_h0_matches_the_restart_loop_completion(case):
    P, bound = case
    rep, ref = h0(P, degree_bound=bound), _reference_h0(P, bound)
    if not rep.degenerate:
        assert (rep.rules, rep.basis) == (ref.rules, ref.basis)
        assert rep.dimension == len(ref.basis)
    assert bool(rep.degenerate) == ref.collapsed
    assert not rep.truncated or ref.truncated
    assert rep.truncated == any(n > bound
                                for n in _overlap_lengths(rep.rules))
    rs = RewriteSystem(P)
    rs.complete([P.differential[g.index] for g in P.generators
                 if g.degree == -1 and P.differential[g.index]], bound)
    assert _rule_lines(P, rs) == rep.rules
    for g in P.generators:
        if g.degree == -1:
            rest = rs.normal_form(P.differential[g.index])
            assert not rest or (rep.degenerate and
                                all(isinstance(w, int) for w in rest))
    if is_trivial(P, Bounds(max_word_length=3)).certified_trivial:
        assert not rep.is_ground_ring


def test_h0_queues_again_a_relation_lost_behind_a_collapse():
    # a0*a1 + a0*a1*a1 reduces to 0 under a1*a1 -> - a1, a rule retired
    # when a1 -> e2 arrives; its element then collapses to e2, which is no
    # rule, so the relation is queued again and reduces to 2*a0
    P = _binomials(2, [(1, 0), (1, 1)], [((1,), (1, 1), 1),
                                         ((0, 1), (0, 1, 1), 1),
                                         ((1,), 1, -1)])
    rep = h0(P, degree_bound=3)
    assert rep.relations == ["a1 + a1*a1", "a0*a1 + a0*a1*a1", "- e2 + a1"]
    assert rep.degenerate == ["e2"]
    assert rep.rules == ["a0 -> 0", "a1 -> e2"]
    assert (rep.dimension, rep.basis) == (2, ["e1", "e2"])


def _scan_find(rules, w):
    """The rule-by-rule scan the indexed `_find` replaced: the first rule
    in rule order that occurs in w, at its leftmost position."""
    if isinstance(w, int):
        return None
    for lhs in rules:
        L = len(lhs)
        for pos in range(len(w) - L + 1):
            if w[pos:pos + L] == lhs:
                return lhs, pos
    return None


@st.composite
def rule_tables(draw):
    """Left sides of lengths 1-4 over 2-3 letters, in drawn rule order, the
    ones to retire and add after them, and words to find them in."""
    letter = st.integers(0, draw(st.integers(1, 2)))
    word = st.lists(letter, min_size=1, max_size=8).map(tuple)
    sides = st.lists(st.lists(letter, min_size=1, max_size=4).map(tuple),
                     min_size=1, max_size=8, unique=True)
    table, later = draw(sides), draw(sides)
    retired = draw(st.sets(st.sampled_from(table)))
    added = [lhs for lhs in later if lhs not in table]
    return table, retired, added, draw(st.lists(word, min_size=1,
                                                max_size=12)) + [0]


@settings(max_examples=300, deadline=None)
@given(rule_tables())
def test_find_keeps_the_choice_of_the_rule_order_scan(case):
    table, retired, added, words = case
    rs = RewriteSystem(_simple())
    rs.rules = {lhs: {} for lhs in table}  # assigned wholesale
    assert [rs._find(w) for w in words] == [_scan_find(rs.rules, w)
                                            for w in words]
    for lhs in retired:
        rs._retire(lhs)
    for lhs in added:
        rs._add(lhs, {})
    assert [rs._find(w) for w in words] == [_scan_find(rs.rules, w)
                                            for w in words]


def _check_every_find(monkeypatch):
    """Compare each `_find` call with the scan over the live table; the
    returned dict counts the calls made after a rule was retired."""
    seen = {"retired": 0, "calls_after": 0}
    find, retire = RewriteSystem._find, RewriteSystem._retire

    def checked_find(rs, w):
        assert find(rs, w) == _scan_find(rs.rules, w)
        seen["calls_after"] += seen["retired"] > 0
        return find(rs, w)

    def counted_retire(rs, lhs):
        seen["retired"] += 1
        return retire(rs, lhs)

    monkeypatch.setattr(RewriteSystem, "_find", checked_find)
    monkeypatch.setattr(RewriteSystem, "_retire", counted_retire)
    return seen


def test_find_keeps_its_choice_after_complete_retires_rules(monkeypatch):
    # a1*a0*a1 -> a0*a0*a1 is retired when a1 -> a0 arrives; completion
    # goes on rewriting with the table left behind
    seen = _check_every_find(monkeypatch)
    P = _binomials(1, [(0, 0)] * 2, [((1, 0, 1), (0, 0, 1), -1),
                                     ((1,), (0,), -1)])
    assert h0(P, degree_bound=2).rules == ["a1 -> a0"]
    assert seen["retired"] and seen["calls_after"]


@settings(max_examples=50, deadline=None)
@given(binomial_presentations())
def test_find_keeps_its_choice_through_every_completion(case):
    P, bound = case
    with pytest.MonkeyPatch.context() as monkeypatch:
        _check_every_find(monkeypatch)
        h0(P, degree_bound=bound)


def test_h0_walk_keeps_a_partial_match_on_a_mismatch():
    # d r = a0*a0*a1: after a0*a0*a0 the walk still holds the match a0*a0,
    # so a0*a0*a0*a1 is reducible; restarting from the empty state on the
    # mismatch would keep it
    P = _binomials(1, [(0, 0)] * 2, [])
    P.add_generator("r", -1, "e1", "e1")
    P.set_differential("r", {(0, 0, 1): P.ring.one()})
    rep = h0(P, degree_bound=5)
    # pre-order is lexicographic order on the letter indices
    brute = sorted(w for n in range(1, 6)
                   for w in itertools.product((0, 1), repeat=n)
                   if not any(w[k:k + 3] == (0, 0, 1) for k in range(n)))
    assert rep.rules == ["a0*a0*a1 -> 0"] and rep.verdict == "basis"
    assert rep.basis == ["e1"] + [P.format_word(w) for w in brute]
    assert "a0*a0*a0*a1" not in rep.basis


# -- the word walker ----------------------------------------------------------

def _reference_composable_words(P, *, degree, ends, max_len, max_level,
                           parity=None):
    """The depth-first enumerator composable_words replaced, kept as the
    reference for its output and order."""
    allowed = [g for g in P.generators if (g.level or 0) <= max_level]
    if not allowed or max_len == 0:
        return []
    by_target: dict[int, list] = {}
    for g in allowed:
        by_target.setdefault(g.target, []).append(g)
    degs = [g.degree for g in allowed]
    lo, hi = min(degs), max(degs)

    def reachable(need, slots):
        return any(r * lo <= need <= r * hi for r in range(1, slots + 1))

    out = []

    def grow(word, cur, deg_sum, src):
        for g in by_target.get(cur, ()):
            nw = word + (g.index,)
            nd = deg_sum + g.degree
            if (g.source == src and nd == degree
                    and (parity is None or len(nw) % 2 == parity)):
                out.append(nw)
            if len(nw) < max_len and reachable(degree - nd, max_len - len(nw)):
                grow(nw, g.source, nd, src)

    for (s, t) in sorted(set(ends)):
        grow((), t, 0, s)
    return out


# a hand-made state graph: state -> (letter, child state, emit) triples;
# "c" is reached from "a" and from "b", and "d" has no letters after it
_GRAPH = {"r": [(0, "a", True), (1, "b", False)],
          "a": [(2, "c", True)],
          "b": [(2, "c", True), (3, "a", True)],
          "c": [(4, "r", True), (5, "d", True)],
          "d": []}


@pytest.mark.parametrize("root,max_len,words,listed", [
    ("r", 0, [], []),
    ("r", 1, [(0,)], ["r"]),  # (1,) is not emitted; the cut stops the walk
    ("r", 2, [(0,), (0, 2), (1, 2), (1, 3)], ["r", "a", "b"]),
    ("r", 3, [(0,), (0, 2), (0, 2, 4), (0, 2, 5), (1, 2), (1, 2, 4),
              (1, 2, 5), (1, 3), (1, 3, 2)],
     ["r", "a", "c", "b", "c", "a"]),
    ("b", 2, [(2,), (2, 4), (2, 5), (3,), (3, 2)], ["b", "c", "a"]),
])
def test_walk_words_walks_a_state_graph_in_pre_order(root, max_len, words,
                                                     listed):
    seen = []

    def children(state):
        seen.append(state)
        return _GRAPH[state]

    assert list(analysis.walk_words(children, root, max_len)) == words
    # the root, then the state of each word shorter than max_len, emitted
    # or not, in walk order: "c" is listed from (0, 2) and from (1, 2)
    assert seen == listed
    # the state alone picks the letters, so a cached lister walks the same
    cached = functools.cache(_GRAPH.__getitem__)
    assert list(analysis.walk_words(cached, root, max_len)) == words


@st.composite
def quivers(draw):
    n = draw(st.integers(1, 3))
    P = Presentation(F2)
    for i in range(n):
        P.add_idempotent(f"e{i}")
    for k in range(draw(st.integers(2, 6))):
        P.add_generator(f"g{k}", draw(st.integers(-2, 1)),
                        draw(st.integers(0, n - 1)),
                        draw(st.integers(0, n - 1)),
                        level=draw(st.integers(0, 2)))
    pairs = [(s, t) for s in range(n) for t in range(n)]
    ends = draw(st.lists(st.sampled_from(pairs), min_size=1, max_size=4))
    return P, ends


@settings(max_examples=300, deadline=None)
@given(quivers(), st.integers(-5, 2), st.integers(0, 5), st.integers(0, 2),
       st.sampled_from([None, 0, 1]))
def test_composable_words_matches_the_reference_dfs(quiver, degree, max_len,
                                               max_level, parity):
    P, ends = quiver
    kw = dict(degree=degree, ends=ends, max_len=max_len, max_level=max_level,
              parity=parity)
    assert composable_words(P, **kw) == _reference_composable_words(P, **kw)


@settings(max_examples=300, deadline=None)
@given(quivers(), st.integers(-5, 2), st.integers(0, 5), st.integers(0, 2),
       st.sampled_from([None, 0, 1]))
def test_count_words_counts_the_composable_words(quiver, degree, max_len,
                                                 max_level, parity):
    P, ends = quiver
    kw = dict(degree=degree, ends=ends, max_len=max_len, max_level=max_level,
              parity=parity)
    assert count_words(P, **kw) == len(composable_words(P, **kw))


@settings(max_examples=300, deadline=None)
@given(quivers(), st.data())
def test_weighted_words_are_the_words_of_the_goal_weights(quiver, data):
    """Any integer letter weights, whether or not d preserves them: the
    weighted walk keeps exactly the words whose weight is a goal, in the
    same order."""
    P, ends = quiver
    draw = data.draw
    k = draw(st.integers(0, 2))
    wt = [tuple(draw(st.integers(-3, 3)) for _ in range(k))
          for _ in P.generators]
    kw = dict(degree=draw(st.integers(-5, 2)), ends=ends,
              max_len=draw(st.integers(0, 5)),
              max_level=draw(st.integers(0, 2)),
              parity=draw(st.sampled_from([None, 0, 1])))
    every = composable_words(P, **kw)
    goals = {word_weight(wt, w) for w in every if draw(st.booleans())}
    goals |= set(draw(st.lists(st.tuples(*[st.integers(-9, 9)] * k),
                               max_size=2)))
    assert (composable_words(P, **kw, weights=(wt, goals))
            == [w for w in every if word_weight(wt, w) in goals])


# -- the weights d preserves --------------------------------------------------

def _words(P, max_len):
    """The idempotents and every composable word of length <= max_len."""
    out = [e.index for e in P.idempotents]
    layer = [()]
    for _ in range(max_len):
        layer = [w + (g.index,) for w in layer for g in P.generators
                 if not w or P.generators[w[-1]].source == g.target]
        out += layer
    return out


def _coefficient(draw, ring):
    if ring == F2:
        return 1
    if ring == rationals():
        return draw(st.sampled_from((1, -1, 2, Fraction(1, 2))))
    return ring.monomial((draw(st.integers(-1, 1)),),
                         draw(st.sampled_from((1, -1))))


@st.composite
def graded_presentations(draw, rings=(rationals(), F2, laurent("t"))):
    """A valid presentation: 1-3 idempotents, 1-6 letters of degree -1..1,
    each d(g) at most two monomials of length <= 3 with g's ends and
    degree deg(g) + 1."""
    P = Presentation(draw(st.sampled_from(rings)))
    n = draw(st.integers(1, 3))
    for i in range(n):
        P.add_idempotent(f"e{i}")
    for k in range(draw(st.integers(1, 6))):
        P.add_generator(f"g{k}", draw(st.integers(-1, 1)),
                        draw(st.integers(0, n - 1)),
                        draw(st.integers(0, n - 1)))
    words = _words(P, 3)
    for g in P.generators:
        fits = [w for w in words if P.word_source(w) == g.source
                and P.word_target(w) == g.target
                and P.word_degree(w) == g.degree + 1]
        chosen = draw(st.lists(st.sampled_from(fits), max_size=2,
                               unique=True)) if fits else []
        P.set_differential(g, {w: _coefficient(draw, P.ring) for w in chosen})
    assert P.validate().ok
    return P


def _rank(rows):
    """Rank of integer row vectors, by Gauss-Jordan over Fractions."""
    rows = [[Fraction(c) for c in r] for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]),
                     None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i, row in enumerate(rows):
            if i != rank and row[col]:
                f = row[col] / rows[rank][col]
                rows[i] = [a - f * b for a, b in zip(row, rows[rank])]
        rank += 1
    return rank


@settings(max_examples=200, deadline=None)
@given(graded_presentations())
def test_letter_weights_are_a_basis_of_the_weights_d_preserves(P):
    wt = letter_weights(P)
    assert len(wt) == len(P.generators)
    k = len(wt[0])
    assert all(len(v) == k and all(type(c) is int for c in v) for v in wt)
    for g in P.generators:
        for w in P.differential[g.index]:
            assert word_weight(wt, w) == wt[g.index]
    # one equation wt(word) - wt(g) = 0 per monomial of each d(g)
    system = []
    for g in P.generators:
        for w in P.differential[g.index]:
            row = [0] * len(P.generators)
            row[g.index] -= 1
            for i in () if isinstance(w, int) else w:
                row[i] += 1
            system.append(row)
    assert k == len(P.generators) - _rank(system)
    assert _rank([[v[j] for v in wt] for j in range(k)]) == k


@pytest.mark.parametrize("name,pres,count", [
    ("unknot_edge", "codomain", 2), ("a3_link", "codomain_xw_yv", 4),
    ("a3_link", "codomain_yv_xw", 4), ("a3_arboreal", "codomain", 4),
    ("a3_link", "main", 5)])
def test_catalog_weight_counts(name, pres, count):
    wt = letter_weights(example(name).presentations[pres])
    assert {len(v) for v in wt} == {count}


def _columns_added(monkeypatch):
    """What each LinearSolver.add_column call returns, in call order:
    whether the followed right side is in the span so far."""
    returned = []
    add = LinearSolver.add_column

    def counted(self, tag, raw_vec):
        returned.append(add(self, tag, raw_vec))
        return returned[-1]
    monkeypatch.setattr(LinearSolver, "add_column", counted)
    return returned


def _unsplit_exactness_search(P, target, bounds, parity=None):
    """exactness_search before the weight split and the early stop, kept
    as the reference: every bounded word of the target's degree and ends
    is a column, and every column is added."""
    deg = P.is_homogeneous(target)
    pbit = analysis._PARITIES.index(parity) if parity is not None else None
    ends = {(P.word_source(w), P.word_target(w)) for w in target}
    cands = composable_words(P, degree=deg - 1, ends=ends,
                             max_len=bounds.max_word_length,
                             max_level=bounds.max_level, parity=pbit)
    solver = LinearSolver(P.ring)
    for w in cands:
        solver.add_column(w, P.d_word(w))
    combo = solver.solve(target)
    if combo is None:
        return ExactnessResult("none_within_bounds", target, bounds, parity,
                               candidates=len(cands))
    if not P.equal(P.apply_differential(combo), target):
        raise AssertionError("solver returned an unsound witness")
    return ExactnessResult("witness", target, bounds, parity,
                           witness=combo, candidates=len(cands))


@settings(max_examples=300, deadline=None)
@given(graded_presentations(rings=(rationals(), F2)), st.data())
def test_split_search_matches_the_unsplit_search(P, data):
    """Targets are d of a random element (often exact) or a random
    homogeneous sum, whose words may have several weights and ends."""
    draw = data.draw
    words = _words(P, 3)
    if draw(st.booleans()):
        x = {w: _coefficient(draw, P.ring)
             for w in draw(st.lists(st.sampled_from(words), max_size=3))}
        target = P.apply_differential(x)
    else:
        deg = draw(st.sampled_from(sorted({P.word_degree(w) for w in words})))
        same = [w for w in words if P.word_degree(w) == deg]
        target = P.add({}, {w: _coefficient(draw, P.ring) for w in
                            draw(st.lists(st.sampled_from(same), max_size=3))})
    assume(target and P.is_homogeneous(target) is not None)
    bounds = Bounds(max_word_length=draw(st.integers(0, 4)), max_level=2)
    parity = draw(st.sampled_from([None, "even", "odd"]))
    with pytest.MonkeyPatch.context() as monkeypatch:
        added = _columns_added(monkeypatch)
        got = exactness_search(P, target, bounds, parity=parity)
        split = added[:]
        added.clear()
        want = _unsplit_exactness_search(P, target, bounds, parity=parity)
    assert (got.status, got.candidates, got.witness) == (
        want.status, want.candidates, want.witness)
    pbit = None if parity is None else analysis._PARITIES.index(parity)
    kw = dict(degree=P.is_homogeneous(target) - 1,
              ends={(P.word_source(w), P.word_target(w)) for w in target},
              max_len=bounds.max_word_length, max_level=2, parity=pbit)
    assert got.candidates == len(composable_words(P, **kw)) == len(added)
    # a witness search adds no column after the one that resolves the
    # target; a search without one adds every column of the split
    if got.status == "witness":
        assert split[-1:] == [True] and not any(split[:-1])
    else:
        wt = letter_weights(P)
        assert not any(split)
        assert len(split) == len(composable_words(
            P, **kw, weights=(wt, {word_weight(wt, w) for w in target})))


_SADDLE = example("saddle_cobordism").presentations["codomain"]


@pytest.mark.parametrize("gen", [g.name for g in _SADDLE.generators
                                 if _SADDLE.differential.get(g.index)])
def test_saddle_codomain_searches_match_the_unsplit_search(gen, monkeypatch):
    """d g for every codomain generator of saddle_cobordism with d g != 0,
    at L = 2 (L = 3 takes 12 s), each a witness: the search that stops
    early agrees with the reference that adds every column, and adds
    fewer columns."""
    P = _SADDLE
    target = P.differential[P.gen(gen).index]
    bounds = Bounds(max_word_length=2)
    added = _columns_added(monkeypatch)
    got = exactness_search(P, target, bounds)
    split = len(added)
    want = _unsplit_exactness_search(P, target, bounds)
    assert (got.status, got.candidates, got.witness) == (
        want.status, want.candidates, want.witness)
    assert got.status == "witness"
    assert split < len(added) - split == want.candidates


@pytest.mark.parametrize("row, drawn", [(("c", 0), ["z0", "z1"]),
                                        (("c", 2), ["z0", "z1", "z2"])])
def test_bounded_solve_draws_no_extra_column_after_the_stop(row, drawn):
    """The `extra` columns are drawn one at a time: a solve that the
    second of them resolves draws no third, an infeasible one draws
    them all.  No word column can meet the right side's `c` row."""
    P = _SADDLE
    target = P.differential[P.gen("xh2_12").index]
    cols = [("z0", {("c", 1): 1}), ("z1", {**target, ("c", 0): 1}),
            ("z2", {("c", 0): 1})]
    got = []

    def extra():
        for tag, col in cols:
            got.append(tag)
            yield tag, col
    res = analysis.bounded_solve(
        P, target, Bounds(max_word_length=2), parity=None, weights=None,
        rows={row: 1}, extra=extra())
    assert got == drawn
    assert res.witness == ({"z1": 1} if row == ("c", 0) else None)


def _braid_triangle():
    P = _simple()
    letters = [P.add_generator(f"a{k}", 0, "e1", "e1") for k in range(3)]
    for g in letters:
        P.set_differential(g, P.zero())
    for k, (u, v) in enumerate((((0, 1, 0), (1, 0, 1)),
                                ((1, 2, 1), (2, 1, 2)),
                                ((2, 0, 2), (0, 2, 0)))):
        P.add_generator(f"r{k}", -1, "e1", "e1")
        P.set_differential(f"r{k}", P.sub({u: P.ring.one()},
                                          {v: P.ring.one()}))
    return P


@pytest.mark.parametrize("name,bound", [("unknot_one_handle", 8),
                                        ("unknot_two_handles", 8),
                                        ("saddle_cobordism", 8),
                                        ("braid_triangle", 7)])
def test_h0_basis_is_every_irreducible_degree_zero_word(name, bound):
    P = _braid_triangle() if name == "braid_triangle" else example(name).main
    rep = h0(P, degree_bound=bound)
    lhs = [tuple(P.gen(x).index for x in r.split(" -> ")[0].split("*"))
           for r in rep.rules]
    letters = [g.index for g in P.generators if g.degree == 0]
    expected = {e.label for e in P.idempotents}
    for n in range(1, bound + 1):
        for w in itertools.product(letters, repeat=n):
            if any(P.generators[a].source != P.generators[b].target
                   for a, b in zip(w, w[1:])):
                continue
            if any(w[i:i + len(l)] == l for l in lhs
                   for i in range(n - len(l) + 1)):
                continue
            expected.add(P.format_word(w))
    assert set(rep.basis) == expected
    assert len(rep.basis) == rep.dimension == len(expected)


# -- stable tame invariance ----------------------------------------------------
# The CE algebra is an invariant up to stable tame isomorphism (Chekanov,
# Invent. Math. 150, 2002), so every homology verdict must survive a
# stabilization and an elementary automorphism.  The builders below make
# each move with the maps both ways; the moves keep the word-length
# filtration (w and u are sums of letters and idempotents), so h0's counts
# up to a length bound agree too.

def _copy(P):
    """P's idempotents and generators, in order, without differentials."""
    Q = Presentation(P.ring, P.convention)
    for e in P.idempotents:
        Q.add_idempotent(e.label)
    for g in P.generators:
        Q.add_generator(g.name, g.degree, g.source, g.target, link=g.link,
                        level=g.level)
    return Q


def _fixing(P, Q, moved=()):
    """The GenMap P -> Q that fixes every idempotent and every generator
    but the (index, value) pairs of `moved`."""
    one = P.ring.one()
    values = {g.index: {(g.index,): one} for g in P.generators}
    return GenMap(P, Q, {**values, **dict(moved)},
                  {e.index: e.index for e in P.idempotents})


def stabilize(P, degree, ends, w):
    """P plus b of `degree` and a of degree - 1 at `ends`, with d b = 0 and
    d a = b + w, for a cycle w of P with b's ends and degree; with the
    inclusion P -> P' and the projection P' -> P (a -> 0, b -> -w)."""
    S = _copy(P)
    for g in P.generators:
        S.set_differential(g, P.differential[g.index])
    b = S.add_generator("stab_b", degree, *ends)
    a = S.add_generator("stab_a", degree - 1, *ends)
    S.set_differential(b, S.zero())
    S.set_differential(a, S.add(S.el_gen(b), w))
    back = _fixing(S, P, {b.index: P.sub({}, w), a.index: {}}.items())
    return S, _fixing(P, S), back


def tame(P, g, u):
    """The elementary automorphism phi: g -> g + u, for u of g's degree and
    ends without g: P' has P's generators and d' = phi^-1 d phi.  Returns
    P', phi^-1: P -> P' and phi: P' -> P."""
    T, one = _copy(P), P.ring.one()
    to = _fixing(P, T, [(g, T.sub({(g,): one}, u))])
    for h in P.generators:
        dh = P.differential[h.index]
        if h.index == g:
            dh = P.add(dh, P.apply_differential(u))
        T.set_differential(h, to.apply(dh))
    return T, to, _fixing(T, P, [(g, P.add({(g,): one}, u))])


def _sum_at(draw, P, degree, ends, but=None, cycles=False):
    """A sum of distinct letters of `degree` at `ends` (not `but`; with
    `cycles`, only letters d kills) and, in degree 0 at a loop, of its
    idempotent, each with a drawn nonzero coefficient; may be zero."""
    s, t = ends
    words = [(h.index,) for h in P.generators if h.index != but
             and (h.degree, h.source, h.target) == (degree, s, t)
             and not (cycles and P.differential[h.index])]
    if degree == 0 and s == t:
        words.append(s)
    chosen = draw(st.lists(st.sampled_from(words), unique=True,
                           max_size=2)) if words else []
    return P.add({}, {w: _coefficient(draw, P.ring) for w in chosen})


_FIELD_CATALOG = [(name, pres) for name in
                  ("unknot_one_handle", "unknot_two_handles",
                   "saddle_cobordism", "unknot_edge", "theta", "a3_link")
                  for pres in example(name).presentations]


@st.composite
def _zero_differential_quivers(draw):
    P, _ = draw(quivers())
    for g in P.generators:
        P.set_differential(g, P.zero())
    return P


def _h0_or_none(P):
    try:
        return h0(P, degree_bound=6)
    except UnsupportedPresentationError:
        return None


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_stable_tame_moves_keep_every_homology_verdict(data):
    """For P from the strategies or the catalog and P' a stabilization or
    an elementary automorphism of it: d^2 = 0 on P' as on P, both maps
    are chain maps, h0 agrees where neither side is inconclusive, and a
    witness x for t on P maps to a witness for the image of t on P'."""
    draw = data.draw
    source = draw(st.sampled_from(("graded", "quiver", "catalog")))
    if source == "catalog":
        name, pres = draw(st.sampled_from(_FIELD_CATALOG))
        P = example(name).presentations[pres]
    elif source == "graded":
        P = draw(graded_presentations(rings=(rationals(), F2)))
    else:
        P = draw(_zero_differential_quivers())
    n = len(P.idempotents)
    if draw(st.booleans()):
        # not at degree 1: h0 reads every degree-0 letter as a cycle, and
        # d a = b + w is not zero
        degree = draw(st.sampled_from((-1, 0, 2)))
        ends = (draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1)))
        P2, to, back = stabilize(P, degree, ends,
                                 _sum_at(draw, P, degree, ends, cycles=True))
    else:
        g = draw(st.sampled_from(P.generators))
        P2, to, back = tame(P, g.index, _sum_at(draw, P, g.degree,
                                                (g.source, g.target),
                                                but=g.index))
    assert P2.validate().ok
    d2 = check_d_squared(P2).ok
    assert d2 == check_d_squared(P).ok
    assert d2 or source != "catalog"
    assert verify_chain_map(to).ok and verify_chain_map(back).ok
    rep, rep2 = _h0_or_none(P), _h0_or_none(P2)
    assert (rep is None) == (rep2 is None)
    if rep and "inconclusive" not in (rep.verdict, rep2.verdict):
        assert (rep.verdict, rep.dimension) == (rep2.verdict, rep2.dimension)
    targets = [P.one()] + [P.differential[h.index] for h in P.generators[:3]
                           if P.differential[h.index]]
    for t in targets:
        res = exactness_search(P, t, Bounds(max_word_length=3))
        if res.witness is not None:
            assert P2.equal(P2.apply_differential(to.apply(res.witness)),
                            to.apply(t))
