import contextlib
import hashlib
import io
import json
import re
from dataclasses import asdict

import pytest
from hypothesis import given, settings, strategies as st

from cedga import (Presentation, PresentationError,
                   IncompletePresentationError, gf2, make_point_algebra,
                   rationals)
from cedga.algebra import require_valid
from cedga.cli import main


@pytest.fixture
def i3():
    return make_point_algebra(3, (0, 0, 0), p_max=1, ring=rationals())


@pytest.fixture
def unknotish():
    """Single idempotent, a of degree -1 with d a = e - t, d t = 0."""
    P = Presentation(rationals())
    e = P.add_idempotent("e1")
    t = P.add_generator("t", 0, e, e, link="l")
    a = P.add_generator("a", -1, e, e)
    P.set_differential(t, P.zero())
    P.set_differential(a, P.sub(P.el_idem(e), P.el_gen(t)))
    return P


def test_a_generator_is_short_exactly_when_it_lies_on_a_link(unknotish):
    t, a = unknotish.gen("t"), unknotish.gen("a")
    assert (t.role, t.link) == ("short", "l")
    assert (a.role, a.link) == ("long", None)
    with pytest.raises(AttributeError):
        a.role = "short"
    with pytest.raises(TypeError):
        unknotish.add_generator("b", 0, "e1", "e1", role="short")


def test_word_concat_composable(i3):
    u = (i3.gen("c0_23").index,)
    v = (i3.gen("c0_12").index,)
    assert i3.concat(u, v) == u + v


def test_word_concat_mismatch_is_zero(i3):
    # source(c0_12) = e1 differs from target(c0_23) = e3
    assert i3.concat((i3.gen("c0_12").index,), (i3.gen("c0_23").index,)) is None


def test_idempotent_absorption(i3):
    w = (i3.gen("c0_12").index,)
    e1, e2 = i3.idem("e1").index, i3.idem("e2").index
    assert i3.concat(e2, w) == w  # e2 is the target of c0_12
    assert i3.concat(e1, w) is None
    assert i3.concat(w, e1) == w
    assert i3.concat(w, e2) is None


def test_element_mul_distributes(unknotish):
    P = unknotish
    t = P.el_gen("t")
    x = P.sub(P.el_idem("e1"), t)
    left = P.mul(x, t)
    assert left == P.sub(t, P.mul(t, t))


def test_unit_is_identity(i3):
    x = i3.add(i3.el_word(["c0_23", "c0_12"]), i3.el_gen("c1_11"))
    assert i3.mul(i3.one(), x) == x
    assert i3.mul(x, i3.one()) == x


def test_differential_of_c0_13(i3):
    # only the middle point survives the level-0 convention
    assert i3.d_gen("c0_13") == i3.el_word(["c0_23", "c0_12"])


def test_differential_of_idempotent(i3):
    assert i3.apply_differential(i3.el_idem("e1")) == {}


def test_leibniz_on_a_square(unknotish):
    P = unknotish
    a = P.el_gen("a")
    da = P.d_gen("a")
    # oracle: expand the graded Leibniz rule by hand for |a| = -1
    expected = P.sub(P.mul(da, a), P.mul(a, da))
    assert P.apply_differential(P.mul(a, a)) == expected


def test_missing_differential_raises(unknotish):
    P = unknotish
    b = P.add_generator("b", 0, "e1", "e1")
    with pytest.raises(IncompletePresentationError):
        P.apply_differential(P.el_gen(b))


def test_validate_passes_catalog_family(i3):
    assert i3.validate().ok


def test_validate_flags_noncomposable_word():
    P = Presentation(gf2())
    e1, e2, e3 = (P.add_idempotent(f"e{i}") for i in (1, 2, 3))
    x = P.add_generator("x", 0, e1, e2)
    y = P.add_generator("y", 0, e2, e3)
    a = P.add_generator("a", -1, e1, e3)
    P.set_differential(x, P.zero())
    P.set_differential(y, P.zero())
    # y*x is composable but runs e1 -> e3; force a bad word x*y by hand
    P.differential[a.index] = {(x.index, y.index): P.ring.one()}
    rep = P.validate()
    assert not rep.ok
    assert any(v.kind == "composability" and v.generator == "a"
               for v in rep.violations)


def test_validate_flags_degree_violation():
    P = Presentation(rationals())
    e = P.add_idempotent("e1")
    u = P.add_generator("u", 1, e, e, link="l")
    v = P.add_generator("v", 1, e, e, link="l")
    a = P.add_generator("a", -1, e, e)
    for g in (u, v):
        P.set_differential(g, P.zero())
    P.set_differential(a, P.add(P.el_idem(e), P.el_word([u, v])))
    rep = P.validate()
    assert not rep.ok
    assert any(v.kind == "degree" and "u*v" in v.detail
               for v in rep.violations)


def _one_arrow():
    """Idempotents e1, e2 and one degree-0 letter x from e1 to e2."""
    P = Presentation(rationals())
    for label in ("e1", "e2"):
        P.add_idempotent(label)
    P.add_generator("x", 0, "e1", "e2")
    return P


@pytest.mark.parametrize("call,match", [
    (lambda: Presentation(rationals(), "sideways"),
     "unknown convention 'sideways'"),
    (lambda: _one_arrow().add_generator("y", 0, 0, 2),
     "generator 'y' has undeclared ends"),
    (lambda: _one_arrow().el_word(["x", "x"]), r"non-composable word x\*x"),
    (lambda: _one_arrow().add_generator("y", 1.7, 0, 1),
     "generator 'y' degree must be an int, not 1.7"),
    (lambda: _one_arrow().add_generator("y", True, 0, 1),
     "generator 'y' degree must be an int, not True"),
    (lambda: _one_arrow().add_generator("y", "3", 0, 1),
     "generator 'y' degree must be an int, not '3'"),
    (lambda: _one_arrow().add_generator("y", 0, 0, 1, level="x"),
     "generator 'y' level must be an int, not 'x'"),
    (lambda: _one_arrow().add_generator("y", 0, 0, 1, level=False),
     "generator 'y' level must be an int, not False"),
    (lambda: _one_arrow().add_generator("y", 0, True, 0),
     "generator 'y' source must be an idempotent, not True"),
    (lambda: _one_arrow().add_generator("y", 0, 0, False),
     "generator 'y' target must be an idempotent, not False"),
], ids=["convention", "undeclared-ends", "non-composable-word",
        "float-degree", "bool-degree", "str-degree", "str-level",
        "bool-level", "bool-source", "bool-target"])
def test_presentation_refusals_name_what_is_wrong(call, match):
    with pytest.raises(PresentationError, match=match):
        call()


def test_duplicate_names_rejected():
    P = Presentation(rationals())
    P.add_idempotent("e1")
    with pytest.raises(PresentationError):
        P.add_idempotent("e1")
    P.add_generator("a", 0, 0, 0)
    with pytest.raises(PresentationError):
        P.add_generator("a", 1, 0, 0)


# -- algebra laws on random small elements ------------------------------------

def _random_elements(P, max_terms=3):
    words = [e.index for e in P.idempotents]
    gens = list(P.generators)
    for g in gens:
        words.append((g.index,))
    for g in gens:
        for h in gens:
            if g.source == h.target:
                words.append((g.index, h.index))

    @st.composite
    def element(draw):
        out = P.zero()
        for _ in range(draw(st.integers(0, max_terms))):
            w = draw(st.sampled_from(words))
            c = P.ring.from_int(draw(st.integers(-2, 2)))
            out = P.add(out, {w: c} if not P.ring.is_zero(c) else {})
        return out

    return element()


def test_element_mul_associative(i3):
    els = _random_elements(i3)

    @settings(max_examples=60, deadline=None)
    @given(els, els, els)
    def law(x, y, z):
        assert i3.mul(i3.mul(x, y), z) == i3.mul(x, i3.mul(y, z))

    law()


def test_idempotent_completeness(i3):
    els = _random_elements(i3)

    @settings(max_examples=40, deadline=None)
    @given(els)
    def law(x):
        assert i3.mul(i3.one(), x) == x == i3.mul(x, i3.one())

    law()


def _homogeneous_elements(P, degree):
    pool = [w for w in (
        [(g.index,) for g in P.generators]
        + [(g.index, h.index) for g in P.generators for h in P.generators
           if g.source == h.target])
        if P.word_degree(w) == degree]
    if not pool:
        pool = [None]

    @st.composite
    def element(draw):
        out = P.zero()
        for _ in range(draw(st.integers(0, 2))):
            w = draw(st.sampled_from(pool))
            if w is None:
                continue
            out = P.add(out, {w: P.ring.from_int(draw(st.integers(-2, 2)))})
            out = {k: v for k, v in out.items() if not P.ring.is_zero(v)}
        return out

    return element()


@pytest.mark.parametrize("deg_x,deg_y", [(1, 1), (-1, 1), (1, -1), (2, -1)])
def test_graded_leibniz_identity(i3, deg_x, deg_y):
    xs = _homogeneous_elements(i3, deg_x)
    ys = _homogeneous_elements(i3, deg_y)
    sign = i3.ring.sign_pow(deg_x)

    @settings(max_examples=40, deadline=None)
    @given(xs, ys)
    def law(x, y):
        lhs = i3.apply_differential(i3.mul(x, y))
        rhs = i3.add(i3.mul(i3.apply_differential(x), y),
                     i3.scale(sign, i3.mul(x, i3.apply_differential(y))))
        assert lhs == rhs

    law()


def test_differential_raises_degree_by_one(i3):
    for deg in (1, -1, 0, 2):
        xs = _homogeneous_elements(i3, deg)

        @settings(max_examples=25, deadline=None)
        @given(xs)
        def law(x):
            dx = i3.apply_differential(x)
            if dx:
                assert i3.is_homogeneous(dx) == deg + 1

        law()


# `grade --json` on presentations that carry every kind of violation the
# text form can hold, and validate() where it cannot (the reader refuses a
# word that breaks between two letters), pinned by one sha256 over the
# exit codes, output and reports; recorded before validate read the ends
# and degrees of the letters from per-letter lists, and re-pinned when the
# `grade` certificate became the validation report alone.
VIOLATIONS_TEXT = """ring Q
presentation ends {
  idempotents e1 e2 e3
  gen x deg 0 from e1 to e2
  gen y deg 0 from e2 to e3
  gen a deg -1 from e1 to e1
  gen b deg -1 from e1 to e3
  diff x = 0
  diff y = 0
  diff a = x - 2*y*x + e1
  diff b = y*x + x
}
presentation idempotent_ends {
  idempotents e1 e2
  gen x deg 0 from e1 to e2
  gen a deg -1 from e1 to e2
  gen c deg -1 from e1 to e1
  diff x = 0
  diff a = e1 + x + e2
  diff c = e1 - e2
}
presentation degree {
  idempotents e1
  gen u deg 1 from e1 to e1
  gen a deg -1 from e1 to e1
  diff u = u
  diff a = e1 + u*u - u + u*u*u
}
presentation missing {
  idempotents e1 e2
  gen g1 deg 0 from e1 to e1
  gen g2 deg -1 from e1 to e2
  gen g3 deg 0 from e2 to e2
  diff g2 = g1
}
presentation clean {
  idempotents e1
  gen t deg 0 from e1 to e1
  gen a deg -1 from e1 to e1
  diff t = 0
  diff a = e1 - t*t
}
"""
VIOLATIONS = (
    "4a0ff648369ab7e64674b459e30292a2a88047e66935d45915f4c6e35fa383a3")


def _breaking_presentation():
    """Words that break between letters, alone and with wrong ends and a
    wrong degree in the same word; a generator with no differential."""
    P = Presentation(rationals())
    e1, e2, e3 = (P.add_idempotent(f"e{i}") for i in (1, 2, 3))
    x = P.add_generator("x", 0, e1, e2).index
    y = P.add_generator("y", 0, e2, e3).index
    w = P.add_generator("w", 1, e2, e2).index
    P.add_generator("m", 0, e3, e3)
    a = P.add_generator("a", -1, e1, e3).index
    b = P.add_generator("b", -1, e1, e1).index
    for g in (x, y, w):
        P.differential[g] = {}
    P.differential[a] = {(y, x): 1, (x, y): 1, (y, w, x): 2,
                         (x, y, x, y): -1, (y, x, w): 1}
    P.differential[b] = {(x, w, y, x): 1, e1.index: 1, (w,): 1}
    return P


def test_validation_messages_are_pinned(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "v.cedga").write_text(VIOLATIONS_TEXT, encoding="utf-8")
    runs = []
    for argv in (["grade", "v.cedga", "--json"], ["grade", "v.cedga"]):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(argv)
        text = re.sub(r'"timings": \{[^}]*\}', '"timings": {}',
                      out.getvalue())
        runs.append(f"{argv}\n{code}\n{text}")
    P = _breaking_presentation()
    runs.append(json.dumps(asdict(P.validate()), sort_keys=True))
    with pytest.raises(PresentationError) as exc:
        require_valid(P)
    runs.append(str(exc.value))
    digest = hashlib.sha256("\n".join(runs).encode()).hexdigest()
    assert digest == VIOLATIONS
