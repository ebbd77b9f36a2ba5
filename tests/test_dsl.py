import dataclasses
import functools
import hashlib
import random
import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cedga import (POTENTIAL_MINUS, POTENTIAL_PLUS, Augmentation,
                   CatalogBundle, GenMap, Presentation, PresentationError,
                   catalog_names, example, gf2, laurent, rationals,
                   verify_augmentation, verify_chain_map)
from cedga.dsl import (KEYWORDS, ParseError, _Parser, _tokenize, bundle_equal,
                       parse, parse_element, serialize)


def test_parse_minimal_presentation():
    text = """
    ring Q
    idempotents e1
    gen t0_12 deg 0 from e1 to e1 short link0 level 0
    gen a deg -1 from e1 to e1 long
    diff t0_12 = 0
    diff a = 1 - t0_12
    """
    B = parse(text)
    P = B.presentations["main"]
    assert P.d_gen("a") == P.sub(P.el_idem("e1"), P.el_word(["t0_12"]))


def test_one_expands_to_the_sum_of_idempotents():
    text = """
    ring GF2
    idempotents e1 e2
    gen a deg -1 from e1 to e1 long
    diff a = 1
    """
    P = parse(text).presentations["main"]
    e1, e2 = (P.idem(e).index for e in ("e1", "e2"))
    assert P.d_gen("a") == {e1: 1, e2: 1}
    # 1 = e1 + e2 is not composable with a's single ends; the validator,
    # not the reader, rejects it
    assert [str(v) for v in P.validate().violations] == [
        "composability at a: word e2 has ends (e2, e2)"]


def test_noncomposable_word_is_a_parse_error_with_position():
    text = ("ring Q\nidempotents e1 e2 e3\n"
            "gen x deg 0 from e1 to e2 short l\n"
            "gen y deg 0 from e2 to e3 short l\n"
            "diff x = x * y\n")
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert exc.value.line == 5
    assert "x*y" in exc.value.message


def test_undeclared_and_duplicate_errors():
    with pytest.raises(ParseError):
        parse("ring Q\nidempotents e1\ngen a deg 0 from e1 to e1\n"
              "diff a = zz\n")
    with pytest.raises(ParseError):
        parse("ring Q\nidempotents e1\ngen a deg 0 from e1 to e1\n"
              "diff a = 0\ndiff a = 0\n")
    with pytest.raises(ParseError):
        parse("idempotents e1\n")  # ring must come first


def test_coefficient_syntax():
    text = """
    ring laurent(lam,mu)
    idempotents e1
    gen u deg 0 from e1 to e1 short l
    gen v deg 0 from e1 to e1 short l
    diff u = 0
    diff v = lam^-1*mu^2*u + (mu - mu*lam)*u*u - 2*u
    """
    P = parse(text).presentations["main"]
    ring = P.ring
    lam, mu = ring.parameter("lam"), ring.parameter("mu")
    u = (P.gen("u").index,)
    dv = P.d_gen("v")
    assert dv[u] == ring.sub(ring.mul(ring.inverse(lam), ring.mul(mu, mu)),
                             ring.from_int(2))
    assert dv[u + u] == ring.sub(mu, ring.mul(mu, lam))


def test_rational_coefficients():
    text = """
    ring Q
    idempotents e1
    gen u deg 0 from e1 to e1 short l
    diff u = 2/3*u*u - u
    """
    P = parse(text).presentations["main"]
    u = (P.gen("u").index,)
    from fractions import Fraction
    assert P.d_gen("u") == {u + u: Fraction(2, 3), u: Fraction(-1)}


@pytest.mark.parametrize("name", catalog_names())
def test_round_trip_identity_on_catalog(name):
    bundle = example(name)
    text = serialize(bundle)
    parsed = parse(text)
    assert bundle_equal(bundle, parsed)
    # serialize . parse . serialize == serialize (canonical form)
    assert serialize(parsed) == text


@pytest.mark.parametrize("name", catalog_names())
def test_serializer_is_byte_stable(name):
    a = serialize(example(name))
    b = serialize(example(name))
    assert a == b
    assert "\r" not in a and a.endswith("\n")


def test_serialized_unknot_header():
    text = serialize(example("unknot_one_handle"))
    lines = text.splitlines()
    assert lines[0] == "ring Q"
    assert lines[1] == "convention potential_plus"


def test_parse_element_expression():
    P = example("unknot_one_handle").main
    el = parse_element("e1 - t1_21*t0_12", P)
    assert el == P.sub(P.el_idem("e1"), P.el_word(["t1_21", "t0_12"]))
    with pytest.raises(ParseError):
        parse_element("e1 +", P)


def test_map_and_aug_blocks_round_trip():
    B = example("saddle_cobordism")
    text = serialize(B)
    parsed = parse(text)
    rep_names = set(parsed.maps)
    assert rep_names == {"Phi"}
    phi = parsed.maps["Phi"]
    assert verify_chain_map(phi).ok

    T = example("singular_torus")
    parsed = parse(serialize(T))
    for eps in parsed.augmentations.values():
        assert verify_augmentation(eps).ok


def test_cross_file_map_resolution():
    dom = example("unknot_edge")
    cod_pres = dom.presentations["codomain"]
    map_text = serialize(type(dom)("m", {}, {"lm": dom.maps["y_filling_links"]},
                                   {}, []))
    parsed = parse(map_text, env={"main": dom.main},
                   target_env={"main": cod_pres})
    lm = parsed.maps["lm"]
    assert lm.source is dom.main and lm.target is cod_pres


def test_parse_never_panics_on_garbage():
    for garbage in ("ring", "@", "gen", "ring Q\npresentation {",
                    "ring Q\nmap m : a -> b {}"):
        with pytest.raises(ParseError):
            parse(garbage)


@pytest.mark.parametrize("text,line,col", [
    ("ring GF2\nidempotents e1\ngen a deg 0 from e1 to e1\ndiff a = 1/2\n",
     4, 10),
    ("ring Q\nidempotents e1\ngen a deg 0 from e1 to e1\ndiff a = 1/0\n",
     4, 10),
    ("ring Q\nidempotents e1 e1\n", 2, 16),
    ("ring Q\nidempotents e1\ngen a deg 0 from e1 to e1\n"
     "gen a deg 0 from e1 to e1\n", 4, 5),
    ("ring Q\nidempotents e1\ngen a deg 0 from e1 to e1\n"
     "gen b deg 0 from e1 to a\n", 4, 24),
    ("ring GF2\nidempotents e1\ngen x deg 0 from e1 to e1\n"
     "gen y deg 1 from e1 to e1\nmap phi : main -> main { x -> y; }\n",
     5, 26),
    ("ring Q\nidempotents e1\ngen x deg 0 from e1 to e1 short l\n"
     "gen y deg 0 from e1 to e1 short k\n"
     "aug eps on main scope l { y -> 1; }\n", 5, 27),
    ("ring Q\nidempotents e1\ngen x deg 1 from e1 to e1 short l\n"
     "aug eps on main scope l { x -> 1; }\n", 4, 27),
    ("ring Q\nidempotents e1\ngen x deg 0 from e1 to e1 short l\n"
     "aug eps on main scope l nosuch { }\n", 4, 25),
    ("ring GF2\nidempotents e1\ngen x deg 0 from e1 to e1\n"
     "gen y deg 0 from e1 to e1\nmap phi : main -> main { x -> x; x -> y; }\n",
     5, 34),
    ("ring GF2\nidempotents e1\n"
     "map phi : main -> main { idem e1 -> e1; idem e1 -> e1; }\n", 3, 46),
    ("ring Q\nidempotents e1\ngen x deg 0 from e1 to e1 short l\n"
     "aug eps on main scope l { x -> 1; x -> 0; }\n", 4, 35),
    ("ring Q\nidempotents e1\ngen a deg \u00b2 from e1 to e1\n", 3, 11),
    ("ring Q\nidempotents e1\ngen a deg \u0663 from e1 to e1\n", 3, 11),
    ("ring laurent(t,t)\n", 1, 6),
    ("ring laurent(\u00e9)\n", 1, 14),
    ("ring Q\nidempotents e1\nring GF2\n"
     "presentation p { idempotents e1 }\n", 3, 1),
    ("ring Q\nring Q\n", 2, 1),
    ("ring Q\nidempotents e1\nconvention potential_minus\n", 3, 1),
    ("ring Q\nconvention potential_plus\nconvention potential_plus\n",
     3, 1),
    ("ring laurent(t)\nidempotents e1\ngen t deg 0 from e1 to e1\n", 3, 5),
    ("ring laurent(t)\nidempotents t\n", 2, 13),
    ("ring Q # \u00e9 @ > \u00b2\nidempotents e1 @\n", 2, 16),
    ("ring Q\nidempotents e1\ngen a deg 0 from e1 to e1\ndiff a = - > a\n",
     4, 12),
    ("ring Q\nidempotents e1\ngen a deg 0 from e1 to e1\ndiff a = # to come",
     4, 19),
], ids=["half_in_gf2", "zero_denominator_in_q", "duplicate_idempotent",
        "duplicate_gen", "generator_as_endpoint", "map_value_of_wrong_degree",
        "aug_value_out_of_scope", "aug_value_on_nonzero_degree",
        "aug_scope_names_an_unknown_link",
        "duplicate_map_entry", "duplicate_idem_map_entry",
        "duplicate_aug_entry", "superscript_digit", "arabic_indic_digit",
        "repeated_parameter", "non_ascii_parameter", "second_ring",
        "repeated_ring", "convention_after_presentation",
        "repeated_convention", "generator_named_as_parameter",
        "idempotent_named_as_parameter", "bad_characters_in_a_comment",
        "lone_greater_than_after_minus", "end_after_a_trailing_comment"])
def test_bad_coefficients_and_duplicates_are_positioned(text, line, col):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (line, col)


def _line_col(text, offset):
    """1-based line and column of character `offset` of `text`."""
    lines = text[:offset].split("\n")
    return len(lines), len(lines[-1]) + 1


# a token, the text between two tokens, or any other single character
_LEXEME = re.compile(r"->|[0-9]+|[A-Za-z_][A-Za-z_0-9]*|[ \t\r\n]+|#[^\n]*|.",
                     re.S)


def _assert_positioned(exc, text):
    """The error is at a token, at a character outside the grammar, or at
    the end of the input."""
    sites = {_line_col(text, m.start()) for m in _LEXEME.finditer(text)
             if m.group()[0] not in " \t\r\n#"}
    assert (exc.line, exc.col) in sites | {_line_col(text, len(text))}


@functools.lru_cache(maxsize=None)
def _catalog_tokens(name):
    return tuple(_tokenize(serialize(example(name)))[:-1])


# tokens outside the grammar's ASCII alphabet, and the pieces of a
# `laurent(...)` ring, mixed into every fuzzed text
_EXTRA_TOKENS = ("\u00b2", "\u0663", "\u00e9", "laurent", "(", ",")


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(catalog_names()), data=st.data())
def test_mutated_catalog_bundles_parse_or_raise_parse_error(name, data):
    # delete, duplicate, swap or replace (by another token of the same
    # bundle, or an extra token) one to three tokens of the canonical text
    tokens = list(_catalog_tokens(name))
    vocabulary = sorted(set(tokens) | set(_EXTRA_TOKENS))
    for _ in range(data.draw(st.integers(1, 3))):
        i = data.draw(st.integers(0, len(tokens) - 1))
        kind = data.draw(st.sampled_from(("delete", "duplicate", "swap",
                                          "replace")))
        if kind == "delete":
            del tokens[i]
        elif kind == "duplicate":
            tokens.insert(i, tokens[i])
        elif kind == "swap":
            j = data.draw(st.integers(0, len(tokens) - 1))
            tokens[i], tokens[j] = tokens[j], tokens[i]
        else:
            tokens[i] = data.draw(st.sampled_from(vocabulary))
    text = " ".join(tokens)
    try:
        parse(text)
    except ParseError as exc:
        _assert_positioned(exc, text)


@pytest.mark.parametrize("depth", [100, 101, 10_000])
def test_parentheses_nest_at_most_100_deep(depth):
    text = ("ring Q\nidempotents e1\ngen a deg 0 from e1 to e1\n"
            "diff a = " + "(" * depth + "1" + ")" * depth + "*a\n")
    if depth <= 100:
        P = parse(text).presentations["main"]
        assert P.d_gen("a") == P.el_gen("a")
        return
    with pytest.raises(ParseError) as exc:
        parse(text)
    # at the 101st `(`; "diff a = " takes columns 1 to 9
    assert (exc.value.line, exc.value.col) == (4, 110)
    assert exc.value.message == "parentheses nested deeper than 100"


def test_deep_element_target_is_a_parse_error():
    P = parse("ring Q\nidempotents e1\ngen a deg 0 from e1 to e1\n"
              ).presentations["main"]
    with pytest.raises(ParseError) as exc:
        parse_element("(" * 10_000 + "1" + ")" * 10_000 + "*a", P)
    assert (exc.value.line, exc.value.col) == (1, 101)


def test_map_between_presentations_over_different_rings_is_positioned():
    over_q = example("unknot_one_handle").main
    over_gf2 = example("unknot_edge").main
    with pytest.raises(ParseError) as exc:
        parse("map m : a -> b { }", env={"a": over_q},
              target_env={"b": over_gf2})
    assert (exc.value.line, exc.value.col) == (1, 5)


# Statement templates of the grammar, as token lists with typed slots: a
# name (N), an integer (I) or a coefficient (C).  Each slot takes a random
# token, valid or not, so that a stream reaches the checks deep inside a
# statement as well as the tokenizer.
N, I, C = "<name>", "<int>", "<coeff>"
_RINGS = (("ring", "Q"), ("ring", "GF2"), ("ring", "laurent", "(", N, ")"),
          ("ring", "laurent", "(", N, ",", N, ")"))
_STATEMENTS = _RINGS + (
    ("convention", N), ("idempotents", N, N),
    ("gen", N, "deg", I, "from", N, "to", N),
    ("gen", N, "deg", I, "from", N, "to", N, "short", N, "level", I),
    ("diff", N, "=", C), ("diff", N, "=", C, "*", N, "+", C),
    ("presentation", N, "{", "idempotents", N, "}"),
    ("map", N, ":", "main", "->", "main", "{", N, "->", C, ";", "idem", N,
     "->", N, "}"),
    ("aug", N, "on", "main", "scope", N, "{", N, "->", C, "}"),
)
_SLOTS = {N: ("e1", "e2", "a", "t", "main", "l", "potential_minus", "gen",
              "\u00e9"),
          I: ("0", "1", "-1", "\u00b2", "\u0663", "a"),
          C: ("0", "1", "- 2 / 3", "t ^ -1", "( 1 - t )", "a * a", "e1 + a",
              "1 / 0", "\u00b2", "(", ",", "laurent", "*")}


@st.composite
def _token_streams(draw):
    """A ring statement, then up to eight statements, with filled slots."""
    statements = [draw(st.sampled_from(_RINGS))]
    statements += draw(st.lists(st.sampled_from(_STATEMENTS), max_size=8))
    sep = draw(st.sampled_from((" ", "\n")))
    return sep.join(" ".join(draw(st.sampled_from(_SLOTS[t])) if t in _SLOTS
                             else t for t in statement)
                    for statement in statements)


@settings(max_examples=300, deadline=None)
@given(_token_streams())
def test_random_token_streams_parse_or_raise_parse_error(text):
    try:
        parse(text)
    except ParseError as exc:
        _assert_positioned(exc, text)


def _reference_tokenize(text):
    """The character-at-a-time tokenizer the regular expression replaced,
    kept as a reference for its tokens and error positions."""
    toks = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if text.startswith("->", i):
            toks.append(("sym", "->", line, col))
            i += 2
            col += 2
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            toks.append(("int", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha() or ch == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            toks.append(("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch in "{}():;=^*/+-,":
            toks.append(("sym", ch, line, col))
            i += 1
            col += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line, col)
    toks.append(("eof", "", line, col))
    return toks


def _kind(token):
    """The kind of a token string, read off its first character."""
    if not token:
        return "eof"
    if token[0].isdigit():
        return "int"
    return "ident" if token[0].isalpha() or token[0] == "_" else "sym"


def _outcome(text):
    """`_tokenize`'s tokens as (kind, text, line, col), each token k placed
    where the parser reports an error at k; or the error."""
    try:
        parser = _Parser(text)
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.col)
    tokens = []
    for k, token in enumerate(parser.toks):
        with pytest.raises(ParseError) as exc:
            parser.err("here", k)
        tokens.append((_kind(token), token, exc.value.line, exc.value.col))
    return tokens


def _reference_outcome(text):
    try:
        return _reference_tokenize(text)
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.col)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="aZ_09 \t\r\n#{}():;=^*/+-,>@.", max_size=60))
def test_tokenizer_matches_the_reference(text):
    new, ref = _outcome(text), _reference_outcome(text)
    if "#" in text.rsplit("\n", 1)[-1] and isinstance(new, list):
        # the reference does not advance the column through a comment, so
        # the end-of-input column after a trailing comment differs
        new, ref = new[:-1] + [new[-1][:3]], ref[:-1] + [ref[-1][:3]]
    assert new == ref


def _random_word(P, draw):
    """A composable word of length 0 to 3 (length 0: an idempotent)."""
    if draw(st.integers(0, 4)) == 0:
        return draw(st.sampled_from(P.idempotents)).index
    word = (draw(st.sampled_from(P.generators)).index,)
    for _ in range(draw(st.integers(0, 2))):
        before = [g.index for g in P.generators
                  if g.source == P.generators[word[0]].target]
        if not before:
            break
        word = (draw(st.sampled_from(before)),) + word
    return word


def _random_coeff(ring, draw):
    q = Fraction(draw(st.integers(-3, 3)), draw(st.sampled_from((1, 3))))
    if ring.is_field():
        return ring.from_fraction(q)
    return ring.add(ring.monomial((draw(st.integers(-2, 2)),), q),
                    ring.monomial((draw(st.integers(-2, 2)),),
                                  draw(st.integers(-1, 1))))


def _random_element(P, draw, keep=lambda w: True):
    el = {}
    for _ in range(draw(st.integers(0, 3))):
        w = _random_word(P, draw)
        if keep(w):
            P.ring.add_into(el, [(w, _random_coeff(P.ring, draw))])
    return el


# names that break the .cedga name rule: keywords, and text that is not an
# ASCII identifier (a trailing newline included)
_BAD_NAMES = st.one_of(
    st.sampled_from(sorted(KEYWORDS)),
    st.sampled_from(("", "a b", "t\n", "1a", "x-y", "\u00e9")),
    st.text(max_size=3).filter(
        lambda s: not re.fullmatch(r"[A-Za-z_][A-Za-z_0-9]*", s)))


def _refuse_bad_names(draw, add, error=PresentationError):
    """add(name) raises `error` for each of 0-2 drawn names that break the
    name rule, so no such name reaches a bundle."""
    for _ in range(draw(st.integers(0, 2))):
        name = draw(_BAD_NAMES)
        with pytest.raises(error):
            add(name)


@st.composite
def _random_bundles(draw):
    """One presentation over Q, GF2 or laurent(t), with a map to itself
    and an augmentation whose scope is made of whole links.  Names that
    break the name rule are drawn too and must be refused: as a ring
    parameter, an idempotent, a generator and a link."""
    _refuse_bad_names(draw, laurent, ValueError)
    ring = draw(st.sampled_from((rationals(), gf2(), laurent("t"))))
    P = Presentation(ring, draw(st.sampled_from((POTENTIAL_PLUS,
                                                 POTENTIAL_MINUS))))
    _refuse_bad_names(draw, P.add_idempotent)
    for i in range(draw(st.integers(1, 3))):
        P.add_idempotent(f"e{i + 1}")
    _refuse_bad_names(draw, lambda name: P.add_generator(name, 0, 0, 0))
    _refuse_bad_names(draw, lambda link: P.add_generator("g", 0, 0, 0, link))
    ends = st.integers(0, len(P.idempotents) - 1)
    for k in range(draw(st.integers(1, 6))):
        P.add_generator(f"g{k}", draw(st.integers(-2, 2)), draw(ends),
                        draw(ends), draw(st.sampled_from((None, "l0", "l1"))),
                        draw(st.sampled_from((None, -1, 0, 2))))
    for g in P.generators:
        if draw(st.booleans()) or draw(st.booleans()):
            P.set_differential(g, _random_element(P, draw))
    phi = GenMap(P, P, name="phi")
    for g in P.generators:
        if draw(st.booleans()):
            value = _random_element(
                P, draw, lambda w: P.word_degree(w) == g.degree
                and (P.word_source(w), P.word_target(w)) == (g.source,
                                                              g.target))
            phi.gen_values[g.index] = value
    for e in P.idempotents:
        if draw(st.booleans()):
            phi.idem_values[e.index] = draw(ends)
    links = draw(st.sets(st.sampled_from(("l0", "l1"))))
    scope = [g for g in P.generators if g.link in links]
    eps = Augmentation(P, scope=frozenset(g.index for g in scope), name="eps",
                       values={g.index: _random_coeff(ring, draw)
                               for g in scope if g.degree == 0
                               and draw(st.booleans())})
    return CatalogBundle("random", {"main": P}, {"phi": phi}, {"eps": eps})


@settings(max_examples=200, deadline=None)
@given(_random_bundles())
def test_random_bundles_round_trip(bundle):
    text = serialize(bundle)
    parsed = parse(text)
    assert bundle_equal(bundle, parsed)
    assert serialize(parsed) == text


def test_names_may_not_equal_a_ring_parameter():
    P = Presentation(laurent("t"))
    P.add_idempotent("e1")
    with pytest.raises(PresentationError, match="duplicate name 't'"):
        P.add_generator("t", 0, "e1", "e1")
    with pytest.raises(PresentationError, match="duplicate name 't'"):
        P.add_idempotent("t")


def _point(ring):
    P = Presentation(ring)
    P.add_idempotent("e1")
    return P


def _entry(block):
    """Parse `block`, a map or augmentation, after four generators."""
    return parse("ring laurent(lam)\nidempotents e1 e2\n"
                 "gen x deg 0 from e1 to e1 short l0\n"
                 "gen y deg 0 from e2 to e2 short l0\n"
                 "gen z deg 1 from e1 to e1 short l1\n"
                 "gen a deg -1 from e1 to e1 long\n" + block)


def _lacking(part):
    """A bundle with saddle_cobordism's map Phi, or singular_torus' two
    augmentations, and a presentation that is not the one they use."""
    if part == "map":
        saddle = example("saddle_cobordism")
        return CatalogBundle("x", {"main": saddle.main}, saddle.maps, {}, [])
    return CatalogBundle("x", {"main": example("singular_torus").main}, {},
                         example("singular_torus").augmentations, [])


@pytest.mark.parametrize("call,error,match", [
    (lambda: parse_element("e1 e1", _point(rationals())), ParseError,
     "1:4: trailing input 'e1'"),
    (lambda: serialize(CatalogBundle("x")), ValueError, "empty bundle"),
    (lambda: serialize(CatalogBundle("x", {"p": _point(rationals()),
                                           "q": _point(gf2())})),
     ValueError, "bundle mixes rings or conventions"),
    (lambda: parse("ring GF2\npresentation gen { idempotents e1 }"),
     ParseError, "2:14: presentation name 'gen' is a reserved word"),
    (lambda: parse("ring GF2\nidempotents e1\nmap map : main -> main { }"),
     ParseError, "3:5: map name 'map' is a reserved word"),
    (lambda: parse("ring GF2\nidempotents e1\naug to on main scope { }"),
     ParseError, "3:5: augmentation name 'to' is a reserved word"),
    # a term is checked for composability once all its factors are read
    (lambda: parse(_PRECEDENCE_TEXTS["Q"][0].format("a*b")), ParseError,
     r"6:12: non-composable word a\*b"),
    (lambda: parse(_PRECEDENCE_TEXTS["Q"][0].format("a*b*zz")), ParseError,
     "6:14: undeclared name 'zz'"),
    (lambda: parse(_PRECEDENCE_TEXTS["Q"][0].format("a*b*1/0")), ParseError,
     "6:14: coefficient 1/0 is undefined in Q"),
    # each refusal of a map or augmentation entry
    (lambda: _entry("map m : main -> main { x -> x; x -> x; }"), ParseError,
     "7:32: duplicate map entry for 'x'"),
    (lambda: _entry("aug eps on main scope l0 { x -> 1; x -> lam; }"),
     ParseError, "7:36: duplicate augmentation entry for 'x'"),
    (lambda: _entry("map m : main -> main { w -> x; }"), ParseError,
     "7:24: unknown source generator 'w'"),
    (lambda: _entry("aug eps on main scope l0 { w -> 1; }"), ParseError,
     "7:28: unknown generator 'w'"),
    (lambda: _entry("map m : main -> main { x -> x + y; }"), ParseError,
     "7:24: m: value of x mixes ends"),
    (lambda: _entry("map m : main -> main {\n  x -> z; }"), ParseError,
     "8:3: m: value of x has degree 1, expected 0"),
    (lambda: _entry("aug eps on main scope l0 { z -> 0; }"), ParseError,
     "7:28: eps: value for unscoped generator z"),
    (lambda: _entry("aug eps on main scope l1 {\n  z -> lam; }"),
     ParseError, "8:3: eps: nonzero value on nonzero-degree generator z"),
    (lambda: _entry("aug eps on main scope l0 { x -> lam + ; }"),
     ParseError, "7:39: expected a coefficient"),
    (lambda: _entry("aug eps on main scope l0 { x -> 2*; }"), ParseError,
     "7:35: expected a coefficient"),
    # writing Phi's target, the codomain, as `main` would bind it to the
    # source
    (lambda: serialize(_lacking("map")), ValueError,
     "cannot serialize map Phi: it uses a presentation the bundle does "
     "not hold"),
    (lambda: serialize(_lacking("aug")), ValueError,
     "cannot serialize augmentation eps: it uses a presentation the bundle "
     "does not hold"),
], ids=["trailing-input", "empty-bundle", "mixed-rings",
        "keyword-presentation-name", "keyword-map-name",
        "keyword-augmentation-name", "non-composable-term",
        "undeclared-name-after-a-non-composable-pair",
        "undefined-coefficient-after-a-non-composable-pair",
        "duplicate-map-entry", "duplicate-augmentation-entry",
        "unknown-map-generator", "unknown-augmentation-generator",
        "map-value-mixes-ends", "map-value-of-wrong-degree",
        "unscoped-augmentation-value", "nonzero-value-of-nonzero-degree",
        "no-coefficient-after-a-sign", "no-coefficient-after-a-star",
        "map-on-a-presentation-the-bundle-lacks",
        "augmentation-on-a-presentation-the-bundle-lacks"])
def test_reader_and_writer_refusals_name_what_is_wrong(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_serialize_refuses_a_scope_that_is_not_whole_links():
    P = example("unknot_one_handle").main
    part = CatalogBundle("part", {"main": P}, {},
                         {"eps": Augmentation(P, scope={"t0_12"})})
    with pytest.raises(ValueError, match="whole links"):
        serialize(part)
    link0 = {g.name for g in P.generators if g.link == "link0"}
    for scope in (link0, set()):
        whole = CatalogBundle("whole", {"main": P}, {},
                              {"eps": Augmentation(P, scope=scope)})
        assert bundle_equal(whole, parse(serialize(whole)))


def test_serialize_refuses_names_the_text_form_cannot_carry():
    P = example("unknot_one_handle").main
    link0 = {g.name for g in P.generators if g.link == "link0"}
    bundles = [CatalogBundle("x", {"a b": P}, {}, {}, []),
               CatalogBundle("x", {"main": P}, {"map": GenMap(P, P)}, {}),
               CatalogBundle("x", {"main": P}, {},
                             {"map": Augmentation(P, scope=link0)})]
    for bundle, why in zip(bundles, ("'a b' is not a name",
                                     "'map' is a reserved word",
                                     "'map' is a reserved word")):
        with pytest.raises(ValueError, match=why):
            serialize(bundle)


def test_the_readme_example_parses_and_round_trips():
    readme = (Path(__file__).parent.parent / "README.md").read_text()
    section = readme.split("## The `.cedga` format", 1)[1]
    text = section.split("```\n", 2)[1]
    bundle = parse(text)
    assert (list(bundle.presentations), list(bundle.maps),
            list(bundle.augmentations)) == (["main", "codomain"], ["Phi"],
                                            ["eps"])
    assert verify_chain_map(bundle.maps["Phi"]).ok
    assert verify_augmentation(bundle.augmentations["eps"]).ok
    canonical = serialize(bundle)
    assert bundle_equal(bundle, parse(canonical))
    assert serialize(parse(canonical)) == canonical


# one text with a presentation, a map and an augmentation, and one edit for
# each piece of data that bundle_equal compares
_EQUAL_TEXT = """ring laurent(lam)
presentation main {
  idempotents e1 e2
  gen x deg 0 from e1 to e1 short l0
  gen y deg 0 from e1 to e1 short l1
  gen a deg -1 from e1 to e1 long
  diff a = e1 - x
}
presentation cod {
  idempotents e1 e2
  gen x deg 0 from e1 to e1 short l0
  gen u deg 0 from e1 to e1 short l0
}
map phi : main -> cod {
  x -> u;
  idem e1 -> e1;
}
aug eps on main scope l0 {
  x -> lam;
}
"""


@pytest.mark.parametrize("old,new", [
    ("diff a = e1 - x", "diff a = e1 - 2*x"),
    ("gen y deg 0", "gen y deg 2"),
    ("y deg 0 from e1 to e1 short l1", "y deg 0 from e1 to e1 short l2"),
    ("y deg 0 from e1 to e1 short l1", "y deg 0 from e1 to e1 long"),
    ("x -> u;", "x -> lam*u;"),
    ("idem e1 -> e1", "idem e1 -> e2"),
    # the same values on another source
    ("phi : main -> cod", "phi : cod -> cod"),
    ("x -> lam;", "x -> lam^2;"),
    ("scope l0", "scope l0 l1"),
], ids=["differential-coefficient", "generator-degree", "generator-link",
        "generator-long", "map-value", "map-idempotent-value",
        "map-source",
        "augmentation-value", "augmentation-scope"])
def test_bundle_equal_sees_each_single_difference(old, new):
    assert old in _EQUAL_TEXT
    base, changed = parse(_EQUAL_TEXT), parse(_EQUAL_TEXT.replace(old, new))
    assert bundle_equal(base, parse(_EQUAL_TEXT))
    assert not bundle_equal(base, changed)
    assert not bundle_equal(changed, base)


@pytest.mark.parametrize("name", [*catalog_names(), None])
def test_bundle_equal_sees_a_missing_or_renamed_part(name):
    b = example(name) if name else parse(_EQUAL_TEXT)
    assert bundle_equal(b, parse(serialize(b)))
    for part in ("presentations", "maps", "augmentations"):
        for key in getattr(b, part):
            rest = dict(getattr(b, part))
            value = rest.pop(key)
            for other in (rest, {**rest, key + "_renamed": value}):
                changed = dataclasses.replace(b, **{part: other})
                assert not bundle_equal(b, changed)
                assert not bundle_equal(changed, b)


# The reader's outcome on a fixed corpus, pinned by one sha256: for each
# catalog bundle, its canonical text, tokens joined by single spaces, with
# one token inserted or deleted at a place drawn from
# random.Random(READER_SEED), or, for half of them, inserted, deleted or
# replaced by another token of its line inside an element; then hand-written
# elements in which a later error in a term competes with the term's
# composability (reported only once the whole term is read).  An outcome
# is the parsed data, with every element's terms in their stored order,
# or the ParseError text with its line:col.  Recorded before parse_expr
# read an element in one loop.
READER_SEED = 2329
READER_MUTATIONS = 60
READER_OUTCOMES = (
    "54b84109ed153d9ad42ea2cdbd25dfdeea8a47a016a60a89da9216875c626712")
_INSERTED = ("zz", "0", "1", "2", "/", "*", "+", "-", "(", ")", "^", "=",
             ";", "->", "{", "}", "e1", "e2", "idem", "\u00e9")
_PRECEDENCE_TEXTS = {
    "Q": ("ring Q\nidempotents e1 e2\ngen a deg 0 from e1 to e2\n"
          "gen b deg 0 from e1 to e2\ngen c deg -1 from e1 to e1\n"
          "diff c = {}\n",
          ("a*b", "a*b*zz", "a*b*1/0", "a*b + zz", "a*b*(", "a*b*(1/0)",
           "2*a*b", "a*2*b*3", "a*e1*b", "e2*a", "e1*a", "a*e2", "a*e1",
           "e1*e1", "e1*e2", "e2*e2*a*e1", "1 - e1 - e2", "a*a*b",
           "- a*b", "+ 3*a", "a * * b", "a*", "*a", "a*b*", "a b",
           "(1/2)*a*(3)", "a*b*2^3", "zz*a*b", "a*b - a*b", "a*a",
           "b*e1*a", "a*b*a*b*zz", "3/4*e2*a*e1 - 1/4*a + a", "a*b*1/",
           "a*b*-1", "a*b*c", "c*a*b", "a*(b)", "2*(1 + 1/2)*a*e1*e1")),
    "GF2": ("ring GF2\nidempotents e1 e2\ngen a deg 0 from e1 to e2\n"
            "gen b deg 0 from e2 to e1\ngen c deg -1 from e1 to e1\n"
            "diff c = {}\n",
            ("b*a", "a*b*a*b", "a*a*1/2", "a*a*zz", "b*a + b*a + e1",
             "1/3*b*a", "e2*b*a", "a*e1*b*a", "b*a*b*a*1/2")),
    "laurent": ("ring laurent(t,s)\nidempotents e1 e2\n"
                "gen a deg 0 from e1 to e2\ngen b deg 0 from e2 to e1\n"
                "gen c deg -1 from e1 to e1\ndiff c = {}\n",
                ("t*b*a", "b*t^-1*a", "(1 - t)*b*a*b", "b*a*t^", "a*a*t",
                 "t*zz", "2/0*b*a", "b*(t + 1/2)*a - 1/2*b*a",
                 "a*a*(t", "s^2*t*b*a - t*s^2*b*a", "(t*s - s*t)*e1",
                 "1 + t*e2", "-b*s^-2*a*3/2")),
}


def _reader_outcome(text):
    """The parsed data, or the ParseError text, as one line."""
    try:
        bundle = parse(text)
    except ParseError as exc:
        return f"error {exc}"
    data = []
    for name, P in bundle.presentations.items():
        fmt = P.ring.format
        data.append((name, P.data_tuple(),
                     [(i, [(w, fmt(c)) for w, c in el.items()])
                      for i, el in P.differential.items()]))
    for name, phi in bundle.maps.items():
        fmt = phi.target.ring.format
        data.append((name, sorted(phi.idem_values.items()),
                     [(gi, [(w, fmt(c)) for w, c in el.items()])
                      for gi, el in sorted(phi.gen_values.items())]))
    for name, eps in bundle.augmentations.items():
        fmt = eps.presentation.ring.format
        data.append((name, sorted(eps.scope),
                     [(gi, fmt(c)) for gi, c in sorted(eps.values.items())]))
    return repr(data)


def _reader_corpus():
    """Every text of the pinned corpus, in a fixed order."""
    rng = random.Random(READER_SEED)
    texts = []
    for name in catalog_names():
        lines = [_tokenize(line)[:-1] for line in
                 serialize(example(name)).splitlines()]
        vocabulary = sorted({t for line in lines for t in line}
                            | set(_INSERTED))
        for n in range(READER_MUTATIONS):
            # every other mutation falls inside an element, after the
            # `=` of a diff or the `->` of a map entry
            mutated = [list(line) for line in lines]
            line = rng.choice([line for line in mutated if line
                               and (n % 2 or "=" in line
                                    or line[-1] == ";")])
            k = rng.randrange(len(line))
            if not n % 2:
                k = max(k, line.index("=" if "=" in line else "->") + 1)
            op = rng.choice(("delete", "insert") if n % 2
                            else ("delete", "insert", "replace"))
            if op == "delete":
                del line[k]
            elif op == "insert":
                line.insert(k, rng.choice(vocabulary))
            else:
                line[k] = rng.choice(line)
            texts.append("\n".join(" ".join(line) for line in mutated))
    for template, elements in _PRECEDENCE_TEXTS.values():
        texts += [template.format(el) for el in elements]
    return texts


def test_reader_outcomes_on_the_mutation_corpus_are_pinned():
    outcomes = "\n".join(_reader_outcome(text) for text in _reader_corpus())
    assert (hashlib.sha256(outcomes.encode()).hexdigest()
            == READER_OUTCOMES)

