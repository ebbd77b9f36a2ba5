import functools
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from cedga import (POTENTIAL_MINUS, POTENTIAL_PLUS, Augmentation,
                   CatalogBundle, GenMap, Presentation, PresentationError,
                   catalog_names, example, gf2, laurent, rationals)
from cedga.dsl import (KEYWORDS, ParseError, _tokenize, bundle_equal, parse,
                       parse_element, serialize)


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
    with pytest.raises(Exception):
        # 1 = e1 + e2 is not composable with a's single ends; the validator
        # rejects it downstream
        B = parse(text)
        rep = B.presentations["main"].validate()
        assert not rep.ok
        raise ValueError(rep.violations[0])


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
    from cedga import verify_chain_map
    assert verify_chain_map(phi).ok

    T = example("singular_torus")
    parsed = parse(serialize(T))
    from cedga import verify_augmentation
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
], ids=["half_in_gf2", "zero_denominator_in_q", "duplicate_idempotent",
        "duplicate_gen", "generator_as_endpoint", "map_value_of_wrong_degree",
        "aug_value_out_of_scope", "aug_value_on_nonzero_degree",
        "aug_scope_names_an_unknown_link",
        "duplicate_map_entry", "duplicate_idem_map_entry",
        "duplicate_aug_entry", "superscript_digit", "arabic_indic_digit",
        "repeated_parameter", "non_ascii_parameter", "second_ring",
        "repeated_ring", "convention_after_presentation",
        "repeated_convention", "generator_named_as_parameter",
        "idempotent_named_as_parameter"])
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
    return tuple(t[1] for t in _tokenize(serialize(example(name)))[:-1])


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


def _outcome(tokenize, text):
    """(kind, text, line, col) tokens, from (kind, text, offset) tokens
    or as they come; or the error."""
    try:
        return [t if len(t) == 4 else (t[0], t[1], *_line_col(text, t[2]))
                for t in tokenize(text)]
    except ParseError as exc:
        return ("error", exc.message, exc.line, exc.col)


@settings(max_examples=500, deadline=None)
@given(st.text(alphabet="aZ_09 \t\r\n#{}():;=^*/+-,>@.", max_size=60))
def test_tokenizer_matches_the_reference(text):
    new, ref = _outcome(_tokenize, text), _outcome(_reference_tokenize, text)
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


@pytest.mark.parametrize("call,error,match", [
    (lambda: parse_element("e1 e1", _point(rationals())), ParseError,
     "1:4: trailing input 'e1'"),
    (lambda: serialize(CatalogBundle("x")), ValueError, "empty bundle"),
    (lambda: serialize(CatalogBundle("x", {"p": _point(rationals()),
                                           "q": _point(gf2())})),
     ValueError, "bundle mixes rings or conventions"),
], ids=["trailing-input", "empty-bundle", "mixed-rings"])
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
