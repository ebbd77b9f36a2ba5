import functools

import pytest
from hypothesis import given, settings, strategies as st

from cedga import catalog_names, example
from cedga.dsl import (ParseError, _tokenize, bundle_equal, parse,
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
    ("ring GF2\nidempotents e1\ngen x deg 0 from e1 to e1\n"
     "gen y deg 0 from e1 to e1\nmap phi : main -> main { x -> x; x -> y; }\n",
     5, 34),
    ("ring GF2\nidempotents e1\n"
     "map phi : main -> main { idem e1 -> e1; idem e1 -> e1; }\n", 3, 46),
    ("ring Q\nidempotents e1\ngen x deg 0 from e1 to e1 short l\n"
     "aug eps on main scope l { x -> 1; x -> 0; }\n", 4, 35),
], ids=["half_in_gf2", "zero_denominator_in_q", "duplicate_idempotent",
        "duplicate_gen", "generator_as_endpoint", "map_value_of_wrong_degree",
        "aug_value_out_of_scope", "aug_value_on_nonzero_degree",
        "duplicate_map_entry", "duplicate_idem_map_entry",
        "duplicate_aug_entry"])
def test_bad_coefficients_and_duplicates_are_positioned(text, line, col):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (exc.value.line, exc.value.col) == (line, col)


@functools.lru_cache(maxsize=None)
def _catalog_tokens(name):
    return tuple(t.value for t in _tokenize(serialize(example(name)))[:-1])


@settings(max_examples=150, deadline=None)
@given(name=st.sampled_from(catalog_names()), data=st.data())
def test_mutated_catalog_bundles_parse_or_raise_parse_error(name, data):
    # delete, duplicate, swap or replace (by another token of the same
    # bundle) one to three tokens of the canonical text
    tokens = list(_catalog_tokens(name))
    vocabulary = sorted(set(tokens))
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
    try:
        parse(" ".join(tokens))
    except ParseError:
        pass


def test_map_between_presentations_over_different_rings_is_positioned():
    over_q = example("unknot_one_handle").main
    over_gf2 = example("unknot_edge").main
    with pytest.raises(ParseError) as exc:
        parse("map m : a -> b { }", env={"a": over_q},
              target_env={"b": over_gf2})
    assert (exc.value.line, exc.value.col) == (1, 5)
