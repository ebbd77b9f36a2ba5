from dataclasses import asdict

import pytest

from cedga import (Bounds, GenMap, MapError, Presentation,
                   PresentationError, UnsupportedCodomainError, analysis,
                   example, exactness_search, gf2, morphisms,
                   obstruct_y_filling)
from cedga.analysis import letter_weights, word_weight
from cedga.cli import main
from cedga.dsl import parse, serialize

BOUNDS = Bounds(max_word_length=6, max_level=2)


def test_unknot_edge_is_obstructed():
    B = example("unknot_edge")
    cod = B.presentations["codomain"]
    rep = obstruct_y_filling(B.main, cod, B.maps["y_filling_links"], BOUNDS)
    assert rep.status == "obstructed"
    assert rep.decisive_generator in ("a1", "a2")
    assert rep.decisive_parity == "even"
    # the decisive image is the mapped idempotent part e1 + e2
    assert cod.format_element(rep.certificate.target) == "e1 + e2"
    cert = rep.certificate
    assert cert.status == "none_within_bounds" and cert.parity == "odd"
    # the embedded certificate re-checks as non-exact independently
    again = exactness_search(cod, cert.target, BOUNDS, parity=cert.parity)
    assert again.status == "none_within_bounds"


@pytest.mark.parametrize("pairing,codomain", [
    ("pairing_xw_yv", "codomain_xw_yv"),
    ("pairing_yv_xw", "codomain_yv_xw"),
])
def test_a3_link_both_pairings_obstructed(pairing, codomain):
    B = example("a3_link")
    cod = B.presentations[codomain]
    rep = obstruct_y_filling(B.main, cod, B.maps[pairing], BOUNDS)
    assert rep.status == "obstructed"
    assert rep.decisive_generator in ("a1", "a2")
    # the symbolic phi(b) cycle constraint enters the transcript
    assert any("phi(b)" in line and "cycle" in line for line in rep.transcript)
    again = exactness_search(cod, rep.certificate.target, BOUNDS,
                             parity=rep.certificate.parity)
    assert again.status == "none_within_bounds"


def test_the_presentations_must_be_the_link_maps_own():
    B = example("a3_link")
    link_map = B.maps["pairing_xw_yv"]
    bounds = Bounds(max_word_length=4, max_level=2)
    other = B.presentations["codomain_yv_xw"]
    # the link values index codomain_xw_yv's generators, not other's
    with pytest.raises(MapError, match="^pairing_xw_yv: the target given is "
                                       "not the map's target$"):
        obstruct_y_filling(B.main, other, link_map, bounds)
    with pytest.raises(MapError, match="^pairing_xw_yv: the source given is "
                                       "not the map's source$"):
        obstruct_y_filling(other, link_map.target, link_map, bounds)
    # presentations with the same data, from another parse, are accepted
    again = parse(serialize(B))
    rep = obstruct_y_filling(again.main, again.presentations["codomain_xw_yv"],
                             link_map, bounds)
    assert rep.status == "obstructed"
    assert rep.decisive_generator in ("a1", "a2")


def test_a3_arboreal_obstructed_via_b():
    B = example("a3_arboreal")
    cod = B.presentations["codomain"]
    rep = obstruct_y_filling(B.main, cod, B.maps["pairing_b"], BOUNDS)
    assert rep.status == "obstructed"
    assert rep.decisive_generator == "b"
    # b is decisive before a1, a2 are reached; their equations would be
    # skipped anyway since their short letters are unassigned
    again = exactness_search(cod, rep.certificate.target, BOUNDS,
                             parity=rep.certificate.parity)
    assert again.status == "none_within_bounds"


def _domain_with_link_gen(ring):
    dom = Presentation(ring)
    e1 = dom.add_idempotent("e1")
    x = dom.add_generator("x", 0, e1, e1, link="l")
    dom.set_differential(x, dom.zero())
    g = dom.add_generator("g", -1, e1, e1)
    dom.set_differential(g, dom.add(dom.el_idem(e1), dom.el_gen(x)))
    return dom, x, g


def test_defeated_obstruction_is_inconclusive():
    # codomain where both parity parts of the image bound: d u = e1 and
    # d(s*u) = s defeat the argument, so the verdict is Inconclusive
    ring = gf2()
    dom, x, g = _domain_with_link_gen(ring)
    cod = Presentation(ring)
    f1 = cod.add_idempotent("e1")
    s = cod.add_generator("s", 0, f1, f1, link="l")
    u = cod.add_generator("u", -1, f1, f1)
    cod.set_differential(s, cod.zero())
    cod.set_differential(u, cod.el_idem(f1))
    link = GenMap(dom, cod, gen_values={x.index: cod.el_gen(s)})
    rep = obstruct_y_filling(dom, cod, link, BOUNDS)
    assert rep.status == "inconclusive"
    assert any("bounded solution exists" in line for line in rep.transcript)


def test_genuinely_obstructed_toy():
    # same domain, but the image of x is not a boundary of even elements
    ring = gf2()
    dom, x, g = _domain_with_link_gen(ring)
    cod = Presentation(ring)
    f1 = cod.add_idempotent("e1")
    s = cod.add_generator("s", 1, f1, f1, link="l")
    cod.set_differential(s, cod.zero())
    dom2, x2, g2 = _domain_with_link_gen(ring)
    dom2.generators[x2.index].degree = 1  # match degrees for the map
    dom2.generators[g2.index].degree = -1
    # rebuild d g so it stays homogeneous: d g = e1 only
    dom2.set_differential(g2, dom2.el_idem("e1"))
    link = GenMap(dom2, cod, gen_values={x2.index: cod.el_gen(s)})
    rep = obstruct_y_filling(dom2, cod, link, BOUNDS)
    # e1 is not a boundary in a complex with d = 0
    assert rep.status == "obstructed"


def test_cycle_correction_can_defeat_the_parity_argument():
    # the decisive target e1 is not a boundary of odd words alone, but
    # e1 + z*s is bounded by v for the even cycle z = s; the corrected
    # solve finds it and the tool refuses to claim an obstruction
    ring = gf2()
    dom = Presentation(ring)
    e1 = dom.add_idempotent("e1")
    x = dom.add_generator("x", 0, e1, e1, link="l")
    hh = dom.add_generator("h", 0, e1, e1)
    g = dom.add_generator("g", -1, e1, e1)
    dom.set_differential(x, dom.zero())
    dom.set_differential(hh, dom.zero())
    dom.set_differential(g, dom.add(dom.el_idem(e1), dom.el_word([hh, x])))
    cod = Presentation(ring)
    f1 = cod.add_idempotent("e1")
    s = cod.add_generator("s", 0, f1, f1, link="l")
    v = cod.add_generator("v", -1, f1, f1)
    cod.set_differential(s, cod.zero())
    cod.set_differential(v, cod.add(cod.el_idem(f1), cod.el_word([s, s])))
    link = GenMap(dom, cod, gen_values={x.index: cod.el_gen(s)})
    rep = obstruct_y_filling(dom, cod, link, BOUNDS)
    assert rep.status == "inconclusive"
    # without the correction the target alone really is non-exact in bounds
    plain = exactness_search(cod, cod.el_idem(f1), BOUNDS, parity="odd")
    assert plain.status == "none_within_bounds"


def test_link_map_values_may_be_sums_of_single_generators():
    ring = gf2()
    dom, x, g = _domain_with_link_gen(ring)
    cod = Presentation(ring)
    f1 = cod.add_idempotent("e1")
    s = cod.add_generator("s", 0, f1, f1, link="l")
    t = cod.add_generator("t", 0, f1, f1, link="l")
    u = cod.add_generator("u", -1, f1, f1)
    cod.set_differential(s, cod.zero())
    cod.set_differential(t, cod.zero())
    cod.set_differential(u, cod.el_idem(f1))
    link = GenMap(dom, cod,
                  gen_values={x.index: cod.add(cod.el_gen(s), cod.el_gen(t))})
    rep = obstruct_y_filling(dom, cod, link, BOUNDS)
    assert rep.status in ("obstructed", "inconclusive")  # well-formed input


def test_codomain_must_flip_parity():
    ring = gf2()
    dom, x, g = _domain_with_link_gen(ring)
    cod = Presentation(ring)
    f1 = cod.add_idempotent("e1")
    s = cod.add_generator("s", 0, f1, f1, link="l")
    t = cod.add_generator("t", -1, f1, f1, link="l")
    cod.set_differential(s, cod.zero())
    cod.set_differential(t, cod.el_gen(s))  # length 1 -> length 1
    link = GenMap(dom, cod, gen_values={x.index: cod.el_gen(s)})
    with pytest.raises(UnsupportedCodomainError):
        obstruct_y_filling(dom, cod, link, BOUNDS)


def test_link_map_must_send_shorts_to_single_generators():
    ring = gf2()
    dom, x, g = _domain_with_link_gen(ring)
    cod = Presentation(ring)
    f1 = cod.add_idempotent("e1")
    s = cod.add_generator("s", 0, f1, f1, link="l")
    t = cod.add_generator("t", 0, f1, f1, link="l")
    cod.set_differential(s, cod.zero())
    cod.set_differential(t, cod.zero())
    link = GenMap(dom, cod, gen_values={x.index: cod.el_word([s, t])})
    with pytest.raises(MapError, match="value of x is not a sum of single "
                                       "generators"):
        obstruct_y_filling(dom, cod, link, BOUNDS)


LINK_MAP = """
ring GF2
presentation dom {
  idempotents e1
  gen x deg 0 from e1 to e1 short l
  gen h deg 0 from e1 to e1 long
  gen g deg -1 from e1 to e1 long
  diff x = 0
  diff h = 0
  diff g = e1 + x
}
presentation cod {
  idempotents f1
  gen s deg 0 from f1 to f1 short l
  gen v deg 0 from f1 to f1 long
  diff s = 0
  diff v = 0
}
map link : dom -> cod { %s }
"""


@pytest.mark.parametrize("values,match", [
    ("x -> s; h -> s;", "link map assigns the long generator h"),
    ("x -> 0;", "link map sends x to zero"),
    ("x -> v;", "link map value of x leaves the codomain's links"),
], ids=["long", "zero", "long-value"])
def test_link_map_validation_names_what_is_wrong(values, match):
    link = parse(LINK_MAP % values).maps["link"]
    with pytest.raises(MapError, match=match):
        obstruct_y_filling(link.source, link.target, link, BOUNDS)


# ---------------------------------------------------------------------------
# one small hand-built domain, codomain and link map per obstruction branch;
# each pins the status, the whole transcript and the certificate
# ---------------------------------------------------------------------------

SMALL = Bounds(max_word_length=4, max_level=2)
NOTE = "implied by the corrected decisive solve at correction zero"


def _obstruct(text):
    link = parse(text).maps["link"]
    rep = obstruct_y_filling(link.source, link.target, link, SMALL)
    return rep, link.target


def _certificate(target, candidates):
    return {"status": "none_within_bounds", "parity": "odd",
            "candidates": candidates, "bounds": asdict(SMALL),
            "target": target, "witness": None, "note": NOTE}


def test_generators_whose_differential_cannot_be_mapped_are_skipped():
    rep, cod = _obstruct("""
    ring GF2
    presentation dom {
      idempotents e1 e2
      gen x deg 0 from e1 to e1 short l
      gen y deg 0 from e1 to e1 short l
      gen h deg 0 from e1 to e1 long
      gen g1 deg -1 from e1 to e1 long
      gen g2 deg -1 from e1 to e1 long
      gen g3 deg -1 from e2 to e2 long
      diff x = 0
      diff y = 0
      diff h = 0
      diff g1 = e1 + x*y
      diff g2 = e1 + h*h
      diff g3 = e2
    }
    presentation cod {
      idempotents f1
      gen s deg 0 from f1 to f1 short l
      diff s = 0
    }
    map link : dom -> cod { x -> s; }
    """)
    assert rep.status == "inconclusive"
    assert rep.transcript == [
        "skip g1: short generator y unassigned",
        "skip g2: word h*h has more than one long letter",
        "skip g3: no image idempotents derived for e2",
        "no decisive equation found within bounds"]
    assert rep.certificate is None and rep.decisive_generator is None


def test_an_invalid_domain_is_refused(tmp_path, capsys):
    # d g = e1 + h + x puts h, a loop at e2, into an equation at e1
    text = """
    ring GF2
    presentation dom {
      idempotents e1 e2
      gen x deg 0 from e1 to e1 short l
      gen h deg 0 from e2 to e2 long
      gen g deg -1 from e1 to e1 long
      diff x = 0
      diff h = 0
      diff g = e1 + h + x
    }
    presentation cod {
      idempotents f1
      gen s deg 0 from f1 to f1 short l
      diff s = 0
    }
    map link : dom -> cod { x -> s; }
    """
    with pytest.raises(PresentationError, match="fails validation"):
        _obstruct(text)
    f = tmp_path / "bad.cedga"
    f.write_text(text)
    assert main(["obstruct", str(f)]) == 2
    assert "fails validation" in capsys.readouterr().err


def test_a_generator_whose_image_ends_cannot_be_derived_is_skipped():
    # no short letter touches e2, so phi(h) has no known ends; the search
    # goes on to g2
    rep, cod = _obstruct("""
    ring GF2
    presentation dom {
      idempotents e1 e2
      gen x deg 0 from e1 to e1 short l
      gen h deg 0 from e2 to e2 long
      gen g2 deg -1 from e1 to e1 long
      diff x = 0
      diff h = 0
      diff g2 = e1
    }
    presentation cod {
      idempotents f1
      gen s deg 0 from f1 to f1 short l
      diff s = 0
    }
    map link : dom -> cod { x -> s; }
    """)
    assert rep.status == "obstructed"
    assert (rep.decisive_generator, rep.decisive_parity) == ("g2", "even")
    assert rep.transcript == [
        "skip h: image ends of phi(h) cannot be derived",
        "g2: even part of the mapped differential is f1; a solution needs "
        "the odd part of phi(g2) to bound it",
        "decisive: no bounded solution at g2 (even part)"]
    assert rep.certificate.to_json_dict(cod) == _certificate("f1", 0)


def test_unconstrained_symbolic_generator_lets_a_correction_bound_the_target():
    # d h uses the unassigned y, so phi(h) is free; u = v and z = s solve
    # d v + s*s = f1
    rep, cod = _obstruct("""
    ring GF2
    presentation dom {
      idempotents e1
      gen x deg 0 from e1 to e1 short l
      gen y deg 1 from e1 to e1 short l
      gen h deg 0 from e1 to e1 long
      gen g deg -1 from e1 to e1 long
      diff x = 0
      diff y = 0
      diff h = x*y
      diff g = e1 + h*x
    }
    presentation cod {
      idempotents f1
      gen s deg 0 from f1 to f1 short l
      gen v deg -1 from f1 to f1 long
      diff s = 0
      diff v = f1 + s*s
    }
    map link : dom -> cod { x -> s; }
    """)
    assert rep.status == "inconclusive"
    assert rep.transcript == [
        "skip h: short generator y unassigned",
        "g: even part of the mapped differential is f1; a solution needs "
        "the odd part of phi(g) to bound it",
        "  symbolic phi(h) is unconstrained",
        "  g (even part): bounded solution exists; not decisive",
        "no decisive equation found within bounds"]
    assert rep.certificate is None


def test_constraint_with_an_opposite_parity_part_is_decisive():
    # the same system as above is solved by z = s, but now d phi(h) must be
    # s*t, and no bounded odd correction has that differential
    rep, cod = _obstruct("""
    ring GF2
    presentation dom {
      idempotents e1
      gen x deg 0 from e1 to e1 short l
      gen y deg 1 from e1 to e1 short l
      gen g deg -1 from e1 to e1 long
      gen h deg 0 from e1 to e1 long
      diff x = 0
      diff y = 0
      diff g = e1 + h*x
      diff h = x*y
    }
    presentation cod {
      idempotents f1
      gen s deg 0 from f1 to f1 short l
      gen t deg 1 from f1 to f1 short l
      gen v deg -1 from f1 to f1 long
      diff s = 0
      diff t = 0
      diff v = f1 + s*s
    }
    map link : dom -> cod { x -> s; y -> t; }
    """)
    assert rep.status == "obstructed"
    assert (rep.decisive_generator, rep.decisive_parity) == ("g", "even")
    assert cod.format_element(rep.certificate.target) == "f1"
    assert rep.transcript == [
        "g: even part of the mapped differential is f1; a solution needs "
        "the odd part of phi(g) to bound it",
        "  symbolic phi(h) odd part is constrained by s*t "
        "(image of d h is s*t)",
        "decisive: no bounded solution at g (even part)"]
    assert rep.certificate.to_json_dict(cod) == _certificate("f1", 7)


def test_correction_slots_that_do_not_compose_are_left_out():
    # e1 has the images f1 (through x) and f2 (through y); the correction
    # z = s2 composes with phi(y) = s2 but not with phi(x) = s, and
    # w + v + z solves the even equation
    rep, cod = _obstruct("""
    ring GF2
    presentation dom {
      idempotents e1
      gen x deg 0 from e1 to e1 short l
      gen y deg 0 from e1 to e1 short l
      gen h deg 0 from e1 to e1 long
      gen g deg -1 from e1 to e1 long
      diff x = 0
      diff y = 0
      diff h = 0
      diff g = e1 + h*x + h*y
    }
    presentation cod {
      idempotents f1 f2
      gen s deg 0 from f1 to f1 short l
      gen s2 deg 0 from f2 to f2 short l
      gen w deg -1 from f1 to f1 long
      gen v deg -1 from f2 to f2 long
      diff s = 0
      diff s2 = 0
      diff w = f1
      diff v = f2 + s2*s2
    }
    map link : dom -> cod { x -> s; y -> s2; }
    """)
    assert rep.status == "inconclusive"
    assert rep.transcript == [
        "g: even part of the mapped differential is f1 + f2; a solution "
        "needs the odd part of phi(g) to bound it",
        "  symbolic phi(h) odd part is a cycle (image of d h is 0)",
        "  g (even part): bounded solution exists; not decisive",
        "no decisive equation found within bounds"]
    assert rep.certificate is None


def test_link_map_image_that_does_not_compose_is_rejected():
    with pytest.raises(MapError, match="link map image of x\\*y is not "
                                       "composable"):
        _obstruct("""
        ring GF2
        presentation dom {
          idempotents e1
          gen x deg 0 from e1 to e1 short l
          gen y deg 0 from e1 to e1 short l
          gen g deg -1 from e1 to e1 long
          diff x = 0
          diff y = 0
          diff g = e1 + x*y
        }
        presentation cod {
          idempotents f1 f2
          gen s deg 0 from f1 to f1 short l
          gen s2 deg 0 from f2 to f2 short l
          diff s = 0
          diff s2 = 0
        }
        map link : dom -> cod { x -> s; y -> s2; }
        """)


def test_two_term_link_values_expand_term_by_term():
    # phi(x) = s + 2t: the target is f1 - (s + 2t)^2, and the slot x*h
    # becomes 2*s*z + 4*t*z; d v is the target plus 2*s*s + 4*t*s, so the
    # correction z = s is needed to close the equation
    rep, cod = _obstruct("""
    ring Q
    presentation dom {
      idempotents e1
      gen x deg 0 from e1 to e1 short l
      gen h deg 0 from e1 to e1 long
      gen g deg -1 from e1 to e1 long
      diff x = 0
      diff h = 0
      diff g = e1 - x*x + 2*x*h
    }
    presentation cod {
      idempotents f1
      gen s deg 0 from f1 to f1 short l
      gen t deg 0 from f1 to f1 short l
      gen v deg -1 from f1 to f1 long
      diff s = 0
      diff t = 0
      diff v = f1 + s*s - 2*s*t + 2*t*s - 4*t*t
    }
    map link : dom -> cod { x -> s + 2*t; }
    """)
    assert rep.status == "inconclusive"
    assert rep.transcript == [
        "g: even part of the mapped differential is "
        "f1 - s*s - 2*s*t - 2*t*s - 4*t*t; a solution needs the odd part "
        "of phi(g) to bound it",
        "  symbolic phi(h) odd part is a cycle (image of d h is 0)",
        "  g (even part): bounded solution exists; not decisive",
        "no decisive equation found within bounds"]
    assert rep.certificate is None


# ---------------------------------------------------------------------------
# the split by the weights d preserves
# ---------------------------------------------------------------------------

def _weights_seen(monkeypatch):
    """The `weights` argument of every composable_words call the
    obstruction makes, in order: the u words go through `analysis` (its
    bounded solve), the z words through `morphisms`."""
    seen = []
    walk = morphisms.composable_words
    assert analysis.composable_words is walk

    def spy(P, **kw):
        seen.append(kw.get("weights"))
        return walk(P, **kw)

    for module in (analysis, morphisms):
        monkeypatch.setattr(module, "composable_words", spy)
    return seen


def _unsplit(monkeypatch, text):
    """The report with no weights at all, so that no solve is split."""
    with monkeypatch.context() as m:
        m.setattr(morphisms, "letter_weights",
                  lambda P: [()] * len(P.generators))
        return _obstruct(text)


MIXED_OFFSETS = """
ring GF2
presentation dom {
  idempotents e1
  gen x deg 0 from e1 to e1 short l
  gen y deg 0 from e1 to e1 short l
  gen h deg 0 from e1 to e1 long
  gen g deg -1 from e1 to e1 long
  diff x = 0
  diff y = 0
  diff h = 0
  diff g = e1 + h*x + h*y
}
presentation cod {
  idempotents f1
  gen s deg 0 from f1 to f1 short l
  gen s2 deg 0 from f1 to f1 short l
  gen v1 deg -1 from f1 to f1 long
  gen v2 deg -1 from f1 to f1 long
  diff s = 0
  diff s2 = 0
  diff v1 = f1 + s2*s2
  diff v2 = s2*s
}
map link : dom -> cod { x -> s; y -> s2; }
"""


def test_a_block_with_mixed_slot_offsets_is_solved_unsplit(monkeypatch):
    # d preserves one weight, wt(s) = wt(v2) = 1 and 0 on s2 and v1, so
    # the slots z*s and z*s2 of phi(h) sit at offsets 1 and 0; the
    # solution u = v1 + v2, z = s2 needs a u of weight 1 and a z of
    # weight 0, which no single offset keeps together
    cod = parse(MIXED_OFFSETS).presentations["cod"]
    assert letter_weights(cod) == [(1,), (0,), (0,), (1,)]
    seen = _weights_seen(monkeypatch)
    rep, _ = _obstruct(MIXED_OFFSETS)
    assert seen == [None, None]  # the u words, then the z words
    assert rep.status == "inconclusive"
    assert rep == _unsplit(monkeypatch, MIXED_OFFSETS)[0]


CONSTRAINED = """
ring GF2
presentation dom {
  idempotents e1
  gen x deg 0 from e1 to e1 short l
  gen y deg 1 from e1 to e1 short l
  gen h deg 0 from e1 to e1 long
  gen g deg -1 from e1 to e1 long
  diff x = 0
  diff y = 0
  diff h = x*y
  diff g = e1 + h*x
}
presentation cod {
  idempotents f1
  gen s deg 0 from f1 to f1 short l
  gen t deg 1 from f1 to f1 short l
  gen z0 deg 0 from f1 to f1 long
  gen u deg -1 from f1 to f1 long
  gen v deg -1 from f1 to f1 long
  diff s = 0
  diff t = 0
  diff z0 = s*t
  diff u = f1
  diff v = z0*s
}
map link : dom -> cod { x -> s; y -> t; }
"""


def test_the_constraint_rows_keep_their_own_weight(monkeypatch):
    # d z must be s*t, so z = z0, whose slot z0*s has the weight of
    # s*t*s, not of the target f1; u + v and z0 solve the equation only
    # when the columns of that weight are kept
    seen = _weights_seen(monkeypatch)
    rep, cod = _obstruct(CONSTRAINED)
    wt = letter_weights(cod)
    offset = word_weight(wt, (cod.gen("s").index,))
    weight = word_weight(wt, tuple(cod.gen(x).index for x in "sts"))
    assert weight != (0, 0)
    # h's own solve d u = s*t comes first; then g's u words and z words
    assert seen[1:] == [(wt, {(0, 0), weight}),
                    (wt, {tuple(a - b for a, b in zip(goal, offset))
                          for goal in ((0, 0), weight)})]
    assert rep.status == "inconclusive"
    assert rep.transcript == [
        "h: even part of the mapped differential is s*t; a solution needs "
        "the odd part of phi(h) to bound it",
        "  h (even part): bounded solution exists; not decisive",
        "g: even part of the mapped differential is f1; a solution needs "
        "the odd part of phi(g) to bound it",
        "  symbolic phi(h) odd part is constrained by s*t (image of d h is "
        "s*t)",
        "  g (even part): bounded solution exists; not decisive",
        "no decisive equation found within bounds"]
    assert rep == _unsplit(monkeypatch, CONSTRAINED)[0]


CATALOG_MAPS = [("unknot_edge", "y_filling_links", "codomain"),
                ("a3_link", "pairing_xw_yv", "codomain_xw_yv"),
                ("a3_link", "pairing_yv_xw", "codomain_yv_xw"),
                ("a3_arboreal", "pairing_b", "codomain")]


@pytest.mark.parametrize("name,link_map,codomain", CATALOG_MAPS)
def test_every_catalog_solve_is_split(monkeypatch, name, link_map, codomain):
    B = example(name)
    seen = _weights_seen(monkeypatch)
    rep = obstruct_y_filling(B.main, B.presentations[codomain],
                             B.maps[link_map], SMALL)
    assert rep.status == "obstructed"
    assert seen and None not in seen


# d g = x*x maps to s*s, whose ends are (f1, f1); y -> t puts f2 among
# e1's images too, so the u columns span four pairs of image ends
FOUR_ENDS = """
ring GF2
presentation dom {
  idempotents e1
  gen x deg 0 from e1 to e1 short l
  gen y deg 0 from e1 to e1 short l
  gen g deg -1 from e1 to e1 long
  diff x = 0
  diff y = 0
  diff g = x*x
}
presentation cod {
  idempotents f1 f2
  gen s deg 0 from f1 to f1 short l
  gen t deg 0 from f2 to f2 short l
  gen r deg -1 from f1 to f1 long
  gen q deg -1 from f1 to f2 long
  gen q2 deg -1 from f2 to f1 long
  diff s = 0
  diff t = 0
  diff r = 0
  diff q = 0
  diff q2 = 0
}
map link : dom -> cod { x -> s; y -> t; }
"""


def test_the_certificate_counts_only_the_targets_ends():
    bounds = Bounds(max_word_length=3)
    link = parse(FOUR_ENDS).maps["link"]
    cod = link.target
    rep = obstruct_y_filling(link.source, cod, link, bounds)
    cert = rep.certificate
    assert (rep.status, cod.format_element(cert.target), cert.parity,
            cert.candidates) == ("obstructed", "s*s", "odd", 4)
    again = exactness_search(cod, cert.target, bounds, parity="odd")
    assert again.candidates == 4


def _assert_the_certificate_is_its_search(link, bounds):
    cod = link.target
    rep = obstruct_y_filling(link.source, cod, link, bounds)
    assert rep.status == "obstructed"
    cert = rep.certificate
    stated = cert.to_json_dict(cod)
    assert stated.pop("note") == NOTE
    again = exactness_search(cod, cert.target, bounds, parity=cert.parity)
    assert stated == again.to_json_dict(cod)


@pytest.mark.parametrize("length", [2, 3, 4, 5])
@pytest.mark.parametrize("name,link_map,codomain", CATALOG_MAPS)
def test_every_catalog_certificate_is_the_search_it_states(name, link_map,
                                                           codomain, length):
    _assert_the_certificate_is_its_search(
        example(name).maps[link_map],
        Bounds(max_word_length=length, max_level=2))


def test_the_four_ends_certificate_is_the_search_it_states():
    _assert_the_certificate_is_its_search(parse(FOUR_ENDS).maps["link"],
                                          Bounds(max_word_length=3))
