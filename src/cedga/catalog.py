"""Constructors for the point-algebra families and the worked-example registry.

The n-point family on generators c^p_{ij} carries the differential

    d c^0_{ij} = sum_k s(i,k) c^0_{kj} c^0_{ik}
    d c^p_{ij} = [p = 1] delta_ij + sum_{l=0..p} sum_k s(i,k) c^{p-l}_{kj} c^l_{ik}

with c^0_{ij} = 0 for i >= j and delta_ij the idempotent at point i.  Two
sign readings are supported: ``alternating`` takes s(i,k) = (-1)^{m(i)+m(k)}
(the default; it is the reading that satisfies d^2 = 0 over Q), while
``uniform_minus`` takes s(i,k) = -1.

The hat family, all on link ``hat``, adds a second copy ``y`` of the point
family ``x`` plus a hatted chord ``xh`` per x chord, with d(hat c) =
x - y + G(d hat c), where G replaces, in each monomial of the point-family
differential written in hatted letters, everything right of the hatted
slot by x letters and everything left by y letters, with Koszul sign given
by the unhatted degrees left of the slot.  ``closed`` identifies the x and
y copies.

Transcribed examples attach link copies to ambient idempotents through a
legs map (one idempotent per point of the link); the registry records the
leg attachments and Maslov potentials solved from composability and degree
homogeneity of each example's differentials.
"""
from __future__ import annotations

from dataclasses import dataclass, field

from .algebra import (POTENTIAL_PLUS, Presentation, PresentationError,
                      check_ring)
from .coefficients import gf2, laurent, rationals
from .morphisms import Augmentation, GenMap

ALTERNATING = "alternating"
UNIFORM_MINUS = "uniform_minus"


class InvalidFamilyError(PresentationError):
    """Family parameters out of range (e.g. fewer than two points)."""


def _family_indices(n, p_max):
    for p in range(p_max + 1):
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if p == 0 and i >= j:
                    continue
                yield (p, i, j)


def _gen_name(prefix, p, i, j):
    if i <= 9 and j <= 9:
        return f"{prefix}{p}_{i}{j}"
    return f"{prefix}{p}_{i}_{j}"


def _degree(convention, m, p, i, j):
    if convention == POTENTIAL_PLUS:
        return 1 - 2 * p + m[j - 1] - m[i - 1]
    return 1 - 2 * p - m[j - 1] + m[i - 1]


def _sign_exp(signs, m, j, k):
    # Alternating uses the row target j, not the source i: (-1)^{m(j)+m(k)}
    # is the unique reading satisfying d^2 = 0 over Q for all potentials;
    # both readings coincide when all potentials share one parity.
    if signs == ALTERNATING:
        return m[j - 1] + m[k - 1]
    if signs == UNIFORM_MINUS:
        return 1
    raise ValueError(f"unknown sign reading {signs!r}")


def _quadratic_terms(n, p, i, j):
    """(left, right) index pairs of the words c^{p-l}_{kj} c^l_{ik}."""
    for l in range(p + 1):
        for k in range(1, n + 1):
            left = (p - l, k, j)
            right = (l, i, k)
            if left[0] == 0 and left[1] >= left[2]:
                continue
            if right[0] == 0 and right[1] >= right[2]:
                continue
            yield left, right


def add_point_family(P: Presentation, *, prefix, n, potentials, link_id,
                     p_max=2, legs=None, signs=ALTERNATING):
    """Attach one n-point link family, on the link `link_id`, to `P`;
    returns the name table."""
    if n < 2:
        raise InvalidFamilyError(f"point family needs n >= 2, got {n}")
    if p_max < 0:
        raise InvalidFamilyError("p_max must be >= 0")
    m = tuple(potentials)
    if len(m) != n:
        raise InvalidFamilyError("potential vector length must equal n")
    if legs is None:
        legs = list(range(n))
    legs = [P.idem(x).index for x in legs]
    gens = {}
    for (p, i, j) in _family_indices(n, p_max):
        gens[(p, i, j)] = P.add_generator(
            _gen_name(prefix, p, i, j), _degree(P.convention, m, p, i, j),
            legs[i - 1], legs[j - 1], link=link_id, level=p)
    for (p, i, j) in _family_indices(n, p_max):
        el = P.el_idem(legs[i - 1]) if p == 1 and i == j else P.zero()
        for left, right in _quadratic_terms(n, p, i, j):
            coeff = P.ring.sign_pow(_sign_exp(signs, m, j, left[1]))
            P.ring.add_into(el, P.el_word([gens[left], gens[right]],
                                          coeff).items())
        P.set_differential(gens[(p, i, j)], el)
    return gens


def add_hat_family(P: Presentation, *, n, potentials, p_max=2, legs=None,
                   signs=ALTERNATING, closed=False):
    """Attach the hat family on link ``hat``: point copies ``x`` and ``y``
    (one copy ``x`` when `closed`) plus, for each x chord, a hatted chord
    ``xh`` with its ends and level and degree one lower."""
    m = tuple(potentials)
    x = add_point_family(P, prefix="x", n=n, potentials=m, p_max=p_max,
                         legs=legs, link_id="hat", signs=signs)
    y = x if closed else add_point_family(
        P, prefix="y", n=n, potentials=m, p_max=p_max, legs=legs,
        link_id="hat", signs=signs)
    hats = {k: P.add_generator(_gen_name("xh", *k), g.degree - 1, g.source,
                               g.target, link="hat", level=g.level)
            for k, g in x.items()}
    for (p, i, j), hat in hats.items():
        el = (P.zero() if closed else
              P.sub(P.el_gen(x[(p, i, j)]), P.el_gen(y[(p, i, j)])))
        # G of the point-family differential; the idempotent term has no
        # slot to hat and contributes nothing.  The G contribution enters
        # with a global minus sign: that is the completion with d^2 = 0
        # over Q; over GF2 (where the catalog uses hats) the sign is
        # invisible.
        for left, right in _quadratic_terms(n, p, i, j):
            s = _sign_exp(signs, m, j, left[1]) + 1
            P.ring.add_into(el, P.el_word([hats[left], x[right]],
                                          P.ring.sign_pow(s)).items())
            P.ring.add_into(el, P.el_word(
                [y[left], hats[right]],
                P.ring.sign_pow(s + y[left].degree)).items())
        P.set_differential(hat, el)
    return x, y, hats


def _standalone(n, potentials, ring, convention):
    """A presentation with idempotents e1..en over `ring` (default GF2),
    and the potentials (default all zero) of a family on its n points."""
    P = Presentation(ring if ring is not None else gf2(), convention)
    for i in range(1, n + 1):
        P.add_idempotent(f"e{i}")
    return P, tuple(potentials) if potentials is not None else (0,) * n


def make_point_algebra(n, potentials=None, p_max=2, ring=None, *,
                       convention=POTENTIAL_PLUS, signs=ALTERNATING,
                       prefix="c", link_id="pts") -> Presentation:
    """The standalone n-point algebra with one idempotent per point."""
    P, m = _standalone(n, potentials, ring, convention)
    add_point_family(P, prefix=prefix, n=n, potentials=m, p_max=p_max,
                     link_id=link_id, signs=signs)
    return P


def make_hat_point_algebra(n, potentials=None, p_max=2, closed=False,
                           ring=None, *, convention=POTENTIAL_PLUS,
                           signs=ALTERNATING) -> Presentation:
    """The standalone hat algebra over an interval of singularities."""
    P, m = _standalone(n, potentials, ring, convention)
    add_hat_family(P, n=n, potentials=m, p_max=p_max, closed=closed,
                   signs=signs)
    return P


def free_product(p1: Presentation, p2: Presentation, shared="all"):
    """Free product over identified idempotents.

    `shared` maps labels of p2 idempotents to labels of p1 idempotents
    ("all" identifies by equal label).  Returns (P, inc1, inc2) where the
    inclusions are chain maps carrying each generator to its copy.
    Generator names are kept unless they collide, in which case the
    colliding pair is renamed ``l_``/``r_``; so is an unshared p2
    idempotent whose label is taken.
    """
    check_ring(p1, p2)
    if p1.convention != p2.convention:
        raise PresentationError("free product needs a common convention")
    if shared == "all":
        shared = {e.label: e.label for e in p2.idempotents
                  if p1.word_of(e.label) is not None}
    shared = dict(shared)
    for l2, l1 in shared.items():
        p1.idem(l1), p2.idem(l2)  # raises KeyError if unmatched
    if len(set(shared.values())) != len(shared):
        raise PresentationError("idempotent identification is not bijective")

    P = Presentation(p1.ring, p1.convention)
    idem1 = {e.index: P.add_idempotent(e.label).index for e in p1.idempotents}
    idem2 = {}
    for e in p2.idempotents:
        if e.label in shared:
            idem2[e.index] = idem1[p1.idem(shared[e.label]).index]
        else:
            label = e.label if P.word_of(e.label) is None else "r_" + e.label
            idem2[e.index] = P.add_idempotent(label).index

    collide = {g.name for g in p1.generators} & {g.name for g in p2.generators}
    incs = []
    for src, prefix, idem_map, name in ((p1, "l_", idem1, "inc1"),
                                        (p2, "r_", idem2, "inc2")):
        gmap = {g.index: P.add_generator(
                    prefix + g.name if g.name in collide else g.name, g.degree,
                    idem_map[g.source], idem_map[g.target], g.link,
                    g.level).index
                for g in src.generators}
        for g in src.generators:
            P.set_differential(gmap[g.index], {
                idem_map[w] if isinstance(w, int)
                else tuple(gmap[i] for i in w): c
                for w, c in src.differential.get(g.index, {}).items()})
        incs.append(GenMap(src, P, name=name,
                           gen_values={gi: {(j,): P.ring.one()}
                                       for gi, j in gmap.items()},
                           idem_values=dict(idem_map)))
    return (P, *incs)


# ---------------------------------------------------------------------------
# worked-example registry
# ---------------------------------------------------------------------------

@dataclass
class CatalogBundle:
    name: str
    presentations: dict = field(default_factory=dict)
    maps: dict = field(default_factory=dict)
    augmentations: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def main(self) -> Presentation:
        return self.presentations["main"]


def _plus_words(P, el, *words):
    """el plus each word, a list of generator names, summed in place."""
    for w in words:
        P.ring.add_into(el, P.el_word(w).items())
    return el


def _unknot_one_handle(p_max):
    P = Presentation(rationals(), POTENTIAL_PLUS)
    e1 = P.add_idempotent("e1")
    # both link points lie on the single top handle
    add_point_family(P, prefix="t", n=2, potentials=(1, 0), p_max=p_max,
                     legs=[e1, e1], link_id="link0")
    a = P.add_generator("a", -1, e1, e1)
    P.set_differential(a, P.sub(P.el_idem(e1), P.el_word(["t0_12"])))
    notes = [
        "one-handle unknot: link algebra on two points with potentials (1,0)",
        "d a = 1 - t0_12; link differentials are the two-point family rows",
    ]
    return CatalogBundle("unknot_one_handle", {"main": P}, {}, {}, notes)


def _unknot_two_handles(p_max):
    P = Presentation(rationals(), POTENTIAL_PLUS)
    e1 = P.add_idempotent("e1")
    e2 = P.add_idempotent("e2")
    for pref, link in (("t1_", "link1"), ("t2_", "link2")):
        add_point_family(P, prefix=pref, n=2, potentials=(1, 0), p_max=p_max,
                         legs=[e1, e2], link_id=link)
    a = P.add_generator("a", -1, e1, e2)
    P.set_differential(a, P.sub(P.el_word(["t1_0_12"]), P.el_word(["t2_0_12"])))
    notes = [
        "two-handle unknot: two two-point link copies joining the handles",
        "d a = t(1)^0_12 - t(2)^0_12",
    ]
    return CatalogBundle("unknot_two_handles", {"main": P}, {}, {}, notes)


def _saddle_cobordism(p_max):
    ring = gf2()
    dom = Presentation(ring, POTENTIAL_PLUS)
    e1 = dom.add_idempotent("e1")
    b = dom.add_generator("b", 0, e1, e1)
    a1p = dom.add_generator("a1_plus", -1, e1, e1)
    a2p = dom.add_generator("a2_plus", -1, e1, e1)
    dom.set_differential(b, dom.zero())
    one_plus_b = dom.add(dom.el_idem(e1), dom.el_gen(b))
    dom.set_differential(a1p, one_plus_b)
    dom.set_differential(a2p, one_plus_b)

    cod = Presentation(ring, POTENTIAL_PLUS)
    f1 = cod.add_idempotent("e1")
    add_hat_family(cod, n=3, potentials=(1, 0, 0), p_max=p_max,
                   legs=[f1, f1, f1])
    a1m = cod.add_generator("a1_minus", -1, f1, f1)
    a2m = cod.add_generator("a2_minus", -1, f1, f1)
    cod.set_differential(a1m, cod.add(cod.el_idem(f1), cod.el_word(["x0_12"])))
    cod.set_differential(a2m, cod.add(cod.el_idem(f1), cod.el_word(["y0_12"])))

    phi = GenMap(dom, cod, name="Phi",
                 gen_values={
                     a1p.index: cod.add(cod.el_word(["a1_minus"]),
                                        cod.el_word(["xh0_12"])),
                     a2p.index: cod.el_word(["a2_minus"]),
                     b.index: cod.el_word(["y0_12"]),
                 },
                 idem_values={e1.index: f1.index})
    notes = [
        "saddle cobordism over GF2; domain d a1+ = d a2+ = 1 + b forced by"
        " the chain-map identities d(Phi ai+) = 1 + y0_12",
        "[inferred] codomain d a1- = 1 + x0_12 (forced by d(Phi a1+) = 1 + y0_12)",
        "hat-link potentials (1,0,0) so that |x0_12| = 0 = |b|",
    ]
    return CatalogBundle("saddle_cobordism", {"main": dom, "codomain": cod},
                         {"Phi": phi}, {}, notes)


def _unknot_edge(p_max):
    ring = gf2()
    P = Presentation(ring, POTENTIAL_PLUS)
    e1 = P.add_idempotent("e1")
    e2 = P.add_idempotent("e2")
    e3 = P.add_idempotent("e3")
    # dumbbell: loop edges at each vertex plus the connecting arc
    add_point_family(P, prefix="x", n=3, potentials=(1, 0, 0), p_max=p_max,
                     legs=[e1, e1, e3], link_id="linkx")
    add_point_family(P, prefix="y", n=3, potentials=(1, 0, 0), p_max=p_max,
                     legs=[e2, e2, e3], link_id="linky")
    a1 = P.add_generator("a1", -1, e1, e1)
    a2 = P.add_generator("a2", -1, e2, e2)
    P.set_differential(a1, P.add(P.el_idem(e1), P.el_word(["x0_12"])))
    P.set_differential(a2, P.add(P.el_idem(e2), P.el_word(["y0_12"])))

    cod = make_point_algebra(3, (1, 0, 0), p_max=p_max, ring=ring,
                             prefix="c", link_id="linkc")
    values = {}
    for g in P.generators:
        if g.role == "short":
            target_name = "c" + g.name[1:]
            values[g.index] = cod.el_word([target_name])
    link_map = GenMap(P, cod, name="y_filling_links", gen_values=values)
    notes = [
        "unknot with a singular edge (dumbbell): legs (1,2) of each vertex lie"
        " on the loop edge at that vertex, leg 3 on the connecting arc",
        "d a1 = e1 + x0_12, d a2 = e2 + y0_12 over GF2",
        "filling link map sends both vertex links onto one three-point link",
    ]
    return CatalogBundle("unknot_edge", {"main": P, "codomain": cod},
                         {"y_filling_links": link_map}, {}, notes)


def _theta(p_max):
    ring = gf2()
    P = Presentation(ring, POTENTIAL_PLUS)
    es = [P.add_idempotent(f"e{i}") for i in (1, 2, 3)]
    add_point_family(P, prefix="x", n=3, potentials=(0, 0, 0), p_max=p_max,
                     legs=es, link_id="linkx")
    add_point_family(P, prefix="y", n=3, potentials=(0, 0, 0), p_max=p_max,
                     legs=es, link_id="linky")
    b = P.add_generator("b", 0, es[1], es[2])
    a = P.add_generator("a", -1, es[0], es[0])
    P.set_differential(b, P.add(P.el_word(["x0_23"]), P.el_word(["y0_23"])))
    P.set_differential(a, _plus_words(
        P, P.el_idem(es[0]),
        ["y1_31", "b", "x0_12"], ["y1_31", "x0_13"], ["y1_21", "x0_12"]))
    notes = [
        "theta graph: three parallel edges, both vertex links attach with"
        " identity legs; potentials zero",
        "d a = e1 + y1_31*b*x0_12 + y1_31*x0_13 + y1_21*x0_12 over GF2",
    ]
    return CatalogBundle("theta", {"main": P}, {}, {}, notes)


def _a3_link_main(p_max):
    ring = gf2()
    P = Presentation(ring, POTENTIAL_PLUS)
    es = [P.add_idempotent(f"e{i}") for i in range(1, 7)]
    m = (0, 1, 0)
    for pref, legs in (("x", (1, 3, 5)), ("y", (2, 5, 4)),
                       ("v", (1, 6, 4)), ("w", (2, 3, 6))):
        add_point_family(P, prefix=pref, n=3, potentials=m, p_max=p_max,
                         legs=[es[i - 1] for i in legs], link_id="link" + pref)
    a1 = P.add_generator("a1", -1, es[0], es[0])
    a2 = P.add_generator("a2", -1, es[1], es[1])
    b = P.add_generator("b", -1, es[2], es[3])
    P.set_differential(a1, _plus_words(
        P, P.el_idem(es[0]), ["v1_31", "b", "x0_12"],
        ["v1_21", "w0_23", "x0_12"], ["v1_31", "y0_23", "x0_13"]))
    P.set_differential(a2, _plus_words(
        P, P.el_idem(es[1]), ["y1_31", "b", "w0_12"],
        ["y1_21", "x0_23", "w0_12"], ["y1_31", "v0_23", "w0_13"]))
    P.set_differential(b, P.add(P.el_word(["y0_23", "x0_23"]),
                                P.el_word(["v0_23", "w0_23"])))
    return P


def _a3_pairing_codomain(p_max, m_first, m_second):
    ring = gf2()
    first = make_point_algebra(3, m_first, p_max=p_max, ring=ring,
                               prefix="A", link_id="copyA")
    second = make_point_algebra(3, m_second, p_max=p_max, ring=ring,
                                prefix="B", link_id="copyB")
    cod, _, _ = free_product(first, second, shared="all")
    return cod


def _a3_link_pairing_map(P, cod, identity_prefix_targets, twisted_targets,
                         name):
    """identity copies map level-for-level; the twisted copies swap legs 2,3
    with level shifts (solved from degree preservation)."""
    values = {}
    for pref, copy in identity_prefix_targets:
        for nm in ("0_12", "0_13", "0_23"):
            values[P.gen(pref + nm).index] = cod.el_word([copy + nm])
    for pref, copy in twisted_targets:
        values[P.gen(pref + "0_23").index] = cod.el_word([copy + "1_32"])
        values[P.gen(pref + "1_21").index] = cod.el_word([copy + "2_31"])
        values[P.gen(pref + "1_31").index] = cod.el_word([copy + "1_21"])
    return GenMap(P, cod, name=name, gen_values=values)


def _a3_link(p_max):
    P = _a3_link_main(p_max)
    cod1 = _a3_pairing_codomain(p_max, (0, 1, 0), (0, 0, -1))
    cod2 = _a3_pairing_codomain(p_max, (0, 0, -1), (0, 1, 0))
    map1 = _a3_link_pairing_map(
        P, cod1, [("x", "A"), ("w", "A")], [("y", "B"), ("v", "B")],
        "pairing_xw_yv")
    map2 = _a3_link_pairing_map(
        P, cod2, [("x", "B"), ("w", "B")], [("y", "A"), ("v", "A")],
        "pairing_yv_xw")
    notes = [
        "arboreal A3 singularity link: four three-point links on six edges,"
        " legs x=(1,3,5) y=(2,5,4) v=(1,6,4) w=(2,3,6), potentials (0,1,0)",
        "pairings route {x,w} and {y,v} to the two free-product factors;"
        " the y,v copies map with legs 2,3 swapped and level shifts",
    ]
    return CatalogBundle(
        "a3_link", {"main": P, "codomain_xw_yv": cod1, "codomain_yv_xw": cod2},
        {"pairing_xw_yv": map1, "pairing_yv_xw": map2}, {}, notes)


def _a3_arboreal(p_max):
    ring = gf2()
    P = Presentation(ring, POTENTIAL_PLUS)
    es = [P.add_idempotent(f"e{i}") for i in range(1, 7)]
    for pref, legs, m in (("x", (1, 2, 6), (0, 0, 0)),
                          ("y", (4, 2, 5), (0, 0, 0)),
                          ("v", (3, 6, 5), (0, 1, 0)),
                          ("w", (3, 1, 4), (0, 0, -1))):
        add_point_family(P, prefix=pref, n=3, potentials=m, p_max=p_max,
                         legs=[es[i - 1] for i in legs], link_id="link" + pref)
    b = P.add_generator("b", 0, es[1], es[4])
    a1 = P.add_generator("a1", -1, es[0], es[3])
    a2 = P.add_generator("a2", -1, es[2], es[2])
    P.set_differential(b, P.add(P.el_word(["v0_23", "x0_23"]),
                                P.el_word(["y0_23"])))
    P.set_differential(a1, _plus_words(
        P, P.el_word(["w0_23"]), ["y1_31", "b", "x0_12"], ["y1_21", "x0_12"],
        ["y1_31", "v0_23", "x0_13"]))
    P.set_differential(a2, _plus_words(
        P, P.el_idem(es[2]), ["w1_21", "x1_31", "v0_12"],
        ["w1_31", "y1_31", "v0_13"], ["w1_31", "a1", "x1_31", "v0_12"],
        ["w1_31", "y1_21", "x1_32", "v0_12"],
        ["w1_31", "y1_31", "b", "x1_32", "v0_12"],
        ["w1_31", "y1_31", "v0_23", "x1_33", "v0_12"]))

    cod = _a3_pairing_codomain(p_max, (0, 0, 0), (2, 0, 1))
    values = {
        P.gen("x0_23").index: cod.el_word(["A0_23"]),
        P.gen("y0_23").index: cod.el_word(["B1_21"]),
        P.gen("v0_23").index: cod.el_word(["B1_31"]),
    }
    link_map = GenMap(P, cod, name="pairing_b", gen_values=values)
    notes = [
        "arboreal A3-Lagrangian link: legs x=(1,2,6) y=(4,2,5) v=(3,6,5)"
        " w=(3,1,4); potentials x,y=(0,0,0), v=(0,1,0), w=(0,0,-1)",
        "d a2 stored with the nested products expanded over GF2",
        "filling link map covers the d b equation (pairing {x,w},{y,v})",
    ]
    return CatalogBundle("a3_arboreal", {"main": P, "codomain": cod},
                         {"pairing_b": link_map}, {}, notes)


def _singular_torus(p_max):
    ring = laurent("lam", "mu")
    P = Presentation(ring, POTENTIAL_PLUS)
    e = P.add_idempotent("e1")
    add_point_family(P, prefix="c", n=2, potentials=(1, 0), p_max=p_max,
                     legs=[e, e], link_id="hopf")
    p = P.add_generator("p", 0, e, e, link="hopf")
    q = P.add_generator("q", 0, e, e, link="hopf")
    ph = P.add_generator("ph", -1, e, e, link="hopf")
    qh = P.add_generator("qh", -1, e, e, link="hopf")
    a = P.add_generator("a", -1, e, e)
    ah = P.add_generator("ah", -2, e, e)
    P.set_differential(p, P.zero())
    P.set_differential(q, P.zero())
    P.set_differential(ph, P.sub(P.el_gen(p),
                                 P.el_word(["c1_21", "p", "c0_12"])))
    P.set_differential(qh, P.sub(P.el_gen(q),
                                 P.el_word(["c0_12", "q", "c1_21"])))
    P.set_differential(a, P.sub(P.el_idem(e), P.el_gen(p)))
    minus = ring.from_int(-1)
    d = P.el_gen(a)
    ring.add_into(d, P.el_word(["c1_21", "a", "c0_12"], minus).items())
    ring.add_into(d, P.el_gen(ph).items())
    ring.add_into(d, P.el_word(["c1_11"], minus).items())
    P.set_differential(ah, d)

    lam = ring.parameter("lam")
    mu = ring.parameter("mu")
    scope = frozenset(g.index for g in P.generators if g.link == "hopf")
    eps = Augmentation(P, scope=scope, name="eps", values={
        P.gen("c0_12").index: lam,
        P.gen("c1_21").index: ring.inverse(lam),
        p.index: mu,
    })
    eps_prime = Augmentation(P, scope=scope, name="eps_prime", values={
        P.gen("c0_12").index: lam,
        P.gen("c1_21").index: ring.inverse(lam),
        p.index: ring.sub(mu, ring.mul(mu, lam)),
    })
    notes = [
        "singular torus over laurent(lam, mu); Hopf-link subalgebra is the"
        " two-point family with potentials (1,0) plus p, q, ph, qh",
        "|q| = 0 chosen symmetric to p; eps(q) = eps'(q) = 0 (d qh kills any"
        " commutative value, so the choice is immaterial)",
        "augmentations recorded on the link scope only",
    ]
    return CatalogBundle("singular_torus", {"main": P}, {},
                         {"eps": eps, "eps_prime": eps_prime}, notes)


_REGISTRY = {
    "unknot_one_handle": _unknot_one_handle,
    "unknot_two_handles": _unknot_two_handles,
    "saddle_cobordism": _saddle_cobordism,
    "unknot_edge": _unknot_edge,
    "theta": _theta,
    "a3_link": _a3_link,
    "a3_arboreal": _a3_arboreal,
    "singular_torus": _singular_torus,
}


def catalog_names():
    return sorted(_REGISTRY)


def example(name: str, p_max: int = 2) -> CatalogBundle:
    """A worked example as a ready-made bundle; raises KeyError when unknown."""
    if name not in _REGISTRY:
        raise KeyError(f"unknown catalog example {name!r}; "
                       f"known: {', '.join(catalog_names())}")
    if p_max < 2:
        raise InvalidFamilyError("catalog transcriptions need p_max >= 2")
    return _REGISTRY[name](p_max)
