import pytest

from cedga import (Augmentation, GenMap, MapError, Presentation,
                   PresentationError, ScopeError,
                   UnverifiedAugmentationError, catalog_names,
                   check_d_squared, compose, example,
                   free_product, gf2, identity_map, make_point_algebra,
                   partial_linearize, rationals, verify_augmentation,
                   verify_chain_map)
from cedga.morphisms import NonzeroDSquaredError


@pytest.fixture
def saddle():
    return example("saddle_cobordism")


def test_apply_on_a_product(saddle):
    dom, cod = saddle.main, saddle.presentations["codomain"]
    phi = saddle.maps["Phi"]
    x = dom.mul(dom.el_word(["a1_plus"]), dom.el_word(["b"]))
    expected = cod.mul(cod.add(cod.el_word(["a1_minus"]),
                               cod.el_word(["xh0_12"])),
                       cod.el_word(["y0_12"]))
    assert phi.apply(x) == expected


def test_identity_map_is_the_identity(saddle):
    P = saddle.main
    ident = identity_map(P)
    x = P.add(P.one(), P.el_word(["a1_plus", "b"]))
    assert ident.apply(x) == x


def test_total_map_sends_unit_to_unit(saddle):
    phi = saddle.maps["Phi"]
    assert phi.apply(phi.source.one()) == phi.target.one()


def test_saddle_chain_map_and_intermediate_lines(saddle):
    rep = verify_chain_map(saddle.maps["Phi"])
    assert rep.ok
    assert rep.lines["a1_plus"] == {"phi_d": "e1 + y0_12",
                                    "d_phi": "e1 + y0_12"}
    assert rep.lines["a2_plus"] == {"phi_d": "e1 + y0_12",
                                    "d_phi": "e1 + y0_12"}
    assert rep.lines["b"] == {"phi_d": "0", "d_phi": "0"}


@pytest.mark.parametrize("mutate", ["drop_hat", "add_hat", "b_to_x"])
def test_saddle_single_assignment_mutations_fail(saddle, mutate):
    dom, cod = saddle.main, saddle.presentations["codomain"]
    phi = saddle.maps["Phi"]
    gv = dict(phi.gen_values)
    if mutate == "drop_hat":
        gv[dom.gen("a1_plus").index] = cod.el_word(["a1_minus"])
    elif mutate == "add_hat":
        gv[dom.gen("a2_plus").index] = cod.add(cod.el_word(["a2_minus"]),
                                               cod.el_word(["xh0_12"]))
    else:
        gv[dom.gen("b").index] = cod.el_word(["x0_12"])
    bad = GenMap(dom, cod, gv, dict(phi.idem_values), name="mut")
    assert not verify_chain_map(bad).ok


def test_degree_mismatch_rejected_at_construction(saddle):
    dom, cod = saddle.main, saddle.presentations["codomain"]
    with pytest.raises(MapError):
        GenMap(dom, cod,
               {dom.gen("b").index: cod.el_word(["x0_23"])},  # degree 1, not 0
               {0: 0})


def _arrow_and_loop():
    """Idempotents e1, e2, a letter x from e1 to e2 and a loop y at e1."""
    P = Presentation(gf2())
    for label in ("e1", "e2"):
        P.add_idempotent(label)
    for name, target in (("x", "e2"), ("y", "e1")):
        P.set_differential(P.add_generator(name, 0, "e1", target), P.zero())
    return P


@pytest.mark.parametrize("call,match", [
    (lambda P: GenMap(P, P, {P.gen("x").index: P.add(P.el_gen("x"),
                                                      P.el_gen("y"))}),
     "phi: value of x mixes ends"),
    (lambda P: GenMap(P, P).apply(P.el_idem("e1")),
     "phi: idempotent e1 unassigned"),
    (lambda P: GenMap(P, P).apply(P.el_gen("x")), "phi: generator x unassigned"),
    (lambda P: compose(identity_map(P), identity_map(make_point_algebra(2))),
     "maps are not composable"),
], ids=["mixed-ends", "unassigned-idempotent", "unassigned-generator",
        "not-composable"])
def test_map_refusals_name_what_is_wrong(call, match):
    with pytest.raises(MapError, match=match):
        call(_arrow_and_loop())


def test_identity_verifies_on_every_catalog_presentation():
    for name in catalog_names():
        for P in example(name).presentations.values():
            assert verify_chain_map(identity_map(P)).ok


def test_composition_of_inclusions_is_a_chain_map():
    a = make_point_algebra(3, (0, 0, 0), p_max=1, ring=gf2(), prefix="x")
    b = make_point_algebra(3, (0, 0, 0), p_max=1, ring=gf2(), prefix="y")
    P, inc1, _ = free_product(a, b)
    c = make_point_algebra(3, (0, 0, 0), p_max=1, ring=gf2(), prefix="z")
    Q, j1, _ = free_product(P, c)
    comp = compose(inc1, j1)
    assert verify_chain_map(comp).ok


def test_zero_differentials_make_any_multiplicative_map_chain():
    P = Presentation(gf2())
    P.add_idempotent("e1")
    u = P.add_generator("u", 0, "e1", "e1")
    P.set_differential(u, P.zero())
    Q = Presentation(gf2())
    Q.add_idempotent("e1")
    v = Q.add_generator("v", 0, "e1", "e1")
    Q.set_differential(v, Q.zero())
    phi = GenMap(P, Q, {u.index: Q.el_word([v, v])}, {0: 0})
    assert verify_chain_map(phi).ok


# -- augmentations -------------------------------------------------------------

def test_singular_torus_augmentations_pass():
    B = example("singular_torus")
    for eps in B.augmentations.values():
        assert verify_augmentation(eps).ok


def test_mutated_augmentation_residual_is_one_minus_lambda_squared():
    B = example("singular_torus")
    P = B.main
    ring = P.ring
    lam = ring.parameter("lam")
    eps = B.augmentations["eps"]
    values = dict(eps.values)
    values[P.gen("c1_21").index] = lam  # should be lam^-1
    bad = Augmentation(P, scope=eps.scope, values=values, name="bad")
    rep = verify_augmentation(bad)
    assert not rep.ok
    residuals = {f["generator"]: f["residual"] for f in rep.failures}
    expected = ring.sub(ring.one(), ring.mul(lam, lam))
    assert residuals["c1_11"] in (ring.format(expected),
                                  ring.format(ring.neg(expected)))


def test_unknot_link_augmentation_passes():
    P = example("unknot_one_handle").main
    scope = frozenset(g.index for g in P.generators if g.role == "short")
    eps = Augmentation(P, scope=scope, values={
        P.gen("t0_12").index: P.ring.one(),
        P.gen("t1_21").index: P.ring.one()})
    assert verify_augmentation(eps).ok


def test_zero_unknot_augmentation_is_rejected():
    P = example("unknot_one_handle").main
    scope = frozenset(g.index for g in P.generators if g.role == "short")
    eps = Augmentation(P, scope=scope, values={})
    rep = verify_augmentation(eps)
    assert not rep.ok
    # eps(d t1_11) = 1 - 0 = 1
    assert {"generator": "t1_11", "residual": "1"} in rep.failures


def test_augmentation_scope_must_be_closed():
    P = example("singular_torus").main
    scope = frozenset([P.gen("ph").index])  # d ph uses p and the link
    eps = Augmentation(P, scope=scope, values={})
    with pytest.raises(ScopeError):
        verify_augmentation(eps)


def _short_chain():
    """Generators t, x, u, w in index order: t, x and w on the link l, u on
    the link m; d t = e1 - x, d w = u, and x and u are cycles."""
    P = Presentation(rationals())
    P.add_idempotent("e1")
    t = P.add_generator("t", -1, "e1", "e1", link="l")
    x = P.add_generator("x", 0, "e1", "e1", link="l")
    u = P.add_generator("u", 0, "e1", "e1", link="m")
    w = P.add_generator("w", -1, "e1", "e1", link="l")
    P.set_differential(t, P.sub(P.el_idem("e1"), P.el_gen(x)))
    P.set_differential(x, P.zero())
    P.set_differential(u, P.zero())
    P.set_differential(w, P.el_gen(u))
    return P, (t, x, u, w)


def test_an_open_scope_is_refused_after_an_earlier_failure():
    # eps(d t) = 1 fails first; d w, later in index order, leaves the scope
    P, (t, x, u, w) = _short_chain()
    eps = Augmentation(P, scope=frozenset([t.index, x.index, w.index]))
    with pytest.raises(ScopeError, match=r"^eps: scope is not "
                       r"differential-closed \(d w uses u\)$"):
        verify_augmentation(eps)
    closed = Augmentation(P, scope=frozenset([t.index, x.index]))
    assert verify_augmentation(closed).failures == [
        {"generator": "t", "residual": "1"}]


def test_an_invalid_presentation_is_refused_before_its_augmentation():
    # the scoped generator x has no differential, so the presentation fails
    # validation; unchecked, d x would read as 0 and eps would pass
    P, (t, x, u, w) = _short_chain()
    del P.differential[x.index]
    eps = Augmentation(P, scope=frozenset([t.index, x.index]),
                       values={x.index: P.ring.one()})
    for check in (verify_augmentation, partial_linearize):
        with pytest.raises(PresentationError,
                           match="missing-differential at x"):
            check(eps)


def test_nonzero_value_on_nonzero_degree_rejected():
    P = example("singular_torus").main
    scope = frozenset(g.index for g in P.generators if g.link == "hopf")
    with pytest.raises(ScopeError):
        Augmentation(P, scope=scope,
                     values={P.gen("ph").index: P.ring.one()})


# -- partial linearization -----------------------------------------------------

def _unknot_eps(values=None):
    P = example("unknot_one_handle").main
    scope = frozenset(g.index for g in P.generators if g.role == "short")
    vals = {P.gen("t0_12").index: P.ring.one(),
            P.gen("t1_21").index: P.ring.one()}
    if values is not None:
        vals = {P.gen(k).index: v for k, v in values.items()}
    return Augmentation(P, scope=scope, values=vals)


def test_linearized_unknot_has_one_closed_generator():
    eps = _unknot_eps()
    L = partial_linearize(eps)
    assert [g.name for g in L.generators] == ["a"]
    assert L.d_gen("a") == {}
    assert check_d_squared(L).ok


def test_linearize_refuses_unverified_augmentation():
    eps = _unknot_eps(values={"t0_12": rationals().zero()})
    with pytest.raises(UnverifiedAugmentationError):
        partial_linearize(eps)


# eps verifies, but d(d c) = sign*a + a*x, which eps sends to (sign + 1)*a:
# with sign -1 only the input's own d^2 shows the failure
@pytest.mark.parametrize("sign,residual,message", [
    (1, "a + a*x", r"^linearized differential fails d\^2 = 0 at c "
                   r"\(residual 2\*a\)$"),
    (-1, "- a + a*x", r"^presentation's differential fails d\^2 = 0 at c "
                      r"\(residual - a \+ a\*x\)$"),
], ids=["linearized", "input"])
def test_linearize_refuses_a_presentation_whose_d_squared_fails(
        sign, residual, message):
    P = Presentation(rationals())
    P.add_idempotent("e")
    x = P.add_generator("x", 0, "e", "e", link="L")
    a = P.add_generator("a", 2, "e", "e")
    b = P.add_generator("b", 1, "e", "e")
    c = P.add_generator("c", 0, "e", "e")
    P.set_differential(x, P.zero())
    P.set_differential(a, P.zero())
    P.set_differential(b, P.add({(a.index,): sign}, P.el_word([a, x])))
    P.set_differential(c, P.el_gen(b))
    eps = Augmentation(P, scope=frozenset([x.index]),
                       values={x.index: P.ring.one()})
    assert verify_augmentation(eps).ok
    assert check_d_squared(P).counterexamples == [
        {"generator": "c", "residual": residual}]
    with pytest.raises(NonzeroDSquaredError, match=message):
        partial_linearize(eps)


def test_linearize_without_short_generators_is_identity():
    P = Presentation(rationals())
    P.add_idempotent("e1")
    a = P.add_generator("a", -1, "e1", "e1")
    b = P.add_generator("b", 0, "e1", "e1")
    P.set_differential(b, P.zero())
    P.set_differential(a, P.add(P.el_idem("e1"), P.el_gen(b)))
    eps = Augmentation(P, scope=frozenset(), values={})
    L = partial_linearize(eps)
    assert L.same_data(P)


def test_linearize_refuses_a_short_letter_outside_the_scope():
    P = Presentation(rationals())
    P.add_idempotent("e1")
    t = P.add_generator("t", 0, "e1", "e1", link="l")
    u = P.add_generator("u", 0, "e1", "e1", link="m")
    a = P.add_generator("a", -1, "e1", "e1")
    P.set_differential(t, P.zero())
    P.set_differential(u, P.zero())
    P.set_differential(a, P.add(P.el_idem("e1"), P.el_gen(u)))
    eps = Augmentation(P, scope=frozenset([t.index]),
                       values={t.index: P.ring.one()})
    assert verify_augmentation(eps).ok  # the scope {t} is closed
    with pytest.raises(ScopeError,
                       match="eps: generator u outside the augmentation "
                             "scope"):
        partial_linearize(eps)
