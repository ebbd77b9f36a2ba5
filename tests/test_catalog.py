import itertools

import pytest

from cedga import (POTENTIAL_MINUS, UNIFORM_MINUS, InvalidFamilyError,
                   Presentation, PresentationError, catalog_names, check_d_squared, check_degree,
                   check_parity_flip, example, free_product, gf2,
                   make_hat_point_algebra, make_point_algebra, rationals,
                   verify_chain_map)

F2 = gf2()


def test_generator_count_n3_p1():
    P = make_point_algebra(3, (0, 0, 0), p_max=1, ring=rationals())
    assert len(P.generators) == 12  # 3 level-0 chords + 9 level-1 chords
    assert len(P.idempotents) == 3


def test_c0_12_is_closed():
    P = make_point_algebra(3, (0, 0, 0), p_max=1, ring=rationals())
    assert P.d_gen("c0_12") == {}


def test_grading_row():
    P = make_point_algebra(3, (0, 0, 0), p_max=1, ring=rationals())
    assert P.gen("c1_11").degree == -1


def test_small_family_rejected():
    with pytest.raises(InvalidFamilyError):
        make_point_algebra(1, (0,))
    # the hat algebra's check is the point family's
    with pytest.raises(InvalidFamilyError,
                       match="point family needs n >= 2, got 1"):
        make_hat_point_algebra(1, (0,))


@pytest.mark.parametrize("call,error,match", [
    (lambda: make_point_algebra(3, signs="sideways"), ValueError,
     "unknown sign reading 'sideways'"),
    (lambda: make_point_algebra(3, p_max=-1), InvalidFamilyError,
     "p_max must be >= 0"),
    (lambda: make_point_algebra(3, (0, 0)), InvalidFamilyError,
     "potential vector length must equal n"),
    (lambda: free_product(make_point_algebra(2), make_point_algebra(
        2, convention=POTENTIAL_MINUS)), PresentationError,
     "free product needs a common convention"),
    (lambda: free_product(make_point_algebra(2), make_point_algebra(2),
                          {"e1": "e1", "e2": "e1"}), PresentationError,
     "idempotent identification is not bijective"),
    (lambda: example("unknot_edge", p_max=1), InvalidFamilyError,
     "catalog transcriptions need p_max >= 2"),
], ids=["signs", "negative-p-max", "potentials", "conventions",
        "identification", "catalog-p-max"])
def test_catalog_refusals_name_what_is_wrong(call, error, match):
    with pytest.raises(error, match=match):
        call()


def test_family_names_past_nine_points_separate_the_indices():
    P = make_point_algebra(10, p_max=0)
    names = [g.name for g in P.generators]
    assert len(names) == 45
    assert names[:2] == ["c0_12", "c0_13"]
    assert "c0_19" in names and "c0_1_10" in names
    assert names[-1] == "c0_9_10"


@pytest.mark.parametrize("n", (2, 3, 4))
def test_potential_minus_families_validate_and_square_to_zero(n):
    for m in itertools.product((-1, 0, 1), repeat=n):
        for ring in (rationals(), F2):
            built = [make_point_algebra(n, m, 1, ring,
                                        convention=POTENTIAL_MINUS)]
            if n < 4:
                built += [make_hat_point_algebra(
                    n, m, 1, closed=closed, ring=ring,
                    convention=POTENTIAL_MINUS) for closed in (False, True)]
            for P in built:
                assert P.convention == POTENTIAL_MINUS
                assert P.validate().ok, (m, ring)
                assert check_d_squared(P).ok, (m, ring)


def test_uniform_minus_squares_to_zero_only_for_one_parity():
    for m, same in (((0, 2, -2), True), ((1, 1, -1), True),
                    ((1, -1, 1, 3), True), ((0, 1, 0), False),
                    ((1, 0, 0), False), ((0, 0, 1, 0), False)):
        P = make_point_algebra(len(m), m, 2, rationals(),
                               signs=UNIFORM_MINUS)
        assert check_d_squared(P).ok == same, m


def test_truncation_closure():
    for p_max in (1, 2, 3):
        P = make_point_algebra(3, (0, 1, 0), p_max=p_max, ring=F2)
        for g in P.generators:
            for w in P.differential[g.index]:
                letters = () if isinstance(w, int) else w
                level = max((P.generators[i].level or 0 for i in letters),
                            default=0)
                assert level <= (g.level or 0)


def test_d_squared_families_over_gf2():
    for n in (2, 3, 4):
        P = make_point_algebra(n, (0,) * n, p_max=3, ring=F2)
        assert check_d_squared(P).ok


def test_d_squared_over_q_alternating_reading():
    for m in ((0, 0, 0), (1, 0, 0), (0, 1, 0)):
        P = make_point_algebra(3, m, p_max=2, ring=rationals())
        assert check_d_squared(P).ok


def test_hat_differential_of_x_hat_0_12():
    H = make_hat_point_algebra(3, (0, 0, 0), p_max=0, ring=rationals())
    expected = H.sub(H.el_word(["x0_12"]), H.el_word(["y0_12"]))
    assert H.d_gen("xh0_12") == expected


def test_closed_hat_kills_the_constant_term():
    H = make_hat_point_algebra(3, (0, 0, 0), p_max=0, closed=True,
                               ring=rationals())
    assert H.d_gen("xh0_12") == {}


def test_hat_d_squared_gf2_and_q():
    for closed in (False, True):
        assert check_d_squared(make_hat_point_algebra(
            3, (0, 0, 0), p_max=2, closed=closed, ring=F2)).ok
        assert check_d_squared(make_hat_point_algebra(
            3, (0, 0, 0), p_max=2, closed=closed, ring=rationals())).ok


def test_hat_degree_shift():
    H = make_hat_point_algebra(3, (0, 0, 0), p_max=2, ring=F2)
    for p, i, j in ((0, 1, 2), (1, 1, 1), (2, 3, 1)):
        x = H.gen(f"x{p}_{i}{j}")
        hat = H.gen(f"xh{p}_{i}{j}")
        assert hat.degree == x.degree - 1
        assert (hat.source, hat.target, hat.level, hat.link) == (
            x.source, x.target, x.level, "hat")


def test_free_product_doubles_generators():
    a = make_point_algebra(3, (0, 0, 0), p_max=2, ring=F2, prefix="x")
    b = make_point_algebra(3, (0, 0, 0), p_max=2, ring=F2, prefix="y")
    P, inc1, inc2 = free_product(a, b)
    assert len(P.generators) == 2 * len(a.generators)
    assert len(P.idempotents) == 3
    assert check_d_squared(P).ok
    assert verify_chain_map(inc1).ok
    assert verify_chain_map(inc2).ok


def test_free_product_with_empty_presentation_is_identity():
    a = make_point_algebra(2, (0, 0), p_max=1, ring=F2)
    empty = Presentation(F2)
    P, inc1, _ = free_product(a, empty, shared={})
    assert len(P.generators) == len(a.generators)
    assert [g.name for g in P.generators] == [g.name for g in a.generators]
    assert verify_chain_map(inc1).ok


def test_free_product_renames_collisions():
    a = make_point_algebra(2, (0, 0), p_max=1, ring=F2)
    b = make_point_algebra(2, (0, 0), p_max=1, ring=F2)
    P, _, _ = free_product(a, b)
    names = [g.name for g in P.generators]
    assert len(set(names)) == len(names)
    assert "l_c0_12" in names and "r_c0_12" in names


def test_free_product_renames_unshared_idempotents():
    a = make_point_algebra(2, (0, 0), p_max=1, ring=F2, prefix="x")
    b = make_point_algebra(2, (0, 0), p_max=1, ring=F2, prefix="y")
    P, inc1, inc2 = free_product(a, b, shared={})
    assert [e.label for e in P.idempotents] == ["e1", "e2", "r_e1", "r_e2"]
    assert [g.name for g in P.generators] == (
        [g.name for g in a.generators] + [g.name for g in b.generators])
    assert P.gen("y0_12").source == P.idem("r_e1").index
    assert inc2.idem_values == {0: 2, 1: 3}
    assert verify_chain_map(inc1).ok
    assert verify_chain_map(inc2).ok


def test_registry_covers_the_worked_examples():
    assert catalog_names() == sorted([
        "unknot_one_handle", "unknot_two_handles", "saddle_cobordism",
        "unknot_edge", "theta", "a3_link", "a3_arboreal", "singular_torus"])
    with pytest.raises(KeyError):
        example("nonexistent")


@pytest.mark.parametrize("name", catalog_names())
def test_catalog_entries_validate(name):
    bundle = example(name)
    for P in bundle.presentations.values():
        assert P.validate().ok
        assert check_degree(P).ok
        assert check_d_squared(P).ok


def test_unknot_gradings():
    P = example("unknot_one_handle").main
    assert P.gen("a").degree == -1
    assert P.gen("t0_12").degree == 0
    assert P.gen("t1_21").degree == 0
    assert str(P.ring) == "Q"
    assert P.convention == "potential_plus"


def test_unknot_differential_rows():
    P = example("unknot_one_handle").main
    e = P.el_idem("e1")
    assert P.d_gen("a") == P.sub(e, P.el_word(["t0_12"]))
    assert P.d_gen("t0_12") == {} and P.d_gen("t1_21") == {}
    assert P.d_gen("t1_11") == P.sub(e, P.el_word(["t1_21", "t0_12"]))
    assert P.d_gen("t1_22") == P.sub(e, P.el_word(["t0_12", "t1_21"]))


def test_two_handle_unknot_differential():
    P = example("unknot_two_handles").main
    assert P.d_gen("a") == P.sub(P.el_word(["t1_0_12"]),
                                 P.el_word(["t2_0_12"]))


def test_a3_link_b_row():
    P = example("a3_link").main
    expected = P.add(P.el_word(["y0_23", "x0_23"]),
                     P.el_word(["v0_23", "w0_23"]))
    assert P.d_gen("b") == expected


def test_theta_long_differential():
    P = example("theta").main
    d = P.d_gen("a")
    assert P.el_word(["y1_31", "b", "x0_12"]).popitem()[0] in d
    assert P.idem("e1").index in d


def test_singular_torus_product_shape():
    P = example("singular_torus").main
    left = P.mul(P.el_word(["c1_21"]), P.el_gen("p"))
    prod = P.mul(left, P.el_word(["c0_12"]))
    assert prod == P.el_word(["c1_21", "p", "c0_12"])


def test_singular_torus_rows():
    P = example("singular_torus").main
    ring = P.ring
    assert P.d_gen("p") == {} and P.d_gen("q") == {}
    assert P.d_gen("ph") == P.sub(P.el_gen("p"),
                                  P.el_word(["c1_21", "p", "c0_12"]))
    assert P.d_gen("a") == P.sub(P.el_idem("e1"), P.el_gen("p"))
    eps = example("singular_torus").augmentations["eps"]
    lam = ring.parameter("lam")
    assert eps.value(P.gen("c0_12").index) == lam
    assert eps.value(P.gen("c1_21").index) == ring.inverse(lam)
    assert eps.value(P.gen("p").index) == ring.parameter("mu")


def test_saddle_inferred_codomain_rows():
    B = example("saddle_cobordism")
    cod = B.presentations["codomain"]
    e = cod.el_idem("e1")
    assert cod.d_gen("a1_minus") == cod.add(e, cod.el_word(["x0_12"]))
    assert cod.d_gen("a2_minus") == cod.add(e, cod.el_word(["y0_12"]))
    assert any("[inferred]" in note for note in B.notes)


def test_parity_flip_families():
    assert check_parity_flip(
        make_point_algebra(3, (0, 0, 0), p_max=2, ring=F2)).ok
    closed = make_hat_point_algebra(3, (0, 0, 0), p_max=2, closed=True,
                                    ring=F2)
    assert check_parity_flip(closed).ok
    open_hat = make_hat_point_algebra(3, (0, 0, 0), p_max=2, ring=F2)
    rep = check_parity_flip(open_hat)
    assert not rep.ok  # d(hat x) contains x - y of the same length parity
    a = make_point_algebra(3, (0, 0, 0), p_max=2, ring=F2, prefix="x")
    b = make_point_algebra(3, (0, 0, 0), p_max=2, ring=F2, prefix="y")
    P, _, _ = free_product(a, b)
    assert check_parity_flip(P).ok
