"""Acceptance suite: one test per criterion, printed as a pass/fail line.

Run with `pytest -v tests/test_acceptance.py` to see one line per
criterion; bounds and time budgets are pinned here, not configurable.
"""
import time

from cedga import (ALTERNATING, Augmentation, Bounds, GenMap, Presentation,
                   catalog_names, check_d_squared, check_parity_flip,
                   example, exactness_search, free_product, gf2,
                   is_trivial, h0, make_hat_point_algebra,
                   make_point_algebra, obstruct_y_filling, partial_linearize,
                   rationals, verify_augmentation, verify_chain_map)
from cedga.dsl import bundle_equal, parse, serialize


def _report(criterion, detail=""):
    print(f"ACCEPTANCE {criterion}: PASS {detail}")


def test_criterion_01_d_squared():
    t0 = time.monotonic()
    F2 = gf2()
    for n in (2, 3, 4):
        for p_max in (1, 2, 3):
            assert check_d_squared(
                make_point_algebra(n, (0,) * n, p_max, F2)).ok
    for closed in (False, True):
        for p_max in (1, 2, 3):
            assert check_d_squared(make_hat_point_algebra(
                3, (0, 0, 0), p_max, closed=closed, ring=F2)).ok
    a = make_point_algebra(3, (0, 0, 0), 3, F2, prefix="x")
    b = make_point_algebra(3, (0, 0, 0), 3, F2, prefix="y")
    fp, _, _ = free_product(a, b)
    assert check_d_squared(fp).ok
    for name in catalog_names():
        for p_max in (2, 3):
            for P in example(name, p_max=p_max).presentations.values():
                assert check_d_squared(P).ok, (name, p_max)
    # over Q: the alternating reading passes for I_3 at p_max <= 2 and is
    # the recorded default; the uniform-minus reading also passes at m = 0
    assert check_d_squared(
        make_point_algebra(3, (0, 0, 0), 2, rationals(),
                           signs=ALTERNATING)).ok
    import inspect
    default = inspect.signature(make_point_algebra).parameters["signs"].default
    assert default == ALTERNATING
    elapsed = time.monotonic() - t0
    assert elapsed < 30, f"criterion 1 took {elapsed:.1f}s"
    _report(1, f"(d^2 = 0; default sign reading {default!r}; "
               f"{elapsed:.1f}s < 30s)")


def test_criterion_02_grading():
    for name in catalog_names():
        for P in example(name).presentations.values():
            assert P.validate().ok, name
    P = example("unknot_one_handle").main
    assert P.convention == "potential_plus"
    assert P.gen("a").degree == -1
    assert P.gen("t0_12").degree == 0
    _report(2, "(all catalog differentials raise degree by 1; "
               "|a| = -1, |t0_12| = 0)")


def test_criterion_03_parity_flip():
    F2 = gf2()
    assert check_parity_flip(make_point_algebra(3, (0, 0, 0), 2, F2)).ok
    # the hat algebra of the parity argument is the closed one (x = y); the
    # open variant provably fails through the x - y terms
    assert check_parity_flip(make_hat_point_algebra(
        3, (0, 0, 0), 2, closed=True, ring=F2)).ok
    assert not check_parity_flip(make_hat_point_algebra(
        3, (0, 0, 0), 2, closed=False, ring=F2)).ok
    a = make_point_algebra(3, (0, 0, 0), 2, F2, prefix="x")
    b = make_point_algebra(3, (0, 0, 0), 2, F2, prefix="y")
    fp, _, _ = free_product(a, b)
    assert check_parity_flip(fp).ok
    # a seeded violation is detected with a witness
    P = Presentation(F2)
    P.add_idempotent("e1")
    bb = P.add_generator("bb", 0, "e1", "e1")
    cc = P.add_generator("cc", 1, "e1", "e1")
    dd = P.add_generator("dd", 1, "e1", "e1")
    aa = P.add_generator("aa", 0, "e1", "e1")
    for g in (bb, cc, dd):
        P.set_differential(g, P.zero())
    P.set_differential(aa, P.add(P.el_word([bb, cc]), P.el_gen(dd)))
    rep = check_parity_flip(P)
    assert not rep.ok and rep.witness == {"generator": "aa", "word": "dd"}
    _report(3, "(I3, closed hat I3, I3 * I3 flip; seeded violation caught)")


def test_criterion_04_h0():
    t0 = time.monotonic()
    rep = h0(example("unknot_one_handle").main, degree_bound=8)
    assert rep.is_ground_ring and rep.dimension == 1
    elapsed = time.monotonic() - t0
    assert elapsed < 5, f"h0(unknot) took {elapsed:.1f}s"
    rep2 = h0(example("unknot_two_handles").main, degree_bound=8)
    assert rep2.dimension == 4
    assert set(rep2.basis) == {"e1", "e2", "t1_0_12", "t1_1_21"}
    # the two degree-0 classes multiply to the idempotents both ways round
    assert "t1_1_21*t1_0_12 -> e1" in rep2.rules
    assert "t1_0_12*t1_1_21 -> e2" in rep2.rules
    _report(4, f"(dimension 1 ground ring in {elapsed:.2f}s < 5s; "
               f"dimension 4 with c1c2 = e2, c2c1 = e1)")


def test_criterion_05_saddle_chain_map():
    B = example("saddle_cobordism")
    phi = B.maps["Phi"]
    rep = verify_chain_map(phi)
    assert rep.ok
    assert rep.lines["a1_plus"] == {"phi_d": "e1 + y0_12",
                                    "d_phi": "e1 + y0_12"}
    assert rep.lines["a2_plus"] == {"phi_d": "e1 + y0_12",
                                    "d_phi": "e1 + y0_12"}
    assert rep.lines["b"] == {"phi_d": "0", "d_phi": "0"}
    dom, cod = B.main, B.presentations["codomain"]
    mutations = {
        "a1_plus": cod.el_word(["a1_minus"]),
        "a2_plus": cod.add(cod.el_word(["a2_minus"]), cod.el_word(["xh0_12"])),
        "b": cod.el_word(["x0_12"]),
    }
    for gen_name, value in mutations.items():
        gv = dict(phi.gen_values)
        gv[dom.gen(gen_name).index] = value
        assert not verify_chain_map(
            GenMap(dom, cod, gv, dict(phi.idem_values))).ok, gen_name
    _report(5, "(Phi verifies with the three intermediate lines; "
               "single-assignment mutations caught)")


def test_criterion_06_filling_obstructions():
    t0 = time.monotonic()
    bounds = Bounds(max_word_length=6, max_level=2)
    runs = []
    B = example("unknot_edge")
    runs.append((B.main, B.presentations["codomain"],
                 B.maps["y_filling_links"]))
    A = example("a3_link")
    runs.append((A.main, A.presentations["codomain_xw_yv"],
                 A.maps["pairing_xw_yv"]))
    runs.append((A.main, A.presentations["codomain_yv_xw"],
                 A.maps["pairing_yv_xw"]))
    R = example("a3_arboreal")
    runs.append((R.main, R.presentations["codomain"], R.maps["pairing_b"]))
    for dom, cod, lm in runs:
        rep = obstruct_y_filling(dom, cod, lm, bounds)
        assert rep.status == "obstructed", lm.name
        cert = rep.certificate
        assert cert is not None and cert.status == "none_within_bounds"
        assert cert.bounds.max_word_length == 6
        assert cert.bounds.max_level == 2
        # the certificate target re-checks as non-exact independently
        again = exactness_search(cod, cert.target, bounds, parity=cert.parity)
        assert again.status == "none_within_bounds"
    elapsed = time.monotonic() - t0
    assert elapsed < 60, f"criterion 6 took {elapsed:.1f}s"
    _report(6, f"(unknot_edge, a3_link both pairings, a3_arboreal all "
               f"obstructed with certificates; {elapsed:.1f}s < 60s)")


def test_criterion_07_augmentations():
    B = example("singular_torus")
    P = B.main
    ring = P.ring
    lam, mu = ring.parameter("lam"), ring.parameter("mu")
    eps, eps_prime = B.augmentations["eps"], B.augmentations["eps_prime"]
    assert eps.value(P.gen("c0_12").index) == lam
    assert eps.value(P.gen("c1_21").index) == ring.inverse(lam)
    assert eps.value(P.gen("p").index) == mu
    assert eps_prime.value(P.gen("p").index) == ring.sub(mu,
                                                         ring.mul(mu, lam))
    assert verify_augmentation(eps).ok
    assert verify_augmentation(eps_prime).ok
    values = dict(eps.values)
    values[P.gen("c1_21").index] = lam
    rep = verify_augmentation(Augmentation(P, scope=eps.scope, values=values))
    assert not rep.ok
    residual = {f["generator"]: f["residual"]
                for f in rep.failures}["c1_11"]
    one_minus_lam2 = ring.sub(ring.one(), ring.mul(lam, lam))
    assert residual in (ring.format(one_minus_lam2),
                        ring.format(ring.neg(one_minus_lam2)))
    _report(7, "(eps, eps' verify; mutated eps fails with residual "
               "1 - lam^2 up to sign)")


def test_criterion_08_partial_linearization():
    P = example("unknot_one_handle").main
    scope = frozenset(g.index for g in P.generators if g.role == "short")
    eps = Augmentation(P, scope=scope, values={
        P.gen("t0_12").index: P.ring.one(),
        P.gen("t1_21").index: P.ring.one()})
    L = partial_linearize(eps)
    assert [g.name for g in L.generators] == ["a"]
    assert L.d_gen("a") == {}
    assert check_d_squared(L).ok
    _report(8, "(linearized unknot is the one-generator presentation "
               "with d a = 0)")


def test_criterion_09_triviality():
    bounds = Bounds(max_word_length=5, max_level=2)
    P = Presentation(rationals())
    P.add_idempotent("e1")
    a = P.add_generator("a", -1, "e1", "e1")
    P.set_differential(a, P.el_idem("e1"))
    res = is_trivial(P, bounds)
    assert res.certified_trivial
    assert res.search.witness == P.el_gen("a")
    assert not is_trivial(make_point_algebra(3, (0, 0, 0), 2, gf2()),
                          bounds).certified_trivial
    assert not is_trivial(example("unknot_one_handle").main,
                          bounds).certified_trivial
    _report(9, "(d a = 1 certified trivial; I3 and the unknot are "
               "NotWithinBounds at length <= 5)")


def test_criterion_10_dsl_round_trip():
    for name in catalog_names():
        bundle = example(name)
        text = serialize(bundle)
        assert bundle_equal(bundle, parse(text)), name
        assert serialize(example(name)) == text, name
        assert serialize(parse(text)) == text, name
    _report(10, "(parse . serialize is the identity on all eight bundles; "
                "serializer byte-stable)")


def test_criterion_11_free_product_inclusions():
    F2 = gf2()
    a = make_point_algebra(3, (0, 0, 0), 2, F2, prefix="x")
    b = make_point_algebra(3, (0, 0, 0), 2, F2, prefix="y")
    fp, inc1, inc2 = free_product(a, b)
    assert verify_chain_map(inc1).ok
    assert verify_chain_map(inc2).ok
    _report(11, "(both inclusions I3 -> I3 * I3 verify as chain maps)")
