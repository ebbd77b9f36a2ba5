"""The saddle cobordism map into the hat algebra.

The hat algebra doubles a point family into x and y copies joined by
hatted chords with d(hat x) = x - y + (slot-sum correction); the closed
variant identifies the copies.  The saddle cobordism induces
a1+ -> a1- + hat(x0_12), a2+ -> a2-, b -> y0_12, and the chain-map
equation reproduces the verification lines d(Phi a1+) = 1 + y0_12.
"""
from cedga import (check_d_squared, example, gf2, make_hat_point_algebra,
                   verify_chain_map, GenMap)

H = make_hat_point_algebra(3, (0, 0, 0), p_max=1, ring=gf2())
print("Hat algebra differentials (open interval of singularities):")
for name in ("xh0_12", "xh0_13", "xh1_11"):
    print(f"  d {name} = {H.format_element(H.d_gen(name))}")
Hc = make_hat_point_algebra(3, (0, 0, 0), p_max=1, closed=True, ring=gf2())
print("Closed variant (x and y identified): d xh0_12 =",
      Hc.format_element(Hc.d_gen("xh0_12")))

B = example("saddle_cobordism")
dom, cod = B.main, B.presentations["codomain"]
phi = B.maps["Phi"]
print("\nSaddle cobordism over GF2:")
for g in dom.generators:
    print(f"  d {g.name} = {dom.format_element(dom.d_gen(g))}")
print("Map:", {dom.generators[i].name: cod.format_element(v)
               for i, v in phi.gen_values.items()})

rep = verify_chain_map(phi)
print(f"chain map verifies: {rep.ok}")
for g in ("a1_plus", "a2_plus", "b"):
    print("  Phi(d {g}) = {phi_d}    d(Phi {g}) = {d_phi}".format(
        g=g, **rep.lines[g]))

print("\nMutating one assignment breaks it:")
gv = dict(phi.gen_values)
gv[dom.gen("b").index] = cod.el_word(["x0_12"])
rep_bad = verify_chain_map(GenMap(dom, cod, gv, dict(phi.idem_values)))
print("  b -> x0_12 fails at {generator} with residual {residual}".format(
    **rep_bad.failures[0]))

print("\nd^2 = 0 on both sides:",
      check_d_squared(dom).ok and check_d_squared(cod).ok)
