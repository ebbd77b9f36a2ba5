"""Word-length parity obstructions to fillings with Y-singularities only.

The point-algebra differential changes word length mod 2.  A filling of a
singular Legendrian whose strata meet in trivalent Y-loci would induce an
algebra map sending the vertex links onto interval links; pushing a long
differential through that map yields an equation one parity component of
which must be a boundary.  When a bounded search certifies it is not,
the filling cannot exist (within the stated bounds).
"""
import time

from cedga import (Bounds, check_parity_flip, example, exactness_search,
                   obstruct_y_filling)

bounds = Bounds(max_word_length=6, max_level=2)

edge = example("unknot_edge")
cod = edge.presentations["codomain"]
print("Unknot with a singular edge: d a1 =",
      edge.main.format_element(edge.main.d_gen("a1")))
print("codomain flips parity:", check_parity_flip(cod).ok)
rep = obstruct_y_filling(edge.main, cod, edge.maps["y_filling_links"], bounds)
print(f"verdict: {rep.status} via {rep.decisive_generator} "
      f"({rep.decisive_parity} part, target "
      f"{cod.format_element(rep.certificate.target)})")
for line in rep.transcript:
    print("  |", line)

print("\nThe A3 singularity link, both pairings of the four vertex links:")
a3 = example("a3_link")
for pairing, codname in (("pairing_xw_yv", "codomain_xw_yv"),
                         ("pairing_yv_xw", "codomain_yv_xw")):
    t0 = time.monotonic()
    rep = obstruct_y_filling(a3.main, a3.presentations[codname],
                             a3.maps[pairing], bounds)
    print(f"  {pairing}: {rep.status} via {rep.decisive_generator} "
          f"in {time.monotonic() - t0:.1f}s")

print("\nThe arboreal A3-Lagrangian link (decisive at the short chord")
print("image of d b, which no even element bounds):")
arb = example("a3_arboreal")
rep = obstruct_y_filling(arb.main, arb.presentations["codomain"],
                         arb.maps["pairing_b"], bounds)
print(f"  {rep.status} via {rep.decisive_generator}; certificate target "
      f"{arb.presentations['codomain'].format_element(rep.certificate.target)}")

again = exactness_search(arb.presentations["codomain"],
                         rep.certificate.target, bounds,
                         parity=rep.certificate.parity)
print(f"  independent re-check of the certificate: {again.status} "
      f"({again.candidates} candidates searched)")
