"""Augmentations of the singular torus and partial linearization.

The singular torus carries a Hopf-link subalgebra with two-parameter
Laurent coefficients; the two fillings of the resolved double point induce
the augmentations eps and eps' which differ only on the chord p.
Partial linearization, partial_linearize(eps), evaluates the short chords
of the augmentation's own presentation by eps, leaving a presentation on
long chords only.
"""
from cedga import (Augmentation, check_d_squared, example, partial_linearize,
                   verify_augmentation)

B = example("singular_torus")
P = B.main
ring = P.ring
print("Singular torus over", ring)
for name in ("p", "ph", "qh", "a", "ah"):
    print(f"  d {name} = {P.format_element(P.d_gen(name))}")

for name, eps in B.augmentations.items():
    rep = verify_augmentation(eps)
    vals = {P.generators[i].name: ring.format(c)
            for i, c in sorted(eps.values.items())
            if not ring.is_zero(c)}
    print(f"{name}: verifies = {rep.ok}, values {vals}")

print("\nMutating eps(c1_21) from lam^-1 to lam leaves a residual:")
lam = ring.parameter("lam")
eps = B.augmentations["eps"]
values = dict(eps.values)
values[P.gen("c1_21").index] = lam
rep = verify_augmentation(Augmentation(P, scope=eps.scope, values=values))
for failure in rep.failures:
    print("  eps(d {generator}) = {residual}".format(**failure))

print("\nPartial linearization of the one-handle unknot by t -> 1:")
U = example("unknot_one_handle").main
scope = frozenset(g.index for g in U.generators if g.role == "short")
unit = U.ring.one()
eps_u = Augmentation(U, scope=scope, values={
    U.gen("t0_12").index: unit, U.gen("t1_21").index: unit})
L = partial_linearize(eps_u)
print(f"  generators: {[g.name for g in L.generators]}")
print(f"  d a = {L.format_element(L.d_gen('a'))}")
print(f"  d^2 = 0 on the linearized output: {check_d_squared(L).ok}")
