"""Cohomology tables for the fixture catalog.

A morphism Lie algebra is a pair (g, h) joined by a homomorphism phi, and
a representation is a triple (V, W, psi) with psi intertwining across phi.
This script prints the per-degree dimensions of the plain Lie algebra
complexes next to the combined complex, all over exact rationals.
"""

from morphlie import (
    ce_cohomology_dim,
    invariant_vectors_dim,
    mla_cochain_dim,
    mla_cohomology_dim,
    outer_derivation_dim,
)
from morphlie.fixtures import standard_morphism_reps

print("Cohomology of the fixture triples, degrees 0..3")
print()

for name, rep in standard_morphism_reps():
    base = rep.base
    ce_v = [ce_cohomology_dim(rep.v, n) for n in range(4)]
    ce_w = [ce_cohomology_dim(rep.w, n) for n in range(4)]
    dims = [mla_cochain_dim(rep, n) for n in range(4)]
    coh = [mla_cohomology_dim(rep, n) for n in range(4)]
    print(f"{name}  (dim g = {base.g.dim}, dim h = {base.h.dim}, "
          f"dim V = {rep.dim_v}, dim W = {rep.dim_w})")
    print(f"  H(g, V)          = {ce_v}")
    print(f"  H(h, W)          = {ce_w}")
    print(f"  dim C_mLA        = {dims}")
    print(f"  H_mLA            = {coh}")

    # Low degrees read as structure: H^0 is the invariant vectors (ker d_0),
    # H^1 the derivation triples (ker d_1) modulo the inner ones (im d_0).
    inv = invariant_vectors_dim(rep)
    outer = outer_derivation_dim(rep)
    print(f"  checks: invariants {inv} = H^0, Der - InnDer {outer} = H^1")
    print()

print("The sl2 examples show where the combined complex differs from")
print("its halves: both Whitehead lemmas empty H(g, V1) entirely, yet")
print("H^1_mLA(sl2/V1) = 2 because the eta block Hom(g, W) contributes")
print("cocycles that no coboundary from degree 0 can reach.")
