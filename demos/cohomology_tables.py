"""Cohomology tables for the fixture catalog.

A morphism Lie algebra is a pair (g, h) joined by a homomorphism phi, and
a representation is a triple (V, W, psi) with psi intertwining across phi.
This script prints the per-degree dimensions of the plain Lie algebra
complexes next to the combined complex, all over exact rationals.
"""

from morphlie.cecomplex import ce_complex
from morphlie.cohomology import mla_complex
from morphlie.fixtures import standard_morphism_reps

print("Cohomology of the fixture triples, degrees 0..3")
print()

for name, rep in standard_morphism_reps():
    base = rep.base
    # One complex per triple and per module: each differential is built once.
    mla, on_v, on_w = mla_complex(rep), ce_complex(rep.v), ce_complex(rep.w)
    ce_v = [on_v.dim_H(n) for n in range(4)]
    ce_w = [on_w.dim_H(n) for n in range(4)]
    dims = [mla.dim(n) for n in range(4)]
    coh = [mla.dim_H(n) for n in range(4)]
    print(f"{name}  (dim g = {base.g.dim}, dim h = {base.h.dim}, "
          f"dim V = {rep.dim_v}, dim W = {rep.dim_w})")
    print(f"  H(g, V)          = {ce_v}")
    print(f"  H(h, W)          = {ce_w}")
    print(f"  dim C_mLA        = {dims}")
    print(f"  H_mLA            = {coh}")

    # Low degrees read as structure: H^0 is the invariant vectors (ker d_0),
    # H^1 the derivation triples (ker d_1) modulo the inner ones (im d_0).
    inv = dims[0] - mla.rank(0)
    outer = (dims[1] - mla.rank(1)) - mla.rank(0)
    print(f"  checks: invariants {inv} = H^0, Der - InnDer {outer} = H^1")
    print()

print("The sl2 examples show where the combined complex differs from")
print("its halves: both Whitehead lemmas empty H(g, V1) entirely, yet")
print("H^1_mLA(sl2/V1) = 2 because the eta block Hom(g, W) contributes")
print("cocycles that no coboundary from degree 0 can reach.")
