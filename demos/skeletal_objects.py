"""Two-term sh Lie algebras and the skeletal correspondence.

A 2-term sh Lie algebra relaxes the Jacobi identity up to a controlling
ternary bracket l3.  When the differential vanishes (the skeletal case),
a morphism of such objects is exactly a representation triple together
with a closed degree-3 cochain, and twisting by degree-2 data moves that
cochain by a coboundary.  Both directions are exercised here.
"""

from morphlie import (
    LieAlgebra,
    TwoTermSh,
    check_two_term_sh,
    skeletal_to_triple,
    triple_to_skeletal,
    twist_equivalence,
)
from morphlie.cohomology import MCochain, mla_differential
from morphlie.fixtures import sl2, sl2_v1_triple
from morphlie.linalg import Matrix, kernel_basis
from morphlie.sampling import Sampler

# Any Lie algebra is a 2-term sh algebra with nothing in degree 1.
plain = TwoTermSh.from_lie_algebra(sl2())
print(f"sl2 as a 2-term sh algebra: axioms pass = {bool(check_two_term_sh(plain))}")

# The identity complex g -> g with the adjoint action is one too.
ident = TwoTermSh.identity_complex(sl2())
print(f"identity complex on sl2:    axioms pass = {bool(check_two_term_sh(ident))}")
print()

# A broken bracket is caught with the first failing basis triple.
bad = TwoTermSh(
    LieAlgebra.from_brackets(3, {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0]}),
    [Matrix.zeros(1, 1)] * 3,
    Matrix.zeros(3, 1),
)
res = check_two_term_sh(bad)
print(f"broken Jacobi data: {res.detail}")
print()

# Skeletal correspondence.  Closed degree-3 cochains on a representation
# triple are exactly the skeletal sh morphisms over it.
rep = sl2_v1_triple()
kb = kernel_basis(mla_differential(rep, 3))
print(f"closed degree-3 cochains on (sl2, sl2, id)/(V1, V1, id): "
      f"{kb.cols} dimensions")

cochain = MCochain.from_vector(rep, 3, kb.col(0))
skeletal = triple_to_skeletal(rep.base, rep, cochain)
print("skeletal object built; every axiom re-verified at construction")

base, back_rep, back = skeletal_to_triple(skeletal)
print(f"round trip recovers the cochain bit-exactly: "
      f"{back == cochain}")
print()

# Twisting by (sigma, sigma', phi) gives an equivalent object whose
# cochain differs by exactly the coboundary of the twist data.
s = Sampler(21)
sigma, sigma_p, phi = s.twist_data(rep)
twisted = twist_equivalence(skeletal, sigma, sigma_p, phi)
_, _, after = skeletal_to_triple(twisted)

twist = MCochain(rep, 2, theta=sigma, gamma=sigma_p, eta=phi)
print(f"twisted cochain - original = coboundary of the twist data: "
      f"{after - cochain == twist.coboundary()}")
