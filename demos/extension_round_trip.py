"""Abelian extensions from 2-cocycles, and cocycles back from extensions.

The area cocycle on the abelian plane builds the Heisenberg algebra; a
section of the built extension reads the cocycle back bit-exactly; and
cohomologous cocycles give isomorphic extensions, with the isomorphism
written down and verified.
"""

from morphlie import MCochain, Matrix, build_extension, extract_cocycle
from morphlie.extensions import coboundary_isomorphism
from morphlie.fixtures import a2_triple, heis
from morphlie.linalg import rat_str
from morphlie.sampling import Sampler

# The plane with trivial modules, and the cocycle theta(e1, e2) = 1.
rep = a2_triple()
area = MCochain(rep, 2, theta=Matrix.from_rows([[1]]),
                gamma=Matrix.from_rows([[1]]))

ext = build_extension(rep, area)
total = ext.total.g
print("extension of the abelian plane by the area cocycle:")
for i in range(total.dim):
    for j in range(i + 1, total.dim):
        terms = [f"e{k + 1}" if ck == 1 else f"{rat_str(ck)}*e{k + 1}"
                 for k, ck in enumerate(total.structure_vector(i, j)) if ck]
        if terms:
            print(f"  [e{i + 1}, e{j + 1}] = {' + '.join(terms)}")
print(f"  equals the Heisenberg algebra: {(total.nonzero, total.den) == (heis().nonzero, heis().den)}")
print()

# Reading the cocycle back.  The canonical section x -> (x, 0) measures
# the bracket defect [s x, s y] - s [x, y], which lands in the fiber.
back, induced = extract_cocycle(ext, *ext.canonical_section())
print(f"canonical section recovers the cocycle bit-exactly: "
      f"{back == area}")

# Any other section differs by a degree-1 shift and recovers a
# cohomologous cocycle; the induced representation never changes.
d0 = Matrix.from_rows([[2, -1]])
del0 = Matrix.from_rows([[0, 3]])
shifted, induced2 = extract_cocycle(ext, *ext.shifted_section(d0, del0))
print(f"shifted section induces the same representation: "
      f"{induced2.psi == induced.psi}")
print()

# The isomorphism between extensions of cohomologous cocycles, explicitly:
# alpha(x, v) = (x, v + d0 x) on the g side, beta likewise on the h side.
shift = MCochain(rep, 1, theta=d0, gamma=del0)
other = area - shift.coboundary()
alpha, beta = coboundary_isomorphism(rep, area, other, d0, del0)
print("coboundary isomorphism between the two extensions:")
print(f"  alpha = {alpha}")
print(f"  beta  = {beta}")
print()

# The same story on a bigger fixture with a randomly drawn cocycle.
s = Sampler(14)
big = s.morphism_rep()
cocycle = s.closed_cochain(big, 2)
ext = build_extension(big, cocycle)
back, _ = extract_cocycle(ext, *ext.canonical_section())
print(f"random cocycle on {big}: round trip bit-exact = "
      f"{back == cocycle}")
