"""Small named examples shared by the tests, demos, and documentation.

Lie side: A1 (1-dim abelian), A2 (2-dim abelian), HEIS (Heisenberg with
[e1, e2] = e3), SL2 (basis e, f, h), V0 (trivial 1-dim representation), and
V1 (the 2-dim irreducible representation of sl2).  Group side: cyclic and
Klein four-groups with their small rational representations.
"""

from __future__ import annotations

from .algebras import (
    LieAlgebra,
    MorphismLieAlgebra,
    MorphismRep,
    Representation,
    adjoint_morphism_rep,
)
from .groups import FiniteGroup, GroupModule, GroupModuleTriple
from .linalg import Matrix


def a1() -> LieAlgebra:
    """The 1-dimensional abelian Lie algebra."""
    return LieAlgebra.abelian(1)


def a2() -> LieAlgebra:
    """The 2-dimensional abelian Lie algebra."""
    return LieAlgebra.abelian(2)


def heis() -> LieAlgebra:
    """The Heisenberg algebra: [e1, e2] = e3, e3 central."""
    return LieAlgebra.from_brackets(3, {(0, 1): [0, 0, 1]})


def sl2() -> LieAlgebra:
    """sl2 on the basis (e, f, h): [e,f] = h, [h,e] = 2e, [h,f] = -2f."""
    return LieAlgebra.from_brackets(
        3,
        {
            (0, 1): [0, 0, 1],
            (2, 0): [2, 0, 0],
            (2, 1): [0, -2, 0],
        },
    )


def v0(algebra: LieAlgebra) -> Representation:
    """The trivial 1-dimensional representation."""
    return Representation.trivial(algebra, 1)


def v1(algebra: LieAlgebra | None = None) -> Representation:
    """The 2-dimensional irreducible representation of sl2."""
    base = algebra if algebra is not None else sl2()
    action = [
        Matrix.from_rows([[0, 1], [0, 0]]),
        Matrix.from_rows([[0, 0], [1, 0]]),
        Matrix.from_rows([[1, 0], [0, -1]]),
    ]
    return Representation(base, 2, action)


def _trivial_identity_triple(g: LieAlgebra) -> MorphismRep:
    """(g, g, id) with trivial 1-dim modules, psi = 1."""
    return MorphismRep(MorphismLieAlgebra.identity(g), v0(g), v0(g), Matrix.identity(1))


def a1_triple() -> MorphismRep:
    """A1 with identity morphism and trivial 1-dim modules, psi = 1."""
    return _trivial_identity_triple(a1())


def a2_triple() -> MorphismRep:
    """A2 with identity morphism and trivial 1-dim modules, psi = 1."""
    return _trivial_identity_triple(a2())


def sl2_v1_triple() -> MorphismRep:
    """(sl2, sl2, id) acting on (V1, V1, id)."""
    g = sl2()
    m = MorphismLieAlgebra.identity(g)
    rep = v1(g)
    return MorphismRep(m, rep, rep, Matrix.identity(2))


def sl2_adjoint_triple() -> MorphismRep:
    """(sl2, sl2, id) acting on itself."""
    return adjoint_morphism_rep(MorphismLieAlgebra.identity(sl2()))


def heis_adjoint_triple() -> MorphismRep:
    """(HEIS, HEIS, id) acting on itself."""
    return adjoint_morphism_rep(MorphismLieAlgebra.identity(heis()))


def heis_trivial_triple() -> MorphismRep:
    """(HEIS, HEIS, id) with trivial 1-dim modules."""
    return _trivial_identity_triple(heis())


def sl2_trivial_triple() -> MorphismRep:
    """(sl2, sl2, id) with trivial 1-dim modules."""
    return _trivial_identity_triple(sl2())


def heis_to_a2_triple() -> MorphismRep:
    """HEIS projected onto A2 by killing the center, trivial modules."""
    g = heis()
    h = a2()
    phi = Matrix.from_rows([[1, 0, 0], [0, 1, 0]])
    m = MorphismLieAlgebra(g, h, phi)
    return MorphismRep(m, v0(g), v0(h), Matrix.identity(1))


def a1_into_sl2_triple() -> MorphismRep:
    """A1 embedded on the nilpotent e inside sl2, with V trivial and W = V1.

    psi lands in the e-invariant line of V1, the only intertwining choice.
    """
    g = a1()
    h = sl2()
    m = MorphismLieAlgebra(g, h, Matrix.from_rows([[1], [0], [0]]))
    return MorphismRep(m, v0(g), v1(h), Matrix.from_rows([[1], [0]]))


def standard_morphism_reps() -> list[tuple[str, MorphismRep]]:
    """The named triples every broad suite runs over."""
    return [
        ("a1-trivial", a1_triple()),
        ("a2-trivial", a2_triple()),
        ("sl2-trivial", sl2_trivial_triple()),
        ("sl2-v1", sl2_v1_triple()),
        ("sl2-adjoint", sl2_adjoint_triple()),
        ("heis-trivial", heis_trivial_triple()),
        ("heis-adjoint", heis_adjoint_triple()),
        ("heis-to-a2", heis_to_a2_triple()),
        ("a1-into-sl2", a1_into_sl2_triple()),
    ]


def sign_module(group: FiniteGroup) -> GroupModule:
    """The 1-dim module where element g acts by (-1)^g (even cyclic groups)."""
    action = [Matrix.from_rows([[(-1) ** g]]) for g in range(group.order)]
    return GroupModule(group, 1, action)


def z3_rotation_module() -> GroupModule:
    """Z/3 acting on the plane by the rational rotation of order three."""
    group = FiniteGroup.cyclic(3)
    m = Matrix.from_rows([[0, -1], [1, -1]])
    return GroupModule(group, 2, [Matrix.identity(2), m, m * m])


def z4_rotation_module() -> GroupModule:
    """Z/4 acting on the plane by the quarter turn."""
    group = FiniteGroup.cyclic(4)
    m = Matrix.from_rows([[0, -1], [1, 0]])
    return GroupModule(group, 2, [Matrix.identity(2), m, m * m, m * m * m])


def z2_identity_triple() -> GroupModuleTriple:
    """(Z/2, Z/2, id) with trivial 1-dim modules and psi = 1."""
    return GroupModuleTriple.identity(GroupModule.trivial(FiniteGroup.cyclic(2), 1))


def klein_to_z2_triple() -> GroupModuleTriple:
    """Klein four-group projecting onto Z/2, trivial 1-dim modules."""
    g = FiniteGroup.klein_four()
    h = FiniteGroup.cyclic(2)
    phi = [0, 0, 1, 1]
    return GroupModuleTriple(g, h, phi, GroupModule.trivial(g, 1),
                             GroupModule.trivial(h, 1), Matrix.identity(1))


def z4_to_z2_sign_triple() -> GroupModuleTriple:
    """Z/4 with the plane rotation mapping onto Z/2 with the sign module.

    The only intertwiner is zero, which makes the Lambda block carry all
    the interesting cohomology.
    """
    g = FiniteGroup.cyclic(4)
    h = FiniteGroup.cyclic(2)
    return GroupModuleTriple(g, h, [0, 1, 0, 1], z4_rotation_module(),
                             sign_module(h), Matrix.zeros(1, 2))
