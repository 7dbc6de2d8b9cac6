"""Building, extracting, and identifying abelian extensions."""

from fractions import Fraction

import pytest

from morphlie.algebras import MorphismLieAlgebra, MorphismRep
from morphlie.cohomology import MCochain, mla_differential
from morphlie.errors import NotACocycle, NotASection, NotSimplyCohomologous, ShapeError
from morphlie.extensions import (
    AbelianExtension,
    build_extension,
    coboundary_isomorphism,
    extract_cocycle,
)
from morphlie.fixtures import a2_triple, heis, sl2, sl2_v1_triple, standard_morphism_reps
from morphlie.linalg import Matrix, inverse, kernel_basis
from morphlie.sampling import Sampler

from .oracles import dense_table, o_hom_failure, o_jacobi_failure
from .test_linalg import _rebased

SAMPLER_DRAWS = 8


def area_cocycle():
    rep = a2_triple()
    c = MCochain(rep, 2, theta=Matrix.from_rows([[1]]), gamma=Matrix.from_rows([[1]]))
    return rep, c


def _kernel_cochains(rep, count=3):
    """A few closed degree-2 cochains, straight from the kernel."""
    kb = kernel_basis(mla_differential(rep, 2))
    out = []
    for j in range(min(count, kb.cols)):
        out.append(MCochain.from_vector(rep, 2, kb.col(j)))
    if kb.cols >= 2:
        mixed = [a + 2 * b for a, b in zip(kb.col(0), kb.col(1))]
        out.append(MCochain.from_vector(rep, 2, mixed))
    return out


def test_area_cocycle_builds_heis():
    rep, c = area_cocycle()
    ext = build_extension(rep, c)
    assert dense_table(ext.total.g) == dense_table(heis())
    assert dense_table(ext.total.h) == dense_table(heis())
    assert ext.total.phi == Matrix.identity(3)


def test_zero_cocycle_builds_semidirect_product():
    rep = sl2_v1_triple()
    c = MCochain(rep, 2)
    ext = build_extension(rep, c)
    g_hat = ext.total.g
    # [e_i, v_a] = rho(e_i) v_a in the V block, zero in the g block.
    for i in range(3):
        for a in range(2):
            br = g_hat.bracket(
                [Fraction(1) if t == i else Fraction(0) for t in range(5)],
                [Fraction(1) if t == 3 + a else Fraction(0) for t in range(5)],
            )
            assert br[:3] == [Fraction(0)] * 3
            assert br[3:] == rep.v.action[i].col(a)


def test_non_cocycle_rejected():
    rep = sl2_v1_triple()
    d2 = mla_differential(rep, 2)
    # Find a basis cochain with nonzero differential.
    found = None
    for j in range(d2.cols):
        flat = [Fraction(1) if t == j else Fraction(0) for t in range(d2.cols)]
        if any(d2.apply(flat)):
            found = MCochain.from_vector(rep, 2, flat)
            break
    assert found is not None
    with pytest.raises(NotACocycle):
        build_extension(rep, found)


def test_wrong_degree_rejected():
    rep = sl2_v1_triple()
    with pytest.raises(ShapeError):
        build_extension(rep, MCochain(rep, 1))


def test_extensions_pass_invariant_suite_for_kernel_cocycles():
    # build_extension checks only closedness: the dense oracles referee
    # Jacobi of both totals and the homomorphism law of phi_hat, and
    # from_blocks must read the cocycle back.
    cases = [(name, rep, c) for name, rep in standard_morphism_reps()
             for c in _kernel_cochains(rep, count=2)]
    s = Sampler(1515)
    for k in range(SAMPLER_DRAWS):
        rep = s.morphism_rep()
        cases.append((f"draw #{k}", rep, s.closed_cochain(rep, 2)))
    # sl2's adjoint identity triple with g and h in rational bases: the base
    # and total structure constants have different denominators.
    p, q = s.invertible_matrix(3), s.invertible_matrix(3)
    g, h, phi = _rebased(sl2(), p), _rebased(sl2(), q), inverse(q) * p
    rep = MorphismRep(MorphismLieAlgebra(g, h, phi), g.adjoint_rep(), h.adjoint_rep(), phi)
    cases.append(("rational bases", rep, s.closed_cochain(rep, 2)))
    for label, rep, c in cases:
        total = build_extension(rep, c).total
        assert label != "rational bases" or 1 < rep.base.g.den != total.g.den
        assert o_jacobi_failure(dense_table(total.g)) is None, label
        assert o_jacobi_failure(dense_table(total.h)) is None, label
        assert o_hom_failure(dense_table(total.g), dense_table(total.h),
                             total.phi.to_lists()) is None, label
        back = AbelianExtension.from_blocks(rep, total)
        assert back.cocycle.to_vector() == c.to_vector(), label


def test_canonical_section_round_trip_exact():
    for name, rep in standard_morphism_reps():
        for c in _kernel_cochains(rep):
            ext = build_extension(rep, c)
            s, sbar = ext.canonical_section()
            extracted, induced = extract_cocycle(ext, s, sbar)
            assert extracted.to_vector() == c.to_vector(), name
            assert induced.v.action == rep.v.action, name
            assert induced.w.action == rep.w.action, name
            assert induced.psi == rep.psi, name


def test_semidirect_extracts_zero():
    rep = sl2_v1_triple()
    ext = build_extension(rep, MCochain(rep, 2))
    s, sbar = ext.canonical_section()
    extracted, _ = extract_cocycle(ext, s, sbar)
    assert all(x == 0 for x in extracted.to_vector())


def test_shifted_section_adds_simple_coboundary():
    rep, c = area_cocycle()
    ext = build_extension(rep, c)
    d0 = Matrix.from_rows([[2, -3]])
    del0 = Matrix.from_rows([[1, 5]])
    s, sbar = ext.shifted_section(d0, del0)
    extracted, _ = extract_cocycle(ext, s, sbar)
    simple = MCochain(rep, 1, theta=d0, gamma=del0)
    shift = mla_differential(rep, 1).apply(simple.to_vector())
    expected = [a + b for a, b in zip(c.to_vector(), shift)]
    assert extracted.to_vector() == expected


def test_shifted_section_coboundary_on_sl2():
    rep = sl2_v1_triple()
    for c in _kernel_cochains(rep, count=2):
        ext = build_extension(rep, c)
        d0 = Matrix.from_rows([[1, 0, 2], [0, -1, 1]])
        del0 = Matrix.from_rows([[0, 1, 1], [2, 0, -1]])
        s, sbar = ext.shifted_section(d0, del0)
        extracted, _ = extract_cocycle(ext, s, sbar)
        simple = MCochain(rep, 1, theta=d0, gamma=del0)
        shift = mla_differential(rep, 1).apply(simple.to_vector())
        expected = [a + b for a, b in zip(c.to_vector(), shift)]
        assert extracted.to_vector() == expected


def test_induced_rep_independent_of_section():
    # The returned representation is ext.rep; it is the one every section
    # induces, rho(x) v = [s x, i v] read in the fiber.
    rep = sl2_v1_triple()
    for c in _kernel_cochains(rep, count=2):
        ext = build_extension(rep, c)
        shifted = ext.shifted_section(Matrix.from_rows([[7, -2, 0], [1, 0, 3]]),
                                      Matrix.from_rows([[0, 4, 1], [-1, 2, 0]]))
        for s, sbar in (ext.canonical_section(), shifted):
            _, induced = extract_cocycle(ext, s, sbar)
            assert induced is ext.rep
            for alg, sec, i_mat, module in ((ext.total.g, s, ext.i, induced.v),
                                            (ext.total.h, sbar, ext.i_bar, induced.w)):
                for k, act in enumerate(module.action):
                    for a in range(module.dim_v):
                        bracket = alg.bracket(sec.col(k), i_mat.col(a))
                        assert bracket == [0] * (alg.dim - module.dim_v) + act.col(a)


def test_non_section_rejected():
    rep, c = area_cocycle()
    ext = build_extension(rep, c)
    bad = Matrix.zeros(3, 2)
    with pytest.raises(NotASection):
        extract_cocycle(ext, bad, ext.canonical_section()[1])


def test_coboundary_isomorphism_identity_case():
    rep, c = area_cocycle()
    alpha, beta = coboundary_isomorphism(
        rep, c, c, Matrix.zeros(1, 2), Matrix.zeros(1, 2)
    )
    assert alpha == Matrix.identity(3)
    assert beta == Matrix.identity(3)


def test_coboundary_isomorphism_to_semidirect():
    rep = sl2_v1_triple()
    d0 = Matrix.from_rows([[1, 2, 0], [0, 1, -1]])
    del0 = Matrix.from_rows([[2, 0, 1], [1, 1, 0]])
    simple = MCochain(rep, 1, theta=d0, gamma=del0)
    boundary = mla_differential(rep, 1).apply(simple.to_vector())
    c1 = MCochain.from_vector(rep, 2, boundary)
    c2 = MCochain(rep, 2)
    alpha, beta = coboundary_isomorphism(rep, c1, c2, d0, del0)
    assert alpha.rows == 5 and beta.rows == 5


def test_coboundary_isomorphism_area_fixture():
    rep, c = area_cocycle()
    d0 = Matrix.from_rows([[3, 1]])
    del0 = Matrix.from_rows([[-2, 5]])
    simple = MCochain(rep, 1, theta=d0, gamma=del0)
    shift = mla_differential(rep, 1).apply(simple.to_vector())
    c2_flat = [a - b for a, b in zip(c.to_vector(), shift)]
    c2 = MCochain.from_vector(rep, 2, c2_flat)
    alpha, beta = coboundary_isomorphism(rep, c, c2, d0, del0)
    # alpha must be the stated block form (x, v) -> (x, v + d0 x).
    assert alpha.submatrix([2], [0, 1]) == d0
    assert beta.submatrix([2], [0, 1]) == del0


def test_not_simply_cohomologous_rejected():
    rep, c = area_cocycle()
    c2 = MCochain(rep, 2)  # differs from c by a NON-coboundary (c is not exact)
    with pytest.raises(NotSimplyCohomologous):
        coboundary_isomorphism(rep, c, c2, Matrix.zeros(1, 2), Matrix.zeros(1, 2))


def test_not_simply_cohomologous_when_only_the_sum_is_the_coboundary():
    # c1 + c2 = delta(d0, del0, 0) but c1 - c2 is not; c2 is written out
    # without cochain arithmetic, so the difference taken is the check's own.
    rep, c = area_cocycle()
    d0, del0 = Matrix.from_rows([[3, 1]]), Matrix.from_rows([[-2, 5]])
    boundary = MCochain(rep, 1, theta=d0, gamma=del0).coboundary().to_vector()
    c2 = MCochain.from_vector(rep, 2, [b - a for a, b in zip(c.to_vector(), boundary)])
    with pytest.raises(NotSimplyCohomologous):
        coboundary_isomorphism(rep, c, c2, d0, del0)
