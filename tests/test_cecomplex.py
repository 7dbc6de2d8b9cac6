"""Chevalley-Eilenberg differential and cohomology against the brute oracle."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphlie.algebras import LieAlgebra, MorphismLieAlgebra, Representation
from morphlie.cecomplex import (
    ExteriorBasis,
    ce_cohomology_dim,
    ce_complex,
    ce_differential,
    cochain_dim,
    postcompose_matrix,
    precompose_matrix,
    pullback_rep,
    sort_with_sign,
    wedge_minor_matrix,
)
from morphlie.errors import ShapeError
from morphlie.fixtures import a1, a2, heis, sl2, v0, v1
from morphlie.linalg import Matrix, inverse, rank

from .oracles import _mk_act, _mk_brk, dense_table, o_ce_dims, o_ce_matrix, o_det


def _fixture_reps():
    yield "a1-trivial", v0(a1())
    yield "a2-trivial", v0(a2())
    yield "heis-trivial", v0(heis())
    yield "heis-adjoint", heis().adjoint_rep()
    yield "sl2-trivial", v0(sl2())
    yield "sl2-v1", v1()
    yield "sl2-adjoint", sl2().adjoint_rep()


def _raw(rep):
    brk = _mk_brk(dense_table(rep.algebra))
    act = _mk_act([m.to_lists() for m in rep.action])
    return rep.algebra.dim, brk, act, rep.dim_v


def test_exterior_basis_shape():
    b = ExteriorBasis(4, 2)
    assert len(b) == 6
    assert b.tuples == sorted(b.tuples)
    assert ExteriorBasis(3, 0).tuples == [()]
    assert ExteriorBasis(2, 3).tuples == []


def test_sort_with_sign():
    assert sort_with_sign((0, 1, 2)) == ((0, 1, 2), 1)
    assert sort_with_sign((1, 0, 2)) == ((0, 1, 2), -1)
    assert sort_with_sign((2, 1, 0)) == ((0, 1, 2), -1)
    assert sort_with_sign((2, 0, 1)) == ((0, 1, 2), 1)
    assert sort_with_sign((1, 1)) is None


def test_differential_matches_oracle_on_all_fixtures():
    for name, rep in _fixture_reps():
        dim_g, brk, act, dim_v = _raw(rep)
        for n in range(dim_g + 1):
            ours = ce_differential(rep, n)
            oracle = o_ce_matrix(dim_g, brk, act, dim_v, n)
            theirs = Matrix.from_rows(oracle, cols=ours.cols)
            assert ours == theirs, f"{name} degree {n}"


def test_abelian_trivial_differential_is_zero():
    rep = v0(a2())
    for n in range(3):
        assert ce_differential(rep, n).is_zero()


def test_sl2_adjoint_degree0_example():
    # (delta e)(h) = rho(h) e = [h, e] = 2e.
    rep = sl2().adjoint_rep()
    d0 = ce_differential(rep, 0)
    col = d0.col(0)  # input cochain: the constant e
    assert col[6:9] == [Fraction(2), Fraction(0), Fraction(0)]


def test_a2_trivial_degree1_is_zero_1x2():
    rep = v0(a2())
    d1 = ce_differential(rep, 1)
    assert (d1.rows, d1.cols) == (1, 2)
    assert d1.is_zero()


def test_negative_degree_rejected():
    with pytest.raises(ShapeError):
        ce_differential(v0(a1()), -1)


def test_cohomology_dims_match_frozen_oracle_values():
    assert [ce_cohomology_dim(v0(a2()), n) for n in range(3)] == [1, 2, 1]
    assert [ce_cohomology_dim(v0(sl2()), n) for n in range(4)] == [1, 0, 0, 1]
    assert [ce_cohomology_dim(v1(), n) for n in range(4)] == [0, 0, 0, 0]
    assert [ce_cohomology_dim(heis().adjoint_rep(), n) for n in range(4)] == [1, 4, 5, 2]
    assert [ce_cohomology_dim(sl2().adjoint_rep(), n) for n in range(4)] == [0, 0, 0, 0]


def test_cohomology_matches_oracle_recomputation():
    for name, rep in _fixture_reps():
        dim_g, brk, act, dim_v = _raw(rep)
        expected = o_ce_dims(dim_g, brk, act, dim_v, dim_g)
        got = [ce_cohomology_dim(rep, n) for n in range(dim_g + 1)]
        assert got == expected, name


def test_complex_verifies_delta_squared_zero():
    for name, rep in _fixture_reps():
        cx = ce_complex(rep)
        for n in range(rep.algebra.dim):
            assert (cx.matrix(n + 1) * cx.matrix(n)).is_zero(), name


def test_delta_squared_zero_for_conjugated_reps():
    # Conjugating the action by an invertible matrix stays inside the axioms.
    conjugators = [
        Matrix.from_rows([[1, 2], [0, 1]]),
        Matrix.from_rows([[Fraction(1, 2), 1], [1, 3]]),
    ]
    base = v1()
    for p in conjugators:
        q = inverse(p)
        rep = Representation(base.algebra, 2, [p * m * q for m in base.action])
        cx = ce_complex(rep)
        for n in range(rep.algebra.dim + 1):
            cx.verify(n)  # raises if a composition is nonzero


def test_non_representation_is_refused():
    # rho(e1) and rho(e2) do not commute, but a2 is abelian: d_1 . d_0 != 0.
    broken = Representation(a2(), 2, [Matrix.from_rows([[0, 1], [0, 0]]),
                                      Matrix.from_rows([[1, 0], [0, 0]])],
                            validate=False)
    assert ce_cohomology_dim(broken, 0) == 0
    with pytest.raises(AssertionError, match="square to zero"):
        ce_cohomology_dim(broken, 1)
    with pytest.raises(AssertionError, match="square to zero"):
        ce_complex(broken).verify(1)


def test_euler_characteristic_identity():
    for name, rep in _fixture_reps():
        dim_g = rep.algebra.dim
        chi_c = sum((-1) ** n * cochain_dim(dim_g, rep.dim_v, n) for n in range(dim_g + 1))
        chi_h = sum((-1) ** n * ce_cohomology_dim(rep, n) for n in range(dim_g + 1))
        assert chi_c == chi_h, name


def test_pullback_rep_zero_and_identity():
    g = sl2()
    rep = v1(g)
    zero_phi = MorphismLieAlgebra(g, g, Matrix.zeros(3, 3))
    pulled = pullback_rep(zero_phi, rep)
    assert all(m.is_zero() for m in pulled.action)
    ident = MorphismLieAlgebra.identity(g)
    same = pullback_rep(ident, rep)
    assert same.action == rep.action


def test_pullback_rep_shape_error():
    m = MorphismLieAlgebra.identity(sl2())
    with pytest.raises(ShapeError):
        pullback_rep(m, v0(a2()))


def test_wedge_minor_identity():
    assert wedge_minor_matrix(Matrix.identity(3), 2) == Matrix.identity(3)


def test_wedge_minor_top_degree_is_determinant():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    top = wedge_minor_matrix(m, 2)
    assert (top.rows, top.cols) == (1, 1)
    assert top[0, 0] == Fraction(-2)


_entries = st.integers(min_value=-2, max_value=2)


@settings(max_examples=20, deadline=None)
@given(
    st.lists(_entries, min_size=9, max_size=9),
    st.lists(_entries, min_size=9, max_size=9),
    st.integers(min_value=0, max_value=3),
)
def test_wedge_minor_multiplicative(flat_a, flat_b, n):
    """Cauchy-Binet: wedge^n(AB) = wedge^n(A) wedge^n(B)."""
    a = Matrix.from_rows([flat_a[0:3], flat_a[3:6], flat_a[6:9]])
    b = Matrix.from_rows([flat_b[0:3], flat_b[3:6], flat_b[6:9]])
    assert wedge_minor_matrix(a * b, n) == wedge_minor_matrix(a, n) * wedge_minor_matrix(b, n)


_sparse_entries = st.one_of(st.just(0), st.builds(Fraction, st.integers(-3, 3),
                                                   st.sampled_from([1, 2, 3])))


@settings(max_examples=80, deadline=None)
@given(st.tuples(st.integers(0, 5), st.integers(0, 5)).flatmap(lambda rc: st.tuples(
    st.lists(_sparse_entries, min_size=rc[0] * rc[1], max_size=rc[0] * rc[1]).map(
        lambda xs: Matrix(rc[0], rc[1], xs)),
    st.integers(0, min(rc) + 1))))
def test_wedge_minor_entries_are_oracle_minors(phi_and_n):
    phi, n = phi_and_n
    targets, sources = ExteriorBasis(phi.rows, n).tuples, ExteriorBasis(phi.cols, n).tuples
    minors = wedge_minor_matrix(phi, n)
    assert (minors.rows, minors.cols) == (len(targets), len(sources))
    assert minors.to_lists() == [[o_det(phi.submatrix(t, s).to_lists()) for s in sources]
                                 for t in targets]


def test_postcompose_matrix_acts_blockwise():
    psi = Matrix.from_rows([[1, 2], [3, 4], [5, 6]])  # 3x2: V dim 2 -> W dim 3
    post = postcompose_matrix(psi, 2)
    assert (post.rows, post.cols) == (6, 4)
    # Cochain with value (1,0) on tuple 0 and (0,1) on tuple 1.
    flat = [Fraction(1), Fraction(0), Fraction(0), Fraction(1)]
    out = post.apply(flat)
    assert out == [Fraction(1), Fraction(3), Fraction(5), Fraction(2), Fraction(4), Fraction(6)]


def test_precompose_matrix_matches_direct_evaluation():
    # phi: Q^2 -> Q^2, gamma on wedge^1 pulled back along phi.
    phi = Matrix.from_rows([[1, 2], [3, 4]])
    minors = wedge_minor_matrix(phi, 1)
    assert minors == phi
    pre = precompose_matrix(minors, 1)
    # gamma(f_0)=a, gamma(f_1)=b -> (gamma . phi)(e_j) = a phi[0,j] + b phi[1,j].
    a, b = Fraction(5), Fraction(7)
    out = pre.apply([a, b])
    assert out == [a * 1 + b * 3, a * 2 + b * 4]


def test_rank_of_sl2_trivial_differentials():
    rep = v0(sl2())
    assert rank(ce_differential(rep, 0)) == 0
    assert rank(ce_differential(rep, 1)) == 3
