"""Chevalley-Eilenberg differential and cohomology against the brute oracle."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphlie.algebras import LieAlgebra, MorphismLieAlgebra, Representation
from morphlie import cecomplex, cohomology, linalg
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
from morphlie.cohomology import mla_complex, mla_differential
from morphlie.errors import ShapeError
from morphlie.fixtures import (
    a1,
    a1_into_sl2_triple,
    a2,
    heis,
    heis_adjoint_triple,
    klein_to_z2_triple,
    sign_module,
    sl2,
    standard_morphism_reps,
    v0,
    v1,
    z2_identity_triple,
    z3_rotation_module,
    z4_to_z2_sign_triple,
)
from morphlie.groups import (
    FiniteGroup,
    GroupModule,
    GroupModuleTriple,
    group_cochain_tuples,
    group_differential,
    mlg_differential,
    pullback_module,
)
from morphlie.linalg import ChainMap, Complex, Matrix, cone, inverse, rank
from morphlie.sampling import Sampler

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


def _block_referee(d_v, d_w, psi, tuples, pre_phi, d_pull, graph):
    """The cone differential as the old block assembly wrote it, times the graph [I; psi]."""
    d = Matrix.block([
        [d_v, Matrix.zeros(d_v.rows, d_w.cols), Matrix.zeros(d_v.rows, d_pull.cols)],
        [Matrix.zeros(d_w.rows, d_v.cols), d_w, Matrix.zeros(d_w.rows, d_pull.cols)],
        [postcompose_matrix(psi, tuples), -pre_phi, -d_pull],
    ])
    return d * Matrix.vstack([Matrix.identity(psi.cols), psi]) if graph else d


def _lie_pieces(rep, n):
    base = rep.base
    d_pull = (ce_differential(pullback_rep(base, rep.w), n - 1) if n
              else Matrix.zeros(rep.dim_w, 0))
    return (ce_differential(rep.v, n), ce_differential(rep.w, n), rep.psi,
            comb(base.g.dim, n), precompose_matrix(wedge_minor_matrix(base.phi, n), rep.dim_w),
            d_pull)


def _group_pieces(t, n, normalized):
    g_tuples = group_cochain_tuples(t.g, n, normalized)
    h_index = {tup: i for i, tup in enumerate(group_cochain_tuples(t.h, n, normalized))}
    pre = Matrix.from_integer_rows([{h_index[tup] * t.dim_w + r: 1} if tup in h_index else {}
                                    for tup in (tuple(t.phi[x] for x in u) for u in g_tuples)
                                    for r in range(t.dim_w)], len(h_index) * t.dim_w)
    d_pull = (group_differential(pullback_module(t), n - 1, normalized) if n
              else Matrix.zeros(t.dim_w, 0))
    return (group_differential(t.v, n, normalized), group_differential(t.w, n, normalized),
            t.psi, len(g_tuples), pre, d_pull)


def test_morphism_matrix_equals_the_block_assembly():
    # Catalog triples and ten Sampler(404) draws on each side, degrees 0-3,
    # the default complex (degree 0 on the graph of psi) and the full cone,
    # full and normalized bar cochains.
    s = Sampler(404)
    reps = [rep for _, rep in standard_morphism_reps()] + [s.morphism_rep() for _ in range(10)]
    for k, rep in enumerate(reps):
        for n in range(4):
            pieces = _lie_pieces(rep, n)
            for full in (False, True):
                ours = mla_differential(rep, n, full)
                assert ours == _block_referee(*pieces, n == 0 and not full), (k, n, full)
    triples = [z2_identity_triple(), klein_to_z2_triple(), z4_to_z2_sign_triple(),
               GroupModuleTriple.identity(sign_module(FiniteGroup.cyclic(2))),
               GroupModuleTriple.identity(z3_rotation_module())]
    triples += [s.group_module_triple() for _ in range(10)]
    for k, t in enumerate(triples):
        for n in range(4):
            for normalized in (False, True):
                ours = mlg_differential(t, n, normalized)
                assert ours == _block_referee(*_group_pieces(t, n, normalized), n == 0), \
                    (k, n, normalized)


def test_morphism_matrix_computes_the_graph_eta_block():
    # At degree 0 the eta rows of the cone on the graph of psi are
    # psi - pre_phi psi, formed, not assumed 0: a pre_phi other than the
    # identity shows in them.
    psi = Matrix.from_rows([[1, Fraction(1, 2)], [0, 3]])
    d_v, d_w = Matrix.from_rows([[1, 0]]), Matrix.from_rows([[0, Fraction(2, 3)]])
    pre = Matrix.from_rows([[2, 0], [0, 1]])
    source = [Complex(lambda n: [2, 1][n] if 0 <= n < 2 else 0, lambda n, d=d: d, name)
              for d, name in ((d_v, "V"), (d_w, "W"))]
    target = Complex(lambda n: 2 if n == 0 else 0, None, "W_phi")
    for pre_phi in (Matrix.identity(2), pre):
        cx = cone(ChainMap(source, target, lambda n: (postcompose_matrix(psi, 1), -pre_phi), psi),
                  graph=True)
        d_0 = cx.matrix(0)
        assert d_0 == _block_referee(d_v, d_w, psi, 1, pre_phi, Matrix.zeros(2, 0), True)
    assert d_0.row(2) == [-1, Fraction(-1, 2)]


def test_morphism_matrix_stores_no_zero():
    # The cone writer hands its rows to the matrix unscanned: d_v's and d_w's
    # stored rows hold no zero, and the eta parts hold disjoint columns.  So
    # do both builders, which drop an entry that cancels: d_1 of the sl2
    # adjoint module and every group module below have such entries.
    sampler = Sampler(404)
    reps = [rep for _, rep in _fixture_reps()] + [sampler.representation() for _ in range(3)]
    modules = ([sign_module(FiniteGroup.cyclic(4)), z3_rotation_module(),
                GroupModule.trivial(FiniteGroup.cyclic(2), 1)]
               + [sampler.group_module(sampler.group()) for _ in range(3)])
    for n in range(4):
        for rep in reps:
            num, _ = ce_differential(rep, n).stored_rows()
            assert all(0 not in row.values() for row in num), (rep, n)
        for module in modules:
            for normalized in (False, True):
                num, _ = group_differential(module, n, normalized).stored_rows()
                assert all(0 not in row.values() for row in num), (module, n, normalized)
    for name, rep in standard_morphism_reps():
        for n in range(4):
            for cone in (False, True):
                num, _ = mla_differential(rep, n, cone).stored_rows()
                assert all(0 not in row.values() for row in num), (name, n, cone)
    for t in (klein_to_z2_triple(), z4_to_z2_sign_triple()):
        for n in range(4):
            for normalized in (False, True):
                num, _ = mlg_differential(t, n, normalized).stored_rows()
                assert all(0 not in row.values() for row in num), (n, normalized)


def _record_table_pieces(monkeypatch):
    """Log the matrices rescaled to integers, the exterior bases, modules and wedge minors built."""
    rescaled, built, made, minors = [], [], [], []
    real_rows, real_basis = Matrix.integer_rows, ExteriorBasis.__init__
    real_rep, real_minors = Representation.__init__, cecomplex.wedge_minor_matrix
    monkeypatch.setattr(Matrix, "integer_rows",
                        lambda m, d=0: rescaled.append(m) or real_rows(m, d))
    monkeypatch.setattr(ExteriorBasis, "__init__",
                        lambda b, dim, n: built.append((dim, n)) or real_basis(b, dim, n))
    monkeypatch.setattr(Representation, "__init__",
                        lambda r, *a, **k: made.append(r) or real_rep(r, *a, **k))
    monkeypatch.setattr(cohomology, "wedge_minor_matrix",
                        lambda phi, n: minors.append(n) or real_minors(phi, n))
    cecomplex.exterior_basis.cache_clear()
    return rescaled, built, made, minors


def test_a_table_rescales_each_action_and_builds_each_exterior_basis_once(monkeypatch):
    # psi is not invertible, so the morphism table of a1 into sl2 to degree 3
    # builds d_0..d_3 of the cone: V's, W's and the pulled-back module's
    # differentials in every degree, and wedge minors of phi.  Each action
    # matrix is rescaled to integers once, and each (dim, n) exterior basis
    # built once.  The pulled-back module is the one the rep's check built.
    rep = a1_into_sl2_triple()
    rescaled, built, made, minors = _record_table_pieces(monkeypatch)
    mla_complex(rep).table(3)
    assert made == [] and minors == [0, 1, 2, 3]
    for module in (rep.v, rep.w, rep._w_phi):
        assert [sum(x is m for x in rescaled) for m in module.action] == [1] * len(module.action)
    assert sorted(built) == sorted(set(built)) and (3, 4) in built


@pytest.mark.parametrize("cone", [False, True])
def test_an_invertible_psi_table_builds_only_w_and_the_graph(monkeypatch, cone):
    # psi = id: the heis adjoint table to degree 3 ranks C(h, W) alone.  W's
    # action is rescaled once, no module is pulled back, and each degree of
    # W is built once and ranked once, after psi's one rank.  Neither complex
    # builds a differential of its own: the graph's rank d_0 is W's, so no d_0
    # of V and no wedge minor is built, and W's d_0 is built once.
    rep = heis_adjoint_triple()
    rescaled, _, made, minors = _record_table_pieces(monkeypatch)
    degrees, ranked = [], []
    real_ce, real_basis = cecomplex.ce_differential, linalg.row_basis
    monkeypatch.setattr(cecomplex, "ce_differential",
                        lambda r, n: degrees.append((r, n)) or real_ce(r, n))
    monkeypatch.setattr(linalg, "row_basis",
                        lambda m, skip=(): ranked.append(m) or real_basis(m, skip))
    mla_complex(rep, cone).table(3)
    assert made == [] and minors == []
    assert [n for r, n in degrees if r is rep.w] == [0, 1, 2, 3]
    assert [n for r, n in degrees if r is rep.v] == []
    assert len(ranked) == 5
    assert [sum(x is m for x in rescaled) for m in rep.w.action] == [1] * rep.w.algebra.dim
