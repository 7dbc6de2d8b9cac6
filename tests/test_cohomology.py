"""Morphism-complex differentials, cohomology, derivations, quotients."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphlie import cohomology, linalg
from morphlie.algebras import (
    LieAlgebra,
    MorphismLieAlgebra,
    MorphismRep,
    Representation,
    check_jacobi,
)
from morphlie.cecomplex import ce_cohomology_dim, ce_differential, pullback_rep
from morphlie.cohomology import (
    MCochain,
    check_derivation,
    check_infinitesimal_deformation,
    check_subalgebra_deformation_cocycle,
    derivation_space_dim,
    homomorphism_induced_rep,
    inner_derivation_dim,
    invariant_vectors_dim,
    mla_block_dims,
    mla_cohomology_dim,
    mla_complex,
    mla_differential,
    outer_derivation_dim,
    quotient_morphism_rep,
    simple_cohomology_dim,
)
from morphlie.errors import (
    NotAHomomorphism,
    NotASubalgebra,
    NotPreserved,
    ShapeError,
)
from morphlie.fixtures import (
    a1,
    a1_into_sl2_triple,
    a1_triple,
    a2,
    a2_triple,
    heis,
    heis_adjoint_triple,
    heis_to_a2_triple,
    sl2,
    sl2_adjoint_triple,
    sl2_v1_triple,
    standard_morphism_reps,
    klein_to_z2_triple,
    sign_module,
    v0,
    v1,
    z2_identity_triple,
    z3_rotation_module,
    z4_rotation_module,
    z4_to_z2_sign_triple,
)
from morphlie.groups import FiniteGroup, GroupModule, GroupModuleTriple, group_complex, mlg_complex
from morphlie.linalg import Complex, Matrix
from morphlie.sampling import Sampler

from .oracles import (
    _mk_act,
    _mk_brk,
    dense_table,
    o_ce_dims,
    o_derivation_dims,
    o_derivation_failure,
    o_identity_triple_dims,
    o_mla_dims,
    o_mla_matrix,
    o_rank,
)


def _raw(rep: MorphismRep) -> dict:
    base = rep.base
    return {
        "dim_g": base.g.dim,
        "c_g": dense_table(base.g),
        "dim_h": base.h.dim,
        "c_h": dense_table(base.h),
        "dim_v": rep.dim_v,
        "act_v": [m.to_lists() for m in rep.v.action],
        "dim_w": rep.dim_w,
        "act_w": [m.to_lists() for m in rep.w.action],
        "phi": base.phi.to_lists(),
        "psi": rep.psi.to_lists(),
    }


def test_differential_matches_oracle_on_all_fixtures():
    for name, rep in standard_morphism_reps():
        raw = _raw(rep)
        top = max(rep.base.g.dim + 1, rep.base.h.dim)
        for n in range(top + 1):
            ours = mla_differential(rep, n)
            theirs = Matrix.from_rows(o_mla_matrix(raw, n), cols=ours.cols)
            assert ours == theirs, f"{name} degree {n}"


def test_a1_degree1_differential_is_1_minus1_0():
    d1 = mla_differential(a1_triple(), 1)
    assert d1.to_lists() == [[Fraction(1), Fraction(-1), Fraction(0)]]


def test_degree0_differential_with_trivial_actions_is_zero():
    assert mla_differential(a1_triple(), 0).is_zero()


def test_identity_phi_gives_negative_identity_gamma_block():
    # With phi = id and W = V, the gamma part of the eta-row is -identity.
    rep = sl2_v1_triple()
    d1 = mla_differential(rep, 1)
    dims_in = mla_block_dims(rep, 1)
    dims_out = mla_block_dims(rep, 2)
    eta_rows = range(dims_out[0] + dims_out[1], sum(dims_out))
    gamma_cols = range(dims_in[0], dims_in[0] + dims_in[1])
    block = d1.submatrix(eta_rows, gamma_cols)
    assert block == -Matrix.identity(dims_in[1])


def test_a1_cohomology_dims_and_ranks():
    rep = a1_triple()
    assert [mla_complex(rep).dim(n) for n in range(3)] == [1, 3, 1]
    from morphlie.linalg import rank

    assert rank(mla_differential(rep, 0)) == 0
    assert rank(mla_differential(rep, 1)) == 1
    assert [mla_cohomology_dim(rep, n) for n in range(3)] == [1, 2, 0]


def test_cohomology_dims_match_frozen_oracle_values():
    # sl2/V1: the degree-1 group does not vanish; derivation triples
    # (d, d', u - u') built from constants u, u' in V1 survive, giving
    # dimension 2.  The remaining degrees are zero.
    assert [mla_cohomology_dim(sl2_v1_triple(), n) for n in range(4)] == [0, 2, 0, 0]
    assert [mla_cohomology_dim(heis_adjoint_triple(), n) for n in range(4)] == [1, 7, 5, 2]
    assert [mla_cohomology_dim(sl2_adjoint_triple(), n) for n in range(4)] == [0, 3, 0, 0]


def test_cohomology_matches_oracle_recomputation():
    for name, rep in standard_morphism_reps():
        top = max(rep.base.g.dim + 1, rep.base.h.dim)
        expected = o_mla_dims(_raw(rep), top)
        got = [mla_cohomology_dim(rep, n) for n in range(top + 1)]
        assert got == expected, name


def test_equal_sizes_with_different_data_get_their_own_tables():
    # Exterior bases are shared by size and each module keeps its own integer
    # action, so in one process, degree by degree: heis and sl2 (both of
    # dimension 3, with their adjoint modules), and over one copy of sl2 its
    # module V1 and the trivial module of dimension 2.
    g = sl2()
    same_g = MorphismLieAlgebra.identity(g)
    reps = [heis_adjoint_triple(), sl2_adjoint_triple(),
            MorphismRep(same_g, v1(g), v1(g), Matrix.identity(2)),
            MorphismRep(same_g, Representation.trivial(g, 2), Representation.trivial(g, 2),
                        Matrix.identity(2))]
    complexes = [mla_complex(rep) for rep in reps]
    got = [[cx.dim_H(n) for cx in complexes] for n in range(4)]
    assert [list(dims) for dims in zip(*got)] == [o_mla_dims(_raw(rep), 3) for rep in reps]


def test_cone_block_dims_differ_only_in_degree_zero():
    for name, rep in standard_morphism_reps():
        full, default = mla_complex(rep, cone=True), mla_complex(rep)
        assert full.dim(0) == rep.dim_v + rep.dim_w, name
        for n in (-1, 1, 2, 3):
            assert full.dim(n) == default.dim(n) == sum(mla_block_dims(rep, n)), name


def test_cone_differential_matches_oracle_on_all_fixtures():
    for name, rep in standard_morphism_reps():
        raw = _raw(rep)
        for n in (0, 1):
            ours = mla_differential(rep, n, cone=True)
            theirs = Matrix.from_rows(o_mla_matrix(raw, n, cone=True), cols=ours.cols)
            assert ours == theirs, f"{name} degree {n}"


def test_cone_cohomology_matches_oracle_recomputation():
    for name, rep in standard_morphism_reps():
        top = max(rep.base.g.dim + 1, rep.base.h.dim)
        expected = o_mla_dims(_raw(rep), top, cone=True)
        got = [mla_cohomology_dim(rep, n, cone=True) for n in range(top + 1)]
        assert got == expected, name


def test_cone_cohomology_frozen_values():
    # The full cone: sl2/V1 and sl2/adjoint vanish, and each default H^1
    # above exceeds the cone's by dim W.
    assert [mla_cohomology_dim(sl2_v1_triple(), n, cone=True) for n in range(4)] == [0, 0, 0, 0]
    assert [mla_cohomology_dim(heis_adjoint_triple(), n, cone=True) for n in range(4)] == [1, 4, 5, 2]
    assert [mla_cohomology_dim(sl2_adjoint_triple(), n, cone=True) for n in range(4)] == [0, 0, 0, 0]
    assert [mla_cohomology_dim(a1_triple(), n, cone=True) for n in range(3)] == [1, 1, 0]


def _non_intertwining_rep() -> MorphismRep:
    g = sl2()
    return MorphismRep(MorphismLieAlgebra.identity(g), v1(g), v1(g),
                       Matrix.from_rows([[0, 1], [0, 0]]), validate=False)


def test_cone_refuses_non_intertwining_psi():
    # d_1 . d_0 = 0 on the cone needs psi rho_V(x) = rho_W(phi x) psi.
    with pytest.raises(AssertionError, match="square to zero"):
        mla_cohomology_dim(_non_intertwining_rep(), 1, cone=True)


def test_default_and_simple_paths_refuse_non_intertwining_psi():
    # The default complex is a subcomplex of the cone, so the same broken
    # psi makes its d_1 . d_0 nonzero; the simple path checks d_1 against
    # the restricted d_0, which is the whole d_0.
    broken = _non_intertwining_rep()
    with pytest.raises(AssertionError, match="square to zero"):
        mla_cohomology_dim(broken, 1)
    with pytest.raises(AssertionError, match="square to zero"):
        simple_cohomology_dim(broken, 1)


def test_mla_complex_refuses_non_intertwining_psi():
    with pytest.raises(AssertionError, match="square to zero"):
        mla_complex(_non_intertwining_rep()).verify(1)


def test_degree0_differential_builds_no_pullback(monkeypatch):
    import morphlie.cohomology as cohomology

    calls = []

    def counting_pullback(*args):
        calls.append(args)
        return pullback_rep(*args)

    monkeypatch.setattr(cohomology, "pullback_rep", counting_pullback)
    rep = _unchecked(heis_adjoint_triple())
    mla_differential(rep, 0)
    mla_differential(rep, 0, cone=True)
    assert calls == []
    mla_differential(rep, 1)
    assert len(calls) == 1


def _unchecked(rep: MorphismRep) -> MorphismRep:
    """The same triple built without its check, so it keeps no W_phi."""
    return MorphismRep(rep.base, rep.v, rep.w, rep.psi, validate=False)


def test_complex_pulls_w_back_once(monkeypatch):
    # psi is not invertible, so a table to degree 4 builds the cone, which
    # pulls W back along phi once, on degree 1, for every differential it
    # builds; the simple columns and every later complex of the same rep
    # reuse it.  A checked rep kept the W_phi of its check and pulls back
    # nothing, and a table with psi invertible never reads W_phi.
    import morphlie.cohomology as cohomology

    calls = []

    def counting_pullback(*args):
        calls.append(args)
        return pullback_rep(*args)

    monkeypatch.setattr(cohomology, "pullback_rep", counting_pullback)
    rep = _unchecked(a1_into_sl2_triple())
    cx = mla_complex(rep)
    cx.matrix(0)
    assert calls == []
    cx.table(4, simple=True)
    assert len(calls) == 1
    mla_complex(rep, cone=True).table(4)
    assert len(calls) == 1
    checked = a1_into_sl2_triple()
    kept = checked._w_phi
    mla_complex(checked).table(4, simple=True)
    assert len(calls) == 1 and checked._w_phi is kept
    fresh = heis_adjoint_triple()
    fresh._w_phi = None
    mla_complex(fresh).table(4, simple=True)
    assert len(calls) == 1 and fresh._w_phi is None


def test_a_check_keeps_the_pulled_back_module():
    # The matrices rho_W(phi e_i) that the intertwining check compared are W_phi.
    for name, rep in standard_morphism_reps():
        pulled = pullback_rep(rep.base, rep.w)
        assert rep._w_phi.action == pulled.action and rep._w_phi.algebra is rep.base.g, name
        assert _unchecked(rep)._w_phi is None, name


def test_standalone_differentials_pull_w_back_once_per_rep(monkeypatch):
    import morphlie.cohomology as cohomology

    calls = []

    def counting_pullback(*args):
        calls.append(args)
        return pullback_rep(*args)

    monkeypatch.setattr(cohomology, "pullback_rep", counting_pullback)
    rep, other = _unchecked(sl2_v1_triple()), _unchecked(sl2_v1_triple())
    for n in range(4):
        mla_differential(rep, n)
        mla_differential(rep, n, cone=True)
    assert len(calls) == 1
    mla_differential(other, 3)
    assert len(calls) == 2


def test_complex_verifies_square_zero():
    for name, rep in standard_morphism_reps():
        cx = mla_complex(rep)
        for n in range(max(rep.base.g.dim + 1, rep.base.h.dim)):
            assert (cx.matrix(n + 1) * cx.matrix(n)).is_zero(), name


def _cone_route(rep: MorphismRep, cone: bool = False) -> Complex:
    """``mla_complex`` as the cone of its chain map without a verdict: every d_n is built and ranked."""
    chain = cohomology._chain_map(rep)
    return linalg.cone(linalg.ChainMap(chain.source, chain.target, chain.f, chain.psi), not cone,
                       "morphism")


def _route_taken(cx: Complex) -> bool:
    """Whether a ranked morphism complex read its ranks off C(h, W), eliminating none of its own."""
    return not cx._bases


def _assert_routes_agree(label: str, rep: MorphismRep) -> list[list[int]]:
    """Tables of both routes to the top degree, default with --simple and full cone, agree.

    Returns the dims of the default complex and of the full cone; each ranked
    d_n through C(h, W) exactly when psi is checked invertible.
    """
    top = max(rep.base.g.dim + 1, rep.base.h.dim)
    dims = []
    for cone in (False, True):
        cx = mla_complex(rep, cone)
        rows = cx.table(top, not cone)
        assert rows == _cone_route(rep, cone).table(top, not cone), (label, cone)
        assert _route_taken(cx) == cohomology._chain_map(rep).psi_is_iso(), (label, cone)
        dims.append([row["cohomology"] for row in rows])
    return dims


def test_the_invertible_psi_route_agrees_with_the_cone_on_the_catalog():
    # Every catalog triple but a1 into sl2 (psi is 2x1) has psi invertible.
    taken = []
    for name, rep in standard_morphism_reps():
        top = max(rep.base.g.dim + 1, rep.base.h.dim)
        assert _assert_routes_agree(name, rep) == [o_mla_dims(_raw(rep), top, cone)
                                                   for cone in (False, True)], name
        if cohomology._chain_map(rep).psi_is_iso():
            taken.append(name)
    assert len(taken) == 8 and "a1-into-sl2" not in taken


def test_the_invertible_psi_route_agrees_with_the_cone_on_sampled_triples():
    # 52 of the 60 draws have psi invertible.  There the oracle is H^n(h, W),
    # plus dim W in H^1 of the default complex (o_identity_triple_dims), and
    # on the first five also o_mla_dims, whose dense ranks take ~4 s on all.
    taken = 0
    for seed in range(404, 464):
        rep = Sampler(seed).morphism_rep()
        default, full = _assert_routes_agree(f"Sampler({seed})", rep)
        if cohomology._chain_map(rep).psi_is_iso():
            taken += 1
            if taken <= 5:
                assert default == o_mla_dims(_raw(rep), len(default) - 1), seed
            h = rep.base.h
            ce = o_ce_dims(h.dim, _mk_brk(dense_table(h)), _mk_act([m.to_lists() for m in rep.w.action]),
                           rep.dim_w, len(full) - 1)
            assert default == o_identity_triple_dims(ce, rep.dim_w), seed
            assert full == ce, seed
    assert taken == 52


def test_a_singular_psi_takes_the_cone_route():
    # psi = 0 is square and intertwines, but is no isomorphism.  With phi = id
    # and V = W the cone still has the route's ranks, as -. wedge^n phi is
    # then the isomorphism; heis onto a2, first, tells them apart.
    for rep in (heis_to_a2_triple(), sl2_v1_triple(), heis_adjoint_triple()):
        zero = MorphismRep(rep.base, rep.v, rep.w, Matrix.zeros(rep.dim_w, rep.dim_v))
        top = rep.base.g.dim + 1
        assert _assert_routes_agree(f"{rep} with psi = 0", zero) == [
            o_mla_dims(_raw(zero), top, cone) for cone in (False, True)]
        assert not cohomology._chain_map(zero).psi_is_iso()


def test_unchecked_or_non_lie_data_takes_the_cone_route():
    # An unchecked rep is ranked through the cone, whose d . d check still
    # refuses a psi that does not intertwine; so is a valid triple over a
    # bracket that fails Jacobi, which the module and homomorphism checks
    # cannot see with trivial modules.
    broken = _non_intertwining_rep()
    assert not cohomology._chain_map(broken).psi_is_iso()
    with pytest.raises(AssertionError, match="morphism differential does not square to zero"):
        mla_complex(broken).table(2)
    unchecked = _unchecked(sl2_v1_triple())
    assert not cohomology._chain_map(unchecked).psi_is_iso()
    _assert_routes_agree("unchecked", unchecked)
    g = LieAlgebra.from_brackets(3, {(0, 1): [0, 1, 0], (1, 2): [1, 0, 0]})
    assert not check_jacobi(g)
    rep = MorphismRep(MorphismLieAlgebra.identity(g), v0(g), v0(g), Matrix.identity(1))
    with pytest.raises(AssertionError, match="morphism differential does not square to zero"):
        mla_complex(rep).table(3)


def test_psi_is_ranked_once_per_complex_and_only_for_a_rank(monkeypatch):
    # Whether psi . is a chain isomorphism is asked of the chain map at the
    # first rank of its cone and kept: one rank(psi) per complex, in any
    # number of tables, and none for a standalone differential.  A psi that
    # is not square, or an unchecked triple, is not ranked at all.
    from morphlie.groups import mlg_differential

    rank, ranked = linalg.rank, []
    monkeypatch.setattr(linalg, "rank", lambda m: ranked.append(m) or rank(m))
    for rep in (sl2_v1_triple(), heis_adjoint_triple(), a1_into_sl2_triple()):
        for n in range(4):
            mla_differential(rep, n)
            mla_differential(rep, n, cone=True)
        assert ranked == []
        for cone in (False, True):
            cx = mla_complex(rep, cone)
            cx.table(3, simple=True)
            cx.table(4)
            assert ranked == ([rep.psi] if rep.psi.rows == rep.psi.cols else []), (rep, cone)
            ranked.clear()
        mla_complex(_unchecked(rep)).table(3)
        assert ranked == []
    for t in (z2_identity_triple(), klein_to_z2_triple(), z4_to_z2_sign_triple()):
        for n in range(4):
            for normalized in (False, True):
                mlg_differential(t, n, normalized)
        assert ranked == []
        for normalized in (False, True):
            cx = mlg_complex(t, normalized)
            cx.table(2)
            cx.table(3)
            assert ranked == ([t.psi] if t.psi.rows == t.psi.cols else []), (t, normalized)
            ranked.clear()


def _tables_to_referee():
    """(label, complex factory, simple, top) for every table the reduced ranks are held to.

    The catalog Lie reps and ten Sampler(404) draws, default complex and full
    cone, with and without the simple columns; the catalog group modules and
    triples and ten Sampler(404) triples, full and normalized.  Every table
    goes to degree 3 but the full bar complexes, which stop at 2: the
    oracle's dense elimination of their d_3 (up to 1152x288) takes 20 s.
    """
    s = Sampler(404)
    reps = [rep for _, rep in standard_morphism_reps()] + [s.morphism_rep() for _ in range(10)]
    triples = [z2_identity_triple(), klein_to_z2_triple(), z4_to_z2_sign_triple(),
               GroupModuleTriple.identity(sign_module(FiniteGroup.cyclic(2))),
               GroupModuleTriple.identity(z3_rotation_module())]
    triples += [s.group_module_triple() for _ in range(10)]
    modules = [GroupModule.trivial(FiniteGroup.trivial(), 1),
               GroupModule.trivial(FiniteGroup.cyclic(2), 1), sign_module(FiniteGroup.cyclic(2)),
               GroupModule.trivial(FiniteGroup.cyclic(3), 1), z3_rotation_module(),
               z4_rotation_module(), GroupModule.trivial(FiniteGroup.klein_four(), 1)]
    tables = [(f"rep {k} cone={cone}", lambda rep=rep, cone=cone: mla_complex(rep, cone),
               simple, 3)
              for k, rep in enumerate(reps) for cone in (False, True) for simple in (False, True)]
    tables += [(f"triple {k} normalized={nz}", lambda t=t, nz=nz: mlg_complex(t, nz), False,
                3 if nz else 2)
               for k, t in enumerate(triples) for nz in (False, True)]
    tables += [(f"module {k} normalized={nz}", lambda m=m, nz=nz: group_complex(m, nz), False,
                3 if nz else 2)
               for k, m in enumerate(modules) for nz in (False, True)]
    return tables


def test_reduced_ranks_match_the_oracle_rank_of_each_differential():
    # A table ranks d_n on the columns outside a row basis of d_{n-1}; each
    # rank it reads must be o_rank of the whole d_n, or of s_n = d_n on the
    # kept columns.  A standalone dim_H and ranks asked from the top degree
    # down (each eliminated in full) give the same numbers.
    for label, make, simple, top in _tables_to_referee():
        cx = make()
        rows = cx.table(top, simple)
        for n in range(top + 1):
            d = cx.differential(n).to_lists()
            assert cx.rank(n) == o_rank(d), (label, n)
            if simple and n > 0:
                kept = [[row[j] for j in cx.keep(n)] for row in d]
                assert cx.rank(n, simple=True) == o_rank(kept), (label, n)
        assert [make().dim_H(n) for n in range(top + 1)] == [r["cohomology"] for r in rows], label
        backwards = make()
        assert [backwards.rank(n) for n in range(top, -1, -1)] == [r["rank"] for r in rows][::-1]


def test_sl2_adjoint_degree0_is_center():
    # H^0 of the self-action is cut out by rho(x) v = 0 for all x: the center.
    assert mla_cohomology_dim(sl2_adjoint_triple(), 0) == 0
    assert mla_cohomology_dim(heis_adjoint_triple(), 0) == 1


def test_simple_cohomology_a1_degree2():
    rep = a1_triple()
    assert simple_cohomology_dim(rep, 2) == 0
    assert simple_cohomology_dim(rep, 2) == mla_cohomology_dim(rep, 2)


def test_simple_cohomology_at_least_full():
    for name, rep in standard_morphism_reps():
        for n in range(1, rep.base.g.dim + 2):
            s = simple_cohomology_dim(rep, n)
            f = mla_cohomology_dim(rep, n)
            assert s >= f, f"{name} degree {n}"


def test_simple_cohomology_degree1_equals_full():
    # Degree-0 cochains carry no eta slot, so restricted = full coboundaries.
    for name, rep in standard_morphism_reps():
        assert simple_cohomology_dim(rep, 1) == mla_cohomology_dim(rep, 1), name


def test_simple_equals_kernel_when_lower_differential_zero():
    rep = a1_triple()  # delta^0 = 0 here
    from morphlie.linalg import rank

    d1 = mla_differential(rep, 1)
    assert simple_cohomology_dim(rep, 1) == mla_complex(rep).dim(1) - rank(d1)


def test_invariant_vectors_match_degree0_cohomology():
    for name, rep in standard_morphism_reps():
        invariants, _, _ = o_derivation_dims(_raw(rep))
        assert invariant_vectors_dim(rep) == mla_cohomology_dim(rep, 0) == invariants, name


def test_outer_derivations_match_degree1_cohomology():
    for name, rep in standard_morphism_reps():
        _, der, inner = o_derivation_dims(_raw(rep))
        assert (derivation_space_dim(rep), inner_derivation_dim(rep)) == (der, inner), name
        assert outer_derivation_dim(rep) == mla_cohomology_dim(rep, 1) == der - inner, name


def test_sl2_v1_derivation_count():
    rep = sl2_v1_triple()
    assert derivation_space_dim(rep) == 4
    assert inner_derivation_dim(rep) == 2


def test_zero_triple_is_derivation():
    for name, rep in standard_morphism_reps():
        d = Matrix.zeros(rep.dim_v, rep.base.g.dim)
        del_ = Matrix.zeros(rep.dim_w, rep.base.h.dim)
        w = [Fraction(0)] * rep.dim_w
        assert check_derivation(rep, d, del_, w).ok, name


def test_inner_triples_are_derivations():
    for name, rep in standard_morphism_reps():
        for a in range(rep.dim_v):
            v = [Fraction(1) if t == a else Fraction(0) for t in range(rep.dim_v)]
            psi_v = rep.psi.apply(v)
            d = Matrix.from_rows(
                [[rep.v.action[j].apply(v)[r] for j in range(rep.base.g.dim)]
                 for r in range(rep.dim_v)],
                cols=rep.base.g.dim,
            )
            del_ = Matrix.from_rows(
                [[rep.w.action[j].apply(psi_v)[r] for j in range(rep.base.h.dim)]
                 for r in range(rep.dim_w)],
                cols=rep.base.h.dim,
            )
            w = [Fraction(0)] * rep.dim_w
            assert check_derivation(rep, d, del_, w).ok, name


def test_a1_nonderivation_reports_third_identity():
    rep = a1_triple()
    res = check_derivation(rep, Matrix.from_rows([[1]]), Matrix.zeros(1, 1), [Fraction(7)])
    assert not res.ok
    assert "third identity" in res.detail


def test_check_derivation_names_the_one_failing_identity():
    """Each triple breaks exactly one identity, not at the first basis pair."""
    g = sl2()
    no_w = MorphismRep(MorphismLieAlgebra.identity(g), v1(g),
                       Representation.trivial(g, 0), Matrix.zeros(0, 2))
    res = check_derivation(no_w, Matrix.from_rows([[-1, -1, -1], [0, -1, 1]]),
                           Matrix.zeros(0, 3), [])
    assert (res.ok, res.detail) == (False, "first identity fails on basis pair (e2, e3)")
    no_v = MorphismRep(MorphismLieAlgebra(a1(), g, Matrix.zeros(3, 1)),
                       Representation.trivial(a1(), 0), v1(g), Matrix.zeros(2, 0))
    res = check_derivation(no_v, Matrix.zeros(0, 1),
                           Matrix.from_rows([[-1, -1, -1], [-1, -1, 1]]), [0, 0])
    assert (res.ok, res.detail) == (False, "second identity fails on basis pair (f1, f3)")
    res = check_derivation(a2_triple(), Matrix.from_rows([[0, 1]]), Matrix.zeros(1, 2), [0])
    assert (res.ok, res.detail) == (False, "third identity fails at basis vector e2")


def test_check_derivation_shape_errors():
    rep = a1_triple()
    with pytest.raises(ShapeError):
        check_derivation(rep, Matrix.zeros(2, 1), Matrix.zeros(1, 1), [Fraction(0)])


_small = st.integers(min_value=-2, max_value=2)


@settings(max_examples=30, deadline=None)
@given(st.lists(_small, min_size=6, max_size=6),
       st.lists(_small, min_size=6, max_size=6),
       st.lists(_small, min_size=2, max_size=2))
def test_derivation_routes_agree_on_random_triples(flat_d, flat_del, w):
    """The verdict and report agree with the oracle's identity-by-identity residuals."""
    rep = sl2_v1_triple()
    d = [flat_d[0:3], flat_d[3:6]]
    del_ = [flat_del[0:3], flat_del[3:6]]
    res = check_derivation(rep, Matrix.from_rows(d), Matrix.from_rows(del_), w)
    expected = o_derivation_failure(_raw(rep), d, del_, w)
    assert (res.ok, res.detail) == (expected is None, expected)


def test_vanishing_implication_away_from_degree_one():
    """When all three classical groups vanish, so does the morphism group.

    The implication is asserted at degree 0 and degrees >= 2; the degree-1
    analogue fails (the sl2/V1 triple is a counterexample, with H^1 = 2).
    The full cone satisfies it in every degree (acceptance check 4).
    """
    for name, rep in standard_morphism_reps():
        base = rep.base
        w_phi = pullback_rep(base, rep.w)
        top = max(base.g.dim + 1, base.h.dim)
        for n in [0] + list(range(2, top + 1)):
            hyp = (
                ce_cohomology_dim(rep.v, n) == 0
                and ce_cohomology_dim(rep.w, n) == 0
                and (n == 0 or ce_cohomology_dim(w_phi, n - 1) == 0)
            )
            if hyp:
                assert mla_cohomology_dim(rep, n) == 0, f"{name} degree {n}"


def test_sl2_v1_is_degree_one_counterexample_to_vanishing():
    rep = sl2_v1_triple()
    w_phi = pullback_rep(rep.base, rep.w)
    assert ce_cohomology_dim(rep.v, 1) == 0
    assert ce_cohomology_dim(rep.w, 1) == 0
    assert ce_cohomology_dim(w_phi, 0) == 0
    assert mla_cohomology_dim(rep, 1) == 2


def test_mcochain_roundtrip():
    rep = sl2_v1_triple()
    for n in range(4):
        dim = mla_complex(rep).dim(n)
        flat = [Fraction(i - 3, 2) for i in range(dim)]
        c = MCochain.from_vector(rep, n, flat)
        assert c.to_vector() == flat


def test_mcochain_degree0_rules():
    rep = a1_triple()
    c = MCochain(rep, 0, v=[Fraction(5)])
    assert c.to_vector() == [Fraction(5)]
    with pytest.raises(ShapeError):
        MCochain(rep, 0, theta=Matrix.zeros(1, 1), v=[Fraction(1)])
    with pytest.raises(ShapeError):
        MCochain(rep, 1, v=[Fraction(1)])
    with pytest.raises(ShapeError):
        MCochain(rep, 0, v=[Fraction(1), Fraction(2)])


def test_mcochain_shape_validation():
    rep = sl2_v1_triple()
    with pytest.raises(ShapeError):
        MCochain(rep, 1, theta=Matrix.zeros(3, 3))  # theta must be 2x3


def test_apply_differential_shifts_degree():
    rep = sl2_v1_triple()
    c = MCochain(rep, 0, v=[Fraction(1), Fraction(0)])
    dc = c.coboundary()
    assert dc.degree == 1
    ddc = dc.coboundary()
    assert all(x == 0 for x in ddc.to_vector())


@pytest.mark.parametrize("bad, error", [("0.5", ValueError), ("1e3", ValueError),
                                        ("1_000", ValueError), (" 1/2 ", ValueError),
                                        (True, TypeError), (0.5, TypeError)])
def test_mcochain_reads_v_as_matrices_read_scalars(bad, error):
    with pytest.raises(error):
        Matrix.from_rows([[bad]])
    with pytest.raises(error):
        MCochain(a1_triple(), 0, v=[bad])
    assert MCochain(a1_triple(), 0, v=["-3/4"]).v == [Fraction(-3, 4)]


def test_mcochain_coboundary_sum_and_first_nonzero_follow_the_flat_layout():
    rep = sl2_v1_triple()
    base = rep.base
    for n in range(4):
        cx, d = mla_complex(rep), mla_differential(rep, n)
        flat = [Fraction(k % 5 - 2, k % 3 + 1) for k in range(cx.dim(n))]
        c, e = MCochain.from_vector(rep, n, flat), MCochain.from_vector(rep, n, flat[::-1])
        assert c.coboundary() == MCochain.from_vector(rep, n + 1, d.apply(flat))
        assert (c + e).to_vector() == [a + b for a, b in zip(flat, flat[::-1])]
        assert (c - e).to_vector() == [a - b for a, b in zip(flat, flat[::-1])]
        assert (c - c).first_nonzero() is None
        # The unit cochain at coordinate k names its block and the basis
        # tuple of its column: blocks (theta, gamma, eta), column-major.
        blocks = [("v", rep.dim_v, 0, 0)] if n == 0 else [
            ("theta", rep.dim_v, base.g.dim, n), ("gamma", rep.dim_w, base.h.dim, n),
            ("eta", rep.dim_w, base.g.dim, n - 1)]
        k = 0
        for name, rows, dim, arity in blocks:
            tuples = list(combinations(range(dim), arity))
            for t in range(len(tuples) * rows):
                unit = MCochain.from_vector(rep, n, [int(j == k) for j in range(len(flat))])
                assert unit.first_nonzero() == (name, tuples[t // rows]), (n, k)
                k += 1
        assert k == len(flat)
    with pytest.raises(ShapeError):
        MCochain(rep, 1) + MCochain(rep, 2)


def test_induced_rep_identity_is_adjoint():
    m = MorphismLieAlgebra.identity(sl2())
    rep = homomorphism_induced_rep(m, m, Matrix.identity(3), Matrix.identity(3))
    adj = sl2().adjoint_rep()
    assert rep.v.action == adj.action
    assert rep.w.action == adj.action
    assert rep.psi == Matrix.identity(3)


def test_induced_rep_zero_maps_are_trivial():
    src = MorphismLieAlgebra.identity(a2())
    tgt = MorphismLieAlgebra.identity(sl2())
    rep = homomorphism_induced_rep(src, tgt, Matrix.zeros(3, 2), Matrix.zeros(3, 2))
    assert all(mat.is_zero() for mat in rep.v.action)
    assert all(mat.is_zero() for mat in rep.w.action)
    assert rep.psi == Matrix.identity(3)


def test_induced_rep_rejects_non_homomorphism():
    m = MorphismLieAlgebra.identity(sl2())
    with pytest.raises(NotAHomomorphism):
        homomorphism_induced_rep(m, m, Matrix.identity(3).scale(2), Matrix.identity(3))


def test_infinitesimal_deformation_zero_and_coboundary():
    m = MorphismLieAlgebra.identity(sl2())
    rep = homomorphism_induced_rep(m, m, Matrix.identity(3), Matrix.identity(3))
    zero = Matrix.zeros(3, 3)
    assert check_infinitesimal_deformation(rep, zero, zero)
    # Coboundary of a degree-0 element: alpha1 = rho_V(.) x', beta1 = rho_W(.) psi x'.
    x_prime = [Fraction(1), Fraction(2), Fraction(-1)]
    psi_x = rep.psi.apply(x_prime)
    alpha1 = Matrix.from_rows(
        [[rep.v.action[j].apply(x_prime)[r] for j in range(3)] for r in range(3)]
    )
    beta1 = Matrix.from_rows(
        [[rep.w.action[j].apply(psi_x)[r] for j in range(3)] for r in range(3)]
    )
    assert check_infinitesimal_deformation(rep, alpha1, beta1)


def test_infinitesimal_deformation_a1_example():
    m = MorphismLieAlgebra.identity(a1())
    rep = homomorphism_induced_rep(m, m, Matrix.identity(1), Matrix.identity(1))
    assert not check_infinitesimal_deformation(
        rep, Matrix.from_rows([[1]]), Matrix.from_rows([[2]])
    )


def test_quotient_full_subalgebra_collapses():
    g = sl2()
    m = MorphismLieAlgebra.identity(g)
    qrep = quotient_morphism_rep(m, Matrix.identity(3), Matrix.identity(3))
    assert qrep.dim_v == 0 and qrep.dim_w == 0
    assert qrep.base.g.dim == 3
    for n in range(6):
        assert mla_complex(qrep).dim(n) == 0


def test_quotient_zero_subalgebra_is_identity():
    g = heis()
    m = MorphismLieAlgebra.identity(g)
    qrep = quotient_morphism_rep(m, Matrix.zeros(3, 0), Matrix.zeros(3, 0))
    assert qrep.base.g.dim == 0
    assert qrep.dim_v == 3 and qrep.dim_w == 3
    assert qrep.psi == Matrix.identity(3)
    assert qrep.v.action == []


def test_quotient_heis_center():
    g = heis()
    m = MorphismLieAlgebra.identity(g)
    center = Matrix.from_rows([[0], [0], [1]])
    qrep = quotient_morphism_rep(m, center, center)
    assert qrep.base.g.dim == 1
    assert qrep.dim_v == 2 and qrep.dim_w == 2
    assert all(mat.is_zero() for mat in qrep.v.action)
    assert all(mat.is_zero() for mat in qrep.w.action)
    assert qrep.psi == Matrix.identity(2)


def test_quotient_rejects_non_subalgebra():
    g = sl2()
    m = MorphismLieAlgebra.identity(g)
    ef_span = Matrix.from_rows([[1, 0], [0, 1], [0, 0]])
    with pytest.raises(NotASubalgebra):
        quotient_morphism_rep(m, ef_span, Matrix.identity(3))


@pytest.mark.parametrize("algebra", [a1, a2, heis, sl2])
def test_subalgebra_structure_in_a_rational_basis(algebra):
    """P c_ij = [P e_i, P e_j] for every ordered pair, with P unitriangular."""
    g = algebra()
    basis = Matrix.from_rows([[1 if i == j else Fraction(i + j + 1, j + 1) if i < j else 0
                               for j in range(g.dim)] for i in range(g.dim)])
    table = dense_table(
        quotient_morphism_rep(MorphismLieAlgebra.identity(g), basis, basis).base.g)
    for i in range(g.dim):
        assert not any(table[i][i])
        for j in range(g.dim):
            assert basis.apply(table[i][j]) == g.bracket(basis.col(i), basis.col(j))


def test_subalgebra_structure_pinned_on_sl2():
    m = MorphismLieAlgebra.identity(sl2())
    full = quotient_morphism_rep(m, Matrix.identity(3), Matrix.identity(3))
    assert dense_table(full.base.g) == dense_table(sl2())
    # The Borel subalgebra span(e, h): [e, h] = -2e.
    borel = Matrix.from_rows([[1, 0], [0, 0], [0, 1]])
    sub = dense_table(quotient_morphism_rep(m, borel, borel).base.g)
    assert sub == [[[0, 0], [-2, 0]], [[2, 0], [0, 0]]]


def test_subalgebra_structure_solves_once_per_side(monkeypatch):
    """p = q = sl2: one solve_columns over the three brackets i < j per side."""
    import morphlie.cohomology as cohomology

    calls = []
    solve_columns = cohomology.solve_columns
    monkeypatch.setattr(cohomology, "solve_columns",
                        lambda m, b: calls.append(b.cols) or solve_columns(m, b))
    quotient_morphism_rep(MorphismLieAlgebra.identity(sl2()),
                          Matrix.identity(3), Matrix.identity(3))
    # p's brackets, q's brackets, then phi(p) inside q.
    assert calls == [3, 3, 3]


def test_non_subalgebra_names_the_first_pair():
    m = MorphismLieAlgebra.identity(sl2())
    ef_span = Matrix.from_rows([[1, 0], [0, 1], [0, 0]])
    with pytest.raises(NotASubalgebra, match="^bracket of basis columns 1 and 2 leaves the span$"):
        quotient_morphism_rep(m, ef_span, Matrix.identity(3))
    # sl2 + a line on (e, f, h, z); p = span(e, z, f): [e, z] = 0 stays, [e, f] = h leaves.
    g = LieAlgebra.from_brackets(4, {(0, 1): [0, 0, 1, 0], (2, 0): [2, 0, 0, 0],
                                     (2, 1): [0, -2, 0, 0]})
    p = Matrix.from_rows([[1, 0, 0], [0, 0, 1], [0, 0, 0], [0, 1, 0]])
    with pytest.raises(NotASubalgebra, match="^bracket of basis columns 1 and 3 leaves the span$"):
        quotient_morphism_rep(MorphismLieAlgebra.identity(g), p, Matrix.identity(4))


def test_quotient_rejects_unpreserved_subalgebra():
    g = heis()
    m = MorphismLieAlgebra.identity(g)
    p = Matrix.from_rows([[1], [0], [0]])
    q = Matrix.from_rows([[0], [1], [0]])
    with pytest.raises(NotPreserved):
        quotient_morphism_rep(m, p, q)


def test_subalgebra_deformation_cocycle_checks():
    g = heis()
    m = MorphismLieAlgebra.identity(g)
    center = Matrix.from_rows([[0], [0], [1]])
    qrep = quotient_morphism_rep(m, center, center)
    zero_p = Matrix.zeros(2, 1)
    assert check_subalgebra_deformation_cocycle(qrep, zero_p, zero_p)
    # pdot(e3) = e1 mod p, qdot = 0: the eta-block equals e1 mod q, nonzero.
    pdot = Matrix.from_rows([[1], [0]])
    assert not check_subalgebra_deformation_cocycle(qrep, pdot, zero_p)


def test_subalgebra_deformation_coboundaries_are_cocycles():
    g = heis()
    m = MorphismLieAlgebra.identity(g)
    center = Matrix.from_rows([[0], [0], [1]])
    qrep = quotient_morphism_rep(m, center, center)
    for a in range(qrep.dim_v):
        v = [Fraction(1) if t == a else Fraction(0) for t in range(qrep.dim_v)]
        psi_v = qrep.psi.apply(v)
        pdot = Matrix.from_rows(
            [[qrep.v.action[j].apply(v)[r] for j in range(qrep.base.g.dim)]
             for r in range(qrep.dim_v)],
            cols=qrep.base.g.dim,
        )
        qdot = Matrix.from_rows(
            [[qrep.w.action[j].apply(psi_v)[r] for j in range(qrep.base.h.dim)]
             for r in range(qrep.dim_w)],
            cols=qrep.base.h.dim,
        )
        assert check_subalgebra_deformation_cocycle(qrep, pdot, qdot)


def test_subalgebra_deformation_shape_error():
    g = heis()
    m = MorphismLieAlgebra.identity(g)
    center = Matrix.from_rows([[0], [0], [1]])
    qrep = quotient_morphism_rep(m, center, center)
    with pytest.raises(ShapeError):
        check_subalgebra_deformation_cocycle(qrep, Matrix.zeros(3, 1), Matrix.zeros(2, 1))
