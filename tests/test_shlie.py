"""Tests for 2-term sh Lie algebras, morphisms, skeletal objects, twists."""

import itertools
import random
from fractions import Fraction
from math import comb

import pytest

from morphlie.algebras import LieAlgebra, MorphismLieAlgebra, MorphismRep, Representation
from morphlie.cecomplex import ce_differential
from morphlie.cohomology import MCochain, mla_differential
from morphlie.errors import NotACocycle, ShapeError, ValidationError
from morphlie.fixtures import a2, heis, sl2, sl2_v1_triple, v1
from morphlie.linalg import Matrix, kernel_basis
from morphlie.shlie import (
    ShMorphism,
    SkeletalMorphismSh,
    TwoTermSh,
    check_sh_morphism,
    check_two_term_sh,
    evaluate_alternating,
    skeletal_to_triple,
    triple_to_skeletal,
    twist_equivalence,
)

from .oracles import o_mla_matrix


def _skeletal_from(rep: MorphismRep, flat) -> SkeletalMorphismSh:
    return triple_to_skeletal(rep.base, rep, MCochain.from_vector(rep, 3, flat))


def _closed_degree3(rep: MorphismRep) -> list[list[Fraction]]:
    return [col for col in _cols(kernel_basis(mla_differential(rep, 3)))]


def _cols(m: Matrix) -> list[list[Fraction]]:
    return [m.col(j) for j in range(m.cols)]


class TestEvaluateAlternating:
    def test_degree_one_is_matrix_apply(self):
        coeffs = Matrix.from_rows([[1, 2, 3], [4, 5, 6]])
        vec = [Fraction(1), Fraction(0), Fraction(-2)]
        assert evaluate_alternating(coeffs, 3, 1, [vec]) == coeffs.apply(vec)

    def test_skew_in_arguments(self):
        coeffs = Matrix.from_rows([[1, 2, 7], [0, -3, 5]])
        u = [Fraction(1), Fraction(2), Fraction(3)]
        v = [Fraction(-1), Fraction(4), Fraction(0)]
        uv = evaluate_alternating(coeffs, 3, 2, [u, v])
        vu = evaluate_alternating(coeffs, 3, 2, [v, u])
        assert uv == [-x for x in vu]
        assert evaluate_alternating(coeffs, 3, 2, [u, u]) == [Fraction(0)] * 2

    def test_basis_tuple_recovers_column(self):
        coeffs = Matrix.from_rows([[1, 2, 7], [0, -3, 5]])
        e0 = [Fraction(1), Fraction(0), Fraction(0)]
        e2 = [Fraction(0), Fraction(0), Fraction(1)]
        assert evaluate_alternating(coeffs, 3, 2, [e0, e2]) == coeffs.col(1)

    def test_wrong_argument_count(self):
        with pytest.raises(ShapeError):
            evaluate_alternating(Matrix.zeros(1, 3), 3, 2, [[Fraction(1)] * 3])

    def test_short_argument_rejected(self):
        with pytest.raises(ShapeError):
            evaluate_alternating(Matrix.zeros(1, 3), 3, 2, [[1, 0], [0, 1, 0]])

    def test_long_argument_rejected(self):
        with pytest.raises(ShapeError):
            evaluate_alternating(Matrix.from_rows([[1, 2, 3]]), 3, 2,
                                 [[1, 0, 0, 9], [0, 1, 0, 5]])

    def test_coefficient_columns_must_match_tuples(self):
        with pytest.raises(ShapeError):
            evaluate_alternating(Matrix.zeros(2, 4), 3, 2, [[1, 0, 0], [0, 1, 0]])

    def test_matches_leibniz_expansion(self):
        rng = random.Random(20261018)
        checked = 0
        for k in (1, 2, 3):
            for dim_in in range(3, 7):
                for _ in range(6):
                    coeffs = _random_coeffs(rng, 2, comb(dim_in, k))
                    vectors = [_random_vector(rng, dim_in) for _ in range(k)]
                    if k > 1 and rng.random() < 0.3:
                        vectors[-1] = list(vectors[0])
                    if rng.random() < 0.2:
                        vectors[rng.randrange(k)] = [Fraction(0)] * dim_in
                    got = evaluate_alternating(coeffs, dim_in, k, vectors)
                    assert got == _leibniz_reference(coeffs.to_lists(), dim_in, k, vectors)
                    checked += any(got)
        assert checked > 30

    def test_leibniz_on_empty_basis(self):
        for dim_in, k in ((0, 1), (1, 2), (2, 3)):
            coeffs = Matrix.zeros(2, 0)
            vectors = [[Fraction(1)] * dim_in for _ in range(k)]
            got = evaluate_alternating(coeffs, dim_in, k, vectors)
            assert got == _leibniz_reference([[], []], dim_in, k, vectors) == [0, 0]


def _random_vector(rng: random.Random, dim: int) -> list[Fraction]:
    return [Fraction(rng.randint(-5, 5), rng.randint(1, 4)) if rng.random() < 0.7
            else Fraction(0) for _ in range(dim)]


def _random_coeffs(rng: random.Random, rows: int, cols: int) -> Matrix:
    return Matrix.from_rows([_random_vector(rng, cols) for _ in range(rows)], cols=cols)


def _leibniz_reference(coeffs, dim_in, k, vectors):
    """sum over increasing tuples T of coeffs[:, T] * det(vectors on rows T),
    the determinant summed over permutations with plain lists."""
    out = [Fraction(0)] * len(coeffs)
    for t_idx, tup in enumerate(itertools.combinations(range(dim_in), k)):
        det = Fraction(0)
        for perm in itertools.permutations(range(k)):
            inversions = sum(1 for a in range(k) for b in range(a + 1, k)
                             if perm[a] > perm[b])
            term = Fraction(-1 if inversions % 2 else 1)
            for col in range(k):
                term *= vectors[col][tup[perm[col]]]
            det += term
        for r, row in enumerate(coeffs):
            out[r] += row[t_idx] * det
    return out


class TestCheckTwoTermSh:
    def test_lie_algebra_as_sh(self):
        for g in (sl2(), heis(), a2()):
            assert check_two_term_sh(TwoTermSh.from_lie_algebra(g))

    def test_broken_jacobi_fails_axiom_iii(self):
        bad = LieAlgebra.from_brackets(
            3, {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0]}
        )
        res = check_two_term_sh(TwoTermSh.from_lie_algebra(bad))
        assert not res
        assert "axiom (iii)" in res.detail
        assert "(e1, e2, e3)" in res.detail

    def test_identity_complex_is_valid(self):
        for g in (sl2(), heis()):
            assert check_two_term_sh(TwoTermSh.identity_complex(g))

    def test_axiom_i_violation(self):
        g = sl2()
        t = TwoTermSh(g, [Matrix.zeros(3, 3)] * 3, Matrix.identity(3))
        res = check_two_term_sh(t)
        assert not res
        assert "axiom (i)" in res.detail
        assert "(e1, p2)" in res.detail

    def test_axiom_ii_violation(self):
        g = LieAlgebra.abelian(1)
        action = Matrix.from_rows([[0, 0], [1, 0]])
        d = Matrix.from_rows([[1, 0]])
        res = check_two_term_sh(TwoTermSh(g, [action], d))
        assert not res
        assert "axiom (ii)" in res.detail
        assert "(p1, p1)" in res.detail

    def test_axiom_iv_and_v_on_abelian_line_module(self):
        g = LieAlgebra.abelian(4)
        weights = [1, 0, 0, 0]
        action = [Matrix.from_rows([[w]]) for w in weights]
        d = Matrix.zeros(4, 1)

        good = Matrix.from_rows([[1, 0, 0, 0]])  # supported on (e1,e2,e3)
        assert check_two_term_sh(TwoTermSh(g, action, d, l3=good))

        bad = Matrix.from_rows([[0, 0, 0, 1]])  # supported on (e2,e3,e4)
        res = check_two_term_sh(TwoTermSh(g, action, d, l3=bad))
        assert not res
        assert "axiom (v)" in res.detail
        assert "(e1, e2, e3, e4)" in res.detail

    def test_sl2_v1_ce_cocycle_passes_non_cocycle_fails(self):
        g = sl2()
        rep = v1(g)
        d = Matrix.zeros(3, 2)
        # Every degree-3 CE cochain of a 3-dim algebra is closed; axiom (v)
        # has no quadruples to check, so any l3 passes with these actions.
        any_l3 = Matrix.from_rows([[3], [-2]])
        assert check_two_term_sh(TwoTermSh(g, list(rep.action), d, l3=any_l3))

    def test_shape_errors(self):
        g = sl2()
        with pytest.raises(ShapeError):
            TwoTermSh(g, [Matrix.zeros(1, 1)] * 2, Matrix.zeros(3, 1))
        with pytest.raises(ShapeError):
            TwoTermSh(g, [Matrix.zeros(1, 1)] * 3, Matrix.zeros(2, 1))
        with pytest.raises(ShapeError):
            TwoTermSh(g, [Matrix.zeros(1, 1)] * 3, Matrix.zeros(3, 1),
                      l3=Matrix.zeros(2, 1))


class TestCheckShMorphism:
    def test_identity_morphism(self):
        for t in (TwoTermSh.from_lie_algebra(sl2()), TwoTermSh.identity_complex(heis())):
            assert check_sh_morphism(t, t, ShMorphism.identity(t))

    def test_zero_morphism(self):
        src = TwoTermSh.from_lie_algebra(sl2())
        dst = TwoTermSh.from_lie_algebra(heis())
        zero = ShMorphism(Matrix.zeros(3, 3), Matrix.zeros(0, 0), Matrix.zeros(0, 3))
        assert check_sh_morphism(src, dst, zero)

    def test_scaling_breaks_condition_ii(self):
        t = TwoTermSh.from_lie_algebra(sl2())
        twice = ShMorphism(Matrix.identity(3).scale(2), Matrix.zeros(0, 0),
                           Matrix.zeros(0, 3))
        res = check_sh_morphism(t, t, twice)
        assert not res
        assert "condition (ii)" in res.detail

    def test_mismatched_chain_map_fails_condition_i(self):
        t = TwoTermSh.identity_complex(sl2())
        m = ShMorphism(Matrix.identity(3), Matrix.identity(3).scale(2),
                       Matrix.zeros(3, 3))
        res = check_sh_morphism(t, t, m)
        assert not res
        assert "condition (i)" in res.detail

    def test_condition_iv_is_the_pullback_differential(self):
        """With d = 0, phi0 = phi1 = id, l3 = 0, condition (iv) says the
        phi2 block is a CE 2-cocycle of the coefficient representation."""
        g = sl2()
        rep = v1(g)
        t = TwoTermSh(g, list(rep.action), Matrix.zeros(3, 2))
        delta1 = ce_differential(rep, 1)
        delta2 = ce_differential(rep, 2)
        broken = next(
            _unflatten(col, 2, 3)
            for col in _cols(Matrix.identity(6)) if any(delta2.apply(col))
        )
        closed = next(
            _unflatten(col, 2, 3) for col in _cols(delta1) if any(col)
        )

        good = ShMorphism(Matrix.identity(3), Matrix.identity(2), closed)
        assert check_sh_morphism(t, t, good)
        bad = ShMorphism(Matrix.identity(3), Matrix.identity(2), broken)
        res = check_sh_morphism(t, t, bad)
        assert not res
        assert "condition (iv)" in res.detail

    def test_shape_errors(self):
        t = TwoTermSh.from_lie_algebra(sl2())
        with pytest.raises(ShapeError):
            check_sh_morphism(t, t, ShMorphism(Matrix.identity(2), Matrix.zeros(0, 0),
                                               Matrix.zeros(0, 3)))
        with pytest.raises(ShapeError):
            check_sh_morphism(t, t, ShMorphism(Matrix.identity(3), Matrix.zeros(1, 0),
                                               Matrix.zeros(0, 3)))
        with pytest.raises(ShapeError):
            check_sh_morphism(t, t, ShMorphism(Matrix.identity(3), Matrix.zeros(0, 0),
                                               Matrix.zeros(0, 2)))


def _unflatten(flat, dim_out: int, dim_in_choose: int) -> Matrix:
    """Reshape a CE flat vector (tuple-major, coord-minor) to a coefficient array."""
    cols = len(flat) // dim_out
    return Matrix.from_rows(
        [[flat[t * dim_out + r] for t in range(cols)] for r in range(dim_out)],
        cols=cols,
    )


class TestSkeletal:
    def test_nonzero_differential_rejected(self):
        t = TwoTermSh.identity_complex(sl2())
        with pytest.raises(ValidationError):
            SkeletalMorphismSh(t, t, ShMorphism.identity(t))

    def test_zero_cocycle_round_trip(self):
        rep = sl2_v1_triple()
        zero = MCochain(rep, 3)
        s = triple_to_skeletal(rep.base, rep, zero)
        base2, rep2, c2 = skeletal_to_triple(s)
        assert base2.phi == rep.base.phi
        assert rep2.psi == rep.psi
        assert [m for m in rep2.v.action] == list(rep.v.action)
        assert c2.to_vector() == zero.to_vector()

    def test_kernel_cocycles_round_trip(self):
        rep = sl2_v1_triple()
        flats = _closed_degree3(rep)
        assert flats, "expected closed degree-3 cochains on the sl2/V1 fixture"
        for flat in flats:
            s = _skeletal_from(rep, flat)
            _, rep2, c2 = skeletal_to_triple(s)
            assert c2.to_vector() == flat
            assert rep2.base.g.c == rep.base.g.c
            assert rep2.base.h.c == rep.base.h.c

    def test_non_cocycle_rejected(self):
        rep = sl2_v1_triple()
        delta = mla_differential(rep, 3)
        flat = next(
            col for col in _cols(Matrix.identity(delta.cols))
            if any(delta.apply(col))
        )
        with pytest.raises(NotACocycle):
            _skeletal_from(rep, flat)

    def test_abelian_a2_has_no_degree3_data(self):
        g = a2()
        rep = MorphismRep(
            MorphismLieAlgebra.identity(g),
            Representation.trivial(g, 1),
            Representation.trivial(g, 1),
            Matrix.identity(1),
        )
        s = triple_to_skeletal(rep.base, rep, MCochain(rep, 3))
        _, _, c = skeletal_to_triple(s)
        assert c.theta.cols == 0 and c.gamma.cols == 0
        assert c.eta.cols == 1 and c.eta.is_zero()

    def test_wrong_degree_rejected(self):
        rep = sl2_v1_triple()
        with pytest.raises(ShapeError):
            triple_to_skeletal(rep.base, rep, MCochain(rep, 2))

    def test_differential_matches_oracle_on_extraction_rep(self):
        rep = sl2_v1_triple()
        ours = mla_differential(rep, 2)
        assert ours == Matrix.from_rows(o_mla_matrix(_raw(rep), 2), cols=ours.cols)


def _raw(rep: MorphismRep):
    base = rep.base
    return {
        "dim_g": base.g.dim, "c_g": base.g.c,
        "dim_h": base.h.dim, "c_h": base.h.c,
        "dim_v": rep.dim_v, "act_v": [m.to_lists() for m in rep.v.action],
        "dim_w": rep.dim_w, "act_w": [m.to_lists() for m in rep.w.action],
        "phi": base.phi.to_lists(), "psi": rep.psi.to_lists(),
    }


class TestTwist:
    def _sl2_skeletal(self):
        rep = sl2_v1_triple()
        flat = _closed_degree3(rep)[0]
        return rep, _skeletal_from(rep, flat)

    def test_zero_twist_is_identity(self):
        rep, s = self._sl2_skeletal()
        t = twist_equivalence(
            s, Matrix.zeros(2, 3), Matrix.zeros(2, 3), Matrix.zeros(2, 3)
        )
        assert t.source.l3 == s.source.l3
        assert t.target.l3 == s.target.l3
        assert t.morphism.phi2 == s.morphism.phi2

    def test_difference_is_the_coboundary(self):
        rep, s = self._sl2_skeletal()
        sigma = Matrix.from_rows([[1, 0, -2], [Fraction(1, 2), 3, 0]])
        sigma_p = Matrix.from_rows([[0, 5, 1], [-1, 0, Fraction(2, 3)]])
        phi = Matrix.from_rows([[2, -1, 0], [0, 1, 4]])
        twisted = twist_equivalence(s, sigma, sigma_p, phi)
        _, _, before = skeletal_to_triple(s)
        _, _, after = skeletal_to_triple(twisted)
        data = MCochain(rep, 2, theta=sigma, gamma=sigma_p, eta=phi)
        boundary = mla_differential(rep, 2).apply(data.to_vector())
        diff = [a - b for a, b in zip(after.to_vector(), before.to_vector())]
        assert diff == boundary

    def test_coboundary_cocycle_twists_to_zero(self):
        rep = sl2_v1_triple()
        sigma = Matrix.from_rows([[0, 1, 0], [2, 0, -1]])
        sigma_p = Matrix.from_rows([[1, 1, 0], [0, 0, 3]])
        phi = Matrix.from_rows([[0, 2, 0], [-1, 0, 1]])
        data = MCochain(rep, 2, theta=sigma, gamma=sigma_p, eta=phi)
        flat = mla_differential(rep, 2).apply(data.to_vector())
        s = _skeletal_from(rep, flat)
        undone = twist_equivalence(s, -sigma, -sigma_p, -phi)
        assert undone.source.l3.is_zero()
        assert undone.target.l3.is_zero()
        assert undone.morphism.phi2.is_zero()

    def test_twist_then_negate_recovers_abelian(self):
        g = a2()
        rep = MorphismRep(
            MorphismLieAlgebra.identity(g),
            Representation.trivial(g, 2),
            Representation.trivial(g, 2),
            Matrix.identity(2),
        )
        s = triple_to_skeletal(rep.base, rep, MCochain(rep, 3))
        sigma = Matrix.from_rows([[4], [-1]])
        sigma_p = Matrix.from_rows([[0], [7]])
        phi = Matrix.from_rows([[1, 2], [3, 5]])
        there = twist_equivalence(s, sigma, sigma_p, phi)
        back = twist_equivalence(there, -sigma, -sigma_p, -phi)
        assert back.source.l3 == s.source.l3
        assert back.target.l3 == s.target.l3
        assert back.morphism.phi2 == s.morphism.phi2

    def test_twist_then_negate_recovers_sl2(self):
        """The twist terms are linear in the data, so negation undoes them
        even with nonabelian brackets."""
        rep, s = self._sl2_skeletal()
        sigma = Matrix.from_rows([[1, 2, 3], [0, -1, 0]])
        sigma_p = Matrix.from_rows([[0, 0, 1], [5, 0, 0]])
        phi = Matrix.from_rows([[1, 0, 0], [0, 0, -2]])
        back = twist_equivalence(
            twist_equivalence(s, sigma, sigma_p, phi),
            -sigma, -sigma_p, -phi,
        )
        assert back.source.l3 == s.source.l3
        assert back.target.l3 == s.target.l3
        assert back.morphism.phi2 == s.morphism.phi2

    def test_shape_errors(self):
        _, s = self._sl2_skeletal()
        good = Matrix.zeros(2, 3)
        with pytest.raises(ShapeError):
            twist_equivalence(s, Matrix.zeros(2, 2), good, good)
        with pytest.raises(ShapeError):
            twist_equivalence(s, good, Matrix.zeros(1, 3), good)
        with pytest.raises(ShapeError):
            twist_equivalence(s, good, good, Matrix.zeros(2, 2))
