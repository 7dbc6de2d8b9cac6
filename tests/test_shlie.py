"""Tests for 2-term sh Lie algebras, morphisms, skeletal objects, twists."""

import itertools
import random
from fractions import Fraction

import pytest

from morphlie.algebras import (
    LieAlgebra,
    MorphismLieAlgebra,
    MorphismRep,
    Representation,
    check_jacobi,
    check_morphism_rep,
)
from morphlie.cecomplex import ce_differential
from morphlie.cohomology import MCochain, mla_differential
from morphlie.errors import NotACocycle, ShapeError, ValidationError
from morphlie.fixtures import a2, heis, sl2, sl2_v1_triple, standard_morphism_reps, v1
from morphlie.linalg import Matrix, kernel_basis
from morphlie.sampling import Sampler
from morphlie.shlie import (
    ShMorphism,
    SkeletalMorphismSh,
    TwoTermSh,
    check_sh_morphism,
    check_two_term_sh,
    skeletal_to_triple,
    triple_to_skeletal,
    twist_equivalence,
)

from .oracles import (
    o_hom_failure,
    o_mla_matrix,
    o_rep_failure,
    o_sh_failure,
    o_sh_morphism_failure,
)
from .test_cohomology import _raw


def _skeletal_from(rep: MorphismRep, flat) -> SkeletalMorphismSh:
    return triple_to_skeletal(rep.base, rep, MCochain.from_vector(rep, 3, flat))


def _closed_degree3(rep: MorphismRep) -> list[list[Fraction]]:
    return [col for col in _cols(kernel_basis(mla_differential(rep, 3)))]


def _cols(m: Matrix) -> list[list[Fraction]]:
    return [m.col(j) for j in range(m.cols)]


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

    def test_identity_complex_of_a_non_lie_bracket(self):
        # The action is the unchecked ad list, so a bracket without Jacobi
        # still builds, and its Jacobiator shows up in axiom (iii).
        bad = LieAlgebra.from_brackets(3, {(0, 1): [0, 0, 1], (0, 2): [1, 0, 0]})
        res = check_two_term_sh(TwoTermSh.identity_complex(bad))
        assert not res
        assert res.detail == "axiom (iii) fails at (e1, e2, e3)"

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

    def test_construction_accepts_exactly_the_closed_cochains(self):
        # Source axiom (v), target axiom (v) and morphism condition (iv) are
        # the three block rows of d_3, so skeletal_to_triple checks nothing.
        sampler = Sampler(404)
        seen = set()
        for name, rep in standard_morphism_reps():
            delta = mla_differential(rep, 3)
            flats = _cols(Matrix.identity(delta.cols))
            flats += [[sampler.fraction() for _ in range(delta.cols)] for _ in range(2)]
            flats += [sampler.closed_cochain(rep, 3).to_vector() for _ in range(2)]
            for flat in flats:
                closed = not any(delta.apply(flat))
                c = MCochain.from_vector(rep, 3, flat)
                m = rep.base
                source = TwoTermSh(m.g, list(rep.v.action),
                                   Matrix.zeros(m.g.dim, rep.dim_v), l3=c.theta)
                target = TwoTermSh(m.h, list(rep.w.action),
                                   Matrix.zeros(m.h.dim, rep.dim_w), l3=c.gamma)
                try:
                    SkeletalMorphismSh(source, target, ShMorphism(m.phi, rep.psi, c.eta))
                    accepted = True
                except ValidationError:
                    accepted = False
                assert accepted == closed, name
                seen.add(closed)
        assert seen == {True, False}

    def test_stored_triple_satisfies_the_identities_left_unchecked(self):
        # Built from sh data, the object keeps its triple without checking
        # it again: the suite has already evaluated Jacobi, the
        # representation axiom, the homomorphism law and the intertwining.
        sampler = Sampler(404)
        for name, rep in standard_morphism_reps():
            c = sampler.closed_cochain(rep, 3)
            m = rep.base
            s = SkeletalMorphismSh(
                TwoTermSh(m.g, list(rep.v.action), Matrix.zeros(m.g.dim, rep.dim_v),
                          l3=c.theta),
                TwoTermSh(m.h, list(rep.w.action), Matrix.zeros(m.h.dim, rep.dim_w),
                          l3=c.gamma),
                ShMorphism(m.phi, rep.psi, c.eta))
            base, back, cochain = skeletal_to_triple(s)
            assert check_jacobi(base.g) and check_jacobi(base.h), name
            assert o_hom_failure(base.g.c, base.h.c, base.phi.to_lists()) is None, name
            for module, alg in ((back.v, base.g), (back.w, base.h)):
                assert o_rep_failure(alg.c, [a.to_lists() for a in module.action]) is None
            assert check_morphism_rep(back), name
            assert cochain.to_vector() == c.to_vector()
            assert not any(mla_differential(back, 3).apply(cochain.to_vector())), name

    def test_returned_objects_pass_the_suite_and_the_oracles(self):
        # triple_to_skeletal checks only closedness, and twist_equivalence
        # adds a coboundary; the suite and the dense oracles referee both.
        sampler = Sampler(404)
        for name, rep in standard_morphism_reps():
            for _ in range(2):
                s = triple_to_skeletal(rep.base, rep, sampler.closed_cochain(rep, 3))
                for obj in (s, twist_equivalence(s, *sampler.twist_data(rep))):
                    src, dst, m = obj.source, obj.target, obj.morphism
                    assert check_two_term_sh(src) and check_two_term_sh(dst), name
                    assert check_sh_morphism(src, dst, m), name
                    assert o_sh_failure(_sh_raw(src)) is None, name
                    assert o_sh_failure(_sh_raw(dst)) is None, name
                    raw_phi2 = {tup: m.phi2.col(k) for k, tup
                                in enumerate(itertools.combinations(range(src.dim0), 2))}
                    assert o_sh_morphism_failure(_sh_raw(src), _sh_raw(dst), m.phi0.to_lists(),
                                                 m.phi1.to_lists(), raw_phi2) is None, name

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

    @pytest.mark.parametrize("seed", [None, 3, 8])
    def test_twist_adds_the_oracle_coboundary(self, seed):
        """The twisted (l3, l3', phi2) are the old blocks plus the oracle's
        degree-2 differential applied to (sigma, sigma', phi)."""
        sampler = Sampler(1 if seed is None else seed)
        rep = sl2_v1_triple() if seed is None else sampler.morphism_rep()
        s = triple_to_skeletal(rep.base, rep, sampler.closed_cochain(rep, 3))
        sigma, sigma_p, phi = sampler.twist_data(rep)
        twisted = twist_equivalence(s, sigma, sigma_p, phi)
        shift = MCochain(rep, 2, theta=sigma, gamma=sigma_p, eta=phi).to_vector()
        moved = [sum((x * y for x, y in zip(row, shift)), Fraction(0))
                 for row in o_mla_matrix(_raw(rep), 2)]
        assert any(moved)
        before, after = (
            MCochain(rep, 3, theta=t.source.l3, gamma=t.target.l3,
                     eta=t.morphism.phi2).to_vector() for t in (s, twisted))
        assert after == [a + b for a, b in zip(before, moved)]

    def test_shape_errors(self):
        _, s = self._sl2_skeletal()
        good = Matrix.zeros(2, 3)
        with pytest.raises(ShapeError):
            twist_equivalence(s, Matrix.zeros(2, 2), good, good)
        with pytest.raises(ShapeError):
            twist_equivalence(s, good, Matrix.zeros(1, 3), good)
        with pytest.raises(ShapeError):
            twist_equivalence(s, good, good, Matrix.zeros(2, 2))


_SH_DETAILS = {
    "i": "axiom (i) fails at (e{}, p{})",
    "ii": "axiom (ii) fails at (p{}, p{})",
    "iii": "axiom (iii) fails at (e{}, e{}, e{})",
    "iv": "axiom (iv) fails at (e{}, e{}, p{})",
    "v": "axiom (v) fails at (e{}, e{}, e{}, e{})",
}
_MORPHISM_DETAILS = {
    "i": "condition (i) fails: phi0 . d differs from d' . phi1",
    "ii": "condition (ii) fails at (e{}, e{})",
    "iii": "condition (iii) fails at (e{}, p{})",
    "iv": "condition (iv) fails at (e{}, e{}, e{})",
}


def _oracle_detail(details, found):
    if found is None:
        return None
    label, index = found
    return details[label].format(*(k + 1 for k in index))


def _sh_raw(t: TwoTermSh) -> dict:
    return {"dim0": t.dim0, "dim1": t.dim1, "c": t.bracket0.c,
            "act": [m.to_lists() for m in t.action1], "d": t.d.to_lists(),
            "l3": {tup: t.l3.col(k) for k, tup in enumerate(t.triples.tuples)}}


def _sl2_plus_line() -> LieAlgebra:
    """sl2 + a central line, a 4-dim Lie algebra with quadruples to check."""
    return LieAlgebra.from_brackets(
        4, {(0, 1): [0, 0, 1, 0], (2, 0): [2, 0, 0, 0], (2, 1): [0, -2, 0, 0]})


def _valid_sh_objects() -> list[TwoTermSh]:
    """Objects satisfying every axiom, with d = 0 and with d != 0."""
    objects = []
    for seed in (1, 2):
        rep = Sampler(seed).morphism_rep()
        c = Sampler(seed).closed_cochain(rep, 3)
        objects.append(TwoTermSh(rep.base.g, list(rep.v.action),
                                 Matrix.zeros(rep.base.g.dim, rep.dim_v), l3=c.theta))
    g4 = _sl2_plus_line()
    line = Matrix.identity(2).scale(3)
    objects.append(TwoTermSh(g4, list(v1(sl2()).action) + [line], Matrix.zeros(4, 2)))
    objects.append(TwoTermSh(LieAlgebra.abelian(4),
                             [Matrix.from_rows([[k, 0], [0, 1 - k]]) for k in range(4)],
                             Matrix.zeros(4, 2)))
    for g in (sl2(), heis(), g4):
        objects.append(TwoTermSh.identity_complex(g))
    # d kills p2, so l3 valued in p2 passes (iii) and is seen by (iv) only.
    objects.append(TwoTermSh(LieAlgebra.abelian(3), [Matrix.zeros(2, 2)] * 3,
                             Matrix.from_rows([[1, 0], [0, 0], [0, 0]])))
    return objects


def _bump(rng: random.Random, m: Matrix) -> Matrix:
    """m with one random entry moved by a nonzero amount."""
    rows = m.to_lists()
    rows[rng.randrange(m.rows)][rng.randrange(m.cols)] += Fraction(
        rng.choice([-2, -1, 1, 3]), rng.choice([1, 2]))
    return Matrix.from_rows(rows, cols=m.cols)


def _perturbed_sh(rng: random.Random, t: TwoTermSh) -> TwoTermSh:
    g, action, d, l3 = t.bracket0, list(t.action1), t.d, t.l3
    kinds = ["none"] + (["bracket"] if g.dim > 1 else []) + (
        ["action", "d", "l3"] if t.dim1 else [])
    kind = rng.choice(kinds)
    if kind == "bracket":
        i, j = rng.sample(range(g.dim), 2)
        k, x = rng.randrange(g.dim), Fraction(rng.choice([-1, 1, 2]))
        table = [[list(v) for v in row] for row in g.c]
        table[i][j][k] += x
        table[j][i][k] -= x
        g = LieAlgebra(g.dim, table)
    elif kind == "action":
        i = rng.randrange(g.dim)
        action[i] = _bump(rng, action[i])
    elif kind == "d":
        d = _bump(rng, d)
    elif kind == "l3" and l3.cols:
        l3 = _bump(rng, l3)
    return TwoTermSh(g, action, d, l3=l3)


def _valid_morphisms() -> list[tuple[TwoTermSh, TwoTermSh, ShMorphism]]:
    """Sh morphisms satisfying every condition, with d = 0 and with d != 0."""
    out = []
    for rep in (sl2_v1_triple(), Sampler(4).morphism_rep(), Sampler(6).morphism_rep()):
        s = triple_to_skeletal(rep.base, rep, Sampler(7).closed_cochain(rep, 3))
        out.append((s.source, s.target, s.morphism))
    for t in _valid_sh_objects()[2:]:
        out.append((t, t, ShMorphism.identity(t)))
    return out


def _perturbed_morphism(rng: random.Random, src: TwoTermSh, dst: TwoTermSh,
                        m: ShMorphism) -> tuple[TwoTermSh, TwoTermSh, ShMorphism]:
    phi0, phi1, phi2 = m.phi0, m.phi1, m.phi2
    kind = rng.choice(["none", "phi0", "phi1", "phi2", "l3", "l3'"])
    if kind == "phi0":
        phi0 = _bump(rng, phi0)
    elif kind == "phi1" and phi1.rows and phi1.cols:
        phi1 = _bump(rng, phi1)
    elif kind == "phi2" and phi2.rows and phi2.cols:
        phi2 = _bump(rng, phi2)
    elif kind == "l3" and src.l3.rows and src.l3.cols:
        src = TwoTermSh(src.bracket0, src.action1, src.d, l3=_bump(rng, src.l3))
    elif kind == "l3'" and dst.l3.rows and dst.l3.cols:
        dst = TwoTermSh(dst.bracket0, dst.action1, dst.d, l3=_bump(rng, dst.l3))
    return src, dst, ShMorphism(phi0, phi1, phi2)


class TestOracleReferee:
    """check_two_term_sh and check_sh_morphism against dense brute force."""

    def test_sh_axioms_match_oracle(self):
        rng = random.Random(20261018)
        bases = _valid_sh_objects()
        failed = set()
        for base in bases:
            assert check_two_term_sh(base)
        for _ in range(240):
            base = rng.choice(bases)
            t = _perturbed_sh(rng, base)
            found = o_sh_failure(_sh_raw(t))
            res = check_two_term_sh(t)
            assert (res.ok, res.detail) == (found is None,
                                            _oracle_detail(_SH_DETAILS, found))
            if found:
                failed.add((found[0], base.d.is_zero()))
        assert {label for label, _ in failed} == set(_SH_DETAILS)
        assert any(zero for _, zero in failed) and not all(zero for _, zero in failed)

    def test_morphism_conditions_match_oracle(self):
        rng = random.Random(20261019)
        bases = _valid_morphisms()
        failed = set()
        for src, dst, m in bases:
            assert check_sh_morphism(src, dst, m)
        for _ in range(240):
            src, dst, m = _perturbed_morphism(rng, *rng.choice(bases))
            raw_phi2 = {tup: m.phi2.col(k) for k, tup
                        in enumerate(itertools.combinations(range(src.dim0), 2))}
            found = o_sh_morphism_failure(_sh_raw(src), _sh_raw(dst), m.phi0.to_lists(),
                                          m.phi1.to_lists(), raw_phi2)
            res = check_sh_morphism(src, dst, m)
            assert (res.ok, res.detail) == (found is None,
                                            _oracle_detail(_MORPHISM_DETAILS, found))
            if found:
                failed.add((found[0], src.d.is_zero()))
        assert {label for label, _ in failed} == set(_MORPHISM_DETAILS)
        assert any(zero for _, zero in failed) and not all(zero for _, zero in failed)
