"""Tests for seeded random generation of structured inputs."""

from fractions import Fraction

import pytest

from morphlie.cecomplex import ce_differential
from morphlie.cohomology import mla_differential
from morphlie.fixtures import sl2_v1_triple, standard_morphism_reps
from morphlie.groups import mlg_differential
from morphlie.linalg import ZERO, Matrix, rank
from morphlie.sampling import Sampler, _intertwiner_constraints


class TestPrimitives:
    def test_fraction_bounds(self):
        s = Sampler(1)
        for _ in range(50):
            f = s.fraction()
            assert isinstance(f, Fraction)
            assert -5 <= f.numerator <= 5 or abs(f) <= 5

    def test_matrix_shape(self):
        m = Sampler(2).matrix(2, 3)
        assert (m.rows, m.cols) == (2, 3)

    def test_invertible_matrix(self):
        for seed in range(5):
            assert rank(Sampler(seed).invertible_matrix(3)) == 3

    def test_seeded_determinism(self):
        a, b = Sampler(9), Sampler(9)
        assert a.matrix(3, 3) == b.matrix(3, 3)
        assert a.morphism_rep().psi == b.morphism_rep().psi
        assert a.group_module_triple().phi == b.group_module_triple().phi

    def test_seeds_differ(self):
        assert Sampler(1).matrix(3, 3) != Sampler(2).matrix(3, 3)


class TestRepresentations:
    def test_representations_are_valid(self):
        for seed in range(8):
            rep = Sampler(seed).representation()
            assert rep.check()
            assert rep.dim_v <= 3

    def test_ce_differential_squares_to_zero(self):
        rep = Sampler(3).representation()
        for n in range(3):
            prod = ce_differential(rep, n + 1) * ce_differential(rep, n)
            assert prod.is_zero()

    def test_morphism_reps_are_valid(self):
        for seed in range(8):
            rep = Sampler(seed).morphism_rep()
            assert rep.dim_v <= 3 and rep.dim_w <= 3

    def test_mla_differential_squares_to_zero(self):
        rep = Sampler(5).morphism_rep()
        for n in range(3):
            prod = mla_differential(rep, n + 1) * mla_differential(rep, n)
            assert prod.is_zero()

    def test_conjugation_preserves_ce_cohomology(self):
        from morphlie.cecomplex import ce_cohomology_dim

        base = sl2_v1_triple().v
        conj = Sampler(11).conjugated_representation(base)
        assert conj.action != base.action
        for n in range(3):
            assert ce_cohomology_dim(conj, n) == ce_cohomology_dim(base, n)


class TestGroups:
    def test_triples_are_valid(self):
        for seed in range(8):
            t = Sampler(seed).group_module_triple()
            assert t.g.order <= 4 and t.h.order <= 4

    def test_mlg_differential_squares_to_zero(self):
        t = Sampler(4).group_module_triple()
        for normalized in (False, True):
            for n in range(3):
                prod = (mlg_differential(t, n + 1, normalized)
                        * mlg_differential(t, n, normalized))
                assert prod.is_zero()

    def test_homomorphism_enumeration_finds_nontrivial(self):
        from morphlie.groups import FiniteGroup

        g, h = FiniteGroup.cyclic(4), FiniteGroup.cyclic(2)
        seen = set()
        for seed in range(30):
            seen.add(tuple(Sampler(seed).group_homomorphism(g, h)))
        assert (0, 0, 0, 0) in seen
        assert (0, 1, 0, 1) in seen

    def test_homomorphisms_are_homomorphisms(self):
        s = Sampler(6)
        for _ in range(10):
            g, h = s.group(), s.group()
            phi = s.group_homomorphism(g, h)
            for a in range(g.order):
                for b in range(g.order):
                    assert phi[g.mul[a][b]] == h.mul[phi[a]][phi[b]]


class TestCochains:
    def test_closed_cochain_is_closed(self):
        s = Sampler(8)
        rep = sl2_v1_triple()
        for degree in (1, 2):
            c = s.closed_cochain(rep, degree)
            assert c.degree == degree
            assert all(x == 0 for x in c.coboundary().to_vector())

    def test_shift_and_twist_shapes(self):
        rep = sl2_v1_triple()
        s = Sampler(10)
        d0, del0 = s.simple_shift(rep)
        assert (d0.rows, d0.cols) == (2, 3)
        assert (del0.rows, del0.cols) == (2, 3)
        sigma, sigma_p, phi = s.twist_data(rep)
        assert (sigma.rows, sigma.cols) == (2, 3)
        assert (sigma_p.rows, sigma_p.cols) == (2, 3)
        assert (phi.rows, phi.cols) == (2, 3)


class TestIntertwinerSolver:
    def test_schur_line_for_irreducible(self):
        from morphlie.linalg import kernel_basis

        rep = sl2_v1_triple()
        pairs = [(rep.v.action[i], rep.w.action[i]) for i in range(3)]
        basis = kernel_basis(_intertwiner_constraints(pairs, 2, 2))
        assert basis.cols == 1

    def test_empty_constraint_list(self):
        m = _intertwiner_constraints([], 2, 3)
        assert (m.rows, m.cols) == (0, 6)


def _dense_intertwiner_constraints(pairs, dim_v, dim_w):
    """The system X A = B X written out entry by entry, X flattened row-major."""
    rows = []
    for a, b in pairs:
        for r in range(dim_w):
            for c in range(dim_v):
                row = [ZERO] * (dim_w * dim_v)
                for k in range(dim_v):
                    row[r * dim_v + k] += a[k, c]
                for k in range(dim_w):
                    row[k * dim_v + c] -= b[r, k]
                rows.append(row)
    return Matrix.from_rows(rows, cols=dim_w * dim_v) if rows else Matrix.zeros(0, dim_w * dim_v)


def test_intertwiner_constraints_match_the_dense_system():
    # The catalog, 20 Sampler(3) morphism reps, 20 group triples and the empty list.
    s = Sampler(3)
    reps = [rep for _, rep in standard_morphism_reps()] + [s.morphism_rep() for _ in range(20)]
    cases = [([(rep.v.action[i], rep.w.act(rep.base.phi.col(i))) for i in range(rep.base.g.dim)],
              rep.dim_v, rep.dim_w) for rep in reps]
    for t in (s.group_module_triple() for _ in range(20)):
        cases.append(([(t.v.action[a], t.w.action[t.phi[a]]) for a in range(t.g.order)],
                      t.dim_v, t.dim_w))
    cases.append(([], 2, 3))
    assert len(cases) == 50
    for pairs, dim_v, dim_w in cases:
        assert (_intertwiner_constraints(pairs, dim_v, dim_w)
                == _dense_intertwiner_constraints(pairs, dim_v, dim_w))
