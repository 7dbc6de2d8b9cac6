"""Seeded random generation of valid inputs for the property suites.

Randomized representations come from conjugating the fixture catalog by
random invertible rational matrices, which stays inside the axioms while
varying every coordinate.  Intertwiners psi are drawn from the exact
solution space of the intertwining equations, group homomorphisms by
enumeration over small groups, and cocycles as random rational
combinations of a kernel basis.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import comb

from .algebras import MorphismRep, Representation
from .cecomplex import postcompose_matrix, precompose_matrix
from .cohomology import MCochain, mla_differential
from .fixtures import (
    sign_module,
    standard_morphism_reps,
    z3_rotation_module,
    z4_rotation_module,
)
from .groups import FiniteGroup, GroupModule, GroupModuleTriple
from .linalg import Matrix, inverse, kernel_basis, rank


class Sampler:
    """Deterministic pseudo-random source for structured algebra inputs."""

    def __init__(self, seed: int = 0):
        self.rng = random.Random(seed)

    def fraction(self) -> Fraction:
        """Numerator in -5..5 over a denominator in 1..3."""
        return Fraction(self.rng.randint(-5, 5), self.rng.randint(1, 3))

    def matrix(self, rows: int, cols: int) -> Matrix:
        return Matrix.from_rows([[self.fraction() for _ in range(cols)] for _ in range(rows)],
                                cols=cols)

    def invertible_matrix(self, n: int) -> Matrix:
        while True:
            m = self.matrix(n, n)
            if rank(m) == n:
                return m

    def conjugated_representation(self, rep: Representation) -> Representation:
        """The same module in a random basis: rho'(x) = P rho(x) P^-1."""
        p = self.invertible_matrix(rep.dim_v)
        p_inv = inverse(p)
        return Representation(rep.algebra, rep.dim_v,
                              [p * a * p_inv for a in rep.action])

    def representation(self) -> Representation:
        """A random valid Lie algebra representation with dims <= 3."""
        _, morphism_rep = self.rng.choice(standard_morphism_reps())
        side = self.rng.choice([morphism_rep.v, morphism_rep.w])
        return self.conjugated_representation(side)

    def morphism_rep(self, base: MorphismRep | None = None) -> MorphismRep:
        """A random valid representation triple with dims <= 3.

        With a base given, keeps its morphism algebra and redraws the
        modules in random bases and psi from the full intertwiner space.
        """
        rep = base if base is not None else self.rng.choice(standard_morphism_reps())[1]
        v = self.conjugated_representation(rep.v)
        w = self.conjugated_representation(rep.w)
        pairs = [(v.action[i], w.act(rep.base.phi.col(i))) for i in range(rep.base.g.dim)]
        psi = self._random_intertwiner(pairs, v.dim_v, w.dim_v)
        return MorphismRep(rep.base, v, w, psi)

    def _random_intertwiner(self, pairs: list[tuple[Matrix, Matrix]],
                            dim_v: int, dim_w: int) -> Matrix:
        """A random solution X of X A = B X for every (A, B) pair."""
        basis = kernel_basis(_intertwiner_constraints(pairs, dim_v, dim_w))
        return Matrix(dim_w, dim_v, basis.apply([self.fraction() for _ in range(basis.cols)]))

    def group(self) -> FiniteGroup:
        """A random group of order at most 4."""
        return self.rng.choice([FiniteGroup.trivial(), FiniteGroup.cyclic(2),
                                FiniteGroup.cyclic(3), FiniteGroup.cyclic(4),
                                FiniteGroup.klein_four()])

    def group_module(self, group: FiniteGroup) -> GroupModule:
        """A random module of dimension at most 2 over the group in a random basis."""
        catalog = [GroupModule.trivial(group, 1), GroupModule.trivial(group, 2)]
        if group.order in (2, 4) and group.mul == FiniteGroup.cyclic(group.order).mul:
            catalog.append(sign_module(group))
        if group.mul == FiniteGroup.cyclic(3).mul:
            catalog.append(z3_rotation_module())
        if group.mul == FiniteGroup.cyclic(4).mul:
            catalog.append(z4_rotation_module())
        if group.mul == FiniteGroup.klein_four().mul:
            mask = self.rng.randint(0, 3)
            catalog.append(GroupModule(group, 1, [
                Matrix.from_rows([[(-1) ** (mask & g).bit_count()]])
                for g in range(4)
            ]))
        module = self.rng.choice(catalog)
        p = self.invertible_matrix(module.dim)
        p_inv = inverse(p)
        return GroupModule(module.group, module.dim,
                           [p * a * p_inv for a in module.action])

    def group_homomorphism(self, g: FiniteGroup, h: FiniteGroup) -> list[int]:
        """A random homomorphism G -> H, found by enumeration."""
        homs = []
        for assignment in _all_maps(g.order, h.order):
            if all(assignment[g.mul[a][b]] == h.mul[assignment[a]][assignment[b]]
                   for a in range(g.order) for b in range(g.order)):
                homs.append(assignment)
        return list(self.rng.choice(homs))

    def group_module_triple(self) -> GroupModuleTriple:
        """A random valid module triple over a random homomorphism."""
        g = self.group()
        h = self.group()
        phi = self.group_homomorphism(g, h)
        v = self.group_module(g)
        w = self.group_module(h)
        pairs = [(v.action[a], w.action[phi[a]]) for a in range(g.order)]
        psi = self._random_intertwiner(pairs, v.dim, w.dim)
        return GroupModuleTriple(g, h, phi, v, w, psi)

    def closed_cochain(self, rep: MorphismRep, degree: int) -> MCochain:
        """A random element of ker delta_mLA in the given degree."""
        basis = kernel_basis(mla_differential(rep, degree))
        flat = basis.apply([self.fraction() for _ in range(basis.cols)])
        return MCochain.from_vector(rep, degree, flat)

    def simple_shift(self, rep: MorphismRep) -> tuple[Matrix, Matrix]:
        """Random degree-1 data (d0, del0) for a simple coboundary."""
        return (self.matrix(rep.dim_v, rep.base.g.dim),
                self.matrix(rep.dim_w, rep.base.h.dim))

    def twist_data(self, rep: MorphismRep) -> tuple[Matrix, Matrix, Matrix]:
        """Random (sigma, sigma', phi) twist data for a skeletal object."""
        g_dim, h_dim = rep.base.g.dim, rep.base.h.dim
        return (self.matrix(rep.dim_v, comb(g_dim, 2)),
                self.matrix(rep.dim_w, comb(h_dim, 2)),
                self.matrix(rep.dim_w, g_dim))


def _intertwiner_constraints(pairs: list[tuple[Matrix, Matrix]],
                             dim_v: int, dim_w: int) -> Matrix:
    """Rows of the linear system X A = B X in the flattened unknown X.

    X is dim_w x dim_v, flattened row-major: X[r][c] -> r * dim_v + c, which
    is Y = X^T in the cochain layout over dim_w tuples.  X A = B X reads
    A^T Y - Y B^T = 0, one postcomposition and one precomposition per pair.
    """
    return Matrix.vstack([Matrix.zeros(0, dim_w * dim_v)] + [
        postcompose_matrix(a.transpose(), dim_w) - precompose_matrix(b.transpose(), dim_v)
        for a, b in pairs])


def _all_maps(domain: int, codomain: int):
    """All functions {0..domain-1} -> {0..codomain-1} as index tuples."""
    return itertools.product(range(codomain), repeat=domain)
