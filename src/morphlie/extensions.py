"""Abelian extensions of morphism Lie algebras by representation triples.

An extension of (g, h, phi) by (V, W, psi) is a morphism Lie algebra on
g (+) V and h (+) W fitting into a commuting short-exact diagram.  Every
extension here is in the block basis: the total bases are ordered base
first, then fiber, so i, p, i_bar, p_bar are fixed block matrices, and a
total is exactly the triple plus a 2-cochain (theta, gamma, eta) in its
off-diagonal blocks:

  [(x, v), (x', v')] = ([x, x'], rho_V(x) v' - rho_V(x') v + theta(x, x'))
  phi_hat = [[phi, 0], [eta, psi]]

and likewise with gamma on the h side.  The cochain is closed exactly when
both totals satisfy Jacobi and phi_hat is a homomorphism, so each identity
is checked once: `build_extension` checks closedness (one d_2) and builds
the totals unchecked, `AbelianExtension.from_blocks` checks the fixed
blocks of a total given from outside, and extraction and the coboundary
isomorphism only read coordinates.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations

from .algebras import LieAlgebra, MorphismLieAlgebra, MorphismRep
from .cecomplex import ExteriorBasis
from .cohomology import MCochain, _value_array
from .errors import (
    NotACocycle,
    NotASection,
    NotSimplyCohomologous,
    ShapeError,
    ValidationError,
)
from .linalg import Matrix, ZERO


class AbelianExtension:
    """The block-basis extension of rep.base by rep with total algebra ``total``.

    ``cocycle`` is the closed 2-cochain in the off-diagonal blocks of
    ``total``, and i, p, i_bar, p_bar are the block maps of `_block_maps`.
    Built by `build_extension` from a cocycle or by `from_blocks` from a
    total; the constructor itself checks nothing.
    """

    def __init__(self, rep: MorphismRep, cocycle: MCochain, total: MorphismLieAlgebra):
        self.rep = rep
        self.cocycle = cocycle
        self.total = total
        self.i, self.p, self.i_bar, self.p_bar = _block_maps(rep)

    @classmethod
    def from_blocks(cls, rep: MorphismRep,
                    total: MorphismLieAlgebra) -> AbelianExtension:
        """Read a block-basis total morphism Lie algebra as an extension of rep.

        ``total`` must satisfy Jacobi on both sides and phi_hat the
        homomorphism law, as every loaded document does.  Its fixed blocks
        are checked against rep in this order: the dimensions, V then W an
        abelian ideal, the base brackets (p, then p_bar, a homomorphism), the
        fiber columns of phi_hat (phi_hat . i = i_bar . psi), its base rows
        (p_bar . phi_hat = phi . p), and the action blocks (rep's actions).
        theta, gamma and eta are then read off the remaining blocks; they
        are closed because ``total`` is a morphism Lie algebra.
        """
        base = rep.base
        n_g, n_h = base.g.dim, base.h.dim
        if total.g.dim != n_g + rep.dim_v:
            raise ShapeError(f"i must be {total.g.dim}x{rep.dim_v}")
        if total.h.dim != n_h + rep.dim_w:
            raise ShapeError(f"i_bar must be {total.h.dim}x{rep.dim_w}")
        for alg, n, side in ((total.g, n_g, "g"), (total.h, n_h, "h")):
            for a in range(n, alg.dim):
                if any(alg.nonzero[a][b] for b in range(a + 1, alg.dim)):
                    raise ShapeError(f"included subspace on the {side} side is not abelian")
                # Column k of ad(v_a) is [v_a, e_k]; it must have no base part.
                if any(k < n for row in alg.nonzero[a] for k, _ in row):
                    raise ShapeError(f"included subspace on the {side} side is not an ideal")
        for alg, sub, name in ((total.g, base.g, "p"), (total.h, base.h, "p_bar")):
            if any([(k, x * sub.den) for k, x in alg.nonzero[i][j] if k < sub.dim]
                   != [(k, x * alg.den) for k, x in sub.nonzero[i][j]]
                   for i, j in combinations(range(sub.dim), 2)):
                raise ShapeError(f"{name} is not a Lie algebra homomorphism")
        if (total.phi.submatrix(range(total.h.dim), range(n_g, total.g.dim))
                != Matrix.vstack([Matrix.zeros(n_h, rep.dim_v), rep.psi])):
            raise ShapeError("phi_hat . i differs from i_bar . psi")
        if total.phi.submatrix(range(n_h), range(n_g)) != base.phi:
            raise ShapeError("p_bar . phi_hat differs from phi . p")
        for alg, n, module in ((total.g, n_g, rep.v), (total.h, n_h, rep.w)):
            if any(alg.structure_vector(i, n + a)[n:] != act.col(a)
                   for i, act in enumerate(module.action) for a in range(module.dim_v)):
                raise ValidationError("total algebra does not induce the stated representation")

        theta = _fiber_block([total.g.structure_vector(i, j)
                              for i, j in ExteriorBasis(n_g, 2).tuples], n_g, rep.dim_v)
        gamma = _fiber_block([total.h.structure_vector(i, j)
                              for i, j in ExteriorBasis(n_h, 2).tuples], n_h, rep.dim_w)
        eta = total.phi.submatrix(range(n_h, total.h.dim), range(n_g))
        return cls(rep, MCochain(rep, 2, theta=theta, gamma=gamma, eta=eta), total)

    def canonical_section(self) -> tuple[Matrix, Matrix]:
        """The sections x -> (x, 0) and h -> (h, 0) in the block basis."""
        rep = self.rep
        return _sections(rep, Matrix.zeros(rep.dim_v, rep.base.g.dim),
                         Matrix.zeros(rep.dim_w, rep.base.h.dim))

    def shifted_section(self, d0: Matrix, del0: Matrix) -> tuple[Matrix, Matrix]:
        """Sections x -> (x, d0 x) and h -> (h, del0 h)."""
        return _sections(self.rep, d0, del0)

    def __repr__(self) -> str:
        return (f"AbelianExtension(total_g={self.total.g.dim}, "
                f"total_h={self.total.h.dim})")


def _block_maps(rep: MorphismRep) -> tuple[Matrix, Matrix, Matrix, Matrix]:
    """i, p, i_bar, p_bar for total bases ordered base first, then fiber."""
    maps = []
    for base_dim, fiber_dim in ((rep.base.g.dim, rep.dim_v), (rep.base.h.dim, rep.dim_w)):
        maps.append(Matrix.vstack([Matrix.zeros(base_dim, fiber_dim),
                                   Matrix.identity(fiber_dim)]))
        maps.append(Matrix.hstack([Matrix.identity(base_dim),
                                   Matrix.zeros(base_dim, fiber_dim)]))
    return tuple(maps)


def _sections(rep: MorphismRep, d0: Matrix, del0: Matrix) -> tuple[Matrix, Matrix]:
    """[I; d0] and [I; del0]: the sections x -> (x, d0 x) and h -> (h, del0 h)."""
    base = rep.base
    if (d0.rows, d0.cols) != (rep.dim_v, base.g.dim):
        raise ShapeError(f"d0 must be {rep.dim_v}x{base.g.dim}")
    if (del0.rows, del0.cols) != (rep.dim_w, base.h.dim):
        raise ShapeError(f"del0 must be {rep.dim_w}x{base.h.dim}")
    return (Matrix.vstack([Matrix.identity(base.g.dim), d0]),
            Matrix.vstack([Matrix.identity(base.h.dim), del0]))


def _fiber_block(vectors: list[list[Fraction]], n: int, dim: int) -> Matrix:
    """The dim x len(vectors) matrix whose column t is the fiber part vectors[t][n:]."""
    return _value_array([x for vec in vectors for x in vec[n:]], dim, len(vectors))


def _require_closed(cocycle: MCochain) -> None:
    if (spot := cocycle.coboundary().first_nonzero()) is not None:
        raise NotACocycle(f"differential of the cochain is nonzero in the {spot[0]} block")


def _extended_algebra(g: LieAlgebra, rep_action, dim_v: int,
                      value_block: Matrix) -> LieAlgebra:
    """g (+) V with bracket twisted by a Hom(wedge^2 g, V) value block."""
    brackets = {(i, j): g.structure_vector(i, j) + value_block.col(t)
                for (i, j), t in ExteriorBasis(g.dim, 2).index.items()}
    for i, act in enumerate(rep_action):
        for a in range(dim_v):
            brackets[i, g.dim + a] = [ZERO] * g.dim + act.col(a)
    return LieAlgebra.from_brackets(g.dim + dim_v, brackets)


def build_extension(rep: MorphismRep, cocycle: MCochain) -> AbelianExtension:
    """The extension of rep.base by rep determined by a closed 2-cochain.

    [(x, v), (x', v')] = ([x, x'], rho_V(x) v' - rho_V(x') v + theta(x, x'))
    on the g side, likewise with gamma on the h side, and
    phi_hat(x, v) = (phi x, psi v + eta(x)).  The one check is closedness
    (`NotACocycle` names the first nonzero block of d_2): it is Jacobi for
    both totals and the homomorphism law of phi_hat, so they are built
    unchecked.
    """
    if cocycle.degree != 2:
        raise ShapeError("extension cocycles live in degree 2")
    _require_closed(cocycle)
    base = rep.base
    g_hat = _extended_algebra(base.g, rep.v.action, rep.dim_v, cocycle.theta)
    h_hat = _extended_algebra(base.h, rep.w.action, rep.dim_w, cocycle.gamma)
    phi_hat = Matrix.block([
        [base.phi, Matrix.zeros(base.h.dim, rep.dim_v)],
        [cocycle.eta, rep.psi],
    ])
    return AbelianExtension(rep, cocycle,
                            MorphismLieAlgebra(g_hat, h_hat, phi_hat, validate=False))


def extract_cocycle(ext: AbelianExtension, s: Matrix,
                    sbar: Matrix) -> tuple[MCochain, MorphismRep]:
    """The 2-cochain read off a section pair, and the induced representation.

    theta(x, y) = [s x, s y] - s [x, y], gamma likewise with sbar, and
    eta(x) = phi_hat(s x) - sbar(phi x).  Since p . s = id and p is a
    homomorphism, each defect has base part 0 and is read as its fiber
    coordinates.  The fiber is an abelian ideal, so the representation it
    induces does not depend on the section: it is ext.rep.
    """
    rep, total = ext.rep, ext.total
    base = rep.base
    if (s.rows, s.cols) != (total.g.dim, base.g.dim):
        raise ShapeError(f"s must be {total.g.dim}x{base.g.dim}")
    if (sbar.rows, sbar.cols) != (total.h.dim, base.h.dim):
        raise ShapeError(f"sbar must be {total.h.dim}x{base.h.dim}")
    if ext.p * s != Matrix.identity(base.g.dim):
        raise NotASection("p . s is not the identity on g")
    if ext.p_bar * sbar != Matrix.identity(base.h.dim):
        raise NotASection("p_bar . sbar is not the identity on h")

    theta = _bracket_defect(total.g, base.g, s, rep.dim_v)
    gamma = _bracket_defect(total.h, base.h, sbar, rep.dim_w)
    eta = _fiber_block([_sub(total.phi.apply(s.col(k)), sbar.apply(base.phi.col(k)))
                        for k in range(base.g.dim)], base.h.dim, rep.dim_w)
    return MCochain(rep, 2, theta=theta, gamma=gamma, eta=eta), rep


def _sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    return [x - y for x, y in zip(a, b)]


def _bracket_defect(total_alg: LieAlgebra, base_alg: LieAlgebra, s: Matrix,
                    dim_fiber: int) -> Matrix:
    """Fiber coordinates of [s x, s y] - s [x, y] on increasing basis pairs."""
    return _fiber_block([_sub(total_alg.bracket(s.col(i), s.col(j)),
                              s.apply(base_alg.structure_vector(i, j)))
                         for i, j in ExteriorBasis(base_alg.dim, 2).tuples],
                        base_alg.dim, dim_fiber)


def coboundary_isomorphism(rep: MorphismRep, c1: MCochain, c2: MCochain,
                           d0: Matrix, del0: Matrix) -> tuple[Matrix, Matrix]:
    """The extension isomorphism induced by a simple degree-1 coboundary.

    Requires c1 closed and c1 - c2 = delta(d0, del0, 0); returns the pair
    alpha(x, v) = (x, v + d0 x), beta(h, w) = (h, w + del0 h) from the
    c1-extension to the c2-extension.  In the block basis alpha = [s | i]
    and beta = [sbar | i_bar] for the sections shifted by d0 and del0:
    invertible, commuting with i, p, i_bar, p_bar and phi_hat, and
    homomorphisms because of the coboundary equation.
    """
    s, sbar = _sections(rep, d0, del0)
    if c1.degree != 2 or c2.degree != 2:
        raise ShapeError("cocycles must have degree 2")
    if c1 - c2 != MCochain(rep, 1, theta=d0, gamma=del0).coboundary():
        raise NotSimplyCohomologous("c1 - c2 is not the simple coboundary of (d0, del0)")
    _require_closed(c1)
    i, _, i_bar, _ = _block_maps(rep)
    return Matrix.hstack([s, i]), Matrix.hstack([sbar, i_bar])
