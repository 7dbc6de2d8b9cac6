"""Abelian extensions of morphism Lie algebras by representation triples.

An extension of (g, h, phi) by (V, W, psi) is a morphism Lie algebra on
g (+) V and h (+) W fitting into a commuting short-exact diagram.  A closed
degree-2 cochain (theta, gamma, eta) builds one; a section pair extracts
the cochain back; a simple degree-1 coboundary produces an isomorphism
between the extensions of cohomologous cocycles.
"""

from __future__ import annotations

from fractions import Fraction

from .algebras import (
    LieAlgebra,
    MorphismLieAlgebra,
    MorphismRep,
    Representation,
    check_jacobi,
    is_lie_homomorphism,
)
from .cecomplex import ExteriorBasis
from .cohomology import MCochain, _first_nonzero, mla_differential
from .errors import (
    NotACocycle,
    NotASection,
    NotSimplyCohomologous,
    ShapeError,
    ValidationError,
)
from .linalg import Matrix, ZERO, is_invertible, product_is_zero, rank, solve_columns


class AbelianExtension:
    """A built extension with its inclusion/projection matrices.

    Basis convention: the total spaces are ordered g-basis first, then
    V-basis (likewise h then W), so i, p, i_bar, p_bar are literal block
    matrices.  Construction verifies exactness, the commuting diagram, and
    that V, W sit inside as abelian ideals.
    """

    def __init__(self, rep: MorphismRep, cocycle: MCochain | None,
                 total: MorphismLieAlgebra,
                 i: Matrix, p: Matrix, i_bar: Matrix, p_bar: Matrix):
        self.rep = rep
        self.cocycle = cocycle
        self.total = total
        self.i, self.p = i, p
        self.i_bar, self.p_bar = i_bar, p_bar
        self._verify()

    def _verify(self) -> None:
        rep, total = self.rep, self.total
        base = rep.base
        for mat, rows, cols, name in (
            (self.i, total.g.dim, rep.dim_v, "i"),
            (self.p, base.g.dim, total.g.dim, "p"),
            (self.i_bar, total.h.dim, rep.dim_w, "i_bar"),
            (self.p_bar, base.h.dim, total.h.dim, "p_bar"),
        ):
            if (mat.rows, mat.cols) != (rows, cols):
                raise ShapeError(f"{name} must be {rows}x{cols}")
        if total.g.dim != base.g.dim + rep.dim_v:
            raise ShapeError("total g must have dim g + dim V")
        if total.h.dim != base.h.dim + rep.dim_w:
            raise ShapeError("total h must have dim h + dim W")
        for i_mat, p_mat, alg, sub_dim, side in (
            (self.i, self.p, total.g, rep.dim_v, "g"),
            (self.i_bar, self.p_bar, total.h, rep.dim_w, "h"),
        ):
            if not product_is_zero(p_mat, i_mat):
                raise ShapeError(f"p . i is nonzero on the {side} side")
            if rank(i_mat) != sub_dim:
                raise ShapeError(f"inclusion on the {side} side is not injective")
            if rank(p_mat) != p_mat.rows:
                raise ShapeError(f"projection on the {side} side is not surjective")
            self._verify_abelian_ideal(alg, i_mat, side)
        source_alg = (total.g, base.g, self.p)
        if not is_lie_homomorphism(*source_alg).ok:
            raise ShapeError("p is not a Lie algebra homomorphism")
        if not is_lie_homomorphism(total.h, base.h, self.p_bar).ok:
            raise ShapeError("p_bar is not a Lie algebra homomorphism")
        if total.phi * self.i != self.i_bar * rep.psi:
            raise ShapeError("phi_hat . i differs from i_bar . psi")
        if base.phi * self.p != self.p_bar * total.phi:
            raise ShapeError("p_bar . phi_hat differs from phi . p")

    def _verify_abelian_ideal(self, alg: LieAlgebra, i_mat: Matrix, side: str) -> None:
        dim_sub = i_mat.cols
        for a in range(dim_sub):
            va = i_mat.col(a)
            for b in range(a + 1, dim_sub):
                if any(alg.bracket(va, i_mat.col(b))):
                    raise ShapeError(f"included subspace on the {side} side is not abelian")
            # Column k of ad(va) is [va, e_k] = -[e_k, va].
            if solve_columns(i_mat, alg.ad_matrix(va)) is None:
                raise ShapeError(f"included subspace on the {side} side is not an ideal")

    @classmethod
    def from_blocks(cls, rep: MorphismRep,
                    total: MorphismLieAlgebra) -> AbelianExtension:
        """View a block-basis total morphism algebra as an extension of rep.

        The total bases must be ordered base first, then fiber.  The
        canonical section recovers the defining cocycle, and the induced
        representation must agree with rep exactly.
        """
        ext = cls(rep, None, total, *_block_maps(rep))
        cocycle, induced = extract_cocycle(ext, *ext.canonical_section())
        if (induced.v.action != rep.v.action
                or induced.w.action != rep.w.action
                or induced.psi != rep.psi):
            raise ValidationError(
                "total algebra does not induce the stated representation")
        ext.cocycle = cocycle
        return ext

    def canonical_section(self) -> tuple[Matrix, Matrix]:
        """The sections x -> (x, 0) and h -> (h, 0) in the block basis."""
        base = self.rep.base
        s = Matrix.vstack([Matrix.identity(base.g.dim),
                           Matrix.zeros(self.rep.dim_v, base.g.dim)])
        sbar = Matrix.vstack([Matrix.identity(base.h.dim),
                              Matrix.zeros(self.rep.dim_w, base.h.dim)])
        return s, sbar

    def shifted_section(self, d0: Matrix, del0: Matrix) -> tuple[Matrix, Matrix]:
        """Sections x -> (x, d0 x) and h -> (h, del0 h)."""
        base = self.rep.base
        if (d0.rows, d0.cols) != (self.rep.dim_v, base.g.dim):
            raise ShapeError(f"d0 must be {self.rep.dim_v}x{base.g.dim}")
        if (del0.rows, del0.cols) != (self.rep.dim_w, base.h.dim):
            raise ShapeError(f"del0 must be {self.rep.dim_w}x{base.h.dim}")
        s = Matrix.vstack([Matrix.identity(base.g.dim), d0])
        sbar = Matrix.vstack([Matrix.identity(base.h.dim), del0])
        return s, sbar

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


def _extended_algebra(g: LieAlgebra, rep_action, dim_v: int,
                      value_block: Matrix) -> LieAlgebra:
    """g (+) V with bracket twisted by a Hom(wedge^2 g, V) value block."""
    pairs = ExteriorBasis(g.dim, 2)
    dim = g.dim + dim_v
    table = [[[ZERO] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), t_idx in pairs.index.items():
        vec = list(g.c[i][j]) + value_block.col(t_idx)
        table[i][j] = vec
        table[j][i] = [-x for x in vec]
    for i in range(g.dim):
        act = rep_action[i]
        for a in range(dim_v):
            vec = [ZERO] * g.dim + act.col(a)
            table[i][g.dim + a] = vec
            table[g.dim + a][i] = [-x for x in vec]
    return LieAlgebra(dim, table)


def build_extension(rep: MorphismRep, cocycle: MCochain) -> AbelianExtension:
    """The extension of rep.base by rep determined by a closed 2-cochain.

    [(x, v), (x', v')] = ([x, x'], rho_V(x) v' - rho_V(x') v + theta(x, x'))
    on the g side, likewise with gamma on the h side, and
    phi_hat(x, v) = (phi x, psi v + eta(x)).  Jacobi for both total algebras
    and the homomorphism law for phi_hat are re-verified on the output.
    """
    if cocycle.degree != 2:
        raise ShapeError("extension cocycles live in degree 2")
    spot = _first_nonzero(rep, 3, mla_differential(rep, 2).apply(cocycle.to_vector()))
    if spot is not None:
        raise NotACocycle(f"differential of the cochain is nonzero in the {spot[0]} block")

    base = rep.base
    g_hat = _extended_algebra(base.g, rep.v.action, rep.dim_v, cocycle.theta)
    h_hat = _extended_algebra(base.h, rep.w.action, rep.dim_w, cocycle.gamma)
    for alg, name in ((g_hat, "g"), (h_hat, "h")):
        res = check_jacobi(alg)
        if not res:
            raise NotACocycle(f"extended algebra on the {name} side fails Jacobi: {res.detail}")
    phi_hat = Matrix.block([
        [base.phi, Matrix.zeros(base.h.dim, rep.dim_v)],
        [cocycle.eta, rep.psi],
    ])
    total = MorphismLieAlgebra(g_hat, h_hat, phi_hat)
    return AbelianExtension(rep, cocycle, total, *_block_maps(rep))


def _fiber_coordinates(i_mat: Matrix, vectors: Matrix, context: str) -> Matrix:
    coords = solve_columns(i_mat, vectors)
    if coords is None:
        raise ShapeError(f"{context} does not land in the included subspace")
    return coords


def extract_cocycle(ext: AbelianExtension, s: Matrix, sbar: Matrix,
                    second: tuple[Matrix, Matrix] | None = None,
                    ) -> tuple[MCochain, MorphismRep]:
    """The 2-cochain and induced representation read off a section pair.

    theta(x, y) = [s x, s y] - s [x, y] read through i, gamma likewise
    through i_bar, and eta(x) = phi_hat(s x) - sbar(phi x); the induced
    actions are rho_V(x) v = [s x, i v] through i.  The returned cochain is
    asserted closed, and when a second section pair is supplied the induced
    actions extracted from it are verified equal (section independence).
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

    theta = _bracket_defect(total.g, ext.i, s, base.g, "theta")
    gamma = _bracket_defect(total.h, ext.i_bar, sbar, base.h, "gamma")
    eta_vectors = Matrix.hstack([
        Matrix.column(_sub(total.phi.apply(s.col(k)), sbar.apply(base.phi.col(k))))
        for k in range(base.g.dim)
    ]) if base.g.dim else Matrix.zeros(total.h.dim, 0)
    eta = _fiber_coordinates(ext.i_bar, eta_vectors, "eta defect")

    v_action = [
        _fiber_coordinates(
            ext.i,
            Matrix.hstack([
                Matrix.column(total.g.bracket(s.col(k), ext.i.col(a)))
                for a in range(rep.dim_v)
            ]) if rep.dim_v else Matrix.zeros(total.g.dim, 0),
            "induced action",
        )
        for k in range(base.g.dim)
    ]
    w_action = [
        _fiber_coordinates(
            ext.i_bar,
            Matrix.hstack([
                Matrix.column(total.h.bracket(sbar.col(k), ext.i_bar.col(a)))
                for a in range(rep.dim_w)
            ]) if rep.dim_w else Matrix.zeros(total.h.dim, 0),
            "induced action",
        )
        for k in range(base.h.dim)
    ]
    psi_ind = _fiber_coordinates(ext.i_bar, total.phi * ext.i, "psi square")
    induced = MorphismRep(
        base,
        Representation(base.g, rep.dim_v, v_action),
        Representation(base.h, rep.dim_w, w_action),
        psi_ind,
    )
    cochain = MCochain(induced, 2, theta=theta, gamma=gamma, eta=eta)
    closed = mla_differential(induced, 2).apply(cochain.to_vector())
    if any(closed):
        raise AssertionError("extracted cochain is not closed; internal inconsistency")

    if second is not None:
        s2, sbar2 = second
        _, induced2 = extract_cocycle(ext, s2, sbar2)
        if (induced2.v.action != induced.v.action
                or induced2.w.action != induced.w.action
                or induced2.psi != induced.psi):
            raise AssertionError("induced representation depends on the section")
    return cochain, induced


def _sub(a: list[Fraction], b: list[Fraction]) -> list[Fraction]:
    return [x - y for x, y in zip(a, b)]


def _bracket_defect(total_alg: LieAlgebra, i_mat: Matrix, s: Matrix,
                    base_alg: LieAlgebra, context: str) -> Matrix:
    """Coordinates of [s x, s y] - s [x, y] on increasing basis pairs."""
    pairs = ExteriorBasis(base_alg.dim, 2)
    cols = []
    for (i, j) in pairs.tuples:
        lifted = total_alg.bracket(s.col(i), s.col(j))
        projected = s.apply(base_alg.c[i][j])
        cols.append(Matrix.column(_sub(lifted, projected)))
    vectors = Matrix.hstack(cols) if cols else Matrix.zeros(total_alg.dim, 0)
    return _fiber_coordinates(i_mat, vectors, f"{context} defect")


def coboundary_isomorphism(rep: MorphismRep, c1: MCochain, c2: MCochain,
                           d0: Matrix, del0: Matrix) -> tuple[Matrix, Matrix]:
    """The extension isomorphism induced by a simple degree-1 coboundary.

    Requires c1 - c2 = delta(d0, del0, 0); returns the pair
    alpha(x, v) = (x, v + d0 x), beta(h, w) = (h, w + del0 h), verified to
    be invertible homomorphisms from the c1-extension to the c2-extension
    commuting with phi_hat and with all four structure maps.
    """
    base = rep.base
    if (d0.rows, d0.cols) != (rep.dim_v, base.g.dim):
        raise ShapeError(f"d0 must be {rep.dim_v}x{base.g.dim}")
    if (del0.rows, del0.cols) != (rep.dim_w, base.h.dim):
        raise ShapeError(f"del0 must be {rep.dim_w}x{base.h.dim}")
    if c1.degree != 2 or c2.degree != 2:
        raise ShapeError("cocycles must have degree 2")
    simple = MCochain(rep, 1, theta=d0, gamma=del0)
    boundary = mla_differential(rep, 1).apply(simple.to_vector())
    difference = _sub(c1.to_vector(), c2.to_vector())
    if boundary != difference:
        raise NotSimplyCohomologous(
            "c1 - c2 is not the simple coboundary of (d0, del0)"
        )

    ext1 = build_extension(rep, c1)
    ext2 = build_extension(rep, c2)
    alpha = Matrix.block([
        [Matrix.identity(base.g.dim), Matrix.zeros(base.g.dim, rep.dim_v)],
        [d0, Matrix.identity(rep.dim_v)],
    ])
    beta = Matrix.block([
        [Matrix.identity(base.h.dim), Matrix.zeros(base.h.dim, rep.dim_w)],
        [del0, Matrix.identity(rep.dim_w)],
    ])
    if not is_invertible(alpha) or not is_invertible(beta):
        raise AssertionError("coboundary isomorphism is not invertible")
    if not is_lie_homomorphism(ext1.total.g, ext2.total.g, alpha).ok:
        raise AssertionError("alpha is not a homomorphism of the extended algebras")
    if not is_lie_homomorphism(ext1.total.h, ext2.total.h, beta).ok:
        raise AssertionError("beta is not a homomorphism of the extended algebras")
    if ext2.total.phi * alpha != beta * ext1.total.phi:
        raise AssertionError("isomorphism does not commute with phi_hat")
    if alpha * ext1.i != ext2.i or ext2.p * alpha != ext1.p:
        raise AssertionError("isomorphism does not commute with i, p")
    if beta * ext1.i_bar != ext2.i_bar or ext2.p_bar * beta != ext1.p_bar:
        raise AssertionError("isomorphism does not commute with i_bar, p_bar")
    return alpha, beta
