"""Exterior-power bases and the Chevalley-Eilenberg differential as matrices.

A cochain f in Hom(wedge^n g, V) is coordinatized as the dim_v x binom(dim_g, n)
array f[.][t] = f(e_{t1} ^ ... ^ e_{tn}) over lexicographically ordered strictly
increasing tuples, flattened column-major: flat index = tuple_index * dim_v + coord.
That layout fixes the matrix form of every differential in the package.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import comb

from .algebras import Representation, MorphismLieAlgebra
from .errors import ShapeError
from .linalg import Complex, Matrix, ZERO, determinant


class ExteriorBasis:
    """Lexicographically ordered strictly increasing n-tuples from range(dim)."""

    def __init__(self, dim: int, n: int):
        self.dim = dim
        self.n = n
        self.tuples: list[tuple[int, ...]] = list(itertools.combinations(range(dim), n))
        self.index: dict[tuple[int, ...], int] = {t: i for i, t in enumerate(self.tuples)}

    def __len__(self) -> int:
        return len(self.tuples)


def sort_with_sign(indices: tuple[int, ...]) -> tuple[tuple[int, ...], int] | None:
    """Sort into strictly increasing order with the permutation sign.

    Returns None when an index repeats (the alternating evaluation is zero).
    """
    seq = list(indices)
    sign = 1
    for i in range(1, len(seq)):
        j = i
        while j > 0 and seq[j - 1] > seq[j]:
            seq[j - 1], seq[j] = seq[j], seq[j - 1]
            sign = -sign
            j -= 1
        if j > 0 and seq[j - 1] == seq[j]:
            return None
    return tuple(seq), sign


def cochain_dim(dim_g: int, dim_v: int, n: int) -> int:
    """dim Hom(wedge^n g, V) = dim_v * binom(dim_g, n)."""
    if n < 0:
        return 0
    return dim_v * comb(dim_g, n)


def ce_differential(rep: Representation, n: int) -> Matrix:
    """Matrix of the Chevalley-Eilenberg differential C^n(g, V) -> C^{n+1}(g, V).

    (delta f)(x_1, ..., x_{n+1})
        = sum_i (-1)^{i+1} rho(x_i) f(..., x_i omitted, ...)
        + sum_{i<j} (-1)^{i+j} f([x_i, x_j], ..., x_i, x_j omitted, ...),
    evaluated on increasing basis tuples, with bracket insertions re-sorted
    into increasing order under the permutation sign.
    """
    if n < 0:
        raise ShapeError("degree must be nonnegative")
    g = rep.algebra
    dim_v = rep.dim_v
    src = ExteriorBasis(g.dim, n)
    dst = ExteriorBasis(g.dim, n + 1)
    rows: list[dict[int, Fraction]] = [{} for _ in range(len(dst) * dim_v)]

    for t_idx, tup in enumerate(dst.tuples):
        for i in range(n + 1):
            # Action term: (-1)^{i+1} rho(e_{tup[i]}) applied to f at the omitted tuple.
            omitted = tup[:i] + tup[i + 1:]
            s_idx = src.index[omitted]
            sign = 1 if i % 2 == 0 else -1
            rho = rep.action[tup[i]]
            for r in range(dim_v):
                row = rows[t_idx * dim_v + r]
                for c, x in rho.row_items(r):
                    col = s_idx * dim_v + c
                    row[col] = row.get(col, ZERO) + sign * x
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                # Bracket-insertion term with sign (-1)^{i+j} for 1-based i < j.
                pair_sign = 1 if (i + j) % 2 == 0 else -1
                rest = tuple(tup[t] for t in range(n + 1) if t != i and t != j)
                bracket = g.c[tup[i]][tup[j]]
                for k in range(g.dim):
                    coeff = bracket[k]
                    if not coeff:
                        continue
                    sorted_sign = sort_with_sign((k,) + rest)
                    if sorted_sign is None:
                        continue
                    stup, ssign = sorted_sign
                    s_idx = src.index[stup]
                    total = coeff * pair_sign * ssign
                    for r in range(dim_v):
                        row, col = rows[t_idx * dim_v + r], s_idx * dim_v + r
                        row[col] = row.get(col, ZERO) + total
    return Matrix.from_dicts(rows, len(src) * dim_v)


def ce_complex(rep: Representation) -> Complex:
    """The Chevalley-Eilenberg complex of a representation."""
    return Complex(lambda n: cochain_dim(rep.algebra.dim, rep.dim_v, n),
                   lambda n: ce_differential(rep, n), "Chevalley-Eilenberg")


def ce_cohomology_dim(rep: Representation, n: int) -> int:
    """dim ker delta_n minus rank delta_{n-1}, after checking their product is 0."""
    return ce_complex(rep).dim_H(n)


def pullback_rep(m: MorphismLieAlgebra, w: Representation) -> Representation:
    """The g-action on W obtained through phi: rho(x) w = rho_W(phi x) w."""
    if w.algebra.dim != m.h.dim:
        raise ShapeError("w must be a representation of the target algebra")
    action = [w.act(m.phi.col(i)) for i in range(m.g.dim)]
    return Representation(m.g, w.dim_v, action)


def wedge_minor_matrix(phi: Matrix, n: int) -> Matrix:
    """Matrix of wedge^n phi on lex-ordered tuple bases.

    Entry [T, S] is the determinant of phi's submatrix on rows T, columns S,
    so (wedge^n phi)(e_S) = sum_T det(phi[T, S]) f_T.
    """
    src = ExteriorBasis(phi.cols, n)
    dst = ExteriorBasis(phi.rows, n)
    rows = [{col: determinant(phi.submatrix(t, s)) for col, s in enumerate(src.tuples)}
            for t in dst.tuples]
    return Matrix.from_dicts(rows, len(src))


def postcompose_matrix(psi: Matrix, num_tuples: int) -> Matrix:
    """Matrix of f -> psi . f on flattened cochains over a fixed tuple basis."""
    rows = [{s * psi.cols + c: x for c, x in psi.row_items(r)}
            for s in range(num_tuples) for r in range(psi.rows)]
    return Matrix.from_dicts(rows, num_tuples * psi.cols)


def precompose_matrix(minors: Matrix, dim_w: int) -> Matrix:
    """Matrix of gamma -> gamma . (wedge^n phi) on flattened cochains.

    minors is wedge_minor_matrix(phi, n) with rows over target tuples T and
    columns over source tuples S; the output sends the T-block of gamma to
    the S-block weighted by minors[T, S].
    """
    n_src = minors.cols  # tuples over g
    n_dst = minors.rows  # tuples over h
    rows: list[dict[int, Fraction]] = [{} for _ in range(n_src * dim_w)]
    for t in range(n_dst):
        for s, coeff in minors.row_items(t):
            for r in range(dim_w):
                rows[s * dim_w + r][t * dim_w + r] = coeff
    return Matrix.from_dicts(rows, n_dst * dim_w)


def morphism_matrix(d_v: Matrix, d_w: Matrix, psi: Matrix, tuples: int,
                    pre_phi: Matrix, d_pull: Matrix, graph: bool = False) -> Matrix:
    """The mapping-cone differential, shared by the Lie and the group side.

    [[d_v, 0, 0], [0, d_w, 0], [psi . , -pre_phi, -d_pull]] on (theta, gamma,
    eta), with psi postcomposed over ``tuples`` source tuples.  With C^{-1} = 0
    degree 0 is the same matrix: d_pull has no columns, pre_phi is the
    identity on W and tuples is 1.  With ``graph`` the map is restricted to
    the graph {(v, psi v)} of psi, the default complex's C^0 = V.
    """
    d = Matrix.block([
        [d_v, Matrix.zeros(d_v.rows, d_w.cols), Matrix.zeros(d_v.rows, d_pull.cols)],
        [Matrix.zeros(d_w.rows, d_v.cols), d_w, Matrix.zeros(d_w.rows, d_pull.cols)],
        [postcompose_matrix(psi, tuples), -pre_phi, -d_pull],
    ])
    return d * Matrix.vstack([Matrix.identity(psi.cols), psi]) if graph else d
