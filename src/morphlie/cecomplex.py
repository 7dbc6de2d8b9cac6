"""Exterior-power bases and the Chevalley-Eilenberg differential as matrices.

A cochain f in Hom(wedge^n g, V) is coordinatized as the dim_v x binom(dim_g, n)
array f[.][t] = f(e_{t1} ^ ... ^ e_{tn}) over lexicographically ordered strictly
increasing tuples, flattened column-major: flat index = tuple_index * dim_v + coord.
That layout fixes the matrix form of every differential in the package.
"""

from __future__ import annotations

import itertools
from functools import cache
from math import comb
from typing import Sequence

from .algebras import Representation, MorphismLieAlgebra
from .errors import ShapeError
from .linalg import Complex, Matrix, Scalar, _matrix


class ExteriorBasis:
    """Lexicographically ordered strictly increasing n-tuples from range(dim)."""

    def __init__(self, dim: int, n: int):
        self.dim = dim
        self.n = n
        self.tuples: list[tuple[int, ...]] = list(itertools.combinations(range(dim), n))
        self.index: dict[tuple[int, ...], int] = {t: i for i, t in enumerate(self.tuples)}

    def __len__(self) -> int:
        return len(self.tuples)


# One ExteriorBasis per (dim, n), shared by the builders, which only read it.
exterior_basis = cache(ExteriorBasis)


def first_nonzero_tuple(flat: Sequence[Scalar], dim_g: int, n: int,
                        dim_v: int) -> tuple[int, ...] | None:
    """The basis n-tuple, k // dim_v, holding the first nonzero coordinate k of ``flat``, or None."""
    k = next((k for k, x in enumerate(flat) if x), None)
    return None if k is None else exterior_basis(dim_g, n).tuples[k // dim_v]


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
    into increasing order under the permutation sign; summed in integers.
    The action terms of one target tuple hold disjoint columns; the bracket
    terms are summed per source tuple first, and an entry that cancels is
    dropped, so the rows are zero-free.
    """
    if n < 0:
        raise ShapeError("degree must be nonnegative")
    g = rep.algebra
    dim_v = rep.dim_v
    src, dst = exterior_basis(g.dim, n), exterior_basis(g.dim, n + 1)
    acts, den = rep.integer_action()
    scale = den // g.den
    rows: list[dict[int, int]] = []
    for tup in dst.tuples:
        # Action terms: (-1)^{i+1} rho(e_{tup[i]}) applied to f at the omitted tuple.
        omit = [(src.index[tup[:i] + tup[i + 1:]] * dim_v, acts[tup[i]], 1 - 2 * (i % 2))
                for i in range(n + 1)]
        # Bracket-insertion terms with sign (-1)^{i+j} for 1-based i < j.
        brackets: dict[int, int] = {}
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                pair_sign = 1 if (i + j) % 2 == 0 else -1
                rest = tup[:i] + tup[i + 1:j] + tup[j + 1:]
                for k, coeff in g.nonzero[tup[i]][tup[j]]:
                    if (sorted_sign := sort_with_sign((k,) + rest)) is not None:
                        stup, ssign = sorted_sign
                        s = src.index[stup] * dim_v
                        brackets[s] = brackets.get(s, 0) + pair_sign * ssign * coeff
        for r in range(dim_v):
            row = {}
            for off, rho, sign in omit:
                for c, x in rho[r].items():
                    row[off + c] = sign * x
            for s, x in brackets.items():
                if x:
                    if y := row.get(s + r, 0) + scale * x:
                        row[s + r] = y
                    else:
                        del row[s + r]
            rows.append(row)
    return _matrix(len(src) * dim_v, rows, [den] * len(rows))


def ce_complex(rep: Representation) -> Complex:
    """The Chevalley-Eilenberg complex of a representation."""
    return Complex(lambda n: cochain_dim(rep.algebra.dim, rep.dim_v, n),
                   lambda n: ce_differential(rep, n), "Chevalley-Eilenberg")


def ce_cohomology_dim(rep: Representation, n: int) -> int:
    """dim ker delta_n minus rank delta_{n-1}, after checking their product is 0."""
    return ce_complex(rep).dim_H(n)


def pullback_rep(m: MorphismLieAlgebra, w: Representation) -> Representation:
    """The g-action on W obtained through phi: rho(x) w = rho_W(phi x) w.

    Built unchecked: it satisfies the representation axiom because W does
    and phi is a homomorphism.
    """
    if w.algebra.dim != m.h.dim:
        raise ShapeError("w must be a representation of the target algebra")
    action = [w.act(m.phi.col(i)) for i in range(m.g.dim)]
    return Representation(m.g, w.dim_v, action, validate=False)


def wedge_minor_matrix(phi: Matrix, n: int) -> Matrix:
    """Matrix of wedge^n phi on lex-ordered tuple bases.

    Column S is phi e_{s1} ^ ... ^ phi e_{sn}, expanded one factor at a time
    over the nonzero entries of phi's columns, each product of basis vectors
    re-sorted under its permutation sign.  Entry [T, S] is therefore the
    determinant of phi's submatrix on rows T, columns S.  It expands the
    integer P of phi = P / d and divides by d^n.
    """
    src, dst = exterior_basis(phi.cols, n), exterior_basis(phi.rows, n)
    columns, d = phi.transpose().integer_rows()
    rows: list[dict[int, int]] = [{} for _ in range(len(dst))]
    for s_idx, s in enumerate(src.tuples):
        wedge = {(): 1}
        for j in s:
            step: dict[tuple[int, ...], int] = {}
            for t, x in wedge.items():
                for r, y in columns[j].items():
                    if (sorted_sign := sort_with_sign(t + (r,))) is not None:
                        u, sign = sorted_sign
                        step[u] = step.get(u, 0) + sign * x * y
            wedge = step
        for t, x in wedge.items():
            if x:
                rows[dst.index[t]][s_idx] = x
    return _matrix(len(src), rows, [d ** n] * len(rows))


def postcompose_matrix(psi: Matrix, num_tuples: int) -> Matrix:
    """Matrix of f -> psi . f on flattened cochains over a fixed tuple basis."""
    psi_rows, d = psi.integer_rows()
    rows = [{s * psi.cols + c: x for c, x in row.items()}
            for s in range(num_tuples) for row in psi_rows]
    return _matrix(num_tuples * psi.cols, rows, [d] * len(rows))


def precompose_matrix(minors: Matrix, dim_w: int) -> Matrix:
    """Matrix of gamma -> gamma . (wedge^n phi) on flattened cochains.

    minors is wedge_minor_matrix(phi, n) with rows over target tuples T and
    columns over source tuples S; the output sends the T-block of gamma to
    the S-block weighted by minors[T, S].
    """
    n_src = minors.cols  # tuples over g
    n_dst = minors.rows  # tuples over h
    minor_rows, d = minors.integer_rows()
    rows: list[dict[int, int]] = [{} for _ in range(n_src * dim_w)]
    for t, minor_row in enumerate(minor_rows):
        for s, coeff in minor_row.items():
            for r in range(dim_w):
                rows[s * dim_w + r][t * dim_w + r] = coeff
    return _matrix(n_dst * dim_w, rows, [d] * len(rows))

