"""Finite groups, bar-complex cochains, and morphism-group cohomology.

A group n-cochain with values in a module of dimension m is coordinatized
as an m x (number of n-tuples) array over lexicographically ordered tuples
of element indices, flattened tuple-major exactly like the Lie-side
cochains.  The normalized subcomplex keeps only cochains vanishing when
some argument is the identity; its tuples simply omit the identity index.

The morphism complex is one ``linalg.cone``: the mapping cone of the chain
map f(Theta, Gamma) = psi . Theta - Gamma . Phi^n from C(G, V) + C(H, W) to
C(G, W_Phi), W pulled back along Phi, cut down in degree 0 to V, the graph
{(v, psi v)}.  Degree n >= 1 holds blocks (Theta, Gamma, Lambda) and
    delta(Theta, Gamma, Lambda) = (delta' Theta, delta'' Gamma, f(Theta, Gamma) - delta''' Lambda).
"""

from __future__ import annotations

import itertools
from math import lcm
from typing import Callable, Sequence

from .algebras import CheckResult, intertwining_defect
from .cecomplex import postcompose_matrix, precompose_matrix
from .errors import NotAHomomorphism, ShapeError, ValidationError
from .linalg import Complex, Matrix, _matrix, cone


class FiniteGroup:
    """A finite group given by its multiplication table of element indices."""

    def __init__(self, mul: Sequence[Sequence[int]]):
        order = len(mul)
        if order == 0:
            raise ValidationError("a group has at least the identity element")
        table = [list(row) for row in mul]
        if any(len(row) != order for row in table):
            raise ShapeError(f"multiplication table must be {order}x{order}")
        for row in table:
            for x in row:
                if not isinstance(x, int) or not 0 <= x < order:
                    raise ValidationError(f"table entry {x!r} is not an element index")
        identity = next(
            (e for e in range(order)
             if all(table[e][x] == x and table[x][e] == x for x in range(order))),
            None,
        )
        if identity is None:
            raise ValidationError("no identity element in the table")
        for a in range(order):
            for b in range(order):
                for c in range(order):
                    if table[table[a][b]][c] != table[a][table[b][c]]:
                        raise ValidationError(
                            f"associativity fails at ({a}, {b}, {c})"
                        )
        for a in range(order):
            if not any(table[a][b] == identity and table[b][a] == identity
                       for b in range(order)):
                raise ValidationError(f"element {a} has no inverse")
        self.order = order
        self.mul = tuple(tuple(row) for row in table)
        self.identity = identity

    @classmethod
    def trivial(cls) -> FiniteGroup:
        return cls([[0]])

    @classmethod
    def cyclic(cls, n: int) -> FiniteGroup:
        if n < 1:
            raise ShapeError("cyclic group order must be positive")
        return cls([[(i + j) % n for j in range(n)] for i in range(n)])

    @classmethod
    def klein_four(cls) -> FiniteGroup:
        return cls([[i ^ j for j in range(4)] for i in range(4)])

    def op(self, a: int, b: int) -> int:
        return self.mul[a][b]

    def inverse(self, a: int) -> int:
        return next(b for b in range(self.order) if self.mul[a][b] == self.identity)

    def __repr__(self) -> str:
        return f"FiniteGroup(order={self.order})"


class GroupModule:
    """A representation of a finite group by invertible matrices."""

    def __init__(self, group: FiniteGroup, dim: int, action: Sequence[Matrix],
                 validate: bool = True):
        if len(action) != group.order:
            raise ShapeError("need one action matrix per group element")
        for m in action:
            if (m.rows, m.cols) != (dim, dim):
                raise ShapeError(f"action matrices must be {dim}x{dim}")
        self.group = group
        self.dim = dim
        self.action = list(action)
        if validate:
            res = self.check()
            if not res:
                raise ValidationError(res.detail)

    def check(self) -> CheckResult:
        if self.action[self.group.identity] != Matrix.identity(self.dim):
            return CheckResult(False, "identity must act as the identity matrix")
        for a in range(self.group.order):
            for b in range(self.group.order):
                if self.action[self.group.mul[a][b]] != self.action[a] * self.action[b]:
                    return CheckResult(
                        False, f"action of product fails at elements ({a}, {b})"
                    )
        return CheckResult(True)

    @classmethod
    def trivial(cls, group: FiniteGroup, dim: int) -> GroupModule:
        return cls(group, dim, [Matrix.identity(dim)] * group.order)

    def __repr__(self) -> str:
        return f"GroupModule(order={self.group.order}, dim={self.dim})"


def group_cochain_tuples(group: FiniteGroup, n: int,
                         normalized: bool = False) -> list[tuple[int, ...]]:
    """Lexicographic n-tuples of element indices; normalized omits the identity."""
    if n < 0:
        raise ShapeError("degree must be nonnegative")
    if normalized:
        pool = [g for g in range(group.order) if g != group.identity]
    else:
        pool = list(range(group.order))
    return list(itertools.product(pool, repeat=n))


def group_cochain_dim(group: FiniteGroup, dim: int, n: int,
                      normalized: bool = False) -> int:
    """dim * |G|^n, or dim * (|G| - 1)^n normalized; no cochains below degree 0."""
    if n < 0:
        return 0
    pool = group.order - 1 if normalized else group.order
    return dim * pool ** n


def group_differential(module: GroupModule, n: int,
                       normalized: bool = False) -> Matrix:
    """Matrix of the inhomogeneous bar differential C^n -> C^{n+1}.

    (df)(g_1, ..., g_{n+1}) = rho(g_1) f(g_2, ..., g_{n+1})
        + sum_{i=1}^{n} (-1)^i f(g_1, ..., g_i g_{i+1}, ..., g_{n+1})
        + (-1)^{n+1} f(g_1, ..., g_n).

    Normalized cochains evaluate to zero on tuples containing the identity,
    so merged tuples that hit the identity simply drop out.  Summed in
    integers over one common denominator of the action matrices: each
    target tuple's faces once, then row by row, dropping an entry that
    cancels, so the rows are zero-free.
    """
    group, dim = module.group, module.dim
    src = group_cochain_tuples(group, n, normalized)
    dst = group_cochain_tuples(group, n + 1, normalized)
    src_index = {t: i for i, t in enumerate(src)}
    den = lcm(*(m.integer_rows()[1] for m in module.action))
    acts = [m.integer_rows(den)[0] for m in module.action]
    out: list[dict[int, int]] = []
    for tup in dst:
        # The faces of tup, each once, with their signs summed (times den):
        # face i <= n merges g_i g_{i+1}, face n + 1 drops g_{n+1}.
        faces: dict[int, int] = {}
        for i in range(1, n + 2):
            face = (tup[:i - 1] + (group.mul[tup[i - 1]][tup[i]],) + tup[i + 1:]
                    if i <= n else tup[:n])
            if (s := src_index.get(face)) is not None:
                faces[s * dim] = faces.get(s * dim, 0) + (den if i % 2 == 0 else -den)
        s = src_index.get(tup[1:])
        for a in range(dim):
            row = {} if s is None else {s * dim + b: x for b, x in acts[tup[0]][a].items()}
            for col, x in faces.items():
                if x:
                    if y := row.get(col + a, 0) + x:
                        row[col + a] = y
                    else:
                        del row[col + a]
            out.append(row)
    return _matrix(len(src) * dim, out, [den] * len(out))


def group_complex(module: GroupModule, normalized: bool = False,
                  size_ceiling: int | None = None) -> Complex:
    """The bar complex of a module (normalized subcomplex if requested)."""
    return Complex(lambda n: group_cochain_dim(module.group, module.dim, n, normalized),
                   lambda n: group_differential(module, n, normalized), "bar",
                   size_ceiling)


def group_cohomology_dim(module: GroupModule, n: int, normalized: bool = False) -> int:
    """dim H^n of the bar complex (normalized subcomplex if requested)."""
    if n < 0:
        raise ShapeError("degree must be nonnegative")
    return group_complex(module, normalized).dim_H(n)


class GroupModuleTriple:
    """Modules (V, W, psi) over a group homomorphism Phi: G -> H.

    psi intertwines the actions through Phi: psi rho_V(g) = rho_W(Phi g) psi.
    """

    def __init__(self, g: FiniteGroup, h: FiniteGroup, phi: Sequence[int],
                 v: GroupModule, w: GroupModule, psi: Matrix):
        if v.group is not g and v.group.mul != g.mul:
            raise ShapeError("V must be a module over the source group")
        if w.group is not h and w.group.mul != h.mul:
            raise ShapeError("W must be a module over the target group")
        if len(phi) != g.order:
            raise ShapeError("phi must assign an image to every source element")
        if any(not isinstance(x, int) or not 0 <= x < h.order for x in phi):
            raise ValidationError("phi values must be target element indices")
        if (psi.rows, psi.cols) != (w.dim, v.dim):
            raise ShapeError(f"psi must be {w.dim}x{v.dim}")
        self.g = g
        self.h = h
        self.phi = tuple(phi)
        self.v = v
        self.w = w
        self.psi = psi
        self._w_phi: GroupModule | None = None  # W pulled back along Phi, kept on first use
        for a in range(g.order):
            for b in range(g.order):
                if phi[g.mul[a][b]] != h.mul[phi[a]][phi[b]]:
                    raise NotAHomomorphism(f"phi is not a homomorphism at elements ({a}, {b})")
        if (spot := intertwining_defect(psi, v.action, (w.action[x] for x in phi))) is not None:
            raise ValidationError(f"psi does not intertwine the actions at element {spot[0]}")

    @property
    def dim_v(self) -> int:
        return self.v.dim

    @property
    def dim_w(self) -> int:
        return self.w.dim

    @classmethod
    def identity(cls, module: GroupModule) -> GroupModuleTriple:
        """The triple (G, G, id) acting on (V, V, id)."""
        return cls(module.group, module.group, list(range(module.group.order)),
                   module, module, Matrix.identity(module.dim))

    def __repr__(self) -> str:
        return (f"GroupModuleTriple(|G|={self.g.order}, |H|={self.h.order}, "
                f"dim_v={self.dim_v}, dim_w={self.dim_w})")


def pullback_module(t: GroupModuleTriple) -> GroupModule:
    """W as a G-module through Phi: g acts by rho_W(Phi g)."""
    return GroupModule(t.g, t.dim_w, [t.w.action[t.phi[a]] for a in range(t.g.order)],
                       validate=False)


def mlg_block_dims(t: GroupModuleTriple, n: int,
                   normalized: bool = False) -> tuple[int, int, int]:
    """(Theta, Gamma, Lambda) coordinate counts in degree n; degree 0 is V."""
    return (
        group_cochain_dim(t.g, t.dim_v, n, normalized),
        group_cochain_dim(t.h, t.dim_w, n, normalized) if n else 0,
        group_cochain_dim(t.g, t.dim_w, n - 1, normalized),
    )


def mlg_differential(t: GroupModuleTriple, n: int, normalized: bool = False) -> Matrix:
    """Matrix of the morphism-group differential C^n_mLG -> C^{n+1}_mLG: d_n of ``mlg_complex``."""
    return mlg_complex(t, normalized).differential(n)


def _chain_map(t: GroupModuleTriple,
               normalized: bool) -> tuple[tuple[Complex, Complex], Complex, Callable]:
    """(source, target, f) of the morphism-group cone: f_n = [psi . | -(. Phi^n)]
    from C(G, V) + C(H, W) to C(G, W_Phi); W_Phi is built on the first
    degree >= 1 and kept on t for every later complex."""
    def pulled() -> GroupModule:
        if t._w_phi is None:
            t._w_phi = pullback_module(t)
        return t._w_phi

    w_phi = Complex(lambda n: group_cochain_dim(t.g, t.dim_w, n, normalized),
                    lambda n: group_differential(pulled(), n, normalized), "bar")

    def f(n: int) -> tuple[Matrix, Matrix]:
        g_tuples = group_cochain_tuples(t.g, n, normalized)
        h_index = {tup: i for i, tup in enumerate(group_cochain_tuples(t.h, n, normalized))}
        phi_n: list[dict[int, int]] = [{} for _ in h_index]  # -Phi^n: rows over H^n, columns over G^n
        for s, tup in enumerate(g_tuples):
            if (m := h_index.get(tuple(t.phi[x] for x in tup))) is not None:
                phi_n[m][s] = -1
        return (postcompose_matrix(t.psi, len(g_tuples)),
                precompose_matrix(Matrix.from_integer_rows(phi_n, len(g_tuples)), t.dim_w))

    return (group_complex(t.v, normalized), group_complex(t.w, normalized)), w_phi, f


def mlg_complex(t: GroupModuleTriple, normalized: bool = False,
                size_ceiling: int | None = None) -> Complex:
    """The morphism-group complex of a triple: the cone of ``_chain_map``, with C^0 = V,
    the graph [I; psi] of psi."""
    return cone(*_chain_map(t, normalized), t.psi, "morphism-group", size_ceiling)


def mlg_cohomology_dim(t: GroupModuleTriple, n: int, normalized: bool = False) -> int:
    """dim H^n_mLG, verifying that consecutive differentials compose to zero."""
    if n < 0:
        raise ShapeError("degree must be nonnegative")
    return mlg_complex(t, normalized).dim_H(n)
