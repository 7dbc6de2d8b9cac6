"""The cochain complex of a morphism Lie algebra and its cohomology.

The complex is one ``linalg.cone``: the mapping cone of the ``ChainMap``
f(theta, gamma) = psi . theta - gamma . wedge^n phi from C(g, V) + C(h, W)
to C(g, W_phi), W pulled back along phi, cut down in degree 0 to V, the
graph {(v, psi v)}; f sizes the blocks and says if psi . is a chain
isomorphism.  Degree n >= 1 cochains are triples (theta, gamma, eta)
with eta in Hom(wedge^{n-1} g, W), and
    delta(theta, gamma, eta) = (delta' theta, delta'' gamma, f(theta, gamma) - delta''' eta),
    delta(v) = (delta' v, delta'' (psi v), psi v - psi v),
with delta', delta'' and delta''' the Chevalley-Eilenberg differentials of
V, W and W_phi.  Flattened coordinate vectors order the blocks (theta,
gamma, eta), each block column-major by basis tuple (``_flat``,
``_value_array``).  ``MCochain`` adds, subtracts, applies delta through
``mla_differential`` (``coboundary``) and names its ``first_nonzero`` entry.

The functions that take ``cone=True`` use the full cone, which differs
only in degree 0: there the cochains are pairs (v, w) in V + W, and
    delta(v, w) = (delta' v, delta'' w, psi v - w).
The full cone has the long exact sequence of a mapping cone, so
H^n(g, V) = H^n(h, W) = H^{n-1}(g, W_phi) = 0 forces its H^n to vanish.
The default complex is a subcomplex of the full cone with quotient W in
degree 0, and the two share H^0; hence the default H^1 is larger by
exactly dim W, and every other degree agrees.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from .algebras import (
    CheckResult,
    LieAlgebra,
    MorphismLieAlgebra,
    MorphismRep,
    Representation,
    check_jacobi,
    check_morphism_homomorphism,
)
from .cecomplex import (
    ce_complex,
    ce_differential,
    cochain_dim,
    exterior_basis,
    postcompose_matrix,
    precompose_matrix,
    pullback_rep,
    wedge_minor_matrix,
)
from .errors import (
    NotAHomomorphism,
    NotASubalgebra,
    NotPreserved,
    ShapeError,
)
from .linalg import (
    ChainMap,
    Complex,
    Matrix,
    ZERO,
    complete_basis,
    cone as mapping_cone,
    inverse,
    rank,
    rat,
    solve_columns,
)


def mla_block_dims(rep: MorphismRep, n: int) -> tuple[int, int, int]:
    """Flat sizes of the (theta, gamma, eta) blocks at degree n; degree 0 is (V, 0, 0)."""
    return _chain_map(rep).sizes(n, graph=True)


def mla_block_shapes(rep: MorphismRep, n: int) -> tuple[tuple[int, int], ...]:
    """(rows, tuples) of the theta, gamma and eta value arrays at degree n >= 1."""
    base = rep.base
    return ((rep.dim_v, comb(base.g.dim, n)), (rep.dim_w, comb(base.h.dim, n)),
            (rep.dim_w, comb(base.g.dim, n - 1)))


def _flat(m: Matrix) -> list[Fraction]:
    """The cochain layout of a value array: its columns, one after another."""
    return [x for col in m.transpose().to_lists() for x in col]


def _value_array(flat: list[Fraction], rows: int, cols: int) -> Matrix:
    """The rows x cols value array laid out as ``flat``: row r is flat[r::rows]."""
    return Matrix.from_rows([flat[r::rows] for r in range(rows)], cols)


class MCochain:
    """A degree-n cochain: value arrays for theta, gamma, eta (or v at n=0).

    Each array is a Matrix whose column t is the value on the t-th basis
    tuple; degree 0 stores only the single vector in V.
    """

    def __init__(self, rep: MorphismRep, degree: int,
                 theta: Matrix | None = None, gamma: Matrix | None = None,
                 eta: Matrix | None = None, v: list[Fraction] | None = None):
        self.rep = rep
        self.degree = degree
        if degree < 0:
            raise ShapeError("degree must be nonnegative")
        if degree == 0:
            if v is None or theta is not None or gamma is not None or eta is not None:
                raise ShapeError("degree 0 carries exactly the V-vector")
            if len(v) != rep.dim_v:
                raise ShapeError("v must have length dim V")
            self.v = [rat(x) for x in v]
            self.theta = self.gamma = self.eta = None
            return
        if v is not None:
            raise ShapeError("positive degree carries no V-vector")
        blocks = []
        for name, block, (rows, cols) in zip(("theta", "gamma", "eta"), (theta, gamma, eta),
                                             mla_block_shapes(rep, degree)):
            block = block if block is not None else Matrix.zeros(rows, cols)
            if (block.rows, block.cols) != (rows, cols):
                raise ShapeError(f"{name} must be {rows}x{cols}")
            blocks.append(block)
        self.v = None
        self.theta, self.gamma, self.eta = blocks

    def _blocks(self) -> tuple[Matrix, ...]:
        """The value arrays in the flat order; degree 0's is v as a column."""
        return (Matrix.column(self.v),) if self.degree == 0 else (self.theta, self.gamma, self.eta)

    def to_vector(self) -> list[Fraction]:
        """Flatten to (theta-block, gamma-block, eta-block) coordinates, or v."""
        return [x for block in self._blocks() for x in _flat(block)]

    @classmethod
    def from_vector(cls, rep: MorphismRep, degree: int, flat: list[Fraction]) -> MCochain:
        if degree <= 0:
            return cls(rep, degree, v=list(flat))
        shapes = mla_block_shapes(rep, degree)
        if len(flat) != (size := sum(rows * cols for rows, cols in shapes)):
            raise ShapeError(f"flat vector must have length {size}")
        blocks, pos = [], 0
        for rows, cols in shapes:
            blocks.append(_value_array(flat[pos:pos + rows * cols], rows, cols))
            pos += rows * cols
        return cls(rep, degree, *blocks)

    def coboundary(self) -> MCochain:
        """delta of this cochain: d_n of ``mla_complex`` applied, a degree n+1 cochain."""
        return MCochain.from_vector(self.rep, self.degree + 1,
                                    mla_differential(self.rep, self.degree).apply(self.to_vector()))

    def first_nonzero(self) -> tuple[str, tuple[int, ...]] | None:
        """Block name and basis tuple of the first nonzero coordinate; None when zero."""
        n, g, h = self.degree, self.rep.base.g.dim, self.rep.base.h.dim
        spots = (("theta", g, n), ("gamma", h, n), ("eta", g, n - 1)) if n else (("v", g, 0),)
        for (name, dim, arity), block in zip(spots, self._blocks()):
            if (col := block.first_nonzero_col()) is not None:
                return name, exterior_basis(dim, arity).tuples[col]

    def __add__(self, other: MCochain) -> MCochain:
        return self._plus(other, 1)

    def __sub__(self, other: MCochain) -> MCochain:
        return self._plus(other, -1)

    def _plus(self, other: MCochain, sign: int) -> MCochain:
        if other.degree != self.degree:
            raise ShapeError("cochains of different degrees")
        sums = [Matrix.lincomb(((1, a), (sign, b)), a.rows, a.cols)
                for a, b in zip(self._blocks(), other._blocks())]
        if self.degree == 0:
            return MCochain(self.rep, 0, v=sums[0].col(0))
        return MCochain(self.rep, self.degree, *sums)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MCochain):
            return NotImplemented
        return self.degree == other.degree and self._blocks() == other._blocks()

    def __repr__(self) -> str:
        return f"MCochain(degree={self.degree}, dim={len(self.to_vector())})"


def mla_differential(rep: MorphismRep, n: int, cone: bool = False) -> Matrix:
    """Block matrix of the morphism differential from degree n to n+1: d_n of ``mla_complex``."""
    return mla_complex(rep, cone).differential(n)


def _chain_map(rep: MorphismRep) -> ChainMap:
    """f_n = [psi . | -(. wedge^n phi)]: C(g, V) + C(h, W) -> C(g, W_phi), a chain map when rep
    and its base were checked (kept verdicts) and g and h are Lie.  W_phi, W pulled back
    along phi, is built on the first degree >= 1 and kept on rep for every later complex."""
    base = rep.base

    def pulled() -> Representation:
        if rep._w_phi is None:
            rep._w_phi = pullback_rep(base, rep.w)
        return rep._w_phi

    w_phi = Complex(lambda n: cochain_dim(base.g.dim, rep.dim_w, n),
                    lambda n: ce_differential(pulled(), n), "Chevalley-Eilenberg")
    return ChainMap((ce_complex(rep.v), ce_complex(rep.w)), w_phi,
                    lambda n: (postcompose_matrix(rep.psi, comb(base.g.dim, n)),
                               precompose_matrix(-wedge_minor_matrix(base.phi, n), rep.dim_w)),
                    rep.psi, lambda: (rep._verdict and base._verdict and check_jacobi(base.g)
                                      and check_jacobi(base.h)))


def mla_complex(rep: MorphismRep, cone: bool = False,
                size_ceiling: int | None = None) -> Complex:
    """The morphism complex of rep, or its full mapping cone with ``cone=True``.

    The cone of ``_chain_map``, cut down in degree 0 to V, the graph
    [I; psi] of psi, unless ``cone``.  The simple variant keeps the
    eta-free columns.  With psi . a chain iso it is ranked on C(h, W) alone.
    """
    return mapping_cone(_chain_map(rep), not cone, "morphism", size_ceiling)


def mla_cohomology_dim(rep: MorphismRep, n: int, cone: bool = False) -> int:
    """dim ker delta_n minus rank delta_{n-1} in the morphism complex.

    Reported only after delta_n . delta_{n-1} = 0 has been verified; with
    ``cone=True`` this is the full cone's dimension.
    """
    return mla_complex(rep, cone).dim_H(n)


def simple_differential(rep: MorphismRep, n: int) -> Matrix:
    """delta restricted to cochains with vanishing eta component."""
    cx = mla_complex(rep)
    return cx.differential(n).submatrix(range(cx.dim(n + 1)), cx.keep(n))


def simple_cohomology_dim(rep: MorphismRep, n: int) -> int:
    """Cohomology with coboundaries restricted to eta-free cochains.

    delta_n . delta_{n-1} = 0 is verified before reporting; the restricted
    delta_{n-1} is a column selection of delta_{n-1}, so it follows.
    """
    return mla_complex(rep).dim_H(n, simple=True)


def invariant_vectors_dim(rep: MorphismRep) -> int:
    """dim of {v : rho_V(x) v = 0 for all x in g, rho_W(y) psi v = 0 for all y in h}.

    These are the degree-0 cocycles, dim ker d_0 = dim H^0.
    """
    return mla_complex(rep).dim_H(0)


def derivation_space_dim(rep: MorphismRep) -> int:
    """Dimension of the space of derivation triples (d, del, w), dim ker d_1.

    The derivation identities of check_derivation are the blocks of d_1.
    """
    cx = mla_complex(rep)
    return cx.dim(1) - cx.rank(1)


def inner_derivation_dim(rep: MorphismRep) -> int:
    """Dimension of the inner derivations (rho_V(.) v, rho_W(.) psi v, 0), rank d_0."""
    return mla_complex(rep).rank(0)


def outer_derivation_dim(rep: MorphismRep) -> int:
    """dim Der - dim InnDer, which is dim H^1."""
    return mla_complex(rep).dim_H(1)


def check_derivation(rep: MorphismRep, d: Matrix, del_: Matrix,
                     w: list) -> CheckResult:
    """Whether (d, del, w) is a derivation triple, that is d_1 (d, del, w) = 0.

    The theta, gamma and eta blocks of d_1 (d, del, w) are the identities
      d[x,y] = rho_V(x) d(y) - rho_V(y) d(x)          (basis pairs of g)
      del[h,k] = rho_W(h) del(k) - rho_W(k) del(h)    (basis pairs of h)
      rho_W(phi x) w = psi d(x) - del(phi x)          (basis vectors of g)
    and the report names the one at the first nonzero coordinate.
    """
    g, h = rep.base.g, rep.base.h
    if (d.rows, d.cols) != (rep.dim_v, g.dim):
        raise ShapeError(f"d must be {rep.dim_v}x{g.dim}")
    if (del_.rows, del_.cols) != (rep.dim_w, h.dim):
        raise ShapeError(f"del must be {rep.dim_w}x{h.dim}")
    if len(w) != rep.dim_w:
        raise ShapeError("w must have length dim W")
    spot = MCochain(rep, 1, theta=d, gamma=del_, eta=Matrix.column(w)).coboundary().first_nonzero()
    if spot is None:
        return CheckResult(True)
    block, tup = spot
    if block == "eta":
        return CheckResult(False, f"third identity fails at basis vector e{tup[0] + 1}")
    first, letter = ("first", "e") if block == "theta" else ("second", "f")
    return CheckResult(False, f"{first} identity fails on basis pair "
                              f"({letter}{tup[0] + 1}, {letter}{tup[1] + 1})")


def homomorphism_induced_rep(source: MorphismLieAlgebra, target: MorphismLieAlgebra,
                             alpha: Matrix, beta: Matrix) -> MorphismRep:
    """The representation of `source` on `target` through a homomorphism.

    rho_V(x) x' = [alpha x, x'] in target.g, rho_W(h) h' = [beta h, h'] in
    target.h, psi = target.phi; all representation invariants re-verified.
    """
    res = check_morphism_homomorphism(source, target, alpha, beta)
    if not res:
        raise NotAHomomorphism(res.detail)
    v_action = [target.g.ad_matrix(alpha.col(i)) for i in range(source.g.dim)]
    w_action = [target.h.ad_matrix(beta.col(i)) for i in range(source.h.dim)]
    v = Representation(source.g, target.g.dim, v_action)
    w = Representation(source.h, target.h.dim, w_action)
    return MorphismRep(source, v, w, target.phi)


def check_infinitesimal_deformation(rep: MorphismRep, alpha1: Matrix,
                                    beta1: Matrix) -> bool:
    """Whether (alpha1, beta1, 0) is a 1-cocycle of the induced representation."""
    return check_derivation(rep, alpha1, beta1, [ZERO] * rep.dim_w).ok


def _subalgebra(g, basis: Matrix) -> LieAlgebra:
    """span(basis) as a Lie algebra in the basis coordinates."""
    dim_p = basis.cols
    pairs = [(i, j) for i in range(dim_p) for j in range(i + 1, dim_p)]
    brackets = [g.bracket(basis.col(i), basis.col(j)) for i, j in pairs]
    coords = solve_columns(basis, Matrix.from_rows(brackets, basis.rows).transpose())
    if coords is None:  # one solve per pair i < j names the first one outside the span
        for (i, j), value in zip(pairs, brackets):
            if solve_columns(basis, Matrix.column(value)) is None:
                raise NotASubalgebra(f"bracket of basis columns {i+1} and {j+1} leaves the span")
    return LieAlgebra.from_brackets(dim_p, {pair: coords.col(k) for k, pair in enumerate(pairs)})


def _quotient_data(g, basis: Matrix) -> tuple[Matrix, Matrix, list[Matrix]]:
    """Projection to and lift from quotient coordinates for span(basis), and
    the action of each basis column on g/span(basis): proj . ad(x) . lift."""
    full, _ = complete_basis(basis)
    inv = inverse(full)
    dim_p = basis.cols
    proj = inv.submatrix(range(dim_p, g.dim), range(g.dim))
    lift = full.submatrix(range(g.dim), range(dim_p, g.dim))
    return proj, lift, [proj * g.ad_matrix(basis.col(i)) * lift for i in range(dim_p)]


def quotient_morphism_rep(m: MorphismLieAlgebra, p_basis: Matrix,
                          q_basis: Matrix) -> MorphismRep:
    """The representation of (p, q, phi|_p) on (g/p, h/q, phi-bar).

    p_basis and q_basis must have independent columns spanning subalgebras
    with phi(p) inside q.  Quotient bases complete the given columns with
    standard basis vectors, lowest index first.
    """
    g, h = m.g, m.h
    if p_basis.rows != g.dim:
        raise ShapeError("p_basis columns must live in g")
    if q_basis.rows != h.dim:
        raise ShapeError("q_basis columns must live in h")
    if rank(p_basis) != p_basis.cols or rank(q_basis) != q_basis.cols:
        raise ShapeError("subalgebra basis columns must be independent")
    p_alg = _subalgebra(g, p_basis)
    q_alg = _subalgebra(h, q_basis)

    phi_p_cols = solve_columns(q_basis, m.phi * p_basis)
    if phi_p_cols is None:
        raise NotPreserved("phi does not map the subalgebra p into q")
    sub_base = MorphismLieAlgebra(p_alg, q_alg, phi_p_cols)

    proj_g, lift_g, v_action = _quotient_data(g, p_basis)
    proj_h, _, w_action = _quotient_data(h, q_basis)
    v = Representation(p_alg, lift_g.cols, v_action)
    w = Representation(q_alg, proj_h.rows, w_action)
    return MorphismRep(sub_base, v, w, proj_h * m.phi * lift_g)


def check_subalgebra_deformation_cocycle(qrep: MorphismRep, pdot: Matrix,
                                         qdot: Matrix) -> bool:
    """Whether (pdot, qdot, 0) is a 1-cocycle in quotient coefficients."""
    return check_infinitesimal_deformation(qrep, pdot, qdot)
