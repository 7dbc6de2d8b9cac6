"""The cochain complex of a morphism Lie algebra and its cohomology.

Degree n >= 1 cochains are triples (theta, gamma, eta) with
theta in Hom(wedge^n g, V), gamma in Hom(wedge^n h, W), and
eta in Hom(wedge^{n-1} g, W); degree 0 is a single vector in V.

The differential is
    delta(v) = (delta' v, delta'' (psi v), 0)
    delta(theta, gamma, eta)
        = (delta' theta, delta'' gamma,
           psi . theta - gamma . wedge^n phi - delta''' eta),
where delta' and delta'' are the Chevalley-Eilenberg differentials of V and
W and delta''' is the one of W pulled back along phi.  Flattened coordinate
vectors order the blocks (theta, gamma, eta), each block column-major by
basis tuple.

This complex is the mapping cone of f(theta, gamma) = psi . theta -
gamma . wedge phi, from C(g, V) + C(h, W) to C(g, W_phi), cut down in
degree 0 to the graph {(v, psi v)}.  The functions that take ``cone=True``
use the full cone instead, which differs only in degree 0: there the
cochains are pairs (v, w) in V + W, flattened as (v, w), and
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
    check_morphism_homomorphism,
)
from .cecomplex import (
    ce_differential,
    cochain_dim,
    morphism_matrix,
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
    Complex,
    Matrix,
    ZERO,
    complete_basis,
    inverse,
    rank,
    solve,
    solve_columns,
)


def mla_block_dims(rep: MorphismRep, n: int,
                   cone: bool = False) -> tuple[int, int, int]:
    """Flat sizes of the (theta, gamma, eta) blocks at degree n.

    Degree 0 has the blocks (V, W, 0) on the full cone and (V, 0, 0) in the
    default complex.
    """
    base = rep.base
    return (
        cochain_dim(base.g.dim, rep.dim_v, n),
        cochain_dim(base.h.dim, rep.dim_w, n) if n or cone else 0,
        cochain_dim(base.g.dim, rep.dim_w, n - 1),
    )


def mla_block_shapes(rep: MorphismRep, n: int) -> tuple[tuple[int, int], ...]:
    """(rows, tuples) of the theta, gamma and eta value arrays at degree n >= 1."""
    base = rep.base
    return ((rep.dim_v, comb(base.g.dim, n)), (rep.dim_w, comb(base.h.dim, n)),
            (rep.dim_w, comb(base.g.dim, n - 1)))


def mla_cochain_dim(rep: MorphismRep, n: int, cone: bool = False) -> int:
    """Total dimension of the degree-n cochain space."""
    return sum(mla_block_dims(rep, n, cone))


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
            self.v = [Fraction(x) for x in v]
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

    def to_vector(self) -> list[Fraction]:
        """Flatten to (theta-block, gamma-block, eta-block) coordinates."""
        if self.degree == 0:
            return list(self.v)
        out: list[Fraction] = []
        for block in (self.theta, self.gamma, self.eta):
            for t in range(block.cols):
                out.extend(block.col(t))
        return out

    @classmethod
    def from_vector(cls, rep: MorphismRep, degree: int, flat: list[Fraction]) -> MCochain:
        dims = mla_block_dims(rep, degree)
        if len(flat) != sum(dims):
            raise ShapeError(f"flat vector must have length {sum(dims)}")
        if degree <= 0:
            return cls(rep, degree, v=list(flat))
        blocks = []
        pos = 0
        for rows, ncols in mla_block_shapes(rep, degree):
            data = flat[pos:pos + rows * ncols]
            pos += rows * ncols
            cols = [data[t * rows:(t + 1) * rows] for t in range(ncols)]
            blocks.append(Matrix.from_rows(
                [[cols[t][r] for t in range(ncols)] for r in range(rows)], cols=ncols
            ))
        return cls(rep, degree, theta=blocks[0], gamma=blocks[1], eta=blocks[2])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MCochain):
            return NotImplemented
        return (self.degree == other.degree
                and self.to_vector() == other.to_vector())

    def __repr__(self) -> str:
        return f"MCochain(degree={self.degree}, dim={len(self.to_vector())})"


def mla_differential(rep: MorphismRep, n: int, cone: bool = False) -> Matrix:
    """Block matrix of the morphism differential from degree n to n+1.

    Every degree is the mapping cone's matrix; degree 0 has no eta block,
    and the default complex restricts it to the graph of psi, while
    ``cone=True`` keeps the full cone's map on (v, w).
    """
    if n < 0:
        raise ShapeError("degree must be nonnegative")
    base = rep.base
    d_pull = (ce_differential(pullback_rep(base, rep.w), n - 1) if n
              else Matrix.zeros(rep.dim_w, 0))
    return morphism_matrix(
        ce_differential(rep.v, n), ce_differential(rep.w, n), rep.psi, comb(base.g.dim, n),
        precompose_matrix(wedge_minor_matrix(base.phi, n), rep.dim_w), d_pull,
        graph=n == 0 and not cone)


def apply_mla_differential(c: MCochain) -> MCochain:
    """The differential applied to a single cochain."""
    mat = mla_differential(c.rep, c.degree)
    return MCochain.from_vector(c.rep, c.degree + 1, mat.apply(c.to_vector()))


def _eta_free(rep: MorphismRep, n: int) -> range:
    """Columns of the (theta, gamma) blocks of a degree-n cochain."""
    return range(sum(mla_block_dims(rep, n)[:2]))


def mla_complex(rep: MorphismRep, cone: bool = False,
                size_ceiling: int | None = None) -> Complex:
    """The morphism complex of rep, or its full mapping cone with ``cone=True``.

    The simple variant keeps the eta-free columns of each differential.
    """
    return Complex(lambda n: mla_cochain_dim(rep, n, cone),
                   lambda n: mla_differential(rep, n, cone), "morphism",
                   size_ceiling, lambda n: _eta_free(rep, n))


def mla_cohomology_dim(rep: MorphismRep, n: int, cone: bool = False) -> int:
    """dim ker delta_n minus rank delta_{n-1} in the morphism complex.

    Reported only after delta_n . delta_{n-1} = 0 has been verified; with
    ``cone=True`` this is the full cone's dimension.
    """
    return mla_complex(rep, cone).dim_H(n)


def simple_differential(rep: MorphismRep, n: int) -> Matrix:
    """delta restricted to cochains with vanishing eta component."""
    full = mla_differential(rep, n)
    return full.submatrix(range(full.rows), _eta_free(rep, n))


def simple_cohomology_dim(rep: MorphismRep, n: int) -> int:
    """Cohomology with coboundaries restricted to eta-free cochains.

    delta_n . delta_{n-1} = 0 is verified before reporting; the restricted
    delta_{n-1} is a column selection of delta_{n-1}, so it follows.
    """
    return mla_complex(rep).dim_H(n, simple=True)


def invariant_vectors_dim(rep: MorphismRep) -> int:
    """dim of {v : rho_V(e_i) v = 0 for all i, rho_W(f_j) psi v = 0 for all j}.

    An independent route to degree-0 cohomology: one stacked kernel, no
    cochain machinery.
    """
    blocks = list(rep.v.action) + [m * rep.psi for m in rep.w.action]
    if not blocks:
        return rep.dim_v
    stacked = Matrix.vstack(blocks)
    return stacked.cols - rank(stacked)


def _derivation_rows(rep: MorphismRep) -> Matrix:
    """Constraint matrix whose kernel is the space of derivation triples.

    Unknowns are flattened (d, del, w) with d: V x g, del: W x h, w in W,
    columns ordered like degree-1 cochains.  Rows encode, identity by
    identity:
      d[x,y] = rho_V(x) d(y) - rho_V(y) d(x)          (basis pairs of g)
      del[h,k] = rho_W(h) del(k) - rho_W(k) del(h)    (basis pairs of h)
      rho_W(phi x) w = psi d(x) - del(phi x)          (basis vectors of g)
    """
    base = rep.base
    g, h = base.g, base.h
    dv, dw = rep.dim_v, rep.dim_w
    n_d, n_del = dv * g.dim, dw * h.dim
    total = n_d + n_del + dw
    rows: list[list[Fraction]] = []

    def d_col(j: int, c: int) -> int:
        return j * dv + c

    def del_col(j: int, c: int) -> int:
        return n_d + j * dw + c

    def w_col(c: int) -> int:
        return n_d + n_del + c

    for i in range(g.dim):
        for j in range(i + 1, g.dim):
            bracket = g.c[i][j]
            for r in range(dv):
                row = [ZERO] * total
                for k in range(g.dim):
                    if bracket[k]:
                        row[d_col(k, r)] += bracket[k]
                for c in range(dv):
                    row[d_col(j, c)] -= rep.v.action[i][r, c]
                    row[d_col(i, c)] += rep.v.action[j][r, c]
                rows.append(row)
    for i in range(h.dim):
        for j in range(i + 1, h.dim):
            bracket = h.c[i][j]
            for r in range(dw):
                row = [ZERO] * total
                for k in range(h.dim):
                    if bracket[k]:
                        row[del_col(k, r)] += bracket[k]
                for c in range(dw):
                    row[del_col(j, c)] -= rep.w.action[i][r, c]
                    row[del_col(i, c)] += rep.w.action[j][r, c]
                rows.append(row)
    for i in range(g.dim):
        phi_col = base.phi.col(i)
        rho_w_phi = rep.w.act(phi_col)
        for r in range(dw):
            row = [ZERO] * total
            for c in range(dw):
                row[w_col(c)] += rho_w_phi[r, c]
            for c in range(dv):
                row[d_col(i, c)] -= rep.psi[r, c]
            for j in range(h.dim):
                if phi_col[j]:
                    row[del_col(j, r)] += phi_col[j]
            rows.append(row)
    return Matrix.from_rows(rows, cols=total)


def _inner_derivation_columns(rep: MorphismRep) -> Matrix:
    """Columns spanning the inner derivations (rho_V(.) v, rho_W(.) psi v, 0)."""
    base = rep.base
    g, h = base.g, base.h
    dv, dw = rep.dim_v, rep.dim_w
    total = dv * g.dim + dw * h.dim + dw
    cols: list[list[Fraction]] = []
    for a in range(dv):
        v = [Fraction(1) if t == a else ZERO for t in range(dv)]
        psi_v = rep.psi.apply(v)
        col = []
        for j in range(g.dim):
            col.extend(rep.v.action[j].apply(v))
        for j in range(h.dim):
            col.extend(rep.w.action[j].apply(psi_v))
        col.extend([ZERO] * dw)
        assert len(col) == total
        cols.append(col)
    return Matrix.from_rows([[c[i] for c in cols] for i in range(total)], cols=dv)


def derivation_space_dim(rep: MorphismRep) -> int:
    """Dimension of the space of derivation triples (d, del, w)."""
    m = _derivation_rows(rep)
    return m.cols - rank(m)


def inner_derivation_dim(rep: MorphismRep) -> int:
    """Dimension of the inner derivations."""
    return rank(_inner_derivation_columns(rep))


def outer_derivation_dim(rep: MorphismRep) -> int:
    """dim Der - dim InnDer, an independent route to degree-1 cohomology."""
    return derivation_space_dim(rep) - inner_derivation_dim(rep)


def check_derivation(rep: MorphismRep, d: Matrix, del_: Matrix,
                     w: list) -> CheckResult:
    """Whether (d, del, w) is a derivation triple.

    Evaluated twice: identity by identity (producing the report), and as
    one block product delta(d, del, w) = 0 at degree 1; the two routes are
    cross-checked before returning.
    """
    base = rep.base
    g, h = base.g, base.h
    if (d.rows, d.cols) != (rep.dim_v, g.dim):
        raise ShapeError(f"d must be {rep.dim_v}x{g.dim}")
    if (del_.rows, del_.cols) != (rep.dim_w, h.dim):
        raise ShapeError(f"del must be {rep.dim_w}x{h.dim}")
    if len(w) != rep.dim_w:
        raise ShapeError("w must have length dim W")
    w = [Fraction(x) for x in w]

    detail = None
    for i in range(g.dim):
        if detail:
            break
        for j in range(i + 1, g.dim):
            lhs = d.apply(g.c[i][j])
            rhs = rep.v.action[i].apply(d.col(j))
            sub = rep.v.action[j].apply(d.col(i))
            if lhs != [a - b for a, b in zip(rhs, sub)]:
                detail = f"first identity fails on basis pair (e{i+1}, e{j+1})"
                break
    if detail is None:
        for i in range(h.dim):
            if detail:
                break
            for j in range(i + 1, h.dim):
                lhs = del_.apply(h.c[i][j])
                rhs = rep.w.action[i].apply(del_.col(j))
                sub = rep.w.action[j].apply(del_.col(i))
                if lhs != [a - b for a, b in zip(rhs, sub)]:
                    detail = f"second identity fails on basis pair (f{i+1}, f{j+1})"
                    break
    if detail is None:
        for i in range(g.dim):
            phi_col = base.phi.col(i)
            lhs = rep.w.act(phi_col).apply(w)
            rhs = rep.psi.apply(d.col(i))
            sub = del_.apply(phi_col)
            if lhs != [a - b for a, b in zip(rhs, sub)]:
                detail = f"third identity fails at basis vector e{i+1}"
                break

    cochain = MCochain(rep, 1, theta=d, gamma=del_, eta=Matrix.column(w))
    block_zero = all(x == 0 for x in mla_differential(rep, 1).apply(cochain.to_vector()))
    if block_zero != (detail is None):
        raise AssertionError("derivation routes disagree; internal inconsistency")
    return CheckResult(detail is None, detail)


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
    base = rep.base
    if (alpha1.rows, alpha1.cols) != (rep.dim_v, base.g.dim):
        raise ShapeError(f"alpha1 must be {rep.dim_v}x{base.g.dim}")
    if (beta1.rows, beta1.cols) != (rep.dim_w, base.h.dim):
        raise ShapeError(f"beta1 must be {rep.dim_w}x{base.h.dim}")
    cochain = MCochain(rep, 1, theta=alpha1, gamma=beta1)
    image = mla_differential(rep, 1).apply(cochain.to_vector())
    return all(x == 0 for x in image)


def _subalgebra_structure(g, basis: Matrix) -> list[list[list[Fraction]]]:
    """Structure constants of span(basis) in the basis coordinates."""
    dim_p = basis.cols
    table = [[[ZERO] * dim_p for _ in range(dim_p)] for _ in range(dim_p)]
    pairs = [(i, j) for i in range(dim_p) for j in range(i + 1, dim_p)]
    brackets = [g.bracket(basis.col(i), basis.col(j)) for i, j in pairs]
    coords = solve_columns(basis, Matrix.from_rows(brackets, basis.rows).transpose())
    if coords is None:  # one solve per pair i < j names the first one outside the span
        for (i, j), value in zip(pairs, brackets):
            if solve(basis, Matrix.column(value)) is None:
                raise NotASubalgebra(f"bracket of basis columns {i+1} and {j+1} leaves the span")
    for k, (i, j) in enumerate(pairs):
        table[i][j] = coords.col(k)
        table[j][i] = [-x for x in table[i][j]]
    return table


class QuotientMorphismRep(MorphismRep):
    """The (g/p, h/q, phi-bar) representation of a sub-morphism-Lie-algebra.

    Extra fields record the quotient coordinates: proj_g maps x to the
    coordinates of x mod p (likewise proj_h), and lift_g/lift_h embed the
    chosen quotient basis vectors back into g and h.
    """

    def __init__(self, base, v, w, psi, proj_g, proj_h, lift_g, lift_h,
                 full: MorphismLieAlgebra):
        super().__init__(base, v, w, psi)
        self.proj_g = proj_g
        self.proj_h = proj_h
        self.lift_g = lift_g
        self.lift_h = lift_h
        self.full = full


def _quotient_data(g, basis: Matrix):
    """Projection to and lift from quotient coordinates for span(basis)."""
    full, _ = complete_basis(basis)
    inv = inverse(full)
    dim_p = basis.cols
    proj = inv.submatrix(range(dim_p, g.dim), range(g.dim))
    lift = full.submatrix(range(g.dim), range(dim_p, g.dim))
    return proj, lift


def quotient_morphism_rep(m: MorphismLieAlgebra, p_basis: Matrix,
                          q_basis: Matrix) -> QuotientMorphismRep:
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
    p_struct = _subalgebra_structure(g, p_basis)
    q_struct = _subalgebra_structure(h, q_basis)
    p_alg = LieAlgebra(p_basis.cols, p_struct)
    q_alg = LieAlgebra(q_basis.cols, q_struct)

    phi_p_cols = solve_columns(q_basis, m.phi * p_basis)
    if phi_p_cols is None:
        raise NotPreserved("phi does not map the subalgebra p into q")
    sub_base = MorphismLieAlgebra(p_alg, q_alg, phi_p_cols)

    proj_g, lift_g = _quotient_data(g, p_basis)
    proj_h, lift_h = _quotient_data(h, q_basis)
    dim_gq = g.dim - p_basis.cols
    dim_hq = h.dim - q_basis.cols

    v_action = []
    for i in range(p_basis.cols):
        p_vec = p_basis.col(i)
        cols = [proj_g.apply(g.bracket(p_vec, lift_g.col(j))) for j in range(dim_gq)]
        v_action.append(Matrix.from_rows(
            [[cols[j][r] for j in range(dim_gq)] for r in range(dim_gq)], cols=dim_gq
        ))
    w_action = []
    for i in range(q_basis.cols):
        q_vec = q_basis.col(i)
        cols = [proj_h.apply(h.bracket(q_vec, lift_h.col(j))) for j in range(dim_hq)]
        w_action.append(Matrix.from_rows(
            [[cols[j][r] for j in range(dim_hq)] for r in range(dim_hq)], cols=dim_hq
        ))
    v = Representation(p_alg, dim_gq, v_action)
    w = Representation(q_alg, dim_hq, w_action)
    psi_bar = proj_h * m.phi * lift_g
    return QuotientMorphismRep(sub_base, v, w, psi_bar, proj_g, proj_h,
                               lift_g, lift_h, m)


def check_subalgebra_deformation_cocycle(qrep: QuotientMorphismRep, pdot: Matrix,
                                         qdot: Matrix) -> bool:
    """Whether (pdot, qdot, 0) is a 1-cocycle in quotient coefficients."""
    return check_infinitesimal_deformation(qrep, pdot, qdot)
