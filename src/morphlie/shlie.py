"""2-term sh Lie algebras, their morphisms, skeletal objects, and twists.

A 2-term sh Lie algebra is a two-step chain complex g1 -> g0 with a skew
bracket l2 on g0, a compatibility action l2: g0 (x) g1 -> g1, and a skew
trilinear l3: g0^3 -> g1 obeying five identities; the bracket need not
satisfy Jacobi on the nose.  Skeletal objects (d = 0 on both layers of a
morphism pair) correspond to degree-3 cocycle data of a morphism Lie
algebra, and twisting by (sigma, sigma', phi) moves the extracted cocycle
by exactly the coboundary of that data.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import comb, prod

from .algebras import (
    CheckResult,
    LieAlgebra,
    MorphismLieAlgebra,
    MorphismRep,
    Representation,
    check_jacobi,
)
from .cecomplex import ExteriorBasis, sort_with_sign
from .cohomology import MCochain, mla_differential
from .errors import NotACocycle, ShapeError, ValidationError
from .linalg import Matrix, ZERO


def evaluate_alternating(coeffs: Matrix, dim_in: int, k: int,
                         vectors: list[list[Fraction]]) -> list[Fraction]:
    """Evaluate a skew k-linear map at k coordinate vectors.

    coeffs has one column per increasing k-tuple T of range(dim_in), the
    map's value at (e_T1, ..., e_Tk).  By multilinearity the value is a sum
    over one nonzero coordinate of each argument: an index tuple that
    repeats contributes nothing, any other adds the product of its
    coordinates, times the sign that sorts it, to the weight of its sorted
    tuple's column.  One pass over each row of coeffs then sums the weighted
    columns.  The cost follows the product of the arguments' supports.
    """
    if len(vectors) != k:
        raise ShapeError(f"need exactly {k} argument vectors")
    if any(len(v) != dim_in for v in vectors):
        raise ShapeError(f"argument vectors must have length {dim_in}")
    if coeffs.cols != comb(dim_in, k):
        raise ShapeError(f"coeffs must have {comb(dim_in, k)} columns")
    index = ExteriorBasis(dim_in, k).index
    weights: dict[int, Fraction] = {}
    supports = [[(i, x) for i, x in enumerate(v) if x] for v in vectors]
    for picks in product(*supports):
        sorted_sign = sort_with_sign(tuple(i for i, _ in picks))
        if sorted_sign is None:
            continue
        tup, sign = sorted_sign
        col = index[tup]
        weights[col] = weights.get(col, ZERO) + sign * prod(x for _, x in picks)
    return [sum((x * weights[j] for j, x in coeffs.row_items(r) if j in weights), ZERO)
            for r in range(coeffs.rows)]


class TwoTermSh:
    """A chain complex g1 -> g0 with bracket, action, and trilinear data.

    bracket0 carries the skew bilinear g0 (x) g0 -> g0 part (Jacobi NOT
    assumed), action1[i] is the matrix of l2(e_i, .) on g1, and l3 holds
    one column per increasing triple of g0 indices.  Whether the five
    2-term sh identities hold is answered by check_two_term_sh.
    """

    def __init__(self, bracket0: LieAlgebra, action1: list[Matrix], d: Matrix,
                 l3: Matrix | None = None):
        dim0 = bracket0.dim
        if len(action1) != dim0:
            raise ShapeError("need one action matrix per g0 basis vector")
        dim1 = d.cols
        if d.rows != dim0:
            raise ShapeError(f"d must be {dim0}x{dim1}")
        for m in action1:
            if (m.rows, m.cols) != (dim1, dim1):
                raise ShapeError(f"action matrices must be {dim1}x{dim1}")
        n3 = comb(dim0, 3)
        l3 = l3 if l3 is not None else Matrix.zeros(dim1, n3)
        if (l3.rows, l3.cols) != (dim1, n3):
            raise ShapeError(f"l3 must be {dim1}x{n3}")
        self.dim0 = dim0
        self.dim1 = dim1
        self.bracket0 = bracket0
        self.action1 = list(action1)
        self.d = d
        self.l3 = l3
        self.triples = ExteriorBasis(dim0, 3)

    @classmethod
    def from_lie_algebra(cls, g: LieAlgebra) -> TwoTermSh:
        """g viewed as the complex 0 -> g with l2 the bracket and l3 = 0."""
        return cls(g, [Matrix.zeros(0, 0)] * g.dim, Matrix.zeros(g.dim, 0))

    @classmethod
    def identity_complex(cls, g: LieAlgebra) -> TwoTermSh:
        """The complex g -> g with d = id, both l2 parts the bracket, l3 = 0."""
        action = [g.ad_matrix(_unit(g.dim, i)) for i in range(g.dim)]
        return cls(g, action, Matrix.identity(g.dim))

    def act1(self, x: list[Fraction]) -> Matrix:
        """Matrix of l2(x, .) on g1 for a g0 coordinate vector x."""
        out = Matrix.zeros(self.dim1, self.dim1)
        for i, xi in enumerate(x):
            if xi:
                out = out + self.action1[i].scale(xi)
        return out

    def l3_eval(self, x, y, z) -> list[Fraction]:
        return evaluate_alternating(self.l3, self.dim0, 3, [x, y, z])

    def __repr__(self) -> str:
        return f"TwoTermSh(dim0={self.dim0}, dim1={self.dim1})"


def _unit(dim: int, i: int) -> list[Fraction]:
    v = [ZERO] * dim
    v[i] = Fraction(1)
    return v


def check_two_term_sh(t: TwoTermSh) -> CheckResult:
    """The five 2-term sh identities, checked on all basis tuples.

    (i)   d l2(x, p) = l2(x, d p)
    (ii)  l2(d p, q) = l2(p, d q)              (right side = -l2(d q, p))
    (iii) d l3(x, y, z) = l2(x, l2(y, z)) + cyclic
    (iv)  l3(x, y, d p) = l2(x, l2(y, p)) + l2(y, l2(p, x)) + l2(p, l2(x, y))
    (v)   the ten-term compatibility between l2 and l3 on quadruples
    """
    g0, dim1 = t.bracket0, t.dim1
    dim0 = t.dim0
    for i in range(dim0):
        for a in range(dim1):
            lhs = t.d.apply(t.action1[i].col(a))
            rhs = g0.bracket(_unit(dim0, i), t.d.col(a))
            if lhs != rhs:
                return CheckResult(False, f"axiom (i) fails at (e{i+1}, p{a+1})")
    for a in range(dim1):
        for b in range(a, dim1):
            lhs = t.act1(t.d.col(a)).col(b)
            rhs = [-x for x in t.act1(t.d.col(b)).col(a)]
            if lhs != rhs:
                return CheckResult(False, f"axiom (ii) fails at (p{a+1}, p{b+1})")
    for (i, j, k) in t.triples.tuples:
        lhs = t.d.apply(t.l3.col(t.triples.index[(i, j, k)]))
        ei, ej, ek = _unit(dim0, i), _unit(dim0, j), _unit(dim0, k)
        rhs = _vadd(
            g0.bracket(ei, g0.c[j][k]),
            g0.bracket(ej, g0.c[k][i]),
            g0.bracket(ek, g0.c[i][j]),
        )
        if lhs != rhs:
            return CheckResult(False, f"axiom (iii) fails at (e{i+1}, e{j+1}, e{k+1})")
    for i in range(dim0):
        for j in range(i + 1, dim0):
            ei, ej = _unit(dim0, i), _unit(dim0, j)
            act_ij = t.act1(g0.c[i][j])
            for a in range(dim1):
                lhs = t.l3_eval(ei, ej, t.d.col(a))
                first = t.action1[i].apply(t.action1[j].col(a))
                second = [-x for x in t.action1[j].apply(t.action1[i].col(a))]
                third = [-x for x in act_ij.col(a)]
                if lhs != _vadd(first, second, third):
                    return CheckResult(
                        False, f"axiom (iv) fails at (e{i+1}, e{j+1}, p{a+1})"
                    )
    quads = ExteriorBasis(dim0, 4)
    for quad in quads.tuples:
        i, j, k, l = quad
        units = [_unit(dim0, m) for m in quad]
        terms = []
        # l2(x, l3(y, z, t)) with alternating signs over argument omission.
        for pos in range(4):
            rest = quad[:pos] + quad[pos + 1:]
            val = t.action1[quad[pos]].apply(t.l3.col(t.triples.index[rest]))
            sign = 1 if pos % 2 == 0 else -1
            terms.append([sign * x for x in val])
        # -l3(l2(., .), ., .) over the six pairs, with the displayed signs.
        for (p, q), sign in (
            ((0, 1), -1), ((0, 2), 1), ((0, 3), -1),
            ((1, 2), -1), ((1, 3), 1), ((2, 3), -1),
        ):
            rest = [units[m] for m in range(4) if m != p and m != q]
            val = t.l3_eval(g0.c[quad[p]][quad[q]], rest[0], rest[1])
            terms.append([sign * x for x in val])
        total = _vadd(*terms)
        if any(total):
            return CheckResult(
                False, f"axiom (v) fails at (e{i+1}, e{j+1}, e{k+1}, e{l+1})"
            )
    return CheckResult(True)


def _vadd(*vectors: list[Fraction]) -> list[Fraction]:
    return [sum(xs, ZERO) for xs in zip(*vectors)]


class ShMorphism:
    """A morphism (phi0, phi1, phi2) between 2-term sh Lie algebras."""

    def __init__(self, phi0: Matrix, phi1: Matrix, phi2: Matrix):
        self.phi0 = phi0
        self.phi1 = phi1
        self.phi2 = phi2

    @classmethod
    def identity(cls, t: TwoTermSh) -> ShMorphism:
        return cls(Matrix.identity(t.dim0), Matrix.identity(t.dim1),
                   Matrix.zeros(t.dim1, comb(t.dim0, 2)))

    def phi2_eval(self, dim0: int, x, y) -> list[Fraction]:
        return evaluate_alternating(self.phi2, dim0, 2, [x, y])

    def __repr__(self) -> str:
        return f"ShMorphism({self.phi0.rows}x{self.phi0.cols})"


def check_sh_morphism(src: TwoTermSh, dst: TwoTermSh, m: ShMorphism) -> CheckResult:
    """The four morphism conditions, checked on all basis tuples.

    (i)   phi0 . d = d' . phi1
    (ii)  d' phi2(x, y) = phi0 l2(x, y) - l2'(phi0 x, phi0 y)
    (iii) phi2(x, d p) = phi1 l2(x, p) - l2'(phi0 x, phi1 p)
    (iv)  l2'(phi0 x, phi2(y, z)) + c.p. + phi2(x, l2(y, z)) + c.p.
            = phi1 l3(x, y, z) - l3'(phi0 x, phi0 y, phi0 z)
    """
    if (m.phi0.rows, m.phi0.cols) != (dst.dim0, src.dim0):
        raise ShapeError(f"phi0 must be {dst.dim0}x{src.dim0}")
    if (m.phi1.rows, m.phi1.cols) != (dst.dim1, src.dim1):
        raise ShapeError(f"phi1 must be {dst.dim1}x{src.dim1}")
    n2 = comb(src.dim0, 2)
    if (m.phi2.rows, m.phi2.cols) != (dst.dim1, n2):
        raise ShapeError(f"phi2 must be {dst.dim1}x{n2}")

    if m.phi0 * src.d != dst.d * m.phi1:
        return CheckResult(False, "condition (i) fails: phi0 . d differs from d' . phi1")
    pairs = ExteriorBasis(src.dim0, 2)
    for (i, j) in pairs.tuples:
        lhs = dst.d.apply(m.phi2.col(pairs.index[(i, j)]))
        rhs_first = m.phi0.apply(src.bracket0.c[i][j])
        rhs_second = dst.bracket0.bracket(m.phi0.col(i), m.phi0.col(j))
        if lhs != [a - b for a, b in zip(rhs_first, rhs_second)]:
            return CheckResult(False, f"condition (ii) fails at (e{i+1}, e{j+1})")
    for i in range(src.dim0):
        for a in range(src.dim1):
            lhs = m.phi2_eval(src.dim0, _unit(src.dim0, i), src.d.col(a))
            rhs_first = m.phi1.apply(src.action1[i].col(a))
            rhs_second = dst.act1(m.phi0.col(i)).apply(m.phi1.col(a))
            if lhs != [x - y for x, y in zip(rhs_first, rhs_second)]:
                return CheckResult(False, f"condition (iii) fails at (e{i+1}, p{a+1})")
    for (i, j, k) in src.triples.tuples:
        tri = (i, j, k)
        units = [_unit(src.dim0, t) for t in tri]
        terms = []
        for x, y, z in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            terms.append(dst.act1(m.phi0.col(tri[x])).apply(
                m.phi2_eval(src.dim0, units[y], units[z])))
            terms.append(m.phi2_eval(src.dim0, units[x], src.bracket0.c[tri[y]][tri[z]]))
        lhs = _vadd(*terms)
        rhs_first = m.phi1.apply(src.l3.col(src.triples.index[(i, j, k)]))
        rhs_second = evaluate_alternating(
            dst.l3, dst.dim0, 3, [m.phi0.col(i), m.phi0.col(j), m.phi0.col(k)]
        )
        if lhs != [x - y for x, y in zip(rhs_first, rhs_second)]:
            return CheckResult(False, f"condition (iv) fails at (e{i+1}, e{j+1}, e{k+1})")
    return CheckResult(True)


class SkeletalMorphismSh:
    """A morphism pair of 2-term sh Lie algebras with both differentials zero.

    Construction verifies zero differentials, both five-identity suites,
    and the four morphism conditions.
    """

    def __init__(self, source: TwoTermSh, target: TwoTermSh, morphism: ShMorphism):
        if not source.d.is_zero() or not target.d.is_zero():
            raise ValidationError("skeletal objects require zero differentials")
        for t, name in ((source, "source"), (target, "target")):
            res = check_two_term_sh(t)
            if not res:
                raise ValidationError(f"{name}: {res.detail}")
        res = check_sh_morphism(source, target, morphism)
        if not res:
            raise ValidationError(res.detail)
        self.source = source
        self.target = target
        self.morphism = morphism

    def __repr__(self) -> str:
        return (f"SkeletalMorphismSh(g0={self.source.dim0}, g1={self.source.dim1}, "
                f"h0={self.target.dim0}, h1={self.target.dim1})")


def skeletal_to_triple(s: SkeletalMorphismSh) -> tuple[MorphismLieAlgebra, MorphismRep, MCochain]:
    """Extract (morphism Lie algebra, representation, closed 3-cochain).

    Brackets come from the degree-0 l2 parts, actions from the mixed l2
    parts, and the cochain is (l3, l3', phi2); its differential is asserted
    zero.
    """
    g0, h0 = s.source.bracket0, s.target.bracket0
    res = check_jacobi(g0)
    if not res:
        raise ValidationError(f"source bracket: {res.detail}")
    res = check_jacobi(h0)
    if not res:
        raise ValidationError(f"target bracket: {res.detail}")
    base = MorphismLieAlgebra(g0, h0, s.morphism.phi0)
    v = Representation(g0, s.source.dim1, s.source.action1)
    w = Representation(h0, s.target.dim1, s.target.action1)
    rep = MorphismRep(base, v, w, s.morphism.phi1)
    cochain = MCochain(rep, 3, theta=s.source.l3, gamma=s.target.l3,
                       eta=s.morphism.phi2)
    image = mla_differential(rep, 3).apply(cochain.to_vector())
    if any(image):
        raise AssertionError("extracted cochain is not closed; internal inconsistency")
    return base, rep, cochain


def triple_to_skeletal(m: MorphismLieAlgebra, rep: MorphismRep,
                       c: MCochain) -> SkeletalMorphismSh:
    """Assemble the skeletal object of a closed degree-3 cochain.

    l2(x, v) = rho_V(x) v, l2'(h, w) = rho_W(h) w, l3 = theta, l3' = gamma,
    phi2 = eta; the full axiom suite is re-verified by construction.
    """
    if c.degree != 3:
        raise ShapeError("skeletal data needs a degree-3 cochain")
    image = mla_differential(rep, 3).apply(c.to_vector())
    if any(image):
        raise NotACocycle("the cochain is not closed")
    source = TwoTermSh(m.g, list(rep.v.action), Matrix.zeros(m.g.dim, rep.dim_v),
                       l3=c.theta)
    target = TwoTermSh(m.h, list(rep.w.action), Matrix.zeros(m.h.dim, rep.dim_w),
                       l3=c.gamma)
    morphism = ShMorphism(m.phi, rep.psi, c.eta)
    return SkeletalMorphismSh(source, target, morphism)


def twist_equivalence(s: SkeletalMorphismSh, sigma: Matrix, sigma_p: Matrix,
                      phi: Matrix) -> SkeletalMorphismSh:
    """The equivalent skeletal object twisted by (sigma, sigma', phi).

    l3 gains l2(x, sigma(y, z)) + c.p. plus sigma(x, l2(y, z)) + c.p.,
    likewise l3' with sigma' on the target, and
    phi2 gains phi1 sigma(x, y) - sigma'(phi0 x, phi0 y)
              - l2'(phi0 x, phi y) - l2'(phi x, phi0 y) + phi l2(x, y).
    The twisted object is re-verified, and the extracted cochain is
    asserted to move by exactly the coboundary of (sigma, sigma', phi).
    """
    return _twist_with_triple(s, sigma, sigma_p, phi)[0]


def _twist_with_triple(s: SkeletalMorphismSh, sigma: Matrix, sigma_p: Matrix, phi: Matrix
                       ) -> tuple[SkeletalMorphismSh,
                                  tuple[MorphismLieAlgebra, MorphismRep, MCochain]]:
    """twist_equivalence, also returning the triple extracted from the twist."""
    src, dst, mor = s.source, s.target, s.morphism
    if (sigma.rows, sigma.cols) != (src.dim1, comb(src.dim0, 2)):
        raise ShapeError(f"sigma must be {src.dim1}x{comb(src.dim0, 2)}")
    if (sigma_p.rows, sigma_p.cols) != (dst.dim1, comb(dst.dim0, 2)):
        raise ShapeError(f"sigma' must be {dst.dim1}x{comb(dst.dim0, 2)}")
    if (phi.rows, phi.cols) != (dst.dim1, src.dim0):
        raise ShapeError(f"phi must be {dst.dim1}x{src.dim0}")

    new_l3 = _twisted_l3(src, sigma)
    new_l3p = _twisted_l3(dst, sigma_p)
    pairs = ExteriorBasis(src.dim0, 2)
    cols = []
    for (i, j) in pairs.tuples:
        base_val = mor.phi2.col(pairs.index[(i, j)])
        total = _vadd(
            base_val,
            mor.phi1.apply(sigma.col(pairs.index[(i, j)])),
            [-x for x in evaluate_alternating(
                sigma_p, dst.dim0, 2, [mor.phi0.col(i), mor.phi0.col(j)]
            )],
            [-x for x in dst.act1(mor.phi0.col(i)).apply(phi.col(j))],
            [-x for x in _act_reversed(dst, phi.col(i), mor.phi0.col(j))],
            phi.apply(src.bracket0.c[i][j]),
        )
        cols.append(total)
    new_phi2 = Matrix.from_rows(
        [[cols[t][r] for t in range(len(cols))] for r in range(dst.dim1)],
        cols=len(cols),
    ) if cols else Matrix.zeros(dst.dim1, 0)

    twisted = SkeletalMorphismSh(
        TwoTermSh(src.bracket0, src.action1, src.d, l3=new_l3),
        TwoTermSh(dst.bracket0, dst.action1, dst.d, l3=new_l3p),
        ShMorphism(mor.phi0, mor.phi1, new_phi2),
    )

    _, rep, before = skeletal_to_triple(s)
    triple = skeletal_to_triple(twisted)
    simple = MCochain(rep, 2, theta=sigma, gamma=sigma_p, eta=phi)
    boundary = mla_differential(rep, 2).apply(simple.to_vector())
    moved = [a - b for a, b in zip(triple[2].to_vector(), before.to_vector())]
    if moved != boundary:
        raise AssertionError("twist did not move the cochain by the coboundary")
    return twisted, triple


def _act_reversed(t: TwoTermSh, p: list[Fraction], x: list[Fraction]) -> list[Fraction]:
    """l2(p, x) for p in g1, x in g0: equals -l2(x, p)."""
    return [-y for y in t.act1(x).apply(p)]


def _twisted_l3(t: TwoTermSh, sigma: Matrix) -> Matrix:
    """l3 + {l2(x, sigma(y, z)) + c.p.} + {sigma(x, l2(y, z)) + c.p.}."""
    cols = []
    for tri in t.triples.tuples:
        units = [_unit(t.dim0, m) for m in tri]
        terms = [t.l3.col(t.triples.index[tri])]
        for x, y, z in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            terms.append(t.action1[tri[x]].apply(
                evaluate_alternating(sigma, t.dim0, 2, [units[y], units[z]])
            ))
            terms.append(evaluate_alternating(
                sigma, t.dim0, 2, [units[x], t.bracket0.c[tri[y]][tri[z]]]
            ))
        cols.append(_vadd(*terms))
    if not cols:
        return Matrix.zeros(t.dim1, 0)
    return Matrix.from_rows(
        [[cols[c][r] for c in range(len(cols))] for r in range(t.dim1)],
        cols=len(cols),
    )
