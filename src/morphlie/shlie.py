"""2-term sh Lie algebras, their morphisms, skeletal objects, and twists.

A 2-term sh Lie algebra is a two-step chain complex g1 -> g0 with a skew
bracket l2 on g0, a compatibility action l2: g0 (x) g1 -> g1, and a skew
trilinear l3: g0^3 -> g1 obeying five identities; the bracket need not
satisfy Jacobi on the nose.  Each identity is stated through a kernel or
map the package already builds: the action is a Representation (checked
for nothing), so l2(x, .) is rep.act(x); axiom (i) is the intertwining of
d (b_i = ad(e_i)), (iii) compares d . l3 with the Jacobiator, (iv) is the
representation axiom less l3(e_i, e_j, d .), (v) the Chevalley-Eilenberg
differential of l3; morphism condition (ii) is the homomorphism law of
phi0 up to extra = d' phi2, (iii) the intertwining of phi1 up to extra_i =
phi2(e_i, .) d, and (iv) the eta row of the degree-3 cone of the unchecked
triple (g0, g0', phi0; g1, g1', phi1).  Skeletal objects (d = 0 on both
layers of a morphism pair) correspond to closed degree-3 cochains of a
morphism Lie algebra: each keeps the triple its checked data amounts to,
and each triple's skeletal object is checked only for closedness.
Twisting by (sigma, sigma', phi) adds the coboundary of that data.
"""

from __future__ import annotations

from math import comb

from .algebras import (
    CheckResult,
    LieAlgebra,
    MorphismLieAlgebra,
    MorphismRep,
    Representation,
    _unit,
    commutator_defect,
    homomorphism_defect,
    intertwining_defect,
    jacobiator,
)
from .cecomplex import ce_differential, exterior_basis, first_nonzero_tuple, pullback_rep
from .cohomology import MCochain, _chain_map, _flat, mla_differential
from .errors import NotACocycle, ShapeError, ValidationError
from .linalg import Matrix


class TwoTermSh:
    """A chain complex g1 -> g0 with bracket, action, and trilinear data.

    bracket0 carries the skew bilinear g0 (x) g0 -> g0 part (Jacobi NOT
    assumed), action1[i] is the matrix of l2(e_i, .) on g1, held also as
    the unchecked representation ``rep``, and l3 holds one column per
    increasing triple of g0 indices.  Whether the five 2-term sh identities
    hold is answered by check_two_term_sh.
    """

    def __init__(self, bracket0: LieAlgebra, action1: list[Matrix], d: Matrix,
                 l3: Matrix | None = None):
        dim0, dim1 = bracket0.dim, d.cols
        if d.rows != dim0:
            raise ShapeError(f"d must be {dim0}x{dim1}")
        # Checks the number and shapes of the action matrices, nothing more.
        self.rep = Representation(bracket0, dim1, action1, validate=False)
        n3 = comb(dim0, 3)
        l3 = l3 if l3 is not None else Matrix.zeros(dim1, n3)
        if (l3.rows, l3.cols) != (dim1, n3):
            raise ShapeError(f"l3 must be {dim1}x{n3}")
        self.dim0 = dim0
        self.dim1 = dim1
        self.bracket0 = bracket0
        self.action1 = self.rep.action
        self.d = d
        self.l3 = l3
        self.triples = exterior_basis(dim0, 3)

    @classmethod
    def from_lie_algebra(cls, g: LieAlgebra) -> TwoTermSh:
        """g viewed as the complex 0 -> g with l2 the bracket and l3 = 0."""
        return cls(g, [Matrix.zeros(0, 0)] * g.dim, Matrix.zeros(g.dim, 0))

    @classmethod
    def identity_complex(cls, g: LieAlgebra) -> TwoTermSh:
        """The complex g -> g with d = id, both l2 parts the bracket, l3 = 0."""
        action = [g.ad_matrix(_unit(g.dim, i)) for i in range(g.dim)]
        return cls(g, action, Matrix.identity(g.dim))

    def __repr__(self) -> str:
        return f"TwoTermSh(dim0={self.dim0}, dim1={self.dim1})"


def check_two_term_sh(t: TwoTermSh) -> CheckResult:
    """The five 2-term sh identities, on all basis tuples.

    (i)   d l2(x, p) = l2(x, d p), i.e. d . A_i = ad(e_i) . d
    (ii)  l2(d p, q) = l2(p, d q)          (right side = -l2(d q, p))
    (iii) d l3(x, y, z) = l2(x, l2(y, z)) + cyclic, i.e. d . l3 + J = 0
          for the Jacobiator J
    (iv)  l3(x, y, d p) = l2(x, l2(y, p)) + l2(y, l2(p, x)) + l2(p, l2(x, y)),
          i.e. [A_i, A_j] - l2(c_ij, .) is the matrix of p -> l3(e_i, e_j, d p),
          checked by the representation axiom's kernel `commutator_defect`
    (v)   the ten-term compatibility between l2 and l3 on quadruples, i.e.
          the Chevalley-Eilenberg differential of l3 vanishes
    A failure names the first basis tuple at which the identity fails.
    """
    g0, dim0, dim1, d = t.bracket0, t.dim0, t.dim1, t.d
    spot = intertwining_defect(d, t.action1, (g0.ad_matrix(_unit(dim0, i)) for i in range(dim0)))
    if spot is not None:
        return CheckResult(False, f"axiom (i) fails at (e{spot[0]+1}, p{spot[1]+1})")
    acts = [t.rep.act(d.col(a)) for a in range(dim1)]
    for a in range(dim1):
        for b in range(a, dim1):
            if acts[a].col(b) != [-x for x in acts[b].col(a)]:
                return CheckResult(False, f"axiom (ii) fails at (p{a+1}, p{b+1})")
    col = (d * t.l3 + jacobiator(g0)).first_nonzero_col()
    if col is not None:
        i, j, k = t.triples.tuples[col]
        return CheckResult(False, f"axiom (iii) fails at (e{i+1}, e{j+1}, e{k+1})")
    spot = commutator_defect(t.rep, t.l3, d, t.triples.tuples)
    if spot is not None:
        i, j, a = spot
        return CheckResult(False, f"axiom (iv) fails at (e{i+1}, e{j+1}, p{a+1})")
    tup = first_nonzero_tuple(ce_differential(t.rep, 3).apply(_flat(t.l3)), dim0, 4, dim1)
    if tup is not None:
        i, j, k, l = tup
        return CheckResult(False, f"axiom (v) fails at (e{i+1}, e{j+1}, e{k+1}, e{l+1})")
    return CheckResult(True)


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

    def __repr__(self) -> str:
        return f"ShMorphism({self.phi0.rows}x{self.phi0.cols})"


def check_sh_morphism(src: TwoTermSh, dst: TwoTermSh, m: ShMorphism) -> CheckResult:
    """The four morphism conditions, checked on all basis tuples.

    (i)   phi0 . d = d' . phi1
    (ii)  d' phi2(x, y) = phi0 l2(x, y) - l2'(phi0 x, phi0 y)
    (iii) phi2(x, d p) = phi1 l2(x, p) - l2'(phi0 x, phi1 p)
    (iv)  l2'(phi0 x, phi2(y, z)) + c.p. + phi2(x, l2(y, z)) + c.p.
            = phi1 l3(x, y, z) - l3'(phi0 x, phi0 y, phi0 z),
          the eta row [f_3 | -delta_pull] of the degree-3 cone of the
          unchecked triple (g0, g0', phi0; g1, g1', phi1) on (l3, l3',
          phi2): f_3 = [phi1 . | -(. wedge^3 phi0)], delta_pull its d_2 of
          g0 on g1' through phi0, a homomorphism only up to d' phi2
    """
    for name, f, (rows, cols) in (("phi0", m.phi0, (dst.dim0, src.dim0)),
                                  ("phi1", m.phi1, (dst.dim1, src.dim1)),
                                  ("phi2", m.phi2, (dst.dim1, comb(src.dim0, 2)))):
        if (f.rows, f.cols) != (rows, cols):
            raise ShapeError(f"{name} must be {rows}x{cols}")

    if m.phi0 * src.d != dst.d * m.phi1:
        return CheckResult(False, "condition (i) fails: phi0 . d differs from d' . phi1")
    spot = homomorphism_defect(src.bracket0, dst.bracket0, m.phi0, dst.d * m.phi2)
    if spot is not None:
        return CheckResult(False, f"condition (ii) fails at (e{spot[0]+1}, e{spot[1]+1})")
    # Condition (iii): extra_i = phi2(e_i, .) d is phi2 times the rows +-d_q at (i, q), (q, i).
    (d_rows, ed), pairs = src.d.integer_rows(), exterior_basis(src.dim0, 2).tuples
    base = MorphismLieAlgebra(src.bracket0, dst.bracket0, m.phi0, validate=False)
    rep = MorphismRep(base, src.rep, dst.rep, m.phi1, validate=False)
    rep._w_phi = pullback_rep(base, dst.rep)
    spot = intertwining_defect(m.phi1, src.action1, rep._w_phi.action, (
        m.phi2 * Matrix.from_integer_rows(
            [d_rows[q] if p == i else {c: -x for c, x in d_rows[p].items()} if q == i else {}
             for p, q in pairs], src.dim1, ed) for i in range(src.dim0)))
    if spot is not None:
        return CheckResult(False, f"condition (iii) fails at (e{spot[0]+1}, p{spot[1]+1})")
    # The eta row of the degree-3 cone of rep on (l3, l3', phi2): f_3 minus the pulled-back d_2.
    theta, gamma = (chain := _chain_map(rep)).f(3)
    tup = first_nonzero_tuple([a + b - c for a, b, c in zip(
        theta.apply(_flat(src.l3)), gamma.apply(_flat(dst.l3)),
        chain.target.differential(2).apply(_flat(m.phi2)))], src.dim0, 3, dst.dim1)
    if tup is not None:
        i, j, k = tup
        return CheckResult(False, f"condition (iv) fails at (e{i+1}, e{j+1}, e{k+1})")
    return CheckResult(True)


class SkeletalMorphismSh:
    """A morphism pair of 2-term sh Lie algebras with both differentials zero.

    Construction verifies zero differentials, both five-identity suites,
    and the four morphism conditions.  ``triple`` holds the representation
    triple (base, rep, cochain) the data amounts to, unchecked because the
    suites already are its axioms: with d = 0, axiom (iii) is Jacobi, axiom
    (iv) the representation axiom, morphism conditions (ii) and (iii) the
    homomorphism law and the intertwining of phi1, and the three block rows
    of the degree-3 differential of (l3, l3', phi2) are axiom (v) on each
    side and condition (iv).
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
        base = MorphismLieAlgebra(source.bracket0, target.bracket0, morphism.phi0,
                                  validate=False)
        rep = MorphismRep(base, source.rep, target.rep, morphism.phi1, validate=False)
        self.triple = (base, rep, MCochain(rep, 3, theta=source.l3, gamma=target.l3,
                                           eta=morphism.phi2))

    @classmethod
    def _of_closed(cls, base: MorphismLieAlgebra, rep: MorphismRep,
                   c: MCochain) -> SkeletalMorphismSh:
        """The skeletal object of a closed degree-3 cochain on a checked triple.

        Its sh identities are the closedness of c and the axioms of the
        triple, so none is evaluated again.
        """
        s = cls.__new__(cls)
        s.source = TwoTermSh(base.g, list(rep.v.action), Matrix.zeros(base.g.dim, rep.dim_v),
                             l3=c.theta)
        s.target = TwoTermSh(base.h, list(rep.w.action), Matrix.zeros(base.h.dim, rep.dim_w),
                             l3=c.gamma)
        s.morphism = ShMorphism(base.phi, rep.psi, c.eta)
        s.triple = (base, rep, c)
        return s

    def __repr__(self) -> str:
        return (f"SkeletalMorphismSh(g0={self.source.dim0}, g1={self.source.dim1}, "
                f"h0={self.target.dim0}, h1={self.target.dim1})")


def skeletal_to_triple(s: SkeletalMorphismSh) -> tuple[MorphismLieAlgebra, MorphismRep, MCochain]:
    """The (morphism Lie algebra, representation, closed 3-cochain) of ``s``.

    Brackets come from the degree-0 l2 parts, actions from the mixed l2
    parts, and the cochain is (l3, l3', phi2); ``s`` stores them, checked
    by its own construction.
    """
    return s.triple


def triple_to_skeletal(m: MorphismLieAlgebra, rep: MorphismRep,
                       c: MCochain) -> SkeletalMorphismSh:
    """Assemble the skeletal object of a closed degree-3 cochain.

    l2(x, v) = rho_V(x) v, l2'(h, w) = rho_W(h) w, l3 = theta, l3' = gamma,
    phi2 = eta.  Only closedness is checked: with the axioms of the triple
    it is the whole sh suite.
    """
    if c.degree != 3:
        raise ShapeError("skeletal data needs a degree-3 cochain")
    if any(mla_differential(rep, 3).apply(c.to_vector())):
        raise NotACocycle("the cochain is not closed")
    return SkeletalMorphismSh._of_closed(m, rep, c)


def twist_equivalence(s: SkeletalMorphismSh, sigma: Matrix, sigma_p: Matrix,
                      phi: Matrix) -> SkeletalMorphismSh:
    """The equivalent skeletal object twisted by (sigma, sigma', phi).

    l3 gains l2(x, sigma(y, z)) + c.p. plus sigma(x, l2(y, z)) + c.p.,
    likewise l3' with sigma' on the target, and
    phi2 gains phi1 sigma(x, y) - sigma'(phi0 x, phi0 y)
              - l2'(phi0 x, phi y) - l2'(phi x, phi0 y) + phi l2(x, y).
    Together these add the coboundary of the degree-2 cochain
    (sigma, sigma', phi) to the cocycle (l3, l3', phi2) of ``s``; the sum
    is checked closed, and its triple is stored on the result.
    """
    src, dst = s.source, s.target
    if (sigma.rows, sigma.cols) != (src.dim1, comb(src.dim0, 2)):
        raise ShapeError(f"sigma must be {src.dim1}x{comb(src.dim0, 2)}")
    if (sigma_p.rows, sigma_p.cols) != (dst.dim1, comb(dst.dim0, 2)):
        raise ShapeError(f"sigma' must be {dst.dim1}x{comb(dst.dim0, 2)}")
    if (phi.rows, phi.cols) != (dst.dim1, src.dim0):
        raise ShapeError(f"phi must be {dst.dim1}x{src.dim0}")
    base, rep, before = s.triple
    shift = MCochain(rep, 2, theta=sigma, gamma=sigma_p, eta=phi)
    boundary = mla_differential(rep, 2).apply(shift.to_vector())
    after = MCochain.from_vector(
        rep, 3, [a + b for a, b in zip(before.to_vector(), boundary)])
    return triple_to_skeletal(base, rep, after)
