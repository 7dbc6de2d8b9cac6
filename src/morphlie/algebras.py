"""Lie algebras, representations, morphism pairs, and Rota-Baxter data.

All objects are specified on an ordered basis over Q: a Lie algebra is its
nonzero structure constants c_ij^k, [e_i, e_j] = sum_k c_ij^k e_k, stored
pair by pair (no dense dim^3 table), a representation is a list of action
matrices, and a morphism Lie algebra (g, h, phi) is a pair of algebras with
a homomorphism given as a matrix.  Antisymmetry is enforced at construction;
the Jacobi identity is a separate queryable check so that broken data can
still be represented and diagnosed.  Each of the four identities has one
integer kernel, shared by the group and sh layers: ``jacobiator``,
``commutator_defect`` (the representation axiom; sh axiom (iv) adds l3),
``homomorphism_defect`` (sh condition (ii) passes extra = d' phi2) and
``intertwining_defect`` (morphism reps, the Rota-Baxter module, group
triples with b_a = rho_W(Phi a), sh axiom (i) with psi = d and b_i =
ad(e_i), sh condition (iii) with extra_i = phi2(e_i, .) d).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, combinations_with_replacement, islice
from math import comb, lcm
from typing import Iterable, Mapping, Sequence

from .errors import NotAHomomorphism, RotaBaxterViolation, ShapeError, ValidationError
from .linalg import ONE, Matrix, Scalar, ZERO, _entry, _scalar_rows, rat

Vector = list[Fraction]


class CheckResult:
    """Boolean verdict plus a human-readable report of the first violation."""

    __slots__ = ("ok", "detail")

    def __init__(self, ok: bool, detail: str | None = None):
        self.ok = ok
        self.detail = detail

    def __bool__(self) -> bool:
        return self.ok

    def __repr__(self) -> str:
        return "ok" if self.ok else f"failed: {self.detail}"


class LieAlgebra:
    """A finite-dimensional algebra given by its nonzero structure constants.

    ``nonzero[i][j]`` lists the pairs (k, n) with c_ij^k = n / den != 0, k
    increasing, over one denominator ``den`` > 0 in lowest terms, so equal
    (nonzero, den) means equal constants; that is all that is stored.
    Antisymmetry c_ij^k = -c_ji^k is required at construction; whether the
    data satisfies Jacobi is a separate question answered by check_jacobi,
    so near-Lie data can be built and examined.
    """

    def __init__(self, dim: int, structure: Sequence[Sequence[Sequence[Scalar]]]):
        """Read the dense table structure[i][j][k] = c_ij^k; it is not kept."""
        if dim < 0:
            raise ShapeError("negative dimension")
        if len(structure) != dim or any(len(row) != dim for row in structure):
            raise ShapeError(f"structure table must be {dim}x{dim} vectors")
        if any(len(cij) != dim for ci in structure for cij in ci):
            raise ShapeError("bracket vectors must have length dim")
        rows, self.den = Matrix.from_rows([c for ci in structure for c in ci], dim).integer_rows()
        self.dim = dim
        self.nonzero = [[sorted(r.items()) for r in rows[i * dim:(i + 1) * dim]] for i in range(dim)]
        for i, j in combinations_with_replacement(range(dim), 2):
            if self.nonzero[i][j] != [(k, -x) for k, x in self.nonzero[j][i]]:
                raise ShapeError(f"structure constants not antisymmetric at (e{i+1}, e{j+1})")

    @classmethod
    def abelian(cls, dim: int) -> LieAlgebra:
        return cls.from_brackets(dim, {})

    @classmethod
    def from_brackets(cls, dim: int, brackets: dict[tuple[int, int], Sequence[Scalar]]) -> LieAlgebra:
        """Build from the nonzero brackets [e_i, e_j], each with [e_j, e_i] its negative."""
        if dim < 0:
            raise ShapeError("negative dimension")
        if any(len(vec) != dim for vec in brackets.values()):
            raise ShapeError("bracket vectors must have length dim")
        return cls.from_bracket_rows(dim, list(brackets), Matrix.from_rows(list(brackets.values()), dim))

    @classmethod
    def from_bracket_rows(cls, dim: int, pairs: Sequence[tuple[int, int]], rows: Matrix) -> LieAlgebra:
        """Build from [e_i, e_j] = row t of ``rows`` (dim columns) for the t-th pair (i, j).

        [e_j, e_i] is its negative; each pair may be given once, in one order.
        """
        if dim < 0:
            raise ShapeError("negative dimension")
        num, den = rows.integer_rows()
        nonzero: list[list[list[tuple[int, int]]]] = [[[] for _ in range(dim)] for _ in range(dim)]
        seen = set()
        for (i, j), row in zip(pairs, num):
            if i == j:
                raise ShapeError("bracket of a basis vector with itself must be omitted")
            if (i, j) in seen:
                raise ShapeError(f"bracket of (e{i+1}, e{j+1}) given twice")
            seen.update(((i, j), (j, i)))
            nonzero[i][j] = sorted(row.items())
            nonzero[j][i] = [(k, -x) for k, x in nonzero[i][j]]
        out = cls.__new__(cls)
        out.dim, out.nonzero, out.den = dim, nonzero, den
        return out

    def structure_vector(self, i: int, j: int) -> Vector:
        """The coordinates of [e_i, e_j]."""
        out: Vector = [ZERO] * self.dim
        for k, x in self.nonzero[i][j]:
            out[k] = _entry(x, self.den)
        return out

    def bracket(self, x: Sequence[Scalar], y: Sequence[Scalar]) -> Vector:
        """Bilinear extension of the basis brackets to coordinate vectors."""
        if len(x) != self.dim or len(y) != self.dim:
            raise ShapeError("vectors must have length dim")
        (xs, ys), (dx, dy) = _scalar_rows([enumerate(x), enumerate(y)])
        out: Vector = [ZERO] * self.dim
        for k, z in _bracket_items(self, xs, ys).items():
            if z:
                out[k] = _entry(z, dx * dy * self.den)
        return out

    def ad_matrix(self, x: Sequence[Scalar]) -> Matrix:
        """Matrix of ad(x) = [x, -]: column j is sum_i x_i [e_i, e_j], over the nonzero constants."""
        if len(x) != self.dim:
            raise ShapeError("vectors must have length dim")
        (xs,), (dx,) = _scalar_rows([enumerate(x)])
        rows: list[dict[int, int]] = [{} for _ in range(self.dim)]
        for j in range(self.dim):
            for i, xi in xs.items():
                for k, z in self.nonzero[i][j]:
                    rows[k][j] = rows[k].get(j, 0) + xi * z
        return Matrix.from_integer_rows(rows, self.dim, dx * self.den)

    def adjoint_rep(self) -> Representation:
        mats = [self.ad_matrix(_unit(self.dim, i)) for i in range(self.dim)]
        return Representation(self, self.dim, mats)

    def __repr__(self) -> str:
        return f"LieAlgebra(dim={self.dim})"


def _unit(dim: int, i: int) -> Vector:
    return [ONE if k == i else ZERO for k in range(dim)]


def _bracket_items(a: LieAlgebra, xs: Mapping[int, int], ys: Mapping[int, int]) -> dict[int, int]:
    """[x, y] times a.den for integer x, y given by their nonzero coordinates; sums may cancel to 0."""
    out: dict[int, int] = {}
    for i, x in xs.items():
        ci = a.nonzero[i]
        for j, y in ys.items():
            for k, z in ci[j]:
                out[k] = out.get(k, 0) + x * y * z
    return out


def jacobiator(a: LieAlgebra) -> Matrix:
    """[[x,y],z] + [[y,z],x] + [[z,x],y] on the basis triples, one column each.

    Columns follow the increasing triples in lexicographic order, and
    [[e_p, e_q], e_r] = sum_l c_pq^l [e_l, e_r] is summed in integers over
    a.den^2 on the nonzero constants.  A triple none of whose pairs has a
    nonzero bracket has a zero column, so only the other triples are visited.
    """
    n = a.dim
    rows: list[dict[int, int]] = [{} for _ in range(n)]
    triples = {tuple(sorted((p, q, r))) for p in range(n) for q in range(p + 1, n)
               if a.nonzero[p][q] for r in range(n) if r != p and r != q}
    for i, j, k in sorted(triples):
        # The rank of (i, j, k) among the increasing triples of range(n).
        t = comb(n, 3) - comb(n - i, 3) + comb(n - i - 1, 2) - comb(n - j, 2) + k - j - 1
        for p, q, r in ((i, j, k), (j, k, i), (k, i, j)):
            for l, x in a.nonzero[p][q]:
                for m, y in a.nonzero[l][r]:
                    rows[m][t] = rows[m].get(t, 0) + x * y
    return Matrix.from_integer_rows(rows, comb(n, 3), a.den ** 2)


def check_jacobi(a: LieAlgebra) -> CheckResult:
    """The Jacobiator vanishes; a failure names its first nonzero column."""
    t = jacobiator(a).first_nonzero_col()
    if t is None:
        return CheckResult(True)
    i, j, k = next(islice(combinations(range(a.dim), 3), t, None))
    return CheckResult(
        False, f"Jacobi identity fails on basis triple (e{i+1}, e{j+1}, e{k+1})")


class Representation:
    """A Lie algebra action on Q^dim_v by matrices rho(e_i)."""

    def __init__(self, algebra: LieAlgebra, dim_v: int, action: Sequence[Matrix],
                 validate: bool = True):
        if len(action) != algebra.dim:
            raise ShapeError("need one action matrix per basis vector")
        for m in action:
            if m.rows != dim_v or m.cols != dim_v:
                raise ShapeError(f"action matrices must be {dim_v}x{dim_v}")
        self.algebra = algebra
        self.dim_v = dim_v
        self.action = list(action)
        self._verdict: CheckResult | None = None
        self._integer_action: tuple[list[list[dict[int, int]]], int] | None = None
        if validate:
            res = self.check()
            if not res:
                raise ValidationError(res.detail)

    def check(self) -> CheckResult:
        """rho([e_i,e_j]) = rho(e_i)rho(e_j) - rho(e_j)rho(e_i) on basis pairs.

        Evaluated on the first call only, which stores the verdict, by
        `commutator_defect` on the integer rows of the action matrices.
        """
        if self._verdict is None:
            spot = commutator_defect(self)
            self._verdict = CheckResult(True) if spot is None else CheckResult(
                False, f"representation axiom fails on basis pair (e{spot[0]+1}, e{spot[1]+1})")
        return self._verdict

    def integer_action(self) -> tuple[list[list[dict[int, int]]], int]:
        """(rows, den): each rho(e_i) times den as integer rows, den a multiple of the algebra's.

        Computed on the first call and kept; read the rows, never change them.
        """
        if self._integer_action is None:
            den = lcm(self.algebra.den, *(lcm(*m.stored_rows()[1]) for m in self.action))
            self._integer_action = [m.integer_rows(den)[0] for m in self.action], den
        return self._integer_action

    def act(self, x: Sequence[Scalar]) -> Matrix:
        """Matrix of rho(x) for a coordinate vector x."""
        if len(x) != self.algebra.dim:
            raise ShapeError("vector must have length dim g")
        return Matrix.lincomb(zip(x, self.action), self.dim_v, self.dim_v)

    @classmethod
    def trivial(cls, algebra: LieAlgebra, dim_v: int) -> Representation:
        return cls(algebra, dim_v, [Matrix.zeros(dim_v, dim_v)] * algebra.dim)

    def __repr__(self) -> str:
        return f"Representation(dim_g={self.algebra.dim}, dim_v={self.dim_v})"


def commutator_defect(rep: Representation, l3: Matrix | None = None, d: Matrix | None = None,
                      triples: Sequence[tuple[int, int, int]] = ()) -> tuple[int, int, int] | None:
    """The first basis pair i < j at which D_ij is nonzero, and its lowest nonzero column.

    D_ij = [rho(e_i), rho(e_j)] - rho([e_i, e_j]) - L_ij d, where L_ij is
    x -> l3(e_i, e_j, x) for a skew l3 with one column per increasing triple
    of ``triples`` (0 without l3).  A positive multiple of D_ij is formed row
    by row from each action's integer rows, read once; None if all vanish.
    """
    acts = [m.integer_rows() for m in rep.action]
    live = [{r for r, row in enumerate(rows) if row} for rows, _ in acts]
    l3_rows, e = l3.integer_rows() if l3 is not None else ([], 1)
    d_rows, f = d.integer_rows() if d is not None else ([], 1)
    slices: dict[tuple[int, int], dict[int, list]] = {}  # (i, j) -> row -> [(d[k], l3 entry)]
    for r, row in enumerate(l3_rows):
        for t, x in row.items():
            p, q, s = triples[t]
            for pair, k, y in (((p, q), s, x), ((p, s), q, -x), ((q, s), p, x)):
                slices.setdefault(pair, {}).setdefault(r, []).append((d_rows[k], y))
    for i, j in combinations(range(rep.algebra.dim), 2):
        (ri, di), (rj, dj), terms, den_g = acts[i], acts[j], rep.algebra.nonzero[i][j], rep.algebra.den
        scale = lcm(di * dj, e * f, *(den_g * acts[k][1] for k, _ in terms))
        fp, fl = scale // (di * dj), scale // (e * f)
        minus = [(acts[k][0], x * (scale // (den_g * acts[k][1]))) for k, x in terms]
        extra, bad = slices.get((i, j), {}), set()
        # Only a row some term touches can be nonzero.
        for r in live[i].union(live[j], extra, *(live[k] for k, _ in terms)):
            acc: dict[int, int] = {}
            for left, right, sign in ((ri, rj, fp), (rj, ri, -fp)):
                for k, x in left[r].items():
                    for c, y in right[k].items():
                        acc[c] = acc.get(c, 0) + sign * x * y
            for row, x in ([(rows[r], x) for rows, x in minus]
                           + [(row, fl * y) for row, y in extra.get(r, ())]):
                for c, y in row.items():
                    acc[c] = acc.get(c, 0) - x * y
            bad.update(c for c, x in acc.items() if x)
        if bad:
            return i, j, min(bad)
    return None


def homomorphism_defect(g: LieAlgebra, h: LieAlgebra, phi: Matrix,
                        extra: Matrix | None = None) -> tuple[int, int] | None:
    """The first pair i < j with phi[e_i, e_j] - [phi e_i, phi e_j] - extra[:, t] != 0, or None.

    t counts the increasing pairs; extra defaults to 0.  Cross-multiplied in
    integers: constants over g.den and h.den, phi's columns over e, extra's over f.
    """
    if phi.rows != h.dim or phi.cols != g.dim:
        raise ShapeError(f"phi must be {h.dim}x{g.dim}, got {phi.rows}x{phi.cols}")
    pairs = list(combinations(range(g.dim), 2))
    (cols, e), (xs, f) = phi.transpose().integer_rows(), (
        extra.transpose().integer_rows() if extra is not None else ([{}] * len(pairs), 1))
    fb, fp, fx = g.den * f, h.den * e * f, g.den * h.den * e * e
    for (i, j), x in zip(pairs, xs, strict=True):
        diff = {a: fb * y for a, y in _bracket_items(h, cols[i], cols[j]).items()}
        for k, z in g.nonzero[i][j]:
            for a, y in cols[k].items():
                diff[a] = diff.get(a, 0) - fp * z * y
        for a, y in x.items():
            diff[a] = diff.get(a, 0) + fx * y
        if any(diff.values()):
            return i, j
    return None


def is_lie_homomorphism(g: LieAlgebra, h: LieAlgebra, phi: Matrix) -> CheckResult:
    """phi([x,y]_g) = [phi x, phi y]_h on all basis pairs, by `homomorphism_defect`."""
    spot = homomorphism_defect(g, h, phi)
    return CheckResult(True) if spot is None else CheckResult(
        False, f"homomorphism equation fails on basis pair (e{spot[0]+1}, e{spot[1]+1})")


def intertwining_defect(psi: Matrix, a: Sequence[Matrix], b: Iterable[Matrix],
                        extra: Iterable[Matrix] | None = None) -> tuple[int, int] | None:
    """The first i with psi a_i - b_i psi - extra_i != 0 and its lowest nonzero column, or None.

    b and extra (default 0) are read one i at a time, so a failure stops
    building them; products and sums are those of ``Matrix``, on integer rows.
    """
    for i, (ai, bi, xi) in enumerate(zip(a, b, extra or [None] * len(a), strict=True)):
        left, right = psi * ai, bi * psi if xi is None else bi * psi + xi
        if left != right:
            return i, (left - right).first_nonzero_col()
    return None


class MorphismLieAlgebra:
    """Two Lie algebras joined by a homomorphism phi: g -> h."""

    def __init__(self, g: LieAlgebra, h: LieAlgebra, phi: Matrix, validate: bool = True):
        if phi.rows != h.dim or phi.cols != g.dim:
            raise ShapeError(f"phi must be {h.dim}x{g.dim}, got {phi.rows}x{phi.cols}")
        self.g = g
        self.h = h
        self.phi = phi
        if validate:
            res = is_lie_homomorphism(g, h, phi)
            if not res:
                raise NotAHomomorphism(res.detail)

    @classmethod
    def identity(cls, g: LieAlgebra) -> MorphismLieAlgebra:
        return cls(g, g, Matrix.identity(g.dim))

    def __repr__(self) -> str:
        return f"MorphismLieAlgebra(dim_g={self.g.dim}, dim_h={self.h.dim})"


class MorphismRep:
    """A representation (V, W, psi) of a morphism Lie algebra (g, h, phi).

    V is a g-representation, W an h-representation, and the linear map
    psi: V -> W intertwines them across phi:  psi rho_V(x) = rho_W(phi x) psi.
    """

    def __init__(self, base: MorphismLieAlgebra, v: Representation, w: Representation,
                 psi: Matrix, validate: bool = True):
        if (v.algebra.nonzero, v.algebra.den) != (base.g.nonzero, base.g.den):
            raise ShapeError("V must be a representation of g")
        if (w.algebra.nonzero, w.algebra.den) != (base.h.nonzero, base.h.den):
            raise ShapeError("W must be a representation of h")
        if psi.rows != w.dim_v or psi.cols != v.dim_v:
            raise ShapeError(f"psi must be {w.dim_v}x{v.dim_v}, got {psi.rows}x{psi.cols}")
        self.base = base
        self.v = v
        self.w = w
        self.psi = psi
        self._w_phi: Representation | None = None  # W pulled back along phi, kept on first use
        if validate:
            res = check_morphism_rep(self)
            if not res:
                raise ValidationError(res.detail)

    @property
    def dim_v(self) -> int:
        return self.v.dim_v

    @property
    def dim_w(self) -> int:
        return self.w.dim_v

    def __repr__(self) -> str:
        b = self.base
        return (f"MorphismRep(g={b.g.dim}, h={b.h.dim}, "
                f"v={self.dim_v}, w={self.dim_w})")


def check_morphism_rep(m: MorphismRep) -> CheckResult:
    """Rep axioms for V and W plus the intertwining of psi, on bases.

    V and W answer with the verdict of their own first check, so a triple
    built from validated modules evaluates only the intertwining.
    """
    for name, module in (("V", m.v), ("W", m.w)):
        if not (res := module.check()):
            return CheckResult(False, f"{name}: {res.detail}")
    phi = m.base.phi
    spot = intertwining_defect(m.psi, m.v.action, (m.w.act(phi.col(i)) for i in range(phi.cols)))
    if spot is not None:
        return CheckResult(False, f"psi fails to intertwine the actions at basis vector e{spot[0]+1}")
    return CheckResult(True)


def check_morphism_homomorphism(source: MorphismLieAlgebra, target: MorphismLieAlgebra,
                                alpha: Matrix, beta: Matrix) -> CheckResult:
    """(alpha, beta) is a homomorphism of morphism Lie algebras."""
    if alpha.rows != target.g.dim or alpha.cols != source.g.dim:
        raise ShapeError("alpha has the wrong shape")
    if beta.rows != target.h.dim or beta.cols != source.h.dim:
        raise ShapeError("beta has the wrong shape")
    res = is_lie_homomorphism(source.g, target.g, alpha)
    if not res:
        return CheckResult(False, f"alpha: {res.detail}")
    res = is_lie_homomorphism(source.h, target.h, beta)
    if not res:
        return CheckResult(False, f"beta: {res.detail}")
    if target.phi * alpha != beta * source.phi:
        return CheckResult(False, "square phi' . alpha = beta . phi does not commute")
    return CheckResult(True)


def adjoint_morphism_rep(m: MorphismLieAlgebra) -> MorphismRep:
    """The morphism Lie algebra acting on itself: (g, h, phi) with psi = phi."""
    return MorphismRep(m, m.g.adjoint_rep(), m.h.adjoint_rep(), m.phi)


class RotaBaxterDatum:
    """An operator R with [Rx, Ry] = R([Rx,y] + [x,Ry] + weight [x,y]).

    The optional module part (rep, r_v) must satisfy the companion identity
    rho(Rx) R_V v = R_V (rho(Rx) v + rho(x) R_V v + weight rho(x) v).
    Both are checked once, as the morphism Lie algebra they amount to: the
    operator identity is the homomorphism law of R from g_R, g with the
    twisted bracket, to g, and the module identity is the intertwining of
    R_V from V with the twisted action rho(Rx) + rho(x) R_V + weight rho(x)
    to V.  ``morphism`` is (g_R, g, R) and ``module`` is (V twisted, V, R_V),
    or None without module data; g_R is checked for Jacobi and the twisted
    action for the representation axiom.
    """

    def __init__(self, algebra: LieAlgebra, r: Matrix, weight: Scalar,
                 rep: Representation | None = None, r_v: Matrix | None = None):
        if r.rows != algebra.dim or r.cols != algebra.dim:
            raise ShapeError("R must be a square matrix of size dim g")
        if (rep is None) != (r_v is None):
            raise ShapeError("module part needs both rep and r_v")
        self.algebra = algebra
        self.r = r
        self.weight = rat(weight)
        self.rep = rep
        self.r_v = r_v
        # [e_i, e_j]_R is column j of the twisted action of e_i on g itself, with R_V = R.
        ad = [algebra.ad_matrix(_unit(algebra.dim, i)) for i in range(algebra.dim)]
        twisted_ad = _twisted_action(ad, r, r, self.weight)[1]
        g_r = LieAlgebra(algebra.dim, [m.transpose().to_lists() for m in twisted_ad])
        res = is_lie_homomorphism(g_r, algebra, r)
        if not res:
            raise RotaBaxterViolation(f"operator identity: {res.detail}")
        twisted_action = None
        if rep is not None and r_v is not None:
            if r_v.rows != rep.dim_v or r_v.cols != rep.dim_v:
                raise ShapeError("r_v must be square of size dim V")
            pulled, twisted_action = _twisted_action(rep.action, r, r_v, self.weight)
            spot = intertwining_defect(r_v, twisted_action, pulled)
            if spot is not None:
                raise RotaBaxterViolation(f"module identity fails at basis vector e{spot[0]+1}")
        res = check_jacobi(g_r)
        if not res:
            raise RotaBaxterViolation(f"twisted bracket is not Lie: {res.detail}")
        self.morphism = MorphismLieAlgebra(g_r, algebra, r, validate=False)
        self.module = None
        if twisted_action is not None:
            self.module = MorphismRep(self.morphism, Representation(g_r, rep.dim_v, twisted_action),
                                      rep, r_v, validate=False)


def _twisted_action(action: Sequence[Matrix], r: Matrix, r_v: Matrix,
                    weight: Fraction) -> tuple[list[Matrix], list[Matrix]]:
    """rho(R e_i) and rho(R e_i) + rho(e_i) R_V + weight rho(e_i) for each i, rho = ``action``."""
    pulled = [Matrix.lincomb(zip(r.col(i), action), r_v.rows, r_v.rows) for i in range(r.cols)]
    return pulled, [p + a * r_v + a.scale(weight) for p, a in zip(pulled, action)]


def rota_baxter_morphism(d: RotaBaxterDatum) -> tuple[MorphismLieAlgebra, MorphismRep | None]:
    """The morphism Lie algebra (g_R, g, R) induced by a Rota-Baxter operator.

    g_R carries the twisted bracket; R is a homomorphism g_R -> g.  When
    module data is present, (V with the twisted action, V, R_V) is returned as
    a representation of (g_R, g, R).  Both were checked when ``d`` was built.
    """
    return d.morphism, d.module
