"""Core algebra layer: brackets, representations, morphisms, Rota-Baxter."""

import copy
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphlie.algebras import (
    LieAlgebra,
    MorphismLieAlgebra,
    MorphismRep,
    Representation,
    RotaBaxterDatum,
    adjoint_morphism_rep,
    check_jacobi,
    check_morphism_homomorphism,
    check_morphism_rep,
    is_lie_homomorphism,
    jacobiator,
    rota_baxter_morphism,
)
from morphlie.errors import (
    NotAHomomorphism,
    RotaBaxterViolation,
    ShapeError,
    ValidationError,
)
from morphlie.fixtures import (
    a1,
    a2,
    heis,
    sl2,
    sl2_v1_triple,
    standard_morphism_reps,
    v0,
    v1,
)
from morphlie.linalg import Matrix, inverse
from morphlie.sampling import Sampler

from .oracles import (
    o_antisymmetry_failure,
    o_hom_failure,
    o_rep_failure,
    o_rota_baxter_failure,
)
from .test_cohomology import _raw

VALIDATOR_DRAWS = 10
BUMPS_PER_INPUT = 6


def test_sl2_satisfies_jacobi():
    assert check_jacobi(sl2()).ok


def test_heis_satisfies_jacobi():
    assert check_jacobi(heis()).ok


def test_broken_bracket_reports_first_triple():
    # [e1,e2] = e1, [e2,e3] = e2, [e3,e1] = e3: cyclic sum is -(e1+e2+e3).
    bad = LieAlgebra.from_brackets(
        3, {(0, 1): [1, 0, 0], (1, 2): [0, 1, 0], (2, 0): [0, 0, 1]}
    )
    res = check_jacobi(bad)
    assert not res.ok
    assert "(e1, e2, e3)" in res.detail


def test_antisymmetry_enforced_at_construction():
    with pytest.raises(ShapeError):
        LieAlgebra(2, [[[0, 0], [1, 0]], [[1, 0], [0, 0]]])


def test_short_bracket_vector_is_a_shape_error():
    # c[1][0] is short; every length is checked before any antisymmetry.
    with pytest.raises(ShapeError, match="bracket vectors must have length dim"):
        LieAlgebra(2, [[[0, 0], [0, 0]], [[0], [0, 0]]])


def _verdicts(raw):
    """(package, oracle) reports for antisymmetry of g and h, V, W and phi."""
    ours, theirs = [], []
    algebras = []
    for c in (raw["c_g"], raw["c_h"]):
        try:
            algebras.append(LieAlgebra(len(c), c))
            ours.append(None)
        except ShapeError as exc:
            algebras.append(None)
            ours.append(str(exc))
        theirs.append(o_antisymmetry_failure(c))
    g, h = algebras
    for alg, c, act, n in ((g, raw["c_g"], raw["act_v"], raw["dim_v"]),
                           (h, raw["c_h"], raw["act_w"], raw["dim_w"])):
        if alg is not None:
            rep = Representation(alg, n, [Matrix.from_rows(a, cols=n) for a in act],
                                 validate=False)
            ours.append(rep.check().detail)
            theirs.append(o_rep_failure(c, act))
    if g is not None and h is not None:
        ours.append(is_lie_homomorphism(g, h, Matrix.from_rows(raw["phi"], cols=g.dim)).detail)
        theirs.append(o_hom_failure(raw["c_g"], raw["c_h"], raw["phi"]))
    return ours, theirs


def _conjugated(rep, s):
    """The raw data of rep with g and h in random dense bases P and Q."""
    g, h, phi = rep.base.g, rep.base.h, rep.base.phi
    p, q = s.invertible_matrix(g.dim), s.invertible_matrix(h.dim)
    out = _raw(rep)
    for key, alg, m in (("c_g", g, p), ("c_h", h, q)):
        m_inv = inverse(m)
        out[key] = [[m_inv.apply(alg.bracket(m.col(i), m.col(j))) for j in range(alg.dim)]
                    for i in range(alg.dim)]
    out["act_v"] = [rep.v.act(p.col(i)).to_lists() for i in range(g.dim)]
    out["act_w"] = [rep.w.act(q.col(i)).to_lists() for i in range(h.dim)]
    out["phi"] = (inverse(q) * phi * p).to_lists()
    return out


def _bumped(raw, rng):
    """A copy with one entry raised by 1; skew_* also lowers c[j][i][k], keeping antisymmetry."""
    out = copy.deepcopy(raw)
    kind = rng.choice(["c_g", "c_h", "skew_g", "skew_h", "act_v", "act_w", "phi"])
    if kind == "phi":
        if out["dim_g"] and out["dim_h"]:
            out["phi"][rng.randrange(out["dim_h"])][rng.randrange(out["dim_g"])] += 1
    elif kind.startswith("act_"):
        n, mats = out["dim_" + kind[-1]], out[kind]
        if n and mats:
            mats[rng.randrange(len(mats))][rng.randrange(n)][rng.randrange(n)] += 1
    elif dim := out["dim_" + kind[-1]]:
        c = out["c_" + kind[-1]]
        i, j, k = (rng.randrange(dim) for _ in range(3))
        c[i][j][k] += 1
        if kind.startswith("skew_") and i != j:
            c[j][i][k] -= 1
    return out


def test_validators_agree_with_dense_oracles():
    """Antisymmetry, the representation axiom and the homomorphism law name the
    same first failing pair as the dense oracles, or pass with them, on the
    catalog, Sampler(404) draws, dense conjugated bases and one-entry bumps."""
    s, rng = Sampler(404), random.Random(404)
    catalog = [rep for _, rep in standard_morphism_reps()]
    inputs = [_raw(rep) for rep in catalog + [s.morphism_rep() for _ in range(VALIDATOR_DRAWS)]]
    inputs += [_conjugated(rep, s) for rep in catalog]
    failing = 0
    for k, raw in enumerate(inputs):
        for case in [raw] + [_bumped(raw, rng) for _ in range(BUMPS_PER_INPUT)]:
            ours, theirs = _verdicts(case)
            assert ours == theirs, f"input #{k}"
            failing += sum(r is not None for r in theirs)
    assert failing >= len(inputs) * BUMPS_PER_INPUT // 2


def test_bracket_is_bilinear():
    g = sl2()
    x = [Fraction(1), Fraction(2), Fraction(0)]
    y = [Fraction(0), Fraction(1), Fraction(-1)]
    doubled = g.bracket([2 * c for c in x], y)
    assert doubled == [2 * c for c in g.bracket(x, y)]


def test_v1_is_a_representation():
    assert v1().check().ok


def test_adjoint_rep_satisfies_axiom():
    for g in (a1(), a2(), heis(), sl2()):
        assert g.adjoint_rep().check().ok


def test_invalid_representation_rejected():
    g = sl2()
    action = [Matrix.identity(2), Matrix.zeros(2, 2), Matrix.zeros(2, 2)]
    with pytest.raises(ValidationError):
        Representation(g, 2, action)
    rep = Representation(g, 2, action, validate=False)
    assert not rep.check().ok


def test_identity_is_homomorphism():
    g = sl2()
    assert is_lie_homomorphism(g, g, Matrix.identity(3)).ok


def test_scaling_sl2_identity_not_homomorphism():
    g = sl2()
    res = is_lie_homomorphism(g, g, Matrix.identity(3).scale(2))
    assert not res.ok


def test_morphism_constructor_validates():
    g = sl2()
    with pytest.raises(NotAHomomorphism):
        MorphismLieAlgebra(g, g, Matrix.identity(3).scale(2))


def test_non_intertwining_psi_rejected():
    # psi = [[0,1],[0,0]] does not commute with the V1 action along id.
    g = sl2()
    m = MorphismLieAlgebra.identity(g)
    rep = v1(g)
    psi = Matrix.from_rows([[0, 1], [0, 0]])
    broken = MorphismRep(m, rep, rep, psi, validate=False)
    res = check_morphism_rep(broken)
    assert not res.ok
    assert "intertwine" in res.detail
    with pytest.raises(ValidationError):
        MorphismRep(m, rep, rep, psi)


def test_morphism_rep_shape_errors():
    g = sl2()
    m = MorphismLieAlgebra.identity(g)
    with pytest.raises(ShapeError):
        MorphismRep(m, v1(g), v0(g), Matrix.identity(2))


def test_morphism_rep_needs_modules_of_its_own_algebras():
    # A module of another algebra of the same dimension is refused; a copy
    # of g with the same structure constants is accepted.
    g = sl2()
    m = MorphismLieAlgebra.identity(g)
    other = Representation.trivial(LieAlgebra.abelian(3), 1)
    with pytest.raises(ShapeError, match="V must be a representation of g"):
        MorphismRep(m, other, Representation.trivial(g, 1), Matrix.identity(1))
    with pytest.raises(ShapeError, match="W must be a representation of h"):
        MorphismRep(m, Representation.trivial(g, 1), other, Matrix.identity(1))
    copy = Representation.trivial(sl2(), 1)
    assert MorphismRep(m, copy, copy, Matrix.identity(1)).dim_v == 1


def test_intertwining_holds_on_fixture():
    assert check_morphism_rep(sl2_v1_triple()).ok


def test_morphism_homomorphism_square():
    g = sl2()
    src = MorphismLieAlgebra.identity(g)
    alpha = Matrix.identity(3)
    assert check_morphism_homomorphism(src, src, alpha, alpha).ok
    res = check_morphism_homomorphism(src, src, alpha, alpha.scale(2))
    assert not res.ok


def test_zero_rota_baxter_scales_bracket():
    # R = 0: the twisted bracket is weight * [x, y].
    g = sl2()
    lam = Fraction(3)
    d = RotaBaxterDatum(g, Matrix.zeros(3, 3), lam)
    morphism, module = rota_baxter_morphism(d)
    assert module is None
    for i in range(3):
        for j in range(3):
            expected = [lam * c for c in g.c[i][j]]
            assert morphism.g.c[i][j] == expected
    assert morphism.phi.is_zero()


def test_identity_rota_baxter_weight_minus_one():
    # R = id, weight -1: [Rx,y] + [x,Ry] - [x,y] = [x,y], so g_R = g and phi = id.
    g = sl2()
    d = RotaBaxterDatum(g, Matrix.identity(3), -1)
    morphism, _ = rota_baxter_morphism(d)
    assert morphism.g.c == g.c
    assert morphism.phi == Matrix.identity(3)


def test_any_operator_on_abelian_is_rota_baxter():
    g = a2()
    r = Matrix.from_rows([[1, 2], [3, 4]])
    d = RotaBaxterDatum(g, r, Fraction(5))
    morphism, _ = rota_baxter_morphism(d)
    assert morphism.g.c == g.c  # still abelian


def test_invalid_rota_baxter_rejected():
    g = sl2()
    r = Matrix.from_rows([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    with pytest.raises(RotaBaxterViolation):
        RotaBaxterDatum(g, r, 0)


def test_rota_baxter_module_identity():
    # R = id, weight -1 with R_V = id: module identity reads rho(x) = rho(x).
    g = sl2()
    rep = v1(g)
    d = RotaBaxterDatum(g, Matrix.identity(3), -1, rep=rep, r_v=Matrix.identity(2))
    morphism, module = rota_baxter_morphism(d)
    assert module is not None
    assert check_morphism_rep(module).ok


def test_rota_baxter_module_violation():
    g = sl2()
    rep = v1(g)
    bad_rv = Matrix.from_rows([[1, 0], [0, 0]])
    with pytest.raises(RotaBaxterViolation):
        RotaBaxterDatum(g, Matrix.identity(3), -1, rep=rep, r_v=bad_rv)


def _direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    n = a.dim + b.dim
    table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    for i in range(a.dim):
        for j in range(a.dim):
            table[i][j][:a.dim] = a.c[i][j]
    for i in range(b.dim):
        for j in range(b.dim):
            table[a.dim + i][a.dim + j][a.dim:] = b.c[i][j]
    return LieAlgebra(n, table)


def _rota_baxter_data():
    """(g, R, weight, rep, R_V) tuples that satisfy both identities.

    R = 0 and R = -weight id on any g, -weight times the projection onto one
    factor of a direct sum, and any R on an abelian algebra.  R_V = 0 suits
    any R; R_V = -weight id suits R = 0 and R = -weight id; the adjoint
    module with R_V = R suits every R.
    """
    rng = random.Random(20261018)
    data = []
    s = sl2()
    for g, module in ((s, v1(s)), (heis(), None)):
        for lam in (Fraction(3), Fraction(-1, 2)):
            for r in (Matrix.zeros(3, 3), Matrix.identity(3).scale(-lam)):
                data.append((g, r, lam, None, None))
                data.append((g, r, lam, g.adjoint_rep(), r))
                if module is not None:
                    for r_v in (Matrix.zeros(2, 2), Matrix.identity(2).scale(-lam)):
                        data.append((g, r, lam, module, r_v))
    s = _direct_sum(sl2(), heis())
    lam = Fraction(2)
    for factor in (range(3), range(3, 6)):
        r = Matrix.from_rows([[-lam if i == j and i in factor else 0 for j in range(6)]
                              for i in range(6)])
        data.append((s, r, lam, s.adjoint_rep(), r))
        data.append((s, r, lam, Representation.trivial(s, 2), Matrix.zeros(2, 2)))
    for dim in (2, 3):
        g = LieAlgebra.abelian(dim)
        for _ in range(3):
            r = Matrix.from_rows([[rng.randint(-3, 3) for _ in range(dim)] for _ in range(dim)])
            lam = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
            data.append((g, r, lam, None, None))
            data.append((g, r, lam, Representation.trivial(g, 2),
                         Matrix.from_rows([[rng.randint(-2, 2) for _ in range(2)]
                                           for _ in range(2)])))
    return data


def _bump_entry(rng: random.Random, m: Matrix) -> Matrix:
    """m with one entry moved by a nonzero amount."""
    rows = m.to_lists()
    rows[rng.randrange(m.rows)][rng.randrange(m.cols)] += rng.choice([-1, 1, 2])
    return Matrix.from_rows(rows, cols=m.cols)


def test_rota_baxter_matches_oracle():
    # The datum checks the operator identity as the homomorphism law of
    # R: g_R -> g and the module identity as the intertwining of R_V; the
    # dense oracle states both identities directly.
    rng = random.Random(20261019)
    cases = []
    for g, r, lam, rep, r_v in _rota_baxter_data():
        cases.append((g, r, lam, rep, r_v))
        cases.append((g, _bump_entry(rng, r), lam, rep, r_v))
        if rep is not None:
            cases.append((g, r, lam, rep, _bump_entry(rng, r_v)))
    seen = set()
    for g, r, lam, rep, r_v in cases:
        found = o_rota_baxter_failure(
            g.c, r.to_lists(), lam, None if rep is None else [a.to_lists() for a in rep.action],
            None if r_v is None else r_v.to_lists())
        seen.add(None if found is None else found[0])
        if found is None:
            morphism, module = rota_baxter_morphism(RotaBaxterDatum(g, r, lam, rep, r_v))
            assert o_hom_failure(morphism.g.c, g.c, r.to_lists()) is None
            assert (module is None) == (rep is None)
            if module is not None:
                assert o_rep_failure(morphism.g.c,
                                     [a.to_lists() for a in module.v.action]) is None
                assert module.w is rep and module.psi == r_v
            continue
        label, index = found
        expected = (f"operator identity: homomorphism equation fails on basis pair "
                    f"(e{index[0] + 1}, e{index[1] + 1})" if label == "operator"
                    else f"module identity fails at basis vector e{index[0] + 1}")
        with pytest.raises(RotaBaxterViolation) as exc:
            RotaBaxterDatum(g, r, lam, rep, r_v)
        assert str(exc.value) == expected
    assert seen == {None, "operator", "module"}


def test_adjoint_morphism_rep_valid():
    m = adjoint_morphism_rep(MorphismLieAlgebra.identity(heis()))
    assert check_morphism_rep(m).ok


_small = st.integers(min_value=-3, max_value=3)


@settings(max_examples=25, deadline=None)
@given(st.lists(_small, min_size=9, max_size=9), st.lists(_small, min_size=9, max_size=9))
def test_homomorphism_composition_closed(flat_a, flat_b):
    """If alpha and beta are endomorphism homs of HEIS, so is beta . alpha."""
    g = heis()
    alpha = Matrix.from_rows([flat_a[0:3], flat_a[3:6], flat_a[6:9]])
    beta = Matrix.from_rows([flat_b[0:3], flat_b[3:6], flat_b[6:9]])
    if not (is_lie_homomorphism(g, g, alpha).ok and is_lie_homomorphism(g, g, beta).ok):
        return
    assert is_lie_homomorphism(g, g, beta * alpha).ok


@settings(max_examples=25, deadline=None)
@given(st.lists(_small, min_size=3, max_size=3))
def test_ad_matrix_matches_bracket(coords):
    g = sl2()
    x = [Fraction(c) for c in coords]
    ad = g.ad_matrix(x)
    for j in range(3):
        e_j = [Fraction(1) if t == j else Fraction(0) for t in range(3)]
        assert ad.col(j) == g.bracket(x, e_j)


def _jacobi_reference(c, dim):
    """First failing basis triple i<j<k of a structure table, on plain lists."""
    def br(x, y):
        out = [Fraction(0)] * dim
        for i in range(dim):
            for j in range(dim):
                for k in range(dim):
                    out[k] += x[i] * y[j] * c[i][j][k]
        return out

    e = [[Fraction(int(a == b)) for a in range(dim)] for b in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            for k in range(j + 1, dim):
                terms = (br(br(e[i], e[j]), e[k]), br(br(e[j], e[k]), e[i]),
                         br(br(e[k], e[i]), e[j]))
                if any(sum(t) for t in zip(*terms)):
                    return f"Jacobi identity fails on basis triple (e{i+1}, e{j+1}, e{k+1})"
    return None


@st.composite
def antisymmetric_tables(draw):
    """Random antisymmetric tables, sparse; most are not Lie algebras."""
    dim = draw(st.integers(0, 5))
    value = st.one_of(st.just(0), st.just(0), st.integers(-2, 2))
    c = [[[Fraction(0)] * dim for _ in range(dim)] for _ in range(dim)]
    for i in range(dim):
        for j in range(i + 1, dim):
            vec = [Fraction(x) for x in draw(st.lists(value, min_size=dim, max_size=dim))]
            c[i][j] = vec
            c[j][i] = [-x for x in vec]
    return dim, c


@settings(max_examples=150, deadline=None)
@given(antisymmetric_tables())
def test_check_jacobi_matches_brute_force(table):
    dim, c = table
    expected = _jacobi_reference(c, dim)
    res = check_jacobi(LieAlgebra(dim, c))
    assert res.ok == (expected is None)
    assert res.detail == expected


@settings(max_examples=100, deadline=None)
@given(antisymmetric_tables())
def test_jacobiator_columns_match_brute_force(table):
    dim, c = table

    def br(x, y):
        return [sum((x[i] * y[j] * c[i][j][k] for i in range(dim) for j in range(dim)),
                    Fraction(0)) for k in range(dim)]

    e = [[Fraction(int(a == b)) for a in range(dim)] for b in range(dim)]
    triples = [(i, j, k) for i in range(dim) for j in range(i + 1, dim)
               for k in range(j + 1, dim)]
    jac = jacobiator(LieAlgebra(dim, c))
    assert (jac.rows, jac.cols) == (dim, len(triples))
    for t, (i, j, k) in enumerate(triples):
        terms = (br(br(e[i], e[j]), e[k]), br(br(e[j], e[k]), e[i]),
                 br(br(e[k], e[i]), e[j]))
        assert jac.col(t) == [sum(xs, Fraction(0)) for xs in zip(*terms)]
