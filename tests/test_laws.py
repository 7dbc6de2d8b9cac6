"""Closed-form laws as referees for the assembled differentials.

The dense oracles referee the catalog and small samples; at sl3 or heis7
scale the only other check is d . d = 0, which a wrong but square-zero
block passes.  The expected values here come from closed forms in
``tests/oracles.py``: Betti numbers, Whitehead's vanishing, Poincare
duality, the identity-triple law, Maschke's theorem over Q and the cone's
long exact sequence (with a dense induced-map oracle).  A sign error that
keeps d . d = 0 and these laws (a negated bracket term on trivial or 2-step
nilpotent modules, a flipped last face on Z2) is caught by applying the
differentials at that scale to a few sparse cochains, against the oracles.
"""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from morphlie import cohomology, groups
from morphlie.algebras import LieAlgebra, MorphismLieAlgebra, Representation, adjoint_morphism_rep
from morphlie.cecomplex import ce_complex, ce_differential
from morphlie.cohomology import mla_complex
from morphlie.fixtures import (
    heis,
    klein_to_z2_triple,
    sign_module,
    sl2,
    standard_morphism_reps,
    v1,
    z2_identity_triple,
    z3_rotation_module,
    z4_rotation_module,
    z4_to_z2_sign_triple,
)
from morphlie.groups import (
    FiniteGroup,
    GroupModule,
    GroupModuleTriple,
    group_complex,
    group_differential,
    mlg_complex,
)
from morphlie.linalg import ChainMap, cone
from morphlie.sampling import Sampler

from .oracles import (
    _mk_act,
    _mk_brk,
    dense_table,
    o_average_action,
    o_average_apply,
    o_bar_apply,
    o_betti_heis,
    o_betti_sl2_power,
    o_betti_sl3,
    o_ce_apply,
    o_group_tuples,
    o_identity_triple_dims,
    o_induced_rank,
    o_poly_product,
)
from .test_groups import _unchecked, _unchecked_triple


def _sl(n: int) -> LieAlgebra:
    """sl_n in the basis E_rc (r != c, lex order), then H_i = E_ii - E_{i+1,i+1}.

    For n = 3: E12, E13, E21, E23, E31, E32, H1, H2.
    """
    off = [(r, c) for r in range(n) for c in range(n) if r != c]
    basis = []
    for r, c in off:
        m = [[0] * n for _ in range(n)]
        m[r][c] = 1
        basis.append(m)
    for i in range(n - 1):
        m = [[0] * n for _ in range(n)]
        m[i][i], m[i + 1][i + 1] = 1, -1
        basis.append(m)

    def bracket(a, b):
        return [[sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(n))
                 for j in range(n)] for i in range(n)]

    def coords(m):  # sum x_i H_i = diag(x_1, x_2 - x_1, ..., -x_{n-1})
        return [m[r][c] for r, c in off] + [sum(m[k][k] for k in range(i + 1))
                                            for i in range(n - 1)]

    dim = n * n - 1
    return LieAlgebra.from_brackets(dim, {(i, j): coords(bracket(basis[i], basis[j]))
                                          for i, j in combinations(range(dim), 2)})


def _direct_sum(a: LieAlgebra, b: LieAlgebra) -> LieAlgebra:
    n = a.dim + b.dim
    c_a, c_b = dense_table(a), dense_table(b)
    brackets = {(i, j): c_a[i][j] + [0] * b.dim for i, j in combinations(range(a.dim), 2)}
    brackets.update({(a.dim + i, a.dim + j): [0] * a.dim + c_b[i][j]
                     for i, j in combinations(range(b.dim), 2)})
    return LieAlgebra.from_brackets(n, brackets)


def _heis(n: int) -> LieAlgebra:
    """heis_{2n+1}: [e_i, e_{n+i}] = e_{2n} for i < n."""
    top = [0] * (2 * n) + [1]
    return LieAlgebra.from_brackets(2 * n + 1, {(i, n + i): top for i in range(n)})


ALGEBRAS = {"sl2": sl2, "sl3": lambda: _sl(3), "sl2xsl2": lambda: _direct_sum(sl2(), sl2()),
            "heis5": lambda: _heis(2), "heis7": lambda: _heis(3)}
BETTI = {"sl2": o_betti_sl2_power(1), "sl3": o_betti_sl3(), "sl2xsl2": o_betti_sl2_power(2),
         "heis5": o_betti_heis(2), "heis7": o_betti_heis(3)}


@pytest.mark.parametrize("name", BETTI)
def test_betti_numbers(name):
    g = ALGEBRAS[name]()
    complex_ = ce_complex(Representation.trivial(g, 1))
    assert [complex_.dim_H(n) for n in range(g.dim + 1)] == BETTI[name]


def test_sl4_betti_numbers_to_degree_7():
    # SU(4): (1 + t^3)(1 + t^5)(1 + t^7); degrees above 7 would take minutes.
    complex_ = ce_complex(Representation.trivial(_sl(4), 1))
    expected = o_poly_product([1, 0, 0, 1], [1, 0, 0, 0, 0, 1], [1, 0, 0, 0, 0, 0, 0, 1])
    assert [complex_.dim_H(n) for n in range(8)] == expected[:8] == [1, 0, 0, 1, 0, 1, 0, 1]


DUALITY = {"sl2-v1": lambda: v1(sl2()), "sl2-adjoint": lambda: sl2().adjoint_rep(),
           "heis-adjoint": lambda: heis().adjoint_rep(),
           "heis5-adjoint": lambda: ALGEBRAS["heis5"]().adjoint_rep(),
           "sl3-adjoint": lambda: _sl(3).adjoint_rep()}


@pytest.mark.parametrize("name", DUALITY)
def test_poincare_duality(name):
    # g unimodular: dim H^n(g, V) = dim H^{d-n}(g, V*), with V* acting by -rho(x)^T
    # (Hazewinkel, Math. USSR Sb. 12, 1970).
    rep = DUALITY[name]()
    dual = Representation(rep.algebra, rep.dim_v, [-a.transpose() for a in rep.action])
    d = rep.algebra.dim
    ce, ce_dual = ce_complex(rep), ce_complex(dual)
    dims = [ce.dim_H(n) for n in range(d + 1)]
    assert dims == [ce_dual.dim_H(d - n) for n in range(d + 1)]
    if name == "heis-adjoint":
        assert dims == [1, 4, 5, 2]


def test_whitehead_sl3_adjoint_vanishes_in_every_degree():
    g = _sl(3)
    complex_ = ce_complex(g.adjoint_rep())
    assert [complex_.dim_H(n) for n in range(g.dim + 1)] == [0] * (g.dim + 1)


@pytest.mark.parametrize("name", ["heis5", "sl2xsl2", "sl3", "heis7"])
def test_identity_triple_law_on_adjoint_triples(name):
    g = ALGEBRAS[name]()
    ce = ce_complex(g.adjoint_rep())
    expected = o_identity_triple_dims([ce.dim_H(n) for n in range(g.dim + 2)], g.dim)
    rep = adjoint_morphism_rep(MorphismLieAlgebra.identity(g))
    # psi = id: the table is read off C(h, W), by this very law, so the cone
    # route, which builds and ranks the whole cone, referees it too.
    chain = cohomology._chain_map(rep)
    for triple in (mla_complex(rep), cone(ChainMap(chain.source, chain.target, chain.f, chain.psi),
                                          True, "morphism")):
        assert [triple.dim_H(n) for n in range(g.dim + 2)] == expected


MODULES = {
    "z2-trivial": lambda: GroupModule.trivial(FiniteGroup.cyclic(2), 1),
    "z2-sign": lambda: sign_module(FiniteGroup.cyclic(2)),
    "z4-sign": lambda: sign_module(FiniteGroup.cyclic(4)),
    "z3-rotation": z3_rotation_module,
    "z4-rotation": z4_rotation_module,
    "klein-trivial": lambda: GroupModule.trivial(FiniteGroup.klein_four(), 1),
}
TRIPLES = {
    "z2-identity": z2_identity_triple,
    "z2-sign-identity": lambda: GroupModuleTriple.identity(sign_module(FiniteGroup.cyclic(2))),
    "z3-rotation-identity": lambda: GroupModuleTriple.identity(z3_rotation_module()),
    "klein-to-z2": klein_to_z2_triple,
    "z4-to-z2-sign": z4_to_z2_sign_triple,
}


# Maschke over Q: |G| is invertible, so averaging is a contracting homotopy
# of the bar complex in degrees >= 1, and of the morphism-group cone in
# degrees >= 2 (the default complex differs from the cone only in H^1).
# A validated module's table reads its ranks there off this theorem, so the
# laws run on unchecked modules, which eliminate every degree, and the two
# routes' tables must agree.
@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("name", MODULES)
def test_maschke_group_cohomology_vanishes(name, normalized):
    module = MODULES[name]()
    complex_ = group_complex(_unchecked(module), normalized)
    assert [complex_.dim_H(n) for n in (1, 2, 3)] == [0, 0, 0]
    assert group_complex(module, normalized).table(3) == complex_.table(3)


@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("name", TRIPLES)
def test_maschke_morphism_group_cohomology_vanishes(name, normalized):
    t = TRIPLES[name]()
    complex_ = mlg_complex(_unchecked_triple(t), normalized)
    assert [complex_.dim_H(n) for n in (2, 3)] == [0, 0]
    assert mlg_complex(t, normalized).table(3) == complex_.table(3)


def test_averaging_is_a_contracting_homotopy_of_the_bar_differential():
    """d_{n-1} h_n + h_{n+1} d_n = I on C^n for n = 1..3, and h_1 d_0 = I - A on C^0.

    h is the oracle's averaging over the last argument, d the package's
    ``group_differential``, on every catalog module, full and normalized:
    the theorem that validated tables read their ranks off.  Averaging over
    the last argument commutes with the first face, so the identity above
    degree 0 does not see rho; the degree-0 case, with A the average of rho,
    does.
    """
    for name, make in MODULES.items():
        module = make()
        group, dim = module.group, module.dim
        rho = [m.to_lists() for m in module.action]
        for normalized in (False, True):
            tuples = [o_group_tuples(group.order, group.identity, n, normalized)
                      for n in range(5)]

            def cochain(n, flat):
                return {t: flat[i * dim:(i + 1) * dim] for i, t in enumerate(tuples[n])}

            def h(n, flat):
                f = o_average_apply(group.order, group.identity, dim, cochain(n, flat), n,
                                    normalized)
                return [x for t in tuples[n - 1] for x in f[t]]

            d = [group_differential(module, n, normalized) for n in range(4)]
            for n in range(4):
                size = len(tuples[n]) * dim
                for j in range(size):
                    unit = [Fraction(int(k == j)) for k in range(size)]
                    got = h(n + 1, d[n].apply(unit))
                    if n:
                        got = [x + y for x, y in zip(got, d[n - 1].apply(h(n, unit)))]
                        expected = unit
                    else:
                        expected = [x - y for x, y in zip(unit, o_average_action(group.order,
                                                                                 rho, unit))]
                    assert got == expected, (name, normalized, n, j)


def _sparse_cochains(seed, tuples, dim, count=3):
    """count cochains, each with three rational values: (oracle dict, flat vector) pairs.

    The flat vector lists the values tuple by tuple in the order of ``tuples``.
    """
    rng = random.Random(seed)
    for _ in range(count):
        f = {tup: [Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2])) for _ in range(dim)]
             for tup in rng.sample(tuples, 3)}
        yield f, [x for tup in tuples for x in f.get(tup, [Fraction(0)] * dim)]


@pytest.mark.parametrize("module", ["trivial", "adjoint"])
@pytest.mark.parametrize("name", ["sl3", "heis7"])
def test_ce_differential_applies_like_the_oracle(name, module):
    g = ALGEBRAS[name]()
    rep = Representation.trivial(g, 1) if module == "trivial" else g.adjoint_rep()
    brk, act = _mk_brk(dense_table(g)), _mk_act([m.to_lists() for m in rep.action])
    for n in (2, 3):
        source = list(combinations(range(g.dim), n))
        target = list(combinations(range(g.dim), n + 1))
        d = ce_differential(rep, n)
        for f, flat in _sparse_cochains(n, source, rep.dim_v):
            df = o_ce_apply(g.dim, brk, act, rep.dim_v, f, n)
            assert d.apply(flat) == [x for tup in target for x in df[tup]], n


@pytest.mark.parametrize("name", ["sl3", "heis7"])
def test_ad_matrix_matches_the_dense_table(name):
    """ad(x) has entry sum_i x_i c_ij^k at (k, j), for seeded sparse rational x."""
    g = ALGEBRAS[name]()
    c = dense_table(g)
    rng = random.Random(name)
    for _ in range(6):
        x = [Fraction(0)] * g.dim
        for i in rng.sample(range(g.dim), rng.randint(1, 3)):
            x[i] = Fraction(rng.choice([-3, -1, 1, 2]), rng.choice([1, 2, 3]))
        assert g.ad_matrix(x).to_lists() == [
            [sum((x[i] * c[i][j][k] for i in range(g.dim)), Fraction(0)) for j in range(g.dim)]
            for k in range(g.dim)]


@pytest.mark.parametrize("module", ["trivial", "sign"])
def test_normalized_z6_bar_differential_applies_like_the_oracle(module):
    z6 = FiniteGroup.cyclic(6)
    m = GroupModule.trivial(z6, 1) if module == "trivial" else sign_module(z6)
    rho = [a.to_lists() for a in m.action]
    others = [x for x in range(z6.order) if x != z6.identity]
    for n in (3, 4):
        source, target = list(product(others, repeat=n)), list(product(others, repeat=n + 1))
        d = group_differential(m, n, normalized=True)
        for f, flat in _sparse_cochains(n, source, m.dim):
            df = o_bar_apply(z6.order, z6.mul, z6.identity, rho, m.dim, f, n, True)
            assert d.apply(flat) == [x for tup in target for x in df[tup]], n


def _assert_long_exact_sequence(chain, full, cut, top=3):
    """The cone K = ``full`` of f: A -> B against the long exact sequence, to degree top:
    dim H^n(K) = (dim H^n(A) - rank f_*^n) + (dim H^{n-1}(B) - rank f_*^{n-1}), with
    rank f_* from the dense oracle.  T = ``cut``, K with C^0 cut down to the graph of
    psi, has H^0(T) = H^0(K), dim H^1(T) = dim H^1(K) + dim W and H^n(T) = H^n(K) above."""
    b = chain.target

    def induced(n):
        if n < 0:
            return 0
        d_prev = b.differential(n - 1).to_lists() if n else [[] for _ in range(b.dim(0))]
        return o_induced_rank([(a.differential(n).to_lists(), f.to_lists(), a.dim(n))
                               for a, f in zip(chain.source, chain.f(n))], d_prev)

    ranks = [induced(n) for n in range(-1, top + 1)]  # rank f_*^{n-1} at index n
    for n in range(top + 1):
        kernel = sum(a.dim_H(n) for a in chain.source) - ranks[n + 1]
        assert full.dim_H(n) == kernel + b.dim_H(n - 1) - ranks[n], n
        assert cut.dim_H(n) == full.dim_H(n) + (chain.psi.rows if n == 1 else 0), n


@pytest.mark.parametrize("name, rep", standard_morphism_reps(),
                         ids=[name for name, _ in standard_morphism_reps()])
def test_the_cone_obeys_its_long_exact_sequence(name, rep):
    _assert_long_exact_sequence(cohomology._chain_map(rep), mla_complex(rep, cone=True),
                                mla_complex(rep))


def test_the_cone_obeys_its_long_exact_sequence_on_sampled_triples():
    # The 20 Sampler(404) draws of acceptance check 4: modules in random
    # bases and psi drawn from the whole intertwiner space.
    s = Sampler(404)
    for _ in range(20):
        rep = s.morphism_rep()
        _assert_long_exact_sequence(cohomology._chain_map(rep), mla_complex(rep, cone=True),
                                    mla_complex(rep))


@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("name", TRIPLES)
def test_the_group_cone_obeys_its_long_exact_sequence(name, normalized):
    t = TRIPLES[name]()
    _assert_long_exact_sequence(groups._chain_map(t, normalized),
                                cone(groups._chain_map(t, normalized)), mlg_complex(t, normalized))
