"""Closed-form laws as referees for the assembled differentials.

The dense oracles referee the catalog and small samples; at sl3 or heis7
scale the only other check is d . d = 0, which a wrong but square-zero
block passes.  The expected values here come from closed forms in
``tests/oracles.py``: Betti numbers, Whitehead's vanishing, the
identity-triple law and Maschke's theorem over Q.  A sign error that keeps
d . d = 0 and these laws (a negated bracket term on trivial or 2-step
nilpotent modules, a flipped last face on Z2) is caught by applying the
differentials at that scale to a few sparse cochains, against the oracles.
"""

import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from morphlie.algebras import LieAlgebra, MorphismLieAlgebra, Representation, adjoint_morphism_rep
from morphlie.cecomplex import ce_complex, ce_differential
from morphlie.cohomology import mla_complex
from morphlie.fixtures import (
    klein_to_z2_triple,
    sign_module,
    sl2,
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

from .oracles import (
    _mk_act,
    _mk_brk,
    dense_table,
    o_bar_apply,
    o_betti_heis,
    o_betti_sl2_power,
    o_betti_sl3,
    o_ce_apply,
    o_identity_triple_dims,
)


def _sl3() -> LieAlgebra:
    """sl3 in the basis E12, E13, E21, E23, E31, E32, H1 = E11 - E22, H2 = E22 - E33."""
    off = [(0, 1), (0, 2), (1, 0), (1, 2), (2, 0), (2, 1)]
    basis = []
    for r, c in off:
        m = [[0] * 3 for _ in range(3)]
        m[r][c] = 1
        basis.append(m)
    basis += [[[1, 0, 0], [0, -1, 0], [0, 0, 0]], [[0, 0, 0], [0, 1, 0], [0, 0, -1]]]

    def bracket(a, b):
        return [[sum(a[i][k] * b[k][j] - b[i][k] * a[k][j] for k in range(3))
                 for j in range(3)] for i in range(3)]

    def coords(m):  # x H1 + y H2 = diag(x, y - x, -y)
        return [m[r][c] for r, c in off] + [m[0][0], -m[2][2]]

    return LieAlgebra.from_brackets(8, {(i, j): coords(bracket(basis[i], basis[j]))
                                        for i, j in combinations(range(8), 2)})


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


ALGEBRAS = {"sl2": sl2, "sl3": _sl3, "sl2xsl2": lambda: _direct_sum(sl2(), sl2()),
            "heis5": lambda: _heis(2), "heis7": lambda: _heis(3)}
BETTI = {"sl2": o_betti_sl2_power(1), "sl3": o_betti_sl3(), "sl2xsl2": o_betti_sl2_power(2),
         "heis5": o_betti_heis(2), "heis7": o_betti_heis(3)}


@pytest.mark.parametrize("name", BETTI)
def test_betti_numbers(name):
    g = ALGEBRAS[name]()
    complex_ = ce_complex(Representation.trivial(g, 1))
    assert [complex_.dim_H(n) for n in range(g.dim + 1)] == BETTI[name]


def test_whitehead_sl3_adjoint_vanishes_in_every_degree():
    g = _sl3()
    complex_ = ce_complex(g.adjoint_rep())
    assert [complex_.dim_H(n) for n in range(g.dim + 1)] == [0] * (g.dim + 1)


@pytest.mark.parametrize("name", ["heis5", "sl2xsl2"])
def test_identity_triple_law_on_adjoint_triples(name):
    g = ALGEBRAS[name]()
    ce = ce_complex(g.adjoint_rep())
    expected = o_identity_triple_dims([ce.dim_H(n) for n in range(g.dim + 2)], g.dim)
    triple = mla_complex(adjoint_morphism_rep(MorphismLieAlgebra.identity(g)))
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
@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("name", MODULES)
def test_maschke_group_cohomology_vanishes(name, normalized):
    complex_ = group_complex(MODULES[name](), normalized)
    assert [complex_.dim_H(n) for n in (1, 2, 3)] == [0, 0, 0]


@pytest.mark.parametrize("normalized", [False, True])
@pytest.mark.parametrize("name", TRIPLES)
def test_maschke_morphism_group_cohomology_vanishes(name, normalized):
    complex_ = mlg_complex(TRIPLES[name](), normalized)
    assert [complex_.dim_H(n) for n in (2, 3)] == [0, 0]


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
