"""Tests for finite-group cochains and morphism-group cohomology."""

import random
from fractions import Fraction

import pytest

from morphlie import groups
from morphlie.errors import (
    NotAHomomorphism,
    ShapeError,
    SizeCeilingExceeded,
    ValidationError,
)
from morphlie.fixtures import (
    klein_to_z2_triple,
    sign_module,
    z2_identity_triple,
    z3_rotation_module,
    z4_rotation_module,
    z4_to_z2_sign_triple,
)
from morphlie.groups import (
    FiniteGroup,
    GroupModule,
    GroupModuleTriple,
    group_cochain_dim,
    group_cochain_tuples,
    group_cohomology_dim,
    group_complex,
    group_differential,
    mlg_block_dims,
    mlg_cohomology_dim,
    mlg_complex,
    mlg_differential,
    pullback_module,
)
from morphlie.linalg import Matrix, cone
from morphlie.sampling import Sampler

from .oracles import o_bar_apply, o_group_tuples, o_mlg_dims, o_mlg_matrix


def _module_fixtures() -> list[tuple[str, GroupModule]]:
    return [
        ("trivial-group", GroupModule.trivial(FiniteGroup.trivial(), 1)),
        ("z2-trivial", GroupModule.trivial(FiniteGroup.cyclic(2), 1)),
        ("z2-sign", sign_module(FiniteGroup.cyclic(2))),
        ("z3-trivial", GroupModule.trivial(FiniteGroup.cyclic(3), 1)),
        ("z3-rotation", z3_rotation_module()),
        ("z4-rotation", z4_rotation_module()),
        ("klein-trivial", GroupModule.trivial(FiniteGroup.klein_four(), 1)),
    ]


def _triple_fixtures() -> list[tuple[str, GroupModuleTriple]]:
    return [
        ("trivial-identity",
         GroupModuleTriple.identity(GroupModule.trivial(FiniteGroup.trivial(), 1))),
        ("z2-identity", z2_identity_triple()),
        ("z2-sign-identity", GroupModuleTriple.identity(sign_module(FiniteGroup.cyclic(2)))),
        ("z3-rotation-identity", GroupModuleTriple.identity(z3_rotation_module())),
        ("klein-to-z2", klein_to_z2_triple()),
        ("z4-to-z2-sign", z4_to_z2_sign_triple()),
    ]


def _oracle_bar_matrix(module: GroupModule, n: int, normalized: bool) -> Matrix:
    group, dim = module.group, module.dim
    rho = [m.to_lists() for m in module.action]
    src = o_group_tuples(group.order, group.identity, n, normalized)
    dst = o_group_tuples(group.order, group.identity, n + 1, normalized)
    cols = []
    for tup in src:
        for a in range(dim):
            f = {tup: [Fraction(1) if i == a else Fraction(0) for i in range(dim)]}
            df = o_bar_apply(group.order, [list(r) for r in group.mul],
                             group.identity, rho, dim, f, n, normalized)
            col = []
            for t2 in dst:
                col.extend(df[t2])
            cols.append(col)
    return Matrix.from_rows(
        [[cols[j][i] for j in range(len(cols))] for i in range(len(dst) * dim)],
        cols=len(src) * dim,
    )


def _dense_product(a: list, b: list) -> list:
    return [[sum((x * b[k][j] for k, x in enumerate(row)), Fraction(0)) for j in range(len(b[0]))]
            for row in a]


def _raw(t: GroupModuleTriple) -> dict:
    return {
        "order_g": t.g.order, "mul_g": [list(r) for r in t.g.mul], "id_g": t.g.identity,
        "order_h": t.h.order, "mul_h": [list(r) for r in t.h.mul], "id_h": t.h.identity,
        "phi": list(t.phi), "psi": t.psi.to_lists(),
        "dim_v": t.dim_v, "rho_v": [m.to_lists() for m in t.v.action],
        "dim_w": t.dim_w, "rho_w": [m.to_lists() for m in t.w.action],
    }


class TestFiniteGroup:
    def test_standard_constructions(self):
        assert FiniteGroup.trivial().order == 1
        assert FiniteGroup.cyclic(3).op(1, 2) == 0
        assert FiniteGroup.klein_four().op(1, 2) == 3
        assert FiniteGroup.cyclic(4).identity == 0

    def test_inverse(self):
        g = FiniteGroup.cyclic(4)
        assert g.inverse(1) == 3
        assert g.inverse(0) == 0
        k = FiniteGroup.klein_four()
        assert all(k.inverse(a) == a for a in range(4))

    def test_no_identity_rejected(self):
        with pytest.raises(ValidationError, match="identity"):
            FiniteGroup([[0, 0], [0, 0]])

    def test_relabeled_identity_found(self):
        g = FiniteGroup([[1, 0], [0, 1]])
        assert g.identity == 1

    def test_missing_inverse_rejected(self):
        with pytest.raises(ValidationError, match="inverse"):
            FiniteGroup([[0, 1], [1, 1]])

    def test_non_associative_rejected(self):
        # Row-latin table with identity but (1*1)*2 != 1*(1*2).
        with pytest.raises(ValidationError, match="associativity"):
            FiniteGroup([[0, 1, 2], [1, 0, 2], [2, 2, 0]])

    def test_table_shape_errors(self):
        with pytest.raises(ShapeError):
            FiniteGroup([[0, 1]])
        with pytest.raises(ValidationError):
            FiniteGroup([[0, 5], [1, 0]])


class TestGroupModule:
    def test_fixture_modules_validate(self):
        for name, module in _module_fixtures():
            assert module.check(), name

    def test_identity_must_act_trivially(self):
        g = FiniteGroup.cyclic(2)
        double = Matrix.from_rows([[2]])
        with pytest.raises(ValidationError, match="identity"):
            GroupModule(g, 1, [double, Matrix.identity(1)])

    def test_product_rule_enforced(self):
        g = FiniteGroup.cyclic(2)
        with pytest.raises(ValidationError, match="product"):
            GroupModule(g, 1, [Matrix.identity(1), Matrix.from_rows([[2]])])

    def test_shape_errors(self):
        g = FiniteGroup.cyclic(2)
        with pytest.raises(ShapeError):
            GroupModule(g, 1, [Matrix.identity(1)])
        with pytest.raises(ShapeError):
            GroupModule(g, 2, [Matrix.identity(2), Matrix.identity(1)])


class TestCochainTuples:
    def test_full_lexicographic(self):
        g = FiniteGroup.cyclic(2)
        assert group_cochain_tuples(g, 2) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_normalized_drops_identity(self):
        g = FiniteGroup.cyclic(2)
        assert group_cochain_tuples(g, 2, normalized=True) == [(1, 1)]
        assert group_cochain_tuples(g, 0, normalized=True) == [()]

    def test_trivial_group_normalized_empty(self):
        g = FiniteGroup.trivial()
        assert group_cochain_tuples(g, 1, normalized=True) == []
        assert group_cochain_tuples(g, 0, normalized=True) == [()]

    def test_negative_degree(self):
        with pytest.raises(ShapeError):
            group_cochain_tuples(FiniteGroup.trivial(), -1)
        assert group_cochain_dim(FiniteGroup.cyclic(2), 1, -1) == 0
        assert group_cochain_dim(FiniteGroup.trivial(), 1, -1, normalized=True) == 0


class TestGroupDifferential:
    def test_matches_oracle_on_all_fixtures(self):
        for name, module in _module_fixtures():
            for normalized in (False, True):
                for n in range(3):
                    ours = group_differential(module, n, normalized)
                    theirs = _oracle_bar_matrix(module, n, normalized)
                    assert ours == theirs, (name, n, normalized)

    def test_z2_normalized_degree_one_is_doubling(self):
        module = GroupModule.trivial(FiniteGroup.cyclic(2), 1)
        assert group_differential(module, 1, normalized=True) == Matrix.from_rows([[2]])

    def test_degree_zero_trivial_module_is_zero(self):
        module = GroupModule.trivial(FiniteGroup.cyclic(2), 1)
        assert group_differential(module, 0).is_zero()
        delta = group_differential(sign_module(FiniteGroup.cyclic(2)), 0)
        assert delta == Matrix.from_rows([[0], [-2]])

    def test_trivial_group_normalized_zero_spaces(self):
        module = GroupModule.trivial(FiniteGroup.trivial(), 1)
        delta = group_differential(module, 1, normalized=True)
        assert (delta.rows, delta.cols) == (0, 0)

    def test_squares_to_zero(self):
        for name, module in _module_fixtures():
            for normalized in (False, True):
                for n in range(2):
                    prod = group_differential(module, n + 1, normalized) * \
                        group_differential(module, n, normalized)
                    assert prod.is_zero(), (name, n, normalized)


class TestGroupCohomology:
    def test_normalized_trivial_coefficients_vanish_above_zero(self):
        for group in (FiniteGroup.cyclic(2), FiniteGroup.cyclic(3),
                      FiniteGroup.cyclic(4), FiniteGroup.klein_four()):
            module = GroupModule.trivial(group, 1)
            assert group_cohomology_dim(module, 0, normalized=True) == 1
            assert group_cohomology_dim(module, 1, normalized=True) == 0
            assert group_cohomology_dim(module, 2, normalized=True) == 0

    def test_z6_normalized_table_follows_maschke(self):
        """H^n(Z6, Q) = 0 for n > 0, so rank d_n = 5^n - rank d_{n-1}."""
        cx = group_complex(GroupModule.trivial(FiniteGroup.cyclic(6), 1), normalized=True)
        rows = cx.table(4)
        assert [r["rank"] for r in rows] == [0, 5, 20, 105, 520]
        assert [r["cohomology"] for r in rows] == [1, 0, 0, 0, 0]

    def test_z6_sign_table_eliminates_a_complement_of_the_image(self, monkeypatch):
        """Each d_n is ranked on dim C^n - rank d_{n-1} columns, not on its dim C^{n+1} rows."""
        import morphlie.linalg

        entering = []
        original = morphlie.linalg._pivot

        def recording(work, touching, reduce):
            entering.append(len(work))
            return original(work, touching, reduce)

        monkeypatch.setattr(morphlie.linalg, "_pivot", recording)
        cx = group_complex(sign_module(FiniteGroup.cyclic(6)), normalized=True)
        rows = cx.table(5)
        assert [r["cohomology"] for r in rows] == [0] * 6
        assert all(entering[n] <= cx.dim(n) - cx.rank(n - 1) for n in range(6))
        # H = 0, so every row entering an elimination becomes a pivot row.
        assert entering == [r["rank"] for r in rows] == [1, 4, 21, 104, 521, 2604]

    def test_sign_module_has_no_invariants(self):
        module = sign_module(FiniteGroup.cyclic(2))
        assert group_cohomology_dim(module, 0, normalized=True) == 0
        assert group_cohomology_dim(module, 1, normalized=True) == 0
        assert group_cohomology_dim(module, 2, normalized=True) == 0

    def test_full_complex_same_cohomology_as_normalized(self):
        """The normalized inclusion is a quasi-isomorphism; over the
        rationals with finite groups both vanish above degree zero."""
        for name, module in _module_fixtures():
            for n in range(3):
                assert group_cohomology_dim(module, n) == \
                    group_cohomology_dim(module, n, normalized=True), (name, n)

    def test_size_ceiling(self):
        module = GroupModule.trivial(FiniteGroup.klein_four(), 1)
        with pytest.raises(SizeCeilingExceeded):
            group_complex(module, size_ceiling=10).dim_H(2)
        assert group_complex(module, size_ceiling=10 ** 6).dim_H(2) == 0


class TestGroupModuleTriple:
    def test_fixtures_validate(self):
        for name, t in _triple_fixtures():
            assert t.phi[t.g.identity] == t.h.identity, name

    def test_non_homomorphism_rejected(self):
        g = FiniteGroup.cyclic(2)
        module = GroupModule.trivial(g, 1)
        with pytest.raises(NotAHomomorphism):
            GroupModuleTriple(g, g, [1, 0], module, module, Matrix.identity(1))

    def test_non_intertwining_psi_rejected(self):
        g = FiniteGroup.cyclic(2)
        with pytest.raises(ValidationError, match="intertwine"):
            GroupModuleTriple(g, g, [0, 1], sign_module(g),
                              GroupModule.trivial(g, 1), Matrix.identity(1))

    def test_a_moved_psi_fails_at_the_first_element_that_does_not_intertwine(self):
        # The dense reference scans the elements a in order for
        # psi rho_V(a) != rho_W(Phi a) psi, as the product check before the
        # integer kernel did.  Z2 acting by sign on V and trivially on W fails
        # at its last element.
        rng, s = random.Random(2030), Sampler(2030)
        z2 = FiniteGroup.cyclic(2)
        triples = [t for _, t in _triple_fixtures()] + [s.group_module_triple() for _ in range(8)]
        triples.append(GroupModuleTriple(z2, z2, [0, 1], sign_module(z2),
                                         GroupModule.trivial(z2, 1), Matrix.zeros(1, 1)))
        elements = set()
        for t in triples:
            rho_v = [m.to_lists() for m in t.v.action]
            rho_w = [t.w.action[x].to_lists() for x in t.phi]
            for _ in range(3):
                psi = t.psi.to_lists()
                psi[rng.randrange(t.dim_w)][rng.randrange(t.dim_v)] += Fraction(
                    rng.choice([-2, 1, 3]), rng.choice([1, 2]))
                first = next((a for a in range(t.g.order)
                              if _dense_product(psi, rho_v[a]) != _dense_product(rho_w[a], psi)),
                             None)
                args = (t.g, t.h, t.phi, t.v, t.w, Matrix.from_rows(psi, cols=t.dim_v))
                if first is None:
                    GroupModuleTriple(*args)
                    continue
                with pytest.raises(ValidationError) as exc:
                    GroupModuleTriple(*args)
                assert str(exc.value) == f"psi does not intertwine the actions at element {first}"
                elements.add((t.g.order, first))
        assert len(elements) >= 3 and (2, 1) in elements

    def test_zero_psi_always_intertwines(self):
        g = FiniteGroup.cyclic(2)
        t = GroupModuleTriple(g, g, [0, 1], sign_module(g),
                              GroupModule.trivial(g, 1), Matrix.zeros(1, 1))
        assert t.dim_v == t.dim_w == 1

    def test_shape_errors(self):
        g = FiniteGroup.cyclic(2)
        module = GroupModule.trivial(g, 1)
        with pytest.raises(ShapeError):
            GroupModuleTriple(g, g, [0], module, module, Matrix.identity(1))
        with pytest.raises(ShapeError):
            GroupModuleTriple(g, g, [0, 1], module, module, Matrix.zeros(2, 1))
        with pytest.raises(ShapeError):
            GroupModuleTriple(g, FiniteGroup.cyclic(3), [0, 1], module,
                              module, Matrix.identity(1))

    def test_pullback_module(self):
        t = z4_to_z2_sign_triple()
        pulled = pullback_module(t)
        assert pulled.group.order == 4
        assert pulled.action[1] == Matrix.from_rows([[-1]])
        assert pulled.action[2] == Matrix.identity(1)
        assert pulled.check()


class TestMlgDifferential:
    def test_matches_oracle_on_all_fixtures(self):
        for name, t in _triple_fixtures():
            raw = _raw(t)
            for normalized in (False, True):
                for n in range(3):
                    ours = mlg_differential(t, n, normalized)
                    theirs = Matrix.from_rows(o_mlg_matrix(raw, n, normalized),
                                              cols=ours.cols)
                    assert ours == theirs, (name, n, normalized)

    def test_degree_zero_shape(self):
        t = z2_identity_triple()
        delta = mlg_differential(t, 0)
        assert (delta.rows, delta.cols) == (mlg_complex(t).dim(1), 1)
        assert delta.is_zero()

    def test_degree0_differential_builds_no_pullback(self, monkeypatch):
        import morphlie.groups as groups

        calls = []

        def counting_pullback(*args):
            calls.append(args)
            return pullback_module(*args)

        monkeypatch.setattr(groups, "pullback_module", counting_pullback)
        t = klein_to_z2_triple()
        mlg_differential(t, 0)
        mlg_differential(t, 0, normalized=True)
        assert calls == []
        mlg_differential(t, 1)
        assert len(calls) == 1

    def test_complex_pulls_w_back_once(self, monkeypatch):
        import morphlie.groups as groups

        calls = []

        def counting_pullback(*args):
            calls.append(args)
            return pullback_module(*args)

        monkeypatch.setattr(groups, "pullback_module", counting_pullback)
        t = klein_to_z2_triple()
        cx = mlg_complex(t, normalized=True)
        cx.matrix(0)
        assert calls == []
        cx.table(4)
        assert len(calls) == 1

    def test_standalone_differentials_pull_w_back_once_per_triple(self, monkeypatch):
        import morphlie.groups as groups

        calls = []

        def counting_pullback(*args):
            calls.append(args)
            return pullback_module(*args)

        monkeypatch.setattr(groups, "pullback_module", counting_pullback)
        t, other = klein_to_z2_triple(), klein_to_z2_triple()
        for n in range(4):
            mlg_differential(t, n)
            mlg_differential(t, n, normalized=True)
        assert len(calls) == 1
        mlg_differential(other, 2)
        assert len(calls) == 2

    def test_block_dims(self):
        t = klein_to_z2_triple()
        assert mlg_block_dims(t, 0) == (1, 0, 0)
        assert mlg_block_dims(t, 1) == (4, 2, 1)
        assert mlg_block_dims(t, 2) == (16, 4, 4)
        assert mlg_block_dims(t, 2, normalized=True) == (9, 1, 3)
        assert mlg_block_dims(t, -1) == mlg_block_dims(t, -1, normalized=True) == (0, 0, 0)

    def test_squares_to_zero(self):
        for name, t in _triple_fixtures():
            for normalized in (False, True):
                for n in range(2):
                    prod = mlg_differential(t, n + 1, normalized) * \
                        mlg_differential(t, n, normalized)
                    assert prod.is_zero(), (name, n, normalized)


class TestMlgCohomology:
    def test_z2_identity_full_dims(self):
        t = z2_identity_triple()
        assert mlg_cohomology_dim(t, 0) == 1
        assert mlg_cohomology_dim(t, 1) == 1

    def test_matches_oracle_on_all_fixtures(self):
        for name, t in _triple_fixtures():
            raw = _raw(t)
            for normalized in (False, True):
                expected = o_mlg_dims(raw, 2, normalized)
                got = [mlg_cohomology_dim(t, n, normalized) for n in range(3)]
                assert got == expected, (name, normalized)

    def test_the_default_complex_and_the_full_cone_differ_by_w_in_degree_one(self):
        # The default complex T is the full cone K (C^0 = V + W) cut down to
        # V in degree 0: a subcomplex with quotient W there, sharing H^0, so
        # dim H^1(T) = dim H^1(K) + dim W and every other degree agrees.
        s = Sampler(404)
        triples = [t for _, t in _triple_fixtures()] + [s.group_module_triple() for _ in range(5)]
        for k, t in enumerate(triples):
            for normalized in (False, True):
                full = cone(*groups._chain_map(t, normalized), graph=None)
                expected = [full.dim_H(n) + (t.dim_w if n == 1 else 0) for n in range(4)]
                default = mlg_complex(t, normalized)
                assert [default.dim_H(n) for n in range(4)] == expected, (k, normalized)

    def test_degree_zero_is_stacked_invariants(self):
        trivial = z2_identity_triple()
        assert mlg_cohomology_dim(trivial, 0) == 1
        sign = GroupModuleTriple.identity(sign_module(FiniteGroup.cyclic(2)))
        assert mlg_cohomology_dim(sign, 0) == 0

    def test_size_ceiling(self):
        t = klein_to_z2_triple()
        with pytest.raises(SizeCeilingExceeded):
            mlg_complex(t, size_ceiling=20).dim_H(2)
        assert mlg_complex(t, size_ceiling=10 ** 6).dim_H(2) >= 0

    def test_trivial_group_triple(self):
        """Degree 1 keeps the Lambda slot (a bare W with nothing above it),
        the same mechanism that gives the Z/2 identity triple its H^1."""
        t = GroupModuleTriple.identity(GroupModule.trivial(FiniteGroup.trivial(), 1))
        assert mlg_cohomology_dim(t, 0) == 1
        assert mlg_cohomology_dim(t, 1, normalized=True) == 1
        assert mlg_cohomology_dim(t, 2, normalized=True) == 0
        assert mlg_complex(t, normalized=True).dim(2) == 0
