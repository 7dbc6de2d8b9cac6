"""Package-level acceptance checks, one test per numbered criterion.

All arithmetic is exact, so every tolerance is equality.  Each test prints
one line "ACCEPTANCE n: PASS/FAIL - summary" (visible with pytest -s, and
always in failure output).

Checks 3 and 4 state the vanishing theorem of a mapping cone, so they run
on the full cone (``cone=True``, degree 0 = V + W).  On the default complex
(degree 0 = V) they assert the exact relation between the two: the same
cohomology in every degree except 1, where the default is larger by dim W.
"""

import ast
from fractions import Fraction
from pathlib import Path

from morphlie.cecomplex import ce_cohomology_dim, ce_differential, pullback_rep
from morphlie.cohomology import (
    MCochain,
    derivation_space_dim,
    inner_derivation_dim,
    invariant_vectors_dim,
    mla_cohomology_dim,
    mla_differential,
    outer_derivation_dim,
)
from morphlie.extensions import build_extension, coboundary_isomorphism, extract_cocycle
from morphlie.fixtures import (
    a1_triple,
    a2_triple,
    heis,
    klein_to_z2_triple,
    sign_module,
    sl2_trivial_triple,
    sl2_v1_triple,
    standard_morphism_reps,
    z2_identity_triple,
    z4_to_z2_sign_triple,
)
from morphlie.groups import (
    FiniteGroup,
    GroupModule,
    GroupModuleTriple,
    group_cohomology_dim,
    mlg_cohomology_dim,
    mlg_differential,
)
from morphlie.linalg import Matrix, kernel_basis
from morphlie.sampling import Sampler
from morphlie.shlie import skeletal_to_triple, triple_to_skeletal, twist_equivalence

from .oracles import (
    dense_table,
    o_derivation_dims,
    o_derivation_failure,
    o_det,
    o_hom_failure,
)
from .test_cohomology import _raw

RANDOM_ROUNDS = 50
COCYCLE_ROUNDS = 20
CONE_ROUNDS = 20
DERIVATION_ROUNDS = 10


def report(num: int, ok: bool, summary: str) -> str:
    line = f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {summary}"
    print(line)
    return line


def group_triple_fixtures() -> list[tuple[str, GroupModuleTriple]]:
    trivial = GroupModule.trivial(FiniteGroup.trivial(), 1)
    return [
        ("trivial-identity", GroupModuleTriple.identity(trivial)),
        ("z2-identity", z2_identity_triple()),
        ("z2-sign-identity",
         GroupModuleTriple.identity(sign_module(FiniteGroup.cyclic(2)))),
        ("klein-to-z2", klein_to_z2_triple()),
        ("z4-to-z2-sign", z4_to_z2_sign_triple()),
    ]


def test_criterion_01_differentials_square_to_zero():
    failures = []

    def check(tag, apply_pair):
        for n in range(3):
            if not apply_pair(n):
                failures.append(f"{tag} at degree {n}")

    def check_cone(tag, rep):
        # The full cone differs only in degree 0; higher degrees are checked
        # through the default complex.
        if not (mla_differential(rep, 1)
                * mla_differential(rep, 0, cone=True)).is_zero():
            failures.append(f"{tag} at degree 0")

    for name, rep in standard_morphism_reps():
        for side, r in (("v", rep.v), ("w", rep.w)):
            check(f"ce {name}/{side}", lambda n, r=r: (
                ce_differential(r, n + 1) * ce_differential(r, n)).is_zero())
        check(f"mla {name}", lambda n, rep=rep: (
            mla_differential(rep, n + 1) * mla_differential(rep, n)).is_zero())
        check_cone(f"mla cone {name}", rep)
    for name, t in group_triple_fixtures():
        for normalized in (False, True):
            check(f"mlg {name} normalized={normalized}",
                  lambda n, t=t, z=normalized: (
                      mlg_differential(t, n + 1, z)
                      * mlg_differential(t, n, z)).is_zero())

    s = Sampler(101)
    for k in range(RANDOM_ROUNDS):
        r = s.representation()
        check(f"ce random #{k}", lambda n, r=r: (
            ce_differential(r, n + 1) * ce_differential(r, n)).is_zero())
    for k in range(RANDOM_ROUNDS):
        rep = s.morphism_rep()
        check(f"mla random #{k}", lambda n, rep=rep: (
            mla_differential(rep, n + 1) * mla_differential(rep, n)).is_zero())
        check_cone(f"mla cone random #{k}", rep)
    for k in range(RANDOM_ROUNDS):
        t = s.group_module_triple()
        z = k % 2 == 0
        check(f"mlg random #{k} normalized={z}", lambda n, t=t, z=z: (
            mlg_differential(t, n + 1, z) * mlg_differential(t, n, z)).is_zero())

    ok = not failures
    line = report(1, ok, "squares of all three differentials, and of the full "
                  "cone's degree-0 differential, vanish on fixtures and "
                  f"{RANDOM_ROUNDS} random inputs each"
                  + ("" if ok else f"; failures: {failures[:3]}"))
    assert ok, line


def test_criterion_02_chevalley_eilenberg_dimensions():
    sl2_triv = sl2_trivial_triple().v
    a2_triv = a2_triple().v
    sl2_v1 = sl2_v1_triple().v
    got = {
        "sl2 trivial": [ce_cohomology_dim(sl2_triv, n) for n in range(4)],
        "a2 trivial": [ce_cohomology_dim(a2_triv, n) for n in range(3)],
        "sl2 V1": [ce_cohomology_dim(sl2_v1, n) for n in range(4)],
    }
    want = {
        "sl2 trivial": [1, 0, 0, 1],
        "a2 trivial": [1, 2, 1],
        "sl2 V1": [0, 0, 0, 0],
    }
    ok = got == want
    line = report(2, ok, f"Lie algebra cohomology dimensions {got}"
                  + ("" if ok else f" differ from expected {want}"))
    assert ok, line


def cone_shifted_to_default(rep, cone_dims):
    """The default complex's dimensions predicted from the full cone's."""
    return tuple(k + (rep.dim_w if n == 1 else 0) for n, k in enumerate(cone_dims))


def test_criterion_03_whitehead_vanishing_instance():
    rep = sl2_v1_triple()
    dims = tuple(mla_cohomology_dim(rep, n, cone=True) for n in range(4))
    default = tuple(mla_cohomology_dim(rep, n) for n in range(4))
    predicted = cone_shifted_to_default(rep, dims)
    ok = dims == (0, 0, 0, 0) and default == predicted
    line = report(
        3, ok,
        f"full-cone morphism cohomology of (sl2, sl2, id) on (V1, V1, id) for "
        f"degrees 0..3: expected (0, 0, 0, 0), computed {dims}; default "
        f"complex {default}, predicted (0, dim W, 0, 0) = {predicted}")
    assert ok, line


def test_criterion_04_vanishing_implication():
    counterexamples = []
    mismatches = []

    def examine(name, rep):
        w_pull = pullback_rep(rep.base, rep.w)
        cone = tuple(mla_cohomology_dim(rep, n, cone=True) for n in range(4))
        default = tuple(mla_cohomology_dim(rep, n) for n in range(4))
        if default != cone_shifted_to_default(rep, cone):
            mismatches.append((name, default, cone))
        for n in range(4):
            hyp = (ce_cohomology_dim(rep.v, n) == 0
                   and ce_cohomology_dim(rep.w, n) == 0
                   and (n == 0 or ce_cohomology_dim(w_pull, n - 1) == 0))
            if hyp and cone[n] != 0:
                counterexamples.append((name, n, cone[n]))

    for name, rep in standard_morphism_reps():
        examine(name, rep)
    s = Sampler(404)
    for k in range(CONE_ROUNDS):
        examine(f"random #{k}", s.morphism_rep())
    ok = not counterexamples and not mismatches
    line = report(
        4, ok,
        "wherever the three Lie algebra cohomology groups vanish, the "
        "full-cone morphism cohomology vanishes, and the default complex "
        "differs from it only by dim W in degree 1, on fixtures and "
        f"{CONE_ROUNDS} random inputs"
        + ("" if not counterexamples else
           f"; counterexamples (input, degree, dim): {counterexamples}")
        + ("" if not mismatches else
           f"; mismatches (input, default, cone): {mismatches[:3]}"))
    assert ok, line


def test_criterion_05_abelian_line_dimensions():
    dims = [mla_cohomology_dim(a1_triple(), n) for n in range(3)]
    ok = dims == [1, 2, 0]
    line = report(5, ok, f"morphism cohomology of the 1-dim abelian identity "
                  f"triple is {tuple(dims)} for degrees 0..2")
    assert ok, line


def test_criterion_06_extension_round_trip():
    failures = []
    s = Sampler(606)
    for k in range(COCYCLE_ROUNDS):
        rep = s.morphism_rep()
        c = s.closed_cochain(rep, 2)
        ext = build_extension(rep, c)
        back, induced = extract_cocycle(ext, *ext.canonical_section())
        if back.to_vector() != c.to_vector():
            failures.append(f"cocycle #{k} not recovered bit-exactly")
        if (induced.v.action != rep.v.action or induced.w.action != rep.w.action
                or induced.psi != rep.psi):
            failures.append(f"induced representation #{k} differs")

    rep = a2_triple()
    area = MCochain(rep, 2, theta=Matrix.from_rows([[1]]),
                    gamma=Matrix.from_rows([[1]]))
    ext = build_extension(rep, area)
    if not dense_table(ext.total.g) == dense_table(ext.total.h) == dense_table(heis()):
        failures.append("area cocycle does not build the Heisenberg algebra")

    ok = not failures
    line = report(6, ok, f"canonical-section extraction bit-exact on "
                  f"{COCYCLE_ROUNDS} random cocycles; area cocycle yields the "
                  "Heisenberg structure constants"
                  + ("" if ok else f"; failures: {failures[:3]}"))
    assert ok, line


def _isomorphism_failures(ext1, ext2, alpha, beta):
    """What keeps (alpha, beta) from being an isomorphism of extensions ext1 -> ext2."""
    t1, t2 = ext1.total, ext2.total
    checks = [
        ("alpha is singular", o_det(alpha.to_lists()) != 0),
        ("beta is singular", o_det(beta.to_lists()) != 0),
        ("alpha is no homomorphism",
         o_hom_failure(dense_table(t1.g), dense_table(t2.g), alpha.to_lists()) is None),
        ("beta is no homomorphism",
         o_hom_failure(dense_table(t1.h), dense_table(t2.h), beta.to_lists()) is None),
        ("phi_hat square", t2.phi * alpha == beta * t1.phi),
        ("i, p squares", alpha * ext1.i == ext2.i and ext2.p * alpha == ext1.p),
        ("i_bar, p_bar squares",
         beta * ext1.i_bar == ext2.i_bar and ext2.p_bar * beta == ext1.p_bar),
    ]
    return [name for name, ok in checks if not ok]


def test_criterion_07_coboundary_isomorphism():
    failures = []
    s = Sampler(707)
    for k in range(COCYCLE_ROUNDS):
        rep = s.morphism_rep()
        c1 = s.closed_cochain(rep, 2)
        d0, del0 = s.simple_shift(rep)
        shift = MCochain(rep, 1, theta=d0, gamma=del0)
        moved = mla_differential(rep, 1).apply(shift.to_vector())
        c2 = MCochain.from_vector(
            rep, 2, [a - b for a, b in zip(c1.to_vector(), moved)])
        try:
            alpha, beta = coboundary_isomorphism(rep, c1, c2, d0, del0)
        except Exception as exc:
            failures.append(f"shift #{k}: {exc}")
            continue
        failures += [f"shift #{k}: {why}" for why in _isomorphism_failures(
            build_extension(rep, c1), build_extension(rep, c2), alpha, beta)]
    ok = not failures
    line = report(7, ok, f"{COCYCLE_ROUNDS} random simple coboundary shifts "
                  "produce extension isomorphisms: invertible, homomorphisms by the "
                  "dense oracle, all five squares commute"
                  + ("" if ok else f"; failures: {failures[:3]}"))
    assert ok, line


def test_criterion_08_skeletal_correspondence():
    failures = []
    for name, rep in standard_morphism_reps():
        kb = kernel_basis(mla_differential(rep, 3))
        flat = kb.col(0) if kb.cols else [Fraction(0)] * kb.rows
        c = MCochain.from_vector(rep, 3, flat)
        try:
            skeletal = triple_to_skeletal(rep.base, rep, c)
            base, back_rep, back = skeletal_to_triple(skeletal)
        except Exception as exc:
            failures.append(f"{name}: {exc}")
            continue
        if back.to_vector() != c.to_vector():
            failures.append(f"{name}: cochain not recovered")
        if (back_rep.v.action != rep.v.action
                or back_rep.w.action != rep.w.action
                or back_rep.psi != rep.psi
                or base.phi != rep.base.phi):
            failures.append(f"{name}: triple not recovered")

    s = Sampler(808)
    for k in range(COCYCLE_ROUNDS):
        rep = s.morphism_rep()
        c = s.closed_cochain(rep, 3)
        sigma, sigma_p, phi = s.twist_data(rep)
        try:
            skeletal = triple_to_skeletal(rep.base, rep, c)
            twist_equivalence(skeletal, sigma, sigma_p, phi)
        except Exception as exc:
            failures.append(f"twist #{k}: {exc}")
    ok = not failures
    line = report(8, ok, "skeletal objects verify all axioms, round-trip "
                  f"identically, and {COCYCLE_ROUNDS} random twists move the "
                  "cochain by exactly the coboundary of the twist data"
                  + ("" if ok else f"; failures: {failures[:3]}"))
    assert ok, line


def test_criterion_09_group_fixture():
    t = z2_identity_triple()
    mlg = (mlg_cohomology_dim(t, 0), mlg_cohomology_dim(t, 1))
    plain = GroupModule.trivial(FiniteGroup.cyclic(2), 1)
    bar = [group_cohomology_dim(plain, n, normalized=True) for n in (1, 2)]
    ok = mlg == (1, 1) and bar == [0, 0]
    line = report(9, ok, f"Z/2 identity triple has morphism cohomology "
                  f"{mlg} in degrees (0, 1); normalized bar cohomology of the "
                  f"trivial module is {bar} in degrees (1, 2)")
    assert ok, line


def test_criterion_10_low_degree_invariants():
    failures = []
    s = Sampler(404)
    reps = standard_morphism_reps() + [(f"random #{k}", s.morphism_rep())
                                       for k in range(DERIVATION_ROUNDS)]
    for name, rep in reps:
        raw = _raw(rep)
        invariants, der, inner = o_derivation_dims(raw)
        ours = (invariant_vectors_dim(rep), derivation_space_dim(rep),
                inner_derivation_dim(rep), outer_derivation_dim(rep))
        if ours != (invariants, der, inner, der - inner):
            failures.append(f"{name}: (invariants, Der, InnDer, outer) {ours} against "
                            f"the identities' {(invariants, der, inner, der - inner)}")
        kb = kernel_basis(mla_differential(rep, 1))
        for j in range(kb.cols):
            c = MCochain.from_vector(rep, 1, kb.col(j))
            broken = o_derivation_failure(raw, c.theta.to_lists(), c.gamma.to_lists(),
                                          c.eta.col(0))
            if broken:
                failures.append(f"{name}: cocycle #{j} fails the "
                                f"identity-by-identity check: {broken}")
    ok = not failures
    line = report(10, ok, "invariant vectors, Der, InnDer and Der - InnDer read off "
                  "the morphism differential equal the derivation identities' "
                  "dimensions, and every 1-cocycle satisfies the identities, on "
                  f"fixtures and {DERIVATION_ROUNDS} random inputs"
                  + ("" if ok else f"; failures: {failures[:3]}"))
    assert ok, line


def test_oracles_import_nothing_from_the_package():
    """The checks above are two computations only while the oracles stay apart.

    Every import in tests/oracles.py, at any depth, must be absolute and
    outside morphlie; a relative import could reach the package through
    another test module.
    """
    tree = ast.parse((Path(__file__).parent / "oracles.py").read_text(encoding="utf-8"))
    imports = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imports += [(0, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            imports.append((node.level, node.module or ""))
    shared = [name for level, name in imports if level or name.split(".")[0] == "morphlie"]
    assert imports and not shared, shared
