"""Exact linear algebra kernel: ranks, kernels, solving, inverses."""

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphlie.algebras import LieAlgebra, MorphismLieAlgebra, MorphismRep, adjoint_morphism_rep
from morphlie.cecomplex import ce_complex
from morphlie import cohomology, groups
from morphlie.cohomology import mla_complex, mla_differential
from morphlie import linalg
from morphlie.fixtures import (
    heis_adjoint_triple,
    klein_to_z2_triple,
    sign_module,
    sl2,
    sl2_adjoint_triple,
    v1,
    z4_to_z2_sign_triple,
)
from morphlie.groups import FiniteGroup, group_complex, mlg_complex
from morphlie.errors import ShapeError, SizeCeilingExceeded
from morphlie.linalg import (
    Complex,
    Matrix,
    complete_basis,
    inverse,
    kernel_basis,
    product_is_zero,
    rank,
    rat,
    rat_str,
    row_basis,
    solve_columns,
)

from .oracles import o_rank, o_rref

rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


def small_matrix(rows: int, cols: int):
    return st.lists(rationals, min_size=rows * cols, max_size=rows * cols).map(
        lambda xs: Matrix(rows, cols, xs)
    )


matrices = st.tuples(st.integers(0, 4), st.integers(0, 4)).flatmap(
    lambda rc: small_matrix(rc[0], rc[1])
)


def test_rat_roundtrip():
    assert rat("3/4") == Fraction(3, 4)
    assert rat("-7") == Fraction(-7)
    assert rat(5) == Fraction(5)
    assert rat_str(Fraction(-3, 4)) == "-3/4"
    assert rat_str(Fraction(8, 2)) == "4"


def test_rat_rejects_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        rat("1/0")


@pytest.mark.parametrize("text", ["0.5", "1e3", "1_000", " 1/2 ", "+3", "1/2/3", "1/-2", ""])
def test_rat_reads_only_canonical_strings(text):
    # The scalar reader of documents, ``_ratio``, is the one reader of strings.
    with pytest.raises(ValueError):
        rat(text)
    with pytest.raises(ValueError):
        Matrix.from_rows([[text]])


def test_rat_rejects_booleans():
    for flag in (True, False):
        with pytest.raises(TypeError):
            rat(flag)
        with pytest.raises(TypeError):
            Matrix.from_rows([[1, flag]])


def test_rank_of_rational_matrix():
    m = Matrix.from_rows([[rat("1/2"), 1], [rat("1/3"), 1]])
    assert rank(m) == 2
    singular = Matrix.from_rows([[1, 2], [2, 4]])
    assert rank(singular) == 1


def test_kernel_of_one_by_two():
    m = Matrix.from_rows([[1, -1]])
    k = kernel_basis(m)
    assert k.rows == 2 and k.cols == 1
    assert k.col(0) == [Fraction(1), Fraction(1)]


def test_kernel_of_zero_row_matrix_is_identity():
    k = kernel_basis(Matrix.zeros(0, 3))
    assert k == Matrix.identity(3)


def test_solve_returns_none_when_inconsistent():
    m = Matrix.from_rows([[1, 0], [1, 0]])
    b = Matrix.column([0, 1])
    assert solve_columns(m, b) is None


def test_solve_exact():
    m = Matrix.from_rows([[2, 1], [1, 3]])
    b = Matrix.column([1, 0])
    x = solve_columns(m, b)
    assert x is not None
    assert m * x == b
    assert x.col(0) == [Fraction(3, 5), Fraction(-1, 5)]


def test_solve_zero_dimensional():
    m = Matrix.zeros(0, 2)
    x = solve_columns(m, Matrix.zeros(0, 1))
    assert x is not None and x.rows == 2


def test_block_assembly():
    a = Matrix.identity(2)
    b = Matrix.zeros(2, 1)
    c = Matrix.zeros(1, 2)
    d = Matrix.from_rows([[5]])
    m = Matrix.block([[a, b], [c, d]])
    assert m.rows == 3 and m.cols == 3
    assert m[2, 2] == 5 and m[0, 0] == 1 and m[0, 2] == 0


def test_shape_errors():
    with pytest.raises(ShapeError):
        Matrix(2, 2, [1, 2, 3])
    with pytest.raises(ShapeError):
        Matrix.from_rows([[1, 2], [3]])
    with pytest.raises(ShapeError):
        Matrix.identity(2) * Matrix.zeros(3, 1)


def test_complete_basis_prefers_low_indices():
    partial = Matrix.from_rows([[0], [0], [1]])
    full, chosen = complete_basis(partial)
    assert chosen == [0, 1]
    assert rank(full) == 3


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_nullity(m):
    assert rank(m) + kernel_basis(m).cols == m.cols


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_kernel_columns_are_killed(m):
    k = kernel_basis(m)
    if k.cols:
        assert (m * k).is_zero()
    assert rank(k) == k.cols


@settings(max_examples=60, deadline=None)
@given(matrices)
def test_rank_invariant_under_transpose(m):
    assert rank(m) == rank(m.transpose())


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 4).flatmap(lambda n: st.tuples(small_matrix(n, n), small_matrix(n, 1))))
def test_solve_is_exact_when_it_succeeds(mb):
    m, b = mb
    x = solve_columns(m, b)
    if x is not None:
        assert m * x == b


def test_solve_columns_multi():
    m = Matrix.from_rows([[1, 1], [0, 1]])
    b = Matrix.from_rows([[2, 0], [1, 1]])
    x = solve_columns(m, b)
    assert x is not None and m * x == b


# -- sparse rank and product_is_zero against the dense oracle -----------------

# Cheaper to draw than st.fractions, over the same small range.
entries = st.builds(Fraction, st.integers(-6, 6), st.sampled_from([1, 2, 3, 4]))

# The elimination and product_is_zero scale rows to integers: these entries
# give long numerators, large pairwise coprime denominators (primes past
# 10^6) and rows that mix integers, large fractions and small ones.
BIG_PRIMES = [1000003, 1000033, 1000037, 1000039, 1000081, 1000099]
big_numerators = st.integers(-10 ** 30, 10 ** 30)
big_fractions = st.builds(Fraction, big_numerators, st.sampled_from(BIG_PRIMES))
big_entries = st.one_of(big_numerators.map(Fraction), big_fractions, entries)


@st.composite
def sparse_matrices(draw, rows=st.integers(0, 8), cols=st.integers(0, 8), values=entries):
    """Random rational matrices whose density ranges from empty to full."""
    r, c = draw(rows), draw(cols)
    density = draw(st.integers(0, 4))
    mask = draw(st.lists(st.integers(1, 4), min_size=r * c, max_size=r * c))
    drawn = draw(st.lists(values, min_size=r * c, max_size=r * c))
    return Matrix(r, c, [x if k <= density else 0 for k, x in zip(mask, drawn)])


def invertible(n: int):
    """Lower unit-triangular times upper triangular with nonzero diagonal."""
    nonzero = entries.filter(bool)

    def build(parts):
        below, diag, above = parts
        lower, upper = Matrix.identity(n).to_lists(), Matrix.zeros(n, n).to_lists()
        lo, up = iter(below), iter(above)
        for i in range(n):
            upper[i][i] = diag[i]
            for j in range(i):
                lower[i][j] = next(lo)
                upper[j][i] = next(up)
        return Matrix.from_rows(lower, cols=n) * Matrix.from_rows(upper, cols=n)

    off = n * (n - 1) // 2
    return st.tuples(
        st.lists(entries, min_size=off, max_size=off),
        st.lists(nonzero, min_size=n, max_size=n),
        st.lists(entries, min_size=off, max_size=off),
    ).map(build)


@settings(max_examples=160, deadline=None)
@given(st.one_of(sparse_matrices(), sparse_matrices(values=big_entries)))
def test_sparse_rank_matches_oracle(m):
    assert rank(m) == o_rank(m.to_lists())


@settings(max_examples=80, deadline=None)
@given(sparse_matrices(rows=st.integers(2, 8)), st.data())
def test_sparse_rank_ignores_dependent_row(m, data):
    # Appending a rational combination of existing rows keeps the rank.
    coeffs = data.draw(st.lists(entries, min_size=m.rows, max_size=m.rows))
    combo = [sum((c * x for c, x in zip(coeffs, m.col(j))), Fraction(0))
             for j in range(m.cols)]
    grown = Matrix.vstack([m, Matrix(1, m.cols, combo)])
    assert rank(grown) == rank(m) == o_rank(grown.to_lists())


@settings(max_examples=60, deadline=None)
@given(st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda rc: st.tuples(sparse_matrices(st.just(rc[0]), st.just(rc[1])),
                         invertible(rc[0]), invertible(rc[1]))))
def test_sparse_rank_of_conjugated_matrix(parts):
    # P . D . Q fills in a sparse D; invertible P and Q keep its rank.
    d, p, q = parts
    conjugated = p * d * q
    assert rank(conjugated) == rank(d) == o_rank(conjugated.to_lists())


@settings(max_examples=160, deadline=None)
@given(st.one_of(sparse_matrices(), sparse_matrices(values=big_entries)), st.data())
def test_row_basis_is_a_basis_of_the_rows_on_the_kept_columns(m, data):
    # The pivots of the transposed elimination are independent rows of m,
    # as many as the rank of m on the columns outside skip.
    skip = data.draw(st.sets(st.integers(0, max(m.cols - 1, 0)), max_size=m.cols))
    kept = [[x for j, x in enumerate(row) if j not in skip] for row in m.to_lists()]
    basis = row_basis(m, skip)
    assert len(basis) == o_rank(kept) == o_rank([kept[i] for i in basis])
    assert o_rank([m.row(i) for i in basis]) == len(basis)
    assert len(row_basis(m)) == rank(m)


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 5), (5, 0)])
def test_sparse_rank_of_empty_shapes(rows, cols):
    assert rank(Matrix.zeros(rows, cols)) == 0
    assert product_is_zero(Matrix.zeros(rows, cols), Matrix.zeros(cols, 3))
    assert product_is_zero(Matrix.zeros(3, rows), Matrix.zeros(rows, cols))


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(), st.data())
def test_product_is_zero_matches_dense_product(a, data):
    b = data.draw(sparse_matrices(rows=st.just(a.cols), cols=st.integers(0, 6)))
    assert product_is_zero(a, b) == (a * b).is_zero()
    # A kernel basis makes a product that really is zero.
    k = kernel_basis(a)
    assert product_is_zero(a, k) and (a * k).is_zero()


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(values=big_numerators.map(Fraction)), st.data())
def test_product_is_zero_with_denominators_on_the_right_only(a, data):
    # b is scaled by one common denominator, a's integer rows not at all.
    b = data.draw(sparse_matrices(rows=st.just(a.cols), cols=st.integers(0, 6),
                                  values=big_fractions))
    assert product_is_zero(a, b) == (a * b).is_zero()
    k = kernel_basis(a)
    scales = data.draw(st.lists(big_fractions.filter(bool), min_size=k.cols, max_size=k.cols))
    killed = k * Matrix.from_rows([[x if i == j else 0 for j in range(k.cols)]
                                   for i, x in enumerate(scales)], k.cols)
    assert product_is_zero(a, killed)
    # One entry off by 1/p^2 on a column a does not kill: the product is not zero.
    if k.cols and (j := a.first_nonzero_col()) is not None:
        nudge = Matrix.from_integer_rows([{0: 1} if i == j else {} for i in range(a.cols)],
                                         k.cols, BIG_PRIMES[0] ** 2)
        assert not product_is_zero(a, killed + nudge)


def _rebased(g, p):
    """g in the basis given by the columns of the invertible matrix p."""
    p_inv, cols = inverse(p), [p.col(i) for i in range(g.dim)]
    return LieAlgebra.from_brackets(g.dim, {(i, j): p_inv.apply(g.bracket(cols[i], cols[j]))
                                            for i, j in combinations(range(g.dim), 2)})


def _bidiagonal(steps):
    """Upper bidiagonal: basis vector j + 1 is e_{j+1} + steps[j] e_j."""
    n = len(steps) + 1
    return Matrix.from_rows([[1 if j == i else steps[i] if j == i + 1 else 0 for j in range(n)]
                             for i in range(n)], n)


def test_rank_and_product_is_zero_do_no_fraction_arithmetic(monkeypatch):
    # Nor does any other step of a cohomology table: assembly, ranks and the
    # d . d check all run on the integer rows.
    # The 5-dimensional Heisenberg algebra: [e0, e2] = [e1, e3] = e4.
    heis5 = LieAlgebra.from_brackets(5, {(0, 2): [0, 0, 0, 0, 1], (1, 3): [0, 0, 0, 0, 1]})
    rep = adjoint_morphism_rep(MorphismLieAlgebra.identity(heis5))
    # The same triple in rational bases of g and h, as in bench/gen.py's random_basis.
    g = _rebased(heis5, _bidiagonal([Fraction(1, 2), -2, Fraction(-1, 2), 1]))
    h = _rebased(heis5, _bidiagonal([2, Fraction(1, 2), -1, Fraction(1, 2)]))
    phi = inverse(_bidiagonal([2, Fraction(1, 2), -1, Fraction(1, 2)])) * _bidiagonal(
        [Fraction(1, 2), -2, Fraction(-1, 2), 1])
    rational = MorphismRep(MorphismLieAlgebra(g, h, phi), g.adjoint_rep(), h.adjoint_rep(), phi)
    assert any(x.denominator > 1 for i in range(5) for x in phi.row(i))
    complexes = [mla_complex(rep), mla_complex(rational),
                 mlg_complex(klein_to_z2_triple(), normalized=True)]
    d1, d2 = mla_differential(rep, 1), mla_differential(rep, 2)
    assert all(d.stored_rows()[1].count(1) == d.rows for d in (d1, d2))
    expected = o_rank(d1.to_lists()), o_rank(d2.to_lists())
    calls = []
    for name in ("__add__", "__sub__", "__mul__", "__truediv__"):
        def counted(a, b, original=getattr(Fraction, name), name=name):
            calls.append(name)
            return original(a, b)
        monkeypatch.setattr(Fraction, name, counted)
    assert product_is_zero(d2, d1)
    assert (rank(d1), rank(d2)) == expected
    tables = [complexes[0].table(4, simple=True), complexes[1].table(4, simple=True),
              complexes[2].table(3)]
    assert calls == []
    # Every column of the table is basis-invariant, and Maschke leaves no H^2 or H^3.
    assert tables[0] == tables[1]
    assert [row["cohomology"] for row in tables[2]][2:] == [0, 0]
    # The wrappers do count: a Fraction sum of two entries read out of d1 calls them.
    x, y = [x for i in range(d1.rows) for x in d1.row(i) if x][:2]
    assert x + y is not None and calls == ["__add__"]


def test_product_is_zero_rejects_mismatched_shapes():
    with pytest.raises(ShapeError):
        product_is_zero(Matrix.identity(2), Matrix.zeros(3, 1))
    with pytest.raises(ShapeError):
        product_is_zero(Matrix.zeros(0, 2), Matrix.zeros(0, 2))


def _interval_complex(d1_entries=(1, -1), size_ceiling=None):
    """C^0 = Q, C^1 = Q^2, C^2 = Q with d_0 = (1, 1)^T, d_1 = d1_entries.

    Returns the Complex and the log of degrees whose differential was built,
    with the degrees held alongside at that moment.
    """
    dims = [1, 2, 1]
    mats = [Matrix.from_rows([[1], [1]]), Matrix.from_rows([list(d1_entries)]),
            Matrix(0, 1)]
    log = []

    def build(n):
        log.append((n, sorted(cx._held)))
        return mats[n]

    cx = Complex(lambda n: dims[n] if 0 <= n < 3 else 0, build, "interval",
                 size_ceiling, keep=lambda n: [0])
    return cx, log


def test_complex_table_builds_each_differential_once():
    cx, log = _interval_complex()
    rows = cx.table(2, simple=True)
    assert [r["cohomology"] for r in rows] == [0, 0, 0]
    assert [r["rank"] for r in rows] == [1, 1, 0]
    assert [r["coboundaries"] for r in rows] == [0, 1, 1]
    # s_1 keeps column 0 of d_1, whose rank is 1.
    assert [r["simple_coboundaries"] for r in rows] == [0, 1, 1]
    # Building d_n first drops every held matrix but d_{n-1}.
    assert log == [(0, []), (1, [0]), (2, [1])]
    assert sorted(cx._held) == [1, 2]


def test_complex_refuses_non_square_zero_and_oversized():
    cx, _ = _interval_complex(d1_entries=(1, 1))
    assert cx.dim_H(0) == 0
    with pytest.raises(AssertionError, match="interval differential does not square to zero"):
        cx.dim_H(1)
    # rank(1) ranks d_0 first, with no earlier rank(0), and checks
    # d_1 . d_0 = 0 before it ranks d_1 or s_1; a failed check leaves no
    # rank behind.
    for simple in (False, True):
        cx, log = _interval_complex(d1_entries=(1, 1))
        for _ in range(2):
            with pytest.raises(AssertionError, match="interval differential does not square to zero"):
                cx.rank(1, simple)
        assert cx.rank(0) == 1 and log == [(0, []), (1, [0])]
    cx, log = _interval_complex(size_ceiling=1)
    with pytest.raises(SizeCeilingExceeded, match="needs 2 coordinates"):
        cx.rank(0)
    assert log == []
    assert cx.dim_H(-1) == 0 and cx.rank(-1) == 0


@pytest.mark.parametrize("call", ["rank", "dim_H", "dim_H simple"])
def test_one_rank_path_builds_and_checks_each_degree_once(monkeypatch, call):
    # On a fresh complex, lowest degree first: each d_k (k <= n) built once,
    # and one d . d check per degree 1..n.  C^0..C^4 of the heis adjoint
    # triple are all nonzero.
    checked = []
    real = linalg.product_is_zero
    monkeypatch.setattr(linalg, "product_is_zero",
                        lambda a, b: checked.append((a.rows, b.rows)) or real(a, b))
    mla = mla_complex(heis_adjoint_triple())
    for n in range(4):
        built, checked[:] = [], []
        cx = Complex(mla.dim, lambda k: built.append(k) or mla.differential(k), "heis",
                     keep=mla.keep)
        if call == "rank":
            cx.rank(n)
        else:
            cx.dim_H(n, simple=call == "dim_H simple")
        assert built == list(range(n + 1))
        assert checked == [(mla.dim(k + 1), mla.dim(k)) for k in range(1, n + 1)]


def test_a_table_looks_the_rank_cache_up_linearly_often():
    # The ranked degrees are always 0..k-1, so rank(n) starts at degree k: a
    # table to degree N probes the cache O(N) times, not O(N^2) by
    # scanning 0..n on every call.
    class Probed(dict):
        probes = 0

        def __contains__(self, k):
            Probed.probes += 1
            return super().__contains__(k)

        def get(self, *args):
            Probed.probes += 1
            return super().get(*args)

    cx = Complex(lambda n: 1, lambda n: Matrix(1, 1), "line")
    cx._bases = Probed()
    assert [row["cohomology"] for row in cx.table(200)] == [1] * 201
    assert Probed.probes <= 10 * 201


def test_a_cone_of_the_zero_map_is_its_source_plus_the_shifted_target():
    # A two-summand source: dim C^n = dim A_1^n + dim A_2^n + dim B^{n-1},
    # d . d = 0, and with f = 0, H^n = H^n(A_1) + H^n(A_2) + H^{n-1}(B).
    a_1, a_2 = ce_complex(v1(sl2())), group_complex(sign_module(FiniteGroup.cyclic(2)))
    b = ce_complex(heis_adjoint_triple().v)
    cx = linalg.cone((a_1, a_2), b, lambda n: (Matrix(b.dim(n), a_1.dim(n)),
                                              Matrix(b.dim(n), a_2.dim(n))))
    for n in range(4):
        assert cx.dim(n) == a_1.dim(n) + a_2.dim(n) + b.dim(n - 1)
        assert list(cx.keep(n)) == list(range(a_1.dim(n) + a_2.dim(n)))
        assert product_is_zero(cx.matrix(n + 1), cx.matrix(n))
        assert cx.dim_H(n) == a_1.dim_H(n) + a_2.dim_H(n) + b.dim_H(n - 1)


def _negate_first_row(m):
    return Matrix.vstack([-m.submatrix([0], range(m.cols)),
                          m.submatrix(range(1, m.rows), range(m.cols))])


@pytest.mark.parametrize("source, target, f", [
    cohomology._chain_map(sl2_adjoint_triple()),
    groups._chain_map(z4_to_z2_sign_triple(), False),
], ids=["sl2-adjoint", "z4-to-z2"])
def test_a_cone_of_a_map_that_does_not_commute_is_refused(source, target, f):
    # f_n with one row's sign flipped (psi is 0 on Z4 -> Z2): no chain map,
    # so some d_n . d_{n-1} of its cone is not 0.  rank and dim_H refuse that
    # degree every time they are asked, and cache no rank for it.
    def broken(n):
        return tuple(_negate_first_row(block) for block in f(n))

    for n in range(4):  # the cone of f itself passes every check
        linalg.cone(source, target, f).dim_H(n)
    probe = linalg.cone(source, target, broken)
    bad = next(n for n in range(1, 4) if not product_is_zero(probe.matrix(n), probe.matrix(n - 1)))
    cx = linalg.cone(source, target, broken)
    for call in (cx.rank, cx.dim_H, cx.rank):
        with pytest.raises(AssertionError, match="cone differential does not square to zero"):
            call(bad)
        assert sorted(cx._bases) == list(range(bad))


def _greedy_completion(partial):
    """Lowest-index e_i first, each kept when it raises the oracle rank."""
    n = partial.rows
    cols = [partial.col(j) for j in range(partial.cols)]
    chosen = []
    for i in range(n):
        e = [Fraction(int(r == i)) for r in range(n)]
        if o_rank([list(row) for row in zip(*(cols + [e]))]) > len(cols):
            cols.append(e)
            chosen.append(i)
    return cols, chosen


@settings(max_examples=100, deadline=None)
@given(sparse_matrices(rows=st.integers(0, 7), cols=st.integers(0, 4)))
def test_complete_basis_matches_greedy_reference(m):
    if o_rank(m.to_lists()) < m.cols:
        with pytest.raises(ShapeError, match="independent columns"):
            complete_basis(m)
        return
    cols, chosen = _greedy_completion(m)
    full, got = complete_basis(m)
    assert got == chosen
    assert (full.rows, full.cols) == (m.rows, m.rows)
    assert [full.col(j) for j in range(full.cols)] == cols


def test_complete_basis_rejects_dependent_columns():
    with pytest.raises(ShapeError, match="independent columns"):
        complete_basis(Matrix.from_rows([[1, 2], [2, 4], [0, 0]]))
    with pytest.raises(ShapeError, match="independent columns"):
        complete_basis(Matrix.from_rows([[1, 0, 1], [0, 1, 1]]))


def test_inverse_of_singular_matrix():
    with pytest.raises(ShapeError, match="singular"):
        inverse(Matrix.from_rows([[1, 2], [2, 4]]))
    with pytest.raises(ShapeError, match="singular"):
        inverse(Matrix.zeros(3, 3))
    assert inverse(Matrix.zeros(0, 0)) == Matrix.zeros(0, 0)


# -- the reduced-row-echelon routines against the dense oracle ---------------

@st.composite
def low_rank_matrices(draw, rows=st.integers(0, 7), cols=st.integers(0, 7), values=entries):
    """A . B through an inner dimension of at most 3: rank-deficient, dense."""
    r, c, inner = draw(rows), draw(cols), draw(st.integers(0, 3))
    a = draw(sparse_matrices(st.just(r), st.just(inner), values))
    b = draw(sparse_matrices(st.just(inner), st.just(c), values))
    return a * b


rref_inputs = st.one_of(sparse_matrices(), low_rank_matrices(),
                        sparse_matrices(values=big_entries), low_rank_matrices(values=big_entries))


def _oracle_solution(m, b):
    """X read off o_rref([m | b]) with free coordinates 0, or None."""
    n = m.cols
    rows, pivots = o_rref([m.row(i) + b.row(i) for i in range(m.rows)], n + b.cols)
    if any(p >= n for p in pivots):
        return None
    x = [[Fraction(0)] * b.cols for _ in range(n)]
    for row, p in zip(rows, pivots):
        x[p] = row[n:]
    return x


@settings(max_examples=160, deadline=None)
@given(rref_inputs)
def test_kernel_basis_matches_oracle_rref(m):
    rows, pivots = o_rref(m.to_lists(), m.cols)
    free = [c for c in range(m.cols) if c not in pivots]
    expected = [[Fraction(int(c == f)) for c in range(m.cols)] for f in free]
    for vector, f in zip(expected, free):
        for row, p in zip(rows, pivots):
            vector[p] = -row[f]
    k = kernel_basis(m)
    assert (k.rows, k.cols) == (m.cols, len(free))
    assert [k.col(j) for j in range(k.cols)] == expected


@settings(max_examples=160, deadline=None)
@given(rref_inputs, st.data())
def test_solve_columns_matches_oracle_rref(m, data):
    # A random right-hand side is often inconsistent; m . X never is.
    k = data.draw(st.integers(0, 3))
    values = data.draw(st.sampled_from([entries, big_entries]))
    rhs = data.draw(st.one_of(
        sparse_matrices(st.just(m.rows), st.just(k), values),
        sparse_matrices(st.just(m.cols), st.just(k), values).map(lambda x: m * x)))
    x = solve_columns(m, rhs)
    expected = _oracle_solution(m, rhs)
    assert (x is None) == (expected is None)
    if x is not None:
        assert (x.rows, x.cols) == (m.cols, k)
        assert x.to_lists() == expected
        assert m * x == rhs


@settings(max_examples=160, deadline=None)
@given(st.tuples(st.integers(0, 6), st.sampled_from([entries, big_entries])).flatmap(
    lambda nv: st.one_of(sparse_matrices(st.just(nv[0]), st.just(nv[0]), nv[1]),
                         low_rank_matrices(st.just(nv[0]), st.just(nv[0]), nv[1]))))
def test_inverse_and_rank_match_oracles(m):
    n = m.rows
    assert rank(m) == o_rank(m.to_lists())
    rows, pivots = o_rref([m.row(i) + [Fraction(int(i == j)) for j in range(n)]
                           for i in range(n)], 2 * n)
    if pivots[:n] != list(range(n)):
        with pytest.raises(ShapeError, match="singular"):
            inverse(m)
        return
    assert inverse(m).to_lists() == [row[n:] for row in rows]
    assert m * inverse(m) == Matrix.identity(n)


@settings(max_examples=100, deadline=None)
@given(st.one_of(sparse_matrices(rows=st.integers(0, 7), cols=st.integers(0, 4)),
                 low_rank_matrices(rows=st.integers(0, 7), cols=st.integers(0, 4))))
def test_complete_basis_matches_oracle_rref(m):
    n, k = m.rows, m.cols
    _, pivots = o_rref([m.row(i) + [Fraction(int(i == j)) for j in range(n)]
                        for i in range(n)], k + n)
    if pivots[:k] != list(range(k)):
        with pytest.raises(ShapeError, match="independent columns"):
            complete_basis(m)
        return
    full, chosen = complete_basis(m)
    assert chosen == [p - k for p in pivots[k:]]
    assert [full.col(j) for j in range(k, n)] == [
        [Fraction(int(i == c)) for i in range(n)] for c in chosen]


@pytest.mark.parametrize("rows, cols", [(0, 0), (0, 4), (4, 0)])
def test_rref_routines_on_empty_shapes(rows, cols):
    m = Matrix.zeros(rows, cols)
    assert kernel_basis(m) == Matrix.identity(cols)
    assert solve_columns(m, Matrix.zeros(rows, 2)) == Matrix.zeros(cols, 2)
    # The zero map onto a nonzero space has no solution.
    assert (solve_columns(m, Matrix(rows, 1, [1] * rows)) is None) == (rows > 0)
    full, chosen = complete_basis(Matrix.zeros(rows, 0))
    assert full == Matrix.identity(rows) and chosen == list(range(rows))
    if cols > 0:
        with pytest.raises(ShapeError, match="independent columns"):
            complete_basis(m)
    if rows == cols:
        assert inverse(m) == m


def test_inverse_of_two_by_two_and_rank_of_singular():
    m = Matrix.from_rows([[1, 2], [3, 4]])
    assert rank(m) == 2
    assert m * inverse(m) == Matrix.identity(2)
    assert rank(Matrix.from_rows([[1, 2], [2, 4]])) < 2


def test_rank_and_inverse_follow_pivot_permutation():
    # Rank mode pivots the length-1 rows first, on columns 2 and 0.
    for a in map(Matrix.from_rows, [[[0, 0, 3], [5, 0, 0], [1, 2, 4]], [[0, 1], [1, 0]]]):
        assert rank(a) == o_rank(a.to_lists()) == a.rows
        assert a * inverse(a) == Matrix.identity(a.rows)
    with pytest.raises(ShapeError, match="non-square"):
        inverse(Matrix.zeros(2, 3))
