"""``Matrix`` storage: every operation against a plain-list reference.

A matrix stores only its nonzero entries, so these tests check each public
operation against the same operation written on lists of Fractions, on
random shapes that include 0xn and nx0, and check that no operation leaves
a stored zero behind (``==`` and ``is_zero`` compare stored rows).
"""

import re
from fractions import Fraction
from math import gcd, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphlie.linalg import Matrix, kernel_basis, rat_str

Z = Fraction(0)

# Mostly zeros, so sums and products cancel often.
entries = st.one_of(st.just(Z), st.just(Z),
                    st.builds(Fraction, st.integers(-3, 3), st.sampled_from([1, 2, 3])))
sizes = st.integers(0, 5)


def lists(rows, cols):
    return st.lists(st.lists(entries, min_size=cols, max_size=cols),
                    min_size=rows, max_size=rows)


def of(ref, cols):
    return Matrix.from_rows(ref, cols=cols)


def ref_mul(a, b, inner, cols):
    return [[sum((a[i][k] * b[k][j] for k in range(inner)), Z) for j in range(cols)]
            for i in range(len(a))]


@st.composite
def shaped(draw):
    r, c = draw(sizes), draw(sizes)
    return r, c, draw(lists(r, c))


@settings(max_examples=150, deadline=None)
@given(shaped(), st.data())
def test_operations_match_plain_lists(rc, data):
    r, c, ref = rc
    m = of(ref, c)
    other_ref = data.draw(lists(r, c))
    other = of(other_ref, c)
    k = data.draw(sizes)
    right_ref = data.draw(lists(c, k))
    right = of(right_ref, k)
    scalar = data.draw(entries)
    vec = data.draw(st.lists(entries, min_size=c, max_size=c))

    assert (m.rows, m.cols) == (r, c)
    assert m.to_lists() == ref
    assert [m.row(i) for i in range(r)] == ref
    assert [m.col(j) for j in range(c)] == [[row[j] for row in ref] for j in range(c)]
    assert all(m[i, j] == ref[i][j] for i in range(r) for j in range(c))
    assert m.transpose().to_lists() == [[row[j] for row in ref] for j in range(c)]
    assert (m + other).to_lists() == [[x + y for x, y in zip(a, b)]
                                      for a, b in zip(ref, other_ref)]
    assert (m - other).to_lists() == [[x - y for x, y in zip(a, b)]
                                      for a, b in zip(ref, other_ref)]
    assert (-m).to_lists() == [[-x for x in row] for row in ref]
    assert m.scale(scalar).to_lists() == [[scalar * x for x in row] for row in ref]
    assert (m * right).to_lists() == ref_mul(ref, right_ref, c, k)
    assert m.apply(vec) == [sum((x * y for x, y in zip(row, vec)), Z) for row in ref]
    assert m.is_zero() == all(x == 0 for row in ref for x in row)
    assert (m == other) == (ref == other_ref)
    body = "; ".join(" ".join(rat_str(x) for x in row) for row in ref)
    assert repr(m) == (f"Matrix({r}x{c}: {body})" if r * c <= 12 else f"Matrix({r}x{c})")

    row_idx = data.draw(st.lists(st.integers(0, r - 1), max_size=6)) if r else []
    col_idx = data.draw(st.lists(st.integers(0, c - 1), max_size=6)) if c else []
    assert m.submatrix(row_idx, col_idx).to_lists() == [[ref[i][j] for j in col_idx]
                                                        for i in row_idx]
    num, den = m.stored_rows()
    for i in range(r):
        assert {j: Fraction(x, den[i]) for j, x in num[i].items()} == {
            j: x for j, x in enumerate(ref[i]) if x}


@settings(max_examples=80, deadline=None)
@given(sizes, sizes, sizes, st.data())
def test_stacks_match_plain_lists(r, c, k, data):
    a, b = data.draw(lists(r, c)), data.draw(lists(r, k))
    d, e = data.draw(lists(k, c)), data.draw(lists(k, k))
    top = [x + y for x, y in zip(a, b)]
    assert Matrix.hstack([of(a, c), of(b, k)]).to_lists() == top
    assert Matrix.vstack([of(a, c), of(d, c)]).to_lists() == a + d
    grid = Matrix.block([[of(a, c), of(b, k)], [of(d, c), of(e, k)]])
    assert (grid.rows, grid.cols) == (r + k, c + k)
    assert grid.to_lists() == top + [x + y for x, y in zip(d, e)]


@settings(max_examples=100, deadline=None)
@given(shaped(), st.data())
def test_cancellation_leaves_no_stored_zero(rc, data):
    r, c, ref = rc
    m = of(ref, c)
    zero = Matrix.zeros(r, c)
    for cancelled in (m - m, m + (-m), m.scale(0), -(m - m)):
        assert cancelled == zero and cancelled.is_zero()
    # [m | m] . [x ; -x] = 0 for any x.
    k = data.draw(sizes)
    x = of(data.draw(lists(c, k)), k)
    product = Matrix.hstack([m, m]) * Matrix.vstack([x, -x])
    assert product == Matrix.zeros(r, k) and product.is_zero()


@settings(max_examples=100, deadline=None)
@given(shaped())
def test_from_rows_with_zeros_equals_from_integer_rows(rc):
    r, c, ref = rc
    # Each row over twice the lcm of its denominators, so from_integer_rows reduces it.
    den = [2 * lcm(*(x.denominator for x in row)) for row in ref]
    sparse = [{j: int(x * d) for j, x in enumerate(row) if x} for row, d in zip(ref, den)]
    padded = [{j: int(x * d) for j, x in enumerate(row)} for row, d in zip(ref, den)]
    # from_integer_rows takes the list of denominators over, so each call gets a copy.
    assert (of(ref, c) == Matrix.from_integer_rows(sparse, c, list(den))
            == Matrix.from_integer_rows(padded, c, list(den)))
    assert Matrix(r, c, [x for row in ref for x in row]) == of(ref, c)


@settings(max_examples=100, deadline=None)
@given(shaped())
def test_first_nonzero_col_matches_plain_lists(rc):
    r, c, ref = rc
    expected = next((j for j in range(c) if any(row[j] for row in ref)), None)
    assert of(ref, c).first_nonzero_col() == expected


def test_index_outside_shape():
    m = Matrix.from_rows([[1, 0], [0, 2]])
    assert m[1, -1] == 2 and m[0, -1] == 0
    with pytest.raises(IndexError):
        m[0, 2]
    with pytest.raises(IndexError):
        m[2, 0]


def test_storage_stays_inside_linalg():
    # Only linalg.py may read or write Matrix's stored integer rows and row
    # denominators; everything else goes through the constructors, the
    # readers (row, col, stored_rows) and the pair integer_rows / from_integer_rows.
    package = Path(__file__).resolve().parent.parent / "src" / "morphlie"
    touching = sorted(p.name for p in package.glob("*.py")
                      if p.name != "linalg.py"
                      and re.search(r"\._(rows|num|den)\b", p.read_text(encoding="utf-8")))
    assert touching == []


def _lowest_fractions(values):
    return all(type(x) is Fraction and x.denominator > 0 and gcd(x.numerator, x.denominator) == 1
               for x in values)


nonzero = st.builds(Fraction, st.integers(1, 4) | st.integers(-4, -1), st.sampled_from([1, 2, 3, 5]))


@settings(max_examples=100, deadline=None)
@given(shaped(), st.data())
def test_equal_matrices_store_equal_rows_however_built(rc, data):
    # Each row is stored in lowest terms, so == compares stored rows whatever
    # the matrix was built from.
    r, c, ref = rc
    m = of(ref, c)
    other = of(data.draw(lists(r, c)), c)
    s = data.draw(nonzero)
    diag = data.draw(st.lists(nonzero, min_size=c, max_size=c))
    unreduced = [[Fraction(2 * x.numerator, 2 * x.denominator) for x in row] for row in ref]
    written = [[int(x) if x.denominator == 1 else f"{3 * x.numerator}/{3 * x.denominator}"
                for x in row] for row in ref]
    rows, d = m.integer_rows()
    built = [
        of(unreduced, c), of(written, c),
        Matrix.from_integer_rows([{j: 2 * x for j, x in row.items()} for row in rows], c,
                                 [2 * d] * r),
        m.scale(s).scale(1 / s),
        Matrix.lincomb([(1, m), (s, other), (-s, other)], r, c),
        m * Matrix.from_rows([[x if i == j else 0 for j in range(c)]
                              for i, x in enumerate(diag)], c)
        * Matrix.from_rows([[1 / x if i == j else 0 for j in range(c)]
                            for i, x in enumerate(diag)], c),
        m.transpose().transpose(),
        Matrix.from_integer_rows([{j: 5 * x for j, x in row.items()} for row in rows], c, 5 * d),
    ]
    for b in built:
        assert b == m and b.to_lists() == ref
    # The integer view times its denominator gives back the entries, and
    # stores no zero.
    assert [[Fraction(row.get(j, 0), d) for j in range(c)] for row in rows] == ref
    assert all(x for row in rows for x in row.values())
    # Every entry read back is a Fraction in lowest terms.
    vec = data.draw(st.lists(entries, min_size=c, max_size=c))
    assert _lowest_fractions([m[i, j] for i in range(r) for j in range(c)])
    assert _lowest_fractions([x for row in m.to_lists() for x in row])
    assert _lowest_fractions([x for j in range(c) for x in m.col(j)])
    num, den = m.stored_rows()
    assert all(e > 0 and gcd(e, *row.values()) == 1 for row, e in zip(num, den))
    assert _lowest_fractions(m.apply(vec))
    assert _lowest_fractions([x for row in kernel_basis(m).to_lists() for x in row])
