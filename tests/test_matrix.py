"""``Matrix`` storage: every operation against a plain-list reference.

A matrix stores only its nonzero entries, so these tests check each public
operation against the same operation written on lists of Fractions, on
random shapes that include 0xn and nx0, and check that no operation leaves
a stored zero behind (``==`` and ``is_zero`` compare stored rows).
"""

import re
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphlie.errors import ShapeError
from morphlie.linalg import Matrix, rat_str

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
    for i in range(r):
        assert dict(m.row_items(i)) == {j: x for j, x in enumerate(ref[i]) if x}


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
def test_from_rows_with_zeros_equals_from_dicts(rc):
    r, c, ref = rc
    dicts = [{j: x for j, x in enumerate(row) if x} for row in ref]
    padded = [{j: x for j, x in enumerate(row)} for row in ref]
    assert of(ref, c) == Matrix.from_dicts(dicts, c) == Matrix.from_dicts(padded, c)
    assert Matrix(r, c, [x for row in ref for x in row]) == of(ref, c)


@settings(max_examples=100, deadline=None)
@given(shaped())
def test_first_nonzero_col_matches_plain_lists(rc):
    r, c, ref = rc
    expected = next((j for j in range(c) if any(row[j] for row in ref)), None)
    assert of(ref, c).first_nonzero_col() == expected


def test_from_dicts_rejects_column_outside_shape():
    with pytest.raises(ShapeError):
        Matrix.from_dicts([{2: 1}], 2)
    with pytest.raises(ShapeError):
        Matrix.from_dicts([{-1: 1}], 2)


def test_index_outside_shape():
    m = Matrix.from_rows([[1, 0], [0, 2]])
    assert m[1, -1] == 2 and m[0, -1] == 0
    with pytest.raises(IndexError):
        m[0, 2]
    with pytest.raises(IndexError):
        m[2, 0]


def test_storage_stays_inside_linalg():
    # Only linalg.py may read or write Matrix's stored rows; everything else
    # goes through from_dicts and row_items.
    package = Path(__file__).resolve().parent.parent / "src" / "morphlie"
    touching = sorted(p.name for p in package.glob("*.py")
                      if p.name != "linalg.py"
                      and re.search(r"\._rows\b", p.read_text(encoding="utf-8")))
    assert touching == []
