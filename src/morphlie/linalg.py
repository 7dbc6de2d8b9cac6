"""Exact linear algebra over the rationals, deliberately dependency-free.

Zero-dimensional matrices (0 rows or 0 columns) are first-class citizens
because top-degree cochain spaces are routinely empty.

``Matrix``, the only matrix format in the package, stores each row as a dict
{column: int} of its nonzero numerators over one row denominator: the
differentials it carries are a few percent nonzero.  Every operation computes
on those integers, so no + or * pays a gcd and a new object; every entry
read or reported is a Fraction.  Assembly code builds rows in integers
through ``integer_rows`` and ``from_integer_rows``.  The one sparse
elimination, ``_pivot``, returns its pivot rows and is behind ranks, row
bases, kernels, solutions, inverses and completed bases.  It has two modes.
``row_basis`` (and ``rank``, its size) feeds it the columns of a matrix
outside a skipped set, as rows; it pivots on the shortest row and, inside
it, on the column the fewest rows touch, which keeps fill-in low.
``_eliminate`` feeds ``kernel_basis``, ``solve_columns``, ``inverse`` and
``complete_basis`` copies of a matrix's rows; it pivots on a row's lowest
column and clears it from every other row; each row divided by its pivot
is then the unique reduced row echelon form, which callers depend on: the
kernel basis with one free column per vector and solutions whose free
coordinates are 0.

``Complex`` is the one cochain complex behind every cohomology dimension in
the package: a degree -> differential function with cached ranks, one
d . d = 0 check through ``product_is_zero``, and the rows of a CLI table.
It has one rank path: the lower degrees are ranked first, lowest first, and
every rank of degree n >= 1 comes after the check d_n . d_{n-1} = 0; d_n is
then ranked by ``row_basis`` on the columns outside a row basis of
d_{n-1}, which the check makes exact (the proof is in ``Complex``).
``cone`` is the ``Complex`` of the mapping cone of a chain map from a
direct sum of complexes; both morphism complexes are one.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from typing import Callable, Collection, Iterable, Mapping, Sequence

from .errors import ShapeError, SizeCeilingExceeded

ZERO = Fraction(0)
ONE = Fraction(1)

Scalar = int | str | Fraction
Number = int | Fraction


def _ratio(text: str) -> tuple[int, int] | None:
    """(p, q) of "p" or "p/q" ("-" optional, q led by 1-9, digits of str.isdecimal), else None."""
    p, slash, q = text.partition("/")
    if (p.isdecimal() or p[:1] == "-" and p[1:].isdecimal()) and (
            not slash or q.isdecimal() and "0" < q[0] <= "9"):
        return int(p), int(q) if slash else 1
    return None


def rat(value: Scalar) -> Fraction:
    """An int (not a bool), Fraction, or canonical "p/q" string (``_ratio``) as a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    if isinstance(value, str):
        if (ratio := _ratio(value)) is not None:
            return Fraction(*ratio)
        if value.endswith("/0") and _ratio(value[:-2]):
            raise ZeroDivisionError(f"zero denominator in {value!r}")
        raise ValueError(f"{value!r} is not a canonical 'p/q' string")
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def rat_str(value: Fraction) -> str:
    """Serialize a Fraction as "p" or "p/q" with positive denominator."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class Matrix:
    """Immutable rational matrix; each row stores its nonzero entries as integers.

    Row i is a dict {column: numerator} holding no zero over a positive row
    denominator, the lcm of its entries' denominators (lowest terms), so
    ``==`` and ``is_zero`` compare stored rows.  Entries are read as
    Fractions.  A stored row is never changed, so matrices share rows.
    """

    __slots__ = ("rows", "cols", "_num", "_den")

    def __init__(self, rows: int, cols: int, entries: Iterable[Scalar] = ()):
        if rows < 0 or cols < 0:
            raise ShapeError(f"matrix dimensions must be nonnegative, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        data = list(entries)
        if not data:
            self._num, self._den = [{} for _ in range(rows)], [1] * rows
        elif len(data) != rows * cols:
            raise ShapeError(f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(data)}")
        else:
            self._num, self._den = _scalar_rows(
                enumerate(data[i * cols:(i + 1) * cols]) for i in range(rows))

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]], cols: int | None = None) -> Matrix:
        n = len(rows)
        if n == 0:
            if cols is None:
                raise ShapeError("from_rows needs an explicit column count for 0 rows")
            return cls(0, cols)
        width = len(rows[0])
        if cols is not None and cols != width:
            raise ShapeError(f"declared {cols} columns but rows have {width}")
        if any(len(r) != width for r in rows):
            raise ShapeError("ragged rows")
        return _matrix(width, *_scalar_rows(enumerate(r) for r in rows))

    @classmethod
    def from_integer_rows(cls, rows: Sequence[dict[int, int]], cols: int,
                          den: int | list[int] = 1) -> Matrix:
        """Row i is rows[i] / den (or / den[i]), den > 0; zeros are dropped, the dicts and list kept."""
        num = [row if 0 not in row.values() else {j: x for j, x in row.items() if x}
               for row in rows]
        return _matrix(cols, num, den if isinstance(den, list) else [den] * len(num))

    def integer_rows(self, d: int = 0) -> tuple[list[dict[int, int]], int]:
        """(rows, d): this matrix times d as {column: int} rows of the nonzero entries.

        d defaults to the lcm of the row denominators; a given d must be a
        multiple of it.  A row may be the stored one: read it, never change it.
        """
        if d <= 1 and self._den.count(1) == self.rows:
            return self._num, 1
        d = d or lcm(*self._den)
        return [row if e == d else {j: x * (d // e) for j, x in row.items()}
                for row, e in zip(self._num, self._den)], d

    def stored_rows(self) -> tuple[list[dict[int, int]], list[int]]:
        """The stored integer rows and their denominators: read them, never change them."""
        return self._num, self._den

    @classmethod
    def lincomb(cls, terms: Iterable[tuple[Scalar, Matrix]], rows: int, cols: int) -> Matrix:
        """The rows x cols matrix sum c * m over (c, m) in terms; cancelled entries are dropped."""
        parts, unit = [], True
        for c, m in terms:
            if m.rows != rows or m.cols != cols:
                raise ShapeError(f"shape mismatch: {rows}x{cols} vs {m.rows}x{m.cols}")
            p, q = (c if isinstance(c, (int, Fraction)) else rat(c)).as_integer_ratio()
            if p:
                parts.append((p, q, m))
                unit = unit and q == 1 and m._den.count(1) == rows
        den = [1] * rows if unit else [lcm(*(q * m._den[i] for _, q, m in parts))
                                       for i in range(rows)]
        num: list[dict[int, int]] = [{} for _ in range(rows)]
        for p, q, m in parts:
            factors = repeat(p) if unit else [p * (d // (q * e)) for d, e in zip(den, m._den)]
            for row, part, f in zip(num, m._num, factors):
                for j, x in part.items():
                    x *= f
                    if (y := row.get(j)) is None:
                        row[j] = x
                    elif y := y + x:
                        row[j] = y
                    else:
                        del row[j]
        return _matrix(cols, num, den)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> Matrix:
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return _matrix(n, [{i: 1} for i in range(n)], [1] * n)

    @classmethod
    def column(cls, entries: Sequence[Scalar]) -> Matrix:
        return cls(len(entries), 1, list(entries))

    @classmethod
    def hstack(cls, blocks: Sequence[Matrix]) -> Matrix:
        if not blocks:
            raise ShapeError("hstack of no blocks")
        rows = blocks[0].rows
        if any(b.rows != rows for b in blocks):
            raise ShapeError("hstack blocks disagree on row count")
        den = ([1] * rows if all(b._den.count(1) == rows for b in blocks)
               else [lcm(*(b._den[i] for b in blocks)) for i in range(rows)])
        num: list[dict[int, int]] = [{} for _ in range(rows)]
        offset = 0
        for b in blocks:
            for row, part, d, e in zip(num, b._num, den, b._den):
                f = d // e
                for j, x in part.items():
                    row[offset + j] = x * f
            offset += b.cols
        return _matrix(offset, num, den)

    @classmethod
    def vstack(cls, blocks: Sequence[Matrix]) -> Matrix:
        if not blocks:
            raise ShapeError("vstack of no blocks")
        cols = blocks[0].cols
        if any(b.cols != cols for b in blocks):
            raise ShapeError("vstack blocks disagree on column count")
        return _matrix(cols, [row for b in blocks for row in b._num],
                       [d for b in blocks for d in b._den])

    @classmethod
    def block(cls, grid: Sequence[Sequence[Matrix]]) -> Matrix:
        return cls.vstack([cls.hstack(row) for row in grid])

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not -self.cols <= j < self.cols:
            raise IndexError("matrix column index out of range")
        x = self._num[i].get(j % self.cols)
        return ZERO if x is None else _entry(x, self._den[i])

    def row(self, i: int) -> list[Fraction]:
        out, d = [ZERO] * self.cols, self._den[i]
        for j, x in self._num[i].items():
            out[j] = _entry(x, d)
        return out

    def col(self, j: int) -> list[Fraction]:
        if self.rows:
            j = range(self.cols)[j]
        return [_entry(row[j], d) if j in row else ZERO for row, d in zip(self._num, self._den)]

    def to_lists(self) -> list[list[Fraction]]:
        return [self.row(i) for i in range(self.rows)]

    def strings(self) -> list[list[str]]:
        """Each row's entries as the canonical strings rat_str writes."""
        out = [["0"] * self.cols for _ in range(self.rows)]
        for line, row, d in zip(out, self._num, self._den):
            for j, x in row.items():
                line[j] = str(x) if d == 1 else rat_str(Fraction(x, d))
        return out

    def transpose(self) -> Matrix:
        rows, d = self.integer_rows()
        num: list[dict[int, int]] = [{} for _ in range(self.cols)]
        for i, row in enumerate(rows):
            for j, x in row.items():
                num[j][i] = x
        return _matrix(self.rows, num, [d] * self.cols)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (self.rows == other.rows and self.cols == other.cols
                and self._num == other._num and self._den == other._den)

    def __add__(self, other: Matrix) -> Matrix:
        return Matrix.lincomb(((ONE, self), (ONE, other)), self.rows, self.cols)

    def __sub__(self, other: Matrix) -> Matrix:
        return Matrix.lincomb(((ONE, self), (-ONE, other)), self.rows, self.cols)

    def __neg__(self) -> Matrix:
        return _matrix(self.cols, [{j: -x for j, x in row.items()} for row in self._num],
                       list(self._den))

    def scale(self, c: Scalar) -> Matrix:
        p, q = rat(c).as_integer_ratio()
        if not p:
            return Matrix(self.rows, self.cols)
        return _matrix(self.cols, [{j: p * x for j, x in row.items()} for row in self._num],
                       [q * d for d in self._den])

    def __mul__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        right, e = other.integer_rows()
        num = [{j: x for j, x in _row_times(row, right).items() if x} for row in self._num]
        den = [d * e for d in self._den] if e != 1 else list(self._den)
        return _matrix(other.cols, num, den)

    def apply(self, vector: Sequence[Scalar]) -> list[Fraction]:
        """Multiply by a coordinate vector, returning a plain list.

        Only the vector's nonzero entries are read, as integers over their
        lcm: each row is matched against them from whichever is shorter.
        """
        if len(vector) != self.cols:
            raise ShapeError(f"vector of length {len(vector)} against {self.rows}x{self.cols} matrix")
        (vec,), (v,) = _scalar_rows([enumerate(vector)])
        out = []
        for row, d in zip(self._num, self._den):
            short, long = (row, vec) if len(row) < len(vec) else (vec, row)
            acc = 0
            for j, x in short.items():
                if (y := long.get(j)) is not None:
                    acc += x * y
            out.append(_entry(acc, d * v) if acc else ZERO)
        return out

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> Matrix:
        targets: dict[int, list[int]] = {}
        for a, j in enumerate(col_idx):
            targets.setdefault(j, []).append(a)
        num: list[dict[int, int]] = []
        for i in row_idx:
            row = {}
            for j, x in self._num[i].items():
                for a in targets.get(j, ()):
                    row[a] = x
            num.append(row)
        return _matrix(len(col_idx), num, [self._den[i] for i in row_idx])

    def is_zero(self) -> bool:
        return not any(self._num)

    def first_nonzero_col(self) -> int | None:
        """The lowest column holding a nonzero entry; None for a zero matrix."""
        return min((min(row) for row in self._num if row), default=None)

    def __repr__(self) -> str:
        if self.rows * self.cols <= 12:
            body = "; ".join(" ".join(r) for r in self.strings())
            return f"Matrix({self.rows}x{self.cols}: {body})"
        return f"Matrix({self.rows}x{self.cols})"


_SMALL = {k: Fraction(k) for k in range(-64, 65) if k}


def _entry(x: int, d: int) -> Fraction:
    """The entry x / d of a stored row; small integers come from one table."""
    return _SMALL.get(x) or Fraction(x) if d == 1 else Fraction(x, d)


def _scalar_rows(rows: Iterable[Iterable[tuple[int, Scalar]]]
                 ) -> tuple[list[dict[int, int]], list[int]]:
    """Rows of (column, scalar) pairs as integer rows over their lcm of denominators."""
    num, den = [], []
    for items in rows:
        row, d = {}, 1
        for j, x in items:
            if type(x) is int:  # most entries: no ratio and no rescaling
                if x:
                    row[j] = x * d
                continue
            p, q = (x if isinstance(x, Fraction) else rat(x)).as_integer_ratio()
            if not p:
                continue
            if d % q:
                f = q // gcd(d, q)
                for k in row:
                    row[k] *= f
                d *= f
            row[j] = p * (d // q)
        num.append(row)
        den.append(d)
    return num, den


def _matrix(cols: int, num: list[dict[int, int]], den: list[int]) -> Matrix:
    """The matrix with rows num[i] / den[i] in lowest terms; it takes both lists over."""
    if den.count(1) != len(den):
        for i, d in enumerate(den):
            if d != 1 and (g := gcd(d, *num[i].values())) != 1:
                num[i] = {j: x // g for j, x in num[i].items()}
                den[i] = d // g
    out = Matrix.__new__(Matrix)
    out.rows, out.cols, out._num, out._den = len(num), cols, num, den
    return out


def _row_times(row: Mapping[int, int], rows: Sequence[Mapping[int, int]]) -> dict[int, int]:
    """The entries of row . M, for M stored as integer ``rows``; sums may cancel to 0."""
    acc: dict[int, int] = {}
    for k, x in row.items():
        for j, y in rows[k].items():
            acc[j] = acc[j] + x * y if j in acc else x * y
    return acc


def _eliminate(rows: Iterable[Mapping[int, int]]) -> dict[int, dict[int, int]]:
    """The reduced row echelon ``_pivot`` of copies of the integer ``rows``."""
    work = {i: dict(row) for i, row in enumerate(rows) if row}
    touching: dict[int, set[int]] = {}
    for i, row in work.items():
        for j in row:
            touching.setdefault(j, set()).add(i)
    return _pivot(work, touching, reduce=True)


def _pivot(work: dict[int, dict[int, int]], touching: dict[int, set[int]],
           reduce: bool) -> dict[int, dict[int, int]]:
    """Eliminate the nonzero integer rows ``work``, indexed by ``touching``, in place.

    ``touching[j]`` is the set of rows holding column j.  Returns {pivot
    column: integer row}.  A row is divided by its content on
    becoming a pivot row.  Clearing pivot p from a row with entry f makes it
    (p/g) row - (f/g) pivot row, g = gcd(p, f) with p's sign: each row stays
    a positive multiple of the row a Fraction elimination would hold, with
    the same fill-in.
    A lazy heap yields the shortest live row.  Rank mode pivots at the row's
    column the fewest other live rows touch (ties to the lowest) and clears
    it from live rows, so each later pivot row is zero at every earlier
    pivot column: the pivot columns are independent columns of the input.
    With ``reduce`` the row pivots at its lowest column and pivot rows are
    cleared too: divided by their pivots they end as the unique reduced row
    echelon form.
    """
    live = set(work)
    queue = [(len(row), i) for i, row in work.items()]
    heapq.heapify(queue)
    pivots: dict[int, dict[int, int]] = {}
    while live:
        length, i = heapq.heappop(queue)
        row = work[i]
        if i not in live or len(row) != length:
            continue
        live.discard(i)
        if (q := gcd(*row.values())) != 1:
            for j in row:
                row[j] //= q
        if reduce:
            c = min(row)
        else:
            for j in row:
                touching[j].discard(i)
            c = min(row, key=lambda j: (len(touching[j]), j))
        targets = touching.pop(c)
        targets.discard(i)
        pivots[c] = row
        if not targets:
            continue
        pivot = row.pop(c)
        for k in targets:
            other = work[k]
            f = other.pop(c)
            g = gcd(pivot, f) if pivot > 0 else -gcd(pivot, f)
            m, f = pivot // g, -f // g
            if m != 1:
                for j in other:
                    other[j] *= m
            for j, x in row.items():
                y = other.get(j)
                if y is None:
                    other[j] = f * x
                    touching[j].add(k)
                elif y := y + f * x:
                    other[j] = y
                else:
                    del other[j]
                    touching[j].discard(k)
            if not other:
                live.discard(k)
            elif k in live:
                heapq.heappush(queue, (len(other), k))
        row[c] = pivot
    return pivots


def rank(m: Matrix) -> int:
    """Exact rank: the size of a row basis."""
    return len(row_basis(m))


def row_basis(m: Matrix, skip: Collection[int] = ()) -> set[int]:
    """Indices of independent rows of m that span its rows without the columns ``skip``.

    They are the pivot columns of a rank-mode ``_pivot`` of the transpose of
    m without those columns, built in one pass over m's stored rows: each
    a positive multiple of its row of m, which keeps column dependencies.
    """
    work: dict[int, dict[int, int]] = {}
    touching: dict[int, set[int]] = {}
    for i, row in enumerate(m._num):
        if row and (cols := row.keys() - skip):
            touching[i] = cols
            for j in cols:
                if (column := work.get(j)) is None:
                    work[j] = {i: row[j]}
                else:
                    column[i] = row[j]
    return set(_pivot(work, touching, reduce=False))


def product_is_zero(a: Matrix, b: Matrix) -> bool:
    """Whether a * b is the zero matrix.

    Multiplies a's stored integer rows by b's integer view (a row
    denominator does not change whether a row is zero); stops at the first
    nonzero row of the product, tested on its accumulator.
    """
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    right, _ = b.integer_rows()
    for row in a._num:
        if any(_row_times(row, right).values()):
            return False
    return True


class Complex:
    """A cochain complex given degree by degree: H^n = ker d_n / im d_{n-1}.

    ``dim(n)`` is dim C^n, evaluated once per degree, and ``differential(n)``
    builds d_n: C^n -> C^{n+1}.  Ranks are cached.  A differential is
    refused before it is built if max(dim C^n, dim C^{n+1}) exceeds
    ``size_ceiling``, is built once, and is held only while a neighbouring
    degree may still need it: building d_n drops every held matrix but
    d_{n-1} and d_{n+1}.  ``keep(n)`` lists the columns of d_n that the
    simple variant keeps (n >= 1; s_0 = d_0).  Every dimension is reported
    only after d_n . d_{n-1} = 0 has been checked.

    Ranks.  ``rank(n)`` ranks d_0, ..., d_{n-1} first, lowest first, then
    checks d_n . d_{n-1} = 0 and keeps S_n = ``row_basis(d_n, S_{n-1})``,
    with S_{-1} empty: d_n is ranked only on the columns outside S_{n-1}.
    It is exact:
    - The rows S of d_{n-1} are independent, so the projection onto the
      coordinates S is injective on im d_{n-1} (of dimension |S|) and onto
      Q^S: C^n = im d_{n-1} (+) span{e_j : j not in S}.  d_n kills the first
      summand, so rank d_n is its rank on the columns outside S.
    - The pivots of a rank-mode ``_pivot`` are independent columns of its
      input: each later pivot row is zero at every earlier pivot column, so
      the pivot block is triangular, and row operations keep column
      dependencies.  On the transpose of d_n without the columns S they are
      independent rows of d_n, rank d_n many: a row basis S_n.
    s_n is ranked, after the same lower degrees and check, as ``row_basis``
    of d_n without the columns outside keep(n).
    """

    def __init__(self, dim: Callable[[int], int],
                 differential: Callable[[int], Matrix], name: str,
                 size_ceiling: int | None = None,
                 keep: Callable[[int], Sequence[int]] | None = None):
        self._dim, self._dims = dim, {}
        self.differential = differential
        self.name = name
        self.size_ceiling = size_ceiling
        self.keep = keep
        self._held: dict[int, Matrix] = {}
        self._bases: dict[int, set[int]] = {}
        self._simple: dict[int, int] = {}
        self._verified: set[int] = set()

    def dim(self, n: int) -> int:
        return self._dims[n] if n in self._dims else self._dims.setdefault(n, self._dim(n))

    def _refuse(self, lo: int, hi: int) -> None:
        if self.size_ceiling is None:
            return
        needed = max(self.dim(k) for k in range(max(lo, 0), hi + 1))
        if needed > self.size_ceiling:
            raise SizeCeilingExceeded(
                f"cochain space needs {needed} coordinates, ceiling is {self.size_ceiling}")

    def matrix(self, n: int) -> Matrix:
        """d_n, built on first use."""
        m = self._held.get(n)
        if m is None:
            self._refuse(n, n + 1)
            self._held = {k: d for k, d in self._held.items() if abs(k - n) == 1}
            m = self._held[n] = self.differential(n)
        return m

    def rank(self, n: int, simple: bool = False) -> int:
        """Rank of d_n, or with ``simple`` of s_n: d_n on the columns keep(n)."""
        simple = simple and n > 0 and self.keep is not None
        # The ranked degrees are always 0..len(_bases)-1: a failed check adds none.
        for k in range(len(self._bases), n if simple else n + 1):
            d = self.matrix(k)
            self.verify(k)
            self._bases[k] = row_basis(d, self._bases.get(k - 1, ()))
        if not simple:
            return len(self._bases.get(n, ()))
        if n not in self._simple:
            d = self.matrix(n)
            self.verify(n)
            self._simple[n] = len(row_basis(d, set(range(d.cols)).difference(self.keep(n))))
        return self._simple[n]

    def verify(self, n: int) -> None:
        """Raise AssertionError unless d_n . d_{n-1} = 0."""
        if n <= 0 or n in self._verified:
            return
        prev = self.matrix(n - 1)
        if not product_is_zero(self.matrix(n), prev):
            raise AssertionError(f"{self.name} differential does not square to zero")
        self._verified.add(n)

    def dim_H(self, n: int, simple: bool = False) -> int:
        """dim C^n - rank d_n - rank d_{n-1}, ranked in that order; s_{n-1} with ``simple``."""
        if n < 0:
            return 0
        self._refuse(n - 1, n + 1)
        if self.dim(n) == 0:
            return 0
        return self.dim(n) - self.rank(n) - self.rank(n - 1, simple)

    def table(self, top: int, simple: bool = False) -> list[dict]:
        """The rows of a cohomology table in degrees 0..top."""
        rows = []
        for n in range(top + 1):
            dim_n, rank_n = self.dim(n), self.rank(n)
            row = {"degree": n, "cochains": dim_n, "rank": rank_n,
                   "cocycles": dim_n - rank_n, "coboundaries": self.rank(n - 1),
                   "cohomology": self.dim_H(n)}
            if simple:
                row["simple_coboundaries"] = self.rank(n - 1, simple=True)
                row["simple_cohomology"] = self.dim_H(n, simple=True)
            rows.append(row)
        return rows


def cone(source: Sequence[Complex], target: Complex, f: Callable[[int], Sequence[Matrix]],
         graph: Matrix | None = None, name: str = "cone",
         size_ceiling: int | None = None) -> Complex:
    """The mapping cone of a chain map f: A_1 (+) ... (+) A_k -> B, as a Complex.

    C^n = A_1^n (+) ... (+) A_k^n (+) B^{n-1} and d(a, b) = (d a, f a - d b),
    with B^{-1} = 0 (``target.dim(-1)`` is 0).  ``f(n)`` is the row of blocks
    [f_1 | ... | f_k] of f_n, block i from A_i^n to B^n.  With ``graph``, a map
    psi from A_1^0 to A_2^0 (+) ... (+) A_k^0, C^0 is the graph of psi and d_0 is
    the cone's d_0 times [I; psi], built for it.  ``keep(n)`` is the source's columns.

    d_n is written in one pass of integer rows, each zero-free: the rows of
    each d_{A_i} as stored, shifted past the earlier summands, then each B
    row as the rows of f's blocks and of -d_B at their offsets (disjoint
    columns), over the lcm of their denominators, or unscaled when all are
    1.  It calls the summands' ``differential``, not ``matrix``: the cone
    holds d_n itself.
    """
    def dim(n: int) -> int:
        if n == 0 and graph is not None:
            return graph.cols
        return sum(a.dim(n) for a in source) + target.dim(n - 1)

    def differential(n: int) -> Matrix:
        num, den, parts, off = [], [], [], 0
        for d_a, block in zip([a.differential(n) for a in source], f(n)):
            rows, dens = d_a.stored_rows()
            num += [{off + j: x for j, x in row.items()} for row in rows] if off else rows
            den += dens
            parts.append((off, 1, *block.stored_rows()))
            off += d_a.cols
        if n:
            parts.append((off, -1, *target.differential(n - 1).stored_rows()))
        dens = [d for *_, d in parts]
        if all(d.count(1) == len(d) for d in dens):
            eta_den = dens[0]
            blocks = [rows if i == 0 and (o, s) == (0, 1) else
                      [{o + j: s * x for j, x in row.items()} for row in rows]
                      for i, (o, s, rows, _) in enumerate(parts)]
        else:
            eta_den = list(map(lcm, *dens))
            blocks = [[{o + j: s * (e // d) * x for j, x in row.items()}
                       for row, d, e in zip(rows, part_den, eta_den)]
                      for o, s, rows, part_den in parts]
        eta = blocks.pop()  # new rows, unless they are the only block
        for rows in blocks:
            for row, part in zip(eta, rows):
                row.update(part)
        d = _matrix(off + target.dim(n - 1), num + eta, den + eta_den)
        if n == 0 and graph is not None:
            d = d * Matrix.vstack([Matrix.identity(graph.cols), graph])
        return d

    return Complex(dim, differential, name, size_ceiling,
                   lambda n: range(dim(n) - target.dim(n - 1)))


def kernel_basis(m: Matrix) -> Matrix:
    """Columns spanning ker(m); a 0xN matrix has the full N-dim kernel.

    Free column f of the reduced row echelon form gives 1 at f, 0 at the
    other free columns, and minus the reduced rows' entries at f on pivots.
    """
    pivots = _eliminate(m._num)
    free = {f: k for k, f in enumerate(c for c in range(m.cols) if c not in pivots)}
    num, den = [{free[f]: 1} if f in free else {} for f in range(m.cols)], [1] * m.cols
    for p, row in pivots.items():
        d = row.pop(p)
        num[p] = {free[j]: x if d < 0 else -x for j, x in row.items()}
        den[p] = abs(d)
    return _matrix(len(free), num, den)


def solve_columns(m: Matrix, b: Matrix) -> Matrix | None:
    """Solve m X = b for every column of b at once; None if any fails.

    Reads X off the reduced row echelon form of [m | b]: free coordinates
    are 0, and a pivot at or past column m.cols marks an inconsistency.
    """
    if b.rows != m.rows:
        raise ShapeError(f"solve: {m.rows}x{m.cols} matrix against {b.rows}x{b.cols} right-hand side")
    n = m.cols
    pivots = _eliminate(Matrix.hstack([m, b])._num)
    if any(p >= n for p in pivots):
        return None
    num, den = [{} for _ in range(n)], [1] * n
    for p, row in pivots.items():
        d = row[p]
        num[p] = {j - n: x if d > 0 else -x for j, x in row.items() if j >= n}
        den[p] = abs(d)
    return _matrix(b.cols, num, den)


def inverse(m: Matrix) -> Matrix:
    if m.rows != m.cols:
        raise ShapeError("inverse of a non-square matrix")
    inv = solve_columns(m, Matrix.identity(m.rows))
    if inv is None:
        raise ShapeError("matrix is singular")
    return inv


def complete_basis(partial: Matrix) -> tuple[Matrix, list[int]]:
    """Extend independent columns to a full basis of the ambient space.

    Standard basis vectors are tried in index order (lowest first); returns
    the completed square matrix [partial | chosen e_i] and the chosen indices.
    Those are the pivot columns past ``partial`` in the reduced row echelon
    form of [partial | I].
    """
    n, k = partial.rows, partial.cols
    pivots = sorted(_eliminate([{**row, k + r: d} for r, (row, d)
                                in enumerate(zip(partial._num, partial._den))]))
    if pivots[:k] != list(range(k)):
        raise ShapeError("complete_basis expects independent columns")
    chosen = [c - k for c in pivots[k:]]
    return Matrix.hstack([partial, Matrix.identity(n).submatrix(range(n), chosen)]), chosen
