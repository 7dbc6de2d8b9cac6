"""Exact linear algebra over the rationals.

Everything in this package reduces to ranks and kernels of matrices with
Fraction entries, so this module is deliberately dependency-free: stdlib
fractions supply the canonical reduced p/q scalar type, and every answer is
exact.  Zero-dimensional matrices (0 rows or 0 columns) are first-class
citizens because top-degree cochain spaces are routinely empty.

``Matrix`` stores each row as a dict {column: Fraction} of its nonzero
entries, the only matrix format in the package: the differentials it carries
are a few percent nonzero.  Values stored and returned are Fractions, but
``product_is_zero`` and the one sparse elimination, ``_eliminate``, behind
ranks, determinants, kernels and solutions, work on integer copies of rows
(each times the lcm of its denominators): no gcd or new object per + and *.
For ``rank`` and ``determinant`` the elimination pivots on the shortest row
and, inside it, on the column the fewest rows touch, which keeps fill-in
low.  For ``kernel_basis``, ``solve_columns``, ``inverse`` and
``complete_basis`` it pivots on a row's lowest column and clears it from
every other row; each row divided by its pivot is then the unique reduced
row echelon form, which callers depend on: the kernel basis with one free
column per vector and solutions whose free coordinates are 0.

``Complex`` is the one cochain complex behind every cohomology dimension in
the package: a degree -> differential function with cached ranks, one
d . d = 0 check through ``product_is_zero``, and the rows of a CLI table.
"""

from __future__ import annotations

import heapq
from fractions import Fraction
from math import gcd, lcm, prod
from typing import Callable, ItemsView, Iterable, Mapping, Sequence

from .errors import ShapeError, SizeCeilingExceeded

ZERO = Fraction(0)
ONE = Fraction(1)

Scalar = int | str | Fraction
Number = int | Fraction


def rat(value: Scalar) -> Fraction:
    """Coerce an int, Fraction, or canonical "p/q" string to a Fraction."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return Fraction(value)
    raise TypeError(f"cannot interpret {value!r} as a rational number")


def rat_str(value: Fraction) -> str:
    """Serialize a Fraction as "p" or "p/q" with positive denominator."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


class Matrix:
    """Immutable matrix of Fractions; each row stores only its nonzero entries.

    Row i is a dict {column: entry} holding no zero entry.  Every operation
    that can cancel drops the zeros it makes, so ``==`` and ``is_zero`` can
    compare stored rows directly.
    """

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows: int, cols: int, entries: Iterable[Scalar] = ()):
        if rows < 0 or cols < 0:
            raise ShapeError(f"matrix dimensions must be nonnegative, got {rows}x{cols}")
        self.rows = rows
        self.cols = cols
        data = [rat(x) for x in entries]
        if not data:
            self._rows: list[dict[int, Fraction]] = [{} for _ in range(rows)]
            return
        if len(data) != rows * cols:
            raise ShapeError(f"expected {rows * cols} entries for a {rows}x{cols} matrix, got {len(data)}")
        self._rows = [
            {j: x for j, x in enumerate(data[i * cols:(i + 1) * cols]) if x}
            for i in range(rows)]

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
        flat: list[Scalar] = []
        for r in rows:
            if len(r) != width:
                raise ShapeError("ragged rows")
            flat.extend(r)
        return cls(n, width, flat)

    @classmethod
    def from_dicts(cls, rows: Sequence[Mapping[int, Scalar]], cols: int) -> Matrix:
        """The matrix whose row i has the entries {column: value} of rows[i].

        Zero values are dropped; a column outside range(cols) is a ShapeError.
        """
        out = cls(len(rows), cols)
        for stored, row in zip(out._rows, rows):
            for j, x in row.items():
                if not 0 <= j < cols:
                    raise ShapeError(f"column {j} outside a matrix with {cols} columns")
                if x := rat(x):
                    stored[j] = x
        return out

    @classmethod
    def lincomb(cls, terms: Iterable[tuple[Scalar, Matrix]], rows: int, cols: int) -> Matrix:
        """The rows x cols matrix sum c * m over (c, m) in terms; cancelled entries are dropped."""
        out = cls(rows, cols)
        for c, m in terms:
            if m.rows != rows or m.cols != cols:
                raise ShapeError(f"shape mismatch: {rows}x{cols} vs {m.rows}x{m.cols}")
            if not (c := rat(c)):
                continue
            unit = c == ONE
            for row, part in zip(out._rows, m._rows):
                for j, x in part.items():
                    if not unit:
                        x = c * x
                    if (y := row.get(j)) is None:
                        row[j] = x
                    elif y := y + x:
                        row[j] = y
                    else:
                        del row[j]
        return out

    @classmethod
    def zeros(cls, rows: int, cols: int) -> Matrix:
        return cls(rows, cols)

    @classmethod
    def identity(cls, n: int) -> Matrix:
        return cls.from_dicts([{i: ONE} for i in range(n)], n)

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
        out = cls(rows, sum(b.cols for b in blocks))
        offset = 0
        for b in blocks:
            for row, part in zip(out._rows, b._rows):
                for j, x in part.items():
                    row[offset + j] = x
            offset += b.cols
        return out

    @classmethod
    def vstack(cls, blocks: Sequence[Matrix]) -> Matrix:
        if not blocks:
            raise ShapeError("vstack of no blocks")
        cols = blocks[0].cols
        if any(b.cols != cols for b in blocks):
            raise ShapeError("vstack blocks disagree on column count")
        out = cls(sum(b.rows for b in blocks), cols)
        out._rows = [dict(row) for b in blocks for row in b._rows]
        return out

    @classmethod
    def block(cls, grid: Sequence[Sequence[Matrix]]) -> Matrix:
        return cls.vstack([cls.hstack(row) for row in grid])

    def __getitem__(self, key: tuple[int, int]) -> Fraction:
        i, j = key
        if not -self.cols <= j < self.cols:
            raise IndexError("matrix column index out of range")
        return self._rows[i].get(j % self.cols, ZERO)

    def row(self, i: int) -> list[Fraction]:
        out = [ZERO] * self.cols
        for j, x in self._rows[i].items():
            out[j] = x
        return out

    def row_items(self, i: int) -> ItemsView[int, Fraction]:
        """The (column, entry) pairs of row i's nonzero entries, read-only."""
        return self._rows[i].items()

    def col(self, j: int) -> list[Fraction]:
        return [self[i, j] for i in range(self.rows)]

    def to_lists(self) -> list[list[Fraction]]:
        return [self.row(i) for i in range(self.rows)]

    def transpose(self) -> Matrix:
        out = Matrix(self.cols, self.rows)
        for i, row in enumerate(self._rows):
            for j, x in row.items():
                out._rows[j][i] = x
        return out

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows and self.cols == other.cols and self._rows == other._rows

    def __add__(self, other: Matrix) -> Matrix:
        return Matrix.lincomb(((ONE, self), (ONE, other)), self.rows, self.cols)

    def __sub__(self, other: Matrix) -> Matrix:
        return Matrix.lincomb(((ONE, self), (-ONE, other)), self.rows, self.cols)

    def __neg__(self) -> Matrix:
        return self.scale(-ONE)

    def scale(self, c: Scalar) -> Matrix:
        c = rat(c)
        out = Matrix(self.rows, self.cols)
        if c:
            out._rows = [{j: c * x for j, x in row.items()} for row in self._rows]
        return out

    def __mul__(self, other: Matrix) -> Matrix:
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.cols != other.rows:
            raise ShapeError(f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}")
        out = Matrix(self.rows, other.cols)
        out._rows = [_row_times(row, other._rows) for row in self._rows]
        return out

    def apply(self, vector: Sequence[Scalar]) -> list[Fraction]:
        """Multiply by a coordinate vector, returning a plain list.

        Only the vector's nonzero entries are read: each row is matched
        against them from whichever of the two is shorter.
        """
        if len(vector) != self.cols:
            raise ShapeError(f"vector of length {len(vector)} against {self.rows}x{self.cols} matrix")
        vec = {j: rat(x) for j, x in enumerate(vector) if x}
        out = []
        for row in self._rows:
            short, long = (row, vec) if len(row) < len(vec) else (vec, row)
            acc = ZERO
            for j, x in short.items():
                if (y := long.get(j)) is not None:
                    acc += x * y
            out.append(acc)
        return out

    def submatrix(self, row_idx: Sequence[int], col_idx: Sequence[int]) -> Matrix:
        targets: dict[int, list[int]] = {}
        for a, j in enumerate(col_idx):
            targets.setdefault(j, []).append(a)
        out = Matrix(len(row_idx), len(col_idx))
        for row, i in zip(out._rows, row_idx):
            for j, x in self._rows[i].items():
                for a in targets.get(j, ()):
                    row[a] = x
        return out

    def is_zero(self) -> bool:
        return not any(self._rows)

    def first_nonzero_col(self) -> int | None:
        """The lowest column holding a nonzero entry; None for a zero matrix."""
        return min((min(row) for row in self._rows if row), default=None)

    def __repr__(self) -> str:
        if self.rows * self.cols <= 12:
            body = "; ".join(" ".join(rat_str(x) for x in r) for r in self.to_lists())
            return f"Matrix({self.rows}x{self.cols}: {body})"
        return f"Matrix({self.rows}x{self.cols})"


def _row_times(row: Mapping[int, Number], rows: Sequence[Mapping[int, Number]]) -> dict[int, Number]:
    """The nonzero entries of row . M, for M stored as ``rows``; ints stay ints."""
    acc: dict[int, Number] = {}
    for k, x in row.items():
        for j, y in rows[k].items():
            acc[j] = acc[j] + x * y if j in acc else x * y
    return {j: x for j, x in acc.items() if x}


def _denominator(row: Mapping[int, Fraction]) -> int:
    """The lcm of the denominators of a row's entries."""
    return lcm(*(x.denominator for x in row.values()))


def _integer_row(row: Mapping[int, Fraction], d: int) -> dict[int, int]:
    """``row`` times d as exact integers; d is a multiple of its denominators."""
    if d == 1:
        return {j: x.numerator for j, x in row.items()}
    return {j: x.numerator * (d // x.denominator) for j, x in row.items()}


def _eliminate(rows: Iterable[Mapping[int, Fraction]], reduce: bool
               ) -> tuple[dict[int, tuple[int, dict[int, int]]], list[tuple[int, int]]]:
    """Sparse exact elimination on integer copies of ``rows``.

    Returns {pivot column: (row index, integer row)} and the scalings (m, q)
    made, each a row multiplied by m and divided by q.  A row enters times the
    lcm of its denominators and is divided by its content on becoming a pivot
    row.  Clearing pivot p from a row with entry f makes it (p/g) row - (f/g)
    pivot row, g = gcd(p, f) with p's sign: each row stays a positive multiple
    of the row a Fraction elimination would hold, with the same fill-in.
    A lazy heap yields the shortest live row; a column index records the rows
    touching each column.  Rank mode pivots at the row's column the fewest
    other live rows touch (ties to the lowest) and clears it from live rows.
    With ``reduce`` the row pivots at its lowest column and pivot rows are
    cleared too: divided by their pivots they end as the unique reduced row
    echelon form.
    """
    work = {i: _integer_row(row, _denominator(row)) for i, row in enumerate(rows) if row}
    live = set(work)
    touching: dict[int, set[int]] = {}
    for i, row in work.items():
        for j in row:
            touching.setdefault(j, set()).add(i)
    queue = [(len(row), i) for i, row in work.items()]
    heapq.heapify(queue)
    pivots: dict[int, tuple[int, dict[int, int]]] = {}
    scalings: list[tuple[int, int]] = []
    while live:
        length, i = heapq.heappop(queue)
        row = work[i]
        if i not in live or len(row) != length:
            continue
        live.discard(i)
        if (q := gcd(*row.values())) != 1:
            scalings.append((1, q))
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
        pivots[c] = (i, row)
        if not targets:
            continue
        pivot = row.pop(c)
        for k in targets:
            other = work[k]
            f = other.pop(c)
            g = gcd(pivot, f) if pivot > 0 else -gcd(pivot, f)
            m, f = pivot // g, -f // g
            if m != 1:
                scalings.append((m, 1))
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
    return pivots, scalings


def rank(m: Matrix) -> int:
    """Exact rank: the number of pivots of the sparse elimination."""
    return len(_eliminate(m._rows, reduce=False)[0])


def product_is_zero(a: Matrix, b: Matrix) -> bool:
    """Whether a * b is the zero matrix.

    Multiplies integer rows, a's each times its denominators' lcm and b's by
    one common one; stops at the first nonzero row of the product, unformed.
    """
    if a.cols != b.rows:
        raise ShapeError(f"cannot multiply {a.rows}x{a.cols} by {b.rows}x{b.cols}")
    d = lcm(*map(_denominator, b._rows))
    right = [_integer_row(row, d) for row in b._rows]
    return not any(_row_times(_integer_row(row, _denominator(row)), right) for row in a._rows)


class Complex:
    """A cochain complex given degree by degree: H^n = ker d_n / im d_{n-1}.

    ``dim(n)`` is dim C^n and ``differential(n)`` builds d_n: C^n -> C^{n+1}.
    Ranks are cached.  A differential is refused before it is built if
    max(dim C^n, dim C^{n+1}) exceeds ``size_ceiling``, is built once, and is
    held only while a neighbouring degree may still need it: building d_n
    drops every held matrix but d_{n-1} and d_{n+1}.  ``keep(n)`` lists the
    columns of d_n that the simple variant keeps (n >= 1; s_0 = d_0).  Every
    dimension is reported only after d_n . d_{n-1} = 0 has been checked.
    """

    def __init__(self, dim: Callable[[int], int],
                 differential: Callable[[int], Matrix], name: str,
                 size_ceiling: int | None = None,
                 keep: Callable[[int], Sequence[int]] | None = None):
        self.dim = dim
        self.differential = differential
        self.name = name
        self.size_ceiling = size_ceiling
        self.keep = keep
        self._held: dict[int, Matrix] = {}
        self._ranks: dict[tuple[int, bool], int] = {}
        self._verified: set[int] = set()

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
        if n < 0:
            return 0
        if (n, simple) not in self._ranks:
            d = self.matrix(n)
            self._ranks[n, simple] = rank(
                d.submatrix(range(d.rows), self.keep(n)) if simple else d)
        return self._ranks[n, simple]

    def verify(self, n: int) -> None:
        """Raise AssertionError unless d_n . d_{n-1} = 0."""
        if n <= 0 or n in self._verified:
            return
        prev = self.matrix(n - 1)
        if not product_is_zero(self.matrix(n), prev):
            raise AssertionError(f"{self.name} differential does not square to zero")
        self._verified.add(n)

    def dim_H(self, n: int, simple: bool = False) -> int:
        """dim C^n - rank d_n - rank d_{n-1}, or rank s_{n-1} with ``simple``."""
        if n < 0:
            return 0
        self._refuse(n - 1, n + 1)
        if self.dim(n) == 0:
            return 0
        self.verify(n)
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


def kernel_basis(m: Matrix) -> Matrix:
    """Columns spanning ker(m); a 0xN matrix has the full N-dim kernel.

    Free column f of the reduced row echelon form gives 1 at f, 0 at the
    other free columns, and minus the reduced rows' entries at f on pivots.
    """
    pivots, _ = _eliminate(m._rows, reduce=True)
    free = {f: k for k, f in enumerate(c for c in range(m.cols) if c not in pivots)}
    out = Matrix(m.cols, len(free))
    for f, k in free.items():
        out._rows[f][k] = ONE
    for p, (_, row) in pivots.items():
        out._rows[p] = {free[j]: Fraction(-x, row[p]) for j, x in row.items() if j != p}
    return out


def solve(m: Matrix, b: Matrix) -> Matrix | None:
    """One exact solution x of m x = b (free coordinates 0), or None."""
    if b.cols != 1:
        raise ShapeError("solve expects a single right-hand column; see solve_columns")
    return solve_columns(m, b)


def solve_columns(m: Matrix, b: Matrix) -> Matrix | None:
    """Solve m X = b for every column of b at once; None if any fails.

    Reads X off the reduced row echelon form of [m | b]: free coordinates
    are 0, and a pivot at or past column m.cols marks an inconsistency.
    """
    if b.rows != m.rows:
        raise ShapeError(f"solve: {m.rows}x{m.cols} matrix against {b.rows}x{b.cols} right-hand side")
    n = m.cols
    aug = [{**row, **{n + j: x for j, x in rhs.items()}} for row, rhs in zip(m._rows, b._rows)]
    pivots, _ = _eliminate(aug, reduce=True)
    if any(p >= n for p in pivots):
        return None
    out = Matrix(n, b.cols)
    for p, (_, row) in pivots.items():
        out._rows[p] = {j - n: Fraction(x, row[p]) for j, x in row.items() if j >= n}
    return out


def determinant(m: Matrix) -> Fraction:
    """Product of the rank-mode pivots, times the sign of row -> pivot column.

    Elimination adds only multiples of pivot rows, and a pivot row is zero on
    earlier pivot columns, so the pivot rows form a permuted triangular matrix;
    the integer pivots are divided by the scalings that made them integers.
    """
    if m.rows != m.cols:
        raise ShapeError("determinant of a non-square matrix")
    pivots, scalings = _eliminate(m._rows, reduce=False)
    if len(pivots) < m.rows:
        return ZERO
    num, den = 1, prod(map(_denominator, m._rows))
    column = [0] * m.rows
    for c, (i, row) in pivots.items():
        num *= row[c]
        column[i] = c
    for grown, shrunk in scalings:
        num *= shrunk
        den *= grown
    for i in range(m.rows):
        while (c := column[i]) != i:
            column[i], column[c] = column[c], c
            num = -num
    return Fraction(num, den)


def is_invertible(m: Matrix) -> bool:
    return m.rows == m.cols and rank(m) == m.rows


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
    pivots = sorted(_eliminate([{**row, k + r: ONE} for r, row in enumerate(partial._rows)],
                               reduce=True)[0])
    if pivots[:k] != list(range(k)):
        raise ShapeError("complete_basis expects independent columns")
    chosen = [c - k for c in pivots[k:]]
    return Matrix.hstack([partial, Matrix.identity(n).submatrix(range(n), chosen)]), chosen
