"""Problem documents: JSON-compatible files describing algebra problems.

A document is a JSON object of named sections.  ``KINDS`` is its schema: the
sections in dependency order, each with its constructor and fields, which
both the loader and the serializer walk.  Scalars are canonical rational
strings "p/q" (plain integers are accepted); floating point is rejected to
keep the pipeline exact.  Generator and group element indices are 0-based.
Every object passes its module's construction checks at load time, so a
loaded document is valid by construction.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import comb, gcd
from typing import Any, Callable

from .algebras import LieAlgebra, MorphismLieAlgebra, MorphismRep, Representation, check_jacobi
from .cohomology import MCochain, mla_block_shapes
from .errors import MorphismAlgebraError, ParseError, UnknownObject, ValidationError
from .groups import FiniteGroup, GroupModule, GroupModuleTriple
from .linalg import Matrix, ZERO, _matrix, _ratio, rat_str
from .shlie import ShMorphism, TwoTermSh


def parse_scalar(value: Any, where: str) -> Fraction:
    """A rational from a document scalar: an int or a 'p/q' string."""
    if isinstance(value, bool):
        raise ParseError(f"{where}: booleans are not scalars")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise ParseError(f"{where}: floating point is not accepted; "
                         "write rationals as 'p/q' strings")
    if isinstance(value, str):
        text = value.strip()
        if "/" in text and text.endswith("/0"):
            raise ParseError(f"{where}: zero denominator in {text!r}")
        try:
            ratio = _ratio(text)
        except ValueError as exc:  # past Python's integer digit limit
            raise ParseError(f"{where}: a rational of {len(text)} characters "
                             "is too long to read") from exc
        if ratio is None:
            raise ParseError(f"{where}: {text!r} is not a rational 'p/q' string")
        return Fraction(*ratio)
    raise ParseError(f"{where}: expected a rational, got {type(value).__name__}")


def parse_vector(value: Any, where: str, length: int | None = None) -> list[Fraction]:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list of scalars")
    try:
        out = [ZERO if x == "0" or (x == 0 and type(x) is int) else parse_scalar(x, where)
               for x in value]
    except ParseError:
        for k, x in enumerate(value):  # only a failure pays for the entry's location
            parse_scalar(x, f"{where}[{k}]")
        raise
    if length is not None and len(out) != length:
        raise ParseError(f"{where}: expected {length} entries, got {len(out)}")
    return out


def parse_matrix(value: Any, where: str, rows: int | None = None,
                 cols: int | None = None) -> Matrix:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list of rows")
    if not value:
        if rows not in (0, None) or cols is None:
            raise ParseError(f"{where}: an empty matrix needs known dimensions")
        return Matrix.zeros(0, cols)
    num, den = [], []
    for i, values in enumerate(value):
        row, d = _integer_row(values, where, i)
        num.append(row)
        den.append(d)
    widths = {len(r) for r in value}
    if len(widths) != 1:
        raise ParseError(f"{where}: ragged rows")
    m = _matrix(widths.pop(), num, den)
    if rows is not None and m.rows != rows:
        raise ParseError(f"{where}: expected {rows} rows, got {m.rows}")
    if cols is not None and m.cols != cols:
        raise ParseError(f"{where}: expected {cols} columns, got {m.cols}")
    return m


def _integer_row(values: Any, where: str, i: int) -> tuple[dict[int, int], int]:
    """Row ``where[i]``, a list of scalars, as {index: numerator} of its nonzero entries.

    The numerators are over one returned denominator.  Ints, and strings
    "p" or "p/q" of ``_ratio`` under 100 characters, are read as integers,
    any other scalar through parse_scalar.  A failure names
    ``where[i][j]``, or ``where[i]`` if values is not a list.
    """
    if not isinstance(values, list):
        raise ParseError(f"{where}[{i}]: expected a list of scalars")
    row, d = {}, 1
    for j, x in enumerate(values) if values.count("0") != len(values) else ():
        if x == "0":
            continue
        if type(x) is int:
            p, q = x, 1
        elif type(x) is str and len(x) < 100 and (ratio := _ratio(x)):
            p, q = ratio
        else:
            p, q = parse_scalar(x, f"{where}[{i}][{j}]").as_integer_ratio()
        if not p:
            continue
        if d % q:
            f = q // gcd(d, q)
            for k in row:
                row[k] *= f
            d *= f
        row[j] = p * (d // q)
    return row, d


def _require_mapping(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected an object")
    return value


def _require_int(value: Any, where: str, nonnegative: bool = False) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer")
    if nonnegative and value < 0:
        raise ParseError(f"{where}: expected a nonnegative integer")
    return value


def _items(value: Any, where: str, what: str):
    """The (index, item) pairs of value, which must be a list."""
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected {what}")
    return enumerate(value)


def _ints(value: Any, where: str, what: str = "a list") -> list[int]:
    return [_require_int(x, f"{where}[{k}]") for k, x in _items(value, where, what)]


def _brackets(value: Any, where: str, dim: int) -> tuple[list[tuple[int, int]], Matrix]:
    """The pairs (i, j) of a list of [i, j, coefficients], and their brackets as matrix rows."""
    pairs, rows, dens, seen = [], [], [], set()
    for k, item in _items(value, where, "a list of [i, j, coeffs]"):
        spot = f"{where}[{k}]"
        if not isinstance(item, list) or len(item) != 3:
            raise ParseError(f"{spot}: expected [i, j, coefficient-list]")
        i = _require_int(item[0], f"{spot}[0]")
        j = _require_int(item[1], f"{spot}[1]")
        if not (0 <= i < dim and 0 <= j < dim):
            raise ParseError(f"{spot}: generator index out of range")
        row, d = _integer_row(item[2], spot, 2)
        if len(item[2]) != dim:
            raise ParseError(f"{spot}[2]: expected {dim} entries, got {len(item[2])}")
        if (i, j) in seen:
            raise ParseError(f"{spot}: the bracket of (e{i+1}, e{j+1}) is given twice")
        seen.update(((i, j), (j, i)))
        pairs.append((i, j))
        rows.append(row)
        dens.append(d)
    return pairs, _matrix(dim, rows, dens)


def _brackets_data(a: LieAlgebra) -> list:
    """[i, j, coefficients] for each nonzero bracket [e_i, e_j] with i < j."""
    pairs = [(i, j) for i in range(a.dim) for j in range(i + 1, a.dim) if a.nonzero[i][j]]
    rows = Matrix.from_integer_rows([dict(a.nonzero[i][j]) for i, j in pairs], a.dim, a.den)
    return [[i, j, line] for (i, j), line in zip(pairs, rows.strings())]


class _Record:
    """A record of the fields in ``__slots__``, read, compared and ``_asdict``-ed as a tuple."""

    __slots__ = ()

    def __iter__(self):
        return (getattr(self, key) for key in self.__slots__)

    def __eq__(self, other: object) -> bool:
        return tuple(self) == (tuple(other) if isinstance(other, _Record) else other)

    def _asdict(self) -> dict:
        return dict(zip(self.__slots__, self))


class ShMorphismEntry(_Record):
    """A named sh morphism together with its source and target names."""

    __slots__ = ("source", "target", "morphism")

    def __init__(self, source: str, target: str, morphism: ShMorphism):
        self.source, self.target, self.morphism = source, target, morphism


def located(where: str, msg: str) -> str:
    """msg prefixed with the object path ``where``, unless msg already starts with it."""
    return msg if msg.startswith(where) else f"{where}: {msg}"


class CheckRow(_Record):
    """One line of a validation report."""

    __slots__ = ("section", "name", "ok", "detail")

    def __init__(self, section: str, name: str, ok: bool, detail: str = ""):
        self.section, self.name, self.ok, self.detail = section, name, ok, detail


# -- the schema ---------------------------------------------------------------


class FieldKind:
    """A field's reader ``read(doc, value, where, *shape)`` and writer ``write(doc, value)``.

    A reference names the section it points into; its errors name the entry,
    and with ``by_name`` the constructor gets the name, not the object.
    """

    __slots__ = ("read", "write", "ref", "by_name")

    def __init__(self, read: Callable[..., Any], write: Callable[[Any, Any], Any],
                 ref: str | None = None, by_name: bool = False):
        self.read, self.write, self.ref, self.by_name = read, write, ref, by_name


def _plain(read: Callable[..., Any],
           write: Callable[[Any], Any] = lambda value: value) -> FieldKind:
    """A kind whose reader and writer do not look at the document."""
    return FieldKind(lambda doc, value, where, *shape: read(value, where, *shape),
                     lambda doc, value: write(value))


def _ref(section: str, by_name: bool = False) -> FieldKind:
    """The name of an entry of an earlier section."""
    def read(doc: ProblemDocument, name: Any, where: str) -> Any:
        label = KINDS[section].label
        if not isinstance(name, str):
            raise ParseError(f"{where}: expected the name of a {label}")
        if name not in (store := getattr(doc, section)):
            raise UnknownObject(f"{where}: references {label} {name!r}, which is missing or invalid")
        return store[name]

    write = (lambda doc, name: name) if by_name else (lambda doc, obj: doc._name_of(section, obj))
    return FieldKind(read, write, section, by_name)


def _matrix_list(per: str) -> FieldKind:
    """One matrix per generator or group element."""
    def read(value: Any, where: str, count: int, rows: int, cols: int) -> list[Matrix]:
        if not isinstance(value, list) or len(value) != count:
            raise ParseError(f"{where}: need one matrix per {per}")
        return [parse_matrix(a, f"{where}[{k}]", rows, cols) for k, a in enumerate(value)]

    return _plain(read, lambda ms: [m.strings() for m in ms])


INT = _plain(_require_int)
NONNEGATIVE_INT = _plain(lambda value, where: _require_int(value, where, nonnegative=True))
VECTOR = _plain(parse_vector, lambda v: [rat_str(x) for x in v])
MATRIX = _plain(parse_matrix, Matrix.strings)
INT_LIST = _plain(lambda value, where: _ints(value, where, "a list of element indices"), list)
TABLE = _plain(lambda value, where: [_ints(row, f"{where}[{k}]") for k, row
                                     in _items(value, where, "a multiplication table")],
               lambda mul: [list(row) for row in mul])
BRACKETS = _plain(_brackets, _brackets_data)


class Field:
    """A field of an entry (the key None is the entry itself) and its accessor ``get``.

    ``shape`` (the reader's sizes) and ``when`` (read and write the field only
    if it holds) see the entry's earlier values by key; ``optional`` may be absent.
    """

    __slots__ = ("key", "kind", "get", "shape", "when", "optional")

    def __init__(self, key: str | None, kind: FieldKind, get: Callable[[Any], Any],
                 shape: Callable[[dict], tuple] = lambda got: (),
                 when: Callable[[dict], bool] = lambda got: True, optional: bool = False):
        self.key, self.kind, self.get, self.shape, self.when, self.optional = (
            key, kind, get, shape, when, optional)


class Section:
    """A label for messages, the fields, and ``make``: one argument per field, None if unread."""

    __slots__ = ("label", "make", "fields")

    def __init__(self, label: str, make: Callable[..., Any], fields: tuple[Field, ...]):
        self.label, self.make, self.fields = label, make, fields


def _lie_algebra(dim: int, brackets: tuple[list[tuple[int, int]], Matrix]) -> LieAlgebra:
    algebra = LieAlgebra.from_bracket_rows(dim, *brackets)
    if not (res := check_jacobi(algebra)):
        raise ValidationError(res.detail)
    return algebra


KINDS: dict[str, Section] = {
    "lie_algebras": Section("Lie algebra", _lie_algebra, (
        Field("dim", INT, lambda a: a.dim),
        Field("brackets", BRACKETS, lambda a: a, lambda f: (f["dim"],)),
    )),
    "representations": Section("representation", Representation, (
        Field("algebra", _ref("lie_algebras"), lambda r: r.algebra),
        Field("dim", INT, lambda r: r.dim_v),
        Field("action", _matrix_list("generator"), lambda r: r.action,
              lambda f: (f["algebra"].dim, f["dim"], f["dim"])),
    )),
    "morphisms": Section("morphism", MorphismLieAlgebra, (
        Field("g", _ref("lie_algebras"), lambda m: m.g),
        Field("h", _ref("lie_algebras"), lambda m: m.h),
        Field("phi", MATRIX, lambda m: m.phi, lambda f: (f["h"].dim, f["g"].dim)),
    )),
    "morphism_reps": Section("morphism rep", MorphismRep, (
        Field("morphism", _ref("morphisms"), lambda r: r.base),
        Field("v", _ref("representations"), lambda r: r.v),
        Field("w", _ref("representations"), lambda r: r.w),
        Field("psi", MATRIX, lambda r: r.psi, lambda f: (f["w"].dim_v, f["v"].dim_v)),
    )),
    "cochains": Section("cochain", lambda rep, degree, v, theta, gamma, eta:
                        MCochain(rep, degree, theta, gamma, eta, v), (
        Field("morphism_rep", _ref("morphism_reps"), lambda c: c.rep),
        Field("degree", NONNEGATIVE_INT, lambda c: c.degree),
        Field("v", VECTOR, lambda c: c.v, lambda f: (f["morphism_rep"].dim_v,),
              lambda f: f["degree"] == 0),
        # theta, gamma and eta in positive degree; a block left out is zero.
        *(Field(key, MATRIX, lambda c, key=key: getattr(c, key),
                lambda f, k=k: mla_block_shapes(f["morphism_rep"], f["degree"])[k],
                lambda f: f["degree"] > 0, optional=True)
          for k, key in enumerate(("theta", "gamma", "eta"))),
    )),
    "groups": Section("group", FiniteGroup, (Field(None, TABLE, lambda g: g.mul),)),
    "group_modules": Section("group module", GroupModule, (
        Field("group", _ref("groups"), lambda m: m.group),
        Field("dim", INT, lambda m: m.dim),
        Field("action", _matrix_list("element"), lambda m: m.action,
              lambda f: (f["group"].order, f["dim"], f["dim"])),
    )),
    "group_module_triples": Section("group module triple", GroupModuleTriple, (
        Field("g", _ref("groups"), lambda t: t.g),
        Field("h", _ref("groups"), lambda t: t.h),
        Field("phi", INT_LIST, lambda t: t.phi),
        Field("v", _ref("group_modules"), lambda t: t.v),
        Field("w", _ref("group_modules"), lambda t: t.w),
        Field("psi", MATRIX, lambda t: t.psi, lambda f: (f["w"].dim, f["v"].dim)),
    )),
    "two_term_sh": Section("two-term sh algebra", lambda bracket0, d, action1, l3:
                           TwoTermSh(bracket0, action1, d, l3), (
        Field("bracket0", _ref("lie_algebras"), lambda t: t.bracket0),
        Field("d", MATRIX, lambda t: t.d, lambda f: (f["bracket0"].dim, None)),
        Field("action1", _matrix_list("generator"), lambda t: t.action1,
              lambda f: (f["bracket0"].dim, f["d"].cols, f["d"].cols)),
        Field("l3", MATRIX, lambda t: t.l3,
              lambda f: (f["d"].cols, comb(f["bracket0"].dim, 3)), optional=True),
    )),
    # An sh morphism records its source and target by name.
    "sh_morphisms": Section("sh morphism", lambda source, target, phi0, phi1, phi2:
                            ShMorphismEntry(source, target, ShMorphism(phi0, phi1, phi2)), (
        Field("source", _ref("two_term_sh", by_name=True), lambda e: e.source),
        Field("target", _ref("two_term_sh", by_name=True), lambda e: e.target),
        Field("phi0", MATRIX, lambda e: e.morphism.phi0,
              lambda f: (f["target"].dim0, f["source"].dim0)),
        Field("phi1", MATRIX, lambda e: e.morphism.phi1,
              lambda f: (f["target"].dim1, f["source"].dim1)),
        Field("phi2", MATRIX, lambda e: e.morphism.phi2,
              lambda f: (f["target"].dim1, comb(f["source"].dim0, 2))),
    )),
}


class ProblemDocument:
    """A named collection of validated algebra objects, one dict per section of KINDS."""

    def __init__(self) -> None:
        for section in KINDS:
            setattr(self, section, {})

    @classmethod
    def loads(cls, text: str) -> ProblemDocument:
        return cls.from_dict(_decode(text))

    @classmethod
    def load(cls, path: str) -> ProblemDocument:
        with open(path, encoding="utf-8") as fh:
            return cls.loads(fh.read())

    @classmethod
    def from_dict(cls, data: Any) -> ProblemDocument:
        """Build and validate every object; raise on the first failure.

        A malformed entry raises ParseError, any other failure ValidationError.
        """
        doc = cls()
        doc._build(data, strict=True)
        return doc

    def _build(self, data: Any, strict: bool = False) -> list[CheckRow]:
        """Construct all objects in dependency order, one report row each."""
        top = _require_mapping(data, "document")
        unknown = set(top) - set(KINDS)
        if unknown:
            raise ParseError(f"unknown section {sorted(unknown)[0]!r}")
        rows = []
        for section in KINDS:
            store = getattr(self, section)
            for name, value in _require_mapping(top.get(section, {}), section).items():
                where = f"{section}/{name}"
                try:
                    store[name] = self._read(section, value, where)
                    rows.append(CheckRow(section, name, True))
                except MorphismAlgebraError as exc:
                    if strict:
                        kind = ParseError if isinstance(exc, ParseError) else ValidationError
                        raise kind(located(where, str(exc))) from exc
                    rows.append(CheckRow(section, name, False, str(exc)))
        return rows

    def _read(self, section: str, value: Any, where: str) -> Any:
        """One entry, read field by field and handed to its section's constructor."""
        fields = KINDS[section].fields
        entry = {None: value} if fields[0].key is None else _require_mapping(value, where)
        got, args = {}, []
        for f in fields:
            if not f.when(got) or (f.optional and f.key not in entry):
                args.append(None)
                continue
            if f.key not in entry:
                raise ParseError(f"{where}: missing field {f.key!r}")
            raw = entry[f.key]
            spot = where if f.key is None or f.kind.ref else f"{where}.{f.key}"
            got[f.key] = f.kind.read(self, raw, spot, *f.shape(got))
            args.append(raw if f.kind.by_name else got[f.key])
        return KINDS[section].make(*args)

    def _write(self, section: str, obj: Any, deep: bool = False) -> Any:
        """The entry of obj; deep writes each reference as its object's entry."""
        got, entry = {}, {}
        for f in KINDS[section].fields:
            if f.when(got):
                got[f.key] = value = f.get(obj)
                entry[f.key] = (self._write(f.kind.ref, value, True) if deep and f.kind.ref
                                else f.kind.write(self, value))
        return entry[None] if None in entry else entry

    def _name_of(self, section: str, obj: Any) -> str:
        """The entry that is obj, else the first one that writes the same data."""
        store = getattr(self, section)
        for name, candidate in store.items():
            if candidate is obj:
                return name
        data = self._write(section, obj, deep=True)
        for name, candidate in store.items():
            if self._write(section, candidate, deep=True) == data:
                return name
        raise ValidationError(f"document does not contain the referenced {KINDS[section].label}")

    def to_dict(self) -> dict:
        """A JSON-ready dict with canonical rational strings."""
        return {section: {name: self._write(section, obj) for name, obj in store.items()}
                for section in KINDS if (store := getattr(self, section))}

    def dumps(self) -> str:
        return _json(self.to_dict())

    def dump(self, path: str) -> None:
        """Write dumps() and a newline; a failing dumps() leaves ``path`` as it was."""
        data = (self.dumps() + "\n").encode("ascii")
        with open(path, "wb") as fh:
            fh.write(data)


def check_document(text: str) -> list[CheckRow]:
    """Validation rows for every object in a document, lenient mode."""
    return ProblemDocument()._build(_decode(text))


def _json(value: Any, newline: str = "\n") -> str:
    """json.dumps(value, indent=2) of dicts, lists, strings and ints, without its Python encoder."""
    if type(value) is str:
        return encode_basestring_ascii(value)
    if isinstance(value, int) or not value:
        return json.dumps(value)
    inner = newline + "  "
    if type(value) is dict:
        items = [f"{encode_basestring_ascii(k)}: {_json(v, inner)}" for k, v in value.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    items = [encode_basestring_ascii(v) if type(v) is str else _json(v, inner) for v in value]
    return "[" + inner + ("," + inner).join(items) + newline + "]"


def _decode(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except (ValueError, RecursionError) as exc:
        # An integer past Python's digit limit, or nesting past the stack.
        raise ParseError(f"cannot decode the document: {exc}") from exc
