"""The problem-document reader and writer as they stood before the schema table.

``ProblemDocument`` here spells each section twice, once in a ``_build_*``
method and once in ``to_dict``, and resolves references at dump time by
structural equality (``_same_object``).  ``tests/test_document_schema.py``
holds ``morphlie.documents``, which reads and writes every section from one
table, to this copy: equal ``to_dict()`` output, or the same exception class
and message, and equal ``check_document`` rows, on every perturbed document
of its corpus.  Only the package's constructors and the unchanged parsers and
report records are imported; matrices are read here through ``parse_vector``
(every scalar a Fraction), as the package read them before its integer path.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb
from typing import Any, Callable

from morphlie.algebras import (
    LieAlgebra,
    MorphismLieAlgebra,
    MorphismRep,
    Representation,
    check_jacobi,
)
from morphlie.cohomology import MCochain, mla_block_shapes
from morphlie.documents import CheckRow, ShMorphismEntry, located, parse_vector
from morphlie.errors import (
    MorphismAlgebraError,
    ParseError,
    UnknownObject,
    ValidationError,
)
from morphlie.groups import FiniteGroup, GroupModule, GroupModuleTriple
from morphlie.linalg import Matrix, rat_str
from morphlie.shlie import ShMorphism, TwoTermSh

from .oracles import dense_table

SECTIONS = (
    "lie_algebras",
    "representations",
    "morphisms",
    "morphism_reps",
    "cochains",
    "groups",
    "group_modules",
    "group_module_triples",
    "two_term_sh",
    "sh_morphisms",
)


def vector_data(v: list[Fraction]) -> list[str]:
    return [rat_str(x) for x in v]


def matrix_data(m: Matrix) -> list[list[str]]:
    return [[rat_str(x) for x in row] for row in m.to_lists()]


def parse_matrix(value: Any, where: str, rows: int | None = None,
                 cols: int | None = None) -> Matrix:
    if not isinstance(value, list):
        raise ParseError(f"{where}: expected a list of rows")
    if not value:
        if rows not in (0, None) or cols is None:
            raise ParseError(f"{where}: an empty matrix needs known dimensions")
        return Matrix.zeros(0, cols)
    try:
        data = [parse_vector(r, where) for r in value]
    except ParseError:
        for k, r in enumerate(value):
            parse_vector(r, f"{where}[{k}]")
        raise
    widths = {len(r) for r in data}
    if len(widths) != 1:
        raise ParseError(f"{where}: ragged rows")
    m = Matrix.from_rows(data, widths.pop())
    if rows is not None and m.rows != rows:
        raise ParseError(f"{where}: expected {rows} rows, got {m.rows}")
    if cols is not None and m.cols != cols:
        raise ParseError(f"{where}: expected {cols} columns, got {m.cols}")
    return m


def _require_mapping(value: Any, where: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{where}: expected an object")
    return value


def _require_int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(f"{where}: expected an integer")
    return value


def _field(entry: dict, key: str, where: str) -> Any:
    if key not in entry:
        raise ParseError(f"{where}: missing field {key!r}")
    return entry[key]


class ProblemDocument:
    """A named collection of validated algebra objects."""

    def __init__(self) -> None:
        self.lie_algebras: dict[str, LieAlgebra] = {}
        self.representations: dict[str, Representation] = {}
        self.morphisms: dict[str, MorphismLieAlgebra] = {}
        self.morphism_reps: dict[str, MorphismRep] = {}
        self.cochains: dict[str, MCochain] = {}
        self.groups: dict[str, FiniteGroup] = {}
        self.group_modules: dict[str, GroupModule] = {}
        self.group_module_triples: dict[str, GroupModuleTriple] = {}
        self.two_term_sh: dict[str, TwoTermSh] = {}
        self.sh_morphisms: dict[str, ShMorphismEntry] = {}

    # -- loading ----------------------------------------------------------

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
        unknown = set(top) - set(SECTIONS)
        if unknown:
            raise ParseError(f"unknown section {sorted(unknown)[0]!r}")
        rows = []
        builders: list[tuple[str, Callable[[str, Any], Any], dict]] = [
            ("lie_algebras", self._build_lie_algebra, self.lie_algebras),
            ("representations", self._build_representation, self.representations),
            ("morphisms", self._build_morphism, self.morphisms),
            ("morphism_reps", self._build_morphism_rep, self.morphism_reps),
            ("cochains", self._build_cochain, self.cochains),
            ("groups", self._build_group, self.groups),
            ("group_modules", self._build_group_module, self.group_modules),
            ("group_module_triples", self._build_group_module_triple,
             self.group_module_triples),
            ("two_term_sh", self._build_two_term_sh, self.two_term_sh),
            ("sh_morphisms", self._build_sh_morphism, self.sh_morphisms),
        ]
        for section, builder, store in builders:
            entries = _require_mapping(top.get(section, {}), section)
            for name, value in entries.items():
                where = f"{section}/{name}"
                try:
                    store[name] = builder(where, value)
                    rows.append(CheckRow(section, name, True))
                except MorphismAlgebraError as exc:
                    if strict:
                        kind = ParseError if isinstance(exc, ParseError) else ValidationError
                        raise kind(located(where, str(exc))) from exc
                    rows.append(CheckRow(section, name, False, str(exc)))
        return rows

    def _ref(self, store: dict, name: Any, where: str, kind: str):
        if not isinstance(name, str):
            raise ParseError(f"{where}: expected the name of a {kind}")
        if name not in store:
            raise UnknownObject(
                f"{where}: references {kind} {name!r}, which is missing or invalid")
        return store[name]

    def _build_lie_algebra(self, where: str, value: Any) -> LieAlgebra:
        entry = _require_mapping(value, where)
        dim = _require_int(_field(entry, "dim", where), f"{where}.dim")
        brackets = _field(entry, "brackets", where)
        if not isinstance(brackets, list):
            raise ParseError(f"{where}.brackets: expected a list of [i, j, coeffs]")
        table = {}
        for k, item in enumerate(brackets):
            spot = f"{where}.brackets[{k}]"
            if not isinstance(item, list) or len(item) != 3:
                raise ParseError(f"{spot}: expected [i, j, coefficient-list]")
            i = _require_int(item[0], f"{spot}[0]")
            j = _require_int(item[1], f"{spot}[1]")
            if not (0 <= i < dim and 0 <= j < dim):
                raise ParseError(f"{spot}: generator index out of range")
            vector = parse_vector(item[2], f"{spot}[2]", dim)
            if (i, j) in table or (j, i) in table:
                raise ParseError(f"{spot}: the bracket of (e{i+1}, e{j+1}) is given twice")
            table[(i, j)] = vector
        algebra = LieAlgebra.from_brackets(dim, table)
        res = check_jacobi(algebra)
        if not res:
            raise ValidationError(res.detail)
        return algebra

    def _build_representation(self, where: str, value: Any) -> Representation:
        entry = _require_mapping(value, where)
        algebra = self._ref(self.lie_algebras, _field(entry, "algebra", where),
                            where, "Lie algebra")
        dim = _require_int(_field(entry, "dim", where), f"{where}.dim")
        action_data = _field(entry, "action", where)
        if not isinstance(action_data, list) or len(action_data) != algebra.dim:
            raise ParseError(f"{where}.action: need one matrix per generator")
        action = [parse_matrix(a, f"{where}.action[{k}]", dim, dim)
                  for k, a in enumerate(action_data)]
        return Representation(algebra, dim, action)

    def _build_morphism(self, where: str, value: Any) -> MorphismLieAlgebra:
        entry = _require_mapping(value, where)
        g = self._ref(self.lie_algebras, _field(entry, "g", where), where,
                      "Lie algebra")
        h = self._ref(self.lie_algebras, _field(entry, "h", where), where,
                      "Lie algebra")
        phi = parse_matrix(_field(entry, "phi", where), f"{where}.phi",
                           h.dim, g.dim)
        return MorphismLieAlgebra(g, h, phi)

    def _build_morphism_rep(self, where: str, value: Any) -> MorphismRep:
        entry = _require_mapping(value, where)
        base = self._ref(self.morphisms, _field(entry, "morphism", where),
                         where, "morphism")
        v = self._ref(self.representations, _field(entry, "v", where), where,
                      "representation")
        w = self._ref(self.representations, _field(entry, "w", where), where,
                      "representation")
        psi = parse_matrix(_field(entry, "psi", where), f"{where}.psi",
                           w.dim_v, v.dim_v)
        return MorphismRep(base, v, w, psi)

    def _build_cochain(self, where: str, value: Any) -> MCochain:
        entry = _require_mapping(value, where)
        rep = self._ref(self.morphism_reps, _field(entry, "morphism_rep", where),
                        where, "morphism rep")
        degree = _require_int(_field(entry, "degree", where), f"{where}.degree")
        if degree < 0:
            raise ParseError(f"{where}.degree: expected a nonnegative integer")
        if degree == 0:
            return MCochain(rep, 0,
                            v=parse_vector(_field(entry, "v", where),
                                           f"{where}.v", rep.dim_v))
        blocks = {key: parse_matrix(entry[key], f"{where}.{key}", r, c)
                  for key, (r, c) in zip(("theta", "gamma", "eta"),
                                         mla_block_shapes(rep, degree))
                  if key in entry}
        return MCochain(rep, degree, **blocks)

    def _build_group(self, where: str, value: Any) -> FiniteGroup:
        if not isinstance(value, list):
            raise ParseError(f"{where}: expected a multiplication table")
        table = []
        for k, row in enumerate(value):
            if not isinstance(row, list):
                raise ParseError(f"{where}[{k}]: expected a list")
            table.append([_require_int(x, f"{where}[{k}][{j}]")
                          for j, x in enumerate(row)])
        return FiniteGroup(table)

    def _build_group_module(self, where: str, value: Any) -> GroupModule:
        entry = _require_mapping(value, where)
        group = self._ref(self.groups, _field(entry, "group", where), where,
                          "group")
        dim = _require_int(_field(entry, "dim", where), f"{where}.dim")
        action_data = _field(entry, "action", where)
        if not isinstance(action_data, list) or len(action_data) != group.order:
            raise ParseError(f"{where}.action: need one matrix per element")
        action = [parse_matrix(a, f"{where}.action[{k}]", dim, dim)
                  for k, a in enumerate(action_data)]
        return GroupModule(group, dim, action)

    def _build_group_module_triple(self, where: str, value: Any) -> GroupModuleTriple:
        entry = _require_mapping(value, where)
        g = self._ref(self.groups, _field(entry, "g", where), where, "group")
        h = self._ref(self.groups, _field(entry, "h", where), where, "group")
        phi_data = _field(entry, "phi", where)
        if not isinstance(phi_data, list):
            raise ParseError(f"{where}.phi: expected a list of element indices")
        phi = [_require_int(x, f"{where}.phi[{k}]") for k, x in enumerate(phi_data)]
        v = self._ref(self.group_modules, _field(entry, "v", where), where,
                      "group module")
        w = self._ref(self.group_modules, _field(entry, "w", where), where,
                      "group module")
        psi = parse_matrix(_field(entry, "psi", where), f"{where}.psi",
                           w.dim, v.dim)
        return GroupModuleTriple(g, h, phi, v, w, psi)

    def _build_two_term_sh(self, where: str, value: Any) -> TwoTermSh:
        entry = _require_mapping(value, where)
        bracket0 = self._ref(self.lie_algebras, _field(entry, "bracket0", where),
                             where, "Lie algebra")
        d = parse_matrix(_field(entry, "d", where), f"{where}.d",
                         rows=bracket0.dim)
        action_data = _field(entry, "action1", where)
        if not isinstance(action_data, list) or len(action_data) != bracket0.dim:
            raise ParseError(f"{where}.action1: need one matrix per generator")
        action1 = [parse_matrix(a, f"{where}.action1[{k}]", d.cols, d.cols)
                   for k, a in enumerate(action_data)]
        l3 = None
        if "l3" in entry:
            l3 = parse_matrix(entry["l3"], f"{where}.l3", d.cols,
                              comb(bracket0.dim, 3))
        return TwoTermSh(bracket0, action1, d, l3=l3)

    def _build_sh_morphism(self, where: str, value: Any) -> ShMorphismEntry:
        entry = _require_mapping(value, where)
        source_name = _field(entry, "source", where)
        target_name = _field(entry, "target", where)
        src = self._ref(self.two_term_sh, source_name, where, "two-term sh algebra")
        dst = self._ref(self.two_term_sh, target_name, where, "two-term sh algebra")
        phi0 = parse_matrix(_field(entry, "phi0", where), f"{where}.phi0",
                            dst.dim0, src.dim0)
        phi1 = parse_matrix(_field(entry, "phi1", where), f"{where}.phi1",
                            dst.dim1, src.dim1)
        phi2 = parse_matrix(_field(entry, "phi2", where), f"{where}.phi2",
                            dst.dim1, comb(src.dim0, 2))
        return ShMorphismEntry(source_name, target_name,
                               ShMorphism(phi0, phi1, phi2))

    # -- serialization ----------------------------------------------------

    def _name_of(self, store: dict, obj: Any, kind: str) -> str:
        for name, candidate in store.items():
            if candidate is obj:
                return name
        for name, candidate in store.items():
            if _same_object(candidate, obj):
                return name
        raise ValidationError(f"document does not contain the referenced {kind}")

    def to_dict(self) -> dict:
        """A JSON-ready dict with canonical rational strings."""
        out: dict[str, dict] = {}
        if self.lie_algebras:
            out["lie_algebras"] = {
                name: _lie_algebra_data(a) for name, a in self.lie_algebras.items()
            }
        if self.representations:
            out["representations"] = {
                name: {
                    "algebra": self._name_of(self.lie_algebras, r.algebra,
                                             "Lie algebra"),
                    "dim": r.dim_v,
                    "action": [matrix_data(a) for a in r.action],
                }
                for name, r in self.representations.items()
            }
        if self.morphisms:
            out["morphisms"] = {
                name: {
                    "g": self._name_of(self.lie_algebras, m.g, "Lie algebra"),
                    "h": self._name_of(self.lie_algebras, m.h, "Lie algebra"),
                    "phi": matrix_data(m.phi),
                }
                for name, m in self.morphisms.items()
            }
        if self.morphism_reps:
            out["morphism_reps"] = {
                name: {
                    "morphism": self._name_of(self.morphisms, r.base, "morphism"),
                    "v": self._name_of(self.representations, r.v, "representation"),
                    "w": self._name_of(self.representations, r.w, "representation"),
                    "psi": matrix_data(r.psi),
                }
                for name, r in self.morphism_reps.items()
            }
        if self.cochains:
            out["cochains"] = {
                name: self._cochain_data(c) for name, c in self.cochains.items()
            }
        if self.groups:
            out["groups"] = {
                name: [list(row) for row in g.mul] for name, g in self.groups.items()
            }
        if self.group_modules:
            out["group_modules"] = {
                name: {
                    "group": self._name_of(self.groups, m.group, "group"),
                    "dim": m.dim,
                    "action": [matrix_data(a) for a in m.action],
                }
                for name, m in self.group_modules.items()
            }
        if self.group_module_triples:
            out["group_module_triples"] = {
                name: {
                    "g": self._name_of(self.groups, t.g, "group"),
                    "h": self._name_of(self.groups, t.h, "group"),
                    "phi": list(t.phi),
                    "v": self._name_of(self.group_modules, t.v, "group module"),
                    "w": self._name_of(self.group_modules, t.w, "group module"),
                    "psi": matrix_data(t.psi),
                }
                for name, t in self.group_module_triples.items()
            }
        if self.two_term_sh:
            out["two_term_sh"] = {
                name: {
                    "bracket0": self._name_of(self.lie_algebras, t.bracket0,
                                              "Lie algebra"),
                    "d": matrix_data(t.d),
                    "action1": [matrix_data(a) for a in t.action1],
                    "l3": matrix_data(t.l3),
                }
                for name, t in self.two_term_sh.items()
            }
        if self.sh_morphisms:
            out["sh_morphisms"] = {
                name: {
                    "source": e.source,
                    "target": e.target,
                    "phi0": matrix_data(e.morphism.phi0),
                    "phi1": matrix_data(e.morphism.phi1),
                    "phi2": matrix_data(e.morphism.phi2),
                }
                for name, e in self.sh_morphisms.items()
            }
        return out

    def _cochain_data(self, c: MCochain) -> dict:
        rep_name = self._name_of(self.morphism_reps, c.rep, "morphism rep")
        if c.degree == 0:
            return {"morphism_rep": rep_name, "degree": 0, "v": vector_data(c.v)}
        return {
            "morphism_rep": rep_name,
            "degree": c.degree,
            "theta": matrix_data(c.theta),
            "gamma": matrix_data(c.gamma),
            "eta": matrix_data(c.eta),
        }


def _lie_algebra_data(a: LieAlgebra) -> dict:
    brackets, table = [], dense_table(a)
    for i in range(a.dim):
        for j in range(i + 1, a.dim):
            if any(table[i][j]):
                brackets.append([i, j, vector_data(table[i][j])])
    return {"dim": a.dim, "brackets": brackets}


def _same_object(a: Any, b: Any) -> bool:
    """Structural equality for cross-reference resolution at dump time."""
    if isinstance(a, LieAlgebra) and isinstance(b, LieAlgebra):
        return a.dim == b.dim and dense_table(a) == dense_table(b)
    if isinstance(a, Representation) and isinstance(b, Representation):
        return (a.dim_v == b.dim_v and a.action == b.action
                and _same_object(a.algebra, b.algebra))
    if isinstance(a, MorphismLieAlgebra) and isinstance(b, MorphismLieAlgebra):
        return (a.phi == b.phi and _same_object(a.g, b.g)
                and _same_object(a.h, b.h))
    if isinstance(a, FiniteGroup) and isinstance(b, FiniteGroup):
        return a.mul == b.mul
    if isinstance(a, GroupModule) and isinstance(b, GroupModule):
        return (a.dim == b.dim and a.action == b.action
                and _same_object(a.group, b.group))
    if isinstance(a, MorphismRep) and isinstance(b, MorphismRep):
        return (a.psi == b.psi and _same_object(a.base, b.base)
                and _same_object(a.v, b.v) and _same_object(a.w, b.w))
    return a is b
