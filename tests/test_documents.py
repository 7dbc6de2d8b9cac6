"""Tests for problem document parsing, validation, and serialization."""

import json
import random
import re
from fractions import Fraction
from math import gcd

import pytest

from morphlie.algebras import LieAlgebra, MorphismLieAlgebra, MorphismRep
from morphlie.documents import (
    ProblemDocument,
    _ratio,
    check_document,
    parse_matrix,
    parse_scalar,
    parse_vector,
)
from morphlie.errors import ParseError, ValidationError
from morphlie.fixtures import (
    sl2_adjoint_triple,
    sl2_v1_triple,
    z2_identity_triple,
    z4_to_z2_sign_triple,
)
from morphlie.linalg import Matrix, inverse
from morphlie.sampling import Sampler

from .oracles import dense_table
from .test_linalg import _bidiagonal, _rebased


def rich_document_text() -> str:
    """A document exercising every section, produced by the serializer."""
    from morphlie.documents import ShMorphismEntry
    from morphlie.shlie import triple_to_skeletal

    rep = sl2_v1_triple()
    doc = ProblemDocument()
    doc.lie_algebras["g"] = rep.base.g
    doc.lie_algebras["h"] = rep.base.h
    doc.morphisms["phi"] = rep.base
    doc.representations["v"] = rep.v
    doc.representations["w"] = rep.w
    doc.morphism_reps["rep"] = rep
    doc.cochains["c0"] = Sampler(2).closed_cochain(rep, 0)
    doc.cochains["c2"] = Sampler(2).closed_cochain(rep, 2)
    doc.cochains["c3"] = Sampler(2).closed_cochain(rep, 3)

    skeletal = triple_to_skeletal(rep.base, rep, doc.cochains["c3"])
    doc.two_term_sh["source"] = skeletal.source
    doc.two_term_sh["target"] = skeletal.target
    doc.sh_morphisms["f"] = ShMorphismEntry("source", "target",
                                            skeletal.morphism)

    t = z2_identity_triple()
    doc.groups["z2"] = t.g
    doc.group_modules["tv"] = t.v
    doc.group_modules["tw"] = t.w
    doc.group_module_triples["t"] = t
    return doc.dumps()


def _rational_triple_text() -> str:
    """The adjoint triple of the identity of heis5 with g and h in rational bases."""
    heis5 = LieAlgebra.from_brackets(5, {(0, 2): [0, 0, 0, 0, 1], (1, 3): [0, 0, 0, 0, 1]})
    p = _bidiagonal([Fraction(1, 2), -2, Fraction(-1, 2), 1])
    q = _bidiagonal([2, Fraction(1, 2), -1, Fraction(1, 3)])
    g, h, phi = _rebased(heis5, p), _rebased(heis5, q), inverse(q) * p
    rep = MorphismRep(MorphismLieAlgebra(g, h, phi), g.adjoint_rep(), h.adjoint_rep(), phi)
    doc = ProblemDocument()
    doc.lie_algebras.update(g=g, h=h)
    doc.representations.update(v=rep.v, w=rep.w)
    doc.morphisms["phi"] = rep.base
    doc.morphism_reps["rep"] = rep
    return doc.dumps()


class TestScalars:
    def test_integers_and_strings(self):
        assert parse_scalar(3, "x") == 3
        assert parse_scalar("-7/2", "x") == Fraction(-7, 2)
        assert parse_scalar("0", "x") == 0

    def test_zero_denominator(self):
        with pytest.raises(ParseError, match="zero denominator"):
            parse_scalar("1/0", "x")

    def test_float_rejected(self):
        with pytest.raises(ParseError, match="floating point"):
            parse_scalar(0.5, "x")

    def test_bool_rejected(self):
        with pytest.raises(ParseError):
            parse_scalar(True, "x")

    def test_garbage_rejected(self):
        for bad in ("", "a", "1/2/3", "1.5", "2/-3"):
            with pytest.raises(ParseError):
                parse_scalar(bad, "x")

    def test_non_canonical_fraction_normalizes(self):
        assert parse_scalar("2/4", "x") == Fraction(1, 2)

    def test_zero_strings(self):
        for text in ("0", " 0 "):
            value = parse_scalar(text, "x")
            assert value == 0 and isinstance(value, Fraction)

    def test_zero_like_error_messages(self):
        for bad, message in (
            ("1/0", "x: zero denominator in '1/0'"),
            ("+0", "x: '+0' is not a rational 'p/q' string"),
            ("1/00", "x: '1/00' is not a rational 'p/q' string"),
            (0.0, "x: floating point is not accepted; write rationals as 'p/q' strings"),
        ):
            with pytest.raises(ParseError) as info:
                parse_scalar(bad, "x")
            assert str(info.value) == message


# The two patterns the scalar readers matched before ``_ratio``: the referee.
OLD_RATIONAL = re.compile(r"-?\d+(/[1-9]\d*)?$")
OLD_CANONICAL = re.compile(r"(-?[0-9]+)(?:/([1-9][0-9]*))?")


def old_scalar(text: str, where: str) -> Fraction:
    """parse_scalar of a string as it read it on OLD_RATIONAL."""
    text = text.strip()
    if text == "0":
        return Fraction(0)
    if "/" in text and text.endswith("/0"):
        raise ParseError(f"{where}: zero denominator in {text!r}")
    if not OLD_RATIONAL.match(text):
        raise ParseError(f"{where}: {text!r} is not a rational 'p/q' string")
    try:
        return Fraction(text)
    except ValueError as exc:
        raise ParseError(f"{where}: a rational of {len(text)} characters "
                         "is too long to read") from exc


def old_entry(text: str, where: str) -> Fraction:
    """A matrix row's string entry as read on OLD_CANONICAL, else by old_scalar."""
    if len(text) < 100 and (m := OLD_CANONICAL.fullmatch(text)):
        return Fraction(int(m[1]), int(m[2] or 1))
    return old_scalar(text, where)


def outcome(read, *args):
    """What read(*args) returns, or the text of the ParseError it raises."""
    try:
        return read(*args)
    except ParseError as exc:
        return str(exc)


# Pieces of generated scalars: ASCII and Unicode Nd digits (Arabic-Indic,
# fullwidth, Devanagari), characters that are digits of other kinds
# (superscript two, one half), signs, slashes, spaces and other separators.
PIECES = ("0", "1", "2", "5", "9", "0", "1", "-", "-", "/", "/", "+", " ", "\n", "\t", "_",
          ".", "e", "x", "\u0660", "\u0661", "\u0662", "\u0663", "\uff11", "\u0967",
          "\u00b2", "\u00bd")

EDGES = ("\u0661\u0662", "1/2\u0663", "\u0661/\u0662", "+1", "-0", "0/5", "1/0", "1/05",
         " 1/2 ", " -3 ", "\t7\n", "", "/", "1/", "-", "-/2", "0", " 0 ", "00", "-00/1",
         "1" * 99, "1" * 100, "-" + "7" * 98, "-" + "7" * 99, "1/" + "3" * 97,
         "1/" + "3" * 98, "\u0661" * 99, "\u0661" * 100, "9" * 98 + "/", "1/" + "0" * 97,
         "1" * 4300, "1" * 4301, "-" + "9" * 5000, "1/" + "3" * 4400, "3" * 4400 + "/7",
         "\u0663" * 4301, "2/" + "4" * 4300, "9" * 5000 + "/0", "\u00b2", "1/2\u00b2",
         "\u00b2/3", "1/\u0661", "\uff11/\u0662")


def generated_scalars(count: int = 3000, seed: int = 28) -> list[str]:
    rng = random.Random(seed)
    return [*EDGES, *("".join(rng.choices(PIECES, k=rng.randint(1, 7))) for _ in range(count))]


class TestScalarReader:
    """``_ratio`` reads what the two old patterns read, to the value and the error text."""

    def test_digits_are_those_of_the_pattern(self):
        chars = [chr(c) for c in range(0x110000)]
        digits = [c for c in chars if OLD_RATIONAL.match(c)]
        assert [c for c in chars if _ratio(c)] == digits
        assert [c for c in chars if _ratio(f"-1/1{c}")] == digits

    def test_against_the_old_patterns(self):
        texts = generated_scalars()
        assert len(set(texts)) > 1500
        for text in texts:
            assert outcome(parse_scalar, text, "x") == outcome(old_scalar, text, "x"), text
            assert (outcome(lambda: parse_vector(["1", text], "v")[1])
                    == outcome(old_scalar, text, "v[1]")), text
            assert (outcome(lambda: parse_matrix([["1", text]], "m")[0, 1])
                    == outcome(old_entry, text, "m[0][1]")), text


class TestMatrices:
    def test_basic(self):
        m = parse_matrix([["1", "1/2"], ["0", "-1"]], "m")
        assert m[0, 1] == Fraction(1, 2)

    def test_ragged_rejected(self):
        with pytest.raises(ParseError, match="ragged"):
            parse_matrix([["1"], ["1", "2"]], "m")

    def test_dimension_mismatch(self):
        with pytest.raises(ParseError, match="expected 3 rows"):
            parse_matrix([["1"]], "m", rows=3)

    def test_empty_matrix_needs_cols(self):
        m = parse_matrix([], "m", rows=0, cols=4)
        assert (m.rows, m.cols) == (0, 4)
        with pytest.raises(ParseError):
            parse_matrix([], "m")

    def test_vector_length(self):
        with pytest.raises(ParseError, match="expected 2 entries"):
            parse_vector(["1"], "v", 2)


def _heis21_adjoint_data() -> dict:
    """The heis21 adjoint module as document data: 21 action matrices of 21x21."""
    from morphlie.algebras import LieAlgebra

    g = LieAlgebra.from_brackets(21, {(i, 10 + i): [0] * 20 + [1] for i in range(10)})
    doc = ProblemDocument()
    doc.lie_algebras["heis21"] = g
    doc.representations["v"] = g.adjoint_rep()
    return doc.to_dict()


class TestLargeActionMatrices:
    """An entry deep in a large action matrix is read, or refused at its own path."""

    @pytest.mark.parametrize("bad, message", [
        ("1/0", "zero denominator in '1/0'"),
        ("+0", "'+0' is not a rational 'p/q' string"),
        (0.0, "floating point is not accepted; write rationals as 'p/q' strings"),
        (False, "booleans are not scalars"),
        (None, "expected a rational, got NoneType"),
    ])
    def test_bad_entry_names_its_path(self, bad, message):
        data = _heis21_adjoint_data()
        data["representations"]["v"]["action"][20][3][7] = bad
        with pytest.raises(ParseError) as info:
            ProblemDocument.from_dict(data)
        assert str(info.value) == f"representations/v.action[20][3][7]: {message}"

    def test_bad_row_names_its_path(self):
        data = _heis21_adjoint_data()
        data["representations"]["v"]["action"][20][3] = "0"
        with pytest.raises(ParseError) as info:
            ProblemDocument.from_dict(data)
        assert str(info.value) == "representations/v.action[20][3]: expected a list of scalars"

    @pytest.mark.parametrize("zero", ["0", 0, " 0 ", "0/4", "-0"])
    def test_every_spelling_of_zero_is_zero(self, zero):
        data = _heis21_adjoint_data()
        action = data["representations"]["v"]["action"]
        assert action[20][3][7] == "0"
        action[20][3][7] = zero
        loaded = ProblemDocument.from_dict(data).representations["v"].action
        # == compares the stored nonzero entries, so a stored zero would differ.
        expected = ProblemDocument.from_dict(_heis21_adjoint_data()).representations["v"]
        assert loaded == expected.action
        assert 7 not in loaded[20].stored_rows()[0][3]


class TestRoundTrip:
    def test_full_document_round_trips(self):
        text = rich_document_text()
        doc = ProblemDocument.loads(text)
        assert doc.to_dict() == ProblemDocument.loads(doc.dumps()).to_dict()

    def test_objects_survive(self):
        doc = ProblemDocument.loads(rich_document_text())
        rep = sl2_v1_triple()
        assert doc.morphism_reps["rep"].psi == rep.psi
        assert dense_table(doc.lie_algebras["g"]) == dense_table(rep.base.g)
        assert doc.cochains["c2"].degree == 2
        assert doc.group_module_triples["t"].phi == (0, 1)
        assert doc.two_term_sh["source"].dim0 == 3

    def test_rational_structure_constants_survive_in_lowest_terms(self):
        # 2/4, -4/6 and 6/4 are stored as 3/6, -4/6 and 9/6 and written reduced.
        text = json.dumps({"lie_algebras": {"g": {"dim": 3, "brackets": [
            [0, 1, ["0", "0", "2/4"]], [0, 2, ["0", "-4/6", 0]], [1, 2, ["6/4", "0", "0"]]]}}})
        g = ProblemDocument.loads(text).lie_algebras["g"]
        assert (g.nonzero[0][1], g.nonzero[0][2], g.nonzero[1][2], g.den) == (
            [(2, 3)], [(1, -4)], [(0, 9)], 6)
        assert json.loads(ProblemDocument.loads(text).dumps())["lie_algebras"]["g"]["brackets"] == [
            [0, 1, ["0", "0", "1/2"]], [0, 2, ["0", "-2/3", "0"]], [1, 2, ["3/2", "0", "0"]]]
        doc = ProblemDocument.loads(_rational_triple_text())
        again = ProblemDocument.loads(doc.dumps())
        for name, a in doc.lie_algebras.items():
            b = again.lie_algebras[name]
            assert a.den > 1 and (a.nonzero, a.den) == (b.nonzero, b.den)
            assert gcd(a.den, *(x for row in a.nonzero for pairs in row for _, x in pairs)) == 1
        assert again.dumps() == doc.dumps()

    def test_loading_rational_constants_does_no_fraction_arithmetic(self, monkeypatch):
        text = _rational_triple_text()
        calls = []
        for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                     "__truediv__", "__rtruediv__"):
            def counted(a, b, original=getattr(Fraction, name), name=name):
                calls.append(name)
                return original(a, b)
            monkeypatch.setattr(Fraction, name, counted)
        doc = ProblemDocument.loads(text)
        assert calls == []
        assert doc.lie_algebras["g"].den > 1 and doc.lie_algebras["h"].den > 1

    def test_dump_writes_the_text_writer_bytes_and_a_failing_dump_keeps_the_file(self, tmp_path):
        doc = ProblemDocument.loads(rich_document_text())
        path, ref = tmp_path / "doc.json", tmp_path / "ref.json"
        doc.dump(str(path))
        with open(ref, "w", encoding="utf-8") as fh:  # the text writer dump used before
            fh.write(doc.dumps() + "\n")
        before = path.read_bytes()
        assert before == ref.read_bytes()
        bad = ProblemDocument()
        bad.morphism_reps["rep"] = sl2_adjoint_triple()
        with pytest.raises(ValidationError, match="referenced morphism"):
            bad.dump(str(path))
        assert path.read_bytes() == before

    def test_degree_zero_cochain(self):
        doc = ProblemDocument.loads(rich_document_text())
        c0 = doc.cochains["c0"]
        assert c0.degree == 0 and len(c0.v) == 2

    def test_relabeled_group_identity(self):
        doc = ProblemDocument.loads(
            '{"groups": {"g": [[1, 0], [0, 1]]}}')
        assert doc.groups["g"].identity == 1

    def test_cochain_blocks_default_to_zero(self):
        text = rich_document_text()
        doc = ProblemDocument.loads(text)
        data = doc.to_dict()
        entry = data["cochains"]["c2"]
        del entry["gamma"]
        del entry["eta"]
        partial = ProblemDocument.from_dict(data).cochains["c2"]
        assert partial.gamma.is_zero() and partial.eta.is_zero()
        assert partial.theta == doc.cochains["c2"].theta


class TestValidation:
    def test_unknown_section(self):
        with pytest.raises(ParseError, match="unknown section"):
            ProblemDocument.loads('{"algebras": {}}')

    def test_json_syntax_error_has_position(self):
        with pytest.raises(ParseError, match=r"line 1, column"):
            ProblemDocument.loads("{nope}")

    def test_broken_jacobi_rejected(self):
        text = ('{"lie_algebras": {"bad": {"dim": 3, "brackets": '
                '[[0, 1, [0, 0, 1]], [0, 2, [1, 0, 0]]]}}}')
        with pytest.raises(ValidationError,
                           match=r"Jacobi identity fails on basis triple \(e1, e2, e3\)"):
            ProblemDocument.loads(text)

    def test_unknown_reference(self):
        text = ('{"representations": {"v": '
                '{"algebra": "nope", "dim": 1, "action": []}}}')
        with pytest.raises(ValidationError, match="missing or invalid"):
            ProblemDocument.loads(text)

    def test_check_document_collects_rows(self):
        text = ('{"lie_algebras": {"bad": {"dim": 3, "brackets": '
                '[[0, 1, [0, 0, 1]], [0, 2, [1, 0, 0]]]}}, '
                '"representations": {"v": '
                '{"algebra": "bad", "dim": 1, "action": [[[0]], [[0]], [[0]]]}}}')
        rows = check_document(text)
        assert [r.ok for r in rows] == [False, False]
        assert "Jacobi" in rows[0].detail
        assert "missing or invalid" in rows[1].detail

    def test_invalid_representation_reported(self):
        text = ('{"lie_algebras": {"g": {"dim": 2, "brackets": []}}, '
                '"representations": {"v": {"algebra": "g", "dim": 1, '
                '"action": [[["1"]], [["1"]]]}}}')
        doc = ProblemDocument.loads(text)
        assert doc.representations["v"].dim_v == 1
        bad = ('{"lie_algebras": {"g": {"dim": 3, "brackets": '
               '[[0, 1, [0, 0, 1]]]}}, '
               '"representations": {"v": {"algebra": "g", "dim": 1, '
               '"action": [[["1"]], [["0"]], [["1"]]]}}}')
        with pytest.raises(ValidationError, match="representation axiom"):
            ProblemDocument.loads(bad)

    def test_bad_homomorphism_rejected(self):
        rep = sl2_v1_triple()
        doc = ProblemDocument()
        doc.lie_algebras["g"] = rep.base.g
        doc.lie_algebras["h"] = rep.base.h
        doc.morphisms["phi"] = rep.base
        data = doc.to_dict()
        data["morphisms"]["phi"]["phi"][0][1] = "1"
        with pytest.raises(ValidationError):
            ProblemDocument.from_dict(data)

    def test_bad_group_element_index(self):
        t = z4_to_z2_sign_triple()
        doc = ProblemDocument()
        doc.groups["g"] = t.g
        doc.groups["h"] = t.h
        doc.group_modules["v"] = t.v
        doc.group_modules["w"] = t.w
        doc.group_module_triples["t"] = t
        data = doc.to_dict()
        data["group_module_triples"]["t"]["phi"] = [0, 1, 1, 0]
        with pytest.raises(ValidationError, match="not a homomorphism"):
            ProblemDocument.from_dict(data)


class TestSerializerReferences:
    def test_dangling_reference_refused(self):
        rep = sl2_v1_triple()
        doc = ProblemDocument()
        doc.morphism_reps["rep"] = rep
        with pytest.raises(ValidationError, match="does not contain"):
            doc.to_dict()

    def test_structural_match_resolves(self):
        doc = ProblemDocument()
        first, second = sl2_v1_triple(), sl2_v1_triple()
        doc.lie_algebras["g"] = first.base.g
        doc.lie_algebras["h"] = first.base.h
        doc.morphisms["phi"] = first.base
        doc.representations["v"] = first.v
        doc.representations["w"] = first.w
        doc.morphism_reps["rep"] = second
        data = doc.to_dict()
        assert data["morphism_reps"]["rep"]["v"] == "v"
