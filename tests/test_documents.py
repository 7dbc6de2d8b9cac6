"""Tests for problem document parsing, validation, and serialization."""

from fractions import Fraction

import pytest

from morphlie.documents import (
    ProblemDocument,
    check_document,
    parse_matrix,
    parse_scalar,
    parse_vector,
)
from morphlie.errors import ParseError, ValidationError
from morphlie.fixtures import (
    sl2_v1_triple,
    z2_identity_triple,
    z4_to_z2_sign_triple,
)
from morphlie.linalg import Matrix
from morphlie.sampling import Sampler


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


class TestRoundTrip:
    def test_full_document_round_trips(self):
        text = rich_document_text()
        doc = ProblemDocument.loads(text)
        assert doc.to_dict() == ProblemDocument.loads(doc.dumps()).to_dict()

    def test_objects_survive(self):
        doc = ProblemDocument.loads(rich_document_text())
        rep = sl2_v1_triple()
        assert doc.morphism_reps["rep"].psi == rep.psi
        assert doc.lie_algebras["g"].c == rep.base.g.c
        assert doc.cochains["c2"].degree == 2
        assert doc.group_module_triples["t"].phi == (0, 1)
        assert doc.two_term_sh["source"].dim0 == 3

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
