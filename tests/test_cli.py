"""End-to-end tests for the command line driver."""

import gc
import json
import subprocess
import sys
import weakref
from pathlib import Path

import pytest

from morphlie.algebras import (
    LieAlgebra,
    MorphismLieAlgebra,
    MorphismRep,
    Representation,
    adjoint_morphism_rep,
)
from morphlie import cli
from morphlie.cli import _base_document, main
from morphlie.cohomology import MCochain, mla_complex
from morphlie.documents import ProblemDocument
from morphlie.extensions import build_extension
from morphlie.fixtures import (
    a1,
    a1_into_sl2_triple,
    a1_triple,
    a2,
    sign_module,
    sl2,
    sl2_v1_triple,
    z2_identity_triple,
    z4_to_z2_sign_triple,
)
from morphlie.groups import FiniteGroup
from morphlie.linalg import Matrix
from morphlie.sampling import Sampler


SRC = Path(__file__).resolve().parent.parent / "src"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def a1_doc(tmp_path):
    path = tmp_path / "a1.json"
    _base_document(a1_triple()).dump(str(path))
    return str(path)


@pytest.fixture
def sl2_doc(tmp_path):
    rep = sl2_v1_triple()
    doc = _base_document(rep)
    doc.cochains["c2"] = Sampler(5).closed_cochain(rep, 2)
    doc.cochains["c3"] = Sampler(5).closed_cochain(rep, 3)
    path = tmp_path / "sl2.json"
    doc.dump(str(path))
    return str(path)


@pytest.fixture
def a1_sl2_doc(tmp_path):
    path = tmp_path / "a1_sl2.json"
    _base_document(a1_into_sl2_triple()).dump(str(path))
    return str(path)


@pytest.fixture
def z4_doc(tmp_path):
    t = z4_to_z2_sign_triple()
    doc = ProblemDocument()
    doc.groups.update(z4=t.g, z2=t.h)
    doc.group_modules.update(v=t.v, w=t.w)
    doc.group_module_triples["t"] = t
    path = tmp_path / "z4.json"
    doc.dump(str(path))
    return str(path)


@pytest.fixture
def z2_doc(tmp_path):
    t = z2_identity_triple()
    doc = ProblemDocument()
    doc.groups["z2"] = t.g
    doc.group_modules["v"] = t.v
    doc.group_modules["sign"] = sign_module(t.g)
    doc.group_module_triples["t"] = t
    path = tmp_path / "z2.json"
    doc.dump(str(path))
    return str(path)


def write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


BROKEN_JACOBI = ('{"lie_algebras": {"bad": {"dim": 3, "brackets": '
                 '[[0, 1, [0, 0, 1]], [0, 2, [1, 0, 0]]]}}}')
MIXED = ('{"lie_algebras": {"a": {"dim": 1, "brackets": []}, '
         '"bad": {"dim": 3, "brackets": [[0, 1, [0, 0, 1]], [0, 2, [1, 0, 0]]]}}}')


class TestCheck:
    def test_valid_document_passes(self, capsys, a1_doc):
        code, out, _ = run(capsys, "check", a1_doc)
        assert code == 0
        assert "0 failures" in out

    def test_broken_jacobi_fails(self, capsys, tmp_path):
        path = write(tmp_path, "broken.json", BROKEN_JACOBI)
        code, out, _ = run(capsys, "check", path)
        assert code == 1
        assert "Jacobi identity fails on basis triple (e1, e2, e3)" in out

    def test_malformed_rational(self, capsys, tmp_path):
        path = write(tmp_path, "bad.json",
                     '{"lie_algebras": {"g": {"dim": 1, '
                     '"brackets": [[0, 0, ["1/0"]]]}}}')
        code, out, _ = run(capsys, "check", path)
        assert code == 1
        assert "zero denominator" in out

    @pytest.mark.parametrize("later, pair", [([1, 0, ["0", "0", "1"]], "(e2, e1)"),
                                             ([0, 1, [0, 0, 2]], "(e1, e2)")],
                             ids=["reversed", "same-order"])
    def test_repeated_bracket_pair_is_refused(self, capsys, tmp_path, later, pair):
        # Read in turn, the later entry would overwrite the earlier one.
        data = {"lie_algebras": {"g": {"dim": 3, "brackets": [[0, 1, ["0", "0", "1"]], later]}}}
        path = write(tmp_path, "repeated.json", json.dumps(data))
        message = f"lie_algebras/g.brackets[1]: the bracket of {pair} is given twice"
        code, out, err = run(capsys, "check", path)
        assert code == 1 and err == ""
        assert f"FAIL  {message}\n" in out
        code, out, err = run(capsys, "cohomology", path, "rep")
        assert (code, out, err) == (2, "", f"error (parse-error): {message}\n")

    @pytest.mark.parametrize("argv", [["check", "DOC"], ["cohomology", "DOC", "rep"]],
                             ids=["check", "cohomology"])
    def test_repeated_key_is_refused(self, capsys, tmp_path, argv):
        # json.loads alone keeps the later value and passes the document.  The
        # error names the object that repeats a key; where several do, the
        # first in the text, so an enclosing object before the ones inside it.
        for text, where, key in [
            ('{"lie_algebras": {"g": {"dim": 2, "brackets": []}, '
             '"g": {"dim": 1, "brackets": []}}}', "lie_algebras", "g"),
            ('{"groups": {}, "lie_algebras": {}, "groups": {}}', "document", "groups"),
            ('{"lie_algebras": {"g": {"dim": 1, "dim": 1, "brackets": []}}}',
             "lie_algebras/g", "dim"),
            ('{"lie_algebras": {"g": {"dim": 2, "brackets": [[0, 1, {"a": 1, "a": 1}]]}}}',
             "lie_algebras/g.brackets[0][2]", "a"),
            ('{"lie_algebras": {"g": {"dim": 1, "x": {"y": 1, "y": 2}, "dim": 1}}, '
             '"groups": {"z": 1, "z": 2}}', "lie_algebras/g", "dim"),
            ('{"lie_algebras": {"g": {"x": {"y": 1, "y": 2}, "dim": 1}, "h": {"b": 1, "b": 1}}}',
             "lie_algebras/g.x", "y"),
        ]:
            path = write(tmp_path, "repeated.json", text)
            code, out, err = run(capsys, *[path if a == "DOC" else a for a in argv])
            assert (code, out, err) == (
                2, "", f"error (parse-error): {where}: the key {key!r} is given twice\n"), text

    def test_json_syntax_error(self, capsys, tmp_path):
        path = write(tmp_path, "syntax.json", "{nope")
        code, _, err = run(capsys, "check", path)
        assert code == 2
        assert "parse-error" in err and "line 1" in err

    def test_missing_file(self, capsys):
        code, _, err = run(capsys, "check", "/does/not/exist.json")
        assert code == 2
        assert "parse-error" in err

    def test_json_output(self, capsys, a1_doc):
        code, out, _ = run(capsys, "check", a1_doc, "--json")
        assert code == 0
        results = json.loads(out)["results"]
        assert all(r["ok"] for r in results)
        assert {r["section"] for r in results} >= {"lie_algebras", "morphism_reps"}


class TestCohomology:
    def test_a1_table(self, capsys, a1_doc):
        code, out, _ = run(capsys, "cohomology", a1_doc, "rep",
                           "--max-degree", "2", "--json")
        assert code == 0
        rows = json.loads(out)["rows"]
        assert [r["cohomology"] for r in rows] == [1, 2, 0]

    def test_sl2_v1_table(self, capsys, sl2_doc):
        code, out, _ = run(capsys, "cohomology", sl2_doc, "rep",
                           "--max-degree", "3", "--json")
        rows = json.loads(out)["rows"]
        assert [r["cohomology"] for r in rows] == [0, 2, 0, 0]

    def test_default_degrees(self, capsys, a1_doc):
        code, out, _ = run(capsys, "cohomology", a1_doc, "rep", "--json")
        rows = json.loads(out)["rows"]
        assert [r["degree"] for r in rows] == [0, 1, 2]

    def test_simple_columns(self, capsys, sl2_doc):
        code, out, _ = run(capsys, "cohomology", sl2_doc, "rep",
                           "--max-degree", "2", "--simple", "--json")
        rows = json.loads(out)["rows"]
        assert all("simple_cohomology" in r for r in rows)

    def test_human_table(self, capsys, a1_doc):
        code, out, _ = run(capsys, "cohomology", a1_doc, "rep",
                           "--max-degree", "2")
        assert code == 0
        assert "dim H" in out and "dim C" in out

    def test_unknown_name(self, capsys, a1_doc):
        code, _, err = run(capsys, "cohomology", a1_doc, "nope")
        assert code == 2
        assert "unknown-object" in err

    def test_group_triple_mode(self, capsys, z2_doc):
        code, out, _ = run(capsys, "cohomology", z2_doc, "t", "--group",
                           "--max-degree", "1", "--json")
        rows = json.loads(out)["rows"]
        assert [r["cohomology"] for r in rows] == [1, 1]

    @pytest.mark.parametrize("doc, argv, flag", [
        ("z2_doc", ["t", "--group", "--simple"], "--simple"),
        ("sl2_doc", ["rep", "--normalized"], "--normalized"),
    ])
    def test_flag_outside_its_mode_refused(self, capsys, request, doc, argv, flag):
        code, out, err = run(capsys, "cohomology", request.getfixturevalue(doc), *argv)
        assert code == 2 and out == ""
        assert err.startswith("error (usage-error): ") and flag in err
        assert len(err.splitlines()) == 1 and "Traceback" not in err

    def test_size_ceiling(self, capsys, z2_doc):
        code, _, err = run(capsys, "cohomology", z2_doc, "t", "--group",
                           "--max-degree", "3", "--size-ceiling", "10")
        assert code == 3
        assert "size-ceiling" in err

    def test_size_ceiling_morphism_rep(self, capsys, sl2_doc):
        code, _, err = run(capsys, "cohomology", sl2_doc, "rep",
                           "--size-ceiling", "5")
        assert code == 3
        assert "size-ceiling" in err

    @pytest.mark.parametrize("doc, builder, argv", [
        # dim C^1 = 14 <= 16 < dim C^2 = 18 for sl2 on V1.
        ("sl2_doc", "mla_differential",
         ["cohomology", "DOC", "rep", "--max-degree", "1", "--size-ceiling", "16"]),
        # dim C^1 = 5 <= 7 < dim C^2 = 10 for the Z2 identity triple.
        ("z2_doc", "mlg_differential",
         ["cohomology", "DOC", "t", "--group", "--max-degree", "1", "--size-ceiling", "7"]),
        # dim C^2 = 4 <= 6 < dim C^3 = 8 for the trivial Z2 module.
        ("z2_doc", "group_differential",
         ["group", "cohomology", "DOC", "v", "--max-degree", "2", "--size-ceiling", "6"]),
    ])
    def test_size_ceiling_covers_codomain(self, capsys, monkeypatch, request,
                                          doc, builder, argv):
        # The top differential maps into C^{top+1}, which is over the ceiling:
        # the table is refused before that differential is built.  psi = id
        # ranks the morphism tables on C(h, W) and builds no cone differential;
        # the module is validated, so its table builds only d_0.
        import morphlie.groups

        path = request.getfixturevalue(doc)
        built = (_record_cone_degrees(monkeypatch) if builder in _MORPHISM_DIFFERENTIALS
                 else _record_calls(monkeypatch, morphlie.groups, builder))
        code, _, err = run(capsys, *[path if a == "DOC" else a for a in argv])
        assert code == 3
        assert "size-ceiling" in err
        top = int(argv[argv.index("--max-degree") + 1])
        assert top not in built and built == ([0] if builder == "group_differential" else [])

    def test_negative_degree(self, capsys, a1_doc):
        code, _, err = run(capsys, "cohomology", a1_doc, "rep",
                           "--max-degree", "-1")
        assert code == 2


def _rebind(monkeypatch, original, replacement):
    """Replace ``original`` under every name a morphlie module holds it by."""
    import sys

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("morphlie"):
            for name, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, name, replacement)


def _record_calls(monkeypatch, module, name):
    """Replace module.name wherever a morphlie module holds it; log each call."""
    original = getattr(module, name)
    calls = []

    def recording(*args, **kwargs):
        calls.append(args[1] if len(args) > 1 else None)
        return original(*args, **kwargs)

    _rebind(monkeypatch, original, recording)
    return calls


# The morphism differentials are the d_n that the ``linalg.cone`` of
# ``mla_complex`` or ``mlg_complex`` builds; a table never calls the functions.
_MORPHISM_DIFFERENTIALS = ("mla_differential", "mlg_differential")


def _record_cone_degrees(monkeypatch):
    """Log each degree whose differential a ``linalg.cone`` complex builds."""
    import morphlie.linalg

    original, built = morphlie.linalg.cone, []

    def recording(*args, **kwargs):
        cx = original(*args, **kwargs)
        build = cx.differential
        cx.differential = lambda n: built.append(n) or build(n)
        return cx

    _rebind(monkeypatch, original, recording)
    return built


def _record_theorem_reads(monkeypatch):
    """Log each rank asked of a theorem: a cone's ``known`` hook, which asks
    ``ChainMap.psi_is_iso`` on each evaluation, or the known-cohomology formula
    of ``known_h``, which asks a complex's rank of a lower degree while that
    complex ranks a higher one."""
    from morphlie.linalg import ChainMap, Complex

    psi_is_iso, rank, reads, ranking = ChainMap.psi_is_iso, Complex.rank, [], []

    def asked(self):
        reads.append("known")
        return psi_is_iso(self)

    def nested(self, n, simple=False):
        if ranking and ranking[-1] is self:
            reads.append("known_h")
        ranking.append(self)
        try:
            return rank(self, n, simple)
        finally:
            ranking.pop()

    monkeypatch.setattr(ChainMap, "psi_is_iso", asked)
    monkeypatch.setattr(Complex, "rank", nested)
    return reads


class TestTableCalls:
    """A table of degrees 0..top builds each d_n once, eliminates each matrix once,
    and reads each rank off a theorem at most once; a second table reads nothing."""

    @pytest.mark.parametrize("doc, module, builder, argv, built, ranks, reads", [
        # psi = id: the cone builds nothing, and its ranks are W's d_0..d_3,
        # ranked after psi; --simple adds none.  A validated W has only its
        # d_0 ranked, and so has a validated module's own table.  Reads: the
        # cone's hook once per rank it is asked (s_1 and s_2 too with
        # --simple), and a validated W's or module's d_1..d_3 off Maschke.
        ("sl2_doc", "cohomology", "mla_differential",
         ["cohomology", "DOC", "rep", "--max-degree", "3"], [], 5, 4),
        ("sl2_doc", "cohomology", "mla_differential",
         ["cohomology", "DOC", "rep", "--max-degree", "3", "--simple"], [], 5, 6),
        ("z2_doc", "groups", "mlg_differential",
         ["cohomology", "DOC", "t", "--group", "--max-degree", "3"], [], 2, 4 + 3),
        ("z2_doc", "groups", "group_differential",
         ["group", "cohomology", "DOC", "sign", "--max-degree", "3"], [0], 1, 3),
        # psi is not square: the cone is built and ranked in every degree.
        ("a1_sl2_doc", "cohomology", "mla_differential",
         ["cohomology", "DOC", "rep", "--max-degree", "3"], [0, 1, 2, 3], 4, 4),
        # s_0 = d_0, so --simple adds the ranks of s_1 and s_2 only.
        ("a1_sl2_doc", "cohomology", "mla_differential",
         ["cohomology", "DOC", "rep", "--max-degree", "3", "--simple"], [0, 1, 2, 3], 6, 6),
        # V and W are validated: above degree 1 the cone has no cohomology,
        # so only its d_0 and d_1 are built and ranked, and d_2, d_3 are read
        # off the acyclic formula.
        ("z4_doc", "groups", "mlg_differential",
         ["cohomology", "DOC", "t", "--group", "--max-degree", "3"], [0, 1], 2, 4 + 2),
    ])
    def test_each_differential_built_and_ranked_once(
            self, capsys, monkeypatch, request, doc, module, builder, argv, built, ranks, reads):
        import importlib

        import morphlie.linalg

        path = request.getfixturevalue(doc)
        degrees = (_record_cone_degrees(monkeypatch) if builder in _MORPHISM_DIFFERENTIALS else
                   _record_calls(monkeypatch, importlib.import_module(f"morphlie.{module}"),
                                 builder))
        ranked = _record_calls(monkeypatch, morphlie.linalg, "row_basis")
        read = _record_theorem_reads(monkeypatch)
        table, again = morphlie.linalg.Complex.table, []

        def twice(cx, top, simple=False):
            rows, counts = table(cx, top, simple), (len(degrees), len(ranked), len(read))
            again.append(table(cx, top, simple) == rows
                         and counts == (len(degrees), len(ranked), len(read)))
            return rows

        monkeypatch.setattr(morphlie.linalg.Complex, "table", twice)
        code, _, _ = run(capsys, *[path if a == "DOC" else a for a in argv])
        assert code == 0
        assert degrees == built
        assert len(ranked) == ranks
        assert len(read) == reads
        assert again == [True]


def _record_axiom_evaluations(monkeypatch):
    """Patch Representation.check; return the list of distinct verdicts it produced.

    A stored verdict comes back as the same object, so the list grows only
    when the representation axiom is evaluated afresh.
    """
    from morphlie.algebras import Representation

    original = Representation.check
    verdicts = []

    def recording(self):
        res = original(self)
        if not any(res is v for v in verdicts):
            verdicts.append(res)
        return res

    monkeypatch.setattr(Representation, "check", recording)
    return verdicts


class TestValidationCalls:
    """Each loaded representation has its axiom evaluated once, however often it is asked."""

    def test_adjoint_triple_document_evaluates_v_and_w_once(self, capsys, monkeypatch,
                                                            tmp_path):
        path = str(tmp_path / "adjoint.json")
        _base_document(adjoint_morphism_rep(MorphismLieAlgebra.identity(sl2()))).dump(path)
        evaluated = _record_axiom_evaluations(monkeypatch)
        code, out, _ = run(capsys, "check", path)
        assert code == 0 and "0 failures" in out
        assert len(evaluated) == 2

    def test_extract_and_twist_on_sl2_v1(self, capsys, monkeypatch, sl2_doc, tmp_path):
        ext_path, skel_path = str(tmp_path / "ext.json"), str(tmp_path / "skel.json")
        assert run(capsys, "extend", sl2_doc, "c2", "-o", ext_path)[0] == 0
        assert run(capsys, "sh", "from-cocycle", sl2_doc, "c3", "-o", skel_path)[0] == 0
        evaluated = _record_axiom_evaluations(monkeypatch)
        # The document's V and W: the extraction reads its cocycle off the
        # blocks of the total, and the induced triple is the document's.
        code, _, _ = run(capsys, "extract", ext_path, "phi_hat", "rep",
                         "-o", str(tmp_path / "back.json"))
        assert code == 0 and len(evaluated) == 2
        evaluated.clear()
        # The document's V and W; W pulled back along phi is built unchecked,
        # and the triple the skeletal object keeps is its sh axioms, so its
        # V and W are not checked again.
        code, _, _ = run(capsys, "sh", "twist", skel_path, "morphism",
                         "--seed", "11", "-o", str(tmp_path / "twisted.json"))
        assert code == 0 and len(evaluated) == 2

    def test_extend_and_extract_solve_and_rank_nothing(self, capsys, monkeypatch, sl2_doc,
                                                       tmp_path):
        # The totals are assembled from the cocycle's blocks and read back off
        # them: the only linear algebra is d_2 of the closedness check.
        import morphlie.linalg

        solves = _record_calls(monkeypatch, morphlie.linalg, "solve_columns")
        ranks = _record_calls(monkeypatch, morphlie.linalg, "rank")
        ext_path = str(tmp_path / "ext.json")
        assert run(capsys, "extend", sl2_doc, "c2", "-o", ext_path)[0] == 0
        assert run(capsys, "extract", ext_path, "phi_hat", "rep",
                   "-o", str(tmp_path / "back.json"))[0] == 0
        assert (len(solves), len(ranks)) == (0, 0)

    def test_sh_requests_evaluate_each_identity_once(self, capsys, monkeypatch, sl2_doc,
                                                     tmp_path):
        # A skeletal object keeps the triple its checked sh data amounts to,
        # and the skeletal object of a triple is checked only for closedness.
        import morphlie.algebras
        import morphlie.cecomplex

        skel_path = str(tmp_path / "skel.json")
        wedges = _record_calls(monkeypatch, morphlie.cecomplex, "wedge_minor_matrix")
        jacobi = _record_calls(monkeypatch, morphlie.algebras, "check_jacobi")
        evaluated = _record_axiom_evaluations(monkeypatch)
        expected = {
            # d_3 of the cocycle check; the document's V and W (W pulled back
            # along phi is built unchecked, here and below).
            ("sh", "from-cocycle", sl2_doc, "c3", "-o", skel_path): (1, 2),
            # condition (iv) of the loaded object, then d_2 and d_3; V and W.
            ("sh", "twist", skel_path, "morphism", "--seed", "11",
             "-o", str(tmp_path / "twisted.json")): (3, 2),
            # condition (iv) of the loaded object; the document's V and W.
            ("sh", "to-triple", skel_path, "morphism",
             "-o", str(tmp_path / "triple.json")): (1, 2),
        }
        for argv, (wedge_builds, axiom_evaluations) in expected.items():
            for calls in (wedges, jacobi, evaluated):
                calls.clear()
            assert run(capsys, *argv)[0] == 0
            assert (len(wedges), len(evaluated)) == (wedge_builds, axiom_evaluations), argv
            assert len(jacobi) == 2, argv  # the document's g and h, on load


class TestInputBoundary:
    """Inputs past Python's own limits are parse errors, not tracebacks."""

    @pytest.mark.parametrize("text", [
        '{"lie_algebras": {"g": {"dim": 1, "brackets": [[0, 0, ["1/'
        + "7" * 5000 + '"]]]}}}',
        '{"lie_algebras": {"g": {"dim": ' + "9" * 5000 + ', "brackets": []}}}',
        "[" * 100000 + "]" * 100000,
    ], ids=["long-denominator", "long-integer", "deep-nesting"])
    def test_parse_error_exit_2(self, capsys, tmp_path, text):
        path = write(tmp_path, "doc.json", text)
        code, _, err = run(capsys, "cohomology", path, "rep")
        assert code == 2
        assert "parse-error" in err and "Traceback" not in err

    def test_non_utf8_file_is_a_parse_error(self, capsys, tmp_path):
        path = tmp_path / "doc.json"
        path.write_bytes(b"\xff\xfe{}")
        code, out, err = run(capsys, "check", str(path))
        assert code == 2 and out == ""
        assert err.startswith(f"error (parse-error): cannot read {path}: 'utf-8' codec")

    def test_unreadable_files_keep_their_messages(self, capsys, tmp_path):
        # The file is read as bytes and decoded in one call; each message is
        # the one a text-mode read gave.
        (tmp_path / "dir.json").mkdir()
        late = tmp_path / "late.json"
        late.write_bytes(b"{" + b" " * 20000 + b"\xc3(}")
        bom = tmp_path / "bom.json"
        bom.write_bytes(b"\xef\xbb\xbf{}")
        for path, detail in (
                (tmp_path / "missing.json", f"cannot read {tmp_path / 'missing.json'}: "
                                            "No such file or directory"),
                (tmp_path / "dir.json", f"cannot read {tmp_path / 'dir.json'}: Is a directory"),
                (late, f"cannot read {late}: 'utf-8' codec can't decode byte 0xc3 in "
                       "position 20001: invalid continuation byte"),
                (bom, "line 1, column 1: Unexpected UTF-8 BOM (decode using utf-8-sig)")):
            code, out, err = run(capsys, "check", str(path))
            assert (code, out, err) == (2, "", f"error (parse-error): {detail}\n"), path

    @pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_crlf_and_cr_files_read_as_lf(self, capsys, tmp_path, newline):
        # Text mode's newline translation: the same table, and a JSON error
        # at the same line and column, as the LF file.
        good = _base_document(a1_triple()).dumps()
        bad = good.replace('"dim": 1', '"dim": 1,,', 1)
        for text in (good, bad):
            lf = write(tmp_path, "lf.json", text)
            other = tmp_path / "other.json"
            other.write_bytes(text.replace("\n", newline).encode("utf-8"))
            assert run(capsys, "cohomology", str(other), "rep") == run(capsys, "cohomology", lf, "rep")
        code, _, err = run(capsys, "cohomology", str(other), "rep")
        assert code == 2 and err.startswith("error (parse-error): line ") and ", column " in err

    def test_negative_cochain_degree(self, capsys, tmp_path):
        data = _base_document(a1_triple()).to_dict()
        data["cochains"] = {"bad": {"morphism_rep": "rep", "degree": -1}}
        path = write(tmp_path, "doc.json", json.dumps(data))
        code, out, err = run(capsys, "check", path)
        assert code == 1 and err == ""
        assert "FAIL  cochains/bad.degree: expected a nonnegative integer\n" in out
        assert out.count("cochains/bad") == 1
        for argv in (["cohomology", path, "rep"], ["extend", path, "bad"]):
            code, out, err = run(capsys, *argv)
            assert code == 2 and out == ""
            assert err == ("error (parse-error): cochains/bad.degree: "
                           "expected a nonnegative integer\n")
            assert err.count("cochains/bad") == 1


class TestStartUp:
    """A request loads neither dataclasses and its chain nor argparse and its own,
    and importing the CLI, not the library, freezes what start-up built."""

    def test_cli_loads_no_dataclasses_inspect_dis_or_ast(self, a1_doc):
        script = ("import sys\n"
                  "sys.path.insert(0, sys.argv[1])\n"
                  "before = set(sys.modules)\n"
                  "from morphlie.cli import main\n"
                  "code = main(['cohomology', sys.argv[2], 'rep'])\n"
                  "print(' '.join(sorted(set(sys.modules) - before)))\n"
                  "sys.exit(code)\n")
        done = subprocess.run([sys.executable, "-I", "-c", script, str(SRC), a1_doc],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        added = set(done.stdout.splitlines()[-1].split())
        assert "morphlie.cli" in added
        assert not added & {"dataclasses", "inspect", "dis", "ast",
                            "argparse", "gettext", "locale"}


    # Run as bench/request.py runs a request: fractions and json, which
    # compile their own patterns at import, are loaded before morphlie.cli.
    SPY = ("import sys\n"
           "sys.path.insert(0, sys.argv[1])\n"
           "import fractions, json, re\n"
           "compiled, compile_ = [], re._compile\n"
           "re._compile = lambda *args: compiled.append(args[0]) or compile_(*args)\n"
           "from morphlie.cli import main\n"
           "code = main(sys.argv[2:])\n"
           "print(compiled, file=sys.stderr)\n"
           "sys.exit(code)\n")

    def _spied(self, *argv):
        return subprocess.run([sys.executable, "-I", "-c", self.SPY, str(SRC), *argv],
                              capture_output=True, timeout=60)

    def test_import_and_a_table_compile_no_regular_expression(self, a1_doc):
        done = self._spied("cohomology", a1_doc, "rep")
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith(b"cohomology of 'rep' (morphism rep)\n")
        assert done.stderr == b"[]\n"

    def test_check_json_bytes_of_a_failing_row(self, tmp_path):
        path = write(tmp_path, "mixed.json", MIXED)
        done = self._spied("check", path, "--json")
        assert done.returncode == 1, done.stderr
        assert done.stderr == b"[]\n"
        assert done.stdout == (
            b'{\n  "results": [\n'
            b'    {\n      "section": "lie_algebras",\n      "name": "a",\n'
            b'      "ok": true,\n      "detail": ""\n    },\n'
            b'    {\n      "section": "lie_algebras",\n      "name": "bad",\n'
            b'      "ok": false,\n      "detail": "Jacobi identity fails on basis triple '
            b'(e1, e2, e3)"\n    }\n  ]\n}\n')

    COUNTS = ("import gc, sys\n"
              "sys.path.insert(0, sys.argv[1])\n"
              "import {}\n"
              "print(gc.get_freeze_count(), len(gc.get_objects()))\n")

    def _counts(self, module):
        done = subprocess.run([sys.executable, "-I", "-c", self.COUNTS.format(module), str(SRC)],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        return [int(x) for x in done.stdout.split()]

    def test_importing_the_cli_freezes_the_start_up_heap(self):
        frozen, tracked = self._counts("morphlie.cli")
        assert frozen > 0
        assert tracked < 100

    def test_importing_the_library_freezes_nothing(self):
        frozen, tracked = self._counts("morphlie")
        assert frozen == 0
        assert tracked > 1000

    # The module run as a script, as python -m runs it, with stdout to a file,
    # which makes it block-buffered: output lost at exit would show here first.
    AS_MAIN = ("import runpy, sys\n"
               "sys.path.insert(0, sys.argv.pop(1))\n"
               "runpy.run_module('morphlie.cli', run_name='__main__', alter_sys=True)\n")

    @pytest.mark.parametrize("argv, code", [
        (["cohomology", "SL2", "rep", "--simple"], 0),
        (["check", "MIXED", "--json"], 1),
        (["extend", "SL2", "c2", "-o", "OUT"], 0),
    ], ids=["cohomology", "check-json", "extend"])
    def test_a_process_exit_writes_what_main_prints(self, capsys, tmp_path, sl2_doc, argv, code):
        paths = {"SL2": sl2_doc, "OUT": str(tmp_path / "out.json"),
                 "MIXED": write(tmp_path, "mixed.json", MIXED)}
        argv = [paths.get(word, word) for word in argv]
        out, out_file = tmp_path / "stdout", tmp_path / "out.json"
        with open(out, "wb") as fh:
            done = subprocess.run([sys.executable, "-I", "-c", self.AS_MAIN, str(SRC), *argv],
                                  stdout=fh, stderr=subprocess.PIPE, timeout=60)
        written = out_file.read_bytes() if out_file.exists() else None
        out_file.unlink(missing_ok=True)
        assert (done.returncode, done.stderr) == (code, b"")
        assert run(capsys, *argv) == (code, out.read_text(encoding="utf-8"), "")
        assert written == (out_file.read_bytes() if out_file.exists() else None)
        assert out.stat().st_size > 0


class TestCollectorPause:
    """main pauses the cyclic collector for the request and restores its state on every exit."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collector(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    @pytest.mark.parametrize("argv, code", [
        (["check", "A1"], 0),
        (["check", "BROKEN"], 1),
        (["check", "MISSING"], 2),
        (["cohomology", "A1"], 2),
        (["cohomology", "Z2", "t", "--group", "--max-degree", "3", "--size-ceiling", "10"], 3),
    ], ids=["ok", "check-failed", "document-error", "usage-error", "size-ceiling"])
    def test_state_is_restored(self, capsys, tmp_path, a1_doc, z2_doc, collector, argv, code):
        paths = {"A1": a1_doc, "Z2": z2_doc, "MISSING": str(tmp_path / "missing.json"),
                 "BROKEN": write(tmp_path, "broken.json", BROKEN_JACOBI)}
        frozen = gc.get_freeze_count()
        assert main([paths.get(word, word) for word in argv]) == code
        assert gc.isenabled() is collector
        assert gc.get_freeze_count() == frozen

    def test_state_is_restored_when_a_handler_raises(self, monkeypatch, collector):
        seen = []

        def handler(args):
            seen.append(gc.isenabled())
            raise RuntimeError("handler failed")

        monkeypatch.setitem(cli.COMMANDS, "check", (handler, *cli.COMMANDS["check"][1:]))
        with pytest.raises(RuntimeError, match="handler failed"):
            main(["check", "doc.json"])
        assert seen == [False]
        assert gc.isenabled() is collector

    def test_a_requests_cycles_are_collected_after_main(self, monkeypatch):
        class Node:
            pass

        refs = []

        def handler(args):
            cycle = Node()
            cycle.self = cycle
            refs.append(weakref.ref(cycle))
            return cli.EXIT_OK

        monkeypatch.setitem(cli.COMMANDS, "check", (handler, *cli.COMMANDS["check"][1:]))
        assert main(["check", "doc.json"]) == cli.EXIT_OK
        gc.collect()
        assert len(refs) == 1 and refs[0]() is None

    def test_no_collection_during_a_table(self, capsys, tmp_path):
        heis5 = LieAlgebra.from_brackets(5, {(0, 2): [0, 0, 0, 0, 1], (1, 3): [0, 0, 0, 0, 1]})
        rep = adjoint_morphism_rep(MorphismLieAlgebra.identity(heis5))
        path = str(tmp_path / "heis5.json")
        _base_document(rep).dump(path)
        argv = ["cohomology", path, "rep", "--max-degree", "4"]
        starts, was, threshold = [], gc.isenabled(), gc.get_threshold()
        # A low threshold makes the collector run every few allocations, wherever
        # the count of generation 0 stood when the test began.
        gc.enable()
        gc.set_threshold(10)
        gc.callbacks.append(count := lambda phase, info: starts.append(phase == "start"))
        try:
            code = main(argv)
            during_main = starts.count(True)
            # The control: the same table outside main runs the collector.
            mla_complex(rep).table(4)
        finally:
            gc.callbacks.remove(count)
            gc.set_threshold(*threshold)
            (gc.enable if was else gc.disable)()
        assert code == 0 and during_main == 0
        assert starts.count(True) > 0
        assert gc.isenabled() is was


class TestLoadCost:
    """A load costs O(dim^2) plus the brackets: no dense dim^3 structure table."""

    def test_check_of_a_dim_400_abelian_algebra(self, tmp_path):
        # With a dense table this took 10 s and 1 GB.
        path = tmp_path / "a400.json"
        path.write_text(json.dumps({"lie_algebras": {"a": {"dim": 400, "brackets": []}}}),
                        encoding="utf-8")
        script = ("import sys, time\n"
                  "sys.path.insert(0, sys.argv[1])\n"
                  "from morphlie.cli import main\n"
                  "start = time.perf_counter()\n"
                  "code = main(['check', sys.argv[2]])\n"
                  "seconds = time.perf_counter() - start\n"
                  "with open('/proc/self/status', encoding='ascii') as fh:\n"
                  "    peak_kb = next(int(line.split()[1]) for line in fh\n"
                  "                   if line.startswith('VmHWM:'))\n"
                  "print(seconds, peak_kb / 1024)\n"
                  "sys.exit(code)\n")
        done = subprocess.run([sys.executable, "-I", "-c", script, str(SRC), str(path)],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert "1 object checked, 0 failures" in done.stdout
        seconds, peak_mb = map(float, done.stdout.split()[-2:])
        assert seconds < 0.5 and peak_mb < 60, (seconds, peak_mb)


class TestRankCost:
    """A table ranks d_n on a complement of im d_{n-1}: memory follows the rank, not dim C^{n+1}."""

    def test_z6_sign_module_normalized_to_degree_5(self, capsys, tmp_path):
        # The document's module is validated, so its CLI table eliminates only
        # d_0.  The memory bound is on an unvalidated copy in a fresh process,
        # whose table eliminates d_0..d_5: each d_n in full peaked at 153 MB
        # (Python 3.11.7, x86-64 Linux).
        doc = ProblemDocument()
        doc.groups["z6"] = FiniteGroup.cyclic(6)
        doc.group_modules["sign"] = sign_module(doc.groups["z6"])
        path = tmp_path / "z6.json"
        doc.dump(str(path))
        code, out, _ = run(capsys, "group", "cohomology", str(path), "sign", "--normalized",
                           "--max-degree", "5", "--json")
        assert code == 0
        assert [r["cohomology"] for r in json.loads(out)["rows"]] == [0] * 6
        script = ("import sys\n"
                  "sys.path.insert(0, sys.argv[1])\n"
                  "from morphlie.fixtures import sign_module\n"
                  "from morphlie.groups import FiniteGroup, GroupModule, group_complex\n"
                  "m = sign_module(FiniteGroup.cyclic(6))\n"
                  "cx = group_complex(GroupModule(m.group, m.dim, m.action, validate=False),\n"
                  "                   normalized=True)\n"
                  "print([r['cohomology'] for r in cx.table(5)], sorted(cx._bases))\n"
                  "with open('/proc/self/status', encoding='ascii') as fh:\n"
                  "    peak_kb = next(int(line.split()[1]) for line in fh\n"
                  "                   if line.startswith('VmHWM:'))\n"
                  "print(peak_kb / 1024)\n")
        done = subprocess.run([sys.executable, "-I", "-c", script, str(SRC)],
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        eliminated, peak_mb = done.stdout.splitlines()
        assert eliminated == f"{[0] * 6} {list(range(6))}"
        assert float(peak_mb) < 90, peak_mb


class TestGroupCohomology:
    def test_normalized_trivial(self, capsys, z2_doc):
        code, out, _ = run(capsys, "group", "cohomology", z2_doc, "v",
                           "--normalized", "--json")
        rows = json.loads(out)["rows"]
        assert [r["cohomology"] for r in rows] == [1, 0, 0]

    def test_sign_module(self, capsys, z2_doc):
        code, out, _ = run(capsys, "group", "cohomology", z2_doc, "sign",
                           "--json")
        rows = json.loads(out)["rows"]
        assert [r["cohomology"] for r in rows] == [0, 0, 0]


def _trivial_triple(g: LieAlgebra, dim: int) -> MorphismRep:
    """(g, g, id) acting trivially on V = W = Q^dim with psi = id."""
    return MorphismRep(MorphismLieAlgebra.identity(g), Representation.trivial(g, dim),
                       Representation.trivial(g, dim), Matrix.identity(dim))


def _r2() -> LieAlgebra:
    """The nonabelian 2-dim algebra [e1, e2] = e1."""
    return LieAlgebra.from_brackets(2, {(0, 1): [1, 0]})


def _acted_line() -> LieAlgebra:
    """[e1, e2] = e2: a1 acting on its fiber by 1, not trivially."""
    return LieAlgebra.from_brackets(2, {(0, 1): [0, 1]})


def _heis_center_first() -> LieAlgebra:
    """The Heisenberg algebra [e2, e3] = e1: a1 with a non-abelian 2-dim fiber."""
    return LieAlgebra.from_brackets(3, {(1, 2): [1, 0, 0]})


def _fiber_scaled_semidirect():
    """sl2 ⋉ V1 on both sides, with phi_hat doubling the fiber where psi is id."""
    rep = sl2_v1_triple()
    total = build_extension(rep, MCochain(rep, 2)).total
    phi_hat = Matrix.block([[Matrix.identity(3), Matrix.zeros(3, 2)],
                            [Matrix.zeros(2, 3), Matrix.identity(2).scale(2)]])
    return (rep, total.g, total.h, phi_hat,
            "error (shape-error): phi_hat . i differs from i_bar . psi")


# Documents whose total morphism algebra loads, but is no extension of the
# stated triple in the block basis: (rep, g_hat, h_hat, phi_hat, error).
# Block maps make p . i = 0, i injective and p surjective, and the shapes
# of i and p (likewise i_bar and p_bar) fail together, so those refusals
# cannot be reached from a document.
_EXTRACT_REFUSALS = {
    "total-h-wrong-size": lambda: (
        _trivial_triple(a2(), 0), a2(), a1(), Matrix.zeros(1, 2),
        "error (shape-error): i_bar must be 1x0"),
    "fiber-not-abelian-g": lambda: (
        _trivial_triple(a1(), 2), _heis_center_first(), LieAlgebra.abelian(3),
        Matrix.zeros(3, 3), "error (shape-error): included subspace on the g side is not abelian"),
    "fiber-not-abelian-h": lambda: (
        _trivial_triple(a1(), 2), LieAlgebra.abelian(3), _heis_center_first(),
        Matrix.zeros(3, 3), "error (shape-error): included subspace on the h side is not abelian"),
    "fiber-not-an-ideal": lambda: (
        _trivial_triple(a1(), 1), _r2(), a2(), Matrix.zeros(2, 2),
        "error (shape-error): included subspace on the g side is not an ideal"),
    "p-not-a-homomorphism": lambda: (
        _trivial_triple(a2(), 0), _r2(), a2(), Matrix.zeros(2, 2),
        "error (shape-error): p is not a Lie algebra homomorphism"),
    "p-bar-not-a-homomorphism": lambda: (
        _trivial_triple(a2(), 0), a2(), _r2(), Matrix.zeros(2, 2),
        "error (shape-error): p_bar is not a Lie algebra homomorphism"),
    "fiber-block-not-psi": _fiber_scaled_semidirect,
    "base-block-not-phi": lambda: (
        _trivial_triple(a2(), 0), a2(), a2(), Matrix.zeros(2, 2),
        "error (shape-error): p_bar . phi_hat differs from phi . p"),
    "induced-rep-not-stated": lambda: (
        _trivial_triple(a1(), 1), _acted_line(), _acted_line(), Matrix.identity(2),
        "error (validation-error): total algebra does not induce the stated representation"),
}


class TestExtendExtract:
    def test_round_trip(self, capsys, sl2_doc, tmp_path):
        ext_path = str(tmp_path / "ext.json")
        code, out, _ = run(capsys, "extend", sl2_doc, "c2", "-o", ext_path)
        assert code == 0 and "total g dim 5" in out

        code, out, _ = run(capsys, "check", ext_path)
        assert code == 0

        back_path = str(tmp_path / "back.json")
        code, out, _ = run(capsys, "extract", ext_path, "phi_hat", "rep",
                           "-o", back_path)
        assert code == 0

        orig = ProblemDocument.load(sl2_doc).cochains["c2"]
        back = ProblemDocument.load(back_path).cochains["cocycle"]
        assert back.to_vector() == orig.to_vector()

    def test_extend_rejects_non_cocycle(self, capsys, tmp_path):
        from morphlie.cohomology import MCochain, mla_differential

        rep = sl2_v1_triple()
        delta = mla_differential(rep, 2)
        flat = None
        for k in range(delta.cols):
            unit = [1 if i == k else 0 for i in range(delta.cols)]
            if any(delta.apply(unit)):
                flat = unit
                break
        doc = _base_document(rep)
        doc.cochains["bad"] = MCochain.from_vector(rep, 2, flat)
        path = write(tmp_path, "bad.json", doc.dumps())
        code, _, err = run(capsys, "extend", path, "bad")
        assert code == 2
        assert "not-a-cocycle" in err

    def test_extract_wrong_total(self, capsys, sl2_doc):
        code, _, err = run(capsys, "extract", sl2_doc, "phi", "rep")
        assert code == 2

    @pytest.mark.parametrize("case", sorted(_EXTRACT_REFUSALS))
    def test_extract_refuses_a_total_that_is_no_extension(self, capsys, tmp_path, case):
        rep, g_hat, h_hat, phi_hat, message = _EXTRACT_REFUSALS[case]()
        doc = _base_document(rep)
        doc.lie_algebras["g_hat"] = g_hat
        doc.lie_algebras["h_hat"] = h_hat
        doc.morphisms["phi_hat"] = MorphismLieAlgebra(g_hat, h_hat, phi_hat)
        path = write(tmp_path, "ext.json", doc.dumps())
        assert run(capsys, "extract", path, "phi_hat", "rep") == (2, "", message + "\n")

    @pytest.mark.parametrize("target", ["missing-dir/out.json", "."],
                             ids=["missing-directory", "directory"])
    def test_unwritable_output_is_an_output_error(self, capsys, sl2_doc, tmp_path, target):
        path = str(tmp_path / target)
        code, out, err = run(capsys, "extend", sl2_doc, "c2", "-o", path)
        assert code == 2 and out == ""
        assert err.startswith(f"error (output-error): cannot write {path}: ")

    def test_document_to_stdout(self, capsys, sl2_doc):
        code, out, err = run(capsys, "extend", sl2_doc, "c2")
        assert code == 0
        assert "g_hat" in json.loads(out)["lie_algebras"]
        assert "built extension" in err


class TestSh:
    def test_from_cocycle_verify_to_triple(self, capsys, sl2_doc, tmp_path):
        skel_path = str(tmp_path / "skel.json")
        code, _, _ = run(capsys, "sh", "from-cocycle", sl2_doc, "c3",
                         "-o", skel_path)
        assert code == 0

        code, out, _ = run(capsys, "sh", "verify", skel_path, "morphism")
        assert code == 0
        assert out.count("ok") == 3

        triple_path = str(tmp_path / "triple.json")
        code, _, _ = run(capsys, "sh", "to-triple", skel_path, "morphism",
                         "-o", triple_path)
        assert code == 0
        orig = ProblemDocument.load(sl2_doc).cochains["c3"]
        back = ProblemDocument.load(triple_path).cochains["cochain"]
        assert back.to_vector() == orig.to_vector()

    def test_verify_reports_axiom_failure(self, capsys, tmp_path):
        doc = ProblemDocument()
        doc.lie_algebras["sl2"] = sl2()
        doc.two_term_sh["bad"] = _shape_only_sh()
        path = write(tmp_path, "badsh.json", doc.dumps())
        code, out, _ = run(capsys, "sh", "verify", path, "bad")
        assert code == 1
        assert "axiom (i)" in out

    def test_verify_unknown_name(self, capsys, sl2_doc):
        code, _, err = run(capsys, "sh", "verify", sl2_doc, "nope")
        assert code == 2
        assert "unknown-object" in err

    def test_twist(self, capsys, sl2_doc, tmp_path):
        skel_path = str(tmp_path / "skel.json")
        run(capsys, "sh", "from-cocycle", sl2_doc, "c3", "-o", skel_path)
        twisted_path = str(tmp_path / "twisted.json")
        code, out, _ = run(capsys, "sh", "twist", skel_path, "morphism",
                           "--seed", "11", "-o", twisted_path)
        assert code == 0 and "moved by" in out
        code, _, _ = run(capsys, "check", twisted_path)
        assert code == 0
        twisted = ProblemDocument.load(twisted_path)
        assert twisted.cochains["twist"].degree == 2

    def test_degree_3_differential_builds(self, capsys, monkeypatch, sl2_doc, tmp_path):
        # from-cocycle: the input's cocycle check only, as its document
        # holds the triple it was given; twist: the coboundary of the twist,
        # then the twisted cochain's cocycle check.  Extraction builds none:
        # the skeletal object's axioms already are the rows of d_3.
        import morphlie.cohomology

        built = _record_calls(monkeypatch, morphlie.cohomology, "mla_differential")
        skel_path = str(tmp_path / "skel.json")
        run(capsys, "sh", "from-cocycle", sl2_doc, "c3", "-o", skel_path)
        assert built == [3]
        built.clear()
        code, _, _ = run(capsys, "sh", "twist", skel_path, "morphism",
                         "--seed", "11", "-o", str(tmp_path / "twisted.json"))
        assert code == 0 and built == [2, 3]
        built.clear()
        code, _, _ = run(capsys, "sh", "to-triple", skel_path, "morphism",
                         "-o", str(tmp_path / "triple.json"))
        assert code == 0 and built == []

    def test_twist_deterministic(self, capsys, sl2_doc, tmp_path):
        skel_path = str(tmp_path / "skel.json")
        run(capsys, "sh", "from-cocycle", sl2_doc, "c3", "-o", skel_path)
        a = str(tmp_path / "a.json")
        b = str(tmp_path / "b.json")
        run(capsys, "sh", "twist", skel_path, "morphism", "--seed", "4", "-o", a)
        run(capsys, "sh", "twist", skel_path, "morphism", "--seed", "4", "-o", b)
        assert Path(a).read_text() == Path(b).read_text()


def _shape_only_sh():
    """Shapes line up but axiom (i) fails: d = id with a zero action."""
    from morphlie.shlie import TwoTermSh

    return TwoTermSh(sl2(), [Matrix.zeros(3, 3)] * 3, Matrix.identity(3))
