"""The document schema table, held to the reader and writer it replaced.

``morphlie.documents`` reads and writes every section by walking one table,
``KINDS``.  ``tests/document_referee.py`` keeps the per-section reader and
writer it replaced.  On a corpus of documents and their one-field
perturbations, both must give the same ``to_dict()`` output or the same
exception, byte for byte, and the same ``check_document`` rows; and
``morphlie check`` must end every one of them with exit code 0, 1 or 2.
The referee reads matrices through ``parse_vector``, a Fraction per scalar,
so the package's integer reading of matrices is held to it as well.
"""

import functools
import importlib.util
import json
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from morphlie import documents
from morphlie.cli import main
from morphlie.documents import KINDS, ProblemDocument, check_document
from morphlie.errors import MorphismAlgebraError, ParseError
from tests import document_referee
from tests.test_documents import rich_document_text

ROOT = Path(__file__).resolve().parent.parent

# Values put in place of a field or a whole entry: the wrong type, the wrong
# shape, an unknown name and a bad scalar.  No size is ever enlarged.
BAD = ("x", 0.5, True, None, {}, [], [[1]], "1/0")

# Strings put in place of the first scalar of a field: at the edges of what
# parse_scalar accepts (signs, padding, Unicode digits, underscores,
# unreduced and integral fractions, and an integer past Python's digit limit).
EDGE_SCALARS = ("1/0", "-0", "007", " 5", "5\n", "\u0663", "+5", "1_0", "2/4", "-3/1", "9" * 5000)


@functools.lru_cache(maxsize=None)
def base_documents(seed: int = 1) -> tuple:
    """rich_document_text() and the seed's small structure-workload inputs."""
    spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    docs = [("rich", json.loads(rich_document_text()))]
    with tempfile.TemporaryDirectory() as work:
        for i, slot in enumerate(gen.plan("structure", seed)):
            small = slot["obj"] in ("sl2-v1", "heis-to-a2", "a1-into-sl2")
            if (slot["kind"] in ("extend", "sh-from") and small) or slot["obj"] == "groups-doc":
                argv, _ = gen.make_request("structure", slot, seed, 0, i, work, {})
                path = next(a for a in argv if a.endswith(".json"))
                docs.append((f"{slot['kind']} {slot['obj']}",
                             json.loads(Path(path).read_text(encoding="utf-8"))))
    return tuple(docs)


def _replaced(data, path, value=None, delete=False):
    """A copy of data with the item at path replaced or deleted; the rest is shared."""
    head, *rest = path
    out = dict(data) if isinstance(data, dict) else list(data)
    if rest:
        out[head] = _replaced(data[head], rest, value, delete)
    elif delete:
        del out[head]
    else:
        out[head] = value
    return out


def _first_leaf(value):
    """The path of the first scalar inside nested lists, or None."""
    path = ()
    while isinstance(value, list) and value:
        path, value = path + (0,), value[0]
    return None if isinstance(value, list) else path


def perturbations(seed: int = 1):
    """(label, document) for each corpus document and each one-field change of it."""
    for label, doc in base_documents(seed):
        yield label, doc
        yield f"{label}: unknown section", dict(doc, bogus={})
        for section, entries in doc.items():
            for name, entry in entries.items():
                at = f"{label}: {section}/{name}"
                for bad in BAD:
                    yield f"{at} = {bad!r}", _replaced(doc, (section, name), bad)
                fields = entry.items() if isinstance(entry, dict) else [(None, entry)]
                for key, value in fields:
                    path = (section, name) if key is None else (section, name, key)
                    if key is not None:
                        yield f"{at} without {key}", _replaced(doc, path, delete=True)
                        for bad in BAD + ("nope",):
                            yield f"{at}.{key} = {bad!r}", _replaced(doc, path, bad)
                    leaf = _first_leaf(value)
                    for scalar in EDGE_SCALARS if leaf else ():
                        yield (f"{at}.{key} first scalar {scalar[:8]!r}",
                               _replaced(doc, path + leaf, scalar))


def _outcome(cls, data):
    try:
        return cls.from_dict(data).to_dict()
    except MorphismAlgebraError as exc:
        return type(exc), str(exc)


def _rows(build, data):
    try:
        return [tuple(r) for r in build(data)]
    except MorphismAlgebraError as exc:
        return type(exc), str(exc)


def test_table_agrees_with_the_referee():
    count = 0
    for label, data in perturbations():
        assert _outcome(ProblemDocument, data) == _outcome(document_referee.ProblemDocument,
                                                           data), label
        new = _rows(lambda d: check_document(json.dumps(d)), data)
        assert new == _rows(document_referee.ProblemDocument()._build, data), label
        count += 1
    assert count > 2500


def test_check_exits_cleanly_on_every_perturbed_document(tmp_path, capsys):
    codes = set()
    for i, (label, data) in enumerate(perturbations()):
        path = tmp_path / f"doc{i}.json"  # a new file: truncating one can be slow
        path.write_text(json.dumps(data), encoding="utf-8")
        code = main(["check", str(path)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2) and "Traceback" not in err, label
        codes.add(code)
    assert codes == {0, 1, 2}


def test_a_new_kind_is_one_entry(monkeypatch):
    toy = documents.Section("toy", lambda dim, entries: (dim, entries), (
        documents.Field("dim", documents.INT, lambda t: t[0]),
        documents.Field("entries", documents.VECTOR, lambda t: t[1], lambda f: (f["dim"],)),
    ))
    monkeypatch.setitem(KINDS, "toys", toy)
    data = {"toys": {"t": {"dim": 2, "entries": ["1/2", 3]}}}
    assert ProblemDocument.from_dict(data).to_dict() == {
        "toys": {"t": {"dim": 2, "entries": ["1/2", "3"]}}}
    with pytest.raises(ParseError) as info:
        ProblemDocument.from_dict({"toys": {"t": {"dim": 2}}})
    assert str(info.value) == "toys/t: missing field 'entries'"
    assert [tuple(r) for r in check_document(json.dumps(data))] == [("toys", "t", True, "")]


def test_readme_table_is_the_schema():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("\n## Problem documents\n"):].split("\n## ")[1]
    rows = re.findall(r"^\| `(\w+)` \| ([^|]*) \|", section, re.M)
    assert [name for name, _ in rows] == list(KINDS)
    for name, cell in rows:
        keys = [f.key for f in KINDS[name].fields if f.key is not None]
        assert re.findall(r"`(\w+)`", cell) == keys, name


def test_matrix_scalars_read_as_the_referee_reads_them():
    # Every scalar at every spot of a row: the value, or the exception and its message.
    def outcome(parse, value):
        try:
            return parse(value, "m", 2, 2).to_lists()
        except MorphismAlgebraError as exc:
            return type(exc), str(exc)

    for scalar in EDGE_SCALARS + (0, -7, "-12/8", "0/5", 5.0, True, None, [], "-", ""):
        for spot in range(4):
            value = [["1", "0"], ["-2", "1/3"]]
            value[spot // 2][spot % 2] = scalar
            assert outcome(documents.parse_matrix, value) == outcome(
                document_referee.parse_matrix, value), (scalar[:8] if isinstance(scalar, str)
                                                        else scalar, spot)
    # Whole rows after the first: not a list, short or long, with or without
    # a bad scalar in a row before them, and a bad scalar past a short row.
    for first in (["1", "0"], ["1", "x"], [0.5, "0"]):
        for later in ("x", 5, None, {}, [], ["1"], ["1", "0", "2"], ["1", "1/0"]):
            for value in ([first, later], [first, later, "x"], [first, ["7"], later]):
                assert outcome(documents.parse_matrix, value) == outcome(
                    document_referee.parse_matrix, value), value
    # A bracket's coefficient list, read by the bracket reader and compared
    # through whole documents: a bad scalar past index 0, not a list, short or
    # long, alone or after a good bracket.
    good = [0, 1, ["0", "0", "1"]]
    for coeffs in (["0", "x", "0"], ["1", "0", "1/0"], ["1", "0", 0.5], "x", 5, None, {},
                   [], ["1"], ["x"], ["1", "0", "0", "0"], ["1", "0", "0", "y"]):
        for brackets in ([[0, 2, coeffs]], [good, [1, 2, coeffs]], [[1, 2, coeffs], good]):
            data = {"lie_algebras": {"a": {"dim": 3, "brackets": brackets}}}
            assert _outcome(ProblemDocument, data) == _outcome(
                document_referee.ProblemDocument, data), brackets


def test_dumps_writes_what_json_dumps_writes():
    # Every document of the corpus that loads.
    count = 0
    for label, data in perturbations():
        try:
            doc = ProblemDocument.from_dict(data)
        except MorphismAlgebraError:
            continue
        assert doc.dumps() == json.dumps(doc.to_dict(), indent=2), label
        count += 1
    assert count > 300


TREES = st.recursive(st.text() | st.integers(),
                     lambda inner: st.lists(inner) | st.dictionaries(st.text(), inner),
                     max_leaves=40)


@given(TREES)
@example({"\u00e9\"\\": ["\u2603", "", [], {}, -3], "": {"a": [[]], "b": {"\n": "\x00"}}})
@settings(max_examples=300, deadline=None)
def test_json_writer_matches_json_dumps_on_random_trees(tree):
    # Strings with quotes, escapes and non-ASCII text, ints, and nested, empty lists and dicts.
    assert documents._json(tree) == json.dumps(tree, indent=2)
