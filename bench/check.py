"""Judge one request's output against what is known to be true.

``judge(ctx, result, expected)`` returns None for a correct output and a
one-line reason otherwise.  A request fails on an unexpected exit code, on a
traceback, or on output that does not match:

* cohomology tables must have the oracle's ``dim C`` and ``rank d`` in every
  row, and satisfy dim Z = dim C - rank d, dim B = rank d_{n-1} and
  dim H = dim Z - dim B (and the same for the ``--simple`` columns).  The
  conjugated workload is judged against the same tables, since cohomology
  does not depend on the basis;
* ``check`` must report every object ok;
* ``extend`` must carry the input cocycle and total algebras of the right
  sizes, and ``extract`` must return that cocycle bit-exactly;
* ``sh from-cocycle`` must keep the cochain, ``sh verify`` must pass every
  axiom, and ``sh twist`` must move the cochain by exactly the oracle
  coboundary of the twist it reports.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from itertools import combinations

import gen

_TITLES = {
    "cohomology": "cohomology of 'rep' (morphism rep)",
    "mlg": "cohomology of 'triple' (group module triple)",
    "group": "cohomology of 'module' (group module)",
}
_HEADERS = {"n": "degree", "dim C": "cochains", "rank d": "rank", "dim Z": "cocycles",
            "dim B": "coboundaries", "dim B_s": "simple_coboundaries",
            "dim H_s": "simple_cohomology", "dim H": "cohomology"}


def parse_table(text: str):
    """(title, rows as dicts keyed like the CLI's --json rows)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if len(lines) < 2:
        raise ValueError("no table in the output")
    heads = re.split(r"\s{2,}", lines[1].strip())
    if any(h not in _HEADERS for h in heads):
        raise ValueError(f"unknown column in {lines[1].strip()!r}")
    keys = [_HEADERS[h] for h in heads]
    rows = []
    for ln in lines[2:]:
        cells = ln.split()
        if len(cells) != len(keys):
            raise ValueError(f"ragged table row {ln.strip()!r}")
        rows.append(dict(zip(keys, map(int, cells))))
    return lines[0], rows


def expected_rows(ctx, expected):
    kind, obj, top, flags = ctx["kind"], ctx["obj"], ctx["top"], ctx["flags"]
    if kind == "cohomology":
        table = expected["cohomology"][obj]
    else:
        table = expected[kind][obj]["normalized" if "--normalized" in flags else "full"]
    if len(table) < top + 1:
        raise KeyError(f"expected.json stops below degree {top} for {obj}")
    return table[:top + 1]


def judge_table(ctx, stdout, expected):
    title, rows = parse_table(stdout)
    want_title = _TITLES[ctx["kind"]]
    if ctx["kind"] == "mlg" and "--normalized" in ctx["flags"]:
        want_title += " (normalized)"
    if title.strip() != want_title:
        return f"title {title.strip()!r}"
    table = expected_rows(ctx, expected)
    if len(rows) != len(table):
        return f"{len(rows)} rows, expected {len(table)}"
    simple = "--simple" in ctx["flags"]
    prev, prev_s = 0, 0
    for n, (row, want) in enumerate(zip(rows, table)):
        if row["degree"] != n:
            return f"row {n} is labelled {row['degree']}"
        if row["cochains"] != want[0] or row["rank"] != want[1]:
            return (f"degree {n}: dim C {row['cochains']}, rank {row['rank']}; "
                    f"oracle says {want[0]}, {want[1]}")
        if row["cocycles"] != row["cochains"] - row["rank"]:
            return f"degree {n}: dim Z != dim C - rank d"
        if row["coboundaries"] != prev:
            return f"degree {n}: dim B {row['coboundaries']}, oracle rank d_(n-1) is {prev}"
        if row["cohomology"] != row["cocycles"] - row["coboundaries"]:
            return f"degree {n}: dim H != dim Z - dim B"
        if simple != ("simple_cohomology" in row):
            return f"degree {n}: --simple columns present={not simple}"
        if simple:
            if row["simple_coboundaries"] != prev_s:
                return f"degree {n}: dim B_s {row['simple_coboundaries']}, oracle says {prev_s}"
            if row["simple_cohomology"] != row["cocycles"] - row["simple_coboundaries"]:
                return f"degree {n}: dim H_s != dim Z - dim B_s"
            prev_s = want[2]
        prev = want[1]
    return None


def _doc(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _blocks(entry):
    return {k: entry.get(k) for k in ("theta", "gamma", "eta")}


def _strings(blocks):
    return {k: gen.qmat(v) for k, v in blocks.items()}


def _same_triple(doc, raw):
    want = gen.triple_doc(raw)
    for section, names in (("lie_algebras", ("g", "h")), ("representations", ("v", "w")),
                           ("morphisms", ("phi",)), ("morphism_reps", ("rep",))):
        for name in names:
            if doc.get(section, {}).get(name) != want[section][name]:
                return f"{section}/{name} differs from the input triple"
    return None


def _as_dicts(raw, n, blocks):
    """Document matrices (column t = tuple t) back to oracle cochain dicts."""
    def block(mat, dim_alg, deg, dim_mod):
        tuples = list(combinations(range(dim_alg), deg))
        return {t: [Fraction(mat[r][i]) for r in range(dim_mod)] for i, t in enumerate(tuples)}
    return (block(blocks["theta"], raw["dim_g"], n, raw["dim_v"]),
            block(blocks["gamma"], raw["dim_h"], n, raw["dim_w"]),
            block(blocks["eta"], raw["dim_g"], n - 1, raw["dim_w"]))


def judge_structure(ctx, stdout):
    kind, obj = ctx["kind"], ctx["obj"]
    if kind == "check":
        lines = stdout.splitlines()
        n = ctx["objects"]
        bad = [ln for ln in lines[:-1] if not ln.startswith("ok    ")]
        if bad or len(lines) != n + 1:
            return f"check reported {bad[:1] or len(lines) - 1}"
        if lines[-1] != f"{n} objects checked, 0 failures":
            return f"check summary {lines[-1]!r}"
        return None
    if kind == "sh-verify":
        want = ["ok    two_term_sh/source", "ok    two_term_sh/target",
                "ok    sh_morphisms/morphism"]
        return None if stdout.splitlines() == want else f"sh verify said {stdout!r}"
    raw = gen.lie_triples()[obj]
    out = _doc(ctx["out"])
    if kind == "extend":
        if not stdout.startswith(f"built extension: total g dim {raw['dim_g'] + raw['dim_v']}, "
                                 f"total h dim {raw['dim_h'] + raw['dim_w']}; wrote "):
            return f"extend said {stdout.strip()!r}"
        if out["lie_algebras"]["g_hat"]["dim"] != raw["dim_g"] + raw["dim_v"]:
            return "g_hat has the wrong dimension"
        if out["lie_algebras"]["h_hat"]["dim"] != raw["dim_h"] + raw["dim_w"]:
            return "h_hat has the wrong dimension"
        if "phi_hat" not in out["morphisms"]:
            return "no phi_hat in the extension document"
        if _blocks(out["cochains"]["cocycle"]) != _strings(ctx["cochain"]):
            return "extension document does not carry the input cocycle"
        return _same_triple(out, raw)
    if kind == "extract":
        if _blocks(out["cochains"]["cocycle"]) != _strings(ctx["cochain"]):
            return "extracted cocycle differs from the one extended"
        return _same_triple(out, raw)
    if kind == "sh-from":
        if _blocks(out["cochains"]["cochain"]) != _strings(ctx["cochain"]):
            return "skeletal object does not carry the input cochain"
        if set(out.get("two_term_sh", {})) != {"source", "target"}:
            return "skeletal document lacks the two sh algebras"
        return _same_triple(out, raw)
    if kind == "sh-twist":
        bad = _same_triple(out, raw)
        if bad:
            return bad
        before = _blocks(_doc(ctx["source"]["out"])["cochains"]["cochain"])
        after = _blocks(out["cochains"]["cochain"])
        twist = _blocks(out["cochains"]["twist"])
        moved = gen.cochain_blocks(raw, 3, gen.coboundary(raw, 2, _as_dicts(raw, 2, twist)))
        for key in ("theta", "gamma", "eta"):
            diff = [[Fraction(a) - Fraction(b) for a, b in zip(ra, rb)]
                    for ra, rb in zip(after[key], before[key])]
            if diff != moved[key]:
                return f"twist moved the {key} block by something other than d(twist)"
        return None
    return f"no rule for request kind {kind!r}"


def judge(ctx, result, expected):
    """None if the request's output is right, else why it is not."""
    if result is None:
        return "no result (the request process died)"
    if result.get("harness_error"):
        return result["harness_error"]
    if result.get("traceback"):
        return "traceback: " + result["traceback"].strip().splitlines()[-1]
    if "Traceback (most recent call last)" in result.get("stderr", ""):
        return "traceback on stderr"
    if result.get("code") != 0:
        return f"exit code {result.get('code')}: {result.get('stderr', '').strip()[:200]}"
    try:
        if ctx["kind"] in _TITLES:
            return judge_table(ctx, result["stdout"], expected)
        return judge_structure(ctx, result["stdout"])
    except (ValueError, KeyError, TypeError, OSError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
