"""Command line driver for problem documents.

Commands: check, cohomology, extend, extract, sh (verify, from-cocycle,
to-triple, twist), and group cohomology.  Exit codes form a stable
taxonomy: 0 all checks pass, 1 a check or axiom failed, 2 the document or
the request is invalid (parse errors, unknown names, shape or validation
errors, an output file that cannot be written), 3 a size ceiling refused
the computation.
"""

from __future__ import annotations

import argparse
import json
import sys
from math import comb

from .cohomology import MCochain, mla_complex
from .documents import CheckRow, ProblemDocument, ShMorphismEntry, check_document, located
from .errors import (
    MorphismAlgebraError,
    OutputError,
    ParseError,
    ShapeError,
    SizeCeilingExceeded,
    UnknownObject,
    UsageError,
)
from .extensions import AbelianExtension, build_extension
from .groups import group_complex, mlg_complex
# rank is imported for bench/selftest.py, which checks that the tracer
# rebinds it here as in linalg and cohomology; the tables rank through Complex.
from .linalg import rank  # noqa: F401
from .sampling import Sampler
from .shlie import (
    SkeletalMorphismSh,
    check_sh_morphism,
    check_two_term_sh,
    skeletal_to_triple,
    triple_to_skeletal,
    twist_equivalence,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DOCUMENT_ERROR = 2
EXIT_SIZE_CEILING = 3

DEFAULT_SIZE_CEILING = 10 ** 6


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SizeCeilingExceeded as exc:
        print(f"error (size-ceiling): {exc}", file=sys.stderr)
        return EXIT_SIZE_CEILING
    except MorphismAlgebraError as exc:
        print(f"error ({_category(exc)}): {exc}", file=sys.stderr)
        return EXIT_DOCUMENT_ERROR


def _category(exc: MorphismAlgebraError) -> str:
    name = type(exc).__name__
    out = []
    for i, ch in enumerate(name):
        if ch.isupper() and i > 0:
            out.append("-")
        out.append(ch.lower())
    return "".join(out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morphlie",
        description="Cohomology of morphism Lie algebras, exactly over Q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="validate every object in a document")
    p_check.add_argument("file")
    p_check.add_argument("--json", action="store_true")
    p_check.set_defaults(handler=cmd_check)

    p_co = sub.add_parser("cohomology",
                          help="per-degree cohomology table of a named object")
    p_co.add_argument("file")
    p_co.add_argument("name")
    p_co.add_argument("--max-degree", type=int, default=None)
    p_co.add_argument("--simple", action="store_true",
                      help="add the eta-free coboundary columns "
                           "(morphism reps only)")
    p_co.add_argument("--group", action="store_true",
                      help="treat the name as a group module triple")
    p_co.add_argument("--normalized", action="store_true",
                      help="normalized cochains (group mode only)")
    p_co.add_argument("--json", action="store_true")
    p_co.add_argument("--size-ceiling", type=int, default=DEFAULT_SIZE_CEILING)
    p_co.set_defaults(handler=cmd_cohomology)

    p_ext = sub.add_parser("extend",
                           help="build the extension of a degree-2 cocycle")
    p_ext.add_argument("file")
    p_ext.add_argument("cochain")
    p_ext.add_argument("-o", "--output", default=None)
    p_ext.set_defaults(handler=cmd_extend)

    p_extract = sub.add_parser(
        "extract",
        help="read the cocycle of a block-basis extension off its canonical section")
    p_extract.add_argument("file")
    p_extract.add_argument("total", help="morphism name of the extension")
    p_extract.add_argument("rep", help="morphism rep name of the base")
    p_extract.add_argument("-o", "--output", default=None)
    p_extract.set_defaults(handler=cmd_extract)

    p_sh = sub.add_parser("sh", help="two-term sh Lie algebra commands")
    sh_sub = p_sh.add_subparsers(dest="sh_command", required=True)

    p_verify = sh_sub.add_parser("verify", help="run the axiom report")
    p_verify.add_argument("file")
    p_verify.add_argument("name")
    p_verify.add_argument("--json", action="store_true")
    p_verify.set_defaults(handler=cmd_sh_verify)

    p_from = sh_sub.add_parser("from-cocycle",
                               help="skeletal object of a degree-3 cocycle")
    p_from.add_argument("file")
    p_from.add_argument("cochain")
    p_from.add_argument("-o", "--output", default=None)
    p_from.set_defaults(handler=cmd_sh_from_cocycle)

    p_to = sh_sub.add_parser("to-triple",
                             help="representation triple of a skeletal morphism")
    p_to.add_argument("file")
    p_to.add_argument("name")
    p_to.add_argument("-o", "--output", default=None)
    p_to.set_defaults(handler=cmd_sh_to_triple)

    p_twist = sh_sub.add_parser(
        "twist", help="twist a skeletal morphism by seeded random data")
    p_twist.add_argument("file")
    p_twist.add_argument("name")
    p_twist.add_argument("--seed", type=int, default=0)
    p_twist.add_argument("-o", "--output", default=None)
    p_twist.set_defaults(handler=cmd_sh_twist)

    p_group = sub.add_parser("group", help="finite group cohomology commands")
    group_sub = p_group.add_subparsers(dest="group_command", required=True)

    p_gco = group_sub.add_parser("cohomology",
                                 help="bar cohomology table of a group module")
    p_gco.add_argument("file")
    p_gco.add_argument("name")
    p_gco.add_argument("--max-degree", type=int, default=2)
    p_gco.add_argument("--normalized", action="store_true")
    p_gco.add_argument("--json", action="store_true")
    p_gco.add_argument("--size-ceiling", type=int, default=DEFAULT_SIZE_CEILING)
    p_gco.set_defaults(handler=cmd_group_cohomology)

    return parser


# -- check ------------------------------------------------------------------


def cmd_check(args) -> int:
    rows = check_document(_read(args.file))
    failures = _print_rows(args, rows)
    if not args.json:
        objects = "object" if len(rows) == 1 else "objects"
        fails = "failure" if failures == 1 else "failures"
        print(f"{len(rows)} {objects} checked, {failures} {fails}")
    return EXIT_CHECK_FAILED if failures else EXIT_OK


def _print_rows(args, rows: list[CheckRow]) -> int:
    """Print ok/FAIL rows, or with --json a {"results": [...]} list; count the failures."""
    if args.json:
        print(json.dumps({"results": [r._asdict() for r in rows]}, indent=2))
    else:
        for r in rows:
            if r.ok:
                print(f"ok    {r.section}/{r.name}")
            else:
                print(f"FAIL  {located(f'{r.section}/{r.name}', r.detail)}")
    return sum(not r.ok for r in rows)


# -- cohomology tables --------------------------------------------------------


def cmd_cohomology(args) -> int:
    if args.group and args.simple:
        raise UsageError("--simple applies to morphism reps, not to --group")
    if args.normalized and not args.group:
        raise UsageError("--normalized needs --group")
    doc = ProblemDocument.loads(_read(args.file))
    if args.group:
        triple = _named(doc.group_module_triples, args.name,
                        "group module triple")
        return _table(args, mlg_complex(triple, args.normalized, args.size_ceiling),
                      2, kind="group-module-triple", normalized=args.normalized)
    rep = _named(doc.morphism_reps, args.name, "morphism rep")
    return _table(args, mla_complex(rep, size_ceiling=args.size_ceiling),
                  min(rep.base.g.dim, rep.base.h.dim) + 1, args.simple,
                  kind="morphism-rep")


def cmd_group_cohomology(args) -> int:
    doc = ProblemDocument.loads(_read(args.file))
    module = _named(doc.group_modules, args.name, "group module")
    return _table(args, group_complex(module, args.normalized, args.size_ceiling),
                  2, kind="group-module", normalized=args.normalized)


def _table(args, cx, default_top: int, simple: bool = False, **header) -> int:
    top = default_top if args.max_degree is None else args.max_degree
    _nonnegative(top)
    _emit_table(args, {"object": args.name, **header, "rows": cx.table(top, simple)})
    return EXIT_OK


_COLUMNS = [
    ("degree", "n"),
    ("cochains", "dim C"),
    ("rank", "rank d"),
    ("cocycles", "dim Z"),
    ("coboundaries", "dim B"),
    ("simple_coboundaries", "dim B_s"),
    ("simple_cohomology", "dim H_s"),
    ("cohomology", "dim H"),
]


def _emit_table(args, payload: dict) -> None:
    if args.json:
        print(json.dumps(payload, indent=2))
        return
    label = payload["kind"].replace("-", " ")
    suffix = " (normalized)" if payload.get("normalized") else ""
    print(f"cohomology of {payload['object']!r} ({label}){suffix}")
    keys = [(k, h) for k, h in _COLUMNS if k in payload["rows"][0]]
    widths = [max(len(h), 6) for _, h in keys]
    print("  " + "  ".join(h.rjust(w) for (_, h), w in zip(keys, widths)))
    for row in payload["rows"]:
        print("  " + "  ".join(str(row[k]).rjust(w)
                               for (k, _), w in zip(keys, widths)))


# -- extensions ---------------------------------------------------------------


def cmd_extend(args) -> int:
    doc = ProblemDocument.loads(_read(args.file))
    cochain = _named(doc.cochains, args.cochain, "cochain")
    ext = build_extension(cochain.rep, cochain)
    out = _extension_document(ext)
    _write_document(args, out,
                    f"built extension: total g dim {ext.total.g.dim}, "
                    f"total h dim {ext.total.h.dim}")
    return EXIT_OK


def cmd_extract(args) -> int:
    doc = ProblemDocument.loads(_read(args.file))
    total = _named(doc.morphisms, args.total, "morphism")
    rep = _named(doc.morphism_reps, args.rep, "morphism rep")
    ext = AbelianExtension.from_blocks(rep, total)
    out = _base_document(rep)
    out.cochains["cocycle"] = ext.cocycle
    _write_document(args, out, "extracted the canonical-section cocycle")
    return EXIT_OK


def _base_document(rep) -> ProblemDocument:
    out = ProblemDocument()
    out.lie_algebras["g"] = rep.base.g
    out.lie_algebras["h"] = rep.base.h
    out.morphisms["phi"] = rep.base
    out.representations["v"] = rep.v
    out.representations["w"] = rep.w
    out.morphism_reps["rep"] = rep
    return out


def _extension_document(ext) -> ProblemDocument:
    out = _base_document(ext.rep)
    out.cochains["cocycle"] = ext.cocycle
    out.lie_algebras["g_hat"] = ext.total.g
    out.lie_algebras["h_hat"] = ext.total.h
    out.morphisms["phi_hat"] = ext.total
    return out


# -- sh commands --------------------------------------------------------------


def cmd_sh_verify(args) -> int:
    doc = ProblemDocument.loads(_read(args.file))
    if args.name in doc.two_term_sh:
        reports = [("two_term_sh", args.name, check_two_term_sh(doc.two_term_sh[args.name]))]
    elif args.name in doc.sh_morphisms:
        entry = doc.sh_morphisms[args.name]
        src = doc.two_term_sh[entry.source]
        dst = doc.two_term_sh[entry.target]
        reports = [("two_term_sh", entry.source, check_two_term_sh(src)),
                   ("two_term_sh", entry.target, check_two_term_sh(dst)),
                   ("sh_morphisms", args.name, check_sh_morphism(src, dst, entry.morphism))]
    else:
        raise UnknownObject(
            f"no two-term sh algebra or sh morphism named {args.name!r}")
    rows = [CheckRow(section, name, res.ok, res.detail) for section, name, res in reports]
    return EXIT_CHECK_FAILED if _print_rows(args, rows) else EXIT_OK


def cmd_sh_from_cocycle(args) -> int:
    doc = ProblemDocument.loads(_read(args.file))
    cochain = _named(doc.cochains, args.cochain, "cochain")
    out = _skeletal_document(triple_to_skeletal(cochain.rep.base, cochain.rep, cochain))
    _write_document(args, out, "built the skeletal object; all axioms verified")
    return EXIT_OK


def cmd_sh_to_triple(args) -> int:
    doc = ProblemDocument.loads(_read(args.file))
    entry = _named(doc.sh_morphisms, args.name, "sh morphism")
    skeletal = SkeletalMorphismSh(doc.two_term_sh[entry.source],
                                  doc.two_term_sh[entry.target],
                                  entry.morphism)
    base, rep, cochain = skeletal_to_triple(skeletal)
    out = _base_document(rep)
    out.cochains["cochain"] = cochain
    _write_document(args, out, "extracted the representation triple")
    return EXIT_OK


def cmd_sh_twist(args) -> int:
    doc = ProblemDocument.loads(_read(args.file))
    entry = _named(doc.sh_morphisms, args.name, "sh morphism")
    skeletal = SkeletalMorphismSh(doc.two_term_sh[entry.source],
                                  doc.two_term_sh[entry.target],
                                  entry.morphism)
    s = Sampler(args.seed)
    src, dst = skeletal.source, skeletal.target
    sigma = s.matrix(src.dim1, comb(src.dim0, 2))
    sigma_p = s.matrix(dst.dim1, comb(dst.dim0, 2))
    phi = s.matrix(dst.dim1, src.dim0)
    twisted = twist_equivalence(skeletal, sigma, sigma_p, phi)
    out = _skeletal_document(twisted)
    out.cochains["twist"] = MCochain(twisted.triple[1], 2, theta=sigma, gamma=sigma_p, eta=phi)
    _write_document(args, out,
                    f"twisted with seed {args.seed}; the cochain moved by "
                    "exactly the coboundary of the twist")
    return EXIT_OK


def _skeletal_document(skeletal: SkeletalMorphismSh) -> ProblemDocument:
    """The document of a skeletal object and its triple."""
    _, rep, cochain = skeletal.triple
    out = _base_document(rep)
    out.cochains["cochain"] = cochain
    out.two_term_sh["source"] = skeletal.source
    out.two_term_sh["target"] = skeletal.target
    out.sh_morphisms["morphism"] = ShMorphismEntry(
        "source", "target", skeletal.morphism)
    return out


# -- shared helpers -----------------------------------------------------------


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _named(store: dict, name: str, kind: str):
    if name not in store:
        raise UnknownObject(f"no {kind} named {name!r} in the document")
    return store[name]


def _nonnegative(top: int) -> None:
    if top < 0:
        raise ShapeError("max degree must be nonnegative")


def _write_document(args, out: ProblemDocument, summary: str) -> None:
    if args.output:
        try:
            out.dump(args.output)
        except OSError as exc:
            raise OutputError(f"cannot write {args.output}: {exc.strerror}") from exc
        print(f"{summary}; wrote {args.output}")
    else:
        print(out.dumps())
        print(summary, file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
