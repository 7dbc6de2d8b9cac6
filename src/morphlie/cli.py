"""Command line driver for problem documents.

Commands: check, cohomology, extend, extract, sh (verify, from-cocycle,
to-triple, twist), and group cohomology.  Exit codes form a stable
taxonomy: 0 all checks pass, 1 a check or axiom failed, 2 the document or
the request is invalid (parse errors, unknown names, shape or validation
errors, an output file that cannot be written), 3 a size ceiling refused
the computation.

A request is one process, and each request pays for all of its life: the
interpreter starts (site and the standard library), ``import morphlie.cli``
loads the package and builds nothing a request does not run, ``main``
serves the request with the cyclic collector paused, and the interpreter
shuts down.  The end of this module freezes everything start-up and the
import built (``gc.freeze``), so the collections at shutdown walk only the
request's own objects: from a request's last statement until its process
is reaped took a median 8.7 ms without the freeze and 2.2 ms with it
(Python 3.11, 2 vCPUs; 1.4-2.1 ms on 3.10-3.13; BENCH_29.json).  Only
importing this module freezes: ``import morphlie`` does not, and ``main``
freezes nothing, so a host that calls it many times still collects each
request's cycles.
"""

from __future__ import annotations

import gc
import json
import re
import sys
from math import comb
from types import SimpleNamespace
from typing import Callable

from .cohomology import MCochain, mla_complex
from .documents import CheckRow, ProblemDocument, ShMorphismEntry, check_document, located
from .errors import (MorphismAlgebraError, OutputError, ParseError, ShapeError,
                     SizeCeilingExceeded, UnknownObject, UsageError)
from .extensions import AbelianExtension, build_extension
from .groups import group_complex, mlg_complex
# rank is imported for bench/selftest.py, which checks that the tracer
# rebinds it here as in linalg and cohomology; the tables rank through Complex.
from .linalg import rank  # noqa: F401
from .sampling import Sampler
from .shlie import (SkeletalMorphismSh, check_sh_morphism, check_two_term_sh,
                    skeletal_to_triple, triple_to_skeletal, twist_equivalence)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_DOCUMENT_ERROR = 2
EXIT_SIZE_CEILING = 3

DEFAULT_SIZE_CEILING = 10 ** 6


def main(argv: list[str] | None = None) -> int:
    # The cyclic collector is paused for the request, as timeit pauses it.
    enabled = gc.isenabled()
    gc.disable()
    try:
        handler, args = read_argv(sys.argv[1:] if argv is None else argv)
        return handler(args)
    except SizeCeilingExceeded as exc:
        print(f"error (size-ceiling): {exc}", file=sys.stderr)
        return EXIT_SIZE_CEILING
    except MorphismAlgebraError as exc:
        print(f"error ({_category(exc)}): {exc}", file=sys.stderr)
        return EXIT_DOCUMENT_ERROR
    finally:
        if enabled:
            gc.enable()


def _category(exc: MorphismAlgebraError) -> str:
    return re.sub(r"(?<!^)(?=[A-Z])", "-", type(exc).__name__).lower()


# -- reading the command line --------------------------------------------------
# Each request is a fresh process, so argv is read against COMMANDS (at the end
# of the module), not an argparse tree.  COMMANDS maps the command words to
# (handler, positional names, options, help); an option is (names, kind,
# default, help), long name last: a "flag" stores True, an "int" or "str" a value.

_HELP = (("-h", "--help"), "flag", False, "print this help")
_METAVAR = {"flag": "", "int": " N", "str": " OUT"}


def read_argv(argv: list[str]) -> tuple[Callable[[SimpleNamespace], int], SimpleNamespace]:
    """The handler that argv names in COMMANDS, and the arguments it reads.

    Options may follow the command words in any order; the last of a repeated
    option wins.  A malformed command line raises UsageError.
    """
    n = 2 if argv[:1] in (["sh"], ["group"]) else 1
    key = " ".join(argv[:n])
    if key not in COMMANDS:
        if len(argv) < n:
            raise UsageError(f"{key or 'morphlie'} needs a command; see morphlie -h")
        if _option((_HELP,), argv[n - 1]) != (_HELP, None):
            raise UsageError(f"unknown command {key!r}; see morphlie -h")
        return _print_help, SimpleNamespace(words=argv[:n - 1])
    handler, wanted, options, _ = COMMANDS[key]
    values = {names[-1][2:].replace("-", "_"): default for names, _, default, _ in options}
    free, tokens = [], iter(argv[n:])
    for token in tokens:
        found = _option(options + (_HELP,), token)
        if found is None:
            free.append(token)
            continue
        (names, kind, _, _), value = found
        if kind == "flag":
            if value is not None:
                raise UsageError(f"{names[-1]} takes no value: {token!r}")
            if names == _HELP[0]:
                return _print_help, SimpleNamespace(words=argv[:n])
            value = True
        elif value is None:
            value = next(tokens, None)
            if value is None or _option(options + (_HELP,), value):
                raise UsageError(f"{token} needs a value")
        if kind == "int":
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"{token} needs an integer, not {value!r}") from None
        values[names[-1][2:].replace("-", "_")] = value
    if len(free) != len(wanted):
        raise UsageError(f"unexpected argument {free[len(wanted)]!r}" if free[len(wanted):]
                         else f"{key} needs {' '.join(wanted[len(free):]).upper()}")
    return handler, SimpleNamespace(**values, **dict(zip(wanted, free)))


def _option(options: tuple, token: str) -> tuple[tuple, str | None] | None:
    """The option token names and its ``=value``, or None if token is a positional.

    Only a long name takes a unique prefix or an ``=value``.  As under argparse,
    "-", a negative number and a token with a space are positionals.
    """
    if token[:1] != "-" or token == "-":
        return None
    name, eq, value = token.partition("=") if token[:2] == "--" else (token, "", "")
    found = [o for o in options if name in o[0]]
    if not found and token[:2] == "--" and len(name) > 2:
        found = [o for o in options if o[0][-1].startswith(name)]
    if len(found) > 1:
        raise UsageError(f"ambiguous option {token!r}: {', '.join(o[0][-1] for o in found)}")
    if found:
        return found[0], value if eq else None
    if re.match(r"-\d+$|-\d*\.\d+$", token) or " " in token:
        return None
    raise UsageError(f"unknown option {token!r}")


def _print_help(args) -> int:
    """Print the synopsis of the commands args.words begin, and a command's options."""
    for key, (_, wanted, options, text) in COMMANDS.items():
        if key.split()[:len(args.words)] != args.words:
            continue
        line = f"morphlie {key} {' '.join(wanted).upper()}"
        for names, kind, _, _ in options:
            word = f"[{names[0]}{_METAVAR[kind]}]"
            if len(line) - line.rfind("\n") + len(word) > 72:
                line += "\n" + " " * (line.index("[") - 1)
            line += " " + word
        print(line)
        if key.split() == args.words:
            print(f"\n{text}\n", *(f"  {', '.join(names) + _METAVAR[kind]:16}  {note}"
                                    for names, kind, _, note in options + (_HELP,)), sep="\n")
    return EXIT_OK


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
        triple = _named(doc.group_module_triples, args.name, "group module triple")
        return _table(args, mlg_complex(triple, args.normalized, args.size_ceiling),
                      2, kind="group-module-triple", normalized=args.normalized)
    rep = _named(doc.morphism_reps, args.name, "morphism rep")
    return _table(args, mla_complex(rep, size_ceiling=args.size_ceiling),
                  min(rep.base.g.dim, rep.base.h.dim) + 1, args.simple, kind="morphism-rep")


def cmd_group_cohomology(args) -> int:
    doc = ProblemDocument.loads(_read(args.file))
    module = _named(doc.group_modules, args.name, "group module")
    return _table(args, group_complex(module, args.normalized, args.size_ceiling),
                  2, kind="group-module", normalized=args.normalized)


def _table(args, cx, default_top: int, simple: bool = False, **header) -> int:
    top = default_top if args.max_degree is None else args.max_degree
    if top < 0:
        raise ShapeError("max degree must be nonnegative")
    _emit_table(args, {"object": args.name, **header, "rows": cx.table(top, simple)})
    return EXIT_OK


_COLUMNS = [("degree", "n"), ("cochains", "dim C"), ("rank", "rank d"),
            ("cocycles", "dim Z"), ("coboundaries", "dim B"),
            ("simple_coboundaries", "dim B_s"), ("simple_cohomology", "dim H_s"),
            ("cohomology", "dim H")]


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
        print("  " + "  ".join(str(row[k]).rjust(w) for (k, _), w in zip(keys, widths)))


# -- extensions ---------------------------------------------------------------


def cmd_extend(args) -> int:
    doc = ProblemDocument.loads(_read(args.file))
    cochain = _named(doc.cochains, args.cochain, "cochain")
    ext = build_extension(cochain.rep, cochain)
    out = _base_document(ext.rep)
    out.cochains["cocycle"] = ext.cocycle
    out.lie_algebras["g_hat"] = ext.total.g
    out.lie_algebras["h_hat"] = ext.total.h
    out.morphisms["phi_hat"] = ext.total
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


# -- sh commands --------------------------------------------------------------


def cmd_sh_verify(args) -> int:
    doc = ProblemDocument.loads(_read(args.file))
    if args.name in doc.two_term_sh:
        reports = [("two_term_sh", args.name, check_two_term_sh(doc.two_term_sh[args.name]))]
    elif args.name in doc.sh_morphisms:
        entry = doc.sh_morphisms[args.name]
        src, dst = doc.two_term_sh[entry.source], doc.two_term_sh[entry.target]
        reports = [("two_term_sh", entry.source, check_two_term_sh(src)),
                   ("two_term_sh", entry.target, check_two_term_sh(dst)),
                   ("sh_morphisms", args.name, check_sh_morphism(src, dst, entry.morphism))]
    else:
        raise UnknownObject(f"no two-term sh algebra or sh morphism named {args.name!r}")
    rows = [CheckRow(section, name, res.ok, res.detail) for section, name, res in reports]
    return EXIT_CHECK_FAILED if _print_rows(args, rows) else EXIT_OK


def cmd_sh_from_cocycle(args) -> int:
    doc = ProblemDocument.loads(_read(args.file))
    cochain = _named(doc.cochains, args.cochain, "cochain")
    out = _skeletal_document(triple_to_skeletal(cochain.rep.base, cochain.rep, cochain))
    _write_document(args, out, "built the skeletal object; all axioms verified")
    return EXIT_OK


def _loaded_skeletal(args) -> SkeletalMorphismSh:
    """The skeletal object of the sh morphism args.name in args.file."""
    doc = ProblemDocument.loads(_read(args.file))
    entry = _named(doc.sh_morphisms, args.name, "sh morphism")
    return SkeletalMorphismSh(doc.two_term_sh[entry.source], doc.two_term_sh[entry.target],
                              entry.morphism)


def cmd_sh_to_triple(args) -> int:
    base, rep, cochain = skeletal_to_triple(_loaded_skeletal(args))
    out = _base_document(rep)
    out.cochains["cochain"] = cochain
    _write_document(args, out, "extracted the representation triple")
    return EXIT_OK


def cmd_sh_twist(args) -> int:
    skeletal = _loaded_skeletal(args)
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
    out.sh_morphisms["morphism"] = ShMorphismEntry("source", "target", skeletal.morphism)
    return out


# -- shared helpers -----------------------------------------------------------


def _read(path: str) -> str:
    """The file decoded as UTF-8 in one call, with text mode's newlines: CR LF and CR read as LF."""
    try:
        with open(path, "rb") as fh:
            return fh.read().decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc


def _named(store: dict, name: str, kind: str):
    if name not in store:
        raise UnknownObject(f"no {kind} named {name!r} in the document")
    return store[name]


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


# -- the command table --------------------------------------------------------

_JSON = (("--json",), "flag", False, "print JSON")
_OUTPUT = (("-o", "--output"), "str", None, "write the document to OUT, not to stdout")
_CEILING = (("--size-ceiling",), "int", DEFAULT_SIZE_CEILING,
            f"refuse a degree whose cochains exceed N (default {DEFAULT_SIZE_CEILING})")

COMMANDS = {
    "check": (cmd_check, ("file",), (_JSON,), "validate every object in a document"),
    "cohomology": (cmd_cohomology, ("file", "name"), (
        (("--max-degree",), "int", None,
         "top degree (default min(dim g, dim h) + 1, or 2 with --group)"),
        (("--simple",), "flag", False, "add the eta-free coboundary columns (morphism reps only)"),
        (("--group",), "flag", False, "treat the name as a group module triple"),
        (("--normalized",), "flag", False, "normalized cochains (group mode only)"),
        _JSON, _CEILING), "per-degree cohomology table of a named object"),
    "extend": (cmd_extend, ("file", "cochain"), (_OUTPUT,),
               "build the extension of a degree-2 cocycle"),
    "extract": (cmd_extract, ("file", "total", "rep"), (_OUTPUT,), "read the cocycle of "
                "the extension TOTAL of the morphism rep REP off its canonical section"),
    "sh verify": (cmd_sh_verify, ("file", "name"), (_JSON,), "run the axiom report"),
    "sh from-cocycle": (cmd_sh_from_cocycle, ("file", "cochain"), (_OUTPUT,),
                        "skeletal object of a degree-3 cocycle"),
    "sh to-triple": (cmd_sh_to_triple, ("file", "name"), (_OUTPUT,),
                     "representation triple of a skeletal morphism"),
    "sh twist": (cmd_sh_twist, ("file", "name"), (
        (("--seed",), "int", 0, "seed of the random twist data (default 0)"), _OUTPUT),
        "twist a skeletal morphism by seeded random data"),
    "group cohomology": (cmd_group_cohomology, ("file", "name"), (
        (("--max-degree",), "int", 2, "top degree (default 2)"),
        (("--normalized",), "flag", False, "normalized cochains"), _JSON, _CEILING),
        "bar cohomology table of a group module"),
}

# Everything built so far (site, the standard library, every morphlie module)
# lives until the process ends.  Freezing moves it to the collector's permanent
# generation, so the collections at interpreter shutdown, and any after main,
# walk only a request's own objects.  Not in main: in a long-lived host that
# would also freeze, and so leak, each request's uncollected cycles.
gc.freeze()


if __name__ == "__main__":
    sys.exit(main())
