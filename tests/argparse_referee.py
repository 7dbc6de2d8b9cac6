"""The argparse tree the command line was read with before its command table.

It is kept, verbatim, as the referee of ``morphlie.cli.read_argv``:
``tests/test_argv.py`` reads a generated corpus of command lines with both
and compares the handler and the arguments, or the refusal.
"""

import argparse

from morphlie.cli import (
    DEFAULT_SIZE_CEILING,
    cmd_check,
    cmd_cohomology,
    cmd_extend,
    cmd_extract,
    cmd_group_cohomology,
    cmd_sh_from_cocycle,
    cmd_sh_to_triple,
    cmd_sh_twist,
    cmd_sh_verify,
)


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
