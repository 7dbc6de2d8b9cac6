"""The command line reader: its refusals, its help, and argparse as its referee."""

import contextlib
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

from morphlie.cli import _base_document, main, read_argv
from morphlie.fixtures import a1_triple

from .argparse_referee import build_parser

ROOT = Path(__file__).resolve().parent.parent

# command words: (positional count, long options and their kinds)
SPEC = {
    ("check",): (1, {"--json": "flag"}),
    ("cohomology",): (2, {"--max-degree": "int", "--simple": "flag", "--group": "flag",
                          "--normalized": "flag", "--json": "flag", "--size-ceiling": "int"}),
    ("extend",): (2, {"--output": "str"}),
    ("extract",): (3, {"--output": "str"}),
    ("sh", "verify"): (2, {"--json": "flag"}),
    ("sh", "from-cocycle"): (2, {"--output": "str"}),
    ("sh", "to-triple"): (2, {"--output": "str"}),
    ("sh", "twist"): (2, {"--seed": "int", "--output": "str"}),
    ("group", "cohomology"): (2, {"--max-degree": "int", "--normalized": "flag",
                                  "--json": "flag", "--size-ceiling": "int"}),
}
POSITIONALS = ["doc.json", "rep", "c2", "check", "-", "-7", "", "x y"]
INT_VALUES = ["3", "0", "-1", "-12", "+2", " 4", "x", "1.5", "", "0x10"]
STR_VALUES = ["out.json", "dir/o.json", "-", "-1", "", "--json"]
UNKNOWN = ["--nope", "-x", "--seed", "--simple", "---json", "-j", "--jsn"]
BAD_COMMANDS = [[], ["sh"], ["group"], ["cohomolgy"], ["sh", "verfy"], ["group", "extend"],
                ["--json"], ["-1"], ["verify"]]


def _spellings(name, options):
    """name and each of its prefixes that no other option (nor --help) shares."""
    others = [o for o in [*options, "--help"] if o != name]
    return [name[:k] for k in range(3, len(name) + 1)
            if not any(o.startswith(name[:k]) for o in others)]


def _ambiguous(options):
    """Prefixes (longer than "--") that two or more options share."""
    return sorted({name[:k] for name in options for k in range(3, len(name))
                   if sum(o.startswith(name[:k]) for o in options) > 1})


def _option_tokens(rng, name, kind, options):
    spelled = rng.choice(_spellings(name, options))
    if kind == "flag":
        return [spelled + "=1"] if rng.random() < 0.05 else [spelled]
    value = rng.choice(INT_VALUES if kind == "int" else STR_VALUES)
    if name == "--output" and rng.random() < 0.4:
        spelled = "-o"
    form = rng.random()
    if form < 0.05:
        return [spelled]                       # no value, unless a positional follows
    if form < 0.35 and spelled != "-o":
        return [f"{spelled}={value}"]
    return [spelled, value]


def corpus(count=640, seed=2021):
    """A seeded list of argvs over every command, well and badly formed."""
    rng = random.Random(seed)
    commands = list(SPEC)
    out = []
    for i in range(count):
        if rng.random() < 0.06:
            words = rng.choice(BAD_COMMANDS)
            out.append(list(words) + ["doc.json", "rep"][:rng.randrange(3)])
            continue
        words = commands[i % len(commands)]
        positional_count, options = SPEC[words]
        count_here = positional_count
        if rng.random() < 0.12:
            count_here = max(0, positional_count + rng.choice([-1, 1]))
        pieces = [[rng.choice(POSITIONALS)] for _ in range(count_here)]
        for _ in range(rng.randrange(4)):
            name = rng.choice(list(options))
            pieces.insert(rng.randrange(len(pieces) + 1),
                          _option_tokens(rng, name, options[name], options))
        if rng.random() < 0.08:
            odd = _ambiguous(options) if rng.random() < 0.5 else []
            token = rng.choice(odd or [u for u in UNKNOWN if u not in options])
            pieces.insert(rng.randrange(len(pieces) + 1), [token])
        argv = list(words) + [t for piece in pieces for t in piece]
        if rng.random() < 0.02:
            argv.insert(0, "--json")
        out.append(argv)
    return out


def referee(parser, argv):
    """The argparse namespace for argv, or None where argparse exits 2."""
    try:
        with contextlib.redirect_stderr(io.StringIO()):
            return parser.parse_args(argv)
    except SystemExit as exc:
        assert exc.code == 2, argv
        return None


def test_reader_agrees_with_argparse(capsys):
    parser = build_parser()
    argvs = corpus()
    accepted = refused = 0
    wrong = []
    for argv in argvs:
        expected = referee(parser, argv)
        if expected is None:
            refused += 1
            code = main(argv)
            out, err = capsys.readouterr()
            if not (code == 2 and out == "" and err.startswith("error (usage-error): ")
                    and err.count("\n") == 1):
                wrong.append((argv, code, out, err))
            continue
        accepted += 1
        handler, args = read_argv(argv)
        values = {k: v for k, v in vars(expected).items()
                  if k not in ("handler", "command", "sh_command", "group_command")}
        if handler is not expected.handler or vars(args) != values:
            wrong.append((argv, handler.__name__, vars(args), values))
    assert wrong == []
    assert len(argvs) >= 500 and accepted >= 200 and refused >= 200
    assert {tuple(a[:2]) for a in argvs} >= {("sh", w) for w in ("verify", "twist")}


def test_corpus_has_every_form():
    tokens = [t for argv in corpus() for t in argv]
    assert any(t.startswith("--max-degree=") for t in tokens)
    assert any(t.startswith("--out") and t != "--output" for t in tokens)
    assert {"-o", "--s", "--si", "-1", "x", "--nope"} <= set(tokens)
    assert "--" not in tokens and not any(t in ("-h", "--h", "--he", "--help") for t in tokens)


@pytest.mark.parametrize("argv, message", [
    ([], "morphlie needs a command; see morphlie -h"),
    (["cohomolgy", "doc.json", "rep"], "unknown command 'cohomolgy'; see morphlie -h"),
    (["sh"], "sh needs a command; see morphlie -h"),
    (["sh", "verfy", "doc.json"], "unknown command 'sh verfy'; see morphlie -h"),
    (["check", "doc.json", "--bogus"], "unknown option '--bogus'"),
    (["cohomology", "doc.json", "rep", "--s", "3"],
     "ambiguous option '--s': --simple, --size-ceiling"),
    (["extract", "doc.json", "phi_hat"], "extract needs REP"),
    (["check", "doc.json", "extra"], "unexpected argument 'extra'"),
    (["cohomology", "doc.json", "rep", "--max-degree"], "--max-degree needs a value"),
    (["sh", "twist", "doc.json", "m", "--seed", "-o"], "--seed needs a value"),
    (["sh", "twist", "doc.json", "m", "--seed=x"], "--seed=x needs an integer, not 'x'"),
    (["check", "doc.json", "--json=yes"], "--json takes no value: '--json=yes'"),
    (["extend", "doc.json", "c", "-oout.json"], "unknown option '-oout.json'"),
    (["extend", "doc.json", "c", "--", "-o"], "unknown option '--'"),
])
def test_usage_error(capsys, argv, message):
    code = main(argv)
    out, err = capsys.readouterr()
    assert (code, out, err) == (2, "", f"error (usage-error): {message}\n")


def _readme_synopsis():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text[text.index("\n## Command line\n"):]
    return section.split("```\n")[1]


def test_top_level_help_is_the_readme_synopsis(capsys):
    assert main(["-h"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out == _readme_synopsis()


def test_command_help(capsys):
    assert main(["group", "cohomology", "--help"]) == 0
    out, _ = capsys.readouterr()
    synopsis = _readme_synopsis().splitlines()
    assert out.splitlines()[:2] == synopsis[-2:]
    assert all(f"  {name}" in out for name in SPEC[("group", "cohomology")][1])
    assert main(["sh", "-h"]) == 0
    out, _ = capsys.readouterr()
    assert out.splitlines() == [line for line in synopsis if line.startswith("morphlie sh ")]


def test_main_reads_sys_argv(tmp_path):
    doc = str(tmp_path / "a1.json")
    _base_document(a1_triple()).dump(doc)
    script = ("import sys\n"
              "sys.path.insert(0, sys.argv.pop(1))\n"
              "from morphlie.cli import main\n"
              "sys.exit(main())\n")

    def run(*argv):
        return subprocess.run([sys.executable, "-I", "-c", script, str(ROOT / "src"), *argv],
                              capture_output=True, text=True, timeout=60)

    done = run("cohomology", doc, "rep", "--max-deg=2", "--json")
    assert done.returncode == 0, done.stderr
    assert [r["cohomology"] for r in json.loads(done.stdout)["rows"]] == [1, 2, 0]
    done = run("cohomology", doc)
    assert (done.returncode, done.stdout) == (2, "")
    assert done.stderr == "error (usage-error): cohomology needs NAME\n"
