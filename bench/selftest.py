"""Self-tests of the benchmark's own parts.

    python3 bench/selftest.py

* the generator: the same seed gives byte-identical documents, another
  seed gives different ones;
* the checker: a correct table passes, while a corrupted expectation, a
  broken row identity and a changed cocycle are each reported;
* the tracer: the layer map resolves against the package, every import
  site of a traced function is rebound, and a map naming a missing
  function makes the request process exit nonzero.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import check
import expect
import gen
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = ROOT / ".bench_work" / f"selftest-{os.getpid()}"


def generated(workload, seed):
    """Bytes of every document of two passes, in request order."""
    out = []
    for p in range(2):
        work = WORKDIR / f"{workload}-{seed}-{p}"
        work.mkdir(parents=True)
        outputs = {}
        for i, slot in enumerate(gen.plan(workload, seed)):
            argv, ctx = gen.make_request(workload, slot, seed, p, i, work, outputs)
            outputs[i] = ctx
            out.append((argv or [])[:2])
        out += [f.read_bytes() for f in sorted(work.iterdir())]
        shutil.rmtree(work)
    return out


def test_generator():
    for workload in gen.WORKLOADS:
        a, b, c = generated(workload, 7), generated(workload, 7), generated(workload, 8)
        assert a == b, f"{workload}: seed 7 gave different documents on two calls"
        assert a != c, f"{workload}: seeds 7 and 8 gave the same documents"


def table_text(title, rows, simple):
    heads = ["n", "dim C", "rank d", "dim Z", "dim B"]
    heads += ["dim B_s", "dim H_s"] if simple else []
    heads.append("dim H")
    lines = [title, "  " + "  ".join(h.rjust(6) for h in heads)]
    for row in rows:
        lines.append("  " + "  ".join(str(x).rjust(6) for x in row))
    return "\n".join(lines) + "\n"


def correct_rows(table, simple):
    rows, prev, prev_s = [], 0, 0
    for n, (c, r, s) in enumerate(table):
        z = c - r
        row = [n, c, r, z, prev] + ([prev_s, z - prev_s] if simple else []) + [z - prev]
        rows.append(row)
        prev, prev_s = r, s
    return rows


def test_checker():
    expected = expect.load()
    ctx = {"kind": "cohomology", "obj": "heis5-adjoint", "top": 4, "flags": ["--simple"]}
    rows = correct_rows(expected["cohomology"]["heis5-adjoint"], True)
    title = "cohomology of 'rep' (morphism rep)"
    ok = {"code": 0, "stdout": table_text(title, rows, True), "stderr": ""}
    assert check.judge(ctx, ok, expected) is None, check.judge(ctx, ok, expected)

    corrupted = copy.deepcopy(expected)
    corrupted["cohomology"]["heis5-adjoint"][2][1] += 1
    assert check.judge(ctx, ok, corrupted), "a corrupted expectation went unnoticed"

    broken = copy.deepcopy(rows)
    broken[3][-1] += 1
    bad = dict(ok, stdout=table_text(title, broken, True))
    assert "dim H != dim Z - dim B" in (check.judge(ctx, bad, expected) or ""), \
        "a broken row identity went unnoticed"

    assert check.judge(ctx, dict(ok, code=1), expected), "exit code 1 went unnoticed"
    assert check.judge(ctx, dict(ok, traceback="Traceback\nBoom"), expected)

    raw = gen.lie_triples()["sl2-v1"]
    cochain = gen.cochain_blocks(raw, 2, gen.coboundary(raw, 1, gen.random_cochain(
        __import__("random").Random(1), raw, 1)))
    WORKDIR.mkdir(parents=True, exist_ok=True)
    out = WORKDIR / "extract.json"
    doc = gen.triple_doc(raw)
    changed = copy.deepcopy(cochain)
    changed["theta"][0][0] += 1
    doc["cochains"] = {"cocycle": {"morphism_rep": "rep", "degree": 2,
                                   **{k: gen.qmat(v) for k, v in changed.items()}}}
    out.write_text(json.dumps(doc))
    ctx = {"kind": "extract", "obj": "sl2-v1", "out": str(out), "cochain": cochain}
    assert check.judge(ctx, {"code": 0, "stdout": "", "stderr": ""}, expected), \
        "a changed extracted cocycle went unnoticed"
    ctx["cochain"] = changed
    assert check.judge(ctx, {"code": 0, "stdout": "", "stderr": ""}, expected) is None


def _child(code):
    return subprocess.run([sys.executable, "-I", "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)


def test_tracer():
    prelude = (f"import sys; sys.path[:0] = [{str(ROOT / 'src')!r}, {str(BENCH)!r}]; "
               "import tracer; ")
    rebound = _child(prelude + (
        "tracer.Tracer().install(); import morphlie.cli as c, morphlie.linalg as l, morphlie; "
        "assert c.rank is l.rank is morphlie.cohomology.rank and hasattr(c.rank, '__wrapped__'); "
        "assert hasattr(l.Matrix.__mul__, '__wrapped__'); print('ok')"))
    assert rebound.returncode == 0 and "ok" in rebound.stdout, rebound.stderr

    missing = _child(prelude + (
        "layers = tracer.load_layers(); layers['linalg']['rank'].append('rank_cached'); "
        "tracer.Tracer().install(layers)"))
    assert missing.returncode != 0 and "rank_cached" in missing.stderr, \
        "a missing function in the layer map did not fail the install"

    layers = tracer.load_layers()
    assert set(layers) <= {p.stem for p in (ROOT / "src" / "morphlie").glob("*.py")}, \
        "the layer map names a module that is not in src/morphlie"


def main() -> int:
    try:
        for test in (test_generator, test_checker, test_tracer):
            test()
            print(f"ok    {test.__name__}")
    finally:
        shutil.rmtree(WORKDIR, ignore_errors=True)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
