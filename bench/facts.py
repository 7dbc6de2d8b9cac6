"""Traced facts of the ROADMAP's largest requests, too slow for a timed run.

    python3 bench/facts.py

Runs, once each and traced, the sl2×sl2 adjoint table to degree 4 (with
and without ``--simple``) and the Z4→Z2 group table to degree 3, and prints
for each the in-process time, the share spent in ``rank``, the rank calls
against the distinct differentials ranked, and how often ``pullback_rep``
was rebuilt.  ``baseline.json`` holds the output at the seed commit.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import time

import gen
import run
import tracer

REQUESTS = [
    ("cohomology", "sl2xsl2-adjoint", 4, []),
    ("cohomology", "sl2xsl2-adjoint", 4, ["--simple"]),
    ("mlg", "z4-to-z2-sign", 3, []),
]


def main() -> int:
    workdir = run.ROOT / ".bench_work" / f"facts-{os.getpid()}"
    workdir.mkdir(parents=True)
    facts = []
    try:
        for n, (kind, obj, top, flags) in enumerate(REQUESTS):
            slot = {"kind": kind, "obj": obj, "top": top, "flags": flags}
            argv, _ = gen.make_request("ladder", slot, 0, 0, n, workdir, {})
            rec = run.execute(argv, True, n, workdir, time.monotonic() + 160)
            result = rec["result"]
            layers = tracer.request_layers(result["trace"])
            req_s = (result["t_ret"] - result["t_call"]) / 1e9
            rank_s = layers["self"]["linalg.rank"]
            facts.append({
                "request": " ".join([argv[0], "DOC"] + argv[2:]),
                "object": obj,
                "exit": result["code"],
                "in_process_s": round(req_s, 3),
                "rank_s": round(rank_s, 3),
                "rank_share": round(rank_s / req_s, 3),
                "rank_calls": layers["calls"]["linalg.rank"],
                "distinct_differentials": layers["counters"].get("rank_distinct", 0),
                "pullback_rep_calls": layers["calls"]["cecomplex.pullback"],
                "matmul_calls": layers["calls"]["linalg.matmul"],
            })
            print(json.dumps(facts[-1]), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0 if all(f["exit"] == 0 for f in facts) else 1


if __name__ == "__main__":
    sys.exit(main())
