"""Expected cohomology tables, computed by the independent oracles.

    python3 bench/expect.py            # compare with bench/expected.json
    python3 bench/expect.py --write    # recompute and store it

The oracles in ``tests/oracles.py`` share no code with the package and are
slow, so the tables are computed once and stored.  For every object the
file holds, per degree n from 0 to the highest degree any workload asks
for, ``[dim C^n, rank d_n]`` and, on the Lie side, the rank of the
eta-free differential used by ``--simple``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import gen
from tests.oracles import (
    o_gp_dims,
    o_mla_basis,
    o_mla_matrix,
    o_mlg_basis,
    o_mlg_matrix,
    o_rank,
)

EXPECTED = Path(__file__).resolve().parent / "expected.json"


def _tops():
    """Highest degree asked for each (kind, object) over all workloads."""
    tops: dict[tuple[str, str], int] = {}
    for make in gen.WORKLOADS.values():
        for slot in make():
            if "top" in slot:
                key = (slot["kind"], slot["obj"])
                tops[key] = max(tops.get(key, 0), slot["top"])
    return tops


def lie_table(raw, top):
    rows = []
    for n in range(top + 1):
        mat = o_mla_matrix(raw, n)
        basis = o_mla_basis(raw, n)
        full = o_rank(mat)
        if n == 0:
            simple = full
        else:
            keep = [j for j, label in enumerate(basis) if label[0] != "eta"]
            simple = o_rank([[row[j] for j in keep] for row in mat])
        rows.append([len(basis), full, simple])
    return rows


def mlg_table(raw, top, normalized):
    return [[len(o_mlg_basis(raw, n, normalized)), o_rank(o_mlg_matrix(raw, n, normalized))]
            for n in range(top + 1)]


def group_table(raw, top, normalized):
    dims = o_gp_dims(raw["order"], raw["mul"], raw["identity"], raw["rho"], raw["dim"],
                     top, normalized)
    pool = raw["order"] - 1 if normalized else raw["order"]
    rows, prev = [], 0
    for n, h in enumerate(dims):
        c = raw["dim"] * pool ** n
        r = c - h - prev
        rows.append([c, r])
        prev = r
    return rows


def compute() -> dict:
    out = {"cohomology": {}, "mlg": {}, "group": {}}
    lie, mlg, groups = gen.lie_triples(), gen.group_triples(), gen.group_modules()
    for (kind, obj), top in sorted(_tops().items()):
        print(f"oracle: {kind} {obj} to degree {top}", file=sys.stderr, flush=True)
        if kind == "cohomology":
            out[kind][obj] = lie_table(lie[obj], top)
        elif kind == "mlg":
            out[kind][obj] = {"full": mlg_table(mlg[obj], top, False),
                              "normalized": mlg_table(mlg[obj], top, True)}
        else:
            out[kind][obj] = {"full": group_table(groups[obj], top, False),
                              "normalized": group_table(groups[obj], top, True)}
    return out


def load() -> dict:
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv) -> int:
    fresh = compute()
    if "--write" in argv:
        EXPECTED.write_text(json.dumps(fresh, indent=1, sort_keys=True) + "\n")
        print(f"wrote {EXPECTED}")
        return 0
    same = fresh == load()
    print("expected.json matches the oracles" if same else "expected.json is stale")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
