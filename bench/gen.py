"""Seeded inputs for the benchmark, built without importing morphlie.

Objects are kept in the raw form that ``tests/oracles.py`` consumes (plain
lists of Fractions), so the same data feeds the oracle expectations and the
JSON documents the program reads.  Only the standard library and the
oracles are used: a change to the package cannot change the inputs.

A workload is a list of *slots*.  Each slot is one request kind; the
documents of a request come from ``make_request`` and depend only on the
workload, the seed, the pass and the slot (and, for a request that reads
another one's output, on that output).
"""

from __future__ import annotations

import json
import random
import sys
from fractions import Fraction
from itertools import combinations
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from tests.oracles import o_mla_apply  # noqa: E402

F0 = Fraction(0)
F1 = Fraction(1)


# -- small exact linear algebra ------------------------------------------------


def identity(n):
    return [[F1 if i == j else F0 for j in range(n)] for i in range(n)]


def zeros(r, c):
    return [[F0] * c for _ in range(r)]


def matmul(a, b):
    if not a:
        return []
    inner, cols = len(b), (len(b[0]) if b else 0)
    out = zeros(len(a), cols)
    for i, row in enumerate(a):
        acc = out[i]
        for k in range(inner):
            x = row[k]
            if x:
                for j, y in enumerate(b[k]):
                    if y:
                        acc[j] += x * y
    return out


def inverse(m):
    n = len(m)
    aug = [list(m[i]) + identity(n)[i] for i in range(n)]
    for c in range(n):
        piv = next(i for i in range(c, n) if aug[i][c])
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = F1 / aug[c][c]
        aug[c] = [x * inv for x in aug[c]]
        for i in range(n):
            if i != c and aug[i][c]:
                f = aug[i][c]
                aug[i] = [x - f * y for x, y in zip(aug[i], aug[c])]
    return [row[n:] for row in aug]


def lincomb(coeffs, mats):
    """sum_k coeffs[k] * mats[k] for same-shape matrices."""
    r, c = len(mats[0]), len(mats[0][0]) if mats[0] else 0
    out = zeros(r, c)
    for a, m in zip(coeffs, mats):
        if a:
            for i in range(r):
                for j in range(c):
                    if m[i][j]:
                        out[i][j] += a * m[i][j]
    return out


# -- Lie side: structure constants c[i][j] (a vector), actions as matrices ------


def lie(dim, brackets):
    """Full antisymmetric structure table from {(i, j): vector}."""
    c = [[[F0] * dim for _ in range(dim)] for _ in range(dim)]
    for (i, j), vec in brackets.items():
        c[i][j] = [Fraction(x) for x in vec]
        c[j][i] = [-Fraction(x) for x in vec]
    return c


def unit(dim, k, scale=1):
    return [Fraction(scale) if i == k else F0 for i in range(dim)]


def sl2():
    return lie(3, {(0, 1): unit(3, 2), (0, 2): unit(3, 0, -2), (1, 2): unit(3, 1, 2)})


def heis(n):
    """Heisenberg algebra of dim 2n+1: [x_i, y_i] = z."""
    dim = 2 * n + 1
    return lie(dim, {(i, n + i): unit(dim, dim - 1) for i in range(n)})


def abelian(dim):
    return lie(dim, {})


def direct_sum(a, b):
    na, nb = len(a), len(b)
    br = {}
    for i, j in combinations(range(na), 2):
        if any(a[i][j]):
            br[(i, j)] = list(a[i][j]) + [F0] * nb
    for i, j in combinations(range(nb), 2):
        if any(b[i][j]):
            br[(na + i, na + j)] = [F0] * na + list(b[i][j])
    return lie(na + nb, br)


def adjoint(c):
    n = len(c)
    return [[[c[i][j][k] for j in range(n)] for k in range(n)] for i in range(n)]


def trivial_action(dim_g, dim_v):
    return [zeros(dim_v, dim_v) for _ in range(dim_g)]


def v1_action():
    e = [[F0, F1], [F0, F0]]
    f = [[F0, F0], [F1, F0]]
    h = [[F1, F0], [F0, -F1]]
    return [e, f, h]


def triple(c_g, c_h, phi, act_v, act_w, psi):
    """A morphism representation in the raw form of tests/oracles.py."""
    return {
        "dim_g": len(c_g), "dim_h": len(c_h),
        "dim_v": len(psi[0]) if psi else len(act_v[0]) if act_v else 0,
        "dim_w": len(psi),
        "c_g": c_g, "c_h": c_h,
        "phi": [[Fraction(x) for x in r] for r in phi],
        "psi": [[Fraction(x) for x in r] for r in psi],
        "act_v": act_v, "act_w": act_w,
    }


def identity_triple(c, act, dim_v):
    return triple(c, c, identity(len(c)), act, act, identity(dim_v))


def adjoint_triple(c):
    return identity_triple(c, adjoint(c), len(c))


def lie_triples():
    """The catalog fixtures plus the ladder's larger adjoint triples."""
    s, h3 = sl2(), heis(1)
    a1, a2 = abelian(1), abelian(2)
    return {
        "a1-trivial": identity_triple(a1, trivial_action(1, 1), 1),
        "a2-trivial": identity_triple(a2, trivial_action(2, 1), 1),
        "sl2-trivial": identity_triple(s, trivial_action(3, 1), 1),
        "sl2-v1": identity_triple(s, v1_action(), 2),
        "sl2-adjoint": adjoint_triple(s),
        "heis-trivial": identity_triple(h3, trivial_action(3, 1), 1),
        "heis-adjoint": adjoint_triple(h3),
        "heis-to-a2": triple(h3, a2, [[1, 0, 0], [0, 1, 0]], trivial_action(3, 1),
                             trivial_action(2, 1), [[1]]),
        "a1-into-sl2": triple(a1, s, [[1], [0], [0]], trivial_action(1, 1),
                              v1_action(), [[1], [0]]),
        "heis5-adjoint": adjoint_triple(heis(2)),
        "sl2xsl2-adjoint": adjoint_triple(direct_sum(s, s)),
    }


# -- group side --------------------------------------------------------------------


def cyclic(n):
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def klein():
    return [[a ^ b for b in range(4)] for a in range(4)]


def power_action(gen, order):
    out, cur = [], identity(len(gen))
    for _ in range(order):
        out.append(cur)
        cur = matmul(cur, gen)
    return out


def sign_action(order):
    return [[[Fraction((-1) ** g)]] for g in range(order)]


def trivial_group_action(order, dim):
    return [identity(dim) for _ in range(order)]


def rot3():
    return power_action([[F0, -F1], [F1, -F1]], 3)


def rot4():
    return power_action([[F0, -F1], [F1, F0]], 4)


def group_modules():
    """Catalog group modules, in the raw form of oracles.o_gp_dims."""
    def module(mul, rho):
        return {"order": len(mul), "mul": mul, "identity": 0, "rho": rho,
                "dim": len(rho[0])}
    return {
        "z2-sign": module(cyclic(2), sign_action(2)),
        "z4-sign": module(cyclic(4), sign_action(4)),
        "z3-rotation": module(cyclic(3), rot3()),
        "z4-rotation": module(cyclic(4), rot4()),
        "klein-trivial": module(klein(), trivial_group_action(4, 1)),
    }


def group_triples():
    """Group module triples, in the raw form of oracles.o_mlg_dims."""
    def gt(mul_g, mul_h, phi, rho_v, rho_w, psi):
        return {"order_g": len(mul_g), "id_g": 0, "mul_g": mul_g,
                "order_h": len(mul_h), "id_h": 0, "mul_h": mul_h,
                "phi": list(phi), "rho_v": rho_v, "rho_w": rho_w,
                "dim_v": len(rho_v[0]), "dim_w": len(rho_w[0]),
                "psi": [[Fraction(x) for x in r] for r in psi]}
    return {
        "klein-to-z2": gt(klein(), cyclic(2), [0, 0, 1, 1],
                          trivial_group_action(4, 1), trivial_group_action(2, 1), [[1]]),
        "z4-to-z2-sign": gt(cyclic(4), cyclic(2), [0, 1, 0, 1],
                            rot4(), sign_action(2), [[0, 0]]),
    }


# -- seeded changes of basis -------------------------------------------------------

# Off-diagonal entries of a random basis: small integers and halves, so the
# conjugated data is rational but its entries stay short.
_STEPS = [Fraction(x) for x in (1, -1, 2, -2)] + [Fraction(1, 2), Fraction(-1, 2)]


def random_basis(rng, n):
    """A random invertible rational matrix, upper bidiagonal.

    New basis vector j is +-e_j plus a_j e_(j-1), with random signs and a_j
    drawn from _STEPS; the inverse is a full upper triangle.  The shape is
    the same for every draw, so the cost of a conjugated request varies
    little from one draw to the next; only the coefficients are random.
    """
    m = identity(n)
    for j in range(1, n):
        m[j - 1][j] = rng.choice(_STEPS)
    signs = [rng.choice((F1, -F1)) for _ in range(n)]
    return [[x * s for x in row] for row, s in zip(m, signs)]


def conjugate_lie(c, p, p_inv):
    """Structure constants in the basis given by the columns of p."""
    n = len(c)
    out = [[[F0] * n for _ in range(n)] for _ in range(n)]
    for i, j in combinations(range(n), 2):
        vec = [F0] * n
        for k in range(n):
            if not p[k][i]:
                continue
            for l in range(n):
                if p[l][j]:
                    coeff = p[k][i] * p[l][j]
                    for r, x in enumerate(c[k][l]):
                        if x:
                            vec[r] += coeff * x
        new = [sum((p_inv[r][s] * vec[s] for s in range(n) if vec[s]), F0)
               for r in range(n)]
        out[i][j] = new
        out[j][i] = [-x for x in new]
    return out


def conjugate_action(act, p, q, q_inv):
    """Action matrices after changing the algebra basis (p) and module basis (q)."""
    n = len(act)
    return [matmul(q_inv, matmul(lincomb([p[k][i] for k in range(n)], act), q))
            for i in range(n)]


def conjugate_triple(raw, rng):
    """The same morphism representation written in fresh random bases."""
    pg, ph = random_basis(rng, raw["dim_g"]), random_basis(rng, raw["dim_h"])
    qv, qw = random_basis(rng, raw["dim_v"]), random_basis(rng, raw["dim_w"])
    pg_i, ph_i, qv_i, qw_i = inverse(pg), inverse(ph), inverse(qv), inverse(qw)
    return triple(
        conjugate_lie(raw["c_g"], pg, pg_i),
        conjugate_lie(raw["c_h"], ph, ph_i),
        matmul(ph_i, matmul(raw["phi"], pg)),
        conjugate_action(raw["act_v"], pg, qv, qv_i),
        conjugate_action(raw["act_w"], ph, qw, qw_i),
        matmul(qw_i, matmul(raw["psi"], qv)),
    )


def relabel(mul, sigma):
    """Multiplication table after renaming element a to sigma[a]."""
    n = len(mul)
    out = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            out[sigma[a]][sigma[b]] = sigma[mul[a][b]]
    return out


def permuted_action(rho, sigma, q, q_inv):
    out = [None] * len(rho)
    for a, m in enumerate(rho):
        out[sigma[a]] = matmul(q_inv, matmul(m, q))
    return out


def _shuffled(rng, n):
    sigma = list(range(n))
    rng.shuffle(sigma)
    return sigma


def conjugate_group_module(raw, rng):
    sigma = _shuffled(rng, raw["order"])
    q = random_basis(rng, raw["dim"])
    return {"order": raw["order"], "mul": relabel(raw["mul"], sigma),
            "identity": sigma[raw["identity"]],
            "rho": permuted_action(raw["rho"], sigma, q, inverse(q)),
            "dim": raw["dim"]}


def conjugate_group_triple(raw, rng):
    sg, sh = _shuffled(rng, raw["order_g"]), _shuffled(rng, raw["order_h"])
    qv, qw = random_basis(rng, raw["dim_v"]), random_basis(rng, raw["dim_w"])
    qv_i, qw_i = inverse(qv), inverse(qw)
    phi = [0] * raw["order_g"]
    for a, b in enumerate(raw["phi"]):
        phi[sg[a]] = sh[b]
    return {"order_g": raw["order_g"], "id_g": sg[raw["id_g"]],
            "mul_g": relabel(raw["mul_g"], sg),
            "order_h": raw["order_h"], "id_h": sh[raw["id_h"]],
            "mul_h": relabel(raw["mul_h"], sh),
            "phi": phi,
            "rho_v": permuted_action(raw["rho_v"], sg, qv, qv_i),
            "rho_w": permuted_action(raw["rho_w"], sh, qw, qw_i),
            "dim_v": raw["dim_v"], "dim_w": raw["dim_w"],
            "psi": matmul(qw_i, matmul(raw["psi"], qv))}


# -- cochains -----------------------------------------------------------------------


def random_cochain(rng, raw, n):
    """Random degree-n (theta, gamma, eta) dicts with small integer values."""
    def block(dim_alg, deg, dim_mod):
        return {t: [Fraction(rng.randint(-3, 3)) for _ in range(dim_mod)]
                for t in combinations(range(dim_alg), deg)}
    return (block(raw["dim_g"], n, raw["dim_v"]),
            block(raw["dim_h"], n, raw["dim_w"]),
            block(raw["dim_g"], n - 1, raw["dim_w"]))


def coboundary(raw, n, cochain):
    """Oracle differential of a degree-n cochain: a closed degree-(n+1) cochain."""
    return o_mla_apply(raw, n, *cochain)


def cochain_blocks(raw, n, dicts):
    """(theta, gamma, eta) dicts over tuples as document matrices (column t = tuple t)."""
    def block(d, dim_alg, deg, dim_mod):
        tuples = list(combinations(range(dim_alg), deg))
        return [[d.get(t, [F0] * dim_mod)[r] for t in tuples] for r in range(dim_mod)]
    theta, gamma, eta = dicts
    return {"theta": block(theta, raw["dim_g"], n, raw["dim_v"]),
            "gamma": block(gamma, raw["dim_h"], n, raw["dim_w"]),
            "eta": block(eta, raw["dim_g"], n - 1, raw["dim_w"])}


# -- documents ------------------------------------------------------------------------


def q(x):
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def qmat(m):
    return [[q(x) for x in row] for row in m]


def lie_doc(c):
    dim = len(c)
    return {"dim": dim,
            "brackets": [[i, j, [q(x) for x in c[i][j]]]
                         for i, j in combinations(range(dim), 2) if any(c[i][j])]}


def triple_doc(raw, name="rep"):
    """A document holding one morphism representation named ``name``."""
    return {
        "lie_algebras": {"g": lie_doc(raw["c_g"]), "h": lie_doc(raw["c_h"])},
        "representations": {
            "v": {"algebra": "g", "dim": raw["dim_v"],
                  "action": [qmat(a) for a in raw["act_v"]]},
            "w": {"algebra": "h", "dim": raw["dim_w"],
                  "action": [qmat(a) for a in raw["act_w"]]},
        },
        "morphisms": {"phi": {"g": "g", "h": "h", "phi": qmat(raw["phi"])}},
        "morphism_reps": {name: {"morphism": "phi", "v": "v", "w": "w",
                                 "psi": qmat(raw["psi"])}},
    }


def group_triple_doc(raw, name="triple"):
    return {
        "groups": {"g": raw["mul_g"], "h": raw["mul_h"]},
        "group_modules": {
            "v": {"group": "g", "dim": raw["dim_v"], "action": [qmat(a) for a in raw["rho_v"]]},
            "w": {"group": "h", "dim": raw["dim_w"], "action": [qmat(a) for a in raw["rho_w"]]},
        },
        "group_module_triples": {name: {"g": "g", "h": "h", "phi": raw["phi"],
                                        "v": "v", "w": "w", "psi": qmat(raw["psi"])}},
    }


def group_module_doc(raw, name="module"):
    return {"groups": {"g": raw["mul"]},
            "group_modules": {name: {"group": "g", "dim": raw["dim"],
                                     "action": [qmat(a) for a in raw["rho"]]}}}


def with_cochain(raw, n, dicts, name):
    doc = triple_doc(raw)
    entry = {"morphism_rep": "rep", "degree": n}
    entry.update({k: qmat(v) for k, v in cochain_blocks(raw, n, dicts).items()})
    doc["cochains"] = {name: entry}
    return doc


def write_doc(path, doc):
    Path(path).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")


# -- workloads --------------------------------------------------------------------------
#
# A slot is a dict: "kind" names the request, "obj" the input object,
# "args" the extra command-line flags, "top" the highest degree, and for the
# chained structure requests "after" the slot whose output this one reads.

def _co(obj, top, *flags):
    return {"kind": "cohomology", "obj": obj, "top": top, "flags": list(flags)}


def _gco(obj, top, *flags):
    return {"kind": "mlg", "obj": obj, "top": top, "flags": list(flags)}


def _gp(obj, top, *flags):
    return {"kind": "group", "obj": obj, "top": top, "flags": list(flags)}


CATALOG = ["a1-trivial", "a2-trivial", "sl2-trivial", "sl2-v1", "sl2-adjoint",
           "heis-trivial", "heis-adjoint", "heis-to-a2", "a1-into-sl2"]
CATALOG_TOP = {"a1-trivial": 2, "a2-trivial": 3, "heis-to-a2": 3, "a1-into-sl2": 2}
MODULES = ["z2-sign", "z4-sign", "z3-rotation", "z4-rotation", "klein-trivial"]


def ladder_slots():
    slots = [_co(name, CATALOG_TOP.get(name, 4)) for name in CATALOG]
    slots += [_co("heis5-adjoint", 4), _co("heis5-adjoint", 4, "--simple"),
              _co("sl2xsl2-adjoint", 2, "--simple"),
              _gco("klein-to-z2", 2), _gco("klein-to-z2", 3, "--normalized"),
              _gco("z4-to-z2-sign", 2), _gco("z4-to-z2-sign", 2, "--normalized")]
    slots += [_gp(name, 2) for name in MODULES]
    return slots


def conjugated_slots():
    slots = [_co(name, CATALOG_TOP.get(name, 3)) for name in CATALOG]
    slots += [_co("heis5-adjoint", 1), _co("heis5-adjoint", 1, "--simple"),
              _co("sl2xsl2-adjoint", 1),
              _gco("klein-to-z2", 3, "--normalized"), _gco("klein-to-z2", 2),
              _gco("z4-to-z2-sign", 2, "--normalized"), _gco("z4-to-z2-sign", 2)]
    slots += [_gp(name, 2) for name in MODULES]
    return slots


STRUCTURE_OBJECTS = ["sl2-v1", "sl2-adjoint", "heis-adjoint", "heis-to-a2",
                     "a1-into-sl2", "heis5-adjoint", "sl2xsl2-adjoint"]


def structure_slots():
    slots = [{"kind": "check", "obj": f"heis{n}-adjoint-doc"} for n in (6, 8, 10)]
    slots.append({"kind": "check", "obj": "groups-doc"})
    for name in STRUCTURE_OBJECTS:
        k = len(slots)
        slots.append({"kind": "extend", "obj": name})
        slots.append({"kind": "extract", "obj": name, "after": k})
    for name in STRUCTURE_OBJECTS:
        k = len(slots)
        slots.append({"kind": "sh-from", "obj": name})
        slots.append({"kind": "sh-verify", "obj": name, "after": k})
        slots.append({"kind": "sh-twist", "obj": name, "after": k})
    return slots


WORKLOADS = {"ladder": ladder_slots, "conjugated": conjugated_slots,
             "structure": structure_slots}


def plan(workload, seed):
    """The workload's slots in a seeded order (chained slots keep their order)."""
    slots = WORKLOADS[workload]()
    if workload == "structure":
        return slots
    order = list(range(len(slots)))
    random.Random(f"order:{workload}:{seed}").shuffle(order)
    return [slots[i] for i in order]


def _structure_check_doc(obj):
    if obj == "groups-doc":
        doc = {"groups": {}, "group_modules": {}}
        for name, raw in group_modules().items():
            sub = group_module_doc(raw, name)
            doc["groups"][name + "-g"] = sub["groups"]["g"]
            entry = sub["group_modules"][name]
            entry["group"] = name + "-g"
            doc["group_modules"][name] = entry
        # Z/12 permuting three coordinates cyclically: a larger table to validate.
        cycle = power_action([[F0, F0, F1], [F1, F0, F0], [F0, F1, F0]], 12)
        doc["groups"]["z12"] = cyclic(12)
        doc["group_modules"]["z12-perm"] = {"group": "z12", "dim": 3,
                                            "action": [qmat(a) for a in cycle]}
        return doc
    n = int(obj[len("heis"):].split("-")[0])
    return triple_doc(adjoint_triple(heis(n)))


def make_request(workload, slot, seed, pass_no, slot_no, workdir, outputs):
    """Write the documents of one request and return (argv, context).

    ``outputs`` maps earlier slot numbers of this pass to the files they
    wrote; chained structure requests read from there.  ``context`` carries
    what the checker needs to judge the output.
    """
    workdir = Path(workdir)
    rng = random.Random(f"{workload}:{seed}:{pass_no}:{slot_no}")
    kind, obj = slot["kind"], slot["obj"]
    ctx = {"kind": kind, "obj": obj, "slot": slot_no}
    tag = f"p{pass_no}-s{slot_no}"
    if kind in ("cohomology", "mlg", "group"):
        ctx.update(top=slot["top"], flags=slot["flags"])
        fresh = workload == "conjugated"
        if kind == "cohomology":
            raw = lie_triples()[obj]
            doc = triple_doc(conjugate_triple(raw, rng) if fresh else raw)
            argv = ["cohomology", None, "rep"]
        elif kind == "mlg":
            raw = group_triples()[obj]
            doc = group_triple_doc(conjugate_group_triple(raw, rng) if fresh else raw)
            argv = ["cohomology", None, "triple", "--group"]
        else:
            raw = group_modules()[obj]
            doc = group_module_doc(conjugate_group_module(raw, rng) if fresh else raw)
            argv = ["group", "cohomology", None, "module"]
        path = workdir / f"{tag}-{kind}-{obj}.json"
        write_doc(path, doc)
        argv[argv.index(None)] = str(path)
        return argv + ["--max-degree", str(slot["top"])] + slot["flags"], ctx
    if kind == "check":
        path = workdir / f"{tag}-check-{obj}.json"
        doc = _structure_check_doc(obj)
        ctx["objects"] = sum(len(v) for v in doc.values())
        write_doc(path, doc)
        return ["check", str(path)], ctx
    raw = lie_triples()[obj]
    out = workdir / f"{tag}-{kind}-{obj}.out.json"
    ctx["out"] = str(out)
    if kind == "extend":
        cocycle = coboundary(raw, 1, random_cochain(rng, raw, 1))
        path = workdir / f"{tag}-extend-{obj}.json"
        ctx["cochain"] = cochain_blocks(raw, 2, cocycle)
        write_doc(path, with_cochain(raw, 2, cocycle, "c"))
        return ["extend", str(path), "c", "-o", str(out)], ctx
    if kind == "sh-from":
        cocycle = coboundary(raw, 2, random_cochain(rng, raw, 2))
        path = workdir / f"{tag}-sh-from-{obj}.json"
        ctx["cochain"] = cochain_blocks(raw, 3, cocycle)
        write_doc(path, with_cochain(raw, 3, cocycle, "c"))
        return ["sh", "from-cocycle", str(path), "c", "-o", str(out)], ctx
    src = outputs.get(slot["after"])
    ctx["source"] = src
    if src is None:
        return None, ctx
    if kind == "extract":
        ctx["cochain"] = src["cochain"]
        return ["extract", src["out"], "phi_hat", "rep", "-o", str(out)], ctx
    if kind == "sh-verify":
        return ["sh", "verify", src["out"], "morphism"], ctx
    if kind == "sh-twist":
        return ["sh", "twist", src["out"], "morphism", "--seed",
                str(rng.randint(0, 10 ** 6)), "-o", str(out)], ctx
    raise ValueError(f"unknown request kind {kind!r}")
