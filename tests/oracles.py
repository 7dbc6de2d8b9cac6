"""Independent brute-force oracles for cohomology dimensions.

Deliberately naive and self-contained: plain Fractions, dict-of-tuples
cochains, and a local Gaussian elimination.  Nothing here imports the
package under test, so agreement between these functions and the library
is evidence, not tautology.  Expected values frozen in the test suite were
produced by these routines (and, for the tiny fixtures, checked by hand).
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import comb

Z = Fraction(0)


def o_rank(rows):
    rows = [list(r) for r in rows]
    if not rows:
        return 0
    ncols = len(rows[0])
    rk = 0
    for c in range(ncols):
        piv = next((i for i in range(rk, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        for i in range(len(rows)):
            if i != rk and rows[i][c]:
                f = rows[i][c] / rows[rk][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rk])]
        rk += 1
        if rk == len(rows):
            break
    return rk


def o_rref(rows, ncols):
    """Dense reduced row echelon form, pivots taken in column order.

    Returns (the nonzero reduced rows, their pivot columns).
    """
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        rk = len(pivots)
        piv = next((i for i in range(rk, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rk], rows[piv] = rows[piv], rows[rk]
        rows[rk] = [x / rows[rk][c] for x in rows[rk]]
        for i in range(len(rows)):
            if i != rk and rows[i][c]:
                f = rows[i][c]
                rows[i] = [x - f * y if y else x for x, y in zip(rows[i], rows[rk])]
        pivots.append(c)
    return rows[:len(pivots)], pivots


def o_induced_rank(parts, d_prev):
    """rank of f_*: H^n(A) -> H^n(B) for a chain map f from A = A_1 (+) ... (+) A_k.

    parts holds (d_n of A_i, f_n's block on A_i, dim A_i^n) and d_prev is
    d'_{n-1}: B^{n-1} -> B^n, all as lists of rows.  Z^n(A) is the sum of the
    ker d_n(A_i), read off reduced row echelon forms (one vector per free
    column), and the rank is rank[f_n Z^n | im d'_{n-1}] - rank d'_{n-1}.
    """
    columns = []  # the columns of f_n Z^n
    for d, f, dim in parts:
        reduced, pivots = o_rref(d, dim)
        for c in (c for c in range(dim) if c not in pivots):
            z = [Fraction(int(j == c)) for j in range(dim)]
            for row, p in zip(reduced, pivots):
                z[p] = -row[c]
            columns.append([sum((x * y for x, y in zip(row, z) if x and y), Z) for row in f])
    stacked = [list(row) + [col[i] for col in columns] for i, row in enumerate(d_prev)]
    return o_rank(stacked) - o_rank(d_prev)


def o_det(rows):
    """Leibniz formula: the signed sum over all permutations."""
    n = len(rows)
    total = Z
    for perm in permutations(range(n)):
        inversions = sum(perm[a] > perm[b] for a in range(n) for b in range(a + 1, n))
        term = Fraction(-1) ** inversions
        for i, j in enumerate(perm):
            term *= rows[i][j]
        total += term
    return total


def o_eval(f, idx, dim_out):
    """Evaluate an alternating cochain dict at an arbitrary index tuple."""
    idx = list(idx)
    if len(set(idx)) != len(idx):
        return [Z] * dim_out
    sign = 1
    for i in range(len(idx)):
        for j in range(len(idx) - 1 - i):
            if idx[j] > idx[j + 1]:
                idx[j], idx[j + 1] = idx[j + 1], idx[j]
                sign = -sign
    val = f.get(tuple(idx), None)
    if val is None:
        return [Z] * dim_out
    return [sign * x for x in val]


def _mv(mat, vec):
    return [sum((row[j] * vec[j] for j in range(len(vec))), Z) for row in mat]


def _vadd(*vecs):
    return [sum(xs, Z) for xs in zip(*vecs)]


def _vscale(c, vec):
    return [c * x for x in vec]


def o_ce_apply(dim_g, brk, act, dim_v, f, n):
    """Chevalley-Eilenberg differential of an n-cochain dict, as a dict."""
    out = {}
    for tup in combinations(range(dim_g), n + 1):
        total = [Z] * dim_v
        for i in range(n + 1):
            rest = tup[:i] + tup[i + 1:]
            term = _mv(act(tup[i]), o_eval(f, rest, dim_v))
            total = _vadd(total, _vscale(Fraction((-1) ** i), term))
        for i in range(n + 1):
            for j in range(i + 1, n + 1):
                bracket = brk(tup[i], tup[j])
                rest = tuple(tup[k] for k in range(n + 1) if k != i and k != j)
                inner = [Z] * dim_v
                for k, coeff in enumerate(bracket):
                    if coeff:
                        inner = _vadd(inner, _vscale(coeff, o_eval(f, (k,) + rest, dim_v)))
                total = _vadd(total, _vscale(Fraction((-1) ** (i + j)), inner))
        out[tup] = total
    return out


def o_ce_matrix(dim_g, brk, act, dim_v, n):
    """Matrix rows of the CE differential C^n -> C^{n+1} over basis cochains."""
    src = list(combinations(range(dim_g), n))
    dst = list(combinations(range(dim_g), n + 1))
    cols = []
    for tup in src:
        for a in range(dim_v):
            f = {tup: [Fraction(1) if i == a else Z for i in range(dim_v)]}
            df = o_ce_apply(dim_g, brk, act, dim_v, f, n)
            col = []
            for t2 in dst:
                col.extend(df[t2])
            cols.append(col)
    rows = [[cols[j][i] for j in range(len(cols))] for i in range(len(dst) * dim_v)]
    return rows


def o_ce_dims(dim_g, brk, act, dim_v, max_degree):
    """H^0..H^max_degree of the CE complex, via ranks of the naive matrices."""
    dims = []
    prev_rank = 0
    for n in range(max_degree + 1):
        from math import comb
        d_n = o_ce_matrix(dim_g, brk, act, dim_v, n)
        cn = comb(dim_g, n) * dim_v
        r = o_rank(d_n)
        dims.append(cn - r - prev_rank)
        prev_rank = r
    return dims


def dense_table(a):
    """The dense table c[i][j][k] of an algebra object, read off its ``nonzero`` pairs.

    The package stores only the nonzero structure constants, as integer
    numerators over one denominator ``den``; the oracles take dense tables
    of Fractions, and every test that needs one builds it here.
    """
    table = [[[Z] * a.dim for _ in range(a.dim)] for _ in range(a.dim)]
    for i, row in enumerate(a.nonzero):
        for j, pairs in enumerate(row):
            for k, x in pairs:
                table[i][j][k] = Fraction(x, a.den)
    return table


def _mk_brk(c):
    return lambda i, j: c[i][j]


def _mk_act(mats):
    return lambda i: mats[i]


def o_mla_basis(raw, n, cone=False):
    """Basis labels of the degree-n morphism cochain space.

    On the full mapping cone degree 0 is V + W, labelled v then w.
    """
    if n == 0:
        labels = [("v", (), a) for a in range(raw["dim_v"])]
        if cone:
            labels += [("w", (), b) for b in range(raw["dim_w"])]
        return labels
    labels = []
    for tup in combinations(range(raw["dim_g"]), n):
        for a in range(raw["dim_v"]):
            labels.append(("theta", tup, a))
    for tup in combinations(range(raw["dim_h"]), n):
        for b in range(raw["dim_w"]):
            labels.append(("gamma", tup, b))
    for tup in combinations(range(raw["dim_g"]), n - 1):
        for b in range(raw["dim_w"]):
            labels.append(("eta", tup, b))
    return labels


def o_mla_apply(raw, n, theta, gamma, eta):
    """One application of the morphism differential to a degree-n triple."""
    dim_g, dim_h = raw["dim_g"], raw["dim_h"]
    dim_v, dim_w = raw["dim_v"], raw["dim_w"]
    phi, psi = raw["phi"], raw["psi"]
    act_v = _mk_act(raw["act_v"])
    act_w = _mk_act(raw["act_w"])
    act_wphi = lambda i: [  # action of g on W through phi
        [sum((phi[j][i] * raw["act_w"][j][r][s] for j in range(dim_h)), Z) for s in range(dim_w)]
        for r in range(dim_w)
    ]
    out_theta = o_ce_apply(dim_g, _mk_brk(raw["c_g"]), act_v, dim_v, theta, n)
    out_gamma = o_ce_apply(dim_h, _mk_brk(raw["c_h"]), act_w, dim_w, gamma, n)
    out_eta = {}
    for tup in combinations(range(dim_g), n):
        first = _mv(psi, o_eval(theta, tup, dim_v))
        second = [Z] * dim_w
        for img in product(range(dim_h), repeat=n):
            coeff = Fraction(1)
            for pos, t in enumerate(tup):
                coeff *= phi[img[pos]][t]
            if coeff:
                second = _vadd(second, _vscale(coeff, o_eval(gamma, img, dim_w)))
        third = o_ce_apply(dim_g, _mk_brk(raw["c_g"]), act_wphi, dim_w, eta, n - 1)[tup] if n else [Z] * dim_w
        out_eta[tup] = [a - b - c for a, b, c in zip(first, second, third)]
    return out_theta, out_gamma, out_eta


def o_mla_matrix(raw, n, cone=False):
    """Rows of the degree-n morphism differential over naive basis labels."""
    src = o_mla_basis(raw, n, cone)
    dst = o_mla_basis(raw, n + 1, cone)
    dim_v, dim_w = raw["dim_v"], raw["dim_w"]
    cols = []
    for label in src:
        kind, tup, a = label
        theta, gamma, eta = {}, {}, {}
        if kind in ("v", "w"):
            vec_v = [Fraction(1) if kind == "v" and i == a else Z for i in range(dim_v)]
            vec_w = [Fraction(1) if kind == "w" and i == a else Z for i in range(dim_w)]
            if cone:
                dt, dg, de = o_mla_apply_cone_degree0(raw, vec_v, vec_w)
            else:
                dt, dg, de = o_mla_apply_degree0(raw, vec_v)
        else:
            if kind == "theta":
                theta = {tup: [Fraction(1) if i == a else Z for i in range(dim_v)]}
            elif kind == "gamma":
                gamma = {tup: [Fraction(1) if i == a else Z for i in range(dim_w)]}
            else:
                eta = {tup: [Fraction(1) if i == a else Z for i in range(dim_w)]}
            dt, dg, de = o_mla_apply(raw, n, theta, gamma, eta)
        col = []
        for kind2, tup2, b in dst:
            if kind2 == "theta":
                col.append(dt.get(tup2, [Z] * raw["dim_v"])[b])
            elif kind2 == "gamma":
                col.append(dg.get(tup2, [Z] * raw["dim_w"])[b])
            else:
                col.append(de.get(tup2, [Z] * raw["dim_w"])[b])
        cols.append(col)
    return [[cols[j][i] for j in range(len(cols))] for i in range(len(dst))]


def o_mla_apply_degree0(raw, vec):
    """delta(v) = (x -> rho_V(x) v, h -> rho_W(h) psi v, 0)."""
    dt = {(i,): _mv(raw["act_v"][i], vec) for i in range(raw["dim_g"])}
    psi_v = _mv(raw["psi"], vec)
    dg = {(j,): _mv(raw["act_w"][j], psi_v) for j in range(raw["dim_h"])}
    de = {(): [Z] * raw["dim_w"]}
    return dt, dg, de


def o_mla_apply_cone_degree0(raw, vec_v, vec_w):
    """Full cone: delta(v, w) = (x -> rho_V(x) v, h -> rho_W(h) w, psi v - w)."""
    dt = {(i,): _mv(raw["act_v"][i], vec_v) for i in range(raw["dim_g"])}
    dg = {(j,): _mv(raw["act_w"][j], vec_w) for j in range(raw["dim_h"])}
    de = {(): [p - w for p, w in zip(_mv(raw["psi"], vec_v), vec_w)]}
    return dt, dg, de


def o_mla_dims(raw, max_degree, cone=False):
    """H^0..H^max_degree of the morphism complex, all ranks naive."""
    dims = []
    prev_rank = 0
    for n in range(max_degree + 1):
        cn = len(o_mla_basis(raw, n, cone))
        r = o_rank(o_mla_matrix(raw, n, cone))
        dims.append(cn - r - prev_rank)
        prev_rank = r
    return dims


# ----------------------------------------------------------- derivations


def _derivation_residuals(raw, d, dl, w):
    """(report, residual) of each derivation identity, in report order.

    d (dim_v x dim_g) and dl (dim_w x dim_h) are lists of rows, w a W-vector:
      d[x,y] - rho_V(x) d(y) + rho_V(y) d(x)         on basis pairs of g,
      dl[x,y] - rho_W(x) dl(y) + rho_W(y) dl(x)      on basis pairs of h,
      rho_W(phi x) w - psi d(x) + dl(phi x)          on basis vectors of g.
    """
    col = lambda m, j: [row[j] for row in m]
    for name, e, dim, c, act, m in (("first", "e", raw["dim_g"], raw["c_g"], raw["act_v"], d),
                                    ("second", "f", raw["dim_h"], raw["c_h"], raw["act_w"], dl)):
        for i, j in combinations(range(dim), 2):
            yield (f"{name} identity fails on basis pair ({e}{i+1}, {e}{j+1})",
                   _vadd(_mv(m, c[i][j]), _vscale(-1, _mv(act[i], col(m, j))),
                         _mv(act[j], col(m, i))))
    for i in range(raw["dim_g"]):
        phi_x = col(raw["phi"], i)
        rho_w = [_vscale(phi_x[j], _mv(a, w)) for j, a in enumerate(raw["act_w"])]
        yield (f"third identity fails at basis vector e{i+1}",
               _vadd([Z] * raw["dim_w"], *rho_w, _vscale(-1, _mv(raw["psi"], col(d, i))),
                     _mv(dl, phi_x)))


def o_derivation_failure(raw, d, dl, w):
    """The report of the first identity (d, dl, w) breaks, or None for a derivation."""
    return next((report for report, res in _derivation_residuals(raw, d, dl, w) if any(res)),
                None)


def o_derivation_dims(raw):
    """(invariant vectors, Der, InnDer) from the definitions, without cochains.

    Der solves the three identities in the unknowns (d, dl, w).  InnDer is
    spanned by the triples (rho_V(.) v, rho_W(.) psi v, 0), and the invariant
    vectors are the v whose triple is zero.
    """
    dv, dw, dg, dh = raw["dim_v"], raw["dim_w"], raw["dim_g"], raw["dim_h"]
    n = dv * dg + dw * dh + dw
    cols = []
    for k in range(n):
        x = [Fraction(int(i == k)) for i in range(n)]
        d = [[x[j * dv + r] for j in range(dg)] for r in range(dv)]
        dl = [[x[dv * dg + j * dw + r] for j in range(dh)] for r in range(dw)]
        cols.append([y for _, res in _derivation_residuals(raw, d, dl, x[n - dw:]) for y in res])
    inner = [row for a in raw["act_v"] for row in a] + [
        [sum((a[r][s] * raw["psi"][s][c] for s in range(dw)), Z) for c in range(dv)]
        for a in raw["act_w"] for r in range(dw)]
    r_inner = o_rank(inner)
    return dv - r_inner, n - o_rank(cols), r_inner


# ---------------------------------------------------------------- groups


def o_group_tuples(order, identity, n, normalized):
    if normalized:
        pool = [g for g in range(order) if g != identity]
    else:
        pool = list(range(order))
    return list(product(pool, repeat=n))


def o_group_eval(f, tup, identity, normalized, dim):
    if normalized and identity in tup:
        return [Z] * dim
    return f.get(tup, [Z] * dim)


def o_bar_apply(order, mul, identity, rho, dim, f, n, normalized):
    """Standard inhomogeneous bar differential of a group n-cochain dict."""
    out = {}
    for tup in o_group_tuples(order, identity, n + 1, normalized):
        total = _mv(rho[tup[0]], o_group_eval(f, tup[1:], identity, normalized, dim))
        for i in range(1, n + 1):
            merged = tup[:i - 1] + (mul[tup[i - 1]][tup[i]],) + tup[i + 1:]
            total = _vadd(total, _vscale(Fraction((-1) ** i),
                                         o_group_eval(f, merged, identity, normalized, dim)))
        total = _vadd(total, _vscale(Fraction((-1) ** (n + 1)),
                                     o_group_eval(f, tup[:n], identity, normalized, dim)))
        out[tup] = total
    return out


def o_average_apply(order, identity, dim, f, n, normalized):
    """Maschke's averaging homotopy h_n: C^n -> C^{n-1} on a group n-cochain dict, n >= 1.

    (h_n f)(g_1, ..., g_{n-1}) = (-1)^n / |G| * sum_g f(g_1, ..., g_{n-1}, g).
    With the differential of ``o_bar_apply``, d_{n-1} h_n + h_{n+1} d_n is
    the identity of C^n for n >= 1, on the full and the normalized cochains,
    and h_1 d_0 is I - A on C^0 (``o_average_action``).
    """
    scale = Fraction((-1) ** n, order)
    out = {}
    for tup in o_group_tuples(order, identity, n - 1, normalized):
        total = [Z] * dim
        for g in range(order):
            total = _vadd(total, o_group_eval(f, tup + (g,), identity, normalized, dim))
        out[tup] = _vscale(scale, total)
    return out


def o_average_action(order, rho, vec):
    """A v = 1/|G| sum_g rho(g) v, the projection onto the invariant vectors."""
    return _vscale(Fraction(1, order), _vadd(*(_mv(rho[g], vec) for g in range(order))))


def o_mlg_basis(raw, n, normalized):
    if n == 0:
        return [("v", (), a) for a in range(raw["dim_v"])]
    labels = []
    for tup in o_group_tuples(raw["order_g"], raw["id_g"], n, normalized):
        for a in range(raw["dim_v"]):
            labels.append(("T", tup, a))
    for tup in o_group_tuples(raw["order_h"], raw["id_h"], n, normalized):
        for b in range(raw["dim_w"]):
            labels.append(("G", tup, b))
    for tup in o_group_tuples(raw["order_g"], raw["id_g"], n - 1, normalized):
        for b in range(raw["dim_w"]):
            labels.append(("L", tup, b))
    return labels


def o_mlg_apply(raw, n, big_t, big_g, lam, normalized):
    rho_wphi = [raw["rho_w"][raw["phi"][g]] for g in range(raw["order_g"])]
    out_t = o_bar_apply(raw["order_g"], raw["mul_g"], raw["id_g"], raw["rho_v"],
                        raw["dim_v"], big_t, n, normalized)
    out_g = o_bar_apply(raw["order_h"], raw["mul_h"], raw["id_h"], raw["rho_w"],
                        raw["dim_w"], big_g, n, normalized)
    out_l = {}
    for tup in o_group_tuples(raw["order_g"], raw["id_g"], n, normalized):
        first = _mv(raw["psi"], o_group_eval(big_t, tup, raw["id_g"], normalized, raw["dim_v"]))
        mapped = tuple(raw["phi"][g] for g in tup)
        second = o_group_eval(big_g, mapped, raw["id_h"], normalized, raw["dim_w"])
        if n:
            third = o_bar_apply(raw["order_g"], raw["mul_g"], raw["id_g"], rho_wphi,
                                raw["dim_w"], lam, n - 1, normalized)[tup]
        else:
            third = [Z] * raw["dim_w"]
        out_l[tup] = [a - b - c for a, b, c in zip(first, second, third)]
    return out_t, out_g, out_l


def o_mlg_matrix(raw, n, normalized):
    src = o_mlg_basis(raw, n, normalized)
    dst = o_mlg_basis(raw, n + 1, normalized)
    cols = []
    for kind, tup, a in src:
        big_t, big_g, lam = {}, {}, {}
        if kind == "v":
            vec = [Fraction(1) if i == a else Z for i in range(raw["dim_v"])]
            big_t = {(g,): _mv(raw["rho_v"][g], vec) for g in range(raw["order_g"])}
            psi_v = _mv(raw["psi"], vec)
            big_g = {(h,): _mv(raw["rho_w"][h], psi_v) for h in range(raw["order_h"])}
            dt = {k: _vadd(v, _vscale(Fraction(-1), vec)) for k, v in big_t.items()}
            dgm = {k: _vadd(v, _vscale(Fraction(-1), psi_v)) for k, v in big_g.items()}
            dl = {(): [Z] * raw["dim_w"]}
        else:
            dim = raw["dim_v"] if kind == "T" else raw["dim_w"]
            vec = [Fraction(1) if i == a else Z for i in range(dim)]
            if kind == "T":
                big_t = {tup: vec}
            elif kind == "G":
                big_g = {tup: vec}
            else:
                lam = {tup: vec}
            dt, dgm, dl = o_mlg_apply(raw, n, big_t, big_g, lam, normalized)
        col = []
        for kind2, tup2, b in dst:
            if kind2 == "T":
                col.append(dt.get(tup2, [Z] * raw["dim_v"])[b])
            elif kind2 == "G":
                col.append(dgm.get(tup2, [Z] * raw["dim_w"])[b])
            else:
                col.append(dl.get(tup2, [Z] * raw["dim_w"])[b])
        cols.append(col)
    return [[cols[j][i] for j in range(len(cols))] for i in range(len(dst))]


def o_mlg_dims(raw, max_degree, normalized):
    dims = []
    prev_rank = 0
    for n in range(max_degree + 1):
        cn = len(o_mlg_basis(raw, n, normalized))
        r = o_rank(o_mlg_matrix(raw, n, normalized))
        dims.append(cn - r - prev_rank)
        prev_rank = r
    return dims


def o_gp_dims(order, mul, identity, rho, dim, max_degree, normalized):
    """Plain group cohomology H^0..H^max_degree from the bar complex."""
    def matrix(n):
        src = o_group_tuples(order, identity, n, normalized)
        dst = o_group_tuples(order, identity, n + 1, normalized)
        cols = []
        for tup in src:
            for a in range(dim):
                f = {tup: [Fraction(1) if i == a else Z for i in range(dim)]}
                df = o_bar_apply(order, mul, identity, rho, dim, f, n, normalized)
                col = []
                for t2 in dst:
                    col.extend(df[t2])
                cols.append(col)
        return [[cols[j][i] for j in range(len(cols))] for i in range(len(dst) * dim)]

    dims = []
    prev_rank = 0
    for n in range(max_degree + 1):
        cn = len(o_group_tuples(order, identity, n, normalized)) * dim
        r = o_rank(matrix(n))
        dims.append(cn - r - prev_rank)
        prev_rank = r
    return dims


# ---------------------------------------------------------------- sh objects
#
# A 2-term sh object is a dict: "dim0", "dim1", "c" (the structure table of
# g0), "act" (dense dim1 x dim1 matrices of l2(e_i, .)), "d" (dense
# dim0 x dim1) and "l3" (a cochain dict over increasing triples).  phi2 is a
# cochain dict over increasing pairs.


def _unit_vec(dim, i):
    return [Fraction(int(k == i)) for k in range(dim)]


def _bracket(c, x, y):
    out = [Z] * len(x)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            out = _vadd(out, _vscale(xi * yj, c[i][j]))
    return out


def _act(mats, x, dim):
    return [[sum((x[i] * mats[i][r][s] for i in range(len(x))), Z) for s in range(dim)]
            for r in range(dim)]


def _multi(f, vectors, dim_out):
    """A skew cochain dict at arbitrary vectors, one index tuple at a time."""
    out = [Z] * dim_out
    for idx in product(*(range(len(v)) for v in vectors)):
        coeff = Fraction(1)
        for v, i in zip(vectors, idx):
            coeff *= v[i]
        if coeff:
            out = _vadd(out, _vscale(coeff, o_eval(f, idx, dim_out)))
    return out


def _column(m, a):
    return [row[a] for row in m]


def o_sh_failure(t):
    """The first failing 2-term sh axiom as (label, index tuple), or None.

    Scan order: (i) over (e_i, p_a), (ii) over a <= b, (iii) over increasing
    triples, (iv) over i < j and then a, (v) over increasing quadruples.
    """
    n0, n1, c, mats, d, l3 = t["dim0"], t["dim1"], t["c"], t["act"], t["d"], t["l3"]
    e0 = [_unit_vec(n0, i) for i in range(n0)]
    e1 = [_unit_vec(n1, a) for a in range(n1)]
    dp = [_column(d, a) for a in range(n1)]
    for i in range(n0):
        for a in range(n1):
            if _mv(d, _mv(mats[i], e1[a])) != _bracket(c, e0[i], dp[a]):
                return "i", (i, a)
    for a in range(n1):
        for b in range(a, n1):
            lhs = _mv(_act(mats, dp[a], n1), e1[b])
            if lhs != _vscale(-1, _mv(_act(mats, dp[b], n1), e1[a])):
                return "ii", (a, b)
    for i, j, k in combinations(range(n0), 3):
        x, y, z = e0[i], e0[j], e0[k]
        rhs = _vadd(_bracket(c, x, _bracket(c, y, z)), _bracket(c, y, _bracket(c, z, x)),
                    _bracket(c, z, _bracket(c, x, y)))
        if _mv(d, _multi(l3, [x, y, z], n1)) != rhs:
            return "iii", (i, j, k)
    for i, j in combinations(range(n0), 2):
        x, y = e0[i], e0[j]
        for a in range(n1):
            p = e1[a]
            rhs = _vadd(_mv(mats[i], _mv(mats[j], p)), _vscale(-1, _mv(mats[j], _mv(mats[i], p))),
                        _vscale(-1, _mv(_act(mats, _bracket(c, x, y), n1), p)))
            if _multi(l3, [x, y, dp[a]], n1) != rhs:
                return "iv", (i, j, a)
    for quad in combinations(range(n0), 4):
        xs = [e0[q] for q in quad]
        total = [Z] * n1
        for pos in range(4):
            rest = xs[:pos] + xs[pos + 1:]
            total = _vadd(total, _vscale((-1) ** pos, _mv(mats[quad[pos]], _multi(l3, rest, n1))))
        for p, q in combinations(range(4), 2):
            rest = [xs[m] for m in range(4) if m not in (p, q)]
            term = _multi(l3, [_bracket(c, xs[p], xs[q])] + rest, n1)
            total = _vadd(total, _vscale((-1) ** (p + q), term))
        if any(total):
            return "v", quad
    return None


def o_sh_morphism_failure(s, t, phi0, phi1, phi2):
    """The first failing morphism condition as (label, index tuple), or None.

    phi0 and phi1 are dense; scan order: (i), (ii) over increasing pairs,
    (iii) over (e_i, p_a), (iv) over increasing triples.
    """
    n0, n1, m0, m1 = s["dim0"], s["dim1"], t["dim0"], t["dim1"]
    e0 = [_unit_vec(n0, i) for i in range(n0)]
    e1 = [_unit_vec(n1, a) for a in range(n1)]
    for a in range(n1):
        if _mv(phi0, _column(s["d"], a)) != _mv(t["d"], _column(phi1, a)):
            return "i", ()
    image = [_mv(phi0, x) for x in e0]
    pulled = [_act(t["act"], image[i], m1) for i in range(n0)]
    for i, j in combinations(range(n0), 2):
        lhs = _mv(t["d"], _multi(phi2, [e0[i], e0[j]], m1))
        rhs = _vadd(_mv(phi0, _bracket(s["c"], e0[i], e0[j])),
                    _vscale(-1, _bracket(t["c"], image[i], image[j])))
        if lhs != rhs:
            return "ii", (i, j)
    for i in range(n0):
        for a in range(n1):
            lhs = _multi(phi2, [e0[i], _column(s["d"], a)], m1)
            rhs = _vadd(_mv(phi1, _mv(s["act"][i], e1[a])),
                        _vscale(-1, _mv(pulled[i], _column(phi1, a))))
            if lhs != rhs:
                return "iii", (i, a)
    for tri in combinations(range(n0), 3):
        xs = [e0[k] for k in tri]
        lhs = [Z] * m1
        for x, y, z in ((0, 1, 2), (1, 2, 0), (2, 0, 1)):
            lhs = _vadd(lhs, _mv(pulled[tri[x]], _multi(phi2, [xs[y], xs[z]], m1)),
                        _multi(phi2, [xs[x], _bracket(s["c"], xs[y], xs[z])], m1))
        rhs = _vadd(_mv(phi1, _multi(s["l3"], xs, n1)),
                    _vscale(-1, _multi(t["l3"], [image[k] for k in tri], m1)))
        if lhs != rhs:
            return "iv", tri
    return None


# ------------------------------------------------------------- validators
# Each returns the report of the first basis pair that fails, or None.


def _mm(a, b):
    return [[sum((a[i][k] * b[k][j] for k in range(len(b))), Z) for j in range(len(a))]
            for i in range(len(a))]


def o_antisymmetry_failure(c):
    """c[i][j] = -c[j][i], checked entry by entry over all (i, j) row by row."""
    dim = len(c)
    for i in range(dim):
        for j in range(dim):
            if any(c[i][j][k] != -c[j][i][k] for k in range(dim)):
                return f"structure constants not antisymmetric at (e{i+1}, e{j+1})"
    return None


def o_jacobi_failure(c):
    """[[e_i, e_j], e_k] + [[e_j, e_k], e_i] + [[e_k, e_i], e_j] = 0 over i < j < k."""
    dim = len(c)
    e = [_unit_vec(dim, i) for i in range(dim)]
    for i, j, k in combinations(range(dim), 3):
        if any(_vadd(_bracket(c, c[i][j], e[k]), _bracket(c, c[j][k], e[i]),
                     _bracket(c, c[k][i], e[j]))):
            return f"Jacobi identity fails on basis triple (e{i+1}, e{j+1}, e{k+1})"
    return None


def o_rep_failure(c, act):
    """rho([e_i, e_j]) = rho(e_i)rho(e_j) - rho(e_j)rho(e_i) for square lists act[i]."""
    for i, j in combinations(range(len(c)), 2):
        lhs = _act(act, c[i][j], len(act[i]))
        rhs = [[p - q for p, q in zip(r, s)]
               for r, s in zip(_mm(act[i], act[j]), _mm(act[j], act[i]))]
        if lhs != rhs:
            return f"representation axiom fails on basis pair (e{i+1}, e{j+1})"
    return None


def o_hom_failure(c_g, c_h, phi):
    """phi[e_i, e_j] = [phi e_i, phi e_j] for phi given as dim_h rows."""
    for i, j in combinations(range(len(c_g)), 2):
        if _mv(phi, c_g[i][j]) != _bracket(c_h, _column(phi, i), _column(phi, j)):
            return f"homomorphism equation fails on basis pair (e{i+1}, e{j+1})"
    return None


def o_rota_baxter_failure(c, r, weight, act=None, r_v=None):
    """The first failing Rota-Baxter identity as (label, index tuple), or None.

    r is dense, one row per coordinate.  The operator identity
    [R e_i, R e_j] = R([R e_i, e_j] + [e_i, R e_j] + weight [e_i, e_j]) is
    scanned over i < j, then, when act and r_v are given, the module identity
    rho(R e_i) R_V = R_V (rho(R e_i) + rho(e_i) R_V + weight rho(e_i)) over i.
    """
    n = len(c)
    e = [_unit_vec(n, i) for i in range(n)]
    re = [_column(r, i) for i in range(n)]
    for i, j in combinations(range(n), 2):
        twisted = _vadd(_bracket(c, re[i], e[j]), _bracket(c, e[i], re[j]),
                        _vscale(weight, _bracket(c, e[i], e[j])))
        if _bracket(c, re[i], re[j]) != _mv(r, twisted):
            return "operator", (i, j)
    if act is None:
        return None
    dim = len(r_v)
    for i in range(n):
        rho_r = _act(act, re[i], dim)
        inner = [[p + q + weight * x for p, q, x in zip(row_p, row_q, row_x)]
                 for row_p, row_q, row_x in zip(rho_r, _mm(act[i], r_v), act[i])]
        if _mm(rho_r, r_v) != _mm(r_v, inner):
            return "module", (i,)
    return None


# Closed forms: Betti numbers (dim H^k with trivial coefficients) of Lie
# algebras whose cohomology is known, as referees at sizes the brute-force
# oracles above cannot reach.

def o_poly_product(*factors):
    """Coefficients of the product of polynomials given by coefficient lists."""
    out = [1]
    for f in factors:
        acc = [0] * (len(out) + len(f) - 1)
        for i, a in enumerate(out):
            for j, b in enumerate(f):
                acc[i + j] += a * b
        out = acc
    return out


def o_betti_sl2_power(k):
    """sl2^k, by Kuenneth: the coefficients of (1 + t^3)^k."""
    return o_poly_product(*[[1, 0, 0, 1]] * k)


def o_betti_sl3():
    """sl3, the rational cohomology of SU(3): (1 + t^3)(1 + t^5)."""
    return o_poly_product([1, 0, 0, 1], [1, 0, 0, 0, 0, 1])


def o_betti_heis(n):
    """heis_{2n+1} (Santharoubane, Proc. AMS 87, 1983).

    b_k = C(2n, k) - C(2n, k - 2) for k <= n, and b_{2n+1-k} = b_k
    (Poincare duality: the algebra is nilpotent, hence unimodular).
    """
    low = [comb(2 * n, k) - (comb(2 * n, k - 2) if k >= 2 else 0) for k in range(n + 1)]
    return low + low[::-1]


def o_identity_triple_dims(ce_dims, dim_v):
    """The default complex of a triple with psi invertible, from dim H^n(h, W).

    psi . is then a chain isomorphism C(g, V) -> C(g, W_phi), whose cone is
    contractible, so the full cone has H^n(K) = H^n(h, W) in every degree,
    and the default complex differs from it only by dim W more in H^1.
    (g, g, id) on (V, V, id) is the case W = V.
    """
    return [h + (dim_v if n == 1 else 0) for n, h in enumerate(ce_dims)]
