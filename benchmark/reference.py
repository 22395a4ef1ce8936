"""Independent references for the benchmark's correctness checks.

Nothing here calls into antiprelie.  Every condition is written again
from the paper's defining identities, for a product table C with
C[i][j][k] the coefficient of e_k in e_i . e_j:

  anti-pre-Lie   (i)  x.(y.z) - y.(x.z) - [y,x].z = 0
                 (ii) [x,y].z + [y,z].x + [z,x].y = 0,  [x,y] = x.y - y.x
  compatible     every pencil k1*circ + k2*star is anti-pre-Lie.  Both
                 identities are quadratic forms in (k1, k2), so the pencil
                 condition splits into circ, star and the polarized
                 "mixed" residual R(circ+star) - R(circ) - R(star).
  Step 1 (Z^2)   phi is anti-pre-Lie and (base, phi) is compatible.
  anti-O         [Tu,Tv]_s = T(rho_s(Tv)u - rho_s(Tu)v) for s = 1, 2.
  strong         rho_k([Tu,Tv]_k)w + cyclic = 0 for every pencil k,
                 decided at the pencil points (1,0), (0,1), (1,1).
  invariance     B(x.y, z) = B(y, [x,z]) for each product.

Two evaluators implement them.  `step1_*` is a numpy evaluator mod p
that solves the linear Step-1 conditions by its own elimination and
enumerates the whole nullspace, which gives the reference Z^2 set.  The
exact evaluator works on plain Python numbers: ints for GF(p) (reduced
only in the zero test), Fractions for Q and sympy polynomial-ring
elements for symbolic tables.
"""
from __future__ import annotations

import re
from functools import lru_cache
from fractions import Fraction
from itertools import product as iproduct

import numpy as np

# ---------------------------------------------------------------------------
# numpy evaluator mod p
# ---------------------------------------------------------------------------


def apl_residuals_np(C, p):
    """Both anti-pre-Lie residuals of tables C (..., n, n, n), mod p.

    Returns (..., 2, n, n, n, n): identity, x = e_i, y = e_j, z = e_k,
    output component m.
    """
    B = C - np.swapaxes(C, -3, -2)                      # [e_i, e_j]
    r1 = (np.einsum("...jka,...iam->...ijkm", C, C)     # x.(y.z)
          - np.einsum("...ika,...jam->...ijkm", C, C)   # y.(x.z)
          - np.einsum("...jia,...akm->...ijkm", B, C))  # [y,x].z
    r2 = (np.einsum("...ija,...akm->...ijkm", B, C)     # [x,y].z
          + np.einsum("...jka,...aim->...ijkm", B, C)   # [y,z].x
          + np.einsum("...kia,...ajm->...ijkm", B, C))  # [z,x].y
    return np.stack([r1, r2], axis=-5) % p


def mixed_residuals_np(base, phi, p):
    """Polarized pencil residual R(base+phi) - R(base) - R(phi), mod p."""
    return (apl_residuals_np(base + phi, p) - apl_residuals_np(base, p)
            - apl_residuals_np(phi, p)) % p


def step1_ok_np(base, phi, p):
    """All four Step-1 conditions on one phi table."""
    return not (apl_residuals_np(phi, p).any()
                or mixed_residuals_np(base, phi, p).any())


def nullspace_mod_p(rows, ncols, p):
    """Basis of {x : rows @ x = 0 (mod p)} by Gauss-Jordan elimination."""
    m = [[int(v) % p for v in row] for row in rows]
    pivots = []
    r = 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = pow(m[r][c], p - 2, p)
        m[r] = [v * inv % p for v in m[r]]
        for i in range(len(m)):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [(a - f * b) % p for a, b in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [0] * ncols
        vec[free] = 1
        for row, pc in enumerate(pivots):
            vec[pc] = (-m[row][free]) % p
        basis.append(vec)
    return basis


def step1_linear_basis(base, p):
    """Nullspace basis (as flat phi vectors) of conditions iii-iv."""
    n = base.shape[0]
    n3 = n ** 3
    cols = []
    for a in range(n3):
        E = np.zeros(n3, dtype=np.int64)
        E[a] = 1
        cols.append(mixed_residuals_np(base, E.reshape(n, n, n), p).ravel())
    rows = np.stack(cols, axis=1)
    return nullspace_mod_p(rows.tolist(), n3, p)


def step1_solutions(base, p, chunk=1 << 16):
    """The reference Z^2 set: every phi over GF(p) meeting all four
    Step-1 conditions, as flat row-major tuples."""
    base = np.asarray(base, dtype=np.int64) % p
    n = base.shape[0]
    basis = np.array(step1_linear_basis(base, p), dtype=np.int64)
    d = basis.shape[0]
    out = set()
    if d == 0:
        return {(0,) * n ** 3}
    total = p ** d
    for start in range(0, total, chunk):
        idx = np.arange(start, min(start + chunk, total), dtype=np.int64)
        coeffs = np.stack([(idx // p ** (d - 1 - t)) % p for t in range(d)],
                          axis=1)
        phis = coeffs @ basis % p
        bad = apl_residuals_np(phis.reshape(-1, n, n, n), p)
        good = ~bad.reshape(bad.shape[0], -1).any(axis=1)
        out.update(map(tuple, phis[good].tolist()))
    return out


# ---------------------------------------------------------------------------
# exact evaluator
# ---------------------------------------------------------------------------


def zero_test(p=None):
    """Zero predicate: exact for Q and polynomial rings, mod p for GF(p)."""
    if p is None:
        return lambda x: x == 0
    return lambda x: x % p == 0


def _left(C, i, v):
    """e_i . v"""
    n = len(C)
    return [sum(v[a] * C[i][a][m] for a in range(n)) for m in range(n)]


def _right(C, v, k):
    """v . e_k"""
    n = len(C)
    return [sum(v[a] * C[a][k][m] for a in range(n)) for m in range(n)]


def _bracket(C, i, j):
    return [x - y for x, y in zip(C[i][j], C[j][i])]


def apl_residuals(C):
    """{(identity, (i, j, k)): residual vector} of both identities."""
    n = len(C)
    out = {}
    for i, j, k in iproduct(range(n), repeat=3):
        out[(1, (i, j, k))] = [
            a - b - c for a, b, c in zip(_left(C, i, C[j][k]),
                                         _left(C, j, C[i][k]),
                                         _right(C, _bracket(C, j, i), k))]
        out[(2, (i, j, k))] = [
            a + b + c for a, b, c in zip(_right(C, _bracket(C, i, j), k),
                                         _right(C, _bracket(C, j, k), i),
                                         _right(C, _bracket(C, k, i), j))]
    return out


def _count(residuals, is_zero):
    return sum(1 for vec in residuals.values()
               if not all(is_zero(x) for x in vec))


def add_tables(C, S):
    n = len(C)
    return [[[C[i][j][k] + S[i][j][k] for k in range(n)] for j in range(n)]
            for i in range(n)]


def compat_failure_counts(C, S, is_zero):
    """Failing (identity, triple) counts: circ, star and mixed."""
    rc, rs = apl_residuals(C), apl_residuals(S)
    rsum = apl_residuals(add_tables(C, S))
    mixed = {key: [a - b - c for a, b, c in zip(rsum[key], rc[key], rs[key])]
             for key in rsum}
    return {"circ": _count(rc, is_zero), "star": _count(rs, is_zero),
            "mixed": _count(mixed, is_zero)}


def commutator_table(C):
    n = len(C)
    return [[_bracket(C, i, j) for j in range(n)] for i in range(n)]


def left_mult_rep(C):
    """rho_i = -L(e_i): the matrix whose column j is -(e_i . e_j)."""
    n = len(C)
    return [[[-C[i][j][r] for j in range(n)] for r in range(n)]
            for i in range(n)]


def _combine(mats, x):
    """sum_i x_i mats[i]"""
    rows, cols = len(mats[0]), len(mats[0][0])
    return [[sum(x[i] * mats[i][r][c] for i in range(len(mats)))
             for c in range(cols)] for r in range(rows)]


def _apply(M, v):
    return [sum(a * b for a, b in zip(row, v)) for row in M]


def _br(G, x, y):
    """Bilinear extension of a bracket table to vectors."""
    n = len(G)
    return [sum(x[i] * y[j] * G[i][j][m] for i in range(n) for j in range(n))
            for m in range(n)]


def _columns(T):
    return [[T[r][a] for r in range(len(T))] for a in range(len(T[0]))]


def anti_o_ok(T, g1, g2, rho, mu, is_zero):
    m = len(T[0])
    cols = _columns(T)
    for brk, act in ((g1, rho), (g2, mu)):
        for a, b in iproduct(range(m), repeat=2):
            lhs = _br(brk, cols[a], cols[b])
            inner = [x - y for x, y in zip(
                [row[a] for row in _combine(act, cols[b])],
                [row[b] for row in _combine(act, cols[a])])]
            if not all(is_zero(x - y) for x, y in zip(lhs, _apply(T, inner))):
                return False
    return True


def strong_ok(T, g1, g2, rho, mu, is_zero):
    m = len(T[0])
    cols = _columns(T)
    for k1, k2 in ((1, 0), (0, 1), (1, 1)):
        brk = [[[k1 * x + k2 * y for x, y in zip(r1, r2)]
                for r1, r2 in zip(p1, p2)] for p1, p2 in zip(g1, g2)]
        act = [[[k1 * x + k2 * y for x, y in zip(r1, r2)]
                for r1, r2 in zip(a1, a2)] for a1, a2 in zip(rho, mu)]
        for a, b, c in iproduct(range(m), repeat=3):
            total = [0] * m
            for p_, q_, w in ((a, b, c), (b, c, a), (c, a, b)):
                mat = _combine(act, _br(brk, cols[p_], cols[q_]))
                total = [t + row[w] for t, row in zip(total, mat)]
            if not all(is_zero(x) for x in total):
                return False
    return True


def induced_on_domain(T, rho, mu):
    """u.v = -rho(Tu)v and u*v = -mu(Tu)v on V."""
    cols = _columns(T)
    m = len(cols)

    def build(act):
        return [[[-row[b] for row in _combine(act, cols[a])]
                 for b in range(m)] for a in range(m)]

    return build(rho), build(mu)


def invariant_ok(gram, C, is_zero):
    """B(e_i.e_j, e_k) = B(e_j, [e_i,e_k]) on every basis triple."""
    n = len(C)
    G = commutator_table(C)

    def form(x, y):
        return sum(x[a] * gram[a][b] * y[b] for a in range(n)
                   for b in range(n))

    unit = [[int(a == b) for b in range(n)] for a in range(n)]
    return all(is_zero(form(C[i][j], unit[k]) - form(unit[j], G[i][k]))
               for i, j, k in iproduct(range(n), repeat=3))


def cocycle_ok(gram, G, is_zero):
    """B([x,y],z) + B([y,z],x) + B([z,x],y) = 0 for a bracket table G."""
    n = len(G)

    def form(x, k):
        return sum(x[a] * gram[a][k] for a in range(n))

    return all(is_zero(form(G[i][j], k) + form(G[j][k], i) + form(G[k][i], j))
               for i, j, k in iproduct(range(n), repeat=3))


def rank_exact(rows, p=None):
    """Rank over Q (Fractions) or, with p, over GF(p)."""
    m = [[Fraction(v) if p is None else int(v) % p for v in row]
         for row in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(rank, len(m)) if m[i][c]), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = (1 / m[rank][c] if p is None else pow(m[rank][c], p - 2, p))
        for i in range(rank + 1, len(m)):
            if m[i][c]:
                f = m[i][c] * inv
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
                if p is not None:
                    m[i] = [a % p for a in m[i]]
        rank += 1
    return rank


def mixed_rows(C):
    """Conditions iii-iv as a matrix in the n^3 phi unknowns (exact)."""
    n = len(C)
    zero = C[0][0][0] * 0
    cols = []
    for a, b, c in iproduct(range(n), repeat=3):
        E = [[[zero + int((i, j, k) == (a, b, c)) for k in range(n)]
              for j in range(n)] for i in range(n)]
        rsum = apl_residuals(add_tables(C, E))
        rc, re_ = apl_residuals(C), apl_residuals(E)
        cols.append([x - y - z for key in sorted(rsum)
                     for x, y, z in zip(rsum[key], rc[key], re_[key])])
    return [list(r) for r in zip(*cols)]


def symmetric_ok(gram, is_zero):
    n = len(gram)
    return all(is_zero(gram[a][b] - gram[b][a])
               for a in range(n) for b in range(n))


# ---------------------------------------------------------------------------
# coefficient text and tables
# ---------------------------------------------------------------------------

_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


@lru_cache(maxsize=None)
def _parse(text, variables):
    import sympy
    code = _NAME.sub(lambda m: "v_" + m.group(0), text).replace("^", "**")
    return sympy.sympify(code, locals={"v_" + v: sympy.Symbol("v_" + v)
                                       for v in variables})


def parse_coeff(text: str, variables=()):
    """A coefficient-grammar string as a sympy expression.  Names are
    prefixed so that words such as ``lambda`` stay plain symbols."""
    return _parse(text, tuple(sorted(variables)))


def eval_at(text: str, point: dict) -> Fraction:
    """A coefficient string at a rational point, as a Fraction."""
    expr = parse_coeff(text, point)
    val = expr.subs({"v_" + k: v for k, v in point.items()})
    num, den = val.as_numer_denom()
    return Fraction(int(num), int(den))


def table_from_entries(n, entries, convert, zero=0):
    """Dense n^3 table from [i, j, k, coeff] quadruples (1-based)."""
    T = [[[zero] * n for _ in range(n)] for _ in range(n)]
    for i, j, k, c in entries:
        T[i - 1][j - 1][k - 1] = convert(c)
    return T


def gf_value(q: Fraction, p: int) -> int:
    if q.denominator % p == 0:
        raise ZeroDivisionError(f"{q} has no residue mod {p}")
    return q.numerator * pow(q.denominator, -1, p) % p
