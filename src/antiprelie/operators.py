"""Anti-O-operators, anti-Rota-Baxter operators, and induced products.

For a fixed representation pair R, the anti-O and strong residuals of a
map T: V -> g are quadratic in the n*m entries of T and are evaluated on
the plain values of `linalg`, shared with the identity checks, as
Fraction arithmetic would cost more than the check itself.  R's
structure constants and action matrices are converted once, on first
use, and kept on R outside the dataclass fields, so R's ==, hash and
repr ignore them; they hold O(n^3 + n*m^2) values, the size of R itself.

Each anti-O residual component is one dot product of products of
entries of T with R's constants, taken only for the basis pairs a < b.
The T-action terms of the residual X_t at (a, b) use nA = -A, so they
cancel when a and b are swapped, and over every ring

    X_t(a, b) + X_t(b, a) = sum_ij T_ia T_jb ([e_i,e_j]_t + [e_j,e_i]_t)_k
    X_t(a, a) = sum_ij T_ia T_ja [e_i,e_j]_t,k

R's constants include a sparse table of each bracket's symmetric part,
the entries left nonzero by reduction, so the rows (b, a) are -X_t(a, b)
plus that table's terms and the rows (a, a) are its terms alone.  The
table is empty for antisymmetric brackets, which makes the rows (b, a)
the negated rows (a, b) and the rows (a, a) zero.  A check then costs
O(n^3 m^2 + n^2 m^3) / 2 for the contractions and O(m^2 (n + s)) for
the derived rows, with s entries in the table.  The strong residuals
first take the brackets [Te_p, Te_q], by one dot product per entry for
p < q and by the same identity for the others, and then one dot product
per component with the action entries, O(m^2 n^3 / 2 + n m^4); the
rotations of an index triple share one evaluation, as they have the
same cyclic words.  The anti-Rota-Baxter converse is the same
contraction on a single word, applied to the anti-O form on G's adjoint
pair with G's right multiplications in place of the negated left
action; there the T-action terms of a swap add up to G's symmetric
part, read off the same table.  One evaluator, `_failures`, serves
every operator identity on a concrete map: `check_anti_o`,
`check_strong`, `check_anti_rota_baxter`, `check_rb_converse` and the
preconditions of the constructions.  Only the failing residuals are
wrapped back into Scalars, so reports are those of the direct check.

The induced products are built from the same plain constants, not
only the checks.  The domain products of `induce_on_domain`,
`induce_from_rb` and `induce_on_image` are
sc[i][j][k] = -sum_c T[c][i] act(e_c)[k][j], one dot product of a
column of T with R's negated action entries; `induce_from_invertible`
contracts the conjugates -T act(e_i) T^{-1} from the plain values of T
and T^{-1}.  Each entry is wrapped into a Scalar once, and the tables
are built by `Algebra._trusted`, since they come from checked inputs.

Conditions quantified over all pencil coefficients (k1, k2) are decided
coefficient-wise: two coefficients for the bilinear operator identity,
three (k1^2, k1*k2, k2^2) for the cyclic "strong" conditions and the
anti-Rota-Baxter converse.

An anti-Rota-Baxter operator R on a bracket pair G is checked as an
anti-O-operator on the adjoint pair (ad_1, ad_2, G), and `induce_from_rb`
is `induce_on_domain` there.  The two identities agree only when both
brackets are antisymmetric, so that is a checked precondition; the
converse takes any bracket pair.
"""
from __future__ import annotations

from itertools import combinations, combinations_with_replacement
from itertools import product as iproduct

from .algebra import (_PENCIL, Algebra, AlgebraPair, CheckReport,
                      _symmetry_failures, make_report, transported)
from .errors import (FieldMismatchError, NotInvertibleError,
                     PreconditionError, ShapeMismatchError)
from .linalg import Matrix, _plain, _ring, _way_back
from .representations import RepresentationPair, adjoint_pair

__all__ = [
    "check_anti_o", "check_strong", "check_anti_rota_baxter",
    "induce_on_domain", "induce_on_image", "induce_from_rb",
    "check_rb_converse", "induce_from_invertible",
]


def _constants(R: RepresentationPair):
    """R's plain constants, built by `_build_constants` on first use and
    then kept on R, like Field.zero()."""
    try:
        return R._plain_constants
    except AttributeError:
        object.__setattr__(R, "_plain_constants", _build_constants(R))
        return R._plain_constants


def _build_constants(R: RepresentationPair):
    """(S, A, nA, Ak, sym, den): for t = 0, 1 (bracket 1 with rho,
    bracket 2 with mu), S[t][k] lists [e_i, e_j]_k over (i, j), A[t][x]
    lists act(e_j)[c][x] over (j, c) and nA = -A; Ak[part][r][w] lists
    act_s(e_k)[r][w] over the (action, bracket) pairs (s, t) of each
    pencil part and k; sym[t] is the symmetric part of bracket t, the
    entries (k, i, j, c) with i <= j and c = [e_i, e_j]_k + [e_j, e_i]_k
    (c = [e_i, e_i]_k when i = j) that are nonzero after reduction, empty
    for an antisymmetric bracket.  All are plain values on one
    denominator den."""
    n, m, f = R.g.dim, R.v_dim, R.field
    brackets, actions = (R.g.circ, R.g.star), (R.rho, R.mu)
    den, values = _plain(f, [x for B in brackets for p in B.sc
                             for r in p for x in r] +
                         [x for ms in actions for M in ms
                          for r in M.entries for x in r])
    S = [[values([B.sc[i][j][k] for i in range(n) for j in range(n)])
          for k in range(n)] for B in brackets]
    A = [[values([M.entries[c][x] for M in ms for c in range(m)])
          for x in range(m)] for ms in actions]
    ring, (reduce, _) = _ring(f), _way_back(f)
    nA = [[list(map(ring.neg, col)) for col in At] for At in A]
    Ak = [[[[A[s][w][k * m + r] for s, _ in combos for k in range(n)]
            for w in range(m)] for r in range(m)] for _, combos in _PENCIL]
    upper = list(combinations_with_replacement(range(n), 2))
    sym = [[(k, i, j, c) for k, Sk in enumerate(St)
            for (i, j), c in zip(upper, reduce([
                ring.add(Sk[i * n + j], Sk[j * n + i]) if i < j
                else Sk[i * n + i] for i, j in upper])) if c]
           for St in S]
    return S, A, nA, Ak, sym, den


def _swapped(x, symt, ca, cb, ring):
    """Row (b, a) of a bracket form from its row x at (a, b), a != b:
    the T-action terms cancel under the swap, so the two rows sum to
    sum_ij T_ia T_jb ([e_i, e_j] + [e_j, e_i])_k, that is, over the
    entries (k, i, j, c) of the symmetric table symt,
    c (T_ia T_jb + T_ja T_ib).  ca, cb are the columns a, b of T."""
    add, times = ring.add, ring.mul
    y = list(map(ring.neg, x))
    for k, i, j, c in symt:
        y[k] = add(y[k], times(c, add(times(ca[i], cb[j]),
                                      times(ca[j], cb[i]))))
    return y


def _diagonal(symt, ca, ring, n):
    """Row (a, a) of a bracket form, whose T-action terms cancel:
    sum_ij T_ia T_ja [e_i, e_j]_k, that is c T_ia T_ja summed over the
    entries (k, i, j, c) of the symmetric table symt."""
    add, times = ring.add, ring.mul
    y = [ring.zero] * n
    for k, i, j, c in symt:
        y[k] = add(y[k], times(c, times(ca[i], ca[j])))
    return y


def _anti_o_residuals(cols, rows, consts, ring, left=None):
    """(den, rows) of the anti-O form: rows (name, (a, b), X) in the order
    of (t, a, b), name "1" or "2" for t = 0, 1, where X lists over k
    sum_ij T_ia T_jb [e_i, e_j]_k + sum_jc T_jb T_kc left[t][a][(j, c)]
    + sum_jc T_ja T_kc act(e_j)[c][b], one dot product each for a < b,
    with (bracket, act) = (circ, rho), (star, mu).  With left = nA, the
    default, X is the anti-O residual
    [Te_a, Te_b]_k - T(act(Te_b) e_a - act(Te_a) e_b)_k, and the rows
    (b, a) and (a, a) follow from the swap identity of `_swapped` and
    `_diagonal`.  Another left comes as (left, lift), where lift[t][x]
    lists the entries (j * m + c, v) of the sum v = left[t][x] + A[t][x]
    at (j, c) that the swap no longer cancels."""
    S, A, nA, _, sym, den = consts
    add, times, dot = ring.add, ring.mul, ring.dot
    n, m = len(rows), len(cols)
    L, lift = left or (nA, [[()] * m] * 2)
    # Q[k][x] lists T_jx T_kc over (j, c)
    Q = [[[times(x, y) for x in col for y in row] for col in cols]
         for row in rows]
    # V[a, b][k] joins T_ia T_jb over (i, j), Q[k][b] and Q[k][a], a < b
    V = {}
    for a, b in combinations(range(m), 2):
        Pab = [times(x, y) for x in cols[a] for y in cols[b]]
        V[a, b] = [Pab + Qk[b] + Qk[a] for Qk in Q]

    def lifted(y, b, lta):
        # y_k + sum_jc T_jb T_kc lta[(j, c)], for lta = lift[t][a]
        for u, v in lta:
            for k, Qk in enumerate(Q):
                y[k] = add(y[k], times(Qk[b][u], v))
        return y

    out = []
    for name, St, Lt, At, symt, lt in zip("12", S, L, A, sym, lift):
        X = {}
        for ab in iproduct(range(m), repeat=2):
            a, b = ab
            if a < b:
                C = Lt[a] + At[b]
                X[ab] = x = [dot(Vk, Sk + C) for Vk, Sk in zip(V[ab], St)]
            elif a > b:
                x = lifted(lifted(_swapped(X[b, a], symt, cols[b], cols[a],
                                           ring), a, lt[b]), b, lt[a])
            else:
                x = lifted(_diagonal(symt, cols[a], ring, n), a, lt[a])
            out.append((name, ab, x))
    return den, out


def _by_part(X, m):
    """Per pencil part, Xp[p][q] joins the vectors X[(t*m + p)*m + q] of
    the part's (action, bracket) pairs (s, t), in the order of its Ak."""
    return [[[[x for _, t in combos for x in X[(t * m + p) * m + q]]
              for q in range(m)] for p in range(m)] for _, combos in _PENCIL]


def _strong_residuals(cols, rows, consts, ring):
    """(den, rows) of the strong identity: component r of the k1^2, k1*k2
    and k2^2 parts of the cyclic sum of act(X(Te_p, Te_q)) e_w over the
    words (p, q, w) of (a, b, c), with act = k1 rho + k2 mu and
    X = k1 [,]_1 + k2 [,]_2.  A part sums
    sum_k [Te_p, Te_q]_t,k act_s(e_k)[r][w] over its (action, bracket)
    pairs (s, t): one dot product per component, after one per entry of
    the brackets [Te_p, Te_q]_t for p < q; the brackets at q >= p follow
    by `_swapped` and `_diagonal`.  The rotations of (a, b, c) have the
    same words, so they share one evaluation."""
    S, _, _, Ak, sym, den = consts
    times, dot, n, m = ring.mul, ring.dot, len(rows), len(cols)
    P = {(p, q): [times(x, y) for x in cols[p] for y in cols[q]]
         for p, q in combinations(range(m), 2)}
    B = []
    for St, symt in zip(S, sym):
        X = {}
        for pq in iproduct(range(m), repeat=2):
            p, q = pq
            if p < q:
                X[pq] = x = [dot(P[pq], Sk) for Sk in St]
            elif p > q:
                x = _swapped(X[q, p], symt, cols[q], cols[p], ring)
            else:
                x = _diagonal(symt, cols[p], ring, n)
            B.append(x)
    # the brackets [Te_p, Te_q]_t in the order of (t, p, q)
    Xp = _by_part(B, m)
    out, seen = [], {}
    for abc in iproduct(range(m), repeat=3):
        a, b, c = abc
        key = min(abc, (b, c, a), (c, a, b))
        if key not in seen:
            seen[key] = [[dot(Xq[a][b] + Xq[b][c] + Xq[c][a],
                              Ar[c] + Ar[a] + Ar[b]) for Ar in Aq]
                         for Xq, Aq in zip(Xp, Ak)]
        out.extend((name, abc, sums)
                   for (name, _), sums in zip(_PENCIL, seen[key]))
    return den * den, out


def _converse_residuals(cols, rows, consts, ring):
    """(den, rows) of the anti-Rota-Baxter converse on G's adjoint pair:
    X_t(i, j) = [Re_i, Re_j]_t + R([e_i, Re_j]_t + [Re_i, e_j]_t) is the
    anti-O form with left[t][a] = [e_a, e_j]_t over (j, c), G's right
    multiplications (nA when G is antisymmetric), and a pencil part sums
    [X_t(i, j), e_k]_s over its pairs (s, t) on the one word (i, j, k)."""
    S, _, _, Ak, sym, den = consts
    add, dot, n = ring.add, ring.dot, len(cols)
    right = [[[St[c][a * n + j] for j in range(n) for c in range(n)]
              for a in range(n)] for St in S]
    # as act(e_j)[c][a] = [e_j, e_a]_c, the lift at a is G's symmetric
    # part [e_a, e_j]_c + [e_j, e_a]_c: the entry (c, i, j, v) of the
    # symmetric table at a = i and at a = j, twice v when i = j
    lift = [[[] for _ in range(n)] for _ in sym]
    for symt, lt in zip(sym, lift):
        for c, i, j, v in symt:
            if i < j:
                lt[i].append((j * n + c, v))
                lt[j].append((i * n + c, v))
            else:
                lt[i].append((i * n + c, add(v, v)))
    _, form = _anti_o_residuals(cols, rows, consts, ring, (right, lift))
    Xp = _by_part([X for _, _, X in form], n)
    return den * den, [(name, (i, j, k), [dot(Xq[i][j], Ar[k]) for Ar in Aq])
                       for i, j, k in iproduct(range(n), repeat=3)
                       for (name, _), Xq, Aq in zip(_PENCIL, Xp, Ak)]


def _plain_map(T: Matrix):
    """(den, rows, cols): T's entries as plain values on one denominator
    den, by rows and by columns."""
    den, values = _plain(T.field, [x for row in T.entries for x in row])
    rows = list(map(values, T.entries))
    return den, rows, [list(col) for col in zip(*rows)]


def _failures(T: Matrix, R: RepresentationPair, residuals, prefix):
    """The failing rows of the residual function `residuals` at T, as
    (prefix + name, indices, residual Scalars), computed on plain values
    from R's cached constants."""
    n, m, f = R.g.dim, R.v_dim, R.field
    if (T.rows, T.cols) != (n, m):
        raise ShapeMismatchError(f"T must be {n}x{m}, got {T.rows}x{T.cols}")
    if T.field != f:
        raise FieldMismatchError("T and the representation pair are over "
                                 "different fields")
    t_den, rows, cols = _plain_map(T)
    den, residuals = residuals(cols, rows, _constants(R), _ring(f))
    reduce, wrap = _way_back(f)
    den *= t_den * t_den
    return [(prefix + name, ix, wrap(sums, den))
            for name, ix, raw in residuals if any(sums := reduce(raw))]


def check_anti_o(T: Matrix, R: RepresentationPair) -> CheckReport:
    """The anti-O identity for each bracket; linearity in (k1,k2) makes
    the two coefficient checks equivalent to the all-pencil statement."""
    return make_report(_failures(T, R, _anti_o_residuals, "anti_o_"))


def check_strong(T: Matrix, R: RepresentationPair) -> CheckReport:
    """Strongness of an anti-O-operator: the k1^2, k1*k2, k2^2 components
    of rho_pencil([Tu,Tv]_pencil)w + cyclic.  Raises if T is not anti-O."""
    check_anti_o(T, R).require("T is not an anti-O-operator")
    return make_report(_failures(T, R, _strong_residuals, "strong_"))


def check_anti_rota_baxter(Rop: Matrix, G: AlgebraPair,
                           strong: bool = False) -> CheckReport:
    """[R(x),R(y)] = R([R(y),x] + [y,R(x)]) for each bracket; with the
    strong flag, also the cyclic condition coefficient-wise in the pencil.
    Both are the anti-O conditions of R on the adjoint pair, relabelled
    anti_rb_* and strong_rb_*; the brackets must be antisymmetric."""
    ad = adjoint_pair(G)
    if (Rop.rows, Rop.cols) != (G.dim, G.dim):
        raise ShapeMismatchError("anti-Rota-Baxter operator must be square")
    for name, A in (("bracket 1", G.circ), ("bracket 2", G.star)):
        if _symmetry_failures(A, "antisymmetric"):
            raise PreconditionError(
                f"{name} is not antisymmetric; anti-Rota-Baxter operators "
                "are checked as anti-O-operators on the adjoint pair")
    failures = _failures(Rop, ad, _anti_o_residuals, "anti_rb_")
    if strong:
        failures += _failures(Rop, ad, _strong_residuals, "strong_rb_")
    return make_report(failures)


def induce_on_domain(T: Matrix, R: RepresentationPair) -> AlgebraPair:
    """Products on V:  u.v = -rho(T(u))v,  u*v = -mu(T(u))v.

    The result is a compatible anti-pre-Lie pair exactly when T is strong.
    """
    check_anti_o(T, R).require("T is not an anti-O-operator")
    return _domain_pair(T, R)


def _domain_pair(T: Matrix, R: RepresentationPair,
                 basis=None) -> AlgebraPair:
    """The products of `induce_on_domain`, for a T already checked:
    sc[i][j][k] = -sum_c T[c][i] act(e_c)[k][j], one dot product of
    column i of T with R's negated action entries per entry."""
    f, m = R.field, R.v_dim
    t_den, _, cols = _plain_map(T)
    _, _, nA, _, _, den = _constants(R)
    dot, (_, wrap), den = _ring(f).dot, _way_back(f), den * t_den

    def build(nAt):
        # nAt[j][c * m + k] = -act(e_c)[k][j]
        return Algebra._trusted(f, m, [[wrap([dot(col, nAj[k::m])
                                              for k in range(m)], den)
                                        for nAj in nAt] for col in cols],
                                basis)

    return AlgebraPair(*map(build, nA))


def _column_echelon_basis(T: Matrix):
    """Basis of the column space, the nonzero rows of the reduced row
    echelon form of T^t, with their pivot columns.

    First-pivot tie-breaking comes from the elimination order, so the
    basis is deterministic.
    """
    rr, pivots = T.transpose().rref()
    return [list(rr.entries[r]) for r in range(len(pivots))], pivots


def induce_on_image(T: Matrix, R: RepresentationPair):
    """The induced pair on T(V) with T(u).T(v) = T(u.v).

    The products are well defined on T(V) because T is anti-O: for k in
    ker T, [Tu, Tk] = 0 gives T(rho(Tu)k) = 0, that is T(u.k) = 0, and
    k.u = -rho(Tk)u = 0; likewise for mu.  The image basis is in reduced
    row echelon form, so the coordinates of a vector of T(V) are its
    entries at the pivot columns.  Returns (pair_on_image,
    image_basis_vectors).
    """
    check_strong(T, R).require("T is not strong")  # raises if not anti-O
    domain = _domain_pair(T, R)  # check_strong has checked anti-O
    f = R.field
    basis, pivots = _column_echelon_basis(T)
    r = len(basis)
    if r == 0:
        zero = Algebra.zero_algebra(f, 1)
        return AlgebraPair(zero, zero), []
    # preimages of the image basis vectors, which lie in T(V) by
    # construction (deterministic rref solve)
    pre = [T.solve(w) for w in basis]

    def build(A: Algebra):
        sc = [[[Tw[c] for c in pivots] for Tw in map(T.apply, row)]
              for row in transported(A, pre)]
        return Algebra(f, r, sc)

    return AlgebraPair(build(domain.circ), build(domain.star)), basis


def induce_from_rb(Rop: Matrix, G: AlgebraPair) -> AlgebraPair:
    """x.y = -[R(x),y]_1,  x*y = -[R(x),y]_2 for a strong anti-RB operator:
    the domain products of R on the adjoint pair, on G's basis."""
    check_anti_rota_baxter(Rop, G, strong=True).require(
        "R is not a strong anti-Rota-Baxter operator")
    return _domain_pair(Rop, adjoint_pair(G), G.basis)


def check_rb_converse(Rop: Matrix, G: AlgebraPair) -> CheckReport:
    """[[R(x),R(y)] + R([x,R(y)] + [R(x),y]), z] = 0, coefficient-wise in
    the pencil (k1^2, k1*k2, k2^2 components); any bracket pair."""
    return make_report(_failures(Rop, adjoint_pair(G), _converse_residuals,
                                 "rb_converse_"))


def induce_from_invertible(T: Matrix, R: RepresentationPair) -> AlgebraPair:
    """Products on g itself from an invertible anti-O-operator:
    x.y = -T(rho(x) T^{-1} y); the commutator pair recovers g's brackets.
    The table of e_i is the conjugate -T act(e_i) T^{-1}, contracted from
    the plain values of T, T^{-1} and R's action entries."""
    n, f = R.g.dim, R.field
    if (T.rows, T.cols) != (n, R.v_dim) or R.v_dim != n:
        raise ShapeMismatchError("invertible operator requires V ~ g")
    # both limits before a polynomial det, which costs n!
    T._require_det_rows()
    T._require_adjugate_rows()
    try:
        inverse = T.inverse()
    except NotInvertibleError:
        # the det only names the cause: a singular T comes first, then
        # a T that is not anti-O, then a det that is no unit of the ring
        if T.det().is_zero():
            raise NotInvertibleError("T is singular") from None
        check_anti_o(T, R).require("T is not an anti-O-operator")
        raise
    check_anti_o(T, R).require("T is not an anti-O-operator")
    t_den, rows, _ = _plain_map(T)
    inv_den, _, inv_cols = _plain_map(inverse)
    _, _, nA, _, _, den = _constants(R)
    dot, (_, wrap), den = _ring(f).dot, _way_back(f), t_den * den * inv_den

    def build(nAt):
        # -act(e_i) T^{-1} e_j, row a, is the dot of
        # nAt[b][i * n + a] = -act(e_i)[a][b] over b with column j of T^{-1}
        sc = []
        for i in range(n):
            nact = [[nAb[i * n + a] for nAb in nAt] for a in range(n)]
            planes = [[dot(row, col) for row in nact] for col in inv_cols]
            sc.append([wrap([dot(Tk, w) for Tk in rows], den)
                       for w in planes])
        return Algebra._trusted(f, n, sc, R.g.basis)

    return AlgebraPair(*map(build, nA))
