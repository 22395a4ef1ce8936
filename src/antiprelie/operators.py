"""Anti-O-operators, anti-Rota-Baxter operators, and induced products.

Conditions quantified over all pencil coefficients (k1, k2) are decided
coefficient-wise: two coefficients for the bilinear operator identity,
three (k1^2, k1*k2, k2^2) for the cyclic "strong" conditions and the
anti-Rota-Baxter converse, all through one polarization helper.

An anti-Rota-Baxter operator R on a bracket pair G is checked as an
anti-O-operator on the adjoint pair (ad_1, ad_2, G), and `induce_from_rb`
is `induce_on_domain` there.  The two identities agree only when both
brackets are antisymmetric, so that is a checked precondition.

Columns of T and of every action matrix are read directly, each action
matrix is built once per check, and the products of the vectors T e_a
come from one transported table per bracket.
"""
from __future__ import annotations

from itertools import product as iproduct

from .algebra import (_PENCIL, Algebra, AlgebraPair, CheckReport, _left,
                      _right, _symmetry_failures, make_report, transported)
from .errors import NotInvertibleError, PreconditionError, ShapeMismatchError
from .linalg import Matrix, _vadd, _vec_is_zero, _vsub
from .representations import RepresentationPair, adjoint_pair

__all__ = [
    "check_anti_o", "check_strong", "check_anti_rota_baxter",
    "induce_on_domain", "induce_on_image", "induce_from_rb",
    "check_rb_converse", "induce_from_invertible",
]


def _pencil_failures(R: RepresentationPair, tables, cyclic: bool, prefix):
    """Nonzero k1^2, k1*k2, k2^2 components of act_k(X_k[p][q]) e_w on
    every index triple (a, b, c), summed over the cyclic words (a, b, c),
    (b, c, a), (c, a, b) or taken on (a, b, c) alone.  tables = (X_1, X_2)
    hold vectors of g; act_1, act_2 = rho, mu, and _PENCIL's pairs (s, t)
    are (action, bracket) indices of act_k(X_k) = (k1 rho + k2 mu)(k1 X_1
    + k2 X_2)."""
    # cols[s][t][p][q][w] = act_s(X_t[p][q]) e_w
    cols = [[[[act(v).columns() for v in row] for row in X] for X in tables]
            for act in (R.rho_of, R.mu_of)]
    failures = []
    for a, b, c in iproduct(range(R.v_dim), repeat=3):
        words = ((a, b, c), (b, c, a), (c, a, b)) if cyclic else ((a, b, c),)
        for name, combos in _PENCIL:
            total = _vadd(*(cols[s][t][p][q][w] for s, t in combos
                            for p, q, w in words))
            if not _vec_is_zero(total):
                failures.append((prefix + name, (a, b, c), total))
    return failures


def _anti_o_failures(T: Matrix, R: RepresentationPair, prefix="anti_o_"):
    """[T(u),T(v)] = T(rho(T(v))u - rho(T(u))v), separately for
    (bracket1, rho) and (bracket2, mu)."""
    n, m = R.g.dim, R.v_dim
    if (T.rows, T.cols) != (n, m):
        raise ShapeMismatchError(f"T must be {n}x{m}, got {T.rows}x{T.cols}")
    Tu = T.columns()
    failures = []
    for name, bracket, act in ((prefix + "1", R.g.circ, R.rho_of),
                               (prefix + "2", R.g.star, R.mu_of)):
        lhs = transported(bracket, Tu)
        # acts[b][a] = act(T e_b) e_a
        acts = [act(t).columns() for t in Tu]
        for a, b in iproduct(range(m), repeat=2):
            r = _vsub(lhs[a][b], T.apply(_vsub(acts[b][a], acts[a][b])))
            if not _vec_is_zero(r):
                failures.append((name, (a, b), r))
    return failures


def _strong_failures(T: Matrix, R: RepresentationPair, prefix="strong_"):
    """Cyclic vanishing, pencil coefficient-wise: the k1^2, k1*k2, k2^2
    components of rho_pencil([Tu,Tv]_pencil)w + cyclic."""
    Tu = T.columns()
    return _pencil_failures(R, [transported(br, Tu)
                                for br in (R.g.circ, R.g.star)],
                            True, prefix)


def check_anti_o(T: Matrix, R: RepresentationPair) -> CheckReport:
    """The anti-O identity for each bracket; linearity in (k1,k2) makes
    the two coefficient checks equivalent to the all-pencil statement."""
    return make_report(_anti_o_failures(T, R))


def check_strong(T: Matrix, R: RepresentationPair) -> CheckReport:
    """Strongness of an anti-O-operator; raises if T is not anti-O."""
    check_anti_o(T, R).require("T is not an anti-O-operator")
    return make_report(_strong_failures(T, R))


def _require_antisymmetric(G: AlgebraPair):
    for name, A in (("bracket 1", G.circ), ("bracket 2", G.star)):
        if _symmetry_failures(A, "antisymmetric"):
            raise PreconditionError(
                f"{name} is not antisymmetric; anti-Rota-Baxter operators "
                "are checked as anti-O-operators on the adjoint pair")


def check_anti_rota_baxter(Rop: Matrix, G: AlgebraPair,
                           strong: bool = False) -> CheckReport:
    """[R(x),R(y)] = R([R(y),x] + [y,R(x)]) for each bracket; with the
    strong flag, also the cyclic condition coefficient-wise in the pencil.

    Both are the anti-O conditions of R on the adjoint pair, relabelled
    anti_rb_* and strong_rb_*; the brackets must be antisymmetric.
    """
    n = G.dim
    if (Rop.rows, Rop.cols) != (n, n):
        raise ShapeMismatchError("anti-Rota-Baxter operator must be square")
    _require_antisymmetric(G)
    ad = adjoint_pair(G)
    failures = _anti_o_failures(Rop, ad, "anti_rb_")
    if strong:
        failures += _strong_failures(Rop, ad, "strong_rb_")
    return make_report(failures)


def induce_on_domain(T: Matrix, R: RepresentationPair) -> AlgebraPair:
    """Products on V:  u.v = -rho(T(u))v,  u*v = -mu(T(u))v.

    The result is a compatible anti-pre-Lie pair exactly when T is strong.
    """
    check_anti_o(T, R).require("T is not an anti-O-operator")
    return _domain_pair(T, R)


def _domain_pair(T: Matrix, R: RepresentationPair,
                 basis=None) -> AlgebraPair:
    """The products of `induce_on_domain`, for a T already checked."""
    Tu = T.columns()

    def build(act):
        sc = [[[-x for x in col] for col in act(t).columns()] for t in Tu]
        return Algebra(R.field, R.v_dim, sc, basis)

    return AlgebraPair(build(R.rho_of), build(R.mu_of))


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
    n = G.dim
    if (Rop.rows, Rop.cols) != (n, n):
        raise ShapeMismatchError("operator must be square")
    Re = Rop.columns()

    def inner(brk):
        """X[i][j] = [Re_i, Re_j] + R([e_i, Re_j] + [Re_i, e_j])."""
        W = transported(brk, Re)
        return [[_vadd(W[i][j], Rop.apply(_vadd(_left(brk, i, Re[j]),
                                                 _right(brk, Re[i], j))))
                 for j in range(n)] for i in range(n)]

    # [X, e_k] is the adjoint action of X read at column k
    return make_report(_pencil_failures(
        adjoint_pair(G), (inner(G.circ), inner(G.star)), False,
        "rb_converse_"))


def induce_from_invertible(T: Matrix, R: RepresentationPair) -> AlgebraPair:
    """Products on g itself from an invertible anti-O-operator:
    x.y = -T(rho(x) T^{-1} y); the commutator pair recovers g's brackets."""
    n = R.g.dim
    if (T.rows, T.cols) != (n, R.v_dim) or R.v_dim != n:
        raise ShapeMismatchError("invertible operator requires V ~ g")
    if T.det().is_zero():
        raise NotInvertibleError("T is singular")
    check_anti_o(T, R).require("T is not an anti-O-operator")
    tinv_cols = T.inverse().columns()

    def build(mats):
        # rho(e_i) is the stored matrix mats[i]
        sc = [[[-x for x in T.apply(mat.apply(t))] for t in tinv_cols]
              for mat in mats]
        return Algebra(R.field, n, sc, R.g.basis)

    return AlgebraPair(build(R.rho), build(R.mu))
