"""Anti-O-operators, anti-Rota-Baxter operators, and induced products.

Conditions quantified over all pencil coefficients (k1, k2) are decided
coefficient-wise: two coefficients for the bilinear operator identity,
three (k1^2, k1*k2, k2^2) for the cyclic "strong" conditions.
Action matrices are built once per basis vector (or basis pair) and
their columns are read directly.
"""
from __future__ import annotations

from itertools import product as iproduct

from .algebra import (Algebra, AlgebraPair, CheckReport, make_report,
                      multiply)
from .errors import NotInvertibleError, PreconditionError, ShapeMismatchError
from .linalg import Matrix
from .representations import RepresentationPair

__all__ = [
    "check_anti_o", "check_strong", "check_anti_rota_baxter",
    "induce_on_domain", "induce_on_image", "induce_from_rb",
    "check_rb_converse", "induce_from_invertible",
]


def _unit_vectors(field, m):
    return [[field.one() if t == i else field.zero() for t in range(m)]
            for i in range(m)]


def _columns(mat: Matrix):
    """Columns of mat: entry j is mat applied to the j-th unit vector."""
    return list(zip(*mat.entries))


def check_anti_o(T: Matrix, R: RepresentationPair) -> CheckReport:
    """[T(u),T(v)] = T(rho(T(v))u - rho(T(u))v), separately for
    (bracket1, rho) and (bracket2, mu); linearity in (k1,k2) makes the two
    coefficient checks equivalent to the all-pencil statement."""
    n, m = R.g.dim, R.v_dim
    if (T.rows, T.cols) != (n, m):
        raise ShapeMismatchError(f"T must be {n}x{m}, got {T.rows}x{T.cols}")
    Tu = [T.apply(e) for e in _unit_vectors(R.field, m)]
    failures = []
    for name, bracket, act in (("anti_o_1", R.g.circ, R.rho_of),
                               ("anti_o_2", R.g.star, R.mu_of)):
        # acts[b][a] = act(T e_b) e_a
        acts = [_columns(act(t)) for t in Tu]
        for a in range(m):
            for b in range(m):
                lhs = multiply(bracket, Tu[a], Tu[b])
                inner = [x - y for x, y in zip(acts[b][a], acts[a][b])]
                rhs = T.apply(inner)
                r = [x - y for x, y in zip(lhs, rhs)]
                if any(not c.is_zero() for c in r):
                    failures.append((name, (a, b), r))
    return make_report(failures)


def _strong_failures(T: Matrix, R: RepresentationPair):
    """Cyclic vanishing, pencil coefficient-wise: the k1^2, k1*k2, k2^2
    components of rho_pencil([Tu,Tv]_pencil)w + cyclic."""
    m = R.v_dim
    Tu = [T.apply(e) for e in _unit_vectors(R.field, m)]
    zero = R.field.zero()

    # br1[p][q] = [Tu_p, Tu_q]_1, br2 likewise for bracket 2
    br1, br2 = ([[multiply(brk, Tu[p], Tu[q]) for q in range(m)]
                 for p in range(m)] for brk in (R.g.circ, R.g.star))

    def action_columns(act, br):
        """cols[p][q][w] = act(br[p][q]) e_w."""
        return [[_columns(act(v)) for v in row] for row in br]

    specs = (("strong_k1k1", (action_columns(R.rho_of, br1),)),
             ("strong_k1k2", (action_columns(R.rho_of, br2),
                              action_columns(R.mu_of, br1))),
             ("strong_k2k2", (action_columns(R.mu_of, br2),)))
    failures = []
    for a, b, c in iproduct(range(m), repeat=3):
        for name, tables in specs:
            total = [zero] * m
            for cols in tables:
                for (p, q, w) in ((a, b, c), (b, c, a), (c, a, b)):
                    total = [x + y for x, y in zip(total, cols[p][q][w])]
            if any(not x.is_zero() for x in total):
                failures.append((name, (a, b, c), total))
    return failures


def check_strong(T: Matrix, R: RepresentationPair) -> CheckReport:
    """Strongness of an anti-O-operator; raises if T is not anti-O."""
    base = check_anti_o(T, R)
    if not base.passed:
        raise PreconditionError("T is not an anti-O-operator "
                                f"({base.failure_count} failures)")
    return make_report(_strong_failures(T, R))


def check_anti_rota_baxter(Rop: Matrix, G: AlgebraPair,
                           strong: bool = False) -> CheckReport:
    """[R(x),R(y)] = R([R(y),x] + [y,R(x)]) for each bracket; with the
    strong flag, also the cyclic condition coefficient-wise in the pencil."""
    n = G.dim
    if (Rop.rows, Rop.cols) != (n, n):
        raise ShapeMismatchError("anti-Rota-Baxter operator must be square")
    e = _unit_vectors(G.field, n)
    Re = [Rop.apply(e[i]) for i in range(n)]
    failures = []
    for name, brk in (("anti_rb_1", G.circ), ("anti_rb_2", G.star)):
        for i in range(n):
            for j in range(n):
                lhs = multiply(brk, Re[i], Re[j])
                inner = [x + y for x, y in zip(multiply(brk, Re[j], e[i]),
                                               multiply(brk, e[j], Re[i]))]
                rhs = Rop.apply(inner)
                r = [x - y for x, y in zip(lhs, rhs)]
                if any(not c.is_zero() for c in r):
                    failures.append((name, (i, j), r))
    if strong:
        specs = (("strong_rb_k1k1", ((G.circ, G.circ),)),
                 ("strong_rb_k1k2", ((G.circ, G.star), (G.star, G.circ))),
                 ("strong_rb_k2k2", ((G.star, G.star),)))
        for i, j, k in iproduct(range(n), repeat=3):
            for name, combos in specs:
                total = [G.field.zero()] * n
                for inner_brk, outer_brk in combos:
                    for (p, q, w) in ((i, j, k), (j, k, i), (k, i, j)):
                        term = multiply(outer_brk,
                                        multiply(inner_brk, Re[p], Re[q]),
                                        e[w])
                        total = [x + y for x, y in zip(total, term)]
                if any(not x.is_zero() for x in total):
                    failures.append((name, (i, j, k), total))
    return make_report(failures)


def induce_on_domain(T: Matrix, R: RepresentationPair) -> AlgebraPair:
    """Products on V:  u.v = -rho(T(u))v,  u*v = -mu(T(u))v.

    The result is a compatible anti-pre-Lie pair exactly when T is strong.
    """
    base = check_anti_o(T, R)
    if not base.passed:
        raise PreconditionError("T is not an anti-O-operator "
                                f"({base.failure_count} failures)")
    return _domain_pair(T, R)


def _domain_pair(T: Matrix, R: RepresentationPair) -> AlgebraPair:
    """The products of `induce_on_domain`, for a T already checked."""
    f = R.field
    Tu = [T.apply(e) for e in _unit_vectors(f, R.v_dim)]

    def build(act):
        sc = [[[-x for x in col] for col in _columns(act(t))] for t in Tu]
        return Algebra(f, R.v_dim, sc)

    return AlgebraPair(build(R.rho_of), build(R.mu_of))


def _column_echelon_basis(T: Matrix):
    """Basis of the column space: reduced row echelon of T^t, nonzero rows.

    First-pivot tie-breaking comes from the elimination order, so the
    basis is deterministic.
    """
    rr, pivots = T.transpose().rref()
    return [list(rr.entries[r]) for r in range(len(pivots))]


def induce_on_image(T: Matrix, R: RepresentationPair):
    """The induced pair on T(V) with T(u).T(v) = T(u.v).

    Well-definedness on a non-injective T is verified on a kernel basis;
    a violation is reported by raising PreconditionError with the kernel
    witness.  Returns (pair_on_image, image_basis_vectors).
    """
    strong = check_strong(T, R)  # raises if not anti-O
    if not strong.passed:
        raise PreconditionError("T is not strong "
                                f"({strong.failure_count} failures)")
    domain = _domain_pair(T, R)  # check_strong has checked anti-O
    m = R.v_dim
    f = R.field
    u = _unit_vectors(f, m)
    kernel = T.nullspace()
    for kv in kernel:
        for b in range(m):
            for A in (domain.circ, domain.star):
                for x, y in ((kv, u[b]), (u[b], kv)):
                    img = T.apply(multiply(A, x, y))
                    if any(not c.is_zero() for c in img):
                        raise PreconditionError(
                            "induced product not well-defined on the image; "
                            f"kernel witness {[str(c) for c in kv]}")
    basis = _column_echelon_basis(T)
    r = len(basis)
    if r == 0:
        zero = Algebra.zero_algebra(f, 1)
        return AlgebraPair(zero, zero), []
    # preimages of the image basis vectors (deterministic rref solve)
    pre = []
    for w in basis:
        x = T.solve(w)
        if x is None:
            raise NotInvertibleError("image basis vector left the column space")
        pre.append(x)
    bmat = Matrix(f, [[basis[j][k] for j in range(r)]
                      for k in range(R.g.dim)])

    def build(A: Algebra):
        sc = []
        for a in range(r):
            plane = []
            for b in range(r):
                w = T.apply(multiply(A, pre[a], pre[b]))
                coeffs = bmat.solve(w)
                if coeffs is None:
                    raise NotInvertibleError("product left the image subspace")
                plane.append(coeffs)
            sc.append(plane)
        return Algebra(f, r, sc)

    return AlgebraPair(build(domain.circ), build(domain.star)), basis


def induce_from_rb(Rop: Matrix, G: AlgebraPair) -> AlgebraPair:
    """x.y = -[R(x),y]_1,  x*y = -[R(x),y]_2 for a strong anti-RB operator."""
    rep = check_anti_rota_baxter(Rop, G, strong=True)
    if not rep.passed:
        raise PreconditionError("R is not a strong anti-Rota-Baxter operator "
                                f"({rep.failure_count} failures)")
    n = G.dim
    f = G.field
    e = _unit_vectors(f, n)
    Re = [Rop.apply(e[i]) for i in range(n)]

    def build(brk: Algebra):
        sc = []
        for i in range(n):
            plane = []
            for j in range(n):
                col = multiply(brk, Re[i], e[j])
                plane.append([-x for x in col])
            sc.append(plane)
        return Algebra(f, n, sc, G.basis)

    return AlgebraPair(build(G.circ), build(G.star))


def check_rb_converse(Rop: Matrix, G: AlgebraPair) -> CheckReport:
    """[[R(x),R(y)] + R([x,R(y)] + [R(x),y]), z] = 0, coefficient-wise in
    the pencil (k1^2, k1*k2, k2^2 components)."""
    n = G.dim
    if (Rop.rows, Rop.cols) != (n, n):
        raise ShapeMismatchError("operator must be square")
    f = G.field
    e = _unit_vectors(f, n)
    Re = [Rop.apply(e[i]) for i in range(n)]

    def inner(brk, i, j):
        t1 = multiply(brk, Re[i], Re[j])
        t2 = Rop.apply([x + y for x, y in zip(multiply(brk, e[i], Re[j]),
                                              multiply(brk, Re[i], e[j]))])
        return [x + y for x, y in zip(t1, t2)]

    failures = []
    specs = (("rb_converse_k1k1", ((G.circ, G.circ),)),
             ("rb_converse_k1k2", ((G.circ, G.star), (G.star, G.circ))),
             ("rb_converse_k2k2", ((G.star, G.star),)))
    for i, j, k in iproduct(range(n), repeat=3):
        for name, combos in specs:
            total = [f.zero()] * n
            for inner_brk, outer_brk in combos:
                term = multiply(outer_brk, inner(inner_brk, i, j), e[k])
                total = [x + y for x, y in zip(total, term)]
            if any(not x.is_zero() for x in total):
                failures.append((name, (i, j, k), total))
    return make_report(failures)


def induce_from_invertible(T: Matrix, R: RepresentationPair) -> AlgebraPair:
    """Products on g itself from an invertible anti-O-operator:
    x.y = -T(rho(x) T^{-1} y); the commutator pair recovers g's brackets."""
    n = R.g.dim
    if (T.rows, T.cols) != (n, R.v_dim) or R.v_dim != n:
        raise ShapeMismatchError("invertible operator requires V ~ g")
    if T.det().is_zero():
        raise NotInvertibleError("T is singular")
    base = check_anti_o(T, R)
    if not base.passed:
        raise PreconditionError("T is not an anti-O-operator "
                                f"({base.failure_count} failures)")
    Tinv = T.inverse()
    f = R.field
    e = _unit_vectors(f, n)
    tinv_cols = [Tinv.apply(v) for v in e]

    def build(act):
        sc = []
        for i in range(n):
            mat = act(e[i])
            sc.append([[-x for x in T.apply(mat.apply(t))]
                       for t in tinv_cols])
        return Algebra(f, n, sc, R.g.basis)

    return AlgebraPair(build(R.rho_of), build(R.mu_of))
