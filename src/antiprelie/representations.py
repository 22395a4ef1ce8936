"""Representation pairs of compatible Lie algebras and their constructions.

A representation pair stores one matrix per basis element of the
underlying bracket pair, acting on an m-dimensional space V.  The
defining equations are checked exactly on basis pairs.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

from .algebra import (Algebra, AlgebraPair, CheckReport, algebra_from_json,
                      commutator_pair, make_report, pair_to_json)
from .errors import (FieldMismatchError, ParseError, PreconditionError,
                     ShapeMismatchError)
from .linalg import Matrix, parse_rows
from .scalars import Scalar, format_scalar


@dataclass(frozen=True)
class RepresentationPair:
    """(rho, mu, V) over a bracket pair g: one m x m matrix per basis element."""

    g: AlgebraPair
    v_dim: int
    rho: tuple
    mu: tuple

    def __post_init__(self):
        n, m = self.g.dim, self.v_dim
        if len(self.rho) != n or len(self.mu) != n:
            raise ShapeMismatchError("need one matrix per basis element")
        for mat in tuple(self.rho) + tuple(self.mu):
            if not isinstance(mat, Matrix) or (mat.rows, mat.cols) != (m, m):
                raise ShapeMismatchError("representation matrices must be m x m")
            if mat.field != self.g.field:
                raise FieldMismatchError("representation matrix off-field")

    @property
    def field(self):
        return self.g.field

    def rho_of(self, x) -> Matrix:
        """rho evaluated on a coefficient vector x of g."""
        return _combine(self.rho, x, self.field, self.v_dim)

    def mu_of(self, x) -> Matrix:
        return _combine(self.mu, x, self.field, self.v_dim)


def _combine(mats, x, field, m) -> Matrix:
    """sum_c x_c * mats[c], entry by entry into a single m x m Matrix.

    Zero coefficients are skipped; the terms of each entry are added in
    coefficient order, as c * mats[c][r][s].
    """
    terms = []
    for c, mat in zip(x, mats):
        if not isinstance(c, Scalar):
            c = field.scalar(c)
        if not c.is_zero():
            terms.append((c, mat.entries))
    if not terms:
        return Matrix.zero(field, m, m)
    (c0, first), rest = terms[0], terms[1:]
    rows = []
    for r in range(m):
        row = []
        for s in range(m):
            acc = c0 * first[r][s]
            for c, entries in rest:
                acc = acc + c * entries[r][s]
            row.append(acc)
        rows.append(row)
    return Matrix(field, rows)


def check_representation_pair(R: RepresentationPair) -> CheckReport:
    """The three defining equations, exactly, on all basis pairs (x, y):

      rho([x,y]_1) = [rho(x), rho(y)]
      mu([x,y]_2)  = [mu(x), mu(y)]
      rho([x,y]_2) + mu([x,y]_1)
          = rho(x)mu(y) - rho(y)mu(x) + mu(x)rho(y) - mu(y)rho(x)
    """
    n = R.g.dim
    b1, b2 = R.g.circ.sc, R.g.star.sc
    failures = []
    for i in range(n):
        for j in range(n):
            lhs1 = R.rho_of(b1[i][j])
            rhs1 = R.rho[i] @ R.rho[j] - R.rho[j] @ R.rho[i]
            if not (lhs1 - rhs1).is_zero():
                failures.append(("rep_eq_1", (i, j), _flat(lhs1 - rhs1)))
            lhs2 = R.mu_of(b2[i][j])
            rhs2 = R.mu[i] @ R.mu[j] - R.mu[j] @ R.mu[i]
            if not (lhs2 - rhs2).is_zero():
                failures.append(("rep_eq_2", (i, j), _flat(lhs2 - rhs2)))
            lhs3 = R.rho_of(b2[i][j]) + R.mu_of(b1[i][j])
            rhs3 = (R.rho[i] @ R.mu[j] - R.rho[j] @ R.mu[i]
                    + R.mu[i] @ R.rho[j] - R.mu[j] @ R.rho[i])
            if not (lhs3 - rhs3).is_zero():
                failures.append(("rep_eq_3", (i, j), _flat(lhs3 - rhs3)))
    return make_report(failures)


def _flat(mat: Matrix):
    return [x for row in mat.entries for x in row]


def left_multiplication_matrix(A: Algebra, i: int) -> Matrix:
    """Matrix of L(e_i): column j holds e_i * e_j, the row sc[i][j]."""
    return Matrix(A.field, list(zip(*A.sc[i])))


def left_multiplication_pair(P: AlgebraPair) -> RepresentationPair:
    """(-L_circ, -L_star, A) over the commutator pair of P."""
    g = commutator_pair(P)
    rho = tuple(-left_multiplication_matrix(P.circ, i) for i in range(P.dim))
    mu = tuple(-left_multiplication_matrix(P.star, i) for i in range(P.dim))
    return RepresentationPair(g, P.dim, rho, mu)


def adjoint_pair(G: AlgebraPair) -> RepresentationPair:
    """(ad_1, ad_2, g) for a bracket pair; ad(x)y = [x,y]."""
    rho = tuple(left_multiplication_matrix(G.circ, i) for i in range(G.dim))
    mu = tuple(left_multiplication_matrix(G.star, i) for i in range(G.dim))
    return RepresentationPair(G, G.dim, rho, mu)


def dual_pair(R: RepresentationPair) -> RepresentationPair:
    """Dual representation: every matrix becomes its negated transpose."""
    rho = tuple(-m.transpose() for m in R.rho)
    mu = tuple(-m.transpose() for m in R.mu)
    return RepresentationPair(R.g, R.v_dim, rho, mu)


def semidirect_product(R: RepresentationPair) -> AlgebraPair:
    """Bracket pair on g + V:  [x+u, y+v] = [x,y] + rho(x)v - rho(y)u.

    Basis order is (g basis, then V basis).  Raises PreconditionError if R
    is not a representation pair.
    """
    rep = check_representation_pair(R)
    if not rep.passed:
        raise PreconditionError("not a representation pair "
                                f"({rep.failure_count} failing equations)")
    n, m = R.g.dim, R.v_dim
    f = R.field
    dim = n + m
    basis = tuple(R.g.basis) + tuple(f"v{t+1}" for t in range(m))

    def build(bracket: Algebra, mats):
        z = f.zero()
        sc = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    sc[i][j][k] = bracket.sc[i][j][k]
        for i in range(n):
            for j in range(m):
                col = [mats[i].entries[k][j] for k in range(m)]
                for k in range(m):
                    sc[i][n + j][n + k] = col[k]
                    sc[n + j][i][n + k] = -col[k]
        return Algebra(f, dim, sc, basis)

    return AlgebraPair(build(R.g.circ, R.rho), build(R.g.star, R.mu))


def check_equivalence(R1: RepresentationPair, R2: RepresentationPair,
                      phi: Matrix) -> CheckReport:
    """phi intertwines both actions and is invertible (exact determinant)."""
    if R1.g.dim != R2.g.dim:
        raise ShapeMismatchError("representations of different algebras")
    if R1.v_dim != R2.v_dim:
        raise ShapeMismatchError("spaces of different dimension")
    if (phi.rows, phi.cols) != (R2.v_dim, R1.v_dim):
        raise ShapeMismatchError("phi has the wrong shape")
    failures = []
    if phi.det().is_zero():
        failures.append(("invertible", (), [phi.det()]))
    for i in range(R1.g.dim):
        d_rho = phi @ R1.rho[i] - R2.rho[i] @ phi
        if not d_rho.is_zero():
            failures.append(("intertwine_rho", (i,), _flat(d_rho)))
        d_mu = phi @ R1.mu[i] - R2.mu[i] @ phi
        if not d_mu.is_zero():
            failures.append(("intertwine_mu", (i,), _flat(d_mu)))
    return make_report(failures)


# ---------------------------------------------------------------------------
# JSON
# ---------------------------------------------------------------------------

def representation_to_json(R: RepresentationPair) -> dict:
    names = R.g.basis
    return {
        "g": pair_to_json(R.g),
        "V_dim": R.v_dim,
        "rho": {names[i]: [[format_scalar(x) for x in row]
                           for row in R.rho[i].entries]
                for i in range(R.g.dim)},
        "mu": {names[i]: [[format_scalar(x) for x in row]
                          for row in R.mu[i].entries]
               for i in range(R.g.dim)},
    }


def representation_from_json(obj, base_dir=None) -> RepresentationPair:
    """Accepts the bracket pair inline under "g", or as a file reference
    (a path string, resolved against base_dir)."""
    try:
        g_obj = obj["g"]
        if isinstance(g_obj, str):
            import os
            path = os.path.join(base_dir or ".", g_obj)
            with open(path, "r", encoding="utf-8") as fh:
                g_obj = json.load(fh)
        circ, star = algebra_from_json(g_obj)
        if star is None:
            raise ParseError("representation needs a bracket pair "
                             "(both circ and star)")
        g = AlgebraPair(circ, star)
        m = int(obj["V_dim"])
        field = g.field

        def mats(block):
            return tuple(Matrix(field, parse_rows(block[name], field))
                         for name in g.basis)

        return RepresentationPair(g, m, mats(obj["rho"]), mats(obj["mu"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed representation JSON: {exc}") from exc


def load_representation_file(path) -> RepresentationPair:
    import os
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    return representation_from_json(obj, base_dir=os.path.dirname(path))
