"""Representation pairs of compatible Lie algebras and their constructions.

A representation pair stores one matrix per basis element of the
underlying bracket pair, acting on an m-dimensional space V.  The
defining equations are checked exactly on basis pairs, as the k1^2,
k1*k2 and k2^2 coefficients of one bilinear residual: equation 1 for
the pencil k1 rho + k2 mu of the bracket k1 [,]_1 + k2 [,]_2.
"""
from __future__ import annotations

import os
from dataclasses import dataclass
from functools import reduce
from itertools import product as iproduct
from operator import add

from .algebra import (_PENCIL, Algebra, AlgebraPair, CheckReport,
                      algebra_from_json, commutator_pair, make_report,
                      pair_to_json)
from .errors import FieldMismatchError, ParseError, ShapeMismatchError
from .linalg import Matrix, _dot, parse_rows
from .scalars import Scalar, _json_int, _read_json, format_scalar


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
    """sum_c x_c * mats[c], entry by entry into a single m x m Matrix."""
    x = [c if isinstance(c, Scalar) else field.scalar(c) for c in x]
    zero = field.zero()
    return Matrix._trusted(field, [[_dot(x, [mat.entries[r][s]
                                             for mat in mats], zero)
                                    for s in range(m)] for r in range(m)])


_REP_EQUATIONS = {"k1k1": "rep_eq_1", "k1k2": "rep_eq_3", "k2k2": "rep_eq_2"}


def check_representation_pair(R: RepresentationPair) -> CheckReport:
    """The three defining equations, exactly, on all basis pairs (x, y):

      rho([x,y]_1) = [rho(x), rho(y)]
      mu([x,y]_2)  = [mu(x), mu(y)]
      rho([x,y]_2) + mu([x,y]_1)
          = rho(x)mu(y) - rho(y)mu(x) + mu(x)rho(y) - mu(y)rho(x)

    Each is one pencil coefficient of equation 1, the sum of the bilinear
    residual act_s(b_t(x, y)) - act_s(x)act_t(y) + act_t(y)act_s(x) over
    its (s, t) pairs, with (act_0, act_1) = (rho, mu) and (b_0, b_1) the
    two brackets.
    """
    n = R.g.dim
    acts, brackets = (R.rho, R.mu), (R.g.circ.sc, R.g.star.sc)
    act_of = (R.rho_of, R.mu_of)
    # prods[s][t][i][j] = act_s(e_i) act_t(e_j)
    prods = [[[[x @ y for y in acts[t]] for x in acts[s]] for t in (0, 1)]
             for s in (0, 1)]
    failures = []
    for part, combos in _PENCIL:
        for i, j in iproduct(range(n), repeat=2):
            r = reduce(add, (act_of[s](brackets[t][i][j]) - prods[s][t][i][j]
                             + prods[t][s][j][i] for s, t in combos))
            if not r.is_zero():
                failures.append((_REP_EQUATIONS[part], (i, j), _flat(r)))
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
    check_representation_pair(R).require("not a representation pair")
    n, m = R.g.dim, R.v_dim
    f = R.field
    dim = n + m
    basis = tuple(R.g.basis) + tuple(f"v{t+1}" for t in range(m))

    def build(bracket: Algebra, mats):
        z = f.zero()
        sc = [[[z] * dim for _ in range(dim)] for _ in range(dim)]
        for i, j in iproduct(range(n), repeat=2):
            sc[i][j][:n] = bracket.sc[i][j]
        for i in range(n):
            for j, col in enumerate(mats[i].columns()):
                sc[i][n + j][n:] = col
                sc[n + j][i][n:] = [-x for x in col]
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
    det = phi.det()
    if det.is_zero():
        failures.append(("invertible", (), [det]))
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
            g_obj = _read_json(os.path.join(base_dir or ".", g_obj))
        circ, star = algebra_from_json(g_obj)
        if star is None:
            raise ParseError("representation needs a bracket pair "
                             "(both circ and star)")
        g = AlgebraPair(circ, star)
        m = _json_int(obj["V_dim"], "V_dim")
        field = g.field

        def mats(block):
            return tuple(Matrix(field, parse_rows(block[name], field))
                         for name in g.basis)

        return RepresentationPair(g, m, mats(obj["rho"]), mats(obj["mu"]))
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed representation JSON: {exc}") from exc


def load_representation_file(path) -> RepresentationPair:
    return representation_from_json(_read_json(path),
                                     base_dir=os.path.dirname(path))
