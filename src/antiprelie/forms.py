"""Bilinear forms: commutative 2-cocycles, invariance, and the induced
compatible products.

The Gram array convention is gram[i][j] = B(e_i, e_j).  The pairing form
on A + A* uses the (primal basis, then dual basis) order fixed by the
semidirect product construction.  The residuals of `check_invariant`
are linear in the Gram array, so the space of invariant forms is the
nullspace of their values at the unit symmetric Gram arrays, as the
linear Z^2 conditions in `cocycles` are read off unit tables.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from .algebra import (Algebra, AlgebraPair, CheckReport,
                      commutator_pair, make_report, merge_reports)
from .errors import NotInvertibleError, ParseError, ShapeMismatchError
from .linalg import Matrix, _dot, parse_rows
from .scalars import Field, Scalar, _json_int, _read_json


@dataclass(frozen=True)
class BilinearForm:
    gram: Matrix

    def __post_init__(self):
        if self.gram.rows != self.gram.cols:
            raise ShapeMismatchError("Gram array must be square")

    @property
    def dim(self):
        return self.gram.rows

    @property
    def field(self):
        return self.gram.field

    @staticmethod
    def from_json(obj, field: Field) -> BilinearForm:
        try:
            form = BilinearForm(Matrix(field, parse_rows(obj["gram"], field)))
            if form.dim != _json_int(obj.get("dim", form.dim), "dim"):
                raise ShapeMismatchError("declared dim disagrees with gram")
            return form
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"malformed form JSON: {exc}") from exc


def load_form_file(path, field: Field) -> BilinearForm:
    return BilinearForm.from_json(_read_json(path), field)


def check_form(B: BilinearForm, kind: str) -> CheckReport:
    """kind 'symmetric': gram equals its transpose; 'nondegenerate':
    exact determinant is nonzero."""
    if kind == "symmetric":
        failures = []
        d = B.gram - B.gram.transpose()
        for i in range(B.dim):
            for j in range(i + 1, B.dim):
                if not d.entries[i][j].is_zero():
                    failures.append(("symmetric", (i, j), [d.entries[i][j]]))
        return make_report(failures)
    if kind == "nondegenerate":
        det = B.gram.det()
        if det.is_zero():
            return make_report([("nondegenerate", (), [det])])
        return make_report([])
    raise ValueError(f"unknown form check {kind!r}")


def check_comm_2cocycle(B: BilinearForm, G: AlgebraPair) -> CheckReport:
    """B([x,y],z) + B([y,z],x) + B([z,x],y) = 0 for each bracket; the
    pencil version is linear in (k1,k2) so per-bracket checking suffices.
    Asymmetry of B is reported as a failure."""
    sym = check_form(B, "symmetric")
    if B.dim != G.dim:
        raise ShapeMismatchError("form and brackets of different dimension")
    n = G.dim
    cols, zero = B.gram.columns(), B.field.zero()
    failures = []
    for name, brk in (("cocycle_1", G.circ.sc), ("cocycle_2", G.star.sc)):
        for i, j, k in iproduct(range(n), repeat=3):
            r = _dot(brk[i][j], cols[k], zero) \
                + _dot(brk[j][k], cols[i], zero) \
                + _dot(brk[k][i], cols[j], zero)
            if not r.is_zero():
                failures.append((name, (i, j, k), [r]))
    return merge_reports(sym, make_report(failures))


def _invariant_residuals(B: BilinearForm, P: AlgebraPair, G: AlgebraPair):
    """B(e_i.e_j, e_k) - B(e_j, [e_i,e_k]_1) and the same for star on every
    basis triple, zero or not, with the brackets G, P's commutators."""
    rows, cols, zero = B.gram.entries, B.gram.columns(), B.field.zero()
    return [(name, (i, j, k), [_dot(prod[i][j], cols[k], zero)
                               - _dot(rows[j], brk[i][k], zero)])
            for name, prod, brk in (("invariant_circ", P.circ.sc, G.circ.sc),
                                    ("invariant_star", P.star.sc, G.star.sc))
            for i, j, k in iproduct(range(P.dim), repeat=3)]


def check_invariant(B: BilinearForm, P: AlgebraPair) -> CheckReport:
    """B(x.y, z) = B(y, [x,z]_1) and B(x*y, z) = B(y, [x,z]_2) on all
    basis triples, with the brackets taken from P's commutators."""
    if B.dim != P.dim:
        raise ShapeMismatchError("form and pair of different dimension")
    return make_report([w for w in _invariant_residuals(B, P,
                                                        commutator_pair(P))
                        if not w[2][0].is_zero()])


def induce_from_cocycle(B: BilinearForm, G: AlgebraPair) -> AlgebraPair:
    """Solve B(x.y, z) = B(y, [x,z]_1) and B(x*y, z) = B(y, [x,z]_2) for
    the products: the Gram array is symmetric, so the coefficient column
    of e_i.e_j is gram^-1 applied to (B(e_j, [e_i,e_k]_1))_k.

    Preconditions (checked): B symmetric and nondegenerate, B a
    commutative 2-cocycle on G, G a compatible Lie pair.
    """
    from .algebra import check_compatible_lie
    check_form(B, "symmetric").require("form is not symmetric")
    check_form(B, "nondegenerate").require("form is degenerate")
    check_comm_2cocycle(B, G).require("form is not a commutative 2-cocycle")
    check_compatible_lie(G).require("brackets are not a compatible Lie pair")
    n, zero = G.dim, B.field.zero()
    rows, gram_inv = B.gram.entries, B.gram.inverse()

    def build(brk: Algebra):
        sc = [[gram_inv.apply([_dot(rows[j], brk.sc[i][k], zero)
                               for k in range(n)])
               for j in range(n)] for i in range(n)]
        return Algebra(B.field, n, sc, G.basis)

    return AlgebraPair(build(G.circ), build(G.star))


def pairing_form(n: int, field: Field) -> BilinearForm:
    """The block-antidiagonal pairing on A + A*:  B(x+a*, y+b*) =
    <x,b*> + <a*,y>, in (primal, then dual) basis order."""
    if n < 1:
        raise ValueError("dimension must be >= 1")
    z, one = field.zero(), field.one()
    rows = []
    for i in range(2 * n):
        row = [z] * (2 * n)
        row[(i + n) % (2 * n)] = one
        rows.append(row)
    return BilinearForm(Matrix(field, rows))


def construct_from_vectors(B: BilinearForm, s1, s2) -> AlgebraPair:
    """x.y = B(x,y)s1 - B(x,s1)y  and  x*y = B(x,y)s2 - B(x,s2)y.

    For symmetric B the result is a compatible anti-pre-Lie pair on which
    B is invariant.
    """
    check_form(B, "symmetric").require("form is not symmetric")
    n = B.dim
    f = B.field
    s1 = [x if isinstance(x, Scalar) else f.scalar(x) for x in s1]
    s2 = [x if isinstance(x, Scalar) else f.scalar(x) for x in s2]
    if len(s1) != n or len(s2) != n:
        raise ShapeMismatchError("vectors must match the form's dimension")
    rows = B.gram.entries

    def build(s):
        sc = []
        for i in range(n):
            pairing = _dot(rows[i], s, f.zero())
            plane = []
            for j in range(n):
                bij = rows[i][j]
                col = [bij * s[k] - (pairing if k == j else f.zero())
                       for k in range(n)]
                plane.append(col)
            sc.append(plane)
        return Algebra(f, n, sc)

    return AlgebraPair(build(s1), build(s2))


def invariant_form_space(P: AlgebraPair):
    """Basis of the space of symmetric invariant bilinear forms on P, the
    exact nullspace of `check_invariant`'s residuals: they are linear in
    the Gram array, so column s is their value at the unit symmetric Gram
    array of slot s, one of the n(n+1)/2 slots i <= j."""
    n, f = P.dim, P.field
    if f.kind == "poly":
        raise NotInvertibleError("row reduction needs a division field")
    slots = [(i, j) for i in range(n) for j in range(i, n)]

    def gram_of(vec):
        rows = [[None] * n for _ in range(n)]
        for (i, j), c in zip(slots, vec):
            rows[i][j] = rows[j][i] = c
        return Matrix(f, rows)

    zero, one, G = f.zero(), f.one(), commutator_pair(P)
    units = [gram_of([one if t == s else zero for t in range(len(slots))])
             for s in range(len(slots))]
    cols = [[r for _, _, (r,) in _invariant_residuals(BilinearForm(g), P, G)]
            for g in units]
    return [gram_of(vec)
            for vec in Matrix._trusted(f, zip(*cols)).nullspace()]
