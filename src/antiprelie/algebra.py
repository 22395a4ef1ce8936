"""Structure-constant algebras and the bilinear identity checkers.

An Algebra stores one bilinear product as the table sc[i][j][k], the
coefficient of e_k in e_i * e_j.  All identities are verified on basis
tuples only; multilinearity makes that complete, and over polynomial
rings the verdicts are exact polynomial identities.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, replace
from itertools import product as iproduct

from .errors import FieldMismatchError, ParseError, ShapeMismatchError
from .scalars import Field, Scalar, cast_scalar, format_scalar

MAX_WITNESSES = 16

IDENTITY_KINDS = ("anti_pre_lie", "pre_lie", "jacobi", "associative",
                  "commutative")


@dataclass(frozen=True)
class Witness:
    identity: str
    indices: tuple
    residual: tuple


@dataclass(frozen=True)
class CheckReport:
    passed: bool
    witnesses: tuple
    failure_count: int

    def __bool__(self):
        return self.passed

    def to_json(self):
        return {
            "passed": self.passed,
            "failure_count": self.failure_count,
            "witnesses": [
                {"identity": w.identity,
                 "indices": list(w.indices),
                 "residual": [format_scalar(x) for x in w.residual]}
                for w in self.witnesses],
        }


def make_report(failures) -> CheckReport:
    """failures: iterable of (identity, indices, residual vector)."""
    failures = sorted(failures, key=lambda w: (w[0], w[1]))
    witnesses = tuple(Witness(n, tuple(ix), tuple(res))
                      for n, ix, res in failures[:MAX_WITNESSES])
    return CheckReport(passed=not failures, witnesses=witnesses,
                       failure_count=len(failures))


def merge_reports(*reports: CheckReport) -> CheckReport:
    witnesses = [w for r in reports for w in r.witnesses]
    count = sum(r.failure_count for r in reports)
    return CheckReport(passed=all(r.passed for r in reports),
                       witnesses=tuple(witnesses[:MAX_WITNESSES]),
                       failure_count=count)


class Algebra:
    """A bilinear product on an n-dimensional space, by structure constants."""

    __slots__ = ("field", "dim", "basis", "sc")

    def __init__(self, field: Field, dim: int, sc, basis=None):
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        basis = tuple(basis) if basis else tuple(f"e{i+1}" for i in range(dim))
        if len(basis) != dim:
            raise ShapeMismatchError("basis length != dim")
        sc = tuple(tuple(tuple(row) for row in plane) for plane in sc)
        if len(sc) != dim or any(len(p) != dim for p in sc) or \
                any(len(r) != dim for p in sc for r in p):
            raise ShapeMismatchError("structure table must be dim^3")
        for p in sc:
            for r in p:
                for x in r:
                    if not isinstance(x, Scalar) or x.field != field:
                        raise FieldMismatchError("table entry field mismatch")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "sc", sc)

    def __setattr__(self, *a):
        raise AttributeError("Algebra is immutable")

    def __eq__(self, other):
        return (isinstance(other, Algebra) and self.field == other.field
                and self.basis == other.basis and self.sc == other.sc)

    def __hash__(self):
        return hash((self.field, self.basis, self.sc))

    def __repr__(self):
        terms = []
        for i, j, k in iproduct(range(self.dim), repeat=3):
            c = self.sc[i][j][k]
            if not c.is_zero():
                terms.append(f"{self.basis[i]}*{self.basis[j]}->"
                             f"{format_scalar(c)} {self.basis[k]}")
        return f"Algebra({self.dim}d: " + ", ".join(terms) + ")"

    @staticmethod
    def from_entries(field: Field, dim: int, entries, basis=None) -> Algebra:
        """entries: iterable of (i, j, k, coeff) with 1-based indices;
        coeff may be an int, Fraction, Scalar, or grammar string."""
        z = field.zero()
        sc = [[[z for _ in range(dim)] for _ in range(dim)] for _ in range(dim)]
        for i, j, k, c in entries:
            if not (1 <= i <= dim and 1 <= j <= dim and 1 <= k <= dim):
                raise ShapeMismatchError(f"index out of range: {(i, j, k)}")
            if isinstance(c, str):
                c = field.parse(c)
            elif not isinstance(c, Scalar):
                c = field.scalar(c)
            sc[i - 1][j - 1][k - 1] = c
        return Algebra(field, dim, sc, basis)

    @staticmethod
    def zero_algebra(field: Field, dim: int, basis=None) -> Algebra:
        return Algebra.from_entries(field, dim, [], basis)

    def is_zero(self) -> bool:
        return all(x.is_zero() for p in self.sc for r in p for x in r)

    def basis_vector(self, i: int):
        return [self.field.one() if t == i else self.field.zero()
                for t in range(self.dim)]

    def entries(self):
        """Nonzero entries as (i, j, k, Scalar) with 1-based indices."""
        out = []
        for i, j, k in iproduct(range(self.dim), repeat=3):
            c = self.sc[i][j][k]
            if not c.is_zero():
                out.append((i + 1, j + 1, k + 1, c))
        return out


@dataclass(frozen=True)
class AlgebraPair:
    """Two products on one underlying space: the object (A, circ, star)."""

    circ: Algebra
    star: Algebra

    def __post_init__(self):
        if self.circ.field != self.star.field:
            raise FieldMismatchError("pair members over different fields")
        if self.circ.dim != self.star.dim or self.circ.basis != self.star.basis:
            raise ShapeMismatchError("pair members on different bases")

    @property
    def field(self):
        return self.circ.field

    @property
    def dim(self):
        return self.circ.dim

    @property
    def basis(self):
        return self.circ.basis


# ---------------------------------------------------------------------------
# products and derived tables
# ---------------------------------------------------------------------------

def multiply(A: Algebra, x, y):
    """Bilinear extension of the structure constants to coefficient vectors."""
    if len(x) != A.dim or len(y) != A.dim:
        raise ShapeMismatchError("vector length mismatch")
    zero = A.field.zero()
    x = [v if isinstance(v, Scalar) else A.field.scalar(v) for v in x]
    y = [v if isinstance(v, Scalar) else A.field.scalar(v) for v in y]
    for v in x + y:
        if v.field != A.field:
            raise FieldMismatchError("vector entries off-field")
    out = [zero] * A.dim
    for i in range(A.dim):
        if x[i].is_zero():
            continue
        for j in range(A.dim):
            if y[j].is_zero():
                continue
            c = x[i] * y[j]
            row = A.sc[i][j]
            for k in range(A.dim):
                if not row[k].is_zero():
                    out[k] = out[k] + c * row[k]
    return out


def commutator(A: Algebra) -> Algebra:
    """The bracket [x,y] = x*y - y*x as a new (antisymmetric) algebra."""
    sc = [[[A.sc[i][j][k] - A.sc[j][i][k] for k in range(A.dim)]
           for j in range(A.dim)] for i in range(A.dim)]
    return Algebra(A.field, A.dim, sc, A.basis)


def commutator_pair(P: AlgebraPair) -> AlgebraPair:
    return AlgebraPair(commutator(P.circ), commutator(P.star))


def pencil(P: AlgebraPair, k1: Scalar, k2: Scalar) -> Algebra:
    """The combined product k1*circ + k2*star."""
    f = P.field
    if not isinstance(k1, Scalar):
        k1 = f.scalar(k1)
    if not isinstance(k2, Scalar):
        k2 = f.scalar(k2)
    if k1.field != f or k2.field != f:
        raise FieldMismatchError("pencil coefficients off-field")
    sc = [[[k1 * P.circ.sc[i][j][k] + k2 * P.star.sc[i][j][k]
            for k in range(P.dim)] for j in range(P.dim)]
          for i in range(P.dim)]
    return Algebra(f, P.dim, sc, P.basis)


def cast_algebra(A: Algebra, field: Field) -> Algebra:
    sc = [[[cast_scalar(A.sc[i][j][k], field) for k in range(A.dim)]
           for j in range(A.dim)] for i in range(A.dim)]
    return Algebra(field, A.dim, sc, A.basis)


def cast_pair(P: AlgebraPair, field: Field) -> AlgebraPair:
    return AlgebraPair(cast_algebra(P.circ, field), cast_algebra(P.star, field))


# ---------------------------------------------------------------------------
# identity checkers
# ---------------------------------------------------------------------------

def _vec_is_zero(v):
    return all(x.is_zero() for x in v)


def _vsub(a, b):
    return [x - y for x, y in zip(a, b)]


def _vadd(*vs):
    out = list(vs[0])
    for v in vs[1:]:
        out = [x + y for x, y in zip(out, v)]
    return out


def anti_pre_lie_residuals(A: Algebra):
    """Residual vectors of both anti-pre-Lie identities on every triple:

      x*(y*z) - y*(x*z) - [y,x]*z   and   [x,y]*z + [y,z]*x + [z,x]*y

    Returned for all triples, zero or not, in lexicographic order.
    """
    n = A.dim
    e = [A.basis_vector(i) for i in range(n)]
    br = commutator(A)
    out = []
    for i, j, k in iproduct(range(n), repeat=3):
        x, y, z = e[i], e[j], e[k]
        r1 = _vsub(_vsub(multiply(A, x, multiply(A, y, z)),
                         multiply(A, y, multiply(A, x, z))),
                   multiply(A, multiply(br, y, x), z))
        out.append(("anti_pre_lie_1", (i, j, k), r1))
        r2 = _vadd(multiply(A, multiply(br, x, y), z),
                   multiply(A, multiply(br, y, z), x),
                   multiply(A, multiply(br, z, x), y))
        out.append(("anti_pre_lie_2", (i, j, k), r2))
    return out


def check_identity(A: Algebra, kind: str) -> CheckReport:
    """Verify one bilinear identity on every basis tuple.

    anti_pre_lie checks both defining identities; jacobi also reports
    antisymmetry violations as failures rather than raising.
    """
    if kind not in IDENTITY_KINDS:
        raise ValueError(f"unknown identity kind {kind!r}")
    n = A.dim
    e = [A.basis_vector(i) for i in range(n)]
    failures = []

    if kind == "commutative":
        for i, j in iproduct(range(n), repeat=2):
            r = _vsub(multiply(A, e[i], e[j]), multiply(A, e[j], e[i]))
            if not _vec_is_zero(r):
                failures.append(("commutative", (i, j), r))
        return make_report(failures)

    if kind == "anti_pre_lie":
        failures = [(name, idx, r) for name, idx, r
                    in anti_pre_lie_residuals(A) if not _vec_is_zero(r)]
        return make_report(failures)

    if kind == "jacobi":
        for i, j in iproduct(range(n), repeat=2):
            r = _vadd(multiply(A, e[i], e[j]), multiply(A, e[j], e[i]))
            if not _vec_is_zero(r):
                failures.append(("antisymmetric", (i, j), r))

    for i, j, k in iproduct(range(n), repeat=3):
        x, y, z = e[i], e[j], e[k]
        if kind == "pre_lie":
            r = _vsub(_vsub(multiply(A, multiply(A, x, y), z),
                            multiply(A, x, multiply(A, y, z))),
                      _vsub(multiply(A, multiply(A, y, x), z),
                            multiply(A, y, multiply(A, x, z))))
            if not _vec_is_zero(r):
                failures.append(("pre_lie", (i, j, k), r))
        elif kind == "jacobi":
            r = _vadd(multiply(A, multiply(A, x, y), z),
                      multiply(A, multiply(A, y, z), x),
                      multiply(A, multiply(A, z, x), y))
            if not _vec_is_zero(r):
                failures.append(("jacobi", (i, j, k), r))
        elif kind == "associative":
            r = _vsub(multiply(A, multiply(A, x, y), z),
                      multiply(A, x, multiply(A, y, z)))
            if not _vec_is_zero(r):
                failures.append(("associative", (i, j, k), r))
    return make_report(failures)


def mixed_pair_residuals(P: AlgebraPair):
    """Residuals of the two bilinearized compatibility conditions on every
    triple (zero or not, lexicographic order):

      x.(y*z) + x*(y.z) - y.(x*z) - y*(x.z) - [y,x]_2 . z - [y,x]_1 * z
      and the cyclic sum of [x,y]_2 . z + [x,y]_1 * z.

    Both are linear in the star product for a fixed circ product.
    """
    C, S = P.circ, P.star
    n = P.dim
    e = [C.basis_vector(i) for i in range(n)]
    b1 = commutator(C)
    b2 = commutator(S)
    out = []
    for i, j, k in iproduct(range(n), repeat=3):
        x, y, z = e[i], e[j], e[k]
        lhs = _vadd(multiply(C, x, multiply(S, y, z)),
                    multiply(S, x, multiply(C, y, z)))
        lhs = _vsub(lhs, multiply(C, y, multiply(S, x, z)))
        lhs = _vsub(lhs, multiply(S, y, multiply(C, x, z)))
        rhs = _vadd(multiply(C, multiply(b2, y, x), z),
                    multiply(S, multiply(b1, y, x), z))
        out.append(("compatible_mixed_1", (i, j, k), _vsub(lhs, rhs)))
        r2 = _vadd(multiply(C, multiply(b2, x, y), z),
                   multiply(S, multiply(b1, x, y), z),
                   multiply(C, multiply(b2, y, z), x),
                   multiply(S, multiply(b1, y, z), x),
                   multiply(C, multiply(b2, z, x), y),
                   multiply(S, multiply(b1, z, x), y))
        out.append(("compatible_mixed_2", (i, j, k), r2))
    return out


def _mixed_conditions(P: AlgebraPair):
    """Failures of the two bilinearized compatibility conditions."""
    return [(name, idx, r) for name, idx, r in mixed_pair_residuals(P)
            if not _vec_is_zero(r)]


def _relabel(report: CheckReport, prefix: str) -> CheckReport:
    """Prefix every witness's identity with the member's name, keeping the
    member's full failure count and witness order."""
    witnesses = tuple(replace(w, identity=prefix + w.identity)
                      for w in report.witnesses)
    return replace(report, witnesses=witnesses)


def check_compatible_pair(P: AlgebraPair) -> CheckReport:
    """Both members anti-pre-Lie plus the two mixed conditions; equivalent
    to every pencil k1*circ + k2*star being anti-pre-Lie."""
    rc = check_identity(P.circ, "anti_pre_lie")
    rs = check_identity(P.star, "anti_pre_lie")
    rc = _relabel(rc, "circ_")
    rs = _relabel(rs, "star_")
    mixed = make_report(_mixed_conditions(P))
    return merge_reports(rc, rs, mixed)


def check_compatible_lie(P: AlgebraPair) -> CheckReport:
    """Two Lie brackets with the vanishing six-term mixed Jacobi sum."""
    r1 = check_identity(P.circ, "jacobi")
    r2 = check_identity(P.star, "jacobi")
    r1 = _relabel(r1, "bracket1_")
    r2 = _relabel(r2, "bracket2_")
    n = P.dim
    e = [P.circ.basis_vector(i) for i in range(n)]
    failures = []
    for i, j, k in iproduct(range(n), repeat=3):
        x, y, z = e[i], e[j], e[k]
        r = _vadd(
            multiply(P.star, multiply(P.circ, x, y), z),
            multiply(P.star, multiply(P.circ, y, z), x),
            multiply(P.star, multiply(P.circ, z, x), y),
            multiply(P.circ, multiply(P.star, x, y), z),
            multiply(P.circ, multiply(P.star, y, z), x),
            multiply(P.circ, multiply(P.star, z, x), y))
        if not _vec_is_zero(r):
            failures.append(("compatible_lie_mixed", (i, j, k), r))
    return merge_reports(r1, r2, make_report(failures))


def check_compatible_associative(P: AlgebraPair) -> CheckReport:
    """Two associative products with the four-term mixed condition."""
    r1 = check_identity(P.circ, "associative")
    r2 = check_identity(P.star, "associative")
    r1 = _relabel(r1, "prod1_")
    r2 = _relabel(r2, "prod2_")
    n = P.dim
    e = [P.circ.basis_vector(i) for i in range(n)]
    failures = []
    for i, j, k in iproduct(range(n), repeat=3):
        x, y, z = e[i], e[j], e[k]
        r = _vsub(
            _vadd(multiply(P.star, multiply(P.circ, x, y), z),
                  multiply(P.circ, multiply(P.star, x, y), z)),
            _vadd(multiply(P.circ, x, multiply(P.star, y, z)),
                  multiply(P.star, x, multiply(P.circ, y, z))))
        if not _vec_is_zero(r):
            failures.append(("compatible_assoc_mixed", (i, j, k), r))
    return merge_reports(r1, r2, make_report(failures))


# ---------------------------------------------------------------------------
# .alg.json serialization
# ---------------------------------------------------------------------------

def _product_entries(A: Algebra):
    return [[i, j, k, format_scalar(c)] for i, j, k, c in A.entries()]


def algebra_to_json(A: Algebra, star: Algebra | None = None) -> dict:
    products = {"circ": _product_entries(A)}
    if star is not None:
        products["star"] = _product_entries(star)
    return {"dim": A.dim, "field": A.field.to_json(),
            "basis": list(A.basis), "products": products}


def pair_to_json(P: AlgebraPair) -> dict:
    return algebra_to_json(P.circ, P.star)


def _algebra_from_product(obj, field, dim, basis, key):
    quads = obj["products"].get(key)
    if quads is None:
        return None
    entries = []
    for quad in quads:
        if len(quad) != 4:
            raise ParseError(f"product entry must be [i,j,k,coeff]: {quad!r}")
        i, j, k, c = quad
        entries.append((int(i), int(j), int(k), str(c)))
    return Algebra.from_entries(field, dim, entries, basis)


def algebra_from_json(obj):
    """Returns (circ, star_or_None)."""
    try:
        dim = int(obj["dim"])
        field = Field.from_json(obj["field"])
        basis = obj.get("basis")
        circ = _algebra_from_product(obj, field, dim, basis, "circ")
        if circ is None:
            raise ParseError("missing circ product")
        star = _algebra_from_product(obj, field, dim, basis, "star")
        return circ, star
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed algebra JSON: {exc}") from exc


def load_algebra_file(path):
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    return algebra_from_json(obj)


def dump_algebra_file(path, A: Algebra, star: Algebra | None = None):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(algebra_to_json(A, star), fh, indent=2, sort_keys=True)
        fh.write("\n")
