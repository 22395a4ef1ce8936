"""Structure-constant algebras and the bilinear identity checkers.

An Algebra stores one bilinear product as the table sc[i][j][k], the
coefficient of e_k in e_i * e_j.  All identities are verified on basis
tuples only; multilinearity makes that complete, and over polynomial
rings the verdicts are exact polynomial identities.

The checkers never multiply basis vectors.  Each quadratic identity
(anti-pre-Lie, pre-Lie, Jacobi, associative) is a signed sum of two
degree-3 words, the inner e_a * (e_b * e_c) and the outer
(e_a * e_b) * e_c, at permutations of the triple, and is written once,
as a row of the incidence table `_INCIDENCE`.  `_residuals` works on
structure constants converted once to the plain values of `linalg`
(`_plain_tables`), takes each word component as one dot product of a
nonzero table row with a nonzero column, and adds it into the residual
components the incidence table lists, at slots from `_slot_table`,
built once per (identity, dimension, ring).  Only the nonzero residual
rows are wrapped back into Scalars.  Exact arithmetic makes the
residuals equal to `multiply`'s.  A pair check converts its two tables
once, for both member checks and the mixed condition.

Words are summed over ordered product pairs (X, Y): [(A, A)] checks A,
and [(circ, star), (star, circ)] is the k1*k2 coefficient of the
identity of k1*circ + k2*star, the mixed condition of a compatible
pair.  `_PENCIL` holds those index pairs for every pencil coefficient
and is shared with the operator and representation checks.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iproduct

from .errors import (FieldMismatchError, ParseError, PreconditionError,
                     ShapeMismatchError)
from .linalg import (_axpy, _plain, _ring, _vadd, _vec_is_zero, _vsub,
                     _way_back)
from .scalars import (Field, Scalar, _json_int, _read_json, cast_scalar,
                      format_scalar, parse_json_scalar)

MAX_WITNESSES = 16
MAX_DIM = 64  # .alg.json input; the toolkit's own tables stay far below

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

    def require(self, what: str) -> None:
        """Raise PreconditionError naming the failure count, unless passed."""
        if not self.passed:
            raise PreconditionError(f"{what} ({self.failure_count} failures)")

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
                    if not isinstance(x, Scalar) or (
                            x.field is not field and x.field != field):
                        raise FieldMismatchError("table entry field mismatch")
        self._set(field, dim, basis, sc)

    def _set(self, field, dim, basis, sc):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "basis", basis)
        object.__setattr__(self, "sc", sc)

    def __setattr__(self, *a):
        raise AttributeError("Algebra is immutable")

    @classmethod
    def _trusted(cls, field: Field, dim: int, sc, basis=None) -> Algebra:
        """An Algebra of a dim^3 table computed from checked inputs over
        `field`, on a basis of length dim: nothing is checked again."""
        A = object.__new__(cls)
        A._set(field, dim, tuple(basis) if basis else
               tuple(f"e{i+1}" for i in range(dim)),
               tuple(tuple(map(tuple, plane)) for plane in sc))
        return A

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
    f = A.field
    if len(x) != A.dim or len(y) != A.dim:
        raise ShapeMismatchError("vector length mismatch")
    x = [v if isinstance(v, Scalar) else f.scalar(v) for v in x]
    y = [v if isinstance(v, Scalar) else f.scalar(v) for v in y]
    for v in x + y:
        if v.field is not f and v.field != f:
            raise FieldMismatchError("vector entries off-field")
    out = [f.zero()] * A.dim
    for i, xi in enumerate(x):
        if xi.is_zero():
            continue
        for j, yj in enumerate(y):
            if not yj.is_zero():
                _axpy(out, xi * yj, A.sc[i][j])
    return out


def _right(A: Algebra, v, k: int, out=None):
    """v * e_k, read off the rows sc[i][k] of the table (added into out)."""
    out = [A.field.zero()] * A.dim if out is None else out
    for i, c in enumerate(v):
        if not c.is_zero():
            _axpy(out, c, A.sc[i][k])
    return out


def transported(A: Algebra, vecs):
    """W[a][b] = vecs[a] * vecs[b] for coefficient vectors of Scalars,
    built once by contracting the rows vecs[a] * e_k with vecs[b]."""
    if any(len(v) != A.dim for v in vecs):
        raise ShapeMismatchError("vector length mismatch")
    out = []
    for x in vecs:
        rows = [_right(A, x, k) for k in range(A.dim)]
        line = []
        for y in vecs:
            acc = [A.field.zero()] * A.dim
            for c, row in zip(y, rows):
                if not c.is_zero():
                    _axpy(acc, c, row)
            line.append(acc)
        out.append(line)
    return out


def commutator(A: Algebra) -> Algebra:
    """The bracket [x,y] = x*y - y*x as a new (antisymmetric) algebra."""
    sc = [[_vsub(A.sc[i][j], A.sc[j][i]) for j in range(A.dim)]
          for i in range(A.dim)]
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
    """A over `field`: A itself when it is over `field` already."""
    if A.field == field:
        return A
    sc = [[[cast_scalar(A.sc[i][j][k], field) for k in range(A.dim)]
           for j in range(A.dim)] for i in range(A.dim)]
    return Algebra(field, A.dim, sc, A.basis)


def cast_pair(P: AlgebraPair, field: Field) -> AlgebraPair:
    return AlgebraPair(cast_algebra(P.circ, field), cast_algebra(P.star, field))


# ---------------------------------------------------------------------------
# identity checkers
# ---------------------------------------------------------------------------

# Index pairs (s, t) of each pencil coefficient of a form bilinear in
# two arguments from one pencil k1*u_0 + k2*u_1: its k1^2, k1*k2 and k2^2
# parts are the sums of the form on (u_s, u_t) over the listed pairs.
_PENCIL = (("k1k1", ((0, 0),)), ("k1k2", ((0, 1), (1, 0))),
           ("k2k2", ((1, 1),)))


# the table index pairs of the k1*k2 coefficient, (circ, star) and
# (star, circ) for the tables (circ, star) of a pair
_MIXED = dict(_PENCIL)["k1k2"]


def _symmetry_failures(A: Algebra, name: str):
    """Nonzero e_i*e_j - e_j*e_i ("commutative") or e_i*e_j + e_j*e_i
    ("antisymmetric") on every ordered basis pair."""
    combine = _vsub if name == "commutative" else _vadd
    return [(name, (i, j), v) for i, j in iproduct(range(A.dim), repeat=2)
            if not _vec_is_zero(v := combine(A.sc[i][j], A.sc[j][i]))]


# Where the words of every product go.  The inner word at t = (a, b, c)
# is e_a *X (e_b *Y e_c) and the outer word (e_a *Y e_b) *X e_c; per
# identity kind, (inner, outer) lists the (equation, permutation p, sign)
# that add the word, with that sign, into the residual of that equation
# at (t[p[0]], t[p[1]], t[p[2]]): at t itself, at sw(t) = (b, a, c), at
# the rotations of t or at those of sw(t).
_ID, _SW = (0, 1, 2), (1, 0, 2)
_ROT, _SW_ROT = (_ID, (1, 2, 0), (2, 0, 1)), (_SW, (0, 2, 1), (2, 1, 0))
_INCIDENCE = {
    # x*(y*z) - y*(x*z) - [y,x]*z  and  [x,y]*z + [y,z]*x + [z,x]*y
    "anti_pre_lie": (((0, _ID, 1), (0, _SW, -1)),
                     ((0, _ID, 1), (0, _SW, -1))
                     + tuple((1, p, 1) for p in _ROT)
                     + tuple((1, p, -1) for p in _SW_ROT)),
    # [[x,y],z] + [[y,z],x] + [[z,x],y]
    "jacobi": ((), tuple((0, p, 1) for p in _ROT)),
    # the associator (x*y)*z - x*(y*z), antisymmetrized in x, y for pre_lie
    "associative": (((0, _ID, -1),), ((0, _ID, 1),)),
    "pre_lie": (((0, _ID, -1), (0, _SW, 1)), ((0, _ID, 1), (0, _SW, -1))),
}


def _plain_tables(*algebras):
    """(field, dim, den, tables): the structure constants of algebras on
    one field and dimension, converted once to plain values on their
    common denominator den (see `linalg`), one n^3 nested list each."""
    f, n = algebras[0].field, algebras[0].dim
    den, values = _plain(f, [x for A in algebras for p in A.sc
                             for row in p for x in row])
    return f, n, den, [[list(map(values, p)) for p in A.sc]
                       for A in algebras]


@lru_cache(maxsize=32)
def _slot_table(kind: str, n: int, add, sub):
    """Per word (inner, outer), the incidence of `_INCIDENCE[kind]` as
    table[b][c][free]: the (offset, op) pairs that add word component l
    into the accumulator slot offset + l, with op the plain ring's `add`
    or `sub`.  The row (b, c) and free index stand for the triple
    (free, b, c) of the inner word and (b, c, free) of the outer one.  A
    word that no equation of `kind` uses gets no table."""
    neq = 2 if kind == "anti_pre_lie" else 1
    ops = {1: add, -1: sub}
    r = range(n)

    def slots(t, targets):
        return tuple(((((t[p0] * n + t[p1]) * n + t[p2]) * neq + eq) * n,
                      ops[sign]) for eq, (p0, p1, p2), sign in targets)
    out = []
    for inner, targets in zip((True, False), _INCIDENCE[kind]):
        out.append(tuple(tuple(tuple(
            slots((free, b, c) if inner else (b, c, free), targets)
            for free in r) for c in r) for b in r) if targets else None)
    return tuple(out)


def _residuals(kind: str, tables, pairs, name: str, failing: bool = False):
    """Residual vectors of a quadratic identity on the basis triples in
    lexicographic order, every triple or with `failing` only the nonzero
    ones (the two anti-pre-Lie equations of a triple together, as name_1
    and name_2).  The words are summed over the ordered pairs (s, t) of
    product tables (X, Y) = (tables[s], tables[t]) from `_plain_tables`:
    [(0, 0)] for one table, or `_MIXED` for the k1*k2 part of a pencil.

    Word component l is one dot product: of the row e_b *Y e_c with X's
    column (e_a *X e_j)_l over j for the inner word, of e_a *Y e_b with
    (e_j *X e_c)_l for the outer one, each joined over the pairs.  Zero
    rows and columns are skipped, and each nonzero word component is
    added into the residual components that `_slot_table` lists.  The
    components are tested for zero as reduced plain values, so a passing
    check builds no Scalar, and only the rows returned are wrapped.
    """
    f, n, den, plain = tables
    r = range(n)
    Xs, Ys = ([plain[pair[s]] for pair in pairs] for s in (0, 1))
    rows = [(b, c, y) for b, c in iproduct(r, repeat=2)
            if any(y := [v for Y in Ys for v in Y[b][c]])]
    # per free index a (inner) or c (outer), the nonzero columns (l, x)
    # with x listing (e_a *X e_j)_l, or (e_j *X e_c)_l, over j
    words = ([[(l, x) for l in r if any(
        x := [X[a][j][l] for X in Xs for j in r])] for a in r],
             [[(l, x) for l in r if any(
                 x := [X[j][c][l] for X in Xs for j in r])] for c in r])
    ring = _ring(f)
    dot, acc = ring.dot, [ring.zero] * (2 * n ** 4)
    for cols, table in zip(words, _slot_table(kind, n, ring.add, ring.sub)):
        for b, c, y in rows if table else ():
            for col, slots in zip(cols, table[b][c]):
                for l, x in col:
                    if v := dot(y, x):
                        for offset, op in slots:
                            k = offset + l
                            acc[k] = op(acc[k], v)
    reduce, wrap = _way_back(f)
    acc, den = reduce(acc), den * den
    if failing and not any(acc):
        return []
    neq = 2 if kind == "anti_pre_lie" else 1
    names = (name,) if neq == 1 else (name + "_1", name + "_2")
    out = []
    for slot in range(n ** 3 * neq):
        comps = acc[slot * n:slot * n + n]
        if failing and not any(comps):
            continue
        t, eq = divmod(slot, neq)
        out.append((names[eq], (t // (n * n), t // n % n, t % n),
                    wrap(comps, den)))
    return out


def anti_pre_lie_residuals(A: Algebra):
    """Residual vectors of both anti-pre-Lie identities on every triple:

      x*(y*z) - y*(x*z) - [y,x]*z   and   [x,y]*z + [y,z]*x + [z,x]*y

    Returned for all triples, zero or not, in lexicographic order.
    """
    return _residuals("anti_pre_lie", _plain_tables(A), [(0, 0)],
                      "anti_pre_lie")


def _identity_failures(A: Algebra, kind: str, tables, s: int, prefix=""):
    """The failing rows of the identity `kind` (not "commutative") on
    A = tables[s], named prefix + the identity; jacobi adds A's
    antisymmetry violations."""
    failures = _residuals(kind, tables, [(s, s)], prefix + kind,
                          failing=True)
    if kind == "jacobi":
        failures += [(prefix + w, ix, v) for w, ix, v
                     in _symmetry_failures(A, "antisymmetric")]
    return failures


def check_identity(A: Algebra, kind: str) -> CheckReport:
    """Verify one bilinear identity on every basis tuple.

    anti_pre_lie checks both defining identities; jacobi also reports
    antisymmetry violations as failures rather than raising.
    """
    if kind not in IDENTITY_KINDS:
        raise ValueError(f"unknown identity kind {kind!r}")
    if kind == "commutative":
        return make_report(_symmetry_failures(A, "commutative"))
    return make_report(_identity_failures(A, kind, _plain_tables(A), 0))


def mixed_pair_residuals(P: AlgebraPair):
    """Residuals of the two bilinearized compatibility conditions on every
    triple (zero or not, lexicographic order), the k1*k2 coefficient of
    the anti-pre-Lie identities of k1*circ + k2*star:

      x.(y*z) + x*(y.z) - y.(x*z) - y*(x.z) - [y,x]_2 . z - [y,x]_1 * z
      and the cyclic sum of [x,y]_2 . z + [x,y]_1 * z.

    Both are linear in the star product for a fixed circ product.
    """
    return _residuals("anti_pre_lie", _plain_tables(P.circ, P.star), _MIXED,
                      "compatible_mixed")


def _check_compatible(P: AlgebraPair, kind, prefixes, mixed_name):
    """Both members satisfy the identity, and so does the k1*k2 pencil
    coefficient (the mixed condition): together, every k1*circ + k2*star
    does.  Both tables are converted once for the three parts.  The
    reports are merged in the order circ, star, mixed, each member's with
    its own failure count and its witnesses named prefix + identity."""
    tables = _plain_tables(P.circ, P.star)
    members = [make_report(_identity_failures(A, kind, tables, s, prefix))
               for s, (A, prefix) in enumerate(zip((P.circ, P.star),
                                                   prefixes))]
    mixed = _residuals(kind, tables, _MIXED, mixed_name, failing=True)
    return merge_reports(*members, make_report(mixed))


def check_compatible_pair(P: AlgebraPair) -> CheckReport:
    """Both members anti-pre-Lie plus the two mixed conditions; equivalent
    to every pencil k1*circ + k2*star being anti-pre-Lie."""
    return _check_compatible(P, "anti_pre_lie", ("circ_", "star_"),
                             "compatible_mixed")


def check_compatible_lie(P: AlgebraPair) -> CheckReport:
    """Two Lie brackets with the vanishing six-term mixed Jacobi sum."""
    return _check_compatible(P, "jacobi", ("bracket1_", "bracket2_"),
                             "compatible_lie_mixed")


def check_compatible_associative(P: AlgebraPair) -> CheckReport:
    """Two associative products with the four-term mixed condition."""
    return _check_compatible(P, "associative", ("prod1_", "prod2_"),
                             "compatible_assoc_mixed")


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
    entries, slots = [], set()
    for quad in quads:
        if not (isinstance(quad, list) and len(quad) == 4 and all(
                isinstance(i, int) and not isinstance(i, bool)
                for i in quad[:3])):
            raise ParseError(f"product entry must be [i,j,k,coeff] with "
                             f"integer indices: {quad!r}")
        if tuple(quad[:3]) in slots:
            raise ParseError(f"product {key!r} repeats the slot {quad[:3]}")
        slots.add(tuple(quad[:3]))
        entries.append((*quad[:3], parse_json_scalar(quad[3], field)))
    return Algebra.from_entries(field, dim, entries, basis)


def algebra_from_json(obj):
    """Returns (circ, star_or_None)."""
    try:
        dim = _json_int(obj["dim"], "dim")
        if dim > MAX_DIM:
            raise ParseError(f"dim {dim} exceeds {MAX_DIM}")
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
    return algebra_from_json(_read_json(path))


def dump_algebra_file(path, A: Algebra, star: Algebra | None = None):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(algebra_to_json(A, star), fh, indent=2, sort_keys=True)
        fh.write("\n")
