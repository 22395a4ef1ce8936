"""Dense exact linear algebra over the toolkit's scalar fields.

Matrices are immutable and small (algebra dimensions here are tiny).
rref, nullspace, solve, det and inverse are one Gauss-Jordan pass that
runs on plain values, residues over GF(p) (`_rref_mod`) and
fraction-free integer rows over Q (`_rref_int`), and wraps its results
into Scalars once.  Polynomial entries have no division: their det and
inverse are cofactor expansions.

The exact vector kernel lives here too: coefficient vectors are lists
of Scalars, and their dot products, axpys and sums go through `_dot`,
`_axpy`, `_vadd`, `_vsub` and `_vec_is_zero`.

Only this module knows the plain values that the elimination and the
checks of `algebra` and `operators` compute on instead of Scalars:
`_plain` converts Scalars once to residues, integers on one common
denominator or integer-coefficient Laurent dicts, `_ring` gives their
arithmetic, and `_way_back` reduces results mod p and wraps them back.
"""
from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod
from operator import add, mul, neg, sub

from .errors import (BudgetExceededError, FieldMismatchError,
                     NotInvertibleError, ParseError, ShapeMismatchError)
from .scalars import (Field, Scalar, _json_int, _make, _poly_add, _poly_dot,
                      _poly_mul, _poly_neg, _poly_sub, parse_json_scalar)

MAX_COFACTOR_DIM = 8  # polynomial det costs n!, the adjugate n^2 (n-1)!


def _dot(x, y, zero) -> Scalar:
    """sum_a x_a y_a, skipping the terms with a zero factor."""
    acc = zero
    for a, b in zip(x, y):
        if not a.is_zero() and not b.is_zero():
            acc = acc + a * b
    return acc


def _axpy(out, c, row):
    """out += c * row in place, skipping zero entries and a coefficient
    of one."""
    one = c.is_one()
    for k, s in enumerate(row):
        if not s.is_zero():
            out[k] = out[k] + (s if one else c * s)


def _vec_is_zero(v):
    return all(x.is_zero() for x in v)


def _vsub(a, b):
    return [x - y for x, y in zip(a, b)]


def _vadd(*vs):
    return [sum(xs[1:], xs[0]) for xs in zip(*vs)]


def _plain(field, scalars):
    """(den, values): values(xs) lists the plain values of Scalars xs
    from `scalars` on the common denominator den of all their
    coefficients: residues over GF(p) (den 1), integers over Q, and over
    a Laurent ring dicts {exponents: integer}.  The field's shared zero
    is read as 0 without looking at its value."""
    if field.kind == "GF":
        return 1, lambda xs: [x.value for x in xs]
    zero = field.zero()
    if field.kind == "Q":
        den = lcm(*[x.value.denominator for x in scalars if x is not zero])
        return den, lambda xs: [0 if x is zero else x.value.numerator * (
            den // x.value.denominator) for x in xs]
    den = lcm(*[c.denominator for x in scalars for c in x.value.values()])
    return den, lambda xs: [{mono: c.numerator * (den // c.denominator)
                             for mono, c in x.value.items()} for x in xs]


def _int_dot(xs, ys):
    return sum(map(mul, xs, ys))


_Ring = namedtuple("_Ring", "zero mul dot add sub neg")
_INTEGERS = _Ring(0, mul, _int_dot, add, sub, neg)
_LAURENT = _Ring({}, _poly_mul, _poly_dot, _poly_add, _poly_sub, _poly_neg)


def _ring(field):
    """The ring of the plain values over field: the integers, residues
    included, or integer-coefficient Laurent dicts.  Its operations
    return new values and never change their arguments, so its zero may
    be shared."""
    return _LAURENT if field.kind == "poly" else _INTEGERS


def _way_back(field):
    """(reduce, wrap) for lists of plain values over field.  reduce(xs)
    reduces them mod p over GF(p) (and is xs otherwise), so a zero test
    on them is exact; wrap(xs, den) lists the Scalars of values on the
    denominator den, reduced mod p, the field's shared zero for zero.
    The values come from checked Scalars through `_ring`, so the Scalars
    are canonical."""
    zero, p = field.zero(), field.p
    if p:
        return (lambda xs: [x % p for x in xs], lambda xs, den: [
            _make(field, r) if (r := x % p) else zero for x in xs])
    if field.kind == "Q":
        return (lambda xs: xs, lambda xs, den: [
            _make(field, Fraction(x, den)) if x else zero for x in xs])
    return (lambda xs: xs, lambda xs, den: [_make(field, {
        mono: Fraction(c, den) for mono, c in x.items()}) if x else zero
        for x in xs])


def _rref_mod(m, cols, p):
    """Gauss-Jordan on rows of residues mod p, in place: the pivot
    columns and the determinant residue over 1, as in `_rref_int`.

    Each pivot row is scaled to pivot 1, and each row operation runs
    only over the pivot row's nonzero entries.
    """
    pivots, det = [], 1
    for c in range(cols):
        r = len(pivots)
        if r == len(m):
            break
        for i in range(r, len(m)):
            if m[i][c]:
                break
        else:
            continue
        if i != r:
            m[r], m[i] = m[i], m[r]
            det = -det
        pv = m[r][c]
        det = det * pv % p
        if pv != 1:
            inv = pow(pv, p - 2, p)
            m[r] = [x * inv % p for x in m[r]]
        nonzero = [(k, x) for k, x in enumerate(m[r]) if x]
        for i, row in enumerate(m):
            a = row[c]
            if a and i != r:
                for k, x in nonzero:
                    row[k] = (row[k] - a * x) % p
        pivots.append(c)
    return pivots, det if len(pivots) == len(m) else 0, 1


def _rref_int(m, cols):
    """Fraction-free Gauss-Jordan on integer rows, in place, after
    Bareiss (Math. Comp. 22, 1968) but dividing each changed row by its
    content instead of by the previous pivot.  A row operation replaces
    row i by a row_i - b row_r, with a = pv/g, b = c/g, g = gcd(pv, c).
    Row r of m ends as a positive multiple of reduced row r.

    Returns the pivot columns and the determinant of m as an integer
    numerator and denominator, as in `Matrix._eliminate`: the product of
    the final pivots, corrected for the swaps and negations, the
    multipliers `scaled` and the contents `divided`.
    """
    sign, scaled, divided = 1, [], []
    for r, row in enumerate(m):
        g = gcd(*row)
        if g > 1:
            m[r] = [x // g for x in row]
            divided.append(g)
    pivots = []
    for c in range(cols):
        r = len(pivots)
        if r == len(m):
            break
        for i in range(r, len(m)):
            if m[i][c]:
                break
        else:
            continue
        if i != r:
            m[r], m[i] = m[i], m[r]
            sign = -sign
        pv = m[r][c]
        if pv < 0:
            pv = -pv
            m[r] = [-x for x in m[r]]
            sign = -sign
        nonzero = [(k, x) for k, x in enumerate(m[r]) if x]
        for i, row in enumerate(m):
            x = row[c]
            if not x or i == r:
                continue
            g = gcd(pv, x)
            a, b = pv // g, x // g
            if a != 1:
                row = [a * y for y in row]
                scaled.append(a)
            for k, y in nonzero:
                row[k] -= b * y
            g = gcd(*row)
            if g > 1:
                row = [y // g for y in row]
                divided.append(g)
            m[i] = row
        pivots.append(c)
    if len(pivots) < len(m):
        return pivots, 0, 1
    num = prod(row[c] for row, c in zip(m, pivots)) * prod(divided)
    return pivots, sign * num, prod(scaled)


class Matrix:
    """rows x cols array of Scalars over a single field."""

    __slots__ = ("field", "rows", "cols", "entries")

    def __init__(self, field: Field, entries):
        entries = tuple(tuple(row) for row in entries)
        rows = len(entries)
        cols = len(entries[0]) if rows else 0
        for row in entries:
            if len(row) != cols:
                raise ShapeMismatchError("ragged matrix rows")
            for x in row:
                if not isinstance(x, Scalar) or x.field != field:
                    raise FieldMismatchError("entry field mismatch")
        self._set(field, entries, rows, cols)

    def _set(self, field, entries, rows, cols):
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------------

    @classmethod
    def _trusted(cls, field: Field, rows) -> Matrix:
        """A Matrix of rows computed from checked matrices of `field`,
        so equally long and on the field: nothing is checked again."""
        entries = tuple(map(tuple, rows))
        m = object.__new__(cls)
        m._set(field, entries, len(entries),
               len(entries[0]) if entries else 0)
        return m

    @staticmethod
    def from_rows(field: Field, rows):
        """Build from nested ints/Fractions/Scalars."""
        return Matrix(field, [[field.scalar(x) if not isinstance(x, Scalar)
                               else x for x in row] for row in rows])

    @staticmethod
    def identity(field: Field, n: int) -> Matrix:
        return Matrix(field, [[field.one() if i == j else field.zero()
                               for j in range(n)] for i in range(n)])

    @staticmethod
    def zero(field: Field, rows: int, cols: int) -> Matrix:
        z = field.zero()
        return Matrix(field, [[z] * cols for _ in range(rows)])

    # -- basics --------------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.field == other.field
                and self.entries == other.entries)

    def __hash__(self):
        return hash((self.field, self.entries))

    def __repr__(self):
        body = "; ".join(" ".join(str(x) for x in row) for row in self.entries)
        return f"Matrix[{body}]"

    def is_zero(self) -> bool:
        return all(x.is_zero() for row in self.entries for x in row)

    def columns(self):
        """Column j of the matrix, as a tuple, at position j."""
        return list(zip(*self.entries))

    def transpose(self) -> Matrix:
        return Matrix._trusted(self.field, zip(*self.entries))

    def __add__(self, other):
        self._same_shape(other)
        return Matrix._trusted(self.field, map(_vadd, self.entries,
                                               other.entries))

    def __sub__(self, other):
        self._same_shape(other)
        return Matrix._trusted(self.field, map(_vsub, self.entries,
                                               other.entries))

    def __neg__(self):
        return Matrix._trusted(self.field,
                               [[-x for x in row] for row in self.entries])

    def scale(self, c: Scalar) -> Matrix:
        return Matrix._trusted(self.field, [[c * x for x in row]
                                            for row in self.entries])

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.cols != other.rows:
            raise ShapeMismatchError(f"{self.rows}x{self.cols} @ "
                                     f"{other.rows}x{other.cols}")
        cols, zero = other.columns(), self.field.zero()
        return Matrix._trusted(self.field, [[_dot(row, col, zero)
                                             for col in cols]
                                            for row in self.entries])

    def apply(self, vec):
        """Matrix-vector product; vec is a sequence of Scalars."""
        if len(vec) != self.cols:
            raise ShapeMismatchError("vector length mismatch")
        zero = self.field.zero()
        return [_dot(row, vec, zero) for row in self.entries]

    def _same_shape(self, other):
        if not isinstance(other, Matrix):
            raise TypeError("expected Matrix")
        if self.field != other.field:
            raise FieldMismatchError("matrix fields differ")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatchError("matrix shapes differ")

    # -- elimination ---------------------------------------------------------

    def _eliminate(self):
        """One Gauss-Jordan pass: (reduced row echelon rows, pivot column
        list, determinant).  The determinant is the product of the pivots
        with a sign per row swap, zero unless every row holds a pivot.

        The pass runs on the plain values of the entries (`_rref_mod`,
        `_rref_int`), on their common denominator den, and its results
        are wrapped into Scalars once: each pivot row on its pivot, the
        determinant on den^rows times the denominator the pass returns.
        Requires a field with division (Q or GF); polynomial entries are
        rejected.
        """
        f = self.field
        if f.kind == "poly":
            raise NotInvertibleError("row reduction needs a division field")
        den, values = _plain(f, chain.from_iterable(self.entries))
        m = list(map(values, self.entries))
        pivots, det, det_den = _rref_mod(m, self.cols, f.p) if f.p else \
            _rref_int(m, self.cols)
        wrap, zero = _way_back(f)[1], f.zero()
        rows = [wrap(row, row[c]) for row, c in zip(m, pivots)]
        rows += [[zero] * self.cols for _ in range(self.rows - len(pivots))]
        return rows, pivots, wrap([det], det_den * den ** self.rows)[0]

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list).

        Requires a field with division (Q or GF); polynomial entries are
        rejected.
        """
        rows, pivots, _ = self._eliminate()
        return Matrix._trusted(self.field, rows), pivots

    def nullspace(self):
        """Ordered basis of the right kernel, one vector per free column."""
        rr, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        zero, one = self.field.zero(), self.field.one()
        for fc in free:
            vec = [zero] * self.cols
            vec[fc] = one
            for r, pc in enumerate(pivots):
                vec[pc] = -rr.entries[r][fc]
            basis.append(vec)
        return basis

    def _rref_beside(self, right):
        """rref of the augmented matrix [self | right], right given by rows
        of Scalars on the field."""
        rr, pivots = Matrix._trusted(self.field, [
            row + tuple(extra) for row, extra in zip(self.entries, right)
        ]).rref()
        return rr.entries, pivots

    def solve(self, rhs):
        """One exact solution x of self @ x = rhs, or None if inconsistent.

        Free variables are set to zero, which makes the answer deterministic.
        """
        if len(rhs) != self.rows:
            raise ShapeMismatchError("rhs length mismatch")
        rows, pivots = self._rref_beside(
            Matrix(self.field, [[x] for x in rhs]).entries)
        if self.cols in pivots:
            return None
        x = [self.field.zero()] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = rows[r][self.cols]
        return x

    def det(self) -> Scalar:
        """Exact determinant: elimination over a field, cofactor expansion
        (at most MAX_COFACTOR_DIM rows) over a polynomial ring."""
        if self.rows != self.cols:
            raise ShapeMismatchError("determinant of non-square matrix")
        if self.field.kind != "poly":
            return self._eliminate()[2]
        self._require_det_rows()
        return self._det_cofactor(self.entries)

    def _require_det_rows(self):
        """Refuse a polynomial determinant past MAX_COFACTOR_DIM rows."""
        if self.field.kind == "poly" and self.rows > MAX_COFACTOR_DIM:
            raise BudgetExceededError(
                f"determinant of a {self.rows}x{self.rows} polynomial matrix:"
                f" cofactor expansion is limited to {MAX_COFACTOR_DIM} rows")

    def _require_adjugate_rows(self):
        """Refuse a polynomial inverse from MAX_COFACTOR_DIM rows on."""
        n = self.rows
        if self.field.kind == "poly" and n >= MAX_COFACTOR_DIM:
            raise BudgetExceededError(
                f"inverse of a {n}x{n} polynomial matrix: the adjugate is "
                f"limited to {MAX_COFACTOR_DIM - 1} rows")

    def _det_cofactor(self, rows) -> Scalar:
        n = len(rows)
        if n == 0:
            return self.field.one()
        if n == 1:
            return rows[0][0]
        acc = self.field.zero()
        for j in range(n):
            a = rows[0][j]
            if a.is_zero():
                continue
            minor = [[row[k] for k in range(n) if k != j] for row in rows[1:]]
            term = a * self._det_cofactor(minor)
            acc = acc + term if j % 2 == 0 else acc - term
        return acc

    def inverse(self) -> Matrix:
        """Exact inverse; over a polynomial ring the determinant must be a
        unit (adjugate construction, below MAX_COFACTOR_DIM rows)."""
        if self.rows != self.cols:
            raise ShapeMismatchError("inverse of non-square matrix")
        n = self.rows
        if self.field.kind != "poly":
            rows, pivots = self._rref_beside(
                Matrix.identity(self.field, n).entries)
            if pivots != list(range(n)):
                raise NotInvertibleError("singular matrix")
            return Matrix._trusted(self.field, [row[n:] for row in rows])
        self._require_adjugate_rows()
        d = self.det()
        dinv = d.invert()  # raises NotInvertibleError unless d is a unit
        cof = []
        for i in range(n):
            row = []
            for j in range(n):
                minor = [[self.entries[r][c] for c in range(n) if c != j]
                         for r in range(n) if r != i]
                m = self._det_cofactor(minor)
                row.append(m if (i + j) % 2 == 0 else -m)
            cof.append(row)
        adj = Matrix(self.field, cof).transpose()
        return adj.scale(dinv)

    # -- serialization -------------------------------------------------------

    def to_json(self):
        from .scalars import format_scalar
        return {"rows": self.rows, "cols": self.cols,
                "entries": [[format_scalar(x) for x in row]
                            for row in self.entries]}

    @staticmethod
    def from_json(obj, field: Field) -> Matrix:
        try:
            rows = obj["entries"]
        except (KeyError, TypeError) as exc:
            raise ParseError(f"map JSON needs an entries list: {exc}") from exc
        m = Matrix(field, parse_rows(rows, field))
        if m.rows != _json_int(obj.get("rows", m.rows), "rows") or \
                m.cols != _json_int(obj.get("cols", m.cols), "cols"):
            raise ShapeMismatchError("declared shape disagrees with entries")
        return m


def parse_rows(rows, field: Field):
    """Scalar rows from JSON: a list of lists of grammar strings or
    integers; anything else raises ParseError."""
    if not isinstance(rows, list) or \
            not all(isinstance(row, list) for row in rows):
        raise ParseError(f"matrix rows must be a list of lists, got {rows!r}")
    return [[parse_json_scalar(x, field) for x in row] for row in rows]

