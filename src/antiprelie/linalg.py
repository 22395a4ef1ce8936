"""Dense exact linear algebra over the toolkit's scalar fields.

Matrices are immutable and small (algebra dimensions here are tiny), so
everything is plain Gaussian elimination with exact division, plus
cofactor fallbacks for polynomial entries where division is unavailable.
"""
from __future__ import annotations

from .errors import (FieldMismatchError, NotInvertibleError, ParseError,
                     ShapeMismatchError)
from .scalars import Field, Scalar, _json_int, parse_json_scalar


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
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)
        object.__setattr__(self, "entries", entries)

    def __setattr__(self, *a):
        raise AttributeError("Matrix is immutable")

    # -- constructors -------------------------------------------------------

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

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

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
        return Matrix(self.field, list(zip(*self.entries))) if self.rows \
            else Matrix(self.field, [])

    def __add__(self, other):
        self._same_shape(other)
        return Matrix(self.field,
                      [[a + b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.entries, other.entries)])

    def __sub__(self, other):
        self._same_shape(other)
        return Matrix(self.field,
                      [[a - b for a, b in zip(r1, r2)]
                       for r1, r2 in zip(self.entries, other.entries)])

    def __neg__(self):
        return Matrix(self.field, [[-x for x in row] for row in self.entries])

    def scale(self, c: Scalar) -> Matrix:
        return Matrix(self.field, [[c * x for x in row] for row in self.entries])

    def __matmul__(self, other: Matrix) -> Matrix:
        if self.cols != other.rows:
            raise ShapeMismatchError(f"{self.rows}x{self.cols} @ "
                                     f"{other.rows}x{other.cols}")
        zero = self.field.zero()
        out = []
        for i in range(self.rows):
            row = []
            for j in range(other.cols):
                acc = zero
                for k in range(self.cols):
                    a = self.entries[i][k]
                    if not a.is_zero():
                        acc = acc + a * other.entries[k][j]
                row.append(acc)
            out.append(row)
        return Matrix(self.field, out)

    def apply(self, vec):
        """Matrix-vector product; vec is a sequence of Scalars."""
        if len(vec) != self.cols:
            raise ShapeMismatchError("vector length mismatch")
        zero = self.field.zero()
        out = []
        for i in range(self.rows):
            acc = zero
            for k in range(self.cols):
                a = self.entries[i][k]
                if not a.is_zero() and not vec[k].is_zero():
                    acc = acc + a * vec[k]
            out.append(acc)
        return out

    def _same_shape(self, other):
        if not isinstance(other, Matrix):
            raise TypeError("expected Matrix")
        if self.field != other.field:
            raise FieldMismatchError("matrix fields differ")
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ShapeMismatchError("matrix shapes differ")

    # -- elimination ---------------------------------------------------------

    def rref(self):
        """Reduced row echelon form; returns (matrix, pivot column list).

        Requires a field with division (Q or GF); polynomial entries are
        rejected.
        """
        if self.field.kind == "poly":
            raise NotInvertibleError("row reduction needs a division field")
        m = [list(row) for row in self.entries]
        pivots = []
        r = 0
        for c in range(self.cols):
            pivot_row = None
            for i in range(r, self.rows):
                if not m[i][c].is_zero():
                    pivot_row = i
                    break
            if pivot_row is None:
                continue
            m[r], m[pivot_row] = m[pivot_row], m[r]
            inv = m[r][c].invert()
            m[r] = [inv * x for x in m[r]]
            for i in range(self.rows):
                if i != r and not m[i][c].is_zero():
                    f = m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[r])]
            pivots.append(c)
            r += 1
            if r == self.rows:
                break
        return Matrix(self.field, m), pivots

    def rank(self) -> int:
        return len(self.rref()[1])

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

    def solve(self, rhs):
        """One exact solution x of self @ x = rhs, or None if inconsistent.

        Free variables are set to zero, which makes the answer deterministic.
        """
        if len(rhs) != self.rows:
            raise ShapeMismatchError("rhs length mismatch")
        aug = Matrix(self.field,
                     [list(row) + [rhs[i]] for i, row in enumerate(self.entries)])
        rr, pivots = aug.rref()
        if self.cols in pivots:
            return None
        zero = self.field.zero()
        x = [zero] * self.cols
        for r, pc in enumerate(pivots):
            x[pc] = rr.entries[r][self.cols]
        return x

    def det(self) -> Scalar:
        if self.rows != self.cols:
            raise ShapeMismatchError("determinant of non-square matrix")
        if self.field.kind != "poly":
            return self._det_gauss()
        return self._det_cofactor(self.entries)

    def _det_gauss(self) -> Scalar:
        n = self.rows
        m = [list(row) for row in self.entries]
        det = self.field.one()
        for c in range(n):
            pivot_row = None
            for i in range(c, n):
                if not m[i][c].is_zero():
                    pivot_row = i
                    break
            if pivot_row is None:
                return self.field.zero()
            if pivot_row != c:
                m[c], m[pivot_row] = m[pivot_row], m[c]
                det = -det
            det = det * m[c][c]
            inv = m[c][c].invert()
            for i in range(c + 1, n):
                if not m[i][c].is_zero():
                    f = inv * m[i][c]
                    m[i] = [a - f * b for a, b in zip(m[i], m[c])]
        return det

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
        unit (adjugate construction)."""
        if self.rows != self.cols:
            raise ShapeMismatchError("inverse of non-square matrix")
        n = self.rows
        if self.field.kind != "poly":
            aug = Matrix(self.field,
                         [list(self.entries[i])
                          + list(Matrix.identity(self.field, n).entries[i])
                          for i in range(n)])
            rr, pivots = aug.rref()
            if pivots != list(range(n)):
                raise NotInvertibleError("singular matrix")
            return Matrix(self.field,
                          [row[n:] for row in rr.entries])
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


def _indeterminates(count: int):
    """The ring Q[t0, ..., t{count-1}] and its variables."""
    ring = Field("poly", variables=[f"t{a}" for a in range(count)])
    return ring, [ring.variable(v) for v in ring.variables]


def _coefficient_rows(field: Field, polys, count: int) -> Matrix:
    """Entry [r][a]: the coefficient over `field` of the unit monomial t_a
    in polys[r], polynomials linear in `_indeterminates(count)`.  Exact
    over Q, and over GF(p) for constants lifted as residues, since the
    polynomials commute with Z -> GF(p)."""
    units = [tuple(int(b == a) for b in range(count)) for a in range(count)]
    return Matrix.from_rows(field, [[x.value.get(u, 0) for u in units]
                                    for x in polys])
