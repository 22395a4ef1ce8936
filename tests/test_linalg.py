import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiprelie import (GF, QQ, BilinearForm, BudgetExceededError,
                        ConstraintError, FieldMismatchError, Matrix,
                        NotInvertibleError, PreconditionError,
                        ShapeMismatchError, construct_from_vectors,
                        get_family, instantiate, linear_space, poly_ring)
from antiprelie.cocycles import _quadratic_coefficients
from antiprelie.linalg import MAX_COFACTOR_DIM, _axpy


def M(rows, field=QQ):
    return Matrix.from_rows(field, rows)


def test_matmul_and_apply():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert a @ b == M([[2, 1], [4, 3]])
    v = a.apply([QQ.scalar(1), QQ.scalar(-1)])
    assert [x.value for x in v] == [-1, -1]


def test_rref_and_rank():
    # the rank is the number of pivots
    a = M([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    rr, pivots = a.rref()
    assert pivots == [0, 1]
    assert rr == M([[1, 0, -1], [0, 1, 2], [0, 0, 0]])


def test_nullspace_members_annihilate():
    a = M([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    for vec in a.nullspace():
        assert all(x.is_zero() for x in a.apply(vec))
    assert len(a.nullspace()) == 1


def test_solve_consistent_and_inconsistent():
    a = M([[1, 1], [2, 2]])
    sol = a.solve([QQ.scalar(3), QQ.scalar(6)])
    assert sol is not None and all(
        x == y for x, y in zip(a.apply(sol), [QQ.scalar(3), QQ.scalar(6)]))
    assert a.solve([QQ.scalar(3), QQ.scalar(7)]) is None


def test_det_inverse_rational():
    a = M([[Fraction(1, 2), 1], [0, 3]])
    assert a.det() == QQ.scalar(Fraction(3, 2))
    inv = a.inverse()
    assert a @ inv == Matrix.identity(QQ, 2)


def test_det_gf():
    f = GF(7)
    a = M([[3, 1], [5, 2]], f)
    assert a.det() == f.scalar(1)
    assert a @ a.inverse() == Matrix.identity(f, 2)


def test_singular_inverse_raises():
    with pytest.raises(NotInvertibleError):
        M([[1, 2], [2, 4]]).inverse()


def test_poly_det_and_unit_inverse():
    ring = poly_ring(["a", "b"], units=["a"])
    theta = Matrix(ring, [[ring.parse("a"), ring.zero()],
                          [ring.parse("b"), ring.parse("a^2")]])
    assert theta.det() == ring.parse("a^3")
    inv = theta.inverse()
    assert theta @ inv == Matrix.identity(ring, 2)


def test_poly_inverse_non_unit_det_raises():
    ring = poly_ring(["b"])
    m = Matrix(ring, [[ring.parse("b"), ring.zero()],
                      [ring.zero(), ring.one()]])
    with pytest.raises(NotInvertibleError):
        m.inverse()


def test_shape_checks():
    with pytest.raises(ShapeMismatchError):
        M([[1, 2], [3, 4]]) @ M([[1, 2, 3]])
    with pytest.raises(ShapeMismatchError):
        M([[1, 2], [3]])


def test_json_round_trip():
    a = M([[Fraction(1, 2), -1], [0, 3]])
    assert Matrix.from_json(a.to_json(), QQ) == a


def test_poly_det_past_the_cofactor_limit_raises_before_work(monkeypatch):
    ring = poly_ring(["x"])
    assert Matrix.identity(ring, MAX_COFACTOR_DIM).det() == ring.one()
    monkeypatch.setattr(Matrix, "_det_cofactor", lambda *a: pytest.fail(
        "cofactor expansion ran past the limit"))
    big = Matrix.identity(ring, MAX_COFACTOR_DIM + 1)
    for op in (big.det, big.inverse):
        with pytest.raises(BudgetExceededError) as info:
            op()
        assert not isinstance(info.value, PreconditionError)


def test_poly_inverse_stops_below_the_cofactor_limit(monkeypatch):
    # the adjugate needs n^2 cofactor minors: at 8 rows it is refused
    # before any expansion, at 7 a sparse unit-determinant matrix inverts
    ring = poly_ring(["x"])
    x = ring.variable("x")
    n = MAX_COFACTOR_DIM - 1
    rows = [[ring.one() if i == j else ring.zero() for j in range(n)]
            for i in range(n)]
    rows[0][n - 1], rows[2][3], rows[5][1] = x, x + ring.one(), -x
    sparse = Matrix(ring, rows)
    assert sparse @ sparse.inverse() == Matrix.identity(ring, n)
    monkeypatch.setattr(Matrix, "_det_cofactor", lambda *a: pytest.fail(
        "cofactor expansion ran past the limit"))
    dense = Matrix(ring, [[x + ring.scalar(i + j) for j in range(n + 1)]
                          for i in range(n + 1)])
    with pytest.raises(BudgetExceededError, match="adjugate"):
        dense.inverse()


ELIMINATION_FIELDS = {"Q": (QQ, [0, 0, 1, -1, 2, Fraction(1, 2)]),
                      "GF5": (GF(5), [0, 0, 1, 2, 3, 4]),
                      "GF7": (GF(7), [0, 0, 1, 3, 5, 6])}


@st.composite
def square_systems(draw):
    """A 1-4-dim square matrix and a right-hand side.  The last 0 to n-1
    rows are multiples of the first, so singular and rank-deficient
    matrices are common."""
    field, values = ELIMINATION_FIELDS[draw(st.sampled_from(
        sorted(ELIMINATION_FIELDS)))]
    n = draw(st.integers(1, 4))
    entry = st.sampled_from(values)
    rows = [[draw(entry) for _ in range(n)] for _ in range(n)]
    for r in range(n - draw(st.integers(0, n - 1)), n):
        c = draw(entry)
        rows[r] = [c * x for x in rows[0]]
    rhs = [field.scalar(draw(entry)) for _ in range(n)]
    return Matrix.from_rows(field, rows), rhs


@settings(max_examples=150, deadline=None)
@given(square_systems())
def test_elimination_agrees_with_cofactor_oracle(system):
    a, rhs = system
    det = a.det()
    assert det == a._det_cofactor(a.entries)
    if det.is_zero():
        with pytest.raises(NotInvertibleError):
            a.inverse()
    else:
        assert a.inverse() @ a == Matrix.identity(a.field, a.rows)
    x = a.solve(rhs)
    aug = Matrix(a.field, [row + (b,) for row, b in zip(a.entries, rhs)])
    if len(aug.rref()[1]) > len(a.rref()[1]):
        assert x is None
    else:
        assert a.apply(x) == rhs


# ---------------------------------------------------------------------------
# Matrix results built from checked matrices skip the entry checks; the
# public constructors keep them.
# ---------------------------------------------------------------------------

def test_public_constructors_still_check_entries():
    with pytest.raises(FieldMismatchError):
        Matrix(QQ, [[QQ.one(), GF(5).one()]])
    with pytest.raises(FieldMismatchError):
        Matrix.from_rows(GF(5), [[1, 2], [3, QQ.scalar(Fraction(1, 2))]])
    with pytest.raises(FieldMismatchError):
        Matrix(QQ, [[1, 2]])  # plain ints are not Scalars
    with pytest.raises(ShapeMismatchError):
        Matrix(QQ, [[QQ.one(), QQ.one()], [QQ.one()]])
    with pytest.raises(ShapeMismatchError):
        Matrix.from_rows(GF(5), [[1], [2, 3]])


def old_matrix_ops(a, b, c):
    """The results of the matrix operations, each built through the
    checking constructor as before."""
    f = a.field
    return {
        "add": Matrix(f, [[x + y for x, y in zip(r1, r2)]
                          for r1, r2 in zip(a.entries, b.entries)]),
        "sub": Matrix(f, [[x - y for x, y in zip(r1, r2)]
                          for r1, r2 in zip(a.entries, b.entries)]),
        "neg": Matrix(f, [[-x for x in row] for row in a.entries]),
        "scale": Matrix(f, [[c * x for x in row] for row in a.entries]),
        "matmul": Matrix(f, [[sum((x * y for x, y in zip(row, col)),
                                  f.zero()) for col in zip(*b.entries)]
                             for row in a.transpose().entries]),
        "transpose": Matrix(f, list(zip(*a.entries))),
    }


@st.composite
def matrix_triples(draw):
    field, values = ELIMINATION_FIELDS[draw(st.sampled_from(
        sorted(ELIMINATION_FIELDS)))]
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    entry = st.sampled_from(values)

    def matrix():
        return Matrix.from_rows(field, [[draw(entry) for _ in range(cols)]
                                        for _ in range(rows)])
    return matrix(), matrix(), field.scalar(draw(entry))


@settings(max_examples=80, deadline=None)
@given(matrix_triples())
def test_matrix_operations_equal_checked_constructions(args):
    a, b, c = args
    want = old_matrix_ops(a, b, c)
    got = {"add": a + b, "sub": a - b, "neg": -a, "scale": a.scale(c),
           "matmul": a.transpose() @ b, "transpose": a.transpose()}
    for name, m in got.items():
        assert m == want[name], name
        assert (m.rows, m.cols, m.field) == \
            (want[name].rows, want[name].cols, want[name].field)
        assert type(m.entries) is tuple and \
            all(type(row) is tuple for row in m.entries)


def test_matrix_operations_keep_field_checks():
    a = M([[1, 2], [3, 4]])
    b = M([[1, 2], [3, 4]], GF(5))
    for op in (a.__add__, a.__sub__):
        with pytest.raises(FieldMismatchError):
            op(b)
    with pytest.raises(FieldMismatchError):
        a.scale(GF(5).one())
    with pytest.raises(FieldMismatchError):
        a @ b
    assert Matrix(QQ, []).transpose() == Matrix(QQ, [])


# ---------------------------------------------------------------------------
# Oracle: the Gauss-Jordan pass on Scalars that the plain-value elimination
# replaced.  Every row operation is a Scalar axpy.
# ---------------------------------------------------------------------------

def oracle_eliminate(self):
    if self.field.kind == "poly":
        raise NotInvertibleError("row reduction needs a division field")
    m = [list(row) for row in self.entries]
    pivots = []
    det = self.field.one()
    for c in range(self.cols):
        r = len(pivots)
        if r == self.rows:
            break
        pivot_row = next((i for i in range(r, self.rows)
                          if not m[i][c].is_zero()), None)
        if pivot_row is None:
            continue
        if pivot_row != r:
            m[r], m[pivot_row] = m[pivot_row], m[r]
            det = -det
        det = det * m[r][c]
        inv = m[r][c].invert()
        m[r] = [inv * x for x in m[r]]
        for i in range(self.rows):
            if i != r and not m[i][c].is_zero():
                _axpy(m[i], -m[i][c], m[r])
        pivots.append(c)
    if len(pivots) < self.rows:
        det = self.field.zero()
    return m, pivots, det


def under_oracle(op, *args):
    """op(*args) with the oracle elimination, or the error type it
    raises."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Matrix, "_eliminate", oracle_eliminate)
        return outcome(op, *args)


def outcome(op, *args):
    try:
        return op(*args)
    except NotInvertibleError as exc:
        return type(exc)


def assert_canonical(x):
    if x.field.kind == "Q":
        assert type(x.value) is Fraction
    else:
        assert type(x.value) is int and 0 <= x.value < x.field.p


P31 = 2147483647  # the largest accepted modulus
ORACLE_ENTRIES = {
    "Q": (QQ, st.builds(Fraction, st.integers(-9, 9),
                        st.sampled_from([1, 2, 3, 7]))),
    "GF2": (GF(2), st.integers(0, 1)),
    "GF5": (GF(5), st.integers(0, 4)),
    "GF(2^31-1)": (GF(P31), st.one_of(st.integers(0, 3),
                                      st.integers(P31 - 3, P31 - 1))),
}


@st.composite
def oracle_systems(draw):
    """A matrix with 1-6 rows and 1-8 columns, or a tall one with 9-16
    rows and 1-4 columns, and a right-hand side.  Zero entries are
    common, and some rows are combinations of two earlier rows, so the
    matrix is often rank-deficient."""
    field, values = ORACLE_ENTRIES[draw(st.sampled_from(
        sorted(ORACLE_ENTRIES)))]
    entry = st.one_of(st.just(0), values)
    if draw(st.booleans()):
        rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    else:
        rows, cols = draw(st.integers(9, 16)), draw(st.integers(1, 4))
    m = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    for r in range(1, rows):
        if draw(st.booleans()):
            a, b = draw(st.integers(0, r - 1)), draw(st.integers(0, r - 1))
            s, t = draw(entry), draw(entry)
            m[r] = [s * x + t * y for x, y in zip(m[a], m[b])]
    rhs = [field.scalar(draw(entry)) for _ in range(rows)]
    return Matrix.from_rows(field, m), rhs


@settings(max_examples=300, deadline=None)
@given(oracle_systems())
def test_elimination_matches_scalar_oracle(system):
    a, rhs = system
    got = a._eliminate()
    assert got == oracle_eliminate(a)
    rows, pivots, det = got
    for x in (det, *(x for row in rows for x in row)):
        assert_canonical(x)
    assert a.nullspace() == under_oracle(a.nullspace)
    assert a.solve(rhs) == under_oracle(a.solve, rhs)
    square = Matrix._trusted(a.field, [row[:a.rows]
                                       for row in a.entries[:a.cols]])
    assert square.det() == under_oracle(square.det)
    assert outcome(square.inverse) == under_oracle(square.inverse)


def test_elimination_of_empty_and_zero_matrices():
    for f in (QQ, GF(5)):
        assert Matrix(f, [])._eliminate() == ([], [], f.one())
        zero = Matrix.zero(f, 2, 3)
        assert zero._eliminate() == oracle_eliminate(zero)
        assert zero.nullspace() == under_oracle(zero.nullspace)


# ---------------------------------------------------------------------------
# The linear stage where the program uses it, against the oracle
# elimination: linear_space on two-vector tables and the Z^2 kernel basis.
# ---------------------------------------------------------------------------

ORACLE_BASES = [("A2", None), ("A3", None), ("A4", None), ("A5", None),
                ("A6", -2), ("A6", -1), ("A6", 0), ("A6", 1), ("A7", None),
                ("A8", -2), ("A8", 0), ("A8", 1), ("A9", None)]


def two_vector_table(field, rng):
    """The first product of a dim-3 two-vector construction on a random
    symmetric form, as the constructions benchmark draws it."""
    def entry():
        return rng.randint(-3, 3) if field.kind == "Q" else \
            rng.randrange(field.p)
    gram = [[0] * 3 for _ in range(3)]
    for i in range(3):
        for j in range(i, 3):
            gram[i][j] = gram[j][i] = entry()
    s1, s2 = ([field.scalar(entry()) for _ in range(3)] for _ in range(2))
    form = BilinearForm(Matrix.from_rows(field, gram))
    return construct_from_vectors(form, s1, s2).circ


def test_linear_space_matches_oracle_on_two_vector_tables(monkeypatch):
    rng = random.Random(20240611)
    tables = [two_vector_table(f, rng) for f in (QQ, GF(5), GF(7))
              for _ in range(3)]
    got = [linear_space(A) for A in tables]
    assert all(0 < len(basis) < 27 for basis in got)
    monkeypatch.setattr(Matrix, "_eliminate", oracle_eliminate)
    assert [linear_space(A) for A in tables] == got


def test_z2_kernel_matches_oracle_on_oracle_bases(monkeypatch):
    bases = []
    for name, lam in ORACLE_BASES:
        for p in (5, 7):
            try:
                pair = instantiate(get_family(name),
                                   {"lambda": lam} if lam is not None
                                   else {}, prime=p)
            except ConstraintError:
                continue
            bases.append((pair.circ, p))
    assert len(bases) == 26
    got = [_quadratic_coefficients(A, p)[0] for A, p in bases]
    monkeypatch.setattr(Matrix, "_eliminate", oracle_eliminate)
    for (A, p), K in zip(bases, got):
        assert np.array_equal(_quadratic_coefficients(A, p)[0], K)
