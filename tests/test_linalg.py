from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiprelie import (GF, QQ, BudgetExceededError, FieldMismatchError,
                        Matrix, NotInvertibleError, PreconditionError,
                        ShapeMismatchError, poly_ring)
from antiprelie.linalg import MAX_COFACTOR_DIM


def M(rows, field=QQ):
    return Matrix.from_rows(field, rows)


def test_matmul_and_apply():
    a = M([[1, 2], [3, 4]])
    b = M([[0, 1], [1, 0]])
    assert a @ b == M([[2, 1], [4, 3]])
    v = a.apply([QQ.scalar(1), QQ.scalar(-1)])
    assert [x.value for x in v] == [-1, -1]


def test_rref_and_rank():
    a = M([[1, 2, 3], [2, 4, 6], [1, 1, 1]])
    rr, pivots = a.rref()
    assert pivots == [0, 1]
    assert a.rank() == 2


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
    if aug.rank() > a.rank():
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
