from fractions import Fraction
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiprelie import (GF, QQ, Algebra, AlgebraPair, BilinearForm, Matrix,
                        cast_algebra, cast_pair,
                        NotInvertibleError, PreconditionError, adjoint_pair, check_comm_2cocycle,
                        check_compatible_lie, check_compatible_pair,
                        check_equivalence, check_form, check_invariant,
                        commutator_pair, construct_from_vectors, dual_pair,
                        get_family, induce_from_cocycle, instantiate,
                        invariant_form_space, left_multiplication_pair,
                        pairing_form, poly_ring, semidirect_product)
from conftest import rand_fraction, random_instance

CA_ALL = [f"CA{i}" for i in range(1, 46)]


def B(rows, field=QQ):
    return BilinearForm(Matrix.from_rows(field, rows))


def test_check_form_basic():
    eye = B([[1, 0], [0, 1]])
    assert check_form(eye, "symmetric").passed
    assert check_form(eye, "nondegenerate").passed
    skew = B([[0, 1], [-1, 0]])
    assert not check_form(skew, "symmetric").passed
    degenerate = B([[1, 1], [1, 1]])
    assert check_form(degenerate, "symmetric").passed
    assert not check_form(degenerate, "nondegenerate").passed


def test_cocycle_dim2_automatic(rng):
    # the cyclic sum is alternating trilinear, so it vanishes in dim 2
    for _ in range(10):
        c = rand_fraction(rng)
        b1 = Algebra.from_entries(QQ, 2, [(1, 2, 1, c), (2, 1, 1, -c)])
        pair = AlgebraPair(b1, b1)
        form = B([[rand_fraction(rng), c], [c, rand_fraction(rng)]])
        assert check_comm_2cocycle(form, pair).passed


def test_cocycle_3dim_counterexample():
    b = Algebra.from_entries(QQ, 3, [(1, 2, 3, 1), (2, 1, 3, -1)])
    G = AlgebraPair(b, b)
    eye = B([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    rep = check_comm_2cocycle(eye, G)
    assert not rep.passed   # B(e3,e3) + 0 + 0 = 1 at (e1,e2,e3)


def test_cocycle_reports_asymmetry():
    b = Algebra.zero_algebra(QQ, 2)
    rep = check_comm_2cocycle(B([[0, 1], [-1, 0]]), AlgebraPair(b, b))
    assert not rep.passed


def test_invariant_zero_form(rng):
    pair = random_instance("CA27", rng)
    zero = B([[0, 0], [0, 0]])
    assert check_invariant(zero, pair).passed


def test_invariant_identity_on_ca5():
    pair = instantiate(get_family("CA5"))
    rep = check_invariant(B([[1, 0], [0, 1]]), pair)
    # computed by expansion: B(e1.e1, e1) = B(-e2, e1) = 0 but
    # B(e1, [e1, e1]) = 0 holds, the failure appears elsewhere
    assert not rep.passed


def test_invariance_implies_cocycle_on_commutators(rng):
    # corollary correspondence, on catalog instances with random invariant
    # forms drawn from the exact solution space
    hits = 0
    for name in CA_ALL:
        pair = random_instance(name, rng)
        basis = invariant_form_space(pair)
        if not basis:
            continue
        coeffs = [rand_fraction(rng) for _ in basis]
        gram = Matrix.zero(QQ, 2, 2)
        for c, g in zip(coeffs, basis):
            gram = gram + g.scale(QQ.scalar(c))
        form = BilinearForm(gram)
        assert check_invariant(form, pair).passed
        assert check_comm_2cocycle(form, commutator_pair(pair)).passed
        hits += 1
    # 12 of the 45 families carry a nonzero invariant form at this seed
    assert hits >= 10


def test_induce_from_cocycle_abelian(rng):
    zero = Algebra.zero_algebra(QQ, 2)
    G = AlgebraPair(zero, zero)
    form = B([[2, 1], [1, 1]])
    out = induce_from_cocycle(form, G)
    assert out.circ.is_zero() and out.star.is_zero()


def test_induce_from_cocycle_worked_example():
    # both brackets [e1,e2] = e1 with the antidiagonal form gives
    # e1.e2 = e1 and e2.e2 = -e2 (solved by hand from the Gram systems)
    b = Algebra.from_entries(QQ, 2, [(1, 2, 1, 1), (2, 1, 1, -1)])
    G = AlgebraPair(b, b)
    form = B([[0, 1], [1, 0]])
    out = induce_from_cocycle(form, G)
    assert out.circ == out.star
    expected = Algebra.from_entries(QQ, 2, [(1, 2, 1, 1), (2, 2, 2, -1)])
    assert out.circ == expected
    assert commutator_pair(out) == G
    assert check_compatible_pair(out).passed


def test_induce_from_cocycle_over_polynomials_matches_q():
    # the worked example cast to Q[lambda]: the Gram array has determinant
    # -1, a unit, so its inverse exists over the ring
    ring = poly_ring(["lambda"])
    b = Algebra.from_entries(QQ, 2, [(1, 2, 1, 1), (2, 1, 1, -1)])
    form = B([[0, 1], [1, 0]])
    over_q = induce_from_cocycle(form, AlgebraPair(b, b))
    b_poly = cast_algebra(b, ring)
    out = induce_from_cocycle(B([[0, 1], [1, 0]], ring),
                              AlgebraPair(b_poly, b_poly))
    assert out == cast_pair(over_q, ring)


def test_induce_from_cocycle_rejects_degenerate():
    b = Algebra.from_entries(QQ, 2, [(1, 2, 1, 1), (2, 1, 1, -1)])
    G = AlgebraPair(b, b)
    with pytest.raises(PreconditionError):
        induce_from_cocycle(B([[1, 1], [1, 1]]), G)


def test_theorem_round_trip_on_catalog(rng):
    # wherever a nondegenerate invariant form exists, inducing from the
    # commutator pair reproduces the original products exactly
    hits = 0
    for name in CA_ALL:
        pair = random_instance(name, rng)
        basis = invariant_form_space(pair)
        form = _nondegenerate_member(basis, rng)
        if form is None:
            continue
        out = induce_from_cocycle(form, commutator_pair(pair))
        assert out.circ.sc == pair.circ.sc and out.star.sc == pair.star.sc
        hits += 1
    assert hits >= 3


def _nondegenerate_member(basis, rng, tries=60):
    for _ in range(tries):
        coeffs = [Fraction(rng.randint(-3, 3)) for _ in basis]
        gram = Matrix.zero(QQ, 2, 2)
        for c, g in zip(coeffs, basis):
            gram = gram + g.scale(QQ.scalar(c))
        if not gram.det().is_zero():
            return BilinearForm(gram)
    return None


def test_equivalence_bridge(rng):
    # a nondegenerate invariant form, read as a map A -> A*, intertwines
    # the negative left multiplications with the dual adjoints
    hits = 0
    for name in CA_ALL:
        pair = random_instance(name, rng)
        basis = invariant_form_space(pair)
        form = _nondegenerate_member(basis, rng)
        if form is None:
            continue
        lrep = left_multiplication_pair(pair)
        drep = dual_pair(adjoint_pair(commutator_pair(pair)))
        assert check_equivalence(lrep, drep, form.gram).passed
        hits += 1
    assert hits >= 3


def test_pairing_form_shape():
    form = pairing_form(1, QQ)
    assert form.gram == Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    for n in (1, 2, 3):
        f = pairing_form(n, QQ)
        assert check_form(f, "symmetric").passed
        assert check_form(f, "nondegenerate").passed
        assert f.gram.det().value in (1, -1)


def test_pairing_form_is_cocycle_on_double(rng):
    for name in ("CA10", "CA30", "CA39"):
        pair = random_instance(name, rng)
        rep = dual_pair(left_multiplication_pair(pair))
        double = semidirect_product(rep)
        assert check_compatible_lie(double).passed
        form = pairing_form(2, QQ)
        assert check_comm_2cocycle(form, double).passed


def test_construct_from_vectors_zero():
    form = B([[1, 0], [0, 1]])
    zero = [QQ.zero(), QQ.zero()]
    out = construct_from_vectors(form, zero, zero)
    assert out.circ.is_zero() and out.star.is_zero()


def test_construct_from_vectors_worked_example():
    form = B([[1, 0], [0, 1]])
    e1 = [QQ.one(), QQ.zero()]
    zero = [QQ.zero(), QQ.zero()]
    out = construct_from_vectors(form, e1, zero)
    expected = Algebra.from_entries(QQ, 2, [(1, 2, 2, -1), (2, 2, 1, 1)])
    assert out.circ == expected
    assert out.star.is_zero()
    assert check_compatible_pair(out).passed
    assert check_invariant(form, out).passed


def test_construct_from_vectors_random(rng):
    for field, reps in ((QQ, 10), (GF(7), 10)):
        for dim in (2, 3):
            for _ in range(reps):
                if field is QQ:
                    entry = lambda: rng.randint(-3, 3)
                else:
                    entry = lambda: rng.randrange(7)
                rows = [[0] * dim for _ in range(dim)]
                for i in range(dim):
                    for j in range(i, dim):
                        rows[i][j] = rows[j][i] = entry()
                form = B(rows, field)
                s1 = [field.scalar(entry()) for _ in range(dim)]
                s2 = [field.scalar(entry()) for _ in range(dim)]
                out = construct_from_vectors(form, s1, s2)
                assert check_compatible_pair(out).passed
                assert check_invariant(form, out).passed
                assert check_comm_2cocycle(form,
                                           commutator_pair(out)).passed


def test_construct_from_vectors_rejects_asymmetric():
    with pytest.raises(PreconditionError):
        construct_from_vectors(B([[0, 1], [-1, 0]]),
                               [QQ.one(), QQ.zero()],
                               [QQ.zero(), QQ.zero()])


# ---------------------------------------------------------------------------
# oracle: the former invariant_form_space, its functional derived by hand
# ---------------------------------------------------------------------------

def old_invariant_form_space(P):
    n = P.dim
    f = P.field
    G = commutator_pair(P)
    slots = [(i, j) for i in range(n) for j in range(i, n)]

    def gram_of(vec):
        rows = [[None] * n for _ in range(n)]
        for (i, j), c in zip(slots, vec):
            rows[i][j] = c
            rows[j][i] = c
        return Matrix(f, rows)

    rows = []
    for prod, brk in ((P.circ, G.circ), (P.star, G.star)):
        for i, j, k in iproduct(range(n), repeat=3):
            left, right = prod.sc[i][j], brk.sc[i][k]
            coeffs = []
            for (a, b) in slots:
                c = f.zero()
                if b == k:
                    c = c + left[a]
                if a != b and a == k:
                    c = c + left[b]
                if a == j:
                    c = c - right[b]
                if a != b and b == j:
                    c = c - right[a]
                coeffs.append(c)
            rows.append(coeffs)
    return [gram_of(vec) for vec in Matrix(f, rows).nullspace()]


FORM_FIELDS = {"Q": (QQ, (-2, -1, 1, 2, Fraction(1, 2))),
               "GF5": (GF(5), (1, 2, 3, 4))}


@st.composite
def form_pairs(draw):
    """Pairs with and without invariant forms: the zero pair (every
    symmetric form), vector constructions (their form at least) and
    random tables (mostly none)."""
    field, coeffs = FORM_FIELDS[draw(st.sampled_from(sorted(FORM_FIELDS)))]
    n = draw(st.integers(1, 3))
    pick = lambda: field.scalar(draw(st.sampled_from((0,) + coeffs)))
    kind = draw(st.sampled_from(("zero", "vectors", "random")))
    if kind == "vectors":
        rows = [[None] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                rows[i][j] = rows[j][i] = pick()
        return construct_from_vectors(BilinearForm(Matrix(field, rows)),
                                      [pick() for _ in range(n)],
                                      [pick() for _ in range(n)])
    density = 0 if kind == "zero" else draw(st.integers(1, 4))

    def table():
        return Algebra.from_entries(field, n, [
            (i, j, k, pick()) for i, j, k in iproduct(range(1, n + 1),
                                                      repeat=3)
            if draw(st.integers(1, 4)) <= density])
    return AlgebraPair(table(), table())


@settings(max_examples=60, deadline=None)
@given(form_pairs())
def test_invariant_form_space_matches_oracle(P):
    assert invariant_form_space(P) == old_invariant_form_space(P)


@pytest.mark.parametrize("prime", [None, 5])
def test_invariant_form_space_matches_oracle_on_catalog(rng, prime):
    for name in CA_ALL[::4]:
        P = random_instance(name, rng, prime=prime)
        assert invariant_form_space(P) == old_invariant_form_space(P)


def test_invariant_form_space_rejects_laurent_like_oracle():
    ring = poly_ring(["s", "u"], units=["u"])
    P = AlgebraPair(Algebra.from_entries(ring, 2, [(1, 1, 1, "s")]),
                    Algebra.from_entries(ring, 2, [(2, 1, 2, "u^-1")]))
    for space in (invariant_form_space, old_invariant_form_space):
        with pytest.raises(NotInvertibleError):
            space(P)
