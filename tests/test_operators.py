import json
import random
from itertools import product as iproduct
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import antiprelie.operators as operators
import antiprelie.representations as representations
from antiprelie import (GF, QQ, Algebra, AlgebraPair, BudgetExceededError,
                        FieldMismatchError, Matrix,
                        NotInvertibleError, PreconditionError,
                        RepresentationPair, Scalar, ShapeMismatchError,
                        ToolkitError, adjoint_pair, check_anti_o,
                        check_anti_rota_baxter, check_compatible_pair,
                        check_identity, check_rb_converse, check_strong,
                        commutator_pair, get_family, induce_from_rb,
                        induce_from_invertible, induce_on_domain,
                        induce_on_image, instantiate,
                        left_multiplication_pair, multiply, pair_to_json,
                        poly_ring)
from antiprelie.algebra import make_report
from conftest import random_instance

GOLDEN = Path(__file__).parent / "golden"


def gf5_pair(name, assignment=None, branch=None):
    fam = get_family(name)
    return instantiate(fam, assignment or {}, branch=branch, prime=5)


def all_maps(field, n=2):
    for entries in iproduct(range(field.p), repeat=n * n):
        yield Matrix.from_rows(
            field, [list(entries[r * n:(r + 1) * n]) for r in range(n)])


def test_zero_operator_is_anti_o_and_strong(rng):
    pair = random_instance("CA30", rng)
    R = left_multiplication_pair(pair)
    T = Matrix.zero(QQ, 2, 2)
    assert check_anti_o(T, R).passed
    assert check_strong(T, R).passed


def test_identity_is_anti_o_for_left_multiplication(rng):
    for name in ("CA10", "CA27", "CA35", "CA44"):
        pair = random_instance(name, rng)
        R = left_multiplication_pair(pair)
        eye = Matrix.identity(QQ, 2)
        assert check_anti_o(eye, R).passed
        # invertible anti-O-operators are strong
        assert check_strong(eye, R).passed


def test_identity_fails_for_adjoint_with_nonzero_bracket(rng):
    pair = random_instance("CA30", rng)
    G = commutator_pair(pair)
    assert not G.circ.is_zero()
    R = adjoint_pair(G)
    eye = Matrix.identity(QQ, 2)
    # the defining identity forces [x,y] = -2[x,y]
    assert not check_anti_o(eye, R).passed


def test_strong_requires_anti_o():
    pair = gf5_pair("CA30", {"beta": 1, "gamma": 2})
    G = commutator_pair(pair)
    R = adjoint_pair(G)
    eye = Matrix.identity(GF(5), 2)
    with pytest.raises(PreconditionError):
        check_strong(eye, R)


def test_dim2_anti_o_operators_are_strong():
    # the three cyclic coefficient sums are alternating trilinear, hence
    # vanish identically on a 2-dimensional space
    pair = gf5_pair("CA30", {"beta": 1, "gamma": 2})
    R = left_multiplication_pair(pair)
    hits = 0
    for T in all_maps(GF(5)):
        if check_anti_o(T, R).passed:
            assert check_strong(T, R).passed
            hits += 1
    assert hits > 1


def test_anti_rb_zero_and_abelian(rng):
    zero2 = Algebra.zero_algebra(QQ, 2)
    abelian = AlgebraPair(zero2, zero2)
    anyop = Matrix.from_rows(QQ, [[1, 2], [3, 4]])
    assert check_anti_rota_baxter(anyop, abelian, strong=True).passed
    pair = random_instance("CA38", rng)
    G = commutator_pair(pair)
    assert check_anti_rota_baxter(Matrix.zero(QQ, 2, 2), G,
                                  strong=True).passed


def bracket_e1e2_e1():
    b1 = Algebra.from_entries(QQ, 2, [(1, 2, 1, 1), (2, 1, 1, -1)])
    return AlgebraPair(b1, Algebra.zero_algebra(QQ, 2))


def test_anti_rb_diag_counterexample():
    # [Re1, Re2] = 0 but R([Re2,e1] + [e2,Re1]) = R(e1) = e1
    G = bracket_e1e2_e1()
    rop = Matrix.from_rows(QQ, [[1, 0], [0, 0]])
    rep = check_anti_rota_baxter(rop, G)
    assert not rep.passed
    # the converse displayed condition also fails here (computed status)
    assert not check_rb_converse(rop, G).passed


def test_rb_converse_trivial_cases(rng):
    G = commutator_pair(random_instance("CA44", rng))
    assert check_rb_converse(Matrix.zero(QQ, 2, 2), G).passed


def test_strong_anti_rb_passes_converse():
    # search GF(5) for a strong anti-Rota-Baxter operator on a bracket
    # pair with nonzero brackets, then feed it to the converse check
    pair = gf5_pair("CA35", {"lambda": 1, "alpha": 2, "beta": 1}, branch=1)
    G = commutator_pair(pair)
    found = None
    for rop in all_maps(GF(5)):
        if rop.is_zero():
            continue
        if check_anti_rota_baxter(rop, G, strong=True).passed:
            found = rop
            break
    assert found is not None
    assert check_rb_converse(found, G).passed
    out = induce_from_rb(found, G)
    assert check_compatible_pair(out).passed


def test_induce_on_domain_zero_and_identity(rng):
    pair = random_instance("CA26", rng)
    R = left_multiplication_pair(pair)
    zero_out = induce_on_domain(Matrix.zero(QQ, 2, 2), R)
    assert zero_out.circ.is_zero() and zero_out.star.is_zero()
    # T = id recovers the original products
    back = induce_on_domain(Matrix.identity(QQ, 2), R)
    assert back.circ.sc == pair.circ.sc
    assert back.star.sc == pair.star.sc


def test_induce_on_domain_strong_iff_compatible():
    pair = gf5_pair("CA31", {"gamma": 3}, branch=1)
    R = left_multiplication_pair(pair)
    strong_count = compatible_count = 0
    for T in all_maps(GF(5)):
        if not check_anti_o(T, R).passed:
            continue
        strong = check_strong(T, R).passed
        compat = check_compatible_pair(induce_on_domain(T, R)).passed
        assert strong == compat
        strong_count += strong
        compatible_count += compat
    assert strong_count == compatible_count > 0


def test_induce_on_image_invertible_matches_domain():
    pair = gf5_pair("CA10", {"alpha": 2, "beta": 1})
    R = left_multiplication_pair(pair)
    eye = Matrix.identity(GF(5), 2)
    candidates = [T for T in all_maps(GF(5))
                  if not T.det().is_zero() and T != eye
                  and check_anti_o(T, R).passed]
    assert candidates
    T = candidates[0]
    domain = induce_on_domain(T, R)
    image, basis = induce_on_image(T, R)
    assert image.dim == 2
    assert check_compatible_pair(image).passed
    assert check_compatible_pair(domain).passed


def test_induce_on_image_zero_map(rng):
    pair = random_instance("CA24", rng)
    R = left_multiplication_pair(pair)
    out, basis = induce_on_image(Matrix.zero(QQ, 2, 2), R)
    assert basis == []
    assert out.circ.is_zero()


def test_induce_on_image_rank_one():
    pair = gf5_pair("CA30", {"beta": 1, "gamma": 2})
    R = left_multiplication_pair(pair)
    T = Matrix.from_rows(GF(5), [[0, 1], [0, 4]])
    assert len(T.rref()[1]) == 1
    assert check_anti_o(T, R).passed
    out, basis = induce_on_image(T, R)
    assert out.dim == 1 and len(basis) == 1
    for A in (out.circ, out.star):
        assert check_identity(A, "commutative").passed
        assert check_identity(A, "associative").passed


def test_induce_on_image_homomorphism_property():
    # T(u . v) = T(u) . T(v) expressed through the image basis
    pair = gf5_pair("CA30", {"beta": 1, "gamma": 2})
    R = left_multiplication_pair(pair)
    f = GF(5)
    checked = 0
    for T in all_maps(f):
        if len(T.rref()[1]) != 2 or not check_anti_o(T, R).passed:
            continue
        domain = induce_on_domain(T, R)
        image, basis = induce_on_image(T, R)
        bmat = Matrix(f, [[basis[j][k] for j in range(2)] for k in range(2)])
        e = [[f.one(), f.zero()], [f.zero(), f.one()]]
        from antiprelie import multiply
        for a in range(2):
            for b in range(2):
                lhs = T.apply(multiply(domain.circ, e[a], e[b]))
                ta = bmat.solve(T.apply(e[a]))
                tb = bmat.solve(T.apply(e[b]))
                rhs_coeff = multiply(image.circ, ta, tb)
                rhs = bmat.apply(rhs_coeff)
                assert all((x - y).is_zero() for x, y in zip(lhs, rhs))
        checked += 1
        if checked >= 5:
            break
    assert checked == 5


def test_induce_from_rb_zero_cases(rng):
    zero2 = Algebra.zero_algebra(QQ, 2)
    abelian = AlgebraPair(zero2, zero2)
    rop = Matrix.from_rows(QQ, [[1, 2], [0, 1]])
    out = induce_from_rb(rop, abelian)
    assert out.circ.is_zero() and out.star.is_zero()
    G = commutator_pair(random_instance("CA36", rng))
    out2 = induce_from_rb(Matrix.zero(QQ, 2, 2), G)
    assert out2.circ.is_zero() and out2.star.is_zero()


def test_induce_from_rb_rejects_non_rb():
    G = bracket_e1e2_e1()
    rop = Matrix.from_rows(QQ, [[1, 0], [0, 0]])
    with pytest.raises(PreconditionError):
        induce_from_rb(rop, G)


def test_induce_from_invertible_identity_recovers(rng):
    pair = random_instance("CA41", rng)
    R = left_multiplication_pair(pair)
    out = induce_from_invertible(Matrix.identity(QQ, 2), R)
    assert out.circ.sc == pair.circ.sc and out.star.sc == pair.star.sc


def test_induce_from_invertible_scaled(rng):
    pair = random_instance("CA41", rng)
    R = left_multiplication_pair(pair)
    c = QQ.scalar(3)
    T = Matrix.identity(QQ, 2).scale(c)
    out = induce_from_invertible(T, R)
    # products scale, commutator pair is unchanged
    assert commutator_pair(out) == commutator_pair(pair)
    assert out.circ.sc[0][0][0] == c * pair.circ.sc[0][0][0] \
        or out.circ.sc == pair.circ.sc
    assert check_compatible_pair(out).passed


def test_induce_from_invertible_commutator_recovery():
    pair = gf5_pair("CA38", {"lambda": 1, "alpha": 1, "beta": 2}, branch=1)
    R = left_multiplication_pair(pair)
    G = R.g
    f = GF(5)
    hits = 0
    for T in all_maps(f):
        if T.det().is_zero():
            continue
        if not check_anti_o(T, R).passed:
            continue
        out = induce_from_invertible(T, R)
        assert commutator_pair(out) == G
        hits += 1
    assert hits > 0


def test_induce_from_invertible_rejects_singular(rng):
    pair = random_instance("CA41", rng)
    R = left_multiplication_pair(pair)
    with pytest.raises(NotInvertibleError):
        induce_from_invertible(Matrix.zero(QQ, 2, 2), R)


def test_induce_on_image_checks_anti_o_once(monkeypatch):
    import antiprelie.operators as operators
    calls = []
    real = operators.check_anti_o
    monkeypatch.setattr(operators, "check_anti_o",
                        lambda T, R: calls.append(T) or real(T, R))
    pair = gf5_pair("CA30", {"beta": 1, "gamma": 2})
    R = left_multiplication_pair(pair)
    for T in (Matrix.from_rows(GF(5), [[0, 1], [0, 4]]),
              Matrix.identity(GF(5), 2)):
        calls.clear()
        operators.induce_on_image(T, R)
        assert calls == [T]
    calls.clear()
    operators.induce_on_domain(T, R)
    assert calls == [T]


# ---------------------------------------------------------------------------
# Oracles: the per-pair bodies that apply every action matrix to unit
# vectors and rebuild it for every basis pair or triple.
# ---------------------------------------------------------------------------

def units(field, m):
    return [[field.one() if t == i else field.zero() for t in range(m)]
            for i in range(m)]


def old_combine(mats, x, field, m):
    out = Matrix.zero(field, m, m)
    for c, mat in zip(x, mats):
        if not isinstance(c, Scalar):
            c = field.scalar(c)
        if not c.is_zero():
            out = out + mat.scale(c)
    return out


def old_check_anti_o(T, R):
    return make_report(old_anti_o_failures(T, R))


def old_anti_o_failures(T, R):
    n, m = R.g.dim, R.v_dim
    if (T.rows, T.cols) != (n, m):
        raise ShapeMismatchError("T has the wrong shape")
    u = units(R.field, m)
    failures = []
    for name, bracket, act in (("anti_o_1", R.g.circ, R.rho_of),
                               ("anti_o_2", R.g.star, R.mu_of)):
        for a in range(m):
            Ta = T.apply(u[a])
            for b in range(m):
                Tb = T.apply(u[b])
                lhs = multiply(bracket, Ta, Tb)
                inner = [x - y for x, y in zip(act(Tb).apply(u[a]),
                                               act(Ta).apply(u[b]))]
                rhs = T.apply(inner)
                r = [x - y for x, y in zip(lhs, rhs)]
                if any(not c.is_zero() for c in r):
                    failures.append((name, (a, b), r))
    return failures


def old_strong_failures(T, R):
    m = R.v_dim
    u = units(R.field, m)
    Tu = [T.apply(u[a]) for a in range(m)]
    b1, b2 = R.g.circ, R.g.star

    def cyc(act_brk_pairs, a, b, c):
        total = [R.field.zero()] * m
        for act, brk in act_brk_pairs:
            for (p, q, w) in ((a, b, c), (b, c, a), (c, a, b)):
                term = act(multiply(brk, Tu[p], Tu[q])).apply(u[w])
                total = [x + y for x, y in zip(total, term)]
        return total

    failures = []
    specs = (("strong_k1k1", ((R.rho_of, b1),)),
             ("strong_k1k2", ((R.rho_of, b2), (R.mu_of, b1))),
             ("strong_k2k2", ((R.mu_of, b2),)))
    for a, b, c in iproduct(range(m), repeat=3):
        for name, pairs in specs:
            r = cyc(pairs, a, b, c)
            if any(not x.is_zero() for x in r):
                failures.append((name, (a, b, c), r))
    return failures


def old_check_strong(T, R):
    base = old_check_anti_o(T, R)
    if not base.passed:
        raise PreconditionError("T is not an anti-O-operator")
    return make_report(old_strong_failures(T, R))


def old_induce_from_invertible(T, R):
    n = R.g.dim
    if (T.rows, T.cols) != (n, R.v_dim) or R.v_dim != n:
        raise ShapeMismatchError("invertible operator requires V ~ g")
    if T.det().is_zero():
        raise NotInvertibleError("T is singular")
    if not old_check_anti_o(T, R).passed:
        raise PreconditionError("T is not an anti-O-operator")
    Tinv = T.inverse()
    f = R.field
    e = units(f, n)

    def build(act):
        sc = []
        for i in range(n):
            plane = []
            for j in range(n):
                col = T.apply(act(e[i]).apply(Tinv.apply(e[j])))
                plane.append([-x for x in col])
            sc.append(plane)
        return Algebra(f, n, sc, R.g.basis)

    return AlgebraPair(build(R.rho_of), build(R.mu_of))


def old_domain_pair(T, R, basis=None):
    """The domain products from the Scalar matrices: -act(T e_i) e_j, the
    negated columns of the action of each column of T."""
    def build(act):
        sc = [[[-x for x in col] for col in act(t).columns()]
              for t in T.columns()]
        return Algebra(R.field, R.v_dim, sc, basis)

    return AlgebraPair(build(R.rho_of), build(R.mu_of))


def old_induce_on_domain(T, R):
    if not old_check_anti_o(T, R).passed:
        raise PreconditionError("T is not an anti-O-operator")
    return old_domain_pair(T, R)


def _checked_tables(P):
    """Every table of P passes the checked Algebra constructor unchanged:
    the products built without checks hold only Scalars of their field."""
    for A in (P.circ, P.star):
        assert Algebra(A.field, A.dim, A.sc, A.basis) == A
        assert all(type(row) is tuple for plane in A.sc for row in plane)


def _same_pair(new, old):
    assert new == old and pair_to_json(new) == pair_to_json(old)
    _checked_tables(new)


def _plain(out):
    if isinstance(out, tuple):  # induce_on_image: (pair, image basis)
        pair, basis = out
        return [pair_to_json(pair), [[str(c) for c in v] for v in basis]]
    return pair_to_json(out) if isinstance(out, AlgebraPair) else out.to_json()


def _same_outcome(new, old, *args):
    """new(*args) equals old(*args) as JSON, or both raise the same error."""
    try:
        want = old(*args)
    except ToolkitError as exc:
        with pytest.raises(type(exc)):
            new(*args)
        return False
    got = new(*args)
    assert _plain(got) == _plain(want)
    pair = got[0] if isinstance(got, tuple) else got
    if isinstance(pair, AlgebraPair):
        _checked_tables(pair)
    return True


def _same_report(new, old):
    """Equal reports: JSON, failure count and the witness vectors."""
    assert new.to_json() == old.to_json()
    assert (new.passed, new.failure_count, new.witnesses) == \
        (old.passed, old.failure_count, old.witnesses)


def _agrees_with_oracles(T, R):
    """The optimized checks and constructions against the oracles; True
    when T passed the anti-O check."""
    _same_report(check_anti_o(T, R), old_check_anti_o(T, R))
    assert operators._failures(T, R, operators._anti_o_residuals,
                               "anti_o_") == old_anti_o_failures(T, R)
    assert operators._failures(T, R, operators._strong_residuals,
                               "strong_") == old_strong_failures(T, R)
    passed = _same_outcome(check_strong, old_check_strong, T, R)
    _same_pair(operators._domain_pair(T, R), old_domain_pair(T, R))
    _same_outcome(induce_on_domain, old_induce_on_domain, T, R)
    _same_outcome(induce_from_invertible, old_induce_from_invertible, T, R)
    _same_outcome(induce_on_image, old_induce_on_image, T, R)
    return passed


LAURENT = poly_ring(["s", "u"], units=["u"])
OPERATOR_FIELDS = {
    "Q": (QQ, ["1", "-1", "2", "1/2", "-3"]),
    "GF5": (GF(5), ["1", "2", "3", "4"]),
    "laurent": (LAURENT, ["1", "-1", "s", "u^-1", "s*u-2", "2*u"]),
}


@st.composite
def operator_inputs(draw):
    """A random bracket pair g (dim n), random rho/mu on V (dim m, maybe
    != n) and T: V -> g.  Each part has its own density from 0 (all
    zero, so anti-O passes) to 4 (dense, so checks mostly fail).  Half
    the pairs g are the commutators of the random tables: antisymmetric,
    so the rows (b, a) of the checks are the negated rows (a, b)."""
    field, coeffs = OPERATOR_FIELDS[draw(st.sampled_from(
        sorted(OPERATOR_FIELDS)))]
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 3))

    def entry(density):
        if draw(st.integers(1, 4)) > density:
            return field.zero()
        return field.parse(draw(st.sampled_from(coeffs)))

    def table(density):
        return Algebra(field, n, [[[entry(density) for _ in range(n)]
                                   for _ in range(n)] for _ in range(n)])

    def matrix(rows, cols, density):
        return Matrix(field, [[entry(density) for _ in range(cols)]
                              for _ in range(rows)])

    g_density, rep_density, t_density = (draw(st.integers(0, 4))
                                         for _ in range(3))
    g = AlgebraPair(table(g_density), table(g_density))
    if draw(st.booleans()):
        g = commutator_pair(g)
    rho = tuple(matrix(m, m, rep_density) for _ in range(n))
    mu = tuple(matrix(m, m, rep_density) for _ in range(n))
    return matrix(n, m, t_density), RepresentationPair(g, m, rho, mu)


@settings(max_examples=80, deadline=None)
@given(operator_inputs())
def test_operator_checks_match_per_pair_oracles(inputs):
    _agrees_with_oracles(*inputs)


@pytest.mark.parametrize("field_name", sorted(OPERATOR_FIELDS))
@pytest.mark.parametrize("n, m", [(1, 2), (1, 3), (2, 3), (3, 2)])
def test_induce_on_domain_matches_oracle_when_n_differs_from_m(field_name,
                                                               n, m):
    # abelian g and actions with image in ker T make T anti-O, with
    # nonzero domain products u.v = -rho(Tu)v in ker T
    field, coeffs = OPERATOR_FIELDS[field_name]
    rng = random.Random(n * 10 + m)
    rank = min(n, m - 1)
    one, zero = field.one(), field.zero()
    T = Matrix(field, [[one if c == r < rank else zero for c in range(m)]
                       for r in range(n)])

    def action():
        return Matrix(field, [[field.parse(rng.choice(coeffs))
                               if r >= rank else zero for _ in range(m)]
                              for r in range(m)])

    g = AlgebraPair(Algebra.zero_algebra(field, n),
                    Algebra.zero_algebra(field, n))
    R = RepresentationPair(g, m, tuple(action() for _ in range(n)),
                           tuple(action() for _ in range(n)))
    induced = induce_on_domain(T, R)
    _same_pair(induced, old_induce_on_domain(T, R))
    assert induced.dim == m and not induced.circ.is_zero()
    assert _agrees_with_oracles(T, R)


@pytest.mark.parametrize("name, assignment, branch", [
    ("CA30", {"beta": 1, "gamma": 2}, None),
    ("CA38", {"lambda": 1, "alpha": 1, "beta": 2}, 1),
])
def test_operator_checks_match_oracles_on_all_gf5_maps(name, assignment,
                                                       branch):
    # every map for the anti-O check, the anti-O maps for the rest
    R = left_multiplication_pair(gf5_pair(name, assignment, branch))
    passed = 0
    for T in all_maps(GF(5)):
        report = check_anti_o(T, R)
        assert report.to_json() == old_check_anti_o(T, R).to_json()
        if report.passed:
            assert _agrees_with_oracles(T, R)
            passed += 1
    assert 0 < passed < 625


@pytest.mark.parametrize("name", ["CA10", "CA26", "CA38"])
def test_operator_checks_match_oracles_on_symbolic_pairs(name):
    fam = get_family(name)
    P = fam.symbolic_pair(fam.branch_values[0] if fam.branch else None)
    R = left_multiplication_pair(P)
    f = P.field
    one, zero = f.one(), f.zero()
    x = f.variable(f.variables[0])
    maps = [Matrix(f, [[one, zero], [zero, one]]),
            Matrix(f, [[zero, one], [zero, zero]]),
            Matrix(f, [[x, one], [zero, x]])]
    assert _agrees_with_oracles(maps[0], R)   # the identity is anti-O
    for T in maps[1:]:
        _agrees_with_oracles(T, R)


@st.composite
def combinations(draw):
    field, coeffs = OPERATOR_FIELDS[draw(st.sampled_from(
        sorted(OPERATOR_FIELDS)))]
    k = draw(st.integers(0, 3))
    m = draw(st.integers(1, 3))
    values = st.sampled_from(["0"] + coeffs).map(field.parse)
    mats = [Matrix(field, [[draw(values) for _ in range(m)]
                           for _ in range(m)]) for _ in range(k)]
    x = [draw(st.one_of(values, st.integers(-2, 2))) for _ in range(k)]
    return mats, x, field, m


@settings(max_examples=80, deadline=None)
@given(combinations())
def test_combine_matches_sum_of_scaled_matrices(args):
    got = representations._combine(*args)
    want = old_combine(*args)
    assert got == want
    assert [[str(c) for c in row] for row in got.entries] == \
        [[str(c) for c in row] for row in want.entries]


def test_combine_zero_and_int_coefficients():
    f = GF(5)
    a = Matrix.from_rows(f, [[1, 2], [3, 4]])
    b = Matrix.from_rows(f, [[0, 1], [1, 0]])
    for x in ([0, 0], [f.zero(), 0], [1, 0], [0, 3], [2, f.scalar(4)],
              [], [7]):
        assert representations._combine((a, b), x, f, 2) == \
            old_combine((a, b), x, f, 2)
    assert representations._combine((a, b), [0, 0], f, 2) == \
        Matrix.zero(f, 2, 2)


def _count_combine(monkeypatch):
    calls = []
    real = representations._combine

    def counting(*args):
        calls.append(args)
        return real(*args)
    monkeypatch.setattr(representations, "_combine", counting)
    return calls


@pytest.mark.parametrize("m", [1, 2, 3])
def test_anti_o_and_strong_build_each_action_once(monkeypatch, m):
    # g of dim 2, V of dim m, rho = mu = 0: every T is anti-O and strong
    g = AlgebraPair(Algebra.zero_algebra(QQ, 2), Algebra.zero_algebra(QQ, 2))
    zero = Matrix.zero(QQ, m, m)
    R = RepresentationPair(g, m, (zero, zero), (zero, zero))
    T = Matrix.from_rows(QQ, [[t + 1 for t in range(m)],
                              [2 * t - 1 for t in range(m)]])
    calls = _count_combine(monkeypatch)
    assert check_anti_o(T, R).passed
    assert len(calls) <= 2 * m
    calls.clear()
    assert check_strong(T, R).passed
    assert len(calls) <= 2 * m + 4 * m * m


def test_anti_o_builds_each_action_once_on_catalog(monkeypatch):
    R = left_multiplication_pair(gf5_pair("CA30", {"beta": 1, "gamma": 2}))
    T = Matrix.from_rows(GF(5), [[0, 1], [0, 4]])
    calls = _count_combine(monkeypatch)
    assert check_anti_o(T, R).passed
    assert len(calls) <= 4
    calls.clear()
    assert check_strong(T, R).passed
    assert len(calls) <= 4 + 16


# ---------------------------------------------------------------------------
# Oracles: the anti-Rota-Baxter, converse and image bodies that derive
# each identity in their own loops, multiplying vectors with `multiply`.
# ---------------------------------------------------------------------------

def old_check_anti_rota_baxter(Rop, G, strong=False):
    return make_report(old_anti_rota_baxter_failures(Rop, G, strong))


def old_anti_rota_baxter_failures(Rop, G, strong=False):
    n = G.dim
    if (Rop.rows, Rop.cols) != (n, n):
        raise ShapeMismatchError("anti-Rota-Baxter operator must be square")
    e = units(G.field, n)
    Re = [Rop.apply(e[i]) for i in range(n)]
    failures = []
    for name, brk in (("anti_rb_1", G.circ), ("anti_rb_2", G.star)):
        for i in range(n):
            for j in range(n):
                lhs = multiply(brk, Re[i], Re[j])
                inner = [x + y for x, y in zip(multiply(brk, Re[j], e[i]),
                                               multiply(brk, e[j], Re[i]))]
                rhs = Rop.apply(inner)
                r = [x - y for x, y in zip(lhs, rhs)]
                if any(not c.is_zero() for c in r):
                    failures.append((name, (i, j), r))
    if strong:
        specs = (("strong_rb_k1k1", ((G.circ, G.circ),)),
                 ("strong_rb_k1k2", ((G.circ, G.star), (G.star, G.circ))),
                 ("strong_rb_k2k2", ((G.star, G.star),)))
        for i, j, k in iproduct(range(n), repeat=3):
            for name, combos in specs:
                total = [G.field.zero()] * n
                for inner_brk, outer_brk in combos:
                    for (p, q, w) in ((i, j, k), (j, k, i), (k, i, j)):
                        term = multiply(outer_brk,
                                        multiply(inner_brk, Re[p], Re[q]),
                                        e[w])
                        total = [x + y for x, y in zip(total, term)]
                if any(not x.is_zero() for x in total):
                    failures.append((name, (i, j, k), total))
    return failures


def old_induce_from_rb(Rop, G):
    rep = old_check_anti_rota_baxter(Rop, G, strong=True)
    if not rep.passed:
        raise PreconditionError("R is not a strong anti-Rota-Baxter operator")
    n = G.dim
    f = G.field
    e = units(f, n)
    Re = [Rop.apply(e[i]) for i in range(n)]

    def build(brk):
        sc = [[[-x for x in multiply(brk, Re[i], e[j])] for j in range(n)]
              for i in range(n)]
        return Algebra(f, n, sc, G.basis)

    return AlgebraPair(build(G.circ), build(G.star))


def old_check_rb_converse(Rop, G):
    return make_report(old_rb_converse_failures(Rop, G))


def old_rb_converse_failures(Rop, G):
    n = G.dim
    if (Rop.rows, Rop.cols) != (n, n):
        raise ShapeMismatchError("operator must be square")
    f = G.field
    e = units(f, n)
    Re = [Rop.apply(e[i]) for i in range(n)]

    def inner(brk, i, j):
        t1 = multiply(brk, Re[i], Re[j])
        t2 = Rop.apply([x + y for x, y in zip(multiply(brk, e[i], Re[j]),
                                              multiply(brk, Re[i], e[j]))])
        return [x + y for x, y in zip(t1, t2)]

    failures = []
    specs = (("rb_converse_k1k1", ((G.circ, G.circ),)),
             ("rb_converse_k1k2", ((G.circ, G.star), (G.star, G.circ))),
             ("rb_converse_k2k2", ((G.star, G.star),)))
    for i, j, k in iproduct(range(n), repeat=3):
        for name, combos in specs:
            total = [f.zero()] * n
            for inner_brk, outer_brk in combos:
                term = multiply(outer_brk, inner(inner_brk, i, j), e[k])
                total = [x + y for x, y in zip(total, term)]
            if any(not x.is_zero() for x in total):
                failures.append((name, (i, j, k), total))
    return failures


def old_induce_on_image(T, R):
    strong = old_check_strong(T, R)
    if not strong.passed:
        raise PreconditionError("T is not strong")
    m = R.v_dim
    f = R.field
    u = units(f, m)

    def domain_product(act):
        sc = [[[-x for x in act(T.apply(u[a])).apply(u[b])]
               for b in range(m)] for a in range(m)]
        return Algebra(f, m, sc)

    domain = AlgebraPair(domain_product(R.rho_of), domain_product(R.mu_of))
    for kv in T.nullspace():
        for b in range(m):
            for A in (domain.circ, domain.star):
                for x, y in ((kv, u[b]), (u[b], kv)):
                    img = T.apply(multiply(A, x, y))
                    if any(not c.is_zero() for c in img):
                        raise PreconditionError("not well-defined")
    basis, _ = operators._column_echelon_basis(T)
    r = len(basis)
    if r == 0:
        zero = Algebra.zero_algebra(f, 1)
        return AlgebraPair(zero, zero), []
    pre = []
    for w in basis:
        x = T.solve(w)
        if x is None:
            raise NotInvertibleError("image basis vector left the image")
        pre.append(x)
    bmat = Matrix(f, [[basis[j][k] for j in range(r)]
                      for k in range(R.g.dim)])

    def build(A):
        sc = []
        for a in range(r):
            plane = []
            for b in range(r):
                coeffs = bmat.solve(T.apply(multiply(A, pre[a], pre[b])))
                if coeffs is None:
                    raise NotInvertibleError("product left the image subspace")
                plane.append(coeffs)
            sc.append(plane)
        return Algebra(f, r, sc)

    return AlgebraPair(build(domain.circ), build(domain.star)), basis


def _converse_agrees_with_oracle(Rop, G):
    """The uncapped converse failure list equals the oracle's, in order,
    and so does the report."""
    assert operators._failures(Rop, adjoint_pair(G),
                               operators._converse_residuals,
                               "rb_converse_") == \
        old_rb_converse_failures(Rop, G)
    _same_report(check_rb_converse(Rop, G), old_check_rb_converse(Rop, G))


def _rb_agrees_with_oracles(Rop, G):
    """The anti-RB checks and construction against the oracles; True when
    Rop is a strong anti-Rota-Baxter operator."""
    for strong in (False, True):
        _same_report(check_anti_rota_baxter(Rop, G, strong),
                     old_check_anti_rota_baxter(Rop, G, strong))
    ad = adjoint_pair(G)
    failures = operators._failures(Rop, ad, operators._anti_o_residuals,
                                   "anti_rb_")
    failures += operators._failures(Rop, ad, operators._strong_residuals,
                                    "strong_rb_")
    assert failures == old_anti_rota_baxter_failures(Rop, G, True)
    _converse_agrees_with_oracle(Rop, G)
    _same_outcome(induce_on_image, old_induce_on_image, Rop, adjoint_pair(G))
    _same_pair(operators._domain_pair(Rop, ad, G.basis),
               old_domain_pair(Rop, ad, G.basis))
    return _same_outcome(induce_from_rb, old_induce_from_rb, Rop, G)


@st.composite
def bracket_pairs(draw, antisymmetric=True):
    """A random bracket pair of dim 1-3 (antisymmetric, or any table) on
    the basis x1..xn and a random square map, each with its own density
    from 0 to 4."""
    field, coeffs = OPERATOR_FIELDS[draw(st.sampled_from(
        sorted(OPERATOR_FIELDS)))]
    n = draw(st.integers(1, 3))

    def entry(density):
        if draw(st.integers(1, 4)) > density:
            return field.zero()
        return field.parse(draw(st.sampled_from(coeffs)))

    def bracket(density):
        sc = [[[field.zero()] * n for _ in range(n)] for _ in range(n)]
        for i, j in iproduct(range(n), repeat=2):
            if antisymmetric and i >= j:
                continue
            for k in range(n):
                sc[i][j][k] = entry(density)
                if antisymmetric:
                    sc[j][i][k] = -sc[i][j][k]
        # named basis: induce_from_rb keeps G's basis names
        return Algebra(field, n, sc, [f"x{i + 1}" for i in range(n)])

    g_density, r_density = draw(st.integers(0, 4)), draw(st.integers(0, 4))
    G = AlgebraPair(bracket(g_density), bracket(g_density))
    Rop = Matrix(field, [[entry(r_density) for _ in range(n)]
                         for _ in range(n)])
    return Rop, G


@settings(max_examples=80, deadline=None)
@given(bracket_pairs())
def test_rb_checks_match_oracles_on_antisymmetric_pairs(inputs):
    _rb_agrees_with_oracles(*inputs)


@settings(max_examples=60, deadline=None)
@given(bracket_pairs(antisymmetric=False))
def test_rb_converse_matches_oracle_on_any_pair(inputs):
    _converse_agrees_with_oracle(*inputs)


def test_rb_checks_match_oracles_on_all_gf5_maps():
    G = commutator_pair(gf5_pair("CA35", {"lambda": 1, "alpha": 2,
                                          "beta": 1}, branch=1))
    passed = sum(_rb_agrees_with_oracles(Rop, G) for Rop in all_maps(GF(5)))
    assert 1 < passed < 625


def test_rb_converse_matches_oracle_on_all_gf5_maps_of_any_pair():
    # the CA35 pair itself is not antisymmetric, so G's right
    # multiplications differ from the negated adjoint action
    G = gf5_pair("CA35", {"lambda": 1, "alpha": 2, "beta": 1}, branch=1)
    with pytest.raises(PreconditionError, match="antisymmetric"):
        check_anti_rota_baxter(Matrix.zero(GF(5), 2, 2), G)
    failing = 0
    for Rop in all_maps(GF(5)):
        _converse_agrees_with_oracle(Rop, G)
        failing += not check_rb_converse(Rop, G).passed
    assert 0 < failing < 625


def non_antisymmetric_pairs():
    # [e1, e2] = e1 but [e2, e1] = 0, in either member
    lop = Algebra.from_entries(QQ, 2, [(1, 2, 1, 1)])
    zero = Algebra.zero_algebra(QQ, 2)
    return [AlgebraPair(lop, zero), AlgebraPair(zero, lop)]


@pytest.mark.parametrize("G", non_antisymmetric_pairs())
def test_anti_rb_needs_antisymmetric_brackets(G):
    for rop in (Matrix.zero(QQ, 2, 2), Matrix.identity(QQ, 2)):
        for strong in (False, True):
            with pytest.raises(PreconditionError, match="antisymmetric"):
                check_anti_rota_baxter(rop, G, strong)
        with pytest.raises(PreconditionError, match="antisymmetric"):
            induce_from_rb(rop, G)
        # the converse condition takes any bracket pair
        _converse_agrees_with_oracle(rop, G)


@pytest.mark.parametrize("G", non_antisymmetric_pairs())
def test_cli_rb_exits_1_on_non_antisymmetric_brackets(G, tmp_path, capsys):
    from antiprelie.cli import main
    brackets = tmp_path / "g.alg.json"
    brackets.write_text(json.dumps(pair_to_json(G)))
    rop = tmp_path / "r.json"
    rop.write_text(json.dumps(Matrix.zero(QQ, 2, 2).to_json()))
    for argv in (["ops", "rb", "--strong"], ["ops", "rb"],
                 ["derive", "from-rb"]):
        code = main(argv + ["--map", str(rop), "--brackets", str(brackets)])
        out = capsys.readouterr()
        assert code == 1 and out.out == ""
        assert "precondition failed" in out.err


# ---------------------------------------------------------------------------
# The plain-value evaluator: reports equal the oracles', uncapped witness
# lists included; errors and the per-pair constants.
# ---------------------------------------------------------------------------

def dense_inputs(field, coeffs, n, m, seed):
    rng = random.Random(seed)

    def entry():
        return field.parse(rng.choice(coeffs))

    def table():
        return Algebra(field, n, [[[entry() for _ in range(n)]
                                   for _ in range(n)] for _ in range(n)])

    def matrix(rows, cols):
        return Matrix(field, [[entry() for _ in range(cols)]
                              for _ in range(rows)])

    R = RepresentationPair(AlgebraPair(table(), table()), m,
                           tuple(matrix(m, m) for _ in range(n)),
                           tuple(matrix(m, m) for _ in range(n)))
    return matrix(n, m), R


@pytest.mark.parametrize("kind", sorted(OPERATOR_FIELDS))
def test_dense_reports_cap_witnesses_like_the_oracles(kind):
    # dense inputs at n = m = 3 fail on all 18 anti-O residuals and on
    # more than 16 strong ones, past the witness cap
    field, coeffs = OPERATOR_FIELDS[kind]
    T, R = dense_inputs(field, coeffs, 3, 3, seed=5)
    new, old = check_anti_o(T, R), old_check_anti_o(T, R)
    assert new.failure_count > 16 and len(new.witnesses) == 16
    _same_report(new, old)
    strong = operators._failures(T, R, operators._strong_residuals,
                                 "strong_")
    assert len(strong) > 16
    assert strong == old_strong_failures(T, R)
    _same_report(make_report(strong), make_report(old_strong_failures(T, R)))


def test_strong_report_on_a_non_representation_past_the_cap():
    # the golden input: T projects V = k^3 onto g and is anti-O, but the
    # actions break the representation equations and T is not strong
    from antiprelie.representations import (check_representation_pair,
                                            load_representation_file)
    R = load_representation_file(str(GOLDEN / "strong-fails.rep.json"))
    T = Matrix.from_rows(GF(5), [[1, 0, 0], [0, 1, 0]])
    assert not check_representation_pair(R).passed
    assert check_anti_o(T, R).passed
    new, old = check_strong(T, R), old_check_strong(T, R)
    assert new.failure_count == 18
    _same_report(new, old)


def _zero_rep(field, n, m):
    g = AlgebraPair(Algebra.zero_algebra(field, n),
                    Algebra.zero_algebra(field, n))
    zero = Matrix.zero(field, m, m)
    return RepresentationPair(g, m, (zero,) * n, (zero,) * n)


@pytest.mark.parametrize("other", [GF(7), QQ, poly_ring(["s", "u"])])
def test_map_over_another_field_raises(other):
    R = left_multiplication_pair(gf5_pair("CA30", {"beta": 1, "gamma": 2}))
    G = commutator_pair(gf5_pair("CA30", {"beta": 1, "gamma": 2}))
    for T in (Matrix.zero(other, 2, 2), Matrix.identity(other, 2)):
        for check in (check_anti_o, check_strong, induce_on_domain,
                      induce_on_image):
            with pytest.raises(FieldMismatchError):
                check(T, R)
        for strong in (False, True):
            with pytest.raises(FieldMismatchError):
                check_anti_rota_baxter(T, G, strong)
        for construct in (check_rb_converse, induce_from_rb):
            with pytest.raises(FieldMismatchError):
                construct(T, G)


def test_map_of_the_wrong_shape_raises():
    R = _zero_rep(QQ, 2, 3)
    for T in (Matrix.zero(QQ, 3, 2), Matrix.zero(QQ, 2, 2),
              Matrix.zero(QQ, 2, 4)):
        for check in (check_anti_o, check_strong, induce_on_domain):
            with pytest.raises(ShapeMismatchError):
                check(T, R)
    assert check_strong(Matrix.zero(QQ, 2, 3), R).passed
    G = AlgebraPair(Algebra.zero_algebra(QQ, 2), Algebra.zero_algebra(QQ, 2))
    for check in (check_rb_converse, check_anti_rota_baxter, induce_from_rb):
        with pytest.raises(ShapeMismatchError):
            check(Matrix.zero(QQ, 2, 3), G)


def test_constants_are_built_once_per_pair(monkeypatch):
    built = []
    real = operators._build_constants
    monkeypatch.setattr(operators, "_build_constants",
                        lambda R: built.append(R) or real(R))
    pair = gf5_pair("CA30", {"beta": 1, "gamma": 2})
    R = left_multiplication_pair(pair)
    T = Matrix.from_rows(GF(5), [[0, 1], [0, 4]])
    assert check_anti_o(T, R).passed
    assert check_strong(T, R).passed
    induce_on_domain(T, R)
    induce_on_image(T, R)
    for S in all_maps(GF(5)):
        check_anti_o(S, R)
    assert len(built) == 1 and built[0] is R
    # the constants stay out of the dataclass: equality, hash and repr
    fresh = left_multiplication_pair(pair)
    assert R == fresh and hash(R) == hash(fresh) and repr(R) == repr(fresh)
    check_anti_o(T, fresh)
    assert len(built) == 2 and built[1] is fresh


# ---------------------------------------------------------------------------
# The swap identity: the rows (b, a) and (a, a) of the anti-O, strong and
# converse forms come from the rows a < b and R's symmetric tables.
# ---------------------------------------------------------------------------

def symmetric_tables(R):
    return operators._constants(R)[4]


def test_symmetric_tables_of_the_workload_pairs_are_empty():
    for name, assignment, branch in (
            ("CA30", {"beta": 1, "gamma": 2}, None),
            ("CA35", {"lambda": 1, "alpha": 2, "beta": 1}, 1),
            ("CA38", {"lambda": 1, "alpha": 1, "beta": 2}, 1)):
        pair = gf5_pair(name, assignment, branch)
        assert symmetric_tables(left_multiplication_pair(pair)) == [[], []]
        G = commutator_pair(pair)
        assert symmetric_tables(adjoint_pair(G)) == [[], []]


def test_symmetric_table_lists_the_nonzero_symmetric_part():
    # [e1, e2] = e1 and [e2, e1] = 0 in one bracket: the one entry
    # (k, i, j, c) = (0, 0, 1, 1); the other bracket is zero
    in_circ, in_star = non_antisymmetric_pairs()
    assert symmetric_tables(adjoint_pair(in_circ)) == [[(0, 0, 1, 1)], []]
    assert symmetric_tables(adjoint_pair(in_star)) == [[], [(0, 0, 1, 1)]]


def residue_sum_pair():
    # [e1, e2] = 2e1, [e2, e1] = 3e1 and [e1, e2] = e2, [e2, e1] = 4e2:
    # antisymmetric over GF(5), though the plain residues sum to 5
    f = GF(5)
    return AlgebraPair(
        Algebra.from_entries(f, 2, [(1, 2, 1, 2), (2, 1, 1, 3)], ["x1", "x2"]),
        Algebra.from_entries(f, 2, [(1, 2, 2, 1), (2, 1, 2, 4)], ["x1", "x2"]))


def test_residues_that_sum_to_p_leave_the_symmetric_table_empty():
    G = residue_sum_pair()
    assert symmetric_tables(adjoint_pair(G)) == [[], []]
    rng = random.Random(25)
    f = GF(5)
    maps = rng.sample(list(all_maps(f)), 120) + [Matrix.zero(f, 2, 2)]
    assert 0 < sum(_rb_agrees_with_oracles(Rop, G) for Rop in maps) < 121

    def matrix(rows, cols):
        return Matrix.from_rows(f, [[rng.randrange(5) for _ in range(cols)]
                                    for _ in range(rows)])

    # the same brackets with dense actions on V = k^3
    R = RepresentationPair(G, 3, tuple(matrix(3, 3) for _ in range(2)),
                           tuple(matrix(3, 3) for _ in range(2)))
    assert symmetric_tables(R) == [[], []]
    assert _agrees_with_oracles(Matrix.zero(f, 2, 3), R)
    for _ in range(40):
        _agrees_with_oracles(matrix(2, 3), R)


def test_an_undoubled_diagonal_keeps_the_gf2_square_bracket():
    # over GF(2), [e1, e1] = e1 passes the antisymmetry test, as
    # [e1, e1] + [e1, e1] = 0, but the rows (a, a) need it: the table
    # keeps [e_i, e_i]_k itself, not the sum of the two orders
    f = GF(2)
    bracket = Algebra.from_entries(f, 2, [(1, 1, 1, 1), (1, 2, 2, 1),
                                          (2, 1, 2, 1)], ["x1", "x2"])
    G = AlgebraPair(bracket, Algebra.zero_algebra(f, 2, ["x1", "x2"]))
    assert symmetric_tables(adjoint_pair(G)) == [[(0, 0, 0, 1)], []]
    assert 0 < sum(_rb_agrees_with_oracles(Rop, G)
                   for Rop in all_maps(f)) < 16


@pytest.mark.parametrize("kind", ["GF5", "Q"])
def test_dense_non_antisymmetric_checks_match_the_oracles_at_dim_5(kind):
    # past the hypothesis sizes: every bracket entry is random, so both
    # symmetric tables are full and every derived row carries them
    field, coeffs = OPERATOR_FIELDS[kind]
    T, R = dense_inputs(field, coeffs, 5, 5, seed=25)
    assert all(len(table) > 5 for table in symmetric_tables(R))
    _same_report(check_anti_o(T, R), old_check_anti_o(T, R))
    assert operators._failures(T, R, operators._anti_o_residuals,
                               "anti_o_") == old_anti_o_failures(T, R)
    assert operators._failures(T, R, operators._strong_residuals,
                               "strong_") == old_strong_failures(T, R)
    _converse_agrees_with_oracle(T, R.g)


def _leaves(x):
    return sum(map(_leaves, x)) if isinstance(x, (list, tuple)) else 1


def test_plain_constants_stay_linear_in_the_size_of_the_pair():
    # R's constants are O(n^3 + n m^2) values; tables per basis pair,
    # S_k + left[a] + A[b] for every (a, b, k), would hold
    # n m^2 (n^2 + 2 n m) = 98,304 values at n = m = 8
    n = m = 8
    T, R = dense_inputs(GF(5), ["1", "2", "3", "4"], n, m, seed=8)
    check_anti_o(T, R)
    assert all(symmetric_tables(R))
    assert _leaves(operators._constants(R)) <= 16 * (n ** 3 + n * m * m)


# ---------------------------------------------------------------------------
# induce_from_invertible refuses a polynomial map past the adjugate limit
# before it expands any determinant.
# ---------------------------------------------------------------------------

GOLDEN_REP8 = str(GOLDEN / "zero8-poly.rep.json")
GOLDEN_MAP8 = str(GOLDEN / "unimodular8-poly.map.json")


def _no_cofactor_expansion(monkeypatch):
    monkeypatch.setattr(Matrix, "_det_cofactor", lambda *a: pytest.fail(
        "cofactor expansion started"))


def test_induce_from_invertible_refuses_large_polynomial_map_first(
        monkeypatch):
    from antiprelie.linalg import MAX_COFACTOR_DIM
    from antiprelie.representations import load_representation_file
    R = load_representation_file(GOLDEN_REP8)
    T = Matrix.from_json(json.loads(Path(GOLDEN_MAP8).read_text()), R.field)
    assert T.rows == MAX_COFACTOR_DIM
    _no_cofactor_expansion(monkeypatch)
    with pytest.raises(BudgetExceededError, match="adjugate"):
        induce_from_invertible(T, R)


def test_cli_from_invertible_exits_2_on_large_polynomial_map(monkeypatch,
                                                            capsys):
    from antiprelie.cli import main
    _no_cofactor_expansion(monkeypatch)
    assert main(["derive", "from-invertible", "--rep", GOLDEN_REP8,
                 "--map", GOLDEN_MAP8]) == 2
    out = capsys.readouterr()
    assert out.out == "" and "adjugate" in out.err


def test_induce_from_invertible_messages_below_the_limit():
    ring = poly_ring(["x"])
    x, zero, one = ring.variable("x"), ring.zero(), ring.one()
    R = _zero_rep(ring, 2, 2)
    with pytest.raises(NotInvertibleError, match="T is singular"):
        induce_from_invertible(Matrix(ring, [[x, x], [x, x]]), R)
    with pytest.raises(NotInvertibleError,
                       match="x involves non-unit variable 'x'"):
        induce_from_invertible(Matrix(ring, [[x, zero], [zero, one]]), R)


def test_induce_from_invertible_names_a_singular_map_first():
    R = left_multiplication_pair(gf5_pair("CA30", {"beta": 1, "gamma": 2}))
    T = next(T for T in all_maps(GF(5))
             if T.det().is_zero() and not check_anti_o(T, R).passed)
    with pytest.raises(NotInvertibleError, match="T is singular"):
        induce_from_invertible(T, R)


def test_induce_from_invertible_checks_anti_o_before_a_non_unit_det():
    # det T = x is no unit of Z[x], and T is not anti-O on ad(g)
    ring = poly_ring(["x"])
    x, zero, one = ring.variable("x"), ring.zero(), ring.one()
    lie = Algebra.from_entries(ring, 2, [(1, 2, 1, 1), (2, 1, 1, -1)])
    R = adjoint_pair(AlgebraPair(lie, lie))
    T = Matrix(ring, [[x, zero], [zero, one]])
    assert not check_anti_o(T, R).passed
    with pytest.raises(PreconditionError, match="not an anti-O-operator"):
        induce_from_invertible(T, R)


def test_induce_from_invertible_takes_no_det_of_an_invertible_map(
        monkeypatch, rng):
    monkeypatch.setattr(Matrix, "det", lambda self: pytest.fail(
        "det computed"))
    for R, field in ((left_multiplication_pair(
            gf5_pair("CA30", {"beta": 1, "gamma": 2})), GF(5)),
            (left_multiplication_pair(random_instance("CA10", rng)), QQ)):
        out = induce_from_invertible(Matrix.identity(field, 2), R)
        assert out.dim == 2
