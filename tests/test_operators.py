from itertools import product as iproduct

import pytest

from antiprelie import (GF, QQ, Algebra, AlgebraPair, Matrix,
                        NotInvertibleError, PreconditionError, adjoint_pair,
                        check_anti_o, check_anti_rota_baxter,
                        check_compatible_pair, check_identity,
                        check_rb_converse, check_strong, commutator_pair,
                        get_family, induce_from_rb, induce_from_invertible,
                        induce_on_domain, induce_on_image, instantiate,
                        left_multiplication_pair)
from conftest import random_instance


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
    assert T.rank() == 1
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
        if T.rank() != 2 or not check_anti_o(T, R).passed:
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
