from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiprelie import (GF, QQ, Algebra, AlgebraPair, Matrix,
                        PreconditionError, RepresentationPair, adjoint_pair,
                        check_compatible_lie, check_equivalence,
                        check_representation_pair,
                        commutator_pair, dual_pair, get_family, instantiate,
                        left_multiplication_pair, representation_from_json,
                        poly_ring, representation_to_json,
                        semidirect_product)
from antiprelie.algebra import make_report
from conftest import random_instance

CA_SAMPLE = ["CA5", "CA10", "CA17", "CA26", "CA27", "CA30", "CA35", "CA38",
             "CA41", "CA44", "CA45"]


def zero_rep(g: AlgebraPair, m: int) -> RepresentationPair:
    z = Matrix.zero(g.field, m, m)
    return RepresentationPair(g, m, (z,) * g.dim, (z,) * g.dim)


def bracket_pair(entries1, entries2, field=QQ, dim=2) -> AlgebraPair:
    def anti(entries):
        full = []
        for i, j, k, c in entries:
            full.append((i, j, k, c))
            full.append((j, i, k, -c))
        return Algebra.from_entries(field, dim, full)
    return AlgebraPair(anti(entries1), anti(entries2))


def test_zero_representation_passes(rng):
    pair = random_instance("CA30", rng)
    g = commutator_pair(pair)
    assert check_representation_pair(zero_rep(g, 3)).passed


def test_left_multiplication_pair_of_catalog_instances(rng):
    for name in CA_SAMPLE:
        pair = random_instance(name, rng)
        rep = left_multiplication_pair(pair)
        assert check_representation_pair(rep).passed, name


def test_left_multiplication_zero_products():
    zero = Algebra.zero_algebra(QQ, 2)
    rep = left_multiplication_pair(AlgebraPair(zero, zero))
    assert all(m.is_zero() for m in rep.rho + rep.mu)


def test_left_multiplication_ca5_entry():
    pair = instantiate(get_family("CA5"))
    rep = left_multiplication_pair(pair)
    # e2 . e1 = -e1, so -L_circ(e2) sends e1 to +e1
    assert rep.rho[1].entries[0][0] == QQ.one()


def test_adjoint_pair_zero_brackets():
    zero = Algebra.zero_algebra(QQ, 2)
    rep = adjoint_pair(AlgebraPair(zero, zero))
    assert all(m.is_zero() for m in rep.rho + rep.mu)


def test_adjoint_antisymmetry_entry():
    G = bracket_pair([(1, 2, 1, 1)], [])
    rep = adjoint_pair(G)
    # ad_1(e2) e1 = [e2, e1] = -e1
    assert rep.rho[1].entries[0][0] == QQ.scalar(-1)


def test_adjoint_pair_of_catalog_brackets(rng):
    pair = random_instance("CA35", rng)
    rep = adjoint_pair(commutator_pair(pair))
    assert check_representation_pair(rep).passed


def test_rep_with_dropped_mu_fails_eq3():
    G = bracket_pair([(1, 2, 1, 1)], [(1, 2, 2, 1)])
    ad = adjoint_pair(G)
    z = Matrix.zero(QQ, 2, 2)
    broken = RepresentationPair(G, 2, ad.rho, (z, z))
    rep = check_representation_pair(broken)
    assert not rep.passed
    # the mixed equation is the one that breaks (computed, then pinned)
    assert {w.identity for w in rep.witnesses} == {"rep_eq_3"}


def test_dual_pair_zero_and_transpose():
    G = bracket_pair([(1, 2, 1, 1)], [])
    z = Matrix.zero(QQ, 2, 2)
    single = Matrix.from_rows(QQ, [[0, 1], [0, 0]])
    rep = RepresentationPair(G, 2, (single, z), (z, z))
    d = dual_pair(rep)
    assert d.rho[0] == Matrix.from_rows(QQ, [[0, 0], [-1, 0]])


def test_dual_pair_involution(rng):
    rep = left_multiplication_pair(random_instance("CA27", rng))
    assert dual_pair(dual_pair(rep)).rho == rep.rho


def _random_valid_rep_gf5(rng):
    """Conjugate a catalog-derived representation by a random invertible
    map; the defining equations are preserved."""
    f = GF(5)
    name = rng.choice(CA_SAMPLE)
    pair = random_instance(name, rng, prime=5)
    rep = rng.choice([left_multiplication_pair(pair),
                      adjoint_pair(commutator_pair(pair)),
                      dual_pair(left_multiplication_pair(pair))])
    while True:
        phi = Matrix.from_rows(f, [[rng.randrange(5) for _ in range(2)]
                                   for _ in range(2)])
        if not phi.det().is_zero():
            break
    inv = phi.inverse()
    rho = tuple(phi @ m @ inv for m in rep.rho)
    mu = tuple(phi @ m @ inv for m in rep.mu)
    return RepresentationPair(rep.g, rep.v_dim, rho, mu)


def test_dual_preserves_validity_random(rng):
    for _ in range(50):
        rep = _random_valid_rep_gf5(rng)
        assert check_representation_pair(rep).passed
        assert check_representation_pair(dual_pair(rep)).passed


def test_semidirect_zero_inputs():
    zero = Algebra.zero_algebra(QQ, 2)
    g = AlgebraPair(zero, zero)
    out = semidirect_product(zero_rep(g, 2))
    assert out.dim == 4
    assert out.circ.is_zero() and out.star.is_zero()


def test_semidirect_rejects_non_representation():
    G = bracket_pair([(1, 2, 1, 1)], [(1, 2, 2, 1)])
    ad = adjoint_pair(G)
    z = Matrix.zero(QQ, 2, 2)
    broken = RepresentationPair(G, 2, ad.rho, (z, z))
    with pytest.raises(PreconditionError):
        semidirect_product(broken)


def test_semidirect_random_valid_inputs(rng):
    # abelian base with commuting diagonal actions is always valid
    zero2 = Algebra.zero_algebra(QQ, 2)
    g = AlgebraPair(zero2, zero2)
    for _ in range(50):
        def diag():
            return Matrix.from_rows(
                QQ, [[rng.randint(-2, 2), 0], [0, rng.randint(-2, 2)]])
        rep = RepresentationPair(g, 2, (diag(), diag()), (diag(), diag()))
        assert check_representation_pair(rep).passed
        out = semidirect_product(rep)
        assert check_compatible_lie(out).passed


def test_semidirect_catalog_duals(rng):
    for name in ("CA10", "CA30", "CA44"):
        pair = random_instance(name, rng)
        rep = dual_pair(left_multiplication_pair(pair))
        out = semidirect_product(rep)
        assert check_compatible_lie(out).passed
        # block bookkeeping: the g x g corner reproduces the brackets
        g = commutator_pair(pair)
        for i in range(2):
            for j in range(2):
                for k in range(2):
                    assert out.circ.sc[i][j][k] == g.circ.sc[i][j][k]


def test_check_equivalence_identity_and_zero(rng):
    rep = left_multiplication_pair(random_instance("CA26", rng))
    eye = Matrix.identity(QQ, 2)
    assert check_equivalence(rep, rep, eye).passed
    zero = Matrix.zero(QQ, 2, 2)
    res = check_equivalence(rep, rep, zero)
    assert not res.passed
    assert any(w.identity == "invertible" for w in res.witnesses)


def test_adjoint_validity_iff_compatible_lie(rng):
    f = GF(5)
    agree = 0
    for _ in range(100):
        def rand_anti():
            entries = []
            for i in range(1, 4):
                for j in range(i + 1, 4):
                    for k in range(1, 4):
                        c = rng.randrange(5)
                        if c:
                            entries.append((i, j, k, c))
                            entries.append((j, i, k, -c))
            return Algebra.from_entries(f, 3, entries)
        G = AlgebraPair(rand_anti(), rand_anti())
        lhs = check_representation_pair(adjoint_pair(G)).passed
        rhs = check_compatible_lie(G).passed
        assert lhs == rhs
        agree += 1
    assert agree == 100


def test_representation_json_round_trip(rng):
    rep = dual_pair(left_multiplication_pair(random_instance("CA38", rng)))
    blob = representation_to_json(rep)
    back = representation_from_json(blob)
    assert back.rho == rep.rho and back.mu == rep.mu
    assert back.g == rep.g


# ---------------------------------------------------------------------------
# oracle: the former body, the three equations written out by hand
# ---------------------------------------------------------------------------

def _flat(mat):
    return [x for row in mat.entries for x in row]


def old_check_representation_pair(R):
    n = R.g.dim
    b1, b2 = R.g.circ.sc, R.g.star.sc
    failures = []
    for i in range(n):
        for j in range(n):
            lhs1 = R.rho_of(b1[i][j])
            rhs1 = R.rho[i] @ R.rho[j] - R.rho[j] @ R.rho[i]
            if not (lhs1 - rhs1).is_zero():
                failures.append(("rep_eq_1", (i, j), _flat(lhs1 - rhs1)))
            lhs2 = R.mu_of(b2[i][j])
            rhs2 = R.mu[i] @ R.mu[j] - R.mu[j] @ R.mu[i]
            if not (lhs2 - rhs2).is_zero():
                failures.append(("rep_eq_2", (i, j), _flat(lhs2 - rhs2)))
            lhs3 = R.rho_of(b2[i][j]) + R.mu_of(b1[i][j])
            rhs3 = (R.rho[i] @ R.mu[j] - R.rho[j] @ R.mu[i]
                    + R.mu[i] @ R.rho[j] - R.mu[j] @ R.rho[i])
            if not (lhs3 - rhs3).is_zero():
                failures.append(("rep_eq_3", (i, j), _flat(lhs3 - rhs3)))
    return make_report(failures)


LAURENT = poly_ring(["s", "u"], units=["u"])
REP_FIELDS = {
    "Q": (QQ, ["1", "-1", "2", "1/2", "-3"]),
    "GF5": (GF(5), ["1", "2", "3", "4"]),
    "laurent": (LAURENT, ["1", "-1", "s", "u^-1", "s*u-2", "2*u"]),
}


@st.composite
def rep_pairs(draw, fields=tuple(sorted(REP_FIELDS))):
    """Random representation pairs, dim g and dim V from 1 to 3: density 0
    gives the zero pair (passing), antisymmetric brackets with zero
    actions pass too, denser ones mostly fail."""
    field, coeffs = REP_FIELDS[draw(st.sampled_from(fields))]
    n, m = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    density = draw(st.integers(0, 4))
    act_density = draw(st.sampled_from((0, density)))

    def coeff(dens):
        if draw(st.integers(1, 4)) > dens:
            return field.zero()
        return field.parse(draw(st.sampled_from(coeffs)))

    def bracket():
        sc = [[[field.zero()] * n for _ in range(n)] for _ in range(n)]
        for i, j, k in iproduct(range(n), repeat=3):
            if i < j:
                c = coeff(density)
                sc[i][j][k], sc[j][i][k] = c, -c
        return Algebra(field, n, sc)

    def mats():
        return tuple(Matrix(field, [[coeff(act_density) for _ in range(m)]
                                    for _ in range(m)]) for _ in range(n))
    return RepresentationPair(AlgebraPair(bracket(), bracket()), m, mats(),
                              mats())


@settings(max_examples=80, deadline=None)
@given(rep_pairs())
def test_representation_check_matches_oracle(R):
    assert check_representation_pair(R).to_json() == \
        old_check_representation_pair(R).to_json()


@pytest.mark.parametrize("name", CA_SAMPLE)
def test_representation_check_matches_oracle_on_catalog(name, rng):
    for prime in (None, 5):
        pair = random_instance(name, rng, prime=prime)
        for rep in (left_multiplication_pair(pair),
                    adjoint_pair(commutator_pair(pair)),
                    dual_pair(left_multiplication_pair(pair)),
                    RepresentationPair(pair, 2, left_multiplication_pair(
                        pair).rho, left_multiplication_pair(pair).rho)):
            new = check_representation_pair(rep)
            assert new.to_json() == old_check_representation_pair(
                rep).to_json()


def _pencil_rep_satisfies_eq1(R, k1, k2):
    """rho_k([x,y]_k) = [rho_k(x), rho_k(y)] on basis pairs, for
    rho_k = k1 rho + k2 mu and [,]_k = k1 [,]_1 + k2 [,]_2."""
    n = R.g.dim
    act = [R.rho[i].scale(k1) + R.mu[i].scale(k2) for i in range(n)]
    for i, j in iproduct(range(n), repeat=2):
        br = [k1 * x + k2 * y
              for x, y in zip(R.g.circ.sc[i][j], R.g.star.sc[i][j])]
        lhs = Matrix.zero(R.field, R.v_dim, R.v_dim)
        for c, mat in zip(br, act):
            lhs = lhs + mat.scale(c)
        if not (lhs - (act[i] @ act[j] - act[j] @ act[i])).is_zero():
            return False
    return True


@settings(max_examples=60, deadline=None)
@given(rep_pairs(fields=("GF5",)))
def test_representation_pair_iff_every_pencil_satisfies_eq1(R):
    f = GF(5)
    expected = all(_pencil_rep_satisfies_eq1(R, f.scalar(k1), f.scalar(k2))
                   for k1, k2 in iproduct(range(5), repeat=2))
    assert check_representation_pair(R).passed == expected


def test_pencil_polarization_on_valid_gf5_reps(rng):
    f = GF(5)
    for _ in range(10):
        rep = _random_valid_rep_gf5(rng)
        assert all(_pencil_rep_satisfies_eq1(rep, f.scalar(k1), f.scalar(k2))
                   for k1, k2 in iproduct(range(5), repeat=2))
