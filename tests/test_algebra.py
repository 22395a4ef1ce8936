import json
import random
from dataclasses import replace
from functools import lru_cache
from itertools import product as iproduct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiprelie import (GF, QQ, Algebra, AlgebraPair, FieldMismatchError,
                        ParseError, algebra_from_json, algebra_to_json,
                        cast_pair, check_compatible_associative,
                        check_compatible_lie, check_compatible_pair,
                        check_identity, commutator, get_family, instantiate,
                        multiply, pair_to_json, pencil, poly_ring)
import antiprelie.algebra as algebra
from antiprelie.algebra import (MAX_DIM, MAX_WITNESSES, _vadd, _vec_is_zero,
                                _vsub,
                                anti_pre_lie_residuals, make_report,
                                merge_reports, mixed_pair_residuals)
from conftest import rand_fraction, random_instance

A5 = Algebra.from_entries(QQ, 2, [(1, 1, 2, -1), (2, 1, 1, -1)])
A2 = Algebra.from_entries(QQ, 2, [(1, 1, 1, 1)])
A3 = Algebra.from_entries(QQ, 2, [(1, 1, 2, 1)])


def vec(field, *vals):
    return [field.scalar(v) for v in vals]


def test_multiply_on_basis():
    out = multiply(A5, vec(QQ, 1, 0), vec(QQ, 1, 0))
    assert [x.value for x in out] == [0, -1]          # e1.e1 = -e2


def test_multiply_zero_absorbs():
    out = multiply(A5, vec(QQ, 2, 3), vec(QQ, 0, 0))
    assert all(x.is_zero() for x in out)


def test_multiply_family_entry():
    lamring = poly_ring(["lambda"])
    a6 = Algebra.from_entries(lamring, 2,
                              [(2, 1, 1, -1), (2, 2, 2, "lambda")])
    out = multiply(a6, vec(lamring, 0, 1), vec(lamring, 0, 1))
    assert out[0].is_zero() and out[1] == lamring.variable("lambda")


def test_multiply_shape_errors():
    with pytest.raises(Exception):
        multiply(A5, vec(QQ, 1), vec(QQ, 1, 0))


def test_commutator_a6():
    lamring = poly_ring(["lambda"])
    a6 = Algebra.from_entries(lamring, 2,
                              [(2, 1, 1, -1), (2, 2, 2, "lambda")])
    br = commutator(a6)
    out = multiply(br, vec(lamring, 0, 1), vec(lamring, 1, 0))
    assert out[0] == lamring.scalar(-1) and out[1].is_zero()  # [e2,e1] = -e1


def test_commutator_a5():
    br = commutator(A5)
    out = multiply(br, vec(QQ, 1, 0), vec(QQ, 0, 1))
    assert [x.value for x in out] == [1, 0]           # [e1,e2] = e1


def test_commutator_of_commutative_is_zero():
    comm = Algebra.from_entries(QQ, 2, [(1, 1, 1, 1), (1, 2, 1, 1),
                                        (2, 1, 1, 1)])
    assert commutator(comm).is_zero()


def test_pencil_degenerate_cases():
    P = AlgebraPair(A5, A2)
    assert pencil(P, 1, 0) == A5
    assert pencil(P, 0, 0).is_zero()


def test_pencil_symbolic_linear():
    ring = poly_ring(["k1", "k2"])
    P = cast_pair(AlgebraPair(A5, A2), ring)
    k1, k2 = ring.variable("k1"), ring.variable("k2")
    star = pencil(P, k1, k2)
    assert star.sc[0][0][0] == k2          # e1.e1 picks up k2 * A2-part
    assert star.sc[0][0][1] == -k1


def test_check_identity_a5_anti_pre_lie():
    assert check_identity(A5, "anti_pre_lie").passed


def test_check_identity_zero_algebra():
    zero = Algebra.zero_algebra(QQ, 3)
    for kind in ("anti_pre_lie", "pre_lie", "jacobi", "associative",
                 "commutative"):
        assert check_identity(zero, kind).passed


def test_check_identity_sign_flips_stay_anti_pre_lie():
    # flipping the sign of either A5 entry lands on an isomorphic copy
    for entries in ([(1, 1, 2, 1), (2, 1, 1, -1)],
                    [(1, 1, 2, -1), (2, 1, 1, 1)]):
        assert check_identity(Algebra.from_entries(QQ, 2, entries),
                              "anti_pre_lie").passed


def test_check_identity_modified_a5_fails_with_witness():
    # retargeting e1.e1 from -e2 to -e1 breaks the first identity at
    # the triple (e1, e2, e1); pinned by independent expansion
    bad = Algebra.from_entries(QQ, 2, [(1, 1, 1, -1), (2, 1, 1, -1)])
    rep = check_identity(bad, "anti_pre_lie")
    assert not rep.passed
    assert rep.failure_count > 0
    assert rep.witnesses[0].identity == "anti_pre_lie_1"
    assert rep.witnesses[0].indices == (0, 1, 0)


def test_jacobi_reports_antisymmetry_violation():
    rep = check_identity(A2, "jacobi")
    assert not rep.passed
    assert any(w.identity == "antisymmetric" for w in rep.witnesses)


def test_dim1_commutative_passes_everything():
    one = Algebra.from_entries(QQ, 1, [(1, 1, 1, 1)])
    for kind in ("anti_pre_lie", "pre_lie", "associative", "commutative"):
        assert check_identity(one, kind).passed
    half = Algebra.from_entries(QQ, 1, [(1, 1, 1, "1/2")])
    assert check_compatible_pair(AlgebraPair(one, half)).passed


def test_compatible_pair_ca26():
    pair = instantiate(get_family("CA26"), {"beta": 1})
    assert check_compatible_pair(pair).passed


def test_compatible_pair_zero_star():
    P = AlgebraPair(A5, Algebra.zero_algebra(QQ, 2))
    assert check_compatible_pair(P).passed


def test_compatible_pair_a2_a3_products():
    # both commutative, so compatibility reduces to the associative case,
    # which holds; pinned by independent expansion
    P = AlgebraPair(A2, A3)
    assert check_compatible_pair(P).passed
    assert check_compatible_associative(P).passed


def test_compatible_pair_failure_has_witness():
    # star = pre-Lie-but-not-anti-pre-Lie product e1*e1 = e1+e2, e2*e1 = e1
    bad = Algebra.from_entries(QQ, 2, [(1, 1, 1, 1), (1, 1, 2, 1),
                                       (2, 1, 1, 1)])
    P = AlgebraPair(A5, bad)
    rep = check_compatible_pair(P)
    assert not rep.passed and rep.witnesses


def test_compatible_lie_dim2_automatic():
    rng = random.Random(5)
    for _ in range(10):
        def rand_bracket():
            c = rand_fraction(rng)
            return Algebra.from_entries(
                QQ, 2, [(1, 2, 1, c), (2, 1, 1, -c),
                        (1, 2, 2, rand_fraction(rng))])
        b1 = rand_bracket()
        sc = [[[b1.sc[i][j][k] - b1.sc[j][i][k] for k in range(2)]
               for j in range(2)] for i in range(2)]
    # any two antisymmetric dim-2 brackets form a compatible Lie pair
    x, y = rand_fraction(rng), rand_fraction(rng)
    b1 = Algebra.from_entries(QQ, 2, [(1, 2, 1, x), (2, 1, 1, -x)])
    b2 = Algebra.from_entries(QQ, 2, [(1, 2, 2, y), (2, 1, 2, -y)])
    assert check_compatible_lie(AlgebraPair(b1, b2)).passed


def test_compatible_lie_sl2_type_vs_solvable_fails():
    # bracket1: [e1,e2]=e3, [e2,e3]=e1, [e3,e1]=e2; bracket2: [e1,e2]=e1
    b1 = Algebra.from_entries(QQ, 3, [(1, 2, 3, 1), (2, 1, 3, -1),
                                      (2, 3, 1, 1), (3, 2, 1, -1),
                                      (3, 1, 2, 1), (1, 3, 2, -1)])
    b2 = Algebra.from_entries(QQ, 3, [(1, 2, 1, 1), (2, 1, 1, -1)])
    assert check_identity(b1, "jacobi").passed
    assert check_identity(b2, "jacobi").passed
    rep = check_compatible_lie(AlgebraPair(b1, b2))
    assert not rep.passed   # pinned by expanding the (e1,e2,e3) triple


def test_compatible_lie_equal_brackets():
    b1 = Algebra.from_entries(QQ, 2, [(1, 2, 1, 1), (2, 1, 1, -1)])
    assert check_compatible_lie(AlgebraPair(b1, b1)).passed


def test_compatible_associative_trivial_and_a2():
    zero = Algebra.zero_algebra(QQ, 2)
    assert check_compatible_associative(AlgebraPair(zero, zero)).passed
    assert check_compatible_associative(AlgebraPair(A2, A2)).passed


def test_commutative_pair_equivalence_sample(rng):
    # commutative pairs: compatible anti-pre-Lie iff compatible associative
    f = GF(5)
    for _ in range(100):
        def rand_comm():
            entries = []
            for i in range(1, 3):
                for j in range(i, 3):
                    for k in range(1, 3):
                        c = rng.randrange(5)
                        if c:
                            entries.append((i, j, k, c))
                            if i != j:
                                entries.append((j, i, k, c))
            return Algebra.from_entries(f, 2, entries)
        P = AlgebraPair(rand_comm(), rand_comm())
        assert check_compatible_pair(P).passed == \
            check_compatible_associative(P).passed


def test_pencil_soundness_random_coefficients(rng):
    # random rational (k1,k2) pencils of verified catalog pairs stay
    # anti-pre-Lie
    names = ["CA10", "CA17", "CA27", "CA30", "CA35", "CA38", "CA41", "CA45"]
    count = 0
    while count < 50:
        name = rng.choice(names)
        pair = random_instance(name, rng)
        star = pencil(pair, rand_fraction(rng), rand_fraction(rng))
        assert check_identity(star, "anti_pre_lie").passed
        count += 1


def test_witness_cap():
    # a thoroughly broken pair floods the report; at most 16 witnesses kept
    bad = Algebra.from_entries(QQ, 2, [(1, 1, 1, 1), (1, 2, 1, 1),
                                       (2, 1, 2, 1), (2, 2, 1, 1)])
    rep = check_identity(bad, "anti_pre_lie")
    assert not rep.passed
    assert len(rep.witnesses) <= 16
    assert rep.failure_count >= len(rep.witnesses)


def test_compatible_checkers_keep_member_failure_count():
    # paired with the zero product the mixed conditions vanish, so each
    # checker reports the member's own count, past the 16-witness limit
    f = GF(5)
    A = Algebra.from_entries(f, 3, [
        (1, 1, 3, 2), (1, 2, 1, 4), (1, 2, 3, 4), (1, 3, 2, 3),
        (2, 2, 3, 1), (2, 3, 1, 4), (2, 3, 2, 3), (2, 3, 3, 2),
        (3, 1, 1, 2), (3, 3, 3, 3)])
    P = AlgebraPair(A, Algebra.zero_algebra(f, 3))
    assert check_compatible_pair(P).failure_count == 24
    for checker, kind, prefix in (
            (check_compatible_pair, "anti_pre_lie", "circ_"),
            (check_compatible_lie, "jacobi", "bracket1_"),
            (check_compatible_associative, "associative", "prod1_")):
        own = check_identity(A, kind)
        rep = checker(P)
        assert rep.failure_count == own.failure_count > 16
        assert [w.identity for w in rep.witnesses] == \
            [prefix + w.identity for w in own.witnesses]
        assert [(w.indices, w.residual) for w in rep.witnesses] == \
            [(w.indices, w.residual) for w in own.witnesses]
        assert len(rep.witnesses) == 16


def test_json_round_trip():
    pair = instantiate(get_family("CA38"),
                       {"lambda": 2, "alpha": 1, "beta": -2}, branch=1)
    blob = pair_to_json(pair)
    circ, star = algebra_from_json(json.loads(json.dumps(blob)))
    assert circ == pair.circ and star == pair.star


def test_json_single_algebra():
    blob = algebra_to_json(A5)
    circ, star = algebra_from_json(blob)
    assert circ == A5 and star is None


def test_json_rejects_malformed():
    with pytest.raises(ParseError):
        algebra_from_json({"dim": 2})
    with pytest.raises(ParseError):
        algebra_from_json({"dim": 2, "field": {"kind": "Q"},
                           "products": {"circ": [[1, 1, 2]]}})


def test_field_mismatch_in_pair():
    with pytest.raises(FieldMismatchError):
        AlgebraPair(A5, Algebra.zero_algebra(GF(5), 2))


def test_json_dim_limit():
    blob = {"dim": MAX_DIM, "field": {"kind": "GF", "p": 2},
            "products": {"circ": [[MAX_DIM, MAX_DIM, 1, "1"]]}}
    circ, _ = algebra_from_json(blob)
    assert circ.dim == MAX_DIM
    with pytest.raises(ParseError, match="exceeds"):
        algebra_from_json({**blob, "dim": MAX_DIM + 1})


# ---------------------------------------------------------------------------
# oracles: the checkers' former bodies, which multiply basis vectors
# ---------------------------------------------------------------------------

def _basis(A):
    return [[A.field.one() if t == i else A.field.zero()
             for t in range(A.dim)] for i in range(A.dim)]


def old_anti_pre_lie_residuals(A):
    n = A.dim
    e = _basis(A)
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


def old_check_identity(A, kind):
    n = A.dim
    e = _basis(A)
    failures = []
    if kind == "commutative":
        for i, j in iproduct(range(n), repeat=2):
            r = _vsub(multiply(A, e[i], e[j]), multiply(A, e[j], e[i]))
            if not _vec_is_zero(r):
                failures.append(("commutative", (i, j), r))
        return make_report(failures)
    if kind == "anti_pre_lie":
        return make_report([(name, idx, r) for name, idx, r
                            in old_anti_pre_lie_residuals(A)
                            if not _vec_is_zero(r)])
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
        elif kind == "jacobi":
            r = _vadd(multiply(A, multiply(A, x, y), z),
                      multiply(A, multiply(A, y, z), x),
                      multiply(A, multiply(A, z, x), y))
        else:
            r = _vsub(multiply(A, multiply(A, x, y), z),
                      multiply(A, x, multiply(A, y, z)))
        if not _vec_is_zero(r):
            failures.append((kind, (i, j, k), r))
    return make_report(failures)


def old_mixed_pair_residuals(P):
    C, S = P.circ, P.star
    n = P.dim
    e = _basis(C)
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


def _relabel(report, prefix):
    """Prefix every witness's identity with the member's name, keeping the
    member's full failure count and witness order."""
    witnesses = tuple(replace(w, identity=prefix + w.identity)
                      for w in report.witnesses)
    return replace(report, witnesses=witnesses)


def old_check_compatible_lie(P):
    e = _basis(P.circ)
    failures = []
    for i, j, k in iproduct(range(P.dim), repeat=3):
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
    return merge_reports(
        _relabel(old_check_identity(P.circ, "jacobi"), "bracket1_"),
        _relabel(old_check_identity(P.star, "jacobi"), "bracket2_"),
        make_report(failures))


def old_check_compatible_associative(P):
    e = _basis(P.circ)
    failures = []
    for i, j, k in iproduct(range(P.dim), repeat=3):
        x, y, z = e[i], e[j], e[k]
        r = _vsub(
            _vadd(multiply(P.star, multiply(P.circ, x, y), z),
                  multiply(P.circ, multiply(P.star, x, y), z)),
            _vadd(multiply(P.circ, x, multiply(P.star, y, z)),
                  multiply(P.star, x, multiply(P.circ, y, z))))
        if not _vec_is_zero(r):
            failures.append(("compatible_assoc_mixed", (i, j, k), r))
    return merge_reports(
        _relabel(old_check_identity(P.circ, "associative"), "prod1_"),
        _relabel(old_check_identity(P.star, "associative"), "prod2_"),
        make_report(failures))


def old_check_compatible(P, kind, prefixes, mixed_name):
    """The three-call pair check: each member through check_identity on
    its own conversion, relabelled, then the mixed part on a third."""
    members = [_relabel(check_identity(A, kind), prefix)
               for A, prefix in zip((P.circ, P.star), prefixes)]
    mixed = algebra._residuals(kind, algebra._plain_tables(P.circ, P.star),
                               ((0, 1), (1, 0)), mixed_name, failing=True)
    return merge_reports(*members, make_report(mixed))


# each pair checker with its identity, member prefixes and mixed name
COMPATIBLE_CHECKS = (
    (check_compatible_pair, "anti_pre_lie", ("circ_", "star_"),
     "compatible_mixed"),
    (check_compatible_lie, "jacobi", ("bracket1_", "bracket2_"),
     "compatible_lie_mixed"),
    (check_compatible_associative, "associative", ("prod1_", "prod2_"),
     "compatible_assoc_mixed"))


def _pair_checks_agree(P):
    for check, *spec in COMPATIBLE_CHECKS:
        report = check(P)
        want = old_check_compatible(P, *spec)
        assert report == want and report.to_json() == want.to_json()


LAURENT = poly_ring(["s", "u"], units=["u"])
# several denominators per field, so that the plain values of a table sit
# on a common denominator
KERNEL_FIELDS = {
    "Q": (QQ, ["1", "-1", "2", "1/2", "-3", "-2/3", "5/7"]),
    "GF5": (GF(5), ["1", "-1", "2", "3", "4"]),
    "laurent": (LAURENT, ["1", "-1", "s", "u^-1", "s*u-2", "2*u", "s^2",
                          "1/2*s*u", "-3/4*u^2"]),
}


@st.composite
def kernel_pairs(draw):
    """Random pairs of tables with 0-4 nonzero entries in 4 (zero tables
    pass every check; denser ones mostly fail)."""
    field, coeffs = KERNEL_FIELDS[draw(st.sampled_from(sorted(KERNEL_FIELDS)))]
    n = draw(st.integers(1, 4))
    density = draw(st.integers(0, 4))

    def table():
        entries = [(i, j, k, draw(st.sampled_from(coeffs)))
                   for i, j, k in iproduct(range(1, n + 1), repeat=3)
                   if draw(st.integers(1, 4)) <= density]
        return Algebra.from_entries(field, n, entries)
    return AlgebraPair(table(), table())


def _kernel_agrees(P):
    A = P.circ
    assert anti_pre_lie_residuals(A) == old_anti_pre_lie_residuals(A)
    assert mixed_pair_residuals(P) == old_mixed_pair_residuals(P)
    for kind in ("anti_pre_lie", "pre_lie", "jacobi", "associative",
                 "commutative"):
        assert check_identity(A, kind) == old_check_identity(A, kind)
    assert check_compatible_lie(P) == old_check_compatible_lie(P)
    assert check_compatible_associative(P) == \
        old_check_compatible_associative(P)
    _pair_checks_agree(P)


@settings(max_examples=60, deadline=None)
@given(kernel_pairs())
def test_basis_aware_kernel_matches_multiply_oracle(P):
    _kernel_agrees(P)


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_basis_aware_kernel_matches_oracle_on_dense_dim5(name):
    """Every entry of both tables nonzero, cycling through the field's
    coefficients."""
    field, coeffs = KERNEL_FIELDS[name]
    tables = [Algebra.from_entries(field, 5, [
        (i, j, k, coeffs[(25 * i + 5 * j + k + shift) % len(coeffs)])
        for i, j, k in iproduct(range(1, 6), repeat=3)]) for shift in (0, 3)]
    _kernel_agrees(AlgebraPair(*tables))


@pytest.mark.parametrize("name", sorted(KERNEL_FIELDS))
def test_pair_checks_cap_witnesses_and_keep_member_counts(name):
    """Dense dim-3 pairs fail far more than MAX_WITNESSES times: the
    merged report keeps the first 16 witnesses in the order circ, star,
    mixed, and its count is the members' counts plus the mixed one."""
    field, coeffs = KERNEL_FIELDS[name]
    rng = random.Random(name)
    dense = [Algebra.from_entries(field, 3, [
        (i, j, k, rng.choice(coeffs))
        for i, j, k in iproduct(range(1, 4), repeat=3)]) for _ in range(2)]
    zero = Algebra.zero_algebra(field, 3)
    for P in (AlgebraPair(*dense), AlgebraPair(zero, dense[1]),
              AlgebraPair(dense[0], zero)):
        _pair_checks_agree(P)
        for check, kind, prefixes, mixed_name in COMPATIBLE_CHECKS:
            report = check(P)
            members = [check_identity(A, kind) for A in (P.circ, P.star)]
            mixed = algebra._residuals(
                kind, algebra._plain_tables(P.circ, P.star),
                ((0, 1), (1, 0)), mixed_name, failing=True)
            counts = [r.failure_count for r in members] + [len(mixed)]
            assert report.failure_count == sum(counts) > MAX_WITNESSES
            assert len(report.witnesses) == MAX_WITNESSES
            owners = [prefixes[0]] * counts[0] + [prefixes[1]] * counts[1] \
                + [mixed_name] * counts[2]
            assert [w.identity.startswith(owner) for w, owner
                    in zip(report.witnesses, owners)] == \
                [True] * MAX_WITNESSES


def test_algebra_refuses_off_field_entries():
    with pytest.raises(FieldMismatchError):
        Algebra(GF(5), 1, [[[QQ.one()]]])
    with pytest.raises(FieldMismatchError):
        Algebra(QQ, 1, [[[1]]])
    with pytest.raises(FieldMismatchError):
        Algebra(GF(5), 2, [[[GF(5).one(), GF(7).one()]] * 2] * 2)


@pytest.mark.parametrize("name", ["A6", "A8", "CA10", "CA26", "CA38"])
def test_basis_aware_kernel_matches_oracle_on_catalog(name):
    fam = get_family(name)
    P = fam.symbolic_pair(fam.branch_values[0] if fam.branch else None)
    assert check_compatible_pair(P).passed
    _kernel_agrees(P)


# ---------------------------------------------------------------------------
# polarization: a pair check passes exactly when every pencil does
# ---------------------------------------------------------------------------

F5 = GF(5)
PAIR_CHECKS = {"anti_pre_lie": check_compatible_pair,
               "jacobi": check_compatible_lie,
               "associative": check_compatible_associative}


@lru_cache(maxsize=1)
def _gf5_catalog_pairs():
    """Compatible pairs over GF(5) from the catalog, with their commutator
    pairs (compatible Lie)."""
    rng = random.Random(5)
    out = []
    for name in ("CA5", "CA10", "CA26", "CA30", "CA38", "CA44"):
        P = random_instance(name, rng, prime=5)
        out += [P, AlgebraPair(commutator(P.circ), commutator(P.star))]
    return tuple(out)


@st.composite
def gf5_pairs(draw):
    if draw(st.booleans()):
        return draw(st.sampled_from(_gf5_catalog_pairs()))
    n = draw(st.integers(1, 3))
    density = draw(st.integers(0, 3))

    def table():
        return Algebra.from_entries(F5, n, [
            (i, j, k, draw(st.integers(1, 4)))
            for i, j, k in iproduct(range(1, n + 1), repeat=3)
            if draw(st.integers(1, 8)) <= density])
    return AlgebraPair(table(), table())


@settings(max_examples=60, deadline=None)
@given(gf5_pairs())
def test_pair_checks_pass_iff_every_pencil_passes(P):
    for kind, check in PAIR_CHECKS.items():
        every = all(check_identity(pencil(P, k1, k2), kind).passed
                    for k1, k2 in iproduct(range(5), repeat=2))
        assert check(P).passed == every, kind
