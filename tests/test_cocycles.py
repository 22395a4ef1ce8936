import random
from fractions import Fraction
from itertools import product as iproduct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import antiprelie.cocycles as cocycles
from antiprelie import (GF, QQ, Algebra, AlgebraPair, BudgetExceededError,
                        ConstraintError, Deformation, Field,
                        FieldMismatchError, Matrix,
                        NotInvertibleError, ParseError,
                        PreconditionError, ShapeMismatchError, brute_force_Z2,
                        check_identity, check_step1_conditions, get_family,
                        instantiate, is_automorphism, linear_space,
                        transform_deformation, verify_family_membership,
                        poly_ring)
from antiprelie.algebra import (anti_pre_lie_residuals, cast_algebra,
                               make_report, mixed_pair_residuals)
from antiprelie.cocycles import (_linear_rows, _quadratic_coefficients,
                                 instantiate_family_gf)
from antiprelie.catalog import cocycle_cases_of, cocycle_families_of
from antiprelie.linalg import _vec_is_zero

LINEAR_DIMS = {
    ("A2", None): 5, ("A3", None): 6, ("A4", None): 4, ("A5", None): 4,
    ("A6", -2): 5, ("A6", -1): 4, ("A6", 0): 5, ("A6", 1): 4,
    ("A7", None): 4, ("A8", -2): 4, ("A8", 0): 5, ("A8", 1): 4,
    ("A9", None): 4,
}

Z2_COUNTS = {
    ("A2", None): 245, ("A3", None): 425, ("A4", None): 145,
    ("A5", None): 145, ("A6", -2): 225, ("A6", -1): 145, ("A6", 0): 245,
    ("A6", 1): 125, ("A7", None): 125, ("A8", -2): 145, ("A8", 0): 245,
    ("A8", 1): 125, ("A9", None): 125,
}


def base_algebra(name, lam=None, prime=None):
    fam = get_family(name)
    assignment = {"lambda": lam} if lam is not None else {}
    return instantiate(fam, assignment, prime=prime).circ


def test_step1_zero_and_self():
    base = base_algebra("A5")
    zero = Algebra.zero_algebra(QQ, 2)
    assert check_step1_conditions(Deformation(base, zero)).passed
    assert check_step1_conditions(Deformation(base, base)).passed


def test_step1_a2_family_instance():
    base = base_algebra("A2")
    phi = Algebra.from_entries(QQ, 2, [(1, 1, 1, 1), (1, 1, 2, 1),
                                       (2, 1, 1, 1), (1, 2, 1, 1),
                                       (2, 2, 2, 1)])
    assert check_step1_conditions(Deformation(base, phi)).passed


def test_step1_failure_reports_condition():
    base = base_algebra("A2")
    phi = Algebra.from_entries(QQ, 2, [(2, 1, 2, 1)])  # e2*e1 = e2
    rep = check_step1_conditions(Deformation(base, phi))
    assert not rep.passed
    assert all(w.identity.startswith("step1_") for w in rep.witnesses)


def old_check_step1_conditions(d):
    """The Step-1 check before it converted (base, phi) once: both
    residual passes over every triple, wrapped, then the zero rows
    dropped."""
    residuals = anti_pre_lie_residuals(d.phi) + \
        mixed_pair_residuals(AlgebraPair(d.base, d.phi))
    return make_report([(cocycles._STEP1_NAMES[name], idx, vec)
                        for name, idx, vec in residuals
                        if not _vec_is_zero(vec)])


STEP1_FIELDS = {
    "Q": (QQ, (-2, -1, 1, 3, Fraction(1, 2), Fraction(-2, 3))),
    "GF5": (GF(5), (1, 2, 3, 4)),
    "Laurent": (poly_ring(["x", "t"], units=["t"]),
                ("1", "-1", "x", "t^-1", "1/2*x-t", "x*t^-2+3/4")),
}


@st.composite
def step1_deformations(draw):
    """Deformations of dim 1-3 over Q, GF(5) and a Laurent ring, from
    empty to dense base and phi tables, phi sometimes zero or the base."""
    field, coeffs = STEP1_FIELDS[draw(st.sampled_from(sorted(STEP1_FIELDS)))]
    n = draw(st.integers(1, 3 if field.kind != "poly" else 2))

    def table():
        density = draw(st.integers(0, 4))
        return Algebra.from_entries(field, n, [
            (i, j, k, draw(st.sampled_from(coeffs)))
            for i, j, k in iproduct(range(1, n + 1), repeat=3)
            if draw(st.integers(1, 4)) <= density])
    base = table()
    phi = draw(st.sampled_from(["zero", "base", "other"]))
    phi = Algebra.zero_algebra(field, n) if phi == "zero" else \
        base if phi == "base" else table()
    return Deformation(base, phi)


@settings(max_examples=80, deadline=None)
@given(step1_deformations())
def test_step1_check_matches_the_two_pass_oracle(d):
    got, want = check_step1_conditions(d), old_check_step1_conditions(d)
    assert got == want
    assert got.to_json() == want.to_json()


def test_step1_check_matches_the_oracle_on_catalog_families(monkeypatch):
    """Every catalog family membership, and each family with one entry
    moved by one, reports as the oracle does."""
    from antiprelie.catalog import _cocycle_jobs
    real, verdicts = cocycles.check_step1_conditions, []

    def both(d):
        got = real(d)
        assert got == old_check_step1_conditions(d)
        assert got.to_json() == old_check_step1_conditions(d).to_json()
        verdicts.append(got.passed)
        return got
    monkeypatch.setattr(cocycles, "check_step1_conditions", both)
    jobs = list(_cocycle_jobs())
    for *_, base, phi in jobs:
        assert verify_family_membership(base, phi).passed
        sc = [[list(row) for row in plane] for plane in phi.sc]
        sc[1][0][1] = sc[1][0][1] + phi.field.one()
        verify_family_membership(base, Algebra(phi.field, phi.dim, sc))
    assert len(jobs) == 22 and len(verdicts) == 44
    assert not all(verdicts[1::2])


def test_linear_space_abelian_full():
    base = base_algebra("A1")
    assert len(linear_space(base)) == 8


@pytest.mark.parametrize("name,lam", sorted(LINEAR_DIMS, key=str))
def test_linear_space_dims_match_over_q_and_gf5(name, lam):
    dim_q = len(linear_space(base_algebra(name, lam)))
    dim_p = len(linear_space(base_algebra(name, lam, prime=5)))
    assert dim_q == dim_p == LINEAR_DIMS[(name, lam)]


def test_linear_space_contains_paper_families():
    # every instantiated family member solves the linear conditions:
    # membership in the span, checked by a rank argument over GF(5)
    base = base_algebra("A9", prime=5)
    basis = linear_space(base)
    f = GF(5)
    rows = [[d.sc[i][j][k] for i, j, k in iproduct(range(2), repeat=3)]
            for d in basis]
    rank0 = len(Matrix(f, rows).rref()[1])
    fam, = cocycle_families_of("A9")
    for flat in sorted(instantiate_family_gf(fam, 5))[:40]:
        stacked = rows + [[f.scalar(v) for v in flat]]
        assert len(Matrix(f, stacked).rref()[1]) == rank0


@pytest.mark.parametrize("name,lam", sorted(Z2_COUNTS, key=str))
def test_brute_force_counts(name, lam):
    base = base_algebra(name, lam, prime=5)
    sols = brute_force_Z2(base)
    assert len(sols) == Z2_COUNTS[(name, lam)]


def test_brute_force_output_sorted_and_closed():
    base = base_algebra("A7", prime=5)
    sols = brute_force_Z2(base)
    flats = [tuple(int(x.value) for x in d.flat()) for d in sols]
    assert flats == sorted(flats)
    for d in sols[::25]:
        assert check_step1_conditions(d).passed


def test_brute_force_abelian_gf2_matches_plain_enumeration():
    # over an abelian base the mixed conditions are vacuous, so the
    # solver must return exactly the anti-pre-Lie products
    f = GF(2)
    base = Algebra.zero_algebra(f, 2)
    sols = {tuple(int(x.value) for x in d.flat())
            for d in brute_force_Z2(base)}
    direct = set()
    for flat in iproduct(range(2), repeat=8):
        sc = [[[f.scalar(flat[(i * 2 + j) * 2 + k]) for k in range(2)]
               for j in range(2)] for i in range(2)]
        A = Algebra(f, 2, sc)
        if check_identity(A, "anti_pre_lie").passed:
            direct.add(flat)
    assert sols == direct


def test_brute_force_gf3_cross_check():
    # full agreement with the generic per-candidate checker over GF(3)
    f = GF(3)
    base = base_algebra("A6", 1, prime=3)
    sols = {tuple(int(x.value) for x in d.flat())
            for d in brute_force_Z2(base)}
    direct = set()
    for flat in iproduct(range(3), repeat=8):
        sc = [[[f.scalar(flat[(i * 2 + j) * 2 + k]) for k in range(2)]
               for j in range(2)] for i in range(2)]
        d = Deformation(base, Algebra(f, 2, sc))
        if check_step1_conditions(d).passed:
            direct.add(flat)
    assert sols == direct


def indeterminate_rows(A):
    """Oracle for the linear stage: the coefficient matrix of conditions
    iii-iv read off their polynomial residuals at the table with entry t_a
    at flat index a, over the base lifted to constants of
    Q[t_0, ..., t_{n^3-1}] (residues as the integers 0..p-1).  Every
    residual must be linear in the t_a with no constant term."""
    n = A.dim
    n3 = n ** 3
    ring = Field("poly", variables=[f"t{a}" for a in range(n3)])
    t = [ring.variable(v) for v in ring.variables]
    phi = Algebra(ring, n, [[[t[(i * n + j) * n + k] for k in range(n)]
                             for j in range(n)] for i in range(n)])
    base = Algebra(ring, n, [[[ring.scalar(x.value) for x in row]
                              for row in plane] for plane in A.sc])
    units = [tuple(int(b == a) for b in range(n3)) for a in range(n3)]
    polys = [x for _, _, vec in mixed_pair_residuals(AlgebraPair(base, phi))
             for x in vec]
    assert all(set(x.value) <= set(units) for x in polys)
    return Matrix.from_rows(A.field, [[x.value.get(u, 0) for u in units]
                                      for x in polys])


def old_linear_space(A):
    n = A.dim
    return [Algebra(A.field, n, [[[vec[(i * n + j) * n + k]
                                   for k in range(n)] for j in range(n)]
                                 for i in range(n)])
            for vec in indeterminate_rows(A).nullspace()]


LINEAR_FIELDS = {"Q": (QQ, (-2, -1, 1, 3, Fraction(1, 2), Fraction(-2, 3))),
                 "GF2": (GF(2), (1,)), "GF5": (GF(5), (1, 2, 3, 4)),
                 "GF7": (GF(7), (1, 3, 6))}


@st.composite
def linear_bases(draw):
    """Bases of dim 1-3 over Q and GF(p), from empty to dense tables."""
    field, coeffs = LINEAR_FIELDS[draw(st.sampled_from(sorted(LINEAR_FIELDS)))]
    n = draw(st.integers(1, 3))
    density = draw(st.integers(0, 4))
    return Algebra.from_entries(field, n, [
        (i, j, k, draw(st.sampled_from(coeffs)))
        for i, j, k in iproduct(range(1, n + 1), repeat=3)
        if draw(st.integers(1, 4)) <= density])


@settings(max_examples=40, deadline=None)
@given(linear_bases())
def test_linear_space_matches_indeterminate_oracle(A):
    assert _linear_rows(A) == indeterminate_rows(A)
    assert linear_space(A) == old_linear_space(A)


@pytest.mark.parametrize("name,lam", sorted(LINEAR_DIMS, key=str))
@pytest.mark.parametrize("prime", [None, 5])
def test_linear_space_matches_indeterminate_oracle_on_catalog(name, lam,
                                                               prime):
    A = base_algebra(name, lam, prime=prime)
    assert linear_space(A) == old_linear_space(A)


def _polarized_coefficients(A, p):
    """Reference (Q, nq) by polarization: the residuals of the n^3
    elementary tables E_a and of every pairwise sum E_a + E_b."""
    field, n = A.field, A.dim
    n3 = n ** 3
    elems = [Algebra.from_entries(field, n, [(i + 1, j + 1, k + 1, 1)])
             for i, j, k in iproduct(range(n), repeat=3)]

    def comps(residuals):
        return np.array([int(x.value) for _, _, vec in residuals
                         for x in vec], dtype=np.int64)

    singles = [comps(anti_pre_lie_residuals(E)) for E in elems]
    Q = {(a, a): singles[a] % p for a in range(n3) if singles[a].any()}
    for a in range(n3):
        for b in range(a + 1, n3):
            both = Algebra(field, n, [[[
                elems[a].sc[i][j][k] + elems[b].sc[i][j][k]
                for k in range(n)] for j in range(n)] for i in range(n)])
            cross = (comps(anti_pre_lie_residuals(both))
                     - singles[a] - singles[b]) % p
            if cross.any():
                Q[(a, b)] = cross
    return Q, singles[0].shape[0]


def _random_table(rng, field, n):
    return Algebra(field, n, [[[field.scalar(rng.randrange(field.p))
                                for _ in range(n)] for _ in range(n)]
                               for _ in range(n)])


@pytest.mark.parametrize("p", [2, 3, 5])
@pytest.mark.parametrize("dim", [1, 2])
def test_quadratic_coefficients_match_polarization(p, dim):
    rng = random.Random(100 * p + dim)
    bases = [Algebra.zero_algebra(GF(p), dim)]
    bases += [_random_table(rng, GF(p), dim) for _ in range(2)]
    if dim == 2:
        bases.append(base_algebra("A3", prime=p))
    for base in bases:
        _, pairs, Qmat = _quadratic_coefficients(base, p)
        L = _int_linear_rows(base)
        L0 = np.array([[x.value for x in row]
                       for row in indeterminate_rows(base).entries]).T
        Q0, nq0 = _polarized_coefficients(base, p)
        assert Qmat.shape == (len(pairs), nq0) and np.array_equal(L, L0)
        assert [tuple(ab) for ab in pairs.tolist()] == sorted(Q0)
        assert all(np.array_equal(row, Q0[ab])
                   for ab, row in zip(sorted(Q0), Qmat))


def _int_linear_rows(base):
    """L[a][c]: the coefficient of phi_a in the iii-iv residual c, as
    integers."""
    return np.array([[x.value for x in row]
                     for row in _linear_rows(base).entries],
                    dtype=np.int64).T


def _direct_step1(base):
    """Flattened candidates passing check_step1_conditions, in order."""
    f, n = base.field, base.dim
    out = []
    for flat in iproduct(range(f.p), repeat=n ** 3):
        sc = [[[f.scalar(flat[(i * n + j) * n + k]) for k in range(n)]
               for j in range(n)] for i in range(n)]
        if check_step1_conditions(Deformation(base, Algebra(f, n, sc))):
            out.append(flat)
    return out


def _flats(sols):
    return [tuple(int(x.value) for x in d.flat()) for d in sols]


def test_brute_force_chunking_and_workers_keep_order(monkeypatch):
    # the scan is serial; windows of 1 and 7 kernel rows, windows that
    # leave a short last one (p^4 + 1 and 3 p^4 + 1 of A2's p^5 and A3's
    # p^6 rows) and single windows (2^14, 2^19) all give the same sorted
    # survivors, on A2 and A3
    p = 5
    for name in ("A2", "A3"):
        base = base_algebra(name, prime=p)
        whole = brute_force_Z2(base)
        ref = _flats(whole)
        assert len(ref) == Z2_COUNTS[(name, None)] and ref == sorted(ref)
        for chunk in (1, 7, p ** 4 + 1, 3 * p ** 4 + 1, 1 << 14, 1 << 19):
            monkeypatch.setattr(cocycles, "SCAN_WINDOW", chunk)
            sols = brute_force_Z2(base)
            assert _flats(sols) == ref, (name, chunk)
            assert np.array_equal(sols.table, whole.table), (name, chunk)


def test_brute_force_solutions_are_one_read_only_int_table():
    base = base_algebra("A3", prime=5)
    sols = brute_force_Z2(base)
    table = sols.table
    assert len(sols) == 425 and table.shape == (425, 8)
    assert np.issubdtype(table.dtype, np.integer)
    assert not table.flags.writeable
    with pytest.raises(ValueError):
        table[0, 0] = 1
    every = list(sols)
    assert all(d.base is base for d in every)
    assert [[x.value for x in d.flat()] for d in every] == table.tolist()
    assert sols[-1] == every[-1] == sols[424]
    assert sols[-425] == every[0]
    assert sols[::7] == every[::7] and len(sols[::7]) == 61
    assert sols[:2] == every[:2] and isinstance(sols[:2], list)
    for past in (425, -426):
        with pytest.raises(IndexError):
            sols[past]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_brute_force_dim1_empty_high_block(monkeypatch, p):
    # dimension 1: a single table entry, whose kernel is 0 or 1 rows
    f = GF(p)
    for c in range(p):
        base = Algebra.from_entries(f, 1, [(1, 1, 1, c)])
        direct = _direct_step1(base)
        for chunk in (1, 1 << 19):
            monkeypatch.setattr(cocycles, "SCAN_WINDOW", chunk)
            sols = brute_force_Z2(base)
            assert _flats(sols) == direct, (c, chunk)


@settings(max_examples=8, deadline=None)
@given(st.lists(st.integers(0, 1), min_size=8, max_size=8))
def test_brute_force_equals_step1_filter_gf2(flat):
    f = GF(2)
    base = Algebra(f, 2, [[[f.scalar(flat[(i * 2 + j) * 2 + k])
                            for k in range(2)] for j in range(2)]
                          for i in range(2)])
    assert _flats(brute_force_Z2(base)) == _direct_step1(base)


def test_brute_force_budget():
    base = base_algebra("A2", prime=11)
    with pytest.raises(BudgetExceededError):
        brute_force_Z2(base, budget=10 ** 6)


def test_brute_force_budget_bounds(monkeypatch):
    assert cocycles.MAX_BUDGET < 2 ** 63

    def no_scan(*args):
        raise AssertionError("scan started")
    monkeypatch.setattr(cocycles, "_quadratic_coefficients", no_scan)
    base = base_algebra("A2", prime=5)
    for bad in (0, -5, cocycles.MAX_BUDGET + 1, 10 ** 23, 2 ** 63, 2.5,
                "100", True, None):
        with pytest.raises(ParseError, match="budget must be"):
            brute_force_Z2(base, budget=bad)
    # 1 is a valid budget that 5^8 candidates exceed
    with pytest.raises(BudgetExceededError):
        brute_force_Z2(base, budget=1)
    for ok in (5 ** 8, cocycles.MAX_BUDGET):
        with pytest.raises(AssertionError, match="scan started"):
            brute_force_Z2(base, budget=ok)


def test_brute_force_worker_partition_deterministic(monkeypatch):
    # partitioning A3's 5^6 kernel rows into 26 windows of 601 keeps the
    # default order
    base = base_algebra("A3", prime=5)
    solo = brute_force_Z2(base)
    monkeypatch.setattr(cocycles, "SCAN_WINDOW", 601)
    parts = brute_force_Z2(base)
    assert len(solo) == Z2_COUNTS[("A3", None)]
    assert [d.flat() for d in solo] == [d.flat() for d in parts]


def _nested_scan(base):
    """Reference survivors by the full (h, l) comparison: every high
    block against every low block on all linear components, then the
    quadratic residuals pair by pair."""
    p, n3 = base.field.p, base.dim ** 3
    L = _int_linear_rows(base)
    _, pairs, Qmat = _quadratic_coefficients(base, p)

    def digits(width):
        return np.array(list(iproduct(range(p), repeat=width)),
                        dtype=np.int64).reshape(p ** width, width)

    D_hi, D_lo = digits(n3 // 2), digits(n3 - n3 // 2)
    N_hi = -(D_hi @ L[:n3 // 2]) % p
    R_lo = D_lo @ L[n3 // 2:] % p
    hi, lo = np.nonzero((R_lo[None, :, :] == N_hi[:, None, :]).all(axis=2))
    S = np.concatenate([D_hi[hi], D_lo[lo]], axis=1)
    acc = np.zeros((len(S), Qmat.shape[1]), dtype=np.int64)
    for (a, b), coef in zip(pairs.tolist(), Qmat):
        acc += (S[:, a] * S[:, b])[:, None] * coef[None, :]
    return [tuple(row) for row in S[~(acc % p).any(axis=1)].tolist()]


@st.composite
def gf_tables(draw):
    """(p, n, flat): a random table of dim 1 or 2 over GF(2), GF(3) or
    GF(5)."""
    p = draw(st.sampled_from([2, 3, 5]))
    n = draw(st.sampled_from([1, 2]))
    flat = draw(st.lists(st.integers(0, p - 1), min_size=n ** 3,
                         max_size=n ** 3))
    return p, n, tuple(flat)


def _with_oracle_bases(test):
    """The 13 oracle bases at p = 2, 3 and 5 as explicit examples,
    skipping any point that instantiate refuses."""
    for name, lam in sorted(Z2_COUNTS, key=str):
        for p in (2, 3, 5):
            try:
                base = base_algebra(name, lam, prime=p)
            except ConstraintError:
                continue
            test = example((p, 2, tuple(x.value for plane in base.sc
                                        for row in plane for x in row)))(test)
    return test


@settings(max_examples=12, deadline=None)
@_with_oracle_bases
@given(gf_tables())
def test_scan_join_equals_nested_comparison(table):
    # the kernel scan against the (h, l) comparison of every candidate,
    # and its kernel basis against linear_space's
    p, n, flat = table
    f = GF(p)
    base = Algebra(f, n, [[[f.scalar(flat[(i * n + j) * n + k])
                            for k in range(n)] for j in range(n)]
                          for i in range(n)])
    K = _quadratic_coefficients(base, p)[0]
    assert K.tolist() == [[x.value for x in Deformation(base, phi).flat()]
                          for phi in linear_space(base)]
    want = _nested_scan(base)
    for chunk in (1, 7, 1 << 19):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cocycles, "SCAN_WINDOW", chunk)
            assert _flats(brute_force_Z2(base)) == want, chunk


def test_scan_windows_bound_rows(monkeypatch):
    # A1 is the zero base, so its kernel is all 3^8 tables: with windows of
    # 100 rows every _scan_chunk call covers at most 100 of them, the calls
    # tile the kernel in order, and the table is the nested comparison's
    base = base_algebra("A1", prime=3)
    calls = []
    scan = cocycles._scan_chunk

    def recorded(c0, c1, *args):
        calls.append((c0, c1))
        return scan(c0, c1, *args)
    monkeypatch.setattr(cocycles, "SCAN_WINDOW", 100)
    monkeypatch.setattr(cocycles, "_scan_chunk", recorded)
    sols = brute_force_Z2(base)
    assert all(0 < c1 - c0 <= 100 for c0, c1 in calls)
    assert [c0 for c0, _ in calls] == [0] + [c1 for _, c1 in calls[:-1]]
    assert calls[-1][1] == 3 ** 8 and len(calls) == 66
    assert sols.table.tolist() == [list(row) for row in _nested_scan(base)]


def test_quadratic_table_shared_and_read_only():
    K3, *tables3 = _quadratic_coefficients(base_algebra("A3", prime=5), 5)
    K7, *tables7 = _quadratic_coefficients(base_algebra("A7", prime=5), 5)
    assert not np.array_equal(K3, K7)
    for shared, again in zip(tables3, tables7):
        assert shared is again and not shared.flags.writeable
        with pytest.raises(ValueError):
            shared[0, 0] = 1



def test_unit_tables_and_casts_are_shared():
    base = base_algebra("A3", prime=5)
    tables = cocycles._unit_tables(base.field, base.dim, base.basis)
    _linear_rows(base)
    assert cocycles._unit_tables(GF(5), 2, ("e1", "e2")) is tables
    assert isinstance(tables, tuple) and len(tables) == 8
    assert cast_algebra(base, GF(5)) is base
    over_q = base_algebra("A3")
    assert cast_algebra(over_q, Field("Q")) is over_q
    assert cast_algebra(over_q, poly_ring(["x"])).field == poly_ring(["x"])

def _members_by_eval_at(fam, p):
    """Reference GF(p) members: every parameter point evaluated exactly
    in Q with eval_at, dropped if a value's denominator vanishes mod p."""
    names, units = fam.field.variables, fam.field.units
    members = set()
    for values in iproduct(range(p), repeat=len(names)):
        assign = dict(zip(names, values))
        if any(v in units and q == 0 for v, q in assign.items()):
            continue
        flat = []
        for i, j, k in iproduct(range(fam.dim), repeat=3):
            val = fam.sc[i][j][k].eval_at(assign).value
            if val.denominator % p == 0:
                break
            flat.append(val.numerator * pow(val.denominator, -1, p) % p)
        else:
            members.add(tuple(flat))
    return members


PRIMES = [2, 3, 5, 7]


@pytest.mark.parametrize("p", PRIMES)
def test_instantiate_family_gf_laurent_family(p):
    # units x and z would skip 0 and carry negative exponents: refused at
    # every p, not evaluated on a grid of their nonzero values
    ring = poly_ring(["x", "y", "z"], units=["x", "z"])
    fam = Algebra.from_entries(
        ring, 2, [(1, 1, 1, "x^-1"), (1, 2, 1, "2*x - y"),
                  (2, 1, 2, "z^-3 + x*z")])
    with pytest.raises(FieldMismatchError):
        instantiate_family_gf(fam, p)
    plain = Algebra.from_entries(ring, 2, [(1, 2, 1, "2*x - y")])
    with pytest.raises(FieldMismatchError):
        instantiate_family_gf(plain, p)


@pytest.mark.parametrize("p", PRIMES)
def test_instantiate_family_gf_vanishing_denominator(p):
    # a coefficient 1/5 is refused at every p, also where 5 is invertible
    ring = poly_ring(["x"])
    for entry in ("1/5*x - 1/5", "1/5*x"):
        fam = Algebra.from_entries(ring, 2, [(1, 1, 1, entry),
                                             (2, 2, 2, "x")])
        with pytest.raises(FieldMismatchError):
            instantiate_family_gf(fam, p)


@pytest.mark.parametrize("p", PRIMES)
def test_instantiate_family_gf_without_parameters(p):
    # no parameters: the zero table is the one member, a constant entry
    # is refused
    ring = poly_ring([])
    zero = Algebra.from_entries(ring, 2, [])
    assert instantiate_family_gf(zero, p) == {(0,) * 8} == \
        _members_by_eval_at(zero, p)
    fam = Algebra.from_entries(ring, 2, [(1, 1, 1, "1/2"), (2, 1, 2, "3")])
    with pytest.raises(FieldMismatchError):
        instantiate_family_gf(fam, p)


@pytest.mark.parametrize("fam", [
    Algebra.from_entries(poly_ring(["x", "y"]), 2,
                         [(1, 1, 1, "x^2"), (2, 2, 2, "y")]),
    Algebra.from_entries(poly_ring(["x", "y"]), 2, [(1, 2, 2, "x*y")]),
    Algebra.from_entries(poly_ring(["x"]), 2, [(2, 1, 1, "3*x + 1")]),
    Algebra.from_entries(QQ, 2, [(1, 1, 1, 1)]),
    Algebra.from_entries(GF(5), 2, [(1, 1, 1, 1)])],
    ids=["square", "product", "constant-term", "Q-table", "GF-table"])
def test_instantiate_family_gf_refuses_non_linear_tables(fam):
    with pytest.raises(FieldMismatchError):
        instantiate_family_gf(fam, 5)


@pytest.mark.parametrize("p", PRIMES + [13])
def test_instantiate_family_gf_catalog_families(p):
    checked = 0
    for name in ("A2", "A3", "A4", "A5", "A6", "A7", "A8", "A9"):
        for case in cocycle_cases_of(name):
            for fam in cocycle_families_of(name, case or None):
                assert instantiate_family_gf(fam, p) == \
                    _members_by_eval_at(fam, p), (name, case)
                checked += 1
    assert checked == 22


def test_family_membership_symbolic():
    for name in ("A4", "A7"):
        base = base_algebra(name)
        for fam in cocycle_families_of(name):
            assert verify_family_membership(base, fam).passed


def test_family_membership_catches_corruption():
    base = base_algebra("A2")
    ring = poly_ring(["alpha", "beta", "gamma"])
    corrupted = Algebra.from_entries(
        ring, 2, [(1, 1, 1, "alpha"), (1, 1, 2, "beta"),
                  (2, 1, 1, "gamma"), (1, 2, 1, "gamma"),
                  (2, 2, 1, "gamma")])   # last target slot swapped
    rep = verify_family_membership(base, corrupted)
    assert not rep.passed and rep.failure_count > 0


def test_transform_identity_fixes_deformation():
    base = base_algebra("A2")
    phi = Algebra.from_entries(QQ, 2, [(1, 1, 1, 2), (1, 1, 2, 3)])
    d = Deformation(base, phi)
    moved = transform_deformation(d, Matrix.identity(QQ, 2))
    assert moved.phi == phi


def test_transform_a2_parameter_law():
    # theta(e2) = a e2 sends (alpha, beta, gamma) to (alpha, beta/a,
    # a*gamma) on the first deformation family
    base = base_algebra("A2")
    ring = poly_ring(["alpha", "beta", "gamma", "a"], units=["a"])
    from antiprelie import cast_algebra
    base_r = cast_algebra(base, ring)
    phi = Algebra.from_entries(
        ring, 2, [(1, 1, 1, "alpha"), (1, 1, 2, "beta"), (2, 1, 1, "gamma"),
                  (1, 2, 1, "gamma"), (2, 2, 2, "gamma")])
    theta = Matrix(ring, [[ring.one(), ring.zero()],
                          [ring.zero(), ring.parse("a")]])
    moved = transform_deformation(Deformation(base_r, phi), theta)
    expected = Algebra.from_entries(
        ring, 2, [(1, 1, 1, "alpha"), (1, 1, 2, "beta*a^-1"),
                  (2, 1, 1, "a*gamma"), (1, 2, 1, "a*gamma"),
                  (2, 2, 2, "a*gamma")])
    assert moved.phi == expected


def test_transform_a9_parameter_law():
    # theta(e2) = a e1 + e2 sends gamma to gamma + a(3 alpha - beta)
    base = base_algebra("A9")
    ring = poly_ring(["alpha", "beta", "gamma", "a"])
    from antiprelie import cast_algebra
    base_r = cast_algebra(base, ring)
    phi = Algebra.from_entries(
        ring, 2, [(2, 1, 1, "alpha+beta"), (1, 2, 1, "2*alpha"),
                  (2, 2, 1, "gamma"), (2, 2, 2, "2*beta")])
    theta = Matrix(ring, [[ring.one(), ring.parse("a")],
                          [ring.zero(), ring.one()]])
    moved = transform_deformation(Deformation(base_r, phi), theta)
    expected = Algebra.from_entries(
        ring, 2, [(2, 1, 1, "alpha+beta"), (1, 2, 1, "2*alpha"),
                  (2, 2, 1, "gamma+3*a*alpha-a*beta"), (2, 2, 2, "2*beta")])
    assert moved.phi == expected


def test_transform_rejects_bad_theta():
    base = base_algebra("A2")
    phi = Algebra.zero_algebra(QQ, 2)
    d = Deformation(base, phi)
    with pytest.raises(NotInvertibleError):
        transform_deformation(d, Matrix.zero(QQ, 2, 2))
    swap = Matrix.from_rows(QQ, [[0, 1], [1, 0]])
    assert not is_automorphism(swap, base)
    with pytest.raises(PreconditionError):
        transform_deformation(d, swap)


def test_oracle_soundness_over_q_and_primes(rng):
    # instantiated family members satisfy all four conditions over Q and
    # over GF(p) for p in {5, 7, 11}
    blocks = [("A2", None, None), ("A4", None, None), ("A6", "generic", 2),
              ("A8", "-2", -2), ("A9", None, None)]
    for name, case, lam in blocks:
        base_q = base_algebra(name, lam)
        for fam in cocycle_families_of(name, case):
            names = fam.field.variables if fam.field.kind == "poly" else ()
            # integer point, denominator-free so every prime applies
            assign = {v: rng.randint(-6, 6) for v in names}
            sc = [[[QQ.scalar(fam.sc[i][j][k].eval_at(assign).value)
                    for k in range(2)] for j in range(2)] for i in range(2)]
            phi_q = Algebra(QQ, 2, sc)
            assert check_step1_conditions(
                Deformation(base_q, phi_q)).passed, (name, case)
            for p in (5, 7, 11):
                f = GF(p)
                base_p = base_algebra(name, lam, prime=p)
                sc = [[[f.scalar(phi_q.sc[i][j][k].value)
                        for k in range(2)] for j in range(2)]
                      for i in range(2)]
                d = Deformation(base_p, Algebra(f, 2, sc))
                assert check_step1_conditions(d).passed, (name, case, p)


def test_linear_space_spans_brute_solutions():
    # every exhaustive-search solution lies in the span of the linear
    # stage's nullspace basis, over the same field
    f = GF(5)
    for name, lam in (("A4", None), ("A6", 0)):
        base = base_algebra(name, lam, prime=5)
        basis = linear_space(base)
        rows = [[d.sc[i][j][k] for i, j, k in iproduct(range(2), repeat=3)]
                for d in basis]
        rank0 = len(Matrix(f, rows).rref()[1])
        for d in brute_force_Z2(base)[::7]:
            stacked = rows + [list(d.flat())]
            assert len(Matrix(f, stacked).rref()[1]) == rank0


def test_orbit_invariance_random(rng):
    # Step-1 status is stable under base automorphisms, pass or fail
    f = GF(5)
    base = base_algebra("A6", 0, prime=5)
    sols = brute_force_Z2(base)
    flats = {d.flat() for d in sols}
    for _ in range(100):
        sc = [[[f.scalar(rng.randrange(5)) for _ in range(2)]
               for _ in range(2)] for _ in range(2)]
        d = Deformation(base, Algebra(f, 2, sc))
        a = rng.randrange(1, 5)
        theta = Matrix.from_rows(f, [[a, 0], [0, 1]])
        assert is_automorphism(theta, base)
        moved = transform_deformation(d, theta)
        assert check_step1_conditions(d).passed == \
            check_step1_conditions(moved).passed
        # solutions stay solutions, verbatim set membership
        if d.flat() in flats:
            assert moved.flat() in flats


# ---------------------------------------------------------------------------
# Oracles: the automorphism test and basis change that multiply the
# images theta(e_i) with `multiply`.
# ---------------------------------------------------------------------------

def _basis(A):
    return [[A.field.one() if t == i else A.field.zero()
             for t in range(A.dim)] for i in range(A.dim)]


def old_is_automorphism(theta, A):
    from antiprelie import multiply
    if (theta.rows, theta.cols) != (A.dim, A.dim):
        raise ShapeMismatchError("automorphism must be square of dim")
    n = A.dim
    e = _basis(A)
    cols = [theta.apply(e[j]) for j in range(n)]
    for i in range(n):
        for j in range(n):
            lhs = theta.apply(multiply(A, e[i], e[j]))
            rhs = multiply(A, cols[i], cols[j])
            if any(not (x - y).is_zero() for x, y in zip(lhs, rhs)):
                return False
    return True


def old_transform_deformation(d, theta):
    from antiprelie import multiply
    if theta.det().is_zero():
        raise NotInvertibleError("theta is singular")
    if not old_is_automorphism(theta, d.base):
        raise PreconditionError("theta is not an automorphism of the base")
    inv = theta.inverse()
    n = d.base.dim
    e = _basis(d.base)
    cols = [theta.apply(e[j]) for j in range(n)]
    sc = [[inv.apply(multiply(d.phi, cols[i], cols[j])) for j in range(n)]
          for i in range(n)]
    return Deformation(d.base, Algebra(d.phi.field, n, sc, d.base.basis))


def _automorphism_agrees_with_oracles(theta, d):
    """True when theta moved d (an invertible automorphism of the base)."""
    assert is_automorphism(theta, d.base) == old_is_automorphism(theta, d.base)
    try:
        want = old_transform_deformation(d, theta)
    except (NotInvertibleError, PreconditionError) as exc:
        with pytest.raises(type(exc)):
            transform_deformation(d, theta)
        return False
    got = transform_deformation(d, theta)
    assert [str(x) for x in got.flat()] == [str(x) for x in want.flat()]
    assert got == want
    return True


LAURENT = poly_ring(["s", "u"], units=["u"])
AUTOMORPHISM_FIELDS = {
    "Q": (QQ, ["1", "-1", "2", "1/2", "-3"]),
    "GF5": (GF(5), ["1", "2", "3", "4"]),
    "laurent": (LAURENT, ["1", "-1", "s", "u^-1", "s*u-2", "2*u"]),
}


@st.composite
def automorphism_inputs(draw):
    """A random base and phi of dim 1-3 and a random, identity or
    diagonal theta; a zero base makes every invertible theta pass."""
    field, coeffs = AUTOMORPHISM_FIELDS[draw(st.sampled_from(
        sorted(AUTOMORPHISM_FIELDS)))]
    n = draw(st.integers(1, 3))

    def entry(density):
        if draw(st.integers(1, 4)) > density:
            return field.zero()
        return field.parse(draw(st.sampled_from(coeffs)))

    def table(density):
        return Algebra(field, n, [[[entry(density) for _ in range(n)]
                                   for _ in range(n)] for _ in range(n)])

    base, phi = table(draw(st.integers(0, 4))), table(draw(st.integers(0, 4)))
    kind = draw(st.sampled_from(["random", "identity", "diagonal"]))
    if kind == "random":
        density = draw(st.integers(0, 4))
        theta = Matrix(field, [[entry(density) for _ in range(n)]
                               for _ in range(n)])
    else:
        diag = [field.one() if kind == "identity"
                else field.parse(draw(st.sampled_from(coeffs)))
                for _ in range(n)]
        theta = Matrix(field, [[diag[i] if i == j else field.zero()
                                for j in range(n)] for i in range(n)])
    return theta, Deformation(base, phi)


@settings(max_examples=80, deadline=None)
@given(automorphism_inputs())
def test_automorphism_and_transform_match_oracles(inputs):
    _automorphism_agrees_with_oracles(*inputs)


def test_automorphism_and_transform_match_oracles_on_all_gf5_maps(rng):
    f = GF(5)
    base = base_algebra("A6", 0, prime=5)
    phis = [Algebra(f, 2, [[[f.scalar(rng.randrange(5)) for _ in range(2)]
                            for _ in range(2)] for _ in range(2)])
            for _ in range(2)] + [d.phi for d in brute_force_Z2(base)[:2]]
    moved = 0
    for entries in iproduct(range(5), repeat=4):
        theta = Matrix.from_rows(f, [entries[:2], entries[2:]])
        for phi in phis:
            moved += _automorphism_agrees_with_oracles(
                theta, Deformation(base, phi))
    assert 0 < moved < 625 * len(phis)
