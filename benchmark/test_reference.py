"""The benchmark's own tests: each independent reference agrees with the
program on random small tables and flags corrupted ones.

  python3 -m pytest benchmark/test_reference.py -q
"""
import random
import sys
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import antiprelie as apl  # noqa: E402
from antiprelie.algebra import mixed_pair_residuals  # noqa: E402

import reference as ref  # noqa: E402

P = 3


def random_table(rng, n, p=P, density=0.5):
    return [[[rng.randrange(p) if rng.random() < density else 0
              for _ in range(n)] for _ in range(n)] for _ in range(n)]


def to_algebra(T, field):
    n = len(T)
    return apl.Algebra.from_entries(
        field, n, [(i + 1, j + 1, k + 1, T[i][j][k])
                   for i, j, k in iproduct(range(n), repeat=3) if T[i][j][k]])


def flat(A):
    return tuple(int(x.value) for x in apl.Deformation(A, A).flat())


@pytest.mark.parametrize("seed", range(6))
def test_step1_set_matches_brute_force(seed):
    rng = random.Random(seed)
    base = random_table(rng, 2)
    f = apl.GF(P)
    want = {flat(d.phi) for d in apl.brute_force_Z2(to_algebra(base, f))}
    assert ref.step1_solutions(np.array(base), P) == want


@pytest.mark.parametrize("seed", range(20))
def test_step1_evaluator_matches_check_step1(seed):
    rng = random.Random(100 + seed)
    f = apl.GF(P)
    base = random_table(rng, 2)
    sols = sorted(ref.step1_solutions(np.array(base), P))
    phi = list(rng.choice(sols)) if seed % 2 else [
        rng.randrange(P) for _ in range(8)]
    if seed % 4 == 1:                         # corrupt a solution
        slot = rng.randrange(8)
        phi[slot] = (phi[slot] + 1) % P
    phi_t = np.array(phi).reshape(2, 2, 2)
    got = apl.check_step1_conditions(apl.Deformation(
        to_algebra(base, f), to_algebra(phi_t.tolist(), f))).passed
    assert ref.step1_ok_np(np.array(base), phi_t, P) == got


@pytest.mark.parametrize("n,seed", [(2, s) for s in range(10)]
                         + [(3, s) for s in range(4)])
def test_exact_counts_match_checkers(n, seed):
    rng = random.Random(200 + seed)
    f = apl.GF(P)
    C, S = random_table(rng, n, density=0.3), random_table(rng, n, density=0.3)
    A, B = to_algebra(C, f), to_algebra(S, f)
    counts = ref.compat_failure_counts(C, S, ref.zero_test(P))
    assert counts["circ"] == apl.check_identity(A, "anti_pre_lie").failure_count
    assert counts["star"] == apl.check_identity(B, "anti_pre_lie").failure_count
    mixed = sum(1 for _, _, vec in mixed_pair_residuals(apl.AlgebraPair(A, B))
                if any(not x.is_zero() for x in vec))
    assert counts["mixed"] == mixed
    if n == 2:    # at most 16 failures per member: the report is exact
        rep = apl.check_compatible_pair(apl.AlgebraPair(A, B))
        assert rep.failure_count == sum(counts.values())


def catalog_pair(name, rng):
    fam = apl.get_family(name)
    for _ in range(100):
        point = {v: Fraction(rng.randint(-3, 3), rng.choice((1, 2)))
                 for v in fam.params}
        try:
            fam.check_constraints(point)
            break
        except apl.ConstraintError:
            continue
    bv = fam.branch_values[0]
    pair = apl.instantiate(fam, point, branch=bv)
    return [[[[x.value for x in r] for r in pl] for pl in A.sc]
            for A in (pair.circ, pair.star)]


@pytest.mark.parametrize("name", ["CA5", "CA10", "CA26", "CA35", "CA44"])
def test_exact_evaluator_flags_corrupted_catalog_table(name):
    rng = random.Random(name)
    C, S = catalog_pair(name, rng)
    z = ref.zero_test()
    assert sum(ref.compat_failure_counts(C, S, z).values()) == 0
    broken_somewhere = False
    for i, j, k in iproduct(range(2), repeat=3):
        bad = [[list(r) for r in pl] for pl in C]
        bad[i][j][k] += 1
        counts = ref.compat_failure_counts(bad, S, z)
        rep = apl.check_compatible_pair(apl.AlgebraPair(
            to_algebra(bad, apl.QQ), to_algebra(S, apl.QQ)))
        assert sum(counts.values()) == rep.failure_count
        broken_somewhere |= rep.failure_count > 0
    assert broken_somewhere


def test_step1_evaluator_flags_corrupted_table():
    base = np.array([[[0, 1], [0, 0]], [[0, 0], [0, 0]]])       # A3
    sols = ref.step1_solutions(base, 5)
    assert len(sols) == 425
    phi = np.array(sorted(sols)[7]).reshape(2, 2, 2)
    assert ref.step1_ok_np(base, phi, 5)
    bad = phi.copy()
    bad[1, 1, 1] = (bad[1, 1, 1] + 1) % 5
    assert tuple(bad.ravel()) not in sols
    assert not ref.step1_ok_np(base, bad, 5)


@pytest.mark.parametrize("seed", range(3))
def test_anti_o_and_strong_match_operators(seed):
    rng = random.Random(300 + seed)
    f = apl.GF(P)
    name = ("CA30", "CA35", "CA38")[seed]
    fam = apl.get_family(name)
    point = {v: rng.randrange(1, P) for v in fam.params}
    pair = apl.instantiate(fam, point, branch=fam.branch_values[-1], prime=P)
    R = apl.left_multiplication_pair(pair)
    C = [[[int(x.value) for x in r] for r in pl] for pl in pair.circ.sc]
    S = [[[int(x.value) for x in r] for r in pl] for pl in pair.star.sc]
    g1, g2 = ref.commutator_table(C), ref.commutator_table(S)
    rho, mu = ref.left_mult_rep(C), ref.left_mult_rep(S)
    z = ref.zero_test(P)
    hits = 0
    for e in iproduct(range(P), repeat=4):
        T = [[e[0], e[1]], [e[2], e[3]]]
        M = apl.Matrix.from_rows(f, T)
        is_anti_o = apl.check_anti_o(M, R).passed
        assert ref.anti_o_ok(T, g1, g2, rho, mu, z) == is_anti_o
        if is_anti_o:
            hits += 1
            assert ref.strong_ok(T, g1, g2, rho, mu, z) == \
                apl.check_strong(M, R).passed
            induced = apl.induce_on_domain(M, R)
            D = ref.induced_on_domain(T, rho, mu)
            assert [[[int(x.value) for x in r] for r in pl]
                    for pl in induced.circ.sc] == [
                [[v % P for v in r] for r in pl] for pl in D[0]]
    assert hits > 1


@pytest.mark.parametrize("seed", range(4))
def test_invariance_matches_check_invariant(seed):
    rng = random.Random(400 + seed)
    n = 3
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = rng.randint(-2, 2)
    s1 = [rng.randint(-2, 2) for _ in range(n)]
    s2 = [rng.randint(-2, 2) for _ in range(n)]
    form = apl.BilinearForm(apl.Matrix.from_rows(apl.QQ, rows))
    pair = apl.construct_from_vectors(form, s1, s2)
    C = [[[x.value for x in r] for r in pl] for pl in pair.circ.sc]
    z = ref.zero_test()
    assert ref.invariant_ok(rows, C, z) == apl.check_invariant(
        form, apl.AlgebraPair(pair.circ, pair.circ)).passed is True
    C[0][1][2] += 1
    bad = to_algebra(C, apl.QQ)
    assert ref.invariant_ok(rows, C, z) == apl.check_invariant(
        form, apl.AlgebraPair(bad, bad)).passed
