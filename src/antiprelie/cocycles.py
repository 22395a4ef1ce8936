"""Deformation (Z^2) machinery: the four Step-1 conditions, their exact
linear part, exhaustive finite-field search, symbolic family membership,
and the automorphism action on deformations.

The four conditions on a candidate second product phi over a fixed base
product are: (i)-(ii) phi is itself anti-pre-Lie, (iii)-(iv) the mixed
compatibility conditions with the base.  (i)-(ii) are quadratic in phi,
(iii)-(iv) are linear, so the solver pairs an exact nullspace stage with
exhaustive enumeration instead of general polynomial solving.
Both read their coefficients off the checkers' residuals at the unit
tables E_a (1 at flat index a, 0 elsewhere) over the base field; the
scan enumerates the GF(p) kernel of iii-iv, the same one `linear_space`
computes, and tests i-ii on each of its tables.  Its survivors stay one
read-only int table (`Z2Solutions`), which builds a `Deformation` only
for the row asked for.  numpy is imported inside the functions that
scan, so importing the package does not load it.
"""
from __future__ import annotations

import operator
from collections.abc import Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iproduct

from .algebra import (_MIXED, Algebra, AlgebraPair, CheckReport,
                      _plain_tables, _residuals, anti_pre_lie_residuals,
                      cast_algebra, make_report, mixed_pair_residuals,
                      transported)
from .errors import (BudgetExceededError, FieldMismatchError,
                     NotInvertibleError, ParseError, PreconditionError,
                     ShapeMismatchError)
from .linalg import Matrix, _vec_is_zero, _vsub
from .scalars import GF, Field

DEFAULT_BUDGET = 10 ** 8
# Largest accepted candidate budget: counts up to it fit int64 (2^63 - 1).
MAX_BUDGET = 10 ** 18
# Kernel rows per scan window.  Windows this small, reduced in place, reuse
# freed memory; at 8,192 rows every window's arrays were page-faulted anew.
SCAN_WINDOW = 1 << 9

_STEP1_NAMES = {"anti_pre_lie_1": "step1_i", "anti_pre_lie_2": "step1_ii",
                "compatible_mixed_1": "step1_iii",
                "compatible_mixed_2": "step1_iv"}


@dataclass(frozen=True)
class Deformation:
    """A fixed base product together with a candidate second product phi."""

    base: Algebra
    phi: Algebra

    def __post_init__(self):
        if self.base.field != self.phi.field:
            raise FieldMismatchError("base and phi over different fields")
        if self.base.dim != self.phi.dim or self.base.basis != self.phi.basis:
            raise ShapeMismatchError("base and phi on different bases")

    def flat(self):
        """Entries of phi in row-major (i, j, k) order."""
        return tuple(x for plane in self.phi.sc for row in plane for x in row)


def check_step1_conditions(d: Deformation) -> CheckReport:
    """All four conditions on all basis triples; exact over any field.
    (base, phi) is converted once, and only failing rows are wrapped."""
    tables = _plain_tables(d.base, d.phi)
    failures = _residuals("anti_pre_lie", tables, [(1, 1)], "anti_pre_lie",
                          failing=True) + \
        _residuals("anti_pre_lie", tables, _MIXED, "compatible_mixed",
                   failing=True)
    return make_report([(_STEP1_NAMES[name], idx, vec)
                        for name, idx, vec in failures])


@lru_cache(maxsize=16)
def _unit_tables(field: Field, n: int, basis=None):
    """The n^3 tables E_a over `field`, 1 at flat index a and 0
    elsewhere, in flat order; built once per (field, n, basis)."""
    return tuple(Algebra.from_entries(field, n, [(i + 1, j + 1, k + 1, 1)],
                                      basis)
                 for i, j, k in iproduct(range(n), repeat=3))


def _components(residuals):
    """Residual values in component order."""
    return [x for _, _, vec in residuals for x in vec]


def _linear_rows(A: Algebra):
    """Coefficient matrix of conditions iii-iv in the n^3 phi unknowns:
    they are linear in phi, so column a is their residual at E_a."""
    cols = [_components(mixed_pair_residuals(AlgebraPair(A, E)))
            for E in _unit_tables(A.field, A.dim, A.basis)]
    return Matrix._trusted(A.field, zip(*cols))


def linear_space(A: Algebra):
    """Exact nullspace basis of conditions iii-iv, as a list of phi tables.

    Every Step-1 solution lies in the span of the returned basis.
    """
    if A.field.kind not in ("Q", "GF"):
        raise FieldMismatchError("linear_space needs Q or GF(p) coefficients")
    system = _linear_rows(A)
    return [_from_flat(A, vec) for vec in system.nullspace()]


def _from_flat(A: Algebra, flat):
    """The table over A's field and basis whose entries, in row-major
    (i, j, k) order, are the Scalars `flat`."""
    n = A.dim
    sc = [[flat[(i * n + j) * n:(i * n + j + 1) * n] for j in range(n)]
          for i in range(n)]
    return Algebra(A.field, n, sc, A.basis)


def _quadratic_coefficients(A: Algebra, p: int):
    """Integer tables (K, pairs, Qmat) describing the Step-1 conditions
    mod p.

    Linear part: the rows of K are `linear_space`'s basis of the kernel
    of iii-iv, as residues, so the phi passing iii-iv are exactly the
    combinations c K mod p.  Quadratic part (i-ii, no linear terms):
    residual_c(phi) = sum_r Qmat[r][c] phi_a phi_b with (a, b) =
    pairs[r], a <= b, read off the residuals at unit tables; only nonzero
    Qmat rows are kept.  pairs and Qmat depend only on (dim, p) and are
    shared read-only arrays.
    """
    import numpy as np
    K = np.array([[x.value for x in vec]
                  for vec in _linear_rows(A).nullspace()],
                 dtype=np.int64).reshape(-1, A.dim ** 3)
    return (K, *_quadratic_table(A.dim, p))


@lru_cache(maxsize=16)
def _quadratic_table(n: int, p: int):
    """(pairs, Qmat) of _quadratic_coefficients.  Conditions i-ii are
    quadratic in phi with no linear terms and do not involve the base, so
    the row of phi_a^2 is their residual at E_a and the row of
    phi_a phi_b (a < b) the mixed residual of the pair (E_a, E_b)."""
    import numpy as np
    E = _unit_tables(GF(p), n)
    rows = {(a, b): [x.value for x in _components(
                anti_pre_lie_residuals(E[a]) if a == b
                else mixed_pair_residuals(AlgebraPair(E[a], E[b])))]
            for a in range(len(E)) for b in range(a, len(E))}
    keep = [ab for ab, row in rows.items() if any(row)]
    pairs = np.array(keep, dtype=np.intp).reshape(-1, 2)
    Qmat = np.array([rows[ab] for ab in keep],
                    dtype=np.int64).reshape(-1, len(rows[0, 0]))
    pairs.flags.writeable = Qmat.flags.writeable = False
    return pairs, Qmat


def _digit_rows(width, p, start=0, stop=None):
    """Rows start..stop-1 (all p^width by default) of the lexicographic
    list of digit rows of the given width: row r holds the base-p digits
    of r, most significant first."""
    import numpy as np
    r = np.arange(start, p ** width if stop is None else stop, dtype=np.int64)
    return r[:, None] // p ** np.arange(width - 1, -1, -1, dtype=np.int64) % p


def _scan_chunk(c0, c1, p, K, pairs, Qmat):
    """Step-1 survivors among the tables phi = c K mod p, c the digit
    rows c0..c1-1 of GF(p)^d: all of them pass iii-iv, and their i-ii
    residuals are one product of their monomials phi_a phi_b with Qmat."""
    S = _digit_rows(len(K), p, c0, c1) @ K % p
    mono = S[:, pairs[:, 0]] * S[:, pairs[:, 1]]
    mono %= p
    res = mono @ Qmat
    res %= p
    return S[~res.any(axis=1)]


class Z2Solutions(Sequence):
    """The Step-1 solutions over `base` found by `brute_force_Z2`, kept as
    `table`: a read-only int array of shape (count, n^3), one row of
    residues per solution in row-major (i, j, k) order, the rows in
    lexicographic order.  An index builds its row's Deformation only when
    it is asked for; a slice gives a list of them."""

    def __init__(self, base: Algebra, table):
        self.base = base
        self.table = table

    def __len__(self):
        return len(self.table)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._deformation(row)
                    for row in self.table[index].tolist()]
        return self._deformation(self.table[operator.index(index)].tolist())

    def __iter__(self):
        return map(self._deformation, self.table.tolist())

    def _deformation(self, row):
        A = self.base
        return Deformation(A, _from_flat(A, [A.field.scalar(v) for v in row]))


def check_budget(budget) -> int:
    """The candidate budget, an int from 1 to MAX_BUDGET; anything else
    raises ParseError."""
    if isinstance(budget, bool) or not isinstance(budget, int) \
            or not 1 <= budget <= MAX_BUDGET:
        raise ParseError(f"budget must be an integer from 1 to {MAX_BUDGET}, "
                         f"got {budget!r}")
    return budget


def brute_force_Z2(A: Algebra, budget: int = DEFAULT_BUDGET):
    """Exhaustively enumerate all phi over GF(p) passing the four Step-1
    conditions, in lexicographic order of the flattened table, as a
    `Z2Solutions` sequence over the survivors' int table.

    Conditions iii-iv are linear, so the phi passing them are exactly the
    combinations c K mod p of the rows of K, the reduced echelon kernel
    basis that `linear_space` returns: each such phi is one c, and every
    phi outside the span fails iii-iv.  All p^d combinations are
    enumerated, SCAN_WINDOW rows of c at a time, and tested on the
    quadratic conditions i-ii; the survivors are then sorted, since the
    order of c is not the order of phi.  `budget` must be an int from 1
    to MAX_BUDGET (ParseError otherwise); a base with more than `budget`
    of the p^(n^3) candidate tables raises BudgetExceededError before any
    scan.
    """
    check_budget(budget)
    if A.field.kind != "GF":
        raise FieldMismatchError("brute force runs over GF(p)")
    p = A.field.p
    n3 = A.dim ** 3
    total = p ** n3
    if total > budget:
        raise BudgetExceededError(
            f"{p}^{n3} = {total} exceeds the budget of {budget}")
    import numpy as np
    K, pairs, Qmat = _quadratic_coefficients(A, p)
    rows = p ** len(K)
    S = np.concatenate([_scan_chunk(c, min(c + SCAN_WINDOW, rows), p, K,
                                    pairs, Qmat)
                        for c in range(0, rows, SCAN_WINDOW)])
    S = S[np.lexsort(S.T[::-1])]
    S.flags.writeable = False
    return Z2Solutions(A, S)


def instantiate_family_gf(fam: Algebra, p: int):
    """All GF(p) members of an integer-linear phi family.

    Every entry must be an integer combination of the family's parameters
    c_1..c_m, with no constant term and no unit variable, so the family is
    the row space of an m x n^3 integer matrix F.  Returns the set of its
    members c F mod p, c over GF(p)^m, as flattened entry tuples (ints mod
    p); any other table raises FieldMismatchError.
    """
    f = fam.field
    if f.kind != "poly" or f.units:
        raise FieldMismatchError("family must be linear in plain parameters")
    import numpy as np
    entries = [x for plane in fam.sc for row in plane for x in row]
    F = np.zeros((len(f.variables), len(entries)), dtype=np.int64)
    for a, x in enumerate(entries):
        for mono, q in x.value.items():
            if sum(mono) != 1 or q.denominator != 1:
                raise FieldMismatchError(
                    f"family entry {x} is not an integer-linear form")
            F[mono.index(1), a] = q.numerator % p
    return set(map(tuple, (_digit_rows(len(F), p) @ F % p).tolist()))


def verify_family_membership(A: Algebra, fam: Algebra) -> CheckReport:
    """Symbolic Step-1 check of a parameterized family: zero residual
    polynomials in the family parameters (and any base parameters)."""
    fa, ff = A.field, fam.field  # Q and GF(p) have no variables or units
    if fa.kind == "GF" or ff.kind == "GF":
        if fa != ff:
            raise FieldMismatchError("mixed GF and symbolic coefficients")
        ring = fa
    else:
        merged = list(fa.variables) + [v for v in ff.variables
                                       if v not in fa.variables]
        ring = Field("poly", variables=merged, units=fa.units | ff.units)
    base = cast_algebra(A, ring)
    phi = cast_algebra(fam, ring)
    phi = Algebra(ring, base.dim, phi.sc, base.basis)
    return check_step1_conditions(Deformation(base, phi))


def is_automorphism(theta: Matrix, A: Algebra) -> bool:
    """theta(e_i * e_j) = theta(e_i) * theta(e_j) on all basis pairs."""
    if (theta.rows, theta.cols) != (A.dim, A.dim):
        raise ShapeMismatchError("automorphism must be square of dim")
    W = transported(A, theta.columns())
    return all(_vec_is_zero(_vsub(theta.apply(A.sc[i][j]), W[i][j]))
               for i, j in iproduct(range(A.dim), repeat=2))


def transform_deformation(d: Deformation, theta: Matrix) -> Deformation:
    """Basis change phi'(x, y) = theta^{-1}(phi(theta x, theta y)).

    theta must be invertible and an automorphism of the base product, so
    the Step-1 status of the result matches the input's.
    """
    if theta.det().is_zero():
        raise NotInvertibleError("theta is singular")
    if not is_automorphism(theta, d.base):
        raise PreconditionError("theta is not an automorphism of the base")
    inv = theta.inverse()
    sc = [[inv.apply(w) for w in row]
          for row in transported(d.phi, theta.columns())]
    return Deformation(d.base, Algebra(d.phi.field, d.base.dim, sc,
                                       d.base.basis))
