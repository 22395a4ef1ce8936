"""The dimension-2 classification catalog and its machine verification.

Static data lives in data/catalog.json: the nine single-product
classification families A1-A9, the 45 compatible-pair families
CA1-CA45, automorphism group descriptions, deformation (Z^2) family
lists per base algebra, parameter-transformation laws, and the stated
internal isomorphisms.  The verification suite locks the transcription:
every table is re-checked symbolically on import of the test suite.

Each entry is parsed, and each table built, once per process, on first
use, from the object `load_catalog()` returns (see `_compiled`); the
checks themselves run in full on every call.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from .algebra import (Algebra, AlgebraPair, cast_algebra,
                      check_compatible_pair, check_identity)
from .cocycles import (Deformation, is_automorphism, transform_deformation,
                       verify_family_membership)
from .errors import ConstraintError, UnknownEntryError
from .linalg import Matrix
from .scalars import GF, QQ, Field, _rational, _residue, substitute

A_NAMES = tuple(f"A{i}" for i in range(1, 10))
CA_NAMES = tuple(f"CA{i}" for i in range(1, 46))

SCOPES = ("A-families", "CA-families", "automorphisms", "cocycles",
          "transformations", "internal-isos")


def _ring(names, units=()) -> Field:
    """Q[names] with the given unit variables, or Q when names is empty."""
    return Field("poly", variables=names, units=units) if names else QQ


def _memoized(memo: dict, key, build):
    """memo[key], built by build() on first use."""
    try:
        return memo[key]
    except KeyError:
        value = memo[key] = build()
        return value


def _parse_constraints(ring: Field, constraints) -> tuple:
    """(expr, ne, expr parsed over ring, Fraction(ne)) per (expr, ne)."""
    return tuple((e, ne, ring.parse(e), Fraction(ne)) for e, ne in constraints)


def _check_constraints(label: str, constraints, point: dict):
    for expr, ne, value, excluded in constraints:
        if value.eval_at(point).value == excluded:
            raise ConstraintError(f"{label}constraint {expr} != {ne} "
                                  f"violated by {point}")


def _constraint_dicts(constraints) -> tuple:
    return tuple({"expr": e, "ne": ne} for e, ne in constraints)


@dataclass(frozen=True)
class Family:
    """One catalog entry: polynomial structure tables plus parameter data.

    Immutable: `branch` and `constraints` are fresh dicts on every read.
    The entries are parsed, and each symbolic pair is built, on first use
    and then kept on the object, which `get_family` shares.
    """

    name: str
    dim: int
    params: tuple
    _branch: tuple | None        # (name, values) or None
    _constraints: tuple          # ((expr, ne), ...)
    circ_entries: tuple
    star_entries: tuple | None   # None: single product; (): zero product
    notes: tuple
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    @property
    def branch(self) -> dict | None:
        """{"name": ..., "values": [...]} or None."""
        if self._branch is None:
            return None
        name, values = self._branch
        return {"name": name, "values": list(values)}

    @property
    def constraints(self) -> tuple:
        """({"expr": ..., "ne": ...}, ...)"""
        return _constraint_dicts(self._constraints)

    @property
    def branch_values(self):
        return self._branch[1] if self._branch else (None,)

    def ring(self) -> Field:
        names = list(self.params)
        if self._branch and self._branch[0] not in names:
            names.append(self._branch[0])
        return _ring(names)

    def _branch_point(self, value) -> dict:
        """{branch variable: value}, or {} for a family without a branch."""
        if self._branch is None:
            return {}
        name, values = self._branch
        if value not in values:
            raise ConstraintError(f"{self.name} needs a branch value from "
                                  f"{list(values)}, got {value!r}")
        return {name: _rational(value)}

    def _parsed(self):
        """(circ, star entries, constraints), all parsed over ring()."""
        def parse():
            ring = self.ring()
            circ, star = ([(i, j, k, ring.parse(str(c)))
                           for i, j, k, c in entries]
                          for entries in (self.circ_entries,
                                          self.star_entries or ()))
            return circ, star, _parse_constraints(ring, self._constraints)
        return _memoized(self._memo, "parsed", parse)

    def _tables(self, point: dict, target: Field) -> AlgebraPair:
        """Both tables with the variables named in point replaced by its
        rational values; the other variables must be variables of target.
        Families without a star table get the zero second product."""
        point = {v: target.scalar(q) for v, q in point.items()}

        def table(entries):
            return Algebra.from_entries(target, self.dim, [
                (i, j, k, substitute(c, point, target))
                for i, j, k, c in entries])

        circ, star, _ = self._parsed()
        return AlgebraPair(table(circ), table(star))

    def symbolic_pair(self, branch_value=None, ring=None) -> AlgebraPair:
        """The pair over a polynomial ring in the parameters, with the
        discrete branch variable substituted when the family has one;
        built once per branch value and ring."""
        ring = ring if ring is not None else _ring(self.params)
        point = self._branch_point(branch_value)
        return _memoized(self._memo, (branch_value, ring),
                         lambda: self._tables(point, ring))

    def check_constraints(self, assignment: dict):
        _check_constraints(f"{self.name}: ", self._parsed()[2], assignment)


@lru_cache(maxsize=1)
def load_catalog() -> dict:
    with resources.files("antiprelie.data").joinpath("catalog.json") \
            .open("r", encoding="utf-8") as fh:
        return json.load(fh)


_store = (None, {})


def _compiled():
    """(load_catalog(), the memo of what has been compiled from it).  The
    memo holds only objects built from that catalog object, each on first
    use, and starts empty again whenever load_catalog() returns another
    object, so it never outlives the data it was built from."""
    global _store
    data = load_catalog()
    if _store[0] is not data:
        _store = (data, {})
    return _store


def family_names():
    return A_NAMES + CA_NAMES


def get_family(name: str) -> Family:
    """The catalog's Family of that name, one shared object per catalog."""
    data, memo = _compiled()
    if name not in data["families"]:
        raise UnknownEntryError(f"unknown family {name!r}; valid names "
                                f"are A1..A9 and CA1..CA45")
    raw = data["families"][name]
    branch = raw["branch"]
    return _memoized(memo, ("family", name), lambda: Family(
        name=name, dim=raw["dim"], params=tuple(raw["params"]),
        _branch=(branch["name"], tuple(branch["values"])) if branch else None,
        _constraints=tuple((c["expr"], c["ne"]) for c in raw["constraints"]),
        circ_entries=tuple(tuple(e) for e in raw["circ"]),
        star_entries=(tuple(tuple(e) for e in raw["star"])
                      if raw["star"] is not None else None),
        notes=tuple(raw["notes"])))


def instantiate(f: Family, assignment: dict | None = None, branch=None,
                prime: int | None = None) -> AlgebraPair:
    """Concrete pair over Q (or GF(p)) at a rational parameter point.

    Constraints are checked on the rational values before any reduction
    mod p; a value whose denominator p divides raises ConstraintError.
    The point is substituted on every call, into entries parsed once.
    """
    assignment = {k: _rational(v) for k, v in (assignment or {}).items()}
    missing = [p for p in f.params if p not in assignment]
    if missing:
        raise ConstraintError(f"{f.name}: missing parameters {missing}")
    f.check_constraints(assignment)
    assignment.update(f._branch_point(branch))
    try:
        return f._tables(assignment, QQ if prime is None else GF(prime))
    except ZeroDivisionError:
        at = ", ".join(f"{v}={q}" for v, q in assignment.items())
        raise ConstraintError(f"{f.name}: a denominator vanishes mod "
                              f"{prime} at ({at})") from None


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AutomorphismFamily:
    """One automorphism family of a catalog entry.  Immutable:
    `constraints` are fresh dicts on every read, and the symbolic matrix
    is built once per ring and kept on the object."""

    parent: str
    index: int
    params: tuple
    units: tuple
    matrix_entries: tuple
    _constraints: tuple          # ((expr, ne), ...)
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    @property
    def constraints(self) -> tuple:
        """({"expr": ..., "ne": ...}, ...)"""
        return _constraint_dicts(self._constraints)

    def ring(self, extra=()) -> Field:
        names = list(self.params) + [v for v in extra if v not in self.params]
        return _ring(names, [u for u in self.units if u in names])

    def symbolic_matrix(self, ring=None) -> Matrix:
        ring = ring if ring is not None else self.ring()
        return _memoized(self._memo, ring, lambda: Matrix(
            ring, [[ring.parse(x) for x in row]
                   for row in self.matrix_entries]))

    def concrete_matrix(self, assignment: dict) -> Matrix:
        assignment = {k: _rational(v) for k, v in (assignment or {}).items()}
        for p in self.params:
            if p not in assignment:
                raise ConstraintError(f"missing automorphism parameter {p!r}")
            if p in self.units and assignment[p] == 0:
                raise ConstraintError(f"parameter {p!r} must be nonzero")
        constraints = _memoized(self._memo, "constraints", lambda:
                                _parse_constraints(self.ring(),
                                                   self._constraints))
        _check_constraints("automorphism ", constraints, assignment)
        return Matrix(QQ, [[substitute(x, assignment, QQ) for x in row]
                           for row in self.symbolic_matrix().entries])


def automorphism_families_of(name: str):
    """The automorphism families of the named entry, as a new list of the
    catalog's shared objects."""
    data, memo = _compiled()
    if name not in data["automorphisms"]:
        raise UnknownEntryError(f"no automorphism data for {name!r}")
    return list(_memoized(memo, ("automorphisms", name), lambda: tuple(
        AutomorphismFamily(
            parent=name, index=idx, params=tuple(raw["params"]),
            units=tuple(raw["units"]),
            matrix_entries=tuple(tuple(r) for r in raw["matrix"]),
            _constraints=tuple((c["expr"], c["ne"])
                               for c in raw["constraints"]))
        for idx, raw in enumerate(data["automorphisms"][name]))))


def automorphism_of(name: str, assignment: dict | None = None,
                    index: int = 0) -> Matrix:
    """A concrete automorphism of the named single-product family; the
    intertwining property is verified exactly before returning."""
    fams = automorphism_families_of(name)
    if not 0 <= index < len(fams):
        raise UnknownEntryError(
            f"{name} has {len(fams)} automorphism families")
    theta = fams[index].concrete_matrix(assignment or {})
    # verified over the parent's ring, symbolically in any lambda
    prod = get_family(name).symbolic_pair().circ
    ring = prod.field
    if not is_automorphism(Matrix(ring, [[ring.scalar(x) for x in row]
                                         for row in theta.entries]), prod):
        raise ConstraintError(f"map is not an automorphism of {name}")
    return theta


# ---------------------------------------------------------------------------
# deformation families
# ---------------------------------------------------------------------------

def case_for(name: str, lam, prime: int | None = None):
    """The deformation case of base `name` at lambda = lam, compared mod
    `prime` if given (where A8's -2 and 0 meet, 0 wins): the case named by
    lam or "generic" for a base split by cases (A6, A8), else None."""
    cases = load_catalog()["cocycle_families"].get(name, {})
    if "generic" not in cases:
        return None
    key = _rational if prime is None else \
        lambda c: _residue(_rational(c), prime)
    special = {key(c): c for c in cases if c != "generic"}
    return special.get(key(lam), "generic")


def cocycle_cases_of(name: str):
    data = load_catalog()["cocycle_families"]
    if name not in data:
        raise UnknownEntryError(f"no deformation family data for {name!r}")
    return tuple(data[name].keys())


def cocycle_families_of(name: str, case: str | None = None):
    """Parameterized phi families for a base algebra, as Algebras over a
    polynomial ring, in a new list of the catalog's shared tables.  A base
    with a case split (A6, A8) needs one of its case keys in
    catalog.json."""
    data, memo = _compiled()
    if name not in data["cocycle_families"]:
        raise UnknownEntryError(f"no deformation family data for {name!r} "
                                "(only A2..A9 are tabulated)")
    cases = data["cocycle_families"][name]
    if "" in cases:
        if case not in (None, ""):
            raise ConstraintError(f"{name} has no case split")
        case = ""
    elif case is None or case not in cases:
        raise ConstraintError(f"{name} needs a case from {sorted(cases)}")
    return list(_memoized(memo, ("cocycles", name, case), lambda: tuple(
        Algebra.from_entries(_ring(raw["params"]), 2, raw["phi"])
        for raw in cases[case])))


def base_for(name: str, case: str | None):
    """Base product for a deformation case: lambda at the case's value,
    kept symbolic for the generic case and bases without a split.  A
    special case must be one of the base's case keys in catalog.json."""
    fam = get_family(name)
    if case in (None, "", "generic"):
        return fam.symbolic_pair().circ
    data, memo = _compiled()
    if case not in data["cocycle_families"].get(name, ()):
        raise ConstraintError(f"{name} has no deformation case {case!r}")
    return _memoized(memo, ("base", name, case),
                     lambda: instantiate(fam, {"lambda": case}).circ)


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VerificationItem:
    scope: str
    name: str
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerificationReport:
    items: tuple

    @property
    def passed(self):
        return all(it.passed for it in self.items)

    def failures(self):
        return [it for it in self.items if not it.passed]

    def to_json(self):
        return {"passed": self.passed,
                "items": [{"scope": it.scope, "name": it.name,
                           "passed": it.passed, "detail": it.detail}
                          for it in self.items]}


def _verify_A_families():
    items = []
    for name in A_NAMES:
        fam = get_family(name)
        pair = fam.symbolic_pair()
        rep = check_identity(pair.circ, "anti_pre_lie")
        items.append(VerificationItem(
            "A-families", name, rep.passed,
            "" if rep.passed else f"{rep.failure_count} residuals"))
    return items


def _verify_CA_families():
    items = []
    for name in CA_NAMES:
        fam = get_family(name)
        ok, details = True, []
        for bv in fam.branch_values:
            pair = fam.symbolic_pair(branch_value=bv)
            rep = check_compatible_pair(pair)
            if not rep.passed:
                ok = False
                details.append(f"branch {bv}: {rep.failure_count} residuals")
        items.append(VerificationItem("CA-families", name, ok,
                                      "; ".join(details)))
    return items


def _verify_automorphisms():
    items = []
    for name in A_NAMES:
        fam = get_family(name)
        ok, details = True, []
        for af in automorphism_families_of(name):
            ring = af.ring(fam.params)
            prod = fam.symbolic_pair(ring=ring).circ
            if not is_automorphism(af.symbolic_matrix(ring), prod):
                ok = False
                details.append(f"member {af.index} fails to intertwine")
        items.append(VerificationItem("automorphisms", name, ok,
                                      "; ".join(details)))
    return items


def _cocycle_jobs(names=None):
    """(name, case, index, label, base, phi) for every cocycle family of
    the named bases, by default of every tabulated base."""
    if names is None:
        names = sorted(load_catalog()["cocycle_families"],
                       key=lambda s: (len(s), s))
    for name in names:
        for case in cocycle_cases_of(name):
            base = base_for(name, case)
            for idx, phi in enumerate(cocycle_families_of(name, case)):
                label = name + (f"@{case}" if case else "") + f"#{idx+1}"
                yield name, case, idx, label, base, phi


def _verify_cocycles():
    items = []
    for name, case, idx, label, base, phi in _cocycle_jobs():
        rep = verify_family_membership(base, phi)
        items.append(VerificationItem(
            "cocycles", label, rep.passed,
            "" if rep.passed else f"{rep.failure_count} residuals"))
    return items


def _automorphism_ref(ref: str):
    """'A3' or 'A4:1' -> (family list entry)."""
    name, _, idx = ref.partition(":")
    return automorphism_families_of(name)[int(idx or 0)]


def _moves_to(base: Algebra, phi: Algebra, theta: Matrix, law: dict,
              ring: Field) -> bool:
    """transform_deformation(phi, theta) equals phi at the mapped
    parameters, as an exact polynomial identity over ring."""
    moved = transform_deformation(Deformation(base, phi), theta)
    memo = _compiled()[1]
    mapping = {pname: _memoized(memo, ("expr", expr, ring),
                                lambda: ring.parse(expr))
               for pname, expr in law.items()}
    r = range(base.dim)
    expect_sc = [[[substitute(phi.sc[i][j][k], mapping, ring) for k in r]
                  for j in r] for i in r]
    return moved.phi == Algebra(ring, base.dim, expect_sc, base.basis)


def _verify_transformation(base: Algebra, phi: Algebra, af,
                           law: dict) -> bool:
    """The transformation law of a deformation family (Laurent in the
    unit parameter)."""
    base_vars = base.field.variables  # () over Q
    names = list(base_vars) + [v for v in phi.field.variables
                               if v not in base_vars]
    names += [p for p in af.params if p not in names]
    ring = _ring(names, af.units)
    phi_r = Algebra(ring, base.dim, cast_algebra(phi, ring).sc, base.basis)
    return _moves_to(cast_algebra(base, ring), phi_r, af.symbolic_matrix(ring),
                     law, ring)


def _verify_transformations():
    data = load_catalog()["cocycle_families"]
    items = []
    for name, case, idx, label, base, phi in _cocycle_jobs():
        raw = data[name][case][idx]
        law = raw.get("transformation")
        if not law:
            continue
        af = _automorphism_ref(law["automorphism"])
        ok = _verify_transformation(base, phi, af, law["map"])
        items.append(VerificationItem("transformations", label, ok))
    return items


def _verify_internal_isos():
    items = []
    for iso in load_catalog()["internal_isomorphisms"]:
        fam = get_family(iso["family"])
        af = _automorphism_ref(iso["automorphism"])
        ring = fam.ring()
        pair = fam.symbolic_pair(ring=ring)
        theta = af.symbolic_matrix(ring)
        ok = is_automorphism(theta, pair.circ) and _moves_to(
            pair.circ, pair.star, theta, iso["map"], ring)
        items.append(VerificationItem("internal-isos", iso["family"], ok))
    return items


def verify_catalog(scope: str = "all") -> VerificationReport:
    """Run the symbolic verification suite over the requested scope."""
    runners = {
        "A-families": _verify_A_families,
        "CA-families": _verify_CA_families,
        "automorphisms": _verify_automorphisms,
        "cocycles": _verify_cocycles,
        "transformations": _verify_transformations,
        "internal-isos": _verify_internal_isos,
    }
    if scope == "all":
        selected = list(SCOPES)
    elif scope in runners:
        selected = [scope]
    else:
        raise ValueError(f"unknown scope {scope!r}; choose from "
                         f"{('all',) + SCOPES}")
    items = []
    for sc in selected:
        items.extend(runners[sc]())
    return VerificationReport(tuple(items))
