"""The dimension-2 classification catalog and its machine verification.

Static data lives in data/catalog.json: the nine single-product
classification families A1-A9, the 45 compatible-pair families
CA1-CA45, automorphism group descriptions, deformation (Z^2) family
lists per base algebra, parameter-transformation laws, and the stated
internal isomorphisms.  The verification suite locks the transcription:
every table is re-checked symbolically on import of the test suite.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from importlib import resources

from .algebra import (Algebra, AlgebraPair, cast_algebra,
                      check_compatible_pair, check_identity)
from .cocycles import (Deformation, is_automorphism, transform_deformation,
                       verify_family_membership)
from .errors import ConstraintError, UnknownEntryError
from .linalg import Matrix
from .scalars import GF, QQ, Field, substitute

A_NAMES = tuple(f"A{i}" for i in range(1, 10))
CA_NAMES = tuple(f"CA{i}" for i in range(1, 46))

SCOPES = ("A-families", "CA-families", "automorphisms", "cocycles",
          "transformations", "internal-isos")


@dataclass(frozen=True)
class Family:
    """One catalog entry: polynomial structure tables plus parameter data."""

    name: str
    dim: int
    params: tuple
    branch: dict | None          # {"name": ..., "values": [...]} or None
    constraints: tuple           # ({"expr": ..., "ne": ...}, ...)
    circ_entries: tuple
    star_entries: tuple | None   # None: single product; (): zero product
    notes: tuple

    @property
    def branch_values(self):
        return tuple(self.branch["values"]) if self.branch else (None,)

    def ring(self, extra=()) -> Field:
        names = list(self.params)
        if self.branch and self.branch["name"] not in names:
            names.append(self.branch["name"])
        for v in extra:
            if v not in names:
                names.append(v)
        return Field("poly", variables=names) if names else QQ

    def symbolic_pair(self, branch_value=None, ring=None) -> AlgebraPair:
        """The pair over a polynomial ring in the parameters, with the
        discrete branch variable substituted when the family has one."""
        base_ring = self.ring()
        circ = Algebra.from_entries(base_ring, self.dim, self.circ_entries)
        star_entries = self.star_entries if self.star_entries is not None else ()
        star = Algebra.from_entries(base_ring, self.dim, star_entries)
        if self.branch is not None:
            if branch_value is None:
                raise ConstraintError(
                    f"{self.name} needs a branch value from "
                    f"{self.branch['values']}")
            if branch_value not in self.branch["values"]:
                raise ConstraintError(
                    f"{self.name}: branch value {branch_value!r} not in "
                    f"{self.branch['values']}")
        target = ring if ring is not None else \
            (Field("poly", variables=self.params) if self.params else QQ)
        mapping = {}
        if self.branch is not None:
            mapping[self.branch["name"]] = target.scalar(branch_value)

        def conv(A):
            sc = [[[substitute(A.sc[i][j][k], mapping, target)
                    for k in range(self.dim)] for j in range(self.dim)]
                  for i in range(self.dim)]
            return Algebra(target, self.dim, sc)

        return AlgebraPair(conv(circ), conv(star))

    def check_constraints(self, assignment: dict):
        ring = self.ring()
        for cons in self.constraints:
            val = ring.parse(cons["expr"]).eval_at(assignment)
            if val.value == Fraction(cons["ne"]):
                raise ConstraintError(
                    f"{self.name}: constraint {cons['expr']} != {cons['ne']} "
                    f"violated by {assignment}")


def _data():
    with resources.files("antiprelie.data").joinpath("catalog.json") \
            .open("r", encoding="utf-8") as fh:
        return json.load(fh)


@lru_cache(maxsize=1)
def load_catalog() -> dict:
    return _data()


def family_names():
    return A_NAMES + CA_NAMES


def get_family(name: str) -> Family:
    data = load_catalog()["families"]
    if name not in data:
        raise UnknownEntryError(f"unknown family {name!r}; valid names "
                                f"are A1..A9 and CA1..CA45")
    raw = data[name]
    return Family(
        name=name, dim=raw["dim"], params=tuple(raw["params"]),
        branch=raw["branch"], constraints=tuple(raw["constraints"]),
        circ_entries=tuple(tuple(e) for e in raw["circ"]),
        star_entries=(tuple(tuple(e) for e in raw["star"])
                      if raw["star"] is not None else None),
        notes=tuple(raw["notes"]))


def instantiate(f: Family, assignment: dict | None = None, branch=None,
                prime: int | None = None) -> AlgebraPair:
    """Concrete pair over Q (or GF(p)) at a rational parameter point.

    Constraints are checked on the rational values before any reduction
    mod p.  Families without a star table get the zero second product.
    """
    assignment = {k: Fraction(v) for k, v in (assignment or {}).items()}
    missing = [p for p in f.params if p not in assignment]
    if missing:
        raise ConstraintError(f"{f.name}: missing parameters {missing}")
    f.check_constraints(assignment)
    if f.branch is not None:
        if branch is None:
            raise ConstraintError(f"{f.name} needs a branch value from "
                                  f"{f.branch['values']}")
        if branch not in f.branch["values"]:
            raise ConstraintError(f"{f.name}: bad branch value {branch!r}")
        assignment[f.branch["name"]] = Fraction(branch)
    ring = f.ring()
    target = GF(prime) if prime is not None else QQ

    def conv(entries):
        out = []
        for i, j, k, text in entries:
            c = ring.parse(str(text))
            if ring.kind == "poly":
                c = c.eval_at(assignment)
            out.append((i, j, k, target.scalar(c.value)))
        return out

    circ = Algebra.from_entries(target, f.dim, conv(f.circ_entries))
    star = Algebra.from_entries(target, f.dim,
                                conv(f.star_entries or ()))
    return AlgebraPair(circ, star)


# ---------------------------------------------------------------------------
# automorphisms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AutomorphismFamily:
    parent: str
    index: int
    params: tuple
    units: tuple
    matrix_entries: tuple
    constraints: tuple

    def ring(self, extra=()) -> Field:
        names = list(self.params) + [v for v in extra if v not in self.params]
        units = [u for u in self.units if u in names]
        return Field("poly", variables=names, units=units) if names else QQ

    def symbolic_matrix(self, ring=None) -> Matrix:
        ring = ring if ring is not None else self.ring()
        return Matrix(ring, [[ring.parse(x) for x in row]
                             for row in self.matrix_entries])

    def concrete_matrix(self, assignment: dict) -> Matrix:
        assignment = {k: Fraction(v) for k, v in (assignment or {}).items()}
        for p in self.params:
            if p not in assignment:
                raise ConstraintError(f"missing automorphism parameter {p!r}")
            if p in self.units and assignment[p] == 0:
                raise ConstraintError(f"parameter {p!r} must be nonzero")
        ring = self.ring()
        for cons in self.constraints:
            val = ring.parse(cons["expr"])
            if ring.kind == "poly":
                val = val.eval_at(assignment)
            if val.value == Fraction(cons["ne"]):
                raise ConstraintError(
                    f"automorphism constraint {cons['expr']} != {cons['ne']} "
                    f"violated")
        rows = []
        for row in self.matrix_entries:
            out = []
            for x in row:
                c = ring.parse(x)
                if ring.kind == "poly":
                    c = c.eval_at(assignment)
                out.append(QQ.scalar(c.value))
            rows.append(out)
        return Matrix(QQ, rows)


def automorphism_families_of(name: str):
    data = load_catalog()["automorphisms"]
    if name not in data:
        raise UnknownEntryError(f"no automorphism data for {name!r}")
    out = []
    for idx, raw in enumerate(data[name]):
        out.append(AutomorphismFamily(
            parent=name, index=idx, params=tuple(raw["params"]),
            units=tuple(raw["units"]),
            matrix_entries=tuple(tuple(r) for r in raw["matrix"]),
            constraints=tuple(raw["constraints"])))
    return out


def automorphism_of(name: str, assignment: dict | None = None,
                    index: int = 0) -> Matrix:
    """A concrete automorphism of the named single-product family; the
    intertwining property is verified exactly before returning."""
    fams = automorphism_families_of(name)
    if not 0 <= index < len(fams):
        raise UnknownEntryError(
            f"{name} has {len(fams)} automorphism families")
    theta = fams[index].concrete_matrix(assignment or {})
    parent = get_family(name)
    # verified over the parent's ring, symbolically in any lambda
    ring = parent.ring()
    prod = Algebra.from_entries(ring, parent.dim, parent.circ_entries)
    if not is_automorphism(Matrix(ring, [[ring.scalar(x) for x in row]
                                         for row in theta.entries]), prod):
        raise ConstraintError(f"map is not an automorphism of {name}")
    return theta


# ---------------------------------------------------------------------------
# deformation families
# ---------------------------------------------------------------------------

_CASES = {"A6": ("0", "-1", "generic"), "A8": ("0", "-2", "generic")}


def case_for(name: str, lam):
    """The deformation case of base `name` at lambda = lam: A6 and A8
    split on their special values of lambda, other bases have no case."""
    if name not in _CASES:
        return None
    special = {Fraction(c): c for c in _CASES[name] if c != "generic"}
    return special.get(lam, "generic")


def cocycle_cases_of(name: str):
    data = load_catalog()["cocycle_families"]
    if name not in data:
        raise UnknownEntryError(f"no deformation family data for {name!r}")
    return tuple(data[name].keys())


def cocycle_families_of(name: str, case: str | None = None):
    """Parameterized phi families for a base algebra, as Algebras over a
    polynomial ring.  A6 and A8 need a case from {'0','-1','generic'} /
    {'0','-2','generic'} respectively."""
    data = load_catalog()["cocycle_families"]
    if name not in data:
        raise UnknownEntryError(f"no deformation family data for {name!r} "
                                "(only A2..A9 are tabulated)")
    cases = data[name]
    if name in _CASES:
        if case is None or case not in cases:
            raise ConstraintError(
                f"{name} needs a case from {sorted(cases)}")
        block = cases[case]
    else:
        if case not in (None, ""):
            raise ConstraintError(f"{name} has no case split")
        block = cases[""]
    out = []
    for raw in block:
        ring = Field("poly", variables=raw["params"]) if raw["params"] else QQ
        out.append(Algebra.from_entries(ring, 2, [tuple(e) for e in raw["phi"]]))
    return out


def base_for(name: str, case: str | None):
    """Symbolic base product for a deformation case (lambda kept symbolic
    for the generic cases)."""
    fam = get_family(name)
    if name == "A6":
        if case == "0":
            return Algebra.from_entries(QQ, 2, [(2, 1, 1, -1)])
        if case == "-1":
            return Algebra.from_entries(QQ, 2, [(2, 1, 1, -1), (2, 2, 2, -1)])
    if name == "A8":
        if case == "0":
            return Algebra.from_entries(QQ, 2, [(1, 2, 1, 1), (2, 2, 2, -1)])
        if case == "-2":
            return Algebra.from_entries(
                QQ, 2, [(1, 2, 1, -1), (2, 1, 1, -2), (2, 2, 2, -3)])
    ring = Field("poly", variables=fam.params) if fam.params else QQ
    return Algebra.from_entries(ring, 2, fam.circ_entries)


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
            prod = cast_algebra(
                Algebra.from_entries(fam.ring(), fam.dim, fam.circ_entries),
                ring)
            if not is_automorphism(af.symbolic_matrix(ring), prod):
                ok = False
                details.append(f"member {af.index} fails to intertwine")
        items.append(VerificationItem("automorphisms", name, ok,
                                      "; ".join(details)))
    return items


def _cocycle_jobs():
    data = load_catalog()["cocycle_families"]
    for name in sorted(data, key=lambda s: (len(s), s)):
        for case in data[name]:
            base = base_for(name, case or None)
            for idx, phi in enumerate(
                    cocycle_families_of(name, case or None)):
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
    if ":" in ref:
        name, idx = ref.split(":")
        return automorphism_families_of(name)[int(idx)]
    return automorphism_families_of(ref)[0]


def _moves_to(base: Algebra, phi: Algebra, theta: Matrix, law: dict,
              ring: Field) -> bool:
    """transform_deformation(phi, theta) equals phi at the mapped
    parameters, as an exact polynomial identity over ring."""
    moved = transform_deformation(Deformation(base, phi), theta)
    mapping = {pname: ring.parse(expr) for pname, expr in law.items()}
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
    ring = Field("poly", variables=names, units=af.units)
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
