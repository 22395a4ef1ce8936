import copy
import json
from fractions import Fraction
from pathlib import Path

import pytest

from antiprelie import (GF, QQ, Algebra, AlgebraPair, ConstraintError, Field,
                        Matrix, cast_pair,
                        automorphism_of,
                        check_compatible_lie, check_compatible_pair,
                        check_identity, cocycle_families_of, commutator_pair,
                        family_names, get_family, instantiate, pencil,
                        verify_catalog)
from antiprelie import algebra, catalog
from antiprelie.catalog import cocycle_cases_of
from antiprelie.scalars import substitute
from conftest import random_instance


def test_get_family_a5_table():
    fam = get_family("A5")
    assert set(fam.circ_entries) == {(1, 1, 2, "-1"), (2, 1, 1, "-1")}
    assert fam.star_entries is None


def test_get_family_ca26_star():
    fam = get_family("CA26")
    star = {(i, j, k): c for i, j, k, c in fam.star_entries}
    assert star[(2, 1, 1)] == "1" and star[(2, 2, 2)] == "1"


def test_get_family_unknown():
    with pytest.raises(KeyError):
        get_family("CA99")


def test_family_names_complete():
    names = family_names()
    assert len(names) == 54
    assert names[0] == "A1" and names[-1] == "CA45"


def test_instantiate_a8_constraint():
    fam = get_family("A8")
    with pytest.raises(ConstraintError):
        instantiate(fam, {"lambda": -1})
    pair = instantiate(fam, {"lambda": 2})
    assert check_identity(pair.circ, "anti_pre_lie").passed


def test_instantiate_ca16_constraint():
    fam = get_family("CA16")
    with pytest.raises(ConstraintError):
        instantiate(fam, {"gamma": 1})


def test_instantiate_ca10_pinned_table():
    pair = instantiate(get_family("CA10"), {"alpha": 0, "beta": 0})
    assert pair.circ.sc[0][0][0] == QQ.one()
    star = pair.star
    assert star.sc[1][0][0] == QQ.one()    # e2 * e1 = e1
    assert star.sc[0][1][0] == QQ.one()    # e1 * e2 = e1
    assert star.sc[1][1][1] == QQ.one()    # e2 * e2 = e2
    assert star.sc[0][0][0].is_zero() and star.sc[0][0][1].is_zero()


def test_instantiate_ca1_zero():
    pair = instantiate(get_family("CA1"))
    assert pair.circ.is_zero() and pair.star.is_zero()


def test_instantiate_requires_params_and_branch():
    with pytest.raises(ConstraintError):
        instantiate(get_family("CA10"), {"alpha": 1})
    with pytest.raises(ConstraintError):
        instantiate(get_family("CA11"), {"alpha": 1})   # branch missing
    with pytest.raises(ConstraintError):
        instantiate(get_family("CA11"), {"alpha": 1}, branch=2)


def test_every_instantiation_is_compatible(rng):
    for name in family_names():
        if name.startswith("A"):
            continue
        for _ in range(3):
            pair = random_instance(name, rng)
            assert check_compatible_pair(pair).passed, name


def test_projections_are_anti_pre_lie(rng):
    # both products of every pair instance satisfy the single-product
    # identities at 5 random parameter points
    for name in family_names():
        if name.startswith("A"):
            continue
        for _ in range(5):
            pair = random_instance(name, rng)
            assert check_identity(pair.circ, "anti_pre_lie").passed
            assert check_identity(pair.star, "anti_pre_lie").passed


def test_automorphism_a3_example():
    theta = automorphism_of("A3", {"a": 2, "b": 3})
    assert theta == Matrix.from_rows(QQ, [[2, 0], [3, 4]])


def test_automorphism_a2_zero_rejected():
    with pytest.raises(ConstraintError):
        automorphism_of("A2", {"a": 0})


def test_automorphism_identity_members():
    for name in ("A4", "A5"):
        assert automorphism_of(name, {}, index=0) == Matrix.identity(QQ, 2)


def test_automorphism_a1_determinant_constraint():
    with pytest.raises(ConstraintError):
        automorphism_of("A1", {"a": 1, "b": 2, "c": 2, "d": 4})
    theta = automorphism_of("A1", {"a": 1, "b": 0, "c": 1, "d": 1})
    assert not theta.det().is_zero()


def test_cocycle_families_counts():
    assert len(cocycle_families_of("A2")) == 3
    assert len(cocycle_families_of("A3")) == 4
    assert len(cocycle_families_of("A4")) == 1
    assert len(cocycle_families_of("A5")) == 2
    assert len(cocycle_families_of("A9")) == 1
    assert len(cocycle_families_of("A6", "0")) == 3
    assert len(cocycle_families_of("A6", "generic")) == 1
    assert len(cocycle_families_of("A8", "0")) == 3


def test_cocycle_families_a4_shape():
    fam, = cocycle_families_of("A4")
    ring = fam.field
    # leading coefficient of phi(e1,e1) is beta+gamma+delta on the
    # deformation variety (three free parameters)
    assert set(ring.variables) == {"beta", "gamma", "delta"}
    assert fam.sc[0][0][0] == ring.parse("beta+gamma+delta")
    assert fam.sc[0][0][1] == ring.parse("-beta")


def test_cocycle_families_a9_shape():
    fam, = cocycle_families_of("A9")
    ring = fam.field
    assert fam.sc[1][0][0] == ring.parse("alpha+beta")
    assert fam.sc[0][1][0] == ring.parse("2*alpha")


def test_cocycle_case_handling():
    with pytest.raises(ConstraintError):
        cocycle_families_of("A6")
    with pytest.raises(ConstraintError):
        cocycle_families_of("A2", "generic")
    with pytest.raises(KeyError):
        cocycle_families_of("A1")
    assert set(cocycle_cases_of("A8")) == {"0", "-2", "generic"}


@pytest.mark.parametrize("scope", ["A-families", "CA-families",
                                   "automorphisms", "cocycles",
                                   "transformations", "internal-isos"])
def test_verify_catalog_scopes(scope):
    report = verify_catalog(scope)
    assert report.passed, [it.name for it in report.failures()]


def test_verify_catalog_all_counts():
    report = verify_catalog("all")
    assert report.passed
    scopes = {it.scope for it in report.items}
    assert scopes == {"A-families", "CA-families", "automorphisms",
                      "cocycles", "transformations", "internal-isos"}
    assert sum(it.scope == "CA-families" for it in report.items) == 45
    assert sum(it.scope == "A-families" for it in report.items) == 9


def test_verify_catalog_unknown_scope():
    with pytest.raises(ValueError):
        verify_catalog("everything")


def _all_symbolic_pairs():
    for name in family_names():
        if name.startswith("A"):
            continue
        fam = get_family(name)
        for bv in fam.branch_values:
            yield name, bv, fam.symbolic_pair(branch_value=bv)


def test_subadjacent_jacobi_symbolic():
    # commutators of anti-pre-Lie products satisfy Jacobi, symbolically
    from antiprelie import commutator
    for name in family_names():
        fam = get_family(name)
        for bv in fam.branch_values:
            pair = fam.symbolic_pair(branch_value=bv)
            assert check_identity(commutator(pair.circ), "jacobi").passed, name
            assert check_identity(commutator(pair.star), "jacobi").passed, name


def test_commutator_pairs_compatible_lie_symbolic():
    for name, bv, pair in _all_symbolic_pairs():
        assert check_compatible_lie(commutator_pair(pair)).passed, (name, bv)


def test_symbolic_pencil_is_anti_pre_lie():
    # k1*circ + k2*star with symbolic k1, k2 satisfies both identities as
    # a polynomial identity, for every family and branch
    for name, bv, pair in _all_symbolic_pairs():
        old = pair.field
        vars_ = (list(old.variables) if old.kind == "poly" else []) \
            + ["k1", "k2"]
        ring = Field("poly", variables=vars_)
        lifted = cast_pair(pair, ring)
        star = pencil(lifted, ring.variable("k1"), ring.variable("k2"))
        assert check_identity(star, "anti_pre_lie").passed, (name, bv)


def _corrupted_catalog():
    """The catalog with every transformation law and internal isomorphism
    map shifted by one in its first parameter."""
    data = copy.deepcopy(catalog.load_catalog())
    for cases in data["cocycle_families"].values():
        for block in cases.values():
            for raw in block:
                law = raw.get("transformation")
                if law:
                    name = sorted(law["map"])[0]
                    law["map"][name] = f"({law['map'][name]})+1"
    for iso in data["internal_isomorphisms"]:
        name = sorted(iso["map"])[0]
        iso["map"][name] = f"({iso['map'][name]})+1"
    return data


@pytest.mark.parametrize("scope", ["transformations", "internal-isos"])
def test_verify_catalog_rejects_corrupted_laws(monkeypatch, scope):
    corrupted = _corrupted_catalog()
    monkeypatch.setattr(catalog, "load_catalog", lambda: corrupted)
    report = verify_catalog(scope)
    assert report.items and not any(it.passed for it in report.items)


def _mutated_catalog():
    """The catalog with one CA10 structure constant and one entry of A3's
    automorphism matrix changed."""
    data = copy.deepcopy(catalog.load_catalog())
    data["families"]["CA10"]["star"][2][3] = "2"
    data["automorphisms"]["A3"][0]["matrix"][1][1] = "a^3"
    return data


@pytest.mark.parametrize("scope, name, detail", [
    ("CA-families", "CA10", "branch None: 6 residuals"),
    ("automorphisms", "A3", "member 0 fails to intertwine")])
def test_verify_catalog_reports_a_mutated_entry(monkeypatch, scope, name,
                                                detail):
    from antiprelie.cli import main

    mutated = _mutated_catalog()
    monkeypatch.setattr(catalog, "load_catalog", lambda: mutated)
    report = verify_catalog(scope)
    failed = [it for it in report.items if not it.passed]
    assert [it.name for it in failed] == [name]
    assert failed[0].detail == detail
    assert main(["catalog", "verify", "--scope", scope]) == 1


# ---------------------------------------------------------------------------
# the A6/A8 case split and the special bases come from catalog.json only
# ---------------------------------------------------------------------------

SPECIAL_BASES = {
    ("A6", "0"): [(2, 1, 1, -1)],
    ("A6", "-1"): [(2, 1, 1, -1), (2, 2, 2, -1)],
    ("A8", "0"): [(1, 2, 1, 1), (2, 2, 2, -1)],
    ("A8", "-2"): [(1, 2, 1, -1), (2, 1, 1, -2), (2, 2, 2, -3)],
}


@pytest.mark.parametrize("name, case", sorted(SPECIAL_BASES))
def test_special_bases_match_literal_tables(name, case):
    expected = Algebra.from_entries(QQ, 2, SPECIAL_BASES[name, case])
    assert catalog.base_for(name, case) == expected


def test_generic_bases_keep_lambda_symbolic():
    for name in ("A6", "A8"):
        fam = get_family(name)
        ring = Field("poly", variables=["lambda"])
        expected = Algebra.from_entries(ring, 2, fam.circ_entries)
        assert catalog.base_for(name, "generic") == expected


def test_case_for_follows_the_cocycle_family_keys():
    generic = Fraction(7, 3)
    for name in catalog.A_NAMES:
        specials = sorted({case for fam, case in SPECIAL_BASES
                           if fam == name})
        if specials:
            assert sorted(cocycle_cases_of(name)) == \
                sorted(specials + ["generic"])
            for case in specials:
                assert catalog.case_for(name, Fraction(case)) == case
            assert catalog.case_for(name, generic) == "generic"
        else:
            for lam in (0, -1, -2, generic):
                assert catalog.case_for(name, Fraction(lam)) is None


def test_case_for_compares_residues_under_a_prime():
    assert catalog.case_for("A6", Fraction(4)) == "generic"
    assert catalog.case_for("A6", Fraction(4), 5) == "-1"
    assert catalog.case_for("A6", Fraction(5), 5) == "0"
    assert catalog.case_for("A6", Fraction(1, 4), 5) == "-1"
    assert catalog.case_for("A8", Fraction(3), 5) == "-2"
    assert catalog.case_for("A8", Fraction(3), 7) == "generic"
    assert catalog.case_for("A3", Fraction(4), 5) is None


# ---------------------------------------------------------------------------
# the one table builder against reference builders that parse every
# entry again and evaluate it with Fractions (eval_at) before reducing
# ---------------------------------------------------------------------------

def _oracle_symbolic_pair(fam, branch_value=None, ring=None):
    base_ring = fam.ring()
    circ = Algebra.from_entries(base_ring, fam.dim, fam.circ_entries)
    star = Algebra.from_entries(base_ring, fam.dim, fam.star_entries or ())
    if fam.branch is not None:
        if branch_value is None:
            raise ConstraintError("needs a branch value")
        if branch_value not in fam.branch["values"]:
            raise ConstraintError("bad branch value")
    target = ring if ring is not None else \
        (Field("poly", variables=fam.params) if fam.params else QQ)
    mapping = {}
    if fam.branch is not None:
        mapping[fam.branch["name"]] = target.scalar(branch_value)

    def conv(A):
        sc = [[[substitute(A.sc[i][j][k], mapping, target)
                for k in range(fam.dim)] for j in range(fam.dim)]
              for i in range(fam.dim)]
        return Algebra(target, fam.dim, sc)

    return AlgebraPair(conv(circ), conv(star))


def _oracle_instantiate(f, assignment=None, branch=None, prime=None):
    assignment = {k: Fraction(v) for k, v in (assignment or {}).items()}
    missing = [p for p in f.params if p not in assignment]
    if missing:
        raise ConstraintError(f"{f.name}: missing parameters {missing}")
    f.check_constraints(assignment)
    if f.branch is not None:
        if branch is None:
            raise ConstraintError("needs a branch value")
        if branch not in f.branch["values"]:
            raise ConstraintError("bad branch value")
        assignment[f.branch["name"]] = Fraction(branch)
    # a parameter whose denominator vanishes mod p is refused, whether or
    # not an entry uses it
    if prime is not None and any(q.denominator % prime == 0
                                 for q in assignment.values()):
        raise ZeroDivisionError(f"a denominator vanishes mod {prime}")
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

    return AlgebraPair(Algebra.from_entries(target, f.dim,
                                            conv(f.circ_entries)),
                       Algebra.from_entries(target, f.dim,
                                            conv(f.star_entries or ())))


def _oracle_concrete_matrix(af, assignment):
    assignment = {k: Fraction(v) for k, v in (assignment or {}).items()}
    for p in af.params:
        if p not in assignment:
            raise ConstraintError(f"missing automorphism parameter {p!r}")
        if p in af.units and assignment[p] == 0:
            raise ConstraintError(f"parameter {p!r} must be nonzero")
    ring = af.ring()
    for cons in af.constraints:
        val = ring.parse(cons["expr"])
        if ring.kind == "poly":
            val = val.eval_at(assignment)
        if val.value == Fraction(cons["ne"]):
            raise ConstraintError("automorphism constraint violated")
    rows = []
    for row in af.matrix_entries:
        out = []
        for x in row:
            c = ring.parse(x)
            if ring.kind == "poly":
                c = c.eval_at(assignment)
            out.append(QQ.scalar(c.value))
        rows.append(out)
    return Matrix(QQ, rows)


def _outcome(fn, *args, **kwargs):
    """fn's result, or the type of the error it raised; a zero denominator
    mod p, which the reference builders let escape as ZeroDivisionError,
    counts as the ConstraintError that instantiate raises."""
    try:
        return fn(*args, **kwargs)
    except ZeroDivisionError:
        return ConstraintError
    except Exception as exc:  # noqa: BLE001 - compared by type
        return type(exc)


def _point(names, rng):
    """Rationals with small numerators, zero included, and denominators
    that vanish mod 2, 3, 5 or 7."""
    return {v: Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2, 3, 5, 7)))
            for v in names}


@pytest.mark.parametrize("prime", [None, 2, 3, 5, 7])
def test_instantiate_matches_reference_builder(rng, prime):
    for name in family_names():
        fam = get_family(name)
        for branch in fam.branch_values + (2, None):
            for _ in range(4):
                point = _point(fam.params, rng)
                if fam.params and rng.random() < 0.1:
                    point.pop(fam.params[0])
                expected = _outcome(_oracle_instantiate, fam, point, branch,
                                    prime)
                assert _outcome(instantiate, fam, point, branch=branch,
                                prime=prime) == expected, (name, point)


def test_symbolic_pair_matches_reference_builder():
    for name in family_names():
        fam = get_family(name)
        for branch in fam.branch_values + (2, None):
            assert _outcome(fam.symbolic_pair, branch_value=branch) == \
                _outcome(_oracle_symbolic_pair, fam, branch), (name, branch)
            ring = fam.ring()
            assert _outcome(fam.symbolic_pair, branch, ring) == \
                _outcome(_oracle_symbolic_pair, fam, branch, ring)


def test_concrete_matrix_matches_reference_builder(rng):
    for name in catalog.A_NAMES:
        for af in catalog.automorphism_families_of(name):
            for _ in range(20):
                point = _point(af.params, rng)
                assert _outcome(af.concrete_matrix, point) == \
                    _outcome(_oracle_concrete_matrix, af, point), point


# ---------------------------------------------------------------------------
# the compiled catalog: every table it shares equals a fresh parse of
# catalog.json, it follows the load_catalog() object, and it caches no
# verdict
# ---------------------------------------------------------------------------

def _raw_catalog():
    """catalog.json read again from the package data, apart from
    load_catalog()."""
    path = Path(catalog.__file__).parent / "data" / "catalog.json"
    return json.loads(path.read_text(encoding="utf-8"))


def _poly(names, units=()):
    return Field("poly", variables=names, units=units) if names else QQ


def _fresh_pair(raw, branch_value, ring):
    """The family's pair over ring, parsed from its raw entries with the
    branch variable, if any, substituted by branch_value."""
    branch = raw["branch"]
    names = list(ring.variables)
    if branch and branch["name"] not in names:
        names.append(branch["name"])
    parse_ring = _poly(names)
    point = {branch["name"]: ring.scalar(branch_value)} if branch else {}

    def table(entries):
        A = Algebra.from_entries(parse_ring, raw["dim"], entries)
        return Algebra(ring, A.dim, [[[substitute(x, point, ring)
                                       for x in row] for row in plane]
                                     for plane in A.sc])

    return AlgebraPair(table(raw["circ"]), table(raw["star"] or ()))


def test_compiled_families_match_a_fresh_parse():
    raw = _raw_catalog()["families"]
    for name in family_names():
        fam, entry = get_family(name), raw[name]
        assert get_family(name) is fam
        wide = list(entry["params"])
        if entry["branch"] and entry["branch"]["name"] not in wide:
            wide.append(entry["branch"]["name"])
        for bv in fam.branch_values:
            default = _fresh_pair(entry, bv, _poly(entry["params"]))
            at_ring = _fresh_pair(entry, bv, _poly(wide))
            for _ in range(2):
                assert fam.symbolic_pair(bv) == default, (name, bv)
                assert fam.symbolic_pair(bv, fam.ring()) == at_ring


def test_compiled_cocycle_families_and_bases_match_a_fresh_parse():
    data = _raw_catalog()
    for name, cases in data["cocycle_families"].items():
        fam = data["families"][name]
        for case, block in cases.items():
            fresh = [Algebra.from_entries(_poly(raw["params"]), 2, raw["phi"])
                     for raw in block]
            got = cocycle_families_of(name, case)
            assert got == fresh, (name, case)
            got.append(got[0])
            assert cocycle_families_of(name, case) == fresh
            if case in ("", "generic"):
                base = _fresh_pair(fam, None, _poly(fam["params"])).circ
            else:
                ring = _poly(["lambda"])
                base = Algebra.from_entries(QQ, 2, [
                    (i, j, k, ring.parse(str(c)).eval_at({"lambda": case}))
                    for i, j, k, c in fam["circ"]])
            assert catalog.base_for(name, case) == base, (name, case)
            assert catalog.base_for(name, case) == base


def test_compiled_automorphism_matrices_match_a_fresh_parse():
    data = _raw_catalog()["automorphisms"]
    for name, block in data.items():
        families = catalog.automorphism_families_of(name)
        assert len(families) == len(block)
        for af, raw in zip(families, block):
            ring = _poly(raw["params"], raw["units"])
            fresh = Matrix(ring, [[ring.parse(x) for x in row]
                                  for row in raw["matrix"]])
            assert af.symbolic_matrix() == fresh, name
            assert af.symbolic_matrix(ring) == fresh
            assert list(af.constraints) == raw["constraints"]


def test_shared_families_hand_out_copies():
    fam = get_family("CA35")
    fam.branch["values"].append(7)
    fam.constraints[0]["ne"] = "5"
    assert get_family("CA35").branch == {"name": "delta", "values": [0, 1]}
    assert get_family("CA35").constraints[0] == {"expr": "lambda",
                                                  "ne": "0"}
    with pytest.raises(ConstraintError):
        instantiate(fam, {"lambda": 0, "alpha": 1, "beta": 1}, branch=0)
    families = catalog.automorphism_families_of("A1")
    families.clear()
    assert len(catalog.automorphism_families_of("A1")) == 1


def test_base_for_refuses_a_case_the_catalog_lacks():
    with pytest.raises(ConstraintError):
        catalog.base_for("A6", "5")
    with pytest.raises(ConstraintError):
        catalog.base_for("A3", "0")


def test_compiled_catalog_follows_load_catalog(monkeypatch):
    assert verify_catalog("CA-families").passed  # fills the compiled store
    mutated = _mutated_catalog()
    monkeypatch.setattr(catalog, "load_catalog", lambda: mutated)
    report = verify_catalog("CA-families")
    assert [it.name for it in report.failures()] == ["CA10"]
    monkeypatch.undo()
    assert verify_catalog("CA-families").passed


def test_compiled_catalog_caches_no_verdict(monkeypatch):
    calls = []
    residuals = algebra._residuals

    def counted(*args, **kwargs):
        calls.append(1)
        return residuals(*args, **kwargs)
    monkeypatch.setattr(algebra, "_residuals", counted)
    counts = []
    for _ in range(2):
        calls.clear()
        assert verify_catalog("CA-families").passed
        counts.append(len(calls))
    assert counts[0] == counts[1] > 0
