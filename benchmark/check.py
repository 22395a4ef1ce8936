"""Correctness checks of one run, in a process of their own.

  check.py WORKLOAD SEED WARMUP_JSONL CATALOG_JSON

Reads the warm-up outputs written by worker.py and judges each job
against the independent references in reference.py.  The catalog is read
as data from its JSON file.  Prints one JSON object:

  verdicts     one bool per job of a round: its output passed its check
  known_fault  one bool per job: it failed with the signature of the
               16-witness failure_count cap of check_compatible_pair
  checks       workload-wide checks, by name
  notes        what failed, for a human
"""
from __future__ import annotations

import json
import random
import sys
from fractions import Fraction

import numpy as np

import reference as ref
import spec

CAP = 16


class Catalog:
    """Tables of the catalog as plain numbers, read from its JSON file."""

    def __init__(self, path):
        with open(path, encoding="utf-8") as fh:
            self.data = json.load(fh)

    def family(self, name):
        return self.data["families"][name]

    def tables(self, name, point, branch=None, p=None):
        """(circ, star) at a rational point; GF(p) residues when p is set."""
        fam = self.family(name)
        point = dict(point)
        if fam["branch"] is not None:
            point[fam["branch"]["name"]] = Fraction(branch)

        def conv(text):
            q = ref.eval_at(str(text), point)
            return q if p is None else ref.gf_value(q, p)

        zero = Fraction(0) if p is None else 0
        circ = ref.table_from_entries(fam["dim"], fam["circ"], conv, zero)
        star = ref.table_from_entries(fam["dim"], fam["star"] or [], conv,
                                      zero)
        return circ, star

    def admissible(self, constraints, point):
        return all(ref.eval_at(c["expr"], point) != Fraction(c["ne"])
                   for c in constraints)

    def random_point(self, params, constraints, rng):
        for _ in range(200):
            point = {v: Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3)))
                     for v in params}
            if self.admissible(constraints, point):
                return point
        raise RuntimeError("no admissible rational point")


def pair_tables(obj, convert):
    """(circ, star) number tables from an .alg.json-style object."""
    n = obj["dim"]
    zero = convert("0")
    circ = ref.table_from_entries(n, obj["products"]["circ"], convert, zero)
    star = ref.table_from_entries(n, obj["products"].get("star") or [],
                                  convert, zero)
    return circ, star


def converter(field):
    """Text -> number for an output's field descriptor, with its zero test."""
    if field["kind"] == "Q":
        return Fraction, ref.zero_test()
    if field["kind"] == "GF":
        p = field["p"]
        return (lambda t: ref.gf_value(Fraction(t), p)), ref.zero_test(p)
    from sympy import QQ
    from sympy.polys.rings import ring
    names = field["vars"]
    R, *_ = ring(",".join("v_" + v for v in names), QQ)
    return (lambda t: R(ref.parse_coeff(str(t), names))), ref.zero_test()


def same_tables(A, B, is_zero):
    return all(is_zero(x - y) for pa, pb in zip(A, B)
               for ra, rb in zip(pa, pb) for x, y in zip(ra, rb))


def compat_total(counts):
    return counts["circ"] + counts["star"] + counts["mixed"]


def check_count_report(report, counts):
    """A check_compatible_pair report against the independent counts."""
    total = compat_total(counts)
    return report["passed"] == (total == 0) and \
        report["failure_count"] == total


def capped_signature(report, counts):
    """The report the 16-witness cap produces: each member's failures cut
    to 16, the mixed failures kept."""
    capped = min(counts["circ"], CAP) + min(counts["star"], CAP) \
        + counts["mixed"]
    return (not report["passed"] and capped != compat_total(counts)
            and report["failure_count"] == capped)


# ---------------------------------------------------------------------------
# z2-brute-gf5
# ---------------------------------------------------------------------------

def check_z2(jobs, catalog, seed, out):
    p = spec.Z2_PRIME
    for job in jobs:
        name, lam = job["meta"]["family"], job["meta"]["lambda"]
        point = {"lambda": Fraction(lam)} if lam is not None else {}
        base, _ = catalog.tables(name, point, p=p)
        base = np.array(base, dtype=np.int64)
        expected = ref.step1_solutions(base, p)
        rep = job["output"]["report"]
        surplus = [tuple(int(v) for v in row) for row in rep["surplus"]]
        ok = (job["output"]["rc"] == 0 and rep["containment"] is True
              and rep["solution_count"] == len(expected)
              and rep["surplus_count"] == len(surplus)
              and rep["family_union_count"] + len(surplus)
              == rep["solution_count"]
              and all(row in expected and ref.step1_ok_np(
                  base, np.array(row).reshape(base.shape), p)
                  for row in surplus))
        out.verdict(ok, f"{name}@{lam}: {rep['solution_count']} solutions, "
                        f"reference {len(expected)}")
    out.checks["all_13_bases"] = len(jobs) == len(spec.Z2_BASES)


# ---------------------------------------------------------------------------
# catalog-symbolic
# ---------------------------------------------------------------------------

def ca_families_zero(catalog, rng, points=2):
    """Every CA family is a compatible pair at seeded rational points."""
    bad = []
    for name, fam in catalog.data["families"].items():
        if not name.startswith("CA"):
            continue
        branches = fam["branch"]["values"] if fam["branch"] else [None]
        for bv in branches:
            for _ in range(points):
                point = catalog.random_point(fam["params"],
                                             fam["constraints"], rng)
                C, S = catalog.tables(name, point, bv)
                if compat_total(ref.compat_failure_counts(
                        C, S, ref.zero_test())):
                    bad.append(f"{name}/{bv}")
    return bad


CASE_LAMBDA = {"0": 0, "-1": -1, "-2": -2}
GENERIC_EXCLUDED = {"A6": {0, -1}, "A8": {0, -1, -2}}


def deformations_zero(catalog, rng, points=2):
    """Each deformation family meets Step 1 at seeded rational points of
    its parameters (and of lambda in the generic cases)."""
    bad = {}
    for name, cases in catalog.data["cocycle_families"].items():
        fam = catalog.family(name)
        for case, block in cases.items():
            for idx, raw in enumerate(block):
                ok = True
                for _ in range(points):
                    point = {}
                    if "lambda" in fam["params"]:
                        if case in CASE_LAMBDA:
                            point["lambda"] = Fraction(CASE_LAMBDA[case])
                        else:
                            while True:
                                lam = Fraction(rng.randint(-6, 6),
                                               rng.choice((1, 2, 3)))
                                if lam not in GENERIC_EXCLUDED[name]:
                                    break
                            point["lambda"] = lam
                    base, _ = catalog.tables(name, point)
                    phi_point = {v: Fraction(rng.randint(-5, 5),
                                             rng.choice((1, 2, 3)))
                                 for v in raw["params"]}
                    phi = ref.table_from_entries(
                        2, raw["phi"],
                        lambda t: ref.eval_at(str(t), phi_point),
                        Fraction(0))
                    ok &= compat_total(ref.compat_failure_counts(
                        base, phi, ref.zero_test())) == 0
                bad[(name, case, idx)] = not ok
    return bad


def check_catalog(jobs, catalog, seed, out):
    rng = random.Random(seed)
    bad_ca = ca_families_zero(catalog, rng)
    bad_def = deformations_zero(catalog, rng)
    out.checks["ca_families_zero_at_points"] = not bad_ca
    out.checks["deformations_zero_at_points"] = not any(bad_def.values())
    if bad_ca:
        out.notes.append(f"CA families with residuals: {bad_ca}")
    items = memberships = 0
    mutated_broken = 0
    for job in jobs:
        meta, rc, rep = job["meta"], job["output"]["rc"], \
            job["output"]["report"]
        if meta["kind"] == "verify":
            scope = meta["scope"]
            items += len(rep["items"])
            ok = (rc == 0 and rep["passed"]
                  and len(rep["items"]) == spec.SCOPE_ITEMS[scope]
                  and all(it["passed"] for it in rep["items"]))
            if scope == "CA-families":
                ok &= not bad_ca
            if scope == "cocycles":
                ok &= not any(bad_def.values())
            out.verdict(ok, f"verify {scope}")
        elif meta["kind"] == "z2-verify":
            fam = meta["family"]
            memberships += len(rep["memberships"])
            ok = (rc == 0 and all(m["passed"] for m in rep["memberships"])
                  and not any(v for k, v in bad_def.items() if k[0] == fam))
            out.verdict(ok, f"z2 verify {fam}")
        else:
            with open(meta["file"], encoding="utf-8") as fh:
                obj = json.load(fh)
            convert, is_zero = converter(obj["field"])
            C, S = pair_tables(obj, convert)
            counts = ref.compat_failure_counts(C, S, is_zero)
            total = compat_total(counts)
            mutated_broken += total > 0
            check = rep["checks"][0]
            ok = (rc == (1 if total else 0) and rep["passed"] == (total == 0)
                  and check_count_report(check, counts))
            out.verdict(ok, f"mutated {meta['family']}: reference {counts}, "
                            f"reported {check['failure_count']}")
    out.checks["110_items"] = items == 110
    out.checks["22_memberships"] = memberships == 22
    out.checks["some_mutations_broken"] = mutated_broken > 0


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def check_constructions(jobs, catalog, seed, out):
    p5 = spec.ANTI_O_PRIME
    z5 = ref.zero_test(p5)
    reps = []
    for name, params, branch in spec.ANTI_O_BASES:
        point = {k: Fraction(v) for k, v in params.items()}
        C, S = catalog.tables(name, point, branch, p=p5)
        reps.append((ref.commutator_table(C), ref.commutator_table(S),
                     ref.left_mult_rep(C), ref.left_mult_rep(S)))
    expected_hits = [sum(ref.anti_o_ok([[e[0], e[1]], [e[2], e[3]]], *rep,
                                       z5)
                         for e in np.ndindex(*(p5,) * 4)) for rep in reps]
    hits = [0] * len(reps)
    implications = True
    prev = None          # (tables, is_zero, p) of the previous pair output
    strong = None
    construct = None
    double_rep = None
    for job in jobs:
        label, meta, output = job["label"], job["meta"], job["output"]
        ok = True
        note = label
        if label == "construct_from_vectors":
            p = meta["p"]
            is_zero = ref.zero_test(p)
            num = Fraction if p is None else int
            gram = [[num(x) for x in row] for row in meta["gram"]]
            C, S = pair_tables(output, converter(output["field"])[0])
            ok = all(same_tables(T, ref_vector_table(gram, s), is_zero)
                     for T, s in ((C, meta["s1"]), (S, meta["s2"])))
            ok &= compat_total(ref.compat_failure_counts(C, S, is_zero)) == 0
            ok &= ref.invariant_ok(gram, C, is_zero) and \
                ref.invariant_ok(gram, S, is_zero)
            prev = construct = ((C, S), is_zero, p)
        elif label == "check_compatible_pair":
            (C, S), is_zero = prev[0], prev[1]
            counts = ref.compat_failure_counts(C, S, is_zero)
            ok = check_count_report(output, counts)
            if strong is not None:
                ok &= output["passed"] == strong  # strong <=> compatible
                implications &= output["passed"] == strong
                strong = None
        elif label == "linear_space":
            (C, _), is_zero, p = construct
            convert = converter(output[0]["field"])[0] if output else None
            basis = [pair_tables(a, convert)[0] for a in output]
            rows = ref.mixed_rows([[[x for x in r] for r in pl] for pl in C])
            dim = len(C) ** 3 - ref.rank_exact(rows, p)
            flat = [[x for pl in phi for r in pl for x in r] for phi in basis]
            ok = (len(basis) == dim
                  and ref.rank_exact(flat, p) == len(basis)
                  and all(all(is_zero(sum(a * b for a, b in zip(row, v)))
                              for row in rows) for v in flat))
            note = f"linear_space: {len(basis)} vectors, reference {dim}"
        elif label == "check_anti_o":
            g1, g2, rho, mu = reps[meta["base"]]
            T = [meta["T"][0:2], meta["T"][2:4]]
            want = ref.anti_o_ok(T, g1, g2, rho, mu, z5)
            ok = output["passed"] == want
            hits[meta["base"]] += output["passed"]
        elif label == "check_strong":
            g1, g2, rho, mu = reps[meta["base"]]
            T = [meta["T"][0:2], meta["T"][2:4]]
            strong = ref.strong_ok(T, g1, g2, rho, mu, z5)
            ok = output["passed"] == strong
        elif label == "induce_on_domain":
            g1, g2, rho, mu = reps[meta["base"]]
            T = [meta["T"][0:2], meta["T"][2:4]]
            want = ref.induced_on_domain(T, rho, mu)
            got = pair_tables(output, converter(output["field"])[0])
            ok = all(same_tables(a, b, z5) for a, b in zip(got, want))
            prev = (got, z5, p5)
        elif label == "det":
            e = meta["T"]
            ok = int(output) % p5 == (e[0] * e[3] - e[1] * e[2]) % p5
        elif label == "induce_from_invertible":
            g1, g2, rho, mu = reps[meta["base"]]
            T = [meta["T"][0:2], meta["T"][2:4]]
            C, S = pair_tables(output, converter(output["field"])[0])
            recovered = (same_tables(ref.commutator_table(C), g1, z5)
                         and same_tables(ref.commutator_table(S), g2, z5))
            invertible_strong = ref.strong_ok(T, g1, g2, rho, mu, z5)
            ok = (recovered and invertible_strong
                  and compat_total(ref.compat_failure_counts(C, S, z5)) == 0)
            implications &= recovered and invertible_strong
        elif label == "invariant_form_space":
            C, S = catalog.tables(meta["family"], _point(meta),
                                  meta["branch"])
            grams = [[[Fraction(x) for x in row] for row in g]
                     for g in output]
            z = ref.zero_test()
            ok = bool(grams) and all(
                ref.symmetric_ok(g, z) and ref.invariant_ok(g, C, z)
                and ref.invariant_ok(g, S, z) for g in grams)
        elif label == "induce_from_cocycle":
            C, S = catalog.tables(meta["family"], _point(meta),
                                  meta["branch"])
            got = pair_tables(output, Fraction)
            gram = [[Fraction(x) for x in row] for row in meta["gram"]]
            z = ref.zero_test()
            ok = (same_tables(got[0], C, z) and same_tables(got[1], S, z)
                  and ref.invariant_ok(gram, got[0], z))
        elif label == "left_multiplication_pair":
            C, S = catalog.tables(meta["family"], _point(meta),
                                  meta["branch"])
            double_rep = (C, S)
            ok = _rep_matches(output, ref.left_mult_rep(C),
                              ref.left_mult_rep(S))
        elif label == "dual_pair":
            C, S = double_rep
            ok = _rep_matches(output, _dual(ref.left_mult_rep(C)),
                              _dual(ref.left_mult_rep(S)))
        elif label == "semidirect_product":
            C, S = double_rep
            got = pair_tables(output, Fraction)
            z = ref.zero_test()
            ok = (same_tables(got[0], _semidirect(C), z)
                  and same_tables(got[1], _semidirect(S), z))
            prev = (got, z, None)
        elif label == "check_comm_2cocycle":
            (G1, G2), z = prev[0], prev[1]
            pairing = [[Fraction(int((a + 2) % 4 == b)) for b in range(4)]
                       for a in range(4)]
            want = ref.cocycle_ok(pairing, G1, z) and \
                ref.cocycle_ok(pairing, G2, z)
            ok = output["passed"] == want and want
        elif label == "negative_control":
            convert, is_zero = converter(meta["pair"]["field"])
            C, S = pair_tables(meta["pair"], convert)
            counts = ref.compat_failure_counts(C, S, is_zero)
            ok = check_count_report(output, counts)
            out.known_fault.append(not ok and capped_signature(output,
                                                               counts))
            out.verdict(ok, f"negative control {meta['index']}: reference "
                            f"{counts}, reported {output['failure_count']}",
                        known=True)
            continue
        else:
            ok = False
            note = f"unknown job label {label}"
        out.verdict(ok, note)
    out.checks["anti_o_counts"] = hits == expected_hits
    out.checks["implications"] = implications
    if hits != expected_hits:
        out.notes.append(f"anti-O hits {hits}, reference {expected_hits}")


def _point(meta):
    return {k: Fraction(v) for k, v in meta["point"].items()}


def ref_vector_table(gram, s):
    """x.y = B(x,y)s - B(x,s)y"""
    n = len(gram)
    return [[[gram[i][j] * s[k] - (sum(gram[i][a] * s[a] for a in range(n))
                                   if k == j else 0)
              for k in range(n)] for j in range(n)] for i in range(n)]


def _dual(mats):
    return [[[-M[c][r] for c in range(len(M))] for r in range(len(M))]
            for M in mats]


def _semidirect(C):
    """[x+u, y+v] = [x,y] + rho(x)v - rho(y)u with rho the dual of -L."""
    n = len(C)
    G = ref.commutator_table(C)
    rho = _dual(ref.left_mult_rep(C))
    m = 2 * n
    T = [[[Fraction(0)] * m for _ in range(m)] for _ in range(m)]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                T[i][j][k] = G[i][j][k]
                T[i][n + j][n + k] = rho[i][k][j]
                T[n + j][i][n + k] = -rho[i][k][j]
    return T


def _rep_matches(obj, rho, mu):
    names = obj["g"]["basis"]
    z = ref.zero_test()

    def mats(block):
        return [[[Fraction(x) for x in row] for row in block[nm]]
                for nm in names]

    return all(same_tables([a], [b], z) for a, b in
               zip(mats(obj["rho"]) + mats(obj["mu"]), rho + mu))


# ---------------------------------------------------------------------------

class Outcome:
    def __init__(self):
        self.verdicts, self.known_fault = [], []
        self.checks, self.notes = {}, []

    def verdict(self, ok, note, known=False):
        self.verdicts.append(bool(ok))
        if not known:
            self.known_fault.append(False)
        if not ok:
            self.notes.append(note)


CHECKERS = {"z2-brute-gf5": check_z2, "catalog-symbolic": check_catalog,
            "constructions": check_constructions}


def main(argv):
    workload, seed, warmup, catalog_path = argv
    with open(warmup, encoding="utf-8") as fh:
        jobs = [json.loads(line) for line in fh]
    out = Outcome()
    CHECKERS[workload](jobs, Catalog(catalog_path), int(seed), out)
    if len(out.verdicts) != len(jobs):
        out.checks["every_job_judged"] = False
    print(json.dumps({"verdicts": out.verdicts,
                      "known_fault": out.known_fault,
                      "checks": out.checks, "notes": out.notes[:20]}))


if __name__ == "__main__":
    main(sys.argv[1:])
