"""The three workloads: inputs built from a seed, and one round of jobs.

A job is one call into antiprelie's public API, or one in-process
`antiprelie.cli.main([...])` invocation that writes its report with
`--out`.  `run_round(inputs, call)` makes the same jobs in the same
order on every round, so every run attempts whole rounds.  `call`
times a job and keeps its result; `meta` tells the checker what the
job's inputs were, in plain data.
"""
from __future__ import annotations

import random
from fractions import Fraction
from itertools import product as iproduct
from pathlib import Path

import antiprelie as apl
from antiprelie import catalog as cat
from antiprelie import cli
from spec import (ANTI_O_BASES, ANTI_O_PRIME, DOUBLES, NEGATIVE_PRIME,
                  NEGATIVE_SEED, ROUND_TRIPS, VECTOR_FIELDS,
                  VERIFY_FAMILIES, Z2_BASES, Z2_PRIME)


def cli_job(argv):
    """One in-process CLI invocation; the report lands in its --out file."""
    return cli.main(list(argv))


def rational_point(fam, rng):
    """Random small rationals for a family's parameters, meeting its
    constraints."""
    for _ in range(200):
        point = {p: Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))
                 for p in fam.params}
        try:
            fam.check_constraints(point)
            return point
        except apl.ConstraintError:
            continue
    raise RuntimeError(f"no admissible point for {fam.name}")


def _field(p):
    return apl.QQ if p is None else apl.GF(p)


# ---------------------------------------------------------------------------
# z2-brute-gf5
# ---------------------------------------------------------------------------

def build_z2(seed, workdir):
    rng = random.Random(seed)
    order = list(Z2_BASES)
    rng.shuffle(order)
    jobs, bases = [], []
    for idx, (name, lam) in enumerate(order):
        argv = ["z2", "--family", name, "--mode", "brute",
                "--prime", str(Z2_PRIME)]
        if lam is not None:
            argv += ["--params", f"lambda={lam}"]
        argv += ["--out", str(workdir / f"z2-{idx}.json")]
        jobs.append((argv, {"family": name, "lambda": lam}))
        assignment = {"lambda": lam} if lam is not None else {}
        bases.append(cat.instantiate(cat.get_family(name), assignment,
                                     prime=Z2_PRIME).circ)
    return {"jobs": jobs, "bases": bases}


def round_z2(inputs, call):
    for argv, meta in inputs["jobs"]:
        call("z2-brute", cli_job, argv, meta=meta, cli_out=argv[-1])


# ---------------------------------------------------------------------------
# catalog-symbolic
# ---------------------------------------------------------------------------

def _mutate(fam, rng, ring):
    """The family's symbolic pair with one structure constant changed."""
    bv = rng.choice(fam.branch_values) if fam.branch else None
    pair = fam.symbolic_pair(branch_value=bv)
    member = rng.choice(("circ", "star"))
    i, j, k = (rng.randrange(fam.dim) for _ in range(3))
    delta = ring.scalar(rng.choice((-2, -1, 1, 2)))
    if fam.params and rng.random() < 0.5:
        delta = delta * ring.variable(rng.choice(fam.params))
    table = getattr(pair, member)
    sc = [[list(row) for row in plane] for plane in table.sc]
    sc[i][j][k] = sc[i][j][k] + delta
    changed = apl.Algebra(ring, fam.dim, sc, table.basis)
    circ, star = ((changed, pair.star) if member == "circ"
                  else (pair.circ, changed))
    return circ, star, {"family": fam.name, "branch": bv, "member": member,
                        "slot": [i, j, k], "delta": str(delta)}


def build_catalog(seed, workdir):
    rng = random.Random(seed)
    cat.load_catalog()
    jobs = []
    for scope in cat.SCOPES:
        jobs.append((["catalog", "verify", "--scope", scope],
                     {"kind": "verify", "scope": scope}))
    for name in VERIFY_FAMILIES:
        jobs.append((["z2", "--family", name, "--mode", "verify"],
                     {"kind": "z2-verify", "family": name}))
    # every CA family once, so the mix of table sizes is the same on
    # every seed; the seed picks branch, member, slot and change
    for idx, name in enumerate(cat.CA_NAMES):
        fam = cat.get_family(name)
        ring = (apl.Field("poly", variables=fam.params) if fam.params
                else apl.QQ)
        circ, star, meta = _mutate(fam, rng, ring)
        path = workdir / f"mutated-{idx}.alg.json"
        apl.dump_algebra_file(path, circ, star)
        jobs.append((["check", "--pair", str(path), "--compatible"],
                     {"kind": "mutated", "file": str(path), **meta}))
    for idx, (argv, meta) in enumerate(jobs):
        argv += ["--out", str(workdir / f"catalog-{idx}.json")]
    return {"jobs": jobs}


def round_catalog(inputs, call):
    for argv, meta in inputs["jobs"]:
        call(meta["kind"], cli_job, argv, meta=meta, cli_out=argv[-1])


# ---------------------------------------------------------------------------
# constructions
# ---------------------------------------------------------------------------

def _random_table(rng, field, n):
    entries = [(i + 1, j + 1, k + 1, rng.randrange(field.p))
               for i, j, k in iproduct(range(n), repeat=3)]
    return apl.Algebra.from_entries(field, n, entries)


def negative_controls():
    """Fixed dim-3 GF(5) pairs whose check_compatible_pair report is
    compared with an independent failure count."""
    rng = random.Random(NEGATIVE_SEED)
    f = apl.GF(NEGATIVE_PRIME)
    zero = apl.Algebra.zero_algebra(f, 3)
    dense = [_random_table(rng, f, 3) for _ in range(4)]
    sparse = apl.Algebra.from_entries(f, 3, [(1, 1, 1, 1), (2, 3, 1, 2)])
    pairs = [apl.AlgebraPair(dense[0], zero), apl.AlgebraPair(dense[1], zero),
             apl.AlgebraPair(dense[2], dense[3]),
             apl.AlgebraPair(sparse, zero)]
    return [(P, {"index": i, "pair": apl.pair_to_json(P)})
            for i, P in enumerate(pairs)]


def build_constructions(seed, workdir):
    rng = random.Random(seed)
    vectors = []
    for p, dim in VECTOR_FIELDS:
        field = _field(p)

        def entry():
            return rng.randint(-3, 3) if p is None else rng.randrange(p)

        rows = [[0] * dim for _ in range(dim)]
        for i in range(dim):
            for j in range(i, dim):
                rows[i][j] = rows[j][i] = entry()
        s1 = [entry() for _ in range(dim)]
        s2 = [entry() for _ in range(dim)]
        form = apl.BilinearForm(apl.Matrix.from_rows(field, rows))
        vectors.append((form, [field.scalar(x) for x in s1],
                        [field.scalar(x) for x in s2],
                        {"p": p, "dim": dim, "gram": rows, "s1": s1,
                         "s2": s2}))

    f5 = apl.GF(ANTI_O_PRIME)
    anti_o = []
    for name, params, branch in ANTI_O_BASES:
        pair = cat.instantiate(cat.get_family(name), params, branch=branch,
                               prime=ANTI_O_PRIME)
        rep = apl.left_multiplication_pair(pair)
        maps = [(apl.Matrix.from_rows(f5, [[e[0], e[1]], [e[2], e[3]]]),
                 list(e)) for e in iproduct(range(ANTI_O_PRIME), repeat=4)]
        anti_o.append((name, rep, maps))

    names = list(cat.CA_NAMES)
    rng.shuffle(names)
    round_trips = []
    for name in names:
        if len(round_trips) == ROUND_TRIPS:
            break
        fam = cat.get_family(name)
        point = rational_point(fam, rng)
        bv = rng.choice(fam.branch_values) if fam.branch else None
        pair = cat.instantiate(fam, point, branch=bv)
        basis = apl.invariant_form_space(pair)
        for _ in range(20):
            coeffs = [rng.randint(-3, 3) for _ in basis]
            gram = apl.Matrix.zero(apl.QQ, pair.dim, pair.dim)
            for c, g in zip(coeffs, basis):
                gram = gram + g.scale(apl.QQ.scalar(c))
            if not gram.det().is_zero():
                round_trips.append((pair, apl.commutator_pair(pair),
                                    apl.BilinearForm(gram),
                                    _point_meta(name, point, bv)))
                break
    if len(round_trips) < ROUND_TRIPS:
        raise RuntimeError("too few nondegenerate invariant forms")

    doubles = []
    for name in names[-DOUBLES:]:
        fam = cat.get_family(name)
        point = rational_point(fam, rng)
        bv = rng.choice(fam.branch_values) if fam.branch else None
        doubles.append((cat.instantiate(fam, point, branch=bv),
                        _point_meta(name, point, bv)))

    return {"vectors": vectors, "anti_o": anti_o, "round_trips": round_trips,
            "doubles": doubles, "pairing": apl.pairing_form(2, apl.QQ),
            "negatives": negative_controls()}


def _point_meta(name, point, branch):
    return {"family": name, "branch": branch,
            "point": {k: str(v) for k, v in point.items()}}


def round_constructions(inputs, call):
    for form, s1, s2, meta in inputs["vectors"]:
        pair = call("construct_from_vectors", apl.construct_from_vectors,
                    form, s1, s2, meta=meta)
        call("check_compatible_pair", apl.check_compatible_pair, pair,
             meta={"of": "previous"})
        if meta["dim"] == 3:
            call("linear_space", apl.linear_space, pair.circ,
                 meta={"of": "construct_from_vectors", **meta})

    for base, (name, rep, maps) in enumerate(inputs["anti_o"]):
        for T, entries in maps:
            meta = {"base": base, "T": entries}
            if not call("check_anti_o", apl.check_anti_o, T, rep,
                        meta=meta).passed:
                continue
            call("check_strong", apl.check_strong, T, rep, meta=meta)
            induced = call("induce_on_domain", apl.induce_on_domain, T, rep,
                           meta=meta)
            call("check_compatible_pair", apl.check_compatible_pair,
                 induced, meta={"of": "previous"})
            det = call("det", apl.Matrix.det, T, meta=meta)
            if not det.is_zero():
                call("induce_from_invertible", apl.induce_from_invertible,
                     T, rep, meta=meta)

    for pair, brackets, form, meta in inputs["round_trips"]:
        call("invariant_form_space", apl.invariant_form_space, pair,
             meta=meta)
        call("induce_from_cocycle", apl.induce_from_cocycle, form, brackets,
             meta={**meta, "gram": _matrix_text(form.gram)})

    for pair, meta in inputs["doubles"]:
        rep = call("left_multiplication_pair", apl.left_multiplication_pair,
                   pair, meta=meta)
        dual = call("dual_pair", apl.dual_pair, rep, meta=meta)
        double = call("semidirect_product", apl.semidirect_product, dual,
                      meta=meta)
        call("check_comm_2cocycle", apl.check_comm_2cocycle,
             inputs["pairing"], double, meta={"of": "previous"})

    for pair, meta in inputs["negatives"]:
        call("negative_control", apl.check_compatible_pair, pair, meta=meta)


# ---------------------------------------------------------------------------
# shared plumbing
# ---------------------------------------------------------------------------

BUILD = {"z2-brute-gf5": build_z2, "catalog-symbolic": build_catalog,
         "constructions": build_constructions}
ROUND = {"z2-brute-gf5": round_z2, "catalog-symbolic": round_catalog,
         "constructions": round_constructions}


def build_inputs(name, seed, workdir: Path):
    return BUILD[name](seed, workdir)


def run_round(name, inputs, call):
    ROUND[name](inputs, call)


def _matrix_text(M):
    return [[str(x) for x in row] for row in M.entries]


def to_plain(out):
    """A job result as JSON-ready data for comparison and checking."""
    if isinstance(out, apl.CheckReport):
        return out.to_json()
    if isinstance(out, apl.AlgebraPair):
        return apl.pair_to_json(out)
    if isinstance(out, apl.RepresentationPair):
        return apl.representation_to_json(out)
    if isinstance(out, apl.Scalar):
        return str(out)
    if isinstance(out, list):
        return [to_plain(x) for x in out]
    if isinstance(out, apl.Algebra):
        return apl.algebra_to_json(out)
    if isinstance(out, apl.Matrix):
        return _matrix_text(out)
    raise TypeError(f"no plain form for {type(out).__name__}")


# ---------------------------------------------------------------------------
# operands for the scalar timings
# ---------------------------------------------------------------------------

def scalar_operands(name, inputs):
    """{field kind: [Scalar, ...]} drawn from this workload's inputs, and
    the coefficient strings (with their ring) its jobs parse."""
    ops = {"poly": [], "Q": [], "GF": []}
    texts = []
    if name == "z2-brute-gf5":
        for A in inputs["bases"]:
            ops["GF"] += [x for p in A.sc for r in p for x in r]
        for fam_name, _ in Z2_BASES:
            fam = cat.get_family(fam_name)
            texts += [(fam.ring(), str(e[3])) for e in fam.circ_entries]
    elif name == "catalog-symbolic":
        for fam_name in cat.CA_NAMES:
            fam = cat.get_family(fam_name)
            pair = fam.symbolic_pair(branch_value=fam.branch_values[0])
            if fam.params:
                ops["poly"] += [x for A in (pair.circ, pair.star)
                                for p in A.sc for r in p for x in r
                                if not x.is_zero()]
            texts += [(fam.ring(), str(e[3])) for e in
                      fam.circ_entries + (fam.star_entries or ())]
    else:
        for form, s1, s2, _ in inputs["vectors"]:
            kind = form.field.kind
            ops[kind] += [x for row in form.gram.entries for x in row]
            ops[kind] += list(s1) + list(s2)
        for _, rep, _ in inputs["anti_o"]:
            ops["GF"] += [x for M in rep.rho + rep.mu
                          for row in M.entries for x in row]
        for pair, _, _, _ in inputs["round_trips"]:
            ops["Q"] += [x for A in (pair.circ, pair.star)
                         for p in A.sc for r in p for x in r]
    return ops, texts
