"""Batch command-line front end.

Exit codes: 0 all requested checks pass, 1 some check failed, 2 malformed
input or configuration.  Reports are JSON on stdout (or --out) with a
fixed schema version; human-readable summaries go to stderr.
"""
from __future__ import annotations

import argparse
import json
import sys

from . import catalog as cat
from .algebra import (IDENTITY_KINDS, AlgebraPair,
                      check_compatible_associative, check_compatible_lie,
                      check_compatible_pair, check_identity,
                      load_algebra_file, pair_to_json)
from .cocycles import (DEFAULT_BUDGET, MAX_BUDGET, brute_force_Z2,
                       check_budget, instantiate_family_gf,
                       linear_space, verify_family_membership)
from .errors import ParseError, PreconditionError, ToolkitError
from .forms import (construct_from_vectors, induce_from_cocycle,
                    load_form_file)
from .linalg import Matrix
from .operators import (check_anti_o, check_anti_rota_baxter,
                        check_rb_converse, check_strong, induce_from_invertible,
                        induce_from_rb, induce_on_domain)
from .representations import (check_representation_pair, dual_pair,
                              load_representation_file,
                              representation_to_json, semidirect_product)
from .scalars import QQ, _read_json

SCHEMA_VERSION = 1

# the options each derive construction and ops action reads
_REQUIRED = {("derive", "from-cocycle"): "form brackets",
             ("derive", "from-vectors"): "form s1 s2",
             ("derive", "from-rb"): "brackets map",
             ("derive", "from-anti-o"): "rep map",
             ("derive", "from-invertible"): "rep map",
             ("derive", "semidirect"): "rep", ("ops", "anti-o"): "rep",
             ("ops", "strong"): "rep", ("ops", "rb"): "brackets"}


def parse_params(text: str | None) -> dict:
    """--params "alpha=1,beta=-2/3" -> {"alpha": Fraction(1), ...}; each
    value is read with the coefficient grammar, over Q."""
    out = {}
    if not text:
        return out
    for piece in text.split(","):
        piece = piece.strip()
        if not piece:
            continue
        if "=" not in piece:
            raise ParseError(f"bad parameter assignment {piece!r}")
        name, value = piece.split("=", 1)
        name = name.strip()
        if name in out:
            raise ParseError(f"parameter {name} given twice")
        try:
            out[name] = QQ.parse(value.strip()).value
        except (ParseError, ValueError) as exc:
            raise ParseError(f"bad rational {value!r}") from exc
    return out


def parse_vector(text: str, dim: int, field):
    """Accept a basis name (e1), "0", or comma-separated coefficients."""
    text = text.strip()
    if text == "0":
        return [field.zero()] * dim
    if text.startswith("e") and text[1:].isdigit():
        i = int(text[1:])
        if not 1 <= i <= dim:
            raise ParseError(f"basis vector {text!r} out of range")
        return [field.one() if t == i - 1 else field.zero()
                for t in range(dim)]
    parts = text.split(",")
    if len(parts) != dim:
        raise ParseError(f"vector {text!r} must have {dim} coefficients")
    return [field.parse(p.strip()) for p in parts]


def emit(report: dict, args, summary: str) -> None:
    report = {"schema_version": SCHEMA_VERSION, **report}
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    out = getattr(args, "out", None)
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(summary, file=sys.stderr)


def _load_map(path, field) -> Matrix:
    return Matrix.from_json(_read_json(path), field)


def load_pair(path) -> AlgebraPair:
    circ, star = load_algebra_file(path)
    if star is None:
        raise ParseError(f"{path} holds a single product; a pair is needed")
    return AlgebraPair(circ, star)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_check(args) -> int:
    checks = []
    wants_pair = (args.compatible or args.compatible_lie
                  or args.compatible_associative)
    if args.identity:
        if not args.file:
            raise ParseError("--identity needs --file")
        circ, _ = load_algebra_file(args.file)
        checks.append((args.identity,
                       check_identity(circ, args.identity.replace("-", "_"))))
    if wants_pair:
        path = args.pair or args.file
        if not path:
            raise ParseError("pair checks need --pair FILE")
        pair = load_pair(path)
        if args.compatible:
            checks.append(("compatible", check_compatible_pair(pair)))
        if args.compatible_lie:
            checks.append(("compatible-lie", check_compatible_lie(pair)))
        if args.compatible_associative:
            checks.append(("compatible-associative",
                           check_compatible_associative(pair)))
    if not checks:
        raise ParseError("nothing to check; pass --identity or a pair flag")
    passed = all(rep.passed for _, rep in checks)
    emit({"command": "check",
          "passed": passed,
          "checks": [{"name": name, **rep.to_json()} for name, rep in checks]},
         args,
         f"check: {'PASS' if passed else 'FAIL'} "
         f"({len(checks)} check(s))")
    return 0 if passed else 1


def cmd_catalog(args) -> int:
    if args.action != "show" and args.name is not None:
        raise ParseError(f"catalog {args.action} takes no family name")
    if args.action != "verify" and args.scope is not None:
        raise ParseError("--scope applies only to catalog verify")
    if args.action == "list":
        names = list(cat.family_names())
        emit({"command": "catalog-list", "families": names}, args,
             f"{len(names)} families")
        return 0
    if args.action == "show":
        if args.name is None:
            raise ParseError("catalog show needs a family name")
        fam = cat.get_family(args.name)
        emit({"command": "catalog-show", "name": fam.name,
              "dim": fam.dim, "params": list(fam.params),
              "branch": fam.branch,
              "constraints": list(fam.constraints),
              "circ": [list(e) for e in fam.circ_entries],
              "star": ([list(e) for e in fam.star_entries]
                       if fam.star_entries is not None else None),
              "notes": list(fam.notes)}, args,
             f"{fam.name}: params={list(fam.params)}")
        return 0
    scope = args.scope or "all"  # the choices leave only "verify"
    report = cat.verify_catalog(scope)
    emit({"command": "catalog-verify", "scope": scope,
          **report.to_json()}, args,
         f"catalog verify [{scope}]: "
         f"{'PASS' if report.passed else 'FAIL'} ({len(report.items)} items)")
    return 0 if report.passed else 1


def cmd_z2(args) -> int:
    if args.mode != "brute" and args.budget is not None:
        raise ParseError("--budget applies only to z2 --mode brute")
    budget = check_budget(DEFAULT_BUDGET if args.budget is None
                          else args.budget)
    params = parse_params(args.params)
    name = args.family
    fam = cat.get_family(name)
    if name not in cat.A_NAMES:
        raise ParseError("z2 runs on the single-product families A1..A9")
    stray = sorted(set(params) - set(fam.params))
    if stray:
        raise ParseError(f"{name} takes no parameter {', '.join(stray)}")
    if args.mode == "verify" and args.params is not None:
        raise ParseError("z2 --mode verify checks every case symbolically, "
                         "so --params selects nothing")
    lam = params.get("lambda")
    if "lambda" in fam.params and lam is None and args.mode != "verify":
        raise ParseError(f"{name} needs --params \"lambda=...\"")
    report = {"command": "z2", "family": name, "mode": args.mode,
              "prime": args.prime}
    ok = True

    if args.mode == "verify":
        items = []
        for _, case, idx, _, base, phi in cat._cocycle_jobs([name]):
            rep = verify_family_membership(base, phi)
            ok &= rep.passed
            items.append({"case": case, "family_index": idx,
                          "passed": rep.passed,
                          "failure_count": rep.failure_count})
        report["memberships"] = items
        emit(report, args, f"z2 verify {name}: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1

    base_p = cat.instantiate(fam, params, prime=args.prime).circ

    if args.mode == "linear":
        basis_q = linear_space(cat.instantiate(fam, params).circ)
        basis_p = linear_space(base_p)
        report["linear_dimension_Q"] = len(basis_q)
        report["linear_dimension_GF"] = len(basis_p)
        report["basis_GF"] = [[str(x) for plane in b.sc for row in plane
                               for x in row] for b in basis_p]
        ok = len(basis_q) == len(basis_p)
        emit(report, args,
             f"z2 linear {name}: dim {len(basis_q)} over Q, "
             f"{len(basis_p)} over GF({args.prime})")
        return 0 if ok else 1

    # brute force + containment tallies; a base without tabulated
    # families is rejected before the scan
    families = cat.cocycle_families_of(
        name, cat.case_for(name, lam, args.prime))
    sols = brute_force_Z2(base_p, budget=budget)
    flat_sols = set(map(tuple, sols.table.tolist()))
    union = set()
    tallies = []
    for idx, phi in enumerate(families):
        members = instantiate_family_gf(phi, args.prime)
        contained = members <= flat_sols
        ok &= contained
        union |= members
        tallies.append({"family_index": idx, "members": len(members),
                        "contained": contained})
    surplus = sorted(flat_sols - union)
    report.update({
        "solution_count": len(sols),
        "family_union_count": len(union),
        "containment": union <= flat_sols,
        "equality": union == flat_sols,
        "memberships": tallies,
        "surplus_count": len(surplus),
        "surplus": [[str(v) for v in row] for row in surplus],
    })
    emit(report, args,
         f"z2 brute {name} over GF({args.prime}): {len(sols)} solutions, "
         f"union {len(union)}, surplus {len(surplus)}")
    return 0 if ok else 1


def _emit_pair(pair: AlgebraPair, args, checker, check_name: str,
               command: str) -> int:
    rep = checker(pair)
    emit_path = getattr(args, "emit", None)
    if emit_path:
        from .algebra import dump_algebra_file
        dump_algebra_file(emit_path, pair.circ, pair.star)
    out_json = {"command": command, "passed": rep.passed,
                "algebra": pair_to_json(pair),
                "verification": {"name": check_name, **rep.to_json()}}
    emit(out_json, args,
         f"{command}: {'PASS' if rep.passed else 'FAIL'}")
    return 0 if rep.passed else 1


def cmd_derive(args) -> int:
    c = args.construction
    if c == "from-cocycle":
        pair = load_pair(args.brackets)
        out = induce_from_cocycle(load_form_file(args.form, pair.field), pair)
    elif c == "from-vectors":
        form = load_form_file(args.form, QQ)
        s1 = parse_vector(args.s1, form.dim, QQ)
        s2 = parse_vector(args.s2, form.dim, QQ)
        out = construct_from_vectors(form, s1, s2)
    elif c == "from-rb":
        pair = load_pair(args.brackets)
        out = induce_from_rb(_load_map(args.map, pair.field), pair)
    elif c == "semidirect":
        out = semidirect_product(load_representation_file(args.rep))
        return _emit_pair(out, args, check_compatible_lie, "compatible-lie",
                          "derive-semidirect")
    else:
        rep = load_representation_file(args.rep)
        induce = induce_on_domain if c == "from-anti-o" \
            else induce_from_invertible
        out = induce(_load_map(args.map, rep.field), rep)
    return _emit_pair(out, args, check_compatible_pair, "compatible",
                      f"derive-{c}")


def cmd_rep(args) -> int:
    rep = load_representation_file(args.rep)
    if args.action == "check":
        res = check_representation_pair(rep)
        emit({"command": "rep-check", "passed": res.passed,
              **res.to_json()}, args,
             f"rep check: {'PASS' if res.passed else 'FAIL'}")
        return 0 if res.passed else 1
    if args.action == "dual":
        d = dual_pair(rep)
        res = check_representation_pair(d)
        emit({"command": "rep-dual", "passed": res.passed,
              "representation": representation_to_json(d),
              "verification": res.to_json()}, args,
             f"rep dual: {'PASS' if res.passed else 'FAIL'}")
        return 0 if res.passed else 1
    pair = semidirect_product(rep)  # the choices leave only "semidirect"
    return _emit_pair(pair, args, check_compatible_lie, "compatible-lie",
                      "rep-semidirect")


def cmd_ops(args) -> int:
    if args.action in ("anti-o", "strong"):
        rep = load_representation_file(args.rep)
        check = check_anti_o if args.action == "anti-o" else check_strong
        res = check(_load_map(args.map, rep.field), rep)
        emit({"command": f"ops-{args.action}", "passed": res.passed,
              **res.to_json()}, args,
             f"ops {args.action}: {'PASS' if res.passed else 'FAIL'}")
        return 0 if res.passed else 1
    pair = load_pair(args.brackets)  # the choices leave only "rb"
    rop = _load_map(args.map, pair.field)
    res = check_anti_rota_baxter(rop, pair, args.strong)
    conv = check_rb_converse(rop, pair)
    emit({"command": "ops-rb", "passed": res.passed,
          "anti_rota_baxter": res.to_json(),
          "converse_condition": conv.to_json()}, args,
         f"ops rb: {'PASS' if res.passed else 'FAIL'}")
    return 0 if res.passed else 1


# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="apl",
        description="exact checks and constructions for compatible "
                    "anti-pre-Lie algebras")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="run identity checks on algebra files")
    p.add_argument("--file", help="single-algebra .alg.json")
    p.add_argument("--pair", help="two-product .alg.json")
    p.add_argument("--identity", choices=sorted(
        k.replace("_", "-") for k in IDENTITY_KINDS))
    p.add_argument("--compatible", action="store_true")
    p.add_argument("--compatible-lie", action="store_true")
    p.add_argument("--compatible-associative", action="store_true")
    p.add_argument("--out")

    p = sub.add_parser("catalog", help="inspect or verify the catalog")
    p.add_argument("action", choices=("list", "show", "verify"))
    p.add_argument("name", nargs="?")
    p.add_argument("--scope", choices=("all",) + cat.SCOPES)
    p.add_argument("--out")

    p = sub.add_parser("z2", help="deformation-space analysis of a base")
    p.add_argument("--family", required=True)
    p.add_argument("--mode", choices=("linear", "brute", "verify"),
                   required=True)
    p.add_argument("--prime", type=int, default=5,
                   choices=(2, 3, 5, 7, 11, 13))
    p.add_argument("--params")
    p.add_argument("--budget", type=int,
                   help=f"candidate limit of --mode brute, 1 to {MAX_BUDGET}")
    p.add_argument("--out")

    p = sub.add_parser("derive", help="run a construction and verify it")
    p.add_argument("construction",
                   choices=("from-cocycle", "from-vectors", "from-rb",
                            "from-anti-o", "from-invertible", "semidirect"))
    p.add_argument("--form")
    p.add_argument("--brackets")
    p.add_argument("--map")
    p.add_argument("--rep")
    p.add_argument("--s1")
    p.add_argument("--s2")
    p.add_argument("--out", help="write the full report here")
    p.add_argument("--emit", help="write the bare pair as .alg.json here")

    p = sub.add_parser("rep", help="representation-pair operations")
    p.add_argument("action", choices=("check", "dual", "semidirect"))
    p.add_argument("--rep", required=True)
    p.add_argument("--out")

    p = sub.add_parser("ops", help="operator checks")
    p.add_argument("action", choices=("anti-o", "strong", "rb"))
    p.add_argument("--map", required=True)
    p.add_argument("--rep")
    p.add_argument("--brackets")
    p.add_argument("--strong", action="store_true")
    p.add_argument("--out")

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # looked up at call time, so a replaced cmd_* function is the one run
    command = globals()[f"cmd_{args.command}"]
    try:
        # missing options are input errors, named before any file is read
        action = getattr(args, "construction", getattr(args, "action", None))
        missing = [f"--{o}" for o in
                   _REQUIRED.get((args.command, action), "").split()
                   if getattr(args, o) is None]
        if missing:
            raise ParseError(f"{args.command} {action} needs "
                             f"{', '.join(missing)}")
        return command(args)
    except PreconditionError as exc:
        print(f"precondition failed: {exc}", file=sys.stderr)
        return 1
    except (ToolkitError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
