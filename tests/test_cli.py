import argparse
import json
import re
import shlex
import time
from fractions import Fraction
from pathlib import Path

import pytest

from antiprelie import (QQ, Algebra, AlgebraPair, BilinearForm, Field,
                        Matrix, ParseError, RepresentationPair,
                        algebra_from_json, dump_algebra_file, get_family,
                        instantiate, left_multiplication_pair, dual_pair,
                        load_algebra_file, pair_to_json,
                        representation_from_json, representation_to_json)
from antiprelie.forms import load_form_file
from antiprelie.representations import load_representation_file
import antiprelie.cocycles as cocycles
from antiprelie.cli import build_parser, main
from antiprelie.cocycles import MAX_BUDGET


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    report = json.loads(out.out) if out.out.strip() else None
    return code, report, out.err


@pytest.fixture
def a5_file(tmp_path):
    pair = instantiate(get_family("A5"))
    path = tmp_path / "a5.alg.json"
    dump_algebra_file(path, pair.circ)
    return str(path)


@pytest.fixture
def ca26_file(tmp_path):
    pair = instantiate(get_family("CA26"), {"beta": 1})
    path = tmp_path / "ca26.alg.json"
    dump_algebra_file(path, pair.circ, pair.star)
    return str(path)


def test_check_identity_pass(capsys, a5_file):
    code, report, err = run(capsys, "check", "--file", a5_file,
                            "--identity", "anti-pre-lie")
    assert code == 0
    assert report["passed"] is True
    assert report["schema_version"] == 1
    assert "PASS" in err


def test_check_identity_fail(capsys, tmp_path):
    bad = tmp_path / "bad.alg.json"
    bad.write_text(json.dumps({
        "dim": 2, "field": {"kind": "Q"}, "basis": ["e1", "e2"],
        "products": {"circ": [[1, 1, 1, "-1"], [2, 1, 1, "-1"]]}}))
    code, report, _ = run(capsys, "check", "--file", str(bad),
                          "--identity", "anti-pre-lie")
    assert code == 1
    assert report["passed"] is False
    assert report["checks"][0]["witnesses"]


def test_check_malformed_json_exit2(capsys, tmp_path):
    bad = tmp_path / "corrupted.alg.json"
    bad.write_text("{not json")
    code, report, err = run(capsys, "check", "--file", str(bad),
                            "--identity", "jacobi")
    assert code == 2
    assert report is None
    assert "error" in err


def test_check_pair_compatible(capsys, ca26_file):
    code, report, _ = run(capsys, "check", "--pair", ca26_file,
                          "--compatible")
    assert code == 0 and report["passed"]


def test_check_pair_needs_star(capsys, a5_file):
    code, _, err = run(capsys, "check", "--pair", a5_file, "--compatible")
    assert code == 2


def test_catalog_list_and_show(capsys):
    code, report, _ = run(capsys, "catalog", "list")
    assert code == 0 and len(report["families"]) == 54
    code, report, _ = run(capsys, "catalog", "show", "CA10")
    assert code == 0
    assert report["params"] == ["alpha", "beta"]
    code, _, _ = run(capsys, "catalog", "show", "CA99")
    assert code == 2


def test_catalog_verify_scope(capsys):
    code, report, _ = run(capsys, "catalog", "verify", "--scope", "cocycles")
    assert code == 0 and report["passed"]
    assert len(report["items"]) == 22


def test_z2_linear(capsys):
    code, report, _ = run(capsys, "z2", "--family", "A9",
                          "--mode", "linear", "--prime", "5")
    assert code == 0
    assert report["linear_dimension_Q"] == 4
    assert report["linear_dimension_GF"] == 4


def test_z2_brute_equality(capsys, tmp_path):
    out = tmp_path / "report.json"
    code, _, _ = run(capsys, "z2", "--family", "A9", "--mode", "brute",
                     "--prime", "5", "--out", str(out))
    assert code == 0
    report = json.loads(out.read_text())
    assert report["solution_count"] == 125
    assert report["equality"] is True
    assert report["surplus_count"] == 0


def test_z2_brute_surplus_reported(capsys):
    code, report, _ = run(capsys, "z2", "--family", "A6", "--mode", "brute",
                          "--prime", "5", "--params", "lambda=-1")
    assert code == 0          # containment holds; surplus is findings
    assert report["containment"] is True
    assert report["equality"] is False
    assert report["surplus_count"] == 120
    assert len(report["surplus"]) == 120


@pytest.mark.parametrize("prime,count", [(5, 425), (7, 1225)])
def test_z2_brute_builds_no_algebra_per_solution(capsys, monkeypatch, prime,
                                                 count):
    # the report is read off the scan's int table: a warm run builds only
    # the base pair, never one Algebra per solution; the unit tables and
    # the catalog's deformation families are built once per process
    argv = ("z2", "--family", "A3", "--mode", "brute", "--prime", str(prime))
    run(capsys, *argv)
    calls = []
    init = Algebra.__init__

    def counted(self, *args, **kwargs):
        calls.append(1)
        init(self, *args, **kwargs)
    monkeypatch.setattr(Algebra, "__init__", counted)
    code, report, _ = run(capsys, *argv)
    assert code == 0 and report["solution_count"] == count
    assert len(calls) == 2


def test_z2_verify(capsys):
    code, report, _ = run(capsys, "z2", "--family", "A8",
                          "--mode", "verify")
    assert code == 0
    assert all(m["passed"] for m in report["memberships"])


def test_z2_needs_lambda(capsys):
    code, _, err = run(capsys, "z2", "--family", "A6", "--mode", "brute")
    assert code == 2


@pytest.mark.parametrize("mode", ["linear", "brute"])
def test_z2_rejects_compatible_families(capsys, mode):
    code, report, err = run(capsys, "z2", "--family", "CA3", "--mode", mode,
                            "--prime", "5")
    assert code == 2 and report is None
    assert "single-product families A1..A9" in err


def test_z2_brute_without_families_exits_2_before_the_scan(capsys,
                                                           monkeypatch):
    import antiprelie.cli as cli
    monkeypatch.setattr(cli, "brute_force_Z2", lambda *a, **k: pytest.fail(
        "scanned a base without tabulated families"))
    code, report, err = run(capsys, "z2", "--family", "A1", "--mode",
                            "brute", "--prime", "7")
    assert code == 2 and report is None and "A1" in err
    code, report, _ = run(capsys, "z2", "--family", "A1", "--mode",
                          "linear", "--prime", "5")
    assert code == 0 and report["linear_dimension_GF"] == 8


def test_derive_from_invertible_past_the_cofactor_limit_exits_2(
        capsys, tmp_path, monkeypatch):
    monkeypatch.setattr(Matrix, "_det_cofactor", lambda *a: pytest.fail(
        "cofactor expansion ran past the limit"))
    ring = Field("poly", variables=["x"])
    n = 10
    zero = Algebra.zero_algebra(ring, n)
    mats = (Matrix.zero(ring, n, n),) * n
    rep = RepresentationPair(AlgebraPair(zero, zero), n, mats, mats)
    rep_file = tmp_path / "rep.json"
    rep_file.write_text(json.dumps(representation_to_json(rep)))
    t_file = tmp_path / "t.json"
    t_file.write_text(json.dumps({"entries": [
        [f"x+{n * i + j}" for j in range(n)] for i in range(n)]}))
    code, report, err = run(capsys, "derive", "from-invertible", "--rep",
                            str(rep_file), "--map", str(t_file))
    assert code == 2 and report is None
    assert "cofactor expansion is limited to 8 rows" in err


def test_derive_from_vectors(capsys, tmp_path):
    form = tmp_path / "id2.json"
    form.write_text(json.dumps({"dim": 2, "gram": [["1", "0"], ["0", "1"]]}))
    code, report, _ = run(capsys, "derive", "from-vectors",
                          "--form", str(form), "--s1", "e1", "--s2", "0")
    assert code == 0 and report["passed"]
    entries = {tuple(e[:3]): e[3] for e in
               report["algebra"]["products"]["circ"]}
    assert entries[(1, 2, 2)] == "-1"     # e1 . e2 = -e2
    assert entries[(2, 2, 1)] == "1"      # e2 . e2 = e1
    assert report["algebra"]["products"]["star"] == []


def test_derive_from_cocycle(capsys, tmp_path):
    brackets = tmp_path / "g.alg.json"
    blob = {"dim": 2, "field": {"kind": "Q"}, "basis": ["e1", "e2"],
            "products": {"circ": [[1, 2, 1, "1"], [2, 1, 1, "-1"]],
                         "star": [[1, 2, 1, "1"], [2, 1, 1, "-1"]]}}
    brackets.write_text(json.dumps(blob))
    form = tmp_path / "b.json"
    form.write_text(json.dumps({"dim": 2, "gram": [["0", "1"], ["1", "0"]]}))
    code, report, _ = run(capsys, "derive", "from-cocycle",
                          "--form", str(form), "--brackets", str(brackets))
    assert code == 0 and report["passed"]


def test_derive_semidirect_and_rep_commands(capsys, tmp_path):
    pair = instantiate(get_family("CA30"), {"beta": 1, "gamma": 0})
    rep = dual_pair(left_multiplication_pair(pair))
    rep_file = tmp_path / "r.json"
    rep_file.write_text(json.dumps(representation_to_json(rep)))
    code, report, _ = run(capsys, "derive", "semidirect",
                          "--rep", str(rep_file))
    assert code == 0 and report["passed"]
    assert report["algebra"]["dim"] == 4
    code, report, _ = run(capsys, "rep", "check", "--rep", str(rep_file))
    assert code == 0 and report["passed"]
    code, report, _ = run(capsys, "rep", "dual", "--rep", str(rep_file))
    assert code == 0 and report["passed"]
    code, report, _ = run(capsys, "rep", "semidirect", "--rep", str(rep_file))
    assert code == 0 and report["passed"]


def test_ops_commands(capsys, tmp_path):
    pair = instantiate(get_family("CA26"), {"beta": 2})
    rep = left_multiplication_pair(pair)
    rep_file = tmp_path / "r.json"
    rep_file.write_text(json.dumps(representation_to_json(rep)))
    eye = tmp_path / "t.json"
    eye.write_text(json.dumps(
        {"rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "1"]]}))
    code, report, _ = run(capsys, "ops", "anti-o", "--map", str(eye),
                          "--rep", str(rep_file))
    assert code == 0 and report["passed"]
    code, report, _ = run(capsys, "ops", "strong", "--map", str(eye),
                          "--rep", str(rep_file))
    assert code == 0 and report["passed"]

    brackets = tmp_path / "g.alg.json"
    g = rep.g
    brackets.write_text(json.dumps(pair_to_json(g)))
    zero = tmp_path / "z.json"
    zero.write_text(json.dumps(
        {"rows": 2, "cols": 2, "entries": [["0", "0"], ["0", "0"]]}))
    code, report, _ = run(capsys, "ops", "rb", "--map", str(zero),
                          "--brackets", str(brackets), "--strong")
    assert code == 0 and report["passed"]


def test_reports_are_deterministic(capsys):
    code1, report1, _ = run(capsys, "catalog", "show", "CA27")
    code2, report2, _ = run(capsys, "catalog", "show", "CA27")
    assert (code1, report1) == (code2, report2)
    c1, r1, _ = run(capsys, "z2", "--family", "A2", "--mode", "brute")
    c2, r2, _ = run(capsys, "z2", "--family", "A2", "--mode", "brute")
    assert r1 == r2


def test_emitted_algebra_round_trips(capsys, tmp_path):
    form = tmp_path / "id2.json"
    form.write_text(json.dumps({"dim": 2, "gram": [["1", "0"], ["0", "1"]]}))
    out = tmp_path / "derived.json"
    emitted = tmp_path / "derived.alg.json"
    code, _, _ = run(capsys, "derive", "from-vectors", "--form", str(form),
                     "--s1", "1,1", "--s2", "e2", "--out", str(out),
                     "--emit", str(emitted))
    assert code == 0
    report = json.loads(out.read_text())
    from antiprelie import algebra_from_json, AlgebraPair
    circ, star = algebra_from_json(report["algebra"])
    again = pair_to_json(AlgebraPair(circ, star))
    assert again == report["algebra"]
    # the standalone .alg.json parses back to the same pair
    circ2, star2 = algebra_from_json(json.loads(emitted.read_text()))
    assert circ2 == circ and star2 == star


def test_representation_g_file_reference(capsys, tmp_path):
    pair = instantiate(get_family("CA30"), {"beta": 1, "gamma": 0})
    rep = left_multiplication_pair(pair)
    g_file = tmp_path / "g.alg.json"
    g_file.write_text(json.dumps(pair_to_json(rep.g)))
    blob = representation_to_json(rep)
    blob["g"] = "g.alg.json"
    rep_file = tmp_path / "r.json"
    rep_file.write_text(json.dumps(blob))
    code, report, _ = run(capsys, "rep", "check", "--rep", str(rep_file))
    assert code == 0 and report["passed"]


@pytest.mark.parametrize("env", ["abc", "0", "-2", "1.5", "3"])
def test_workers_env_is_ignored(capsys, monkeypatch, env):
    monkeypatch.delenv("APL_WORKERS", raising=False)
    argv = ("z2", "--family", "A7", "--mode", "brute")
    want = run(capsys, *argv)[:2]
    monkeypatch.setenv("APL_WORKERS", env)
    assert run(capsys, *argv)[:2] == want
    assert want[0] == 0 and want[1]["solution_count"] == 125


@pytest.mark.parametrize("budget", ["0", "-5", str(10 ** 23),
                                    str(MAX_BUDGET + 1)])
def test_budget_out_of_range_exits_2(capsys, monkeypatch, budget):
    def no_scan(*args):
        raise AssertionError("scan started")
    monkeypatch.setattr(cocycles, "_quadratic_coefficients", no_scan)
    code, report, err = run(capsys, "z2", "--family", "A7", "--mode",
                            "brute", "--budget", budget)
    assert code == 2 and report is None
    assert "budget must be" in err


def test_budget_at_max_runs(capsys):
    code, report, _ = run(capsys, "z2", "--family", "A7", "--mode", "brute",
                          "--budget", str(MAX_BUDGET))
    assert code == 0 and report["solution_count"] == 125


@pytest.mark.parametrize("mode", ["linear", "verify"])
def test_budget_outside_brute_exits_2(capsys, monkeypatch, mode):
    import antiprelie.cli as cli

    def no_work(*args):
        raise AssertionError("work started")
    monkeypatch.setattr(cli, "linear_space", no_work)
    monkeypatch.setattr(cli, "verify_family_membership", no_work)
    code, report, err = run(capsys, "z2", "--family", "A3", "--mode", mode,
                            "--budget", "5")
    assert code == 2 and report is None
    assert err == "error: --budget applies only to z2 --mode brute\n"


def test_brute_keeps_the_default_budget(capsys, monkeypatch):
    def no_scan(*args):
        raise AssertionError("scan started")
    monkeypatch.setattr(cocycles, "_quadratic_coefficients", no_scan)
    code, report, err = run(capsys, "z2", "--family", "A2", "--mode",
                            "brute", "--prime", "11")
    assert code == 2 and report is None
    assert err == ("error: 11^8 = 214358881 exceeds the budget of "
                   f"{cocycles.DEFAULT_BUDGET}\n")


def test_workers_flag_is_not_an_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["z2", "--family", "A7", "--mode", "brute", "--workers", "2"])
    out = capsys.readouterr()
    assert exc.value.code == 2 and out.out == "" and "--workers" in out.err


@pytest.mark.parametrize("mode", ["brute", "linear", "verify"])
@pytest.mark.parametrize("family, params, stray", [
    ("A3", "lambda=2", "lambda"), ("A8", "lambda=1,beta=2", "beta")])
def test_z2_stray_parameter_exits_2(capsys, monkeypatch, mode, family,
                                    params, stray):
    def no_scan(*args):
        raise AssertionError("scan started")
    monkeypatch.setattr(cocycles, "_quadratic_coefficients", no_scan)
    code, report, err = run(capsys, "z2", "--family", family, "--mode", mode,
                            "--params", params)
    assert code == 2 and report is None
    assert err == f"error: {family} takes no parameter {stray}\n"


@pytest.mark.parametrize("mode", ["brute", "linear", "verify"])
@pytest.mark.parametrize("params", ["lambda=1,lambda=2",
                                    "lambda=-1, lambda=-1"])
def test_z2_repeated_parameter_exits_2(capsys, monkeypatch, mode, params):
    def no_scan(*args):
        raise AssertionError("scan started")
    monkeypatch.setattr(cocycles, "_quadratic_coefficients", no_scan)
    code, report, err = run(capsys, "z2", "--family", "A6", "--mode", mode,
                            "--params", params)
    assert code == 2 and report is None
    assert err == "error: parameter lambda given twice\n"


@pytest.mark.parametrize("family, params", [
    ("A6", "lambda=5"), ("A6", "lambda=-1"), ("A3", ""), ("A8", "")])
def test_z2_verify_with_params_exits_2(capsys, family, params):
    code, report, err = run(capsys, "z2", "--family", family, "--mode",
                            "verify", "--params", params)
    assert code == 2 and report is None
    assert err == ("error: z2 --mode verify checks every case "
                   "symbolically, so --params selects nothing\n")


def test_catalog_show_without_name_exits_2(capsys):
    code, report, err = run(capsys, "catalog", "show")
    assert code == 2 and report is None
    assert err == "error: catalog show needs a family name\n"


# the options each construction and operator check reads (ops also
# always takes --map)
NEEDED = {
    ("derive", "from-vectors"): ("form", "s1", "s2"),
    ("derive", "from-cocycle"): ("form", "brackets"),
    ("derive", "from-rb"): ("brackets", "map"),
    ("derive", "from-anti-o"): ("rep", "map"),
    ("derive", "from-invertible"): ("rep", "map"),
    ("derive", "semidirect"): ("rep",),
    ("ops", "anti-o"): ("rep", "map"),
    ("ops", "strong"): ("rep", "map"),
    ("ops", "rb"): ("brackets", "map"),
}


@pytest.mark.parametrize("command, action, omitted", [
    (command, action, name) for (command, action), names in NEEDED.items()
    for name in names if not (command == "ops" and name == "map")])
def test_missing_option_exits_2_before_any_file_is_read(
        capsys, tmp_path, command, action, omitted):
    # every file named is absent, so only a check made before reading
    # can name the missing option
    argv = [command, action]
    for name in NEEDED[(command, action)]:
        if name != omitted:
            value = "e1" if name in ("s1", "s2") else str(tmp_path / "no")
            argv += [f"--{name}", value]
    assert main(argv) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == f"error: {command} {action} needs --{omitted}\n"


def _readme_command_section():
    """README's "Command line" section and the argv of every apl line in
    its code block, # comments dropped."""
    text = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
    section = text.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    return section, [words for words in lines if words]


def test_readme_command_lines_match_the_parser():
    section, lines = _readme_command_section()
    parser = build_parser()
    assert lines and all(words[0] == "apl" for words in lines)
    for words in lines:
        try:
            parser.parse_args(words[1:])
        except SystemExit:
            pytest.fail(f"README line does not parse: {shlex.join(words)}")
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {o for p in sub.choices.values()
               for o in p._option_string_actions}
    named = set(re.findall(r"(?<![\w-])--[a-z][\w-]*", section))
    assert named - options == set()


@pytest.mark.parametrize("blob, part", [
    ({"dim": 2, "field": {"kind": "GF", "p": 2 ** 61 - 1},
      "products": {"circ": [[1, 1, 1, "1"]]}}, "modulus"),
    ({"dim": 10 ** 5, "field": {"kind": "Q"},
      "products": {"circ": [[1, 1, 1, "1"]]}}, "dim"),
    ({"dim": 1, "field": {"kind": "poly", "vars": ["x"], "units": []},
      "products": {"circ": [[1, 1, 1, "(x+1)^100000"]]}}, "exponent"),
])
def test_oversized_input_exits_2_before_work(capsys, tmp_path, monkeypatch,
                                             blob, part):
    # the huge case itself (trial division to 2^30.5, a 10^15-entry
    # table, a 100000-fold product) fails the test instead of running
    import antiprelie.algebra as algebra
    import antiprelie.scalars as scalars

    def guard(real, too_big):
        def spy(*args):
            if too_big(*args):
                pytest.fail(f"huge input reached {real.__name__}")
            return real(*args)
        return spy
    monkeypatch.setattr(scalars, "_is_prime", guard(
        scalars._is_prime, lambda n: n > scalars.MAX_MODULUS))
    monkeypatch.setattr(scalars.Scalar, "__pow__", guard(
        scalars.Scalar.__pow__, lambda x, e: abs(e) > scalars.MAX_EXPONENT))
    monkeypatch.setattr(algebra.Algebra, "from_entries", staticmethod(guard(
        algebra.Algebra.from_entries,
        lambda f, dim, *rest: dim > algebra.MAX_DIM)))
    path = tmp_path / "big.alg.json"
    path.write_text(json.dumps(blob))
    code, report, err = run(capsys, "check", "--file", str(path),
                            "--identity", "anti-pre-lie")
    assert code == 2 and report is None
    assert part in err


@pytest.mark.parametrize("argv", [
    ("catalog", "show", "CA99"),
    ("z2", "--family", "B1", "--mode", "verify")])
def test_unknown_catalog_entry_exits_2(capsys, argv):
    code, report, err = run(capsys, *argv)
    assert code == 2 and report is None and "error" in err
    assert err == (f"error: unknown family '{argv[2]}'; valid names are "
                   "A1..A9 and CA1..CA45\n")


def test_internal_key_error_is_not_bad_input(monkeypatch):
    import antiprelie.cli as cli

    def broken(args):
        return {}["missing"]
    monkeypatch.setattr(cli, "cmd_catalog", broken)
    with pytest.raises(KeyError):
        main(["catalog", "list"])


def test_map_file_without_entries_exits_2(capsys, tmp_path):
    pair = instantiate(get_family("CA26"), {"beta": 2})
    rep_file = tmp_path / "r.json"
    rep_file.write_text(json.dumps(
        representation_to_json(left_multiplication_pair(pair))))
    bad = tmp_path / "t.json"
    bad.write_text(json.dumps({"rows": 2, "cols": 2}))
    code, report, err = run(capsys, "ops", "anti-o", "--map", str(bad),
                            "--rep", str(rep_file))
    assert code == 2 and report is None and "entries" in err


def _rep_file(tmp_path):
    pair = instantiate(get_family("CA26"), {"beta": 2})
    rep = left_multiplication_pair(pair)
    path = tmp_path / "r.json"
    path.write_text(json.dumps(representation_to_json(rep)))
    return str(path), rep


def _row_error(err):
    """The shared JSON row parser's ParseError, not a later grammar error."""
    return err.startswith("error:") and (
        "list of lists" in err or "string or an integer" in err)


def test_map_integer_entries_read_like_strings(capsys, tmp_path):
    rep_file, _ = _rep_file(tmp_path)
    reports = []
    for entries in ([["1", "0"], ["0", "1"]], [[1, 0], [0, 1]],
                    [["1", 0], [0, "1"]]):
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"entries": entries}))
        code, report, _ = run(capsys, "ops", "anti-o", "--map", str(path),
                              "--rep", rep_file)
        assert code == 0
        reports.append(report)
    assert reports[0] == reports[1] == reports[2]


@pytest.mark.parametrize("entries", [
    None, ["10", "01"], "1001", [[1.0, 0], [0, 1]], [[True, 0], [0, 1]],
    [[None, "0"], ["0", "1"]], [["1", "0"], "01"], [[["1"], "0"], ["0", "1"]],
])
def test_malformed_map_entries_exit_2(capsys, tmp_path, entries):
    rep_file, _ = _rep_file(tmp_path)
    path = tmp_path / "t.json"
    path.write_text(json.dumps({"rows": 2, "cols": 2, "entries": entries}))
    code, report, err = run(capsys, "ops", "anti-o", "--map", str(path),
                            "--rep", rep_file)
    assert code == 2 and report is None and _row_error(err)


@pytest.mark.parametrize("gram", [None, ["10", "01"], [[1.5, 0], [0, 1]],
                                  [[False, 0], [0, 1]]])
def test_malformed_gram_exits_2(capsys, tmp_path, gram):
    path = tmp_path / "b.json"
    path.write_text(json.dumps({"dim": 2, "gram": gram}))
    code, report, err = run(capsys, "derive", "from-vectors", "--form",
                            str(path), "--s1", "e1", "--s2", "e2")
    assert code == 2 and report is None and _row_error(err)


def test_gram_integer_entries_read_like_strings(capsys, tmp_path):
    reports = []
    for gram in ([["1", "0"], ["0", "1"]], [[1, 0], [0, 1]]):
        path = tmp_path / "b.json"
        path.write_text(json.dumps({"dim": 2, "gram": gram}))
        code, report, _ = run(capsys, "derive", "from-vectors", "--form",
                              str(path), "--s1", "e1", "--s2", "e2")
        assert code == 0
        reports.append(report)
    assert reports[0] == reports[1]


@pytest.mark.parametrize("rows", [["00", "00"], None, [[0.0, 0], [0, 0]],
                                  [["0", "0"], [True, "0"]]])
def test_malformed_representation_rows_exit_2(capsys, tmp_path, rows):
    _, rep = _rep_file(tmp_path)
    obj = representation_to_json(rep)
    obj["rho"]["e1"] = rows
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    code, report, err = run(capsys, "rep", "check", "--rep", str(path))
    assert code == 2 and report is None and _row_error(err)


def test_representation_integer_rows_read_like_strings(capsys, tmp_path):
    rep_file, rep = _rep_file(tmp_path)
    obj = representation_to_json(rep)
    for block in ("rho", "mu"):
        obj[block] = {k: [[int(x) for x in row] for row in rows]
                      for k, rows in obj[block].items()}
    path = tmp_path / "ints.json"
    path.write_text(json.dumps(obj))
    assert run(capsys, "rep", "check", "--rep", str(path))[:2] == \
        run(capsys, "rep", "check", "--rep", rep_file)[:2]


@pytest.mark.parametrize("circ", [
    ["1121"],                              # a string, not a list
    [[1, 1, 2, "1"], [1, 1, 2, "3"]],      # a repeated (i, j, k) slot
    [[1, 1, 2]], [[1, 1, 2, "1", "0"]],    # wrong length
    [[1.0, 1, 2, "1"]], [["1", 1, 2, "1"]], [[True, 1, 2, "1"]],
    [[1, 1, 2, 1.5]], [[1, 1, 2, None]],
])
def test_malformed_product_entries_exit_2(capsys, tmp_path, circ):
    path = tmp_path / "bad.alg.json"
    path.write_text(json.dumps({"dim": 2, "field": {"kind": "Q"},
                                "products": {"circ": circ}}))
    code, report, err = run(capsys, "check", "--file", str(path),
                            "--identity", "jacobi")
    assert code == 2 and report is None and "error" in err


def test_product_integer_coefficient_reads_like_string(capsys, tmp_path):
    reports = []
    for coeff in ("-1", -1):
        path = tmp_path / "a.alg.json"
        path.write_text(json.dumps({
            "dim": 2, "field": {"kind": "Q"},
            "products": {"circ": [[1, 2, 1, coeff], [2, 1, 1, 1]]}}))
        code, report, _ = run(capsys, "check", "--file", str(path),
                              "--identity", "jacobi")
        reports.append((code, report))
    assert reports[0] == reports[1] and reports[0][0] == 0


# ---------------------------------------------------------------------------
# declared sizes in JSON inputs are JSON integers, never floats, strings
# or booleans
# ---------------------------------------------------------------------------

NOT_INTEGERS = [2.7, 2.0, "2", True, None, [2]]


def _alg_blob(dim):
    return {"dim": dim, "field": {"kind": "Q"},
            "products": {"circ": [[1, 1, 2, "1"]], "star": []}}


@pytest.mark.parametrize("dim", NOT_INTEGERS)
def test_algebra_dim_must_be_integer(dim):
    with pytest.raises(ParseError, match="dim"):
        algebra_from_json(_alg_blob(dim))


@pytest.mark.parametrize("v_dim", NOT_INTEGERS + [False, 1.9])
def test_representation_v_dim_must_be_integer(v_dim):
    blob = representation_to_json(left_multiplication_pair(
        instantiate(get_family("CA26"), {"beta": 2})))
    assert representation_from_json(blob).v_dim == 2
    with pytest.raises(ParseError, match="V_dim"):
        representation_from_json({**blob, "V_dim": v_dim})


@pytest.mark.parametrize("dim", NOT_INTEGERS + [2.5])
def test_form_dim_must_be_integer(dim):
    blob = {"gram": [["1", "0"], ["0", "1"]]}
    assert BilinearForm.from_json({**blob, "dim": 2}, QQ).dim == 2
    with pytest.raises(ParseError, match="dim"):
        BilinearForm.from_json({**blob, "dim": dim}, QQ)


@pytest.mark.parametrize("key", ["rows", "cols"])
@pytest.mark.parametrize("size", NOT_INTEGERS)
def test_map_shape_must_be_integer(key, size):
    blob = {"rows": 2, "cols": 2, "entries": [["1", "0"], ["0", "1"]]}
    assert Matrix.from_json(blob, QQ) == Matrix.identity(QQ, 2)
    with pytest.raises(ParseError, match=key):
        Matrix.from_json({**blob, key: size}, QQ)


def test_one_row_map_rejects_boolean_shape():
    with pytest.raises(ParseError, match="rows"):
        Matrix.from_json({"rows": True, "entries": [["1"]]}, QQ)


@pytest.mark.parametrize("dim", [2.7, "2", True])
def test_non_integer_dim_exits_2(capsys, tmp_path, dim):
    path = tmp_path / "a.alg.json"
    path.write_text(json.dumps(_alg_blob(dim)))
    code, report, err = run(capsys, "check", "--pair", str(path),
                            "--compatible")
    assert code == 2 and report is None and "dim" in err
    path.write_text(json.dumps(_alg_blob(2)))
    assert run(capsys, "check", "--pair", str(path), "--compatible")[0] == 0


def test_invalid_json_is_a_parse_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ParseError, match="invalid JSON"):
        load_algebra_file(bad)
    with pytest.raises(ParseError, match="invalid JSON"):
        load_form_file(bad, QQ)
    with pytest.raises(ParseError, match="invalid JSON"):
        load_representation_file(bad)


@pytest.mark.parametrize("argv", [
    ["ops", "anti-o", "--rep", "REP", "--map", "BAD"],
    ["ops", "strong", "--rep", "REP", "--map", "BAD"],
    ["derive", "from-anti-o", "--rep", "REP", "--map", "BAD"],
    ["derive", "from-invertible", "--rep", "REP", "--map", "BAD"],
    ["ops", "rb", "--brackets", "G", "--map", "BAD"],
    ["derive", "from-rb", "--brackets", "G", "--map", "BAD"],
    ["rep", "check", "--rep", "GREF"],
])
def test_invalid_json_files_exit_2(capsys, tmp_path, argv):
    rep_file, rep = _rep_file(tmp_path)
    (tmp_path / "bad.json").write_text("{not json")
    g_file = tmp_path / "g.alg.json"
    g_file.write_text(json.dumps(pair_to_json(rep.g)))
    blob = representation_to_json(rep)
    blob["g"] = "bad.json"
    (tmp_path / "gref.json").write_text(json.dumps(blob))
    names = {"REP": rep_file, "BAD": str(tmp_path / "bad.json"),
             "G": str(g_file), "GREF": str(tmp_path / "gref.json")}
    code, report, err = run(capsys, *[names.get(a, a) for a in argv])
    assert code == 2 and report is None and "invalid JSON" in err


@pytest.mark.parametrize("kind", ["directory", "not-utf8"])
def test_unreadable_input_file_exits_2(capsys, tmp_path, kind):
    path = tmp_path / "pair.alg.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(json.dumps(_alg_blob(2)).encode("utf-16"))
    with pytest.raises(ParseError):
        load_algebra_file(path)
    code, report, err = run(capsys, "check", "--pair", str(path),
                            "--compatible")
    assert code == 2 and report is None and "pair.alg.json" in err


# ---------------------------------------------------------------------------
# a coefficient or parameter whose denominator is zero, or vanishes mod p,
# is an input error
# ---------------------------------------------------------------------------

def _zero_denominator_argv(tmp_path, where):
    rep_file, rep = _rep_file(tmp_path)
    identity = {"dim": 2, "gram": [["1", "0"], ["0", "1"]]}
    form = tmp_path / "b.json"
    form.write_text(json.dumps(identity))
    if where in ("alg", "gf5"):
        field = {"kind": "Q"} if where == "alg" else {"kind": "GF", "p": 5}
        coeff = "1/0" if where == "alg" else "1/5"
        path = tmp_path / "a.alg.json"
        path.write_text(json.dumps({"dim": 2, "field": field,
                                    "products": {"circ": [[1, 1, 1, coeff]]}}))
        return ["check", "--file", str(path), "--identity", "jacobi"]
    if where == "map":
        path = tmp_path / "t.json"
        path.write_text(json.dumps({"entries": [["1/0", "0"], ["0", "1"]]}))
        return ["ops", "anti-o", "--map", str(path), "--rep", rep_file]
    if where == "form":
        form.write_text(json.dumps({"dim": 2,
                                    "gram": [["1/0", "0"], ["0", "1"]]}))
        return ["derive", "from-vectors", "--form", str(form),
                "--s1", "e1", "--s2", "e2"]
    if where == "rep":
        obj = representation_to_json(rep)
        obj["rho"]["e1"] = [["1/0", "0"], ["0", "0"]]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(obj))
        return ["rep", "check", "--rep", str(path)]
    s1, s2 = ("1/0,1", "e2") if where == "s1" else ("e1", "0,1/0")
    return ["derive", "from-vectors", "--form", str(form),
            "--s1", s1, "--s2", s2]


@pytest.mark.parametrize("where", ["alg", "gf5", "map", "form", "rep", "s1",
                                   "s2"])
def test_zero_denominator_in_input_exits_2(capsys, tmp_path, where):
    code, report, err = run(capsys, *_zero_denominator_argv(tmp_path, where))
    assert code == 2 and report is None and err.startswith("error:")


@pytest.mark.parametrize("mode", ["brute", "linear"])
def test_z2_parameter_denominator_vanishing_mod_p_exits_2(capsys, mode):
    code, report, err = run(capsys, "z2", "--family", "A6", "--mode", mode,
                            "--params", "lambda=1/5", "--prime", "5")
    assert code == 2 and report is None
    assert "lambda=1/5" in err and "mod 5" in err


def test_command_replaced_after_first_call_is_run(monkeypatch, capsys):
    import antiprelie.cli as cli

    assert main(["catalog", "list"]) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_catalog", lambda args: calls.append(args)
                        or 7)
    assert main(["catalog", "show", "A1"]) == 7
    assert [args.name for args in calls] == ["A1"]


# ---------------------------------------------------------------------------
# catalog actions take only the inputs they read
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("argv, message", [
    (("catalog", "list", "CA10"), "catalog list takes no family name"),
    (("catalog", "verify", "CA10", "--scope", "A-families"),
     "catalog verify takes no family name"),
    (("catalog", "list", "--scope", "all"),
     "--scope applies only to catalog verify"),
    (("catalog", "show", "CA10", "--scope", "cocycles"),
     "--scope applies only to catalog verify")],
    ids=["list-name", "verify-name", "list-scope", "show-scope"])
def test_catalog_unread_input_exits_2(capsys, monkeypatch, argv, message):
    import antiprelie.catalog as catalog

    def no_verify(scope):
        raise AssertionError("verify started")
    monkeypatch.setattr(catalog, "verify_catalog", no_verify)
    code, report, err = run(capsys, *argv)
    assert code == 2 and report is None
    assert err == f"error: {message}\n"


def test_catalog_verify_scope_defaults_to_all(capsysbinary):
    outs = []
    for argv in (["catalog", "verify"],
                 ["catalog", "verify", "--scope", "all"]):
        assert main(argv) == 0
        outs.append(capsysbinary.readouterr())
    assert outs[0] == outs[1] and b'"scope": "all"' in outs[0].out


# ---------------------------------------------------------------------------
# the A6/A8 case follows the residue of lambda under --prime
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("family, lams", [("A6", ("4", "-1")),
                                          ("A8", ("3", "-2"))])
def test_z2_brute_case_follows_the_residue(capsysbinary, family, lams):
    outs = []
    for lam in lams:
        assert main(["z2", "--family", family, "--mode", "brute",
                     "--params", f"lambda={lam}", "--prime", "5"]) == 0
        outs.append(capsysbinary.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["family_union_count"] == 25


# ---------------------------------------------------------------------------
# malformed command lines exit 2 with nothing on stdout
# ---------------------------------------------------------------------------

def _form2(tmp_path):
    path = tmp_path / "id2.form.json"
    path.write_text(json.dumps({"dim": 2, "gram": [["1", "0"], ["0", "1"]]}))
    return str(path)


@pytest.mark.parametrize("argv, message", [
    (("z2", "--family", "A6", "--mode", "linear", "--params", "lambda"),
     "bad parameter assignment 'lambda'"),
    (("z2", "--family", "A6", "--mode", "linear", "--params", "lambda=x"),
     "bad rational 'x'"),
    (("derive", "from-vectors", "--form", "FORM2", "--s1", "e3",
      "--s2", "e1"), "basis vector 'e3' out of range"),
    (("derive", "from-vectors", "--form", "FORM2", "--s1", "1,2,3",
      "--s2", "e1"), "vector '1,2,3' must have 2 coefficients"),
    (("check",), "nothing to check; pass --identity or a pair flag"),
    (("check", "--identity", "jacobi"), "--identity needs --file"),
    (("check", "--compatible"), "pair checks need --pair FILE")],
    ids=["params-no-equals", "params-bad-rational", "s1-out-of-range",
         "s1-length", "check-nothing", "identity-no-file",
         "compatible-no-pair"])
def test_malformed_command_line_exits_2(capsys, tmp_path, argv, message):
    argv = [_form2(tmp_path) if a == "FORM2" else a for a in argv]
    code = main(argv)
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == f"error: {message}\n"


@pytest.mark.parametrize("value", ["1e30000000", "1e10000000", "2E3",
                                   "1.5", "-.5"])
def test_params_outside_the_coefficient_grammar_exit_2(capsys, monkeypatch,
                                                       value):
    # Fraction would read e-notation by building 10**exp in full, so it
    # must never see the value: the guard fails at once if it does
    new = Fraction.__new__

    def guard(cls, numerator=0, *args, **kwargs):
        if isinstance(numerator, str) and numerator.strip() == value:
            raise AssertionError(f"Fraction parses {value!r}")
        return new(cls, numerator, *args, **kwargs)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(guard))
    t0 = time.perf_counter()
    code = main(["z2", "--family", "A6", "--mode", "linear",
                 "--params", f"lambda={value}"])
    elapsed = time.perf_counter() - t0
    out = capsys.readouterr()
    assert code == 2 and out.out == ""
    assert out.err == f"error: bad rational {value!r}\n"
    assert elapsed < 0.5


def test_params_trailing_comma_is_accepted(capsysbinary):
    outs = []
    for params in ("lambda=-1", "lambda=-1,"):
        assert main(["z2", "--family", "A6", "--mode", "linear",
                     "--params", params]) == 0
        outs.append(capsysbinary.readouterr().out)
    assert outs[0] == outs[1] and outs[0]
