"""Golden reports: the stdout bytes of fixed CLI runs, pinned as sha256.

A refactor that should not change any verdict or report must leave
every digest here unchanged.  The inputs under tests/golden/ are fixed
files:
- a CA10 symbolic pair with one structure constant changed;
- the GF(5) left-multiplication pair of CA30 at beta = 1, gamma = 2
  with three maps: an invertible anti-O-operator, a rank-one one and a
  map that is not one;
- the bracket pair of CA30 at beta = 1, gamma = 2 over Q on A + A*
  (the semidirect product with the dual of its left multiplications)
  and the pairing form on it;
- a symmetric 3x3 form over Q for the two-vector construction;
- the commutator pair of CA35 at lambda = 1, alpha = 2, beta = 1,
  delta = 1 over GF(5) with a strong anti-Rota-Baxter operator on it;
- a GF(5) bracket pair with actions on a 3-dimensional V that break the
  representation equations, and the projection T of V onto g, which is
  anti-O there but not strong (18 failures, past the witness cap);
- the zero pair of dimension 8 over Q[x] and the dense unit-determinant
  map L L^t on it (L unitriangular with entries x + i + j), which
  `derive from-invertible` refuses before expanding a determinant;
- the brackets [e1,e2]_1 = e1 and [e1,e2]_2 = 1/2 e2 over Q and over
  Q[x, x^-1] with x a unit, each with a map that fails the anti-RB
  identity and the converse condition, so that converse residuals with
  denominators and Laurent terms are pinned;
- a dense dim-3 pair over Q whose entries have denominators 2, 3 and 7,
  checked as a compatible anti-pre-Lie, Lie and associative pair, and a
  dense dim-3 table over GF(5) checked for the pre-Lie and the Jacobi
  identity: every report fails past the witness cap, so the witness
  order of each identity kind is pinned;
- the linear Z^2 stage of A3 over GF(5) and of A6 at lambda = -1 over
  GF(7), so the nullspace bases of two bases are pinned;
- the exhaustive GF(5) scan of A4 (145 solutions, surplus 20) and the
  GF(7) scan of A6 at lambda = -1 (385 solutions, surplus 336), so the
  surplus lists and the order of the sorted survivors are pinned;
- the GF(2) scan of A9 (24 solutions, union 4, surplus 20) and the GF(3)
  scan of A8 at lambda = -2 (33 solutions, union 9, surplus 24), where
  some family coefficients vanish mod p, so members that coincide mod p
  are counted once.
A deliberate change of a report updates its digest in the same commit.
A run that fails a precondition writes nothing on stdout; its stderr
line names the failure count.
"""
import hashlib
import re
from pathlib import Path

import pytest

from antiprelie.cli import main

GOLDEN = Path(__file__).parent / "golden"
REP = str(GOLDEN / "ca30-gf5.rep.json")
T_INV = str(GOLDEN / "anti-o-invertible.map.json")
T_BAD = str(GOLDEN / "not-anti-o.map.json")
T_RANK1 = str(GOLDEN / "anti-o-rank1.map.json")
BRACKETS = str(GOLDEN / "ca35-gf5-brackets.alg.json")
NOT_REP = str(GOLDEN / "strong-fails.rep.json")
T_PROJ = str(GOLDEN / "projection.map.json")
DENSE_Q = str(GOLDEN / "dense3-q.alg.json")
DENSE_GF5 = str(GOLDEN / "dense3-gf5.alg.json")

CASES = [
    (("catalog", "verify", "--scope", "all"), 0,
     "0fd4367ad624f9ef3796280b907b9fe53453e5f12d2928c87d1ac9c8433b6290"),
    (("z2", "--family", "A6", "--mode", "verify"), 0,
     "dfe619afee431f2e487059de99ccc1b51a51e5207cce5e7fa6188807b8227521"),
    (("z2", "--family", "A8", "--mode", "verify"), 0,
     "24218d2f5fa7746d749d52c009445de25cc12b801228442e337bcdf538d9651f"),
    (("z2", "--family", "A3", "--mode", "linear", "--prime", "5"), 0,
     "93c2adcda35d8a1d9b97925d626dda77bc35474103a73ebb074d9db77c8ee56d"),
    (("check", "--pair", str(GOLDEN / "ca10-mutated.alg.json"),
      "--compatible"), 1,
     "2812cdf5ed6f0576474b4998ee4d6c470622d4de28fcf46c934f46c223f869b8"),
    (("ops", "anti-o", "--rep", REP, "--map", T_BAD), 1,
     "8db55e3de5e1a1c062f7d70609b5963f5fda1b13665e79e7db8f8c1f08683680"),
    (("ops", "strong", "--rep", REP, "--map", T_INV), 0,
     "5e1207253c3ac9c94dcd407dd3652f32c8745659169315c51353557fa12ed007"),
    (("derive", "from-invertible", "--rep", REP, "--map", T_INV), 0,
     "aa2385654d151edb43edbfe2772a9f7304172b03babd0128c5829f63e632f625"),
    (("derive", "from-cocycle", "--form", str(GOLDEN / "pairing4.form.json"),
      "--brackets", str(GOLDEN / "ca30-tstar.alg.json")), 0,
     "babdaa8444eef9a644852d6e8597f41ec888ea2cf043d99a7762ae27de2bed7b"),
    (("derive", "from-vectors", "--form", str(GOLDEN / "sym3.form.json"),
      "--s1", "1,0,2", "--s2", "e3"), 0,
     "ee95417aca22bc355e7b51c00df181b061d7e65ae61f0be38ccdcd36eb03f134"),
    (("derive", "from-rb", "--brackets", BRACKETS,
      "--map", str(GOLDEN / "strong-anti-rb.map.json")), 0,
     "60a1711b0e42c2ca7b6aae5aee11d2a41a328ded3932d54ab741670ebd24fb55"),
    (("derive", "from-anti-o", "--rep", REP, "--map", T_RANK1), 0,
     "907637abe85339ea479e73929522a33bd01f5abac8af42f7b52684163656c765"),
    (("rep", "semidirect", "--rep", REP), 0,
     "fe738186100bcfe2297a29f76e8dcac9f028b4338f1fa7b1d1280edd198f82d2"),
    (("derive", "from-anti-o", "--rep", REP, "--map", T_BAD), 1,
     "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    (("ops", "rb", "--strong", "--brackets", BRACKETS, "--map",
      str(GOLDEN / "strong-anti-rb.map.json")), 0,
     "429c5d43e30efe5aa2a786de6b6395bc27471afc54438805df76a3a645588253"),
    (("ops", "rb", "--strong", "--brackets", BRACKETS, "--map", T_BAD), 1,
     "aeb0a83c6b493b7316213943024c72fecf734267f7ac5ddce70d200a19878c76"),
    (("ops", "anti-o", "--rep", NOT_REP, "--map", T_PROJ), 0,
     "010758da2032822ead861299232f93c888a82ccb3b0fd6558822a6a477767fb1"),
    (("ops", "strong", "--rep", NOT_REP, "--map", T_PROJ), 1,
     "532cbcfd37530c14b692bd353bcbba4bdccd36d1181b51d7a82055a773f0251a"),
    (("ops", "rb", "--strong", "--brackets",
      str(GOLDEN / "solvable-q.alg.json"),
      "--map", str(GOLDEN / "rb-fails-q.map.json")), 1,
     "080dc22688658b054482b48b4e878c122024bdcee072c732dc0af46d23371827"),
    (("ops", "rb", "--strong", "--brackets",
      str(GOLDEN / "solvable-laurent.alg.json"),
      "--map", str(GOLDEN / "rb-fails-laurent.map.json")), 1,
     "a523b1e47a6f5256db14e95d0222f58933ee29d62548defa48dc922ff23e8955"),
    (("check", "--pair", DENSE_Q, "--compatible", "--compatible-lie",
      "--compatible-associative"), 1,
     "aeeabdd4e130412c027f2df2fa649dc6947f1b2d9c4c56248b461e68b29697dc"),
    (("check", "--file", DENSE_GF5, "--identity", "pre-lie"), 1,
     "84c50b11a43ea6c3c9d97e7876e697012f7f17200feced2557c1b7ade12eb1f3"),
    (("check", "--file", DENSE_GF5, "--identity", "jacobi"), 1,
     "0978d125c3d269b7ba33d01b899f6966a613a12b13c6eddf536f2b03601a88b4"),
    (("z2", "--family", "A4", "--mode", "brute", "--prime", "5"), 0,
     "c5d14912188d36cb7a95e4e2297292a9023bb8a2fb1e429dec3faea3fa4baf47"),
    (("z2", "--family", "A6", "--mode", "brute", "--params", "lambda=-1",
      "--prime", "7"), 0,
     "78d329799988ee3063c14694d8289bca234253e17c496c1900981085601c37e6"),
    (("z2", "--family", "A6", "--mode", "linear", "--params", "lambda=-1",
      "--prime", "7"), 0,
     "e52e0575ce63e753fbe4d7f2c8ca19571cf38d39454e2bc53e4084a780f019e5"),
    (("z2", "--family", "A9", "--mode", "brute", "--prime", "2"), 0,
     "12f634510996fe67926ce9f73315ba805d8a77399e9bae86a7ce72caf90d751a"),
    (("z2", "--family", "A8", "--mode", "brute", "--params", "lambda=-2",
      "--prime", "3"), 0,
     "f007fb29ad6e70b7c6813fab3217cefa94bddb6c9fbe9e964dee5559e52bf7ae"),
]


@pytest.mark.parametrize("argv,code,digest", CASES,
                         ids=[" ".join(c[0][:2]) + f"-{i}"
                              for i, c in enumerate(CASES)])
def test_report_bytes_are_pinned(capsys, argv, code, digest):
    assert main(list(argv)) == code
    captured = capsys.readouterr()
    assert hashlib.sha256(captured.out.encode("utf-8")).hexdigest() == digest
    if not captured.out:
        assert re.fullmatch(r"precondition failed: .+ \(\d+ failures\)\n",
                            captured.err), captured.err
