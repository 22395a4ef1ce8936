"""Golden reports: the stdout bytes of fixed CLI runs, pinned as sha256.

A refactor that should not change any verdict or report must leave
every digest here unchanged.  The inputs under tests/golden/ are fixed
files: a CA10 symbolic pair with one structure constant changed, and
the GF(5) left-multiplication pair of CA30 at beta = 1, gamma = 2 with
two maps, an invertible anti-O-operator and a map that is not one.
A deliberate change of a report updates its digest in the same commit.
"""
import hashlib
from pathlib import Path

import pytest

from antiprelie.cli import main

GOLDEN = Path(__file__).parent / "golden"
REP = str(GOLDEN / "ca30-gf5.rep.json")
T_INV = str(GOLDEN / "anti-o-invertible.map.json")
T_BAD = str(GOLDEN / "not-anti-o.map.json")

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
]


@pytest.mark.parametrize("argv,code,digest", CASES,
                         ids=[" ".join(c[0][:2]) + f"-{i}"
                              for i, c in enumerate(CASES)])
def test_report_bytes_are_pinned(capsys, argv, code, digest):
    assert main(list(argv)) == code
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == digest
