"""The result records: their derived values, and what importing them costs.

The digests pin the output of every record method on C_3 and D_4; they were
taken from the last version whose records were dataclasses, so a change of
record type that changed a value would show here.
"""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

from qborel.datum import make_datum
from qborel.pbwgen import PBWGenerator, pbw_generators, pbw_intervals
from qborel.verify import (CaseResult, VerificationReport, coproduct_formula,
                           run_suites)

SRC = Path(__file__).resolve().parents[1] / "src"

C3 = make_datum("C", 3)
D4 = make_datum("D", 4)


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def test_import_loads_no_dataclasses_or_inspect():
    probe = ("import sys; sys.path.insert(0, sys.argv[1]); import qborel; "
             "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", probe, str(SRC)],
                         capture_output=True, text=True, check=True).stdout
    assert out.strip() == "[]"


@pytest.mark.parametrize("datum, labels", [
    (C3, "[3,3] [2,4] [2,3] [2,2] [1,5] [1,4] [1,3] [1,2] [1,1]"),
    (D4, "[3,4] [3,3] [2,5] [2,4] [2,3] [2,2] [1,6] [1,5] [1,4] [1,3] "
         "[1,2] [1,1]"),
], ids=["C3", "D4"])
def test_pbw_generator_label_degree_and_hash(datum, labels):
    gens = pbw_generators(datum)
    assert " ".join(g.label for g in gens) == labels
    for g in gens:
        assert g.degree == len(datum.series_word(g.k, g.m))
        assert hash(g) == hash((g.k, g.m, g.word))
        assert g == PBWGenerator(g.k, g.m, g.word)
    assert len(set(gens)) == len(gens)


@pytest.mark.parametrize("datum, want", [
    (C3, "e0cbd20abbd86016"),
    (D4, "01ccf62500947416"),
], ids=["C3", "D4"])
def test_coproduct_formula_methods(datum, want):
    docs = []
    for k, m in sorted(pbw_intervals(datum)):
        f = coproduct_formula(datum, k, m)
        docs.append([f.to_json_dict(), f.text_lines(),
                     {i: str(tau) for i, tau in f.tau_map().items()}])
    assert _digest(docs) == want


@pytest.mark.parametrize("datum, want", [
    (C3, "ee7c5c6e37841b40"),
    (D4, "c19eb2c874552429"),
], ids=["C3", "D4"])
def test_verification_report_methods(datum, want):
    reports = [r._replace(elapsed=1.25)
               for r in run_suites(datum, "all", max_degree=3, count=5)]
    assert _digest([[r.to_dict(), r.summary()] for r in reports]) == want


def test_records_are_immutable():
    case = CaseResult("c", False, "w")
    with pytest.raises(AttributeError):
        case.passed = True
    assert case._replace(passed=True) == CaseResult("c", True, "w")
    report = VerificationReport("s", [case])
    assert report.elapsed == 0.0 and not report.passed
    assert report.failures() == [case]
    assert report.summary() == "s: FAIL (0/1 cases, 0.00s)"
