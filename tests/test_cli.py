import json
import os
import re
import subprocess
import sys

import pytest

import qborel
from qborel.cli import (MAX_EXPR_DEPTH, BracketSyntaxError, bind_expr,
                        build_parser, parse_expr, run_command)
from qborel.datum import IndexOutOfRange, make_datum
from qborel.freeword import FreeElem, skew_bracket
from qborel.pbwgen import tau_table
from qborel.shuffle import eval_free


def test_parse_expr_examples():
    assert parse_expr("[x1,x2]") == ("skew", ("x", 1), ("x", 2))
    assert parse_expr("qb([x1,x2],x1)") == \
        ("qq", ("skew", ("x", 1), ("x", 2)), ("x", 1))
    assert parse_expr(" [ x1 , x12 ] ") == ("skew", ("x", 1), ("x", 12))


def test_parse_expr_offsets():
    with pytest.raises(BracketSyntaxError) as err:
        parse_expr("[x1,[x2")
    assert err.value.offset == 7
    with pytest.raises(BracketSyntaxError) as err:
        parse_expr("y1")
    assert err.value.offset == 0
    with pytest.raises(BracketSyntaxError) as err:
        parse_expr("[x1,x2]]")
    assert err.value.offset == 7


def test_bind_expr():
    d = make_datum("C", 2)
    tree = parse_expr("qb([x1,x2],x3)")
    x1, x2, x3 = (FreeElem.letter(d, i) for i in (1, 2, 3))
    qinv = d.q_power(-1)
    assert bind_expr(d, tree) == \
        eval_free(d, skew_bracket(d, skew_bracket(d, x1, x2), x3, qinv))
    tree = parse_expr("[[x1,x2],[x2,qb(x3,x1)]]")
    want = skew_bracket(d, skew_bracket(d, x1, x2),
                        skew_bracket(d, x2, skew_bracket(d, x3, x1, qinv)))
    assert bind_expr(d, tree) == eval_free(d, want)
    with pytest.raises(IndexOutOfRange):
        bind_expr(d, parse_expr("x9"))


def chain(depth):
    """The left-nested chain [[...[x1,x2],x2]...,x2] of the given depth."""
    return "[" * depth + "x1" + ",x2]" * depth


def test_parse_expr_depth_limit(capsys):
    inside = parse_expr(chain(MAX_EXPR_DEPTH))
    for _ in range(MAX_EXPR_DEPTH):
        assert inside[0] == "skew" and inside[2] == ("x", 2)
        inside = inside[1]
    assert inside == ("x", 1)
    with pytest.raises(BracketSyntaxError) as err:
        parse_expr(chain(MAX_EXPR_DEPTH + 1))
    assert err.value.offset == MAX_EXPR_DEPTH
    with pytest.raises(BracketSyntaxError) as err:
        parse_expr("qb(" * MAX_EXPR_DEPTH + "[x1,x1]" + ",x1)" * MAX_EXPR_DEPTH)
    assert err.value.offset == 3 * MAX_EXPR_DEPTH
    # far past the limit the command still exits as a usage error
    assert run_command(["eval", "--series", "C", "--rank", "2",
                        "--expr", chain(3000)]) == 2
    assert "nested deeper" in capsys.readouterr().err


def test_eval_does_not_expand(monkeypatch, capsys):
    # [[x1,x2],x2] is a Serre relation of C_2, so the chain's image is 0;
    # expanding its free-algebra form would take 2^60 words
    def refuse(self, other):
        raise AssertionError("free-algebra product called")

    monkeypatch.setattr(FreeElem, "__mul__", refuse)
    code = run_command(["eval", "--series", "C", "--rank", "2",
                        "--expr", chain(60)])
    assert code == 0
    assert capsys.readouterr().out.strip() == "0"
    assert run_command(["eval", "--series", "C", "--rank", "2",
                        "--expr", chain(MAX_EXPR_DEPTH)]) == 0
    assert capsys.readouterr().out.strip() == "0"


def test_eval_command(capsys):
    for expr, want in [
        ("[x1,x2]", "(q^2-1)*t_1_2 * (x2 x1)"),
        # a q-only sum is parenthesised like a sum over t-monomials
        ("[x1,x1]", "(-q+q^-1) * (x1 x1)"),
        ("qb([x1,x2],x3)", "(q-1-q^-1+q^-2) * (x1 x2 x1)"),
    ]:
        code = run_command(["eval", "--series", "C", "--rank", "2",
                            "--expr", expr])
        assert code == 0
        assert capsys.readouterr().out.strip() == want


def test_eval_command_json_roundtrip(capsys):
    code = run_command(["eval", "--series", "C", "--rank", "2",
                        "--expr", "qb([x1,x2],x3)", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["command"] == "eval"
    d = make_datum("C", 2)
    image = bind_expr(d, parse_expr("qb([x1,x2],x3)"))
    assert doc["terms"] == [
        {"comonomial": [f"x{i}" for i in z], "coefficient": str(c)}
        for z, c in image.sorted_terms()
    ]


def test_coproduct_command_json(capsys):
    code = run_command(["coproduct", "--series", "D", "--rank", "4",
                        "--k", "1", "--m", "7", "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert {"series", "rank", "k", "m", "terms"} <= set(doc)
    assert next(iter(doc)) == "command" and doc["command"] == "coproduct"
    assert doc["passed"] is True
    assert doc["series"] == "D" and doc["k"] == 1 and doc["m"] == 7
    d = make_datum("D", 4)
    by_i = {t["i"]: t for t in doc["terms"]}
    assert by_i[3]["tau"] == "t_3_4^-1"  # p_{4,3} in the multiparameter datum
    assert by_i[3]["left"] == "e[4,7]" and by_i[3]["right"] == "e[1,3]"
    assert by_i[3]["grouplike"] == [1, 1, 1, 0]
    taus = tau_table(d, 1, 7)
    one_minus_qinv = 1 - d.q_power(-1)
    for t in doc["terms"]:
        tau = taus[t["i"]]
        assert t["tau"] == str(tau)
        assert t["coefficient"] == str(tau * one_minus_qinv)


def test_coproduct_text_lists_tau(capsys):
    code = run_command(["coproduct", "--series", "D", "--rank", "4",
                        "--k", "1", "--m", "7"])
    out = capsys.readouterr().out
    assert code == 0
    assert "tau_3 = t_3_4^-1" in out
    assert out.startswith("Delta(e[1,7]) = e[1,7] (x) 1 + g[1,7] (x) e[1,7]\n")
    assert "g[1,3] e[4,7] (x) e[1,3]" in out


def test_coproduct_discover_mode_flag(capsys):
    code = run_command(["coproduct", "--series", "C", "--rank", "2",
                        "--k", "2", "--m", "3", "--mode", "discover",
                        "--format", "json"])
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["mode"] == "discover"
    assert doc["terms"][0]["tau"] == "1+q^-1"  # the k = n exception


def test_verify_command_json(capsys):
    code = run_command(["verify", "--series", "C", "--rank", "2",
                        "--suite", "all", "--format", "json",
                        "--max-degree", "3", "--count", "5"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert doc["passed"] is True
    assert {r["suite"] for r in doc["reports"]} >= {"serre", "coproduct"}


def test_verify_series_a(capsys):
    code = run_command(["verify", "--series", "A", "--rank", "2",
                        "--suite", "coproduct"])
    assert code == 0
    assert "an-no-exceptions" in capsys.readouterr().out


def test_pbw_command(capsys):
    code = run_command(["pbw", "--series", "C", "--rank", "2",
                        "--max-degree", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "25/25" in out


def test_pbw_has_no_mode_option(capsys):
    # the certificate always runs at the numeric point of --seed
    code = run_command(["pbw", "--series", "C", "--rank", "2",
                        "--max-degree", "2", "--mode", "numeric"])
    assert code == 2
    assert "--mode" in capsys.readouterr().err


@pytest.mark.parametrize("argv, rank_line", [
    (["--series", "D", "--rank", "4", "--max-degree", "5"],
     "rank at seed 0: 321/321 products, 1365 comonomials, degree <= 5"),
    (["--series", "C", "--rank", "3", "--max-degree", "6"],
     "rank at seed 0: 263/263 products, 1093 comonomials, degree <= 6"),
    # above the benchmark's sizes
    (["--series", "C", "--rank", "4", "--max-degree", "7"],
     "rank at seed 0: 1509/1509 products, 21845 comonomials, degree <= 7"),
    (["--series", "D", "--rank", "4", "--max-degree", "6"],
     "rank at seed 0: 699/699 products, 5461 comonomials, degree <= 6"),
])
def test_pbw_builds_only_the_point_it_certifies(argv, rank_line, monkeypatch,
                                                capsys):
    built = []

    def spy(series, n, mode="multiparameter", **kwargs):
        built.append(mode)
        return make_datum(series, n, mode, **kwargs)

    monkeypatch.setattr(qborel.cli, "make_datum", spy)
    monkeypatch.setattr(qborel.verify, "make_datum", spy)
    assert run_command(["pbw", *argv, "--seed", "0"]) == 0
    assert built == ["numeric"]
    assert capsys.readouterr().out.splitlines()[1] == f"  ok  {rank_line}"


def test_usage_errors(capsys):
    assert run_command(["verify", "--series", "E", "--rank", "2",
                        "--suite", "all"]) == 2
    assert run_command([]) == 2
    assert run_command(["eval", "--series", "C", "--rank", "2",
                        "--expr", "[x1,[x2"]) == 2
    assert run_command(["eval", "--series", "C", "--rank", "2",
                        "--expr", "x9"]) == 2
    assert run_command(["verify", "--series", "C", "--rank", "1",
                        "--suite", "all"]) == 2
    assert run_command(["verify", "--series", "A", "--rank", "3",
                        "--suite", "arrangements"]) == 2
    assert "series C or D" in capsys.readouterr().err


def test_parser_is_built_once_and_reused_without_state(capsys):
    assert build_parser() is build_parser()
    good = ["pbw", "--series", "C", "--rank", "2", "--max-degree", "3"]
    bad = ["pbw", "--series", "C", "--rank", "2", "--max-degree", "x"]

    def run(argv, fresh):
        if fresh:
            build_parser.cache_clear()
        code = run_command(argv)
        out, err = capsys.readouterr()
        return code, re.sub(r"\d+\.\d+s\)", "s)", out), err

    want = {"good": run(good, True), "bad": run(bad, True)}
    assert want["good"][0] == 0 and "14/14 products" in want["good"][1]
    assert want["bad"][0] == 2 and "--max-degree" in want["bad"][2]
    # a bad argv after a good call, and a good call after a bad one, on
    # the same parser
    for name in ("good", "bad", "good", "bad"):
        assert run(good if name == "good" else bad, False) == want[name]


@pytest.mark.parametrize("count", ["0", "-4"])
def test_verify_count_must_be_positive(count, capsys):
    code = run_command(["verify", "--series", "C", "--rank", "2",
                        "--suite", "identities", "--count", count])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--count" in captured.err and "at least 1" in captured.err


def test_verify_max_degree_checked_before_any_suite(capsys):
    code = run_command(["verify", "--series", "C", "--rank", "2",
                        "--suite", "sigma", "--max-degree", "0"])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--max-degree" in captured.err


@pytest.mark.parametrize("max_degree", ["0", "-1"])
def test_pbw_max_degree_must_be_positive(max_degree, capsys):
    code = run_command(["pbw", "--series", "C", "--rank", "2",
                        "--max-degree", max_degree])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: --max-degree must be at least 1, "
                            f"got {max_degree}\n")


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code = run_command(["verify", "--series", "C", "--rank", "2",
                        "--suite", "serre", "--format", "json",
                        "--out", str(target)])
    assert code == 0
    doc = json.loads(target.read_text())
    assert doc["passed"] is True
    assert capsys.readouterr().out == ""
    # a file that cannot be written is a usage error, not a failed check
    target = tmp_path / "missing" / "report.json"
    assert run_command(["verify", "--series", "C", "--rank", "2",
                        "--suite", "sigma", "--out", str(target)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and str(target) in captured.err


def test_numeric_mode_flag(capsys):
    code = run_command(["verify", "--series", "D", "--rank", "3",
                        "--suite", "serre", "--mode", "numeric"])
    assert code == 0
    assert "(numeric)" in capsys.readouterr().out


def test_default_mode_is_numeric_from_rank_5(capsys):
    for rank, mode in (("4", "(multiparameter)"), ("5", "(numeric)")):
        assert run_command(["verify", "--series", "C", "--rank", rank,
                            "--suite", "sigma"]) == 0
        assert mode in capsys.readouterr().out.splitlines()[0]


@pytest.mark.parametrize("command", [["verify", "--suite", "sigma"],
                                     ["eval", "--expr", "x1"]])
def test_mode_auto_is_refused(command, capsys):
    code = run_command([command[0], "--series", "C", "--rank", "2",
                        "--mode", "auto", *command[1:]])
    assert code == 2
    assert "--mode" in capsys.readouterr().err


@pytest.mark.parametrize("suite,code", [("sigma", 0), ("bogus", 2)])
def test_module_entry_point_exit_code(suite, code):
    # main() hands run_command's code to sys.exit in a fresh interpreter
    src = os.path.dirname(os.path.dirname(qborel.__file__))
    out = subprocess.run([sys.executable, "-m", "qborel.cli", "verify",
                          "--series", "C", "--rank", "2", "--suite", suite],
                         env=dict(os.environ, PYTHONPATH=src),
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == code, out.stderr
