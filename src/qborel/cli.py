"""Command-line front end.

Subcommands::

    verify    --series {A|C|D} --rank N --suite {serre|identities|arrangements|
              coproduct|pbw|sigma|all} [--mode {symbolic|numeric}] [--seed S]
              [--max-degree D] [--count C] [--format {text|json}] [--out FILE]
    coproduct --series ... --rank ... --k K --m M [--mode {assert|discover}]
              [--format {text|json}] [--out FILE]
    eval      --series ... --rank ... --expr E [--mode {symbolic|numeric}]
              [--format {text|json}]
    pbw       --series ... --rank ... --max-degree D [--seed S] [--format ...]

Exit codes: 0 all cases pass, 1 mathematical failure (with witness),
2 usage error, including an ``--out`` file that cannot be written.  JSON
output is a single document per run, with every polynomial rendered in its
canonical string form.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache

from .coeffring import NonDivisible
from .datum import IndexOutOfRange, make_datum
from .shuffle import ShuffleElem, shuffle_bracket
from .verify import (NonProportionalProjection, SUITES, coproduct_formula,
                     run_suites, verify_pbw_independence)


class BracketSyntaxError(ValueError):
    """Malformed bracket expression; carries the byte offset."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} at offset {offset}")
        self.offset = offset


# -- bracket expressions -----------------------------------------------------
#
# expr := "x" INT | "[" expr "," expr "]" | "qb(" expr "," expr ")"
# Whitespace-insensitive; leaves are bound to letters of the active datum
# only when the expression is evaluated.

MAX_EXPR_DEPTH = 200  # parsing and binding recurse once per level


def parse_expr(text: str):
    parser = _ExprParser(text)
    tree = parser.expr()
    parser.skip_ws()
    if parser.pos != len(text):
        raise BracketSyntaxError("trailing input", parser.pos)
    return tree


class _ExprParser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expect(self, ch: str):
        if self.peek() != ch:
            raise BracketSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def expr(self, depth: int = 0):
        ch = self.peek()
        if ch == "x":
            self.pos += 1
            start = self.pos
            while self.pos < len(self.text) and self.text[self.pos].isdigit():
                self.pos += 1
            if self.pos == start:
                raise BracketSyntaxError("expected a letter index", start)
            return ("x", int(self.text[start:self.pos]))
        if ch in ("[", "q") and depth == MAX_EXPR_DEPTH:
            raise BracketSyntaxError(
                f"brackets nested deeper than {MAX_EXPR_DEPTH}", self.pos)
        if ch == "[":
            self.pos += 1
            lhs = self.expr(depth + 1)
            self.expect(",")
            rhs = self.expr(depth + 1)
            self.expect("]")
            return ("skew", lhs, rhs)
        if ch == "q":
            if self.text[self.pos:self.pos + 2] != "qb":
                raise BracketSyntaxError("expected 'qb('", self.pos)
            self.pos += 2
            self.expect("(")
            lhs = self.expr(depth + 1)
            self.expect(",")
            rhs = self.expr(depth + 1)
            self.expect(")")
            return ("qq", lhs, rhs)
        raise BracketSyntaxError("expected 'x', '[' or 'qb('", self.pos)


def bind_expr(datum, tree) -> ShuffleElem:
    """The shuffle image of a parsed expression; letter range checked here."""
    if tree[0] == "x":
        return ShuffleElem.letter(datum, tree[1])
    lhs = bind_expr(datum, tree[1])
    rhs = bind_expr(datum, tree[2])
    factor = datum.q_power(-1) if tree[0] == "qq" else None
    return shuffle_bracket(datum, lhs, rhs, factor)


# -- command implementations ---------------------------------------------------

def _make_datum_for(args) -> object:
    mode = getattr(args, "mode", None)
    if mode == "numeric" or (mode is None and args.rank >= 5):
        return make_datum(args.series, args.rank, "numeric", seed=getattr(args, "seed", 0))
    return make_datum(args.series, args.rank, "multiparameter")


def _emit(args, text_lines, json_doc) -> None:
    if args.format == "json":
        payload = json.dumps(json_doc, indent=2)
    else:
        payload = "\n".join(text_lines)
    out_file = getattr(args, "out", None)
    if out_file:
        with open(out_file, "w") as fh:
            fh.write(payload + "\n")
    else:
        print(payload)


def _at_least_one(flag: str, value: int) -> None:
    if value < 1:
        raise ValueError(f"{flag} must be at least 1, got {value}")


def _cmd_verify(args) -> int:
    _at_least_one("--count", args.count)
    _at_least_one("--max-degree", args.max_degree)
    datum = _make_datum_for(args)
    reports = run_suites(datum, args.suite, seed=args.seed,
                         max_degree=args.max_degree, count=args.count)
    ok = all(r.passed for r in reports)
    lines = [f"verify {args.series}_{args.rank} ({datum.mode})"]
    for r in sorted(reports, key=lambda r: r.suite):
        lines.append(r.summary())
        for c in r.failures():
            lines.append(f"  FAIL {c.name}: {c.witness}")
    lines.append("all suites pass" if ok else "FAILURES present")
    doc = {
        "command": "verify",
        "series": args.series,
        "rank": args.rank,
        "mode": datum.mode,
        "suite": args.suite,
        "seed": args.seed,
        "passed": ok,
        "reports": [r.to_dict() for r in sorted(reports, key=lambda r: r.suite)],
    }
    _emit(args, lines, doc)
    return 0 if ok else 1


def _cmd_coproduct(args) -> int:
    datum = _make_datum_for(args)
    try:
        formula = coproduct_formula(datum, args.k, args.m, mode=args.cmode)
    except (NonProportionalProjection, NonDivisible) as exc:
        _emit(args, [f"FAIL: {exc}"],
              {"command": "coproduct", "series": args.series, "rank": args.rank,
               "k": args.k, "m": args.m, "passed": False, "witness": str(exc)})
        return 1
    _emit(args, formula.text_lines(),
          {"command": "coproduct", **formula.to_json_dict(), "passed": True})
    return 0


def _cmd_eval(args) -> int:
    datum = _make_datum_for(args)
    image = bind_expr(datum, parse_expr(args.expr))
    doc = {
        "command": "eval",
        "series": args.series,
        "rank": args.rank,
        "expr": args.expr,
        "result": str(image),
        "terms": [
            {"comonomial": [f"x{i}" for i in z], "coefficient": str(c)}
            for z, c in image.sorted_terms()
        ],
    }
    _emit(args, [str(image)], doc)
    return 0


def _cmd_pbw(args) -> int:
    _at_least_one("--max-degree", args.max_degree)
    datum = _make_datum_for(args)
    report = verify_pbw_independence(datum, args.max_degree, seed=args.seed)
    lines = [report.summary()]
    for c in report.cases:
        mark = "ok " if c.passed else "FAIL"
        lines.append(f"  {mark} {c.name}" + (f": {c.witness}" if c.witness else ""))
    doc = {
        "command": "pbw",
        "series": args.series,
        "rank": args.rank,
        "max_degree": args.max_degree,
        "seed": args.seed,
        "passed": report.passed,
        "report": report.to_dict(),
    }
    _emit(args, lines, doc)
    return 0 if report.passed else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing
    leaves it unchanged, so each ``run_command`` reuses it."""
    top = argparse.ArgumentParser(
        prog="qborel",
        description="PBW generators and coproducts of positive quantum Borel "
                    "algebras inside the braided shuffle algebra.")
    sub = top.add_subparsers(dest="command", required=True)

    def common(p, with_mode=True):
        p.add_argument("--series", required=True, choices=("A", "C", "D"))
        p.add_argument("--rank", required=True, type=int)
        if with_mode:
            p.add_argument("--mode", choices=("symbolic", "numeric"),
                           default=None,
                           help="symbolic multiparameter datum or numeric "
                                "rational specialization (default: symbolic "
                                "for rank <= 4, numeric for rank >= 5)")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.add_argument("--out", help="write output to a file instead of stdout")

    p = sub.add_parser("verify", help="run verification suites")
    common(p)
    p.add_argument("--suite", required=True, choices=SUITES)
    p.add_argument("--max-degree", type=int, default=4, dest="max_degree")
    p.add_argument("--count", type=int, default=100,
                   help="instances per identity in the identity suite")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("coproduct", help="emit one coproduct formula")
    common(p, with_mode=False)
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--m", required=True, type=int)
    p.add_argument("--mode", dest="cmode", choices=("assert", "discover"),
                   default="assert",
                   help="check the closed form or rediscover it by division")
    p.set_defaults(fn=_cmd_coproduct)

    p = sub.add_parser("eval", help="evaluate a bracket expression in the "
                                    "shuffle algebra")
    common(p)
    p.add_argument("--expr", required=True)
    p.set_defaults(fn=_cmd_eval)

    p = sub.add_parser("pbw", help="PBW independence certificate")
    common(p, with_mode=False)
    p.add_argument("--max-degree", type=int, default=4, dest="max_degree")
    # the certificate runs at a numeric point, so build that one
    p.set_defaults(fn=_cmd_pbw, mode="numeric")
    return top


def run_command(argv=None) -> int:
    """Parse argv and run; returns the process exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.fn(args)
    except (IndexOutOfRange, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
