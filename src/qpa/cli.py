"""Command line entry point: ``qpa decide FILE --problem P --mode M [--json]``.

Reads an automaton in the v1 text format, decides the query and prints the
verdict with its witness.  An input, format or budget error, or a file that
cannot be read, prints one line to standard error and exits with status 1.
"""
from __future__ import annotations

import argparse
import json
import sys
from typing import Sequence

from .errors import BudgetExceededError, InputError
from .formats import parse_automaton
from .qualitative import MODES, PROBLEMS, decide


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qpa", description=__doc__.split("\n")[0])
    commands = parser.add_subparsers(dest="command", required=True)
    dec = commands.add_parser("decide", help="decide one query on an automaton file")
    dec.add_argument("file", help="automaton in the v1 text format")
    dec.add_argument("--problem", required=True, choices=PROBLEMS)
    dec.add_argument("--mode", required=True, choices=MODES)
    dec.add_argument("--json", action="store_true", help="print one JSON object")
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        with open(args.file, encoding="utf-8") as fh:
            a = parse_automaton(fh.read())
        verdict = decide(a, args.problem, args.mode)
    except (InputError, BudgetExceededError, OSError, UnicodeDecodeError) as exc:
        print(f"qpa: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    if args.json:
        out = {"answer": verdict.answer, "witness": verdict.witness, "reason": verdict.reason}
        print(json.dumps(out, sort_keys=True))
        return 0
    print(f"answer: {verdict.answer}")
    if verdict.reason:
        print(f"reason: {verdict.reason}")
    if verdict.witness is not None:
        print(f"witness: {json.dumps(verdict.witness, sort_keys=True)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
