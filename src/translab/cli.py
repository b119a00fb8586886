"""Command-line front end.

Subcommands: new, check, sep, preann, tensor, prod, power-index,
invertible, extremes, report.  Inputs are subspace JSON files or inline
family addresses (toeplitz:3, minimal:4,5,2, phiblock:4,1, ...), accepted
anywhere a file path is.  All output is deterministic JSON on stdout.

Exit codes: 0 computed (the verdict may still be "unknown"), 1 usage or
input error, 2 enumeration budget exceeded (extremes; check and sep report
"unknown" instead).  Randomized paths take --seed and default to seed 0.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .deciders import (
    check_k_separating,
    check_k_transitive,
    find_invertible,
    rank_extremes_ff,
    DEFAULT_BUDGET,
)
from .errors import BudgetExceeded, TranslabError
from .families import build_family, parse_family
from .fields import QQ, field_from_tag
from .report import build_report, format_report_table
from .serialize import (
    dumps,
    mat_to_obj,
    rank_extremes_to_obj,
    separation_verdict_to_obj,
    subspace_from_obj,
    subspace_to_obj,
    transitivity_verdict_to_obj,
)
from .subspace import MatrixSubspace

__all__ = ["main", "run"]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(Exception):
    pass


def _load_space(text: str, field_tag: str | None = None) -> MatrixSubspace:
    """A subspace from a JSON file path or an inline family address."""
    if os.path.exists(text):
        try:
            with open(text, "r", encoding="utf-8") as fh:
                obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise _UsageError(
                f"{text}: invalid JSON at line {exc.lineno}, "
                f"column {exc.colno}: {exc.msg}") from exc
        except OSError as exc:
            raise _UsageError(f"{text}: {exc}") from exc
        try:
            return subspace_from_obj(obj)
        except (TranslabError, ValueError) as exc:
            raise _UsageError(f"{text}: {exc}") from exc
    try:
        field = field_from_tag(field_tag) if field_tag else QQ
        return build_family(parse_family(text), field)
    except (TranslabError, ValueError) as exc:
        raise _UsageError(f"{text!r}: {exc}") from exc


def _emit(obj: dict, output: str | None) -> None:
    text = dumps(obj)
    if output:
        with open(output, "w", encoding="utf-8") as fh:
            fh.write(text)
    sys.stdout.write(text)


def _parse_primes(text: str) -> tuple:
    try:
        primes = tuple(int(x) for x in text.split(",") if x.strip())
    except ValueError as exc:
        raise _UsageError(f"invalid prime list {text!r}") from exc
    if not primes:
        raise _UsageError("empty prime list")
    return primes


def _build_parser() -> _Parser:
    p = _Parser(prog="translab",
                description="construct, transform and certify transitivity "
                            "properties of matrix subspaces over exact fields")
    sub = p.add_subparsers(dest="command", required=True)

    def add_io(sp, inputs=1):
        for i in range(inputs):
            sp.add_argument("input" if inputs == 1 else f"input{i + 1}",
                            help="subspace JSON file or family address")
        sp.add_argument("-o", "--output", help="also write the JSON here")

    sp = sub.add_parser("new", help="construct a family instance")
    add_io(sp)
    sp.add_argument("--field", default=None,
                    help='target field tag: Q, Qi, GF(p), GF(p^2); family '
                         'addresses default to Q, files keep their own field')

    def add_decision(cmd, summary, strategy):
        sp = sub.add_parser(cmd, help=summary)
        add_io(sp)
        sp.add_argument("-k", type=int, required=True)
        sp.add_argument("--strategy", default="auto",
                        choices=["auto", "ff", strategy])
        sp.add_argument("--primes", default="5,7")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    add_decision("check", "decide k-transitivity", "numeric")
    add_decision("sep", "decide the k-separating property", "sample")

    sp = sub.add_parser("preann", help="compute the pre-annihilator")
    add_io(sp)

    sp = sub.add_parser("tensor", help="Kronecker tensor of two subspaces")
    add_io(sp, inputs=2)

    sp = sub.add_parser("prod", help="span of pairwise products")
    add_io(sp, inputs=2)

    sp = sub.add_parser("power-index",
                        help="least r with span(L ... L^r) full")
    add_io(sp)
    sp.add_argument("--max-r", type=int, default=None)

    sp = sub.add_parser("invertible", help="search an invertible element")
    add_io(sp)
    sp.add_argument("--attempts", type=int, default=200)
    sp.add_argument("--seed", type=int, default=0)

    sp = sub.add_parser("extremes",
                        help="exhaustive min/max rank over a finite field")
    add_io(sp)
    sp.add_argument("--mod", type=int, default=None,
                    help="reduce a rational input mod this prime first")
    sp.add_argument("--budget", type=int, default=DEFAULT_BUDGET)

    sp = sub.add_parser("report", help="run the reproduction manifest")
    sp.add_argument("target", nargs="?", default="paper",
                    choices=["paper", "full"])
    sp.add_argument("-o", "--output", help="also write the JSON here")
    sp.add_argument("--timings", action="store_true",
                    help="give each row's seconds in the table on stderr, "
                    "and the process CPU seconds in its summary")
    return p


def run(argv=None) -> int:
    """Entry point used by the console script; returns the exit code."""
    try:
        return _dispatch(_build_parser().parse_args(argv))
    except BudgetExceeded as exc:  # a TranslabError with its own exit code
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except (_UsageError, TranslabError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


_DECISIONS = {"check": (check_k_transitive, transitivity_verdict_to_obj),
              "sep": (check_k_separating, separation_verdict_to_obj)}


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "new":
        if os.path.exists(args.input):
            space = _load_space(args.input)
            if args.field is not None and args.field != space.field.tag:
                target = field_from_tag(args.field)
                if target.is_finite and not space.field.is_finite:
                    space = space.reduce_mod(target.size)
                else:
                    raise _UsageError(
                        f"cannot convert a {space.field.tag} subspace "
                        f"to {args.field}")
        else:
            space = _load_space(args.input, args.field or "Q")
        _emit(subspace_to_obj(space), args.output)
        return 0
    if cmd in _DECISIONS:
        decide, to_obj = _DECISIONS[cmd]
        space = _load_space(args.input)
        v = decide(space, args.k, args.strategy,
                   primes=_parse_primes(args.primes), seed=args.seed,
                   budget=args.budget)
        _emit(to_obj(v), args.output)
        return 0
    if cmd == "preann":
        space = _load_space(args.input)
        _emit(subspace_to_obj(space.preannihilator()), args.output)
        return 0
    if cmd in ("tensor", "prod"):
        A = _load_space(args.input1)
        B = _load_space(args.input2)
        _emit(subspace_to_obj(A.tensor(B) if cmd == "tensor"
                              else A.product_span(B)), args.output)
        return 0
    if cmd == "power-index":
        space = _load_space(args.input)
        idx = space.power_span_index(args.max_r)
        _emit({"kind": "power-span-index", "index": idx,
               "max_r": args.max_r}, args.output)
        return 0
    if cmd == "invertible":
        space = _load_space(args.input)
        M = find_invertible(space, attempts=args.attempts, seed=args.seed)
        _emit({"kind": "invertible-search",
               "found": M is not None,
               "matrix": mat_to_obj(M) if M is not None else None,
               "attempts": args.attempts, "seed": args.seed}, args.output)
        return 0
    if cmd == "extremes":
        space = _load_space(args.input)
        if args.mod is not None:
            space = space.reduce_mod(args.mod)
        if not space.field.is_finite:
            raise _UsageError(
                "extremes needs a finite-field subspace (use --mod p)")
        ex = rank_extremes_ff(space, budget=args.budget)
        _emit(rank_extremes_to_obj(ex), args.output)
        return 0
    if cmd == "report":
        seconds = [] if args.timings else None
        cpu_s = time.process_time()
        report = build_report(seconds)
        cpu_s = time.process_time() - cpu_s
        _emit(report, args.output)
        print(format_report_table(report, seconds, cpu_s), file=sys.stderr)
        return 0 if report["all_ok"] else 1
    raise _UsageError(f"unknown command {cmd!r}")


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
