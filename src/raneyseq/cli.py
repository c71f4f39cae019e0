"""Command-line front-end: counting, enumeration, bijection mapping and
verification suites.

Exit codes: 0 success, 1 verification failure, 2 invalid input.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Iterator

from . import ballot, paths, threshold, trees, verify
from .errors import InvalidParameterError, RaneyseqError
from .threshold import ThresholdParams, ThresholdSequence

# Each map direction and the option holding its input.
DIRECTIONS = {"seq-to-trees": "seq", "trees-to-seq": "tuple",
              "seq-to-path": "seq", "path-to-seq": "path",
              "seq-to-ballot": "seq", "ballot-to-seq": "word"}
# The output formats each enumerated kind can emit.
FORMATS = {"seq": ("json", "csv"), "path": ("json", "csv", "ascii"),
           "tree": ("json", "dot"), "tuple": ("json",)}


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _budget(args: argparse.Namespace) -> int:
    if args.budget is not None:
        return args.budget
    env = os.environ.get("RANEYSEQ_BUDGET")
    return int(env) if env else verify.DEFAULT_BUDGET


def _parse_seq(args: argparse.Namespace) -> ThresholdSequence:
    values = [int(x) for x in args.seq.split(",")]
    params = ThresholdParams(args.k, args.l, len(values), args.d)
    return threshold.validate(values, params)


def cmd_count(args: argparse.Namespace) -> int:
    params = ThresholdParams(args.k, args.l, args.n, args.d)
    value = threshold.count_proper(params) if args.proper else threshold.count(params)
    print(value)
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.format not in FORMATS[args.kind]:
        raise InvalidParameterError(
            f"--kind {args.kind} cannot emit --format {args.format}")
    budget = _budget(args)
    out = sys.stdout
    if args.kind == "seq":
        params = ThresholdParams(args.k, args.l, args.n, args.d)
        for seq in threshold.enumerate_sequences(params, budget=budget):
            if args.format == "csv":
                out.write(",".join(map(str, seq.values)) + "\n")
            else:
                out.write(json.dumps(seq.to_json()) + "\n")
    elif args.kind == "path":
        for path in paths.enumerate_paths(args.k, args.l, args.n, budget=budget):
            if args.format == "csv":
                out.write(",".join(map(str, path.rises)) + "\n")
            elif args.format == "ascii":
                out.write(paths.render_ascii(path) + "\n\n")
            else:
                out.write(json.dumps(path.to_json()) + "\n")
    elif args.kind == "tree":
        for tree in trees.enumerate_trees(args.k, args.n, budget=budget):
            if args.format == "dot":
                out.write(trees.to_dot(tree) + "\n")
            else:
                out.write(json.dumps(tree.to_json()) + "\n")
    else:  # tuple
        for t in trees.enumerate_tuples(args.k, args.l + 1, args.n, budget=budget):
            out.write(json.dumps(t.to_json()) + "\n")
    return 0


def cmd_map(args: argparse.Namespace) -> int:
    source = DIRECTIONS[args.direction]
    if getattr(args, source) is None:
        raise InvalidParameterError(f"{args.direction} needs --{source}")
    out = sys.stdout
    if args.direction == "seq-to-trees":
        t = trees.tuple_of(_parse_seq(args))
        out.write(json.dumps(t.to_json()) + "\n")
    elif args.direction == "trees-to-seq":
        t = trees.TreeTuple.from_json(args.k, args.tuple)
        seq = trees.sequence_of_tuple(t, args.n)
        out.write(json.dumps(seq.to_json()) + "\n")
    elif args.direction == "seq-to-path":
        path = paths.path_of(_parse_seq(args))
        if args.format == "ascii":
            out.write(paths.render_ascii(path) + "\n")
        elif args.format == "csv":
            out.write(",".join(map(str, path.rises)) + "\n")
        else:
            out.write(json.dumps(path.to_json()) + "\n")
    elif args.direction == "path-to-seq":
        rises = tuple(int(x) for x in args.path.split(","))
        seq = paths.sequence_of_path(paths.ExtMotzkinPath(args.k, rises), args.l)
        out.write(json.dumps(seq.to_json()) + "\n")
    elif args.direction == "seq-to-ballot":
        out.write(ballot.to_ballot(_parse_seq(args)).letters + "\n")
    else:  # ballot-to-seq
        word = ballot.BallotWord(args.k, args.word)
        seq = ballot.from_ballot(word, args.k, args.l)
        out.write(json.dumps(seq.to_json()) + "\n")
    return 0


def _emit_report(report: verify.VerifyReport, out) -> None:
    out.write(json.dumps(report.to_json()) + "\n")


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify.check_bijections(args.k, args.l, args.n,
                                     budget=_budget(args))
    _emit_report(report, sys.stdout)
    return 0 if report.passed else 1


def cmd_identities(args: argparse.Namespace) -> int:
    reports: list[verify.VerifyReport] = []
    if args.suite in ("all", "identities"):
        reports.extend(verify.identity_suites())
    if args.suite in ("all", "ballot"):
        ballot_report = verify.check_ballot_claim()
        reports.append(ballot_report)
        if args.report:
            summary = verify.ballot_claim_summary(ballot_report)
            with open(args.report, "w") as fh:
                json.dump(summary, fh, indent=2)
    for report in reports:
        _emit_report(report, sys.stdout)
    return 0 if all(report.passed for report in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raneyseq",
        description="Threshold sequences, tree tuples and extended Motzkin "
                    "paths with exact counts and cross-verified bijections.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, need_n=True):
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--l", type=int, default=0)
        if need_n:
            p.add_argument("--n", type=int, required=True)
        p.add_argument("--d", type=int, default=0)

    p = sub.add_parser("count", help="print the exact sequence count")
    add_common(p)
    p.add_argument("--proper", action="store_true",
                   help="count proper sequences instead")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="stream objects one per line")
    add_common(p)
    p.add_argument("--kind", choices=("seq", "tree", "tuple", "path"),
                   default="seq")
    p.add_argument("--format", choices=("json", "csv", "dot", "ascii"),
                   default="json")
    p.add_argument("--budget", type=_nonnegative, default=None)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("map", help="map one object through a bijection")
    p.add_argument("direction", choices=DIRECTIONS)
    add_common(p, need_n=False)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--seq", help="comma-separated sequence values")
    p.add_argument("--tuple", help="JSON tree-tuple encoding")
    p.add_argument("--path", help="comma-separated rises")
    p.add_argument("--word", help="ballot word over {A,B}")
    p.add_argument("--format", choices=("json", "csv", "ascii"), default="json")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("verify", help="run the bijection suite for one cell")
    add_common(p)
    p.add_argument("--budget", type=_nonnegative, default=None)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("identities", help="run the exact identity suites")
    p.add_argument("--suite", choices=("all", "identities", "ballot"),
                   default="all")
    p.add_argument("--report", help="write the ballot-claim summary JSON here")
    p.set_defaults(func=cmd_identities)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except RaneyseqError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, json.JSONDecodeError) as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
