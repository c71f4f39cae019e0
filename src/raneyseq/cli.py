"""Command-line front-end: counting, enumeration, bijection mapping and
verification suites.

Exit codes: 0 ok, 1 a suite failed, 2 invalid input, 141 stdout closed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import ballot, exactmath, paths, threshold, trees, verify
from .errors import InvalidParameterError, RaneyseqError
from .threshold import ThresholdParams, ThresholdSequence


def _json(obj) -> str:
    return json.dumps(obj.to_json())


# Each kind of object, the formats it can be written in (the first is the
# default of `map`) and how one object is written in each.  Lambdas look
# the library up at call time, so a traced run sees each layer call.
WRITERS = {
    "seq": {"json": lambda seq: seq.json_text(),
            "csv": lambda seq: ",".join(map(str, seq.values))},
    "path": {"json": lambda path: path.json_text(),
             "csv": lambda path: ",".join(map(str, path.rises)),
             "ascii": lambda path: paths.render_ascii(path)},
    "tree": {"json": lambda tree: tree.json_text(),
             "dot": lambda tree: trees.to_dot(tree)},
    "tuple": {"json": lambda t: t.json_text()},
    "word": {"text": lambda word: word.letters},
}
# Each kind `enumerate` streams, and its objects given (cell, budget).
ENUMERATORS = {
    "seq": lambda c, budget: threshold.enumerate_sequences(c, budget),
    "tree": lambda c, budget: trees.enumerate_trees(c.k, c.n, budget),
    "tuple": lambda c, budget: trees.enumerate_tuples(c.k, c.l + 1, c.n, budget),
    "path": lambda c, budget: paths.enumerate_paths(c.k, c.l, c.n, budget),
}
# Each map direction: the option holding its input, the map from the
# parsed arguments to the image, and the kind of the image.
DIRECTIONS = {
    "seq-to-trees": ("seq", lambda a: trees.tuple_of(_parse_seq(a)), "tuple"),
    "trees-to-seq": ("tuple", lambda a: _seq_of_tuple(a), "seq"),
    "seq-to-path": ("seq", lambda a: paths.path_of(_parse_seq(a)), "path"),
    "path-to-seq": ("path", lambda a: paths.sequence_of_path(
        paths.ExtMotzkinPath(a.k, _ints(a.path)), a.l), "seq"),
    "seq-to-ballot": ("seq", lambda a: ballot.to_ballot(_parse_seq(a)), "word"),
    "ballot-to-seq": ("word", lambda a: ballot.from_ballot(
        ballot.BallotWord(a.k, a.word), a.k, a.l), "seq"),
}


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _ints(text: str) -> tuple[int, ...]:
    return tuple(int(x) for x in text.split(","))


def _parse_seq(args: argparse.Namespace) -> ThresholdSequence:
    values = _ints(args.seq)
    return threshold.validate(values, ThresholdParams(args.k, args.l, len(values)))


def _seq_of_tuple(args: argparse.Namespace) -> ThresholdSequence:
    # The tuple's length fixes l, so a given --l must agree with it.
    tup = trees.TreeTuple.from_json(args.k, args.tuple)
    if args.l is not None and args.l != tup.r - 1:
        raise InvalidParameterError(
            f"--l {args.l} disagrees with a {tup.r}-tuple (l = {tup.r - 1})")
    return trees.sequence_of_tuple(tup, args.n)


def cmd_count(args: argparse.Namespace) -> int:
    params = ThresholdParams(args.k, args.l, args.n)
    value = threshold.count_proper(params) if args.proper else threshold.count(params)
    sys.stdout.write(exactmath.decimal_text(value) + "\n")
    return 0


def cmd_enumerate(args: argparse.Namespace) -> int:
    if args.format not in WRITERS[args.kind]:
        raise InvalidParameterError(
            f"--kind {args.kind} cannot emit --format {args.format}")
    if args.d and args.kind != "seq":
        raise InvalidParameterError(f"--kind {args.kind} takes no --d")
    if args.l and args.kind == "tree":
        raise InvalidParameterError("--kind tree takes no --l")
    cell = ThresholdParams(args.k, args.l, args.n, args.d)
    write = WRITERS[args.kind][args.format]
    end = "\n\n" if args.format == "ascii" else "\n"  # a blank line between drawings
    out = sys.stdout
    for obj in ENUMERATORS[args.kind](cell, args.budget):
        out.write(write(obj) + end)
    return 0


def cmd_map(args: argparse.Namespace) -> int:
    source, image_of, kind = DIRECTIONS[args.direction]
    if getattr(args, source) is None:
        raise InvalidParameterError(f"{args.direction} needs --{source}")
    for other in dict.fromkeys(src for src, _, _ in DIRECTIONS.values()):
        if other != source and getattr(args, other) is not None:
            raise InvalidParameterError(f"{args.direction} takes no --{other}")
    if args.n is not None and args.direction != "trees-to-seq":
        raise InvalidParameterError(f"{args.direction} takes no --n")
    if args.l is None and args.direction != "trees-to-seq":
        args.l = 0  # only a tuple fixes l by itself
    fmt = args.format or next(iter(WRITERS[kind]))
    if fmt not in WRITERS[kind]:
        raise InvalidParameterError(f"{args.direction} cannot write --format {fmt}")
    sys.stdout.write(WRITERS[kind][fmt](image_of(args)) + "\n")
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    report = verify.check_bijections(args.k, args.l, args.n, budget=args.budget)
    sys.stdout.write(_json(report) + "\n")
    return 0 if report.passed else 1


def cmd_identities(args: argparse.Namespace) -> int:
    if args.report and args.suite == "identities":
        raise InvalidParameterError("--report needs the ballot suite")
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
        sys.stdout.write(_json(report) + "\n")
    return 0 if all(report.passed for report in reports) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="raneyseq",
        description="Threshold sequences, tree tuples and extended Motzkin "
                    "paths with exact counts and cross-verified bijections.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--l", type=int, default=0)
        p.add_argument("--n", type=int, required=True)

    p = sub.add_parser("count", help="print the exact sequence count")
    add_common(p)
    p.add_argument("--proper", action="store_true",
                   help="count proper sequences instead")
    p.set_defaults(func=cmd_count)

    formats = sorted({fmt for kind in WRITERS.values() for fmt in kind})
    p = sub.add_parser("enumerate", help="stream objects one per line")
    add_common(p)
    p.add_argument("--d", type=int, default=0)
    p.add_argument("--kind", choices=ENUMERATORS, default="seq")
    p.add_argument("--format", choices=formats, default="json")
    p.add_argument("--budget", type=_nonnegative, default=verify.DEFAULT_BUDGET)
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("map", help="map one object through a bijection")
    p.add_argument("direction", choices=DIRECTIONS)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--l", type=int,
                   help="default 0; for trees-to-seq, the tuple's length minus one")
    p.add_argument("--n", type=int, help="trees-to-seq only")
    p.add_argument("--seq", help="comma-separated sequence values")
    p.add_argument("--tuple", help="JSON tree-tuple encoding")
    p.add_argument("--path", help="comma-separated rises")
    p.add_argument("--word", help="ballot word over {A,B}")
    p.add_argument("--format", choices=formats,
                   help="default: the first format of the output kind")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("verify", help="run the bijection suite for one cell")
    add_common(p)
    p.add_argument("--budget", type=_nonnegative, default=verify.DEFAULT_BUDGET)
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
        code = args.func(args)
        sys.stdout.flush()  # so a closed stdout shows here, not at exit
        return code
    except BrokenPipeError:
        # The reader left: exit as SIGPIPE would, with a quiet final flush.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (RaneyseqError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: n is too large for the recursive enumerator",
              file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: invalid input: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
