"""The four workloads.  Each is a closed loop over rounds of operations:
an operation starts when the previous one returns.

Every operation calls the library through module attributes
(trees.tuple_of, cli.main, ...), so a traced run sees each layer call,
and carries a check of its output.  Inputs, reference answers and checks
are made outside the timed region.  Probes are fixed inputs that hit a
known defect; they count toward error_rate only.
"""

from __future__ import annotations

import hashlib
import io
import math
import random
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from itertools import islice
from typing import Callable

from raneyseq import ballot, cli, exactmath, paths, threshold, trees, verify
from raneyseq.threshold import ThresholdParams

import cyclelemma


@dataclass
class Op:
    label: str                      # operation and input, named on failure
    group: str                      # which metric its time goes to
    run: Callable[[], object]
    check: Callable[[object], str | None]   # None, or what is wrong
    objects: int = 1


class CliFailed(Exception):
    """`raneyseq` exited with a nonzero code."""


class HashSink(io.TextIOBase):
    """Stand-in for stdout that hashes and counts what is written."""

    def __init__(self) -> None:
        self.sha = hashlib.sha256()
        self.lines = 0

    def write(self, text: str) -> int:
        self.sha.update(text.encode())
        self.lines += text.count("\n")
        return len(text)


def run_cli(argv: list[str], sink) -> object:
    """cli.main with stdout sent to `sink`; a nonzero exit raises."""
    err = io.StringIO()
    with redirect_stdout(sink), redirect_stderr(err):
        code = cli.main(argv)
    if code != 0:
        raise CliFailed(f"exit {code}: {err.getvalue().strip()[:200]}")
    return sink


def _show(values) -> str:
    values = list(values)
    head = ",".join(map(str, values[:6]))
    return f"[{head}{',...' if len(values) > 6 else ''}] (len {len(values)})"


def roundtrip(seq) -> tuple:
    """The three bijections there and back on one sequence."""
    n, k, l = seq.n, seq.k, seq.l
    t = trees.tuple_of(seq)
    via_trees = trees.sequence_of_tuple(t, n)
    p = paths.path_of(seq)
    via_path = paths.sequence_of_path(p, l)
    w = ballot.to_ballot(seq)
    via_ballot = ballot.from_ballot(w, k, l)
    return via_trees, via_path, via_ballot


def roundtrip_op(label: str, group: str, seq) -> Op:
    def check(backs) -> str | None:
        wrong = [name for name, back in zip(("trees", "path", "ballot"), backs)
                 if back.values != seq.values]
        return f"{'/'.join(wrong)} round trip differs" if wrong else None
    return Op(f"{label} {_show(seq.values)}", group, lambda: roundtrip(seq),
              check)


class Workload:
    ROUND_SECONDS: float    # one round at the seed commit (see worker.py)
    # What a user waits for, timed for the latency metrics: a whole round
    # (the three cells, the three streams, the six counts), or in `sample`
    # one round trip.
    LATENCY_UNIT = "round"

    def __init__(self, seed: int) -> None:
        self.rng = random.Random(seed)

    def round(self, index: int) -> list[Op]:
        raise NotImplementedError

    def probes(self) -> list[Op]:
        return []


class Cells(Workload):
    """verify.check_bijections on the three ROADMAP baseline cells; the
    seed is not used."""

    CELLS = [(2, 0, 11), (3, 1, 7), (5, 3, 5)]
    ROUND_SECONDS = 26.0

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.sizes = {c: exactmath.raney(c[0], c[1] + 1, c[2]) for c in self.CELLS}

    @staticmethod
    def warm_up() -> None:
        for k, l, n in Cells.CELLS:
            next(trees.enumerate_tuples(k, l + 1, n))

    def round(self, index: int) -> list[Op]:
        return [self._op(cell) for cell in self.CELLS]

    def _op(self, cell) -> Op:
        k, l, n = cell
        size = self.sizes[cell]

        def check(report) -> str | None:
            if not report.passed:
                return f"failed checks: {[c.params for c in report.failures][:3]}"
            seen = next((c.expected for c in report.cells
                         if c.params.get("check") == "tuple-injective"), None)
            if seen != size:
                return f"{seen} sequences, raney gives {size}"
            return None
        return Op(f"check_bijections{cell}", "cell_s.{}-{}-{}".format(*cell),
                  lambda: verify.check_bijections(k, l, n), check, objects=size)


class Sample(Workload):
    """Round trips of seeded uniform sequences at n = 2000."""

    CELLS = [(2, 0, 2000), (3, 1, 2000), (5, 3, 2000)]
    ROUND_SECONDS = 0.055
    LATENCY_UNIT = "op"

    @staticmethod
    def warm_up() -> None:
        for k, l, _ in Sample.CELLS:
            roundtrip(threshold.validate(_highest(k, l, 10),
                                         ThresholdParams(k, l, 10)))

    def round(self, index: int) -> list[Op]:
        ops = []
        for k, l, n in self.CELLS:
            values = cyclelemma.draw(k, l, n, self.rng)
            seq = threshold.validate(values, ThresholdParams(k, l, n))
            ops.append(roundtrip_op(f"roundtrip{(k, l, n)} draw {index}",
                                    f"roundtrip_s.{k}-{l}-{n}", seq))
        return ops

    def probes(self) -> list[Op]:
        ops = []
        for k, l, n in self.CELLS:
            params = ThresholdParams(k, l, n)
            lowest = threshold.validate([k * i for i in range(1, n + 1)], params)
            highest = threshold.validate(_highest(k, l, n), params)
            ops.append(roundtrip_op(f"roundtrip{(k, l, n)} lowest", "probe",
                                    lowest))
            ops.append(roundtrip_op(f"roundtrip{(k, l, n)} highest", "probe",
                                    highest))
        return ops


def _highest(k: int, l: int, n: int) -> list[int]:
    top = k * n + l
    return list(range(top - n + 1, top + 1))


class Stream(Workload):
    """`raneyseq enumerate` streams, hashed; they must stay byte-identical
    to the output recorded at the seed commit.  The seed is not used."""

    STREAMS = [
        (["enumerate", "--k", "2", "--l", "0", "--n", "12",
          "--kind", "seq", "--format", "csv"], 208012,
         "058c030466f89dcd54c0d15201a514faff04549bc2259595f5d2c6ecd04f5b9f"),
        (["enumerate", "--k", "3", "--l", "1", "--n", "8",
          "--kind", "path", "--format", "json"], 120175,
         "e38c03fa793855c18a09b76165895d49800424f89df5aad565b32b624faf4de4"),
        (["enumerate", "--k", "3", "--l", "1", "--n", "8",
          "--kind", "tuple", "--format", "json"], 120175,
         "bd1f345f914786630cd99169efc08607375575d5f66dbf8f03ec147a243ee535"),
    ]
    ROUND_SECONDS = 7.5
    PROBE_N = 2000
    PROBE_PREFIX = 1000

    @staticmethod
    def warm_up() -> None:
        next(trees.enumerate_tuples(3, 2, 8))
        run_cli(["enumerate", "--k", "2", "--n", "3"], HashSink())

    def round(self, index: int) -> list[Op]:
        return [self._op(argv, lines, digest)
                for argv, lines, digest in self.STREAMS]

    @staticmethod
    def _op(argv, lines, digest) -> Op:
        def check(sink) -> str | None:
            if (sink.lines, sink.sha.hexdigest()) != (lines, digest):
                return f"{sink.lines} lines sha256 {sink.sha.hexdigest()}"
            return None
        group = f"stream_s.{argv[-3]}-{argv[-1]}"
        return Op(" ".join(argv), group, lambda: run_cli(argv, HashSink()),
                  check, objects=lines)

    def probes(self) -> list[Op]:
        k, l, n = 3, 1, self.PROBE_N
        params = ThresholdParams(k, l, n)

        def check_seqs(seqs) -> str | None:
            values = [s.values for s in seqs]
            for v in values:
                threshold.validate(v, params)
            return _check_prefix(values, self.PROBE_PREFIX)

        def check_paths(found) -> str | None:
            for p in found:
                paths.sequence_of_path(p, l)
            return _check_prefix([p.rises for p in found], self.PROBE_PREFIX)
        return [
            Op(f"enumerate_sequences{(k, l, n)} first {self.PROBE_PREFIX}",
               "probe", lambda: list(islice(threshold.enumerate_sequences(
                   params), self.PROBE_PREFIX)), check_seqs),
            Op(f"enumerate_paths{(k, l, n)} first {self.PROBE_PREFIX}",
               "probe", lambda: list(islice(paths.enumerate_paths(
                   k, l, n), self.PROBE_PREFIX)), check_paths),
        ]


def _check_prefix(keys: list, size: int) -> str | None:
    if len(keys) != size:
        return f"{len(keys)} objects, expected {size}"
    if any(a >= b for a, b in zip(keys, keys[1:])):
        return "not in strictly increasing lexicographic order"
    return None


def reference_raney(k: int, r: int, n: int) -> int:
    """R_n^(k,r) by r/((k-1)n+r) * C(kn+r-1, n), with the standard library."""
    q, rem = divmod(r * math.comb(k * n + r - 1, n), (k - 1) * n + r)
    if rem:
        raise ArithmeticError(f"R_{n}^({k},{r}) division is not exact")
    return q


class Counts(Workload):
    """`raneyseq count` and `count --proper` at large n, and the oracle
    subset scan at the enumerable edge cells."""

    K, L = 3, 1
    LOW, HIGH = 100_000, 200_000
    ORACLE_CELLS = [(2, 0, 12), (3, 1, 8)]
    ROUND_SECONDS = 18.0
    PROBE_N = 10_000

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.oracle_sizes = {c: exactmath.raney(c[0], c[1] + 1, c[2])
                             for c in self.ORACLE_CELLS}
        # The answers run to ~170,000 digits; Python's default cap on
        # int-to-str conversion is 4300 digits.  A probe keeps the cap.
        sys.set_int_max_str_digits(0)

    @staticmethod
    def warm_up() -> None:
        run_cli(["count", "--k", "3", "--l", "1", "--n", "5"], HashSink())

    def round(self, index: int) -> list[Op]:
        # Both ends of the range and a seeded pair mirrored inside it, so
        # the median and the tail compare across seeds.
        offset = self.rng.randrange((self.HIGH - self.LOW) // 2)
        ns = [self.LOW, self.LOW + offset, self.HIGH - offset, self.HIGH]
        ops = [self._count_op(n, proper=bool(i % 2)) for i, n in enumerate(ns)]
        ops += [self._oracle_op(cell) for cell in self.ORACLE_CELLS]
        return ops

    def _count_op(self, n: int, proper: bool, group: str = "count_s.closed",
                  digit_cap: int | None = None) -> Op:
        k, l = self.K, self.L
        argv = ["count", "--k", str(k), "--l", str(l), "--n", str(n)]
        argv += ["--proper"] if proper else []
        expected = (reference_raney(k, k + l, n - 1) if proper
                    else reference_raney(k, l + 1, n))
        digest = hashlib.sha256(f"{expected}\n".encode()).hexdigest()

        def run():
            if digit_cap is None:
                return run_cli(argv, HashSink())
            sys.set_int_max_str_digits(digit_cap)
            try:
                return run_cli(argv, HashSink())
            finally:
                sys.set_int_max_str_digits(0)

        def check(sink) -> str | None:
            if (sink.lines, sink.sha.hexdigest()) != (1, digest):
                return "answer differs from the reference"
            return None
        return Op(f"raneyseq {' '.join(argv)}", group, run, check)

    def _oracle_op(self, cell) -> Op:
        size = self.oracle_sizes[cell]

        def check(result) -> str | None:
            found, seqs = result
            if found != size or len(seqs) != size:
                return f"{found} sequences, raney gives {size}"
            return None
        return Op(f"oracle_sequences{cell}", "count_s.oracle",
                  lambda: verify.oracle_sequences(*cell), check)

    def probes(self) -> list[Op]:
        return [self._count_op(self.PROBE_N, proper=False, group="probe",
                               digit_cap=sys.int_info.default_max_str_digits)]


WORKLOADS = {"cells": Cells, "sample": Sample, "stream": Stream,
             "counts": Counts}
