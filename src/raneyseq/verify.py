"""Brute-force oracles and the full identity/bijection check suites.

Every suite recomputes each quantity along at least two independent
routes (closed form vs recurrence vs exhaustive enumeration) and records
one cell per comparison.  The oracles deliberately use different
algorithms from the main modules, so agreement is evidence rather than
tautology.
"""

from __future__ import annotations

import math
import operator
import time
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate, combinations, product

from . import ballot, exactmath, paths, threshold, trees
from .errors import BudgetExceededError, InvalidParameterError, RaneyseqError
from .exactmath import binomial, catalan, raney
from .threshold import ThresholdParams

DEFAULT_BUDGET = 10 ** 6
# The most offenders of each kind a failing injectivity or surjectivity
# cell names.
_OFFENDERS = 3


@dataclass
class Cell:
    params: dict
    expected: object
    observed: object

    @property
    def ok(self) -> bool:
        return self.expected == self.observed

    def to_json(self) -> dict:
        return {"params": self.params, "expected": str(self.expected),
                "observed": str(self.observed), "pass": self.ok}


@dataclass
class VerifyReport:
    suite: str
    cells: list[Cell] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return bool(self.cells) and all(cell.ok for cell in self.cells)

    @property
    def failures(self) -> list[Cell]:
        return [cell for cell in self.cells if not cell.ok]

    def add(self, params: dict, expected, observed) -> None:
        self.cells.append(Cell(params, expected, observed))

    def to_json(self) -> dict:
        return {"suite": self.suite, "pass": self.passed,
                "elapsed": self.elapsed,
                "cells": [cell.to_json() for cell in self.cells]}

    def __enter__(self) -> VerifyReport:
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed = time.perf_counter() - self._start


def oracle_sequences(k: int, l: int, n: int,
                     budget: int = DEFAULT_BUDGET) -> tuple[int, set[tuple[int, ...]]]:
    """Count (k,l)-threshold sequences by filtering the strictly increasing
    n-subsets of [k, kn+l] on the lower bounds s_i >= k*i.

    The pool is split at c = k*(n//2 + 1).  For each a, the a-subsets of
    [k, c) that pass the first a bounds are joined to the (n-a)-subsets of
    [c, kn+l] that pass the rest.  This is exact: a sorted subset is its
    part below c followed by its part from c, each bound applies to one
    position, and the joins of different a never overlap.  Only
    a <= n//2 can pass: the a-th value is at least k*a and below c.
    Independent of threshold.enumerate_sequences (subset filter, not
    backtracking).  Returns (count, set of value tuples).
    """
    ThresholdParams(k, l, n)  # checks k, l and n as for sequences
    pool = range(k, k * n + l + 1)
    if math.comb(len(pool), n) > budget * 8:
        raise BudgetExceededError(budget)
    mins = tuple(k * i for i in range(1, n + 1))
    cut = k * (n // 2 + 1)
    found = set()
    for a in range(n // 2 + 1):
        lows = [low for low in combinations(range(k, cut), a)
                if all(map(operator.ge, low, mins))]
        highs = [high for high in combinations(range(cut, pool.stop), n - a)
                 if all(map(operator.ge, high, mins[a:]))]
        if len(found) + len(lows) * len(highs) > budget:
            raise BudgetExceededError(budget)
        for low in lows:
            found.update(map(low.__add__, highs))
    return len(found), found


def _ab_by_mixed_recurrences(n_max: int) -> tuple[list[int], list[int]]:
    """a_n, b_n by the left-to-right standard/high-value recurrences
    (valid for n >= 2, seeded with a_1 = 1, b_1 = 2)."""
    a, b = [1, 1], [1, 2]
    for n in range(2, n_max + 1):
        mixed = sum((a[h] + b[h]) * a[n - h - 1] for h in range(1, n - 1))
        a.append(3 * a[n - 1] + mixed)
        mixed_b = sum((a[h] + b[h]) * b[n - h - 1] for h in range(1, n - 1))
        b.append(3 * b[n - 1] + mixed_b + a[n - 1])
    return a, b


def _ab_by_convolutions(n_max: int) -> tuple[list[int], list[int]]:
    """a_n = sum_h a_h b_{n-1-h}, b_n = sum_h a_h a_{n-h} (right-to-left
    counts), seeded only with a_0 = b_0 = 1."""
    a, b = [1], [1]
    for n in range(1, n_max + 1):
        a.append(sum(a[h] * b[n - 1 - h] for h in range(n)))
        b.append(sum(a[h] * a[n - h] for h in range(n + 1)))
    return a, b


def check_section2_recurrences(n_max: int) -> VerifyReport:
    """Quadruple agreement for the simple/double 3-threshold counts a_n,
    b_n: both recurrence systems, the closed forms T_n/U_n, and (for
    1 <= n <= 7) the exhaustive oracle."""
    exactmath.check_knr(n=n_max)
    with VerifyReport("section2-recurrences") as report:
        a_mix, b_mix = _ab_by_mixed_recurrences(n_max)
        a_conv, b_conv = _ab_by_convolutions(n_max)
        for n in range(n_max + 1):
            t_n = raney(3, 1, n)
            u_n = raney(3, 2, n)
            report.add({"n": n, "which": "a", "route": "mixed"}, t_n, a_mix[n])
            report.add({"n": n, "which": "a", "route": "conv"}, t_n, a_conv[n])
            report.add({"n": n, "which": "b", "route": "mixed"}, u_n, b_mix[n])
            report.add({"n": n, "which": "b", "route": "conv"}, u_n, b_conv[n])
            if 1 <= n <= 7:
                report.add({"n": n, "which": "a", "route": "oracle"},
                           t_n, oracle_sequences(3, 0, n)[0])
                report.add({"n": n, "which": "b", "route": "oracle"},
                           u_n, oracle_sequences(3, 1, n)[0])
    return report


def check_prop4(n_max: int) -> VerifyReport:
    """b_n - a_n = sum a_h a_{n-h} = sum b_h b_{n-h-1}
    = (2/(n+1)) * C(3n, n-1) = R_{n-1}^(3,4), for n >= 1."""
    exactmath.check_knr(n=n_max)
    with VerifyReport("prop4-difference") as report:
        a = [raney(3, 1, i) for i in range(n_max + 1)]
        b = [raney(3, 2, i) for i in range(n_max + 1)]
        for n in range(1, n_max + 1):
            diff = b[n] - a[n]
            report.add({"n": n, "form": "sum a_h a_{n-h}"},
                       diff, sum(a[h] * a[n - h] for h in range(n)))
            report.add({"n": n, "form": "sum b_h b_{n-h-1}"},
                       diff, sum(b[h] * b[n - h - 1] for h in range(n)))
            closed = Fraction(2, n + 1) * binomial(3 * n, n - 1)
            report.add({"n": n, "form": "(2/(n+1)) C(3n,n-1)"}, diff, closed)
            report.add({"n": n, "form": "raney(3,4,n-1)"},
                       diff, raney(3, 4, n - 1))
            report.add({"n": n, "form": "raney_convolution(3,4,n-1)"},
                       diff, exactmath.raney_convolution(3, 4, n - 1))
    return report


def check_catalan_pow2(n_max: int) -> VerifyReport:
    """Catalan identity C_n = sum_{r+s+t=n-1, r,s>=1} C_r C_s 2^t + 2^{n-1},
    plus its double-sum precursor over (a, b)."""
    exactmath.check_knr(n=n_max)
    with VerifyReport("catalan-pow2") as report:
        c = [catalan(i) for i in range(n_max + 1)]
        for n in range(1, n_max + 1):
            triple = sum(c[r] * c[s] * 2 ** (n - 1 - r - s)
                         for r in range(1, n)
                         for s in range(1, n - r)) + 2 ** (n - 1)
            report.add({"n": n, "form": "triple-sum"}, c[n], triple)
            double = sum(c[b + 1] * c[a - 1 - b] * 2 ** (n - 1 - a)
                         for a in range(2, n)
                         for b in range(a - 1)) + 2 ** (n - 1)
            report.add({"n": n, "form": "double-sum"}, c[n], double)
    return report


def check_prop6(n_max: int) -> VerifyReport:
    """Exact rational identities
    2 sum T_h T_{n-h-1}/(h+1) = 3 U_{n-1} - T_n and
    2 sum U_h U_{n-h-1}/(3h+1) = 4 T_n - U_n."""
    exactmath.check_knr(n=n_max)
    with VerifyReport("prop6-rational") as report:
        t = [raney(3, 1, i) for i in range(n_max + 1)]
        u = [raney(3, 2, i) for i in range(n_max + 1)]
        for n in range(1, n_max + 1):
            left1 = 2 * sum(Fraction(t[h] * t[n - h - 1], h + 1)
                            for h in range(n))
            report.add({"n": n, "relation": "T"},
                       Fraction(3 * u[n - 1] - t[n]), left1)
            left2 = 2 * sum(Fraction(u[h] * u[n - h - 1], 3 * h + 1)
                            for h in range(n))
            report.add({"n": n, "relation": "U"},
                       Fraction(4 * t[n] - u[n]), left2)
    return report


def check_raney_difference(k: int, l: int, n_max: int) -> VerifyReport:
    """R_n^(k,l+1) - R_n^(k,l) = R_{n-1}^(k,k+l) for 1 <= l <= k-2."""
    ThresholdParams(k, l, n_max)  # checks k, l and n_max as for sequences
    if l < 1:
        raise InvalidParameterError("check_raney_difference requires l >= 1")
    with VerifyReport("raney-difference") as report:
        for n in range(1, n_max + 1):
            report.add({"k": k, "l": l, "n": n},
                       raney(k, l + 1, n) - raney(k, l, n),
                       raney(k, k + l, n - 1))
    return report


class _Offenders:
    """How many offending objects a check met, and the first _OFFENDERS.
    A plain class: a dataclass would add half a millisecond to the import."""

    __slots__ = ("count", "named")

    def __init__(self) -> None:
        self.count, self.named = 0, []

    def add(self, obj) -> None:
        self.count += 1
        if self.count <= _OFFENDERS:
            self.named.append(obj)


def _is_tree_word(k: int, word: bytes) -> bool:
    """Whether word is the level-order word of a k-ary tree: bytes 0 and 1
    only, a root and k children per internal node, and each node past the
    root a child of the internal nodes before it."""
    return (not word.translate(None, b"\x00\x01")
            and len(word) == k * word.count(1) + 1
            and all(map(operator.ge, accumulate(map(k.__mul__, word[:-1])),
                        range(1, len(word)))))


def _tuple_json(t: trees.TreeTuple) -> list:
    """A named tuple as JSON.  An entry that is not a k-ary tree's word,
    which only a broken map or codomain makes, is written as its bytes."""
    return [tree.to_json() if _is_tree_word(t.k, tree.word)
            else list(tree.word) for tree in t.trees]


def _ranker(params: ThresholdParams):
    """The number of the cell's sequences, and the lexicographic rank of a
    valid sequence's values.  above[i-1][v] counts the ways to fill
    positions i ... n of a sequence of the cell with values v or more, so
    those that agree with s before i and are smaller at i number
    above[i-1][s_{i-1}+1] - above[i-1][s_i], with s_0 = 0."""
    k, upper = params.k, params.upper
    above = [[1] * (upper + 2)]  # one way to fill no position
    for i in range(params.n, 0, -1):
        # tails[v]: the ways with s_i >= v, for v = 0 ... upper
        tails = list(accumulate(reversed(above[0][1:])))[::-1]
        above.insert(0, [tails[k * i]] * (k * i) + tails[k * i:] + [0])
    del above[-1]

    def rank(values: tuple[int, ...]) -> int:
        return (sum(map(list.__getitem__, above,
                        map((1).__add__, (0, *values))))
                - sum(map(list.__getitem__, above, values)))
    return above[0][1], rank


def _seq_cell(report: VerifyReport, check: str, seq, expected, observed):
    """A cell of check naming seq, with an error written as type: message."""
    if isinstance(observed, RaneyseqError):
        observed = f"{type(observed).__name__}: {observed}"
    report.add({"check": check, "seq": list(seq.values)}, expected, observed)


def _sequences(params: ThresholdParams, budget: int, report=None):
    """The enumerated sequences that pass validate; each other fails
    seq-valid in report, if one is given."""
    for seq in threshold.enumerate_sequences(params, budget=budget):
        try:
            yield threshold.validate(seq.values, params)
        except RaneyseqError as exc:
            if report is not None:
                _seq_cell(report, "seq-valid", seq, "no error", exc)


def _half(report: VerifyReport, params: ThresholdParams, budget: int,
          total: int, rank, name: str, codomain, forward, inverse) -> tuple:
    """Check forward and inverse as inverse bijections from the codomain.
    An object x whose inverse s is a valid sequence, not marked yet, with
    forward(s) == x marks the flag byte of s's rank.  If every byte is
    marked, inverse is one-to-one and onto and forward is its inverse;
    else the unmarked sequences of the cell are walked again.  Returns the
    number of distinct images and, as _Offenders, the repeated images, the
    objects that mark nothing and the images that no object meets."""

    def back(obj):
        return threshold.validate(inverse(obj).values, params)

    met, unmatched = bytearray(total), _Offenders()
    for obj in codomain:
        try:
            seq = back(obj)
            r = rank(seq.values)
            if not met[r] and forward(seq) == obj:
                met[r] = 1
                continue
        except RaneyseqError:
            pass
        unmatched.add(obj)
    repeated, unmet, held = _Offenders(), _Offenders(), {}
    for seq in _sequences(params, budget) if 0 in met else ():
        if met[rank(seq.values)]:
            continue
        try:
            image = forward(seq)
        except RaneyseqError as exc:
            _seq_cell(report, "map-raised", seq, "no error", exc)
            continue
        try:
            other = back(image)
            if other.values != seq.values:
                _seq_cell(report, f"{name}-roundtrip", seq,
                          list(seq.values), list(other.values))
            home = forward(other) == image
        except RaneyseqError as exc:
            _seq_cell(report, "map-raised", seq, "no error", exc)
            home = False
        # An image that comes home to seq is seq's alone, and is not held.
        # Any other is held, one sighting ahead if it comes home to another
        # sequence, which counts it.  The first sighting counts an image,
        # and the second names it repeated.
        seen = 1
        if not home or other.values != seq.values:
            held[image] = seen = held.get(image, home) + 1
        if seen == 1:
            unmet.add(image)
        elif seen == 2:
            repeated.add(image)
    return met.count(1) + unmet.count, repeated, unmatched, unmet


def check_bijections(k: int, l: int, n: int,
                     budget: int = DEFAULT_BUDGET) -> VerifyReport:
    """Round-trip, injectivity and surjectivity checks for tuple_of,
    path_of and the ballot encoding over the (k, l, n) cell.  Each sequence
    enumerated must pass validate; the sequence loop checks its rank and its
    ballot word, going on past a map that raises, and _half the other two
    maps.  On a failure the offending object is recorded verbatim."""
    with VerifyReport("bijections") as report:
        params = ThresholdParams(k, l, n)
        params.require_n("enumeration")
        if raney(k, l + 1, n) > budget:
            raise BudgetExceededError(budget)
        _, rank = ranker = _ranker(params)
        count = 0
        for seq in _sequences(params, budget, report):
            if rank(seq.values) != count:
                _seq_cell(report, "seq-rank", seq, count, rank(seq.values))
            count += 1
            try:
                w = ballot.to_ballot(seq)
                back = ballot.from_ballot(w, k, l).values
                if back != seq.values:
                    _seq_cell(report, "ballot-roundtrip", seq,
                              list(seq.values), list(back))
                if not ballot.is_k_ballot_isolated(w, k):
                    _seq_cell(report, "ballot-isolated", seq, True, False)
            except RaneyseqError as exc:
                _seq_cell(report, "map-raised", seq, "no error", exc)
        halves = [
            ("tuple", _tuple_json, _half(
                report, params, budget, *ranker, "tuple",
                trees.enumerate_tuples(k, l + 1, n, budget=budget),
                trees.tuple_of, lambda t: trees.sequence_of_tuple(t, n))),
            ("path", operator.methodcaller("to_json"), _half(
                report, params, budget, *ranker, "path",
                paths.enumerate_paths(k, l, n, budget=budget),
                paths.path_of, lambda p: paths.sequence_of_path(p, l)))]
        if not report.cells:
            report.add({"check": "roundtrips", "k": k, "l": l, "n": n},
                       count, count)

        # A failing cell names up to _OFFENDERS of each kind, as JSON.
        for name, write, (images, repeated, unmatched, unmet) in halves:
            cell = {"check": f"{name}-injective", "k": k, "l": l, "n": n}
            if images != count:
                cell["repeated_images"] = list(map(write, repeated.named))
            report.add(cell, count, images)
            cell = {"check": f"{name}-surjective", "k": k, "l": l, "n": n}
            if unmatched.count or unmet.count:
                cell["unmatched_objects"] = list(map(write, unmatched.named))
                cell["unmet_images"] = list(map(write, unmet.named))
            report.add(cell, 0, unmatched.count + unmet.count)
    return report


def check_ballot_claim() -> VerifyReport:
    """Measure which reading of the ballot-word count matches the Raney
    number R_b^(k, a-kb) with a = kn+l+1 and b = n, over k in {2, 3},
    0 <= l <= k-2 and 1 <= n <= 6.

    Two readings per cell: the number of all (k,l)-threshold sequences,
    and the number of encoded words that actually carry a letters A (the
    words whose last letter is B), which are exactly the proper ones.
    """
    with VerifyReport("ballot-claim") as report:
        for k in (2, 3):
            for l, n in product(range(k - 1), range(1, 7)):
                a, b = k * n + l + 1, n
                target = raney(k, a - k * b, b)
                words = [ballot.to_ballot(seq) for seq in
                         threshold.enumerate_sequences(ThresholdParams(k, l, n))]
                cell = {"k": k, "l": l, "n": n, "a": a, "b": b}
                report.add(cell | {"reading": "all-sequences"}, target, len(words))
                report.add(cell | {"reading": "exact-a-words",
                                   "note": "matches proper count, not the claim"
                                           if l >= 1 else "l=0: all proper"},
                           raney(k, k + l, n - 1) if l >= 1 else target,
                           sum(w.a_count == a for w in words))
    return report


def ballot_claim_summary(report: VerifyReport) -> dict:
    """Condense a ballot-claim report into which reading matched."""
    all_cells = [c for c in report.cells
                 if c.params["reading"] == "all-sequences"]
    exact_cells = [c for c in report.cells
                   if c.params["reading"] == "exact-a-words"]
    return {
        "all_sequences_match_raney": all(c.ok for c in all_cells),
        "exact_a_words_match_proper_count": all(c.ok for c in exact_cells),
        "conclusion": (
            "The Raney number R_b^(k,a-kb) counts all (k,l)-threshold "
            "sequences; the literally encoded words carry a letters A only "
            "for proper sequences, whose number is R_{n-1}^(k,k+l)."),
        "cells": [c.to_json() for c in report.cells],
    }


def identity_suites() -> list[VerifyReport]:
    """Run every identity suite at its fixed depth."""
    return [check_section2_recurrences(25), check_prop4(40),
            check_catalan_pow2(60), check_prop6(50),
            *(check_raney_difference(k, l, 30)
              for k in range(2, 7) for l in range(1, k - 1))]
