"""Acceptance suite: one test per exit criterion, each printing a
pass/fail line.  Run with `pytest tests/test_acceptance.py -v -s`."""

import json
import math
from fractions import Fraction

import pytest

from raneyseq import ballot, exactmath, paths, threshold, trees, verify
from raneyseq.exactmath import binomial, raney
from raneyseq.threshold import ThresholdParams

COUNT_CAP = 10 ** 6
ORACLE_COMBO_CAP = 2_500_000
BIJECTION_CAP = 10 ** 5


def _grid_cells():
    """(k, l, n) cells with k in {2,3,4,5}, count <= 1e6 and an oracle
    subset scan of bounded size."""
    cells = []
    for k in (2, 3, 4, 5):
        for l in range(k - 1):
            n = 1
            while True:
                nxt = n + 1
                if raney(k, l + 1, nxt) > COUNT_CAP:
                    break
                if math.comb(k * nxt + l - k + 1, nxt) > ORACLE_COMBO_CAP:
                    break
                n = nxt
            cells.extend((k, l, m) for m in range(1, n + 1))
    return cells


GRID = _grid_cells()


def _report(criterion: str, ok: bool) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {criterion}")
    assert ok


def test_criterion_1_count_reproduction():
    """|enumerate| = |oracle| = raney(k, l+1, n) over the whole grid."""
    # the grid must reach at least n = 7 for every k <= 4
    for k in (2, 3, 4):
        for l in range(k - 1):
            assert max(n for kk, ll, n in GRID if (kk, ll) == (k, l)) >= 7
    ok = True
    for k, l, n in GRID:
        expected = raney(k, l + 1, n)
        enumerated = sum(1 for _ in threshold.enumerate_sequences(
            ThresholdParams(k, l, n), budget=COUNT_CAP))
        oracle_count, _ = verify.oracle_sequences(k, l, n, budget=COUNT_CAP)
        if not expected == enumerated == oracle_count:
            print(f"  mismatch at {(k, l, n)}: raney={expected} "
                  f"enumerate={enumerated} oracle={oracle_count}")
            ok = False
    _report("criterion 1: count reproduction over the full grid", ok)


def test_criterion_2_paper_constants():
    ok = True
    ok &= raney(3, 1, 1) == 1 and raney(3, 1, 2) == 3
    ok &= raney(3, 2, 1) == 2 and raney(3, 2, 2) == 7

    all_paths = list(paths.enumerate_paths(2, 0, 4))
    classic = [p for p in all_paths if paths.is_classic_motzkin(p)]
    ok &= len(all_paths) == 14 and len(classic) == 9
    ok &= exactmath.motzkin(4) == 9

    s1 = threshold.validate((3, 6, 14, 15, 17, 18), ThresholdParams(3, 0, 6))
    ok &= threshold.is_proper(s1)
    s1_as_31 = threshold.validate(s1.values, ThresholdParams(3, 1, 6))
    ok &= not threshold.is_proper(s1_as_31)
    s2 = threshold.validate((3, 6, 14, 15, 17, 19), ThresholdParams(3, 1, 6))
    ok &= threshold.is_proper(s2)
    try:
        threshold.validate((3, 4, 14, 15, 17, 18), ThresholdParams(3, 0, 6))
        ok = False
    except Exception as exc:
        ok &= getattr(exc, "index", None) == 2

    v = threshold.validate((7, 9, 17, 18), ThresholdParams(4, 2, 4))
    ok &= threshold.cut_index(v) == 2
    t = trees.tuple_of(v)
    ok &= t.trees[0].is_leaf and not t.trees[1].is_leaf and not t.trees[2].is_leaf
    ok &= t.trees[1] == trees.build_from_internal_labels(4, 9, [9, 7])
    ok &= t.trees[2] == trees.build_from_internal_labels(4, 18, [18, 17])

    s7 = threshold.validate((7, 15, 16, 21, 28, 30, 38), ThresholdParams(5, 3, 7))
    p7 = paths.path_of(s7)
    ok &= p7.rises == (2, 3, -4, 0, 2, -3, 3) and p7.end_height == 3

    _report("criterion 2: paper constants reproduced exactly", ok)


def test_criterion_3_bijection_suites():
    ok = True
    checked = 0
    for k, l, n in GRID:
        if raney(k, l + 1, n) > BIJECTION_CAP:
            continue
        report = verify.check_bijections(k, l, n, budget=BIJECTION_CAP)
        print(f"  bijections {(k, l, n)}: {report.elapsed:.3f} s")
        checked += 1
        if not report.passed:
            print(f"  bijection failure at {(k, l, n)}: "
                  f"{[c.to_json() for c in report.failures]}")
            ok = False
    ok &= checked > 0
    _report(f"criterion 3: bijection suites over {checked} cells, "
            "zero counterexamples", ok)


def test_criterion_4_identity_suites():
    ok = True
    for k in range(2, 7):
        for n in range(13):
            ok &= exactmath.fuss_catalan_rec(k, n) == exactmath.fuss_catalan(k, n)
        for r in range(1, 2 * k + 1):
            for n in range(11):
                # raney itself checks both closed forms of Eq-form agreement
                ok &= exactmath.raney_convolution(k, r, n) == raney(k, r, n)
    ok &= all(report.passed for report in verify.identity_suites())
    _report("criterion 4: identity suites, exact arithmetic, zero tolerance", ok)


def test_criterion_5_proper_counts():
    ok = True
    for k, l, n in GRID:
        params = ThresholdParams(k, l, n)
        proper = sum(1 for s in threshold.enumerate_sequences(params)
                     if threshold.is_proper(s))
        expected = raney(k, k + l, n - 1) if l >= 1 else raney(k, 1, n)
        if proper != expected:
            print(f"  proper-count mismatch at {(k, l, n)}: "
                  f"{proper} != {expected}")
            ok = False
        if raney(k, l + 1, n) <= BIJECTION_CAP:
            at_l = sum(1 for p in paths.enumerate_paths(k, l, n)
                       if p.end_height == l)
            if at_l != expected:
                print(f"  path-endpoint mismatch at {(k, l, n)}: "
                      f"{at_l} != {expected}")
                ok = False
    _report("criterion 5: proper sequence and path-endpoint counts", ok)


def test_criterion_6_oeis_prefixes():
    a001764 = [1, 1, 3, 12, 55, 273, 1428, 7752]
    a006013 = [1, 2, 7, 30, 143, 728, 3876, 21318]
    a006629 = [1, 4, 18, 88, 455, 2448, 13566, 76912]
    t = [raney(3, 1, n) for n in range(8)]
    u = [raney(3, 2, n) for n in range(8)]
    # U_{n+1} - T_{n+1} is the 4-tuple count R_n^(3,4) = A006629(n)
    diff = [raney(3, 2, n + 1) - raney(3, 1, n + 1) for n in range(8)]
    ok = t == a001764 and u == a006013 and diff == a006629
    _report("criterion 6: OEIS prefix agreement (A001764, A006013, A006629)", ok)


def test_criterion_7_ballot_measurement(tmp_path):
    report = verify.check_ballot_claim()
    summary = verify.ballot_claim_summary(report)
    # The tracked reports/ballot_claim.json is regenerated only by
    # `raneyseq identities --suite ballot --report reports/ballot_claim.json`.
    with open(tmp_path / "ballot_claim.json", "w") as fh:
        json.dump(summary, fh, indent=2)
    ok = report.passed
    ok &= summary["all_sequences_match_raney"] is True
    ok &= summary["exact_a_words_match_proper_count"] is True
    # round trips hold regardless of the reading
    for k in (2, 3):
        for l in range(k - 1):
            for n in range(1, 6):
                for s in threshold.enumerate_sequences(ThresholdParams(k, l, n)):
                    if ballot.from_ballot(ballot.to_ballot(s), k, l) != s:
                        ok = False
    _report("criterion 7: ballot claim measured and its summary written", ok)
