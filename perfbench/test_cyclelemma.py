"""Deterministic exactness check of the cycle-lemma sampler.

Run from the repository root with
    python -m pytest -q perfbench/test_cyclelemma.py

Over every word with n letters k-1 among kn+l+1 places and each of its
good rotations, every (k,l)-threshold sequence found by the library's
subset-scan oracle must come out exactly kn+l+1 times, and nothing else
may come out.  No randomness is involved.
"""

from __future__ import annotations

import os
import random
import sys
from collections import Counter
from itertools import combinations

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

from raneyseq.threshold import ThresholdParams, validate  # noqa: E402
from raneyseq.verify import oracle_sequences  # noqa: E402

import cyclelemma  # noqa: E402

CELLS = [(2, 0, 5), (3, 0, 3), (3, 1, 3), (4, 2, 3), (5, 3, 2), (5, 1, 2)]


def _is_forest_word(word: list[int], r: int) -> bool:
    total = 0
    for letter in word[:-1]:
        total += letter
        if total <= -r:
            return False
    return True


@pytest.mark.parametrize("k,l,n", CELLS)
def test_good_rotations_match_brute_force(k, l, n):
    length = k * n + l + 1
    for positions in combinations(range(length), n):
        word = cyclelemma.word_from_positions(k, length, positions)
        brute = [j for j in range(length)
                 if _is_forest_word(cyclelemma.rotate(word, j), l + 1)]
        assert cyclelemma.good_rotations(word, l + 1) == brute


@pytest.mark.parametrize("k,l,n", CELLS)
def test_every_sequence_hit_equally_often(k, l, n):
    length = k * n + l + 1
    hits = Counter()
    for positions in combinations(range(length), n):
        word = cyclelemma.word_from_positions(k, length, positions)
        for j in cyclelemma.good_rotations(word, l + 1):
            hits[cyclelemma.sequence_of_forest_word(
                cyclelemma.rotate(word, j))] += 1
    _, expected = oracle_sequences(k, l, n)
    assert set(hits) == expected
    assert set(hits.values()) == {length}


@pytest.mark.parametrize("k,l,n", [(2, 0, 300), (3, 1, 200), (5, 3, 100)])
def test_draws_are_valid_sequences(k, l, n):
    rng = random.Random(7)
    for _ in range(20):
        validate(cyclelemma.draw(k, l, n, rng), ThresholdParams(k, l, n))
