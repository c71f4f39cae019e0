"""Uniform (k,l)-threshold sequences by the cycle lemma.

Written with the standard library only, independent of raneyseq, so the
benchmark's inputs do not come from the code it measures.

A word of n letters k-1 and (k-1)n + l + 1 letters -1 sums to -(l+1).
By the cycle lemma (Dershowitz and Zaks, "The cycle lemma and some
applications", 1990) exactly l+1 of its kn+l+1 rotations are
Lukasiewicz words of an (l+1)-forest of k-ary trees: every proper prefix
sums to more than -(l+1).  A uniform word with a uniform good rotation is
therefore a uniform forest, each forest arising from exactly kn+l+1
(word, rotation) pairs.

A forest word ends in -1.  Dropping that letter and reversing the rest
leaves a word of length kn+l whose prefixes all sum to at most 0, so the
i-th letter k-1 sits at a position s_i >= k*i: the positions of the k-1
letters form a (k,l)-threshold sequence, and every such sequence arises
from exactly one forest word.
"""

from __future__ import annotations

import random


def word_from_positions(k: int, length: int, positions) -> list[int]:
    """The word of the given length with letter k-1 at the given 0-based
    positions and -1 elsewhere."""
    word = [-1] * length
    for p in positions:
        word[p] = k - 1
    return word


def good_rotations(word: list[int], r: int) -> list[int]:
    """Start indices j whose rotation word[j:] + word[:j] has every proper
    prefix summing to more than -r.

    With steps of at least -1, these are the first times the prefix sum
    reaches each of the r lowest values attained before the last letter.
    """
    first_hit = {0: 0}
    total = 0
    for i, letter in enumerate(word[:-1], start=1):
        total += letter
        if total not in first_hit:
            first_hit[total] = i
    low = min(first_hit)
    return sorted(first_hit[v] for v in range(low, low + r))


def sequence_of_forest_word(word: list[int]) -> tuple[int, ...]:
    """Drop the final -1, reverse, and return the 1-based positions of the
    letters k-1."""
    body = word[-2::-1]
    return tuple(i for i, letter in enumerate(body, start=1) if letter > 0)


def rotate(word: list[int], j: int) -> list[int]:
    return word[j:] + word[:j]


def draw(k: int, l: int, n: int, rng: random.Random) -> tuple[int, ...]:
    """One uniform (k,l)-threshold sequence of length n."""
    length = k * n + l + 1
    word = word_from_positions(k, length, rng.sample(range(length), n))
    j = rng.choice(good_rotations(word, l + 1))
    return sequence_of_forest_word(rotate(word, j))
