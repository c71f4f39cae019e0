"""Each sequence map against its definition, written out here element by
element: on every sequence of every (k, l) with k <= 5 and n <= 5, and on
seeded sequences at n = 2000."""

import itertools
import random

import pytest

from raneyseq import ballot, paths, threshold
from raneyseq.ballot import BallotWord
from raneyseq.errors import InvalidParameterError
from raneyseq.paths import ExtMotzkinPath
from raneyseq.threshold import ThresholdParams

CELLS = [(k, l) for k in range(2, 6) for l in range(k - 1)]
LARGE = [(2, 0), (3, 1), (5, 3)]


def rises_by_definition(values, k):
    """r_i = s_i - s_{i-1} - k, with s_0 = 0."""
    rises, prev = [], 0
    for v in values:
        rises.append(v - prev - k)
        prev = v
    return tuple(rises)


def values_by_definition(rises, k):
    """s_i = y_i + i*k, with y_i the height after step i."""
    values, height = [], 0
    for i, rise in enumerate(rises, start=1):
        height += rise
        values.append(height + i * k)
    return tuple(values)


def word_by_definition(values):
    """W(S) = A (A^{m_1} B)...(A^{m_n} B), m_i = s_i - s_{i-1}."""
    word, prev = "A", 0
    for v in values:
        word += "A" * (v - prev) + "B"
        prev = v
    return word


def values_of_word_by_definition(word):
    """s_i is the number of A's before the i-th B, less the leading A."""
    values, a_seen = [], 0
    for letter in word:
        if letter == "A":
            a_seen += 1
        else:
            values.append(a_seen - 1)
    return tuple(values)


def isolated_by_definition(letters, k):
    """The last letter is B, every B follows an A, and after each B the
    prefix holds #A >= k * #B + 1, read letter by letter."""
    if not letters or letters[-1] != "B":
        return False
    a = b = 0
    prev = ""
    for ch in letters:
        if ch == "B":
            if prev != "A":
                return False
            b += 1
            if a < k * b + 1:
                return False
        else:
            a += 1
        prev = ch
    return True


def cut_by_definition(values, k):
    """The largest i < n with s_i < s_n - (n-i)*k, or 0."""
    n = len(values)
    return max((i for i in range(1, n)
                if values[i - 1] < values[-1] - (n - i) * k), default=0)


def first_bad_step_by_definition(rises, k):
    """The message of the first step that is too far down or ends below
    the axis, the long step first at one index; None for a valid path."""
    height = 0
    for i, rise in enumerate(rises, start=1):
        if rise < -(k - 1):
            return f"down step {rise} at position {i} exceeds k-1 = {k - 1}"
        height += rise
        if height < 0:
            return f"path goes below the x-axis after step {i}"
    return None


def seeded_sequence(k, l, n, seed):
    """A random walk of rises that stays at or above the axis and can end
    at height l or below, read as a sequence."""
    rng = random.Random(seed)
    rises, height = [], 0
    for i in range(1, n + 1):
        cap = l + (n - i) * (k - 1)
        rise = rng.randint(-min(k - 1, height), min(2 * k, cap - height))
        rises.append(rise)
        height += rise
    return threshold.validate(values_by_definition(rises, k),
                              ThresholdParams(k, l, n))


def small_sequences():
    for k, l in CELLS:
        for n in range(1, 6):
            yield from threshold.enumerate_sequences(ThresholdParams(k, l, n))


def large_sequences():
    for k, l in LARGE:
        params = ThresholdParams(k, l, 2000)
        yield threshold.validate(range(k, k * 2000 + 1, k), params)
        yield threshold.validate(range(params.upper - 1999, params.upper + 1),
                                 params)
        for seed in (1, 2, 3):
            yield seeded_sequence(k, l, 2000, seed)


@pytest.mark.parametrize("sequences", [small_sequences, large_sequences])
def test_maps_equal_their_definitions(sequences):
    checked = 0
    for seq in sequences():
        k, l, values = seq.k, seq.l, seq.values
        path = paths.path_of(seq)
        assert path.rises == rises_by_definition(values, k)
        assert paths.sequence_of_path(path, l).values == values_by_definition(
            path.rises, k) == values
        word = ballot.to_ballot(seq)
        assert word.letters == word_by_definition(values)
        assert ballot.from_ballot(word, k, l).values == (
            values_of_word_by_definition(word.letters)) == values
        assert threshold.cut_of(values, k) == cut_by_definition(values, k)
        # at k + 1 the prefix bound fails for many words
        for k_ in (k, k + 1):
            assert ballot.is_k_ballot_isolated(word, k_) == (
                isolated_by_definition(word.letters, k_))
        checked += 1
    assert checked > 10


@pytest.mark.parametrize("k", [2, 3])
def test_isolated_check_equals_its_definition(k):
    """Every word over {A, B} of length up to 10."""
    found = set()
    for length in range(11):
        for letters in map("".join, itertools.product("AB", repeat=length)):
            expected = isolated_by_definition(letters, k)
            assert ballot.is_k_ballot_isolated(BallotWord(k, letters), k) == expected
            found.add(expected)
    assert found == {False, True}


@pytest.mark.parametrize("k,l", CELLS)
def test_sequence_of_path_equals_validate(k, l):
    for n in range(6):
        params = ThresholdParams(k, l, n)
        if n == 0:
            found = [ExtMotzkinPath(k, ())]
        else:
            found = list(paths.enumerate_paths(k, l, n))
        for path in found:
            expected = threshold.validate(
                values_by_definition(path.rises, k), params)
            assert paths.sequence_of_path(path, l) == expected


@pytest.mark.parametrize("k", [2, 3, 4])
def test_path_check_names_the_first_bad_step(k):
    """Every rise vector of length up to 4 over [-k, 2]: a path is built
    exactly when the definition finds no bad step, and otherwise the
    error names the step the definition names."""
    steps = range(-k, 3)
    vectors = [()]
    for _ in range(4):
        vectors = [v + (r,) for v in vectors for r in steps]
        for rises in vectors:
            expected = first_bad_step_by_definition(rises, k)
            if expected is None:
                assert ExtMotzkinPath(k, rises).rises == rises
            else:
                with pytest.raises(InvalidParameterError) as exc:
                    ExtMotzkinPath(k, rises)
                assert str(exc.value) == expected
