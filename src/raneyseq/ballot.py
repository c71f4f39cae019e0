"""Ballot-word encoding of threshold sequences.

W(S) = A (A^{m_1} B)(A^{m_2} B)...(A^{m_n} B) with m_i = s_i - s_{i-1}
(s_0 = 0): a leading A, then one block per element consisting of m_i
letters A followed by a single B.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from itertools import accumulate, count

from .errors import InvalidParameterError, MalformedWordError
from .exactmath import check_knr
from .threshold import (
    ThresholdParams, ThresholdSequence, trusted, unshifted, validate)


@trusted
@dataclass(frozen=True, slots=True)
class BallotWord:
    k: int
    letters: str

    def __post_init__(self) -> None:
        check_knr(self.k)
        letters = self.letters
        if not (isinstance(letters, str)
                and letters.count("A") + letters.count("B") == len(letters)):
            raise InvalidParameterError("letters must be a str over {A, B}")

    @property
    def a_count(self) -> int:
        return self.letters.count("A")

    @property
    def b_count(self) -> int:
        return self.letters.count("B")


def to_ballot(seq: ThresholdSequence) -> BallotWord:
    """Encode a threshold sequence as its ballot word W(S)."""
    values = unshifted(seq, "to_ballot")
    seq.params.require_n("to_ballot")
    # The i-th B follows the leading A, s_i A's and i - 1 B's.
    letters = bytearray(b"A") * (values[-1] + len(values) + 1)
    for i, v in enumerate(values, start=1):
        letters[v + i] = 66  # ord("B")
    return BallotWord._of(seq.k, letters.decode())


def from_ballot(word: BallotWord, k: int, l: int) -> ThresholdSequence:
    """Decode W(S) back to the sequence of block-length prefix sums."""
    if k != word.k:
        raise InvalidParameterError(f"k = {k} disagrees with the word's k = {word.k}")
    letters = word.letters
    if not letters.startswith("A") or not letters.endswith("B"):
        raise MalformedWordError("word must start with A and end with B")
    blocks = letters[1:-1].split("B")
    # BallotWord admits only A and B, so every block between two B's is a
    # run of A's, and only an empty one is malformed.
    if "" in blocks:
        raise MalformedWordError("every B must follow a non-empty run of A's")
    values = list(accumulate(map(len, blocks)))
    return validate(values, ThresholdParams(k, l, len(values)))


def is_k_ballot_isolated(word: BallotWord, k: int) -> bool:
    """True iff the B's are isolated, the last letter is B, and after each
    B the prefix satisfies #A >= k * #B + 1."""
    check_knr(k)
    # The i-th block holds the A's between B i - 1 and B i, so an empty
    # block is a B that does not follow an A.
    blocks = word.letters[:-1].split("B")
    return (word.letters.endswith("B") and "" not in blocks
            and all(map(operator.ge, accumulate(map(len, blocks)),
                        count(k + 1, k))))
