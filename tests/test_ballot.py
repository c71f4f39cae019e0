import pytest

from raneyseq import ballot, threshold
from raneyseq.errors import (
    BoundViolationError,
    InvalidParameterError,
    MalformedWordError,
)
from raneyseq.ballot import BallotWord
from raneyseq.threshold import ThresholdParams


def seq(values, k, l):
    return threshold.validate(values, ThresholdParams(k, l, len(values)))


class TestToBallot:
    def test_single_block(self):
        assert ballot.to_ballot(seq((3,), 3, 0)).letters == "AAAAB"

    def test_two_blocks(self):
        word = ballot.to_ballot(seq((3, 6), 3, 0))
        assert word.letters == "AAAABAAAB"
        assert word.a_count == 7  # s_n + 1
        assert word.b_count == 2

    @pytest.mark.parametrize("k,l,n", [(3, 0, 4), (3, 1, 4), (4, 2, 3)])
    def test_proper_words_have_full_a_count(self, k, l, n):
        params = ThresholdParams(k, l, n)
        for s in threshold.enumerate_sequences(params):
            word = ballot.to_ballot(s)
            assert word.b_count == n
            assert word.a_count == s.values[-1] + 1
            if threshold.is_proper(s):
                assert word.a_count == k * n + l + 1

    def test_requires_offset_zero(self):
        shifted = threshold.shift(seq((3, 6), 3, 0), 2)
        with pytest.raises(InvalidParameterError):
            ballot.to_ballot(shifted)

    def test_empty_sequence_rejected(self):
        # Its word would be "A", which from_ballot rejects.
        with pytest.raises(InvalidParameterError,
                           match="^to_ballot requires n >= 1$"):
            ballot.to_ballot(seq((), 3, 1))


class TestBallotWord:
    @pytest.mark.parametrize("letters", ["AaB", "A\u00c5B", "AB\n", "AB ", "ABC"])
    def test_letters_outside_the_alphabet_rejected(self, letters):
        with pytest.raises(InvalidParameterError, match="over {A, B}"):
            BallotWord(3, letters)

    @pytest.mark.parametrize("letters", ["", "A", "B", "AAAB", "BBA"])
    def test_any_word_over_the_alphabet_accepted(self, letters):
        assert BallotWord(3, letters).letters == letters


class TestFromBallot:
    def test_single_block(self):
        assert ballot.from_ballot(BallotWord(3, "AAAAB"), 3, 0).values == (3,)

    def test_two_blocks(self):
        assert ballot.from_ballot(BallotWord(3, "AAAABAAAB"), 3, 0).values == (3, 6)

    @pytest.mark.parametrize("letters", ["AABB", "BAAB", "AAABA", "A", "",
                                         "AAABBAB"])
    def test_malformed(self, letters):
        with pytest.raises(MalformedWordError):
            ballot.from_ballot(BallotWord(3, letters), 3, 0)

    def test_not_a_threshold_sequence(self):
        # decodes to (1,) which violates s_1 >= 3
        with pytest.raises(BoundViolationError):
            ballot.from_ballot(BallotWord(3, "AAB"), 3, 0)

    def test_k_disagreeing_with_the_word_rejected(self):
        # decoded with k = 3, the word's (4,) would pass as a (3,1,1) sequence
        with pytest.raises(InvalidParameterError, match="disagrees"):
            ballot.from_ballot(BallotWord(4, "AAAAAB"), 3, 1)

    @pytest.mark.parametrize("k,l,n", [(3, 1, 3), (2, 0, 4), (4, 2, 3)])
    def test_round_trip(self, k, l, n):
        params = ThresholdParams(k, l, n)
        for s in threshold.enumerate_sequences(params):
            assert ballot.from_ballot(ballot.to_ballot(s), k, l) == s


class TestTrustedWords:
    @pytest.mark.parametrize("k,l,n", [(2, 0, 7), (3, 1, 5), (5, 3, 4)])
    def test_mapped_words_are_public_words(self, k, l, n):
        # to_ballot builds its word without the public checks
        for s in threshold.enumerate_sequences(ThresholdParams(k, l, n)):
            word = ballot.to_ballot(s)
            public = BallotWord(word.k, word.letters)
            assert word == public and hash(word) == hash(public)


class TestIsKBallotIsolated:
    def test_encoded_word_passes(self):
        word = ballot.to_ballot(seq((3, 6), 3, 0))
        assert ballot.is_k_ballot_isolated(word, 3)

    def test_adjacent_bs(self):
        assert not ballot.is_k_ballot_isolated(BallotWord(3, "AAAABB"), 3)

    def test_last_letter_not_b(self):
        assert not ballot.is_k_ballot_isolated(BallotWord(3, "AAAABA"), 3)

    def test_dominance_violated(self):
        # after the first B, #A = 2 < k * 1 + 1
        assert not ballot.is_k_ballot_isolated(BallotWord(3, "AABAAB"), 3)

    @pytest.mark.parametrize("k,l,n", [(2, 0, 4), (3, 0, 4), (3, 1, 3)])
    def test_all_encodings_pass(self, k, l, n):
        for s in threshold.enumerate_sequences(ThresholdParams(k, l, n)):
            assert ballot.is_k_ballot_isolated(ballot.to_ballot(s), k)
