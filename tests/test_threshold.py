import json

import pytest

from raneyseq import exactmath, paths, threshold
from raneyseq.errors import (
    BoundViolationError,
    BudgetExceededError,
    InvalidParameterError,
    NotIncreasingError,
    RaneyseqError,
)
from raneyseq.threshold import ThresholdParams, ThresholdSequence

S1 = (3, 6, 14, 15, 17, 18)
S2 = (3, 6, 14, 15, 17, 19)
S3 = (3, 4, 14, 15, 17, 18)
# Cells (k, l, n, d) whose sequences, each value mutated, test the first failure.
MUTATED_CELLS = [(3, 1, 6, 0), (2, 0, 1, 0), (4, 2, 5, 0), (3, 0, 4, 2),
                 (5, 3, 1, -1)]


class TestParams:
    def test_l_equal_k_minus_one_rejected(self):
        with pytest.raises(InvalidParameterError):
            ThresholdParams(3, 2, 4)

    def test_k_too_small(self):
        with pytest.raises(InvalidParameterError):
            ThresholdParams(1, 0, 4)

    def test_negative_n_rejected(self):
        with pytest.raises(InvalidParameterError, match="n must be >= 0"):
            ThresholdParams(2, 0, -1)

    def test_n_zero_allowed(self):
        assert threshold.count(ThresholdParams(3, 1, 0)) == 1

    def test_lowers(self):
        # k*i + d for i = 1 ... n
        assert list(ThresholdParams(3, 1, 4, d=2).lowers) == [5, 8, 11, 14]
        assert list(ThresholdParams(2, 0, 3, d=-4).lowers) == [-2, 0, 2]
        assert not ThresholdParams(3, 1, 0).lowers


class TestValidate:
    def test_simple_sequence(self):
        seq = threshold.validate(S1, ThresholdParams(3, 0, 6))
        assert seq.values == S1

    def test_bound_violation_reports_index(self):
        with pytest.raises(BoundViolationError) as exc:
            threshold.validate(S3, ThresholdParams(3, 0, 6))
        assert exc.value.index == 2

    def test_not_increasing(self):
        with pytest.raises(NotIncreasingError) as exc:
            threshold.validate((3, 6, 6, 15, 17, 18), ThresholdParams(3, 0, 6))
        assert exc.value.index == 3

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_minimal_sequence(self, k):
        seq = threshold.validate((k,), ThresholdParams(k, 0, 1))
        assert seq.values == (k,)

    def test_length_mismatch(self):
        with pytest.raises(InvalidParameterError):
            threshold.validate((3, 6), ThresholdParams(3, 0, 3))

    @staticmethod
    def reference_failure(values, params):
        """The first failure as the defining inequalities read, one index
        at a time: (error type, index, value), or None if valid."""
        for i, v in enumerate(values, start=1):
            if i > 1 and v <= values[i - 2]:
                return NotIncreasingError, i, None
            if not params.k * i + params.d <= v <= \
                    params.k * params.n + params.l + params.d:
                return BoundViolationError, i, v
        return None

    @staticmethod
    def mutations(values, upper):
        """Each value lowered and raised by one, swapped with its successor,
        made equal to the last value, and replaced by values below the
        lower bound (s_1 - 1, 0, -5) or above the upper one."""
        for i in range(len(values)):
            for new in (values[i] - 1, values[i] + 1, values[0] - 1, 0,
                        upper + 1, values[-1], -5, upper + 7):
                yield values[:i] + (new,) + values[i + 1:]
            if i + 1 < len(values):
                yield values[:i] + (values[i + 1], values[i]) + values[i + 2:]

    @pytest.mark.parametrize("k,l,n,d", MUTATED_CELLS)
    def test_first_failure_matches_reference(self, k, l, n, d):
        params = ThresholdParams(k, l, n, d)
        checked = 0
        for seq in threshold.enumerate_sequences(ThresholdParams(k, l, n)):
            values = tuple(v + d for v in seq.values)
            for mutated in self.mutations(values, params.upper):
                expected = self.reference_failure(mutated, params)
                if expected is None:
                    valid = threshold.validate(mutated, params)
                    assert valid.values == mutated
                    continue
                kind, index, value = expected
                with pytest.raises(kind) as exc:
                    threshold.validate(mutated, params)
                assert type(exc.value) is kind
                assert exc.value.index == index
                if kind is BoundViolationError:
                    assert exc.value.value == value
                checked += 1
        assert checked > 0

    def test_json_round_trip(self):
        seq = threshold.validate(S2, ThresholdParams(3, 1, 6))
        assert threshold.ThresholdSequence.from_json(seq.to_json()) == seq

    @pytest.mark.parametrize("values,bad", [
        ("[2.5, 4.0]", "value 2.5 at index 1"),
        ("[2, 4.0]", "value 4.0 at index 2"),
        ("[2, true]", "value True at index 2"),
        ("[null, 4]", "value None at index 1")])
    def test_json_rejects_values_that_are_not_ints(self, values, bad):
        text = f'{{"k": 2, "l": 0, "n": 2, "values": {values}}}'
        with pytest.raises(InvalidParameterError, match=f"^{bad} is not"):
            threshold.ThresholdSequence.from_json(text)

    @pytest.mark.parametrize("text,message", [
        ('{"k": 3, "l": 0, "n": 1}', "^missing key 'values'$"),
        ('{"l": 0, "n": 1, "values": [3]}', "^missing key 'k'$"),
        ("[3]", "^not a JSON object: \\[3\\]$"),
        ("5", "^not a JSON object: 5$")])
    def test_json_that_is_not_a_sequence_object(self, text, message):
        with pytest.raises(InvalidParameterError, match=message):
            threshold.ThresholdSequence.from_json(text)

    @pytest.mark.parametrize("k,l,n,d", [
        (2, 0, 7, 0), (3, 1, 5, 0), (5, 3, 4, 0), (3, 1, 5, -4), (3, 1, 5, 3),
        (2, 0, 1, 0), (3, 1, 1, -4), (5, 3, 1, 3)])
    def test_json_text_is_json_dumps(self, k, l, n, d):
        for seq in threshold.enumerate_sequences(ThresholdParams(k, l, n, d)):
            assert seq.json_text() == json.dumps(seq.to_json())

    @pytest.mark.parametrize("values", [tuple(range(3, 6001, 3)),
                                        tuple(range(4002, 6002))],
                             ids=["lowest", "highest"])
    def test_json_text_at_n_2000(self, values):
        seq = threshold.validate(values, ThresholdParams(3, 1, 2000))
        assert seq.json_text() == json.dumps(seq.to_json())

    def test_json_offset_defaults_to_zero(self):
        seq = threshold.ThresholdSequence.from_json(
            '{"k": 3, "l": 0, "n": 1, "values": [3]}')
        assert seq.d == 0 and seq.values == (3,)


class TestIsProper:
    def test_example1_classification(self):
        assert threshold.is_proper(threshold.validate(S1, ThresholdParams(3, 0, 6)))
        assert not threshold.is_proper(threshold.validate(S1, ThresholdParams(3, 1, 6)))
        assert threshold.is_proper(threshold.validate(S2, ThresholdParams(3, 1, 6)))

    def test_empty_sequence_rejected(self):
        seq = threshold.validate((), ThresholdParams(3, 1, 0))
        with pytest.raises(InvalidParameterError, match="requires n >= 1"):
            threshold.is_proper(seq)


class TestCutIndex:
    def test_example5(self):
        seq = threshold.validate((7, 9, 17, 18), ThresholdParams(4, 2, 4))
        assert threshold.cut_index(seq) == 2

    def test_example4(self):
        seq = threshold.validate((7, 12, 14, 16), ThresholdParams(4, 0, 4))
        assert threshold.cut_index(seq) == 0

    @pytest.mark.parametrize("k,n", [(2, 5), (3, 5), (4, 4)])
    def test_zero_for_all_l0_sequences(self, k, n):
        for seq in threshold.enumerate_sequences(ThresholdParams(k, 0, n)):
            assert threshold.cut_index(seq) == 0

    def test_requires_offset_zero(self):
        seq = threshold.shift(
            threshold.validate((3, 6), ThresholdParams(3, 0, 2)), 5)
        with pytest.raises(InvalidParameterError):
            threshold.cut_index(seq)

    def test_empty_sequence_rejected(self):
        seq = threshold.validate((), ThresholdParams(3, 1, 0))
        with pytest.raises(InvalidParameterError, match="requires n >= 1"):
            threshold.cut_index(seq)


class TestConstructor:
    """ThresholdSequence(params, values) checks what validate checks."""

    @staticmethod
    def inputs():
        """The (values, params) of the TestValidate tests, bad and good."""
        yield S3, ThresholdParams(3, 0, 6)
        yield (3, 6, 6, 15, 17, 18), ThresholdParams(3, 0, 6)
        yield (3, 6), ThresholdParams(3, 0, 3)
        for k, l, n, d in MUTATED_CELLS:
            params = ThresholdParams(k, l, n, d)
            for seq in threshold.enumerate_sequences(ThresholdParams(k, l, n)):
                values = tuple(v + d for v in seq.values)
                for mutated in TestValidate.mutations(values, params.upper):
                    yield mutated, params

    @staticmethod
    def error(build, *args):
        """The type and message of what build(*args) raises, or None."""
        try:
            build(*args)
        except RaneyseqError as exc:
            return type(exc), str(exc)
        return None

    def test_raises_as_validate(self):
        bad = 0
        for values, params in self.inputs():
            expected = self.error(threshold.validate, values, params)
            assert self.error(ThresholdSequence, params, values) == expected
            bad += expected is not None
        assert bad > 100

    # validate takes any iterable; the constructor only a tuple
    def test_values_not_a_tuple(self):
        params = ThresholdParams(3, 1, 2)
        assert threshold.validate([3, 6], params).values == (3, 6)
        with pytest.raises(InvalidParameterError,
                           match=r"^values must be a tuple, got \[3, 6\]$"):
            ThresholdSequence(params, [3, 6])

    @pytest.mark.parametrize("build", [ThresholdSequence,
                                       lambda p, v: threshold.validate(v, p)],
                             ids=["constructor", "validate"])
    def test_params_not_threshold_params(self, build):
        with pytest.raises(InvalidParameterError, match=r"^params must be a "
                           r"ThresholdParams, got \(3, 1, 2\)$"):
            build((3, 1, 2), (3, 6))

    # Out of bounds at (3, 1, 2), where the upper bound is 7: path_of would
    # make a path its own constructor rejects, and to_ballot and tuple_of
    # would fail with bare errors, but no such sequence can be made.
    @pytest.mark.parametrize("values,index", [((9, 1), 1), ((4, 20), 2)])
    def test_out_of_bounds_sequence_never_made(self, values, index):
        with pytest.raises(BoundViolationError) as exc:
            ThresholdSequence(ThresholdParams(3, 1, 2), values)
        assert (exc.value.index, exc.value.value) == (index, values[index - 1])


class TestTrustedSequences:
    """The sequences that enumerate_sequences, sequence_of_path and shift
    build without the public checks are the public constructor's."""

    CELLS = [(2, 0, 7), (3, 1, 5), (5, 3, 4)]

    @staticmethod
    def assert_public(s):
        public = ThresholdSequence(s.params, s.values)
        assert s == public and hash(s) == hash(public)

    @pytest.mark.parametrize("k,l,n", CELLS)
    def test_enumerated_sequences(self, k, l, n):
        for s in threshold.enumerate_sequences(ThresholdParams(k, l, n)):
            self.assert_public(s)

    @pytest.mark.parametrize("k,l,n", CELLS)
    def test_mapped_sequences(self, k, l, n):
        for s in threshold.enumerate_sequences(ThresholdParams(k, l, n)):
            self.assert_public(paths.sequence_of_path(paths.path_of(s), l))

    @pytest.mark.parametrize("k,l,n", CELLS)
    def test_shifted_sequences(self, k, l, n):
        for s in threshold.enumerate_sequences(ThresholdParams(k, l, n)):
            for d in (-7, 3):
                self.assert_public(threshold.shift(s, d))


class TestEnumerate:
    def test_single_sequence(self):
        seqs = list(threshold.enumerate_sequences(ThresholdParams(3, 0, 1)))
        assert [s.values for s in seqs] == [(3,)]

    def test_b2_is_seven(self):
        assert len(list(threshold.enumerate_sequences(ThresholdParams(3, 1, 2)))) == 7

    def test_catalan_cell(self):
        assert len(list(threshold.enumerate_sequences(ThresholdParams(2, 0, 4)))) == 14

    def test_lexicographic_and_valid(self):
        params = ThresholdParams(3, 1, 3)
        seqs = [s.values for s in threshold.enumerate_sequences(params)]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)
        for values in seqs:
            threshold.validate(values, params)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            list(threshold.enumerate_sequences(ThresholdParams(3, 1, 3), budget=5))

    def test_n_zero_rejected(self):
        with pytest.raises(InvalidParameterError):
            list(threshold.enumerate_sequences(ThresholdParams(3, 1, 0)))


class TestCounts:
    def test_paper_values(self):
        assert threshold.count(ThresholdParams(3, 0, 2)) == 3
        assert threshold.count(ThresholdParams(3, 1, 1)) == 2

    def test_count_matches_enumeration(self):
        params = ThresholdParams(4, 2, 4)
        assert threshold.count(params) == \
            len(list(threshold.enumerate_sequences(params)))

    def test_count_proper_smallest(self):
        params = ThresholdParams(3, 1, 1)
        proper = [s for s in threshold.enumerate_sequences(params)
                  if threshold.is_proper(s)]
        assert threshold.count_proper(params) == len(proper) == 1

    def test_count_proper_n_zero_rejected(self):
        with pytest.raises(InvalidParameterError, match="requires n >= 1"):
            threshold.count_proper(ThresholdParams(3, 1, 0))

    @pytest.mark.parametrize("k,n", [
        (k, n) for k in (2, 3, 4, 5) for n in range(1, 9)
        if exactmath.raney(k, 1, n) <= 10 ** 5])
    def test_count_proper_l0_matches_enumeration(self, k, n):
        params = ThresholdParams(k, 0, n)
        assert threshold.count_proper(params) == sum(
            threshold.is_proper(s) for s in threshold.enumerate_sequences(params))

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_count_proper_l0_length1(self, k):
        assert threshold.count_proper(ThresholdParams(k, 0, 1)) == 1

    def test_prop4_difference_formula(self):
        from fractions import Fraction
        for n in range(1, 12):
            diff = threshold.count_proper(ThresholdParams(3, 1, n))
            assert diff == Fraction(2, n + 1) * exactmath.binomial(3 * n, n - 1)
            assert diff == threshold.count(ThresholdParams(3, 1, n)) - \
                threshold.count(ThresholdParams(3, 0, n))

    def test_nested_counts(self):
        # a (k,l-1)-sequence is also a (k,l)-sequence
        for n in range(1, 6):
            low = {s.values for s in
                   threshold.enumerate_sequences(ThresholdParams(4, 1, n))}
            high = {s.values for s in
                    threshold.enumerate_sequences(ThresholdParams(4, 2, n))}
            assert low <= high
            assert len(high) - len(low) == \
                threshold.count_proper(ThresholdParams(4, 2, n))


class TestShift:
    def test_translation(self):
        seq = threshold.validate((3, 6), ThresholdParams(3, 0, 2))
        shifted = threshold.shift(seq, 3)
        assert shifted.values == (6, 9)
        assert shifted.d == 3

    def test_inverse(self):
        seq = threshold.validate((3, 6, 9), ThresholdParams(3, 0, 3))
        assert threshold.shift(threshold.shift(seq, 3), -3) == seq

    def test_count_preserving(self):
        base = list(threshold.enumerate_sequences(ThresholdParams(3, 0, 3)))
        offset = list(threshold.enumerate_sequences(ThresholdParams(3, 0, 3, d=4)))
        assert len(base) == len(offset)
        assert {threshold.shift(s, 4).values for s in base} == \
            {s.values for s in offset}

    # The upper end of s_i moves with d, so the offset stream is the d = 0
    # stream shifted, in the same order.
    @pytest.mark.parametrize("d", [-7, 0, 5])
    @pytest.mark.parametrize("k,l,n", [(2, 0, 6), (3, 1, 5), (4, 2, 4)])
    def test_offset_stream_is_shifted_stream(self, k, l, n, d):
        base = threshold.enumerate_sequences(ThresholdParams(k, l, n))
        offset = threshold.enumerate_sequences(ThresholdParams(k, l, n, d))
        assert [threshold.shift(s, d) for s in base] == list(offset)


@pytest.mark.parametrize("k,l,n", [(k, l, n) for k in (2, 3, 4)
                                   for l in range(k - 1) for n in range(1, 5)])
def test_enumeration_count_matches_raney(k, l, n):
    params = ThresholdParams(k, l, n)
    seqs = list(threshold.enumerate_sequences(params))
    assert len(seqs) == threshold.count(params)
    assert len({s.values for s in seqs}) == len(seqs)
