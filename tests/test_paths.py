import json

import pytest

from raneyseq import exactmath, paths, threshold
from raneyseq.errors import (
    BudgetExceededError,
    HeightExceedsLimitError,
    InvalidParameterError,
)
from raneyseq.paths import ExtMotzkinPath
from raneyseq.threshold import ThresholdParams

EX7_SEQ = (7, 15, 16, 21, 28, 30, 38)
EX7_RISES = (2, 3, -4, 0, 2, -3, 3)
# Cells whose every path is built by the enumerator and by path_of.
TRUSTED_CELLS = [(2, 0, 7), (3, 1, 5), (5, 3, 4)]


def seq(values, k, l):
    return threshold.validate(values, ThresholdParams(k, l, len(values)))


class TestPathType:
    def test_below_axis_rejected(self):
        with pytest.raises(InvalidParameterError):
            ExtMotzkinPath(3, (1, -2))

    def test_down_step_too_long(self):
        with pytest.raises(InvalidParameterError):
            ExtMotzkinPath(3, (4, -3))

    def test_heights(self):
        path = ExtMotzkinPath(5, EX7_RISES)
        assert path.heights == (2, 5, 1, 1, 3, 0, 3)
        assert path.end_height == 3

    def test_down_step_named_before_the_dip_at_its_index(self):
        # Step 2 is too long and also ends below the axis.
        with pytest.raises(InvalidParameterError,
                           match="^down step -3 at position 2 exceeds k-1 = 2$"):
            ExtMotzkinPath(3, (1, -3, 5))

    def test_dip_named_before_a_later_down_step(self):
        with pytest.raises(InvalidParameterError,
                           match="^path goes below the x-axis after step 2$"):
            ExtMotzkinPath(3, (0, -1, -3))

    def test_json_round_trip(self):
        path = ExtMotzkinPath(5, EX7_RISES)
        assert ExtMotzkinPath.from_json(path.to_json()) == path

    @pytest.mark.parametrize("rises,bad", [
        ((1.5,), "rise 1.5 at index 1"),
        ((True,), "rise True at index 1"),
        ((1, 0.0), "rise 0.0 at index 2")])
    def test_rises_that_are_not_ints_rejected(self, rises, bad):
        with pytest.raises(InvalidParameterError, match=f"^{bad} is not an integer$"):
            ExtMotzkinPath(3, rises)

    @pytest.mark.parametrize("rises,bad", [
        ("[0.5, -0.5]", "rise 0.5 at index 1"),
        ("[1, 0, -1.0]", "rise -1.0 at index 3"),
        ("[true, false]", "rise True at index 1"),
        ('[1, "0"]', "rise '0' at index 2")])
    def test_json_rejects_rises_that_are_not_ints(self, rises, bad):
        with pytest.raises(InvalidParameterError, match=f"^{bad} is not"):
            ExtMotzkinPath.from_json(f'{{"k": 2, "rises": {rises}}}')

    @pytest.mark.parametrize("text,message", [
        ('{"rises": [1]}', "^missing key 'k'$"),
        ('{"k": 2}', "^missing key 'rises'$"),
        ("5", "^not a JSON object: 5$"),
        ("[2, [1]]", "^not a JSON object: ")])
    def test_json_that_is_not_a_path_object(self, text, message):
        with pytest.raises(InvalidParameterError, match=message):
            ExtMotzkinPath.from_json(text)


class TestPathOf:
    def test_example7(self):
        path = paths.path_of(seq(EX7_SEQ, 5, 3))
        assert path.rises == EX7_RISES
        assert path.end_height == 3

    def test_requires_offset_zero(self):
        with pytest.raises(InvalidParameterError, match="offset 0"):
            paths.path_of(threshold.shift(seq((3, 6), 3, 0), 2))

    @pytest.mark.parametrize("k,n", [(3, 4), (4, 3)])
    def test_staircase_is_flat(self, k, n):
        staircase = seq(tuple(k * i for i in range(1, n + 1)), k, 0)
        assert paths.path_of(staircase).rises == (0,) * n

    def test_all_31_sequences(self):
        for s in threshold.enumerate_sequences(ThresholdParams(3, 1, 3)):
            path = paths.path_of(s)
            assert path.end_height in (0, 1)
            assert (path.end_height == 1) == threshold.is_proper(s)


class TestSequenceOfPath:
    def test_example7_reversed(self):
        path = ExtMotzkinPath(5, EX7_RISES)
        assert paths.sequence_of_path(path, 3).values == EX7_SEQ

    def test_flat_path(self):
        path = ExtMotzkinPath(4, (0, 0, 0))
        assert paths.sequence_of_path(path, 0).values == (4, 8, 12)

    def test_height_exceeds_l(self):
        path = ExtMotzkinPath(4, (2,))
        with pytest.raises(HeightExceedsLimitError):
            paths.sequence_of_path(path, 1)

    def test_empty_path(self):
        empty = paths.sequence_of_path(ExtMotzkinPath(3, ()), 1)
        assert empty == threshold.validate((), ThresholdParams(3, 1, 0))
        assert paths.path_of(empty) == ExtMotzkinPath(3, ())

    def test_round_trip_over_paths(self):
        for path in paths.enumerate_paths(4, 2, 4):
            assert paths.path_of(paths.sequence_of_path(path, 2)) == path


class TestEnumeratePaths:
    def test_example8_total(self):
        assert len(list(paths.enumerate_paths(2, 0, 4))) == 14

    @pytest.mark.parametrize("k,l", [(3, 0), (3, 1), (4, 2), (5, 3)])
    def test_length_one(self, k, l):
        found = sorted(p.rises[0] for p in paths.enumerate_paths(k, l, 1))
        assert found == list(range(l + 1))

    def test_raney_cell(self):
        assert len(list(paths.enumerate_paths(3, 1, 3))) == \
            exactmath.raney(3, 2, 3)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_counts_match_raney(self, k):
        for l in range(k - 1):
            for n in range(1, 5):
                found = list(paths.enumerate_paths(k, l, n))
                assert len(found) == exactmath.raney(k, l + 1, n)
                assert len(set(found)) == len(found)

    def test_catalan_when_k2(self):
        for n in range(1, 9):
            assert len(list(paths.enumerate_paths(2, 0, n))) == \
                exactmath.catalan(n)

    def test_proper_endpoint_count(self):
        for k, l, n in [(3, 1, 4), (4, 2, 4), (4, 1, 5)]:
            at_l = [p for p in paths.enumerate_paths(k, l, n)
                    if p.end_height == l]
            assert len(at_l) == exactmath.raney(k, k + l, n - 1)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            list(paths.enumerate_paths(2, 0, 5, budget=3))

    # No leaf tests the end height: the last step's bound caps it at l.
    @pytest.mark.parametrize("k,l,n", [
        (k, l, n) for k in range(2, 6) for l in range(k - 1)
        for n in range(1, 12) if exactmath.raney(k, l + 1, n) <= 10 ** 4])
    def test_every_path_ends_at_most_l(self, k, l, n):
        assert all(p.end_height <= l for p in paths.enumerate_paths(k, l, n))


class TestClassicMotzkin:
    def test_simple_cases(self):
        assert paths.is_classic_motzkin(ExtMotzkinPath(2, (1, 0, -1, 0)))
        assert not paths.is_classic_motzkin(ExtMotzkinPath(2, (2, -1, -1, 0)))

    def test_example8_split(self):
        all_paths = list(paths.enumerate_paths(2, 0, 4))
        classic = [p for p in all_paths if paths.is_classic_motzkin(p)]
        assert len(classic) == 9
        assert len(all_paths) - len(classic) == 5

    def test_motzkin_numbers(self):
        for n in range(1, 9):
            classic = [p for p in paths.enumerate_paths(2, 0, n)
                       if paths.is_classic_motzkin(p)]
            assert len(classic) == exactmath.motzkin(n)


class TestRender:
    def test_flat(self):
        path = ExtMotzkinPath(3, (0, 0))
        assert paths.render_ascii(path) == "***"

    def test_example7_shape(self):
        art = paths.render_ascii(ExtMotzkinPath(5, EX7_RISES))
        lines = art.splitlines()
        assert len(lines) == 6  # heights 0..5
        assert all(len(line) == 8 for line in lines)
        assert sum(line.count("*") for line in lines) == 8


class TestTrustedPaths:
    """The paths that enumerate_paths and path_of build without the public
    checks are the public constructor's, and write json.dumps's text."""

    @staticmethod
    def assert_public(path):
        public = ExtMotzkinPath(path.k, path.rises)
        assert path == public and hash(path) == hash(public)

    @pytest.mark.parametrize("k,l,n", TRUSTED_CELLS)
    def test_enumerated_paths(self, k, l, n):
        for path in paths.enumerate_paths(k, l, n):
            self.assert_public(path)

    @pytest.mark.parametrize("k,l,n", TRUSTED_CELLS)
    def test_mapped_paths(self, k, l, n):
        for s in threshold.enumerate_sequences(ThresholdParams(k, l, n)):
            self.assert_public(paths.path_of(s))

    @pytest.mark.parametrize("k,l,n", TRUSTED_CELLS + [(2, 0, 1), (3, 1, 1),
                                                      (5, 3, 1)])
    def test_json_text_is_json_dumps(self, k, l, n):
        for path in paths.enumerate_paths(k, l, n):
            assert path.json_text() == json.dumps(path.to_json())

    @pytest.mark.parametrize("values", [tuple(range(3, 6001, 3)),
                                        tuple(range(4002, 6002))],
                             ids=["lowest", "highest"])
    def test_json_text_at_n_2000(self, values):
        # the paths of the lowest and the highest sequence at (3, 1, 2000)
        path = paths.path_of(seq(values, 3, 1))
        self.assert_public(path)
        assert path.json_text() == json.dumps(path.to_json())


@pytest.mark.parametrize("k,l,n", [(k, l, n) for k in (2, 3, 4)
                                   for l in range(k - 1) for n in range(1, 5)])
def test_path_bijection_property(k, l, n):
    params = ThresholdParams(k, l, n)
    images = set()
    for s in threshold.enumerate_sequences(params):
        p = paths.path_of(s)
        assert paths.sequence_of_path(p, l) == s
        images.add(p)
    assert images == set(paths.enumerate_paths(k, l, n))
