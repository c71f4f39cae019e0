import itertools
import json
import math
import operator
import os
import subprocess
import sys
from pathlib import Path

import pytest

from raneyseq import ballot, exactmath, paths, threshold, trees, verify
from raneyseq.errors import (
    BudgetExceededError, EmptyTupleError, InvalidParameterError)
from raneyseq.threshold import ThresholdParams
from raneyseq.verify import Cell, VerifyReport


class TestReport:
    def test_cell_pass_fail(self):
        assert Cell({}, 3, 3).ok
        assert not Cell({}, 3, 4).ok

    def test_report_aggregation(self):
        report = VerifyReport("demo")
        report.add({"n": 1}, 1, 1)
        assert report.passed
        report.add({"n": 2}, 1, 2)
        assert not report.passed
        assert len(report.failures) == 1

    def test_empty_report_does_not_pass(self):
        # a suite that compared nothing has shown nothing
        assert not VerifyReport("demo").passed
        assert VerifyReport("demo").to_json()["pass"] is False

    def test_json_serializable(self):
        report = verify.check_raney_difference(3, 1, 5)
        payload = json.dumps(report.to_json())
        data = json.loads(payload)
        assert data["suite"] == "raney-difference"
        assert data["pass"] is True
        assert all(cell["pass"] for cell in data["cells"])


class TestOracleSequences:
    def test_paper_values(self):
        assert verify.oracle_sequences(3, 0, 2)[0] == 3
        assert verify.oracle_sequences(3, 1, 2)[0] == 7

    def test_matches_raney(self):
        assert verify.oracle_sequences(4, 2, 3)[0] == exactmath.raney(4, 3, 3)

    @pytest.mark.parametrize("k,l,n", [(2, 0, 5), (3, 1, 4), (4, 0, 4), (5, 3, 3)])
    def test_agrees_with_enumerate(self, k, l, n):
        count, found = verify.oracle_sequences(k, l, n)
        via_enum = {s.values for s in
                    threshold.enumerate_sequences(ThresholdParams(k, l, n))}
        assert found == via_enum
        assert count == len(via_enum)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            verify.oracle_sequences(2, 0, 14, budget=100)

    @pytest.mark.parametrize("budget", [20, 41])
    def test_budget_on_the_count(self, budget):
        # C(9, 5) = 126 <= 8 * 20 passes the scan guard; 42 sequences are found
        with pytest.raises(BudgetExceededError):
            verify.oracle_sequences(2, 0, 5, budget=budget)

    def test_scan_guard_at_equality(self):
        # C(33, 5) = 237,336 = 8 * 29,667: the guard lets exactly that scan run
        assert verify.oracle_sequences(8, 0, 5, budget=29_667)[0] == \
            exactmath.raney(8, 1, 5)
        with pytest.raises(BudgetExceededError):
            verify.oracle_sequences(8, 0, 5, budget=29_666)

    def test_budget_equal_to_the_count(self):
        assert verify.oracle_sequences(2, 0, 5, budget=42)[0] == 42

    @pytest.mark.parametrize("k,l", [(k, l) for k in range(2, 6)
                                     for l in range(k - 1)])
    def test_matches_the_one_pass_filter(self, k, l):
        def one_pass(n):
            pool = range(k, k * n + l + 1)
            mins = tuple(k * i for i in range(1, n + 1))
            return {cand for cand in itertools.combinations(pool, n)
                    if all(map(operator.ge, cand, mins))}

        n = 0
        while math.comb(len(range(k, k * n + l + 1)), n) <= 200_000:
            expected = one_pass(n)
            assert verify.oracle_sequences(k, l, n) == (len(expected), expected)
            n += 1
        assert n >= 6

    def test_never_calls_the_enumerator(self, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("the oracle called the code it checks")

        monkeypatch.setattr(threshold, "enumerate_sequences", boom)
        monkeypatch.setattr(threshold, "validate", boom)
        count, found = verify.oracle_sequences(3, 1, 6)
        assert count == len(found) == exactmath.raney(3, 2, 6)
        for seq in found:
            assert len(seq) == 6
            assert all(3 * i <= s <= 19 for i, s in enumerate(seq, 1))
            assert list(seq) == sorted(set(seq))


class TestIdentitySuites:
    def test_section2(self):
        report = verify.check_section2_recurrences(12)
        assert report.passed
        by_key = {(c.params["n"], c.params["which"], c.params["route"]):
                  (c.expected, c.observed) for c in report.cells}
        assert by_key[(1, "a", "mixed")] == (1, 1)
        assert by_key[(2, "a", "mixed")] == (3, 3)
        assert by_key[(1, "b", "mixed")] == (2, 2)
        assert by_key[(2, "b", "mixed")] == (7, 7)
        assert by_key[(0, "a", "conv")] == (1, 1)
        assert by_key[(0, "b", "conv")] == (1, 1)

    def test_section2_oracle_route_for_n_1_to_7(self):
        report = verify.check_section2_recurrences(12)
        oracle_ns = [c.params["n"] for c in report.cells
                     if c.params["route"] == "oracle"]
        assert oracle_ns == [n for n in range(1, 8) for _ in "ab"]

    def test_prop4(self):
        report = verify.check_prop4(15)
        assert report.passed
        diffs = {c.params["n"]: c.observed for c in report.cells
                 if c.params["form"] == "raney(3,4,n-1)"}
        assert diffs[1] == 1
        assert diffs[2] == 4

    def test_catalan_pow2(self):
        report = verify.check_catalan_pow2(25)
        assert report.passed

    def test_prop6(self):
        report = verify.check_prop6(20)
        assert report.passed

    def test_raney_difference(self):
        for k in range(3, 7):
            for l in range(1, k - 1):
                assert verify.check_raney_difference(k, l, 15).passed

    # l = 0 passes ThresholdParams, but the identity needs 1 <= l <= k-2.
    @pytest.mark.parametrize("k", [2, 3, 6])
    def test_raney_difference_rejects_l_0(self, k):
        with pytest.raises(InvalidParameterError,
                           match="^check_raney_difference requires l >= 1$"):
            verify.check_raney_difference(k, 0, 5)

    def test_depth_zero_does_not_pass(self):
        # the suites start at n = 1, so depth 0 compares nothing
        report = verify.check_prop4(0)
        assert not report.cells and not report.passed

    def test_depth_must_be_an_int(self):
        with pytest.raises(InvalidParameterError, match="n must be an int"):
            verify.check_catalan_pow2(True)

    def test_identity_suites_all_pass(self):
        reports = verify.identity_suites()
        assert reports
        assert all(r.passed for r in reports)


class TestBijectionSuite:
    def test_example_cells(self):
        assert verify.check_bijections(4, 2, 4).passed
        assert verify.check_bijections(2, 0, 4).passed
        assert verify.check_bijections(3, 1, 5).passed

    def test_example8_cell_counts(self):
        report = verify.check_bijections(2, 0, 4)
        counts = {c.params["check"]: c for c in report.cells}
        assert counts["tuple-injective"].expected == 14
        assert counts["path-injective"].expected == 14

    # The cells of a passing report, as recorded before each codomain was
    # streamed against its image set.
    @pytest.mark.parametrize("k,l,n,count", [(3, 1, 3, 30), (4, 2, 3, 91)])
    def test_passing_cells_pinned(self, k, l, n, count):
        cells = verify.check_bijections(k, l, n).to_json()["cells"]
        assert cells == [
            {"params": {"check": check, "k": k, "l": l, "n": n},
             "expected": str(value), "observed": str(value), "pass": True}
            for check, value in [("roundtrips", count),
                                 ("tuple-injective", count),
                                 ("tuple-surjective", 0),
                                 ("path-injective", count),
                                 ("path-surjective", 0)]]

    # A map made wrong in one way fails one cell per sequence it gets
    # wrong, and each cell names its sequence.
    @staticmethod
    def sequences_3_1_3():
        return [list(s.values) for s in
                threshold.enumerate_sequences(ThresholdParams(3, 1, 3))]

    # The inverse fails every codomain object, so no sequence is marked:
    # each object is unmatched, and each image is unmet.
    def test_map_raising_fails_a_cell_per_sequence(self, monkeypatch):
        def boom(*args):
            raise EmptyTupleError("boom")
        monkeypatch.setattr(trees, "sequence_of_tuple", boom)
        report = verify.check_bijections(3, 1, 3)
        firsts = [t.to_json() for t in itertools.islice(
            trees.enumerate_tuples(3, 2, 3), verify._OFFENDERS)]
        images = [trees.tuple_of(threshold.validate(
            values, ThresholdParams(3, 1, 3))).to_json()
            for values in self.sequences_3_1_3()[:verify._OFFENDERS]]
        assert [(c.params, c.observed) for c in report.failures] == [
            ({"check": "map-raised", "seq": values}, "EmptyTupleError: boom")
            for values in self.sequences_3_1_3()] + [
            ({"check": "tuple-surjective", "k": 3, "l": 1, "n": 3,
              "unmatched_objects": firsts, "unmet_images": images}, 60)]
        json.dumps(report.to_json())

    # Only the lowest path comes home; every other path is unmatched, and
    # the image of every other sequence unmet.
    def test_wrong_path_inverse_fails_its_round_trips(self, monkeypatch):
        lowest = threshold.validate((3, 6, 9), ThresholdParams(3, 1, 3))
        monkeypatch.setattr(paths, "sequence_of_path", lambda path, l: lowest)
        report = verify.check_bijections(3, 1, 3)
        others = [paths.path_of(threshold.validate(
            values, ThresholdParams(3, 1, 3))).to_json()
            for values in self.sequences_3_1_3()[1:1 + verify._OFFENDERS]]
        assert [(c.params, c.expected, c.observed)
                for c in report.failures] == [
            ({"check": "path-roundtrip", "seq": values}, values, [3, 6, 9])
            for values in self.sequences_3_1_3() if values != [3, 6, 9]] + [
            ({"check": "path-surjective", "k": 3, "l": 1, "n": 3,
              "unmatched_objects": others, "unmet_images": others}, 0, 58)]

    @staticmethod
    def raise_boom(*args):
        raise EmptyTupleError("boom")

    # A ballot map made wrong in one way: each sequence whose word is not
    # isolated, decodes to another sequence, or cannot be encoded fails one
    # cell, and every other sequence none.
    @pytest.mark.parametrize("name,wrong,cell", [
        ("is_k_ballot_isolated", lambda word, k: False,
         lambda values: ("ballot-isolated", True, False)),
        ("from_ballot", lambda word, k, l: threshold.validate(
            (3, 6, 9), ThresholdParams(3, 1, 3)),
         lambda values: ("ballot-roundtrip", values, [3, 6, 9])),
        ("to_ballot", raise_boom,
         lambda values: ("map-raised", "no error", "EmptyTupleError: boom"))],
        ids=["ballot-isolated", "ballot-roundtrip", "map-raised"])
    def test_wrong_ballot_map_fails_its_sequences(self, monkeypatch, name,
                                                  wrong, cell):
        monkeypatch.setattr(ballot, name, wrong)
        report = verify.check_bijections(3, 1, 3)
        expected = []
        for values in self.sequences_3_1_3():
            check, want, got = cell(values)
            if want != got:
                expected.append(({"check": check, "seq": values}, want, got))
        assert [(c.params, c.expected, c.observed)
                for c in report.failures] == expected

    @pytest.mark.parametrize("edit", ["repeat", "drop"])
    @pytest.mark.parametrize("module,name,check", [
        (trees, "enumerate_tuples", "tuple-surjective"),
        (paths, "enumerate_paths", "path-surjective")])
    def test_codomain_repeating_or_dropping_an_object(
            self, monkeypatch, module, name, check, edit):
        original = getattr(module, name)
        firsts = []

        def edited(*args, **kwargs):
            found = list(original(*args, **kwargs))
            firsts.append(found[0].to_json())
            return iter(found + found[:1] if edit == "repeat" else found[1:])
        monkeypatch.setattr(module, name, edited)
        report = verify.check_bijections(3, 1, 3)
        assert [(c.params["check"], c.expected, c.observed)
                for c in report.failures] == [(check, 0, 1)]
        # The repeated first object matches no image left; the dropped
        # one is the image never met.
        params = report.failures[0].params
        assert (params["unmatched_objects"], params["unmet_images"]) == (
            (firsts, []) if edit == "repeat" else ([], firsts))
        json.dumps(report.to_json())

    # Two adjacent sequences sent to one path: the path shared by both is
    # repeated, and the second sequence's own path, which no image now
    # reaches, is unmatched.
    @pytest.mark.parametrize("i", [0, 14, 28])
    def test_two_sequences_sent_to_one_path(self, monkeypatch, i):
        values = self.sequences_3_1_3()
        first, second = values[i:i + 2]
        original = paths.path_of

        def merging(seq):
            if list(seq.values) == second:
                seq = threshold.validate(first, ThresholdParams(3, 1, 3))
            return original(seq)
        monkeypatch.setattr(paths, "path_of", merging)
        report = verify.check_bijections(3, 1, 3)
        failures = {c.params["check"]: c for c in report.failures}
        assert list(failures) == [
            "path-roundtrip", "path-injective", "path-surjective"]
        injective = failures["path-injective"]
        assert (injective.expected, injective.observed) == (30, 29)
        assert injective.params["repeated_images"] == [original(
            threshold.validate(first, ThresholdParams(3, 1, 3))).to_json()]
        surjective = failures["path-surjective"]
        assert (surjective.expected, surjective.observed) == (0, 1)
        skipped = original(threshold.validate(second, ThresholdParams(3, 1, 3)))
        assert (surjective.params["unmatched_objects"],
                surjective.params["unmet_images"]) == ([skipped.to_json()], [])
        json.dumps(report.to_json())

    # Sequence i + 1 sent to the tuple of sequence i: its round trip gives
    # sequence i, one tuple image is lost and the image of sequence i is
    # named as repeated, and the second sequence's own tuple, which no
    # image now reaches, is met in the codomain and not found.
    @pytest.mark.parametrize("i", [0, 14, 28])
    def test_two_sequences_sent_to_one_tuple(self, monkeypatch, i):
        values = self.sequences_3_1_3()
        first, second = values[i:i + 2]
        original = trees.tuple_of

        def merging(seq):
            if list(seq.values) == second:
                seq = threshold.validate(first, ThresholdParams(3, 1, 3))
            return original(seq)
        monkeypatch.setattr(trees, "tuple_of", merging)
        report = verify.check_bijections(3, 1, 3)
        assert [(c.params, c.expected, c.observed)
                for c in report.failures] == [
            ({"check": "tuple-roundtrip", "seq": second}, second, first),
            ({"check": "tuple-injective", "k": 3, "l": 1, "n": 3,
              "repeated_images": [original(threshold.validate(
                  first, ThresholdParams(3, 1, 3))).to_json()]}, 30, 29),
            ({"check": "tuple-surjective", "k": 3, "l": 1, "n": 3,
              "unmatched_objects": [original(threshold.validate(
                  second, ThresholdParams(3, 1, 3))).to_json()],
              "unmet_images": []}, 0, 1)]
        json.dumps(report.to_json())

    # Every sequence sent to one tuple: 30 copies of one key.
    @staticmethod
    def constant_tuple_report(monkeypatch, image):
        monkeypatch.setattr(trees, "tuple_of", lambda seq: image)
        report = verify.check_bijections(3, 1, 3)
        firsts = itertools.islice(trees.enumerate_tuples(3, 2, 3),
                                  verify._OFFENDERS)
        return report, [t.to_json() for t in firsts]

    # The one codomain object that holds the key meets all its copies, so
    # no image is unmet and every other object is unmatched.
    def test_every_sequence_sent_to_one_codomain_tuple(self, monkeypatch):
        image = trees.tuple_of(
            threshold.validate((3, 7, 10), ThresholdParams(3, 1, 3)))
        assert image.to_json() == [[None, None, None],
                                   [None, None, [None, None, None]]]
        report, firsts = self.constant_tuple_report(monkeypatch, image)
        assert [c.params["seq"] for c in report.failures
                if c.params["check"] == "tuple-roundtrip"] == [
            values for values in self.sequences_3_1_3()
            if values != [3, 7, 10]]
        assert [(c.params, c.expected, c.observed) for c in report.failures
                if "seq" not in c.params] == [
            ({"check": "tuple-injective", "k": 3, "l": 1, "n": 3,
              "repeated_images": [image.to_json()]}, 30, 1),
            ({"check": "tuple-surjective", "k": 3, "l": 1, "n": 3,
              "unmatched_objects": firsts, "unmet_images": []}, 0, 29)]
        assert len(report.failures) == 31
        json.dumps(report.to_json())

    # A tuple outside the codomain: every object is unmatched, and the one
    # image is unmet once, whatever its number of copies.
    def test_every_sequence_sent_to_one_tuple_outside_the_codomain(
            self, monkeypatch):
        image = trees.TreeTuple(3, (trees.trivial(3), trees.trivial(3)))
        report, firsts = self.constant_tuple_report(monkeypatch, image)
        assert [c.params["seq"] for c in report.failures
                if c.params["check"] == "map-raised"] == self.sequences_3_1_3()
        assert [(c.params, c.expected, c.observed) for c in report.failures
                if "seq" not in c.params] == [
            ({"check": "tuple-injective", "k": 3, "l": 1, "n": 3,
              "repeated_images": [[None, None]]}, 30, 1),
            ({"check": "tuple-surjective", "k": 3, "l": 1, "n": 3,
              "unmatched_objects": firsts, "unmet_images": [[None, None]]},
             0, 31)]
        assert len(report.failures) == 32
        json.dumps(report.to_json())

    # A malformed image sent by every sequence is named as its bytes both
    # as the repeated image and as the unmet one.
    def test_malformed_repeated_image_named_as_its_bytes(self, monkeypatch):
        image = trees.TreeTuple(
            3, (trees.KaryTree._of(3, bytes([1, 0])), trees.trivial(3)))
        report, firsts = self.constant_tuple_report(monkeypatch, image)
        assert [(c.params, c.expected, c.observed) for c in report.failures
                if "seq" not in c.params] == [
            ({"check": "tuple-injective", "k": 3, "l": 1, "n": 3,
              "repeated_images": [[[1, 0], None]]}, 30, 1),
            ({"check": "tuple-surjective", "k": 3, "l": 1, "n": 3,
              "unmatched_objects": firsts, "unmet_images": [[[1, 0], None]]},
             0, 31)]
        json.dumps(report.to_json())

    # With no codomain object, the images of the first three sequences in
    # lexicographic order are named.
    def test_unmet_images_named_in_sequence_order(self, monkeypatch):
        monkeypatch.setattr(trees, "enumerate_tuples",
                            lambda *args, **kwargs: iter(()))
        report = verify.check_bijections(3, 1, 3)
        leaf = [None, None, None]
        assert report.failures[0].params["unmet_images"] == [
            [[None, None, [None, None, leaf]], None],
            [[None, None, leaf], leaf],
            [[None, [None, None, leaf], None], None]]

    # tuple_of sends [3, 6, 10] to a tuple of the given words in place of
    # its image, whose JSON is returned.
    @staticmethod
    def break_image_of_3_6_10(monkeypatch, *words):
        original = trees.tuple_of

        def broken(seq):
            if seq.values == (3, 6, 10):
                return trees.TreeTuple(3, tuple(trees.KaryTree._of(3, word)
                                                for word in words))
            return original(seq)
        monkeypatch.setattr(trees, "tuple_of", broken)
        image = original(
            threshold.validate((3, 6, 10), ThresholdParams(3, 1, 3)))
        assert image.to_json() == [[None, None, [None, None, None]],
                                   [None, None, None]]
        return image.to_json()

    # A first word one byte short, or with three more leaves, still round
    # trips; the image is unmet and named as it is, each malformed entry as
    # its bytes, and no exception escapes.
    @pytest.mark.parametrize("first", [bytes([1, 0, 0, 1, 0, 0]),
                                       bytes([1, 0, 0, 1, 0, 0, 0, 0, 0, 0])],
                             ids=["short", "long"])
    def test_malformed_tree_word_named_as_its_bytes(self, monkeypatch, first):
        image = self.break_image_of_3_6_10(monkeypatch, first,
                                           bytes([1, 0, 0, 0]))
        report = verify.check_bijections(3, 1, 3)
        assert [(c.params, c.expected, c.observed)
                for c in report.failures] == [
            ({"check": "tuple-surjective", "k": 3, "l": 1, "n": 3,
              "unmatched_objects": [image],
              "unmet_images": [[list(first), [None, None, None]]]}, 0, 2)]
        json.dumps(report.to_json())

    # One tree whose word is the image's two words joined by the byte 2:
    # its key is not the image's, so both fail surjectivity.
    def test_word_holding_the_separator_byte_is_unmet(self, monkeypatch):
        word = bytes([1, 0, 0, 1, 0, 0, 0, 2, 1, 0, 0, 0])
        image = self.break_image_of_3_6_10(monkeypatch, word)
        report = verify.check_bijections(3, 1, 3)
        assert [(c.params, c.expected, c.observed) for c in report.failures
                if c.params["check"] != "map-raised"] == [
            ({"check": "tuple-surjective", "k": 3, "l": 1, "n": 3,
              "unmatched_objects": [image], "unmet_images": [[list(word)]]},
             0, 2)]
        assert [c.params["seq"] for c in report.failures
                if c.params["check"] == "map-raised"] == [[3, 6, 10]]
        json.dumps(report.to_json())

    def test_malformed_codomain_tuple_named_as_its_bytes(self, monkeypatch):
        original = trees.enumerate_tuples
        malformed = trees.TreeTuple(
            3, (trees.KaryTree._of(3, bytes([1, 0, 0])), trees.trivial(3)))
        monkeypatch.setattr(
            trees, "enumerate_tuples",
            lambda *args, **kwargs: itertools.chain(
                original(*args, **kwargs), [malformed]))
        report = verify.check_bijections(3, 1, 3)
        assert [(c.params, c.expected, c.observed)
                for c in report.failures] == [
            ({"check": "tuple-surjective", "k": 3, "l": 1, "n": 3,
              "unmatched_objects": [[[1, 0, 0], None]], "unmet_images": []},
             0, 1)]
        json.dumps(report.to_json())

    # With no image held, each codomain key falls past the end of the empty
    # key list, and every object is met and not found.
    def test_tuple_map_raising_on_every_sequence(self, monkeypatch):
        def boom(seq):
            raise EmptyTupleError("boom")
        monkeypatch.setattr(trees, "tuple_of", boom)
        report = verify.check_bijections(3, 1, 3)
        cells = {c.params["check"]: c for c in report.cells}
        assert [c.params["seq"] for c in report.cells
                if c.params["check"] == "map-raised"] == self.sequences_3_1_3()
        injective = cells["tuple-injective"]
        assert (injective.params["repeated_images"], injective.expected,
                injective.observed) == ([], 30, 0)
        surjective = cells["tuple-surjective"]
        firsts = itertools.islice(trees.enumerate_tuples(3, 2, 3),
                                  verify._OFFENDERS)
        assert (surjective.params["unmatched_objects"],
                surjective.params["unmet_images"], surjective.expected,
                surjective.observed) == ([t.to_json() for t in firsts], [],
                                         0, 30)
        json.dumps(report.to_json())

    # With no codomain object every image is unmet; the cell names
    # _OFFENDERS of them, and here only what each one is gets pinned.
    def test_empty_tuple_codomain(self, monkeypatch):
        monkeypatch.setattr(trees, "enumerate_tuples",
                            lambda *args, **kwargs: iter(()))
        report = verify.check_bijections(3, 1, 3)
        assert [(c.params["check"], c.expected, c.observed)
                for c in report.failures] == [("tuple-surjective", 0, 30)]
        params = report.failures[0].params
        assert params["unmatched_objects"] == []
        unmet = params["unmet_images"]
        assert len(unmet) == verify._OFFENDERS
        assert len({json.dumps(image) for image in unmet}) == len(unmet)
        cell = self.sequences_3_1_3()
        for image in unmet:
            t = trees.TreeTuple.from_json(3, image)
            assert list(trees.sequence_of_tuple(t, 3).values) in cell
        json.dumps(report.to_json())

    # The named offenders follow the order of the sorted keys, so a fresh
    # process under another hash seed writes the same failing report.
    @pytest.mark.parametrize("codomain", ["[]", "found[5:]"])
    def test_failing_report_independent_of_hash_seed(self, codomain):
        script = (
            "import json\n"
            "from raneyseq import trees, verify\n"
            "original = trees.enumerate_tuples\n"
            "def edited(*args, **kwargs):\n"
            "    found = list(original(*args, **kwargs))\n"
            f"    return iter({codomain})\n"
            "trees.enumerate_tuples = edited\n"
            "report = verify.check_bijections(3, 1, 3).to_json()\n"
            "del report['elapsed']\n"
            "print(json.dumps(report))\n")
        src = str(Path(verify.__file__).parents[1])
        reports = []
        for seed in ("0", "1"):
            env = {**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed}
            proc = subprocess.run([sys.executable, "-c", script],
                                  capture_output=True, text=True, env=env,
                                  timeout=60, check=True)
            reports.append(json.loads(proc.stdout))
        assert not reports[0]["pass"]
        assert reports[0] == reports[1]

    # Two adjacent sequences swapped by the enumerator: each is named with
    # its index and its rank, and every codomain object still comes home.
    # With the path of the first dropped as well, the walk of the unreached
    # sequences goes by rank, not by position, and names that path.
    @pytest.mark.parametrize("drop", [False, True], ids=["kept", "dropped"])
    def test_swapped_sequences_fail_their_ranks(self, monkeypatch, drop):
        original = threshold.enumerate_sequences
        values = self.sequences_3_1_3()
        first = paths.path_of(threshold.validate(
            values[14], ThresholdParams(3, 1, 3)))
        codomain = [p for p in paths.enumerate_paths(3, 1, 3)
                    if not drop or p != first]

        def swapped(*args, **kwargs):
            found = list(original(*args, **kwargs))
            found[14:16] = found[15:13:-1]
            return iter(found)
        monkeypatch.setattr(threshold, "enumerate_sequences", swapped)
        monkeypatch.setattr(paths, "enumerate_paths",
                            lambda *args, **kwargs: iter(codomain))
        report = verify.check_bijections(3, 1, 3)
        assert [(c.params, c.expected, c.observed)
                for c in report.failures] == [
            ({"check": "seq-rank", "seq": values[15]}, 14, 15),
            ({"check": "seq-rank", "seq": values[14]}, 15, 14)] + [
            ({"check": "path-surjective", "k": 3, "l": 1, "n": 3,
              "unmatched_objects": [], "unmet_images": [first.to_json()]},
             0, 1)] * drop

    # A path inverse past the upper bound, built past the constructor's
    # checks: every path is unmatched, and each round trip raises as a
    # failing cell.
    def test_path_inverse_past_the_upper_bound(self, monkeypatch):
        params = ThresholdParams(3, 1, 3)
        monkeypatch.setattr(paths, "sequence_of_path", lambda path, l:
                            threshold.ThresholdSequence._of(params, (3, 6, 11)))
        report = verify.check_bijections(3, 1, 3)
        assert {(c.params["check"], c.observed) for c in report.failures
                if "seq" in c.params} == {(
                    "map-raised", "BoundViolationError: value 11 at index 3 "
                    "violates threshold bounds")}
        assert [(c.params["check"], c.expected, c.observed)
                for c in report.failures if "seq" not in c.params] == [
            ("path-surjective", 0, 60)]
        json.dumps(report.to_json())

    # The enumerator yields one more sequence, the last raised by 50, which
    # no rank, map or ballot word may see: it fails seq-valid once, and the
    # rest of the report is the report without it, also when a broken path
    # inverse makes the path half walk the sequences again.
    @pytest.mark.parametrize("walk", [False, True], ids=["loop", "walk"])
    def test_sequence_outside_the_cell_fails_seq_valid(self, monkeypatch,
                                                        walk):
        if walk:
            lowest = threshold.validate((3, 6, 9), ThresholdParams(3, 1, 3))
            monkeypatch.setattr(paths, "sequence_of_path",
                                lambda path, l: lowest)
        rest = [(c.params, c.expected, c.observed)
                for c in verify.check_bijections(3, 1, 3).failures]
        assert bool(rest) == walk
        original = threshold.enumerate_sequences
        outside = tuple(v + 50 for v in self.sequences_3_1_3()[-1])

        def appended(params, budget=None):
            yield from original(params, budget=budget)
            yield threshold.ThresholdSequence._of(params, outside)
        monkeypatch.setattr(threshold, "enumerate_sequences", appended)
        report = verify.check_bijections(3, 1, 3)
        assert [(c.params, c.expected, c.observed)
                for c in report.failures] == [
            ({"check": "seq-valid", "seq": [58, 59, 60]}, "no error",
             "BoundViolationError: value 58 at index 1 violates threshold "
             "bounds")] + rest
        json.dumps(report.to_json())

    # A passing cell walks the sequences once; only a failing half walks
    # them again.
    def test_passing_cell_enumerates_once(self, monkeypatch):
        original, calls = threshold.enumerate_sequences, []

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)
        monkeypatch.setattr(threshold, "enumerate_sequences", counted)
        assert verify.check_bijections(3, 1, 3).passed
        assert len(calls) == 1

    # A cell past the budget raises before the rank table is built or any
    # sequence is enumerated.
    def test_budget_checked_first(self, monkeypatch):
        calls = []
        monkeypatch.setattr(verify, "_ranker", calls.append)
        monkeypatch.setattr(threshold, "enumerate_sequences", calls.append)
        budget = exactmath.raney(3, 2, 3) - 1
        with pytest.raises(BudgetExceededError):
            verify.check_bijections(3, 1, 3, budget=budget)
        assert calls == []

    def test_more_offenders_than_named(self, monkeypatch):
        original = paths.enumerate_paths
        firsts = []

        def twice(*args, **kwargs):
            found = list(original(*args, **kwargs))
            firsts.extend(path.to_json() for path in found[:verify._OFFENDERS])
            return iter(found + found)
        monkeypatch.setattr(paths, "enumerate_paths", twice)
        report = verify.check_bijections(3, 1, 3)
        count = exactmath.raney(3, 2, 3)
        assert count > verify._OFFENDERS
        assert [(c.params["check"], c.expected, c.observed)
                for c in report.failures] == [("path-surjective", 0, count)]
        # every second copy is unmatched; only the first _OFFENDERS are named
        assert report.failures[0].params["unmatched_objects"] == firsts


class TestRanker:
    @staticmethod
    def cells(n):
        return [ThresholdParams(k, l, n) for k in range(2, 7)
                for l in range(k - 1)]

    @pytest.mark.parametrize("n", range(1, 13))
    def test_total_is_the_raney_number(self, n):
        for params in self.cells(n):
            total, _ = verify._ranker(params)
            assert total == exactmath.raney(params.k, params.l + 1, n)

    # The lowest sequence, s_i = k*i, and the highest, which ends at the
    # upper bound and rises by one, rank first and last.
    def test_ends_at_n_300(self):
        for params in self.cells(300):
            total, rank = verify._ranker(params)
            assert total == exactmath.raney(params.k, params.l + 1, 300)
            assert rank(tuple(params.lowers)) == 0
            highest = range(params.upper - 299, params.upper + 1)
            assert rank(tuple(highest)) == total - 1

    @pytest.mark.parametrize("k,l,n", [(4, 2, 4), (2, 0, 8)])
    def test_rank_is_the_enumeration_index(self, k, l, n):
        params = ThresholdParams(k, l, n)
        _, rank = verify._ranker(params)
        for index, seq in enumerate(threshold.enumerate_sequences(params)):
            assert rank(seq.values) == index

    # A table 4301 entries wide.  The suite converts no int from a string,
    # so Python's 4300-digit cap on that conversion cannot stop it.
    def test_wide_table(self):
        assert verify.check_bijections(4299, 0, 1).passed


class TestTreeWord:
    # Every word of the bytes 0, 1 and 2 up to length 7 passes the test
    # exactly when the tree enumerator makes it.
    @pytest.mark.parametrize("k", [2, 3])
    def test_agrees_with_the_tree_enumerator(self, k):
        words = {tree.word for n in range(7 // k + 1)
                 for tree in trees.enumerate_trees(k, n)}
        assert len(words) == sum(exactmath.raney(k, 1, n)
                                 for n in range(7 // k + 1))
        for length in range(8):
            for word in map(bytes, itertools.product((0, 1, 2),
                                                     repeat=length)):
                assert verify._is_tree_word(k, word) == (word in words), word


class TestBallotClaim:
    def test_measurement(self):
        report = verify.check_ballot_claim()
        assert report.passed
        summary = verify.ballot_claim_summary(report)
        assert summary["all_sequences_match_raney"] is True
        assert summary["exact_a_words_match_proper_count"] is True
        json.dumps(summary)  # serializable

    def test_tracked_report_is_the_summary(self):
        tracked = Path(__file__).parents[1] / "reports" / "ballot_claim.json"
        summary = verify.ballot_claim_summary(verify.check_ballot_claim())
        assert tracked.read_text() == json.dumps(summary, indent=2)
