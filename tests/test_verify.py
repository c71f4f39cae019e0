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

    def test_map_raising_fails_a_cell_per_sequence(self, monkeypatch):
        def boom(*args):
            raise EmptyTupleError("boom")
        monkeypatch.setattr(trees, "sequence_of_tuple", boom)
        report = verify.check_bijections(3, 1, 3)
        assert [(c.params, c.observed) for c in report.failures] == [
            ({"check": "map-raised", "seq": values}, "EmptyTupleError: boom")
            for values in self.sequences_3_1_3()]
        json.dumps(report.to_json())

    def test_wrong_path_inverse_fails_its_round_trips(self, monkeypatch):
        lowest = threshold.validate((3, 6, 9), ThresholdParams(3, 1, 3))
        monkeypatch.setattr(paths, "sequence_of_path", lambda path, l: lowest)
        report = verify.check_bijections(3, 1, 3)
        assert [(c.params, c.expected, c.observed)
                for c in report.failures] == [
            ({"check": "path-roundtrip", "seq": values}, values, [3, 6, 9])
            for values in self.sequences_3_1_3() if values != [3, 6, 9]]

    def test_word_not_ballot_isolated(self, monkeypatch):
        monkeypatch.setattr(ballot, "is_k_ballot_isolated",
                            lambda word, k: False)
        report = verify.check_bijections(3, 1, 3)
        assert [(c.params, c.expected, c.observed)
                for c in report.failures] == [
            ({"check": "ballot-isolated", "seq": values}, True, False)
            for values in self.sequences_3_1_3()]

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

    # Two adjacent sequences sent to one path: the second image does not
    # rise, and the second sequence's own path, which no image now reaches,
    # is passed over once (at i = 28, after the last sequence).
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
        assert injective.params["not_rising"] == [[first, second]]
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

    # With no codomain object, the first three images in key order are
    # named, as recorded when the keys were first sorted.
    def test_unmet_images_named_in_key_order(self, monkeypatch):
        monkeypatch.setattr(trees, "enumerate_tuples",
                            lambda *args, **kwargs: iter(()))
        report = verify.check_bijections(3, 1, 3)
        leaf = [None, None, None]
        assert report.failures[0].params["unmet_images"] == [
            [None, [None, None, [None, None, leaf]]],
            [None, [None, None, [None, leaf, None]]],
            [None, [None, None, [leaf, None, None]]]]

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


class TestTupleKey:
    @staticmethod
    def tuple_of_words(k, *words):
        return trees.TreeTuple(k, tuple(trees.KaryTree._of(k, word)
                                        for word in words))

    @pytest.mark.parametrize("k,l,n", [(3, 1, 4), (2, 0, 6), (4, 0, 4), (5, 3, 3)])
    def test_decodes_every_tuple_of_a_cell(self, k, l, n):
        tuples = list(trees.enumerate_tuples(k, l + 1, n))
        keys = [verify._tuple_key(t) for t in tuples]
        assert len(set(keys)) == len(keys) == exactmath.raney(k, l + 1, n)
        for t, key in zip(tuples, keys):
            assert verify._tuple_of_key(k, key) == t

    # Words of bytes 0 and 1 that join to the same bytes but split
    # differently, or that differ by a leading or trailing 0
    @pytest.mark.parametrize("words,other", [
        ((b"\x00\x01\x00", b"\x01\x00\x00"), (b"\x00", b"\x01\x00\x01\x00\x00")),
        ((b"\x01\x00\x00",), (b"\x01\x00\x00\x00",)),
        ((b"\x01\x00\x00", b"\x00"), (b"\x01\x00\x00\x00",)),
        ((b"\x01",), (b"\x00\x01",))])
    def test_exact_on_words_of_0_and_1(self, words, other):
        t, u = self.tuple_of_words(2, *words), self.tuple_of_words(2, *other)
        assert verify._tuple_key(t) != verify._tuple_key(u)
        for each in (t, u):
            assert verify._tuple_of_key(2, verify._tuple_key(each)) == each

    def test_any_other_byte_still_has_a_key(self):
        t = self.tuple_of_words(2, b"\x01\x05\xff", b"\x02")
        assert isinstance(verify._tuple_key(t), int)

    # A byte 2 in a word is not a separator, and other bytes stay apart.
    def test_exact_on_any_word_bytes(self):
        tuples = [self.tuple_of_words(2, b"\x01\x05\x00"),
                  self.tuple_of_words(2, b"\x01\x02\x00"),
                  self.tuple_of_words(2, b"\x01", b"\x00"),
                  self.tuple_of_words(2, b"", b"\x01\x00\xff", b"")]
        keys = [verify._tuple_key(t) for t in tuples]
        assert len(set(keys)) == len(keys)
        for t, key in zip(tuples, keys):
            assert verify._tuple_of_key(2, key) == t

    # A tuple of trees costs two bits per node and per separator, past the
    # leading 1: its words are their own digits.
    @pytest.mark.parametrize("k,r,n", [(2, 1, 6), (3, 2, 4), (5, 4, 3)])
    def test_two_bits_per_node(self, k, r, n):
        for t in trees.enumerate_tuples(k, r, n):
            digits = sum(tree.node_count for tree in t.trees) + r - 1
            assert verify._tuple_key(t).bit_length() == 2 * digits + 1

    # One tree of k + 1 letters: a key of 4301 digits, one past the cap
    # on int-from-string conversion in a base that is not a power of two.
    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no cap on int-to-str digits before 3.10.7")
    def test_key_longer_than_the_int_from_str_cap(self):
        cap = sys.int_info.default_max_str_digits
        k = cap - 1
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(cap)
        try:
            t, = trees.enumerate_tuples(k, 1, 1)
            assert verify._tuple_of_key(k, verify._tuple_key(t)) == t
            assert verify.check_bijections(k, 0, 1).passed
        finally:
            sys.set_int_max_str_digits(saved)


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
