import hashlib
import json
import os
import re
import subprocess
import sys

import pytest

import raneyseq
from raneyseq import ballot, paths, threshold, trees
from raneyseq.cli import main
from raneyseq.errors import EmptyTupleError
from raneyseq.exactmath import raney
from raneyseq.threshold import ThresholdParams


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def without_elapsed(out, reports):
    """The output with the "elapsed" field taken from each of its reports,
    the one value that changes from run to run."""
    text, found = re.subn(r'"elapsed": [^,]*, ', "", out)
    assert found == reports
    return text


class TestCount:
    def test_b2(self, capsys):
        code, out = run(capsys, "count", "--k", "3", "--l", "1", "--n", "2")
        assert code == 0
        assert out.strip() == "7"

    def test_proper(self, capsys):
        code, out = run(capsys, "count", "--k", "3", "--l", "1", "--n", "2",
                        "--proper")
        assert code == 0
        assert out.strip() == "4"

    def test_invalid_l(self, capsys):
        code, _ = run(capsys, "count", "--k", "3", "--l", "2", "--n", "2")
        assert code == 2

    def test_no_offset_option(self, capsys):
        # no count depends on d
        with pytest.raises(SystemExit) as exc:
            main(["count", "--k", "3", "--l", "1", "--n", "2", "--d", "1"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no cap on int-to-str digits before 3.10.7")
    def test_answer_longer_than_the_int_to_str_cap(self, capsys):
        cap = sys.int_info.default_max_str_digits
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(cap)
        try:
            code, out = run(capsys, "count", "--k", "3", "--l", "1",
                            "--n", "6000")
            assert sys.get_int_max_str_digits() == cap  # restored
            sys.set_int_max_str_digits(0)
            assert code == 0
            assert len(out) - 1 > cap
            assert out == f"{raney(3, 2, 6000)}\n"
        finally:
            sys.set_int_max_str_digits(saved)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no cap on int-to-str digits before 3.10.7")
    def test_answer_printed_without_touching_the_digit_cap(
            self, capsys, monkeypatch):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        expected = f"{raney(3, 2, 6000)}\n"
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)

        def refuse(maxdigits):
            raise AssertionError("count set the int-to-str digit cap")
        monkeypatch.setattr(sys, "set_int_max_str_digits", refuse)
        try:
            code, out = run(capsys, "count", "--k", "3", "--l", "1",
                            "--n", "6000")
        finally:
            monkeypatch.undo()
            sys.set_int_max_str_digits(saved)
        assert (code, out) == (0, expected)


class TestEnumerate:
    def test_catalan_cell_json(self, capsys):
        code, out = run(capsys, "enumerate", "--k", "2", "--l", "0", "--n", "4",
                        "--format", "json")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 14
        first = json.loads(lines[0])
        assert first == {"k": 2, "l": 0, "n": 4, "d": 0,
                         "values": [2, 4, 6, 8]}

    def test_deterministic(self, capsys):
        _, first = run(capsys, "enumerate", "--k", "3", "--l", "1", "--n", "3")
        _, second = run(capsys, "enumerate", "--k", "3", "--l", "1", "--n", "3")
        assert first == second

    def test_csv(self, capsys):
        code, out = run(capsys, "enumerate", "--k", "3", "--l", "0", "--n", "1",
                        "--format", "csv")
        assert code == 0
        assert out.strip() == "3"

    def test_paths(self, capsys):
        code, out = run(capsys, "enumerate", "--k", "2", "--l", "0", "--n", "4",
                        "--kind", "path")
        assert code == 0
        assert len(out.strip().splitlines()) == 14

    def test_trees(self, capsys):
        code, out = run(capsys, "enumerate", "--k", "3", "--n", "2",
                        "--kind", "tree")
        assert code == 0
        assert len(out.strip().splitlines()) == 3

    def test_tuples(self, capsys):
        code, out = run(capsys, "enumerate", "--k", "3", "--l", "1", "--n", "2",
                        "--kind", "tuple")
        assert code == 0
        assert len(out.strip().splitlines()) == 7

    def test_budget_exceeded(self, capsys):
        code, _ = run(capsys, "enumerate", "--k", "2", "--l", "0", "--n", "6",
                      "--budget", "3")
        assert code == 2

    def test_budget_read_only_from_the_option(self, capsys, monkeypatch):
        monkeypatch.setenv("RANEYSEQ_BUDGET", "1")
        code, out = run(capsys, "enumerate", "--k", "2", "--n", "3")
        assert code == 0
        assert len(out.splitlines()) == 5

    def test_negative_budget_rejected_at_parse_time(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["enumerate", "--k", "2", "--n", "3", "--budget", "-1"])
        assert exc.value.code == 2
        assert "exceeded" not in capsys.readouterr().err

    @pytest.mark.parametrize("kind,fmt", [("seq", "dot"), ("seq", "ascii"),
                                          ("path", "dot"), ("tree", "csv"),
                                          ("tree", "ascii"), ("tuple", "csv")])
    def test_format_the_kind_cannot_emit(self, capsys, kind, fmt):
        code, out = run(capsys, "enumerate", "--k", "3", "--l", "1", "--n", "2",
                        "--kind", kind, "--format", fmt)
        assert code == 2
        assert out == ""

    # SHA-256 of the exact output, recorded before trees were stored as
    # preorder words; the tree export must stay byte-identical.
    @pytest.mark.parametrize("argv,lines,digest", [
        (["--k", "2", "--n", "6", "--kind", "tree"], 132,
         "a7f6f1c565788362bacc6e7c99d9313412668a22ffc800c279dc20d9be08ef35"),
        (["--k", "3", "--n", "5", "--kind", "tree", "--format", "dot"], 9282,
         "319ff3659deb652322591c8b87454b791928ec5c59442585e48a2031ad4c67e4"),
        (["--k", "4", "--l", "2", "--n", "4", "--kind", "tuple"], 612,
         "c9073faad57928151bf446c55550e6e37f53236907380e44920c244dbaac669b"),
    ])
    def test_tree_output_pinned(self, capsys, argv, lines, digest):
        code, out = run(capsys, "enumerate", *argv)
        assert code == 0
        assert out.count("\n") == lines
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_ascii_paths_pinned(self, capsys):
        # drawings separated by a blank line; recorded as above
        code, out = run(capsys, "enumerate", "--k", "2", "--n", "4",
                        "--kind", "path", "--format", "ascii")
        assert code == 0
        assert out.count("\n\n") == 14
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "965aa7d154099da99e4104b630138a90d4ffff7381295118bd8a5bd3cb4ea891"

    @pytest.mark.parametrize("kind", ["path", "tree", "tuple"])
    def test_offset_for_a_kind_without_one(self, capsys, kind):
        code, out = run(capsys, "enumerate", "--k", "3", "--l", "1", "--n", "2",
                        "--kind", kind, "--d", "1")
        assert code == 2
        assert out == ""

    # Tuples have one object of size 0, so they share only the l rule.
    @pytest.mark.parametrize("l,n,kinds", [
        pytest.param("1", "0", ("seq", "path"), id="1-0"),
        pytest.param("2", "3", ("seq", "path", "tuple"), id="2-3")])
    def test_sequences_and_paths_reject_a_cell_alike(self, capsys, l, n,
                                                     kinds):
        errors = []
        for kind in kinds:
            code = main(["enumerate", "--k", "3", "--l", l, "--n", n,
                         "--kind", kind])
            captured = capsys.readouterr()
            assert code == 2
            assert captured.out == ""
            errors.append(captured.err)
        assert errors == errors[:1] * len(kinds)
        assert errors[0].startswith("error: ") and errors[0].count("\n") == 1

    def test_nonzero_l_for_trees(self, capsys):
        code, out = run(capsys, "enumerate", "--k", "3", "--l", "1", "--n", "1",
                        "--kind", "tree")
        assert code == 2
        assert out == ""
        code, out = run(capsys, "enumerate", "--k", "3", "--l", "0", "--n", "1",
                        "--kind", "tree")
        assert code == 0
        assert out == "[null, null, null]\n"

    def test_offset_for_sequences(self, capsys):
        code, out = run(capsys, "enumerate", "--k", "3", "--l", "1", "--n", "2",
                        "--d", "2", "--format", "csv")
        assert code == 0
        assert out.split() == ["5,8", "5,9", "6,8", "6,9", "7,8", "7,9", "8,9"]


EXAMPLE_7 = "7,15,16,21,28,30,38"
TUPLE_7_9_17_18 = ("[null, [null, [null, null, null, null], null, null], "
                   "[[null, null, null, null], null, null, null]]")


@pytest.mark.parametrize("argv", [
    ["count", "--n", "2"],
    ["verify", "--n", "2"],
    *(["enumerate", "--n", "2", "--kind", kind]
      for kind in ("seq", "tree", "tuple", "path")),
    ["map", "seq-to-trees", "--seq", "3,6"],
    ["map", "trees-to-seq", "--tuple", "[[null, null, null]]"],
    ["map", "seq-to-path", "--seq", "3,6"],
    ["map", "path-to-seq", "--path", "0,0"],
    ["map", "seq-to-ballot", "--seq", "3,6"],
    ["map", "ballot-to-seq", "--word", "AAAABAAAB"]],
    ids=" ".join)
def test_arity_below_two_rejected_alike(capsys, argv):
    code = main([*argv, "--k", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: k must be >= 2\n"


@pytest.mark.parametrize("argv", [
    ["enumerate", "--kind", "seq"],
    ["enumerate", "--kind", "path"],
    ["verify"]], ids=" ".join)
def test_large_n_fails_in_one_line(argv):
    # a fresh process, so the recursion limit and stderr are the real ones
    src = os.path.dirname(os.path.dirname(raneyseq.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-m", "raneyseq.cli", *argv, "--k", "2",
         "--n", "2000", "--budget", "1"],
        capture_output=True, text=True, env=env, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: ")
    assert proc.stderr.count("\n") == 1
    assert "Traceback" not in proc.stderr


# verify checks the budget before it enumerates, so only a budget above
# the cell's count lets it reach the recursion limit, which still ends in
# one line.
def test_verify_past_the_recursion_limit():
    src = os.path.dirname(os.path.dirname(raneyseq.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    budget = str(raney(2, 1, 1000) + 1)
    proc = subprocess.run(
        [sys.executable, "-m", "raneyseq.cli", "verify", "--k", "2",
         "--n", "1000", "--budget", budget],
        capture_output=True, text=True, env=env, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == (
        "error: n is too large for the recursive enumerator\n")


class TestMap:
    def test_seq_to_path_example7(self, capsys):
        code, out = run(capsys, "map", "seq-to-path", "--k", "5", "--l", "3",
                        "--seq", "7,15,16,21,28,30,38", "--format", "csv")
        assert code == 0
        assert out.strip() == "2,3,-4,0,2,-3,3"

    def test_path_to_seq(self, capsys):
        code, out = run(capsys, "map", "path-to-seq", "--k", "5", "--l", "3",
                        "--path", "2,3,-4,0,2,-3,3")
        assert code == 0
        assert json.loads(out)["values"] == [7, 15, 16, 21, 28, 30, 38]

    def test_seq_to_trees_and_back(self, capsys):
        code, out = run(capsys, "map", "seq-to-trees", "--k", "4", "--l", "2",
                        "--seq", "7,9,17,18")
        assert code == 0
        encoded = out.strip()
        tuple_json = json.loads(encoded)
        assert tuple_json[0] is None  # leading trivial tree
        code, out = run(capsys, "map", "trees-to-seq", "--k", "4",
                        "--tuple", encoded)
        assert code == 0
        assert json.loads(out)["values"] == [7, 9, 17, 18]

    @pytest.mark.parametrize("k,l,values", [
        (2, 0, range(2, 10001, 2)),  # one chain 5000 internal nodes deep
        (3, 1, range(10002, 15002))])
    def test_seq_to_trees_and_back_deep(self, capsys, k, l, values):
        seq = ",".join(map(str, values))
        code, out = run(capsys, "map", "seq-to-trees", "--k", str(k),
                        "--l", str(l), "--seq", seq)
        assert code == 0
        code, back = run(capsys, "map", "trees-to-seq", "--k", str(k),
                         "--tuple", out.strip(), "--format", "csv")
        assert code == 0
        assert back == seq + "\n"

    def test_seq_to_trees_pinned(self, capsys):
        code, out = run(capsys, "map", "seq-to-trees", "--k", "4", "--l", "2",
                        "--seq", "7,9,17,18")
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "79ca0b9af094082ec7af6475fa77a4a52eea78b97f489365e16279bf4b3f94d6"

    @pytest.mark.parametrize("direction,option", [
        ("seq-to-trees", "--seq"), ("trees-to-seq", "--tuple"),
        ("seq-to-path", "--seq"), ("path-to-seq", "--path"),
        ("seq-to-ballot", "--seq"), ("ballot-to-seq", "--word")])
    def test_missing_input(self, capsys, direction, option):
        code = main(["map", direction, "--k", "3"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {direction} needs {option}\n"

    # SHA-256 of each direction's output, recorded before the CLI wrote
    # through one table of writers; the bytes must not change.  The
    # seq-to-trees output is pinned above.
    @pytest.mark.parametrize("argv,digest", [
        (["trees-to-seq", "--k", "4", "--tuple", TUPLE_7_9_17_18],
         "1b0feb4b0f699c4f37e7461d2491c9faa90881161a2f53c7ae2fafeca48dab92"),
        (["seq-to-path", "--k", "5", "--l", "3", "--seq", EXAMPLE_7],
         "0ed145bb918396460d0e02762402b4074d0499fbf2670cd18ed1927e812cb46a"),
        (["seq-to-path", "--k", "5", "--l", "3", "--seq", EXAMPLE_7,
          "--format", "csv"],
         "c3754a9de3dd084731f4fdec260ddf948c6a05934ca9d74087b0b71199876ff2"),
        (["seq-to-path", "--k", "5", "--l", "3", "--seq", EXAMPLE_7,
          "--format", "ascii"],
         "fc12897cc69db5e41d910a17aff4d5008abd1daed47ecb28e338b962778895c2"),
        (["path-to-seq", "--k", "5", "--l", "3", "--path", "2,3,-4,0,2,-3,3"],
         "fdacc67afce718ba8a674b6fbb74e1fd7f22381dadb052c2a9dc898ee7c72749"),
        (["seq-to-ballot", "--k", "3", "--seq", "3,6"],
         "3fce46a4853a9f90bc318da5b49cbd9ece040343ddd673c58e292a523083b57c"),
        (["ballot-to-seq", "--k", "3", "--word", "AAAABAAAB"],
         "fddb19a65f173d5c6d3076b63e7ee88d18370565fabc8b287658a5030f5df014"),
    ])
    def test_output_pinned(self, capsys, argv, digest):
        code, out = run(capsys, "map", *argv)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == digest

    def test_seq_output_as_csv(self, capsys):
        code, out = run(capsys, "map", "trees-to-seq", "--k", "4",
                        "--tuple", TUPLE_7_9_17_18, "--format", "csv")
        assert code == 0
        assert out == "7,9,17,18\n"

    @pytest.mark.parametrize("argv", [
        ["seq-to-trees", "--k", "4", "--l", "2", "--seq", "7,9,17,18",
         "--format", "csv"],
        ["seq-to-ballot", "--k", "3", "--seq", "3,6", "--format", "json"],
        ["path-to-seq", "--k", "5", "--l", "3", "--path", "2,3,-4,0,2,-3,3",
         "--format", "ascii"],
        ["seq-to-path", "--k", "3", "--seq", "3,6", "--n", "2"],
        ["ballot-to-seq", "--k", "3", "--word", "AAAABAAAB", "--n", "2"],
        ["seq-to-path", "--k", "3", "--seq", "3,6", "--path", "9,9",
         "--word", "B"],
        ["path-to-seq", "--k", "3", "--path", "0,0", "--seq", "3,6"],
        ["trees-to-seq", "--k", "3", "--tuple", "[[null, null, null]]",
         "--word", "AB"],
        ["trees-to-seq", "--k", "3", "--l", "1",
         "--tuple", "[[null, null, null]]"],
        ["trees-to-seq", "--k", "4", "--l", "0", "--tuple", TUPLE_7_9_17_18],
    ])
    def test_unused_option_rejected(self, capsys, argv):
        code = main(["map", *argv])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    @pytest.mark.parametrize("text", [
        "null", "5", "[5]", "[[1,2,3]]", '["[null, null, null]"]',
        pytest.param("[" * 3000, id="3000-deep-unclosed"),
        pytest.param("[" * 3000 + "null" + "]" * 2999, id="3000-deep-short"),
        pytest.param('[{"a": ' + "[" * 3000 + "]" * 3000 + "}]",
                     id="3000-deep-in-object")])
    def test_malformed_tuple(self, capsys, text):
        code = main(["map", "trees-to-seq", "--k", "3", "--tuple", text])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1

    def test_input_of_another_direction_named(self, capsys):
        code = main(["map", "seq-to-path", "--k", "3", "--seq", "3,6",
                     "--word", "B"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: seq-to-path takes no --word\n"

    def test_l_agreeing_with_the_tuple(self, capsys):
        _, plain = run(capsys, "map", "trees-to-seq", "--k", "4",
                       "--tuple", TUPLE_7_9_17_18)
        code, out = run(capsys, "map", "trees-to-seq", "--k", "4", "--l", "2",
                        "--tuple", TUPLE_7_9_17_18)
        assert code == 0
        assert out == plain
        assert json.loads(out)["l"] == 2

    def test_no_offset_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["map", "seq-to-path", "--k", "3", "--seq", "3,6", "--d", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""

    def test_ballot_round_trip(self, capsys):
        code, out = run(capsys, "map", "seq-to-ballot", "--k", "3", "--l", "0",
                        "--seq", "3,6")
        assert code == 0
        assert out.strip() == "AAAABAAAB"
        code, out = run(capsys, "map", "ballot-to-seq", "--k", "3", "--l", "0",
                        "--word", "AAAABAAAB")
        assert code == 0
        assert json.loads(out)["values"] == [3, 6]

    def test_invalid_sequence(self, capsys):
        code, _ = run(capsys, "map", "seq-to-path", "--k", "3", "--l", "0",
                      "--seq", "3,4")
        assert code == 2

    def test_word_off_the_alphabet(self, capsys):
        code = main(["map", "ballot-to-seq", "--k", "3", "--word", "AXB"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


class TestVerify:
    def test_cell_passes(self, capsys):
        code, out = run(capsys, "verify", "--k", "3", "--l", "1", "--n", "3")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True

    # SHA-256 of the report, "elapsed" removed, recorded while each
    # codomain was streamed against a set of image objects; the report
    # must stay byte-identical however the suite holds its images.
    @pytest.mark.parametrize("k,l,n,digest", [
        (3, 1, 4,
         "4dd46e743bc78dddb3af149aa83969d7199cad59c2b7912ce22ec6af77744a65"),
        (2, 0, 8,
         "94406e872d134d31607570518d63e4403d86833f6344e276d4e9dc0556ab7bd0"),
        (4, 2, 4,
         "91bd7327843b32df7c7a4a9deedb61ab3273c2f30c6dac0d1fe407135ff4ce74"),
        (5, 3, 3,
         "ff3b595adcf0327c32ba36a88664612c2886babdc56d943644db9ffcae015bac"),
    ])
    def test_report_pinned(self, capsys, k, l, n, digest):
        code, out = run(capsys, "verify", "--k", str(k), "--l", str(l),
                        "--n", str(n))
        assert code == 0
        text = without_elapsed(out, 1)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    @staticmethod
    def raise_boom(*args):
        raise EmptyTupleError("boom")

    # Each map made wrong in one way, and the checks that must then fail: a
    # wrong inverse also leaves codomain objects unmatched.
    @pytest.mark.parametrize("module,name,wrong,checks", [
        (trees, "sequence_of_tuple", raise_boom,
         {"map-raised", "tuple-surjective"}),
        (paths, "sequence_of_path", lambda path, l: threshold.validate(
            (3, 6, 9), ThresholdParams(3, 1, 3)),
         {"path-roundtrip", "path-surjective"}),
        (ballot, "is_k_ballot_isolated", lambda word, k: False,
         {"ballot-isolated"}),
        (ballot, "from_ballot", lambda word, k, l: threshold.validate(
            (3, 6, 9), ThresholdParams(3, 1, 3)),
         {"ballot-roundtrip"})], ids=["map-raised", "path-roundtrip",
                                      "ballot-isolated", "ballot-roundtrip"])
    def test_failing_cell_exits_one(self, capsys, monkeypatch, module, name,
                                    wrong, checks):
        monkeypatch.setattr(module, name, wrong)
        code, out = run(capsys, "verify", "--k", "3", "--l", "1", "--n", "3")
        assert code == 1
        report = json.loads(out)
        assert report["pass"] is False
        assert {cell["params"]["check"] for cell in report["cells"]
                if not cell["pass"]} == checks

    # A tuple image whose first word is one byte short fails the cell
    # with a report, not a traceback.
    def test_malformed_tuple_image_exits_one(self, capsys, monkeypatch):
        original = trees.tuple_of

        def short(seq):
            t = original(seq)
            if seq.values != (3, 6, 10):
                return t
            first, *rest = t.trees
            return trees.TreeTuple(3, (trees.KaryTree._of(3, first.word[:-1]),
                                       *rest))
        monkeypatch.setattr(trees, "tuple_of", short)
        code, out = run(capsys, "verify", "--k", "3", "--l", "1", "--n", "3")
        assert code == 1
        assert out.count("\n") == 1
        failures = [cell for cell in json.loads(out)["cells"]
                    if not cell["pass"]]
        assert [cell["params"]["unmet_images"] for cell in failures] == [
            [[[1, 0, 0, 1, 0, 0], [None, None, None]]]]

    # R_100^(50,1) is past the budget of 1, so the suite stops before it
    # builds its rank table or enumerates; the default cap on int-to-str
    # conversion holds.
    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                        reason="no cap on int-to-str digits before 3.10.7")
    def test_budget_error_past_the_int_from_str_cap(self, capsys):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
        try:
            code = main(["verify", "--k", "50", "--n", "100",
                         "--budget", "1"])
        finally:
            sys.set_int_max_str_digits(saved)
        captured = capsys.readouterr()
        assert (code, captured.out) == (2, "")
        assert captured.err == (
            "error: enumeration budget of 1 objects exceeded\n")
    def test_no_offset_option(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "--k", "3", "--n", "2", "--d", "0"])
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestIdentities:
    def test_ballot_suite_with_report(self, capsys, tmp_path):
        target = tmp_path / "ballot.json"
        code, out = run(capsys, "identities", "--suite", "ballot",
                        "--report", str(target))
        assert code == 0
        summary = json.loads(target.read_text())
        assert summary["all_sequences_match_raney"] is True

    @pytest.mark.parametrize("argv,lines", [
        (["--suite", "identities"], 14), ([], 15)], ids=["identities", "all"])
    def test_suites_pass(self, capsys, argv, lines):
        code, out = run(capsys, "identities", *argv)
        assert code == 0
        reports = [json.loads(line) for line in out.splitlines()]
        assert len(reports) == lines
        assert all(report["pass"] is True for report in reports)

    def test_all_reports_pinned(self, capsys):
        # SHA-256 of the 15 report lines, "elapsed" removed from each
        code, out = run(capsys, "identities", "--suite", "all")
        assert code == 0
        text = without_elapsed(out, 15)
        assert hashlib.sha256(text.encode()).hexdigest() == \
            "588448a593888c54fac13c985ba9c33b3b328f98f6ebcbe093e371c2e87bc30c"

    def test_report_without_the_ballot_suite(self, capsys, tmp_path):
        target = tmp_path / "ballot.json"
        code, out = run(capsys, "identities", "--suite", "identities",
                        "--report", str(target))
        assert code == 2
        assert out == ""
        assert not target.exists()

    def test_report_to_a_missing_directory(self, capsys, tmp_path):
        target = tmp_path / "missing" / "ballot.json"
        code = main(["identities", "--suite", "ballot",
                     "--report", str(target)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert captured.err.count("\n") == 1


class TestClosedStdout:
    def test_reader_gone_after_one_line(self):
        # as `raneyseq enumerate ... | head -1`: quiet, with SIGPIPE's status
        src = os.path.dirname(os.path.dirname(raneyseq.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        proc = subprocess.Popen(
            [sys.executable, "-m", "raneyseq.cli", "enumerate", "--k", "2",
             "--n", "12", "--format", "csv"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        first = proc.stdout.readline()
        proc.stdout.close()
        code = proc.wait(timeout=60)
        err = proc.stderr.read()
        proc.stderr.close()
        assert code == 141
        assert first == b"2,4,6,8,10,12,14,16,18,20,22,24\n"
        assert err == b""
