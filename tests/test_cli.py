import hashlib
import json

import pytest

from raneyseq.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


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


class TestVerify:
    def test_cell_passes(self, capsys):
        code, out = run(capsys, "verify", "--k", "3", "--l", "1", "--n", "3")
        assert code == 0
        report = json.loads(out)
        assert report["pass"] is True


class TestIdentities:
    def test_ballot_suite_with_report(self, capsys, tmp_path):
        target = tmp_path / "ballot.json"
        code, out = run(capsys, "identities", "--suite", "ballot",
                        "--report", str(target))
        assert code == 0
        summary = json.loads(target.read_text())
        assert summary["all_sequences_match_raney"] is True
