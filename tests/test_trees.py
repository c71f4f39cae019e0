import hashlib
import itertools
import json
import random
import tracemalloc
from collections import deque

import pytest

from raneyseq import exactmath, threshold, trees
from raneyseq.errors import (
    BudgetExceededError,
    EmptyTupleError,
    InvalidParameterError,
    RaneyseqError,
    UnreachableLabelError,
)
from raneyseq.threshold import ThresholdParams
from raneyseq.trees import KaryTree, TreeTuple


def seq(values, k, l):
    return threshold.validate(values, ThresholdParams(k, l, len(values)))


class TestKaryTree:
    def test_leaf(self):
        leaf = trees.trivial(3)
        assert leaf.is_leaf
        assert leaf.internal_count == 0
        assert leaf.node_count == 1

    def test_node_count(self):
        tree = trees.build_from_internal_labels(4, 16, [16, 14, 12, 7])
        assert tree.internal_count == 4
        assert tree.node_count == 4 * 4 + 1

    def test_wrong_child_count(self):
        with pytest.raises(InvalidParameterError):
            KaryTree(3, (trees.trivial(3), trees.trivial(3)))

    def test_child_of_another_arity(self):
        # a leaf's JSON carries no arity, so only the tree can see this
        with pytest.raises(InvalidParameterError, match="child arity"):
            KaryTree(2, (trees.trivial(3), trees.trivial(3)))

    def test_tuple_entry_of_another_arity(self):
        with pytest.raises(InvalidParameterError, match="entry arity"):
            TreeTuple(2, (trees.trivial(3),))

    def test_empty_tuple_rejected(self):
        with pytest.raises(InvalidParameterError, match="at least one entry"):
            TreeTuple(2, ())

    def test_node_neither_null_nor_list(self):
        with pytest.raises(InvalidParameterError, match="got 1"):
            KaryTree.from_json(2, [1, None])

    def test_json_round_trip(self):
        tree = trees.build_from_internal_labels(4, 16, [16, 14, 12, 7])
        assert KaryTree.from_json(4, tree.to_json()) == tree

    def test_value_protocol(self):
        # a tree is the value of its arity and level-order word
        tree = KaryTree(3, [trees.trivial(3)] * 3)
        same = KaryTree.from_json(3, "[null, null, null]")
        assert tree == same and hash(tree) == hash(same)
        assert len({tree, same, trees.trivial(3)}) == 2
        assert trees.trivial(2) != trees.trivial(3)
        assert KaryTree._of(2, tree.word) != tree
        assert repr(tree) == r"KaryTree(k=3, word=b'\x01\x00\x00\x00')"


class TestLevelOrderWord:
    """A tree is stored as its level-order word: byte p is 1 iff the node
    at breadth-first position p is internal."""

    @staticmethod
    def bfs_word(data) -> bytes:
        word, queue = bytearray(), deque([data])
        while queue:
            node = queue.popleft()
            word.append(node is not None)
            queue.extend(node or ())
        return bytes(word)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_every_small_tree(self, k):
        for n in range(7):
            for tree in trees.enumerate_trees(k, n):
                data = tree.to_json()
                assert tree.json_text() == json.dumps(data)
                assert tree.word == self.bfs_word(data)
                assert KaryTree(k, tree.children) == tree
                assert KaryTree.from_json(k, data) == tree

    def test_figure_2a_word(self):
        tree = trees.build_from_internal_labels(4, 16, [16, 14, 12, 7])
        # labels 16, 14, 12, 7 sit at positions 0, 2, 4, 9
        assert tree.word == bytes(1 if p in (0, 2, 4, 9) else 0
                                  for p in range(17))


class TestJsonText:
    TOKENS = ["[", "]", ",", ", ", " ", "\n", "\t", "\r", "\x0c", "null",
              "nul", "1", "-", "1e3", '"a"', '"', "{}", '{"a": [1, [null]]}',
              "{", "true", "NaN", "\ufeff", "[[", "]]"]

    @staticmethod
    def only_nulls_and_lists(value):
        values = [value]
        for value in values:  # grows as it is read
            if value is not None and not isinstance(value, list):
                return False
            values += value or ()
        return True

    def test_loads_matches_json(self):
        # json.loads's value for a text of nulls and arrays, else rejected
        self.check_texts(self.TOKENS, random.Random(7))

    def test_loads_matches_json_on_tree_tokens(self):
        # most of these texts are tree text, many of them nested
        self.check_texts(["[", "]", ",", ", ", " ", "\n", "null", "[[", "]]",
                          "[null, null]"], random.Random(8))

    def check_texts(self, tokens, rng):
        for _ in range(20000):
            text = "".join(rng.choices(tokens, k=rng.randrange(12)))
            try:
                expected = json.loads(text)
                accepted = self.only_nulls_and_lists(expected)
            except ValueError:
                accepted = False
            if accepted:
                assert repr(trees._loads(text)) == repr(expected), text
            else:
                with pytest.raises((ValueError, RaneyseqError)):
                    trees._loads(text)


class TestBuildFromInternalLabels:
    def test_figure_2a(self):
        tree = trees.build_from_internal_labels(4, 16, [16, 14, 12, 7])
        first, second, third, fourth = tree.children
        assert first.is_leaf and third.is_leaf
        # label 14: second child, four leaf children
        assert not second.is_leaf
        assert all(c.is_leaf for c in second.children)
        # label 12: fourth child; its first child (label 7) is internal
        assert not fourth.is_leaf
        assert not fourth.children[0].is_leaf
        assert all(c.is_leaf for c in fourth.children[0].children)
        assert all(c.is_leaf for c in fourth.children[1:])

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_single_internal_node(self, k):
        tree = trees.build_from_internal_labels(k, 10, [10])
        assert not tree.is_leaf
        assert all(c.is_leaf for c in tree.children)

    def test_second_child_internal(self):
        tree = trees.build_from_internal_labels(4, 9, [9, 7])
        assert tree.children[0].is_leaf
        assert not tree.children[1].is_leaf
        assert tree.children[2].is_leaf and tree.children[3].is_leaf

    def test_unreachable_label(self):
        with pytest.raises(UnreachableLabelError):
            trees.build_from_internal_labels(4, 16, [16, 3])

    def test_repeated_label_rejected(self):
        with pytest.raises(InvalidParameterError, match="distinct"):
            trees.build_from_internal_labels(2, 4, [4, 4])

    def test_root_label_mismatch(self):
        with pytest.raises(InvalidParameterError):
            trees.build_from_internal_labels(4, 16, [15, 14])

    @pytest.mark.parametrize("w,labels,named", [
        pytest.param(2.5, [2.5], "label 2.5 at index 1", id="float"),
        pytest.param(5, [5, "a"], "label 'a' at index 2", id="str"),
        pytest.param(3, 5, "labels must be a list, got 5", id="not-a-list")])
    def test_labels_not_ints_rejected(self, w, labels, named):
        with pytest.raises(InvalidParameterError, match=named):
            trees.build_from_internal_labels(3, w, labels)

    @pytest.mark.parametrize("n", range(4))
    def test_label_extraction_round_trip(self, n):
        # rebuilding from the extracted w-labeling is the identity
        w = 3 * n + 2
        for tree in trees.enumerate_trees(3, n):
            labels = trees.internal_labels(tree, w)
            if not labels:
                continue
            assert trees.build_from_internal_labels(3, w, labels) == tree
            rebuilt = trees.build_from_internal_labels(3, w, labels)
            assert trees.internal_labels(rebuilt, w) == labels


class TestForestAndTuple:
    def test_example4_forest(self):
        forest = trees.forest_of(seq((7, 12, 14, 16), 4, 0))
        assert len(forest) == 1
        assert forest[0].internal_count == 4

    def test_example5_forest(self):
        forest = trees.forest_of(seq((7, 9, 17, 18), 4, 2))
        assert len(forest) == 2
        assert [t.internal_count for t in forest] == [2, 2]

    @pytest.mark.parametrize("k,n", [(2, 5), (3, 5), (4, 4)])
    def test_l0_single_tree(self, k, n):
        for s in threshold.enumerate_sequences(ThresholdParams(k, 0, n)):
            forest = trees.forest_of(s)
            assert len(forest) == 1
            assert forest[0].internal_count == n

    def test_requires_offset_zero(self):
        with pytest.raises(InvalidParameterError, match="offset 0"):
            trees.tuple_of(threshold.shift(seq((3, 6), 3, 0), 2))

    def test_empty_sequence_rejected(self):
        # Its tuple would be all-trivial, which has no sequence.
        with pytest.raises(InvalidParameterError,
                           match="^tuple_of requires n >= 1$"):
            trees.tuple_of(seq((), 3, 1))

    def test_example5_tuple(self):
        t = trees.tuple_of(seq((7, 9, 17, 18), 4, 2))
        assert t.trees[0].is_leaf
        assert t.trees[1] == trees.build_from_internal_labels(4, 9, [9, 7])
        assert t.trees[2] == trees.build_from_internal_labels(4, 18, [18, 17])

    def test_example4_as_42_tuple(self):
        t = trees.tuple_of(seq((7, 12, 14, 16), 4, 2))
        assert not t.trees[0].is_leaf
        assert t.trees[1].is_leaf and t.trees[2].is_leaf

    def test_smallest_cell(self):
        t = trees.tuple_of(seq((3,), 3, 0))
        assert t.r == 1
        assert t.trees[0].internal_count == 1


class TestSequenceOfTuple:
    def test_example5_reversed(self):
        t = TreeTuple(4, (trees.trivial(4),
                          trees.build_from_internal_labels(4, 9, [9, 7]),
                          trees.build_from_internal_labels(4, 18, [18, 17])))
        assert trees.sequence_of_tuple(t, 4).values == (7, 9, 17, 18)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_single_internal_node(self, k):
        t = TreeTuple(k, (trees.build_from_internal_labels(k, k, [k]),))
        assert trees.sequence_of_tuple(t).values == (k,)

    def test_round_trip_over_tuples(self):
        for t in trees.enumerate_tuples(3, 2, 3):
            if t.internal_total == 0:
                continue
            s = trees.sequence_of_tuple(t)
            assert trees.tuple_of(s) == t

    def test_empty_tuple_rejected(self):
        t = TreeTuple(3, (trees.trivial(3), trees.trivial(3)))
        with pytest.raises(EmptyTupleError):
            trees.sequence_of_tuple(t)

    def test_wrong_n_rejected(self):
        t = TreeTuple(3, (trees.build_from_internal_labels(3, 3, [3]),))
        with pytest.raises(InvalidParameterError):
            trees.sequence_of_tuple(t, 2)


class TestEnumeration:
    def test_ternary_two_nodes(self):
        assert len(list(trees.enumerate_trees(3, 2))) == 3

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_only_trivial(self, k):
        assert list(trees.enumerate_trees(k, 0)) == [trees.trivial(k)]

    def test_binary_catalan(self):
        assert len(list(trees.enumerate_trees(2, 4))) == 14

    def test_counts_match_fuss_catalan(self):
        for k in (2, 3, 4):
            for n in range(6):
                found = list(trees.enumerate_trees(k, n))
                assert len(found) == exactmath.fuss_catalan(k, n)
                assert len(set(found)) == len(found)

    def test_tuple_counts(self):
        assert len(list(trees.enumerate_tuples(3, 2, 2))) == 7
        assert len(list(trees.enumerate_tuples(4, 3, 0))) == 1
        assert len(list(trees.enumerate_tuples(3, 4, 2))) == \
            exactmath.raney(3, 4, 2)

    def test_budget(self):
        with pytest.raises(BudgetExceededError):
            list(trees.enumerate_trees(2, 5, budget=10))

    # The library enumerators check their own arguments, eagerly.
    @pytest.mark.parametrize("enumerate_, args", [
        (trees.enumerate_trees, (1, 2)), (trees.enumerate_tuples, (2, 0, 1))])
    def test_invalid_arguments_rejected(self, enumerate_, args):
        with pytest.raises(InvalidParameterError):
            enumerate_(*args)

    # SHA-256 of the words over the grid below, recorded before trees and
    # tuples were enumerated in one lazy pass: the order must not change.
    ORDER_DIGEST = \
        "9a60e084565c130d15b051b620fcf132e946416c2812e380e45ecb1ec17d7d08"

    def test_order_pinned(self):
        digest = hashlib.sha256()
        for k, top in {2: 9, 3: 7, 4: 6, 5: 5}.items():
            for n in range(top + 1):
                digest.update(f"trees {k} {n}\n".encode())
                for tree in trees.enumerate_trees(k, n):
                    digest.update(tree.word + b"\n")
        for k, top in {2: 6, 3: 5, 4: 4, 5: 4}.items():
            for r in range(1, 6):
                for n in range(top + 1):
                    digest.update(f"tuples {k} {r} {n}\n".encode())
                    for t in trees.enumerate_tuples(k, r, n):
                        digest.update(b"|".join(tree.word for tree in t.trees)
                                      + b"\n")
        assert digest.hexdigest() == self.ORDER_DIGEST

    @pytest.mark.parametrize("k", [2, 3, 5])
    def test_first_tree_at_large_n(self, k):
        # the right comb: each root's last child holds the rest
        first = next(trees.enumerate_trees(k, 5000))
        assert first.word == (b"\x01" + bytes(k - 1)) * 5000 + b"\x00"

    def test_first_tuple_at_large_n(self):
        first = next(trees.enumerate_tuples(3, 2, 5000))
        assert first == TreeTuple(3, (trees.trivial(3), KaryTree._of(
            3, b"\x01\x00\x00" * 5000 + b"\x00")))

    def test_tuples_keep_only_the_smaller_trees(self):
        # Size n is streamed once per composition that holds it, never
        # kept: the peak measured 322,000 bytes on Python 3.11.7, and
        # 1,195,000 with the 7,752 trees of size 7 kept.
        tracemalloc.start()
        tracemalloc.reset_peak()
        try:
            start = tracemalloc.get_traced_memory()[0]
            found = sum(1 for _ in trees.enumerate_tuples(3, 2, 7))
            peak = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
        assert found == exactmath.raney(3, 2, 7)
        assert peak < 600_000

    @pytest.mark.parametrize("enumerate_, args", [
        (trees.enumerate_trees, (2, 14)), (trees.enumerate_tuples, (3, 2, 12))])
    def test_budget_of_one_stops_after_one(self, enumerate_, args):
        found = []
        with pytest.raises(BudgetExceededError):
            for obj in enumerate_(*args, budget=1):
                found.append(obj)
        assert len(found) == 1

    @pytest.mark.parametrize("parts", range(1, 5))
    @pytest.mark.parametrize("total", range(6))
    def test_compositions(self, total, parts):
        expected = [c for c in itertools.product(range(total + 1), repeat=parts)
                    if sum(c) == total]
        assert list(trees._compositions(total, parts)) == expected


class TestBijectionGrid:
    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_injective_surjective_roundtrip(self, k):
        for l in range(k - 1):
            for n in range(1, 5):
                params = ThresholdParams(k, l, n)
                images = set()
                for s in threshold.enumerate_sequences(params):
                    t = trees.tuple_of(s)
                    assert t.internal_total == n
                    assert trees.sequence_of_tuple(t, n) == s
                    images.add(t)
                codomain = set(trees.enumerate_tuples(k, l + 1, n))
                assert images == codomain


class TestTrustedTuples:
    """The tuples that enumerate_tuples and tuple_of build without the
    public checks are the public constructor's."""

    CELLS = [(2, 0, 7), (3, 1, 5), (5, 3, 4)]

    @staticmethod
    def assert_public(t):
        public = TreeTuple(t.k, t.trees)
        assert t == public and hash(t) == hash(public)

    @pytest.mark.parametrize("k,l,n", CELLS)
    def test_enumerated_tuples(self, k, l, n):
        for t in trees.enumerate_tuples(k, l + 1, n):
            self.assert_public(t)

    @pytest.mark.parametrize("k,l,n", CELLS)
    def test_mapped_tuples(self, k, l, n):
        for s in threshold.enumerate_sequences(ThresholdParams(k, l, n)):
            self.assert_public(trees.tuple_of(s))


class TestDepth:
    """Trees as deep as the sequence is long; the lowest sequence of each
    cell gives a path of n internal nodes."""

    N = 5000

    @pytest.mark.parametrize("k,l", [(2, 0), (3, 1)])
    @pytest.mark.parametrize("end", ["lowest", "highest"])
    def test_round_trip_and_export(self, k, l, end):
        n = self.N
        top = k * n + l
        values = ([k * i for i in range(1, n + 1)] if end == "lowest"
                  else list(range(top - n + 1, top + 1)))
        s = seq(values, k, l)
        t = trees.tuple_of(s)
        assert trees.sequence_of_tuple(t, n) == s
        again = trees.tuple_of(s)
        assert hash(again) == hash(t) and again == t
        (tree,) = [entry for entry in t.trees if not entry.is_leaf]
        assert KaryTree.from_json(k, tree.to_json()) == tree
        assert KaryTree.from_json(k, tree.json_text()) == tree
        assert TreeTuple.from_json(k, t.json_text()) == t
        # one tree holds every value, so its root carries the label s_n
        w = values[-1]
        assert trees.internal_labels(tree, w) == values[::-1]
        assert trees.to_dot(tree, w=w).count("->") == k * n


class TestDot:
    def test_contains_edges(self):
        tree = trees.build_from_internal_labels(3, 6, [6, 4])
        dot = trees.to_dot(tree, w=6)
        assert dot.startswith("digraph")
        assert '"6"' in dot and '"4"' in dot
        assert dot.count("->") == 6

    def test_labeled_export_pinned(self):
        # SHA-256 recorded before trees were stored as preorder words.
        digest = hashlib.sha256()
        for n in range(5):
            for tree in trees.enumerate_trees(3, n):
                digest.update((trees.to_dot(tree, w=3 * n + 2) + "\n").encode())
        assert digest.hexdigest() == \
            "7f4225604ff9debda88bbb6b455bfe774fe487889501c261062e47c728520309"
