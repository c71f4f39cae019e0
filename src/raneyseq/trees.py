"""k-ary trees, w-tree labelings, and the threshold-sequence bijection.

A k-ary tree is a single leaf (the trivial tree) or an internal node with
k ordered subtrees, stored as its preorder word: one byte per node, 1
internal and 0 leaf.  The w-labeling gives the node at breadth-first
(BFS) position p the label w - p; only _child_positions, _word_of and
_positions_of know the BFS layout.  tuple_of/sequence_of_tuple realize the
bijection between (k,l)-threshold sequences and (l+1)-tuples of trees.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterator, Sequence

from .errors import (
    EmptyTupleError,
    InvalidParameterError,
    UnreachableLabelError,
)
from .threshold import ThresholdParams, ThresholdSequence, capped, cut_of, validate


class KaryTree:
    """Unlabeled k-ary tree; children is empty (leaf) or has length k."""

    __slots__ = ("k", "word")

    def __init__(self, k: int, children: Sequence[KaryTree] = ()) -> None:
        if k < 2:
            raise InvalidParameterError("arity k must be >= 2")
        if children and len(children) != k:
            raise InvalidParameterError(
                f"internal node needs exactly {k} children")
        if any(child.k != k for child in children):
            raise InvalidParameterError("child arity mismatch")
        self.k = k
        self.word = (b"\x01" + b"".join(c.word for c in children)
                     if children else b"\x00")

    @classmethod
    def _of(cls, k: int, word: bytes) -> KaryTree:
        """The tree of a word already known to be a k-ary preorder word."""
        if k < 2:
            raise InvalidParameterError("arity k must be >= 2")
        tree = cls.__new__(cls)
        tree.k, tree.word = k, word
        return tree

    def __eq__(self, other) -> bool:
        if not isinstance(other, KaryTree):
            return NotImplemented
        return self.k == other.k and self.word == other.word

    def __hash__(self) -> int:
        return hash(self.word)

    @property
    def children(self) -> tuple[KaryTree, ...]:
        return tuple(KaryTree.from_json(self.k, child)
                     for child in self.to_json() or ())

    @property
    def is_leaf(self) -> bool:
        return not self.word[0]

    @property
    def internal_count(self) -> int:
        return self.word.count(1)

    @property
    def node_count(self) -> int:
        return len(self.word)

    def to_json(self):
        """Leaf -> None, internal node -> list of k child encodings."""
        stack: list = []
        for bit in reversed(self.word):
            stack.append([stack.pop() for _ in range(self.k)] if bit else None)
        return stack[0]

    @classmethod
    def from_json(cls, k: int, data) -> KaryTree:
        if isinstance(data, str):
            data = json.loads(data)
        return cls._of_json(k, data)

    @classmethod
    def _of_json(cls, k: int, data) -> KaryTree:
        """The tree of a decoded JSON encoding (a text node is malformed)."""
        word = bytearray()
        stack = [data]
        while stack:
            node = stack.pop()
            if node is not None and not isinstance(node, list):
                raise InvalidParameterError(
                    f"a tree node is null or a list, got {node!r}")
            if node is not None and len(node) != k:
                raise InvalidParameterError(
                    f"internal node needs exactly {k} children")
            word.append(node is not None)
            stack.extend(reversed(node or ()))
        return cls._of(k, bytes(word))


def trivial(k: int) -> KaryTree:
    """The trivial tree: a single leaf."""
    return KaryTree(k)


@dataclass(frozen=True, slots=True)
class TreeTuple:
    """Ordered tuple of k-ary trees (entries may be trivial)."""

    k: int
    trees: tuple[KaryTree, ...]

    def __post_init__(self) -> None:
        if not self.trees:
            raise InvalidParameterError("a tree tuple needs at least one entry")
        for tree in self.trees:
            if tree.k != self.k:
                raise InvalidParameterError("tuple entry arity mismatch")

    @property
    def r(self) -> int:
        return len(self.trees)

    @property
    def internal_total(self) -> int:
        return sum(tree.internal_count for tree in self.trees)

    def to_json(self) -> list:
        return [tree.to_json() for tree in self.trees]

    @classmethod
    def from_json(cls, k: int, data) -> "TreeTuple":
        if isinstance(data, str):
            data = json.loads(data)
        if not isinstance(data, list):
            raise InvalidParameterError(f"a tree tuple is a list, got {data!r}")
        return cls(k, tuple(KaryTree._of_json(k, entry) for entry in data))


def _child_positions(k: int, j: int) -> range:
    """BFS positions of the children of the j-th internal node (from 0)."""
    return range(j * k + 1, j * k + k + 1)


def _word_of(k: int, positions: Sequence[int]) -> bytes:
    """Preorder word of the tree whose internal nodes sit at the given
    increasing BFS positions, the root at 0."""
    rank = {p: j for j, p in enumerate(positions)}
    word = bytearray()
    stack = [0]
    while stack:
        j = rank.get(stack.pop())
        word.append(j is not None)
        if j is not None:
            stack.extend(reversed(_child_positions(k, j)))
    return bytes(word)


def _positions_of(k: int, word: bytes) -> list[int]:
    """BFS positions of the internal nodes of a preorder word, increasing.
    BFS order is preorder stably sorted by depth."""
    depths: list[int] = []
    pending = [0]  # depths of the nodes still to be read, next one last
    for bit in word:
        depth = pending.pop()
        depths.append(depth)
        if bit:
            pending.extend((depth + 1,) * k)
    bfs = sorted(range(len(word)), key=depths.__getitem__)
    return [p for p, i in enumerate(bfs) if word[i]]


def build_from_internal_labels(k: int, w: int,
                               labels: Sequence[int]) -> KaryTree:
    """Build the k-ary w-tree whose internal nodes carry the given labels.

    The labels, in decreasing order l_1 > l_2 > ..., must start at w and
    satisfy l_j >= w - (j-1)*k; otherwise the j-th label would lie below
    every node of the partially built tree.
    """
    ordered = sorted(labels, reverse=True)
    if len(set(ordered)) != len(ordered):
        raise InvalidParameterError("labels must be distinct")
    if not ordered or ordered[0] != w:
        raise InvalidParameterError("largest label must equal w")
    for j, label in enumerate(ordered, start=1):
        if label < w - (j - 1) * k:
            raise UnreachableLabelError(label)
    return KaryTree._of(k, _word_of(k, [w - label for label in ordered]))


def internal_labels(tree: KaryTree, w: int) -> list[int]:
    """Labels of the internal nodes under the w-labeling, in BFS order."""
    return [w - p for p in _positions_of(tree.k, tree.word)]


def tuple_of(seq: ThresholdSequence) -> TreeTuple:
    """Tuple(S): split S at successive cut indices, right to left.  The
    piece after the p-th cut is the tree A^p; it goes to position l_p + 1,
    where l_p is the level of the residual prefix Q_p before the cut.
    Every other position holds the trivial tree."""
    if seq.d != 0:
        raise InvalidParameterError("forest construction requires offset 0")
    k = seq.k
    values = seq.values
    entries = [trivial(k)] * (seq.l + 1)
    prev_level = seq.l + 1
    while values:
        # The piece after the cut index holds only reachable labels.
        cut = cut_of(values, k)
        last = values[-1]
        level = last - k * len(values)
        assert 0 <= level < prev_level, "residual levels must strictly decrease"
        word = _word_of(k, [last - v for v in reversed(values[cut:])])
        entries[level] = KaryTree._of(k, word)
        prev_level = level
        values = values[:cut]
    return TreeTuple(k, tuple(entries))


def forest_of(seq: ThresholdSequence) -> list[KaryTree]:
    """Forest(S): the trees A^1, A^2, ... of the successive pieces, which
    are the non-trivial entries of Tuple(S) read right to left."""
    return [tree for tree in reversed(tuple_of(seq).trees) if not tree.is_leaf]


def sequence_of_tuple(t: TreeTuple, n: int | None = None) -> ThresholdSequence:
    """Inverse of tuple_of.

    Scanning positions y right to left, labels each non-trivial entry as a
    w-tree with w = k*(n - r) + y - 1, where r counts the internal nodes of
    the entries already scanned.  The labels of each entry, read in BFS
    order, decrease, and every one of them exceeds those of the entries to
    its left; so the whole scan yields the sequence in decreasing order.
    """
    total = t.internal_total
    if total == 0:
        raise EmptyTupleError("all-trivial tuple has no sequence")
    if n is None:
        n = total
    elif n != total:
        raise InvalidParameterError(
            f"tuple has {total} internal nodes, expected {n}")
    k = t.k
    descending: list[int] = []
    for y in range(t.r, 0, -1):
        tree = t.trees[y - 1]
        if not tree.is_leaf:
            descending += internal_labels(tree, k * (n - len(descending)) + y - 1)
    return validate(descending[::-1], ThresholdParams(k, t.r - 1, n))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


@lru_cache(maxsize=None)
def _all_trees(k: int, n: int) -> tuple[KaryTree, ...]:
    return tuple(_iter_trees(k, n))


def _iter_trees(k: int, n: int) -> Iterator[KaryTree]:
    if n == 0:
        yield KaryTree(k)
        return
    for comp in _compositions(n - 1, k):
        for kids in itertools.product(*(_all_trees(k, j) for j in comp)):
            # The cached children are valid words already.
            yield KaryTree._of(k, b"\x01" + b"".join([kid.word for kid in kids]))


def enumerate_trees(k: int, n: int,
                    budget: int | None = None) -> Iterator[KaryTree]:
    """Yield each k-ary tree with n internal nodes exactly once, ordered by
    the lexicographic child internal-count composition."""
    if k < 2 or n < 0:
        raise InvalidParameterError("need k >= 2 and n >= 0")
    return capped(_iter_trees(k, n), budget)


def enumerate_tuples(k: int, r: int, n: int,
                     budget: int | None = None) -> Iterator[TreeTuple]:
    """Yield all ordered r-tuples of k-ary trees with n internal nodes in
    total, each exactly once."""
    if k < 2 or r < 1 or n < 0:
        raise InvalidParameterError("need k >= 2, r >= 1 and n >= 0")
    return capped((TreeTuple(k, trees)
                   for comp in _compositions(n, r)
                   for trees in itertools.product(
                       *(_all_trees(k, j) for j in comp))), budget)


def to_dot(tree: KaryTree, w: int | None = None) -> str:
    """DOT text for a tree, nodes numbered by BFS position; with w given,
    nodes show their w-labeling."""
    lines = ["digraph karytree {", "  node [shape=circle];"]
    rank = {p: j for j, p in enumerate(_positions_of(tree.k, tree.word))}
    for p in range(tree.node_count):
        text = "" if w is None else str(w - p)
        j = rank.get(p)
        shape = "point" if j is None else "circle"
        lines.append(f'  n{p} [label="{text}", shape={shape}];')
        if j is not None:
            lines.extend(f"  n{p} -> n{c};" for c in _child_positions(tree.k, j))
    lines.append("}")
    return "\n".join(lines)
