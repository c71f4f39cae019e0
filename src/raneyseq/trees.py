"""k-ary trees, w-tree labelings, and the threshold-sequence bijection.

A k-ary tree is a single leaf (the trivial tree) or an internal node with
k ordered subtrees, stored as its level-order word: the node at
breadth-first (BFS) position p is byte p, 1 internal and 0 leaf.  The
children of the j-th internal node (from 0) sit at positions jk+1 ... jk+k.
Level-order words of k-ary trees are the Lukasiewicz words, as preorder
words are (Knuth, TAOCP 1, 2.3.3).

The w-labeling gives the node at position p the label w - p, so the word
of a w-tree is its set of internal labels, and tuple_of/sequence_of_tuple,
which realize the bijection between (k,l)-threshold sequences and
(l+1)-tuples of trees, are index arithmetic.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Sequence

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
        self.word = (b"".join(_join([_levels(k, c.word) for c in children]))
                     if children else b"\x00")

    @classmethod
    def _of(cls, k: int, word: bytes) -> KaryTree:
        """The tree of a word already known to be a k-ary level-order word."""
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
        k = self.k
        nodes = [None] * len(self.word)
        internal = list(itertools.compress(itertools.count(), self.word))
        # Children sit after their parent, so reverse BFS order builds
        # every child before its parent.
        for j in range(len(internal) - 1, -1, -1):
            nodes[internal[j]] = nodes[j * k + 1:j * k + k + 1]
        return nodes[0]

    @classmethod
    def from_json(cls, k: int, data) -> KaryTree:
        if isinstance(data, str):
            data = json.loads(data)
        return cls._of_json(k, data)

    @classmethod
    def _of_json(cls, k: int, data) -> KaryTree:
        """The tree of a decoded JSON encoding (a text node is malformed)."""
        word = bytearray()
        nodes = [data]
        for node in nodes:  # grows as it is read: a BFS queue
            if node is not None and not isinstance(node, list):
                raise InvalidParameterError(
                    f"a tree node is null or a list, got {node!r}")
            if node is not None and len(node) != k:
                raise InvalidParameterError(
                    f"internal node needs exactly {k} children")
            word.append(node is not None)
            nodes += node or ()
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


def _levels(k: int, word: bytes) -> list[bytes]:
    """The levels of a level-order word: the nodes of each depth."""
    levels: list[bytes] = []
    start, width = 0, 1
    while start < len(word):
        levels.append(word[start:start + width])
        start += width
        width = k * levels[-1].count(1)
    return levels


def _join(child_levels: Sequence[Sequence[bytes]]) -> tuple[bytes, ...]:
    """The levels of an internal node whose children have these levels:
    depth d + 1 holds the children's depths d, left to right."""
    return (b"\x01", *map(b"".join, itertools.zip_longest(
        *child_levels, fillvalue=b"")))


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
    word = bytearray(k * len(ordered) + 1)
    for j, label in enumerate(ordered):
        if label < w - j * k:
            raise UnreachableLabelError(label)
        word[w - label] = 1
    return KaryTree._of(k, bytes(word))


def internal_labels(tree: KaryTree, w: int) -> list[int]:
    """Labels of the internal nodes under the w-labeling, in BFS order."""
    return list(itertools.compress(range(w, w - len(tree.word), -1),
                                   tree.word))


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
        word = bytearray(k * (len(values) - cut) + 1)
        for v in values[cut:]:
            word[last - v] = 1
        entries[level] = KaryTree._of(k, bytes(word))
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
        descending += internal_labels(t.trees[y - 1],
                                      k * (n - len(descending)) + y - 1)
    return validate(descending[::-1], ThresholdParams(k, t.r - 1, n))


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def _products(total: int, parts: int, stored: Sequence[Sequence],
              stream: Callable[[], Iterable]) -> Iterator[tuple]:
    """For each composition of total into parts, in lexicographic order,
    the product of the items of each part's size, the last part fastest.
    stored[j] holds the items of size j for every size below total; a part
    equal to total has only size-0 parts beside it, so unless stored holds
    that size too, its items come from stream() afresh each time."""
    for comp in _compositions(total, parts):
        if max(comp) < len(stored):
            yield from itertools.product(*(stored[j] for j in comp))
            continue
        entries = [stored[0][0]] * parts
        i = comp.index(total)
        for entries[i] in stream():
            yield tuple(entries)


def _level_tuples(k: int, n: int, below: Sequence[Sequence]) -> Iterator:
    """The levels of each tree with n internal nodes, in enumeration order,
    from `below`, the levels of the trees of each size up to n - 2 or more."""
    if n == 0:
        return iter([(b"\x00",)])
    return map(_join, _products(n - 1, k, below,
                                lambda: _level_tuples(k, n - 1, below)))


def _levels_below(k: int, n: int) -> list[list[tuple[bytes, ...]]]:
    """The levels of the trees of each size up to n - 2 (size 0 at least),
    which is what _level_tuples needs for size n.  Equal level bytes are
    shared: the deep levels are mostly the same few bytes."""
    share = {}.setdefault
    below: list[list[tuple[bytes, ...]]] = []
    for m in range(max(n - 1, 1)):
        below.append([tuple(map(share, levels, levels))
                      for levels in _level_tuples(k, m, below)])
    return below


def _trees(k: int, levels: Iterable[Sequence[bytes]]) -> Iterator[KaryTree]:
    return map(KaryTree._of, itertools.repeat(k), map(b"".join, levels))


def _iter_trees(k: int, n: int) -> Iterator[KaryTree]:
    yield from _trees(k, _level_tuples(k, n, _levels_below(k, n)))


def enumerate_trees(k: int, n: int,
                    budget: int | None = None) -> Iterator[KaryTree]:
    """Yield each k-ary tree with n internal nodes exactly once, ordered by
    the lexicographic child internal-count composition."""
    if k < 2 or n < 0:
        raise InvalidParameterError("need k >= 2 and n >= 0")
    return capped(_iter_trees(k, n), budget)


def _iter_tuples(k: int, r: int, n: int) -> Iterator[TreeTuple]:
    if r == 1:
        for tree in _iter_trees(k, n):
            yield TreeTuple(k, (tree,))
        return
    below = _levels_below(k, n)
    by_size = [list(_trees(k, _level_tuples(k, m, below)))
               for m in range(max(n, 1))]

    def top() -> Iterator[KaryTree]:
        # The first composition, (0, ..., 0, n), streams the trees of size
        # n; the later ones find them in by_size.
        trees = []
        for tree in _trees(k, _level_tuples(k, n, below)):
            trees.append(tree)
            yield tree
        by_size.append(trees)

    for entries in _products(n, r, by_size, top):
        yield TreeTuple(k, entries)


def enumerate_tuples(k: int, r: int, n: int,
                     budget: int | None = None) -> Iterator[TreeTuple]:
    """Yield all ordered r-tuples of k-ary trees with n internal nodes in
    total, each exactly once."""
    if k < 2 or r < 1 or n < 0:
        raise InvalidParameterError("need k >= 2, r >= 1 and n >= 0")
    return capped(_iter_tuples(k, r, n), budget)


def to_dot(tree: KaryTree, w: int | None = None) -> str:
    """DOT text for a tree, nodes numbered by BFS position; with w given,
    nodes show their w-labeling."""
    lines = ["digraph karytree {", "  node [shape=circle];"]
    k, j = tree.k, 0
    for p, bit in enumerate(tree.word):
        text = "" if w is None else str(w - p)
        shape = "circle" if bit else "point"
        lines.append(f'  n{p} [label="{text}", shape={shape}];')
        if bit:
            lines.extend(f"  n{p} -> n{c};"
                         for c in range(j * k + 1, j * k + k + 1))
            j += 1
    lines.append("}")
    return "\n".join(lines)
