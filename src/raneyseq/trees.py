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
        word = bytearray()
        stack = [data]
        while stack:
            node = stack.pop()
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
        return cls(k, tuple(KaryTree.from_json(k, entry) for entry in data))


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


def _forest_with_levels(seq: ThresholdSequence) -> list[tuple[KaryTree, int]]:
    """Trees A^1, A^2, ... with the level l_p of each residual prefix Q_p."""
    if seq.d != 0:
        raise InvalidParameterError("forest construction requires offset 0")
    k = seq.k
    values = seq.values
    out: list[tuple[KaryTree, int]] = []
    while values:
        # The piece after the cut index holds only reachable labels.
        cut = cut_of(values, k)
        last = values[-1]
        word = _word_of(k, [last - v for v in reversed(values[cut:])])
        out.append((KaryTree._of(k, word), last - k * len(values)))
        values = values[:cut]
    return out


def forest_of(seq: ThresholdSequence) -> list[KaryTree]:
    """Forest(S): split at successive cut indices, one tree per piece."""
    return [tree for tree, _ in _forest_with_levels(seq)]


def tuple_of(seq: ThresholdSequence) -> TreeTuple:
    """Tuple(S): the (l+1)-tuple with A^p at position l_p + 1 and the
    trivial tree elsewhere."""
    pairs = _forest_with_levels(seq)
    entries = [trivial(seq.k)] * (seq.l + 1)
    prev_level = seq.l + 1
    for tree, level in pairs:
        assert 0 <= level < prev_level, "residual levels must strictly decrease"
        entries[level] = tree
        prev_level = level
    return TreeTuple(seq.k, tuple(entries))


def sequence_of_tuple(t: TreeTuple, n: int | None = None) -> ThresholdSequence:
    """Inverse of tuple_of.

    Labels the non-trivial entry at position y_p (scanning positions right
    to left) as a w_p-tree with w_p = k*(n - r_{p-1}) + y_p - 1, where
    r_p accumulates internal-node counts, and concatenates the increasing
    internal-label runs I_t ... I_1.
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
    nontrivial = [(pos, tree) for pos, tree in enumerate(t.trees, start=1)
                  if not tree.is_leaf]
    nontrivial.sort(key=lambda item: -item[0])
    segments: list[list[int]] = []
    r_prev = 0
    for y, tree in nontrivial:
        w = k * (n - r_prev) + y - 1
        segments.append(sorted(internal_labels(tree, w)))
        r_prev += tree.internal_count
    values = list(itertools.chain.from_iterable(reversed(segments)))
    return validate(values, ThresholdParams(k, t.r - 1, n))


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


def to_dot(tree: KaryTree, w: int | None = None, name: str = "karytree") -> str:
    """DOT text for a tree, nodes numbered by BFS position; with w given,
    nodes show their w-labeling."""
    lines = [f"digraph {name} {{", "  node [shape=circle];"]
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
