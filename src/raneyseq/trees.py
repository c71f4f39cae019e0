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
import re
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    EmptyTupleError,
    InvalidParameterError,
    UnreachableLabelError,
)
from .exactmath import check_knr
from .threshold import (
    ThresholdParams, ThresholdSequence, capped, cut_of, int_entries, trusted,
    unshifted, validate)


@dataclass(init=False, slots=True, unsafe_hash=True)
class KaryTree:
    """Unlabeled k-ary tree; children is empty (leaf) or has length k."""

    k: int
    word: bytes

    def __init__(self, k: int, children: Sequence[KaryTree] = ()) -> None:
        if not isinstance(children, (list, tuple)):
            raise InvalidParameterError(f"children must be a list, got {children!r}")
        # A leaf's JSON carries no arity, so the reader cannot see this.
        _check_arity(k, children, "child")
        self.k = k
        self.word = KaryTree._of_json(
            k, [child.to_json() for child in children] or None).word

    @classmethod
    def _of(cls, k: int, word: bytes) -> KaryTree:
        """The tree of a k-ary level-order word, k and word already checked."""
        tree = cls.__new__(cls)
        tree.k, tree.word = k, word
        return tree

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
        return self._fold(None, list)

    def json_text(self) -> str:
        """The text json.dumps(self.to_json()) writes, at any depth."""
        return self._fold("null", lambda kids: "[" + ", ".join(kids) + "]")

    def _fold(self, leaf, node):
        """The value of the tree bottom up: leaf at each leaf, node(the
        list of the k children's values) at each internal node."""
        k = self.k
        values = [leaf] * len(self.word)
        # In reverse BFS order the children of each internal node are the
        # last k values held, and every child comes before its parent.
        for p in reversed(list(itertools.compress(itertools.count(),
                                                  self.word))):
            kids = values[-k:]
            del values[-k:]
            values[p] = node(kids)
        return values[0]

    @classmethod
    def from_json(cls, k: int, data) -> KaryTree:
        if isinstance(data, str):
            data = _loads(data)
        return cls._of_json(k, data)

    @classmethod
    def _of_json(cls, k: int, data) -> KaryTree:
        """The tree of a decoded JSON encoding (a text node is malformed)."""
        check_knr(k)  # the arity first, whatever the encoding
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


def _check_arity(k: int, trees: Iterable, name: str) -> None:
    """Raise InvalidParameterError unless each tree is a KaryTree of arity k."""
    for tree in trees:
        if not isinstance(tree, KaryTree) or tree.k != k:
            raise InvalidParameterError(
                f"{name} not a KaryTree, or {name} arity mismatch")


def trivial(k: int) -> KaryTree:
    """The trivial tree: a single leaf."""
    check_knr(k)
    return _leaf(k)


def _leaf(k: int) -> KaryTree:
    """The trivial tree, k already checked."""
    return KaryTree._of(k, b"\x00")


@trusted
@dataclass(frozen=True, slots=True)
class TreeTuple:
    """Ordered tuple of k-ary trees (entries may be trivial)."""

    k: int
    trees: tuple[KaryTree, ...]

    def __post_init__(self) -> None:
        if not isinstance(self.trees, tuple):
            raise InvalidParameterError(f"trees must be a tuple, got {self.trees!r}")
        if not self.trees:
            raise InvalidParameterError("a tree tuple needs at least one entry")
        check_knr(self.k)
        _check_arity(self.k, self.trees, "tuple entry")

    @property
    def r(self) -> int:
        return len(self.trees)

    @property
    def internal_total(self) -> int:
        return sum(tree.internal_count for tree in self.trees)

    def to_json(self) -> list:
        return [tree.to_json() for tree in self.trees]

    def json_text(self) -> str:
        """The text json.dumps(self.to_json()) writes, at any depth."""
        return "[" + ", ".join(tree.json_text() for tree in self.trees) + "]"

    @classmethod
    def from_json(cls, k: int, data) -> "TreeTuple":
        if isinstance(data, str):
            data = _loads(data)
        if not isinstance(data, list):
            raise InvalidParameterError(f"a tree tuple is a list, got {data!r}")
        return cls(k, tuple(KaryTree._of_json(k, entry) for entry in data))


# After JSON whitespace: null, [, ], ",", any other character, "" at the end
_TOKEN = re.compile(r"[ \t\n\r]*(null|.|)", re.DOTALL)


def _loads(text: str):
    """The nested lists json.loads returns for a JSON text of nulls and
    arrays, read with a stack; any other text fails at its first bad token."""
    arrays: list[list] = [[]]  # the open arrays, innermost last, in a holder
    prev = ","  # a value comes first, as after a comma
    for match in _TOKEN.finditer(text):
        token, finished, inside = match[1], prev in ("null", "]"), len(arrays) > 1
        if token == "null" and not finished:
            arrays[-1].append(None)
        elif token == "[" and not finished:
            arrays.append([])
            arrays[-2].append(arrays[-1])
        elif token == "]" and prev != "," and inside:
            arrays.pop()
        elif not token and finished and not inside:
            return arrays[0][0]
        elif not (token == "," and finished and inside):
            raise InvalidParameterError(
                f"malformed tree text at character {match.start(1)}")
        prev = token


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
    check_knr(k)
    ordered = sorted(int_entries(labels, "label"), reverse=True)
    _check_w(w)
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


def _check_w(w: int) -> None:
    """Raise InvalidParameterError unless w is an int, bool excluded."""
    if type(w) is not int:
        raise InvalidParameterError(f"w must be an int, got {w!r}")


def internal_labels(tree: KaryTree, w: int) -> list[int]:
    """Labels of the internal nodes under the w-labeling, in BFS order."""
    _check_w(w)
    return list(itertools.compress(range(w, w - len(tree.word), -1),
                                   tree.word))


def tuple_of(seq: ThresholdSequence) -> TreeTuple:
    """Tuple(S): split S at successive cut indices, right to left.  The
    piece after the p-th cut is the tree A^p; it goes to position l_p + 1,
    where l_p is the level of the residual prefix Q_p before the cut.
    Every other position holds the trivial tree."""
    values = unshifted(seq, "tuple_of")
    seq.params.require_n("tuple_of")
    k = seq.k
    entries = [_leaf(k)] * (seq.l + 1)
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
    return TreeTuple._of(k, tuple(entries))


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
    params = ThresholdParams(t.k, t.r - 1, total if n is None else n)
    if params.n != total:
        raise InvalidParameterError(
            f"tuple has {total} internal nodes, expected {n}")
    descending: list[int] = []
    for y in range(t.r, 0, -1):
        descending += internal_labels(t.trees[y - 1],
                                      t.k * (total - len(descending)) + y - 1)
    return validate(descending[::-1], params)


def _compositions(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """The compositions of total into parts, in lexicographic order: those
    of the parts - 1 bars among total + parts - 1 places, in that order."""
    end = total + parts - 1
    for bars in itertools.combinations(range(end), parts - 1):
        yield tuple(b - a - 1 for a, b in zip((-1, *bars), (*bars, end)))


def _tree_words(k: int, n: int, table: list | None = None) -> Iterator[bytes]:
    """The words of the trees with n internal nodes, ordered by the
    lexicographic child internal-count composition, the last child fastest.

    The first composition of a size m, (0, ..., 0, m - 1), wraps each tree
    of size m - 1 under a root whose other children are leaves: its word
    gains a prefix of 1 and k - 1 zeros.  So size n is the wraps of the
    largest size built so far, then for each larger size m the (n - m)-fold
    wraps of the trees of its later compositions.  Those read the levels of
    the smaller sizes, equal bytes shared, from this call's own table, which
    only its recursive call, streaming size n - 1 again, is lent."""
    table = table or [[(b"\x00",)]]
    z, share = bytes(k - 1), {}.setdefault
    head = (b"\x01" + z) * (n + 1 - len(table))
    yield from (head + b"".join(levels) for levels in table[-1])
    for m in range(len(table), n + 1):
        head, later = (b"\x01" + z) * (n - m), []
        for comp in itertools.islice(_compositions(m - 1, k), 1, None):
            if max(comp) >= len(table):
                # m = n: a part n - 1 under the root, leaves beside it
                root = b"\x01" + bytes(map(bool, comp))
                yield from (root + word[1:]
                            for word in _tree_words(k, m - 1, table))
                continue
            for levels in map(_join, itertools.product(
                    *(table[c] for c in comp))):
                if m < n - 1:
                    levels = tuple(map(share, levels, levels))
                    later.append(levels)
                yield head + b"".join(levels)
        if m < n - 1:
            wraps = ((b"\x01", z + levels[0], *levels[1:])
                     for levels in table[m - 1])
            table.append([tuple(map(share, levels, levels))
                          for levels in wraps] + later)


def _trees(k: int, words: Iterable[bytes]) -> Iterator[KaryTree]:
    return map(KaryTree._of, itertools.repeat(k), words)


def enumerate_trees(k: int, n: int,
                    budget: int | None = None) -> Iterator[KaryTree]:
    """Yield each k-ary tree with n internal nodes exactly once, ordered by
    the lexicographic child internal-count composition."""
    check_knr(k, n)
    return capped(_trees(k, _tree_words(k, n)), budget)


def _iter_tuples(k: int, r: int, n: int) -> Iterator[TreeTuple]:
    """For each composition of n into r parts, in lexicographic order, the
    product of the trees of each part's size, the last part fastest.  Only
    the smaller sizes are kept: a part n, leaves beside it, streams size n."""
    leaves, smaller = itertools.repeat(_leaf(k)), []
    for comp in _compositions(n, r):
        if n in comp:
            parts = [leaves] * r
            parts[comp.index(n)] = _trees(k, _tree_words(k, n))
            tuples = zip(*parts)
        else:
            smaller = smaller or [list(_trees(k, _tree_words(k, m)))
                                  for m in range(n)]
            tuples = itertools.product(*(smaller[c] for c in comp))
        yield from map(TreeTuple._of, itertools.repeat(k), tuples)


def enumerate_tuples(k: int, r: int, n: int,
                     budget: int | None = None) -> Iterator[TreeTuple]:
    """Yield all ordered r-tuples of k-ary trees with n internal nodes in
    total, each exactly once."""
    check_knr(k, n, r)
    return capped(_iter_tuples(k, r, n), budget)


def to_dot(tree: KaryTree, w: int | None = None) -> str:
    """DOT text for a tree, nodes numbered by BFS position; with w given,
    nodes show their w-labeling."""
    if w is not None:
        _check_w(w)
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
