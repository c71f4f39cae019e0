"""Extended Motzkin paths with long up and down steps.

A (k,l)-extended Motzkin path is a lattice path of rises r_i with
r_i >= 1 (up), r_i = 0 (flat) or -(k-1) <= r_i <= -1 (down), whose
prefix heights never go below zero and whose final height is at most l.
path_of/sequence_of_path realize the rise-based bijection with
(k,l)-threshold sequences: y_i = s_i - i*k.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import add
from typing import Iterator

from .errors import HeightExceedsLimitError, InvalidParameterError
from .exactmath import check_knr
from .threshold import (
    ThresholdParams, ThresholdSequence, capped, int_entries, json_object, unshifted)


@dataclass(frozen=True, slots=True)
class ExtMotzkinPath:
    k: int
    rises: tuple[int, ...]

    def __post_init__(self) -> None:
        check_knr(self.k)
        if not isinstance(self.rises, tuple):
            raise InvalidParameterError(f"rises must be a tuple, got {self.rises!r}")
        int_entries(self.rises, "rise")
        if not self.rises or (min(self.rises) > -self.k
                              and min(accumulate(self.rises)) >= 0):
            return  # valid; otherwise the loop names the first bad step
        height = 0
        for i, rise in enumerate(self.rises, start=1):
            if rise < -(self.k - 1):
                raise InvalidParameterError(
                    f"down step {rise} at position {i} exceeds k-1 = {self.k - 1}")
            height += rise
            if height < 0:
                raise InvalidParameterError(
                    f"path goes below the x-axis after step {i}")

    @classmethod
    def _of(cls, k: int, rises: tuple[int, ...]) -> ExtMotzkinPath:
        """The path of these rises, k and rises already valid."""
        path = object.__new__(cls)
        object.__setattr__(path, "k", k)
        object.__setattr__(path, "rises", rises)
        return path

    @property
    def n(self) -> int:
        return len(self.rises)

    @property
    def heights(self) -> tuple[int, ...]:
        """Prefix sums y_1, ..., y_n."""
        return tuple(accumulate(self.rises))

    @property
    def end_height(self) -> int:
        return sum(self.rises)

    def to_json(self) -> dict:
        return {"k": self.k, "rises": list(self.rises)}

    def json_text(self) -> str:
        """The text json.dumps(self.to_json()) writes."""
        return '{"k": %d, "rises": [%s]}' % (
            self.k, ", ".join(map(str, self.rises)))

    @classmethod
    def from_json(cls, data: dict | str) -> "ExtMotzkinPath":
        data = json_object(data, "k", "rises")
        rises = data["rises"]  # the constructor checks each rise
        if not isinstance(rises, (list, tuple)):
            raise InvalidParameterError(f"rises must be a list, got {rises!r}")
        return cls(data["k"], tuple(rises))


def path_of(seq: ThresholdSequence) -> ExtMotzkinPath:
    """Path(S): rise_i = s_i - s_{i-1} - k, with s_0 = 0."""
    k = seq.k
    prev = 0
    rises = []
    for v in unshifted(seq, "path_of"):
        rises.append(v - prev - k)
        prev = v
    return ExtMotzkinPath._of(k, tuple(rises))


def sequence_of_path(path: ExtMotzkinPath, l: int) -> ThresholdSequence:
    """Inverse of path_of: s_i = y_i + i*k.  The path's checks and the end
    height are validate's three predicates on s, so none runs twice."""
    params = ThresholdParams(path.k, l, path.n)
    if path.end_height > l:
        raise HeightExceedsLimitError(path.end_height, l)
    values = map(add, accumulate(path.rises), params.lowers)
    return ThresholdSequence(params, tuple(values))


def enumerate_paths(k: int, l: int, n: int,
                    budget: int | None = None) -> Iterator[ExtMotzkinPath]:
    """Yield every (k,l)-extended Motzkin path of length n exactly once.

    Up steps are bounded by the end-height reachability limit
    y_i <= l + (n-i)*(k-1), which makes the search finite and is y_n <= l
    at the end; rises are explored in increasing numeric order.
    """
    ThresholdParams(k, l, n).require_n("enumeration")
    rises: list[int] = []

    def extend(i: int, height: int) -> Iterator[ExtMotzkinPath]:
        if i > n:
            yield ExtMotzkinPath._of(k, tuple(rises))
            return
        low = -min(k - 1, height)
        high = l + (n - i) * (k - 1) - height
        for rise in range(low, high + 1):
            rises.append(rise)
            yield from extend(i + 1, height + rise)
            rises.pop()

    return capped(extend(1, 0), budget)


def is_classic_motzkin(path: ExtMotzkinPath) -> bool:
    """True iff every rise is in {-1, 0, 1} and the path returns to 0."""
    return all(-1 <= r <= 1 for r in path.rises) and path.end_height == 0


def render_ascii(path: ExtMotzkinPath) -> str:
    """One column per lattice point, '*' at the path's points."""
    points = [0, *path.heights]
    top = max(points)
    rows = []
    for level in range(top, -1, -1):
        rows.append("".join("*" if y == level else "." for y in points))
    return "\n".join(rows)
