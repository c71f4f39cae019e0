"""(k,l)-threshold sequences: validation, properness, cut index, offsets,
lexicographic enumeration and exact counts.

A (k,l)-threshold sequence of length n (k >= 2, 0 <= l <= k-2) is a
strictly increasing integer sequence s_1 < ... < s_n with
k*i + d <= s_i <= k*n + l + d for a fixed offset d (d = 0 by default).
It is proper when s_n hits the upper bound exactly.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, replace
from typing import Iterable, Iterator, Sequence

from . import exactmath
from .errors import (
    BoundViolationError,
    BudgetExceededError,
    InvalidParameterError,
    NotIncreasingError,
)


@dataclass(frozen=True, slots=True)
class ThresholdParams:
    k: int
    l: int
    n: int
    d: int = 0

    def __post_init__(self) -> None:
        exactmath.check_knr(self.k, self.n)
        if type(self.l) is type(self.d) is int and 0 <= self.l <= self.k - 2:
            return
        for name, value in (("l", self.l), ("d", self.d)):
            if type(value) is not int:
                raise InvalidParameterError(f"{name} must be an int, got {value!r}")
        # l = k-1 would merely re-encode length-(n+1) prefixes; reject it so
        # the count contracts stay honest.
        raise InvalidParameterError(f"l must satisfy 0 <= l <= k-2, got l={self.l}")

    def require_n(self, name: str) -> None:
        """Raise InvalidParameterError unless n >= 1, as name requires."""
        if self.n < 1:
            raise InvalidParameterError(f"{name} requires n >= 1")

    @property
    def lowers(self) -> range:
        """Lower bounds k*i + d of the values, i = 1 ... n."""
        return range(self.k + self.d, self.k * self.n + self.d + 1, self.k)

    @property
    def upper(self) -> int:
        """Common upper bound k*n + l + d."""
        return self.k * self.n + self.l + self.d


def trusted(cls: type) -> type:
    """Give cls, a class of two slots, the constructor _of(first, second)
    for valid values: it sets the slots through their descriptors, unchecked."""
    set_first, set_second = (getattr(cls, n).__set__ for n in cls.__slots__)
    new = object.__new__

    def _of(first, second):
        obj = new(cls)
        set_first(obj, first)
        set_second(obj, second)
        return obj
    cls._of = staticmethod(_of)
    return cls


@trusted
@dataclass(frozen=True, slots=True)
class ThresholdSequence:
    """Checked on construction: the first offending (1-based) index raises
    NotIncreasingError if its value does not rise, else BoundViolationError."""

    params: ThresholdParams
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        params, values = self.params, self.values
        if not isinstance(params, ThresholdParams):
            raise InvalidParameterError(
                f"params must be a ThresholdParams, got {params!r}")
        if not isinstance(values, tuple):
            raise InvalidParameterError(f"values must be a tuple, got {values!r}")
        if len(values) != params.n:
            raise InvalidParameterError(
                f"expected {params.n} values, got {len(values)}")
        upper, lowers = params.upper, params.lowers
        # Strict increase bounds every value by the last, so only the last is
        # compared with the upper bound.
        if (all(map(operator.lt, values, values[1:]))
                and all(map(operator.le, lowers, values))
                and (not values or values[-1] <= upper)):
            return
        for i, (lower, value) in enumerate(zip(lowers, values), start=1):
            if i > 1 and not values[i - 2] < value:
                raise NotIncreasingError(i)
            if not lower <= value <= upper:
                raise BoundViolationError(i, value)

    @property
    def k(self) -> int:
        return self.params.k

    @property
    def l(self) -> int:
        return self.params.l

    @property
    def n(self) -> int:
        return self.params.n

    @property
    def d(self) -> int:
        return self.params.d

    def to_json(self) -> dict:
        return {"k": self.k, "l": self.l, "n": self.n, "d": self.d,
                "values": list(self.values)}

    def json_text(self) -> str:
        """The text json.dumps(self.to_json()) writes, for int values."""
        p = self.params
        return '{"k": %d, "l": %d, "n": %d, "d": %d, "values": [%s]}' % (
            p.k, p.l, p.n, p.d, ", ".join(map(str, self.values)))

    @classmethod
    def from_json(cls, data: dict | str) -> "ThresholdSequence":
        data = json_object(data, "k", "l", "n", "values")
        params = ThresholdParams(data["k"], data["l"], data["n"], data.get("d", 0))
        return cls(params, int_entries(data["values"], "value"))


def json_object(data: dict | str, *keys: str) -> dict:
    """The JSON object that data is or holds as text, with every key."""
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, dict):
        raise InvalidParameterError(f"not a JSON object: {data!r}")
    for key in keys:
        if key not in data:
            raise InvalidParameterError(f"missing key {key!r}")
    return data


def int_entries(items: list | tuple, name: str) -> tuple[int, ...]:
    """The items of a list or tuple as a tuple; the first that is not an int,
    bool included, raises InvalidParameterError with its (1-based) index."""
    if not isinstance(items, (list, tuple)):
        raise InvalidParameterError(f"{name}s must be a list, got {items!r}")
    items = tuple(items)
    for i, item in enumerate(items, start=1):
        if type(item) is not int:
            raise InvalidParameterError(
                f"{name} {item!r} at index {i} is not an integer")
    return items


def validate(values: Iterable[int], params: ThresholdParams) -> ThresholdSequence:
    """The checked sequence of values, which may be any iterable."""
    return ThresholdSequence(params, tuple(values))


def unshifted(seq: ThresholdSequence, name: str) -> tuple[int, ...]:
    """The values of seq; InvalidParameterError unless d = 0, as name requires."""
    if seq.d != 0:
        raise InvalidParameterError(f"{name} requires offset 0")
    return seq.values


def is_proper(seq: ThresholdSequence) -> bool:
    """True iff s_n = k*n + l + d."""
    seq.params.require_n("is_proper")
    return seq.values[-1] == seq.params.upper


def cut_index(seq: ThresholdSequence) -> int:
    """Largest i < n with s_i < s_n - (n-i)*k, or 0 if none.

    Defined for unshifted sequences only; normalize via shift first.
    """
    values = unshifted(seq, "cut_index")
    seq.params.require_n("cut_index")
    return cut_of(values, seq.k)


def cut_of(values: Sequence[int], k: int) -> int:
    """The cut index of a bare value list (see cut_index)."""
    bound = values[-1]
    for i in range(len(values) - 1, 0, -1):
        bound -= k  # s_n - (n-i)*k
        if values[i - 1] < bound:
            return i
    return 0


def capped(items: Iterable, budget: int | None) -> Iterator:
    """Yield the items, raising BudgetExceededError in place of the
    (budget+1)-th; budget None means no cap."""
    for count, item in enumerate(items, start=1):
        if budget is not None and count > budget:
            raise BudgetExceededError(budget)
        yield item


def enumerate_sequences(params: ThresholdParams,
                        budget: int | None = None) -> Iterator[ThresholdSequence]:
    """Yield every (k,l)-threshold sequence with the given parameters,
    exactly once, in lexicographic order of value lists.  s_i stops n - i
    below the upper bound, so every prefix entered can complete."""
    params.require_n("enumeration")
    n, upper, lowers = params.n, params.upper, params.lowers
    prefix: list[int] = []

    def extend(i: int) -> Iterator[ThresholdSequence]:
        if i > n:
            yield ThresholdSequence._of(params, tuple(prefix))
            return
        start = lowers[i - 1]
        if prefix:
            start = max(start, prefix[-1] + 1)
        for v in range(start, upper - (n - i) + 1):
            prefix.append(v)
            yield from extend(i + 1)
            prefix.pop()

    return capped(extend(1), budget)


def count(params: ThresholdParams) -> int:
    """Number of (k,l)-threshold sequences of length n: the Raney number
    R_n^(k, l+1)."""
    return exactmath.raney(params.k, params.l + 1, params.n)


def count_proper(params: ThresholdParams) -> int:
    """Number of proper (k,l)-threshold sequences of length n: the Raney
    number R_{n-1}^(k, k+l).  At l = 0 every sequence is proper, and this
    is count, R_n^(k, 1): a k-ary tree with n internal nodes is a root
    over a k-tuple of trees with n - 1 internal nodes in total."""
    params.require_n("count_proper")
    return exactmath.raney(params.k, params.k + params.l, params.n - 1)


def shift(seq: ThresholdSequence, d: int) -> ThresholdSequence:
    """Translate all values and the offset by d (count-preserving)."""
    replace(seq.params, d=d)  # checks d itself, not only the new offset
    params = replace(seq.params, d=seq.d + d)
    return ThresholdSequence._of(params, tuple(v + d for v in seq.values))
