"""Span-recording wrappers around the library's layer boundaries.

For a traced run the public functions are replaced at every module
attribute that holds them (which is how verify and cli look them up:
trees.tuple_of, verify.raney, exactmath.binomial, ...) and restored
afterwards, even when an operation raises.  A generator function is
wrapped so that only the time spent inside next() counts.

Spans are kept in memory as flat arrays (name, start, end, parent),
written out and reduced at the end: a span's self time is its duration
minus the durations of its direct children, which nest inside it because
there is one thread and no queue.
"""

from __future__ import annotations

import json
import math
import sys
from array import array
from contextlib import contextmanager
from importlib import import_module
from dataclasses import dataclass, field
from time import perf_counter

# (module, attribute path, kind); kind "gen" wraps a generator function.
LAYERS = [
    ("threshold", "enumerate_sequences", "gen"),
    ("threshold", "validate", "call"),
    ("trees", "tuple_of", "call"),
    ("trees", "sequence_of_tuple", "call"),
    ("trees", "TreeTuple.__hash__", "call"),
    ("trees", "TreeTuple.to_json", "call"),
    ("trees", "enumerate_tuples", "gen"),
    ("paths", "path_of", "call"),
    ("paths", "sequence_of_path", "call"),
    ("paths", "enumerate_paths", "gen"),
    ("ballot", "to_ballot", "call"),
    ("ballot", "from_ballot", "call"),
    ("ballot", "is_k_ballot_isolated", "call"),
    ("exactmath", "raney", "call"),
    ("exactmath", "binomial", "call"),
    ("verify", "oracle_sequences", "call"),
    ("verify", "check_bijections", "call"),
    ("cli", "main", "call"),
]
NAMES = [f"{module}.{attr}" for module, attr, _ in LAYERS]
# Layers that a known-defect probe can make fail.
PROBED = ["trees.tuple_of", "trees.sequence_of_tuple", "paths.path_of",
          "paths.sequence_of_path", "ballot.to_ballot", "ballot.from_ballot",
          "threshold.enumerate_sequences", "paths.enumerate_paths", "cli.main"]


def _objects(name: str, result) -> int:
    """Objects a returned call handled: sequences found by the oracle and
    sequences verified by check_bijections; one for every other call."""
    if name == "verify.oracle_sequences":
        return result[0]
    if name == "verify.check_bijections":
        return next((cell.expected for cell in result.cells
                     if cell.params.get("check") == "tuple-injective"), 0)
    return 1


def _oracle_candidates(k: int, l: int, n: int, *_) -> int:
    """Subsets the oracle scans: every n-subset of [k, kn+l]."""
    return math.comb(k * n + l - k + 1, n)


@dataclass
class Tracer:
    """Span store.  Spans are recorded only while `enabled` is true, so the
    benchmark's own checks between operations leave no spans."""

    enabled: bool = False
    name: array = field(default_factory=lambda: array("i"))
    start: array = field(default_factory=lambda: array("d"))
    end: array = field(default_factory=lambda: array("d"))
    parent: array = field(default_factory=lambda: array("i"))
    objects: array = field(default_factory=lambda: array("q"))
    failed: array = field(default_factory=lambda: array("b"))
    oracle_scanned: int = 0
    stack: list = field(default_factory=list)

    def open(self, name_id: int) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self.stack[-1] if self.stack else -1)
        self.end.append(0.0)
        self.objects.append(0)
        self.failed.append(0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int, objects: int, failed: bool) -> None:
        self.end[idx] = perf_counter()
        self.objects[idx] = objects
        self.failed[idx] = failed
        del self.stack[self.stack.index(idx):]

    def call_wrapper(self, name_id: int, fn):
        name = NAMES[name_id]
        is_cli = name == "cli.main"
        is_oracle = name == "verify.oracle_sequences"

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            if is_oracle:
                self.oracle_scanned += _oracle_candidates(*args)
            lines_before = _lines_written() if is_cli else 0
            idx = self.open(name_id)
            objects, failed = 0, True
            try:
                result = fn(*args, **kwargs)
                if is_cli:
                    objects = _lines_written() - lines_before
                    failed = result != 0
                else:
                    objects, failed = _objects(name, result), False
                return result
            finally:
                self.close(idx, objects, failed)
        return traced

    def gen_wrapper(self, name_id: int, fn):
        tracer = self

        class TracedIterator:
            def __init__(self, it):
                self.it = it

            def __iter__(self):
                return self

            def __next__(self):
                if not tracer.enabled:
                    return next(self.it)
                idx = tracer.open(name_id)
                objects, failed = 0, True
                try:
                    item = next(self.it)
                    objects, failed = 1, False
                    return item
                except StopIteration:
                    failed = False
                    raise
                finally:
                    tracer.close(idx, objects, failed)

        def traced(*args, **kwargs):
            return TracedIterator(fn(*args, **kwargs))
        return traced

    def summary(self) -> dict[str, dict]:
        """Per layer: calls, objects, self_s, us_per_obj and failures, plus
        the counts behind the two ratios."""
        child_time = [0.0] * len(self.name)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child_time[p] += self.end[i] - self.start[i]
        out = {n: {"calls": 0, "objects": 0, "self_s": 0.0, "failures": 0}
               for n in NAMES}
        raney_id = NAMES.index("exactmath.raney")
        binomial_id = NAMES.index("exactmath.binomial")
        binomial_in_raney = 0
        for i, name_id in enumerate(self.name):
            row = out[NAMES[name_id]]
            row["calls"] += 1
            row["objects"] += self.objects[i]
            row["self_s"] += self.end[i] - self.start[i] - child_time[i]
            row["failures"] += self.failed[i]
            p = self.parent[i]
            if name_id == binomial_id and p >= 0 and self.name[p] == raney_id:
                binomial_in_raney += 1
        for row in out.values():
            row["us_per_obj"] = (row["self_s"] / row["objects"] * 1e6
                                 if row["objects"] else 0.0)
        out["exactmath.binomial"]["calls_per_raney"] = (
            binomial_in_raney / out["exactmath.raney"]["calls"]
            if out["exactmath.raney"]["calls"] else 0.0)
        oracle = out["verify.oracle_sequences"]
        oracle["useful_ratio"] = (oracle["objects"] / self.oracle_scanned
                                  if self.oracle_scanned else 0.0)
        return out


    def write(self, path: str) -> None:
        """Write the spans: a JSON header line naming the arrays, then the
        arrays' raw bytes in that order (read back with array.fromfile)."""
        fields = ["name", "parent", "start", "end", "objects", "failed"]
        header = {"names": NAMES, "spans": len(self.name),
                  "arrays": [[f, getattr(self, f).typecode] for f in fields]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for f in fields:
                getattr(self, f).tofile(fh)


def _lines_written() -> int:
    return getattr(sys.stdout, "lines", 0)


def _resolve(module, path: str):
    owner = module
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def installed(tracer: Tracer):
    """Replace every layer function wherever a raneyseq module binds it,
    and put the originals back on exit."""
    layer_modules = [import_module(f"raneyseq.{module_name}")
                     for module_name, _, _ in LAYERS]
    modules = [m for key, m in sorted(sys.modules.items())
               if key == "raneyseq" or key.startswith("raneyseq.")]
    saved = []
    try:
        for name_id, (module, (_, path, kind)) in enumerate(
                zip(layer_modules, LAYERS)):
            owner, attr = _resolve(module, path)
            original = owner.__dict__[attr]
            make = tracer.gen_wrapper if kind == "gen" else tracer.call_wrapper
            wrapper = make(name_id, original)
            if owner is module:
                targets = [(m, key) for m in modules
                           for key, value in list(vars(m).items())
                           if value is original]
            else:  # a method has its one binding on the class
                targets = [(owner, attr)]
            for target, key in targets:
                saved.append((target, key, original))
                setattr(target, key, wrapper)
        yield tracer
    finally:
        for target, key, original in reversed(saved):
            setattr(target, key, original)
