"""Checks of the span-recording wrappers.

Run from the repository root with
    python -m pytest -q perfbench/test_tracing.py
"""

from __future__ import annotations

import os
import sys
from time import perf_counter

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "src"))

import raneyseq  # noqa: E402
from raneyseq import exactmath, threshold, trees, verify  # noqa: E402
from raneyseq.threshold import ThresholdParams  # noqa: E402

import tracing  # noqa: E402


def _bindings():
    return [trees.tuple_of, trees.validate, threshold.validate, verify.raney,
            exactmath.raney, raneyseq.tuple_of, trees.TreeTuple.__hash__,
            threshold.enumerate_sequences]


def test_wrappers_are_restored_when_an_operation_raises():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with tracing.installed(tracing.Tracer()):
            assert trees.tuple_of is not before[0]
            assert verify.raney is exactmath.raney is not before[3]
            raise RuntimeError("operation failed")
    assert all(a is b for a, b in zip(_bindings(), before))


def test_self_times_add_up_to_the_traced_wall_time():
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        tracer.enabled = True
        start = perf_counter()
        report = verify.check_bijections(2, 0, 4)
        total = threshold.count(ThresholdParams(3, 1, 6))
        wall = perf_counter() - start
        tracer.enabled = False
    assert report.passed and total == exactmath.raney(3, 2, 6)
    layers = tracer.summary()
    self_total = sum(row["self_s"] for row in layers.values())
    assert 0 < self_total <= wall
    assert layers["verify.check_bijections"]["objects"] == 14
    assert layers["trees.tuple_of"]["calls"] == 14
    assert layers["threshold.enumerate_sequences"]["objects"] == 14
    assert layers["threshold.enumerate_sequences"]["calls"] == 15
    assert layers["exactmath.binomial"]["calls_per_raney"] == 2


def test_spans_are_off_unless_enabled():
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        trees.tuple_of(threshold.validate([2, 4], ThresholdParams(2, 0, 2)))
    assert len(tracer.name) == 0
