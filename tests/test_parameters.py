"""Every public entry point that takes k, l, n, d, r or w rejects a value of
the wrong type or range with InvalidParameterError naming the parameter;
each constructor and reader also rejects a container of the wrong type."""

import inspect
import re

import pytest

from raneyseq import ballot, exactmath, paths, threshold, trees, verify
from raneyseq.ballot import BallotWord
from raneyseq.errors import InvalidParameterError
from raneyseq.paths import ExtMotzkinPath
from raneyseq.threshold import ThresholdParams, ThresholdSequence
from raneyseq.trees import KaryTree, TreeTuple

SEQ = threshold.validate((3, 6), ThresholdParams(3, 1, 2))
WORD = ballot.to_ballot(SEQ)
TUPLE = trees.tuple_of(SEQ)
GOOD = {"k": 3, "l": 1, "n": 2, "r": 2, "d": 0, "w": 3}
BAD = {"k": [1, 2.0, True, "3"], "n": [-1, 1.0], "r": [0, 1.0],
       "l": [True, 0.0], "d": [0.5, True], "w": [3.0, True, 2.5]}

# Each entry point, called with the parameters its lambda names.
ENTRY_POINTS = {
    "ThresholdParams": lambda k, l, n, d: ThresholdParams(k, l, n, d),
    "ThresholdSequence.from_json": lambda k, l, n, d: ThresholdSequence.from_json(
        {"k": k, "l": l, "n": n, "d": d, "values": [3, 6]}),
    "shift": lambda d: threshold.shift(SEQ, d),
    "ExtMotzkinPath": lambda k: ExtMotzkinPath(k, (1, -1)),
    "ExtMotzkinPath.from_json": lambda k: ExtMotzkinPath.from_json(
        {"k": k, "rises": [1, -1]}),
    "BallotWord": lambda k: BallotWord(k, "AAAAB"),
    "KaryTree": lambda k: KaryTree(k),
    "KaryTree.from_json": lambda k: KaryTree.from_json(k, "[null, null, null]"),
    "trivial": lambda k: trees.trivial(k),
    "build_from_internal_labels": lambda k, w: trees.build_from_internal_labels(
        k, w, [3]),
    "internal_labels": lambda w: trees.internal_labels(trees.trivial(3), w),
    "to_dot": lambda w: trees.to_dot(trees.trivial(3), w),
    "TreeTuple": lambda k: TreeTuple(k, (trees.trivial(3),)),
    "enumerate_sequences": lambda k, l, n: threshold.enumerate_sequences(
        ThresholdParams(k, l, n)),
    "enumerate_trees": lambda k, n: trees.enumerate_trees(k, n),
    "enumerate_tuples": lambda k, r, n: trees.enumerate_tuples(k, r, n),
    "enumerate_paths": lambda k, l, n: paths.enumerate_paths(k, l, n),
    "raney": lambda k, r, n: exactmath.raney(k, r, n),
    "raney_convolution": lambda k, r, n: exactmath.raney_convolution(k, r, n),
    "fuss_catalan": lambda k, n: exactmath.fuss_catalan(k, n),
    "motzkin": lambda n: exactmath.motzkin(n),
    "is_k_ballot_isolated": lambda k: ballot.is_k_ballot_isolated(WORD, k),
    "sequence_of_tuple": lambda n: trees.sequence_of_tuple(TUPLE, n),
    "oracle_sequences": lambda k, l, n: verify.oracle_sequences(k, l, n),
    "check_raney_difference": lambda k, l: verify.check_raney_difference(k, l, 3),
    "check_section2_recurrences": lambda n: verify.check_section2_recurrences(n),
    "check_prop4": lambda n: verify.check_prop4(n),
    "check_catalan_pow2": lambda n: verify.check_catalan_pow2(n),
    "check_prop6": lambda n: verify.check_prop6(n),
}


def _args(entry):
    return list(inspect.signature(ENTRY_POINTS[entry]).parameters)


@pytest.mark.parametrize("entry", ENTRY_POINTS)
def test_good_parameters_accepted(entry):
    ENTRY_POINTS[entry](**{name: GOOD[name] for name in _args(entry)})


@pytest.mark.parametrize("entry,name,value", [
    pytest.param(entry, name, value, id=f"{entry}-{name}={value!r}")
    for entry in ENTRY_POINTS for name in _args(entry) for value in BAD[name]])
def test_bad_parameter_named(entry, name, value):
    args = {arg: GOOD[arg] for arg in _args(entry)} | {name: value}
    # k = 1, the one bad int k, reads the same everywhere
    pattern = "^k must be >= 2$" if name == "k" and type(value) is int \
        else rf"\b{name}\b"
    with pytest.raises(InvalidParameterError, match=pattern):
        ENTRY_POINTS[entry](**args)


# The letters, rises, trees, children and JSON entry lists of each type,
# each given as a container of the wrong type.
BAD_CONTAINERS = {
    "values-5": lambda: ThresholdSequence.from_json(
        '{"k":3,"l":0,"n":1,"values":5}'),
    "rises-null": lambda: ExtMotzkinPath.from_json('{"k":3,"rises":null}'),
    "letters-int": lambda: BallotWord(3, 5),
    "letters-bytes": lambda: BallotWord(3, b"AAB"),
    "rises-list": lambda: ExtMotzkinPath(3, [1, 0]),
    "trees-list": lambda: TreeTuple(3, [trees.trivial(3)]),
    "trees-none": lambda: TreeTuple(3, (None,)),
    "children-none": lambda: KaryTree(3, [None] * 3),
    "children-5": lambda: KaryTree(3, 5),
    "children-is-none": lambda: KaryTree(3, None),
}


@pytest.mark.parametrize("build", BAD_CONTAINERS.values(), ids=BAD_CONTAINERS)
def test_container_of_the_wrong_type_rejected(build):
    with pytest.raises(InvalidParameterError):
        build()


@pytest.mark.parametrize("build", [
    pytest.param(lambda d: ThresholdParams(3, 1, 2, d), id="ThresholdParams"),
    pytest.param(lambda d: threshold.shift(SEQ, d), id="shift")])
@pytest.mark.parametrize("d", BAD["d"])
def test_bad_d_named_alone(build, d):
    # the caller's l is good, so no rule of l may be stated
    with pytest.raises(InvalidParameterError) as exc:
        build(d)
    assert not re.search(r"\bl\b", str(exc.value))
