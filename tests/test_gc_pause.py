"""The builders that fill maps with GC-tracked tuples pause the cyclic GC per call.

``core.gc_paused`` disables the collector for a call made with it on, enables
it again however the call ends, and then runs the one young collection the
call's allocations made due.  A call made with the GC off, by the caller or
by an outer paused builder, changes nothing and collects nothing.
"""

import gc
import json
from contextlib import contextmanager

import pytest

from pfgraph import (
    ConstraintViolation,
    DanglingEdge,
    GenConfig,
    JoinOverlap,
    LabelClash,
    MalformedDocument,
    NotComplete,
    NotStrong,
    PFDegree,
    PFGraph,
    cartesian_product,
    complement,
    complete_complement,
    composition,
    generate,
    half_strong_construction,
    is_self_complementary,
    join,
    parse,
    render,
    strong_complement,
    union,
)

from conftest import relabel

SMALL = generate(GenConfig(seed=5, n_vertices=6))
OTHER = relabel(generate(GenConfig(seed=6, n_vertices=5)), "r")
LARGE = generate(GenConfig(seed=7, n_vertices=80))  # its complement keeps about 3,000 degrees
STRONG = generate(GenConfig(seed=8, n_vertices=6, family="strong"))
COMPLETE = generate(GenConfig(seed=9, n_vertices=6, family="complete"))
DOCUMENT = render(SMALL)

BUILDS = {
    "complement": lambda: complement(LARGE),
    "strong_complement": lambda: strong_complement(STRONG),
    "complete_complement": lambda: complete_complement(COMPLETE),
    "cartesian_product": lambda: cartesian_product(SMALL, OTHER),
    "composition": lambda: composition(SMALL, OTHER),
    "union": lambda: union(SMALL, SMALL),
    "join": lambda: join(SMALL, OTHER),
    "parse": lambda: parse(DOCUMENT),
    "generate": lambda: generate(GenConfig(seed=1, n_vertices=40)),
    "generate_half_strong": lambda: generate(GenConfig(seed=1, n_vertices=40, family="half_strong")),
    "half_strong_construction": lambda: half_strong_construction(LARGE.vertices),
}

D = PFDegree(0.5, 0.5)
DANGLING_DOCUMENT = json.dumps(
    {"format_version": 1, "vertices": [{"id": "a", "mu": 0.5, "nu": 0.5}],
     "edges": [{"u": "a", "v": "b", "mu": 0.5, "nu": 0.5}]}
)

FAILURES = {
    "complement_over_bound": (
        ConstraintViolation,
        lambda: complement(PFGraph({"a": D, "b": D}, {("a", "b"): PFDegree(0.9, 0.1)})),
    ),
    "strong_complement": (NotStrong, lambda: strong_complement(SMALL)),
    "complete_complement": (NotComplete, lambda: complete_complement(SMALL)),
    "cartesian_product": (LabelClash, lambda: cartesian_product(SMALL, PFGraph({"x,y": D}))),
    "composition": (LabelClash, lambda: composition(PFGraph({"x(": D}), SMALL)),
    "join": (JoinOverlap, lambda: join(SMALL, SMALL)),
    "parse_malformed": (MalformedDocument, lambda: parse("{}")),
    "parse_dangling": (DanglingEdge, lambda: parse(DANGLING_DOCUMENT)),
    "half_strong_construction": (ConstraintViolation, lambda: half_strong_construction({1: D, "a": D})),
}


@contextmanager
def collections():
    """The generation of every collection that starts inside the block, in order."""
    seen = []

    def hook(phase, info):
        if phase == "start":
            seen.append(info["generation"])

    gc.callbacks.append(hook)
    try:
        yield seen
    finally:
        gc.callbacks.remove(hook)


@contextmanager
def gc_state(enabled=True, threshold0=None):
    """Run the block with the GC on or off and gen 0's threshold replaced, then restore both."""
    was_enabled, threshold = gc.isenabled(), gc.get_threshold()
    (gc.enable if enabled else gc.disable)()
    if threshold0 is not None:
        gc.set_threshold(threshold0, *threshold[1:])
    try:
        yield
    finally:
        gc.set_threshold(*threshold)
        (gc.enable if was_enabled else gc.disable)()


@pytest.mark.parametrize("name", BUILDS)
def test_gc_is_on_after_a_paused_builder_returns(name):
    with gc_state():
        BUILDS[name]()
        assert gc.isenabled()


@pytest.mark.parametrize("name", FAILURES)
def test_gc_is_on_after_a_paused_builder_raises(name):
    error, call = FAILURES[name]
    with gc_state():
        with pytest.raises(error):
            call()
        assert gc.isenabled()


@pytest.mark.parametrize("name", BUILDS)
def test_gc_turned_off_by_the_caller_stays_off_and_collects_nothing(name):
    with gc_state(enabled=False), collections() as seen:
        BUILDS[name]()
        assert not gc.isenabled()
    assert seen == []


def test_a_paused_call_runs_one_young_collection_as_it_returns():
    # unpaused, the complement of LARGE triggers several collections on the default threshold
    with gc_state(), collections() as seen:
        gc.collect()
        seen.clear()
        complement(LARGE)
        assert gc.get_count()[0] < gc.get_threshold()[0]
    assert seen == [0]


@pytest.mark.parametrize("name", BUILDS)
def test_a_zero_threshold_gets_no_explicit_collection(name):
    with gc_state(threshold0=0), collections() as seen:
        BUILDS[name]()
        assert gc.isenabled()
    assert seen == []


def test_is_self_complementary_leaves_the_gc_on():
    g = generate(GenConfig(seed=3, n_vertices=6, family="half_strong"))
    with gc_state():
        assert is_self_complementary(g).found
        assert gc.isenabled()


@pytest.mark.parametrize(
    "builder",
    [complement, strong_complement, complete_complement, cartesian_product, composition, union, join,
     parse, generate, half_strong_construction],
)
def test_paused_builders_keep_their_name_and_docstring(builder):
    assert builder.__name__ == builder.__wrapped__.__name__
    assert builder.__doc__ == builder.__wrapped__.__doc__
