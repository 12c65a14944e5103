"""The value, endpoint and label rules at the door: what ``PFGraph(...)`` holds, and every pass on it.

The checking constructor refuses four kinds of degree with
ConstraintViolation: one that is not a (mu, nu) pair, one with a bool
component, one with a component that is neither an int nor a float, and one
with an int that ``float()`` cannot convert.  It refuses with DanglingEdge
an edge it keeps whose endpoint is not a vertex, and with
ConstraintViolation vertex labels that ``<`` cannot put in a strict order;
``union`` and ``join`` refuse such labels in their combined labels.
Everything else stays as given, and every public pass on a graph it accepts
answers or raises a PFGError, or a TypeError for an argument that is not a
graph; one that renders it writes a document that reads back to the same
graph.
"""

import inspect
import itertools
import math
import sys
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import pfgraph
from pfgraph import (
    ConstraintViolation,
    DanglingEdge,
    JoinOverlap,
    LabelClash,
    MorphismKind,
    PFDegree,
    PFGError,
    PFGraph,
    PairKey,
    cartesian_product,
    classify,
    complement,
    complete_complement,
    composition,
    degrees_close,
    find_morphism,
    graphs_close,
    half_strong_construction,
    hesitation,
    is_self_complementary,
    join,
    parse,
    render,
    strong_complement,
    strong_sum_identity,
    sum_identity,
    to_dot,
    union,
    UnknownVertex,
    validate,
    verify_morphism,
)
from pfgraph.classify import SELF_COMPLEMENT_VARIANTS
from pfgraph.core import _FLOAT_INT_LIMIT

D = PFDegree(0.5, 0.5)


def converts(value) -> bool:
    try:
        float(value)
    except OverflowError:
        return False
    return True


def accepted(degree) -> bool:
    """The constructor's rule, written from its statement: a pair of ints and
    floats, not bools, each of which float() converts."""
    return (
        isinstance(degree, tuple)
        and len(degree) == 2
        and all(
            isinstance(x, (int, float)) and not isinstance(x, bool) and converts(x) for x in degree
        )
    )


class TestRefusal:
    @pytest.mark.parametrize(
        "degree, problem",
        [
            (None, "degree must be a (mu, nu) pair"),
            (0.5, "degree must be a (mu, nu) pair"),
            ("ab", "degree must be a (mu, nu) pair"),
            ((0.5,), "degree must be a (mu, nu) pair"),
            ((0.5, 0.5, 0.5), "degree must be a (mu, nu) pair"),
            ([0.5, 0.5], "degree must be a (mu, nu) pair"),
            ((True, 0.5), "'mu' must be a number"),
            ((0.5, False), "'nu' must be a number"),
            (("0.5", 0.5), "'mu' must be a number"),
            ((0.5, None), "'nu' must be a number"),
            ((0.5j, 0.5), "'mu' must be a number"),
            ((Fraction(1, 2), 0.5), "'mu' must be a number"),
            ((0.5, Decimal("0.5")), "'nu' must be a number"),
            ((10**400, 0.5), "'mu' value " + repr(10**400) + " is beyond float range"),
            ((0.5, -_FLOAT_INT_LIMIT), "'nu' value " + repr(-_FLOAT_INT_LIMIT) + " is beyond float range"),
        ],
        ids=["None", "float", "str", "1-tuple", "3-tuple", "list", "bool-mu", "bool-nu", "str-mu",
             "None-nu", "complex-mu", "fraction-mu", "decimal-nu", "10**400-mu", "minus-limit-nu"],
    )
    @pytest.mark.parametrize("entry", ["vertex", "edge"])
    def test_each_kind_is_refused_with_where_it_sits(self, entry, degree, problem):
        with pytest.raises(ConstraintViolation) as refused:
            if entry == "vertex":
                PFGraph({"a": degree})
            else:
                PFGraph({"a": D, "b": D}, {("b", "a"): degree})
        where = "vertex 'a'" if entry == "vertex" else "edge a-b"
        assert str(refused.value) == f"{where}: {problem}"

    def test_the_float_range_limit_is_float_s_own(self):
        # the least int magnitude float() cannot convert, and the largest it can
        for big in (_FLOAT_INT_LIMIT, -_FLOAT_INT_LIMIT):
            assert not converts(big)
            with pytest.raises(ConstraintViolation, match="is beyond float range"):
                PFGraph({"a": PFDegree(big, 0.5)})
        for big in (_FLOAT_INT_LIMIT - 1, -(_FLOAT_INT_LIMIT - 1), 2**1023):
            assert converts(big)
            assert PFGraph({"a": PFDegree(big, 0.5)}).vertices["a"].mu is big

    def test_labels_are_named_safely(self):
        with pytest.raises(ConstraintViolation, match=r"^vertex \('x', 1\): 'nu' must be a number$"):
            PFGraph({("x", 1): (0.5, True)})
        with pytest.raises(ConstraintViolation, match=r"^edge 1-2: degree must be a \(mu, nu\) pair$"):
            PFGraph({1: D, 2: D}, {(2, 1): None})

    @pytest.mark.parametrize("key", [("a",), ("a", "b", "c"), 5, ()], ids=repr)
    def test_edge_key_that_is_not_a_pair_is_refused(self, key):
        with pytest.raises(ConstraintViolation) as refused:
            PFGraph({"a": D}, {key: D})
        assert str(refused.value) == f"edge key {key!r} is not a pair of vertex labels"

    def test_self_loop_key_still_raises_value_error(self):
        with pytest.raises(ValueError, match="^self-loop on vertex 'a' is not allowed$"):
            PFGraph({"a": D}, {("a", "a"): D})


class TestAcceptance:
    def test_plain_tuples_become_degrees_with_their_numbers(self):
        g = PFGraph({"a": (0.5, 0.5), "b": (1, 0)}, [(("a", "b"), (0.5, 0))])
        for degree in (*g.vertices.values(), *g.edges.values()):
            assert type(degree) is PFDegree
        assert type(g.vertices["b"].mu) is int and g.vertices["b"] == (1, 0)
        assert type(g.edges[PairKey("a", "b")].nu) is int

    def test_degree_objects_are_kept(self):
        d, e = PFDegree(1, 0), PFDegree(0.5, 0.25)
        g = PFGraph({"a": d, "b": D}, {("a", "b"): e})
        assert g.vertices["a"] is d and g.edges[PairKey("a", "b")] is e

    def test_plain_tuple_graphs_run_every_pass_that_needs_attributes(self):
        # join and pair_bound read .mu and .nu
        g, h = PFGraph({"a": (0.5, 0.5)}), PFGraph({"b": (0.5, 0.5)})
        assert join(g, h).edges == {PairKey("a", "b"): PFDegree(0.5, 0.5)}
        assert PFGraph({"a": (0.5, 0.7), "b": (0.6, 0.2)}).pair_bound("a", "b") == (0.5, 0.7)

    def test_out_of_range_values_stay_and_are_reported(self):
        wide = 10**200
        for mu, nu, details in [
            (math.nan, 0.5, ["membership nan outside [0, 1]"]),
            (math.inf, 0.0, ["membership inf outside [0, 1]",
                             "membership inf and non-membership 0.0 have squared sum > 1"]),
            (0.0, -math.inf, ["non-membership -inf outside [0, 1]",
                              "membership 0.0 and non-membership -inf have squared sum > 1"]),
            (1.5, 0.0, ["membership 1.5 outside [0, 1]",
                        "membership 1.5 and non-membership 0.0 have squared sum > 1"]),
            (-0.0, 1, []),
            (wide, 0.5, [f"membership {wide} outside [0, 1]",
                         f"membership {wide} and non-membership 0.5 have squared sum > 1"]),
            (wide, math.nan, [f"membership {wide} outside [0, 1]", "non-membership nan outside [0, 1]"]),
        ]:
            g = PFGraph({"a": (mu, nu)})
            assert type(g.vertices["a"]) is PFDegree
            assert g.vertices["a"][0] is mu and g.vertices["a"][1] is nu
            assert [v.detail for v in validate(g).violations] == details, (mu, nu)


VALUES = st.one_of(
    st.floats(),
    st.integers(),
    st.integers(2**1000, 2**1100).map(lambda x: x * (-1) ** (x & 1)),
    st.sampled_from(
        [2**1023, -(2**1023), 10**200, _FLOAT_INT_LIMIT - 1, _FLOAT_INT_LIMIT, -_FLOAT_INT_LIMIT,
         10**400, True, False, "0.5", None, 0.5j, Fraction(1, 2), Decimal("0.5")]
    ),
)
DEGREES = st.one_of(
    st.builds(PFDegree, VALUES, VALUES),
    st.tuples(VALUES, VALUES),
    st.tuples(VALUES),
    st.tuples(VALUES, VALUES, VALUES),
    st.lists(VALUES, min_size=2, max_size=2),
    VALUES,
)


@given(vertex=DEGREES, edge=DEGREES)
def test_constructor_refuses_exactly_the_four_kinds(vertex, edge):
    for vertices, edges, degree in (({"a": vertex}, {}, vertex), ({"a": D, "b": D}, {("a", "b"): edge}, edge)):
        if accepted(degree):
            g = PFGraph(vertices, edges)
            stored = g.vertices["a"] if not edges else g.edges.get(PairKey("a", "b"))
            if stored is not None:  # an exactly (0, 0) edge is no edge
                assert type(stored) is PFDegree
                assert stored[0] is degree[0] and stored[1] is degree[1]
        else:
            with pytest.raises(ConstraintViolation):
                PFGraph(vertices, edges)


HUGE = 10**5000  # past CPython's default int-string limit: repr and str raise for it
# every value the constructor accepts, the ends of float range included
ACCEPTED = st.one_of(
    st.floats(),
    st.integers(-(2**1023), 2**1023),
    st.sampled_from(
        [2**1023, -(2**1023), 10**200, -(10**200), _FLOAT_INT_LIMIT - 1, 1, 0, -0.0,
         math.nan, math.inf, -math.inf, 1.5]
    ),
)
IN_RANGE = st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.25, 0.5, 1.0, 0, 1]))
# label pools: plain strs; odd strs (empty, a lone surrogate, one products
# cannot compose); numbers with NaN (two objects) and an int past the
# int-string limit; tuples, some holding that int; frozensets, some of which
# neither contains the other; and one of each kind
LABEL_POOLS = [
    ["a", "b", "c", "d", "e"],
    ["a", "b", "", "\ud800", "x(y"],
    [1, 2, -3, 2.5, HUGE, float("nan"), float("nan")],
    [("x", 1), ("x", 2), ("y", HUGE), ("x", HUGE), ("y",)],
    [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})],
    ["a", 1, 2.5, float("nan"), ("x", HUGE), frozenset({1})],
]


def in_strict_order(labels) -> bool:
    """The label rule, written from its statement: ``<`` orders every two
    distinct labels one way."""
    try:
        return all(a < b or b < a for a, b in itertools.combinations(labels, 2))
    except TypeError:
        return False


def refusal(vertices, edges):
    """The error ``PFGraph(vertices, edges)`` raises for its labels, written
    from the rules' statements, or None: ConstraintViolation when the two
    labels of an edge key given are not ordered, then DanglingEdge when an
    edge it keeps (one not exactly (0, 0)) names a label that is not a
    vertex, then ConstraintViolation when the vertex labels are not in a
    strict order."""
    if not all(map(in_strict_order, edges)):
        return ConstraintViolation
    if any(label not in vertices for key, degree in edges.items() if degree != (0.0, 0.0) for label in key):
        return DanglingEdge
    if not in_strict_order(vertices):
        return ConstraintViolation
    return None


@st.composite
def graph_specs(draw):
    """(vertices, edges) for ``PFGraph(...)``: in half of them every value
    lies in [0, 1], labels come from one pool, mostly the plain strs, and
    edges may dangle."""
    values = draw(st.sampled_from([IN_RANGE, ACCEPTED]))
    pool = LABEL_POOLS[0] if draw(st.booleans()) else draw(st.sampled_from(LABEL_POOLS))
    chosen = draw(st.lists(st.sampled_from(range(len(pool))), unique=True, max_size=5))
    declared = chosen if draw(st.integers(0, 3)) else chosen[:-1]  # the last one may only be an endpoint
    pairs = [(i, j) for i in chosen for j in chosen if i < j]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=6)) if pairs else []
    degree = st.builds(PFDegree, values, values)
    return (
        {pool[i]: draw(degree) for i in declared},
        {(pool[i], pool[j]): draw(degree) for i, j in edges},
    )


@settings(max_examples=300)
@given(graph_specs())
def test_constructor_refuses_exactly_the_labels_lt_cannot_order(spec):
    vertices, edges = spec
    refused = refusal(vertices, edges)
    if refused is None:
        g = PFGraph(vertices, edges)
        assert list(g.vertices) == list(vertices)
    elif refused is DanglingEdge:
        with pytest.raises(DanglingEdge, match=" uses undeclared vertex "):
            PFGraph(vertices, edges)
    else:
        with pytest.raises(ConstraintViolation, match="^vertex labels cannot be put in a strict order: "):
            PFGraph(vertices, edges)


def accepted_graphs():
    """A graph the constructor accepts, from :func:`graph_specs`."""
    specs = graph_specs().filter(lambda spec: refusal(*spec) is None)
    return specs.map(lambda spec: PFGraph(*spec))


def quietly(call, *args, **kwargs):
    """call's result, or None for a PFGError; any other exception propagates."""
    try:
        return call(*args, **kwargs)
    except PFGError:
        return None


@settings(deadline=None, max_examples=200)
@given(accepted_graphs(), accepted_graphs())
def test_every_public_pass_raises_nothing_but_pfg_errors(g, h):
    # the endpoint rule: every edge of a graph the constructor accepts joins two of its vertices
    for graph in (g, h):
        assert all(u in graph.vertices and v in graph.vertices for u, v in graph.edges)
    # h without g's vertices (and the edges on them), so that join has no overlap
    apart = PFGraph(
        {v: d for v, d in h.vertices.items() if v not in g.vertices},
        {key: d for key, d in h.edges.items() if not any(v in g.vertices for v in key)},
    )
    mapping = dict(zip(sorted(g.vertices), sorted(h.vertices)))
    built = [
        quietly(complement, g),
        quietly(strong_complement, g),
        quietly(strong_complement, g, force=True),
        quietly(complete_complement, g),
        quietly(complete_complement, g, force=True),
        quietly(cartesian_product, g, h),
        quietly(composition, g, h),
        quietly(half_strong_construction, g.vertices),
    ]
    for combine, other in ((union, h), (join, apart)):
        # union and join apply the label rule to the two graphs' labels together
        if in_strict_order({*g.vertices, *other.vertices}):
            built.append(quietly(combine, g, other))
        else:
            with pytest.raises(ConstraintViolation, match="^vertex labels cannot be put in a strict order: "):
                combine(g, other)
    for result in filter(None, built):
        # no builder makes a graph the constructor would refuse
        assert PFGraph(result.vertices, result.edges) == result
        for write in (validate, render, to_dot):
            quietly(write, result)
    for call in (validate, classify, sum_identity, strong_sum_identity, to_dot):
        quietly(call, g)
    text = quietly(render, g)
    if text is not None:
        assert parse(text, check=False) == g
    quietly(graphs_close, g, h)
    quietly(graphs_close, g, g)
    for kind in MorphismKind:
        quietly(find_morphism, g, h, kind)
        quietly(verify_morphism, g, h, kind, mapping)
    for variant in SELF_COMPLEMENT_VARIANTS:
        quietly(is_self_complementary, g, variant)
    degrees = [*g.vertices.values(), *h.edges.values()]
    for a, b in zip(degrees, degrees[1:]):
        degrees_close(a, b)
    for d in degrees:
        quietly(hesitation, d)


def graph_parameters(function) -> list[str]:
    """The names of the parameters of ``function`` that take a PFGraph."""
    return [name for name, p in inspect.signature(function).parameters.items() if p.annotation == "PFGraph"]


GRAPH_TAKERS = [
    function
    for function in map(pfgraph.__dict__.get, pfgraph.__all__)
    if inspect.isfunction(function) and graph_parameters(function)
]
OTHER_ARGUMENTS = {"kind": MorphismKind.ISOMORPHISM, "mapping": {"a": "a"}}


def test_the_public_passes_on_a_graph_are_all_found():
    assert sorted(function.__name__ for function in GRAPH_TAKERS) == [
        "cartesian_product", "classify", "complement", "complete_complement", "composition",
        "find_morphism", "graphs_close", "is_self_complementary", "join", "render",
        "strong_complement", "strong_sum_identity", "sum_identity", "to_dot", "union",
        "validate", "verify_morphism",
    ]


@pytest.mark.parametrize("function", GRAPH_TAKERS, ids=lambda function: function.__name__)
def test_a_graph_argument_that_is_not_a_graph_raises_type_error_naming_it(function):
    # a dict of degrees, the vertex map of a graph, has none of a graph's attributes
    g = PFGraph({"a": D})
    names = graph_parameters(function)
    others = {p: OTHER_ARGUMENTS[p] for p in inspect.signature(function).parameters if p in OTHER_ARGUMENTS}
    for name in names:
        arguments = {**others, **dict.fromkeys(names, g), name: dict(g.vertices)}
        with pytest.raises(TypeError, match=f"^{name} must be a PFGraph, not dict$"):
            function(**arguments)


INT_STRING_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
PAST = 10**INT_STRING_LIMIT if INT_STRING_LIMIT else 0  # one digit past the limit
HOMO = MorphismKind.HOMOMORPHISM
SELF_LOOP = "self-loop on vertex {} is not allowed"


def first_violation(g1, g2, mapping) -> str:
    return verify_morphism(g1, g2, HOMO, mapping).violations[0]


@pytest.mark.skipif(not INT_STRING_LIMIT, reason="this interpreter has no int-string limit")
@pytest.mark.parametrize(
    "call, raises, message",
    [
        (lambda: cartesian_product(PFGraph({PAST: D}), PFGraph({"a": D})), LabelClash,
         "vertex label {} is not a string and cannot be composed into a product label"),
        (lambda: composition(PFGraph({"a": D}), PFGraph({PAST: D})), LabelClash,
         "vertex label {} is not a string and cannot be composed into a product label"),
        (lambda: join(PFGraph({PAST: D}), PFGraph({PAST: D})), JoinOverlap,
         "join requires disjoint vertex sets; shared: [{}]"),
        (lambda: first_violation(PFGraph({PAST: (0.9, 0.1)}), PFGraph({PAST: (0.1, 0.9)}), {PAST: PAST}),
         None, "vertex condition fails at {0} -> {0}"),
        (lambda: first_violation(PFGraph({PAST: D, 3: D}, {(PAST, 3): (0.2, 0.3)}), PFGraph({PAST: D, 3: D}),
                                 {PAST: PAST, 3: 3}),
         None, "edge condition fails at pair 3-{0} -> 3-{0}"),
        (lambda: verify_morphism(PFGraph({"a": D}), PFGraph({"b": D}), HOMO, {"a": PAST}), UnknownVertex,
         "mapping values not in the target graph: [{}]"),
        (lambda: PFGraph({PAST: D}, {(PAST, PAST): D}), ValueError, SELF_LOOP),
        (lambda: PFGraph({PAST: D}).edge_degree(PAST, PAST), ValueError, SELF_LOOP),
        (lambda: PFGraph({PAST: D}).has_edge(PAST, PAST), ValueError, SELF_LOOP),
        (lambda: PFGraph({PAST: D}).pair_bound(PAST, PAST), ValueError, SELF_LOOP),
    ],
    ids=["cartesian_product", "composition", "join-overlap", "verify-vertex", "verify-edge",
         "verify-unknown", "self-loop", "edge_degree", "has_edge", "pair_bound"],
)
def test_labels_past_the_int_string_limit_are_named_by_their_bit_length(call, raises, message):
    # formatting such a label with repr or str raises a bare ValueError
    expected = message.format(f"<int of {PAST.bit_length()} bits>")
    if raises is None:
        assert call() == expected
    else:
        with pytest.raises(raises) as raised:
            call()
        assert str(raised.value) == expected


class TestDegreesClose:
    def test_int_beyond_float_range_is_close_to_no_float(self):
        big = 10**400
        assert not degrees_close(PFDegree(big, 0), PFDegree(0.5, 0))
        assert not degrees_close(PFDegree(0.5, 0), PFDegree(0.5, -big))
        assert not degrees_close(PFDegree(big, 0), PFDegree(math.inf, 0), eps=1e300)

    def test_two_such_ints_are_compared_exactly(self):
        big = 10**400
        assert degrees_close(PFDegree(big, 0.5), PFDegree(big, 0.5))
        assert degrees_close(PFDegree(big, 0.5), PFDegree(big + 1, 0.5), eps=1)
        assert not degrees_close(PFDegree(big, 0.5), PFDegree(big + 2, 0.5), eps=1)
