"""The label, value and endpoint rules at the door: what ``PFGraph(...)`` holds, and every pass on it.

The checking constructor refuses with ConstraintViolation a vertex label or
an edge endpoint that is not an exact str, is empty, or does not encode as
UTF-8.  It refuses four kinds of degree with ConstraintViolation: one that
is not a (mu, nu) pair, one with a bool component, one with a component
that is neither an int nor a float, and one with an int that ``float()``
cannot convert.  It refuses with DanglingEdge an edge it keeps whose
endpoint is not a vertex.  Everything else stays as given, and every public pass on a graph it accepts
answers or raises a PFGError, or a TypeError for an argument that is not a
graph; one that renders it writes a document that reads back to the same
graph.
"""

import inspect
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


INT_STRING_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
PAST = 10**INT_STRING_LIMIT if INT_STRING_LIMIT else 0  # one digit past the limit


class Label(str):
    """A str subclass: it could override ``<`` or ``__hash__``, and a
    document would bring it back as a plain str."""


# each label the label rule refuses, and how the refusal names it
REFUSED_LABELS = [
    pytest.param(1, "1 must be a str, not int", id="int"),
    pytest.param(True, "True must be a str, not bool", id="bool"),
    pytest.param(math.nan, "nan must be a str, not float", id="nan"),
    pytest.param(("a", "b"), "('a', 'b') must be a str, not tuple", id="tuple"),
    pytest.param(frozenset({"a"}), "frozenset({'a'}) must be a str, not frozenset", id="frozenset"),
    pytest.param(None, "None must be a str, not NoneType", id="None"),
    pytest.param("", "'' must be non-empty", id="empty"),
    pytest.param("\ud800", "'\\ud800' does not encode as UTF-8", id="lone-surrogate"),
    pytest.param(Label("a"), "'a' must be a str, not Label", id="str-subclass"),
    pytest.param(
        PAST, f"<int of {PAST.bit_length()} bits> must be a str, not int", id="past-int-string-limit",
        marks=pytest.mark.skipif(not INT_STRING_LIMIT, reason="this interpreter has no int-string limit"),
    ),
]


@pytest.mark.parametrize("label, named", REFUSED_LABELS)
def test_a_vertex_label_that_is_not_a_non_empty_utf8_str_is_refused(label, named):
    for vertices in ({label: D}, {"z": D, label: D}, {label: D, "z": D}):
        with pytest.raises(ConstraintViolation) as refused:
            PFGraph(vertices)
        assert str(refused.value) == f"vertex label {named}"


@pytest.mark.parametrize("label, named", REFUSED_LABELS)
def test_an_edge_endpoint_that_is_not_a_non_empty_utf8_str_is_refused(label, named):
    # the endpoints are checked before the key is built, so < never sees a
    # label it cannot compare, and an edge that is no edge (0, 0) is no exception
    for key in (("a", label), (label, "a")):
        for degree in (D, PFDegree(0.0, 0.0)):
            with pytest.raises(ConstraintViolation) as refused:
                PFGraph({"a": D}, [(key, degree)])
            assert str(refused.value) == f"edge endpoint {named}"


def test_an_edge_endpoint_is_checked_in_any_key_form():
    # an unhashable endpoint, in an edge given as an item, and a PairKey the caller built
    with pytest.raises(ConstraintViolation, match=r"^edge endpoint \['b'\] must be a str, not list$"):
        PFGraph({"a": D}, [(("a", ["b"]), D)])
    with pytest.raises(ConstraintViolation, match="^edge endpoint 1 must be a str, not int$"):
        PFGraph({"a": D}, {PairKey(1, 2): D})
    with pytest.raises(PFGError):
        PFGraph({"a": D}, {("a", 5): D})


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
# text label pools, which the label rule accepts: plain strs; strs that
# products cannot compose, that sort apart from their index order, or that
# are not ASCII; and five drawn strs, surrogates left out
TEXT_POOLS = st.sampled_from([["a", "b", "c", "d", "e"], ["x(y", "v10", "v2", "é", "\U0001d11e"]]) | st.lists(
    st.text(st.characters(blacklist_categories=("Cs",)), min_size=1), min_size=5, max_size=5, unique=True
)
# pools with labels the label rule refuses: odd strs (empty, a lone
# surrogate); numbers with NaN and an int past the int-string limit; tuples,
# some holding that int; frozensets; and one of each kind, a str subclass too
REFUSED_POOLS = st.sampled_from([
    ["a", "b", "", "\ud800", "x(y"],
    [1, 2, -3, 2.5, HUGE, float("nan"), float("nan")],
    [("x", 1), ("x", 2), ("y", HUGE), ("x", HUGE), ("y",)],
    [frozenset(), frozenset({1}), frozenset({2}), frozenset({1, 2})],
    ["a", 1, 2.5, float("nan"), ("x", HUGE), frozenset({1}), Label("b"), None],
])


def is_label(label) -> bool:
    """The label rule, written from its statement: a non-empty exact str
    that encodes as UTF-8."""
    if type(label) is not str or not label:
        return False
    try:
        label.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return True


def refusal(vertices, edges):
    """The error ``PFGraph(vertices, edges)`` raises for its labels, written
    from the rules' statements, or None: ConstraintViolation for a vertex
    label, then for an edge endpoint, that is not a label; then DanglingEdge
    when an edge it keeps (one not exactly (0, 0)) names a label that is not
    a vertex."""
    if not all(map(is_label, vertices)) or not all(is_label(label) for key in edges for label in key):
        return ConstraintViolation
    if any(label not in vertices for key, degree in edges.items() if degree != (0.0, 0.0) for label in key):
        return DanglingEdge
    return None


@st.composite
def graph_specs(draw, pools=TEXT_POOLS):
    """(vertices, edges) for ``PFGraph(...)``: in half of them every value
    lies in [0, 1], labels come from one pool, and edges may dangle."""
    values = draw(st.sampled_from([IN_RANGE, ACCEPTED]))
    pool = draw(pools)
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
@given(graph_specs(TEXT_POOLS | REFUSED_POOLS))
def test_constructor_refuses_exactly_what_breaks_the_label_rule(spec):
    vertices, edges = spec
    refused = refusal(vertices, edges)
    if refused is None:
        g = PFGraph(vertices, edges)
        assert list(g.vertices) == list(vertices)
    elif refused is DanglingEdge:
        with pytest.raises(DanglingEdge, match=" uses undeclared vertex "):
            PFGraph(vertices, edges)
    else:
        with pytest.raises(ConstraintViolation, match="^(vertex label|edge endpoint) "):
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
        quietly(union, g, h),
        quietly(join, g, apart),
    ]
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


HOMO = MorphismKind.HOMOMORPHISM
SELF_LOOP = "self-loop on vertex {} is not allowed"


@pytest.mark.skipif(not INT_STRING_LIMIT, reason="this interpreter has no int-string limit")
@pytest.mark.parametrize(
    "call, raises, message",
    [
        (lambda: verify_morphism(PFGraph({"a": D}), PFGraph({"b": D}), HOMO, {"a": PAST}), UnknownVertex,
         "mapping values not in the target graph: [{}]"),
        (lambda: PairKey(PAST, PAST), ValueError, SELF_LOOP),
        (lambda: PFGraph({"a": D}).edge_degree(PAST, PAST), ValueError, SELF_LOOP),
        (lambda: PFGraph({"a": D}).has_edge(PAST, PAST), ValueError, SELF_LOOP),
        (lambda: PFGraph({"a": D}).pair_bound(PAST, PAST), ValueError, SELF_LOOP),
        (lambda: PFGraph({"a": D}).pair_bound(PAST, PAST + 1), DanglingEdge, "edge {0}-{0} uses undeclared vertex {0}"),
    ],
    ids=["verify-unknown", "self-loop", "edge_degree", "has_edge", "pair_bound", "pair_bound-dangling"],
)
def test_labels_past_the_int_string_limit_are_named_by_their_bit_length(call, raises, message):
    # a caller's own value, not a label of a graph: formatting it with repr
    # or str raises a bare ValueError
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
