"""JSON document parsing/rendering and DOT export."""

import json
import math
import sys
import warnings

import pytest
from hypothesis import given, settings, strategies as st

from pfgraph import (
    ConstraintViolation,
    DanglingEdge,
    DuplicateEdge,
    DuplicateVertex,
    GenConfig,
    MalformedDocument,
    PFDegree,
    PFGError,
    PFGraph,
    generate,
    parse,
    render,
    to_dot,
    validate,
)
from pfgraph.core import sorted_vertices

from reference_codec import EPS, one_break_specs, reference_parse, reference_validate

SQUARE_CYCLE_DOC = json.dumps(
    {
        "format_version": 1,
        "vertices": [
            {"id": "a", "mu": 0.5, "nu": 0.7},
            {"id": "b", "mu": 0.8, "nu": 0.3},
            {"id": "c", "mu": 0.6, "nu": 0.5},
            {"id": "d", "mu": 0.4, "nu": 0.4},
        ],
        "edges": [
            {"u": "a", "v": "b", "mu": 0.4, "nu": 0.7},
            {"u": "b", "v": "c", "mu": 0.5, "nu": 0.45},
            {"u": "c", "v": "d", "mu": 0.3, "nu": 0.5},
            {"u": "d", "v": "a", "mu": 0.4, "nu": 0.6},
        ],
    }
)


class TestParse:
    def test_known_good_document(self, square_cycle):
        g = parse(SQUARE_CYCLE_DOC)
        assert g == square_cycle
        assert validate(g).ok

    def test_empty_document(self):
        g = parse('{"format_version":1,"vertices":[],"edges":[]}')
        assert g.vertices == {} and g.edges == {}

    def test_constraint_violation_carries_report(self):
        doc = json.dumps(
            {
                "format_version": 1,
                "vertices": [
                    {"id": "a", "mu": 0.6, "nu": 0.7},
                    {"id": "b", "mu": 0.6, "nu": 0.7},
                ],
                "edges": [{"u": "a", "v": "b", "mu": 0.7, "nu": 0.0}],
            }
        )
        with pytest.raises(ConstraintViolation) as err:
            parse(doc)
        assert err.value.report is not None
        assert err.value.report.violations[0].kind == "edge_membership_above_bound"
        # the same document loads when checking is deferred
        g = parse(doc, check=False)
        assert not validate(g).ok

    def test_syntax_error(self):
        with pytest.raises(MalformedDocument):
            parse("{not json")

    def test_integer_past_the_int_string_limit_is_malformed(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter has no int-string limit")
        text = '{"format_version": 1%s, "vertices": [], "edges": []}' % ("0" * limit)
        with pytest.raises(MalformedDocument, match=r"^not valid JSON: "):
            parse(text)

    def test_checked_parse_reports_in_the_reference_order(self):
        # every value is in range, so the schema checks pass and the squared
        # sums and the bounds are left to validate
        doc = json.dumps(
            {
                "format_version": 1,
                "vertices": [
                    {"id": "a", "mu": 0.5, "nu": 0.5},
                    {"id": "b", "mu": 0.8, "nu": 0.3},
                    {"id": "c", "mu": 0.9, "nu": 0.8},
                ],
                "edges": [{"u": "b", "v": "a", "mu": 0.7, "nu": 0.75}],
            }
        )
        with pytest.raises(ConstraintViolation) as err:
            parse(doc)
        with pytest.raises(ConstraintViolation) as expected:
            reference_parse(doc)
        found = [tuple(v) for v in err.value.report.violations]
        assert found == [tuple(v) for v in expected.value.report.violations]
        assert found == [
            ("bad_vertex_degree", "c",
             "membership 0.9 and non-membership 0.8 have squared sum > 1"),
            ("bad_edge_degree", "a-b",
             "membership 0.7 and non-membership 0.75 have squared sum > 1"),
            ("edge_membership_above_bound", "a-b",
             "edge membership 0.7 exceeds endpoint minimum 0.5"),
            ("edge_nonmembership_above_bound", "a-b",
             "edge non-membership 0.75 exceeds endpoint maximum 0.5"),
        ]
        assert str(err.value) == str(expected.value)

    def test_wrong_version(self):
        with pytest.raises(MalformedDocument):
            parse('{"format_version":2,"vertices":[],"edges":[]}')

    def test_value_out_of_range_rejected_at_schema_level(self):
        doc = '{"format_version":1,"vertices":[{"id":"a","mu":1.5,"nu":0}],"edges":[]}'
        with pytest.raises(MalformedDocument):
            parse(doc)

    def test_value_within_tolerance_of_range_accepted(self):
        # the same unit-range rule as validate, which accepts this degree
        doc = '{"format_version":1,"vertices":[{"id":"a","mu":1.0000000000001,"nu":0}],"edges":[]}'
        assert parse(doc).vertices["a"] == PFDegree(1.0000000000001, 0.0)

    def test_duplicate_vertex(self):
        doc = json.dumps(
            {
                "format_version": 1,
                "vertices": [
                    {"id": "a", "mu": 0.5, "nu": 0.5},
                    {"id": "a", "mu": 0.4, "nu": 0.4},
                ],
                "edges": [],
            }
        )
        with pytest.raises(DuplicateVertex):
            parse(doc)

    def test_duplicate_edge_in_either_order(self):
        doc = json.dumps(
            {
                "format_version": 1,
                "vertices": [
                    {"id": "a", "mu": 0.5, "nu": 0.5},
                    {"id": "b", "mu": 0.5, "nu": 0.5},
                ],
                "edges": [
                    {"u": "a", "v": "b", "mu": 0.2, "nu": 0.2},
                    {"u": "b", "v": "a", "mu": 0.1, "nu": 0.1},
                ],
            }
        )
        with pytest.raises(DuplicateEdge):
            parse(doc)

    def test_dangling_edge(self):
        doc = json.dumps(
            {
                "format_version": 1,
                "vertices": [{"id": "a", "mu": 0.5, "nu": 0.5}],
                "edges": [{"u": "a", "v": "zz", "mu": 0.1, "nu": 0.1}],
            }
        )
        with pytest.raises(DanglingEdge):
            parse(doc)

    def test_self_loop_is_malformed(self):
        doc = json.dumps(
            {
                "format_version": 1,
                "vertices": [{"id": "a", "mu": 0.5, "nu": 0.5}],
                "edges": [{"u": "a", "v": "a", "mu": 0.1, "nu": 0.1}],
            }
        )
        with pytest.raises(MalformedDocument):
            parse(doc)

    def test_zero_degree_edge_dropped_with_warning(self):
        doc = json.dumps(
            {
                "format_version": 1,
                "vertices": [
                    {"id": "a", "mu": 0.5, "nu": 0.5},
                    {"id": "b", "mu": 0.5, "nu": 0.5},
                ],
                "edges": [{"u": "a", "v": "b", "mu": 0.0, "nu": 0.0}],
            }
        )
        with pytest.warns(UserWarning, match="zero degree means no edge"):
            g = parse(doc)
        assert g.edges == {}

    @pytest.mark.parametrize("version", ["true", "1.0", '"1"'])
    def test_format_version_must_be_the_int_1(self, version):
        with pytest.raises(MalformedDocument, match=r"^format_version must be 1$"):
            parse('{"format_version": %s, "vertices": [], "edges": []}' % version)

    def test_deeply_nested_json_is_malformed(self):
        with pytest.raises(MalformedDocument, match="nested too deeply"):
            parse("[" * 100_000 + "]" * 100_000)

    @pytest.mark.parametrize("escape", ["\\ud800", "\\udc80", "a\\udfff"])
    @pytest.mark.parametrize("check", [True, False])
    def test_vertex_id_that_does_not_encode_as_utf8_is_malformed(self, escape, check):
        # valid JSON, but a lone surrogate cannot be written to a UTF-8 stream
        text = '{"format_version": 1, "vertices": [{"id": "%s", "mu": 0.5, "nu": 0.5}], "edges": []}'
        with pytest.raises(MalformedDocument, match="does not encode as UTF-8"):
            parse(text % escape, check=check)
        # an escaped pair is one code point, and non-ASCII labels still parse
        for label in ("\\ud83d\\ude00", "\\u00e9"):
            assert list(parse(text % label, check=check).vertices) == [json.loads(f'"{label}"')]


def _document(vertices, edges):
    return json.dumps(
        {
            "format_version": 1,
            "vertices": [{"id": label, "mu": mu, "nu": nu} for label, (mu, nu) in vertices],
            "edges": [{"u": u, "v": v, "mu": mu, "nu": nu} for (u, v), (mu, nu) in edges],
        }
    )


@pytest.mark.parametrize(
    "vertices, edges, error, message",
    [
        ([("a", (1.5, 0.0))], [], MalformedDocument, "vertex 'a': 'mu' value 1.5 outside [0, 1]"),
        (
            [("a", (0.5, 0.5)), ("b", (0.5, 0.5))],
            [(("b", "a"), (0.2, -0.5))],
            MalformedDocument,
            "edge a-b: 'nu' value -0.5 outside [0, 1]",
        ),
        (
            [("a", (0.9, 0.9))],
            [],
            ConstraintViolation,
            "document violates graph constraints "
            "(a: membership 0.9 and non-membership 0.9 have squared sum > 1)",
        ),
        (
            [("a", (0.6, 0.7)), ("b", (0.6, 0.7))],
            [(("a", "b"), (0.7, 0.0))],
            ConstraintViolation,
            "document violates graph constraints "
            "(a-b: edge membership 0.7 exceeds endpoint minimum 0.6)",
        ),
        (
            [("a", (0.9, 0.1)), ("b", (0.9, 0.2))],
            [(("b", "a"), (0.5, 0.4))],
            ConstraintViolation,
            "document violates graph constraints "
            "(a-b: edge non-membership 0.4 exceeds endpoint maximum 0.2)",
        ),
        (
            # a later schema error wins over an earlier constraint break
            [("a", (0.9, 0.9)), ("b", (0.5, 2))],
            [],
            MalformedDocument,
            "vertex 'b': 'nu' value 2 outside [0, 1]",
        ),
    ],
    ids=["vertex-range", "edge-range", "squared-sum", "edge-mu-bound", "edge-nu-bound", "order"],
)
def test_parse_errors_are_pinned(vertices, edges, error, message):
    with pytest.raises(error) as raised:
        parse(_document(vertices, edges))
    assert type(raised.value) is error and str(raised.value) == message


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
LABELS = st.sampled_from(["a", "b", "c", ""]) | JSON_VALUES
NUMBERS = st.sampled_from([0.0, 0.3, 0.6, 1.0, 1.0 + 1e-12, -0.0]) | JSON_VALUES
NEAR_DOCUMENTS = st.fixed_dictionaries(
    {
        "format_version": st.just(1) | JSON_VALUES,
        "vertices": st.lists(
            st.fixed_dictionaries({"id": LABELS, "mu": NUMBERS, "nu": NUMBERS}), max_size=4
        )
        | JSON_VALUES,
        "edges": st.lists(
            st.fixed_dictionaries({"u": LABELS, "v": LABELS, "mu": NUMBERS, "nu": NUMBERS}),
            max_size=4,
        )
        | JSON_VALUES,
    }
)


@settings(deadline=None)
@given(
    text=st.text() | JSON_VALUES.map(json.dumps) | NEAR_DOCUMENTS.map(json.dumps),
    check=st.booleans(),
)
def test_parse_returns_a_graph_or_raises_a_domain_error(text, check):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # zero-degree edges are dropped with a warning
        try:
            g = parse(text, check=check)
        except PFGError:
            return
    assert isinstance(g, PFGraph)
    if check:
        assert validate(g).ok


def _outcome(read, text, check):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            g = read(text, check=check)
            result = ("graph", g, repr(g))  # the repr tells -0.0 from 0.0
        except PFGError as exc:
            result = ("error", type(exc), str(exc), getattr(exc, "report", None))
    return result, [str(w.message) for w in caught]


@settings(deadline=None, max_examples=300)
@given(
    text=one_break_specs().map(lambda spec: _document(spec[0].items(), spec[1]))
    | NEAR_DOCUMENTS.map(json.dumps),
    check=st.booleans(),
)
def test_parse_agrees_with_the_reference(text, check):
    assert _outcome(parse, text, check) == _outcome(reference_parse, text, check)


def test_parse_and_validate_agree_with_the_references_on_a_grid():
    # one edge between two vertices, moved off its bound by fractions and
    # multiples of the tolerance in each field and declared in both orders:
    # each of the bound and squared-sum checks decides some case on its own
    corners = [(0.6, 0.8), (0.8, 0.6), (1.0, 0.0), (0.0, 1.0), (0.3, 0.4), (1 + EPS / 2, -EPS / 2)]
    moves = [0.0, 0.9 * EPS, 2 * EPS, -2 * EPS, 0.1]
    for a in corners:
        for b in corners:
            bound = (min(a[0], b[0]), max(a[1], b[1]))
            for dmu in moves:
                for dnu in moves:
                    edge = (bound[0] + dmu, bound[1] + dnu)
                    g = PFGraph({"a": PFDegree(*a), "b": PFDegree(*b)}, {("a", "b"): PFDegree(*edge)})
                    assert validate(g) == reference_validate(g)
                    for pair in (("a", "b"), ("b", "a")):
                        text = _document([("a", a), ("b", b)], [(pair, edge)])
                        assert _outcome(parse, text, True) == _outcome(reference_parse, text, True)


# every code point, lone surrogates and control characters included
ANY_TEXT = st.text(st.characters(blacklist_categories=()), max_size=6)
RENDER_LABELS = st.sampled_from(['"', "\\", 'a"b', "c\\d", "\x00", "\x1f", "\ud800", "é", "\u2028"]) | ANY_TEXT
# every value the constructor accepts: a bool, or an int float() cannot
# convert, is refused there (see test_bool_degree_is_refused_at_construction)
RENDER_VALUES = st.one_of(
    st.floats(),
    st.sampled_from([-0.0, math.nan, math.inf, -math.inf, 5e-324, 2.2250738585072014e-308, 1e16]),
    st.floats(1e15, 1e17),
    st.integers(-(2**1023), 2**1023),
)
RENDER_DEGREES = st.builds(PFDegree, RENDER_VALUES, RENDER_VALUES)


@st.composite
def render_graphs(draw):
    """Graphs with str, int or tuple labels (one kind per graph, so they sort)."""
    labels = draw(
        st.one_of(
            st.lists(RENDER_LABELS, unique=True, max_size=6),
            st.lists(st.integers(), unique=True, max_size=6),
            st.lists(st.tuples(st.integers(0, 2), ANY_TEXT), unique=True, max_size=6),
        )
    )
    pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=8)) if pairs else []
    return PFGraph(
        {label: draw(RENDER_DEGREES) for label in labels},
        {pair: draw(RENDER_DEGREES) for pair in chosen},
    )


@settings(deadline=None)
@given(render_graphs())
def test_render_is_json_dumps_with_indent_2(g):
    doc = {
        "format_version": 1,
        "vertices": [
            {"id": label, "mu": degree.mu, "nu": degree.nu} for label, degree in sorted_vertices(g)
        ],
        "edges": [
            {"u": key.lo, "v": key.hi, "mu": degree.mu, "nu": degree.nu}
            for key, degree in sorted(g.edges.items())
        ],
    }
    # json.dumps writes NaN and Infinity, which json.loads reads back, so an
    # entry parse rejects, unchecked, is rejected by parse's own rules
    expected = json.dumps(doc, indent=2) + "\n"
    try:
        parse(expected, check=False)
    except MalformedDocument as exc:
        with pytest.raises(MalformedDocument) as rendered:
            render(g)
        assert str(rendered.value) == str(exc)
    else:
        assert render(g) == expected


def assert_render_raises_what_parse_raises(g, message):
    """render(g) raises MalformedDocument with the message, which is the one
    parse(check=False) gives for the text json.dumps writes for g's entries."""
    doc = {
        "format_version": 1,
        "vertices": [{"id": v, "mu": mu, "nu": nu} for v, (mu, nu) in g.vertices.items()],
        "edges": [{"u": u, "v": v, "mu": mu, "nu": nu} for (u, v), (mu, nu) in g.edges.items()],
    }
    with pytest.raises(MalformedDocument) as parsed:
        parse(json.dumps(doc), check=False)
    with pytest.raises(MalformedDocument) as rendered:
        render(g)
    assert str(rendered.value) == str(parsed.value) == message


class TestRender:
    def test_round_trip_identity(self, square_cycle):
        assert parse(render(square_cycle)) == square_cycle

    @pytest.mark.parametrize(
        "vertices, edges, message",
        [
            ({1: (0.5, 0.5)}, {}, "vertex 'id' must be a non-empty string"),
            ({"": (0.5, 0.5)}, {}, "vertex 'id' must be a non-empty string"),
            ({"\ud800": (0.5, 0.5)}, {}, "vertex 'id' '\\ud800' does not encode as UTF-8"),
            ({"a": (0.5, 1.5)}, {}, "vertex 'a': 'nu' value 1.5 outside [0, 1]"),
            ({"a": (-0.2, 0.5)}, {}, "vertex 'a': 'mu' value -0.2 outside [0, 1]"),
            ({"a": (0.5, 0.5), "b": (0.5, 0.5)}, {("a", "b"): (1.5, 0.5)},
             "edge a-b: 'mu' value 1.5 outside [0, 1]"),
        ],
        ids=["int-id", "empty-id", "surrogate-id", "above-one", "below-zero", "edge-above-one"],
    )
    def test_entry_that_parse_rejects_raises_what_parse_raises(self, vertices, edges, message):
        g = PFGraph(
            {v: PFDegree(*d) for v, d in vertices.items()},
            {key: PFDegree(*d) for key, d in edges.items()},
        )
        assert_render_raises_what_parse_raises(g, message)

    def test_values_within_tolerance_of_the_unit_range_are_written(self):
        # the fast path's range test is parse's: -eps and 1 + eps are inside
        g = PFGraph({"a": PFDegree(-EPS, 1.0 + EPS)})
        assert parse(render(g), check=False) == g
        with pytest.raises(MalformedDocument, match="outside"):
            render(PFGraph({"a": PFDegree(-2 * EPS, 0.5)}))

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf], ids=repr)
    @pytest.mark.parametrize("entry", ["vertex", "edge"])
    def test_non_finite_degree_raises_what_parse_raises_for_the_text(self, entry, value):
        # json.dumps would write NaN or Infinity, which parse rejects even unchecked
        d = PFDegree(0.5, 0.5)
        if entry == "vertex":
            g = PFGraph({"a": PFDegree(value, 0.5)})
            message = f"vertex 'a': 'mu' value {value!r} outside [0, 1]"
        else:
            g = PFGraph({"a": d, "b": d}, {("b", "a"): PFDegree(0.2, value)})
            message = f"edge a-b: 'nu' value {value!r} outside [0, 1]"
        assert_render_raises_what_parse_raises(g, message)

    @pytest.mark.parametrize(
        "vertices, edges, message",
        [
            ({"a": (True, 0.5)}, {}, "vertex 'a': 'mu' must be a number"),
            ({"a": (0.5, 0.5), "b": (0.5, 0.5)}, {("a", "b"): (0.2, False)},
             "edge a-b: 'nu' must be a number"),
        ],
        ids=["bool-vertex", "bool-edge"],
    )
    def test_bool_degree_is_refused_at_construction(self, vertices, edges, message):
        # with parse's message for the text json.dumps writes for the entry
        with pytest.raises(ConstraintViolation) as refused:
            PFGraph(
                {v: PFDegree(*d) for v, d in vertices.items()},
                {key: PFDegree(*d) for key, d in edges.items()},
            )
        doc = {
            "format_version": 1,
            "vertices": [{"id": v, "mu": mu, "nu": nu} for v, (mu, nu) in vertices.items()],
            "edges": [{"u": u, "v": v, "mu": mu, "nu": nu} for (u, v), (mu, nu) in edges.items()],
        }
        with pytest.raises(MalformedDocument) as parsed:
            parse(json.dumps(doc), check=False)
        assert str(refused.value) == str(parsed.value) == message

    @pytest.mark.parametrize("entry", ["vertex", "edge"])
    def test_int_past_the_int_string_limit_is_refused_as_a_degree_and_malformed_as_a_label(self, entry):
        # as a degree it is beyond float range; as a label, render rejects it
        # as parse would and to_dot cannot write its digits
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter has no int-string limit")
        huge, d = 10**limit, PFDegree(0.5, 0.5)
        bits = f"<int of {huge.bit_length()} bits>"
        with pytest.raises(ConstraintViolation) as refused:
            if entry == "vertex":
                PFGraph({"a": PFDegree(huge, 0.5)})
            else:
                PFGraph({"a": d, "b": d}, {("b", "a"): PFDegree(0.2, huge)})
        where = "vertex 'a': 'mu'" if entry == "vertex" else "edge a-b: 'nu'"
        assert str(refused.value) == f"{where} value {bits} is beyond float range"
        if entry == "vertex":
            g = PFGraph({huge: d})
        else:
            g = PFGraph({huge: d, 3: d}, {(3, huge): PFDegree(0.2, 0.5)})
        with pytest.raises(MalformedDocument, match="^vertex 'id' must be a non-empty string$"):
            render(g)
        with pytest.raises(MalformedDocument, match="cannot be written as DOT"):
            to_dot(g)

    @pytest.mark.parametrize("write", [render, to_dot])
    def test_dangling_edge_with_unorderable_endpoint(self, write):
        d = PFDegree(0.5, 0.5)
        g = PFGraph({"a": d, "b": d}, {("a", 1): PFDegree(0.2, 0.3), ("a", "b"): d})
        with pytest.raises(DanglingEdge, match="edge 1-a uses undeclared vertex 1"):
            write(g)

    @pytest.mark.parametrize("write", [render, to_dot])
    @pytest.mark.parametrize("others", [{}, {("a", "b"): PFDegree(0.5, 0.5)}], ids=["alone", "beside"])
    def test_dangling_edge_raises_whatever_other_edges_the_graph_holds(self, write, others):
        # alone, the edge sorts without comparing 1 with a str; it raises all the same
        d = PFDegree(0.5, 0.5)
        g = PFGraph({"a": d, "b": d}, {("a", 1): PFDegree(0.2, 0.3), **others})
        with pytest.raises(DanglingEdge, match="^edge 1-a uses undeclared vertex 1$"):
            write(g)

    def test_render_never_writes_a_dangling_edge(self):
        g = PFGraph({"a": PFDegree(0.5, 0.5)}, {("a", "z"): PFDegree(0.2, 0.3)})
        with pytest.raises(DanglingEdge, match="^edge a-z uses undeclared vertex 'z'$"):
            render(g)

    def test_round_trip_on_generated_graphs(self):
        for seed in range(100):
            family = ("general", "strong", "complete", "half_strong")[seed % 4]
            g = generate(GenConfig(seed=seed, n_vertices=1 + seed % 6, family=family))
            assert parse(render(g)) == g

    def test_render_is_deterministic_for_equal_graphs(self, square_cycle):
        from conftest import build

        twin = build(
            {"d": (0.4, 0.4), "c": (0.6, 0.5), "b": (0.8, 0.3), "a": (0.5, 0.7)},
            {
                ("d", "a"): (0.4, 0.6),
                ("c", "d"): (0.3, 0.5),
                ("b", "c"): (0.5, 0.45),
                ("a", "b"): (0.4, 0.7),
            },
        )
        assert render(twin) == render(square_cycle)

    def test_output_is_sorted(self, square_cycle):
        doc = json.loads(render(square_cycle))
        ids = [entry["id"] for entry in doc["vertices"]]
        assert ids == sorted(ids)
        pairs = [(entry["u"], entry["v"]) for entry in doc["edges"]]
        assert pairs == sorted(pairs)
        assert all(u < v for u, v in pairs)


class TestDot:
    def test_empty_graph(self):
        from pfgraph import PFGraph

        assert to_dot(PFGraph({})).split() == ["graph", "G", "{", "}"]

    def test_single_vertex_label(self):
        from conftest import build

        text = to_dot(build({"a": (0.5, 0.7)}))
        assert 'a [label="a (0.5, 0.7)"];' in text

    def test_square_cycle_layout(self, square_cycle):
        text = to_dot(square_cycle)
        node_lines = [l for l in text.splitlines() if "[label=" in l and "--" not in l]
        edge_lines = [l for l in text.splitlines() if "--" in l]
        assert len(node_lines) == 4
        assert len(edge_lines) == 4
        assert 'a -- b [label="(0.4, 0.7)"];' in text

    def test_vertex_labels_are_escaped(self):
        g = PFGraph({'a"b': PFDegree(0.5, 0.5), "c\\d": PFDegree(0.25, 0.5)})
        assert to_dot(g).splitlines()[1:3] == [
            '  "a\\"b" [label="a\\"b (0.5, 0.5)"];',
            '  "c\\\\d" [label="c\\\\d (0.25, 0.5)"];',
        ]

    def test_labels_that_are_not_str_are_quoted(self):
        # render writes this graph; to_dot quotes and escapes each label's str()
        d = PFDegree(0.5, 0.5)
        assert to_dot(PFGraph({1: d, 2: d}, {(1, 2): PFDegree(0.25, 0.5)})) == (
            'graph G {\n'
            '  "1" [label="1 (0.5, 0.5)"];\n'
            '  "2" [label="2 (0.5, 0.5)"];\n'
            '  "1" -- "2" [label="(0.25, 0.5)"];\n'
            '}\n'
        )
        dangling = PFGraph({"a": d}, {("a", ("x", 'y"')): PFDegree(0.25, 0.5)})
        with pytest.raises(DanglingEdge, match=r"^edge a-\('x', 'y\"'\) uses undeclared vertex \('x', 'y\"'\)$"):
            to_dot(dangling)

    def test_composite_labels_are_quoted(self):
        from conftest import build
        from pfgraph import cartesian_product

        g1 = build({"a": (0.6, 0.3)})
        g2 = build({"c": (0.7, 0.5)})
        text = to_dot(cartesian_product(g1, g2))
        assert '"(a,c)"' in text

    def test_degree_entry_structure(self):
        from conftest import build

        g = build({"x": (0.25, 0.5), "y": (0.75, 0.25)}, {("x", "y"): (0.25, 0.5)})
        text = to_dot(g)
        assert text.startswith("graph G {\n")
        assert text.endswith("}\n")
        assert 'x -- y [label="(0.25, 0.5)"];' in text
