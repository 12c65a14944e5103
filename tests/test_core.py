"""Core value types: degree arithmetic, pair keys, and graph validation."""

import copy
import json
import math
import pickle
import sys

import pytest
from hypothesis import given, strategies as st

from pfgraph import (
    ConstraintViolation,
    DanglingEdge,
    MalformedDocument,
    PFDegree,
    GenConfig,
    PFGraph,
    PairKey,
    ZERO_DEGREE,
    complement,
    complete_complement,
    degree_max_min,
    degree_min_max,
    degrees_close,
    generate,
    graphs_close,
    half_strong_construction,
    hesitation,
    parse,
    render,
    set_tolerance,
    tolerance,
    validate,
)

from conftest import FLOAT_INT_LIMIT, build
from reference_builders import pair_rows
from reference_codec import boundary_specs, door, one_break_specs, reference_validate


def valid_degrees():
    """Strategy drawing degree pairs satisfying the squared-sum constraint."""
    return (
        st.tuples(
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        )
        .filter(lambda p: p[0] ** 2 + p[1] ** 2 <= 1.0)
        .map(lambda p: PFDegree(*p))
    )


class TestValidate:
    def test_square_cycle_is_valid(self, square_cycle):
        assert validate(square_cycle).ok

    def test_empty_graph_is_valid(self):
        assert validate(PFGraph({})).ok

    def test_edgeless_graph_is_valid(self):
        assert validate(build({"a": (0.5, 0.5), "b": (0.1, 0.9)})).ok

    def test_edge_membership_above_endpoint_minimum(self):
        g = build({"a": (0.6, 0.7), "b": (0.6, 0.7)}, {("a", "b"): (0.7, 0.0)})
        report = validate(g)
        assert not report.ok
        kinds = {v.kind for v in report.violations}
        assert kinds == {"edge_membership_above_bound"}

    def test_edge_nonmembership_above_endpoint_maximum(self):
        g = build({"a": (0.9, 0.1), "b": (0.9, 0.2)}, {("a", "b"): (0.5, 0.4)})
        report = validate(g)
        assert [v.kind for v in report.violations] == ["edge_nonmembership_above_bound"]

    def test_vertex_degree_breaking_squared_sum(self):
        g = build({"a": (0.9, 0.9)})
        report = validate(g)
        assert report.violations[0].kind == "bad_vertex_degree"

    def test_out_of_range_vertex_degree(self):
        g = build({"a": (1.2, 0.0)})
        kinds = [v.kind for v in validate(g).violations]
        assert "bad_vertex_degree" in kinds

    def test_empty_vertex_id_reported(self):
        # the constructor refuses it, as parse refuses it in a document, so
        # no graph holds one for validate to see
        with pytest.raises(ConstraintViolation, match="^vertex label '' must be non-empty$"):
            PFGraph({"": PFDegree(0.5, 0.5)})
        with pytest.raises(MalformedDocument, match="^vertex 'id' must be a non-empty string$"):
            parse(_document([""], []))

    @pytest.mark.parametrize("label", ["\ud800", "\udc80", "a\udfff"])
    def test_vertex_id_that_does_not_encode_as_utf8_reported(self, label):
        # render would write it as a JSON escape that parse rejects, so the
        # constructor refuses it, in parse's wording, beside a label that encodes
        with pytest.raises(ConstraintViolation) as refused:
            PFGraph({label: PFDegree(0.5, 0.5), "é": PFDegree(0.5, 0.5)})
        assert str(refused.value) == f"vertex label {label!r} does not encode as UTF-8"
        with pytest.raises(MalformedDocument) as parsed:
            parse(_document([label, "é"], []))
        assert str(parsed.value) == f"vertex 'id' {label!r} does not encode as UTF-8"

    @pytest.mark.parametrize(
        "labels, key_raises",
        [((1, "a"), TypeError), ((math.nan, 0.5, 0.25), ConstraintViolation),
         ((frozenset({1}), frozenset({2})), ConstraintViolation)],
        ids=["int-and-str", "nan", "frozensets"],
    )
    def test_labels_without_strict_order_are_refused_at_the_door(self, labels, key_raises):
        # each holds a label that is not a str, so the constructor refuses it
        # as a vertex or an endpoint before < sees it; a PairKey the caller
        # builds of them lets 1 < "a"'s TypeError out, and refuses two labels
        # that < orders neither way (NaN, two disjoint frozensets)
        d = PFDegree(0.5, 0.5)
        for vertices, edges in (
            (dict.fromkeys(labels, d), {labels[:2]: PFDegree(0.2, 0.3)}),
            (dict.fromkeys(labels, d), {}),
            ({}, {labels[:2]: PFDegree(0.2, 0.3)}),
        ):
            with pytest.raises(ConstraintViolation, match=r"^(vertex label|edge endpoint) .* must be a str, not "):
                PFGraph(vertices, edges)
        for u, v in (labels[:2], labels[1::-1]):
            with pytest.raises(key_raises):
                PairKey(u, v)

    @pytest.mark.parametrize(
        "labels", [("b", "a", "c"), ("é", "z", "B", "a")], ids=["str", "non-ascii"]
    )
    def test_labels_in_strict_order_are_accepted(self, labels):
        d, e = PFDegree(0.5, 0.5), PFDegree(0.2, 0.3)
        g = PFGraph(dict.fromkeys(labels, d), {labels[:2]: e})
        assert list(g.edges) == [tuple(sorted(labels[:2]))]
        assert [label for label, _, _ in g._pair_scan()] == sorted(labels)

    @given(boundary_specs(st.sampled_from(["a", "b", "c"])) | one_break_specs())
    def test_agrees_with_the_reference_on_boundary_values(self, spec):
        # NaN, -0.0, ints and values within the tolerance of 0, 1 and the edge
        # bound: same kinds, places, details and order as the plain per-item
        # check.  A dangling edge is refused at the door, and left out here
        vertices, edges = spec
        g = door(
            {label: PFDegree(*d) for label, d in vertices.items()},
            [(pair, PFDegree(*d)) for pair, d in edges],
        )
        assert validate(g) == reference_validate(g)

    def test_one_item_breaking_every_rule_reports_in_the_reference_order(self):
        # a vertex with both values out of range and a squared sum over 1,
        # and an edge out of range, over 1 and above both bounds
        g = PFGraph(
            {"c": PFDegree(1.5, -0.5), "a": PFDegree(0.5, 0.5), "b": PFDegree(0.8, 0.3)},
            {("a", "b"): PFDegree(1.2, 1.1)},
        )
        found = [tuple(v) for v in validate(g).violations]
        assert found == [tuple(v) for v in reference_validate(g).violations]
        assert found == [
            ("bad_vertex_degree", "c", "membership 1.5 outside [0, 1]"),
            ("bad_vertex_degree", "c", "non-membership -0.5 outside [0, 1]"),
            ("bad_vertex_degree", "c",
             "membership 1.5 and non-membership -0.5 have squared sum > 1"),
            ("bad_edge_degree", "a-b", "membership 1.2 outside [0, 1]"),
            ("bad_edge_degree", "a-b", "non-membership 1.1 outside [0, 1]"),
            ("bad_edge_degree", "a-b",
             "membership 1.2 and non-membership 1.1 have squared sum > 1"),
            ("edge_membership_above_bound", "a-b",
             "edge membership 1.2 exceeds endpoint minimum 0.5"),
            ("edge_nonmembership_above_bound", "a-b",
             "edge non-membership 1.1 exceeds endpoint maximum 0.5"),
        ]

    def test_report_serialization(self, square_cycle):
        d = validate(square_cycle).as_dict()
        assert d == {"valid": True, "violations": []}

    def test_agrees_with_direct_check_on_two_vertex_grid(self):
        # independent oracle: raw inequality evaluation per constraint
        grid = [i * 0.25 for i in range(5)]
        degrees = [(m, n) for m in grid for n in grid]

        def direct_ok(da, db, e):
            for m, n in (da, db, e):
                if not (0 <= m <= 1 and 0 <= n <= 1 and m * m + n * n <= 1 + 1e-9):
                    return False
            if e[0] > min(da[0], db[0]) + 1e-9:
                return False
            if e[1] > max(da[1], db[1]) + 1e-9:
                return False
            return True

        checked = 0
        for da in degrees:
            for db in degrees:
                for e in degrees:
                    if e == (0.0, 0.0):
                        continue  # normalized away: graph becomes edgeless, always valid
                    g = build({"a": da, "b": db}, {("a", "b"): e})
                    assert validate(g).ok == direct_ok(da, db, e)
                    checked += 1
        assert checked == 25 * 25 * 24

    def test_int_past_the_int_string_limit_is_refused_without_its_digits(self):
        # such an int is beyond float range, so the constructor refuses it
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter has no int-string limit")
        huge, d = 10**limit, PFDegree(0.5, 0.5)
        bits = f"<int of {huge.bit_length()} bits>"
        with pytest.raises(ConstraintViolation) as vertex:
            PFGraph({"a": PFDegree(huge, 0.5)})
        assert str(vertex.value) == f"vertex 'a': 'mu' value {bits} is beyond float range"
        with pytest.raises(ConstraintViolation) as edge:
            PFGraph({"a": d, "b": d}, {("a", "b"): PFDegree(0.5, huge)})
        assert str(edge.value) == f"edge a-b: 'nu' value {bits} is beyond float range"

    def test_a_tuple_holding_an_int_past_the_int_string_limit_is_named_by_its_type(self):
        # repr raises for the tuple as it does for the int inside it
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter has no int-string limit")
        huge, d = 10**limit, PFDegree(0.5, 0.5)
        named = "<tuple whose repr is too long>"
        with pytest.raises(ConstraintViolation) as label:
            PFGraph({("x", huge): d})
        assert str(label.value) == f"vertex label {named} must be a str, not tuple"
        with pytest.raises(ConstraintViolation) as refused:
            PFGraph({"a": d}, {("a", "b", huge): d})
        assert str(refused.value) == f"edge key {named} is not a pair of vertex labels"

    @pytest.mark.parametrize(
        "vertex_nu, edge_nu, above",  # above: whether the ints themselves are more than eps apart
        [
            (10**200, 10**200, False),
            (2**60 - 1, 2**60, True),  # float(2**60 - 1) is 2**60
            (2**60 + 1, 2**60, False),
            (10**200, 10**200 + 1, True),  # float() rounds both to one float
            (2**60, 2**60 + 2**8, True),  # one ulp apart as floats
        ],
    )
    def test_bound_test_is_exact_for_ints(self, vertex_nu, edge_nu, above):
        # the value rule holds each int as float() of it, so the bound test is
        # the float test on what the graph holds: where float() rounds two ints
        # to one float, the ints' own verdict is not the graph's
        d = PFDegree(0.5, 0.5)
        g = PFGraph({"a": PFDegree(0.5, vertex_nu), "b": d}, {("a", "b"): PFDegree(0.5, edge_nu)})
        held_vertex, held_edge = g.vertices["a"].nu, g.edges[PairKey("a", "b")].nu
        assert type(held_vertex) is float and held_vertex == float(vertex_nu)
        assert type(held_edge) is float and held_edge == float(edge_nu)
        kinds = [v.kind for v in validate(g).violations]
        assert ("edge_nonmembership_above_bound" in kinds) is (above and held_edge != held_vertex)
        assert "edge_membership_above_bound" not in kinds
        assert kinds.count("bad_edge_degree") == 2
        # the graph is the one built from the floats, and reports as it does
        as_floats = PFGraph(
            {"a": PFDegree(0.5, float(vertex_nu)), "b": d}, {("a", "b"): PFDegree(0.5, float(edge_nu))}
        )
        assert g == as_floats
        assert validate(g) == validate(as_floats) == reference_validate(as_floats)

    @pytest.mark.parametrize("big", [10**400, -(10**400), 2**1024, FLOAT_INT_LIMIT], ids=repr)
    @pytest.mark.parametrize("on_vertex", [True, False], ids=["vertex", "edge"])
    def test_int_degree_beyond_float_range_is_refused_at_construction(self, big, on_vertex):
        # no pass but validate could compute with it, so no graph holds one
        d = PFDegree(0.5, 0.5)
        with pytest.raises(ConstraintViolation) as refused:
            if on_vertex:
                PFGraph({"a": PFDegree(big, 0.5)})
            else:
                PFGraph({"a": d, "b": d}, {("a", "b"): PFDegree(big, 0.5)})
        where = "vertex 'a'" if on_vertex else "edge a-b"
        assert str(refused.value) == f"{where}: 'mu' value {big!r} is beyond float range"
        with pytest.raises(OverflowError):
            float(big)

    @pytest.mark.parametrize("eps", [1e-9, 3.0])
    def test_ints_beyond_float_range_are_refused_and_squares_beyond_it_are_reported(self, eps):
        """The inputs an int bound past float range was compared on are
        refused; an int inside float range whose square is not (10**200)
        has a squared sum above 1, and NaN beside it has none, at any
        tolerance."""
        big, d = 10**400, PFDegree(0.5, 0.5)
        saved = tolerance()
        set_tolerance(eps)
        try:
            for slack in (int(eps), int(eps) + 1):
                with pytest.raises(ConstraintViolation, match="is beyond float range"):
                    PFGraph({"a": PFDegree(0.5, big), "b": d}, {("a", "b"): PFDegree(0.5, big + slack)})
            with pytest.raises(ConstraintViolation, match="is beyond float range"):
                PFGraph({"a": PFDegree(big, math.nan)})
            wide = 10**200
            found = validate(
                PFGraph({"a": PFDegree(0.5, 10 * wide), "b": d}, {("a", "b"): PFDegree(0.5, wide)})
            )
            assert [v.kind for v in found.violations] == ["bad_vertex_degree"] * 2 + ["bad_edge_degree"] * 2
            assert [v.detail.endswith("squared sum > 1") for v in found.violations] == [False, True] * 2
            nan_beside = validate(PFGraph({"a": PFDegree(wide, math.nan)})).violations
            assert [v.detail.endswith("squared sum > 1") for v in nan_beside] == [False, False]
        finally:
            set_tolerance(saved)

    def test_tolerance_past_the_squares_float_range_still_reports(self):
        # 10**180 lies inside [0, 1 + eps] at eps = 2**600 and is held as the
        # float 1e+180, whose square overflows to inf: the squared sum is above
        # 1 all the same, for the int and for the float alike
        saved = tolerance()
        set_tolerance(2.0**600)
        try:
            for big in (10**180, 1e180):
                assert [v.detail for v in validate(PFGraph({"a": PFDegree(big, 0.5)})).violations] == [
                    "membership 1e+180 and non-membership 0.5 have squared sum > 1"
                ]
                assert [v.detail for v in validate(PFGraph({"a": PFDegree(big, math.nan)})).violations] == [
                    "non-membership nan outside [0, 1]"
                ]
            assert validate(PFGraph({"a": PFDegree(0.5, 0.5)})).ok
        finally:
            set_tolerance(saved)


class TestHesitation:
    def test_boundary_pair_has_zero_hesitation(self):
        assert hesitation(PFDegree(0.6, 0.8)) == 0.0

    def test_fully_hesitant(self):
        assert hesitation(PFDegree(0.0, 0.0)) == 1.0

    def test_interior_pair(self):
        assert hesitation(PFDegree(0.6, 0.7)) == pytest.approx(math.sqrt(0.15), abs=1e-12)

    def test_violating_pair_raises(self):
        with pytest.raises(ConstraintViolation):
            hesitation(PFDegree(0.9, 0.9))

    @pytest.mark.parametrize(
        "d", [PFDegree(math.nan, 0.5), PFDegree(-0.5, 0.0), PFDegree(0.2, -0.9)], ids=repr
    )
    def test_component_outside_the_unit_range_raises(self, d):
        # each has a squared sum within 1 (NaN compares false), so only the
        # unit-range rule catches it
        with pytest.raises(ConstraintViolation, match=r"outside \[0, 1\]") as raised:
            hesitation(d)
        assert f"({d.mu!r}, {d.nu!r})" in str(raised.value)

    def test_int_past_the_int_string_limit_raises_without_its_digits(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter has no int-string limit")
        huge = 10**limit
        with pytest.raises(ConstraintViolation) as raised:
            hesitation(PFDegree(huge, 0.5))
        assert str(raised.value) == (
            f"degree (<int of {huge.bit_length()} bits>, 0.5) has a component outside [0, 1]"
        )

    def test_plain_tuple_reads_as_its_degree(self):
        for pair in [(0.6, 0.8), (0.0, 0.0), (0.6, 0.7), (1, 0)]:
            assert hesitation(pair) == hesitation(PFDegree(*pair))
        with pytest.raises(ConstraintViolation, match="violates the Pythagorean constraint"):
            hesitation((0.9, 0.9))
        with pytest.raises(ConstraintViolation, match=r"^degree \(nan, 0.5\) has a component outside"):
            hesitation((math.nan, 0.5))

    @pytest.mark.parametrize(
        "d", [[0.6, 0.7], (0.6,), (0.6, 0.7, 0.0), 0.5, None, {"mu": 0.6, "nu": 0.7}], ids=repr
    )
    def test_argument_that_is_not_a_pair_raises_type_error_naming_it(self, d):
        with pytest.raises(TypeError, match=f"^d must be a PFDegree, not {type(d).__name__}$"):
            hesitation(d)

    @given(valid_degrees())
    def test_squares_total_one(self, d):
        h = hesitation(d)
        assert 0.0 <= h <= 1.0
        assert d.mu**2 + d.nu**2 + h**2 == pytest.approx(1.0, abs=1e-9)


class TestDegreeCombine:
    def test_min_max(self):
        assert degree_min_max(PFDegree(0.6, 0.3), PFDegree(0.7, 0.5)) == PFDegree(0.6, 0.5)

    def test_max_min(self):
        assert degree_max_min(PFDegree(0.3, 0.8), PFDegree(0.7, 0.1)) == PFDegree(0.7, 0.1)

    @given(valid_degrees())
    def test_idempotence(self, d):
        assert degree_min_max(d, d) == d
        assert degree_max_min(d, d) == d

    def test_degree_is_a_named_pair(self):
        d = PFDegree(mu=0.5, nu=0.7)
        assert repr(d) == "PFDegree(mu=0.5, nu=0.7)"
        assert d == (0.5, 0.7) and tuple(d) == (0.5, 0.7)
        assert hash(d) == hash((0.5, 0.7))

    def test_extremes(self):
        assert degree_min_max(PFDegree(1, 0), PFDegree(0, 1)) == PFDegree(0, 1)
        assert degree_max_min(PFDegree(0, 1), PFDegree(0, 1)) == PFDegree(0, 1)

    def test_plain_tuples_read_as_their_degrees(self):
        assert degree_min_max((0.5, 0.5), (0.2, 0.3)) == PFDegree(0.2, 0.5)
        assert degree_max_min((0.5, 0.5), (0.2, 0.3)) == PFDegree(0.5, 0.3)
        for a, b in [((0.5, 0.5), (0.2, 0.3)), ((1, 0), (0.0, 1.0)), ((math.nan, 0.5), (0.25, 0.75))]:
            for combine in (degree_min_max, degree_max_min):
                expected = repr(combine(PFDegree(*a), PFDegree(*b)))
                for x, y in [(a, b), (PFDegree(*a), b), (a, PFDegree(*b))]:
                    assert repr(combine(x, y)) == expected

    def test_first_argument_wins_ties(self):
        # 0.0 and -0.0 are equal, so only the tie rule decides which one comes out
        assert repr(degree_min_max((0.0, 0.5), (-0.0, 0.5))) == "PFDegree(mu=0.0, nu=0.5)"
        assert repr(degree_min_max((-0.0, 0.5), (0.0, 0.5))) == "PFDegree(mu=-0.0, nu=0.5)"
        assert repr(degree_max_min((0.5, 0.0), (0.5, -0.0))) == "PFDegree(mu=0.5, nu=0.0)"
        assert repr(degree_max_min((0.5, -0.0), (0.5, 0.0))) == "PFDegree(mu=0.5, nu=-0.0)"

    @pytest.mark.parametrize(
        "bad", [[0.5, 0.5], (0.5,), (0.5, 0.5, 0.5), 0.5, None, {"mu": 0.5, "nu": 0.5}], ids=repr
    )
    def test_argument_that_is_not_a_pair_raises_type_error_naming_it(self, bad):
        named, d = type(bad).__name__, PFDegree(0.5, 0.5)
        for combine in (degree_min_max, degree_max_min):
            with pytest.raises(TypeError, match=f"^a must be a PFDegree, not {named}$"):
                combine(bad, d)
            with pytest.raises(TypeError, match=f"^b must be a PFDegree, not {named}$"):
                combine(d, bad)

    @given(valid_degrees(), valid_degrees())
    def test_combined_pair_stays_valid(self, a, b):
        # the vertex attaining the larger nu also bounds the smaller mu
        lo = degree_min_max(a, b)
        hi = degree_max_min(a, b)
        assert lo.mu**2 + lo.nu**2 <= 1.0 + 1e-9
        assert hi.mu**2 + hi.nu**2 <= 1.0 + 1e-9


class TestPairKey:
    def test_canonical_order(self):
        assert PairKey("b", "a") == PairKey("a", "b")
        assert PairKey("b", "a").lo == "a"

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            PairKey("a", "a")
        # a caller's values that < cannot compare raise its TypeError, even
        # as a self-loop: only str labels reach a graph
        with pytest.raises(TypeError):
            PairKey(None, None)
        with pytest.raises(TypeError):
            PairKey(1, "a")

    def test_partially_ordered_labels_are_refused(self):
        # neither frozenset contains the other, so < is False both ways
        a, b = frozenset({1}), frozenset({2})
        for u, v in ((a, b), (b, a)):
            with pytest.raises(ConstraintViolation, match="^vertex labels cannot be put in a strict order: "):
                PairKey(u, v)
        d, first, later = PFDegree(0.5, 0.5), PFDegree(0.1, 0.2), PFDegree(0.3, 0.4)
        # a key given both ways keeps the later degree
        h = PFGraph({"a": d, "b": d}, {("a", "b"): first, ("b", "a"): later})
        assert list(h.edges.values()) == [later]

    def test_labels_nothing_tells_apart_are_refused(self):
        # two NaNs: < is False both ways
        a, b = float("nan"), float("nan")
        refusal = "^vertex labels cannot be put in a strict order: nan and nan$"
        with pytest.raises(ConstraintViolation, match=refusal):
            PairKey(a, b)
        # one NaN object is one label, so a pair of it is a self-loop
        with pytest.raises(ValueError, match="^self-loop on vertex nan is not allowed$"):
            PairKey(a, a)

    def test_tuple_behaviour(self):
        key = PairKey("b", "a")
        assert repr(key) == "PairKey(lo='a', hi='b')"
        assert str(key) == "a-b"
        assert tuple(key) == key == ("a", "b")
        assert hash(key) == hash(("a", "b"))
        keys = [PairKey("c", "b"), PairKey("b", "a"), PairKey("c", "a"), PairKey("a", "b10")]
        assert [(k.lo, k.hi) for k in sorted(keys)] == [
            ("a", "b"), ("a", "b10"), ("a", "c"), ("b", "c")
        ]

    def test_edge_lookup_is_symmetric(self):
        g = build({"u": (0.5, 0.5), "v": (0.4, 0.4)}, {("u", "v"): (0.3, 0.5)})
        assert g.edge_degree("v", "u") == PFDegree(0.3, 0.5)
        assert g.edge_degree("u", "v") == g.edge_degree("v", "u")

    @pytest.mark.parametrize("method", ["has_edge", "edge_degree", "pair_bound"])
    def test_pair_of_one_vertex_raises_in_every_pair_method(self, method):
        g = build({"a": (0.5, 0.5), "b": (0.5, 0.5)}, {("a", "b"): (0.5, 0.5)})
        with pytest.raises(ValueError) as raised:
            getattr(g, method)("a", "a")
        assert str(raised.value) == "self-loop on vertex 'a' is not allowed"


class TestSetTolerance:
    @pytest.fixture(autouse=True)
    def restore_tolerance(self):
        saved = tolerance()
        yield
        set_tolerance(saved)

    def test_accepts_ints_and_floats(self):
        set_tolerance(1)
        assert tolerance() == 1.0 and type(tolerance()) is float
        set_tolerance(1e-6)
        assert tolerance() == 1e-6
        # so does an explicit eps; None is the global tolerance
        a, b = PFDegree(0.5, 0.5), PFDegree(0.5, 0.75)
        g, h = PFGraph({"a": a}), PFGraph({"a": b})
        assert degrees_close(a, b, 1) and graphs_close(g, h, 0.5)
        assert not degrees_close(a, b, None) and not graphs_close(g, h, None)

    @pytest.mark.parametrize(
        "value",
        [True, False, "1e-3", None, 0, -1e-9, math.nan, math.inf, pytest.param(10**400, id="10**400")],
    )
    def test_rejects_what_is_not_a_positive_finite_number(self, value):
        before = tolerance()
        with pytest.raises(ValueError):
            set_tolerance(value)
        assert tolerance() == before
        if value is None:  # an explicit eps of None is the global tolerance
            return
        # an explicit eps follows the same rule, on an empty graph as on any
        d = PFDegree(0.5, 0.5)
        g = build({"a": d, "b": d}, {("a", "b"): d})
        for check in (
            lambda: degrees_close(d, d, value),
            lambda: graphs_close(g, g, value),
            lambda: graphs_close(PFGraph({}), PFGraph({}), value),
        ):
            with pytest.raises(ValueError, match="^tolerance must be"):
                check()


class TestGraphConstruction:
    @pytest.mark.parametrize("bad", [5, 0.5, None, True, PFDegree], ids=repr)
    def test_an_argument_that_is_not_iterable_raises_type_error_naming_it(self, bad):
        expected = "{} must be a mapping or an iterable of pairs, not " + type(bad).__name__
        with pytest.raises(TypeError) as raised:
            PFGraph(bad)
        assert str(raised.value) == expected.format("vertices")
        with pytest.raises(TypeError) as raised:
            PFGraph({}, bad)
        assert str(raised.value) == expected.format("edges")
        with pytest.raises(TypeError) as raised:
            half_strong_construction(bad)
        assert str(raised.value) == expected.format("p")

    def test_iterables_of_pairs_build_the_graph_their_maps_build(self):
        d, e = PFDegree(0.5, 0.5), PFDegree(0.25, 0.5)
        g = PFGraph({"a": d, "b": d}, {("a", "b"): e})
        assert PFGraph([("a", d), ("b", d)], [(("a", "b"), e)]) == g
        assert PFGraph(iter([("a", d), ("b", d)]), iter([(("b", "a"), e)])) == g
        assert half_strong_construction([("a", d), ("b", d)]) == half_strong_construction(g.vertices)
        # an iterable of items that are not pairs keeps dict()'s own error
        with pytest.raises(TypeError, match="dictionary update sequence"):
            PFGraph([1])

    def test_zero_degree_edge_normalized_away(self):
        g = build({"a": (0.5, 0.5), "b": (0.5, 0.5)}, {("a", "b"): (0.0, 0.0)})
        assert len(g.edges) == 0

    def test_first_dangling_kept_edge_in_insertion_order_is_named(self):
        # key order would put a-z first; the (0, 0) edge on y is no edge
        d, e = PFDegree(0.5, 0.5), PFDegree(0.2, 0.3)
        edges = [(("b", "y"), PFDegree(0.0, 0.0)), (("x", "b"), e), (("a", "b"), e), (("a", "z"), e)]
        with pytest.raises(DanglingEdge, match="^edge b-x uses undeclared vertex 'x'$"):
            PFGraph({"a": d, "b": d}, edges)
        with pytest.raises(DanglingEdge, match="^edge a-z uses undeclared vertex 'z'$"):
            PFGraph({"a": d, "b": d}, edges[2:])

    def test_zero_degree_edge_to_an_undeclared_vertex_is_dropped(self):
        d = PFDegree(0.5, 0.5)
        for zero in (PFDegree(0.0, 0.0), (0, -0.0)):
            g = PFGraph({"a": d, "b": d}, {("a", "z"): zero, ("a", "b"): d, ("q", "r"): zero})
            assert list(g.edges) == [("a", "b")]

    def test_inputs_are_copied(self):
        vs = {"a": PFDegree(0.5, 0.5)}
        g = PFGraph(vs)
        vs["b"] = PFDegree(0.1, 0.1)
        assert set(g.vertices) == {"a"}

    def test_pairs_cover_all_unordered_pairs(self):
        g = build({"a": (0.5, 0.5), "b": (0.5, 0.5), "c": (0.5, 0.5)})
        assert {f"{u}-{v}" for u, _, tail in g._pair_scan() for v, _ in tail} == {"a-b", "a-c", "b-c"}

    def test_pair_rows_give_every_pair_in_key_order(self, square_cycle):
        # the scan's pairs are the reference rows, in key order; n=12 labels
        # v0..v11 sort v10 before v2, unlike their index order
        for g in (square_cycle, generate(GenConfig(seed=3, n_vertices=12))):
            rows = list(pair_rows(g))
            keys = [key for key, _, _ in rows]
            n = len(g.vertices)
            assert len(rows) == n * (n - 1) // 2
            assert keys == sorted(keys) == [(u, v) for u, _, tail in g._pair_scan() for v, _ in tail]
            for key, degree, bound in rows:
                assert degree == g.edges.get(key, ZERO_DEGREE)
                assert bound == g.pair_bound(key.lo, key.hi)
        absent = {key for key, degree, _ in pair_rows(square_cycle) if degree == ZERO_DEGREE}
        assert absent == {PairKey("a", "c"), PairKey("b", "d")}

    @given(st.data())
    def test_pair_scan_agrees_with_the_per_pair_methods(self, data):
        # unicode labels whose sort order is not their insertion order; vertex
        # values with ties, -0.0 and NaN exercise the bound's tie rule
        labels = data.draw(st.lists(st.text(min_size=1), min_size=1, max_size=8, unique=True))
        value = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, math.nan]), st.floats(0.0, 1.0))
        vertices = {v: PFDegree(data.draw(value), data.draw(value)) for v in labels}
        pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        g = PFGraph(vertices, {pair: data.draw(valid_degrees()) for pair in chosen})

        # the scan's pairs, each with its stored degree and the bound by
        # degree_min_max's rule inline, are the reference rows in key order
        scan = [
            ((u, v), g.edges.get((u, v), ZERO_DEGREE), (vmu if vmu < umu else umu, vnu if vnu > unu else unu))
            for u, (umu, unu), tail in g._pair_scan()
            for v, (vmu, vnu) in tail
        ]
        rows = list(pair_rows(g))
        assert len(scan) == len(rows) == len(labels) * (len(labels) - 1) // 2
        for (pair, degree, bound), (key, row_degree, row_bound) in zip(scan, rows):
            assert pair == tuple(key)
            assert degree is row_degree or degree == row_degree == ZERO_DEGREE
            assert repr(PFDegree(*bound)) == repr(row_bound)

    def test_pair_scan_yields_the_label_objects_and_the_stored_degree(self, square_cycle):
        # a row is one vertex label object with its stored degree and the sorted
        # items above it, with no key built; n=12 labels v0..v11 sort v10
        # before v2, unlike their index order
        for g in (square_cycle, generate(GenConfig(seed=3, n_vertices=12))):
            items = sorted(g.vertices.items())
            rows = list(g._pair_scan())
            assert len(rows) == len(items)
            for i, ((u, degree, tail), (label, stored)) in enumerate(zip(rows, items), 1):
                assert u is label and degree is stored
                assert [(v, vd) for v, vd in tail] == items[i:]
                assert all(v is w and vd is wd for (v, vd), (w, wd) in zip(tail, items[i:]))

    def test_complement_keeps_the_keys_of_edges_inside_their_bound(self):
        # every pair is an edge strictly inside its bound, so every pair is an
        # edge of the complement and of the involution, under g's own key
        labels = "abcde"
        g = PFGraph(
            dict.fromkeys(labels, PFDegree(0.5, 0.5)),
            {(u, v): PFDegree(0.2, 0.3) for i, u in enumerate(labels) for v in labels[i + 1:]},
        )
        stored = {key: key for key in g.edges}
        for h in (complement(g), complement(complement(g))):
            assert list(h.edges) == list(g.edges)
            assert all(key is stored[key] for key in h.edges)

    def test_complement_keys_an_edge_pair_by_the_edge_key(self):
        # the vertex labels are built at run time, so each is another object
        # than the equal literal in the edge key: the complement keeps that
        # edge's key, with the labels as the key spells them, and keys every
        # other pair by the vertex label objects
        d, e = PFDegree(0.5, 0.5), PFDegree(0.2, 0.3)
        v1, v2, v3 = ("".join(("v", str(i))) for i in (1, 2, 3))
        g = PFGraph({v1: d, v2: d, v3: d}, {("v1", "v2"): e})
        (edge_key,) = g.edges
        h = complement(g)
        assert list(h.edges) == [("v1", "v2"), ("v1", "v3"), ("v2", "v3")]
        first, *others = h.edges
        assert first is edge_key and first.lo is not v1 and first.hi is not v2
        assert [(k.lo, k.hi) for k in others] == [(v1, v3), (v2, v3)]
        assert all(k.lo is u and k.hi is w for k, (u, w) in zip(others, ((v1, v3), (v2, v3))))

    @pytest.mark.parametrize(
        "clone",
        [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trips(self, clone):
        g = generate(GenConfig(seed=5, n_vertices=9))
        for value in (g, PairKey("b", "a"), PFDegree(0.5, 0.7)):
            twin = clone(value)
            assert twin == value and type(twin) is type(value)
        assert list(clone(g).edges) == list(g.edges)

    def test_value_equality(self, square_cycle):
        twin = build(
            {"a": (0.5, 0.7), "b": (0.8, 0.3), "c": (0.6, 0.5), "d": (0.4, 0.4)},
            {
                ("b", "a"): (0.4, 0.7),
                ("c", "b"): (0.5, 0.45),
                ("d", "c"): (0.3, 0.5),
                ("a", "d"): (0.4, 0.6),
            },
        )
        assert twin == square_cycle


def _document(vertices, edges):
    return json.dumps({
        "format_version": 1,
        "vertices": [{"id": v, "mu": 0.5, "nu": 0.5} for v in vertices],
        "edges": [{"u": u, "v": v, "mu": 0.25, "nu": 0.5} for u, v in edges],
    })


_D = PFDegree(0.5, 0.5)


@pytest.mark.parametrize(
    "fail, message",
    [
        (lambda: PFGraph({"b": _D}).pair_bound("a", "b"), "edge a-b uses undeclared vertex 'a'"),
        (lambda: PFGraph({"b": _D}).pair_bound("b", "a"), "edge b-a uses undeclared vertex 'a'"),
        (lambda: PFGraph({}).pair_bound("z", "y"), "edge z-y uses undeclared vertex 'z'"),
        (lambda: PFGraph({"b": _D}, {("b", "a"): _D}), "edge a-b uses undeclared vertex 'a'"),
        (lambda: PFGraph({"a": _D}, {("a", "z"): _D}), "edge a-z uses undeclared vertex 'z'"),
        (lambda: PFGraph({}, {("z", "y"): _D}), "edge y-z uses undeclared vertex 'y'"),
        (lambda: PFGraph({"é": _D}, {("é", 'x"'): _D}), "edge x\"-é uses undeclared vertex 'x\"'"),
        (lambda: parse(_document(["b"], [("b", "a")])), "edge a-b uses undeclared vertex 'a'"),
        (lambda: parse(_document(["a"], [("a", "z")])), "edge a-z uses undeclared vertex 'z'"),
        (lambda: parse(_document([], [("z", "y")])), "edge y-z uses undeclared vertex 'y'"),
    ],
)
def test_dangling_edge_messages_name_the_edge_and_its_first_undeclared_endpoint(fail, message):
    # pair_bound names the pair as called; the constructor and parse name its key
    with pytest.raises(DanglingEdge) as raised:
        fail()
    assert str(raised.value) == message
