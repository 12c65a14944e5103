"""Core value types: degree arithmetic, pair keys, and graph validation."""

import copy
import itertools
import json
import math
import pickle
import sys

import pytest
from hypothesis import given, strategies as st

from pfgraph import (
    ConstraintViolation,
    DanglingEdge,
    MorphismKind,
    PFDegree,
    GenConfig,
    PFGraph,
    PairKey,
    ZERO_DEGREE,
    classify,
    complement,
    complete_complement,
    degree_max_min,
    degree_min_max,
    find_morphism,
    generate,
    graphs_close,
    hesitation,
    parse,
    render,
    set_tolerance,
    strong_complement,
    sum_identity,
    to_dot,
    tolerance,
    validate,
    verify_morphism,
)
from pfgraph.core import _FLOAT_INT_LIMIT, sorted_edges

from conftest import build
from reference_codec import boundary_specs, one_break_specs, reference_validate


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

    def test_dangling_edge_reported(self):
        g = PFGraph({"a": PFDegree(0.5, 0.5)}, {("a", "b"): PFDegree(0.1, 0.1)})
        report = validate(g)
        assert [v.kind for v in report.violations] == ["dangling_edge"]

    def test_empty_vertex_id_reported(self):
        g = PFGraph({"": PFDegree(0.5, 0.5)})
        assert validate(g).violations[0].kind == "bad_vertex_id"

    @pytest.mark.parametrize("label", ["\ud800", "\udc80", "a\udfff"])
    def test_vertex_id_that_does_not_encode_as_utf8_reported(self, label):
        # render would write it as a JSON escape that parse rejects
        g = PFGraph({label: PFDegree(0.5, 0.5), "é": PFDegree(0.5, 0.5)})
        assert [tuple(v) for v in validate(g).violations] == [
            ("bad_vertex_id", repr(label), "vertex ids must encode as UTF-8")
        ]

    def test_labels_without_order_reach_the_report(self):
        # 1 < "a" raises TypeError; the graph must still be built and described
        d = PFDegree(0.5, 0.5)
        g = PFGraph({1: d, "a": d}, {(1, "a"): PFDegree(0.2, 0.3)})
        report = validate(g)
        assert [(v.kind, v.where) for v in report.violations] == [("bad_vertex_id", "1")]
        assert PairKey("a", 1) == PairKey(1, "a") == (1, "a")

    @pytest.mark.parametrize(
        "labels", [(1, "a"), (math.nan, 0.5, 0.25)], ids=["int-and-str", "nan"]
    )
    @pytest.mark.parametrize(
        "call",
        [
            complement,
            classify,
            sum_identity,
            render,
            to_dot,
            lambda m: find_morphism(m, m, MorphismKind.ISOMORPHISM),
            lambda m: verify_morphism(m, m, MorphismKind.ISOMORPHISM, {v: v for v in m.vertices}),
        ],
        ids=["complement", "classify", "sum_identity", "render", "to_dot",
             "find_morphism", "verify_morphism"],
    )
    def test_sorted_passes_reject_labels_without_strict_order(self, labels, call):
        # NaN sorts without an error but not into a strict order, which would
        # build non-canonical pair keys and miss edges
        d = PFDegree(0.5, 0.5)
        m = PFGraph(dict.fromkeys(labels, d), {labels[:2]: PFDegree(0.2, 0.3)})
        with pytest.raises(ConstraintViolation, match="strict order") as raised:
            call(m)
        assert "bad_vertex_id" in {v.kind for v in raised.value.report.violations}

    @given(boundary_specs(st.sampled_from(["a", "b", "c", "", 1, 2])) | one_break_specs())
    def test_agrees_with_the_reference_on_boundary_values(self, spec):
        # NaN, -0.0, ints, values within the tolerance of 0, 1 and the edge
        # bound, non-str labels and dangling edges: same kinds, places,
        # details and order as the plain per-item check
        vertices, edges = spec
        g = PFGraph(
            {label: PFDegree(*d) for label, d in vertices.items()},
            [(pair, PFDegree(*d)) for pair, d in edges],
        )
        assert validate(g) == reference_validate(g)

    def test_one_item_breaking_every_rule_reports_in_the_reference_order(self):
        # a non-str label with both values out of range and a squared sum
        # over 1, and an edge out of range, over 1 and above both bounds
        g = PFGraph(
            {7: PFDegree(1.5, -0.5), "a": PFDegree(0.5, 0.5), "b": PFDegree(0.8, 0.3)},
            {("a", "b"): PFDegree(1.2, 1.1)},
        )
        found = [tuple(v) for v in validate(g).violations]
        assert found == [tuple(v) for v in reference_validate(g).violations]
        assert found == [
            ("bad_vertex_id", "7", "vertex ids must be non-empty strings"),
            ("bad_vertex_degree", "7", "membership 1.5 outside [0, 1]"),
            ("bad_vertex_degree", "7", "non-membership -0.5 outside [0, 1]"),
            ("bad_vertex_degree", "7",
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

    def test_int_label_past_the_int_string_limit_is_named_by_its_bit_length(self):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter has no int-string limit")
        huge, d = 10**limit, PFDegree(0.5, 0.5)
        bits = f"<int of {huge.bit_length()} bits>"
        vertex = validate(PFGraph({huge: PFDegree(2.0, 0.5)}))
        assert [(v.kind, v.where) for v in vertex.violations] == [
            ("bad_vertex_id", bits),
            ("bad_vertex_degree", bits),
            ("bad_vertex_degree", bits),
        ]
        edge = validate(PFGraph({huge: d, 3: d}, {(3, huge): PFDegree(2.0, 0.5)}))
        assert [(v.kind, v.where) for v in edge.violations] == [
            ("bad_vertex_id", bits),
            ("bad_vertex_id", "3"),
            ("bad_edge_degree", f"3-{bits}"),
            ("bad_edge_degree", f"3-{bits}"),
            ("edge_membership_above_bound", f"3-{bits}"),
        ]
        dangling = validate(PFGraph({3: d}, {(3, huge): d}))
        assert dangling.violations[-1] == (
            "dangling_edge", f"3-{bits}", f"endpoint(s) {bits} not in the vertex set"
        )
        # beside a str label, whose order with an int comes from the type name
        mixed = validate(PFGraph({huge: d, "a": d}, {("a", huge): d}))
        assert [(v.kind, v.where) for v in mixed.violations] == [("bad_vertex_id", bits)]
        with pytest.raises(DanglingEdge, match=f"edge 3-{bits} uses undeclared vertex {bits}"):
            find_morphism(PFGraph({3: d}, {(3, huge): d}), PFGraph({3: d}), MorphismKind.HOMOMORPHISM)

    @pytest.mark.parametrize("big", [10**400, -(10**400), 2**1024, _FLOAT_INT_LIMIT], ids=repr)
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
        # 10**180 lies inside [0, 1 + eps] at eps = 2**600, and its square does
        # not convert to a float: the squared sum is above 1 all the same
        saved = tolerance()
        set_tolerance(2.0**600)
        try:
            big = 10**180
            assert [v.detail for v in validate(PFGraph({"a": PFDegree(big, 0.5)})).violations] == [
                f"membership {big} and non-membership 0.5 have squared sum > 1"
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
        assert d == (0.5, 0.7) and d.as_tuple() == (0.5, 0.7)
        assert hash(d) == hash((0.5, 0.7))

    def test_extremes(self):
        assert degree_min_max(PFDegree(1, 0), PFDegree(0, 1)) == PFDegree(0, 1)
        assert degree_max_min(PFDegree(0, 1), PFDegree(0, 1)) == PFDegree(0, 1)

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

    def test_canonical_for_partially_ordered_labels(self):
        # neither frozenset contains the other, so < is False both ways
        a, b = frozenset({1}), frozenset({2})
        assert PairKey(a, b) == PairKey(b, a) == (a, b)
        d, first, later = PFDegree(0.5, 0.5), PFDegree(0.1, 0.2), PFDegree(0.3, 0.4)
        g = PFGraph({a: d, b: d}, {(a, b): first, (b, a): later})
        assert list(g.edges.items()) == [(PairKey(a, b), later)]
        # the later degree wins, as it does for str labels
        h = PFGraph({"a": d, "b": d}, {("a", "b"): first, ("b", "a"): later})
        assert list(h.edges.values()) == [later]

    def test_canonical_for_labels_nothing_tells_apart(self):
        # two NaNs: < is False both ways, and type and repr are the same
        a, b = float("nan"), float("nan")
        assert PairKey(a, b) == PairKey(b, a)
        d, first, later = PFDegree(0.5, 0.5), PFDegree(0.1, 0.2), PFDegree(0.3, 0.4)
        g = PFGraph({a: d, b: d}, {(a, b): first, (b, a): later})
        assert list(g.edges.values()) == [later]
        # one NaN object is one label, so a pair of it is a self-loop
        with pytest.raises(ValueError):
            PairKey(a, a)

    def test_tuple_behaviour(self):
        key = PairKey("b", "a")
        assert repr(key) == "PairKey(lo='a', hi='b')"
        assert str(key) == "a-b"
        assert tuple(key) == key == ("a", "b")
        assert hash(key) == hash(("a", "b"))
        assert (key.other("a"), key.other("b")) == ("b", "a")
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

    @pytest.mark.parametrize(
        "value",
        [True, False, "1e-3", None, 0, -1e-9, math.nan, math.inf, pytest.param(10**400, id="10**400")],
    )
    def test_rejects_what_is_not_a_positive_finite_number(self, value):
        before = tolerance()
        with pytest.raises(ValueError):
            set_tolerance(value)
        assert tolerance() == before


class TestGraphConstruction:
    def test_zero_degree_edge_normalized_away(self):
        g = build({"a": (0.5, 0.5), "b": (0.5, 0.5)}, {("a", "b"): (0.0, 0.0)})
        assert len(g.edges) == 0

    def test_inputs_are_copied(self):
        vs = {"a": PFDegree(0.5, 0.5)}
        g = PFGraph(vs)
        vs["b"] = PFDegree(0.1, 0.1)
        assert set(g.vertices) == {"a"}

    def test_pairs_cover_all_unordered_pairs(self):
        g = build({"a": (0.5, 0.5), "b": (0.5, 0.5), "c": (0.5, 0.5)})
        assert {str(k) for k in g.pairs()} == {"a-b", "a-c", "b-c"}

    def test_pair_rows_give_every_pair_in_key_order(self, square_cycle):
        # n=12 labels v0..v11 sort v10 before v2, unlike their index order
        for g in (square_cycle, generate(GenConfig(seed=3, n_vertices=12))):
            rows = list(g.pair_rows())
            keys = [key for key, _, _ in rows]
            n = len(g.vertices)
            assert len(rows) == n * (n - 1) // 2
            assert keys == sorted(keys) == list(g.pairs())
            for key, degree, bound in rows:
                assert degree == g.edges.get(key, ZERO_DEGREE)
                assert bound == g.pair_bound(key.lo, key.hi)
        absent = {key for key, degree, _ in square_cycle.pair_rows() if degree == ZERO_DEGREE}
        assert absent == {PairKey("a", "c"), PairKey("b", "d")}

    @given(st.data())
    def test_pair_rows_agree_with_the_per_pair_methods(self, data):
        # unicode labels whose sort order is not their insertion order; vertex
        # values with ties, -0.0 and NaN exercise the bound's tie rule
        labels = data.draw(st.lists(st.text(min_size=1), min_size=1, max_size=8, unique=True))
        value = st.one_of(st.sampled_from([0.0, -0.0, 0.5, 1.0, math.nan]), st.floats(0.0, 1.0))
        vertices = {v: PFDegree(data.draw(value), data.draw(value)) for v in labels}
        pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
        g = PFGraph(vertices, {pair: data.draw(valid_degrees()) for pair in chosen})

        rows = list(g.pair_rows())
        n = len(labels)
        assert len(rows) == n * (n - 1) // 2
        keys = [key for key, _, _ in rows]
        assert all(a < b for a, b in zip(keys, keys[1:]))
        for key, degree, bound in rows:
            assert type(key) is PairKey
            assert key == PairKey(*key)
            assert degree == g.edge_degree(*key)
            assert repr(bound) == repr(g.pair_bound(*key))

        # the flat rows every pass reads are the same rows, element for element:
        # the key's two labels, the same degree object and the bound's components
        scan = list(g._pair_scan())
        assert len(scan) == len(rows)
        for (u, v, degree, bound_mu, bound_nu), (row_key, row_degree, bound) in zip(scan, rows):
            assert (u, v) == tuple(row_key)
            assert degree is row_degree
            assert repr(PFDegree(bound_mu, bound_nu)) == repr(bound)

    def test_pair_scan_yields_the_label_objects_and_the_stored_degree(self, square_cycle):
        # a row is the sorted pair of vertex label objects, with no key built;
        # an edge pair gives the edge's own degree object, every other pair
        # ZERO_DEGREE itself.  1.0 == 1, so the edge keyed (1.0, 2) is the pair
        # of vertices 1 and 2, whose row carries the vertex label 1
        d, e = PFDegree(0.5, 0.5), PFDegree(0.2, 0.3)
        spelled = PFGraph({1: d, 2: d, 3: d}, {(1.0, 2): e})
        for g in (square_cycle, generate(GenConfig(seed=3, n_vertices=12)), spelled):
            labels = sorted(g.vertices)
            scan = list(g._pair_scan())
            assert len(scan) == len(labels) * (len(labels) - 1) // 2
            for (u, v, degree, _, _), (a, b) in zip(scan, itertools.combinations(labels, 2)):
                assert u is a and v is b
                key = PairKey(u, v)
                if key in g.edges:
                    assert degree is g.edges[key]
                else:
                    assert degree is ZERO_DEGREE
        assert [row[:3] for row in spelled._pair_scan()] == [
            (1, 2, e), (1, 3, ZERO_DEGREE), (2, 3, ZERO_DEGREE)
        ]

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
        # 1.0 == 1, so the edge keyed (1.0, 2) is the pair of vertices 1 and 2:
        # the complement keeps that edge's key, with the label as the key spells it
        d, e = PFDegree(0.5, 0.5), PFDegree(0.2, 0.3)
        h = complement(PFGraph({1: d, 2: d, 3: d}, {(1.0, 2): e}))
        assert repr(list(h.edges)) == (
            "[PairKey(lo=1.0, hi=2), PairKey(lo=1, hi=3), PairKey(lo=2, hi=3)]"
        )

    def test_sorted_edges_are_the_graph_keys_in_key_order(self, square_cycle):
        for g in (square_cycle, generate(GenConfig(seed=3, n_vertices=12))):
            keys = sorted_edges(g)
            assert keys == [k for k, _ in sorted(g.edges.items())]
            stored = {key: key for key in g.edges}
            assert all(key is stored[key] for key in keys)

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
        (lambda: strong_complement(PFGraph({"b": _D}, {("b", "a"): _D})), "edge a-b uses undeclared vertex 'a'"),
        (lambda: strong_complement(PFGraph({"a": _D}, {("a", "z"): _D})), "edge a-z uses undeclared vertex 'z'"),
        (lambda: strong_complement(PFGraph({}, {("z", "y"): _D})), "edge y-z uses undeclared vertex 'y'"),
        (lambda: parse(_document(["b"], [("b", "a")])), "edge a-b uses undeclared vertex 'a'"),
        (lambda: parse(_document(["a"], [("a", "z")])), "edge a-z uses undeclared vertex 'z'"),
        (lambda: parse(_document([], [("z", "y")])), "edge y-z uses undeclared vertex 'y'"),
    ],
)
def test_dangling_edge_messages_name_the_edge_and_its_first_undeclared_endpoint(fail, message):
    # pair_bound names the pair as called; strong_complement and parse name its key
    with pytest.raises(DanglingEdge) as raised:
        fail()
    assert str(raised.value) == message
