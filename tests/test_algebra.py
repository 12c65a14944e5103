"""Graph operations: products, union, join, and the complement variants."""

from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from pfgraph import (
    FAMILIES,
    ConstraintViolation,
    GenConfig,
    JoinOverlap,
    LabelClash,
    NotComplete,
    NotStrong,
    PFDegree,
    PFGraph,
    cartesian_product,
    classify,
    complement,
    complete_complement,
    compose_label,
    composition,
    generate,
    graphs_close,
    join,
    strong_complement,
    union,
    validate,
)

from conftest import build, relabel


def degree_multiset(g):
    return Counter((round(d.mu, 9), round(d.nu, 9)) for d in g.edges.values())


def restriction(g, labels):
    keep = set(labels)
    return PFGraph(
        {v: d for v, d in g.vertices.items() if v in keep},
        {k: d for k, d in g.edges.items() if k.lo in keep and k.hi in keep},
    )


def random_pair(seed, n=4, disjoint=True, family="general"):
    g1 = relabel(generate(GenConfig(seed=seed, n_vertices=n, family=family)), "l")
    g2 = relabel(generate(GenConfig(seed=seed + 100_000, n_vertices=n, family=family)), "r")
    if not disjoint:
        return g1, relabel(generate(GenConfig(seed=seed + 100_000, n_vertices=n)), "l")
    return g1, g2


class TestCartesianProduct:
    def test_two_edge_graphs(self, single_edge_pair):
        g1, g2 = single_edge_pair
        expected = build(
            {
                "(a,c)": (0.6, 0.5),
                "(a,d)": (0.5, 0.8),
                "(b,c)": (0.5, 0.7),
                "(b,d)": (0.5, 0.8),
            },
            {
                ("(a,c)", "(a,d)"): (0.4, 0.65),
                ("(b,c)", "(b,d)"): (0.4, 0.7),
                ("(a,c)", "(b,c)"): (0.5, 0.7),
                ("(a,d)", "(b,d)"): (0.5, 0.8),
            },
        )
        assert cartesian_product(g1, g2) == expected

    def test_with_single_vertex_factor(self, single_edge_pair):
        g1, _ = single_edge_pair
        z = build({"z": (0.9, 0.1)})
        result = cartesian_product(g1, z)
        assert result == build(
            {"(a,z)": (0.6, 0.3), "(b,z)": (0.5, 0.7)},
            {("(a,z)", "(b,z)"): (0.5, 0.7)},
        )

    def test_rejects_uncomposable_labels(self):
        bad = build({"x,y": (0.5, 0.5)})
        ok = build({"z": (0.5, 0.5)})
        with pytest.raises(LabelClash):
            cartesian_product(bad, ok)
        with pytest.raises(LabelClash):
            cartesian_product(ok, bad)

    def test_closure_on_random_inputs(self):
        for seed in range(60):
            g1, g2 = random_pair(seed)
            assert validate(cartesian_product(g1, g2)).ok


class TestComposition:
    def test_extends_product_with_cross_edges(self, single_edge_pair):
        g1, g2 = single_edge_pair
        result = composition(g1, g2)
        product = cartesian_product(g1, g2)
        assert result.vertices == product.vertices
        for key, degree in product.edges.items():
            assert result.edges[key] == degree
        assert result.edge_degree("(a,c)", "(b,d)") == PFDegree(0.5, 0.8)
        assert result.edge_degree("(a,d)", "(b,c)") == PFDegree(0.5, 0.8)
        assert len(result.edges) == len(product.edges) + 2

    def test_single_vertex_factor_collapses_to_product(self, single_edge_pair):
        g1, _ = single_edge_pair
        z = build({"z": (0.9, 0.1)})
        assert composition(g1, z) == cartesian_product(g1, z)

    def test_not_commutative(self, single_edge_pair):
        g1, g2 = single_edge_pair
        left = degree_multiset(composition(g1, g2))
        right = degree_multiset(composition(g2, g1))
        assert left != right

    def test_closure_on_random_inputs(self):
        for seed in range(60):
            g1, g2 = random_pair(seed)
            assert validate(composition(g1, g2)).ok


class TestUnion:
    def test_shared_vertex_takes_max_min(self, overlapping_pair):
        g1, g2 = overlapping_pair
        result = union(g1, g2)
        assert result.vertices["a"] == PFDegree(0.7, 0.1)
        assert result.edge_degree("a", "b") == PFDegree(0.4, 0.6)
        assert result.vertices["e"] == PFDegree(0.6, 0.6)
        assert result.vertices["f"] == PFDegree(0.6, 0.7)

    def test_overlapping_union_can_break_edge_bounds(self, overlapping_pair):
        # raising a shared vertex strands an edge copied from one side;
        # the operation is defined but the result is not always a valid graph
        g1, g2 = overlapping_pair
        report = validate(union(g1, g2))
        assert not report.ok
        assert any(v.where == "a-d" for v in report.violations)

    def test_union_with_itself_is_identity(self, square_cycle):
        assert union(square_cycle, square_cycle) == square_cycle

    def test_disjoint_union_is_side_by_side(self, join_pair):
        g1, g2 = join_pair
        result = union(g1, g2)
        assert restriction(result, g1.vertices) == g1
        assert restriction(result, g2.vertices) == g2
        assert len(result.edges) == len(g1.edges) + len(g2.edges)

    def test_closure_on_disjoint_random_inputs(self):
        for seed in range(60):
            g1, g2 = random_pair(seed)
            assert validate(union(g1, g2)).ok


class TestJoin:
    def test_cross_edges_carry_the_bound(self, join_pair):
        g1, g2 = join_pair
        result = join(g1, g2)
        assert result.edge_degree("a", "c") == PFDegree(0.6, 0.5)
        assert result.edge_degree("a", "d") == PFDegree(0.5, 0.8)
        assert result.edge_degree("b", "e") == PFDegree(0.5, 0.7)

    def test_vertex_and_edge_counts(self, join_pair):
        g1, g2 = join_pair
        result = join(g1, g2)
        assert len(result.vertices) == len(g1.vertices) + len(g2.vertices)
        expected_edges = (
            len(g1.edges) + len(g2.edges) + len(g1.vertices) * len(g2.vertices)
        )
        assert len(result.edges) == expected_edges

    def test_join_of_single_vertices(self):
        result = join(build({"x": (0.4, 0.6)}), build({"y": (0.7, 0.2)}))
        assert result.edge_degree("x", "y") == PFDegree(0.4, 0.6)

    def test_overlap_rejected(self, square_cycle):
        with pytest.raises(JoinOverlap):
            join(square_cycle, square_cycle)

    def test_overlap_message_orders_the_shared_labels(self, square_cycle):
        with pytest.raises(JoinOverlap, match=r"shared: \['a', 'b', 'c', 'd'\]"):
            join(square_cycle, square_cycle)
        # in str order, which puts v10 before v2
        numbered = PFGraph({"v10": PFDegree(0.5, 0.5), "v2": PFDegree(0.5, 0.5)})
        with pytest.raises(JoinOverlap, match=r"shared: \['v10', 'v2'\]$"):
            join(numbered, numbered)

    def test_closure_on_random_inputs(self):
        for seed in range(60):
            g1, g2 = random_pair(seed)
            assert validate(join(g1, g2)).ok

    def test_decomposition_recovers_the_parts(self):
        for seed in range(30):
            g1, g2 = random_pair(seed)
            for op in (union, join):
                combined = op(g1, g2)
                assert restriction(combined, g1.vertices) == g1
                assert restriction(combined, g2.vertices) == g2


class TestComplement:
    def test_hand_computed_complement(self, complement_demo):
        result = complement(complement_demo)
        expected = {
            ("a", "b"): PFDegree(0.3, 0.6),
            ("a", "c"): PFDegree(0.7, 0.5),
            ("b", "d"): PFDegree(0.3, 0.6),
        }
        for (u, v), degree in expected.items():
            assert result.edge_degree(u, v) == degree
        # pairs attaining their bound lose that component entirely
        assert result.edge_degree("a", "d").mu == 0.0
        assert result.edge_degree("a", "d").nu == pytest.approx(0.1, abs=1e-9)
        assert result.edge_degree("c", "d").mu == pytest.approx(0.1, abs=1e-9)
        assert result.edge_degree("c", "d").nu == 0.0
        assert not result.has_edge("b", "c")
        assert len(result.edges) == 5
        assert result.vertices == complement_demo.vertices

    def test_complement_of_edgeless_pair_carries_bound(self):
        g = build({"u": (0.6, 0.2), "v": (0.4, 0.5)})
        assert complement(g).edge_degree("u", "v") == PFDegree(0.4, 0.5)

    def test_involution_on_fixture(self, complement_demo):
        once = complement(complement_demo)
        assert graphs_close(complement(once), complement_demo)
        assert graphs_close(complement(complement(once)), once)

    def test_involution_on_random_graphs(self):
        for seed in range(80):
            g = generate(GenConfig(seed=seed, n_vertices=1 + seed % 6))
            assert graphs_close(complement(complement(g)), g)

    def test_complement_output_validates(self):
        for seed in range(60):
            g = generate(GenConfig(seed=seed, n_vertices=1 + seed % 6))
            assert validate(complement(g)).ok

    def test_complement_of_invalid_graph_raises(self):
        g = PFGraph(
            {"a": PFDegree(0.2, 0.5), "b": PFDegree(0.2, 0.5)},
            {("a", "b"): PFDegree(0.9, 0.1)},
        )
        with pytest.raises(ConstraintViolation):
            complement(g)


class TestComplementLaws:
    def test_complement_of_join_is_union_of_complements(self):
        for seed in range(40):
            g1, g2 = random_pair(seed)
            lhs = complement(join(g1, g2))
            rhs = union(complement(g1), complement(g2))
            assert graphs_close(lhs, rhs)

    def test_complement_of_union_is_join_of_complements(self):
        for seed in range(40):
            g1, g2 = random_pair(seed)
            lhs = complement(union(g1, g2))
            rhs = join(complement(g1), complement(g2))
            assert graphs_close(lhs, rhs)


class TestStrongComplement:
    def test_strong_path_complement_has_single_bound_edge(self, strong_path):
        result = strong_complement(strong_path)
        assert result == build(
            {"a": (0.7, 0.6), "b": (0.5, 0.4), "c": (0.2, 0.3)},
            {("a", "c"): (0.2, 0.6)},
        )

    def test_double_application_is_identity_on_strong_graphs(self):
        for seed in range(40):
            g = generate(GenConfig(seed=seed, n_vertices=2 + seed % 5, family="strong"))
            assert graphs_close(strong_complement(strong_complement(g)), g)

    def test_full_bound_graph_complements_to_edgeless(self):
        g = generate(GenConfig(seed=7, n_vertices=4, family="complete"))
        assert strong_complement(g).edges == {}

    def test_requires_strong_input(self, square_cycle):
        with pytest.raises(NotStrong):
            strong_complement(square_cycle)
        forced = strong_complement(square_cycle, force=True)
        assert validate(forced).ok

    def test_complement_of_strong_is_strong(self):
        for seed in range(40):
            g = generate(GenConfig(seed=seed, n_vertices=2 + seed % 5, family="strong"))
            assert classify(strong_complement(g)).is_strong


class TestCompleteComplement:
    def test_complete_graph_complements_to_edgeless(self):
        g = build({"x": (0.5, 0.5), "y": (0.3, 0.2)}, {("x", "y"): (0.3, 0.5)})
        result = complete_complement(g)
        assert result.edges == {}
        assert result.vertices == g.vertices

    def test_single_vertex_unchanged(self):
        g = build({"x": (0.5, 0.5)})
        assert complete_complement(g) == g

    def test_requires_complete_input(self, strong_path):
        with pytest.raises(NotComplete):
            complete_complement(strong_path)
        forced = complete_complement(strong_path, force=True)
        assert validate(forced).ok


class TestStrongClosure:
    def test_product_composition_join_preserve_strong(self):
        for seed in range(40):
            g1, g2 = random_pair(seed, n=3, family="strong")
            assert classify(cartesian_product(g1, g2)).is_strong
            assert classify(composition(g1, g2)).is_strong
            assert classify(join(g1, g2)).is_strong

    def test_union_of_strong_graphs_need_not_be_strong(self):
        g1 = build({"a": (0.3, 0.55), "b": (0.7, 0.2)}, {("a", "b"): (0.3, 0.55)})
        g2 = build({"a": (0.8, 0.55), "c": (0.5, 0.4)}, {("a", "c"): (0.5, 0.55)})
        assert classify(g1).is_strong and classify(g2).is_strong
        merged = union(g1, g2)
        assert validate(merged).ok
        assert not classify(merged).is_strong


def support(g):
    """g's edge support: the set of its edges as frozensets of labels."""
    return {frozenset(key) for key in g.edges}


def nx_support(nxg, composed=False):
    """A networkx graph's edge support, with each node of a product (a pair)
    named as the product names it when composed is set."""
    if composed:
        return {frozenset((compose_label(*u), compose_label(*v))) for u, v in nxg.edges()}
    return {frozenset(edge) for edge in nxg.edges()}


@settings(deadline=None, max_examples=60)
@given(
    seed=st.integers(0, 2**32),
    n1=st.integers(1, 5),
    n2=st.integers(1, 4),
    p=st.sampled_from([0.0, 0.5, 1.0]),
    family=st.sampled_from(FAMILIES),
)
def test_edge_supports_agree_with_networkx(seed, n1, n2, p, family):
    # each operation's edge support is the classical operation on the
    # supports; generated degrees are never (0, 0), so no edge drops out
    nx = pytest.importorskip("networkx")

    def gen(seed, n, prefix):
        return relabel(generate(GenConfig(seed=seed, n_vertices=n, edge_probability=p, family=family)), prefix)

    def to_nx(g):
        nxg = nx.Graph()
        nxg.add_nodes_from(g.vertices)
        nxg.add_edges_from(g.edges)
        return nxg

    g1, g2 = gen(seed, n1, "a"), gen(seed + 1, n2, "b")
    overlapping = gen(seed + 2, n2, "a")
    G1, G2 = to_nx(g1), to_nx(g2)
    assert support(cartesian_product(g1, g2)) == nx_support(nx.cartesian_product(G1, G2), composed=True)
    assert support(composition(g1, g2)) == nx_support(nx.lexicographic_product(G1, G2), composed=True)
    assert support(join(g1, g2)) == nx_support(nx.full_join(G1, G2))
    assert support(union(g1, overlapping)) == nx_support(nx.compose(G1, to_nx(overlapping)))
    if family in ("strong", "complete"):
        assert support(strong_complement(g1)) == nx_support(nx.complement(G1))
