"""Shared builders and pinned graphs used across the test modules."""

import gc

import pytest

from pfgraph import PFDegree, PFGraph


@pytest.fixture(autouse=True)
def gc_left_on():
    """Every test, and so every public call in the suite, leaves the cyclic GC on."""
    yield
    assert gc.isenabled(), "the cyclic GC was left disabled"


def build(vertices, edges=()):
    """Terse graph builder: degree tuples instead of PFDegree instances."""
    vs = {label: PFDegree(*pair) for label, pair in vertices.items()}
    es = {key: PFDegree(*pair) for key, pair in dict(edges).items()}
    return PFGraph(vs, es)


class Unordered(str):
    """A str that equals and hashes as its text, but that ``<`` cannot order:
    a caller's mapping value that stands for a label."""

    def __lt__(self, other):
        raise TypeError("an Unordered value has no order")

    __gt__ = __le__ = __ge__ = __lt__


def relabel(g, prefix):
    """Copy of g with every label prefixed; keeps all degrees unchanged."""
    mapping = {v: prefix + v for v in g.vertices}
    return relabel_with(g, mapping)


def relabel_with(g, mapping):
    vs = {mapping[v]: d for v, d in g.vertices.items()}
    es = {(mapping[k.lo], mapping[k.hi]): d for k, d in g.edges.items()}
    return PFGraph(vs, es)


@pytest.fixture
def square_cycle():
    """Four vertices in a cycle; a known-good valid graph."""
    return build(
        {"a": (0.5, 0.7), "b": (0.8, 0.3), "c": (0.6, 0.5), "d": (0.4, 0.4)},
        {
            ("a", "b"): (0.4, 0.7),
            ("b", "c"): (0.5, 0.45),
            ("c", "d"): (0.3, 0.5),
            ("d", "a"): (0.4, 0.6),
        },
    )


@pytest.fixture
def single_edge_pair():
    """Two 2-vertex single-edge graphs used by the product/composition tests."""
    g1 = build({"a": (0.6, 0.3), "b": (0.5, 0.7)}, {("a", "b"): (0.5, 0.7)})
    g2 = build({"c": (0.7, 0.5), "d": (0.5, 0.8)}, {("c", "d"): (0.4, 0.65)})
    return g1, g2


@pytest.fixture
def overlapping_pair():
    """Two graphs sharing vertices a..d; exercises the union combine rules."""
    g1 = build(
        {"a": (0.3, 0.8), "b": (0.5, 0.6), "c": (0.3, 0.4), "d": (0.7, 0.2), "e": (0.6, 0.6)},
        {
            ("a", "b"): (0.3, 0.7),
            ("b", "c"): (0.3, 0.6),
            ("b", "e"): (0.5, 0.6),
            ("c", "e"): (0.2, 0.5),
            ("d", "e"): (0.5, 0.6),
            ("a", "d"): (0.2, 0.8),
        },
    )
    g2 = build(
        {"a": (0.7, 0.1), "b": (0.4, 0.6), "c": (0.8, 0.2), "d": (0.2, 0.4), "f": (0.6, 0.7)},
        {
            ("a", "b"): (0.4, 0.6),
            ("b", "c"): (0.3, 0.6),
            ("b", "f"): (0.4, 0.7),
            ("b", "d"): (0.2, 0.6),
            ("c", "f"): (0.5, 0.7),
        },
    )
    return g1, g2


@pytest.fixture
def join_pair():
    """An edge graph and a 3-vertex path with disjoint labels, for join tests."""
    g1 = build({"a": (0.6, 0.3), "b": (0.5, 0.7)}, {("a", "b"): (0.5, 0.7)})
    g2 = build(
        {"c": (0.7, 0.5), "d": (0.5, 0.8), "e": (0.6, 0.6)},
        {("c", "d"): (0.5, 0.8), ("d", "e"): (0.5, 0.7)},
    )
    return g1, g2


@pytest.fixture
def complement_demo():
    """Four vertices, three edges; complement computed by hand in the tests."""
    return build(
        {"a": (0.7, 0.5), "b": (0.3, 0.6), "c": (0.8, 0.2), "d": (0.5, 0.4)},
        {("b", "c"): (0.3, 0.6), ("c", "d"): (0.4, 0.4), ("d", "a"): (0.5, 0.4)},
    )


@pytest.fixture
def strong_path():
    """Path a-b-c with both edges at their attainable bound."""
    return build(
        {"a": (0.7, 0.6), "b": (0.5, 0.4), "c": (0.2, 0.3)},
        {("a", "b"): (0.5, 0.6), ("b", "c"): (0.2, 0.4)},
    )


@pytest.fixture
def isomorphic_quad_pair():
    """Two 4-vertex graphs related by the vertex map a1>b3, a2>b1, a3>b2, a4>b4."""
    g1 = build(
        {"a1": (0.4, 0.7), "a2": (0.7, 0.3), "a3": (0.6, 0.5), "a4": (0.3, 0.8)},
        {
            ("a1", "a3"): (0.3, 0.7),
            ("a3", "a2"): (0.5, 0.4),
            ("a2", "a4"): (0.3, 0.8),
            ("a4", "a1"): (0.3, 0.7),
            ("a3", "a4"): (0.2, 0.7),
        },
    )
    g2 = build(
        {"b1": (0.7, 0.3), "b2": (0.6, 0.5), "b3": (0.4, 0.7), "b4": (0.3, 0.8)},
        {
            ("b1", "b2"): (0.5, 0.4),
            ("b2", "b3"): (0.3, 0.7),
            ("b3", "b4"): (0.3, 0.7),
            ("b4", "b1"): (0.3, 0.8),
            ("b4", "b2"): (0.2, 0.7),
        },
    )
    return g1, g2


@pytest.fixture
def swapped_degree_pair():
    """Equal vertex degrees after swapping labels, but a weaker edge on one side."""
    g1 = build({"a1": (0.5, 0.7), "a2": (0.6, 0.4)}, {("a1", "a2"): (0.5, 0.7)})
    g2 = build({"b1": (0.6, 0.4), "b2": (0.5, 0.7)}, {("b1", "b2"): (0.4, 0.6)})
    return g1, g2


@pytest.fixture
def dominated_vertex_pair():
    """Vertexwise dominated degrees with equal edge degrees."""
    g1 = build({"a1": (0.6, 0.5), "a2": (0.7, 0.6)}, {("a1", "a2"): (0.6, 0.5)})
    g2 = build({"b1": (0.7, 0.6), "b2": (0.8, 0.5)}, {("b1", "b2"): (0.6, 0.5)})
    return g1, g2


@pytest.fixture
def balanced_sums_triangle():
    """Triangle whose edge-degree totals equal half the pair-bound totals,
    yet the graph is not isomorphic to its complement."""
    return build(
        {"a": (0.6, 0.4), "b": (0.5, 0.6), "c": (0.3, 0.7)},
        {("a", "b"): (0.3, 0.4), ("a", "c"): (0.15, 0.3), ("b", "c"): (0.1, 0.3)},
    )
