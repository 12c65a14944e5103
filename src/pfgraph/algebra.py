"""Binary and unary operations on Pythagorean fuzzy graphs.

All operations are pure: inputs are never mutated and the result is a new
graph.  The two product-like operations build composite vertices labeled
"(left,right)", so their inputs may not contain parentheses or commas in
vertex labels; that keeps the composed labels unambiguous and round-trippable
through the JSON format.

The general complement ranges over *all* unordered vertex pairs, not just
the original edge set: a pair without an edge receives the full attainable
bound, an edge gets the bound minus its degree, and pairs that come out as
(0, 0) are dropped.  That convention is what makes the complement an
involution.  The strong/complete complement variants instead zero out each
positive component and raise absent components to the bound.
"""

from __future__ import annotations

from typing import Iterable

from .core import (
    PFDegree,
    PFGraph,
    PairKey,
    degree_max_min,
    degree_min_max,
    degrees_close,
    sorted_labels,
    tolerance,
)
from .errors import ConstraintViolation, JoinOverlap, LabelClash, NotComplete, NotStrong

_FORBIDDEN_LABEL_CHARS = ("(", ")", ",")


def compose_label(left: str, right: str) -> str:
    return f"({left},{right})"


def _require_composable(graphs: Iterable[PFGraph]) -> None:
    for g in graphs:
        for label in g.vertices:
            if any(ch in label for ch in _FORBIDDEN_LABEL_CHARS):
                raise LabelClash(
                    f"vertex label {label!r} contains '(', ')' or ',' and cannot "
                    "be composed into a product label"
                )


def _product_vertices(g1: PFGraph, g2: PFGraph) -> dict[str, PFDegree]:
    return {
        compose_label(u, v): degree_min_max(du, dv)
        for u, du in g1.vertices.items()
        for v, dv in g2.vertices.items()
    }


def _product_edges(g1: PFGraph, g2: PFGraph) -> dict[PairKey, PFDegree]:
    edges: dict[PairKey, PFDegree] = {}
    # edges inside one copy of g2, one copy per vertex of g1
    for u, du in g1.vertices.items():
        for key2, q2 in g2.edges.items():
            key = PairKey(compose_label(u, key2.lo), compose_label(u, key2.hi))
            edges[key] = degree_min_max(du, q2)
    # edges between copies, one per vertex of g2
    for w, dw in g2.vertices.items():
        for key1, q1 in g1.edges.items():
            key = PairKey(compose_label(key1.lo, w), compose_label(key1.hi, w))
            edges[key] = degree_min_max(q1, dw)
    return edges


def cartesian_product(g1: PFGraph, g2: PFGraph) -> PFGraph:
    """Cartesian product: grid of both graphs with min/max combined degrees."""
    _require_composable((g1, g2))
    return PFGraph(_product_vertices(g1, g2), _product_edges(g1, g2))


def composition(g1: PFGraph, g2: PFGraph) -> PFGraph:
    """Lexicographic-style composition g1[g2].

    Extends the Cartesian product with edges between (u1, u2) and (v1, v2)
    for every edge u1v1 of g1 and every pair of distinct g2 vertices,
    degree-limited by both g2 endpoints and the g1 edge.  Not commutative.
    """
    _require_composable((g1, g2))
    edges = _product_edges(g1, g2)
    for key1, q1 in g1.edges.items():
        for u2, du2 in g2.vertices.items():
            for v2, dv2 in g2.vertices.items():
                if u2 == v2:
                    continue
                key = PairKey(compose_label(key1.lo, u2), compose_label(key1.hi, v2))
                edges[key] = PFDegree(
                    min(du2.mu, dv2.mu, q1.mu), max(du2.nu, dv2.nu, q1.nu)
                )
    return PFGraph(_product_vertices(g1, g2), edges)


def union(g1: PFGraph, g2: PFGraph) -> PFGraph:
    """Union: copy non-shared parts, combine shared ones by max/min.

    Shared vertices and shared edges take the larger membership and the
    smaller non-membership.  Overlapping unions are always defined but are
    not guaranteed to satisfy the edge bounds, because raising a shared
    vertex's membership can strand an edge copied from one side; validate
    the result when the vertex sets overlap.
    """
    vertices: dict[str, PFDegree] = dict(g1.vertices)
    for v, d2 in g2.vertices.items():
        d1 = vertices.get(v)
        vertices[v] = d2 if d1 is None else degree_max_min(d1, d2)
    edges: dict[PairKey, PFDegree] = dict(g1.edges)
    for key, q2 in g2.edges.items():
        q1 = edges.get(key)
        edges[key] = q2 if q1 is None else degree_max_min(q1, q2)
    return PFGraph(vertices, edges)


def join(g1: PFGraph, g2: PFGraph) -> PFGraph:
    """Join: disjoint union plus one cross edge per vertex pair across sides.

    Every cross edge carries the largest degree it may: the endpoint
    minimum membership and maximum non-membership.
    """
    overlap = set(g1.vertices) & set(g2.vertices)
    if overlap:
        raise JoinOverlap(
            f"join requires disjoint vertex sets; shared: {sorted_labels(overlap)}"
        )
    joined = union(g1, g2)
    edges = dict(joined.edges)
    for u, du in g1.vertices.items():
        for v, dv in g2.vertices.items():
            edges[PairKey(u, v)] = degree_min_max(du, dv)
    return PFGraph(joined.vertices, edges)


def _bound_minus(bound: float, value: float, eps: float) -> float:
    """bound - value for complement degrees, clamped to exact zero near zero."""
    if value <= eps:
        return bound
    result = bound - value
    if result < -eps:
        raise ConstraintViolation(
            f"edge degree {value!r} exceeds its bound {bound!r}; "
            "complement of an invalid graph"
        )
    if abs(result) <= eps:
        return 0.0
    return result


def complement(g: PFGraph) -> PFGraph:
    """General complement over all vertex pairs; an involution on valid graphs."""
    eps = tolerance()
    edges = {
        key: PFDegree(_bound_minus(bmu, mu, eps), _bound_minus(bnu, nu, eps))
        for key, (mu, nu), (bmu, bnu) in g.pair_rows()
    }
    return PFGraph(g.vertices, edges)


def _zero_or_bound_complement(g: PFGraph) -> PFGraph:
    eps = tolerance()
    edges = {
        key: PFDegree(0.0 if mu > eps else bmu, 0.0 if nu > eps else bnu)
        for key, (mu, nu), (bmu, bnu) in g.pair_rows()
    }
    return PFGraph(g.vertices, edges)


def strong_complement(g: PFGraph, force: bool = False) -> PFGraph:
    """Complement for strong graphs: positive components zeroed, absent ones raised.

    Requires the input to be strong unless ``force`` is set.
    """
    eps = tolerance()
    if not force and not all(
        degrees_close(degree, g.pair_bound(key.lo, key.hi), eps)
        for key, degree in g.edges.items()
    ):
        raise NotStrong("input graph is not strong; pass force=True to override")
    return _zero_or_bound_complement(g)


def complete_complement(g: PFGraph, force: bool = False) -> PFGraph:
    """Complement for complete graphs; for a genuinely complete input it is edgeless."""
    eps = tolerance()
    if not force and not all(
        degrees_close(degree, bound, eps) for _, degree, bound in g.pair_rows()
    ):
        raise NotComplete("input graph is not complete; pass force=True to override")
    return _zero_or_bound_complement(g)
