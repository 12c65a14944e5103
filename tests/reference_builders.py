"""The graph builders as they were before they wrote bare tuples.

The library's ``generate``, complements, ``half_strong_construction`` and
products build each key and degree as a bare tuple, and ``union`` and
``join`` keep their inputs' keys; all of them drop exactly-(0, 0) edge
degrees themselves and hand their maps to ``PFGraph._adopt`` once;
``classify`` stops scanning once every flag has a witness.  This module
keeps the earlier bodies verbatim: every key through ``PairKey(...)``,
every degree through ``PFDegree(...)``, ``degree_min_max`` or
``degree_max_min``, every graph
through the checking constructor ``PFGraph(...)``, and a classify that
scans every pair.  It also keeps the sum identities and ``graphs_close``
as they were before the pair scan yielded flat rows: every pair through
this module's :func:`pair_rows` and every comparison through
``degrees_close``.  ``pair_rows`` walks the sorted labels pair by pair and
reads each pair through ``edge_degree`` and ``pair_bound``, so a defect in
the library's pair scan cannot pass on both sides.
Each body calls this module's own copies of the others, so the property
tests in ``test_builders.py`` compare the library against an independent
path and require the same graph (vertices, edges, edge order and rendered
bytes), the same classification, the same sum report to the bit, the same
verdict, or the same exception class and message.
"""

import itertools
import math
import random
from typing import Iterable, Iterator, Mapping, Optional

from pfgraph import (
    Classification,
    ConstraintViolation,
    SumIdentityReport,
    ZERO_DEGREE,
    GenConfig,
    JoinOverlap,
    LabelClash,
    NotComplete,
    NotStrong,
    PFDegree,
    PFGraph,
    PairKey,
    degree_max_min,
    degree_min_max,
    degrees_close,
    tolerance,
)


def _draw_vertex_degree(rng: random.Random, quantize: Optional[int]) -> PFDegree:
    while True:
        mu = rng.random()
        nu = rng.random() * math.sqrt(max(0.0, 1.0 - mu * mu))
        if quantize is not None:
            mu = round(mu, quantize)
            nu = round(nu, quantize)
            # rounding both up can break the constraint; redraw the rare offender
            if mu * mu + nu * nu > 1.0 + tolerance():
                continue
        return PFDegree(mu, nu)


def generate(cfg: GenConfig) -> PFGraph:
    """Produce a valid graph for the given config, deterministically.

    Families: "general" draws edge degrees uniformly inside their bounds
    for a random subset of pairs; "strong" puts the selected edges exactly
    at their bounds; "complete" puts every pair at its bound; and
    "half_strong" gives every pair half its bound, which makes the output
    isomorphic to its own complement.
    """
    rng = random.Random(cfg.seed)
    labels = [f"v{i}" for i in range(cfg.n_vertices)]
    vertices = {label: _draw_vertex_degree(rng, cfg.quantize) for label in labels}
    if cfg.family == "half_strong":
        return half_strong_construction(vertices)

    # index order, not sorted order: it fixes which random draw each pair gets
    all_pairs = [
        PairKey(labels[i], labels[j])
        for i in range(cfg.n_vertices)
        for j in range(i + 1, cfg.n_vertices)
    ]

    edges: dict[PairKey, PFDegree] = {}
    for key in all_pairs:
        bound = degree_min_max(vertices[key.lo], vertices[key.hi])
        if cfg.family == "complete":
            edges[key] = bound
        else:
            keep = rng.random() < cfg.edge_probability
            if cfg.family == "strong":
                if keep:
                    edges[key] = bound
            else:
                if keep:
                    mu = rng.random() * bound.mu
                    nu = rng.random() * bound.nu
                    if cfg.quantize is not None:
                        mu = round(mu, cfg.quantize)
                        nu = round(nu, cfg.quantize)
                    edges[key] = PFDegree(mu, nu)
    return PFGraph(vertices, edges)


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
    """Union: copy non-shared parts, combine shared ones by max/min."""
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
    """Join: disjoint union plus one cross edge per vertex pair across sides."""
    overlap = set(g1.vertices) & set(g2.vertices)
    if overlap:
        raise JoinOverlap(
            f"join requires disjoint vertex sets; shared: {sorted(overlap)}"
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


def pair_rows(g: PFGraph) -> Iterator[tuple[PairKey, PFDegree, PFDegree]]:
    """(key, degree, bound) for every unordered pair in sorted key order,
    read through the per-pair methods."""
    for u, v in itertools.combinations(sorted(g.vertices), 2):
        yield PairKey(u, v), g.edge_degree(u, v), g.pair_bound(u, v)


def complement(g: PFGraph) -> PFGraph:
    """General complement over all vertex pairs; an involution on valid graphs."""
    eps = tolerance()
    edges = {
        key: PFDegree(_bound_minus(bmu, mu, eps), _bound_minus(bnu, nu, eps))
        for key, (mu, nu), (bmu, bnu) in pair_rows(g)
    }
    return PFGraph(g.vertices, edges)


def _zero_or_bound_complement(g: PFGraph) -> PFGraph:
    eps = tolerance()
    edges = {
        key: PFDegree(0.0 if mu > eps else bmu, 0.0 if nu > eps else bnu)
        for key, (mu, nu), (bmu, bnu) in pair_rows(g)
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
        degrees_close(degree, bound, eps) for _, degree, bound in pair_rows(g)
    ):
        raise NotComplete("input graph is not complete; pass force=True to override")
    return _zero_or_bound_complement(g)


def classify(g: PFGraph) -> Classification:
    eps = tolerance()
    # witnesses keep the strength flags ahead of the completeness flags
    strength: dict[str, tuple[str, str]] = {}
    completeness: dict[str, tuple[str, str]] = {}
    edges = g.edges
    for key, (mu, nu), (bmu, bnu) in pair_rows(g):
        pair = tuple(key)
        mu_equal = abs(mu - bmu) <= eps
        nu_equal = abs(nu - bnu) <= eps
        if key in edges:
            if not mu_equal:
                strength.setdefault("is_mu_strong", pair)
            if not nu_equal:
                strength.setdefault("is_nu_strong", pair)
        if not (mu_equal and nu_equal):
            completeness.setdefault("is_complete", pair)
        if not (mu_equal and bnu - nu > eps):
            completeness.setdefault("is_complete_mu_strong", pair)
        if not (bmu - mu > eps and nu_equal):
            completeness.setdefault("is_complete_nu_strong", pair)

    witnesses = {**strength, **completeness}
    first = strength.get("is_mu_strong") or strength.get("is_nu_strong")
    if first is not None:
        witnesses["is_strong"] = first
    return Classification(
        is_mu_strong="is_mu_strong" not in witnesses,
        is_nu_strong="is_nu_strong" not in witnesses,
        is_strong=first is None,
        is_complete="is_complete" not in witnesses,
        is_complete_mu_strong="is_complete_mu_strong" not in witnesses,
        is_complete_nu_strong="is_complete_nu_strong" not in witnesses,
        witnesses=witnesses,
    )


def half_strong_construction(p: Mapping[str, PFDegree]) -> PFGraph:
    """Build the graph on all pairs whose edges carry half the attainable bound.

    Each pair (u, v) receives membership min(mu_u, mu_v)/2 and
    non-membership max(nu_u, nu_v)/2.  The output is always valid and is
    isomorphic to its own general complement under the identity map.
    """
    g = PFGraph(p)
    edges = {key: PFDegree(0.5 * bmu, 0.5 * bnu) for key, _, (bmu, bnu) in pair_rows(g)}
    return PFGraph(g.vertices, edges)


def _sum_report(g: PFGraph, factor: float) -> SumIdentityReport:
    eps = tolerance()
    edge_mu = edge_nu = bound_mu = bound_nu = 0.0
    for _, (mu, nu), (bmu, bnu) in pair_rows(g):
        edge_mu += mu
        edge_nu += nu
        bound_mu += bmu
        bound_nu += bnu
    rhs_mu = factor * bound_mu
    rhs_nu = factor * bound_nu
    return SumIdentityReport(
        lhs_mu=edge_mu,
        rhs_mu=rhs_mu,
        lhs_nu=edge_nu,
        rhs_nu=rhs_nu,
        holds_mu=abs(edge_mu - rhs_mu) <= eps,
        holds_nu=abs(edge_nu - rhs_nu) <= eps,
    )


def sum_identity(g: PFGraph) -> SumIdentityReport:
    """Edge-degree totals against half the pair-bound totals.

    Every graph isomorphic to its general complement satisfies both
    equalities; the converse does not hold.
    """
    return _sum_report(g, 0.5)


def strong_sum_identity(g: PFGraph) -> SumIdentityReport:
    """Edge-degree totals against the full pair-bound totals (no half factor)."""
    return _sum_report(g, 1.0)


def graphs_close(g1: PFGraph, g2: PFGraph, eps: float | None = None) -> bool:
    """Equality up to tolerance: same vertices, all degrees within eps.

    Edge presence may differ only where the present degree is within eps of
    (0, 0), because absent edges read as exactly (0, 0).
    """
    if eps is None:
        eps = tolerance()
    if set(g1.vertices) != set(g2.vertices):
        return False
    for label in g1.vertices:
        if not degrees_close(g1.vertices[label], g2.vertices[label], eps):
            return False
    for key in set(g1.edges) | set(g2.edges):
        d1 = g1.edges.get(key, ZERO_DEGREE)
        d2 = g2.edges.get(key, ZERO_DEGREE)
        if not degrees_close(d1, d2, eps):
            return False
    return True
