"""The morphism search and verifier as they were before target pairs were
read in either orientation.

The library's ``find_morphism`` resolves the kind's vertex and edge
relations once per call and compares bare (mu, nu) floats, reading a
target pair with ``edges.get`` in either orientation.  This module keeps
two earlier bodies verbatim.  Its ``find_morphism`` is the search before
its pair checks were inlined: every pair check builds its ``PairKey``s
through ``has_edge`` and ``edge_degree`` and tests the relation through
``_related`` and ``degrees_close``.  Its ``verify_morphism`` orders each
target pair with ``<`` and reads a collapsed pair as (0, 0); under isomorphism it reads
the source pairs through ``reference_builders.pair_rows``, not through the
library's pair scan.  The tests in
``test_search_reference.py`` require the library's ``MorphismReport`` and
``MorphismCheck`` to equal these field for field (kind, found, witness and
search_space; ok and the violations in order), so the variable order, the
value order and the set and order of checks are pinned, not just the
verdict.
"""

from __future__ import annotations

from typing import Mapping

from pfgraph import (
    DEFAULT_SEARCH_CAP,
    DanglingEdge,
    MorphismCheck,
    MorphismKind,
    MorphismReport,
    PFDegree,
    PFGraph,
    PairKey,
    SearchCapExceeded,
    UnknownVertex,
    ZERO_DEGREE,
    degrees_close,
    tolerance,
)
from reference_builders import pair_rows


def _related(equality: bool, s: PFDegree, t: PFDegree, eps: float) -> bool:
    """s equals t within eps, or without ``equality`` s maps into t."""
    if equality:
        return degrees_close(s, t, eps)
    return s.mu <= t.mu + eps and s.nu >= t.nu - eps


def find_morphism(
    g1: PFGraph,
    g2: PFGraph,
    kind: MorphismKind,
    cap: int = DEFAULT_SEARCH_CAP,
) -> MorphismReport:
    """Search for a map of the given kind from g1 into g2.

    Bijective kinds return not-found immediately when the vertex counts
    differ.  Raises SearchCapExceeded when g1 has more than ``cap``
    vertices; raise the cap explicitly for larger instances.
    """
    n1 = len(g1.vertices)
    if n1 > cap:
        raise SearchCapExceeded(
            f"source graph has {n1} vertices, above the search cap {cap}"
        )
    if kind.bijective and n1 != len(g2.vertices):
        return MorphismReport(kind, False, None, 0)

    eps = tolerance()
    targets = sorted(g2.vertices.items())
    candidates = {
        u: [v for v, dv in targets if _related(kind.vertex_equality, du, dv, eps)]
        for u, du in sorted(g1.vertices.items())
    }
    if not all(candidates.values()):
        return MorphismReport(kind, False, None, 0)
    source = list(candidates)

    iso = kind is MorphismKind.ISOMORPHISM
    edge_equality = kind.edge_equality
    assignment: dict[str, str] = {}
    used: set[str] = set()
    attempts = 0

    def compatible(u: str, v: str) -> bool:
        for w, x in assignment.items():
            if not iso and not g1.has_edge(u, w):
                continue
            # a collapsed pair (non-injective homomorphism) carries no edge
            target = ZERO_DEGREE if v == x else g2.edge_degree(v, x)
            if not _related(edge_equality, g1.edge_degree(u, w), target, eps):
                return False
        return True

    def extend(index: int) -> bool:
        nonlocal attempts
        if index == len(source):
            return True
        u = source[index]
        for v in candidates[u]:
            if kind.bijective and v in used:
                continue
            attempts += 1
            if not compatible(u, v):
                continue
            assignment[u] = v
            used.add(v)
            if extend(index + 1):
                return True
            del assignment[u]
            used.discard(v)
        return False

    if extend(0):
        return MorphismReport(kind, True, dict(assignment), attempts)
    return MorphismReport(kind, False, None, attempts)


def _edges_with_declared_endpoints(g: PFGraph) -> list[tuple[PairKey, PFDegree]]:
    """g's (key, degree) items in key order; DanglingEdge names the first edge,
    in insertion order, with an undeclared endpoint."""
    for key in g.edges:
        for endpoint in key:
            if endpoint not in g.vertices:
                raise DanglingEdge(f"edge {key} uses undeclared vertex {endpoint!r}")
    return sorted(g.edges.items())


def verify_morphism(
    g1: PFGraph,
    g2: PFGraph,
    kind: MorphismKind,
    mapping: Mapping[str, str],
) -> MorphismCheck:
    """Re-check a concrete mapping against the kind's conditions.

    The mapping must be total on g1's vertices and stay inside g2's;
    anything else raises UnknownVertex.  Condition failures are returned
    as violations, one entry per failing vertex or pair.
    """
    unknown_sources = [u for u in mapping if u not in g1.vertices]
    if unknown_sources:
        raise UnknownVertex(f"mapping keys not in the source graph: {unknown_sources}")
    unknown_targets = [v for v in mapping.values() if v not in g2.vertices]
    if unknown_targets:
        raise UnknownVertex(f"mapping values not in the target graph: {unknown_targets}")
    missing = [u for u in g1.vertices if u not in mapping]
    if missing:
        raise UnknownVertex(f"mapping is not total on the source graph: {missing}")

    violations: list[str] = []
    if kind.bijective:
        if len(set(mapping.values())) != len(g1.vertices):
            violations.append("mapping is not injective")
        if len(g1.vertices) != len(g2.vertices):
            violations.append("vertex counts differ, mapping cannot be a bijection")

    eps = tolerance()
    vertex_equality = kind.vertex_equality
    edge_equality = kind.edge_equality
    target_vertices = g2.vertices
    for u, (smu, snu) in sorted(g1.vertices.items()):
        tmu, tnu = target_vertices[mapping[u]]
        if not (
            abs(smu - tmu) <= eps and abs(snu - tnu) <= eps
            if vertex_equality
            else smu <= tmu + eps and snu >= tnu - eps
        ):
            violations.append(f"vertex condition fails at {u!r} -> {mapping[u]!r}")

    if kind is MorphismKind.ISOMORPHISM:
        checked = ((key, s) for key, s, _ in pair_rows(g1))
    else:
        checked = _edges_with_declared_endpoints(g1)
    target_edge = g2.edges.get
    for (u, w), (smu, snu) in checked:
        tu, tw = mapping[u], mapping[w]
        if tu == tw:
            tmu = tnu = 0.0
        else:
            key = (tu, tw) if tu < tw else (tw, tu)
            tmu, tnu = target_edge(key, ZERO_DEGREE)
        if not (
            abs(smu - tmu) <= eps and abs(snu - tnu) <= eps
            if edge_equality
            else smu <= tmu + eps and snu >= tnu - eps
        ):
            violations.append(f"edge condition fails at pair {u}-{w} -> {tu}-{tw}")

    return MorphismCheck(not violations, tuple(violations))
