"""The morphism search as it was before its pair checks were inlined.

The library's ``find_morphism`` resolves the kind's vertex and edge
relations once per call and compares bare (mu, nu) floats, reading edges
with ``edges.get`` on a canonical plain tuple.  This module keeps the
earlier body verbatim: every pair check builds its ``PairKey``s through
``has_edge`` and ``edge_degree`` and tests the relation through
``_related`` and ``degrees_close``.  The tests in ``test_morphism.py``
require the library's ``MorphismReport`` to equal this one field for field
(kind, found, witness and search_space), so the variable order, the value
order and the set and order of checks are pinned, not just the verdict.
"""

from __future__ import annotations

from pfgraph import (
    DEFAULT_SEARCH_CAP,
    MorphismKind,
    MorphismReport,
    PFDegree,
    PFGraph,
    SearchCapExceeded,
    ZERO_DEGREE,
    degrees_close,
    tolerance,
)
from pfgraph.core import sorted_vertices


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
    targets = sorted_vertices(g2)
    candidates = {
        u: [v for v, dv in targets if _related(kind.vertex_equality, du, dv, eps)]
        for u, du in sorted_vertices(g1)
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
