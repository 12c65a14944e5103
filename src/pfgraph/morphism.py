"""Brute-force search for structure maps between Pythagorean fuzzy graphs.

Four kinds of map are supported.  Writing s for source and t for target
degrees, a candidate map g must satisfy, up to the global tolerance:

- homomorphism: s.mu <= t.mu and s.nu >= t.nu on vertices, and the same
  componentwise relations on every source edge;
- isomorphism: a bijection with equality on vertices and on *every*
  unordered pair (absent edges read as (0, 0) on both sides, so the check
  compares total pair functions);
- weak isomorphism: a bijection with vertex equalities and the
  homomorphism edge inequalities on source edges;
- co-weak isomorphism: a bijection with the homomorphism vertex
  inequalities and edge equalities on source edges.

The search is backtracking over vertex assignments in sorted source order,
trying target labels in sorted order, so when several witnesses exist the
lexicographically least one is returned.  Pruning only filters per-vertex
candidate sets by the kind's vertex conditions and checks pair conditions
incrementally, which cannot exclude a valid witness.
"""

from __future__ import annotations

import enum
from typing import Mapping, NamedTuple, Optional

from .core import (
    PFDegree,
    PFGraph,
    ZERO_DEGREE,
    degrees_close,
    sorted_edges,
    sorted_labels,
    sorted_vertices,
    tolerance,
)
from .errors import DanglingEdge, SearchCapExceeded, UnknownVertex

DEFAULT_SEARCH_CAP = 9


class MorphismKind(enum.Enum):
    HOMOMORPHISM = "homomorphism"
    ISOMORPHISM = "isomorphism"
    WEAK_ISOMORPHISM = "weak_isomorphism"
    COWEAK_ISOMORPHISM = "coweak_isomorphism"

    @property
    def bijective(self) -> bool:
        return self is not MorphismKind.HOMOMORPHISM

    @property
    def vertex_equality(self) -> bool:
        return self in (MorphismKind.ISOMORPHISM, MorphismKind.WEAK_ISOMORPHISM)

    @property
    def edge_equality(self) -> bool:
        return self in (MorphismKind.ISOMORPHISM, MorphismKind.COWEAK_ISOMORPHISM)


class MorphismReport(NamedTuple):
    """Search outcome: the kind sought, a witness if one exists, and the
    number of assignment attempts the search explored."""

    kind: MorphismKind
    found: bool
    witness: Optional[dict[str, str]]
    search_space: int

    def as_dict(self) -> dict:
        witness = None if self.witness is None else dict(self.witness)
        return {**self._asdict(), "kind": self.kind.value, "witness": witness}


class MorphismCheck(NamedTuple):
    ok: bool
    violations: tuple[str, ...]


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
        raise UnknownVertex(f"mapping keys not in the source graph: {sorted_labels(unknown_sources)}")
    unknown_targets = [v for v in mapping.values() if v not in g2.vertices]
    if unknown_targets:
        raise UnknownVertex(f"mapping values not in the target graph: {sorted_labels(unknown_targets)}")
    missing = [u for u in g1.vertices if u not in mapping]
    if missing:
        raise UnknownVertex(f"mapping is not total on the source graph: {sorted_labels(missing)}")

    violations: list[str] = []
    if kind.bijective:
        if len(set(mapping.values())) != len(g1.vertices):
            violations.append("mapping is not injective")
        if len(g1.vertices) != len(g2.vertices):
            violations.append("vertex counts differ, mapping cannot be a bijection")

    eps = tolerance()
    for u, du in sorted_vertices(g1):
        if not _related(kind.vertex_equality, du, g2.vertices[mapping[u]], eps):
            violations.append(f"vertex condition fails at {u!r} -> {mapping[u]!r}")

    if kind is MorphismKind.ISOMORPHISM:
        checked = ((key, s) for key, s, _ in g1.pair_rows())
    else:
        checked = sorted_edges(g1)
    for (u, w), s in checked:
        try:
            tu, tw = mapping[u], mapping[w]
        except KeyError as exc:  # the mapping is total on g1's vertices
            raise DanglingEdge(f"edge {u}-{w} uses undeclared vertex {exc.args[0]!r}") from None
        t = ZERO_DEGREE if tu == tw else g2.edge_degree(tu, tw)
        if not _related(kind.edge_equality, s, t, eps):
            violations.append(f"edge condition fails at pair {u}-{w} -> {tu}-{tw}")

    return MorphismCheck(not violations, tuple(violations))
