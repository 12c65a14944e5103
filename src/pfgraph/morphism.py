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
lexicographically least one is returned.  Pruning filters per-vertex
candidate sets by the kind's vertex conditions and checks pair conditions
incrementally.  The vertex test runs once per distinct source degree:
sources whose degrees are equal share one candidate list.  Under
isomorphism, whenever some source has more than one candidate, the set-up
does two more things before the search:

- It refines the candidate lists.  A target stays a candidate of a source
  only if their degree profiles, the sorted incident mu values and the
  sorted incident nu values over all the other vertices (absent pairs as
  0), match elementwise within eps.  An isomorphism matches every pair
  within eps, so it matches each vertex's incident values to its image's,
  and two lists matched that way still match position by position once
  both are sorted.
- It looks for a perfect matching of sources to distinct candidate targets
  (Hall's condition, by augmenting paths), and answers not-found after 0
  attempts when there is none.  Every isomorphism is such a matching.

None of this pruning can exclude a valid witness, and it leaves the
variable and value order alone, so the same witness comes back, after as
many attempts or fewer; the other kinds make the same attempts as without
it.

The search runs on integer indices: sources and targets are numbered by
their positions in sorted label order, candidate lists hold target
indices, and labels come back only to build the witness.  It is one loop
over depths, with an iterator of the untried candidates at each depth.
Depth i has a check row of (p, mu, nu) for the earlier sources p that it
is tested against, built the first time the search enters the depth:
every earlier source under isomorphism, an absent edge read as (0, 0),
and only the ends of source edges under the other kinds.  A target pair's
degree is read from ``edges`` at most once per call, in either
orientation, so no target label is ordered.  It is kept in a row per
assigned target, allocated on first use and filled cell by cell, and a
cell still empty in one row is looked up in its mirror before the graph;
so per-call set-up grows with the target's size, not its square.

Each call reads the kind's vertex relation and edge relation once, as two
booleans (equality within eps, or s maps into t), and every check then
compares bare (mu, nu) floats inline: NaN relates to nothing, as in the
two relations' definitions.  Under isomorphism :func:`verify_morphism`
reads each source pair's labels and degree from the pair scan's rows, with
no key built.  Under the other kinds every source edge is checked, so
:func:`find_morphism` (before it searches) and :func:`verify_morphism`
raise DanglingEdge for the first dangling source edge in insertion order,
through :func:`~pfgraph.core.require_endpoints`, as the writers do.
"""

from __future__ import annotations

import enum
from itertools import repeat
from operator import le, sub
from typing import Mapping, NamedTuple, Optional

from .core import (
    PFGraph,
    ZERO_DEGREE,
    require_endpoints,
    sorted_edges,
    sorted_labels,
    sorted_vertices,
    tolerance,
)
from .errors import SearchCapExceeded, UnknownVertex

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


def find_morphism(
    g1: PFGraph,
    g2: PFGraph,
    kind: MorphismKind,
    cap: int = DEFAULT_SEARCH_CAP,
) -> MorphismReport:
    """Search for a map of the given kind from g1 into g2.

    Bijective kinds return not-found immediately when the vertex counts
    differ.  Raises SearchCapExceeded when g1 has more than ``cap``
    vertices; raise the cap explicitly for larger instances.  The kinds
    other than isomorphism check every source edge, so a dangling one
    raises DanglingEdge, as :func:`verify_morphism` does.

    Under isomorphism, when some source keeps more than one candidate
    after the vertex filter, each candidate must also have the source's
    degree profile within eps, and the candidate lists must admit a perfect
    matching (see the module docstring): sound filters, so found and
    witness are those of the unfiltered search, and ``search_space`` can
    only be smaller.  A source left with no candidate, or lists with no
    matching, answer not-found after 0 attempts.
    """
    n1 = len(g1.vertices)
    if n1 > cap:
        raise SearchCapExceeded(
            f"source graph has {n1} vertices, above the search cap {cap}"
        )
    bijective = kind.bijective
    if bijective and n1 != len(g2.vertices):
        return MorphismReport(kind, False, None, 0)

    eps = tolerance()
    vertex_equality = kind.vertex_equality
    edge_equality = kind.edge_equality
    iso = kind is MorphismKind.ISOMORPHISM
    sources = sorted_vertices(g1)
    targets = sorted_vertices(g2)
    if not iso:
        require_endpoints(g1)
    n2 = len(targets)
    candidates = _vertex_candidates(sources, targets, vertex_equality, eps)
    if not all(candidates):
        return MorphismReport(kind, False, None, 0)
    if iso and any(len(c) > 1 for c in candidates):
        # a single path needs neither the refinement nor the matching check,
        # which also answers for a source the refinement leaves no candidate
        candidates = _profile_refined(candidates, g1, sources, g2, targets, eps)
        if not _has_perfect_matching(candidates, n2):
            return MorphismReport(kind, False, None, 0)

    source_edge = g1.edges.get
    target_edge = g2.edges.get
    checks: list = [None] * n1  # per depth i: (p, mu, nu) for the earlier sources p
    cells: list = [None] * n2  # per assigned target x: the pairs (x, v) read so far
    pending = list(map(iter, candidates))  # per depth: the candidates not yet tried
    image = [0] * n1
    used = [False] * n2
    attempts = 0
    depth = 0
    while depth < n1:
        row = checks[depth]
        if row is None:
            u = sources[depth][0]
            row = checks[depth] = []
            for p in range(depth):
                # p sorts before u, so (p's label, u's label) is the canonical key
                s = source_edge((sources[p][0], u))
                if s is None:
                    if not iso:
                        continue
                    s = ZERO_DEGREE
                smu, snu = s
                row.append((p, smu, snu))
        for v in pending[depth]:
            if used[v]:
                continue
            attempts += 1
            for p, smu, snu in row:
                x = image[p]
                t = cells[x][v]
                if t is None:
                    mirror = cells[v]
                    t = None if mirror is None else mirror[x]
                    if t is None:
                        a, b = targets[x][0], targets[v][0]
                        # a stored degree is a non-empty tuple; a collapsed pair is never a key
                        t = target_edge((a, b)) or target_edge((b, a), ZERO_DEGREE)
                    cells[x][v] = t
                tmu, tnu = t
                if not (
                    abs(smu - tmu) <= eps and abs(snu - tnu) <= eps
                    if edge_equality
                    else smu <= tmu + eps and snu >= tnu - eps
                ):
                    break
            else:
                break  # v passes every check
        else:
            # no candidate left: rewind this depth and undo the one before
            pending[depth] = iter(candidates[depth])
            depth -= 1
            if depth < 0:
                return MorphismReport(kind, False, None, attempts)
            used[image[depth]] = False
            continue
        image[depth] = v
        used[v] = bijective  # a homomorphism may reuse a target
        if cells[v] is None:
            cells[v] = [None] * n2
        depth += 1

    witness = {u: targets[v][0] for (u, _), v in zip(sources, image)}
    return MorphismReport(kind, True, witness, attempts)


def _vertex_candidates(sources, targets, vertex_equality, eps) -> list[list[int]]:
    """Per source, the indices of the targets its degree relates to under the
    kind's vertex relation, in target order.  The test runs once per distinct
    source degree, and sources whose degrees are equal (as dict keys: -0.0
    beside 0.0, 1 beside 1.0, a NaN beside itself) share one list."""
    lists: dict = {}
    candidates = []
    for _, degree in sources:
        c = lists.get(degree)
        if c is None:
            smu, snu = degree
            c = lists[degree] = [
                j
                for j, (_, (tmu, tnu)) in enumerate(targets)
                if (
                    abs(smu - tmu) <= eps and abs(snu - tnu) <= eps
                    if vertex_equality
                    else smu <= tmu + eps and snu >= tnu - eps
                )
            ]
        candidates.append(c)
    return candidates


def _incident_profiles(g: PFGraph, items: list) -> list[tuple]:
    """Per vertex of ``items`` (g's sorted vertex items), its degree profile:
    the incident mu values over the other declared vertices, sorted, then
    the incident nu values, sorted, as one tuple.  An absent pair reads as
    0.0.  One walk of the edge map, skipping an edge with an undeclared
    endpoint, which the isomorphism search never reads; each incident list
    is padded and sorted in place."""
    index = {label: i for i, (label, _) in enumerate(items)}.get
    mus: list[list] = [[] for _ in items]
    nus: list[list] = [[] for _ in items]
    for (a, b), (mu, nu) in g.edges.items():
        i, j = index(a), index(b)
        if i is not None and j is not None:
            mus[i].append(mu)
            mus[j].append(mu)
            nus[i].append(nu)
            nus[j].append(nu)
    zeros = [0.0] * (len(items) - 1)
    profiles = []
    for m, v in zip(mus, nus):
        m += zeros[len(m):]
        m.sort()
        v += zeros[len(v):]
        v.sort()
        m += v
        profiles.append(tuple(m))
    return profiles


def _profile_refined(candidates, g1, sources, g2, targets, eps) -> list[list[int]]:
    """The candidate lists without the targets whose degree profile differs
    from their source's by more than eps at some position (sound, as the
    module docstring shows); NaN matches nothing, as in the search's pair
    check.  Each distinct source profile is compared once with each
    distinct target profile, in one C-level chain, and vertices with equal
    profiles share the verdict."""
    by_profile: dict[tuple, list[int]] = {}
    for j, q in enumerate(_incident_profiles(g2, targets)):
        by_profile.setdefault(q, []).append(j)
    classes = by_profile.items()
    within = repeat(eps)
    fits: dict[tuple, set[int]] = {}
    refined = []
    for c, p in zip(candidates, _incident_profiles(g1, sources)):
        fit = fits.get(p)
        if fit is None:
            fit = fits[p] = set()
            for q, js in classes:
                if all(map(le, map(abs, map(sub, p, q)), within)):
                    fit.update(js)
        refined.append([j for j in c if j in fit])
    return refined


def _has_perfect_matching(candidates: list[list[int]], n2: int) -> bool:
    """Whether each source can take a distinct target from its candidate
    list (Hall's condition), by augmenting paths (Kuhn's algorithm): each
    source in turn searches depth first, through the sources holding the
    targets it reaches, for a free target, and the path found shifts each
    source on it to the next target.  O(n * candidate entries)."""
    holder: list = [None] * n2  # per target: the source matched to it
    for root, c in enumerate(candidates):
        for v in c:
            if holder[v] is None:  # a free candidate: the shortest augmenting path
                holder[v] = root
                break
        else:
            seen = [False] * n2
            stack = [(root, iter(c))]
            via: list[int] = []  # via[k]: the target that leads from stack[k] to stack[k + 1]
            while stack:
                for v in stack[-1][1]:
                    if not seen[v]:
                        seen[v] = True
                        break
                else:
                    stack.pop()
                    if via:
                        via.pop()
                    continue
                via.append(v)
                w = holder[v]
                if w is None:  # a free target: each source on the path moves on by one
                    for (u, _), t in zip(stack, via):
                        holder[t] = u
                    break
                stack.append((w, iter(candidates[w])))
            else:
                return False
    return True


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
    for message, labels, known in (
        ("mapping keys not in the source graph", mapping, g1.vertices),
        ("mapping values not in the target graph", mapping.values(), g2.vertices),
        ("mapping is not total on the source graph", g1.vertices, mapping),
    ):
        unknown = []
        for v in labels:
            try:
                if v in known:
                    continue
            except TypeError:  # an unhashable label is in no graph
                pass
            unknown.append(v)
        if unknown:
            raise UnknownVertex(f"{message}: {sorted_labels(unknown)}")

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
    target_edge = g2.edges.get
    for u, (smu, snu) in sorted_vertices(g1):
        tmu, tnu = target_vertices[mapping[u]]
        if not (
            abs(smu - tmu) <= eps and abs(snu - tnu) <= eps
            if vertex_equality
            else smu <= tmu + eps and snu >= tnu - eps
        ):
            violations.append(f"vertex condition fails at {u!r} -> {mapping[u]!r}")

    if kind is MorphismKind.ISOMORPHISM:
        checked = g1._pair_scan()  # every pair, an absent edge read as (0, 0)
    else:
        checked = ((*key, g1.edges[key], None, None) for key in sorted_edges(g1))
    for u, w, (smu, snu), _, _ in checked:
        tu, tw = mapping[u], mapping[w]
        tmu, tnu = target_edge((tu, tw)) or target_edge((tw, tu), ZERO_DEGREE)
        if not (
            abs(smu - tmu) <= eps and abs(snu - tnu) <= eps
            if edge_equality
            else smu <= tmu + eps and snu >= tnu - eps
        ):
            violations.append(f"edge condition fails at pair {u}-{w} -> {tu}-{tw}")

    return MorphismCheck(not violations, tuple(violations))
