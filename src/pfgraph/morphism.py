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
  both are sorted.  Target vertices are grouped by exact profile tuple.
  When the values a profile can hold (0.0 for an absent pair, and every
  edge mu and nu of both graphs) are free of NaN and infinities and
  pairwise more than eps apart, "within eps at every position" is tuple
  equality, and each source takes its class from one dict lookup.  One
  sort of the distinct values decides that: every adjacent gap must be
  above eps and finite.  No gap between two sorted values is smaller
  than a gap between adjacent values inside it, because rounding is
  monotone (a larger exact difference never rounds to a smaller float),
  so checking the adjacent gaps checks every pair.  A NaN fails the check
  (0.0 is always there as a neighbour to fail with), and so does an
  infinity, which equals itself as a key but is not within eps of itself.
  In that exact case a profile is built as one int, not a sorted tuple,
  while the D distinct values are no more than the n vertices.  With r(x)
  a value's rank among them, an edge degree (mu, nu) weighs
  ``n**r(mu) + n**(D + r(nu))``, less the weight of an absent pair's
  (0.0, 0.0); one walk of the edge map adds each edge's weight to both
  ends' codes.  A code is then the base-n numeral whose digit r counts
  the padded mu list's entries of rank r, and digit D + r the nu list's,
  less a constant shared by every vertex.  Each list has n - 1 entries,
  so no digit reaches n and no sum carries: equal codes are equal padded
  multisets, which are equal sorted tuples, and the classes, the lists
  and the witnesses are those of the tuples.  Values that compare equal
  as dict keys (-0.0 and 0.0, 1 and 1.0) are one value, as they are
  equal tuple elements.  With D above n a code would hold more digits
  than the tuple holds entries, so the tuples stay.
  Otherwise each distinct source profile is compared with each target
  class, position by position.
- It looks for a perfect matching of sources to distinct candidate targets
  (Hall's condition, by augmenting paths), and answers not-found after 0
  attempts when there is none.  Every isomorphism is such a matching.

Under all three bijective kinds, when the filters above leave every source
every target as a candidate, so that the search would start blind, one
more check compares connected components, in O(n + m).  A source edge is
forced when its degree fails the kind's edge relation against (0, 0), the
degree an absent target pair reads as: not within eps of it under
equality, not ``mu <= eps and nu >= -eps`` under maps-into.  NaN relates
to nothing, so an edge holding one is forced.  A map of a bijective kind
sends each forced source edge onto a stored target edge, and distinct
pairs onto distinct pairs, so it maps the graph of the forced edges into
the graph of the target's stored edges, one vertex bijection for both.
Each component of the first lies inside one component of the second, so
its largest component is no larger.  When the two edge counts are equal,
the forced edges map onto every stored edge, the bijection is an
isomorphism of the two edge graphs, and their sorted component sizes are
equal.  Under isomorphism the inverse is an isomorphism too, so both rules
hold with the graphs swapped.  A broken rule answers not-found after 0
attempts.  Only a blind search takes the check: one with a shorter list,
which mostly finds its map, would pay for it and gain nothing.

None of this pruning can exclude a valid witness, and it leaves the
variable and value order alone, so the same witness comes back, after as
many attempts or fewer.  The component check removes attempts only where
no map exists, and a homomorphism search makes the same attempts as
without any of it.

The search runs on integer indices: sources and targets are numbered by
their positions in sorted label order, candidate lists hold target
indices, and labels come back only to build the witness.  It is one loop
over depths, with an iterator of the untried candidates at each depth.
Depth i has a check row of (p, mu, nu) for the earlier sources p that it
is tested against, built the first time the search enters the depth:
every earlier source under isomorphism, an absent edge read as (0, 0),
and only the ends of source edges under the other kinds.  A target pair's
degree is read from ``edges`` at most once per call, by one lookup of its
two labels in ``<`` order, which the label rule guarantees; a collapsed
pair (a, a), which only a homomorphism can meet, is never a key and
reads as (0, 0).  It is kept in a row per assigned target, allocated on
first use and filled cell by cell, and a cell still empty in one row is
looked up in its mirror before the graph; so per-call set-up grows with
the target's size, not its square.

Each call reads the kind's vertex relation and edge relation once, as two
booleans (equality within eps, or s maps into t).  A pair check compares
the source's (mu, nu) with the floats in the target pair's cell, and NaN
relates to nothing, as in the two relations' definitions.  Under equality
(isomorphism, co-weak isomorphism) a cell holds the stored degree, and a
check tests ``abs(smu - tmu) <= eps`` and the same for nu.  Under
maps-into (homomorphism, weak isomorphism) a cell holds the bounds
``(tmu + eps, tnu - eps)``, computed once when the pair is read, and a
check is ``smu <= high and snu >= low``, which builds no float.  Those
bounds are the floats that ``smu <= tmu + eps and snu >= tnu - eps`` (the
form the vertex test and :func:`verify_morphism` keep) builds on every
check, from the same operands by the same operation: an int component is
converted as it is there, and a NaN or an infinity carries through the
shift.  So every verdict, and with it every attempt, is the same.

:func:`verify_morphism` does work in proportion to n + m (vertices plus
both graphs' edges) and sorts only the checks that fail.  Every kind walks
the source edges once, in any order, and reads each one's image pair in
either orientation, a collapsed pair or a miss as (0, 0), counting the
hits: the source edges whose image is a stored target edge.  Isomorphism
also checks the source pairs without an edge, (0, 0) on the source side.
Such a pair fails exactly when its image is a target edge that is not
within eps of (0, 0), which a NaN never is.  When the map is injective
and every target edge was hit, distinct pairs have distinct images and
every target edge is a source edge's image, so no pair without an edge
meets a target edge and nothing is left to check.  Otherwise one walk of
the target edges, with each target value's source preimages, names every
such pair: per target edge (x, y) away from (0, 0), each pair of a
preimage of x and a preimage of y that is not a source edge.  That walk
costs n + m plus one step per failing pair.  The failing vertices and the
failing pairs are each sorted, the pairs in key order, which is the pair
scan's order, so the messages come in the order of a check of every pair.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping
from itertools import chain, repeat
from math import inf
from operator import le, sub
from typing import NamedTuple, Optional

from .core import (
    PFGraph,
    ZERO_DEGREE,
    _type_error,
    safe_repr,
    safe_str,
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
    vertices; raise the cap explicitly for larger instances.

    Under isomorphism, when some source keeps more than one candidate
    after the vertex filter, each candidate must also have the source's
    degree profile within eps, and the candidate lists must admit a perfect
    matching.  Under every bijective kind, when every source still takes
    every target, the connected components of the source's forced edges
    (those an absent target pair cannot take) must fit those of the
    target's stored edges, and under isomorphism the other way round too
    (see the module docstring).  These are sound filters, so found and
    witness are those of the unfiltered search, and ``search_space`` can
    only be smaller.  A source left with no candidate, lists with no
    matching, or components that do not fit answer not-found after 0
    attempts.  A ``kind`` that is not a MorphismKind, a graph that is not a
    PFGraph or a ``cap`` that is not an int (a bool included) raises
    TypeError naming the parameter.
    """
    if not isinstance(kind, MorphismKind):
        raise _type_error("kind", kind, MorphismKind)
    if not isinstance(g1, PFGraph):
        raise _type_error("g1", g1, PFGraph)
    if not isinstance(g2, PFGraph):
        raise _type_error("g2", g2, PFGraph)
    n1 = len(g1.vertices)
    _require_cap(n1, cap)
    bijective = kind.bijective
    if bijective and n1 != len(g2.vertices):
        return MorphismReport(kind, False, None, 0)

    eps = tolerance()
    vertex_equality = kind.vertex_equality
    edge_equality = kind.edge_equality
    iso = kind is MorphismKind.ISOMORPHISM
    sources = sorted(g1.vertices.items())
    targets = sorted(g2.vertices.items())
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
    if (
        bijective
        and all(len(c) == n2 for c in candidates)
        and not _components_admit(g1, g2, edge_equality, eps, iso)
    ):
        # the filters above leave the search blind: every source takes every target
        return MorphismReport(kind, False, None, 0)

    source_edge = g1.edges.get
    target_edge = g2.edges.get
    checks: list = [None] * n1  # per depth i: (p, mu, nu) for the earlier sources p
    # per assigned target x: the pairs (x, v) read so far, as stored or, under
    # maps-into, as (mu + eps, nu - eps)
    cells: list = [None] * n2
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
                        # a collapsed pair (a, a), a homomorphism's, is never a key
                        t = target_edge((a, b) if a < b else (b, a), ZERO_DEGREE)
                        if not edge_equality:  # maps-into: the cell holds the bounds
                            tmu, tnu = t
                            t = (tmu + eps, tnu - eps)
                    cells[x][v] = t
                tmu, tnu = t  # under maps-into, already shifted by eps
                if not (
                    abs(smu - tmu) <= eps and abs(snu - tnu) <= eps
                    if edge_equality
                    else smu <= tmu and snu >= tnu
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


def _require_cap(n: int, cap: int) -> None:
    """Raise TypeError for a ``cap`` that is not an int (a bool is an int to
    isinstance, but never a cap), and SearchCapExceeded for a source graph
    of n vertices above it."""
    if isinstance(cap, bool) or not isinstance(cap, int):
        raise _type_error("cap", cap, int)
    if n > cap:
        raise SearchCapExceeded(f"source graph has {n} vertices, above the search cap {cap}")


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
    0.0.  One walk of the edge map; each incident list is padded and sorted
    in place."""
    index = {label: i for i, (label, _) in enumerate(items)}
    mus: list[list] = [[] for _ in items]
    nus: list[list] = [[] for _ in items]
    for (a, b), (mu, nu) in g.edges.items():
        i, j = index[a], index[b]
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


def _code_weights(values: list, n: int) -> tuple[dict, dict]:
    """The mu and nu weight of each of ``values`` (the D sorted distinct
    values a profile can hold, 0.0 among them) for profile codes over n
    vertices: n**r for a mu value of rank r and n**(D + r) for a nu value,
    each less the weight of 0.0, an absent pair's value, in its place.  The
    powers come from one table of 2D entries."""
    d = len(values)
    powers = [n**k for k in range(2 * d)]
    zero = values.index(0.0)
    mu_zero, nu_zero = powers[zero], powers[d + zero]
    return (
        {x: p - mu_zero for x, p in zip(values, powers)},
        {x: p - nu_zero for x, p in zip(values, powers[d:])},
    )


def _incident_codes(g: PFGraph, items: list, weights: tuple[dict, dict]) -> list[int]:
    """Per vertex of ``items`` (g's sorted vertex items), its degree profile
    as one int: the sum of its incident edges' weights (see
    :func:`_code_weights`), by one walk of the edge map.  The absent pairs
    that pad a profile weigh 0, so the code is the padded profile's base-n
    numeral less the same constant for every vertex."""
    mu_weight, nu_weight = weights
    codes = dict.fromkeys(g.vertices, 0)
    for (a, b), (mu, nu) in g.edges.items():
        w = mu_weight[mu] + nu_weight[nu]
        codes[a] += w
        codes[b] += w
    return [codes[label] for label, _ in items]


def _profile_refined(candidates, g1, sources, g2, targets, eps) -> list[list[int]]:
    """The candidate lists without the targets whose degree profile differs
    from their source's by more than eps at some position (sound, as the
    module docstring shows); NaN matches nothing, as in the search's pair
    check.  When the values a profile can hold are finite and pairwise more
    than eps apart, that relation is equality of profiles: each source takes
    the targets whose profile equals its own from one dict lookup, and a
    source whose list holds every target takes that class list itself.
    Profiles are then the ints of :func:`_incident_codes`, equal exactly
    when the sorted tuples are (each base-n digit counts at most n - 1
    padded entries, so no sum carries), while there are no more distinct
    values than vertices; above that the tuples stay, which a code would
    outgrow.  Otherwise each distinct source profile tuple is compared once
    with each distinct target profile tuple, in one C-level chain, and
    vertices with equal profiles share the verdict."""
    # the module docstring has the argument; 0.0 gives a NaN a neighbour
    values = {0.0}
    values.update(chain.from_iterable(g1.edges.values()), chain.from_iterable(g2.edges.values()))
    values = sorted(values)
    exact = all(eps < b - a < inf for a, b in zip(values, values[1:]))
    n2 = len(targets)
    if exact and len(values) <= n2:
        weights = _code_weights(values, n2)
        source_profiles = _incident_codes(g1, sources, weights)
        target_profiles = _incident_codes(g2, targets, weights)
    else:
        source_profiles = _incident_profiles(g1, sources)
        target_profiles = _incident_profiles(g2, targets)
    by_profile: dict = {}
    for j, q in enumerate(target_profiles):
        by_profile.setdefault(q, []).append(j)
    classes = by_profile.items()
    within = repeat(eps)
    fits: dict[tuple, set[int]] = {}
    refined = []
    for c, p in zip(candidates, source_profiles):
        if exact:
            fit = by_profile.get(p, [])
            if len(c) == n2:
                refined.append(fit)
                continue
        else:
            fit = fits.get(p)
            if fit is None:
                fit = fits[p] = set()
                for q, js in classes:
                    if all(map(le, map(abs, map(sub, p, q)), within)):
                        fit.update(js)
        refined.append([j for j in c if j in fit])
    return refined


def _forced_keys(edges: dict, edge_equality: bool, eps: float) -> list:
    """The keys of ``edges`` whose degree fails the kind's edge relation
    against an absent pair's (0, 0), by the search's own pair check: not
    within eps of it under equality, not ``mu <= eps and nu >= -eps`` under
    maps-into.  NaN relates to nothing, so an edge holding one is forced."""
    zmu, znu = ZERO_DEGREE
    if edge_equality:
        return [k for k, (mu, nu) in edges.items() if not (abs(mu - zmu) <= eps and abs(nu - znu) <= eps)]
    high, low = zmu + eps, znu - eps
    return [k for k, (mu, nu) in edges.items() if not (mu <= high and nu >= low)]


def _component_sizes(vertices, keys) -> list[int]:
    """The sizes of the connected components of the graph on ``vertices``
    with the edges ``keys`` (label pairs), sorted; a vertex that no edge
    meets is a component of its own.  Each merge relabels the smaller
    component's members, so a vertex moves at most log2(n) times."""
    root = {v: v for v in vertices}  # per vertex: a label naming its component
    members = {v: [v] for v in vertices}  # per component label: its vertices
    for a, b in keys:
        small, large = root[a], root[b]
        if small == large:
            continue
        if len(members[small]) > len(members[large]):
            small, large = large, small
        moved = members.pop(small)
        for v in moved:
            root[v] = large
        members[large] += moved
    return sorted(map(len, members.values()))


def _components_admit(g1: PFGraph, g2: PFGraph, edge_equality: bool, eps: float, iso: bool) -> bool:
    """Whether the connected components leave room for a bijection that
    sends each forced edge of g1 (see :func:`_forced_keys`) to a distinct
    stored edge of g2, and under isomorphism each forced edge of g2 back to
    a distinct stored edge of g1, as every map of a bijective kind does (the
    module docstring has the argument).  False when the largest component
    of the forced edges outgrows the other side's largest, or when the two
    edge counts are equal and the sorted component sizes differ."""
    for g, h in ((g1, g2), (g2, g1)) if iso else ((g1, g2),):
        forced = _forced_keys(g.edges, edge_equality, eps)
        sizes = _component_sizes(g.vertices, forced)
        room = _component_sizes(h.vertices, h.edges)
        if sizes[-1:] > room[-1:]:  # the largest; [] for no vertices
            return False
        if len(forced) == len(h.edges) and sizes != room:
            return False
    return True


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
    as violations, one entry per failing vertex or pair: the bijection
    failures, then the failing vertices in label order, then the failing
    pairs in key order.  The check takes O(n + m) time on a map that
    passes, and one more step per failing pair: one walk of the source
    edges, and under isomorphism, only when the map is not injective or
    some target edge is no source edge's image, one walk of the target
    edges (see the module docstring for why that covers every pair).  A
    ``kind`` that
    is not a MorphismKind, a ``mapping`` that is not a Mapping or a graph
    that is not a PFGraph raises TypeError naming the parameter.
    """
    if not isinstance(kind, MorphismKind):
        raise _type_error("kind", kind, MorphismKind)
    if not isinstance(mapping, Mapping):
        raise _type_error("mapping", mapping, Mapping)
    if not isinstance(g1, PFGraph):
        raise _type_error("g1", g1, PFGraph)
    if not isinstance(g2, PFGraph):
        raise _type_error("g2", g2, PFGraph)
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
            raise UnknownVertex(f"{message}: [{', '.join(map(safe_repr, unknown))}]")

    violations: list[str] = []
    if kind.bijective:
        injective = len(set(mapping.values())) == len(g1.vertices)
        if not injective:
            violations.append("mapping is not injective")
        if len(g1.vertices) != len(g2.vertices):
            violations.append("vertex counts differ, mapping cannot be a bijection")

    eps = tolerance()
    vertex_equality = kind.vertex_equality
    edge_equality = kind.edge_equality
    target_vertices = g2.vertices
    failed_vertices = []
    for u, (smu, snu) in g1.vertices.items():
        tmu, tnu = target_vertices[mapping[u]]
        if not (
            abs(smu - tmu) <= eps and abs(snu - tnu) <= eps
            if vertex_equality
            else smu <= tmu + eps and snu >= tnu - eps
        ):
            failed_vertices.append(u)
    for u in sorted(failed_vertices):
        violations.append(f"vertex condition fails at {safe_repr(u)} -> {safe_repr(mapping[u])}")

    # every kind checks each source edge against its image pair, read in either
    # orientation: the caller's values need only equal the target's labels (a
    # str subclass may, and may override <), so need not order as they do; a
    # collapsed pair (t, t) is never a key and reads as (0, 0), as a miss does
    source_edges = g1.edges
    target_edges = g2.edges
    target_edge = target_edges.get
    failed_pairs = []
    hits = 0  # source edges whose image is a stored target edge
    for key, (smu, snu) in source_edges.items():
        u, w = key
        tu, tw = mapping[u], mapping[w]
        t = target_edge((tu, tw)) or target_edge((tw, tu))
        if t is None:
            t = ZERO_DEGREE
        else:
            hits += 1
        tmu, tnu = t
        if not (
            abs(smu - tmu) <= eps and abs(snu - tnu) <= eps
            if edge_equality
            else smu <= tmu + eps and snu >= tnu - eps
        ):
            failed_pairs.append(key)
    # Under isomorphism a source pair with no edge, (0, 0), fails exactly when
    # its image is a target edge not within eps of (0, 0).  When the map is
    # injective and every target edge is some source edge's image, no pair
    # without an edge maps onto a target edge, and nothing is left to check.
    if kind is MorphismKind.ISOMORPHISM and not (injective and hits == len(target_edges)):
        preimages: dict = {}  # keyed by the caller's values, equal to the target's labels
        for u in g1.vertices:
            preimages.setdefault(mapping[u], []).append(u)
        zmu, znu = ZERO_DEGREE
        for (x, y), (tmu, tnu) in target_edges.items():
            if abs(zmu - tmu) <= eps and abs(znu - tnu) <= eps:
                continue
            for u in preimages.get(x, ()):
                for w in preimages.get(y, ()):
                    key = (u, w) if u < w else (w, u)
                    if key not in source_edges:
                        failed_pairs.append(key)
    # g1's labels are strs, which < orders totally, and key order is the pair scan's order
    for u, w in sorted(failed_pairs):
        names = map(safe_str, (u, w, mapping[u], mapping[w]))
        violations.append("edge condition fails at pair {}-{} -> {}-{}".format(*names))

    return MorphismCheck(not violations, tuple(violations))
