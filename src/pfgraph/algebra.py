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
positive component and raise absent components to the bound; the one pass
that builds their output also checks that the input is strong or complete.

The complements, the products and ``join`` keep one rule for the degree
objects they store (``generate`` keeps it too; ``union`` combines only the
degrees the two sides share, by :func:`degree_max_min`): a degree whose two floats are, by identity, the two floats of an input
PFDegree (a vertex's, or an edge's) is that input object, not a new equal
one.  So a pair at its bound whose one endpoint has both the smaller mu and
the larger nu shares that endpoint's degree.  The choice is made by ``is``,
never by ``==``: with a tie between 0.0 and -0.0, or a NaN, equal-looking
degrees differ, and the comparisons' order alone decides which float, and
so which object, a degree keeps.  Fewer new objects mean less to allocate
and fewer for the cyclic GC to track (see :func:`~pfgraph.core.gc_paused`).
"""

from __future__ import annotations

from typing import Iterable

from .core import (
    PFDegree,
    PFGraph,
    PairKey,
    ZERO_DEGREE,
    _type_error,
    degree_max_min,
    gc_paused,
    tolerance,
)
from .errors import ConstraintViolation, JoinOverlap, LabelClash, NotComplete, NotStrong

_FORBIDDEN_LABEL_CHARS = ("(", ")", ",")


def compose_label(left: str, right: str) -> str:
    return f"({left},{right})"


def _require_composable(graphs: Iterable[PFGraph]) -> None:
    # labels free of '(', ')' and ',': no two composed labels coincide and no
    # composed key is a self-loop
    for g in graphs:
        for label in g.vertices:
            if any(ch in label for ch in _FORBIDDEN_LABEL_CHARS):
                raise LabelClash(
                    f"vertex label {label!r} contains '(', ')' or ',' and cannot "
                    "be composed into a product label"
                )


def _label_table(g1: PFGraph, g2: PFGraph) -> dict[str, dict[str, str]]:
    """table[a][b] is compose_label(a, b), each built once, for a a label of g1
    and b a label of g2."""
    return {a: {b: compose_label(a, b) for b in g2.vertices} for a in g1.vertices}


def _product(g1: PFGraph, g2: PFGraph, table: dict[str, dict[str, str]]) -> tuple[dict, dict]:
    """The vertex and edge maps of the Cartesian product, keys and degrees as bare tuples.

    Each degree follows :func:`degree_min_max` with the g1 side first: its
    value wins ties.  A degree that picks both floats of one input degree
    (a vertex, or an edge of either factor) is that degree's own object.
    Composed labels are distinct, so a key is ordered by one comparison; an
    exactly-(0, 0) edge degree is left out.
    """
    new = tuple.__new__
    vertices, edges = {}, {}
    g2_vertices, g2_edges = g2.vertices.items(), g2.edges.items()
    for u, du in g1.vertices.items():
        umu, unu = du
        row = table[u]
        for v, dv in g2_vertices:
            vmu, vnu = dv
            mu = vmu if vmu < umu else umu
            nu = vnu if vnu > unu else unu
            vertices[row[v]] = (du if mu is umu and nu is unu else dv if mu is vmu and nu is vnu
                                else new(PFDegree, (mu, nu)))
        # edges inside the copy of g2 at u
        for (lo, hi), q in g2_edges:
            qmu, qnu = q
            a, b = row[lo], row[hi]
            mu = qmu if qmu < umu else umu
            nu = qnu if qnu > unu else unu
            if mu != 0.0 or nu != 0.0:
                edges[new(PairKey, (a, b) if a < b else (b, a))] = (
                    du if mu is umu and nu is unu else q if mu is qmu and nu is qnu
                    else new(PFDegree, (mu, nu)))
    # edges between copies, one per vertex of g2
    g1_edges = [(table[lo], table[hi], q) for (lo, hi), q in g1.edges.items()]
    for w, dw in g2_vertices:
        wmu, wnu = dw
        for lo_row, hi_row, q in g1_edges:
            qmu, qnu = q
            a, b = lo_row[w], hi_row[w]
            mu = wmu if wmu < qmu else qmu
            nu = wnu if wnu > qnu else qnu
            if mu != 0.0 or nu != 0.0:
                edges[new(PairKey, (a, b) if a < b else (b, a))] = (
                    q if mu is qmu and nu is qnu else dw if mu is wmu and nu is wnu
                    else new(PFDegree, (mu, nu)))
    return vertices, edges


@gc_paused
def cartesian_product(g1: PFGraph, g2: PFGraph) -> PFGraph:
    """Cartesian product: grid of both graphs with min/max combined degrees."""
    if not isinstance(g1, PFGraph):
        raise _type_error("g1", g1, PFGraph)
    if not isinstance(g2, PFGraph):
        raise _type_error("g2", g2, PFGraph)
    _require_composable((g1, g2))
    return PFGraph._adopt(*_product(g1, g2, _label_table(g1, g2)))


@gc_paused
def composition(g1: PFGraph, g2: PFGraph) -> PFGraph:
    """Lexicographic-style composition g1[g2].

    Extends the Cartesian product with edges between (u1, u2) and (v1, v2)
    for every edge u1v1 of g1 and every pair of distinct g2 vertices,
    degree-limited by both g2 endpoints and the g1 edge.  Not commutative.
    """
    if not isinstance(g1, PFGraph):
        raise _type_error("g1", g1, PFGraph)
    if not isinstance(g2, PFGraph):
        raise _type_error("g2", g2, PFGraph)
    _require_composable((g1, g2))
    table = _label_table(g1, g2)
    vertices, edges = _product(g1, g2, table)
    new = tuple.__new__
    # every ordered pair (u2, v2) of distinct g2 vertices, in loop order, with
    # the position of its bound in ``bounds``, which holds one degree per
    # distinct pair of floats picked: u2's or v2's own degree where it picks
    # both of that vertex's floats, or the u2-v2 edge's where that edge holds
    # the two floats picked (an edge at its bound)
    bounds: list = []
    at_picks: dict = {}
    g2_rows = []
    g2_vertices, g2_edge = g2.vertices.items(), g2.edges.get
    for u2, du in g2_vertices:
        umu, unu = du
        row = []
        for v2, dv in g2_vertices:
            if v2 == u2:
                continue
            vmu, vnu = dv
            # degree_min_max's rule, u2's value winning ties
            mu = vmu if vmu < umu else umu
            nu = vnu if vnu > unu else unu
            picks = (id(mu), id(nu))  # both floats live as long as g2
            at = at_picks.get(picks)
            if at is None:
                at = at_picks[picks] = len(bounds)
                if mu is umu and nu is unu:
                    bound = du
                elif mu is vmu and nu is vnu:
                    bound = dv
                else:
                    bound = g2_edge((u2, v2) if u2 < v2 else (v2, u2))
                    if bound is None or bound[0] is not mu or bound[1] is not nu:
                        bound = new(PFDegree, (mu, nu))
                bounds.append(bound)
            row.append((v2, at))
        g2_rows.append((u2, row))
    for (lo, hi), q in g1.edges.items():
        qmu, qnu = q
        # each bound limited by the g1 edge, the bound's value winning ties;
        # None for an exactly-(0, 0) degree, which is no edge
        degrees = []
        for bound in bounds:
            bmu, bnu = bound
            mu = qmu if qmu < bmu else bmu
            nu = qnu if qnu > bnu else bnu
            degrees.append(
                None if mu == 0.0 and nu == 0.0
                else bound if mu is bmu and nu is bnu else q if mu is qmu and nu is qnu
                else new(PFDegree, (mu, nu)))
        lo_row, hi_row = table[lo], table[hi]
        for u2, row in g2_rows:
            a = lo_row[u2]
            for v2, at in row:
                degree = degrees[at]
                if degree is not None:
                    b = hi_row[v2]
                    edges[new(PairKey, (a, b) if a < b else (b, a))] = degree
    return PFGraph._adopt(vertices, edges)


def _union_maps(g1: PFGraph, g2: PFGraph) -> tuple[dict, dict]:
    """The vertex and edge maps of the union; every key is one of the inputs' own.

    A shared edge whose combined degree is exactly (0, 0), which only
    invalid inputs give, is left out.
    """
    vertices: dict[str, PFDegree] = dict(g1.vertices)
    for v, d2 in g2.vertices.items():
        d1 = vertices.get(v)
        vertices[v] = d2 if d1 is None else degree_max_min(d1, d2)
    edges: dict[PairKey, PFDegree] = dict(g1.edges)
    for key, q2 in g2.edges.items():
        q1 = edges.get(key)
        if q1 is None:
            edges[key] = q2
        else:
            degree = degree_max_min(q1, q2)
            if degree != ZERO_DEGREE:
                edges[key] = degree
            else:
                del edges[key]
    return vertices, edges


@gc_paused
def union(g1: PFGraph, g2: PFGraph) -> PFGraph:
    """Union: copy non-shared parts, combine shared ones by max/min.

    Shared vertices and shared edges take the larger membership and the
    smaller non-membership.  Overlapping unions are always defined but are
    not guaranteed to satisfy the edge bounds, because raising a shared
    vertex's membership can strand an edge copied from one side; validate
    the result when the vertex sets overlap.
    """
    if not isinstance(g1, PFGraph):
        raise _type_error("g1", g1, PFGraph)
    if not isinstance(g2, PFGraph):
        raise _type_error("g2", g2, PFGraph)
    return PFGraph._adopt(*_union_maps(g1, g2))


@gc_paused
def join(g1: PFGraph, g2: PFGraph) -> PFGraph:
    """Join: disjoint union plus one cross edge per vertex pair across sides.

    Every cross edge carries the largest degree it may: the endpoint
    minimum membership and maximum non-membership.  A cross edge that comes
    out as exactly (0, 0) is no edge and is left out.
    """
    if not isinstance(g1, PFGraph):
        raise _type_error("g1", g1, PFGraph)
    if not isinstance(g2, PFGraph):
        raise _type_error("g2", g2, PFGraph)
    overlap = set(g1.vertices) & set(g2.vertices)
    if overlap:
        shared = ", ".join(map(repr, sorted(overlap)))
        raise JoinOverlap(f"join requires disjoint vertex sets; shared: [{shared}]")
    vertices, edges = _union_maps(g1, g2)
    new = tuple.__new__
    g2_vertices = g2.vertices.items()
    for u, du in g1.vertices.items():
        umu, unu = du
        for v, dv in g2_vertices:
            vmu, vnu = dv
            # degree_min_max's rule, u's value winning ties
            mu = vmu if vmu < umu else umu
            nu = vnu if vnu > unu else unu
            if mu != 0.0 or nu != 0.0:  # u and v are distinct labels
                edges[new(PairKey, (u, v) if u < v else (v, u))] = (
                    du if mu is umu and nu is unu else dv if mu is vmu and nu is vnu
                    else new(PFDegree, (mu, nu)))
    return PFGraph._adopt(vertices, edges)


def _bound_minus(bound: float, value: float, eps: float) -> float:
    """bound - value for a complement degree whose value is not within eps of zero.

    The result is clamped to exact zero near zero.  A value within eps of
    zero (absent, in effect) gives the bound itself; callers test that first.
    """
    result = bound - value
    if result < -eps:
        raise ConstraintViolation(
            f"edge degree {value!r} exceeds its bound {bound!r}; "
            "complement of an invalid graph"
        )
    if abs(result) <= eps:
        return 0.0
    return result


def _keys_by_row(g: PFGraph) -> dict:
    """{lo: {hi: key}} over g's edges, each key g's own object.

    A pair (u, v) of the pair scan finds its edge key as ``rows[u][v]``, by
    two lookups of labels, whose hashes are cached for str.
    """
    rows: dict = {}
    for key in g.edges:
        lo, hi = key
        row = rows.get(lo)
        if row is None:
            row = rows[lo] = {}
        row[hi] = key
    return rows


@gc_paused
def complement(g: PFGraph) -> PFGraph:
    """General complement over all vertex pairs; an involution on valid graphs."""
    if not isinstance(g, PFGraph):
        raise _type_error("g", g, PFGraph)
    eps = tolerance()
    new = tuple.__new__
    degree_of = g.edges.__getitem__
    rows = _keys_by_row(g)
    no_edges: dict = {}
    edges = {}
    for u, du, tail in g._pair_scan():
        umu, unu = du
        key_of = rows.get(u, no_edges).get
        for v, dv in tail:
            vmu, vnu = dv
            # the bound, degree_min_max's rule inline: no edge's complement
            mu = vmu if vmu < umu else umu
            nu = vnu if vnu > unu else unu
            key = key_of(v)  # an edge pair keeps g's own key object
            if key is not None:
                emu, enu = degree_of(key)
                # _bound_minus inline, which is left to raise (or pass a NaN on)
                if not emu <= eps:
                    rest = mu - emu
                    if rest > eps:
                        mu = rest
                    elif rest >= -eps:
                        mu = 0.0
                    else:
                        mu = _bound_minus(mu, emu, eps)
                if not enu <= eps:
                    rest = nu - enu
                    if rest > eps:
                        nu = rest
                    elif rest >= -eps:
                        nu = 0.0
                    else:
                        nu = _bound_minus(nu, enu, eps)
            if mu != 0.0 or nu != 0.0:
                if key is None:
                    key = new(PairKey, (u, v))
                edges[key] = (du if mu is umu and nu is unu else dv if mu is vmu and nu is vnu
                              else new(PFDegree, (mu, nu)))
    return PFGraph._adopt(dict(g.vertices), edges)


def _zero_or_bound_complement(g: PFGraph, off_bound: Exception | None) -> PFGraph:
    """The strong and complete complements' pass: each component of a pair's
    edge above eps becomes 0.0, each other component the pair's bound.

    The same pass checks the input: ``off_bound`` (a NotStrong or a
    NotComplete) is raised at the first edge in scan order, or for a
    NotComplete the first pair (an absent one reading as (0, 0)), not within
    eps of its bound in both components; None checks nothing.
    """
    eps = tolerance()
    check_edges = off_bound is not None
    check_pairs = isinstance(off_bound, NotComplete)
    new = tuple.__new__
    degree_of = g.edges.__getitem__
    rows = _keys_by_row(g)
    no_edges: dict = {}
    edges = {}
    for u, du, tail in g._pair_scan():
        umu, unu = du
        key_of = rows.get(u, no_edges).get
        for v, dv in tail:
            vmu, vnu = dv
            # the bound, degree_min_max's rule inline
            mu = vmu if vmu < umu else umu
            nu = vnu if vnu > unu else unu
            key = key_of(v)  # an edge pair keeps g's own key object
            if key is not None:
                emu, enu = degree_of(key)
                if check_edges and not (abs(emu - mu) <= eps and abs(enu - nu) <= eps):
                    raise off_bound
                if emu > eps:
                    mu = 0.0
                if enu > eps:
                    nu = 0.0
            elif check_pairs and not (abs(mu) <= eps and abs(nu) <= eps):
                raise off_bound
            if mu != 0.0 or nu != 0.0:
                if key is None:
                    key = new(PairKey, (u, v))
                edges[key] = (du if mu is umu and nu is unu else dv if mu is vmu and nu is vnu
                              else new(PFDegree, (mu, nu)))
    return PFGraph._adopt(dict(g.vertices), edges)


@gc_paused
def strong_complement(g: PFGraph, force: bool = False) -> PFGraph:
    """Complement for strong graphs: positive components zeroed, absent ones raised.

    Requires the input to be strong unless ``force`` is set: an edge off
    its bound raises NotStrong.
    """
    if not isinstance(g, PFGraph):
        raise _type_error("g", g, PFGraph)
    off_bound = None if force else NotStrong("input graph is not strong; pass force=True to override")
    return _zero_or_bound_complement(g, off_bound)


@gc_paused
def complete_complement(g: PFGraph, force: bool = False) -> PFGraph:
    """Complement for complete graphs; for a genuinely complete input it is edgeless.

    Requires the input to be complete unless ``force`` is set: a pair off
    its bound raises NotComplete.
    """
    if not isinstance(g, PFGraph):
        raise _type_error("g", g, PFGraph)
    off_bound = None if force else NotComplete("input graph is not complete; pass force=True to override")
    return _zero_or_bound_complement(g, off_bound)
