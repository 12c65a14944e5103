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

from itertools import chain
from typing import Iterable

from .core import (
    PFDegree,
    PFGraph,
    PairKey,
    ZERO_DEGREE,
    dangling_edge,
    degree_max_min,
    degree_min_max,
    gc_paused,
    safe_repr,
    sorted_labels,
    tolerance,
)
from .errors import ConstraintViolation, JoinOverlap, LabelClash, NotComplete, NotStrong

_FORBIDDEN_LABEL_CHARS = ("(", ")", ",")


def compose_label(left: str, right: str) -> str:
    return f"({left},{right})"


def _require_composable(graphs: Iterable[PFGraph]) -> None:
    # a dangling edge's undeclared endpoint is composed as well, so it is checked
    # too: then no two composed labels coincide and no composed key is a self-loop
    for g in graphs:
        for label in chain(g.vertices, *g.edges):
            if not isinstance(label, str):
                raise LabelClash(
                    f"vertex label {label!r} is not a string and cannot be composed "
                    "into a product label"
                )
            if any(ch in label for ch in _FORBIDDEN_LABEL_CHARS):
                raise LabelClash(
                    f"vertex label {label!r} contains '(', ')' or ',' and cannot "
                    "be composed into a product label"
                )


def _label_table(g1: PFGraph, g2: PFGraph) -> dict[str, dict[str, str]]:
    """table[a][b] is compose_label(a, b), each built once.

    a ranges over g1's labels and b over g2's, each with the endpoints of
    its graph's edges, so a dangling edge composes as a declared one does.
    """
    seconds = set(chain(g2.vertices, *g2.edges))
    return {a: {b: compose_label(a, b) for b in seconds} for a in set(chain(g1.vertices, *g1.edges))}


def _product(g1: PFGraph, g2: PFGraph, table: dict[str, dict[str, str]]) -> tuple[dict, dict]:
    """The vertex and edge maps of the Cartesian product, keys and degrees as bare tuples.

    Each degree follows :func:`degree_min_max` with the g1 side first: its
    value wins ties.  Composed labels are distinct, so a key is ordered by
    one comparison; an exactly-(0, 0) edge degree is left out.
    """
    new = tuple.__new__
    vertices, edges = {}, {}
    g2_edges = g2.edges.items()
    for u, (umu, unu) in g1.vertices.items():
        row = table[u]
        for v, (vmu, vnu) in g2.vertices.items():
            vertices[row[v]] = new(PFDegree, (vmu if vmu < umu else umu, vnu if vnu > unu else unu))
        # edges inside the copy of g2 at u
        for (lo, hi), (qmu, qnu) in g2_edges:
            a, b = row[lo], row[hi]
            mu = qmu if qmu < umu else umu
            nu = qnu if qnu > unu else unu
            if mu != 0.0 or nu != 0.0:
                edges[new(PairKey, (a, b) if a < b else (b, a))] = new(PFDegree, (mu, nu))
    # edges between copies, one per vertex of g2
    g1_edges = [(table[lo], table[hi], q) for (lo, hi), q in g1.edges.items()]
    for w, (wmu, wnu) in g2.vertices.items():
        for lo_row, hi_row, (qmu, qnu) in g1_edges:
            a, b = lo_row[w], hi_row[w]
            mu = wmu if wmu < qmu else qmu
            nu = wnu if wnu > qnu else qnu
            if mu != 0.0 or nu != 0.0:
                edges[new(PairKey, (a, b) if a < b else (b, a))] = new(PFDegree, (mu, nu))
    return vertices, edges


@gc_paused
def cartesian_product(g1: PFGraph, g2: PFGraph) -> PFGraph:
    """Cartesian product: grid of both graphs with min/max combined degrees."""
    _require_composable((g1, g2))
    return PFGraph._adopt(*_product(g1, g2, _label_table(g1, g2)))


@gc_paused
def composition(g1: PFGraph, g2: PFGraph) -> PFGraph:
    """Lexicographic-style composition g1[g2].

    Extends the Cartesian product with edges between (u1, u2) and (v1, v2)
    for every edge u1v1 of g1 and every pair of distinct g2 vertices,
    degree-limited by both g2 endpoints and the g1 edge.  Not commutative.
    """
    _require_composable((g1, g2))
    table = _label_table(g1, g2)
    vertices, edges = _product(g1, g2, table)
    new = tuple.__new__
    g2_vertices = g2.vertices.items()
    for (lo, hi), (qmu, qnu) in g1.edges.items():
        lo_row, hi_row = table[lo], table[hi]
        for u2, (umu, unu) in g2_vertices:
            a = lo_row[u2]
            for v2, (vmu, vnu) in g2_vertices:
                if u2 == v2:
                    continue
                # min and max over (u2, v2, the g1 edge), the first value winning ties
                mu = vmu if vmu < umu else umu
                mu = qmu if qmu < mu else mu
                nu = vnu if vnu > unu else unu
                nu = qnu if qnu > nu else nu
                if mu != 0.0 or nu != 0.0:
                    b = hi_row[v2]
                    edges[new(PairKey, (a, b) if a < b else (b, a))] = new(PFDegree, (mu, nu))
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
    return PFGraph._adopt(*_union_maps(g1, g2))


@gc_paused
def join(g1: PFGraph, g2: PFGraph) -> PFGraph:
    """Join: disjoint union plus one cross edge per vertex pair across sides.

    Every cross edge carries the largest degree it may: the endpoint
    minimum membership and maximum non-membership.  A cross edge that comes
    out as exactly (0, 0) is no edge and is left out.
    """
    overlap = set(g1.vertices) & set(g2.vertices)
    if overlap:
        raise JoinOverlap(
            f"join requires disjoint vertex sets; shared: {sorted_labels(overlap)}"
        )
    vertices, edges = _union_maps(g1, g2)
    for u, du in g1.vertices.items():
        for v, dv in g2.vertices.items():
            degree = degree_min_max(du, dv)
            if degree != ZERO_DEGREE:
                edges[PairKey(u, v)] = degree
    return PFGraph._adopt(vertices, edges)


def _bound_minus(bound: float, value: float, eps: float) -> float:
    """bound - value for a complement degree whose value is not within eps of zero.

    The result is clamped to exact zero near zero.  A value within eps of
    zero (absent, in effect) gives the bound itself; callers test that first.
    """
    result = bound - value
    if result < -eps:
        raise ConstraintViolation(
            f"edge degree {safe_repr(value)} exceeds its bound {safe_repr(bound)}; "
            "complement of an invalid graph"
        )
    if abs(result) <= eps:
        return 0.0
    return result


@gc_paused
def complement(g: PFGraph) -> PFGraph:
    """General complement over all vertex pairs; an involution on valid graphs."""
    eps = tolerance()
    new = tuple.__new__
    stored = dict(zip(g.edges, g.edges)).get  # an edge pair keeps g's own key object
    edges = {}
    for u, v, degree, mu, nu in g._pair_scan():  # mu, nu start as the bound: no edge's complement
        if degree is ZERO_DEGREE:
            key = new(PairKey, (u, v))
        else:
            key = stored((u, v))
            emu, enu = degree
            # _bound_minus's common case inline: a result above eps is returned as it is
            if not emu <= eps:
                rest = mu - emu
                mu = rest if rest > eps else _bound_minus(mu, emu, eps)
            if not enu <= eps:
                rest = nu - enu
                nu = rest if rest > eps else _bound_minus(nu, enu, eps)
        if mu != 0.0 or nu != 0.0:
            edges[key] = new(PFDegree, (mu, nu))
    return PFGraph._adopt(dict(g.vertices), edges)


def _zero_or_bound_complement(g: PFGraph) -> PFGraph:
    eps = tolerance()
    new = tuple.__new__
    edges = {}
    for u, v, (mu, nu), bmu, bnu in g._pair_scan():
        mu = 0.0 if mu > eps else bmu
        nu = 0.0 if nu > eps else bnu
        if mu != 0.0 or nu != 0.0:
            edges[new(PairKey, (u, v))] = new(PFDegree, (mu, nu))
    return PFGraph._adopt(dict(g.vertices), edges)


@gc_paused
def strong_complement(g: PFGraph, force: bool = False) -> PFGraph:
    """Complement for strong graphs: positive components zeroed, absent ones raised.

    Requires the input to be strong unless ``force`` is set.  The check
    walks the edges in order: a dangling edge raises DanglingEdge and an
    edge off its bound raises NotStrong, whichever comes first.
    """
    if not force:
        eps = tolerance()
        get = g.vertices.get
        for (lo, hi), (mu, nu) in g.edges.items():
            a, b = get(lo), get(hi)
            if a is None or b is None:
                raise dangling_edge(lo, hi, g.vertices)
            (amu, anu), (bmu, bnu) = a, b
            bound_mu = bmu if bmu < amu else amu  # degree_min_max's tie rule: lo's value wins
            bound_nu = bnu if bnu > anu else anu
            if not (abs(mu - bound_mu) <= eps and abs(nu - bound_nu) <= eps):
                raise NotStrong("input graph is not strong; pass force=True to override")
    return _zero_or_bound_complement(g)


@gc_paused
def complete_complement(g: PFGraph, force: bool = False) -> PFGraph:
    """Complement for complete graphs; for a genuinely complete input it is edgeless."""
    eps = tolerance()
    complete = force or all(
        abs(mu - bmu) <= eps and abs(nu - bnu) <= eps
        for _, _, (mu, nu), bmu, bnu in g._pair_scan()
    )
    if not complete:
        raise NotComplete("input graph is not complete; pass force=True to override")
    return _zero_or_bound_complement(g)
