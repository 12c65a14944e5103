"""Straightforward reference versions of ``validate`` and ``parse``.

The library's ``validate`` tests each rule inline in one pass over the
items, and its ``parse`` reads each value once and leaves the degree rules
to ``validate``.  These references keep the plain per-item code, which
reads every degree through :func:`degree_violations` and every bound
through ``PFGraph.pair_bound``, and a parse that reads each degree through
one helper and then validates the whole graph.  The
property tests require the library to agree with them exactly: the same
graph, or the same exception class, message and report.
:func:`boundary_specs` draws the graphs those tests feed to both sides,
and :func:`door` builds them, holding the constructor to the endpoint rule.
"""

import json
import math
import warnings

from hypothesis import strategies as st

from pfgraph import (
    DEFAULT_EPSILON,
    ConstraintViolation,
    DanglingEdge,
    DuplicateEdge,
    DuplicateVertex,
    MalformedDocument,
    PFDegree,
    PFGraph,
    PairKey,
    ValidationReport,
    Violation,
    tolerance,
)
from pfgraph.core import in_unit_range


def degree_violations(d: PFDegree) -> list[str]:
    """Return human-readable constraint problems of a single degree pair."""
    problems = []
    if not in_unit_range(d.mu):
        problems.append(f"membership {d.mu!r} outside [0, 1]")
    if not in_unit_range(d.nu):
        problems.append(f"non-membership {d.nu!r} outside [0, 1]")
    if d.mu * d.mu + d.nu * d.nu > 1.0 + tolerance():
        problems.append(
            f"membership {d.mu!r} and non-membership {d.nu!r} have squared sum > 1"
        )
    return problems


def reference_validate(g):
    eps = tolerance()
    found = []

    for label, degree in g.vertices.items():
        for problem in degree_violations(degree):
            found.append(Violation("bad_vertex_degree", str(label), problem))

    for key, degree in g.edges.items():
        for problem in degree_violations(degree):
            found.append(Violation("bad_edge_degree", str(key), problem))
        bound = g.pair_bound(key.lo, key.hi)
        if degree.mu > bound.mu + eps:
            found.append(
                Violation(
                    "edge_membership_above_bound",
                    str(key),
                    f"edge membership {degree.mu!r} exceeds endpoint minimum {bound.mu!r}",
                )
            )
        if degree.nu > bound.nu + eps:
            found.append(
                Violation(
                    "edge_nonmembership_above_bound",
                    str(key),
                    f"edge non-membership {degree.nu!r} exceeds endpoint maximum {bound.nu!r}",
                )
            )

    return ValidationReport(tuple(found))


def _require(condition, message):
    if not condition:
        raise MalformedDocument(message)


def _read_degree(entry, where):
    for field in ("mu", "nu"):
        value = entry.get(field)
        _require(
            isinstance(value, (int, float)) and not isinstance(value, bool),
            f"{where}: {field!r} must be a number",
        )
        _require(in_unit_range(value), f"{where}: {field!r} value {value!r} outside [0, 1]")
    return PFDegree(float(entry["mu"]), float(entry["nu"]))


def _require_endpoints(key, vertices):
    """DanglingEdge, naming the edge and its first endpoint in key order that
    is not a vertex, unless both are."""
    for endpoint in key:
        if endpoint not in vertices:
            raise DanglingEdge(f"edge {key} uses undeclared vertex {endpoint!r}")


def door(vertices, edges):
    """``PFGraph(vertices, edges)`` for ``edges`` as (key, degree) items,
    held to the endpoint rule: it must raise DanglingEdge, with
    ``parse``'s message for the first kept edge in insertion order with an
    undeclared endpoint, exactly when there is one (an exactly (0, 0) edge
    is no edge).  Then the graph without the edges that name an undeclared
    vertex is returned, so that a caller compares results on it."""
    try:
        for key, degree in edges:
            if degree != (0, 0):
                _require_endpoints(PairKey(*key), vertices)
    except DanglingEdge as expected:
        try:
            PFGraph(vertices, edges)
        except DanglingEdge as refused:
            assert str(refused) == str(expected)
        else:
            raise AssertionError(f"the constructor accepted a dangling edge: {expected}")
        edges = [(key, degree) for key, degree in edges if all(v in vertices for v in key)]
    return PFGraph(vertices, edges)


def reference_parse(text, check=True):
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise MalformedDocument("not valid JSON: nested too deeply") from None

    _require(isinstance(doc, dict), "document root must be an object")
    version = doc.get("format_version")
    _require(
        isinstance(version, int) and not isinstance(version, bool) and version == 1,
        "format_version must be 1",
    )
    _require(isinstance(doc.get("vertices"), list), "'vertices' must be a list")
    _require(isinstance(doc.get("edges"), list), "'edges' must be a list")

    vertices = {}
    for entry in doc["vertices"]:
        _require(isinstance(entry, dict), "vertex entries must be objects")
        label = entry.get("id")
        _require(isinstance(label, str) and label != "", "vertex 'id' must be a non-empty string")
        if label in vertices:
            raise DuplicateVertex(f"vertex {label!r} declared twice")
        vertices[label] = _read_degree(entry, f"vertex {label!r}")

    edges = {}
    for entry in doc["edges"]:
        _require(isinstance(entry, dict), "edge entries must be objects")
        u, v = entry.get("u"), entry.get("v")
        _require(
            isinstance(u, str) and isinstance(v, str) and u and v,
            "edge endpoints 'u' and 'v' must be non-empty strings",
        )
        try:
            key = PairKey(u, v)
        except ValueError as exc:
            raise MalformedDocument(str(exc)) from exc
        _require_endpoints(key, vertices)
        if key in edges:
            raise DuplicateEdge(f"edge {key} declared twice")
        degree = _read_degree(entry, f"edge {key}")
        if degree == (0, 0):
            warnings.warn(
                f"edge {key} has degree (0, 0) and was dropped: a zero degree means no edge",
                stacklevel=2,
            )
            continue
        edges[key] = degree

    graph = PFGraph(vertices, edges)
    if check:
        report = reference_validate(graph)
        if not report.ok:
            first = report.violations[0]
            raise ConstraintViolation(
                f"document violates graph constraints ({first.where}: {first.detail})",
                report=report,
            )
    return graph


EPS = DEFAULT_EPSILON
NEAR_LIMITS = [0.0, -0.0, 1.0, 0, 1, 0.6, 0.8, 0.8 + EPS, EPS / 2, -EPS / 2, 1 + EPS / 2]
BOUNDARY_VALUES = st.sampled_from([*NEAR_LIMITS, math.nan, -2 * EPS, 1 + 2 * EPS]) | st.floats(-0.1, 1.1)
OFFSETS = st.sampled_from([0.0, EPS / 2, -EPS / 2, 2 * EPS, -2 * EPS, 0.1])


@st.composite
def boundary_specs(draw, labels):
    """(vertices, edges) as plain tuples, with values at and near every limit.

    Values straddle 0 and 1 by fractions and multiples of the tolerance;
    half the edges are drawn as their endpoint bound shifted in the same
    way; in half the graphs one extra label, "zz", is never declared, so
    edges on it dangle and :func:`door` refuses them.
    """
    degrees = st.tuples(BOUNDARY_VALUES, BOUNDARY_VALUES)
    vertices = draw(st.dictionaries(labels, degrees, max_size=5))
    ends = [*vertices, "zz"] if draw(st.booleans()) else [*vertices]
    pairs = [(u, v) for u in ends for v in ends if u != v]
    chosen = st.lists(st.sampled_from(pairs), max_size=8, unique_by=frozenset) if pairs else st.just([])
    edges = []
    for u, v in draw(chosen):
        if u in vertices and v in vertices and draw(st.booleans()):
            (umu, unu), (vmu, vnu) = vertices[u], vertices[v]
            bound = (vmu if vmu < umu else umu, vnu if vnu > unu else unu)
            degree = (bound[0] + draw(OFFSETS), bound[1] + draw(OFFSETS))
        else:
            degree = draw(degrees)
        edges.append(((u, v), degree))
    return vertices, edges


UNIT_VALUES = st.sampled_from([0.0, -0.0, 1.0, 0, 1, 0.6, 0.8]) | st.floats(0.0, 1.0)
VALID_DEGREES = st.sampled_from([(0.6, 0.8), (1.0, 0.0), (0, 1)]) | st.tuples(UNIT_VALUES, UNIT_VALUES).filter(
    lambda d: d[0] ** 2 + d[1] ** 2 <= 1
)
SHARES = st.sampled_from([1.0, 1.0, 0.5, 0.0])
MOVES = st.sampled_from([2 * EPS, EPS / 2, 0.1, -2 * EPS, -EPS / 2, 0.0])


@st.composite
def one_break_specs(draw):
    """(vertices, edges) of a valid graph with one value moved near a limit.

    Edges take their endpoint bound, or a share of it, so many sit exactly at
    the bound; then one vertex or edge value moves by a fraction or a
    multiple of the tolerance, or by 0.1.  A single break is not masked by
    others, so each of parse's checks is exercised on its own.
    """
    labels = draw(st.lists(st.sampled_from("abcde"), unique=True, min_size=2, max_size=5))
    vertices = {label: draw(VALID_DEGREES) for label in labels}
    pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i + 1:]]
    edges = []
    for u, v in draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=4)):
        (umu, unu), (vmu, vnu) = vertices[u], vertices[v]
        bound = (vmu if vmu < umu else umu, vnu if vnu > unu else unu)
        edges.append(((u, v), (bound[0] * draw(SHARES), bound[1] * draw(SHARES))))
    items = [*edges, *vertices.items()]
    where = draw(st.integers(0, len(items) - 1))
    name, (mu, nu) = items[where]
    degree = (mu + draw(MOVES), nu) if draw(st.booleans()) else (mu, nu + draw(MOVES))
    if where < len(edges):
        edges[where] = (name, degree)
    else:
        vertices[name] = degree
    return vertices, edges
