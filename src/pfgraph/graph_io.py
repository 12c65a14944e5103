"""JSON document format and DOT export for Pythagorean fuzzy graphs.

The document layout is::

    {
      "format_version": 1,
      "vertices": [{"id": "a", "mu": 0.5, "nu": 0.7}, ...],
      "edges": [{"u": "a", "v": "b", "mu": 0.4, "nu": 0.7}, ...]
    }

Edges are undirected: (u, v) and (v, u) name the same edge and declaring
both is rejected.  Rendering is deterministic, with vertices sorted by id
and edges by their canonical pair, so equal graphs render byte-identically.
"""

from __future__ import annotations

import json
import re
import warnings

from .core import (
    PFDegree,
    PFGraph,
    PairKey,
    in_unit_range,
    require_valid,
    sorted_edges,
    sorted_vertices,
)
from .errors import (
    DanglingEdge,
    DuplicateEdge,
    DuplicateVertex,
    MalformedDocument,
)

FORMAT_VERSION = 1


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise MalformedDocument(message)


def _read_degree(entry: dict, where: str) -> PFDegree:
    for field in ("mu", "nu"):
        value = entry.get(field)
        _require(
            isinstance(value, (int, float)) and not isinstance(value, bool),
            f"{where}: {field!r} must be a number",
        )
        _require(in_unit_range(value), f"{where}: {field!r} value {value!r} outside [0, 1]")
    return PFDegree(float(entry["mu"]), float(entry["nu"]))


def parse(text: str, check: bool = True) -> PFGraph:
    """Parse a graph document, validating constraints unless ``check`` is False.

    Schema problems raise MalformedDocument; duplicate declarations raise
    DuplicateVertex/DuplicateEdge; an edge naming an undeclared vertex
    raises DanglingEdge.  With ``check`` left on, a graph that breaks the
    degree constraints raises ConstraintViolation carrying the full
    validation report.  Edges declared with degree (0, 0) are dropped with
    a warning, since a zero degree means no edge.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedDocument(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise MalformedDocument("not valid JSON: nested too deeply") from None

    _require(isinstance(doc, dict), "document root must be an object")
    _require(
        doc.get("format_version") == FORMAT_VERSION,
        f"format_version must be {FORMAT_VERSION}",
    )
    _require(isinstance(doc.get("vertices"), list), "'vertices' must be a list")
    _require(isinstance(doc.get("edges"), list), "'edges' must be a list")

    vertices: dict[str, PFDegree] = {}
    for entry in doc["vertices"]:
        _require(isinstance(entry, dict), "vertex entries must be objects")
        label = entry.get("id")
        _require(isinstance(label, str) and label != "", "vertex 'id' must be a non-empty string")
        if label in vertices:
            raise DuplicateVertex(f"vertex {label!r} declared twice")
        vertices[label] = _read_degree(entry, f"vertex {label!r}")

    edges: dict[PairKey, PFDegree] = {}
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
        for endpoint in key:
            if endpoint not in vertices:
                raise DanglingEdge(f"edge {key} uses undeclared vertex {endpoint!r}")
        if key in edges:
            raise DuplicateEdge(f"edge {key} declared twice")
        degree = _read_degree(entry, f"edge {key}")
        if degree.is_zero():
            warnings.warn(
                f"edge {key} has degree (0, 0) and was dropped: a zero degree means no edge",
                stacklevel=2,
            )
            continue
        edges[key] = degree

    graph = PFGraph(vertices, edges)
    return require_valid(graph, "document") if check else graph


def render(g: PFGraph) -> str:
    """Serialize a graph to its canonical JSON document text."""
    doc = {
        "format_version": FORMAT_VERSION,
        "vertices": [
            {"id": label, "mu": degree.mu, "nu": degree.nu}
            for label, degree in sorted_vertices(g)
        ],
        "edges": [
            {"u": key.lo, "v": key.hi, "mu": degree.mu, "nu": degree.nu}
            for key, degree in sorted_edges(g)
        ],
    }
    return json.dumps(doc, indent=2) + "\n"


_BARE_DOT_ID = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


def _quote(label: str) -> str:
    if _BARE_DOT_ID.match(label):
        return label
    return '"' + label.replace("\\", "\\\\").replace('"', '\\"') + '"'


def to_dot(g: PFGraph) -> str:
    """Render the graph as undirected DOT with degree-carrying labels."""
    lines = ["graph G {"]
    for label, degree in sorted_vertices(g):
        lines.append(
            f"  {_quote(label)} [label=\"{label} ({degree.mu!r}, {degree.nu!r})\"];"
        )
    for key, degree in sorted_edges(g):
        lines.append(
            f"  {_quote(key.lo)} -- {_quote(key.hi)} "
            f"[label=\"({degree.mu!r}, {degree.nu!r})\"];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
