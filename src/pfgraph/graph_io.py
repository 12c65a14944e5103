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
:func:`render` and :func:`to_dot` raise DanglingEdge for a graph with an
edge to an undeclared vertex, as :func:`parse` does for such a document.
:func:`render` raises MalformedDocument for every entry that
``parse(text, check=False)`` would reject (a vertex id that is not a
non-empty UTF-8 str, a bool or other degree that is not a number, a degree
outside [0, 1], NaN and ±inf included), with the message :func:`parse`
gives for the text ``json.dumps`` would write.  Both writers walk the edge
keys that :func:`~pfgraph.core.sorted_edges` returns and read each degree
from the edge map, so they build no (key, degree) tuple per edge, which
the cyclic GC would track.

:func:`render` writes the exact bytes of ``json.dumps(doc, indent=2)``
without going through the pure-Python encoder that ``indent`` selects: an
entry whose label is a non-empty UTF-8 str and whose degrees are floats in
[0, 1] up to the tolerance is formatted directly (``encode_basestring_ascii``
for the label, ``float.__repr__`` for the numbers), and any other entry is
checked by parse's own readers and then handed to ``json.dumps`` itself.
:func:`parse` checks the schema: one loop reads every entry and checks its
labels (a vertex id must encode as UTF-8, which a lone surrogate escaped
in JSON does not), declarations and the type and unit range of each
value, and a value that fails the type or range check is read again by
the checks that name the problem.  The degree rules, the squared sum and
the edge bound, are left to :func:`~pfgraph.core.validate`, the one
constraint checker, which a checked parse runs on the graph it built.
"""

from __future__ import annotations

import json
import re
import warnings
from json.encoder import encode_basestring_ascii

from .core import (
    PFDegree,
    PFGraph,
    PairKey,
    dangling_edge,
    encodes_as_utf8,
    gc_paused,
    in_unit_range,
    require_valid,
    safe_repr,
    sorted_edges,
    sorted_vertices,
    tolerance,
)
from .errors import (
    DuplicateEdge,
    DuplicateVertex,
    MalformedDocument,
)

FORMAT_VERSION = 1


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise MalformedDocument(message)


def _read_id(label) -> None:
    """MalformedDocument unless label is a vertex id: a non-empty str that encodes as UTF-8."""
    if not (isinstance(label, str) and label):
        raise MalformedDocument("vertex 'id' must be a non-empty string")
    if not (label.isascii() or encodes_as_utf8(label)):
        raise MalformedDocument(f"vertex 'id' {label!r} does not encode as UTF-8")


def _read_degree(entry: dict, where: str) -> PFDegree:
    for field in ("mu", "nu"):
        value = entry.get(field)
        _require(
            isinstance(value, (int, float)) and not isinstance(value, bool),
            f"{where}: {field!r} must be a number",
        )
        _require(in_unit_range(value), f"{where}: {field!r} value {safe_repr(value)} outside [0, 1]")
    return PFDegree(float(entry["mu"]), float(entry["nu"]))


@gc_paused
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
    except ValueError as exc:  # JSONDecodeError, or an int past CPython's int-string limit
        raise MalformedDocument(f"not valid JSON: {exc}") from exc
    except RecursionError:
        raise MalformedDocument("not valid JSON: nested too deeply") from None

    _require(isinstance(doc, dict), "document root must be an object")
    version = doc.get("format_version")
    _require(
        type(version) is int and version == FORMAT_VERSION,
        f"format_version must be {FORMAT_VERSION}",
    )
    _require(isinstance(doc.get("vertices"), list), "'vertices' must be a list")
    _require(isinstance(doc.get("edges"), list), "'edges' must be a list")

    eps = tolerance()
    low, high = -eps, 1.0 + eps
    new = tuple.__new__

    vertices: dict[str, PFDegree] = {}
    for entry in doc["vertices"]:
        if not isinstance(entry, dict):
            raise MalformedDocument("vertex entries must be objects")
        label = entry.get("id")
        _read_id(label)
        if label in vertices:
            raise DuplicateVertex(f"vertex {label!r} declared twice")
        mu, nu = entry.get("mu"), entry.get("nu")
        if type(mu) is float and type(nu) is float and low <= mu <= high and low <= nu <= high:
            degree = new(PFDegree, (mu, nu))
        else:
            degree = _read_degree(entry, f"vertex {label!r}")
        vertices[label] = degree

    edges: dict[PairKey, PFDegree] = {}
    for entry in doc["edges"]:
        if not isinstance(entry, dict):
            raise MalformedDocument("edge entries must be objects")
        u, v = entry.get("u"), entry.get("v")
        if not (isinstance(u, str) and isinstance(v, str) and u and v):
            raise MalformedDocument("edge endpoints 'u' and 'v' must be non-empty strings")
        if v < u:
            u, v = v, u
        elif u == v:
            raise MalformedDocument(f"self-loop on vertex {u!r} is not allowed")
        key = new(PairKey, (u, v))
        if u not in vertices or v not in vertices:
            raise dangling_edge(u, v, vertices)
        if key in edges:
            raise DuplicateEdge(f"edge {key} declared twice")
        mu, nu = entry.get("mu"), entry.get("nu")
        if type(mu) is float and type(nu) is float and low <= mu <= high and low <= nu <= high:
            degree = new(PFDegree, (mu, nu))
        else:
            degree = _read_degree(entry, f"edge {key}")
        if mu == 0.0 and nu == 0.0:  # the raw values: an int 0 equals 0.0
            warnings.warn(
                f"edge {key} has degree (0, 0) and was dropped: a zero degree means no edge",
                stacklevel=2,
            )
            continue
        edges[key] = degree

    graph = PFGraph._adopt(vertices, edges)  # keys are PairKeys and (0, 0) edges were dropped
    return require_valid(graph, "document") if check else graph


def _entry(fields: dict) -> str:
    """One list entry exactly as ``json.dumps(doc, indent=2)`` writes it.

    An entry that :func:`parse` would reject even with ``check=False`` (a
    vertex id that is not a non-empty UTF-8 str; a degree that is not a
    number, such as a bool, or lies outside [0, 1], NaN and ±inf included)
    raises MalformedDocument with the message :func:`parse` gives for the
    text ``json.dumps`` would write, instead of that text.
    """
    if "id" in fields:
        _read_id(fields["id"])
        where = f"vertex {fields['id']!r}"
    else:  # the endpoints were read as vertex ids first
        where = f"edge {fields['u']}-{fields['v']}"
    _read_degree(fields, where)
    return "    " + json.dumps(fields, indent=2).replace("\n", "\n    ")


def _entries(lines: list[str]) -> str:
    return "[\n" + ",\n".join(lines) + "\n  ]" if lines else "[]"


def render(g: PFGraph) -> str:
    """Serialize a graph to its canonical JSON document text.

    DanglingEdge if an edge dangles; MalformedDocument, with :func:`parse`'s
    message, for an entry that ``parse(text, check=False)`` would reject.
    """
    enc = encode_basestring_ascii
    eps = tolerance()
    low, high = -eps, 1.0 + eps  # in range implies finite: NaN and ±inf fail
    vertices = [
        f'    {{\n      "id": {enc(label)},\n      "mu": {mu!r},\n      "nu": {nu!r}\n    }}'
        if type(label) is str and label and (label.isascii() or encodes_as_utf8(label))
        and type(mu) is float and type(nu) is float and low <= mu <= high and low <= nu <= high
        else _entry({"id": label, "mu": mu, "nu": nu})
        for label, (mu, nu) in sorted_vertices(g)
    ]
    degrees = g.edges
    edges = []
    for key in sorted_edges(g):
        u, v = key
        mu, nu = degrees[key]
        edges.append(
            f'    {{\n      "u": {enc(u)},\n      "v": {enc(v)},\n'
            f'      "mu": {mu!r},\n      "nu": {nu!r}\n    }}'
            if type(u) is str and type(v) is str and type(mu) is float and type(nu) is float
            and low <= mu <= high and low <= nu <= high
            else _entry({"u": u, "v": v, "mu": mu, "nu": nu})
        )
    return (
        f'{{\n  "format_version": {FORMAT_VERSION},\n'
        f'  "vertices": {_entries(vertices)},\n'
        f'  "edges": {_entries(edges)}\n}}\n'
    )


_BARE_DOT_ID = re.compile(r"[A-Za-z_][A-Za-z_0-9]*\Z")


def _escape(label: str) -> str:
    return label.replace("\\", "\\\\").replace('"', '\\"')


def _quote(label) -> str:
    """A DOT id for label; a label that is not a str is quoted as its str()."""
    if isinstance(label, str) and _BARE_DOT_ID.match(label):
        return label
    return '"' + _escape(str(label)) + '"'


def to_dot(g: PFGraph) -> str:
    """Render the graph as undirected DOT with degree-carrying labels; DanglingEdge as render.

    MalformedDocument for a label that is an int with more digits than
    CPython converts to a decimal string (every degree the constructor
    admits lies within float range, far below that limit).
    """
    lines = ["graph G {"]
    names = {}
    try:
        for label, (mu, nu) in sorted_vertices(g):
            names[label] = name = _quote(label)
            lines.append(f'  {name} [label="{_escape(str(label))} ({mu!r}, {nu!r})"];')
        degrees = g.edges
        for key in sorted_edges(g):
            u, v = key
            mu, nu = degrees[key]
            lines.append(f'  {names[u]} -- {names[v]} [label="({mu!r}, {nu!r})"];')
    except ValueError as exc:  # CPython's int-string limit
        raise MalformedDocument(f"a label cannot be written as DOT: {exc}") from None
    lines.append("}")
    return "\n".join(lines) + "\n"
