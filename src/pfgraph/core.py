"""Core value types for Pythagorean fuzzy graphs.

A Pythagorean fuzzy degree is a pair (mu, nu) of membership and
non-membership values in [0, 1] constrained by mu^2 + nu^2 <= 1.  A graph
carries one degree per vertex and one degree per undirected edge, where an
edge degree is bounded by its endpoints: edge mu may not exceed the smaller
vertex mu, and edge nu may not exceed the larger vertex nu.

Design choices baked into this module:

- All numeric comparisons use one absolute tolerance (default 1e-9,
  overridable through the PFG_EPSILON environment variable or
  :func:`set_tolerance`).  Worked examples in the literature use one or two
  decimals; the tolerance absorbs binary-float rounding without masking
  genuine violations.  The tolerance is always a positive finite number:
  an unusable PFG_EPSILON leaves the default in place at import, and
  :func:`apply_env_tolerance` reports it.
- Graphs are simple and undirected.  Edges are keyed by :class:`PairKey`,
  the label pair (lo, hi) in canonical order, which makes symmetry
  structural; self-loops are rejected at key construction.  PairKey and
  :class:`PFDegree` (mu, nu) are tuples and compare, hash and sort as such.
- An edge whose degree is exactly (0, 0) means "no edge" and is removed
  when the graph is built.  ``PFGraph(...)`` is the checking constructor:
  it copies both maps, makes every key a canonical PairKey and every degree
  a PFDegree and drops (0, 0) edges.  Graphs the library builds
  (``parse``, ``generate``, the complements, ``half_strong_construction``,
  the products, ``union`` and ``join``) make every key a PairKey (most
  write keys and degrees as bare tuples; ``union`` and ``join`` keep their
  inputs' keys),
  leave out (0, 0) edges themselves (the test
  ``mu != 0.0 or nu != 0.0`` is ``!= ZERO_DEGREE``, for -0.0 and NaN too)
  and hand their maps to :meth:`PFGraph._adopt` once.
- Every pass over all unordered vertex pairs goes through
  :meth:`PFGraph._pair_scan`, which sorts the labels once and yields one row
  per vertex u: u, its degree and the sorted items of the labels above it.
  The hot passes (the complements, ``classify``, the sum identities and
  ``half_strong_construction``) run their own loop over a row, read the
  edges they need and compute the attainable bound inline, so a pair costs
  no generator step, no row tuple and no bound tuple, and each pass builds
  only what it keeps.  ``classify`` stops once its five flags have
  witnesses, or at the end of the row in which its three completeness flags
  have them, and then finds a strength witness still missing by one walk
  over the edges.
- PairKey and PFDegree are tuple subclasses, and CPython's cyclic garbage
  collector tracks such an object for its whole life (it untracks only
  plain tuples of untracked items).  Each one a pass builds and keeps, and
  each (key, degree) pair it holds in a list, counts towards the next
  collection, so the passes reuse the objects a graph already holds: they
  read the stored degrees, ``complement``, the one pass that keeps
  edge pairs' keys, finds each stored key by one lookup of a label in a
  per-row map of the keys, and the writers sort the bare keys and read
  each degree from the map.  The builders store an input's own degree
  object wherever a degree picks both of its floats (a pair at its bound
  shares its dominating endpoint's degree; see :mod:`pfgraph.algebra`),
  so they make a new degree only for a mixed or computed one.  The
  builders that keep such objects in bulk (the complements, the products,
  ``union``, ``join``, ``parse``, ``generate`` and
  ``half_strong_construction``) are wrapped in :func:`gc_paused`: while one
  fills its maps, none of the collections those objects would trigger (each
  of which finds nothing to free) runs, and the one young collection left
  due runs once, as the call returns.  A call made with the GC off leaves it
  off.  The pause reads the GC's state only as a call starts, so another
  thread's ``gc.enable`` or ``gc.disable`` during a paused call is not
  seen: the call enables the GC as it returns either way.
- Every pass that sorts vertex labels or edge keys sorts them by plain
  ``<``: the label rule below makes every label a str, and ``<`` orders
  strs totally, so no sort can raise TypeError or come out in a silently
  wrong order.
- Values are immutable after construction.  Operations elsewhere in the
  package return new graphs and never mutate their inputs.  Every record
  type (:class:`Violation`, :class:`ValidationReport`, and the reports and
  config of the other modules) is a NamedTuple; :class:`PFGraph` is a plain
  class that refuses attribute assignment, compares by its two maps and is
  not hashable.

Graphs holding *invalid* data are representable on purpose: :func:`validate`
turns every broken invariant into a report entry instead of an exception,
so arbitrary candidate data can be inspected, with three exceptions, which
no pass can compute with.  ``PFGraph(...)`` refuses with ConstraintViolation
a vertex label or an edge endpoint that is not an exact str, is empty, or
does not encode as UTF-8 (the label rule: a label is a name, and a
document names a vertex by such a str, as ``parse`` requires).  A str
subclass is refused too, since it could override ``<`` or ``__hash__``,
and a document would bring it back as a plain str.  It refuses with
ConstraintViolation a degree that is not a (mu, nu) pair, has a bool or a
component neither int nor float, or holds an int that ``float()`` cannot
convert, and it stores each component it accepts as ``float()`` of it, as
``parse`` reads a JSON number (the value rule), so every stored degree
number is an exact float.  It refuses with DanglingEdge an edge kept (not
exactly (0, 0)) whose endpoint is not a vertex, naming the first in
insertion order with the message :func:`dangling_edge` writes, as ``parse``
does (the endpoint rule), so every pass reads an edge's endpoints straight
from the vertex map.  No builder makes what any rule refuses from checked
graphs.  :func:`validate` is the one checker of the degree rules: one pass
tests each vertex's unit range and squared sum, and each edge's unit
range, squared sum and bound (read from the two endpoint tuples), each
rule once, and every failed test adds its own report entry.  A message
that names a caller's own value (a query label, a mapping value, a degree
number) names it through :func:`safe_str` and :func:`safe_repr`, so an int
past CPython's int-string limit is named by its bit length.  A degree that
fails its one combined test goes to one helper, which adds the range and
squared-sum entries.
"""

from __future__ import annotations

import gc
import math
import os
import sys
from collections.abc import Iterable, Iterator, Mapping
from functools import wraps
from itertools import chain
from operator import itemgetter
from typing import NamedTuple

from .errors import ConstraintViolation, DanglingEdge

DEFAULT_EPSILON = 1e-9

_epsilon = DEFAULT_EPSILON


def tolerance() -> float:
    """Return the global absolute tolerance used by all comparisons."""
    return _epsilon


def _checked_tolerance(eps) -> float:
    """``eps`` as a float, if it is a tolerance: an int or a float, not a
    bool, positive and finite.  Raises ValueError otherwise.  The one rule
    for the global tolerance and for an explicit ``eps`` argument."""
    # a bool is an int to isinstance, but never a tolerance
    if isinstance(eps, bool) or not isinstance(eps, (int, float)):
        raise ValueError(f"tolerance must be an int or a float, got {eps!r}")
    if not 0.0 < eps <= sys.float_info.max:  # NaN fails both comparisons
        raise ValueError(f"tolerance must be a positive finite number, got {eps!r}")
    return float(eps)


def set_tolerance(eps: float) -> None:
    """Override the global tolerance: a small positive int or float, not a bool."""
    global _epsilon
    _epsilon = _checked_tolerance(eps)


def apply_env_tolerance() -> None:
    """Set the tolerance from the PFG_EPSILON environment variable, if set.

    The value goes through :func:`set_tolerance`, so anything that is not a
    positive finite number raises ValueError and leaves the tolerance as it
    was.
    """
    raw = os.environ.get("PFG_EPSILON")
    if raw is None:
        return
    try:
        set_tolerance(float(raw))
    except ValueError:
        raise ValueError(f"PFG_EPSILON={raw!r} is not a positive finite number") from None


try:
    apply_env_tolerance()
except ValueError:
    pass  # the default stays; the CLI rejects the value with exit status 2


class PFDegree(NamedTuple):
    """A (membership, non-membership) pair.

    The type itself is a dumb value; whether it satisfies the unit-range and
    Pythagorean constraints is checked, for the vertices and edges of a
    graph, by :func:`validate`.
    """

    mu: float
    nu: float


ZERO_DEGREE = PFDegree(0.0, 0.0)


def safe_repr(value) -> str:
    """repr(value), so that a message can name it, or, where repr raises
    ValueError (an int with more digits than CPython converts to a decimal
    string, or a container holding one), a stand-in: an int's bit length,
    any other value's type."""
    try:
        return repr(value)
    except ValueError:
        if isinstance(value, int):
            return f"<int of {value.bit_length()} bits>"
        return f"<{type(value).__name__} whose repr is too long>"


def safe_str(item) -> str:
    """str(item), so that a message can name a caller's value as a label,
    with an int past CPython's int-string limit named as :func:`safe_repr`
    names it."""
    try:
        return str(item)
    except ValueError:
        return safe_repr(item)


def gc_paused(fn):
    """Decorate a builder so that the cyclic GC is paused for each call.

    A call made while the GC is off (a caller's choice, or an outer paused
    builder) goes straight through.  Otherwise the GC is disabled for the
    call and enabled again however it ends; then, if the call's allocations
    have made a young collection due (gen 0's count above a non-zero
    threshold), it runs that collection itself rather than leaving it to
    whatever allocates next.
    """

    @wraps(fn)
    def paused(*args, **kwargs):
        if not gc.isenabled():
            return fn(*args, **kwargs)
        gc.disable()
        try:
            return fn(*args, **kwargs)
        finally:
            gc.enable()
            threshold = gc.get_threshold()[0]
            if threshold and gc.get_count()[0] > threshold:
                gc.collect(0)

    return paused


def in_unit_range(value: float) -> bool:
    """Whether value lies in [0, 1] up to the tolerance (NaN does not)."""
    eps = tolerance()
    return -eps <= value <= 1.0 + eps


def hesitation(d: PFDegree) -> float:
    """Residual indeterminacy sqrt(1 - mu^2 - nu^2) of a valid degree pair.

    ``d`` is a PFDegree or a plain (mu, nu) tuple, read by position; any
    other argument raises TypeError.  Raises ConstraintViolation when a
    component fails :func:`in_unit_range` (NaN does) or the squared sum
    exceeds 1 beyond tolerance.  A radicand within tolerance of zero clamps
    to exactly 0.
    """
    if not (isinstance(d, tuple) and len(d) == 2):
        raise _type_error("d", d, PFDegree)
    mu, nu = d
    if not (in_unit_range(mu) and in_unit_range(nu)):
        raise ConstraintViolation(
            f"degree ({safe_repr(mu)}, {safe_repr(nu)}) has a component outside [0, 1]"
        )
    radicand = 1.0 - mu * mu - nu * nu
    if radicand < -tolerance():
        raise ConstraintViolation(
            f"degree ({mu!r}, {nu!r}) violates the Pythagorean constraint"
        )
    if radicand <= tolerance():
        return 0.0
    return math.sqrt(radicand)


def degree_min_max(a: PFDegree, b: PFDegree) -> PFDegree:
    """Combine two degrees taking the smaller membership and larger non-membership.

    For valid inputs the result is always valid: the degree supplying the
    larger nu also bounds the smaller mu, so the squared sum cannot grow.
    ``a`` and ``b`` are PFDegrees or plain (mu, nu) tuples, read by
    position; any other argument raises TypeError naming it.  ``a``'s
    value wins ties.
    """
    (amu, anu), (bmu, bnu) = _degree_pair(a, b)
    return PFDegree(min(amu, bmu), max(anu, bnu))


def degree_max_min(a: PFDegree, b: PFDegree) -> PFDegree:
    """Combine two degrees taking the larger membership and smaller non-membership.

    Arguments as for :func:`degree_min_max`.
    """
    (amu, anu), (bmu, bnu) = _degree_pair(a, b)
    return PFDegree(max(amu, bmu), min(anu, bnu))


def _degree_pair(a, b) -> tuple:
    """(a, b), if each is a 2-tuple; TypeError naming the first that is not."""
    if not (isinstance(a, tuple) and len(a) == 2):
        raise _type_error("a", a, PFDegree)
    if not (isinstance(b, tuple) and len(b) == 2):
        raise _type_error("b", b, PFDegree)
    return a, b


def encodes_as_utf8(label: str) -> bool:
    """Whether a str label encodes as UTF-8; a lone surrogate does not."""
    try:
        label.encode()
    except UnicodeEncodeError:
        return False
    return True


class PairKey(tuple):
    """Canonical unordered pair of vertex labels (the edge key).

    ``PairKey(u, v) == PairKey(v, u)`` by construction; self-loops raise
    ValueError because the underlying graphs are simple.  Labels are strs,
    which ``<`` orders totally; a caller's values that ``<`` cannot compare
    raise its TypeError, and values it orders neither way (two NaNs, say)
    ConstraintViolation.
    """

    __slots__ = ()

    def __new__(cls, u: str, v: str) -> PairKey:
        if u < v:
            return tuple.__new__(cls, (u, v))
        if v < u:
            return tuple.__new__(cls, (v, u))
        if u is v or u == v:  # one NaN object is one label, though not equal to itself
            raise ValueError(f"self-loop on vertex {safe_repr(u)} is not allowed")
        raise ConstraintViolation(
            f"vertex labels cannot be put in a strict order: {safe_repr(u)} and {safe_repr(v)}"
        )

    lo = property(itemgetter(0))
    hi = property(itemgetter(1))

    def __getnewargs__(self) -> tuple[str, str]:
        return tuple(self)

    def __repr__(self) -> str:
        return f"PairKey(lo={self.lo!r}, hi={self.hi!r})"

    def __str__(self) -> str:
        return f"{self.lo}-{self.hi}"


def _require_label(label, what: str) -> None:
    """ConstraintViolation unless label is a vertex label: an exact str,
    non-empty, that encodes as UTF-8 (the label rule)."""
    if type(label) is not str:
        raise ConstraintViolation(f"{what} {safe_repr(label)} must be a str, not {type(label).__name__}")
    if not label:
        raise ConstraintViolation(f"{what} '' must be non-empty")
    if not (label.isascii() or encodes_as_utf8(label)):
        raise ConstraintViolation(f"{what} {label!r} does not encode as UTF-8")


class PFGraph:
    """An immutable Pythagorean fuzzy graph: vertex degrees plus edge degrees.

    Construction, the checking path for graphs built outside the library,
    copies both maps, accepts edge keys given either as PairKey or as a
    plain (u, v) tuple, and drops edges whose degree is exactly (0, 0).
    Each degree becomes a PFDegree of two exact floats, ``float()`` of its
    numbers (a PFDegree of exact floats is kept as it is); what breaks
    the label or the value rule (see the module docstring) and an edge key
    that is not a pair raise ConstraintViolation, a kept edge with an
    undeclared endpoint DanglingEdge, a self-loop ValueError, and a
    ``vertices`` or ``edges`` that is neither a mapping nor an iterable (of
    pairs) TypeError naming the parameter.
    The degree rules are not checked here; use :func:`validate`.  The
    library's own builders go through :meth:`_adopt` instead.
    """

    vertices: Mapping[str, PFDegree]
    edges: Mapping[PairKey, PFDegree]

    def __init__(self, vertices, edges=()):
        if not isinstance(vertices, Iterable):
            raise _pairs_type_error("vertices", vertices)
        vertices = dict(vertices)
        for label, degree in vertices.items():
            _require_label(label, "vertex label")
            if type(degree) is not PFDegree or type(degree[0]) is not float or type(degree[1]) is not float:
                vertices[label] = _as_degree(degree, "vertex", label)
        object.__setattr__(self, "vertices", vertices)
        normalized = {}
        if not isinstance(edges, Iterable):
            raise _pairs_type_error("edges", edges)
        edge_items = edges.items() if isinstance(edges, Mapping) else edges
        for key, degree in edge_items:
            try:
                u, v = key
            except (TypeError, ValueError):
                raise ConstraintViolation(
                    f"edge key {safe_repr(key)} is not a pair of vertex labels"
                ) from None
            if not (type(u) is str and type(v) is str and u.isascii() and v.isascii() and u and v):
                _require_label(u, "edge endpoint")
                _require_label(v, "edge endpoint")
            if not isinstance(key, PairKey):  # two strs, which < orders unless they are equal
                if u == v:
                    PairKey(u, v)  # raises the self-loop ValueError
                key = tuple.__new__(PairKey, (u, v) if u < v else (v, u))
            if type(degree) is not PFDegree or type(degree[0]) is not float or type(degree[1]) is not float:
                degree = _as_degree(degree, "edge", key)
            if degree != ZERO_DEGREE:
                normalized[key] = degree
        # the endpoint rule: the labels gain a member exactly when a kept edge dangles
        if len({*vertices, *chain.from_iterable(normalized)}) != len(vertices):
            for u, v in normalized:
                if u not in vertices or v not in vertices:
                    raise dangling_edge(u, v, vertices)
        object.__setattr__(self, "edges", normalized)

    @classmethod
    def _adopt(cls, vertices: dict, edges: dict) -> PFGraph:
        """A graph that takes over two maps built for it, with no copy and no check.

        The caller guarantees what ``__init__`` would establish: both maps
        are its own, every edge key is a PairKey of two vertices and no
        degree is (0, 0).
        """
        g = object.__new__(cls)
        object.__setattr__(g, "vertices", vertices)
        object.__setattr__(g, "edges", edges)
        return g

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertices, self.edges) == (other.vertices, other.edges)

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(vertices={self.vertices!r}, edges={self.edges!r})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def has_edge(self, u: str, v: str) -> bool:
        return PairKey(u, v) in self.edges

    def edge_degree(self, u: str, v: str) -> PFDegree:
        """Degree of the edge between u and v, or (0, 0) when absent."""
        return self.edges.get(PairKey(u, v), ZERO_DEGREE)

    def pair_bound(self, u: str, v: str) -> PFDegree:
        """The largest degree an edge between u and v may carry.

        DanglingEdge if u or v is absent, and ValueError, as for
        :meth:`edge_degree`, if they are one vertex.
        """
        PairKey(u, v)  # the self-loop check
        try:
            return degree_min_max(self.vertices[u], self.vertices[v])
        except KeyError:
            raise dangling_edge(u, v, self.vertices) from None

    def _pair_scan(self) -> Iterator[tuple[str, PFDegree, list[tuple[str, PFDegree]]]]:
        """(u, degree, tail) for every vertex u, in sorted label order.

        The labels are sorted once, by ``<``; ``degree`` is
        u's stored degree and ``tail`` the sorted (v, degree) items of the
        labels above u, so the pairs (u, v) of one row are the keys (lo, hi)
        with lo u, in key order, and the rows together give every unordered
        pair once.  The scan reads no edge and builds no key: each pass runs
        its own loop over a row's tail, reads the edges it needs and computes
        the bound inline, by :func:`degree_min_max`'s rule (u's value wins
        ties).
        """
        items = sorted(self.vertices.items())
        for i, (u, degree) in enumerate(items, 1):
            yield u, degree, items[i:]


def _as_degree(degree, kind: str, item) -> PFDegree:
    """degree as a PFDegree of ``float()`` of its numbers, for the vertex or
    edge ``item``; ConstraintViolation, in :func:`~pfgraph.graph_io.parse`'s
    wording, unless it is a (mu, nu) pair of ints and floats (not bools) that
    ``float()`` converts."""
    if not (isinstance(degree, tuple) and len(degree) == 2):
        problem = "degree must be a (mu, nu) pair"
    else:
        numbers = []
        for field, value in zip(("mu", "nu"), degree):
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                problem = f"{field!r} must be a number"
                break
            try:
                numbers.append(float(value))
            except OverflowError:  # an int past float range
                problem = f"{field!r} value {safe_repr(value)} is beyond float range"
                break
        else:
            return tuple.__new__(PFDegree, numbers)
    where = f"vertex {item!r}" if kind == "vertex" else f"edge {item}"
    raise ConstraintViolation(f"{where}: {problem}")


class Violation(NamedTuple):
    """One broken invariant: what kind, where, and the offending numbers."""

    kind: str
    where: str
    detail: str

    def as_dict(self) -> dict:
        return self._asdict()


class ValidationReport(NamedTuple):
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def as_dict(self) -> dict:
        return {
            "valid": self.ok,
            "violations": [v.as_dict() for v in self.violations],
        }


def validate(g: PFGraph) -> ValidationReport:
    """Check every graph invariant and report all violations found.

    An empty report means g is a well-formed Pythagorean fuzzy graph.
    Violations are data, not failures: arbitrary candidate graphs are
    accepted and described.
    """
    if not isinstance(g, PFGraph):
        raise _type_error("g", g, PFGraph)
    eps = tolerance()
    low, high = -eps, 1.0 + eps
    vertices = g.vertices
    found: list[Violation] = []
    add = found.append

    for label, (mu, nu) in vertices.items():
        if not (low <= mu <= high and low <= nu <= high and mu * mu + nu * nu <= high):
            _degree_violations(add, "bad_vertex_degree", label, mu, nu, low, high)

    for key, (mu, nu) in g.edges.items():
        lo, hi = key
        (amu, anu), (bmu, bnu) = vertices[lo], vertices[hi]
        bound_mu = bmu if bmu < amu else amu  # degree_min_max's tie rule: lo's value wins
        bound_nu = bnu if bnu > anu else anu
        if low <= mu <= high and low <= nu <= high and mu * mu + nu * nu <= high:
            if mu > bound_mu + eps or nu > bound_nu + eps:
                _bound_violations(add, f"{lo}-{hi}", mu, nu, bound_mu, bound_nu, eps)
        else:
            _degree_violations(add, "bad_edge_degree", f"{lo}-{hi}", mu, nu, low, high)
            _bound_violations(add, f"{lo}-{hi}", mu, nu, bound_mu, bound_nu, eps)

    return ValidationReport(tuple(found))


def _degree_violations(add, kind: str, where: str, mu, nu, low: float, high: float) -> None:
    """Add the unit-range and squared-sum entries, in report order, for a
    degree that fails :func:`validate`'s combined test."""
    if not low <= mu <= high:
        add(Violation(kind, where, f"membership {mu!r} outside [0, 1]"))
    if not low <= nu <= high:
        add(Violation(kind, where, f"non-membership {nu!r} outside [0, 1]"))
    if mu * mu + nu * nu > high:  # NaN is not above
        detail = f"membership {mu!r} and non-membership {nu!r} have squared sum > 1"
        add(Violation(kind, where, detail))


def _bound_violations(add, where: str, mu, nu, bound_mu, bound_nu, eps: float) -> None:
    """Add the entries, in report order, for an edge component above its bound.

    :func:`validate` tests ``value > bound + eps`` inline and comes here
    when a component fails it, or when the degree fails its combined test.
    """
    if mu > bound_mu + eps:
        detail = f"edge membership {mu!r} exceeds endpoint minimum {bound_mu!r}"
        add(Violation("edge_membership_above_bound", where, detail))
    if nu > bound_nu + eps:
        detail = f"edge non-membership {nu!r} exceeds endpoint maximum {bound_nu!r}"
        add(Violation("edge_nonmembership_above_bound", where, detail))


def require_valid(g: PFGraph, what: str) -> PFGraph:
    """Return g if it validates; otherwise raise ConstraintViolation with the report."""
    report = validate(g)
    if not report.ok:
        first = report.violations[0]
        raise ConstraintViolation(
            f"{what} violates graph constraints ({first.where}: {first.detail})",
            report=report,
        )
    return g


def dangling_edge(u, v, vertices) -> DanglingEdge:
    """The DanglingEdge for edge u-v: it names u if vertices lacks u, and v otherwise."""
    missing = u if u not in vertices else v
    return DanglingEdge(f"edge {safe_str(u)}-{safe_str(v)} uses undeclared vertex {safe_repr(missing)}")


def _type_error(name: str, value, cls: type) -> TypeError:
    """The error for an argument that is not an instance of ``cls``: it
    names the parameter, the type expected and the type received.  Callers
    test with inline ``isinstance`` calls, the cheapest form on every call."""
    article = "an" if cls.__name__[0] in "aeiou" else "a"
    return TypeError(f"{name} must be {article} {cls.__name__}, not {type(value).__name__}")


def _pairs_type_error(name: str, value) -> TypeError:
    """The error for a graph's vertex or edge argument that is neither a
    mapping nor an iterable of pairs: it names the parameter and the type
    received."""
    return TypeError(f"{name} must be a mapping or an iterable of pairs, not {type(value).__name__}")


def degrees_close(a: PFDegree, b: PFDegree, eps: float | None = None) -> bool:
    """Whether both components of a and b differ by at most eps (default: the tolerance).

    ``a`` and ``b`` are PFDegrees or plain (mu, nu) tuples, read by
    position; any other argument raises TypeError naming it.  An int beyond
    float range is close to no float, for any finite eps.  An explicit eps
    follows :func:`set_tolerance`'s rule, or raises ValueError.
    """
    (amu, anu), (bmu, bnu) = _degree_pair(a, b)
    eps = tolerance() if eps is None else _checked_tolerance(eps)
    try:
        return abs(amu - bmu) <= eps and abs(anu - bnu) <= eps
    except OverflowError:  # an int beyond float range against a float
        return False


def graphs_close(g1: PFGraph, g2: PFGraph, eps: float | None = None) -> bool:
    """Equality up to tolerance: same vertices, all degrees within eps.

    Edge presence may differ only where the present degree is within eps of
    (0, 0), because absent edges read as exactly (0, 0).  Each test is
    :func:`degrees_close`'s, inline, so NaN is close to nothing.  An explicit
    eps follows :func:`set_tolerance`'s rule, or raises ValueError.
    """
    if not isinstance(g1, PFGraph):
        raise _type_error("g1", g1, PFGraph)
    if not isinstance(g2, PFGraph):
        raise _type_error("g2", g2, PFGraph)
    eps = tolerance() if eps is None else _checked_tolerance(eps)
    vertices1, vertices2 = g1.vertices, g2.vertices
    if vertices1.keys() != vertices2.keys():
        return False
    edges1, edges2 = g1.edges, g2.edges
    get = edges2.get
    for label, (mu, nu) in vertices1.items():
        other_mu, other_nu = vertices2[label]
        if not (abs(mu - other_mu) <= eps and abs(nu - other_nu) <= eps):
            return False
    for key, (mu, nu) in edges1.items():
        other_mu, other_nu = get(key, ZERO_DEGREE)
        if not (abs(mu - other_mu) <= eps and abs(nu - other_nu) <= eps):
            return False
    for key in edges2.keys() - edges1.keys():
        other_mu, other_nu = edges2[key]
        if not (abs(other_mu) <= eps and abs(other_nu) <= eps):  # against an absent (0, 0)
            return False
    return True
