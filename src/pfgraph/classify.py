"""Classification predicates and self-complementarity checks.

A graph is mu-strong when every edge's membership attains the endpoint
minimum, nu-strong when every edge's non-membership attains the endpoint
maximum, and strong when both hold.  Completeness asks for both equalities
on every unordered vertex pair, reading absent edges as (0, 0).  The
complete-mu-strong and complete-nu-strong variants replace one of the
all-pairs equalities with a strict inequality (a gap larger than the
tolerance).

Self-complementarity asks whether the graph is isomorphic to its own
complement, under the complement variant matching how the graph classifies.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from operator import itemgetter
from typing import NamedTuple

from .algebra import complement, complete_complement, strong_complement
from .core import (
    PFDegree,
    PFGraph,
    PairKey,
    ZERO_DEGREE,
    _pairs_type_error,
    _type_error,
    gc_paused,
    tolerance,
)
from .morphism import DEFAULT_SEARCH_CAP, MorphismKind, MorphismReport, _require_cap, find_morphism


class Classification(NamedTuple):
    """Strength and completeness profile plus one offending pair per false flag."""

    is_mu_strong: bool
    is_nu_strong: bool
    is_strong: bool
    is_complete: bool
    is_complete_mu_strong: bool
    is_complete_nu_strong: bool
    witnesses: Mapping[str, tuple[str, str]]

    def as_dict(self) -> dict:
        return {**self._asdict(), "witnesses": {f: list(p) for f, p in self.witnesses.items()}}


def classify(g: PFGraph) -> Classification:
    if not isinstance(g, PFGraph):
        raise _type_error("g", g, PFGraph)
    eps = tolerance()
    # witnesses keep the strength flags ahead of the completeness flags
    strength: dict[str, tuple[str, str]] = {}
    completeness: dict[str, tuple[str, str]] = {}
    if _scan_witnesses(g, eps, strength, completeness) and len(strength) < 2:
        _walk_strength_witnesses(g, eps, strength)

    witnesses = {**strength, **completeness}
    first = strength.get("is_mu_strong") or strength.get("is_nu_strong")
    if first is not None:
        witnesses["is_strong"] = first
    return Classification(
        is_mu_strong="is_mu_strong" not in witnesses,
        is_nu_strong="is_nu_strong" not in witnesses,
        is_strong=first is None,
        is_complete="is_complete" not in witnesses,
        is_complete_mu_strong="is_complete_mu_strong" not in witnesses,
        is_complete_nu_strong="is_complete_nu_strong" not in witnesses,
        witnesses=witnesses,
    )


def _scan_witnesses(g: PFGraph, eps: float, strength: dict, completeness: dict) -> bool:
    """Fill in each flag's first failing pair in key order, until all five
    flags have one or the row in which the three completeness flags all have
    one ends; whether the scan stopped before the end.

    Later pairs change none of the flags that have a witness, and an edge
    the scan did not reach is left to :func:`_walk_strength_witnesses`.
    Finishing the row costs at most n pairs, and on a graph whose edges miss
    their bounds it finds the strength witnesses, so that the walk over
    every edge is left for graphs that need it (a strong graph has none to
    find)."""
    get = g.edges.get
    for u, (umu, unu), tail in g._pair_scan():
        for v, (vmu, vnu) in tail:
            degree = get((u, v), ZERO_DEGREE)
            mu, nu = degree
            bmu = vmu if vmu < umu else umu  # degree_min_max's tie rule: u's value wins
            bnu = vnu if vnu > unu else unu
            mu_equal = abs(mu - bmu) <= eps
            nu_equal = abs(nu - bnu) <= eps
            if degree is not ZERO_DEGREE:  # a stored degree is never that object
                if not mu_equal and "is_mu_strong" not in strength:
                    strength["is_mu_strong"] = (u, v)
                if not nu_equal and "is_nu_strong" not in strength:
                    strength["is_nu_strong"] = (u, v)
            if not (mu_equal and nu_equal) and "is_complete" not in completeness:
                completeness["is_complete"] = (u, v)
            if not (mu_equal and bnu - nu > eps) and "is_complete_mu_strong" not in completeness:
                completeness["is_complete_mu_strong"] = (u, v)
            if not (bmu - mu > eps and nu_equal) and "is_complete_nu_strong" not in completeness:
                completeness["is_complete_nu_strong"] = (u, v)
            if len(strength) + len(completeness) == 5:
                return True
        if len(completeness) == 3:
            return True
    return False


def _walk_strength_witnesses(g: PFGraph, eps: float, strength: dict) -> None:
    """Add each strength flag that has no witness yet, at its least failing
    edge key, by one walk over the edges in any order.

    Every edge below the key where the pair scan stopped has been tested,
    so a failing edge found here lies past it.  A witness names the vertex
    label objects, as the scan does, and two found here are added in key
    order, mu first on a tie, as the scan would have found them.
    """
    vertices = g.vertices
    test_mu = "is_mu_strong" not in strength
    test_nu = "is_nu_strong" not in strength
    least_mu = least_nu = None
    for key, (mu, nu) in g.edges.items():
        lo, hi = key
        (amu, anu), (bmu, bnu) = vertices[lo], vertices[hi]
        bound_mu = bmu if bmu < amu else amu  # degree_min_max's tie rule: lo's value wins
        bound_nu = bnu if bnu > anu else anu
        if test_mu and not abs(mu - bound_mu) <= eps and (least_mu is None or key < least_mu):
            least_mu = key
        if test_nu and not abs(nu - bound_nu) <= eps and (least_nu is None or key < least_nu):
            least_nu = key
    found = [(key, flag) for key, flag in ((least_mu, "is_mu_strong"), (least_nu, "is_nu_strong"))
             if key is not None]
    if found:
        label = dict(zip(vertices, vertices))  # a key's label as the vertex's own object
        for (lo, hi), flag in sorted(found, key=itemgetter(0)):  # stable: mu first on a tie
            strength[flag] = (label[lo], label[hi])


class SumIdentityReport(NamedTuple):
    """Totals of edge degrees against totals of pair bounds, with verdicts."""

    lhs_mu: float
    rhs_mu: float
    lhs_nu: float
    rhs_nu: float
    holds_mu: bool
    holds_nu: bool

    def as_dict(self) -> dict:
        return self._asdict()


def _sum_report(g: PFGraph, factor: float) -> SumIdentityReport:
    eps = tolerance()
    get = g.edges.get
    edge_mu = edge_nu = bound_mu = bound_nu = 0.0
    # one addition per pair in key order, an absent edge's (0, 0) too
    for u, (umu, unu), tail in g._pair_scan():
        for v, (vmu, vnu) in tail:
            mu, nu = get((u, v), ZERO_DEGREE)
            edge_mu += mu
            edge_nu += nu
            bound_mu += vmu if vmu < umu else umu
            bound_nu += vnu if vnu > unu else unu
    rhs_mu = factor * bound_mu
    rhs_nu = factor * bound_nu
    return SumIdentityReport(
        lhs_mu=edge_mu,
        rhs_mu=rhs_mu,
        lhs_nu=edge_nu,
        rhs_nu=rhs_nu,
        holds_mu=abs(edge_mu - rhs_mu) <= eps,
        holds_nu=abs(edge_nu - rhs_nu) <= eps,
    )


def sum_identity(g: PFGraph) -> SumIdentityReport:
    """Edge-degree totals against half the pair-bound totals.

    Every graph isomorphic to its general complement satisfies both
    equalities; the converse does not hold.
    """
    if not isinstance(g, PFGraph):
        raise _type_error("g", g, PFGraph)
    return _sum_report(g, 0.5)


def strong_sum_identity(g: PFGraph) -> SumIdentityReport:
    """Edge-degree totals against the full pair-bound totals (no half factor)."""
    if not isinstance(g, PFGraph):
        raise _type_error("g", g, PFGraph)
    return _sum_report(g, 1.0)


# each entry looks its complement up by name when called, so that a wrapper
# installed on the module's name (the benchmark's tracer) sees the call
_COMPLEMENTS = {
    "general": lambda g: complement(g),
    "strong": lambda g: strong_complement(g),
    "complete": lambda g: complete_complement(g),
}
SELF_COMPLEMENT_VARIANTS = tuple(_COMPLEMENTS)


def is_self_complementary(
    g: PFGraph, variant: str = "general", cap: int = DEFAULT_SEARCH_CAP
) -> MorphismReport:
    """Search for an isomorphism between g and its complement.

    ``variant`` picks the complement flavor: "general" works on any valid
    graph, "strong" and "complete" require the graph to classify
    accordingly (raising NotStrong/NotComplete otherwise).  The returned
    report carries the witness bijection when one exists.

    The checks run in this order: a ``g`` that is not a PFGraph raises
    TypeError, an unknown variant ValueError, a ``cap`` that is not an int
    (a bool included) TypeError, and a graph with more than ``cap``
    vertices SearchCapExceeded, all before the complement is built; only
    then can the complement raise NotStrong or NotComplete.
    """
    if not isinstance(g, PFGraph):
        raise _type_error("g", g, PFGraph)
    try:
        complement_of = _COMPLEMENTS[variant]
    except (KeyError, TypeError):  # TypeError: an unhashable variant
        raise ValueError(
            f"unknown variant {variant!r}; expected one of {SELF_COMPLEMENT_VARIANTS}"
        ) from None
    _require_cap(len(g.vertices), cap)  # before the O(n^2) complement
    return find_morphism(g, complement_of(g), MorphismKind.ISOMORPHISM, cap)


@gc_paused
def half_strong_construction(p: Mapping[str, PFDegree]) -> PFGraph:
    """Build the graph on all pairs whose edges carry half the attainable bound.

    Each pair (u, v) receives membership min(mu_u, mu_v)/2 and
    non-membership max(nu_u, nu_v)/2.  The output is always valid and is
    isomorphic to its own general complement under the identity map.
    ``p`` is read as the constructor reads its ``vertices``; a ``p`` that
    is neither a mapping nor an iterable of pairs raises TypeError naming it.
    """
    if not isinstance(p, Iterable):
        raise _pairs_type_error("p", p)
    g = PFGraph(p)
    new = tuple.__new__
    edges = {}
    for u, (umu, unu), tail in g._pair_scan():
        for v, (vmu, vnu) in tail:
            mu = 0.5 * (vmu if vmu < umu else umu)
            nu = 0.5 * (vnu if vnu > unu else unu)
            if mu != 0.0 or nu != 0.0:
                edges[new(PairKey, (u, v))] = new(PFDegree, (mu, nu))
    return PFGraph._adopt(g.vertices, edges)  # g, and so its copy of p, goes no further
