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

from typing import Mapping, NamedTuple

from .algebra import complement, complete_complement, strong_complement
from .core import (
    PFDegree,
    PFGraph,
    PairKey,
    ZERO_DEGREE,
    gc_paused,
    tolerance,
)
from .morphism import DEFAULT_SEARCH_CAP, MorphismKind, MorphismReport, find_morphism


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
    eps = tolerance()
    # witnesses keep the strength flags ahead of the completeness flags
    strength: dict[str, tuple[str, str]] = {}
    completeness: dict[str, tuple[str, str]] = {}

    def note(found: dict, flag: str, u, v) -> bool:
        """Record (u, v) as the witness of flag; whether all five flags now have one."""
        found[flag] = (u, v)
        return len(strength) + len(completeness) == 5

    # the scan stops once every flag has its witness: later pairs change nothing
    for u, v, degree, bmu, bnu in g._pair_scan():
        mu, nu = degree
        mu_equal = abs(mu - bmu) <= eps
        nu_equal = abs(nu - bnu) <= eps
        if degree is not ZERO_DEGREE:  # a stored degree is never that object
            if not mu_equal and "is_mu_strong" not in strength:
                if note(strength, "is_mu_strong", u, v):
                    break
            if not nu_equal and "is_nu_strong" not in strength:
                if note(strength, "is_nu_strong", u, v):
                    break
        if not (mu_equal and nu_equal) and "is_complete" not in completeness:
            if note(completeness, "is_complete", u, v):
                break
        if not (mu_equal and bnu - nu > eps) and "is_complete_mu_strong" not in completeness:
            if note(completeness, "is_complete_mu_strong", u, v):
                break
        if not (bmu - mu > eps and nu_equal) and "is_complete_nu_strong" not in completeness:
            if note(completeness, "is_complete_nu_strong", u, v):
                break

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
    edge_mu = edge_nu = bound_mu = bound_nu = 0.0
    for _, _, (mu, nu), bmu, bnu in g._pair_scan():
        edge_mu += mu
        edge_nu += nu
        bound_mu += bmu
        bound_nu += bnu
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
    return _sum_report(g, 0.5)


def strong_sum_identity(g: PFGraph) -> SumIdentityReport:
    """Edge-degree totals against the full pair-bound totals (no half factor)."""
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
    """
    try:
        complement_of = _COMPLEMENTS[variant]
    except (KeyError, TypeError):  # TypeError: an unhashable variant
        raise ValueError(
            f"unknown variant {variant!r}; expected one of {SELF_COMPLEMENT_VARIANTS}"
        ) from None
    return find_morphism(g, complement_of(g), MorphismKind.ISOMORPHISM, cap)


@gc_paused
def half_strong_construction(p: Mapping[str, PFDegree]) -> PFGraph:
    """Build the graph on all pairs whose edges carry half the attainable bound.

    Each pair (u, v) receives membership min(mu_u, mu_v)/2 and
    non-membership max(nu_u, nu_v)/2.  The output is always valid and is
    isomorphic to its own general complement under the identity map.
    """
    g = PFGraph(p)
    new = tuple.__new__
    edges = {}
    for u, v, _, bmu, bnu in g._pair_scan():
        mu, nu = 0.5 * bmu, 0.5 * bnu
        if mu != 0.0 or nu != 0.0:
            edges[new(PairKey, (u, v))] = new(PFDegree, (mu, nu))
    return PFGraph._adopt(g.vertices, edges)  # g, and so its copy of p, goes no further
