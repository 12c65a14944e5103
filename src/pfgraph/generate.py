"""Seeded random generation of valid Pythagorean fuzzy graphs.

The generator exists to power the property suites, so it trades
distributional uniformity for determinism and guaranteed validity: the
membership value is drawn first, then the non-membership uniformly from
what the constraint leaves, and edge degrees are drawn inside the bounds
set by their endpoints.  The same config always produces the same graph.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple, Optional

from .classify import half_strong_construction
from .core import PFDegree, PFGraph, PairKey, degree_min_max, tolerance

FAMILIES = ("general", "strong", "complete", "half_strong")


class _GenFields(NamedTuple):
    seed: int
    n_vertices: int
    edge_probability: float = 0.5
    family: str = "general"
    quantize: Optional[int] = None


class GenConfig(_GenFields):
    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.n_vertices < 1:
            raise ValueError("n_vertices must be positive")
        if not 0.0 <= self.edge_probability <= 1.0:
            raise ValueError("edge_probability must lie in [0, 1]")
        if self.family not in FAMILIES:
            raise ValueError(f"family must be one of {FAMILIES}, got {self.family!r}")
        if self.quantize is not None and self.quantize < 1:
            raise ValueError("quantize must be a positive number of decimals")
        return self

    @classmethod
    def _make(cls, iterable):  # namedtuple's own _make, which _replace uses, skips the checks
        return cls(*iterable)


def _draw_vertex_degree(rng: random.Random, quantize: Optional[int]) -> PFDegree:
    while True:
        mu = rng.random()
        nu = rng.random() * math.sqrt(max(0.0, 1.0 - mu * mu))
        if quantize is not None:
            mu = round(mu, quantize)
            nu = round(nu, quantize)
            # rounding both up can break the constraint; redraw the rare offender
            if mu * mu + nu * nu > 1.0 + tolerance():
                continue
        return PFDegree(mu, nu)


def generate(cfg: GenConfig) -> PFGraph:
    """Produce a valid graph for the given config, deterministically.

    Families: "general" draws edge degrees uniformly inside their bounds
    for a random subset of pairs; "strong" puts the selected edges exactly
    at their bounds; "complete" puts every pair at its bound; and
    "half_strong" gives every pair half its bound, which makes the output
    isomorphic to its own complement.
    """
    rng = random.Random(cfg.seed)
    labels = [f"v{i}" for i in range(cfg.n_vertices)]
    vertices = {label: _draw_vertex_degree(rng, cfg.quantize) for label in labels}
    if cfg.family == "half_strong":
        return half_strong_construction(vertices)

    # index order, not sorted order: it fixes which random draw each pair gets
    all_pairs = [
        PairKey(labels[i], labels[j])
        for i in range(cfg.n_vertices)
        for j in range(i + 1, cfg.n_vertices)
    ]

    edges: dict[PairKey, PFDegree] = {}
    for key in all_pairs:
        bound = degree_min_max(vertices[key.lo], vertices[key.hi])
        if cfg.family == "complete":
            edges[key] = bound
        else:
            keep = rng.random() < cfg.edge_probability
            if cfg.family == "strong":
                if keep:
                    edges[key] = bound
            else:
                if keep:
                    mu = rng.random() * bound.mu
                    nu = rng.random() * bound.nu
                    if cfg.quantize is not None:
                        mu = round(mu, cfg.quantize)
                        nu = round(nu, cfg.quantize)
                    edges[key] = PFDegree(mu, nu)
    return PFGraph(vertices, edges)
