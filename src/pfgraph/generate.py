"""Seeded random generation of valid Pythagorean fuzzy graphs.

The generator exists to power the property suites, so it trades
distributional uniformity for determinism and guaranteed validity: the
membership value is drawn first, then the non-membership uniformly from
what the constraint leaves, and edge degrees are drawn inside the bounds
set by their endpoints.  The same config always produces the same graph:
a config's seed is a required int, so no config draws from system entropy.
The pair loop builds each key and degree as a bare tuple and hands its maps
to the graph once, through ``PFGraph._adopt``.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple, Optional

from .classify import half_strong_construction
from .core import PFDegree, PFGraph, PairKey, gc_paused, tolerance

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
        typed = [("seed", int), ("n_vertices", int), ("edge_probability", (int, float))]
        if self.quantize is not None:
            typed.append(("quantize", int))
        for name, kinds in typed:
            value = getattr(self, name)
            # a bool is an int to isinstance, but never a seed, a count or a probability
            if isinstance(value, bool) or not isinstance(value, kinds):
                kind = "an int" if kinds is int else "an int or a float"
                raise ValueError(f"{name} must be {kind}, got {value!r}")
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


@gc_paused
def generate(cfg: GenConfig) -> PFGraph:
    """Produce a valid graph for the given config, deterministically.

    Families: "general" draws edge degrees uniformly inside their bounds
    for a random subset of pairs; "strong" puts the selected edges exactly
    at their bounds; "complete" puts every pair at its bound; and
    "half_strong" gives every pair half its bound, which makes the output
    isomorphic to its own complement.
    """
    rng = random.Random(cfg.seed)
    family, quantize = cfg.family, cfg.quantize
    labels = [f"v{i}" for i in range(cfg.n_vertices)]
    vertices = {label: _draw_vertex_degree(rng, quantize) for label in labels}
    if family == "half_strong":
        return half_strong_construction(vertices)

    draw, p = rng.random, cfg.edge_probability
    every_pair, general = family == "complete", family == "general"
    new = tuple.__new__
    edges: dict[PairKey, PFDegree] = {}
    # index order, not sorted order: it fixes which random draw each pair gets
    items = list(vertices.items())
    for i, (u, (umu, unu)) in enumerate(items, 1):
        for v, (vmu, vnu) in items[i:]:
            if not (every_pair or draw() < p):
                continue
            # the key puts the lower label first, and its value wins ties in the bound
            if v < u:
                key = new(PairKey, (v, u))
                mu, nu = (umu if umu < vmu else vmu), (unu if unu > vnu else vnu)
            else:
                key = new(PairKey, (u, v))
                mu, nu = (vmu if vmu < umu else umu), (vnu if vnu > unu else unu)
            if general:
                mu, nu = draw() * mu, draw() * nu
                if quantize is not None:
                    mu, nu = round(mu, quantize), round(nu, quantize)
            if mu != 0.0 or nu != 0.0:  # an exactly-(0, 0) degree means no edge
                edges[key] = new(PFDegree, (mu, nu))
    return PFGraph._adopt(vertices, edges)
