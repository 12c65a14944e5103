"""Acceptance suite.

One test per criterion.  Each test prints a single PASS line (visible with
``pytest -s``); a failing criterion fails its test, so the pass/fail state
per criterion is always explicit.  Sizes, tolerances, and runtime budgets
are pinned in the constants below.
"""

import itertools
import json
import time

import pytest

from pfgraph import (
    GenConfig,
    MorphismKind,
    PFDegree,
    PFGraph,
    PairKey,
    cartesian_product,
    classify,
    complement,
    complete_complement,
    composition,
    find_morphism,
    generate,
    graphs_close,
    half_strong_construction,
    is_self_complementary,
    join,
    parse,
    render,
    strong_complement,
    sum_identity,
    union,
    validate,
    verify_morphism,
)
from pfgraph.cli import main as cli_main

from conftest import build, relabel
from reference_builders import pair_rows
from test_morphism import oracle_search

TOL = 1e-9
HOMO = MorphismKind.HOMOMORPHISM
ISO = MorphismKind.ISOMORPHISM
WEAK = MorphismKind.WEAK_ISOMORPHISM
COWEAK = MorphismKind.COWEAK_ISOMORPHISM


def _report(number: int, description: str, started: float, budget: float) -> None:
    elapsed = time.perf_counter() - started
    assert elapsed < budget, f"criterion {number} exceeded its {budget}s budget ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {number} PASS ({elapsed:.2f}s) - {description}")


def _disjoint_pair(seed: int, max_n: int = 6, family: str = "general"):
    n1 = 2 + seed % (max_n - 1)
    n2 = 2 + (seed // (max_n - 1)) % (max_n - 1)
    g1 = relabel(generate(GenConfig(seed=seed, n_vertices=n1, family=family)), "l")
    g2 = relabel(generate(GenConfig(seed=seed + 700_000, n_vertices=n2, family=family)), "r")
    return g1, g2


def test_criterion_1_pinned_examples(square_cycle, isomorphic_quad_pair, balanced_sums_triangle):
    started = time.perf_counter()

    assert validate(square_cycle).ok

    g1, g2 = isomorphic_quad_pair
    report = find_morphism(g1, g2, ISO)
    assert report.found
    assert report.witness == {"a1": "b3", "a2": "b1", "a3": "b2", "a4": "b4"}

    sums = sum_identity(balanced_sums_triangle)
    assert abs(sums.lhs_mu - 0.55) <= TOL and abs(sums.rhs_mu - 0.55) <= TOL
    assert abs(sums.lhs_nu - 1.0) <= TOL and abs(sums.rhs_nu - 1.0) <= TOL

    _report(1, "pinned worked examples reproduce", started, budget=1.0)


def test_criterion_2_closure_of_the_four_operations():
    started = time.perf_counter()
    operations = (cartesian_product, composition, union, join)
    for seed in range(500):
        g1, g2 = _disjoint_pair(seed)
        for op in operations:
            result = op(g1, g2)
            report = validate(result)
            assert report.ok, f"{op.__name__} seed {seed}: {report.violations[:2]}"
    _report(2, "product/composition/union/join outputs validate on 500 pairs", started, budget=30.0)


def test_criterion_3_complement_involution():
    started = time.perf_counter()

    for seed in range(500):
        g = generate(GenConfig(seed=seed, n_vertices=1 + seed % 6))
        assert graphs_close(complement(complement(g)), g, TOL)

    grid = [round(0.1 * i, 1) for i in range(11)]
    degrees = [
        PFDegree(m, n) for m in grid for n in grid if m * m + n * n <= 1.0 + TOL
    ]
    assert len(degrees) == 90
    checked = 0
    for da in degrees:
        for db in degrees:
            bound_mu = min(da.mu, db.mu)
            bound_nu = max(da.nu, db.nu)
            options = [None]
            options.extend(
                PFDegree(s, t)
                for s in grid
                if s <= bound_mu + TOL
                for t in grid
                if t <= bound_nu + TOL
                and s * s + t * t <= 1.0 + TOL
                and (s, t) != (0.0, 0.0)
            )
            for edge in options:
                edges = {} if edge is None else {PairKey("a", "b"): edge}
                g = PFGraph({"a": da, "b": db}, edges)
                assert graphs_close(complement(complement(g)), g, TOL)
                checked += 1
    assert checked > 100_000

    _report(3, f"double complement is identity (500 random + {checked} grid graphs)", started, budget=60.0)


def test_criterion_4_complement_laws_for_join_and_union():
    started = time.perf_counter()
    for seed in range(200):
        g1, g2 = _disjoint_pair(seed, max_n=5)
        assert graphs_close(complement(join(g1, g2)), union(complement(g1), complement(g2)), TOL)
        assert graphs_close(complement(union(g1, g2)), join(complement(g1), complement(g2)), TOL)
    _report(4, "complement swaps join and union on 200 disjoint pairs", started, budget=30.0)


def _nonstrong_graph(seed: int) -> PFGraph:
    """A valid graph guaranteed to have one edge strictly below its mu bound."""
    g = generate(GenConfig(seed=seed, n_vertices=2 + seed % 4, edge_probability=0.8))
    for key, _, _ in pair_rows(g):
        bound = g.pair_bound(key.lo, key.hi)
        if bound.mu > 0.2:
            edges = dict(g.edges)
            edges[key] = PFDegree(bound.mu * 0.4, bound.nu * 0.5)
            return PFGraph(g.vertices, edges)
    return None


def test_criterion_5_strong_and_complete_suite():
    started = time.perf_counter()

    for seed in range(200):
        g1, g2 = _disjoint_pair(seed, max_n=4, family="strong")
        assert classify(cartesian_product(g1, g2)).is_strong
        assert classify(composition(g1, g2)).is_strong
        assert classify(join(g1, g2)).is_strong

    # pinned: overlapping union of two strong graphs that is valid yet not strong
    g1 = build({"a": (0.3, 0.55), "b": (0.7, 0.2)}, {("a", "b"): (0.3, 0.55)})
    g2 = build({"a": (0.8, 0.55), "c": (0.5, 0.4)}, {("a", "c"): (0.5, 0.55)})
    assert classify(g1).is_strong and classify(g2).is_strong
    merged = union(g1, g2)
    assert validate(merged).ok and not classify(merged).is_strong

    count = 0
    seed = 0
    while count < 200:
        h1 = _nonstrong_graph(seed)
        h2 = _nonstrong_graph(seed + 900_000)
        seed += 1
        if h1 is None or h2 is None:
            continue
        h1, h2 = relabel(h1, "l"), relabel(h2, "r")
        assert validate(h1).ok and validate(h2).ok
        assert not classify(h1).is_strong and not classify(h2).is_strong
        assert not classify(cartesian_product(h1, h2)).is_strong
        count += 1

    for seed in range(30):
        g = generate(GenConfig(seed=seed, n_vertices=2 + seed % 3, family="complete"))
        assert classify(composition(g, g)).is_complete

    _report(5, "strong closure, pinned union counterexample, factor necessity, complete composition", started, budget=60.0)


def _shuffled_copy(g: PFGraph, seed: int) -> PFGraph:
    import random as _random

    rng = _random.Random(seed)
    labels = sorted(g.vertices)
    targets = ["m" + l for l in labels]
    rng.shuffle(targets)
    mapping = dict(zip(labels, targets))
    return PFGraph(
        {mapping[v]: d for v, d in g.vertices.items()},
        {(mapping[k.lo], mapping[k.hi]): d for k, d in g.edges.items()},
    )


def test_criterion_6_morphism_algebra_and_transfers():
    started = time.perf_counter()

    # isomorphism behaves like an equivalence relation on 100 seeded triples
    for seed in range(100):
        g1 = generate(GenConfig(seed=seed, n_vertices=3 + seed % 4))
        g2 = _shuffled_copy(g1, seed)
        g3 = _shuffled_copy(g1, seed + 31337)
        assert find_morphism(g1, g1, ISO).found
        r12 = find_morphism(g1, g2, ISO)
        r23 = find_morphism(g2, g3, ISO)
        assert r12.found and r23.found
        inverse = {v: k for k, v in r12.witness.items()}
        assert verify_morphism(g2, g1, ISO, inverse).ok
        composed = {u: r23.witness[r12.witness[u]] for u in r12.witness}
        assert verify_morphism(g1, g3, ISO, composed).ok

    # bidirectional weak isomorphism forces a full isomorphism
    for seed in range(50):
        g1 = generate(GenConfig(seed=seed, n_vertices=3 + seed % 4))
        g2 = _shuffled_copy(g1, seed + 77)
        assert find_morphism(g1, g2, WEAK).found
        assert find_morphism(g2, g1, WEAK).found
        assert find_morphism(g1, g2, ISO).found

    # complement transfers on strong pairs
    for seed in range(100):
        g1 = generate(GenConfig(seed=seed, n_vertices=2 + seed % 5, family="strong"))
        g2 = _shuffled_copy(g1, seed + 5)
        witness = find_morphism(g1, g2, ISO).witness
        assert witness is not None
        sc1, sc2 = strong_complement(g1), strong_complement(g2)
        assert verify_morphism(sc1, sc2, ISO, witness).ok
        assert find_morphism(sc1, sc2, ISO).found
        # weak and co-weak variants transfer as well
        assert find_morphism(g1, g2, WEAK).found
        assert find_morphism(sc2, sc1, WEAK).found
        assert find_morphism(g1, g2, COWEAK).found
        assert find_morphism(sc1, sc2, HOMO).found or find_morphism(sc2, sc1, HOMO).found

    # complete complement preserves isomorphism in both directions
    for seed in range(100):
        g1 = generate(GenConfig(seed=seed, n_vertices=2 + seed % 4, family="complete"))
        g2 = _shuffled_copy(g1, seed + 11)
        witness = find_morphism(g1, g2, ISO).witness
        assert witness is not None
        cc1, cc2 = complete_complement(g1), complete_complement(g2)
        assert verify_morphism(cc1, cc2, ISO, witness).ok
        assert find_morphism(cc1, cc2, ISO).found

    _report(6, "isomorphism algebra and complement transfers", started, budget=60.0)


def test_criterion_7_self_complementarity(balanced_sums_triangle):
    started = time.perf_counter()

    for seed in range(200):
        base = generate(GenConfig(seed=seed, n_vertices=2 + seed % 5))
        g = half_strong_construction(base.vertices)
        identity = {v: v for v in g.vertices}
        assert verify_morphism(g, complement(g), ISO, identity).ok
        report = is_self_complementary(g)
        assert report.found, f"seed {seed}"
        sums = sum_identity(g)
        assert sums.holds_mu and sums.holds_nu

    # pinned non-sufficiency: the balanced sums hold, yet no isomorphism
    sums = sum_identity(balanced_sums_triangle)
    assert sums.holds_mu and sums.holds_nu
    assert not is_self_complementary(balanced_sums_triangle).found

    # pinned non-necessity: self-complementary without half-bound degrees
    deg = (0.6, 0.4)
    path = build(
        {"a": deg, "b": deg, "c": deg, "d": deg},
        {("a", "b"): deg, ("b", "c"): deg, ("c", "d"): deg},
    )
    assert is_self_complementary(path).found
    assert all(
        abs(d.mu - 0.5 * path.pair_bound(k.lo, k.hi).mu) > TOL
        for k, d in path.edges.items()
    )

    _report(7, "half-bound graphs are self-complementary; pinned witnesses behave", started, budget=60.0)


# --- criterion 8: enumerated grid corpus -------------------------------------

GRID = (0.0, 0.25, 0.5, 0.75, 1.0)


def _grid_edge_options(bound: PFDegree) -> list:
    options = [None]
    options.extend(
        PFDegree(s, t)
        for s in GRID
        if s <= bound.mu + TOL
        for t in GRID
        if t <= bound.nu + TOL and s * s + t * t <= 1.0 + TOL and (s, t) != (0.0, 0.0)
    )
    return options


def _corpus_n1() -> list:
    return [
        PFGraph({"a": PFDegree(m, n)})
        for m in GRID
        for n in GRID
        if m * m + n * n <= 1.0 + TOL
    ]


def _corpus_n2() -> list:
    palette = [
        PFDegree(0.25, 0.25),
        PFDegree(0.5, 0.5),
        PFDegree(0.75, 0.25),
        PFDegree(0.25, 0.75),
        PFDegree(0.5, 0.0),
    ]
    graphs = []
    for da, db in itertools.product(palette, repeat=2):
        bound = PFDegree(min(da.mu, db.mu), max(da.nu, db.nu))
        for edge in _grid_edge_options(bound):
            edges = {} if edge is None else {("a", "b"): edge}
            graphs.append(PFGraph({"a": da, "b": db}, edges))
    return graphs


def _pair_options(bound: PFDegree) -> list:
    quarter = PFDegree(min(0.25, bound.mu), min(0.25, bound.nu))
    options = [None, bound]
    if quarter != bound and quarter != (0, 0):
        options.append(quarter)
    return options


def _corpus_n3() -> list:
    palette = [PFDegree(0.5, 0.5), PFDegree(0.75, 0.25)]
    labels = ("a", "b", "c")
    pairs = [("a", "b"), ("a", "c"), ("b", "c")]
    graphs = []
    for assignment in itertools.product(palette, repeat=3):
        vertices = dict(zip(labels, assignment))
        per_pair = [
            _pair_options(PFDegree(min(vertices[u].mu, vertices[v].mu),
                                   max(vertices[u].nu, vertices[v].nu)))
            for u, v in pairs
        ]
        for combo in itertools.product(*per_pair):
            edges = {
                pair: degree for pair, degree in zip(pairs, combo) if degree is not None
            }
            graphs.append(PFGraph(vertices, edges))
    return graphs


def _corpus_n4() -> list:
    a, b = PFDegree(0.5, 0.5), PFDegree(0.75, 0.25)
    labels = ("a", "b", "c", "d")
    assignments = [(a, a, a, a), (b, b, b, b), (a, b, a, b), (a, a, a, b)]
    structures = [
        (),
        (("a", "b"),),
        (("a", "b"), ("c", "d")),
        (("a", "b"), ("b", "c"), ("c", "d")),
        (("a", "b"), ("b", "c"), ("c", "d"), ("a", "d")),
        (("a", "b"), ("a", "c"), ("a", "d")),
        (("a", "b"), ("b", "c"), ("a", "c")),
        (("a", "b"), ("a", "c"), ("a", "d"), ("b", "c"), ("b", "d"), ("c", "d")),
    ]
    graphs = []
    for assignment in assignments:
        vertices = dict(zip(labels, assignment))

        def bound(u, v):
            return PFDegree(
                min(vertices[u].mu, vertices[v].mu), max(vertices[u].nu, vertices[v].nu)
            )

        for structure in structures:
            graphs.append(
                PFGraph(vertices, {(u, v): bound(u, v) for u, v in structure})
            )
            graphs.append(
                PFGraph(
                    vertices,
                    {
                        (u, v): PFDegree(
                            min(0.25, bound(u, v).mu), min(0.25, bound(u, v).nu)
                        )
                        for u, v in structure
                    },
                )
            )
    return graphs


def test_criterion_8_pruned_search_matches_exhaustive_oracle():
    """Pruned search agrees with plain enumeration on an exhaustive corpus of
    quarter-grid graphs with up to four vertices, for all four kinds, plus a
    deterministic cross-size slice exercising non-bijective maps."""
    started = time.perf_counter()

    buckets = [_corpus_n1(), _corpus_n2(), _corpus_n3(), _corpus_n4()]
    kinds = (HOMO, ISO, WEAK, COWEAK)
    compared = 0

    for bucket in buckets:
        for g1, g2 in itertools.product(bucket, repeat=2):
            for kind in kinds:
                expected = oracle_search(g1, g2, kind)
                report = find_morphism(g1, g2, kind)
                assert report.found == (expected is not None), (
                    f"{kind} disagrees: {render(g1)} vs {render(g2)}"
                )
                assert report.witness == expected  # the lexicographically least one
                if report.found:
                    assert verify_morphism(g1, g2, kind, report.witness).ok
                compared += 1

    # cross-size slice: only the homomorphism kind can succeed here
    small = buckets[0][::3] + buckets[1][::17]
    large = buckets[2][::29] + buckets[3][::11]
    for g1, g2 in itertools.chain(
        itertools.product(small, large), itertools.product(large, small)
    ):
        for kind in kinds:
            expected = oracle_search(g1, g2, kind)
            report = find_morphism(g1, g2, kind)
            assert report.found == (expected is not None)
            assert report.witness == expected
            compared += 1

    _report(8, f"pruned vs exhaustive search agreement on {compared} comparisons", started, budget=300.0)


def test_criterion_9_io_round_trip_and_cli_pipe(capsys, monkeypatch):
    started = time.perf_counter()

    for seed in range(1000):
        family = ("general", "strong", "complete", "half_strong")[seed % 4]
        g = generate(GenConfig(seed=seed, n_vertices=1 + seed % 7, family=family))
        text = render(g)
        assert parse(text) == g
        assert render(parse(text)) == text

    import io as _io

    for seed in range(100):
        assert cli_main(["gen", "--seed", str(seed), "--n", "4"]) == 0
        doc = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", _io.StringIO(doc))
        assert cli_main(["op", "complement", "-"]) == 0
        comp = capsys.readouterr().out
        monkeypatch.setattr("sys.stdin", _io.StringIO(comp))
        assert cli_main(["validate", "-"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["valid"] is True

    _report(9, "1000-graph round trip and 100-seed CLI pipeline", started, budget=60.0)
