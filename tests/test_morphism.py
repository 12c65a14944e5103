"""Morphism search and verification: the four map kinds and their algebra."""

import itertools
import random
from collections.abc import Mapping

import pytest

from pfgraph import (
    FAMILIES,
    GenConfig,
    MorphismKind,
    PFDegree,
    PFGraph,
    PairKey,
    SearchCapExceeded,
    UnknownVertex,
    classify,
    degrees_close,
    find_morphism,
    generate,
    set_tolerance,
    strong_complement,
    complete_complement,
    tolerance,
    verify_morphism,
)

from conftest import Unordered, build, relabel, relabel_with
from reference_builders import pair_rows

HOMO = MorphismKind.HOMOMORPHISM
ISO = MorphismKind.ISOMORPHISM
WEAK = MorphismKind.WEAK_ISOMORPHISM
COWEAK = MorphismKind.COWEAK_ISOMORPHISM

EPS = 1e-9


# --- independent exhaustive oracle -----------------------------------------
# Conditions re-stated from scratch so the oracle shares nothing with the
# pruned search it is checking.

def _deg(g, u, v):
    if u == v:
        return (0.0, 0.0)
    d = g.edges.get(PairKey(u, v))
    return (0.0, 0.0) if d is None else (d.mu, d.nu)


def _oracle_ok(g1, g2, kind, mapping):
    for u, du in g1.vertices.items():
        dt = g2.vertices[mapping[u]]
        if kind in (ISO, WEAK):
            if abs(du.mu - dt.mu) > EPS or abs(du.nu - dt.nu) > EPS:
                return False
        else:
            if du.mu > dt.mu + EPS or du.nu < dt.nu - EPS:
                return False
    labels = sorted(g1.vertices)
    for i, u in enumerate(labels):
        for w in labels[i + 1:]:
            if kind is not ISO and not g1.has_edge(u, w):
                continue
            s = _deg(g1, u, w)
            t = _deg(g2, mapping[u], mapping[w])
            if kind in (ISO, COWEAK):
                if abs(s[0] - t[0]) > EPS or abs(s[1] - t[1]) > EPS:
                    return False
            else:
                if s[0] > t[0] + EPS or s[1] < t[1] - EPS:
                    return False
    return True


def oracle_search(g1, g2, kind):
    source = sorted(g1.vertices)
    targets = sorted(g2.vertices)
    if kind is HOMO:
        combos = itertools.product(targets, repeat=len(source))
    else:
        if len(source) != len(targets):
            return None
        combos = itertools.permutations(targets)
    for combo in combos:
        mapping = dict(zip(source, combo))
        if _oracle_ok(g1, g2, kind, mapping):
            return mapping
    return None


# --- searches on pinned graphs ----------------------------------------------

class TestFindMorphism:
    def test_quad_pair_isomorphism_with_exact_witness(self, isomorphic_quad_pair):
        g1, g2 = isomorphic_quad_pair
        report = find_morphism(g1, g2, ISO)
        assert report.found
        assert report.witness == {"a1": "b3", "a2": "b1", "a3": "b2", "a4": "b4"}

    def test_reflexivity(self, square_cycle):
        report = find_morphism(square_cycle, square_cycle, ISO)
        assert report.found
        assert report.witness == {v: v for v in square_cycle.vertices}

    def test_single_vertex_weak_vs_homomorphism(self):
        g1 = build({"u": (0.5, 0.5)})
        g2 = build({"w": (0.6, 0.4)})
        assert not find_morphism(g1, g2, WEAK).found
        assert find_morphism(g1, g2, HOMO).found

    def test_size_mismatch_fails_fast_for_bijective_kinds(self):
        g1 = build({"u": (0.5, 0.5)})
        g2 = build({"w": (0.5, 0.5), "x": (0.5, 0.5)})
        for kind in (ISO, WEAK, COWEAK):
            report = find_morphism(g1, g2, kind)
            assert not report.found and report.search_space == 0
        assert find_morphism(g1, g2, HOMO).found

    def test_search_cap(self):
        big = build({f"x{i}": (0.5, 0.5) for i in range(10)})
        with pytest.raises(SearchCapExceeded):
            find_morphism(big, big, ISO)
        assert find_morphism(big, big, ISO, cap=10).found

    def test_kind_given_by_name_raises_type_error_before_any_other_check(self):
        # the check comes before the cap, so a source above it gets the same error
        g = build({"a": (0.5, 0.5)})
        big = build({f"x{i}": (0.5, 0.5) for i in range(10)})
        for source in (g, big):
            with pytest.raises(TypeError, match=r"^kind must be a MorphismKind, not str$"):
                find_morphism(source, source, "isomorphism")

    def test_graph_and_cap_types_are_checked(self):
        # each used to fail deeper down, as a bare AttributeError or TypeError
        g = build({"a": (0.5, 0.5)})
        cases = [
            ((g, {"a": PFDegree(0.5, 0.5)}, ISO), r"^g2 must be a PFGraph, not dict$"),
            (({"a": PFDegree(0.5, 0.5)}, g, HOMO), r"^g1 must be a PFGraph, not dict$"),
            ((g, None, WEAK), r"^g2 must be a PFGraph, not NoneType$"),
            ((g, g, ISO, "9"), r"^cap must be an int, not str$"),
            ((g, g, HOMO, 9.0), r"^cap must be an int, not float$"),
            # a bool is an int to isinstance, but never a cap
            ((g, g, ISO, True), r"^cap must be an int, not bool$"),
            ((g, g, HOMO, False), r"^cap must be an int, not bool$"),
        ]
        for args, message in cases:
            with pytest.raises(TypeError, match=message):
                find_morphism(*args)

    def test_least_witness_returned(self):
        g1 = build({"a": (0.5, 0.5), "b": (0.5, 0.5)})
        g2 = build({"x": (0.5, 0.5), "y": (0.5, 0.5)})
        assert find_morphism(g1, g2, ISO).witness == {"a": "x", "b": "y"}

    def test_found_witness_passes_verification(self):
        for seed in range(25):
            g1 = generate(GenConfig(seed=seed, n_vertices=2 + seed % 4))
            g2 = relabel(g1, "t")
            for kind in (HOMO, ISO, WEAK, COWEAK):
                report = find_morphism(g1, g2, kind)
                assert report.found
                assert verify_morphism(g1, g2, kind, report.witness).ok


class TestVerifyMorphism:
    def test_quad_pair_witness_verifies(self, isomorphic_quad_pair):
        g1, g2 = isomorphic_quad_pair
        witness = {"a1": "b3", "a2": "b1", "a3": "b2", "a4": "b4"}
        assert verify_morphism(g1, g2, ISO, witness).ok

    def test_identity_verifies_for_every_kind(self, square_cycle):
        identity = {v: v for v in square_cycle.vertices}
        for kind in (HOMO, ISO, WEAK, COWEAK):
            assert verify_morphism(square_cycle, square_cycle, kind, identity).ok

    def test_degree_swapped_pair_is_not_weakly_isomorphic(self, swapped_degree_pair):
        # vertex degrees match under the swap but the edge inequality fails,
        # so the swap map is not a weak isomorphism despite appearances
        g1, g2 = swapped_degree_pair
        check = verify_morphism(g1, g2, WEAK, {"a1": "b2", "a2": "b1"})
        assert not check.ok
        assert any("edge condition" in v for v in check.violations)
        assert not find_morphism(g1, g2, WEAK).found

    def test_dominated_pair_coweak_map_fails_on_vertices(self, dominated_vertex_pair):
        # the straight map keeps edge degrees equal but breaks the vertex
        # non-membership inequality; the swapped map is a real co-weak witness
        g1, g2 = dominated_vertex_pair
        check = verify_morphism(g1, g2, COWEAK, {"a1": "b1", "a2": "b2"})
        assert not check.ok
        assert any("vertex condition" in v for v in check.violations)
        report = find_morphism(g1, g2, COWEAK)
        assert report.found
        assert report.witness == {"a1": "b2", "a2": "b1"}

    def test_unknown_vertices_raise(self, square_cycle):
        identity = {v: v for v in square_cycle.vertices}
        with pytest.raises(UnknownVertex):
            verify_morphism(square_cycle, square_cycle, ISO, {**identity, "zz": "a"})
        with pytest.raises(UnknownVertex):
            verify_morphism(square_cycle, square_cycle, ISO, {**identity, "a": "zz"})
        partial = dict(identity)
        del partial["a"]
        with pytest.raises(UnknownVertex):
            verify_morphism(square_cycle, square_cycle, ISO, partial)

    def test_unhashable_mapping_value_raises(self):
        g = build({"a": (0.5, 0.5)})
        with pytest.raises(UnknownVertex, match=r"^mapping values not in the target graph: \[\['a'\]\]$"):
            verify_morphism(g, g, ISO, {"a": ["a"]})

    def test_unhashable_mapping_key_raises(self):
        class PairList(Mapping):
            """A mapping over (key, value) pairs, so its keys need no hash."""

            def __init__(self, pairs):
                self.pairs = pairs

            def __getitem__(self, key):
                return next(value for k, value in self.pairs if k == key)

            def __iter__(self):
                return (k for k, _ in self.pairs)

            def __len__(self):
                return len(self.pairs)

        g = build({"a": (0.5, 0.5)})
        with pytest.raises(UnknownVertex, match=r"^mapping keys not in the source graph: \[\['a'\]\]$"):
            verify_morphism(g, g, ISO, PairList([("a", "a"), (["a"], "a")]))

    def test_swapped_kind_and_mapping_raise_type_error(self, square_cycle):
        identity = {v: v for v in square_cycle.vertices}
        with pytest.raises(TypeError, match=r"^kind must be a MorphismKind, not dict$"):
            verify_morphism(square_cycle, square_cycle, identity, ISO)

    @pytest.mark.parametrize(
        "kind, mapping, message",
        [
            ("isomorphism", {"a": "a"}, r"^kind must be a MorphismKind, not str$"),
            (ISO, [("a", "a")], r"^mapping must be a Mapping, not list$"),
            (HOMO, None, r"^mapping must be a Mapping, not NoneType$"),
        ],
    )
    def test_kind_and_mapping_types_are_checked(self, kind, mapping, message):
        g = build({"a": (0.5, 0.5)})
        with pytest.raises(TypeError, match=message):
            verify_morphism(g, g, kind, mapping)

    def test_mapping_values_only_equal_to_target_labels_are_read_without_ordering(self):
        # a str subclass that < cannot order is in a graph whose label is its
        # text; a source edge finds its image in either orientation
        d = PFDegree(0.5, 0.5)
        g = PFGraph(dict.fromkeys("abc", d), {("a", "b"): d})
        assert verify_morphism(g, g, ISO, {"a": Unordered("b"), "b": Unordered("a"), "c": "c"}).ok
        check = verify_morphism(g, g, ISO, {"a": Unordered("a"), "b": "c", "c": Unordered("b")})
        assert check.violations == (
            "edge condition fails at pair a-b -> a-c",
            "edge condition fails at pair a-c -> a-b",
        )

    def test_graph_types_are_checked(self):
        # each used to fail as a bare AttributeError
        g = build({"a": (0.5, 0.5)})
        with pytest.raises(TypeError, match=r"^g2 must be a PFGraph, not NoneType$"):
            verify_morphism(g, None, ISO, {"a": "a"})
        with pytest.raises(TypeError, match=r"^g1 must be a PFGraph, not dict$"):
            verify_morphism({"a": PFDegree(0.5, 0.5)}, g, HOMO, {"a": "a"})

    @pytest.mark.parametrize(
        "mapping, message",
        [
            ({"a": "a", "b": "b", 1: "a", "z": "a"}, r"keys not in the source graph: \[1, 'z'\]"),
            ({"a": 1, "b": "z"}, r"values not in the target graph: \[1, 'z'\]"),
        ],
    )
    def test_unknown_vertex_messages_order_mixed_labels(self, mapping, message):
        g = build({"a": (0.5, 0.5), "b": (0.5, 0.5)})
        with pytest.raises(UnknownVertex, match=message):
            verify_morphism(g, g, HOMO, mapping)

    def test_partial_mapping_message_lists_labels_in_the_order_met(self):
        g = PFGraph({"c": PFDegree(0.5, 0.5), "a": PFDegree(0.5, 0.5), "b": PFDegree(0.5, 0.5)})
        with pytest.raises(UnknownVertex, match=r"not total on the source graph: \['c', 'a'\]$"):
            verify_morphism(g, g, HOMO, {"b": "b"})

    @pytest.mark.parametrize("kind", [HOMO, ISO, WEAK, COWEAK])
    def test_target_labels_that_do_not_compare(self, kind):
        # the mapping values stand for the target's labels but < cannot order
        # them, and the image of x-y is 2-1, against key order; a source edge
        # still finds its image
        d, e = PFDegree(0.5, 0.5), PFDegree(0.4, 0.6)
        g1 = PFGraph({"x": d, "y": d}, {("x", "y"): e})
        g2 = PFGraph({"2": d, "1": d}, {("2", "1"): e})
        mapping = {"x": Unordered("2"), "y": Unordered("1")}
        assert verify_morphism(g1, g2, kind, mapping).ok
        assert find_morphism(g1, g2, kind).witness == {"x": "1", "y": "2"}
        check = verify_morphism(g1, PFGraph(g2.vertices), kind, mapping)
        assert check.violations == ("edge condition fails at pair x-y -> 2-1",)

    def test_non_injective_map_rejected_for_bijective_kinds(self):
        g = build({"a": (0.5, 0.5), "b": (0.5, 0.5)})
        check = verify_morphism(g, g, ISO, {"a": "a", "b": "a"})
        assert not check.ok
        assert any("injective" in v for v in check.violations)


class TestIsomorphismAlgebra:
    def _shuffled_copy(self, g, seed):
        rng = random.Random(seed)
        labels = sorted(g.vertices)
        shuffled = labels[:]
        rng.shuffle(shuffled)
        return relabel_with(g, dict(zip(labels, ("m" + s for s in shuffled))))

    def test_equivalence_relation(self):
        for seed in range(20):
            g1 = generate(GenConfig(seed=seed, n_vertices=3 + seed % 4))
            g2 = self._shuffled_copy(g1, seed)
            g3 = self._shuffled_copy(g1, seed + 999)
            r12 = find_morphism(g1, g2, ISO)
            r23 = find_morphism(g2, g3, ISO)
            assert r12.found and r23.found
            inverse = {v: k for k, v in r12.witness.items()}
            assert verify_morphism(g2, g1, ISO, inverse).ok
            composed = {u: r23.witness[r12.witness[u]] for u in r12.witness}
            assert verify_morphism(g1, g3, ISO, composed).ok

    def test_bidirectional_weak_isomorphism_implies_isomorphism(self):
        for seed in range(20):
            g1 = generate(GenConfig(seed=seed, n_vertices=3 + seed % 4))
            g2 = self._shuffled_copy(g1, seed + 17)
            assert find_morphism(g1, g2, WEAK).found
            assert find_morphism(g2, g1, WEAK).found
            assert find_morphism(g1, g2, ISO).found

    def test_one_directional_weak_isomorphism(self):
        g1 = build({"a": (0.5, 0.5), "b": (0.6, 0.4)}, {("a", "b"): (0.3, 0.5)})
        g2 = build({"x": (0.5, 0.5), "y": (0.6, 0.4)}, {("x", "y"): (0.5, 0.5)})
        assert find_morphism(g1, g2, WEAK).found
        assert not find_morphism(g2, g1, WEAK).found
        assert not find_morphism(g1, g2, ISO).found


class TestComplementTransfer:
    def test_isomorphism_transfers_to_strong_complements(self):
        for seed in range(20):
            g1 = generate(GenConfig(seed=seed, n_vertices=2 + seed % 5, family="strong"))
            g2 = relabel(g1, "t")
            witness = find_morphism(g1, g2, ISO).witness
            assert witness is not None
            assert verify_morphism(
                strong_complement(g1), strong_complement(g2), ISO, witness
            ).ok
            assert find_morphism(strong_complement(g1), strong_complement(g2), ISO).found

    def test_non_isomorphic_strong_pairs_have_non_isomorphic_complements(self):
        for seed in range(10):
            g1 = generate(GenConfig(seed=seed, n_vertices=4, family="strong"))
            g2 = generate(GenConfig(seed=seed + 5_000, n_vertices=4, family="strong"))
            lhs = find_morphism(g1, g2, ISO).found
            rhs = find_morphism(strong_complement(g1), strong_complement(g2), ISO).found
            assert lhs == rhs

    def test_weak_isomorphism_transfers_to_strong_complements(self):
        for seed in range(20):
            g1 = generate(GenConfig(seed=seed, n_vertices=3 + seed % 3, family="strong"))
            g2 = _with_extra_bound_edge(relabel(g1, "t"), seed)
            assert classify(g2).is_strong
            assert find_morphism(g1, g2, WEAK).found
            # the transferred witness runs from the second complement back
            # into the first one
            assert find_morphism(
                strong_complement(g2), strong_complement(g1), WEAK
            ).found

    def test_coweak_isomorphism_gives_homomorphic_complements(self):
        for seed in range(20):
            g1 = generate(GenConfig(seed=seed, n_vertices=3 + seed % 3, family="strong"))
            g2 = relabel(g1, "t")
            assert find_morphism(g1, g2, COWEAK).found
            sc1, sc2 = strong_complement(g1), strong_complement(g2)
            assert (
                find_morphism(sc1, sc2, HOMO).found
                or find_morphism(sc2, sc1, HOMO).found
            )

    def test_coweak_transfer_fails_without_matching_edge_sets(self):
        # boundary of the transfer claim: a co-weak map into a graph with
        # extra edges leaves nothing for the complements to agree on
        g1 = build({"u": (0.5, 0.5), "v": (0.5, 0.5)})
        g2 = build({"a": (0.6, 0.4), "b": (0.6, 0.4)}, {("a", "b"): (0.6, 0.4)})
        assert classify(g1).is_strong and classify(g2).is_strong
        assert find_morphism(g1, g2, COWEAK).found
        sc1, sc2 = strong_complement(g1), strong_complement(g2)
        assert not find_morphism(sc1, sc2, HOMO).found
        assert not find_morphism(sc2, sc1, HOMO).found

    def test_isomorphism_transfers_to_complete_complements(self):
        for seed in range(20):
            g1 = generate(GenConfig(seed=seed, n_vertices=2 + seed % 4, family="complete"))
            g2 = relabel(g1, "t")
            witness = find_morphism(g1, g2, ISO).witness
            assert witness is not None
            assert verify_morphism(
                complete_complement(g1), complete_complement(g2), ISO, witness
            ).ok


def _with_extra_bound_edge(g, seed):
    """Add one absent pair back at its full bound; keeps a strong graph strong."""
    rng = random.Random(seed)
    absent = [key for key, _, _ in pair_rows(g) if key not in g.edges]
    if not absent:
        return g
    key = absent[rng.randrange(len(absent))]
    edges = dict(g.edges)
    edges[key] = g.pair_bound(key.lo, key.hi)
    return PFGraph(g.vertices, edges)


class TestPruningSoundness:
    def test_agrees_with_exhaustive_oracle_on_random_small_graphs(self):
        graphs = [
            generate(GenConfig(seed=s, n_vertices=1 + s % 4, quantize=1))
            for s in range(16)
        ]
        for g1, g2 in itertools.product(graphs, repeat=2):
            for kind in (HOMO, ISO, WEAK, COWEAK):
                expected = oracle_search(g1, g2, kind)
                report = find_morphism(g1, g2, kind)
                assert report.found == (expected is not None)
                assert report.witness == expected  # the lexicographically least one
                if report.found:
                    assert verify_morphism(g1, g2, kind, report.witness).ok


def _to_networkx(nx, g):
    nxg = nx.Graph()
    nxg.add_nodes_from((v, {"degree": d}) for v, d in g.vertices.items())
    nxg.add_edges_from((key.lo, key.hi, {"degree": d}) for key, d in g.edges.items())
    return nxg


def _relabelled_variants(g, rng):
    """Relabelled copies of g: as it is, with one pair changed, with one edge
    raised (mu up to its bound, nu halved), with one absent pair added at
    its bound and with one vertex raised.  Weak isomorphism from g survives
    a raised edge or an added pair, co-weak isomorphism an added pair or a
    raised vertex, so each kind meets found and not-found cases."""
    variants = [g]
    key, degree, bound = rng.choice(list(pair_rows(g)))
    changed = bound if degree != bound else PFDegree(bound.mu / 2, bound.nu / 2)
    variants.append(PFGraph(g.vertices, {**g.edges, key: changed}))
    if g.edges:
        key = rng.choice(sorted(g.edges))
        raised = PFDegree(g.pair_bound(*key).mu, g.edges[key].nu / 2)
        variants.append(PFGraph(g.vertices, {**g.edges, key: raised}))
    absent = [key for key, _, _ in pair_rows(g) if key not in g.edges]
    if absent:
        key = rng.choice(absent)
        variants.append(PFGraph(g.vertices, {**g.edges, key: g.pair_bound(*key)}))
    v = rng.choice(sorted(g.vertices))
    mu, nu = g.vertices[v]
    variants.append(PFGraph({**g.vertices, v: PFDegree(min(1.0, mu + 0.1), nu / 2)}, g.edges))
    labels = list(g.vertices)
    return [relabel_with(h, dict(zip(labels, rng.sample(labels, len(labels))))) for h in variants]


def test_isomorphism_agrees_with_networkx():
    # quantised degrees keep every present edge far from (0, 0), so networkx's
    # edge structure plus an edge match checks the same pair function
    nx = pytest.importorskip("networkx")
    from networkx.algorithms.isomorphism import GraphMatcher

    eps = tolerance()

    def match(a, b):
        return degrees_close(a["degree"], b["degree"], eps)

    def maps_into(s, t):
        return s.mu <= t.mu + eps and s.nu >= t.nu - eps

    # With equal vertex counts and every source edge's mu above eps, a weak
    # or co-weak isomorphism is a monomorphism: a source edge cannot land on
    # a non-edge, and target edges without a source edge are never checked.
    # GraphMatcher(G2, G1) looks for a subgraph of G2 monomorphic to G1 and
    # passes match arguments as (G2's, G1's), that is (target, source).
    relations = {
        WEAK: (degrees_close, maps_into),
        COWEAK: (maps_into, degrees_close),
    }

    def monomorphic(g, h, kind):
        vertex_rel, edge_rel = relations[kind]
        matcher = GraphMatcher(
            _to_networkx(nx, h),
            _to_networkx(nx, g),
            node_match=lambda t, s: vertex_rel(s["degree"], t["degree"]),
            edge_match=lambda t, s: edge_rel(s["degree"], t["degree"]),
        )
        return matcher.subgraph_is_monomorphic()

    rng = random.Random(6)
    found = dict.fromkeys((ISO, WEAK, COWEAK), 0)
    cases = dict.fromkeys((ISO, WEAK, COWEAK), 0)
    for n in range(5, 9):
        for family in FAMILIES:
            for seed in range(3):
                g = generate(GenConfig(seed=100 * n + seed, n_vertices=n, family=family, quantize=1))
                # the monomorphism check needs every source edge's mu above eps
                positive = PFGraph(g.vertices, {k: d for k, d in g.edges.items() if d.mu > eps})
                for kinds, source in (((ISO,), g), ((WEAK, COWEAK), positive)):
                    for h in _relabelled_variants(source, rng):
                        for kind in kinds:
                            report = find_morphism(source, h, kind)
                            if kind is ISO:
                                expected = nx.is_isomorphic(
                                    _to_networkx(nx, source), _to_networkx(nx, h),
                                    node_match=match, edge_match=match,
                                )
                            else:
                                expected = monomorphic(source, h, kind)
                            assert report.found == expected, (kind, source, h)
                            cases[kind] += 1
                            if report.found:
                                found[kind] += 1
                                assert verify_morphism(source, h, kind, report.witness).ok
    # the corpus meets both answers often for every kind
    assert all(40 <= found[kind] <= cases[kind] - 40 for kind in found), (found, cases)


# --- the least witness, against plain enumeration ---------------------------
# At a power-of-two tolerance, D0 and D1 lie exactly the tolerance apart in
# both components, so each of the two relations holds between them with
# equality in every direction: the candidate filter keeps every target and
# the search's value order alone decides which witness comes first.

BOUNDARY_EPS = 2.0 ** -20
D0 = PFDegree(0.5, 0.5)
D1 = PFDegree(0.5 + BOUNDARY_EPS, 0.5 - BOUNDARY_EPS)
EDGE_PALETTE = (PFDegree(0.5, 0.25), PFDegree(0.25, 0.5), PFDegree(0.25, 0.25))


@pytest.fixture
def boundary_tolerance():
    saved = tolerance()
    set_tolerance(BOUNDARY_EPS)
    yield
    set_tolerance(saved)


def _one_degree_graph(rng, labels, density):
    vertices = {v: rng.choice((D0, D1)) for v in labels}
    pairs = [p for p in itertools.combinations(labels, 2) if rng.random() < density]
    return PFGraph(vertices, {p: rng.choice(EDGE_PALETTE) for p in pairs})


def _first_passing(g1, g2, kind):
    """The first map in itertools order (product for homomorphism,
    permutations otherwise) that verify_morphism accepts, or None."""
    source, targets = sorted(g1.vertices), sorted(g2.vertices)
    if kind is HOMO:
        combos = itertools.product(targets, repeat=len(source))
    else:
        combos = itertools.permutations(targets)
    for combo in combos:
        mapping = dict(zip(source, combo))
        if verify_morphism(g1, g2, kind, mapping).ok:
            return mapping
    return None


def test_witness_is_the_first_passing_map_in_enumeration_order(boundary_tolerance):
    assert abs(D1.mu - D0.mu) == abs(D1.nu - D0.nu) == BOUNDARY_EPS
    rng = random.Random(17)
    answers = []
    for n, trials in ((5, 8), (6, 6), (7, 4)):
        sources = [f"s{i}" for i in range(n)]
        for _ in range(trials):
            g1 = _one_degree_graph(rng, sources, rng.choice((0.3, 0.5, 0.7)))
            # a relabelled copy with one pair changed, so that maps exist
            # but some pairs fail, with targets in an order the sources' is not
            targets = [f"t{i}" for i in rng.sample(range(n), n)]
            key = rng.choice(list(itertools.combinations(sources, 2)))
            edges = {**g1.edges, key: rng.choice(EDGE_PALETTE)}
            g2 = relabel_with(PFGraph(g1.vertices, edges), dict(zip(sources, targets)))
            # homomorphism into a smaller, denser graph: product over at most 5 targets
            small = _one_degree_graph(rng, [f"t{i}" for i in range(rng.randint(3, 10 - n))], 0.8)
            for kind, target in ((ISO, g2), (WEAK, g2), (COWEAK, g2), (HOMO, small)):
                expected = _first_passing(g1, target, kind)
                assert find_morphism(g1, target, kind).witness == expected, (kind, g1, target)
                answers.append(expected is not None)
    assert 0.25 * len(answers) < sum(answers) < 0.9 * len(answers), answers
