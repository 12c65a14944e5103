"""The morphism search finds the same witnesses as the search it replaced,
with the same attempts under homomorphism and at most as many under the
bijective kinds: under isomorphism the degree-profile refinement shortens
the candidate lists and the matching check can rule them out before the
first attempt, and under all three the component check can answer a search
that every source would start with every target as a candidate.  The
verifier reports the same violations as the verifier it replaced; both are
kept verbatim in ``reference_search.py``."""

import collections
import itertools
from decimal import Decimal
import math
import random
import tracemalloc

import pytest
from hypothesis import example, given, settings, strategies as st

from pfgraph import (
    GenConfig,
    MorphismKind,
    PFDegree,
    PFGError,
    PFGraph,
    ZERO_DEGREE,
    complement,
    find_morphism,
    generate,
    is_self_complementary,
    set_tolerance,
    tolerance,
    verify_morphism,
)

import pfgraph.morphism as morphism
from pfgraph.morphism import (
    _code_weights,
    _has_perfect_matching,
    _incident_codes,
    _incident_profiles,
    _profile_refined,
    _vertex_candidates,
)
from conftest import Unordered
from reference_builders import pair_rows
from reference_search import find_morphism as reference_find_morphism
from reference_search import verify_morphism as reference_verify_morphism
from test_acceptance import _corpus_n1, _corpus_n2, _corpus_n3, _corpus_n4

KINDS = tuple(MorphismKind)
HOMO = MorphismKind.HOMOMORPHISM
ISO = MorphismKind.ISOMORPHISM
WEAK = MorphismKind.WEAK_ISOMORPHISM
COWEAK = MorphismKind.COWEAK_ISOMORPHISM


def assert_same_reports(g1, g2):
    for kind in KINDS:
        report = find_morphism(g1, g2, kind)
        expected = reference_find_morphism(g1, g2, kind)
        # kind, found and witness, field for field; search_space too, except
        # under the bijective kinds, whose root checks (the degree-profile
        # refinement and the matching check under isomorphism, the component
        # check under all three) can only remove attempts from the same
        # search order
        assert report[:3] == expected[:3], (kind, g1, g2)
        if kind.bijective:
            assert report.search_space <= expected.search_space, (kind, g1, g2)
        else:
            assert report.search_space == expected.search_space, (kind, g1, g2)


def test_same_reports_on_a_slice_of_the_grid_corpora():
    n1, n2, n3, n4 = _corpus_n1(), _corpus_n2(), _corpus_n3(), _corpus_n4()
    for bucket in (n1, n2[::4], n3[::9], n4):
        for g1, g2 in itertools.product(bucket, repeat=2):
            assert_same_reports(g1, g2)
    small, large = n1[::2] + n2[::9], n3[::17] + n4[::5]
    for g1, g2 in itertools.chain(itertools.product(small, large), itertools.product(large, small)):
        assert_same_reports(g1, g2)


# Values that exercise every edge of the two relations at the default
# tolerance of 1e-9: NaN, a signed zero, ints, and values within eps of each
# other and of zero, beside values just beyond eps.
VALUES = (
    0.0, -0.0, 0, 1, 1.0, 0.25, 0.5, 0.75,
    5e-10, -5e-10, 2e-9,
    0.5 + 5e-10, 0.5 - 5e-10, 0.5 + 2e-9,
    math.nan,
)
degrees = st.builds(PFDegree, st.sampled_from(VALUES), st.sampled_from(VALUES))
# repeated vertex degrees give every source vertex several candidates
vertex_degrees = st.one_of(st.just(PFDegree(0.5, 0.5)), degrees)
# numerals sort as text, "10" before "2", unlike their numeric order
numeral_label_lists = st.lists(st.integers(-3, 12).map(str), unique=True, max_size=5)
label_lists = st.one_of(
    st.lists(st.text(alphabet="abcd", min_size=1, max_size=2), unique=True, max_size=5),
    numeral_label_lists,
)


@st.composite
def graphs(draw, labels=label_lists):
    vertices = {v: draw(vertex_degrees) for v in draw(labels)}
    pairs = list(itertools.combinations(vertices, 2))
    chosen = draw(st.lists(st.one_of(st.none(), degrees), min_size=len(pairs), max_size=len(pairs)))
    return PFGraph(vertices, {pair: d for pair, d in zip(pairs, chosen) if d is not None})


def _nudged(d, sign):
    return PFDegree(d.mu + sign * 5e-10, d.nu - sign * 5e-10)


@st.composite
def graph_pairs(draw):
    """Two unrelated graphs, or g1 and a relabelled copy with some degrees
    moved by half the tolerance, so that maps exist and sit near eps, and
    with one pair's edge sometimes added or removed."""
    g1 = draw(graphs())
    if draw(st.booleans()):
        return g1, draw(graphs())
    new = draw(st.permutations(draw(label_lists.filter(lambda ls: len(ls) >= len(g1.vertices)))))
    image = dict(zip(g1.vertices, new))
    sign = draw(st.sampled_from((-1, 0, 1)))
    vertices = {image[v]: _nudged(d, sign) if draw(st.booleans()) else d for v, d in g1.vertices.items()}
    edges = {(image[k.lo], image[k.hi]): _nudged(d, -sign) for k, d in g1.edges.items()}
    pairs = [key for key, _, _ in pair_rows(g1)]
    if pairs and draw(st.booleans()):
        key = draw(st.sampled_from(pairs))
        edge = draw(st.one_of(st.none(), degrees))
        pair = (image[key.lo], image[key.hi])
        if edge is None:
            edges.pop(pair, None)
        else:
            edges[pair] = edge
    return g1, PFGraph(vertices, edges)


@settings(max_examples=400, deadline=None)
@given(graph_pairs())
def test_same_reports_on_hypothesis_graphs(pair):
    assert_same_reports(*pair)


# Exact boundaries of the maps-into relation: source components equal to a
# target's ``mu + eps`` or ``nu - eps`` and one float step either side, at a
# power-of-two tolerance (the bound is exact) and at 1e-9 (the bound rounds),
# with int, signed-zero, NaN and infinite components on either side.
BOUNDARY_TARGET_VALUES = (0.5, 0.3, 0, 1, 2**53 + 1, -0.0, math.nan, math.inf, -math.inf)


def _boundary_values(c, eps):
    """c, its two maps-into bounds, and one float step either side of each."""
    values = [c]
    for bound in (c + eps, c - eps):
        values += [bound, math.nextafter(bound, math.inf), math.nextafter(bound, -math.inf)]
    return values


def _path(names, degrees):
    """The path through ``names`` in order, its edges at ``degrees`` and
    every vertex at (0.5, 0.5)."""
    return PFGraph(dict.fromkeys(names, PFDegree(0.5, 0.5)), dict(zip(zip(names, names[1:]), degrees)))


def _exact_boundary_pairs(eps, rng):
    """P2 into P2 with one component of the edge at or beside a bound and the
    other equal on both sides, then P3 into P3 with every edge component drawn
    from the bounds of the target values or the target values themselves."""
    pairs = []
    for c in BOUNDARY_TARGET_VALUES:
        for b in _boundary_values(c, eps):
            pairs.append((_path("ab", [PFDegree(b, 0.25)]), _path("xy", [PFDegree(c, 0.25)])))
            pairs.append((_path("ab", [PFDegree(0.25, b)]), _path("xy", [PFDegree(0.25, c)])))
    pool = [b for c in BOUNDARY_TARGET_VALUES for b in _boundary_values(c, eps)]
    for _ in range(150):
        s = [PFDegree(rng.choice(pool), rng.choice(pool)) for _ in range(2)]
        t = [PFDegree(*rng.choices(BOUNDARY_TARGET_VALUES, k=2)) for _ in range(2)]
        pairs.append((_path("abc", s), _path("xyz", t)))
    return pairs


def test_same_reports_and_checks_at_exact_maps_into_boundaries():
    saved = tolerance()
    rng = random.Random(22)
    found = collections.Counter()
    try:
        for eps in (2.0**-20, 1e-9):
            set_tolerance(eps)
            for g1, g2 in _exact_boundary_pairs(eps, rng):
                assert_same_reports(g1, g2)
                for kind in (HOMO, WEAK):
                    witness = find_morphism(g1, g2, kind).witness
                    found[kind, witness is not None] += 1
                    if witness is not None:
                        assert_same_checks(g1, g2, witness)
    finally:
        set_tolerance(saved)
    # the corpus has maps on both sides of the bounds under both kinds
    assert min(found.values()) >= 20 and len(found) == 4, found


# --- the verifier against the one it replaced ---------------------------------

def _checked(verify, g1, g2, kind, mapping):
    try:
        return verify(g1, g2, kind, mapping)
    except PFGError as exc:
        return type(exc), str(exc)


def assert_same_checks(g1, g2, mapping):
    for kind in KINDS:
        check = _checked(verify_morphism, g1, g2, kind, mapping)
        # ok and the violation tuple, in order, or the same error
        assert check == _checked(reference_verify_morphism, g1, g2, kind, mapping), (
            kind, g1, g2, mapping,
        )


def _grid_mappings(g1, g2, rng):
    """Each kind's witness, a random total map (often not injective) and a
    random injective map, which is partial when g1 has more vertices."""
    mappings = [find_morphism(g1, g2, kind).witness for kind in KINDS]
    targets = list(g2.vertices)
    if targets:
        mappings.append({u: rng.choice(targets) for u in g1.vertices})
        mappings.append(dict(zip(g1.vertices, rng.sample(targets, len(targets)))))
    return [m for m in mappings if m is not None]


def test_same_checks_on_a_slice_of_the_grid_corpora():
    rng = random.Random(11)
    n1, n2, n3, n4 = _corpus_n1(), _corpus_n2(), _corpus_n3(), _corpus_n4()
    small, large = n1[::2] + n2[::9], n3[::17] + n4[::5]
    pairs = itertools.chain(
        *(itertools.product(bucket, repeat=2) for bucket in (n1[::3], n2[::8], n3[::18], n4[::2])),
        itertools.product(small, large),
        itertools.product(large, small),
    )
    for g1, g2 in pairs:
        for mapping in _grid_mappings(g1, g2, rng):
            assert_same_checks(g1, g2, mapping)



@st.composite
def mapped_pairs(draw):
    """Two graphs and a map between them: a witness of some kind, a total
    map (for homomorphism, often not injective) or an injective one."""
    g1, g2 = draw(st.one_of(graph_pairs(), st.tuples(graphs(), graphs(numeral_label_lists))))
    targets = list(g2.vertices)
    if not targets:
        return g1, g2, {}
    how = draw(st.sampled_from(("witness", "total", "injective")))
    if how == "witness":
        witness = find_morphism(g1, g2, draw(st.sampled_from(KINDS))).witness
        if witness is not None:
            return g1, g2, witness
    if how == "injective" and len(targets) >= len(g1.vertices):
        return g1, g2, dict(zip(g1.vertices, draw(st.permutations(targets))))
    return g1, g2, {u: draw(st.sampled_from(targets)) for u in g1.vertices}


@settings(max_examples=400, deadline=None)
@given(mapped_pairs())
def test_same_checks_on_hypothesis_graphs(case):
    assert_same_checks(*case)


# --- attempt counts pinned from the search's first version ------------------

UNIFORM = PFDegree(0.6, 0.3)  # vertices and edges alike: every edge at its bound


def _uniform(names, pairs):
    return PFGraph({v: UNIFORM for v in names}, {pair: UNIFORM for pair in pairs})


def _clique(n):
    names = [f"v{i}" for i in range(n)]
    return _uniform(names, itertools.combinations(names, 2))


def _cycles(count, length):
    names, pairs = [], []
    for c in range(count):
        ring = [f"c{c}_{i:02d}" for i in range(length)]
        names += ring
        pairs += [(ring[i], ring[(i + 1) % length]) for i in range(length)]
    return _uniform(names, pairs)


def _k33():
    """K3,3: 3-regular, connected, 9 edges, no triangle."""
    return _uniform("abcxyz", itertools.product("abc", "xyz"))


def _prism():
    """The triangular prism: 3-regular, connected, 9 edges, two triangles."""
    return _uniform("abcxyz", map(tuple, "ab bc ac xy yz xz ax by cz".split()))


def _paley9():
    cells = [(r, c) for r in range(3) for c in range(3)]
    pairs = [
        (f"p{a}{b}", f"p{c}{d}")
        for i, (a, b) in enumerate(cells)
        for c, d in cells[i + 1:]
        if a == c or b == d
    ]
    return _uniform([f"p{r}{c}" for r, c in cells], pairs)


def test_clique_homomorphism_attempts_are_pinned():
    for n, attempts in ((5, 260), (6, 1_630), (7, 11_742)):
        report = find_morphism(_clique(n), _clique(n - 1), HOMO)
        assert (report.found, report.witness, report.search_space) == (False, None, attempts)


def test_cycle_union_attempts_are_pinned():
    c12, c3x4 = _cycles(1, 12), _cycles(4, 3)
    # the component check answers all six at the root; the search it spares
    # made 384 attempts under isomorphism, and 600 under the other two kinds
    # from C12 into the triangles
    for kind, backwards in itertools.product((ISO, WEAK, COWEAK), (False, True)):
        g1, g2 = (c3x4, c12) if backwards else (c12, c3x4)
        report = find_morphism(g1, g2, kind, cap=12)
        assert (report.found, report.search_space) == (False, 0), (kind, backwards)


def test_paley9_self_complementarity_attempts_are_pinned():
    p9 = _paley9()
    report = is_self_complementary(p9)
    assert report.found and report.search_space == 26
    assert report == reference_find_morphism(p9, complement(p9), ISO)


def test_k8_to_k7_homomorphism_attempts_are_pinned():
    report = find_morphism(_clique(8), _clique(7), HOMO)
    assert (report.found, report.witness, report.search_space) == (False, None, 95_900)


# --- guards on the integer-indexed search -----------------------------------

def _reversed(g):
    """g rebuilt from its edges given (later, earlier)."""
    return PFGraph(g.vertices, [((key.hi, key.lo), degree) for key, degree in g.edges.items()])


def test_same_reports_for_edges_given_in_reversed_orientation():
    n2, n3 = _corpus_n2(), _corpus_n3()
    graphs = n2[::7] + n3[::23] + [_cycles(1, 6), _cycles(2, 3)]
    for g1, g2 in itertools.product(graphs, repeat=2):
        if len(g1.vertices) <= len(g2.vertices):
            assert_same_reports(_reversed(g1), g2)
            assert_same_reports(g1, _reversed(g2))
            assert_same_reports(_reversed(g1), _reversed(g2))


def test_homomorphism_into_a_large_sparse_target_has_no_quadratic_table():
    """K3 into a 1,500-vertex target: a table of every target pair would
    hold 2.25 million cells (18 MB of pointers) before the first attempt."""
    rng = random.Random(5)
    names = [f"t{i:04d}" for i in range(1_500)]
    target = _uniform(names, [pair for pair in itertools.combinations(names, 2) if rng.random() < 0.05])
    k3 = _clique(3)
    tracemalloc.start()
    try:
        report = find_morphism(k3, target, HOMO)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report == reference_find_morphism(k3, target, HOMO)
    assert report.found
    assert peak < 2_000_000, peak


class _CountedEdges(dict):
    """An edge map that counts ``get`` calls per unordered pair."""

    def __init__(self, edges):
        super().__init__(edges)
        self.gets = collections.Counter()

    def get(self, key, default=None):
        self.gets[frozenset(key)] += 1
        return super().get(key, default)


def test_each_target_pair_is_read_once_per_call():
    """Once means one ``get`` call, of the pair in its canonical
    orientation, however often the search checks the pair."""
    cases = [
        (_clique(6), _clique(5), HOMO, 9),
        (_k33(), _prism(), WEAK, 6),
        (_k33(), _prism(), ISO, 6),
        (_paley9(), complement(_paley9()), ISO, 9),
    ]
    for g1, g2, kind, cap in cases:
        edges = _CountedEdges(g2.edges)
        counted = PFGraph._adopt(dict(g2.vertices), edges)
        report = find_morphism(g1, counted, kind, cap=cap)
        assert report == find_morphism(g1, g2, kind, cap=cap)
        assert report.search_space > len(g2.vertices)
        assert max(edges.gets.values()) == 1, (kind, edges.gets.most_common(1))


# --- the verifier's reads and its walk of the target edges ------------------

def test_verifier_reads_at_most_two_target_pairs_per_source_edge():
    """A sparse witness is checked by one walk of the source edges: no read of
    the n(n - 1)/2 pairs an isomorphism is defined on."""
    g1 = generate(GenConfig(seed=5, n_vertices=60, edge_probability=0.045))
    rng = random.Random(5)
    image = dict(zip(g1.vertices, rng.sample([f"t{k:02d}" for k in range(60)], 60)))
    g2 = PFGraph(
        {image[v]: d for v, d in g1.vertices.items()},
        {(image[k.lo], image[k.hi]): d for k, d in g1.edges.items()},
    )
    witness = find_morphism(g1, g2, ISO, cap=60).witness
    m = len(g1.edges)
    assert witness is not None and 60 < m < 120
    for kind in KINDS:
        edges = _CountedEdges(g2.edges)
        check = verify_morphism(g1, PFGraph._adopt(dict(g2.vertices), edges), kind, witness)
        assert check.ok, (kind, check)
        reads = sum(edges.gets.values())
        assert reads <= 2 * m, (kind, reads, m)


# the explicit cases' vertex degree D and edge degree E
D = PFDegree(0.5, 0.3)
E = PFDegree(0.4, 0.3)


def test_injective_map_with_an_unhit_target_edge_within_eps_of_zero_passes():
    g1 = PFGraph(dict.fromkeys("abc", D), {("a", "b"): E})
    g2 = PFGraph(dict.fromkeys("xyz", D), {("x", "y"): E, ("y", "z"): PFDegree(5e-10, 0.0)})
    mapping = {"a": "x", "b": "y", "c": "z"}
    assert verify_morphism(g1, g2, ISO, mapping).ok
    assert_same_checks(g1, g2, mapping)


def test_unhit_target_edges_interleave_with_failing_source_edges_in_key_order():
    g1 = PFGraph(dict.fromkeys("abcdef", D), {("a", "f"): E, ("c", "d"): E, ("a", "b"): E})
    g2 = PFGraph(
        dict.fromkeys("abcdef", D),
        {
            ("a", "f"): D,  # a failing source edge
            ("a", "b"): E,  # a passing one
            ("b", "c"): E,  # no source edge: fails
            ("c", "d"): PFDegree(0.4, 0.3 + 2e-9),  # failing, just beyond eps
            ("d", "e"): PFDegree(math.nan, 0.0),  # NaN is within eps of nothing
            ("e", "f"): PFDegree(0.0, -5e-10),  # within eps of (0, 0): passes
        },
    )
    mapping = {v: v for v in g1.vertices}
    assert verify_morphism(g1, g2, ISO, mapping).violations == tuple(
        f"edge condition fails at pair {p}-{q} -> {p}-{q}" for p, q in ("af", "bc", "cd", "de")
    )
    assert_same_checks(g1, g2, mapping)


def test_map_that_is_not_injective_checks_every_pair_onto_a_target_edge():
    # a-b, c-b and a-d, c-d all land on x-y, and the source edge a-c collapses onto x
    g1 = PFGraph(dict.fromkeys("abcde", D), {("a", "b"): E, ("a", "c"): E, ("d", "e"): E})
    g2 = PFGraph(dict.fromkeys("wxyz", D), {("x", "y"): E, ("w", "z"): E, ("y", "z"): E})
    mapping = {"a": "x", "b": "y", "c": "x", "d": "y", "e": "w"}
    assert verify_morphism(g1, g2, ISO, mapping).violations == (
        "mapping is not injective",
        "vertex counts differ, mapping cannot be a bijection",
        "edge condition fails at pair a-c -> x-x",
        "edge condition fails at pair a-d -> x-y",
        "edge condition fails at pair b-c -> y-x",
        "edge condition fails at pair c-d -> x-y",
        "edge condition fails at pair d-e -> y-w",
    )
    assert_same_checks(g1, g2, mapping)


def test_injective_map_into_a_larger_target():
    g1 = PFGraph(dict.fromkeys("abc", D), {("a", "b"): E})
    # z is no image: the edges from it and from image vertices to it are never read
    g2 = PFGraph(
        dict.fromkeys("wxyz", D),
        {("w", "x"): E, ("x", "y"): E, ("y", "z"): E, ("w", "z"): E},
    )
    for mapping in ({"a": "w", "b": "x", "c": "y"}, {"a": "x", "b": "w", "c": "z"}):
        assert_same_checks(g1, g2, mapping)
    assert verify_morphism(g1, g2, ISO, {"a": "w", "b": "x", "c": "y"}).violations == (
        "vertex counts differ, mapping cannot be a bijection",
        "edge condition fails at pair b-c -> x-y",
    )


class Shouted(str):
    """A str that equals and hashes as its text, but names itself in upper case."""

    def __str__(self):
        return self.upper()


def test_mapping_values_equal_to_target_labels_find_their_preimages():
    g2 = PFGraph(dict.fromkeys("wxyz", D), {("w", "x"): E, ("x", "y"): E, ("y", "z"): E})
    g1 = PFGraph(dict.fromkeys("abcd", D), {("a", "b"): E, ("c", "d"): E})
    # Shouted("x") stands for "x", and the unhit target edge x-y finds b through it
    mapping = {"a": "w", "b": Shouted("x"), "c": "y", "d": "z"}
    assert verify_morphism(g1, g2, ISO, mapping).violations == (
        "edge condition fails at pair b-c -> X-y",
    )
    assert_same_checks(g1, g2, mapping)
    # Unordered("y") stands for "y"; the reference orders target labels with
    # <, which refuses it, so it checks the plain map
    g1 = PFGraph(dict.fromkeys("abcd", D), {("a", "b"): E, ("b", "c"): E})
    for kind in KINDS:
        check = verify_morphism(g1, g2, kind, {"a": "w", "b": "x", "c": Unordered("y"), "d": "z"})
        assert check == reference_verify_morphism(g1, g2, kind, dict(zip("abcd", "wxyz")))
    assert verify_morphism(g1, g2, ISO, {"a": "w", "b": "x", "c": Unordered("y"), "d": "z"}).violations == (
        "edge condition fails at pair c-d -> y-z",
    )


# --- the degree-profile refinement under isomorphism --------------------------

def _uniform_pair(rng, n, move):
    """A uniform G(n, 1/2) graph and a relabelled copy, built as the benchmark's
    search pairs are; with ``move``, one edge u-w of the copy becomes u-x."""
    names = [f"v{k}" for k in range(n)]
    pairs = [p for p in itertools.combinations(names, 2) if rng.random() < 0.5]
    moved = list(pairs)
    if move:
        u, w = rng.choice(pairs)
        free = [x for x in names if x not in (u, w) and tuple(sorted((u, x))) not in pairs]
        if free:
            moved = [p for p in pairs if p != (u, w)] + [(u, rng.choice(free))]
    image = dict(zip(names, rng.sample(names, n)))
    return _uniform(names, pairs), _uniform(names, [(image[a], image[b]) for a, b in moved])


def _degree_sequence(g):
    return sorted(collections.Counter(itertools.chain.from_iterable(g.edges)).get(v, 0) for v in g.vertices)


def test_refined_isomorphism_agrees_with_networkx_on_uniform_pairs():
    nx = pytest.importorskip("networkx")

    def to_nx(g):
        h = nx.Graph()
        h.add_nodes_from(g.vertices)
        h.add_edges_from(g.edges)
        return h

    rng = random.Random(23)
    attempts = reference_attempts = 0
    found = cases = unmatched = 0
    for n in range(6, 11):
        for _ in range(8):
            for move in (False, True):
                g1, g2 = _uniform_pair(rng, n, move)
                report = find_morphism(g1, g2, ISO, cap=10)
                assert report.found == nx.is_isomorphic(to_nx(g1), to_nx(g2)), (g1, g2)
                if report.found:
                    assert verify_morphism(g1, g2, ISO, report.witness).ok
                if _degree_sequence(g1) != _degree_sequence(g2):
                    # as in the benchmark's moved-edge pairs: some profile is held by
                    # fewer targets than sources, so no matching exists
                    assert report.search_space == 0, (g1, g2)
                    unmatched += 1
                expected = reference_find_morphism(g1, g2, ISO, cap=10)
                assert report[:3] == expected[:3]
                attempts += report.search_space
                reference_attempts += expected.search_space
                found += report.found
                cases += 1
    assert 20 <= found <= cases - 20, (found, cases)
    assert unmatched >= 20, unmatched
    assert attempts < reference_attempts / 4, (attempts, reference_attempts)


def test_path_against_star_makes_no_attempt():
    """P4's middle vertices meet two edges and no vertex of K1,3 does."""
    p4 = _uniform("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    star = _uniform("wxyz", [("w", "x"), ("w", "y"), ("w", "z")])
    assert reference_find_morphism(p4, star, ISO).search_space > 0
    assert find_morphism(p4, star, ISO) == (ISO, False, None, 0)


def test_path_against_a_relabelled_path_tries_fewer_targets():
    p4 = _uniform("abcd", [("a", "b"), ("b", "c"), ("c", "d")])
    # the middle vertices sort first among the targets
    copy = _uniform("wxyz", [("y", "w"), ("w", "x"), ("x", "z")])
    report = find_morphism(p4, copy, ISO)
    expected = reference_find_morphism(p4, copy, ISO)
    assert report.witness == expected.witness == {"a": "y", "b": "w", "c": "x", "d": "z"}
    assert report.search_space < expected.search_space


def test_profiles_within_the_tolerance_at_one_position_still_match():
    """The copy's heavy edge is eps heavier, exactly, at a power-of-two
    tolerance: each end's profile differs at one sorted position by eps."""
    saved = tolerance()
    eps = 2.0 ** -20
    set_tolerance(eps)
    try:
        d, light = PFDegree(0.5, 0.5), PFDegree(0.25, 0.5)
        names = ("a", "b", "c", "d")
        g1 = PFGraph(
            dict.fromkeys(names, d),
            {("a", "b"): PFDegree(0.5, 0.5), ("b", "c"): light, ("c", "d"): light, ("a", "d"): light},
        )
        for shift, found in ((eps, True), (2 * eps, False)):
            heavy = PFDegree(0.5 - shift, 0.5)
            g2 = PFGraph(
                dict.fromkeys("wxyz", d),
                {("y", "z"): heavy, ("w", "z"): light, ("w", "x"): light, ("x", "y"): light},
            )
            report = find_morphism(g1, g2, ISO)
            expected = reference_find_morphism(g1, g2, ISO)
            assert report[:3] == expected[:3]
            assert report.found is found
            assert report.search_space <= expected.search_space
        assert report.search_space == 0  # beyond eps no target fits a or b
    finally:
        set_tolerance(saved)


NAN = math.nan
# Edge-value pools for the refinement at the default tolerance of 1e-9.  The
# first holds values pairwise more than eps apart, where the exact branch
# decides by tuple equality; each other one holds values that eps joins, or
# that are equal as dict keys and not within eps (a shared NaN, an infinity),
# where the eps chain decides.
REFINEMENT_POOLS = (
    (0.25, 0.5, 0.75, 0.3, 0.6),
    (0.3, 0.3 + 5e-10, math.nextafter(0.3, 1), math.nextafter(0.3, 0), 0.6),
    (1e-9, 2e-9, 0.5),  # gaps of exactly eps, from 0.0 and from each other
    (1, 1.0, 0, 0.0, -0.0, 0.5),
    (0.5, NAN, 0.25),
    (0.5, float("nan"), float("nan"), 0.25),
    (math.inf, -math.inf, 0.5),
    (2**53 + 1, float(2**53 + 1), 0.5),
)


def _profiles_by_brute_force(g):
    """Per vertex in sorted order: the sorted mu values of its pairs with
    every other vertex, then the sorted nu values, an absent pair as 0.0."""
    names = sorted(g.vertices)
    profiles = []
    for u in names:
        pairs = [g.edges.get((u, v) if u < v else (v, u), ZERO_DEGREE) for v in names if v != u]
        profiles.append(tuple(sorted(mu for mu, _ in pairs)) + tuple(sorted(nu for _, nu in pairs)))
    return profiles


@st.composite
def refinement_cases(draw):
    """Two graphs of one size with edge values from one pool (the second
    often a relabelled copy, so that profiles match), and candidate lists:
    every target for every source, or ascending subsets."""
    pool = draw(st.sampled_from(REFINEMENT_POOLS))
    n = draw(st.integers(1, 5))
    values = st.sampled_from(pool)
    edge = st.one_of(st.none(), st.builds(PFDegree, values, values))
    names = [f"s{i}" for i in range(n)]
    pairs = list(itertools.combinations(names, 2))
    chosen = draw(st.lists(edge, min_size=len(pairs), max_size=len(pairs)))
    g1 = PFGraph(dict.fromkeys(names, UNIFORM), {p: d for p, d in zip(pairs, chosen) if d is not None})
    if draw(st.booleans()):
        image = dict(zip(names, draw(st.permutations([f"t{i}" for i in range(n)]))))
        edges = {}
        for k, d in g1.edges.items():
            if draw(st.booleans()):  # the pair takes a fresh value, or no edge
                d = draw(edge)
            if d is not None:
                edges[image[k.lo], image[k.hi]] = d
        g2 = PFGraph(dict.fromkeys(image.values(), UNIFORM), edges)
    else:
        chosen = draw(st.lists(edge, min_size=len(pairs), max_size=len(pairs)))
        g2 = PFGraph(dict.fromkeys(names, UNIFORM), {p: d for p, d in zip(pairs, chosen) if d is not None})
    if draw(st.booleans()):
        candidates = [list(range(n)) for _ in range(n)]
    else:
        candidates = [[j for j in range(n) if draw(st.booleans())] for _ in range(n)]
    return g1, g2, candidates


@settings(max_examples=500, deadline=None)
@given(refinement_cases())
@example((PFGraph({"a": PFDegree(NAN, NAN)}), PFGraph({"a": PFDegree(NAN, NAN)}), [[0]]))
@example((
    PFGraph({"a": UNIFORM, "b": UNIFORM}, {("a", "b"): PFDegree(NAN, NAN)}),
    PFGraph({"x": UNIFORM, "y": UNIFORM}, {("x", "y"): PFDegree(NAN, NAN)}),
    [[0, 1], [0, 1]],
))
def test_profile_refinement_keeps_exactly_the_targets_within_eps_at_every_position(case):
    """Each source keeps, in order, the candidates whose profile is within
    eps of its own at every position; NaN is within eps of nothing."""
    g1, g2, candidates = case
    eps = tolerance()
    p1, p2 = _profiles_by_brute_force(g1), _profiles_by_brute_force(g2)
    expected = [
        [j for j in c if all(abs(a - b) <= eps for a, b in zip(p1[i], p2[j]))]
        for i, c in enumerate(candidates)
    ]
    sources, targets = sorted(g1.vertices.items()), sorted(g2.vertices.items())
    assert _profile_refined(candidates, g1, sources, g2, targets, eps) == expected


# --- profile codes: the exact branch's ints stand for its tuples ----------------

# 0.0 to 0.99 by 0.01, as floats read from one- and two-decimal literals: any
# two are more than eps apart, so every pair drawn from them is exact
DECIMALS = tuple(float(Decimal(k) / 100) for k in range(100))


def _profile_values(g1, g2):
    """The sorted distinct values the pair's profiles can hold, 0.0 among them."""
    values = {0.0}
    for _, d in itertools.chain(g1.edges.items(), g2.edges.items()):
        values.update(d)
    return sorted(values)


def _tuple_path(candidates, g1, sources, g2, targets):
    """The exact branch's candidate lists by profile tuple equality."""
    p1, p2 = _incident_profiles(g1, sources), _incident_profiles(g2, targets)
    return [[j for j in c if p1[i] == p2[j]] for i, c in enumerate(candidates)]


@st.composite
def exact_code_cases(draw):
    """Two graphs on n = 2..10 vertices with uniform vertex degrees and edge
    values either the uniform (0.6, 0.3) (n > 2) or drawn from at most n - 1
    of the two-decimal values, so at most n distinct values with 0.0; the second
    graph is often a relabelled copy with some pairs changed."""
    n = draw(st.integers(2, 10))
    if n > 2 and draw(st.booleans()):  # 0.0, 0.3 and 0.6
        edge = st.just(UNIFORM)
    else:
        pool = st.sampled_from(draw(st.lists(st.sampled_from(DECIMALS), min_size=1, max_size=n - 1, unique=True)))
        edge = st.builds(PFDegree, pool, pool)
    edge = st.one_of(st.none(), edge)
    names = [f"s{i}" for i in range(n)]
    pairs = list(itertools.combinations(names, 2))
    chosen = draw(st.lists(edge, min_size=len(pairs), max_size=len(pairs)))
    g1 = PFGraph(dict.fromkeys(names, UNIFORM), {p: d for p, d in zip(pairs, chosen) if d is not None})
    image = dict(zip(names, draw(st.permutations([f"t{i}" for i in range(n)]))))
    edges = {}
    for (a, b), d in zip(pairs, chosen):
        if draw(st.integers(0, 9)) == 0:  # the pair takes a fresh value, or no edge
            d = draw(edge)
        if d is not None:
            edges[image[a], image[b]] = d
    g2 = PFGraph(dict.fromkeys(image.values(), UNIFORM), edges)
    if draw(st.booleans()):
        candidates = [list(range(n)) for _ in range(n)]
    else:
        candidates = [[j for j in range(n) if draw(st.booleans())] for _ in range(n)]
    return g1, g2, candidates


@settings(max_examples=400, deadline=None)
@given(exact_code_cases())
def test_profile_codes_give_the_candidate_lists_of_profile_tuples(case):
    g1, g2, candidates = case
    sources, targets = sorted(g1.vertices.items()), sorted(g2.vertices.items())
    values = _profile_values(g1, g2)
    assert len(values) <= len(targets)  # the codes' guard holds on every case
    refined = _profile_refined(candidates, g1, sources, g2, targets, tolerance())
    assert refined == _tuple_path(candidates, g1, sources, g2, targets)
    # equal codes exactly where the profile tuples are equal, within and across the graphs
    weights = _code_weights(values, len(targets))
    codes = _incident_codes(g1, sources, weights) + _incident_codes(g2, targets, weights)
    profiles = _incident_profiles(g1, sources) + _incident_profiles(g2, targets)
    for (c, p), (d, q) in itertools.combinations(zip(codes, profiles), 2):
        assert (c == d) is (p == q), (p, q)


@pytest.fixture
def profile_paths(monkeypatch):
    """Counts the calls of the two profile builders, by name."""
    calls = collections.Counter()
    for name in ("_incident_codes", "_incident_profiles"):
        def counted(*args, _name=name, _f=getattr(morphism, name)):
            calls[_name] += 1
            return _f(*args)

        monkeypatch.setattr(morphism, name, counted)
    return calls


def _assert_code_path_as_tuples(g1, g2, expected_refined, calls):
    """The refinement of every candidate list runs on codes and gives the
    tuple path's lists, which are ``expected_refined``."""
    sources, targets = sorted(g1.vertices.items()), sorted(g2.vertices.items())
    everything = [list(range(len(targets))) for _ in sources]
    refined = _profile_refined(everything, g1, sources, g2, targets, tolerance())
    assert calls == {"_incident_codes": 2}
    assert refined == _tuple_path(everything, g1, sources, g2, targets) == expected_refined


def test_explicit_zero_components_pad_like_a_single_edge(profile_paths):
    """(0.0, 0.3) and (0.3, 0.0) at a, padded with an absent pair's zeros,
    sort to the mu list (0.0, 0.3) and the nu list (0.0, 0.3), as one
    (0.3, 0.3) edge and an absent pair do at x and y."""
    g1 = PFGraph(dict.fromkeys("abc", UNIFORM), {("a", "b"): PFDegree(0.0, 0.3), ("a", "c"): PFDegree(0.3, 0.0)})
    g2 = PFGraph(dict.fromkeys("xyz", UNIFORM), {("x", "y"): PFDegree(0.3, 0.3)})
    _assert_code_path_as_tuples(g1, g2, [[0, 1], [], []], profile_paths)
    assert find_morphism(g1, g2, ISO) == (ISO, False, None, 0)


@pytest.mark.parametrize(
    "source, target",
    [
        (PFDegree(-0.0, 0.3), PFDegree(0.0, 0.3)),
        (PFDegree(0.5, -0.0), PFDegree(0.5, 0.0)),
        (PFDegree(1, 0), PFDegree(1.0, 0.0)),
        (PFDegree(0, 1), PFDegree(0.0, 1.0)),
    ],
    ids=repr,
)
def test_equal_values_of_another_sign_or_type_take_one_code(source, target, profile_paths):
    """-0.0 beside 0.0 and an int beside its float are one value as dict
    keys and as tuple elements, so they take one rank and one weight."""
    half = PFDegree(0.5, 0.5)
    g1 = PFGraph(dict.fromkeys("abc", UNIFORM), {("a", "b"): source, ("b", "c"): half})
    g2 = PFGraph(dict.fromkeys("xyz", UNIFORM), {("y", "z"): target, ("x", "y"): half})
    _assert_code_path_as_tuples(g1, g2, [[2], [1], [0]], profile_paths)
    report = find_morphism(g1, g2, ISO)
    assert report == (ISO, True, {"a": "z", "b": "y", "c": "x"}, 3)
    assert report[:3] == reference_find_morphism(g1, g2, ISO)[:3]


@pytest.mark.parametrize(
    "edges, expected",
    [({}, [[0, 1], [0, 1]]), ({("a", "b"): PFDegree(0.5, 0.5)}, [[0, 1], [0, 1]])],
    ids=["no edge", "one edge"],
)
def test_two_vertices_take_the_code_path(edges, expected, profile_paths):
    """n = 2 holds one or two distinct values, 0.0 with at most one more."""
    g1 = PFGraph(dict.fromkeys("ab", UNIFORM), edges)
    g2 = PFGraph(dict.fromkeys("xy", UNIFORM), {("x", "y"): d for d in edges.values()})
    _assert_code_path_as_tuples(g1, g2, expected, profile_paths)
    assert find_morphism(g1, g2, ISO) == (ISO, True, {"a": "x", "b": "y"}, 2)


def test_more_distinct_values_than_vertices_take_the_tuple_path(profile_paths):
    """Five distinct values on four vertices: the codes would be longer than
    the tuples they stand for, so the exact branch keeps the tuples, and the
    reports are those the tuple lookup gave before the codes."""
    path = {("a", "b"): 0.1, ("b", "c"): 0.2, ("c", "d"): 0.4}
    g1 = PFGraph(dict.fromkeys("abcd", UNIFORM), {k: PFDegree(mu, 0.3) for k, mu in path.items()})
    copy = {("y", "w"): 0.1, ("w", "x"): 0.2, ("x", "z"): 0.4}
    g2 = PFGraph(dict.fromkeys("wxyz", UNIFORM), {k: PFDegree(mu, 0.3) for k, mu in copy.items()})
    copy[("x", "z")] = 0.5
    g3 = PFGraph(dict.fromkeys("wxyz", UNIFORM), {k: PFDegree(mu, 0.3) for k, mu in copy.items()})
    assert len(_profile_values(g1, g2)) == 5
    assert find_morphism(g1, g2, ISO) == (ISO, True, {"a": "y", "b": "w", "c": "x", "d": "z"}, 4)
    assert find_morphism(g1, g3, ISO) == (ISO, False, None, 0)
    assert profile_paths == {"_incident_profiles": 4}


# --- the set-up: shared vertex tests and the root matching check --------------

def _twin(x):
    """A value equal to x as a dict key, of the other type or sign where one
    exists: 1 and 1.0, 0.0 and -0.0; a NaN is its own twin."""
    if isinstance(x, int):
        return float(x)
    if x == 0:
        return -x
    return int(x) if x.is_integer() else x


@settings(max_examples=300, deadline=None)
@given(
    st.lists(degrees, min_size=1, max_size=5),
    st.lists(degrees, max_size=6),
    st.booleans(),
    st.randoms(use_true_random=False),
)
def test_equal_source_degrees_share_the_per_source_candidate_list(base, target_degrees, equality, rng):
    twins = [PFDegree(_twin(mu), _twin(nu)) for mu, nu in base]
    fresh_nan = [PFDegree(float("nan"), nu) for _, nu in base[:1]]
    degrees_ = base + twins + fresh_nan
    rng.shuffle(degrees_)
    sources = [(f"s{i}", d) for i, d in enumerate(degrees_)]
    targets = [(f"t{j}", d) for j, d in enumerate(target_degrees)]
    eps = tolerance()
    expected = [
        [
            j
            for j, (_, (tmu, tnu)) in enumerate(targets)
            if (
                abs(smu - tmu) <= eps and abs(snu - tnu) <= eps
                if equality
                else smu <= tmu + eps and snu >= tnu - eps
            )
        ]
        for _, (smu, snu) in sources
    ]
    candidates = _vertex_candidates(sources, targets, equality, eps)
    assert candidates == expected
    first: dict = {}
    for (_, d), c in zip(sources, candidates):
        assert c is first.setdefault(d, c)  # one vertex test per distinct degree


def _matchable_by_brute_force(candidates, n2):
    return any(
        all(v in c for v, c in zip(image, candidates))
        for image in itertools.permutations(range(n2), len(candidates))
    )


def test_matching_check_agrees_with_brute_force():
    rng = random.Random(18)
    outcomes = collections.Counter()
    for n in range(1, 8):
        for _ in range(150):
            density = rng.choice((0.2, 0.35, 0.5))
            candidates = [[j for j in range(n) if rng.random() < density] for _ in range(n)]
            expected = _matchable_by_brute_force(candidates, n)
            assert _has_perfect_matching(candidates, n) is expected, candidates
            outcomes[expected, all(candidates)] += 1
    # most lists leave every source a candidate, and some of those still have no matching
    assert outcomes[False, True] >= 50 and outcomes[True, True] >= 50, outcomes


def test_path_plus_two_against_path_plus_one_makes_no_attempt():
    """P3 plus two isolated vertices against P4 plus one: every source keeps
    a candidate after the refinement, but the two isolated sources share the
    one isolated target."""
    g1 = _uniform("abcde", [("a", "b"), ("b", "c")])
    g2 = _uniform("vwxyz", [("v", "w"), ("w", "x"), ("x", "y")])
    eps = tolerance()
    sources, targets = sorted(g1.vertices.items()), sorted(g2.vertices.items())
    candidates = _vertex_candidates(sources, targets, True, eps)
    refined = _profile_refined(candidates, g1, sources, g2, targets, eps)
    assert refined == [[0, 3], [1, 2], [0, 3], [4], [4]]
    expected = reference_find_morphism(g1, g2, ISO)
    assert expected.search_space > 0
    report = find_morphism(g1, g2, ISO)
    assert report == (ISO, False, None, 0)
    assert report[:3] == expected[:3]


# --- the component check at the root of the bijective searches ---------------

BIJECTIVE = (ISO, WEAK, COWEAK)


def _blocks(pieces, rng):
    """A disjoint union of uniform pieces on v0, v1, ...: per (k, cycle), a
    cycle or a clique on k vertices, with the labels shuffled by ``rng`` so
    that a piece's vertices do not sit together in label order."""
    n = sum(k for k, _ in pieces)
    names = [f"v{i}" for i in rng.sample(range(n), n)]
    pairs, start = [], 0
    for k, cycle in pieces:
        piece = names[start:start + k]
        start += k
        if cycle:
            pairs += zip(piece, piece[1:] + piece[:1])
        else:
            pairs += itertools.combinations(piece, 2)
    return _uniform(names, pairs)


def _piece(most):
    """One piece of at most ``most`` vertices: its size k, and whether it is
    a cycle (only from three vertices up) or a clique."""
    return st.integers(1, most).flatmap(
        lambda k: st.tuples(st.just(k), st.booleans() if k >= 3 else st.just(False))
    )


@st.composite
def block_unions(draw):
    """Two unions of uniform cycles and cliques on the same number of
    vertices, at most 8: the second has the first's pieces under other
    labels, or, as often, pieces of its own."""

    def pieces(left):
        drawn = []
        while left:
            drawn.append(draw(_piece(left)))
            left -= drawn[-1][0]
        return drawn

    n = draw(st.integers(0, 8))
    first = pieces(n)
    second = first if draw(st.booleans()) else pieces(n)
    rng = random.Random(draw(st.integers(0, 2**32)))
    return _blocks(first, rng), _blocks(second, rng)


@settings(max_examples=300, deadline=None)
@given(block_unions())
def test_cycle_and_clique_unions_match_the_reference(pair):
    g1, g2 = pair
    for kind in BIJECTIVE:
        report = find_morphism(g1, g2, kind)
        expected = reference_find_morphism(g1, g2, kind)
        assert report[:3] == expected[:3], (kind, g1, g2)
        assert report.search_space <= expected.search_space, (kind, g1, g2)


def test_cycle_against_triangles_is_answered_at_the_root():
    """C6 against two triangles.  From C6 the forced component outgrows the
    triangles; from the triangles, no component outgrows C6, but the six
    forced edges must then cover C6's six, and the component sizes differ.
    Under isomorphism both directions run both ways round."""
    c6, two_c3 = _cycles(1, 6), _cycles(2, 3)
    assert morphism._component_sizes(c6.vertices, c6.edges) == [6]
    assert morphism._component_sizes(two_c3.vertices, two_c3.edges) == [3, 3]
    for g1, g2 in ((c6, two_c3), (two_c3, c6)):
        for kind in BIJECTIVE:
            expected = reference_find_morphism(g1, g2, kind)
            assert not expected.found and expected.search_space > 0
            assert find_morphism(g1, g2, kind) == (kind, False, None, 0)


def _triangles_joined_by(degree):
    """Two triangles and one edge at ``degree`` between them."""
    g = _cycles(2, 3)
    return PFGraph(g.vertices, {**g.edges, ("c0_00", "c1_00"): degree})


def test_an_edge_within_eps_of_zero_is_not_forced():
    """The joining edge is stored but relates to an absent pair under every
    bijective kind, so it may map onto one: the map onto two triangles
    exists, in both directions, though the stored edges form one component."""
    tiny = PFDegree(5e-10, 0.0)
    joined, two_c3 = _triangles_joined_by(tiny), _cycles(2, 3)
    assert morphism._forced_keys(joined.edges, True, tolerance()) == list(two_c3.edges)
    assert morphism._forced_keys(joined.edges, False, tolerance()) == list(two_c3.edges)
    for g1, g2 in ((joined, two_c3), (two_c3, joined)):
        for kind in BIJECTIVE:
            report = find_morphism(g1, g2, kind)
            assert report.found, (kind, g1, g2)
            assert report == reference_find_morphism(g1, g2, kind)


def test_an_edge_holding_nan_is_forced():
    """NaN relates to nothing, so the joining edge needs a stored target
    edge: its component of six outgrows the triangles under every kind, and
    under isomorphism a NaN edge in the target rules the search out too."""
    for degree in (PFDegree(math.nan, 0.3), PFDegree(0.0, math.nan)):
        joined, two_c3 = _triangles_joined_by(degree), _cycles(2, 3)
        assert len(morphism._forced_keys(joined.edges, True, tolerance())) == 7
        assert len(morphism._forced_keys(joined.edges, False, tolerance())) == 7
        for kind in BIJECTIVE:
            expected = reference_find_morphism(joined, two_c3, kind)
            assert not expected.found and expected.search_space > 0
            assert find_morphism(joined, two_c3, kind) == (kind, False, None, 0)
        expected = reference_find_morphism(two_c3, joined, ISO)
        assert not expected.found and expected.search_space > 0
        assert find_morphism(two_c3, joined, ISO) == (ISO, False, None, 0)


def test_isomorphism_checks_the_components_both_ways():
    """C6 against two triangles joined by an edge within eps of (0, 0): C6's
    six edges fit the joined graph's component of six, and the edge counts
    differ, six against seven; but the triangles' six forced edges must
    cover C6's six, and the component sizes differ.  The profiles match
    within eps, so only the rule with the graphs swapped answers."""
    c6, joined = _cycles(1, 6), _triangles_joined_by(PFDegree(5e-10, 0.0))
    expected = reference_find_morphism(c6, joined, ISO)
    assert not expected.found and expected.search_space > 0
    assert find_morphism(c6, joined, ISO) == (ISO, False, None, 0)


@pytest.mark.parametrize("names", ["", "a"])
def test_graphs_of_no_vertex_or_one_pass_the_component_check(names):
    g1, g2 = _uniform(names, []), _uniform(names.upper(), [])
    for kind in BIJECTIVE:
        report = find_morphism(g1, g2, kind)
        assert report.found and report == reference_find_morphism(g1, g2, kind)
        assert report.witness == dict(zip(names, names.upper()))
