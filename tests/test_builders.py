"""The graph builders and pair passes against their earlier bodies in ``reference_builders``.

``generate``, the complements, ``half_strong_construction`` and the
products write keys and degrees as bare tuples, ``union`` and ``join`` keep
their inputs' keys, and all of them hand their maps over once; ``classify``
stops its pair scan after the row that settles the completeness flags and
walks the edges for a strength witness still missing; the complements, the
classification, the sum identities and ``half_strong_construction`` loop
over the rows of the pair scan, and they and ``graphs_close`` compare
inline.  Each must give what the reference gives: the
same vertices and edges (compared by repr, so NaN, -0.0 and the key and
degree types count), the same edge order, the same rendered bytes, the
same sum report to the bit, the same verdict, or the same exception class
and message.
"""

import hashlib
import math
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_builders as ref
from pfgraph import (
    FAMILIES,
    ConstraintViolation,
    GenConfig,
    MalformedDocument,
    PFDegree,
    PFGraph,
    cartesian_product,
    classify,
    complement,
    complete_complement,
    composition,
    generate,
    graphs_close,
    half_strong_construction,
    join,
    render,
    strong_complement,
    strong_sum_identity,
    sum_identity,
    union,
)
from reference_codec import boundary_specs, door


def outcome(build, *args):
    """("graph", vertices, edges, rendered) or ("raise", class, message) for build(*args).

    ``rendered`` is the text, or ("raise", class, message) for the
    MalformedDocument that render raises on an entry that ``parse`` rejects
    unchecked: a degree outside [0, 1] beyond the tolerance, NaN included.
    """
    try:
        g = build(*args)
    except Exception as exc:  # the reference's own exception is the expected value
        return ("raise", type(exc), str(exc))
    assert type(g) is PFGraph and type(g.vertices) is dict and type(g.edges) is dict
    try:
        rendered = render(g)
    except MalformedDocument as exc:
        rendered = ("raise", type(exc), str(exc))
    return ("graph", repr(list(g.vertices.items())), repr(list(g.edges.items())), rendered)


def assert_same(build, reference, *args):
    assert outcome(build, *args) == outcome(reference, *args)


@st.composite
def hand_built(draw, labels=st.sampled_from("abcdef")):
    """A graph from ``boundary_specs`` through ``door``: values at and near 0, 1
    and the edge bounds, NaN and -0.0, with the dangling edges the constructor
    refuses left out; in half the graphs some vertices are (0, 0)."""
    vertices, edges = draw(boundary_specs(labels))
    zeroed = draw(st.sets(st.sampled_from(sorted(vertices)))) if vertices and draw(st.booleans()) else ()
    return door(
        {v: PFDegree(0.0, 0.0) if v in zeroed else PFDegree(*d) for v, d in vertices.items()},
        [(key, PFDegree(*d)) for key, d in edges],
    )


@settings(deadline=None, max_examples=300)
@given(
    seed=st.integers(0, 2**32),
    n=st.integers(1, 30),
    p=st.sampled_from([0, 0.3, 1]),
    family=st.sampled_from(FAMILIES),
    quantize=st.sampled_from([None, 1, 2]),
)
def test_generate_matches_reference(seed, n, p, family, quantize):
    cfg = GenConfig(seed=seed, n_vertices=n, edge_probability=p, family=family, quantize=quantize)
    assert_same(generate, ref.generate, cfg)


# sha256 of render(generate(cfg)) for GenConfig(seed=2018, n_vertices=12,
# edge_probability=0.5, family=family, quantize=quantize), taken from the
# per-pair constructor code that ``reference_builders.generate`` keeps
RENDER_DIGESTS = {
    ("general", None): "fd18682a1bdfbff2e947cfc91eb1be20bb0cf921b64428d29a2668aed531adc7",
    ("general", 2): "5c616f8b78ea18293ded79ca3a081e3b19bd8e6d07ca8dc9cc397dc268591d3e",
    ("strong", None): "4d00aa49a48bc2181b98fc6e8ec43cad253878aa5f1c715f5fdbb4cc9b41f13d",
    ("strong", 2): "146d66b88950184d283499ad12d825f27582eeca1e59371f30faeca4c9ce44f3",
    ("complete", None): "b75948762be220e3cc1c1f690339930497242502286d51edb473fc9165c10c20",
    ("complete", 2): "09f980ac71d87e1cac95efd0e9d5501f9ec79a83a398c99c0e976c05e63b4eee",
    ("half_strong", None): "afab7e7e48e573415c93bf457b2e6f6bc9426e0f5766f0b68c5addca30c4dcd8",
    ("half_strong", 2): "6e7cbe7451822afc7a0feb683f4349855ad9a38572e94f44efb151a72e31a56c",
}


@pytest.mark.parametrize("family, quantize", RENDER_DIGESTS)
def test_generate_render_digest_is_pinned(family, quantize):
    cfg = GenConfig(seed=2018, n_vertices=12, edge_probability=0.5, family=family, quantize=quantize)
    digest = hashlib.sha256(render(generate(cfg)).encode("utf-8")).hexdigest()
    assert digest == RENDER_DIGESTS[family, quantize]


@settings(deadline=None, max_examples=300)
@given(g=hand_built())
def test_complements_match_reference(g):
    assert_same(complement, ref.complement, g)
    for force in (False, True):
        assert_same(strong_complement, ref.strong_complement, g, force)
        assert_same(complete_complement, ref.complete_complement, g, force)


def test_complements_of_generated_graphs_match_reference():
    for seed in range(40):
        g = generate(GenConfig(seed=seed, n_vertices=1 + seed % 14, family=FAMILIES[seed % 4],
                               quantize=(None, 1, 2)[seed % 3]))
        assert_same(complement, ref.complement, g)
        assert_same(strong_complement, ref.strong_complement, g)
        assert_same(complete_complement, ref.complete_complement, g)


@settings(deadline=None, max_examples=300)
@given(g=hand_built())
def test_sum_reports_match_reference_to_the_bit(g):
    assert repr(sum_identity(g)) == repr(ref.sum_identity(g))
    assert repr(strong_sum_identity(g)) == repr(ref.strong_sum_identity(g))


def test_sum_reports_of_generated_graphs_match_reference_to_the_bit():
    # n up to 40 gives 780 terms per total, so any change in summation order shows
    for seed in range(40):
        g = generate(GenConfig(seed=seed, n_vertices=1 + seed, family=FAMILIES[seed % 4],
                               quantize=(None, 1, 2)[seed % 3]))
        assert repr(sum_identity(g)) == repr(ref.sum_identity(g))
        assert repr(strong_sum_identity(g)) == repr(ref.strong_sum_identity(g))


# a power of two: a value moved by it, by half of it or by twice it mostly moves exactly,
# so many differences land on the tolerance itself, where <= and < disagree
CLOSE_EPS = 2.0**-20
NEAR_VALUES = st.sampled_from([CLOSE_EPS, -CLOSE_EPS, CLOSE_EPS / 2, 2 * CLOSE_EPS, math.nan])


@st.composite
def near_pairs(draw):
    """(g, h): a hand-built graph and a copy with one change at about the tolerance.

    The copy differs by one vertex (a dropped one with its edges), one vertex
    or edge value moved, one edge dropped, or one new edge whose degree is
    near (0, 0); a moved value may become NaN.
    """
    g = draw(hand_built())
    vertices, edges = dict(g.vertices), dict(g.edges)
    change = draw(st.sampled_from(["move_vertex", "move_edge", "new_edge", "drop_edge",
                                   "add_vertex", "drop_vertex", "none"]))
    if change == "add_vertex":
        vertices[draw(st.sampled_from("abcdefg"))] = PFDegree(0.5, 0.5)
    elif change == "drop_vertex" and vertices:
        dropped = draw(st.sampled_from(sorted(vertices)))
        del vertices[dropped]
        edges = {key: d for key, d in edges.items() if dropped not in key}
    elif change in ("move_vertex", "move_edge"):
        table = vertices if change == "move_vertex" else edges
        if table:
            where = draw(st.sampled_from(sorted(table)))
            moved = list(table[where])
            moved[draw(st.integers(0, 1))] += draw(NEAR_VALUES)
            table[where] = PFDegree(*moved)
    elif change == "drop_edge" and edges:
        del edges[draw(st.sampled_from(sorted(edges)))]
    elif change == "new_edge":
        ends = sorted(vertices)
        pairs = [(u, v) for u in ends for v in ends if u < v and (u, v) not in edges]
        if pairs:
            edges[draw(st.sampled_from(pairs))] = PFDegree(draw(NEAR_VALUES), draw(NEAR_VALUES))
    return g, PFGraph(vertices, edges)


def _moved(mu, nu):
    """Pairs of graphs that differ in one vertex, one shared edge or one edge present on
    one side only, by (mu, nu)."""
    d, e = PFDegree(0.5, 0.5), PFDegree(0.25, 0.5)
    path = PFGraph({"a": d, "b": d}, {("a", "b"): e})
    return [
        (PFGraph({"a": d}), PFGraph({"a": PFDegree(0.5 + mu, 0.5 + nu)})),
        (path, PFGraph(path.vertices, {("a", "b"): PFDegree(0.25 + mu, 0.5 + nu)})),
        (PFGraph(path.vertices), PFGraph(path.vertices, {("a", "b"): PFDegree(mu, nu)})),
    ]


# each component of each kind of value off by exactly the tolerance, either way
EXACT_CASES = [
    pair
    for move in ((CLOSE_EPS, 0.0), (0.0, CLOSE_EPS), (-CLOSE_EPS, 0.0), (0.0, -CLOSE_EPS))
    for pair in _moved(*move)
]


@pytest.mark.parametrize("pair", EXACT_CASES)
def test_graphs_close_holds_at_exactly_the_tolerance(pair):
    g, h = pair
    for a, b in ((g, h), (h, g)):
        assert graphs_close(a, b, CLOSE_EPS) is ref.graphs_close(a, b, CLOSE_EPS) is True


@settings(deadline=None, max_examples=500)
@given(pair=near_pairs(), eps=st.sampled_from([None, CLOSE_EPS]))
def test_graphs_close_matches_reference(pair, eps):
    g, h = pair
    for a, b in ((g, h), (h, g)):
        assert graphs_close(a, b, eps) is ref.graphs_close(a, b, eps)
    assert graphs_close(g, g, eps) is ref.graphs_close(g, g, eps)


@settings(deadline=None, max_examples=300)
@given(g=hand_built())
def test_half_strong_construction_matches_reference(g):
    assert_same(half_strong_construction, ref.half_strong_construction, g.vertices)


@settings(deadline=None, max_examples=300)
@given(g=hand_built())
def test_classify_matches_reference(g):
    got, want = classify(g), ref.classify(g)
    assert got == want
    assert list(got.witnesses) == list(want.witnesses)


_HALF = PFDegree(0.5, 0.5)


def _late_strength_failures(mu_pair, nu_pair):
    """Vertices a-e at (0.5, 0.5): the absent pair a-b gives the three
    completeness witnesses in the first row, every other pair is an edge at
    its bound except mu_pair (mu 0.25) and nu_pair (nu 0.25), either None."""
    edges = {}
    for u, v in (("a", "c"), ("a", "d"), ("a", "e"), ("b", "c"), ("b", "d"), ("b", "e"),
                 ("c", "d"), ("c", "e"), ("d", "e")):
        mu = 0.25 if (u, v) == mu_pair else 0.5
        nu = 0.25 if (u, v) == nu_pair else 0.5
        edges[(u, v)] = PFDegree(mu, nu)
    return PFGraph(dict.fromkeys("abcde", _HALF), edges)


@pytest.mark.parametrize(
    "mu_pair, nu_pair, order",
    [
        # both failures lie past the first row, where the scan stops
        (("b", "d"), ("b", "c"), ["is_nu_strong", "is_mu_strong"]),
        (("b", "c"), ("c", "e"), ["is_mu_strong", "is_nu_strong"]),
        (("c", "d"), ("c", "d"), ["is_mu_strong", "is_nu_strong"]),
        (None, ("d", "e"), ["is_nu_strong"]),
        # one in the first row, found by the scan, one past it
        (("c", "e"), ("a", "d"), ["is_nu_strong", "is_mu_strong"]),
        (("a", "e"), ("b", "c"), ["is_mu_strong", "is_nu_strong"]),
        (None, None, []),
    ],
)
def test_classify_finds_strength_witnesses_past_the_completeness_witnesses(mu_pair, nu_pair, order):
    g = _late_strength_failures(mu_pair, nu_pair)
    got, want = classify(g), ref.classify(g)
    assert got == want
    assert list(got.witnesses) == list(want.witnesses)
    completeness = ["is_complete", "is_complete_mu_strong", "is_complete_nu_strong"]
    assert list(got.witnesses) == order + completeness + (["is_strong"] if order else [])
    if mu_pair is not None:
        assert got.witnesses["is_mu_strong"] == got.witnesses["is_strong"] == mu_pair
    if nu_pair is not None:
        assert got.witnesses["is_nu_strong"] == nu_pair


def test_classify_names_the_vertex_label_objects_of_a_late_witness():
    # the vertex labels are built at run time, so each is another object than
    # the equal literal in the edge keys; the first row (vertex v0, no edges)
    # stops the scan, and the edge walk names the pair by the vertex labels,
    # as the scan would have
    g = PFGraph(dict.fromkeys(("".join(("v", str(i))) for i in range(4)), _HALF),
                {("v1", "v2"): PFDegree(0.25, 0.5), ("v1", "v3"): _HALF, ("v2", "v3"): PFDegree(0.5, 0.25)})
    assert all(label is not key_label for label in g.vertices for key in g.edges for key_label in key)
    got, want = classify(g), ref.classify(g)
    assert got == want and list(got.witnesses) == list(want.witnesses)
    assert got.witnesses["is_mu_strong"] == ("v1", "v2") and got.witnesses["is_nu_strong"] == ("v2", "v3")
    labels = {label: label for label in g.vertices}
    for flag in ("is_mu_strong", "is_nu_strong", "is_strong"):
        assert all(label is labels[label] for label in got.witnesses[flag])
    assert got.as_dict()["witnesses"]["is_mu_strong"] == ["v1", "v2"]


def test_classify_walks_the_edges_only_after_a_scan_that_stopped_early(monkeypatch):
    # a complete graph has no completeness witness, so the scan reads every
    # pair, strength included, and leaves nothing to the walk
    def walk(*args):
        raise AssertionError("the edge walk ran")

    monkeypatch.setattr(sys.modules["pfgraph.classify"], "_walk_strength_witnesses", walk)
    g = generate(GenConfig(seed=3, n_vertices=20, family="complete"))
    assert classify(g) == ref.classify(g) and classify(g).is_complete
    with pytest.raises(AssertionError, match="the edge walk ran"):
        classify(_late_strength_failures(("c", "d"), None))


@pytest.mark.parametrize("seed", range(6))
def test_classify_matches_reference_on_strong_graphs_moved_off_their_bounds(seed):
    # a strong graph stops the scan at its first absent pair; edges moved off
    # their bounds late in key order leave the strength witnesses to the walk
    g = generate(GenConfig(seed=seed, n_vertices=30, edge_probability=0.5, family="strong"))
    keys = sorted(g.edges)
    for moved in ([keys[-1]], [keys[-3], keys[-7]], keys[len(keys) // 2:]):
        edges = dict(g.edges)
        for i, key in enumerate(moved):
            mu, nu = edges[key]
            edges[key] = PFDegree(mu / 2, nu) if (i + seed) % 3 else PFDegree(mu, nu / 2)
        h = PFGraph(g.vertices, edges)
        got, want = classify(h), ref.classify(h)
        assert got == want and list(got.witnesses) == list(want.witnesses)
    assert classify(g) == ref.classify(g) and classify(g).is_strong


@pytest.mark.parametrize(
    "edge",
    [
        PFDegree(0.5, 0.5),  # at its bound in both components: the pair drops out
        PFDegree(0.5 - 1e-12, 0.5 + 1e-12),  # within the tolerance of it: clamped, dropped
        PFDegree(0.5, 0.2),  # mu clamped to exact zero, nu kept
        PFDegree(0.2, 0.5 + 1e-12),
        PFDegree(0.0, 0.5),  # a zero component reads as absent: its bound comes back
        PFDegree(1e-12, 0.3),
    ],
)
def test_complement_clamps_an_edge_at_its_bound(edge):
    g = PFGraph({"a": _HALF, "b": _HALF, "c": PFDegree(0.8, 0.1)}, {("a", "b"): edge, ("a", "c"): _HALF})
    assert_same(complement, ref.complement, g)
    h = complement(g)
    if edge[0] >= 0.5 - 1e-9 and edge[1] >= 0.5 - 1e-9:
        assert ("a", "b") not in h.edges
    else:
        assert repr(h.edges[("a", "b")]) == repr(ref.complement(g).edges[("a", "b")])


@pytest.mark.parametrize(
    "edge, message",
    [
        (PFDegree(0.9, 0.1), "edge degree 0.9 exceeds its bound 0.2; complement of an invalid graph"),
        (PFDegree(0.1, 0.75), "edge degree 0.75 exceeds its bound 0.5; complement of an invalid graph"),
    ],
)
def test_complement_raises_for_an_edge_past_its_bound(edge, message):
    g = PFGraph({"a": PFDegree(0.2, 0.5), "b": PFDegree(0.2, 0.5)}, {("a", "b"): edge})
    with pytest.raises(ConstraintViolation) as raised:
        complement(g)
    assert str(raised.value) == message
    assert_same(complement, ref.complement, g)


def test_sum_totals_equal_the_reference_totals():
    # == on the floats themselves, at sizes where any change in the order of
    # the additions moves the last bits
    for seed in range(12):
        g = generate(GenConfig(seed=seed, n_vertices=20 + 5 * seed, family=FAMILIES[seed % 4]))
        for got, want in ((sum_identity(g), ref.sum_identity(g)),
                          (strong_sum_identity(g), ref.strong_sum_identity(g))):
            assert got == want
            assert (got.lhs_mu, got.lhs_nu, got.rhs_mu, got.rhs_nu) == (
                want.lhs_mu, want.lhs_nu, want.rhs_mu, want.rhs_nu)


# "a" is a prefix of "a " and "a!b", and " " and "!" sort below ")" and ",", so
# "(a,a)" and "(a,a )" come out in the opposite order to "a" and "a ", as do "(a,b)" and "(a!b,b)"
PRODUCT_LABELS = st.sampled_from(["a", "a ", "a!b", "b", "c"])


# 0.0 tied with -0.0 in mu (beside a nonzero nu) and in nu (beside a nonzero mu):
# only the tie rule decides which zero a degree keeps, and render shows the sign;
# every edge joins a label to one that composes in the opposite order
SIGNED_ZEROS = PFGraph(
    {"a": PFDegree(0.5, 0.0), "a!": PFDegree(0.4, -0.0), "b": PFDegree(0.0, 0.5), "b ": PFDegree(-0.0, 0.5)},
    {
        ("a", "a!"): PFDegree(0.3, 0.0),
        ("b", "b "): PFDegree(-0.0, 0.5),
        ("a!", "b"): PFDegree(0.0, 0.5),
        ("a", "b "): PFDegree(-0.0, 0.5),
    },
)


@settings(deadline=None, max_examples=300)
@given(g1=hand_built(PRODUCT_LABELS), g2=hand_built(PRODUCT_LABELS | st.just("x,y")))
@example(g1=SIGNED_ZEROS, g2=SIGNED_ZEROS)
def test_products_match_reference(g1, g2):
    for g, h in ((g1, g2), (g2, g1)):
        assert_same(cartesian_product, ref.cartesian_product, g, h)
        assert_same(composition, ref.composition, g, h)


def test_products_of_generated_graphs_match_reference():
    for seed in range(12):
        g1, g2 = (generate(GenConfig(seed=2 * seed + i, n_vertices=1 + seed % 6, family=FAMILIES[seed % 4],
                                     quantize=(None, 1)[seed % 2])) for i in (0, 1))
        assert_same(cartesian_product, ref.cartesian_product, g1, g2)
        assert_same(composition, ref.composition, g1, g2)


# an invalid pair whose shared edge combines to exactly (0, 0), and a join whose
# cross edge between a (0, 0) vertex and a vertex with nu 0 is exactly (0, 0)
ZERO_UNION = (
    PFGraph({"a": PFDegree(0.5, 0.5), "b": PFDegree(0.5, 0.5)}, {("a", "b"): PFDegree(-1e-10, 0.0)}),
    PFGraph({"a": PFDegree(0.5, 0.5), "b": PFDegree(0.5, 0.5)}, {("b", "a"): PFDegree(0.0, 0.25)}),
)
ZERO_JOIN = (PFGraph({"a": PFDegree(0.0, 0.0)}), PFGraph({"g": PFDegree(0.5, 0.0)}))


@settings(deadline=None, max_examples=300)
@given(g=hand_built(), overlapping=hand_built(st.sampled_from("defghi")),
       disjoint=hand_built(st.sampled_from("ghijkl")))
@example(g=ZERO_UNION[0], overlapping=ZERO_UNION[1], disjoint=ZERO_JOIN[1])
@example(g=ZERO_JOIN[0], overlapping=ZERO_UNION[1], disjoint=ZERO_JOIN[1])
def test_union_and_join_match_reference(g, overlapping, disjoint):
    for h in (overlapping, disjoint):
        for a, b in ((g, h), (h, g)):
            assert_same(union, ref.union, a, b)
            assert_same(join, ref.join, a, b)
