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

The builders also store an input's own degree object wherever a degree
picks both of its floats, by identity, and a new one only otherwise (the
reference builds every degree anew).  The tests here check that rule on
generated graphs, with the counts of new degrees it leaves on graphs of the
benchmark's sizes, and pin the rendered bytes of each builder's output as
taken before the rule; the ±0.0 ties and NaN vertices of the examples are
where picking by ``==`` instead of ``is`` would show.
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
from conftest import relabel
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


# a NaN component in each position of a vertex and of an edge, and two pairs
# without an edge whose bound takes one float from each end beside a tie of
# 0.0 with -0.0: d-e keeps d's 0.0 and e's nu, f-g g's mu and f's 0.0.  Every
# comparison with NaN is false and a tie goes to the first operand, so only
# the order of the comparisons decides which float a degree keeps.  The
# degrees of d-e and f-g are == to e's and g's, but hold the other zero: a
# degree shared by == instead of by identity shows the wrong sign
TIES_AND_NAN = PFGraph(
    {
        "a": PFDegree(math.nan, 0.5),
        "b": PFDegree(0.5, math.nan),
        "c": PFDegree(0.5, 0.25),
        "d": PFDegree(0.0, 0.25),
        "e": PFDegree(-0.0, 0.5),
        "f": PFDegree(0.5, 0.0),
        "g": PFDegree(0.25, -0.0),
    },
    {("a", "c"): PFDegree(0.25, 0.5), ("b", "c"): PFDegree(0.5, math.nan), ("a", "b"): PFDegree(math.nan, 0.25)},
)


@settings(deadline=None, max_examples=300)
@given(g=hand_built())
@example(g=SIGNED_ZEROS)
@example(g=TIES_AND_NAN)
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


@settings(deadline=None, max_examples=300)
@given(g1=hand_built(PRODUCT_LABELS), g2=hand_built(PRODUCT_LABELS | st.just("x,y")))
@example(g1=SIGNED_ZEROS, g2=SIGNED_ZEROS)
@example(g1=TIES_AND_NAN, g2=SIGNED_ZEROS)
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
# the cross pairs a-g and b-h take one float from each side beside a tie of 0.0
# with -0.0, as TIES_AND_NAN's d-e and f-g do
SIGNED_JOIN = (
    PFGraph({"a": PFDegree(0.0, 0.25), "b": PFDegree(0.5, 0.0)}),
    PFGraph({"g": PFDegree(-0.0, 0.5), "h": PFDegree(0.25, -0.0)}),
)


@settings(deadline=None, max_examples=300)
@given(g=hand_built(), overlapping=hand_built(st.sampled_from("defghi")),
       disjoint=hand_built(st.sampled_from("ghijkl")))
@example(g=ZERO_UNION[0], overlapping=ZERO_UNION[1], disjoint=ZERO_JOIN[1])
@example(g=ZERO_JOIN[0], overlapping=ZERO_UNION[1], disjoint=ZERO_JOIN[1])
@example(g=SIGNED_JOIN[0], overlapping=ZERO_UNION[1], disjoint=SIGNED_JOIN[1])
def test_union_and_join_match_reference(g, overlapping, disjoint):
    for h in (overlapping, disjoint):
        for a, b in ((g, h), (h, g)):
            assert_same(union, ref.union, a, b)
            assert_same(join, ref.join, a, b)


def test_a_dominated_pair_without_an_edge_shares_the_endpoint_degree():
    # u has the lower mu and the higher nu, so its own degree is the bound of
    # each of its pairs: the complements store u's object, not an equal copy
    du = PFDegree(0.25, 0.75)
    g = PFGraph({"u": du, "v": PFDegree(0.5, 0.5), "w": PFDegree(0.75, 0.25)}, {("v", "w"): PFDegree(0.25, 0.25)})
    for h in (complement(g), complete_complement(g, force=True)):
        assert h.edges[("u", "v")] is du and h.edges[("u", "w")] is du
    # an edge's complement subtracts, so its degree is a new object
    edge = complement(g).edges[("v", "w")]
    assert edge == (0.25, 0.25) and all(edge is not d for d in (*g.vertices.values(), *g.edges.values()))


def degrees_of(g):
    return (*g.vertices.values(), *g.edges.values())


def assert_shares(out, inputs):
    """Each degree in out whose two floats are, by identity, the two floats of
    a degree in inputs is one of those objects."""
    picks: dict = {}
    for d in inputs:
        picks.setdefault((id(d[0]), id(d[1])), set()).add(id(d))
    for d in out:
        assert id(d) in picks.get((id(d[0]), id(d[1])), {id(d)})


@pytest.mark.parametrize("seed", range(8))
def test_builders_share_every_input_degree_they_pick_whole(seed):
    family, quantize = FAMILIES[seed % 4], (None, 1)[seed % 2]
    g = generate(GenConfig(seed=seed, n_vertices=9, family=family, quantize=quantize))
    h = generate(GenConfig(seed=seed + 50, n_vertices=4, family=family, quantize=quantize))
    renamed = relabel(h, "w")
    for out in (complement(g), strong_complement(g, force=True), complete_complement(g, force=True)):
        assert_shares(degrees_of(out), degrees_of(g))
    for a, b in ((g, h), (h, g)):
        for out in (cartesian_product(a, b), composition(a, b)):
            assert_shares(degrees_of(out), degrees_of(a) + degrees_of(b))
    assert_shares(degrees_of(join(g, renamed)), degrees_of(g) + degrees_of(renamed))
    for at_bound in ("strong", "complete"):
        s = generate(GenConfig(seed=seed, n_vertices=12, family=at_bound, quantize=quantize))
        assert_shares(s.edges.values(), s.vertices.values())


def new_degrees(out, *inputs):
    """How many degree objects of out no input holds."""
    held = {id(d) for g in inputs for degrees in (g.vertices, g.edges) for d in degrees.values()}
    return len({id(d) for degrees in (out.vertices, out.edges) for d in degrees.values()} - held)


def _fresh(cfg):
    """generate(cfg) with every degree a new object, as a document's are."""
    g = generate(cfg)
    return PFGraph({v: PFDegree(*d) for v, d in g.vertices.items()}, {k: PFDegree(*d) for k, d in g.edges.items()})


def test_builders_make_few_new_degrees_on_large_graphs():
    # graphs of the benchmark's large-graph pool; without sharing, each output
    # degree was new: 28,680 for the complement, 12,187 for the strong
    # complement and 26,388 for the composition.  The bounds are the counts
    # with sharing, so any lost share fails
    g = _fresh(GenConfig(seed=240_006, n_vertices=240, edge_probability=0.5))
    assert new_degrees(complement(g), g) <= 19_842
    s = _fresh(GenConfig(seed=220_505, n_vertices=220, edge_probability=0.5, family="strong"))
    assert new_degrees(strong_complement(s), s) <= 4_647
    g1, g2 = (_fresh(GenConfig(seed=18_002 + i, n_vertices=18, edge_probability=0.5)) for i in (0, 1))
    assert new_degrees(composition(g1, g2), g1, g2) <= 4_965


def builder_outputs(quantize):
    """name: a call of that builder on fixed generated graphs."""
    def gen(seed, n, family="general"):
        return generate(GenConfig(seed=seed, n_vertices=n, family=family, quantize=quantize))

    g, h, strong = gen(2018, 12), gen(2019, 12), gen(2018, 12, "strong")
    small, other = gen(2018, 5), gen(2019, 4)
    renamed = relabel(h, "w")
    return {
        "complement": lambda: complement(g),
        "strong_complement": lambda: strong_complement(strong),
        "complete_complement": lambda: complete_complement(g, force=True),
        "cartesian_product": lambda: cartesian_product(small, other),
        "composition": lambda: composition(small, other),
        "union": lambda: union(g, h),
        "join": lambda: join(g, renamed),
    }


# sha256 of render(...) of each builder's output in ``builder_outputs``, taken
# from the builders as they were before they shared input degree objects
BUILDER_DIGESTS = {
    ("complement", None): "378a212ccb28b186e2486330c0de297d719c6420bcf4a5246c084dd215085db5",
    ("strong_complement", None): "118ae48368b53a2a7826404af743d6a60591c7564bd1e97a96e13b060864cc47",
    ("complete_complement", None): "7f66f6ed219d2d93cfe51b7ffbd648e31a38a1184fb031e6e7cda89c1a95c2dd",
    ("cartesian_product", None): "a06ad5ed1ed06dac8ac2174aa9dc3d1afeb0b26966349379e8e39abbfe6d27e1",
    ("composition", None): "9c91df7d111168d4a2f02c536bf541303a7cedc3b7f06e756d4e9a1a6b13411a",
    ("union", None): "7a1486caced29b36256b4e1a284987365e3e02a59e06f946c3dad9b637e90aaa",
    ("join", None): "390f399196394f146d4097b2507a5002c8a7ae6ab7dd57bad3dc78ad754f372b",
    ("complement", 2): "9309b7c7aab9181bed5d8e1a3fe850ce8dcc2cea961be5121c3e2a367f24c2a5",
    ("strong_complement", 2): "5637377597d25c466c68db0236d63d80822c13fea05d6446194eeee24ab6d7a3",
    ("complete_complement", 2): "7558b02ca04f665af6f94682ad5d835623b132fc099123738ee2e9b98dd83b64",
    ("cartesian_product", 2): "1349c1808b32d67f98878510ac1fe2ab25ad9712986090d3f3710f8f6176fc87",
    ("composition", 2): "65f94655795c6dd4009b3c89a4d9b09970d46895f12b69c216c956a83e44ba3e",
    ("union", 2): "67f704266a7c05877764cbf75daebfdd7ccc1e62b115df49bbe0a98e464d9d3a",
    ("join", 2): "90aaa42035cddae1985202b0efb59b3d4a42e0dd9d0325bac01d3c2d2e98ed57",
}


@pytest.mark.parametrize("name, quantize", BUILDER_DIGESTS)
def test_builder_render_digest_is_pinned(name, quantize):
    digest = hashlib.sha256(render(builder_outputs(quantize)[name]()).encode("utf-8")).hexdigest()
    assert digest == BUILDER_DIGESTS[name, quantize]
