"""Classification flags, sum identities, and self-complementarity."""

import pytest

from pfgraph import (
    GenConfig,
    NotComplete,
    NotStrong,
    PFDegree,
    SearchCapExceeded,
    classify,
    complement,
    find_morphism,
    generate,
    graphs_close,
    half_strong_construction,
    is_self_complementary,
    MorphismKind,
    strong_sum_identity,
    sum_identity,
    validate,
    verify_morphism,
)

from pfgraph.classify import SELF_COMPLEMENT_VARIANTS

from conftest import build


class TestClassify:
    def test_strong_path(self, strong_path):
        profile = classify(strong_path)
        assert profile.is_strong
        assert profile.is_mu_strong and profile.is_nu_strong
        assert not profile.is_complete
        assert profile.witnesses["is_complete"] == ("a", "c")

    def test_square_cycle_is_not_strong(self, square_cycle):
        profile = classify(square_cycle)
        assert not profile.is_strong
        assert profile.witnesses["is_mu_strong"] == ("a", "b")

    @pytest.mark.parametrize(
        "family, seed, expected",
        [
            # taken from the scan that yielded keys: a strong graph scans every
            # pair, and its is_complete witness is not the first pair
            ("strong", 1, [("is_complete_mu_strong", ("v0", "v1")),
                           ("is_complete_nu_strong", ("v0", "v1")),
                           ("is_complete", ("v1", "v11"))]),
            ("strong", 2, [("is_complete_mu_strong", ("v0", "v1")),
                           ("is_complete_nu_strong", ("v0", "v1")),
                           ("is_complete", ("v0", "v10"))]),
            ("general", 1, [(flag, ("v0", "v1")) for flag in (
                "is_mu_strong", "is_nu_strong", "is_complete", "is_complete_mu_strong",
                "is_complete_nu_strong", "is_strong")]),
        ],
    )
    def test_witnesses_are_plain_pairs_of_the_vertex_labels(self, family, seed, expected):
        g = generate(GenConfig(seed=seed, n_vertices=12, edge_probability=0.5, family=family))
        witnesses = classify(g).witnesses
        assert list(witnesses.items()) == expected
        labels = {label: label for label in g.vertices}
        for pair in witnesses.values():
            assert type(pair) is tuple and len(pair) == 2
            assert all(label is labels[label] for label in pair)

    def test_single_vertex_satisfies_everything(self):
        profile = classify(build({"a": (0.5, 0.5)}))
        assert profile.is_mu_strong and profile.is_nu_strong and profile.is_strong
        assert profile.is_complete
        assert profile.witnesses == {}

    def test_two_vertex_complete(self):
        g = build({"x": (0.5, 0.5), "y": (0.3, 0.2)}, {("x", "y"): (0.3, 0.5)})
        profile = classify(g)
        assert profile.is_complete and profile.is_strong
        # both equalities hold, so neither strict variant applies
        assert not profile.is_complete_mu_strong
        assert not profile.is_complete_nu_strong

    def test_complete_mu_strong(self):
        g = build({"a": (0.6, 0.8), "b": (0.7, 0.5)}, {("a", "b"): (0.6, 0.5)})
        profile = classify(g)
        assert profile.is_complete_mu_strong
        assert not profile.is_complete
        assert profile.is_mu_strong and not profile.is_nu_strong

    def test_complete_nu_strong(self):
        g = build({"a": (0.6, 0.8), "b": (0.7, 0.5)}, {("a", "b"): (0.3, 0.8)})
        profile = classify(g)
        assert profile.is_complete_nu_strong
        assert not profile.is_complete
        assert profile.is_nu_strong and not profile.is_mu_strong

    def test_flags_are_monotone_consistent(self):
        for seed in range(50):
            family = ("general", "strong", "complete")[seed % 3]
            g = generate(GenConfig(seed=seed, n_vertices=1 + seed % 5, family=family))
            profile = classify(g)
            if profile.is_complete:
                assert profile.is_strong
            if profile.is_strong:
                assert profile.is_mu_strong and profile.is_nu_strong

    def test_generated_families_classify_as_labeled(self):
        for seed in range(30):
            strong = generate(GenConfig(seed=seed, n_vertices=2 + seed % 4, family="strong"))
            complete = generate(GenConfig(seed=seed, n_vertices=2 + seed % 4, family="complete"))
            assert classify(strong).is_strong
            assert classify(complete).is_complete

    def test_product_of_nonstrong_factors_can_be_strong(self):
        # factor necessity needs real slack: when one factor hides its mu
        # deficiency behind tiny memberships in the other and vice versa for
        # nu, the product comes out strong although neither factor is
        g1 = build(
            {"u1": (0.1, 0.95), "v1": (0.1, 0.95)}, {("u1", "v1"): (0.05, 0.95)}
        )
        g2 = build(
            {"u2": (0.03, 0.9), "v2": (0.04, 0.9)}, {("u2", "v2"): (0.03, 0.5)}
        )
        assert validate(g1).ok and validate(g2).ok
        assert not classify(g1).is_strong and not classify(g2).is_strong
        from pfgraph import cartesian_product

        assert classify(cartesian_product(g1, g2)).is_strong


class TestSumIdentity:
    def test_balanced_triangle_sums(self, balanced_sums_triangle):
        report = sum_identity(balanced_sums_triangle)
        assert report.lhs_mu == pytest.approx(0.55, abs=1e-9)
        assert report.rhs_mu == pytest.approx(0.55, abs=1e-9)
        assert report.lhs_nu == pytest.approx(1.0, abs=1e-9)
        assert report.rhs_nu == pytest.approx(1.0, abs=1e-9)
        assert report.holds_mu and report.holds_nu

    def test_edgeless_pair_fails_the_identity(self):
        report = sum_identity(build({"x": (0.4, 0.4), "y": (0.4, 0.4)}))
        assert report.lhs_mu == 0.0
        assert report.rhs_mu == pytest.approx(0.2, abs=1e-9)
        assert not report.holds_mu

    def test_half_bound_graphs_satisfy_the_identity(self):
        for seed in range(30):
            g = generate(GenConfig(seed=seed, n_vertices=2 + seed % 5, family="half_strong"))
            report = sum_identity(g)
            assert report.holds_mu and report.holds_nu

    def test_self_complementary_graphs_satisfy_the_identity(self):
        for seed in range(20):
            g = generate(GenConfig(seed=seed, n_vertices=2 + seed % 4, family="half_strong"))
            assert is_self_complementary(g).found
            report = sum_identity(g)
            assert report.holds_mu and report.holds_nu

    def test_identity_alone_does_not_imply_self_complementarity(self, balanced_sums_triangle):
        report = sum_identity(balanced_sums_triangle)
        assert report.holds_mu and report.holds_nu
        assert not is_self_complementary(balanced_sums_triangle).found


class TestStrongSumIdentity:
    def test_complete_two_vertex_graph(self):
        g = build({"x": (0.5, 0.5), "y": (0.3, 0.2)}, {("x", "y"): (0.3, 0.5)})
        report = strong_sum_identity(g)
        assert report.lhs_mu == pytest.approx(0.3, abs=1e-9)
        assert report.rhs_mu == pytest.approx(0.3, abs=1e-9)
        assert report.lhs_nu == pytest.approx(0.5, abs=1e-9)
        assert report.rhs_nu == pytest.approx(0.5, abs=1e-9)
        assert report.holds_mu and report.holds_nu

    def test_strong_path_fails_without_all_pairs(self, strong_path):
        report = strong_sum_identity(strong_path)
        assert report.lhs_mu == pytest.approx(0.7, abs=1e-9)
        assert report.rhs_mu == pytest.approx(0.9, abs=1e-9)
        assert not report.holds_mu

    def test_edgeless_graph_holds_only_with_zero_bounds(self):
        zero_bounds = build({"x": (0.0, 0.0), "y": (0.4, 0.0)})
        report = strong_sum_identity(zero_bounds)
        assert report.holds_mu and report.holds_nu
        nonzero = build({"x": (0.4, 0.4), "y": (0.4, 0.4)})
        assert not strong_sum_identity(nonzero).holds_mu

    def test_complete_graphs_satisfy_the_full_bound_sums(self):
        for seed in range(20):
            g = generate(GenConfig(seed=seed, n_vertices=2 + seed % 4, family="complete"))
            report = strong_sum_identity(g)
            assert report.holds_mu and report.holds_nu

    def test_strong_self_complementary_graph_can_violate_full_bound_sums(self):
        # boundary case worth pinning: this full-bound path maps onto its
        # zero-or-bound complement, yet half its pairs carry no edge, so the
        # edge totals reach only half the all-pairs bound totals
        deg = (0.6, 0.4)
        path = build(
            {"a": deg, "b": deg, "c": deg, "d": deg},
            {("a", "b"): deg, ("b", "c"): deg, ("c", "d"): deg},
        )
        assert classify(path).is_strong
        assert is_self_complementary(path, "strong").found
        report = strong_sum_identity(path)
        assert not report.holds_mu and not report.holds_nu
        assert report.lhs_mu == pytest.approx(0.5 * report.rhs_mu, abs=1e-9)


class TestSelfComplementarity:
    def test_half_bound_graph_is_self_complementary_under_identity(self):
        g = half_strong_construction(
            {"p": PFDegree(0.8, 0.2), "q": PFDegree(0.6, 0.6), "r": PFDegree(0.4, 0.3)}
        )
        report = is_self_complementary(g)
        assert report.found
        identity = {v: v for v in g.vertices}
        assert verify_morphism(g, complement(g), MorphismKind.ISOMORPHISM, identity).ok

    def test_complement_demo_is_not_self_complementary(self, complement_demo):
        assert not is_self_complementary(complement_demo).found

    def test_full_bound_graph_not_self_complementary_under_strong_variant(self):
        # the strong complement of an all-pairs bound graph is edgeless, so
        # no isomorphism onto it can exist once there are real edges
        g = generate(GenConfig(seed=3, n_vertices=3, family="complete"))
        assert not is_self_complementary(g, "strong").found
        assert not is_self_complementary(g, "complete").found

    def test_strong_variant_requires_strong_graph(self, square_cycle):
        with pytest.raises(NotStrong):
            is_self_complementary(square_cycle, "strong")

    def test_cap_reaches_the_search(self):
        g = half_strong_construction({"x": PFDegree(0.5, 0.5), "y": PFDegree(0.5, 0.5)})
        with pytest.raises(SearchCapExceeded, match="above the search cap 1"):
            is_self_complementary(g, cap=1)
        assert is_self_complementary(g, cap=2).found

    @pytest.mark.parametrize("variant", ["sideways", None, ["general"]], ids=repr)
    def test_unknown_variant_rejected(self, square_cycle, variant):
        # an unhashable variant is unknown too
        with pytest.raises(ValueError) as raised:
            is_self_complementary(square_cycle, variant)
        assert str(raised.value) == (
            f"unknown variant {variant!r}; expected one of ('general', 'strong', 'complete')"
        )

    def test_variants_name_the_complements_in_order(self):
        assert SELF_COMPLEMENT_VARIANTS == ("general", "strong", "complete")
        # each variant runs its own complement: a half-bound graph is
        # self-complementary, but neither strong nor complete
        g = half_strong_construction({v: PFDegree(0.6, 0.3) for v in "abc"})
        assert is_self_complementary(g, "general").found
        with pytest.raises(NotStrong):
            is_self_complementary(g, "strong")
        with pytest.raises(NotComplete):
            is_self_complementary(g, "complete")

    def test_self_complementary_without_half_bound_degrees(self):
        # a path at full bound maps onto its complement by permuting labels,
        # so the half-bound recipe is sufficient but not necessary
        deg = (0.6, 0.4)
        g = build(
            {"a": deg, "b": deg, "c": deg, "d": deg},
            {("a", "b"): deg, ("b", "c"): deg, ("c", "d"): deg},
        )
        report = is_self_complementary(g)
        assert report.found
        half = [
            abs(d.mu - 0.5 * g.pair_bound(k.lo, k.hi).mu) <= 1e-9
            for k, d in g.edges.items()
        ]
        assert not any(half)


class TestHalfStrongConstruction:
    def test_two_vertex_values(self):
        g = half_strong_construction({"x": PFDegree(0.8, 0.2), "y": PFDegree(0.6, 0.6)})
        assert g.edge_degree("x", "y") == PFDegree(0.3, 0.3)

    def test_single_vertex_is_edgeless(self):
        g = half_strong_construction({"x": PFDegree(0.5, 0.1)})
        assert g.edges == {}

    def test_zero_membership_vertex_zeroes_incident_edges(self):
        g = half_strong_construction(
            {"x": PFDegree(0.0, 0.9), "y": PFDegree(0.7, 0.3), "z": PFDegree(0.5, 0.2)}
        )
        assert g.edge_degree("x", "y").mu == 0.0
        assert g.edge_degree("x", "z").mu == 0.0
        assert g.edge_degree("y", "z").mu == 0.25

    def test_output_always_validates(self):
        for seed in range(30):
            g = generate(GenConfig(seed=seed, n_vertices=1 + seed % 6, family="half_strong"))
            assert validate(g).ok
