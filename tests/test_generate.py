"""Seeded generator: determinism, family guarantees, quantization."""

import pytest

from pfgraph import GenConfig, classify, generate, half_strong_construction, validate


class TestDeterminism:
    def test_same_config_same_graph(self):
        cfg = GenConfig(seed=42, n_vertices=5, edge_probability=0.7)
        assert generate(cfg) == generate(cfg)

    def test_different_seeds_differ(self):
        a = generate(GenConfig(seed=1, n_vertices=5))
        b = generate(GenConfig(seed=2, n_vertices=5))
        assert a != b


class TestValidity:
    def test_all_families_validate_across_seeds(self):
        for seed in range(1000):
            family = ("general", "strong", "complete", "half_strong")[seed % 4]
            g = generate(GenConfig(seed=seed, n_vertices=1 + seed % 7, family=family))
            assert validate(g).ok, f"seed {seed} family {family}"

    def test_quantized_output_validates_and_sits_on_the_grid(self):
        for seed in range(60):
            g = generate(GenConfig(seed=seed, n_vertices=4, quantize=2))
            assert validate(g).ok
            for degree in list(g.vertices.values()) + list(g.edges.values()):
                assert degree.mu == pytest.approx(round(degree.mu, 2), abs=1e-12)
                assert degree.nu == pytest.approx(round(degree.nu, 2), abs=1e-12)


class TestFamilies:
    def test_strong_family_classifies_strong(self):
        for seed in range(40):
            g = generate(GenConfig(seed=seed, n_vertices=2 + seed % 5, family="strong"))
            assert classify(g).is_strong

    def test_complete_family_has_all_pairs_at_bound(self):
        g = generate(GenConfig(seed=11, n_vertices=3, family="complete"))
        assert len(g.edges) == 3
        for key, degree in g.edges.items():
            assert degree == g.pair_bound(key.lo, key.hi)
        assert classify(g).is_complete

    def test_half_strong_family_uses_half_bounds(self):
        g = generate(GenConfig(seed=9, n_vertices=4, family="half_strong"))
        for key, degree in g.edges.items():
            bound = g.pair_bound(key.lo, key.hi)
            assert degree.mu == pytest.approx(0.5 * bound.mu, abs=1e-12)
            assert degree.nu == pytest.approx(0.5 * bound.nu, abs=1e-12)

    def test_half_strong_family_is_the_construction_on_its_vertices(self):
        for seed in range(40):
            cfg = GenConfig(seed=seed, n_vertices=1 + seed % 13, family="half_strong",
                            quantize=(None, 2)[seed % 2])
            g = generate(cfg)
            assert g == half_strong_construction(g.vertices)

    def test_zero_edge_probability_gives_edgeless(self):
        g = generate(GenConfig(seed=5, n_vertices=6, edge_probability=0.0))
        assert g.edges == {}

    def test_unit_edge_probability_fills_all_pairs(self):
        g = generate(GenConfig(seed=5, n_vertices=5, edge_probability=1.0, family="strong"))
        assert len(g.edges) == 10


class TestConfigValidation:
    def test_bad_configs_rejected(self):
        with pytest.raises(ValueError):
            GenConfig(seed=1, n_vertices=0)
        with pytest.raises(ValueError):
            GenConfig(seed=1, n_vertices=3, edge_probability=1.5)
        with pytest.raises(ValueError):
            GenConfig(seed=1, n_vertices=3, family="sparse")
        with pytest.raises(ValueError):
            GenConfig(seed=1, n_vertices=3, quantize=0)
