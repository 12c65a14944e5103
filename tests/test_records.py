"""Record types: immutability, equality, copying and dict forms of the result values."""

import copy
import json
import pickle
import subprocess
import sys

import pytest

from pfgraph import (
    GenConfig,
    MorphismKind,
    PFDegree,
    PFGraph,
    ValidationReport,
    classify,
    find_morphism,
    generate,
    strong_sum_identity,
    validate,
    verify_morphism,
)

CLONES = pytest.mark.parametrize(
    "clone",
    [lambda x: pickle.loads(pickle.dumps(x)), copy.copy, copy.deepcopy],
    ids=["pickle", "copy", "deepcopy"],
)


def one_of_each_record():
    g = generate(GenConfig(seed=4, n_vertices=4))
    bad = PFGraph({"a": PFDegree(1.5, 0.2), "b": PFDegree(0.1, 0.1)}, {("a", "b"): PFDegree(0.9, 0.9)})
    report = validate(bad)
    found = find_morphism(g, g, MorphismKind.ISOMORPHISM)
    return [
        report.violations[0],
        report,
        classify(g),
        strong_sum_identity(g),
        found,
        verify_morphism(g, g, MorphismKind.ISOMORPHISM, found.witness),
        GenConfig(seed=4, n_vertices=4, family="strong", quantize=2),
    ]


class TestPFGraph:
    def test_attributes_cannot_be_assigned_or_deleted(self):
        g = generate(GenConfig(seed=1, n_vertices=3))
        with pytest.raises(AttributeError):
            g.vertices = {}
        with pytest.raises(AttributeError):
            g.extra = 1
        with pytest.raises(AttributeError):
            del g.edges
        assert g == generate(GenConfig(seed=1, n_vertices=3))

    def test_not_hashable(self):
        with pytest.raises(TypeError, match="PFGraph"):
            hash(PFGraph({"a": PFDegree(0.5, 0.5)}))

    def test_equality_needs_the_same_class_and_maps(self):
        g = PFGraph({"a": PFDegree(0.5, 0.5)})
        assert g == PFGraph({"a": (0.5, 0.5)})
        assert g != PFGraph({"a": PFDegree(0.5, 0.4)})
        assert g != (g.vertices, g.edges)

    def test_repr(self):
        g = PFGraph({"a": PFDegree(0.5, 0.5), "b": PFDegree(0.4, 0.6)}, {("b", "a"): PFDegree(0.4, 0.6)})
        assert repr(g) == (
            "PFGraph(vertices={'a': PFDegree(mu=0.5, nu=0.5), 'b': PFDegree(mu=0.4, nu=0.6)}, "
            "edges={PairKey(lo='a', hi='b'): PFDegree(mu=0.4, nu=0.6)})"
        )


class TestRecords:
    @CLONES
    def test_round_trips(self, clone):
        for value in one_of_each_record():
            twin = clone(value)
            assert twin == value and type(twin) is type(value)
            assert repr(twin) == repr(value)

    def test_records_are_tuples_of_their_fields(self):
        for value in one_of_each_record():
            assert value == tuple(getattr(value, f) for f in value._fields)

    def test_dict_forms_keep_field_order(self):
        for value in one_of_each_record():
            if isinstance(value, ValidationReport):
                assert list(value.as_dict()) == ["valid", "violations"]
            elif hasattr(value, "as_dict"):
                assert list(value.as_dict()) == list(value._fields)

    def test_morphism_dict_copies_the_witness(self):
        g = generate(GenConfig(seed=2, n_vertices=3))
        report = find_morphism(g, g, MorphismKind.ISOMORPHISM)
        witness = dict(report.witness)
        payload = report.as_dict()
        payload["witness"]["v0"] = "elsewhere"
        assert report.witness == witness
        assert json.dumps(report.as_dict()) == json.dumps(
            {"kind": "isomorphism", "found": True, "witness": witness, "search_space": report.search_space}
        )


class TestGenConfig:
    BAD = [
        {"n_vertices": 0},
        {"edge_probability": 2.0},
        {"edge_probability": float("nan")},
        {"family": "petersen"},
        {"quantize": 0},
        # wrong types: each raised TypeError or was accepted, seed=None gave a new graph per call
        {"seed": None},
        {"seed": True},
        {"seed": 1.0},
        {"n_vertices": 2.5},
        {"n_vertices": "3"},
        {"n_vertices": True},
        {"edge_probability": "0.5"},
        {"edge_probability": True},
        {"quantize": 1.5},
        {"quantize": True},
    ]

    @pytest.mark.parametrize("bad", BAD)
    def test_bad_values_raise_at_construction(self, bad):
        with pytest.raises(ValueError):
            GenConfig(**{"seed": 1, "n_vertices": 3, **bad})

    @pytest.mark.parametrize("bad", BAD)
    def test_bad_values_raise_through_replace(self, bad):
        with pytest.raises(ValueError):
            GenConfig(seed=1, n_vertices=3)._replace(**bad)

    def test_replace_and_defaults(self):
        cfg = GenConfig(1, 3)
        assert cfg._replace(seed=2) == GenConfig(seed=2, n_vertices=3)
        assert repr(cfg) == (
            "GenConfig(seed=1, n_vertices=3, edge_probability=0.5, family='general', quantize=None)"
        )


def test_cli_import_does_not_load_dataclasses():
    probe = subprocess.run(
        [sys.executable, "-c", "import sys, pfgraph.cli; print('dataclasses' in sys.modules)"],
        capture_output=True,
        text=True,
    )
    assert probe.returncode == 0, probe.stderr
    assert probe.stdout == "False\n"
