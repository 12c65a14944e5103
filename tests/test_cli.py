"""Command-line interface: subcommands, exit codes, stdin/stdout plumbing."""

import io
import json
import os
import subprocess
import sys

import pytest

from pfgraph import DEFAULT_EPSILON, GenConfig, generate, render, set_tolerance, tolerance
from pfgraph.cli import _BINARY_OPS, _UNARY_OPS, main

from test_graph_io import SQUARE_CYCLE_DOC


@pytest.fixture(autouse=True)
def restore_tolerance():
    yield
    set_tolerance(DEFAULT_EPSILON)


@pytest.fixture
def square_cycle_file(tmp_path):
    path = tmp_path / "square.json"
    path.write_text(SQUARE_CYCLE_DOC)
    return str(path)


def run_cli(argv, capsys, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        monkeypatch.setattr("sys.stdin", io.StringIO(stdin_text))
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidate:
    def test_valid_graph_exits_zero(self, square_cycle_file, capsys):
        code, out, _ = run_cli(["validate", square_cycle_file], capsys)
        assert code == 0
        assert json.loads(out) == {"valid": True, "violations": []}

    def test_invalid_graph_exits_one_with_report(self, tmp_path, capsys):
        doc = {
            "format_version": 1,
            "vertices": [
                {"id": "a", "mu": 0.6, "nu": 0.7},
                {"id": "b", "mu": 0.6, "nu": 0.7},
            ],
            "edges": [{"u": "a", "v": "b", "mu": 0.7, "nu": 0.0}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["validate", str(path)], capsys)
        assert code == 1
        payload = json.loads(out)
        assert not payload["valid"]
        assert payload["violations"][0]["kind"] == "edge_membership_above_bound"

    def test_malformed_document_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{oops")
        code, _, err = run_cli(["validate", str(path)], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "MalformedDocument"

    @pytest.mark.parametrize("version", ["true", "1.0", '"1"'])
    def test_format_version_that_is_not_the_int_1_exits_two(self, version, tmp_path, capsys):
        path = tmp_path / "version.json"
        path.write_text('{"format_version": %s, "vertices": [], "edges": []}' % version)
        code, out, err = run_cli(["validate", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["message"] == "format_version must be 1"

    def test_deeply_nested_document_exits_two(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 100_000 + "]" * 100_000)
        code, out, err = run_cli(["validate", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "MalformedDocument"

    def test_integer_past_the_int_string_limit_exits_two(self, tmp_path, capsys):
        limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
        if not limit:
            pytest.skip("this interpreter has no int-string limit")
        path = tmp_path / "long.json"
        path.write_text('{"format_version": 1%s, "vertices": [], "edges": []}' % ("0" * limit))
        code, out, err = run_cli(["validate", str(path)], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "MalformedDocument"


class TestInputThatIsNotUtf8:
    @pytest.mark.parametrize("command", ["validate", "iso"])
    def test_file_exits_two(self, command, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_bytes(b"\xff")
        argv = [command, str(path)] + ([str(path)] if command == "iso" else [])
        code, out, err = run_cli(argv, capsys)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "MalformedDocument"

    def test_strict_stdin_exits_two(self, capsys, monkeypatch):
        with io.TextIOWrapper(io.BytesIO(b"\xff"), encoding="utf-8") as stdin:
            monkeypatch.setattr("sys.stdin", stdin)
            code, out, err = run_cli(["validate", "-"], capsys)
        assert (code, out) == (2, "")
        assert json.loads(err)["error"] == "MalformedDocument"


class TestOp:
    def test_complement_of_empty_graph(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"format_version":1,"vertices":[],"edges":[]}')
        code, out, _ = run_cli(["op", "complement", str(path)], capsys)
        assert code == 0
        assert json.loads(out) == {"format_version": 1, "vertices": [], "edges": []}

    def test_cartesian_product_of_two_files(self, tmp_path, capsys):
        g1 = {
            "format_version": 1,
            "vertices": [
                {"id": "a", "mu": 0.6, "nu": 0.3},
                {"id": "b", "mu": 0.5, "nu": 0.7},
            ],
            "edges": [{"u": "a", "v": "b", "mu": 0.5, "nu": 0.7}],
        }
        g2 = {
            "format_version": 1,
            "vertices": [
                {"id": "c", "mu": 0.7, "nu": 0.5},
                {"id": "d", "mu": 0.5, "nu": 0.8},
            ],
            "edges": [{"u": "c", "v": "d", "mu": 0.4, "nu": 0.65}],
        }
        p1, p2 = tmp_path / "g1.json", tmp_path / "g2.json"
        p1.write_text(json.dumps(g1))
        p2.write_text(json.dumps(g2))
        code, out, _ = run_cli(["op", "cartesian", str(p1), str(p2)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["vertices"]) == 4
        assert len(doc["edges"]) == 4

    def test_join_overlap_is_a_domain_error(self, square_cycle_file, capsys):
        code, _, err = run_cli(
            ["op", "join", square_cycle_file, square_cycle_file], capsys
        )
        assert code == 1
        assert json.loads(err)["error"] == "JoinOverlap"

    def test_strong_complement_precondition_and_force(self, square_cycle_file, capsys):
        code, _, err = run_cli(["op", "strong-complement", square_cycle_file], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "NotStrong"
        code, out, _ = run_cli(
            ["op", "strong-complement", square_cycle_file, "--force"], capsys
        )
        assert code == 0
        assert json.loads(out)["format_version"] == 1

    def test_wrong_arity_is_a_usage_error(self, square_cycle_file, capsys):
        code, _, _ = run_cli(["op", "union", square_cycle_file], capsys)
        assert code == 2

    def test_overlapping_union_must_validate(
        self, tmp_path, capsys, overlapping_pair, square_cycle_file
    ):
        from pfgraph import parse, render

        paths = []
        for name, g in zip(("g1", "g2"), overlapping_pair):
            path = tmp_path / f"{name}.json"
            path.write_text(render(g))
            paths.append(str(path))
        code, out, err = run_cli(["op", "union", *paths], capsys)
        assert code == 1
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "ConstraintViolation"
        assert {"kind": "edge_nonmembership_above_bound", "where": "a-d"} in [
            {"kind": v["kind"], "where": v["where"]} for v in payload["report"]["violations"]
        ]
        # a full overlap that stays valid still prints the union
        code, out, _ = run_cli(["op", "union", square_cycle_file, square_cycle_file], capsys)
        assert code == 0
        assert parse(out) == parse(SQUARE_CYCLE_DOC)


class TestClassifyAndSums:
    def test_classify_output(self, square_cycle_file, capsys):
        code, out, _ = run_cli(["classify", square_cycle_file], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["is_strong"] is False
        assert payload["witnesses"]["is_mu_strong"] == ["a", "b"]

    def test_classify_output_matches_library_result(self, square_cycle_file, capsys):
        # the CLI is a shell over the library: same JSON, nothing added
        from pfgraph import classify, parse

        code, out, _ = run_cli(["classify", square_cycle_file], capsys)
        assert code == 0
        with open(square_cycle_file, encoding="utf-8") as handle:
            expected = classify(parse(handle.read())).as_dict()
        assert json.loads(out) == json.loads(json.dumps(expected))

    def test_sums_default_and_strong(self, square_cycle_file, capsys):
        code, out, _ = run_cli(["sums", square_cycle_file], capsys)
        assert code == 0
        half = json.loads(out)
        code, out, _ = run_cli(["sums", square_cycle_file, "--strong"], capsys)
        assert code == 0
        full = json.loads(out)
        assert full["rhs_mu"] == pytest.approx(2 * half["rhs_mu"])
        assert half["lhs_mu"] == full["lhs_mu"]


class TestIso:
    @pytest.fixture
    def quad_files(self, tmp_path, isomorphic_quad_pair):
        from pfgraph import render

        g1, g2 = isomorphic_quad_pair
        p1, p2 = tmp_path / "q1.json", tmp_path / "q2.json"
        p1.write_text(render(g1))
        p2.write_text(render(g2))
        return str(p1), str(p2)

    def test_isomorphism_found_with_witness(self, quad_files, capsys):
        code, out, _ = run_cli(["iso", *quad_files, "--kind", "iso"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["found"] is True
        assert payload["witness"] == {"a1": "b3", "a2": "b1", "a3": "b2", "a4": "b4"}

    def test_require_turns_not_found_into_failure(self, quad_files, tmp_path, capsys):
        single = tmp_path / "single.json"
        single.write_text(
            '{"format_version":1,"vertices":[{"id":"z","mu":0.5,"nu":0.5}],"edges":[]}'
        )
        code, out, _ = run_cli(
            ["iso", quad_files[0], str(single), "--kind", "iso", "--require"], capsys
        )
        assert code == 1
        assert json.loads(out)["found"] is False

    def test_cap_flag(self, quad_files, capsys):
        code, _, err = run_cli(["iso", *quad_files, "--kind", "iso", "--cap", "2"], capsys)
        assert code == 1
        assert json.loads(err)["error"] == "SearchCapExceeded"


# the input files of each op name, which the op accepts: join's two graphs
# share no label, and each complement variant gets a graph meeting its precondition
OP_INPUTS = {
    "cartesian": ["square", "general"],
    "compose": ["square", "general"],
    "union": ["square", "square"],
    "join": ["square", "general"],
    "complement": ["square"],
    "strong-complement": ["strong"],
    "complete-complement": ["complete"],
}


class TestQuietStderr:
    """Every subcommand that succeeds writes its result to stdout and nothing to stderr."""

    @pytest.fixture
    def files(self, tmp_path, square_cycle_file):
        paths = {"square": square_cycle_file}
        for family in ("general", "strong", "complete"):
            path = tmp_path / f"{family}.json"
            path.write_text(render(generate(GenConfig(seed=1, n_vertices=4, family=family))))
            paths[family] = str(path)
        return paths

    def test_every_op_name_has_inputs(self):
        assert set(OP_INPUTS) == set(_BINARY_OPS) | set(_UNARY_OPS)

    @pytest.mark.parametrize(
        "argv",
        [
            ["validate", "square"],
            *(["op", name, *inputs] for name, inputs in OP_INPUTS.items()),
            ["classify", "square"],
            ["sums", "square"],
            ["sums", "square", "--strong"],
            ["iso", "square", "square"],
            ["selfcomp", "square"],
            ["gen", "--seed", "1", "--n", "5"],
            ["dot", "square"],
        ],
        ids=" ".join,
    )
    def test_success_leaves_stderr_empty(self, argv, files, capsys):
        code, out, err = run_cli([files.get(arg, arg) for arg in argv], capsys)
        assert (code, err) == (0, "")
        assert out


class TestSearchCapFlag:
    EMPTY = '{"format_version":1,"vertices":[],"edges":[]}'

    @pytest.fixture
    def empty_file(self, tmp_path):
        path = tmp_path / "empty.json"
        path.write_text(self.EMPTY)
        return str(path)

    @pytest.mark.parametrize("command", [["iso", "g", "g"], ["selfcomp", "g"]])
    def test_negative_cap_is_a_usage_error(self, command, square_cycle_file, capsys):
        argv = [square_cycle_file if arg == "g" else arg for arg in command]
        code, out, err = run_cli([*argv, "--cap", "-1"], capsys)
        assert code == 2
        assert out == ""
        payload = json.loads(err)
        assert payload["error"] == "UsageError"
        assert "--cap" in payload["message"]

    @pytest.mark.parametrize("command", [["iso", "g", "g"], ["selfcomp", "g"]])
    def test_zero_cap_on_an_empty_graph_searches(self, command, empty_file, capsys):
        argv = [empty_file if arg == "g" else arg for arg in command]
        code, out, err = run_cli([*argv, "--cap", "0"], capsys)
        assert (code, err) == (0, "")
        assert json.loads(out)["search_space"] == 0


class TestSelfcomp:
    def test_half_bound_graph(self, tmp_path, capsys):
        code, out, _ = run_cli(
            ["gen", "--seed", "4", "--n", "4", "--family", "half_strong"], capsys
        )
        assert code == 0
        path = tmp_path / "hs.json"
        path.write_text(out)
        code, out, _ = run_cli(["selfcomp", str(path), "--variant", "general"], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["self_complementary"] is True
        assert payload["witness"] is not None


class TestGen:
    def test_deterministic_output(self, capsys):
        argv = ["gen", "--seed", "7", "--n", "5", "--p", "0.6"]
        code1, out1, _ = run_cli(argv, capsys)
        code2, out2, _ = run_cli(argv, capsys)
        assert code1 == code2 == 0
        assert out1 == out2

    def test_generated_document_parses(self, capsys):
        from pfgraph import parse, validate

        code, out, _ = run_cli(["gen", "--seed", "3", "--n", "4"], capsys)
        assert code == 0
        assert validate(parse(out)).ok

    @pytest.mark.parametrize("bad", [["--n", "0"], ["--p", "2"], ["--p", "nan"], ["--quantize", "0"]])
    def test_bad_numbers_are_usage_errors(self, bad, capsys):
        code, out, err = run_cli(["gen", "--seed", "1", "--n", "3", *bad], capsys)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "UsageError"


class TestDotCommand:
    def test_dot_output(self, square_cycle_file, capsys):
        code, out, _ = run_cli(["dot", square_cycle_file], capsys)
        assert code == 0
        assert out.startswith("graph G {")
        assert 'a -- b [label="(0.4, 0.7)"];' in out

    @pytest.mark.parametrize("escape", ["\\ud800", "\\udc80"])
    def test_label_that_does_not_encode_as_utf8_exits_two(self, escape, tmp_path):
        # valid JSON whose lone surrogate a UTF-8 stdout cannot write; the
        # document is refused before anything reaches stdout
        path = tmp_path / "surrogate.json"
        path.write_text(
            '{"format_version": 1, "vertices": [{"id": "%s", "mu": 0.5, "nu": 0.5}], "edges": []}'
            % escape
        )
        env = {**os.environ, "PYTHONIOENCODING": "utf-8"}
        for argv in (["dot", str(path)], ["validate", str(path)]):
            cli = subprocess.run(
                [sys.executable, "-m", "pfgraph.cli", *argv], capture_output=True, env=env
            )
            assert cli.returncode == 2, cli.stderr
            assert cli.stdout == b""
            error = json.loads(cli.stderr)
            assert error["error"] == "MalformedDocument"
            assert "does not encode as UTF-8" in error["message"]


class TestStdinPiping:
    def test_dash_reads_stdin(self, capsys, monkeypatch):
        code, out, _ = run_cli(
            ["validate", "-"], capsys, stdin_text=SQUARE_CYCLE_DOC, monkeypatch=monkeypatch
        )
        assert code == 0
        assert json.loads(out)["valid"] is True

    def test_gen_complement_validate_pipeline(self, capsys, monkeypatch):
        for seed in range(10):
            code, doc, _ = run_cli(["gen", "--seed", str(seed), "--n", "4"], capsys)
            assert code == 0
            code, comp, _ = run_cli(
                ["op", "complement", "-"], capsys, stdin_text=doc, monkeypatch=monkeypatch
            )
            assert code == 0
            code, out, _ = run_cli(
                ["validate", "-"], capsys, stdin_text=comp, monkeypatch=monkeypatch
            )
            assert code == 0


class TestEpsilonOverride:
    def test_bad_epsilon_rejected(self, capsys, monkeypatch):
        monkeypatch.setenv("PFG_EPSILON", "not-a-number")
        code, _, err = run_cli(["gen", "--seed", "1", "--n", "2"], capsys)
        assert code == 2
        assert json.loads(err)["error"] == "BadEpsilon"

    @pytest.mark.parametrize("value", ["abc", "nan", "inf", "-1"])
    def test_bad_epsilon_in_a_fresh_process(self, value):
        # a fresh interpreter parses PFG_EPSILON at import, before main runs
        env = {**os.environ, "PFG_EPSILON": value}
        cli = subprocess.run(
            [sys.executable, "-m", "pfgraph.cli", "gen", "--seed", "1", "--n", "3"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert cli.returncode == 2
        assert cli.stdout == ""
        assert json.loads(cli.stderr)["error"] == "BadEpsilon"
        lib = subprocess.run(
            [sys.executable, "-c", "import pfgraph; print(repr(pfgraph.tolerance()))"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert lib.returncode == 0, lib.stderr
        assert float(lib.stdout) == DEFAULT_EPSILON

    def test_coarse_epsilon_changes_validation(self, tmp_path, capsys, monkeypatch):
        doc = {
            "format_version": 1,
            "vertices": [
                {"id": "a", "mu": 0.5, "nu": 0.5},
                {"id": "b", "mu": 0.5, "nu": 0.5},
            ],
            "edges": [{"u": "a", "v": "b", "mu": 0.5005, "nu": 0.1}],
        }
        path = tmp_path / "close.json"
        path.write_text(json.dumps(doc))
        code, _, _ = run_cli(["validate", str(path)], capsys)
        assert code == 1
        monkeypatch.setenv("PFG_EPSILON", "0.01")
        code, _, _ = run_cli(["validate", str(path)], capsys)
        assert code == 0


    def test_epsilon_applies_to_one_call_only(self, square_cycle_file, capsys, monkeypatch):
        set_tolerance(1e-7)
        monkeypatch.setenv("PFG_EPSILON", "1e-3")
        code, _, _ = run_cli(["validate", square_cycle_file], capsys)
        assert code == 0
        assert tolerance() == 1e-7

    def test_tolerance_is_restored_after_a_failing_command(self, tmp_path, capsys, monkeypatch):
        path = tmp_path / "over.json"
        path.write_text(
            '{"format_version": 1, "vertices": [{"id": "a", "mu": 0.9, "nu": 0.9}], "edges": []}'
        )
        set_tolerance(1e-7)
        monkeypatch.setenv("PFG_EPSILON", "1e-3")
        failing = {
            "ConstraintViolation": ["classify", str(path)],
            "IOError": ["validate", str(tmp_path / "missing.json")],
            "UsageError": ["gen", "--seed", "1", "--n", "-1"],
        }
        for error, argv in failing.items():
            code, out, err = run_cli(argv, capsys)
            assert code in (1, 2) and out == "" and json.loads(err)["error"] == error
            assert tolerance() == 1e-7, argv
        # argparse's own exit, before any command runs
        code, _, _ = run_cli(["gen"], capsys)
        assert code == 2 and tolerance() == 1e-7


class TestInstalledEntryPoint:
    def test_subprocess_pipeline(self):
        gen = subprocess.run(
            [sys.executable, "-m", "pfgraph.cli", "gen", "--seed", "12", "--n", "3"],
            capture_output=True,
            text=True,
        )
        assert gen.returncode == 0
        comp = subprocess.run(
            [sys.executable, "-m", "pfgraph.cli", "op", "complement", "-"],
            input=gen.stdout,
            capture_output=True,
            text=True,
        )
        assert comp.returncode == 0
        check = subprocess.run(
            [sys.executable, "-m", "pfgraph.cli", "validate", "-"],
            input=comp.stdout,
            capture_output=True,
            text=True,
        )
        assert check.returncode == 0, check.stderr
