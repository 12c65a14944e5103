"""Command-line front end.

Every subcommand is a thin shell over the library: it reads graph documents
(from files or stdin via ``-``; every ``-`` of one command reads the same
stdin document), calls one library operation, and prints the
serialized result on stdout.  Diagnostics and error objects go to stderr so
stdout always carries a clean document.  Exit codes: 0 success, 1 domain
error (invalid graph, overlap on join, an overlapping union that breaks the
edge bounds, morphism not found under --require, and similar), 2 usage or
document-syntax error.  A reader of stdout that has gone (``pfgraph gen ...
| true``) is no error: the command returns its own status, and stderr stays
empty.

The PFG_EPSILON environment variable overrides the global comparison
tolerance (decimal, default 1e-9); a value that is not a positive finite
number exits 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import __version__
from .algebra import (
    cartesian_product,
    complement,
    complete_complement,
    composition,
    join,
    strong_complement,
    union,
)
from .classify import (
    SELF_COMPLEMENT_VARIANTS,
    classify,
    is_self_complementary,
    strong_sum_identity,
    sum_identity,
)
from .core import apply_env_tolerance, require_valid, set_tolerance, tolerance, validate
from .errors import MalformedDocument, PFGError
from .generate import FAMILIES, GenConfig, generate
from .graph_io import parse, render, to_dot
from .morphism import DEFAULT_SEARCH_CAP, MorphismKind, find_morphism

_KIND_NAMES = {
    "homo": MorphismKind.HOMOMORPHISM,
    "iso": MorphismKind.ISOMORPHISM,
    "weak": MorphismKind.WEAK_ISOMORPHISM,
    "coweak": MorphismKind.COWEAK_ISOMORPHISM,
}

_BINARY_OPS = {
    "cartesian": cartesian_product,
    "compose": composition,
    "union": union,
    "join": join,
}

_UNARY_OPS = {
    "complement": lambda g, force: complement(g),
    "strong-complement": strong_complement,
    "complete-complement": complete_complement,
}


def _read_text(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as handle:
            return handle.read()
    except UnicodeDecodeError as exc:
        raise MalformedDocument(f"not UTF-8 text: {exc}") from None


def _graph_reader():
    """A ``read_graph(path, check=True)`` for one command.  Stdin is read at
    most once, by the first ``-``, and every ``-`` parses that text, so
    ``iso - -`` takes the piped document on both sides."""
    stdin = None

    def read_graph(path: str, check: bool = True):
        nonlocal stdin
        if path != "-":
            return parse(_read_text(path), check=check)
        if stdin is None:
            stdin = _read_text(path)
        return parse(stdin, check=check)

    return read_graph


def _emit(text: str) -> None:
    try:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout has gone, which is no failure of the command:
        # stdout now writes to os.devnull, so the flush at exit stays quiet,
        # and the command returns its own status
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _emit_json(payload: dict) -> None:
    _emit(json.dumps(payload, indent=2))


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pfgraph",
        description="Operate on Pythagorean fuzzy graph documents.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a graph document and print the report")
    p.add_argument("graph")

    p = sub.add_parser("op", help="apply a graph operation and print the result document")
    p.add_argument("name", choices=sorted(_BINARY_OPS) + sorted(_UNARY_OPS))
    p.add_argument("graphs", nargs="+", metavar="graph")
    p.add_argument(
        "--force",
        action="store_true",
        help="skip the strong/complete precondition on the complement variants",
    )

    p = sub.add_parser("classify", help="print the strength/completeness profile")
    p.add_argument("graph")

    p = sub.add_parser("sums", help="print the edge-degree versus pair-bound sum report")
    p.add_argument("graph")
    p.add_argument("--strong", action="store_true", help="compare against the full bound sums")

    p = sub.add_parser("iso", help="search for a morphism between two graphs")
    p.add_argument("graph1")
    p.add_argument("graph2")
    p.add_argument("--kind", choices=sorted(_KIND_NAMES), default="iso")
    p.add_argument("--cap", type=int, default=DEFAULT_SEARCH_CAP)
    p.add_argument(
        "--require",
        action="store_true",
        help="exit with status 1 when no morphism is found",
    )

    p = sub.add_parser("selfcomp", help="test whether a graph is isomorphic to its complement")
    p.add_argument("graph")
    p.add_argument("--variant", choices=SELF_COMPLEMENT_VARIANTS, default="general")
    p.add_argument("--cap", type=int, default=DEFAULT_SEARCH_CAP)

    p = sub.add_parser("gen", help="generate a seeded random graph document")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--p", type=float, default=0.5)
    p.add_argument("--family", choices=FAMILIES, default="general")
    p.add_argument("--quantize", type=int, default=None)

    p = sub.add_parser("dot", help="export a graph document as DOT text")
    p.add_argument("graph")

    return parser


def _search_cap(args: argparse.Namespace) -> int:
    if args.cap < 0:
        raise SystemExit(f"--cap must be a non-negative integer, got {args.cap}")
    return args.cap


def _run(args: argparse.Namespace) -> int:
    read_graph = _graph_reader()
    if args.command == "validate":
        graph = read_graph(args.graph, check=False)
        report = validate(graph)
        _emit_json(report.as_dict())
        return 0 if report.ok else 1

    if args.command == "op":
        if args.name in _UNARY_OPS:
            if len(args.graphs) != 1:
                raise SystemExit(f"op {args.name} takes exactly one graph")
            result = _UNARY_OPS[args.name](read_graph(args.graphs[0]), args.force)
        else:
            if len(args.graphs) != 2:
                raise SystemExit(f"op {args.name} takes exactly two graphs")
            g1, g2 = read_graph(args.graphs[0]), read_graph(args.graphs[1])
            result = _BINARY_OPS[args.name](g1, g2)
            if args.name == "union" and g1.vertices.keys() & g2.vertices.keys():
                # raising a shared vertex can strand an edge copied from the other side
                require_valid(result, "union of overlapping graphs")
        _emit(render(result))
        return 0

    if args.command == "classify":
        _emit_json(classify(read_graph(args.graph)).as_dict())
        return 0

    if args.command == "sums":
        graph = read_graph(args.graph)
        report = strong_sum_identity(graph) if args.strong else sum_identity(graph)
        _emit_json(report.as_dict())
        return 0

    if args.command == "iso":
        cap = _search_cap(args)
        report = find_morphism(
            read_graph(args.graph1),
            read_graph(args.graph2),
            _KIND_NAMES[args.kind],
            cap=cap,
        )
        _emit_json(report.as_dict())
        if args.require and not report.found:
            return 1
        return 0

    if args.command == "selfcomp":
        cap = _search_cap(args)
        report = is_self_complementary(read_graph(args.graph), args.variant, cap=cap)
        _emit_json(
            {
                "variant": args.variant,
                "self_complementary": report.found,
                "witness": report.witness,
                "search_space": report.search_space,
            }
        )
        return 0

    if args.command == "gen":
        try:
            cfg = GenConfig(
                seed=args.seed,
                n_vertices=args.n,
                edge_probability=args.p,
                family=args.family,
                quantize=args.quantize,
            )
        except ValueError as exc:
            raise SystemExit(str(exc)) from None
        _emit(render(generate(cfg)))
        return 0

    if args.command == "dot":
        _emit(to_dot(read_graph(args.graph)))
        return 0

    raise SystemExit(f"unknown command {args.command!r}")


def _fail(error: str, message: str, code: int, report=None) -> int:
    payload = {"error": error, "message": message}
    if report is not None:
        payload["report"] = report.as_dict()
    print(json.dumps(payload), file=sys.stderr)
    return code


def main(argv=None) -> int:
    saved = tolerance()  # PFG_EPSILON applies to this call only
    try:
        apply_env_tolerance()
    except ValueError as exc:
        return _fail("BadEpsilon", str(exc), 2)

    try:
        # argparse exits with an int code, which the SystemExit branch returns
        return _run(_build_parser().parse_args(argv))
    except MalformedDocument as exc:
        return _fail(type(exc).__name__, str(exc), 2)
    except PFGError as exc:
        return _fail(type(exc).__name__, str(exc), 1, getattr(exc, "report", None))
    except OSError as exc:
        return _fail("IOError", str(exc), 2)
    except SystemExit as exc:
        if isinstance(exc.code, int):
            return exc.code
        return _fail("UsageError", str(exc), 2)
    finally:
        set_tolerance(saved)


def entry_point() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry_point()
