"""The four benchmark workloads: seeded inputs, one round of operations, checks.

Every input comes from a fixed pool whose items are generated from their
pool index alone; ``--seed`` chooses which pool items a run uses and in
what order.  That keeps the known answers pinnable: ``pins.json`` holds,
per pool item and operation, a digest of the seed code's output (rendered
bytes, DOT text, classification, lexicographically least witness), and
``pin.py`` regenerates it.  Each round rebuilds fresh graph objects from
plain data, so nothing a graph caches survives into the next round.

An operation is a zero-argument call that is timed, plus a check that is
not: the check returns a digest to compare with the pin and a list of
problems found by property checks (validity of outputs, the complement
involution, round trips, ``verify_morphism`` on witnesses, verdicts known
by construction).
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from typing import Callable, NamedTuple

import pfgraph as pf
from harness import WORKLOAD_NAMES, hermetic_env
from pfgraph import GenConfig, MorphismKind, PFDegree, PFGraph

ISO = MorphismKind.ISOMORPHISM


class Op(NamedTuple):
    name: str
    key: str
    call: Callable[[], object]
    check: Callable[[object], tuple[str, list[str]]]


# --- helpers -------------------------------------------------------------------


def digest(*parts: str) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part.encode("utf-8"))
        h.update(b"\x1f")
    return h.hexdigest()[:16]


def to_raw(g: PFGraph) -> tuple:
    return (
        tuple((v, d.mu, d.nu) for v, d in g.vertices.items()),
        tuple((k.lo, k.hi, d.mu, d.nu) for k, d in g.edges.items()),
    )


def build(raw: tuple) -> PFGraph:
    vertices, edges = raw
    return PFGraph(
        {v: PFDegree(mu, nu) for v, mu, nu in vertices},
        {(lo, hi): PFDegree(mu, nu) for lo, hi, mu, nu in edges},
    )


def graph_digest(g: PFGraph) -> str:
    vertices = sorted((v, d.mu, d.nu) for v, d in g.vertices.items())
    edges = sorted((k.lo, k.hi, d.mu, d.nu) for k, d in g.edges.items())
    return digest(repr(vertices), repr(edges))


def witness_text(report) -> str:
    if not report.found:
        return "none"
    return json.dumps(report.witness, sort_keys=True)


def check_valid_graph(g) -> tuple[str, list[str]]:
    problems = [] if pf.validate(g).ok else ["output graph fails validate"]
    return graph_digest(g), problems


def check_valid_report(report) -> tuple[str, list[str]]:
    return "ok", ([] if report.ok else ["valid input reported invalid"])


def check_true(value) -> tuple[str, list[str]]:
    return "true", ([] if value is True else [f"expected True, got {value!r}"])


def check_classification(c) -> tuple[str, list[str]]:
    return digest(json.dumps(c.as_dict(), sort_keys=True)), []


def check_sums(r) -> tuple[str, list[str]]:
    # totals are compared to 10 significant digits, so summation order is free
    return digest(f"{r.lhs_mu:.10g} {r.rhs_mu:.10g} {r.lhs_nu:.10g} {r.rhs_nu:.10g}",
                  str(r.holds_mu), str(r.holds_nu)), []


def check_text(text) -> tuple[str, list[str]]:
    return digest(text), []


def check_parsed(expected: PFGraph):
    def check(g) -> tuple[str, list[str]]:
        return "eq", ([] if g == expected else ["parse(render(g)) != g"])
    return check


def verified(g1, g2, kind, report) -> tuple:
    """A search report with ``verify_morphism``'s check of its witness, if any."""
    return report, (pf.verify_morphism(g1, g2, kind, report.witness) if report.found else None)


def find_verified(g1, g2, kind, cap: int = pf.DEFAULT_SEARCH_CAP) -> Callable[[], tuple]:
    """One search verdict as an operation: the search, then its witness check."""
    return lambda: verified(g1, g2, kind, pf.find_morphism(g1, g2, kind, cap=cap))


def check_search(expected_found: bool, attempts: dict, key: str):
    def check(out) -> tuple[str, list[str]]:
        report, verified = out
        attempts[key] = report.search_space
        problems = []
        if report.found != expected_found:
            problems.append(f"verdict {report.found}, constructed answer {expected_found}")
        if report.found and not verified.ok:
            problems.append("witness fails verify_morphism")
        return witness_text(report), problems
    return check


PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")


def load_pins() -> dict:
    with open(PINS_PATH, encoding="utf-8") as handle:
        return json.load(handle)


class Workload:
    """Inputs for one seed; ``full_pool`` selects every pool item (for pinning)."""

    name = ""
    runs_children = False  # peak memory is that of the child processes

    def __init__(self, seed: int, root: str, full_pool: bool = False) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")
        self.root = root
        self.full_pool = full_pool
        self.attempts: dict[str, int] = {}

    def pick(self, pool_size: int, k: int) -> list[int]:
        if self.full_pool:
            return list(range(pool_size))
        return self.rng.sample(range(pool_size), k)

    def warm_up(self) -> None:
        """Run a few operations untimed so code paths are hot before timing."""
        raise NotImplementedError

    def round(self) -> list[Op]:
        raise NotImplementedError

    def baselines(self) -> list[tuple[str, Callable[[], object]]]:
        """Reference processes timed alongside traced rounds, as (span name, call)."""
        return []

    def close(self) -> None:
        pass


# --- large-graph -----------------------------------------------------------------

# Sizes are fixed per slot so every seed gives the same mix of costs; spread
# around n=200, they make per-operation times overlap instead of clustering.
GENERAL_SIZES = (160, 200, 240)
STRONG_SIZES = (180, 220)
PRODUCT_SIZES = (12, 15, 18)


def general_config(n: int, i: int) -> GenConfig:
    return GenConfig(seed=1000 * n + i, n_vertices=n, edge_probability=0.5)


def strong_config(n: int, i: int) -> GenConfig:
    return GenConfig(seed=1000 * n + 500 + i, n_vertices=n, edge_probability=0.5,
                     family="strong")


def product_configs(n: int, i: int) -> tuple[GenConfig, GenConfig]:
    return (GenConfig(seed=1000 * n + 2 * i, n_vertices=n, edge_probability=0.5),
            GenConfig(seed=1000 * n + 2 * i + 1, n_vertices=n, edge_probability=0.5))


class LargeGraph(Workload):
    """General graphs at n=160/200/240, strong ones at n=180/220, product pairs at n=12-18."""

    name = "large-graph"
    POOL = 8

    def __init__(self, seed: int, root: str, full_pool: bool = False) -> None:
        super().__init__(seed, root, full_pool)
        self.general = {f"{n}/{i}": to_raw(pf.generate(general_config(n, i)))
                        for n in GENERAL_SIZES for i in self.pick(self.POOL, 1)}
        self.strong = {f"{n}/{i}": to_raw(pf.generate(strong_config(n, i)))
                       for n in STRONG_SIZES for i in self.pick(self.POOL, 1)}
        self.pairs = {f"{n}/{i}": tuple(to_raw(pf.generate(c)) for c in product_configs(n, i))
                      for n in PRODUCT_SIZES for i in self.pick(self.POOL, 1)}
        small = pf.generate(GenConfig(seed=1, n_vertices=12))
        strong_small = pf.generate(GenConfig(seed=2, n_vertices=12, family="strong"))
        self._warm = (small, strong_small)

    def warm_up(self) -> None:
        small, strong_small = self._warm
        pf.validate(small)
        pf.graphs_close(pf.complement(pf.complement(small)), small)
        pf.classify(small)
        pf.sum_identity(small)
        pf.parse(pf.render(small))
        pf.to_dot(small)
        pf.strong_complement(strong_small)
        pf.composition(small, small)
        pf.cartesian_product(small, small)

    def round(self) -> list[Op]:
        ops: list[Op] = []
        for i, raw in self.general.items():
            g = build(raw)
            key = f"general/{i}"
            doc: dict[str, str] = {}

            def render(g=g, doc=doc):
                doc["text"] = pf.render(g)
                return doc["text"]

            ops += [
                Op("validate", f"{key}/validate", lambda g=g: pf.validate(g), check_valid_report),
                Op("complement", f"{key}/complement", lambda g=g: pf.complement(g), check_valid_graph),
                Op("involution", f"{key}/involution",
                   lambda g=g: pf.graphs_close(pf.complement(pf.complement(g)), g), check_true),
                Op("classify", f"{key}/classify", lambda g=g: pf.classify(g), check_classification),
                Op("sum_identity", f"{key}/sum_identity", lambda g=g: pf.sum_identity(g), check_sums),
                Op("render", f"{key}/render", render, check_text),
                Op("parse", f"{key}/parse", lambda doc=doc: pf.parse(doc["text"]), check_parsed(g)),
                Op("to_dot", f"{key}/to_dot", lambda g=g: pf.to_dot(g), check_text),
            ]
        for i, raw in self.strong.items():
            g = build(raw)
            key = f"strong/{i}"
            ops += [
                Op("validate", f"{key}/validate", lambda g=g: pf.validate(g), check_valid_report),
                Op("strong_complement", f"{key}/strong_complement",
                   lambda g=g: pf.strong_complement(g), check_valid_graph),
                Op("classify", f"{key}/classify", lambda g=g: pf.classify(g), check_classification),
                Op("render", f"{key}/render", lambda g=g: pf.render(g), check_text),
            ]
        for i, (raw1, raw2) in self.pairs.items():
            g1, g2 = build(raw1), build(raw2)
            key = f"pair/{i}"
            ops += [
                Op("cartesian_product", f"{key}/cartesian_product",
                   lambda g1=g1, g2=g2: pf.cartesian_product(g1, g2), check_valid_graph),
                Op("composition", f"{key}/composition",
                   lambda g1=g1, g2=g2: pf.composition(g1, g2), check_valid_graph),
            ]
        return ops


# --- search-hard -----------------------------------------------------------------

UNIFORM = PFDegree(0.6, 0.3)  # vertices and edges alike: every edge sits at its bound


def uniform_raw(labels: list[str], pairs: list[tuple[str, str]]) -> tuple:
    return (tuple((v, UNIFORM.mu, UNIFORM.nu) for v in labels),
            tuple((u, v, UNIFORM.mu, UNIFORM.nu) for u, v in pairs))


def clique_raw(n: int) -> tuple:
    labels = [f"v{i}" for i in range(n)]
    return uniform_raw(labels, [(labels[i], labels[j]) for i in range(n) for j in range(i + 1, n)])


def cycles_raw(count: int, length: int) -> tuple:
    labels, pairs = [], []
    for c in range(count):
        ring = [f"c{c}_{i:02d}" for i in range(length)]
        labels += ring
        pairs += [(ring[i], ring[(i + 1) % length]) for i in range(length)]
    return uniform_raw(labels, pairs)


def paley9_raw() -> tuple:
    """K3 x K3 (the Paley graph on 9 vertices) with every edge at its bound."""
    cells = [(r, c) for r in range(3) for c in range(3)]
    labels = [f"p{r}{c}" for r, c in cells]
    pairs = [(f"p{a}{b}", f"p{c}{d}") for i, (a, b) in enumerate(cells)
             for (c, d) in cells[i + 1:] if a == c or b == d]
    return uniform_raw(labels, pairs)


def degree_sequence(labels, pairs) -> list[int]:
    deg = {v: 0 for v in labels}
    for u, v in pairs:
        deg[u] += 1
        deg[v] += 1
    return sorted(deg.values())


def search_pair(i: int) -> tuple[tuple, tuple, bool]:
    """Pool item i: a uniform-degree graph on 8-10 vertices and a relabelled copy.

    Odd strata move one edge before relabelling so the degree sequence
    changes, which rules out an isomorphism by construction.
    """
    rng = random.Random(f"search-pair:{i}")
    n = 8 + i % 3
    iso_exists = (i // 3) % 2 == 0
    labels = [f"v{k}" for k in range(n)]
    while True:
        pairs = [(labels[a], labels[b]) for a in range(n) for b in range(a + 1, n)
                 if rng.random() < 0.5]
        edges = set(pairs)
        moves = [
            ((u, w), tuple(sorted((u, x))))
            for (u, w) in pairs for x in labels
            if x not in (u, w) and tuple(sorted((u, x))) not in edges
        ]
        if pairs and moves:
            break
    target_pairs = list(pairs)
    if not iso_exists:
        seq = degree_sequence(labels, pairs)
        rng.shuffle(moves)
        for old, new in moves:
            moved = [p for p in pairs if p != old] + [new]
            if degree_sequence(labels, moved) != seq:
                target_pairs = moved
                break
        else:
            raise AssertionError(f"search pair {i}: no edge move changes the degree sequence")
    image = dict(zip(labels, rng.sample(labels, n)))
    relabelled = [(image[u], image[v]) for u, v in target_pairs]
    return uniform_raw(labels, pairs), uniform_raw(labels, relabelled), iso_exists


class SearchHard(Workload):
    """Morphism searches whose answers are known by construction."""

    name = "search-hard"
    STRATA = 6
    PER_STRATUM = 64
    PICK_PER_STRATUM = 17

    FIXED_KINDS = (MorphismKind.ISOMORPHISM, MorphismKind.WEAK_ISOMORPHISM,
                   MorphismKind.COWEAK_ISOMORPHISM)

    def __init__(self, seed: int, root: str, full_pool: bool = False) -> None:
        super().__init__(seed, root, full_pool)
        picked: list[int] = []
        for s in range(self.STRATA):
            stratum = [s + self.STRATA * k for k in range(self.PER_STRATUM)]
            picked += stratum if full_pool else self.pick_by_difficulty(stratum)
        if not full_pool:
            self.rng.shuffle(picked)
        self.pairs = {i: search_pair(i) for i in picked}
        self.cliques = {n: (clique_raw(n), clique_raw(n - 1)) for n in (5, 6, 7, 8)}
        c12, c3x4, c10, c5x2 = cycles_raw(1, 12), cycles_raw(4, 3), cycles_raw(1, 10), cycles_raw(2, 5)
        self.cycles = {"C12->4C3": (c12, c3x4), "4C3->C12": (c3x4, c12),
                       "C10->2C5": (c10, c5x2), "2C5->C10": (c5x2, c10)}
        self.paley = paley9_raw()

    def pick_by_difficulty(self, stratum: list[int]) -> list[int]:
        """One pair from each of PICK_PER_STRATUM bins of the stratum sorted by
        the seed code's attempt count, so every seed gets the same mix of
        easy and hard searches."""
        attempts = load_pins()["attempts"][self.name]
        ranked = sorted(stratum, key=lambda i: (attempts[f"pair/{i}"], i))
        k, bins = len(ranked), self.PICK_PER_STRATUM
        return [self.rng.choice(ranked[b * k // bins:(b + 1) * k // bins]) for b in range(bins)]

    def round(self) -> list[Op]:
        ops: list[Op] = []
        homo = MorphismKind.HOMOMORPHISM
        for n, (raw1, raw2) in self.cliques.items():
            g1, g2 = build(raw1), build(raw2)
            key = f"K{n}->K{n - 1}"
            ops.append(Op("clique", key, find_verified(g1, g2, homo),
                          check_search(False, self.attempts, key)))
        for name, (raw1, raw2) in self.cycles.items():
            for kind in self.FIXED_KINDS:
                g1, g2 = build(raw1), build(raw2)
                key = f"{name}/{kind.value}"
                ops.append(Op("cycles", key, find_verified(g1, g2, kind, cap=12),
                              check_search(False, self.attempts, key)))
        p9 = build(self.paley)
        p9_complement = pf.complement(p9)
        ops.append(Op("paley9", "paley9",
                      lambda: verified(p9, p9_complement, ISO, pf.is_self_complementary(p9)),
                      check_search(True, self.attempts, "paley9")))
        for i, (raw1, raw2, iso_exists) in self.pairs.items():
            g1, g2 = build(raw1), build(raw2)
            key = f"pair/{i}"
            ops.append(Op("pair", key, find_verified(g1, g2, ISO, cap=10),
                          check_search(iso_exists, self.attempts, key)))
        return ops

    def warm_up(self) -> None:
        for op in self.round()[-2:]:
            op.check(op.call())
        self.attempts.clear()


# --- small-batch -----------------------------------------------------------------

SMALL_FAMILIES = ("general", "general", "strong", "half_strong")


def small_item(i: int) -> tuple[GenConfig, list[int]]:
    n = 4 + i % 5
    cfg = GenConfig(seed=50_000 + i, n_vertices=n, edge_probability=0.5,
                    family=SMALL_FAMILIES[(i // 5) % 4], quantize=2)
    return cfg, random.Random(f"small-perm:{i}").sample(range(n), n)


def relabel_raw(raw: tuple, perm: list[int]) -> tuple:
    vertices, edges = raw
    image = {v: f"v{perm[k]}" for k, (v, _, _) in enumerate(vertices)}
    return (tuple((image[v], mu, nu) for v, mu, nu in vertices),
            tuple((image[u], image[v], mu, nu) for u, v, mu, nu in edges))


class SmallBatch(Workload):
    """A thousand n=4-8 graphs, each taken once per round through the full chain."""

    name = "small-batch"
    POOL = 2048
    CELLS = 20  # pool item i has size and family given by i % 20, see small_item()
    PER_CELL = 50

    def __init__(self, seed: int, root: str, full_pool: bool = False) -> None:
        super().__init__(seed, root, full_pool)
        picked = list(range(self.POOL))
        if not full_pool:
            # the same count of every size and family for every seed
            picked = [i for c in range(self.CELLS)
                      for i in self.rng.sample(range(c, self.POOL, self.CELLS), self.PER_CELL)]
            self.rng.shuffle(picked)
        self.items = {}
        for i in picked:
            cfg, perm = small_item(i)
            raw = to_raw(pf.generate(cfg))
            self.items[i] = (raw, relabel_raw(raw, perm))

    def warm_up(self) -> None:
        for op in self.round()[:20]:
            op.check(op.call())

    @staticmethod
    def chain(g: PFGraph, copy: PFGraph) -> tuple:
        report = pf.validate(g)
        comp = pf.complement(g)
        involution = pf.graphs_close(pf.complement(comp), g)
        flags = pf.classify(g)
        sums = pf.sum_identity(g)
        doc = pf.render(g)
        back = pf.parse(doc)
        selfcomp = pf.is_self_complementary(g)
        selfcomp_ok = pf.verify_morphism(g, comp, ISO, selfcomp.witness) if selfcomp.found else None
        iso = pf.find_morphism(g, copy, ISO)
        iso_ok = pf.verify_morphism(g, copy, ISO, iso.witness) if iso.found else None
        return report, comp, involution, flags, sums, doc, back, selfcomp, selfcomp_ok, iso, iso_ok

    @staticmethod
    def check_chain(g: PFGraph, copy: PFGraph):
        def check(out) -> tuple[str, list[str]]:
            report, comp, involution, flags, sums, doc, back, selfcomp, selfcomp_ok, iso, iso_ok = out
            problems = []
            if not report.ok:
                problems.append("valid input reported invalid")
            if not pf.validate(comp).ok:
                problems.append("complement fails validate")
            if involution is not True:
                problems.append("complement is not an involution")
            if back != g:
                problems.append("parse(render(g)) != g")
            if selfcomp.found and not selfcomp_ok.ok:
                problems.append("self-complement witness fails verify_morphism")
            if not iso.found:
                problems.append("no isomorphism to a relabelled copy")
            elif not iso_ok.ok:
                problems.append("isomorphism witness fails verify_morphism")
            fingerprint = digest(doc, graph_digest(comp), check_classification(flags)[0],
                                 check_sums(sums)[0], witness_text(selfcomp), witness_text(iso))
            return fingerprint, problems
        return check

    def round(self) -> list[Op]:
        ops = []
        for i, (raw, raw_copy) in self.items.items():
            g, copy = build(raw), build(raw_copy)
            ops.append(Op("chain", str(i), lambda g=g, copy=copy: self.chain(g, copy),
                          self.check_chain(g, copy)))
        return ops


# --- cli-pipe --------------------------------------------------------------------

# n=5 is nearly all start-up; n=100 documents are ~250 KB.  The sizes between
# keep per-process times spread evenly instead of in two clusters.
CLI_SIZES = (5, 25, 50, 75, 100)


def run_process(argv: list[str], stdin: str | None, env: dict,
                cwd: str) -> subprocess.CompletedProcess:
    return subprocess.run(argv, input=stdin, capture_output=True, text=True,
                          env=env, cwd=cwd, timeout=120)


def check_cli(expect_json: Callable[[dict], list[str]] | None = None):
    def check(res: subprocess.CompletedProcess) -> tuple[str, list[str]]:
        problems = []
        if res.returncode != 0:
            problems.append(f"exit {res.returncode}: {res.stderr.strip()[:200]}")
        elif res.stderr:
            problems.append(f"unexpected stderr: {res.stderr.strip()[:200]}")
        text = res.stdout
        if expect_json is not None and not problems:
            payload = json.loads(res.stdout)
            problems += expect_json(payload)
            payload.pop("search_space", None)
            text = json.dumps(payload, sort_keys=True)
        return digest(text), problems
    return check


class CliPipe(Workload):
    """``python -m pfgraph.cli`` chains, one process alive at a time."""

    name = "cli-pipe"
    POOL = 16
    runs_children = True

    def __init__(self, seed: int, root: str, full_pool: bool = False) -> None:
        super().__init__(seed, root, full_pool)
        self.env = hermetic_env(root)
        self.workdir = os.path.join(root, ".bench_build", f"cli-{os.getpid()}")
        os.makedirs(self.workdir, exist_ok=True)
        self.specs = [(n, 70_000 + 100 * n + i) for n in CLI_SIZES for i in self.pick(self.POOL, 1)]
        self.docs: dict[int, str] = {}

    def cli(self, args: list[str], stdin: str | None = None) -> subprocess.CompletedProcess:
        return run_process([sys.executable, "-m", "pfgraph.cli", *args], stdin, self.env, self.root)

    def warm_up(self) -> None:
        """Generate each input once and keep it as the iso operand on disk."""
        for n, seed in self.specs:
            res = self.cli(["gen", "--seed", str(seed), "--n", str(n)])
            if res.returncode != 0:
                raise RuntimeError(f"pfgraph gen failed in warm-up: {res.stderr}")
            path = os.path.join(self.workdir, f"gen-{seed}.json")
            with open(path, "w", encoding="utf-8") as handle:
                handle.write(res.stdout)
            self.docs[seed] = path

    def round(self) -> list[Op]:
        ops = []
        for n, seed in self.specs:
            key = f"{n}/{seed}"
            out: dict[str, str] = {}

            def step(args, stdin_from=None, store=None, out=out):
                def call():
                    res = self.cli(args, out.get(stdin_from) if stdin_from else None)
                    if store:
                        out[store] = res.stdout
                    return res
                return call

            def iso_ok(payload, n=n, key=key):
                witness = payload.get("witness") or {}
                problems = [] if payload.get("found") else ["identity isomorphism not found"]
                if any(k != v for k, v in witness.items()) or len(witness) != n:
                    problems.append("witness is not the identity")
                self.attempts[key] = payload.get("search_space", 0)
                return problems

            ops += [
                Op("cli.gen", f"{key}/gen",
                   step(["gen", "--seed", str(seed), "--n", str(n)], store="doc"), check_cli()),
                Op("cli.op", f"{key}/op",
                   step(["op", "complement", "-"], "doc", "comp"), check_cli()),
                Op("cli.validate", f"{key}/validate", step(["validate", "-"], "comp"),
                   check_cli(lambda p: [] if p.get("valid") is True else ["complement invalid"])),
                Op("cli.classify", f"{key}/classify", step(["classify", "-"], "doc"),
                   check_cli(lambda p: [])),
                Op("cli.iso", f"{key}/iso",
                   step(["iso", self.docs[seed], "-", "--cap", str(n)], "doc"), check_cli(iso_ok)),
            ]
        return ops

    def baselines(self) -> list[tuple[str, Callable[[], object]]]:
        py = sys.executable
        return [
            ("cli.bare", lambda: run_process([py, "-c", "pass"], None, self.env, self.root)),
            ("cli.import", lambda: run_process([py, "-c", "import pfgraph.cli"], None,
                                               self.env, self.root)),
        ]

    def close(self) -> None:
        for path in self.docs.values():
            os.remove(path)
        os.rmdir(self.workdir)


WORKLOADS = {w.name: w for w in (LargeGraph, SearchHard, SmallBatch, CliPipe)}
assert tuple(WORKLOADS) == WORKLOAD_NAMES
