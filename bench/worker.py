"""Run one workload in a fresh interpreter and print its measurements as JSON.

Started by ``run.py`` with the hermetic environment; not meant to be run by
hand.  Set-up (import, input generation, warm-up) is timed from the moment
the parent spawned this process, and scaled to seconds on a nominal machine
where the calibration kernel takes NOMINAL_KERNEL_S.  The timed phase then
runs whole rounds of operations until ``--seconds`` have passed and at least
MIN_TIMED_OPS operations ran after the first, settling round.  With
``--trace 1`` the phase is split: an untraced half, then a traced half whose
spans give the per-layer numbers.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time

from harness import (
    NOMINAL_KERNEL_S,
    WORKLOAD_NAMES,
    Calibration,
    Tracer,
    percentile,
    self_times,
    tail_percentile,
)

MIN_TIMED_OPS = 100  # so that at least 10 samples lie beyond p90
HARD_LIMIT_S = 120.0  # stop starting rounds after this, whatever MIN_TIMED_OPS says
SETUP_OP = -1
BASELINE_OP = -2

LAYER_FUNCTIONS = {
    "core": ("validate", "graphs_close"),
    "algebra": ("complement", "strong_complement", "cartesian_product", "composition"),
    "classify": ("classify", "sum_identity", "is_self_complementary"),
    "morphism": ("find_morphism", "verify_morphism"),
    "graph_io": ("parse", "render", "to_dot"),
    "generate": ("generate",),
}
CLI_SUBCOMMANDS = ("gen", "op", "validate", "classify", "iso")


def per_layer_metrics() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in report order."""
    out = []
    for layer, functions in LAYER_FUNCTIONS.items():
        for fn in functions:
            out += [(f"{layer}.{fn}.calls", "count", "lower"), (f"{layer}.{fn}.ref", "ref", "lower")]
            if layer == "graph_io":
                out.append((f"{layer}.{fn}.bytes", "bytes", "lower"))
        if layer == "core":
            out.append(("core.pairs_scanned", "count", "lower"))
        if layer == "algebra":
            out.append(("algebra.edges_out", "count", "lower"))
        if layer == "morphism":
            out += [("morphism.attempts", "count", "lower"), ("morphism.useful_ratio", "ratio", "higher")]
    out += [("cli.bare.ref", "ref", "lower"), ("cli.import.ref", "ref", "lower")]
    out += [(f"cli.{sub}.ref", "ref", "lower") for sub in CLI_SUBCOMMANDS]
    out.append(("trace.overhead", "ratio", "lower"))
    return out


def _pairs(args, result):
    n = len(args[0].vertices)
    return [("core.pairs_scanned", n * (n - 1) // 2)]


def _edges_out(args, result):
    return [("algebra.edges_out", len(result.edges))]


def _search(args, result):
    return [("morphism.attempts", result.search_space),
            ("morphism.witness_vertices", len(result.witness) if result.found else 0)]


def _bytes_in(name):
    return lambda args, result: [(name, len(args[0].encode("utf-8")))]


def _bytes_out(name):
    return lambda args, result: [(name, len(result.encode("utf-8")))]


COUNTERS = {
    "core.validate": _pairs,
    "core.graphs_close": _pairs,
    "algebra.complement": _edges_out,
    "algebra.strong_complement": _edges_out,
    "algebra.cartesian_product": _edges_out,
    "algebra.composition": _edges_out,
    "morphism.find_morphism": _search,
    "graph_io.parse": _bytes_in("graph_io.parse.bytes"),
    "graph_io.render": _bytes_out("graph_io.render.bytes"),
    "graph_io.to_dot": _bytes_out("graph_io.to_dot.bytes"),
}


def trace_targets() -> dict:
    targets = {}
    for layer, functions in LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"pfgraph.{layer}")
        for fn in functions:
            name = f"{layer}.{fn}"
            targets[name] = (getattr(module, fn), COUNTERS.get(name))
    return targets


class Runner:
    """Runs rounds, times each operation against the calibration kernel, checks outputs."""

    def __init__(self, workload, pins: dict, calibration: Calibration, tracer: Tracer | None):
        self.workload = workload
        self.pins = pins
        self.calibration = calibration
        self.tracer = tracer
        self.next_op = 0
        self.op_round: dict[int, int] = {}
        self.failures: list[str] = []

    def verify(self, op, result) -> list[str]:
        try:
            fingerprint, problems = op.check(result)
        except Exception as exc:  # a crashing check is a failed operation, not a crashed run
            return [f"check raised {type(exc).__name__}: {exc}"]
        expected = self.pins.get(op.key)
        if expected is None:
            problems.append("no pinned answer")
        elif fingerprint != expected:
            problems.append(f"output digest {fingerprint} differs from pinned {expected}")
        return problems

    def run_round(self, round_index: int) -> list[tuple[str, float, float, bool]]:
        records = []
        tracer = self.tracer
        for op in self.workload.round():
            self.calibration.maybe_sample()
            op_id = self.next_op
            self.next_op += 1
            self.op_round[op_id] = round_index
            if tracer is not None:
                tracer.op_id = op_id
                tracer.recording = True
                span = tracer.open(op.name)
            error = None
            t0 = time.perf_counter()
            try:
                result = op.call()
            except Exception as exc:  # counted in fail_ratio; the run goes on
                error = f"{type(exc).__name__}: {exc}"
            seconds = time.perf_counter() - t0
            if tracer is not None:
                tracer.close(span)
                tracer.recording = False
            problems = [error] if error else self.verify(op, result)
            if problems:
                self.failures.append(f"{op.key}: {'; '.join(problems)}")
            records.append((op.name, seconds, seconds / self.calibration.unit(), bool(problems)))
        return records

    def run_phase(self, seconds: float, min_ops: int, min_rounds: int, started: float) -> list:
        rounds = []
        start = time.perf_counter()
        while True:
            if self.tracer is not None:
                self.tracer.counts = {}
            records = self.run_round(len(rounds))
            counts = dict(self.tracer.counts) if self.tracer is not None else {}
            rounds.append((records, counts))
            if self.tracer is not None:
                self.run_baselines()
            now = time.perf_counter()
            timed_ops = sum(len(r) for r, _ in rounds[1:])
            if now - started >= HARD_LIMIT_S and len(rounds) >= 2:
                break
            if now - start >= seconds and timed_ops >= min_ops and len(rounds) >= min_rounds:
                break
        return rounds

    def run_baselines(self) -> None:
        """Time the workload's reference processes (bare interpreter, import) as spans."""
        for name, call in self.workload.baselines():
            self.tracer.op_id = BASELINE_OP
            span = self.tracer.open(name)
            call()
            self.tracer.close(span)


def summarize(rounds: list) -> dict:
    """Timing statistics over every round but the first, which lets memory settle."""
    rounds = rounds[1:]
    records = [rec for recs, _ in rounds for rec in recs]
    refs = [r[2] for r in records]
    secs = [r[1] for r in records]
    p90 = percentile(refs, 90.0)
    return {
        "timed_ops": len(records),
        "timed_rounds": len(rounds),
        "wall_ref_rounds": [sum(r[2] for r in recs) for recs, _ in rounds],
        "wall_ref": statistics.median(sum(r[2] for r in recs) for recs, _ in rounds),
        "wall_ms": statistics.median(1000 * sum(r[1] for r in recs) for recs, _ in rounds),
        "op_ref_p50": statistics.median(refs),
        "op_ms_p50": 1000 * statistics.median(secs),
        "op_ref_p90": p90,
        "op_ms_p90": 1000 * percentile(secs, 90.0),
        "beyond_p90": sum(1 for x in refs if x > p90),
        "op_ref_p50_by_name": {name: statistics.median(r[2] for r in records if r[0] == name)
                               for name in sorted({r[0] for r in records})},
        "p90_supported": (tail_percentile(len(refs)) or 0.0) >= 90.0,
    }


def layer_report(tracer: Tracer, runner: Runner, traced: list, setup_counts: dict,
                 overhead: float) -> dict:
    spans = tracer.spans
    own = self_times(spans)
    per_round: dict[int, dict[str, float]] = {}
    setup_ref: dict[str, float] = {}
    baseline: dict[str, list[float]] = {}
    for span, self_s in zip(spans, own):
        ref = self_s / span.unit
        if span.op_id == SETUP_OP:
            setup_ref[span.name] = setup_ref.get(span.name, 0.0) + ref
        elif span.op_id == BASELINE_OP:
            baseline.setdefault(span.name, []).append(ref)
        else:
            bucket = per_round.setdefault(runner.op_round[span.op_id], {})
            bucket[span.name] = bucket.get(span.name, 0.0) + ref
    counts = traced[1][1]
    metrics: dict[str, float] = {}
    for name, unit, _ in per_layer_metrics():
        base, _, kind = name.rpartition(".")
        if name.startswith("generate."):
            value = setup_counts.get(name, 0) if kind == "calls" else setup_ref.get(base, 0.0)
        elif name == "cli.bare.ref":
            value = statistics.median(baseline["cli.bare"]) if "cli.bare" in baseline else 0.0
        elif name == "cli.import.ref":
            value = (statistics.median(baseline["cli.import"]) - statistics.median(baseline["cli.bare"])
                     if "cli.import" in baseline else 0.0)
        elif name == "trace.overhead":
            value = overhead
        elif name == "morphism.useful_ratio":
            attempts = counts.get("morphism.attempts", 0)
            value = counts.get("morphism.witness_vertices", 0) / attempts if attempts else 0.0
        elif kind == "ref":  # the first traced round settles, as in summarize()
            value = statistics.median(per_round[r].get(base, 0.0) for r in range(1, len(traced)))
        else:
            value = counts.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def write_spans(root: str, workload: str, tracer: Tracer) -> str:
    out_dir = os.path.join(root, ".bench_build")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{workload}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        for span, own in zip(tracer.spans, self_times(tracer.spans)):
            handle.write(json.dumps({"name": span.name, "start": span.start, "end": span.end,
                                     "parent": span.parent, "op": span.op_id,
                                     "self_ref": own / span.unit}) + "\n")
    return os.path.relpath(path, root)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--root", required=True)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() in the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import pfgraph

    src = os.path.realpath(os.path.join(args.root, "src")) + os.sep
    if not os.path.realpath(pfgraph.__file__).startswith(src):
        print(f"error: pfgraph imported from {pfgraph.__file__}, not from {src}", file=sys.stderr)
        return 2
    if not gc.isenabled() or "PFG_EPSILON" in os.environ:
        print("error: worker needs GC on and PFG_EPSILON unset", file=sys.stderr)
        return 2
    # one CPU for this process and its children, so the calibration kernel
    # runs where the measured work runs
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

    from workloads import WORKLOADS, load_pins

    pins = load_pins()["pins"][args.workload]

    calibration = Calibration()
    tracer = None
    if args.trace:
        calibration.prime(3)
        tracer = Tracer(calibration)
        tracer.install("pfgraph", trace_targets())
        tracer.op_id = SETUP_OP
        tracer.recording = True
    workload = WORKLOADS[args.workload](args.seed, args.root)
    setup_counts = {}
    if tracer is not None:
        tracer.recording = False
        setup_counts = dict(tracer.counts)
    try:
        workload.warm_up()
        setup_raw_s = time.monotonic() - args.spawned_at
        calibration.prime(calibration.recent.maxlen)
        setup_s = setup_raw_s * NOMINAL_KERNEL_S / calibration.unit()
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
            return 0

        started = time.perf_counter()
        runner = Runner(workload, pins, calibration, None)
        if not args.trace:
            plain = runner.run_phase(args.seconds, MIN_TIMED_OPS, 2, started)
            traced = []
        else:
            plain = runner.run_phase(args.seconds / 2, 0, 2, started)
            runner.tracer = tracer
            traced = runner.run_phase(args.seconds / 2, 0, 3, started)
            tracer.uninstall()
    finally:
        workload.close()

    for failure in runner.failures[:20]:
        print(f"failed: {failure}", file=sys.stderr)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if workload.runs_children
                               else resource.RUSAGE_SELF)
    every = [rec for recs, _ in plain + traced for rec in recs]  # settling rounds too
    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "kernel_ms": 1000 * statistics.median(calibration.history),
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "attempts": dict(sorted(workload.attempts.items())),
        "ops": len(every),
        "failed": sum(1 for rec in every if rec[3]),
        "plain": summarize(plain),
    }
    if traced:
        overhead = summarize(traced)["wall_ref"] / result["plain"]["wall_ref"] - 1
        result["layers"] = layer_report(tracer, runner, traced, setup_counts, overhead)
        result["counts_repeat"] = all(c == traced[0][1] for _, c in traced)
        result["trace_file"] = write_spans(args.root, args.workload, tracer)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
