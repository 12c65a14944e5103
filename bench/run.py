"""pfgraph benchmark: seeded workloads, drift-normalised times, checked outputs.

Run from the repository root:

    python3 bench/run.py --workload large-graph --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1          # every workload, one table

Every workload runs in a fresh interpreter (``worker.py``) with a fixed
hash seed, PFG_EPSILON unset and the checkout's ``src`` on PYTHONPATH,
after the package's bytecode has been compiled.  Times are reported in
``ref``: seconds divided by the rolling median of a calibration kernel
timed between operations in the same process, which cancels most of the
machine's speed drift.  ``setup_s`` is the median of several fresh
set-ups, in seconds scaled the same way to a nominal kernel speed; the raw
seconds are in the meta line.

The last line of output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).  The line before it, prefixed
``meta``, holds what is recorded but not gated: the kernel's raw ms, raw
ms figures beside the ``ref`` ones, fail_ratio, sample counts and search
attempt counts against the pinned baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH_DIR)

from harness import WORKLOAD_NAMES, hermetic_env  # noqa: E402

SETUP_RUNS = 5  # fresh set-ups per workload; the real run's set-up is one of them
DEADLINE_S = 175.0


class BenchError(Exception):
    pass


def spawn_worker(root: str, env: dict, args: argparse.Namespace, workload: str,
                 extra: list[str], timeout: float) -> dict:
    argv = [sys.executable, os.path.join(BENCH_DIR, "worker.py"),
            "--workload", workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--root", root, *extra]
    argv += ["--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(argv, env=env, cwd=root, stdout=subprocess.PIPE, text=True,
                              timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: worker exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload}: worker exited with {proc.returncode}")
    return json.loads(lines[-1])


def pinned_attempts(workload: str) -> dict:
    with open(os.path.join(BENCH_DIR, "pins.json"), encoding="utf-8") as handle:
        return json.load(handle)["attempts"].get(workload, {})


def run_workload(root: str, env: dict, args: argparse.Namespace, workload: str,
                 started: float) -> tuple[dict, dict, dict]:
    """Returns (result counts, metrics, meta) for one workload."""
    def remaining() -> float:
        return DEADLINE_S - (time.monotonic() - started)

    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS - 1):
            setups.append(spawn_worker(root, env, args, workload, ["--setup-only"], remaining()))
    out = spawn_worker(root, env, args, workload, [], remaining())
    setups.append(out)
    plain = out["plain"]
    if not plain["p90_supported"] and not args.trace:
        raise BenchError(f"{workload}: {plain['timed_ops']} ops leave fewer than 10 beyond p90")

    if args.trace:
        metrics = out["layers"]
    else:
        metrics = {
            "setup_s": {"value": statistics.median(s["setup_s"] for s in setups), "unit": "s"},
            "wall_ref": {"value": plain["wall_ref"], "unit": "ref"},
            "op_ref_p50": {"value": plain["op_ref_p50"], "unit": "ref"},
            "op_ref_p90": {"value": plain["op_ref_p90"], "unit": "ref"},
            "peak_rss_mb": {"value": out["peak_rss_mb"], "unit": "MB"},
        }
    pinned = pinned_attempts(workload)
    meta = {
        "workload": workload,
        "seed": args.seed,
        "trace": args.trace,
        "fail_ratio": out["failed"] / out["ops"],
        "kernel_ms": out["kernel_ms"],
        "setup_raw_s": [s["setup_raw_s"] for s in setups],
        "raw": {"wall_ms": plain["wall_ms"], "op_ms_p50": plain["op_ms_p50"],
                "op_ms_p90": plain["op_ms_p90"]},
        "samples": {"timed_ops": plain["timed_ops"], "timed_rounds": plain["timed_rounds"],
                    "beyond_p90": plain["beyond_p90"]},
        "wall_ref_rounds": plain["wall_ref_rounds"],
        "op_ref_p50_by_name": plain["op_ref_p50_by_name"],
        "attempts_per_round": sum(out["attempts"].values()),
        "attempts_equal_pinned": all(pinned.get(k) == v for k, v in out["attempts"].items()),
    }
    if args.trace:
        meta["counts_repeat"] = out["counts_repeat"]
        meta["trace_file"] = out["trace_file"]
    return {"attempted": out["ops"], "failed": out["failed"]}, metrics, meta


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description="pfgraph benchmark")
    ap.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "pfgraph", "__init__.py")):
        print("error: no src/pfgraph here; run from the root of a pfgraph checkout",
              file=sys.stderr)
        return 2
    env = hermetic_env(root)
    subprocess.run([sys.executable, "-m", "compileall", "-q", "src/pfgraph", BENCH_DIR],
                   env=env, cwd=root, check=True, stdout=subprocess.DEVNULL)

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    total = {"attempted": 0, "failed": 0}
    metrics: dict[str, dict] = {}
    try:
        for name in names:
            counts, wl_metrics, meta = run_workload(root, env, args, name, time.monotonic())
            for key in total:
                total[key] += counts[key]
            for metric, value in wl_metrics.items():
                print(f"{name:12} {metric:32} {value['value']:>14.6g} {value['unit']}")
                metrics[metric if len(names) == 1 else f"{name}.{metric}"] = value
            print("meta " + json.dumps(meta))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print(json.dumps({"correct": total["failed"] == 0, **total, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
