"""Regenerate ``pins.json``: the known answers every benchmark run checks against.

Runs every operation of every workload over its whole input pool, with the
same property checks a benchmark run makes, and records each output's
digest and each search's attempt count.  Run it from the repository root
on the code whose outputs are the reference (the seed code); a run on
changed code would pin the change's outputs instead:

    python3 bench/pin.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


def pin_workload(name: str, root: str) -> tuple[dict, dict]:
    from workloads import WORKLOADS

    workload = WORKLOADS[name](0, root, full_pool=True)
    pins = {}
    try:
        workload.warm_up()
        workload.attempts.clear()
        for op in workload.round():
            fingerprint, problems = op.check(op.call())
            if problems:
                raise SystemExit(f"{name} {op.key}: {'; '.join(problems)}")
            pins[op.key] = fingerprint
    finally:
        workload.close()
    return pins, dict(sorted(workload.attempts.items()))


def main() -> int:
    root = os.getcwd()
    if "--child" not in sys.argv:
        # re-run in the same environment the benchmark's workers get
        sys.path.insert(0, BENCH_DIR)
        from harness import hermetic_env

        return subprocess.call([sys.executable, __file__, "--child"], env=hermetic_env(root))
    from harness import WORKLOAD_NAMES

    out = {
        "about": "Digests of the seed code's outputs per pool item and operation, "
                 "and attempt counts per search; regenerate with bench/pin.py.",
        "pins": {},
        "attempts": {},
    }
    for name in WORKLOAD_NAMES:
        out["pins"][name], attempts = pin_workload(name, root)
        if attempts:
            out["attempts"][name] = attempts
        print(f"{name}: {len(out['pins'][name])} pins", file=sys.stderr)
    with open(os.path.join(BENCH_DIR, "pins.json"), "w", encoding="utf-8") as handle:
        json.dump(out, handle, indent=0, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
