"""One-shot size ladder: synthesize and verify at n = d in {3, 10, 20, 40}.

    python3 bench/ladder.py

Prints one row per size for the README's reference figures.  Each size
runs once on a seeded random conjugate set, so the figures are indicative,
not steady; the workloads in ``run.py`` are what changes are judged by.
"""
from __future__ import annotations

import os
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import numpy as np  # noqa: E402

import checks  # noqa: E402
from qnot import serialize, simulator, synthesis  # noqa: E402
from workloads import conjugate_set, random_independent  # noqa: E402

SIZES = (3, 10, 20, 40)
JSON_MAX_N = 20   # the JSON of the n = d = 40 unitary is about 120 MB


def main() -> int:
    print("| n = d | D | synthesize s | verify s | unitary MB | JSON MB | JSON s |")
    print("|---|---|---|---|---|---|---|")
    for n in SIZES:
        psi = random_independent(np.random.default_rng(n), n, n)
        ss = conjugate_set(psi)
        t0 = time.perf_counter()
        machine, report = synthesis.synthesize(ss)
        t1 = time.perf_counter()
        sim = simulator.verify_machine(machine, ss)
        t2 = time.perf_counter()
        checks.check_conjugating_machine(psi, machine.unitary, machine.probe_dim,
                                         report.epsilon)
        if not sim.all_ok:
            raise checks.CheckFailed(f"n = {n}: verify_machine flagged states")
        size = seconds = "-"
        if n <= JSON_MAX_N:
            t3 = time.perf_counter()
            text = json.dumps(serialize.machine_to_dict(machine), indent=2)
            seconds = f"{time.perf_counter() - t3:.3f}"
            size = f"{len(text) / 1e6:.2f}"
        print(f"| {n} | {machine.total_dim} | {t1 - t0:.3f} | {t2 - t1:.3f} | "
              f"{machine.unitary.nbytes / 1e6:.2f} | {size} | {seconds} |")
    return 0


if __name__ == "__main__":
    sys.exit(main())
