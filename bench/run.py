"""qnot benchmark: one workload, one closed-loop run, one JSON result line.

    python3 bench/run.py --workload gamma_search --seed 1 --seconds 20 --trace 0

Run it from the root of a qnot checkout; it imports qnot from ``src/``.
With ``--trace 0`` the last line carries the end-to-end metrics, with
``--trace 1`` the per-layer ones (self times of spans recorded around qnot
calls, see ``spans.py``).  Workloads and metrics are described in
``bench/README.md``.
"""
from __future__ import annotations

import os
import sys

# One BLAS/OpenMP thread for this process and every child it starts; this
# must happen before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import json
import platform
import shutil
import statistics
import subprocess
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORKLOADS = ("dense_machines", "gamma_search", "probe_flip", "cli_roundtrip")
SETUP_PROBES = 5
TAIL_MIN_SETS = 100       # a p90 needs ten samples beyond it
# The host's speed drifts by up to 1.6x over seconds to minutes.  A fixed
# kernel without qnot code, timed right after every unit (and every set-up
# process), slows with it, so each time is scaled by reference / kernel
# time: reported times are what the host gives when the kernel takes its
# reference time.  Each workload names the kernel that is like its work:
# "lapack" is three SVDs of one 80 x 80 matrix, "spawn" a child process
# that imports numpy.
CAL_REF_S = {"lapack": 4.5e-3, "spawn": 0.16}
CAL_SIZE, CAL_REPEATS = 80, 3
CAL_SHARE = 0.05          # calibrate for about 5 % of the time just measured

END_TO_END = {"setup_s": "s", "sets_per_s": "1/s", "latency_ms": "ms",
              "peak_rss_mb": "MB"}
# Names ending in _ms are self times of the span of the same name; the
# rest are per-set counts and sizes the workloads report.
PER_LAYER = {
    "linalg.unitary_completion_ms": "ms",
    "linalg.psd_sqrt_ms": "ms",
    "synthesis.synthesize_ms": "ms",
    "synthesis.machine_mb": "MB",
    "simulator.verify_machine_ms": "ms",
    "simulator.unitarity_error_ms": "ms",
    "states.gram_ms": "ms",
    "feasibility.check_exact_unitary_ms": "ms",
    "feasibility.check_exact_with_probe_ms": "ms",
    "feasibility.build_probe_unitary_ms": "ms",
    "feasibility.build_exact_unitary_ms": "ms",
    "feasibility.check_probabilistic_ms": "ms",
    "optimizer.search_gamma_equal_ms": "ms",
    "optimizer.search_gamma_coordinate_ms": "ms",
    "optimizer.eigen_evals": "count",
    "optimizer.gamma_max_triple_ms": "ms",
    "optimizer.grid_oracle_triple_ms": "ms",
    "cli.check_ms": "ms",
    "cli.synthesize_ms": "ms",
    "cli.simulate_ms": "ms",
    "cli.startup_ms": "ms",
    "cli.machine_file_mb": "MB",
    "serialize.machine_to_dict_ms": "ms",
    "serialize.machine_from_dict_ms": "ms",
    "serialize.dump_ms": "ms",
    "serialize.load_ms": "ms",
    "trace.overhead_pct": "%",
}


@dataclass
class Run:
    """What one timed loop produced."""

    latencies: list = field(default_factory=list)   # seconds, per set done
    scales: list = field(default_factory=list)      # calibration after it
    traced: list = field(default_factory=list)      # set ran with wrappers
    counts: list = field(default_factory=list)      # per-set counts/sizes
    problems: list = field(default_factory=list)    # failed check messages
    attempted: int = 0
    failed: int = 0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set up and run the warm-up set, then exit "
                        "(how set-up is timed in fresh processes)")
    return p.parse_args(argv)


def environment() -> str:
    import numpy as np
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return (f"Python {platform.python_version()}, numpy {np.__version__}, "
            f"{blas['name']} {blas['version']} with "
            f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}, "
            f"{os.cpu_count()} CPUs")


class Calibration:
    """Host speed probe: a fixed kernel that runs no qnot code."""

    def __init__(self, kernel: str):
        import numpy as np
        self.kernel = kernel
        self.ref_s = CAL_REF_S[kernel]
        self._svd = np.linalg.svd
        self._matrix = np.random.default_rng(0).normal(size=(CAL_SIZE, CAL_SIZE))

    def _run_kernel(self) -> None:
        if self.kernel == "spawn":
            subprocess.run([sys.executable, "-c", "import numpy"], check=True)
        else:
            for _ in range(CAL_REPEATS):
                self._svd(self._matrix)

    def scale(self, measured_s: float) -> float:
        """Factor that turns a time just measured into reference-host time.

        The kernel runs once per 5 % of ``measured_s`` (at least once) and
        its median time is used, so long sets get a steadier reading.
        """
        samples = []
        for _ in range(max(1, round(CAL_SHARE * measured_s / self.ref_s))):
            t0 = time.perf_counter()
            self._run_kernel()
            samples.append(time.perf_counter() - t0)
        return self.ref_s / statistics.median(samples)


def time_setup(args, cal: Calibration) -> tuple[float, float]:
    """Median set-up time of fresh processes: (scaled, as measured)."""
    cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    raw, scaled = [], []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * cal.scale(raw[-1]))
    return statistics.median(scaled), statistics.median(raw)


def measure(wl, items, seconds: float, tracer, cal: Calibration) -> Run:
    """Closed loop over the fixed list of sets until ``seconds`` have passed.

    Only the operation itself is timed; the calibration, checks, garbage
    collection and the traced run's extra work happen between units.  In
    a traced run every other unit runs with the layer wrappers installed,
    so the two halves give the tracing overhead under the same host
    conditions.
    """
    from spans import NullTracer
    null = NullTracer()
    run = Run()
    gc.collect()
    gc.disable()
    try:
        start = time.perf_counter()
        while time.perf_counter() - start < seconds:
            item = items[run.attempted % len(items)]
            on = tracer is not None and run.attempted % 2 == 0
            if on:
                tracer.install(len(run.latencies))
            run.attempted += 1
            t0 = time.perf_counter()
            try:
                out = wl.run(item, tracer if on else null)
            except Exception:   # a failed set is counted; the run goes on
                run.failed += 1
                traceback.print_exc()
                continue
            finally:
                dt = time.perf_counter() - t0
                if on:
                    tracer.remove()
            run.latencies.append(dt / wl.batch)
            run.scales.append(cal.scale(dt))
            run.traced.append(on)
            try:
                wl.check(item, out)
            except AssertionError as exc:
                run.problems.append(str(exc))
            counts = wl.counts(item, out)
            if on:
                tracer.install(len(run.latencies) - 1)
                try:
                    counts.update(wl.traced_extra(item, out, tracer))
                finally:
                    tracer.remove()
            run.counts.append(counts)
            del out
            gc.collect()
    finally:
        gc.enable()
    return run


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end_metrics(wl, run: Run, setup_s: float) -> dict:
    scaled = [x * f for x, f in zip(run.latencies, run.scales)]
    return {
        "setup_s": setup_s,
        "sets_per_s": len(scaled) / sum(scaled) if scaled else 0.0,
        "latency_ms": _median(scaled) * 1e3,
        "peak_rss_mb": wl.peak_rss_mb(),
    }


def per_layer_metrics(tracer, run: Run, batch: int) -> dict:
    """Per-set medians over the traced sets; a layer never called reads 0.

    Spans and counts of a unit of ``batch`` sets are divided by ``batch``.
    """
    self_ms = tracer.self_times_ms()
    sets = [k for k, on in enumerate(run.traced) if on]
    scaled = [x * f for x, f in zip(run.latencies, run.scales)]
    values = {}
    for name, unit in PER_LAYER.items():
        if name == "trace.overhead_pct":
            on = [x for x, t in zip(scaled, run.traced) if t]
            off = [x for x, t in zip(scaled, run.traced) if not t]
            values[name] = (100.0 * (_median(on) / _median(off) - 1.0)
                            if on and off else 0.0)
        elif name.endswith("_ms"):
            values[name] = _median([self_ms.get(k, {}).get(name[:-3], 0.0)
                                    * run.scales[k] / batch for k in sets])
        else:
            values[name] = _median([run.counts[k].get(name, 0.0) / batch
                                    for k in sets])
    return values


def summary(args, wl, run: Run, setup: tuple, own_setup_s: float) -> list[str]:
    """Human-readable lines; times as measured, then scaled to the reference."""
    raw = [x * 1e3 for x in run.latencies]
    scaled = [x * f for x, f in zip(raw, run.scales)]
    lines = [f"{args.workload} seed {args.seed}: {len(raw)} units of "
             f"{wl.batch} set(s) timed, {run.failed} units failed, "
             f"{len(run.problems)} failed checks",
             f"{wl.calibration} calibration median "
             f"{CAL_REF_S[wl.calibration] * 1e3 / _median(run.scales):.3f} ms "
             f"(reference {CAL_REF_S[wl.calibration] * 1e3:.3f} ms)",
             f"raw latency median {_median(raw):.3f} ms, raw sets/s "
             f"{len(raw) / sum(raw) * 1e3 if raw else 0.0:.4f}, "
             f"raw set-up {setup[1]:.3f} s"]
    if len(raw) >= TAIL_MIN_SETS:
        lines.append(f"latency p90 {statistics.quantiles(scaled, n=10)[-1]:.3f} ms "
                     f"scaled, {statistics.quantiles(raw, n=10)[-1]:.3f} ms raw")
    sizes = [c["cli.machine_file_mb"] for c in run.counts if "cli.machine_file_mb" in c]
    if sizes:
        lines.append(f"machine file {_median(sizes):.4f} MB")
    lines.append(f"set-up: median of {SETUP_PROBES} fresh processes; this "
                 f"process took {own_setup_s:.3f} s")
    lines.append(environment())
    return lines


def dump_spans(args, tracer) -> None:
    path = ROOT / ".bench_run" / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(tracer.spans))


def main(argv=None) -> int:
    t_start = time.perf_counter()
    args = parse_args(argv)
    if not (SRC / "qnot" / "__init__.py").is_file():
        print(f"error: no qnot sources under {SRC}; run from a qnot checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads
    from spans import NullTracer, Tracer

    workdir = ROOT / ".bench_run" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        wl = workloads.make(args.workload, workdir, SRC)
        items = wl.setup(args.seed)
        wl.check(items[0], wl.run(items[0], NullTracer()))
        if args.setup_only:
            return 0
        own_setup_s = time.perf_counter() - t_start
        cal = Calibration(wl.calibration)
        setup = time_setup(args, cal)
        tracer = Tracer() if args.trace else None
        run = measure(wl, items, args.seconds, tracer, cal)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for msg in run.problems[:5]:
        print(f"check failed: {msg}", file=sys.stderr)
    for line in summary(args, wl, run, setup, own_setup_s):
        print("# " + line)
    if args.trace:
        values, units = per_layer_metrics(tracer, run, wl.batch), PER_LAYER
        dump_spans(args, tracer)
    else:
        values, units = end_to_end_metrics(wl, run, setup[0]), END_TO_END
    metrics = {k: {"value": v, "unit": units[k]} for k, v in values.items()}
    print(json.dumps({"correct": not run.problems and run.attempted > run.failed,
                      "attempted": run.attempted * wl.batch,
                      "failed": run.failed * wl.batch,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
