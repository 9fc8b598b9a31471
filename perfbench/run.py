"""Benchmark for promptrestore, run from the root of a checkout:

    python3 perfbench/run.py --workload restore_128 --seed 1 --seconds 20 --trace 0

It imports the library from the checkout's src/ and drives it through its
public API with one closed-loop caller (the next operation starts when the
previous one has returned) in one process, BLAS pinned to one thread.
Inputs are generated from --seed; every operation's output is checked.

--trace 0 measures the end-to-end metrics of BENCHMARK.json: set-up time
(median of several set-ups spread over the run), seconds per operation at
each request's fastest repeat, the megapixels per second that gives, and
peak RSS. --trace 1 measures the per-layer metrics instead: half the time
untraced as the overhead baseline, half with wrappers on the library's
layers (see layers.py), plus the attention scaling sweep, the
non-finite-check cost and the machine's copy bandwidth.

The last line of stdout is the result object; the line before it records
the machine facts and run details. A traced run also writes its raw spans
to perfbench/traces/<workload>_seed<n>.json. Exits non-zero without a result when the
library is missing, when no operation succeeds, or when a traced layer
that the workload must hit records nothing.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"        # before numpy loads BLAS

import argparse           # noqa: E402
import importlib          # noqa: E402
import json               # noqa: E402
import resource           # noqa: E402
import shutil             # noqa: E402
import statistics         # noqa: E402
import sys                # noqa: E402
import time               # noqa: E402
import traceback          # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import layers             # noqa: E402
import machine            # noqa: E402
from tracer import TraceError, Tracer  # noqa: E402
from workloads import WORKLOADS, attention_scaling  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
TRACE_DIR = HERE / "traces"
MODULES = ("tensor", "_kernels", "nn", "attention", "blocks", "text", "model",
           "degradations", "dataset")
SETUP_REPEATS = 5
P90_MIN_OPS = 100        # p90 needs ten samples above it


def load_package() -> dict:
    """Import promptrestore from this checkout's src/, never from elsewhere."""
    init = SRC / "promptrestore" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from the root of a promptrestore checkout")
    sys.path.insert(0, str(SRC))
    pkg = {name: importlib.import_module(f"promptrestore.{name}") for name in MODULES}
    origin = Path(pkg["tensor"].__file__).resolve()
    if SRC not in origin.parents:
        sys.exit(f"error: promptrestore imported from {origin}, not from {SRC}")
    return pkg


def _no_span(_name):
    return nullcontext()


class Loop:
    """One closed-loop caller; counts attempts and failures of a workload."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.i = 0
        self.tracer = None

    def run_one(self, span=_no_span) -> float | None:
        """One operation; its duration, or None if it raised or failed its check."""
        i, wl = self.i, self.workload
        self.i += 1
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.op = i
        try:
            t0 = time.perf_counter()
            result = wl.op(i, span)
            dt = time.perf_counter() - t0
            if self.tracer is not None:
                self.tracer.active = False
            try:
                wl.check(i, result)
            finally:
                if self.tracer is not None:
                    self.tracer.active = True
        except Exception:   # a failed operation is counted, the run goes on
            traceback.print_exc()
            self.failed += 1
            return None
        return dt

    def run_for(self, seconds: float, span=_no_span) -> list[tuple[int, float]]:
        """(request, duration) of each operation that succeeded."""
        ops = []
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            request = self.i % self.workload.n_requests
            dt = self.run_one(span)
            if dt is not None:
                ops.append((request, dt))
        if not ops:
            raise RuntimeError(f"{self.workload.name}: no operation succeeded")
        return ops


def best_per_request(ops) -> dict[int, float]:
    """Each request's fastest repeat.

    The host is shared: its speed swings by a third or more in phases of
    seconds to minutes, in CPU time as much as in wall time, and a whole run
    can fall in a slow phase. A request's fastest repeat is the one least
    slowed by that, so the mean over requests of their fastest repeats
    varies far less from run to run than a median of all operations does.
    """
    best: dict[int, float] = {}
    for request, dt in ops:
        best[request] = min(dt, best.get(request, dt))
    return best


def untraced_run(wl, seconds: float):
    # The set-ups are spread over the run, each followed by an equal share
    # of its operations, so that their median samples the machine's speed
    # across the whole run rather than during its first second.
    setup_times, ops = [], []
    loop = Loop(wl)
    for n in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.setup()
        setup_times.append(time.perf_counter() - t0)
        if n == 0:
            loop.run_one()    # warm-up: checked and counted, not timed
        ops += loop.run_for(seconds / SETUP_REPEATS)
    times = [dt for _, dt in ops]
    op_s_best = statistics.fmean(best_per_request(ops).values())
    metrics = {
        "setup_s": statistics.median(setup_times),
        "op_s_best": op_s_best,
        "pixels_per_s": wl.pixels_per_op / op_s_best / 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    repeats = [sum(1 for k, _ in ops if k == r) for r in range(wl.n_requests)]
    details = {"ops_timed": len(times), "repeats_per_request": repeats,
               "op_s_p50": statistics.median(times),
               "setup_s_samples": setup_times,
               "failed_ratio": loop.failed / loop.attempted}
    if len(times) >= P90_MIN_OPS:
        details["op_s_p90"] = statistics.quantiles(times, n=10)[-1]
    return loop, metrics, details


def traced_run(wl, seconds: float, pkg, names, facts):
    T = pkg["tensor"]
    copy = machine.copy_bandwidth(facts["llc_bytes"])
    extras = {"machine.copy_gbps": copy["copy_gbps"], "tensor.finite_check_s": 0.0}
    extras.update(attention_scaling(pkg))

    # untraced half: overhead baseline, and restore with checks on vs off
    wl.setup()
    loop = Loop(wl)
    loop.run_one()
    checked, unchecked = [], []
    end = time.perf_counter() + seconds / 2
    while time.perf_counter() < end:
        probe = wl.probes_finite_checks and loop.i % 2 == 0
        with T.no_nan_checks() if probe else nullcontext():
            dt = loop.run_one()
        if dt is not None:
            (unchecked if probe else checked).append(dt)
    if not checked:
        raise RuntimeError(f"{wl.name}: no operation succeeded")
    if wl.probes_finite_checks and unchecked:
        extras["tensor.finite_check_s"] = statistics.median(checked) - statistics.median(unchecked)

    # traced half
    tracer = Tracer(pkg.values())
    try:
        layers.instrument(tracer, pkg)
        tracer.active = True
        wl.setup()
        setup = tracer.summary()
        tracer.reset()
        loop.tracer = tracer
        traced = [dt for _, dt in loop.run_for(seconds / 2, tracer.span)]
    finally:
        tracer.uninstall()
    loop_summary = tracer.summary()
    TRACE_DIR.mkdir(exist_ok=True)
    trace_file = TRACE_DIR / f"{wl.name}_seed{wl.seed}.json"
    tracer.dump(trace_file)
    extras["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(checked)

    def value(name):
        return layers.resolve(name, loop_summary, setup, tracer, len(traced), extras)

    layers.check_coverage(wl.name, value)
    metrics = {name: value(name) for name in names}
    op_time = sum(traced)
    top = sorted(loop_summary.items(), key=lambda kv: -kv[1]["self_s"])[:10]
    details = {
        "ops_untraced": len(checked) + len(unchecked), "ops_traced": len(traced),
        "spans": len(tracer.spans), "trace_file": str(trace_file.relative_to(ROOT)), **copy,
        "self_time_share": {name: st["self_s"] / op_time for name, st in top},
        "failed_ratio": loop.failed / loop.attempted,
    }
    return loop, metrics, details


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    pkg = load_package()
    facts = machine.facts(pkg)
    workdir = HERE / ".work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    wl = WORKLOADS[args.workload](pkg, args.seed, str(workdir))
    try:
        if args.trace:
            names = [m["name"] for m in spec["per_layer"]]
            loop, values, details = traced_run(wl, args.seconds, pkg, names, facts)
        else:
            loop, values, details = untraced_run(wl, args.seconds)
    except TraceError as exc:
        sys.exit(f"trace error: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass      # another run still uses it
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    print(json.dumps({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                      "machine": facts, "details": details}))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
