"""Paired perfbench runs of two checkouts of promptrestore.

    python3 tools/benchpair.py <parent> <change> --workload train_64 --pairs 10

For seeds 1..N it runs `perfbench/run.py --trace 0` once in each checkout,
the parent first on odd seeds and the change first on even ones, so that a
drift of the machine's speed does not favour one side. Each run lasts
BENCHMARK.json's run_seconds. It writes BENCH_<n>_<workload>.json into the
change checkout, n being one more than the highest n already there for
that workload, so the files form a trajectory. The file holds each pair's
two result lines (the details line and the result object run.py prints),
and per end-to-end metric of BENCHMARK.json: both sides' medians, the
change median relative to the parent's, whether it is worse than the
parent's by more than the metric's bound, the parent's interquartile range,
in how many pairs the change was better, and whether that is a gain: at
least ten pairs were run, the change is better in at least 9/10 of them
(ties count for neither side), and its median is better than the parent's
by more than the parent's interquartile range.

Exits 1 when a run fails: it exits non-zero, prints too few lines, or
reports an operation that failed its check (run.py itself exits 0 then). A
metric worse beyond its bound is reported, not an exit status.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def describe(checkout: Path) -> str | None:
    """The checkout's commit, with "+dirty" when tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                              text=True, check=True).stdout.strip()
    try:
        head = git("rev-parse", "--short", "HEAD")
        dirty = git("status", "--porcelain", "--untracked-files=no")
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("+dirty" if dirty else "")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        sys.exit(f"error: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    # run.py exits 0 when operations fail their checks, and says so here
    if result["correct"] is not True or result["failed"] > 0:
        sys.exit(f"error: {workload} seed {seed} in {checkout}: correct={result['correct']}, "
                 f"{result['failed']} of {result['attempted']} operations failed")
    return {"details": json.loads(lines[-2]), "result": result}


def summarize(pairs: list[dict], end_to_end: list[dict]) -> dict:
    out = {}
    for m in end_to_end:
        name = m["name"]
        vals = {side: [p[side]["result"]["metrics"][name]["value"] for p in pairs]
                for side in SIDES}
        sign = 1.0 if m["better"] == "higher" else -1.0
        wins = sum(sign * (c - p) > 0 for p, c in zip(vals["parent"], vals["change"]))
        q = statistics.quantiles(vals["parent"], n=4) if len(pairs) > 1 else [0.0, 0.0, 0.0]
        iqr = q[2] - q[0]
        p_med, c_med = statistics.median(vals["parent"]), statistics.median(vals["change"])
        # (change - parent) / |parent|; a change away from a parent median of 0 is infinite
        rel = (c_med - p_med) / abs(p_med) if p_med else math.copysign(
            math.inf if c_med else 0.0, c_med)
        gain = (len(pairs) >= 10 and 10 * wins >= 9 * len(pairs)
                and sign * (c_med - p_med) > iqr)
        out[name] = {"unit": m["unit"], "better": m["better"],
                     "parent_median": p_med, "change_median": c_med, "change_rel": rel,
                     "worse_beyond_bound": -sign * rel > m["bound"],
                     "gain": gain,
                     "parent_iqr": iqr, "change_wins": wins}
    return out


def next_path(out_dir: Path, workload: str) -> Path:
    pattern = re.compile(rf"BENCH_(\d+)_{re.escape(workload)}\.json")
    taken = [int(m.group(1)) for f in out_dir.iterdir() if (m := pattern.fullmatch(f.name))]
    return out_dir / f"BENCH_{max(taken, default=0) + 1}_{workload}.json"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--pairs", type=int, default=10)
    args = ap.parse_args()
    spec = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        ap.error(f"unknown workload {args.workload!r}")
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    seconds = spec["run_seconds"]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}

    pairs = []
    for seed in range(1, args.pairs + 1):
        order = SIDES if seed % 2 else SIDES[::-1]
        pair = {"seed": seed, "order": list(order)}
        for side in order:
            pair[side] = run_once(checkouts[side], args.workload, seed, seconds)
        pairs.append(pair)
        print(f"seed {seed}: " + ", ".join(
            f"{side} {pair[side]['result']['metrics']['peak_rss_mb']['value']:.1f} MB "
            f"{pair[side]['result']['metrics']['op_s_best']['value']:.4f} s" for side in SIDES),
            flush=True)

    summary = summarize(pairs, spec["end_to_end"])
    record = {"workload": args.workload, "seconds": seconds, "pairs": len(pairs),
              "commits": {side: describe(checkouts[side]) for side in SIDES},
              "summary": summary, "runs": pairs}
    path = next_path(checkouts["change"], args.workload)
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for name, s in summary.items():
        print(f"{name:14s} parent {s['parent_median']:.4g} change {s['change_median']:.4g} "
              f"{s['unit']} ({s['change_rel']:+.1%}"
              f"{', WORSE BEYOND BOUND' if s['worse_beyond_bound'] else ''}), "
              f"parent IQR {s['parent_iqr']:.3g}, "
              f"change better in {s['change_wins']}/{len(pairs)}, "
              f"{'a gain' if s['gain'] else 'no gain'} "
              f"(>= 10 pairs, >= 9/10 better, median gap > IQR)")
    print(f"written {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
