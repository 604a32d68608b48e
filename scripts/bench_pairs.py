"""Alternating pairs of benchmark runs on two trees, summarised in one JSON record.

    python3 scripts/bench_pairs.py PARENT_TREE CHANGE_TREE --out BENCH_<name>.json \\
        --plan selftest:10:3100 --plan cli-mix:4:3200 --plan oracle-scale:4:3300 \\
        --claim selftest:wall_s [--seconds 40] [--what TEXT]

Each tree is a copy of the repository (for example from `git archive`).  A run
is `python3 perfbench/run.py --workload W --seed S --seconds N --trace 0`,
started from that tree's root with PYTHONDONTWRITEBYTECODE=1 and no
__pycache__ left in the tree, so every interpreter compiles the package
source, as a CLI user without bytecode caches does.  A plan W:P:S runs P pairs
of workload W with seeds S, S + 1, ...  The side that runs first alternates
from pair to pair and from plan to plan, and the plans are interleaved in
time: pair i of every plan runs before pair i + 1 of any.  One run at a time.

A run that exits non-zero, times out or ends without a JSON line of metrics is
recorded as a failure with its exit status (None after a timeout).  Its pair is
left out of the medians and the claim, the record counts the dropped pairs per
workload, and the script exits 1.

The record holds every run's end-to-end metrics; per workload and metric,
each side's median and quartiles over the complete pairs; and, for the claimed
(workload, metric), the pairs the change won (ties count for neither), the
difference of the medians and the parent's interquartile distance.  Every
end-to-end metric of the benchmark is better when lower.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

SIDES = ("parent", "change")
RUN_TIMEOUT_S = 600


def clear_bytecode(tree: str) -> None:
    for root, dirs, _ in os.walk(tree):
        if "__pycache__" in dirs:
            shutil.rmtree(os.path.join(root, "__pycache__"))
            dirs.remove("__pycache__")


def run(tree: str, workload: str, seed: int, seconds: int) -> dict:
    """One benchmark run from tree's root: its last JSON line, or the failure."""
    clear_bytecode(tree)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    started = time.time()
    try:
        done = subprocess.run(cmd, cwd=tree, env=env, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the process
        return {"exit": None, "error": f"timed out after {RUN_TIMEOUT_S} s", "started": started}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        return {"exit": done.returncode, "error": done.stderr.strip()[-2000:], "started": started}
    try:
        last = json.loads(lines[-1])
        return {
            "exit": done.returncode,
            "started": started,
            "correct": last["correct"],
            "attempted": last["attempted"],
            "failed": last["failed"],
            "metrics": {name: entry["value"] for name, entry in last["metrics"].items()},
        }
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return {"exit": done.returncode, "error": f"malformed last line: {exc!r}: {lines[-1][:2000]}",
                "started": started}


def complete(runs: list[dict]) -> list[dict]:
    """The pairs whose two runs both reported metrics; a failed run drops its pair."""
    return [pair for pair in runs if all("metrics" in pair[side] for side in SIDES)]


def spread(values: list[float]) -> dict:
    """Median and quartiles (the exclusive method of statistics.quantiles)."""
    if len(values) < 2:
        return {"median": values[0] if values else None, "q1": None, "q3": None, "n": len(values)}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def summarise(pairs: dict) -> dict:
    """Per workload and metric, each side's spread over the complete pairs."""
    out = {}
    for workload, runs in pairs.items():
        runs = complete(runs)
        names = sorted({name for pair in runs for side in SIDES for name in pair[side]["metrics"]})
        out[workload] = {
            name: {
                side: spread([pair[side]["metrics"][name] for pair in runs if name in pair[side]["metrics"]])
                for side in SIDES
            }
            for name in names
        }
    return out


def claim_check(pairs: dict, medians: dict, workload: str, metric: str) -> dict:
    runs = complete(pairs[workload])
    values = [(p["parent"]["metrics"][metric], p["change"]["metrics"][metric]) for p in runs]
    empty = {"median": None, "q1": None}  # every pair dropped: no medians to compare
    parent, change = (medians[workload][metric][side] if values else empty for side in SIDES)
    iqr = parent["q3"] - parent["q1"] if parent["q1"] is not None else None
    gain = parent["median"] - change["median"] if values else None
    return {
        "workload": workload,
        "metric": metric,
        "pairs": len(values),
        "dropped_pairs": len(pairs[workload]) - len(values),
        "change_wins": sum(c < p for p, c in values),
        "parent_wins": sum(p < c for p, c in values),
        "median_parent": parent["median"],
        "median_change": change["median"],
        "median_gain": gain,
        "parent_iqr": iqr,
        "gain_exceeds_parent_iqr": iqr is not None and gain > iqr,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--out", required=True)
    parser.add_argument("--plan", action="append", required=True, help="workload:pairs:first seed")
    parser.add_argument("--claim", help="workload:metric whose gain the record checks")
    parser.add_argument("--seconds", type=int, default=40)
    parser.add_argument("--what", default="")
    args = parser.parse_args(argv)
    trees = {"parent": os.path.abspath(args.parent), "change": os.path.abspath(args.change)}
    plans = []
    for text in args.plan:
        workload, count, seed = text.split(":")
        plans.append((workload, int(count), int(seed)))

    pairs: dict[str, list] = {workload: [] for workload, _, _ in plans}
    for i in range(max(count for _, count, _ in plans)):
        for k, (workload, count, seed) in enumerate(plans):
            if i >= count:
                continue
            order = SIDES if (i + k) % 2 == 0 else SIDES[::-1]
            pair = {"seed": seed + i, "first": order[0]}
            for side in order:
                pair[side] = run(trees[side], workload, seed + i, args.seconds)
                wall = pair[side].get("metrics", {}).get("wall_s")
                print(f"{workload} pair {i} seed {seed + i} {side}: exit {pair[side]['exit']} wall_s {wall}",
                      file=sys.stderr, flush=True)
            pairs[workload].append(pair)

    medians = summarise(pairs)
    record = {
        "what": args.what,
        "command": "python3 perfbench/run.py --workload W --seed S --seconds %d --trace 0" % args.seconds,
        "environment": {
            "python": platform.python_version(),
            "cpus": os.cpu_count(),
            "note": "PYTHONDONTWRITEBYTECODE=1, no __pycache__ in either tree before a run, one run at a time",
        },
        "plans": [{"workload": w, "pairs": c, "first_seed": s} for w, c, s in plans],
        "medians": medians,
        "dropped_pairs": {workload: len(runs) - len(complete(runs)) for workload, runs in pairs.items()},
        "pairs": pairs,
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        record["claim_check"] = claim_check(pairs, medians, workload, metric)
    with open(args.out, "w") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    dropped = record["dropped_pairs"]
    print(f"pairs dropped for a failed run: {dropped}", file=sys.stderr)
    return 1 if any(dropped.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
