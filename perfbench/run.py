"""flagstrata benchmark.

    python3 perfbench/run.py --workload {selftest,oracle-scale,cli-mix} \\
        --seed N --seconds S --trace {0,1}

Run from the repository root.  For about S seconds it starts fresh
interpreters, each running one repetition of the workload through
``flagstrata.cli.main``, one call after another (closed loop, one client,
``--jobs 1``).  Every call's exit code and stdout digest is checked against
``perfbench/digests.json``.  It prints every metric by name with its unit
and, as the last line, one JSON object ``{correct, attempted, failed,
metrics}``: the end-to-end metrics with ``--trace 0``, the per-layer metrics
(from traced repetitions, alternated with untraced ones) with ``--trace 1``.

Exit status: 0 when every output check passed, 1 when one failed, 2 when
the program or the reference table cannot be found.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import layers  # noqa: E402
import workloads  # noqa: E402

# Fresh interpreters that only set up, started before every repetition, so
# that setup_s is a median over samples spread across the whole run (the
# host's speed drifts over seconds) even when a repetition takes most of it.
SETUPS_PER_REP = 3
# Every run ends well inside the 180 s a run may take, whatever --seconds is.
HARD_LIMIT_S = 150

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class WorkerError(Exception):
    pass


def spawn(workload: str, seed: int, mode: str, timeout: float) -> tuple[float, dict]:
    """Run one worker; returns (monotonic spawn time, its report)."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("FLAGSTRATA_")}
    cmd = [
        sys.executable,
        os.path.join(HERE, "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--mode", mode,
    ]
    started = time.monotonic()
    try:
        proc = subprocess.run(
            cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=max(timeout, 1.0)
        )
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped the worker
        raise WorkerError(f"{mode} worker exceeded {exc.timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{mode} worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return started, json.loads(lines[-1])


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Repeat the workload in fresh interpreters for about ``seconds``."""
    begin = time.monotonic()
    deadline = begin + seconds
    hard = begin + HARD_LIMIT_S

    def run(mode):
        return spawn(workload, seed, mode, hard - time.monotonic())

    run("setup")  # writes the bytecode caches; not a sample
    setups = []
    modes = ("run", "trace") if trace else ("run",)
    reps = {mode: [] for mode in modes}
    durations = {mode: [] for mode in modes}
    for i in itertools.count():
        mode = modes[i % len(modes)]
        began = time.monotonic()
        for _ in range(SETUPS_PER_REP):
            started, report = run("setup")
            setups.append(report["ready"] - started)
        started, report = run(mode)
        durations[mode].append(time.monotonic() - began)
        reps[mode].append(report)
        if mode == "run":
            setups.append(report["ready"] - started)
        following = modes[(i + 1) % len(modes)]
        if durations[following]:
            finish = time.monotonic() + statistics.median(durations[following])
            if finish > min(deadline, hard):
                break
    return {"setups": setups, "reps": reps}


def check_calls(workload: str, seed: int, reps: list[dict], digests: dict) -> tuple[int, int, list[str]]:
    """Count calls attempted and failed against the reference table."""
    calls = workloads.build(workload, seed)
    attempted = failed = 0
    problems: list[str] = []
    for rep in reps:
        for argv, rec in zip(calls, rep["calls"], strict=True):
            attempted += 1
            want = digests.get(json.dumps(argv))
            if want is None:
                why = "no reference digest"
            elif rec["error"] is not None:
                why = f"raised {rec['error']}"
            elif rec["rc"] != want["rc"]:
                why = f"exit {rec['rc']}, expected {want['rc']}"
            elif rec["sha256"] != want["sha256"]:
                why = "output differs from the reference digest"
            else:
                continue
            failed += 1
            if len(problems) < 10:
                problems.append(f"{' '.join(argv)}: {why}")
    return attempted, failed, problems


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def end_to_end(setups: list[float], reps: list[dict]) -> dict[str, dict]:
    """Each metric as {value, q1, q3, n}; the value is the median."""
    latencies = [rec["s"] * 1000 for rep in reps for rec in rep["calls"]]
    samples = {
        "setup_s": setups,
        "wall_s": [rep["wall_s"] for rep in reps],
        "peak_rss_mb": [rep["rss_mb"] for rep in reps],
    }
    out = {}
    for name, values in samples.items():
        q1, median, q3 = quartiles(values)
        out[name] = {"value": median, "q1": q1, "q3": q3, "n": len(values)}
    # "inclusive" keeps p90 inside the samples when a repetition makes one call
    deciles = statistics.quantiles(latencies, n=10, method="inclusive") if len(latencies) > 1 else latencies * 9
    n = len(latencies)
    out["call_p50_ms"] = {"value": statistics.median(latencies), "n": n}
    out["call_p90_ms"] = {"value": deciles[8], "n": n, "beyond": sum(x > deciles[8] for x in latencies)}
    return out


def per_layer(runs: list[dict], traced: list[dict]) -> dict[str, float | None]:
    """Medians over the traced repetitions; None marks an absent metric."""
    out: dict[str, float | None] = {}
    for name in layers.PER_LAYER:
        if name == "trace.overhead_s":
            continue
        values = [rep["per_layer"].get(name) for rep in traced]
        out[name] = None if None in values else statistics.median(values)
    out["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - statistics.median(
        r["wall_s"] for r in runs
    )
    return out


def share_table(traced: list[dict], wall_s: float) -> list[str]:
    """Each layer's share of traced self time and the wall_s saving it bounds.

    A layer made faster saves at most its share of the untraced wall_s; the
    spans timed inclusively (such as the brute unit count) are listed under
    their layer with the same bound.
    """
    per_rep = [rep["layer_self"] for rep in traced]
    names = sorted({name for rep in per_rep for name in rep})
    self_s = {name: statistics.median(rep.get(name, 0.0) for rep in per_rep) for name in names}
    total = sum(self_s.values()) or 1.0
    lines = [
        f"self-time shares (traced, median of {len(traced)} repetitions) and the most "
        f"a faster layer can save of wall_s {wall_s:.3f} s:",
        f"  {'layer':<26}{'self_s':>10}{'share':>9}{'saving at most':>17}",
    ]

    def row(name, seconds):
        share = seconds / total
        return f"  {name:<26}{seconds:>10.3f}{share:>9.1%}{share * wall_s:>15.3f} s"

    for name in sorted(names, key=lambda n: -self_s[n]):
        lines.append(row(name, self_s[name]))
        for metric in layers.INCLUSIVE:
            values = [rep["per_layer"].get(metric) for rep in traced]
            if metric.startswith(name + ".") and None not in values and any(values):
                lines.append(row("  " + metric, statistics.median(values)))
    return lines


def environment() -> str:
    try:
        numpy = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy = "absent"
    return f"python {sys.version.split()[0]}, numpy {numpy}, nproc {os.cpu_count()}"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "flagstrata", "cli.py")):
        print(f"error: no flagstrata source under {SRC}", file=sys.stderr)
        return 2
    try:
        with open(os.path.join(HERE, "digests.json")) as fh:
            digests = json.load(fh)
        data = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except (OSError, ValueError, WorkerError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = report(args, digests, data)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def report(args, digests: dict, data: dict) -> dict:
    """Print the human-readable report and return the result object."""
    runs = data["reps"]["run"]
    traced = data["reps"].get("trace", [])
    attempted, failed, problems = check_calls(args.workload, args.seed, runs + traced, digests)
    e2e = end_to_end(data["setups"], runs)

    print(f"flagstrata benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"environment: {environment()}")
    print(f"load: closed loop, 1 client, --jobs 1; "
          f"{len(workloads.build(args.workload, args.seed))} calls per repetition; "
          f"{len(runs)} untraced + {len(traced)} traced fresh-process repetitions")
    print(f"correctness: {attempted} calls, {failed} failed, fail_ratio {failed / attempted:.4f} ratio")
    for line in problems:
        print(f"  FAILED {line}")
    print("end-to-end (untraced):")
    for name, unit in END_TO_END.items():
        m = e2e[name]
        spread = f"  q1 {m['q1']:.6g}  q3 {m['q3']:.6g}" if "q1" in m else ""
        extra = f"  {m['beyond']} calls beyond" if "beyond" in m else ""
        print(f"  {name:<14}{m['value']:>14.6g} {unit:<6} n={m['n']}{spread}{extra}")

    metrics = {name: {"value": e2e[name]["value"], "unit": unit} for name, unit in END_TO_END.items()}
    if traced:
        values = per_layer(runs, traced)
        print("per-layer (traced):")
        for name, (unit, _) in layers.PER_LAYER.items():
            value = values[name]
            shown = "absent" if value is None else f"{value:.6g}"
            print(f"  {name:<32}{shown:>14} {unit}")
        for line in share_table(traced, e2e["wall_s"]["value"]):
            print(line)
        metrics = {
            name: {"value": value, "unit": layers.PER_LAYER[name][0]}
            for name, value in values.items()
            if value is not None
        }
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


if __name__ == "__main__":
    sys.exit(main())
