"""One fresh-interpreter repetition of a workload.

Started by ``run.py``; prints one JSON line with the monotonic time at which
set-up finished, and for ``--mode run`` or ``--mode trace`` the exit code,
output digest and latency of every call, the repetition's wall time and its
peak RSS.  ``--mode trace`` also installs the tracer and reports per-layer
metrics.  ``--mode setup`` stops after set-up.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def run_calls(cli, calls):
    """Send each argv through ``cli.main``; per-call records and the total wall time."""
    records = []
    first = time.perf_counter()
    for argv in calls:
        out, err = io.StringIO(), io.StringIO()
        error = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(list(argv))
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
        except Exception:  # a crash is a failed call, not a failed benchmark
            rc, error = None, traceback.format_exc(limit=-3)
        elapsed = time.perf_counter() - t0
        digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
        records.append({"rc": rc, "sha256": digest, "s": elapsed, "error": error})
    return records, time.perf_counter() - first


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    args = parser.parse_args()

    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from flagstrata import cli

    import workloads

    calls = workloads.build(args.workload, args.seed)
    report = {"ready": time.monotonic()}
    if args.mode == "setup":
        print(json.dumps(report))
        return 0

    tracer = None
    if args.mode == "trace":
        import layers
        from tracer import Tracer

        tracer = Tracer()
        layers.install_hooks(tracer)
        tracer.install()
    records, wall = run_calls(cli, calls)
    report.update(
        calls=records,
        wall_s=wall,
        rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )
    if tracer is not None:
        report["per_layer"] = layers.collect(tracer)
        report["layer_self"] = tracer.layer_self()
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
