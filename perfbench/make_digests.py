"""Write perfbench/digests.json: the reference exit code and stdout digest of
every argv the benchmark can send (the fixed workloads and the whole cli-mix
menu in both formats), computed from the flagstrata source under ``src/``.

Run from the repository root, on the commit whose outputs are the reference:

    python3 perfbench/make_digests.py
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main() -> int:
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    from flagstrata import cli

    import workloads
    from worker import run_calls

    argvs = workloads.reference_argv()
    records, _ = run_calls(cli, argvs)
    table = {}
    for argv, rec in zip(argvs, records):
        if rec["error"] is not None:
            print(f"error: {argv}: {rec['error']}", file=sys.stderr)
            return 1
        table[json.dumps(argv)] = {"rc": rec["rc"], "sha256": rec["sha256"]}
    path = os.path.join(HERE, "digests.json")
    lines = [f"{json.dumps(key)}: {json.dumps(table[key])}" for key in sorted(table)]
    with open(path, "w") as fh:
        fh.write("{\n" + ",\n".join(lines) + "\n}\n")
    print(f"wrote {len(table)} reference digests to {os.path.relpath(path, ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
