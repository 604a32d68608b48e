"""Checks of the benchmark itself, run from the repository root:

    python3 perfbench/selfcheck.py

1. The reference table is honoured: with the true digests a short cli-mix run
   has fail_ratio 0, and with one digest corrupted it has a non-zero
   fail_ratio and exits 1.
2. The traced run survives renamed public functions: a copy of the source in
   which ``gf.in_span`` and ``orbits.enumerate_involutions`` carry new names
   still runs to the end with correct outputs, and the metric built on
   ``gf.in_span`` is reported absent.

Each altered case runs ``run.py`` in a scratch copy of the repository root
(``perfbench/`` and ``src/``), made in a temporary directory inside the
checkout and removed at the end.  Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SEED = 0
RENAMES = {"in_span": "in_row_space", "enumerate_involutions": "involutions_up_to"}


def make_root(parent: str, name: str) -> str:
    """A scratch repository root holding copies of ``perfbench/`` and ``src/``."""
    root = os.path.join(parent, name)
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(HERE, os.path.join(root, "perfbench"), ignore=skip)
    shutil.copytree(os.path.join(ROOT, "src"), os.path.join(root, "src"), ignore=skip)
    return root


def bench(root: str, trace: int) -> tuple[int, dict, str]:
    cmd = [
        sys.executable, os.path.join("perfbench", "run.py"),
        "--workload", "cli-mix", "--seed", str(SEED), "--seconds", "1",
        "--trace", str(trace),
    ]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    return proc.returncode, result, proc.stdout + proc.stderr


def check(name: str, ok: bool, detail: str = "") -> bool:
    print(f"{'PASS' if ok else 'FAIL'}  {name}" + (f"\n{detail}" if detail and not ok else ""))
    return ok


def main() -> int:
    ok = True
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".selfcheck-") as tmp:
        rc, result, text = bench(ROOT, 0)
        ok &= check("true digests: fail_ratio 0, exit 0", rc == 0 and result.get("failed") == 0, text)

        root = make_root(tmp, "corrupted")
        path = os.path.join(root, "perfbench", "digests.json")
        with open(path) as fh:
            digests = json.load(fh)
        victim = json.dumps(workloads.build("cli-mix", SEED)[0])
        digests[victim]["sha256"] = "0" * 64
        with open(path, "w") as fh:
            json.dump(digests, fh)
        rc, result, text = bench(root, 0)
        ok &= check(
            "one corrupted digest: fail_ratio > 0, exit 1",
            rc == 1 and result.get("failed", 0) > 0,
            text,
        )

        root = make_root(tmp, "renamed")
        package = os.path.join(root, "src", "flagstrata")
        for entry in os.scandir(package):
            with open(entry.path) as fh:
                code = fh.read()
            for old, new in RENAMES.items():
                code = re.sub(rf"\b{old}\b", new, code)
            with open(entry.path, "w") as fh:
                fh.write(code)
        rc, result, text = bench(root, 1)
        metrics = result.get("metrics", {})
        ok &= check(
            "renamed functions: traced run completes with correct outputs",
            rc == 0 and result.get("correct") is True and "gf.rref.calls" in metrics,
            text,
        )
        ok &= check(
            "renamed functions: gf.in_span.calls reported absent",
            "gf.in_span.calls" not in metrics and re.search(r"gf\.in_span\.calls\s+absent", text) is not None,
            text,
        )
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
