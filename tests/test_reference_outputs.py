"""Every argv the benchmark sends gives its reference exit code and stdout.

perfbench/digests.json holds the exit code and stdout SHA-256 of each argv of
the fixed workloads and of the cli-mix menu in both formats.  They are all
replayed here in one process through the benchmark's own call loop, so an
output change fails a tier-1 test, not only a benchmark run.  The benchmark
files are loaded by path and left unchanged.

Under ``python -O`` the same check runs as

    python -O -c "import sys; sys.path.insert(0, 'tests'); import test_reference_outputs as t; sys.exit(t.main())"
"""

import importlib.util
import json
import os
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PERFBENCH = os.path.join(ROOT, "perfbench")


def load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", os.path.join(PERFBENCH, f"{name}.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def mismatches() -> list[tuple[list[str], dict, dict]]:
    """(argv, want, got) for each reference argv whose exit code or stdout digest differs."""
    from flagstrata import cli

    with open(os.path.join(PERFBENCH, "digests.json")) as fh:
        table = json.load(fh)
    argvs = load("workloads").reference_argv()
    if sorted(map(json.dumps, argvs)) != sorted(table):
        raise ValueError("the reference argv and the digest table name different calls")
    records, _ = load("worker").run_calls(cli, argvs)
    bad = []
    for argv, rec in zip(argvs, records):
        want = table[json.dumps(argv)]
        got = {"rc": rec["rc"], "sha256": rec["sha256"]}
        if got != want:
            bad.append((argv, want, dict(got, error=rec["error"])))
    return bad


def main() -> int:
    bad = mismatches()
    for argv, want, got in bad:
        print(f"mismatch: {json.dumps(argv)}: want {want}, got {got}", file=sys.stderr)
    return 1 if bad else 0


def test_reference_outputs_match_digests():
    assert mismatches() == []
