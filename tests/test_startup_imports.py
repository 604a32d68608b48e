"""The CLI imports only what a passing run executes.

Every CLI call starts a fresh interpreter, so each module imported at start
is paid for on every call.  None of UNUSED is needed by a passing run:
`fractions` only when a value turns out not to be an integer, `json` only
for JSON output or a Levi's block list, and the others not at all.  The
probe runs in a `python -S` process, where `site` preloads nothing, so the
import set is the package's own, and it must still hold
after passing calls, so no import cost moved into a call.  Run as a script
this file is the probe, and exits 0 when the import set holds:

    python -O -S tests/test_startup_imports.py
"""

import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
UNUSED = ("dataclasses", "inspect", "typing", "fractions", "decimal", "json", "multiprocessing")
# passing calls that reach every module, and the integer-only exact arithmetic;
# --jobs above 1 must start no worker either
CALLS = (["--jobs", "1", "selftest"], ["--jobs", "2", "selftest"], ["fibermass", "6", "6"])


def main() -> int:
    sys.path.insert(0, SRC)
    import io
    from contextlib import redirect_stdout

    from flagstrata import cli

    at_import = [name for name in UNUSED if name in sys.modules]
    with redirect_stdout(io.StringIO()):
        codes = [cli.main(list(argv)) for argv in CALLS]
    after_calls = [name for name in UNUSED if name in sys.modules]
    print(f"at import: {at_import}; exit codes: {codes}; after the calls: {after_calls}")
    return 0 if not at_import and not after_calls and codes == [0] * len(CALLS) else 1


def test_cli_imports_only_what_a_passing_run_executes():
    import subprocess

    done = subprocess.run(
        [sys.executable, "-S", os.path.abspath(__file__)], capture_output=True, text=True, timeout=300
    )
    assert done.returncode == 0, done.stdout + done.stderr


if __name__ == "__main__":
    sys.exit(main())
