"""scripts/bench_pairs.py keeps a record when a run fails: the failed run's
pair is counted as dropped and left out of the medians and the claim."""

import importlib.util
import os
import subprocess
import types

SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts", "bench_pairs.py")
spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
bp = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bp)


def ok(wall_s):
    return {"exit": 0, "started": 0.0, "correct": True, "attempted": 1, "failed": 0, "metrics": {"wall_s": wall_s}}


FAILED = {"exit": 1, "error": "Traceback", "started": 0.0}
PAIRS = {
    "selftest": [
        {"seed": 1, "first": "parent", "parent": ok(1.0), "change": ok(0.5)},
        {"seed": 2, "first": "change", "parent": FAILED, "change": ok(0.1)},
        {"seed": 3, "first": "parent", "parent": ok(3.0), "change": ok(2.5)},
        {"seed": 4, "first": "change", "parent": ok(9.0), "change": FAILED},
    ],
    "cli-mix": [{"seed": 1, "first": "parent", "parent": FAILED, "change": FAILED}],
}


def test_a_failed_run_drops_its_pair():
    medians = bp.summarise(PAIRS)
    wall = medians["selftest"]["wall_s"]
    # only seeds 1 and 3 have both runs
    assert (wall["parent"]["median"], wall["change"]["median"]) == (2.0, 1.5)
    assert wall["parent"]["n"] == wall["change"]["n"] == 2
    assert medians["cli-mix"] == {}
    claim = bp.claim_check(PAIRS, medians, "selftest", "wall_s")
    assert (claim["pairs"], claim["dropped_pairs"], claim["change_wins"], claim["parent_wins"]) == (2, 2, 2, 0)
    assert claim["median_gain"] == 0.5
    empty = bp.claim_check(PAIRS, medians, "cli-mix", "wall_s")
    assert (empty["pairs"], empty["dropped_pairs"], empty["median_gain"]) == (0, 1, None)
    assert not empty["gain_exceeds_parent_iqr"]


def test_a_timed_out_or_malformed_run_is_a_failure(monkeypatch, tmp_path):
    def timeout(cmd, **kw):
        raise subprocess.TimeoutExpired(cmd, kw["timeout"])

    monkeypatch.setattr(bp.subprocess, "run", timeout)
    res = bp.run(str(tmp_path), "selftest", 1, 1)
    assert res["exit"] is None and "metrics" not in res
    for stdout in ("not json\n", '{"correct": true}\n', "[1]\n"):
        done = types.SimpleNamespace(returncode=0, stdout=stdout, stderr="")
        monkeypatch.setattr(bp.subprocess, "run", lambda cmd, done=done, **kw: done)
        res = bp.run(str(tmp_path), "selftest", 1, 1)
        assert res["exit"] == 0 and "metrics" not in res and res["error"].startswith("malformed"), stdout
