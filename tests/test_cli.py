"""CLI dispatch, output formats, and exit codes."""

import ast
import contextlib
import io
import json
import os
import subprocess
import sys
import types

from hypothesis import given, settings
from hypothesis import strategies as hs

from flagstrata import cli

FAST_BOUNDS = (
    "--bound", "schur_n=1", "--bound", "schur_d=2", "--bound", "margin_size=3",
    "--bound", "brute_flag_size=3", "--bound", "brute_aut_size=2",
    "--bound", "mass_d=2", "--bound", "induced_total=4",
    "--bound", "orbit_total_q2=3", "--bound", "orbit_total_q3=2",
    "--bound", "levi_rank=2", "--bound", "levi_bound=1",
    "--bound", "identity_n=2",
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_fibermass_row(capsys):
    code, out, _ = run(capsys, "fibermass", "1", "2")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].split("\t") == ["d", "dp", "degree", "leading", "pairings", "match"]
    assert lines[1].split("\t") == ["1", "2", "-2", "3", "3", "True"]


def test_orbits_row(capsys):
    code, out, _ = run(capsys, "orbits", "1", "1", "2")
    assert code == 0
    assert out.strip().splitlines()[1].split("\t") == ["1", "1", "2", "3", "3", "3", "True"]


def test_json_format(capsys):
    code, out, _ = run(capsys, "--format", "json", "orbits", "1", "2", "2")
    assert code == 0
    data = json.loads(out)
    assert data["orbits"] == 6 and data["match"] is True
    assert {"w": "(1 2)", "J": [2]} in data["pairs"]


def test_json_decomposition_shape(capsys):
    code, out, _ = run(capsys, "--format", "json", "schur", "2", "2", "2")
    assert code == 0
    data = json.loads(out)
    assert data["decomposition"] == [
        {"lambda": [2, 2], "mult": 1},
        {"lambda": [1, 1, 1, 1], "mult": 1},
    ]


def test_json_levi_witnesses(capsys):
    code, out, _ = run(capsys, "--format", "json", "levi", "2", "[[1],[2]]", "1", "1")
    assert code == 0
    data = json.loads(out)
    assert data["holds"] and data["antistandard"]
    assert {"lam": [-1, 0], "nu": [0, -1], "mu": [-1, 0], "mu_dom": [0, -1],
            "f": -1, "rhs": -1} in data["equalities"]


def test_schur_table(capsys):
    code, out, _ = run(capsys, "schur", "2", "1", "3")
    assert code == 0
    body = out.strip().splitlines()[1:]
    assert body[0].startswith("3,1\t1\tTrue")
    assert body[-1].startswith("all-multiplicity-one-and-index-exact")


def test_deterministic_output(capsys):
    _, first, _ = run(capsys, "strata", "2", "2")
    _, second, _ = run(capsys, "strata", "2", "2")
    assert first == second


def test_levi_command(capsys):
    code, out, _ = run(capsys, "levi", "4", "[[1,3],[2,4]]", "1", "1")
    assert code == 0
    row = out.strip().splitlines()[1].split("\t")
    assert row[0] == "[[1,3],[2,4]]" and row[1] == "True" and row[-1] == "True"


def test_levi_command_runs_in_one_process(capsys):
    # every run is one process: --jobs is accepted and changes no byte
    for argv in (["levi", "4", "[[1,3],[2,4]]", "2", "2"], [*FAST_BOUNDS, "selftest"]):
        serial = run(capsys, "--jobs", "1", *argv)
        assert serial[0] == 0 and run(capsys, "--jobs", "3", *argv) == serial


def test_invalid_config_exit_2(capsys):
    assert run(capsys, "orbits", "3", "3", "2")[0] == 2
    assert run(capsys, "orbits", "1", "1", "5")[0] == 2
    assert run(capsys, "schur", "1", "3", "1")[0] == 2
    assert run(capsys, "--bound", "bogus=1", "selftest")[0] == 2
    assert run(capsys, "--bound", "schur_n", "selftest")[0] == 2
    assert run(capsys, "levi", "4", "[[1,3],[2,4]", "1", "1")[0] == 2
    assert run(capsys, "--jobs", "0", "fibermass", "1", "1")[0] == 2
    assert run(capsys, "--bound", "brute_aut_size=-1", "selftest")[0] == 2
    # a bound of 0 that would leave a criterion, or a family of its cells, with nothing to check
    for key in ("schur_n", "invariants_r", "levi_rank", "identity_n"):
        code, out, err = run(capsys, "--bound", f"{key}=0", "selftest")
        assert code == 2 and out == "" and err == f"error: bound {key} must be >= 1, got 0\n"
    code, _, err = run(capsys, "levi", "2", "[1,2]", "1", "1")
    assert code == 2 and err.startswith("error:")
    code, _, err = run(capsys, "levi", "0", "[]", "1", "1")
    assert code == 2 and err.startswith("error: n must be >= 1")
    # a bound past an oracle's cap is refused before any sweep runs
    for bound in ("orbit_total_q2=6", "orbit_total_q3=5", "brute_flag_size=6", "brute_aut_size=5", "induced_total=8"):
        code, out, err = run(capsys, "--bound", bound, "selftest")
        assert code == 2 and out == "" and err.startswith(f"error: bound {bound.split('=')[0]} capped")
    # an input deeper than the recursion limit is past the oracle's reach, so bad config too
    singletons = str([[i] for i in range(1, 2001)]).replace(" ", "")
    for argv in (("schur", "2000", "1", "1"), ("strata", "0", "2000"), ("levi", "2000", singletons, "0", "0")):
        code, out, err = run(capsys, *argv)
        assert code == 2 and out == "" and err == "error: input too large: maximum recursion depth exceeded\n", argv[0]


def test_bound_override_warns(capsys):
    code, _, err = run(capsys, "--bound", "identity_n=5", "flagdim", "1")
    assert code == 0
    assert "warning" in err


def test_verification_failure_exits_1(capsys, monkeypatch):
    real_free = cli.sc.verify_multiplicity_free
    monkeypatch.setattr(cli.sc, "verify_multiplicity_free", lambda *a: (*real_free(*a)[:-1], False))
    code, out, err = run(capsys, *FAST_BOUNDS, "selftest")
    assert code == 1
    assert "schur-multiplicity-free\tFAIL" in out
    assert err == "schur-multiplicity-free: first failing cell (1, 0, 0)\n"
    # as many strata as pairings, but one pairing repeated and the others missed
    real = cli.st.strata_involutions
    monkeypatch.setattr(cli.st, "strata_involutions", lambda j, jp, n: [real(j, jp, n)[0]] * len(real(j, jp, n)))
    code, out, _ = run(capsys, "strata", "2", "2")
    assert code == 1
    assert "pairings\t3\tstrata-cover\tFalse\t-" in out.splitlines()
    code, out, _ = run(capsys, "--format", "json", "strata", "2", "2")
    assert code == 1 and json.loads(out)["strata_cover"] is False
    # every pairing built and covered, but the closed-form count is off by one
    monkeypatch.undo()
    real_count = cli.st.pairing_count
    monkeypatch.setattr(cli.st, "pairing_count", lambda d, dp: real_count(d, dp) + 1)
    code, out, err = run(capsys, "strata", "2", "2")
    assert code == 1
    assert "pairings\t3\tstrata-cover\tTrue\t-" in out.splitlines()
    assert err == "pairings: enumerated 3, pairing_count 4\n"
    # both formats carry the count that failed, not only stderr
    assert "pairing-count-mismatch\t3\t4\t-\t-" in out.splitlines()
    code, out, _ = run(capsys, "--format", "json", "strata", "2", "2")
    data = json.loads(out)
    assert code == 1 and data["strata_cover"] is True and data["induced_model_match"] is True
    assert data["pairing_count_mismatch"] == {"enumerated": 3, "pairing_count": 4}


def test_command_and_criterion_share_one_verdict(capsys, monkeypatch):
    # a cell's real values with its verdict turned False must fail the command, in
    # both formats, and name that cell as the witness of the criterion that sweeps it
    criteria = {check.name: check.run for check in cli.CHECKS}
    cells = [
        (cli.sc, "verify_multiplicity_free", ("schur", "1", "0", "0"), "schur-multiplicity-free", (1, 0, 0)),
        (cli.fc, "fiber_mass_table", ("flagdim", "0"), "flag-mass-margins", ((), ())),
        (cli.fc, "verify_collided_mass", ("fibermass", "0", "0"), "collided-mass-degree-and-leading", (0, 0)),
        (cli.st, "verify_strata", ("strata", "0", "0"), "induced-character-and-invariants", (0, 0)),
        (cli.ob, "verify_counts", ("orbits", "0", "0", "2"), "orbit-counts-vs-classifying-pairs", (0, 0, 2)),
    ]
    for module, name, argv, check, witness in cells:
        real = getattr(module, name)
        if name == "fiber_mass_table":  # the verdict ends each row
            fake = lambda *a, real=real: [(*row[:-1], False) for row in real(*a)]
        else:
            fake = lambda *a, real=real: (*real(*a)[:-1], False)
        monkeypatch.setattr(module, name, fake)
        for fmt in ("tsv", "json"):
            assert run(capsys, "--format", fmt, *argv)[0] == 1, (argv, fmt)
        assert criteria[check](cli.DEFAULT_BOUNDS) == witness
        monkeypatch.undo()


def test_orbits_missing_flag_exits_1(capsys, monkeypatch):
    # the orbits drop one flag but keep their count: the [n]_q! total must catch it
    real = cli.ob.orbit_decomposition

    def missing_one(d, dp, q):
        orbits = real(d, dp, q)
        return orbits[:-1] + [orbits[-1][1:]]

    monkeypatch.setattr(cli.ob, "orbit_decomposition", missing_one)
    assert not cli.ob.verify_counts(1, 2, 2)[-1]
    code, out, _ = run(capsys, "orbits", "1", "2", "2")
    assert code == 1
    assert out.splitlines()[1:] == ["1\t2\t2\t6\t6\t6\tFalse"]
    code, out, _ = run(capsys, "--format", "json", "orbits", "1", "2", "2")
    data = json.loads(out)
    assert code == 1 and data["orbits"] == 6 and data["match"] is False


def test_strata_sweeps_symmetric_group_once(capsys, monkeypatch):
    # the character table and the induced-model check share one walk of S_{d+d'}
    walks = []
    real = cli.st.all_perms
    monkeypatch.setattr(cli.st, "all_perms", lambda n: (walks.append(n), real(n))[1])
    code, out, _ = run(capsys, "strata", "2", "3")
    assert code == 0 and "induced-model-match\tTrue\t-\t-\t-" in out.splitlines()
    assert walks == [5]


def test_strata_induced_match_above_the_sweep_cap(capsys, monkeypatch):
    # past the per-permutation cap the per-type table still gets the induced-model verdict
    code, out, _ = run(capsys, "strata", "3", "5")
    assert code == 0 and "induced-model-match\tTrue\t-\t-\t-" in out.splitlines()
    code, out, _ = run(capsys, "--format", "json", "strata", "3", "5")
    assert code == 0 and json.loads(out)["induced_model_match"] is True
    # the pairing stabilizer's class sum at the identity doubled
    real, identity = cli.st._stabilizer_class_sums, (1,) * 8
    doubled = lambda d, dp: {**real(d, dp), identity: 2 * real(d, dp)[identity]}
    monkeypatch.setattr(cli.st, "_stabilizer_class_sums", doubled)
    code, out, _ = run(capsys, "strata", "3", "5")
    assert code == 1 and "induced-model-match\tFalse\t-\t-\t-" in out.splitlines()
    code, out, _ = run(capsys, "--format", "json", "strata", "3", "5")
    assert code == 1 and json.loads(out)["induced_model_match"] is False


def test_stabilizer_sweep_walks_only_the_wreath_factor(capsys, monkeypatch):
    # at d = 0 the stabilizer is all of S_7; only the table's sweep may walk it
    calls = []
    real = cli.st.cycle_type
    monkeypatch.setattr(cli.st, "cycle_type", lambda sigma: (calls.append(1), real(sigma))[1])
    cli.st._stabilizer_class_sums.cache_clear()
    assert run(capsys, "strata", "0", "7")[0] == 0
    assert len(calls) <= 5041


def test_selftest_fast_bounds(capsys):
    code, out, _ = run(capsys, *FAST_BOUNDS, "selftest")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 10 and all(line.endswith("PASS") for line in lines[1:])


INTS = hs.integers(-2, 3).map(str)
BLOCKS = hs.sampled_from([
    "[[1],[2]]", "[[1,3],[2]]", "[[1],[2],[3]]", "[[1,2,3]]", "[[1],[2,4],[3]]", "[]",
    "[[1],[1]]", "[[0]]", "[[],[1]]", "[[true]]", "[[1.5]]", "[1,2]", '{"a": 1}', "null",
    "[[1],[2]", "abc", "",
])
COMMAND = hs.one_of(
    hs.tuples(hs.just("schur"), INTS, INTS, INTS),
    hs.tuples(hs.just("strata"), INTS, INTS),
    hs.tuples(hs.just("flagdim"), INTS),
    hs.tuples(hs.just("fibermass"), INTS, INTS),
    hs.tuples(hs.just("orbits"), INTS, INTS, INTS),
    hs.tuples(hs.just("levi"), INTS, BLOCKS, INTS, INTS),
    hs.just(("selftest",)),
)
GOOD_OPTIONS = hs.tuples(
    hs.sampled_from([(), ("--format", "tsv"), ("--format", "json")]),
    hs.sampled_from([(), ("--jobs", "1"), ("--jobs", "2"), ("--jobs", "8")]),
    hs.sampled_from([(), ("--bound", "schur_n=2"), ("--bound", "identity_n=1"), ("--bound", "levi_bound=0")]),
)
BAD_OPTION = hs.sampled_from([
    ("--format", "xml"), ("--format",), ("--jobs", "0"), ("--jobs", "-1"), ("--jobs", "x"),
    ("--bound", "bogus=1"), ("--bound", "schur_n"), ("--bound", "schur_n=x"), ("--bound", "mass_d=-1"),
    ("--bound", "orbit_total_q2=9"), ("--bound", "orbit_total_q3=5"),
    ("--bound", "brute_flag_size=6"), ("--bound", "brute_aut_size=5"), ("--bound", "induced_total=8"),
    ("--bound", "schur_n=0"), ("--bound", "invariants_r=0"), ("--bound", "levi_rank=0"), ("--bound", "identity_n=0"),
])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(COMMAND, GOOD_OPTIONS, hs.lists(BAD_OPTION, max_size=1))
def test_exit_contract_fuzz(command, good, bad):
    # selftest runs only at the small bounds; no drawn bound raises a sweep
    # above its default
    fast = FAST_BOUNDS if command == ("selftest",) else ()
    argv = [*fast, *(x for option in (*good, *bad) for x in option), *command]
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = cli.main(argv)
    except SystemExit as exc:  # argparse rejects the argv
        assert exc.code == 2, argv
    else:
        assert code in (0, 1, 2), argv


PATCHED_UNDER_OPTIMIZE = """
from flagstrata import checks, cli, coweights as cw, levi as lv, strata as st
run = {check.name: check.run for check in checks.CHECKS}
real_character, real_pairing, real_f = st.ind_character, lv.pairing, lv.f_val
real_even = cw.flag_bundle_dim_even
# a trace that differs inside one cycle type
st.ind_character = lambda sigma, d, dp: sigma[0]
print(cli.main(["--format", "json", "strata", "1", "2"]))
print(cli.main(["strata", "1", "2"]))
st.ind_character = real_character
# one more at the identity, in the per-type table that only the invariants cell reads:
# the invariant dimension of (1, 1) at r = 1 becomes 1/2
real_by_type = st._character_by_type
st._character_by_type = lambda d, dp: {lam: v + (lam == (1,) * (d + dp)) for lam, v in real_by_type(d, dp).items()}
print(repr(st.invariants_dim(1, 1, 1)))
print(run["induced-character-and-invariants"](dict(checks.DEFAULT_BOUNDS, induced_total=2, invariants_r=1)))
# a stabilizer class sum that makes the induced character 1/2 on the 4-cycles
st._stabilizer_class_sums = lambda d, dp: {(4,): 1}
print(repr(st._induced_character_by_type(st.cycle_type((2, 3, 4, 1)), 2, 2)))
# an even-rank closed form one above the flag bundle dimension
cw.flag_bundle_dim_even = lambda n, r, g: real_even(n, r, g) + 1
print(run["dimension-identity-audits"](dict(checks.DEFAULT_BOUNDS, identity_n=1)))
# strata that cover none of the pairings
real_strata = st.strata_involutions
st.strata_involutions = lambda j, jp, n: []
print(run["induced-character-and-invariants"](dict(checks.DEFAULT_BOUNDS, induced_total=2, invariants_r=1)))
st.strata_involutions = real_strata
# a pairing gap one below its value: every bound holds, but none is attained
lv.f_val = lambda mu, levi: real_f(mu, levi) - 1
print(cli.main(["levi", "2", "[[1],[2]]", "1", "1"]))
print(run["levi-pairing-gap-bound"](dict(checks.DEFAULT_BOUNDS, levi_rank=2, levi_bound=1)))
# the two arrangements of the Levi bound disagree where it is strict
lv.f_val = lambda mu, levi: -10**6
lv.pairing = lambda a, b: -real_pairing(a, b)
print(cli.main(["levi", "2", "[[1],[2]]", "1", "1"]))
"""


def test_patched_values_fail_under_optimize():
    # with asserts stripped, each patched value must still fail its check
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    done = subprocess.run(
        [sys.executable, "-O", "-c", PATCHED_UNDER_OPTIMIZE],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert "character-not-class-function\t2,1\t1,3,2:1\t2,1,3:2\t-" in lines
    # the JSON carries the same witness, and exits 1 as the TSV does
    data = json.loads(lines[0])
    assert lines[1] == "1" and data["characters"] == {} and data["induced_model_match"] is False
    assert data["character_not_class_function"] == {
        "ctype": [2, 1], "traces": [{"sigma": [1, 3, 2], "value": 1}, {"sigma": [2, 1, 3], "value": 2}],
    }
    assert lines[lines.index("induced-model-match\tFalse\t-\t-\t-") + 1 :][:6] == [
        "1", "Fraction(1, 2)", "(0, 0, 1)", "Fraction(1, 2)", "('flag-bundle', 2, 0, 0)",
        "('strata-cover', 0, 0)",
    ]
    # f one below its value: no bound is attained, so the equality converse fails
    converse = lines.index("('[[1]]', (-1,), (-1,))")
    assert lines[converse - 1] == "1"
    assert "[[1],[2]]\tTrue\t12\t0\t7\tFalse" in lines[:converse]
    # the disagreeing arrangements add three failures where lam is not antidominant,
    # out of the converse's reach, to the seven converse failures above
    tail = lines[converse + 1 :]
    assert tail[1] == "[[1],[2]]\tTrue\t12\t0\t10\tFalse" and tail[-1] == "1"
    for lam in ("0,-1", "1,-1", "1,0"):
        assert f"FAILED-bound\t{lam}\t{lam}\t-\t-\tFalse" in tail


def test_no_assert_in_src():
    # python -O strips assert statements, so no check in the package may rest on one
    package = os.path.dirname(cli.__file__)
    found = []
    for name in sorted(os.listdir(package)):
        if name.endswith(".py"):
            with open(os.path.join(package, name)) as handle:
                tree = ast.parse(handle.read(), name)
            found += [f"{name}:{node.lineno}" for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert found == []


def test_reused_parser_keeps_no_state(monkeypatch):
    # each call in one process gives what a fresh parser gives for the same argv;
    # selftest prints the same rows at any bounds, so the bounds it ran with are recorded
    seen = []
    real = cli.cmd_selftest
    monkeypatch.setitem(cli.COMMANDS, "selftest", lambda args, bounds: (seen.append(bounds), real(args, bounds))[1])

    def result(argv, fresh):
        if fresh:
            cli.make_parser.cache_clear()
        seen.clear()
        out, err = io.StringIO(), io.StringIO()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = cli.main(list(argv))
        except SystemExit as exc:  # argparse rejects the argv
            code = ("exit", exc.code)
        return code, out.getvalue(), err.getvalue(), list(seen)

    sequence = [
        ("--bound", "schur_n=2", "selftest"),
        ("selftest",),  # the bound must not carry over
        ("--format", "json", "orbits", "1", "2", "2"),
        ("orbits", "1", "2", "2"),  # nor the format
        ("--format", "xml", "orbits", "1", "1", "2"),  # argparse exits 2
        ("orbits", "1", "1", "2"),
    ]
    fresh = [result(argv, fresh=True) for argv in sequence]
    cli.make_parser.cache_clear()
    reused = [result(argv, fresh=False) for argv in sequence]
    assert reused == fresh
    assert fresh[0][3] == [dict(cli.DEFAULT_BOUNDS, schur_n=2)] and fresh[1][3] == [cli.DEFAULT_BOUNDS]
    assert fresh[2][1] != fresh[3][1]
    assert fresh[4][0] == ("exit", 2) and fresh[5][0] == 0


def test_parser_built_once_per_process(monkeypatch):
    built = []
    real = cli.argparse.ArgumentParser

    def counting(*args, **kwargs):
        built.append(kwargs.get("prog"))
        return real(*args, **kwargs)

    cli.make_parser.cache_clear()
    # argparse itself names ArgumentParser in super(), so only cli sees the stand-in
    monkeypatch.setattr(cli, "argparse", types.SimpleNamespace(ArgumentParser=counting))
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink):
        for argv in (["fibermass", "1", "1"], ["orbits", "1", "1", "2"], ["fibermass", "1", "2"]):
            assert cli.main(argv) == 0
    cli.make_parser.cache_clear()
    assert built == ["flagstrata"]
