"""Workload definitions: the argv each workload feeds to ``flagstrata.cli.main``.

Every argv starts with ``--jobs 1``: the load is one closed-loop client in one
process, with no worker pool.  Inputs depend only on the workload name and the
seed, so the same seed always gives the same calls.  Only ``cli-mix`` uses
the seed; ``selftest`` and ``oracle-scale`` are fixed call lists.
"""

from __future__ import annotations

import random

NAMES = ("selftest", "oracle-scale", "cli-mix")
JOBS = ["--jobs", "1"]
FORMATS = ("tsv", "json")

# Antistandard block Levis of GL_2..GL_4, as ``levi.antistandard_levis`` lists them.
LEVI_MENU = (
    (2, "[[1],[2]]"),
    (3, "[[1],[2],[3]]"),
    (3, "[[1,3],[2]]"),
    (4, "[[1],[2],[3],[4]]"),
    (4, "[[1],[2,4],[3]]"),
    (4, "[[1,3],[2],[4]]"),
    (4, "[[1,3],[2,4]]"),
    (4, "[[1,4],[2],[3]]"),
)

# Five exact-arithmetic calls, each above the sizes ``selftest`` reaches, in a
# fixed order (the order changes which caches are warm).  They take from about
# 0.1 s to 2 s each, so a repetition lasts about 4 s and a 40 s run holds 7 to
# 11.  With five calls of distinct cost per repetition, the pooled call_p50_ms
# sits in the middle of the third-slowest call's samples and call_p90_ms in the
# middle of the slowest call's.
ORACLE_SCALE = (
    ["fibermass", "6", "6"],
    ["strata", "0", "7"],
    ["levi", "5", "[[1,3,5],[2,4]]", "1", "2"],
    ["schur", "4", "3", "5"],
    ["flagdim", "7"],
)


def menu() -> dict[str, list[list[str]]]:
    """The finite ``cli-mix`` menu, by command, without format flags (178 argv)."""
    orbits = [
        ["orbits", str(d), str(total - d), str(q)]
        for q, cap in ((2, 4), (3, 3))
        for total in range(1, cap + 1)
        for d in range(total + 1)
    ]
    schur = [
        ["schur", str(n), str(d), str(dp)]
        for n in range(1, 4)
        for dp in range(5)
        for d in range(dp + 1)
    ]
    strata = [
        ["strata", str(d), str(total - d)]
        for total in range(6)
        for d in range(total // 2 + 1)
    ]
    fibermass = [["fibermass", str(d), str(dp)] for dp in range(6) for d in range(dp + 1)]
    flagdim = [["flagdim", str(k)] for k in range(1, 6)]
    levi = [
        ["levi", str(n), blocks, str(lb), str(nb)]
        for n, blocks in LEVI_MENU
        for lb in range(3)
        for nb in range(3)
    ]
    return {
        "orbits": orbits,
        "schur": schur,
        "strata": strata,
        "fibermass": fibermass,
        "flagdim": flagdim,
        "levi": levi,
    }


# Calls per menu item in one cli-mix stream, alternating formats from a
# seeded start.  Commands not listed are sent twice, once in each format, so
# that their lru caches see repeated keys.  Orbit calls recompute every flag on
# each call while most others hit warm caches after their first call, and
# levi calls are the costliest of the rest; these counts put about two
# thirds of the self time in gf + orbits.
CALLS_PER_ITEM = {"orbits": 3, "levi": 1}


def with_format(fmt: str, argv: list[str]) -> list[str]:
    return JOBS + ["--format", fmt] + argv


def all_menu_argv() -> list[list[str]]:
    """Every argv the cli-mix stream can contain (menu x formats)."""
    return [with_format(fmt, argv) for items in menu().values() for argv in items for fmt in FORMATS]


def build(workload: str, seed: int) -> list[list[str]]:
    """The argv list one fresh-process repetition of the workload runs, in order."""
    if workload == "selftest":
        return [JOBS + ["selftest"]]
    if workload == "oracle-scale":
        return [JOBS + list(argv) for argv in ORACLE_SCALE]
    if workload == "cli-mix":
        rng = random.Random(seed)
        stream = []
        for command, items in menu().items():
            for argv in items:
                start = rng.randrange(len(FORMATS))
                for k in range(CALLS_PER_ITEM.get(command, 2)):
                    stream.append(with_format(FORMATS[(start + k) % len(FORMATS)], argv))
        rng.shuffle(stream)
        return stream
    raise ValueError(f"unknown workload {workload!r}")


def reference_argv() -> list[list[str]]:
    """Every argv that needs a reference digest: the fixed workloads and the menu."""
    return build("selftest", 0) + build("oracle-scale", 0) + all_menu_argv()

