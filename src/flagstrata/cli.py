"""Command-line front end: every verification as a subcommand.

Output is TSV by default (one greppable row per checked cell) or JSON with
--format json.  Exit status: 0 all checks pass, 1 a verification failed,
2 invalid configuration.  Enumerations are canonically sorted, so output is
byte-identical across runs.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import coweights as cw
from . import flagcount as fc
from . import levi as lv
from . import orbits as ob
from . import schur as sc
from . import strata as st
from .checks import BOUND_CAPS, CHECKS, DEFAULT_BOUNDS, POSITIVE_BOUNDS


class ConfigError(Exception):
    pass


def _parse_bounds(pairs) -> dict[str, int]:
    bounds = dict(DEFAULT_BOUNDS)
    for pair in pairs or ():
        if "=" not in pair:
            raise ConfigError(f"bad --bound {pair!r}, expected key=value")
        key, _, value = pair.partition("=")
        if key not in bounds:
            raise ConfigError(f"unknown bound {key!r}; known: {', '.join(sorted(bounds))}")
        try:
            bounds[key] = int(value)
        except ValueError as exc:
            raise ConfigError(f"bound {key} needs an integer, got {value!r}") from exc
        floor = 1 if key in POSITIVE_BOUNDS else 0
        if bounds[key] < floor:
            raise ConfigError(f"bound {key} must be >= {floor}, got {bounds[key]}")
        if key in BOUND_CAPS and bounds[key] > BOUND_CAPS[key]:
            raise ConfigError(f"bound {key} capped at {BOUND_CAPS[key]}, got {bounds[key]}")
        if bounds[key] > DEFAULT_BOUNDS[key]:
            print(
                f"warning: bound {key}={bounds[key]} above default "
                f"{DEFAULT_BOUNDS[key]}; runtime grows quickly",
                file=sys.stderr,
            )
    return bounds


def _emit(header, rows, fmt, payload):
    if fmt == "json":
        import json  # only JSON output reads it, so a TSV call never loads it

        if payload is None:  # built only here, so a TSV call never builds it
            payload = [dict(zip(header, row)) for row in rows]
        print(json.dumps(payload, default=str))
    else:
        print("\t".join(header))
        for row in rows:
            print("\t".join(str(x) for x in row))


def _fmt_vec(v) -> str:
    return cw.format_coweight(v) if v else "-"


# ---------------------------------------------------------------------------
# subcommands: each builds its values once, and both the TSV rows and the
# JSON payload are read from them.  Each verdict is read from the cell
# function its checks.CHECKS sweep calls; no payload means a record per row.


def cmd_schur(args, bounds):
    n, d, dp = args.n, args.d, args.dp
    if n < 1 or not 0 <= d <= dp:
        raise ConfigError("need n >= 1 and 0 <= d <= dp")
    dec, index, ok = sc.verify_multiplicity_free(n, d, dp)
    terms = sorted(dec.items(), reverse=True)
    rows = [(_fmt_vec(lam), mult, lam in index) for lam, mult in terms]
    rows.append(("all-multiplicity-one-and-index-exact", len(index), ok))
    payload = {
        "n": n,
        "d": d,
        "dp": dp,
        "decomposition": [{"lambda": list(lam), "mult": mult} for lam, mult in terms],
        "match": ok,
    }
    return ("lambda", "mult", "match"), rows, ok, payload


def cmd_strata(args, bounds):
    d, dp = args.d, args.dp
    if not 0 <= d <= dp:
        raise ConfigError("need 0 <= d <= dp")
    pairings, strata, covers, characters, induced, expected, ok = st.verify_strata(d, dp)
    c_pairs = [(j, jp, disjoint, [w.cycle_notation() for w in ws]) for j, jp, disjoint, ws in strata]
    rows = [
        ("c-pair", _fmt_vec(j), _fmt_vec(jp), disjoint, ";".join(names) or "-")
        for j, jp, disjoint, names in c_pairs
    ]
    rows.append(("pairings", len(pairings), "strata-cover", covers, "-"))
    failures = {}  # the witness of each failure that no other field shows
    if len(pairings) != expected:
        print(f"pairings: enumerated {len(pairings)}, pairing_count {expected}", file=sys.stderr)
        failures["pairing_count_mismatch"] = {"enumerated": len(pairings), "pairing_count": expected}
        rows.append(("pairing-count-mismatch", len(pairings), expected, "-", "-"))
    if isinstance(characters, st.ClassFunctionError):
        exc, characters = characters, {}  # the failed table lists no character
        traces = (exc.first, exc.second)
        failures["character_not_class_function"] = {
            "ctype": list(exc.ctype),
            "traces": [{"sigma": list(sigma), "value": value} for sigma, value in traces],
        }
        witness = [f"{_fmt_vec(sigma)}:{value}" for sigma, value in traces]
        rows.append(("character-not-class-function", _fmt_vec(exc.ctype), *witness, "-"))
    table = sorted(characters.items(), reverse=True)
    rows += [("character", _fmt_vec(ctype), value, "-", "-") for ctype, value in table]
    rows.append(("induced-model-match", induced, "-", "-", "-"))
    payload = {
        "d": d,
        "dp": dp,
        "pairings": [[list(b) for b in w.blocks] for w in pairings],
        "c_pairs": [
            {"J": list(j), "Jp": list(jp), "disjoint": disjoint, "strata": names}
            for j, jp, disjoint, names in c_pairs
        ],
        "characters": {_fmt_vec(ctype): value for ctype, value in table},
        "strata_cover": covers,
        "induced_model_match": induced,
        **failures,
    }
    return ("kind", "a", "b", "c", "d"), rows, ok, payload


def cmd_flagdim(args, bounds):
    dmax = args.dmax
    if dmax < 0:
        raise ConfigError("need dmax >= 0")
    header = ("mu", "mup", "degree", "margin", "interleaved", "ok")
    names = {mu: _fmt_vec(mu) for size in range(dmax + 1) for mu in cw.partitions(size)}
    rows = [(names[mu], names[mup], *rest) for mu, mup, *rest in fc.fiber_mass_table(dmax)]
    return header, rows, all(row[-1] for row in rows), None


def cmd_fibermass(args, bounds):
    d, dp = args.d, args.dp
    if not 0 <= d <= dp:
        raise ConfigError("need 0 <= d <= dp")
    header = ("d", "dp", "degree", "leading", "pairings", "match")
    try:
        deg, lead, expected, ok = fc.verify_collided_mass(d, dp)
    except fc.MassPremiseError as exc:
        rows = [(d, dp, "-", "-", st.pairing_count(d, dp), False)]
        witness = {"mu": list(exc.mu), "mup": list(exc.mup), "leading": str(exc.leading)}
        payload = [dict(zip(header, rows[0]), premise_failure=witness)]
        rows.append(("mass-premise-failed", exc.mu, exc.mup, exc.leading, "-", "-"))
        return header, rows, False, payload
    rows = [(d, dp, deg, lead, expected, ok)]
    return header, rows, ok, None


def cmd_orbits(args, bounds):
    d, dp, q = args.d, args.dp, args.q
    if d < 0 or dp < 0:
        raise ConfigError("need d, dp >= 0")
    if q not in ob.ORBIT_LIMIT:
        raise ConfigError(f"q must be one of {', '.join(map(str, ob.ORBIT_LIMIT))}")
    if d + dp > ob.ORBIT_LIMIT[q]:
        raise ConfigError(f"d + dp capped at {ob.ORBIT_LIMIT[q]} for q={q}")
    orbits, pairs, dual, ok = ob.verify_counts(d, dp, q)
    rows = [(d, dp, q, len(orbits), len(pairs), dual, ok)]
    payload = {
        "d": d,
        "dp": dp,
        "q": q,
        "orbits": len(orbits),
        "pairs": [{"w": w.cycle_notation(), "J": list(j)} for w, j in pairs],
        "dual_pair_count": dual,
        "match": ok,
    }
    return ("d", "dp", "q", "orbits", "pairs", "dual_pairs", "match"), rows, ok, payload


def cmd_levi(args, bounds):
    try:
        levi = lv.parse_blocks(args.n, args.blocks)
    except ValueError as exc:  # json.JSONDecodeError is a ValueError
        raise ConfigError(str(exc)) from exc
    if args.lam_bound < 0 or args.nu_bound < 0:
        raise ConfigError("bounds must be >= 0")
    res = lv.sweep_inequality(levi, args.lam_bound, args.nu_bound)
    rows = [
        (
            str(levi),
            res["antistandard"],
            res["pairs_checked"],
            len(res["equalities"]),
            len(res["failures"]),
            res["holds"],
        )
    ]
    for lam, nu, mu, mu_dom, f, rhs in res["equalities"]:
        rows.append(
            ("equality", _fmt_vec(lam), _fmt_vec(nu), _fmt_vec(mu), f, rhs)
        )
    for lam, nu, _ in res["failures"]:
        rows.append(("FAILED-bound", _fmt_vec(lam), _fmt_vec(nu), "-", "-", False))
    payload = {
        "levi": [list(b) for b in levi.blocks],
        "antistandard": res["antistandard"],
        "pairs_checked": res["pairs_checked"],
        "holds": res["holds"],
        "equalities": [
            {
                "lam": list(lam),
                "nu": list(nu),
                "mu": list(mu),
                "mu_dom": list(mu_dom),
                "f": f,
                "rhs": rhs,
            }
            for lam, nu, mu, mu_dom, f, rhs in res["equalities"]
        ],
        "failures": [
            {"lam": list(lam), "nu": list(nu)} for lam, nu, _ in res["failures"]
        ],
    }
    return ("levi", "antistandard", "pairs", "equalities", "failures", "holds"), rows, res["holds"], payload


def cmd_selftest(args, bounds):
    header = ("check", "status")
    rows = []
    ok = True
    for check in CHECKS:
        witness = check.run(bounds)
        if witness is not None:
            ok = False
            print(f"{check.name}: first failing cell {witness}", file=sys.stderr)
        rows.append((check.name, "PASS" if witness is None else "FAIL"))
    return header, rows, ok, None


# ---------------------------------------------------------------------------


@functools.cache
def make_parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by every later one.

    It keeps nothing between calls: parse_args returns a fresh Namespace, and
    the --bound append action copies its list before appending.
    """
    parser = argparse.ArgumentParser(
        prog="flagstrata",
        description="exact verification battery for flag, strata and orbit combinatorics",
    )
    parser.add_argument("--format", choices=("tsv", "json"), default="tsv")
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        help="accepted for existing argvs; every run is one process (default: 1)",
    )
    parser.add_argument(
        "--bound",
        action="append",
        metavar="KEY=VALUE",
        help="override a selftest sweep bound (repeatable)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schur", help="multiplicity-free decomposition table")
    p.add_argument("n", type=int)
    p.add_argument("d", type=int)
    p.add_argument("dp", type=int)

    p = sub.add_parser("strata", help="condition-C pairs, pairings, strata, characters")
    p.add_argument("d", type=int)
    p.add_argument("dp", type=int)

    p = sub.add_parser("flagdim", help="exhaustive flag-mass margins up to a size")
    p.add_argument("dmax", type=int)

    p = sub.add_parser("fibermass", help="total groupoid mass degree and leading term")
    p.add_argument("d", type=int)
    p.add_argument("dp", type=int)

    p = sub.add_parser("orbits", help="orbit count against classifying pairs")
    p.add_argument("d", type=int)
    p.add_argument("dp", type=int)
    p.add_argument("q", type=int)

    p = sub.add_parser("levi", help="pairing-gap inequality sweep for a block Levi")
    p.add_argument("n", type=int)
    p.add_argument("blocks", help='JSON block list, e.g. "[[1,3],[2,4]]"')
    p.add_argument("lam_bound", type=int)
    p.add_argument("nu_bound", type=int)

    sub.add_parser("selftest", help="run the full verification battery")

    return parser


COMMANDS = {
    "schur": cmd_schur,
    "strata": cmd_strata,
    "flagdim": cmd_flagdim,
    "fibermass": cmd_fibermass,
    "orbits": cmd_orbits,
    "levi": cmd_levi,
    "selftest": cmd_selftest,
}


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        bounds = _parse_bounds(args.bound)
        if args.jobs < 1:
            raise ConfigError("--jobs must be >= 1")
        header, rows, ok, payload = COMMANDS[args.command](args, bounds)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RecursionError:  # an input past an oracle's reach is bad config, like ORBIT_LIMIT
        print("error: input too large: maximum recursion depth exceeded", file=sys.stderr)
        return 2
    except ValueError as exc:  # a formula fault inside a verification, not bad config
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(header, rows, args.format, payload)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
