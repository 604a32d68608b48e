"""The acceptance battery: one ordered registry of the paper's exact criteria.

Each entry holds a name, a runtime budget in seconds at DEFAULT_BOUNDS, and a
sweep run(bounds).  A sweep returns None when every cell passes, else
the loop values of the first failing cell.  `flagstrata selftest` and
tests/test_acceptance.py both iterate CHECKS, so they run the same battery.

A sweep whose cells a command also prints (schur, flagdim, fibermass, strata,
orbits) calls that command's cell function and reads its ok, so each cell has
one verdict; the sweep only loops and names the first failing cell.
"""

from __future__ import annotations

from collections import namedtuple
from math import comb

from . import coweights as cw
from . import flagcount as fc
from . import levi as lv
from . import orbits as ob
from . import schur as sc
from . import strata as st

DEFAULT_BOUNDS = {
    "schur_n": 3,
    "schur_d": 4,
    "margin_size": 5,
    "brute_flag_size": 5,
    "brute_aut_size": 4,
    "mass_d": 4,
    "induced_total": 6,
    "invariants_r": 4,
    "orbit_total_q2": 4,
    "orbit_total_q3": 3,
    "levi_rank": 4,
    "levi_bound": 2,
    "identity_n": 4,
}

# Bounds past these sizes are rejected before any sweep runs: an oracle would raise
# mid-sweep, or, past induced_total, no sweep of S_n checks the traces are a class function.
BOUND_CAPS = {
    "orbit_total_q2": ob.ORBIT_LIMIT[2],
    "orbit_total_q3": ob.ORBIT_LIMIT[3],
    "brute_flag_size": fc.BRUTE_FLAG_LIMIT[2],
    "brute_aut_size": min(fc.BRUTE_FLAG_LIMIT.values()),
    "induced_total": st.PERM_SWEEP_MAX_DEGREE,
}

# At 0 these bounds would leave their criterion, or a family of its cells,
# with nothing to check and a vacuous PASS, so they must be at least 1.
POSITIVE_BOUNDS = ("schur_n", "invariants_r", "levi_rank", "identity_n")


Check = namedtuple("Check", "name budget run")


def _schur_sweep(bounds):
    for n in range(1, bounds["schur_n"] + 1):
        for d in range(bounds["schur_d"] + 1):
            for dp in range(d, bounds["schur_d"] + 1):
                if not sc.verify_multiplicity_free(n, d, dp)[-1]:
                    return n, d, dp
    return None


def _margin_sweep(bounds):
    """Each flagdim row's verdict, and margin = -(drop of the special transposition chain)."""
    for mu, mup, _, margin, _, ok in fc.fiber_mass_table(bounds["margin_size"]):
        _, _, gap = cw.special_transposition_chain(cw.interleave(mu, mup, max(len(mu), len(mup), 1)))
        if not ok or margin != -gap:
            return mu, mup
    return None


def _brute_count_sweep(bounds):
    """Both polynomials against brute force, and their degrees against the dimension formulas."""
    for size in range(bounds["brute_flag_size"] + 1):
        for mu in cw.partitions(size):
            flags = fc.count_flags_poly(mu)
            if flags(2) != fc.count_flags_brute(mu, 2):
                return "flags", mu, 2
            if flags.degree != cw.complete_flag_dim(mu):
                return "flags-degree", mu
    for size in range(bounds["brute_aut_size"] + 1):
        for mu in cw.partitions(size):
            units = fc.aut_order_poly(mu)
            if units.degree != cw.automorphism_dim(mu):
                return "units-degree", mu
            for q in (2, 3):
                if units(q) != fc.count_commutant_units_brute(mu, q):
                    return "units", mu, q
    return None


def _mass_sweep(bounds):
    for d in range(bounds["mass_d"] + 1):
        for dp in range(d, bounds["mass_d"] + 1):
            try:
                if not fc.verify_collided_mass(d, dp)[-1]:
                    return d, dp
            except fc.MassPremiseError as exc:
                return d, dp, exc.mu, exc.mup
    return None


def _strata_vectors(bounds):
    want = {((1, 2), (3, 4)): ["(1 3)(2 4)", "(1 4)(2 3)"], ((1, 3), (2, 4)): ["(1 2)(3 4)"]}
    c_pairs, _ = st.stratify(2, 2)
    got = {(j, jp): sorted(w.cycle_notation() for w in ws) for j, jp, disjoint, ws in c_pairs if disjoint}
    return None if got == want else (2, 2)


def _induced_sweep(bounds):
    """Pairing count, the strata cover of the pairings, the induced model, invariants."""
    for total in range(bounds["induced_total"] + 1):
        for d in range(total // 2 + 1):
            dp = total - d
            pairings, _, covers, _, induced, expected, ok = st.verify_strata(d, dp)
            if not ok:
                if len(pairings) != expected:
                    return "pairing-count", d, dp
                if not covers:
                    return "strata-cover", d, dp
                return d, dp
            for r in range(1, bounds["invariants_r"] + 1):
                want = (comb(comb(r, 2) + d - 1, d) if d else 1) * (
                    comb(r + dp - d - 1, dp - d) if dp > d else 1
                )
                if st.invariants_dim(d, dp, r) != want:
                    return d, dp, r
    return None


def _orbit_sweep(bounds):
    for q, cap_key in ((2, "orbit_total_q2"), (3, "orbit_total_q3")):
        for total in range(bounds[cap_key] + 1):
            for d in range(total // 2 + 1):
                if not ob.verify_counts(d, total - d, q)[-1]:
                    return d, total - d, q
    return None


def _bell(m):
    """The Bell number B(m), the last entry of row m of the Bell triangle."""
    row = [1]
    for _ in range(m):
        nxt = [row[-1]]
        for x in row:
            nxt.append(nxt[-1] + x)
        row = nxt
    return row[0]


def _levi_sweep(bounds):
    """The antistandard Levi count, then the bound, its equality configuration and its converse on each."""
    levis = []
    for n in range(1, bounds["levi_rank"] + 1):
        # a block Levi is antistandard exactly when no block holds both i and i + 1, and
        # the set partitions of {1..n} with no such block are counted by the Bell number B(n - 1)
        found = lv.antistandard_levis(n)
        if len(found) != _bell(n - 1):
            return "antistandard-count", n, len(found), _bell(n - 1)
        levis += found
    bound = bounds["levi_bound"]
    for levi in levis:
        res = lv.sweep_inequality(levi, bound, bound)
        if res["failures"]:
            lam, nu, _ = res["failures"][0]
            return res["levi"], lam, nu
    return None


def _identity_audit(bounds):
    for n in range(1, bounds["identity_n"] + 1):
        for d in range(6):
            for dp in range(6):
                for g in range(4):
                    if not cw.fibration_dim_identity(n, d, dp, g)[2]:
                        return "fibration", n, d, dp, g
    for n in (2, 4, 6, 8):
        for r in range(6):
            for g in range(4):
                if cw.flag_bundle_dim(n, r, g) != cw.flag_bundle_dim_even(n, r, g):
                    return "flag-bundle", n, r, g
    for n in range(1, 4):
        for d in range(5):
            square = sc.dominant_index(n, d, d)
            for dp in range(d, 5):
                if not sc.verify_index_reversal(n, d, dp):
                    return "index-reversal", n, d, dp
                # the (d, d') index is tiled by the Pieri strips of its sources in the (d, d) index
                index = sc.dominant_index(n, d, dp)
                sources = {sc.pieri_source(lam, n, d, dp) for lam in index}
                tiles = [sc.pieri(mu, dp - d, 2 * n) for mu in sources]
                tiled = sum(map(len, tiles)) == len(index) and set().union(*tiles) == index
                if not (sources <= square and tiled):
                    return "pieri-tiling", n, d, dp
    return None


CHECKS = [
    Check("schur-multiplicity-free", 60, _schur_sweep),
    Check("flag-mass-margins", 10, _margin_sweep),
    Check("flag-count-recursion-vs-brute", 120, _brute_count_sweep),
    Check("collided-mass-degree-and-leading", 30, _mass_sweep),
    Check("strata-test-vectors", 1, _strata_vectors),
    Check("induced-character-and-invariants", 60, _induced_sweep),
    Check("orbit-counts-vs-classifying-pairs", 60, _orbit_sweep),
    Check("levi-pairing-gap-bound", 300, _levi_sweep),
    Check("dimension-identity-audits", 5, _identity_audit),
]
