"""Block Levi subgroups of GL_N: dominance orders, the squeeze set, and the
pairing-gap inequality.

A block Levi is an ordered set partition of {1..N}; each block keeps the
order induced from {1..N}.  Only GL_N root data are handled: the positive
coroots of the Levi are e_a - e_b for a before b in a common block.
"""

from __future__ import annotations

import os
from collections import namedtuple
from functools import lru_cache
from itertools import product
from operator import ge

from .coweights import pairing, weakly_decreasing, weakly_increasing

Vec = tuple[int, ...]


class BlockLevi(namedtuple("BlockLevi", "n blocks")):
    """A block Levi of GL_n: blocks sorted, each block sorted.

    An immutable pair (n, blocks) whose hash and equality are the tuple's own,
    so the lru_cache lookups keyed on a Levi run in C.
    """

    __slots__ = ()

    def __new__(cls, n: int, blocks):
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        canon = tuple(sorted(tuple(sorted(b)) for b in blocks))
        flat = [i for b in canon for i in b]
        if sorted(flat) != list(range(1, n + 1)):
            raise ValueError(f"blocks {blocks} are not a partition of 1..{n}")
        if any(not b for b in canon):
            raise ValueError("empty block")
        return super().__new__(cls, n, canon)

    def __str__(self):
        return "[" + ",".join("[" + ",".join(map(str, b)) + "]" for b in self.blocks) + "]"


def parse_blocks(n: int, text: str) -> BlockLevi:
    """Parse a block list like "[[1,3],[2,4]]"."""
    import json

    data = json.loads(text)
    if not isinstance(data, list) or not all(
        isinstance(b, list) and all(type(i) is int for i in b) for b in data
    ):
        raise ValueError(f"blocks must be a JSON list of lists of integers, got {text!r}")
    return BlockLevi(n, [tuple(b) for b in data])


@lru_cache(maxsize=None)
def two_rho(n: int) -> Vec:
    return tuple(n - 1 - 2 * i for i in range(n))


@lru_cache(maxsize=None)
def two_rho_levi(levi: BlockLevi) -> Vec:
    out = [0] * levi.n
    for block in levi.blocks:
        size = len(block)
        for j, pos in enumerate(block):
            out[pos - 1] = size - 1 - 2 * j
    return tuple(out)


def is_antistandard(levi: BlockLevi) -> bool:
    """Every simple coroot of the Levi pairs strictly positively with the gap.

    The gap is 2*rho of the ambient group minus 2*rho of the Levi; a torus has
    no simple coroots and passes vacuously.
    """
    gap = [a - b for a, b in zip(two_rho(levi.n), two_rho_levi(levi))]
    for block in levi.blocks:
        for a, b in zip(block, block[1:]):
            if gap[a - 1] - gap[b - 1] <= 0:
                return False
    return True


def antistandard_levis(n: int) -> list[BlockLevi]:
    """All antistandard block Levis of GL_n, enumerated over set partitions."""
    out = []
    for part in _set_partitions(list(range(1, n + 1))):
        levi = BlockLevi(n, [tuple(b) for b in part])
        if is_antistandard(levi):
            out.append(levi)
    return sorted(out, key=lambda lv: lv.blocks)


def _set_partitions(items: list[int]):
    if not items:
        yield []
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[head] + part[i]] + part[i + 1 :]
        yield [[head]] + part


# ---------------------------------------------------------------------------
# dominance orders


def dom_g(lam: Vec) -> Vec:
    """Dominant representative: entries sorted weakly decreasing."""
    return tuple(sorted(lam, reverse=True))


def _place(levi: BlockLevi, per_block) -> Vec:
    """The vector holding each block's values, in order, at that block's positions."""
    out = [0] * levi.n
    for block, values in zip(levi.blocks, per_block):
        for pos, val in zip(block, values):
            out[pos - 1] = val
    return tuple(out)


def is_dominant_m(lam: Vec, levi: BlockLevi) -> bool:
    firsts, seconds = _neighbours(levi)
    get = lam.__getitem__
    return all(map(ge, map(get, firsts), map(get, seconds)))


@lru_cache(maxsize=None)
def _neighbours(levi: BlockLevi) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The 0-based positions a and b of each pair of adjacent entries a before b in a block."""
    pairs = [(a - 1, b - 1) for block in levi.blocks for a, b in zip(block, block[1:])]
    return tuple(a for a, _ in pairs), tuple(b for _, b in pairs)


def leq_g(lam: Vec, mu: Vec) -> bool:
    """Whether mu - lam is a nonnegative integer sum of e_i - e_j with i < j."""
    if len(lam) != len(mu):
        raise ValueError("length mismatch")
    if sum(lam) != sum(mu):
        return False
    run = 0
    for a, b in zip(lam, mu):
        run += b - a
        if run < 0:
            return False
    return True


def w0_g(lam: Vec) -> Vec:
    """Longest-element action: reverse the coordinates."""
    return tuple(reversed(lam))


def w0_m(lam: Vec, levi: BlockLevi) -> Vec:
    """Longest Levi element: reverse coordinates within each block."""
    return _place(levi, ([lam[p - 1] for p in block][::-1] for block in levi.blocks))


# ---------------------------------------------------------------------------
# the squeeze set and the inequality


def j_set(lam: Vec, nu: Vec, levi: BlockLevi) -> list[Vec]:
    """All Levi-dominant mu above lam blockwise and below nu globally.

    Each block of mu is a decreasing tuple in the range of nu with the block
    sum of lam that lies above that block of dom_m(lam); every product of
    such blocks is then tested against nu literally.
    """
    _check_pair(lam, nu, levi)
    rows = _LeviKernel(levi).rows(lam, min(nu), max(nu))
    return [mu for mu, mu_dom, _, _ in rows if leq_g(mu_dom, nu)]


def _check_pair(lam: Vec, nu: Vec, levi: BlockLevi) -> None:
    if len(lam) != levi.n or len(nu) != levi.n:
        raise ValueError(f"expected length {levi.n}")
    if not weakly_decreasing(nu):
        raise ValueError(f"nu must be dominant, got {nu}")


def _fixed_sum_tuples(length: int, lo: int, hi: int, total: int):
    """Weakly decreasing tuples with entries in [lo, hi] summing to total.

    They come in decreasing lexicographic order.  The first entry is the
    largest, so it is at least total / length, and the rest must be able to
    reach their sum from entries >= lo; every branch taken yields a tuple.
    """
    if length == 0:
        if total == 0:
            yield ()
        return
    top = min(hi, total - (length - 1) * lo)
    bottom = max(lo, -(-total // length))
    for first in range(top, bottom - 1, -1):
        for rest in _fixed_sum_tuples(length - 1, lo, first, total - first):
            yield (first,) + rest


def f_val(mu: Vec, levi: BlockLevi) -> int:
    """Pairing gap of mu: <mu, 2 rho_M> - <dominant sort of mu, 2 rho>."""
    if not is_dominant_m(mu, levi):
        raise ValueError(f"{mu} is not dominant for the Levi {levi}")
    return pairing(mu, two_rho_levi(levi)) - pairing(dom_g(mu), two_rho(levi.n))


def verify_inequality(lam: Vec, nu: Vec, levi: BlockLevi) -> dict:
    """Check the pairing-gap bound over the whole squeeze set of (lam, nu).

    For every mu in the set, f(mu) <= <lam, 2rho - 2rho_M> must hold, in both
    of its equivalent arrangements; a mu where the two disagree fails the
    check with a "mismatch" witness.  For an antistandard Levi, equality must
    pin down the configuration: lam antidominant, mu the blockwise reversal
    of lam, and the dominant sort of mu the full reversal of lam.  Conversely,
    when lam is antidominant and its blockwise reversal lies in the squeeze
    set, the bound must be attained there; otherwise a "converse" witness
    fails the check.
    """
    kernel = _LeviKernel(levi)
    # the bound <lam, gap> is read first: pairing reports a lam of the wrong
    # length before nu is looked at
    pairing(lam, kernel.rho_gap)
    _check_pair(lam, nu, levi)
    return kernel.report(kernel.kept(lam, min(nu), max(nu)), nu)


class _LeviKernel:
    """What a sweep over one Levi computes once and reuses.

    The rho vectors, their gap and the antistandard flag are fixed by the
    Levi.  The candidates of a lam depend on it only through its dom_m
    class, the block-sorted lam, so each class gets its rows once per range:
    (mu, dom_g(mu), f(mu), g(mu)) for each sorted candidate mu, built from
    per-block choices cached on (block values, lo, hi) and from one row per
    mu.  A lam with an entry outside [lo, hi] has no candidates and costs no
    class lookup; any other lam costs at most three pairings and a walk over
    its class rows.  A kernel lives for one sweep chunk or one public call,
    so nothing is kept across sweeps.  It calls f_val and pairing through
    the module globals: a rebound f_val or pairing takes effect from the
    next sweep on.
    """

    def __init__(self, levi: BlockLevi):
        self.levi = levi
        self.rho = two_rho(levi.n)
        self.rho_m = two_rho_levi(levi)
        self.rho_gap = tuple(a - b for a, b in zip(self.rho, self.rho_m))
        self.antistandard = is_antistandard(levi)
        self._index = [[p - 1 for p in block] for block in levi.blocks]
        self._choices: dict = {}
        self._rows: dict = {}
        self._mu_rows: dict = {}

    def block_choices(self, top: Vec, lo: int, hi: int) -> list[Vec]:
        """Decreasing tuples in [lo, hi] with the sum of top that lie above it.

        Above is leq_g along the block, which is how the blockwise order of
        mu over dom_m(lam) factors over the blocks.
        """
        key = (top, lo, hi)
        found = self._choices.get(key)
        if found is None:
            found = [c for c in _fixed_sum_tuples(len(top), lo, hi, sum(top)) if leq_g(top, c)]
            self._choices[key] = found
        return found

    def rows(self, lam: Vec, lo: int, hi: int) -> list[tuple]:
        """The rows of lam's dom_m class: one per candidate mu, in sorted order.

        The candidates are the Levi-dominant mu with entries in [lo, hi]
        above lam blockwise.  For a dominant nu with lo <= min(nu) and
        max(nu) <= hi, the squeeze set of (lam, nu) is the candidates with
        leq_g(dom_g(mu), nu): that test forces equal sums and the entries of
        mu into [min nu, max nu].
        """
        if min(lam) < lo or hi < max(lam):
            # a block of mu above a block of lam starts at least as high and
            # ends at least as low, so some block has no choice in [lo, hi]
            return []
        get = lam.__getitem__
        tops = tuple([tuple(sorted(map(get, index), reverse=True)) for index in self._index])
        key = (tops, lo, hi)
        found = self._rows.get(key)
        if found is None:
            per_block = [self.block_choices(top, lo, hi) for top in tops]
            mus = sorted(_place(self.levi, combo) for combo in product(*per_block))
            found = self._rows[key] = [self.mu_row(mu) for mu in mus]
        return found

    def mu_row(self, mu: Vec) -> tuple:
        """(mu, dom_g(mu), f_val(mu), g(mu)); f_val is called at most once per mu.

        g(mu) = <mu, 2rho_M> - <dom_g(mu), 2rho> is the mu side of the
        second arrangement of the bound: by bilinearity,
        <lam + mu, 2rho_M> <= <lam + dom_g(mu), 2rho> is g(mu) <= r2(lam)
        with r2(lam) = <lam, 2rho> - <lam, 2rho_M>.  Neither side reads
        f_val or the gap, so a rebound f_val still shows as a mismatch.
        """
        found = self._mu_rows.get(mu)
        if found is None:
            mu_dom = dom_g(mu)
            g = pairing(mu, self.rho_m) - pairing(mu_dom, self.rho)
            found = self._mu_rows[mu] = (mu, mu_dom, f_val(mu, self.levi), g)
        return found

    def kept(self, lam: Vec, lo: int, hi: int) -> list[tuple[dict, bool]]:
        """The witness list of lam over the range [lo, hi].

        It holds (witness, ok) for each candidate mu, in sorted order, that
        has a witness; a mu without one adds nothing to any report.  A mu
        has a witness exactly when it reaches the bound, breaks the second
        arrangement, or is the blockwise reversal that the converse names,
        so every other row costs three integer comparisons, and a lam with
        no candidates costs no pairing.
        """
        rows = self.rows(lam, lo, hi)
        if not rows:
            return []
        levi = self.levi
        rhs = pairing(lam, self.rho_gap)
        r2 = pairing(lam, self.rho) - pairing(lam, self.rho_m)
        antidominant = weakly_increasing(lam)
        # only an antidominant lam has an expected configuration or a converse
        reversed_m, reversed_g = (w0_m(lam, levi), w0_g(lam)) if antidominant else (None, None)
        mu_star = reversed_m if self.antistandard else None
        out = []
        for mu, mu_dom, value, g in rows:
            if value < rhs and g <= r2 and mu != mu_star:
                continue
            # the same inequality in two arrangements; both must agree
            first = value <= rhs
            second = g <= r2
            found = {"mu": mu, "mu_dom": mu_dom, "f": value, "rhs": rhs}
            if not (first and second):
                found["kind"] = "mismatch" if first != second else "violation"
                out.append((found, False))
            elif mu == mu_star and value != rhs:
                found["kind"] = "converse"
                out.append((found, False))
            else:
                expected = antidominant and mu == reversed_m and mu_dom == reversed_g
                found["kind"] = "equality"
                found["expected_configuration"] = expected
                found["lam_antidominant_g"] = antidominant
                found["lam_antidominant_m"] = is_dominant_m(tuple(-x for x in lam), levi)
                out.append((found, expected or not self.antistandard))
        return out

    def report(self, kept: list[tuple[dict, bool]], nu: Vec) -> dict:
        """verify_inequality's report at nu: the kept witnesses whose mu is below nu.

        Each report gets its own witness dicts.
        """
        below = [(found, ok) for found, ok in kept if leq_g(found["mu_dom"], nu)]
        return {
            "holds": all(ok for _, ok in below),
            "antistandard": self.antistandard,
            "witnesses": [dict(found) for found, _ in below],
        }


def _sweep_chunk(payload) -> tuple[bool, int, list, list]:
    n, blocks, lams, nu_bound = payload
    kernel = _LeviKernel(BlockLevi(n, blocks))
    nus_by_sum: dict[int, list[Vec]] = {}
    total = 0
    equalities = []
    failures = []
    for lam in lams:
        s = sum(lam)
        nus = nus_by_sum.get(s)
        if nus is None:
            nus = nus_by_sum[s] = list(_fixed_sum_tuples(n, -nu_bound, nu_bound, s))
        total += len(nus)
        kept = kernel.kept(lam, -nu_bound, nu_bound)
        # an empty witness list holds at every nu and reports nothing
        for nu in nus if kept else ():
            report = kernel.report(kept, nu)
            for w in report["witnesses"]:
                if w["kind"] == "equality":
                    equalities.append(
                        (lam, nu, w["mu"], w["mu_dom"], w["f"], w["rhs"])
                    )
            if not report["holds"]:
                failures.append((lam, nu, report))
    return kernel.antistandard, total, equalities, failures


def sweep_inequality(levi: BlockLevi, lam_bound: int, nu_bound: int, jobs: int = 1) -> dict:
    """Exhaustive check of the bound for all lam, dominant nu within the box.

    Returns whether the Levi is antistandard, totals, every equality witness
    (lam, nu, mu, mu_dom, f, rhs) in canonical order, and any failures.  Each
    chunk of lam builds its own kernel.  jobs is clamped to the CPU count and
    to the number of lam, so no worker process is started idle.
    """
    (res,) = sweep_levis([levi], lam_bound, nu_bound, jobs)
    return res


def sweep_levis(levis, lam_bound: int, nu_bound: int, jobs: int = 1):
    """sweep_inequality for each Levi in turn, all on at most one worker pool.

    The reports come one at a time, in the order of levis, so a caller that
    stops at the first failing Levi sweeps no further.  jobs is clamped to the
    CPU count and to the lam count of the largest Levi, and each Levi splits
    its lam into that many chunks (a smaller Levi may leave some empty).  With
    one job no pool is started.
    """
    levis = list(levis)
    most_lams = max(((2 * lam_bound + 1) ** levi.n for levi in levis), default=0)
    jobs = min(jobs, os.cpu_count() or 1, most_lams)
    if jobs <= 1:
        for levi in levis:
            yield _merge(levi, list(map(_sweep_chunk, _chunks(levi, lam_bound, nu_bound, 1))))
        return
    from multiprocessing import Pool

    with Pool(jobs) as pool:
        for levi in levis:
            yield _merge(levi, pool.map(_sweep_chunk, _chunks(levi, lam_bound, nu_bound, jobs)))


def _chunks(levi: BlockLevi, lam_bound: int, nu_bound: int, jobs: int) -> list[tuple]:
    """The sweep of one Levi split into jobs _sweep_chunk payloads, one per stride of lam."""
    lams = list(product(range(-lam_bound, lam_bound + 1), repeat=levi.n))
    return [(levi.n, levi.blocks, lams[k::jobs], nu_bound) for k in range(jobs)]


def _merge(levi: BlockLevi, parts) -> dict:
    """One Levi's report from the results of its chunks, whatever the split."""
    failures = sorted((f for p in parts for f in p[3]), key=lambda item: (item[0], item[1]))
    return {
        "levi": str(levi),
        "antistandard": parts[0][0],
        "pairs_checked": sum(p[1] for p in parts),
        "equalities": sorted(e for p in parts for e in p[2]),
        "failures": failures,
        "holds": not failures,
    }
