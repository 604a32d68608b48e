"""Block Levi subgroups of GL_N: dominance orders, the squeeze set, and the
pairing-gap inequality.

A block Levi is an ordered set partition of {1..N}; each block keeps the
order induced from {1..N}.  Only GL_N root data are handled: the positive
coroots of the Levi are e_a - e_b for a before b in a common block.
"""

from __future__ import annotations

from collections import namedtuple
from functools import lru_cache
from itertools import accumulate, product
from operator import ge, itemgetter

from .coweights import pairing, partitions, weakly_decreasing, weakly_increasing

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
    return all(map(ge, firsts(lam), seconds(lam)))


@lru_cache(maxsize=None)
def _neighbours(levi: BlockLevi):
    """Getters of the entries at a and at b, over each pair of adjacent positions a before b in a block.

    Pairs (0, 0), which always hold, pad the list to two, so that each
    getter returns a tuple.
    """
    pairs = [(a - 1, b - 1) for block in levi.blocks for a, b in zip(block, block[1:])]
    pairs += [(0, 0)] * (2 - len(pairs))
    return itemgetter(*[a for a, _ in pairs]), itemgetter(*[b for _, b in pairs])


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
    return sorted(mu for mu, mu_dom, _, _ in rows if leq_g(mu_dom, nu))


def _check_pair(lam: Vec, nu: Vec, levi: BlockLevi) -> None:
    if len(lam) != levi.n or len(nu) != levi.n:
        raise ValueError(f"expected length {levi.n}")
    if not weakly_decreasing(nu):
        raise ValueError(f"nu must be dominant, got {nu}")


def _fixed_sum_tuples(length: int, lo: int, hi: int, total: int):
    """Weakly decreasing tuples with entries in [lo, hi] summing to total.

    They come in decreasing lexicographic order: with lo taken from each
    entry, a tuple is a partition of total - length * lo into at most length
    parts of at most hi - lo, padded with zeros.
    """
    for parts in partitions(total - length * lo, max_parts=length, max_part=hi - lo):
        yield tuple(lo + x for x in parts) + (lo,) * (length - len(parts))


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
    rhs = pairing(lam, kernel.rho_gap)
    _check_pair(lam, nu, levi)
    rows = kernel.rows(lam, min(nu), max(nu))
    r2 = pairing(lam, kernel.rho) - pairing(lam, kernel.rho_m)
    return kernel.report(_below(kernel.witnesses(lam, rhs, r2, rows), nu))


def _below(kept: list[tuple[dict, bool]], nu: Vec) -> list[tuple[dict, bool]]:
    """The kept witnesses at nu: those whose mu lies in the squeeze set, below nu."""
    return [(found, ok) for found, ok in kept if leq_g(found["mu_dom"], nu)]


def _orderings(values: Vec):
    """The distinct orderings of values, in increasing lexicographic order."""
    if not values:
        yield ()
        return
    for first in sorted(set(values)):
        rest = list(values)
        rest.remove(first)
        for tail in _orderings(tuple(rest)):
            yield (first,) + tail


# The integer enumerations a sweep reads, shared by every sweep of the
# process.  They are keyed on integers alone and read no hook, so a rebound
# f_val or pairing cannot reach them; the bounds keep a long run's memory flat.


@lru_cache(maxsize=1 << 8)
def _decreasing_tuples(length: int, lo: int, hi: int) -> tuple[Vec, ...]:
    """Every weakly decreasing tuple with entries in [lo, hi], in increasing lexicographic order."""
    if length == 0:
        return ((),)
    return tuple((first,) + rest for first in range(lo, hi + 1) for rest in _decreasing_tuples(length - 1, lo, first))


@lru_cache(maxsize=1 << 10)
def _dominant_nus(n: int, lo: int, hi: int, total: int) -> tuple[tuple[Vec, Vec], ...]:
    """Each dominant nu in [lo, hi]^n of sum total, with its prefix sums.

    For a mu_dom of the same sum, leq_g(mu_dom, nu) is that no prefix sum of
    mu_dom exceeds the same prefix sum of nu.
    """
    return tuple((nu, tuple(accumulate(nu))) for nu in _fixed_sum_tuples(n, lo, hi, total))


@lru_cache(maxsize=1 << 12)
def _block_choices(top: Vec, lo: int, hi: int) -> tuple[Vec, ...]:
    """Decreasing tuples in [lo, hi] with the sum of top that lie above it.

    Above is leq_g along the block, which is how the blockwise order of
    mu over dom_m(lam) factors over the blocks.
    """
    return tuple(c for c in _fixed_sum_tuples(len(top), lo, hi, sum(top)) if leq_g(top, c))


@lru_cache(maxsize=1 << 6)
def _block_tops(length: int, lo: int, hi: int) -> tuple[tuple[Vec, tuple[Vec, ...]], ...]:
    """Each decreasing tuple of the length in [lo, hi], with its orderings."""
    return tuple((top, tuple(_orderings(top))) for top in _decreasing_tuples(length, lo, hi))


@lru_cache(maxsize=1 << 6)
def _sum_counts(n: int, lam_bound: int) -> tuple[int, ...]:
    """How many lams of [-lam_bound, lam_bound]^n have each sum, from -n * lam_bound up."""
    counts = [1]
    for _ in range(n):
        padded = [0] * (2 * lam_bound) + counts + [0] * (2 * lam_bound)
        counts = [sum(padded[i : i + 2 * lam_bound + 1]) for i in range(len(counts) + 2 * lam_bound)]
    return tuple(counts)


_F = itemgetter(2)
_G = itemgetter(3)


class _Rows(dict):
    """The rows of one kernel, keyed on mu's blocks: a missing row is built on lookup.

    A row is (mu, dom_g(mu), f_val(mu), g(mu)), so f_val is called once per
    mu.  g(mu) = <mu, 2rho_M> - <dom_g(mu), 2rho> is the mu side of the
    second arrangement of the bound: by bilinearity,
    <lam + mu, 2rho_M> <= <lam + dom_g(mu), 2rho> is g(mu) <= r2(lam)
    with r2(lam) = <lam, 2rho> - <lam, 2rho_M>.  Neither side reads f_val
    or the gap, so a rebound f_val still shows as a mismatch.
    """

    __slots__ = ("levi", "place", "rho", "rho_m")

    def __init__(self, levi: BlockLevi, place, rho: Vec, rho_m: Vec):
        self.levi, self.place, self.rho, self.rho_m = levi, place, rho, rho_m

    def __missing__(self, blocks: tuple[Vec, ...]) -> tuple:
        mu = self.place(sum(blocks, ()))
        mu_dom = tuple(sorted(mu, reverse=True))
        row = self[blocks] = (mu, mu_dom, f_val(mu, self.levi), pairing(mu, self.rho_m) - pairing(mu_dom, self.rho))
        return row


class _LeviKernel:
    """What a sweep over one Levi computes once and reuses.

    The rho vectors, their gap and the antistandard flag are fixed by the
    Levi.  The candidates of a lam depend on it only through its dom_m
    class, the block-sorted lam, and a class's rows are one per candidate
    mu, from the product of each block's _block_choices.  The rows read
    f_val and pairing, so they live in the kernel, and a kernel lives for
    one sweep or one public call; the integer enumerations above outlive
    it.  It calls f_val and pairing through the module globals: a rebound
    f_val or pairing takes effect from the next sweep on.
    """

    def __init__(self, levi: BlockLevi):
        n = levi.n
        self.levi = levi
        self.rho = two_rho(n)
        self.rho_m = two_rho_levi(levi)
        self.rho_gap = tuple(a - b for a, b in zip(self.rho, self.rho_m))
        self.antistandard = is_antistandard(levi)
        self._index = [[p - 1 for p in block] for block in levi.blocks]
        # place: the vector from its blocks' values laid end to end, block by block
        order = [p for index in self._index for p in index]
        self.place = tuple if order == list(range(n)) else itemgetter(*sorted(range(n), key=order.__getitem__))
        self._rows = _Rows(levi, self.place, self.rho, self.rho_m)

    def rows(self, lam: Vec, lo: int, hi: int) -> list[tuple]:
        """The rows of lam's dom_m class over [lo, hi].

        The candidates are the Levi-dominant mu with entries in [lo, hi]
        above the class blockwise.  For a lam of the class and a dominant nu
        with lo <= min(nu) and max(nu) <= hi, the squeeze set of (lam, nu) is
        the candidates with leq_g(dom_g(mu), nu): that test forces equal sums
        and the entries of mu into [min nu, max nu].
        """
        if min(lam) < lo or hi < max(lam):
            # a block of mu above a block of lam starts at least as high and
            # ends at least as low, so some block has no choice in [lo, hi]
            return []
        get = lam.__getitem__
        tops = [tuple(sorted(map(get, index), reverse=True)) for index in self._index]
        return list(map(self._rows.__getitem__, product(*[_block_choices(top, lo, hi) for top in tops])))

    def witnesses(self, lam: Vec, rhs: int, r2: int, rows: list[tuple]) -> list[tuple[dict, bool]]:
        """The witness list of lam over its class rows, sorted by mu.

        rhs = <lam, 2rho - 2rho_M> is the bound and r2(lam) the lam side of
        its second arrangement.  The list holds (witness, ok) for each row
        that has a witness; a mu without one adds nothing to any report.  A
        mu has a witness exactly when it reaches the bound, breaks the second
        arrangement, or is the blockwise reversal that the converse names,
        so every other row costs three integer comparisons.
        """
        levi = self.levi
        antidominant = weakly_increasing(lam)
        # only an antidominant lam has an expected configuration or a converse
        reversed_m, reversed_g = (w0_m(lam, levi), w0_g(lam)) if antidominant else (None, None)
        mu_star = reversed_m if self.antistandard else None
        hits = [row for row in rows if row[2] >= rhs or row[3] > r2 or row[0] == mu_star]
        out = []
        for mu, mu_dom, value, g in hits:
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
        if len(out) > 1:
            out.sort(key=lambda item: item[0]["mu"])
        return out

    def report(self, below: list[tuple[dict, bool]]) -> dict:
        """verify_inequality's report from the witnesses at nu; it gets its own witness dicts."""
        return {
            "holds": all(ok for _, ok in below),
            "antistandard": self.antistandard,
            "witnesses": [dict(found) for found, _ in below],
        }

    def classes(self, lam_bound: int, lo: int, hi: int):
        """Every dom_m class of the lam box [-lam_bound, lam_bound]^n with candidates over [lo, hi],
        with what the sweep reads of it.

        A class is a product of one decreasing tuple per block, and its lams
        are the products of its blocks' orderings.  A class with an entry
        outside [lo, hi] has no candidates, so its pairs hold with no
        witness and it is not listed.  Both lam sides of the bound, rhs and
        r2, are bilinear, so each ordering carries its part of each, from
        pairing at its values padded with zeros, and a lam's sides are the
        sums of its blocks' parts.  Each class comes as one record per
        block: (orderings, block choices, smallest part of rhs, smallest
        part of r2), each ordering as (values, part of rhs, part of r2).
        """
        n = self.levi.n
        per_block = []
        for index in self._index:
            records = []
            for top, orderings in _block_tops(len(index), max(lo, -lam_bound), min(hi, lam_bound)):
                rhs_parts = []
                r2_parts = []
                for values in orderings:
                    padded = [0] * n
                    for pos, val in zip(index, values):
                        padded[pos] = val
                    padded = tuple(padded)
                    rhs_parts.append(pairing(padded, self.rho_gap))
                    r2_parts.append(pairing(padded, self.rho) - pairing(padded, self.rho_m))
                sided = tuple(zip(orderings, rhs_parts, r2_parts))
                records.append((sided, _block_choices(top, lo, hi), min(rhs_parts), min(r2_parts)))
            per_block.append(records)
        return product(*per_block)

    def sweep(self, lam_bound: int, nu_bound: int) -> tuple[int, list, list]:
        """The bound at every lam in [-lam_bound, lam_bound]^n and every dominant nu of its sum
        in [-nu_bound, nu_bound]^n: the classes in classes order, then the antidominant lams.

        Returns (pairs checked, equalities, failures).  A row has no witness
        when f < rhs, g <= r2 and mu is not the mu_star of the converse, so
        a lam whose rhs exceeds the largest f of its class rows and whose r2
        is at least their largest g can only fail the converse, which names
        an antidominant lam alone.  The class loop judges every other lam
        over its class rows, and skips a class whose smallest parts already
        clear both maxima; the antidominant lams it did not judge are judged
        after it.
        """
        n = self.levi.n
        lo, hi = -nu_bound, nu_bound
        place = self.place
        row = self._rows.__getitem__
        # every lam of the box meets every dominant nu of its sum
        counts = _sum_counts(n, lam_bound)
        total = sum([count * len(_dominant_nus(n, lo, hi, s)) for s, count in enumerate(counts, -n * lam_bound)])
        equalities = []
        failures = []
        for blocks in self.classes(lam_bound, lo, hi):
            orderings, choices, least_rhs, least_r2 = zip(*blocks)
            rows = list(map(row, product(*choices)))
            max_f = max(map(_F, rows))
            max_g = max(map(_G, rows))
            if sum(least_rhs) > max_f and sum(least_r2) >= max_g:
                continue
            for member in product(*orderings):
                values, rhs_parts, r2_parts = zip(*member)
                rhs = sum(rhs_parts)
                r2 = sum(r2_parts)
                if rhs <= max_f or r2 < max_g:
                    self.judge(place(sum(values, ())), rhs, r2, rows, lo, hi, equalities, failures)
        if self.antistandard:
            # each antidominant lam with candidates that the class loop left unjudged: it clears both maxima
            for top in _decreasing_tuples(n, max(lo, -lam_bound), min(hi, lam_bound)):
                lam = top[::-1]
                rows = self.rows(lam, lo, hi)
                rhs = pairing(lam, self.rho_gap)
                r2 = pairing(lam, self.rho) - pairing(lam, self.rho_m)
                if rhs > max(map(_F, rows)) and r2 >= max(map(_G, rows)):
                    self.judge(lam, rhs, r2, rows, lo, hi, equalities, failures)
        return total, equalities, failures

    def judge(self, lam: Vec, rhs: int, r2: int, rows: list[tuple], lo: int, hi: int, equalities, failures) -> None:
        """Add lam's equalities and failures at each dominant nu of its sum in [lo, hi]^n."""
        kept = self.witnesses(lam, rhs, r2, rows)
        if not kept:
            return  # an empty witness list holds at every nu and reports nothing
        prefixes = [tuple(accumulate(found["mu_dom"])) for found, _ in kept]
        for nu, nu_prefix in _dominant_nus(self.levi.n, lo, hi, sum(lam)):
            below = [item for item, prefix in zip(kept, prefixes) if all(map(ge, nu_prefix, prefix))]
            for found, _ in below:
                if found["kind"] == "equality":
                    equalities.append((lam, nu, found["mu"], found["mu_dom"], found["f"], rhs))
            if not all(ok for _, ok in below):
                failures.append((lam, nu, self.report(below)))


def sweep_inequality(levi: BlockLevi, lam_bound: int, nu_bound: int) -> dict:
    """Exhaustive check of the bound for all lam, dominant nu within the box.

    Returns whether the Levi is antistandard, totals, every equality witness
    (lam, nu, mu, mu_dom, f, rhs) in canonical order, and any failures, all
    from one kernel.
    """
    kernel = _LeviKernel(levi)
    total, equalities, failures = kernel.sweep(lam_bound, nu_bound)
    failures.sort(key=lambda item: (item[0], item[1]))
    return {
        "levi": str(levi),
        "antistandard": kernel.antistandard,
        "pairs_checked": total,
        "equalities": sorted(equalities),
        "failures": failures,
        "holds": not failures,
    }
