"""Block Levi subgroups of GL_N: dominance orders, the squeeze set, and the
pairing-gap inequality.

A block Levi is an ordered set partition of {1..N}; each block keeps the
order induced from {1..N}.  Only GL_N root data are handled: the positive
coroots of the Levi are e_a - e_b for a before b in a common block.
"""

from __future__ import annotations

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
    return sorted(mu for mu, mu_dom, _, _ in rows if leq_g(mu_dom, nu))


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
    rhs = pairing(lam, kernel.rho_gap)
    _check_pair(lam, nu, levi)
    rows = kernel.rows(lam, min(nu), max(nu))
    r2 = pairing(lam, kernel.rho) - pairing(lam, kernel.rho_m)
    return kernel.report(_below(kernel.witnesses(lam, rhs, r2, rows), nu))


def _below(kept: list[tuple[dict, bool]], nu: Vec) -> list[tuple[dict, bool]]:
    """The kept witnesses at nu: those whose mu lies in the squeeze set, below nu."""
    return [(found, ok) for found, ok in kept if leq_g(found["mu_dom"], nu)]


def _decreasing_tuples(length: int, lo: int, hi: int):
    """Every weakly decreasing tuple with entries in [lo, hi]."""
    if length == 0:
        yield ()
        return
    for first in range(lo, hi + 1):
        for rest in _decreasing_tuples(length - 1, lo, first):
            yield (first,) + rest


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


class _LeviKernel:
    """What a sweep over one Levi computes once and reuses.

    The rho vectors, their gap and the antistandard flag are fixed by the
    Levi.  The candidates of a lam depend on it only through its dom_m
    class, the block-sorted lam, and a class's rows are
    (mu, dom_g(mu), f(mu), g(mu)), one per candidate mu, built from per-block
    choices cached on (block values, lo, hi) and from one row per mu.  A
    kernel lives for one sweep or one public call, so nothing is kept
    across sweeps.  It calls f_val and pairing through the module globals:
    a rebound f_val or pairing takes effect from the next sweep on.
    """

    def __init__(self, levi: BlockLevi):
        self.levi = levi
        self.rho = two_rho(levi.n)
        self.rho_m = two_rho_levi(levi)
        self.rho_gap = tuple(a - b for a, b in zip(self.rho, self.rho_m))
        self.antistandard = is_antistandard(levi)
        self._index = [[p - 1 for p in block] for block in levi.blocks]
        self._choices: dict = {}
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

    def class_rows(self, choices: list[list[Vec]]) -> list[tuple]:
        """The rows of a dom_m class, one per candidate mu, from each block's block_choices.

        The candidates are the Levi-dominant mu with entries in [lo, hi]
        above the class blockwise.  For a lam of the class and a dominant nu
        with lo <= min(nu) and max(nu) <= hi, the squeeze set of (lam, nu) is
        the candidates with leq_g(dom_g(mu), nu): that test forces equal sums
        and the entries of mu into [min nu, max nu].  A row is built once per
        kernel, keyed on mu's blocks, and f_val is called once per mu.
        """
        mu_rows = self._mu_rows
        out = []
        for combo in product(*choices):
            row = mu_rows.get(combo)
            if row is None:
                row = mu_rows[combo] = self.mu_row(_place(self.levi, combo))
            out.append(row)
        return out

    def rows(self, lam: Vec, lo: int, hi: int) -> list[tuple]:
        """The rows of lam's dom_m class over [lo, hi]."""
        if min(lam) < lo or hi < max(lam):
            # a block of mu above a block of lam starts at least as high and
            # ends at least as low, so some block has no choice in [lo, hi]
            return []
        get = lam.__getitem__
        tops = [tuple(sorted(map(get, index), reverse=True)) for index in self._index]
        return self.class_rows([self.block_choices(top, lo, hi) for top in tops])

    def mu_row(self, mu: Vec) -> tuple:
        """(mu, dom_g(mu), f_val(mu), g(mu)).

        g(mu) = <mu, 2rho_M> - <dom_g(mu), 2rho> is the mu side of the
        second arrangement of the bound: by bilinearity,
        <lam + mu, 2rho_M> <= <lam + dom_g(mu), 2rho> is g(mu) <= r2(lam)
        with r2(lam) = <lam, 2rho> - <lam, 2rho_M>.  Neither side reads
        f_val or the gap, so a rebound f_val still shows as a mismatch.
        """
        mu_dom = dom_g(mu)
        g = pairing(mu, self.rho_m) - pairing(mu_dom, self.rho)
        return mu, mu_dom, f_val(mu, self.levi), g

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
        """Every dom_m class of the lam box [-lam_bound, lam_bound]^n, with what the sweep reads of it.

        A class is a product of one decreasing tuple per block, and its lams
        are the products of its blocks' orderings.  Both lam sides of the
        bound, rhs and r2, are bilinear, so each ordering carries its part
        of each, from pairing at its values padded with zeros, and a lam's
        sides are the sums of its blocks' parts.  Each class comes as (tops,
        orderings, block choices, sum, lam count, smallest rhs, smallest r2);
        each block's orderings are (values, part of rhs, part of r2), the
        weakly increasing one first.  A class with an entry outside [lo, hi]
        has no candidates, so it comes with its sum and lam count alone.
        """
        n = self.levi.n
        shapes: dict[int, list] = {}  # each block length's decreasing tuples, with their orderings
        classes = iter([((), (), [], 0, 1, 0, 0)])
        for index in self._index:
            records = []
            if len(index) not in shapes:
                tops = _decreasing_tuples(len(index), -lam_bound, lam_bound)
                shapes[len(index)] = [(top, list(_orderings(top))) for top in tops]
            for top, orderings in shapes[len(index)]:
                if top[-1] < lo or hi < top[0]:
                    records.append((None, None, None, sum(top), len(orderings), 0, 0))
                    continue
                rhs_parts = []
                r2_parts = []
                for values in orderings:
                    padded = [0] * n
                    for pos, val in zip(index, values):
                        padded[pos] = val
                    padded = tuple(padded)
                    rhs_parts.append(pairing(padded, self.rho_gap))
                    r2_parts.append(pairing(padded, self.rho) - pairing(padded, self.rho_m))
                sided = list(zip(orderings, rhs_parts, r2_parts))
                choice = [self.block_choices(top, lo, hi)]
                records.append((top, sided, choice, sum(top), len(sided), min(rhs_parts), min(r2_parts)))
            classes = _extended(classes, records)
        return classes

    def sweep(self, lam_bound: int, nu_bound: int) -> tuple[int, list, list]:
        """The bound at every lam in [-lam_bound, lam_bound]^n and every dominant nu of its sum
        in [-nu_bound, nu_bound]^n, over every class in classes order.

        Returns (pairs checked, equalities, failures).  A row has no witness
        when f < rhs, g <= r2 and mu is not the mu_star of the converse, so
        a lam whose rhs exceeds the largest f of its class rows and whose r2
        is at least their largest g can only fail the converse, which names
        an antidominant lam alone.  Every other lam is judged over its class
        rows.  When the smallest parts already clear both maxima, no lam of
        the class is judged but its antidominant one, if it has one.
        """
        levi = self.levi
        lo, hi = -nu_bound, nu_bound
        nus_by_sum: dict[int, list[Vec]] = {}
        # each antidominant lam with candidates, keyed by its class: its values in each block, read backwards
        antidominant = {}
        if self.antistandard:
            for top in _decreasing_tuples(levi.n, max(lo, -lam_bound), min(hi, lam_bound)):
                lam = top[::-1]
                antidominant[tuple([tuple([lam[p] for p in reversed(index)]) for index in self._index])] = lam
        total = 0
        equalities = []
        failures = []
        for tops, orderings, choices, s, size, least_rhs, least_r2 in self.classes(lam_bound, lo, hi):
            nus = nus_by_sum.get(s)
            if nus is None:
                nus = nus_by_sum[s] = list(_fixed_sum_tuples(levi.n, lo, hi, s))
            total += size * len(nus)
            if choices is None:
                continue  # no candidates: each pair holds with no witness
            rows = self.class_rows(choices)
            max_f = max([row[2] for row in rows])
            max_g = max([row[3] for row in rows])
            judged = []
            if not (least_rhs > max_f and least_r2 >= max_g):
                for member in product(*orderings):
                    rhs = sum([entry[1] for entry in member])
                    r2 = sum([entry[2] for entry in member])
                    if rhs <= max_f or r2 < max_g:
                        judged.append((_place(levi, [entry[0] for entry in member]), rhs, r2))
            lam = antidominant.get(tops)
            if lam is not None:
                # its blocks' first orderings; judged above unless it clears both maxima
                rhs = sum([ords[0][1] for ords in orderings])
                r2 = sum([ords[0][2] for ords in orderings])
                if rhs > max_f and r2 >= max_g:
                    judged.append((lam, rhs, r2))
            for lam, rhs, r2 in judged:
                kept = self.witnesses(lam, rhs, r2, rows)
                # an empty witness list holds at every nu and reports nothing
                for nu in nus if kept else ():
                    below = _below(kept, nu)
                    for found, _ in below:
                        if found["kind"] == "equality":
                            equalities.append((lam, nu, found["mu"], found["mu_dom"], found["f"], rhs))
                    if not all(ok for _, ok in below):
                        failures.append((lam, nu, self.report(below)))
        return total, equalities, failures


def _extended(classes, records):
    """Each class extended by each record of one more block, as _LeviKernel.classes lists them."""
    for tops, ords, choices, s, size, rhs, r2 in classes:
        for top, orderings, choice, t, count, least_rhs, least_r2 in records:
            if choices is None or choice is None:
                yield None, None, None, s + t, size * count, 0, 0
            else:
                yield (
                    tops + (top,), ords + (orderings,), choices + choice,
                    s + t, size * count, rhs + least_rhs, r2 + least_r2,
                )


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
