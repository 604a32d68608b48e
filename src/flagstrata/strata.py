"""Involution combinatorics of the pair stratification on {1..d+d'}.

A pairing splits I = {1..d+d'} into d two-element blocks and d'-d singletons;
pairings index the irreducible pieces of the stratification and the basis of
the signed induced representation realized here.  A pairing is kept as
the Involution swapping each of its pairs.  Permutations are tuples p
of length n with p[i-1] = image of i.

Characters are class functions, so the invariant dimensions and the induced
character are sums over cycle types weighted by class size, not over all n!
permutations.  matches_induced checks the traces against the induced model at
every degree; up to PERM_SWEEP_MAX_DEGREE, character_table also sweeps each permutation.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial

from .coweights import _exact, partitions

Perm = tuple[int, ...]

# the largest d + d' whose symmetric group is swept one permutation at a time
PERM_SWEEP_MAX_DEGREE = 7


class Involution:
    """A self-inverse permutation of {1..n} with its high/low point structure."""

    __slots__ = ("n", "mapping")

    def __init__(self, mapping):
        self.mapping = tuple(mapping)
        self.n = len(self.mapping)
        if sorted(self.mapping) != list(range(1, self.n + 1)):
            raise ValueError(f"not a permutation of 1..{self.n}: {self.mapping}")
        for i in range(1, self.n + 1):
            if self.mapping[self.mapping[i - 1] - 1] != i:
                raise ValueError(f"not an involution: {self.mapping}")

    @classmethod
    def from_pairs(cls, n: int, pairs) -> Involution:
        """The involution of {1..n} swapping each pair (a, b) and fixing the rest."""
        mapping = list(range(1, n + 1))
        for a, b in pairs:
            mapping[a - 1], mapping[b - 1] = b, a
        return cls(mapping)

    def __call__(self, i: int) -> int:
        return self.mapping[i - 1]

    @property
    def pairs(self) -> list[tuple[int, int]]:
        return [(i, self(i)) for i in range(1, self.n + 1) if self(i) > i]

    @property
    def lo(self) -> frozenset:
        return frozenset(i for i, _ in self.pairs)

    @property
    def hi(self) -> frozenset:
        return frozenset(j for _, j in self.pairs)

    @property
    def blocks(self) -> list[tuple[int, ...]]:
        """The pairs and the singletons, ordered by their smallest point."""
        return [(i,) if j == i else (i, j) for i, j in enumerate(self.mapping, 1) if j >= i]

    def __eq__(self, other):
        return isinstance(other, Involution) and self.mapping == other.mapping

    def __hash__(self):
        return hash(self.mapping)

    def __lt__(self, other):
        return self.mapping < other.mapping

    def cycle_notation(self) -> str:
        return "".join(f"({i} {j})" for i, j in self.pairs) or "()"

    def __repr__(self):
        return f"Involution{self.mapping}"


def all_perms(n: int):
    return permutations(range(1, n + 1))


def cycle_type(sigma: Perm) -> tuple[int, ...]:
    """Cycle lengths of a permutation, sorted decreasing."""
    n = len(sigma)
    seen = [False] * n
    lengths = []
    for i in range(n):
        if seen[i]:
            continue
        length = 0
        j = i
        while not seen[j]:
            seen[j] = True
            j = sigma[j] - 1
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths, reverse=True))


# ---------------------------------------------------------------------------
# pairings


def _matchings(points: tuple[int, ...], pairs: int, allowed=None):
    """Every way to split the sorted points into `pairs` pairs and fixed points.

    The smallest free point either stays fixed, while fixed points remain to
    be placed, or pairs with a later free point b such that allowed(a, b).
    Yields each splitting once, as its tuple of pairs (a, b) with a < b, in
    increasing order of the involution it makes: the smallest free point is
    fixed before it is paired, and paired with later points in increasing order.
    """
    if not points:
        yield ()
        return
    head, rest = points[0], points[1:]
    if len(points) > 2 * pairs:
        yield from _matchings(rest, pairs, allowed)
    if pairs:
        for k, partner in enumerate(rest):
            if allowed is None or allowed(head, partner):
                for tail in _matchings(rest[:k] + rest[k + 1 :], pairs - 1, allowed):
                    yield ((head, partner),) + tail


@lru_cache(maxsize=None)
def enumerate_pairings(d: int, dp: int) -> tuple[Involution, ...]:
    """All splittings of {1..d+d'} into d pairs and d'-d singletons, as involutions."""
    if not 0 <= d <= dp:
        raise ValueError(f"need 0 <= d <= d', got d={d}, d'={dp}")
    n = d + dp
    return tuple(Involution.from_pairs(n, pairs) for pairs in _matchings(tuple(range(1, n + 1)), d))


def pairing_count(d: int, dp: int) -> int:
    return factorial(d + dp) // (2**d * factorial(d) * factorial(dp - d))


# ---------------------------------------------------------------------------
# the stratification index


def condition_c(j_set, jp_set, n: int) -> bool:
    """Prefix-count condition: |J' cap {1..k}| <= |J cap {1..k}| for all k."""
    j = set(j_set)
    jp = set(jp_set)
    if len(j) != len(jp):
        raise ValueError(f"|J| = {len(j)} differs from |J'| = {len(jp)}")
    if any(x < 1 or x > n for x in j | jp):
        raise ValueError(f"subsets must lie in 1..{n}")
    count_j = count_jp = 0
    for k in range(1, n + 1):
        count_j += k in j
        count_jp += k in jp
        if count_jp > count_j:
            return False
    return True


def enumerate_c_pairs(d: int, dp: int):
    """All ordered pairs (J, J') of d-subsets satisfying the prefix condition.

    Returns triples (J, J', disjoint) with J, J' sorted tuples, J' running
    through _c_partners(J), in lexicographic order of (J, J').
    """
    if not 0 <= d <= dp:
        raise ValueError(f"need 0 <= d <= d', got d={d}, d'={dp}")
    n = d + dp
    return [
        (j, jp, set(j).isdisjoint(jp))
        for j in combinations(range(1, n + 1), d)
        for jp in _c_partners(j, 1, n)
    ]


def _c_partners(j: tuple[int, ...], start: int, n: int):
    """Sorted subsets J' of start..n with |J'| = |J| and J'_i >= J_i for each i.

    For sorted J and J' of one size, that is condition_c: the i-th point of
    J' comes no earlier than the i-th point of J exactly when no prefix of
    1..n holds more of J' than of J.  They come in lexicographic order, and
    every branch taken yields: first <= n - |J| + 1 leaves room for the rest.
    """
    if not j:
        yield ()
        return
    for first in range(max(j[0], start), n - len(j) + 2):
        for rest in _c_partners(j[1:], first + 1, n):
            yield (first,) + rest


def strata_involutions(j_set, jp_set, n: int | None = None) -> list[Involution]:
    """All involutions with low points J, high points J', pairing J upward into J'.

    n is the ambient size; it defaults to max(J union J') and only affects how
    many fixed points the returned involutions carry.
    """
    lows, highs = set(j_set), set(jp_set)
    if lows & highs:
        raise ValueError("J and J' must be disjoint")
    if n is None:
        n = max(lows | highs, default=0)
    if not condition_c(lows, highs, n):
        raise ValueError("prefix condition fails for (J, J')")
    matchings = _matchings(tuple(sorted(lows | highs)), len(lows), lambda a, b: a in lows and b in highs)
    return [Involution.from_pairs(n, pairs) for pairs in matchings]


def stratify(d: int, dp: int):
    """Each C-pair (J, J', disjoint, strata), and whether the strata cover the pairings.

    The cover holds when all strata, sorted, are enumerate_pairings(d, dp):
    each pairing exactly once, not merely as many strata as pairings.
    """
    c_pairs = [
        (j, jp, disjoint, strata_involutions(j, jp, d + dp) if disjoint else [])
        for j, jp, disjoint in enumerate_c_pairs(d, dp)
    ]
    return c_pairs, sorted(w for *_, ws in c_pairs for w in ws) == list(enumerate_pairings(d, dp))


# ---------------------------------------------------------------------------
# the signed induced representation


class ClassFunctionError(Exception):
    """The pairing trace takes two values on one cycle type."""

    def __init__(self, ctype: tuple[int, ...], first: tuple[Perm, int], second: tuple[Perm, int]):
        super().__init__(
            f"character is not a class function on cycle type {ctype}: "
            f"{first[1]} at {first[0]}, {second[1]} at {second[0]}"
        )
        self.ctype = ctype
        self.first = first
        self.second = second


@lru_cache(maxsize=None)
def _pairing_arrays(d: int, dp: int) -> tuple:
    """Each pairing of (d, d') as a 0-based partner array and its list of pairs."""
    return tuple(
        (tuple(j - 1 for j in w.mapping), tuple((i - 1, j - 1) for i, j in w.pairs))
        for w in enumerate_pairings(d, dp)
    )


def ind_character(sigma: Perm, d: int, dp: int) -> int:
    """Trace of sigma on the signed pairing representation.

    The basis is indexed by pairings; sigma fixes a basis line iff it fixes the
    pairing, that is iff sigma sends each of its pairs to a pair (the
    singletons then go to singletons), and then acts by the product over
    pairs {i < j} of the orientation sign of the image pair.
    """
    if len(sigma) != d + dp:
        raise ValueError(f"permutation has length {len(sigma)}, expected {d + dp}")
    s = [x - 1 for x in sigma]
    total = 0
    for partner, pairs in _pairing_arrays(d, dp):
        sign = 1
        for i, j in pairs:
            if partner[s[i]] != s[j]:
                break
            if s[i] > s[j]:
                sign = -sign
        else:
            total += sign
    return total


def perm_of_cycle_type(ctype) -> Perm:
    """A representative permutation with the given cycle lengths on 1..sum."""
    mapping = []
    start = 1
    for length in ctype:
        block = list(range(start, start + length))
        mapping.extend(block[1:] + block[:1])
        start += length
    return tuple(mapping)


def _centralizer_order(ctype: tuple[int, ...]) -> int:
    """z_lambda = prod over k of k^(m_k) m_k!, with m_k cycles of length k."""
    z = 1
    for k, m in Counter(ctype).items():
        z *= k**m * factorial(m)
    return z


@lru_cache(maxsize=None)
def _stabilizer_class_sums(d: int, dp: int) -> dict[tuple[int, ...], int]:
    """sign x triv summed over the stabilizer H of the base pairing, by cycle type.

    The base pairing is {1,2}, {3,4}, ..., {2d-1,2d} plus the singletons
    2d+1..d+d'.  H = (Z/2 wr S_d) x S_{d'-d} permutes the pairs, flips any of
    them, and permutes the singletons; the character is (-1)^(flips).  Only the
    wreath factor is walked; each type mu of S_{d'-d} adds its (d'-d)!/z_mu elements.
    """
    if not 0 <= d <= dp:
        raise ValueError(f"need 0 <= d <= d', got d={d}, d'={dp}")
    wreath: Counter = Counter()
    image = [0] * (2 * d)
    for order in permutations(range(d)):
        for flips in product((0, 1), repeat=d):
            for k, (target, flip) in enumerate(zip(order, flips)):
                image[2 * k] = 2 * target + 1 + flip
                image[2 * k + 1] = 2 * target + 2 - flip
            wreath[cycle_type(image)] += -1 if sum(flips) % 2 else 1
    sums: Counter = Counter()
    for mu in partitions(dp - d):
        size = factorial(dp - d) // _centralizer_order(mu)
        for lam, value in wreath.items():
            sums[tuple(sorted(lam + mu, reverse=True))] += size * value
    return sums


def _induced_character_by_type(ctype: tuple[int, ...], d: int, dp: int) -> int | Fraction:
    """Induced character of sign x triv from the pairing stabilizer H, per class.

    Frobenius: the value on the class lambda is z_lambda / |H| times the sum
    of the character over the elements of H of type lambda.  Exact: an int
    when integral, else a Fraction, which then equals no trace.
    """
    if sum(ctype) != d + dp:
        raise ValueError(f"cycle type {ctype} does not partition {d + dp}")
    class_sum = _stabilizer_class_sums(d, dp).get(ctype, 0)
    stab_order = 2**d * factorial(d) * factorial(dp - d)
    return _exact(_centralizer_order(ctype) * class_sum, stab_order)


def matches_induced(table: dict, d: int, dp: int) -> bool:
    """A character table by cycle type equals the induced character on every type."""
    return all(table.get(lam) == _induced_character_by_type(lam, d, dp) for lam in partitions(d + dp))


def verify_strata(d: int, dp: int) -> tuple:
    """(pairings, C-pairs, cover, characters, induced match, pairing count, ok) for (d, d').

    characters is the character_table or the ClassFunctionError it raised;
    the induced match is a bool at every degree, False on that error.
    """
    pairings = enumerate_pairings(d, dp)
    c_pairs, covers = stratify(d, dp)
    expected = pairing_count(d, dp)
    try:
        characters = character_table(d, dp)
    except ClassFunctionError as exc:
        characters, induced = exc, False
    else:
        induced = matches_induced(characters, d, dp)
    ok = len(pairings) == expected and covers and induced
    return pairings, c_pairs, covers, characters, induced, expected, ok


@lru_cache(maxsize=None)
def _character_by_type(d: int, dp: int) -> dict[tuple[int, ...], int]:
    """The pairing trace at one representative of each cycle type."""
    return {lam: ind_character(perm_of_cycle_type(lam), d, dp) for lam in partitions(d + dp)}


def invariants_dim(d: int, dp: int, r: int) -> int | Fraction:
    """Dimension of invariants in (signed pairing rep) tensor W^{d+d'}, dim W = r.

    A class sum: (1/n!) times the sum over cycle types lambda of n of the
    class size n!/z_lambda, the character at lambda, and r^(number of cycles).
    Exact: an int when integral, else a Fraction, which then equals no
    dimension.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    order = factorial(d + dp)
    total = sum(
        order // _centralizer_order(lam) * value * r ** len(lam)
        for lam, value in _character_by_type(d, dp).items()
    )
    return _exact(total, order)


def character_table(d: int, dp: int) -> dict[tuple[int, ...], int]:
    """Signed pairing character by cycle type.

    Up to degree PERM_SWEEP_MAX_DEGREE it is checked at every permutation and
    raises ClassFunctionError when two permutations of one cycle type have
    different traces; above, it is the trace at one permutation per type.
    """
    if d + dp > PERM_SWEEP_MAX_DEGREE:
        return dict(_character_by_type(d, dp))
    table: dict[tuple[int, ...], tuple[Perm, int]] = {}
    for sigma in all_perms(d + dp):
        ctype = cycle_type(sigma)
        value = ind_character(sigma, d, dp)
        first = table.setdefault(ctype, (sigma, value))
        if first[1] != value:
            raise ClassFunctionError(ctype, first, (sigma, value))
    return {ctype: value for ctype, (_, value) in table.items()}
