"""Involution combinatorics of the pair stratification on {1..d+d'}.

A pairing splits I = {1..d+d'} into d two-element blocks and d'-d singletons;
pairings index the irreducible pieces of the stratification and the basis of
the signed induced representation realized here.  Permutations are tuples p
of length n with p[i-1] = image of i.

Characters are class functions, so the invariant dimensions and the induced
character are sums over cycle types weighted by class size, not over all n!
permutations.  Up to degree PERM_SWEEP_MAX_DEGREE, verify_induced_realization
and character_table keep the per-permutation sweep as the oracle for them.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, permutations, product
from math import factorial

from .coweights import partitions

Perm = tuple[int, ...]
Pairing = tuple[tuple[int, ...], ...]

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
    def fixed(self) -> frozenset:
        return frozenset(i for i in range(1, self.n + 1) if self(i) == i)

    def __eq__(self, other):
        return isinstance(other, Involution) and self.mapping == other.mapping

    def __hash__(self):
        return hash(self.mapping)

    def __lt__(self, other):
        return self.mapping < other.mapping

    def cycle_notation(self) -> str:
        if not self.pairs:
            return "()"
        return "".join(f"({i} {j})" for i, j in self.pairs)

    def __repr__(self):
        return f"Involution{self.mapping}"


def identity_perm(n: int) -> Perm:
    return tuple(range(1, n + 1))


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


def cycle_count(sigma: Perm) -> int:
    return len(cycle_type(sigma))


# ---------------------------------------------------------------------------
# pairings


def canonical_pairing(blocks) -> Pairing:
    return tuple(sorted(tuple(sorted(b)) for b in blocks))


def pairing_pairs(alpha: Pairing) -> list[tuple[int, int]]:
    return [b for b in alpha if len(b) == 2]


@lru_cache(maxsize=None)
def enumerate_pairings(d: int, dp: int) -> tuple[Pairing, ...]:
    """All splittings of {1..d+d'} into d pairs and d'-d singletons."""
    if not 0 <= d <= dp:
        raise ValueError(f"need 0 <= d <= d', got d={d}, d'={dp}")
    n = d + dp
    out: list[Pairing] = []

    def build(free: tuple[int, ...], pairs_left: int, singles_left: int, acc):
        if not free:
            out.append(canonical_pairing(acc))
            return
        head, rest = free[0], free[1:]
        if singles_left:
            build(rest, pairs_left, singles_left - 1, acc + [(head,)])
        if pairs_left:
            for k, partner in enumerate(rest):
                remaining = rest[:k] + rest[k + 1 :]
                build(remaining, pairs_left - 1, singles_left, acc + [(head, partner)])

    build(tuple(range(1, n + 1)), d, dp - d, [])
    return tuple(sorted(out))


def pairing_count(d: int, dp: int) -> int:
    return factorial(d + dp) // (2**d * factorial(d) * factorial(dp - d))


def pairing_to_involution(alpha: Pairing, n: int) -> Involution:
    mapping = list(range(1, n + 1))
    for block in alpha:
        if len(block) == 2:
            i, j = block
            mapping[i - 1], mapping[j - 1] = j, i
    return Involution(mapping)


def apply_perm_to_pairing(sigma: Perm, alpha: Pairing) -> Pairing:
    return canonical_pairing(tuple(sigma[i - 1] for i in block) for block in alpha)


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
    # consequence: everything sits between min(J) and max(J')
    if j:
        lo, hi = min(j), max(jp)
        assert all(lo <= x <= hi for x in j | jp)
    return True


def enumerate_c_pairs(d: int, dp: int):
    """All ordered pairs (J, J') of d-subsets satisfying the prefix condition.

    Returns triples (J, J', disjoint) with J, J' sorted tuples.
    """
    if not 0 <= d <= dp:
        raise ValueError(f"need 0 <= d <= d', got d={d}, d'={dp}")
    n = d + dp
    subsets = list(combinations(range(1, n + 1), d))
    out = []
    for j in subsets:
        for jp in subsets:
            if condition_c(j, jp, n):
                out.append((j, jp, not set(j) & set(jp)))
    return out


def strata_involutions(j_set, jp_set, n: int | None = None) -> list[Involution]:
    """All involutions with low points J, high points J', pairing J upward into J'.

    n is the ambient size; it defaults to max(J union J') and only affects how
    many fixed points the returned involutions carry.
    """
    j = tuple(sorted(j_set))
    jp = tuple(sorted(jp_set))
    if set(j) & set(jp):
        raise ValueError("J and J' must be disjoint")
    if n is None:
        n = max(j + jp) if j or jp else 0
    if not condition_c(j, jp, n):
        raise ValueError("prefix condition fails for (J, J')")
    out: list[Involution] = []

    def match(lows: tuple[int, ...], highs: tuple[int, ...], acc):
        if not lows:
            mapping = list(range(1, n + 1))
            for a, b in acc:
                mapping[a - 1], mapping[b - 1] = b, a
            out.append(Involution(mapping))
            return
        low, rest = lows[0], lows[1:]
        for k, high in enumerate(highs):
            if high > low:
                match(rest, highs[:k] + highs[k + 1 :], acc + [(low, high)])

    match(j, jp, [])
    return sorted(out)


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
    out = []
    for alpha in enumerate_pairings(d, dp):
        partner = list(range(d + dp))
        pairs = []
        for i, j in pairing_pairs(alpha):
            partner[i - 1], partner[j - 1] = j - 1, i - 1
            pairs.append((i - 1, j - 1))
        out.append((tuple(partner), tuple(pairs)))
    return tuple(out)


def ind_character(sigma: Perm, d: int, dp: int) -> int:
    """Trace of sigma on the signed pairing representation.

    The basis is indexed by pairings; sigma fixes a basis line iff it fixes the
    pairing, that is iff sigma commutes with the pairing's partner map, and
    then acts by the product over pairs {i < j} of the orientation sign of the
    image pair.
    """
    if len(sigma) != d + dp:
        raise ValueError(f"permutation has length {len(sigma)}, expected {d + dp}")
    s = [x - 1 for x in sigma]
    total = 0
    for partner, pairs in _pairing_arrays(d, dp):
        if [s[p] for p in partner] != [partner[x] for x in s]:
            continue
        flips = sum(s[i] > s[j] for i, j in pairs)
        total += -1 if flips % 2 else 1
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


def _exact(num: int, den: int) -> int | Fraction:
    """num / den: an int when it divides exactly, else a Fraction."""
    value = Fraction(num, den)
    return value.numerator if value.denominator == 1 else value


@lru_cache(maxsize=None)
def _stabilizer_class_sums(d: int, dp: int) -> dict[tuple[int, ...], int]:
    """sign x triv summed over the stabilizer H of the base pairing, by cycle type.

    The base pairing is {1,2}, {3,4}, ..., {2d-1,2d} plus the singletons
    2d+1..d+d'.  H = (Z/2 wr S_d) x S_{d'-d} permutes the pairs, flips any of
    them, and permutes the singletons; the character is (-1)^(flips).
    """
    if not 0 <= d <= dp:
        raise ValueError(f"need 0 <= d <= d', got d={d}, d'={dp}")
    sums: Counter = Counter()
    image = [0] * (d + dp)
    for order in permutations(range(d)):
        for flips in product((0, 1), repeat=d):
            for k, (target, flip) in enumerate(zip(order, flips)):
                image[2 * k] = 2 * target + 1 + flip
                image[2 * k + 1] = 2 * target + 2 - flip
            sign = -1 if sum(flips) % 2 else 1
            for rest in permutations(range(2 * d + 1, d + dp + 1)):
                image[2 * d :] = rest
                sums[cycle_type(image)] += sign
    return sums


@lru_cache(maxsize=None)
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


def induced_character(sigma: Perm, d: int, dp: int) -> int | Fraction:
    return _induced_character_by_type(cycle_type(sigma), d, dp)


def verify_induced_realization(d: int, dp: int) -> bool:
    """Signed pairing character equals the induced character at every permutation.

    This is the per-permutation oracle: the trace is taken on the pairing
    basis at each sigma, independently of the class sums behind the induced
    character.
    """
    if d + dp > PERM_SWEEP_MAX_DEGREE:
        raise ValueError(f"full symmetric group sweep capped at degree {PERM_SWEEP_MAX_DEGREE}")
    return all(
        ind_character(sigma, d, dp) == induced_character(sigma, d, dp)
        for sigma in all_perms(d + dp)
    )


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
