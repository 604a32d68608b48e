"""Exact Schur polynomial calculus in finitely many variables.

Symmetric polynomials are stored in the monomial symmetric basis: a map from
dominant exponent vectors (weakly decreasing, fixed length, nonnegative) to
integer coefficients, each key standing for its full orbit of monomials.
Schur polynomials come from the branching rule: a semistandard tableau is a
chain of horizontal strips (a Gelfand-Tsetlin pattern), peeled one letter at
a time, and only chains with dominant content are followed.  The character
of Sym^d(wedge^2 V) (x) Sym^{d'-d} V is counted directly at its dominant
exponents, as loopless multigraphs with a given degree sequence; it reads no
Schur polynomial, so it is an independent input to the decomposition that
checks the multiplicity-free index.  Tableau enumeration, and the pair-multiset
expansion times h_k multiplied monomial by monomial, are kept in the tests as
the slow oracles for the two characters.
"""

from __future__ import annotations

from collections import defaultdict
from functools import lru_cache

from .coweights import (
    as_partition,
    odd_even_split,
    pad,
    partitions,
    weakly_decreasing,
)

Exponent = tuple[int, ...]


class SymPoly:
    """Integer symmetric polynomial keyed by dominant exponent vectors."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict[Exponent, int] | None = None):
        if nvars < 1:
            raise ValueError("need at least one variable")
        self.nvars = nvars
        self.terms: dict[Exponent, int] = {}
        for key, coeff in (terms or {}).items():
            if coeff == 0:
                continue
            if len(key) != nvars or not weakly_decreasing(key) or key[-1] < 0:
                raise ValueError(f"bad dominant exponent {key} for {nvars} variables")
            self.terms[tuple(key)] = coeff

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SymPoly)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __repr__(self):
        return f"SymPoly({self.nvars}, {dict(sorted(self.terms.items(), reverse=True))})"


# ---------------------------------------------------------------------------
# basic characters


def _strips(shape: Exponent, low: int, high: int):
    """Yield (size, mu) for each horizontal strip shape/mu with low <= size <= high.

    mu has one part fewer than shape and interlaces it, shape[i+1] <= mu[i] <=
    shape[i]; the last row of shape always leaves whole.
    """
    rows = len(shape) - 1
    mu = [0] * rows

    def place(i: int, size: int):
        if i == rows:
            if size >= low:
                yield size, tuple(mu)
            return
        top = shape[i]
        for value in range(max(shape[i + 1], top - (high - size)), top + 1):
            mu[i] = value
            yield from place(i + 1, size + top - value)

    yield from place(0, shape[-1])


@lru_cache(maxsize=None)
def schur_poly(lam, nvars: int) -> SymPoly:
    """Schur polynomial s_lam(x_1..x_N) by the branching rule on dominant weights.

    s_lam(x_1..x_k) = sum over horizontal strips lam/mu of x_k^|lam/mu| s_mu(x_1..x_{k-1}).
    Peeling x_N first, a dominant content needs each strip at least as large
    as the one peeled before it, and no larger than |shape| / k.
    """
    lam = as_partition(lam)
    if len(lam) > nvars:
        raise ValueError(f"{lam} has more than {nvars} parts; the character is zero")
    memo: dict[tuple[Exponent, int], dict[Exponent, int]] = {}

    def contents(shape: Exponent, floor: int) -> dict[Exponent, int]:
        # dominant contents (w_1..w_k), k = len(shape), with w_k >= floor
        key = (shape, floor)
        if key not in memo:
            if not shape:
                memo[key] = {(): 1}
            else:
                out: dict[Exponent, int] = defaultdict(int)
                for size, mu in _strips(shape, floor, sum(shape) // len(shape)):
                    for prefix, count in contents(mu, size).items():
                        out[prefix + (size,)] += count
                memo[key] = out
        return memo[key]

    return SymPoly(nvars, contents(pad(lam, nvars), 0))


# ---------------------------------------------------------------------------
# decomposition


def decompose_schur(p: SymPoly) -> dict[Exponent, int]:
    """Write p as a nonnegative sum of Schur polynomials, greedily by leading term.

    Repeatedly subtracts coeff * s_lam at the lex-greatest dominant exponent.
    Raises ValueError if a negative coefficient turns up, i.e. p was not a
    genuine character.  Keys of the result are trimmed partitions.
    """
    work = dict(p.terms)
    out: dict[Exponent, int] = {}
    while work:
        key = max(work)
        coeff = work[key]
        if coeff < 0:
            raise ValueError(f"not a character: leading coefficient {coeff} at {key}")
        s = schur_poly(as_partition(key), p.nvars)
        for k2, c2 in s.terms.items():
            val = work.get(k2, 0) - coeff * c2
            if val:
                work[k2] = val
            else:
                work.pop(k2, None)
        out[as_partition(key)] = coeff
    return out


def pieri(lam, k: int, nvars: int) -> set[Exponent]:
    """All mu with mu/lam a horizontal strip of size k and at most N rows."""
    lam = as_partition(lam)
    if len(lam) > nvars:
        raise ValueError(f"{lam} has more than {nvars} parts")
    if k < 0:
        raise ValueError("strip size must be >= 0")
    base = pad(lam, nvars)
    out: set[Exponent] = set()

    def extend(i: int, remaining: int, prefix):
        if i == nvars:
            if remaining == 0:
                out.add(as_partition(prefix))
            return
        hi = base[i] + remaining
        if i > 0:
            hi = min(hi, base[i - 1])
        for val in range(base[i], hi + 1):
            extend(i + 1, remaining - (val - base[i]), prefix + [val])

    extend(0, k, [])
    return out


# ---------------------------------------------------------------------------
# the multiplicity-free decomposition and its index sets


def dominant_index(n: int, d: int, dp: int) -> set[Exponent]:
    """Dominant nonnegative lambda of length 2n with odd-position sum dp, even d."""
    if not 0 <= d <= dp:
        raise ValueError(f"need 0 <= d <= d', got d={d}, d'={dp}")
    return {p for p in partitions(d + dp, max_parts=2 * n) if _in_dominant_index(p, n, d, dp)}


def _in_dominant_index(lam: Exponent, n: int, d: int, dp: int) -> bool:
    # lam is a canonical partition with at most 2n parts
    odd, even = odd_even_split(pad(lam, 2 * n))
    return (
        sum(odd) == dp
        and sum(even) == d
        and weakly_decreasing(odd)
        and weakly_decreasing(even)
    )


def antidominant_index(n: int, d: int, dp: int) -> set[Exponent]:
    """Nonnegative weakly increasing lambda of length 2n, odd-position sum d, even dp."""
    if not 0 <= d <= dp:
        raise ValueError(f"need 0 <= d <= d', got d={d}, d'={dp}")
    out = set()
    for p in partitions(d + dp, max_parts=2 * n):
        lam = tuple(reversed(pad(p, 2 * n)))
        odd, even = odd_even_split(lam)
        if sum(odd) == d and sum(even) == dp:
            out.add(lam)
    return out


def verify_index_reversal(n: int, d: int, dp: int) -> bool:
    """Entry reversal must biject the antidominant index onto the dominant one."""
    dom = {pad(lam, 2 * n) for lam in dominant_index(n, d, dp)}
    anti = antidominant_index(n, d, dp)
    reversed_anti = {tuple(reversed(lam)) for lam in anti}
    return reversed_anti == dom and len(anti) == len(dom)


def _spreads(k: int, caps: Exponent):
    """Yield caps - m for every m <= caps with sum k: k edges of one vertex spread over the others."""
    if not caps:
        if k == 0:
            yield ()
        return
    for m in range(max(0, k - sum(caps[1:])), min(k, caps[0]) + 1):
        for tail in _spreads(k - m, caps[1:]):
            yield (caps[0] - m,) + tail


def product_char(n: int, d: int, dp: int) -> SymPoly:
    """Character of Sym^d(wedge^2 V) tensor Sym^{d'-d} V for dim V = 2n, counted at dominant exponents.

    The coefficient at x^e counts pairs (G, S) with deg G + mult S = e, where G
    is a loopless multigraph with d edges on the 2n variables and S a multiset
    of d' - d of them.  Joining every point of S to one extra vertex makes each
    pair a loopless multigraph on 2n + 1 vertices with degrees (e, d' - d), and
    those are what is counted.  The count reads only monomials, never a Schur
    polynomial or an index set, so it stays independent of the decomposition.
    """
    if not 0 <= d <= dp:
        raise ValueError(f"need 0 <= d <= d', got d={d}, d'={dp}")
    memo: dict[Exponent, int] = {}

    def graphs(degrees: Exponent) -> int:
        # loopless multigraphs with this degree sequence (decreasing, zeros dropped)
        if not degrees:
            return 1
        if degrees not in memo:
            first, rest = degrees[0], degrees[1:]
            memo[degrees] = 0 if first > sum(rest) else sum(
                graphs(tuple(sorted(filter(None, left), reverse=True)))
                for left in _spreads(first, rest)
            )
        return memo[degrees]

    return SymPoly(
        2 * n,
        {
            pad(p, 2 * n): graphs(tuple(sorted(p + (dp - d,), reverse=True)))
            for p in partitions(d + dp, max_parts=2 * n)
        },
    )


def verify_multiplicity_free(n: int, d: int, dp: int) -> tuple[dict[Exponent, int], set[Exponent], bool]:
    """(decomposition, dominant index, ok): ok when the product character is the index, all mult 1."""
    dec = decompose_schur(product_char(n, d, dp))
    index = dominant_index(n, d, dp)
    return dec, index, dec == {lam: 1 for lam in index}


def pieri_source(lam, n: int, d: int, dp: int) -> Exponent:
    """The square-index element whose Pieri strip produces lam.

    Both halves of the result equal the even half of lam; value lives in the
    (d, d) index set and lam/result is a horizontal strip of size d' - d.
    """
    lam = as_partition(lam)
    if not 0 <= d <= dp or len(lam) > 2 * n or not _in_dominant_index(lam, n, d, dp):
        raise ValueError(f"{lam} is not in the index set for n={n}, d={d}, d'={dp}")
    _, even = odd_even_split(pad(lam, 2 * n))
    out = []
    for value in even:
        out.extend((value, value))
    return as_partition(out)

