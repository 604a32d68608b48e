"""Counting complete flags and automorphisms of finite torsion modules.

A module type is a partition mu naming the direct sum of cyclic pieces of
lengths mu_1, mu_2, ...  All counts over a residue field of size q are exact
univariate polynomials in q; groupoid masses (flag count divided by the two
automorphism group orders) are kept as unreduced fractions of polynomials.
Brute-force counters over F_2 and F_3 validate every polynomial formula.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import combinations, groupby
from math import gcd
from operator import mul

from . import gf
from .coweights import as_partition, conjugate, partitions


class QPoly:
    """Integer polynomial in q, coefficients ascending, trailing zeros trimmed."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(cs)

    @classmethod
    def q_power(cls, e: int) -> "QPoly":
        if e < 0:
            raise ValueError("negative power")
        return cls((0,) * e + (1,))

    @classmethod
    def geometric(cls, m: int) -> "QPoly":
        """1 + q + ... + q^{m-1}, i.e. (q^m - 1)/(q - 1)."""
        return cls((1,) * m)

    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return len(self.coeffs) - 1

    @property
    def leading(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def __add__(self, other: "QPoly") -> "QPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        a = self.coeffs + (0,) * (n - len(self.coeffs))
        b = other.coeffs + (0,) * (n - len(other.coeffs))
        return QPoly(x + y for x, y in zip(a, b))

    def __neg__(self) -> "QPoly":
        return QPoly(-c for c in self.coeffs)

    def __sub__(self, other: "QPoly") -> "QPoly":
        return self + (-other)

    def __mul__(self, other: "QPoly") -> "QPoly":
        if self.is_zero() or other.is_zero():
            return QPoly()
        out = [0] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return QPoly(out)

    def __call__(self, q: int) -> int:
        total = 0
        for c in reversed(self.coeffs):
            total = total * q + c
        return total

    def content(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g

    def __repr__(self):
        return f"QPoly{self.coeffs}"


ONE = QPoly((1,))


@dataclass(frozen=True)
class QRat:
    """Ratio of integer polynomials in q, reduced only by integer content."""

    num: QPoly
    den: QPoly

    def __post_init__(self):
        if self.den.is_zero():
            raise ZeroDivisionError("zero denominator")
        num, den = self.num, self.den
        if den.leading < 0:
            num, den = -num, -den
        g = gcd(num.content(), den.content())
        if g > 1:
            num = QPoly(c // g for c in num.coeffs)
            den = QPoly(c // g for c in den.coeffs)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def is_zero(self) -> bool:
        return self.num.is_zero()

    @property
    def degree(self) -> int:
        """Degree as a rational function of q; independent of common factors."""
        return self.num.degree - self.den.degree

    @property
    def leading(self) -> Fraction:
        """First Laurent coefficient of the expansion at q -> infinity."""
        return Fraction(self.num.leading, self.den.leading)

    def __add__(self, other: "QRat") -> "QRat":
        return QRat(self.num * other.den + other.num * self.den, self.den * other.den)

    def __mul__(self, other: "QRat") -> "QRat":
        return QRat(self.num * other.num, self.den * other.den)

    def __repr__(self):
        return f"QRat({self.num!r}, {self.den!r})"


# ---------------------------------------------------------------------------
# the explicit module model over a small residue field


def jordan_matrix(mu) -> gf.Matrix:
    """Nilpotent matrix with one Jordan block of size mu_i per part."""
    mu = as_partition(mu)
    n = sum(mu)
    rows = [[0] * n for _ in range(n)]
    offset = 0
    for part in mu:
        for k in range(part - 1):
            rows[offset + k][offset + k + 1] = 1
        offset += part
    return tuple(tuple(r) for r in rows)


BRUTE_FLAG_LIMIT = {2: 5, 3: 4}


def count_flags_brute(mu, q: int) -> int:
    """Exhaustively count complete chains of operator-stable subspaces."""
    n = sum(as_partition(mu))
    if q not in BRUTE_FLAG_LIMIT:
        raise ValueError("only residue fields of size 2 and 3 are modeled")
    if n > BRUTE_FLAG_LIMIT[q]:
        raise ValueError(f"brute force capped at dimension {BRUTE_FLAG_LIMIT[q]} for q={q}")
    lattice = gf.subspace_lattice(n, q)
    vmap = gf.vector_map(jordan_matrix(mu), n, q)
    stable = [all(vmap[x] in space for x in space) for space in lattice.spaces]
    memo: dict[int, int] = {}

    def chains_from(s: int) -> int:
        if not lattice.covers[s]:
            return 1
        if s not in memo:
            memo[s] = sum(chains_from(c) for c in lattice.covers[s] if stable[c])
        return memo[s]

    return chains_from(0)


@lru_cache(maxsize=None)
def count_flags_poly(mu) -> QPoly:
    """Flag count of the type-mu module as a polynomial in q.

    Recursion over removable corners: peeling the last box of the r-th value
    group contributes q^(m_1+...+m_{r-1}) * (1 + q + ... + q^{m_r - 1}) times
    the count of the peeled type.  Validated against count_flags_brute.
    """
    mu = as_partition(mu)
    if not mu:
        return ONE
    total = QPoly()
    for (value, mult), weight in zip(_value_groups(mu), corner_weights(mu)):
        peeled = list(mu)
        peeled[peeled.index(value) + mult - 1] -= 1
        child = as_partition(sorted(peeled, reverse=True))
        total = total + weight * count_flags_poly(child)
    return total


def corner_weights(mu) -> list[QPoly]:
    """The per-corner counting polynomials; they sum to geometric(#parts)."""
    out = []
    prefix = 0
    for _, mult in _value_groups(as_partition(mu)):
        out.append(QPoly.q_power(prefix) * QPoly.geometric(mult))
        prefix += mult
    return out


def _value_groups(mu) -> list[tuple[int, int]]:
    """(value, multiplicity) of each run of equal parts of a partition."""
    return [(value, len(list(run))) for value, run in groupby(mu)]


@lru_cache(maxsize=None)
def aut_order_poly(mu) -> QPoly:
    """Order of the automorphism group of the type-mu module, as a polynomial.

    q^(sum of squared conjugate parts) times prod over value multiplicities m
    of (1 - q^-1)...(1 - q^-m), expanded without negative powers.  Treated as
    a conjectural formula and validated against count_commutant_units_brute.
    """
    mu = as_partition(mu)
    if not mu:
        return ONE
    conj = conjugate(mu)
    exponent = sum(c * c for c in conj)
    poly = ONE
    for _, mult in _value_groups(mu):
        for k in range(1, mult + 1):
            poly = poly * (QPoly.q_power(k) - ONE)
            exponent -= k
    if exponent < 0:
        raise ValueError(f"Aut order of type {mu} has negative q-exponent {exponent}")
    return QPoly.q_power(exponent) * poly


def count_commutant_units_brute(mu, q: int) -> int:
    """Count invertible matrices commuting with the Jordan nilpotent, exhaustively.

    Meet in the middle over the generalised Laplace expansion along the top
    r = ceil(n/2) rows: det M is the signed sum over r-subsets S of columns of
    det(top rows, S) * det(bottom rows, complement of S).  The commutant C
    splits as W + K, where K holds the elements of C whose top rows are zero,
    so each element of C is w + k with the top rows of w.  The top-minor
    vectors of W are binned by the bottom rows of w; for each such bottom
    offset the bottom-minor vectors of offset + K are binned too, and the count
    adds the product of the bin sizes over every bin pair whose Laplace sum is
    nonzero mod q.  Every matrix of C is counted exactly once, and nothing
    here uses the |Aut| formula, so aut_order_poly is checked independently.
    """
    n = sum(as_partition(mu))
    if q not in BRUTE_FLAG_LIMIT:
        raise ValueError("only residue fields of size 2 and 3 are modeled")
    if n > BRUTE_FLAG_LIMIT[q]:
        raise ValueError(f"unit count capped at dimension {BRUTE_FLAG_LIMIT[q]} for q={q}")
    if n == 0:
        return 1
    r = (n + 1) // 2
    split = r * n
    # row-major flattening puts the top r rows first, so the RREF rows with a
    # pivot past `split` are a basis of K and the others span a complement W
    basis = gf.rref([sum(b, ()) for b in gf.commutant_basis(jordan_matrix(mu), q)], q)
    complement = [v for v in basis if any(v[:split])]
    kernel = [v[split:] for v in basis if not any(v[:split])]
    minors = _minor_table(n, q)
    laplace = _laplace_terms(n, r)
    top_bins: dict[tuple, Counter] = defaultdict(Counter)
    for v in _span((0,) * (n * n), complement, q):
        top_bins[v[split:]][minors(_rows(v[:split], n))] += 1
    count = 0
    for offset, tops in top_bins.items():
        bottoms = Counter(minors(_rows(v, n)) for v in _span(offset, kernel, q))
        aligned = [(tuple(sign * m[i] for i, sign in laplace), c) for m, c in bottoms.items()]
        for t, a in tops.items():
            for b, c in aligned:
                if sum(map(mul, t, b)) % q:
                    count += a * c
    return count


def _laplace_terms(n: int, r: int) -> list[tuple[int, int]]:
    """The generalised Laplace expansion of an n x n determinant along its top r rows.

    One term per r-subset S of columns, in lexicographic order: the index of
    the complement of S among the (n-r)-subsets, and the sign (-1)^(sum of S).
    det M = (-1)^(r(r-1)/2) times the sum over S of sign * top minor(S) *
    bottom minor(complement of S); the shared factor is left out.
    """
    bottom_index = {s: i for i, s in enumerate(combinations(range(n), n - r))}
    return [
        (bottom_index[tuple(j for j in range(n) if j not in s)], (-1) ** sum(s))
        for s in combinations(range(n), r)
    ]


def _rows(flat: tuple, n: int) -> gf.Matrix:
    return tuple(flat[i:i + n] for i in range(0, len(flat), n))


def _span(start: gf.Vector, vectors, q: int) -> list[gf.Vector]:
    """start plus every F_q-combination of linearly independent vectors, once each."""
    out = [start]
    for v in vectors:
        out += [tuple((x + c * y) % q for x, y in zip(e, v)) for c in range(1, q) for e in out]
    return out


def _minor_table(n: int, q: int):
    """Memoized map from a k x n block (a tuple of rows) to its k x k minors mod q.

    The minors are listed by column subset in lexicographic order.  Each is
    expanded along the block's first row, so the minors of the rows below are
    looked up, not recomputed, when blocks share them.
    """
    expansions: list[list] = [[]]
    for k in range(1, n + 1):
        lower = {s: i for i, s in enumerate(combinations(range(n), k - 1))}
        expansions.append(
            [
                [(j, lower[s[:i] + s[i + 1:]], (-1) ** i) for i, j in enumerate(s)]
                for s in combinations(range(n), k)
            ]
        )
    memo: dict[gf.Matrix, tuple[int, ...]] = {(): (1,)}

    def minors(rows: gf.Matrix) -> tuple[int, ...]:
        if rows not in memo:
            first, below = rows[0], minors(rows[1:])
            memo[rows] = tuple(
                sum(sign * first[j] * below[t] for j, t, sign in terms) % q
                for terms in expansions[len(rows)]
            )
        return memo[rows]

    return minors


# ---------------------------------------------------------------------------
# groupoid masses


def merge_type(mu, mup) -> tuple[int, ...]:
    """Type of the direct sum: sorted concatenation of the parts."""
    return _merge(as_partition(mu), as_partition(mup))


def _merge(mu: tuple[int, ...], mup: tuple[int, ...]) -> tuple[int, ...]:
    # the sorted concatenation of two canonical partitions is canonical
    return tuple(sorted(mu + mup, reverse=True))


def fiber_mass(mu, mup) -> QRat:
    """Groupoid count of complete flags on the sum, divided by both Aut orders."""
    mu = as_partition(mu)
    mup = as_partition(mup)
    return QRat(
        count_flags_poly(_merge(mu, mup)),
        aut_order_poly(mu) * aut_order_poly(mup),
    )


def fiber_mass_degree(mu, mup) -> int:
    """fiber_mass(mu, mup).degree, read from the three polynomials without a QRat.

    Dividing by the integer content keeps both degrees, and integer polynomial
    degrees add under products.
    """
    mu = as_partition(mu)
    mup = as_partition(mup)
    return (
        count_flags_poly(_merge(mu, mup)).degree
        - aut_order_poly(mu).degree
        - aut_order_poly(mup).degree
    )


class MassPremiseError(Exception):
    """A fiber mass term is zero or has a non-positive leading coefficient.

    collided_mass_top reads the total mass from the terms' own Laurent tops,
    which is exact only when no terms cancel as q -> infinity.
    """

    def __init__(self, mu: tuple[int, ...], mup: tuple[int, ...], leading: Fraction):
        super().__init__(
            f"fiber mass of ({mu}, {mup}) has leading coefficient {leading}, "
            "so terms could cancel at q -> infinity"
        )
        self.mu = mu
        self.mup = mup
        self.leading = leading


def collided_fiber_mass(d: int, dp: int) -> tuple[QRat, int, int | Fraction]:
    """Total groupoid mass over all module types of degrees (d, d'), summed exactly.

    Returns (mass, degree, leading coefficient).  The leading coefficient is
    exact: an int when it is integral, else a Fraction, which then equals no
    pairing count.  The degree must be -d' and the leading coefficient must
    equal the number of pairings of d pairs and d'-d singletons.  This is the
    exact pairwise QRat sum: the tests compare collided_mass_top against it.
    """
    if not 0 <= d <= dp:
        raise ValueError(f"need 0 <= d <= d', got d={d}, d'={dp}")
    mass = QRat(QPoly(), ONE)
    for mu in partitions(d):
        for mup in partitions(dp):
            mass = mass + fiber_mass(mu, mup)
    leading = mass.leading
    return mass, mass.degree, leading.numerator if leading.denominator == 1 else leading


def collided_mass_top(d: int, dp: int) -> tuple[int, int | Fraction]:
    """(degree, leading coefficient) of the total mass of degrees (d, d').

    Every term has a positive leading coefficient, so none cancel as
    q -> infinity: the total's degree is the largest term degree and its
    leading coefficient is the sum of the term leadings at that degree.
    Raises MassPremiseError on a zero term or a non-positive leading
    coefficient.  The leading coefficient is an int when integral, else a
    Fraction, as in collided_fiber_mass.
    """
    if not 0 <= d <= dp:
        raise ValueError(f"need 0 <= d <= d', got d={d}, d'={dp}")
    degree, leading = None, Fraction(0)
    for mu in partitions(d):
        for mup in partitions(dp):
            term = fiber_mass(mu, mup)
            top = Fraction(0) if term.is_zero() else term.leading
            if top <= 0:
                raise MassPremiseError(mu, mup, top)
            if degree is None or term.degree > degree:
                degree, leading = term.degree, top
            elif term.degree == degree:
                leading += top
    return degree, leading.numerator if leading.denominator == 1 else leading


def groupoid_dim_check(mu) -> bool:
    """Flag-count degree minus Aut degree must equal -sum mu_i * i."""
    mu = as_partition(mu)
    lhs = 0 if not mu else count_flags_poly(mu).degree - aut_order_poly(mu).degree
    return lhs == -sum(x * (i + 1) for i, x in enumerate(mu))


def fiber_mass_table(dmax: int):
    """Rows (mu, mup, degree, margin, interleaved) for all |mu|, |mup| <= dmax."""
    from .coweights import flag_mass_margin, is_interleaved

    by_size = [list(partitions(d)) for d in range(dmax + 1)]
    rows = []
    for mus in by_size:
        for mups in by_size:
            for mu in mus:
                for mup in mups:
                    margin, _ = flag_mass_margin(mu, mup)
                    rows.append(
                        (mu, mup, fiber_mass_degree(mu, mup), margin, is_interleaved(mu, mup))
                    )
    return rows
