"""Counting complete flags and automorphisms of finite torsion modules.

A module type is a partition mu naming the direct sum of cyclic pieces of
lengths mu_1, mu_2, ...  All counts over a residue field of size q are exact
univariate polynomials in q; groupoid masses (flag count divided by the two
automorphism group orders) are kept as unreduced fractions of polynomials.
Brute-force counters over F_2 and F_3 validate every polynomial formula.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import groupby
from math import gcd

from . import gf
from .coweights import (
    _automorphism_dim,
    _complete_flag_dim,
    _exact,
    _interleave,
    as_partition,
    conjugate,
    partitions,
    weakly_decreasing,
)
from .strata import pairing_count


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


class QRat:
    """Ratio of integer polynomials in q, reduced only by integer content.

    Immutable; equal and hashed by its normalized (num, den).
    """

    def __init__(self, num: QPoly, den: QPoly):
        if den.is_zero():
            raise ZeroDivisionError("zero denominator")
        if den.leading < 0:
            num, den = -num, -den
        g = gcd(num.content(), den.content())
        if g > 1:
            num = QPoly(c // g for c in num.coeffs)
            den = QPoly(c // g for c in den.coeffs)
        object.__setattr__(self, "num", num)
        object.__setattr__(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.num, self.den) == (other.num, other.den)

    def __hash__(self):
        return hash((self.num, self.den))

    def is_zero(self) -> bool:
        return self.num.is_zero()

    @property
    def degree(self) -> int:
        """Degree as a rational function of q; independent of common factors."""
        return self.num.degree - self.den.degree

    @property
    def leading(self) -> Fraction:
        """First Laurent coefficient of the expansion at q -> infinity."""
        from fractions import Fraction

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
    stable = [all(map(space.__contains__, map(vmap.__getitem__, space))) for space in lattice.spaces]
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
    the count of the peeled type.  Each shifted copy of the peeled type's
    coefficients is added into one list, sized from the peeled types' lengths
    alone.  Validated against count_flags_brute.
    """
    mu = as_partition(mu)
    if not mu:
        return ONE
    terms = []  # (q-shift, run multiplicity, coefficients of the peeled type)
    end = 0
    for value, mult in _value_groups(mu):
        end += mult
        # lowering the run's last part keeps the tuple a canonical partition
        child = mu[:end - 1] + (value - 1,) + mu[end:] if value > 1 else mu[:end - 1]
        terms.append((end - mult, mult, count_flags_poly(child).coeffs))
    out = [0] * max(shift + mult - 1 + len(cs) for shift, mult, cs in terms)
    for shift, mult, cs in terms:
        for start in range(shift, shift + mult):
            for k, c in enumerate(cs, start):
                out[k] += c
    return QPoly(out)


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

    A row-by-row rank walk over the subspace lattice of F_q^n.  In the RREF of
    the row-major flattened commutant basis, a vector that pivots in row i is
    zero in rows 0..i-1, so the coefficients of the vectors pivoting in rows
    0..i fix row i.  The walk picks them one row at a time.  Its state is the
    lattice id s of the span of the rows picked so far and the offset: the part
    of the later rows that the picked coefficients already fix.  A row inside
    span s makes the matrix singular and is skipped; any other row steps to the
    cover of s that contains it.  Rows are held as lattice vector indices and
    added with the lattice's translate table.  The last row is counted in one
    pass, and the other counts are memoized on the state within the call.
    Only span membership is used, never the |Aut| formula or a |GL_n|
    product, so aut_order_poly is checked independently.
    """
    n = sum(as_partition(mu))
    if q not in BRUTE_FLAG_LIMIT:
        raise ValueError("only residue fields of size 2 and 3 are modeled")
    if n > BRUTE_FLAG_LIMIT[q]:
        raise ValueError(f"unit count capped at dimension {BRUTE_FLAG_LIMIT[q]} for q={q}")
    if n == 0:
        return 1
    lattice = gf.subspace_lattice(n, q)
    add = lattice.translate
    basis = gf.rref([sum(b, ()) for b in gf.commutant_basis(jordan_matrix(mu), q)], q)
    # combos[i]: every combination of the vectors pivoting in row i, as the
    # vector indices of its rows i..n-1
    combos = [[(0,) * (n - i)] for i in range(n)]
    for v in basis:
        i = next(j for j, x in enumerate(v) if x) // n
        lines = [lattice.multiples[gf.vector_index(v[k:k + n], q)] for k in range(i * n, n * n, n)]
        combos[i] = [tuple([add[a][m[c]] for a, m in zip(w, lines)]) for c in range(q) for w in combos[i]]
    # columns[i][k]: row i + k of each of those combinations; k = 0 is the row
    # picked at step i, and k > 0 what it adds to the offset of a later row
    columns = [list(zip(*combo)) for combo in combos]
    # joins[s][x]: the cover of s that contains vector x, read only for x outside s
    joins: dict[int, dict[int, int]] = {}
    memo: dict[tuple[int, tuple[int, ...]], int] = {}

    def completions(s: int, offset: tuple[int, ...]) -> int:
        space, row, (heads, *tails) = lattice.spaces[s], add[offset[0]], columns[n - len(offset)]
        rows = map(row.__getitem__, heads)
        if not tails:  # the last row: each choice outside s completes one unit
            return len(heads) - sum(map(space.__contains__, rows))
        if s not in joins:
            joins[s] = {x: c for c in lattice.covers[s] for x in lattice.spaces[c]}
        join, total = joins[s], 0
        offsets = zip(*[map(add[a].__getitem__, tail) for a, tail in zip(offset[1:], tails)])
        for x, rest in zip(rows, offsets):
            if x not in space:
                state = join[x], rest
                if state not in memo:
                    memo[state] = completions(*state)
                total += memo[state]
        return total

    return completions(0, (0,) * n)


# ---------------------------------------------------------------------------
# groupoid masses


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
    # a term's degree and Laurent top read from its three polynomials: QRat's
    # content reduction and sign flip scale numerator and denominator alike
    degree, num, den = None, 0, 1  # the total's leading coefficient is num / den
    for mu in partitions(d):
        aut = aut_order_poly(mu)
        for mup in partitions(dp):
            flags, autp = count_flags_poly(_merge(mu, mup)), aut_order_poly(mup)
            top_num, top_den = (0, 1) if flags.is_zero() else (flags.leading, aut.leading * autp.leading)
            if top_num * top_den <= 0:
                from fractions import Fraction

                raise MassPremiseError(mu, mup, Fraction(top_num, top_den))
            term_degree = flags.degree - aut.degree - autp.degree
            if degree is None or term_degree > degree:
                degree, num, den = term_degree, top_num, top_den
            elif term_degree == degree:
                num, den = num * top_den + top_num * den, den * top_den
    return degree, _exact(num, den)


def verify_collided_mass(d: int, dp: int) -> tuple[int, int | Fraction, int, bool]:
    """collided_mass_top's (degree, leading), the pairing count, and ok: -d' and that count."""
    degree, leading = collided_mass_top(d, dp)
    pairings = pairing_count(d, dp)
    return degree, leading, pairings, degree == -dp and leading == pairings


def fiber_mass_table(dmax: int):
    """Rows (mu, mup, degree, margin, interleaved, ok) for all |mu|, |mup| <= dmax.

    degree: fiber_mass(mu, mup).degree, read from the three polynomials (dividing
    by the integer content keeps both degrees).  margin: the dimension margin
    complete_flag_dim(sorted merge) - both Aut dimensions + |mup|.
    interleaved: mup_1 >= mu_1 >= mup_2 >= mu_2 >= ... after common padding.
    ok: margin <= 0, zero exactly when interleaved, and degree = margin - |mup|.
    """
    by_size = [list(partitions(d)) for d in range(dmax + 1)]
    shapes = [mu for mus in by_size for mu in mus]
    aut_degree = {mu: aut_order_poly(mu).degree for mu in shapes}
    aut_dim = {mu: _automorphism_dim(mu) for mu in shapes}
    rows = []
    for mus in by_size:
        for dp, mups in enumerate(by_size):
            for mu in mus:
                for mup in mups:
                    theta = _interleave(mu, mup, max(len(mu), len(mup), 1))
                    margin = _complete_flag_dim(sorted(theta, reverse=True)) - aut_dim[mu] - aut_dim[mup] + dp
                    deg = count_flags_poly(_merge(mu, mup)).degree - aut_degree[mu] - aut_degree[mup]
                    inter = weakly_decreasing(theta)
                    good = margin <= 0 and (margin == 0) == inter and deg == margin - dp
                    rows.append((mu, mup, deg, margin, inter, good))
    return rows
