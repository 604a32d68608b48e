"""Integer coweight vectors, partitions, and the closed-form dimension formulas.

A coweight is a plain tuple of integers.  A partition is a weakly decreasing
tuple of nonnegative integers with trailing zeros trimmed.
"""

from __future__ import annotations

from operator import ge, le, mul

Vec = tuple[int, ...]


def pairing(a: Vec, b: Vec) -> int:
    """Standard inner product <a, b> = sum a_i b_i."""
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(map(mul, a, b))


def weakly_decreasing(v) -> bool:
    return all(map(ge, v, v[1:]))


def weakly_increasing(v) -> bool:
    return all(map(le, v, v[1:]))


# ---------------------------------------------------------------------------
# partitions


def as_partition(seq) -> Vec:
    """Canonical partition: validate weak decrease and nonnegativity, trim zeros."""
    # a tuple that is already canonical is returned as it is (tuple(seq) is seq)
    if type(seq) is tuple and (not seq or seq[-1] > 0) and weakly_decreasing(seq):
        return seq
    parts = tuple(seq)
    if any(x < 0 for x in parts):
        raise ValueError(f"negative part in {parts}")
    if not weakly_decreasing(parts):
        raise ValueError(f"not weakly decreasing: {parts}")
    while parts and parts[-1] == 0:
        parts = parts[:-1]
    return parts


def pad(parts: Vec, m: int) -> Vec:
    if len(parts) > m:
        raise ValueError(f"{parts} has more than {m} parts")
    return tuple(parts) + (0,) * (m - len(parts))


def conjugate(mu) -> Vec:
    mu = as_partition(mu)
    if not mu:
        return ()
    return tuple(sum(1 for p in mu if p >= j) for j in range(1, mu[0] + 1))


def partitions(n: int, max_parts: int | None = None, max_part: int | None = None):
    """Yield all partitions of n, weakly decreasing tuples, in reverse-lex order."""
    if n < 0:
        return
    bound = n if max_part is None else min(max_part, n)

    def gen(remaining, largest, parts_left):
        if remaining == 0:
            yield ()
            return
        if parts_left == 0:
            return
        for first in range(min(largest, remaining), 0, -1):
            for rest in gen(remaining - first, first, parts_left - 1):
                yield (first,) + rest

    limit = n if max_parts is None else max_parts
    yield from gen(n, bound, limit)


def format_coweight(v: Vec) -> str:
    return ",".join(map(str, v))


# ---------------------------------------------------------------------------
# splits and interleavings


def odd_even_split(lam: Vec) -> tuple[Vec, Vec]:
    """Split into (entries at odd positions, entries at even positions), 1-based."""
    if len(lam) % 2 != 0:
        raise ValueError(f"odd length {len(lam)}")
    return tuple(lam[0::2]), tuple(lam[1::2])


def interleave(mu, mup, m: int) -> Vec:
    """The length-2m vector (mup_1, mu_1, mup_2, mu_2, ...) after zero-padding."""
    return _interleave(as_partition(mu), as_partition(mup), m)


def _interleave(mu: Vec, mup: Vec, m: int) -> Vec:
    # mu and mup are canonical partitions
    a = pad(mu, m)
    b = pad(mup, m)
    out = []
    for i in range(m):
        out.append(b[i])
        out.append(a[i])
    return tuple(out)


def special_transposition_chain(theta: Vec) -> tuple[Vec, list[tuple[int, int]], int]:
    """Sort theta weakly decreasing by adjacent swaps of strict ascents.

    Each swap exchanges x_i < x_{i+1} and is recorded as (i, a) with i the
    1-based position and a = x_{i+1} - x_i > 0 the drop in <., tau> for
    tau = (0, 1, ..., len-1).  Returns (sorted vector, swap list, total drop).
    """
    if any(x < 0 for x in theta):
        raise ValueError(f"negative entry in {theta}")
    xs = list(theta)
    steps: list[tuple[int, int]] = []
    i = 0
    while i < len(xs) - 1:
        if xs[i] < xs[i + 1]:
            a = xs[i + 1] - xs[i]
            xs[i], xs[i + 1] = xs[i + 1], xs[i]
            steps.append((i + 1, a))
            i = max(i - 1, 0)
        else:
            i += 1
    eta = tuple(xs)
    gap = sum(a for _, a in steps)
    return eta, steps, gap


# ---------------------------------------------------------------------------
# dimension formulas


def flag_bundle_dim(n: int, r: int, g: int) -> int:
    """n*r + (1-g) * sum_{i<n} i^2; for even n this agrees with the cubic closed form."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if r < 0:
        raise ValueError("r must be >= 0")
    return n * r + (1 - g) * sum(i * i for i in range(1, n))


def _exact(num: int, den: int) -> int | Fraction:
    """num / den: an int when it divides exactly, else a Fraction."""
    quotient, remainder = divmod(num, den)
    if remainder:
        from fractions import Fraction

        return Fraction(num, den)
    return quotient


def flag_bundle_dim_even(n: int, r: int, g: int) -> int | Fraction:
    """Closed form for even n: n*r + (1-g)(n-1)(n/2)(2n-1)/3, exact."""
    if n % 2 != 0:
        raise ValueError("closed form requires even n")
    return _exact(3 * n * r + (1 - g) * (n - 1) * (n // 2) * (2 * n - 1), 3)


def _relative_dim(n: int, d: int, g: int) -> int | Fraction:
    # n*d - (n/6)(n-1)(4n+1)(g-1), exact
    return _exact(6 * n * d - n * (n - 1) * (4 * n + 1) * (g - 1), 6)


def fibration_dim_identity(n: int, d: int, dp: int, g: int) -> tuple[int, int, bool]:
    """Both sides of 2 * (rel dim + rel dim') = even-rank flag dim + n(g-1)."""
    lhs = 2 * (_relative_dim(n, d, g) + _relative_dim(n, dp, g))
    rhs = flag_bundle_dim(2 * n, d + dp, g) + n * (g - 1)
    return lhs, rhs, lhs == rhs


def complete_flag_dim(eta) -> int:
    """Dimension of the scheme of complete flags of a torsion module of type eta.

    Telescoped form sum_i eta_i * (i - 1); the literal form
    sum_i (eta_i - eta_{i+1}) * i(i-1)/2 is kept as a test oracle.
    """
    return _complete_flag_dim(as_partition(eta))


def _complete_flag_dim(eta) -> int:
    # eta weakly decreasing and nonnegative; trailing zeros add nothing
    return sum(x * i for i, x in enumerate(eta))


def automorphism_dim(mu) -> int:
    """dim Aut of a torsion module of type mu: sum_i mu_i * (2i - 1)."""
    return _automorphism_dim(as_partition(mu))


def _automorphism_dim(mu: Vec) -> int:
    return sum(x * (2 * i + 1) for i, x in enumerate(mu))
